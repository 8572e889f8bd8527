//! The repo benchmark. `README.md` beside this package has the workload,
//! metric and interaction tables; `BENCHMARK.json` at the repo root is the
//! contract a later change is held to (`--spec` prints it).
//!
//! With `--workload NAME` this process runs that one workload and prints the
//! driver's result line last: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics (and `out/NAME.trace.json`) with `--trace 1`. Without
//! it, every workload runs both ways, each in a fresh process.

mod drives;
mod report;
mod serve;
mod sim;
mod spans;
mod spec;
mod stats;

use report::{header_json, out_dir, Report};
use std::process::ExitCode;

const USAGE: &str =
    "usage: melreq-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] | --spec";

struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args =
        Args { workload: None, seed: 42, seconds: spec::RUN_SECONDS as f64, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--spec" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                let known = spec::WORKLOADS.iter().find(|w| w.name == value);
                args.workload = Some(known.ok_or_else(|| bad(&"unknown workload"))?.name);
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(args))
}

/// Run `workload` in this process; true when every check passed.
fn run_one(workload: &'static str, args: &Args) -> bool {
    let header = header_json(workload, args.seed);
    println!("{{{header}}}");
    let mut report = Report::default();
    let trace_path = out_dir().join(format!("{workload}.trace.json"));
    match (workload.starts_with("serve_"), args.trace) {
        (false, false) => sim::plan(workload, args.seed).run_timed(args.seconds, &mut report),
        (false, true) => {
            sim::plan(workload, args.seed).run_traced(&trace_path, &header, &mut report)
        }
        (true, false) => serve::plan(workload, args.seed).run_timed(args.seconds, &mut report),
        (true, true) => {
            serve::plan(workload, args.seed).run_traced(&trace_path, &header, &mut report)
        }
    }
    if args.trace {
        drives::run_for(workload, &mut report);
        println!("trace written to {}", trace_path.display());
    }
    report.print(args.trace);
    report.correct()
}

/// Every workload, untraced then traced, one fresh process each.
fn run_all(args: &Args) -> bool {
    let exe = std::env::current_exe().expect("own executable path");
    let mut ok = true;
    for w in spec::WORKLOADS {
        for trace in ["0", "1"] {
            println!("\n=== {} --trace {trace} ===", w.name);
            let status = std::process::Command::new(&exe)
                .args(["--workload", w.name, "--trace", trace])
                .args(["--seed", &args.seed.to_string(), "--seconds", &args.seconds.to_string()])
                .status()
                .expect("start a workload process");
            ok &= status.success();
        }
    }
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", spec::benchmark_json());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match args.workload {
        Some(workload) => run_one(workload, &args),
        None => run_all(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
