//! What one run prints: the host block, every metric by name with its unit
//! and sample count, the correctness checks, and the driver's result line.

use crate::spec::{END_TO_END, PER_LAYER};
use melreq_core::api::json::esc;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The benchmark's own directory in this checkout.
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Where traces and scratch stores go (ignored by git).
pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

/// An absent scratch directory of this process for `workload`.
pub fn scratch_dir(workload: &str, tag: &str) -> PathBuf {
    let dir = out_dir().join(format!("tmp-{workload}-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn first_line_after(text: &str, key: &str) -> Option<String> {
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// The commit of the checkout the benchmark was built in, read from `.git`
/// without starting a process; the driver's checkouts have none.
fn commit() -> String {
    let git = bench_dir().join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() { "unknown".into() } else { head.to_string() };
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines().find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `"host":{...},"seed":N,"workload":"..."` — the block every output carries.
pub fn header_json(workload: &str, seed: u64) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    format!(
        "\"workload\":\"{workload}\",\"seed\":{seed},\"host\":{{\"nproc\":{},\"cpu\":\"{}\",\"kernel\":\"{}\",\"rustc\":\"{}\",\"profile\":\"{}\",\"commit\":\"{}\"}}",
        std::thread::available_parallelism().map_or(0, std::num::NonZero::get),
        esc(&first_line_after(&cpuinfo, "model name").unwrap_or_else(|| "unknown".into())),
        esc(kernel.trim()),
        esc(env!("BENCH_RUSTC")),
        esc(env!("BENCH_PROFILE")),
        esc(&commit()),
    )
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    first_line_after(&status, "VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One run's results.
#[derive(Default)]
pub struct Report {
    /// name → (value, samples behind it).
    metrics: BTreeMap<&'static str, (f64, u64)>,
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
}

impl Report {
    /// Record `name`, which must be one of the metrics in spec.rs.
    pub fn set(&mut self, name: &str, value: f64, samples: u64) {
        let mut known = END_TO_END.iter().map(|m| m.name).chain(PER_LAYER.iter().map(|m| m.name));
        let Some(known) = known.find(|n| *n == name) else { panic!("{name} is not in spec.rs") };
        assert!(value.is_finite(), "metric {name} is {value}");
        self.metrics.insert(known, (value, samples));
    }

    /// Record a correctness check; a failed one fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }

    /// Print the human-readable block, then the driver's JSON line last.
    /// `traced` picks which half of the spec this run owes.
    pub fn print(&self, traced: bool) {
        let owed: Vec<(&str, &str)> = if traced {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        let mut fields = Vec::with_capacity(owed.len());
        for (name, unit) in owed {
            match self.metrics.get(name) {
                Some((v, n)) => {
                    println!("{name:<36} {v:>16.6} {unit:<9} n={n}");
                    fields.push(format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"));
                }
                // Not measured on this workload; the driver still wants the key.
                None => fields.push(format!("\"{name}\":{{\"value\":0,\"unit\":\"{unit}\"}}")),
            }
        }
        println!("ops_attempted {}  ops_failed {}", self.attempted, self.failed);
        for f in &self.failures {
            println!("CHECK FAILED: {f}");
        }
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            fields.join(",")
        );
    }
}
