//! Layer drives: micro-loops over one crate's public calls, timed from
//! outside. They carry over the bodies of the four Criterion benches under
//! `crates/bench/benches/` (never recorded anywhere), extended to the eight
//! registry policies and to the api, snapshot, executor and HTTP codecs.
//!
//! Every drive reports the fastest of [`BATCHES`] batches of at least
//! [`BATCH_SECONDS`] each: the loops are deterministic, so noise only adds
//! time. Each workload runs the drives of the layers it leans on
//! ([`run_for`]); README.md has the table.

use crate::report::Report;
use melreq_cache::{CacheArray, CacheConfig, MshrFile};
use melreq_core::api::{PolicyKind, Session, SimRequest};
use melreq_core::experiment::{ExperimentOptions, RunControl};
use melreq_core::{System, SystemConfig};
use melreq_dram::{DramGeometry, DramSystem};
use melreq_memctrl::policy::Candidate;
use melreq_memctrl::ReqId;
use melreq_stats::types::{AccessKind, CoreId};
use melreq_trace::InstrStream;
use melreq_workloads::{app_by_code, SliceKind};
use std::hint::black_box;
use std::time::Instant;

const BATCHES: usize = 5;
const BATCH_SECONDS: f64 = 0.1;

/// Nanoseconds per operation of `run`, which performs `ops` operations on
/// the value `setup` makes (set-up time is not counted).
fn drive<S>(ops: u64, mut setup: impl FnMut() -> S, mut run: impl FnMut(&mut S)) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut total_ops = 0;
    for _ in 0..BATCHES {
        let (mut busy, mut done) = (0.0, 0u64);
        while busy < BATCH_SECONDS {
            let mut state = setup();
            let started = Instant::now();
            run(&mut state);
            busy += started.elapsed().as_secs_f64();
            done += ops;
            black_box(&mut state);
        }
        best = best.min(busy * 1e9 / done as f64);
        total_ops += done;
    }
    (best, total_ops)
}

/// [`drive`] for a cheap call on long-lived state: `call` runs in chunks of
/// 4096 between clock reads.
fn drive_hot(mut call: impl FnMut()) -> (f64, u64) {
    drive(
        4096,
        || (),
        |_| {
            for _ in 0..4096 {
                call();
            }
        },
    )
}

fn workloads(report: &mut Report) {
    for (name, code) in
        [("workloads.gen_ns_per_instr.mem", 'b'), ("workloads.gen_ns_per_instr.ilp", 'a')]
    {
        let mut stream = app_by_code(code).build_stream(0, SliceKind::Evaluation(0));
        let (ns, n) = drive_hot(|| {
            black_box(stream.next_op());
        });
        report.set(name, ns, n);
    }
}

fn cpu(report: &mut Report) {
    const TARGET: u64 = 20_000;
    for (name, code) in [("cpu.solo_ilp_kinstr_per_s", 'a'), ("cpu.solo_mem_kinstr_per_s", 'b')] {
        let build = || {
            let stream: Box<dyn InstrStream + Send> =
                Box::new(app_by_code(code).build_stream(0, SliceKind::Evaluation(0)));
            System::new(SystemConfig::paper(1, PolicyKind::HfRf), vec![stream], &[1.0])
        };
        let (ns, n) = drive(TARGET, build, |sys| {
            let out = sys.run_until_targets(TARGET, 1 << 28);
            assert!(!out.timed_out, "solo run hit the cycle limit");
        });
        report.set(name, 1e6 / ns, n);
    }
}

fn cache(report: &mut Report) {
    let mut l1d = CacheArray::new(CacheConfig::l1d_paper());
    for i in 0..512u64 {
        l1d.fill(i * 64, false);
    }
    let mut i = 0u64;
    let (ns, n) = drive_hot(|| {
        i = (i + 1) % 512;
        black_box(l1d.access(black_box(i * 64), false));
    });
    report.set("cache.l1d_hit_ns", ns, n);

    let mut l2 = CacheArray::new(CacheConfig::l2_paper());
    let mut addr = 0u64;
    let (ns, n) = drive_hot(|| {
        addr += 64;
        black_box(l2.fill(black_box(addr), addr.is_multiple_of(3)));
    });
    report.set("cache.l2_fill_evict_ns", ns, n);

    let mut mshr: MshrFile<u32> = MshrFile::new(32);
    let mut addr = 0u64;
    let (ns, n) = drive_hot(|| {
        addr += 64;
        mshr.allocate(addr, 1);
        mshr.allocate(addr + 16, 2); // merges into the same line
        black_box(mshr.complete(addr));
    });
    report.set("cache.mshr_alloc_complete_ns", ns, n);
}

fn dram(report: &mut Report) {
    let geometry = DramGeometry::paper();
    let mut addr = 0u64;
    let (ns, n) = drive_hot(|| {
        addr = addr.wrapping_add(0x4373).wrapping_mul(0x9E37_79B9_7F4A_7C15) & 0x00FF_FFFF_FFC0;
        black_box(geometry.decode(black_box(addr)));
    });
    report.set("dram.decode_ns", ns, n);

    // 256 reads issued as early as the device allows, per fresh device.
    let issue = |d: &mut DramSystem, next: &mut dyn FnMut(u64) -> u64| {
        let mut now = 0;
        for i in 0..256u64 {
            let loc = d.decode(next(i));
            while !d.can_issue(&loc, now) {
                now += 1;
            }
            black_box(d.issue(&loc, AccessKind::Read, now, false));
            now += 1;
        }
    };
    let (ns, n) = drive(256, DramSystem::paper, |d| issue(d, &mut |i| i * 64));
    report.set("dram.issue_seq_ns", ns, n);
    let (ns, n) = drive(256, DramSystem::paper, |d| {
        let mut addr = 0u64;
        issue(d, &mut |_| {
            addr = addr.wrapping_add(0x12345).wrapping_mul(6_364_136_223_846_793_005) & 0x3FFF_FFC0;
            addr
        });
    });
    report.set("dram.issue_rand_ns", ns, n);
}

/// One scheduling decision — `select` then `note_grant`, as the controller
/// makes it — over a full candidate set from 8 cores.
fn memctrl(report: &mut Report) {
    const CORES: usize = 8;
    let me: Vec<f64> = (0..CORES).map(|i| 1.0 + i as f64 * 7.0).collect();
    let pending: Vec<u32> = (0..CORES).map(|i| 1 + (i as u32 * 3) % 17).collect();
    let candidates = |n: usize| -> Vec<Candidate> {
        (0..n)
            .map(|i| Candidate {
                id: ReqId(i as u64),
                core: CoreId((i % CORES) as u16),
                row_hit: i % 5 == 0,
            })
            .collect()
    };
    let mut decide = |id: &str, n: usize| {
        let mut policy = PolicyKind::parse(id).expect("registered policy").build(&me, CORES, 42);
        let cands = candidates(n);
        let (ns, ops) = drive_hot(|| {
            let pick = policy.select(black_box(&cands), black_box(&pending));
            policy.note_grant(&cands[pick]);
            black_box(pick);
        });
        report.set(&format!("memctrl.select{n}_ns.{id}"), ns, ops);
    };
    for id in ["hf-rf", "lreq", "me", "me-lreq", "fq", "stf", "bliss", "tcm"] {
        decide(id, 32);
    }
    decide("me-lreq", 64);
}

/// The request the service workloads send, give or take the salt.
fn quick_request() -> SimRequest {
    SimRequest::new("2MEM-1")
        .policy(PolicyKind::MeLreq)
        .opts(ExperimentOptions::quick())
        .max_cycles(1 << 40)
}

fn core_api(report: &mut Report) {
    let req = quick_request();
    let body = req.to_json();
    let (ns, n) = drive_hot(|| {
        black_box(SimRequest::from_json(black_box(&body)).expect("own body parses"));
    });
    report.set("core.api.request_parse_us", ns / 1e3, n);
    let (ns, n) = drive_hot(|| {
        black_box(black_box(&req).canonical_bytes());
    });
    report.set("core.api.canonical_us", ns / 1e3, n);
    let sim_report = Session::new().run(&req, &RunControl::default()).expect("in-process run");
    let (ns, n) = drive_hot(|| {
        black_box(black_box(&sim_report).to_json());
    });
    report.set("core.api.report_render_us", ns / 1e3, n);
}

fn snap(report: &mut Report) {
    const WORDS: usize = 128 * 1024; // 1 MiB of payload
    let words: Vec<u64> =
        (0..WORDS as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
    let mb = (WORDS * 8) as f64 / 1e6;
    let rate = |ns_per_call: f64| mb / (ns_per_call / 1e9);
    let encode = || {
        let mut enc = melreq_snap::Enc::new();
        enc.u64s(&words);
        enc.into_bytes()
    };
    let (ns, n) = drive(
        1,
        || (),
        |_| {
            black_box(encode());
        },
    );
    report.set("snap.enc_mb_per_s", rate(ns), n);
    let bytes = encode();
    let (ns, n) = drive(
        1,
        || (),
        |_| {
            black_box(melreq_snap::Dec::new(&bytes).u64s().expect("own encoding decodes"));
        },
    );
    report.set("snap.dec_mb_per_s", rate(ns), n);
    let (ns, n) = drive(
        1,
        || (),
        |_| {
            let sealed = melreq_snap::seal(black_box(&bytes));
            black_box(melreq_snap::open(&sealed).expect("own container opens").len());
        },
    );
    report.set("snap.seal_open_mb_per_s", rate(ns), n);
}

fn exec(report: &mut Report) {
    const JOBS: u64 = 10_000;
    let (ns, n) = drive(
        JOBS,
        || (),
        |_| {
            melreq_exec::run_scope(2, |scope| {
                for _ in 0..JOBS {
                    scope.submit(0, |_| {});
                }
            });
        },
    );
    report.set("exec.job_overhead_us", ns / 1e3, n);
}

fn serve_http(report: &mut Report) {
    let wire = crate::serve::render_request("POST", "/run", &quick_request().to_json());
    let (ns, n) = drive_hot(|| {
        black_box(melreq_serve::http::parse_request(black_box(&wire), 1 << 20).expect("parses"));
    });
    report.set("serve.parse_us", ns / 1e3, n);
    let answer = "x".repeat(1400); // about the size of a /run envelope
    let (ns, n) = drive_hot(|| {
        black_box(melreq_serve::http::response_bytes(
            200,
            "application/json",
            &[],
            black_box(&answer),
            false,
        ));
    });
    report.set("serve.response_bytes_us", ns / 1e3, n);
}

/// Run the drives of the layers `workload` leans on.
pub fn run_for(workload: &str, report: &mut Report) {
    match workload {
        "kernel_mem8" => {
            dram(report);
            memctrl(report);
        }
        "kernel_ilp4" => {
            workloads(report);
            cpu(report);
            cache(report);
        }
        "sweep_warm" => {
            snap(report);
            exec(report);
        }
        "serve_hit" => {
            core_api(report);
            serve_http(report);
        }
        _ => {}
    }
}
