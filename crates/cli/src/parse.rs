//! Argument parsing (hand-rolled — the workspace's only dependencies are
//! the simulation crates plus rand/proptest).

use melreq_core::experiment::ExperimentOptions;

/// A policy selected on the command line. This is
/// [`melreq_memctrl::PolicyKind`], resolved through the open policy
/// registry — the CLI, the service and the bench harness all parse
/// policy names through the same table, so a token accepted here is
/// accepted everywhere, including the `name(key=value,...)` parameter
/// grammar (e.g. `bliss(threshold=8)`).
pub use melreq_memctrl::PolicyKind as PolicySpec;

/// Observability flags (`--trace`, `--series`, `--sample-epoch`,
/// `--trace-cap`, `--provenance`) accepted by `run` and `trace`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ObsArgs {
    /// Perfetto trace output path (`--trace PATH`; `trace` uses `--out`).
    pub trace_out: Option<String>,
    /// Epoch time-series output path: CSV, or JSON when the path ends
    /// in `.json`.
    pub series_out: Option<String>,
    /// Sampling epoch in cycles (`--sample-epoch N`).
    pub sample_epoch: Option<u64>,
    /// Trace-ring capacity override in events (`--trace-cap N`).
    pub trace_cap: Option<usize>,
    /// Render per-policy decision-provenance totals.
    pub provenance: bool,
}

impl ObsArgs {
    /// Whether any observability output was requested.
    pub fn any(&self) -> bool {
        self.trace_out.is_some()
            || self.series_out.is_some()
            || self.sample_epoch.is_some()
            || self.provenance
    }
}

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Profile applications (Table 2 style).
    Profile {
        /// Benchmark names; empty = all 26.
        apps: Vec<String>,
        /// Harness options.
        opts: ExperimentOptions,
    },
    /// Run one mix under one policy, with per-core detail.
    Run {
        /// Table 3 mix name.
        mix: String,
        /// Scheduling policy.
        policy: PolicySpec,
        /// Harness options.
        opts: ExperimentOptions,
        /// Attach the protocol/invariant checker to the run.
        audit: bool,
        /// Observability outputs (trace/series/provenance).
        obs: ObsArgs,
        /// Emit the versioned machine-readable report instead of tables.
        json: bool,
        /// Worker-thread count (`--threads`; falls back to
        /// `MELREQ_THREADS`, then host parallelism).
        threads: Option<usize>,
        /// Host-profile output path (`--profile PATH`): wall-clock span
        /// trace of the run itself (executor, kernel stages, facade).
        prof_out: Option<String>,
    },
    /// Run one mix with the trace collector attached and export a
    /// Chrome/Perfetto trace (plus optional epoch time-series).
    Trace {
        /// Table 3 mix name.
        mix: String,
        /// Scheduling policy.
        policy: PolicySpec,
        /// Perfetto JSON output path.
        out: String,
        /// Observability outputs (series path, epoch, ring capacity).
        obs: ObsArgs,
        /// Harness options.
        opts: ExperimentOptions,
    },
    /// Run one mix twice under the independent protocol/invariant checker
    /// and verify clean reports plus identical event-stream hashes.
    Audit {
        /// Table 3 mix name.
        mix: String,
        /// Scheduling policy.
        policy: PolicySpec,
        /// Harness options.
        opts: ExperimentOptions,
    },
    /// Compare several policies on one mix.
    Compare {
        /// Table 3 mix name.
        mix: String,
        /// Policies, first is the baseline.
        policies: Vec<PolicySpec>,
        /// Harness options.
        opts: ExperimentOptions,
        /// Append per-policy decision-provenance totals.
        provenance: bool,
        /// Emit the versioned machine-readable report instead of tables.
        json: bool,
        /// Worker-thread count for the shared-warm-up policy forks.
        threads: Option<usize>,
        /// Host-profile output path (`--profile PATH`).
        prof_out: Option<String>,
    },
    /// Core-count scaling sweep (2/4/8) of average improvement.
    Sweep {
        /// "mem", "mix" or "all".
        kind: String,
        /// Policies, first is the baseline.
        policies: Vec<PolicySpec>,
        /// Harness options.
        opts: ExperimentOptions,
        /// Worker-thread count for the grid pool.
        threads: Option<usize>,
    },
    /// Drive the full paper grid (Table 2, Figures 2–5, ablation) with
    /// shared warm-ups and a persistent checkpoint store, writing a
    /// machine-readable sweep artifact.
    Reproduce {
        /// Reduced CI-sized grid at quick options; also a hard
        /// fork-vs-fresh divergence gate (nonzero exit on mismatch).
        smoke: bool,
        /// Disable warm-up sharing entirely: no persistent store and one
        /// fresh warm-up per (mix, policy) — the comparison baseline.
        no_checkpoint: bool,
        /// Checkpoint-store directory override (default: `MELREQ_STORE`
        /// env var, else `.melreq-store`).
        store: Option<String>,
        /// Output path of the JSON artifact.
        out: String,
        /// Harness options.
        opts: ExperimentOptions,
        /// Worker-thread count for the global sweep pool.
        threads: Option<usize>,
        /// Baseline sweep artifact to guard `total_wall_s` against
        /// (`--guard PATH`): exit nonzero when this run's wall exceeds
        /// the baseline's beyond the guard ratio.
        guard: Option<String>,
        /// Guard tolerance (`--guard-ratio R`, default 0.25): fail when
        /// `total_wall_s > baseline_total_wall_s / R`.
        guard_ratio: f64,
        /// Host-profile output path (`--profile PATH`): Perfetto span
        /// trace of the sweep itself, summary embedded in the artifact.
        prof_out: Option<String>,
    },
    /// Serve the simulator over HTTP: `/run`, `/compare`, `/healthz`,
    /// `/metrics` on a bounded worker pool sharing one checkpoint store.
    Serve {
        /// Bind address (`--addr HOST:PORT`).
        addr: String,
        /// Worker threads executing simulations.
        workers: usize,
        /// Bounded job-queue capacity (beyond it: 429 + `Retry-After`).
        queue_cap: usize,
        /// Checkpoint-store directory override.
        store: Option<String>,
        /// Run storeless (every request warms up from scratch).
        no_store: bool,
        /// Default per-request wall-clock budget in milliseconds.
        timeout_ms: Option<u64>,
        /// Response-cache capacity in entries (0 = off, the default).
        response_cache: usize,
        /// Idle keep-alive connection timeout in milliseconds
        /// (0 disables the sweep).
        idle_timeout_ms: u64,
        /// Structured JSON access-log path (`--access-log PATH`).
        access_log: Option<String>,
        /// Host-profile output path (`--profile PATH`): request-lifecycle
        /// span trace written at drain.
        prof_out: Option<String>,
    },
    /// Talk to a running server: build the same typed request the local
    /// commands use and POST it (or hit a GET endpoint). Several verbs
    /// in one invocation share one keep-alive connection.
    Client {
        /// Verbs, executed in order on one connection: `run`, `compare`,
        /// `health`, `metrics`, `buildinfo`, `shutdown` (at most one of
        /// run|compare).
        verbs: Vec<String>,
        /// Table 3 mix name (run/compare).
        mix: Option<String>,
        /// Policies for run/compare.
        policies: Vec<PolicySpec>,
        /// Harness options forwarded in the request body.
        opts: ExperimentOptions,
        /// Attach the auditor server-side.
        audit: bool,
        /// Server address.
        addr: String,
        /// Per-request wall-clock budget in milliseconds.
        timeout_ms: Option<u64>,
    },
    /// Drive a running server with the deterministic open-loop load
    /// generator and write the `BENCH_serve.json` artifact.
    Loadbench {
        /// Server address.
        addr: String,
        /// Offered arrival rate, requests per second.
        rps: f64,
        /// Client connections (worker threads).
        conns: usize,
        /// Arrival-window length per phase, seconds.
        duration_s: f64,
        /// Arrival-process seed.
        seed: u64,
        /// Mix for the repeated request of the cached phase.
        mix: String,
        /// Artifact output path.
        out: String,
        /// Baseline artifact to guard cached throughput against.
        guard: Option<String>,
        /// Guard ratio: fail when cached throughput drops below
        /// `baseline * R`.
        guard_ratio: f64,
    },
    /// Run the workspace determinism & snapshot-coverage static
    /// analyzer (rules D01/D02/S01/S02/A01) over `crates/*/src`.
    Analyze {
        /// Emit the versioned machine-readable findings report.
        json: bool,
        /// Regenerate `snap.fingerprint` from the current tree before
        /// the S02 comparison (commit the result).
        fix_fingerprint: bool,
        /// Workspace root (default: walk up from the current directory
        /// to the nearest directory containing `crates/snap`).
        root: Option<String>,
        /// Optional path to also write the rendered report to.
        out: Option<String>,
    },
    /// Print the Table 1 machine configuration.
    Config {
        /// Core count to describe.
        cores: usize,
    },
    /// Print usage.
    Help,
}

/// Usage text.
pub const USAGE: &str = "\
melreq — memory access scheduling simulator (ICPP'08 ME-LREQ reproduction)

USAGE:
  melreq profile [--apps a,b,...] [common options]
  melreq run <MIX> [--policy NAME] [--audit] [--json] [trace options]
             [common options]
  melreq trace <MIX> [--policy NAME] [--out PATH] [trace options]
               [common options]
  melreq compare <MIX> [--policies n1,n2,...] [--provenance] [--json]
                 [common options]
  melreq sweep [--kind mem|mix|all] [--policies n1,n2,...] [common options]
  melreq audit [MIX] [--policy NAME] [common options]
  melreq reproduce [--smoke] [--no-checkpoint] [--store DIR] [--out PATH]
                   [--guard PATH [--guard-ratio R]] [common options]
  melreq serve [--addr H:P] [--workers N] [--queue-cap M] [--store DIR]
               [--no-store] [--timeout-ms N] [--response-cache N]
               [--idle-timeout-ms N] [--access-log PATH] [--profile PATH]
  melreq client VERB... [--policy NAME | --policies n1,n2,...] [--audit]
               [--addr H:P] [--timeout-ms N] [common options]
               where VERB is run <MIX> | compare <MIX> | health | metrics
               | buildinfo | policies | shutdown; several verbs share one
               keep-alive connection (at most one of run|compare per
               invocation)
  melreq loadbench [MIX] [--addr H:P] [--rps R] [--conns N]
                   [--duration S] [--seed N] [--out PATH]
                   [--guard PATH [--guard-ratio R]]
  melreq analyze [--json] [--fix-fingerprint] [--root DIR] [--out PATH]
  melreq config [--cores N]
  melreq help
  A flag its verb does not read is a usage error, as is a surplus
  positional argument: nothing on a command line is silently ignored.

POLICIES:
  fcfs fcfs-rf hf-rf rr lreq me me-lreq me-lreq-on fix-0123 fix-3210
  fq stf bliss tcm
  Names resolve through the open policy registry (case-insensitive,
  aliases accepted: baseline, hfrf, round-robin, melreq, online,
  fair-queueing, stall-time-fair, tcm-cluster). Parameterized policies
  take `name(key=value,...)`: bliss(threshold=4,clear=10000),
  tcm(quantum=2000), me-lreq-on(epoch=50000). An unknown name suggests
  the nearest registered one. `melreq client policies` (or GET
  /policies on a server) lists every descriptor as JSON; compare/sweep
  with no --policies default to the registry's paper-figure set.

COMMON OPTIONS (profile, run, trace, audit, compare, sweep, reproduce,
client):
  --instructions N   measured instructions per core   (default 150000)
  --warmup N         warm-up instructions per core    (default 60000)
  --profile N|PATH   a number sets the profiling-run instruction count
                     (default 60000); a path enables the host-side span
                     profiler and writes a Perfetto trace there (run,
                     compare, reproduce, serve — see HOST PROFILING)
  --slice K          evaluation slice index           (default 0)
  --threads N        (run, compare, sweep, reproduce) worker threads for
                     pooled runs (default MELREQ_THREADS, else host
                     parallelism); results are bit-identical at any value

COMMAND FLAGS:
  profile   --apps a,b,...      subset of SPEC2000 names (default all 26)
  run       --policy NAME       scheduling policy       (default me-lreq)
            --audit             attach the protocol/invariant checker
            --json              print the versioned single-line report
                                (byte-identical to the server's /run body)
  compare   --policies n1,...   policy list, first = baseline
            --provenance        per-policy rule-attribution totals
            --json              versioned report instead of the table
  sweep     --kind mem|mix|all  workload class          (default mem)
            --policies n1,...   policy list, first = baseline
  reproduce --smoke             reduced CI grid + fork-vs-fresh gate
            --no-checkpoint     no store, no in-group warm-up sharing
            --store DIR         checkpoint-store directory
                                (default MELREQ_STORE, else .melreq-store)
            --out PATH          sweep artifact          (BENCH_sweep.json)
            --guard PATH        baseline sweep artifact; exit nonzero when
                                total_wall_s exceeds baseline/R
            --guard-ratio R     wall-guard ratio in (0,1]   (default 0.25)
  serve     --addr H:P          bind address        (default 127.0.0.1:7700)
            --workers N         simulation worker threads       (default 2)
            --queue-cap M       job-queue bound; beyond it 429 (default 16)
            --store DIR         checkpoint-store directory (same default)
            --no-store          run storeless (no warm-up reuse)
            --timeout-ms N      default per-request wall-clock budget
            --response-cache N  cache N rendered responses  (default 0=off)
            --idle-timeout-ms N close idle keep-alive connections after N ms
                                (default 30000; 0 = never)
            --access-log PATH   append one structured JSON line per request
                                (id, endpoint, status, per-stage µs)
            --profile PATH      write the request-lifecycle host profile
                                (Perfetto JSON) at drain
  client    --addr H:P          server address      (default 127.0.0.1:7700)
            --timeout-ms N      request wall-clock budget (forwarded)
            --policy NAME       policy of the run/compare request
            --policies n1,...   its policy list, first = baseline
            --audit             attach the auditor server-side
  loadbench --addr H:P          server address      (default 127.0.0.1:7700)
            --rps R             offered open-loop arrival rate (default 200)
            --conns N           client connections/workers     (default 16)
            --duration S        arrival window per phase, s   (default 2.0)
            --seed N            arrival-process seed           (default 42)
            --out PATH          load artifact        (BENCH_serve.json)
            --guard PATH        baseline load artifact; exit nonzero when
                                cached throughput drops below baseline*R
            --guard-ratio R     load-guard ratio in (0,1]   (default 0.25)
  analyze   --json              versioned findings report instead of text
            --fix-fingerprint   regenerate snap.fingerprint from the tree
            --root DIR          workspace root (default: nearest ancestor
                                directory containing crates/snap)
            --out PATH          also write the report to a file
  config    --cores N           core count to describe  (default 4)

TRACE OPTIONS (run and trace):
  --trace PATH       (run) write a Chrome/Perfetto trace_event JSON of the
                     run (`trace` writes one always; its path is --out,
                     default trace.json)
  --series PATH      write the epoch time-series (CSV, or JSON when the
                     path ends in .json); implies sampling
  --sample-epoch N   sampling epoch in cycles (default 10000 when a
                     series is requested or under `trace`)
  --trace-cap N      trace-ring capacity in events (default 1048576,
                     oldest events drop beyond it)
  --provenance       (run; `trace` always does) print which scheduler
                     rule won each grant, aggregated per policy

SERVICE:
  `melreq serve` exposes the simulator over HTTP/1.1 (std-only, no
  external dependencies): POST /run and /compare take the same JSON
  request the `melreq client` subcommand builds, execute it on a bounded
  worker pool sharing one profile cache and checkpoint store, and return
  `{\"cache\": ..., \"store\": ..., \"report\": ...}` where `report` is
  byte-identical to `melreq run --json` for the same request. All
  connections are served by one nonblocking event loop with keep-alive
  and pipelining; idle connections close after --idle-timeout-ms. With
  --response-cache N, repeated identical requests answer from an LRU of
  rendered reports (`\"cache\":\"response\"`), and identical requests
  arriving while one is already simulating coalesce onto that run
  (`\"cache\":\"coalesced\"`) — same report bytes either way. A full
  queue answers 429 with Retry-After; per-request wall-clock budgets
  cancel runs at an epoch boundary (504); SIGTERM (or POST /shutdown)
  drains queued jobs before exiting. GET /healthz, /metrics (Prometheus
  text format, including per-stage request-latency histograms) and
  /buildinfo (version, poller backend, pool shape) serve operators.
  Every machine-readable body carries schema_version; mismatched client
  requests are rejected.

LOAD TESTING:
  `melreq loadbench` drives a running server with a deterministic
  open-loop arrival process (seeded exponential inter-arrivals; same
  seed = byte-identical offered load, hashed into the artifact) and
  runs two phases back to back: `baseline_close` opens a fresh
  connection per unique request — the cold thread-per-connection
  model — and `keepalive_cached` repeats one identical request over
  persistent connections so the response cache and coalescing answer.
  The artifact (BENCH_serve.json) records per-phase p50/p90/p95/p99
  latency, throughput, 429/504/5xx and transport-error counts, and the
  cached-over-baseline throughput speedup. --guard compares cached
  throughput against a committed baseline artifact and exits nonzero
  (timeout-class, code 6) below baseline*ratio.

HOST PROFILING:
  `--profile PATH` (on run, compare, reproduce and serve) attaches the
  host-side span profiler: thread-local ring buffers record wall-clock
  spans of the process itself — executor job spans with queue-wait and
  steal attribution, kernel stages (warm-up, snapshot encode/decode,
  policy runs), session phases, and under serve the request lifecycle
  (parse → queue → execute → render → flush). At exit the spans are
  drained into a Perfetto trace_event JSON at PATH (one track per
  thread, wall-clock µs — a separate clock domain from the sim-time
  `--trace` output; never merge the two files) with an aggregated
  summary plus a buildinfo block embedded, and the summary is printed
  (reproduce also embeds it in the sweep artifact as `host_profile`).
  Profiling is inert: simulation results are bit-identical with it on
  or off.

TRACING:
  `melreq trace` runs a mix with the deterministic trace collector on
  the audit tap: request arrivals, reconstructed ACT/RD/WR/PRE commands,
  grants (with the winning rule and beaten runner-up), refreshes and
  per-core memory-stall spans, exported as Chrome trace_event JSON —
  open it at https://ui.perfetto.dev. Timestamps are sim-cycles (shown
  as µs). Tracing is inert: results are bit-identical with it on or off.

REPRODUCING:
  `melreq reproduce` runs the whole paper — Table 2 profiles, the
  Figure 2/4/5 grid on 2/4/8 cores, the Figure 3 fixed-priority study
  and the offline-vs-online ablation — sharing each mix's warm-up
  across all policies via system snapshots, and writes BENCH_sweep.json
  (wall time, sim-cycles/s, checkpoint hit rate, peak RSS). A full run
  also writes the paper's tables, results/{table2,fig2,fig3,fig4,fig5}.txt,
  into a results/ directory beside --out. Warm-up
  checkpoints and profiles persist in the store directory (--store,
  MELREQ_STORE, default .melreq-store), so a second invocation skips
  all warm-up and profiling simulation. --no-checkpoint disables both
  the store and in-group sharing; --smoke runs a reduced CI grid, leaves
  results/ untouched (its summary shows the Figure 2 table of the one
  stage it ran) and exits nonzero if forked results diverge from fresh
  runs.

AUDITING:
  --audit attaches an independent checker that re-validates every DRAM
  grant against the DDR2 timing constraints and every scheduling decision
  against the policy's invariants. `melreq audit` runs a mix twice
  (default 4MEM-1 under ME-LREQ), requires both reports clean, and checks
  the two event-stream hashes are identical; any violation exits nonzero.

STATIC ANALYSIS:
  `melreq analyze` lexes the workspace's own sources and enforces the
  determinism invariants the snapshot/reproduce machinery depends on:
  D01 no HashMap/HashSet in simulation crates; D02 no wall clocks or
  environment reads outside serve/cli; S01 every field of a
  snapshot'd struct referenced in both save_state and load_state; S02
  snapshot layouts match the committed snap.fingerprint unless
  SCHEMA_VERSION was bumped (refresh with --fix-fingerprint); A01 no
  narrowing casts or unchecked cycle arithmetic in dram/memctrl timing
  modules. Suppress a finding in place with a written reason:
  `// melreq-allow(RULE): reason`. Unsuppressed findings exit 7.

EXIT CODES:
  0 success · 2 usage · 3 I/O · 4 divergence (audit/fork gate)
  5 overload · 6 timeout/cancelled · 7 static-analysis findings
";

/// What one verb reads from its command line. Anything else is a usage
/// error: a flag the verb would ignore silently does not do what it says.
struct Verb {
    name: &'static str,
    /// The most positional arguments it takes.
    positionals: usize,
    /// Whether it simulates at a scale the caller sets ([`SCALE_FLAGS`]).
    scale: bool,
    /// Whether `--profile PATH` attaches the host profiler to it.
    host_profile: bool,
    /// The flags its [`Command`] variant is built from.
    flags: &'static [&'static str],
}

/// `--profile` here is its numeric form, the profiling-run length.
const SCALE_FLAGS: &[&str] = &["--instructions", "--warmup", "--profile", "--slice"];

const fn verb(
    name: &'static str,
    positionals: usize,
    scale: bool,
    host_profile: bool,
    flags: &'static [&'static str],
) -> Verb {
    Verb { name, positionals, scale, host_profile, flags }
}

/// The flag roster, verb by verb: what `parse_args` accepts and what the
/// USAGE test requires the text above to document.
#[rustfmt::skip]
const VERBS: &[Verb] = &[
    //   name         args scale  profiler  own flags
    verb("profile",   0, true,  false, &["--apps"]),
    verb("run",       1, true,  true,  &["--policy", "--audit", "--json", "--threads", "--trace",
                                         "--series", "--sample-epoch", "--trace-cap", "--provenance"]),
    verb("trace",     1, true,  false, &["--policy", "--out", "--series", "--sample-epoch", "--trace-cap"]),
    verb("audit",     1, true,  false, &["--policy"]),
    verb("compare",   1, true,  true,  &["--policies", "--provenance", "--json", "--threads"]),
    verb("sweep",     0, true,  false, &["--kind", "--policies", "--threads"]),
    verb("reproduce", 0, true,  true,  &["--smoke", "--no-checkpoint", "--store", "--out", "--threads",
                                         "--guard", "--guard-ratio"]),
    verb("serve",     0, false, true,  &["--addr", "--workers", "--queue-cap", "--store", "--no-store",
                                         "--timeout-ms", "--response-cache", "--idle-timeout-ms",
                                         "--access-log"]),
    verb("client", usize::MAX, true, false, &["--policy", "--policies", "--audit", "--addr", "--timeout-ms"]),
    verb("loadbench", 1, false, false, &["--addr", "--rps", "--conns", "--duration", "--seed", "--out",
                                         "--guard", "--guard-ratio"]),
    verb("analyze",   0, false, false, &["--json", "--fix-fingerprint", "--root", "--out"]),
    verb("config",    0, false, false, &["--cores"]),
    verb("help",      0, false, false, &[]),
];

impl Verb {
    fn reads(&self, flag: &str) -> bool {
        self.flags.contains(&flag)
            || (self.scale && SCALE_FLAGS.contains(&flag))
            || (self.host_profile && flag == "--profile")
    }

    /// The error for `flag` (as the user would write it), which this verb
    /// does not read: it names the verbs that `reads` it, if any does.
    fn rejects(&self, flag: &str, reads: impl Fn(&Verb) -> bool) -> String {
        let readers: Vec<&str> = VERBS.iter().filter(|v| reads(v)).map(|v| v.name).collect();
        if readers.is_empty() {
            return format!("unknown flag '{flag}'");
        }
        format!("`melreq {}` does not read {flag} (read by: {})", self.name, readers.join(", "))
    }
}

fn split_list(s: &str) -> Vec<String> {
    s.split(',').map(|x| x.trim().to_string()).filter(|x| !x.is_empty()).collect()
}

/// Parse a full argument vector (without the program name).
#[allow(clippy::too_many_lines)]
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter().peekable();
    let Some(cmd) = it.next() else {
        return Ok(Command::Help);
    };
    let name = if matches!(cmd.as_str(), "--help" | "-h") { "help" } else { cmd.as_str() };
    let verb = VERBS
        .iter()
        .find(|v| v.name == name)
        .ok_or_else(|| format!("unknown command '{cmd}' (try `melreq help`)"))?;

    // Collect the remaining flags generically first.
    let mut opts = ExperimentOptions::default();
    let mut positional: Vec<String> = Vec::new();
    let mut apps: Vec<String> = Vec::new();
    let mut policies: Vec<PolicySpec> = Vec::new();
    let mut policy: Option<PolicySpec> = None;
    let mut kind = "mem".to_string();
    let mut cores = 4usize;
    let mut audit = false;
    let mut smoke = false;
    let mut no_checkpoint = false;
    let mut store: Option<String> = None;
    let mut out: Option<String> = None;
    let mut obs = ObsArgs::default();
    let mut json = false;
    let mut addr = "127.0.0.1:7700".to_string();
    let mut workers = 2usize;
    let mut queue_cap = 16usize;
    let mut no_store = false;
    let mut timeout_ms: Option<u64> = None;
    let mut response_cache = 0usize;
    let mut fix_fingerprint = false;
    let mut root: Option<String> = None;
    let mut threads: Option<usize> = None;
    let mut guard: Option<String> = None;
    let mut guard_ratio = 0.25f64;
    let mut idle_timeout_ms = 30_000u64;
    let mut rps = 200.0f64;
    let mut conns = 16usize;
    let mut duration_s = 2.0f64;
    let mut seed = 42u64;
    let mut prof_out: Option<String> = None;
    let mut access_log: Option<String> = None;

    while let Some(a) = it.next() {
        if a.starts_with("--") && !verb.reads(a) {
            return Err(verb.rejects(a, |v| v.reads(a)));
        }
        let mut val = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} requires a value"))
        };
        match a.as_str() {
            "--instructions" => {
                opts.instructions =
                    val("--instructions")?.parse().map_err(|e| format!("--instructions: {e}"))?;
            }
            "--warmup" => {
                opts.warmup = val("--warmup")?.parse().map_err(|e| format!("--warmup: {e}"))?;
            }
            "--profile" => {
                // Polymorphic: a number is the profiling-run instruction
                // count; anything else is the host-profile output path.
                let v = val("--profile")?;
                match v.parse::<u64>() {
                    Ok(n) if verb.scale => opts.profile_instructions = n,
                    Ok(_) => return Err(verb.rejects("--profile N", |v| v.scale)),
                    Err(_) if verb.host_profile => prof_out = Some(v.clone()),
                    Err(_) => return Err(verb.rejects("--profile PATH", |v| v.host_profile)),
                }
            }
            "--access-log" => access_log = Some(val("--access-log")?.clone()),
            "--slice" => {
                opts.eval_slice = val("--slice")?.parse().map_err(|e| format!("--slice: {e}"))?;
            }
            "--apps" => apps = split_list(val("--apps")?),
            "--policy" => policy = Some(PolicySpec::parse(val("--policy")?)?),
            "--policies" => {
                policies = split_list(val("--policies")?)
                    .iter()
                    .map(|s| PolicySpec::parse(s))
                    .collect::<Result<_, _>>()?;
            }
            "--audit" => audit = true,
            "--smoke" => smoke = true,
            "--no-checkpoint" => no_checkpoint = true,
            "--store" => store = Some(val("--store")?.clone()),
            "--out" => out = Some(val("--out")?.clone()),
            "--trace" => obs.trace_out = Some(val("--trace")?.clone()),
            "--series" => obs.series_out = Some(val("--series")?.clone()),
            "--sample-epoch" => {
                let n: u64 =
                    val("--sample-epoch")?.parse().map_err(|e| format!("--sample-epoch: {e}"))?;
                if n == 0 {
                    return Err("--sample-epoch must be positive".to_string());
                }
                obs.sample_epoch = Some(n);
            }
            "--trace-cap" => {
                obs.trace_cap =
                    Some(val("--trace-cap")?.parse().map_err(|e| format!("--trace-cap: {e}"))?);
            }
            "--provenance" => obs.provenance = true,
            "--json" => json = true,
            "--kind" => kind = val("--kind")?.clone(),
            "--cores" => {
                cores = val("--cores")?.parse().map_err(|e| format!("--cores: {e}"))?;
            }
            "--addr" => addr = val("--addr")?.clone(),
            "--workers" => {
                workers = val("--workers")?.parse().map_err(|e| format!("--workers: {e}"))?;
                if workers == 0 {
                    return Err("--workers must be positive".to_string());
                }
            }
            "--queue-cap" => {
                queue_cap = val("--queue-cap")?.parse().map_err(|e| format!("--queue-cap: {e}"))?;
                if queue_cap == 0 {
                    return Err("--queue-cap must be positive".to_string());
                }
            }
            "--no-store" => no_store = true,
            "--threads" => {
                let n: usize = val("--threads")?.parse().map_err(|e| format!("--threads: {e}"))?;
                if n == 0 {
                    return Err("--threads must be positive".to_string());
                }
                threads = Some(n);
            }
            "--guard" => guard = Some(val("--guard")?.clone()),
            "--guard-ratio" => {
                guard_ratio =
                    val("--guard-ratio")?.parse().map_err(|e| format!("--guard-ratio: {e}"))?;
                if !(guard_ratio > 0.0 && guard_ratio <= 1.0) {
                    return Err("--guard-ratio must be in (0, 1]".to_string());
                }
            }
            "--fix-fingerprint" => fix_fingerprint = true,
            "--root" => root = Some(val("--root")?.clone()),
            "--timeout-ms" => {
                timeout_ms =
                    Some(val("--timeout-ms")?.parse().map_err(|e| format!("--timeout-ms: {e}"))?);
            }
            "--response-cache" => {
                response_cache = val("--response-cache")?
                    .parse()
                    .map_err(|e| format!("--response-cache: {e}"))?;
            }
            "--idle-timeout-ms" => {
                idle_timeout_ms = val("--idle-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--idle-timeout-ms: {e}"))?;
            }
            "--rps" => {
                rps = val("--rps")?.parse().map_err(|e| format!("--rps: {e}"))?;
                if !(rps > 0.0 && rps.is_finite()) {
                    return Err("--rps must be positive".to_string());
                }
            }
            "--conns" => {
                conns = val("--conns")?.parse().map_err(|e| format!("--conns: {e}"))?;
                if conns == 0 {
                    return Err("--conns must be positive".to_string());
                }
            }
            "--duration" => {
                duration_s = val("--duration")?.parse().map_err(|e| format!("--duration: {e}"))?;
                if !(duration_s > 0.0 && duration_s.is_finite()) {
                    return Err("--duration must be positive".to_string());
                }
            }
            "--seed" => {
                seed = val("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            flag if flag.starts_with("--") => unreachable!("{flag} is in no verb's row"),
            pos => positional.push(pos.to_string()),
        }
    }
    if positional.len() > verb.positionals {
        return Err(format!(
            "`melreq {}` takes at most {} positional argument(s), got {}: {}",
            verb.name,
            verb.positionals,
            positional.len(),
            positional.join(" ")
        ));
    }

    // With no explicit set, `compare`/`sweep` enumerate the registry's
    // paper-figure policies (the Figure 2 set, in figure order).
    let default_policies = PolicySpec::figure2_set;

    match verb.name {
        "profile" => Ok(Command::Profile { apps, opts }),
        "run" => {
            let mix =
                positional.first().ok_or("run needs a workload mix name (e.g. 4MEM-1)")?.clone();
            Ok(Command::Run {
                mix,
                policy: policy.unwrap_or(PolicySpec::MeLreq),
                opts,
                audit,
                obs,
                json,
                threads,
                prof_out,
            })
        }
        "trace" => {
            let mix =
                positional.first().ok_or("trace needs a workload mix name (e.g. 4MEM-1)")?.clone();
            Ok(Command::Trace {
                mix,
                policy: policy.unwrap_or(PolicySpec::MeLreq),
                out: out.unwrap_or_else(|| "trace.json".to_string()),
                obs,
                opts,
            })
        }
        "audit" => {
            // The acceptance workload: a seeded 4-core paper mix.
            let mix = positional.first().cloned().unwrap_or_else(|| "4MEM-1".to_string());
            Ok(Command::Audit { mix, policy: policy.unwrap_or(PolicySpec::MeLreq), opts })
        }
        "compare" => {
            let mix = positional
                .first()
                .ok_or("compare needs a workload mix name (e.g. 4MEM-1)")?
                .clone();
            let policies = if policies.is_empty() { default_policies() } else { policies };
            Ok(Command::Compare {
                mix,
                policies,
                opts,
                provenance: obs.provenance,
                json,
                threads,
                prof_out,
            })
        }
        "sweep" => {
            let policies = if policies.is_empty() { default_policies() } else { policies };
            if !matches!(kind.as_str(), "mem" | "mix" | "all") {
                return Err(format!("--kind must be mem, mix or all (got '{kind}')"));
            }
            Ok(Command::Sweep { kind, policies, opts, threads })
        }
        "reproduce" => Ok(Command::Reproduce {
            smoke,
            no_checkpoint,
            store,
            out: out.unwrap_or_else(|| "BENCH_sweep.json".to_string()),
            opts,
            threads,
            guard,
            guard_ratio,
            prof_out,
        }),
        "serve" => Ok(Command::Serve {
            addr,
            workers,
            queue_cap,
            store,
            no_store,
            timeout_ms,
            response_cache,
            idle_timeout_ms,
            access_log,
            prof_out,
        }),
        "client" => {
            if positional.is_empty() {
                return Err("client needs at least one verb: run, compare, health, metrics, \
                            buildinfo, policies or shutdown"
                    .to_string());
            }
            // Positionals are verbs in execution order; `run` and
            // `compare` consume the next positional as their mix.
            let mut verbs: Vec<String> = Vec::new();
            let mut mix: Option<String> = None;
            let mut pos = positional.iter().peekable();
            while let Some(verb) = pos.next() {
                match verb.as_str() {
                    "run" | "compare" => {
                        if verbs.iter().any(|v| matches!(v.as_str(), "run" | "compare")) {
                            return Err("client takes at most one of run|compare per invocation"
                                .to_string());
                        }
                        let Some(m) = pos.next() else {
                            return Err(format!(
                                "client {verb} needs a workload mix name (e.g. 4MEM-1)"
                            ));
                        };
                        mix = Some(m.clone());
                        verbs.push(verb.clone());
                    }
                    "health" | "metrics" | "buildinfo" | "policies" | "shutdown" => {
                        verbs.push(verb.clone());
                    }
                    other => {
                        return Err(format!(
                            "unknown client verb '{other}' (run, compare, health, metrics, \
                             buildinfo, policies, shutdown)"
                        ));
                    }
                }
            }
            let wants_compare = verbs.iter().any(|v| v == "compare");
            let policies = if let Some(p) = policy {
                vec![p]
            } else if policies.is_empty() && wants_compare {
                default_policies()
            } else if policies.is_empty() {
                vec![PolicySpec::MeLreq]
            } else {
                policies
            };
            Ok(Command::Client { verbs, mix, policies, opts, audit, addr, timeout_ms })
        }
        "loadbench" => {
            let mix = positional.first().cloned().unwrap_or_else(|| "2MEM-1".to_string());
            Ok(Command::Loadbench {
                addr,
                rps,
                conns,
                duration_s,
                seed,
                mix,
                out: out.unwrap_or_else(|| "BENCH_serve.json".to_string()),
                guard,
                guard_ratio,
            })
        }
        "analyze" => Ok(Command::Analyze { json, fix_fingerprint, root, out }),
        "config" => Ok(Command::Config { cores }),
        "help" => Ok(Command::Help),
        other => unreachable!("{other} has a row but no arm"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(std::string::ToString::to_string).collect()
    }

    #[test]
    fn empty_is_help() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(parse_args(&v(&["help"])).unwrap(), Command::Help);
    }

    #[test]
    fn run_parses_mix_policy_and_options() {
        let c = parse_args(&v(&["run", "4MEM-1", "--policy", "lreq", "--instructions", "5000"]))
            .unwrap();
        match c {
            Command::Run { mix, policy, opts, audit, obs, json, threads, prof_out } => {
                assert_eq!(mix, "4MEM-1");
                assert_eq!(policy, PolicySpec::Lreq);
                assert_eq!(opts.instructions, 5000);
                assert!(!audit);
                assert!(!obs.any());
                assert!(!json);
                assert!(threads.is_none());
                assert!(prof_out.is_none());
            }
            c => panic!("wrong command {c:?}"),
        }
    }

    #[test]
    fn json_flag_parses_on_run_and_compare() {
        match parse_args(&v(&["run", "4MEM-1", "--json"])).unwrap() {
            Command::Run { json, .. } => assert!(json),
            c => panic!("wrong command {c:?}"),
        }
        match parse_args(&v(&["compare", "4MEM-1", "--json"])).unwrap() {
            Command::Compare { json, .. } => assert!(json),
            c => panic!("wrong command {c:?}"),
        }
    }

    #[test]
    fn audit_flag_and_subcommand_parse() {
        match parse_args(&v(&["run", "4MEM-1", "--audit"])).unwrap() {
            Command::Run { audit, .. } => assert!(audit),
            c => panic!("wrong command {c:?}"),
        }
        match parse_args(&v(&["audit"])).unwrap() {
            Command::Audit { mix, policy, .. } => {
                assert_eq!(mix, "4MEM-1");
                assert_eq!(policy.name(), "ME-LREQ");
            }
            c => panic!("wrong command {c:?}"),
        }
        match parse_args(&v(&["audit", "2MIX-1", "--policy", "rr"])).unwrap() {
            Command::Audit { mix, policy, .. } => {
                assert_eq!(mix, "2MIX-1");
                assert_eq!(policy.name(), "RR");
            }
            c => panic!("wrong command {c:?}"),
        }
    }

    #[test]
    fn compare_defaults_to_figure2_policies() {
        let c = parse_args(&v(&["compare", "2MEM-1"])).unwrap();
        match c {
            Command::Compare { policies, .. } => {
                assert_eq!(policies.len(), 5);
                assert_eq!(policies[0].name(), "HF-RF");
                assert_eq!(policies[4].name(), "ME-LREQ");
            }
            c => panic!("wrong command {c:?}"),
        }
    }

    #[test]
    fn policy_names_parse() {
        for (s, name) in [
            ("hf-rf", "HF-RF"),
            ("me-lreq", "ME-LREQ"),
            ("online", "ME-LREQ-ON"),
            ("fq", "FQ"),
            ("stf", "STF"),
            ("fix-3210", "FIX-3210"),
        ] {
            assert_eq!(PolicySpec::parse(s).unwrap().name(), name);
        }
        assert!(PolicySpec::parse("nope").is_err());
    }

    #[test]
    fn reproduce_parses_flags() {
        let c = parse_args(&v(&[
            "reproduce",
            "--smoke",
            "--store",
            "/tmp/s",
            "--out",
            "x.json",
            "--threads",
            "4",
            "--guard",
            "base.json",
            "--guard-ratio",
            "0.5",
        ]))
        .unwrap();
        match c {
            Command::Reproduce {
                smoke,
                no_checkpoint,
                store,
                out,
                threads,
                guard,
                guard_ratio,
                ..
            } => {
                assert!(smoke && !no_checkpoint);
                assert_eq!(store.as_deref(), Some("/tmp/s"));
                assert_eq!(out, "x.json");
                assert_eq!(threads, Some(4));
                assert_eq!(guard.as_deref(), Some("base.json"));
                assert!((guard_ratio - 0.5).abs() < 1e-12);
            }
            c => panic!("wrong command {c:?}"),
        }
        match parse_args(&v(&["reproduce", "--no-checkpoint"])).unwrap() {
            Command::Reproduce {
                smoke,
                no_checkpoint,
                store,
                out,
                threads,
                guard,
                guard_ratio,
                ..
            } => {
                assert!(!smoke && no_checkpoint && store.is_none());
                assert_eq!(out, "BENCH_sweep.json");
                assert!(threads.is_none() && guard.is_none());
                assert!((guard_ratio - 0.25).abs() < 1e-12);
            }
            c => panic!("wrong command {c:?}"),
        }
    }

    #[test]
    fn threads_flag_parses_and_rejects_zero() {
        match parse_args(&v(&["run", "4MEM-1", "--threads", "8"])).unwrap() {
            Command::Run { threads, .. } => assert_eq!(threads, Some(8)),
            c => panic!("wrong command {c:?}"),
        }
        match parse_args(&v(&["sweep", "--threads", "2"])).unwrap() {
            Command::Sweep { threads, .. } => assert_eq!(threads, Some(2)),
            c => panic!("wrong command {c:?}"),
        }
        match parse_args(&v(&["compare", "2MEM-1", "--threads", "1"])).unwrap() {
            Command::Compare { threads, .. } => assert_eq!(threads, Some(1)),
            c => panic!("wrong command {c:?}"),
        }
        assert!(parse_args(&v(&["run", "4MEM-1", "--threads", "0"])).is_err());
        assert!(parse_args(&v(&["reproduce", "--guard-ratio", "0"])).is_err());
        assert!(parse_args(&v(&["reproduce", "--guard-ratio", "1.5"])).is_err());
    }

    #[test]
    fn serve_parses_flags_and_defaults() {
        match parse_args(&v(&["serve"])).unwrap() {
            Command::Serve {
                addr,
                workers,
                queue_cap,
                store,
                no_store,
                timeout_ms,
                response_cache,
                idle_timeout_ms,
                access_log,
                prof_out,
            } => {
                assert_eq!(addr, "127.0.0.1:7700");
                assert_eq!((workers, queue_cap, response_cache), (2, 16, 0));
                assert_eq!(idle_timeout_ms, 30_000);
                assert!(store.is_none() && !no_store && timeout_ms.is_none());
                assert!(access_log.is_none() && prof_out.is_none());
            }
            c => panic!("wrong command {c:?}"),
        }
        match parse_args(&v(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "4",
            "--queue-cap",
            "8",
            "--no-store",
            "--timeout-ms",
            "2500",
            "--response-cache",
            "32",
            "--idle-timeout-ms",
            "0",
            "--access-log",
            "access.jsonl",
            "--profile",
            "serve_prof.json",
        ]))
        .unwrap()
        {
            Command::Serve {
                addr,
                workers,
                queue_cap,
                no_store,
                timeout_ms,
                response_cache,
                idle_timeout_ms,
                access_log,
                prof_out,
                ..
            } => {
                assert_eq!(addr, "127.0.0.1:0");
                assert_eq!((workers, queue_cap, response_cache), (4, 8, 32));
                assert!(no_store);
                assert_eq!(timeout_ms, Some(2500));
                assert_eq!(idle_timeout_ms, 0);
                assert_eq!(access_log.as_deref(), Some("access.jsonl"));
                assert_eq!(prof_out.as_deref(), Some("serve_prof.json"));
            }
            c => panic!("wrong command {c:?}"),
        }
        assert!(parse_args(&v(&["serve", "--workers", "0"])).is_err());
        assert!(parse_args(&v(&["serve", "--queue-cap", "0"])).is_err());
    }

    #[test]
    fn loadbench_parses_flags_and_defaults() {
        match parse_args(&v(&["loadbench"])).unwrap() {
            Command::Loadbench { addr, rps, conns, duration_s, seed, mix, out, guard, .. } => {
                assert_eq!(addr, "127.0.0.1:7700");
                assert!((rps - 200.0).abs() < 1e-12);
                assert_eq!(conns, 16);
                assert!((duration_s - 2.0).abs() < 1e-12);
                assert_eq!(seed, 42);
                assert_eq!(mix, "2MEM-1");
                assert_eq!(out, "BENCH_serve.json");
                assert!(guard.is_none());
            }
            c => panic!("wrong command {c:?}"),
        }
        match parse_args(&v(&[
            "loadbench",
            "4MEM-1",
            "--addr",
            "h:9",
            "--rps",
            "500",
            "--conns",
            "64",
            "--duration",
            "1.5",
            "--seed",
            "7",
            "--out",
            "x.json",
            "--guard",
            "BENCH_serve.json",
            "--guard-ratio",
            "0.1",
        ]))
        .unwrap()
        {
            Command::Loadbench {
                addr,
                rps,
                conns,
                duration_s,
                seed,
                mix,
                out,
                guard,
                guard_ratio,
            } => {
                assert_eq!(
                    (addr.as_str(), mix.as_str(), out.as_str()),
                    ("h:9", "4MEM-1", "x.json")
                );
                assert!((rps - 500.0).abs() < 1e-12);
                assert_eq!((conns, seed), (64, 7));
                assert!((duration_s - 1.5).abs() < 1e-12);
                assert_eq!(guard.as_deref(), Some("BENCH_serve.json"));
                assert!((guard_ratio - 0.1).abs() < 1e-12);
            }
            c => panic!("wrong command {c:?}"),
        }
        assert!(parse_args(&v(&["loadbench", "--rps", "0"])).is_err());
        assert!(parse_args(&v(&["loadbench", "--conns", "0"])).is_err());
        assert!(parse_args(&v(&["loadbench", "--duration", "0"])).is_err());
    }

    #[test]
    fn client_parses_verbs_and_validates() {
        match parse_args(&v(&["client", "run", "4MEM-1", "--policy", "lreq", "--addr", "h:1"]))
            .unwrap()
        {
            Command::Client { verbs, mix, policies, addr, .. } => {
                assert_eq!(verbs, vec!["run".to_string()]);
                assert_eq!(mix.as_deref(), Some("4MEM-1"));
                assert_eq!(policies.len(), 1);
                assert_eq!(policies[0].name(), "LREQ");
                assert_eq!(addr, "h:1");
            }
            c => panic!("wrong command {c:?}"),
        }
        match parse_args(&v(&["client", "compare", "2MEM-1"])).unwrap() {
            Command::Client { verbs, policies, .. } => {
                assert_eq!(verbs, vec!["compare".to_string()]);
                assert_eq!(policies.len(), 5, "compare defaults to the Figure 2 set");
            }
            c => panic!("wrong command {c:?}"),
        }
        match parse_args(&v(&["client", "health"])).unwrap() {
            Command::Client { verbs, mix, .. } => {
                assert_eq!(verbs, vec!["health".to_string()]);
                assert!(mix.is_none());
            }
            c => panic!("wrong command {c:?}"),
        }
        assert!(parse_args(&v(&["client"])).is_err());
        assert!(parse_args(&v(&["client", "bogus"])).is_err());
        assert!(parse_args(&v(&["client", "run"])).is_err());
    }

    #[test]
    fn client_chains_verbs_on_one_invocation() {
        match parse_args(&v(&["client", "health", "run", "4MEM-1", "metrics"])).unwrap() {
            Command::Client { verbs, mix, .. } => {
                assert_eq!(verbs, vec!["health".to_string(), "run".into(), "metrics".into()]);
                assert_eq!(mix.as_deref(), Some("4MEM-1"));
            }
            c => panic!("wrong command {c:?}"),
        }
        // The mix positional belongs to run/compare, not to the verb list.
        match parse_args(&v(&["client", "compare", "2MEM-1", "metrics", "shutdown"])).unwrap() {
            Command::Client { verbs, mix, .. } => {
                assert_eq!(verbs, vec!["compare".to_string(), "metrics".into(), "shutdown".into()]);
                assert_eq!(mix.as_deref(), Some("2MEM-1"));
            }
            c => panic!("wrong command {c:?}"),
        }
        // At most one simulation verb per invocation (one mix slot).
        assert!(parse_args(&v(&["client", "run", "4MEM-1", "run", "2MEM-1"])).is_err());
        assert!(parse_args(&v(&["client", "run", "4MEM-1", "compare", "2MEM-1"])).is_err());
        // A trailing run/compare still needs its mix.
        assert!(parse_args(&v(&["client", "health", "run"])).is_err());
    }

    #[test]
    fn trace_and_obs_flags_parse() {
        let c = parse_args(&v(&[
            "trace",
            "4MEM-1",
            "--policy",
            "hf-rf",
            "--out",
            "t.json",
            "--series",
            "s.csv",
            "--sample-epoch",
            "5000",
            "--trace-cap",
            "1024",
        ]))
        .unwrap();
        match c {
            Command::Trace { mix, policy, out, obs, .. } => {
                assert_eq!(mix, "4MEM-1");
                assert_eq!(policy.name(), "HF-RF");
                assert_eq!(out, "t.json");
                assert_eq!(obs.series_out.as_deref(), Some("s.csv"));
                assert_eq!(obs.sample_epoch, Some(5000));
                assert_eq!(obs.trace_cap, Some(1024));
            }
            c => panic!("wrong command {c:?}"),
        }
        // Defaults: out path, policy.
        match parse_args(&v(&["trace", "2MEM-1"])).unwrap() {
            Command::Trace { out, policy, obs, .. } => {
                assert_eq!(out, "trace.json");
                assert_eq!(policy.name(), "ME-LREQ");
                assert!(!obs.provenance);
            }
            c => panic!("wrong command {c:?}"),
        }
        // run accepts the same flags; --sample-epoch 0 is rejected.
        match parse_args(&v(&["run", "2MEM-1", "--trace", "x.json", "--provenance"])).unwrap() {
            Command::Run { obs, .. } => {
                assert_eq!(obs.trace_out.as_deref(), Some("x.json"));
                assert!(obs.provenance && obs.any());
            }
            c => panic!("wrong command {c:?}"),
        }
        assert!(parse_args(&v(&["run", "2MEM-1", "--sample-epoch", "0"])).is_err());
        match parse_args(&v(&["compare", "2MEM-1", "--provenance"])).unwrap() {
            Command::Compare { provenance, .. } => assert!(provenance),
            c => panic!("wrong command {c:?}"),
        }
        assert!(parse_args(&v(&["trace"])).is_err());
    }

    #[test]
    fn unknown_flag_errors_name_the_flag() {
        let e = parse_args(&v(&["run", "4MEM-1", "--frobnicate"])).unwrap_err();
        assert!(e.contains("--frobnicate"), "error must name the flag: {e}");
        let e = parse_args(&v(&["trace", "4MEM-1", "--sample-epoch"])).unwrap_err();
        assert!(e.contains("--sample-epoch"), "error must name the flag: {e}");
        let e = parse_args(&v(&["serve", "--timeout-ms"])).unwrap_err();
        assert!(e.contains("--timeout-ms"), "error must name the flag: {e}");
    }

    /// Every flag of the roster, once.
    fn roster() -> std::collections::BTreeSet<&'static str> {
        VERBS.iter().flat_map(|v| v.flags).chain(SCALE_FLAGS).copied().collect()
    }

    #[test]
    fn usage_documents_every_flag() {
        for flag in roster() {
            assert!(USAGE.contains(flag), "USAGE must document {flag}");
        }
        assert_eq!(roster().len(), 37, "a flag came or went: {:?}", roster());
        for verb in VERBS {
            assert!(USAGE.contains(&format!("melreq {}", verb.name)), "no synopsis: {}", verb.name);
        }
    }

    #[test]
    fn every_verb_parses_every_flag_of_its_own_row() {
        let value = |flag: &str| match flag {
            "--audit" | "--json" | "--provenance" | "--smoke" | "--no-checkpoint"
            | "--no-store" | "--fix-fingerprint" => None,
            "--policy" => Some("lreq"),
            "--policies" => Some("hf-rf,lreq"),
            "--kind" => Some("mix"),
            "--apps" => Some("swim"),
            _ => Some("1"),
        };
        for verb in VERBS {
            // `client` needs a verb of its own; the rest take a mix where
            // they take anything.
            let head = match verb.name {
                "client" => vec!["client", "run", "2MEM-1"],
                name if verb.positionals > 0 => vec![name, "2MEM-1"],
                name => vec![name],
            };
            let parses = |tail: &[&str]| {
                let args = v(&[&head[..], tail].concat());
                assert!(parse_args(&args).is_ok(), "{args:?}: {:?}", parse_args(&args));
            };
            for &flag in verb.flags.iter().chain(SCALE_FLAGS.iter().filter(|_| verb.scale)) {
                parses(&[&[flag][..], value(flag).as_slice()].concat());
            }
            if verb.host_profile {
                parses(&["--profile", "p.json"]);
            }
        }
    }

    #[test]
    fn a_flag_its_verb_does_not_read_is_a_usage_error() {
        let parse = |line: &str| parse_args(&v(&line.split(' ').collect::<Vec<_>>()));
        // On the parent binary this exited 0 having audited nothing and
        // run the default five policies instead of `fcfs`.
        let e = parse(
            "compare 2MEM-1 --audit --smoke --workers 9 --policy fcfs --instructions 2000 \
             --warmup 1000 --profile 1000 extra positional",
        )
        .unwrap_err();
        assert!(e.contains("--audit") && e.contains("`melreq compare`"), "{e}");
        assert!(e.contains("run, client"), "the error must say who reads it: {e}");
        for (line, needle) in [
            ("run X Y", "at most 1 positional"),
            ("sweep mem", "at most 0 positional"),
            ("serve --profile 123", "--profile N"),
            ("trace X --profile p.json", "--profile PATH"),
            ("trace X --trace t.json", "--trace"),
            ("trace X --provenance", "--provenance"),
            ("config --rps 5", "--rps"),
            ("audit --threads 2", "--threads"),
            ("help --json", "--json"),
        ] {
            let e = parse(line).unwrap_err();
            assert!(e.contains(needle), "{line}: {e}");
        }
    }

    #[test]
    fn profile_flag_is_polymorphic() {
        // A number keeps the legacy meaning: profiling-run instructions.
        match parse_args(&v(&["run", "4MEM-1", "--profile", "12345"])).unwrap() {
            Command::Run { opts, prof_out, .. } => {
                assert_eq!(opts.profile_instructions, 12_345);
                assert!(prof_out.is_none());
            }
            c => panic!("wrong command {c:?}"),
        }
        // A path enables the host profiler on run, compare and reproduce.
        match parse_args(&v(&["run", "4MEM-1", "--profile", "prof.json"])).unwrap() {
            Command::Run { opts, prof_out, .. } => {
                assert_eq!(opts.profile_instructions, 60_000, "default untouched");
                assert_eq!(prof_out.as_deref(), Some("prof.json"));
            }
            c => panic!("wrong command {c:?}"),
        }
        match parse_args(&v(&["compare", "2MEM-1", "--profile", "p.json"])).unwrap() {
            Command::Compare { prof_out, .. } => {
                assert_eq!(prof_out.as_deref(), Some("p.json"));
            }
            c => panic!("wrong command {c:?}"),
        }
        match parse_args(&v(&["reproduce", "--smoke", "--profile", "p.json"])).unwrap() {
            Command::Reproduce { prof_out, .. } => {
                assert_eq!(prof_out.as_deref(), Some("p.json"));
            }
            c => panic!("wrong command {c:?}"),
        }
    }

    #[test]
    fn client_buildinfo_verb_parses() {
        match parse_args(&v(&["client", "buildinfo"])).unwrap() {
            Command::Client { verbs, mix, .. } => {
                assert_eq!(verbs, vec!["buildinfo".to_string()]);
                assert!(mix.is_none());
            }
            c => panic!("wrong command {c:?}"),
        }
        match parse_args(&v(&["client", "health", "buildinfo", "metrics"])).unwrap() {
            Command::Client { verbs, .. } => {
                assert_eq!(verbs, vec!["health".to_string(), "buildinfo".into(), "metrics".into()]);
            }
            c => panic!("wrong command {c:?}"),
        }
    }

    #[test]
    fn analyze_parses_flags_and_defaults() {
        match parse_args(&v(&["analyze"])).unwrap() {
            Command::Analyze { json, fix_fingerprint, root, out } => {
                assert!(!json && !fix_fingerprint && root.is_none() && out.is_none());
            }
            c => panic!("wrong command {c:?}"),
        }
        match parse_args(&v(&[
            "analyze",
            "--json",
            "--fix-fingerprint",
            "--root",
            "/tmp/ws",
            "--out",
            "analyze.json",
        ]))
        .unwrap()
        {
            Command::Analyze { json, fix_fingerprint, root, out } => {
                assert!(json && fix_fingerprint);
                assert_eq!(root.as_deref(), Some("/tmp/ws"));
                assert_eq!(out.as_deref(), Some("analyze.json"));
            }
            c => panic!("wrong command {c:?}"),
        }
        assert!(parse_args(&v(&["analyze", "--root"])).is_err());
    }

    #[test]
    fn client_policies_verb_parses() {
        match parse_args(&v(&["client", "policies"])).unwrap() {
            Command::Client { verbs, mix, .. } => {
                assert_eq!(verbs, vec!["policies".to_string()]);
                assert!(mix.is_none());
            }
            c => panic!("wrong command {c:?}"),
        }
        match parse_args(&v(&["client", "policies", "run", "4MEM-1"])).unwrap() {
            Command::Client { verbs, .. } => {
                assert_eq!(verbs, vec!["policies".to_string(), "run".into()]);
            }
            c => panic!("wrong command {c:?}"),
        }
    }

    #[test]
    fn unknown_policy_suggests_nearest_name() {
        let e = parse_args(&v(&["run", "4MEM-1", "--policy", "me-lerq"])).unwrap_err();
        assert!(e.contains("unknown policy"), "{e}");
        assert!(e.contains("did you mean 'me-lreq'"), "nearest-name suggestion missing: {e}");
        let e = parse_args(&v(&["compare", "4MEM-1", "--policies", "hf-rf,blis"])).unwrap_err();
        assert!(e.contains("did you mean 'bliss'"), "{e}");
    }

    #[test]
    fn parameterized_policy_tokens_parse_on_the_cli() {
        match parse_args(&v(&["run", "4MEM-1", "--policy", "bliss(threshold=8,clear=500)"]))
            .unwrap()
        {
            Command::Run { policy, .. } => {
                assert_eq!(policy.name(), "BLISS");
                assert_eq!(policy, PolicySpec::parse("bliss(threshold=8,clear=500)").unwrap());
            }
            c => panic!("wrong command {c:?}"),
        }
        match parse_args(&v(&["compare", "4MEM-1", "--policies", "tcm(quantum=1500),stf"])).unwrap()
        {
            Command::Compare { policies, .. } => {
                assert_eq!(
                    policies.iter().map(PolicySpec::name).collect::<Vec<_>>(),
                    vec!["TCM", "STF"]
                );
            }
            c => panic!("wrong command {c:?}"),
        }
    }

    #[test]
    fn usage_documents_the_registry_surface() {
        for needle in [
            "bliss",
            "tcm",
            "policies",
            "bliss(threshold=4,clear=10000)",
            "tcm(quantum=2000)",
            "me-lreq-on(epoch=50000)",
            "/policies",
        ] {
            assert!(USAGE.contains(needle), "USAGE must document {needle}");
        }
        // Every registered id and alias appears in or resolves from the
        // grammar USAGE describes.
        for d in melreq_memctrl::registry() {
            assert!(PolicySpec::parse(d.id).is_ok(), "{} must resolve", d.id);
        }
    }

    #[test]
    fn sweep_validates_kind() {
        assert!(parse_args(&v(&["sweep", "--kind", "mem"])).is_ok());
        assert!(parse_args(&v(&["sweep", "--kind", "bogus"])).is_err());
    }

    #[test]
    fn missing_values_and_unknown_flags_error() {
        assert!(parse_args(&v(&["run", "4MEM-1", "--policy"])).is_err());
        assert!(parse_args(&v(&["run", "4MEM-1", "--frobnicate"])).is_err());
        assert!(parse_args(&v(&["run"])).is_err());
        assert!(parse_args(&v(&["bogus"])).is_err());
    }

    #[test]
    fn policies_list_parses() {
        let c = parse_args(&v(&["compare", "4MEM-2", "--policies", "hf-rf,fq,stf"])).unwrap();
        match c {
            Command::Compare { policies, .. } => {
                assert_eq!(
                    policies.iter().map(PolicySpec::name).collect::<Vec<_>>(),
                    vec!["HF-RF", "FQ", "STF"]
                );
            }
            c => panic!("wrong command {c:?}"),
        }
    }
}
