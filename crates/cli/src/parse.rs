//! The command line, written once. [`VERBS`] has one row per verb and,
//! under it, one row per flag: its name, the placeholder of its value,
//! its help line and the setter that stores it in [`Args`].
//! [`parse_args`] walks an argument vector over the table, [`usage`]
//! renders `melreq help` from it and [`crate::run_command`] calls the
//! verb's `run` — so a new flag is one row, and a flag its verb has no
//! row for is a usage error rather than silently ignored.
//! (Hand-rolled: the workspace's only dependencies are the simulation
//! crates plus rand/proptest.)

use crate::commands::{
    cmd_audit, cmd_client, cmd_compare, cmd_config, cmd_loadbench, cmd_profile, cmd_reproduce,
    cmd_run, cmd_serve, cmd_sweep, with_host_profile,
};
use melreq_core::api::MelreqError;
use melreq_core::experiment::ExperimentOptions;
use melreq_loadgen::LoadConfig;
use melreq_serve::ServeConfig;
use std::fmt::Display;
use std::str::FromStr;

/// A policy selected on the command line. This is
/// [`melreq_memctrl::PolicyKind`], resolved through the open policy
/// registry — the CLI, the service and the bench harness all parse
/// policy names through the same table, so a token accepted here is
/// accepted everywhere, including the `name(key=value,...)` parameter
/// grammar (e.g. `bliss(threshold=8)`).
pub use melreq_memctrl::PolicyKind as PolicySpec;

/// Observability flags (`--trace`, `--series`, `--sample-epoch`,
/// `--trace-cap`, `--provenance`) accepted by `run`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ObsArgs {
    /// Perfetto trace output path (`--trace PATH`).
    pub trace_out: Option<String>,
    /// Epoch time-series CSV output path (`--series PATH`).
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

/// Everything a command line can say, in one flat struct: each flag row
/// writes one field, each command reads the fields its verb has rows
/// for. [`Args::default`] is what a bare `melreq VERB` means; the
/// `serve` and `loadbench` rows write straight into the configs those
/// commands hand on, whose own `Default`s hold their defaults.
#[derive(Debug, Clone)]
pub struct Args {
    /// The Table 3 mix: the positional argument, or the verb's default.
    pub mix: String,
    /// `client` verbs in execution order (`run`/`compare` took [`Args::mix`]).
    pub client_verbs: Vec<String>,
    /// `--instructions/--warmup/--profile N/--slice`.
    pub opts: ExperimentOptions,
    /// `--trace/--series/--sample-epoch/--trace-cap/--provenance`.
    pub obs: ObsArgs,
    /// `--policy` (one entry) or `--policies`; empty means the verb's
    /// default ([`Args::policy`], [`Args::policy_set`]).
    pub policies: Vec<PolicySpec>,
    /// The `serve` rows. `client` dials `serve.addr`: the address a
    /// server binds by default is the one a client reaches by default.
    pub serve: ServeConfig,
    /// The `loadbench` rows (its mix is [`Args::mix`]).
    pub load: LoadConfig,
    /// `profile --apps`; empty = all 26.
    pub apps: Vec<String>,
    /// `sweep --kind`: "mem", "mix" or "all".
    pub kind: String,
    /// `config --cores`.
    pub cores: usize,
    /// `--audit`: attach the protocol/invariant checker.
    pub audit: bool,
    /// `--json`: the versioned machine-readable report.
    pub json: bool,
    /// `reproduce --smoke`: reduced CI grid + fork-vs-fresh gate.
    pub smoke: bool,
    /// `serve --no-store`: every request warms up from scratch.
    pub no_store: bool,
    /// `--store DIR` (default `.melreq-store`).
    pub store: Option<String>,
    /// `--out PATH`; each verb that writes an artifact names its default.
    pub out: Option<String>,
    /// `--guard PATH`: baseline artifact to guard against.
    pub guard: Option<String>,
    /// `--guard-ratio R`, in (0, 1].
    pub guard_ratio: f64,
    /// `--profile PATH`: host-profile (wall-clock span trace) output.
    pub prof_out: Option<String>,
    /// `--threads N` (default: host parallelism).
    pub threads: Option<usize>,
    /// `client --timeout-ms`: the request's wall-clock budget.
    pub timeout_ms: Option<u64>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            mix: String::new(),
            client_verbs: Vec::new(),
            opts: ExperimentOptions::default(),
            obs: ObsArgs::default(),
            policies: Vec::new(),
            serve: ServeConfig::default(),
            load: LoadConfig::default(),
            apps: Vec::new(),
            kind: "mem".to_string(),
            cores: 4,
            audit: false,
            json: false,
            smoke: false,
            no_store: false,
            store: None,
            out: None,
            guard: None,
            guard_ratio: 0.25,
            prof_out: None,
            threads: None,
            timeout_ms: None,
        }
    }
}

impl Args {
    /// The one policy of `run` and `audit`: ME-LREQ unless
    /// `--policy` named another.
    pub fn policy(&self) -> PolicySpec {
        self.policies.first().cloned().unwrap_or(PolicySpec::MeLreq)
    }

    /// The policy list of `compare` and `sweep`: with no explicit set,
    /// the registry's paper-figure policies (the Figure 2 set, in figure
    /// order).
    pub fn policy_set(&self) -> Vec<PolicySpec> {
        if self.policies.is_empty() {
            PolicySpec::figure2_set()
        } else {
            self.policies.clone()
        }
    }
}

/// One flag of one verb (or of a [`Group`] several verbs share).
pub struct Flag {
    /// As written on the command line.
    pub name: &'static str,
    /// Placeholder of its value in the usage text; empty for a switch.
    pub value: &'static str,
    /// Its help line.
    pub doc: &'static str,
    /// Store the value; an `Err` is reported prefixed with the flag name.
    set: fn(&mut Args, &str) -> Result<(), String>,
}

/// Flags several verbs read, documented once under their own heading.
pub struct Group {
    /// Section heading in the usage text.
    pub title: &'static str,
    /// The group's rows.
    pub flags: &'static [Flag],
}

/// What a verb takes besides flags.
#[derive(Clone, Copy)]
pub enum Positional {
    /// Nothing.
    None,
    /// A Table 3 mix name.
    Mix,
    /// A mix name, or this one when absent.
    MixOr(&'static str),
    /// `client`'s verbs ([`CLIENT_VERBS`]).
    ClientVerbs,
}

/// One `melreq` verb: what it reads from its command line and what it
/// runs. Anything without a row is a usage error: a flag the verb would
/// ignore silently does not do what it says.
pub struct Verb {
    /// As written on the command line.
    pub name: &'static str,
    /// Its positional argument(s).
    pub positional: Positional,
    /// Its own rows.
    pub flags: &'static [Flag],
    /// The shared groups it reads.
    pub groups: &'static [&'static Group],
    /// Whether `--profile PATH` attaches the host profiler to it.
    pub host_profile: bool,
    /// The command.
    pub run: fn(&Args) -> Result<String, MelreqError>,
}

/// A parsed command line: [`crate::run_command`] runs it.
pub struct Invocation {
    /// The verb's row.
    pub verb: &'static Verb,
    /// What its flags and positionals set.
    pub args: Args,
}

/// `client` verbs and the request each one sends; `run` and `compare`
/// take the next positional as their mix and POST the typed request.
pub const CLIENT_VERBS: &[(&str, &str, &str)] = &[
    ("run", "POST", "/run"),
    ("compare", "POST", "/compare"),
    ("health", "GET", "/healthz"),
    ("metrics", "GET", "/metrics"),
    ("buildinfo", "GET", "/buildinfo"),
    ("policies", "GET", "/policies"),
    ("shutdown", "POST", "/shutdown"),
];

const fn flag(
    name: &'static str,
    value: &'static str,
    doc: &'static str,
    set: fn(&mut Args, &str) -> Result<(), String>,
) -> Flag {
    Flag { name, value, doc, set }
}

/// What every setter ends in: store the parsed value or pass its error on.
fn put<T>(slot: &mut T, value: Result<T, String>) -> Result<(), String> {
    *slot = value?;
    Ok(())
}

fn num<T: FromStr<Err: Display>>(v: &str) -> Result<T, String> {
    v.parse().map_err(|e: T::Err| e.to_string())
}

fn positive<T: FromStr<Err: Display> + PartialOrd + Default>(v: &str) -> Result<T, String> {
    num(v).and_then(|n: T| if n > T::default() { Ok(n) } else { Err("must be positive".into()) })
}

/// A positive rate or duration; `inf` is not one.
fn positive_finite(v: &str) -> Result<f64, String> {
    positive(v).and_then(|x: f64| if x.is_finite() { Ok(x) } else { Err("must be finite".into()) })
}

fn ratio(v: &str) -> Result<f64, String> {
    num(v).and_then(
        |r: f64| if r > 0.0 && r <= 1.0 { Ok(r) } else { Err("must be in (0, 1]".into()) },
    )
}

fn list(v: &str) -> impl Iterator<Item = &str> {
    v.split(',').map(str::trim).filter(|x| !x.is_empty())
}

fn kind(v: &str) -> Result<String, String> {
    match v {
        "mem" | "mix" | "all" => Ok(v.to_string()),
        _ => Err(format!("must be mem, mix or all (got '{v}')")),
    }
}

/// `--instructions/--warmup/--profile N/--slice`: the scale of a
/// simulation, read by every verb that runs one and by `client`.
#[rustfmt::skip]
const SCALE: Group = Group { title: "COMMON OPTIONS", flags: &[
    flag("--instructions", "N", "measured instructions per core (default 150000)",
        |a, v| put(&mut a.opts.instructions, positive(v))),
    flag("--warmup", "N", "warm-up instructions per core (default 60000)",
        |a, v| put(&mut a.opts.warmup, num(v))),
    flag("--profile", "N", "instructions of each single-core profiling run (default 60000); \
         with a PATH instead of a number this is the host profiler's flag, see COMMAND FLAGS",
        |a, v| put(&mut a.opts.profile_instructions, positive(v))),
    flag("--slice", "K", "evaluation slice index (default 0)",
        |a, v| put(&mut a.opts.eval_slice, num(v))),
]};

#[rustfmt::skip]
const THREADS: Group = Group { title: "THREAD OPTIONS", flags: &[
    flag("--threads", "N", "worker threads for pooled runs (default host parallelism); \
         results are bit-identical at any value",
        |a, v| put(&mut a.threads, positive(v).map(Some))),
]};

#[rustfmt::skip]
const OBS: Group = Group { title: "TRACE OPTIONS", flags: &[
    flag("--series", "PATH", "write the epoch time-series as CSV; implies sampling",
        |a, v| put(&mut a.obs.series_out, Ok(Some(v.into())))),
    flag("--sample-epoch", "N", "sampling epoch in cycles (default 10000 when a series or a \
         trace is requested)",
        |a, v| put(&mut a.obs.sample_epoch, positive(v).map(Some))),
    flag("--trace-cap", "N", "trace-ring capacity in events (default 1048576, oldest events \
         drop beyond it)",
        |a, v| put(&mut a.obs.trace_cap, num(v).map(Some))),
]};

/// The path form of `--profile`, on the verbs with `host_profile` set.
const HOST_PROFILE: Flag = flag(
    "--profile",
    "PATH",
    "write a host-side span profile of the command there (see HOST PROFILING)",
    |a, v| put(&mut a.prof_out, Ok(Some(v.into()))),
);

const POLICY: Flag = flag("--policy", "NAME", "scheduling policy (default me-lreq)", |a, v| {
    put(&mut a.policies, PolicySpec::parse(v).map(|p| vec![p]))
});

const POLICIES: Flag = flag(
    "--policies",
    "n1,...",
    "policy list, first = baseline (default: the Figure 2 set)",
    |a, v| put(&mut a.policies, list(v).map(PolicySpec::parse).collect()),
);

/// Every verb, in usage order.
#[rustfmt::skip]
pub static VERBS: &[Verb] = &[
    Verb { name: "profile", positional: Positional::None, groups: &[&SCALE], host_profile: false,
        run: cmd_profile, flags: &[
        flag("--apps", "a,b,...", "subset of SPEC2000 names (default all 26)",
            |a, v| put(&mut a.apps, Ok(list(v).map(String::from).collect()))),
    ]},
    Verb { name: "run", positional: Positional::Mix, groups: &[&SCALE, &THREADS, &OBS],
        host_profile: true, run: |a| with_host_profile(a, "melreq run", cmd_run), flags: &[
        POLICY,
        flag("--audit", "", "attach the protocol/invariant checker",
            |a, _| put(&mut a.audit, Ok(true))),
        flag("--json", "", "print the versioned single-line report (byte-identical to the \
             server's /run body)",
            |a, _| put(&mut a.json, Ok(true))),
        flag("--trace", "PATH", "write a Chrome/Perfetto trace_event JSON of the run; implies \
             sampling",
            |a, v| put(&mut a.obs.trace_out, Ok(Some(v.into())))),
        flag("--provenance", "", "print which scheduler rule won each grant, aggregated per \
             policy",
            |a, _| put(&mut a.obs.provenance, Ok(true))),
    ]},
    Verb { name: "audit", positional: Positional::MixOr("4MEM-1"), groups: &[&SCALE],
        host_profile: false, run: cmd_audit, flags: &[POLICY] },
    Verb { name: "compare", positional: Positional::Mix, groups: &[&SCALE, &THREADS],
        host_profile: true, run: |a| with_host_profile(a, "melreq compare", cmd_compare), flags: &[
        POLICIES,
        flag("--provenance", "", "per-policy rule-attribution totals",
            |a, _| put(&mut a.obs.provenance, Ok(true))),
        flag("--json", "", "versioned report instead of the table",
            |a, _| put(&mut a.json, Ok(true))),
    ]},
    Verb { name: "sweep", positional: Positional::None, groups: &[&SCALE, &THREADS],
        host_profile: false, run: cmd_sweep, flags: &[
        flag("--kind", "mem|mix|all", "workload class (default mem)",
            |a, v| put(&mut a.kind, kind(v))),
        POLICIES,
    ]},
    Verb { name: "reproduce", positional: Positional::None, groups: &[&SCALE, &THREADS],
        host_profile: true, run: cmd_reproduce, flags: &[
        flag("--smoke", "", "reduced CI grid + fork-vs-fresh gate",
            |a, _| put(&mut a.smoke, Ok(true))),
        flag("--store", "DIR", "checkpoint-store directory (default .melreq-store)",
            |a, v| put(&mut a.store, Ok(Some(v.into())))),
        flag("--out", "PATH", "sweep artifact (default BENCH_sweep.json)",
            |a, v| put(&mut a.out, Ok(Some(v.into())))),
        flag("--guard", "PATH", "baseline sweep artifact; exit nonzero when total_wall_s \
             exceeds baseline/R",
            |a, v| put(&mut a.guard, Ok(Some(v.into())))),
        flag("--guard-ratio", "R", "wall-guard ratio in (0,1] (default 0.25)",
            |a, v| put(&mut a.guard_ratio, ratio(v))),
    ]},
    Verb { name: "serve", positional: Positional::None, groups: &[], host_profile: true,
        run: cmd_serve, flags: &[
        flag("--addr", "H:P", "bind address (default 127.0.0.1:7700)",
            |a, v| put(&mut a.serve.addr, Ok(v.into()))),
        flag("--workers", "N", "simulation worker threads (default 2)",
            |a, v| put(&mut a.serve.workers, positive(v))),
        flag("--queue-cap", "M", "job-queue bound; beyond it 429 (default 16)",
            |a, v| put(&mut a.serve.queue_cap, positive(v))),
        flag("--store", "DIR", "checkpoint-store directory (same default as reproduce)",
            |a, v| put(&mut a.store, Ok(Some(v.into())))),
        flag("--no-store", "", "run storeless (no warm-up reuse)",
            |a, _| put(&mut a.no_store, Ok(true))),
        flag("--timeout-ms", "N", "default per-request wall-clock budget",
            |a, v| put(&mut a.serve.default_timeout_ms, num(v).map(Some))),
        flag("--response-cache", "N", "cache N rendered responses (default 0 = off)",
            |a, v| put(&mut a.serve.response_cache, num(v))),
        flag("--idle-timeout-ms", "N", "close idle keep-alive connections after N ms (default \
             30000; 0 = never)",
            |a, v| put(&mut a.serve.idle_timeout_ms, num(v))),
        flag("--access-log", "PATH", "append one structured JSON line per request (id, \
             endpoint, status, per-stage µs)",
            |a, v| put(&mut a.serve.access_log, Ok(Some(v.into())))),
    ]},
    Verb { name: "client", positional: Positional::ClientVerbs, groups: &[&SCALE],
        host_profile: false, run: cmd_client, flags: &[
        POLICY,
        POLICIES,
        flag("--audit", "", "attach the auditor server-side",
            |a, _| put(&mut a.audit, Ok(true))),
        flag("--addr", "H:P", "server address (default 127.0.0.1:7700)",
            |a, v| put(&mut a.serve.addr, Ok(v.into()))),
        flag("--timeout-ms", "N", "request wall-clock budget (forwarded)",
            |a, v| put(&mut a.timeout_ms, num(v).map(Some))),
    ]},
    Verb { name: "loadbench", positional: Positional::MixOr("2MEM-1"), groups: &[],
        host_profile: false, run: cmd_loadbench, flags: &[
        flag("--addr", "H:P", "server address (default 127.0.0.1:7700)",
            |a, v| put(&mut a.load.addr, Ok(v.into()))),
        flag("--rps", "R", "offered open-loop arrival rate (default 200)",
            |a, v| put(&mut a.load.rps, positive_finite(v))),
        flag("--conns", "N", "job-pool workers issuing requests, so the most connections \
             open at once (default 16)",
            |a, v| put(&mut a.load.conns, positive(v))),
        flag("--duration", "S", "arrival window per phase, seconds (default 2.0)",
            |a, v| put(&mut a.load.duration_s, positive_finite(v))),
        flag("--seed", "N", "arrival-process seed (default 42)",
            |a, v| put(&mut a.load.seed, num(v))),
        flag("--out", "PATH", "load artifact (default BENCH_serve.json)",
            |a, v| put(&mut a.out, Ok(Some(v.into())))),
        flag("--guard", "PATH", "baseline load artifact; exit nonzero when cached throughput \
             drops below baseline*R",
            |a, v| put(&mut a.guard, Ok(Some(v.into())))),
        flag("--guard-ratio", "R", "load-guard ratio in (0,1] (default 0.25)",
            |a, v| put(&mut a.guard_ratio, ratio(v))),
    ]},
    Verb { name: "config", positional: Positional::None, groups: &[], host_profile: false,
        run: cmd_config, flags: &[
        flag("--cores", "N", "core count to describe (default 4)",
            |a, v| put(&mut a.cores, num(v))),
    ]},
    Verb { name: "help", positional: Positional::None, groups: &[], host_profile: false,
        run: |_| Ok(usage()), flags: &[] },
];

impl Verb {
    /// The rows COMMAND FLAGS lists under this verb: its own, and
    /// `--profile PATH` where that attaches the host profiler.
    fn own(&self) -> impl Iterator<Item = &'static Flag> {
        self.flags.iter().chain(self.host_profile.then_some(&HOST_PROFILE))
    }

    /// Every row this verb reads: its own, then its groups'.
    pub fn rows(&self) -> impl Iterator<Item = &'static Flag> {
        self.own().chain(self.groups.iter().flat_map(|g| g.flags))
    }

    /// The row for `name`; `form` picks among rows of one name by their
    /// value placeholder.
    fn row(&self, name: &str, form: Option<&str>) -> Option<&'static Flag> {
        self.rows().find(|f| f.name == name && form.is_none_or(|v| f.value == v))
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

/// Parse a full argument vector (without the program name).
pub fn parse_args<S: AsRef<str>>(argv: &[S]) -> Result<Invocation, String> {
    let mut it = argv.iter().map(AsRef::as_ref).peekable();
    let name = match it.next() {
        None | Some("--help" | "-h") => "help",
        Some(name) => name,
    };
    let verb = VERBS
        .iter()
        .find(|v| v.name == name)
        .ok_or_else(|| format!("unknown command '{name}' (try `melreq help`)"))?;
    let mut args = Args::default();
    let mut positional: Vec<&str> = Vec::new();
    while let Some(a) = it.next() {
        if !a.starts_with("--") {
            positional.push(a);
            continue;
        }
        // `--profile` is one name over two rows: a number is the
        // profiling-run instruction count, anything else the host-profile
        // output path.
        let form = match it.peek() {
            Some(v) if a == "--profile" => {
                Some(if v.parse::<u64>().is_ok() { "N" } else { "PATH" })
            }
            _ => None,
        };
        let Some(row) = verb.row(a, form) else {
            let written = form.map_or(a.to_string(), |f| format!("{a} {f}"));
            return Err(verb.rejects(&written, |v| v.row(a, form).is_some()));
        };
        let value = if row.value.is_empty() {
            ""
        } else {
            it.next().ok_or_else(|| format!("{a} requires a value"))?
        };
        (row.set)(&mut args, value).map_err(|e| format!("{a}: {e}"))?;
    }
    match verb.positional {
        Positional::ClientVerbs => client_verbs(&positional, &mut args)?,
        takes => {
            let most = usize::from(!matches!(takes, Positional::None));
            if positional.len() > most {
                return Err(format!(
                    "`melreq {name}` takes at most {most} positional argument(s), got {}: {}",
                    positional.len(),
                    positional.join(" ")
                ));
            }
            args.mix = match (positional.first(), takes) {
                (Some(mix), _) => (*mix).to_string(),
                (None, Positional::MixOr(default)) => default.to_string(),
                (None, Positional::Mix) => {
                    return Err(format!("{name} needs a workload mix name (e.g. 4MEM-1)"))
                }
                (None, _) => String::new(),
            };
        }
    }
    Ok(Invocation { verb, args })
}

/// `client`'s positionals are verbs in execution order; `run` and
/// `compare` consume the next positional as their mix.
fn client_verbs(positional: &[&str], args: &mut Args) -> Result<(), String> {
    let names = || CLIENT_VERBS.iter().map(|v| v.0).collect::<Vec<_>>().join(", ");
    if positional.is_empty() {
        return Err(format!("client needs at least one verb ({})", names()));
    }
    let mut pos = positional.iter();
    while let Some(&verb) = pos.next() {
        if !CLIENT_VERBS.iter().any(|v| v.0 == verb) {
            return Err(format!("unknown client verb '{verb}' ({})", names()));
        }
        if matches!(verb, "run" | "compare") {
            // One mix slot, so one simulation verb.
            if args.client_verbs.iter().any(|v| matches!(v.as_str(), "run" | "compare")) {
                return Err("client takes at most one of run|compare per invocation".to_string());
            }
            let mix = pos.next();
            let mix =
                mix.ok_or(format!("client {verb} needs a workload mix name (e.g. 4MEM-1)"))?;
            args.mix = (*mix).to_string();
        }
        args.client_verbs.push(verb.to_string());
    }
    Ok(())
}

/// No usage line is wider than this.
const WIDTH: usize = 79;

/// Write `head`, then `items` separated by spaces, breaking before an
/// item that would pass [`WIDTH`] onto a line indented by `indent`.
fn wrap<'a>(out: &mut String, head: &str, items: impl IntoIterator<Item = &'a str>, indent: usize) {
    out.push_str(head);
    let mut col = head.chars().count();
    for item in items {
        let width = item.chars().count();
        if col + 1 + width > WIDTH {
            out.push('\n');
            out.push_str(&" ".repeat(indent));
            col = indent;
        } else if col > 0 {
            out.push(' ');
            col += 1;
        }
        out.push_str(item);
        col += width;
    }
    out.push('\n');
}

impl Flag {
    /// As the usage text writes it: `--name VALUE`, or `--name` alone.
    fn written(&self) -> String {
        format!("{} {}", self.name, self.value).trim_end().to_string()
    }

    /// Its documented row: `label`, the flag as written, its help.
    fn document(&self, out: &mut String, label: &str) {
        let head = format!("  {label}{:<19}", self.written());
        wrap(out, &head, self.doc.split(' '), head.chars().count() + 1);
    }
}

/// The usage text (`melreq help`): synopses, COMMAND FLAGS and the group
/// sections are rendered from [`VERBS`]; the rest is prose.
pub fn usage() -> String {
    let mut out = String::from(
        "melreq — memory access scheduling simulator (ICPP'08 ME-LREQ reproduction)\n\nUSAGE:\n",
    );
    for verb in VERBS {
        let mut items = vec![verb.name.to_string()];
        items.extend(match verb.positional {
            Positional::None => None,
            Positional::Mix => Some("<MIX>".to_string()),
            Positional::MixOr(_) => Some("[MIX]".to_string()),
            Positional::ClientVerbs => Some("VERB...".to_string()),
        });
        items.extend(verb.own().map(|f| format!("[{}]", f.written())));
        items.extend(verb.groups.iter().map(|g| format!("[{}]", g.title.to_lowercase())));
        let indent = "  melreq  ".len() + verb.name.len();
        wrap(&mut out, "  melreq", items.iter().map(String::as_str), indent);
        if matches!(verb.positional, Positional::ClientVerbs) {
            let takes_mix =
                |name: &str| if name == "run" || name == "compare" { " <MIX>" } else { "" };
            let verbs: Vec<String> =
                CLIENT_VERBS.iter().map(|v| format!("{}{}", v.0, takes_mix(v.0))).collect();
            let note = format!(
                "where VERB is {}; several verbs share one keep-alive connection (at most one \
                 of run|compare per invocation)",
                verbs.join(" | ")
            );
            wrap(&mut out, &" ".repeat(indent - 1), note.split(' '), indent);
        }
    }
    out.push_str(NOTHING_IGNORED_AND_POLICIES);
    for group in [&SCALE, &THREADS, &OBS] {
        let readers = VERBS.iter().filter(|v| v.groups.iter().any(|g| g.title == group.title));
        let readers: Vec<&str> = readers.map(|v| v.name).collect();
        out.push('\n');
        wrap(&mut out, "", format!("{} ({}):", group.title, readers.join(", ")).split(' '), 0);
        for f in group.flags {
            f.document(&mut out, "");
        }
    }
    out.push_str("\nCOMMAND FLAGS:\n");
    for verb in VERBS {
        for (i, f) in verb.own().enumerate() {
            f.document(&mut out, &format!("{:<10}", if i == 0 { verb.name } else { "" }));
        }
    }
    out.push_str(PROSE);
    out
}

/// Follows the synopses.
const NOTHING_IGNORED_AND_POLICIES: &str =
    "  A flag its verb does not read is a usage error, as is a surplus
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
";

/// Follows COMMAND FLAGS.
const PROSE: &str = "
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
  spans of the process itself — executor job spans with queue wait and
  root priority, kernel stages (warm-up, snapshot encode/decode,
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
  `melreq run MIX --trace PATH` runs a mix with the deterministic trace
  collector on the audit tap: request arrivals, reconstructed
  ACT/RD/WR/PRE commands, grants (with the winning rule and beaten
  runner-up), refreshes and per-core memory-stall spans, exported as
  Chrome trace_event JSON — open it at https://ui.perfetto.dev.
  Timestamps are sim-cycles (shown as µs). Tracing is inert: results are
  bit-identical with it on or off.

REPRODUCING:
  `melreq reproduce` runs the whole paper — Table 2 profiles, the
  Figure 2/4/5 grid on 2/4/8 cores, the Figure 3 fixed-priority study
  and the offline-vs-online ablation — sharing each mix's warm-up
  across all policies via system snapshots, and writes BENCH_sweep.json
  (wall time, sim-cycles/s, checkpoint hit rate, peak RSS). A full run
  also writes the paper's tables, results/{table2,fig2,fig3,fig4,fig5}.txt,
  into a results/ directory beside --out. Warm-up
  checkpoints and profiles persist in the store directory (--store,
  default .melreq-store), so a second invocation skips all warm-up and
  profiling simulation. --smoke runs a reduced CI grid, leaves results/
  untouched (its summary shows the Figure 2 table of the one stage it
  ran) and exits nonzero if forked results diverge from fresh runs.

AUDITING:
  --audit attaches an independent checker that re-validates every DRAM
  grant against the DDR2 timing constraints and every scheduling decision
  against the policy's invariants. `melreq audit` runs a mix twice
  (default 4MEM-1 under ME-LREQ), requires both reports clean, and checks
  the two event-stream hashes are identical; any violation exits nonzero.

EXIT CODES:
  0 success · 2 usage · 3 I/O · 4 divergence (audit/fork gate)
  5 overload · 6 timeout/cancelled
";

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Invocation, String> {
        parse_args(&line.split(' ').filter(|w| !w.is_empty()).collect::<Vec<_>>())
    }

    fn args(line: &str) -> Args {
        parse(line).unwrap_or_else(|e| panic!("{line}: {e}")).args
    }

    fn err(line: &str) -> String {
        parse(line).err().unwrap_or_else(|| panic!("{line} must be a usage error"))
    }

    fn names(policies: &[PolicySpec]) -> Vec<&str> {
        policies.iter().map(PolicySpec::name).collect()
    }

    #[test]
    fn empty_is_help() {
        for line in ["", "help", "--help", "-h"] {
            assert_eq!(parse(line).unwrap().verb.name, "help", "{line:?}");
        }
    }

    #[test]
    fn run_parses_mix_policy_and_options() {
        let a = args("run 4MEM-1 --policy lreq --instructions 5000");
        assert_eq!(a.mix, "4MEM-1");
        assert_eq!(a.policy(), PolicySpec::Lreq);
        assert_eq!(a.opts.instructions, 5000);
        assert!(!a.audit && !a.json && !a.obs.any());
        assert!(a.threads.is_none() && a.prof_out.is_none());
        assert!(args("run 4MEM-1 --json").json && args("compare 4MEM-1 --json").json);
        assert!(args("run 4MEM-1 --audit").audit);
    }

    #[test]
    fn audit_subcommand_defaults_its_mix_and_policy() {
        let a = args("audit");
        assert_eq!((a.mix.as_str(), a.policy().name()), ("4MEM-1", "ME-LREQ"));
        let a = args("audit 2MIX-1 --policy rr");
        assert_eq!((a.mix.as_str(), a.policy().name()), ("2MIX-1", "RR"));
    }

    #[test]
    fn policy_lists_parse_and_default_to_the_figure2_set() {
        let set = args("compare 2MEM-1").policy_set();
        assert_eq!(set.len(), 5);
        assert_eq!((set[0].name(), set[4].name()), ("HF-RF", "ME-LREQ"));
        assert_eq!(
            names(&args("compare 4MEM-2 --policies hf-rf,fq,stf").policies),
            ["HF-RF", "FQ", "STF"]
        );
        // The `name(key=value,...)` grammar passes through both flags.
        let a = args("run 4MEM-1 --policy bliss(threshold=8,clear=500)");
        assert_eq!(a.policy().name(), "BLISS");
        assert_eq!(a.policy(), PolicySpec::parse("bliss(threshold=8,clear=500)").unwrap());
        let a = args("compare 4MEM-1 --policies tcm(quantum=1500),stf");
        assert_eq!(names(&a.policy_set()), ["TCM", "STF"]);
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
        let e = err("run 4MEM-1 --policy me-lerq");
        assert!(e.contains("--policy") && e.contains("unknown policy"), "{e}");
        assert!(e.contains("did you mean 'me-lreq'"), "nearest-name suggestion missing: {e}");
        let e = err("compare 4MEM-1 --policies hf-rf,blis");
        assert!(e.contains("did you mean 'bliss'"), "{e}");
    }

    #[test]
    fn reproduce_parses_flags() {
        let a = args(
            "reproduce --smoke --store /tmp/s --out x.json --threads 4 --guard base.json \
             --guard-ratio 0.5",
        );
        assert!(a.smoke);
        assert_eq!(a.store.as_deref(), Some("/tmp/s"));
        assert_eq!(a.out.as_deref(), Some("x.json"));
        assert_eq!(a.threads, Some(4));
        assert_eq!(a.guard.as_deref(), Some("base.json"));
        assert!((a.guard_ratio - 0.5).abs() < 1e-12);
        let a = args("reproduce");
        assert!(!a.smoke && a.store.is_none() && a.out.is_none());
        assert!(a.threads.is_none() && a.guard.is_none());
        assert!((a.guard_ratio - 0.25).abs() < 1e-12);
    }

    #[test]
    fn threads_flag_parses_on_every_pooled_verb() {
        assert_eq!(args("run 4MEM-1 --threads 8").threads, Some(8));
        assert_eq!(args("sweep --threads 2").threads, Some(2));
        assert_eq!(args("compare 2MEM-1 --threads 1").threads, Some(1));
    }

    #[test]
    fn serve_and_loadbench_defaults_are_their_configs_defaults() {
        let a = args("serve");
        assert_eq!(a.serve, ServeConfig::default());
        assert!(a.store.is_none() && !a.no_store && a.prof_out.is_none());
        let a = args("loadbench");
        assert_eq!(a.load, LoadConfig::default());
        assert_eq!(a.mix, LoadConfig::default().mix);
        assert!(a.out.is_none() && a.guard.is_none());
    }

    #[test]
    fn serve_and_loadbench_flags_write_into_their_configs() {
        let a = args(
            "serve --addr 127.0.0.1:0 --workers 4 --queue-cap 8 --no-store --timeout-ms 2500 \
             --response-cache 32 --idle-timeout-ms 0 --access-log access.jsonl \
             --profile serve_prof.json",
        );
        let expected = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_cap: 8,
            default_timeout_ms: Some(2500),
            response_cache: 32,
            idle_timeout_ms: 0,
            access_log: Some("access.jsonl".into()),
            ..ServeConfig::default()
        };
        assert_eq!(a.serve, expected);
        assert!(a.no_store);
        assert_eq!(a.prof_out.as_deref(), Some("serve_prof.json"));

        let a = args(
            "loadbench 4MEM-1 --addr h:9 --rps 500 --conns 64 --duration 1.5 --seed 7 \
             --out x.json --guard BENCH_serve.json --guard-ratio 0.1",
        );
        let expected = LoadConfig {
            addr: "h:9".to_string(),
            rps: 500.0,
            conns: 64,
            duration_s: 1.5,
            seed: 7,
            ..LoadConfig::default()
        };
        assert_eq!(a.load, expected);
        assert_eq!((a.mix.as_str(), a.out.as_deref()), ("4MEM-1", Some("x.json")));
        assert_eq!(a.guard.as_deref(), Some("BENCH_serve.json"));
        assert!((a.guard_ratio - 0.1).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_and_malformed_values_are_usage_errors_naming_the_flag() {
        for (line, flag) in [
            ("run 4MEM-1 --threads 0", "--threads"),
            ("run 4MEM-1 --instructions 0", "--instructions"),
            ("run 4MEM-1 --profile 0", "--profile"),
            ("run 2MEM-1 --sample-epoch 0", "--sample-epoch"),
            ("reproduce --guard-ratio 0", "--guard-ratio"),
            ("reproduce --guard-ratio 1.5", "--guard-ratio"),
            ("serve --workers 0", "--workers"),
            ("serve --workers x", "--workers"),
            ("serve --queue-cap 0", "--queue-cap"),
            ("loadbench --rps 0", "--rps"),
            ("loadbench --rps inf", "--rps"),
            ("loadbench --conns 0", "--conns"),
            ("loadbench --duration 0", "--duration"),
            ("sweep --kind bogus", "--kind"),
            // A missing value, on verbs that read the flag and one that
            // does not.
            ("run 4MEM-1 --policy", "--policy"),
            ("run 4MEM-1 --series", "--series"),
            ("serve --timeout-ms", "--timeout-ms"),
            ("config --profile", "--profile"),
            ("run 4MEM-1 --frobnicate", "--frobnicate"),
        ] {
            let e = err(line);
            assert!(e.contains(flag), "{line}: the error must name the flag: {e}");
        }
        assert!(parse("sweep --kind mem").is_ok());
        for line in ["run", "bogus"] {
            err(line);
        }
        let e = err("trace 2MEM-1");
        assert!(e.contains("unknown command 'trace'"), "`run --trace` replaced the verb: {e}");
    }

    #[test]
    fn client_parses_verbs_and_validates() {
        let a = args("client run 4MEM-1 --policy lreq --addr h:1");
        assert_eq!(a.client_verbs, ["run"]);
        assert_eq!(a.mix, "4MEM-1");
        assert_eq!(names(&a.policies), ["LREQ"]);
        assert_eq!(a.serve.addr, "h:1", "client dials the address serve binds");
        assert_eq!(args("client health").serve.addr, ServeConfig::default().addr);
        let a = args("client compare 2MEM-1");
        assert_eq!(a.client_verbs, ["compare"]);
        assert_eq!(a.policy_set().len(), 5, "compare defaults to the Figure 2 set");
        for verb in ["health", "buildinfo", "policies"] {
            let a = args(&format!("client {verb}"));
            assert_eq!(a.client_verbs, [verb]);
            assert!(a.mix.is_empty());
        }
        for line in ["client", "client bogus", "client run"] {
            err(line);
        }
    }

    #[test]
    fn client_chains_verbs_on_one_invocation() {
        let a = args("client health run 4MEM-1 metrics");
        assert_eq!(a.client_verbs, ["health", "run", "metrics"]);
        assert_eq!(a.mix, "4MEM-1");
        // The mix positional belongs to run/compare, not to the verb list.
        let a = args("client compare 2MEM-1 metrics shutdown");
        assert_eq!(a.client_verbs, ["compare", "metrics", "shutdown"]);
        assert_eq!(a.mix, "2MEM-1");
        assert_eq!(
            args("client health buildinfo metrics").client_verbs,
            ["health", "buildinfo", "metrics"]
        );
        assert_eq!(args("client policies run 4MEM-1").client_verbs, ["policies", "run"]);
        // At most one simulation verb per invocation (one mix slot).
        err("client run 4MEM-1 run 2MEM-1");
        err("client run 4MEM-1 compare 2MEM-1");
        // A trailing run/compare still needs its mix.
        err("client health run");
    }

    #[test]
    fn obs_flags_parse() {
        let a = args(
            "run 4MEM-1 --policy hf-rf --trace t.json --series s.csv --sample-epoch 5000 \
             --trace-cap 1024 --provenance",
        );
        assert_eq!((a.mix.as_str(), a.policy().name()), ("4MEM-1", "HF-RF"));
        assert_eq!(a.obs.trace_out.as_deref(), Some("t.json"));
        assert_eq!(a.obs.series_out.as_deref(), Some("s.csv"));
        assert_eq!(a.obs.sample_epoch, Some(5000));
        assert_eq!(a.obs.trace_cap, Some(1024));
        assert!(a.obs.provenance && a.obs.any());
        assert!(!args("run 2MEM-1").obs.any());
        assert!(args("compare 2MEM-1 --provenance").obs.provenance);
    }

    /// A value the row's setter accepts, by its placeholder.
    fn sample(f: &Flag) -> Option<&'static str> {
        Some(match f.value {
            "" => return None,
            "NAME" => "lreq",
            "n1,..." => "hf-rf,lreq",
            "mem|mix|all" => "mix",
            "a,b,..." => "swim",
            "PATH" | "DIR" => "p.json",
            "H:P" => "h:1",
            "R" => "0.5",
            _ => "1",
        })
    }

    #[test]
    fn every_row_of_every_verb_parses_and_is_documented() {
        let text = usage();
        for line in text.lines() {
            assert!(line.chars().count() <= WIDTH, "wider than {WIDTH} columns: {line}");
        }
        let mut rows = 0;
        for verb in VERBS {
            assert!(
                text.contains(&format!("\n  melreq {}", verb.name)),
                "no synopsis: {}",
                verb.name
            );
            // `client` needs a verb of its own; the rest take a mix where
            // they take anything.
            let head = match verb.positional {
                Positional::ClientVerbs => vec!["client", "run", "2MEM-1"],
                Positional::None => vec![verb.name],
                _ => vec![verb.name, "2MEM-1"],
            };
            for f in verb.rows() {
                rows += 1;
                let argv = [&head[..], &[f.name], sample(f).as_slice()].concat();
                assert!(parse_args(&argv).is_ok(), "{argv:?}: {:?}", parse_args(&argv).err());
                assert!(text.contains(&f.written()), "usage must document {}", f.written());
            }
            // COMMAND FLAGS lists the verb's own rows under its name.
            let own = format!(
                "\n  {:<10}{}",
                verb.name,
                verb.own().next().map_or_else(String::new, Flag::written)
            );
            assert!(verb.own().next().is_none() || text.contains(&own), "{own:?} missing");
        }
        assert_eq!(rows, 79, "a (verb, flag) row came or went");
        for section in ["COMMON OPTIONS (profile,", "THREAD OPTIONS (run,", "TRACE OPTIONS (run):"]
        {
            assert!(text.contains(section), "{section} missing");
        }
        assert!(
            text.contains("run       --policy NAME") && text.contains("audit     --policy NAME")
        );
    }

    #[test]
    fn a_flag_its_verb_does_not_read_is_a_usage_error() {
        // On the parent binary this exited 0 having audited nothing and
        // run the default five policies instead of `fcfs`.
        let e =
            err("compare 2MEM-1 --audit --smoke --workers 9 --policy fcfs --instructions 2000 \
             --warmup 1000 --profile 1000 extra positional");
        assert!(e.contains("--audit") && e.contains("`melreq compare`"), "{e}");
        assert!(e.contains("run, client"), "the error must say who reads it: {e}");
        for (line, needle) in [
            ("run X Y", "at most 1 positional"),
            ("sweep mem", "at most 0 positional"),
            ("serve --profile 123", "--profile N"),
            ("audit X --profile p.json", "--profile PATH"),
            ("compare X --trace t.json", "--trace"),
            ("audit X --provenance", "--provenance"),
            ("config --rps 5", "--rps"),
            ("audit --threads 2", "--threads"),
            ("help --json", "--json"),
        ] {
            let e = err(line);
            assert!(e.contains(needle), "{line}: {e}");
        }
    }

    #[test]
    fn profile_flag_is_polymorphic() {
        // A number keeps the legacy meaning: profiling-run instructions.
        let a = args("run 4MEM-1 --profile 12345");
        assert_eq!(a.opts.profile_instructions, 12_345);
        assert!(a.prof_out.is_none());
        // A path enables the host profiler on run, compare and reproduce.
        let a = args("run 4MEM-1 --profile prof.json");
        assert_eq!(a.opts.profile_instructions, 60_000, "default untouched");
        assert_eq!(a.prof_out.as_deref(), Some("prof.json"));
        assert_eq!(args("compare 2MEM-1 --profile p.json").prof_out.as_deref(), Some("p.json"));
        assert_eq!(args("reproduce --smoke --profile p.json").prof_out.as_deref(), Some("p.json"));
    }

    #[test]
    fn usage_documents_the_registry_surface() {
        let text = usage();
        for needle in [
            "bliss",
            "tcm",
            "policies",
            "bliss(threshold=4,clear=10000)",
            "tcm(quantum=2000)",
            "me-lreq-on(epoch=50000)",
            "/policies",
        ] {
            assert!(text.contains(needle), "usage must document {needle}");
        }
        // Every registered id and alias appears in or resolves from the
        // grammar the usage text describes.
        for d in melreq_memctrl::registry() {
            assert!(PolicySpec::parse(d.id).is_ok(), "{} must resolve", d.id);
        }
    }
}
