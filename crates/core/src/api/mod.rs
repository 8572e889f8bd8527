//! The typed public facade of the simulator: one entry point shared by
//! the CLI, the HTTP service (`melreq-serve`) and the benchmark harness.
//!
//! A [`SimRequest`] names a Table 3 mix, a policy set and the harness
//! options; [`Session::run`] executes it — reusing the fork-per-policy
//! warm-up kernel and the persistent [`CheckpointStore`] when one is
//! attached — and returns a versioned [`SimReport`] whose
//! [`SimReport::to_json`] rendering is **byte-deterministic**: the same
//! request produces the same bytes whether it ran through `melreq run
//! --json`, the service's `/run` endpoint, or a warm checkpoint store.
//! Wall-clock time and cache provenance are deliberately *not* part of
//! the report (the service carries them in its response envelope), which
//! is what makes that identity hold.
//!
//! Failures are typed ([`MelreqError`]) and carry both a process exit
//! code and an HTTP status, so the CLI and the service map errors the
//! same way from the same values.

pub mod json;

use crate::experiment::{
    self, run_tapped, ExperimentOptions, Group, GroupDone, MixResult, ProfileCache, RunControl,
    Taps,
};
use crate::store::CheckpointStore;
use crate::system::CancelToken;
use json::{esc, fmt_f64, Json};
use melreq_exec::Ctx;
pub use melreq_memctrl::policy::PolicyKind;
pub use melreq_memctrl::registry::registry_json;
use melreq_workloads::{all_mixes, Mix};
use std::fmt::Write as _;
use std::panic::resume_unwind;
use std::sync::Arc;
use std::time::Duration;

/// Schema version stamped on every machine-readable artifact this
/// workspace emits (reports, series files, checkpoint containers). The
/// single source of truth is `melreq_snap::SCHEMA_VERSION`.
pub const SCHEMA_VERSION: u32 = melreq_snap::SCHEMA_VERSION;

/// Most policies one request may name: each is a window on the pool.
/// At least the registry's size, which a full-registry compare sends.
pub(crate) const MAX_POLICIES: usize = 32;

/// A typed failure, shared by every entry point. Each variant maps to
/// both a CLI exit code ([`MelreqError::exit_code`]) and an HTTP status
/// ([`MelreqError::http_status`]) so the CLI and the service agree.
#[derive(Debug, Clone, PartialEq)]
pub enum MelreqError {
    /// The request itself is invalid (unknown flag, mix, policy, or a
    /// malformed body). Exit 2 / HTTP 400.
    Usage(String),
    /// The host failed us (filesystem, sockets). Exit 3 / HTTP 500.
    Io(String),
    /// The simulation violated an invariant it must uphold (audit
    /// violations, reproduction divergence). Exit 4 / HTTP 500.
    Divergence(String),
    /// The service's job queue is full; retry later. Exit 5 / HTTP 429.
    Overload {
        /// Suggested client back-off, surfaced as `Retry-After`.
        retry_after_s: u64,
    },
    /// The run exceeded its wall-clock deadline and was cancelled at an
    /// epoch boundary. Exit 6 / HTTP 504.
    Timeout(String),
}

impl MelreqError {
    /// The one table of error classes: the `kind` a service error body
    /// names, the process exit code and the HTTP status.
    fn class(&self) -> (&'static str, i32, u16) {
        match self {
            MelreqError::Usage(_) => ("usage", 2, 400),
            MelreqError::Io(_) => ("io", 3, 500),
            MelreqError::Divergence(_) => ("divergence", 4, 500),
            MelreqError::Overload { .. } => ("overload", 5, 429),
            MelreqError::Timeout(_) => ("timeout", 6, 504),
        }
    }

    /// The `"kind"` of the service's error body.
    pub fn kind(&self) -> &'static str {
        self.class().0
    }

    /// The process exit code the CLI maps this error to.
    pub fn exit_code(&self) -> i32 {
        self.class().1
    }

    /// The HTTP status the service maps this error to.
    pub fn http_status(&self) -> u16 {
        self.class().2
    }
}

impl std::fmt::Display for MelreqError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MelreqError::Usage(m) | MelreqError::Io(m) | MelreqError::Timeout(m) => f.write_str(m),
            MelreqError::Divergence(m) => write!(f, "divergence: {m}"),
            MelreqError::Overload { retry_after_s } => {
                write!(f, "overloaded; retry after {retry_after_s}s")
            }
        }
    }
}

impl std::error::Error for MelreqError {}

/// One simulation request: a mix, a policy set, and the harness knobs.
/// Build with [`SimRequest::new`] + the chainable setters, or decode a
/// wire body with [`SimRequest::from_json`].
#[derive(Debug, Clone, PartialEq)]
pub struct SimRequest {
    /// Table 3 mix name (e.g. `2MEM-1`).
    pub mix: String,
    /// Policies to run, in report order (first = comparison baseline).
    /// Resolved by name through the policy registry
    /// (`melreq_memctrl::registry`): the CLI's `--policy`/`--policies`
    /// flags and the service's request bodies share the same grammar,
    /// `name` or `name(key=val,...)`.
    pub policies: Vec<PolicyKind>,
    /// Harness options.
    pub opts: ExperimentOptions,
    /// Attach the independent protocol/invariant auditor; a violated
    /// run fails with [`MelreqError::Divergence`].
    pub audit: bool,
    /// Optional simulated-cycle budget tightening the options' safety
    /// net; an exhausted budget reports `timed_out` in the result.
    pub max_cycles: Option<u64>,
    /// Optional wall-clock deadline in milliseconds; an expired run is
    /// cancelled at an epoch boundary and fails with
    /// [`MelreqError::Timeout`]. Not part of the request's identity
    /// ([`SimRequest::canonical_bytes`]) — it cannot change the
    /// deterministic result, only whether it is produced in time.
    pub timeout_ms: Option<u64>,
}

impl SimRequest {
    /// A request for `mix` with default options and no policies (add
    /// them with [`SimRequest::policy`] / [`SimRequest::policies`]).
    pub fn new(mix: impl Into<String>) -> Self {
        SimRequest {
            mix: mix.into(),
            policies: Vec::new(),
            opts: ExperimentOptions::default(),
            audit: false,
            max_cycles: None,
            timeout_ms: None,
        }
    }

    /// Append one policy.
    #[must_use]
    pub fn policy(mut self, p: PolicyKind) -> Self {
        self.policies.push(p);
        self
    }

    /// Replace the policy set.
    #[must_use]
    pub fn policies(mut self, ps: Vec<PolicyKind>) -> Self {
        self.policies = ps;
        self
    }

    /// Set the harness options.
    #[must_use]
    pub fn opts(mut self, opts: ExperimentOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Attach the auditor.
    #[must_use]
    pub fn audit(mut self, on: bool) -> Self {
        self.audit = on;
        self
    }

    /// Set a simulated-cycle budget.
    #[must_use]
    pub fn max_cycles(mut self, cycles: u64) -> Self {
        self.max_cycles = Some(cycles);
        self
    }

    /// Set a wall-clock deadline in milliseconds.
    #[must_use]
    pub fn timeout_ms(mut self, ms: u64) -> Self {
        self.timeout_ms = Some(ms);
        self
    }

    /// Decode a wire request. Unknown fields are rejected by name; a
    /// present-but-mismatched `schema_version` is rejected (an absent
    /// one is accepted for hand-written bodies).
    pub fn from_json(body: &str) -> Result<Self, MelreqError> {
        let usage = |m: String| MelreqError::Usage(m);
        let doc = Json::parse(body).map_err(|e| usage(format!("invalid JSON body: {e}")))?;
        let members =
            doc.as_obj().ok_or_else(|| usage("request body must be a JSON object".into()))?;

        let mut req = SimRequest::new("");
        let mut saw_mix = false;
        for (key, value) in members {
            match key.as_str() {
                "schema_version" => {
                    let v = value
                        .as_u64()
                        .ok_or_else(|| usage("schema_version must be an integer".into()))?;
                    if v != u64::from(SCHEMA_VERSION) {
                        return Err(usage(format!(
                            "schema_version mismatch: request has {v}, this server speaks {SCHEMA_VERSION}"
                        )));
                    }
                }
                "mix" => {
                    req.mix = value
                        .as_str()
                        .ok_or_else(|| usage("mix must be a string".into()))?
                        .to_string();
                    saw_mix = true;
                }
                "policies" => {
                    let arr = value
                        .as_arr()
                        .ok_or_else(|| usage("policies must be an array of strings".into()))?;
                    if arr.len() > MAX_POLICIES {
                        return Err(usage(format!(
                            "policies lists {} entries; a request takes at most {MAX_POLICIES}",
                            arr.len()
                        )));
                    }
                    req.policies = arr
                        .iter()
                        .map(|p| {
                            p.as_str()
                                .ok_or_else(|| usage("policies must be an array of strings".into()))
                                .and_then(|s| PolicyKind::parse(s).map_err(usage))
                        })
                        .collect::<Result<_, _>>()?;
                }
                "policy" => {
                    let s =
                        value.as_str().ok_or_else(|| usage("policy must be a string".into()))?;
                    req.policies = vec![PolicyKind::parse(s).map_err(usage)?];
                }
                "audit" => {
                    req.audit =
                        value.as_bool().ok_or_else(|| usage("audit must be a boolean".into()))?;
                }
                "instructions" | "warmup" | "profile_instructions" | "max_cycles_factor" => {
                    let v = value
                        .as_u64()
                        .ok_or_else(|| usage(format!("{key} must be a non-negative integer")))?;
                    match key.as_str() {
                        "instructions" => req.opts.instructions = v,
                        "warmup" => req.opts.warmup = v,
                        "profile_instructions" => req.opts.profile_instructions = v,
                        _ => req.opts.max_cycles_factor = v,
                    }
                }
                "eval_slice" => {
                    let v = value
                        .as_u64()
                        .ok_or_else(|| usage("eval_slice must be a non-negative integer".into()))?;
                    req.opts.eval_slice =
                        u32::try_from(v).map_err(|_| usage("eval_slice out of range".into()))?;
                }
                "max_cycles" => {
                    req.max_cycles = Some(value.as_u64().ok_or_else(|| {
                        usage("max_cycles must be a non-negative integer".into())
                    })?);
                }
                "timeout_ms" => {
                    req.timeout_ms = Some(value.as_u64().ok_or_else(|| {
                        usage("timeout_ms must be a non-negative integer".into())
                    })?);
                }
                other => {
                    return Err(usage(format!("unknown request field '{other}'")));
                }
            }
        }
        if !saw_mix {
            return Err(usage("request is missing required field 'mix'".into()));
        }
        if req.policies.is_empty() {
            return Err(usage("request must name at least one policy".into()));
        }
        Ok(req)
    }

    /// Encode as a wire body that [`SimRequest::from_json`] accepts.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        write!(s, "{{\"schema_version\":{SCHEMA_VERSION},\"mix\":\"{}\"", esc(&self.mix)).unwrap();
        let tokens: Vec<String> = self
            .policies
            .iter()
            .map(|p| format!("\"{}\"", melreq_memctrl::canonical_name(p)))
            .collect();
        write!(s, ",\"policies\":[{}]", tokens.join(",")).unwrap();
        let o = &self.opts;
        write!(
            s,
            ",\"audit\":{},\"instructions\":{},\"warmup\":{},\"profile_instructions\":{},\"eval_slice\":{},\"max_cycles_factor\":{}",
            self.audit, o.instructions, o.warmup, o.profile_instructions, o.eval_slice,
            o.max_cycles_factor
        )
        .unwrap();
        if let Some(b) = self.max_cycles {
            write!(s, ",\"max_cycles\":{b}").unwrap();
        }
        if let Some(ms) = self.timeout_ms {
            write!(s, ",\"timeout_ms\":{ms}").unwrap();
        }
        s.push('}');
        s
    }

    /// The request's deterministic identity: its [`SimRequest::to_json`]
    /// body with the roster's mix spelling and no `timeout_ms` — the
    /// service's response-cache and request-coalescing key. Two requests
    /// share an entry iff these bytes are identical. The body is
    /// schema-versioned and names each policy by its registry token,
    /// which parses back to the same policy, so the key separates every
    /// field that can change the simulated result; `timeout_ms` only
    /// bounds wall-clock time. A mix name the run will reject stays as
    /// sent.
    pub fn canonical_bytes(&self) -> String {
        let mix = resolve_mix(&self.mix).map_or(self.mix.as_str(), |m| m.name).to_string();
        SimRequest { mix, timeout_ms: None, ..self.clone() }.to_json()
    }
}

/// Audit summary attached to a [`PolicyReport`] when the request ran
/// with the auditor ([`SimRequest::audit`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditSummary {
    /// Events the auditor observed.
    pub events: u64,
    /// FNV-1a hash of the canonical event stream.
    pub stream_hash: u64,
    /// Violations detected (always 0 in a returned report — a violated
    /// run fails with [`MelreqError::Divergence`] instead).
    pub violations: u64,
}

impl AuditSummary {
    /// The summary of a finished audit.
    pub fn of(report: &melreq_audit::AuditReport) -> Self {
        AuditSummary {
            events: report.events,
            stream_hash: report.stream_hash,
            violations: report.total_violations,
        }
    }
}

/// One policy's results within a [`SimReport`]: the harness's own record
/// of the run plus what its auditor said. The serialised fields are a
/// fixed subset of [`MixResult`] ([`SimReport::to_json`]); wall-clock time
/// and checkpoint provenance ride along unserialised.
#[derive(Debug, Clone)]
pub struct PolicyReport {
    /// The run, as the harness measured it.
    pub result: MixResult,
    /// Audit summary, present on audited runs.
    pub audit: Option<AuditSummary>,
}

impl PolicyReport {
    fn write_json(&self, s: &mut String) {
        let r = &self.result;
        let vec_json = |v: &[f64]| {
            let items: Vec<String> = v.iter().map(|x| fmt_f64(*x)).collect();
            format!("[{}]", items.join(","))
        };
        write!(
            s,
            "{{\"policy\":\"{}\",\"smt_speedup\":{},\"harmonic_speedup\":{},\"unfairness\":{},\"max_slowdown\":{},\"mean_read_latency\":{}",
            esc(r.policy),
            fmt_f64(r.smt_speedup),
            fmt_f64(r.harmonic_speedup),
            fmt_f64(r.unfairness),
            fmt_f64(r.max_slowdown),
            fmt_f64(r.mean_read_latency),
        )
        .unwrap();
        write!(
            s,
            ",\"ipc_multi\":{},\"ipc_single\":{},\"read_latency\":{},\"me\":{}",
            vec_json(&r.ipc_multi),
            vec_json(&r.ipc_single),
            vec_json(&r.read_latency),
            vec_json(&r.me),
        )
        .unwrap();
        write!(
            s,
            ",\"queue_occupancy_mean\":{},\"grant_candidates_mean\":{}",
            fmt_f64(r.queue_occupancy_mean),
            fmt_f64(r.grant_candidates_mean),
        )
        .unwrap();
        let channels: Vec<String> = r
            .channel_traffic
            .iter()
            .map(|c| {
                format!(
                    "{{\"reads\":{},\"writes\":{},\"row_hits\":{}}}",
                    c.reads, c.writes, c.row_hits
                )
            })
            .collect();
        write!(
            s,
            ",\"channels\":[{}],\"sim_cycles\":{},\"measured_cycles\":{},\"timed_out\":{},\"cancelled\":{}",
            channels.join(","),
            r.sim_cycles,
            r.measured_cycles,
            r.timed_out,
            r.cancelled,
        )
        .unwrap();
        if let Some(a) = &self.audit {
            write!(
                s,
                ",\"audit\":{{\"events\":{},\"stream_hash\":\"{:016x}\",\"violations\":{}}}",
                a.events, a.stream_hash, a.violations
            )
            .unwrap();
        }
        s.push('}');
    }
}

/// A versioned, deterministic simulation report: one [`PolicyReport`] per
/// requested policy, in request order, never empty. Everything else it
/// says — the mix, the wall-clock time, whether a checkpoint was used —
/// is read off those records.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// One report per requested policy, in request order.
    pub policies: Vec<PolicyReport>,
}

impl SimReport {
    /// The mix that ran, in the roster's spelling.
    pub fn mix(&self) -> &'static str {
        self.policies[0].result.mix.name
    }

    /// Whether any policy's warm-up came from a checkpoint.
    pub fn any_warm(&self) -> bool {
        self.policies.iter().any(|p| p.result.warmup_from_checkpoint)
    }

    /// Whether every policy's warm-up came from a checkpoint.
    pub fn all_warm(&self) -> bool {
        self.policies.iter().all(|p| p.result.warmup_from_checkpoint)
    }

    /// The canonical single-line JSON rendering. Byte-deterministic for
    /// a given request: same bytes from the CLI, the service, and warm
    /// or cold checkpoint stores (pinned by the golden service test).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512);
        write!(s, "{{\"schema_version\":{SCHEMA_VERSION},\"mix\":\"{}\"", esc(self.mix())).unwrap();
        s.push_str(",\"policies\":[");
        for (i, p) in self.policies.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            p.write_json(&mut s);
        }
        s.push_str("]}");
        s
    }
}

/// An execution context: the memoized profile cache, which holds the
/// persistent checkpoint store if there is one. One `Session` serves
/// many requests — the CLI builds one per invocation, the service builds
/// one per process and shares it across its worker pool (`&Session` is
/// `Sync`).
#[derive(Debug, Default)]
pub struct Session {
    cache: ProfileCache,
}

impl Session {
    /// A session with an in-memory cache only.
    pub fn new() -> Self {
        Self::default()
    }

    /// A session backed by a persistent checkpoint store.
    pub fn with_store(store: Arc<CheckpointStore>) -> Self {
        Session { cache: ProfileCache::with_store(store) }
    }

    /// The attached store, if any.
    pub fn store(&self) -> Option<&Arc<CheckpointStore>> {
        self.cache.store()
    }

    /// The session's profile cache (shared with lower-level harness
    /// calls, e.g. the reproduce sweep).
    pub fn cache(&self) -> &ProfileCache {
        &self.cache
    }

    /// Execute `req` under `ctl` on a job pool of its own, of
    /// `ctl.threads` workers at most ([`Session::run_on`]). A run's panic
    /// is re-thrown here.
    pub fn run(&self, req: &SimRequest, ctl: &RunControl) -> Result<SimReport, MelreqError> {
        // Facade phase span: the whole request, enclosing the kernel's
        // warm-up / policy-window / snapshot spans. Records on drop, so
        // error returns are covered too.
        let mut phase_span = melreq_prof::span("session", || format!("run {}", req.mix));
        phase_span.arg("policies", req.policies.len() as u64);
        phase_span.arg("audit", u64::from(req.audit));
        let mut outcome = None;
        let answer = &mut outcome;
        melreq_exec::run_scope(
            experiment::worker_count(req.policies.len(), ctl.threads),
            |scope| {
                scope.submit(0, move |ctx| {
                    self.run_on(req, ctl, &ctx, Box::new(move |out| *answer = Some(out)));
                });
            },
        );
        outcome.expect("every request is answered").unwrap_or_else(|p| resume_unwind(p))
    }

    /// Execute `req` under `ctl` as a job of `ctx`'s pool and hand the
    /// outcome to `done`. The control's cancel token and cycle budget are
    /// merged with the request's own `timeout_ms` / `max_cycles`, and the
    /// token covers the mix's single-core profiles, resolved first; see
    /// [`MelreqError`] for the failure taxonomy. An unaudited request, one
    /// policy or many, is a group: one boundary, a window per policy forked
    /// onto the pool (`experiment::warm_up_and_fork`), and `done` called by
    /// whichever window ends last, with a window's panic if one panicked.
    /// An audited request runs here from reset, one policy at a time; a
    /// panic in it, or before a group's windows begin, unwinds out of here.
    pub fn run_on<'env>(
        &'env self,
        req: &SimRequest,
        ctl: &RunControl,
        ctx: &Ctx<'_, 'env>,
        done: Done<'env>,
    ) {
        let (mix, ctl) = match self.prepare(req, ctl) {
            Ok(ready) => ready,
            Err(e) => return done(Ok(Err(e))),
        };
        if !req.audit {
            let (policies, opts) = (req.policies.clone(), req.opts);
            let store = self.store().map(Arc::as_ref);
            let done: GroupDone<'env> = Box::new(move |runs| {
                done(runs.map(|runs| report(runs.into_iter().map(|result| (result, None)))));
            });
            let group = Group { mix, policies, opts, ctl, store, done };
            return experiment::warm_up_and_fork(ctx, group, &self.cache);
        }
        // Every registered policy is auditable: the paper's schemes and
        // BLISS/TCM get full decision replication, the rest the generic
        // protocol/class/starvation checks.
        let taps = Taps { audit: true, observe: None };
        let mut runs = Vec::with_capacity(req.policies.len());
        for kind in &req.policies {
            let (result, heard) = run_tapped(&mix, kind, &req.opts, &self.cache, &ctl, taps);
            let audit = heard.audit.expect("an audited run reports");
            if !audit.is_clean() {
                return done(Ok(Err(MelreqError::Divergence(audit.render()))));
            }
            runs.push((result, Some(AuditSummary::of(&audit))));
        }
        done(Ok(report(runs)));
    }

    /// Check `req`, merge its limits into `ctl`, and resolve its mix's
    /// profiles under the merged cancel token.
    fn prepare(
        &self,
        req: &SimRequest,
        ctl: &RunControl,
    ) -> Result<(Mix, RunControl), MelreqError> {
        if req.policies.is_empty() {
            return Err(MelreqError::Usage("request must name at least one policy".into()));
        }
        // The core model asserts both are nonzero: a request is refused
        // here, where the CLI, the service and the benchmark all enter.
        let o = &req.opts;
        for (field, n) in
            [("instructions", o.instructions), ("profile_instructions", o.profile_instructions)]
        {
            if n == 0 {
                return Err(MelreqError::Usage(format!("{field} must be positive")));
            }
        }
        let mix = resolve_mix(&req.mix)?;
        let ctl = self.effective_control(req, ctl);
        if !self.cache.resolve(&mix, o, ctl.cancel.as_ref()) {
            let profiling = "run cancelled while profiling its applications (wall-clock deadline)";
            return Err(MelreqError::Timeout(profiling.into()));
        }
        Ok((mix, ctl))
    }

    /// Merge the caller's control with the request's own limits.
    fn effective_control(&self, req: &SimRequest, ctl: &RunControl) -> RunControl {
        let max_cycles = match (ctl.max_cycles, req.max_cycles) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        #[expect(
            clippy::disallowed_methods,
            reason = "a request timeout is a wall-clock deadline by definition; it never alters simulated state"
        )]
        let cancel = ctl.cancel.clone().or_else(|| {
            req.timeout_ms.map(|ms| {
                CancelToken::with_deadline(std::time::Instant::now() + Duration::from_millis(ms))
            })
        });
        RunControl { cancel, max_cycles, threads: ctl.threads }
    }

    /// Run several grid stages through **one global job pool** (no
    /// per-stage barrier) — the reproduce entry point. See
    /// [`experiment::run_sweep_stages`].
    pub fn run_sweep_stages(
        &self,
        stages: &[experiment::SweepStage],
        opts: &ExperimentOptions,
        ctl: &RunControl,
    ) -> Vec<Vec<MixResult>> {
        experiment::run_sweep_stages(stages, opts, &self.cache, self.store().map(Arc::as_ref), ctl)
    }
}

/// What a request's last job hands back: its outcome, or the panic of
/// one of its runs.
pub type Done<'env> =
    Box<dyn FnOnce(std::thread::Result<Result<SimReport, MelreqError>>) + Send + 'env>;

/// The report of a request's runs, in policy order, each with its audit
/// summary; a [`MelreqError::Timeout`] if a deadline cancelled one.
fn report(
    runs: impl IntoIterator<Item = (MixResult, Option<AuditSummary>)>,
) -> Result<SimReport, MelreqError> {
    let policies: Vec<_> =
        runs.into_iter().map(|(result, audit)| PolicyReport { result, audit }).collect();
    if let Some(p) = policies.iter().find(|p| p.result.cancelled) {
        return Err(MelreqError::Timeout(format!(
            "run cancelled at a {}-cycle epoch boundary after {} simulated cycles (wall-clock deadline)",
            crate::system::System::CANCEL_EPOCH,
            p.result.sim_cycles
        )));
    }
    Ok(SimReport { policies })
}

/// Look up a Table 3 mix by name (case-insensitive), as a typed error.
/// The one resolver: the CLI, request bodies and the load generator all
/// name mixes through it.
pub fn resolve_mix(name: &str) -> Result<Mix, MelreqError> {
    all_mixes().into_iter().find(|m| m.name.eq_ignore_ascii_case(name)).ok_or_else(|| {
        MelreqError::Usage(format!(
            "unknown workload '{name}'; names follow Table 3 (2MEM-1 … 8MIX-6)"
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use melreq_workloads::SliceKind;

    fn quick_request(policy: &str) -> SimRequest {
        SimRequest::new("2MEM-1")
            .policy(PolicyKind::parse(policy).unwrap())
            .opts(ExperimentOptions::quick())
    }

    #[test]
    fn request_json_round_trips() {
        let req = quick_request("me-lreq").audit(true).max_cycles(123).timeout_ms(456);
        let decoded = SimRequest::from_json(&req.to_json()).unwrap();
        assert_eq!(decoded, req);
    }

    #[test]
    fn from_json_rejects_unknown_fields_by_name() {
        let err = SimRequest::from_json(r#"{"mix":"2MEM-1","policy":"me","bogus":1}"#).unwrap_err();
        let MelreqError::Usage(msg) = err else { panic!("expected Usage") };
        assert!(msg.contains("'bogus'"), "{msg}");
        // The kernel oracle is not a request field any more: a body that
        // still carries its key is told so by name. (Spelled in halves —
        // the name is confined to the three files that implement it.)
        let retired = concat!("tick", "_exact");
        let body = format!(r#"{{"mix":"2MEM-1","policy":"me","{retired}":true}}"#);
        let err = SimRequest::from_json(&body).unwrap_err();
        assert_eq!(err.http_status(), 400);
        assert!(err.to_string().contains(&format!("unknown request field '{retired}'")), "{err}");
    }

    /// The pool a request runs on is the process's: a body cannot size it,
    /// and the windows it may fork are bounded before anything runs.
    #[test]
    fn from_json_refuses_a_thread_count_and_too_many_policies() {
        let err = SimRequest::from_json(r#"{"mix":"2MEM-1","policy":"me","threads":2}"#);
        assert_eq!(err, Err(MelreqError::Usage("unknown request field 'threads'".into())));
        let body = |n: usize| {
            let policies = vec!["\"hf-rf\""; n].join(",");
            format!(r#"{{"mix":"2MEM-1","policies":[{policies}]}}"#)
        };
        assert_eq!(SimRequest::from_json(&body(MAX_POLICIES)).unwrap().policies.len(), 32);
        let err = SimRequest::from_json(&body(MAX_POLICIES + 1)).unwrap_err();
        assert_eq!(err.http_status(), 400);
        assert!(err.to_string().contains("at most 32"), "{err}");
        assert!(melreq_memctrl::registry::registry().len() <= MAX_POLICIES);
    }

    #[test]
    fn from_json_rejects_schema_mismatch_but_allows_absence() {
        let body = format!(r#"{{"schema_version":{},"mix":"2MEM-1","policy":"me"}}"#, 999);
        let err = SimRequest::from_json(&body).unwrap_err();
        assert_eq!(err.http_status(), 400);
        assert!(SimRequest::from_json(r#"{"mix":"2MEM-1","policy":"me"}"#).is_ok());
    }

    #[test]
    fn canonical_bytes_are_schema_versioned_exclude_timeout_and_key_on_budget() {
        let a = quick_request("me-lreq");
        assert_eq!(
            a.canonical_bytes(),
            "{\"schema_version\":7,\"mix\":\"2MEM-1\",\"policies\":[\"me-lreq\"],\"audit\":false,\
             \"instructions\":20000,\"warmup\":10000,\"profile_instructions\":10000,\
             \"eval_slice\":0,\"max_cycles_factor\":4000}"
        );
        // The wall-clock budget is not identity; the cycle budget is.
        assert_eq!(a.canonical_bytes(), a.clone().timeout_ms(5).canonical_bytes());
        assert_ne!(a.canonical_bytes(), a.clone().max_cycles(1 << 30).canonical_bytes());
        // Fixed-priority orders are part of the identity.
        let f0 = SimRequest::new("4MEM-1").policy(PolicyKind::parse("fix-0123").unwrap());
        let f3 = SimRequest::new("4MEM-1").policy(PolicyKind::parse("fix-3210").unwrap());
        assert_ne!(f0.canonical_bytes(), f3.canonical_bytes());
    }

    #[test]
    fn session_runs_and_report_is_deterministic() {
        let session = Session::new();
        let req = quick_request("hf-rf");
        let a = session.run(&req, &RunControl::default()).unwrap();
        let b = session.run(&req, &RunControl::default()).unwrap();
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.to_json().starts_with(&format!("{{\"schema_version\":{SCHEMA_VERSION},")));
        assert_eq!(a.policies.len(), 1);
        assert!(!a.policies[0].result.timed_out);
    }

    #[test]
    fn audited_requests_simulate_their_own_warmups_and_plain_ones_reuse_the_store() {
        let dir = crate::store::TempDir::new("api-taps");
        let store = Arc::new(CheckpointStore::open(&*dir).expect("store"));
        let session = Session::with_store(store.clone());
        let ctl = RunControl::default();

        let audited = quick_request("hf-rf").policy(PolicyKind::MeLreq).audit(true);
        let report = session.run(&audited, &ctl).unwrap();
        let summaries: Vec<_> = report.policies.iter().filter_map(|p| p.audit.as_ref()).collect();
        assert_eq!(summaries.len(), 2, "one summary per audited policy");
        assert!(summaries.iter().all(|a| a.events > 0 && a.violations == 0));
        assert_ne!(summaries[0].stream_hash, summaries[1].stream_hash);
        let st = store.stats();
        assert_eq!((st.warmup_hits, st.warmup_misses), (0, 0), "audited runs never look");
        assert!(!report.any_warm());

        let plain = quick_request("me-lreq");
        assert!(!session.run(&plain, &ctl).unwrap().any_warm(), "a cold store has nothing");
        let warm = session.run(&plain, &ctl).unwrap();
        assert!(warm.all_warm(), "the second plain run restores what the first stored");
        let st = store.stats();
        assert_eq!((st.warmup_hits, st.warmup_misses), (1, 1));
        // Same bytes however the boundary was reached, audited or not.
        assert_eq!(warm.policies[0].result.ipc_multi, report.policies[1].result.ipc_multi);
    }

    /// The report's bytes are a contract: an unaudited and an audited run
    /// of one request against the bytes `melreq run 2MEM-1 --json [--audit]`
    /// printed at quick scale while `PolicyReport` still copied its fields
    /// out of the `MixResult` it now embeds.
    #[test]
    fn policy_report_json_is_byte_stable() {
        const PLAIN: &str = concat!(
            "{\"schema_version\":7,\"mix\":\"2MEM-1\",\"policies\":[{\"policy\":\"ME-LREQ\",",
            "\"smt_speedup\":1.7268925094976528,",
            "\"harmonic_speedup\":0.8634370545879058,\"unfairness\":1.006549829668036,",
            "\"max_slowdown\":1.1619425173439049,\"mean_read_latency\":180.78533231474407,",
            "\"ipc_multi\":[1.1372682815876265,0.5359056806002144],",
            "\"ipc_single\":[1.3214403700033035,0.618639611494324],",
            "\"read_latency\":[175.0891719745223,183.98687350835323],\"me\":[0.42465015897663405,",
            "0.09230800553564],\"queue_occupancy_mean\":6.610117211597779,",
            "\"grant_candidates_mean\":1.2541640962368907,\"channels\":[{\"reads\":636,\"writes\":312,",
            "\"row_hits\":11},{\"reads\":673,\"writes\":0,\"row_hits\":0}],\"sim_cycles\":55910,",
            "\"measured_cycles\":37321,\"timed_out\":false,\"cancelled\":false}]}",
        );
        const AUDIT: &str =
            "\"audit\":{\"events\":7274,\"stream_hash\":\"39e82aba00bd6f9f\",\"violations\":0}";
        let run = |req| Session::new().run(&req, &RunControl::default()).unwrap().to_json();
        assert_eq!(run(quick_request("me-lreq")), PLAIN);
        let audited = format!("{},{AUDIT}}}]}}", PLAIN.strip_suffix("}]}").unwrap());
        assert_eq!(run(quick_request("me-lreq").audit(true)), audited);
    }

    #[test]
    fn unknown_mix_is_usage_error() {
        let session = Session::new();
        let req = SimRequest::new("MIX9-9").policy(PolicyKind::Fq);
        let err = session.run(&req, &RunControl::default()).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("MIX9-9") && err.to_string().contains("Table 3"));
    }

    #[test]
    fn mix_names_are_case_insensitive_and_one_request_either_way() {
        assert_eq!(resolve_mix("2mem-1").unwrap().name, "2MEM-1");
        let upper = quick_request("me-lreq");
        let lower = SimRequest { mix: "2mem-1".to_string(), ..upper.clone() };
        assert_eq!(lower.canonical_bytes(), upper.canonical_bytes());
        let report = Session::new().run(&lower, &RunControl::default()).unwrap();
        assert_eq!(report.mix(), "2MEM-1", "the report carries the roster's spelling");
    }

    #[test]
    fn zero_length_runs_are_refused_not_simulated() {
        let session = Session::new();
        for (field, zeroed) in [
            ("instructions", ExperimentOptions { instructions: 0, ..ExperimentOptions::quick() }),
            (
                "profile_instructions",
                ExperimentOptions { profile_instructions: 0, ..ExperimentOptions::quick() },
            ),
        ] {
            let req = quick_request("hf-rf").opts(zeroed);
            let err = session.run(&req, &RunControl::default()).unwrap_err();
            assert_eq!(err.http_status(), 400, "{field}: {err}");
            assert!(err.to_string().starts_with(field), "the error names the field: {err}");
        }
    }

    #[test]
    fn expired_deadline_times_out() {
        let session = Session::new();
        // A deadline already in the past: the run must cancel at the
        // first epoch poll and surface as a 504-class timeout.
        let req = quick_request("hf-rf").timeout_ms(0);
        let err = session.run(&req, &RunControl::default()).unwrap_err();
        assert_eq!(err.http_status(), 504);
        assert_eq!(err.exit_code(), 6);
    }

    /// The deadline covers the single-core profiles a run starts with: a
    /// cancelled one answers `Timeout` and is kept nowhere, so the next
    /// lookup of it simulates.
    #[test]
    fn a_cancelled_profile_times_out_and_is_not_kept() {
        let session = Session::new();
        let opts =
            ExperimentOptions { profile_instructions: 100_000, ..ExperimentOptions::quick() };
        let token = CancelToken::new();
        token.cancel();
        let ctl = RunControl { cancel: Some(token), ..RunControl::default() };
        for policies in [vec![PolicyKind::HfRf], vec![PolicyKind::HfRf, PolicyKind::MeLreq]] {
            let req = SimRequest::new("2MEM-1").policies(policies).opts(opts);
            let err = session.run(&req, &ctl).unwrap_err();
            assert_eq!(err.http_status(), 504, "{err}");
            assert!(err.to_string().contains("profiling"), "{err}");
        }
        let cache = session.cache();
        for app in resolve_mix("2MEM-1").unwrap().apps() {
            let me = cache.lookup(&app, SliceKind::Profiling, opts.profile_instructions);
            let ipc = cache.lookup(&app, SliceKind::Evaluation(0), opts.instructions);
            assert!(me.1 && ipc.1, "app {}: a cancelled profile was kept", app.code);
        }
    }

    #[test]
    fn cycle_budget_reports_timed_out_without_error() {
        let session = Session::new();
        let req = quick_request("hf-rf").max_cycles(10_000);
        let report = session.run(&req, &RunControl::default()).unwrap();
        assert!(report.policies[0].result.timed_out);
        assert!(!report.policies[0].result.cancelled);
    }

    #[test]
    fn error_mappings_are_stable() {
        let cases = [
            (MelreqError::Usage(String::new()), "usage", 2, 400),
            (MelreqError::Io(String::new()), "io", 3, 500),
            (MelreqError::Divergence(String::new()), "divergence", 4, 500),
            (MelreqError::Overload { retry_after_s: 1 }, "overload", 5, 429),
            (MelreqError::Timeout(String::new()), "timeout", 6, 504),
        ];
        for (err, kind, exit, status) in cases {
            assert_eq!((err.kind(), err.exit_code(), err.http_status()), (kind, exit, status));
        }
    }
}
