//! Every scheduling policy in the registry, as one comparator chain.
//!
//! A policy ranks the *candidate* requests — those already filtered by the
//! controller to be issuable this cycle and belonging to the class chosen
//! by the read-first / write-drain machinery — and picks one. Policies
//! therefore never see a request the DRAM could not start immediately, so
//! a high-priority request blocked on a busy bank never idles the channel.
//!
//! Figure 1 is a comparator network: "a set of comparators is used to
//! select the thread with the highest priority, and then the first read
//! request of the selected thread is scheduled". Every scheme here is
//! that same three-link order, smallest first:
//!
//! 1. a per-core key ([`SchedulerPolicy::core_key`]) — the only link a
//!    policy states;
//! 2. row-buffer hit before miss, since hits are handled at the command
//!    level for every scheme (Section 4.1; only FCFS drops the link);
//! 3. oldest first (request ids are monotone in arrival order).
//!
//! The provided [`SchedulerPolicy::select`] executes the chain and the
//! provided [`SchedulerPolicy::explain`] reads the deciding link off the
//! same comparators, so a scheduler's order is written once. Writes, when
//! the controller drains them, run the [`HitFirst`] chain under every
//! policy — the paper treats write order as performance-neutral ("write
//! requests usually have small performance impact").
//!
//! Beyond the paper's schemes the module carries the fair schedulers its
//! related-work section points at ([`FairQueueing`], [`StallTimeFair`])
//! and two from its successor work ([`Bliss`], [`TcmCluster`]). Those
//! four keep their books in *grants*, the only time base the trait
//! observes, which keeps them deterministic across kernels and
//! snapshot/restore boundaries; they are faithful to the *objective* of
//! the original proposals, not to their full mechanisms.

use crate::request::ReqId;
use crate::table::PriorityTable;
use melreq_audit::Rule;
use melreq_snap::{Archive, SnapError};
use melreq_stats::types::{CoreId, Cycle};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A scheduling candidate: an issuable request of the selected class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// Request id; ids are monotone in arrival order, so comparing ids
    /// compares ages.
    pub id: ReqId,
    /// Originating core.
    pub core: CoreId,
    /// Whether the request currently hits an open row buffer.
    pub row_hit: bool,
}

/// Index of the chain's smallest candidate, `skip` excepted (`usize::MAX`
/// skips none). Links two and three share one word: a miss sets the top
/// bit of the id.
fn chain_min<P: SchedulerPolicy + ?Sized>(
    policy: &P,
    cands: &[Candidate],
    pending_reads: &[u32],
    skip: usize,
) -> Option<usize> {
    let hit_first = policy.hit_first();
    let mut best = None;
    for (i, c) in cands.iter().enumerate() {
        if i == skip {
            continue;
        }
        debug_assert!(c.id.0 < 1 << 63, "request id collides with the miss bit");
        let miss = u64::from(hit_first && !c.row_hit) << 63;
        let key = (policy.core_key(c.core, pending_reads), miss | c.id.0);
        if best.is_none_or(|(_, b)| key < b) {
            best = Some((i, key));
        }
    }
    best.map(|(i, _)| i)
}

/// A memory-access scheduling policy: the first link of the chain (see
/// the module docs), stated as data the provided methods execute.
pub trait SchedulerPolicy: std::fmt::Debug + Send {
    /// The policy's identity on the audit stream and in snapshots — what
    /// the auditor keys its model on (reports use `PolicyKind::name`).
    fn name(&self) -> &'static str;

    /// `core`'s standing in this decision; the smallest key wins.
    /// `pending_reads[i]` is core *i*'s queued read count (the
    /// outstanding-read counters of Figure 1, ≥ 1 for any core with a
    /// read candidate). The `u16` breaks ties between cores — the core id
    /// where the lower id wins, 0 where equal cores compete request
    /// against request.
    fn core_key(&self, core: CoreId, pending_reads: &[u32]) -> (u64, u16);

    /// Whether row-buffer hits go before misses among equal cores.
    /// With [`SchedulerPolicy::read_first`] it is the policy's *rule
    /// class*: two policies of one class schedule a window alike when no
    /// read decision in it had two cores' requests to choose between.
    fn hit_first(&self) -> bool {
        true
    }

    /// Whether the controller lets reads bypass writes (the read-first /
    /// write-drain class selector of Figure 1). Only plain FCFS turns the
    /// bypass off; every evaluated scheme keeps it (Section 4.1).
    fn read_first(&self) -> bool {
        true
    }

    /// Settle whatever this decision's keys depend on before they are
    /// read: [`SchedulerPolicy::select`] calls it once, first.
    fn prepare(&mut self, _cands: &[Candidate], _pending_reads: &[u32]) {}

    /// The rule credited when the core key set `winner` above `beaten`.
    fn core_rule(&self, _winner: CoreId, _beaten: CoreId, _pending_reads: &[u32]) -> Rule {
        Rule::CoreKey
    }

    /// Choose one of `cands` (at least one): the index of the chain's
    /// smallest.
    fn select(&mut self, cands: &[Candidate], pending_reads: &[u32]) -> usize {
        self.prepare(cands, pending_reads);
        chain_min(self, cands, pending_reads, usize::MAX).expect("select called with no candidates")
    }

    /// Why `cands[chosen]` went first: the index of the best request it
    /// beat and the first link on which the two differ (`OnlyCandidate`
    /// when nothing competed). Valid between `select` and `note_grant`;
    /// `&self`, so explaining a decision cannot change the next one.
    fn explain(
        &self,
        cands: &[Candidate],
        pending_reads: &[u32],
        chosen: usize,
    ) -> (Rule, Option<usize>) {
        let Some(beaten) = chain_min(self, cands, pending_reads, chosen) else {
            return (Rule::OnlyCandidate, None);
        };
        let (w, b) = (&cands[chosen], &cands[beaten]);
        let rule = if self.core_key(w.core, pending_reads) != self.core_key(b.core, pending_reads) {
            self.core_rule(w.core, b.core, pending_reads)
        } else if self.hit_first() && w.row_hit != b.row_hit {
            Rule::RowHitFirst
        } else {
            Rule::FcfsTiebreak
        };
        (rule, Some(beaten))
    }

    /// Observe a grant of a request this policy selected.
    fn note_grant(&mut self, _granted: &Candidate) {}

    /// Construction parameters as `(key, value)` pairs. Parameterized
    /// policies (BLISS, TCM) override this so the controller can announce
    /// the exact configuration on the audit stream — external checkers
    /// replicate the decision rule from the name *plus* these values.
    /// Parameter-free policies keep the empty default, which also keeps
    /// their audit streams byte-identical to pre-registry runs.
    fn params(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }

    /// Receive fresh per-core memory-efficiency estimates.
    ///
    /// This is the hook for the paper's *future work*: "online methods
    /// that can dynamically predict the memory efficiency of a program".
    /// ME-LREQ rebuilds its priority tables (the OS/hardware analogue:
    /// rewriting the SRAM tables at a phase boundary); ME-oblivious
    /// policies ignore it.
    fn update_profile(&mut self, _me: &[f64]) {}

    /// Walk mutable scheduling state (RNG, rotation pointers, priority
    /// tables) for a system checkpoint ([`Archive`]; a load needs an
    /// identically constructed policy). Stateless policies keep the no-op
    /// default; any policy carrying decision state that can be live
    /// inside a snapshotted window must override it, or restored runs
    /// will diverge from continued ones.
    fn state(&mut self, _ar: &mut dyn Archive) -> Result<(), SnapError> {
        Ok(())
    }
}

/// First-come first-serve: strictly by arrival order (Section 2, "FCFS").
#[derive(Debug, Default, Clone)]
pub struct Fcfs;

impl SchedulerPolicy for Fcfs {
    fn name(&self) -> &'static str {
        "FCFS"
    }

    fn core_key(&self, _core: CoreId, _pending: &[u32]) -> (u64, u16) {
        (0, 0)
    }

    fn hit_first(&self) -> bool {
        false
    }

    fn read_first(&self) -> bool {
        false
    }
}

/// FCFS with reads bypassing writes (FCFS-RF): arrival order within the
/// class the controller picks. It answers to FCFS's name, the audit
/// identity both FCFS kinds share.
#[derive(Debug, Default, Clone)]
pub struct FcfsRf;

impl SchedulerPolicy for FcfsRf {
    fn name(&self) -> &'static str {
        "FCFS"
    }

    fn core_key(&self, _core: CoreId, _pending: &[u32]) -> (u64, u16) {
        (0, 0)
    }

    fn hit_first(&self) -> bool {
        false
    }
}

/// Hit-First with Read-First — the paper's baseline (HF-RF): row-buffer
/// hits before misses, oldest first; reads bypass writes at the
/// controller level.
#[derive(Debug, Default, Clone)]
pub struct HitFirst;

impl SchedulerPolicy for HitFirst {
    fn name(&self) -> &'static str {
        "HF-RF"
    }

    fn core_key(&self, _core: CoreId, _pending: &[u32]) -> (u64, u16) {
        (0, 0)
    }
}

/// Round-Robin over cores (Section 2, "RR"): serve the next core in
/// rotation that has an issuable request.
#[derive(Debug, Clone)]
pub struct RoundRobin {
    cores: usize,
    next: usize,
}

impl RoundRobin {
    /// A rotation over `cores` cores starting at core 0.
    pub fn new(cores: usize) -> Self {
        assert!(cores > 0, "need at least one core");
        RoundRobin { cores, next: 0 }
    }
}

impl SchedulerPolicy for RoundRobin {
    fn name(&self) -> &'static str {
        "RR"
    }

    /// Distance from the rotation pointer.
    fn core_key(&self, core: CoreId, _pending: &[u32]) -> (u64, u16) {
        (((core.index() + self.cores - self.next) % self.cores) as u64, 0)
    }

    fn core_rule(&self, _winner: CoreId, _beaten: CoreId, _pending: &[u32]) -> Rule {
        Rule::RoundRobin
    }

    fn note_grant(&mut self, granted: &Candidate) {
        self.next = (granted.core.index() + 1) % self.cores;
    }

    fn state(&mut self, ar: &mut dyn Archive) -> Result<(), SnapError> {
        // `cores`: construction topology, identical across snapshot peers;
        // a load is checked against it.
        let Self { cores, next } = self;
        ar.usize(next)?;
        ar.ensure(*next < *cores, SnapError::Invalid("round-robin pointer out of range"))
    }
}

/// Least-Request (Zhu & Zhang, HPCA'05): the core with the fewest pending
/// read requests wins.
#[derive(Debug, Default, Clone)]
pub struct LeastRequest;

impl SchedulerPolicy for LeastRequest {
    fn name(&self) -> &'static str {
        "LREQ"
    }

    fn core_key(&self, core: CoreId, pending: &[u32]) -> (u64, u16) {
        (u64::from(pending[core.index()]), core.0)
    }

    fn core_rule(&self, _winner: CoreId, _beaten: CoreId, _pending: &[u32]) -> Rule {
        Rule::LreqCount
    }
}

/// A fixed core-priority ranking: the building block of the ME scheme and
/// the FIX-0123 / FIX-3210 straw-men of Figure 3.
#[derive(Debug, Clone)]
pub struct FixedPriority {
    /// `rank[core]` — 0 is the highest priority.
    rank: Vec<u32>,
    name: &'static str,
}

impl FixedPriority {
    /// Build from an explicit priority order: `order[0]` is the most
    /// favoured core. E.g. FIX-3210 is `from_order("FIX-3210", &[3,2,1,0])`.
    ///
    /// # Panics
    /// Panics unless `order` is a permutation of `0..order.len()`.
    pub fn from_order(name: &'static str, order: &[usize]) -> Self {
        let n = order.len();
        let mut rank = vec![u32::MAX; n];
        for (pos, &core) in order.iter().enumerate() {
            assert!(core < n, "core {core} out of range");
            assert!(rank[core] == u32::MAX, "core {core} listed twice");
            rank[core] = u32::try_from(pos).expect("priority order fits u32");
        }
        FixedPriority { rank, name }
    }

    /// The ME scheme (Section 5.1): fixed priority ordered by descending
    /// profiled memory efficiency. Ties keep the lower core id first.
    pub fn from_memory_efficiency(me: &[f64]) -> Self {
        let mut order: Vec<usize> = (0..me.len()).collect();
        order.sort_by(|&a, &b| {
            me[b].partial_cmp(&me[a]).expect("ME values must be comparable").then(a.cmp(&b))
        });
        Self::from_order("ME", &order)
    }

    /// The rank vector (`rank[core]`, 0 = highest).
    pub fn ranks(&self) -> &[u32] {
        &self.rank
    }
}

impl SchedulerPolicy for FixedPriority {
    fn name(&self) -> &'static str {
        self.name
    }

    fn core_key(&self, core: CoreId, _pending: &[u32]) -> (u64, u16) {
        (u64::from(self.rank[core.index()]), core.0)
    }

    fn core_rule(&self, _winner: CoreId, _beaten: CoreId, _pending: &[u32]) -> Rule {
        Rule::MeRank
    }
}

/// **ME-LREQ** — the paper's contribution (Section 3.2).
///
/// Each scheduling decision reads the per-core hardware table entry
/// `P[i] = quantize(ME[i] / PendingRead[i])` for every core with a
/// candidate, in parallel; the highest value wins, and ties are broken by
/// a (seeded) random pick among the tied cores.
#[derive(Debug)]
pub struct MeLreq {
    table: PriorityTable,
    rng: SmallRng,
    /// The core this decision's tie-break favours.
    pick: Option<CoreId>,
}

impl MeLreq {
    /// Build from profiled memory-efficiency values and a tie-break seed.
    pub fn new(me: &[f64], seed: u64) -> Self {
        Self::with_table(PriorityTable::new(me), seed)
    }

    /// Build around an explicit priority table (used by the quantization
    /// ablation, which substitutes [`PriorityTable::new_linear`]).
    pub fn with_table(table: PriorityTable, seed: u64) -> Self {
        MeLreq { table, rng: SmallRng::seed_from_u64(seed), pick: None }
    }

    /// The underlying hardware table (for inspection/tests).
    pub fn table(&self) -> &PriorityTable {
        &self.table
    }

    /// The parallel table read for `core`.
    fn priority(&self, core: CoreId, pending: &[u32]) -> u16 {
        self.table.lookup(core, pending[core.index()].max(1)).raw()
    }
}

impl SchedulerPolicy for MeLreq {
    fn name(&self) -> &'static str {
        "ME-LREQ"
    }

    /// The inverted table value; among equals the tie-break's pick goes
    /// first, the rest by core id.
    fn core_key(&self, core: CoreId, pending: &[u32]) -> (u64, u16) {
        let tie = if self.pick == Some(core) { 0 } else { 1 + core.0 };
        (u64::from(!self.priority(core, pending)), tie)
    }

    /// "A tie of equal priority may be broken by a random selection":
    /// one draw among the cores tied at the best table value, in
    /// candidate order, and none when the best is unique.
    fn prepare(&mut self, cands: &[Candidate], pending: &[u32]) {
        let mut best = 0;
        let mut tied: [u16; 64] = [0; 64];
        let mut tied_len = 0usize;
        let mut seen = 0u64;
        for c in cands {
            // One table read per core, however many requests it has.
            let bit = 1u64 << c.core.0;
            if seen & bit != 0 {
                continue;
            }
            seen |= bit;
            let p = self.priority(c.core, pending);
            if tied_len == 0 || p > best {
                best = p;
                tied_len = 0;
            }
            if p == best {
                tied[tied_len] = c.core.0;
                tied_len += 1;
            }
        }
        self.pick = match tied_len {
            0 => None,
            1 => Some(CoreId(tied[0])),
            n => Some(CoreId(tied[self.rng.gen_range(0..n)])),
        };
    }

    /// Equal table values: the draw decided. Otherwise the win is split
    /// between the two terms of `ME/PendingRead` by which of them differ.
    fn core_rule(&self, winner: CoreId, beaten: CoreId, pending: &[u32]) -> Rule {
        let me = |c: CoreId| self.table.me()[c.index()];
        let reads = |c: CoreId| pending[c.index()].max(1);
        if self.priority(winner, pending) == self.priority(beaten, pending) {
            Rule::RandomTie
        } else if me(winner) == me(beaten) {
            Rule::LreqCount
        } else if reads(winner) == reads(beaten) {
            Rule::MeRank
        } else {
            Rule::MeLreqRatio
        }
    }

    fn update_profile(&mut self, me: &[f64]) {
        assert_eq!(me.len(), self.table.cores(), "profile must cover all cores");
        self.table = PriorityTable::new(me);
    }

    fn state(&mut self, ar: &mut dyn Archive) -> Result<(), SnapError> {
        // `pick`: settled by `prepare` within each decision, dead between
        // decisions.
        let Self { table, rng, pick: _ } = self;
        // The table is walked entry-by-entry (not as the ME vector it was
        // built from) so online-updated and ablation (linear-quantized)
        // tables restore exactly.
        table.state(ar)?;
        let mut words = rng.state();
        words.iter_mut().try_for_each(|w| ar.u64(w))?;
        if ar.loading() {
            *rng = SmallRng::from_state(words);
        }
        Ok(())
    }
}

/// Start-time fair queueing over memory service (Nesbit et al., MICRO'06
/// style).
///
/// Classic SFQ bookkeeping: each core has a per-flow virtual finish time
/// `vt[i]`; a request's *start tag* is `max(vt[i], V)` where `V` is the
/// global virtual clock (the start tag of the last grant). The core with
/// the smallest start tag wins, and the winner's flow clock advances by
/// `QUANTUM / share`, so long-term every core receives its share of
/// memory service regardless of demand. The `max(·, V)` is what prevents
/// a long-idle core from monopolizing the bus with its stale clock when
/// it returns.
#[derive(Debug, Clone)]
pub struct FairQueueing {
    /// Per-core virtual finish times (in service quanta).
    virtual_time: Vec<u64>,
    /// Global virtual clock: start tag of the most recent grant.
    global_vt: u64,
    /// Per-core service shares (relative weights; equal by default).
    share: Vec<u32>,
}

impl FairQueueing {
    /// Equal-share fair queueing over `cores` cores.
    pub fn new(cores: usize) -> Self {
        assert!(cores > 0, "need at least one core");
        Self::with_shares(vec![1; cores])
    }

    /// Weighted shares (e.g. QoS classes). `share[i] = 2` gives core `i`
    /// twice the memory service of a `share = 1` core under contention.
    pub fn with_shares(shares: Vec<u32>) -> Self {
        assert!(!shares.is_empty(), "need at least one core");
        assert!(shares.iter().all(|&s| s > 0), "shares must be positive");
        FairQueueing { virtual_time: vec![0; shares.len()], global_vt: 0, share: shares }
    }

    /// A core's virtual clock (test/diagnostic access).
    pub fn virtual_time(&self, core: CoreId) -> u64 {
        self.virtual_time[core.index()]
    }

    #[inline]
    fn start_tag(&self, core: CoreId) -> u64 {
        self.virtual_time[core.index()].max(self.global_vt)
    }
}

/// Service quantum charged per granted request, scaled by 1/share.
const QUANTUM: u64 = 64;

impl SchedulerPolicy for FairQueueing {
    fn name(&self) -> &'static str {
        "FQ"
    }

    fn core_key(&self, core: CoreId, _pending: &[u32]) -> (u64, u16) {
        (self.start_tag(core), core.0)
    }

    fn core_rule(&self, _winner: CoreId, _beaten: CoreId, _pending: &[u32]) -> Rule {
        Rule::FqStartTag
    }

    fn note_grant(&mut self, granted: &Candidate) {
        let i = granted.core.index();
        let start = self.start_tag(granted.core);
        self.global_vt = start;
        self.virtual_time[i] = start + QUANTUM / self.share[i] as u64;
    }

    fn state(&mut self, ar: &mut dyn Archive) -> Result<(), SnapError> {
        // `share`: construction weights, identical across snapshot peers.
        let Self { virtual_time, global_vt, share: _ } = self;
        ar.len(virtual_time.len(), SnapError::Invalid("fair-queueing core count mismatch"))?;
        virtual_time.iter_mut().try_for_each(|vt| ar.u64(vt))?;
        ar.u64(global_vt)
    }
}

/// Stall-time-fairness heuristic (Mutlu & Moscibroda, MICRO'07 style).
///
/// The controller cannot see core stall cycles directly, but a request's
/// queueing delay is the memory-side component of the extra stall its
/// core suffers from sharing. This policy serves the core whose
/// *accumulated queueing-delay debt* is largest, decaying the debt on
/// service so the measure tracks the recent past.
#[derive(Debug, Clone)]
pub struct StallTimeFair {
    debt: Vec<f64>,
    last_now: Cycle,
}

impl StallTimeFair {
    /// A balancer over `cores` cores.
    pub fn new(cores: usize) -> Self {
        assert!(cores > 0, "need at least one core");
        StallTimeFair { debt: vec![0.0; cores], last_now: 0 }
    }

    /// A core's current delay debt (test/diagnostic access).
    pub fn debt(&self, core: CoreId) -> f64 {
        self.debt[core.index()]
    }

    /// Accrue queueing delay: each core's debt grows with its pending
    /// read count per cycle (total waiting ≈ Σ queue residence).
    pub fn accrue(&mut self, pending: &[u32], now: Cycle) {
        let dt = now.saturating_sub(self.last_now) as f64;
        self.last_now = now;
        for (d, &p) in self.debt.iter_mut().zip(pending) {
            *d += dt * p as f64;
        }
    }
}

impl SchedulerPolicy for StallTimeFair {
    fn name(&self) -> &'static str {
        "STF"
    }

    /// Largest debt first: debts are finite and never negative, so their
    /// bit patterns order as the values do.
    fn core_key(&self, core: CoreId, _pending: &[u32]) -> (u64, u16) {
        (!self.debt[core.index()].to_bits(), core.0)
    }

    /// A decision is the accrual tick too (dt = 1 grant epoch).
    fn prepare(&mut self, _cands: &[Candidate], pending: &[u32]) {
        self.accrue(pending, self.last_now + 1);
    }

    fn core_rule(&self, _winner: CoreId, _beaten: CoreId, _pending: &[u32]) -> Rule {
        Rule::StfDebt
    }

    fn note_grant(&mut self, granted: &Candidate) {
        // Serving a request repays part of the core's debt.
        let i = granted.core.index();
        self.debt[i] = (self.debt[i] - QUANTUM as f64).max(0.0);
    }

    fn state(&mut self, ar: &mut dyn Archive) -> Result<(), SnapError> {
        let Self { debt, last_now } = self;
        ar.len(debt.len(), SnapError::Invalid("stall-time-fair core count mismatch"))?;
        debt.iter_mut().try_for_each(|d| ar.f64(d))?;
        ar.u64(last_now)
    }
}

/// BLISS-style blacklisting scheduler (Subramanian et al., see PAPERS.md).
///
/// A core granted too many *consecutive* requests is blacklisted, and the
/// blacklist is cleared every `clear_interval` grants so no core is
/// penalized forever. The core key is the single blacklist bit, so equal
/// cores compete request against request — application awareness reduced
/// to one bit is the point of BLISS (simple interference control without
/// per-core ranking hardware).
#[derive(Debug, Clone)]
pub struct Bliss {
    /// Per-core blacklist bit.
    blacklisted: Vec<bool>,
    /// Core granted most recently (the streak owner).
    last_core: Option<CoreId>,
    /// Length of the current consecutive-grant streak.
    streak: u32,
    /// Grants since the blacklist was last cleared.
    grants_since_clear: u64,
    threshold: u32,
    clear_interval: u64,
}

impl Bliss {
    /// Blacklisting threshold used when none is given (the BLISS paper's
    /// "blacklisting threshold" of 4 consecutive requests).
    pub const DEFAULT_THRESHOLD: u32 = 4;
    /// Default clearing interval, in grants.
    pub const DEFAULT_CLEAR_INTERVAL: u64 = 10_000;

    /// A blacklisting scheduler over `cores` cores.
    ///
    /// # Panics
    /// Panics when `cores` is zero, `threshold` is zero, or
    /// `clear_interval` is zero.
    pub fn new(cores: usize, threshold: u32, clear_interval: u64) -> Self {
        assert!(cores > 0, "need at least one core");
        assert!(threshold > 0, "blacklist threshold must be positive");
        assert!(clear_interval > 0, "clear interval must be positive");
        Bliss {
            blacklisted: vec![false; cores],
            last_core: None,
            streak: 0,
            grants_since_clear: 0,
            threshold,
            clear_interval,
        }
    }

    /// Whether `core` is currently blacklisted (test/diagnostic access).
    pub fn is_blacklisted(&self, core: CoreId) -> bool {
        self.blacklisted[core.index()]
    }
}

impl SchedulerPolicy for Bliss {
    fn name(&self) -> &'static str {
        "BLISS"
    }

    fn core_key(&self, core: CoreId, _pending: &[u32]) -> (u64, u16) {
        (u64::from(self.blacklisted[core.index()]), 0)
    }

    fn core_rule(&self, _winner: CoreId, _beaten: CoreId, _pending: &[u32]) -> Rule {
        Rule::BlissBlacklist
    }

    fn note_grant(&mut self, granted: &Candidate) {
        if self.last_core == Some(granted.core) {
            self.streak += 1;
        } else {
            self.last_core = Some(granted.core);
            self.streak = 1;
        }
        if self.streak >= self.threshold {
            self.blacklisted[granted.core.index()] = true;
        }
        self.grants_since_clear += 1;
        if self.grants_since_clear >= self.clear_interval {
            self.blacklisted.iter_mut().for_each(|b| *b = false);
            self.grants_since_clear = 0;
        }
    }

    fn params(&self) -> Vec<(&'static str, u64)> {
        vec![("threshold", u64::from(self.threshold)), ("clear", self.clear_interval)]
    }

    fn state(&mut self, ar: &mut dyn Archive) -> Result<(), SnapError> {
        // `threshold`, `clear_interval`: construction parameters, identical
        // across snapshot peers.
        let Self {
            blacklisted,
            last_core,
            streak,
            grants_since_clear,
            threshold: _,
            clear_interval: _,
        } = self;
        let cores = blacklisted.len();
        ar.len(cores, SnapError::Invalid("bliss core count mismatch"))?;
        blacklisted.iter_mut().try_for_each(|b| ar.bool(b))?;
        let mut last = last_core.map(|c| u64::from(c.0));
        ar.opt_u64(&mut last)?;
        let in_range = |raw| u16::try_from(raw).ok().filter(|&c| usize::from(c) < cores);
        let out_of_range = SnapError::Invalid("bliss last core out of range");
        *last_core = last.map(|raw| in_range(raw).map(CoreId).ok_or(out_of_range)).transpose()?;
        ar.u32(streak)?;
        ar.u64(grants_since_clear)
    }
}

/// TCM-style two-cluster scheduler (Kim et al., thread cluster memory
/// scheduling).
///
/// Every `quantum` grants the cores are re-clustered by their read counts
/// over the elapsed quantum: cores at or below the mean form the
/// latency-sensitive cluster and outrank the bandwidth-sensitive rest,
/// whose internal order rotates each quantum (TCM's "niceness shuffle")
/// so no heavy core is permanently last. The core key is the resulting
/// rank, ties to the lower core id.
#[derive(Debug, Clone)]
pub struct TcmCluster {
    /// Reads granted per core during the current quantum.
    interval_reads: Vec<u64>,
    /// Grants observed in the current quantum.
    grants_in_quantum: u64,
    /// `rank[core]` — 0 is the highest priority.
    rank: Vec<u32>,
    /// Monotone shuffle counter rotating the bandwidth cluster's order.
    shuffle: u64,
    quantum: u64,
}

impl TcmCluster {
    /// Clustering quantum used when none is given, in grants.
    pub const DEFAULT_QUANTUM: u64 = 2_000;

    /// A two-cluster scheduler over `cores` cores.
    ///
    /// # Panics
    /// Panics when `cores` is zero or `quantum` is zero.
    pub fn new(cores: usize, quantum: u64) -> Self {
        assert!(cores > 0, "need at least one core");
        assert!(quantum > 0, "clustering quantum must be positive");
        TcmCluster {
            interval_reads: vec![0; cores],
            grants_in_quantum: 0,
            rank: vec![0; cores],
            shuffle: 0,
            quantum,
        }
    }

    /// The current rank vector (`rank[core]`, 0 = highest; test access).
    pub fn ranks(&self) -> &[u32] {
        &self.rank
    }

    /// Recompute the clustering from this quantum's read counts.
    fn recluster(&mut self) {
        self.rank = Self::rank_from_interval(&self.interval_reads, self.shuffle);
        self.shuffle += 1;
        self.interval_reads.iter_mut().for_each(|r| *r = 0);
        self.grants_in_quantum = 0;
    }

    /// The pure clustering function: cores at or below the mean read
    /// count form the latency cluster (ranked by ascending reads, ties
    /// to the lower id); the bandwidth cluster follows, its ascending
    /// order rotated by `shuffle` positions.
    fn rank_from_interval(interval_reads: &[u64], shuffle: u64) -> Vec<u32> {
        let cores = interval_reads.len();
        let total: u64 = interval_reads.iter().sum();
        let mean = total / cores as u64;
        let mut latency: Vec<usize> = (0..cores).filter(|&c| interval_reads[c] <= mean).collect();
        let mut bandwidth: Vec<usize> = (0..cores).filter(|&c| interval_reads[c] > mean).collect();
        latency.sort_by_key(|&c| (interval_reads[c], c));
        bandwidth.sort_by_key(|&c| (interval_reads[c], c));
        if !bandwidth.is_empty() {
            let by = usize::try_from(shuffle % bandwidth.len() as u64).expect("rotation < len");
            bandwidth.rotate_left(by);
        }
        let mut rank = vec![0u32; cores];
        for (pos, &core) in latency.iter().chain(bandwidth.iter()).enumerate() {
            rank[core] = u32::try_from(pos).expect("core count fits u32");
        }
        rank
    }
}

impl SchedulerPolicy for TcmCluster {
    fn name(&self) -> &'static str {
        "TCM"
    }

    fn core_key(&self, core: CoreId, _pending: &[u32]) -> (u64, u16) {
        (u64::from(self.rank[core.index()]), core.0)
    }

    fn core_rule(&self, _winner: CoreId, _beaten: CoreId, _pending: &[u32]) -> Rule {
        Rule::TcmCluster
    }

    fn note_grant(&mut self, granted: &Candidate) {
        self.interval_reads[granted.core.index()] += 1;
        self.grants_in_quantum += 1;
        if self.grants_in_quantum >= self.quantum {
            self.recluster();
        }
    }

    fn params(&self) -> Vec<(&'static str, u64)> {
        vec![("quantum", self.quantum)]
    }

    fn state(&mut self, ar: &mut dyn Archive) -> Result<(), SnapError> {
        // `quantum`: construction parameter, identical across snapshot peers.
        let Self { interval_reads, grants_in_quantum, rank, shuffle, quantum: _ } = self;
        ar.len(interval_reads.len(), SnapError::Invalid("tcm core count mismatch"))?;
        interval_reads.iter_mut().try_for_each(|r| ar.u64(r))?;
        ar.u64(grants_in_quantum)?;
        ar.len(rank.len(), SnapError::Invalid("tcm rank count mismatch"))?;
        let cores = u32::try_from(rank.len())
            .map_err(|_| SnapError::Invalid("tcm core count out of range"))?;
        for r in rank.iter_mut() {
            ar.u32(r)?;
            ar.ensure(*r < cores, SnapError::Invalid("tcm rank out of range"))?;
        }
        ar.u64(shuffle)
    }
}

/// Configuration-level identification of a policy; builds the boxed
/// implementation for a concrete workload. Every variant is one row of
/// [`crate::registry`](mod@crate::registry), which holds its names and
/// flags.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyKind {
    /// First-come first-serve, no read bypass.
    Fcfs,
    /// FCFS with reads bypassing writes.
    FcfsRf,
    /// Hit-First + Read-First (the paper's baseline).
    HfRf,
    /// Round-Robin over cores.
    RoundRobin,
    /// Least-Request.
    Lreq,
    /// Fixed priority by profiled memory efficiency.
    Me,
    /// The paper's contribution.
    MeLreq,
    /// ME-LREQ with **online** memory-efficiency estimation — the
    /// paper's stated future work. No off-line profile is needed: the
    /// system measures each core's committed instructions and DRAM bytes
    /// every `epoch_cycles` and refreshes the priority tables with an
    /// exponentially weighted estimate.
    MeLreqOnline {
        /// Re-estimation period in CPU cycles.
        epoch_cycles: u64,
    },
    /// Figure 3's straw-man fixed priorities, sized to the system at
    /// [`PolicyKind::build`]: ascending core id (FIX-0123) or descending
    /// (FIX-3210).
    Fixed {
        /// Whether the highest core id is the most favoured.
        descending: bool,
    },
    /// Start-time fair queueing over memory service ([`FairQueueing`]).
    Fq,
    /// Stall-time-fairness heuristic ([`StallTimeFair`]).
    Stf,
    /// BLISS blacklisting ([`Bliss`]): cores granted too many
    /// consecutive requests are blacklisted until the next periodic
    /// clearing.
    Bliss {
        /// Consecutive grants at which a core is blacklisted.
        threshold: u32,
        /// Grants between blacklist clearings.
        clear_interval: u64,
    },
    /// TCM-style two-cluster scheduling ([`TcmCluster`]):
    /// latency-sensitive cores (few reads per quantum) outrank
    /// bandwidth-sensitive ones, whose intra-cluster order is
    /// periodically shuffled.
    TcmCluster {
        /// Grants per clustering quantum.
        quantum: u64,
    },
}

impl PolicyKind {
    /// Display name matching the paper's shorthand.
    pub fn name(&self) -> &'static str {
        crate::registry::descriptor_of(self).display
    }

    /// Instantiate for a system of `cores` cores whose profiled
    /// memory-efficiency values are `me` (ignored by ME-oblivious
    /// policies); `seed` feeds ME-LREQ's tie-breaker.
    pub fn build(&self, me: &[f64], cores: usize, seed: u64) -> Box<dyn SchedulerPolicy> {
        assert!(me.len() == cores, "one ME value per core required");
        match self {
            PolicyKind::Fcfs => Box::new(Fcfs),
            PolicyKind::FcfsRf => Box::new(FcfsRf),
            PolicyKind::HfRf => Box::new(HitFirst),
            PolicyKind::RoundRobin => Box::new(RoundRobin::new(cores)),
            PolicyKind::Lreq => Box::new(LeastRequest),
            PolicyKind::Me => Box::new(FixedPriority::from_memory_efficiency(me)),
            PolicyKind::MeLreq => Box::new(MeLreq::new(me, seed)),
            // The online variant starts from a flat (uninformative)
            // profile; the system refreshes it at run time.
            PolicyKind::MeLreqOnline { .. } => Box::new(MeLreq::new(&vec![1.0; cores], seed)),
            PolicyKind::Fixed { descending } => {
                let mut order: Vec<usize> = (0..cores).collect();
                if *descending {
                    order.reverse();
                }
                Box::new(FixedPriority::from_order(self.name(), &order))
            }
            PolicyKind::Fq => Box::new(FairQueueing::new(cores)),
            PolicyKind::Stf => Box::new(StallTimeFair::new(cores)),
            PolicyKind::Bliss { threshold, clear_interval } => {
                Box::new(Bliss::new(cores, *threshold, *clear_interval))
            }
            PolicyKind::TcmCluster { quantum } => Box::new(TcmCluster::new(cores, *quantum)),
        }
    }

    /// The five schemes compared in Figure 2, in the paper's order — what
    /// `compare` runs when no explicit policy set is given.
    pub fn figure2_set() -> Vec<PolicyKind> {
        let mut figured: Vec<_> =
            crate::registry::registry().iter().filter(|d| d.paper_figure.is_some()).collect();
        figured.sort_by_key(|d| d.paper_figure);
        figured.iter().map(|d| d.default_kind()).collect()
    }

    /// The four schemes compared in Figure 3: HF-RF, ME and the two
    /// straw-man fixed priorities.
    pub fn figure3_set() -> Vec<PolicyKind> {
        vec![
            PolicyKind::HfRf,
            PolicyKind::Me,
            PolicyKind::Fixed { descending: true },
            PolicyKind::Fixed { descending: false },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(id: u64, core: u16, hit: bool) -> Candidate {
        Candidate { id: ReqId(id), core: CoreId(core), row_hit: hit }
    }

    /// `explain` for the candidate with id `chosen`, the runner-up as a
    /// candidate rather than an index.
    fn why(
        p: &dyn SchedulerPolicy,
        cands: &[Candidate],
        pending: &[u32],
        chosen: u64,
    ) -> (Rule, Option<Candidate>) {
        let at = cands.iter().position(|c| c.id.0 == chosen).expect("chosen is a candidate");
        let (rule, beaten) = p.explain(cands, pending, at);
        (rule, beaten.map(|i| cands[i]))
    }

    #[test]
    fn fcfs_picks_oldest_regardless_of_hits() {
        let mut p = Fcfs;
        let cands = [cand(5, 0, true), cand(2, 1, false), cand(9, 0, true)];
        assert_eq!(p.select(&cands, &[2, 1]), 1);
        let (rule, ru) = why(&p, &cands, &[2, 1], 2);
        assert_eq!((rule, ru.map(|c| c.id.0)), (Rule::FcfsTiebreak, Some(5)));
    }

    #[test]
    fn hit_first_prefers_hits_then_age() {
        let mut p = HitFirst;
        let cands = [cand(1, 0, false), cand(7, 1, true), cand(5, 1, true)];
        assert_eq!(p.select(&cands, &[1, 2]), 2);
        let cands = [cand(3, 0, false), cand(8, 1, false)];
        assert_eq!(p.select(&cands, &[1, 1]), 0);
    }

    #[test]
    fn hit_first_attributes_hit_vs_age() {
        // Hit id 5 beats miss id 2 → row-hit-first.
        let cands = [cand(5, 0, true), cand(2, 1, false)];
        let (rule, ru) = why(&HitFirst, &cands, &[1, 1], 5);
        assert_eq!((rule, ru.map(|c| c.id.0)), (Rule::RowHitFirst, Some(2)));
        // Both hits: age decided.
        let cands = [cand(1, 0, true), cand(4, 1, true)];
        assert_eq!(why(&HitFirst, &cands, &[1, 1], 1).0, Rule::FcfsTiebreak);
    }

    #[test]
    fn explain_on_a_lone_candidate_names_no_contest() {
        let cands = [cand(3, 0, true)];
        assert_eq!(HitFirst.explain(&cands, &[1, 0], 0), (Rule::OnlyCandidate, None));
        assert_eq!(MeLreq::new(&[4.0, 2.0], 1).explain(&cands, &[1, 0], 0).0, Rule::OnlyCandidate);
    }

    #[test]
    fn round_robin_rotates() {
        let mut p = RoundRobin::new(4);
        let cands = [cand(0, 0, false), cand(1, 1, false), cand(2, 3, false)];
        let i = p.select(&cands, &[1, 1, 0, 1]);
        assert_eq!(cands[i].core, CoreId(0));
        p.note_grant(&cands[i]);
        let i = p.select(&cands, &[1, 1, 0, 1]);
        assert_eq!(cands[i].core, CoreId(1));
        p.note_grant(&cands[i]);
        // Core 2 has no candidate: skip to core 3.
        let i = p.select(&cands, &[1, 1, 0, 1]);
        assert_eq!(cands[i].core, CoreId(3));
        p.note_grant(&cands[i]);
        let i = p.select(&cands, &[1, 1, 0, 1]);
        assert_eq!(cands[i].core, CoreId(0));
    }

    #[test]
    fn round_robin_attributes_rotation() {
        let mut p = RoundRobin::new(4);
        p.note_grant(&cand(9, 1, false)); // pointer now at core 2
        let cands = [cand(0, 2, false), cand(1, 0, false)];
        let (rule, ru) = why(&p, &cands, &[1, 0, 1, 0], 0);
        assert_eq!((rule, ru.map(|c| c.core)), (Rule::RoundRobin, Some(CoreId(0))));
    }

    #[test]
    fn lreq_prefers_fewest_pending_reads() {
        let mut p = LeastRequest;
        let cands = [cand(0, 0, true), cand(1, 1, false)];
        // Core 1 has fewer pending reads: its miss beats core 0's hit.
        assert_eq!(p.select(&cands, &[10, 2]), 1);
    }

    #[test]
    fn lreq_uses_hit_first_within_core() {
        let mut p = LeastRequest;
        let cands = [cand(0, 0, false), cand(3, 0, true), cand(9, 1, true)];
        let i = p.select(&cands, &[2, 5]);
        assert_eq!(i, 1); // core 0 wins, its hit beats its older miss
    }

    #[test]
    fn lreq_attributes_pending_counts() {
        let cands = [cand(9, 0, false), cand(1, 1, true)];
        // Core 0 wins with fewer pending reads despite older hit on 1.
        let (rule, ru) = why(&LeastRequest, &cands, &[1, 6], 9);
        assert_eq!((rule, ru.map(|c| c.core)), (Rule::LreqCount, Some(CoreId(1))));
    }

    #[test]
    fn same_core_contests_ignore_the_core_key() {
        let cands = [cand(5, 0, true), cand(2, 0, false)];
        let (rule, ru) = why(&LeastRequest, &cands, &[2, 0], 5);
        assert_eq!((rule, ru.map(|c| c.id.0)), (Rule::RowHitFirst, Some(2)));
    }

    #[test]
    fn fixed_priority_orders_cores() {
        let mut p = FixedPriority::from_order("FIX-3210", &[3, 2, 1, 0]);
        let cands = [cand(0, 0, true), cand(1, 2, false)];
        assert_eq!(cands[p.select(&cands, &[1, 0, 1, 0])].core, CoreId(2));
    }

    #[test]
    fn me_scheme_ranks_by_descending_me() {
        let me = [2.0, 40.0, 1.0, 15.0]; // core 1 best, then 3, 0, 2
        let mut p = FixedPriority::from_memory_efficiency(&me);
        assert_eq!(p.ranks(), &[2, 0, 3, 1]);
        assert_eq!(p.name(), "ME");
        let cands = [cand(0, 0, true), cand(1, 3, false)];
        assert_eq!(cands[p.select(&cands, &[1, 0, 0, 1])].core, CoreId(3));
    }

    #[test]
    fn me_scheme_attributes_rank() {
        let p = FixedPriority::from_memory_efficiency(&[2.0, 40.0]);
        let cands = [cand(8, 1, false), cand(1, 0, true)];
        let (rule, ru) = why(&p, &cands, &[1, 1], 8);
        assert_eq!((rule, ru.map(|c| c.core)), (Rule::MeRank, Some(CoreId(0))));
    }

    #[test]
    #[should_panic(expected = "listed twice")]
    fn fixed_priority_rejects_duplicates() {
        let _ = FixedPriority::from_order("bad", &[0, 0]);
    }

    #[test]
    fn fixed_kinds_size_to_the_system_at_build() {
        for cores in [2usize, 4, 8] {
            let me = vec![1.0; cores];
            let pending = vec![1; cores];
            let cands: Vec<Candidate> =
                (0u16..).take(cores).map(|c| cand(u64::from(c), c, false)).collect();
            let mut up = PolicyKind::Fixed { descending: false }.build(&me, cores, 1);
            let mut down = PolicyKind::Fixed { descending: true }.build(&me, cores, 1);
            assert_eq!((up.name(), down.name()), ("FIX-0123", "FIX-3210"));
            assert_eq!(up.select(&cands, &pending), 0, "{cores} cores: core 0 first");
            assert_eq!(down.select(&cands, &pending), cores - 1, "{cores} cores: last core first");
        }
    }

    #[test]
    fn me_lreq_combines_me_and_pending() {
        // Core 0: ME 16, core 1: ME 4. With 8x the pending reads, core 0's
        // ratio 16/8=2 loses to core 1's 4/1=4.
        let mut p = MeLreq::new(&[16.0, 4.0], 42);
        let cands = [cand(0, 0, true), cand(1, 1, false)];
        assert_eq!(cands[p.select(&cands, &[8, 1])].core, CoreId(1));
        // At equal pending, higher ME wins.
        assert_eq!(cands[p.select(&cands, &[2, 2])].core, CoreId(0));
    }

    #[test]
    fn me_lreq_splits_attribution_between_terms() {
        let p = MeLreq::new(&[16.0, 4.0], 42);
        let cands = [cand(0, 0, true), cand(1, 1, false)];
        // Equal pending → the ME term decided.
        assert_eq!(why(&p, &cands, &[2, 2], 0).0, Rule::MeRank);
        // Core 0's ratio 16/8 loses to core 1's 4/1 → ratio attribution
        // for core 1's win (both terms differ).
        let (rule, ru) = why(&p, &cands, &[8, 1], 1);
        assert_eq!((rule, ru.map(|c| c.core)), (Rule::MeLreqRatio, Some(CoreId(0))));
        // Equal ME collapses to least-request.
        let p = MeLreq::new(&[8.0, 8.0], 42);
        assert_eq!(why(&p, &cands, &[5, 1], 1).0, Rule::LreqCount);
        // Identical quantized priority → the RNG must have picked.
        assert_eq!(why(&p, &cands, &[3, 3], 0).0, Rule::RandomTie);
    }

    #[test]
    fn me_lreq_tie_break_is_random_but_seeded() {
        let me = [8.0, 8.0];
        let cands = [cand(0, 0, false), cand(1, 1, false)];
        let picks = |seed: u64| -> Vec<u16> {
            let mut p = MeLreq::new(&me, seed);
            (0..32).map(|_| cands[p.select(&cands, &[2, 2])].core.0).collect()
        };
        let a = picks(1);
        let b = picks(1);
        assert_eq!(a, b, "same seed must reproduce");
        // Both cores get picked over 32 tie-breaks.
        assert!(a.contains(&0) && a.contains(&1), "tie-break should mix cores: {a:?}");
    }

    #[test]
    fn me_lreq_draws_once_per_tie_and_never_otherwise() {
        let seed = 7;
        let mut p = MeLreq::new(&[8.0, 8.0, 8.0, 1.0], seed);
        let mut reference = SmallRng::seed_from_u64(seed);
        // Several requests per core must not multiply the draws.
        let cands = [
            cand(0, 2, false),
            cand(1, 0, true),
            cand(2, 1, false),
            cand(3, 2, true),
            cand(4, 3, false),
        ];
        // A unique best (core 1 has the fewest pending reads): no draw.
        let i = p.select(&cands, &[3, 1, 3, 1]);
        assert_eq!(cands[i].core, CoreId(1));
        assert_eq!(p.rng.state(), reference.state(), "a unique best must not consume the RNG");
        // Three cores tied at the best value: exactly one draw, over the
        // tied cores in candidate order (2, 0, 1).
        let i = p.select(&cands, &[3, 3, 3, 1]);
        let tied = [2u16, 0, 1];
        let expect = tied[reference.gen_range(0..tied.len())];
        assert_eq!(cands[i].core.0, expect);
        assert_eq!(p.rng.state(), reference.state(), "a tie consumes exactly one draw");
        // `explain` reads the pick `select` settled and draws nothing:
        // core 2's hit beat its own older miss, any other winner a tied core.
        let (rule, _) = p.explain(&cands, &[3, 3, 3, 1], i);
        assert_eq!(rule, if expect == 2 { Rule::RowHitFirst } else { Rule::RandomTie });
        assert_eq!(p.rng.state(), reference.state(), "explain must not touch the RNG");
    }

    #[test]
    fn update_profile_changes_me_lreq_decisions() {
        // Start with core 0 favoured, then flip the profile: the same
        // candidate set must switch winners.
        let mut p = MeLreq::new(&[100.0, 1.0], 3);
        let cands = [cand(0, 0, false), cand(1, 1, false)];
        assert_eq!(cands[p.select(&cands, &[2, 2])].core, CoreId(0));
        p.update_profile(&[1.0, 100.0]);
        assert_eq!(cands[p.select(&cands, &[2, 2])].core, CoreId(1));
    }

    #[test]
    fn update_profile_is_noop_for_oblivious_policies() {
        let mut p = HitFirst;
        p.update_profile(&[5.0, 1.0]);
        let cands = [cand(3, 0, false), cand(1, 1, false)];
        assert_eq!(p.select(&cands, &[1, 1]), 1, "HF-RF still picks the oldest");
    }

    #[test]
    fn online_variant_builds_with_flat_profile() {
        let kind = PolicyKind::MeLreqOnline { epoch_cycles: 1000 };
        let me = [7.0, 3.0]; // must be ignored at build time
        let mut p = kind.build(&me, 2, 5);
        // With a flat internal profile, the core with fewer pending reads
        // wins (least-request degeneration), not the higher-ME core.
        let cands = [cand(0, 0, false), cand(1, 1, false)];
        assert_eq!(cands[p.select(&cands, &[6, 1])].core, CoreId(1));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "profile must cover all cores")]
    fn update_profile_rejects_wrong_width() {
        let mut p = MeLreq::new(&[1.0, 2.0], 3);
        p.update_profile(&[1.0]);
    }

    #[test]
    fn policy_kind_names_and_read_first() {
        assert_eq!(PolicyKind::HfRf.name(), "HF-RF");
        assert_eq!(PolicyKind::MeLreq.name(), "ME-LREQ");
        assert_eq!(PolicyKind::MeLreqOnline { epoch_cycles: 100 }.name(), "ME-LREQ-ON");
        let read_first = |kind: PolicyKind| kind.build(&[1.0], 1, 0).read_first();
        assert!(!read_first(PolicyKind::Fcfs));
        assert!(read_first(PolicyKind::FcfsRf));
        assert!(read_first(PolicyKind::MeLreq));
        assert!(read_first(PolicyKind::MeLreqOnline { epoch_cycles: 100 }));
    }

    #[test]
    fn figure_sets_have_papers_schemes() {
        let names = |set: Vec<PolicyKind>| set.iter().map(PolicyKind::name).collect::<Vec<_>>();
        assert_eq!(names(PolicyKind::figure2_set()), ["HF-RF", "ME", "RR", "LREQ", "ME-LREQ"]);
        assert_eq!(names(PolicyKind::figure3_set()), ["HF-RF", "ME", "FIX-3210", "FIX-0123"]);
    }

    #[test]
    fn build_produces_named_policies() {
        let me = [1.0, 2.0];
        for kind in PolicyKind::figure2_set() {
            let p = kind.build(&me, 2, 7);
            assert_eq!(p.name(), kind.name());
        }
    }

    /// Run `n` decisions over `cands`, counting grants per core.
    fn serve(p: &mut dyn SchedulerPolicy, cands: &[Candidate], n: usize) -> [u32; 2] {
        let mut grants = [0u32; 2];
        for _ in 0..n {
            let i = p.select(cands, &[1, 1]);
            grants[cands[i].core.index()] += 1;
            p.note_grant(&cands[i]);
        }
        grants
    }

    #[test]
    fn fq_alternates_between_equal_cores() {
        let cands = [cand(0, 0, false), cand(1, 1, false)];
        let grants = serve(&mut FairQueueing::new(2), &cands, 10);
        assert_eq!(grants, [5, 5], "equal shares must split service evenly");
    }

    #[test]
    fn fq_respects_weighted_shares() {
        let cands = [cand(0, 0, false), cand(1, 1, false)];
        let grants = serve(&mut FairQueueing::with_shares(vec![2, 1]), &cands, 12);
        assert_eq!(grants, [8, 4], "2:1 shares must yield 2:1 service");
    }

    #[test]
    fn fq_idle_core_cannot_monopolize_on_return() {
        let mut p = FairQueueing::new(2);
        // Core 0 runs alone for a while.
        let solo = [cand(0, 0, false)];
        for _ in 0..100 {
            let i = p.select(&solo, &[1, 0]);
            p.note_grant(&solo[i]);
        }
        // Core 1 returns: it must not win 100 grants in a row; the
        // fast-forward clamps its deficit.
        let both = [cand(0, 0, false), cand(1, 1, false)];
        let mut core1_streak = 0;
        loop {
            let i = p.select(&both, &[1, 1]);
            if both[i].core == CoreId(1) {
                core1_streak += 1;
                p.note_grant(&both[i]);
            } else {
                break;
            }
            assert!(core1_streak < 5, "returning core monopolized the bus");
        }
    }

    #[test]
    fn fq_uses_hit_first_within_core() {
        let mut p = FairQueueing::new(1);
        let cands = [cand(0, 0, false), cand(3, 0, true)];
        assert_eq!(p.select(&cands, &[2]), 1);
    }

    #[test]
    fn fq_attributes_start_tag() {
        let mut p = FairQueueing::new(2);
        p.note_grant(&cand(0, 0, false)); // core 0's clock runs ahead
        let cands = [cand(1, 0, true), cand(2, 1, false)];
        assert_eq!(p.select(&cands, &[1, 1]), 1);
        let (rule, ru) = why(&p, &cands, &[1, 1], 2);
        assert_eq!((rule, ru.map(|c| c.core)), (Rule::FqStartTag, Some(CoreId(0))));
        // Equal tags: the lower core id goes first, still the core key.
        let q = FairQueueing::new(2);
        assert_eq!(why(&q, &cands, &[1, 1], 1).0, Rule::FqStartTag);
    }

    #[test]
    fn stf_prefers_the_most_delayed_core() {
        let mut p = StallTimeFair::new(2);
        // Core 1 has had 10 pending reads queued for 100 cycles.
        p.accrue(&[1, 10], 100);
        let cands = [cand(0, 0, false), cand(1, 1, false)];
        assert_eq!(cands[p.select(&cands, &[1, 10])].core, CoreId(1));
        assert!(p.debt(CoreId(1)) > p.debt(CoreId(0)));
        let (rule, ru) = why(&p, &cands, &[1, 10], 1);
        assert_eq!((rule, ru.map(|c| c.core)), (Rule::StfDebt, Some(CoreId(0))));
    }

    #[test]
    fn stf_debt_decays_with_service() {
        let mut p = StallTimeFair::new(2);
        p.accrue(&[0, 2], 100);
        let before = p.debt(CoreId(1));
        p.note_grant(&cand(0, 1, false));
        assert!(p.debt(CoreId(1)) < before);
        assert!(p.debt(CoreId(1)) >= 0.0);
    }

    #[test]
    fn fq_snapshot_round_trips() {
        let mut p = FairQueueing::with_shares(vec![2, 1]);
        let cands = [cand(0, 0, false), cand(1, 1, false)];
        serve(&mut p, &cands, 7);
        let bytes = melreq_snap::Enc::save(|enc| p.state(enc));
        let mut q = FairQueueing::with_shares(vec![2, 1]);
        let mut dec = melreq_snap::Dec::new(&bytes);
        q.state(&mut dec).expect("load");
        assert!(dec.is_exhausted(), "trailing bytes after fq state");
        assert_eq!(p.virtual_time(CoreId(0)), q.virtual_time(CoreId(0)));
        assert_eq!(p.select(&cands, &[1, 1]), q.select(&cands, &[1, 1]));
    }

    #[test]
    fn stf_snapshot_round_trips() {
        let mut p = StallTimeFair::new(2);
        p.accrue(&[3, 1], 250);
        p.note_grant(&cand(0, 0, false));
        let bytes = melreq_snap::Enc::save(|enc| p.state(enc));
        let mut q = StallTimeFair::new(2);
        q.state(&mut melreq_snap::Dec::new(&bytes)).expect("load");
        assert_eq!(p.debt(CoreId(0)).to_bits(), q.debt(CoreId(0)).to_bits());
        assert_eq!(p.debt(CoreId(1)).to_bits(), q.debt(CoreId(1)).to_bits());
        let cands = [cand(5, 0, false), cand(6, 1, false)];
        assert_eq!(p.select(&cands, &[1, 1]), q.select(&cands, &[1, 1]));
    }

    #[test]
    fn bliss_blacklists_after_consecutive_grants() {
        let mut p = Bliss::new(2, 3, 1000);
        let hog = cand(0, 0, false);
        for _ in 0..3 {
            p.note_grant(&hog);
        }
        assert!(p.is_blacklisted(CoreId(0)));
        assert!(!p.is_blacklisted(CoreId(1)));
        // A blacklisted core's hit loses to a clean core's miss.
        let cands = [cand(1, 0, true), cand(5, 1, false)];
        assert_eq!(cands[p.select(&cands, &[2, 1])].core, CoreId(1));
    }

    #[test]
    fn bliss_attributes_blacklist_and_falls_back_to_hit_order() {
        let mut p = Bliss::new(2, 1, 1000);
        let cands = [cand(0, 0, true), cand(1, 1, false)];
        // Nobody blacklisted: the row buffer decided.
        assert_eq!(why(&p, &cands, &[1, 1], 0).0, Rule::RowHitFirst);
        // Core 1's miss beats blacklisted core 0's older hit.
        p.note_grant(&cand(9, 0, false));
        let (rule, ru) = why(&p, &cands, &[1, 1], 1);
        assert_eq!((rule, ru.map(|c| c.core)), (Rule::BlissBlacklist, Some(CoreId(0))));
    }

    #[test]
    fn bliss_streak_resets_on_interleaved_grants() {
        let mut p = Bliss::new(2, 3, 1000);
        p.note_grant(&cand(0, 0, false));
        p.note_grant(&cand(1, 0, false));
        p.note_grant(&cand(2, 1, false)); // breaks core 0's streak
        p.note_grant(&cand(3, 0, false));
        p.note_grant(&cand(4, 0, false));
        assert!(!p.is_blacklisted(CoreId(0)), "streak must reset on interleave");
        p.note_grant(&cand(5, 0, false));
        assert!(p.is_blacklisted(CoreId(0)));
    }

    #[test]
    fn bliss_clears_blacklist_periodically() {
        let mut p = Bliss::new(2, 2, 4);
        p.note_grant(&cand(0, 0, false));
        p.note_grant(&cand(1, 0, false));
        assert!(p.is_blacklisted(CoreId(0)));
        p.note_grant(&cand(2, 0, false));
        p.note_grant(&cand(3, 0, false)); // 4th grant: clearing boundary
        assert!(!p.is_blacklisted(CoreId(0)), "blacklist must clear at the interval");
    }

    #[test]
    fn bliss_falls_back_to_hit_first_oldest() {
        let mut p = Bliss::new(2, 4, 1000);
        let cands = [cand(4, 0, false), cand(7, 1, true), cand(2, 1, true)];
        // Nobody blacklisted: hit-first-then-oldest across all cores.
        assert_eq!(p.select(&cands, &[1, 2]), 2);
    }

    #[test]
    fn bliss_snapshot_round_trips() {
        let mut p = Bliss::new(2, 2, 100);
        for i in 0..5 {
            p.note_grant(&cand(i, 0, false));
        }
        let bytes = melreq_snap::Enc::save(|enc| p.state(enc));
        let mut q = Bliss::new(2, 2, 100);
        let mut dec = melreq_snap::Dec::new(&bytes);
        q.state(&mut dec).expect("load");
        assert!(dec.is_exhausted(), "trailing bytes after bliss state");
        let cands = [cand(10, 0, true), cand(11, 1, false)];
        assert_eq!(p.select(&cands, &[1, 1]), q.select(&cands, &[1, 1]));
        assert_eq!(p.is_blacklisted(CoreId(0)), q.is_blacklisted(CoreId(0)));
    }

    #[test]
    fn bliss_load_rejects_wrong_core_count() {
        let mut p = Bliss::new(4, 4, 100);
        let bytes = melreq_snap::Enc::save(|enc| p.state(enc));
        let mut q = Bliss::new(2, 4, 100);
        assert!(q.state(&mut melreq_snap::Dec::new(&bytes)).is_err());
    }

    #[test]
    fn tcm_starts_flat_and_prefers_lower_core_id() {
        let mut p = TcmCluster::new(2, 100);
        let cands = [cand(3, 1, false), cand(5, 0, false)];
        assert_eq!(cands[p.select(&cands, &[1, 1])].core, CoreId(0));
    }

    #[test]
    fn tcm_ranks_light_cores_above_heavy_ones() {
        let mut p = TcmCluster::new(2, 10);
        // Core 0 takes 9 of the 10 grants in the quantum.
        for i in 0..9 {
            p.note_grant(&cand(i, 0, false));
        }
        p.note_grant(&cand(9, 1, false)); // quantum boundary: recluster
        assert_eq!(p.ranks(), &[1, 0], "light core must outrank the heavy one");
        let cands = [cand(20, 0, true), cand(21, 1, false)];
        assert_eq!(cands[p.select(&cands, &[2, 1])].core, CoreId(1));
        let (rule, ru) = why(&p, &cands, &[2, 1], 21);
        assert_eq!((rule, ru.map(|c| c.core)), (Rule::TcmCluster, Some(CoreId(0))));
    }

    #[test]
    fn tcm_shuffles_the_bandwidth_cluster() {
        // Three heavy cores (above the mean) and one idle: the heavy
        // cluster's order rotates between quanta.
        let reads = [0u64, 10, 10, 10];
        let r0 = TcmCluster::rank_from_interval(&reads, 0);
        let r1 = TcmCluster::rank_from_interval(&reads, 1);
        let r2 = TcmCluster::rank_from_interval(&reads, 2);
        let r3 = TcmCluster::rank_from_interval(&reads, 3);
        assert_eq!(r0[0], 0, "idle core always leads");
        assert_ne!(r0, r1, "shuffle must rotate the bandwidth cluster");
        assert_eq!(r0, r3, "rotation has period = cluster size");
        assert_ne!(r1, r2);
    }

    #[test]
    fn tcm_snapshot_round_trips() {
        let mut p = TcmCluster::new(3, 7);
        for i in 0..17 {
            p.note_grant(&cand(i, u16::try_from(i % 2).expect("small"), false));
        }
        let bytes = melreq_snap::Enc::save(|enc| p.state(enc));
        let mut q = TcmCluster::new(3, 7);
        q.state(&mut melreq_snap::Dec::new(&bytes)).expect("load");
        assert_eq!(p.ranks(), q.ranks());
        let cands = [cand(30, 0, false), cand(31, 1, false), cand(32, 2, true)];
        assert_eq!(p.select(&cands, &[1, 1, 1]), q.select(&cands, &[1, 1, 1]));
    }

    #[test]
    fn grown_policies_report_names_and_params() {
        assert_eq!(FairQueueing::new(1).name(), "FQ");
        assert_eq!(StallTimeFair::new(1).name(), "STF");
        let b = Bliss::new(2, 4, 10_000);
        assert_eq!(b.name(), "BLISS");
        assert_eq!(b.params(), vec![("threshold", 4), ("clear", 10_000)]);
        let t = TcmCluster::new(2, 2_000);
        assert_eq!(t.name(), "TCM");
        assert_eq!(t.params(), vec![("quantum", 2_000)]);
    }

    /// A policy that states only its key gets the generic rule.
    #[derive(Debug)]
    struct HighestCoreFirst;

    impl SchedulerPolicy for HighestCoreFirst {
        fn name(&self) -> &'static str {
            "HIGHEST"
        }
        fn core_key(&self, core: CoreId, _pending: &[u32]) -> (u64, u16) {
            (u64::from(u16::MAX - core.0), 0)
        }
    }

    #[test]
    fn unnamed_core_keys_attribute_to_core_key() {
        let mut p = HighestCoreFirst;
        let cands = [cand(0, 0, true), cand(1, 1, false), cand(2, 1, true)];
        assert_eq!(p.select(&cands, &[1, 2]), 2);
        assert_eq!(why(&p, &cands, &[1, 2], 2).0, Rule::RowHitFirst);
        let cands = [cand(0, 0, true), cand(1, 1, false)];
        let (rule, ru) = why(&p, &cands, &[1, 1], 1);
        assert_eq!((rule, ru.map(|c| c.id.0)), (Rule::CoreKey, Some(0)));
    }
}
