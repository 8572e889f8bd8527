//! The paper's reference numbers, each stated once with how ours is
//! computed. `results/fidelity.txt` scores every row; Table 2's paper
//! column, each results file's footer (its row ids) and
//! `tests/paper_shape.rs` read the same rows. A row is scored on its
//! *sign* (a gain on the paper's side of zero) and its *order margin* (by
//! how much ours keeps the order the paper states, in the row's unit;
//! negative when inverted), not on magnitude. A miss smaller than the
//! row's *spread* is no measured deviation. Each spread is the range of
//! the row's margin (its value, where the paper states no order) over the
//! `fidelity.txt` of `melreq reproduce --slice K --store DIR --out
//! DIR/BENCH_sweep.json` for K = 0, 1, 2 at the default scale.

use crate::figures::{avg, avg_gain, geomean, relative};
use melreq_core::experiment::{ExperimentOptions, MixResult};
use melreq_core::profile::AppProfile;
use melreq_core::report::format_table;
use melreq_workloads::{spec2000, AppClass, MixKind};

const ILP: Verdict = Verdict::Deviates("ILP ME on the bandwidth floor");
const MEM: Verdict = Verdict::Deviates("MEM models order ME otherwise");
const AGREES: Verdict = Verdict::Agrees;

/// Table 2's memory efficiency, in `spec2000()` order. Ours orders every
/// ILP app by IPC: a cache-resident app measures no DRAM bandwidth, so
/// its ME sits on the 1 MB/s measurement floor.
#[rustfmt::skip]
const TABLE2: [(&str, f64, Verdict); 26] = [
    ("table2.me.gzip", 192.0, ILP), ("table2.me.vpr", 27.0, MEM), ("table2.me.gcc", 22.0, MEM),
    ("table2.me.mcf", 1.0, AGREES), ("table2.me.crafty", 222.0, ILP),
    ("table2.me.parser", 38.0, ILP), ("table2.me.eon", 16276.0, AGREES),
    ("table2.me.perlbmk", 2923.0, AGREES), ("table2.me.gap", 7.0, MEM),
    ("table2.me.vortex", 51.0, ILP), ("table2.me.bzip2", 216.0, ILP),
    ("table2.me.twolf", 951.0, ILP), ("table2.me.wupwise", 15.0, MEM),
    ("table2.me.swim", 2.0, MEM), ("table2.me.mgrid", 4.0, AGREES), ("table2.me.applu", 1.0, MEM),
    ("table2.me.mesa", 78.0, ILP), ("table2.me.galgel", 8.0, MEM), ("table2.me.art", 20.0, MEM),
    ("table2.me.equake", 2.0, MEM), ("table2.me.facerec", 40.0, MEM),
    ("table2.me.ammp", 280.0, ILP), ("table2.me.lucas", 1.0, MEM), ("table2.me.fma3d", 4.0, MEM),
    ("table2.me.sixtrack", 80.0, ILP), ("table2.me.apsi", 36.0, ILP),
];

/// Table 2's memory efficiency of application `app`.
pub(crate) fn table2_me(app: &str) -> f64 {
    let row = TABLE2.iter().find(|(id, ..)| id.strip_prefix("table2.me.") == Some(app));
    row.expect("a Table 2 app").1
}

const LATENCY: fn(&MixResult) -> f64 = |r| r.mean_read_latency;
const UNFAIRNESS: fn(&MixResult) -> f64 = |r| r.unfairness;

/// Every claim past Table 2.
#[rustfmt::skip]
const FIGURES: [Claim; 19] = {
    use MixKind::{Mem, Mixed};
    use Rule::*;
    use Verdict::{Deviates, NoContest};
    [
        Claim { id: "fig2.mem4.lreq", paper: 4.0, spread: 1.43, status: AGREES, rule: Behind(4, Mem, "LREQ") },
        Claim { id: "fig2.mem8.lreq", paper: 8.7, spread: 0.60, status: AGREES, rule: Behind(8, Mem, "LREQ") },
        Claim { id: "fig2.mem4.me-lreq", paper: 10.7, spread: 0.39, status: AGREES, rule: Best(4, Mem, "ME-LREQ") },
        Claim { id: "fig2.mem8.me-lreq", paper: 19.9, spread: 0.60, status: AGREES, rule: Best(8, Mem, "ME-LREQ") },
        Claim { id: "fig2.mix4.me-lreq", paper: 4.0, spread: 0.47, status: AGREES, rule: Best(4, Mixed, "ME-LREQ") },
        Claim { id: "fig2.mix8.me-lreq", paper: 12.1, spread: 1.18,
            status: Deviates("LREQ ahead on 8-core MIX"), rule: Best(8, Mixed, "ME-LREQ") },
        Claim { id: "fig2.me.avg", paper: -0.6, spread: 0.16,
            status: Deviates("deep MLP hides ME's starvation"), rule: MeAvg },
        Claim { id: "fig2.rr.max", paper: 5.6, spread: 0.53, status: AGREES, rule: RrMax },
        Claim { id: "fig2.mix2.no-contest", paper: 0.0, spread: 4.0, status: NoContest, rule: Contest },
        Claim { id: "fig3.4mem-1.fix-gain", paper: 2.8, spread: 3.31, status: AGREES, rule: Fix(true) },
        Claim { id: "fig3.4mem-1.fix-loss", paper: -13.8, spread: 0.85, status: AGREES, rule: Fix(false) },
        Claim { id: "fig4.starved.hf-rf", paper: 289.0, spread: 2.73, status: AGREES, rule: Starved(0) },
        Claim { id: "fig4.starved.me", paper: 1042.0, spread: 10.03, status: AGREES, rule: Starved(1) },
        Claim { id: "fig4.starved.me-lreq", paper: 887.0, spread: 10.03, status: AGREES, rule: Starved(2) },
        Claim { id: "fig4.mean.me-lreq-rank", paper: 1.0, spread: 1.00,
            status: Deviates("latency redistributed, not reduced"), rule: Place("ME-LREQ", LATENCY, false) },
        Claim { id: "fig5.me.avg-cost", paper: 4.7, spread: 0.79, status: AGREES, rule: FairnessCost(false) },
        Claim { id: "fig5.me.max-cost", paper: 22.4, spread: 1.97, status: AGREES, rule: FairnessCost(true) },
        Claim { id: "fig5.me.least-fair", paper: 5.0, spread: 0.02, status: AGREES,
            rule: Place("ME", UNFAIRNESS, true) },
        Claim { id: "fig5.me-lreq.fairest", paper: 1.0, spread: 0.03,
            status: Deviates("skews service to efficient cores"), rule: Place("ME-LREQ", UNFAIRNESS, false) },
    ]
};

/// Every claim, Table 2 first, then Figures 2 to 5.
pub fn claims() -> Vec<Claim> {
    // Profiles do not depend on the evaluation slice: no Table 2 spread.
    let row = |id, paper, status, rule| Claim { id, paper, spread: 0.0, status, rule };
    let me =
        TABLE2.iter().enumerate().map(|(i, &(id, me, status))| row(id, me, status, Rule::Me(i)));
    let ratio = table2_me("facerec") / table2_me("mcf");
    let ends = row("table2.me-ratio.facerec-mcf", ratio, AGREES, Rule::MemEnds);
    me.chain([ends]).chain(FIGURES).collect()
}

/// One fact the paper states.
#[derive(Debug, Clone, Copy)]
pub struct Claim {
    /// Stable id, `source.group.subject` (`fig2.mem8.me-lreq`); its first
    /// part names the table or figure that states it.
    pub id: &'static str,
    /// The paper's value (unused by a no-contest row), in the rule's unit.
    paper: f64,
    /// The scored quantity's range over evaluation slices 0, 1 and 2.
    spread: f64,
    /// What this reproduction knows the row to be (never `WithinSpread`).
    pub status: Verdict,
    rule: Rule,
}

/// How a row scores: sign and order agree; they miss by less than the
/// spread; they miss by at least it (a recorded deviation is named); or
/// no contest, every scheme ran bit-equal, which is never agreement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Agrees,
    WithinSpread,
    Deviates(&'static str),
    NoContest,
}

/// How ours is computed for a row.
#[derive(Debug, Clone, Copy)]
enum Rule {
    /// App `i`'s ME; margin: minus the app pairs ours orders against
    /// Table 2 (its ties count for neither side).
    Me(usize),
    /// facerec's ME over mcf's (Table 2's widest MEM ratio); margin: minus
    /// the MEM apps outside the two.
    MemEnds,
    /// The scheme's Figure 2 gain on the (cores, class) stage; margin:
    /// its lead over every other scheme, or (`Behind`) ME-LREQ's over it.
    Best(usize, MixKind, &'static str),
    Behind(usize, MixKind, &'static str),
    /// ME's geometric-mean gain over every Figure 2 mix; RR's best stage.
    MeAvg,
    RrMax,
    /// 2-core MIX runs whose per-core IPC differs in any bit from their
    /// mix's HF-RF run: none on slice 0, 2MIX-3's four on slices 1 and 2.
    Contest,
    /// The better (`true`) or worse of FIX-3210 and FIX-0123 on 4MEM-1.
    Fix(bool),
    /// The read latency, in cycles, of the 4MEM-5 core ME starves (its
    /// highest under ME) under HF-RF, ME or ME-LREQ; margin: ME's stays
    /// the highest and ME-LREQ's between the two.
    Starved(usize),
    /// The scheme's place (1 = lowest) by its 4-core MEM average of the
    /// metric (the files' "average" row); margin: its lead over the other
    /// schemes at the low end, or (`true`) at the high end.
    Place(&'static str, fn(&MixResult) -> f64, bool),
    /// The mean or largest (`true`) fairness ME costs over the 4-core MEM
    /// mixes, `1 - unfairness(HF-RF) / unfairness(ME)`.
    FairnessCost(bool),
}

/// What the claims are scored on: the results one `reproduce` holds. A
/// stage a reduced-scale test did not run is absent, and the rows that
/// read it score nothing.
pub struct Evidence<'a> {
    /// Table 2's single-core profiles in `spec2000()` order, or empty.
    pub profiles: &'a [AppProfile],
    /// The Figure 2 stages, mix-major (Figures 4 and 5 read 4-core MEM).
    pub fig2: Vec<&'a [MixResult]>,
    /// The Figure 3 stage, or empty.
    pub fig3: &'a [MixResult],
}

impl<'a> Evidence<'a> {
    /// The Figure 2 stage of the `cores`-core `kind` mixes, if it ran.
    pub(crate) fn stage(&self, cores: usize, kind: MixKind) -> Option<&'a [MixResult]> {
        let is = |r: &MixResult| r.mix.cores() == cores && r.mix.kind == kind;
        self.fig2.iter().copied().find(|s| s.first().is_some_and(is))
    }
}

/// Schemes per mix of a stage (mix-major, policy-minor, HF-RF first).
fn width(stage: &[MixResult]) -> usize {
    stage.iter().take_while(|r| r.mix.name == stage[0].mix.name).count().max(1)
}

/// `policy`'s column in the stage.
fn col(stage: &[MixResult], policy: &str) -> Option<usize> {
    stage.iter().take(width(stage)).position(|r| r.policy == policy)
}

/// Column `j`'s Figure 2 "avg vs HF-RF", in percent.
fn gain(stage: &[MixResult], j: usize) -> f64 {
    (avg_gain(stage, width(stage), j) - 1.0) * 100.0
}

/// The stage's runs grouped per mix.
fn mixes(stage: &[MixResult]) -> std::slice::Chunks<'_, MixResult> {
    stage.chunks(width(stage))
}

fn mix<'s>(stage: &'s [MixResult], name: &str) -> Option<&'s [MixResult]> {
    mixes(stage).find(|runs| runs[0].mix.name == name)
}

fn run<'r>(runs: &'r [MixResult], policy: &str) -> Option<&'r MixResult> {
    runs.iter().find(|r| r.policy == policy)
}

/// `f` of `policy`'s run over `f` of `base`'s, among one mix's runs.
fn over(runs: &[MixResult], policy: &str, base: &str, f: fn(&MixResult) -> f64) -> Option<f64> {
    Some(f(run(runs, policy)?) / f(run(runs, base)?))
}

fn max(v: impl IntoIterator<Item = f64>) -> f64 {
    v.into_iter().fold(f64::MIN, f64::max)
}

impl Rule {
    /// `v` in the row's unit: memory efficiency, a ratio, a count (runs,
    /// cycles), a place among the schemes, or a gain over HF-RF in percent,
    /// the only unit whose sign is scored.
    fn fmt(self, v: f64) -> String {
        match self {
            Rule::Me(_) if v < 10.0 => format!("{v:.3}"),
            Rule::MemEnds => format!("{v:.1}x"),
            Rule::Me(_) | Rule::Contest | Rule::Starved(_) => format!("{v:.0}"),
            Rule::Place(..) => format!("#{v:.0}"),
            _ => format!("{v:+.1}%"),
        }
    }

    fn signed(self) -> bool {
        self.fmt(0.0).ends_with('%')
    }

    /// Our value, and by how much it keeps the paper's order (negative
    /// when inverted; `None` where the paper states a value alone).
    fn measure(self, ev: &Evidence<'_>) -> Option<(f64, Option<f64>)> {
        let mem4 = || ev.stage(4, MixKind::Mem);
        Some(match self {
            Rule::Me(i) => {
                (ev.profiles.len() == TABLE2.len()).then_some(())?;
                let (paper, me) = (TABLE2[i].1, ev.profiles[i].me);
                let pairs = TABLE2.iter().zip(ev.profiles);
                let inverted = pairs.filter(|(t, q)| (paper - t.1) * (me - q.me) < 0.0);
                (me, Some(0.0 - inverted.count() as f64))
            }
            Rule::MemEnds => {
                let me = |app| Some(ev.profiles.iter().find(|p| p.name == app)?.me);
                let (top, bottom) = (me("facerec")?, me("mcf")?);
                let outside = (ev.profiles.iter().zip(spec2000()))
                    .filter(|(p, a)| a.class == AppClass::Mem && (p.me > top || p.me < bottom));
                (top / bottom, Some(0.0 - outside.count() as f64))
            }
            Rule::Best(cores, kind, policy) | Rule::Behind(cores, kind, policy) => {
                let stage = ev.stage(cores, kind)?;
                let j = col(stage, policy)?;
                let lead = match self {
                    Rule::Best(..) => {
                        gain(stage, j)
                            - max((0..width(stage)).filter(|&k| k != j).map(|k| gain(stage, k)))
                    }
                    _ => gain(stage, col(stage, "ME-LREQ")?) - gain(stage, j),
                };
                (gain(stage, j), Some(lead))
            }
            Rule::MeAvg => {
                let mut rel = vec![];
                for s in &ev.fig2 {
                    rel.extend(relative(s, width(s), col(s, "ME")?));
                }
                (!rel.is_empty()).then(|| ((geomean(rel) - 1.0) * 100.0, None))?
            }
            Rule::RrMax => {
                let g: Vec<f64> =
                    ev.fig2.iter().map(|s| Some(gain(s, col(s, "RR")?))).collect::<Option<_>>()?;
                (!g.is_empty()).then(|| (max(g), None))?
            }
            Rule::Contest => {
                let ipc =
                    |r: &MixResult| r.ipc_multi.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                let differ = |m: &[MixResult]| {
                    let base = ipc(run(m, "HF-RF")?);
                    Some(m.iter().filter(|r| ipc(r) != base).count())
                };
                let runs =
                    mixes(ev.stage(2, MixKind::Mixed)?).map(differ).sum::<Option<usize>>()?;
                (runs as f64, None)
            }
            Rule::Fix(better) => {
                let runs = mix(ev.fig3, "4MEM-1")?;
                let g = |p| Some((over(runs, p, "HF-RF", |r| r.smt_speedup)? - 1.0) * 100.0);
                let (a, b) = (g("FIX-3210")?, g("FIX-0123")?);
                (if better { a.max(b) } else { a.min(b) }, None)
            }
            Rule::Starved(i) => {
                let runs = mix(mem4()?, "4MEM-5")?;
                let under_me = &run(runs, "ME")?.read_latency;
                let core =
                    (0..under_me.len()).max_by(|&a, &b| under_me[a].total_cmp(&under_me[b]))?;
                let lat = |p| Some(run(runs, p)?.read_latency[core]);
                let [hf, me, ml] = [lat("HF-RF")?, under_me[core], lat("ME-LREQ")?];
                ([hf, me, ml][i], Some([me - hf, me - hf.max(ml), (ml - hf).min(me - ml)][i]))
            }
            Rule::Place(policy, metric, highest) => {
                let stage = mem4()?;
                let (n, j) = (width(stage), col(stage, policy)?);
                let own = avg(stage, n, j, metric);
                let rest: Vec<f64> =
                    (0..n).filter(|&k| k != j).map(|k| avg(stage, n, k, metric)).collect();
                let (lo, hi) =
                    rest.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
                let lead = if highest { own - hi } else { lo - own };
                (1.0 + rest.iter().filter(|&&v| v < own).count() as f64, Some(lead))
            }
            Rule::FairnessCost(largest) => {
                let cost = |m| Some((1.0 - over(m, "HF-RF", "ME", UNFAIRNESS)?) * 100.0);
                let c: Vec<f64> = mixes(mem4()?).map(cost).collect::<Option<_>>()?;
                let mean = c.iter().sum::<f64>() / c.len() as f64;
                (if largest { max(c) } else { mean }, None)
            }
        })
    }
}

/// A row scored on one run: the row, our value and order margin (see
/// [`Claim::score`]), and its verdict.
pub struct Scored {
    pub claim: Claim,
    pub value: f64,
    pub margin: Option<f64>,
    pub verdict: Verdict,
}

impl Claim {
    /// The row scored on `ev`, or `None` when `ev` lacks what it reads.
    pub fn score(self, ev: &Evidence<'_>) -> Option<Scored> {
        let (value, margin) = self.rule.measure(ev)?;
        Some(Scored { claim: self, value, margin, verdict: self.verdict(value, margin) })
    }

    fn verdict(self, value: f64, margin: Option<f64>) -> Verdict {
        let sign_ok = !self.rule.signed() || value * self.paper > 0.0;
        let order_ok = margin.is_none_or(|x| x >= 0.0);
        let gap = f64::max(
            if sign_ok { 0.0 } else { value.abs() },
            if order_ok { 0.0 } else { -margin.unwrap_or(0.0) },
        );
        let named = if let Verdict::Deviates(why) = self.status { why } else { "" };
        match self.status {
            Verdict::NoContest if value == 0.0 => Verdict::NoContest,
            Verdict::NoContest => Verdict::Deviates(""),
            _ if sign_ok && order_ok => Verdict::Agrees,
            _ if gap < self.spread => Verdict::WithinSpread,
            _ => Verdict::Deviates(named),
        }
    }
}

impl Verdict {
    fn label(self) -> String {
        match self {
            Verdict::Agrees => "agrees".into(),
            Verdict::WithinSpread => "within spread".into(),
            Verdict::Deviates("") => "deviates".into(),
            Verdict::Deviates(why) => format!("deviates: {why}"),
            Verdict::NoContest => "no contest".into(),
        }
    }
}

impl Scored {
    /// Whether the full-scale verdict is the status the row records: a
    /// deviation that closes fails this as surely as an agreement that
    /// breaks; an agreement may miss inside its spread.
    fn holds(&self) -> bool {
        use Verdict::*;
        matches!(
            (self.claim.status, self.verdict),
            (Agrees, Agrees | WithinSpread) | (Deviates(_), Deviates(_)) | (NoContest, NoContest)
        )
    }

    /// The row as `fidelity.txt` prints it: claim, source, paper, ours,
    /// sign, order margin, ours/paper, spread and verdict, with the
    /// recorded status where the verdict is not it.
    fn cells(&self) -> Vec<String> {
        let (c, value) = (self.claim, self.value);
        let scalar = !matches!(c.rule, Rule::Place(..)) && c.status != Verdict::NoContest;
        let dash = || "-".to_string();
        let sign = if !c.rule.signed() {
            "-"
        } else if value * c.paper > 0.0 {
            "yes"
        } else {
            "no"
        };
        let source = c.id.split('.').next().and_then(|s| s.strip_prefix("fig"));
        let mut verdict = self.verdict.label();
        if !self.holds() {
            verdict = format!("{verdict} (recorded: {})", c.status.label());
        }
        vec![
            c.id.to_string(),
            source.map_or_else(|| "Table 2".to_string(), |n| format!("Figure {n}")),
            if c.status == Verdict::NoContest { dash() } else { c.rule.fmt(c.paper) },
            c.rule.fmt(value),
            sign.to_string(),
            self.margin.map_or_else(dash, |x| format!("{x:+.2}")),
            if scalar { format!("{:.2}", value / c.paper) } else { dash() },
            format!("{:.2}", c.spread),
            verdict,
        ]
    }
}

/// A results file's footer: the ids of its rows, which `fidelity.txt`
/// scores.
pub(crate) fn footer(prefix: &str) -> String {
    let ids: Vec<&str> =
        claims().into_iter().map(|c| c.id).filter(|id| id.starts_with(prefix)).collect();
    format!("Paper claims, scored in fidelity.txt: {}.\n", ids.join(", "))
}

/// `results/fidelity.txt`: every claim scored on one full `reproduce`,
/// then the rows whose verdict is not their recorded status.
pub(crate) fn fidelity(opts: &ExperimentOptions, ev: &Evidence<'_>) -> String {
    let scored: Vec<Scored> = claims().into_iter().filter_map(|c| c.score(ev)).collect();
    assert_eq!(scored.len(), claims().len(), "the full grid scores every claim");
    let changed: Vec<&str> = scored.iter().filter(|s| !s.holds()).map(|s| s.claim.id).collect();
    let headers =
        ["claim", "source", "paper", "ours", "sign", "order", "ours/paper", "spread", "verdict"];
    format!(
        "Fidelity — the paper's claims against this reproduction ({} instructions/core, \
         warm-up {}, slice {})\n\n{}\nVerdicts that are not their row's recorded status: {}.\n\n\
         sign: a gain on the paper's side of zero. order: by how much ours keeps the order \
         the paper states, in the row's unit (points, cycles, unfairness, inverted ME pairs \
         or MEM apps); negative is inverted. spread: the range of the order (or, with no \
         order, of the value) over slices 0, 1 and 2; a miss smaller than it is within \
         spread. Magnitude (ours/paper) is shown, not scored.\n",
        opts.instructions,
        opts.warmup,
        opts.eval_slice,
        format_table(&headers, &scored.iter().map(Scored::cells).collect::<Vec<_>>()),
        if changed.is_empty() { "none".to_string() } else { changed.join(", ") }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_me_ordering_sanity() {
        assert!(table2_me("eon") > table2_me("perlbmk"));
        assert!(table2_me("gzip") > table2_me("wupwise"));
        assert!(table2_me("swim") < table2_me("vpr"));
        let ids: Vec<String> = spec2000().iter().map(|a| format!("table2.me.{}", a.name)).collect();
        assert_eq!(ids, TABLE2.map(|(id, ..)| id), "one Table 2 value per roster app, in order");
    }

    #[test]
    fn ids_are_unique() {
        let mut ids: Vec<&str> = claims().iter().map(|c| c.id).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n, "duplicate claim id");
    }

    #[test]
    fn a_miss_inside_the_spread_is_no_deviation() {
        use Verdict::*;
        let score = |paper, spread, status, value, margin| {
            let claim = Claim { id: "t", paper, spread, status, rule: Rule::Fix(true) };
            let verdict = claim.verdict(value, Some(margin));
            let s = Scored { claim, value, margin: Some(margin), verdict };
            (s.verdict, s.holds())
        };
        let cases = [
            (score(19.9, 0.6, Agrees, 7.0, 0.1), Agrees, true),
            (score(19.9, 0.0, Agrees, 7.0, 0.0), Agrees, true),
            (score(19.9, 0.6, Agrees, 7.0, -0.3), WithinSpread, true),
            (score(12.1, 1.2, Agrees, 4.3, -1.6), Deviates(""), false),
            (score(-0.6, 0.5, Deviates("x"), 2.6, 0.0), Deviates("x"), true),
            // A named deviation that closes, or shrinks into the spread,
            // no longer holds.
            (score(12.1, 1.2, Deviates("x"), 4.3, 0.2), Agrees, false),
            (score(12.1, 1.2, Deviates("x"), 4.3, -1.0), WithinSpread, false),
            (score(0.0, 0.0, NoContest, 0.0, 0.0), NoContest, true),
            (score(0.0, 0.0, NoContest, 2.0, 0.0), Deviates(""), false),
        ];
        for (i, (got, verdict, holds)) in cases.into_iter().enumerate() {
            assert_eq!(got, (verdict, holds), "case {i}");
        }
    }
}
