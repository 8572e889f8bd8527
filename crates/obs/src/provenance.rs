//! Scheduler decision provenance: which rule won each grant.
//!
//! The controller states, on every `Decision` event of the audit tap, the
//! [`Rule`] that decided and the id of the best request the winner beat —
//! read off the same comparator chain that made the choice
//! (`SchedulerPolicy::explain`, which takes `&self` and so cannot perturb
//! the simulation). This module only keeps the books: per-policy totals.

pub use melreq_audit::Rule;

/// Per-rule grant counts for one policy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuleTotals {
    counts: [u64; Rule::ALL.len()],
}

impl RuleTotals {
    /// Count one decision under `rule`.
    pub fn add(&mut self, rule: Rule) {
        self.counts[rule as usize] += 1;
    }

    /// Decisions attributed to `rule`.
    pub fn get(&self, rule: Rule) -> u64 {
        self.counts[rule as usize]
    }

    /// Total decisions counted.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// `(rule, count)` pairs with non-zero counts, in report order.
    pub fn nonzero(&self) -> impl Iterator<Item = (Rule, u64)> + '_ {
        Rule::ALL.iter().filter_map(|&r| {
            let n = self.get(r);
            (n > 0).then_some((r, n))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_accumulate_and_enumerate() {
        let mut t = RuleTotals::default();
        t.add(Rule::RowHitFirst);
        t.add(Rule::RowHitFirst);
        t.add(Rule::RandomTie);
        assert_eq!(t.total(), 3);
        assert_eq!(t.get(Rule::RowHitFirst), 2);
        let nz: Vec<_> = t.nonzero().collect();
        assert_eq!(nz, vec![(Rule::RowHitFirst, 2), (Rule::RandomTie, 1)]);
    }
}
