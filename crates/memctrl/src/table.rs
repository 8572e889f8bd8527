//! The workload priority table of Figure 1.
//!
//! ME-LREQ's priority `ME[i] / PendingRead[i]` involves a division the
//! controller cannot afford at scheduling time, so the paper precomputes
//! the quotient for every possible pending-read count and stores it —
//! scaled and rounded to 10 bits — in a small per-core SRAM table:
//! "the maximum number of pending memory requests per thread is 64, and
//! each table entry stores a 10-bit priority information. The total
//! number of bits in the tables is only N × 64 × 10" (Section 3.2).
//!
//! This module reproduces that hardware exactly: [`PriorityTable::new`]
//! plays the role of the OS initializing the tables "at the time of
//! program loading", and [`PriorityTable::lookup`] is the parallel table
//! read performed at each scheduling decision.

use melreq_stats::fixedpoint::{PriorityFixed, PRIORITY_MAX};
use melreq_stats::types::CoreId;

/// Maximum pending requests per thread the table covers (Section 3.2).
pub const MAX_PENDING: u32 = 64;

/// Per-core precomputed quantization of `ME[i]/p` for `p ∈ 1..=64`,
/// 10-bit each.
#[derive(Debug, Clone)]
pub struct PriorityTable {
    /// `tables[core][p-1]` = quantized priority with `p` pending reads.
    tables: Vec<[PriorityFixed; MAX_PENDING as usize]>,
    /// The log-domain scale factor applied before rounding.
    scale: f64,
    /// The ME vector the tables were programmed from: what
    /// `MeLreq::core_rule` splits a win by. No decision reads it.
    me: Vec<f64>,
}

impl PriorityTable {
    /// Build the tables for a workload whose per-core memory-efficiency
    /// values are `me` (Equation 1, profiled off-line).
    ///
    /// The paper only says the quotients are "scaled approximately and
    /// then stored". Profiled ME spans ~5 decades (Table 2: 1 … 16276),
    /// so a *linear* 10-bit scale would quantize every low-ME core to
    /// zero and erase the least-request signal among them. We therefore
    /// quantize in the **log domain**: the scheduler only ever *compares*
    /// table entries, and any monotone mapping preserves the argmax, so
    /// log-compression is semantically transparent while spreading the
    /// 1024 code points evenly across the dynamic range (each step ≈
    /// `range_bits/1023` in log₂ — ratios differing by more than a few
    /// percent stay distinguishable).
    pub fn new(me: &[f64]) -> Self {
        assert!(!me.is_empty(), "need at least one core");
        // Dynamic range of ME/p over all cores and pending counts.
        let finite = |v: f64| v.is_finite() && v > 0.0;
        let lmax = me
            .iter()
            .copied()
            .filter(|&v| finite(v))
            .fold(f64::NEG_INFINITY, |a, v| a.max(v.log2()));
        let lmin = me
            .iter()
            .copied()
            .filter(|&v| finite(v))
            .fold(f64::INFINITY, |a, v| a.min((v / MAX_PENDING as f64).log2()));
        let scale =
            if lmax.is_finite() && lmax > lmin { PRIORITY_MAX as f64 / (lmax - lmin) } else { 1.0 };
        let quant = |v: f64| -> PriorityFixed {
            if !v.is_finite() {
                return if v > 0.0 { PriorityFixed::MAX } else { PriorityFixed::ZERO };
            }
            if v <= 0.0 || !lmax.is_finite() {
                return PriorityFixed::ZERO;
            }
            let raw = ((v.log2() - lmin) * scale).round().clamp(0.0, PRIORITY_MAX as f64);
            #[expect(
                clippy::cast_possible_truncation,
                reason = "clamped to [0, PRIORITY_MAX] above; float casts saturate"
            )]
            let raw = raw as u16;
            PriorityFixed::from_raw(raw)
        };
        let tables = me
            .iter()
            .map(|&m| {
                let mut t = [PriorityFixed::ZERO; MAX_PENDING as usize];
                for (i, entry) in t.iter_mut().enumerate() {
                    let pending = (i + 1) as f64;
                    *entry = quant(m / pending);
                }
                t
            })
            .collect();
        PriorityTable { tables, scale, me: me.to_vec() }
    }

    /// Build the tables with **linear** quantization instead of the
    /// default log-domain mapping: `entry = round(scale · ME/p)` with the
    /// scale chosen so the largest finite `ME/1` saturates 10 bits.
    ///
    /// This is the most literal reading of the paper's "scaled
    /// approximately" and is provided for the ablation study: with a
    /// wide ME dynamic range it quantizes every low-ME core to zero,
    /// erasing the least-request signal among them (see DESIGN.md).
    pub fn new_linear(me: &[f64]) -> Self {
        use melreq_stats::fixedpoint::{auto_scale, quantize};
        assert!(!me.is_empty(), "need at least one core");
        let scale = auto_scale(me.iter().copied());
        let tables = me
            .iter()
            .map(|&m| {
                let mut t = [PriorityFixed::ZERO; MAX_PENDING as usize];
                for (i, entry) in t.iter_mut().enumerate() {
                    *entry = quantize(m / (i + 1) as f64, scale);
                }
                t
            })
            .collect();
        PriorityTable { tables, scale, me: me.to_vec() }
    }

    /// Number of per-core tables.
    pub fn cores(&self) -> usize {
        self.tables.len()
    }

    /// The scale factor in use.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The ME vector the tables were programmed from.
    pub fn me(&self) -> &[f64] {
        &self.me
    }

    /// The hardware table read: the quantized priority of `core` given its
    /// current pending-read count.
    ///
    /// A count of zero never reaches the comparator network (a core with
    /// no pending reads has nothing to schedule), and counts above 64
    /// clamp to the last entry, as a saturating hardware counter would.
    ///
    /// # Panics
    /// Panics (debug) when `pending_reads` is zero.
    #[inline]
    pub fn lookup(&self, core: CoreId, pending_reads: u32) -> PriorityFixed {
        debug_assert!(pending_reads > 0, "no reads pending — nothing to look up");
        let p = pending_reads.clamp(1, MAX_PENDING) as usize;
        self.tables[core.index()][p - 1]
    }

    /// Total storage the table occupies in hardware, in bits
    /// (N × 64 × 10 from Section 3.2) — used by tests/docs to confirm the
    /// model matches the paper's cost claim.
    pub fn storage_bits(&self) -> usize {
        self.cores() * MAX_PENDING as usize * 10
    }

    /// Serialize every table entry plus the scale factor. Entries are
    /// stored raw so both quantization modes (log-domain and linear)
    /// round-trip identically.
    pub fn save_state(&self, enc: &mut melreq_snap::Enc) {
        // `me`: provenance input, never serialized; a restored table keeps
        // its receiver's construction profile.
        let Self { tables, scale, me: _ } = self;
        enc.usize(tables.len());
        for t in tables {
            for e in t {
                enc.u16(e.raw());
            }
        }
        enc.f64(*scale);
    }

    /// Restore state written by [`PriorityTable::save_state`] into a
    /// table built for the same core count.
    pub fn load_state(
        &mut self,
        dec: &mut melreq_snap::Dec<'_>,
    ) -> Result<(), melreq_snap::SnapError> {
        let Self { tables, scale, me: _ } = self;
        let n = dec.usize()?;
        if n != tables.len() {
            return Err(melreq_snap::SnapError::Invalid("priority table core count mismatch"));
        }
        for t in tables {
            for e in t.iter_mut() {
                *e = PriorityFixed::from_raw(dec.u16()?);
            }
        }
        *scale = dec.f64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_core_table_is_2560_bits() {
        let t = PriorityTable::new(&[15.0, 2.0, 4.0, 1.0]);
        assert_eq!(t.storage_bits(), 4 * 64 * 10);
    }

    #[test]
    fn priority_decreases_with_pending_reads() {
        let t = PriorityTable::new(&[100.0]);
        let p1 = t.lookup(CoreId(0), 1);
        let p2 = t.lookup(CoreId(0), 2);
        let p64 = t.lookup(CoreId(0), 64);
        assert!(p1 > p2);
        assert!(p2 > p64);
    }

    #[test]
    fn higher_me_wins_at_equal_pending() {
        let t = PriorityTable::new(&[15.0, 2.0]);
        assert!(t.lookup(CoreId(0), 3) > t.lookup(CoreId(1), 3));
    }

    #[test]
    fn lreq_behaviour_at_equal_me() {
        // With equal ME the table degenerates to least-request order.
        let t = PriorityTable::new(&[10.0, 10.0]);
        assert!(t.lookup(CoreId(0), 1) > t.lookup(CoreId(1), 5));
    }

    #[test]
    fn pending_clamps_at_64() {
        let t = PriorityTable::new(&[100.0]);
        assert_eq!(t.lookup(CoreId(0), 64), t.lookup(CoreId(0), 1000));
    }

    #[test]
    fn max_me_saturates_top_entry() {
        let t = PriorityTable::new(&[50.0, 5.0]);
        assert_eq!(t.lookup(CoreId(0), 1).raw(), 1023);
    }

    #[test]
    fn infinite_me_is_handled() {
        // A program with ~zero bandwidth has effectively infinite ME; its
        // table saturates instead of poisoning the scale.
        let t = PriorityTable::new(&[f64::MAX / 2.0, 5.0]);
        assert_eq!(t.lookup(CoreId(0), 1).raw(), 1023);
        // The finite program still has non-trivial resolution... or at
        // least a valid entry.
        let _ = t.lookup(CoreId(1), 1);
    }

    #[test]
    fn quantization_can_tie_distinct_ratios() {
        // The 10-bit grid is coarse: very close ratios may collide. This
        // is the approximation the paper accepts ("scaled approximately").
        let t = PriorityTable::new(&[1000.0, 999.99]);
        assert_eq!(t.lookup(CoreId(0), 1), t.lookup(CoreId(1), 1));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "nothing to look up")]
    fn zero_pending_panics_in_debug() {
        let t = PriorityTable::new(&[1.0]);
        let _ = t.lookup(CoreId(0), 0);
    }

    #[test]
    fn linear_table_matches_literal_scaling() {
        let t = PriorityTable::new_linear(&[100.0, 50.0]);
        // scale = 1023/100: ME 100 at p=1 saturates, ME 50 at p=1 is half.
        assert_eq!(t.lookup(CoreId(0), 1).raw(), 1023);
        assert_eq!(t.lookup(CoreId(1), 1).raw(), 512);
        assert_eq!(t.lookup(CoreId(0), 2).raw(), 512);
    }

    #[test]
    fn linear_table_underflows_on_wide_ranges() {
        // The failure mode that motivates the log-domain default: with a
        // paper-scale dynamic range, every entry of the low-ME core
        // rounds to zero — the least-request signal is erased.
        let t = PriorityTable::new_linear(&[16276.0, 1.0]);
        assert_eq!(t.lookup(CoreId(1), 1).raw(), 0);
        assert_eq!(t.lookup(CoreId(1), 64).raw(), 0);
        // The log-domain table keeps them distinct.
        let t = PriorityTable::new(&[16276.0, 1.0]);
        assert!(t.lookup(CoreId(1), 1) > t.lookup(CoreId(1), 64));
    }
}
