//! Property-based tests of the DRAM model's structural invariants.

use melreq_dram::{Channel, DramGeometry, DramTiming, Interleave, RowOutcome};
use melreq_stats::types::AccessKind;
use proptest::prelude::*;

fn arb_geometry() -> impl Strategy<Value = DramGeometry> {
    (0u32..=2, 0u32..=2, 1u32..=3, 6u32..=13, any::<bool>()).prop_map(
        |(ch, dimm, bank, row, page)| DramGeometry {
            channels: 1 << ch,
            dimms_per_channel: 1 << dimm,
            banks_per_dimm: 1 << bank,
            row_bytes: 1 << row,
            interleave: if page { Interleave::Page } else { Interleave::CacheLine },
        },
    )
}

proptest! {
    /// Decoding any address yields coordinates within the geometry.
    #[test]
    fn decode_fields_in_range(g in arb_geometry(), addr in any::<u64>()) {
        let addr = addr & 0x0000_FFFF_FFFF_FFFF; // keep rows in u64 range
        let loc = g.decode(addr);
        prop_assert!(loc.channel < g.channels);
        prop_assert!(loc.bank < g.banks_per_channel());
        prop_assert!((loc.column as u64) < g.lines_per_row());
    }

    /// The mapping is injective at line granularity: re-encoding the
    /// decoded coordinates recovers the original line index.
    #[test]
    fn decode_is_injective(g in arb_geometry(), addr in any::<u64>()) {
        let addr = addr & 0x0000_FFFF_FFFF_FFFF;
        let loc = g.decode(addr);
        let ch_bits = g.channels.trailing_zeros();
        let bank_bits = g.banks_per_channel().trailing_zeros();
        let col_bits = g.lines_per_row().trailing_zeros();
        let line = match g.interleave {
            Interleave::CacheLine => {
                (((loc.row << col_bits | loc.column as u64) << bank_bits
                    | loc.bank as u64) << ch_bits)
                    | loc.channel as u64
            }
            Interleave::Page => {
                (((loc.row << bank_bits | loc.bank as u64) << ch_bits
                    | loc.channel as u64) << col_bits)
                    | loc.column as u64
            }
        };
        prop_assert_eq!(line, addr >> 6);
    }

    /// Two addresses in the same cache line always decode identically.
    #[test]
    fn same_line_same_location(g in arb_geometry(), addr in any::<u64>(), off in 0u64..64) {
        let addr = addr & 0x0000_FFFF_FFFF_FF00;
        prop_assert_eq!(g.decode(addr), g.decode(addr + off));
    }

    /// Bank invariant, on a one-bank channel: the ready horizon never goes
    /// backwards, data is never ready before its latency class allows
    /// (and the classes order correctly), and the close-page decision
    /// leaves the row open or closed. A closed bank shows in the next
    /// grant's outcome, a closed miss rather than a conflict.
    #[test]
    fn bank_time_is_monotone(
        rows in proptest::collection::vec((0u64..8, any::<bool>(), any::<bool>()), 1..64)
    ) {
        let t = DramTiming::ddr2_800_at_3_2ghz();
        let mut ch = Channel::new(1);
        let mut open = None;
        let mut now = 0;
        let mut last_ready = 0;
        for (row, keep_open, is_write) in rows {
            now = now.max(ch.bank_ready_at(0));
            let kind = if is_write { AccessKind::Write } else { AccessKind::Read };
            let (outcome, min_latency) = match open {
                Some(r) if r == row => (RowOutcome::Hit, t.t_cl),
                None => (RowOutcome::ClosedMiss, t.t_rcd + t.t_cl),
                Some(_) => (RowOutcome::Conflict, t.t_rp + t.t_rcd + t.t_cl),
            };
            prop_assert_eq!(ch.is_row_hit(0, row), outcome == RowOutcome::Hit);
            let g = ch.issue(0, row, kind, now, keep_open, &t);
            prop_assert_eq!(g.outcome, outcome);
            prop_assert_eq!(g.data_ready, now + min_latency + t.burst);
            prop_assert!(ch.bank_ready_at(0) >= last_ready, "ready_at went backwards");
            last_ready = ch.bank_ready_at(0);
            prop_assert_eq!(ch.is_row_hit(0, row), keep_open);
            open = keep_open.then_some(row);
        }
    }

    /// Channel invariant: the data bus never transfers two bursts at
    /// once — consecutive grants' data-ready times are at least one burst
    /// apart.
    #[test]
    fn channel_bus_never_double_booked(
        ops in proptest::collection::vec((0usize..8, 0u64..4), 1..64)
    ) {
        let t = DramTiming::ddr2_800_at_3_2ghz();
        let mut ch = Channel::new(8);
        let mut now = 0;
        let mut readies: Vec<u64> = Vec::new();
        for (bank, row) in ops {
            while !ch.can_issue(bank, now) {
                now += 1;
            }
            let g = ch.issue(bank, row, AccessKind::Read, now, false, &t);
            readies.push(g.data_ready);
            now += 1;
        }
        readies.sort_unstable();
        for w in readies.windows(2) {
            prop_assert!(w[1] >= w[0] + t.burst, "bursts overlap: {} then {}", w[0], w[1]);
        }
    }
}
