//! Physical-address → DRAM-coordinate mapping.
//!
//! Table 1: "2 logic channels (2 physical channels each), 2 DIMMs per
//! physical channel, 4 banks per DIMM", with *cache-line interleaving*
//! (Section 4.1): consecutive cache lines rotate across logical channels
//! first, then banks, so sequential streams spread across all banks —
//! the layout that makes close-page mode effective.
//!
//! Bit layout (low → high):
//!
//! ```text
//! | 6 line offset | channel | bank | dimm | column | row |
//! ```
//!
//! The two physical channels of a logical channel are ganged into one
//! 16-byte data path, so the model addresses *logical* channels; the pair
//! of DIMMs per physical channel appears as `dimms_per_channel = 2` DIMM
//! groups per logical channel, 4 banks each — 8 independent banks per
//! logical channel, 16 in the system.

use melreq_stats::types::{Addr, CACHE_LINE_SHIFT};

/// How consecutive cache lines are distributed over the DRAM structure.
///
/// Section 4.1 of the paper: "The simulation uses the close page mode
/// with cache line interleaving rather than the open page mode with page
/// interleaving since it is more widely used in practice." Both layouts
/// are implemented so that the choice can be studied (see the `ablation`
/// binary).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Interleave {
    /// Consecutive lines rotate across channels, then banks: maximal
    /// bank-level parallelism, minimal row-buffer locality. Pairs with
    /// close-page row management.
    #[default]
    CacheLine,
    /// Consecutive lines fill a row before moving to the next bank:
    /// maximal row-buffer locality for streams. Pairs with open-page row
    /// management.
    Page,
}

/// Structural geometry of the DRAM system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramGeometry {
    /// Number of logical channels (each with an independent data bus).
    pub channels: usize,
    /// DIMM groups per logical channel.
    pub dimms_per_channel: usize,
    /// Banks per DIMM group.
    pub banks_per_dimm: usize,
    /// Row-buffer (page) size in bytes per bank.
    pub row_bytes: u64,
    /// Address-to-structure mapping.
    pub interleave: Interleave,
}

impl DramGeometry {
    /// The paper's geometry: 2 logical channels × 2 DIMMs × 4 banks,
    /// 4 KiB row buffers, cache-line interleaved.
    pub fn paper() -> Self {
        DramGeometry {
            channels: 2,
            dimms_per_channel: 2,
            banks_per_dimm: 4,
            row_bytes: 4096,
            interleave: Interleave::CacheLine,
        }
    }

    /// The alternative the paper declined: same structure with page
    /// interleaving (use with open-page row management).
    pub fn paper_page_interleaved() -> Self {
        DramGeometry { interleave: Interleave::Page, ..Self::paper() }
    }

    /// Total independent banks per logical channel.
    pub fn banks_per_channel(&self) -> usize {
        self.dimms_per_channel * self.banks_per_dimm
    }

    /// Cache lines per row buffer.
    pub fn lines_per_row(&self) -> u64 {
        self.row_bytes / (1 << CACHE_LINE_SHIFT)
    }

    /// Decode a physical address into DRAM coordinates according to the
    /// configured interleaving.
    pub fn decode(&self, addr: Addr) -> Location {
        debug_assert!(self.channels.is_power_of_two());
        debug_assert!(self.banks_per_channel().is_power_of_two());
        debug_assert!(self.lines_per_row().is_power_of_two());
        let line = addr >> CACHE_LINE_SHIFT;
        let ch_bits = self.channels.trailing_zeros();
        let bank_bits = self.banks_per_channel().trailing_zeros();
        let col_bits = self.lines_per_row().trailing_zeros();
        match self.interleave {
            Interleave::CacheLine => {
                // [offset | channel | bank | column | row]
                let channel = (line & (self.channels as u64 - 1)) as usize;
                let rest = line >> ch_bits;
                let bank = (rest & (self.banks_per_channel() as u64 - 1)) as usize;
                let rest = rest >> bank_bits;
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "masked to col_bits (< 32) before the cast"
                )]
                let column = (rest & (self.lines_per_row() - 1)) as u32;
                let row = rest >> col_bits;
                Location { channel, bank, row, column }
            }
            Interleave::Page => {
                // [offset | column | channel | bank | row]
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "masked to col_bits (< 32) before the cast"
                )]
                let column = (line & (self.lines_per_row() - 1)) as u32;
                let rest = line >> col_bits;
                let channel = (rest & (self.channels as u64 - 1)) as usize;
                let rest = rest >> ch_bits;
                let bank = (rest & (self.banks_per_channel() as u64 - 1)) as usize;
                let row = rest >> bank_bits;
                Location { channel, bank, row, column }
            }
        }
    }
}

impl Default for DramGeometry {
    fn default() -> Self {
        Self::paper()
    }
}

/// Coordinates of one cache line within the DRAM system.
///
/// `bank` is the flat bank index within the logical channel (DIMM and
/// in-DIMM bank folded together — they are timing-equivalent here because
/// the ganged channel shares one data bus and banks are independent).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Location {
    /// Logical channel index.
    pub channel: usize,
    /// Flat bank index within the channel.
    pub bank: usize,
    /// Row (page) index within the bank.
    pub row: u64,
    /// Column index (cache-line slot) within the row.
    pub column: u32,
}

impl Location {
    /// True if `other` refers to the same channel, bank and row — i.e. a
    /// request to `other` would be a row-buffer hit while this row is open.
    pub fn same_row(&self, other: &Location) -> bool {
        self.channel == other.channel && self.bank == other.bank && self.row == other.row
    }
}

impl std::fmt::Display for Location {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ch{}/b{}/r{}/c{}", self.channel, self.bank, self.row, self.column)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use melreq_stats::types::CACHE_LINE_BYTES;

    #[test]
    fn paper_geometry_counts() {
        let g = DramGeometry::paper();
        assert_eq!(g.banks_per_channel(), 8);
        assert_eq!(g.lines_per_row(), 64);
    }

    #[test]
    fn consecutive_lines_alternate_channels() {
        let g = DramGeometry::paper();
        let a = g.decode(0);
        let b = g.decode(CACHE_LINE_BYTES);
        assert_eq!(a.channel, 0);
        assert_eq!(b.channel, 1);
        assert_eq!(a.bank, b.bank);
    }

    #[test]
    fn lines_within_block_spread_over_banks() {
        let g = DramGeometry::paper();
        // Lines 0, 2, 4, ... on channel 0 should walk the banks.
        let banks: Vec<usize> = (0..8).map(|i| g.decode(i * 2 * CACHE_LINE_BYTES).bank).collect();
        assert_eq!(banks, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn row_changes_after_full_stripe() {
        let g = DramGeometry::paper();
        // One full stripe = channels * banks_per_channel * lines_per_row lines.
        let stripe_lines = 2 * 8 * 64;
        let a = g.decode(0);
        let b = g.decode(stripe_lines as u64 * CACHE_LINE_BYTES);
        assert_eq!(a.channel, b.channel);
        assert_eq!(a.bank, b.bank);
        assert_eq!(a.row + 1, b.row);
    }

    #[test]
    fn decode_fields_in_range() {
        let g = DramGeometry::paper();
        for i in 0..10_000u64 {
            let loc = g.decode(i * 977 * CACHE_LINE_BYTES);
            assert!(loc.channel < g.channels);
            assert!(loc.bank < g.banks_per_channel());
            assert!((loc.column as u64) < g.lines_per_row());
        }
    }

    #[test]
    fn same_row_predicate() {
        let g = DramGeometry::paper();
        let a = g.decode(0);
        // Next column in the same row: advance past channel+bank bits.
        let b = g.decode(2 * 8 * CACHE_LINE_BYTES);
        assert!(a.same_row(&b));
        assert_ne!(a.column, b.column);
        let c = g.decode(CACHE_LINE_BYTES);
        assert!(!a.same_row(&c));
    }

    #[test]
    fn offset_within_line_is_ignored() {
        let g = DramGeometry::paper();
        assert_eq!(g.decode(0x1000), g.decode(0x1003));
    }

    #[test]
    fn page_interleave_keeps_consecutive_lines_in_one_row() {
        let g = DramGeometry::paper_page_interleaved();
        let a = g.decode(0);
        for i in 1..64u32 {
            let b = g.decode(u64::from(i) * CACHE_LINE_BYTES);
            assert!(a.same_row(&b), "line {i} left the row");
            assert_eq!(b.column, i);
        }
        // Line 64 crosses the 4 KiB page: next channel.
        let c = g.decode(64 * CACHE_LINE_BYTES);
        assert!(!a.same_row(&c));
        assert_eq!(c.channel, 1);
    }

    #[test]
    fn page_interleave_fields_in_range() {
        let g = DramGeometry::paper_page_interleaved();
        for i in 0..10_000u64 {
            let loc = g.decode(i * 977 * CACHE_LINE_BYTES);
            assert!(loc.channel < g.channels);
            assert!(loc.bank < g.banks_per_channel());
            assert!((loc.column as u64) < g.lines_per_row());
        }
    }

    #[test]
    fn interleaves_differ() {
        let cl = DramGeometry::paper();
        let pg = DramGeometry::paper_page_interleaved();
        // Second line: different channel under cache-line interleave,
        // same row under page interleave.
        assert_ne!(cl.decode(64).channel, cl.decode(0).channel);
        assert!(pg.decode(64).same_row(&pg.decode(0)));
    }
}
