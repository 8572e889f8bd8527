//! DRAM timing parameters, expressed in CPU cycles.
//!
//! The paper's Table 1 gives DDR2-800 "5-5-5" timing with 12.5 ns each for
//! precharge (tRP), row access (tRCD) and column access (tCL), a 3.2 GHz
//! core clock, and a 16-byte data path per logical channel at 800 MT/s.
//! All parameters here are pre-converted to CPU cycles so the simulator
//! runs in a single clock domain.

// A01 (DESIGN.md "Determinism rules"): cycle horizons are computed
// here, where a silent wrap corrupts timing instead of crashing; use
// the checked `cyc_add`.
#![deny(clippy::arithmetic_side_effects)]

use melreq_stats::types::{cyc_add, Cycle, CACHE_LINE_BYTES};

/// Timing parameters for one DRAM technology/configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramTiming {
    /// Row-to-column delay (ACT → READ/WRITE), CPU cycles.
    pub t_rcd: Cycle,
    /// CAS latency (READ → first data beat), CPU cycles.
    pub t_cl: Cycle,
    /// Precharge time (PRE → next ACT), CPU cycles.
    pub t_rp: Cycle,
    /// Write recovery (last write data beat → PRE), CPU cycles.
    pub t_wr: Cycle,
    /// Data-bus occupancy of one cache-line burst, CPU cycles.
    pub burst: Cycle,
}

impl DramTiming {
    /// The paper's configuration: DDR2-800 5-5-5 behind a 3.2 GHz core.
    ///
    /// * 12.5 ns at 3.2 GHz = 40 cycles for each of tRCD/tCL/tRP;
    /// * a 64 B line over a 16 B/transfer channel at 800 MT/s takes
    ///   4 transfers × 1.25 ns = 5 ns = 16 CPU cycles;
    /// * tWR for DDR2-800 is 15 ns = 48 CPU cycles.
    pub fn ddr2_800_at_3_2ghz() -> Self {
        DramTiming { t_rcd: 40, t_cl: 40, t_rp: 40, t_wr: 48, burst: 16 }
    }

    /// Latency from grant to first data for a row-buffer hit (column
    /// access only).
    pub fn hit_to_data(&self) -> Cycle {
        self.t_cl
    }

    /// Latency from grant to first data when the bank is idle (activate
    /// then column access).
    pub fn idle_to_data(&self) -> Cycle {
        cyc_add(self.t_rcd, self.t_cl)
    }

    /// Latency from grant to first data when a different row is open
    /// (precharge, activate, column access).
    pub fn conflict_to_data(&self) -> Cycle {
        cyc_add(self.t_rp, self.idle_to_data())
    }

    /// Peak bandwidth of one logical channel in bytes per CPU cycle.
    pub fn peak_bytes_per_cycle(&self) -> f64 {
        CACHE_LINE_BYTES as f64 / self.burst as f64
    }
}

impl Default for DramTiming {
    fn default() -> Self {
        Self::ddr2_800_at_3_2ghz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table_1() {
        let t = DramTiming::ddr2_800_at_3_2ghz();
        assert_eq!(t.t_rcd, 40);
        assert_eq!(t.t_cl, 40);
        assert_eq!(t.t_rp, 40);
        assert_eq!(t.burst, 16);
    }

    #[test]
    fn latency_classes_are_ordered() {
        let t = DramTiming::default();
        assert!(t.hit_to_data() < t.idle_to_data());
        assert!(t.idle_to_data() < t.conflict_to_data());
    }

    #[test]
    fn peak_bandwidth_is_12_8_gbs() {
        // 64 B / 16 cycles * 3.2e9 cycles/s = 12.8 GB/s.
        let t = DramTiming::default();
        let gbs = t.peak_bytes_per_cycle() * 3.2e9 / 1e9;
        assert!((gbs - 12.8).abs() < 1e-9);
    }
}
