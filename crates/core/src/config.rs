//! Whole-system configuration (Table 1).

use melreq_cache::CacheConfig;
use melreq_cpu::CoreConfig;
use melreq_dram::{DramGeometry, DramTiming};
use melreq_memctrl::controller::ControllerConfig;
use melreq_memctrl::policy::PolicyKind;

/// Every structural and timing parameter of the simulated machine.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Number of cores (1/2/4/8 in the paper).
    pub cores: usize,
    /// Core microarchitecture.
    pub core: CoreConfig,
    /// L1 instruction cache (per core).
    pub l1i: CacheConfig,
    /// L1 data cache (per core).
    pub l1d: CacheConfig,
    /// Shared L2.
    pub l2: CacheConfig,
    /// DRAM geometry.
    pub geometry: DramGeometry,
    /// DRAM timing (in CPU cycles).
    pub timing: DramTiming,
    /// Memory-controller buffering and thresholds.
    pub ctrl: ControllerConfig,
    /// Scheduling policy under test.
    pub policy: PolicyKind,
    /// Core clock in Hz (for GB/s conversion only).
    pub freq_hz: f64,
    /// Seed for the policy's tie-breaker RNG.
    pub seed: u64,
}

impl SystemConfig {
    /// The paper's machine with `cores` cores and the given policy.
    pub fn paper(cores: usize, policy: PolicyKind) -> Self {
        SystemConfig {
            cores,
            core: CoreConfig::paper(),
            l1i: CacheConfig::l1i_paper(),
            l1d: CacheConfig::l1d_paper(),
            l2: CacheConfig::l2_paper(),
            geometry: DramGeometry::paper(),
            timing: DramTiming::ddr2_800_at_3_2ghz(),
            ctrl: ControllerConfig::paper(),
            policy,
            freq_hz: 3.2e9,
            seed: 0xC0FFEE,
        }
    }

    /// Validate cross-component invariants.
    pub fn validate(&self) {
        assert!(self.cores >= 1, "need at least one core");
        assert!(self.cores <= 64, "priority tables support up to 64 cores");
        self.core.validate();
        self.l1i.validate();
        self.l1d.validate();
        self.l2.validate();
        assert!(self.freq_hz > 0.0, "core frequency must be positive");
    }

    /// Render the Table 1 parameter dump (used by the quickstart example).
    pub fn describe(&self) -> String {
        format!(
            "cores: {} x {}-issue (ROB {}, IQ {}, LQ/SQ {}/{})\n\
             L1I/L1D: {}KB/{}KB {}-way, L2: {}MB {}-way shared\n\
             memory: {} logical channels x {} banks, DDR2 {}-{}-{} (cpu cycles), burst {}\n\
             controller: {}-entry buffer, drain at {}/{}, overhead {} cycles, policy {}",
            self.cores,
            self.core.width,
            self.core.rob,
            self.core.iq,
            self.core.lq,
            self.core.sq,
            self.l1i.size_bytes >> 10,
            self.l1d.size_bytes >> 10,
            self.l1d.ways,
            self.l2.size_bytes >> 20,
            self.l2.ways,
            self.geometry.channels,
            self.geometry.banks_per_channel(),
            self.timing.t_cl,
            self.timing.t_rcd,
            self.timing.t_rp,
            self.timing.burst,
            self.ctrl.buffer_entries,
            self.ctrl.drain_start,
            self.ctrl.drain_stop,
            self.ctrl.overhead,
            self.policy.name(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_validate() {
        for cores in [1, 2, 4, 8] {
            SystemConfig::paper(cores, PolicyKind::HfRf).validate();
        }
    }

    #[test]
    fn describe_mentions_policy() {
        let c = SystemConfig::paper(4, PolicyKind::MeLreq);
        assert!(c.describe().contains("ME-LREQ"));
        assert!(c.describe().contains("64-entry"));
    }
}
