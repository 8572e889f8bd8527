//! The micro-op record consumed by the out-of-order core model.

use melreq_stats::types::Addr;

/// Operation classes, matching the functional units of Table 1
/// (4 IntALU, 2 IntMult, 2 FPALU, 1 FPMult) plus memory and control ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Single-cycle integer ALU op.
    IntAlu,
    /// Integer multiply/divide.
    IntMult,
    /// Floating-point add/compare.
    FpAlu,
    /// Floating-point multiply/divide.
    FpMult,
    /// Conditional branch; `mispredict` charges the front-end redirect
    /// penalty when true.
    Branch {
        /// Whether the hybrid predictor missed this branch.
        mispredict: bool,
    },
    /// Data-cache load from `addr`.
    Load {
        /// Byte address of the access.
        addr: Addr,
    },
    /// Data-cache store to `addr`.
    Store {
        /// Byte address of the access.
        addr: Addr,
    },
}

impl OpKind {
    /// Execution latency in cycles once operands are ready, for
    /// non-memory ops. Memory ops get their latency from the cache
    /// hierarchy; they return the address-generation latency here.
    pub fn exec_latency(&self) -> u64 {
        match self {
            OpKind::IntAlu => 1,
            OpKind::IntMult => 3,
            OpKind::FpAlu => 2,
            OpKind::FpMult => 4,
            OpKind::Branch { .. } => 1,
            // Address generation before the cache access.
            OpKind::Load { .. } | OpKind::Store { .. } => 1,
        }
    }

    /// Whether this op accesses the data cache.
    pub fn is_mem(&self) -> bool {
        matches!(self, OpKind::Load { .. } | OpKind::Store { .. })
    }

    /// The data address, if a memory op.
    pub fn mem_addr(&self) -> Option<Addr> {
        match self {
            OpKind::Load { addr } | OpKind::Store { addr } => Some(*addr),
            _ => None,
        }
    }

    /// Serialize the op class and operands (for checkpointing in-flight
    /// pipeline state).
    pub fn save_state(&self, enc: &mut melreq_snap::Enc) {
        match *self {
            OpKind::IntAlu => enc.u8(0),
            OpKind::IntMult => enc.u8(1),
            OpKind::FpAlu => enc.u8(2),
            OpKind::FpMult => enc.u8(3),
            OpKind::Branch { mispredict } => {
                enc.u8(4);
                enc.bool(mispredict);
            }
            OpKind::Load { addr } => {
                enc.u8(5);
                enc.u64(addr);
            }
            OpKind::Store { addr } => {
                enc.u8(6);
                enc.u64(addr);
            }
        }
    }

    /// Decode an op class written by [`OpKind::save_state`].
    pub fn load_state(dec: &mut melreq_snap::Dec<'_>) -> Result<Self, melreq_snap::SnapError> {
        Ok(match dec.u8()? {
            0 => OpKind::IntAlu,
            1 => OpKind::IntMult,
            2 => OpKind::FpAlu,
            3 => OpKind::FpMult,
            4 => OpKind::Branch { mispredict: dec.bool()? },
            5 => OpKind::Load { addr: dec.u64()? },
            6 => OpKind::Store { addr: dec.u64()? },
            t => return Err(melreq_snap::SnapError::BadTag(t)),
        })
    }
}

/// One micro-op of the synthetic program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicroOp {
    /// Program counter; drives the instruction-fetch stream (4-byte ops).
    pub pc: Addr,
    /// Operation class and operands.
    pub kind: OpKind,
    /// Register dependency: this op reads the result of the op `dep_dist`
    /// positions earlier in program order (0 = no register dependency).
    /// Small distances serialize execution (low ILP); 0 or large
    /// distances expose parallelism.
    pub dep_dist: u16,
}

impl MicroOp {
    /// Serialize this op (for checkpointing pipeline latches that hold a
    /// staged op).
    pub fn save_state(&self, enc: &mut melreq_snap::Enc) {
        let Self { pc, kind, dep_dist } = self;
        enc.u64(*pc);
        kind.save_state(enc);
        enc.u16(*dep_dist);
    }

    /// Decode an op written by [`MicroOp::save_state`].
    pub fn load_state(dec: &mut melreq_snap::Dec<'_>) -> Result<Self, melreq_snap::SnapError> {
        let pc = dec.u64()?;
        let kind = OpKind::load_state(dec)?;
        Ok(MicroOp { pc, kind, dep_dist: dec.u16()? })
    }
}

/// The address regions a program will touch, so a simulator can
/// functionally pre-warm its caches (the stand-in for the checkpoint
/// warm-up that SimPoint-based simulation performs before measuring).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmHints {
    /// Start of the data working set.
    pub data_base: Addr,
    /// Length of the data working set in bytes.
    pub data_len: u64,
    /// Start of the code footprint.
    pub code_base: Addr,
    /// Length of the code footprint in bytes.
    pub code_len: u64,
}

/// An infinite, reproducible stream of micro-ops — one synthetic program.
pub trait InstrStream {
    /// The next op in program order.
    fn next_op(&mut self) -> MicroOp;

    /// Human-readable program name (benchmark code in the workload
    /// tables).
    fn label(&self) -> &str;

    /// The program's address regions for functional cache warm-up;
    /// `None` when unknown (no pre-warming happens).
    fn warm_hints(&self) -> Option<WarmHints> {
        None
    }

    /// Serialize the stream's mutable generation state — cursor
    /// positions and RNG state, not construction parameters — so a
    /// system checkpoint can resume the op sequence exactly where it
    /// left off.
    fn save_state(&self, enc: &mut melreq_snap::Enc);

    /// Restore state written by [`InstrStream::save_state`] into a
    /// stream constructed with identical parameters.
    fn load_state(&mut self, dec: &mut melreq_snap::Dec<'_>) -> Result<(), melreq_snap::SnapError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies_match_unit_classes() {
        assert_eq!(OpKind::IntAlu.exec_latency(), 1);
        assert!(OpKind::IntMult.exec_latency() > OpKind::IntAlu.exec_latency());
        assert!(OpKind::FpMult.exec_latency() > OpKind::FpAlu.exec_latency());
    }

    #[test]
    fn mem_predicates() {
        let l = OpKind::Load { addr: 0x100 };
        let s = OpKind::Store { addr: 0x200 };
        assert!(l.is_mem() && s.is_mem());
        assert!(!OpKind::IntAlu.is_mem());
        assert_eq!(l.mem_addr(), Some(0x100));
        assert_eq!(s.mem_addr(), Some(0x200));
        assert_eq!(OpKind::Branch { mispredict: false }.mem_addr(), None);
    }
}
