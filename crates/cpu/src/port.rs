//! The core ↔ memory-hierarchy interface.

use melreq_stats::types::{Addr, CoreId, Cycle};

/// Handle the core attaches to an outstanding access so it can resume the
/// right consumer when the hierarchy completes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoreToken {
    /// A data load; the payload is the micro-op's sequence number.
    Load(u64),
    /// An instruction-fetch line fill.
    Fetch,
}

/// Outcome of starting an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemResponse {
    /// The access hits in the first-level cache; data is ready at the
    /// given cycle.
    HitAt(Cycle),
    /// The access missed and is in flight; the hierarchy will call
    /// [`crate::Core::finish`] with the token when data returns.
    Pending,
    /// No resources (MSHR full, queue full): retry next cycle.
    Blocked,
}

/// What the core needs from the memory system. Implemented in
/// `melreq-core` by the two-level cache hierarchy + memory controller.
pub trait CoreMemory {
    /// Start a data load.
    fn load(&mut self, core: CoreId, token: CoreToken, addr: Addr, now: Cycle) -> MemResponse;

    /// Start an instruction-line fetch.
    fn ifetch(&mut self, core: CoreId, token: CoreToken, addr: Addr, now: Cycle) -> MemResponse;

    /// Retire a store into the hierarchy (write-allocate, buffered).
    /// Returns `false` when the hierarchy cannot accept it this cycle.
    fn store(&mut self, core: CoreId, addr: Addr, now: Cycle) -> bool;
}

/// A trivially-hitting memory for unit tests and IPC upper-bound studies:
/// every access hits with a fixed latency.
#[derive(Debug, Clone)]
pub struct PerfectMemory {
    /// Load-to-use latency applied to every access.
    pub latency: Cycle,
}

impl CoreMemory for PerfectMemory {
    fn load(&mut self, _core: CoreId, _token: CoreToken, _addr: Addr, now: Cycle) -> MemResponse {
        MemResponse::HitAt(now + self.latency)
    }

    fn ifetch(&mut self, _core: CoreId, _token: CoreToken, _addr: Addr, now: Cycle) -> MemResponse {
        MemResponse::HitAt(now + 1)
    }

    fn store(&mut self, _core: CoreId, _addr: Addr, _now: Cycle) -> bool {
        true
    }
}

/// The memory a sleeping core is ticked against in debug builds (see
/// [`crate::Core::sleep_cycle`]): a core that reaches for memory while
/// the kernel holds it asleep has outrun its wake bound.
#[derive(Debug)]
pub(crate) struct AsleepMemory;

impl CoreMemory for AsleepMemory {
    fn load(&mut self, core: CoreId, _token: CoreToken, addr: Addr, now: Cycle) -> MemResponse {
        panic!("core {} issued a load of {addr:#x} at cycle {now} while asleep", core.0)
    }

    fn ifetch(&mut self, core: CoreId, _token: CoreToken, addr: Addr, now: Cycle) -> MemResponse {
        panic!("core {} fetched {addr:#x} at cycle {now} while asleep", core.0)
    }

    fn store(&mut self, core: CoreId, addr: Addr, now: Cycle) -> bool {
        panic!("core {} retired a store to {addr:#x} at cycle {now} while asleep", core.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_memory_always_hits() {
        let mut m = PerfectMemory { latency: 3 };
        assert_eq!(m.load(CoreId(0), CoreToken::Load(0), 0x40, 10), MemResponse::HitAt(13));
        assert_eq!(m.ifetch(CoreId(0), CoreToken::Fetch, 0x80, 10), MemResponse::HitAt(11));
        assert!(m.store(CoreId(0), 0x100, 10));
    }
}
