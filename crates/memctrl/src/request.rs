//! Memory request records.

use melreq_dram::Location;
use melreq_snap::{Archive, SnapError};
use melreq_stats::types::{AccessKind, Addr, CoreId, Cycle};

/// Unique identifier of an in-flight memory request.
///
/// Ids are issued sequentially by the component that creates requests
/// (the cache hierarchy), so they double as an arrival sequence number:
/// comparing ids of two queued requests gives their arrival order even
/// when both arrived on the same cycle.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReqId(pub u64);

/// One memory transaction (a 64-byte line read or write-back).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Unique id, monotone in arrival order.
    pub id: ReqId,
    /// The core whose program generated the request. Write-backs carry
    /// the core that originally dirtied the line.
    pub core: CoreId,
    /// Physical address (line-aligned by the cache hierarchy).
    pub addr: Addr,
    /// Pre-decoded DRAM coordinates of the line.
    pub loc: Location,
    /// Read (demand miss / fetch) or write (dirty write-back).
    pub kind: AccessKind,
    /// Cycle the request entered the controller buffer.
    pub arrival: Cycle,
}

impl MemRequest {
    /// Shorthand used widely by policies.
    #[inline]
    pub fn is_read(&self) -> bool {
        self.kind.is_read()
    }

    /// Walk one queued request ([`Archive`]).
    pub(crate) fn state<A: Archive>(&mut self, ar: &mut A) -> Result<(), SnapError> {
        let Self { id, core, addr, loc, kind, arrival } = self;
        let Location { channel, bank, row, column } = loc;
        ar.u64(&mut id.0)?;
        ar.u16(&mut core.0)?;
        ar.u64(addr)?;
        ar.usize(channel)?;
        ar.usize(bank)?;
        ar.u64(row)?;
        ar.u32(column)?;
        let mut read = kind.is_read();
        ar.bool(&mut read)?;
        *kind = if read { AccessKind::Read } else { AccessKind::Write };
        ar.u64(arrival)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use melreq_dram::DramGeometry;

    #[test]
    fn ids_order_like_arrival() {
        assert!(ReqId(1) < ReqId(2));
    }

    #[test]
    fn request_predicates() {
        let g = DramGeometry::paper();
        let r = MemRequest {
            id: ReqId(0),
            core: CoreId(1),
            addr: 0x40,
            loc: g.decode(0x40),
            kind: AccessKind::Read,
            arrival: 10,
        };
        assert!(r.is_read());
        let w = MemRequest { kind: AccessKind::Write, ..r };
        assert!(!w.is_read());
    }
}
