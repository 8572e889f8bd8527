//! Primitive simulation types shared by every `melreq` crate.
//!
//! The whole simulator runs in a single clock domain: the CPU clock
//! (3.2 GHz in the paper's Table 1 configuration). DRAM timing parameters
//! are expressed in CPU cycles by the configuration layer, so a [`Cycle`]
//! is unambiguous everywhere.

/// A point in simulated time, measured in CPU cycles since reset.
pub type Cycle = u64;

/// A physical byte address.
pub type Addr = u64;

/// Cache lines are 64 bytes in every cache level and in the DRAM burst
/// length (Table 1 of the paper).
pub const CACHE_LINE_BYTES: u64 = 64;

/// `log2(CACHE_LINE_BYTES)`.
pub const CACHE_LINE_SHIFT: u32 = 6;

/// Identifies a processor core (and, under the paper's one-program-per-core
/// methodology, the program running on it).
///
/// A newtype rather than a bare `usize` so that core indices, bank indices
/// and queue indices cannot be accidentally interchanged.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(pub u16);

impl CoreId {
    /// The core index as a `usize`, for indexing per-core state vectors.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for CoreId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "core{}", self.0)
    }
}

impl From<usize> for CoreId {
    fn from(v: usize) -> Self {
        debug_assert!(v <= u16::MAX as usize, "core index out of range");
        CoreId(v as u16)
    }
}

/// Direction of a memory-system access.
///
/// Instruction fetches are reads; the distinction the scheduling policies
/// care about is read (processor-blocking) versus write (buffered), per
/// Section 2 of the paper ("read requests will cause the processor to
/// stall and write requests normally can be well handled by write
/// buffers").
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A demand read (data load miss, instruction fetch miss, or a line
    /// fetch triggered by a write-allocate store miss).
    #[default]
    Read,
    /// A write-back of a dirty line evicted from the last-level cache.
    Write,
}

impl AccessKind {
    /// `true` for [`AccessKind::Read`].
    #[inline]
    pub fn is_read(self) -> bool {
        matches!(self, AccessKind::Read)
    }

    /// `true` for [`AccessKind::Write`].
    #[inline]
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

impl std::fmt::Display for AccessKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccessKind::Read => write!(f, "read"),
            AccessKind::Write => write!(f, "write"),
        }
    }
}

/// Checked addition on cycle/timing values.
///
/// Cycle arithmetic in the DRAM timing path wraps silently in release
/// builds if it overflows; an overflowed `ready_at` horizon would quietly
/// reorder grants instead of crashing. This helper (and [`cyc_mul`]) make
/// overflow loud everywhere, matching the [`u64::checked_mul`] precedent in
/// `DramTiming::scaled`.
///
/// # Panics
/// Panics if `a + b` overflows [`Cycle`] — a simulated time that far past
/// `u64::MAX` is a caller bug, not a timing.
#[inline]
#[track_caller]
pub fn cyc_add(a: Cycle, b: Cycle) -> Cycle {
    a.checked_add(b).expect("cycle arithmetic overflows u64")
}

/// Checked multiplication on cycle/timing values; see [`cyc_add`].
///
/// # Panics
/// Panics if `a * b` overflows [`Cycle`].
#[inline]
#[track_caller]
pub fn cyc_mul(a: Cycle, b: Cycle) -> Cycle {
    a.checked_mul(b).expect("cycle arithmetic overflows u64")
}

/// Round `addr` down to the containing cache-line address.
#[inline]
pub fn line_addr(addr: Addr) -> Addr {
    addr & !(CACHE_LINE_BYTES - 1)
}

/// The cache-line index of `addr` (address divided by the line size).
#[inline]
pub fn line_index(addr: Addr) -> u64 {
    addr >> CACHE_LINE_SHIFT
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_constants_consistent() {
        assert_eq!(1u64 << CACHE_LINE_SHIFT, CACHE_LINE_BYTES);
    }

    #[test]
    fn line_addr_masks_offset() {
        assert_eq!(line_addr(0), 0);
        assert_eq!(line_addr(63), 0);
        assert_eq!(line_addr(64), 64);
        assert_eq!(line_addr(0x12345), 0x12340);
    }

    #[test]
    fn line_index_is_shift() {
        assert_eq!(line_index(0), 0);
        assert_eq!(line_index(64), 1);
        assert_eq!(line_index(130), 2);
    }

    #[test]
    fn core_id_roundtrip() {
        let c: CoreId = 7usize.into();
        assert_eq!(c.index(), 7);
        assert_eq!(c.to_string(), "core7");
    }

    #[test]
    fn access_kind_predicates() {
        assert!(AccessKind::Read.is_read());
        assert!(!AccessKind::Read.is_write());
        assert!(AccessKind::Write.is_write());
        assert!(!AccessKind::Write.is_read());
        assert_eq!(AccessKind::Read.to_string(), "read");
        assert_eq!(AccessKind::Write.to_string(), "write");
    }

    #[test]
    fn core_id_ordering_matches_index() {
        assert!(CoreId(0) < CoreId(1));
        assert!(CoreId(3) > CoreId(2));
    }

    #[test]
    fn cyc_helpers_compute() {
        assert_eq!(cyc_add(40, 16), 56);
        assert_eq!(cyc_mul(24_960, 3), 74_880);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn cyc_add_overflow_is_loud() {
        let _ = cyc_add(u64::MAX, 1);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn cyc_mul_overflow_is_loud() {
        let _ = cyc_mul(u64::MAX / 2, 3);
    }
}
