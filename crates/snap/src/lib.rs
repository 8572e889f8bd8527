//! Binary snapshot codec for system checkpoints.
//!
//! Every simulation crate serializes its mutable state through the
//! [`Enc`]/[`Dec`] pair defined here, so a whole-system checkpoint is a
//! single flat byte buffer with no external dependencies. The format is
//! deliberately dumb: fixed-width little-endian fields written in struct
//! order, no field tags, no self-description. Compatibility is governed
//! entirely by [`SCHEMA_VERSION`] — any change to what any crate writes
//! must bump it, which invalidates every persisted checkpoint (the store
//! keys include the version, so stale files are simply never matched).
//!
//! [`seal`]/[`open`] wrap a payload in a container with a magic number,
//! the schema version and an FNV-1a checksum, so a truncated or corrupted
//! file on disk is rejected up front instead of mis-decoding. A
//! [`Sealed`] is a container that has passed (or was built by) them, so
//! in-process hand-offs do not pay the checksum again.
//!
//! A snapshotted struct states its field order once, in a `state` walk
//! over an [`Archive`]: [`Enc`] writes each field it is handed, [`Dec`]
//! overwrites it, and [`Archive::loading`] marks what runs one way only
//! (load-time checks, rebuilding derived state). The walk opens by
//! destructuring `self` exhaustively, so the compiler checks snapshot
//! coverage: a field the pattern does not name is error E0027, and a
//! field it binds but never uses is an `unused_variables` error under the
//! workspace's `warnings = deny`. A field deliberately left out is bound
//! as `field: _`, with a comment saying why.
//!
//! ```compile_fail,E0027
//! use melreq_snap::{Archive, SnapError};
//! struct Bank {
//!     open_row: u64,
//!     ready_at: u64, // added, but not snapshotted
//! }
//! impl Bank {
//!     fn state<A: Archive>(&mut self, ar: &mut A) -> Result<(), SnapError> {
//!         let Self { open_row } = self;
//!         ar.u64(open_row)
//!     }
//! }
//! ```
//!
//! What the walks write is pinned byte for byte by the snapshot pins in
//! `crates/core/tests/determinism.rs`: bytes that move there bump
//! `SCHEMA_VERSION` and re-capture the pins.

/// Bump on ANY change to what any crate's `state` walk writes. Persisted
/// checkpoints and profiles from other versions are ignored, never
/// migrated.
pub const SCHEMA_VERSION: u32 = 7;

/// Magic prefix of a sealed container ("MRQSNP" + 2 format bytes).
pub const MAGIC: [u8; 8] = *b"MRQSNP\x00\x01";

/// Decoding failure: the buffer does not match what the decoder expects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// Ran out of bytes mid-field.
    Truncated,
    /// A tag/bool/enum discriminant had an impossible value.
    BadTag(u8),
    /// Container magic or checksum mismatch, or version skew.
    BadContainer(&'static str),
    /// A decoded value violates a structural invariant (e.g. a length
    /// that disagrees with the configured capacity).
    Invalid(&'static str),
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::Truncated => write!(f, "snapshot truncated"),
            SnapError::BadTag(t) => write!(f, "invalid snapshot tag {t}"),
            SnapError::BadContainer(why) => write!(f, "bad snapshot container: {why}"),
            SnapError::Invalid(why) => write!(f, "invalid snapshot contents: {why}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Byte-buffer encoder. All integers are little-endian; `usize` is
/// widened to `u64` so 32- and 64-bit hosts produce identical bytes.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Self {
        Enc { buf: Vec::new() }
    }

    /// The bytes a save walk writes into a fresh encoder.
    pub fn save(walk: impl FnOnce(&mut Enc) -> Result<(), SnapError>) -> Vec<u8> {
        let mut enc = Enc::new();
        walk(&mut enc).expect("a save walk does not fail");
        enc.into_bytes()
    }

    /// Consume the encoder, returning the raw payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Drop what was written, keeping the buffer for the next writes.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `usize` as `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Write an `f64` as its exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Write a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Write an `Option<u64>` (presence byte + value).
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
            None => self.u8(0),
        }
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Write a length-prefixed byte string.
    pub fn bytes(&mut self, b: &[u8]) {
        self.usize(b.len());
        self.buf.extend_from_slice(b);
    }

    /// Write a length-prefixed `u16` slice.
    pub fn u16s(&mut self, vs: &[u16]) {
        self.usize(vs.len());
        self.buf.reserve(std::mem::size_of_val(vs));
        for v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Write a length-prefixed `i32` slice.
    pub fn i32s(&mut self, vs: &[i32]) {
        self.usize(vs.len());
        self.buf.reserve(std::mem::size_of_val(vs));
        for v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Write a length-prefixed `u64` slice.
    pub fn u64s(&mut self, vs: &[u64]) {
        self.usize(vs.len());
        for &v in vs {
            self.u64(v);
        }
    }

    /// Write a length-prefixed `f64` slice.
    pub fn f64s(&mut self, vs: &[f64]) {
        self.usize(vs.len());
        for &v in vs {
            self.f64(v);
        }
    }
}

/// Byte-buffer decoder over a payload produced by [`Enc`].
#[derive(Debug)]
pub struct Dec<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder positioned at the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Dec { data, pos: 0 }
    }

    /// Whether every byte has been consumed (load code asserts this at
    /// the end so silently-ignored trailing state is impossible).
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.data.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        let end = self.pos.checked_add(n).ok_or(SnapError::Truncated)?;
        if end > self.data.len() {
            return Err(SnapError::Truncated);
        }
        let s = &self.data[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a `usize` (stored as `u64`; rejects values that overflow the
    /// host `usize`).
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        usize::try_from(self.u64()?).map_err(|_| SnapError::Invalid("usize overflow"))
    }

    /// Read an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a `bool` (rejects bytes other than 0/1).
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(SnapError::BadTag(t)),
        }
    }

    /// Read an `Option<u64>`.
    pub fn opt_u64(&mut self) -> Result<Option<u64>, SnapError> {
        Ok(if self.bool()? { Some(self.u64()?) } else { None })
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapError> {
        let bytes = self.bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapError::Invalid("non-UTF-8 string"))
    }

    /// Read a length-prefixed byte string, in place.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.usize()?;
        self.take(n)
    }

    /// `n` elements of `W` little-endian bytes each, taken before anything
    /// is allocated for them.
    fn words<const W: usize>(&mut self) -> Result<impl Iterator<Item = [u8; W]> + 'a, SnapError> {
        let n = self.usize()?;
        let raw = self.take(n.checked_mul(W).ok_or(SnapError::Truncated)?)?;
        Ok(raw.chunks_exact(W).map(|w| w.try_into().expect("chunks of W bytes")))
    }

    /// Read a length-prefixed `u16` vector.
    pub fn u16s(&mut self) -> Result<Vec<u16>, SnapError> {
        Ok(self.words()?.map(u16::from_le_bytes).collect())
    }

    /// Read a length-prefixed `i32` vector.
    pub fn i32s(&mut self) -> Result<Vec<i32>, SnapError> {
        Ok(self.words()?.map(i32::from_le_bytes).collect())
    }

    /// Read a length-prefixed `u64` vector.
    pub fn u64s(&mut self) -> Result<Vec<u64>, SnapError> {
        let n = self.usize()?;
        (0..n).map(|_| self.u64()).collect()
    }

    /// Read a length-prefixed `f64` vector.
    pub fn f64s(&mut self) -> Result<Vec<f64>, SnapError> {
        let n = self.usize()?;
        (0..n).map(|_| self.f64()).collect()
    }
}

/// One `state` walk, run in either direction. Each field method takes
/// the field itself: [`Enc`] writes it and [`Dec`] overwrites it with the
/// next value of the payload, so a struct lists its fields once for both.
pub trait Archive {
    /// Whether this walk restores (`Dec`) rather than saves (`Enc`): what
    /// only a load does — checks, rebuilding derived state — runs under it.
    fn loading(&self) -> bool;
    /// One byte.
    fn u8(&mut self, v: &mut u8) -> Result<(), SnapError>;
    /// A `u16`.
    fn u16(&mut self, v: &mut u16) -> Result<(), SnapError>;
    /// A `u32`.
    fn u32(&mut self, v: &mut u32) -> Result<(), SnapError>;
    /// A `u64`.
    fn u64(&mut self, v: &mut u64) -> Result<(), SnapError>;
    /// A `usize`, as a `u64`.
    fn usize(&mut self, v: &mut usize) -> Result<(), SnapError>;
    /// An `f64`'s exact bit pattern.
    fn f64(&mut self, v: &mut f64) -> Result<(), SnapError>;
    /// A `bool` as one byte (a byte other than 0/1 is `BadTag`).
    fn bool(&mut self, v: &mut bool) -> Result<(), SnapError>;
    /// An `Option<u64>`: presence byte, then the value.
    fn opt_u64(&mut self, v: &mut Option<u64>) -> Result<(), SnapError>;
    /// A length-prefixed UTF-8 string.
    fn string(&mut self, v: &mut String) -> Result<(), SnapError>;

    /// A length the receiver already knows (a core count, a bank count):
    /// written as a `usize`, and on load anything but `n` is `why`.
    fn len(&mut self, n: usize, why: SnapError) -> Result<(), SnapError> {
        let mut got = n;
        self.usize(&mut got)?;
        if got == n {
            Ok(())
        } else {
            Err(why)
        }
    }

    /// A load-time check: on load, `why` unless `ok`. A save walk holds
    /// live state, which the checks describe, so it checks nothing.
    fn ensure(&self, ok: bool, why: SnapError) -> Result<(), SnapError> {
        if ok || !self.loading() {
            Ok(())
        } else {
            Err(why)
        }
    }

    /// A length-prefixed sequence, each element walked by `each`. On load
    /// a count past `bound`'s limit is its error, and `v` is replaced by
    /// elements walked from `T::default()` and pushed one at a time, so a
    /// forged count runs out of bytes instead of sizing an allocation.
    /// This is the one place a decoded count meets memory.
    fn seq<T: Default>(
        &mut self,
        v: &mut Vec<T>,
        bound: Option<(usize, SnapError)>,
        mut each: impl FnMut(&mut Self, &mut T) -> Result<(), SnapError>,
    ) -> Result<(), SnapError>
    where
        Self: Sized,
    {
        let mut n = v.len();
        self.usize(&mut n)?;
        if !self.loading() {
            return v.iter_mut().try_for_each(|x| each(self, x));
        }
        if let Some((max, why)) = bound {
            if n > max {
                return Err(why);
            }
        }
        v.clear();
        for _ in 0..n {
            let mut x = T::default();
            each(self, &mut x)?;
            v.push(x);
        }
        Ok(())
    }
}

/// The [`Archive`] field methods of [`Enc`] and [`Dec`]: each forwards to
/// the inherent method of the same name.
macro_rules! archive_fields {
    ($($name:ident: $ty:ty),*) => {
        impl Archive for Enc {
            #[inline]
            fn loading(&self) -> bool {
                false
            }
            $(
                #[inline]
                fn $name(&mut self, v: &mut $ty) -> Result<(), SnapError> {
                    Enc::$name(self, *v);
                    Ok(())
                }
            )*
            fn string(&mut self, v: &mut String) -> Result<(), SnapError> {
                Enc::str(self, v);
                Ok(())
            }
        }

        impl Archive for Dec<'_> {
            #[inline]
            fn loading(&self) -> bool {
                true
            }
            $(
                #[inline]
                fn $name(&mut self, v: &mut $ty) -> Result<(), SnapError> {
                    *v = Dec::$name(self)?;
                    Ok(())
                }
            )*
            fn string(&mut self, v: &mut String) -> Result<(), SnapError> {
                *v = Dec::str(self)?;
                Ok(())
            }
        }
    };
}

archive_fields!(
    u8: u8,
    u16: u16,
    u32: u32,
    u64: u64,
    usize: usize,
    f64: f64,
    bool: bool,
    opt_u64: Option<u64>
);

/// FNV-1a (64-bit) over `bytes`: the workspace's one hash, behind
/// container checksums, content-addressed store keys and, through
/// [`fnv1a_from`], the audit crate's event-stream hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(0xcbf2_9ce4_8422_2325, bytes)
}

/// FNV-1a continued over `bytes` from `seed`, the hash of what came
/// before: `fnv1a_from(fnv1a(a), b) == fnv1a(a ++ b)`, so a stream can be
/// hashed a piece at a time starting from `fnv1a(&[])`.
pub fn fnv1a_from(seed: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(seed, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Canonical content-addressed key: FNV-1a over
/// `"v{SCHEMA_VERSION}|{domain}|{canonical}"`.
///
/// This is the one key construction shared by every cache in the
/// workspace — the checkpoint store's warm-up and profile records and
/// the service layer's request keys all address content through it, so
/// a schema bump invalidates every derived key at once and two
/// subsystems can never collide as long as their `domain` differs.
pub fn keyed(domain: &str, canonical: &str) -> u64 {
    fnv1a(format!("v{SCHEMA_VERSION}|{domain}|{canonical}").as_bytes())
}

/// Escape `s` as the body of a JSON string literal (no quotes added).
/// The one escaper behind every machine-readable artifact the workspace
/// writes; it lives in this dependency-free leaf so each emitter can
/// reach it.
pub fn json_esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Bytes of a container before its payload.
const HEADER: usize = 28;

/// Wrap `payload` in a self-checking container:
/// `MAGIC · SCHEMA_VERSION · payload-len · FNV-1a(payload) · payload`.
pub fn seal(payload: &[u8]) -> Vec<u8> {
    [&header(payload)[..], payload].concat()
}

/// What [`seal`] puts before `payload`, for a writer that sends the two
/// out without joining them.
pub fn header(payload: &[u8]) -> [u8; HEADER] {
    let mut out = [0; HEADER];
    out[..8].copy_from_slice(&MAGIC);
    out[8..12].copy_from_slice(&SCHEMA_VERSION.to_le_bytes());
    out[12..20].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    out[20..].copy_from_slice(&fnv1a(payload).to_le_bytes());
    out
}

/// Validate a sealed container and return its payload slice. Rejects
/// wrong magic, version skew, truncation and checksum mismatches.
pub fn open(container: &[u8]) -> Result<&[u8], SnapError> {
    if container.len() < HEADER {
        return Err(SnapError::BadContainer("too short"));
    }
    if container[..8] != MAGIC {
        return Err(SnapError::BadContainer("bad magic"));
    }
    let version = u32::from_le_bytes(container[8..12].try_into().unwrap());
    if version != SCHEMA_VERSION {
        return Err(SnapError::BadContainer("schema version mismatch"));
    }
    let len = u64::from_le_bytes(container[12..20].try_into().unwrap());
    let sum = u64::from_le_bytes(container[20..28].try_into().unwrap());
    let payload = &container[HEADER..];
    if payload.len() as u64 != len {
        return Err(SnapError::BadContainer("length mismatch"));
    }
    if fnv1a(payload) != sum {
        return Err(SnapError::BadContainer("checksum mismatch"));
    }
    Ok(payload)
}

/// A container known to be whole: only [`seal`]ing a payload or
/// [`open`]ing bytes successfully makes one, so code that is handed a
/// `Sealed` reads its payload without running the checksum again. Bytes
/// from outside the process (a store file, a request body) become one at
/// the point they enter, and are checked there exactly once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sealed(Vec<u8>);

impl Sealed {
    /// [`seal`] `payload`.
    pub fn seal(payload: &[u8]) -> Self {
        Sealed(seal(payload))
    }

    /// [`open`] `container` and keep it.
    pub fn open(container: Vec<u8>) -> Result<Self, SnapError> {
        open(&container)?;
        Ok(Sealed(container))
    }

    /// The payload, as [`open`] returns it.
    pub fn payload(&self) -> &[u8] {
        &self.0[HEADER..]
    }

    /// The whole container.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// The whole container, given up.
    pub fn into_bytes(self) -> Vec<u8> {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_field_types() {
        let mut e = Enc::new();
        e.u8(7);
        e.u16(300);
        e.u32(1 << 20);
        e.u64(u64::MAX - 1);
        e.usize(12345);
        e.f64(-0.125);
        e.bool(true);
        e.bool(false);
        e.opt_u64(Some(9));
        e.opt_u64(None);
        e.str("hello ✓");
        e.u64s(&[1, 2, 3]);
        e.f64s(&[0.5, -1.0]);
        e.bytes(b"raw");
        e.u16s(&[0, 1, u16::MAX]);
        e.i32s(&[i32::MIN, -1, 0, i32::MAX]);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u16().unwrap(), 300);
        assert_eq!(d.u32().unwrap(), 1 << 20);
        assert_eq!(d.u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.usize().unwrap(), 12345);
        assert_eq!(d.f64().unwrap(), -0.125);
        assert!(d.bool().unwrap());
        assert!(!d.bool().unwrap());
        assert_eq!(d.opt_u64().unwrap(), Some(9));
        assert_eq!(d.opt_u64().unwrap(), None);
        assert_eq!(d.str().unwrap(), "hello ✓");
        assert_eq!(d.u64s().unwrap(), vec![1, 2, 3]);
        assert_eq!(d.f64s().unwrap(), vec![0.5, -1.0]);
        assert_eq!(d.bytes().unwrap(), b"raw");
        assert_eq!(d.u16s().unwrap(), vec![0, 1, u16::MAX]);
        assert_eq!(d.i32s().unwrap(), vec![i32::MIN, -1, 0, i32::MAX]);
        assert!(d.is_exhausted());
    }

    #[test]
    fn a_count_past_the_bytes_fails_before_allocating() {
        for count in [3, u64::MAX / 2, u64::MAX] {
            let mut e = Enc::new();
            e.u64(count);
            e.u16(1);
            let bytes = e.into_bytes();
            assert_eq!(Dec::new(&bytes).u16s(), Err(SnapError::Truncated));
            assert_eq!(Dec::new(&bytes).i32s(), Err(SnapError::Truncated));
            assert_eq!(Dec::new(&bytes).bytes(), Err(SnapError::Truncated));
        }
    }

    /// Two fields, a list the receiver bounds and one it knows the
    /// length of, walked one way for both directions.
    #[derive(Debug, Default, PartialEq)]
    struct Walked {
        id: u16,
        name: String,
        list: Vec<u64>,
        known: [bool; 2],
    }

    impl Walked {
        fn state<A: Archive>(&mut self, ar: &mut A) -> Result<(), SnapError> {
            let Self { id, name, list, known } = self;
            ar.u16(id)?;
            ar.string(name)?;
            ar.seq(list, Some((3, SnapError::Invalid("list too long"))), A::u64)?;
            ar.len(known.len(), SnapError::Invalid("known length"))?;
            known.iter_mut().try_for_each(|k| ar.bool(k))?;
            ar.ensure(*id != 0, SnapError::Invalid("id zero"))
        }
    }

    #[test]
    fn a_walk_restores_what_it_saves_and_checks_only_on_load() {
        let mut saved =
            Walked { id: 7, name: "seven".into(), list: vec![1, 2], known: [true, false] };
        let bytes = Enc::save(|enc| saved.state(enc));
        let mut manual = Enc::new();
        manual.u16(7);
        manual.str("seven");
        manual.u64s(&[1, 2]);
        manual.usize(2);
        manual.bool(true);
        manual.bool(false);
        assert_eq!(bytes, manual.into_bytes(), "a walk writes what the inherent methods write");
        let mut loaded = Walked { list: vec![9; 5], ..Walked::default() };
        let mut dec = Dec::new(&bytes);
        loaded.state(&mut dec).unwrap();
        assert!(dec.is_exhausted());
        assert_eq!(loaded, saved);
        // A save checks nothing; a load checks everything.
        let mut zero = Walked { id: 0, ..Walked::default() };
        let bytes = Enc::save(|enc| zero.state(enc));
        assert_eq!(zero.state(&mut Dec::new(&bytes)), Err(SnapError::Invalid("id zero")));
        let mut long = Walked { list: vec![0; 4], ..saved };
        let bytes = Enc::save(|enc| long.state(enc));
        assert_eq!(long.state(&mut Dec::new(&bytes)), Err(SnapError::Invalid("list too long")));
    }

    #[test]
    fn a_forged_sequence_count_runs_out_of_bytes() {
        let mut e = Enc::new();
        e.u64(1 << 40);
        e.u64(5);
        let bytes = e.into_bytes();
        let mut list = Vec::new();
        let got = Dec::new(&bytes).seq(&mut list, None, |ar, x: &mut u64| Archive::u64(ar, x));
        assert_eq!(got, Err(SnapError::Truncated));
        assert_eq!(list, [5], "elements are pushed as they decode");
    }

    #[test]
    fn f64_bit_patterns_survive() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, f64::MIN_POSITIVE] {
            let mut e = Enc::new();
            e.f64(v);
            let b = e.into_bytes();
            let got = Dec::new(&b).f64().unwrap();
            assert_eq!(got.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn truncation_is_detected() {
        let mut e = Enc::new();
        e.u64(42);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes[..7]);
        assert_eq!(d.u64(), Err(SnapError::Truncated));
    }

    #[test]
    fn bad_bool_tag_rejected() {
        let mut d = Dec::new(&[2]);
        assert_eq!(d.bool(), Err(SnapError::BadTag(2)));
    }

    #[test]
    fn seal_open_roundtrip() {
        let payload = b"state bytes";
        let sealed = seal(payload);
        assert_eq!(open(&sealed).unwrap(), payload);
    }

    #[test]
    fn open_rejects_corruption() {
        let mut sealed = seal(b"abcdef");
        // Flip a payload bit: checksum must catch it.
        *sealed.last_mut().unwrap() ^= 1;
        assert!(matches!(open(&sealed), Err(SnapError::BadContainer("checksum mismatch"))));
        // Truncate: length check must catch it.
        let sealed = seal(b"abcdef");
        assert!(open(&sealed[..sealed.len() - 1]).is_err());
        // Wrong magic.
        let mut bad = seal(b"x");
        bad[0] = b'Z';
        assert!(matches!(open(&bad), Err(SnapError::BadContainer("bad magic"))));
        // Wrong version.
        let mut skew = seal(b"x");
        skew[8] = skew[8].wrapping_add(1);
        assert!(matches!(open(&skew), Err(SnapError::BadContainer("schema version mismatch"))));
    }

    #[test]
    fn sealed_is_what_seal_and_open_agree_on() {
        let sealed = Sealed::seal(b"state bytes");
        assert_eq!(sealed.as_bytes(), seal(b"state bytes"));
        assert_eq!(sealed.payload(), b"state bytes");
        assert_eq!(Sealed::open(sealed.clone().into_bytes()), Ok(sealed.clone()));
        let mut torn = sealed.into_bytes();
        torn.pop();
        assert_eq!(Sealed::open(torn), Err(SnapError::BadContainer("length mismatch")));
        assert!(Sealed::open(Vec::new()).is_err());
    }

    #[test]
    fn fnv_matches_known_vector() {
        // FNV-1a("a") from the reference implementation.
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a_from(fnv1a(b"ab"), b"c"), fnv1a(b"abc"));
    }
}
