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
//! Every `save_state` and `load_state` over a named-field struct opens
//! by destructuring `self` exhaustively, so the compiler checks snapshot
//! coverage: a field the pattern does not name is error E0027, and a
//! field it binds but never uses is an `unused_variables` error under the
//! workspace's `warnings = deny`. A field deliberately left out is bound
//! as `field: _`, with a comment saying why.
//!
//! ```compile_fail,E0027
//! struct Bank {
//!     open_row: u64,
//!     ready_at: u64, // added, but not snapshotted
//! }
//! impl Bank {
//!     fn save_state(&self, enc: &mut melreq_snap::Enc) {
//!         let Self { open_row } = self;
//!         enc.u64(*open_row);
//!     }
//! }
//! ```
//!
//! What the encoders write is pinned byte for byte by the snapshot pins
//! in `crates/core/tests/determinism.rs`: bytes that move there bump
//! `SCHEMA_VERSION` and re-capture the pins.

/// Bump on ANY change to any crate's `save_state` encoding. Persisted
/// checkpoints and profiles from other versions are ignored, never
/// migrated.
pub const SCHEMA_VERSION: u32 = 4;

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

    /// Consume the encoder, returning the raw payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
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

    /// Write a `u128`.
    pub fn u128(&mut self, v: u128) {
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

    /// Write an `Option<f64>` (presence byte + bits).
    pub fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.f64(x);
            }
            None => self.u8(0),
        }
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
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

    /// Read a `u128`.
    pub fn u128(&mut self) -> Result<u128, SnapError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
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

    /// Read an `Option<f64>`.
    pub fn opt_f64(&mut self) -> Result<Option<f64>, SnapError> {
        Ok(if self.bool()? { Some(self.f64()?) } else { None })
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapError> {
        let n = self.usize()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapError::Invalid("non-UTF-8 string"))
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

/// FNV-1a over `bytes` — the same construction the audit crate uses for
/// event-stream hashes, reused here for container checksums and for
/// content-addressed store keys.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
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
    let mut out = Vec::with_capacity(payload.len() + HEADER);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out.extend_from_slice(payload);
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
        e.u128(u128::MAX / 3);
        e.usize(12345);
        e.f64(-0.125);
        e.bool(true);
        e.bool(false);
        e.opt_u64(Some(9));
        e.opt_u64(None);
        e.opt_f64(Some(2.5));
        e.opt_f64(None);
        e.str("hello ✓");
        e.u64s(&[1, 2, 3]);
        e.f64s(&[0.5, -1.0]);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u16().unwrap(), 300);
        assert_eq!(d.u32().unwrap(), 1 << 20);
        assert_eq!(d.u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.u128().unwrap(), u128::MAX / 3);
        assert_eq!(d.usize().unwrap(), 12345);
        assert_eq!(d.f64().unwrap(), -0.125);
        assert!(d.bool().unwrap());
        assert!(!d.bool().unwrap());
        assert_eq!(d.opt_u64().unwrap(), Some(9));
        assert_eq!(d.opt_u64().unwrap(), None);
        assert_eq!(d.opt_f64().unwrap(), Some(2.5));
        assert_eq!(d.opt_f64().unwrap(), None);
        assert_eq!(d.str().unwrap(), "hello ✓");
        assert_eq!(d.u64s().unwrap(), vec![1, 2, 3]);
        assert_eq!(d.f64s().unwrap(), vec![0.5, -1.0]);
        assert!(d.is_exhausted());
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
    }
}
