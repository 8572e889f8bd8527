//! One generated op sequence, read by many.
//!
//! The runs forked from one warm-up boundary all restore the same
//! generator state and would each re-draw the same ops. An [`OpTape`]
//! owns one generator and records what it produces; every run reads the
//! record through a [`TapedStream`], so each op is generated once per
//! group instead of once per run.
//!
//! The tape grows lazily in chunks of [`CHUNK_OPS`] ops under a mutex
//! that readers take only at chunk boundaries; whichever reader first
//! needs a chunk generates it. Content is a pure function of position,
//! so what a reader sees does not depend on who generated it or when. A
//! chunk is stored losslessly but packed (see `Chunk`), and a tape
//! stops growing at [`TAPE_BYTE_CAP`]: a reader that runs off its end
//! continues on a private generator restored from the tape's end state.
//! A tape's record ([`OpTape::encode`], [`OpTape::decode`]) outlives the
//! process, so a later one replays what this one generated.

use crate::op::{InstrStream, MicroOp, OpKind, WarmHints};
use melreq_snap::{Archive, Dec, Enc, SnapError};
use std::sync::{Arc, Mutex};

/// Ops per chunk: the unit of generation and of locking.
pub const CHUNK_OPS: usize = 4096;

/// Packed bytes past which a tape stops growing. The longest tape of a
/// default-options `reproduce` packs to 11.6 MB (in `8MEM-6`), so the
/// sweep never reaches it, while a paper-scale window cannot grow a
/// group's memory without bound.
pub const TAPE_BYTE_CAP: usize = 16 << 20;

/// Low three bits of a packed word: the op class, or [`ESCAPE`].
const TAG_MASK: u16 = 0b111;
/// Tag of an op the packed form cannot hold; it sits in `Chunk::escapes`.
const ESCAPE: u16 = 7;
/// `Branch::mispredict`.
const FLAG_BIT: u16 = 1 << 3;
/// The op's pc is not the previous op's plus 4; `Chunk::pcs` says where.
const PC_BIT: u16 = 1 << 4;
/// `dep_dist` occupies the bits above.
const DEP_SHIFT: u32 = 5;
const MAX_DEP: u16 = u16::MAX >> DEP_SHIFT;

/// The op class of a packed word without an address, by its low four
/// bits (tag and mispredict flag). A `match` on the tag compiles to a
/// jump table, and the tag is as unpredictable as the op mix.
const PLAIN_KINDS: [OpKind; 16] = {
    let mut kinds = [OpKind::IntAlu; 16];
    kinds[1] = OpKind::IntMult;
    kinds[2] = OpKind::FpAlu;
    kinds[3] = OpKind::FpMult;
    kinds[4] = OpKind::Branch { mispredict: false };
    kinds[4 | FLAG_BIT as usize] = OpKind::Branch { mispredict: true };
    kinds
};

/// [`CHUNK_OPS`] consecutive ops, packed: one `u16` per op (class,
/// mispredict flag, explicit-pc flag, `dep_dist`); for the loads and
/// stores a column of address steps, each from the address before it;
/// for the ops that do not fall through from their predecessor a column
/// of pc steps, each from where falling through would have led; and
/// whole [`MicroOp`]s for what does not fit — a `dep_dist` beyond the
/// word's 11 bits, a step beyond an `i32`. Steps wrap, and a chunk counts
/// from pc 0 and address 0, so its first memory op is stored whole.
#[derive(Debug, Default, Clone)]
struct Chunk {
    /// Saved state of the generator before the chunk's first op.
    origin: Vec<u8>,
    words: Vec<u16>,
    addrs: Vec<i32>,
    pcs: Vec<i32>,
    escapes: Vec<MicroOp>,
}

/// A position in a [`Chunk`]: ops passed, with them how much of each
/// column is used up, and what the next steps count from.
#[derive(Debug, Default)]
struct Cursor {
    ops: usize,
    addrs: usize,
    pcs: usize,
    escapes: usize,
    next_pc: u64,
    last_addr: u64,
}

impl Cursor {
    /// How far `op` is from what the steps count from, as wrapping
    /// `(pc, address)` differences; 0 for the address of a non-memory op.
    fn steps_to(&self, op: &MicroOp) -> (i64, i64) {
        let addr = op.kind.mem_addr().unwrap_or(self.last_addr);
        (op.pc.wrapping_sub(self.next_pc) as i64, addr.wrapping_sub(self.last_addr) as i64)
    }

    /// Count from `op` on.
    fn pass(&mut self, op: &MicroOp) {
        self.next_pc = op.pc.wrapping_add(4);
        self.last_addr = op.kind.mem_addr().unwrap_or(self.last_addr);
    }
}

impl Chunk {
    /// An empty chunk standing at generator state `origin`.
    fn at(origin: Vec<u8>) -> Self {
        Chunk { origin, ..Chunk::default() }
    }

    fn generate(generator: &mut dyn InstrStream) -> Self {
        let mut chunk = Chunk::at(state_of(generator));
        chunk.words.reserve_exact(CHUNK_OPS);
        let mut at = Cursor::default();
        for _ in 0..CHUNK_OPS {
            let op = generator.next_op();
            chunk.push(op, &at);
            at.pass(&op);
        }
        chunk.addrs.shrink_to_fit();
        chunk.pcs.shrink_to_fit();
        chunk.escapes.shrink_to_fit();
        chunk
    }

    /// Append `op`, which follows what `at` has passed.
    fn push(&mut self, op: MicroOp, at: &Cursor) {
        let (pc_step, addr_step) = at.steps_to(&op);
        let (Ok(pc_step), Ok(addr_step), true) =
            (i32::try_from(pc_step), i32::try_from(addr_step), op.dep_dist <= MAX_DEP)
        else {
            self.words.push(ESCAPE);
            self.escapes.push(op);
            return;
        };
        let (tag, flag) = match op.kind {
            OpKind::IntAlu => (0, 0),
            OpKind::IntMult => (1, 0),
            OpKind::FpAlu => (2, 0),
            OpKind::FpMult => (3, 0),
            OpKind::Branch { mispredict: false } => (4, 0),
            OpKind::Branch { mispredict: true } => (4, FLAG_BIT),
            OpKind::Load { .. } => (5, 0),
            OpKind::Store { .. } => (6, 0),
        };
        if op.kind.is_mem() {
            self.addrs.push(addr_step);
        }
        let pc_bit = if pc_step == 0 {
            0
        } else {
            self.pcs.push(pc_step);
            PC_BIT
        };
        self.words.push(tag | flag | pc_bit | op.dep_dist << DEP_SHIFT);
    }

    fn bytes(&self) -> usize {
        self.origin.len()
            + std::mem::size_of_val(self.words.as_slice())
            + std::mem::size_of_val(self.addrs.as_slice())
            + std::mem::size_of_val(self.pcs.as_slice())
            + std::mem::size_of_val(self.escapes.as_slice())
    }

    /// The chunk as its record holds it: the origin, then every column.
    fn encode(&self, enc: &mut Enc) {
        let Self { origin, words, addrs, pcs, escapes } = self;
        enc.bytes(origin);
        enc.u16s(words);
        enc.i32s(addrs);
        enc.i32s(pcs);
        enc.usize(escapes.len());
        for mut op in escapes.iter().copied() {
            op.state(enc).expect("a save walk does not fail");
        }
    }

    /// A chunk [`Chunk::encode`] wrote, whose origin `generator` (built
    /// like the tape's) restores. Its columns must be exactly as long as
    /// its words say, since a reader indexes them unchecked by the words.
    fn decode(dec: &mut Dec<'_>, generator: &mut dyn InstrStream) -> Result<Self, SnapError> {
        let origin = restorable(dec.bytes()?, generator)?;
        let words = dec.u16s()?;
        if words.len() != CHUNK_OPS {
            return Err(SnapError::Invalid("a tape chunk holds CHUNK_OPS ops"));
        }
        let (addrs, pcs) = (dec.i32s()?, dec.i32s()?);
        // One pass per count, each in lanes: the words are as random as the
        // program, so one pass that branches on them is slower than five
        // that do not. A chunk's counts fit a `u16`.
        const _: () = assert!(CHUNK_OPS <= u16::MAX as usize);
        let count = |holds: fn(u16) -> bool| {
            usize::from(words.iter().map(|&word| u16::from(holds(word))).sum::<u16>())
        };
        if count(|word| word & TAG_MASK == ESCAPE && word != ESCAPE) > 0 {
            return Err(SnapError::Invalid("a tape escape word carries flags"));
        }
        if count(|word| word & FLAG_BIT != 0 && !matches!(word & TAG_MASK, 4 | ESCAPE)) > 0 {
            return Err(SnapError::Invalid("a tape word flags a non-branch"));
        }
        if addrs.len() != count(|word| matches!(word & TAG_MASK, 5 | 6)) {
            return Err(SnapError::Invalid("tape address steps disagree with its memory ops"));
        }
        if pcs.len() != count(|word| word & PC_BIT != 0) {
            return Err(SnapError::Invalid("tape pc steps disagree with its words"));
        }
        let escaped = count(|word| word == ESCAPE);
        if dec.usize()? != escaped {
            return Err(SnapError::Invalid("tape escapes disagree with its words"));
        }
        let escapes = (0..escaped)
            .map(|_| {
                let mut op = MicroOp::default();
                op.state(dec).map(|()| op)
            })
            .collect::<Result<_, _>>()?;
        Ok(Chunk { origin, words, addrs, pcs, escapes })
    }
}

fn state_of(stream: &mut dyn InstrStream) -> Vec<u8> {
    Enc::save(|enc| stream.state(enc))
}

/// `state`, owned, if `generator` restores it and saves it back unchanged
/// — a state the tape can later return its generator to. Leaves
/// `generator` there.
fn restorable(state: &[u8], generator: &mut dyn InstrStream) -> Result<Vec<u8>, SnapError> {
    let mut dec = Dec::new(state);
    generator.state(&mut dec)?;
    if !dec.is_exhausted() || state_of(generator) != state {
        return Err(SnapError::Invalid("a tape holds a state its generator does not restore"));
    }
    Ok(state.to_vec())
}

/// The shared record of one generator's output from a fixed origin.
pub struct OpTape {
    cap: usize,
    /// Where every reader starts: no ops, at the generator's first state.
    start: Arc<Chunk>,
    state: Mutex<TapeState>,
}

struct TapeState {
    /// Stands at the end of the last chunk.
    generator: Box<dyn InstrStream + Send>,
    chunks: Vec<Arc<Chunk>>,
    bytes: usize,
}

/// What a reader finds after its current chunk.
enum Next {
    Chunk(Arc<Chunk>),
    /// The tape stopped growing; the generator state at its end.
    End(Vec<u8>),
}

impl std::fmt::Debug for OpTape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (ops, bytes) = self.size();
        f.debug_struct("OpTape").field("ops", &ops).field("bytes", &bytes).finish()
    }
}

impl OpTape {
    /// A tape whose first op is `generator`'s next.
    pub fn new(generator: Box<dyn InstrStream + Send>) -> Arc<Self> {
        Self::with_cap(generator, TAPE_BYTE_CAP)
    }

    /// [`OpTape::new`] with another byte cap, to reach it in a test.
    pub(crate) fn with_cap(mut generator: Box<dyn InstrStream + Send>, cap: usize) -> Arc<Self> {
        Arc::new(OpTape {
            cap,
            start: Arc::new(Chunk::at(state_of(generator.as_mut()))),
            state: Mutex::new(TapeState { generator, chunks: Vec::new(), bytes: 0 }),
        })
    }

    /// Ops generated and packed bytes held so far. `(0, 0)` once a
    /// reader has panicked while extending the tape.
    pub fn size(&self) -> (u64, usize) {
        self.state.lock().map_or((0, 0), |st| ((st.chunks.len() * CHUNK_OPS) as u64, st.bytes))
    }

    /// Whether a reader panicked while extending the tape: every later
    /// read of it panics too, so whoever keeps tapes drops this one.
    pub fn is_poisoned(&self) -> bool {
        self.state.is_poisoned()
    }

    /// Write the tape's record, lossless: the state it starts from, every
    /// chunk (origin, packed columns and escapes), and the generator state
    /// at its end. Writes nothing, and says so, once a reader has panicked
    /// while extending the tape: its generator may stand mid-chunk.
    #[must_use]
    pub fn encode(&self, enc: &mut Enc) -> bool {
        let Ok(mut st) = self.state.lock() else { return false };
        enc.bytes(&self.start.origin);
        enc.usize(st.chunks.len());
        for chunk in &st.chunks {
            chunk.encode(enc);
        }
        enc.bytes(&state_of(st.generator.as_mut()));
        true
    }

    /// The tape whose record [`OpTape::encode`] wrote at `dec`, extending
    /// itself from its end state as the recorded one would: `generator`,
    /// built like the recorded tape's, is restored to that state. A record
    /// whose columns disagree with its words, or that holds a state
    /// `generator` does not restore, is an error.
    pub fn decode(
        dec: &mut Dec<'_>,
        mut generator: Box<dyn InstrStream + Send>,
    ) -> Result<Arc<Self>, SnapError> {
        let start = Chunk::at(restorable(dec.bytes()?, generator.as_mut())?);
        let count = dec.usize()?;
        let mut chunks = Vec::new();
        let mut bytes = 0;
        for _ in 0..count {
            let chunk = Chunk::decode(dec, generator.as_mut())?;
            bytes += chunk.bytes();
            chunks.push(Arc::new(chunk));
        }
        restorable(dec.bytes()?, generator.as_mut())?;
        let state = Mutex::new(TapeState { generator, chunks, bytes });
        Ok(Arc::new(OpTape { cap: TAPE_BYTE_CAP, start: Arc::new(start), state }))
    }

    /// Whether the tape's first op is `stream`'s next: the stream stands
    /// where the tape's generator stood when it began.
    pub fn starts_at(&self, stream: &mut dyn InstrStream) -> bool {
        self.start.origin == state_of(stream)
    }

    /// Chunk `n`, generated now if no reader needed it before.
    fn chunk(&self, n: usize) -> Next {
        let mut st = self.state.lock().expect("a reader panicked while extending the tape");
        if let Some(chunk) = st.chunks.get(n) {
            return Next::Chunk(Arc::clone(chunk));
        }
        assert_eq!(n, st.chunks.len(), "readers advance one chunk at a time");
        if st.bytes >= self.cap {
            return Next::End(state_of(st.generator.as_mut()));
        }
        let chunk = Arc::new(Chunk::generate(st.generator.as_mut()));
        st.bytes += chunk.bytes();
        st.chunks.push(Arc::clone(&chunk));
        Next::Chunk(chunk)
    }

    /// Save the generator state `ops` ops past `origin` (a chunk's) into
    /// `ar`: the tape's generator is taken there, then put back at the
    /// tape's end.
    fn state_at(&self, origin: &[u8], ops: usize, ar: &mut dyn Archive) -> Result<(), SnapError> {
        const RESTORES: &str = "a generator restores the states it saved";
        let mut st = self.state.lock().expect("a reader panicked while extending the tape");
        let generator = st.generator.as_mut();
        let end = state_of(generator);
        generator.state(&mut Dec::new(origin)).expect(RESTORES);
        for _ in 0..ops {
            generator.next_op();
        }
        let saved = generator.state(ar);
        generator.state(&mut Dec::new(&end)).expect(RESTORES);
        saved
    }
}

/// A reader over an [`OpTape`]: the ops the tape's generator produces
/// from the tape's origin, in order, as an [`InstrStream`].
///
/// Its `state` walk saves exactly the bytes the plain generator would
/// after the same number of ops (the current chunk's origin state
/// replayed forward), so a snapshot of a taped run is a snapshot of the
/// untaped one; a load restores into the reader's own generator and
/// detaches it from the tape, since the restored position need not be
/// on it.
pub struct TapedStream {
    /// Built like the tape's generator; what the reader continues on
    /// once detached. Its state means nothing before that.
    generator: Box<dyn InstrStream + Send>,
    /// `None` once detached: past the cap, or after a load.
    tape: Option<Arc<OpTape>>,
    /// The chunk being read; empty before the first fetch and when
    /// detached.
    chunk: Arc<Chunk>,
    /// How far into `chunk` the reader is.
    cursor: Cursor,
    /// Index of the next chunk to fetch from the tape.
    next_chunk: usize,
}

impl std::fmt::Debug for TapedStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TapedStream")
            .field("label", &self.label())
            .field("on_tape", &self.tape.is_some())
            .field("next_chunk", &self.next_chunk)
            .field("cursor", &self.cursor)
            .finish()
    }
}

impl TapedStream {
    /// A reader standing at `tape`'s origin. `generator` must be built
    /// with the parameters of the tape's own; its state is overwritten
    /// when the reader leaves the tape.
    pub fn new(tape: Arc<OpTape>, generator: Box<dyn InstrStream + Send>) -> Self {
        TapedStream {
            generator,
            chunk: Arc::clone(&tape.start),
            tape: Some(tape),
            cursor: Cursor::default(),
            next_chunk: 0,
        }
    }

    /// Step onto `chunk`, at its first op.
    fn enter(&mut self, chunk: Arc<Chunk>) {
        self.chunk = chunk;
        self.cursor = Cursor::default();
    }

    /// The current chunk is used up (or there is none): fetch the next,
    /// or go on without the tape.
    #[cold]
    fn next_op_off_chunk(&mut self) -> MicroOp {
        let Some(tape) = &self.tape else {
            return self.generator.next_op();
        };
        match tape.chunk(self.next_chunk) {
            Next::Chunk(chunk) => {
                self.next_chunk += 1;
                self.enter(chunk);
            }
            Next::End(state) => {
                self.generator
                    .state(&mut Dec::new(&state))
                    .expect("a reader's generator is built like its tape's");
                self.tape = None;
                self.enter(Arc::default());
            }
        }
        self.next_op()
    }
}

impl InstrStream for TapedStream {
    #[inline]
    fn next_op(&mut self) -> MicroOp {
        let (chunk, at) = (&*self.chunk, &mut self.cursor);
        let Some(&word) = chunk.words.get(at.ops) else {
            return self.next_op_off_chunk();
        };
        at.ops += 1;
        let tag = word & TAG_MASK;
        if tag == ESCAPE {
            let op = chunk.escapes[at.escapes];
            at.escapes += 1;
            at.pass(&op);
            return op;
        }
        // Which columns the op reads is as random as the program, so
        // the steps are taken without branching on it: a step the op does
        // not have is read and multiplied away. With the lookup below a
        // replayed op costs 9 ns here where branches and a `match` cost
        // 11–15, against 30–40 to generate it.
        let step = |column: &[i32], at: usize, has: bool| {
            debug_assert!(!has || at < column.len(), "a flagged step is in its column");
            (i64::from(column.get(at).copied().unwrap_or(0)) * i64::from(has)) as u64
        };
        let has_pc = word & PC_BIT != 0;
        let pc = at.next_pc.wrapping_add(step(&chunk.pcs, at.pcs, has_pc));
        at.pcs += usize::from(has_pc);
        at.next_pc = pc.wrapping_add(4);
        let is_mem = tag >= 5;
        let addr = at.last_addr.wrapping_add(step(&chunk.addrs, at.addrs, is_mem));
        at.addrs += usize::from(is_mem);
        at.last_addr = addr;
        let kind = if is_mem {
            if tag == 5 {
                OpKind::Load { addr }
            } else {
                OpKind::Store { addr }
            }
        } else {
            PLAIN_KINDS[usize::from(word & (TAG_MASK | FLAG_BIT))]
        };
        MicroOp { pc, kind, dep_dist: word >> DEP_SHIFT }
    }

    fn label(&self) -> &str {
        self.generator.label()
    }

    fn warm_hints(&self) -> Option<WarmHints> {
        self.generator.warm_hints()
    }

    /// The two directions differ: a save writes the generator state the
    /// reader's tape position stands for, a load restores the reader's
    /// own generator and leaves the tape.
    fn state(&mut self, ar: &mut dyn Archive) -> Result<(), SnapError> {
        // `next_chunk`: a read position on the tape, gone with it on load.
        let Self { generator, tape, chunk, cursor, next_chunk: _ } = self;
        if !ar.loading() {
            return match tape {
                Some(tape) => tape.state_at(&chunk.origin, cursor.ops, ar),
                None => generator.state(ar),
            };
        }
        generator.state(ar)?;
        *tape = None;
        *chunk = Arc::default();
        *cursor = Cursor::default();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addrgen::AddressPattern;
    use crate::synthetic::{OpMix, StreamParams, SyntheticStream};
    use proptest::prelude::*;
    use std::sync::Barrier;

    fn synthetic(seed: u64) -> SyntheticStream {
        let params = StreamParams {
            mem_frac: 0.3,
            load_frac: 0.7,
            pattern: AddressPattern::irregular(1 << 22),
            mix: OpMix::integer(),
            mean_dep_dist: 4.0,
            chase_dep_frac: 0.3,
            mispredict_rate: 0.05,
            code_footprint: 16 * 1024,
        };
        SyntheticStream::new("taped", params, 0x1000_0000, 0x4000_0000, seed)
    }

    /// A reader over a fresh tape of `synthetic(seed)` that stops growing
    /// at `cap` bytes.
    fn reader(seed: u64, cap: usize) -> (Arc<OpTape>, TapedStream) {
        let tape = OpTape::with_cap(Box::new(synthetic(seed)), cap);
        // Another seed: a reader's generator brings parameters, not state.
        let reader = TapedStream::new(Arc::clone(&tape), Box::new(synthetic(seed ^ 1)));
        (tape, reader)
    }

    /// Replays a list of ops forever; its state is the position.
    struct Script {
        ops: Vec<MicroOp>,
        at: usize,
    }

    impl InstrStream for Script {
        fn next_op(&mut self) -> MicroOp {
            self.at += 1;
            self.ops[(self.at - 1) % self.ops.len()]
        }
        fn label(&self) -> &str {
            "script"
        }
        fn state(&mut self, ar: &mut dyn Archive) -> Result<(), SnapError> {
            let Self { ops: _, at } = self; // `ops`: the script, fixed at construction
            ar.usize(at)
        }
    }

    #[test]
    fn reads_what_the_generator_produces_across_chunks() {
        let (tape, mut taped) = reader(7, TAPE_BYTE_CAP);
        assert_eq!(tape.size(), (0, 0), "nothing is generated before it is read");
        let mut plain = synthetic(7);
        for i in 0..4 * CHUNK_OPS + 100 {
            assert_eq!(taped.next_op(), plain.next_op(), "op {i}");
        }
        let (ops, bytes) = tape.size();
        assert_eq!(ops, 5 * CHUNK_OPS as u64);
        // A u16 an op, an i32 for the 30 % with an address and for the
        // few taken jumps, a whole op where a chunk's addresses start.
        assert!(bytes as u64 <= 7 * ops / 2, "{bytes} bytes for {ops} ops");
        assert_eq!((taped.label(), taped.warm_hints()), (plain.label(), plain.warm_hints()));
    }

    #[test]
    fn past_the_cap_a_reader_continues_on_its_own_generator() {
        // The first chunk reaches a 1-byte cap: the tape is that chunk.
        let (tape, mut taped) = reader(11, 1);
        let mut plain = synthetic(11);
        for i in 0..3 * CHUNK_OPS + 17 {
            assert_eq!(taped.next_op(), plain.next_op(), "op {i}");
        }
        assert_eq!(tape.size().0, CHUNK_OPS as u64, "a capped tape must not grow");
        assert!(taped.tape.is_none());
        // A late reader of the same capped tape sees the same ops.
        let mut late = TapedStream::new(tape, Box::new(synthetic(0)));
        let mut plain = synthetic(11);
        for i in 0..2 * CHUNK_OPS {
            assert_eq!(late.next_op(), plain.next_op(), "late op {i}");
        }
    }

    /// The pcs of [`awkward_ops`]: equal to, below, just off and far from
    /// `prev + 4`, through the wrap at `u64::MAX` and onto pc 0, which is
    /// what the first op of a chunk falls through to.
    const AWKWARD_PCS: [u64; 13] =
        [0, 4, 8, 8, 4, 13, 1 << 40, u64::MAX - 7, u64::MAX - 3, 0, u64::MAX, 3, 1 << 31];

    /// Ops that take every column and every escape of the packed form.
    fn awkward_ops() -> Vec<MicroOp> {
        let kinds = [
            OpKind::IntAlu,
            OpKind::IntMult,
            OpKind::FpAlu,
            OpKind::FpMult,
            OpKind::Branch { mispredict: false },
            OpKind::Branch { mispredict: true },
            // Address steps: through the wrap, far, small either way, and
            // the last that fit an `i32` and the first that do not.
            OpKind::Load { addr: 0 },
            OpKind::Load { addr: u64::MAX },
            OpKind::Store { addr: 0xdead_beef_0000 },
            OpKind::Load { addr: 0xdead_beef_0008 },
            OpKind::Store { addr: 0xdead_beee_fff8 },
            OpKind::Load { addr: 0xdead_beee_fff8 + i32::MAX as u64 },
            OpKind::Load { addr: 0xdead_beee_fff8 + i32::MAX as u64 + (1 << 31) },
            OpKind::Store { addr: 0xdead_beee_fff8 + i32::MAX as u64 },
            OpKind::Store { addr: 0xdead_beee_fff8 + i32::MAX as u64 - (1 << 31) - 1 },
        ];
        let deps = [0, 1, 64, 127, 128, MAX_DEP - 1, MAX_DEP, MAX_DEP + 1, u16::MAX];
        let pcs = AWKWARD_PCS;
        let mut ops = Vec::new();
        for (i, &pc) in pcs.iter().cycle().take(pcs.len() * kinds.len() * deps.len()).enumerate() {
            ops.push(MicroOp {
                pc,
                kind: kinds[i % kinds.len()],
                dep_dist: deps[(i / kinds.len()) % deps.len()],
            });
        }
        ops
    }

    /// A [`Script`] of [`awkward_ops`] standing at op `at`.
    fn awkward(at: usize) -> Box<Script> {
        Box::new(Script { ops: awkward_ops(), at })
    }

    #[test]
    fn codec_round_trips_what_the_packed_word_cannot_hold() {
        // Start the script at each pc in turn, so each is the first op of
        // a chunk once.
        for start in 0..AWKWARD_PCS.len() {
            let mut taped = TapedStream::new(OpTape::new(awkward(start)), awkward(usize::MAX));
            let mut plain = awkward(start);
            for i in 0..2 * CHUNK_OPS + 10 {
                assert_eq!(taped.next_op(), plain.next_op(), "start {start}, op {i}");
            }
        }
    }

    #[test]
    fn load_state_detaches_the_reader() {
        let (tape, mut taped) = reader(3, TAPE_BYTE_CAP);
        for _ in 0..100 {
            taped.next_op();
        }
        let mut elsewhere = synthetic(99);
        for _ in 0..12_345 {
            elsewhere.next_op();
        }
        let state = state_of(&mut elsewhere);
        taped.state(&mut Dec::new(&state)).expect("a plain stream's state");
        assert!(taped.tape.is_none());
        assert_eq!(state_of(&mut taped), state);
        for i in 0..CHUNK_OPS {
            assert_eq!(taped.next_op(), elsewhere.next_op(), "op {i}");
        }
        assert_eq!(tape.size().0, CHUNK_OPS as u64, "a detached reader reads no tape");
        // Bytes that do not decode leave the reader where it was.
        let (_, mut taped) = reader(3, TAPE_BYTE_CAP);
        let mut plain = synthetic(3);
        assert_eq!(taped.next_op(), plain.next_op());
        assert!(taped.state(&mut Dec::new(&state[..state.len() - 1])).is_err());
        assert_eq!(taped.next_op(), plain.next_op());
    }

    /// The state saved after `ops` ops, on a tape of one chunk: plain and
    /// taped bytes, and the op each returns next.
    fn saved_after(ops: usize) -> [(Vec<u8>, MicroOp); 2] {
        let (_, mut taped) = reader(5, 1);
        let mut plain = synthetic(5);
        for _ in 0..ops {
            taped.next_op();
            plain.next_op();
        }
        [(state_of(&mut plain), plain.next_op()), (state_of(&mut taped), taped.next_op())]
    }

    #[test]
    fn save_state_at_the_edges_of_a_chunk_and_of_the_tape() {
        for ops in [0, 1, CHUNK_OPS - 1, CHUNK_OPS, CHUNK_OPS + 1, 2 * CHUNK_OPS] {
            let [plain, taped] = saved_after(ops);
            assert_eq!(plain, taped, "after {ops} ops");
        }
    }

    /// `tape`'s record.
    fn record_of(tape: &OpTape) -> Vec<u8> {
        let mut enc = Enc::new();
        assert!(tape.encode(&mut enc), "a healthy tape");
        enc.into_bytes()
    }

    /// The tape `record` holds, decoded into `generator`.
    fn decoded(
        record: &[u8],
        generator: Box<dyn InstrStream + Send>,
    ) -> Result<Arc<OpTape>, SnapError> {
        OpTape::decode(&mut Dec::new(record), generator)
    }

    /// The record of a fresh tape of `synthetic(seed)` once a reader has
    /// taken `ops` ops from it.
    fn record_after(seed: u64, ops: usize) -> Vec<u8> {
        let (tape, mut taped) = reader(seed, TAPE_BYTE_CAP);
        for _ in 0..ops {
            taped.next_op();
        }
        record_of(&tape)
    }

    #[test]
    fn a_decoded_record_reads_and_extends_itself_as_the_recorded_tape() {
        let (tape, mut taped) = reader(21, TAPE_BYTE_CAP);
        for _ in 0..3 * CHUNK_OPS + 5 {
            taped.next_op();
        }
        let record = record_of(&tape);
        // Another seed: the generator brings parameters, the record state.
        let copy = decoded(&record, Box::new(synthetic(0))).expect("a record decodes");
        assert_eq!(copy.size(), tape.size());
        assert_eq!(record_of(&copy), record, "the record is lossless");
        assert!(copy.starts_at(&mut synthetic(21)) && !copy.starts_at(&mut synthetic(22)));
        // On the recorded chunks and past them, a reader of the copy reads
        // and saves what the plain stream does.
        let mut reader = TapedStream::new(Arc::clone(&copy), Box::new(synthetic(1)));
        let mut plain = synthetic(21);
        for i in 0..6 * CHUNK_OPS {
            if i % 1500 == 0 {
                assert_eq!(state_of(&mut reader), state_of(&mut plain), "state before op {i}");
            }
            assert_eq!(reader.next_op(), plain.next_op(), "op {i}");
        }
        assert_eq!(copy.size().0, 6 * CHUNK_OPS as u64, "the copy extended itself");
    }

    #[test]
    fn a_record_keeps_what_the_packed_word_cannot_hold() {
        let tape = OpTape::new(awkward(3));
        let mut taped = TapedStream::new(Arc::clone(&tape), awkward(0));
        for _ in 0..2 * CHUNK_OPS {
            taped.next_op();
        }
        let copy = decoded(&record_of(&tape), awkward(usize::MAX)).expect("a record decodes");
        let (mut copied, mut plain) = (TapedStream::new(copy, awkward(0)), awkward(3));
        for i in 0..3 * CHUNK_OPS {
            assert_eq!(copied.next_op(), plain.next_op(), "op {i}");
        }
    }

    /// What a test does to a chunk before recording it.
    type Tamper = fn(&mut Chunk);

    /// The record of a one-chunk tape of [`awkward_ops`], its chunk as
    /// `tamper` leaves it.
    fn tampered(tamper: Tamper) -> Vec<u8> {
        let tape = OpTape::new(awkward(0));
        TapedStream::new(Arc::clone(&tape), awkward(0)).next_op();
        let mut st = tape.state.lock().expect("a healthy tape");
        let mut chunk = Chunk::clone(&st.chunks[0]);
        tamper(&mut chunk);
        let mut enc = Enc::new();
        enc.bytes(&tape.start.origin);
        enc.usize(1);
        chunk.encode(&mut enc);
        enc.bytes(&state_of(st.generator.as_mut()));
        enc.into_bytes()
    }

    #[test]
    fn a_record_whose_columns_disagree_with_its_words_is_an_error() {
        let decode = |tamper| decoded(&tampered(tamper), awkward(0)).map(|_| ());
        assert_eq!(decode(|_| {}), Ok(()));
        fn first(words: &mut [u16], tag: u16) -> &mut u16 {
            words.iter_mut().find(|w| **w & TAG_MASK == tag).expect("the script has one")
        }
        let cases: [(Tamper, &str); 7] = [
            (|c| _ = c.addrs.pop(), "tape address steps disagree with its memory ops"),
            (|c| c.pcs.push(8), "tape pc steps disagree with its words"),
            (|c| _ = c.escapes.pop(), "tape escapes disagree with its words"),
            (|c| _ = c.words.pop(), "a tape chunk holds CHUNK_OPS ops"),
            (|c| *first(&mut c.words, ESCAPE) |= PC_BIT, "a tape escape word carries flags"),
            (|c| *first(&mut c.words, 0) |= FLAG_BIT, "a tape word flags a non-branch"),
            (|c| c.origin.push(0), "a tape holds a state its generator does not restore"),
        ];
        for (tamper, why) in cases {
            assert_eq!(decode(tamper), Err(SnapError::Invalid(why)));
        }
    }

    #[test]
    fn a_record_cut_short_is_an_error() {
        let record = record_after(31, 2 * CHUNK_OPS + 1);
        for cut in 0..64 {
            let len = record.len() * cut / 64;
            let copy = decoded(&record[..len], Box::new(synthetic(0)));
            assert!(copy.is_err(), "cut at {len} of {}", record.len());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A mutated record decodes or is an error, and a tape it decodes
        /// to gives up every recorded op without a panic.
        #[test]
        fn a_mutated_record_decodes_or_is_an_error(
            edits in collection::vec((any::<usize>(), any::<u8>(), 0u8..3), 1..6)
        ) {
            let mut record = record_after(41, CHUNK_OPS + 1);
            for (at, byte, how) in edits {
                let at = at % record.len();
                match how {
                    0 => record[at] ^= byte | 1,
                    1 => record.insert(at, byte),
                    _ => _ = record.remove(at),
                }
            }
            if let Ok(tape) = decoded(&record, Box::new(synthetic(0))) {
                let recorded = tape.size().0;
                let mut reader = TapedStream::new(tape, Box::new(synthetic(0)));
                for _ in 0..recorded {
                    reader.next_op();
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Before, at and past the cap a taped reader saves the bytes the
        /// plain stream saves, and saving does not disturb the tape.
        #[test]
        fn save_state_writes_the_plain_streams_bytes(ops in 0usize..2 * CHUNK_OPS + 64) {
            let [plain, taped] = saved_after(ops);
            prop_assert_eq!(plain, taped);
        }
    }

    #[test]
    fn two_readers_at_one_chunk_boundary_read_the_same_ops() {
        let tape = OpTape::new(Box::new(synthetic(13)));
        let released = Barrier::new(2);
        let read = || {
            let mut taped = TapedStream::new(Arc::clone(&tape), Box::new(synthetic(0)));
            let head: Vec<MicroOp> = (0..CHUNK_OPS).map(|_| taped.next_op()).collect();
            // Both stand at the end of chunk 0; chunk 1 does not exist.
            released.wait();
            let tail: Vec<MicroOp> = (0..2 * CHUNK_OPS).map(|_| taped.next_op()).collect();
            (head, tail)
        };
        let (a, b) = std::thread::scope(|s| {
            let other = s.spawn(read);
            (read(), other.join().expect("reader thread"))
        });
        let mut plain = synthetic(13);
        let want: Vec<MicroOp> = (0..3 * CHUNK_OPS).map(|_| plain.next_op()).collect();
        for (head, tail) in [a, b] {
            assert!(head == want[..CHUNK_OPS] && tail == want[CHUNK_OPS..]);
        }
        assert_eq!(tape.size().0, 3 * CHUNK_OPS as u64, "each chunk is generated once");
    }
}
