//! The persistent checkpoint/profile store.
//!
//! A content-addressed directory of warmed-up system snapshots
//! ([`crate::system::System::snapshot`] at the measurement boundary), the
//! op tapes the windows from each boundary read, and single-core
//! [`AppProfile`]s, so repeated sweep invocations skip the warm-up, the
//! profiling simulation and the generation of every op a previous
//! invocation already generated.
//!
//! # Addressing
//!
//! Every record is keyed by an FNV-1a hash over a canonical encoding of
//! *everything that determines the simulation it caches*:
//!
//! * the snapshot schema version ([`melreq_snap::SCHEMA_VERSION`] — any
//!   codec change invalidates the whole store);
//! * the full [`SystemConfig`] (via its `Debug` rendering, which covers
//!   every structural/timing field — change a cache size or a DDR2
//!   parameter and the key changes);
//! * the workload identity: application codes in core order and the
//!   evaluation-slice index (these seed the synthetic streams);
//! * the window: warm-up and target instruction counts (both are armed
//!   before the boundary and serialized inside the snapshot).
//!
//! A boundary's op tapes (`tapes-{key}`) share its warm-up key: a core
//! count, then one [`OpTape::encode`] record per core, in core order.
//!
//! Warm-up always runs under the canonical policy
//! ([`crate::experiment::CANONICAL_WARMUP_POLICY`], which ignores the
//! profiled ME values), so warm-up checkpoints are *policy- and
//! ME-independent*: one checkpoint serves all measured policies of a
//! (mix, window) group. The kernel mode (the cycle-exact test oracle,
//! [`crate::system::System::set_tick_exact`]) is likewise excluded — both
//! kernels produce bit-identical machine states.
//!
//! Records are self-validating [`melreq_snap::seal`] containers; a file
//! that fails its checksum (torn write, stale schema) is deleted and
//! treated as a miss. Each write goes through a temporary file of its own
//! plus `rename`, so concurrent writers — threads of one process or
//! invocations sharing a store directory — never publish or observe a
//! partial record.
//!
//! # Residency
//!
//! A store that outlives the requests it serves
//! ([`CheckpointStore::open_resident`], the server's) also keeps the
//! warm-up boundaries it has read or written in memory: the verified
//! container, so its bytes are read and checksummed once per process, and
//! — from a boundary's second use on — the op tapes its runs read their
//! windows from, so the window is generated once per process too. The
//! tier is an LRU over [`RESIDENT_BYTE_BUDGET`] bytes of containers and
//! tapes. [`CheckpointStore::open`] has no such tier: a process that runs
//! once and exits would only pay for filling it.

use crate::config::SystemConfig;
use crate::experiment::GroupShare;
use crate::profile::AppProfile;
use melreq_snap::{Dec, Enc, Sealed, SnapError};
use melreq_trace::{InstrStream, OpTape};
use melreq_workloads::{spec2000, SliceKind};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Bytes of containers and op tapes a resident store keeps: twice the
/// largest share of a default-options `reproduce` (`8MIX-2`: 30.7 MB of
/// tapes over a 1.5 MB container, 32.2 MB), so the widest boundary stays
/// while another comes in, and some forty 2-core ones do (1.2 MB of
/// container and 0.3 MB of tapes each under the quick options).
pub const RESIDENT_BYTE_BUDGET: usize = 64 << 20;

/// Hit/miss counters of one [`CheckpointStore`], split by record kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Warm-up checkpoints served from disk.
    pub warmup_hits: u64,
    /// Warm-up checkpoints that had to be simulated.
    pub warmup_misses: u64,
    /// Application profiles served from disk.
    pub profile_hits: u64,
    /// Application profiles that had to be simulated.
    pub profile_misses: u64,
    /// Boundaries whose op tapes were read from disk. Tapes save
    /// generation, not simulation, so neither tape count is in
    /// [`StoreStats::hit_rate`].
    pub tape_hits: u64,
    /// Boundaries whose tapes were looked for and not found (or found
    /// unreadable) before being recorded.
    pub tape_misses: u64,
    /// Warm-up hits answered from memory (counted in `warmup_hits` too);
    /// always 0 for a store without a resident tier.
    pub resident_hits: u64,
    /// Boundaries the resident tier dropped to stay within its budget.
    pub resident_evictions: u64,
    /// Container and tape bytes resident when the tier was last used.
    pub resident_bytes: u64,
}

impl StoreStats {
    /// Hit rate of the warm-up and profile records together (0 when
    /// nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let hits = self.warmup_hits + self.profile_hits;
        let total = hits + self.warmup_misses + self.profile_misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

/// A content-addressed on-disk store of warm-up checkpoints, their op
/// tapes and application profiles (see the module docs for the key
/// schema).
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    /// What [`CheckpointStore::stats`] reports. It changes once per record
    /// lookup, so one lock is no cost.
    stats: Mutex<StoreStats>,
    /// The memory tier of a store opened resident (module docs).
    resident: Option<Mutex<Resident>>,
}

/// Boundaries kept in memory, least recently used first.
#[derive(Debug)]
struct Resident {
    budget: usize,
    entries: Vec<(u64, Arc<GroupShare>)>,
}

/// Distinguishes the temporary files of one process's writes.
static WRITES: AtomicU64 = AtomicU64::new(0);

impl CheckpointStore {
    /// Open (creating if needed) a store rooted at `dir`, for a process
    /// that reaches each boundary in one call: nothing stays in memory.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        Self::with_budget(dir, None)
    }

    /// [`CheckpointStore::open`] for a process that outlives its requests:
    /// boundaries read or written stay resident (module docs).
    pub fn open_resident(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        Self::with_budget(dir, Some(RESIDENT_BYTE_BUDGET))
    }

    /// A store with a resident tier of `budget` bytes, or none.
    pub(crate) fn with_budget(
        dir: impl Into<PathBuf>,
        budget: Option<usize>,
    ) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(CheckpointStore {
            dir,
            stats: Mutex::default(),
            resident: budget.map(|budget| Mutex::new(Resident { budget, entries: Vec::new() })),
        })
    }

    /// Update the counters. A panic elsewhere cannot leave them half
    /// written, so a poisoned lock is used as it stands.
    fn count(&self, update: impl FnOnce(&mut StoreStats)) {
        update(&mut self.stats.lock().unwrap_or_else(PoisonError::into_inner));
    }

    /// The directory this store reads and writes.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Key of the warm-up checkpoint for a mix run: `cfg` must be the
    /// *canonical-policy* configuration the warm-up executes under.
    pub fn warmup_key(
        cfg: &SystemConfig,
        codes: &str,
        eval_slice: u32,
        warmup: u64,
        instructions: u64,
    ) -> u64 {
        melreq_snap::keyed(
            "warmup",
            &format!("{cfg:?}|{codes}|{eval_slice}|{warmup}|{instructions}"),
        )
    }

    /// Key of a single-core profiling run's [`AppProfile`]. The machine
    /// it ran on (`canonical_config(1)`, as in
    /// [`crate::profile::profile_app`]) is folded in so profiles are
    /// invalidated when any machine parameter changes.
    pub fn profile_key(code: char, slice: SliceKind, instructions: u64) -> u64 {
        let cfg = crate::experiment::canonical_config(1);
        melreq_snap::keyed("profile", &format!("{cfg:?}|{code}|{slice:?}|{instructions}"))
    }

    fn path(&self, kind: &str, key: u64) -> PathBuf {
        self.dir.join(format!("{kind}-{key:016x}.bin"))
    }

    /// Read and checksum-validate one record — the one check its bytes
    /// get in this process; corrupt or stale files are removed and
    /// reported as a miss.
    fn read_valid(&self, kind: &str, key: u64) -> Option<Sealed> {
        let path = self.path(kind, key);
        let sealed = Sealed::open(std::fs::read(&path).ok()?);
        if sealed.is_err() {
            let _ = std::fs::remove_file(&path);
        }
        sealed.ok()
    }

    /// Atomically publish one record, `parts` in order: a temp file no
    /// other write shares, then `rename`.
    fn write_atomic(&self, kind: &str, key: u64, parts: &[&[u8]]) {
        let (pid, nth) = (std::process::id(), WRITES.fetch_add(1, Ordering::Relaxed));
        let tmp = self.dir.join(format!(".tmp-{pid}-{nth}-{kind}-{key:016x}"));
        let written = std::fs::File::create(&tmp)
            .and_then(|mut file| parts.iter().try_for_each(|part| file.write_all(part)))
            .and_then(|()| std::fs::rename(&tmp, self.path(kind, key)));
        if written.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    /// Fetch a warm-up checkpoint (a sealed [`System::snapshot`]
    /// container ready for [`System::load_snapshot`]).
    ///
    /// [`System::snapshot`]: crate::system::System::snapshot
    /// [`System::load_snapshot`]: crate::system::System::load_snapshot
    pub fn load_warmup(&self, key: u64) -> Option<Vec<u8>> {
        self.load_warmup_sealed(key).map(Sealed::into_bytes)
    }

    /// [`CheckpointStore::load_warmup`] as the verified container the
    /// read produced, for [`System::restore`].
    ///
    /// [`System::restore`]: crate::system::System::restore
    pub(crate) fn load_warmup_sealed(&self, key: u64) -> Option<Sealed> {
        let r = self.read_valid("warmup", key);
        self.count(|st| match r {
            Some(_) => st.warmup_hits += 1,
            None => st.warmup_misses += 1,
        });
        r
    }

    /// Persist a warm-up checkpoint.
    pub fn store_warmup(&self, key: u64, snapshot: &[u8]) {
        self.write_atomic("warmup", key, &[snapshot]);
    }

    /// The op tapes stored for the boundary under `key`, one per stream of
    /// `generators` (built like the boundary's streams; each tape extends
    /// itself on one). A record that does not decode into them is deleted
    /// and a miss, as a corrupt one is.
    pub(crate) fn load_tapes(
        &self,
        key: u64,
        generators: Vec<Box<dyn InstrStream + Send>>,
    ) -> Option<Vec<Arc<OpTape>>> {
        let tapes = self.read_valid("tapes", key).and_then(|sealed| {
            let tapes = decode_tapes(sealed.payload(), generators);
            if tapes.is_err() {
                let _ = std::fs::remove_file(self.path("tapes", key));
            }
            tapes.ok()
        });
        self.count(|st| match tapes {
            Some(_) => st.tape_hits += 1,
            None => st.tape_misses += 1,
        });
        tapes
    }

    /// Persist the op tapes of the boundary under `key`, in core order,
    /// unless a reader panicked while extending one. The payload is
    /// written beside its header, not copied into a container: a group's
    /// tapes run to tens of megabytes.
    pub(crate) fn store_tapes(&self, key: u64, tapes: &[Arc<OpTape>]) {
        let mut enc = Enc::new();
        enc.usize(tapes.len());
        if tapes.iter().all(|tape| tape.encode(&mut enc)) {
            let payload = enc.into_bytes();
            self.write_atomic("tapes", key, &[&melreq_snap::header(&payload), &payload]);
        }
    }

    /// Bytes of each record kind the store's directory holds.
    pub fn bytes_by_kind(&self) -> [(&'static str, u64); 3] {
        let mut held = ["warmup", "tapes", "profile"].map(|kind| (kind, 0));
        for entry in std::fs::read_dir(&self.dir).into_iter().flatten().flatten() {
            let name = entry.file_name();
            let kind = name.to_str().and_then(|n| n.split_once('-')).map(|(kind, _)| kind);
            if let Some((_, bytes)) = held.iter_mut().find(|(k, _)| Some(*k) == kind) {
                *bytes += entry.metadata().map_or(0, |m| m.len());
            }
        }
        held
    }

    /// The boundary stored under `key`, as what its runs share, and
    /// whether memory answered: a resident share, else the disk record
    /// wrapped by `share` (and kept, by a resident store). Either way a
    /// warm-up hit; `None` is a miss.
    pub(crate) fn boundary(
        &self,
        key: u64,
        share: impl FnOnce(Sealed) -> GroupShare,
    ) -> Option<(Arc<GroupShare>, bool)> {
        if let Some(kept) = self.resident_share(key) {
            self.count(|st| {
                st.warmup_hits += 1;
                st.resident_hits += 1;
            });
            return Some((kept, true));
        }
        let read = Arc::new(share(self.load_warmup_sealed(key)?));
        self.retain(key, &read);
        Some((read, false))
    }

    /// Keep `share` under `key`, in place of what was there, if this store
    /// keeps anything.
    pub(crate) fn retain(&self, key: u64, share: &Arc<GroupShare>) {
        let Some(mut tier) = self.tier() else { return };
        tier.entries.retain(|(k, _)| *k != key);
        tier.entries.push((key, Arc::clone(share)));
        self.settle(&mut tier);
    }

    /// The tier's lock. A thread that panicked under it may have left the
    /// list half-updated: what it held is dropped and the disk answers.
    fn tier(&self) -> Option<MutexGuard<'_, Resident>> {
        let tier = self.resident.as_ref()?;
        Some(tier.lock().unwrap_or_else(|poisoned| {
            tier.clear_poison();
            let mut guard = poisoned.into_inner();
            guard.entries.clear();
            guard
        }))
    }

    /// The share resident under `key`, now the most recently used. One
    /// whose tapes a panicking run poisoned is dropped instead: its
    /// readers would panic in turn, and the disk record still answers.
    fn resident_share(&self, key: u64) -> Option<Arc<GroupShare>> {
        let mut tier = self.tier()?;
        let at = tier.entries.iter().position(|(k, _)| *k == key)?;
        let (_, share) = tier.entries.remove(at);
        let usable = !share.poisoned();
        if usable {
            tier.entries.push((key, Arc::clone(&share)));
        }
        self.settle(&mut tier);
        usable.then_some(share)
    }

    /// Drop what could never fit — a container over the budget, or an
    /// entry whose tapes have outgrown it while it sat here — then evict
    /// least recently used first down to the budget, and publish what stays.
    fn settle(&self, tier: &mut Resident) {
        let (budget, held) = (tier.budget, tier.entries.len());
        let mut sizes = Vec::with_capacity(held);
        tier.entries.retain(|(_, share)| {
            let bytes = share.bytes();
            let fits = bytes <= budget;
            if fits {
                sizes.push(bytes);
            }
            fits
        });
        let mut total: usize = sizes.iter().sum();
        let mut lru = 0;
        while total > budget {
            total -= sizes[lru];
            lru += 1;
        }
        tier.entries.drain(..lru);
        let evicted = held - tier.entries.len();
        self.count(|st| {
            st.resident_evictions += evicted as u64;
            st.resident_bytes = total as u64;
        });
    }

    /// Fetch an application profile.
    pub fn load_profile(&self, key: u64) -> Option<AppProfile> {
        let r = self.read_valid("profile", key).and_then(|sealed| {
            let mut dec = melreq_snap::Dec::new(sealed.payload());
            let code = char::from_u32(dec.u32().ok()?)?;
            let ipc = dec.f64().ok()?;
            let bw_gbs = dec.f64().ok()?;
            let me = dec.f64().ok()?;
            if !dec.is_exhausted() {
                return None;
            }
            // `name` is a &'static str; recover it from the roster rather
            // than storing it. An unknown code means a foreign record —
            // treat it as a miss.
            let name = spec2000().into_iter().find(|a| a.code == code)?.name;
            Some(AppProfile { name, code, ipc, bw_gbs, me })
        });
        self.count(|st| match r {
            Some(_) => st.profile_hits += 1,
            None => st.profile_misses += 1,
        });
        r
    }

    /// Persist an application profile.
    pub fn store_profile(&self, key: u64, p: &AppProfile) {
        let mut enc = melreq_snap::Enc::new();
        enc.u32(p.code as u32);
        enc.f64(p.ipc);
        enc.f64(p.bw_gbs);
        enc.f64(p.me);
        self.write_atomic("profile", key, &[&melreq_snap::seal(&enc.into_bytes())]);
    }

    /// Snapshot the hit/miss counters.
    pub fn stats(&self) -> StoreStats {
        *self.stats.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The tapes a `tapes-` record holds, each extending itself on one of
/// `generators`.
fn decode_tapes(
    payload: &[u8],
    generators: Vec<Box<dyn InstrStream + Send>>,
) -> Result<Vec<Arc<OpTape>>, SnapError> {
    let mut dec = Dec::new(payload);
    if dec.usize()? != generators.len() {
        return Err(SnapError::Invalid("a tapes record of another core count"));
    }
    let tapes = generators
        .into_iter()
        .map(|generator| OpTape::decode(&mut dec, generator))
        .collect::<Result<Vec<_>, _>>()?;
    if !dec.is_exhausted() {
        return Err(SnapError::Invalid("bytes after the tapes"));
    }
    Ok(tapes)
}

/// A scratch directory `melreq-{tag}-{pid}` under the system temp dir
/// that is removed, with everything in it, when dropped: a test holding
/// one leaves nothing behind whether it passes or fails. Derefs to its
/// path.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// Create the directory empty, removing a stale one of the same name.
    ///
    /// # Panics
    /// Panics if it cannot be created.
    pub fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("melreq-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("a scratch directory");
        TempDir(dir)
    }
}

impl std::ops::Deref for TempDir {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use melreq_memctrl::policy::PolicyKind;

    /// A store in a scratch directory, behind the guard that removes it.
    fn tmp_store(tag: &str) -> (TempDir, CheckpointStore) {
        let dir = TempDir::new(&format!("store-{tag}"));
        let store = CheckpointStore::open(&*dir).expect("store dir");
        (dir, store)
    }

    /// A plain store and one that keeps `budget` bytes resident.
    fn both_forms(tag: &str, budget: usize) -> (TempDir, [CheckpointStore; 2]) {
        let dir = TempDir::new(&format!("store-{tag}"));
        let plain = CheckpointStore::open(dir.join("plain")).expect("store dir");
        let resident = CheckpointStore::with_budget(dir.join("resident"), Some(budget));
        (dir, [plain, resident.expect("store dir")])
    }

    /// `container` as the previous schema wrote it: an intact record whose
    /// header names `SCHEMA_VERSION - 1` (bytes 8..12, after the magic).
    fn stale_schema(container: &[u8]) -> Vec<u8> {
        let mut stale = container.to_vec();
        stale[8..12].copy_from_slice(&(melreq_snap::SCHEMA_VERSION - 1).to_le_bytes());
        let skew = SnapError::BadContainer("schema version mismatch");
        assert_eq!(melreq_snap::open(&stale), Err(skew), "only the version is wrong");
        stale
    }

    /// What a run wraps a container it read in.
    fn share(stored: Sealed) -> GroupShare {
        let mix = melreq_workloads::mix_by_name("2MEM-1");
        GroupShare::over(mix, &crate::experiment::ExperimentOptions::quick(), stored)
    }

    /// `store.boundary(key)`: the container's bytes and whether memory
    /// answered.
    fn boundary(store: &CheckpointStore, key: u64) -> Option<(Vec<u8>, bool)> {
        store
            .boundary(key, share)
            .map(|(share, reused)| (share.snapshot.as_bytes().to_vec(), reused))
    }

    #[test]
    fn warmup_roundtrip_and_counters() {
        let (_dir, s) = tmp_store("warm");
        let key = 0xfeed;
        assert!(s.load_warmup(key).is_none());
        let payload = melreq_snap::seal(b"machine state");
        s.store_warmup(key, &payload);
        assert_eq!(s.load_warmup(key).as_deref(), Some(payload.as_slice()));
        let st = s.stats();
        assert_eq!((st.warmup_hits, st.warmup_misses), (1, 1));
        assert!((st.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn profile_roundtrip_restores_name() {
        let (_dir, s) = tmp_store("prof");
        let p = AppProfile { name: "swim", code: 'c', ipc: 0.5, bw_gbs: 9.25, me: 0.054 };
        let key = CheckpointStore::profile_key('c', SliceKind::Profiling, 1000);
        s.store_profile(key, &p);
        let q = s.load_profile(key).expect("stored profile");
        assert_eq!(q.name, "swim");
        assert_eq!(q.code, 'c');
        assert_eq!((q.ipc, q.bw_gbs, q.me), (p.ipc, p.bw_gbs, p.me));
    }

    #[test]
    fn corrupt_record_is_a_miss_and_removed() {
        let key = 0xbad;
        let good = melreq_snap::seal(b"checkpoint");
        let flipped = {
            let mut bytes = good.clone();
            *bytes.last_mut().unwrap() ^= 0xff;
            bytes
        };
        // A flipped bit, a torn tail, less than a header, nothing at all,
        // a record of the previous schema.
        let stale = stale_schema(&good);
        let damaged = [&flipped[..], &good[..good.len() - 1], &good[..10], &[], &stale[..]];
        let (_dir, stores) = both_forms("corrupt", 1 << 20);
        for s in stores {
            let resident = s.resident.is_some();
            for kind in ["warmup", "profile"] {
                let path = s.dir().join(format!("{kind}-{key:016x}.bin"));
                for bytes in damaged {
                    std::fs::write(&path, bytes).unwrap();
                    let missed = match kind {
                        "warmup" => boundary(&s, key).is_none(),
                        _ => s.load_profile(key).is_none(),
                    };
                    assert!(missed, "{kind}: {} damaged bytes must miss", bytes.len());
                    assert!(!path.exists(), "{kind}: damaged record must be evicted");
                }
            }
            let st = s.stats();
            assert_eq!((st.warmup_hits, st.warmup_misses), (0, damaged.len() as u64));
            assert_eq!((st.profile_hits, st.profile_misses), (0, damaged.len() as u64));
            assert_eq!((st.resident_hits, st.resident_bytes), (0, 0), "a miss keeps nothing");
            // The public read is the same read.
            let path = s.dir().join(format!("warmup-{key:016x}.bin"));
            std::fs::write(&path, &flipped).unwrap();
            assert!(s.load_warmup(key).is_none(), "corrupt record must miss");
            s.store_warmup(key, &good);
            assert_eq!(boundary(&s, key), Some((good.clone(), false)), "read and verified");
            // After that first use a resident store no longer needs the
            // file; a plain one reads it every time.
            for after in [Some(&flipped), None] {
                match after {
                    Some(bytes) => std::fs::write(&path, bytes).unwrap(),
                    None => assert!(!path.exists() || std::fs::remove_file(&path).is_ok()),
                }
                let want = resident.then(|| (good.clone(), true));
                assert_eq!(boundary(&s, key), want, "resident: {resident}");
            }
            let st = s.stats();
            let hits = if resident { 2 } else { 0 };
            assert_eq!((st.warmup_hits, st.resident_hits), (1 + hits, hits));
            assert_eq!(st.resident_bytes, if resident { good.len() as u64 } else { 0 });
        }
    }

    #[test]
    fn the_resident_tier_keeps_to_its_budget_and_rereads_what_it_evicted() {
        let record = |fill: u8, len: usize| melreq_snap::seal(&vec![fill; len]);
        let (a, b, wide) = (record(1, 600), record(2, 600), record(3, 2000));
        let budget = a.len() + b.len() + 100;
        let (_dir, [_, s]) = both_forms("budget", budget);
        for (key, bytes) in [(1, &a), (2, &b), (3, &wide)] {
            s.store_warmup(key, bytes);
            assert_eq!(boundary(&s, key), Some((bytes.clone(), false)), "first use reads {key}");
        }
        // `wide` alone is over budget: it was never kept, and took nothing
        // with it. Reading it again verifies it again.
        assert_eq!(s.stats().resident_evictions, 1);
        assert_eq!(s.stats().resident_bytes, (a.len() + b.len()) as u64);
        assert_eq!(boundary(&s, 3), Some((wide.clone(), false)));
        let wide_path = s.dir().join(format!("warmup-{:016x}.bin", 3));
        std::fs::write(&wide_path, &wide[..wide.len() - 1]).unwrap();
        assert_eq!(boundary(&s, 3), None, "a record not kept is checked where it is read");
        // Least recently used goes first: touch `a`, bring in a third
        // 600-byte record, and `b` is the one re-read from disk.
        assert_eq!(boundary(&s, 1), Some((a.clone(), true)));
        let c = record(4, 600);
        s.store_warmup(4, &c);
        assert_eq!(boundary(&s, 4), Some((c.clone(), false)));
        assert_eq!(boundary(&s, 1), Some((a.clone(), true)));
        let b_path = s.dir().join(format!("warmup-{:016x}.bin", 2));
        std::fs::write(&b_path, &b[..10]).unwrap();
        assert_eq!(boundary(&s, 2), None, "an evicted record is re-read and re-verified");
        assert!(!b_path.exists());
        let st = s.stats();
        assert_eq!((st.resident_hits, st.resident_evictions), (2, 3));
        assert!(st.resident_bytes <= budget as u64);
    }

    #[test]
    fn a_panic_under_the_tier_lock_costs_the_resident_entries_not_the_store() {
        let (_dir, [_, s]) = both_forms("poison", 1 << 20);
        let good = melreq_snap::seal(b"boundary");
        s.store_warmup(7, &good);
        assert_eq!(boundary(&s, 7), Some((good.clone(), false)));
        let panicked = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _held = s.resident.as_ref().expect("resident form").lock();
                    panic!("mid-update");
                })
                .join()
        });
        assert!(panicked.is_err() && s.resident.as_ref().is_some_and(Mutex::is_poisoned));
        assert_eq!(boundary(&s, 7), Some((good.clone(), false)), "the disk record answers");
        assert_eq!(boundary(&s, 7), Some((good, true)), "and is resident again");
    }

    /// Satellite bug: the temp file of a write was named by process, kind
    /// and key alone, so two threads storing one key wrote one temp file.
    #[test]
    fn concurrent_writers_of_one_key_publish_whole_records_only() {
        let (_dir, s) = tmp_store("race");
        let key = 0xace;
        let payloads = [melreq_snap::seal(&[5u8; 3_000]), melreq_snap::seal(&[9u8; 700_000])];
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (s, payloads) = (&s, &payloads);
                scope.spawn(move || {
                    for i in 0..50 {
                        s.store_warmup(key, &payloads[(t + i) % 2]);
                        // A rename replaces a whole record with a whole
                        // record: once stored, the key never misses.
                        let read = s.load_warmup(key).expect("a torn record was published");
                        assert!(payloads.contains(&read), "{} foreign bytes", read.len());
                    }
                });
            }
        });
        assert!(s.load_warmup(key).is_some_and(|read| payloads.contains(&read)));
        let left: Vec<_> = std::fs::read_dir(s.dir()).unwrap().flatten().collect();
        assert_eq!(left.len(), 1, "only the record stays: {left:?}");
    }

    /// Op tapes of 2MEM-1's evaluation streams, a chunk and an op read from
    /// each, and what makes the streams to decode them into.
    fn recorded_tapes() -> (Vec<Arc<OpTape>>, impl Fn() -> Vec<Box<dyn InstrStream + Send>>) {
        let mix = melreq_workloads::mix_by_name("2MEM-1");
        let streams = move || mix.eval_streams(0);
        let tapes: Vec<_> = streams().into_iter().map(OpTape::new).collect();
        for (tape, own) in tapes.iter().zip(streams()) {
            let mut reader = melreq_trace::TapedStream::new(Arc::clone(tape), own);
            for _ in 0..=melreq_trace::tape::CHUNK_OPS {
                reader.next_op();
            }
        }
        (tapes, streams)
    }

    fn records(tapes: &[Arc<OpTape>]) -> Vec<Vec<u8>> {
        let record = |tape: &Arc<OpTape>| {
            let mut enc = Enc::new();
            assert!(tape.encode(&mut enc), "a healthy tape");
            enc.into_bytes()
        };
        tapes.iter().map(record).collect()
    }

    #[test]
    fn tapes_round_trip_and_a_damaged_record_is_a_miss_that_deletes_it() {
        let (_dir, s) = tmp_store("tapes");
        let (tapes, streams) = recorded_tapes();
        let key = 0x7a9e;
        assert!(s.load_tapes(key, streams()).is_none(), "nothing stored yet");
        s.store_tapes(key, &tapes);
        let loaded = s.load_tapes(key, streams()).expect("stored tapes load");
        assert_eq!(records(&loaded), records(&tapes));
        let path = s.path("tapes", key);
        let good = std::fs::read(&path).expect("the record");
        assert_eq!(
            s.bytes_by_kind(),
            [("warmup", 0), ("tapes", good.len() as u64), ("profile", 0)]
        );
        // Cut short anywhere, resealed around a payload cut short or run
        // long, written by the previous schema, or read into streams of
        // another core count: a miss, and deleted.
        let payload = melreq_snap::open(&good).expect("a sealed record");
        let mut damaged: Vec<Vec<u8>> =
            (0..64).map(|i| good[..good.len() * i / 64].to_vec()).collect();
        damaged.push(melreq_snap::seal(&payload[..payload.len() / 2]));
        damaged.push(melreq_snap::seal(&[payload, &[0]].concat()));
        damaged.push(stale_schema(&good));
        for bytes in &damaged {
            std::fs::write(&path, bytes).unwrap();
            assert!(s.load_tapes(key, streams()).is_none(), "{} damaged bytes", bytes.len());
            assert!(!path.exists(), "a damaged record is deleted");
        }
        std::fs::write(&path, &good).unwrap();
        assert!(s.load_tapes(key, streams().into_iter().take(1).collect()).is_none());
        assert!(!path.exists(), "a record of another core count is deleted");
        let st = s.stats();
        assert_eq!((st.tape_hits, st.tape_misses), (1, damaged.len() as u64 + 2));
        assert_eq!(st.hit_rate(), 0.0, "tapes are not in the hit rate");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Any mutation of a stored tapes record is a miss that deletes it.
        #[test]
        fn a_mutated_tapes_record_is_a_miss_that_deletes_it(
            edits in proptest::collection::vec(
                (proptest::prelude::any::<usize>(), proptest::prelude::any::<u8>(), 0u8..3),
                1..6,
            )
        ) {
            let (_dir, s) = tmp_store("tapes-mutated");
            let (tapes, streams) = recorded_tapes();
            s.store_tapes(1, &tapes);
            let path = s.path("tapes", 1);
            let mut bytes = std::fs::read(&path).expect("the record");
            for (at, byte, how) in edits {
                let at = at % bytes.len();
                match how {
                    0 => bytes[at] ^= byte | 1,
                    1 => bytes.insert(at, byte),
                    _ => _ = bytes.remove(at),
                }
            }
            std::fs::write(&path, &bytes).unwrap();
            let (missed, deleted) = (s.load_tapes(1, streams()).is_none(), !path.exists());
            proptest::prop_assert!(missed);
            proptest::prop_assert!(deleted);
        }
    }

    #[test]
    fn keys_separate_every_input() {
        let cfg = SystemConfig::paper(4, PolicyKind::HfRf);
        let base = CheckpointStore::warmup_key(&cfg, "bcde", 0, 60_000, 150_000);
        assert_ne!(base, CheckpointStore::warmup_key(&cfg, "bcdf", 0, 60_000, 150_000));
        assert_ne!(base, CheckpointStore::warmup_key(&cfg, "bcde", 1, 60_000, 150_000));
        assert_ne!(base, CheckpointStore::warmup_key(&cfg, "bcde", 0, 50_000, 150_000));
        assert_ne!(base, CheckpointStore::warmup_key(&cfg, "bcde", 0, 60_000, 100_000));
        let mut other = SystemConfig::paper(4, PolicyKind::HfRf);
        other.timing.t_cl += 1;
        assert_ne!(base, CheckpointStore::warmup_key(&other, "bcde", 0, 60_000, 150_000));
        // Profiles key on the slice and length too.
        let p = CheckpointStore::profile_key('c', SliceKind::Profiling, 1000);
        assert_ne!(p, CheckpointStore::profile_key('c', SliceKind::Evaluation(0), 1000));
        assert_ne!(p, CheckpointStore::profile_key('c', SliceKind::Profiling, 2000));
        assert_ne!(p, CheckpointStore::profile_key('d', SliceKind::Profiling, 1000));
    }
}
