//! The persistent checkpoint/profile store.
//!
//! A content-addressed directory of warmed-up system snapshots
//! ([`crate::system::System::snapshot`] at the measurement boundary) and
//! single-core [`AppProfile`]s, so repeated sweep invocations skip the
//! warm-up and profiling simulation entirely.
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
//! treated as a miss. Writes go through a process-unique temporary file
//! plus `rename`, so concurrent invocations sharing a store directory
//! never observe partial records.

use crate::config::SystemConfig;
use crate::profile::AppProfile;
use melreq_memctrl::policy::PolicyKind;
use melreq_snap::Sealed;
use melreq_workloads::{spec2000, SliceKind};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

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
}

impl StoreStats {
    /// Overall hit rate across both record kinds (0 when nothing was
    /// looked up).
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

/// A content-addressed on-disk store of warm-up checkpoints and
/// application profiles (see the module docs for the key schema).
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    warmup_hits: AtomicU64,
    warmup_misses: AtomicU64,
    profile_hits: AtomicU64,
    profile_misses: AtomicU64,
}

impl CheckpointStore {
    /// Open (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(CheckpointStore {
            dir,
            warmup_hits: AtomicU64::new(0),
            warmup_misses: AtomicU64::new(0),
            profile_hits: AtomicU64::new(0),
            profile_misses: AtomicU64::new(0),
        })
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

    /// Key of a single-core profiling run's [`AppProfile`]. The paper
    /// machine's single-core configuration is folded in so profiles are
    /// invalidated when any machine parameter changes.
    pub fn profile_key(code: char, slice: SliceKind, instructions: u64) -> u64 {
        let cfg = SystemConfig::paper(1, PolicyKind::HfRf);
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

    /// Atomically publish one record (temp file + rename).
    fn write_atomic(&self, kind: &str, key: u64, bytes: &[u8]) {
        let tmp = self.dir.join(format!(".tmp-{}-{kind}-{key:016x}", std::process::id()));
        if std::fs::write(&tmp, bytes).is_ok()
            && std::fs::rename(&tmp, self.path(kind, key)).is_err()
        {
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
        let ctr = if r.is_some() { &self.warmup_hits } else { &self.warmup_misses };
        ctr.fetch_add(1, Ordering::Relaxed);
        r
    }

    /// Persist a warm-up checkpoint.
    pub fn store_warmup(&self, key: u64, snapshot: &[u8]) {
        self.write_atomic("warmup", key, snapshot);
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
        let ctr = if r.is_some() { &self.profile_hits } else { &self.profile_misses };
        ctr.fetch_add(1, Ordering::Relaxed);
        r
    }

    /// Persist an application profile.
    pub fn store_profile(&self, key: u64, p: &AppProfile) {
        let mut enc = melreq_snap::Enc::new();
        enc.u32(p.code as u32);
        enc.f64(p.ipc);
        enc.f64(p.bw_gbs);
        enc.f64(p.me);
        self.write_atomic("profile", key, &melreq_snap::seal(&enc.into_bytes()));
    }

    /// Snapshot the hit/miss counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            warmup_hits: self.warmup_hits.load(Ordering::Relaxed),
            warmup_misses: self.warmup_misses.load(Ordering::Relaxed),
            profile_hits: self.profile_hits.load(Ordering::Relaxed),
            profile_misses: self.profile_misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_store(tag: &str) -> CheckpointStore {
        let dir =
            std::env::temp_dir().join(format!("melreq-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        CheckpointStore::open(dir).expect("store dir")
    }

    #[test]
    fn warmup_roundtrip_and_counters() {
        let s = tmp_store("warm");
        let key = 0xfeed;
        assert!(s.load_warmup(key).is_none());
        let payload = melreq_snap::seal(b"machine state");
        s.store_warmup(key, &payload);
        assert_eq!(s.load_warmup(key).as_deref(), Some(payload.as_slice()));
        let st = s.stats();
        assert_eq!((st.warmup_hits, st.warmup_misses), (1, 1));
        assert!((st.hit_rate() - 0.5).abs() < 1e-12);
        let _ = std::fs::remove_dir_all(s.dir());
    }

    #[test]
    fn profile_roundtrip_restores_name() {
        let s = tmp_store("prof");
        let p = AppProfile { name: "swim", code: 'c', ipc: 0.5, bw_gbs: 9.25, me: 0.054 };
        let key = CheckpointStore::profile_key('c', SliceKind::Profiling, 1000);
        s.store_profile(key, &p);
        let q = s.load_profile(key).expect("stored profile");
        assert_eq!(q.name, "swim");
        assert_eq!(q.code, 'c');
        assert_eq!((q.ipc, q.bw_gbs, q.me), (p.ipc, p.bw_gbs, p.me));
        let _ = std::fs::remove_dir_all(s.dir());
    }

    #[test]
    fn corrupt_record_is_a_miss_and_removed() {
        let s = tmp_store("corrupt");
        let key = 0xbad;
        let good = melreq_snap::seal(b"checkpoint");
        let flipped = {
            let mut bytes = good.clone();
            *bytes.last_mut().unwrap() ^= 0xff;
            bytes
        };
        // A flipped bit, a torn tail, less than a header, nothing at all.
        let damaged = [&flipped[..], &good[..good.len() - 1], &good[..10], &[]];
        for kind in ["warmup", "profile"] {
            let path = s.dir().join(format!("{kind}-{key:016x}.bin"));
            for bytes in damaged {
                std::fs::write(&path, bytes).unwrap();
                let missed = match kind {
                    "warmup" => s.load_warmup_sealed(key).is_none(),
                    _ => s.load_profile(key).is_none(),
                };
                assert!(missed, "{kind}: {} damaged bytes must miss", bytes.len());
                assert!(!path.exists(), "{kind}: damaged record must be evicted");
            }
        }
        let st = s.stats();
        assert_eq!((st.warmup_hits, st.warmup_misses), (0, damaged.len() as u64));
        assert_eq!((st.profile_hits, st.profile_misses), (0, damaged.len() as u64));
        // The public read is the same read.
        std::fs::write(s.dir().join(format!("warmup-{key:016x}.bin")), &flipped).unwrap();
        assert!(s.load_warmup(key).is_none(), "corrupt record must miss");
        s.store_warmup(key, &good);
        assert_eq!(s.load_warmup_sealed(key).map(Sealed::into_bytes), Some(good));
        let _ = std::fs::remove_dir_all(s.dir());
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
