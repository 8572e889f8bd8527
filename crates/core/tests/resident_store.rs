//! A serving store keeps boundaries and their op tapes resident
//! (`CheckpointStore::open_resident`); this pins that nothing simulated
//! can tell. One request is answered five ways — from reset, off a plain
//! store's disk record, and by the first (disk), second (recording) and
//! third (replaying) use of a resident store, and by a restarted store's
//! first use, which replays the tapes the second use wrote — and every way
//! gives the same report bytes and fetches the same ops, while the spans
//! say which way it was: `snapshot.decode` carries `resident`, a `policy`
//! span over tapes `taped`, and the entry's `tape` span what was generated
//! at all.

use melreq_core::api::{Session, SimRequest};
use melreq_core::experiment::{ExperimentOptions, RunControl};
use melreq_core::store::TempDir;
use melreq_core::CheckpointStore;
use melreq_memctrl::policy::PolicyKind;
use melreq_trace::tape::CHUNK_OPS;
use std::sync::Arc;

/// Run `req` on `session` with the profiler on: the report's bytes and
/// what the spans of that one run say.
struct Observed {
    report: String,
    ops_fetched: u64,
    taped: bool,
    /// `resident` of the run's `snapshot.decode` span; `None` when the
    /// boundary was simulated.
    resident: Option<u64>,
    /// `ops_generated` of a `tape` span recorded meanwhile.
    tape_ops: Option<u64>,
}

fn observe(run: impl FnOnce() -> Option<String>) -> Observed {
    melreq_prof::enable();
    let report = run();
    melreq_prof::disable();
    let profile = melreq_prof::drain();
    let spans = |cat: &'static str| {
        profile.tracks.iter().flat_map(|t| &t.spans).filter(move |s| s.cat == cat)
    };
    let policy: Vec<_> = spans("policy").collect();
    assert!(policy.len() <= 1, "one window per request");
    let decode: Vec<_> = spans("snapshot.decode").collect();
    assert_eq!(decode.is_empty(), spans("warmup").count() == policy.len());
    Observed {
        report: report.unwrap_or_default(),
        ops_fetched: policy.first().map_or(0, |s| s.arg("ops_fetched").expect("a kernel span")),
        taped: policy.first().is_some_and(|s| s.arg("taped") == Some(1)),
        resident: decode.first().map(|s| s.arg("resident").expect("a decode says where from")),
        tape_ops: spans("tape").next().map(|s| s.arg("ops_generated").expect("a tape span")),
    }
}

#[test]
fn a_resident_boundary_answers_as_the_disk_record_and_the_fresh_run_do() {
    for (mix, cores) in [("2MIX-2", 2), ("4MEM-3", 4)] {
        let dir = TempDir::new(&format!("resident-{mix}"));
        let req = SimRequest::new(mix).policy(PolicyKind::MeLreq).opts(ExperimentOptions::quick());
        let run = |session: &Session| {
            Some(session.run(&req, &RunControl::default()).expect("the request runs").to_json())
        };

        let fresh = observe(|| run(&Session::new()));
        assert!(fresh.resident.is_none() && !fresh.taped && fresh.ops_fetched > 0);
        let plain = || Session::with_store(Arc::new(CheckpointStore::open(&*dir).expect("store")));
        let cold = observe(|| run(&plain()));
        let disk = observe(|| run(&plain()));
        assert_eq!((cold.resident, disk.resident), (None, Some(0)), "{mix}: written, then read");

        let store = Arc::new(CheckpointStore::open_resident(&*dir).expect("store"));
        let session = Session::with_store(store.clone());
        let first = observe(|| run(&session));
        let second = observe(|| run(&session));
        let third = observe(|| run(&session));
        let ways = [&fresh, &cold, &disk, &first, &second, &third];
        for (way, seen) in ["fresh", "cold", "disk", "first", "second", "third"].iter().zip(ways) {
            assert_eq!(seen.report, fresh.report, "{mix}: {way} use reports otherwise");
            assert_eq!(seen.ops_fetched, fresh.ops_fetched, "{mix}: {way} use fetches otherwise");
            assert!(seen.tape_ops.is_none(), "{mix}: {way}: the entry is still resident");
        }
        let (resident, taped): (Vec<_>, Vec<_>) =
            ways.iter().map(|w| (w.resident, w.taped)).unzip();
        assert_eq!(resident, [None, None, Some(0), Some(0), Some(1), Some(1)], "{mix}");
        assert_eq!(taped, [false, false, false, false, true, true], "{mix}: second use on");

        // Past its first use the boundary no longer needs its file.
        let records = || std::fs::read_dir(&*dir).expect("store dir").flatten().map(|e| e.path());
        let is_warmup = |p: &std::path::PathBuf| {
            p.file_name().is_some_and(|n| n.to_string_lossy().starts_with("warmup-"))
        };
        let warmups: Vec<_> = records().filter(is_warmup).collect();
        assert_eq!(warmups.len(), 1, "{mix}: one boundary");
        std::fs::write(&warmups[0], b"not a container").expect("corrupt the record");
        let corrupted = observe(|| run(&session));
        std::fs::remove_file(&warmups[0]).expect("delete the record");
        let deleted = observe(|| run(&session));
        for seen in [&corrupted, &deleted] {
            assert_eq!((&seen.report, seen.resident, seen.taped), (&fresh.report, Some(1), true));
        }
        let st = store.stats();
        assert_eq!((st.warmup_hits, st.warmup_misses, st.resident_hits), (5, 0, 4), "{mix}");
        assert!(st.resident_bytes > 0 && st.resident_evictions == 0, "{mix}: {st:?}");

        // The tapes held one window: what the longest reader fetched,
        // rounded up to a chunk a core — generated by the second use,
        // replayed by the three after it.
        let dropped = observe(|| {
            drop((session, store));
            None
        });
        let generated = dropped.tape_ops.expect("dropping the store drops the entry and its tapes");
        let window = fresh.ops_fetched + cores * CHUNK_OPS as u64;
        assert!(
            generated > 0 && generated <= window,
            "{mix}: {generated} generated, window {window}"
        );

        // The second use also wrote them to the store: a restarted server
        // replays them from its first use on, and generates nothing.
        let store = Arc::new(CheckpointStore::open_resident(&*dir).expect("store"));
        let session = Session::with_store(store.clone());
        let restarted = observe(|| run(&session));
        assert_eq!((&restarted.report, restarted.taped), (&fresh.report, true), "{mix}");
        assert_eq!(restarted.ops_fetched, fresh.ops_fetched, "{mix}");
        assert_eq!(store.stats().tape_hits, 1, "{mix}: the record answered");
        let dropped = observe(|| {
            drop((session, store));
            None
        });
        assert_eq!(dropped.tape_ops, Some(0), "{mix}: a restart generates no op");
    }
}
