//! A scoped job pool: one locked priority queue, drained by a fixed set
//! of worker threads. It is the workspace's one pool implementation,
//! with three seeders: the experiment sweep (`run_sweep_stages`, which
//! `melreq sweep` and `melreq reproduce` call), the server's event loop,
//! which submits each admitted request at priority 0, and the load
//! generator's pacer, which submits each planned arrival at priority 0
//! at its scheduled instant.
//!
//! The schedulable unit is a *job*: a boxed closure that may borrow from
//! the caller's stack frame (the pool is built on [`std::thread::scope`],
//! so jobs carry a `'env` lifetime instead of `'static`) and that may
//! *fork* further jobs while running. Every job waits in the one queue,
//! ranked by one comparison chain:
//!
//! * a **fork** outranks every root, so a worker finishes the group it
//!   is in before it starts the next warm-up;
//! * **roots** pop by priority, highest first — the sweep submits one
//!   warm-up job per workload group with the group's core count as the
//!   priority, so the longest critical paths (8-core warm-ups) start
//!   first;
//! * ties pop in submission order.
//!
//! Determinism contract: the pool guarantees *completion*, not order —
//! every submitted and forked job has run exactly once when
//! [`run_scope`] returns. Callers that need deterministic output write
//! results into pre-indexed slots, which makes the merged output
//! independent of the execution interleaving; the experiment harness
//! pins this end to end (byte-identical artifacts at any worker count).
//!
//! A panicking job (or seeder) drains the pool — workers start no queued
//! job, in-flight jobs finish — and the first panic payload is re-thrown
//! from [`run_scope`] on the calling thread.

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard};

/// A unit of work: runs once on some worker, receiving a [`Ctx`] through
/// which it can fork children.
type Job<'env> = Box<dyn FnOnce(Ctx<'_, 'env>) + Send + 'env>;

/// What a panic carries, as [`catch_unwind`] returns it.
type Payload = Box<dyn std::any::Any + Send>;

/// A queued job's rank, largest first: a fork (`true`) outranks every
/// root, then the larger priority (`None` for a fork), then the earlier
/// submission.
type Rank = (bool, Option<u64>, Reverse<u64>);

/// Everything the seeding thread and the workers share, behind one lock.
struct State<'env> {
    /// Every queued job by rank, with its profiler-clock submit stamp (0
    /// when profiling is off).
    queue: BTreeMap<Rank, (u64, Job<'env>)>,
    /// Jobs submitted or forked so far: the next one's sequence number.
    seq: u64,
    /// Jobs queued or running, plus one for the seeder until it returns.
    live: usize,
    /// The first panic of a job or the seeder.
    panic: Option<Payload>,
}

impl State<'_> {
    /// Every job has finished, or one panicked: no worker starts another.
    fn over(&self) -> bool {
        self.live == 0 || self.panic.is_some()
    }
}

struct Pool<'env> {
    state: Mutex<State<'env>>,
    wake: Condvar,
}

impl<'env> Pool<'env> {
    fn lock(&self) -> MutexGuard<'_, State<'env>> {
        // Jobs and the seeder run outside the lock: nothing panics in it.
        self.state.lock().expect("pool lock poisoned")
    }

    fn push(&self, priority: Option<u64>, job: Job<'env>) {
        let mut state = self.lock();
        let rank = (priority.is_none(), priority, Reverse(state.seq));
        state.seq += 1;
        state.live += 1;
        state.queue.insert(rank, (melreq_prof::now_ns(), job));
        drop(state);
        self.wake.notify_one();
    }

    /// A job, or the seeder, has returned `outcome`: count it out, and
    /// wake every waiting worker if that ended the scope.
    fn finish(&self, outcome: Result<(), Payload>) -> MutexGuard<'_, State<'env>> {
        let mut state = self.lock();
        if let Err(payload) = outcome {
            state.panic.get_or_insert(payload);
        }
        state.live -= 1;
        if state.over() {
            self.wake.notify_all();
        }
        state
    }
}

/// Handle the seeding closure receives: submit root jobs.
pub struct Scope<'a, 'env> {
    pool: &'a Pool<'env>,
}

impl<'env> Scope<'_, 'env> {
    /// Submit a root job. Higher `priority` jobs start first; equal
    /// priorities start in submission order.
    pub fn submit(&self, priority: u64, job: impl FnOnce(Ctx<'_, 'env>) + Send + 'env) {
        self.pool.push(Some(priority), Box::new(job));
    }
}

/// Handle a running job receives: fork children, which start before any
/// queued root.
pub struct Ctx<'a, 'env> {
    pool: &'a Pool<'env>,
}

impl<'env> Ctx<'_, 'env> {
    /// Fork a child job from inside a running job.
    pub fn fork(&self, job: impl FnOnce(Ctx<'_, 'env>) + Send + 'env) {
        self.pool.push(None, Box::new(job));
    }
}

fn worker_loop(pool: &Pool<'_>, idx: usize) {
    melreq_prof::set_thread_track(|| format!("worker {idx}"));
    let mut state = pool.lock();
    while !state.over() {
        let Some(((_, priority, Reverse(seq)), (submitted_ns, job))) = state.queue.pop_last()
        else {
            state = pool.wake.wait(state).expect("pool lock poisoned while waiting");
            continue;
        };
        drop(state);
        let start_ns = melreq_prof::now_ns();
        let outcome = catch_unwind(AssertUnwindSafe(|| job(Ctx { pool })));
        let queue_ns = start_ns.saturating_sub(submitted_ns);
        let args = [("queue_ns", queue_ns), ("prio", priority.unwrap_or(0))];
        melreq_prof::record(
            "exec.job",
            || priority.map_or_else(|| "fork".to_string(), |_| format!("root #{seq}")),
            start_ns,
            melreq_prof::now_ns(),
            &args[..1 + usize::from(priority.is_some())],
        );
        state = pool.finish(outcome);
    }
    drop(state);
    // Joining a scoped thread does not wait for TLS destructors, so the
    // recorder must flush here — not in Drop — or [`melreq_prof::drain`]
    // on the caller can race the flush and lose this worker's spans.
    melreq_prof::flush_thread();
}

/// Run a job pool with `workers` worker threads (clamped to at least
/// one). `seed` submits the root jobs; the call returns once every
/// submitted and forked job has finished. If a job or the seeder
/// panicked, the pool drains and the first panic is re-thrown here.
pub fn run_scope<'env>(workers: usize, seed: impl FnOnce(&Scope<'_, 'env>)) {
    let state = State { queue: BTreeMap::new(), seq: 0, live: 1, panic: None };
    let pool = Pool { state: Mutex::new(state), wake: Condvar::new() };
    std::thread::scope(|s| {
        for i in 0..workers.max(1) {
            let pool = &pool;
            s.spawn(move || worker_loop(pool, i));
        }
        let seeded = catch_unwind(AssertUnwindSafe(|| seed(&Scope { pool: &pool })));
        drop(pool.finish(seeded));
    });
    let panic = pool.state.into_inner().expect("pool lock poisoned").panic;
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Mutex;
    use std::time::Duration;

    #[test]
    fn runs_every_submitted_job_once() {
        for workers in [1, 2, 8] {
            let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
            run_scope(workers, |scope| {
                for slot in &hits {
                    scope.submit(0, move |_ctx| {
                        slot.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "every job runs exactly once at {workers} workers"
            );
        }
    }

    #[test]
    fn forked_children_all_run() {
        for workers in [1, 3] {
            let count = AtomicUsize::new(0);
            run_scope(workers, |scope| {
                for _ in 0..4 {
                    scope.submit(0, |ctx| {
                        count.fetch_add(1, Ordering::Relaxed);
                        for _ in 0..5 {
                            ctx.fork(|_ctx| {
                                count.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                }
            });
            assert_eq!(count.load(Ordering::Relaxed), 4 * 6, "at {workers} workers");
        }
    }

    #[test]
    fn grandchildren_run_too() {
        let count = AtomicUsize::new(0);
        run_scope(2, |scope| {
            scope.submit(0, |ctx| {
                ctx.fork(|ctx| {
                    ctx.fork(|_ctx| {
                        count.fetch_add(1, Ordering::Relaxed);
                    });
                });
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn injector_orders_by_priority_then_submission() {
        // A gate job occupies the single worker while the remaining jobs
        // are submitted, so the queue's pop order is observable.
        let released = AtomicBool::new(false);
        let order = Mutex::new(Vec::new());
        run_scope(1, |scope| {
            scope.submit(u64::MAX, |_ctx| {
                while !released.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            });
            for (priority, tag) in [(2u64, "2a"), (8, "8a"), (2, "2b"), (8, "8b"), (4, "4a")] {
                let order = &order;
                scope.submit(priority, move |_ctx| {
                    order.lock().unwrap().push(tag);
                });
            }
            released.store(true, Ordering::Release);
        });
        assert_eq!(*order.lock().unwrap(), vec!["8a", "8b", "4a", "2a", "2b"]);
    }

    #[test]
    fn empty_seed_returns() {
        run_scope(4, |_scope| {});
    }

    /// Regression: the seeder stored "seeded" then loaded `active` while
    /// a worker decremented `active` then loaded "seeded"; both loads could
    /// miss the other's store, and then nobody ended the scope. Every
    /// scope here seeds a job the workers may finish before the seeder
    /// returns, and a watchdog fails the test if any scope never ends.
    #[test]
    fn scopes_whose_last_job_races_the_seeder_always_end() {
        const SCOPES: usize = 20_000;
        let (ended, watched) = std::sync::mpsc::channel();
        let stress = std::thread::spawn(move || {
            for i in 0..SCOPES {
                let ran = AtomicUsize::new(0);
                run_scope(2, |scope| {
                    scope.submit(0, |_ctx| {
                        ran.fetch_add(1, Ordering::Relaxed);
                    });
                });
                assert_eq!(ran.load(Ordering::Relaxed), 1, "scope {i}");
            }
            let _ = ended.send(());
        });
        let timed_out = std::sync::mpsc::RecvTimeoutError::Timeout;
        assert!(
            watched.recv_timeout(Duration::from_secs(120)) != Err(timed_out),
            "a scope failed to end within the watchdog's two minutes"
        );
        stress.join().expect("every scope ran its job once");
    }

    #[test]
    fn job_panic_propagates_to_caller() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_scope(2, |scope| {
                scope.submit(0, |_ctx| panic!("job exploded"));
            });
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "job exploded");
    }

    /// A fork outranks the queued root, so on one worker it runs first —
    /// and its panic drains the pool before the root can start.
    #[test]
    fn fork_panic_drains_the_queued_roots() {
        let started = AtomicBool::new(false);
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_scope(1, |scope| {
                scope.submit(2, |ctx| ctx.fork(|_ctx| panic!("fork exploded")));
                scope.submit(1, |_ctx| started.store(true, Ordering::Relaxed));
            });
        }));
        let payload = result.expect_err("the fork's panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>().copied(), Some("fork exploded"));
        assert!(!started.load(Ordering::Relaxed), "a drained pool starts no queued root");
    }

    #[test]
    fn seeder_panic_propagates_to_caller() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_scope(2, |scope| {
                scope.submit(0, |_ctx| {});
                panic!("seed exploded");
            });
        }));
        assert!(result.is_err());
    }

    #[test]
    fn profiled_pool_records_job_spans_per_worker() {
        // Other tests in this binary may run pools concurrently while
        // profiling is on; assertions are presence-based (>=), never
        // exact counts, so extra spans from neighbors cannot fail us.
        melreq_prof::enable();
        let count = AtomicUsize::new(0);
        run_scope(2, |scope| {
            for _ in 0..4 {
                scope.submit(3, |ctx| {
                    count.fetch_add(1, Ordering::Relaxed);
                    ctx.fork(|_ctx| {
                        count.fetch_add(1, Ordering::Relaxed);
                    });
                });
            }
        });
        melreq_prof::disable();
        let p = melreq_prof::drain();
        assert_eq!(count.load(Ordering::Relaxed), 8);
        // A worker that happened to run zero jobs flushes no track, so
        // assert the labeling scheme, not a specific worker index.
        assert!(
            p.tracks.iter().any(|t| t.label.starts_with("worker ")),
            "worker threads label their tracks"
        );
        let jobs: Vec<_> =
            p.tracks.iter().flat_map(|t| t.spans.iter()).filter(|s| s.cat == "exec.job").collect();
        assert!(jobs.len() >= 8, "one span per submitted and forked job");
        assert!(jobs.iter().any(|s| s.arg("prio") == Some(3)), "roots carry their priority");
        assert!(jobs.iter().all(|s| s.arg("queue_ns").is_some()), "queue wait attributed");
    }

    #[test]
    fn jobs_may_borrow_the_callers_stack() {
        let inputs = [1u64, 2, 3, 4];
        let slots: Vec<Mutex<Option<u64>>> = inputs.iter().map(|_| Mutex::new(None)).collect();
        run_scope(2, |scope| {
            for (i, v) in inputs.iter().enumerate() {
                let slot = &slots[i];
                scope.submit(0, move |_ctx| {
                    *slot.lock().unwrap() = Some(v * 10);
                });
            }
        });
        let out: Vec<u64> = slots.iter().map(|s| s.lock().unwrap().unwrap()).collect();
        assert_eq!(out, vec![10, 20, 30, 40]);
    }
}
