//! A scoped work-stealing job pool for the experiment sweep.
//!
//! The schedulable unit is a *job*: a boxed closure that may borrow from
//! the caller's stack frame (the pool is built on [`std::thread::scope`],
//! so jobs carry a `'env` lifetime instead of `'static`) and that may
//! *fork* further jobs while running. Two queues feed the workers:
//!
//! * a global **injector** ordered by `(priority desc, submission seq
//!   asc)` — the sweep submits one warm-up job per workload group here,
//!   with the group's core count as the priority, so the longest
//!   critical paths (8-core warm-ups) start first and ties resolve in
//!   deterministic submission order;
//! * one **local deque** per worker for forked children, popped LIFO by
//!   the owner (the freshly published snapshot is still warm in cache)
//!   and stolen FIFO by idle siblings (the oldest fork has waited
//!   longest and is the fairest steal).
//!
//! Determinism contract: the pool guarantees *completion*, not order —
//! every submitted and forked job has run exactly once when
//! [`run_scope`] returns. Callers that need deterministic output write
//! results into pre-indexed slots, which makes the merged output
//! independent of the execution interleaving; the experiment harness
//! pins this end to end (byte-identical artifacts at any worker count).
//!
//! A panicking job (or seeder) drains the pool — workers stop picking
//! up new work, in-flight jobs finish — and the first panic payload is
//! re-thrown from [`run_scope`] on the calling thread.

use std::collections::{BinaryHeap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// A unit of work: runs once on some worker, receiving a [`Ctx`] through
/// which it can fork children.
type Job<'env> = Box<dyn FnOnce(Ctx<'_, 'env>) + Send + 'env>;

/// An injector entry: jobs pop highest `priority` first; equal
/// priorities pop in submission order (`seq` ascending).
struct Ranked<'env> {
    priority: u64,
    seq: u64,
    /// Profiler-clock submit stamp (0 when profiling is off).
    submitted_ns: u64,
    job: Job<'env>,
}

/// A forked child parked on a worker's local deque.
struct Forked<'env> {
    /// Profiler-clock fork stamp (0 when profiling is off).
    submitted_ns: u64,
    job: Job<'env>,
}

/// A job plus its scheduling provenance, as handed to a worker.
struct Taken<'env> {
    job: Job<'env>,
    submitted_ns: u64,
    /// `Some(priority, seq)` for injector roots, `None` for forks.
    root: Option<(u64, u64)>,
    /// Popped from another worker's deque rather than our own.
    stolen: bool,
}

impl PartialEq for Ranked<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl Eq for Ranked<'_> {}
impl PartialOrd for Ranked<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ranked<'_> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap: larger priority wins, then the
        // *smaller* submission sequence (earlier submit) wins.
        (self.priority, std::cmp::Reverse(self.seq))
            .cmp(&(other.priority, std::cmp::Reverse(other.seq)))
    }
}

/// State shared between the seeding thread and the workers.
struct Shared<'env> {
    injector: Mutex<BinaryHeap<Ranked<'env>>>,
    seq: AtomicU64,
    locals: Vec<Mutex<VecDeque<Forked<'env>>>>,
    /// Jobs submitted or forked but not yet finished, plus one for the
    /// seeding closure until it returns: whoever takes the count to 0 is
    /// the last, and only one can.
    active: AtomicUsize,
    /// Terminal state: drained, or poisoned by a panic.
    done: AtomicBool,
    idle: Mutex<()>,
    wake: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl<'env> Shared<'env> {
    fn new(workers: usize) -> Self {
        Shared {
            injector: Mutex::new(BinaryHeap::new()),
            seq: AtomicU64::new(0),
            locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            active: AtomicUsize::new(1),
            done: AtomicBool::new(false),
            idle: Mutex::new(()),
            wake: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    fn poison(&self, payload: Box<dyn std::any::Any + Send>) {
        let mut slot = self.panic.lock().expect("panic slot poisoned");
        if slot.is_none() {
            *slot = Some(payload);
        }
        drop(slot);
        self.done.store(true, Ordering::Release);
        self.wake.notify_all();
    }

    /// A job, or the seeder, is done with its token.
    fn job_finished(&self) {
        if self.active.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.done.store(true, Ordering::Release);
            self.wake.notify_all();
        }
    }
}

/// Handle the seeding closure receives: submit root jobs into the
/// global priority injector.
pub struct Scope<'a, 'env> {
    shared: &'a Shared<'env>,
}

impl<'env> Scope<'_, 'env> {
    /// Submit a root job. Higher `priority` jobs start first; equal
    /// priorities start in submission order.
    pub fn submit(&self, priority: u64, job: impl FnOnce(Ctx<'_, 'env>) + Send + 'env) {
        self.shared.active.fetch_add(1, Ordering::AcqRel);
        let seq = self.shared.seq.fetch_add(1, Ordering::Relaxed);
        self.shared.injector.lock().expect("injector poisoned").push(Ranked {
            priority,
            seq,
            submitted_ns: melreq_prof::now_ns(),
            job: Box::new(job),
        });
        self.shared.wake.notify_all();
    }
}

/// Handle a running job receives: fork children onto the current
/// worker's local deque (popped LIFO locally, stolen FIFO by idle
/// siblings).
pub struct Ctx<'a, 'env> {
    shared: &'a Shared<'env>,
    worker: usize,
}

impl<'env> Ctx<'_, 'env> {
    /// Fork a child job from inside a running job.
    pub fn fork(&self, job: impl FnOnce(Ctx<'_, 'env>) + Send + 'env) {
        self.shared.active.fetch_add(1, Ordering::AcqRel);
        self.shared.locals[self.worker]
            .lock()
            .expect("local deque poisoned")
            .push_back(Forked { submitted_ns: melreq_prof::now_ns(), job: Box::new(job) });
        self.shared.wake.notify_all();
    }

    /// Index of the worker running this job (0-based; diagnostic only).
    pub fn worker(&self) -> usize {
        self.worker
    }
}

fn take_job<'env>(shared: &Shared<'env>, idx: usize) -> Option<Taken<'env>> {
    if let Some(forked) = shared.locals[idx].lock().expect("local deque poisoned").pop_back() {
        return Some(Taken {
            job: forked.job,
            submitted_ns: forked.submitted_ns,
            root: None,
            stolen: false,
        });
    }
    if let Some(ranked) = shared.injector.lock().expect("injector poisoned").pop() {
        return Some(Taken {
            job: ranked.job,
            submitted_ns: ranked.submitted_ns,
            root: Some((ranked.priority, ranked.seq)),
            stolen: false,
        });
    }
    let n = shared.locals.len();
    for off in 1..n {
        let victim = (idx + off) % n;
        if let Some(forked) =
            shared.locals[victim].lock().expect("local deque poisoned").pop_front()
        {
            return Some(Taken {
                job: forked.job,
                submitted_ns: forked.submitted_ns,
                root: None,
                stolen: true,
            });
        }
    }
    None
}

fn worker_loop(shared: &Shared<'_>, idx: usize) {
    melreq_prof::set_thread_track(|| format!("worker {idx}"));
    loop {
        if shared.done.load(Ordering::Acquire) {
            break;
        }
        if let Some(taken) = take_job(shared, idx) {
            let start_ns = melreq_prof::now_ns();
            let Taken { job, submitted_ns, root, stolen } = taken;
            let outcome = catch_unwind(AssertUnwindSafe(|| job(Ctx { shared, worker: idx })));
            let mut args = [("", 0u64); 3];
            let mut nargs = 0;
            if start_ns >= submitted_ns {
                args[nargs] = ("queue_ns", start_ns - submitted_ns);
                nargs += 1;
            }
            if stolen {
                args[nargs] = ("steal", 1);
                nargs += 1;
            }
            if let Some((priority, _)) = root {
                args[nargs] = ("prio", priority);
                nargs += 1;
            }
            melreq_prof::record(
                "exec.job",
                || match root {
                    Some((_, seq)) => format!("root #{seq}"),
                    None => "fork".to_string(),
                },
                start_ns,
                melreq_prof::now_ns(),
                &args[..nargs],
            );
            if let Err(payload) = outcome {
                shared.poison(payload);
            }
            shared.job_finished();
        } else {
            let guard = shared.idle.lock().expect("idle lock poisoned");
            if shared.done.load(Ordering::Acquire) {
                break;
            }
            // The timeout bounds the race between a failed scan and a
            // concurrent submit (a missed notify costs at most one tick,
            // against jobs that run for milliseconds to seconds).
            let _unused = shared
                .wake
                .wait_timeout(guard, Duration::from_millis(2))
                .expect("idle lock poisoned while waiting");
        }
    }
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
    let workers = workers.max(1);
    let shared = Shared::new(workers);
    std::thread::scope(|s| {
        for i in 0..workers {
            let shared = &shared;
            s.spawn(move || worker_loop(shared, i));
        }
        let seeded = catch_unwind(AssertUnwindSafe(|| seed(&Scope { shared: &shared })));
        if let Err(payload) = seeded {
            shared.poison(payload);
        }
        shared.job_finished();
    });
    let payload = shared.panic.lock().expect("panic slot poisoned").take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Mutex;

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
        // are submitted, so the injector's pop order is observable.
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
