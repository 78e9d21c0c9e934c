//! One persistent fan-out pool for every parallel job in the process.
//!
//! Constraint discovery, index creation and query processing are performed
//! partition-locally and in parallel (paper, Section 3.2), and so is the
//! delta propagate (Section 5): [`fan_out`] runs one closure per task index
//! and returns the results in index order. It sits in the storage crate so
//! that [`Table::propagate_all`](crate::Table::propagate_all) can run one
//! task per (partition, column) on it; `pi-exec` re-exports it, with its
//! per-partition form, for the query layers above.
//!
//! Every fan-out in the process shares one pool of `cores − 1` long-lived
//! helper threads, started on first use and parked on a condvar between
//! jobs. The calling thread helps: it posts the job, wakes up to
//! `min(n, cores) − 1` helpers, and then claims task indices from the
//! job's atomic counter alongside them. A fan-out of microsecond tasks
//! therefore finishes on the caller after one notify, while slow tasks
//! still spread over every core. Because every caller drains its own job
//! before it waits, a `fan_out` nested inside a task cannot deadlock.
//!
//! A parked helper joins a job late, and the later the longer it was
//! parked. On a 2-vCPU Xeon VM (jobs of 200 spinning 5 µs tasks, median
//! of 300 per idle time) the helper's first claim came about 4 µs after
//! the post when the pool had been idle for ≤ 100 µs, about 11 µs after
//! 200–400 µs idle, and about 140 µs after ≥ 3 ms idle; after 1 ms idle
//! the median was 16 µs and the upper quartile 133 µs. In `pibench`,
//! 69 % of `ingest_durable`'s jobs, 49 % of `tpch_refresh`'s and 46 % of
//! `adhoc_exec`'s came after ≥ 1 ms idle (helper's first claim: median
//! 129–135 µs), and `served_dash`'s helpers joined in 4–6 µs. The caller
//! works meanwhile, so a job shorter than that runs on the caller alone,
//! and a job cut into many small tasks (`pi-exec`'s `per_morsel`) still
//! hands the late helper a share.
//!
//! One task-size rule ([`tasks_for`]) says when a job is worth the pool:
//! it fans out only when each task gets at least [`BATCH_SIZE`] rows, so
//! a job over a few hundred values runs inline on the caller instead of
//! waking helpers for it.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{self, Thread};

/// Preferred number of rows per batch of the query executor (`pi-exec`
/// re-exports it), and the fewest rows a pool task gets ([`tasks_for`]).
pub const BATCH_SIZE: usize = 4096;

/// The process-wide pool. Its queue and condvar are const-initialized;
/// the helper threads start on the first fan-out of two or more tasks.
static POOL: Pool = Pool {
    queue: Mutex::new(VecDeque::new()),
    wake: Condvar::new(),
};

/// The helper threads running, started once: `cores − 1` of them, read
/// from the machine's available parallelism. A spawn the system refuses
/// only leaves fewer helpers — every caller drains its own job, so the
/// pool completes jobs with none. Helpers live as long as the process and
/// are never joined; a task panic is caught, so none of them dies early.
fn helpers() -> usize {
    static HELPERS: OnceLock<usize> = OnceLock::new();
    *HELPERS.get_or_init(|| {
        let cores = thread::available_parallelism().map_or(1, |p| p.get());
        (1..cores)
            .filter(|h| {
                thread::Builder::new()
                    .name(format!("pi-fanout-{h}"))
                    .spawn(|| POOL.help())
                    .is_ok()
            })
            .count()
    })
}

/// The threads a fan-out runs on: the pool's helpers and the caller.
pub fn threads() -> usize {
    helpers() + 1
}

/// The task-size rule: how many tasks, at most `want`, a job over `rows`
/// rows in all runs as, so that each task gets at least [`BATCH_SIZE`]
/// rows. It is never below 1, and 1 task runs inline on the caller.
pub fn tasks_for(rows: usize, want: usize) -> usize {
    (rows / BATCH_SIZE).clamp(1, want.max(1))
}

/// Locks one of the pool's mutexes, recovering it from poisoning: every
/// update under them (a push, a `retain`, a `get_or_insert`) leaves the
/// data valid, and a lock that cannot panic keeps [`Pool::run`] free of
/// unwinding between posting a job and waiting for it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f(i)` for every `i` in `0..n`, in parallel on the process-wide
/// pool with the calling thread taking part, and returns the results in
/// index order. Tasks are claimed dynamically, so a slow task does not
/// hold back the indices after it.
///
/// If a task panics, no further tasks start; the call waits for the
/// tasks already running and then resumes the first panic in the caller
/// with its original payload. The pool stays usable afterwards.
pub fn fan_out<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let helpers = helpers();
    if n <= 1 || helpers == 0 {
        return (0..n).map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let task = |i: usize| {
        let value = f(i);
        *slots[i].lock().expect("a result slot is written once") = Some(value);
    };
    POOL.run(n, helpers, &task);
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("a result slot is written once")
                .expect("fan_out returns only after every task finished")
        })
        .collect()
}

/// The jobs helper threads claim tasks from, and the condvar they park on.
struct Pool {
    /// Posted jobs that may still have unclaimed tasks; each caller
    /// withdraws its own job once it has claimed past the last index.
    queue: Mutex<VecDeque<Arc<Job>>>,
    /// Signalled once per helper a posted job wants.
    wake: Condvar,
}

impl Pool {
    /// A helper thread's loop: work on the first job with unclaimed
    /// tasks, park on `wake` while there is none.
    fn help(&self) {
        let mut queue = lock(&self.queue);
        loop {
            let unclaimed = |job: &&Arc<Job>| job.next.load(Ordering::Relaxed) < job.n;
            let job = queue.iter().find(unclaimed).cloned();
            match job {
                Some(job) => {
                    drop(queue);
                    job.work();
                    drop(job);
                    queue = lock(&self.queue);
                }
                None => {
                    queue = self
                        .wake
                        .wait(queue)
                        .unwrap_or_else(PoisonError::into_inner)
                }
            }
        }
    }

    /// Posts an `n`-task job, wakes up to `min(n, helpers + 1) − 1` of the
    /// `helpers`, works on the job alongside them and returns once every
    /// task has finished, resuming the first task panic.
    fn run<'a>(&self, n: usize, helpers: usize, task: &'a (dyn Fn(usize) + Sync + 'a)) {
        let task: *const (dyn Fn(usize) + Sync + 'a) = task;
        // SAFETY: only the lifetime changes; the fat pointer's layout is
        // the same. The erased pointer lives in `job.task`, which
        // `Job::work` dereferences only for a claimed index `< n`, before
        // counting that index in `job.done`. This function returns — or
        // unwinds — only after `job.done` reached `n`: nothing between
        // posting the job and the wait below can unwind (`lock` recovers
        // from poisoning, `Job::work` runs every task under
        // `catch_unwind`), and a task panic is resumed only after the
        // wait. `task`, and everything it borrows for `'a`, outlives this
        // call, so it outlives every dereference.
        let task: *const (dyn Fn(usize) + Sync + 'static) = unsafe { std::mem::transmute(task) };
        let job = Arc::new(Job {
            n,
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            panic: Mutex::new(None),
            caller: thread::current(),
            task,
        });
        lock(&self.queue).push_back(Arc::clone(&job));
        for _ in 1..n.min(helpers + 1) {
            self.wake.notify_one();
        }
        job.work();
        lock(&self.queue).retain(|j| !Arc::ptr_eq(j, &job));
        // Acquire pairs with the AcqRel increment of each finished task,
        // so every result slot written by a helper is visible here.
        while job.done.load(Ordering::Acquire) < n {
            thread::park();
        }
        let payload = lock(&job.panic).take();
        if let Some(payload) = payload {
            panic::resume_unwind(payload);
        }
    }
}

/// One posted fan-out: `n` task indices handed out by `next`.
struct Job {
    /// Task indices are `0..n`.
    n: usize,
    /// The next index to hand out; a claim `≥ n` finds the job exhausted.
    next: AtomicUsize,
    /// Tasks finished — run, or skipped after a panic. The thread that
    /// makes it `n` unparks `caller`.
    done: AtomicUsize,
    /// Set by the first panicking task: later claims skip their task.
    panicked: AtomicBool,
    /// The first task panic's payload, resumed in the caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// The thread that posted the job and waits for `done == n`.
    caller: Thread,
    /// The caller's task with its lifetime erased (see [`Pool::run`]).
    task: *const (dyn Fn(usize) + Sync),
}

// SAFETY: `n`, `next`, `done`, `panicked`, `panic` and `caller` are Send
// and Sync on their own. `task` points to a `dyn Fn + Sync` closure, so
// sharing it across threads is sound; it is dereferenced only for a
// claimed index `< n`, while `Pool::run` keeps the closure alive by not
// returning before every such task finished.
unsafe impl Send for Job {}
// SAFETY: `n` is read-only; `next`, `done` and `panicked` are atomics;
// `panic` is a `Mutex` of a `Send` payload; `caller` is `Sync`. `task`
// is only ever called through a shared reference, from several threads
// at once, which the closure's `Sync` bound allows, and only while
// `Pool::run` keeps it alive (see `Send` above).
unsafe impl Sync for Job {}

impl Job {
    /// Claims and runs tasks until the job is exhausted. A claim `≥ n`
    /// returns without touching `task`: by then `Pool::run` may have
    /// returned and freed what it points to.
    fn work(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                return;
            }
            if !self.panicked.load(Ordering::Relaxed) {
                // SAFETY: `i < n` was claimed by this thread and is not yet
                // counted in `done`, so `Pool::run` has not returned and the
                // closure `task` points to is alive.
                let task = unsafe { &*self.task };
                if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| task(i))) {
                    self.panicked.store(true, Ordering::Relaxed);
                    lock(&self.panic).get_or_insert(payload);
                }
            }
            if self.done.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
                self.caller.unpark();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::time::Duration;

    fn cores() -> usize {
        thread::available_parallelism().map_or(1, |p| p.get())
    }

    /// Repetitions of the pool's interleaving tests; CI's stress lane
    /// raises it through `PI_POOL_ITERS`.
    fn iters() -> usize {
        std::env::var("PI_POOL_ITERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(1)
    }

    /// Runs a two-task fan-out whose tasks meet at a barrier, so one of
    /// them runs on a helper; `None` on one core, where no helper exists
    /// and the barrier would never open.
    fn with_helper<T: Send>(task: impl Fn(usize) -> T + Sync) -> Option<Vec<T>> {
        if cores() < 2 {
            eprintln!("one core: no helper to force, case skipped");
            return None;
        }
        let barrier = Barrier::new(2);
        Some(fan_out(2, |i| {
            barrier.wait();
            task(i)
        }))
    }

    #[test]
    fn tasks_get_at_least_a_batch_of_rows() {
        assert_eq!(tasks_for(0, 8), 1);
        assert_eq!(tasks_for(BATCH_SIZE * 2 - 1, 8), 1);
        assert_eq!(tasks_for(BATCH_SIZE * 2, 8), 2);
        assert_eq!(tasks_for(BATCH_SIZE * 100, 8), 8);
        assert_eq!(tasks_for(BATCH_SIZE * 100, 0), 1);
    }

    #[test]
    fn fan_out_returns_results_in_index_order() {
        for _ in 0..iters() {
            for n in [0, 1, cores(), 97] {
                let runs = AtomicUsize::new(0);
                let out = fan_out(n, |i| {
                    runs.fetch_add(1, Ordering::Relaxed);
                    i * i
                });
                assert_eq!(out, (0..n).map(|i| i * i).collect::<Vec<_>>());
                assert_eq!(runs.into_inner(), n, "every task ran exactly once");
            }
        }
    }

    #[test]
    fn concurrent_callers_each_get_their_own_results() {
        const CALLERS: usize = 16;
        for _ in 0..iters() {
            let start = Barrier::new(CALLERS);
            thread::scope(|scope| {
                for c in 0..CALLERS {
                    let start = &start;
                    scope.spawn(move || {
                        start.wait();
                        for round in 0..20 {
                            let n = 1 + (c + round) % 9;
                            let out = fan_out(n, |i| (c, i));
                            assert_eq!(out, (0..n).map(|i| (c, i)).collect::<Vec<_>>());
                        }
                    });
                }
            });
        }
    }

    #[test]
    fn nested_fan_out_completes() {
        for _ in 0..iters() {
            let out = fan_out(8, |i| fan_out(8, |j| i * 8 + j).into_iter().sum::<usize>());
            let want: Vec<usize> = (0..8).map(|i| (0..8).map(|j| i * 8 + j).sum()).collect();
            assert_eq!(out, want);
        }
    }

    #[test]
    fn a_helper_takes_part() {
        for _ in 0..iters() {
            let caller = thread::current().id();
            let Some(ran_on) = with_helper(|_| thread::current().id()) else {
                return;
            };
            assert_ne!(ran_on[0], ran_on[1], "the tasks met at the barrier");
            assert!(ran_on.iter().any(|&t| t != caller));
        }
    }

    /// One forced panic on a helper or on the caller: tasks 0 and 1 meet
    /// at a barrier, so they run on two threads; the one on the chosen
    /// side panics and its partner finishes slowly, and tasks 2.. are
    /// plain siblings. The panic must reach the caller with its payload,
    /// only after every started task finished. Returns `false` when the
    /// caller ran neither barrier task (only possible on three or more
    /// cores), so a caller-side panic could not be forced.
    fn panic_after_siblings(on_caller: bool) -> bool {
        let caller = thread::current().id();
        let ran_on = Mutex::new([None; 2]);
        let barrier = Barrier::new(2);
        let started = AtomicUsize::new(0);
        let finished = AtomicUsize::new(0);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            fan_out(6, |i| {
                if i < 2 {
                    ran_on.lock().unwrap()[i] = Some(thread::current().id());
                    barrier.wait();
                    let ran_on = *ran_on.lock().unwrap();
                    let mine = ran_on[i] == Some(caller);
                    let partners = ran_on[1 - i] == Some(caller);
                    // On a helper: the one beside the caller, or task 1
                    // when both run on helpers.
                    let panics = match on_caller {
                        true => mine,
                        false => !mine && (partners || i == 1),
                    };
                    if panics {
                        panic!("task boom");
                    }
                }
                started.fetch_add(1, Ordering::SeqCst);
                if i < 2 {
                    // A slow partner: a pool that resumed the panic before
                    // waiting for in-flight tasks fails the check below.
                    thread::sleep(Duration::from_millis(20));
                }
                finished.fetch_add(1, Ordering::SeqCst);
            })
        }));
        let Err(payload) = result else {
            assert!(on_caller, "a helper-side panic is always forced");
            return false;
        };
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"task boom"));
        let finished = finished.load(Ordering::SeqCst);
        assert_eq!(finished, started.load(Ordering::SeqCst));
        assert!(finished >= 1, "the barrier partner finished");
        true
    }

    #[test]
    fn task_panic_reaches_the_caller_after_siblings() {
        if cores() < 2 {
            eprintln!("one core: no helper to force, case skipped");
            return;
        }
        for _ in 0..iters() {
            for on_caller in [false, true] {
                assert!((0..100).any(|_| panic_after_siblings(on_caller)));
                // The same pool, helpers included, still serves jobs.
                assert_eq!(fan_out(97, |i| i + 1), (1..=97).collect::<Vec<_>>());
                let ids = with_helper(|_| thread::current().id()).expect("two cores");
                assert_ne!(ids[0], ids[1]);
            }
        }
    }
}
