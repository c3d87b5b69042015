//! Deterministic data-parallel helpers over a reusable worker pool.
//!
//! The container this workspace builds in has no network access, so the
//! usual `rayon` dependency is replaced by a minimal fork/join layer.
//! The contract every caller relies on: **results are a pure function
//! of the input, independent of the thread count** — each index is
//! mapped by a closure that receives only the index, so chunking can
//! never reorder observable effects. Randomized callers pass per-index
//! RNG streams (`Rng::stream`) to keep that property.
//!
//! Earlier revisions spawned fresh OS threads on every call via
//! `std::thread::scope`. That is fine for one-shot construction fans
//! (a ~10 µs spawn against seconds of work) but not for the
//! simulator's conservative-window driver, which dispatches a parallel
//! region **per time window** — thousands of regions per run. All
//! helpers therefore route through one lazily-started process-wide
//! [`WorkerPool`] ([`pool`]), whose [`WorkerPool::scope`] hands
//! lifetime-scoped jobs to persistent workers:
//!
//! * the scope call does not return until every job it spawned has
//!   completed, so jobs may borrow from the caller's stack exactly as
//!   with `std::thread::scope` (enforced by a completion latch that is
//!   also waited on during unwinding);
//! * the **caller participates**: while waiting it pops and runs queued
//!   jobs itself, so nested scopes (a pooled job fanning out its own
//!   sub-region) and more jobs than workers can never deadlock;
//! * a panicking job poisons its scope's latch; the scope waits for
//!   the remaining jobs, then re-raises the panic at the caller.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Number of worker threads to use when the caller asks for "auto" (`0`).
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// A lifetime-erased queued job.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Completion latch of one [`WorkerPool::scope`] call.
struct Latch {
    state: Mutex<LatchState>,
    cv: Condvar,
}

struct LatchState {
    pending: usize,
    poisoned: bool,
}

impl Latch {
    fn new() -> Latch {
        Latch {
            state: Mutex::new(LatchState {
                pending: 0,
                poisoned: false,
            }),
            cv: Condvar::new(),
        }
    }

    fn add_one(&self) {
        self.state.lock().expect("latch lock").pending += 1;
    }

    /// Marks one job finished; `ok = false` poisons the scope.
    fn complete(&self, ok: bool) {
        let mut st = self.state.lock().expect("latch lock");
        st.pending -= 1;
        st.poisoned |= !ok;
        if st.pending == 0 {
            self.cv.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        self.state.lock().expect("latch lock").pending == 0
    }

    /// Blocks until every registered job has completed.
    fn wait_done(&self) {
        let mut st = self.state.lock().expect("latch lock");
        while st.pending > 0 {
            st = self.cv.wait(st).expect("latch wait");
        }
    }

    fn poisoned(&self) -> bool {
        self.state.lock().expect("latch lock").poisoned
    }
}

struct PoolState {
    queue: VecDeque<(Job, Arc<Latch>)>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    work_cv: Condvar,
}

/// A reusable pool of persistent worker threads with scoped, borrowing
/// job submission — see the module docs for the contract. One global
/// instance ([`pool`]) serves the whole process; tests may build
/// private pools to exercise startup/shutdown.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    workers: usize,
}

impl WorkerPool {
    /// Starts a pool with `workers` persistent threads (`0` = auto).
    pub fn new(workers: usize) -> WorkerPool {
        let workers = if workers == 0 {
            default_parallelism()
        } else {
            workers
        };
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            workers,
        }
    }

    /// Persistent worker threads in this pool.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `f` with a [`Scope`] whose spawned jobs may borrow from the
    /// enclosing stack frame; returns only after every spawned job has
    /// completed. Panics (after the wait) if any job panicked.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&Scope<'_, 'env>) -> R,
    {
        let latch = Arc::new(Latch::new());
        let result = {
            // The guard waits even when `f` unwinds after spawning, so
            // no job can outlive a borrow it captured.
            let _guard = WaitGuard {
                pool: self,
                latch: &latch,
            };
            let scope = Scope {
                pool: self,
                latch: Arc::clone(&latch),
                _env: std::marker::PhantomData,
            };
            f(&scope)
        };
        if latch.poisoned() {
            panic!("worker pool job panicked");
        }
        result
    }

    fn enqueue(&self, job: Job, latch: Arc<Latch>) {
        let mut st = self.shared.state.lock().expect("pool lock");
        st.queue.push_back((job, latch));
        drop(st);
        self.shared.work_cv.notify_one();
    }

    fn try_pop(&self) -> Option<(Job, Arc<Latch>)> {
        self.shared
            .state
            .lock()
            .expect("pool lock")
            .queue
            .pop_front()
    }

    /// Caller-participating wait: runs queued jobs (its own first in
    /// FIFO order, then anything else pending) until the latch drains.
    fn wait(&self, latch: &Latch) {
        loop {
            if latch.is_done() {
                return;
            }
            match self.try_pop() {
                Some((job, job_latch)) => run_job(job, &job_latch),
                // Nothing runnable: our jobs are in flight on workers;
                // their completions notify the latch.
                None => {
                    latch.wait_done();
                    return;
                }
            }
        }
    }
}

struct WaitGuard<'a> {
    pool: &'a WorkerPool,
    latch: &'a Latch,
}

impl Drop for WaitGuard<'_> {
    fn drop(&mut self) {
        self.pool.wait(self.latch);
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.state.lock().expect("pool lock").shutdown = true;
        self.shared.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut st = shared.state.lock().expect("pool lock");
            loop {
                if let Some(j) = st.queue.pop_front() {
                    break Some(j);
                }
                if st.shutdown {
                    break None;
                }
                st = shared.work_cv.wait(st).expect("pool wait");
            }
        };
        match job {
            Some((job, latch)) => run_job(job, &latch),
            None => return,
        }
    }
}

fn run_job(job: Job, latch: &Latch) {
    let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).is_ok();
    latch.complete(ok);
}

/// Spawn handle of one [`WorkerPool::scope`] region.
pub struct Scope<'p, 'env> {
    pool: &'p WorkerPool,
    latch: Arc<Latch>,
    _env: std::marker::PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'_, 'env> {
    /// Queues a job that may borrow anything outliving the scope call.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        self.latch.add_one();
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(f);
        // SAFETY: `WorkerPool::scope` does not return (and its unwind
        // guard does not finish) until this job has run to completion,
        // so every `'env` borrow the closure captured strictly outlives
        // its execution. The transmute only erases that lifetime; the
        // layout of the boxed trait object is unchanged.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(job)
        };
        self.pool.enqueue(job, Arc::clone(&self.latch));
    }
}

/// The process-wide worker pool, started on first use with one thread
/// per available core. Construction fans, probe batches and the
/// simulator's window driver all share it, so a run's thread count is
/// bounded regardless of how many layers go parallel at once.
pub fn pool() -> &'static WorkerPool {
    static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
    GLOBAL.get_or_init(|| WorkerPool::new(0))
}

/// Maps `f` over `0..n` into a `Vec`, splitting the index range into
/// contiguous chunks across `threads` workers (`0` = auto). Falls back to
/// a plain sequential loop for one thread or tiny inputs, so the parallel
/// and sequential paths produce identical results by construction.
///
/// Tuned for cheap per-item work; when each item is itself expensive
/// (e.g. a full greedy route), use [`par_map_grained`] with a smaller
/// minimum chunk.
pub fn par_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_map_grained(n, threads, DEFAULT_MIN_PER_THREAD, f)
}

/// [`par_map`] with an explicit minimum number of items per worker:
/// threads are capped at `n / min_per_thread`, so small batches of
/// expensive items still fan out while trivial maps stay inline.
pub fn par_map_grained<T, F>(n: usize, threads: usize, min_per_thread: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = effective_threads(n, threads, min_per_thread);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    // Workers write their chunk of the one output allocation in place —
    // no per-chunk vectors to concatenate, so a large map never holds
    // its result twice.
    let chunk = n.div_ceil(threads);
    let mut out: Vec<T> = Vec::with_capacity(n);
    pool().scope(|s| {
        for (t, part) in out.spare_capacity_mut()[..n].chunks_mut(chunk).enumerate() {
            let f = &f;
            s.spawn(move || {
                for (i, slot) in part.iter_mut().enumerate() {
                    slot.write(f(t * chunk + i));
                }
            });
        }
    });
    // SAFETY: the chunks tile `0..n` of the spare capacity, every job
    // initialises each slot of its chunk, and `scope` returns only after
    // all jobs completed (it panics instead if one of them did).
    unsafe { out.set_len(n) };
    out
}

/// Runs `f(lo..hi)` over contiguous chunks of `0..n` for side-effect-free
/// reductions: each worker returns an accumulator, and the accumulators
/// are combined left-to-right (chunk order), keeping float reductions
/// deterministic for a fixed thread count.
pub fn par_chunks<A, F>(n: usize, threads: usize, f: F) -> Vec<A>
where
    A: Send,
    F: Fn(std::ops::Range<usize>) -> A + Sync,
{
    par_chunks_grained(n, threads, DEFAULT_MIN_PER_THREAD, f)
}

/// [`par_chunks`] with an explicit minimum number of items per worker —
/// the chunked twin of [`par_map_grained`]. Batched kernels that want
/// one call per contiguous sub-range (e.g. the interleaved routing
/// kernel, which keeps several walks of a chunk in flight at once) use
/// this instead of a per-index map so the chunk boundary is theirs to
/// exploit; results are still a pure function of the input and the
/// chunk count never reorders them.
pub fn par_chunks_grained<A, F>(n: usize, threads: usize, min_per_thread: usize, f: F) -> Vec<A>
where
    A: Send,
    F: Fn(std::ops::Range<usize>) -> A + Sync,
{
    let threads = effective_threads(n, threads, min_per_thread);
    if threads <= 1 {
        return vec![f(0..n)];
    }
    let chunk = n.div_ceil(threads);
    let mut out: Vec<Option<A>> = (0..threads).map(|_| None).collect();
    pool().scope(|s| {
        for (t, slot) in out.iter_mut().enumerate() {
            let f = &f;
            s.spawn(move || {
                let lo = t * chunk;
                let hi = ((t + 1) * chunk).min(n);
                *slot = Some(f(lo..hi));
            });
        }
    });
    out.into_iter()
        .map(|a| a.expect("par_chunks chunk completed"))
        .collect()
}

/// Spawn overhead dominates below ~1k cheap items per worker.
const DEFAULT_MIN_PER_THREAD: usize = 1024;

/// The worker count a `(n, threads)` request actually fans out to:
/// `0` resolves to the machine's parallelism, and tiny inputs collapse
/// to one worker so spawn overhead never dominates. Exposed so callers
/// that hand-partition mutable state (the arena writer, in-place row
/// sorting) agree with the mapping helpers about when to stay inline.
pub fn effective_threads(n: usize, threads: usize, min_per_thread: usize) -> usize {
    let t = if threads == 0 {
        default_parallelism()
    } else {
        threads
    };
    t.min(n / min_per_thread.max(1)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread::ThreadId;

    #[test]
    fn par_map_matches_sequential() {
        let n = 10_000;
        let seq: Vec<u64> = (0..n)
            .map(|i| (i as u64).wrapping_mul(2654435761))
            .collect();
        for threads in [1, 2, 3, 7, 16] {
            let par = par_map(n, threads, |i| (i as u64).wrapping_mul(2654435761));
            assert_eq!(par, seq, "threads={threads}");
            // Owned items, a count the chunks do not divide: every slot
            // of the shared output is written exactly once.
            let owned = par_map_grained(1001, threads, 1, |i| vec![i; i % 3]);
            assert!(
                owned.len() == 1001 && owned.iter().enumerate().all(|(i, v)| *v == vec![i; i % 3])
            );
        }
    }

    #[test]
    fn small_inputs_run_inline() {
        let out = par_map(5, 8, |i| i * i);
        assert_eq!(out, vec![0, 1, 4, 9, 16]);
    }

    #[test]
    fn zero_items() {
        let out: Vec<usize> = par_map(0, 4, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn par_chunks_covers_range_once() {
        let n = 50_000;
        for threads in [1, 2, 5, 8] {
            let sums = par_chunks(n, threads, |r| r.map(|i| i as u64).sum::<u64>());
            let total: u64 = sums.iter().sum();
            assert_eq!(total, (n as u64 - 1) * n as u64 / 2, "threads={threads}");
        }
    }

    #[test]
    fn auto_parallelism_is_positive() {
        assert!(default_parallelism() >= 1);
    }

    #[test]
    fn scope_jobs_borrow_and_complete() {
        let local = WorkerPool::new(3);
        let mut slots = vec![0u64; 64];
        local.scope(|s| {
            for (i, slot) in slots.iter_mut().enumerate() {
                s.spawn(move || *slot = i as u64 * 3);
            }
        });
        assert!(slots.iter().enumerate().all(|(i, &v)| v == i as u64 * 3));
    }

    #[test]
    fn scopes_reuse_threads_instead_of_spawning() {
        // Many scope calls on one small pool must execute on a bounded
        // thread set: the pool's workers plus (possibly) the caller.
        let local = WorkerPool::new(2);
        let ids: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        for _ in 0..50 {
            local.scope(|s| {
                for _ in 0..4 {
                    let ids = &ids;
                    s.spawn(move || {
                        ids.lock().unwrap().insert(std::thread::current().id());
                    });
                }
            });
        }
        let distinct = ids.lock().unwrap().len();
        assert!(
            distinct <= local.workers() + 1,
            "200 jobs ran on {distinct} threads — pool is spawning per call"
        );
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        // A pooled job fanning out its own sub-region must make
        // progress even when the pool is smaller than the fan-out:
        // waiters participate by running queued jobs themselves.
        let local = WorkerPool::new(1);
        let mut outer = [0u64; 4];
        local.scope(|s| {
            for (i, slot) in outer.iter_mut().enumerate() {
                let local = &local;
                s.spawn(move || {
                    let mut inner = [0u64; 8];
                    local.scope(|s2| {
                        for (j, cell) in inner.iter_mut().enumerate() {
                            s2.spawn(move || *cell = (i * 8 + j) as u64);
                        }
                    });
                    *slot = inner.iter().sum();
                });
            }
        });
        let total: u64 = outer.iter().sum();
        assert_eq!(total, (0..32).sum::<u64>());
    }

    #[test]
    fn panicking_job_poisons_the_scope() {
        let local = WorkerPool::new(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            local.scope(|s| {
                s.spawn(|| panic!("boom"));
                s.spawn(|| {});
            });
        }));
        assert!(caught.is_err(), "scope must re-raise the job panic");
        // The pool stays usable afterwards.
        let mut x = 0u64;
        local.scope(|s| s.spawn(|| x = 7));
        assert_eq!(x, 7);
    }
}
