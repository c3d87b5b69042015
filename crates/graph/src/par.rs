//! Deterministic data-parallel helpers over `std::thread::scope`.
//!
//! The container this workspace builds in has no network access, so the
//! usual `rayon` dependency is replaced by a minimal fork/join layer.
//! The contract every caller relies on: **results are a pure function
//! of the input, independent of the thread count** — each index is
//! mapped by a closure that receives only the index, so chunking can
//! never reorder observable effects. Randomized callers pass per-index
//! RNG streams (`Rng::stream`) to keep that property.
//!
//! Every call is one scoped region: `0..n` is cut into contiguous
//! chunks, chunk 0 runs on the calling thread and each other chunk on
//! a scoped thread spawned for it and joined before the call returns.
//! Closures may therefore borrow from the caller's stack, a nested
//! call opens its own region, and a panicking chunk unwinds into the
//! caller once every other chunk has finished.
//!
//! No thread outlives a call because no caller needs one to: the
//! helpers are entered once per build stage, validation scan, routed
//! batch or simulator boot, never per item. An empty 2-thread region
//! costs 12–27 µs at the median (2 000 samples, two sessions on a
//! 2-core Xeon @ 2.10 GHz) against 0.17–0.20 s for a 10⁵-peer Pareto
//! build (five builds of `examples/large_scale.rs` on a 2-core Xeon)
//! with six regions in it: the selector's positions, the long-row draw
//! and its seal, and the contact image's count, fill and seal.

/// Number of worker threads to use when the caller asks for "auto" (`0`).
fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs every job to completion — the first on the calling thread, the
/// rest on one scoped thread each — so a region of `k` chunks costs
/// `k − 1` spawns and the caller does not sit idle beside them. The one
/// fork/join of this crate: the helpers below and the regions that
/// hand-partition mutable state (the arena writer's fill, in-place row
/// sorting) all run through it.
pub(crate) fn join_all<J: FnOnce() + Send>(mut jobs: impl Iterator<Item = J>) {
    std::thread::scope(|s| {
        let first = jobs.next();
        for job in jobs {
            s.spawn(job);
        }
        if let Some(job) = first {
            job();
        }
    });
}

/// Items per chunk of a region over `0..n`: at least 1, and `≥ n` (one
/// chunk, run inline) for one thread or tiny inputs. Every region cuts
/// `0..n` at the multiples of this size, which gives `⌈n / size⌉ ≤
/// threads` chunks that tile `0..n` with none empty.
pub(crate) fn chunk_size(n: usize, threads: usize, min_per_thread: usize) -> usize {
    n.div_ceil(effective_threads(n, threads, min_per_thread))
        .max(1)
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
    let chunk = chunk_size(n, threads, min_per_thread);
    if chunk >= n {
        return (0..n).map(f).collect();
    }
    // Workers write their chunk of the one output allocation in place —
    // no per-chunk vectors to concatenate, so a large map never holds
    // its result twice.
    let mut out: Vec<T> = Vec::with_capacity(n);
    let parts = out.spare_capacity_mut()[..n].chunks_mut(chunk);
    join_all(parts.enumerate().map(|(t, part)| {
        let f = &f;
        move || {
            for (i, slot) in part.iter_mut().enumerate() {
                slot.write(f(t * chunk + i));
            }
        }
    }));
    // SAFETY: the chunks tile `0..n` of the spare capacity, every job
    // initialises each slot of its chunk, and `join_all` returns only
    // after all jobs completed (it panics instead if one of them did).
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
    let chunk = chunk_size(n, threads, min_per_thread);
    if chunk >= n {
        return vec![f(0..n)];
    }
    let mut out: Vec<Option<A>> = (0..n.div_ceil(chunk)).map(|_| None).collect();
    join_all(out.iter_mut().enumerate().map(|(t, slot)| {
        let f = &f;
        move || *slot = Some(f(t * chunk..((t + 1) * chunk).min(n)))
    }));
    out.into_iter()
        .map(|a| a.expect("par_chunks chunk completed"))
        .collect()
}

/// Spawn overhead dominates below ~1k cheap items per worker.
const DEFAULT_MIN_PER_THREAD: usize = 1024;

/// The worker count a `(n, threads)` request actually fans out to:
/// `0` resolves to the machine's parallelism, and tiny inputs collapse
/// to one worker so spawn overhead never dominates. Exposed so callers
/// that size a region by something other than its index range (the
/// arena fill by peers per worker) agree with the mapping helpers about
/// when to stay inline.
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
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

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

    /// Callers slice with the ranges they are handed, so every range
    /// must be non-empty and in bounds: `⌈n / threads⌉`-sized chunks
    /// can run out before the workers do (n = 10, threads = 7). The
    /// whole grid is a property of `chunk_size`'s arithmetic; a handful
    /// of cells — the two that used to fail among them — also go
    /// through a spawning region.
    #[test]
    fn par_chunks_ranges_tile_the_input_for_any_thread_count() {
        let check = |n: usize, threads: usize, ranges: Vec<std::ops::Range<usize>>| {
            let filled = n == 0 || ranges.iter().all(|r| !r.is_empty());
            let tiled = ranges.iter().cloned().flatten().eq(0..n);
            assert!(
                filled && tiled && ranges.len() <= threads,
                "n={n} threads={threads}: {ranges:?}"
            );
        };
        for n in 0..=300usize {
            for threads in 1..=40 {
                let chunk = chunk_size(n, threads, 1);
                let cuts = (0..n).step_by(chunk);
                check(n, threads, cuts.map(|lo| lo..(lo + chunk).min(n)).collect());
            }
        }
        for (n, threads) in [(0, 4), (1, 2), (4, 3), (10, 7), (7, 7), (300, 40)] {
            check(n, threads, par_chunks_grained(n, threads, 1, |r| r));
        }
    }

    /// A chunk that panics — on the calling thread (chunk 0) or on a
    /// spawned one — reaches the caller as a panic, and only after
    /// every other chunk ran to its end. The barrier makes all four
    /// chunks live at once before one of them unwinds.
    #[test]
    fn a_panicking_chunk_unwinds_after_the_others_finished() {
        for bad in [0, 2] {
            let (barrier, done) = (Barrier::new(4), AtomicUsize::new(0));
            let body = |i: usize| {
                barrier.wait();
                assert!(i != bad, "chunk {i} fails on purpose");
                done.fetch_add(1, Ordering::SeqCst);
            };
            let map = AssertUnwindSafe(|| par_map_grained(4, 4, 1, body));
            assert!(catch_unwind(map).is_err(), "bad={bad}");
            assert_eq!(done.swap(0, Ordering::SeqCst), 3, "par_map, bad={bad}");
            let chunks = AssertUnwindSafe(|| par_chunks_grained(4, 4, 1, |r| body(r.start)));
            assert!(catch_unwind(chunks).is_err(), "bad={bad}");
            assert_eq!(done.load(Ordering::SeqCst), 3, "par_chunks, bad={bad}");
        }
    }

    /// A region opened inside a chunk of another completes, and equals
    /// the sequential result, with more threads than the host has cores.
    #[test]
    fn nested_regions_complete_and_match_sequential() {
        let inner = default_parallelism() + 1;
        let nested = par_chunks_grained(64, 4, 1, |r| {
            par_map_grained(r.len() * 8, inner, 1, |i| r.start * 8 + i)
        });
        assert_eq!(nested.len(), 4);
        assert_eq!(nested.concat(), (0..512).collect::<Vec<_>>());
    }

    #[test]
    fn auto_parallelism_is_positive() {
        assert!(default_parallelism() >= 1);
    }
}
