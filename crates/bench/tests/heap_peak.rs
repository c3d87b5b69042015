//! Heap peaks of the builder's long-link draw, in a mapped build and as
//! the simulator's t = 0 overlay, of a mapped reopen, and of the
//! simulator's boot, read off a counting global allocator. The
//! allocator is process-wide, so this binary holds a single test:
//! another test running beside it would land in its counts.
//!
//! Run it in release, as the benchmark builds:
//!
//! ```text
//! cargo test --release -p sw-bench --test heap_peak
//! ```

#![cfg(all(unix, target_pointer_width = "64"))]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use sw_core::{LinkSampler, SmallWorldBuilder, SmallWorldNetwork};
use sw_keyspace::distribution::TruncatedPareto;
use sw_keyspace::{Key, KeyDistribution, Rng};
use sw_sim::{SimConfig, Simulator};

/// The system allocator, counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged and returns its result; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f` and returns its result with the most heap it held live at
/// once beyond what was live when it started.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let out = f();
    (out, PEAK.load(Relaxed) - base)
}

/// A mapped build keeps its images in files, so no long row should sit
/// on the heap: its live heap is the placement keys, the selector's
/// positions and rank index (20 B/peer) and one per-peer count at a
/// time. A second `build_frozen` at n = 2¹⁵ must peak at ≤ 32 B/peer,
/// which one heap copy of its 15 links per peer (60 B/peer) breaks. The
/// simulator's t = 0 draw must peak at ≤ 1.5× the keys and image it
/// returns (72 B/peer); one more copy of its rows puts it near 2×. Both
/// draw through the builder's long stage, over Pareto(1.5, 0.01) keys
/// with harmonic links.
///
/// Reopening the mapped build's files (`SmallWorldNetwork::open_from`)
/// maps both images, so its heap is the placement's keys: ≤ 12 B/peer,
/// 8.0 read. A reopen that reads the images onto the heap breaks it
/// with the contact image alone (≈ 12 B per contact plus 12 B per peer).
///
/// Booting a simulator over that draw (`Simulator::with_store`, storage
/// off, default maintenance timers) must peak at ≤ 284 B/peer beyond the
/// keys and image it is handed: 257.8 B/peer read, plus a 10 % margin.
/// About 96 B/peer of it is the per-peer lanes and the alive index (read
/// with the timers off), the rest the plane holding two timers per peer.
/// A boot that inserts peers one at a time and preallocates two empty
/// shard maps of one slot per peer reads 322.2 B/peer.
#[test]
fn long_link_draws_hold_no_copy_of_their_rows() {
    let n = 1usize << 15;
    let pareto = TruncatedPareto::new(1.5, 0.01).unwrap();
    let builder = SmallWorldBuilder::new(n)
        .distribution(Box::new(pareto))
        .sampler(LinkSampler::Harmonic);
    let dir = std::env::temp_dir().join(format!("sw-heap-peak-{}", std::process::id()));
    drop(builder.build_frozen(&mut Rng::new(1), &dir).unwrap());
    let (net, peak) = peak_of(|| builder.build_frozen(&mut Rng::new(2), &dir).unwrap());
    drop(net);
    let per_peer = peak as f64 / n as f64;
    assert!(
        per_peer <= 32.0,
        "build_frozen peaked at {per_peer:.1} B/peer"
    );

    let (net, peak) = peak_of(|| {
        SmallWorldNetwork::open_from(&dir, *builder.config_ref(), Arc::new(pareto)).unwrap()
    });
    assert_eq!(net.len(), n);
    drop(net);
    std::fs::remove_dir_all(&dir).ok();
    let per_peer = peak as f64 / n as f64;
    assert!(per_peer <= 12.0, "open_from peaked at {per_peer:.1} B/peer");

    let ((keys, links), peak) =
        peak_of(|| sw_sim::converged_overlay(n, &pareto, &mut Rng::new(3), 0));
    let returned = keys.capacity() * std::mem::size_of::<Key>() + links.resident_bytes();
    let ratio = peak as f64 / returned as f64;
    assert!(
        ratio <= 1.5,
        "the t = 0 draw (converged_overlay) peaked at {ratio:.2}x the {returned} bytes it returns"
    );

    let cfg = SimConfig {
        seed: 4,
        ..SimConfig::default()
    };
    let dist: Arc<dyn KeyDistribution> = Arc::new(pareto);
    let (sim, peak) = peak_of(|| Simulator::with_store(cfg, dist, keys, links));
    assert_eq!(sim.alive_count(), n);
    let per_peer = peak as f64 / n as f64;
    assert!(
        per_peer <= 284.0,
        "Simulator::with_store peaked at {per_peer:.1} B/peer"
    );
}
