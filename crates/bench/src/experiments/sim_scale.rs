//! E22 — scaling the deterministic simulator: event throughput and peak
//! memory at n ∈ {10⁴, 10⁵, 10⁶} peers, under churn and under churn +
//! storage.
//!
//! This is the experiment behind the PR-7 perf work: the initial overlay
//! is drawn once per size by the simulator's own converged draw
//! (`sw_sim::converged_overlay`: harmonic links, per-peer RNG streams,
//! parallel) and frozen to a scratch arena image with its key lane;
//! every cell then *preloads* the simulator from that image (`Simulator::from_frozen` —
//! the delta-overlay path, where churn writes land in per-peer logs over
//! the immutable base) and runs the seeded workload. Peak RSS is the
//! process high-water mark (`VmHWM`, monotone across cells), so sizes
//! run ascending and each row reports the mark *after* its run.
//!
//! The full sweep is n ∈ {10⁴, 10⁵, 10⁶}; `--quick` (CI smoke) runs
//! {2·10³, 2·10⁴}. It prints its table and CSV only: events/s is a
//! host-time reading, and committed host-time numbers are `benchmark/`'s
//! (`sim.engine.*`, `work_per_s`), where they carry a stamp. ROADMAP item
//! 8(b) (the per-hop fall) names this sweep as its instrument.

use crate::ctx::{self, Ctx};
use crate::table::{f2, Table};
use std::sync::Arc;
use std::time::Instant;
use sw_keyspace::distribution::Uniform;
use sw_keyspace::Rng;
use sw_sim::{
    converged_overlay, ChurnConfig, SimConfig, SimTime, Simulator, StorageConfig, WorkloadConfig,
};

/// Virtual horizon per size: shorter at larger n so the per-node
/// maintenance timers (the event-count driver) keep wall time bounded.
fn horizon_secs(n: usize, quick: bool) -> u64 {
    let base = if n < 50_000 {
        60
    } else if n < 500_000 {
        20
    } else {
        10
    };
    if quick {
        (base / 4).max(10)
    } else {
        base
    }
}

/// The seeded workload every cell runs: network-wide churn and lookup
/// rates (constant in n — the n-driver is the per-node timer plane),
/// with an optional storage layer whose preload scales with n.
fn cell_config(seed: u64, storage: bool, preload: usize) -> SimConfig {
    SimConfig {
        seed,
        parallelism: 0,
        churn: ChurnConfig::symmetric(8.0),
        workload: WorkloadConfig { lookup_rate: 50.0 },
        storage: if storage {
            StorageConfig {
                put_rate: 20.0,
                get_rate: 20.0,
                range_rate: 1.0,
                replication: 3,
                preload,
                repair_interval: Some(SimTime::from_secs(10)),
                ..StorageConfig::NONE
            }
        } else {
            StorageConfig::NONE
        },
        stabilize_interval: Some(SimTime::from_secs(5)),
        refresh_interval: Some(SimTime::from_secs(30)),
        ..SimConfig::default()
    }
}

/// E22 — simulator throughput at scale (see module docs).
pub fn e22_sim_scale(ctx: &Ctx) {
    let sizes: &[usize] = if ctx.quick {
        &[2_000, 20_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    let mut table = Table::new(
        "E22: simulator at scale — event throughput and peak memory".to_string(),
        &[
            "variant",
            "n",
            "horizon (sim s)",
            "events",
            "events/s",
            "build (s)",
            "open (s)",
            "peak RSS (MB)",
            "lookup ok",
        ],
    );
    for &n in sizes {
        // One frozen overlay image per size, shared by both variants —
        // construction cost is paid once and the runs measure the event
        // loop, not the build.
        println!("  [e22] n={n}: drawing + freezing the initial overlay…");
        let t0 = Instant::now();
        let path = std::env::temp_dir().join(format!("sw-e22-{n}-{}.arena", std::process::id()));
        build_frozen_overlay(ctx.seed ^ 22 ^ n as u64, n, &path);
        let build_secs = t0.elapsed().as_secs_f64();
        for &storage in &[false, true] {
            let variant = if storage { "churn+storage" } else { "churn" };
            table.row(run_cell(ctx, n, variant, storage, &path, build_secs));
        }
        std::fs::remove_file(&path).ok();
    }
    table.print();
    ctx.write_csv(&table, "e22_sim_scale.csv");
    println!(
        "  expected shape: events/s decays slowly in n (bigger working set, \
         longer rows — the wheel's O(1) buckets keep the pending-event \
         population, ~n per-node timers, out of the per-event cost); peak RSS \
         is a process-lifetime high-water mark, so read each row as 'the sweep \
         up to and including this cell fit in this much memory'. It grows \
         about linearly in n and is per-peer state: the overlay image and its key \
         lane, node records, two to three pending timers per peer \
         (stabilize, refresh, and with storage the repair round: a 40-byte \
         envelope in the plane's store plus a 4-byte slot index each, \
         90–130 MB at 10⁶), the long-link rows refreshes rewrote, and with \
         storage the shard maps"
    );
}

/// Draws the simulator's converged overlay for `n` peers over uniform
/// keys (`sw_sim::converged_overlay`, the draw `Simulator::new` boots)
/// and freezes it with its key lane to `path`. Shared with E23, which
/// preloads the same images for its traffic cells.
pub(crate) fn build_frozen_overlay(seed: u64, n: usize, path: &std::path::Path) {
    let (keys, links) = converged_overlay(n, &Uniform, &mut Rng::new(seed), 0);
    let pos: Vec<f64> = keys.iter().map(|k| k.get()).collect();
    links
        .freeze_to(path, Some(&pos))
        .expect("freeze e22 overlay image");
}

/// One (n, variant) cell: preload from the frozen image, run the
/// seeded workload and return the cell's table row.
fn run_cell(
    ctx: &Ctx,
    n: usize,
    variant: &'static str,
    storage: bool,
    path: &std::path::Path,
    build_secs: f64,
) -> Vec<String> {
    let horizon = horizon_secs(n, ctx.quick);
    let preload = (n / 5).clamp(2_000, 200_000);
    let seed = ctx.seed ^ 0xE22 ^ n as u64 ^ ((storage as u64) << 32);
    println!("  [e22] {variant} n={n}: running…");
    let t0 = Instant::now();
    let mut sim =
        Simulator::from_frozen(cell_config(seed, storage, preload), Arc::new(Uniform), path)
            .expect("preload simulator from frozen image");
    let open_secs = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    sim.run_until(SimTime::from_secs(horizon));
    let wall = t0.elapsed().as_secs_f64();
    let m = sim.metrics();
    vec![
        variant.to_string(),
        n.to_string(),
        horizon.to_string(),
        m.events.to_string(),
        format!("{:.0}", m.events as f64 / wall),
        f2(build_secs),
        f2(open_secs),
        match ctx::peak_rss_bytes() {
            Some(b) => format!("{:.0}", b as f64 / (1024.0 * 1024.0)),
            None => "n/a".to_string(),
        },
        format!("{}/{}", m.lookups_ok, m.lookups),
    ]
}
