//! E24 — parallel discrete-event execution: events/s and peak RSS vs
//! worker count for the peer-sharded conservative-window engine
//! (`sw_sim::ShardedSimulator`), against the serial single-shard oracle.
//!
//! Every cell constructs the same deterministic world (seeded overlay,
//! pre-drawn schedules to the horizon) and runs it to completion five
//! ways: once through the serial oracle driver (`run_serial_until`,
//! P = 1) and four times through the windowed driver at P = 8 shards
//! with 1, 2, 4 and 8 workers. The engine's determinism contract says
//! all five must agree bit-for-bit, and the experiment *asserts* it:
//! metrics fingerprint, topology digest and delivered-event count are
//! compared against the oracle for every sharded run. The speedup
//! column is therefore a pure execution-cost measurement over the
//! exact same delivered envelope sequence — conservative windows of
//! width δ (the latency model's lookahead) bound how much work each
//! barrier exposes, so scaling improves with n (more peers per window)
//! and saturates where window populations run thin.
//!
//! Two workloads per size: `churn+storage` (the maintenance-heavy
//! cell, per-peer timers dominate) and `traffic` (open-loop Zipf
//! lookups through gateways with hot-key caching and congested
//! service queues). Peak RSS is the process high-water mark (`VmHWM`,
//! monotone across cells), so sizes run ascending and each row reports
//! the mark *after* its runs.
//!
//! The full sweep, n ∈ {10⁵, 10⁶}, merges its rows by id into
//! `BENCH_sim.json` (so E22's `sim-scale/*` rows survive) with a
//! `workers` stamp on every row; `--quick` (CI smoke) runs
//! {2·10³, 2·10⁴}.

use crate::ctx::{self, Ctx};
use crate::table::{f2, Table};
use std::sync::Arc;
use std::time::Instant;
use sw_graph::par;
use sw_keyspace::distribution::Uniform;
use sw_sim::{
    CacheConfig, ChurnConfig, CongestionConfig, LatencyModel, ShardedSimulator, SimConfig, SimTime,
    StorageConfig, TrafficConfig, WorkloadConfig,
};

/// Shards for every windowed run — fixed so worker count is the only
/// variable across rows of a cell.
const SHARDS: usize = 8;

/// Worker counts swept by the windowed driver.
const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// Virtual horizon per size: shorter at larger n so the per-peer
/// maintenance timers (the event-count driver) keep wall time bounded.
fn horizon_secs(n: usize, quick: bool) -> u64 {
    let base = if n < 50_000 {
        40
    } else if n < 500_000 {
        15
    } else {
        8
    };
    if quick {
        (base / 4).max(10)
    } else {
        base
    }
}

/// The seeded workload every cell runs. Rates are network-wide (the
/// n-driver is the per-peer timer plane); the sharded engine has no
/// range queries or iterative routing, so neither appears here.
fn cell_config(seed: u64, n: usize, traffic: bool) -> SimConfig {
    let base = SimConfig {
        seed,
        initial_n: n,
        latency: LatencyModel::Constant(SimTime::from_millis(20)),
        timeout_penalty: SimTime::from_millis(200),
        successor_list: 4,
        stabilize_interval: Some(SimTime::from_secs(5)),
        refresh_interval: Some(SimTime::from_secs(30)),
        churn: ChurnConfig::symmetric(8.0),
        workload: WorkloadConfig { lookup_rate: 50.0 },
        ..SimConfig::default()
    };
    if traffic {
        SimConfig {
            traffic: TrafficConfig {
                rate: 200.0,
                zipf_s: 1.1,
                hot_keys: 512,
                gateways: 64.min(n / 4).max(1),
                cache: Some(CacheConfig {
                    capacity: 1024,
                    ttl: SimTime::from_secs(5),
                }),
            },
            congestion: CongestionConfig {
                service_secs_per_msg: 1e-4,
                queue_cap: 64,
                link_rate: 5_000.0,
                link_burst: 20.0,
            },
            ..base
        }
    } else {
        SimConfig {
            storage: StorageConfig {
                put_rate: 20.0,
                get_rate: 20.0,
                replication: 3,
                preload: (n / 5).clamp(1_000, 200_000),
                repair_interval: Some(SimTime::from_secs(10)),
                repair_byte_secs: 1e-6,
                ..StorageConfig::NONE
            },
            ..base
        }
    }
}

struct SimParRow {
    id: String,
    variant: &'static str,
    n: usize,
    mode: &'static str,
    workers: usize,
    horizon: u64,
    events: u64,
    events_per_sec: f64,
    speedup: f64,
    run_secs: f64,
    build_secs: f64,
    peak_rss_bytes: Option<u64>,
    lookups_ok: u64,
    lookups: u64,
}

/// E24 — parallel simulator scaling (see module docs).
pub fn e24_sim_parallel(ctx: &Ctx) {
    let sizes: Vec<usize> = if ctx.quick {
        vec![2_000, 20_000]
    } else {
        vec![100_000, 1_000_000]
    };
    let mut table = Table::new(
        "E24: parallel simulator — sharded conservative windows vs serial oracle, bit-identical \
         digests asserted"
            .to_string(),
        &[
            "variant",
            "n",
            "mode",
            "workers",
            "horizon (sim s)",
            "events",
            "ev/s",
            "speedup",
            "run (s)",
            "build (s)",
            "peak RSS (MB)",
            "lookup ok",
        ],
    );
    let mut rows: Vec<SimParRow> = Vec::new();
    for &n in &sizes {
        for &traffic in &[false, true] {
            let variant = if traffic { "traffic" } else { "churn+storage" };
            run_cell(ctx, n, variant, traffic, &mut rows);
        }
    }
    for r in &rows {
        table.row(vec![
            r.variant.to_string(),
            r.n.to_string(),
            r.mode.to_string(),
            r.workers.to_string(),
            r.horizon.to_string(),
            r.events.to_string(),
            format!("{:.0}", r.events_per_sec),
            f2(r.speedup),
            f2(r.run_secs),
            f2(r.build_secs),
            match r.peak_rss_bytes {
                Some(b) => format!("{:.0}", b as f64 / (1024.0 * 1024.0)),
                None => "n/a".to_string(),
            },
            format!("{}/{}", r.lookups_ok, r.lookups),
        ]);
    }
    table.print();
    ctx.write_csv(&table, "e24_sim_parallel.csv");
    write_snapshot(ctx, &rows);
    let cores = par::default_parallelism();
    println!(
        "  expected shape: every sharded row's digest tuple is asserted equal \
         to the serial oracle's, so speedup isolates execution cost over the \
         same delivered sequence; ev/s climbs with workers until windows run \
         thin (δ bounds the per-barrier work), so scaling is best on the \
         large churn+storage cells where each window holds many independent \
         peer events; the workers=1 sharded row measures pure windowing \
         overhead vs the oracle; this host has {cores} core(s) — worker \
         counts past that only measure oversubscription cost, never speedup \
         (the host_cores stamp on each row records this); peak RSS is a \
         process-lifetime high-water mark, so read each row as 'the sweep \
         up to here fit in this much memory'"
    );
}

/// One (n, variant) cell: a serial-oracle run plus a windowed run per
/// worker count, all five asserted digest-identical. Each run rebuilds
/// the simulator from config — construction is deterministic, so the
/// rebuilds are bit-equal worlds and only the driver varies.
fn run_cell(ctx: &Ctx, n: usize, variant: &'static str, traffic: bool, rows: &mut Vec<SimParRow>) {
    let horizon = SimTime::from_secs(horizon_secs(n, ctx.quick));
    let seed = ctx.seed ^ 0xE24 ^ n as u64 ^ ((traffic as u64) << 32);
    let cfg = cell_config(seed, n, traffic);
    let run = |shards: usize, workers: usize, serial: bool| {
        let t0 = Instant::now();
        let mut sim = ShardedSimulator::new(cfg.clone(), Arc::new(Uniform), shards, horizon);
        sim.set_workers(workers);
        let build_secs = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        if serial {
            sim.run_serial_until(horizon);
        } else {
            sim.run_until(horizon);
        }
        let run_secs = t0.elapsed().as_secs_f64();
        let digest = (sim.fingerprint(), sim.topology_digest(), sim.events());
        let m = sim.metrics();
        (
            digest,
            m.events,
            m.lookups,
            m.lookups_ok,
            run_secs,
            build_secs,
        )
    };
    println!("  [e24] {variant} n={n}: serial oracle…");
    let (oracle, events, lookups, lookups_ok, serial_secs, build_secs) = run(1, 1, true);
    let hsecs = horizon_secs(n, ctx.quick);
    rows.push(SimParRow {
        id: format!("sim-par/{variant}/{n}/serial"),
        variant,
        n,
        mode: "serial",
        workers: 1,
        horizon: hsecs,
        events,
        events_per_sec: events as f64 / serial_secs,
        speedup: 1.0,
        run_secs: serial_secs,
        build_secs,
        peak_rss_bytes: ctx::peak_rss_bytes(),
        lookups_ok,
        lookups,
    });
    for &workers in &WORKERS {
        println!("  [e24] {variant} n={n}: sharded P={SHARDS} workers={workers}…");
        let (digest, events, lookups, lookups_ok, run_secs, build_secs) =
            run(SHARDS, workers, false);
        assert_eq!(
            digest, oracle,
            "sharded run diverged from serial oracle at {variant} n={n} workers={workers}"
        );
        rows.push(SimParRow {
            id: format!("sim-par/{variant}/{n}/w{workers}"),
            variant,
            n,
            mode: "sharded",
            workers,
            horizon: hsecs,
            events,
            events_per_sec: events as f64 / run_secs,
            speedup: serial_secs / run_secs,
            run_secs,
            build_secs,
            peak_rss_bytes: ctx::peak_rss_bytes(),
            lookups_ok,
            lookups,
        });
    }
}

/// Hand-rolled JSON rows (no serde offline), merged by id into the
/// snapshot E22 also writes — each producer's rows survive the other's
/// runs.
fn write_snapshot(ctx: &Ctx, rows: &[SimParRow]) {
    let merged: Vec<(String, String)> = rows
        .iter()
        .map(|r| {
            let rss = match r.peak_rss_bytes {
                Some(b) => b.to_string(),
                None => "null".to_string(),
            };
            let obj = format!(
                "{{\"id\": \"{}\", \"n\": {}, \"variant\": \"{}\", \"mode\": \"{}\", \
                 \"workers\": {}, \"shards\": {}, \"horizon_sim_secs\": {}, \
                 \"events\": {}, \"events_per_sec\": {:.1}, \"speedup\": {:.4}, \
                 \"run_secs\": {:.4}, \"build_secs\": {:.4}, \"peak_rss_bytes\": {}, \
                 \"lookups\": {}, \"lookups_ok\": {}, \"host_cores\": {}, \
                 \"unit\": \"wall_secs\"}}",
                r.id,
                r.n,
                r.variant,
                r.mode,
                r.workers,
                if r.mode == "serial" { 1 } else { SHARDS },
                r.horizon,
                r.events,
                r.events_per_sec,
                r.speedup,
                r.run_secs,
                r.build_secs,
                rss,
                r.lookups,
                r.lookups_ok,
                par::default_parallelism(),
            );
            (r.id.clone(), obj)
        })
        .collect();
    ctx.merge_snapshot("BENCH_sim.json", &merged);
}
