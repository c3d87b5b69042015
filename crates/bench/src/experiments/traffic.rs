//! E23 — open-loop traffic to saturation: sweep the offered lookup rate
//! against finite per-node service capacity and token-bucket links, at
//! n ∈ {10⁴, 10⁵} × Zipf s ∈ {0, 0.9, 1.2} × requester cache {off, on}.
//!
//! Each cell climbs a geometric rate ladder. The generator is open-loop
//! (arrivals do not slow down when the system backs up), so past the
//! knee queues hit their depth cap and the simulator starts dropping:
//! a point is *sustained* when ≥99% of completed lookups succeed and
//! the p99 stays within 10x the cell's unloaded p99; the ladder stops
//! after two consecutive saturated points and the knee — the headline —
//! is the last sustained rate, reported with its measured goodput as
//! "sustainable lookups/s".
//!
//! The overlay is drawn once per size through the shared harmonic
//! sampler and frozen to a scratch arena image; every point preloads
//! from that image, so the ladder measures congestion, not repeated
//! construction.
//!
//! The full sweep writes its rows — functions of the seed alone — as
//! `BENCH_traffic.json`: one row per ladder point, then one `/knee`
//! summary row per cell.
//! `--quick` runs one small size (2·10³) with a reduced grid.

use crate::ctx::Ctx;
use crate::table::{f2, f3, Table};
use std::sync::Arc;
use std::time::Instant;
use sw_graph::par;
use sw_keyspace::distribution::Uniform;
use sw_sim::{
    CacheConfig, CongestionConfig, SimConfig, SimTime, Simulator, TrafficConfig, WorkloadConfig,
};

/// Service capacity per node: 10 ms per message = 100 msgs/s.
const SERVICE_SECS_PER_MSG: f64 = 10e-3;
/// Queue depth cap — beyond this arrivals are dropped (overload).
const QUEUE_CAP: u32 = 32;
/// Per-link token bucket: generous enough that service, not shaping,
/// is the binding limit (shaping still participates in every send).
const LINK_RATE: f64 = 2_000.0;
const LINK_BURST: f64 = 64.0;
/// Bounded hot-key universe and front-end gateway set.
const HOT_KEYS: usize = 1_024;
const GATEWAYS: usize = 32;
/// Requester-side cache: per-gateway LRU capacity and TTL.
const CACHE_CAPACITY: usize = 256;
const CACHE_TTL_SECS: u64 = 30;

struct TrafficPoint {
    id: String,
    n: usize,
    zipf_s: f64,
    cache: bool,
    rate: f64,
    horizon: u64,
    goodput: f64,
    ok_rate: f64,
    p50_ms: f64,
    p99_ms: f64,
    p999_ms: f64,
    drops: u64,
    cache_hits: u64,
    depth_peak: u64,
    queue_wait_p99_ms: f64,
    sustained: bool,
}

/// E23 — offered load vs latency to saturation (see module docs).
pub fn e23_traffic(ctx: &Ctx) {
    let sizes: Vec<usize> = if ctx.quick {
        vec![2_000]
    } else {
        vec![10_000, 100_000]
    };
    let skews: &[f64] = if ctx.quick {
        &[0.0, 1.2]
    } else {
        &[0.0, 0.9, 1.2]
    };
    // The ladder: geometric x2 from 250/s, capped hard; each cell stops
    // early after two consecutive saturated rungs.
    let rate_cap: f64 = if ctx.quick { 4_000.0 } else { 65_536.0 };
    let mut table = Table::new(
        "E23: open-loop traffic to saturation — offered load vs latency, with and without the requester cache"
            .to_string(),
        &[
            "n",
            "zipf s",
            "cache",
            "offered/s",
            "goodput/s",
            "ok",
            "p50 (ms)",
            "p99 (ms)",
            "p999 (ms)",
            "wait p99 (ms)",
            "drops",
            "hits",
            "depth",
            "sustained",
        ],
    );
    let mut points: Vec<TrafficPoint> = Vec::new();
    let mut knees: Vec<(String, usize, f64, bool, f64, f64)> = Vec::new();
    for &n in &sizes {
        println!("  [e23] n={n}: drawing + freezing the initial overlay…");
        let path = std::env::temp_dir().join(format!("sw-e23-{n}-{}.arena", std::process::id()));
        super::sim_scale::build_frozen_overlay(ctx.seed ^ 0xE23 ^ n as u64, n, &path);
        let cells: Vec<(f64, bool)> = skews
            .iter()
            .flat_map(|&zipf_s| [(zipf_s, false), (zipf_s, true)])
            .collect();
        // One worker per cell. A cell's points are a function of its
        // seed, and its progress lines print in cell order after the
        // region, so the output does not depend on scheduling.
        let runs = par::par_map_grained(cells.len(), cells.len(), 1, |i| {
            let (zipf_s, cache) = cells[i];
            run_cell(ctx, n, zipf_s, cache, rate_cap, &path)
        });
        for (&(zipf_s, cache), (cell, log)) in cells.iter().zip(runs) {
            log.iter().for_each(|line| println!("{line}"));
            let mut knee_rate = 0.0f64;
            let mut knee_goodput = 0.0f64;
            for p in &cell {
                if p.sustained {
                    knee_rate = p.rate;
                    knee_goodput = p.goodput;
                }
                table.row(vec![
                    p.n.to_string(),
                    format!("{:.1}", p.zipf_s),
                    if p.cache { "on" } else { "off" }.to_string(),
                    format!("{:.0}", p.rate),
                    format!("{:.0}", p.goodput),
                    f3(p.ok_rate),
                    f2(p.p50_ms),
                    f2(p.p99_ms),
                    f2(p.p999_ms),
                    f2(p.queue_wait_p99_ms),
                    p.drops.to_string(),
                    p.cache_hits.to_string(),
                    p.depth_peak.to_string(),
                    if p.sustained { "yes" } else { "SAT" }.to_string(),
                ]);
            }
            println!(
                "  [e23] n={n} s={zipf_s:.1} cache={}: knee {knee_rate:.0}/s \
                 (goodput {knee_goodput:.0}/s)",
                if cache { "on" } else { "off" }
            );
            knees.push((
                format!("traffic/n{n}/s{zipf_s:.1}/cache-{}/knee", on_off(cache)),
                n,
                zipf_s,
                cache,
                knee_rate,
                knee_goodput,
            ));
            points.extend(cell);
        }
        std::fs::remove_file(&path).ok();
    }
    table.print();
    ctx.write_csv(&table, "e23_traffic.csv");
    write_snapshot(ctx, &points, &knees);
}

fn on_off(cache: bool) -> &'static str {
    if cache {
        "on"
    } else {
        "off"
    }
}

/// Climb the rate ladder for one (n, s, cache) cell, stopping after two
/// consecutive saturated rungs. Returns the rungs and their progress
/// lines.
fn run_cell(
    ctx: &Ctx,
    n: usize,
    zipf_s: f64,
    cache: bool,
    rate_cap: f64,
    path: &std::path::Path,
) -> (Vec<TrafficPoint>, Vec<String>) {
    let mut out = Vec::new();
    let mut log = Vec::new();
    let mut base_p99 = 0.0f64;
    let mut consecutive_saturated = 0u32;
    let mut rate = 250.0f64;
    while rate <= rate_cap {
        // Longer horizon at low rates for tail resolution; shorter at
        // high rates to bound the event count.
        let horizon = if ctx.quick {
            5
        } else if rate <= 8_000.0 {
            10
        } else {
            5
        };
        let seed = ctx.seed ^ 0xE23 ^ (n as u64) << 1 ^ zipf_s.to_bits() ^ cache as u64;
        let t0 = Instant::now();
        let cfg = cell_config(seed, n, rate, zipf_s, cache);
        let mut sim = Simulator::from_frozen(cfg, Arc::new(Uniform), path)
            .expect("preload e23 simulator from frozen image");
        sim.run_until(SimTime::from_secs(horizon));
        let m = sim.metrics();
        let secs = horizon as f64;
        let p99 = m.lookup_latency.quantile(0.99) * 1e3;
        if base_p99 == 0.0 {
            base_p99 = p99;
        }
        // Sustained: ≥99% of completed lookups succeed and the p99 is
        // within a decade of the unloaded p99. Offered-vs-goodput is
        // not the test — even unloaded, the open-loop tail leaves
        // ~latency x rate lookups in flight at the horizon.
        let sustained = m.success_rate() >= 0.99 && p99 < 10.0 * base_p99;
        if sustained {
            consecutive_saturated = 0;
        } else {
            consecutive_saturated += 1;
        }
        log.push(format!(
            "  [e23] n={n} s={zipf_s:.1} cache={} rate={rate:.0}: ok {:.3}, p99 {:.0} ms, \
             {} drops ({:.1}s)",
            on_off(cache),
            m.success_rate(),
            p99,
            m.msgs_dropped_overload,
            t0.elapsed().as_secs_f64(),
        ));
        out.push(TrafficPoint {
            id: format!(
                "traffic/n{n}/s{zipf_s:.1}/cache-{}/r{rate:.0}",
                on_off(cache)
            ),
            n,
            zipf_s,
            cache,
            rate,
            horizon,
            goodput: m.lookups_ok as f64 / secs,
            ok_rate: m.success_rate(),
            p50_ms: m.lookup_latency.quantile(0.50) * 1e3,
            p99_ms: p99,
            p999_ms: m.lookup_latency.quantile(0.999) * 1e3,
            drops: m.msgs_dropped_overload,
            cache_hits: m.cache_hits,
            depth_peak: m.queue_depth_peak,
            queue_wait_p99_ms: m.queue_wait.quantile(0.99) * 1e3,
            sustained,
        });
        if consecutive_saturated >= 2 {
            break;
        }
        rate *= 2.0;
    }
    (out, log)
}

/// Pure-traffic cell: no churn, no background workload, no maintenance
/// timers — the ladder measures congestion and nothing else.
fn cell_config(seed: u64, _n: usize, rate: f64, zipf_s: f64, cache: bool) -> SimConfig {
    SimConfig {
        seed,
        parallelism: 0,
        stabilize_interval: None,
        refresh_interval: None,
        workload: WorkloadConfig { lookup_rate: 0.0 },
        congestion: CongestionConfig {
            service_secs_per_msg: SERVICE_SECS_PER_MSG,
            queue_cap: QUEUE_CAP,
            link_rate: LINK_RATE,
            link_burst: LINK_BURST,
        },
        traffic: TrafficConfig {
            rate,
            zipf_s,
            hot_keys: HOT_KEYS,
            gateways: GATEWAYS,
            cache: cache.then_some(CacheConfig {
                capacity: CACHE_CAPACITY,
                ttl: SimTime::from_secs(CACHE_TTL_SECS),
            }),
        },
        ..SimConfig::default()
    }
}

/// Hand-rolled JSON rows (the workspace builds offline — no serde).
/// All latencies are simulator-clock time, hence the `sim_secs` stamp.
fn write_snapshot(
    ctx: &Ctx,
    points: &[TrafficPoint],
    knees: &[(String, usize, f64, bool, f64, f64)],
) {
    let mut rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"id\": \"{}\", \"n\": {}, \"zipf_s\": {:.2}, \"cache\": {}, \
                 \"offered_per_sec\": {:.1}, \"goodput_per_sec\": {:.1}, \
                 \"ok_rate\": {:.4}, \"p50_ms\": {:.4}, \"p99_ms\": {:.4}, \
                 \"p999_ms\": {:.4}, \"queue_wait_p99_ms\": {:.4}, \
                 \"drops_overload\": {}, \"cache_hits\": {}, \
                 \"queue_depth_peak\": {}, \"horizon_sim_secs\": {}, \
                 \"sustained\": {}, \"unit\": \"sim_secs\"}}",
                p.id,
                p.n,
                p.zipf_s,
                p.cache,
                p.rate,
                p.goodput,
                p.ok_rate,
                p.p50_ms,
                p.p99_ms,
                p.p999_ms,
                p.queue_wait_p99_ms,
                p.drops,
                p.cache_hits,
                p.depth_peak,
                p.horizon,
                p.sustained,
            )
        })
        .collect();
    for (id, n, zipf_s, cache, knee_rate, knee_goodput) in knees {
        rows.push(format!(
            "{{\"id\": \"{id}\", \"n\": {n}, \"zipf_s\": {zipf_s:.2}, \"cache\": {cache}, \
             \"knee_offered_per_sec\": {knee_rate:.1}, \
             \"sustainable_per_sec\": {knee_goodput:.1}, \"unit\": \"sim_secs\"}}"
        ));
    }
    ctx.write_snapshot("BENCH_traffic.json", &rows);
}
