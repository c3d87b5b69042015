//! Churn: run the message-plane simulator with joins, silent failures,
//! stabilization, long-link refresh, a replicated storage workload and
//! message-driven anti-entropy replica repair, print a timeline of
//! lookup + data-layer health — then re-run the same churn under each
//! routing mode (recursive / iterative) and compare stranding, failover
//! and the latency tail side by side.
//!
//! ```text
//! cargo run --release --example churn_simulation
//! ```

use smallworld::keyspace::prelude::*;
use smallworld::keyspace::stats::quantile_sorted;
use smallworld::sim::{
    ChurnConfig, RoutingMode, SimConfig, SimTime, Simulator, StorageConfig, WorkloadConfig,
};
use std::sync::Arc;

fn main() {
    let cfg = SimConfig {
        seed: 7,
        initial_n: 1024,
        churn: ChurnConfig::symmetric(8.0), // 8 joins + 8 failures per second
        workload: WorkloadConfig { lookup_rate: 20.0 },
        storage: StorageConfig {
            put_rate: 10.0,
            get_rate: 10.0,
            range_rate: 1.0,
            replication: 3,
            preload: 5000,
            repair_interval: Some(SimTime::from_secs(10)),
            ..StorageConfig::NONE
        },
        stabilize_interval: Some(SimTime::from_secs(10)),
        refresh_interval: Some(SimTime::from_secs(30)),
        ..SimConfig::default()
    };
    println!(
        "simulating {} peers under symmetric churn of {} events/s, \
         {} items preloaded, anti-entropy repair every {} ...\n",
        cfg.initial_n,
        cfg.churn.join_rate,
        cfg.storage.preload,
        cfg.storage.repair_interval.expect("repair on"),
    );
    let mut sim = Simulator::new(cfg.clone(), Arc::new(Uniform));
    println!(
        "{:>6} {:>7} {:>9} {:>7} {:>9} {:>8} {:>8} {:>7} {:>7} {:>10}",
        "t (s)",
        "peers",
        "success",
        "hops",
        "stranded",
        "get ok",
        "items",
        "under",
        "lost",
        "repair MB"
    );
    for minute in 1..=10 {
        sim.run_until(SimTime::from_secs(minute * 60));
        let (ok, hops) = sim.probe_lookups(300);
        let m = sim.metrics();
        println!(
            "{:>6} {:>7} {:>8.1}% {:>7.2} {:>9} {:>7.1}% {:>8} {:>7} {:>7} {:>10.2}",
            minute * 60,
            sim.alive_count(),
            ok * 100.0,
            hops.mean(),
            m.lookups_stranded,
            m.get_success_rate() * 100.0,
            sim.shards().len(),
            m.keys_under_replicated,
            m.keys_lost,
            m.repair_bytes as f64 / 1e6,
        );
    }
    let m = sim.metrics();
    println!(
        "\nworkload totals: {} lookups, {:.1}% success, mean {:.2} hops, \
         mean latency {:.0} ms, peak {} lookups in flight",
        m.lookups,
        m.success_rate() * 100.0,
        m.hops.mean(),
        m.latency_secs.mean() * 1000.0,
        m.inflight_peak,
    );
    println!(
        "storage totals: {} puts ({:.1}% ok), {} gets ({:.1}% ok, {} replica \
         fallback probes, {} read-repaired), {} range queries ({:.1}% complete) \
         serving {} items",
        m.puts,
        m.put_success_rate() * 100.0,
        m.gets,
        m.get_success_rate() * 100.0,
        m.gets_fallback,
        m.gets_read_repaired,
        m.ranges,
        m.range_success_rate() * 100.0,
        m.range_items,
    );
    let census = sim.durability_census(0);
    println!(
        "durability: {} repair messages moved {:.2} MB ({:.2} repair bytes per \
         stored byte); mean time-to-repair {:.1}s over {} repairs; {} keys \
         under-replicated now, {} keys permanently lost; census: {} keys \
         ({} full / {} under / {} over, target {})",
        m.repair_messages,
        m.repair_bytes as f64 / 1e6,
        m.repair_overhead(),
        m.repair_time_secs.mean(),
        m.repair_time_secs.count(),
        m.keys_under_replicated,
        m.keys_lost,
        census.keys,
        census.fully_replicated,
        census.under_replicated,
        census.over_replicated,
        census.target,
    );
    println!(
        "{} joins and {} failures were absorbed while {} events flowed through \
         the message plane — queries kept succeeding *while* the overlay churned \
         beneath them, and every recovered key was actually streamed from a \
         surviving replica, not conjured by an oracle\n",
        m.joins, m.failures, m.events
    );

    // ----- routing-mode comparison -----------------------------------
    //
    // Same seed, same churn, two forwarding strategies: recursive
    // hand-off strands queries when their carrier dies; iterative
    // lookups survive (the requester drives each hop and fails over on
    // timeout) at the price of one extra one-way delay per hop.
    println!("routing-mode comparison (512 peers, symmetric churn 8/s, 180s):");
    println!(
        "{:>15} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "mode", "lookups", "ok", "stranded", "f-over", "exhaust", "p50 ms", "p99 ms"
    );
    for mode in RoutingMode::ALL {
        let cfg = SimConfig {
            seed: 7,
            initial_n: 512,
            churn: ChurnConfig::symmetric(8.0),
            workload: WorkloadConfig { lookup_rate: 30.0 },
            routing_mode: mode,
            record_lookups: true,
            stabilize_interval: Some(SimTime::from_secs(10)),
            refresh_interval: Some(SimTime::from_secs(30)),
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(cfg, Arc::new(Uniform));
        sim.run_until(SimTime::from_secs(180));
        let m = sim.metrics();
        let mut lat: Vec<f64> = sim
            .lookup_records()
            .iter()
            .filter(|r| r.success)
            .map(|r| r.latency.as_secs_f64())
            .collect();
        lat.sort_by(f64::total_cmp);
        let (p50, p99) = if lat.is_empty() {
            (0.0, 0.0)
        } else {
            (quantile_sorted(&lat, 0.5), quantile_sorted(&lat, 0.99))
        };
        println!(
            "{:>15} {:>8} {:>8.1}% {:>9} {:>9} {:>9} {:>9.0} {:>9.0}",
            mode.name(),
            m.lookups,
            m.success_rate() * 100.0,
            m.lookups_stranded,
            m.lookups_failed_over,
            m.lookups_exhausted,
            p50 * 1000.0,
            p99 * 1000.0,
        );
    }
    println!(
        "\nexpected shape: iterative converts timeouts into failovers and edges \
         out recursive on success despite paying a full RTT per hop (higher \
         p50/p99); its strandings are requester deaths — the only way to kill an \
         iterative lookup. The robustness gap widens sharply when ring \
         stabilization lags churn: see E19 / BENCH_routing.json"
    );
}
