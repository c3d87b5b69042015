//! The one comparison that names `ShardedSimulator` — step 0 of the
//! ROADMAP's engine-merge item: one identical churn + storage workload
//! (the `churn_storage` configuration minus range queries, which the
//! peer-local engine does not speak) through the serial drain, the
//! windowed driver and the global-state `Simulator`. Runs on the
//! `churn_storage` trace only; when the engines merge, this file goes.

use crate::pipeline::Keys;
use crate::workloads::sim::storage;
use crate::workloads::{put, Metrics, Opts, Workload};
use std::time::Instant;
use sw_sim::{ChurnConfig, ShardedSimulator, SimConfig, SimTime, Simulator, WorkloadConfig};

const METRICS: [&str; 3] = [
    "sim.sharded.serial_events_per_s",
    "sim.sharded.windowed_events_per_s",
    "sim.engine.samecfg_events_per_s",
];

/// Each engine draws its own overlay, so the comparison keeps it small.
const PEERS: usize = 20_000;
const HORIZON_SECS: u64 = 6;

pub fn measure(w: Workload, opts: &Opts, layer: &mut Metrics) {
    if w != Workload::ChurnStorage {
        for name in METRICS {
            put(layer, name, 0.0);
        }
        return;
    }
    let n = if opts.smoke { PEERS / 50 } else { PEERS };
    let horizon = SimTime::from_secs(if opts.smoke { 2 } else { HORIZON_SECS });
    let cfg = SimConfig {
        seed: opts.seed,
        initial_n: n,
        churn: ChurnConfig::symmetric(if opts.smoke { 1.0 } else { 8.0 }),
        workload: WorkloadConfig { lookup_rate: 50.0 },
        storage: storage(n, false),
        stabilize_interval: Some(SimTime::from_secs(5)),
        refresh_interval: Some(SimTime::from_secs(30)),
        ..SimConfig::default()
    };
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let sharded = |shards: usize, serial: bool| {
        let mut sim = ShardedSimulator::new(cfg.clone(), Keys::Pareto.dist(), shards, horizon);
        sim.set_workers(cores);
        let t0 = Instant::now();
        if serial {
            sim.run_serial_until(horizon);
        } else {
            sim.run_until(horizon);
        }
        sim.events() as f64 / t0.elapsed().as_secs_f64()
    };
    let serial = sharded(1, true);
    let windowed = sharded(8 * cores, false);
    let mut sim = Simulator::new(cfg.clone(), Keys::Pareto.dist());
    let t0 = Instant::now();
    sim.run_until(horizon);
    let global = sim.metrics().events as f64 / t0.elapsed().as_secs_f64();
    put(layer, METRICS[0], serial);
    put(layer, METRICS[1], windowed);
    put(layer, METRICS[2], global);
}
