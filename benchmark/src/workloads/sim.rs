//! The two simulating workloads: one engine, used two ways.
//!
//! `traffic_zipf` — engine handlers, plane, service queues, token
//! buckets and the gateway cache are the work. E23's congestion
//! constants (10 ms/message service, queue cap 32, links 2 000/s burst
//! 64), 32 gateways, open-loop Poisson arrivals *in simulated time* at
//! 6 400 lookups/s (80 % of the committed E23 knee for s = 0.9 with the
//! cache on at 10⁵ peers), Zipf s = 0.9 over 16 384 hot keys, a 256-entry
//! 30 s-TTL cache per gateway (working set 64× the cache, so p50 is a
//! real walk), no churn, no maintenance timers. Arrivals are scheduled
//! in simulated time, so latency counts from the due time and the
//! generator is never late.
//!
//! `churn_storage` — the same engine with writes beside reads: E22's
//! churn+storage cell (symmetric churn 8/s, 50 lookups/s, 20 puts/s,
//! 20 gets/s, 1 range/s, replication 3, preload n/5, repair every 10 s,
//! stabilize 5 s, refresh 30 s). Per-peer timers on the plane,
//! `DeltaStore` edge writes, `ShardMap` and repair dominate and routing
//! steps are a small share: a kernel or cache gain predicts no change
//! here, a plane or timer gain a large one here and a small one on
//! `traffic_zipf`.
//!
//! Both advance the clock in equal slices of simulated time. Host rates
//! are medians over slices; simulated metrics are read at a fixed slice
//! (the snapshot), so for a fixed seed they repeat bit for bit however
//! many slices the host then has time for.

use super::{put, put_all, Alternating, Measured, Metrics, Opts, Ready, Workload};
use crate::pipeline::{Cycle, Keys, LONG_FILE};
use crate::stats::{highest_supported_percentile, slice_rate_median};
use crate::trace::Tracer;
use std::path::Path;
use std::time::Instant;
use sw_graph::TopologyStore;
use sw_overlay::Overlay;
use sw_sim::{
    CacheConfig, ChurnConfig, CongestionConfig, SimConfig, SimMetrics, SimTime, Simulator,
    StorageConfig, TrafficConfig, WorkloadConfig,
};

/// Offered rate of `traffic_zipf`, lookups per simulated second.
pub const TRAFFIC_RATE: f64 = 6_400.0;
/// Rates of the sustained-rate ladder.
pub const LADDER: [f64; 5] = [3_200.0, 4_800.0, 6_400.0, 9_600.0, 12_800.0];
/// A rung is sustained when at least this share of lookups succeed and
/// the p99 stays within the limit.
pub const SUSTAINED_SUCCESS: f64 = 0.99;
pub const SUSTAINED_P99_MS: f64 = 1_500.0;

/// How a workload slices simulated time.
pub struct Plan {
    /// Simulated milliseconds per slice.
    pub slice_ms: u64,
    /// Slice after which the simulated metrics are read.
    pub snapshot: usize,
    /// Least share of resolved client operations that must succeed.
    pub min_success: f64,
}

pub fn plan(w: Workload, smoke: bool) -> Plan {
    match (w, smoke) {
        // ≈ 0.23 host s per slice; the snapshot (150 simulated s,
        // 960 000 lookups) falls near the middle of a fifteen-second run.
        (Workload::TrafficZipf, false) => Plan {
            slice_ms: 5_000,
            snapshot: 30,
            min_success: 0.99,
        },
        (Workload::TrafficZipf, true) => Plan {
            slice_ms: 5_000,
            snapshot: 4,
            min_success: 0.99,
        },
        // ≈ 0.18 host s per slice; 40 simulated s (2 000 lookups, 1 600
        // puts and gets) by the snapshot.
        (Workload::ChurnStorage, false) => Plan {
            slice_ms: 1_000,
            snapshot: 40,
            min_success: 0.95,
        },
        (Workload::ChurnStorage, true) => Plan {
            slice_ms: 1_000,
            snapshot: 4,
            min_success: 0.90,
        },
        _ => unreachable!("only the simulating workloads have a plan"),
    }
}

pub fn config(w: Workload, opts: &Opts, n: usize, traffic_rate: f64) -> SimConfig {
    match w {
        Workload::TrafficZipf => SimConfig {
            seed: opts.seed,
            stabilize_interval: None,
            refresh_interval: None,
            workload: WorkloadConfig { lookup_rate: 0.0 },
            congestion: CongestionConfig {
                service_secs_per_msg: 10e-3,
                queue_cap: 32,
                link_rate: 2_000.0,
                link_burst: 64.0,
            },
            traffic: TrafficConfig {
                // The knee scales with the population, and so does the
                // smoke run's offered rate.
                rate: traffic_rate * n as f64 / 100_000.0,
                zipf_s: 0.9,
                hot_keys: 16_384,
                gateways: 32,
                cache: Some(CacheConfig {
                    capacity: 256,
                    ttl: SimTime::from_secs(30),
                }),
            },
            ..SimConfig::default()
        },
        Workload::ChurnStorage => SimConfig {
            seed: opts.seed,
            churn: ChurnConfig::symmetric(if opts.smoke { 1.0 } else { 8.0 }),
            workload: WorkloadConfig { lookup_rate: 50.0 },
            storage: storage(n, true),
            stabilize_interval: Some(SimTime::from_secs(5)),
            refresh_interval: Some(SimTime::from_secs(30)),
            ..SimConfig::default()
        },
        _ => unreachable!("only the simulating workloads have a config"),
    }
}

pub fn storage(n: usize, ranges: bool) -> StorageConfig {
    StorageConfig {
        put_rate: 20.0,
        get_rate: 20.0,
        range_rate: if ranges { 1.0 } else { 0.0 },
        replication: 3,
        preload: n / 5,
        range_width: 0.02,
        repair_interval: Some(SimTime::from_secs(10)),
        repair_byte_secs: 1e-6,
        routing_mode: None,
    }
}

/// Opens the frozen long-link image and boots a simulator over it.
pub fn boot_with(
    cfg: SimConfig,
    cycle: &Cycle,
    dir: &Path,
    tr: &mut Tracer,
) -> Result<Simulator, String> {
    let path = dir.join(LONG_FILE);
    let (store, _) = tr.timed("graph.store.open", || TopologyStore::open(&path));
    let store = store.map_err(|e| format!("{}: {e}", path.display()))?;
    let keys = cycle.net.placement().keys().to_vec();
    let (sim, _) = tr.timed("sim.engine.boot", || {
        Simulator::with_store(cfg, Keys::Pareto.dist(), keys, store)
    });
    Ok(sim)
}

pub fn boot(
    w: Workload,
    opts: &Opts,
    cycle: &Cycle,
    dir: &Path,
    tr: &mut Tracer,
) -> Result<Simulator, String> {
    boot_with(
        config(w, opts, cycle.net.len(), TRAFFIC_RATE),
        cycle,
        dir,
        tr,
    )
}

/// Client operations resolved and succeeded so far.
fn client_ops(m: &SimMetrics) -> (u64, u64) {
    (
        m.lookups + m.puts + m.gets + m.ranges,
        m.lookups_ok + m.puts_ok + m.gets_ok + m.ranges_ok,
    )
}

pub fn measure(
    w: Workload,
    opts: &Opts,
    ready: &mut Ready,
    tr: &mut Tracer,
) -> Result<Measured, String> {
    let plan = plan(w, opts.smoke);
    let sim = ready.sim.as_mut().expect("set-up booted the simulator");
    let mut alt = Alternating::default();
    let (mut lookups, mut events, mut secs) = (Vec::new(), Vec::new(), Vec::new());
    let mut snapshot: Option<(SimMetrics, f64)> = None;
    let mut stalled = 0u64;
    let started = Instant::now();
    let mut slice = 0usize;
    while slice < plan.snapshot || started.elapsed().as_secs_f64() < opts.seconds {
        slice += 1;
        let until = SimTime(slice as u64 * plan.slice_ms * 1_000);
        let (events0, lookups0) = (sim.metrics().events, sim.metrics().lookups);
        // Slice 1 fills the gateway caches and the wheel; it runs
        // untraced and stays out of the host medians.
        let on = Alternating::arm(tr, opts.trace && slice > 1, slice);
        let ((), slice_secs) = tr.timed("sim.engine.run_until", || sim.run_until(until));
        let slice_events = sim.metrics().events - events0;
        if sim.now() != until || slice_events == 0 {
            stalled += 1;
        }
        if slice > 1 {
            lookups.push((sim.metrics().lookups - lookups0) as f64);
            events.push(slice_events as f64);
            secs.push(slice_secs);
            alt.push(on, slice_events as f64 / slice_secs);
        }
        if slice == plan.snapshot {
            snapshot = Some((sim.metrics().clone(), crate::stamp::peak_rss_mb()?));
        }
    }
    tr.set_enabled(opts.trace);
    let (snap, peak_rss_mb) = snapshot.expect("the loop runs past the snapshot slice");
    let (ops, ops_ok) = client_ops(&snap);
    let mut m = Measured {
        hops_mean: snap.hops.mean(),
        sim_lookup_mean_ms: snap.latency_secs.mean() * 1e3,
        ops,
        ops_ok,
        attempted: slice as u64,
        failed: stalled,
        overhead_share: alt.overhead_share(),
        fingerprint: Some(snap.fingerprint()),
        peak_rss_mb: Some(peak_rss_mb),
        ..Measured::default()
    };
    if stalled > 0 {
        return Err(format!("{stalled} of {slice} slices did not advance"));
    }
    let success = ops_ok as f64 / ops.max(1) as f64;
    if success < plan.min_success {
        return Err(format!(
            "{ops_ok} of {ops} client operations succeeded, below {}",
            plan.min_success
        ));
    }
    m.checks.push("client_success_above_floor");
    put(&mut m.counts, "snapshot_slice", plan.snapshot as f64);
    put(&mut m.counts, "snapshot_lookups", snap.lookups as f64);
    engine_layer(&snap, slice_rate_median(&events, &secs), &mut m.layer);
    // The headline rate counts what the workload is about: lookups
    // where routing under load is the work, events where timers and
    // storage messages are and lookups are a small share of them.
    m.work = match w {
        Workload::TrafficZipf => lookups,
        _ => events,
    };
    m.work_secs = secs;
    Ok(m)
}

/// The simulated and engine-level numbers of the snapshot. Cheap, so
/// computed on every run; only the traced run prints them.
fn engine_layer(snap: &SimMetrics, events_per_s: f64, layer: &mut Metrics) {
    let lookups = snap.lookups.max(1) as f64;
    // p999 needs ten samples beyond it: 10 000 lookups.
    let p999_supported =
        highest_supported_percentile(snap.lookup_latency.count() as usize) == Some(0.999);
    let p999_ms = if p999_supported {
        snap.lookup_latency.quantile(0.999) * 1e3
    } else {
        0.0
    };
    put_all(
        layer,
        &[
            ("sim.engine.events_per_s", events_per_s),
            ("sim.engine.ns_per_event", 1e9 / events_per_s),
            ("sim.engine.events_per_lookup", snap.events as f64 / lookups),
            (
                "sim.engine.fingerprint",
                (snap.fingerprint() & ((1 << 48) - 1)) as f64,
            ),
            (
                "sim.lookup.p50_ms",
                snap.lookup_latency.quantile(0.50) * 1e3,
            ),
            (
                "sim.lookup.p99_ms",
                snap.lookup_latency.quantile(0.99) * 1e3,
            ),
            ("sim.lookup.p999_ms", p999_ms),
            (
                "sim.traffic.cache_hit_share",
                snap.cache_hits as f64 / lookups,
            ),
            (
                "sim.traffic.queue_wait_p99_ms",
                snap.queue_wait.quantile(0.99) * 1e3,
            ),
            ("sim.traffic.queue_depth_peak", snap.queue_depth_peak as f64),
            (
                "sim.traffic.dropped_msgs",
                snap.msgs_dropped_overload as f64,
            ),
            ("sim.storage.keys_lost", snap.keys_lost as f64),
            ("sim.storage.repair_bytes", snap.repair_bytes as f64),
        ],
    );
}

/// After the measurement: the network-message ledger of `traffic_zipf`,
/// and at smoke scale the sliced-versus-unsliced fingerprint of both.
pub fn check(w: Workload, opts: &Opts, ready: &mut Ready, m: &mut Measured) -> Result<(), String> {
    if w == Workload::TrafficZipf {
        let sim = ready.sim.as_mut().expect("set-up booted the simulator");
        // Stop the generator and let every in-flight message land: the
        // ledger balances only on a drained plane.
        sim.set_traffic_rate(0.0);
        let drained = SimTime(sim.now().0 + 120_000_000);
        sim.run_until(drained);
        let (offered, dropped, delivered, dead) = sim.net_counters();
        if offered != dropped + delivered + dead {
            return Err(format!(
                "network ledger does not balance: offered {offered} != dropped {dropped} + \
                 delivered {delivered} + dead {dead}"
            ));
        }
        put(
            &mut m.layer,
            "sim.traffic.drop_share",
            dropped as f64 / offered.max(1) as f64,
        );
        m.checks.push("network_ledger_balances");
    } else {
        put(&mut m.layer, "sim.traffic.drop_share", 0.0);
    }
    if opts.smoke {
        // One `run_until` to the snapshot instant must leave the same
        // fingerprint as the slices did.
        let plan = plan(w, true);
        let mut tr = Tracer::new(false);
        let mut whole = boot(w, opts, &ready.cycle, &ready.dir, &mut tr)?;
        whole.run_until(SimTime(plan.snapshot as u64 * plan.slice_ms * 1_000));
        if Some(whole.metrics().fingerprint()) != m.fingerprint {
            return Err("sliced and unsliced runs left different fingerprints".to_string());
        }
        m.checks.push("sliced_equals_unsliced");
    }
    Ok(())
}

/// The highest ladder rate `traffic_zipf` sustains: a fresh simulator
/// per rung over the same frozen image, `secs` simulated seconds each.
pub fn sustained_rate(opts: &Opts, ready: &Ready, secs: u64) -> Result<f64, String> {
    let n = ready.cycle.net.len();
    let mut tr = Tracer::new(false);
    let mut best = 0.0;
    for rate in LADDER {
        let cfg = config(Workload::TrafficZipf, opts, n, rate);
        let mut sim = boot_with(cfg, &ready.cycle, &ready.dir, &mut tr)?;
        sim.run_until(SimTime::from_secs(secs));
        let m = sim.metrics();
        let p99_ms = m.lookup_latency.quantile(0.99) * 1e3;
        if m.success_rate() >= SUSTAINED_SUCCESS && p99_ms <= SUSTAINED_P99_MS {
            best = rate;
        }
    }
    Ok(best)
}
