//! sim: the message plane, the traffic models and the engine around
//! them. Plane and queue costs move `events_per_s` (and with it
//! `lookups_per_s`) on both simulating workloads, most on
//! `churn_storage`; the simulated numbers (cache hits, queue waits,
//! drops) move `sim_lookup_mean_ms` on `traffic_zipf` and are untouched
//! by host speed.

use super::ns_per_op;
use crate::workloads::{self, put, put_all, Metrics, Opts, Ready, Workload};
use std::hint::black_box;
use std::time::Instant;
use sw_keyspace::Rng;
use sw_sim::traffic::{ServiceQueue, TokenBucket};
use sw_sim::{Histogram, HotCache, MessagePlane, SimTime, ZipfSampler};

/// Timers pending on the plane while its operations are timed.
const PENDING: usize = 100_000;
const PLANE_OPS: usize = 50_000;
const CALLS: usize = 200_000;

/// The engine-level metrics, all 0 on a workload that never simulates.
const ENGINE_METRICS: [&str; 18] = [
    "sim.engine.events_per_s",
    "sim.engine.ns_per_event",
    "sim.engine.events_per_lookup",
    "sim.engine.fingerprint",
    "sim.engine.boot_s",
    "sim.engine.handler_ns_per_event",
    "sim.engine.probe_lookups_per_s",
    "sim.lookup.p50_ms",
    "sim.lookup.p99_ms",
    "sim.lookup.p999_ms",
    "sim.traffic.cache_hit_share",
    "sim.traffic.drop_share",
    "sim.traffic.dropped_msgs",
    "sim.traffic.queue_wait_p99_ms",
    "sim.traffic.queue_depth_peak",
    "sim.traffic.sustained_rate_per_s",
    "sim.storage.keys_lost",
    "sim.storage.repair_bytes",
];

/// Micro-timings of the plane and the traffic primitives; returns the
/// plane's nanoseconds per event (one push and one windowed pop).
pub fn micro(rng: &mut Rng, layer: &mut Metrics) -> f64 {
    // A plane holding 10⁵ timers spread over 30 s, like a booted
    // 10⁵-peer simulator; pushes land within the next second.
    let mut plane: MessagePlane<u64> = MessagePlane::new();
    for i in 0..PENDING {
        plane.send(SimTime(rng.bounded_u64(30_000_000)), i as u64);
    }
    let far = SimTime(u64::MAX / 2);
    let delays: Vec<SimTime> = (0..PLANE_OPS)
        .map(|_| SimTime(1 + rng.bounded_u64(1_000_000)))
        .collect();
    let push = |plane: &mut MessagePlane<u64>| {
        let t0 = Instant::now();
        for (i, &d) in delays.iter().enumerate() {
            plane.send(d, i as u64);
        }
        t0.elapsed().as_secs_f64() * 1e9 / PLANE_OPS as f64
    };
    let push_ns = push(&mut plane);
    let t0 = Instant::now();
    for _ in 0..PLANE_OPS {
        black_box(plane.deliver_before(far));
    }
    let pop_ns = t0.elapsed().as_secs_f64() * 1e9 / PLANE_OPS as f64;
    push(&mut plane);
    let mut batch = Vec::new();
    let mut popped = 0usize;
    let t0 = Instant::now();
    while popped < PLANE_OPS {
        popped += plane.deliver_window(far, &mut batch);
        black_box(&batch);
    }
    let window_pop_ns = t0.elapsed().as_secs_f64() * 1e9 / popped as f64;

    let zipf = ZipfSampler::new(16_384, 0.9);
    let zipf_ns = ns_per_op(CALLS, |_| {
        black_box(zipf.sample(rng));
    });
    // The gateway cache as the engine drives it: look up, fill on miss.
    let ranks: Vec<u64> = (0..65_536).map(|_| zipf.sample(rng) as u64).collect();
    let mut cache = HotCache::new(256);
    let ttl = SimTime::from_secs(30);
    let cache_ns = ns_per_op(CALLS, |i| {
        let now = SimTime(i as u64 * 150);
        let key = ranks[i & 65_535];
        if !black_box(cache.lookup(key, now)) {
            cache.insert(key, now + ttl);
        }
    });
    let mut queue = ServiceQueue::default();
    let service = SimTime::from_millis(10);
    let offer_ns = ns_per_op(CALLS, |i| {
        black_box(queue.offer(SimTime(i as u64 * 9_000), service, 32));
    });
    let mut bucket = TokenBucket::full(SimTime::ZERO, 64.0);
    let bucket_ns = ns_per_op(CALLS, |i| {
        black_box(bucket.delay(SimTime(i as u64 * 450), 2_000.0, 64.0));
    });
    let mut histogram = Histogram::default();
    let latencies: Vec<SimTime> = (0..65_536)
        .map(|_| SimTime(50_000 + rng.bounded_u64(2_000_000)))
        .collect();
    let record_ns = ns_per_op(CALLS, |i| {
        histogram.record(latencies[i & 65_535]);
    });
    black_box(histogram.count());

    put_all(
        layer,
        &[
            ("sim.plane.push_ns", push_ns),
            ("sim.plane.pop_ns", pop_ns),
            ("sim.plane.window_pop_ns", window_pop_ns),
            ("sim.traffic.zipf_sample_ns", zipf_ns),
            ("sim.traffic.cache_lookup_ns", cache_ns),
            ("sim.traffic.queue_offer_ns", offer_ns),
            ("sim.traffic.bucket_delay_ns", bucket_ns),
            ("sim.metrics.histogram_record_ns", record_ns),
        ],
    );
    push_ns + window_pop_ns
}

/// Completes the engine metrics the measured phase started: boot,
/// probe rate, the derived handler residual and, on `traffic_zipf`,
/// the sustained-rate ladder.
pub fn engine(
    w: Workload,
    opts: &Opts,
    ready: &mut Ready,
    boot_s: f64,
    plane_ns: f64,
    hops_mean: f64,
    layer: &mut Metrics,
) -> Result<(), String> {
    let Some(sim) = ready.sim.as_mut() else {
        for name in ENGINE_METRICS {
            put(layer, name, 0.0);
        }
        return Ok(());
    };
    let probes = opts.probes();
    let t0 = Instant::now();
    let (ok, _) = sim.probe_lookups(probes);
    let probe_secs = t0.elapsed().as_secs_f64();
    if w == Workload::TrafficZipf && ok < 1.0 {
        return Err(format!("probe lookups on a static overlay succeeded {ok}"));
    }
    // Derived, not measured: what is left of an event after the plane
    // (one push, one windowed pop) and the greedy steps it took.
    let steps_per_event = hops_mean / layer["sim.engine.events_per_lookup"].max(1.0);
    let handler_ns =
        layer["sim.engine.ns_per_event"] - plane_ns - steps_per_event * layer["overlay.step.ns"];
    put(layer, "sim.engine.boot_s", boot_s);
    put(
        layer,
        "sim.engine.probe_lookups_per_s",
        probes as f64 / probe_secs,
    );
    put(layer, "sim.engine.handler_ns_per_event", handler_ns);
    let sustained = if w == Workload::TrafficZipf {
        workloads::sim::sustained_rate(opts, ready, 10)?
    } else {
        0.0
    };
    put(layer, "sim.traffic.sustained_rate_per_s", sustained);
    Ok(())
}
