//! Invariants of the congestion layer: service queues, token-bucket
//! links, the open-loop traffic generator, and the requester-side
//! hot-key cache.

use proptest::prelude::*;
use std::sync::Arc;
use sw_keyspace::distribution::{KeyDistribution, TruncatedPareto, Uniform};
use sw_sim::traffic::{CacheConfig, CongestionConfig, TrafficConfig};
use sw_sim::{ChurnConfig, RoutingMode, SimConfig, SimTime, Simulator, WorkloadConfig};

fn dist_for(choice: u8) -> Arc<dyn KeyDistribution> {
    match choice % 2 {
        0 => Arc::new(Uniform),
        _ => Arc::new(TruncatedPareto::new(1.5, 0.02).unwrap()),
    }
}

/// A congested, cache-enabled traffic config over a churning network —
/// every moving part of the new layer at once.
fn traffic_cfg(seed: u64, rate: f64, zipf_s: f64, queue_cap: u32, churn: f64) -> SimConfig {
    SimConfig {
        seed,
        initial_n: 192,
        churn: ChurnConfig::symmetric(churn),
        workload: WorkloadConfig { lookup_rate: 0.0 },
        stabilize_interval: None,
        refresh_interval: None,
        congestion: CongestionConfig {
            service_secs_per_msg: 10e-3,
            queue_cap,
            link_rate: 500.0,
            link_burst: 16.0,
        },
        traffic: TrafficConfig {
            rate,
            zipf_s,
            hot_keys: 64,
            gateways: 8,
            cache: Some(CacheConfig {
                capacity: 32,
                ttl: SimTime::from_secs(20),
            }),
        },
        ..SimConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Conservation: once the generator and churn are switched off and
    /// the plane drains, every network message the congestion layer
    /// ever admitted is accounted for exactly once — delivered, dropped
    /// at a full queue, or discarded at a dead peer.
    #[test]
    fn queue_conservation(
        seed in any::<u64>(),
        rate in 50.0f64..300.0,
        zipf_s in 0.0f64..1.5,
        queue_cap in 2u32..12,
        churn in 0.0f64..3.0,
        dist_choice in 0u8..2,
    ) {
        let cfg = traffic_cfg(seed, rate, zipf_s, queue_cap, churn);
        let mut sim = Simulator::new(cfg, dist_for(dist_choice));
        sim.run_until(SimTime::from_secs(30));
        // Quiesce: no new arrivals, no new deaths; the walks still in
        // flight retire within bounded timeouts, so a long run drains
        // the plane completely.
        sim.set_traffic_rate(0.0);
        sim.set_churn(ChurnConfig::NONE);
        sim.run_until(SimTime::from_secs(4_000));
        let (offered, dropped, delivered, dead) = sim.net_counters();
        prop_assert!(offered > 0, "the generator must have offered traffic");
        prop_assert_eq!(
            offered,
            dropped + delivered + dead,
            "ledger leak: offered {} != dropped {} + delivered {} + dead {}",
            offered, dropped, delivered, dead
        );
        // And the walk-level books must close too: every injected
        // lookup completed one way or another (cache hits short-circuit
        // but still count as completed lookups).
        let m = sim.metrics();
        prop_assert!(m.lookups > 0);
        prop_assert!(m.lookups_ok <= m.lookups);
    }
}

/// `set_traffic_rate` can stop the generator but not restart it: the
/// `Next` traffic process ends at the tick that reads a zero rate, so a
/// positive rate set after the drain finds nothing on the plane to
/// read it. The same holds for `set_churn`, whose doc says so: the
/// second case stops the join and fail processes beside the traffic,
/// and raising both rates again brings back neither.
#[test]
fn raising_the_traffic_rate_from_zero_restarts_nothing() {
    let rate = 200.0;
    for churn in [0.0, 2.0] {
        let cfg = traffic_cfg(5, rate, 0.9, 8, churn);
        let mut sim = Simulator::new(cfg, Arc::new(Uniform));
        sim.run_until(SimTime::from_secs(30));
        sim.set_traffic_rate(0.0);
        sim.set_churn(ChurnConfig::NONE);
        sim.run_until(SimTime::from_secs(4_000));
        let m = sim.metrics();
        let drained = (m.lookups, m.joins, m.failures);
        let ledger = sim.net_counters();
        assert!(drained.0 > 1_000, "churn {churn}: {drained:?}");
        assert_eq!(churn > 0.0, drained.1 > 0 && drained.2 > 0, "{drained:?}");
        assert_eq!(sim.in_flight_walks(), 0, "the drain must settle every walk");
        assert_eq!(ledger.0, ledger.1 + ledger.2 + ledger.3, "{ledger:?}");

        sim.set_traffic_rate(rate);
        sim.set_churn(ChurnConfig::symmetric(churn));
        sim.run_until(SimTime::from_secs(4_100));
        let m = sim.metrics();
        assert_eq!(
            (m.lookups, m.joins, m.failures),
            drained,
            "churn {churn}: a stopped generator restarted"
        );
        assert_eq!(sim.net_counters(), ledger, "messages without a generator");
    }
}

/// The full cross-run equivalence digest: lookup counters, congestion
/// accounting, the conservation ledger, and bit-exact histogram
/// fingerprints.
#[derive(Debug, PartialEq, Eq)]
struct Digest {
    events: u64,
    lookups: u64,
    lookups_ok: u64,
    timeouts: u64,
    cache_hits: u64,
    drops: u64,
    depth_peak: u64,
    queue_wait_fp: u64,
    latency_fp: u64,
    hops_bits: u64,
    latency_bits: u64,
    net: (u64, u64, u64, u64),
    alive: usize,
}

/// Bit-identity across worker-thread counts for a queued,
/// rate-limited, cached, churning run: the congestion layer is
/// evaluated at send time from plane-ordered state, so the full metric
/// digest — histogram fingerprints included — must be invariant.
#[test]
fn thread_counts_agree_under_congestion() {
    for seed in [7u64, 0x5EED_2005] {
        let run = |parallelism: usize| {
            let cfg = SimConfig {
                parallelism,
                ..traffic_cfg(seed, 700.0, 1.2, 4, 2.0)
            };
            let mut sim = Simulator::new(cfg, Arc::new(Uniform));
            sim.run_until(SimTime::from_secs(30));
            let m = sim.metrics();
            Digest {
                events: m.events,
                lookups: m.lookups,
                lookups_ok: m.lookups_ok,
                timeouts: m.timeouts,
                cache_hits: m.cache_hits,
                drops: m.msgs_dropped_overload,
                depth_peak: m.queue_depth_peak,
                queue_wait_fp: m.queue_wait.fingerprint(),
                latency_fp: m.lookup_latency.fingerprint(),
                hops_bits: m.hops.mean().to_bits(),
                latency_bits: m.latency_secs.mean().to_bits(),
                net: sim.net_counters(),
                alive: sim.alive_count(),
            }
        };
        let reference = run(1);
        assert!(reference.drops > 0, "this load point must overflow queues");
        assert!(
            reference.cache_hits > 0,
            "this load point must hit the cache"
        );
        for parallelism in [1usize, 2, 4] {
            assert_eq!(
                run(parallelism),
                reference,
                "digest diverged: seed={seed} threads={parallelism}"
            );
        }
    }
}

/// Regression for `Walk::adaptive_timeout`: queue wait must count
/// toward the requester's patience. Near the knee, waits stack up to
/// hundreds of milliseconds per lookup; on a static network those
/// delays must never be misread as failures — zero timeouts, every
/// lookup delivered — even though the requester-driven (iterative)
/// mode re-arms its adaptive timer at every hop.
#[test]
fn queue_wait_is_not_a_timeout() {
    let cfg = SimConfig {
        routing_mode: RoutingMode::Iterative,
        congestion: CongestionConfig {
            service_secs_per_msg: 10e-3,
            // Effectively unbounded depth: waits grow, nothing drops.
            queue_cap: 100_000,
            link_rate: f64::INFINITY,
            link_burst: f64::INFINITY,
        },
        ..traffic_cfg(11, 400.0, 1.2, 0, 0.0)
    };
    let mut sim = Simulator::new(cfg, Arc::new(Uniform));
    sim.run_until(SimTime::from_secs(20));
    sim.set_traffic_rate(0.0);
    sim.run_until(SimTime::from_secs(600));
    let m = sim.metrics();
    assert!(m.lookups > 1_000, "lookups {}", m.lookups);
    assert!(
        m.queue_wait.count() > 0 && m.queue_wait.quantile(0.99) > 10e-3,
        "the load point must produce real queue waits (p99 {:.4}s over {})",
        m.queue_wait.quantile(0.99),
        m.queue_wait.count()
    );
    assert_eq!(m.timeouts, 0, "queue wait misread as peer death");
    assert_eq!(m.lookups_ok, m.lookups, "every queued lookup must land");
    assert_eq!(m.msgs_dropped_overload, 0, "uncapped queues cannot drop");
}
