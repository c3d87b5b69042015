//! Property-based invariants of the discrete-event simulator.

use proptest::prelude::*;
use std::sync::Arc;
use sw_keyspace::distribution::{KeyDistribution, TruncatedPareto, Uniform};
use sw_sim::{
    CacheConfig, ChurnConfig, CongestionConfig, RoutingMode, SimConfig, SimTime, Simulator,
    StorageConfig, TrafficConfig, WorkloadConfig,
};

fn dist_for(choice: u8) -> Arc<dyn KeyDistribution> {
    match choice % 2 {
        0 => Arc::new(Uniform),
        _ => Arc::new(TruncatedPareto::new(1.5, 0.02).unwrap()),
    }
}

fn routing_mode(choice: u8) -> RoutingMode {
    RoutingMode::ALL[choice as usize % RoutingMode::ALL.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Population accounting: alive = initial + joins − failures, and
    /// the floor of 8 peers is never breached.
    #[test]
    fn population_accounting(
        seed in any::<u64>(),
        join_rate in 0.0f64..8.0,
        fail_rate in 0.0f64..8.0,
        dist_choice in 0u8..2,
    ) {
        let initial = 64usize;
        let cfg = SimConfig {
            seed,
            initial_n: initial,
            churn: ChurnConfig {
                join_rate,
                fail_rate,
            },
            workload: WorkloadConfig { lookup_rate: 2.0 },
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(cfg, dist_for(dist_choice));
        sim.run_until(SimTime::from_secs(60));
        let m = sim.metrics();
        prop_assert_eq!(
            sim.alive_count() as i64,
            initial as i64 + m.joins as i64 - m.failures as i64
        );
        prop_assert!(sim.alive_count() >= 8);
    }

    /// Metrics are internally consistent: successes never exceed
    /// attempts, hop/latency samples only come from successes.
    #[test]
    fn metrics_consistency(seed in any::<u64>(), rate in 0.0f64..6.0) {
        let cfg = SimConfig {
            seed,
            initial_n: 64,
            churn: ChurnConfig::symmetric(rate),
            workload: WorkloadConfig { lookup_rate: 10.0 },
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(cfg, Arc::new(Uniform));
        sim.run_until(SimTime::from_secs(30));
        let m = sim.metrics();
        prop_assert!(m.lookups_ok <= m.lookups);
        prop_assert_eq!(m.hops.count(), m.lookups_ok);
        prop_assert_eq!(m.latency_secs.count(), m.lookups_ok);
        prop_assert!(m.success_rate() >= 0.0 && m.success_rate() <= 1.0);
        prop_assert_eq!(m.end_time, SimTime::from_secs(30));
    }

    /// Bit-for-bit determinism across identical configurations, in
    /// both routing modes.
    #[test]
    fn determinism(seed in any::<u64>(), mode_choice in 0u8..2) {
        let run = || {
            let cfg = SimConfig {
                seed,
                initial_n: 48,
                churn: ChurnConfig::symmetric(3.0),
                workload: WorkloadConfig { lookup_rate: 8.0 },
                routing_mode: routing_mode(mode_choice),
                ..SimConfig::default()
            };
            let mut sim = Simulator::new(cfg, Arc::new(Uniform));
            sim.run_until(SimTime::from_secs(45));
            (
                sim.alive_count(),
                sim.metrics().lookups,
                sim.metrics().lookups_ok,
                sim.metrics().lookups_failed_over,
                sim.metrics().timeouts,
                sim.metrics().hops.mean().to_bits(),
                sim.metrics().hop_rtt.mean().to_bits(),
            )
        };
        prop_assert_eq!(run(), run());
    }

    /// Anti-entropy quiescence: after churn stops and enough repair
    /// rounds run, every *surviving* key has exactly
    /// `min(replication, alive peers)` live copies — repair refills
    /// under-replicated keys, recovery pulls rebuild dead owners'
    /// slices, and hand-offs retire every copy off its holder's keep
    /// arc. With `congested`, open-loop Zipf traffic overloads short
    /// service queues while churn runs, so full queues drop messages,
    /// repair rungs among them; a dropped rung is re-requested by a later
    /// round, and the traffic stops with the churn. The whole run
    /// (census included) is bit-identical at any worker-thread count.
    #[test]
    fn repair_quiesces_to_exact_replication(
        seed in any::<u64>(),
        replication in 2usize..4,
        dist_choice in 0u8..2,
        congested in any::<bool>(),
    ) {
        let (congestion, traffic) = if congested {
            let congestion = CongestionConfig {
                service_secs_per_msg: 30e-3,
                queue_cap: 4,
                link_rate: 500.0,
                link_burst: 16.0,
            };
            let cache = CacheConfig {
                capacity: 16,
                ttl: SimTime::from_secs(20),
            };
            let traffic = TrafficConfig {
                rate: 300.0,
                zipf_s: 1.0,
                hot_keys: 64,
                gateways: 8,
                cache: Some(cache),
            };
            (congestion, traffic)
        } else {
            (CongestionConfig::NONE, TrafficConfig::NONE)
        };
        let run = |parallelism: usize| {
            let cfg = SimConfig {
                seed,
                initial_n: 64,
                parallelism,
                churn: ChurnConfig::symmetric(2.0),
                workload: WorkloadConfig { lookup_rate: 2.0 },
                storage: StorageConfig {
                    preload: 150,
                    replication,
                    repair_interval: Some(SimTime::from_secs(4)),
                    ..StorageConfig::NONE
                },
                stabilize_interval: Some(SimTime::from_secs(3)),
                refresh_interval: Some(SimTime::from_secs(20)),
                congestion,
                traffic,
                ..SimConfig::default()
            };
            let mut sim = Simulator::new(cfg, dist_for(dist_choice));
            sim.run_until(SimTime::from_secs(40));
            sim.set_churn(ChurnConfig::NONE);
            sim.set_traffic_rate(0.0);
            // Quiesce: stabilization converges, hand-offs are released,
            // rounds refill until digests all match.
            sim.run_until(SimTime::from_secs(160));
            let m = sim.metrics();
            (
                sim.durability_census(parallelism),
                m.keys_lost,
                m.keys_under_replicated,
                m.repair_messages,
                m.repair_bytes,
                m.stored_bytes,
                sim.shards().len(),
                m.msgs_dropped_overload,
            )
        };
        let one = run(1);
        let census = one.0;
        prop_assert_eq!(census.target, replication.min(64));
        prop_assert_eq!(census.under_replicated, 0, "census {:?}", census);
        prop_assert_eq!(census.over_replicated, 0, "census {:?}", census);
        prop_assert_eq!(census.fully_replicated, census.keys);
        prop_assert_eq!(one.2, 0, "under-replication gauge must drain");
        prop_assert!(one.3 > 0, "repair rounds must have exchanged messages");
        prop_assert_eq!(one.7 > 0, congested, "only full queues drop");
        // Determinism at any worker-thread count.
        for threads in [2usize, 4] {
            prop_assert_eq!(run(threads), one, "threads={}", threads);
        }
    }

    /// Without churn, lookups never fail and never time out, regardless
    /// of maintenance configuration.
    #[test]
    fn static_network_is_perfect(seed in any::<u64>(), maintenance in any::<bool>()) {
        let cfg = SimConfig {
            seed,
            initial_n: 64,
            stabilize_interval: maintenance.then(|| SimTime::from_secs(5)),
            refresh_interval: maintenance.then(|| SimTime::from_secs(15)),
            workload: WorkloadConfig { lookup_rate: 10.0 },
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(cfg, Arc::new(Uniform));
        sim.run_until(SimTime::from_secs(30));
        let m = sim.metrics();
        prop_assert!(m.lookups > 0);
        prop_assert_eq!(m.lookups_ok, m.lookups);
        prop_assert_eq!(m.timeouts, 0);
    }
}
