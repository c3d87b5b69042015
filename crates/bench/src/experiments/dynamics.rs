//! E10, E11, E14 — the dynamic setting: joins, local estimation, churn.

use super::Density;
use crate::ctx::Ctx;
use crate::table::{f2, f3, pm, Table};
use std::sync::Arc;
use sw_core::config::{LinkSampler, SmallWorldConfig};
use sw_core::estimate::{refine_links_round, Estimator};
use sw_core::{SmallWorldBuilder, SmallWorldNetwork};
use sw_keyspace::distribution::{KeyDistribution, TruncatedPareto, Uniform};
use sw_keyspace::stats::ks_statistic;
use sw_keyspace::{Rng, Topology};
use sw_overlay::{Overlay, Placement};
use sw_sim::{ChurnConfig, SimConfig, SimTime, Simulator, WorkloadConfig};

/// E10 — §4.2 join protocol on the engine: networks grown join by join
/// from 8 peers, against the oracle batch construction over the same
/// keys, and the message cost per join. Each cell runs two growths on
/// one seed: refresh off gives the "grown" column and msgs/join, and
/// refresh every 30 s, read one refresh interval after the last join,
/// gives "after refresh", the oracle over its placement and the KS
/// distance between their hop samples (α = 0.001 critical value
/// beside it). N is the population the refreshed run reached.
pub fn e10_join_protocol(ctx: &Ctx) {
    let mut table = Table::new(
        "E10: §4.2 join protocol — engine-grown vs oracle-built networks (ring)",
        &[
            "distribution",
            "N",
            "msgs/join",
            "grown hops",
            "after refresh",
            "oracle hops",
            "KS D",
            "critical",
        ],
    );
    let dists: [(&str, Density); 2] = [
        ("uniform", || Box::new(Uniform)),
        ("pareto(1.5,0.01)", || {
            Box::new(TruncatedPareto::new(1.5, 0.01).expect("valid"))
        }),
    ];
    for (name, dist) in dists {
        for &full_n in &[256usize, 1024, 4096] {
            let n = ctx.n(full_n);
            let seed = ctx.seed ^ 10 ^ n as u64;
            let (grown, msgs_per_join) = grow_on_engine(seed, n, dist().into(), None);
            let refresh = Some(SimTime::from_secs(30));
            let (refreshed, _) = grow_on_engine(seed, n, dist().into(), refresh);
            let mut rng = Rng::new(seed);
            let oracle = SmallWorldBuilder::new(refreshed.len())
                .topology(Topology::Ring)
                .distribution(dist())
                .sampler(LinkSampler::Harmonic)
                .build_on(refreshed.placement().clone(), &mut rng)
                .expect("n >= 4");
            let [s_grown, s_refreshed, s_oracle] =
                [&grown, &refreshed, &oracle].map(|net| net.routing_survey(net.len(), &mut rng));
            let (m, k) = (
                s_refreshed.hop_samples.len() as f64,
                s_oracle.hop_samples.len() as f64,
            );
            table.row(vec![
                name.to_string(),
                refreshed.len().to_string(),
                f2(msgs_per_join),
                pm(s_grown.hops.mean(), s_grown.hops.ci95()),
                pm(s_refreshed.hops.mean(), s_refreshed.hops.ci95()),
                pm(s_oracle.hops.mean(), s_oracle.hops.ci95()),
                f3(ks_statistic(
                    &s_refreshed.hop_samples,
                    &s_oracle.hop_samples,
                )),
                f3(1.95 * ((m + k) / (m * k)).sqrt()),
            ]);
        }
    }
    table.print();
    ctx.write_csv(&table, "e10_join_protocol.csv");
}

/// Grows a network on the engine by the §4.2 protocol: 8 converged
/// peers, then joins at 20/s with no failures and no lookups, ring
/// stabilization every 10 s and long-link refresh every `refresh`,
/// until `n` peers are alive. Churn then stops, and the run goes on for
/// one stabilization interval plus one `refresh` so the last joins'
/// link probes (and a refresh round) land. Returns the live overlay
/// under the builder's ring contact rule, and join messages per join.
fn grow_on_engine(
    seed: u64,
    n: usize,
    dist: Arc<dyn KeyDistribution>,
    refresh: Option<SimTime>,
) -> (SmallWorldNetwork, f64) {
    let cfg = SimConfig {
        seed,
        initial_n: 8,
        churn: ChurnConfig {
            join_rate: 20.0,
            fail_rate: 0.0,
        },
        workload: WorkloadConfig { lookup_rate: 0.0 },
        stabilize_interval: Some(SimTime::from_secs(10)),
        refresh_interval: refresh,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(cfg, dist.clone());
    let mut now = SimTime::ZERO;
    while sim.alive_count() < n {
        now += SimTime::from_secs(1);
        sim.run_until(now);
    }
    sim.set_churn(ChurnConfig::NONE);
    sim.run_until(now + SimTime::from_secs(10) + refresh.unwrap_or(SimTime::ZERO));
    let m = sim.metrics();
    let msgs_per_join = m.join_messages as f64 / m.joins as f64;
    let (keys, links) = sim.live_overlay();
    let placement =
        Placement::from_keys(keys, Topology::Ring, dist.name()).expect("live keys are distinct");
    let rows = (0..links.len() as u32)
        .map(|u| links.neighbors(u).to_vec())
        .collect();
    let config = SmallWorldConfig {
        topology: Topology::Ring,
        ..SmallWorldConfig::default()
    };
    let label = format!("sw-grown({})", dist.name());
    let net = SmallWorldNetwork::with_links(placement, dist, config, rows, label);
    (net, msgs_per_join)
}

/// E11 — §4.2 estimation: routing cost vs local sample budget and
/// refinement rounds, starting from the naive (uniform-assuming) graph.
pub fn e11_estimation(ctx: &Ctx) {
    let n = ctx.n(2048);
    let queries = ctx.queries(1000);
    let skew = || TruncatedPareto::new(1.5, 0.005).expect("valid");
    let mut rng = Rng::new(ctx.seed ^ 11);
    let naive = SmallWorldBuilder::new(n)
        .distribution(Box::new(skew()))
        .assumed(Box::new(Uniform))
        .sampler(LinkSampler::Harmonic)
        .build(&mut rng)
        .expect("n >= 4");
    let oracle = SmallWorldBuilder::new(n)
        .distribution(Box::new(skew()))
        .sampler(LinkSampler::Harmonic)
        .build_on(naive.placement().clone(), &mut rng)
        .expect("n >= 4");

    let mut table = Table::new(
        format!("E11: §4.2 local estimation of f (N = {n}, pareto(1.5,0.005))"),
        &["configuration", "hops", "success"],
    );
    let survey = |net: &sw_core::SmallWorldNetwork, rng: &mut Rng| {
        let s = net.routing_survey(queries, rng);
        (pm(s.hops.mean(), s.hops.ci95()), f3(s.success_rate()))
    };
    let (h, s) = survey(&naive, &mut rng);
    table.row(vec!["naive (assume uniform)".into(), h, s]);
    // Estimator ablation: fixed-bin histograms have uniform resolution in
    // *key* space, so a hotspot narrower than one bin stays unresolved no
    // matter the sample budget; the interpolated ECDF is uniform in
    // *mass* and keeps improving with samples.
    for budget in [8usize, 32, 128, 512] {
        for (est_name, est) in [
            ("histogram-32", Estimator::Histogram { bins: 32 }),
            ("ecdf", Estimator::Ecdf),
        ] {
            let mut net = naive.clone();
            refine_links_round(&mut net, budget, 3, est, &mut rng);
            let (h, s) = survey(&net, &mut rng);
            table.row(vec![
                format!("1 round, {budget} samples/peer, {est_name}"),
                h,
                s,
            ]);
        }
    }
    for rounds in [2usize, 3] {
        let mut net = naive.clone();
        for _ in 0..rounds {
            refine_links_round(&mut net, 128, 3, Estimator::Ecdf, &mut rng);
        }
        let (h, s) = survey(&net, &mut rng);
        table.row(vec![
            format!("{rounds} rounds, 128 samples/peer, ecdf"),
            h,
            s,
        ]);
    }
    let (h, s) = survey(&oracle, &mut rng);
    table.row(vec!["oracle (true f)".into(), h, s]);
    table.print();
    ctx.write_csv(&table, "e11_estimation.csv");
}

/// E14 — lookups under churn, sweeping churn intensity × maintenance
/// policy.
pub fn e14_churn(ctx: &Ctx) {
    let n = ctx.n(1024);
    let horizon = if ctx.quick {
        SimTime::from_secs(120)
    } else {
        SimTime::from_secs(600)
    };
    let mut table = Table::new(
        format!(
            "E14: churn (initial N = {n}, {}s horizon, 20 lookups/s)",
            horizon.as_secs_f64()
        ),
        &[
            "churn (ev/s)",
            "maintenance",
            "success",
            "hops",
            "timeouts",
            "maint msgs",
            "final N",
        ],
    );
    for &rate in &[0.0f64, 1.0, 4.0, 16.0] {
        for policy in ["none", "stabilize", "stabilize+refresh"] {
            let (stab, refr) = match policy {
                "none" => (None, None),
                "stabilize" => (Some(SimTime::from_secs(10)), None),
                _ => (Some(SimTime::from_secs(10)), Some(SimTime::from_secs(30))),
            };
            let cfg = SimConfig {
                seed: ctx.seed ^ 14 ^ rate.to_bits(),
                initial_n: n,
                churn: ChurnConfig::symmetric(rate),
                workload: WorkloadConfig { lookup_rate: 20.0 },
                stabilize_interval: stab,
                refresh_interval: refr,
                ..SimConfig::default()
            };
            let mut sim = Simulator::new(cfg, Arc::new(Uniform));
            sim.run_until(horizon);
            let m = sim.metrics();
            table.row(vec![
                format!("{rate:.0}"),
                policy.to_string(),
                f3(m.success_rate()),
                f2(m.hops.mean()),
                m.timeouts.to_string(),
                m.maintenance_messages().to_string(),
                sim.alive_count().to_string(),
            ]);
        }
    }
    table.print();
    ctx.write_csv(&table, "e14_churn.csv");
}
