//! E3, E4, E15 — Theorem 2 and the skewed-key-space comparisons.

use crate::ctx::Ctx;
use crate::table::{f2, f3, pm, Table};
use sw_core::routing::DistanceMode;
use sw_core::{theory, SmallWorldBuilder};
use sw_graph::NodeId;
use sw_keyspace::distribution::{standard_suite, TruncatedPareto, Uniform};
use sw_keyspace::stats::OnlineStats;
use sw_keyspace::{Rng, Topology};
use sw_overlay::chord::{Chord, RandomizedChord};
use sw_overlay::mercury::Mercury;
use sw_overlay::pastry::PastryLike;
use sw_overlay::pgrid::{PGridLike, SplitPolicy};
use sw_overlay::route::{RouteOptions, RoutingSurvey, TargetModel};
use sw_overlay::symphony::Symphony;
use sw_overlay::{Overlay, Placement};

/// E3 — Theorem 2: mean hops across seven differently shaped key
/// densities, at two network sizes. The claim: the curves coincide with
/// the uniform baseline, independent of skew.
pub fn e3_skew_invariance(ctx: &Ctx) {
    let queries = ctx.queries(1500);
    let mut table = Table::new(
        "E3: Theorem 2 — greedy hops by key distribution (Model 2, exact sampler)",
        &["distribution", "N", "hops", "success", "paper bound"],
    );
    for &full_n in &[1024usize, 4096] {
        let n = ctx.n(full_n);
        for dist in standard_suite() {
            let name = dist.name();
            let mut rng = Rng::new(ctx.seed ^ 3 ^ n as u64);
            let net = SmallWorldBuilder::new(n)
                .distribution(dist)
                .build(&mut rng)
                .expect("n >= 4");
            let s = net.routing_survey(queries, &mut rng);
            table.row(vec![
                name,
                n.to_string(),
                pm(s.hops.mean(), s.hops.ci95()),
                f3(s.success_rate()),
                f2(theory::expected_hops_upper_bound(n)),
            ]);
        }
    }
    table.print();
    ctx.write_csv(&table, "e3_skew_invariance.csv");
    println!("  expected shape: per-N hop means agree across all seven rows (within CI)");
}

/// E4 — the motivating comparison: how each system handles increasing
/// skew over the *same* peer placements.
pub fn e4_system_comparison(ctx: &Ctx) {
    let n = ctx.n(2048);
    let queries = ctx.queries(1000);
    let k = theory::partition_count(n);
    let skews: Vec<(String, Box<dyn sw_keyspace::distribution::KeyDistribution>)> = vec![
        ("uniform".into(), Box::new(Uniform)),
        (
            "pareto x0=0.1".into(),
            Box::new(TruncatedPareto::new(1.5, 0.1).expect("valid")),
        ),
        (
            "pareto x0=0.01".into(),
            Box::new(TruncatedPareto::new(1.5, 0.01).expect("valid")),
        ),
        (
            "pareto x0=0.001".into(),
            Box::new(TruncatedPareto::new(1.5, 0.001).expect("valid")),
        ),
    ];
    let mut table = Table::new(
        format!("E4: hops under increasing skew (N = {n}, member lookups; '!' = success < 100%)"),
        &[
            "system",
            "uniform",
            "pareto x0=0.1",
            "pareto x0=0.01",
            "pareto x0=0.001",
        ],
    );
    // One placement per skew, shared by all systems.
    let placements: Vec<Placement> = skews
        .iter()
        .enumerate()
        .map(|(i, (_, d))| {
            let mut rng = Rng::new(ctx.seed ^ 4 ^ i as u64);
            Placement::sample(n, d.as_ref(), Topology::Ring, &mut rng)
        })
        .collect();

    let mut rows: Vec<(String, Vec<String>)> = Vec::new();
    let survey = |o: &dyn Overlay, rng: &mut Rng| -> String {
        let s = RoutingSurvey::run(o, queries, TargetModel::MemberKeys, rng);
        if s.success_rate() > 0.999 {
            f2(s.hops.mean())
        } else {
            format!("{}!{:.0}%", f2(s.hops.mean()), s.success_rate() * 100.0)
        }
    };

    let mut model2 = Vec::new();
    let mut naive = Vec::new();
    let mut symphony = Vec::new();
    let mut mercury = Vec::new();
    let mut chord = Vec::new();
    let mut rchord = Vec::new();
    let mut pastry = Vec::new();
    let mut pgrid_mid = Vec::new();
    let mut pgrid_med = Vec::new();
    for (i, (_, dist)) in skews.iter().enumerate() {
        let p = &placements[i];
        let mut rng = Rng::new(ctx.seed ^ 0x40 ^ i as u64);
        let m2 = SmallWorldBuilder::new(n)
            .topology(Topology::Ring)
            .distribution(dist_box(dist.as_ref()))
            .build_on(p.clone(), &mut rng)
            .expect("n >= 4");
        model2.push(survey(&m2, &mut rng));
        let nv = SmallWorldBuilder::new(n)
            .topology(Topology::Ring)
            .distribution(dist_box(dist.as_ref()))
            .assumed(Box::new(Uniform))
            .build_on(p.clone(), &mut rng)
            .expect("n >= 4");
        naive.push(survey(&nv, &mut rng));
        symphony.push(survey(
            &Symphony::build(p.clone(), k, true, &mut rng),
            &mut rng,
        ));
        mercury.push(survey(
            &Mercury::build(p.clone(), k, 256, &mut rng),
            &mut rng,
        ));
        chord.push(survey(&Chord::build(p.clone()), &mut rng));
        rchord.push(survey(
            &RandomizedChord::build(p.clone(), &mut rng),
            &mut rng,
        ));
        pastry.push(survey(
            &PastryLike::build(p.clone(), 2, 2, &mut rng),
            &mut rng,
        ));
        pgrid_mid.push(survey(
            &PGridLike::build(p.clone(), SplitPolicy::Midpoint, 1, &mut rng),
            &mut rng,
        ));
        pgrid_med.push(survey(
            &PGridLike::build(p.clone(), SplitPolicy::Median, 1, &mut rng),
            &mut rng,
        ));
    }
    rows.push(("model-2 (paper)".into(), model2));
    rows.push(("naive Kleinberg".into(), naive));
    rows.push((format!("symphony k={k}"), symphony));
    rows.push((format!("mercury k={k},s=256"), mercury));
    rows.push(("chord".into(), chord));
    rows.push(("randomized chord".into(), rchord));
    rows.push(("pastry b=2".into(), pastry));
    rows.push(("p-grid midpoint".into(), pgrid_mid));
    rows.push(("p-grid median".into(), pgrid_med));
    for (name, cells) in rows {
        let mut row = vec![name];
        row.extend(cells);
        table.row(row);
    }
    table.print();
    ctx.write_csv(&table, "e4_system_comparison.csv");
    println!(
        "  expected shape: model-2 / mercury / p-grid stay flat across columns; \
         naive Kleinberg and symphony degrade with skew; chord/pastry inflate moderately"
    );
}

fn dist_box(
    d: &dyn sw_keyspace::distribution::KeyDistribution,
) -> Box<dyn sw_keyspace::distribution::KeyDistribution> {
    // The distributions used in E4 are cheap to reconstruct by name.
    if d.name() == "uniform" {
        Box::new(Uniform)
    } else {
        // pareto(alpha,x0)
        let name = d.name();
        let args: Vec<f64> = name
            .trim_start_matches("pareto(")
            .trim_end_matches(')')
            .split(',')
            .filter_map(|s| s.parse().ok())
            .collect();
        Box::new(TruncatedPareto::new(args[0], args[1]).expect("valid params"))
    }
}

/// E15 — ablation: greedy in raw key space vs in the normalized mass
/// space, on the same networks (the metric choice Theorem 2's proof
/// routes with vs what a peer can compute locally).
pub fn e15_routing_metric(ctx: &Ctx) {
    let n = ctx.n(2048);
    let queries = ctx.queries(1500);
    let mut table = Table::new(
        format!("E15: greedy metric ablation (N = {n}, Model 2 networks)"),
        &["distribution", "key-space hops", "mass-space hops", "Δ%"],
    );
    for dist in standard_suite() {
        let name = dist.name();
        let mut rng = Rng::new(ctx.seed ^ 15);
        let net = SmallWorldBuilder::new(n)
            .distribution(dist)
            .build(&mut rng)
            .expect("n >= 4");
        let opts = RouteOptions {
            record_path: false,
            ..RouteOptions::for_n(n)
        };
        let mut key_hops = OnlineStats::new();
        let mut mass_hops = OnlineStats::new();
        for _ in 0..queries {
            let from = rng.index(n) as NodeId;
            let to = rng.index(n) as NodeId;
            let t = net.placement().key(to);
            let a = net.route_with_mode(from, t, DistanceMode::KeySpace, &opts);
            let b = net.route_with_mode(from, t, DistanceMode::MassSpace, &opts);
            if a.success {
                key_hops.push(a.hops as f64);
            }
            if b.success {
                mass_hops.push(b.hops as f64);
            }
        }
        let delta = (key_hops.mean() - mass_hops.mean()) / mass_hops.mean() * 100.0;
        table.row(vec![
            name,
            pm(key_hops.mean(), key_hops.ci95()),
            pm(mass_hops.mean(), mass_hops.ci95()),
            format!("{delta:+.1}%"),
        ]);
    }
    table.print();
    ctx.write_csv(&table, "e15_routing_metric.csv");
    println!(
        "  expected shape: small positive Δ — key-space greedy pays a little for \
         not knowing f, but stays logarithmic (the links, not the metric, carry Theorem 2)"
    );
}
