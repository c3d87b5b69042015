//! E8 — the §4 load-balancing assumption, exercised end-to-end.

use crate::ctx::Ctx;
use crate::table::{f2, f3, Table};
use sw_balance::corpus::Corpus;
use sw_balance::ownership::{query_loads, storage_loads, BalanceReport};
use sw_balance::rebalance::{place_peers, rebalance_until_stable, PeerPlacement};
use sw_keyspace::distribution::{TruncatedPareto, Uniform};
use sw_keyspace::{Rng, Topology};

/// E8 — storage and query balance for three peer-placement strategies
/// over skewed (and, for reference, uniform) corpora.
pub fn e8_load_balance(ctx: &Ctx) {
    let n_peers = ctx.n(1024);
    let n_items = ctx.n(100_000).max(10_000);
    let mut table = Table::new(
        format!("E8: §4 assumption — load balance ({n_peers} peers, {n_items} items)"),
        &[
            "corpus",
            "strategy",
            "storage gini",
            "max/mean",
            "empty peers",
            "query gini",
            "rounds",
        ],
    );
    let corpora: Vec<(&str, Box<dyn sw_keyspace::distribution::KeyDistribution>)> = vec![
        ("uniform", Box::new(Uniform)),
        (
            "pareto(1.5,0.005)",
            Box::new(TruncatedPareto::new(1.5, 0.005).expect("valid")),
        ),
    ];
    for (corpus_name, dist) in corpora {
        let mut rng = Rng::new(ctx.seed ^ 8);
        // Spatially correlated query heat (a hot key range around 0.25)
        // so that query-adaptive placement has something to adapt to.
        let hot_range =
            sw_keyspace::distribution::TruncatedNormal::new(0.25, 0.05).expect("valid params");
        let corpus =
            Corpus::generate(n_items, dist.as_ref(), &mut rng).with_query_profile(&hot_range);
        for strategy in [
            "uniform-hash",
            "sample-data",
            "sample-queries",
            "uniform-hash+rebalance",
        ] {
            let mut rng = Rng::new(ctx.seed ^ 0x88);
            let (mut placement, rounds) = match strategy {
                "uniform-hash" => (
                    place_peers(
                        n_peers,
                        &corpus,
                        PeerPlacement::UniformHash,
                        Topology::Ring,
                        &mut rng,
                    ),
                    0,
                ),
                "sample-data" => (
                    place_peers(
                        n_peers,
                        &corpus,
                        PeerPlacement::SampleData,
                        Topology::Ring,
                        &mut rng,
                    ),
                    0,
                ),
                "sample-queries" => (
                    place_peers(
                        n_peers,
                        &corpus,
                        PeerPlacement::SampleQueries,
                        Topology::Ring,
                        &mut rng,
                    ),
                    0,
                ),
                _ => {
                    let mut p = place_peers(
                        n_peers,
                        &corpus,
                        PeerPlacement::UniformHash,
                        Topology::Ring,
                        &mut rng,
                    );
                    let rounds = rebalance_until_stable(&mut p, &corpus, 1.5, 400);
                    (p, rounds)
                }
            };
            let storage = BalanceReport::from_loads(&storage_loads(&placement, &corpus));
            let query = BalanceReport::from_loads(&query_loads(&placement, &corpus));
            table.row(vec![
                corpus_name.to_string(),
                strategy.to_string(),
                f3(storage.gini),
                f2(storage.max_over_mean),
                format!("{:.1}%", storage.empty_fraction * 100.0),
                f3(query.gini),
                rounds.to_string(),
            ]);
            let _ = &mut placement;
        }
    }
    table.print();
    ctx.write_csv(&table, "e8_load_balance.csv");
}
