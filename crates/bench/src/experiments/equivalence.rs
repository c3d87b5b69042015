//! E9 — the Figure 1/Figure 2 equivalence: building `G` directly in the
//! skewed space `R` equals building `G′` in the normalized space `R′`
//! and transporting its links back through `F⁻¹`.

use super::Density;
use crate::ctx::Ctx;
use crate::table::{f3, pm, Table};
use std::sync::Arc;
use sw_core::config::SmallWorldConfig;
use sw_core::partition::PartitionSurvey;
use sw_core::{SmallWorldBuilder, SmallWorldNetwork};
use sw_keyspace::distribution::{KeyDistribution, Kumaraswamy, TruncatedPareto};
use sw_keyspace::{Key, Rng};
use sw_overlay::Placement;

/// E9 — statistical equivalence of the direct and normalized
/// constructions.
pub fn e9_normalization_equivalence(ctx: &Ctx) {
    let n = ctx.n(2048);
    let queries = ctx.queries(1200);
    let mut table = Table::new(
        format!("E9: Figures 1–2 — direct G in R vs transported G' from R' (N = {n})"),
        &[
            "distribution",
            "variant",
            "hops",
            "P_next",
            "mean log10(link mass)",
        ],
    );
    let densities: [Density; 2] = [
        || Box::new(Kumaraswamy::new(0.5, 0.5).expect("valid")),
        || Box::new(TruncatedPareto::new(1.5, 0.01).expect("valid")),
    ];
    for density in densities {
        let dist: Arc<dyn KeyDistribution> = Arc::from(density());
        let name = dist.name();
        let mut rng = Rng::new(ctx.seed ^ 9);
        // Shared skewed placement in R.
        let placement =
            Placement::sample(n, dist.as_ref(), sw_keyspace::Topology::Interval, &mut rng);

        // (a) Direct: Model 2 in R.
        let direct = SmallWorldBuilder::new(n)
            .distribution(density())
            .build_on(placement.clone(), &mut rng)
            .expect("n >= 4");

        // (b) Normalized: map keys through F, build Model 1 in R', and
        // transport the links back to the same peers in R.
        let mapped: Vec<Key> = placement
            .keys()
            .iter()
            .map(|k| Key::clamped(dist.cdf(k.get())))
            .collect();
        let normalized =
            Placement::from_keys(mapped, sw_keyspace::Topology::Interval, "normalized")
                .expect("CDF is strictly monotone on the support");
        let g_prime = SmallWorldBuilder::new(n)
            .build_on(normalized, &mut rng)
            .expect("n >= 4");
        let transported_links: Vec<Vec<u32>> = (0..n as u32)
            .map(|u| g_prime.long_links(u).to_vec())
            .collect();
        let transported = SmallWorldNetwork::with_links(
            placement,
            dist.clone(),
            SmallWorldConfig::default(),
            transported_links,
            format!("sw-transported({name})"),
        );

        for (variant, net) in [
            ("direct in R", &direct),
            ("transported from R'", &transported),
        ] {
            let survey = net.routing_survey(queries, &mut rng);
            assert!(survey.success_rate() > 0.999);
            let parts = PartitionSurvey::run(net, queries / 2, &mut rng);
            // Link-mass distribution: mean log10 of the normalized mass.
            let mut log_mass_sum = 0.0;
            let mut links = 0usize;
            for u in 0..n as u32 {
                for &v in net.long_links(u) {
                    log_mass_sum += net.mass_between(u, v).max(1e-12).log10();
                    links += 1;
                }
            }
            table.row(vec![
                name.clone(),
                variant.to_string(),
                pm(survey.hops.mean(), survey.hops.ci95()),
                f3(parts.pnext_overall()),
                f3(log_mass_sum / links.max(1) as f64),
            ]);
        }
    }
    table.print();
    ctx.write_csv(&table, "e9_normalization_equivalence.csv");
}
