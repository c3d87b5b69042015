//! E19 — the two routing modes: recursive hand-off vs requester-driven
//! iterative lookups (with failover), swept over churn rate for uniform
//! and Pareto key densities.
//! The full profile writes its rows — functions of the seed alone — as
//! `BENCH_routing.json` (repo root) alongside the table and CSV.

use crate::ctx::Ctx;
use crate::table::{f2, f3, Table};
use std::sync::Arc;
use sw_keyspace::distribution::{KeyDistribution, TruncatedPareto, Uniform};
use sw_keyspace::stats::quantile_sorted;
use sw_sim::{ChurnConfig, RoutingMode, SimConfig, SimTime, Simulator, WorkloadConfig};

struct RoutingRow {
    id: String,
    lookups: u64,
    ok_rate: f64,
    stranded_failed_rate: f64,
    stranded: u64,
    failed_over: u64,
    exhausted: u64,
    hops_mean: f64,
    p50_ms: f64,
    p99_ms: f64,
    hop_rtt_ms: f64,
}

/// E19 — the robustness/latency trade-off of the forwarding strategy.
/// Ring stabilization is off so successor views go stale and the
/// routing mode itself must absorb the churn (maintenance is the
/// orthogonal axis E14 already sweeps); long-link refresh stays on.
/// Recursive hand-off strands a query whenever its carrier dies and has
/// no failover; iterative lookups survive carrier deaths (only the
/// requester's death strands them) and fail over down the requester's
/// candidate pool, paying a full RTT per hop.
pub fn e19_routing_modes(ctx: &Ctx) {
    let n = ctx.n(512);
    let horizon_secs = if ctx.quick { 45 } else { 120 };
    let mut table = Table::new(
        format!("E19: routing modes under churn (initial N = {n}, {horizon_secs}s, no ring stabilization)"),
        &[
            "distribution",
            "churn (ev/s)",
            "mode",
            "lookups",
            "ok",
            "strand+fail",
            "stranded",
            "f-over",
            "exhausted",
            "hops",
            "p50 (ms)",
            "p99 (ms)",
            "hop rtt (ms)",
        ],
    );
    let dists: Vec<(&str, Arc<dyn KeyDistribution>)> = vec![
        ("uniform", Arc::new(Uniform)),
        (
            "pareto(1.5,0.01)",
            Arc::new(TruncatedPareto::new(1.5, 0.01).expect("valid")),
        ),
    ];
    let mut rows: Vec<RoutingRow> = Vec::new();
    for (dname, dist) in &dists {
        for &churn in &[0.0f64, 4.0, 8.0] {
            for mode in RoutingMode::ALL {
                let cfg = SimConfig {
                    seed: ctx.seed ^ 19 ^ churn.to_bits(),
                    initial_n: n,
                    churn: ChurnConfig::symmetric(churn),
                    workload: WorkloadConfig { lookup_rate: 30.0 },
                    routing_mode: mode,
                    record_lookups: true,
                    stabilize_interval: None,
                    refresh_interval: Some(SimTime::from_secs(30)),
                    ..SimConfig::default()
                };
                let mut sim = Simulator::new(cfg, dist.clone());
                sim.run_until(SimTime::from_secs(horizon_secs));
                let m = sim.metrics();
                let mut lat: Vec<f64> = sim
                    .lookup_records()
                    .iter()
                    .filter(|r| r.success)
                    .map(|r| r.latency.as_secs_f64())
                    .collect();
                lat.sort_by(f64::total_cmp);
                let (p50, p99) = if lat.is_empty() {
                    (0.0, 0.0)
                } else {
                    (quantile_sorted(&lat, 0.5), quantile_sorted(&lat, 0.99))
                };
                let row = RoutingRow {
                    id: format!("routing/{dname}/churn{churn:.0}/{}", mode.name()),
                    lookups: m.lookups,
                    ok_rate: m.success_rate(),
                    stranded_failed_rate: m.stranded_or_failed_rate(),
                    stranded: m.lookups_stranded,
                    failed_over: m.lookups_failed_over,
                    exhausted: m.lookups_exhausted,
                    hops_mean: m.hops.mean(),
                    p50_ms: p50 * 1e3,
                    p99_ms: p99 * 1e3,
                    hop_rtt_ms: m.hop_rtt.mean() * 1e3,
                };
                table.row(vec![
                    dname.to_string(),
                    format!("{churn:.0}"),
                    mode.name().to_string(),
                    row.lookups.to_string(),
                    f3(row.ok_rate),
                    f3(row.stranded_failed_rate),
                    row.stranded.to_string(),
                    row.failed_over.to_string(),
                    row.exhausted.to_string(),
                    f2(row.hops_mean),
                    f2(row.p50_ms),
                    f2(row.p99_ms),
                    f2(row.hop_rtt_ms),
                ]);
                rows.push(row);
            }
        }
    }
    table.print();
    ctx.write_csv(&table, "e19_routing_modes.csv");
    write_snapshot(ctx, &rows);
    println!(
        "  expected shape: at churn 0 both modes deliver 100% with identical hop \
         counts, and iterative p50/p99 sits one RTT-per-hop above recursive (the \
         price of requester-driven hops); under churn, iterative's stranded+failed \
         rate drops strictly below recursive at the same churn level and seed \
         (carrier deaths cannot kill the query and the requester fails over past \
         dead frontiers)"
    );
}

/// Hand-rolled JSON rows (the workspace builds offline — no serde).
/// Latency quantiles are simulator-clock time, hence the `sim_secs` unit
/// stamp.
fn write_snapshot(ctx: &Ctx, rows: &[RoutingRow]) {
    let rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"id\": \"{}\", \"lookups\": {}, \"ok_rate\": {:.4}, \
                 \"stranded_failed_rate\": {:.4}, \"stranded\": {}, \"failed_over\": {}, \
                 \"exhausted\": {}, \"hops_mean\": {:.4}, \
                 \"p50_ms\": {:.4}, \"p99_ms\": {:.4}, \"hop_rtt_ms\": {:.4}, \
                 \"unit\": \"sim_secs\"}}",
                r.id,
                r.lookups,
                r.ok_rate,
                r.stranded_failed_rate,
                r.stranded,
                r.failed_over,
                r.exhausted,
                r.hops_mean,
                r.p50_ms,
                r.p99_ms,
                r.hop_rtt_ms,
            )
        })
        .collect();
    ctx.write_snapshot("BENCH_routing.json", &rows);
}
