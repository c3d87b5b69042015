//! E19 — the two routing modes: recursive hand-off vs requester-driven
//! iterative lookups (with failover), swept over churn rate for uniform
//! and Pareto key densities.
//! The full profile writes its rows — functions of the seed alone — as
//! `BENCH_routing.json` (repo root) alongside the table and CSV.
//!
//! # With maintenance on: why the iterative mode stays
//!
//! E19 runs with ring stabilization off. The same cells were rerun once
//! with E14's maintenance (stabilize 10 s, refresh 30 s), at churn
//! 0 / 4 / 8 / 16 events/s and seeds `seed ^ 19 ^ churn.to_bits() ^ (s
//! << 40)` for s = 0, 1, 2 (N = 512, 30 lookups/s, 120 s). Messages per
//! lookup count every message a lookup walk sent: one per recursive
//! hop, a query and a reply per iterative hop. Each cell gives the
//! range over the three seeds; the edge is iterative's `ok_rate` minus
//! recursive's, per seed.
//!
//! | keys | churn | ok recursive | ok iterative | edge (pp), s = 0 / 1 / 2 | p99 it / rec | msgs/lookup rec / it |
//! |---|---|---|---|---|---|---|
//! | uniform | 0 | 1.000 | 1.000 | 0 / 0 / 0 | 2.00–2.04× | 4.10–4.18 / 8.29–8.39 |
//! | uniform | 4 | 0.981–0.988 | 0.987–0.992 | +0.39 / +0.85 / +0.02 | 1.12–1.34× | 4.31–4.57 / 8.69–9.62 |
//! | uniform | 8 | 0.951–0.962 | 0.965–0.975 | +1.22 / +1.65 / +1.34 | 1.21–1.33× | 4.72–4.87 / 9.96–10.43 |
//! | uniform | 16 | 0.840–0.877 | 0.871–0.882 | +3.01 / +2.62 / +0.47 | 1.42–1.50× | 5.65–5.78 / 13.83–14.40 |
//! | pareto(1.5, 0.01) | 0 | 1.000 | 1.000 | 0 / 0 / 0 | 1.88–2.25× | 3.29–3.43 / 6.55–6.78 |
//! | pareto(1.5, 0.01) | 4 | 0.983–0.987 | 0.989–0.993 | +0.66 / +0.14 / +0.98 | 1.04–1.37× | 3.56–3.63 / 7.09–7.56 |
//! | pareto(1.5, 0.01) | 8 | 0.963–0.974 | 0.964–0.975 | −0.98 / +1.03 / +0.56 | 1.26–1.43× | 3.96–4.04 / 8.31–9.14 |
//! | pareto(1.5, 0.01) | 16 | 0.851–0.878 | 0.866–0.899 | +1.46 / −0.47 / +2.15 | 1.45–1.69× | 4.79–4.89 / 11.09–12.65 |
//!
//! Iterative's edge is at least one percentage point in most churn-8
//! and churn-16 cells, even with maintenance on. Its price is a p99 of
//! 1.0–1.7× recursive's under churn (≈ 2× with none) and 2.0–2.6× the
//! messages per lookup. The rule was to delete the mode only if the
//! edge stayed under one point at every maintained cell. It does not,
//! so the mode stays.

use crate::ctx::Ctx;
use crate::table::{f2, f3, Table};
use std::sync::Arc;
use sw_graph::par;
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
    let mut cells = Vec::new();
    for (dname, dist) in &dists {
        for churn in [0.0f64, 4.0, 8.0] {
            for mode in RoutingMode::ALL {
                cells.push((*dname, dist, churn, mode));
            }
        }
    }
    // One worker per cell: every row is a function of its cell's seed,
    // and `par_map_grained` returns them in cell order.
    let rows = par::par_map_grained(cells.len(), cells.len(), 1, |i| {
        let (dname, dist, churn, mode) = cells[i];
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
        RoutingRow {
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
        }
    });
    for (&(dname, _, churn, mode), row) in cells.iter().zip(&rows) {
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
    }
    table.print();
    ctx.write_csv(&table, "e19_routing_modes.csv");
    write_snapshot(ctx, &rows);
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
