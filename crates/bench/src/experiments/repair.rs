//! E18 — message-driven replica repair: the durability / bandwidth
//! trade-off under churn, swept over `repair_interval × replication ×
//! churn rate` for uniform and Pareto key densities. The full profile
//! writes its rows — functions of the seed alone — as `BENCH_repair.json`
//! (repo root) alongside the table and CSV.

use crate::ctx::Ctx;
use crate::table::{f2, f3, Table};
use std::sync::Arc;
use sw_graph::par;
use sw_keyspace::distribution::{KeyDistribution, TruncatedPareto, Uniform};
use sw_sim::{ChurnConfig, SimConfig, SimTime, Simulator, StorageConfig, WorkloadConfig};

struct RepairRow {
    id: String,
    keys_lost: u64,
    under_peak: u64,
    under_end: u64,
    over_end: u64,
    repair_mb: f64,
    digest_mb: f64,
    handoff_mb: f64,
    overhead: f64,
    ttr_mean_secs: f64,
    get_ok: f64,
    ranges_ok: u64,
    ranges: u64,
    range_items: u64,
}

/// E18 — anti-entropy repair: each cell churns a replicated store for
/// the horizon, then stops churn and lets the repair plane quiesce.
/// With repair on, mid-interval failures under-replicate keys and the
/// protocol pays measurable transfer bytes to pull them back to target;
/// with repair off, the same churn permanently loses keys. The sweep
/// makes the durability/bandwidth trade-off a table. `over @stop`
/// counts the keys above the replication target at the instant churn
/// stops (a [`Simulator::durability_census`]): copies a holder still
/// keeps after it left an arc's chain. `digest MB` and `hand-off MB` are
/// the shares of `repair MB` sent as round digests and as hand-off
/// relays and releases; the rest is the diff → push → pull ladder and
/// read repair. The range columns
/// count the sweeps that finished served, all sweeps that finished, and
/// the items they gathered.
pub fn e18_repair(ctx: &Ctx) {
    let n = ctx.n(512);
    let (churn_secs, quiesce_secs) = if ctx.quick { (30, 45) } else { (120, 90) };
    let mut table = Table::new(
        format!(
            "E18: replica repair under churn (initial N = {n}, {churn_secs}s churn + \
             {quiesce_secs}s quiesce)"
        ),
        &[
            "distribution",
            "churn (ev/s)",
            "repair",
            "repl",
            "keys lost",
            "under peak",
            "under @end",
            "over @stop",
            "repair MB",
            "digest MB",
            "hand-off MB",
            "bytes/stored",
            "ttr mean (s)",
            "get ok",
            "ranges ok",
            "ranges",
            "range items",
        ],
    );
    let dists: Vec<(&str, Arc<dyn KeyDistribution>)> = vec![
        ("uniform", Arc::new(Uniform)),
        (
            "pareto(1.5,0.01)",
            Arc::new(TruncatedPareto::new(1.5, 0.01).expect("valid")),
        ),
    ];
    let repair_modes: [(&str, Option<SimTime>); 3] = [
        ("off", None),
        ("2s", Some(SimTime::from_secs(2))),
        ("10s", Some(SimTime::from_secs(10))),
    ];
    let mut cells = Vec::new();
    for (dname, dist) in &dists {
        for churn in [2.0f64, 8.0] {
            for (rname, repair) in repair_modes {
                for replication in [2usize, 3] {
                    cells.push((*dname, dist, churn, rname, repair, replication));
                }
            }
        }
    }
    // One worker per cell: every row is a function of its cell's seed,
    // and `par_map_grained` returns them in cell order.
    let rows = par::par_map_grained(cells.len(), cells.len(), 1, |i| {
        let (dname, dist, churn, rname, repair, replication) = cells[i];
        let cfg = SimConfig {
            seed: ctx.seed ^ 18 ^ churn.to_bits() ^ (replication as u64) << 32,
            initial_n: n,
            churn: ChurnConfig::symmetric(churn),
            workload: WorkloadConfig { lookup_rate: 5.0 },
            storage: StorageConfig {
                put_rate: 5.0,
                get_rate: 10.0,
                range_rate: 0.5,
                replication,
                preload: ctx.queries(2000),
                repair_interval: repair,
                ..StorageConfig::NONE
            },
            stabilize_interval: Some(SimTime::from_secs(5)),
            refresh_interval: Some(SimTime::from_secs(30)),
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(cfg, dist.clone());
        let mut under_peak = 0u64;
        for slice in 1..=(churn_secs / 5) {
            sim.run_until(SimTime::from_secs(slice * 5));
            under_peak = under_peak.max(sim.metrics().keys_under_replicated);
        }
        let over_end = sim.durability_census(1).over_replicated as u64;
        sim.set_churn(ChurnConfig::NONE);
        sim.run_until(SimTime::from_secs(churn_secs + quiesce_secs));
        let m = sim.metrics();
        RepairRow {
            id: format!("repair/{dname}/churn{churn:.0}/{rname}/r{replication}"),
            keys_lost: m.keys_lost,
            under_peak,
            under_end: m.keys_under_replicated,
            over_end,
            repair_mb: m.repair_bytes as f64 / 1e6,
            digest_mb: m.repair_digest_bytes as f64 / 1e6,
            handoff_mb: m.repair_handoff_bytes as f64 / 1e6,
            overhead: m.repair_overhead(),
            ttr_mean_secs: m.repair_time_secs.mean(),
            get_ok: m.get_success_rate(),
            ranges_ok: m.ranges_ok,
            ranges: m.ranges,
            range_items: m.range_items,
        }
    });
    for (&(dname, _, churn, rname, _, replication), row) in cells.iter().zip(&rows) {
        table.row(vec![
            dname.to_string(),
            format!("{churn:.0}"),
            rname.to_string(),
            replication.to_string(),
            row.keys_lost.to_string(),
            row.under_peak.to_string(),
            row.under_end.to_string(),
            row.over_end.to_string(),
            f2(row.repair_mb),
            f2(row.digest_mb),
            f2(row.handoff_mb),
            f3(row.overhead),
            f2(row.ttr_mean_secs),
            f3(row.get_ok),
            row.ranges_ok.to_string(),
            row.ranges.to_string(),
            row.range_items.to_string(),
        ]);
    }
    table.print();
    ctx.write_csv(&table, "e18_repair.csv");
    write_snapshot(ctx, &rows);
}

/// Hand-rolled JSON rows (the workspace builds offline — no serde).
/// `ttr_mean_secs` is simulator-clock time, hence the `sim_secs` unit
/// stamp.
fn write_snapshot(ctx: &Ctx, rows: &[RepairRow]) {
    let rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"id\": \"{}\", \"keys_lost\": {}, \"under_peak\": {}, \
                 \"under_end\": {}, \"over_end\": {}, \"repair_mb\": {:.4}, \"digest_mb\": {:.4}, \
                 \"handoff_mb\": {:.4}, \"overhead\": {:.6}, \
                 \"ttr_mean_secs\": {:.4}, \"get_ok\": {:.4}, \"ranges_ok\": {}, \
                 \"ranges\": {}, \"range_items\": {}, \"unit\": \"sim_secs\"}}",
                r.id,
                r.keys_lost,
                r.under_peak,
                r.under_end,
                r.over_end,
                r.repair_mb,
                r.digest_mb,
                r.handoff_mb,
                r.overhead,
                r.ttr_mean_secs,
                r.get_ok,
                r.ranges_ok,
                r.ranges,
                r.range_items,
            )
        })
        .collect();
    ctx.write_snapshot("BENCH_repair.json", &rows);
}
