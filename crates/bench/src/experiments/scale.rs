//! E20 — scaling the CSR substrate: construction throughput, reference
//! routing throughput, resident bytes/peer, and the freeze → reopen
//! path, swept over n × {uniform, Pareto}.
//!
//! This is the experiment behind the ROADMAP's ">10⁷ peers" open item:
//! the overlay is built once through the allocation-free arena pipeline
//! (`build_frozen` on unix — per-peer sampling with the harmonic rule
//! straight into write-through mappings of the destination files, so
//! `construct_secs` covers the whole pipeline and `freeze_secs` ≈ 0;
//! E21 compares this against the heap path), then routed with the
//! looped slice-based reference walk (timed), reopened through
//! `open_from` — the validated reopen, so `open_secs` includes the O(m)
//! structural scans (the committed 10⁷ rows predate that and timed a
//! scan-free reopen) — and routed again through `route_batch` — the
//! interleaved kernel over the arena — with the two result sequences
//! asserted bit-identical (E25 times that kernel).
//!
//! The full sweep, n ∈ {10⁵, 10⁶, 10⁷}, merges its rows by id into
//! `BENCH_scale.json` (so E21's `shard/*` rows persist) alongside the
//! table and CSV; the 10⁷ cell needs ~10 GB of RAM and,
//! single-threaded, tens of minutes. `--quick` (CI smoke) runs
//! {10⁴, 4·10⁴}.

use crate::ctx::{self, Ctx};
use crate::table::{f2, Table};
use std::sync::Arc;
use std::time::Instant;
use sw_core::config::LinkSampler;
use sw_core::{SmallWorldBuilder, SmallWorldNetwork};
use sw_keyspace::distribution::{KeyDistribution, TruncatedPareto, Uniform};
use sw_keyspace::Rng;
use sw_overlay::route::{route_batch, survey_queries, RouteOptions, TargetModel};
use sw_overlay::{Overlay, Placement};

/// Routes a [`SmallWorldNetwork`]'s contact table through the looped
/// *slice-based reference* walk (the `Overlay` defaults) even for
/// batches, which the network itself hands to the interleaved kernel.
struct ReferenceKernel<'a>(&'a SmallWorldNetwork);

impl Overlay for ReferenceKernel<'_> {
    fn name(&self) -> String {
        format!("{}+reference", self.0.name())
    }
    fn placement(&self) -> &Placement {
        self.0.placement()
    }
    fn topology(&self) -> &sw_graph::Topology {
        self.0.topology()
    }
    // No `route` / `route_chunk` override: the trait defaults loop
    // `greedy_route`'s walk, the slice-based reference engine.
}

struct ScaleRow {
    id: String,
    n: usize,
    construct_s: f64,
    peers_per_s: f64,
    routes_per_s_ref: f64,
    bytes_per_peer: f64,
    freeze_s: f64,
    open_s: f64,
    hops_mean: f64,
}

/// E20 — CSR substrate at scale (see module docs).
pub fn e20_scale(ctx: &Ctx) {
    let sizes: Vec<usize> = if ctx.quick {
        vec![10_000, 40_000]
    } else {
        vec![100_000, 1_000_000, 10_000_000]
    };
    let queries = ctx.queries(4096);
    let mut table = Table::new(
        format!("E20: CSR substrate at scale (harmonic sampler, {queries} member lookups/cell)"),
        &[
            "distribution",
            "n",
            "construct (s)",
            "peers/s",
            "routes/s (ref)",
            "bytes/peer",
            "freeze (s)",
            "open (s)",
            "hops",
        ],
    );
    // Constructors, not instances: the builder (a `Box`) and the reopen
    // path (an `Arc`) both draw from the same single definition, so the
    // parameters cannot diverge.
    type MakeDist = fn() -> Box<dyn KeyDistribution>;
    let dists: Vec<(&str, MakeDist)> = vec![
        ("uniform", || Box::new(Uniform)),
        ("pareto(1.5,0.01)", || {
            Box::new(TruncatedPareto::new(1.5, 0.01).expect("valid"))
        }),
    ];
    let mut rows: Vec<ScaleRow> = Vec::new();
    for &n in &sizes {
        for &(dname, make) in &dists {
            let row = run_cell(ctx, n, dname, make, queries);
            table.row(vec![
                dname.to_string(),
                row.n.to_string(),
                f2(row.construct_s),
                format!("{:.0}", row.peers_per_s),
                format!("{:.0}", row.routes_per_s_ref),
                format!("{:.1}", row.bytes_per_peer),
                f2(row.freeze_s),
                f2(row.open_s),
                f2(row.hops_mean),
            ]);
            rows.push(row);
        }
    }
    table.print();
    ctx.write_csv(&table, "e20_scale.csv");
    write_snapshot(ctx, &rows);
    println!(
        "  expected shape: construction peers/s decays slowly in n (per-peer \
         sampling is O(log n)); reference routes/s falls with n as the key \
         array and the rows spill out of cache; the reopened arena routes the \
         same hop sequences through the interleaved kernel (asserted); \
         bytes/peer ~8·(2 + avg degree) + lanes, growing with log n via the \
         out-degree; reopening a frozen overlay costs a read, not a \
         rebuild (open (s) ≪ construct (s))"
    );
}

/// One (n, distribution) cell: build straight into the arena (the
/// pipeline E21 dissects), route the reference, freeze, reopen
/// (validated), route again, verify bit-identity throughout.
fn run_cell(
    ctx: &Ctx,
    n: usize,
    dname: &str,
    make_dist: fn() -> Box<dyn KeyDistribution>,
    queries: usize,
) -> ScaleRow {
    println!("  [e20] {dname} n={n}: building…");
    let mut rng = Rng::new(ctx.seed ^ 20 ^ n as u64);
    let builder = SmallWorldBuilder::new(n)
        .distribution(make_dist())
        .sampler(LinkSampler::Harmonic)
        .parallelism(0);
    let dir = ctx::scratch_dir().join(format!(
        "sw-e20-{}-{n}",
        dname.replace(['(', ')', ','], "-")
    ));
    let t0 = Instant::now();
    // Write-through build: the arenas are assembled inside mappings of
    // the destination files, so construct_secs covers the whole pipeline
    // and the freeze column collapses to ~0 (there is nothing left to
    // copy when the build seals).
    #[cfg(all(unix, target_pointer_width = "64"))]
    let (build, construct_s, freeze_s) = {
        let b = builder.build_frozen(&mut rng, &dir).expect("n >= 4");
        (b, t0.elapsed().as_secs_f64(), 0.0)
    };
    #[cfg(not(all(unix, target_pointer_width = "64")))]
    let (build, construct_s, freeze_s) = {
        let b = builder.build_to_arena(&mut rng).expect("n >= 4");
        let construct_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        b.freeze_to(&dir).expect("freeze overlay");
        (b, construct_s, t0.elapsed().as_secs_f64())
    };
    let net = build.into_network();

    let workload = survey_queries(net.placement(), queries, TargetModel::MemberKeys, &mut rng);
    let opts = RouteOptions {
        record_path: false,
        ..RouteOptions::for_n(n)
    };

    // The slice-based reference over the heap CSR. The arena-backed
    // network materializes that CSR lazily — warm it here so the timing
    // below measures routing, not unpacking.
    let _ = net.topology();
    let t0 = Instant::now();
    let ref_results = route_batch(&ReferenceKernel(&net), &workload, &opts, 0);
    let ref_s = t0.elapsed().as_secs_f64();
    let hops_mean =
        ref_results.iter().map(|r| r.hops as f64).sum::<f64>() / ref_results.len().max(1) as f64;
    let bytes_per_peer = net.resident_bytes() as f64 / n as f64;

    // Validated reopen of the frozen dir (`open_secs` includes the O(m)
    // structural scans), then route the same workload over the
    // arena-backed table; results must not change.
    let config = *net.config();
    drop(net);
    let t0 = Instant::now();
    let reopened =
        SmallWorldNetwork::open_from(&dir, config, Arc::from(make_dist())).expect("reopen overlay");
    let open_s = t0.elapsed().as_secs_f64();
    let reopened_results = route_batch(&reopened, &workload, &opts, 0);
    assert_eq!(
        ref_results, reopened_results,
        "reopened overlay must route bit-identically to the reference"
    );
    std::fs::remove_dir_all(&dir).ok();

    ScaleRow {
        id: format!("scale/{dname}/{n}"),
        n,
        construct_s,
        peers_per_s: n as f64 / construct_s,
        routes_per_s_ref: queries as f64 / ref_s,
        bytes_per_peer,
        freeze_s,
        open_s,
        hops_mean,
    }
}

/// Hand-rolled JSON rows (the workspace builds offline — no serde),
/// merged by id into the shared snapshot so E21's `shard/*` rows
/// survive an E20 run and vice versa.
fn write_snapshot(ctx: &Ctx, rows: &[ScaleRow]) {
    let merged: Vec<(String, String)> = rows
        .iter()
        .map(|r| {
            let obj = format!(
                "{{\"id\": \"{}\", \"n\": {}, \"construct_secs\": {:.4}, \
                 \"peers_per_sec\": {:.1}, \"routes_per_sec_reference\": {:.1}, \
                 \"bytes_per_peer\": {:.1}, \
                 \"freeze_secs\": {:.4}, \"open_secs\": {:.4}, \"hops_mean\": {:.4}, \
                 \"unit\": \"wall_secs\"}}",
                r.id,
                r.n,
                r.construct_s,
                r.peers_per_s,
                r.routes_per_s_ref,
                r.bytes_per_peer,
                r.freeze_s,
                r.open_s,
                r.hops_mean,
            );
            (r.id.clone(), obj)
        })
        .collect();
    ctx.merge_snapshot("BENCH_scale.json", &merged);
}
