//! E25 — the interleaved AMAC routing kernel: single-thread routes/s vs
//! interleave width K, swept over n × storage backend.
//!
//! This is the measurement behind the batch kernel (see
//! `sw_overlay::route`'s module docs): the overlay is built once per n
//! through the write-through arena pipeline, then the *same* member-
//! lookup workload is routed single-threaded through
//!
//! * the looped slice-based **reference** walk — what `Overlay::route`
//!   runs for one lookup, the baseline the batch kernel must beat and
//!   every result is bit-compared against — and
//! * the **interleaved** kernel at K ∈ {1, 2, 4, 8, 16, 32} walks in
//!   flight,
//!
//! over both a **heap**-backed routing table and the frozen **arena**
//! reopened from disk (memory-mapped here — `sw-bench` enables
//! `sw-core/mmap` — so the arena cells measure the kernel against page-
//! cache-resident mappings, the deployment shape of a 10⁷-peer image).
//! K = 1 is the degenerate pipeline — the interleaving overhead in
//! isolation; the win at K ≥ 8 is memory-level parallelism, not code
//! tweaks. Every cell's full `RouteResult` sequence is asserted
//! bit-identical to the reference, so the sweep doubles as an
//! equivalence test at scale.
//!
//! The full sweep is n ∈ {10⁵, 10⁶, 10⁷} (the 10⁷ build needs ~2 GB
//! and a couple of minutes); its rows merge by id (`interleave/*`) into
//! `BENCH_routing.json` alongside E19's `routing/*` rows. `--quick`
//! (CI smoke) runs {10⁴, 4·10⁴}.

use crate::ctx::{self, Ctx};
use crate::table::{f2, Table};
use std::sync::Arc;
use std::time::Instant;
use sw_core::config::LinkSampler;
use sw_core::{SmallWorldBuilder, SmallWorldNetwork};
use sw_keyspace::distribution::Uniform;
use sw_keyspace::Rng;
use sw_overlay::route::{greedy_route, survey_queries, RouteOptions, RouteResult, TargetModel};
use sw_overlay::{route_interleaved, Overlay, RouteTable};

/// Interleave widths swept per (n, backend) cell.
const WIDTHS: [usize; 6] = [1, 2, 4, 8, 16, 32];

struct InterleaveRow {
    id: String,
    backend: &'static str,
    n: usize,
    k: usize,
    queries: usize,
    routes_per_s_interleaved: f64,
    routes_per_s_ref: f64,
    speedup_vs_ref: f64,
}

/// E25 — interleaved multi-walk routing (see module docs).
pub fn e25_interleave(ctx: &Ctx) {
    let sizes: Vec<usize> = if ctx.quick {
        vec![10_000, 40_000]
    } else {
        vec![100_000, 1_000_000, 10_000_000]
    };
    let queries = ctx.queries(4096);
    let mut table = Table::new(
        format!(
            "E25: interleaved AMAC kernel, single-thread ({queries} member lookups/cell, \
             bit-identity vs reference asserted per cell)"
        ),
        &[
            "backend",
            "n",
            "K",
            "routes/s (interleaved)",
            "routes/s (ref)",
            "speedup vs ref",
        ],
    );
    let mut rows: Vec<InterleaveRow> = Vec::new();
    for &n in &sizes {
        run_size(ctx, n, queries, &mut rows);
    }
    for r in &rows {
        table.row(vec![
            r.backend.to_string(),
            r.n.to_string(),
            r.k.to_string(),
            format!("{:.0}", r.routes_per_s_interleaved),
            format!("{:.0}", r.routes_per_s_ref),
            f2(r.speedup_vs_ref),
        ]);
    }
    table.print();
    ctx.write_csv(&table, "e25_interleave.csv");
    write_snapshot(ctx, &rows);
    println!(
        "  expected shape: K=1 is the pipeline overhead alone and trails the \
         looped reference; from K=2 the interleaved kernel is ahead at every \
         size swept, and the gap widens with n as more of each walk misses \
         cache — at 10^6-10^7 it climbs steeply to K=8 and flattens by \
         K=16-32 as the line-fill buffers saturate, several times the \
         reference; heap and mmap-arena backends agree once the image is \
         page-cache resident"
    );
}

/// One n: build once through the arena pipeline, then sweep
/// backend × K over the same workload, single-threaded throughout.
fn run_size(ctx: &Ctx, n: usize, queries: usize, rows: &mut Vec<InterleaveRow>) {
    println!("  [e25] n={n}: building…");
    let mut rng = Rng::new(ctx.seed ^ 25 ^ n as u64);
    let builder = SmallWorldBuilder::new(n)
        .distribution(Box::new(Uniform))
        .sampler(LinkSampler::Harmonic)
        .parallelism(0);
    let dir = ctx::scratch_dir().join(format!("sw-e25-{n}"));
    #[cfg(all(unix, target_pointer_width = "64"))]
    let build = builder.build_frozen(&mut rng, &dir).expect("n >= 4");
    #[cfg(not(all(unix, target_pointer_width = "64")))]
    let build = {
        let b = builder.build_to_arena(&mut rng).expect("n >= 4");
        b.freeze_to(&dir).expect("freeze overlay");
        b
    };
    let net = build.into_network();
    let workload = survey_queries(net.placement(), queries, TargetModel::MemberKeys, &mut rng);
    let opts = RouteOptions {
        record_path: false,
        ..RouteOptions::for_n(n)
    };

    // The lazy arena→heap unpack happens in this `topology()` call,
    // outside every timed region.
    let topo = net.topology();

    // Heap-backed table (same CSR, lanes on the heap) vs the frozen
    // arena reopened from disk (validated reopen, mmap-backed under
    // sw-bench).
    let keys: Vec<f64> = net.placement().keys().iter().map(|k| k.get()).collect();
    let heap_table = RouteTable::build_parallel(topo.clone(), &keys, 0);
    let reopened = SmallWorldNetwork::open_from(&dir, *net.config(), Arc::new(Uniform))
        .expect("reopen overlay");

    // One-at-a-time baseline per backend: the reference walk over the
    // heap CSR, and over the arena's id rows in place (what a reopened
    // network's `route` does).
    let t0 = Instant::now();
    let reference: Vec<RouteResult> = workload
        .iter()
        .map(|&(from, t)| greedy_route(net.placement(), topo, from, t, &opts))
        .collect();
    let heap_ref_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let over_arena: Vec<RouteResult> = workload
        .iter()
        .map(|&(from, t)| reopened.route(from, t, &opts))
        .collect();
    let arena_ref_s = t0.elapsed().as_secs_f64();
    assert_eq!(
        over_arena, reference,
        "the reference walk must not depend on where its rows live (n={n})"
    );

    let cells: [(&'static str, &SmallWorldNetwork, &RouteTable, f64); 2] = [
        ("heap", &net, &heap_table, heap_ref_s),
        ("arena", &reopened, reopened.route_table(), arena_ref_s),
    ];
    for (backend, owner, rt, ref_s) in cells {
        let placement = owner.placement();
        for k in WIDTHS {
            let t0 = Instant::now();
            let got = route_interleaved(placement, rt, &workload, &opts, k);
            let s = t0.elapsed().as_secs_f64();
            assert_eq!(
                got, reference,
                "interleaved kernel must be bit-identical to the reference \
                 ({backend}, n={n}, K={k})"
            );
            rows.push(InterleaveRow {
                id: format!("interleave/{backend}/{n}/k{k}"),
                backend,
                n,
                k,
                queries,
                routes_per_s_interleaved: queries as f64 / s,
                routes_per_s_ref: queries as f64 / ref_s,
                speedup_vs_ref: ref_s / s,
            });
        }
    }
    drop(reopened);
    drop(net);
    std::fs::remove_dir_all(&dir).ok();
}

/// Hand-rolled JSON rows (offline workspace — no serde), merged by id
/// into `BENCH_routing.json` so E19's `routing/*` rows survive an E25
/// run and vice versa.
fn write_snapshot(ctx: &Ctx, rows: &[InterleaveRow]) {
    let merged: Vec<(String, String)> = rows
        .iter()
        .map(|r| {
            let obj = format!(
                "{{\"id\": \"{}\", \"backend\": \"{}\", \"n\": {}, \"k\": {}, \
                 \"queries\": {}, \"routes_per_sec_interleaved\": {:.1}, \
                 \"routes_per_sec_reference\": {:.1}, \
                 \"speedup_vs_reference\": {:.4}, \"unit\": \"wall_secs\"}}",
                r.id,
                r.backend,
                r.n,
                r.k,
                r.queries,
                r.routes_per_s_interleaved,
                r.routes_per_s_ref,
                r.speedup_vs_ref,
            );
            (r.id.clone(), obj)
        })
        .collect();
    ctx.merge_snapshot("BENCH_routing.json", &merged);
}
