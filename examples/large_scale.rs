//! Large-scale overlay via the frozen-arena path, the front door for an
//! arbitrary-`n` build: construct a Pareto-skewed small-world network
//! (`build` writes its two arena images directly), print where the
//! build's wall-clock went stage by stage (`build_profile`), write the
//! images out (`freeze_to`), reopen them (the contact arena loads in one
//! allocation, no link re-sampling), and route a batch over the reopened
//! table — printing construction and routing throughput plus resident
//! bytes/peer.
//!
//! ```text
//! cargo run --release --example large_scale            # default n = 20 000
//! cargo run --release --example large_scale -- 1000000 # the 10⁶-peer run
//! ```
//!
//! The default `n` is small so the example stays fast; pass the peer
//! count as the first argument for real scale. Two 10⁶-peer runs on a
//! 2-core x86-64 host built in 1.95–2.09 s, held 356 B/peer once
//! reopened, and peaked at 365 MB resident (`VmHWM`), reached while the
//! contact image is filled beside the sealed long image. Stamped,
//! repeatable timings of this same pipeline are `benchmark/`'s
//! `build_skew` and `route_static` workloads.

use smallworld::core::prelude::*;
use smallworld::keyspace::prelude::*;
use smallworld::overlay::route::{route_batch, survey_queries, RouteOptions, TargetModel};
use smallworld::overlay::Overlay;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(20_000);
    let queries = 4096.min(n);
    let mut rng = Rng::new(2005);

    println!("building a {n}-peer Pareto overlay (harmonic sampler)…");
    let pareto = TruncatedPareto::new(1.5, 0.01).expect("valid");
    let builder = SmallWorldBuilder::new(n)
        .distribution(Box::new(pareto))
        .sampler(LinkSampler::Harmonic);
    let t0 = Instant::now();
    let built = builder.build(&mut rng).expect("n >= 4");
    let construct_s = t0.elapsed().as_secs_f64();
    println!(
        "  built in {construct_s:.2}s ({:.0} peers/s)",
        n as f64 / construct_s
    );
    let p = built
        .build_profile()
        .expect("a built network keeps its profile");
    println!(
        "  stages (s): placement {:.3}, selector {:.3}, sample {:.3}, long finish {:.3}, \
         degree count {:.3}, contact fill {:.3}, contact finish {:.3}",
        p.placement_s,
        p.selector_s,
        p.sample_s,
        p.long_finish_s,
        p.degree_count_s,
        p.contact_fill_s,
        p.contact_finish_s
    );

    // Write the finished images out as flat arena files…
    let dir = std::env::temp_dir().join(format!("sw-large-scale-{n}"));
    let t0 = Instant::now();
    built.freeze_to(&dir).expect("freeze overlay");
    println!(
        "  frozen to {} in {:.2}s",
        dir.display(),
        t0.elapsed().as_secs_f64()
    );

    // …and reopen: one read per file, zero per-peer work.
    drop(built);
    let t0 = Instant::now();
    let net = SmallWorldNetwork::open_from(&dir, *builder.config_ref(), Arc::new(pareto))
        .expect("reopen overlay");
    println!(
        "  reopened in {:.3}s (contact arena in one allocation; no link re-sampling), \
         {:.1} bytes/peer resident",
        t0.elapsed().as_secs_f64(),
        net.resident_bytes() as f64 / n as f64,
    );

    // Route a member-lookup workload over the reopened table.
    let workload = survey_queries(net.placement(), queries, TargetModel::MemberKeys, &mut rng);
    let opts = RouteOptions {
        record_path: false,
        ..RouteOptions::for_n(n)
    };
    let t0 = Instant::now();
    let results = route_batch(&net, &workload, &opts, 0);
    let route_s = t0.elapsed().as_secs_f64();
    let ok = results.iter().filter(|r| r.success).count();
    let hops: f64 =
        results.iter().map(|r| r.hops as f64).sum::<f64>() / results.len().max(1) as f64;
    println!(
        "  routed {queries} lookups in {route_s:.3}s ({:.0} routes/s), \
         {ok}/{queries} delivered, {hops:.2} mean hops (log2 n = {:.1})",
        queries as f64 / route_s,
        (n as f64).log2(),
    );

    std::fs::remove_dir_all(&dir).ok();
}
