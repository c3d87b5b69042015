//! E21 — the construction pipeline, dissected: heap vs arena vs
//! write-through.
//!
//! Three cells over the same `(n, seed)`, asserted **byte-identical**
//! to one another:
//!
//! 1. **heap** — the oracle path: `build()` through the heap CSR +
//!    `LinkTable`, then `freeze_to` re-packs everything into the arena
//!    images. The honest same-machine reference for the speedup claims.
//! 2. **fast** — `build_to_arena()`: one sampling pass, links written
//!    straight into the final arena image in a heap buffer, freeze is a
//!    write-back. Its images are compared with the files the heap cell
//!    froze.
//! 3. **frozen** (unix) — `build_frozen()`: the same pipeline, but the
//!    image is assembled *inside a write-through mapping of the
//!    destination file*, so the freeze column is 0 by construction;
//!    compared with the fast cell.
//!
//! The fast and frozen cells print their [`BuildProfile`] — where the
//! build's wall-clock went, stage by stage.
//!
//! With `SW_E21_HUGE=1` (full mode, unix only) a fourth cell builds a
//! **10⁸-peer** overlay (uniform keys, constant out-degree 8 to respect
//! the arena's `u32` edge space) through `build_frozen`, recording
//! peers/s, bytes/peer and peak RSS.
//!
//! The full run is n = 10⁷; its rows merge into `BENCH_scale.json`
//! under the `shard/*` ids. `--quick` (the CI smoke) runs n = 20 000.

use crate::ctx::{self, Ctx};
use crate::table::{f2, Table};
use std::path::Path;
use std::time::Instant;
use sw_core::config::LinkSampler;
use sw_core::{ArenaBuild, BuildProfile, SmallWorldBuilder};
use sw_keyspace::distribution::Uniform;
use sw_keyspace::Rng;

fn cell_builder(n: usize) -> SmallWorldBuilder {
    SmallWorldBuilder::new(n)
        .distribution(Box::new(Uniform))
        .sampler(LinkSampler::Harmonic)
        .parallelism(0)
}

fn arena_bytes(build: &ArenaBuild) -> usize {
    build.contacts().as_bytes().len() + build.long().as_bytes().len()
}

fn print_profile(cell: &str, p: BuildProfile) {
    println!(
        "  [e21] {cell} profile (s): placement {:.3}, selector {:.3}, sample {:.3}, \
         long fill {:.3}, long finish {:.3}, degree count {:.3}, contact fill {:.3}, \
         contact finish {:.3}",
        p.placement_s,
        p.selector_s,
        p.sample_s,
        p.long_fill_s,
        p.long_finish_s,
        p.degree_count_s,
        p.contact_fill_s,
        p.contact_finish_s
    );
}

/// Asserts the file at `path` holds exactly `image`, streaming it in
/// 1 MiB reads so a 10⁷-peer comparison costs no resident memory.
fn assert_file_is(path: &Path, image: &[u8], what: &str) {
    use std::io::Read as _;
    let mut file = std::fs::File::open(path).expect("open frozen image");
    let mut chunk = vec![0u8; 1 << 20];
    let mut at = 0usize;
    loop {
        let k = file.read(&mut chunk).expect("read frozen image");
        if k == 0 {
            break;
        }
        assert!(
            image.get(at..at + k) == Some(&chunk[..k]),
            "{what}: heap-frozen file differs from the arena image near byte {at}"
        );
        at += k;
    }
    assert_eq!(at, image.len(), "{what}: image length differs");
}

/// E21 — construction pipeline (see module docs).
pub fn e21_shard(ctx: &Ctx) {
    let n = if ctx.quick { 20_000 } else { 10_000_000 };
    let seed = ctx.seed ^ 21 ^ n as u64;
    let builder = cell_builder(n);
    let mut table = Table::new(
        format!("E21: construction pipeline, heap vs arena vs write-through (n={n}, uniform keys)"),
        &["cell", "n", "build (s)", "freeze (s)", "peers/s", "detail"],
    );
    let mut rows: Vec<(String, String)> = Vec::new();

    // 1. Heap-path reference: build through the intermediate CSR +
    //    LinkTable, then re-pack into arenas at freeze time. The frozen
    //    files stay until the fast cell has been compared with them.
    println!("  [e21] heap reference: building…");
    let t0 = Instant::now();
    let net = builder.build(&mut Rng::new(seed)).expect("n >= 4");
    let heap_build_s = t0.elapsed().as_secs_f64();
    let heap_dir = ctx::scratch_dir().join(format!("sw-e21-heap-{n}"));
    let t0 = Instant::now();
    net.freeze_to(&heap_dir).expect("freeze heap-built overlay");
    let heap_freeze_s = t0.elapsed().as_secs_f64();
    drop(net);
    let heap_total = heap_build_s + heap_freeze_s;
    table.row(vec![
        "heap".into(),
        n.to_string(),
        f2(heap_build_s),
        f2(heap_freeze_s),
        format!("{:.0}", n as f64 / heap_total),
        "oracle path: heap CSR + LinkTable, re-pack at freeze".into(),
    ]);
    rows.push((
        format!("shard/heap/{n}"),
        format!(
            "{{\"id\": \"shard/heap/{n}\", \"n\": {n}, \"construct_secs\": {heap_build_s:.4}, \
             \"freeze_secs\": {heap_freeze_s:.4}, \"total_secs\": {heap_total:.4}, \"unit\": \"wall_secs\"}}"
        ),
    ));

    // 2. Fast path: build straight into the arena image.
    println!("  [e21] fast path: building…");
    let t0 = Instant::now();
    let fast = builder.build_to_arena(&mut Rng::new(seed)).expect("n >= 4");
    let fast_build_s = t0.elapsed().as_secs_f64();
    // The heap cell's files go before the fast cell freezes its own, so
    // at most one extra image set is on disk at a time.
    assert_file_is(
        &heap_dir.join("contacts.swt"),
        fast.contacts().as_bytes(),
        "contacts",
    );
    assert_file_is(&heap_dir.join("long.swt"), fast.long().as_bytes(), "long");
    std::fs::remove_dir_all(&heap_dir).ok();
    let dir = ctx::scratch_dir().join(format!("sw-e21-fast-{n}"));
    let t0 = Instant::now();
    fast.freeze_to(&dir).expect("freeze arena build");
    let fast_freeze_s = t0.elapsed().as_secs_f64();
    std::fs::remove_dir_all(&dir).ok();
    let fast_total = fast_build_s + fast_freeze_s;
    let speedup = heap_total / fast_total;
    let bytes_per_peer = arena_bytes(&fast) as f64 / n as f64;
    let rss = ctx::peak_rss_bytes().unwrap_or(0);
    print_profile("fast", fast.profile());
    table.row(vec![
        "fast".into(),
        n.to_string(),
        f2(fast_build_s),
        f2(fast_freeze_s),
        format!("{:.0}", n as f64 / fast_total),
        format!("{speedup:.2}x vs heap, {bytes_per_peer:.1} B/peer; == heap-frozen files"),
    ]);
    rows.push((
        format!("shard/fast/{n}"),
        format!(
            "{{\"id\": \"shard/fast/{n}\", \"n\": {n}, \"construct_secs\": {fast_build_s:.4}, \
             \"freeze_secs\": {fast_freeze_s:.4}, \"total_secs\": {fast_total:.4}, \
             \"peers_per_sec\": {:.1}, \"bytes_per_peer\": {bytes_per_peer:.1}, \
             \"speedup_vs_heap\": {speedup:.4}, \"peak_rss_bytes\": {rss}, \"unit\": \"wall_secs\"}}",
            n as f64 / fast_total
        ),
    ));

    // 3. Write-through build: seal the arenas inside mappings of the
    //    destination files — freezing costs nothing extra.
    #[cfg(all(unix, target_pointer_width = "64"))]
    {
        println!("  [e21] write-through frozen: building…");
        let dir = ctx::scratch_dir().join(format!("sw-e21-frozen-{n}"));
        let t0 = Instant::now();
        let frozen = builder
            .build_frozen(&mut Rng::new(seed), &dir)
            .expect("n >= 4");
        let frozen_s = t0.elapsed().as_secs_f64();
        assert_eq!(
            fast.contacts().as_bytes(),
            frozen.contacts().as_bytes(),
            "write-through contacts must equal the heap-buffered image"
        );
        assert_eq!(
            fast.long().as_bytes(),
            frozen.long().as_bytes(),
            "write-through long links must equal the heap-buffered image"
        );
        print_profile("frozen", frozen.profile());
        drop(frozen);
        std::fs::remove_dir_all(&dir).ok();
        let speedup = heap_total / frozen_s;
        table.row(vec![
            "frozen".into(),
            n.to_string(),
            f2(frozen_s),
            "0.00".into(),
            format!("{:.0}", n as f64 / frozen_s),
            format!("{speedup:.2}x vs heap; freeze folded into the build; == fast"),
        ]);
        rows.push((
            format!("shard/frozen/{n}"),
            format!(
                "{{\"id\": \"shard/frozen/{n}\", \"n\": {n}, \"construct_secs\": {frozen_s:.4}, \
                 \"freeze_secs\": 0.0, \"total_secs\": {frozen_s:.4}, \
                 \"peers_per_sec\": {:.1}, \"speedup_vs_heap\": {speedup:.4}, \
                 \"byte_identical\": true, \"unit\": \"wall_secs\"}}",
                n as f64 / frozen_s
            ),
        ));
    }

    drop(fast);

    // 4. The 10⁸-peer demonstration, opt-in: constant out-degree 8 keeps
    //    the contact-edge total inside the arena's u32 id space.
    #[cfg(all(unix, target_pointer_width = "64"))]
    if !ctx.quick && std::env::var("SW_E21_HUGE").as_deref() == Ok("1") {
        let n = 100_000_000usize;
        println!("  [e21] huge: building 10^8 peers write-through…");
        let builder = cell_builder(n).out_degree(sw_core::config::OutDegree::Const(8));
        let dir = ctx::scratch_dir().join(format!("sw-e21-huge-{n}"));
        let t0 = Instant::now();
        let huge = builder
            .build_frozen(&mut Rng::new(seed), &dir)
            .expect("n >= 4");
        let build_s = t0.elapsed().as_secs_f64();
        print_profile("huge", huge.profile());
        let bytes_per_peer = arena_bytes(&huge) as f64 / n as f64;
        drop(huge);
        std::fs::remove_dir_all(&dir).ok();
        let rss = ctx::peak_rss_bytes().unwrap_or(0);
        table.row(vec![
            "huge".into(),
            n.to_string(),
            f2(build_s),
            "0.00".into(),
            format!("{:.0}", n as f64 / build_s),
            format!("out-degree 8, {bytes_per_peer:.1} B/peer, peak RSS {rss}"),
        ]);
        rows.push((
            format!("shard/huge/{n}"),
            format!(
                "{{\"id\": \"shard/huge/{n}\", \"n\": {n}, \
                 \"build_secs\": {build_s:.4}, \"freeze_secs\": 0.0, \
                 \"peers_per_sec\": {:.1}, \"bytes_per_peer\": {bytes_per_peer:.1}, \
                 \"peak_rss_bytes\": {rss}, \"unit\": \"wall_secs\"}}",
                n as f64 / build_s
            ),
        ));
    }

    table.print();
    ctx.write_csv(&table, "e21_shard.csv");
    ctx.merge_snapshot("BENCH_scale.json", &rows);
    println!(
        "  expected shape: fast beats the heap path end to end (no intermediate \
         CSR/LinkTable, freeze is a write-back instead of a re-pack) and frozen \
         beats fast by the freeze column (the image is sealed inside the \
         destination file); all three write the same bytes (asserted)"
    );
}
