//! graph: reopening the frozen image (`open_s`, `setup_s`) and the
//! `DeltaStore` edge log the simulator rewires under churn
//! (`events_per_s` on `churn_storage`).

use super::{ns_per_op, secs_of_three};
use crate::pipeline::{Scratch, CONTACTS_FILE, LONG_FILE};
use crate::workloads::{put, Metrics};
use std::hint::black_box;
use std::path::Path;
use sw_graph::{DeltaStore, TopologyStore};
use sw_keyspace::Rng;

const EDGE_OPS: usize = 100_000;

pub fn measure(
    image: &Path,
    scratch: &mut Scratch,
    rng: &mut Rng,
    layer: &mut Metrics,
) -> Result<(), String> {
    let contacts = image.join(CONTACTS_FILE);
    let err = |e: std::io::Error| format!("{}: {e}", contacts.display());

    // Validated open against a plain read of the same file: the
    // difference is parsing plus validation.
    let store = TopologyStore::open(&contacts).map_err(err)?;
    std::fs::read(&contacts).map_err(err)?;
    let open_s = secs_of_three(|| TopologyStore::open(&contacts).expect("opened a moment ago"));
    let raw_read_s = secs_of_three(|| std::fs::read(&contacts).expect("read a moment ago"));
    let refrozen = scratch.fresh();
    std::fs::create_dir_all(&refrozen).map_err(|e| format!("{}: {e}", refrozen.display()))?;
    let target = refrozen.join(CONTACTS_FILE);
    let freeze_s = secs_of_three(|| store.freeze_to(&target, None).expect("scratch is writable"));
    scratch.remove(&refrozen);
    drop(store);
    put(layer, "graph.store.open_s", open_s);
    put(layer, "graph.store.raw_read_s", raw_read_s);
    put(layer, "graph.store.freeze_s", freeze_s);

    // Edge writes over the arena base, as churn issues them: scattered
    // peers, a handful of edits each.
    let long = image.join(LONG_FILE);
    let base = TopologyStore::open(&long).map_err(|e| format!("{}: {e}", long.display()))?;
    let n = base.len();
    let mut delta = DeltaStore::new(base);
    let edits: Vec<(u32, u32)> = (0..EDGE_OPS)
        .map(|_| (rng.index(n) as u32, rng.index(n) as u32))
        .collect();
    // One round each: the second add of an edge is a different (no-op)
    // path, so the rounds of `ns_per_op` would not repeat the work.
    let t0 = std::time::Instant::now();
    for &(u, v) in &edits {
        black_box(delta.add_edge(u, v));
    }
    let add_ns = t0.elapsed().as_secs_f64() * 1e9 / EDGE_OPS as f64;
    let mut row = Vec::new();
    let row_into_ns = ns_per_op(EDGE_OPS, |i| {
        delta.row_into(edits[i].0, &mut row);
        black_box(row.len());
    });
    let t0 = std::time::Instant::now();
    for &(u, v) in &edits {
        black_box(delta.remove_edge(u, v));
    }
    let remove_ns = t0.elapsed().as_secs_f64() * 1e9 / EDGE_OPS as f64;
    put(layer, "graph.delta.add_edge_ns", add_ns);
    put(layer, "graph.delta.remove_edge_ns", remove_ns);
    put(layer, "graph.delta.row_into_ns", row_into_ns);
    Ok(())
}
