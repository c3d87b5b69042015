//! Property-based invariants of the graph substrate.

use proptest::prelude::*;
use sw_graph::{ArenaWriter, NodeId, Topology};
use sw_keyspace::Rng;

/// Random per-peer adjacency rows (possibly with duplicate targets — the
/// CSR layer must preserve rows verbatim, dedup is the builder's job).
fn random_rows(n: usize, max_row: usize, seed: u64) -> Vec<Vec<NodeId>> {
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|_| {
            (0..rng.index(max_row + 1))
                .map(|_| rng.index(n) as NodeId)
                .collect()
        })
        .collect()
}

/// `rows` packed through the writer, the way every image is made, with
/// the given per-edge and per-node lanes.
fn image_of(rows: &[Vec<NodeId>], edge_pos: Option<&[f64]>, node_pos: Option<&[f64]>) -> Topology {
    let degrees: Vec<u32> = rows.iter().map(|r| r.len() as u32).collect();
    let mut writer =
        ArenaWriter::from_degrees(&degrees, edge_pos.is_some(), node_pos.is_some()).unwrap();
    writer.fill(1, |slots| {
        for u in slots.range.clone() {
            let r = slots.row_bounds(u);
            slots.edges[r].copy_from_slice(&rows[u]);
        }
        if let (Some(dst), Some(src)) = (slots.edge_pos, edge_pos) {
            dst.copy_from_slice(&src[slots.edge_base..slots.edge_base + dst.len()]);
        }
        if let (Some(dst), Some(src)) = (slots.node_pos, node_pos) {
            dst.copy_from_slice(&src[slots.range]);
        }
    });
    writer.finish(1).unwrap()
}

/// `arena_file_round_trip`'s image: `random_rows` plus, when `lanes`,
/// one distinct `f64` per edge and per node.
fn random_image(n: usize, max_row: usize, seed: u64, lanes: bool) -> (Vec<Vec<NodeId>>, Topology) {
    let rows = random_rows(n, max_row, seed);
    let m: usize = rows.iter().map(Vec::len).sum();
    let edge_pos: Vec<f64> = (0..m).map(|e| (e as f64) / (m.max(1) as f64)).collect();
    let node_pos: Vec<f64> = (0..n).map(|i| (i as f64) / (n as f64)).collect();
    let image = if lanes {
        image_of(&rows, Some(&edge_pos), Some(&node_pos))
    } else {
        image_of(&rows, None, None)
    };
    (rows, image)
}

/// BFS hop distances from `src` over `t`'s rows (`u32::MAX` where
/// unreachable).
fn bfs_distances(t: &Topology, src: NodeId) -> Vec<u32> {
    let mut dist = vec![u32::MAX; t.len()];
    dist[src as usize] = 0;
    let mut queue = std::collections::VecDeque::from([src]);
    while let Some(u) = queue.pop_front() {
        for &v in t.neighbors(u) {
            if dist[v as usize] == u32::MAX {
                dist[v as usize] = dist[u as usize] + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// A fresh scratch path for one proptest case's image.
fn scratch(name: String) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("sw-graph-invariants");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// CSR round trip: `Vec<Vec<NodeId>>` → [`Topology`] → back is the
    /// identity, and every neighbour slice matches its source row.
    #[test]
    fn csr_round_trip(n in 1usize..64, max_row in 0usize..12, seed in any::<u64>()) {
        let rows = random_rows(n, max_row, seed);
        let topo = Topology::from_rows(&rows);
        prop_assert_eq!(topo.len(), n);
        prop_assert_eq!(topo.edge_count(), rows.iter().map(Vec::len).sum::<usize>());
        for (u, row) in rows.iter().enumerate() {
            prop_assert_eq!(topo.neighbors(u as NodeId), row.as_slice());
            prop_assert_eq!(topo.out_degree(u as NodeId), row.len());
        }
        prop_assert_eq!(topo.to_rows(), rows);
    }

    /// `filter_edges` keeps exactly the accepted edges, in row order.
    #[test]
    fn csr_filter_edges_contract(n in 1usize..48, max_row in 0usize..10, seed in any::<u64>()) {
        let rows = random_rows(n, max_row, seed);
        let topo = Topology::from_rows(&rows);
        let keep = |u: NodeId, v: NodeId| !(u as usize + v as usize).is_multiple_of(3);
        let filtered = topo.filter_edges(keep);
        let expected: Vec<Vec<NodeId>> = rows
            .iter()
            .enumerate()
            .map(|(u, row)| {
                row.iter().copied().filter(|&v| keep(u as NodeId, v)).collect()
            })
            .collect();
        prop_assert_eq!(filtered.to_rows(), expected);
    }

    /// Edge count tracks insertions into a `LinkTable` (minus ignored
    /// self-loops and repeats), then the additions and removals made
    /// through a `DeltaStore` over its frozen image, exactly.
    #[test]
    fn edge_count_bookkeeping(n in 2usize..32, ops in proptest::collection::vec((0usize..32, 0usize..32, any::<bool>()), 0..64)) {
        use sw_graph::{DeltaStore, LinkTable};
        let mut lt = LinkTable::new(n);
        let mut expected = 0usize;
        for &(a, b, _) in &ops {
            let (u, v) = ((a % n) as NodeId, (b % n) as NodeId);
            let fresh = u != v && !lt.row(u).contains(&v);
            prop_assert_eq!(lt.add(u, v), fresh);
            expected += usize::from(fresh);
        }
        let topo = lt.build();
        prop_assert_eq!(topo.edge_count(), expected);
        prop_assert_eq!(topo.edges().len(), expected);
        let mut store = DeltaStore::new(topo);
        for (a, b, remove) in ops {
            let (u, v) = ((b % n) as NodeId, (a % n) as NodeId);
            if remove {
                if store.remove_edge(u, v) {
                    expected -= 1;
                }
            } else if u != v && store.add_edge(u, v) {
                expected += 1;
            }
        }
        prop_assert_eq!(store.edge_count(), expected);
        prop_assert_eq!((0..n as NodeId).map(|u| store.degree(u)).sum::<usize>(), expected);
    }

    /// Reversing every row twice restores a frozen table's image byte
    /// for byte, sorted flag included. Reversed once, the table keeps
    /// its edge count and loses the flag iff some row has two contacts.
    #[test]
    fn double_reverse_is_identity(n in 2usize..40, max_row in 0usize..10, seed in any::<u64>()) {
        use sw_graph::LinkTable;
        let mut lt = LinkTable::new(n);
        for (u, row) in random_rows(n, max_row, seed).into_iter().enumerate() {
            lt.add_all(u as NodeId, row);
        }
        let topo = lt.build();
        let reversed = |t: &Topology| {
            let mut rows = t.to_rows();
            rows.iter_mut().for_each(|r| r.reverse());
            Topology::from_rows(&rows)
        };
        let once = reversed(&topo);
        prop_assert_eq!(once.edge_count(), topo.edge_count());
        prop_assert_eq!(once.rows_sorted(), (0..n as NodeId).all(|u| topo.out_degree(u) < 2));
        let twice = reversed(&once);
        prop_assert!(twice.rows_sorted());
        prop_assert_eq!(twice.as_bytes(), topo.as_bytes());
    }

    /// BFS over `neighbors` of a written image agrees with its flat CSR
    /// sections: d(v) <= d(u) + 1 for every edge u -> v of `edges()`
    /// reachable from the source, and every reached peer but the source
    /// has an in-edge from one hop closer.
    #[test]
    fn bfs_relaxation(n in 2usize..40, max_row in 0usize..6, seed in any::<u64>()) {
        let (_, image) = random_image(n, max_row, seed, true);
        let d = bfs_distances(&image, 0);
        prop_assert_eq!(d[0], 0);
        let (offsets, edges) = (image.offsets(), image.edges());
        let mut tight = vec![false; n];
        tight[0] = true;
        for u in 0..n {
            if d[u] == u32::MAX {
                continue;
            }
            for &v in &edges[offsets[u] as usize..offsets[u + 1] as usize] {
                prop_assert!(d[v as usize] <= d[u] + 1);
                tight[v as usize] |= d[v as usize] == d[u] + 1;
            }
        }
        for v in 0..n {
            prop_assert_eq!(tight[v], d[v] != u32::MAX, "peer {}", v);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Image → file → open round-trips every CSR section and lane
    /// bit-identically, for any row shape (sorted or not, with dups).
    #[test]
    fn arena_file_round_trip(n in 1usize..48, max_row in 0usize..10, seed in any::<u64>()) {
        let (rows, image) = random_image(n, max_row, seed, true);
        let path = scratch(format!("arena-{seed}-{n}-{max_row}.swt"));
        image.freeze_to(&path, None).unwrap();
        let opened = Topology::open(&path).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(opened.as_bytes(), image.as_bytes());
        prop_assert_eq!(opened.to_rows(), rows.clone());
        let topo = Topology::from_rows(&rows);
        prop_assert_eq!(opened.offsets(), topo.offsets());
        prop_assert_eq!(opened.edges(), topo.edges());
        prop_assert_eq!(opened.rows_sorted(), topo.rows_sorted());
        let m = topo.edge_count();
        let a: Vec<u64> = opened.edge_pos().unwrap().iter().map(|f| f.to_bits()).collect();
        let b: Vec<u64> = (0..m).map(|e| ((e as f64) / (m.max(1) as f64)).to_bits()).collect();
        prop_assert_eq!(a, b);
        let c: Vec<u64> = opened.node_pos().unwrap().iter().map(|f| f.to_bits()).collect();
        let d: Vec<u64> = (0..n).map(|i| ((i as f64) / (n as f64)).to_bits()).collect();
        prop_assert_eq!(c, d);
    }

    /// Delta-overlay contract: a `DeltaStore` driven through an
    /// arbitrary add/remove/replace/join sequence tracks a set-of-edges
    /// reference model exactly.
    #[test]
    fn delta_store_matches_final_edge_set(n in 2usize..40, max_row in 0usize..8, seed in any::<u64>()) {
        use std::collections::BTreeSet;
        use sw_graph::{DeltaStore, LinkTable};
        let mut rng = Rng::new(seed);
        let rows = random_rows(n, max_row, seed);
        let mut lt = LinkTable::new(n);
        for (u, row) in rows.iter().enumerate() {
            lt.add_all(u as NodeId, row.iter().copied());
        }
        let mut store = DeltaStore::new(lt.build());
        let mut model: Vec<BTreeSet<NodeId>> = (0..n as NodeId)
            .map(|u| store.row_slice(u).iter().copied().collect())
            .collect();
        // No self-loops anywhere (the link samplers never draw them,
        // and `LinkTable::add_all` filters them), so every op keeps the
        // model loop-free.
        for _ in 0..200 {
            let u = rng.index(model.len());
            match rng.index(8) {
                0..=2 => {
                    let v = rng.index(model.len()) as NodeId;
                    if v as usize != u {
                        prop_assert_eq!(store.add_edge(u as NodeId, v), model[u].insert(v));
                    }
                }
                3..=5 => {
                    let v = rng.index(model.len()) as NodeId;
                    prop_assert_eq!(store.remove_edge(u as NodeId, v), model[u].remove(&v));
                }
                6 => {
                    let row: BTreeSet<NodeId> = (0..rng.index(max_row + 1))
                        .map(|_| rng.index(model.len()) as NodeId)
                        .filter(|&v| v as usize != u)
                        .collect();
                    store.set_row(u as NodeId, row.iter().copied().collect());
                    model[u] = row;
                }
                _ => {
                    if model.len() < 48 {
                        let row: BTreeSet<NodeId> = (0..rng.index(max_row + 1))
                            .map(|_| rng.index(model.len()) as NodeId)
                            .collect();
                        let id = store.push_node(row.iter().copied().collect());
                        prop_assert_eq!(id as usize, model.len());
                        model.push(row);
                    }
                }
            }
        }
        // Reads agree with the model (as edge sets).
        prop_assert_eq!(store.len(), model.len());
        prop_assert_eq!(
            store.edge_count(),
            model.iter().map(BTreeSet::len).sum::<usize>()
        );
        let mut buf = Vec::new();
        for (u, expect) in model.iter().enumerate() {
            prop_assert_eq!(store.degree(u as NodeId), expect.len());
            store.row_into(u as NodeId, &mut buf);
            let got: BTreeSet<NodeId> = buf.iter().copied().collect();
            prop_assert_eq!(got.len(), buf.len(), "row holds duplicates");
            prop_assert_eq!(&got, expect);
        }
    }

    /// Sorted-at-freeze: `LinkTable::build` rows are sorted, `has_edge`
    /// (binary search) agrees with membership, and the sorted flag
    /// survives `filter_edges`.
    #[test]
    fn frozen_rows_sorted_and_searchable(n in 2usize..48, max_row in 0usize..10, seed in any::<u64>()) {
        use sw_graph::LinkTable;
        let rows = random_rows(n, max_row, seed);
        let mut lt = LinkTable::new(n);
        for (u, row) in rows.iter().enumerate() {
            lt.add_all(u as NodeId, row.iter().copied().filter(|&v| v != u as NodeId));
        }
        let topo = lt.build();
        prop_assert!(topo.rows_sorted());
        for u in 0..n as NodeId {
            let row = topo.neighbors(u);
            prop_assert!(row.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
            for v in 0..n as NodeId {
                prop_assert_eq!(topo.has_edge(u, v), row.contains(&v));
            }
        }
        let filtered = topo.filter_edges(|u, v| (u + v) % 3 != 0);
        prop_assert!(filtered.rows_sorted());
        for u in 0..n as NodeId {
            for v in 0..n as NodeId {
                prop_assert_eq!(filtered.has_edge(u, v), filtered.neighbors(u).contains(&v));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The reader is `sw-graph`'s whole input boundary: every topology
    /// in a process came from the writer or passed `open`. A written
    /// image (with or without lanes) damaged by one truncation, one bit
    /// flip, or one overwritten header word (n, m, flags or checksum)
    /// reopens as an `Err` or as a topology whose every row reads in
    /// bounds with every id `< n` — never as a panic.
    #[test]
    fn open_survives_damaged_images(
        n in 1usize..48,
        max_row in 0usize..10,
        seed in any::<u64>(),
        lanes in any::<bool>(),
        damage in 0u32..3,
        at in any::<u64>(),
        word in any::<u64>(),
        shift in 0u32..64,
    ) {
        let (_, image) = random_image(n, max_row, seed, lanes);
        let mut bytes = image.as_bytes().to_vec();
        let len = bytes.len() as u64;
        match damage {
            0 => bytes.truncate((at % len) as usize),
            1 => bytes[(at % len) as usize] ^= 1 << (word % 8),
            // A random word, at a random magnitude, so small counts that
            // pass the u32 bound are drawn too.
            _ => {
                let w = 8 * (1 + (at % 4) as usize);
                bytes[w..w + 8].copy_from_slice(&(word >> shift).to_ne_bytes());
            }
        }
        let path = scratch(format!("damaged-{seed}-{n}-{damage}-{at}.swt"));
        std::fs::write(&path, &bytes).unwrap();
        let opened = Topology::open(&path);
        std::fs::remove_file(&path).ok();
        if let Ok(t) = opened {
            let n = t.len();
            for u in 0..n as NodeId {
                prop_assert!(t.neighbors(u).iter().all(|&v| (v as usize) < n));
            }
            prop_assert_eq!(t.edge_pos().map_or(t.edge_count(), <[f64]>::len), t.edge_count());
            prop_assert_eq!(t.node_pos().map_or(n, <[f64]>::len), n);
        }
    }
}

/// Every header word is covered by the v2 checksum: one flipped bit
/// anywhere in words 0–4 of a written image (with lanes or without) is
/// an `Err` on `open`. The first image is the case no length or range
/// check can see: its sorted flag flipped on, `has_edge` would
/// binary-search the unsorted row `[3, 1, 2]` and miss the edge 0 → 3.
#[test]
fn flipped_header_bits_are_rejected() {
    let unsorted = Topology::from_rows(&[vec![3, 1, 2], vec![0], vec![], vec![2, 0]]);
    assert!(!unsorted.rows_sorted() && unsorted.has_edge(0, 3));
    let images = [
        unsorted,
        random_image(24, 6, 7, false).1,
        random_image(24, 6, 7, true).1,
    ];
    for (i, image) in images.iter().enumerate() {
        let path = scratch(format!("flipped-header-{i}.swt"));
        std::fs::write(&path, image.as_bytes()).unwrap();
        assert!(Topology::open(&path).is_ok(), "image {i} unflipped");
        for bit in 0..5 * 64 {
            let mut bytes = image.as_bytes().to_vec();
            bytes[bit / 8] ^= 1 << (bit % 8);
            std::fs::write(&path, &bytes).unwrap();
            assert!(
                Topology::open(&path).is_err(),
                "image {i}: header word {} bit {} flipped",
                bit / 64,
                bit % 64
            );
        }
        std::fs::remove_file(&path).ok();
    }
}
