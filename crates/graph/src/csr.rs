//! The flat CSR (compressed sparse row) topology every overlay stores its
//! adjacency in.
//!
//! A [`Topology`] packs all outgoing edges into one `edges` array indexed
//! by an `offsets` array (`n + 1` entries), plus a mirrored incoming-edge
//! CSR built in a single counting-sort pass. Compared to the former
//! `Vec<Vec<NodeId>>` representation this removes one heap allocation per
//! peer (the "allocation storm" at 10⁵–10⁶ peers), makes neighbour access
//! a contiguous slice read, and gives routing a cache-friendly layout.
//!
//! [`LinkTable`] is the shared construction-time builder: overlays append
//! per-peer contact rows (with in-row deduplication and self-loop
//! filtering) in any order and then freeze the table into a [`Topology`].

use crate::digraph::{DiGraph, NodeId};
use crate::par;
use crate::prefetch::prefetch_read;

/// Flat CSR adjacency: outgoing and incoming edges of a fixed peer set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Topology {
    /// `offsets[u]..offsets[u + 1]` indexes `edges` — `n + 1` entries.
    offsets: Vec<u32>,
    /// All outgoing edges, grouped by source peer.
    edges: Vec<NodeId>,
    /// Incoming-edge offsets (`n + 1` entries).
    in_offsets: Vec<u32>,
    /// All incoming edges, grouped by destination peer, in source order.
    in_edges: Vec<NodeId>,
    /// True when every row is sorted ascending ([`Topology::has_edge`]
    /// binary-searches instead of scanning). Derived from the data by
    /// every constructor, so equal topologies always carry equal flags.
    sorted: bool,
}

impl Topology {
    /// An edgeless topology over `n` peers.
    pub fn empty(n: usize) -> Topology {
        Topology {
            offsets: vec![0; n + 1],
            edges: Vec::new(),
            in_offsets: vec![0; n + 1],
            in_edges: Vec::new(),
            sorted: true,
        }
    }

    /// Packs per-peer adjacency rows into CSR form (rows are borrowed, not
    /// consumed — the transpose is built from the same pass).
    ///
    /// # Panics
    ///
    /// Panics if any edge target is out of range or the total edge count
    /// overflows `u32` (≈ 4·10⁹ edges — far past the workspace's scale).
    pub fn from_rows(rows: &[Vec<NodeId>]) -> Topology {
        Self::from_row_slices(rows.len(), |u| &rows[u])
    }

    /// [`from_rows`] with the in-edge transpose fanned out over
    /// `threads` workers (`0` = auto); results are identical at any
    /// thread count.
    ///
    /// [`from_rows`]: Topology::from_rows
    pub fn from_rows_with_threads(rows: &[Vec<NodeId>], threads: usize) -> Topology {
        Self::from_row_slices_with_threads(rows.len(), threads, |u| &rows[u])
    }

    /// Generalized CSR packing: `row(u)` yields peer `u`'s out-edges.
    pub fn from_row_slices<'a, F>(n: usize, row: F) -> Topology
    where
        F: Fn(usize) -> &'a [NodeId],
    {
        Self::from_row_slices_with_threads(n, 1, row)
    }

    /// [`from_row_slices`] with a parallel transpose (`0` = auto).
    ///
    /// [`from_row_slices`]: Topology::from_row_slices
    pub fn from_row_slices_with_threads<'a, F>(n: usize, threads: usize, row: F) -> Topology
    where
        F: Fn(usize) -> &'a [NodeId],
    {
        let mut offsets = Vec::with_capacity(n + 1);
        let mut total = 0usize;
        offsets.push(0u32);
        for u in 0..n {
            total += row(u).len();
            offsets.push(u32::try_from(total).expect("edge count fits u32"));
        }
        let mut edges = Vec::with_capacity(total);
        for u in 0..n {
            edges.extend_from_slice(row(u));
        }
        debug_assert!(
            edges.iter().all(|&v| (v as usize) < n),
            "edge target in range"
        );
        let mut in_offsets = vec![0u32; n + 1];
        let mut in_edges = vec![0 as NodeId; edges.len()];
        transpose_into(n, &offsets, &edges, &mut in_offsets, &mut in_edges, threads);
        Topology::from_parts(offsets, edges, in_offsets, in_edges)
    }

    /// Assembles a topology from already-built CSR arrays (the storage
    /// backends unpack frozen arenas through this). The sorted-rows flag
    /// is recomputed from the data, so a round-trip through an arena is
    /// bit-identical, flag included.
    pub(crate) fn from_parts(
        offsets: Vec<u32>,
        edges: Vec<NodeId>,
        in_offsets: Vec<u32>,
        in_edges: Vec<NodeId>,
    ) -> Topology {
        debug_assert_eq!(offsets.len(), in_offsets.len());
        debug_assert_eq!(edges.len(), in_edges.len());
        let sorted = rows_sorted(&offsets, &edges);
        Topology {
            offsets,
            edges,
            in_offsets,
            in_edges,
            sorted,
        }
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True if the topology has no peers.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Outgoing neighbours of `u` — a contiguous slice, no allocation.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        let (a, b) = (self.offsets[u as usize], self.offsets[u as usize + 1]);
        &self.edges[a as usize..b as usize]
    }

    /// Incoming neighbours of `u` (sources of edges ending at `u`).
    #[inline]
    pub fn incoming(&self, u: NodeId) -> &[NodeId] {
        let (a, b) = (self.in_offsets[u as usize], self.in_offsets[u as usize + 1]);
        &self.in_edges[a as usize..b as usize]
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        (self.offsets[u as usize + 1] - self.offsets[u as usize]) as usize
    }

    /// In-degree of `u`.
    #[inline]
    pub fn in_degree(&self, u: NodeId) -> usize {
        (self.in_offsets[u as usize + 1] - self.in_offsets[u as usize]) as usize
    }

    /// True if the edge `u → v` exists. Rows frozen sorted (every
    /// [`LinkTable::build`] output) are binary-searched; topologies
    /// packed from unsorted rows fall back to the linear scan.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if self.sorted {
            self.neighbors(u).binary_search(&v).is_ok()
        } else {
            self.neighbors(u).contains(&v)
        }
    }

    /// True when every edge row is sorted ascending (established at
    /// freeze by [`LinkTable::build`] and preserved by the edge-filter
    /// and storage paths).
    pub fn rows_sorted(&self) -> bool {
        self.sorted
    }

    /// Raw out-edge offsets (`n + 1` entries) — the flat arrays storage
    /// backends and SoA routing kernels index directly.
    #[inline]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Raw out-edge array, grouped by source peer.
    #[inline]
    pub fn edges(&self) -> &[NodeId] {
        &self.edges
    }

    /// Raw in-edge offsets (`n + 1` entries).
    #[inline]
    pub fn in_offsets(&self) -> &[u32] {
        &self.in_offsets
    }

    /// Raw in-edge array, grouped by destination peer.
    #[inline]
    pub fn in_edges(&self) -> &[NodeId] {
        &self.in_edges
    }

    /// Mean out-degree.
    pub fn avg_out_degree(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.edges.len() as f64 / self.len() as f64
        }
    }

    /// Largest out-degree.
    pub fn max_out_degree(&self) -> usize {
        (0..self.len() as NodeId)
            .map(|u| self.out_degree(u))
            .max()
            .unwrap_or(0)
    }

    /// Iterator over all edges as `(u, v)` pairs in row order.
    pub fn iter_edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.len() as NodeId).flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Unpacks back into per-peer rows (the inverse of [`from_rows`]).
    ///
    /// [`from_rows`]: Topology::from_rows
    pub fn to_rows(&self) -> Vec<Vec<NodeId>> {
        (0..self.len() as NodeId)
            .map(|u| self.neighbors(u).to_vec())
            .collect()
    }

    /// A copy with only the edges `keep(u, v)` accepts; offsets and the
    /// incoming CSR are rebuilt in one pass.
    pub fn filter_edges(&self, mut keep: impl FnMut(NodeId, NodeId) -> bool) -> Topology {
        let n = self.len();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut edges = Vec::with_capacity(self.edges.len());
        offsets.push(0u32);
        for u in 0..n as NodeId {
            edges.extend(self.neighbors(u).iter().copied().filter(|&v| keep(u, v)));
            offsets.push(edges.len() as u32);
        }
        let (in_offsets, in_edges) = transpose(n, &offsets, &edges);
        Topology::from_parts(offsets, edges, in_offsets, in_edges)
    }

    /// A copy with peer `u`'s row replaced (used by link refresh paths;
    /// rebuilds both CSRs — `O(n + m)`, fine for maintenance operations).
    pub fn with_row(&self, u: NodeId, new_row: &[NodeId]) -> Topology {
        let n = self.len();
        Topology::from_row_slices(n, |w| {
            if w == u as usize {
                new_row
            } else {
                self.neighbors(w as NodeId)
            }
        })
    }

    /// Materializes as a [`DiGraph`] (for the metrics toolkit).
    pub fn to_digraph(&self) -> DiGraph {
        let mut g = DiGraph::new(self.len());
        for (u, v) in self.iter_edges() {
            g.add_edge_unique(u, v);
        }
        g
    }
}

/// True if every CSR row is sorted ascending.
fn rows_sorted(offsets: &[u32], edges: &[NodeId]) -> bool {
    offsets.windows(2).all(|w| {
        edges[w[0] as usize..w[1] as usize]
            .windows(2)
            .all(|e| e[0] <= e[1])
    })
}

/// One counting-sort pass: out-CSR → in-CSR.
fn transpose(n: usize, offsets: &[u32], edges: &[NodeId]) -> (Vec<u32>, Vec<NodeId>) {
    let mut in_offsets = vec![0u32; n + 1];
    let mut in_edges = vec![0 as NodeId; edges.len()];
    transpose_into(n, offsets, edges, &mut in_offsets, &mut in_edges, 1);
    (in_offsets, in_edges)
}

/// Builds the in-edge CSR of `(offsets, edges)` into caller-provided
/// buffers — the shared transpose every freeze path (heap topologies,
/// [`crate::store::ArenaWriter::finish`]) runs through.
///
/// With `threads > 1` the destination id space is split into contiguous
/// ranges, one per worker: a counting pass tallies each range's
/// in-degrees, a sequential exclusive scan fixes the global offsets, and
/// a fill pass has each worker scan the edge array in source order while
/// writing only its own destination range — a disjoint contiguous slice
/// of `in_edges`, since in-edges are grouped by destination. Every
/// destination's sources therefore land in ascending source order,
/// exactly as the sequential counting sort emits them: **output is
/// bit-identical at any thread count**.
///
/// # Panics
///
/// Panics if `in_offsets.len() != n + 1` or
/// `in_edges.len() != edges.len()`.
pub fn transpose_into(
    n: usize,
    offsets: &[u32],
    edges: &[NodeId],
    in_offsets: &mut [u32],
    in_edges: &mut [NodeId],
    threads: usize,
) {
    assert_eq!(in_offsets.len(), n + 1, "in_offsets holds n + 1 entries");
    assert_eq!(in_edges.len(), edges.len(), "one in-edge per out-edge");
    let m = edges.len();
    // Each worker re-scans the whole edge array (O(threads · m) reads),
    // so fan out only when rows are big enough to amortize that.
    let workers = par::effective_threads(m, threads, 1 << 16);
    if workers <= 1 {
        // Both passes are random scatters over arrays far larger than
        // cache at 10⁷ peers; a lookahead prefetch keeps several misses
        // in flight instead of serializing on each one. Prefetching is a
        // hint — the output is the plain counting sort's, bit for bit.
        const PF: usize = 16;
        in_offsets.fill(0);
        for (k, &v) in edges.iter().enumerate() {
            if let Some(&w) = edges.get(k + PF) {
                prefetch_read(&in_offsets[w as usize + 1]);
            }
            in_offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut cursor = in_offsets.to_vec();
        for u in 0..n {
            let (a, b) = (offsets[u] as usize, offsets[u + 1] as usize);
            for k in a..b {
                // Two-stage lookahead across the flat edge array: warm
                // the cursor slot first, then the write target it names.
                // A cursor slot may advance between prefetch and use
                // (repeated destination), drifting the second hint by a
                // few entries — same line in practice, and harmless.
                if let Some(&w) = edges.get(k + 2 * PF) {
                    prefetch_read(&cursor[w as usize]);
                }
                if let Some(&w) = edges.get(k + PF) {
                    let slot = cursor[w as usize] as usize;
                    // `slot` can be one past the end mid-sort only for
                    // ids whose rows are complete; stay on a raw pointer
                    // (never dereferenced) to avoid a bounds panic.
                    unsafe { prefetch_read(in_edges.as_ptr().add(slot)) };
                }
                let v = edges[k] as usize;
                in_edges[cursor[v] as usize] = u as NodeId;
                cursor[v] += 1;
            }
        }
        return;
    }
    // Count pass: in-degree tallies per destination range, one range
    // per worker.
    let counts = par::par_chunks_grained(n, workers, 1, |r| {
        let mut c = vec![0u32; r.len()];
        for &v in edges {
            let v = v as usize;
            if r.contains(&v) {
                c[v - r.start] += 1;
            }
        }
        (r, c)
    });
    // Sequential exclusive scan over all destinations.
    in_offsets[0] = 0;
    let mut total = 0u32;
    for (r, c) in &counts {
        for (i, &k) in c.iter().enumerate() {
            total += k;
            in_offsets[r.start + i + 1] = total;
        }
    }
    debug_assert_eq!(total as usize, m);
    // Fill pass: split `in_edges` at the range boundaries — disjoint
    // contiguous slices — and let each worker scan sources in order.
    let in_offsets: &[u32] = in_offsets;
    let mut rest: &mut [NodeId] = in_edges;
    par::join_all(counts.iter().map(|(r, _)| {
        let base = in_offsets[r.start];
        let (mine, tail) =
            std::mem::take(&mut rest).split_at_mut((in_offsets[r.end] - base) as usize);
        rest = tail;
        move || {
            let mut cursor: Vec<u32> = r.clone().map(|v| in_offsets[v] - base).collect();
            for u in 0..n {
                let (a, b) = (offsets[u] as usize, offsets[u + 1] as usize);
                for &v in &edges[a..b] {
                    let v = v as usize;
                    if r.contains(&v) {
                        let slot = &mut cursor[v - r.start];
                        mine[*slot as usize] = u as NodeId;
                        *slot += 1;
                    }
                }
            }
        }
    }));
}

/// Construction-time contact-table builder shared by every overlay.
///
/// Rows accumulate per peer (in any order) with self-loop filtering and
/// in-row deduplication, then [`LinkTable::build`] freezes them into a
/// [`Topology`]. Rows are short (logarithmic in `n`), so the linear-scan
/// dedup beats hashing.
#[derive(Debug, Clone)]
pub struct LinkTable {
    rows: Vec<Vec<NodeId>>,
}

impl LinkTable {
    /// An empty table over `n` peers.
    pub fn new(n: usize) -> LinkTable {
        LinkTable {
            rows: vec![Vec::new(); n],
        }
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no peers.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Adds `u → v` unless it is a self-loop or already present.
    /// Returns `true` if the edge was added.
    pub fn add(&mut self, u: NodeId, v: NodeId) -> bool {
        if u == v || self.rows[u as usize].contains(&v) {
            return false;
        }
        self.rows[u as usize].push(v);
        true
    }

    /// Adds every target in `vs` (deduplicated, self-loops skipped).
    pub fn add_all(&mut self, u: NodeId, vs: impl IntoIterator<Item = NodeId>) {
        for v in vs {
            self.add(u, v);
        }
    }

    /// The current row of `u`.
    pub fn row(&self, u: NodeId) -> &[NodeId] {
        &self.rows[u as usize]
    }

    /// Freezes the table into a CSR [`Topology`]. Every row is sorted
    /// ascending at this point, so [`Topology::has_edge`] runs as a
    /// binary search and frozen arenas inherit the invariant. (Row order
    /// was never part of the routing contract — greedy selection ranks
    /// by distance — so sorting here only changes which of two
    /// *exactly* equidistant contacts wins a tie.)
    pub fn build(self) -> Topology {
        self.build_with_threads(1)
    }

    /// [`build`] with per-row sorting and the in-edge transpose fanned
    /// out over `threads` workers (`0` = auto). Each row is sorted
    /// independently and the transpose is thread-count invariant, so the
    /// result is identical to the sequential [`build`].
    ///
    /// [`build`]: LinkTable::build
    pub fn build_with_threads(mut self, threads: usize) -> Topology {
        let chunk = par::chunk_size(self.rows.len(), threads, 1 << 14);
        par::join_all(self.rows.chunks_mut(chunk).map(|rows| {
            move || {
                for row in rows {
                    row.sort_unstable();
                }
            }
        }));
        Topology::from_rows_with_threads(&self.rows, threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Topology {
        Topology::from_rows(&[vec![1, 2], vec![2], vec![0], vec![]])
    }

    #[test]
    fn neighbors_are_row_slices() {
        let t = sample();
        assert_eq!(t.len(), 4);
        assert_eq!(t.edge_count(), 4);
        assert_eq!(t.neighbors(0), &[1, 2]);
        assert_eq!(t.neighbors(1), &[2]);
        assert_eq!(t.neighbors(3), &[] as &[NodeId]);
        assert_eq!(t.out_degree(0), 2);
    }

    #[test]
    fn incoming_is_the_transpose() {
        let t = sample();
        assert_eq!(t.incoming(2), &[0, 1]);
        assert_eq!(t.incoming(0), &[2]);
        assert_eq!(t.incoming(3), &[] as &[NodeId]);
        assert_eq!(t.in_degree(2), 2);
        // Transpose preserves edge count.
        let total_in: usize = (0..4).map(|u| t.in_degree(u)).sum();
        assert_eq!(total_in, t.edge_count());
    }

    #[test]
    fn round_trip_through_rows() {
        let rows = vec![vec![3, 1], vec![], vec![0, 1, 3], vec![2]];
        let t = Topology::from_rows(&rows);
        assert_eq!(t.to_rows(), rows);
    }

    #[test]
    fn empty_topology() {
        let t = Topology::empty(3);
        assert_eq!(t.len(), 3);
        assert_eq!(t.edge_count(), 0);
        assert_eq!(t.neighbors(1), &[] as &[NodeId]);
        assert_eq!(t.incoming(1), &[] as &[NodeId]);
        let zero = Topology::empty(0);
        assert!(zero.is_empty());
    }

    #[test]
    fn filter_edges_rebuilds_both_csrs() {
        let t = sample();
        let f = t.filter_edges(|_, v| v != 2);
        assert_eq!(f.neighbors(0), &[1]);
        assert_eq!(f.neighbors(1), &[] as &[NodeId]);
        assert_eq!(f.edge_count(), 2);
        assert_eq!(f.incoming(2), &[] as &[NodeId]);
        assert_eq!(f.incoming(0), &[2]);
    }

    #[test]
    fn with_row_replaces_one_peer() {
        let t = sample();
        let r = t.with_row(1, &[0, 3]);
        assert_eq!(r.neighbors(1), &[0, 3]);
        assert_eq!(r.neighbors(0), &[1, 2]);
        assert!(r.incoming(3).contains(&1));
        assert!(!r.incoming(2).contains(&1));
    }

    #[test]
    fn link_table_dedups_and_skips_self_loops() {
        let mut lt = LinkTable::new(3);
        assert!(lt.add(0, 1));
        assert!(!lt.add(0, 1), "duplicate rejected");
        assert!(!lt.add(1, 1), "self loop rejected");
        lt.add_all(2, [0, 0, 1, 2]);
        assert_eq!(lt.row(2), &[0, 1]);
        let t = lt.build();
        assert_eq!(t.edge_count(), 3);
        assert_eq!(t.neighbors(2), &[0, 1]);
    }

    #[test]
    fn link_table_freezes_sorted_rows() {
        let mut lt = LinkTable::new(6);
        lt.add_all(0, [5, 2, 4, 1]);
        lt.add_all(3, [4, 0]);
        let t = lt.build();
        assert!(t.rows_sorted());
        assert_eq!(t.neighbors(0), &[1, 2, 4, 5]);
        assert_eq!(t.neighbors(3), &[0, 4]);
        // Binary-search membership agrees with the linear contract.
        for u in 0..6u32 {
            for v in 0..6u32 {
                assert_eq!(t.has_edge(u, v), t.neighbors(u).contains(&v), "{u}->{v}");
            }
        }
    }

    #[test]
    fn has_edge_on_unsorted_rows_still_scans() {
        // from_rows preserves rows verbatim, so unsorted input must use
        // the linear fallback.
        let t = Topology::from_rows(&[vec![3, 1], vec![], vec![0], vec![]]);
        assert!(!t.rows_sorted());
        assert!(t.has_edge(0, 3));
        assert!(t.has_edge(0, 1));
        assert!(!t.has_edge(0, 2));
    }

    #[test]
    fn sorted_flag_survives_filter_and_with_row() {
        let mut lt = LinkTable::new(5);
        lt.add_all(0, [4, 2, 1]);
        lt.add_all(2, [3, 0]);
        let t = lt.build();
        let f = t.filter_edges(|_, v| v != 2);
        assert!(f.rows_sorted(), "filtering a sorted topology stays sorted");
        assert!(f.has_edge(0, 4));
        assert!(!f.has_edge(0, 2));
        let r = t.with_row(2, &[0, 1, 4]);
        assert!(r.rows_sorted());
        assert!(r.has_edge(2, 4));
    }

    /// A deterministic pseudo-random link table big enough that the
    /// parallel transpose / row-sort paths actually fan out.
    fn big_scrambled_table(n: usize, avg_deg: usize) -> LinkTable {
        let mut lt = LinkTable::new(n);
        let mut state = 0x243f_6a88_85a3_08d3u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for u in 0..n as NodeId {
            let deg = (next() as usize) % (2 * avg_deg + 1);
            for _ in 0..deg {
                lt.add(u, (next() % n as u64) as NodeId);
            }
        }
        lt
    }

    #[test]
    fn parallel_transpose_matches_sequential() {
        // ~20k peers × ~8 edges ≈ 160k edges: past the 2^16 fan-out
        // threshold, so threads > 1 takes the chunked dest-range path.
        let t = big_scrambled_table(20_000, 8).build();
        let n = t.len();
        assert!(t.edge_count() > 1 << 16, "must exercise the parallel path");
        for threads in [2, 3, 7] {
            let mut in_offsets = vec![0u32; n + 1];
            let mut in_edges = vec![0 as NodeId; t.edge_count()];
            transpose_into(
                n,
                t.offsets(),
                t.edges(),
                &mut in_offsets,
                &mut in_edges,
                threads,
            );
            assert_eq!(in_offsets.as_slice(), t.in_offsets(), "threads={threads}");
            assert_eq!(in_edges.as_slice(), t.in_edges(), "threads={threads}");
        }
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let seq = big_scrambled_table(20_000, 8).build();
        for threads in [2, 4] {
            let par = big_scrambled_table(20_000, 8).build_with_threads(threads);
            assert_eq!(par, seq, "threads={threads}");
            assert!(par.rows_sorted());
        }
    }

    #[test]
    fn to_digraph_matches_edges() {
        let t = sample();
        let g = t.to_digraph();
        assert_eq!(g.edge_count(), 4);
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(2, 0));
    }
}
