//! The one topology type: a flat CSR (compressed sparse row) adjacency
//! held in its frozen `SWTOPO` image.
//!
//! A [`Topology`] packs all outgoing edges into one `edges` section
//! indexed by an `offsets` section (`n + 1` entries), plus optional
//! per-edge / per-node `f64` lanes — all inside one 8-byte-aligned
//! image (the format is [`crate::store`]'s), owned or file-mapped.
//! Neighbour access is a contiguous slice read with no allocation and
//! no per-peer heap block.
//!
//! Every constructor here counts degrees and fills through
//! [`ArenaWriter`], and [`Topology::open`] reads a frozen image back,
//! so a topology built in memory and one reopened from disk are the
//! same value read by the same code: nothing ever unpacks an image onto
//! the heap.
//!
//! [`LinkTable`] collects per-peer rows (with in-row deduplication and
//! self-loop filtering) in any order and then freezes them into a
//! [`Topology`]: the classic overlays assemble their contact tables
//! with it, and the simulator its live snapshots.

use crate::store::{
    self, section, ImageBuf, Layout, FLAG_EDGE_POS, FLAG_NODE_POS, FLAG_SORTED, HEADER_WORDS,
};
use crate::writer::ArenaWriter;
use std::io;
use std::path::Path;

/// Dense peer index (`0..n`): `u32` keeps the `edges` section at four
/// bytes per contact.
pub type NodeId = u32;

/// Flat CSR adjacency of a fixed peer set — outgoing edges plus
/// optional `f64` lanes — in one `SWTOPO` image, owned or mapped.
///
/// Equality is graph equality: the `offsets` and `edges` sections. The
/// lanes are payload, compared through [`Topology::edge_pos`] /
/// [`Topology::node_pos`], and whole images through
/// [`Topology::as_bytes`].
pub struct Topology {
    n: usize,
    m: usize,
    flags: u64,
    layout: Layout,
    buf: ImageBuf,
}

impl Topology {
    /// Wraps an image after [`store::check_header`] and — when
    /// `full_check` — [`store::check_sections`]. `open` always runs
    /// both; the writer runs the `O(m)` scans in debug builds only (it
    /// establishes them by construction).
    pub(crate) fn from_image(buf: ImageBuf, full_check: bool) -> io::Result<Topology> {
        let (n, m, flags, layout) = store::check_header(&buf)?;
        let topo = Topology {
            n,
            m,
            flags,
            layout,
            buf,
        };
        if full_check {
            store::check_sections(&topo)?;
        }
        Ok(topo)
    }

    /// Reopens an image frozen with [`Topology::freeze_to`] (or written
    /// in place by `build_frozen`). On 64-bit unix the file is
    /// memory-mapped, not read — no copy, the validation scans fault
    /// each page in once; a target without file mappings reads it into
    /// one allocation. Either way the image is validated (header,
    /// length, offset monotonicity, edge-target range) before it is
    /// returned, so a damaged file is an `Err`, never a panic.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Topology> {
        let file = std::fs::File::open(path)?;
        let len = file.metadata()?.len();
        if !len.is_multiple_of(8) || len < (HEADER_WORDS * 8) as u64 {
            return Err(store::bad_format("file length is not a whole image"));
        }
        let len = len as usize;
        #[cfg(all(unix, target_pointer_width = "64"))]
        let buf = ImageBuf::Mapped(store::mapping::Mapping::map(&file, len)?);
        #[cfg(not(all(unix, target_pointer_width = "64")))]
        let buf = {
            use std::io::Read as _;
            let mut words = vec![0u64; len / 8].into_boxed_slice();
            (&file).read_exact(store::section_mut::<u8>(&mut words, 0, len))?;
            ImageBuf::Owned(words)
        };
        Topology::from_image(buf, true)
    }

    /// Writes the image to `path` — one `write`, the memory image *is*
    /// the file format — with `node_pos` as its per-node lane if given.
    /// An image already carrying exactly that lane (or given none) is
    /// written as it is; otherwise the rows are re-filled through the
    /// writer with the lane swapped in.
    ///
    /// # Panics
    ///
    /// Panics if `node_pos` does not hold one entry per peer.
    pub fn freeze_to(&self, path: impl AsRef<Path>, node_pos: Option<&[f64]>) -> io::Result<()> {
        match node_pos {
            Some(p) if self.node_pos() != Some(p) => self.with_node_pos(p).freeze_to(path, None),
            _ => std::fs::write(path, self.as_bytes()),
        }
    }

    /// This topology with `node_pos` as its per-node lane (rows and edge
    /// lane copied), filled through the writer.
    fn with_node_pos(&self, node_pos: &[f64]) -> Topology {
        assert_eq!(
            node_pos.len(),
            self.n,
            "node_pos must have one lane per node"
        );
        let edge_pos = self.edge_pos();
        let mut writer = ArenaWriter::from_degrees(&self.degrees(), edge_pos.is_some(), true)
            .expect("a topology's own degrees fit an image");
        writer.fill(1, |slots| {
            let rows = slots.edge_base..slots.edge_base + slots.edges.len();
            slots.edges.copy_from_slice(&self.edges()[rows.clone()]);
            if let (Some(dst), Some(src)) = (slots.edge_pos, edge_pos) {
                dst.copy_from_slice(&src[rows]);
            }
            if let Some(dst) = slots.node_pos {
                dst.copy_from_slice(&node_pos[slots.range]);
            }
        });
        writer.finish(1).expect("a filled image seals")
    }

    /// The whole image — exactly the bytes [`Topology::freeze_to`] puts
    /// on disk, so two images are interchangeable iff their `as_bytes`
    /// agree (the construction byte-identity tests compare this).
    pub fn as_bytes(&self) -> &[u8] {
        section(&self.buf, 0, self.buf.len() * 8)
    }

    /// Size of the whole image in bytes (adjacency, lanes and header) —
    /// the `bytes/peer` number the scale experiment reports.
    pub fn resident_bytes(&self) -> usize {
        self.buf.len() * 8
    }

    /// An edgeless topology over `n` peers.
    pub fn empty(n: usize) -> Topology {
        Self::from_row_slices(n, |_| &[])
    }

    /// Packs per-peer adjacency rows into CSR form (rows are borrowed,
    /// not consumed, and kept verbatim — order and duplicates included).
    ///
    /// # Panics
    ///
    /// Panics if any edge target is out of range or the total edge count
    /// overflows `u32` (≈ 4·10⁹ edges — far past the workspace's scale).
    pub fn from_rows(rows: &[Vec<NodeId>]) -> Topology {
        Self::from_row_slices(rows.len(), |u| &rows[u])
    }

    /// Generalized CSR packing: `row(u)` yields peer `u`'s out-edges.
    /// Degrees are counted, the writer lays the image out, and each row
    /// is copied into its final place.
    fn from_row_slices<'a, F>(n: usize, row: F) -> Topology
    where
        F: Fn(usize) -> &'a [NodeId] + Sync,
    {
        let degrees: Vec<u32> = (0..n)
            .map(|u| u32::try_from(row(u).len()).expect("edge count fits u32"))
            .collect();
        let mut writer =
            ArenaWriter::from_degrees(&degrees, false, false).expect("edge count fits u32");
        writer.fill(1, |slots| {
            for u in slots.range.clone() {
                let r = slots.row_bounds(u);
                slots.edges[r].copy_from_slice(row(u));
            }
        });
        writer.finish(1).expect("a filled image seals")
    }

    /// Number of peers.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the topology has no peers.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Total number of directed edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.m
    }

    /// Raw out-edge offsets (`n + 1` entries) — the flat section the SoA
    /// routing kernels index directly.
    #[inline]
    pub fn offsets(&self) -> &[u32] {
        self.u32s(self.layout.offsets, self.n + 1)
    }

    /// Raw out-edge section, grouped by source peer.
    #[inline]
    pub fn edges(&self) -> &[NodeId] {
        self.u32s(self.layout.edges, self.m)
    }

    #[inline]
    fn u32s(&self, word: usize, len: usize) -> &[u32] {
        section(&self.buf, word, len)
    }

    /// The per-edge `f64` lane (ring positions of edge targets, aligned
    /// index-for-index with [`Topology::edges`]), if the image has one.
    #[inline]
    pub fn edge_pos(&self) -> Option<&[f64]> {
        self.lane(FLAG_EDGE_POS, self.layout.edge_pos, self.m)
    }

    /// The per-node `f64` lane (peer keys), if the image has one.
    #[inline]
    pub fn node_pos(&self) -> Option<&[f64]> {
        self.lane(FLAG_NODE_POS, self.layout.node_pos, self.n)
    }

    #[inline]
    fn lane(&self, flag: u64, word: usize, len: usize) -> Option<&[f64]> {
        (self.flags & flag != 0).then(|| section(&self.buf, word, len))
    }

    /// True when every edge row is sorted ascending: the flag
    /// [`ArenaWriter::finish`]'s scan sets on every image whose rows
    /// are.
    pub fn rows_sorted(&self) -> bool {
        self.flags & FLAG_SORTED != 0
    }

    /// The edge-index bounds of peer `u`'s row (indexes both `edges()`
    /// and `edge_pos()`).
    #[inline]
    pub fn row_bounds(&self, u: NodeId) -> (usize, usize) {
        let offs = self.offsets();
        (offs[u as usize] as usize, offs[u as usize + 1] as usize)
    }

    /// Outgoing neighbours of `u` — a contiguous slice, no allocation.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        let (a, b) = self.row_bounds(u);
        &self.edges()[a..b]
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        let (a, b) = self.row_bounds(u);
        b - a
    }

    /// Every peer's out-degree, in peer order (what a writer is sized by).
    fn degrees(&self) -> Vec<u32> {
        self.offsets().windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// True if the edge `u → v` exists. Sorted rows
    /// ([`Topology::rows_sorted`]) are binary-searched; topologies packed
    /// from unsorted rows fall back to the linear scan.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if self.rows_sorted() {
            self.neighbors(u).binary_search(&v).is_ok()
        } else {
            self.neighbors(u).contains(&v)
        }
    }

    /// Mean out-degree.
    pub fn avg_out_degree(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.m as f64 / self.n as f64
        }
    }

    /// Largest out-degree.
    pub fn max_out_degree(&self) -> usize {
        (0..self.len() as NodeId)
            .map(|u| self.out_degree(u))
            .max()
            .unwrap_or(0)
    }

    /// Unpacks back into per-peer rows (the inverse of [`from_rows`]).
    ///
    /// [`from_rows`]: Topology::from_rows
    pub fn to_rows(&self) -> Vec<Vec<NodeId>> {
        (0..self.len() as NodeId)
            .map(|u| self.neighbors(u).to_vec())
            .collect()
    }

    /// A copy with only the edges `keep(u, v)` accepts (lanes dropped),
    /// rebuilt in one pass.
    pub fn filter_edges(&self, mut keep: impl FnMut(NodeId, NodeId) -> bool) -> Topology {
        let n = self.len();
        let mut ends = Vec::with_capacity(n + 1);
        let mut kept = Vec::with_capacity(self.m);
        ends.push(0);
        for u in 0..n as NodeId {
            kept.extend(self.neighbors(u).iter().copied().filter(|&v| keep(u, v)));
            ends.push(kept.len());
        }
        Topology::from_row_slices(n, |u| &kept[ends[u]..ends[u + 1]])
    }

    /// A copy with peer `u`'s row replaced (used by link refresh paths;
    /// rebuilds the image — `O(n + m)`, fine for maintenance operations).
    pub fn with_row(&self, u: NodeId, new_row: &[NodeId]) -> Topology {
        Topology::from_row_slices(self.len(), |w| {
            if w == u as usize {
                new_row
            } else {
                self.neighbors(w as NodeId)
            }
        })
    }
}

impl Clone for Topology {
    /// An owned copy of the image (a mapped image's clone lives on the
    /// heap).
    fn clone(&self) -> Topology {
        Topology {
            buf: ImageBuf::Owned(self.buf.to_vec().into_boxed_slice()),
            ..*self
        }
    }
}

impl PartialEq for Topology {
    fn eq(&self, other: &Topology) -> bool {
        self.offsets() == other.offsets() && self.edges() == other.edges()
    }
}

impl Eq for Topology {}

impl std::fmt::Debug for Topology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Topology")
            .field("n", &self.n)
            .field("m", &self.m)
            .field("flags", &self.flags)
            .field("bytes", &self.resident_bytes())
            .finish()
    }
}

/// Construction-time row builder for the classic overlays' contact
/// tables and the simulator's live snapshots.
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
    /// binary search and frozen images carry the sorted flag. (Row
    /// order was never part of the routing contract — greedy selection
    /// ranks by distance — so sorting here only changes which of two
    /// *exactly* equidistant contacts wins a tie.)
    pub fn build(mut self) -> Topology {
        for row in &mut self.rows {
            row.sort_unstable();
        }
        Topology::from_rows(&self.rows)
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
    }

    #[test]
    fn with_row_replaces_one_peer() {
        let t = sample();
        let r = t.with_row(1, &[0, 3]);
        assert_eq!(r.neighbors(1), &[0, 3]);
        assert_eq!(r.neighbors(0), &[1, 2]);
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
}
