//! Delta-overlay topology storage: per-peer edge mutations layered over
//! an immutable [`Topology`] base, LSM-style.
//!
//! A [`DeltaStore`] answers row reads exactly like the base topology
//! until a peer's row is touched. A touched row is copied whole, edited
//! and stored as the peer's entry in a lane indexed by peer, so every
//! read ([`DeltaStore::row_slice`]) is one load of the lane entry (or
//! of the base's offset pair) and a contiguous `&[NodeId]` to hand to
//! the routing kernels: an owned row is the same two-link address chain
//! as a base row. This is what lets the simulator preload a
//! 10⁶–10⁷-peer overlay straight from a frozen image — zero per-peer
//! allocations at load, and no lane at all until the first write. The
//! lane then costs 16 B per peer, and each owned row its ids. The delta
//! is not small for long: churn and joins copy each row they touch, and
//! a neighbour refresh rewrites every live peer's row once per refresh
//! interval, so a run that refreshes ends up holding a copy of every
//! row.
//!
//! Peers past the base's length (joins) are implicit empty rows until
//! written.

use crate::csr::{NodeId, Topology};
use crate::prefetch::prefetch_read;

/// Per-peer edge mutations layered over an immutable base topology.
#[derive(Debug)]
pub struct DeltaStore {
    base: Topology,
    /// `owned[u]` is `u`'s row when the delta owns it, `None` when `u`
    /// reads the base. Empty until the first write, then exactly one
    /// entry per peer; a join that finds it full grows it by an eighth.
    owned: Vec<Option<Box<[NodeId]>>>,
}

impl DeltaStore {
    /// Wraps a base topology with an empty delta.
    pub fn new(base: Topology) -> Self {
        DeltaStore {
            base,
            owned: Vec::new(),
        }
    }

    /// Number of peers (base peers plus joined ones).
    #[inline]
    pub fn len(&self) -> usize {
        if self.owned.is_empty() {
            self.base.len()
        } else {
            self.owned.len()
        }
    }

    /// True if the store covers no peers.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total directed edges across all effective rows.
    pub fn edge_count(&self) -> usize {
        let mut m = self.base.edge_count();
        for (u, row) in (0..).zip(&self.owned) {
            if let Some(row) = row {
                m = m - self.base_row(u).len() + row.len();
            }
        }
        m
    }

    /// The base row for `u` (empty past the base's length).
    #[inline]
    fn base_row(&self, u: NodeId) -> &[NodeId] {
        if (u as usize) < self.base.len() {
            self.base.neighbors(u)
        } else {
            &[]
        }
    }

    /// Peer `u`'s effective out-degree.
    pub fn degree(&self, u: NodeId) -> usize {
        self.row_slice(u).len()
    }

    /// Peer `u`'s row: an untouched base row, a touched row from the
    /// delta, or an implicit empty join row.
    #[inline]
    pub fn row_slice(&self, u: NodeId) -> &[NodeId] {
        match self.owned.get(u as usize) {
            Some(Some(row)) => row,
            _ => self.base_row(u),
        }
    }

    /// Hints the cache toward `u`'s entry in the delta's lane and the
    /// base image's offset pair for `u`: the first link of the address
    /// chain [`DeltaStore::row_slice`] walks, whichever of the two holds
    /// the row. A hint only — reads nothing, any `u` is fine.
    #[inline]
    pub fn prefetch_row_bounds(&self, u: NodeId) {
        if !self.owned.is_empty() {
            prefetch_read(self.owned.as_ptr().wrapping_add(u as usize));
        }
        prefetch_read(self.base.offsets().as_ptr().wrapping_add(u as usize));
    }

    /// Copies peer `u`'s effective row into `out` (cleared first).
    pub fn row_into(&self, u: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend_from_slice(self.row_slice(u));
    }

    /// Replaces peer `u`'s row outright. `row` must be duplicate-free
    /// (the link samplers never draw duplicates): nothing dedups it.
    /// An empty `row` is owned too: `u` reads it, not the base.
    ///
    /// # Panics
    ///
    /// Panics if `u` is outside the store.
    pub fn set_row(&mut self, u: NodeId, row: Vec<NodeId>) {
        assert!((u as usize) < self.len(), "peer outside the store");
        self.lane()[u as usize] = Some(row.into_boxed_slice());
    }

    /// Keeps only the targets of `u`'s row accepted by `keep`,
    /// preserving order. A row that `keep` accepts whole is left as it
    /// is (an untouched base row stays a base read); otherwise the row
    /// is copied, filtered and stored. `keep` must be a pure predicate:
    /// it may see a target twice.
    pub fn retain_row(&mut self, u: NodeId, mut keep: impl FnMut(&NodeId) -> bool) {
        assert!((u as usize) < self.len(), "peer outside the store");
        if self.row_slice(u).iter().all(&mut keep) {
            return;
        }
        self.edit_row(u, |row| row.retain(keep));
    }

    /// Stores a copy of `u`'s effective row after `edit`.
    fn edit_row(&mut self, u: NodeId, edit: impl FnOnce(&mut Vec<NodeId>)) {
        let mut row = self.row_slice(u).to_vec();
        edit(&mut row);
        self.set_row(u, row);
    }

    /// The lane, allocated with one `None` per peer on the first write.
    fn lane(&mut self) -> &mut Vec<Option<Box<[NodeId]>>> {
        if self.owned.is_empty() {
            self.owned = vec![None; self.base.len()];
        }
        &mut self.owned
    }

    /// Adds the edge `u -> v` unless already present, appending it to
    /// the row. Returns whether the edge was added. Each edit copies the
    /// row and stores the copy.
    ///
    /// # Panics
    ///
    /// Panics if `u` is outside the store.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        assert!((u as usize) < self.len(), "peer outside the store");
        if self.row_slice(u).contains(&v) {
            return false;
        }
        self.edit_row(u, |row| row.push(v));
        true
    }

    /// Removes the edge `u -> v` if present, keeping the row's order.
    /// Returns whether an edge was removed.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        let Some(i) = self.row_slice(u).iter().position(|&x| x == v) else {
            return false;
        };
        self.edit_row(u, |row| {
            row.remove(i);
        });
        true
    }

    /// Appends a joined peer with the given row and returns its id. The
    /// base is untouched; the new row lives in the delta.
    pub fn push_node(&mut self, row: Vec<NodeId>) -> NodeId {
        let u = self.len();
        assert!(u < u32::MAX as usize, "peer count exceeds u32 ids");
        let owned = self.lane();
        // A full lane grows by an eighth, not double. On the benchmark's
        // `churn_storage`, where the lane is under a megabyte, a
        // doubling `push` read `peak_rss_mb` 2 MB higher on four of ten
        // seeds; at 10⁶ peers the two read the same.
        if owned.len() == owned.capacity() {
            owned.reserve_exact(owned.len() / 8 + 1);
        }
        owned.push(Some(row.into_boxed_slice()));
        u as NodeId
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::LinkTable;

    impl DeltaStore {
        /// Number of touched rows in the delta layer.
        fn delta_rows(&self) -> usize {
            self.owned.iter().filter(|row| row.is_some()).count()
        }
    }

    fn base_store() -> Topology {
        let mut lt = LinkTable::new(5);
        lt.add_all(0, [3, 1, 4]);
        lt.add_all(1, [2]);
        lt.add_all(3, [0, 2]);
        lt.add_all(4, [1, 0, 2, 3]);
        lt.build()
    }

    #[test]
    fn untouched_rows_read_through() {
        let store = DeltaStore::new(base_store());
        assert_eq!(store.len(), 5);
        assert_eq!(store.row_slice(0), &[1, 3, 4]); // sorted at freeze
        assert_eq!(store.row_slice(2), &[] as &[NodeId]);
        assert_eq!(store.edge_count(), 10);
        assert_eq!(store.delta_rows(), 0);
        assert!(store.owned.is_empty(), "reads allocate no lane");
    }

    #[test]
    fn a_join_can_be_the_first_write() {
        let mut store = DeltaStore::new(base_store());
        assert_eq!(store.push_node(vec![1]), 5);
        assert_eq!(store.owned.len(), 6, "the lane covers the joined peer");
        assert_eq!(store.push_node(vec![]), 6);
        assert!(store.add_edge(6, 0));
        assert_eq!(store.row_slice(5), &[1]);
        assert_eq!(store.row_slice(6), &[0]);
        assert_eq!(store.row_slice(0), &[1, 3, 4], "base rows read through");
        assert_eq!((store.delta_rows(), store.edge_count()), (2, 12));
    }

    #[test]
    fn replace_retain_and_joins() {
        let mut store = DeltaStore::new(base_store());
        store.set_row(0, vec![2, 1]);
        assert_eq!(store.row_slice(0), &[2, 1]);
        store.retain_row(4, |&v| v != 0 && v != 2);
        assert_eq!(store.row_slice(4), &[1, 3]);
        let joined = store.push_node(vec![0, 4]);
        assert_eq!(joined, 5);
        assert_eq!(store.len(), 6);
        assert_eq!(store.row_slice(5), &[0, 4]);
        // Per-row degrees 2, 1, 0, 2, 2, 2 (row 2 is empty in the base).
        assert_eq!(store.edge_count(), 9);
    }

    #[test]
    fn retain_that_keeps_every_target_touches_no_row() {
        let mut store = DeltaStore::new(base_store());
        for u in 0..5 {
            store.retain_row(u, |_| true);
        }
        store.retain_row(3, |&v| v != 1); // 1 is not in row 3
        assert_eq!(store.delta_rows(), 0, "no-op retains stay base reads");
        assert!(store.owned.is_empty(), "and allocate no lane");

        // A removing retain still reads like the `LinkTable` rebuild.
        store.retain_row(4, |&v| v != 2);
        store.retain_row(0, |&v| v != 4);
        assert_eq!(store.delta_rows(), 2);
        let mut lt = LinkTable::new(5);
        lt.add_all(0, [3, 1]);
        lt.add_all(1, [2]);
        lt.add_all(3, [0, 2]);
        lt.add_all(4, [1, 0, 3]);
        let rebuilt = lt.build();
        for u in 0..5 {
            assert_eq!(store.row_slice(u), rebuilt.neighbors(u), "row {u}");
        }
        assert_eq!(store.edge_count(), rebuilt.edge_count());
    }

    #[test]
    fn edge_edits_copy_the_row_once_and_keep_its_order() {
        let mut store = DeltaStore::new(base_store());
        let mut row = Vec::new();
        let mut check = |store: &DeltaStore, u: NodeId, expect: &[NodeId], touched: usize| {
            store.row_into(u, &mut row);
            assert_eq!(row, expect, "row_into {u}");
            assert_eq!(store.row_slice(u), expect, "row_slice {u}");
            assert_eq!(store.degree(u), expect.len(), "degree {u}");
            assert_eq!(store.delta_rows(), touched);
        };
        // Refused edits leave every row a base read.
        assert!(!store.add_edge(0, 1), "already present");
        assert!(!store.remove_edge(0, 2), "absent");
        assert!(!store.remove_edge(2, 0), "absent from an empty row");
        check(&store, 0, &[1, 3, 4], 0);

        // The first edit copies the base row; later edits reuse the copy.
        assert!(store.remove_edge(0, 3));
        check(&store, 0, &[1, 4], 1);
        assert!(!store.remove_edge(0, 3), "absent");
        assert!(store.add_edge(0, 2));
        check(&store, 0, &[1, 4, 2], 1);
        assert!(!store.add_edge(0, 2), "already present");
        // A re-added base edge is appended, not put back in base order.
        assert!(store.add_edge(0, 3));
        check(&store, 0, &[1, 4, 2, 3], 1);
        assert!(store.remove_edge(0, 4));
        check(&store, 0, &[1, 2, 3], 1);

        // An add to an empty base row, then a second touched row.
        assert!(store.add_edge(2, 4));
        check(&store, 2, &[4], 2);
        assert!(store.remove_edge(3, 0));
        check(&store, 3, &[2], 3);
        assert!(store.remove_edge(3, 2));
        check(&store, 3, &[], 3);
        // Base 10 edges: row 0 is 3 -> 3, row 2 is 0 -> 1, row 3 is 2 -> 0.
        assert_eq!(store.edge_count(), 9);
    }
}
