//! Delta-overlay topology storage: per-peer edge mutations layered over
//! an immutable [`Topology`] base, LSM-style.
//!
//! A [`DeltaStore`] answers row reads exactly like the base topology
//! until a peer's row is touched; touched rows live in a side table
//! keyed by peer id. This is what lets the simulator preload a
//! 10⁶–10⁷-peer overlay straight from a frozen image — zero per-peer
//! allocations at load — while churn, joins, and neighbour refreshes
//! mutate only the (small) delta.
//!
//! ## Row forms
//!
//! A touched row is stored in one of two forms:
//!
//! * **Replaced** — the full row, owned. Produced by [`DeltaStore::set_row`]
//!   and [`DeltaStore::retain_row`] (the simulator's prune/refresh
//!   paths), so the hot read path ([`DeltaStore::row_slice`]) always has
//!   a contiguous `&[NodeId]` to hand to the routing kernels.
//! * **Patched** — add/remove logs against the base row. Produced by
//!   [`DeltaStore::add_edge`] / [`DeltaStore::remove_edge`] when the row
//!   was untouched, costing O(log-entry) instead of O(degree) per
//!   mutation. Reading a patched row requires materialization
//!   ([`DeltaStore::row_into`]): the base row minus the removed targets,
//!   then the added targets in insertion order.
//!
//! Peers past the base's length (joins) are implicit empty rows until
//! written.

use crate::csr::{NodeId, Topology};
use crate::idhash::IdMap;
use crate::prefetch::prefetch_read;

/// One touched row: a full replacement, or add/remove logs against the
/// base row (see module docs for the exact read semantics).
#[derive(Debug, Clone)]
enum DeltaRow {
    Replaced(Vec<NodeId>),
    Patched {
        removed: Vec<NodeId>,
        added: Vec<NodeId>,
    },
}

/// Per-peer edge mutations layered over an immutable base topology.
#[derive(Debug)]
pub struct DeltaStore {
    base: Topology,
    delta: IdMap<NodeId, DeltaRow>,
    n: usize,
}

impl DeltaStore {
    /// Wraps a base topology with an empty delta.
    pub fn new(base: Topology) -> Self {
        let n = base.len();
        DeltaStore {
            base,
            delta: IdMap::default(),
            n,
        }
    }

    /// Number of peers (base peers plus joined ones).
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the store covers no peers.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of touched rows in the delta layer.
    pub fn delta_rows(&self) -> usize {
        self.delta.len()
    }

    /// Total directed edges across all effective rows.
    pub fn edge_count(&self) -> usize {
        let mut m = self.base.edge_count();
        for (&u, row) in &self.delta {
            let base_len = self.base_row(u).len();
            let now = match row {
                DeltaRow::Replaced(r) => r.len(),
                DeltaRow::Patched { removed, added } => base_len - removed.len() + added.len(),
            };
            m = m - base_len + now;
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

    /// Peer `u`'s effective out-degree, without materializing.
    pub fn degree(&self, u: NodeId) -> usize {
        match self.delta.get(&u) {
            None => self.base_row(u).len(),
            Some(DeltaRow::Replaced(r)) => r.len(),
            Some(DeltaRow::Patched { removed, added }) => {
                self.base_row(u).len() - removed.len() + added.len()
            }
        }
    }

    /// Peer `u`'s row as a contiguous slice, when one exists without
    /// materialization: an untouched base row, a replaced row, or an
    /// implicit empty join row. Patched rows return `None` — use
    /// [`DeltaStore::row_into`]. Callers that only mutate through
    /// [`set_row`](Self::set_row) / [`retain_row`](Self::retain_row)
    /// (the simulator) always get `Some`.
    #[inline]
    pub fn row_slice(&self, u: NodeId) -> Option<&[NodeId]> {
        match self.delta.get(&u) {
            None => Some(self.base_row(u)),
            Some(DeltaRow::Replaced(r)) => Some(r),
            Some(DeltaRow::Patched { .. }) => None,
        }
    }

    /// Hints the cache toward the base image's offset pair for `u`: the
    /// first link of the address chain [`DeltaStore::row_slice`] walks
    /// for an untouched row. A hint only — reads nothing, any `u` is
    /// fine.
    #[inline]
    pub fn prefetch_row_bounds(&self, u: NodeId) {
        prefetch_read(self.base.offsets().as_ptr().wrapping_add(u as usize));
    }

    /// Materializes peer `u`'s effective row into `out` (cleared first).
    pub fn row_into(&self, u: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        match self.delta.get(&u) {
            None => out.extend_from_slice(self.base_row(u)),
            Some(DeltaRow::Replaced(r)) => out.extend_from_slice(r),
            Some(DeltaRow::Patched { removed, added }) => {
                out.extend(
                    self.base_row(u)
                        .iter()
                        .copied()
                        .filter(|v| !removed.contains(v)),
                );
                out.extend_from_slice(added);
            }
        }
    }

    /// Replaces peer `u`'s row outright. `row` must be duplicate-free
    /// (the link samplers never draw duplicates): nothing dedups it.
    ///
    /// # Panics
    ///
    /// Panics if `u` is outside the store.
    pub fn set_row(&mut self, u: NodeId, row: Vec<NodeId>) {
        assert!((u as usize) < self.n, "peer outside the store");
        self.delta.insert(u, DeltaRow::Replaced(row));
    }

    /// Keeps only the targets of `u`'s row accepted by `keep`,
    /// preserving order. A slice-backed row that `keep` accepts whole
    /// is left as it is (an untouched base row stays a base read);
    /// otherwise the row is materialized into the delta if needed.
    /// `keep` must be a pure predicate: it may see a target twice.
    pub fn retain_row(&mut self, u: NodeId, mut keep: impl FnMut(&NodeId) -> bool) {
        assert!((u as usize) < self.n, "peer outside the store");
        if self
            .row_slice(u)
            .is_some_and(|row| row.iter().all(&mut keep))
        {
            return;
        }
        self.owned_row(u).retain(keep);
    }

    /// The `Replaced` form of `u`'s row, materializing it on first touch.
    fn owned_row(&mut self, u: NodeId) -> &mut Vec<NodeId> {
        if !matches!(self.delta.get(&u), Some(DeltaRow::Replaced(_))) {
            let mut row = Vec::new();
            self.row_into(u, &mut row);
            self.delta.insert(u, DeltaRow::Replaced(row));
        }
        match self.delta.get_mut(&u).expect("just inserted") {
            DeltaRow::Replaced(r) => r,
            DeltaRow::Patched { .. } => unreachable!("just replaced"),
        }
    }

    /// Adds the edge `u -> v` unless already present. Returns whether
    /// the edge was added. Untouched rows take the O(1)-amortized
    /// patched form; re-adding a removed base edge restores it at its
    /// base position.
    ///
    /// # Panics
    ///
    /// Panics if `u` is outside the store.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        assert!((u as usize) < self.n, "peer outside the store");
        let in_base = self.base_row(u).contains(&v);
        match self.delta.get_mut(&u) {
            Some(DeltaRow::Replaced(r)) => {
                if r.contains(&v) {
                    return false;
                }
                r.push(v);
            }
            Some(DeltaRow::Patched { removed, added }) => {
                if let Some(i) = removed.iter().position(|&x| x == v) {
                    removed.swap_remove(i);
                } else if added.contains(&v) || in_base {
                    return false;
                } else {
                    added.push(v);
                }
            }
            None => {
                if in_base {
                    return false;
                }
                self.delta.insert(
                    u,
                    DeltaRow::Patched {
                        removed: Vec::new(),
                        added: vec![v],
                    },
                );
            }
        }
        true
    }

    /// Removes the edge `u -> v` if present. Returns whether an edge
    /// was removed.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        let in_base = self.base_row(u).contains(&v);
        match self.delta.get_mut(&u) {
            Some(DeltaRow::Replaced(r)) => match r.iter().position(|&x| x == v) {
                Some(i) => {
                    r.remove(i);
                    true
                }
                None => false,
            },
            Some(DeltaRow::Patched { removed, added }) => {
                if let Some(i) = added.iter().position(|&x| x == v) {
                    added.swap_remove(i);
                    true
                } else if !removed.contains(&v) && in_base {
                    removed.push(v);
                    true
                } else {
                    false
                }
            }
            None => {
                if in_base {
                    self.delta.insert(
                        u,
                        DeltaRow::Patched {
                            removed: vec![v],
                            added: Vec::new(),
                        },
                    );
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Appends a joined peer with the given row and returns its id. The
    /// base is untouched; the new row lives in the delta.
    pub fn push_node(&mut self, row: Vec<NodeId>) -> NodeId {
        assert!(self.n < u32::MAX as usize, "peer count exceeds u32 ids");
        let u = self.n as NodeId;
        self.n += 1;
        self.delta.insert(u, DeltaRow::Replaced(row));
        u
    }

    /// Approximate resident bytes: the base image plus the delta rows'
    /// payloads (for the scale experiment's memory accounting).
    pub fn resident_bytes(&self) -> usize {
        let delta: usize = self
            .delta
            .values()
            .map(|row| match row {
                DeltaRow::Replaced(r) => 4 * r.capacity() + 16,
                DeltaRow::Patched { removed, added } => {
                    4 * (removed.capacity() + added.capacity()) + 16
                }
            })
            .sum();
        self.base.resident_bytes() + delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::LinkTable;

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
        assert_eq!(store.row_slice(0).unwrap(), &[1, 3, 4]); // sorted at freeze
        assert_eq!(store.row_slice(2).unwrap(), &[] as &[NodeId]);
        assert_eq!(store.edge_count(), 10);
        assert_eq!(store.delta_rows(), 0);
    }

    #[test]
    fn replace_retain_and_joins() {
        let mut store = DeltaStore::new(base_store());
        store.set_row(0, vec![2, 1]);
        assert_eq!(store.row_slice(0).unwrap(), &[2, 1]);
        store.retain_row(4, |&v| v != 0 && v != 2);
        assert_eq!(store.row_slice(4).unwrap(), &[1, 3]);
        let joined = store.push_node(vec![0, 4]);
        assert_eq!(joined, 5);
        assert_eq!(store.len(), 6);
        assert_eq!(store.row_slice(5).unwrap(), &[0, 4]);
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
            assert_eq!(store.row_slice(u).unwrap(), rebuilt.neighbors(u), "row {u}");
        }
        assert_eq!(store.edge_count(), rebuilt.edge_count());
    }

    #[test]
    fn patched_rows_log_and_materialize() {
        let mut store = DeltaStore::new(base_store());
        assert!(store.remove_edge(0, 3));
        assert!(!store.remove_edge(0, 3), "already removed");
        assert!(store.add_edge(0, 2));
        assert!(!store.add_edge(0, 2), "already added");
        assert!(!store.add_edge(0, 1), "present in base");
        assert!(store.row_slice(0).is_none(), "patched rows materialize");
        let mut row = Vec::new();
        store.row_into(0, &mut row);
        assert_eq!(row, vec![1, 4, 2]);
        assert_eq!(store.degree(0), 3);
        // Re-adding a removed base edge restores it in base position.
        assert!(store.add_edge(0, 3));
        store.row_into(0, &mut row);
        assert_eq!(row, vec![1, 3, 4, 2]);
        // Removing a logged addition cancels the log entry.
        assert!(store.remove_edge(0, 2));
        store.row_into(0, &mut row);
        assert_eq!(row, vec![1, 3, 4]);
    }
}
