//! The key-aligned structure-of-arrays routing table.
//!
//! [`RouteTable`] pairs a frozen CSR topology with a per-edge `f64` lane
//! holding the *ring position of each contact*, stored contiguously next
//! to its CSR edge row. A greedy step over the lanes then scans one
//! contiguous `f64` slice (`pos[offsets[u]..offsets[u+1]]`) — one or
//! two sequential cache lines, which a batch kernel can prefetch a
//! round ahead — instead of gathering `placement.key(v)` per contact
//! through a random-access key array. [`crate::route::greedy_step_soa`]
//! does the scan with constant-trip-count, bounds-check-free inner
//! loops; it is the per-hop decision of the interleaved batch kernel
//! ([`crate::interleaved`]), which routes the simulator's measurement
//! probes too, and of [`RouteTable::step`], the one-hop form
//! `benchmark/` times as `overlay.step.ns`. The simulator's own
//! per-message hop is [`RingView::step`](crate::route::RingView::step)
//! over its live per-peer views.
//!
//! The table is a thin `Arc` handle over one [`Topology`] image that
//! carries the edge lane, so the same frozen lanes are shared (not
//! copied) between the static router, the simulator's probe snapshots
//! and the experiment harness, and a table reopened from disk
//! (`freeze_to` → `open_from`) is the same value a freshly built one is.
//!
//! The slice-based scalar path ([`crate::route::greedy_step`] over
//! `(id, key)` pairs) remains the *reference implementation*: the
//! chunked scan is bit-identical to it by construction, and the
//! interleaved kernel debug-asserts that equivalence on every hop.

use crate::route::greedy_step_soa;
use std::io;
use std::path::Path;
use std::sync::Arc;
use sw_graph::{ArenaWriter, NodeId, Topology};
use sw_keyspace::Key;

/// Key-aligned SoA routing table: CSR contact rows plus the contiguous
/// per-edge position lane the chunked greedy step scans.
///
/// Cloning is an `Arc` bump — snapshots hand the same frozen lanes to
/// every consumer.
#[derive(Debug, Clone)]
pub struct RouteTable {
    store: Arc<Topology>,
}

impl RouteTable {
    /// Builds the table from a frozen topology, resolving each edge
    /// target's ring position through `pos_of` (one gather at freeze
    /// time — never again on the hot path).
    pub fn build(topo: Topology, mut pos_of: impl FnMut(NodeId) -> f64) -> RouteTable {
        let pos: Vec<f64> = topo.edges().iter().map(|&v| pos_of(v)).collect();
        let degrees: Vec<u32> = (0..topo.len() as NodeId)
            .map(|u| topo.out_degree(u) as u32)
            .collect();
        let mut writer = ArenaWriter::from_degrees(&degrees, true, false)
            .expect("a topology's own degrees fit an image");
        writer.fill(1, |slots| {
            let rows = slots.edge_base..slots.edge_base + slots.edges.len();
            slots.edges.copy_from_slice(&topo.edges()[rows.clone()]);
            let lane = slots.edge_pos.expect("declared with an edge lane");
            lane.copy_from_slice(&pos[rows]);
        });
        RouteTable {
            store: Arc::new(writer.finish(1).expect("a filled image seals")),
        }
    }

    /// Wraps an existing topology (e.g. an image reopened from disk).
    ///
    /// # Errors
    ///
    /// Fails if the topology carries no per-edge position lane.
    pub fn from_store(store: Arc<Topology>) -> Result<RouteTable, Arc<Topology>> {
        if store.edge_pos().is_none() {
            return Err(store);
        }
        Ok(RouteTable { store })
    }

    /// The shared topology, edge lane included.
    pub fn store(&self) -> &Arc<Topology> {
        &self.store
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True if the table has no peers.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Total number of contact entries.
    pub fn edge_count(&self) -> usize {
        self.store.edge_count()
    }

    /// Peer `u`'s contact row: ids and their aligned position lanes,
    /// both contiguous slices into the shared arrays.
    #[inline]
    pub fn row(&self, u: NodeId) -> (&[NodeId], &[f64]) {
        let (a, b) = self.store.row_bounds(u);
        (
            &self.store.edges()[a..b],
            &self.store.edge_pos().expect("route table carries lanes")[a..b],
        )
    }

    /// One chunked greedy step at peer `u` toward `target`: the contact
    /// strictly closer than `cur_d` with minimal distance (earliest on
    /// exact ties), or `None` at a local minimum. Bit-identical to the
    /// slice-based reference over the same row. A whole walk goes
    /// through [`route_interleaved`](crate::interleaved::route_interleaved);
    /// this one-hop form is what `overlay.step.ns` prices.
    #[inline]
    pub fn step(
        &self,
        metric: sw_keyspace::Topology,
        u: NodeId,
        target: Key,
        cur_d: f64,
    ) -> Option<(NodeId, f64)> {
        let (ids, pos) = self.row(u);
        greedy_step_soa(metric, target, cur_d, ids, pos)
    }

    /// Resident bytes of the table (adjacency + lanes) — the routing
    /// share of the `bytes_per_peer` metric in `BENCHMARK.json`.
    pub fn resident_bytes(&self) -> usize {
        self.store.resident_bytes()
    }

    /// Freezes the table (and an optional per-node position lane, e.g.
    /// the placement keys) into an image file at `path`.
    pub fn freeze_to(&self, path: impl AsRef<Path>, node_pos: Option<&[f64]>) -> io::Result<()> {
        self.store.freeze_to(path, node_pos)?;
        Ok(())
    }

    /// Reopens a table frozen with [`RouteTable::freeze_to`]: one read
    /// (or map), one allocation, zero per-peer work.
    pub fn open_from(path: impl AsRef<Path>) -> io::Result<RouteTable> {
        let store = Arc::new(Topology::open(path)?);
        RouteTable::from_store(store).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "frozen topology has no per-edge position lane",
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interleaved::{route_interleaved, DEFAULT_INTERLEAVE};
    use crate::placement::Placement;
    use crate::route::{
        greedy_route, survey_queries, Overlay, RouteOptions, RouteResult, TargetModel,
    };
    use crate::symphony::Symphony;
    use sw_keyspace::distribution::{TruncatedPareto, Uniform};
    use sw_keyspace::{Rng, Topology as Metric};

    fn table_of(o: &Symphony) -> RouteTable {
        let p = o.placement().clone();
        RouteTable::build(o.topology().clone(), |v| p.key(v).get())
    }

    fn symphony(n: usize, seed: u64) -> Symphony {
        let mut rng = Rng::new(seed);
        let p = Placement::sample(n, &Uniform, Metric::Ring, &mut rng);
        Symphony::build(p, 4, true, &mut rng)
    }

    #[test]
    fn rows_are_aligned_with_csr_edges() {
        let o = symphony(128, 1);
        let t = table_of(&o);
        for u in 0..128u32 {
            let (ids, pos) = t.row(u);
            assert_eq!(ids, o.contacts(u));
            for (&v, &p) in ids.iter().zip(pos) {
                assert_eq!(p.to_bits(), o.placement().key(v).get().to_bits());
            }
        }
    }

    #[test]
    fn soa_route_is_bit_identical_to_reference() {
        for (seed, dist) in [(7u64, false), (8, true)] {
            let mut rng = Rng::new(seed);
            let p = if dist {
                Placement::sample(
                    512,
                    &TruncatedPareto::new(1.5, 0.02).unwrap(),
                    Metric::Ring,
                    &mut rng,
                )
            } else {
                Placement::sample(512, &Uniform, Metric::Ring, &mut rng)
            };
            let o = Symphony::build(p, 5, true, &mut rng);
            let t = table_of(&o);
            let queries = survey_queries(o.placement(), 400, TargetModel::MemberKeys, &mut rng);
            let opts = RouteOptions::for_n(512);
            let reference: Vec<RouteResult> = queries
                .iter()
                .map(|&(from, target)| {
                    greedy_route(o.placement(), o.topology(), from, target, &opts)
                })
                .collect();
            let over_lanes =
                route_interleaved(o.placement(), &t, &queries, &opts, DEFAULT_INTERLEAVE);
            assert_eq!(reference, over_lanes, "hop sequences must be bit-identical");
        }
    }

    #[test]
    fn freeze_open_round_trip_routes_identically() {
        let o = symphony(256, 3);
        let t = table_of(&o);
        let dir = std::env::temp_dir().join("sw-overlay-soa-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("table.swt");
        let keys: Vec<f64> = o.placement().keys().iter().map(|k| k.get()).collect();
        t.freeze_to(&path, Some(&keys)).unwrap();
        let reopened = RouteTable::open_from(&path).unwrap();
        assert_eq!(reopened.store(), t.store());
        assert_eq!(reopened.store().edge_pos(), t.store().edge_pos());
        let mut rng = Rng::new(4);
        let queries = survey_queries(o.placement(), 200, TargetModel::MemberKeys, &mut rng);
        let opts = RouteOptions::for_n(256);
        let a = route_interleaved(o.placement(), &t, &queries, &opts, DEFAULT_INTERLEAVE);
        let b = route_interleaved(
            o.placement(),
            &reopened,
            &queries,
            &opts,
            DEFAULT_INTERLEAVE,
        );
        assert_eq!(a, b);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn from_store_requires_lanes() {
        let o = symphony(64, 5);
        let store = Arc::new(o.topology().clone());
        assert!(RouteTable::from_store(store).is_err());
    }
}
