//! The constructed small-world overlay: placement + neighbour edges +
//! long-range links, stored as two flat CSR images (owned or mapped).

use crate::builder::{contact_image, BuildProfile};
use crate::config::SmallWorldConfig;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use sw_graph::csr::Topology as CsrTopology;
use sw_graph::NodeId;
use sw_keyspace::distribution::KeyDistribution;
use sw_keyspace::{Key, Rng, Topology};
use sw_overlay::route::{RouteOptions, RouteResult, RoutingSurvey, TargetModel};
use sw_overlay::soa::RouteTable;
use sw_overlay::{Overlay, Placement};

/// File holding the frozen contact CSR + per-edge ring-position lane +
/// per-node keys inside a [`SmallWorldNetwork::freeze_to`] directory.
pub(crate) const CONTACTS_FILE: &str = "contacts.swt";
/// File holding the frozen long-link CSR.
pub(crate) const LONG_FILE: &str = "long.swt";

/// A small-world network per the paper's construction: every peer has its
/// interval/ring neighbours (keeping the graph connected, §3) plus the
/// sampled long-range links.
///
/// The full contact table (neighbour edges + long links, the rows greedy
/// routing reads) lives in a key-aligned SoA [`RouteTable`]: one flat
/// CSR plus a per-edge ring-position lane and the per-node keys, written
/// once by the builder's one contact-image function (`contact_image`).
/// A freshly built network owns that image (or, from `build_frozen`,
/// maps the files it was written into);
/// [`SmallWorldNetwork::open_from`] holds the one it read (or mapped)
/// from disk — the same type read by the same code, so one lookup walks
/// the id rows with the reference walk and a batch goes through the
/// interleaved kernel over the lanes at every size. The long-link CSR
/// is a second image, for the maintenance/refresh APIs.
#[derive(Clone)]
pub struct SmallWorldNetwork {
    placement: Placement,
    /// The density used for link construction (the *assumed* `f̂`).
    assumed: Arc<dyn KeyDistribution>,
    config: SmallWorldConfig,
    /// Long-range links only (CSR, one outgoing row per peer).
    long: CsrTopology,
    /// Full routing table: neighbours + long links, with the
    /// key-aligned position lanes.
    route_table: RouteTable,
    /// Display label, e.g. `"sw(uniform,exact)"`.
    label: String,
    /// Stage timings of the build that produced the network.
    profile: Option<BuildProfile>,
}

impl std::fmt::Debug for SmallWorldNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SmallWorldNetwork")
            .field("n", &self.placement.len())
            .field("label", &self.label)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl SmallWorldNetwork {
    /// Assembles a network from its two images; the label is
    /// `sw(assumed,sampler)`. No per-edge work happens here: the contact
    /// image, written by [`contact_image`] or frozen from it, already
    /// carries its key lanes.
    ///
    /// # Panics
    ///
    /// Panics if `contacts` carries no per-edge position lane.
    pub(crate) fn from_contact_image(
        placement: Placement,
        assumed: Arc<dyn KeyDistribution>,
        config: SmallWorldConfig,
        contacts: CsrTopology,
        long: CsrTopology,
        profile: Option<BuildProfile>,
    ) -> Self {
        SmallWorldNetwork {
            label: format!("sw({},{})", assumed.name(), config.sampler.label()),
            placement,
            assumed,
            config,
            long,
            route_table: route_table(contacts),
            profile,
        }
    }

    /// Replaces the long-link topology and rebuilds the contact image
    /// from it.
    fn set_long_topology(&mut self, long: CsrTopology) {
        self.route_table = route_table(contacts_in_memory(&self.placement, &long));
        self.long = long;
    }

    /// Assembles a network from explicit parts: a placement, the density
    /// to treat as `f̂`, and per-peer long-link lists.
    ///
    /// This is the link-transport constructor used by the Figure 1/2
    /// equivalence experiment (E9): build `G′` in the normalized space,
    /// then re-attach its links to the original skewed placement. E10
    /// uses it to freeze a simulator-grown overlay (`live_overlay`).
    ///
    /// # Panics
    ///
    /// Panics if `long.len() != placement.len()`, or if a row holds an
    /// id out of range, links its peer to itself or names a target
    /// twice.
    pub fn with_links(
        placement: Placement,
        assumed: Arc<dyn KeyDistribution>,
        config: SmallWorldConfig,
        long: Vec<Vec<NodeId>>,
        label: impl Into<String>,
    ) -> Self {
        assert_eq!(long.len(), placement.len(), "one link list per peer");
        check_long_rows(placement.len(), &long);
        let long = CsrTopology::from_rows(&long);
        let contacts = contacts_in_memory(&placement, &long);
        let mut net = Self::from_contact_image(placement, assumed, config, contacts, long, None);
        net.label = label.into();
        net
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.placement.len()
    }

    /// True if the network has no peers (never for a built network).
    pub fn is_empty(&self) -> bool {
        self.placement.is_empty()
    }

    /// Where the build's wall-clock went, stage by stage: `Some` for a
    /// network from [`SmallWorldBuilder`](crate::SmallWorldBuilder),
    /// `None` for one from [`SmallWorldNetwork::with_links`] or
    /// [`SmallWorldNetwork::open_from`].
    pub fn build_profile(&self) -> Option<BuildProfile> {
        self.profile
    }

    /// The construction configuration.
    pub fn config(&self) -> &SmallWorldConfig {
        &self.config
    }

    /// The density assumed during link construction.
    pub fn assumed(&self) -> &Arc<dyn KeyDistribution> {
        &self.assumed
    }

    /// The long-link topology (each peer's outgoing links).
    pub fn long_topology(&self) -> &CsrTopology {
        &self.long
    }

    /// Outgoing long-range links of peer `u`.
    pub fn long_links(&self, u: NodeId) -> &[NodeId] {
        self.long.neighbors(u)
    }

    /// Mass distance between two peers in the assumed normalized space
    /// (wrapping on the ring): `|F̂(key_v) − F̂(key_u)|`, evaluated on
    /// demand.
    #[inline]
    pub fn mass_between(&self, u: NodeId, v: NodeId) -> f64 {
        let pos = |w: NodeId| self.assumed.cdf(self.placement.key(w).get());
        let d = (pos(v) - pos(u)).abs();
        match self.placement.topology() {
            Topology::Interval => d,
            Topology::Ring => d.min(1.0 - d),
        }
    }

    /// Replaces every peer's long links at once (bulk refresh; rebuilds
    /// both CSR tables a single time).
    ///
    /// # Panics
    ///
    /// Panics if `links.len() != self.len()`, or if a row holds an id
    /// out of range, links its peer to itself or names a target twice.
    pub fn set_all_long_links(&mut self, links: Vec<Vec<NodeId>>) {
        assert_eq!(links.len(), self.placement.len(), "one link list per peer");
        check_long_rows(self.len(), &links);
        self.set_long_topology(CsrTopology::from_rows(&links));
    }

    /// Removes each long link independently with probability `fraction`
    /// (neighbour edges are structural and survive). Returns how many
    /// links were dropped. This is the §3.1 robustness experiment E7.
    pub fn drop_random_long_links(&mut self, fraction: f64, rng: &mut Rng) -> usize {
        let before = self.long.edge_count();
        let filtered = self.long.filter_edges(|_, _| !rng.chance(fraction));
        let dropped = before - filtered.edge_count();
        self.set_long_topology(filtered);
        dropped
    }

    /// Total number of long links in the network.
    pub fn total_long_links(&self) -> usize {
        self.long.edge_count()
    }

    /// Convenience survey: `queries` member-key lookups from random
    /// sources.
    pub fn routing_survey(&self, queries: usize, rng: &mut Rng) -> RoutingSurvey {
        RoutingSurvey::run(self, queries, TargetModel::MemberKeys, rng)
    }

    /// The key-aligned SoA routing table greedy routing scans (shared by
    /// `Arc` — cloning the handle shares the lanes).
    pub fn route_table(&self) -> &RouteTable {
        &self.route_table
    }

    /// Resident bytes of the routing state (contact image with its
    /// position lane + long-link image) — the `bytes/peer` accounting
    /// `examples/large_scale.rs` prints; the on-disk counterpart is the
    /// `bytes_per_peer` metric in `BENCHMARK.json`.
    pub fn resident_bytes(&self) -> usize {
        self.route_table.resident_bytes() + self.long.resident_bytes()
    }

    /// Freezes the overlay into two image files under `dir` (created if
    /// missing): `contacts.swt` holds the contact CSR, the per-edge
    /// ring-position lane and the per-node keys; `long.swt` holds the
    /// long-link CSR. A 10⁷-peer overlay is built once, frozen, and
    /// every later process reopens it with
    /// [`SmallWorldNetwork::open_from`] without re-sampling a single
    /// link (the routing table itself loads zero-copy).
    ///
    /// The construction *configuration* and the assumed density are not
    /// serialized — the caller supplies the same ones on reopen (they
    /// are code, not data).
    pub fn freeze_to(&self, dir: impl AsRef<Path>) -> io::Result<()> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        self.route_table
            .store()
            .freeze_to(dir.join(CONTACTS_FILE), None)?;
        self.long.freeze_to(dir.join(LONG_FILE), None)
    }

    /// Reopens a network frozen with [`SmallWorldNetwork::freeze_to`].
    ///
    /// Both images are used as opened (a lazy mapping each on 64-bit
    /// unix, one allocation each elsewhere — with zero per-edge work
    /// and no unpacking): the contact image is the routing table,
    /// the long image the long-link topology the maintenance APIs
    /// (refresh, link drops) read. The rest of the reopen is O(n) and
    /// rebuild-free — the placement is rebuilt from the frozen per-node
    /// keys; none of the per-peer link *sampling* reruns, which is why
    /// reopen (`core.network.open_s` in `BENCHMARK.json`) is a small
    /// fraction of construction time (`core.builder.build_frozen_s`).
    /// Routing over the reopened network is bit-identical to routing
    /// over the original.
    pub fn open_from(
        dir: impl AsRef<Path>,
        config: SmallWorldConfig,
        assumed: Arc<dyn KeyDistribution>,
    ) -> io::Result<SmallWorldNetwork> {
        let dir = dir.as_ref();
        // Topology::open maps the file on every 64-bit unix target.
        let contacts = CsrTopology::open(dir.join(CONTACTS_FILE))?;
        let node_pos = contacts.node_pos().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "frozen overlay carries no per-node keys",
            )
        })?;
        // Key::clamped is the identity on stored keys (they were valid
        // [0, 1) values), so the placement is bit-identical.
        let keys: Vec<Key> = node_pos.iter().map(|&p| Key::clamped(p)).collect();
        let placement = Placement::from_keys(keys, config.topology, assumed.name())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        if contacts.edge_pos().is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "frozen overlay carries no per-edge position lane",
            ));
        }
        let long = CsrTopology::open(dir.join(LONG_FILE))?;
        Ok(Self::from_contact_image(
            placement, assumed, config, contacts, long, None,
        ))
    }
}

/// Wraps a contact image as the routing table: one [`contact_image`]
/// wrote, or one `open_from` checked for its edge lane.
fn route_table(contacts: CsrTopology) -> RouteTable {
    RouteTable::from_store(Arc::new(contacts))
        .unwrap_or_else(|_| panic!("contact image carries no per-edge position lane"))
}

/// [`contact_image`] over a long image held in memory, into a heap
/// buffer (worker threads auto, stage timings discarded).
fn contacts_in_memory(placement: &Placement, long: &CsrTopology) -> CsrTopology {
    let stages = (&mut Instant::now(), &mut BuildProfile::default());
    contact_image(placement, long, 0, None, stages).expect("an in-memory contact image seals")
}

/// [`check_long_row`] for every peer's row.
fn check_long_rows(n: usize, rows: &[Vec<NodeId>]) {
    for (u, row) in rows.iter().enumerate() {
        check_long_row(n, u as NodeId, row);
    }
}

/// The one check on long rows from outside the builder: peer `u` of an
/// `n`-peer network and every target are ids below `n`, and no target
/// is `u` or repeats. [`contact_image`] counts each contact row's
/// degree on these terms.
fn check_long_row(n: usize, u: NodeId, row: &[NodeId]) {
    assert!((u as usize) < n, "peer {u} out of range for {n} peers");
    for (i, &v) in row.iter().enumerate() {
        assert!(
            (v as usize) < n,
            "peer {u}: link id {v} out of range for {n} peers"
        );
        assert_ne!(v, u, "peer {u}: self link");
        assert!(!row[..i].contains(&v), "peer {u}: duplicate link {v}");
    }
}

impl Overlay for SmallWorldNetwork {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The route table's own image — a reference, never a copy — so
    /// [`Overlay::contacts`] and the reference walk read the rows the
    /// batch kernel scans, built or reopened.
    fn topology(&self) -> &CsrTopology {
        self.route_table.store()
    }

    /// A batch is always the interleaved AMAC kernel over the table's
    /// position lanes. It is bit-identical to looping
    /// [`Overlay::route`], so `route_batch` results do not depend on how
    /// the workload was chunked.
    fn route_chunk(&self, queries: &[(NodeId, Key)], opts: &RouteOptions) -> Vec<RouteResult> {
        sw_overlay::route_interleaved(
            &self.placement,
            &self.route_table,
            queries,
            opts,
            sw_overlay::DEFAULT_INTERLEAVE,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SmallWorldBuilder;

    fn small_net(n: usize, seed: u64) -> SmallWorldNetwork {
        let mut rng = Rng::new(seed);
        SmallWorldBuilder::new(n).build(&mut rng).unwrap()
    }

    #[test]
    fn contacts_contain_neighbours_and_links() {
        let net = small_net(256, 1);
        // Interior peer on the interval: two neighbours + log2(256) = 8.
        let c = net.contacts(100);
        assert!(c.contains(&99));
        assert!(c.contains(&101));
        assert!(c.len() >= 8, "contacts {}", c.len());
    }

    #[test]
    fn boundary_peers_have_one_neighbour() {
        let net = small_net(128, 2);
        let c0 = net.contacts(0);
        assert!(c0.contains(&1));
        assert!(!c0.contains(&127), "interval does not wrap");
    }

    #[test]
    fn drop_links_counts_and_removes() {
        let mut net = small_net(256, 4);
        let before = net.total_long_links();
        let mut rng = Rng::new(5);
        let dropped = net.drop_random_long_links(0.5, &mut rng);
        assert_eq!(before - net.total_long_links(), dropped);
        assert!(dropped > before / 3 && dropped < 2 * before / 3);
    }

    #[test]
    fn set_all_long_links_updates_incoming_and_contacts() {
        let mut net = small_net(64, 6);
        let mut rows = net.long_topology().to_rows();
        rows[0] = vec![42];
        net.set_all_long_links(rows);
        assert_eq!(net.long_links(0), &[42]);
        assert!(net.contacts(0).contains(&42));
    }

    #[test]
    #[should_panic(expected = "peer 0: duplicate link 42")]
    fn set_all_long_links_rejects_a_duplicate() {
        let mut rows = vec![vec![]; 64];
        rows[0] = vec![42, 42];
        small_net(64, 6).set_all_long_links(rows);
    }

    #[test]
    #[should_panic(expected = "peer 3: self link")]
    fn with_links_rejects_a_self_link() {
        let net = small_net(64, 6);
        let mut rows = vec![vec![]; 64];
        rows[3] = vec![9, 3];
        SmallWorldNetwork::with_links(
            net.placement().clone(),
            net.assumed().clone(),
            *net.config(),
            rows,
            "self",
        );
    }

    #[test]
    #[should_panic(expected = "peer 5: link id 64 out of range for 64 peers")]
    fn set_all_long_links_rejects_an_out_of_range_id() {
        let mut rows = vec![vec![]; 64];
        rows[5] = vec![1, 64];
        small_net(64, 6).set_all_long_links(rows);
    }

    #[test]
    fn mass_equals_key_distance_under_uniform() {
        let net = small_net(128, 7);
        let p = net.placement();
        let d_key = (p.key(10).get() - p.key(90).get()).abs();
        assert!((net.mass_between(10, 90) - d_key).abs() < 1e-12);
    }

    #[test]
    fn freeze_open_round_trip_is_bit_identical() {
        use sw_overlay::route::RouteOptions;
        let mut rng = Rng::new(41);
        let net = SmallWorldBuilder::new(512)
            .distribution(Box::new(
                sw_keyspace::distribution::TruncatedPareto::new(1.5, 0.02).unwrap(),
            ))
            .build(&mut rng)
            .unwrap();
        let dir = std::env::temp_dir().join("sw-core-freeze-test");
        net.freeze_to(&dir).unwrap();
        let reopened =
            SmallWorldNetwork::open_from(&dir, *net.config(), net.assumed().clone()).unwrap();
        // Placement keys, contact CSR, position lanes and long CSR all
        // round-trip bit-for-bit.
        assert_eq!(net.placement().keys(), reopened.placement().keys());
        assert_eq!(net.topology(), reopened.topology());
        assert_eq!(net.long_topology(), reopened.long_topology());
        let a: Vec<u64> = net
            .route_table()
            .store()
            .edge_pos()
            .unwrap()
            .iter()
            .map(|f| f.to_bits())
            .collect();
        let b: Vec<u64> = reopened
            .route_table()
            .store()
            .edge_pos()
            .unwrap()
            .iter()
            .map(|f| f.to_bits())
            .collect();
        assert_eq!(a, b);
        // And routes are hop-for-hop identical.
        let opts = RouteOptions::for_n(512);
        let workload = sw_overlay::route::survey_queries(
            net.placement(),
            300,
            TargetModel::MemberKeys,
            &mut rng,
        );
        for (from, target) in workload {
            assert_eq!(
                net.route(from, target, &opts),
                reopened.route(from, target, &opts)
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_from_missing_dir_errors() {
        let dir = std::env::temp_dir().join("sw-core-freeze-test-missing");
        std::fs::remove_dir_all(&dir).ok();
        let err = SmallWorldNetwork::open_from(
            &dir,
            SmallWorldConfig::default(),
            Arc::new(sw_keyspace::distribution::Uniform),
        );
        assert!(err.is_err());
    }

    /// The frozen directory is outside input: a damaged image in either
    /// file is an `Err` from `open_from`, never a panic.
    #[test]
    fn open_from_rejects_corrupt_images() {
        let n = 256usize;
        let net = small_net(n, 44);
        let dir = std::env::temp_dir().join("sw-core-freeze-corrupt-test");
        let open = || SmallWorldNetwork::open_from(&dir, *net.config(), net.assumed().clone());
        // SWTOPO v2: 5 header words, then `n + 1` u32 offsets padded to
        // whole words, then the edge rows.
        let offsets_byte = 5 * 8;
        let edges_byte = (5 + (n + 1).div_ceil(2)) * 8;
        for file in [CONTACTS_FILE, LONG_FILE] {
            net.freeze_to(&dir).unwrap();
            assert!(open().is_ok(), "the untouched directory opens");
            let path = dir.join(file);
            let good = std::fs::read(&path).unwrap();
            let mut bad_offset = good.clone();
            let at = offsets_byte + 4 * (n / 2);
            bad_offset[at..at + 4].copy_from_slice(&u32::MAX.to_ne_bytes());
            std::fs::write(&path, &bad_offset).unwrap();
            assert!(open().is_err(), "{file}: one offset word past m");
            let mut bad_target = good.clone();
            bad_target[edges_byte..edges_byte + 4].copy_from_slice(&(n as u32).to_ne_bytes());
            std::fs::write(&path, &bad_target).unwrap();
            assert!(open().is_err(), "{file}: one edge target >= n");
            std::fs::write(&path, &good[..good.len() - 8]).unwrap();
            assert!(open().is_err(), "{file}: truncated");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopened_network_survey_matches_original() {
        let mut rng = Rng::new(43);
        let net = SmallWorldBuilder::new(256).build(&mut rng).unwrap();
        let dir = std::env::temp_dir().join("sw-core-freeze-survey-test");
        net.freeze_to(&dir).unwrap();
        let reopened =
            SmallWorldNetwork::open_from(&dir, *net.config(), net.assumed().clone()).unwrap();
        let a = net.routing_survey(200, &mut Rng::new(9));
        let b = reopened.routing_survey(200, &mut Rng::new(9));
        assert_eq!(a.successes, b.successes);
        assert_eq!(a.hop_samples, b.hop_samples);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn route_chunk_matches_looped_routes_on_heap_and_arena() {
        use sw_overlay::route::{route_batch, RouteOptions};
        let mut rng = Rng::new(47);
        let net = SmallWorldBuilder::new(384).build(&mut rng).unwrap();
        let dir = std::env::temp_dir().join("sw-core-interleave-tier-test");
        net.freeze_to(&dir).unwrap();
        let reopened =
            SmallWorldNetwork::open_from(&dir, *net.config(), net.assumed().clone()).unwrap();
        let workload = sw_overlay::route::survey_queries(
            net.placement(),
            256,
            TargetModel::MemberKeys,
            &mut rng,
        );
        let opts = RouteOptions::for_n(384);
        let reference: Vec<_> = workload
            .iter()
            .map(|&(from, t)| {
                sw_overlay::greedy_route(net.placement(), net.topology(), from, t, &opts)
            })
            .collect();
        for owner in [&net, &reopened] {
            let looped: Vec<_> = workload
                .iter()
                .map(|&(from, t)| owner.route(from, t, &opts))
                .collect();
            assert_eq!(looped, reference);
            assert_eq!(owner.route_chunk(&workload, &opts), reference);
            // A chunk narrower than the interleave width is still a batch.
            assert_eq!(owner.route_chunk(&workload[..3], &opts), reference[..3]);
            for threads in [1, 3] {
                assert_eq!(route_batch(owner, &workload, &opts, threads), reference);
            }
        }
        // `topology()` is the route table's image itself, not a copy.
        assert!(std::ptr::eq(
            reopened.topology(),
            &**reopened.route_table().store()
        ));
        assert_eq!(reopened.topology(), net.topology());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn contact_rows_are_deduplicated() {
        let net = small_net(256, 8);
        for u in 0..256u32 {
            let c = net.contacts(u);
            let set: std::collections::HashSet<_> = c.iter().collect();
            assert_eq!(set.len(), c.len(), "duplicate contact in row {u}");
        }
    }
}
