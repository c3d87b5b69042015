//! Builder for the paper's small-world networks.
//!
//! ```
//! use sw_core::prelude::*;
//! use sw_keyspace::prelude::*;
//!
//! // Model 1: uniform keys, log2 N out-degree (§3).
//! let mut rng = Rng::new(1);
//! let m1 = SmallWorldBuilder::new(256).build(&mut rng).unwrap();
//! assert_eq!(m1.len(), 256);
//!
//! // Model 2: Pareto-skewed keys, mass-based links (§4).
//! let m2 = SmallWorldBuilder::new(256)
//!     .distribution(Box::new(TruncatedPareto::new(1.5, 0.02).unwrap()))
//!     .build(&mut rng)
//!     .unwrap();
//!
//! // Naive baseline: skewed keys but links chosen as if uniform.
//! let naive = SmallWorldBuilder::new(256)
//!     .distribution(Box::new(TruncatedPareto::new(1.5, 0.02).unwrap()))
//!     .assumed(Box::new(Uniform))
//!     .build(&mut rng)
//!     .unwrap();
//! # let _ = (m2, naive);
//! ```
//!
//! # Construction pipeline
//!
//! One path builds every network. The long image is reserved at the
//! link budget per peer, and [`LinkSelector::sample_into`] draws each
//! peer's row straight into its slot; a row that comes up short (tiny
//! networks, or a row that runs out its retry cap) leaves its tail
//! vacant, and sealing the image closes the gaps. One function,
//! `contact_image`, then counts and fills the contact image from the
//! placement and the sealed long image: each row is the sorted,
//! deduplicated union of the peer's ring/interval neighbours and its
//! long row, with the per-edge and per-node key lanes gathered in place.
//! [`SmallWorldBuilder::build`], [`SmallWorldBuilder::build_on`] and
//! `build_frozen` return the network over those two images as written,
//! with the stage timings ([`SmallWorldNetwork::build_profile`]). The
//! network's constructors from outside long rows (`with_links`, which
//! also takes a simulator-grown overlay, and the refresh APIs) call the
//! same `contact_image`.
//!
//! Both images are filled through [`sw_graph::writer::ArenaWriter`],
//! the only producer of a [`CsrTopology`]. Its buffer is a heap
//! allocation, or under `build_frozen` a write-through mapping of the
//! destination files, where sealing the writer is the freeze.
//!
//! The images do not depend on how peers are partitioned across fill
//! ranges or worker threads: peer `u` draws its links from RNG stream
//! `u` of one build seed, and each contact row is a function of the
//! peer's own neighbours and long row.

use crate::config::{LinkSampler, MassThreshold, OutDegree, SmallWorldConfig};
use crate::links::LinkSelector;
use crate::network::{SmallWorldNetwork, CONTACTS_FILE, LONG_FILE};
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use sw_graph::csr::Topology as CsrTopology;
use sw_graph::par;
use sw_graph::writer::ArenaWriter;
use sw_graph::NodeId;
use sw_keyspace::distribution::{KeyDistribution, Uniform};
use sw_keyspace::{Rng, Topology};
use sw_overlay::Placement;

/// Errors from [`SmallWorldBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// Fewer than four peers: the `1/N` threshold leaves no admissible
    /// long-range candidates.
    TooFewNodes(usize),
    /// Assembling the arena image failed (edge totals past the `u32` id
    /// space, or the destination files could not be created).
    Arena(String),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::TooFewNodes(n) => {
                write!(f, "small-world network needs at least 4 peers, got {n}")
            }
            BuildError::Arena(what) => write!(f, "arena construction failed: {what}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<io::Error> for BuildError {
    fn from(e: io::Error) -> Self {
        BuildError::Arena(e.to_string())
    }
}

/// Fluent builder for [`SmallWorldNetwork`].
pub struct SmallWorldBuilder {
    n: usize,
    config: SmallWorldConfig,
    /// True placement density `f` (peers' keys are sampled from this).
    distribution: Option<Arc<dyn KeyDistribution>>,
    /// Density assumed during link construction `f̂` (defaults to the
    /// placement density — the paper's models).
    assumed: Option<Arc<dyn KeyDistribution>>,
    /// Worker threads for per-peer link sampling (`0` = auto).
    parallelism: usize,
}

impl SmallWorldBuilder {
    /// Starts a builder for an `n`-peer network with the paper's default
    /// configuration (see [`SmallWorldConfig::default`]).
    pub fn new(n: usize) -> Self {
        SmallWorldBuilder {
            n,
            config: SmallWorldConfig::default(),
            distribution: None,
            assumed: None,
            parallelism: 0,
        }
    }

    /// Replaces the whole configuration.
    pub fn config(mut self, config: SmallWorldConfig) -> Self {
        self.config = config;
        self
    }

    /// The configuration this builder will use — for drivers that must
    /// hand the *same* config to [`SmallWorldNetwork::open_from`].
    pub fn config_ref(&self) -> &SmallWorldConfig {
        &self.config
    }

    /// Sets the key-space topology (default: interval).
    pub fn topology(mut self, topology: Topology) -> Self {
        self.config.topology = topology;
        self
    }

    /// Sets the long-link budget (default: `log2 N`).
    pub fn out_degree(mut self, out_degree: OutDegree) -> Self {
        self.config.out_degree = out_degree;
        self
    }

    /// Sets the link sampler (default: exact).
    pub fn sampler(mut self, sampler: LinkSampler) -> Self {
        self.config.sampler = sampler;
        self
    }

    /// Sets the true placement density `f` (default: uniform → Model 1).
    pub fn distribution(mut self, dist: Box<dyn KeyDistribution>) -> Self {
        self.distribution = Some(Arc::from(dist));
        self
    }

    /// Sets a link-construction density `f̂` different from the placement
    /// density — the mis-specification baselines of E4/E11.
    pub fn assumed(mut self, dist: Box<dyn KeyDistribution>) -> Self {
        self.assumed = Some(Arc::from(dist));
        self
    }

    /// Sets the number of worker threads used for per-peer link sampling
    /// (default `0` = one per available core; `1` forces a sequential
    /// build). Every peer samples from its own RNG stream derived from
    /// the build seed, so the constructed network is **bit-identical for
    /// every thread count** — parallelism is purely a wall-clock knob.
    pub fn parallelism(mut self, threads: usize) -> Self {
        self.parallelism = threads;
        self
    }

    /// The placement density `f` (uniform unless one was set).
    fn density(&self) -> Arc<dyn KeyDistribution> {
        self.distribution
            .clone()
            .unwrap_or_else(|| Arc::new(Uniform))
    }

    /// Samples a placement from the configured distribution and builds
    /// the network straight into the two images it holds: the long
    /// image and the contact image with its key lanes (see the
    /// module-level *construction pipeline* notes).
    pub fn build(&self, rng: &mut Rng) -> Result<SmallWorldNetwork, BuildError> {
        self.build_at(rng, None)
    }

    /// Builds the network over an existing placement (for head-to-head
    /// comparisons where several overlays share the same peers). The
    /// assumed density defaults to the builder's `distribution` (or
    /// uniform if none was set).
    pub fn build_on(
        &self,
        placement: Placement,
        rng: &mut Rng,
    ) -> Result<SmallWorldNetwork, BuildError> {
        self.build_over(placement, rng, None, 0.0)
    }

    /// [`SmallWorldBuilder::build`], except the two images are assembled
    /// *inside write-through mappings* of `dir.join(CONTACTS_FILE)` /
    /// `dir.join(LONG_FILE)`: every fill lands directly in the
    /// destination files' pages, so sealing the writers **is** the
    /// freeze — there is no separate [`SmallWorldNetwork::freeze_to`]
    /// copy to pay for, and the returned network routes straight off the
    /// mapped files. The on-disk bytes are identical to `build` +
    /// `freeze_to` for the same RNG state, and
    /// [`SmallWorldNetwork::open_from`] reopens them.
    #[cfg(all(feature = "mmap", unix, target_pointer_width = "64"))]
    pub fn build_frozen(
        &self,
        rng: &mut Rng,
        dir: impl AsRef<Path>,
    ) -> Result<SmallWorldNetwork, BuildError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        self.build_at(rng, Some(dir))
    }

    /// Shared core of [`SmallWorldBuilder::build`] and `build_frozen`:
    /// samples the placement, then [`SmallWorldBuilder::build_over`] it.
    /// `dir` picks heap buffers (`None`) or write-through file mappings
    /// (`Some`) for the images.
    fn build_at(&self, rng: &mut Rng, dir: Option<&Path>) -> Result<SmallWorldNetwork, BuildError> {
        if self.n < 4 {
            return Err(BuildError::TooFewNodes(self.n));
        }
        let started = Instant::now();
        let dist = self.density();
        let placement = Placement::sample(self.n, dist.as_ref(), self.config.topology, rng);
        let placement_s = started.elapsed().as_secs_f64();
        self.build_over(placement, rng, dir, placement_s)
    }

    /// The one construction core: long links over `placement` from one
    /// `next_u64` build seed, then the long image and the contact image.
    /// `placement_s` is what sampling the placement took, if the build
    /// did.
    fn build_over(
        &self,
        placement: Placement,
        rng: &mut Rng,
        dir: Option<&Path>,
        placement_s: f64,
    ) -> Result<SmallWorldNetwork, BuildError> {
        let n = placement.len();
        if n < 4 {
            return Err(BuildError::TooFewNodes(n));
        }
        let mut t = Instant::now();
        let mut profile = BuildProfile {
            placement_s,
            ..BuildProfile::default()
        };
        let assumed = self.assumed.clone().unwrap_or_else(|| self.density());
        let min_mass = MassThreshold::OneOverN.min_mass(n);
        let budget = self.config.out_degree.links_for(n);
        let selector =
            LinkSelector::new(&placement, assumed.as_ref(), min_mass, self.config.sampler);
        profile.selector_s = lap(&mut t);
        // One draw from the caller's generator seeds the whole build;
        // peer `u` then samples from stream `u`, which makes the images
        // independent of how peers are chunked across worker threads.
        let build_seed = rng.next_u64();
        let width = u32::try_from(budget)
            .map_err(|_| BuildError::Arena("out-degree exceeds the u32 id space".into()))?;
        let mut writer = writer_at(dir, LONG_FILE, &vec![width; n], false, false)?;
        selector.sample_into(&mut writer, build_seed, false, self.parallelism);
        profile.sample_s = lap(&mut t);
        let long = writer.finish(self.parallelism)?;
        profile.long_finish_s = lap(&mut t);
        let contacts = contact_image(
            &placement,
            &long,
            self.parallelism,
            dir,
            (&mut t, &mut profile),
        )?;
        let cdf = selector.into_cdf();
        Ok(SmallWorldNetwork::from_contact_image(
            placement,
            assumed,
            cdf,
            self.config,
            contacts,
            long,
            Some(profile),
        ))
    }
}

/// Wall-clock seconds of each stage of one build
/// ([`SmallWorldBuilder::build`], `build_on` or `build_frozen`), in
/// pipeline order, as [`SmallWorldNetwork::build_profile`] returns them.
/// Always measured, on one stopwatch restarted at each stage boundary,
/// so the stages add up to the build's wall time (`placement_s` is `0`
/// for `build_on`, which samples no placement).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BuildProfile {
    /// Sampling the placement (keys drawn and ranked).
    pub placement_s: f64,
    /// Building the link selector (one assumed-CDF evaluation per peer
    /// and the bucket rank index over them).
    pub selector_s: f64,
    /// Reserving the long-link image and sampling every peer's long
    /// links straight into it.
    pub sample_s: f64,
    /// Sealing the long-link image (sorted scan, and closing up any
    /// short rows).
    pub long_finish_s: f64,
    /// Counting each peer's merged contact-row degree.
    pub degree_count_s: f64,
    /// Merging neighbours into the contact image and gathering key lanes.
    pub contact_fill_s: f64,
    /// Sealing the contact image (sorted scan).
    pub contact_finish_s: f64,
}

/// Reads the stopwatch in seconds and restarts it.
fn lap(t: &mut Instant) -> f64 {
    let secs = t.elapsed().as_secs_f64();
    *t = Instant::now();
    secs
}

/// Opens an [`ArenaWriter`] over a heap buffer (`dir: None`) or over a
/// write-through mapping of the named file inside `dir` — the
/// build-direct-to-disk path of `build_frozen`.
fn writer_at(
    dir: Option<&Path>,
    file: &str,
    degrees: &[u32],
    edge_pos: bool,
    node_pos: bool,
) -> io::Result<ArenaWriter> {
    match dir {
        #[cfg(all(feature = "mmap", unix, target_pointer_width = "64"))]
        Some(d) => ArenaWriter::create_at(d.join(file), degrees, edge_pos, node_pos),
        #[cfg(not(all(feature = "mmap", unix, target_pointer_width = "64")))]
        Some(_) => unreachable!("mapped builds exist only behind the mmap feature"),
        None => {
            let _ = file;
            ArenaWriter::from_degrees(degrees, edge_pos, node_pos)
        }
    }
}

/// The contact image of every [`SmallWorldNetwork`]: peer `u`'s row is
/// the sorted, deduplicated union of its ring/interval neighbours and
/// its row of `long`, with each contact's key in the per-edge lane and
/// the placement keys in the per-node lane. One count pass sizes the
/// writer, one fill pass merges the rows and gathers the keys in place
/// (in a heap buffer, or a mapping of `dir`'s contacts file), and the
/// writer's sorted scan seals it. The image is the same at any
/// `threads` (`0` = auto). Stage timings land in `profile`, read off
/// the running stopwatch `t`.
///
/// The degree count is exact only for long rows without self links or
/// repeated targets: the builder never samples either, and the
/// network's constructors from outside rows check for both.
pub(crate) fn contact_image(
    placement: &Placement,
    long: &CsrTopology,
    threads: usize,
    dir: Option<&Path>,
    (t, profile): (&mut Instant, &mut BuildProfile),
) -> io::Result<CsrTopology> {
    let n = placement.len();
    let keys = placement.keys();
    let (offs, links) = (long.offsets(), long.edges());
    let row = |u: usize| &links[offs[u] as usize..offs[u + 1] as usize];
    let degrees: Vec<u32> = par::par_map(n, threads, |u| {
        let row = row(u);
        let mut deg = row.len() as u32;
        // A neighbour is never `u` itself, but a two-peer ring's `prev`
        // and `next` are the same peer: count it once.
        let mut last = u as NodeId;
        for v in placement.topology_neighbors(u as NodeId) {
            if v != last && !row.contains(&v) {
                deg += 1;
            }
            last = v;
        }
        deg
    });
    profile.degree_count_s = lap(t);
    let mut writer = writer_at(dir, CONTACTS_FILE, &degrees, true, true)?;
    drop(degrees);
    writer.fill(par::effective_threads(n, threads, 1024), |mut slots| {
        let mut merged: Vec<NodeId> = Vec::new();
        let node_pos = slots.node_pos.take().expect("contacts carry node keys");
        let edge_pos = slots.edge_pos.take().expect("contacts carry edge keys");
        // The key gathers below are random DRAM reads at 10⁷ peers;
        // prefetching a few edges ahead keeps several misses in flight.
        const PF: usize = 8;
        for u in slots.range.clone() {
            merged.clear();
            merged.extend_from_slice(row(u));
            merged.extend(placement.topology_neighbors(u as NodeId));
            merged.sort_unstable();
            merged.dedup();
            let r = slots.row_bounds(u);
            debug_assert_eq!(merged.len(), r.len(), "counted degree matches merge");
            for &v in merged.iter().take(PF) {
                sw_graph::prefetch::prefetch_read(&keys[v as usize]);
            }
            for (k, &v) in merged.iter().enumerate() {
                if let Some(&w) = merged.get(k + PF) {
                    sw_graph::prefetch::prefetch_read(&keys[w as usize]);
                }
                slots.edges[r.start + k] = v;
                edge_pos[r.start + k] = keys[v as usize].get();
            }
            node_pos[u - slots.range.start] = keys[u].get();
        }
    });
    profile.contact_fill_s = lap(t);
    let contacts = writer.finish(threads)?;
    profile.contact_finish_s = lap(t);
    Ok(contacts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_graph::LinkTable;
    use sw_keyspace::distribution::TruncatedPareto;
    use sw_keyspace::Key;
    use sw_overlay::{Overlay, RouteTable};

    #[test]
    fn rejects_tiny_networks() {
        let mut rng = Rng::new(1);
        assert_eq!(
            SmallWorldBuilder::new(3).build(&mut rng).unwrap_err(),
            BuildError::TooFewNodes(3)
        );
        assert!(SmallWorldBuilder::new(4).build(&mut rng).is_ok());
    }

    #[test]
    fn default_build_has_log2n_links_per_peer() {
        let mut rng = Rng::new(2);
        let net = SmallWorldBuilder::new(1024).build(&mut rng).unwrap();
        let total = net.total_long_links();
        // 10 links per peer, minus rare saturation shortfalls.
        assert!(total as f64 > 0.99 * 1024.0 * 10.0, "total {total}");
        assert_eq!(net.long_links(5).len(), 10);
    }

    #[test]
    fn const_out_degree_is_respected() {
        let mut rng = Rng::new(3);
        let net = SmallWorldBuilder::new(512)
            .out_degree(OutDegree::Const(3))
            .build(&mut rng)
            .unwrap();
        for u in 0..512u32 {
            assert!(net.long_links(u).len() <= 3);
        }
        assert!(net.total_long_links() >= 3 * 512 - 16);
    }

    #[test]
    fn threshold_enforced_in_built_network() {
        let mut rng = Rng::new(4);
        let net = SmallWorldBuilder::new(512).build(&mut rng).unwrap();
        for u in 0..512u32 {
            for &v in net.long_links(u) {
                assert!(
                    net.mass_between(u, v) >= 1.0 / 512.0 - 1e-12,
                    "link {u}->{v} below threshold"
                );
            }
        }
    }

    #[test]
    fn skewed_build_uses_true_density_by_default() {
        let mut rng = Rng::new(5);
        let net = SmallWorldBuilder::new(512)
            .distribution(Box::new(TruncatedPareto::new(1.5, 0.02).unwrap()))
            .build(&mut rng)
            .unwrap();
        assert_eq!(net.assumed().name(), "pareto(1.5,0.02)");
        // Mass threshold satisfied under the true density.
        for u in (0..512u32).step_by(37) {
            for &v in net.long_links(u) {
                assert!(net.mass_between(u, v) >= 1.0 / 512.0 - 1e-12);
            }
        }
    }

    #[test]
    fn assumed_can_differ_from_placement() {
        let mut rng = Rng::new(6);
        let net = SmallWorldBuilder::new(256)
            .distribution(Box::new(TruncatedPareto::new(1.5, 0.02).unwrap()))
            .assumed(Box::new(Uniform))
            .build(&mut rng)
            .unwrap();
        assert_eq!(net.assumed().name(), "uniform");
        assert_eq!(net.placement().source(), "pareto(1.5,0.02)");
    }

    #[test]
    fn build_on_shares_placement() {
        let mut rng = Rng::new(7);
        let p = Placement::sample(256, &Uniform, Topology::Interval, &mut rng);
        let keys: Vec<f64> = p.keys().iter().map(|k| k.get()).collect();
        let net = SmallWorldBuilder::new(0).build_on(p, &mut rng).unwrap();
        let back: Vec<f64> = net.placement().keys().iter().map(|k| k.get()).collect();
        assert_eq!(keys, back);
    }

    #[test]
    fn deterministic_under_seed() {
        let build = |seed| {
            let mut rng = Rng::new(seed);
            SmallWorldBuilder::new(128).build(&mut rng).unwrap()
        };
        let a = build(42);
        let b = build(42);
        for u in 0..128u32 {
            assert_eq!(a.long_links(u), b.long_links(u));
            assert_eq!(a.contacts(u), b.contacts(u));
        }
    }

    #[test]
    fn parallel_build_is_bit_identical_to_sequential() {
        // par_map caps workers at n / 1024, so 8192 peers really runs
        // with 2, 4 and 7 workers (distinct chunk boundaries each time);
        // every thread count must yield the same links. Harmonic
        // sampling keeps the O(N)-per-peer exact rule out of the loop.
        let build = |threads: usize| {
            let mut rng = Rng::new(77);
            SmallWorldBuilder::new(8192)
                .distribution(Box::new(TruncatedPareto::new(1.5, 0.02).unwrap()))
                .sampler(LinkSampler::Harmonic)
                .parallelism(threads)
                .build(&mut rng)
                .unwrap()
        };
        let sequential = build(1);
        for threads in [2, 4, 7] {
            let parallel = build(threads);
            assert_eq!(
                sequential.long_topology(),
                parallel.long_topology(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn ring_topology_build_works() {
        let mut rng = Rng::new(8);
        let net = SmallWorldBuilder::new(256)
            .topology(Topology::Ring)
            .build(&mut rng)
            .unwrap();
        let c = net.contacts(0);
        assert!(c.contains(&255), "ring wraps");
        assert!(c.contains(&1));
    }

    /// The contact image [`contact_image`] must write, assembled the
    /// long way: a `LinkTable` union of each peer's neighbours and long
    /// row (self links and repeats dropped, rows sorted), the edge lane
    /// gathered by `RouteTable::build`, and the placement keys added as
    /// the node lane by freezing it (into a scratch file named by `tag`)
    /// — as bytes.
    fn model_contacts(placement: &Placement, long: &CsrTopology, tag: &str) -> Vec<u8> {
        let n = placement.len();
        let mut lt = LinkTable::new(n);
        for u in 0..n as NodeId {
            lt.add_all(u, placement.topology_neighbors(u));
            lt.add_all(u, long.neighbors(u).iter().copied());
        }
        let keys: Vec<f64> = placement.keys().iter().map(|k| k.get()).collect();
        let table = RouteTable::build(lt.build(), |v| keys[v as usize]);
        let path =
            std::env::temp_dir().join(format!("sw-core-model-{tag}-{}.swt", std::process::id()));
        table.store().freeze_to(&path, Some(&keys)).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        bytes
    }

    /// The placement and long rows the builder draws for `seed`, drawn
    /// the long way: the placement and build seed drawn as the builder
    /// draws them, then every peer's row sampled on its own by
    /// `sample_links` from stream `u`.
    fn model_rows(builder: &SmallWorldBuilder, seed: u64) -> (Placement, Vec<Vec<NodeId>>) {
        let mut rng = Rng::new(seed);
        let dist = builder.density();
        let placement =
            Placement::sample(builder.n, dist.as_ref(), builder.config.topology, &mut rng);
        let n = placement.len();
        let assumed = builder.assumed.clone().unwrap_or(dist);
        let min_mass = MassThreshold::OneOverN.min_mass(n);
        let selector = LinkSelector::new(
            &placement,
            assumed.as_ref(),
            min_mass,
            builder.config.sampler,
        );
        let build_seed = rng.next_u64();
        let budget = builder.config.out_degree.links_for(n);
        let rows = (0..n as NodeId)
            .map(|u| selector.sample_links(u, budget, &mut Rng::stream(build_seed, u as u64)))
            .collect();
        (placement, rows)
    }

    /// The builder's two images for `seed`, assembled the long way:
    /// [`model_rows`] packed verbatim, then [`model_contacts`] over that
    /// long image.
    fn model_images(builder: &SmallWorldBuilder, seed: u64, tag: &str) -> (Vec<u8>, Vec<u8>) {
        let (placement, rows) = model_rows(builder, seed);
        let long = CsrTopology::from_rows(&rows);
        (
            model_contacts(&placement, &long, tag),
            long.as_bytes().to_vec(),
        )
    }

    #[test]
    fn arena_build_matches_heap_freeze_bytes() {
        let builder = SmallWorldBuilder::new(3000)
            .distribution(Box::new(TruncatedPareto::new(1.5, 0.02).unwrap()))
            .sampler(LinkSampler::Harmonic);
        let net = builder.build(&mut Rng::new(99)).unwrap();
        let (contacts, long) = model_images(&builder, 99, "freeze-bytes");
        assert_eq!(contacts, net.topology().as_bytes());
        assert_eq!(long, net.long_topology().as_bytes());
    }

    #[test]
    fn arena_build_matches_heap_on_ring_with_exact_sampler() {
        // Ring neighbours of peer 0 arrive as {n-1, 1}: the merge must
        // still produce sorted rows. Exact sampler covers the other
        // sampling branch.
        let builder = SmallWorldBuilder::new(512).topology(Topology::Ring);
        let net = builder.build(&mut Rng::new(13)).unwrap();
        let (contacts, long) = model_images(&builder, 13, "ring");
        assert_eq!(contacts, net.topology().as_bytes());
        assert_eq!(long, net.long_topology().as_bytes());
    }

    /// `build_frozen` must leave on disk exactly what `build` +
    /// `freeze_to` writes, and the network it returns, like the one
    /// reopened from its files, must route as `build`'s does.
    #[cfg(all(feature = "mmap", unix, target_pointer_width = "64"))]
    #[test]
    fn build_frozen_matches_build_then_freeze() {
        use crate::network::{CONTACTS_FILE, LONG_FILE};
        use sw_overlay::route::{route_batch, survey_queries, RouteOptions, TargetModel};
        let builder = SmallWorldBuilder::new(3000)
            .distribution(Box::new(TruncatedPareto::new(1.5, 0.02).unwrap()))
            .sampler(LinkSampler::Harmonic);
        let reference = builder.build(&mut Rng::new(99)).unwrap();
        let dir = std::env::temp_dir().join("sw-core-build-frozen");
        let frozen = builder.build_frozen(&mut Rng::new(99), &dir).unwrap();
        assert_eq!(
            reference.topology().as_bytes(),
            frozen.topology().as_bytes()
        );
        assert_eq!(
            reference.long_topology().as_bytes(),
            frozen.long_topology().as_bytes()
        );
        let workload = survey_queries(
            reference.placement(),
            500,
            TargetModel::MemberKeys,
            &mut Rng::new(7),
        );
        let opts = RouteOptions::for_n(3000);
        let want = route_batch(&reference, &workload, &opts, 1);
        assert_eq!(route_batch(&frozen, &workload, &opts, 1), want);
        drop(frozen);
        let contacts = CsrTopology::open(dir.join(CONTACTS_FILE)).unwrap();
        let long = CsrTopology::open(dir.join(LONG_FILE)).unwrap();
        assert_eq!(reference.topology().as_bytes(), contacts.as_bytes());
        assert_eq!(reference.long_topology().as_bytes(), long.as_bytes());
        let net = SmallWorldNetwork::open_from(
            &dir,
            *builder.config_ref(),
            Arc::new(TruncatedPareto::new(1.5, 0.02).unwrap()),
        )
        .unwrap();
        assert_eq!(net.len(), 3000);
        assert_eq!(route_batch(&net, &workload, &opts, 1), want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Short rows take the one path: tiny networks at the default
    /// out-degree, and a constant out-degree wider than the admissible
    /// set, leave some long rows short of the budget their slots were
    /// reserved at. Every long row is still `sample_links` on stream `u`
    /// of the build seed, both images are the model's, and the files
    /// `build_frozen` leaves are the heap images byte for byte. (Seed 1
    /// leaves short rows at n = 4, 5 and 6 alike; at n = 8 no seed of
    /// 1–30 does.)
    #[test]
    fn short_rows_take_the_same_path() {
        let cases = [
            SmallWorldBuilder::new(4),
            SmallWorldBuilder::new(5),
            SmallWorldBuilder::new(6),
            SmallWorldBuilder::new(40)
                .sampler(LinkSampler::Harmonic)
                .out_degree(OutDegree::Const(48)),
        ];
        let seed = 1;
        for builder in &cases {
            let net = builder.build(&mut Rng::new(seed)).unwrap();
            let n = net.len();
            let budget = builder.config.out_degree.links_for(n);
            let at = format!("n={n} budget={budget}");
            let (_, rows) = model_rows(builder, seed);
            for (u, row) in rows.iter().enumerate() {
                assert_eq!(net.long_links(u as NodeId), &row[..], "{at} u={u}");
            }
            assert!(
                rows.iter().any(|row| row.len() < budget),
                "{at}: no short row"
            );
            let (contacts, long) = model_images(builder, seed, &format!("short-{n}"));
            assert_eq!(contacts, net.topology().as_bytes(), "{at}: contacts");
            assert_eq!(long, net.long_topology().as_bytes(), "{at}: long");
            #[cfg(all(feature = "mmap", unix, target_pointer_width = "64"))]
            {
                let dir = std::env::temp_dir()
                    .join(format!("sw-core-short-rows-{n}-{}", std::process::id()));
                let frozen = builder.build_frozen(&mut Rng::new(seed), &dir).unwrap();
                assert_eq!(long, frozen.long_topology().as_bytes(), "{at}: frozen long");
                drop(frozen);
                for (file, image) in [(CONTACTS_FILE, &contacts), (LONG_FILE, &long)] {
                    let bytes = std::fs::read(dir.join(file)).unwrap();
                    assert_eq!(&bytes, image, "{at}: {file} on disk");
                }
                std::fs::remove_dir_all(&dir).ok();
            }
        }
    }

    /// Every stage reads one stopwatch that restarts at the stage
    /// boundary, so the profile accounts for the build's whole wall time.
    /// Only the builder's networks carry a profile.
    #[test]
    fn build_profile_stages_add_up_to_the_wall_time() {
        let builder = SmallWorldBuilder::new(20_000)
            .distribution(Box::new(TruncatedPareto::new(1.5, 0.01).unwrap()))
            .sampler(LinkSampler::Harmonic);
        let started = Instant::now();
        let net = builder.build(&mut Rng::new(15)).unwrap();
        let wall = started.elapsed().as_secs_f64();
        let p = net
            .build_profile()
            .expect("a built network keeps its profile");
        let stages = [
            p.placement_s,
            p.selector_s,
            p.sample_s,
            p.long_finish_s,
            p.degree_count_s,
            p.contact_fill_s,
            p.contact_finish_s,
        ];
        assert!(stages.iter().all(|&s| s > 0.0), "{p:?}");
        let sum: f64 = stages.iter().sum();
        assert!(
            sum <= wall && sum >= 0.98 * wall,
            "stages sum to {sum:.6} s of a {wall:.6} s build: {p:?}"
        );
        let mut rng = Rng::new(16);
        let on = builder.build_on(net.placement().clone(), &mut rng).unwrap();
        assert!(on.build_profile().is_some_and(|p| p.placement_s == 0.0));
        let outside = SmallWorldNetwork::with_links(
            net.placement().clone(),
            net.assumed().clone(),
            *net.config(),
            vec![Vec::new(); net.len()],
            "outside",
        );
        assert_eq!(outside.build_profile(), None);
        let dir = std::env::temp_dir().join(format!("sw-core-profile-{}", std::process::id()));
        net.freeze_to(&dir).unwrap();
        let reopened =
            SmallWorldNetwork::open_from(&dir, *net.config(), net.assumed().clone()).unwrap();
        assert_eq!(reopened.build_profile(), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The arena image must not depend on its fill partition: the fill
    /// ranges follow the worker count (1 024-peer grain, so 8 192 peers
    /// really split 1 / 2 / 3 / 7 ways), and every partition must write
    /// the bytes of the model.
    #[test]
    fn arena_build_is_bit_identical_at_any_parallelism() {
        let builder = |threads: usize| {
            SmallWorldBuilder::new(8192)
                .distribution(Box::new(TruncatedPareto::new(1.5, 0.02).unwrap()))
                .sampler(LinkSampler::Harmonic)
                .parallelism(threads)
        };
        let (contacts, long) = model_images(&builder(1), 606, "parallelism");
        for threads in [1, 2, 3, 7] {
            let net = builder(threads).build(&mut Rng::new(606)).unwrap();
            assert_eq!(
                contacts,
                net.topology().as_bytes(),
                "contacts, threads={threads}"
            );
            assert_eq!(
                long,
                net.long_topology().as_bytes(),
                "long, threads={threads}"
            );
            let p = net.build_profile().unwrap();
            assert!(p.sample_s > 0.0 && p.contact_fill_s > 0.0);
            #[cfg(all(feature = "mmap", unix, target_pointer_width = "64"))]
            {
                let dir = std::env::temp_dir().join(format!("sw-core-any-parallelism-{threads}"));
                let frozen = builder(threads)
                    .build_frozen(&mut Rng::new(606), &dir)
                    .unwrap();
                assert_eq!(
                    contacts,
                    frozen.topology().as_bytes(),
                    "frozen contacts, threads={threads}"
                );
                assert_eq!(
                    long,
                    frozen.long_topology().as_bytes(),
                    "frozen long, threads={threads}"
                );
                drop(frozen);
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }

    /// `freeze_to` writes the built images byte for byte, and the
    /// directory reopens into a network with the same tables.
    #[test]
    fn arena_freeze_matches_network_freeze_on_disk() {
        let builder = SmallWorldBuilder::new(800).sampler(LinkSampler::Harmonic);
        let net = builder.build(&mut Rng::new(21)).unwrap();
        let (contacts, long) = model_images(&builder, 21, "on-disk");
        let dir = std::env::temp_dir().join("sw-core-arena-freeze-test");
        let _ = std::fs::remove_dir_all(&dir);
        net.freeze_to(&dir).unwrap();
        for (file, model) in [(CONTACTS_FILE, &contacts), (LONG_FILE, &long)] {
            let bytes = std::fs::read(dir.join(file)).unwrap();
            assert_eq!(&bytes, model, "{file} differs from the model");
        }
        let reopened =
            SmallWorldNetwork::open_from(&dir, *net.config(), net.assumed().clone()).unwrap();
        for u in (0..800u32).step_by(41) {
            assert_eq!(net.contacts(u), reopened.contacts(u));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every way a network gets its contact image — the builder, outside
    /// rows (a two-peer ring among them) and each refresh API — writes
    /// the model's bytes, so each carries both key lanes, the node lane
    /// equal to the placement keys.
    #[test]
    fn every_network_carries_both_key_lanes() {
        let check = |net: &SmallWorldNetwork, what: &str| {
            let image = net.route_table().store();
            let keys: Vec<f64> = net.placement().keys().iter().map(|k| k.get()).collect();
            assert_eq!(image.node_pos(), Some(&keys[..]), "{what}: node lane");
            let model = model_contacts(net.placement(), net.long_topology(), what);
            assert!(
                image.as_bytes() == model,
                "{what}: image differs from the model"
            );
        };
        let builder = SmallWorldBuilder::new(300)
            .distribution(Box::new(TruncatedPareto::new(1.5, 0.02).unwrap()))
            .sampler(LinkSampler::Harmonic);
        let mut rng = Rng::new(31);
        let mut net = builder.build(&mut rng).unwrap();
        check(&net, "build");
        let ring = Placement::sample(300, &Uniform, Topology::Ring, &mut rng);
        check(&builder.build_on(ring, &mut rng).unwrap(), "build_on");
        let rows: Vec<Vec<NodeId>> = (0..300u32).map(|u| vec![(u + 7) % 300]).collect();
        let outside = SmallWorldNetwork::with_links(
            net.placement().clone(),
            net.assumed().clone(),
            *net.config(),
            rows.clone(),
            "outside",
        );
        check(&outside, "with_links");
        // A two-peer ring: each peer's `prev` and `next` are one contact.
        let pair: Vec<Key> = [0.1, 0.4].into_iter().map(Key::clamped).collect();
        let pair = SmallWorldNetwork::with_links(
            Placement::from_keys(pair, Topology::Ring, "pair").unwrap(),
            Arc::new(Uniform),
            SmallWorldConfig::default(),
            vec![Vec::new(); 2],
            "pair",
        );
        check(&pair, "two-peer ring");
        net.set_long_links(0, vec![150, 3, 299]);
        check(&net, "set_long_links");
        net.set_all_long_links(rows);
        check(&net, "set_all_long_links");
        net.drop_random_long_links(0.5, &mut rng);
        check(&net, "drop_random_long_links");
    }
}
