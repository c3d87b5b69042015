//! # sw-graph
//!
//! Graph substrate: the one frozen adjacency type, its image format,
//! and the layers that build, edit and share it.
//!
//! ## Adjacency layers
//!
//! Topology data moves through two layers, the second frozen from the
//! first:
//!
//! 1. **Editing** — [`LinkTable`], the row builder the classic overlays
//!    and the simulator's snapshots append per-peer rows into
//!    (self-loops skipped, rows deduplicated).
//! 2. **Frozen CSR** — [`Topology`]: all out-edges in one flat `edges`
//!    section indexed by `offsets`, plus optional per-edge / per-node
//!    `f64` lanes, in **one** 8-byte-aligned `SWTOPO` image that is
//!    owned or, on 64-bit unix, a file mapping. The writer's seal scan
//!    flags images whose rows are sorted ascending, and
//!    membership tests on those binary-search. The image freezes to disk
//!    with a single write and reopens with a single map (or read) —
//!    O(1) allocations for a
//!    10⁷-peer overlay — and a reopened topology is the same value as a
//!    freshly built one. The per-edge lane carries the key-aligned ring
//!    positions `sw-overlay`'s SoA routing kernels scan.
//!
//! ## Modules
//!
//! * [`csr`] — the flat CSR [`Topology`] + [`LinkTable`] builder.
//! * [`store`] — the `SWTOPO` image format: header, section layout,
//!   validation, and the owned-or-mapped buffer.
//! * [`delta`] — [`DeltaStore`]: per-peer edge mutations layered over an
//!   immutable base topology (LSM-style); what lets the simulator churn
//!   a frozen 10⁷-peer image.
//! * [`writer`] — count-then-fill construction: [`ArenaWriter`], the
//!   one producer of images, fills the final image in place (disjoint
//!   peer-range shards concurrently), in a heap buffer or inside a
//!   mapping of the destination file; byte-identical at any partition
//!   and thread count.
//! * [`par`] — deterministic fork/join helpers over scoped std threads
//!   (the workspace builds offline, so no `rayon`): parallel per-peer
//!   construction and batched routing build on these.
//! * [`prefetch`] — software-prefetch hints shared by every
//!   latency-hiding kernel (harmonic sampling, the simulator's hop,
//!   `sw-overlay`'s interleaved AMAC routing); no-ops off x86-64.
//! * [`idhash`] — [`IdMap`] / [`IdSet`]: `std` hash tables over a
//!   one-multiply hasher, for maps keyed by ids the program generated
//!   itself (the engine's storage ops and copy counts, link buckets).

pub mod csr;
pub mod delta;
pub mod idhash;
pub mod par;
pub mod prefetch;
pub mod store;
pub mod writer;

pub use csr::{LinkTable, NodeId, Topology};
pub use delta::DeltaStore;
pub use idhash::{IdMap, IdSet};
pub use store::TopologyStore;
pub use writer::ArenaWriter;
