//! # sw-core
//!
//! The paper's contribution: small-world overlay graphs for uniformly
//! *and* non-uniformly distributed key spaces, after *“On Small World
//! Graphs in Non-uniformly Distributed Key Spaces”* (Girdzijauskas, Datta
//! & Aberer, ICDE 2005).
//!
//! Two constructions, one code path:
//!
//! * **Model 1 (§3)** — peers uniform on `[0,1)`, `log2 N` long-range
//!   links per peer chosen with `P[v] ∝ 1/d(u,v)`, `d(u,v) ≥ 1/N`.
//!   Theorem 1: greedy routing costs expected `O(log2 N)` hops.
//! * **Model 2 (§4)** — peers placed by an arbitrary density `f`; links
//!   chosen with `P[v] ∝ 1/|∫_u^v f|` restricted to mass ≥ `1/N`.
//!   Theorem 2: still `O(log2 N)`, independent of the skew.
//!
//! Model 1 is exactly Model 2 with `f = Uniform`, so [`SmallWorldBuilder`]
//! implements only the general rule and the uniform case falls out. The
//! builder also accepts an *assumed* distribution different from the true
//! placement density, which yields the paper's implicit baselines: assume
//! `Uniform` on skewed keys → the naive Kleinberg graph that degrades
//! (E4); assume a sampled estimate → Mercury-style approximation (E11).
//!
//! Module map:
//!
//! * [`config`] — out-degree policy, link sampler, mass threshold.
//! * [`links`] — exact inverse-mass sampling and the `O(log N)`
//!   harmonic-continuous approximation.
//! * [`builder`] / [`network`] — construction and the overlay itself.
//!   The builder samples each peer's long links from an independent RNG
//!   stream and fans peers out across worker threads
//!   ([`SmallWorldBuilder::parallelism`]); the built network stores its
//!   adjacency in two flat CSR [`Topology`](sw_graph::Topology) tables
//!   (long links + the full contact table), so a fixed seed produces a
//!   bit-identical network at any thread count. Batched lookups go
//!   through `sw_overlay::route::route_batch`.
//! * [`routing`] — greedy routing by mass: the normalized space R′
//!   that Theorem 2's proof routes in, the ablation of E15.
//! * [`partition`] — the `log2 N`-partition machinery of Theorem 1's
//!   proof: empirical `P_next` and `E[X_j]` (E2, E6).
//! * [`theory`] — closed-form constants and bounds from the proofs.
//! * [`estimate`] — local density estimation and iterative link
//!   refreshing for unknown/drifting `f` (§4.2, E11).

pub mod builder;
pub mod config;
pub mod estimate;
pub mod links;
pub mod network;
pub mod partition;
pub mod routing;
pub mod theory;

pub use builder::{ArenaBuild, BuildError, BuildProfile, SmallWorldBuilder};
pub use config::{LinkSampler, MassThreshold, OutDegree, SmallWorldConfig};
pub use network::SmallWorldNetwork;

/// Convenient glob import for downstream crates and examples.
pub mod prelude {
    pub use crate::builder::{ArenaBuild, BuildError, BuildProfile, SmallWorldBuilder};
    pub use crate::config::{LinkSampler, MassThreshold, OutDegree, SmallWorldConfig};
    pub use crate::network::SmallWorldNetwork;
    pub use crate::partition::PartitionSurvey;
    pub use crate::theory;
}
