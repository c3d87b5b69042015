//! # sw-overlay
//!
//! Overlay-network framework and baseline DHTs. All overlays — the six
//! baselines here and the paper's models in `sw-core` — are built over a
//! shared, sorted [`Placement`] of peer keys and route with the same
//! greedy distance-minimizing engine, so hop-count comparisons are
//! apples-to-apples.
//!
//! Baselines referenced by the paper:
//!
//! * [`chord`] — deterministic fingers at key distances `2^{-k}`
//!   (Stoica et al., SIGCOMM 2001), plus the randomized variant
//!   (Manku PODC 2003 / Zhang et al.) that the paper cites as
//!   “randomized Chord”.
//! * [`pastry`] — a base-`2^b` prefix-routing DHT with a leaf set
//!   (Rowstron & Druschel, Middleware 2001), structurally one entry per
//!   logarithmic partition as discussed in §3.1.
//! * [`pgrid`] — a binary-trie DHT (Aberer, CoopIS 2001) with per-level
//!   random references; supports both midpoint and median splits to
//!   reproduce the §1 claim about P-Grid's routing state under skew.
//! * [`symphony`] — constant-degree harmonic long links in raw key space
//!   (Manku, Bawa & Raghavan, USITS 2003).
//! * [`mercury`] — Symphony-style links over *estimated rank* distance
//!   via sampled histograms (Bharambe, Agrawal & Seshan, SIGCOMM 2004):
//!   the heuristic the paper's Model 2 formalizes.
//!
//! The framework lives in [`placement`], [`route`], [`soa`] and
//! [`interleaved`]; `route`'s module docs tell the two-kernel story (the
//! reference walk for one lookup, interleaved AMAC batches for many).
//! A degraded view of an overlay (§3.1's link loss) is its topology
//! through `filter_edges`, routed with [`greedy_route`].

pub mod chord;
pub mod interleaved;
pub mod mercury;
pub mod pastry;
pub mod pgrid;
pub mod placement;
pub mod route;
pub mod soa;
pub mod symphony;

pub use interleaved::{route_interleaved, DEFAULT_INTERLEAVE};
pub use placement::{Placement, PlacementError};
pub use route::{
    greedy_candidates_into, greedy_route, greedy_step, greedy_step_soa, Overlay, RingView,
    RouteOptions, RouteResult, RoutingSurvey,
};
pub use soa::RouteTable;

/// Convenient glob import for downstream crates and examples.
pub mod prelude {
    pub use crate::chord::{Chord, RandomizedChord};
    pub use crate::mercury::Mercury;
    pub use crate::pastry::PastryLike;
    pub use crate::pgrid::{PGridLike, SplitPolicy};
    pub use crate::placement::Placement;
    pub use crate::route::{Overlay, RouteOptions, RouteResult, RoutingSurvey};
    pub use crate::symphony::Symphony;
}
