//! # sw-keyspace
//!
//! Key-space substrate for small-world overlay networks: identifiers in the
//! unit interval, interval/ring distance metrics, a library of key
//! distributions with exact `pdf`/`cdf`/`quantile` triples, deterministic
//! randomness, and the statistics toolkit used by every experiment in the
//! workspace.
//!
//! This crate is the bottom layer of the reproduction of *“On Small
//! World Graphs in Non-uniformly Distributed Key Spaces”* (Girdzijauskas,
//! Datta & Aberer, ICDE 2005).
//!
//! ## Layout
//!
//! * [`key`] — the [`Key`] identifier newtype over `[0, 1)`.
//! * [`metric`] — [`Topology`] (interval or ring) and its distance
//!   functions, matching §2.1 of the paper.
//! * [`rng`] — a deterministic, seedable xoshiro256\*\* PRNG so that every
//!   randomized construction in the workspace is exactly reproducible.
//! * [`distribution`] — the [`KeyDistribution`] trait and a family of
//!   concrete distributions used to model skewed key spaces.
//! * [`stats`] — online moments, histograms, quantiles, Gini coefficient,
//!   least-squares fits and the two-sample KS statistic for the
//!   experiment harness.
//!
//! ## Quick example
//!
//! ```
//! use sw_keyspace::prelude::*;
//!
//! let mut rng = Rng::new(42);
//! let dist = Kumaraswamy::new(0.5, 0.5).unwrap(); // bathtub-shaped skew
//! let key = dist.sample_key(&mut rng);
//! assert!(key.get() >= 0.0 && key.get() < 1.0);
//!
//! // Mass distance (Model 2 of the paper) between two keys:
//! let mass = dist.mass_between(0.1, 0.4);
//! assert!((mass - (dist.cdf(0.4) - dist.cdf(0.1))).abs() < 1e-12);
//! ```

pub mod distribution;
pub mod key;
pub mod metric;
pub mod rng;
pub mod stats;

pub use distribution::KeyDistribution;
pub use key::{Key, KeyError};
pub use metric::Topology;
pub use rng::{splitmix64_mix, Rng};

/// Convenient glob import for downstream crates and examples.
pub mod prelude {
    pub use crate::distribution::{
        Empirical, KeyDistribution, Kumaraswamy, PiecewiseConstant, TruncatedExponential,
        TruncatedNormal, TruncatedPareto, Uniform,
    };
    pub use crate::key::{Key, KeyError};
    pub use crate::metric::Topology;
    pub use crate::rng::Rng;
    pub use crate::stats::OnlineStats;
}
