//! # sw-balance
//!
//! Storage/workload load-balancing substrate.
//!
//! §4.1 of the paper *assumes* “a mechanism that assigns peers according
//! to a non-uniform distribution in the key-space adapting to the load
//! distribution (e.g., storage), such that the balanced number of data
//! objects are assigned to each peer”, citing the multifaceted-balancing
//! and online range-partitioning literature. This crate supplies that
//! mechanism so the assumption can be exercised end-to-end:
//!
//! * [`corpus`] — synthetic data corpora with skewed keys and optional
//!   per-item query weights.
//! * [`ownership`] — successor-arc assignment of items to peers and the
//!   resulting storage/query load vectors.
//! * [`rebalance`] — peer-placement strategies (uniform hashing vs
//!   data-sampled placement) and an online neighbour-shift rebalancer in
//!   the spirit of Ganesan, Bawa & Garcia-Molina (VLDB 2004).
//!
//! Experiment E8 reports Gini/max-mean balance for each strategy; the
//! data-sampled placement is then what the small-world Model 2 builds
//! its graph over.

pub mod corpus;
pub mod ownership;
pub mod rebalance;

pub use corpus::Corpus;
pub use ownership::{query_loads, storage_loads, BalanceReport};
pub use rebalance::{place_peers, rebalance_until_stable, PeerPlacement};
