//! One module per experiment family; the registry in the crate root maps
//! experiment ids (`e1`..`e11`, `e14`..`e16`, `e18`, `e19`, `e22`, `e23`)
//! onto these functions. Each experiment prints its table(s) and writes
//! CSVs into the context's output directory (through the shared `ctx`
//! path helpers). The table below names what holds each claim; E22,
//! which pins nothing, is the one experiment that still prints an
//! "expected shape" line.
//!
//! # Claims and their pins
//!
//! What each experiment reproduces, and the tier-1 test or committed
//! `BENCH_*.json` file that holds it. Tests without a path are in
//! `tests/end_to_end.rs`; a `crate::module::name` path names a unit
//! test. "None" marks a claim that is printed but not yet pinned.
//!
//! | id | reproduces | pinned by |
//! |---|---|---|
//! | e1 | Theorem 1: O(log N) greedy hops, uniform keys | `theorem1_pipeline`, `hops_grow_logarithmically_at_any_skew` |
//! | e2 | Theorem 1's proof: `P_next` and `E[X_j]` bounds | `sw_core::partition::{empirical_pnext_beats_the_theory_bound, pnext_holds_under_skew_too}` |
//! | e3 | Theorem 2: hops insensitive to key skew | `theorem2_pipeline`, `hop_distribution_is_insensitive_to_skew` |
//! | e4 | §1/§4: classic overlays degrade under skew, Model 2 does not | `naive_links_route_worse_on_skewed_keys`; per overlay `sw_overlay::{symphony::degrades_on_skewed_placement, pastry::skew_inflates_hop_counts, pgrid::midpoint_under_skew_inflates_depth_median_does_not}` |
//! | e5 | §3.1: hops vs out-degree k trade-off | `hops_fall_as_out_degree_grows_under_skew` |
//! | e6 | §3.1: long links spread evenly over the log N partitions | `sw_core::partition::{link_partitions_are_near_uniform, home_partition_gets_no_links}` |
//! | e7 | §3.1: routing degrades gracefully as long links are lost | `link_loss_degrades_gracefully_under_skew` on Model 2; `sw_overlay::symphony::partial_link_loss_degrades_gracefully` on Symphony |
//! | e8 | §4 assumption: peer density can follow data density | `balanced_storage_with_logarithmic_routing`, `sw_balance::rebalance::{uniform_hash_breaks_under_skew, sample_data_placement_balances_skew}` |
//! | e9 | Figures 1–2: G built in R equals G′ built in R′ | `normalization_equivalence` |
//! | e10 | §4.2: the join protocol grows the oracle's overlay | `grown_overlay_routes_like_the_builders` |
//! | e11 | §4.2: peers estimate f locally and approach the oracle | `estimation_recovers_from_naive_links` |
//! | e14 | §5: churn hurts lookups, maintenance restores them | `sw_sim::engine::{churn_without_maintenance_hurts_success, maintenance_restores_success_under_churn}` |
//! | e15 | ablation: key-space vs mass-space greedy | `key_space_and_mass_space_greedy_agree` |
//! | e16 | §2.1: Theorems 1–2 carry over to the ring | the ring cases of `hops_grow_logarithmically_at_any_skew` and `hop_distribution_is_insensitive_to_skew` (on the ring, key-space greedy pays ≈ 2 % under skew, so the KS bound is the ring's own); `sw_core::builder::ring_topology_build_works` checks the wiring |
//! | e18 | replica repair: durability vs bandwidth | `BENCH_repair.json` |
//! | e19 | routing modes under churn | `BENCH_routing.json`, `sw_sim::engine::iterative_strands_and_fails_strictly_less_than_recursive_under_churn` |
//! | e22 | simulator scale: events/s and peak RSS to 10⁶ peers | none: host-time readings, no claim and no `BENCH_*` row |
//! | e23 | open-loop traffic: the saturation knee, cache on/off | `BENCH_traffic.json` |

use sw_keyspace::distribution::KeyDistribution;

pub mod balance;
pub mod dynamics;
pub mod equivalence;
pub mod repair;
pub mod routing_modes;
pub mod sim_scale;
pub mod skew;
pub mod theory;
pub mod traffic;

/// A fresh copy of a key density, for an experiment that hands one
/// density to several owners: the builder takes a `Box`, and
/// `Arc::from(density())` gives the `Arc` that `with_links`,
/// `open_from` and the simulator take.
pub(crate) type Density = fn() -> Box<dyn KeyDistribution>;
