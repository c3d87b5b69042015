//! # sw-bench
//!
//! The experiment harness: one runnable experiment per claim of the
//! paper, each printing its table/series and writing a CSV next to it.
//! A claim is held by the tier-1 test or committed `BENCH_*.json` file
//! that the claim table in [`experiments`] names, not by printed prose;
//! only E22, which pins nothing, still prints an "expected shape" line.
//!
//! ```text
//! cargo run -p sw-bench --release --bin experiments -- all
//! cargo run -p sw-bench --release --bin experiments -- e1 e3
//! cargo run -p sw-bench --release --bin experiments -- --quick all
//! ```
//!
//! Full-profile runs of E18, E19 and E23 also write their rows — all
//! functions of the seed, none of the host — as the repo-root
//! `BENCH_{repair,routing,traffic}.json` ([`Ctx::write_snapshot`]), so a
//! rerun must leave `git diff` clean; `--quick` runs never write them.
//! Anything measured in host seconds is `benchmark/`'s job, not this
//! crate's.

pub mod ctx;
pub mod experiments;
pub mod table;

pub use ctx::Ctx;
pub use table::Table;

/// An experiment entry point.
pub type ExperimentFn = fn(&Ctx);

/// The experiment registry: `(id, summary, runner)`.
pub fn registry() -> Vec<(&'static str, &'static str, ExperimentFn)> {
    vec![
        (
            "e1",
            "Theorem 1: greedy hops vs N under uniform keys (exact & harmonic samplers)",
            experiments::theory::e1_hops_vs_n as fn(&Ctx),
        ),
        (
            "e2",
            "Proof machinery: empirical P_next and E[X_j] vs the paper's bounds",
            experiments::theory::e2_partition_advance,
        ),
        (
            "e3",
            "Theorem 2: hops vs N across seven key distributions (skew invariance)",
            experiments::skew::e3_skew_invariance,
        ),
        (
            "e4",
            "Skew sensitivity: Model 2 vs naive Kleinberg, Symphony, Mercury, Chord, Pastry, P-Grid",
            experiments::skew::e4_system_comparison,
        ),
        (
            "e5",
            "§3.1 trade-off: routing cost vs out-degree k (const -> log2 N)",
            experiments::theory::e5_outdegree_tradeoff,
        ),
        (
            "e6",
            "§3.1: long-link partition occupancy (small-world vs Chord fingers)",
            experiments::theory::e6_partition_occupancy,
        ),
        (
            "e7",
            "§3.1 robustness: routing vs fraction of long links lost",
            experiments::theory::e7_link_loss,
        ),
        (
            "e8",
            "§4 assumption: storage/query balance under three peer-placement strategies",
            experiments::balance::e8_load_balance,
        ),
        (
            "e9",
            "Figures 1-2: equivalence of G built in R and G' built in R' (CDF transport)",
            experiments::equivalence::e9_normalization_equivalence,
        ),
        (
            "e10",
            "§4.2 join protocol: grown vs oracle-built networks, messages per join",
            experiments::dynamics::e10_join_protocol,
        ),
        (
            "e11",
            "§4.2 estimation: routing cost vs local sample budget and refinement rounds",
            experiments::dynamics::e11_estimation,
        ),
        (
            "e14",
            "§5 future work: lookups under churn, with and without maintenance",
            experiments::dynamics::e14_churn,
        ),
        (
            "e15",
            "Ablation: greedy in key space vs normalized (mass) space under skew",
            experiments::skew::e15_routing_metric,
        ),
        (
            "e16",
            "§2.1 remark: interval vs ring topology (Theorems 1-2 carry over)",
            experiments::theory::e16_ring_topology,
        ),
        (
            "e18",
            "Replica repair: anti-entropy durability vs bandwidth (full profile: BENCH_repair.json)",
            experiments::repair::e18_repair,
        ),
        (
            "e19",
            "Routing modes: recursive vs iterative under churn (full profile: BENCH_routing.json)",
            experiments::routing_modes::e19_routing_modes,
        ),
        (
            "e22",
            "Simulator at scale: events/s + peak RSS from frozen preloads at n up to 10^6",
            experiments::sim_scale::e22_sim_scale,
        ),
        (
            "e23",
            "Open-loop traffic to saturation: offered load vs latency knee, hot-key cache on/off (full profile: BENCH_traffic.json)",
            experiments::traffic::e23_traffic,
        ),
    ]
}
