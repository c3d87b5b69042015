//! Construction parameters for the paper's small-world networks.

use sw_keyspace::Topology;

/// How many long-range links each peer maintains.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OutDegree {
    /// The paper's choice: `ceil(log2 N)` links (§3: “a node has log2 N
    /// long-range edges instead of a constant number”).
    Log2N,
    /// A constant number of links — Kleinberg's original setting and
    /// Symphony's; yields poly-log instead of log routing (E5).
    Const(usize),
}

impl OutDegree {
    /// Number of long-range links for an `N`-peer network (at least 1).
    pub fn links_for(&self, n: usize) -> usize {
        let links = match *self {
            OutDegree::Log2N => (n.max(2) as f64).log2().ceil() as usize,
            OutDegree::Const(k) => k,
        };
        links.max(1)
    }
}

/// The “not too close” restriction on long-range links.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MassThreshold {
    /// The paper's restriction: mass between endpoints ≥ `1/N`.
    OneOverN,
}

impl MassThreshold {
    /// The concrete minimum mass for an `N`-peer network.
    pub fn min_mass(&self, n: usize) -> f64 {
        match *self {
            MassThreshold::OneOverN => 1.0 / n.max(1) as f64,
        }
    }
}

/// How long-range targets are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkSampler {
    /// The paper's discrete rule, exactly: `P[v] ∝ 1/mass(u, v)` computed
    /// over every admissible peer `v`. `O(N)` setup per peer.
    Exact,
    /// The continuous limit: draw a mass offset log-uniformly in
    /// `[1/N, M_side]` (side chosen ∝ `ln(N·M_side)`), map through the
    /// assumed quantile and link to the nearest peer. `O(log N)` per
    /// draw; this is the Symphony/Mercury trick, and E1/E3 confirm it
    /// matches `Exact` statistically.
    Harmonic,
}

impl LinkSampler {
    /// Short lowercase label used in network display names.
    pub fn label(self) -> &'static str {
        match self {
            LinkSampler::Exact => "exact",
            LinkSampler::Harmonic => "harmonic",
        }
    }
}

/// Full construction configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmallWorldConfig {
    /// Interval (the paper's proofs) or ring.
    pub topology: Topology,
    /// Long-range link budget.
    pub out_degree: OutDegree,
    /// Exact or harmonic-continuous sampling.
    pub sampler: LinkSampler,
}

impl Default for SmallWorldConfig {
    /// The configuration of the paper's theorems: interval topology,
    /// `log2 N` out-degree, `1/N` mass threshold, exact sampling,
    /// directed links.
    fn default() -> Self {
        SmallWorldConfig {
            topology: Topology::Interval,
            out_degree: OutDegree::Log2N,
            sampler: LinkSampler::Exact,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2n_out_degree() {
        assert_eq!(OutDegree::Log2N.links_for(1024), 10);
        assert_eq!(OutDegree::Log2N.links_for(1025), 11);
        assert_eq!(OutDegree::Log2N.links_for(2), 1);
        // Never zero, even for degenerate n.
        assert_eq!(OutDegree::Log2N.links_for(1), 1);
    }

    #[test]
    fn const_out_degree() {
        assert_eq!(OutDegree::Const(5).links_for(1_000_000), 5);
        assert_eq!(OutDegree::Const(0).links_for(64), 1, "clamped to 1");
    }

    #[test]
    fn mass_thresholds() {
        assert_eq!(MassThreshold::OneOverN.min_mass(1000), 0.001);
    }

    #[test]
    fn default_matches_the_paper() {
        let c = SmallWorldConfig::default();
        assert_eq!(c.topology, Topology::Interval);
        assert_eq!(c.out_degree, OutDegree::Log2N);
        assert_eq!(c.sampler, LinkSampler::Exact);
    }
}
