//! Long links: the routed probe chains of a join and of each refresh.

use super::{Simulator, OUT_DEGREE};
use crate::protocol::Purpose;
use sw_keyspace::Key;

impl Simulator {
    /// Long-link refresh: a chain of *routed* probes rebuilding the
    /// node's long links against the current population. The old links
    /// stay in service until the chain completes.
    pub(super) fn do_refresh_start(&mut self, id: u32) {
        if self.peers.nodes[id as usize].refreshing {
            return; // previous chain still in flight
        }
        self.peers.nodes[id as usize].refreshing = true;
        let budget = OUT_DEGREE.links_for(self.world.oracle().population());
        self.spawn_link_probe(id, Vec::new(), budget, 4 * budget as u32 + 8, true);
    }

    /// Spawns the next probe of a link chain: draw a harmonic-rule
    /// target around `node`'s position and route toward it.
    pub(super) fn spawn_link_probe(
        &mut self,
        node: u32,
        collected: Vec<u32>,
        budget: usize,
        tries_left: u32,
        refresh: bool,
    ) {
        if budget == 0 || tries_left == 0 {
            self.finish_links(node, collected, refresh);
            return;
        }
        // The population floor of 8 keeps `side_weight` ≥ ln 4.
        let tau = 1.0 / self.world.oracle().population() as f64;
        let side_weight = (0.5f64 / tau).max(1.0).ln();
        // Target draws come from the dedicated link stream — chains are
        // spawned in event order, so the draws are deterministic.
        let pos = self
            .world
            .oracle()
            .cdf(self.peers.keys[node as usize].get());
        let sign = if self.link_rng.chance(0.5) { 1.0 } else { -1.0 };
        let m = tau * (side_weight * self.link_rng.f64()).exp();
        let target_pos = (pos + sign * m).rem_euclid(1.0);
        let target = Key::clamped(self.world.oracle().quantile(target_pos));
        self.spawn_walk(
            Purpose::LinkProbe {
                node,
                collected,
                budget,
                tries_left: tries_left - 1,
                refresh,
            },
            target,
            node,
        );
    }

    pub(super) fn finish_links(&mut self, node: u32, collected: Vec<u32>, refresh: bool) {
        if self.world.is_alive(node) {
            self.peers.links.set_row(node, collected);
        }
        if refresh {
            self.peers.nodes[node as usize].refreshing = false;
        }
    }
}
