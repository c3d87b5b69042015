//! The ring: churn (join and fail) and stabilization.

use super::{SimNode, Simulator, HOP_DELAY, OUT_DEGREE, PREDECESSOR_LIST, TIMEOUT_PENALTY};
use crate::protocol::{Msg, Purpose, Source, Timer};
use crate::time::SimTime;
use crate::traffic::ServiceQueue;
use sw_keyspace::Key;

impl Simulator {
    // ----- churn -----------------------------------------------------

    pub(super) fn do_join_start(&mut self) {
        let key = self.world.joining_key();
        let entry = self.world.random_alive(Source::Join);
        // Route to the joining key to find the join point; the splice
        // happens when (if) the walk completes.
        self.spawn_walk(Purpose::JoinFind { key }, key, entry);
    }

    /// The join-point walk completed: unless another joiner took `key`
    /// meanwhile (`false`), the world takes the peer in. Give it a slot
    /// in every per-peer lane, splice it, and start its long-link probe
    /// chain.
    pub(super) fn complete_join(&mut self, key: Key) -> bool {
        let Some(id) = self.world.join(key) else {
            return false;
        };
        let (succ, preds) = self.world.oracle().ring_state(key);
        self.peers.nodes.push(SimNode {
            succ,
            preds,
            refreshing: false,
        });
        self.peers.keys.push(key);
        let row_id = self.peers.links.push_node(Vec::new());
        debug_assert_eq!(row_id, id, "link rows track node ids");
        self.node_q.push(ServiceQueue::default());
        // Splice: the new peer's predecessor and the successors it lists
        // learn about it. Those successors' keep arcs shrank, and each
        // hands its copies off at once; the relays pass through the
        // joiner, which so receives its keep arc by message.
        self.peers.nodes[preds[0] as usize].succ.insert_front(id);
        for (i, &s) in succ.iter().enumerate() {
            let preds = &mut self.peers.nodes[s as usize].preds;
            preds.copy_within(i..PREDECESSOR_LIST - 1, i + 1);
            preds[i] = id;
        }
        if self.cfg.storage.enabled() {
            succ.iter().for_each(|&s| self.hand_off(s));
        }
        self.metrics.joins += 1;
        self.schedule_timers(id);
        // Long links via routed probes (message-accounted, in-flight).
        let budget = OUT_DEGREE.links_for(self.world.oracle().population());
        self.spawn_link_probe(id, Vec::new(), budget, 8 * budget as u32 + 16, false);
        true
    }

    pub(super) fn do_fail(&mut self) {
        let Some(victim) = self.world.fail(&self.peers.keys) else {
            return;
        };
        if self.cfg.storage.enabled() {
            // The machine is gone: its shard dies with it. Its
            // slice of the key space is durable again only once a
            // surviving replica actually streams it to the new owner
            // through the anti-entropy repair plane — there is no
            // instant-merge oracle. With repair disabled, keys whose
            // last live copy sat here are permanently lost (counted in
            // `keys_lost`).
            self.drop_peer_storage(victim);
        }
        self.metrics.failures += 1;
    }

    // ----- maintenance -----------------------------------------------

    /// Stabilization round: ping every contact now, apply the repair
    /// when the slowest ping resolves (dead contacts take the timeout
    /// penalty to be noticed). Lookups in flight during the round still
    /// see the stale view — the repair is not instantaneous.
    pub(super) fn do_stabilize_start(&mut self, id: u32) {
        let node = &self.peers.nodes[id as usize];
        let view = sw_overlay::RingView {
            pred: Some(node.preds[0]),
            succ: &node.succ,
            long: self.peers.links.row_slice(id),
        };
        let rtt = SimTime(HOP_DELAY.0 * 2);
        let mut resolve = SimTime::ZERO;
        for v in view.contacts() {
            self.metrics.stabilize_messages += 1;
            resolve = resolve.max(if self.world.oracle().is_alive(v) {
                rtt
            } else {
                TIMEOUT_PENALTY
            });
        }
        self.plane.send(resolve, Msg::StabilizeApply(id));
    }

    pub(super) fn do_stabilize_apply(&mut self, id: u32) {
        if !self.world.is_alive(id) {
            return;
        }
        let (chain, preds) = self.repair_view(id);
        let node = &mut self.peers.nodes[id as usize];
        (node.succ, node.preds) = self.world.oracle().ring_state(self.peers.keys[id as usize]);
        // A new replica chain or keep arc may move copies: refill and
        // hand off now rather than at the next timer round.
        let (now_chain, now_preds) = self.repair_view(id);
        if (*chain != *now_chain || preds != now_preds) && self.cfg.period(Timer::Repair).is_some()
        {
            self.do_repair_round(id);
        }
        // Prune dead long links in place. A row with no dead contact is
        // left untouched: a base row stays a base read, not a delta copy.
        let oracle = self.world.oracle();
        self.peers.links.retain_row(id, |&v| oracle.is_alive(v));
    }
}
