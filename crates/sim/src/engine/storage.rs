//! Storage: the put, get and range tails, the repair ladder, the
//! hand-off, and the copy accounting every stored copy moves through.

use super::{
    repair_flight, Simulator, SuccList, DIGEST_BYTES, HOP_DELAY, PREDECESSOR_LIST, RANGE_WIDTH,
    REPAIR_HEADER_BYTES, SUCCESSOR_LIST, TIMEOUT_PENALTY,
};
use crate::protocol::{
    Handoff, Msg, Purpose, QueryId, RepairDiff, RepairDigest, RepairPull, RepairPush, Source, Walk,
    WalkEnd,
};
use crate::time::SimTime;
use sw_dht::{item_bytes, on_sweep_arc, KEY_BYTES};
use sw_keyspace::Key;
use sw_keyspace::Topology as Metric;

impl Simulator {
    // ----- storage workload ------------------------------------------

    /// Bulk-loads `storage.preload` items at t = 0, each stored at the
    /// owner and replica chain the world places it on
    /// ([`World::preload`](crate::world::World::preload)).
    pub(super) fn preload_storage(&mut self) {
        let items = self.world.preload(&self.cfg, &self.peers.keys);
        self.put_keys.reserve(items.len());
        for (key, owner, chain) in items {
            let value = self.next_value();
            for r in chain {
                self.store(r, key, value.clone());
            }
            self.store(owner, key, value);
            self.put_keys.push(key);
        }
    }

    fn next_value(&mut self) -> Vec<u8> {
        self.put_counter += 1;
        self.put_counter.to_le_bytes().to_vec()
    }

    pub(super) fn do_put_start(&mut self) {
        let key = self.world.sample_key(Source::Put);
        let from = self.world.random_alive(Source::Put);
        let value = self.next_value();
        self.spawn_walk(Purpose::Put { value, pending: 0 }, key, from);
    }

    pub(super) fn do_get_start(&mut self) {
        let key = if self.put_keys.is_empty() {
            self.world.sample_key(Source::Get)
        } else {
            self.put_keys[self.world.stream(Source::Get).index(self.put_keys.len())]
        };
        let from = self.world.random_alive(Source::Get);
        self.spawn_walk(Purpose::Get, key, from);
    }

    pub(super) fn do_range_start(&mut self) {
        let lo = self.world.sample_key(Source::Range);
        let hi = Key::clamped(lo.get() + RANGE_WIDTH);
        let from = self.world.random_alive(Source::Range);
        if hi <= lo {
            return; // degenerate range at the top of the key space
        }
        self.spawn_walk(Purpose::range(lo, hi), lo, from);
    }

    /// A put, get or range route ended: charge its messages to storage.
    /// A route that failed (stranded, out of hops or exhausted) ends the
    /// op; otherwise the successor-rule owner of the key near where the
    /// walk ended becomes its holder (`cur`) and runs its tail. The
    /// route's exclusions are cleared, so they skip no replica and no
    /// sweep peer.
    pub(super) fn start_tail(&mut self, op: QueryId, end: WalkEnd) {
        let walk = self.walks.get(op).expect("a tail starts filed");
        self.metrics.storage_messages += walk.msgs as u64;
        if matches!(
            end,
            WalkEnd::Stranded | WalkEnd::HopLimit | WalkEnd::Exhausted
        ) {
            return self.end_storage(op, false);
        }
        let at = self.shift_to_owner(walk.cur, walk.target);
        let walk = self.walks.get_mut(op).expect("a tail starts filed");
        walk.cur = at;
        walk.excluded.clear();
        match walk.purpose {
            Purpose::Put { .. } => self.fan_out_put(op),
            Purpose::Get => self.read_owner(op),
            Purpose::Range { .. } => self.continue_sweep(op, at),
            _ => unreachable!("not a storage op"),
        }
    }

    /// The one exit of a put, get or range: free its slot and count it,
    /// `ok` or not. A put or get that succeeded records the walk's
    /// latency; a range counts the items and peers its sweep gathered.
    fn end_storage(&mut self, op: QueryId, ok: bool) {
        let walk = self.walks.remove(op).expect("a storage op ends once");
        let m = &mut self.metrics;
        let (done, done_ok, latency) = match walk.purpose {
            Purpose::Put { .. } => (&mut m.puts, &mut m.puts_ok, &mut m.put_latency_secs),
            Purpose::Get => (&mut m.gets, &mut m.gets_ok, &mut m.get_latency_secs),
            Purpose::Range {
                items,
                peers_visited,
                ..
            } => {
                m.ranges += 1;
                m.ranges_ok += u64::from(ok);
                m.range_items += items;
                m.range_peers += u64::from(peers_visited);
                return;
            }
            _ => unreachable!("not a storage op"),
        };
        *done += 1;
        if ok {
            *done_ok += 1;
            latency.push(walk.latency.as_secs_f64());
        }
    }

    /// `at`'s replica chain as its own successor view sees it: its first
    /// `replication − 1` successors, or `at_least` if more. Put
    /// fan-outs, get fallbacks and repair rounds all work off it.
    pub(super) fn replica_view(&self, at: u32, at_least: usize) -> SuccList {
        let mut chain = self.peers.nodes[at as usize].succ;
        let want = (self.replication_target() as usize - 1).max(at_least);
        chain.len = chain.len.min(want.min(SUCCESSOR_LIST) as u8);
        chain
    }

    /// Greedy routing ends at the *nearest* peer. A peer owns
    /// `(pred, self]`, so the owner is that peer or, if `key` lies on
    /// `(at, succ]` (wrapping over the top of the ring), its live
    /// successor: one forwarding message at most, charged to the op (the
    /// adjustment `sw_dht::Dht::route_to_owner` makes statically).
    fn shift_to_owner(&mut self, at: u32, key: Key) -> u32 {
        let own = self.peers.keys[at as usize];
        match self.peers.nodes[at as usize].succ.first() {
            Some(&s)
                if Metric::Ring.in_arc(own, key, self.peers.keys[s as usize])
                    && self.world.oracle().is_alive(s) =>
            {
                self.metrics.storage_messages += 1;
                s
            }
            _ => at,
        }
    }

    /// Put tail: store the copy at the owner and fan out replica writes
    /// over its local successor view.
    fn fan_out_put(&mut self, op: QueryId) {
        let walk = self.walks.get(op).expect("a tail starts filed");
        let (at, key) = (walk.cur, walk.target);
        let chain = self.replica_view(at, 0);
        let Some(Walk {
            purpose: Purpose::Put { value, pending },
            ..
        }) = self.walks.get_mut(op)
        else {
            unreachable!("a put")
        };
        *pending = chain.len() as u32;
        let value = value.clone();
        self.store(at, key, value);
        self.put_keys.push(key);
        if chain.is_empty() {
            return self.end_storage(op, true);
        }
        let now = self.plane.now();
        for &to in chain.iter() {
            self.metrics.storage_messages += 1;
            self.send_net(at, to, now, HOP_DELAY, Msg::ReplicaPut { op, to });
        }
    }

    pub(super) fn deliver_replica_put(&mut self, op: QueryId, to: u32, live: bool) {
        let now = self.plane.now();
        let Some(Walk {
            purpose: Purpose::Put { value, pending },
            target: key,
            latency,
            issued_at,
            ..
        }) = self.walks.get_mut(op)
        else {
            return;
        };
        *pending -= 1;
        let done = *pending == 0;
        if done {
            // A fanned-out put's latency runs from its issue.
            *latency = now - *issued_at;
        }
        // A replica write keeps a copy the peer already holds.
        if live && !self.peers.store.contains(to, *key) {
            let (k, v) = (*key, value.clone());
            self.store(to, k, v);
        }
        if done {
            // The owner holds a copy, so the put succeeded whatever
            // became of its replica writes.
            self.end_storage(op, true);
        }
    }

    /// Get tail: the owner serves any copy it holds (one on its arc, or
    /// one it kept as a replica of a predecessor that has since died);
    /// otherwise it probes the replicas along its successor view, which
    /// become the walk's candidate pool.
    fn read_owner(&mut self, op: QueryId) {
        let walk = self.walks.get(op).expect("a tail starts filed");
        let (at, key) = (walk.cur, walk.target);
        if self.peers.store.contains(at, key) {
            return self.end_storage(op, true);
        }
        // Probe at least the first successor, even unreplicated.
        let chain = self.replica_view(at, 1);
        let walk = self.walks.get_mut(op).expect("a tail starts filed");
        walk.set_alternates(chain.to_vec());
        let Some(first) = walk.next_alternate() else {
            return self.end_storage(op, false);
        };
        let now = self.plane.now();
        self.metrics.storage_messages += 1;
        self.metrics.gets_fallback += 1;
        self.send_net(
            at,
            first,
            now,
            HOP_DELAY,
            Msg::ReplicaProbe {
                op,
                to: first,
                sent_at: now,
            },
        );
    }

    pub(super) fn deliver_replica_probe(
        &mut self,
        op: QueryId,
        to: u32,
        sent_at: SimTime,
        live: bool,
    ) {
        let now = self.plane.now();
        let Some(walk) = self.walks.get_mut(op) else {
            return;
        };
        // A live peer answers, request and reply both travelling (double
        // the one-way delay); a dead one costs the timeout penalty.
        let one_way = now - sent_at;
        let next_send = if live {
            walk.latency += one_way + one_way;
            now + one_way
        } else {
            walk.latency += TIMEOUT_PENALTY;
            sent_at + TIMEOUT_PENALTY
        };
        let (key, owner) = (walk.target, walk.cur);
        // A probed peer serves any copy it holds.
        if live && self.peers.store.contains(to, key) {
            self.end_storage(op, true);
            // Read repair: the routed owner missed a key this replica
            // just served — stream that one item to it immediately (an
            // owner-direction repair transfer, byte-accounted like any
            // anti-entropy rung) instead of waiting for the next round.
            if owner != to && self.world.oracle().is_alive(owner) {
                if let Some(v) = self.peers.store.get(to, key).cloned() {
                    self.metrics.gets_read_repaired += 1;
                    let bytes = REPAIR_HEADER_BYTES + item_bytes(&v);
                    self.send_repair(
                        to,
                        owner,
                        bytes,
                        Msg::RepairPull(Box::new(RepairPull {
                            owner,
                            items: vec![(key, v)],
                        })),
                    );
                }
            }
            return;
        }
        // Miss (alive but no copy) or timeout (dead): try the next
        // replica in the chain, from the routed owner. A failed owner
        // sends nothing more, as a walk strands at a dead holder.
        let next = if self.world.is_alive(owner) {
            walk.next_alternate()
        } else {
            None
        };
        let Some(next) = next else {
            return self.end_storage(op, false);
        };
        self.metrics.storage_messages += 1;
        self.metrics.gets_fallback += 1;
        self.send_net(
            owner,
            next,
            next_send,
            HOP_DELAY,
            Msg::ReplicaProbe {
                op,
                to: next,
                sent_at: next_send,
            },
        );
    }

    /// Serve a fragment at sweep peer `at`, then forward to the next
    /// owner clockwise (or complete).
    fn continue_sweep(&mut self, op: QueryId, at: u32) {
        let Some(Walk {
            purpose:
                Purpose::Range {
                    lo,
                    hi,
                    items,
                    peers_visited,
                    started,
                },
            cur: from,
            excluded: tried,
            ..
        }) = self.walks.get_mut(op)
        else {
            return;
        };
        *peers_visited += 1;
        tried.clear();
        // A later peer holds `(previous holder, at]` of the range, the
        // first `[lo, at]`, or none if `lo` lies on `(at, succ]` (the
        // route ended short of a dead successor, and the sweep starts at
        // the next live one). It serves its rows on that arc, and the
        // range is served once `hi` lies on it: within one circuit,
        // clockwise.
        let (key, lo, hi) = (self.peers.keys[at as usize], *lo, *hi);
        let prev = started.then(|| self.peers.keys[*from as usize]);
        let lo_ahead = !*started
            && self.peers.nodes[at as usize]
                .succ
                .first()
                .is_some_and(|&s| Metric::Ring.in_arc(key, lo, self.peers.keys[s as usize]));
        *started = !lo_ahead;
        let on_arc = |k: Key| !lo_ahead && on_sweep_arc(lo, prev, key, k);
        let rows = self.peers.store.shard_range(at, lo, hi);
        *items += rows.filter(|(k, _)| on_arc(**k)).count() as u64;
        let served = on_arc(hi);
        *from = at;
        let next = match self.peers.nodes[at as usize].succ.first() {
            Some(&next) if !served => next,
            _ => return self.end_storage(op, served),
        };
        let now = self.plane.now();
        self.metrics.storage_messages += 1;
        self.send_net(
            at,
            next,
            now,
            HOP_DELAY,
            Msg::RangeFragment {
                op,
                to: next,
                sent_at: now,
            },
        );
    }

    /// A fragment request reaches sweep peer `to` — or, unless `live`,
    /// the previous fragment holder times out and tries its next known
    /// successor.
    pub(super) fn deliver_range_fragment(
        &mut self,
        op: QueryId,
        to: u32,
        sent_at: SimTime,
        live: bool,
    ) {
        if live {
            return self.continue_sweep(op, to);
        }
        let Some(walk) = self.walks.get_mut(op) else {
            return;
        };
        let from = walk.cur;
        if !self.world.is_alive(from) {
            // The holder that would retry failed, and the sweep with it,
            // as a walk strands at a dead holder.
            return self.end_storage(op, false);
        }
        walk.excluded.push(to);
        let next = self.peers.nodes[from as usize]
            .succ
            .iter()
            .copied()
            .find(|v| !walk.excluded.contains(v));
        let Some(next) = next else {
            // No live successor in view: the sweep dead-ends.
            return self.end_storage(op, false);
        };
        let retry_at = sent_at + TIMEOUT_PENALTY;
        self.metrics.storage_messages += 1;
        self.send_net(
            from,
            next,
            retry_at,
            HOP_DELAY,
            Msg::RangeFragment {
                op,
                to: next,
                sent_at: retry_at,
            },
        );
    }

    // ----- the repair plane (anti-entropy rounds) --------------------

    /// Sends one repair-plane message: counted, byte-accounted, and
    /// delayed by the hop delay *plus* the bandwidth cost of its
    /// payload. Routes through the congestion plane, so under load a
    /// repair transfer also pays queue wait and link shaping — and may
    /// be dropped outright at a full service queue (repair messages are
    /// fire-and-forget; the next anti-entropy round re-requests).
    fn send_repair(&mut self, from: u32, to: u32, bytes: u64, msg: Msg) {
        self.metrics.repair_messages += 1;
        self.metrics.repair_bytes += bytes;
        match msg {
            Msg::RepairDigest(_) => self.metrics.repair_digest_bytes += bytes,
            Msg::Handoff(_) => self.metrics.repair_handoff_bytes += bytes,
            _ => {}
        }
        let now = self.plane.now();
        self.send_net(from, to, now, repair_flight(bytes), msg);
    }

    /// One anti-entropy round at `id`, on its timer or when its replica
    /// chain or keep arc moved: the hand-off of its copies off its keep
    /// arc, then a digest of its arc to each replica-chain peer in the
    /// node's local successor view.
    pub(super) fn do_repair_round(&mut self, id: u32) {
        // A fresh round re-requests anything still missing; pulls lost
        // to a dead replica stop blocking here.
        self.peers.pending_wants.remove(&id);
        let key = self.peers.keys[id as usize];
        let pred_key = self.peers.keys[self.peers.nodes[id as usize].preds[0] as usize];
        self.hand_off(id);
        let chain = self.replica_view(id, 0);
        if chain.is_empty() {
            return;
        }
        let digest = self.peers.store.arc_digest(id, pred_key, key);
        for &to in chain.iter() {
            self.send_repair(
                id,
                to,
                DIGEST_BYTES,
                Msg::RepairDigest(Box::new(RepairDigest {
                    owner: id,
                    to,
                    lo: pred_key,
                    hi: key,
                    count: digest.count,
                    hash: digest.hash,
                })),
            );
        }
    }

    /// `k = min(r, PREDECESSOR_LIST)`: a peer is in the replica chains
    /// of its own arc and its first `k − 1` predecessors' arcs, so it
    /// keeps copies on `(pred_k, self]`, its keep arc.
    fn keep_span(&self) -> usize {
        (self.replication_target() as usize).min(PREDECESSOR_LIST)
    }

    /// The peers a repair round at `id` works with: its replica chain
    /// and the `k` predecessors whose arcs it keeps.
    pub(super) fn repair_view(&self, id: u32) -> (SuccList, [u32; PREDECESSOR_LIST]) {
        let mut preds = self.peers.nodes[id as usize].preds;
        preds[self.keep_span()..].fill(u32::MAX);
        (self.replica_view(id, 0), preds)
    }

    /// `pred_k`'s key, the open end of `id`'s keep arc.
    fn keep_from(&self, id: u32) -> Key {
        let pred = self.peers.nodes[id as usize].preds[self.keep_span() - 1];
        self.peers.keys[pred as usize]
    }

    /// The hand-off: `id`'s copies off its keep arc belong to arcs whose
    /// chains it has left. Each goes toward the nearer end of that off
    /// arc: those ahead of `id` in one message through its first `k`
    /// successors, the rest in one through its predecessors `pred_1 →
    /// … → pred_k`, the peers that now cover them. Each round sends them
    /// again until they are released.
    pub(super) fn hand_off(&mut self, id: u32) {
        let (own, from) = (self.peers.keys[id as usize], self.keep_from(id));
        let (node, k) = (&self.peers.nodes[id as usize], self.keep_span());
        let ahead: Vec<u32> = node.succ.iter().take(k).rev().copied().collect();
        let behind: Vec<u32> = node.preds[..k].iter().rev().copied().collect();
        let ring = Metric::Ring;
        let (fore, aft): (Vec<Key>, Vec<Key>) = (self.peers.store.arc_keys(id, own, from))
            .into_iter()
            .partition(|&x| ring.clockwise(own, x) <= ring.clockwise(x, from));
        for (relay, keys) in [(ahead, fore), (behind, aft)] {
            let (items, bytes) = self.peers.store.export(id, &keys);
            if items.is_empty() {
                continue;
            }
            let (to, bytes) = (relay[relay.len() - 1], REPAIR_HEADER_BYTES + bytes);
            let handoff = Handoff {
                holder: id,
                relay,
                items,
            };
            self.send_repair(id, to, bytes, Msg::Handoff(Box::new(handoff)));
        }
    }

    /// A hand-off reaches its next hop. A relay hop stores the items it
    /// lacks on its own keep arc and passes the message on; the last one
    /// stores every item it lacks and sends the message back to the
    /// holder as its release, charged as a key list. The holder drops
    /// the released copies still off its keep arc. A dead hop or a lost
    /// message releases nothing, and a later round tries again, so a
    /// view that still lists a dead peer never drops a copy. A retired
    /// last copy is a permanent loss and is counted as such.
    pub(super) fn on_handoff(&mut self, mut handoff: Box<Handoff>) {
        let at = handoff.relay.pop().expect("a hand-off names its hop");
        let (own, from) = (self.peers.keys[at as usize], self.keep_from(at));
        let kept = |k: Key| Metric::Ring.in_arc(from, k, own);
        if at == handoff.holder {
            let now = self.plane.now();
            for &(k, _) in handoff.items.iter().filter(|(k, _)| !kept(*k)) {
                if let Some(v) = self.peers.store.remove(at, k) {
                    self.metrics.stored_bytes -= item_bytes(&v);
                    self.world.note_remove(k, now, &mut self.metrics);
                }
            }
            return;
        }
        let mut bytes = REPAIR_HEADER_BYTES;
        for (k, v) in &handoff.items {
            bytes += item_bytes(v);
            if (handoff.relay.is_empty() || kept(*k)) && !self.peers.store.contains(at, *k) {
                self.store(at, *k, v.clone());
            }
        }
        if handoff.relay.is_empty() {
            bytes = REPAIR_HEADER_BYTES + KEY_BYTES * handoff.items.len() as u64;
            handoff.relay.push(handoff.holder);
        }
        let next = handoff.relay[handoff.relay.len() - 1];
        self.send_repair(at, next, bytes, Msg::Handoff(handoff));
    }

    /// A repair digest arrives at replica-chain peer `to`: compare
    /// digests, and reply with this peer's key list if they disagree.
    pub(super) fn on_repair_digest(
        &mut self,
        RepairDigest {
            owner,
            to,
            lo,
            hi,
            count,
            hash,
        }: RepairDigest,
    ) {
        let mine = self.peers.store.arc_digest(to, lo, hi);
        if mine.count == count && mine.hash == hash {
            return; // in sync: the round cost one digest message
        }
        let mut keys = self.peers.store.arc_keys(to, lo, hi);
        keys.sort();
        let bytes = REPAIR_HEADER_BYTES + KEY_BYTES * keys.len() as u64;
        self.send_repair(
            to,
            owner,
            bytes,
            Msg::RepairDiff(Box::new(RepairDiff {
                owner,
                replica: to,
                lo,
                hi,
                keys,
            })),
        );
    }

    /// A diff reply arrives back at the owner: compute both transfer
    /// directions — items the replica lacks (push) and keys the owner
    /// lacks (want, the recovery direction) — and ship them.
    pub(super) fn on_repair_diff(
        &mut self,
        RepairDiff {
            owner,
            replica,
            lo,
            hi,
            keys,
        }: RepairDiff,
    ) {
        let missing = self.peers.store.arc_diff(owner, lo, hi, &keys);
        let mut mine = self.peers.store.arc_keys(owner, lo, hi);
        mine.sort();
        let outstanding = self.peers.pending_wants.entry(owner).or_default();
        let want: Vec<Key> = keys
            .iter()
            .copied()
            .filter(|k| mine.binary_search(k).is_err() && !outstanding.contains(k))
            .collect();
        outstanding.extend(want.iter().copied());
        if missing.is_empty() && want.is_empty() {
            return;
        }
        let (items, item_cost) = self.peers.store.export(owner, &missing);
        let bytes = REPAIR_HEADER_BYTES + item_cost + KEY_BYTES * want.len() as u64;
        self.send_repair(
            owner,
            replica,
            bytes,
            Msg::RepairPush(Box::new(RepairPush {
                owner,
                replica,
                items,
                want,
            })),
        );
    }

    /// A push arrives at the replica: absorb the refill, then stream the
    /// owner's wanted keys back (the transfer that makes a failed peer's
    /// slice durable again).
    pub(super) fn on_repair_push(
        &mut self,
        RepairPush {
            owner,
            replica,
            items,
            want,
        }: RepairPush,
    ) {
        for (k, v) in items {
            // A replica write keeps a copy the peer already holds.
            if !self.peers.store.contains(replica, k) {
                self.store(replica, k, v);
            }
        }
        if want.is_empty() {
            return;
        }
        let mut back = Vec::with_capacity(want.len());
        let mut bytes = REPAIR_HEADER_BYTES;
        for &k in &want {
            if let Some(v) = self.peers.store.get(replica, k) {
                bytes += item_bytes(v);
                back.push((k, v.clone()));
            }
        }
        if back.is_empty() {
            return; // the copies vanished while the ladder was in flight
        }
        self.send_repair(
            replica,
            owner,
            bytes,
            Msg::RepairPull(Box::new(RepairPull { owner, items: back })),
        );
    }

    /// The recovery transfer lands at the owner: the streamed items are
    /// finally durable on their owner's arc.
    pub(super) fn on_repair_pull(&mut self, RepairPull { owner, items }: RepairPull) {
        for (k, v) in items {
            if let Some(w) = self.peers.pending_wants.get_mut(&owner) {
                w.remove(&k);
            }
            self.store(owner, k, v);
        }
    }

    // ----- storage accounting ----------------------------------------
    //
    // Every physical copy moves through these helpers so the per-key
    // live-copy counts, the under-replication gauge, `keys_lost`,
    // time-to-repair and `stored_bytes` stay exact. A peer holds at
    // most one copy of a key: its shard is a map.

    pub(super) fn replication_target(&self) -> u32 {
        self.cfg.storage.replication.max(1) as u32
    }

    /// Stores `value` as `peer`'s copy of `key`, replacing any copy it
    /// held.
    pub(super) fn store(&mut self, peer: u32, key: Key, value: Vec<u8>) {
        self.metrics.stored_bytes += item_bytes(&value);
        match self.peers.store.insert(peer, key, value) {
            Some(old) => self.metrics.stored_bytes -= item_bytes(&old),
            None => self
                .world
                .note_add(key, self.plane.now(), &mut self.metrics),
        }
    }

    /// A peer failed: its shard dies with the machine.
    pub(super) fn drop_peer_storage(&mut self, peer: u32) {
        let dropped: Vec<(Key, u64)> = match self.peers.store.shard(peer) {
            Some(s) => s.iter().map(|(k, v)| (*k, item_bytes(v))).collect(),
            None => Vec::new(),
        };
        self.peers.store.clear_shard(peer);
        for (k, bytes) in dropped {
            self.metrics.stored_bytes -= bytes;
            self.world
                .note_remove(k, self.plane.now(), &mut self.metrics);
        }
        self.peers.pending_wants.remove(&peer);
    }
}
