//! Walks: a routed operation's spawn, its recursive and iterative
//! steps, and [`Simulator::finish_walk`], which hands each purpose's
//! result to its family.

use super::{Peers, Simulator, HOP_DELAY, TIMEOUT_PENALTY};
use crate::protocol::{
    LookupRecord, Msg, NextHopReply, Purpose, QueryId, RoutingMode, Source, Walk, WalkEnd,
};
use crate::time::SimTime;
use crate::traffic::HotCache;
use crate::world::World;
use sw_keyspace::Key;
use sw_keyspace::Topology as Metric;

/// What one recursive greedy step decided (see
/// [`Simulator::greedy_step`]).
enum Stepped {
    /// The walk ends here.
    Done(WalkEnd),
    /// Hand the query `from → next`.
    Forward { from: u32, next: u32 },
}

impl Simulator {
    /// One open-loop arrival: draw a gateway and a Zipf-ranked hot key
    /// from the traffic stream, serve from the gateway's cache when
    /// fresh, otherwise spawn an ordinary lookup walk. Arrivals are
    /// independent of completions — offered load does not slow down
    /// when the system saturates, which is exactly what pushes the
    /// latency curve past its knee. An arrival at a dead gateway is a
    /// lookup issued and stranded at once, as a walk whose requester
    /// died ends in [`Simulator::finish_walk`], so churn cannot hide
    /// offered load.
    pub(super) fn do_traffic_lookup(&mut self) {
        let rng = self.world.stream(Source::Traffic);
        let gw = self.gateways[rng.index(self.gateways.len())];
        let rank = self.zipf.as_ref().expect("traffic enabled").sample(rng);
        if !self.world.is_alive(gw) {
            self.metrics.lookups_issued += 1;
            self.metrics.lookups += 1;
            self.metrics.lookups_stranded += 1;
            return;
        }
        let target_id = self.traffic_targets[rank];
        let now = self.plane.now();
        if let Some(cache_cfg) = self.cfg.traffic.cache {
            let cache = self
                .peers
                .caches
                .entry(gw)
                .or_insert_with(|| HotCache::new(cache_cfg.capacity));
            if cache.lookup(u64::from(target_id), now) {
                // Served locally: a completed, successful, zero-hop
                // lookup that never touches the network. The TTL bounds
                // how stale the cached owner can be (see the
                // cache-coherence caveat in the crate docs); a hit on
                // an entry whose owner has since churned still counts
                // ok, which is the price of TTL coherence.
                self.metrics.cache_hits += 1;
                self.metrics.lookups_issued += 1;
                self.metrics.lookups += 1;
                self.metrics.lookups_ok += 1;
                self.metrics.hops.push(0.0);
                self.metrics.latency_secs.push(0.0);
                self.metrics.lookup_latency.record(SimTime::ZERO);
                return;
            }
        }
        let target = self.peers.keys[target_id as usize];
        self.spawn_walk(Purpose::Lookup { target_id }, target, gw);
    }

    // ----- walk state machine ---------------------------------------

    /// Hop budget of a walk spawned against the current population:
    /// `64 + 8 · ⌈log2(alive)⌉`, far above any greedy route, so hitting
    /// it means a routing loop rather than a long path.
    pub(super) fn hop_budget(&self) -> u32 {
        64 + 8
            * (self.world.oracle().population().max(2) as f64)
                .log2()
                .ceil() as u32
    }

    /// Spawns a walk and executes its first step at the origin.
    pub(super) fn spawn_walk(&mut self, purpose: Purpose, target: Key, from: u32) -> QueryId {
        let max_hops = self.hop_budget();
        let m = &mut self.metrics;
        match purpose {
            Purpose::Lookup { .. } => {
                m.lookups_issued += 1;
                m.inflight_peak = m.inflight_peak.max(m.lookups_issued - m.lookups);
            }
            Purpose::Put { .. } => m.puts_issued += 1,
            Purpose::Get => m.gets_issued += 1,
            Purpose::Range { .. } => m.ranges_issued += 1,
            Purpose::JoinFind { .. } | Purpose::LinkProbe { .. } => {}
        }
        let walk = Walk::new(purpose, target, from, self.plane.now(), max_hops);
        let qid = self.walks.insert(walk);
        match self.cfg.routing_mode {
            RoutingMode::Recursive => self.step_recursive(qid),
            // The origin reads its own routing table for free.
            RoutingMode::Iterative => self.iterative_local_step(qid),
        }
        qid
    }

    /// The unified step executor behind `Msg::Step` — the retry path of
    /// both modes. A recursive walk re-steps at its current node after a
    /// timeout. An iterative walk fails over: its requester takes the
    /// globally next-best unqueried candidate from its pool, which may
    /// be a 2nd-best rung of an *earlier* frontier — a retreat a
    /// recursive hand-off cannot make.
    pub(super) fn drive_walk(&mut self, qid: QueryId) {
        let Some(walk) = self.walks.get(qid) else {
            return;
        };
        match self.cfg.routing_mode {
            RoutingMode::Recursive => self.step_recursive(qid),
            RoutingMode::Iterative if !self.world.is_alive(walk.requester) => {
                self.finish_walk(qid, WalkEnd::Stranded)
            }
            RoutingMode::Iterative => self.advance_from_pool(qid, true),
        }
    }

    /// Ranked next-hop candidates at `at` toward `target`, from `at`'s
    /// local view, with the walk's exclusions applied — the failover
    /// ladder an iterative frontier hands back (shared
    /// `sw_overlay::greedy_candidates_into` via [`sw_overlay::RingView`]).
    fn ranked_candidates(&mut self, at: u32, target: Key, excluded: &[u32]) -> Vec<u32> {
        let mut buf = std::mem::take(&mut self.cand_scratch);
        let node = &self.peers.nodes[at as usize];
        let cur_d = Metric::Ring.distance(self.peers.keys[at as usize], target);
        let view = sw_overlay::RingView {
            pred: Some(node.preds[0]),
            succ: &node.succ,
            long: self.peers.links.row_slice(at),
        };
        let keys = &self.peers.keys;
        view.candidates_into(
            Metric::Ring,
            target,
            cur_d,
            |v| v == at || excluded.contains(&v),
            |v| keys[v as usize],
            &mut buf,
        );
        let out = buf.iter().map(|&(v, _)| v).collect();
        self.cand_scratch = buf;
        out
    }

    /// One greedy step at the walk's current node (shared
    /// `sw_overlay::greedy_step` via [`sw_overlay::RingView`]) —
    /// recursive mode. Takes the peers and the world beside the walk, so
    /// the caller's one `walks` borrow spans arrival bookkeeping, the
    /// step and the hand-off's message count; the caller acts on the
    /// result ([`Simulator::act_on_step`]) once that borrow ends.
    fn greedy_step(walk: &mut Walk, peers: &Peers, world: &World) -> Stepped {
        let cur = walk.cur;
        if !world.is_alive(cur) {
            // The node holding the query failed, and the query with it.
            return Stepped::Done(WalkEnd::Stranded);
        }
        let (node, keys) = (&peers.nodes[cur as usize], &peers.keys);
        let cur_d = Metric::Ring.distance(keys[cur as usize], walk.target);
        if cur_d == 0.0 {
            return Stepped::Done(WalkEnd::Arrived);
        }
        if walk.hops >= walk.max_hops {
            return Stepped::Done(WalkEnd::HopLimit);
        }
        let view = sw_overlay::RingView {
            pred: Some(node.preds[0]),
            succ: &node.succ,
            long: peers.links.row_slice(cur),
        };
        let step = view.step(Metric::Ring, walk.target, cur_d, cur, &walk.excluded, |v| {
            keys[v as usize]
        });
        match step {
            None => Stepped::Done(WalkEnd::LocalMinimum),
            Some((next, _)) => {
                walk.msgs += 1;
                Stepped::Forward { from: cur, next }
            }
        }
    }

    /// Carries out what [`Simulator::greedy_step`] decided: finish the
    /// walk, or put its hand-off on the wire.
    fn act_on_step(&mut self, qid: QueryId, stepped: Stepped) {
        match stepped {
            Stepped::Done(end) => self.finish_walk(qid, end),
            Stepped::Forward { from, next } => {
                let now = self.plane.now();
                self.send_net(
                    from,
                    next,
                    now,
                    HOP_DELAY,
                    Msg::Hop {
                        qid,
                        to: next,
                        sent_at: now,
                    },
                );
            }
        }
    }

    /// Steps a recursive walk at its current node (spawn and retry).
    fn step_recursive(&mut self, qid: QueryId) {
        let Some(walk) = self.walks.get_mut(qid) else {
            return;
        };
        let stepped = Self::greedy_step(walk, &self.peers, &self.world);
        self.act_on_step(qid, stepped);
    }

    /// A recursively forwarded query arrives at `to` — or, unless
    /// `live`, its sender times out: `to` died while the message was in
    /// flight, or the hand-off was dropped at `to`'s full queue.
    pub(super) fn deliver_hop(&mut self, qid: QueryId, to: u32, sent_at: SimTime, live: bool) {
        let now = self.plane.now();
        let Some(walk) = self.walks.get_mut(qid) else {
            return;
        };
        if !live {
            return self.time_out(qid, to, sent_at);
        }
        walk.latency += now - sent_at;
        walk.hops += 1;
        walk.cur = to;
        let stepped = Self::greedy_step(walk, &self.peers, &self.world);
        self.act_on_step(qid, stepped);
    }

    /// Walk `qid`'s driver waited on `contact` since `since` and heard
    /// nothing: the contact died, or the message was dropped. Charge the
    /// timeout, exclude the contact, and retry the walk's next action at
    /// `since + penalty` (the plane clamps an instant already past to
    /// now). A recursive relay sits out the full penalty; an iterative
    /// requester, which has measured every hop RTT on the walk, waits
    /// its [`Walk::adaptive_timeout`].
    fn time_out(&mut self, qid: QueryId, contact: u32, since: SimTime) {
        let walk = self.walks.get_mut(qid).expect("a timed-out walk is live");
        let penalty = match self.cfg.routing_mode {
            RoutingMode::Recursive => TIMEOUT_PENALTY,
            RoutingMode::Iterative => walk.adaptive_timeout(TIMEOUT_PENALTY),
        };
        walk.timeouts += 1;
        walk.latency += penalty;
        if !walk.excluded.contains(&contact) {
            walk.excluded.push(contact);
        }
        self.plane.send_at(since + penalty, Msg::Step { qid });
    }

    // ----- iterative mode --------------------------------------------

    /// The requester-local first step of an iterative walk: at spawn the
    /// frontier *is* the requester, whose routing table is read for
    /// free — it seeds the candidate pool.
    fn iterative_local_step(&mut self, qid: QueryId) {
        let walk = self.walks.get(qid).expect("walk present");
        debug_assert_eq!(walk.cur, walk.requester, "local step away from requester");
        let (requester, target) = (walk.requester, walk.target);
        if !self.world.is_alive(requester) {
            // Only the requester's death strands an iterative walk.
            self.finish_walk(qid, WalkEnd::Stranded);
            return;
        }
        let cur_d = Metric::Ring.distance(self.peers.keys[requester as usize], target);
        if cur_d == 0.0 {
            self.finish_walk(qid, WalkEnd::Arrived);
            return;
        }
        let cands = self.ranked_candidates(requester, target, &[]);
        if cands.is_empty() {
            self.finish_walk(qid, WalkEnd::LocalMinimum);
            return;
        }
        let walk = self.walks.get_mut(qid).expect("walk present");
        walk.set_alternates(cands);
        walk.seen.push(requester);
        self.advance_from_pool(qid, false);
    }

    /// Advances the walk to the globally best unqueried candidate in
    /// its pool. On the healthy path this is the newest frontier's best
    /// candidate — the greedy choice, so static-network hop sequences
    /// match recursive exactly. After timeouts it may retreat to a
    /// 2nd-best rung of an *earlier* frontier and route around the dead
    /// region — persistence a recursive hand-off cannot offer, because
    /// the hand-off left those candidates behind. (Termination stays at
    /// greedy minima: the walk only ever *ends* at a frontier whose own
    /// view offers nothing closer, so storage ops still complete in the
    /// owner region.) A dry pool means every candidate the walk ever
    /// learned was tried and excluded (`Exhausted`).
    fn advance_from_pool(&mut self, qid: QueryId, failover: bool) {
        let Some(walk) = self.walks.get_mut(qid) else {
            return;
        };
        match walk.next_alternate() {
            None => self.finish_walk(qid, WalkEnd::Exhausted),
            Some(next) => {
                if failover {
                    walk.failovers += 1;
                }
                walk.seen.push(next);
                self.send_next_hop_query(qid, next);
            }
        }
    }

    /// Merges a frontier's fresh candidates into the walk's pool,
    /// keeping it sorted closest-to-target-first (stable: existing
    /// entries win distance ties). Already-queried, excluded and
    /// duplicate nodes never enter.
    fn merge_pool(&mut self, qid: QueryId, fresh: &[u32]) {
        let walk = self.walks.get_mut(qid).expect("walk present");
        let (keys, target) = (&self.peers.keys, walk.target);
        let d_of = |v: u32| Metric::Ring.distance(keys[v as usize], target);
        let mut pool: Vec<(u32, f64)> = walk
            .pending_alternates()
            .iter()
            .map(|&v| (v, d_of(v)))
            .collect();
        for &v in fresh {
            if walk.seen.contains(&v)
                || walk.excluded.contains(&v)
                || pool.iter().any(|&(u, _)| u == v)
            {
                continue;
            }
            pool.push((v, d_of(v)));
        }
        pool.sort_by(|a, b| a.1.total_cmp(&b.1));
        walk.set_alternates(pool.into_iter().map(|(v, _)| v).collect());
    }

    /// Sends the iterative first leg: requester → frontier candidate
    /// query. Exactly one exchange is in flight per walk.
    fn send_next_hop_query(&mut self, qid: QueryId, to: u32) {
        let now = self.plane.now();
        let walk = self.walks.get_mut(qid).expect("walk present");
        debug_assert!(
            !walk.excluded.contains(&to),
            "failover must never route through an excluded contact"
        );
        walk.query_sent = now;
        walk.msgs += 1;
        let requester = walk.requester;
        self.send_net(
            requester,
            to,
            now,
            HOP_DELAY,
            Msg::NextHopQuery {
                qid,
                to,
                sent_at: now,
            },
        );
    }

    /// The candidate query arrives at frontier `to` — or, unless
    /// `live`, the requester times out and fails over: `to` died while
    /// the query was in flight, or the query was dropped at `to`'s full
    /// queue.
    pub(super) fn deliver_next_hop_query(
        &mut self,
        qid: QueryId,
        to: u32,
        sent_at: SimTime,
        live: bool,
    ) {
        let now = self.plane.now();
        let Some(walk) = self.walks.get_mut(qid) else {
            return;
        };
        if !live {
            return self.time_out(qid, to, sent_at);
        }
        // The frontier answers from its local view at delivery time.
        // (The query carried the walk's exclusion list, so the ladder it
        // ranks never contains a contact the requester timed out on.)
        walk.latency += now - sent_at;
        let target = walk.target;
        let excluded = std::mem::take(&mut walk.excluded);
        let at_target = Metric::Ring.distance(self.peers.keys[to as usize], target) == 0.0;
        let candidates = self.ranked_candidates(to, target, &excluded);
        let walk = self.walks.get_mut(qid).expect("walk present");
        walk.excluded = excluded;
        walk.msgs += 1;
        let requester = walk.requester;
        let wait = self.send_net(
            to,
            requester,
            now,
            HOP_DELAY,
            Msg::NextHopReply(Box::new(NextHopReply {
                qid,
                from: to,
                sent_at: now,
                at_target,
                candidates,
            })),
        );
        if let Some(wait) = wait {
            // The reply's admission wait at the requester's own queue is
            // congestion the requester directly experiences — fold it
            // into the adaptive timeout so queued-not-lost replies do
            // not read as dead frontiers.
            self.walks
                .get_mut(qid)
                .expect("walk present")
                .note_wait(wait);
        }
    }

    /// The frontier's answer lands back at the requester: confirm the
    /// hop (RTT accounted), then finish or query the next frontier. A
    /// reply dropped at the requester's own full queue (not `live`, to
    /// a live requester) is a frontier the requester never hears from:
    /// it times out adaptively and fails over, exactly as if the
    /// frontier had died after receiving the query.
    pub(super) fn deliver_next_hop_reply(
        &mut self,
        NextHopReply {
            qid,
            from,
            sent_at,
            at_target,
            candidates,
        }: NextHopReply,
        live: bool,
    ) {
        let now = self.plane.now();
        let Some(walk) = self.walks.get_mut(qid) else {
            return;
        };
        if !self.world.is_alive(walk.requester) {
            self.finish_walk(qid, WalkEnd::Stranded);
            return;
        }
        if !live {
            // The timeout clock started at the query send.
            let since = walk.query_sent;
            return self.time_out(qid, from, since);
        }
        walk.latency += now - sent_at;
        debug_assert_ne!(from, walk.cur, "a frontier is queried once");
        walk.hops += 1;
        walk.cur = from;
        let rtt = now - walk.query_sent;
        walk.rtt_seen = walk.rtt_seen.max(rtt);
        self.metrics.hop_rtt.push(rtt.as_secs_f64());
        // A frontier whose live view offers nothing closer is a greedy
        // terminus: the walk ends *here*, exactly where a recursive walk
        // would stop (the pool's farther leftovers must not drag a
        // completed route past the owner region).
        let end = if at_target {
            WalkEnd::Arrived
        } else if walk.hops >= walk.max_hops {
            WalkEnd::HopLimit
        } else if candidates.is_empty() {
            WalkEnd::LocalMinimum
        } else {
            self.merge_pool(qid, &candidates);
            return self.advance_from_pool(qid, false);
        };
        self.finish_walk(qid, end);
    }

    /// Terminal transition of a route: remove the walk and dispatch on
    /// purpose.
    fn finish_walk(&mut self, qid: QueryId, end: WalkEnd) {
        let walk = self.walks.remove(qid).expect("finishing a live walk");
        let now = self.plane.now();
        self.metrics.timeouts += walk.timeouts as u64;
        match walk.purpose {
            Purpose::Lookup { target_id } => {
                self.metrics.lookups += 1;
                // A result nobody can receive is no result: if the
                // requester died while the walk was in flight, the
                // lookup is terminally stranded in *every* mode — this
                // is what keeps the recursive/iterative comparison
                // apples-to-apples (iterative checks the requester at
                // each reply; recursive mode settles up here, when the
                // response would have been sent back).
                let end = if end != WalkEnd::Stranded && !self.world.is_alive(walk.requester) {
                    WalkEnd::Stranded
                } else {
                    end
                };
                let success = end != WalkEnd::Stranded && walk.cur == target_id;
                match end {
                    WalkEnd::Stranded => self.metrics.lookups_stranded += 1,
                    WalkEnd::Exhausted => self.metrics.lookups_exhausted += 1,
                    WalkEnd::LocalMinimum => self.metrics.lookups_local_minimum += 1,
                    WalkEnd::HopLimit => self.metrics.lookups_hop_limit += 1,
                    WalkEnd::Arrived => {}
                }
                if walk.failovers > 0 {
                    self.metrics.lookups_failed_over += 1;
                }
                if success {
                    self.metrics.lookups_ok += 1;
                    self.metrics.hops.push(walk.hops as f64);
                    self.metrics.latency_secs.push(walk.latency.as_secs_f64());
                    self.metrics.lookup_latency.record(walk.latency);
                    // Fill the requester-side hot cache on the way out:
                    // the *next* lookup for this key from the same
                    // gateway is served locally until the TTL lapses.
                    // Only gateways carry caches — workload lookups
                    // originate anywhere and would grow the map to n
                    // entries.
                    if let Some(cache_cfg) = self.cfg.traffic.cache {
                        if self.gateways.contains(&walk.requester) {
                            self.peers
                                .caches
                                .entry(walk.requester)
                                .or_insert_with(|| HotCache::new(cache_cfg.capacity))
                                .insert(u64::from(target_id), now + cache_cfg.ttl);
                        }
                    }
                }
                if self.cfg.record_lookups {
                    self.lookup_records.push(LookupRecord {
                        issued_at: walk.issued_at,
                        completed_at: now,
                        hops: walk.hops,
                        timeouts: walk.timeouts,
                        failovers: walk.failovers,
                        latency: walk.latency,
                        success,
                        end,
                    });
                }
            }
            Purpose::JoinFind { key } => {
                self.metrics.join_messages += walk.msgs as u64;
                if end == WalkEnd::Stranded || !self.complete_join(key) {
                    self.metrics.joins_aborted += 1;
                }
            }
            Purpose::LinkProbe {
                node,
                mut collected,
                budget,
                tries_left,
                refresh,
            } => {
                let msgs = walk.msgs as u64;
                if refresh {
                    self.metrics.refresh_messages += msgs;
                } else {
                    self.metrics.join_messages += msgs;
                }
                // A dead `node` ends the chain with it.
                if self.world.is_alive(node) {
                    let v = walk.cur;
                    if end != WalkEnd::Stranded
                        && v != node
                        && self.world.oracle().is_alive(v)
                        && !collected.contains(&v)
                    {
                        collected.push(v);
                    }
                    if collected.len() < budget && tries_left > 0 {
                        self.spawn_link_probe(node, collected, budget, tries_left, refresh);
                    } else {
                        self.finish_links(node, collected, refresh);
                    }
                }
            }
            // A storage op goes on in the same record, filed back in its
            // route's slot under the next generation (the free list is
            // last-in first-out): a late routing message misses it.
            Purpose::Put { .. } | Purpose::Get | Purpose::Range { .. } => {
                let op = self.walks.insert(walk);
                debug_assert_eq!(op as u32, qid as u32, "a tail keeps its route's slot");
                self.start_tail(op, end);
            }
        }
    }

    // ----- lookups ---------------------------------------------------

    pub(super) fn do_lookup_start(&mut self) {
        let from = self.world.random_alive(Source::Lookup);
        let target_id = self.world.random_alive(Source::Lookup);
        let target = self.peers.keys[target_id as usize];
        self.spawn_walk(Purpose::Lookup { target_id }, target, from);
    }
}
