//! The deterministic in-memory message plane: FIFO lanes for the
//! engine's fixed delays beside one binary heap for every other send,
//! property-tested against a binary-heap reference model.
//!
//! Every protocol action in the simulator — a lookup hop, a replica
//! write, a stabilize ping round, a churn/workload generator tick — is
//! an [`Envelope`] queued here and delivered at its latency-sampled
//! time. The plane is the *only* source of event ordering, and its
//! contract is the determinism backbone of the whole simulator:
//!
//! * envelopes are delivered in ascending `(at, seq)` order, where `seq`
//!   is the global send counter — messages scheduled for the same
//!   instant are delivered **FIFO in send order**, never in heap order;
//! * the clock only moves forward (sends in the past are clamped to
//!   `now`, e.g. a timeout that conceptually expired while a slower
//!   message was in flight);
//! * the plane itself draws no randomness — senders sample delays from
//!   their own RNG streams, so the schedule is a pure function of the
//!   seed.
//!
//! ## Lanes and the heap
//!
//! Nearly every send the engine makes uses one of a few fixed delays:
//! a hop's flight, a stabilize round trip, the timeout penalty, a
//! timer's period. A plane built with `MessagePlane::with_lanes` keeps
//! one FIFO lane (a `VecDeque`) per such delay, and a send whose delay
//! `at − now` equals a lane's joins that lane; every other send goes to
//! one `BinaryHeap`. Delivery takes the least `(at, seq)` among the
//! lane fronts and the heap's top. A lane push is O(1) and a pop
//! compares one front per lane, so only the off-lane sends pay the
//! heap's O(log n) comparisons and cache misses. A plane from
//! [`MessagePlane::new`] has no lanes and is the heap alone. The
//! `BinaryHeap<Reverse<Envelope>>` plane is also the test-only model
//! at the bottom of this file: randomized schedules over random lane
//! delays must come out of both as **byte-identical** envelope
//! sequences.
//!
//! **Why a lane stays sorted.** A send joins lane `d` only when it is
//! due at `now + d`; the clock never moves back and `seq` only grows,
//! so each push is `≥` the lane's back in `(at, seq)`: for a fixed
//! delay, send order is delivery order. Every lane push after the boot
//! sort asserts it in debug builds.
//!
//! **The boot sort.** A peer's timers start at a stagger under their
//! period. Until the first delivery call, the engine files each such
//! send straight into its period's lane (`send_staggered`), beside the
//! re-arms that will follow it there, so the `3n` boot sends stay out
//! of the heap and each timer lane holds one envelope per peer from
//! the start. That first call sorts each lane once. A boot entry in
//! lane `d` is due by `now + d` for the clock at its send, which no
//! later clock undercuts, so the sorted lane stays sorted under every
//! later push.
//!
//! **Memory.** A lane is a ring buffer, and a ring writes every slot of
//! its capacity as it turns, so capacity is resident memory, not
//! address space. Until the sort a lane only fills, front to back, and
//! doubles like any `VecDeque`; the sort trims it to its length, and
//! after it a lane grows by an eighth. A timer lane at scale holds one
//! 40-byte envelope per peer.
//!
//! ## Lanes as lookahead
//!
//! A lane is also a clock the consumer can use: the envelope `k`
//! places behind a lane's front is delivered exactly `k` pops of its
//! lane later. The hooked drain ([`MessagePlane::deliver_window_with`])
//! calls `on_lookahead(ahead, &msg)` as it pops a lane, with `ahead`
//! one of two stages, `FAR_AHEAD` (16) and `NEAR_AHEAD` (4): first for
//! every envelope of that lane up to `ahead` places behind the front
//! that the stage has not shown yet (one envelope per pop, once the
//! lane is that deep). So every lane envelope is shown to each stage
//! exactly once, in lane order, before it is delivered. A consumer
//! whose handlers start with a chain of dependent cache misses warms
//! one link of the chain per stage: the engine prefetches a hop's walk
//! slot and peer record at the far stage and its link row at the near
//! one.
//!
//! What the hook may do: read the payload. What it cannot do: send,
//! deliver, reorder or drop — it receives `&M` and nothing of the
//! plane, and it runs before the pop it rides on, so the delivered
//! `(at, seq)` sequence is the hookless one by construction
//! ([`MessagePlane::deliver_window`] *is* the same drain with a no-op
//! hook; the heap-model proptests hold both). What it must not rely
//! on: lead time. Heap envelopes are never shown, and an envelope that
//! joins a short lane is shown only at its lane's next pop, perhaps its
//! own. That is fine for a hint — a message shown late just pays the
//! miss the stage would have hidden — and wrong for anything else.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A message queued for delivery at a virtual time.
#[derive(Debug, Clone)]
pub struct Envelope<M> {
    /// Delivery time.
    pub at: SimTime,
    /// Global send sequence number — the FIFO tie-break.
    pub seq: u64,
    /// Payload.
    pub msg: M,
}

impl<M> PartialEq for Envelope<M> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl<M> Eq for Envelope<M> {}

impl<M> Ord for Envelope<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl<M> PartialOrd for Envelope<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The far lookahead stage: lane places behind the front.
pub(crate) const FAR_AHEAD: usize = 16;
/// The near lookahead stage: lane places behind the front.
pub(crate) const NEAR_AHEAD: usize = 4;

/// One fixed-delay FIFO lane.
#[derive(Debug)]
struct Lane<M> {
    delay: SimTime,
    queue: VecDeque<Envelope<M>>,
    /// Envelopes from the front already shown to the far / near stage.
    far_shown: usize,
    near_shown: usize,
}

impl<M> Lane<M> {
    /// Appends `env`; once `sorted`, it must not undercut the back.
    #[inline]
    fn push(&mut self, env: Envelope<M>, sorted: bool) {
        debug_assert!(
            !sorted || self.queue.back().is_none_or(|back| *back <= env),
            "lane {:?} out of order at seq {}",
            self.delay,
            env.seq
        );
        // Once it turns, a lane grows by an eighth, not double (see the
        // module's memory note).
        if sorted && self.queue.len() == self.queue.capacity() {
            self.queue.reserve_exact(self.queue.len() / 8 + 1);
        }
        self.queue.push_back(env);
    }

    /// Pops the front, first showing each stage every envelope up to
    /// its distance behind the front that it has not seen.
    #[inline]
    fn pop(&mut self, on_lookahead: &mut impl FnMut(usize, &M)) -> Envelope<M> {
        let len = self.queue.len();
        for (ahead, shown) in [
            (FAR_AHEAD, &mut self.far_shown),
            (NEAR_AHEAD, &mut self.near_shown),
        ] {
            while *shown <= ahead.min(len - 1) {
                on_lookahead(ahead, &self.queue[*shown].msg);
                *shown += 1;
            }
            *shown -= 1;
        }
        self.queue.pop_front().expect("popped lanes are non-empty")
    }
}

/// The queue + clock. Generic in the message type so it can be tested
/// (and reused) independently of the protocol.
#[derive(Debug)]
pub struct MessagePlane<M> {
    /// Ascending by delay, no two equal.
    lanes: Vec<Lane<M>>,
    /// Every send no lane takes.
    heap: BinaryHeap<Reverse<Envelope<M>>>,
    /// False until the first delivery call sorts the lanes.
    sorted: bool,
    clock: SimTime,
    seq: u64,
    delivered: u64,
    /// Sends that joined a lane after the boot sort.
    #[cfg(test)]
    pub(crate) laned: u64,
}

impl<M> Default for MessagePlane<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> MessagePlane<M> {
    /// An empty plane at time zero, with no lanes: every send goes to
    /// the heap.
    pub fn new() -> MessagePlane<M> {
        Self::with_lanes(&[])
    }

    /// An empty plane at time zero with one FIFO lane per distinct
    /// delay in `delays` (see the module docs).
    pub(crate) fn with_lanes(delays: &[SimTime]) -> MessagePlane<M> {
        let mut delays = delays.to_vec();
        delays.sort_unstable();
        delays.dedup();
        MessagePlane {
            lanes: delays
                .into_iter()
                .map(|delay| Lane {
                    delay,
                    queue: VecDeque::new(),
                    far_shown: 0,
                    near_shown: 0,
                })
                .collect(),
            heap: BinaryHeap::new(),
            sorted: false,
            clock: SimTime::ZERO,
            seq: 0,
            delivered: 0,
            #[cfg(test)]
            laned: 0,
        }
    }

    /// Current virtual time (the delivery time of the last envelope, or
    /// wherever [`MessagePlane::advance_to`] left the clock).
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Messages sent so far.
    pub fn sent(&self) -> u64 {
        self.seq
    }

    /// Messages delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Sends `msg` for delivery `delay` after now.
    pub fn send(&mut self, delay: SimTime, msg: M) {
        self.send_at(self.clock + delay, msg);
    }

    /// Sends `msg` for delivery at absolute time `at` (clamped to `now`
    /// — time never rewinds, even for timeouts that expired while a
    /// slower message was in flight).
    pub fn send_at(&mut self, at: SimTime, msg: M) {
        let at = at.max(self.clock);
        let lane = self.lane_of(at - self.clock);
        self.file(at, lane, msg);
    }

    /// Sends `msg` due `stagger` from now into the lane of delay `lane`
    /// (`stagger ≤ lane`) until the first delivery call sorts the lanes,
    /// and as a plain send after it. The engine boots each peer's
    /// timers this way, at a stagger under their period (see the
    /// module's "boot sort").
    pub(crate) fn send_staggered(&mut self, stagger: SimTime, lane: SimTime, msg: M) {
        match self.lane_of(lane) {
            Some(i) if !self.sorted && stagger <= lane => {
                self.file(self.clock + stagger, Some(i), msg)
            }
            _ => self.send(stagger, msg),
        }
    }

    /// The lane of delay `delay`, if there is one.
    fn lane_of(&self, delay: SimTime) -> Option<usize> {
        self.lanes
            .binary_search_by_key(&delay, |lane| lane.delay)
            .ok()
    }

    /// Files one send, due at `at ≥ now`, in lane `lane` or the heap.
    fn file(&mut self, at: SimTime, lane: Option<usize>, msg: M) {
        let env = Envelope {
            at,
            seq: self.seq,
            msg,
        };
        self.seq += 1;
        match lane {
            Some(i) => {
                #[cfg(test)]
                {
                    self.laned += u64::from(self.sorted);
                }
                self.lanes[i].push(env, self.sorted)
            }
            None => self.heap.push(Reverse(env)),
        }
    }

    /// Delivers the next envelope due at or before `until`, advancing
    /// the clock to its delivery time. `None` once nothing is due.
    pub fn deliver_before(&mut self, until: SimTime) -> Option<Envelope<M>> {
        self.deliver_before_with(until, &mut |_, _| {})
    }

    /// [`MessagePlane::deliver_before`] with the lookahead hook threaded
    /// through — the one place an envelope leaves the plane.
    fn deliver_before_with(
        &mut self,
        until: SimTime,
        on_lookahead: &mut impl FnMut(usize, &M),
    ) -> Option<Envelope<M>> {
        if !self.sorted {
            for lane in &mut self.lanes {
                lane.queue.make_contiguous().sort_unstable();
                lane.queue.shrink_to_fit();
            }
            self.sorted = true;
        }
        // The least `(at, seq)` among the heap's top and the lane
        // fronts; `lanes.len()` names the heap.
        let mut best = self.heap.peek().map(|Reverse(e)| (e, self.lanes.len()));
        for (i, lane) in self.lanes.iter().enumerate() {
            if let Some(front) = lane.queue.front() {
                if best.is_none_or(|(b, _)| front < b) {
                    best = Some((front, i));
                }
            }
        }
        let (head, i) = best?;
        if head.at > until {
            return None;
        }
        let env = match self.lanes.get_mut(i) {
            Some(lane) => lane.pop(on_lookahead),
            None => self.heap.pop().expect("peeked").0,
        };
        debug_assert!(env.at >= self.clock, "plane clock must be monotone");
        self.clock = env.at;
        self.delivered += 1;
        Some(env)
    }

    /// Drains **every envelope due at the single earliest pending
    /// instant** `t ≤ until` into `out` (cleared first), in `(at, seq)`
    /// order, and advances the clock to `t`. Returns the batch size;
    /// `0` means nothing is due by `until` (clock untouched).
    ///
    /// This is the batched form of [`MessagePlane::deliver_before`]:
    /// after the first envelope, the rest of the batch is every pop
    /// still due by `t`.
    ///
    /// Deliberately *same-instant*, not whole-window: a handler
    /// processing the batch may send new messages **at `t`** (zero
    /// service delay, clamped past sends). Those get strictly larger
    /// seqs, so the next `deliver_window` call picks them up at
    /// `t` after the current batch — exactly the order the pop-one
    /// loop produces. A multi-instant pre-drain would have delivered
    /// instants past `t` before those late arrivals, breaking the
    /// contract.
    pub fn deliver_window(&mut self, until: SimTime, out: &mut Vec<Envelope<M>>) -> usize {
        self.deliver_window_with(until, out, |_, _| {})
    }

    /// [`MessagePlane::deliver_window`] with a lookahead hook:
    /// `on_lookahead(ahead, &msg)` is called, as this drain pops a lane,
    /// for the envelopes of that lane up to `ahead` places behind its
    /// front, `ahead` being `FAR_AHEAD` (16) or `NEAR_AHEAD` (4). Each
    /// lane envelope is shown to each stage exactly once before it is
    /// delivered (`the_hook_sees_every_lane_envelope_before_it_is_delivered`
    /// pins it). The hook gets the payload by shared reference and
    /// nothing else, so the delivered sequence is the hookless one by
    /// construction; see the module's "lanes as lookahead" section for
    /// what it is for.
    pub fn deliver_window_with(
        &mut self,
        until: SimTime,
        out: &mut Vec<Envelope<M>>,
        mut on_lookahead: impl FnMut(usize, &M),
    ) -> usize {
        out.clear();
        let Some(first) = self.deliver_before_with(until, &mut on_lookahead) else {
            return 0;
        };
        let at = first.at;
        out.push(first);
        // Everything before `at` is out, so this pops `at` alone.
        while let Some(env) = self.deliver_before_with(at, &mut on_lookahead) {
            out.push(env);
        }
        out.len()
    }

    /// Moves the clock to `until` (idle time at the end of a run slice).
    pub fn advance_to(&mut self, until: SimTime) {
        self.clock = self.clock.max(until);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sw_keyspace::Rng;

    impl<M> MessagePlane<M> {
        /// Messages currently in flight: every envelope in a lane or
        /// the heap.
        fn in_flight(&self) -> usize {
            self.lanes
                .iter()
                .map(|lane| lane.queue.len())
                .sum::<usize>()
                + self.heap.len()
        }
    }

    /// The reference model: the `BinaryHeap` plane the lanes sit
    /// beside. `(at, seq)` order is the heap's own, so there is nothing
    /// here to get wrong; the proptests below hold the laned plane to it.
    struct HeapPlane<M> {
        heap: BinaryHeap<Reverse<Envelope<M>>>,
        clock: SimTime,
        seq: u64,
    }

    impl<M> HeapPlane<M> {
        fn new() -> HeapPlane<M> {
            HeapPlane {
                heap: BinaryHeap::new(),
                clock: SimTime::ZERO,
                seq: 0,
            }
        }

        fn now(&self) -> SimTime {
            self.clock
        }

        fn in_flight(&self) -> usize {
            self.heap.len()
        }

        fn send_at(&mut self, at: SimTime, msg: M) {
            self.heap.push(Reverse(Envelope {
                at: at.max(self.clock),
                seq: self.seq,
                msg,
            }));
            self.seq += 1;
        }

        fn deliver_before(&mut self, until: SimTime) -> Option<Envelope<M>> {
            if self.heap.peek()?.0.at > until {
                return None;
            }
            let Reverse(env) = self.heap.pop()?;
            self.clock = env.at;
            Some(env)
        }

        fn advance_to(&mut self, until: SimTime) {
            self.clock = self.clock.max(until);
        }
    }

    /// One to six lane delays on every scale from µs to seconds, and
    /// now and then a zero-delay lane (same-instant sends).
    fn random_lanes(rng: &mut Rng) -> Vec<SimTime> {
        (0..1 + rng.bounded_u64(6))
            .map(|_| {
                if rng.chance(0.1) {
                    SimTime::ZERO
                } else {
                    let scale = 10u64.pow(rng.bounded_u64(8) as u32);
                    SimTime(1 + rng.bounded_u64(scale))
                }
            })
            .collect()
    }

    /// One send time of the random schedules below: ties, past sends,
    /// far-future sends, sends exactly at a lane delay and one µs off
    /// it, and delays on every scale from µs to minutes.
    fn mixed_scale_at(rng: &mut Rng, now: SimTime, lanes: &[SimTime]) -> SimTime {
        let lane = lanes[rng.bounded_u64(lanes.len() as u64) as usize];
        match rng.bounded_u64(12) {
            // Same-instant tie bursts.
            0 | 1 => now,
            // Past send: clamps to now.
            2 => SimTime(now.0 / 2),
            // Far future: beyond every lane.
            3 => now + SimTime(1 << 45) + SimTime(rng.bounded_u64(1 << 13)),
            // Exactly a lane's delay.
            4..=6 => now + lane,
            // One µs off it, either side.
            7 => now + SimTime((lane.0 + 1).saturating_sub(2 * rng.bounded_u64(2))),
            // Mixed scales, from µs to minutes.
            _ => {
                let scale = 10u64.pow(rng.bounded_u64(8) as u32);
                now + SimTime(rng.bounded_u64(scale.max(1)))
            }
        }
    }

    /// A boot burst, `(idle, stagger, lane)`: idle the clock forward by
    /// up to `idle` (now and then), then send `stagger` ahead into the
    /// lane of delay `lane`, at or below it — the engine's timer
    /// staggers, sent before the first delivery.
    fn boot_burst(rng: &mut Rng, lanes: &[SimTime]) -> Vec<(SimTime, SimTime, SimTime)> {
        (0..rng.bounded_u64(200))
            .map(|_| {
                let idle = SimTime(if rng.chance(0.05) {
                    rng.bounded_u64(1 << 16)
                } else {
                    0
                });
                let lane = lanes[rng.bounded_u64(lanes.len() as u64) as usize];
                (idle, SimTime(rng.bounded_u64(lane.0 + 1)), lane)
            })
            .collect()
    }

    /// The laned plane under test and the heap model, fed the same
    /// sends; each payload is its send's index.
    struct Pair {
        laned: MessagePlane<u32>,
        heap: HeapPlane<u32>,
    }

    impl Pair {
        /// Both planes, after the same boot burst.
        fn booted(rng: &mut Rng, lanes: &[SimTime]) -> Pair {
            let mut pair = Pair {
                laned: MessagePlane::with_lanes(lanes),
                heap: HeapPlane::new(),
            };
            for (idle, stagger, lane) in boot_burst(rng, lanes) {
                pair.idle(idle);
                pair.send_staggered(stagger, lane);
            }
            pair
        }

        /// Advances the clock by `idle`, but not past pending work.
        fn idle(&mut self, idle: SimTime) {
            let next = self.heap.heap.peek().map_or(SimTime(u64::MAX), |e| e.0.at);
            self.advance_to((self.laned.now() + idle).min(next));
        }

        fn send_at(&mut self, at: SimTime) {
            let tag = self.laned.sent() as u32;
            self.laned.send_at(at, tag);
            self.heap.send_at(at, tag);
        }

        fn send_staggered(&mut self, stagger: SimTime, lane: SimTime) {
            let tag = self.laned.sent() as u32;
            self.laned.send_staggered(stagger, lane, tag);
            self.heap.send_at(self.heap.now() + stagger, tag);
        }

        fn advance_to(&mut self, until: SimTime) {
            self.laned.advance_to(until);
            self.heap.advance_to(until);
        }
    }

    /// Which lane the plane's last send joined (`None`: the heap).
    fn lane_of_last_send<M>(p: &MessagePlane<M>) -> Option<usize> {
        let seq = p.sent() - 1;
        p.lanes
            .iter()
            .position(|lane| lane.queue.back().is_some_and(|e| e.seq == seq))
    }

    #[test]
    fn delivers_in_time_order() {
        let mut p = MessagePlane::new();
        p.send(SimTime::from_millis(30), "c");
        p.send(SimTime::from_millis(10), "a");
        p.send(SimTime::from_millis(20), "b");
        let mut got = Vec::new();
        while let Some(e) = p.deliver_before(SimTime::from_secs(1)) {
            got.push(e.msg);
        }
        assert_eq!(got, vec!["a", "b", "c"]);
        assert_eq!(p.now(), SimTime::from_millis(30));
        assert_eq!(p.delivered(), 3);
    }

    #[test]
    fn equal_times_deliver_fifo_in_send_order() {
        // The first 50 join the 5 ms lane; the clock then moves to 2 ms,
        // so the last 50, 3 ms ahead, go to the heap. One instant, FIFO.
        let mut p = MessagePlane::with_lanes(&[SimTime::from_millis(5)]);
        assert!(p.deliver_before(SimTime::ZERO).is_none());
        for i in 0..100 {
            if i == 50 {
                p.advance_to(SimTime::from_millis(2));
            }
            p.send_at(SimTime::from_millis(5), i);
            assert_eq!(lane_of_last_send(&p).is_some(), i < 50);
        }
        let mut got = Vec::new();
        while let Some(e) = p.deliver_before(SimTime::from_secs(1)) {
            got.push(e.msg);
        }
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn past_sends_clamp_to_now() {
        let mut p = MessagePlane::with_lanes(&[SimTime::ZERO]);
        p.send(SimTime::from_millis(50), "later");
        p.deliver_before(SimTime::from_secs(1)).unwrap();
        p.send_at(SimTime::from_millis(10), "expired timeout");
        assert_eq!(lane_of_last_send(&p), Some(0), "a clamped send has delay 0");
        let e = p.deliver_before(SimTime::from_secs(1)).unwrap();
        assert_eq!(e.at, SimTime::from_millis(50), "clamped to now");
    }

    #[test]
    fn horizon_is_respected() {
        let mut p = MessagePlane::new();
        p.send(SimTime::from_millis(100), "beyond");
        assert!(p.deliver_before(SimTime::from_millis(99)).is_none());
        assert_eq!(p.in_flight(), 1);
        p.advance_to(SimTime::from_millis(99));
        assert_eq!(p.now(), SimTime::from_millis(99));
        assert!(p.deliver_before(SimTime::from_millis(100)).is_some());
    }

    #[test]
    fn far_future_sends_cross_the_overflow_level() {
        // About a year out, beyond every lane: the heap takes them,
        // and they merge with the lanes in order.
        let mut p = MessagePlane::with_lanes(&[SimTime::from_millis(1)]);
        let far = SimTime(1 << 45);
        p.send_at(far, 1);
        p.send_at(far, 2);
        p.send_at(far + SimTime(1), 4);
        p.send(SimTime::from_millis(1), 0);
        assert_eq!(p.deliver_before(SimTime(u64::MAX)).map(|e| e.msg), Some(0));
        p.advance_to(far - SimTime::from_millis(1));
        p.send(SimTime::from_millis(1), 3);
        assert_eq!(lane_of_last_send(&p), Some(0));
        let mut got = Vec::new();
        while let Some(e) = p.deliver_before(SimTime(u64::MAX)) {
            got.push(e.msg);
        }
        assert_eq!(got, vec![1, 2, 3, 4]);
        assert_eq!(p.now(), far + SimTime(1));
    }

    #[test]
    fn deliver_window_drains_one_instant_at_a_time() {
        let mut p = MessagePlane::with_lanes(&[SimTime::from_millis(5)]);
        p.send(SimTime::from_millis(5), 1);
        p.send(SimTime::from_millis(5), 2);
        p.send(SimTime::from_millis(7), 3);
        let mut batch = Vec::new();
        assert_eq!(p.deliver_window(SimTime::from_secs(1), &mut batch), 2);
        assert_eq!(batch.iter().map(|e| e.msg).collect::<Vec<_>>(), [1, 2]);
        assert_eq!(p.now(), SimTime::from_millis(5));
        assert_eq!(p.deliver_window(SimTime::from_secs(1), &mut batch), 1);
        assert_eq!(batch[0].msg, 3);
        assert_eq!(p.deliver_window(SimTime::from_secs(1), &mut batch), 0);
        assert!(batch.is_empty());
        assert_eq!(p.delivered(), 3);
        assert_eq!(p.in_flight(), 0);
    }

    #[test]
    fn same_instant_sends_during_batch_processing_arrive_next_call() {
        // The engine pattern: handlers run after the batch is drained
        // and may send at the batch instant; the next call delivers
        // them at the same instant, after the original batch.
        let mut p = MessagePlane::with_lanes(&[SimTime::ZERO, SimTime::from_millis(5)]);
        p.send(SimTime::from_millis(5), 1);
        let mut batch = Vec::new();
        assert_eq!(p.deliver_window(SimTime::from_secs(1), &mut batch), 1);
        p.send(SimTime::ZERO, 2); // handler send at t
        assert_eq!(p.deliver_window(SimTime::from_secs(1), &mut batch), 1);
        assert_eq!(batch[0].msg, 2);
        assert_eq!(batch[0].at, SimTime::from_millis(5));
    }

    /// The lookahead distances of "lanes as lookahead": every lane
    /// envelope is shown to the far and then the near stage, once each,
    /// before it is delivered, at most `ahead` pops of its lane before
    /// its own — exactly `ahead` once the lane is deep — and no heap
    /// envelope is shown. 20 000 sends at fixed delays and at random
    /// ones, drained one pop at a time as the clock moves.
    #[test]
    fn the_hook_sees_every_lane_envelope_before_it_is_delivered() {
        /// Sends one envelope carrying its tag; returns its lane.
        fn send(p: &mut MessagePlane<u32>, rng: &mut Rng, lanes: &[SimTime]) -> Option<usize> {
            let delay = if rng.chance(0.8) {
                lanes[rng.bounded_u64(lanes.len() as u64) as usize]
            } else {
                let scale = 10u64.pow(rng.bounded_u64(7) as u32);
                SimTime(1 + rng.bounded_u64(scale))
            };
            p.send(delay, p.sent() as u32);
            lane_of_last_send(p)
        }
        let lanes = [50_000, 100_000, 500_000, 1_000_000, 3_000_000].map(SimTime);
        let mut rng = Rng::new(0x100C_A4EA);
        let mut p = MessagePlane::with_lanes(&lanes);
        // Per tag: its lane, and its lane's pop count at each stage's show.
        let (mut lane_of, mut shown) = (Vec::new(), Vec::new());
        while lane_of.len() < 1_000 {
            lane_of.push(send(&mut p, &mut rng, &lanes));
            shown.push([None::<u64>; 2]);
        }
        let (mut pops, mut widest, mut calls) = ([0u64; 5], [0u64; 2], Vec::new());
        while let Some(env) = p.deliver_before_with(SimTime(u64::MAX), &mut |ahead, &tag| {
            calls.push((ahead, tag))
        }) {
            let t = env.msg as usize;
            for (ahead, tag) in calls.drain(..) {
                let (s, stage) = (tag as usize, usize::from(ahead == NEAR_AHEAD));
                assert_eq!(
                    lane_of[s], lane_of[t],
                    "tag {s} shown on another lane's pop"
                );
                assert!(shown[s][stage].is_none(), "tag {s} shown twice at {ahead}");
                assert!(
                    stage == 0 || shown[s][0].is_some(),
                    "tag {s}: near before far"
                );
                shown[s][stage] = Some(pops[lane_of[s].expect("shown envelopes are laned")]);
            }
            match lane_of[t] {
                None => assert_eq!(shown[t], [None; 2], "heap tag {t} was shown"),
                Some(lane) => {
                    for (stage, ahead) in [FAR_AHEAD, NEAR_AHEAD].into_iter().enumerate() {
                        let lead = pops[lane] - shown[t][stage].expect("delivered unseen");
                        assert!(lead <= ahead as u64, "tag {t} shown {lead} pops ahead");
                        widest[stage] = widest[stage].max(lead);
                    }
                    pops[lane] += 1;
                }
            }
            if lane_of.len() < 20_000 && p.in_flight() < 1_000 {
                lane_of.push(send(&mut p, &mut rng, &lanes));
                shown.push([None; 2]);
            }
        }
        assert_eq!(
            widest,
            [FAR_AHEAD as u64, NEAR_AHEAD as u64],
            "the bound is tight"
        );
        assert!(lane_of.contains(&None), "no heap send");
    }

    // The batched drain is equivalent to the pop-one loop on the heap
    // model, under randomized schedules over random lanes: a boot
    // burst, ties, lane delays, and mid-run re-sends at the batch
    // instant.
    proptest! {
        #[test]
        fn deliver_window_matches_pop_one_across_backends(seed in 0u64..48) {
            let mut rng = Rng::new(seed ^ 0xBA7C_4D12);
            let lanes = random_lanes(&mut rng);
            let mut p = Pair::booted(&mut rng, &lanes);
            let mut windowed: Vec<(SimTime, u64, u32)> = Vec::new();
            let mut popped: Vec<(SimTime, u64, u32)> = Vec::new();
            let mut batch = Vec::new();
            for _round in 0..30 {
                for _ in 0..rng.bounded_u64(16) {
                    let at = if rng.chance(0.5) {
                        mixed_scale_at(&mut rng, p.laned.now(), &lanes)
                    } else {
                        p.laned.now() + SimTime(rng.bounded_u64(1 << 14))
                    };
                    p.send_at(at);
                }
                let horizon = p.laned.now() + SimTime(rng.bounded_u64(1 << 15));
                while p.laned.deliver_window(horizon, &mut batch) > 0 {
                    windowed.extend(batch.iter().map(|e| (e.at, e.seq, e.msg)));
                    // Handler pattern: occasionally send at the batch
                    // instant; must arrive within this same instant,
                    // after the already-drained batch.
                    if rng.chance(0.3) {
                        p.send_at(batch[0].at);
                    }
                }
                while let Some(e) = p.heap.deliver_before(horizon) {
                    popped.push((e.at, e.seq, e.msg));
                }
                prop_assert_eq!(&windowed, &popped);
                prop_assert_eq!(p.laned.now(), p.heap.now());
                p.advance_to(horizon);
            }
            prop_assert!(!windowed.is_empty(), "schedule exercised nothing");
        }
    }

    // The plane's contract, stated as code: over random lanes, a boot
    // burst below the lane delays and a randomized schedule of sends
    // (ties, past sends that clamp, far-future sends, sends exactly at
    // a lane delay and just off it), horizon-bounded delivery slices,
    // and idle advances produce byte-identical envelope sequences on
    // the laned plane and on the heap model.
    proptest! {
        #[test]
        fn wheel_matches_heap_reference(seed in 0u64..64) {
            let mut rng = Rng::new(seed ^ 0x57EE_1CA5);
            let lanes = random_lanes(&mut rng);
            let mut p = Pair::booted(&mut rng, &lanes);
            let mut delivered = 0usize;
            for _round in 0..40 {
                // A burst of sends against both planes.
                for _ in 0..rng.bounded_u64(20) {
                    let at = mixed_scale_at(&mut rng, p.laned.now(), &lanes);
                    p.send_at(at);
                }
                // A delivery slice up to a random horizon, sometimes
                // re-sending mid-slice (the engine's handler pattern).
                let horizon = p.laned.now() + SimTime(rng.bounded_u64(1 << 22));
                loop {
                    match (p.laned.deliver_before(horizon), p.heap.deliver_before(horizon)) {
                        (Some(x), Some(y)) => {
                            prop_assert_eq!((x.at, x.seq, x.msg), (y.at, y.seq, y.msg));
                            delivered += 1;
                            if rng.chance(0.2) {
                                let at = mixed_scale_at(&mut rng, p.laned.now(), &lanes);
                                p.send_at(at);
                            }
                        }
                        (None, None) => break,
                        (a, b) => prop_assert!(
                            false,
                            "laned plane and model disagree on due envelopes: laned={:?} heap={:?}",
                            a.map(|e| (e.at, e.seq)),
                            b.map(|e| (e.at, e.seq))
                        ),
                    }
                }
                prop_assert_eq!(p.laned.now(), p.heap.now());
                prop_assert_eq!(p.laned.in_flight(), p.heap.in_flight());
                if rng.chance(0.5) {
                    // Idle to the drained horizon (the engine's
                    // `run_until` pattern — never past pending work).
                    p.advance_to(horizon);
                }
            }
            // Drain fully; the tails must agree too.
            loop {
                match (
                    p.laned.deliver_before(SimTime(u64::MAX)),
                    p.heap.deliver_before(SimTime(u64::MAX)),
                ) {
                    (Some(x), Some(y)) => {
                        prop_assert_eq!((x.at, x.seq, x.msg), (y.at, y.seq, y.msg));
                        delivered += 1;
                    }
                    (None, None) => break,
                    _ => prop_assert!(false, "laned plane and model disagree while draining"),
                }
            }
            prop_assert_eq!(p.laned.in_flight(), 0);
            prop_assert!(delivered > 0, "schedule exercised nothing");
        }
    }

    /// Both planes plus the hook's ledger, one entry per tag.
    struct Hooked {
        p: Pair,
        /// The lane each tag joined (`None`: the heap).
        lane: Vec<Option<usize>>,
        /// Whether the far / near stage has shown the tag.
        shown: Vec<[bool; 2]>,
        delivered: Vec<bool>,
        violations: Vec<String>,
    }

    impl Hooked {
        fn send_at(&mut self, at: SimTime) {
            self.p.send_at(at);
            self.filed();
        }

        /// Opens the ledger entry of the last send.
        fn filed(&mut self) {
            self.lane.push(lane_of_last_send(&self.p.laned));
            self.shown.push([false; 2]);
            self.delivered.push(false);
        }

        /// One hooked same-instant drain, checked envelope by envelope
        /// against the heap model's pop-one loop.
        fn drain_instant(&mut self, horizon: SimTime, batch: &mut Vec<Envelope<u32>>) -> usize {
            let Hooked {
                p,
                lane,
                shown,
                delivered,
                violations,
            } = self;
            let n = p.laned.deliver_window_with(horizon, batch, |ahead, &tag| {
                let t = tag as usize;
                let stage = usize::from(ahead == NEAR_AHEAD);
                if delivered[t] {
                    violations.push(format!("tag {tag} shown at {ahead} after delivery"));
                }
                if lane[t].is_none() {
                    violations.push(format!("heap tag {tag} shown at {ahead}"));
                }
                if shown[t][stage] {
                    violations.push(format!("tag {tag} shown twice at {ahead}"));
                }
                if stage == 1 && !shown[t][0] {
                    violations.push(format!("tag {tag} shown near before far"));
                }
                shown[t][stage] = true;
            });
            for e in batch.iter() {
                let t = e.msg as usize;
                self.delivered[t] = true;
                if self.lane[t].is_some() && self.shown[t] != [true; 2] {
                    self.violations.push(format!(
                        "lane tag {} delivered unseen: {:?}",
                        e.msg, self.shown[t]
                    ));
                }
                let model = self
                    .p
                    .heap
                    .deliver_before(horizon)
                    .map(|m| (m.at, m.seq, m.msg));
                if model != Some((e.at, e.seq, e.msg)) {
                    self.violations.push(format!(
                        "laned plane delivered {:?}, heap model {model:?}",
                        (e.at, e.seq, e.msg)
                    ));
                }
            }
            n
        }
    }

    // The hooked drain delivers the heap model's sequence, and the hook
    // sees each lane envelope on its way down its lane: before its
    // delivery, once at the far stage and then once at the near one —
    // and never an envelope that went to the heap.
    proptest! {
        #[test]
        fn hooked_drain_matches_heap_and_sees_each_envelope_on_its_way_down(seed in 0u64..64) {
            let mut rng = Rng::new(seed ^ 0xCA5C_ADE5);
            let lanes = random_lanes(&mut rng);
            let mut h = Hooked {
                p: Pair {
                    laned: MessagePlane::with_lanes(&lanes),
                    heap: HeapPlane::new(),
                },
                lane: Vec::new(),
                shown: Vec::new(),
                delivered: Vec::new(),
                violations: Vec::new(),
            };
            for (idle, stagger, lane) in boot_burst(&mut rng, &lanes) {
                h.p.idle(idle);
                h.p.send_staggered(stagger, lane);
                h.filed();
            }
            let mut batch = Vec::new();
            for round in 0..40 {
                for _ in 0..rng.bounded_u64(20) {
                    let at = mixed_scale_at(&mut rng, h.p.laned.now(), &lanes);
                    h.send_at(at);
                }
                // The last round drains everything, far future included.
                let horizon = if round == 39 {
                    SimTime(u64::MAX)
                } else {
                    h.p.laned.now() + SimTime(rng.bounded_u64(1 << 22))
                };
                while h.drain_instant(horizon, &mut batch) > 0 {
                    // The engine's handler pattern: sends at the batch
                    // instant, at lane delays and at every scale past it.
                    if rng.chance(0.3) {
                        let at = mixed_scale_at(&mut rng, h.p.laned.now(), &lanes);
                        h.send_at(at);
                    }
                }
                prop_assert!(h.p.heap.deliver_before(horizon).is_none(), "laned plane stopped early");
                prop_assert_eq!(h.p.laned.now(), h.p.heap.now());
                if rng.chance(0.5) && round != 39 {
                    h.p.advance_to(horizon);
                }
            }
            prop_assert!(h.violations.is_empty(), "{:#?}", h.violations);
            prop_assert!(h.delivered.iter().all(|&d| d), "the full drain left envelopes behind");
            prop_assert!(
                h.lane.contains(&None) && h.lane.iter().any(Option::is_some),
                "schedule exercised no lane or no heap send"
            );
        }
    }
}
