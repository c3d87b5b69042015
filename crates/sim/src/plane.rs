//! The deterministic in-memory message plane: a hierarchical timing
//! wheel, property-tested against a binary-heap reference model.
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
//! ## The wheel
//!
//! [`WHEEL_LEVELS`] levels of 64 one-µs-granule slots, level `k`
//! spanning `64^(k+1)` µs, plus a far-future overflow list beyond the
//! wheel's ~51-day range. `send` is O(1) (a shift/xor level pick and a
//! push); `deliver` advances a cursor through occupancy bitmasks,
//! cascading a higher-level slot down at most once per level per event
//! — O(levels) ≈ O(1) amortized, against a heap's O(log n) comparisons
//! (and cache misses) per operation with millions of envelopes in
//! flight. The `BinaryHeap<Reverse<Envelope>>` it replaced is the
//! test-only model at the bottom of this file: randomized schedules
//! must come out of both as **byte-identical** envelope sequences.
//!
//! Slots and the overflow list hold 4-byte indices, not envelopes. The
//! envelopes live in one store (`Vec<Option<Envelope<M>>>`) whose free
//! entries are reused last-freed first, so its length is the peak count
//! of filed envelopes, not the count ever sent. An envelope moves twice
//! in its life: into the store at `send`, and out of it when its
//! level-0 slot is harvested. Between the two, every cascade down a
//! level and every overflow rebase moves its index and reads the
//! envelope in place — to learn its delivery time, and to show its
//! payload to the cascade hook. Opening a high-level slot briefly holds
//! the slot's old and new buffers at once; that overlap costs 4 bytes
//! per envelope, not a whole envelope.
//!
//! ## How the wheel preserves the exact heap order
//!
//! The wheel's cursor (`elapsed`) only ever advances to the start of
//! the slot range it is about to open, so an envelope is filed at the
//! highest level where its delivery time still shares a slot path with
//! the cursor (`level = msb(at ^ elapsed) / 6`) and re-files strictly
//! downward as the cursor approaches. A level-0 slot therefore holds
//! envelopes for exactly one microsecond of virtual time; harvesting it
//! sorts the batch by `seq` (cheap: batches are same-instant ties) and
//! moves it out of the store into a tiny `ready` heap, which restores
//! FIFO send order even across
//! overflow rebasing. Envelopes sent *behind* the cursor (possible only
//! through the raw plane API: a `deliver_before` that found nothing may
//! leave the cursor ahead of a caller who never called
//! [`MessagePlane::advance_to`]) go straight into `ready`, which always
//! wins ties against the wheel — so the merged stream is exactly the
//! heap's `(at, seq)` order in every case.
//!
//! ## Cascades as lookahead
//!
//! The re-filing is also a clock the consumer can use. An envelope sent
//! `≥ 64^k` µs ahead is filed at level `≥ k` and handed down one level
//! at a time. A level-`k` slot is `64^k` µs wide and the envelope is due
//! inside it, so the cursor opens its level-2 slot less than 4.1 ms of
//! virtual time before delivery, and its level-1 slot less than 64 µs
//! before. The hooked drain ([`MessagePlane::deliver_window_with`])
//! calls `on_cascade(level, &msg)` for each envelope re-filed out of an
//! opened level-`level` slot, so a consumer whose handlers start with a
//! chain of dependent cache misses can warm one link of the chain per
//! cascade — the engine prefetches a hop's walk slot and peer record at
//! level ≥ 2 and its link row at level 1, with no lookahead distance to
//! tune and no queue of pending prefetches: the distances are the
//! wheel's own slot widths.
//!
//! What the hook may do: read the payload. What it cannot do: send,
//! deliver, reorder or drop — it receives `&M` and nothing of the
//! plane, and it runs between taking an envelope out of one slot and
//! filing it in the next, so the delivered `(at, seq)` sequence is the
//! hookless one by construction ([`MessagePlane::deliver_window`] *is*
//! the same drain with a no-op hook; the heap-model proptests hold
//! both). What it must not rely on: being called. An envelope sent
//! < 64 µs ahead files straight into level 0, one that lands in the
//! first 64 µs of an opened level-2 slot skips level 1, and overflow
//! rebasing calls nothing.
//! That is fine for a hint — a message that skips a stage just pays
//! the miss the stage would have hidden — and wrong for anything else.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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

/// log2 of the slots per wheel level.
const SLOT_BITS: u32 = 6;
/// Slots per wheel level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels. Level `k` slots are `64^k` µs wide, so the wheel spans
/// `64^WHEEL_LEVELS` µs ≈ 51 days of virtual time; envelopes beyond
/// that go to the overflow list and rebase when the cursor catches up.
pub const WHEEL_LEVELS: usize = 7;

/// One wheel level: 64 slots of envelope-store indices plus an
/// occupancy bitmask so the cursor finds the next non-empty slot with a
/// single `trailing_zeros`.
#[derive(Debug)]
struct Level {
    occupied: u64,
    slots: [Vec<u32>; SLOTS],
}

impl Level {
    fn new() -> Level {
        Level {
            occupied: 0,
            slots: std::array::from_fn(|_| Vec::new()),
        }
    }

    /// First occupied slot index ≥ `from`, if any.
    #[inline]
    fn next_occupied(&self, from: u64) -> Option<usize> {
        let masked = self.occupied & (u64::MAX << from);
        (masked != 0).then(|| masked.trailing_zeros() as usize)
    }

    #[inline]
    fn take(&mut self, slot: usize) -> Vec<u32> {
        self.occupied &= !(1u64 << slot);
        std::mem::take(&mut self.slots[slot])
    }
}

/// What the wheel cursor sees next (see [`Wheel::front`]).
enum Front {
    /// A level-0 slot: exact delivery time, ready to harvest.
    Exact { at: u64, slot: usize },
    /// A higher-level slot: every envelope in it is due at or after the
    /// slot's range start; cascade it down before delivering.
    Range {
        level: usize,
        slot: usize,
        start: u64,
    },
    /// Only the far-future overflow list holds envelopes.
    Overflow,
    /// The wheel is empty.
    Empty,
}

/// The hierarchical timing wheel.
#[derive(Debug)]
struct Wheel<M> {
    levels: Vec<Level>,
    /// Every envelope filed in the levels or the overflow list, at the
    /// index its slot entry names; `None` entries are listed in `free`.
    store: Vec<Option<Envelope<M>>>,
    /// Free `store` entries, reused last-freed first.
    free: Vec<u32>,
    /// The wheel cursor, in µs: every envelope filed in the levels is
    /// due at or after it. It trails the envelope stream (advancing to
    /// each opened slot's range start), never leads it.
    elapsed: u64,
    /// Harvested same-instant batches plus the rare behind-cursor
    /// sends; tiny, and always wins ties against the levels.
    ready: BinaryHeap<Reverse<Envelope<M>>>,
    /// Store indices of envelopes beyond the wheel's range; rebased
    /// when reached.
    overflow: Vec<u32>,
    /// Minimum delivery time in `overflow` (`u64::MAX` when empty).
    overflow_min: u64,
}

impl<M> Wheel<M> {
    fn new() -> Wheel<M> {
        Wheel {
            levels: (0..WHEEL_LEVELS).map(|_| Level::new()).collect(),
            store: Vec::new(),
            free: Vec::new(),
            elapsed: 0,
            ready: BinaryHeap::new(),
            overflow: Vec::new(),
            overflow_min: u64::MAX,
        }
    }

    /// The envelope filed under store index `idx`.
    #[inline]
    fn filed(&self, idx: u32) -> &Envelope<M> {
        self.store[idx as usize]
            .as_ref()
            .expect("slots name only occupied store entries")
    }

    /// The level an envelope due at `at >= elapsed` files at: the
    /// highest one where `at` and the cursor sit in different slots
    /// (`>= WHEEL_LEVELS` means the overflow list).
    #[inline]
    fn level_of(&self, at: u64) -> usize {
        let diff = at ^ self.elapsed;
        if diff == 0 {
            0
        } else {
            ((63 - diff.leading_zeros()) / SLOT_BITS) as usize
        }
    }

    /// Files an envelope (already clamped to `at >= clock`): its one
    /// move into the store, reusing the last-freed entry if any.
    fn push(&mut self, env: Envelope<M>) {
        let at = env.at.as_micros();
        if at < self.elapsed {
            // Sent behind the cursor (raw-API pattern: deliver_before
            // advanced the cursor hunting, the caller never advanced
            // the clock). `ready` keeps these exactly ordered.
            self.ready.push(Reverse(env));
            return;
        }
        let idx = match self.free.pop() {
            Some(idx) => {
                self.store[idx as usize] = Some(env);
                idx
            }
            None => {
                let idx = u32::try_from(self.store.len()).expect("< 2^32 envelopes filed");
                self.store.push(Some(env));
                idx
            }
        };
        self.file(idx, at);
    }

    /// Files store entry `idx`, due at `at >= elapsed`, in its slot (or
    /// the overflow list).
    #[inline]
    fn file(&mut self, idx: u32, at: u64) {
        debug_assert!(at >= self.elapsed, "only `push` files behind the cursor");
        let level = self.level_of(at);
        if level >= WHEEL_LEVELS {
            self.overflow_min = self.overflow_min.min(at);
            self.overflow.push(idx);
            return;
        }
        let slot = ((at >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        self.levels[level].slots[slot].push(idx);
        self.levels[level].occupied |= 1u64 << slot;
    }

    /// Re-files the entries of an opened slot (or of the overflow list)
    /// relative to the advanced cursor, showing each payload to `each`
    /// first. The envelopes stay where they are in the store.
    fn refile(&mut self, ids: Vec<u32>, mut each: impl FnMut(&M)) {
        for idx in ids {
            let env = self.filed(idx);
            each(&env.msg);
            let at = env.at.as_micros();
            self.file(idx, at);
        }
    }

    /// The cursor's next stop. Levels are scanned lowest-first: level-0
    /// slots all live in the cursor's current 64-µs window, which ends
    /// before any higher-level slot's range begins, and the same
    /// argument orders the higher levels among themselves — so the
    /// first hit *is* the earliest.
    fn front(&self) -> Front {
        for (level, lv) in self.levels.iter().enumerate() {
            let shift = SLOT_BITS * level as u32;
            let cur = (self.elapsed >> shift) & (SLOTS as u64 - 1);
            if let Some(slot) = lv.next_occupied(cur) {
                if level == 0 {
                    let at = (self.elapsed & !(SLOTS as u64 - 1)) + slot as u64;
                    return Front::Exact { at, slot };
                }
                let window = SLOT_BITS * (level as u32 + 1);
                let start = (self.elapsed >> window << window) + ((slot as u64) << shift);
                return Front::Range { level, slot, start };
            }
        }
        if self.overflow.is_empty() {
            Front::Empty
        } else {
            Front::Overflow
        }
    }

    /// Pops the globally earliest `(at, seq)` envelope due at or before
    /// `until`. Cascades and harvests lazily; the cursor never advances
    /// past `until`, so the horizon in `deliver_before` is exact.
    ///
    /// `on_cascade(level, &msg)` sees every envelope re-filed out of an
    /// opened level-`level` slot (the module docs' lookahead hook).
    fn pop_before(
        &mut self,
        until: SimTime,
        on_cascade: &mut impl FnMut(usize, &M),
    ) -> Option<Envelope<M>> {
        let until = until.as_micros();
        loop {
            let ready_at = self.ready.peek().map(|Reverse(e)| e.at.as_micros());
            // `ready` wins every tie: its envelopes were filed for this
            // instant strictly before anything still out in the levels,
            // so their seqs are strictly smaller.
            let ready_due = |bound: u64| ready_at.is_some_and(|r| r <= bound);
            match self.front() {
                Front::Exact { at, slot } => {
                    if ready_due(at) {
                        break;
                    }
                    if at > until {
                        return None;
                    }
                    self.elapsed = at;
                    let mut ids = self.levels[0].take(slot);
                    // One slot = one µs of virtual time; seq order is
                    // FIFO send order. Sorting (a no-op for in-order
                    // batches) also repairs the interleavings overflow
                    // rebasing can produce.
                    ids.sort_unstable_by_key(|&idx| self.filed(idx).seq);
                    for idx in ids {
                        // The envelope's one move out of the store.
                        let env = self.store[idx as usize].take().expect("filed");
                        self.free.push(idx);
                        self.ready.push(Reverse(env));
                    }
                }
                Front::Range { level, slot, start } => {
                    if ready_due(start) {
                        break;
                    }
                    if start > until {
                        return None;
                    }
                    // Open the slot: advance to its range start and
                    // re-file its envelopes, which all land at lower
                    // levels (their times now share this slot path).
                    self.elapsed = start;
                    let ids = self.levels[level].take(slot);
                    self.refile(ids, |msg| on_cascade(level, msg));
                }
                Front::Overflow => {
                    if ready_due(self.overflow_min) {
                        break;
                    }
                    if self.overflow_min > until {
                        return None;
                    }
                    self.rebase();
                }
                Front::Empty => {
                    ready_at?;
                    break;
                }
            }
        }
        // The wheel's next stop can't beat `ready`'s head; deliver it —
        // unless even that head is past the horizon.
        let due = self
            .ready
            .peek()
            .is_some_and(|Reverse(e)| e.at.as_micros() <= until);
        if !due {
            return None;
        }
        let Reverse(env) = self.ready.pop().expect("peeked");
        self.elapsed = self.elapsed.max(env.at.as_micros());
        Some(env)
    }

    /// Pops the next envelope only if it is due exactly at `at` (the
    /// same-instant fast path of [`MessagePlane::deliver_window`]).
    /// After a `pop_before` returned an envelope at `at`, the rest of
    /// that instant's batch usually sits harvested in `ready`, so this
    /// is a peek + pop with no cursor walk.
    fn pop_at(
        &mut self,
        at: SimTime,
        on_cascade: &mut impl FnMut(usize, &M),
    ) -> Option<Envelope<M>> {
        if self.ready.peek().is_some_and(|Reverse(e)| e.at == at) {
            let Reverse(env) = self.ready.pop().expect("peeked");
            return Some(env);
        }
        // Slow path: the batch straddled a harvest boundary (overflow
        // rebase, behind-cursor send). `pop_before(at)` returns only
        // envelopes due ≤ `at`, and everything earlier is already out.
        self.pop_before(at, on_cascade)
    }

    /// Rebases: moves the cursor to the overflow minimum and re-files
    /// the overflow list relative to it. Only called with the wheel
    /// proper empty, so the cursor may jump and no filed envelope is
    /// left behind it.
    fn rebase(&mut self) {
        self.elapsed = self.overflow_min;
        self.overflow_min = u64::MAX;
        let ids = std::mem::take(&mut self.overflow);
        self.refile(ids, |_| {});
    }
}

/// The queue + clock. Generic in the message type so it can be tested
/// (and reused) independently of the protocol.
#[derive(Debug)]
pub struct MessagePlane<M> {
    wheel: Wheel<M>,
    clock: SimTime,
    seq: u64,
    delivered: u64,
    in_flight: usize,
}

impl<M> Default for MessagePlane<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> MessagePlane<M> {
    /// An empty plane at time zero.
    pub fn new() -> MessagePlane<M> {
        MessagePlane {
            wheel: Wheel::new(),
            clock: SimTime::ZERO,
            seq: 0,
            delivered: 0,
            in_flight: 0,
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

    /// Messages currently in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Sends `msg` for delivery `delay` after now.
    pub fn send(&mut self, delay: SimTime, msg: M) {
        self.send_at(self.clock + delay, msg);
    }

    /// Sends `msg` for delivery at absolute time `at` (clamped to `now`
    /// — time never rewinds, even for timeouts that expired while a
    /// slower message was in flight).
    pub fn send_at(&mut self, at: SimTime, msg: M) {
        let env = Envelope {
            at: at.max(self.clock),
            seq: self.seq,
            msg,
        };
        self.seq += 1;
        self.in_flight += 1;
        self.wheel.push(env);
    }

    /// Delivers the next envelope due at or before `until`, advancing
    /// the clock to its delivery time. `None` once nothing is due.
    pub fn deliver_before(&mut self, until: SimTime) -> Option<Envelope<M>> {
        self.deliver_before_with(until, &mut |_, _| {})
    }

    /// [`MessagePlane::deliver_before`] with the cascade hook threaded
    /// through — the one place an envelope leaves the wheel.
    fn deliver_before_with(
        &mut self,
        until: SimTime,
        on_cascade: &mut impl FnMut(usize, &M),
    ) -> Option<Envelope<M>> {
        let env = self.wheel.pop_before(until, on_cascade)?;
        debug_assert!(env.at >= self.clock, "plane clock must be monotone");
        self.clock = env.at;
        self.delivered += 1;
        self.in_flight -= 1;
        Some(env)
    }

    /// Drains **every envelope due at the single earliest pending
    /// instant** `t ≤ until` into `out` (cleared first), in `(at, seq)`
    /// order, and advances the clock to `t`. Returns the batch size;
    /// `0` means nothing is due by `until` (clock untouched).
    ///
    /// This is the batched form of [`MessagePlane::deliver_before`]:
    /// one cursor walk harvests the whole same-instant batch, and the
    /// wheel then serves the rest of the batch straight from its
    /// `ready` heap instead of re-walking the levels per envelope.
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
    /// `on_cascade(level, &msg)` is called for every envelope the wheel
    /// re-files out of an opened level-`level` slot (`level ≥ 1`) while
    /// this drain walks the cursor — i.e. for messages due *after* the
    /// batch, by less than `64^level` µs (a level-`level` slot's width;
    /// `cascades_see_envelopes_due_within_their_levels_slot_width` pins
    /// it). The hook gets the payload by
    /// shared reference and nothing else, so the delivered sequence is
    /// the hookless one by construction; see the module's "cascades as
    /// lookahead" section for what it is for.
    pub fn deliver_window_with(
        &mut self,
        until: SimTime,
        out: &mut Vec<Envelope<M>>,
        mut on_cascade: impl FnMut(usize, &M),
    ) -> usize {
        out.clear();
        let Some(first) = self.deliver_before_with(until, &mut on_cascade) else {
            return 0;
        };
        let at = first.at;
        out.push(first);
        while let Some(env) = self.wheel.pop_at(at, &mut on_cascade) {
            debug_assert_eq!(env.at, at, "same-instant batch only");
            self.delivered += 1;
            self.in_flight -= 1;
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

    /// The reference model: the `BinaryHeap` plane the wheel replaced.
    /// `(at, seq)` order is the heap's own, so there is nothing here to
    /// get wrong; the two proptests below hold the wheel to it.
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

        fn send(&mut self, delay: SimTime, msg: M) {
            self.send_at(self.clock + delay, msg);
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

    /// One send time of the random schedules below: ties, past sends,
    /// overflow hits and delays on every scale from µs to minutes.
    fn mixed_scale_at(rng: &mut Rng, now: SimTime) -> SimTime {
        match rng.bounded_u64(10) {
            // Same-instant tie bursts.
            0 | 1 => now,
            // Past send: clamps to now.
            2 => SimTime(now.0 / 2),
            // Far future: crosses the overflow level.
            3 => now + SimTime(1 << 45) + SimTime(rng.bounded_u64(1 << 13)),
            // Mixed scales, from µs to minutes.
            _ => {
                let scale = 10u64.pow(rng.bounded_u64(8) as u32);
                now + SimTime(rng.bounded_u64(scale.max(1)))
            }
        }
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
        let mut p = MessagePlane::new();
        for i in 0..100 {
            p.send(SimTime::from_millis(5), i);
        }
        let mut got = Vec::new();
        while let Some(e) = p.deliver_before(SimTime::from_secs(1)) {
            got.push(e.msg);
        }
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn past_sends_clamp_to_now() {
        let mut p = MessagePlane::new();
        p.send(SimTime::from_millis(50), "later");
        p.deliver_before(SimTime::from_secs(1)).unwrap();
        p.send_at(SimTime::from_millis(10), "expired timeout");
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
        let mut p = MessagePlane::new();
        // Beyond the wheel's 64^WHEEL_LEVELS µs range from time 0.
        let far = SimTime(1 << (SLOT_BITS as u64 * WHEEL_LEVELS as u64 + 3));
        p.send_at(far, 1);
        p.send_at(far, 2);
        p.send_at(far + SimTime(1), 3);
        p.send(SimTime::from_millis(1), 0);
        let mut got = Vec::new();
        while let Some(e) = p.deliver_before(SimTime(u64::MAX)) {
            got.push(e.msg);
        }
        assert_eq!(got, vec![0, 1, 2, 3]);
        assert_eq!(p.now(), far + SimTime(1));
    }

    #[test]
    fn deliver_window_drains_one_instant_at_a_time() {
        let mut p = MessagePlane::new();
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
        let mut p = MessagePlane::new();
        p.send(SimTime::from_millis(5), 1);
        let mut batch = Vec::new();
        assert_eq!(p.deliver_window(SimTime::from_secs(1), &mut batch), 1);
        p.send(SimTime::ZERO, 2); // handler send at t
        assert_eq!(p.deliver_window(SimTime::from_secs(1), &mut batch), 1);
        assert_eq!(batch[0].msg, 2);
        assert_eq!(batch[0].at, SimTime::from_millis(5));
    }

    /// The lookahead distances of "cascades as lookahead": an envelope
    /// the hook sees out of an opened level-`level` slot is due at or
    /// after the instant that drain delivers, and less than `64^level`
    /// µs after it — the width of a level-`level` slot. 20 000 random
    /// delays from 1 µs to 100 s, sent as the clock moves.
    #[test]
    fn cascades_see_envelopes_due_within_their_levels_slot_width() {
        /// Sends one envelope carrying its own due time, in µs.
        fn send(p: &mut MessagePlane<u64>, rng: &mut Rng) {
            let scale = 10u64.pow(rng.bounded_u64(9) as u32);
            let at = p.now() + SimTime(1 + rng.bounded_u64(scale));
            p.send_at(at, at.as_micros());
        }
        let mut rng = Rng::new(0x100C_A4EA);
        let mut p = MessagePlane::new();
        for _ in 0..1_000 {
            send(&mut p, &mut rng);
        }
        let (mut sent, mut batch, mut seen) = (1_000, Vec::new(), Vec::new());
        let mut widest = [0u64; WHEEL_LEVELS];
        while p.deliver_window_with(SimTime(u64::MAX), &mut batch, |level, &due| {
            seen.push((level, due))
        }) > 0
        {
            let now = p.now().as_micros();
            for (level, due) in seen.drain(..) {
                assert!(
                    due >= now,
                    "level {level}: due {due} before the drain's {now}"
                );
                assert!(
                    due - now < 64u64.pow(level as u32),
                    "level {level}: due {} µs after the drain",
                    due - now
                );
                widest[level] = widest[level].max(due - now);
            }
            while sent < 20_000 && p.in_flight() < 1_000 {
                send(&mut p, &mut rng);
                sent += 1;
            }
        }
        // Each of levels 1–3 reaches past the slot width one level down,
        // so the bound above is the tight one.
        for (level, &gap) in widest.iter().enumerate().take(4).skip(1) {
            assert!(
                gap >= 64u64.pow(level as u32 - 1),
                "level {level} saw at most {gap} µs"
            );
        }
    }

    // The batched drain is equivalent to the pop-one loop on the heap
    // model, under randomized schedules with ties and mid-run re-sends
    // at the batch instant.
    proptest! {
        #[test]
        fn deliver_window_matches_pop_one_across_backends(seed in 0u64..48) {
            let mut rng = Rng::new(seed ^ 0xBA7C_4D12);
            let mut wheel = MessagePlane::<u32>::new();
            let mut heap = HeapPlane::<u32>::new();
            let mut tag = 0u32;
            let mut windowed: Vec<(SimTime, u64, u32)> = Vec::new();
            let mut popped: Vec<(SimTime, u64, u32)> = Vec::new();
            let mut batch = Vec::new();
            for _round in 0..30 {
                for _ in 0..rng.bounded_u64(16) {
                    tag += 1;
                    let at = wheel.now() + SimTime(rng.bounded_u64(1 << 14));
                    wheel.send_at(at, tag);
                    heap.send_at(at, tag);
                }
                let horizon = wheel.now() + SimTime(rng.bounded_u64(1 << 15));
                while wheel.deliver_window(horizon, &mut batch) > 0 {
                    windowed.extend(batch.iter().map(|e| (e.at, e.seq, e.msg)));
                    // Handler pattern: occasionally send at the batch
                    // instant; must arrive within this same instant,
                    // after the already-drained batch.
                    if rng.chance(0.3) {
                        tag += 1;
                        let at = batch[0].at;
                        wheel.send_at(at, tag);
                        heap.send_at(at, tag);
                    }
                }
                while let Some(e) = heap.deliver_before(horizon) {
                    popped.push((e.at, e.seq, e.msg));
                }
                prop_assert_eq!(&windowed, &popped);
                prop_assert_eq!(wheel.now(), heap.now());
                wheel.advance_to(horizon);
                heap.advance_to(horizon);
            }
            prop_assert!(!windowed.is_empty(), "schedule exercised nothing");
        }
    }

    // The plane's contract, stated as code: a randomized schedule of
    // sends (including same-instant ties, past sends that clamp, and
    // far-future overflow hits), horizon-bounded delivery slices, and
    // idle advances produces byte-identical envelope sequences on the
    // wheel and on the heap model.
    proptest! {
        #[test]
        fn wheel_matches_heap_reference(seed in 0u64..64) {
            let mut rng = Rng::new(seed ^ 0x57EE_1CA5);
            let mut wheel = MessagePlane::<u32>::new();
            let mut heap = HeapPlane::<u32>::new();
            let mut tag = 0u32;
            let mut delivered = 0usize;
            for _round in 0..40 {
                // A burst of sends against both planes.
                for _ in 0..rng.bounded_u64(20) {
                    tag += 1;
                    let at = mixed_scale_at(&mut rng, wheel.now());
                    wheel.send_at(at, tag);
                    heap.send_at(at, tag);
                }
                // A delivery slice up to a random horizon, sometimes
                // re-sending mid-slice (the engine's handler pattern).
                let horizon = wheel.now() + SimTime(rng.bounded_u64(1 << 22));
                loop {
                    let (a, b) = (wheel.deliver_before(horizon), heap.deliver_before(horizon));
                    match (a, b) {
                        (Some(x), Some(y)) => {
                            prop_assert_eq!(x.at, y.at);
                            prop_assert_eq!(x.seq, y.seq);
                            prop_assert_eq!(x.msg, y.msg);
                            delivered += 1;
                            if rng.chance(0.2) {
                                tag += 1;
                                let dt = SimTime(rng.bounded_u64(1 << 20));
                                wheel.send(dt, tag);
                                heap.send(dt, tag);
                            }
                        }
                        (None, None) => break,
                        (a, b) => prop_assert!(
                            false,
                            "wheel and model disagree on due envelopes: wheel={:?} heap={:?}",
                            a.map(|e| (e.at, e.seq)),
                            b.map(|e| (e.at, e.seq))
                        ),
                    }
                }
                prop_assert_eq!(wheel.now(), heap.now());
                prop_assert_eq!(wheel.in_flight(), heap.in_flight());
                if rng.chance(0.5) {
                    // Idle to the drained horizon (the engine's
                    // `run_until` pattern — never past pending work).
                    wheel.advance_to(horizon);
                    heap.advance_to(horizon);
                }
            }
            // Drain fully; the tails must agree too.
            loop {
                match (
                    wheel.deliver_before(SimTime(u64::MAX)),
                    heap.deliver_before(SimTime(u64::MAX)),
                ) {
                    (Some(x), Some(y)) => {
                        prop_assert_eq!((x.at, x.seq, x.msg), (y.at, y.seq, y.msg));
                        delivered += 1;
                    }
                    (None, None) => break,
                    _ => prop_assert!(false, "wheel and model disagree while draining"),
                }
            }
            prop_assert_eq!(wheel.in_flight(), 0);
            prop_assert!(delivered > 0, "schedule exercised nothing");
        }
    }

    /// What the cascade hook may see of one envelope, from how it was
    /// filed.
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Filed {
        /// Level 0 or behind the cursor: never shown to the hook.
        Straight,
        /// A wheel level ≥ 1: the hook's first sight is at that level.
        Level(usize),
        /// The overflow list: rebased to a level unknown at send time.
        Overflow,
    }

    /// Both planes plus the hook's ledger, one entry per tag.
    struct Hooked {
        wheel: MessagePlane<u32>,
        heap: HeapPlane<u32>,
        filed: Vec<Filed>,
        /// Level of the hook's last sight (`usize::MAX`: none yet).
        last_seen: Vec<usize>,
        delivered: Vec<bool>,
        violations: Vec<String>,
    }

    impl Hooked {
        fn send_at(&mut self, at: SimTime) {
            let tag = self.filed.len() as u32;
            let due = at.max(self.wheel.now()).as_micros();
            let level = self.wheel.wheel.level_of(due);
            self.filed
                .push(if due < self.wheel.wheel.elapsed || level == 0 {
                    Filed::Straight
                } else if level < WHEEL_LEVELS {
                    Filed::Level(level)
                } else {
                    Filed::Overflow
                });
            self.last_seen.push(usize::MAX);
            self.delivered.push(false);
            self.wheel.send_at(at, tag);
            self.heap.send_at(at, tag);
        }

        /// One hooked same-instant drain, checked envelope by envelope
        /// against the heap model's pop-one loop.
        fn drain_instant(&mut self, horizon: SimTime, batch: &mut Vec<Envelope<u32>>) -> usize {
            let Hooked {
                wheel,
                filed,
                last_seen,
                delivered,
                violations,
                ..
            } = self;
            let n = wheel.deliver_window_with(horizon, batch, |level, &tag| {
                let t = tag as usize;
                let first = last_seen[t] == usize::MAX;
                if delivered[t] {
                    violations.push(format!("tag {tag} seen at level {level} after delivery"));
                }
                if level == 0 || level >= WHEEL_LEVELS {
                    violations.push(format!("tag {tag} seen at level {level}"));
                }
                if level >= last_seen[t] {
                    violations.push(format!(
                        "tag {tag} seen at level {level} after level {}",
                        last_seen[t]
                    ));
                }
                match filed[t] {
                    Filed::Straight => violations.push(format!(
                        "tag {tag} was filed straight into level 0, seen at level {level}"
                    )),
                    Filed::Level(l) if first && l != level => violations.push(format!(
                        "tag {tag} filed at level {l}, first seen at level {level}"
                    )),
                    _ => {}
                }
                last_seen[t] = level;
            });
            for e in batch.iter() {
                let t = e.msg as usize;
                self.delivered[t] = true;
                if matches!(self.filed[t], Filed::Level(_)) && self.last_seen[t] == usize::MAX {
                    self.violations
                        .push(format!("tag {} came down the levels unseen", e.msg));
                }
                let model = self
                    .heap
                    .deliver_before(horizon)
                    .map(|m| (m.at, m.seq, m.msg));
                if model != Some((e.at, e.seq, e.msg)) {
                    self.violations.push(format!(
                        "wheel delivered {:?}, heap model {model:?}",
                        (e.at, e.seq, e.msg)
                    ));
                }
            }
            n
        }
    }

    // The hooked drain delivers the heap model's sequence, and the hook
    // sees an envelope only on its way down: before its delivery, at
    // strictly descending levels (so at most once per level), starting
    // at the level it was filed at, and never when it was filed
    // straight into level 0.
    proptest! {
        #[test]
        fn hooked_drain_matches_heap_and_sees_each_envelope_on_its_way_down(seed in 0u64..64) {
            let mut rng = Rng::new(seed ^ 0xCA5C_ADE5);
            let mut h = Hooked {
                wheel: MessagePlane::new(),
                heap: HeapPlane::new(),
                filed: Vec::new(),
                last_seen: Vec::new(),
                delivered: Vec::new(),
                violations: Vec::new(),
            };
            let mut batch = Vec::new();
            for round in 0..40 {
                for _ in 0..rng.bounded_u64(20) {
                    let at = mixed_scale_at(&mut rng, h.wheel.now());
                    h.send_at(at);
                }
                // The last round drains everything, overflow included.
                let horizon = if round == 39 {
                    SimTime(u64::MAX)
                } else {
                    h.wheel.now() + SimTime(rng.bounded_u64(1 << 22))
                };
                while h.drain_instant(horizon, &mut batch) > 0 {
                    // The engine's handler pattern: sends at the batch
                    // instant and at every scale past it.
                    if rng.chance(0.3) {
                        let scale = 1 << rng.bounded_u64(21);
                        let dt = SimTime(rng.bounded_u64(scale));
                        h.send_at(h.wheel.now() + dt);
                    }
                }
                prop_assert!(h.heap.deliver_before(horizon).is_none(), "wheel stopped early");
                prop_assert_eq!(h.wheel.now(), h.heap.now());
                if rng.chance(0.5) && round != 39 {
                    h.wheel.advance_to(horizon);
                    h.heap.advance_to(horizon);
                }
            }
            prop_assert!(h.violations.is_empty(), "{:#?}", h.violations);
            prop_assert!(h.delivered.iter().all(|&d| d), "the full drain left envelopes behind");
            prop_assert!(
                h.last_seen.iter().any(|&l| l != usize::MAX) && h.filed.contains(&Filed::Straight),
                "schedule exercised no cascade or no straight filing"
            );
        }
    }

    // The envelope store behind the slots. Under the hooked drain, with
    // heap-owning payloads checked against the heap model: the store
    // never holds more entries than the peak in-flight count (harvested
    // entries are reused, not appended), every entry is free again once
    // the plane is drained, and the hook reads every cascaded payload
    // exactly as it was sent.
    proptest! {
        #[test]
        fn store_reuses_freed_entries_and_the_hook_reads_payloads_as_sent(seed in 0u64..64) {
            /// Sends payload `t = sent.len()`, `[t, …]` in one to four
            /// words, to both planes, and records it.
            fn send(
                at: SimTime,
                rng: &mut Rng,
                sent: &mut Vec<Vec<u64>>,
                wheel: &mut MessagePlane<Vec<u64>>,
                heap: &mut HeapPlane<Vec<u64>>,
            ) {
                let mut body = vec![sent.len() as u64];
                body.extend((0..rng.bounded_u64(4)).map(|_| rng.next_u64()));
                sent.push(body.clone());
                wheel.send_at(at, body.clone());
                heap.send_at(at, body);
            }
            let mut rng = Rng::new(seed ^ 0x5707_E1D5);
            let mut wheel = MessagePlane::new();
            let mut heap = HeapPlane::new();
            let mut sent = Vec::new();
            let mut peak = 0usize;
            let mut cascaded = 0usize;
            let mut misread = Vec::new();
            let mut batch = Vec::new();
            for round in 0..40 {
                for _ in 0..rng.bounded_u64(20) {
                    let at = mixed_scale_at(&mut rng, wheel.now());
                    send(at, &mut rng, &mut sent, &mut wheel, &mut heap);
                    peak = peak.max(wheel.in_flight());
                }
                // The last round drains everything, overflow included.
                let horizon = if round == 39 {
                    SimTime(u64::MAX)
                } else {
                    wheel.now() + SimTime(rng.bounded_u64(1 << 22))
                };
                loop {
                    let n = wheel.deliver_window_with(horizon, &mut batch, |_, msg: &Vec<u64>| {
                        cascaded += 1;
                        if *msg != sent[msg[0] as usize] {
                            misread.push(msg.clone());
                        }
                    });
                    if n == 0 {
                        break;
                    }
                    for e in &batch {
                        let model = heap.deliver_before(horizon).map(|m| (m.at, m.seq, m.msg));
                        prop_assert_eq!(model, Some((e.at, e.seq, e.msg.clone())));
                    }
                    prop_assert!(
                        wheel.wheel.store.len() <= peak,
                        "store holds {} entries, peak in flight {peak}",
                        wheel.wheel.store.len()
                    );
                    // The engine's handler pattern: sends at every
                    // scale past the batch instant.
                    if rng.chance(0.3) {
                        let scale = 1 << rng.bounded_u64(21);
                        let dt = SimTime(rng.bounded_u64(scale));
                        let at = wheel.now() + dt;
                        send(at, &mut rng, &mut sent, &mut wheel, &mut heap);
                        peak = peak.max(wheel.in_flight());
                    }
                }
                prop_assert!(heap.deliver_before(horizon).is_none(), "wheel stopped early");
                if rng.chance(0.5) && round != 39 {
                    wheel.advance_to(horizon);
                    heap.advance_to(horizon);
                }
            }
            prop_assert!(misread.is_empty(), "hook misread payloads {:?}", misread);
            prop_assert_eq!(wheel.in_flight(), 0);
            prop_assert_eq!(wheel.wheel.free.len(), wheel.wheel.store.len(), "entries left filed");
            prop_assert!(cascaded > 0, "schedule exercised no cascade");
            prop_assert!(
                wheel.wheel.store.len() < sent.len(),
                "no entry was ever reused ({} sends)",
                sent.len()
            );
        }
    }
}
