//! Open-loop traffic engine: congestion primitives and the load
//! generator configuration.
//!
//! This module owns the pieces that turn the simulator from an
//! infinite-capacity message fabric into a system with a **saturation
//! point**:
//!
//! * [`CongestionConfig`] — per-node finite-capacity service queues
//!   ([`ServiceQueue`]) and per-link token-bucket rate limiters
//!   ([`TokenBucket`]). Both are *analytic* models evaluated at send
//!   time in deterministic event order: the engine computes the queue
//!   wait / shaping delay arithmetically from per-node `busy_until`
//!   and per-link token balances, then schedules the delivery on the
//!   ordinary plane at the service-completion instant. No extra
//!   envelopes, no timers, no randomness — the plane clock stays the
//!   single source of time and the wheel/heap backends stay
//!   bit-identical.
//! * [`TrafficConfig`] — an open-loop lookup generator: arrivals are
//!   Poisson at the configured offered rate (independent of completion
//!   — the defining property of open-loop load), keys are drawn from a
//!   [`ZipfSampler`] over a bounded hot-key universe, and requesters
//!   are drawn from a small **gateway** set so requester-side caches
//!   see realistic re-reference.
//! * [`HotCache`] — the bounded requester-side LRU with TTL
//!   invalidation: a hit answers the lookup instantly (no walk, no
//!   messages); entries expire after `ttl` regardless of use, which
//!   bounds staleness under churn (see the cache-coherence caveat in
//!   the crate docs).

use crate::time::SimTime;
use sw_graph::IdMap;
use sw_keyspace::Rng;

/// Per-node service-queue and per-link rate-limit parameters. The
/// defaults ([`CongestionConfig::NONE`]) disable both, reproducing the
/// pre-congestion simulator bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CongestionConfig {
    /// Time a node spends servicing one delivered message. `0.0`
    /// disables queueing entirely (infinite service capacity).
    pub service_secs_per_msg: f64,
    /// Maximum messages ahead of a new arrival (including the one in
    /// service) before the node drops it. Only meaningful when
    /// `service_secs_per_msg > 0`.
    pub queue_cap: u32,
    /// Token-bucket refill rate per directed link, in messages per
    /// second. `0.0` disables link shaping.
    pub link_rate: f64,
    /// Token-bucket burst size (messages that may depart back-to-back
    /// on an idle link).
    pub link_burst: f64,
}

impl CongestionConfig {
    /// Congestion model disabled: infinite service capacity, no link
    /// shaping — the pre-traffic-engine simulator.
    pub const NONE: CongestionConfig = CongestionConfig {
        service_secs_per_msg: 0.0,
        queue_cap: 0,
        link_rate: 0.0,
        link_burst: 0.0,
    };

    /// True when nodes queue (and may drop) arrivals.
    pub fn queueing_enabled(&self) -> bool {
        self.service_secs_per_msg > 0.0
    }

    /// True when links shape departures.
    pub fn shaping_enabled(&self) -> bool {
        self.link_rate > 0.0
    }

    /// True when any congestion mechanism is active.
    pub fn enabled(&self) -> bool {
        self.queueing_enabled() || self.shaping_enabled()
    }
}

impl Default for CongestionConfig {
    fn default() -> Self {
        CongestionConfig::NONE
    }
}

/// Requester-side hot-key cache parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Maximum entries per gateway cache.
    pub capacity: usize,
    /// Entries expire this long after insertion (TTL invalidation —
    /// the only coherence mechanism; see the crate-doc caveat).
    pub ttl: SimTime,
}

/// Open-loop lookup generator parameters. [`TrafficConfig::NONE`]
/// (rate `0`) disables the generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficConfig {
    /// Offered lookups per second (Poisson arrivals), independent of
    /// completions — open-loop by construction.
    pub rate: f64,
    /// Zipf exponent of key popularity: `0.0` is uniform, `~1.0` is
    /// web-like skew.
    pub zipf_s: f64,
    /// Size of the hot-key universe the generator draws from: that
    /// many distinct peers, drawn once at boot, so it is capped at the
    /// t = 0 population.
    pub hot_keys: usize,
    /// Number of gateway nodes that originate traffic (front-ends
    /// serving user requests), drawn once at boot and so capped at the
    /// t = 0 population. A gateway that dies strands every arrival it
    /// draws from then on.
    pub gateways: usize,
    /// Optional requester-side hot-key cache; `None` means every
    /// lookup walks.
    pub cache: Option<CacheConfig>,
}

impl TrafficConfig {
    /// Generator disabled.
    pub const NONE: TrafficConfig = TrafficConfig {
        rate: 0.0,
        zipf_s: 0.0,
        hot_keys: 0,
        gateways: 0,
        cache: None,
    };

    /// True when the generator injects lookups.
    pub fn enabled(&self) -> bool {
        self.rate > 0.0 && self.hot_keys > 0
    }
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig::NONE
    }
}

/// Zipf(s) sampler over ranks `0..universe` via a precomputed
/// cumulative weight table: rank `k` has weight `1/(k+1)^s`.
/// Deterministic given the caller's [`Rng`] stream; `s = 0` degrades
/// to uniform.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cum: Vec<f64>,
}

impl ZipfSampler {
    /// Build the cumulative table for `universe` ranks with exponent
    /// `s`. Panics on an empty universe.
    pub fn new(universe: usize, s: f64) -> ZipfSampler {
        assert!(universe > 0, "Zipf universe must be non-empty");
        let mut cum = Vec::with_capacity(universe);
        let mut total = 0.0f64;
        for k in 0..universe {
            total += 1.0 / ((k + 1) as f64).powf(s);
            cum.push(total);
        }
        ZipfSampler { cum }
    }

    /// Draw a rank in `0..universe`.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        rng.sample_cumulative(&self.cum)
    }

    /// Probability mass of the single most popular rank — the analytic
    /// ceiling on how much load one owner absorbs.
    pub fn top_share(&self) -> f64 {
        self.cum[0] / self.cum[self.cum.len() - 1]
    }
}

/// Analytic single-server FIFO queue: the entire queue state is one
/// `busy_until` instant, updated in deterministic event order. The
/// depth ahead of an arrival is derived arithmetically (residual busy
/// time ÷ service time), so admission, wait and drop decisions need no
/// per-message bookkeeping and cost O(1).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceQueue {
    /// Instant the server finishes everything admitted so far.
    pub busy_until: SimTime,
}

impl ServiceQueue {
    /// Offer an arrival at `arrive` needing `service` time, against a
    /// depth cap of `cap` messages ahead (including the one in
    /// service). Returns `Some((done, wait, depth))` on admission —
    /// `done` is the service-completion instant to deliver at, `wait`
    /// the time spent queued before service, `depth` the number of
    /// messages ahead at arrival — or `None` when the queue is full
    /// and the message is dropped.
    pub fn offer(
        &mut self,
        arrive: SimTime,
        service: SimTime,
        cap: u32,
    ) -> Option<(SimTime, SimTime, u64)> {
        debug_assert!(service > SimTime::ZERO);
        let depth = if self.busy_until > arrive {
            // Residual work divided by per-message service time, rounded
            // up: how many messages are still ahead of this arrival.
            let residual = self.busy_until.0 - arrive.0;
            residual.div_ceil(service.0)
        } else {
            0
        };
        if depth > cap as u64 {
            return None;
        }
        let start = self.busy_until.max(arrive);
        let wait = start - arrive;
        self.busy_until = start + service;
        Some((self.busy_until, wait, depth))
    }
}

/// Deficit token bucket evaluated at departure time: `available` may
/// go negative (the virtual-clock formulation), in which case the
/// departure is delayed until the deficit refills. O(1) state per
/// directed link, allocated lazily for links that actually carry
/// traffic.
#[derive(Debug, Clone, Copy)]
pub struct TokenBucket {
    /// Token balance; negative means the link owes refill time.
    pub available: f64,
    /// Last refill instant.
    pub last: SimTime,
}

impl TokenBucket {
    /// A full bucket created at `now`.
    pub fn full(now: SimTime, burst: f64) -> TokenBucket {
        TokenBucket {
            available: burst,
            last: now,
        }
    }

    /// Charge one message departing at `depart`; returns how long the
    /// departure is delayed (zero when a token is on hand).
    pub fn delay(&mut self, depart: SimTime, rate: f64, burst: f64) -> SimTime {
        debug_assert!(rate > 0.0);
        let dt = (depart - self.last).as_secs_f64();
        self.available = (self.available + dt * rate).min(burst);
        self.last = depart;
        self.available -= 1.0;
        if self.available >= 0.0 {
            SimTime::ZERO
        } else {
            SimTime::from_secs_f64(-self.available / rate)
        }
    }
}

/// The engine's per-directed-link [`TokenBucket`]s: created full on a
/// link's first send, and *forgotten* once refilled.
///
/// A bucket whose balance has climbed back to `burst` is, for every
/// later departure, bit-for-bit the [`TokenBucket::full`] a first touch
/// would create — `delay` caps the refilled balance at `burst` and
/// overwrites `last` before it charges — so dropping it changes no
/// delay, provided no departure ever precedes the sweep instant. The
/// engine guarantees that (`send_net` clamps departures to the plane
/// clock, which never rewinds). The table therefore holds the links
/// used in the last `burst / rate` seconds, not every link ever used.
/// It is swept only when it is full, just before it would grow: a sweep
/// walks the whole allocation, so one per fill keeps it O(1) per send
/// amortised, and the table stays at the size its recent links need.
#[derive(Debug)]
pub(crate) struct LinkBuckets {
    /// Keyed `(from << 32) | to`. Accessed by key, and swept by a
    /// per-entry predicate — iteration order never reaches a result.
    table: IdMap<u64, TokenBucket>,
}

impl LinkBuckets {
    pub(crate) fn new() -> LinkBuckets {
        LinkBuckets {
            table: IdMap::default(),
        }
    }

    /// Charges one message on `from → to` departing at `depart` (at or
    /// after the plane clock `now`); returns the shaping delay.
    pub(crate) fn delay(
        &mut self,
        from: u32,
        to: u32,
        now: SimTime,
        depart: SimTime,
        rate: f64,
        burst: f64,
    ) -> SimTime {
        debug_assert!(depart >= now, "departures never precede the clock");
        if self.table.len() == self.table.capacity() {
            // The refill expression is `TokenBucket::delay`'s own, and
            // float addition and multiplication are monotone: a balance
            // that reaches `burst` by `now` reaches it by any later
            // departure. (A bucket charged for a future departure has
            // `last > now`, refills by zero here and stays.)
            self.table
                .retain(|_, b| b.available + (now - b.last).as_secs_f64() * rate < burst);
        }
        self.table
            .entry((u64::from(from) << 32) | u64::from(to))
            .or_insert_with(|| TokenBucket::full(depart, burst))
            .delay(depart, rate, burst)
    }
}

/// Bounded LRU of `(key, expires)` pairs with TTL invalidation. Sized
/// for gateway hot sets (hundreds of entries), so the O(capacity)
/// vector scan is cheaper than hashing at every lookup.
#[derive(Debug, Clone)]
pub struct HotCache {
    cap: usize,
    /// Most recently used at the back.
    entries: Vec<(u64, SimTime)>,
}

impl HotCache {
    /// An empty cache holding at most `cap` entries.
    pub fn new(cap: usize) -> HotCache {
        HotCache {
            cap: cap.max(1),
            entries: Vec::with_capacity(cap.max(1)),
        }
    }

    /// True when `key` is cached and unexpired at `now`; refreshes its
    /// LRU position. An expired entry is removed (and misses).
    pub fn lookup(&mut self, key: u64, now: SimTime) -> bool {
        if let Some(pos) = self.entries.iter().position(|&(k, _)| k == key) {
            let (_, expires) = self.entries.remove(pos);
            if expires > now {
                self.entries.push((key, expires));
                return true;
            }
        }
        false
    }

    /// Insert (or refresh) `key` with the given expiry, evicting the
    /// least recently used entry when full.
    pub fn insert(&mut self, key: u64, expires: SimTime) {
        if let Some(pos) = self.entries.iter().position(|&(k, _)| k == key) {
            self.entries.remove(pos);
        } else if self.entries.len() == self.cap {
            self.entries.remove(0);
        }
        self.entries.push((key, expires));
    }

    /// Entries currently held (including not-yet-scavenged expired
    /// ones).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn zipf_zero_is_uniform_and_s_skews() {
        let z0 = ZipfSampler::new(1000, 0.0);
        let z12 = ZipfSampler::new(1000, 1.2);
        assert!((z0.top_share() - 0.001).abs() < 1e-12);
        assert!(z12.top_share() > 0.1, "s=1.2 concentrates mass at rank 0");
        // Empirical check: rank 0 frequency tracks top_share.
        let mut rng = Rng::new(42);
        let n = 20_000;
        let hits = (0..n).filter(|_| z12.sample(&mut rng) == 0).count();
        let expect = z12.top_share();
        let got = hits as f64 / n as f64;
        assert!(
            (got - expect).abs() < 0.02,
            "rank-0 rate {got} vs analytic {expect}"
        );
    }

    #[test]
    fn service_queue_waits_and_drops() {
        let svc = SimTime::from_millis(10);
        let mut q = ServiceQueue::default();
        // Idle server: immediate service, no wait, depth 0.
        let (done, wait, depth) = q.offer(SimTime::ZERO, svc, 2).unwrap();
        assert_eq!((done, wait, depth), (svc, SimTime::ZERO, 0));
        // Second arrival at t=0 queues behind the first.
        let (done, wait, depth) = q.offer(SimTime::ZERO, svc, 2).unwrap();
        assert_eq!((done, wait, depth), (SimTime::from_millis(20), svc, 1));
        // Third sees 2 ahead — exactly at cap, still admitted.
        let (_, wait, depth) = q.offer(SimTime::ZERO, svc, 2).unwrap();
        assert_eq!((wait, depth), (SimTime::from_millis(20), 2));
        // Fourth sees 3 ahead > cap 2: dropped, state untouched.
        let before = q.busy_until;
        assert!(q.offer(SimTime::ZERO, svc, 2).is_none());
        assert_eq!(q.busy_until, before);
        // After the backlog drains the server is idle again.
        let late = SimTime::from_millis(100);
        let (done, wait, depth) = q.offer(late, svc, 2).unwrap();
        assert_eq!(
            (done, wait, depth),
            (SimTime::from_millis(110), SimTime::ZERO, 0)
        );
    }

    #[test]
    fn service_queue_busy_until_is_monotone() {
        let svc = SimTime::from_millis(3);
        let mut q = ServiceQueue::default();
        let mut prev = SimTime::ZERO;
        let mut t = SimTime::ZERO;
        for i in 0..200u64 {
            t += SimTime(i * 997 % 4000);
            if let Some((done, wait, _)) = q.offer(t, svc, 8) {
                assert!(done >= t + svc);
                assert_eq!(done, t + wait + svc);
                assert!(q.busy_until >= prev, "busy_until rewound");
            }
            prev = q.busy_until;
        }
    }

    #[test]
    fn token_bucket_enforces_rate_after_burst() {
        // 100 msgs/s, burst 2: two free departures, then 10ms spacing.
        let mut b = TokenBucket::full(SimTime::ZERO, 2.0);
        assert_eq!(b.delay(SimTime::ZERO, 100.0, 2.0), SimTime::ZERO);
        assert_eq!(b.delay(SimTime::ZERO, 100.0, 2.0), SimTime::ZERO);
        assert_eq!(b.delay(SimTime::ZERO, 100.0, 2.0), SimTime::from_millis(10));
        assert_eq!(b.delay(SimTime::ZERO, 100.0, 2.0), SimTime::from_millis(20));
        // A long idle period refills to burst, never beyond.
        let later = SimTime::from_secs(10);
        assert_eq!(b.delay(later, 100.0, 2.0), SimTime::ZERO);
        assert_eq!(b.delay(later, 100.0, 2.0), SimTime::ZERO);
        assert!(b.delay(later, 100.0, 2.0) > SimTime::ZERO);
    }

    proptest! {
        /// The forgetting table against today's semantics — a map that
        /// keeps every link ever used, as `HeapPlane` sits beside the
        /// wheel: every delay equal, bit for bit, over schedules whose
        /// clock is monotone and whose departures are at or (retries
        /// armed for a later instant) after it. 12 × 12 links against a
        /// table swept whenever it is full force sweeps throughout.
        #[test]
        fn forgetting_refilled_buckets_changes_no_delay(seed in 0u64..64) {
            let mut rng = Rng::new(seed ^ 0x70CE_B0C7);
            let (rate, burst) = [(100.0, 2.0), (2_000.0, 64.0), (37.0, 1.0)][seed as usize % 3];
            let refill = SimTime::from_secs_f64(burst / rate);
            let mut forgetting = LinkBuckets::new();
            let mut model: HashMap<u64, TokenBucket> = HashMap::new();
            let mut now = SimTime::ZERO;
            for _ in 0..4_000 {
                // Mostly bursts within a refill period, sometimes idle
                // stretches that let every bucket refill.
                now += match rng.bounded_u64(8) {
                    0 => SimTime(rng.bounded_u64(4 * refill.0 + 1)),
                    1..=3 => SimTime(rng.bounded_u64(refill.0 / 16 + 1)),
                    _ => SimTime::ZERO,
                };
                let depart = match rng.bounded_u64(6) {
                    0 => now + SimTime(rng.bounded_u64(2 * refill.0 + 1)),
                    _ => now,
                };
                let (from, to) = (rng.bounded_u64(12) as u32, rng.bounded_u64(12) as u32);
                let want = model
                    .entry((u64::from(from) << 32) | u64::from(to))
                    .or_insert_with(|| TokenBucket::full(depart, burst))
                    .delay(depart, rate, burst);
                let got = forgetting.delay(from, to, now, depart, rate, burst);
                prop_assert_eq!(got, want);
            }
            prop_assert!(model.len() > 100, "schedule exercised few links");
            prop_assert!(forgetting.table.len() < model.len(), "nothing was ever forgotten");
        }
    }

    #[test]
    fn hot_cache_lru_ttl_semantics() {
        let mut c = HotCache::new(2);
        let ttl = SimTime::from_secs(10);
        c.insert(1, ttl);
        c.insert(2, ttl);
        assert!(c.lookup(1, SimTime::ZERO), "fresh entry hits");
        // 1 is now MRU; inserting 3 evicts 2.
        c.insert(3, ttl);
        assert!(!c.lookup(2, SimTime::ZERO), "LRU victim evicted");
        assert!(c.lookup(1, SimTime::ZERO) && c.lookup(3, SimTime::ZERO));
        // TTL expiry: entry present but stale misses and is scavenged.
        assert!(!c.lookup(1, ttl), "expired at exactly ttl");
        assert_eq!(c.len(), 1, "expired entry removed on lookup");
        // Re-inserting an existing key refreshes without growing.
        c.insert(3, SimTime::from_secs(20));
        assert_eq!(c.len(), 1);
        assert!(c.lookup(3, SimTime::from_secs(15)));
    }
}
