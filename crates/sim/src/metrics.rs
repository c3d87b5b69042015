//! Metrics collected by the simulator.

use crate::time::SimTime;
use sw_keyspace::stats::OnlineStats;

/// Log-bucketed latency histogram (HDR-style): microsecond values are
/// binned exactly below 16 µs and into 16 sub-buckets per power of two
/// above that, bounding the relative quantile error at ~6% with O(1)
/// memory (at most 976 `u64` counters) and zero randomness — a
/// reservoir sampler would break the determinism contract, and keeping
/// every sample would not survive a 10⁸-event saturation run.
///
/// Quantiles report the **upper edge** of the selected bucket, so the
/// estimate never understates the tail.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
}

/// Sub-buckets per power of two (and the exact-bin cutoff).
const HIST_SUB: u64 = 16;

impl Histogram {
    fn bucket_index(us: u64) -> usize {
        if us < HIST_SUB {
            us as usize
        } else {
            let msb = 63 - us.leading_zeros() as u64; // >= 4
            let sub = (us >> (msb - 4)) - HIST_SUB; // 0..16
            (HIST_SUB * (msb - 3) + sub) as usize
        }
    }

    /// Upper edge (inclusive) of a bucket, in microseconds.
    fn bucket_upper(idx: usize) -> u64 {
        let idx = idx as u64;
        if idx < HIST_SUB {
            idx
        } else {
            let msb = idx / HIST_SUB + 3;
            let sub = idx % HIST_SUB;
            ((sub + HIST_SUB + 1) << (msb - 4)) - 1
        }
    }

    /// Record one duration.
    pub fn record(&mut self, t: SimTime) {
        let idx = Self::bucket_index(t.as_micros());
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Quantile estimate in **seconds** (upper bucket edge); `0` when
    /// empty. `q` is clamped to `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_upper(idx) as f64 / 1e6;
            }
        }
        Self::bucket_upper(self.buckets.len().saturating_sub(1)) as f64 / 1e6
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
    }

    /// Digest of the full bucket vector (for bit-identity tests).
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            if c != 0 {
                h = (h ^ (idx as u64)).wrapping_mul(0x100_0000_01b3);
                h = (h ^ c).wrapping_mul(0x100_0000_01b3);
            }
        }
        h ^ self.count
    }
}

/// Everything the simulator measures.
#[derive(Debug, Clone, Default)]
pub struct SimMetrics {
    /// Lookups ended, ok or not: counted when a lookup's walk ends or a
    /// cache hit answers it (traffic lookups included).
    pub lookups: u64,
    /// Lookups that reached the key's live owner.
    pub lookups_ok: u64,
    /// Hop counts of successful lookups.
    pub hops: OnlineStats,
    /// End-to-end latency (seconds) of successful lookups, including
    /// timeout penalties.
    pub latency_secs: OnlineStats,
    /// Lookups stranded by a mid-flight failure of the node holding the
    /// query — the carrier in recursive mode, the requester itself in
    /// iterative mode (a failure mode only the per-hop message plane can
    /// express).
    pub lookups_stranded: u64,
    /// Lookups that failed over to an alternate next-hop candidate after
    /// a frontier timeout, without re-asking (iterative ladder).
    pub lookups_failed_over: u64,
    /// Lookups whose failover ladder ran dry (`WalkEnd::Exhausted`).
    pub lookups_exhausted: u64,
    /// Per-hop round-trip times (seconds) observed by iterative
    /// requesters: query leg + reply leg per confirmed hop. Empty in
    /// pure recursive runs (a hand-off observes no RTT).
    pub hop_rtt: OnlineStats,
    /// Peak number of lookups simultaneously in flight.
    pub inflight_peak: u64,
    /// Timeouts encountered while routing (stale entries hit).
    pub timeouts: u64,
    /// Protocol messages spent on joins.
    pub join_messages: u64,
    /// Protocol messages spent on stabilization.
    pub stabilize_messages: u64,
    /// Protocol messages spent on long-link refresh.
    pub refresh_messages: u64,
    /// Nodes that joined during the run.
    pub joins: u64,
    /// Joins abandoned because the join-point query was stranded.
    pub joins_aborted: u64,
    /// Nodes that failed during the run.
    pub failures: u64,
    /// Envelopes delivered by the message plane.
    pub events: u64,
    /// Storage puts completed (routing + replica fan-out resolved).
    pub puts: u64,
    /// Puts that stored at least one durable copy.
    pub puts_ok: u64,
    /// Per-put end-to-end latency (seconds), successful puts only.
    pub put_latency_secs: OnlineStats,
    /// Storage gets completed.
    pub gets: u64,
    /// Gets that found a copy (primary or replica).
    pub gets_ok: u64,
    /// Replica fallback probes sent by gets whose routed owner missed.
    pub gets_fallback: u64,
    /// Gets served by a replica-fallback probe that scheduled a targeted
    /// read-repair push of the key back to the routed owner.
    pub gets_read_repaired: u64,
    /// Per-get end-to-end latency (seconds), successful gets only.
    pub get_latency_secs: OnlineStats,
    /// Range queries completed.
    pub ranges: u64,
    /// Range queries whose sweep covered the whole range.
    pub ranges_ok: u64,
    /// Items served by range queries.
    pub range_items: u64,
    /// Peers visited by range sweeps.
    pub range_peers: u64,
    /// Messages spent by the storage workload (routing messages — hop
    /// hand-offs, or query+reply pairs in iterative mode — plus
    /// replica writes, fallback probes and range fragments).
    pub storage_messages: u64,
    /// Messages spent by the repair plane: digests, diffs, pushes,
    /// recovery pulls, and hand-off relays and releases.
    pub repair_messages: u64,
    /// Payload bytes shipped by the repair protocol (keys + items).
    pub repair_bytes: u64,
    /// Gauge: keys knocked below the replication target by a failure and
    /// not yet repaired back to full replication. Fresh puts still
    /// mid-fan-out are *not* counted — the gauge tracks repair debt, not
    /// write pipelines.
    pub keys_under_replicated: u64,
    /// Keys whose last live copy died (permanent loss — there is no
    /// oracle resurrection path).
    pub keys_lost: u64,
    /// Time (virtual seconds) from a key dropping below the replication
    /// target to its repair back to full replication.
    pub repair_time_secs: OnlineStats,
    /// Gauge: payload bytes currently stored across all live peers'
    /// shards, every copy counted (the denominator of
    /// [`SimMetrics::repair_overhead`]). Under churn that includes the
    /// copies a holder keeps after it left an arc's replica chain, until
    /// its hand-off is released (a few hop delays, or a later round
    /// after a failed hop or a stale view).
    pub stored_bytes: u64,
    /// Lookups answered from a requester-side hot-key cache (no walk
    /// spawned, zero latency, zero network messages).
    pub cache_hits: u64,
    /// Messages dropped because the receiving node's service queue was
    /// at its depth cap (open-loop overload).
    pub msgs_dropped_overload: u64,
    /// Deepest service queue observed across all nodes (messages ahead
    /// of an admitted arrival, including the one in service).
    pub queue_depth_peak: u64,
    /// Queue-wait distribution: time each admitted message spent waiting
    /// for service (excludes its own service time).
    pub queue_wait: Histogram,
    /// End-to-end latency distribution of successful lookups, including
    /// cache hits at zero — the E23 saturation curve reads its
    /// p50/p99/p999 from here.
    pub lookup_latency: Histogram,
    /// Virtual time at the end of the run.
    pub end_time: SimTime,
    /// Lookups issued (traffic lookups and cache hits included). In
    /// [`Simulator`](crate::Simulator) every issue counter equals its
    /// kind's ended count plus the operations of that kind in flight;
    /// the peer-local engine leaves them at zero. The four stay out of
    /// [`SimMetrics::fingerprint`].
    pub lookups_issued: u64,
    /// Puts issued.
    pub puts_issued: u64,
    /// Gets issued.
    pub gets_issued: u64,
    /// Range queries issued.
    pub ranges_issued: u64,
}

impl SimMetrics {
    /// Fraction of lookups that succeeded.
    pub fn success_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.lookups_ok as f64 / self.lookups as f64
        }
    }

    /// Fraction of lookups that did *not* reach the target's live owner
    /// — stranded, exhausted, local-minimum and hop-budget ends
    /// together. The robustness number the routing-mode comparison
    /// (E19) ranks modes by.
    pub fn stranded_or_failed_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            (self.lookups - self.lookups_ok) as f64 / self.lookups as f64
        }
    }

    /// Total maintenance messages (stabilize + refresh).
    pub fn maintenance_messages(&self) -> u64 {
        self.stabilize_messages + self.refresh_messages
    }

    /// Fraction of puts that stored at least one copy.
    pub fn put_success_rate(&self) -> f64 {
        if self.puts == 0 {
            0.0
        } else {
            self.puts_ok as f64 / self.puts as f64
        }
    }

    /// Fraction of gets that found a copy.
    pub fn get_success_rate(&self) -> f64 {
        if self.gets == 0 {
            0.0
        } else {
            self.gets_ok as f64 / self.gets as f64
        }
    }

    /// Fraction of range queries whose sweep covered the whole range.
    pub fn range_success_rate(&self) -> f64 {
        if self.ranges == 0 {
            0.0
        } else {
            self.ranges_ok as f64 / self.ranges as f64
        }
    }

    /// Repair bytes paid per stored byte — the bandwidth price of the
    /// durability the run achieved. `0` when nothing is stored.
    pub fn repair_overhead(&self) -> f64 {
        if self.stored_bytes == 0 {
            0.0
        } else {
            self.repair_bytes as f64 / self.stored_bytes as f64
        }
    }

    /// Folds another shard's metrics into this one. Counters and gauges
    /// add, peaks take the max, histograms merge bucket-wise,
    /// `end_time` takes the later instant and the `OnlineStats`
    /// moments combine via their pairwise update.
    ///
    /// Counter, gauge, peak and histogram state is **order-independent
    /// and associative bit-for-bit** — folding any permutation of
    /// shards in any tree shape yields identical integers (the
    /// property [`SimMetrics::fingerprint`] is defined over, tested
    /// below). The `OnlineStats` means/variances are mathematically
    /// order-independent but accumulate floating-point error
    /// differently per fold order, which is why they stay out of the
    /// fingerprint.
    pub fn merge(&mut self, other: &SimMetrics) {
        self.lookups += other.lookups;
        self.lookups_ok += other.lookups_ok;
        self.hops.merge(&other.hops);
        self.latency_secs.merge(&other.latency_secs);
        self.lookups_stranded += other.lookups_stranded;
        self.lookups_failed_over += other.lookups_failed_over;
        self.lookups_exhausted += other.lookups_exhausted;
        self.hop_rtt.merge(&other.hop_rtt);
        self.inflight_peak = self.inflight_peak.max(other.inflight_peak);
        self.timeouts += other.timeouts;
        self.join_messages += other.join_messages;
        self.stabilize_messages += other.stabilize_messages;
        self.refresh_messages += other.refresh_messages;
        self.joins += other.joins;
        self.joins_aborted += other.joins_aborted;
        self.failures += other.failures;
        self.events += other.events;
        self.puts += other.puts;
        self.puts_ok += other.puts_ok;
        self.put_latency_secs.merge(&other.put_latency_secs);
        self.gets += other.gets;
        self.gets_ok += other.gets_ok;
        self.gets_fallback += other.gets_fallback;
        self.gets_read_repaired += other.gets_read_repaired;
        self.get_latency_secs.merge(&other.get_latency_secs);
        self.ranges += other.ranges;
        self.ranges_ok += other.ranges_ok;
        self.range_items += other.range_items;
        self.range_peers += other.range_peers;
        self.storage_messages += other.storage_messages;
        self.repair_messages += other.repair_messages;
        self.repair_bytes += other.repair_bytes;
        self.keys_under_replicated += other.keys_under_replicated;
        self.keys_lost += other.keys_lost;
        self.repair_time_secs.merge(&other.repair_time_secs);
        self.stored_bytes += other.stored_bytes;
        self.cache_hits += other.cache_hits;
        self.msgs_dropped_overload += other.msgs_dropped_overload;
        self.queue_depth_peak = self.queue_depth_peak.max(other.queue_depth_peak);
        self.queue_wait.merge(&other.queue_wait);
        self.lookup_latency.merge(&other.lookup_latency);
        self.end_time = self.end_time.max(other.end_time);
        self.lookups_issued += other.lookups_issued;
        self.puts_issued += other.puts_issued;
        self.gets_issued += other.gets_issued;
        self.ranges_issued += other.ranges_issued;
    }

    /// Order-independent digest over every integer lane: all counters,
    /// gauges and peaks, both histogram fingerprints, the *sample
    /// counts* of the `OnlineStats` moments, and `end_time`. The
    /// float moments themselves are excluded — their bit patterns
    /// depend on fold order (see [`SimMetrics::merge`]) — so two
    /// metric sets fingerprint equal iff every discrete observation
    /// matches, which is the identity the serial-vs-sharded parity
    /// tests assert.
    pub fn fingerprint(&self) -> u64 {
        const PRIME: u64 = 0x100_0000_01b3;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| h = (h ^ v).wrapping_mul(PRIME);
        for v in [
            self.lookups,
            self.lookups_ok,
            self.hops.count(),
            self.latency_secs.count(),
            self.lookups_stranded,
            self.lookups_failed_over,
            self.lookups_exhausted,
            self.hop_rtt.count(),
            self.inflight_peak,
            self.timeouts,
            self.join_messages,
            self.stabilize_messages,
            self.refresh_messages,
            self.joins,
            self.joins_aborted,
            self.failures,
            self.events,
            self.puts,
            self.puts_ok,
            self.put_latency_secs.count(),
            self.gets,
            self.gets_ok,
            self.gets_fallback,
            self.gets_read_repaired,
            self.get_latency_secs.count(),
            self.ranges,
            self.ranges_ok,
            self.range_items,
            self.range_peers,
            self.storage_messages,
            self.repair_messages,
            self.repair_bytes,
            self.keys_under_replicated,
            self.keys_lost,
            self.repair_time_secs.count(),
            self.stored_bytes,
            self.cache_hits,
            self.msgs_dropped_overload,
            self.queue_depth_peak,
            self.queue_wait.fingerprint(),
            self.lookup_latency.fingerprint(),
            self.end_time.as_micros(),
        ] {
            mix(v);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn success_rate_handles_zero() {
        let m = SimMetrics::default();
        assert_eq!(m.success_rate(), 0.0);
    }

    #[test]
    fn success_rate_computes() {
        let m = SimMetrics {
            lookups: 10,
            lookups_ok: 7,
            ..Default::default()
        };
        assert!((m.success_rate() - 0.7).abs() < 1e-12);
        assert_eq!(m.maintenance_messages(), 0);
    }

    #[test]
    fn range_success_rate_mirrors_put_get_accessors() {
        let m = SimMetrics::default();
        assert_eq!(m.range_success_rate(), 0.0, "no ranges yet");
        let m = SimMetrics {
            ranges: 8,
            ranges_ok: 6,
            ..Default::default()
        };
        assert!((m.range_success_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_are_contiguous_and_monotone() {
        // Every microsecond value maps into a bucket whose upper edge
        // is >= the value, and bucket indices never decrease with v.
        let mut prev_idx = 0usize;
        for v in 0..100_000u64 {
            let idx = Histogram::bucket_index(v);
            assert!(idx >= prev_idx, "index regressed at {v}");
            assert!(Histogram::bucket_upper(idx) >= v, "upper edge below {v}");
            prev_idx = idx;
        }
        // Relative error of the upper edge stays under ~6.25% (1/16).
        for shift in 5..40u64 {
            let v = (1u64 << shift) + 3;
            let up = Histogram::bucket_upper(Histogram::bucket_index(v));
            assert!((up - v) as f64 / (v as f64) < 0.0651, "error at {v}: {up}");
        }
    }

    #[test]
    fn histogram_quantiles_track_known_distribution() {
        let mut h = Histogram::default();
        for ms in 1..=1000u64 {
            h.record(SimTime::from_millis(ms));
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((0.5..=0.54).contains(&p50), "p50 {p50}");
        assert!((0.99..=1.07).contains(&p99), "p99 {p99}");
        assert_eq!(Histogram::default().quantile(0.5), 0.0);
    }

    #[test]
    fn histogram_merge_and_fingerprint() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut whole = Histogram::default();
        for i in 0..500u64 {
            let t = SimTime(i * 37 % 10_000);
            if i % 2 == 0 {
                a.record(t);
            } else {
                b.record(t);
            }
            whole.record(t);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.fingerprint(), whole.fingerprint());
        assert_eq!(a.quantile(0.9), whole.quantile(0.9));
    }

    /// A pseudo-random but deterministic per-shard metrics value with
    /// every lane populated.
    fn shard_metrics(salt: u64) -> SimMetrics {
        let mut x = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut m = SimMetrics {
            lookups: next() % 1000,
            lookups_ok: next() % 1000,
            lookups_stranded: next() % 50,
            lookups_failed_over: next() % 50,
            lookups_exhausted: next() % 50,
            inflight_peak: next() % 5000,
            timeouts: next() % 200,
            join_messages: next() % 900,
            stabilize_messages: next() % 900,
            refresh_messages: next() % 900,
            joins: next() % 80,
            joins_aborted: next() % 10,
            failures: next() % 80,
            events: next() % 100_000,
            puts: next() % 300,
            puts_ok: next() % 300,
            gets: next() % 300,
            gets_ok: next() % 300,
            gets_fallback: next() % 40,
            gets_read_repaired: next() % 40,
            ranges: next() % 30,
            ranges_ok: next() % 30,
            range_items: next() % 5000,
            range_peers: next() % 500,
            storage_messages: next() % 4000,
            repair_messages: next() % 4000,
            repair_bytes: next() % 1_000_000,
            keys_under_replicated: next() % 100,
            keys_lost: next() % 20,
            stored_bytes: next() % 1_000_000,
            cache_hits: next() % 700,
            msgs_dropped_overload: next() % 90,
            queue_depth_peak: next() % 64,
            end_time: SimTime(next() % 1_000_000),
            ..Default::default()
        };
        for _ in 0..(next() % 40 + 1) {
            m.hops.push((next() % 30) as f64);
            m.latency_secs.push((next() % 1000) as f64 / 500.0);
            m.hop_rtt.push((next() % 100) as f64 / 50.0);
            m.put_latency_secs.push((next() % 100) as f64 / 40.0);
            m.get_latency_secs.push((next() % 100) as f64 / 40.0);
            m.repair_time_secs.push((next() % 100) as f64);
            m.queue_wait.record(SimTime(next() % 100_000));
            m.lookup_latency.record(SimTime(next() % 1_000_000));
        }
        m
    }

    /// The discrete lanes [`SimMetrics::fingerprint`] promises bit
    /// identity over, extracted for an exact (not just hashed)
    /// comparison.
    fn discrete_lanes(m: &SimMetrics) -> Vec<u64> {
        vec![
            m.lookups,
            m.lookups_ok,
            m.hops.count(),
            m.latency_secs.count(),
            m.timeouts,
            m.events,
            m.puts_ok,
            m.gets_ok,
            m.repair_bytes,
            m.stored_bytes,
            m.inflight_peak,
            m.queue_depth_peak,
            m.queue_wait.fingerprint(),
            m.lookup_latency.fingerprint(),
            m.end_time.as_micros(),
        ]
    }

    // Satellite contract: folding per-shard metrics in any permutation
    // and any association yields bit-identical histogram fingerprints
    // and counters.
    #[test]
    fn merge_is_order_independent_and_associative() {
        let shards: Vec<SimMetrics> = (0..8).map(|i| shard_metrics(i * 1237 + 11)).collect();

        let fold = |order: &[usize]| -> SimMetrics {
            let mut acc = SimMetrics::default();
            for &i in order {
                acc.merge(&shards[i]);
            }
            acc
        };
        let base = fold(&[0, 1, 2, 3, 4, 5, 6, 7]);

        // A spread of permutations, including reverse and interleaves.
        for order in [
            [7, 6, 5, 4, 3, 2, 1, 0],
            [0, 2, 4, 6, 1, 3, 5, 7],
            [3, 0, 7, 1, 6, 2, 5, 4],
            [4, 7, 2, 5, 0, 3, 6, 1],
        ] {
            let m = fold(&order);
            assert_eq!(m.fingerprint(), base.fingerprint(), "order {order:?}");
            assert_eq!(discrete_lanes(&m), discrete_lanes(&base));
        }

        // Associativity: ((a·b)·(c·d))·((e·f)·(g·h)) vs the left fold.
        let pair = |a: usize, b: usize| {
            let mut m = shards[a].clone();
            m.merge(&shards[b]);
            m
        };
        let (ab, cd, ef, gh) = (pair(0, 1), pair(2, 3), pair(4, 5), pair(6, 7));
        let mut left = ab.clone();
        left.merge(&cd);
        let mut right = ef.clone();
        right.merge(&gh);
        let mut tree = left;
        tree.merge(&right);
        assert_eq!(tree.fingerprint(), base.fingerprint());
        assert_eq!(discrete_lanes(&tree), discrete_lanes(&base));

        // Identity: merging a default is a no-op on the fingerprint.
        let mut with_id = base.clone();
        with_id.merge(&SimMetrics::default());
        assert_eq!(with_id.fingerprint(), base.fingerprint());

        // And the fingerprint does discriminate.
        let mut tweaked = base.clone();
        tweaked.timeouts += 1;
        assert_ne!(tweaked.fingerprint(), base.fingerprint());
    }

    #[test]
    fn repair_overhead_is_bytes_per_stored_byte() {
        let m = SimMetrics::default();
        assert_eq!(m.repair_overhead(), 0.0, "empty store divides to zero");
        let m = SimMetrics {
            repair_bytes: 300,
            stored_bytes: 1200,
            ..Default::default()
        };
        assert!((m.repair_overhead() - 0.25).abs() < 1e-12);
    }
}
