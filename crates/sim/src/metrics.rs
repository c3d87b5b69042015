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
    /// Failed lookups that stopped at a peer whose view offers nothing
    /// closer (`WalkEnd::LocalMinimum`). Every failed lookup counts in
    /// one of this, `lookups_stranded`, `lookups_exhausted` and
    /// [`SimMetrics::lookups_hop_limit`]. Kept out of
    /// [`SimMetrics::fingerprint`].
    pub lookups_local_minimum: u64,
    /// Failed lookups that ran out of hop budget (`WalkEnd::HopLimit`).
    /// Kept out of [`SimMetrics::fingerprint`].
    pub lookups_hop_limit: u64,
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
    /// The share of `repair_bytes` sent as round digests. Out of
    /// [`SimMetrics::fingerprint`], as are the hand-off bytes.
    pub repair_digest_bytes: u64,
    /// The share of `repair_bytes` sent as hand-off relays and releases.
    pub repair_handoff_bytes: u64,
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
    /// Lookups issued (traffic lookups and cache hits included). Every
    /// issue counter equals its kind's ended count plus the operations
    /// of that kind in flight. The four stay out of
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

    /// Digest over every integer lane: all counters, gauges and peaks,
    /// both histogram fingerprints, the *sample counts* of the
    /// `OnlineStats` moments, and `end_time`, but not the issue counters,
    /// the local-minimum and hop-limit lookup ends, or the repair byte
    /// split. The float moments are excluded, so two
    /// runs fingerprint equal iff every discrete observation folded here
    /// matches. The engine's goldens pin this value.
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

    /// The fingerprint tells a changed counter, histogram or end time
    /// apart, and ignores the issue counters, the two lookup ends added
    /// after the goldens, and the repair byte split.
    #[test]
    fn fingerprint_tells_a_changed_lane_apart() {
        let mut base = SimMetrics {
            lookups: 10,
            timeouts: 3,
            events: 99,
            ..Default::default()
        };
        base.lookup_latency.record(SimTime::from_millis(7));
        let changed: [fn(&mut SimMetrics); 3] = [
            |m| m.timeouts += 1,
            |m| m.lookup_latency.record(SimTime::from_millis(9)),
            |m| m.end_time = SimTime(1),
        ];
        for change in changed {
            let mut m = base.clone();
            change(&mut m);
            assert_ne!(m.fingerprint(), base.fingerprint());
        }
        let mut kept_out = base.clone();
        kept_out.lookups_issued += 1;
        kept_out.lookups_local_minimum += 1;
        kept_out.lookups_hop_limit += 1;
        kept_out.repair_digest_bytes += 1;
        kept_out.repair_handoff_bytes += 1;
        assert_eq!(kept_out.fingerprint(), base.fingerprint());
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
