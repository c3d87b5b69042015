//! dht: the `ShardMap` operations behind puts, gets, repair digests and
//! repair pushes — `events_per_s` on `churn_storage`, nothing elsewhere.

use super::ns_per_op;
use crate::stats::median;
use crate::workloads::{put, Metrics};
use std::hint::black_box;
use std::time::Instant;
use sw_dht::ShardMap;
use sw_keyspace::{Key, Rng};

const OWNERS: usize = 10_000;
const ITEMS: usize = 100_000;
/// Items per repair push.
const PUSH: usize = 32;
const VALUE_BYTES: usize = 64;

pub fn measure(rng: &mut Rng, layer: &mut Metrics) {
    let keys: Vec<Key> = (0..ITEMS).map(|_| Key::clamped(rng.f64())).collect();
    let owner = |i: usize| (i % OWNERS) as u32;

    // Three rounds into three fresh maps: every round inserts new keys.
    let mut maps: Vec<ShardMap> = (0..3).map(|_| ShardMap::new(OWNERS)).collect();
    let mut round = 0usize;
    let insert = ns_per_op(ITEMS, |i| {
        if i == 0 {
            round += 1;
        }
        black_box(maps[round - 1].insert(owner(i), keys[i], vec![0u8; VALUE_BYTES]));
    });
    let map = maps.pop().expect("three maps");
    let get = ns_per_op(ITEMS, |i| {
        black_box(map.get(owner(i), keys[i]));
    });
    // Whole-ring arcs: every owner digests all ~10 keys it holds.
    let digest_per_owner = ns_per_op(OWNERS, |i| {
        black_box(map.arc_digest(i as u32, Key::clamped(0.5), Key::clamped(0.5)));
    });
    let mut absorb_rounds = [0.0f64; 3];
    for round in &mut absorb_rounds {
        let mut sink = ShardMap::new(OWNERS);
        let pushes: Vec<Vec<(Key, Vec<u8>)>> = keys
            .chunks(PUSH)
            .map(|c| c.iter().map(|&k| (k, vec![0u8; VALUE_BYTES])).collect())
            .collect();
        let t0 = Instant::now();
        for (i, push) in pushes.into_iter().enumerate() {
            black_box(sink.absorb(owner(i), push));
        }
        *round = t0.elapsed().as_secs_f64() * 1e9 / ITEMS as f64;
    }
    put(layer, "dht.shard.insert_ns", insert);
    put(layer, "dht.shard.get_ns", get);
    put(
        layer,
        "dht.shard.arc_digest_ns_per_key",
        digest_per_owner * OWNERS as f64 / ITEMS as f64,
    );
    put(
        layer,
        "dht.shard.absorb_ns_per_item",
        median(&absorb_rounds),
    );
}
