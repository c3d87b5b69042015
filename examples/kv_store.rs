//! Key-value + range-query store over the paper's overlay: `sw-dht` in
//! action, including replica fallback under peer failures.
//!
//! ```text
//! cargo run --release --example kv_store
//! ```

use smallworld::core::prelude::*;
use smallworld::dht::Dht;
use smallworld::keyspace::prelude::*;
use smallworld::overlay::Overlay;

fn main() {
    let n = 1024;
    let mut rng = Rng::new(99);
    let dist = TruncatedPareto::new(1.5, 0.01).expect("valid params");
    let net = SmallWorldBuilder::new(n)
        .topology(Topology::Ring)
        .distribution(Box::new(dist))
        .build(&mut rng)
        .expect("n >= 4");
    println!("overlay: {} with {n} peers\n", net.name());

    // Store 10k items with raw (order-preserving) keys, 3 copies each.
    let mut dht = Dht::new(&net, 3);
    let source = TruncatedPareto::new(1.5, 0.01).expect("valid params");
    let mut put_cost = 0u64;
    for i in 0..10_000u32 {
        let k = source.sample_key(&mut rng);
        let cost = dht
            .put(rng.index(n) as u32, k, format!("item-{i}").into_bytes())
            .expect("puts succeed on a healthy overlay");
        put_cost += cost.total() as u64;
    }
    println!(
        "stored {} items at {:.1} messages/put (route + 2 replica hops)",
        dht.len(),
        put_cost as f64 / 10_000.0
    );

    // Point lookups.
    let probe = source.sample_key(&mut rng);
    dht.put(0, probe, b"needle".to_vec()).expect("put");
    let (v, cost) = dht.get(rng.index(n) as u32, probe).expect("get");
    println!(
        "get({probe}) -> {:?} in {} messages",
        String::from_utf8_lossy(&v),
        cost.total()
    );

    // A range query over the dense region.
    let r = dht
        .range(0, Key::clamped(0.01), Key::clamped(0.02))
        .expect("range");
    println!(
        "range [0.01, 0.02): {} items from {} peers in {} messages",
        r.items.len(),
        r.peers_visited,
        r.cost.total()
    );

    // Kill the owner of the probe key: the replica chain answers a get
    // issued from any live peer (here the one half the ring away).
    let owner = dht.owner_of(probe);
    dht.kill(owner);
    let from = (owner + n as u32 / 2) % n as u32;
    let (v, cost) = dht.get(from, probe).expect("replica fallback");
    println!(
        "after killing owner {owner}: get({probe}) -> {:?} via replica, {} messages",
        String::from_utf8_lossy(&v),
        cost.total()
    );
    println!("\norder-preserving keys + successor replication: range queries and");
    println!("fault tolerance on top of Theorem 2's logarithmic routing.");
}
