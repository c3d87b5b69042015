//! # sw-dht
//!
//! The application layer the paper motivates: an order-preserving
//! key-value store with **range queries** over any overlay from this
//! workspace.
//!
//! §1 of the paper: “in many data-oriented P2P applications it is
//! important to preserve relationships among resource keys, such as
//! ordering or proximity, to allow semantic data processing, such as
//! complex queries or information retrieval.” This crate is that
//! application: items keep their raw (un-hashed) keys, the overlay's
//! greedy routing finds owners in `O(log2 N)` hops, successor-arc
//! ownership makes contiguous ranges contiguous across peers, and
//! successor-chain replication keeps reads available when peers fail.
//!
//! ```
//! use sw_dht::Dht;
//! use sw_core::SmallWorldBuilder;
//! use sw_keyspace::prelude::*;
//!
//! let mut rng = Rng::new(1);
//! let net = SmallWorldBuilder::new(64)
//!     .topology(Topology::Ring)
//!     .build(&mut rng)
//!     .unwrap();
//! let mut dht = Dht::new(&net, 2);
//! let cost = dht.put(0, Key::new(0.42).unwrap(), b"answer".to_vec()).unwrap();
//! assert!(cost.hops < 32);
//! let (value, _) = dht.get(7, Key::new(0.42).unwrap()).unwrap();
//! assert_eq!(value, b"answer");
//! ```

pub mod shard;
pub mod store;

pub use shard::{item_bytes, on_sweep_arc, RangeDigest, Shard, ShardMap, KEY_BYTES};
pub use store::{Dht, DhtError, OpCost, RangeResult};
