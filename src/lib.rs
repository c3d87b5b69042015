//! # smallworld — facade crate
//!
//! Re-exports the whole workspace implementing *“On Small World Graphs in
//! Non-uniformly Distributed Key Spaces”* (Girdzijauskas, Datta & Aberer,
//! ICDE 2005): key spaces and distributions, the CSR graph substrate, baseline
//! DHT overlays, the paper's two small-world constructions, a discrete
//! event simulator and the load-balancing substrate.
//!
//! Most users want [`core`] (the paper's models) together with
//! [`keyspace`] (distributions + RNG):
//!
//! ```
//! use smallworld::keyspace::prelude::*;
//! use smallworld::core::prelude::*;
//!
//! let mut rng = Rng::new(7);
//! let dist = TruncatedPareto::new(1.5, 0.05).unwrap();
//! let net = SmallWorldBuilder::new(512)
//!     .distribution(Box::new(dist))
//!     .build(&mut rng)
//!     .unwrap();
//! let stats = net.routing_survey(200, &mut rng);
//! assert!(stats.success_rate() > 0.999);
//! ```

pub use sw_balance as balance;
pub use sw_core as core;
pub use sw_dht as dht;
pub use sw_graph as graph;
pub use sw_keyspace as keyspace;
pub use sw_overlay as overlay;
pub use sw_sim as sim;
