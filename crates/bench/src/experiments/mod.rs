//! One module per experiment family; the registry in the crate root maps
//! experiment ids (`e1`..`e11`, `e14`..`e16`, `e18`, `e19`, `e22`, `e23`)
//! onto these functions. Each experiment prints its table(s) with an
//! "expected shape" line and writes CSVs into the context's output
//! directory (through the shared `ctx` path helpers).

pub mod balance;
pub mod dynamics;
pub mod equivalence;
pub mod repair;
pub mod routing_modes;
pub mod sim_scale;
pub mod skew;
pub mod theory;
pub mod traffic;
