//! Per-hop network latency.

use crate::time::SimTime;

/// How long one overlay hop takes.
#[derive(Debug, Clone, Copy)]
pub enum LatencyModel {
    /// Every hop takes exactly this long.
    Constant(SimTime),
}

impl LatencyModel {
    /// The delay of one hop.
    pub fn delay(self) -> SimTime {
        match self {
            LatencyModel::Constant(t) => t,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        let m = LatencyModel::Constant(SimTime::from_millis(20));
        assert_eq!(m.delay(), SimTime::from_millis(20));
    }
}
