//! Distance metrics on the key space.
//!
//! The paper proves its theorems for the *interval* topology on `[0, 1)`
//! (`d(u, v) = |v.id − u.id|`, §3) and notes that “analogous results can be
//! given for other topologies, in particular the ring topology”. Both are
//! provided here; the baseline DHTs (Chord, Pastry, Symphony, Mercury) live
//! on the ring.

use crate::key::Key;

/// The shape of the key space: a line segment or a circle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topology {
    /// `[0, 1)` as a line segment; `d(u, v) = |v − u|`. The topology used
    /// in the paper's proofs.
    Interval,
    /// `[0, 1)` with wrap-around; `d(u, v) = min(|v − u|, 1 − |v − u|)`.
    Ring,
}

impl Topology {
    /// Symmetric distance between two keys.
    #[inline]
    pub fn distance(self, a: Key, b: Key) -> f64 {
        let d = (b.get() - a.get()).abs();
        match self {
            Topology::Interval => d,
            Topology::Ring => d.min(1.0 - d),
        }
    }

    /// Clockwise (increasing-key) distance from `from` to `to`.
    ///
    /// On the ring this is the arc length travelled in the positive
    /// direction (always in `[0, 1)`). On the interval it is `to − from`
    /// when `to ≥ from` and `+∞` otherwise (there is no forward path).
    #[inline]
    pub fn clockwise(self, from: Key, to: Key) -> f64 {
        match self {
            Topology::Interval => {
                let d = to.get() - from.get();
                if d >= 0.0 {
                    d
                } else {
                    f64::INFINITY
                }
            }
            Topology::Ring => (to.get() - from.get()).rem_euclid(1.0),
        }
    }

    /// True if `x` lies on the clockwise arc `(from, to]`.
    ///
    /// Used for successor-style ownership tests (a peer owns the keys on
    /// the arc between its predecessor and itself).
    pub fn in_arc(self, from: Key, x: Key, to: Key) -> bool {
        match self {
            Topology::Interval => from < x && x <= to,
            Topology::Ring => {
                if from == to {
                    // Degenerate single-node arc: owns everything.
                    true
                } else {
                    let ax = self.clockwise(from, x);
                    let at = self.clockwise(from, to);
                    ax > 0.0 && ax <= at
                }
            }
        }
    }

    /// Short lowercase label for tables and CSV output.
    pub fn label(self) -> &'static str {
        match self {
            Topology::Interval => "interval",
            Topology::Ring => "ring",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(v: f64) -> Key {
        Key::new(v).unwrap()
    }

    #[test]
    fn interval_distance_is_absolute_difference() {
        assert_eq!(Topology::Interval.distance(k(0.1), k(0.9)), 0.8);
        assert_eq!(Topology::Interval.distance(k(0.9), k(0.1)), 0.8);
        assert_eq!(Topology::Interval.distance(k(0.4), k(0.4)), 0.0);
    }

    #[test]
    fn ring_distance_wraps() {
        assert!((Topology::Ring.distance(k(0.1), k(0.9)) - 0.2).abs() < 1e-12);
        assert!((Topology::Ring.distance(k(0.9), k(0.1)) - 0.2).abs() < 1e-12);
        assert!((Topology::Ring.distance(k(0.25), k(0.75)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ring_distance_never_exceeds_half() {
        for i in 0..100 {
            for j in 0..100 {
                let d = Topology::Ring.distance(k(i as f64 / 100.0), k(j as f64 / 100.0));
                assert!(d <= 0.5 + 1e-12);
            }
        }
    }

    #[test]
    fn clockwise_ring() {
        assert!((Topology::Ring.clockwise(k(0.9), k(0.1)) - 0.2).abs() < 1e-12);
        assert!((Topology::Ring.clockwise(k(0.1), k(0.9)) - 0.8).abs() < 1e-12);
        assert_eq!(Topology::Ring.clockwise(k(0.3), k(0.3)), 0.0);
    }

    #[test]
    fn clockwise_interval_is_forward_only() {
        assert_eq!(Topology::Interval.clockwise(k(0.2), k(0.5)), 0.3);
        assert_eq!(Topology::Interval.clockwise(k(0.5), k(0.2)), f64::INFINITY);
    }

    #[test]
    fn arc_membership_ring() {
        // Arc (0.8, 0.2] crossing zero.
        assert!(Topology::Ring.in_arc(k(0.8), k(0.9), k(0.2)));
        assert!(Topology::Ring.in_arc(k(0.8), k(0.1), k(0.2)));
        assert!(Topology::Ring.in_arc(k(0.8), k(0.2), k(0.2)));
        assert!(!Topology::Ring.in_arc(k(0.8), k(0.8), k(0.2))); // open at `from`
        assert!(!Topology::Ring.in_arc(k(0.8), k(0.5), k(0.2)));
    }

    #[test]
    fn arc_membership_interval() {
        assert!(Topology::Interval.in_arc(k(0.1), k(0.2), k(0.3)));
        assert!(!Topology::Interval.in_arc(k(0.1), k(0.1), k(0.3)));
        assert!(Topology::Interval.in_arc(k(0.1), k(0.3), k(0.3)));
        assert!(!Topology::Interval.in_arc(k(0.1), k(0.4), k(0.3)));
    }
}
