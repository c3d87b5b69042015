//! Peer/resource identifiers in the unit key space `R = [0, 1)`.
//!
//! The paper (§2.1/§3) embeds every peer into `[0, 1)` and keeps the whole
//! analysis in that continuous space, so the identifier type is a validated
//! `f64` newtype rather than a fixed-width integer: distributions, CDFs and
//! mass integrals all operate on the same representation without rounding
//! through a discrete domain.

use std::fmt;

/// Largest `f64` strictly below `1.0` (`1.0 - 2^-53`).
const MAX_KEY_BITS: u64 = 0x3FEF_FFFF_FFFF_FFFF;

/// An identifier in the key space `R = [0, 1)`.
///
/// Invariants (enforced by every constructor):
/// * finite,
/// * `0.0 <= value < 1.0`,
/// * negative zero is normalized to `0.0`.
///
/// Because the invariant rules out NaN, `Key` implements [`Eq`] and
/// [`Ord`] (via IEEE total ordering, which agrees with the usual `<` on
/// this domain).
#[derive(Clone, Copy, PartialEq)]
pub struct Key(f64);

impl Key {
    /// The smallest key, `0.0`.
    pub const MIN: Key = Key(0.0);

    /// The largest representable key, `1.0 - 2^-53`.
    pub const MAX: Key = Key(f64::from_bits(MAX_KEY_BITS));

    /// Creates a key, validating the `[0, 1)` invariant.
    ///
    /// # Errors
    ///
    /// Returns [`KeyError::NotFinite`] for NaN/±∞ and
    /// [`KeyError::OutOfRange`] for values outside `[0, 1)`.
    pub fn new(value: f64) -> Result<Self, KeyError> {
        if !value.is_finite() {
            return Err(KeyError::NotFinite);
        }
        if !(0.0..1.0).contains(&value) {
            return Err(KeyError::OutOfRange(value));
        }
        // Normalize -0.0 so that bit-level comparisons (total_cmp) agree
        // with numeric equality.
        Ok(Key(value + 0.0))
    }

    /// Creates a key by clamping an arbitrary finite value into `[0, 1)`.
    ///
    /// Values `>= 1.0` map to [`Key::MAX`], values `< 0.0` map to
    /// [`Key::MIN`]. This is the right constructor for the output of
    /// numerical routines (quantile functions, midpoints) whose result is
    /// mathematically in range but may round to exactly `1.0`.
    ///
    /// # Panics
    ///
    /// Panics on NaN/±∞ — a non-finite value here always indicates an
    /// upstream numerical bug rather than data-dependent input.
    pub fn clamped(value: f64) -> Self {
        assert!(value.is_finite(), "Key::clamped on non-finite {value}");
        if value < 0.0 {
            Key::MIN
        } else if value >= 1.0 {
            Key::MAX
        } else {
            Key(value + 0.0)
        }
    }

    /// Returns the raw `f64` in `[0, 1)`.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }

    /// Midpoint of two keys in the interval topology.
    pub fn midpoint(a: Key, b: Key) -> Key {
        Key::clamped(0.5 * (a.0 + b.0))
    }
}

impl Eq for Key {}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Finite, same-sign domain: total_cmp agrees with numeric order.
        self.0.total_cmp(&other.0)
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl std::hash::Hash for Key {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // -0.0 is normalized at construction, so bit equality == numeric
        // equality on this domain.
        self.0.to_bits().hash(state);
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Key({:.12})", self.0)
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.0)
    }
}

impl From<Key> for f64 {
    fn from(k: Key) -> f64 {
        k.get()
    }
}

/// Errors from [`Key::new`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyError {
    /// NaN or infinite input.
    NotFinite,
    /// Finite but outside `[0, 1)`.
    OutOfRange(f64),
}

impl fmt::Display for KeyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyError::NotFinite => write!(f, "key must be finite"),
            KeyError::OutOfRange(v) => write!(f, "key {v} outside [0, 1)"),
        }
    }
}

impl std::error::Error for KeyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_accepts_unit_interval() {
        assert_eq!(Key::new(0.0).unwrap().get(), 0.0);
        assert_eq!(Key::new(0.5).unwrap().get(), 0.5);
        assert!(Key::new(0.999_999).is_ok());
    }

    #[test]
    fn new_rejects_out_of_range() {
        assert_eq!(Key::new(1.0), Err(KeyError::OutOfRange(1.0)));
        assert_eq!(Key::new(-0.1), Err(KeyError::OutOfRange(-0.1)));
        assert_eq!(Key::new(f64::NAN), Err(KeyError::NotFinite));
        assert_eq!(Key::new(f64::INFINITY), Err(KeyError::NotFinite));
    }

    #[test]
    fn negative_zero_normalizes() {
        let k = Key::new(-0.0).unwrap();
        assert_eq!(k, Key::MIN);
        assert_eq!(k.get().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn max_key_is_below_one() {
        assert!(Key::MAX.get() < 1.0);
        // Next representable float up from MAX is exactly 1.0.
        assert_eq!(f64::from_bits(Key::MAX.get().to_bits() + 1), 1.0);
    }

    #[test]
    fn clamped_saturates() {
        assert_eq!(Key::clamped(1.0), Key::MAX);
        assert_eq!(Key::clamped(7.3), Key::MAX);
        assert_eq!(Key::clamped(-2.0), Key::MIN);
        assert_eq!(Key::clamped(0.25).get(), 0.25);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn clamped_panics_on_nan() {
        let _ = Key::clamped(f64::NAN);
    }

    #[test]
    fn ordering_is_numeric() {
        let a = Key::new(0.1).unwrap();
        let b = Key::new(0.2).unwrap();
        assert!(a < b);
        assert_eq!(a.cmp(&b), std::cmp::Ordering::Less);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn midpoint_interval() {
        let a = Key::new(0.2).unwrap();
        let b = Key::new(0.6).unwrap();
        assert!((Key::midpoint(a, b).get() - 0.4).abs() < 1e-12);
    }
}
