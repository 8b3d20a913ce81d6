//! Simulated time.
//!
//! Instants and durations are nanoseconds in `u64`; arithmetic is exact and
//! platform-independent, which keeps every reported number bit-reproducible.
//! `SimTime` is an *instant* on the virtual clock; durations are plain `u64`
//! nanoseconds produced by the cost models in [`crate::device`].

/// An instant on the simulated clock, in nanoseconds since run start.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// The instant `dur_ns` nanoseconds after `self`.
    #[inline]
    pub fn after(self, dur_ns: u64) -> SimTime {
        SimTime(self.0 + dur_ns)
    }

    /// Nanoseconds from `earlier` to `self`; panics if `earlier` is later.
    #[inline]
    pub fn since(self, earlier: SimTime) -> u64 {
        debug_assert!(self >= earlier, "negative duration");
        self.0 - earlier.0
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Seconds as `f64` (for reporting only; never used in scheduling).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
}

/// Nanoseconds to move `bytes` at `bytes_per_sec`, rounded up so that a
/// nonzero payload never takes zero time.
#[inline]
pub fn ns_for_bytes(bytes: u64, bytes_per_sec: u64) -> u64 {
    if bytes == 0 {
        return 0;
    }
    // ns = bytes * 1e9 / Bps, computed in u128 to avoid overflow.
    let ns = (bytes as u128 * 1_000_000_000u128).div_ceil(bytes_per_sec as u128);
    ns.min(u64::MAX as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_arithmetic() {
        let t = SimTime::ZERO.after(500);
        assert_eq!(t.0, 500);
        assert_eq!(t.since(SimTime::ZERO), 500);
        assert_eq!(t.max(SimTime(100)), t);
        assert_eq!(SimTime(100).max(t), t);
    }

    #[test]
    fn seconds_conversion() {
        assert_eq!(SimTime(1_500_000_000).as_secs_f64(), 1.5);
    }

    #[test]
    fn bandwidth_math() {
        // 12 GB/s: 12 bytes take 1 ns
        assert_eq!(ns_for_bytes(12, 12_000_000_000), 1);
        assert_eq!(ns_for_bytes(0, 12_000_000_000), 0);
        // rounding up: 1 byte still costs 1 ns
        assert_eq!(ns_for_bytes(1, 12_000_000_000), 1);
        // 1 GiB at 1 GB/s ≈ 1.074 s
        let ns = ns_for_bytes(1 << 30, 1_000_000_000);
        assert_eq!(ns, 1_073_741_824);
    }

    #[test]
    fn bandwidth_saturates_instead_of_overflowing() {
        assert_eq!(ns_for_bytes(u64::MAX / 2, 1), u64::MAX);
        // 1 TB at 12 GB/s stays exact
        let ns = ns_for_bytes(1_000_000_000_000, 12_000_000_000);
        assert_eq!(ns, 83_333_333_334);
    }
}
