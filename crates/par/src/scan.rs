//! Exclusive prefix sums.
//!
//! Laying out a compacted payload (the codec's per-entry encoded lengths →
//! byte offsets) is an exclusive scan. (The on-demand gather needs none:
//! its batch planner walks the rows sequentially and records each entry's
//! offset as it goes.)

/// In-place exclusive prefix sum; returns the total.
///
/// `[3, 1, 4] → [0, 3, 4]`, returning `8`.
pub fn exclusive_scan_in_place(xs: &mut [u64]) -> u64 {
    let mut acc = 0u64;
    for x in xs.iter_mut() {
        let v = *x;
        *x = acc;
        acc += v;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_scan_basic() {
        let mut xs = vec![3, 1, 4, 1, 5];
        let total = exclusive_scan_in_place(&mut xs);
        assert_eq!(xs, vec![0, 3, 4, 8, 9]);
        assert_eq!(total, 14);
    }

    #[test]
    fn serial_scan_empty() {
        let mut xs: Vec<u64> = vec![];
        assert_eq!(exclusive_scan_in_place(&mut xs), 0);
    }
}
