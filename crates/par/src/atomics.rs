//! Atomic reduction helpers for the push-style vertex programs.
//!
//! Push-based vertex programs update destination vertex values from many
//! threads at once: SSSP/BFS need an atomic `min`, CC needs an atomic `min`
//! over labels, and delta-PageRank needs an atomic floating-point add.
//!
//! * `min` / `max` are **test-before-RMW**: a Relaxed load first, and the
//!   locked `fetch_min` / `fetch_max` only when the load says the update
//!   could win. On sparse traversals almost every proposal loses (a BFS
//!   lowers a distance on |V| of its |E| relaxations), so the common case
//!   is a plain load instead of a `lock cmpxchg` loop.
//! * the float adds are compare-exchange loops (`std` has no float
//!   `fetch_add`); they are real reductions — every call changes the
//!   value — so there is nothing to test first.
//!
//! Everything uses `Relaxed` ordering: vertex values are only read between
//! kernel phases (after the thread join, which synchronizes), never used to
//! publish other memory.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Atomically `dst = min(dst, val)`. Returns `true` when `val` lowered the
/// stored value (the caller then activates the destination vertex).
///
/// Test-before-RMW, and exactly equivalent to an unconditional
/// `fetch_min`. Invariant: within a phase the only writers of `dst` are
/// other `atomic_min_u32` calls, so the stored value only ever *falls*. A
/// (possibly stale) load is therefore an upper bound of the current value:
/// if it is already `<= val`, the RMW would have been a no-op returning
/// `false`, and skipping it changes nothing. Otherwise the RMW runs and its
/// own return value — not the load — decides the result, so exactly one
/// caller per strict lowering sees `true`.
#[inline]
pub fn atomic_min_u32(dst: &AtomicU32, val: u32) -> bool {
    if dst.load(Ordering::Relaxed) <= val {
        return false;
    }
    val < dst.fetch_min(val, Ordering::Relaxed)
}

/// Atomically `dst = max(dst, val)`. Returns `true` when `val` raised it.
///
/// The mirror image of [`atomic_min_u32`]: the value only *rises* within a
/// phase, so a stale load is a lower bound and `load >= val` proves the RMW
/// a no-op.
#[inline]
pub fn atomic_max_u32(dst: &AtomicU32, val: u32) -> bool {
    if dst.load(Ordering::Relaxed) >= val {
        return false;
    }
    val > dst.fetch_max(val, Ordering::Relaxed)
}

/// Atomically add `val` to an `f32` stored as the bits of an [`AtomicU32`].
///
/// Returns the value held *before* the addition. This mirrors CUDA's
/// `atomicAdd(float*)`, which PageRank's scatter uses.
#[inline]
pub fn atomic_add_f32(dst: &AtomicU32, val: f32) -> f32 {
    let mut cur = dst.load(Ordering::Relaxed);
    loop {
        let old = f32::from_bits(cur);
        let new = (old + val).to_bits();
        match dst.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return old,
            Err(actual) => cur = actual,
        }
    }
}

/// Atomically add `val` to an `f64` stored as the bits of an [`AtomicU64`].
#[inline]
pub fn atomic_add_f64(dst: &AtomicU64, val: f64) -> f64 {
    let mut cur = dst.load(Ordering::Relaxed);
    loop {
        let old = f64::from_bits(cur);
        let new = (old + val).to_bits();
        match dst.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return old,
            Err(actual) => cur = actual,
        }
    }
}

/// Atomically exchange an `f64` (bit-stored) with `val`, returning the old
/// value. Delta-PageRank uses this to claim a vertex's accumulated residual.
#[inline]
pub fn atomic_swap_f64(dst: &AtomicU64, val: f64) -> f64 {
    f64::from_bits(dst.swap(val.to_bits(), Ordering::Relaxed))
}

/// Load an `f64` stored as bits.
#[inline]
pub fn load_f64(src: &AtomicU64) -> f64 {
    f64::from_bits(src.load(Ordering::Relaxed))
}

/// Store an `f64` as bits.
#[inline]
pub fn store_f64(dst: &AtomicU64, val: f64) {
    dst.store(val.to_bits(), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::parallel_for;

    #[test]
    fn min_reports_improvement() {
        let a = AtomicU32::new(10);
        assert!(atomic_min_u32(&a, 5));
        assert!(!atomic_min_u32(&a, 5));
        assert!(!atomic_min_u32(&a, 7));
        assert_eq!(a.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn max_reports_improvement() {
        let a = AtomicU32::new(10);
        assert!(atomic_max_u32(&a, 20));
        assert!(!atomic_max_u32(&a, 15));
        assert_eq!(a.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn concurrent_min_finds_global_min() {
        let a = AtomicU32::new(u32::MAX);
        parallel_for(100_000, |i| {
            atomic_min_u32(&a, (i as u32).wrapping_mul(2_654_435_761) % 1_000_000);
        });
        // The minimum over i*h mod 1e6 for 100k distinct i's: recompute serially.
        let expect = (0..100_000u32)
            .map(|i| i.wrapping_mul(2_654_435_761) % 1_000_000)
            .min()
            .unwrap();
        assert_eq!(a.load(Ordering::Relaxed), expect);
    }

    /// N threads released together by a barrier, each proposing its own
    /// pseudo-random values to one cell: the cell ends at the global
    /// extreme, and every strict improvement is reported to exactly one
    /// caller (the `true` values are distinct and include the extreme).
    fn hammer(
        init: u32,
        op: fn(&AtomicU32, u32) -> bool,
        best: fn(u32, u32) -> u32,
        beats: fn(u32, u32) -> bool,
    ) {
        const THREADS: u32 = 8;
        const PER_THREAD: u32 = 20_000;
        let cell = AtomicU32::new(init);
        let barrier = std::sync::Barrier::new(THREADS as usize);
        let vals = |t: u32| {
            (0..PER_THREAD).map(move |i| (t * PER_THREAD + i).wrapping_mul(2_654_435_761) >> 8)
        };
        let wins: Vec<Vec<u32>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (cell, barrier) = (&cell, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        vals(t).filter(|&v| op(cell, v)).collect::<Vec<u32>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let expect = (0..THREADS).flat_map(vals).fold(init, best);
        let end = cell.load(Ordering::Relaxed);
        assert_eq!(end, expect, "cell must end at the global extreme");
        let mut won: Vec<u32> = wins.into_iter().flatten().collect();
        assert!(!won.is_empty(), "someone must have improved the cell");
        assert!(
            won.iter().all(|&v| v == end || beats(end, v)),
            "a reported win beyond the final value"
        );
        won.sort_unstable();
        assert!(
            won.windows(2).all(|w| w[0] != w[1]),
            "one improvement reported to two callers"
        );
        assert!(won.contains(&end), "the installing call must see `true`");
        // once settled, nothing at or behind the final value wins again
        assert!((0..THREADS).flat_map(vals).all(|v| !op(&cell, v)));
    }

    #[test]
    fn min_hammer_reports_each_lowering_once() {
        hammer(u32::MAX, atomic_min_u32, u32::min, |end, v| end < v);
    }

    #[test]
    fn max_hammer_reports_each_raise_once() {
        hammer(0, atomic_max_u32, u32::max, |end, v| end > v);
    }

    #[test]
    fn f32_add_accumulates() {
        let a = AtomicU32::new(0f32.to_bits());
        let n = 10_000;
        parallel_for(n, |_| {
            atomic_add_f32(&a, 1.0);
        });
        assert_eq!(f32::from_bits(a.load(Ordering::Relaxed)), n as f32);
    }

    #[test]
    fn f64_add_accumulates_exactly_for_integers() {
        let a = AtomicU64::new(0f64.to_bits());
        let n = 50_000;
        parallel_for(n, |i| {
            atomic_add_f64(&a, (i % 7) as f64);
        });
        let expect: f64 = (0..n).map(|i| (i % 7) as f64).sum();
        assert_eq!(load_f64(&a), expect);
    }

    #[test]
    fn swap_returns_previous() {
        let a = AtomicU64::new(3.5f64.to_bits());
        assert_eq!(atomic_swap_f64(&a, 0.0), 3.5);
        assert_eq!(load_f64(&a), 0.0);
        store_f64(&a, -1.25);
        assert_eq!(load_f64(&a), -1.25);
    }

    #[test]
    fn f32_add_returns_old_value() {
        let a = AtomicU32::new(2.0f32.to_bits());
        let old = atomic_add_f32(&a, 3.0);
        assert_eq!(old, 2.0);
        assert_eq!(f32::from_bits(a.load(Ordering::Relaxed)), 5.0);
    }
}
