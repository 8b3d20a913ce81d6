//! Property tests for the telemetry primitives: bucket boundaries,
//! merge associativity, and escaping always yielding valid JSON.

use ascetic_obs::json;
use ascetic_obs::{Histogram, Registry};
use proptest::prelude::*;

proptest! {
    /// Every value lands in a bucket whose inclusive range contains it.
    #[test]
    fn bucket_index_matches_bucket_range(v in any::<u64>()) {
        let i = Histogram::bucket_index(v);
        let (lo, hi) = Histogram::bucket_range(i);
        prop_assert!(lo <= v && v <= hi, "{v} outside bucket {i} = [{lo},{hi}]");
    }

    /// Bucket ranges tile the u64 domain: each bucket starts right after
    /// the previous one ends.
    #[test]
    fn bucket_ranges_are_contiguous(i in 1usize..65) {
        let (_, prev_hi) = Histogram::bucket_range(i - 1);
        let (lo, hi) = Histogram::bucket_range(i);
        prop_assert_eq!(lo, prev_hi + 1);
        prop_assert!(lo <= hi);
    }

    /// (a ∪ b) ∪ c == a ∪ (b ∪ c): merge is associative, so sharded
    /// collection composes in any grouping.
    #[test]
    fn histogram_merge_is_associative(
        xs in prop::collection::vec(any::<u64>(), 0..32),
        ys in prop::collection::vec(any::<u64>(), 0..32),
        zs in prop::collection::vec(any::<u64>(), 0..32),
    ) {
        let h = |vals: &[u64]| {
            let mut h = Histogram::new();
            for &v in vals {
                h.observe(v);
            }
            h
        };
        let (a, b, c) = (h(&xs), h(&ys), h(&zs));

        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);

        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);

        prop_assert_eq!(left, right);
    }

    /// merge then diff recovers the second operand exactly.
    #[test]
    fn histogram_diff_inverts_merge(
        xs in prop::collection::vec(any::<u64>(), 0..32),
        ys in prop::collection::vec(any::<u64>(), 0..32),
    ) {
        let h = |vals: &[u64]| {
            let mut h = Histogram::new();
            for &v in vals {
                h.observe(v);
            }
            h
        };
        let (a, b) = (h(&xs), h(&ys));
        let mut merged = a.clone();
        merged.merge(&b);
        // Saturating sum is the only lossy step; skip the astronomically
        // unlikely overflow case so the property stays exact.
        prop_assume!(a.sum().checked_add(b.sum()).is_some());
        prop_assert_eq!(merged.diff(&a), b);
    }

    /// Escaping any string produces a parseable JSON string document.
    #[test]
    fn escaped_string_always_validates(s in "\\PC*") {
        let doc = format!("\"{}\"", json::escape(&s));
        prop_assert!(json::validate(&doc).is_ok(), "escape({s:?}) -> invalid JSON");
    }

    /// Snapshot JSON stays valid for arbitrary label/metric content,
    /// including hostile names needing escapes.
    #[test]
    fn snapshot_json_always_validates(
        label in "\\PC{0,24}",
        c in any::<u64>(),
        samples in prop::collection::vec(any::<u64>(), 0..16),
    ) {
        let mut r = Registry::new();
        r.set_label("dataset", &label);
        r.counter_add("c", c);
        for v in samples {
            r.observe("h", v);
        }
        let j = r.to_json();
        prop_assert!(json::validate(&j).is_ok(), "invalid snapshot JSON: {j}");
    }

    /// Registry merge agrees with observing everything in one registry.
    #[test]
    fn registry_merge_matches_single_stream(
        xs in prop::collection::vec(1u64..1_000_000, 0..24),
        split in 0usize..25,
    ) {
        let split = split.min(xs.len());
        let mut left = Registry::new();
        let mut right = Registry::new();
        let mut whole = Registry::new();
        for (i, &v) in xs.iter().enumerate() {
            let r = if i < split { &mut left } else { &mut right };
            r.counter_add("bytes", v);
            r.observe("sizes", v);
            whole.counter_add("bytes", v);
            whole.observe("sizes", v);
        }
        left.merge(&right);
        prop_assert_eq!(left, whole);
    }
}
