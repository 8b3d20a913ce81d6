//! Bridge from the `ascetic-par` worker-pool counters to an observability
//! snapshot.
//!
//! The pool's numbers are **host wall-clock telemetry** — worker counts,
//! dispatch counts, job wall-times. They vary with the machine and the
//! thread count, so they must never be merged into the deterministic
//! [`crate::RunReport`] metrics (which are bit-identical across thread
//! counts by contract). Instead they travel as a separate labelled
//! snapshot: the CLI appends it to the `--metrics-out` JSONL as its own
//! line when `--pool-metrics` is passed.

use ascetic_obs::{Histogram, MetricsSnapshot, NUM_BUCKETS};

/// Snapshot the process-global worker-pool counters as a metrics snapshot
/// (labels: `stream=pool`).
pub fn pool_metrics_snapshot() -> MetricsSnapshot {
    // The pool's wall-time buckets use the obs log2 histogram layout.
    const _: () = assert!(ascetic_par::workers::WALL_BUCKETS == NUM_BUCKETS);
    let s = ascetic_par::pool_stats();
    let mut m = MetricsSnapshot::new();
    m.set_label("stream", "pool");
    m.set_gauge("pool.workers", s.workers);
    m.set_counter("pool.jobs_persistent", s.jobs_persistent);
    m.set_counter("pool.jobs_spawn", s.jobs_spawn);
    m.set_counter("pool.jobs_inline", s.jobs_inline);
    m.set_counter("pool.chunks_served", s.chunks_served);
    m.set_histogram(
        "pool.job_wall_ns",
        Histogram::from_parts(s.job_wall_count, s.job_wall_sum_ns, s.job_wall_ns_buckets),
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_pool_activity() {
        // Drive at least one parallel job through the pool, then check the
        // snapshot carries the counters and validates as JSON.
        ascetic_par::parallel_for(100_000, |i| {
            std::hint::black_box(i);
        });
        let m = pool_metrics_snapshot();
        assert_eq!(m.label("stream"), Some("pool"));
        assert!(m.gauge("pool.workers").is_some());
        let jobs = m.counter("pool.jobs_persistent").unwrap_or(0)
            + m.counter("pool.jobs_spawn").unwrap_or(0)
            + m.counter("pool.jobs_inline").unwrap_or(0);
        assert!(jobs > 0, "at least one job was recorded");
        let h = m.histogram("pool.job_wall_ns").unwrap();
        assert_eq!(
            h.buckets().iter().sum::<u64>(),
            h.count(),
            "bucket totals line up"
        );
        ascetic_obs::json::validate(&m.to_json()).expect("pool snapshot JSON validates");
    }
}
