//! Serve-level reporting: per-job reports plus the aggregate serve report,
//! written to JSON through `ascetic_obs::json` like every other report.

use ascetic_algos::AlgoOutput;
use ascetic_core::{RunReport, RUN_REPORT_SCHEMA_VERSION};
use ascetic_obs::json;
use ascetic_obs::{MetricsSnapshot, Trace};
use ascetic_sim::ArenaOccupancy;

/// What one admitted job got back from the serving layer.
#[derive(Clone, Debug)]
pub struct JobReport {
    /// The job's trace id.
    pub id: u32,
    /// Algorithm name (trace spelling).
    pub algo: &'static str,
    /// Fleet device the job ran on (0 on a single-device serve).
    pub device: u32,
    /// Batch this job ran in, if it was folded into one.
    pub batch: Option<u32>,
    /// Lanes in the run that produced this job's answer (1 = solo).
    pub lanes: u32,
    /// Jobs folded into this one's run besides itself (`lanes - 1`).
    pub batch_folds: u32,
    /// When the job arrived, serve clock ns.
    pub submit_ns: u64,
    /// When its run started.
    pub start_ns: u64,
    /// When its run finished.
    pub finish_ns: u64,
    /// `start_ns - submit_ns`.
    pub queue_wait_ns: u64,
    /// Session (re)build cost paid before the run's iterations: the
    /// prestore, 0 on a warm session.
    pub admission_ns: u64,
    /// Link time spent on the run's on-demand H2D transfers.
    pub h2d_ns: u64,
    /// Compute-engine time across the run's kernels (GenDataMap, static
    /// region, on-demand).
    pub compute_ns: u64,
    /// The deadline it asked for, if any.
    pub deadline_ns: Option<u64>,
    /// Whether `finish_ns <= deadline_ns` (None when no deadline).
    pub met_deadline: Option<bool>,
    /// This job's answer (a batched run's output split to its lane).
    pub output: AlgoOutput,
    /// The underlying engine run report, with `output` replaced by this
    /// job's lane. Batch members share every other field.
    pub run: RunReport,
}

impl JobReport {
    /// End-to-end latency: `finish_ns - submit_ns`.
    pub fn latency_ns(&self) -> u64 {
        self.finish_ns - self.submit_ns
    }
}

/// Nearest-rank percentile summary of one latency component, ns.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencyPercentiles {
    /// Median (50th percentile, nearest rank).
    pub p50_ns: u64,
    /// 90th percentile.
    pub p90_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
}

impl LatencyPercentiles {
    /// Nearest-rank percentiles over `samples` (all zero when empty).
    pub fn from_samples(mut samples: Vec<u64>) -> LatencyPercentiles {
        if samples.is_empty() {
            return LatencyPercentiles::default();
        }
        samples.sort_unstable();
        let nth = |p: u64| {
            // nearest-rank: ceil(p/100 * n), 1-based
            let rank = (p * samples.len() as u64).div_ceil(100).max(1) as usize;
            samples[rank - 1]
        };
        LatencyPercentiles {
            p50_ns: nth(50),
            p90_ns: nth(90),
            p99_ns: nth(99),
        }
    }
}

/// SLO-grade latency decomposition over a serve schedule's admitted jobs:
/// the end-to-end latency plus where it went (queue, admission/prestore,
/// H2D link time, compute time). The components describe the run each job
/// rode, so batch members share them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencyBreakdown {
    /// `finish - submit` per job.
    pub total: LatencyPercentiles,
    /// `start - submit` per job.
    pub queue: LatencyPercentiles,
    /// Session (re)build / prestore time per job.
    pub admission: LatencyPercentiles,
    /// On-demand transfer link time per job.
    pub h2d: LatencyPercentiles,
    /// Kernel time per job.
    pub compute: LatencyPercentiles,
}

/// A job the admission check turned away.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RejectedJob {
    /// The job's trace id.
    pub id: u32,
    /// Algorithm name.
    pub algo: &'static str,
    /// Human-readable admission failure, [`ascetic_core::PrepareError`] text.
    pub reason: String,
}

/// Everything one [`crate::server::serve`] call produced.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Policy name the schedule was built under.
    pub policy: &'static str,
    /// Devices the schedule ran across (1 = the classic single device).
    pub devices: u32,
    /// Serve-clock time when the last job finished on any device.
    pub makespan_ns: u64,
    /// Sum of queue waits over admitted jobs.
    pub total_queue_wait_ns: u64,
    /// On-demand H2D traffic summed over all runs.
    pub ondemand_h2d_bytes: u64,
    /// Prestore traffic summed over all runs (session rebuild cost).
    pub prestore_bytes: u64,
    /// Static-region bytes served from carried residency in warm runs —
    /// traffic a cold session would have paid for again.
    pub residency_hit_bytes: u64,
    /// Multi-source batches executed.
    pub batches: u32,
    /// Jobs that rode in those batches.
    pub batched_jobs: u32,
    /// Sessions built (1 + variant switches; lower is better).
    pub sessions_built: u32,
    /// Cold session builds whose admission rode a device-to-device
    /// replica of a warm peer's static region instead of a host prestore.
    pub replications: u32,
    /// Bytes those replications put on the interconnect.
    pub replicated_bytes: u64,
    /// Mutation batches delta-patched into live sessions (each device
    /// catches up independently, so one trace batch can count once per
    /// device that was live when its boundary passed).
    pub mutations_applied: u32,
    /// Bytes those patches put on the wire (delta splices, not rebuilds).
    pub mutation_wire_bytes: u64,
    /// Device arena occupancy at shutdown.
    pub occupancy: ArenaOccupancy,
    /// Serve-layer metric snapshot (queue waits, batch occupancy, ...).
    pub metrics: MetricsSnapshot,
    /// Hierarchical span trace on the serve clock: one track per job
    /// (queued → admitted → running) plus the scheduler's run track.
    pub span_trace: Option<Trace>,
    /// Per-job reports, sorted by job id.
    pub jobs: Vec<JobReport>,
    /// Jobs refused at admission, sorted by job id.
    pub rejected: Vec<RejectedJob>,
}

impl ServeReport {
    /// Percentile decomposition of job latency into
    /// queue/admission/H2D/compute components, over the admitted jobs.
    pub fn latency_breakdown(&self) -> LatencyBreakdown {
        LatencyBreakdown {
            total: LatencyPercentiles::from_samples(
                self.jobs.iter().map(|j| j.latency_ns()).collect(),
            ),
            queue: LatencyPercentiles::from_samples(
                self.jobs.iter().map(|j| j.queue_wait_ns).collect(),
            ),
            admission: LatencyPercentiles::from_samples(
                self.jobs.iter().map(|j| j.admission_ns).collect(),
            ),
            h2d: LatencyPercentiles::from_samples(self.jobs.iter().map(|j| j.h2d_ns).collect()),
            compute: LatencyPercentiles::from_samples(
                self.jobs.iter().map(|j| j.compute_ns).collect(),
            ),
        }
    }

    /// Average lanes per run, ×100 (integer fixed-point, deterministic).
    pub fn batch_occupancy_x100(&self) -> u64 {
        let runs = self.jobs.len() as u64 - self.batched_jobs as u64 + self.batches as u64;
        if runs == 0 {
            return 0;
        }
        self.jobs.len() as u64 * 100 / runs
    }

    /// The whole serve outcome as one JSON object. Per-job entries carry an
    /// `output_fp` fingerprint instead of the full output, so two reports
    /// are byte-identical iff their schedules *and* answers agree.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024 + self.jobs.len() * 160);
        json::object(&mut out, |o| {
            o.num("schema_version", RUN_REPORT_SCHEMA_VERSION);
            o.str("policy", self.policy).num("devices", self.devices);
            o.num("makespan_ns", self.makespan_ns);
            o.num("total_queue_wait_ns", self.total_queue_wait_ns);
            o.num("ondemand_h2d_bytes", self.ondemand_h2d_bytes);
            o.num("prestore_bytes", self.prestore_bytes);
            o.num("residency_hit_bytes", self.residency_hit_bytes);
            o.num("batches", self.batches);
            o.num("batched_jobs", self.batched_jobs);
            o.num("sessions_built", self.sessions_built);
            o.num("replications", self.replications);
            o.num("replicated_bytes", self.replicated_bytes);
            o.num("mutations_applied", self.mutations_applied);
            o.num("mutation_wire_bytes", self.mutation_wire_bytes);
            o.num("batch_occupancy_x100", self.batch_occupancy_x100());
            let lb = self.latency_breakdown();
            o.object("latency", |l| {
                for (k, p) in [
                    ("total", lb.total),
                    ("queue", lb.queue),
                    ("admission", lb.admission),
                    ("h2d", lb.h2d),
                    ("compute", lb.compute),
                ] {
                    l.object(k, |q| {
                        q.num("p50_ns", p.p50_ns).num("p90_ns", p.p90_ns);
                        q.num("p99_ns", p.p99_ns);
                    });
                }
            });
            let occ = &self.occupancy;
            o.object("occupancy", |m| {
                m.num("capacity_bytes", occ.capacity_bytes);
                m.num("used_bytes", occ.used_bytes);
                m.num("high_water_bytes", occ.high_water_bytes);
            });
            o.array("jobs", |a| {
                for j in &self.jobs {
                    a.object(|o| {
                        o.num("id", j.id).str("algo", j.algo).opt("batch", j.batch);
                        o.num("device", j.device).num("lanes", j.lanes);
                        o.num("batch_folds", j.batch_folds);
                        o.num("submit_ns", j.submit_ns).num("start_ns", j.start_ns);
                        o.num("finish_ns", j.finish_ns);
                        o.num("queue_wait_ns", j.queue_wait_ns);
                        o.num("admission_ns", j.admission_ns);
                        o.num("h2d_ns", j.h2d_ns).num("compute_ns", j.compute_ns);
                        o.num("run_sim_ns", j.run.sim_time_ns);
                        o.opt("deadline_ns", j.deadline_ns);
                        o.opt("met_deadline", j.met_deadline);
                        o.str("output_fp", format_args!("{:016x}", j.output.fingerprint()));
                    });
                }
            });
            o.array("rejected", |a| {
                for r in &self.rejected {
                    a.object(|o| {
                        o.num("id", r.id).str("algo", r.algo);
                        o.str("reason", &r.reason);
                    });
                }
            });
            o.raw("metrics", &self.metrics.to_json());
        });
        out
    }

    /// One-paragraph text summary for `--summary text`.
    pub fn summary_text(&self) -> String {
        let lb = self.latency_breakdown();
        format!(
            "serve[{}]: {} devices, {} jobs ({} batched in {} batches, {} rejected), \
             {} sessions ({} replicated), {} mutation batches ({} B spliced), \
             makespan {} ns, queue wait {} ns, \
             on-demand H2D {} B, prestore {} B, residency hits {} B\n\
             latency p50/p90/p99 ns: total {}/{}/{}, queue {}/{}/{}, \
             admission {}/{}/{}, h2d {}/{}/{}, compute {}/{}/{}",
            self.policy,
            self.devices,
            self.jobs.len(),
            self.batched_jobs,
            self.batches,
            self.rejected.len(),
            self.sessions_built,
            self.replications,
            self.mutations_applied,
            self.mutation_wire_bytes,
            self.makespan_ns,
            self.total_queue_wait_ns,
            self.ondemand_h2d_bytes,
            self.prestore_bytes,
            self.residency_hit_bytes,
            lb.total.p50_ns,
            lb.total.p90_ns,
            lb.total.p99_ns,
            lb.queue.p50_ns,
            lb.queue.p90_ns,
            lb.queue.p99_ns,
            lb.admission.p50_ns,
            lb.admission.p90_ns,
            lb.admission.p99_ns,
            lb.h2d.p50_ns,
            lb.h2d.p90_ns,
            lb.h2d.p99_ns,
            lb.compute.p50_ns,
            lb.compute.p90_ns,
            lb.compute.p99_ns,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        assert_eq!(
            LatencyPercentiles::from_samples(vec![]),
            LatencyPercentiles::default()
        );
        let p = LatencyPercentiles::from_samples(vec![5]);
        assert_eq!((p.p50_ns, p.p90_ns, p.p99_ns), (5, 5, 5));
        // 1..=100: nearest-rank pN over 100 samples is exactly N
        let p = LatencyPercentiles::from_samples((1..=100).collect());
        assert_eq!((p.p50_ns, p.p90_ns, p.p99_ns), (50, 90, 99));
        // 10 samples: p50 -> rank 5, p90 -> rank 9, p99 -> rank 10
        let p = LatencyPercentiles::from_samples((1..=10).map(|x| x * 10).collect());
        assert_eq!((p.p50_ns, p.p90_ns, p.p99_ns), (50, 90, 100));
    }
}
