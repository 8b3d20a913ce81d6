//! What the benchmark declares: its workloads and every metric it emits,
//! with unit, direction and regression bound.
//!
//! These tables are the harness's source of truth — a child prints exactly
//! the metrics listed here and refuses to finish with one missing — and
//! `BENCHMARK.json` at the repo root repeats them for the driver. A
//! self-test holds the two together.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base value by which the metric may get worse before it
    /// counts as regressed, when the two sides ran *different seeds* — the
    /// `bound` of BENCHMARK.json. End-to-end metrics only.
    pub bound: Option<f64>,
    /// The same for two runs of *one seed*, where the inputs are identical
    /// and only host noise is left (none at all on the virtual clock).
    pub same_seed_bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    same_seed_bound: f64,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
        same_seed_bound: Some(same_seed_bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
        same_seed_bound: None,
    }
}

/// `(name, why)` of each workload, in run order.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "pr-social",
        "Dense reuse: cold session + PageRank on an FK-class social graph; ~85 % of host time is algos operators, per-iteration fixed costs are negligible.",
    ),
    (
        "bfs-web",
        "Sparse frontiers: 32 warm BFS on a UK-class web graph, ~8500 tiny iterations; per-iteration fixed cost (par dispatch, bitmap scans, core maps, sim timeline) dominates, per-edge work is small.",
    ),
    (
        "modes-social",
        "Other transfer paths: PageRank, CC, BFS under adaptive compression + next-frontier prefetch + adaptive direction, a forced-pull BFS, weighted 8 B/edge SSSP; bypasses pr-social's raw push path.",
    ),
    (
        "serve-churn",
        "Writes beside reads: 24 mixed jobs on 2 NVLink devices, 20 mutation batches landing mid-schedule (GS-class web graph); serve scheduler, mutate/patch epochs, apply_patch; the memory-heavy one.",
    ),
];

use Better::{Higher, Lower};

/// End-to-end metrics: what a user of the simulator sees, on both clocks.
///
/// The first bound is BENCHMARK.json's. The acceptance check takes each
/// metric's spread over ten *different seeds*, so it has to cover how much
/// the generated graphs and traces differ (measured: up to 10 % on
/// `wall_s`, 7 % on `sim_ms`, 6 % on `wire_mb`). The second bound is for
/// two runs of one seed, which is how a change is judged with `compare`:
/// there the virtual clock repeats exactly (and `compare` also prints
/// whether `virt_fp` moved at all), while medians of the host clock still
/// differ by 2–6 % between runs on a 2-core box.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("wall_s", "s", Lower, 0.25, 0.10),
    e2e("setup_s", "s", Lower, 0.25, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.10, 0.10),
    e2e("sim_ms", "ms", Lower, 0.25, 0.005),
    e2e("wire_mb", "MB", Lower, 0.25, 0.005),
];

/// Per-layer metrics, `<module>.<name>`, all from a `--trace 1` run. A
/// metric that does not apply to a workload reads 0 there.
pub const PER_LAYER: &[MetricSpec] = &[
    // graph
    layer("graph.generate_s", "s", Lower),
    layer("graph.weighted_s", "s", Lower),
    layer("graph.transpose_s", "s", Lower),
    layer("graph.chunks_build_s", "s", Lower),
    layer("graph.encode_mb_per_s", "MB/s", Higher),
    layer("graph.decode_mb_per_s", "MB/s", Higher),
    layer("graph.compress_ratio", "x", Higher),
    // par
    layer("par.dispatch_ns", "ns", Lower),
    layer("par.bitmap_scan_ns_per_word", "ns", Lower),
    layer("par.jobs_inline", "count", Lower),
    layer("par.jobs_persistent", "count", Lower),
    layer("par.speedup_t2", "x", Higher),
    // sim
    layer("sim.timeline_ops_per_s", "1/s", Higher),
    layer("sim.dma_ops", "count", Lower),
    layer("sim.kernel_launches", "count", Lower),
    layer("sim.gpu_idle_fraction", "ratio", Lower),
    layer("sim.link_busy_fraction", "ratio", Higher),
    layer("sim.compute_busy_fraction", "ratio", Higher),
    layer("sim.peer_mb", "MB", Lower),
    // algos
    layer("algos.kernel_s", "s", Lower),
    layer("algos.kernel_ns_per_edge", "ns", Lower),
    layer("algos.iterations", "count", Lower),
    layer("algos.active_edges", "count", Lower),
    layer("algos.pull_iterations", "count", Higher),
    // core
    layer("core.session_new_s", "s", Lower),
    layer("core.engine_self_s", "s", Lower),
    layer("core.host_ns_per_edge", "ns", Lower),
    layer("core.datamaps_s", "s", Lower),
    layer("core.gather_s", "s", Lower),
    layer("core.gather_mb_per_s", "MB/s", Higher),
    layer("core.static_hit_fraction", "ratio", Higher),
    layer("core.prestore_mb", "MB", Lower),
    layer("core.ondemand_mb", "MB", Lower),
    layer("core.refresh_mb", "MB", Lower),
    layer("core.prefetch_mb", "MB", Lower),
    layer("core.prefetch_hit_rate", "ratio", Higher),
    layer("core.prefetch_wasted_mb", "MB", Lower),
    layer("core.bd_genmap_ms", "ms", Lower),
    layer("core.bd_static_ms", "ms", Lower),
    layer("core.bd_gather_ms", "ms", Lower),
    layer("core.bd_transfer_ms", "ms", Lower),
    layer("core.bd_ondemand_ms", "ms", Lower),
    // baselines
    layer("baselines.speedup_vs_subway", "x", Higher),
    layer("baselines.subway_sim_ms", "ms", Lower),
    layer("baselines.subway_wire_mb", "MB", Lower),
    layer("baselines.subway_wall_s", "s", Lower),
    // serve
    layer("serve.p50_ms", "ms", Lower),
    layer("serve.p90_ms", "ms", Lower),
    layer("serve.wall_per_job_ms", "ms", Lower),
    layer("serve.sessions_built", "count", Lower),
    layer("serve.batches", "count", Higher),
    layer("serve.batched_jobs", "count", Higher),
    layer("serve.residency_hit_mb", "MB", Higher),
    layer("serve.replications", "count", Higher),
    layer("serve.rejected", "count", Lower),
    layer("serve.queue_p50_ms", "ms", Lower),
    layer("serve.admission_p50_ms", "ms", Lower),
    layer("serve.h2d_p50_ms", "ms", Lower),
    layer("serve.compute_p50_ms", "ms", Lower),
    // mutate
    layer("mutate.materialize_s", "s", Lower),
    layer("mutate.repair_s", "s", Lower),
    layer("mutate.repair_sim_ms", "ms", Lower),
    layer("mutate.batches_applied", "count", Lower),
    layer("mutate.patch_wire_mb", "MB", Lower),
    // obs
    layer("obs.trace_overhead_ratio", "x", Lower),
    layer("obs.trace_spans", "count", Lower),
    layer("obs.trace_export_s", "s", Lower),
    layer("obs.report_json_s", "s", Lower),
    layer("obs.events_dropped", "count", Lower),
];

/// Measured values keyed by declared metric name.
pub struct Metrics {
    table: &'static [MetricSpec],
    values: Vec<Option<f64>>,
}

impl Metrics {
    pub fn new(table: &'static [MetricSpec]) -> Metrics {
        Metrics {
            table,
            values: vec![None; table.len()],
        }
    }

    /// Record `name`.
    ///
    /// # Panics
    /// Panics if `name` is not declared in the table or was already set:
    /// either is a bug in the harness, not in the program under test.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .table
            .iter()
            .position(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared in spec.rs"));
        assert!(self.values[i].is_none(), "metric {name} set twice");
        assert!(value.is_finite(), "metric {name} = {value} is not a number");
        self.values[i] = Some(value);
    }

    /// Record every metric of `prefix.` that is still unset as 0: the
    /// layer does not take part in this workload.
    pub fn not_applicable(&mut self, prefix: &str) {
        for (m, v) in self.table.iter().zip(&mut self.values) {
            if v.is_none()
                && m.name
                    .strip_prefix(prefix)
                    .is_some_and(|r| r.starts_with('.'))
            {
                *v = Some(0.0);
            }
        }
    }

    /// Every declared metric with its value, in table order.
    ///
    /// # Panics
    /// Panics if a declared metric was never set.
    pub fn finish(self) -> Vec<(&'static MetricSpec, f64)> {
        self.table
            .iter()
            .zip(self.values)
            .map(|(m, v)| {
                (
                    m,
                    v.unwrap_or_else(|| panic!("metric {} was never measured", m.name)),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::workloads::Workload;

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        assert!(text.len() <= 64 * 1024, "BENCHMARK.json over 64 KiB");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn valid_name(s: &str) -> bool {
        (1..=64).contains(&s.len())
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn valid_unit(s: &str) -> bool {
        (1..=16).contains(&s.len())
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    fn assert_metrics_match(declared: &[Value], table: &[MetricSpec], bounded: bool) {
        assert_eq!(declared.len(), table.len());
        for (d, m) in declared.iter().zip(table) {
            assert_eq!(d.get("name").unwrap().as_str(), Some(m.name));
            assert_eq!(d.get("unit").unwrap().as_str(), Some(m.unit), "{}", m.name);
            assert_eq!(
                d.get("better").unwrap().as_str(),
                Some(m.better.as_str()),
                "{}",
                m.name
            );
            assert_eq!(
                d.get("bound").and_then(Value::as_f64),
                m.bound,
                "{}",
                m.name
            );
            assert_eq!(d.as_object().unwrap().len(), if bounded { 4 } else { 3 });
        }
    }

    #[test]
    fn manifest_declares_exactly_what_the_harness_emits() {
        let doc = manifest();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let workloads = doc.get("workloads").unwrap().as_array().unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for ((w, (name, why)), variant) in workloads.iter().zip(WORKLOADS).zip(Workload::ALL) {
            assert_eq!(w.get("name").unwrap().as_str(), Some(name));
            assert_eq!(w.get("why").unwrap().as_str(), Some(why));
            assert_eq!(
                variant.name(),
                name,
                "spec and Workload agree on names and order"
            );
        }
        assert_metrics_match(
            doc.get("end_to_end").unwrap().as_array().unwrap(),
            END_TO_END,
            true,
        );
        assert_metrics_match(
            doc.get("per_layer").unwrap().as_array().unwrap(),
            PER_LAYER,
            false,
        );
    }

    #[test]
    fn declared_names_units_and_counts_are_within_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
        for n in &names {
            assert!(valid_name(n), "bad name {n}");
        }
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for (_, why) in WORKLOADS {
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "why too long: {why}"
            );
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_unit(m.unit), "bad unit {} on {}", m.unit, m.name);
        }
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{} bound {b}", m.name);
            assert!(
                m.same_seed_bound.is_some_and(|s| s > 0.0 && s <= b),
                "{}",
                m.name
            );
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Lower);
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!(PER_LAYER
            .iter()
            .all(|m| m.bound.is_none() && m.name.contains('.')));
    }

    #[test]
    fn manifest_command_and_paths_stay_inside_the_benchmark() {
        let doc = manifest();
        let paths: Vec<&str> = doc
            .get("paths")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|p| p.as_str().unwrap())
            .collect();
        assert_eq!(paths, ["benchmark"]);
        let command = doc.get("command").unwrap().as_array().unwrap();
        assert!(command.len() <= 32);
        for arg in command {
            let a = arg.as_str().unwrap();
            assert!(
                a.len() <= 200 && !a.starts_with('/') && !a.contains(".."),
                "{a}"
            );
        }
        let secs = doc.get("run_seconds").unwrap().as_f64().unwrap();
        assert!(secs.fract() == 0.0 && (1.0..=60.0).contains(&secs));
        assert_eq!(
            secs,
            crate::runner::DEFAULT_SECONDS,
            "`run` measures as long as the driver"
        );
    }

    #[test]
    fn metrics_refuse_undeclared_and_missing_names() {
        let mut m = Metrics::new(END_TO_END);
        m.set("wall_s", 1.0);
        assert!(std::panic::catch_unwind(move || m.set("wall_seconds", 1.0)).is_err());
        let mut m = Metrics::new(END_TO_END);
        m.set("wall_s", 1.0);
        assert!(std::panic::catch_unwind(move || m.finish()).is_err());
        let mut m = Metrics::new(PER_LAYER);
        m.not_applicable("serve");
        m.set("mutate.repair_s", 2.0);
        m.not_applicable("mutate");
        for prefix in ["graph", "par", "sim", "algos", "core", "baselines", "obs"] {
            m.not_applicable(prefix);
        }
        let done = m.finish();
        assert_eq!(done.len(), PER_LAYER.len());
        let value = |n: &str| done.iter().find(|(s, _)| s.name == n).unwrap().1;
        assert_eq!(value("serve.batches"), 0.0);
        assert_eq!(value("mutate.repair_s"), 2.0);
    }
}
