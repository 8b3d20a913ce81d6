//! Run reports.
//!
//! Every system (Ascetic and the baselines) returns a [`RunReport`]; the
//! benchmark harness derives each table/figure from these fields:
//!
//! * Table 4 — [`RunReport::sim_time_ns`] ratios,
//! * Table 5 / Figs 7 & 9 — [`RunReport::xfer`] volumes (with the static
//!   prestore separated out, since Fig 7 excludes it),
//! * Fig 8 — overlap-on vs overlap-off time deltas,
//! * Fig 10 — the [`Breakdown`] components (Tsr, Tfilling, Ttransfer,
//!   Tondemand),
//! * §2.2 motivation — [`RunReport::gpu_idle_ns`] (Subway: "68 % of GPU
//!   time is idle"), Table 2 — [`RunReport::peak_iteration_payload_bytes`].

use ascetic_algos::AlgoOutput;
use ascetic_obs::{json, EventLog, MetricsSnapshot, Trace};
use ascetic_sim::{KernelStats, XferStats};

/// Version stamped into every machine-readable report this workspace
/// emits ([`RunReport::summary_json`], the bench BENCH_*.json files, the
/// serve reports and the exported span traces).
/// Bump it whenever a field is renamed, removed or re-interpreted so
/// downstream trace parsers can branch instead of silently misreading.
/// History: 1 = the PR 1–4 layout (no explicit version); 2 = the version
/// field itself plus the serve layer's report family; 3 = span-trace /
/// utilization / drop-accounting fields and the serve latency
/// decomposition (`events_dropped`, `first_drop_at`, per-job
/// queue/admission/H2D/compute components and latency percentiles).
pub const RUN_REPORT_SCHEMA_VERSION: u32 = 3;

/// Per-iteration record.
#[derive(Clone, Copy, Debug, Default)]
pub struct IterReport {
    /// Active vertices at the start of the iteration.
    pub active_vertices: u64,
    /// Active (traversed) edges.
    pub active_edges: u64,
    /// Edge payload bytes shipped to the device this iteration.
    pub payload_bytes: u64,
    /// Iteration wall time on the simulated clock, ns.
    pub time_ns: u64,
    /// Of the active edges, how many were served from the static region
    /// (always 0 for baselines).
    pub static_edges: u64,
    /// Whether this iteration ran in pull (gather) direction — always
    /// `false` for push-only configurations and all baselines.
    pub pull: bool,
}

/// Link/compute utilization over one iteration window, derived from the
/// hierarchical span trace (see [`RunReport::utilization`]).
///
/// `link_busy_ns` is the union of DMA spans across every copy stream, so
/// two streams driving the link concurrently count the covered time once;
/// `overlap_ns` is the time both the link (any stream) and the compute
/// engine were busy — the Fig-8 "overlap" the paper's pipeline exists to
/// maximize.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IterUtilization {
    /// Window start on the virtual clock, ns.
    pub start_ns: u64,
    /// Window end on the virtual clock, ns.
    pub end_ns: u64,
    /// Time at least one copy stream was moving data, ns.
    pub link_busy_ns: u64,
    /// Time the compute engine was running a kernel or decode, ns.
    pub compute_busy_ns: u64,
    /// Time link and compute were busy simultaneously, ns.
    pub overlap_ns: u64,
}

impl IterUtilization {
    /// Window length, ns.
    pub fn window_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Time breakdown across the run (Figure 10 components), ns.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// Data-map generation (`GenDataMap`).
    pub gen_map_ns: u64,
    /// Static-region compute (`Tsr`).
    pub static_compute_ns: u64,
    /// CPU gather / on-demand fill (`Tfilling`).
    pub gather_ns: u64,
    /// On-demand H2D transfer (`Ttransfer`).
    pub transfer_ns: u64,
    /// On-demand compute (`Tondemand`).
    pub ondemand_compute_ns: u64,
}

impl Breakdown {
    /// Sum of all components (engine-busy view; the run's wall time is
    /// shorter when phases overlap).
    pub fn total_ns(&self) -> u64 {
        self.gen_map_ns
            + self.static_compute_ns
            + self.gather_ns
            + self.transfer_ns
            + self.ondemand_compute_ns
    }
}

/// Result and metrics of one out-of-core run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// System name ("Ascetic", "Subway", "PT", "UVM").
    pub system: &'static str,
    /// Algorithm name.
    pub algorithm: &'static str,
    /// Iterations until convergence.
    pub iterations: u32,
    /// Total simulated run time, ns. On a session's first run this
    /// includes the one-time static prestore (see `prestore_ns`); later
    /// runs over the same session start from a warm region and exclude it.
    pub sim_time_ns: u64,
    /// Steady-state transfers (excludes the static-region prestore).
    pub xfer: XferStats,
    /// Bytes moved filling the static region before iteration 0
    /// (Table 5 *includes* this; Figure 7 excludes it).
    pub prestore_bytes: u64,
    /// Prestore bytes actually on the link (equal to `prestore_bytes`
    /// unless the fill shipped compressed).
    pub prestore_wire_bytes: u64,
    /// Time spent on the initial fill, ns (included in `sim_time_ns`).
    pub prestore_ns: u64,
    /// 0 since the reactive server was removed (PR 25); goes with ROADMAP 5(d).
    pub refresh_bytes: u64,
    /// 0 since the reactive server was removed (PR 25); goes with ROADMAP 5(d).
    pub refresh_wire_bytes: u64,
    /// Bytes speculatively shipped by the cross-iteration prefetch
    /// pipeline (a subset of `xfer.h2d_bytes`; 0 when prefetch is off).
    pub prefetch_bytes: u64,
    /// Chunk refreshes issued on the prefetch stream.
    pub prefetch_ops: u64,
    /// Prefetched chunks the next iteration actually demanded.
    pub prefetch_hits: u64,
    /// Bytes prefetched for chunks the next iteration never touched
    /// (mispredictions — charged as waste, never corruption).
    pub prefetch_wasted_bytes: u64,
    /// Kernel counters.
    pub kernels: KernelStats,
    /// Time breakdown.
    pub breakdown: Breakdown,
    /// Compute-engine idle time relative to the makespan, ns.
    pub gpu_idle_ns: u64,
    /// Number of Eq (3) adaptive re-partitions performed.
    pub repartitions: u32,
    /// Largest per-iteration device edge-payload footprint, bytes
    /// (Table 2's "memory usage per iteration" for Subway).
    pub peak_iteration_payload_bytes: u64,
    /// Mean per-iteration device edge-payload footprint, bytes.
    pub avg_iteration_payload_bytes: u64,
    /// Hierarchical span trace (one track per copy stream, one per
    /// engine, plus session phase tracks), when the system ran with
    /// tracing enabled. Export with [`ascetic_obs::Trace::to_perfetto_json`].
    pub span_trace: Option<Trace>,
    /// Per-iteration link/compute utilization derived from the span
    /// trace. Empty when tracing was off.
    pub utilization: Vec<IterUtilization>,
    /// Events the bounded log discarded after filling up (0 when nothing
    /// was dropped).
    pub events_dropped: u64,
    /// Virtual-clock timestamp of the first dropped event, when any were
    /// dropped — everything before this time is complete.
    pub first_drop_at: Option<u64>,
    /// Metrics snapshot for this run: the device registry's change over
    /// the run (`DESIGN.md` §21, "a run is one diff"). The scalar fields
    /// above are read off it, so `xfer.*`, `kernel.*`, `prestore.*`, … here
    /// *are* [`RunReport::xfer`] / [`RunReport::kernels`] / …; every
    /// headline scalar's name is present, at zero when nothing bumped it.
    pub metrics: MetricsSnapshot,
    /// Event log of what no span of `span_trace` states (re-partitions,
    /// high-water marks, UVM faults).
    pub events: EventLog,
    /// Final algorithm output (validated against the in-memory oracle).
    pub output: AlgoOutput,
    /// Per-iteration details.
    pub per_iter: Vec<IterReport>,
}

/// One headline scalar: `(metric name, gauge?, JSON key, accessor)` —
/// `""` where it is not on that surface.
pub(crate) type Scalar = (&'static str, bool, &'static str, fn(&RunReport) -> u64);

/// A [`Scalar`] exported as a gauge (a point-in-time value of this run)…
const GAUGE: bool = true;
/// … or as a counter.
const COUNT: bool = false;

/// The one list of a run's headline scalars. The summary JSON's headline
/// keys and the names every report's snapshot declares (at zero when no
/// operation bumped them) are both read off it, in this order.
#[rustfmt::skip]
pub(crate) const SCALARS: &[Scalar] = &[
    ("iterations", COUNT, "iterations", |r| r.iterations as u64),
    ("sim_time_ns", GAUGE, "sim_time_ns", |r| r.sim_time_ns),
    ("xfer.h2d_bytes", COUNT, "", |r| r.xfer.h2d_bytes),
    ("xfer.d2h_bytes", COUNT, "", |r| r.xfer.d2h_bytes),
    ("xfer.h2d_ops", COUNT, "", |r| r.xfer.h2d_ops),
    ("xfer.d2h_ops", COUNT, "", |r| r.xfer.d2h_ops),
    ("prestore.bytes", COUNT, "prestore_bytes", |r| r.prestore_bytes),
    ("refresh.bytes", COUNT, "refresh_bytes", |r| r.refresh_bytes), // always 0: no reactive server (ROADMAP 1(d))
    ("", COUNT, "steady_bytes", RunReport::steady_bytes),
    ("", COUNT, "total_bytes_with_prestore", RunReport::total_bytes_with_prestore),
    ("", COUNT, "steady_wire_bytes", RunReport::steady_wire_bytes),
    ("", COUNT, "total_wire_bytes_with_prestore", RunReport::total_wire_bytes_with_prestore),
    ("kernel.launches", COUNT, "", |r| r.kernels.launches),
    ("kernel.edges", COUNT, "", |r| r.kernels.edges),
    ("gpu.idle_ns", GAUGE, "gpu_idle_ns", |r| r.gpu_idle_ns),
    ("repartitions", COUNT, "repartitions", |r| r.repartitions as u64),
    ("payload.peak_bytes", GAUGE, "", |r| r.peak_iteration_payload_bytes),
    ("xfer.h2d_wire_bytes", COUNT, "", |r| r.xfer.h2d_wire_bytes),
    ("prestore.wire_bytes", COUNT, "", |r| r.prestore_wire_bytes),
    ("refresh.wire_bytes", COUNT, "", |r| r.refresh_wire_bytes), // always 0: no reactive server (ROADMAP 1(d))
    ("prefetch.bytes", COUNT, "prefetch_bytes", |r| r.prefetch_bytes),
    ("prefetch.ops", COUNT, "prefetch_ops", |r| r.prefetch_ops),
    ("prefetch.hits", COUNT, "prefetch_hits", |r| r.prefetch_hits),
    ("prefetch.waste_bytes", COUNT, "prefetch_wasted_bytes", |r| r.prefetch_wasted_bytes),
    ("kernel.vertices", COUNT, "", |r| r.kernels.vertices),
    ("kernel.time_ns", COUNT, "", |r| r.kernels.time_ns),
    ("payload.avg_bytes", GAUGE, "", |r| r.avg_iteration_payload_bytes),
    ("events.dropped", COUNT, "", |r| r.events_dropped),
    // iterations that ran a static-region kernel *and* an on-demand
    // pipeline: the ones a fragmented region multiplies
    ("iterations.both_regions", COUNT, "", |r| {
        let both = |i: &&IterReport| i.static_edges > 0 && i.payload_bytes > 0;
        r.per_iter.iter().filter(both).count() as u64
    }),
];

impl RunReport {
    /// Total bytes transferred including the prestore — the Table 5 notion
    /// ("Note that they include data transferred during the initial data
    /// filling to the Static Region").
    pub fn total_bytes_with_prestore(&self) -> u64 {
        self.xfer.total_bytes() + self.prestore_bytes + self.refresh_bytes
    }

    /// Steady-state bytes (Figure 7's notion: "The data transfer is not
    /// contain the static prestore data").
    pub fn steady_bytes(&self) -> u64 {
        self.xfer.total_bytes() + self.refresh_bytes
    }

    /// Total bytes on the link including the prestore — what PCIe really
    /// carried. Equal to [`RunReport::total_bytes_with_prestore`] when the
    /// compressed transfer path is off.
    pub fn total_wire_bytes_with_prestore(&self) -> u64 {
        self.xfer.total_wire_bytes() + self.prestore_wire_bytes + self.refresh_wire_bytes
    }

    /// Steady-state bytes on the link (excludes the prestore).
    pub fn steady_wire_bytes(&self) -> u64 {
        self.xfer.total_wire_bytes() + self.refresh_wire_bytes
    }

    /// The run's makespan in simulated seconds (`sim_time_ns / 1e9`; the
    /// virtual clock, not host wall time).
    pub fn seconds(&self) -> f64 {
        self.sim_time_ns as f64 / 1e9
    }

    /// Fraction of prefetched chunk refreshes the next iteration actually
    /// consumed, in `[0, 1]`. Returns 0.0 when nothing was prefetched.
    pub fn prefetch_hit_rate(&self) -> f64 {
        if self.prefetch_ops == 0 {
            return 0.0;
        }
        self.prefetch_hits as f64 / self.prefetch_ops as f64
    }

    /// Fraction of the makespan the COMPUTE engine sat idle, in `[0, 1]`
    /// (paper §2.2: 68 % for Subway BFS on friendster-konect). Returns 0.0
    /// for a zero-length run.
    pub fn gpu_idle_fraction(&self) -> f64 {
        if self.sim_time_ns == 0 {
            return 0.0;
        }
        self.gpu_idle_ns as f64 / self.sim_time_ns as f64
    }

    /// Of the traversed edges, the fraction served from the static region
    /// (always 0.0 for baselines, which have no static region).
    pub fn static_edge_fraction(&self) -> f64 {
        let total: u64 = self.per_iter.iter().map(|i| i.active_edges).sum();
        if total == 0 {
            return 0.0;
        }
        let stat: u64 = self.per_iter.iter().map(|i| i.static_edges).sum();
        stat as f64 / total as f64
    }

    /// One JSON object, the run's record: headline scalars, snapshot, events, iterations.
    pub fn summary_json(&self) -> String {
        let pulls = self.per_iter.iter().filter(|i| i.pull).count();
        let fp = self.output.fingerprint();
        let mut out = String::new();
        json::object(&mut out, |o| {
            o.num("schema_version", RUN_REPORT_SCHEMA_VERSION);
            o.str("system", self.system);
            o.str("algorithm", self.algorithm);
            for &(_, _, key, get) in SCALARS.iter().filter(|s| !s.2.is_empty()) {
                o.num(key, get(self));
            }
            o.num("pull_iterations", pulls);
            o.str("output_fp", format_args!("{fp:016x}"));
            o.num("events_dropped", self.events_dropped);
            o.opt("first_drop_at", self.first_drop_at);
            o.raw("metrics", &self.metrics.to_json());
            o.array("events", |a| {
                for e in self.events.iter() {
                    a.object(|o| e.json_into(o));
                }
            });
            o.array("per_iter", |a| {
                for i in &self.per_iter {
                    a.object(|o| {
                        o.num("active_vertices", i.active_vertices);
                        o.num("active_edges", i.active_edges);
                        o.num("payload_bytes", i.payload_bytes);
                        o.num("time_ns", i.time_ns);
                        o.num("static_edges", i.static_edges);
                        o.num("pull", i.pull);
                    });
                }
            });
        });
        out
    }
}

/// Derive per-window link/compute utilization from a finished span trace.
///
/// Link tracks are every track named with
/// [`ascetic_sim::COPY_STREAM_TRACK_PREFIX`] (their busy time is unioned,
/// so concurrent streams count covered time once); the compute track is
/// the one named [`ascetic_sim::Engine::Compute`]`.name()`. Wait spans
/// (arbitration stalls) never count as busy. Windows are
/// `(start_ns, end_ns)` pairs on the virtual clock, typically one per
/// iteration.
pub fn utilization_from_trace(trace: &Trace, windows: &[(u64, u64)]) -> Vec<IterUtilization> {
    let link: Vec<usize> = trace
        .tracks()
        .iter()
        .enumerate()
        .filter(|(_, n)| n.starts_with(ascetic_sim::COPY_STREAM_TRACK_PREFIX))
        .map(|(i, _)| i)
        .collect();
    let compute = trace.track_index(ascetic_sim::Engine::Compute.name());
    windows
        .iter()
        .map(|&(start_ns, end_ns)| {
            let link_busy_ns = trace.busy_union_ns(&link, start_ns, end_ns);
            let compute_busy_ns = compute.map_or(0, |c| trace.busy_ns(c, start_ns, end_ns));
            let both: Vec<usize> = link.iter().copied().chain(compute).collect();
            let either = trace.busy_union_ns(&both, start_ns, end_ns);
            IterUtilization {
                start_ns,
                end_ns,
                link_busy_ns,
                compute_busy_ns,
                // |A ∩ B| = |A| + |B| − |A ∪ B|
                overlap_ns: (link_busy_ns + compute_busy_ns).saturating_sub(either),
            }
        })
        .collect()
}

impl std::fmt::Display for RunReport {
    /// The human-readable summary the CLI prints by default.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "system:            {}", self.system)?;
        writeln!(f, "algorithm:         {}", self.algorithm)?;
        writeln!(f, "iterations:        {}", self.iterations)?;
        writeln!(
            f,
            "simulated time:    {:.3} ms",
            self.sim_time_ns as f64 / 1e6
        )?;
        writeln!(
            f,
            "transferred:       {:.2} MB steady + {:.2} MB prestore",
            self.steady_bytes() as f64 / 1e6,
            self.prestore_bytes as f64 / 1e6
        )?;
        if self.total_wire_bytes_with_prestore() != self.total_bytes_with_prestore() {
            writeln!(
                f,
                "on the wire:       {:.2} MB steady + {:.2} MB prestore (compressed)",
                self.steady_wire_bytes() as f64 / 1e6,
                self.prestore_wire_bytes as f64 / 1e6
            )?;
        }
        if self.prefetch_ops > 0 {
            writeln!(
                f,
                "prefetch:          {} chunk refreshes, {:.1} % hit, {:.2} MB wasted",
                self.prefetch_ops,
                self.prefetch_hit_rate() * 100.0,
                self.prefetch_wasted_bytes as f64 / 1e6
            )?;
        }
        writeln!(
            f,
            "kernels:           {} launches, {} edges",
            self.kernels.launches, self.kernels.edges
        )?;
        writeln!(
            f,
            "GPU idle:          {:.1} %",
            self.gpu_idle_fraction() * 100.0
        )?;
        let total: u64 = self.per_iter.iter().map(|i| i.active_edges).sum();
        if total > 0 {
            writeln!(
                f,
                "static region hit: {:.1} % of traversed edges",
                self.static_edge_fraction() * 100.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy() -> RunReport {
        RunReport {
            system: "X",
            algorithm: "BFS",
            iterations: 3,
            sim_time_ns: 1_000,
            xfer: XferStats {
                h2d_bytes: 500,
                h2d_wire_bytes: 500,
                h2d_prefetch_bytes: 0,
                d2h_bytes: 100,
                h2d_ops: 5,
                d2h_ops: 1,
            },
            prestore_bytes: 200,
            prestore_wire_bytes: 200,
            prestore_ns: 50,
            refresh_bytes: 30,
            refresh_wire_bytes: 30,
            prefetch_bytes: 0,
            prefetch_ops: 0,
            prefetch_hits: 0,
            prefetch_wasted_bytes: 0,
            kernels: KernelStats::default(),
            breakdown: Breakdown {
                gen_map_ns: 1,
                static_compute_ns: 2,
                gather_ns: 3,
                transfer_ns: 4,
                ondemand_compute_ns: 5,
            },
            gpu_idle_ns: 400,
            repartitions: 0,
            peak_iteration_payload_bytes: 64,
            avg_iteration_payload_bytes: 32,
            span_trace: None,
            utilization: vec![],
            events_dropped: 0,
            first_drop_at: None,
            metrics: MetricsSnapshot::new(),
            events: EventLog::default(),
            output: AlgoOutput::Distances(vec![]),
            per_iter: vec![],
        }
    }

    #[test]
    fn byte_accounting_views() {
        let r = dummy();
        assert_eq!(r.steady_bytes(), 630);
        assert_eq!(r.total_bytes_with_prestore(), 830);
        // raw path: wire equals payload everywhere
        assert_eq!(r.steady_wire_bytes(), 630);
        assert_eq!(r.total_wire_bytes_with_prestore(), 830);
    }

    #[test]
    fn wire_byte_views_track_compressed_transfers() {
        let mut r = dummy();
        r.xfer.h2d_wire_bytes = 200; // 500 payload shipped as 200
        r.prestore_wire_bytes = 80;
        r.refresh_wire_bytes = 10;
        assert_eq!(r.steady_wire_bytes(), 200 + 100 + 10);
        assert_eq!(r.total_wire_bytes_with_prestore(), 200 + 100 + 10 + 80);
        // payload views are untouched by the wire numbers
        assert_eq!(r.total_bytes_with_prestore(), 830);
        let text = r.to_string();
        assert!(text.contains("on the wire:"), "{text}");
    }

    #[test]
    fn breakdown_total() {
        assert_eq!(dummy().breakdown.total_ns(), 15);
    }

    #[test]
    fn idle_fraction() {
        let r = dummy();
        assert!((r.gpu_idle_fraction() - 0.4).abs() < 1e-12);
        assert_eq!(r.seconds(), 1e-6);
    }

    #[test]
    fn display_and_summaries_are_well_formed() {
        let r = dummy();
        let text = r.to_string();
        assert!(text.contains("system:            X"));
        assert!(text.contains("iterations:        3"));
        let json = r.summary_json();
        let head = r#""system":"X","algorithm":"BFS","iterations":3,"sim_time_ns":1000,"#;
        assert!(json.contains(head), "{json}");
        assert!(json.contains(r#""prestore_bytes":200,"refresh_bytes":30,"#));
        ascetic_obs::json::validate(&json).expect("summary JSON validates");
    }

    #[test]
    fn every_scalar_reads_back_from_summary_json() {
        use crate::{AsceticConfig, AsceticSystem, OutOfCoreSystem, PrefetchMode};
        use ascetic_graph::generators::uniform_graph;
        let g = uniform_graph(2_000, 16_000, false, 12);
        let dev =
            ascetic_sim::DeviceConfig::p100(g.num_vertices() as u64 * 24 + g.edge_bytes() * 2 / 5);
        let cfg = AsceticConfig::new(dev)
            .with_chunk_bytes(1024)
            .with_prefetch(PrefetchMode::NextFrontier);
        let r = AsceticSystem::new(cfg).run(&g, &ascetic_algos::PageRank::new());
        assert!(
            r.prefetch_ops > 0 && r.xfer.h2d_bytes > 0,
            "a run that moves bytes"
        );
        let json = r.summary_json();
        for &(name, gauge, key, get) in SCALARS {
            let value = get(&r);
            let kind = if gauge { "gauge" } else { "counter" };
            // a headline key, or a name in the embedded snapshot
            let headline = format!(",\"{key}\":{value},");
            let metric = format!("\"{name}\":{{\"type\":\"{kind}\",\"value\":{value}}}");
            let found = (!key.is_empty() && json.contains(&headline))
                || (!name.is_empty() && json.contains(&metric));
            assert!(found, "{name:?} / {key:?} = {value} is not in {json}");
        }
    }

    #[test]
    fn prefetch_accounting_views() {
        let mut r = dummy();
        assert_eq!(r.prefetch_hit_rate(), 0.0, "nothing prefetched yet");
        let text = r.to_string();
        assert!(!text.contains("prefetch:"), "silent when off: {text}");
        r.prefetch_bytes = 96;
        r.prefetch_ops = 3;
        r.prefetch_hits = 2;
        r.prefetch_wasted_bytes = 32;
        r.xfer.h2d_prefetch_bytes = 96;
        assert!((r.prefetch_hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.xfer.h2d_ondemand_bytes(), 500 - 96);
        let text = r.to_string();
        assert!(text.contains("prefetch:"), "{text}");
        let json = r.summary_json();
        let prefetch =
            r#""prefetch_bytes":96,"prefetch_ops":3,"prefetch_hits":2,"prefetch_wasted_bytes":32,"#;
        assert!(json.contains(prefetch), "{json}");
        ascetic_obs::json::validate(&json).expect("summary JSON validates");
    }

    #[test]
    fn drop_accounting_surfaces_in_summaries() {
        let mut r = dummy();
        let json = r.summary_json();
        assert!(json.contains("\"schema_version\":3"), "{json}");
        assert!(json.contains("\"events_dropped\":0"), "{json}");
        assert!(json.contains("\"first_drop_at\":null"), "{json}");
        r.events_dropped = 7;
        r.first_drop_at = Some(123);
        let json = r.summary_json();
        assert!(json.contains("\"events_dropped\":7"), "{json}");
        assert!(json.contains("\"first_drop_at\":123"), "{json}");
        ascetic_obs::json::validate(&json).expect("summary JSON validates");
    }

    #[test]
    fn utilization_from_trace_unions_streams_and_intersects_compute() {
        use ascetic_obs::SpanTracer;
        use ascetic_sim::{copy_stream_track_name, Engine};
        let mut tr = SpanTracer::new();
        let s0 = tr.track(&copy_stream_track_name(0));
        let s1 = tr.track(&copy_stream_track_name(1));
        let gpu = tr.track(Engine::Compute.name());
        // stream 0 busy [0,100), stream 1 busy [50,150) -> union 150
        tr.span(s0, 0, 100, "H2D", "dma");
        tr.span(s1, 50, 150, "H2D", "dma");
        // compute busy [80,200) -> overlap with link union = [80,150) = 70
        tr.span(gpu, 80, 200, "kernel", "kernel");
        let trace = tr.finish();
        let u = utilization_from_trace(&trace, &[(0, 200), (0, 100)]);
        assert_eq!(u.len(), 2);
        assert_eq!(u[0].link_busy_ns, 150);
        assert_eq!(u[0].compute_busy_ns, 120);
        assert_eq!(u[0].overlap_ns, 70);
        assert_eq!(u[0].window_ns(), 200);
        // clipped window
        assert_eq!(u[1].link_busy_ns, 100);
        assert_eq!(u[1].compute_busy_ns, 20);
        assert_eq!(u[1].overlap_ns, 20);
    }

    #[test]
    fn static_edge_fraction_counts_per_iter() {
        let mut r = dummy();
        assert_eq!(r.static_edge_fraction(), 0.0, "no iterations yet");
        r.per_iter.push(IterReport {
            active_edges: 100,
            static_edges: 75,
            ..IterReport::default()
        });
        assert!((r.static_edge_fraction() - 0.75).abs() < 1e-12);
    }
}
