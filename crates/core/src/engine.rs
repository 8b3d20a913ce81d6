//! The one-shot Ascetic system, and the report assembly every system
//! shares.
//!
//! [`AsceticSystem`] is [`OutOfCoreSystem`] over a single-run
//! [`AsceticSession`]: `prepare` is the typed admission check (vertices
//! fit, the configuration suits the graph, the edge budget holds two
//! chunks) and `run` builds a session and runs it once. The Manager's
//! per-iteration orchestration (paper Figures 3–6) lives in
//! [`crate::session`] — one frame for both traversal directions,
//! `DESIGN.md` §17. With overlap enabled (the default) it lays an
//! iteration out as:
//!
//! ```text
//! GPU compute :  [GenDataMap][ Static Region compute ][ OD compute b0 ][ b1 ]...
//! GPU copy    :                 [ H2D b0 ][ H2D b1 ]...
//! CPU         :                 [ gather b0 ][ gather b1 ]...
//! ```
//!
//! All kernel *work* really executes on host threads against device-arena
//! data; all *times* come from the virtual clock, so reports are exact and
//! reproducible.

use ascetic_algos::{AlgoOutput, VertexProgram};
use ascetic_graph::Csr;
use ascetic_obs::MetricsSnapshot;
use ascetic_sim::{Engine, Gpu, KernelStats, SimTime, XferStats};

use crate::config::AsceticConfig;
use crate::report::{utilization_from_trace, Breakdown, IterReport, RunReport, SCALARS};
use crate::session::AsceticSession;
use crate::system::{check_edge_budget, OutOfCoreSystem, PrepareError};

/// The Ascetic out-of-core system.
///
/// ```
/// use ascetic_core::{AsceticConfig, AsceticSystem, OutOfCoreSystem};
/// use ascetic_algos::Bfs;
/// use ascetic_graph::generators::uniform_graph;
/// use ascetic_sim::DeviceConfig;
///
/// let g = uniform_graph(2_000, 16_000, false, 7);
/// // a device holding ~40% of the edge data (plus vertex arrays)
/// let dev = DeviceConfig::p100(2_000 * 24 + g.edge_bytes() * 2 / 5);
/// let sys = AsceticSystem::new(AsceticConfig::new(dev).with_chunk_bytes(1024));
/// let report = sys.run(&g, &Bfs::new(0));
/// assert!(report.iterations > 0);
/// assert!(report.prestore_bytes > 0); // static region was pre-filled
/// ```
pub struct AsceticSystem {
    /// Configuration (device, K, policies).
    pub cfg: AsceticConfig,
}

impl AsceticSystem {
    /// An Ascetic instance with the given configuration.
    pub fn new(cfg: AsceticConfig) -> Self {
        AsceticSystem { cfg }
    }
}

impl OutOfCoreSystem for AsceticSystem {
    fn name(&self) -> &'static str {
        "Ascetic"
    }

    fn prepare(&self, g: &Csr) -> Result<(), PrepareError> {
        let budget = check_edge_budget(g, self.cfg.device.mem_bytes)?;
        self.cfg.build()?;
        let chunk = self.cfg.chunk_bytes as u64;
        if budget < 2 * chunk {
            return Err(PrepareError::EdgeBudgetBelowTwoChunks { budget, chunk });
        }
        Ok(())
    }

    fn run<P: VertexProgram>(&self, g: &Csr, prog: &P) -> RunReport {
        // One-shot = a single-run session (see `crate::session` for the
        // multi-run amortization API).
        AsceticSession::new(self.cfg, g).run(prog)
    }
}

/// What a run's numbers are measured from. The default — nothing came
/// before — is a one-shot system's base and that of a session's first run,
/// which therefore owns whatever the device did while it was set up (the
/// prestore); a later run's base is the device as its `begin_run` found it.
#[derive(Default)]
pub struct RunBase {
    /// The registry as it stood: the run's metrics are the diff against it.
    pub metrics: MetricsSnapshot,
    /// The device clock, ns.
    pub clock_ns: u64,
    /// The compute engine's busy time, ns (the mark has no exported name).
    pub compute_busy_ns: u64,
    /// Duration of the prestore this run owns, ns.
    pub prestore_ns: u64,
}

/// A run's ledger, the same for the session and the baseline frame: the
/// base its numbers are measured from, the time components its system
/// charges, and one report row and one `(start_ns, end_ns)` window per
/// closed iteration. It never branches on its caller.
#[derive(Default)]
pub struct RunLedger {
    /// What the run is measured from.
    pub(crate) base: RunBase,
    /// Time components the system charges as it goes.
    pub breakdown: Breakdown,
    // one row and one window per closed iteration, pushed together
    per_iter: Vec<IterReport>,
    iter_windows: Vec<(u64, u64)>,
}

impl RunLedger {
    /// Iterations closed so far.
    pub(crate) fn iterations(&self) -> u32 {
        self.per_iter.len() as u32
    }

    /// Close an iteration that ran from `start` to `end`: its window, and
    /// `row` with its time filled in.
    pub fn close(&mut self, start: SimTime, end: SimTime, mut row: IterReport) {
        self.iter_windows.push((start.0, end.0));
        row.time_ns = end.since(start);
        self.per_iter.push(row);
    }

    /// Assemble the run's [`RunReport`] from the final device state. A
    /// run's numbers are one diff: the device registry — the only place
    /// anything was counted — against the base, and every scalar field is
    /// read off that snapshot. When tracing was enabled the iteration
    /// windows drive the [`RunReport::utilization`] timeline.
    pub fn into_report(
        self,
        system: &'static str,
        algorithm: &'static str,
        gpu: &mut Gpu,
        output: AlgoOutput,
    ) -> RunReport {
        let (base, per_iter) = (&self.base, &self.per_iter);
        let peak = per_iter.iter().map(|i| i.payload_bytes).max().unwrap_or(0);
        let avg = if per_iter.is_empty() {
            0
        } else {
            per_iter.iter().map(|i| i.payload_bytes).sum::<u64>() / per_iter.len() as u64
        };
        // taking the tracer leaves the device armed as it was; taking the event
        // log leaves an empty one behind
        let span_trace = gpu.timeline.take_tracer().map(|t| t.finish());
        let utilization = span_trace
            .as_ref()
            .map(|t| utilization_from_trace(t, &self.iter_windows))
            .unwrap_or_default();
        let events = gpu.obs.take_events();
        let sim_time_ns = gpu.elapsed().0 - base.clock_ns;
        let compute_busy_ns = gpu.timeline.busy_ns(Engine::Compute) - base.compute_busy_ns;
        let mut metrics = gpu.obs.registry.snapshot().diff(&base.metrics);
        metrics.set_label("system", system);
        metrics.set_label("algo", algorithm);
        let tally = |name: &str| metrics.counter(name).unwrap_or(0);
        let mut report = RunReport {
            system,
            algorithm,
            iterations: self.iterations(),
            sim_time_ns,
            xfer: XferStats {
                h2d_bytes: tally("xfer.h2d_bytes"),
                h2d_wire_bytes: tally("xfer.h2d_wire_bytes"),
                h2d_prefetch_bytes: tally("prefetch.bytes"),
                d2h_bytes: tally("xfer.d2h_bytes"),
                h2d_ops: tally("xfer.h2d_ops"),
                d2h_ops: tally("xfer.d2h_ops"),
            },
            prestore_bytes: tally("prestore.bytes"),
            prestore_wire_bytes: tally("prestore.wire_bytes"),
            prestore_ns: base.prestore_ns,
            refresh_bytes: tally("refresh.bytes"),
            refresh_wire_bytes: tally("refresh.wire_bytes"),
            prefetch_bytes: tally("prefetch.bytes"),
            prefetch_ops: tally("prefetch.ops"),
            prefetch_hits: tally("prefetch.hits"),
            prefetch_wasted_bytes: tally("prefetch.waste_bytes"),
            kernels: KernelStats {
                launches: tally("kernel.launches"),
                edges: tally("kernel.edges"),
                vertices: tally("kernel.vertices"),
                time_ns: tally("kernel.time_ns"),
            },
            breakdown: self.breakdown,
            gpu_idle_ns: sim_time_ns.saturating_sub(compute_busy_ns),
            repartitions: tally("repartitions") as u32,
            span_trace,
            utilization,
            events_dropped: events.dropped(),
            first_drop_at: events.first_drop_at(),
            metrics,
            events,
            peak_iteration_payload_bytes: peak,
            avg_iteration_payload_bytes: avg,
            output,
            per_iter: self.per_iter,
        };
        // A name the registry never saw is written from the report, once: the
        // scalars derived here (clock, idle, payload, iterations, drops) at
        // their value, a counter no operation bumped at zero.
        for &(name, gauge, _, get) in SCALARS.iter().filter(|s| !s.0.is_empty()) {
            let value = get(&report);
            if gauge {
                report.metrics.set_gauge(name, value);
            } else if report.metrics.counter(name).is_none() {
                report.metrics.set_counter(name, value);
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FillPolicy;
    use ascetic_algos::inmemory::run_in_memory;
    use ascetic_algos::{Bfs, Cc, PageRank, Sssp};
    use ascetic_graph::datasets::weighted_variant;
    use ascetic_graph::generators::{rmat_graph, uniform_graph, RmatConfig};
    use ascetic_sim::DeviceConfig;

    impl RunLedger {
        /// The rows of the iterations closed so far.
        pub(crate) fn rows(&self) -> &[IterReport] {
            &self.per_iter
        }
    }

    /// A device sized so the test graph heavily oversubscribes it.
    fn small_device_for(g: &Csr) -> DeviceConfig {
        // vertex arrays + ~40% of the edge bytes
        let vertex = g.num_vertices() as u64 * 24;
        DeviceConfig::p100(vertex + g.edge_bytes() * 2 / 5)
    }

    fn cfg_for(g: &Csr) -> AsceticConfig {
        // test graphs are ~100 KB, so scale the chunk down with them
        AsceticConfig::new(small_device_for(g))
            .with_k(0.10)
            .with_chunk_bytes(1024)
    }

    #[test]
    fn bfs_matches_oracle_under_oversubscription() {
        let g = rmat_graph(&RmatConfig::new(11, 30_000, 5).undirected(true));
        let sys = AsceticSystem::new(cfg_for(&g));
        let rep = sys.run(&g, &Bfs::new(0));
        let oracle = run_in_memory(&g, &Bfs::new(0));
        assert_eq!(rep.output, oracle.output);
        assert_eq!(rep.iterations, oracle.iterations);
    }

    #[test]
    fn cc_matches_oracle() {
        let g = uniform_graph(3_000, 20_000, true, 2);
        let sys = AsceticSystem::new(cfg_for(&g));
        let rep = sys.run(&g, &Cc::new());
        assert_eq!(rep.output, run_in_memory(&g, &Cc::new()).output);
    }

    #[test]
    fn sssp_matches_oracle() {
        let g = weighted_variant(&uniform_graph(2_000, 14_000, false, 3));
        let sys = AsceticSystem::new(cfg_for(&g));
        let rep = sys.run(&g, &Sssp::new(0));
        assert_eq!(rep.output, run_in_memory(&g, &Sssp::new(0)).output);
    }

    #[test]
    fn pr_matches_oracle_exactly() {
        // fixed-point PR is bit-deterministic: out-of-core == in-memory
        let g = uniform_graph(2_000, 16_000, false, 4);
        let sys = AsceticSystem::new(cfg_for(&g));
        let rep = sys.run(&g, &PageRank::new());
        assert_eq!(rep.output, run_in_memory(&g, &PageRank::new()).output);
    }

    #[test]
    fn static_region_serves_most_bfs_edges() {
        let g = rmat_graph(&RmatConfig::new(11, 30_000, 7).undirected(true));
        let sys = AsceticSystem::new(cfg_for(&g));
        let rep = sys.run(&g, &Bfs::new(0));
        let static_edges: u64 = rep.per_iter.iter().map(|i| i.static_edges).sum();
        let total: u64 = rep.per_iter.iter().map(|i| i.active_edges).sum();
        assert!(total > 0);
        assert!(
            static_edges * 100 / total > 20,
            "static region should serve a solid share: {static_edges}/{total}"
        );
        // steady transfers must undercut shipping every active edge
        assert!(rep.xfer.h2d_bytes < total * g.bytes_per_edge() as u64);
    }

    #[test]
    fn overlap_speeds_up_the_run() {
        let g = uniform_graph(4_000, 40_000, false, 6);
        let on = AsceticSystem::new(cfg_for(&g).with_overlap(true)).run(&g, &PageRank::new());
        let off = AsceticSystem::new(cfg_for(&g).with_overlap(false)).run(&g, &PageRank::new());
        assert_eq!(on.output, off.output, "overlap must not change results");
        assert!(
            on.sim_time_ns < off.sim_time_ns,
            "overlap on: {} ns, off: {} ns",
            on.sim_time_ns,
            off.sim_time_ns
        );
    }

    #[test]
    fn fill_policies_do_not_change_results() {
        let g = uniform_graph(2_000, 15_000, true, 8);
        let base = cfg_for(&g);
        let front = AsceticSystem::new(base.with_fill(FillPolicy::Front)).run(&g, &Cc::new());
        let rear = AsceticSystem::new(base.with_fill(FillPolicy::Rear)).run(&g, &Cc::new());
        let rand =
            AsceticSystem::new(base.with_fill(FillPolicy::Random { seed: 3 })).run(&g, &Cc::new());
        assert_eq!(front.output, rear.output);
        assert_eq!(front.output, rand.output);
    }

    #[test]
    fn prestore_accounted_separately() {
        let g = uniform_graph(2_000, 15_000, false, 10);
        let rep = AsceticSystem::new(cfg_for(&g)).run(&g, &Bfs::new(0));
        assert!(rep.prestore_bytes > 0, "static region must be prefilled");
        assert!(rep.total_bytes_with_prestore() >= rep.steady_bytes() + rep.prestore_bytes);
    }

    #[test]
    fn deterministic_runs() {
        let g = uniform_graph(1_500, 12_000, false, 11);
        let a = AsceticSystem::new(cfg_for(&g)).run(&g, &PageRank::new());
        let b = AsceticSystem::new(cfg_for(&g)).run(&g, &PageRank::new());
        assert_eq!(a.sim_time_ns, b.sim_time_ns);
        assert_eq!(a.xfer, b.xfer);
        assert_eq!(a.output, b.output);
    }

    #[test]
    fn whole_dataset_fits_means_no_ondemand_traffic() {
        let g = uniform_graph(500, 3_000, false, 12);
        // device holds everything comfortably
        let dev = DeviceConfig::p100(g.num_vertices() as u64 * 24 + g.edge_bytes() * 4);
        let rep = AsceticSystem::new(AsceticConfig::new(dev)).run(&g, &Bfs::new(0));
        assert_eq!(rep.output, run_in_memory(&g, &Bfs::new(0)).output);
        assert_eq!(rep.xfer.h2d_bytes, 0, "everything is static");
        assert_eq!(rep.prestore_bytes, g.edge_bytes());
    }

    /// R = 0 leaves the region no slot: every program is served on demand
    /// and matches its oracle, and next-frontier prefetch has nothing to
    /// load or evict, so turning it on changes no byte of the run — under
    /// either compression mode and in every direction the program can take.
    #[test]
    fn forced_tiny_static_ratio_still_correct() {
        use crate::config::CompressionMode;
        use crate::config::DirectionMode::{Adaptive, Pull, Push};
        use crate::prefetch::PrefetchMode;
        use ascetic_algos::{Algo, ProgramOpts};
        let plain = uniform_graph(1_000, 8_000, false, 13);
        let weighted = weighted_variant(&plain);
        for algo in Algo::ALL {
            let g = if algo.weighted() { &weighted } else { &plain };
            let prog = algo.program(&ProgramOpts::from_source(0));
            let oracle = run_in_memory(g, &prog).output;
            let directions = if algo.pull() {
                &[Push, Adaptive, Pull][..]
            } else {
                &[Push]
            };
            for compression in [CompressionMode::Off, CompressionMode::Adaptive] {
                for &direction in directions {
                    let cfg = cfg_for(g)
                        .with_static_ratio(0.0)
                        .with_compression(compression)
                        .with_direction(direction);
                    let run = |mode| AsceticSystem::new(cfg.with_prefetch(mode)).run(g, &prog);
                    let (off, on) = (run(PrefetchMode::Off), run(PrefetchMode::NextFrontier));
                    let what = format!("{algo} {compression} {direction}");
                    assert_eq!(off.output, oracle, "{what}");
                    assert_eq!(on.output, oracle, "{what}");
                    assert_eq!(off.prestore_bytes, 0, "{what}");
                    let static_edges: u64 = off.per_iter.iter().map(|i| i.static_edges).sum();
                    assert_eq!(
                        static_edges, 0,
                        "{what}: R=0 must serve everything on demand"
                    );
                    assert_eq!(on.prefetch_ops, 0, "{what}");
                    assert_eq!(on.summary_json(), off.summary_json(), "{what}");
                }
            }
        }
    }
}
