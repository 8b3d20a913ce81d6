//! The scaled experimental environment.
//!
//! The paper's testbed (§4.1): P100 capped to 10 GB, datasets of 7–28 GB
//! (Table 3), K = 10 %, 16 KiB chunks, UVM with 64 KiB pages. All
//! experiments here run the same configuration divided by one scale factor
//! (default 1000; override with `ASCETIC_SCALE`), which preserves every
//! ratio the results depend on. Chunk and page sizes are *not* scaled —
//! at 1/1000 the chunk count per dataset (≈650 for FK) matches the order
//! of magnitude of the paper's Figure 2 chunking.

use ascetic_baselines::{AnySystem, PtSystem, SubwaySystem, UvmSystem};
use ascetic_core::{AsceticConfig, AsceticSystem};
use ascetic_graph::datasets::{Dataset, DatasetId, PAPER_GPU_MEM_BYTES};
use ascetic_graph::{Csr, VertexId};
use ascetic_sim::DeviceConfig;

/// Default scale divisor for benchmark binaries.
pub const DEFAULT_BENCH_SCALE: u64 = 1000;

/// The workspace algorithm registry, re-exported: the bench harness has no
/// private algorithm list. Metadata ([`Algo::weighted`], display names)
/// comes from the registry; the paper's table orderings live in
/// [`TABLE4_ORDER`]/[`TABLE1_ORDER`] below.
pub use ascetic_algos::Algo;

/// Table 4 row order: SSSP, PR, CC, BFS (the paper's four).
pub const TABLE4_ORDER: [Algo; 4] = [Algo::Sssp, Algo::Pr, Algo::Cc, Algo::Bfs];
/// Table 1 column order: BFS, SSSP, CC, PR.
pub const TABLE1_ORDER: [Algo; 4] = [Algo::Bfs, Algo::Sssp, Algo::Cc, Algo::Pr];

/// The experimental environment.
pub struct Env {
    /// Scale divisor relative to the paper's setup.
    pub scale: u64,
    /// Span-trace output directory (`ASCETIC_TRACE`). When set, every
    /// system the environment constructs records hierarchical spans, and
    /// [`Env::maybe_write_trace`] dumps one Perfetto `.json` per run.
    pub trace: Option<std::path::PathBuf>,
}

impl Env {
    /// Environment with the default (or `ASCETIC_SCALE`-overridden) scale.
    /// `ASCETIC_TRACE=DIR` additionally records span traces on every
    /// constructed system and routes per-run Perfetto dumps into `DIR`.
    /// Transfer modes are not environment: the `mechanisms` and
    /// `direction` experiments sweep them as variants.
    pub fn from_env() -> Env {
        let scale = std::env::var("ASCETIC_SCALE")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(DEFAULT_BENCH_SCALE);
        let trace = std::env::var_os("ASCETIC_TRACE").map(std::path::PathBuf::from);
        Env { scale, trace }
    }

    /// Environment with an explicit scale.
    pub fn with_scale(scale: u64) -> Env {
        Env { scale, trace: None }
    }

    /// Whether span tracing is armed (`ASCETIC_TRACE` set).
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Dump a run's span trace as `<ASCETIC_TRACE>/<label>.json` (Perfetto
    /// format). No-op — returning `None` — when `ASCETIC_TRACE` is unset
    /// or the report carries no trace.
    pub fn maybe_write_trace(
        &self,
        rep: &ascetic_core::RunReport,
        label: &str,
    ) -> Option<std::path::PathBuf> {
        let dir = self.trace.as_ref()?;
        let trace = rep.span_trace.as_ref()?;
        std::fs::create_dir_all(dir).ok()?;
        let safe: String = label
            .chars()
            .map(|c| if c.is_alphanumeric() { c } else { '_' })
            .collect();
        let path = dir.join(format!("{safe}.json"));
        let json = trace.to_perfetto_json(ascetic_core::RUN_REPORT_SCHEMA_VERSION);
        match std::fs::write(&path, json) {
            Ok(()) => {
                eprintln!("    trace: {}", path.display());
                Some(path)
            }
            Err(e) => {
                eprintln!("    trace write failed for {}: {e}", path.display());
                None
            }
        }
    }

    /// Build one dataset stand-in.
    pub fn dataset(&self, id: DatasetId) -> Dataset {
        Dataset::build(id, self.scale)
    }

    /// Simulated device with the paper's (scaled) 10 GB cap.
    pub fn device(&self) -> DeviceConfig {
        self.device_with_mem(PAPER_GPU_MEM_BYTES / self.scale)
    }

    /// Simulated device with an explicit memory capacity (Figure 11 sweep).
    pub fn device_with_mem(&self, mem_bytes: u64) -> DeviceConfig {
        let mut d = DeviceConfig::p100(mem_bytes);
        // keep page/chunk granularity proportionate under extreme scaling
        if self.scale > 4000 {
            d.uvm.page_bytes = (d.uvm.page_bytes * 4000 / self.scale).max(512);
        }
        d
    }

    /// Chunk size: the paper's 16 KiB, shrunk proportionally when the
    /// scale is extreme (tests) so chunk counts stay meaningful.
    pub fn chunk_bytes(&self) -> usize {
        if self.scale > 4000 {
            (16 * 1024 * 4000 / self.scale as usize).max(256)
        } else {
            16 * 1024
        }
    }

    /// Paper-default Ascetic configuration on this environment's device.
    pub fn ascetic_cfg(&self) -> AsceticConfig {
        AsceticConfig::new(self.device())
            .with_chunk_bytes(self.chunk_bytes())
            .with_tracing(self.tracing())
    }

    /// The Ascetic system under paper defaults.
    pub fn ascetic(&self) -> AsceticSystem {
        AsceticSystem::new(self.ascetic_cfg())
    }

    /// The Subway baseline.
    pub fn subway(&self) -> SubwaySystem {
        SubwaySystem::new(self.device()).with_tracing(self.tracing())
    }

    /// The PT baseline.
    pub fn pt(&self) -> PtSystem {
        PtSystem::new(self.device()).with_tracing(self.tracing())
    }

    /// The UVM baseline.
    pub fn uvm(&self) -> UvmSystem {
        UvmSystem::new(self.device()).with_tracing(self.tracing())
    }

    /// Any requested system behind the single [`AnySystem`] dispatch point
    /// (the one construction site shared by the grid runner and the CLI).
    pub fn system(&self, sys: crate::run::Sys) -> AnySystem {
        use crate::run::Sys;
        match sys {
            Sys::Pt => self.pt().into(),
            Sys::Subway => self.subway().into(),
            Sys::Uvm => self.uvm().into(),
            Sys::Ascetic => self.ascetic().into(),
        }
    }
}

/// Deterministic source vertex for BFS/SSSP: the highest-out-degree vertex
/// (a hub, so traversals cover the graph; ties break to the lowest id).
pub fn source_vertex(g: &Csr) -> VertexId {
    (0..g.num_vertices() as VertexId)
        .max_by_key(|&v| (g.degree(v), std::cmp::Reverse(v)))
        .unwrap_or(0)
}

/// Instantiate `algo` for a bench run: single-source programs root at the
/// dataset's hub ([`source_vertex`]).
pub fn bench_program(g: &Csr, algo: Algo) -> ascetic_algos::AnyProgram {
    algo.program_on(g, source_vertex(g))
        .expect("the hub is a vertex of its own graph")
}

/// Run `algo` on `g` (already weighted if needed) under a system, via the
/// common trait.
pub fn run_algo<S: ascetic_core::OutOfCoreSystem>(
    sys: &S,
    g: &Csr,
    algo: Algo,
) -> ascetic_core::RunReport {
    sys.run(g, &bench_program(g, algo))
}

/// Run `algo` in memory (oracle + activity log).
pub fn run_algo_in_memory(g: &Csr, algo: Algo) -> ascetic_algos::InMemoryResult {
    ascetic_algos::inmemory::run_in_memory(g, &bench_program(g, algo))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascetic_core::OutOfCoreSystem;

    #[test]
    fn env_scaling_is_consistent() {
        let env = Env::with_scale(20_000);
        let ds = env.dataset(DatasetId::Fk);
        let dev = env.device();
        // dataset oversubscribes the device for SSSP like the paper
        assert!(ds.weighted().edge_bytes() > dev.mem_bytes);
        assert!(env.chunk_bytes() >= 256);
    }

    #[test]
    fn source_vertex_is_a_hub() {
        let env = Env::with_scale(50_000);
        let g = env.dataset(DatasetId::Fk).graph;
        let s = source_vertex(&g);
        let avg = g.num_edges() as f64 / g.num_vertices() as f64;
        assert!(g.degree(s) as f64 > avg, "source should be a hub");
    }

    #[test]
    fn all_systems_agree_on_a_small_dataset() {
        let env = Env::with_scale(50_000);
        let pd = crate::run::PreparedDataset::build(&env, DatasetId::Gs);
        for algo in TABLE4_ORDER {
            let g = pd.graph(algo);
            let oracle = run_algo_in_memory(g, algo);
            let asc = run_algo(&env.ascetic(), g, algo);
            assert_eq!(asc.output, oracle.output, "Ascetic {}", algo.display());
            let sw = run_algo(&env.subway(), g, algo);
            assert_eq!(sw.output, oracle.output, "Subway {}", algo.display());
            let pt = run_algo(&env.pt(), g, algo);
            assert_eq!(pt.output, oracle.output, "PT {}", algo.display());
            let uv = run_algo(&env.uvm(), g, algo);
            assert_eq!(uv.output, oracle.output, "UVM {}", algo.display());
        }
    }

    #[test]
    fn any_system_dispatch_matches_direct_construction() {
        use crate::run::Sys;
        let env = Env::with_scale(50_000);
        let g = env.dataset(DatasetId::Gs).graph;
        for sys in [Sys::Pt, Sys::Subway, Sys::Uvm, Sys::Ascetic] {
            let direct = match sys {
                Sys::Pt => run_algo(&env.pt(), &g, Algo::Bfs),
                Sys::Subway => run_algo(&env.subway(), &g, Algo::Bfs),
                Sys::Uvm => run_algo(&env.uvm(), &g, Algo::Bfs),
                Sys::Ascetic => run_algo(&env.ascetic(), &g, Algo::Bfs),
            };
            let system = env.system(sys);
            system.prepare(&g).expect("small dataset fits");
            let via = run_algo(&system, &g, Algo::Bfs);
            assert_eq!(via.system, direct.system, "{}", sys.name());
            assert_eq!(via.output, direct.output, "{}", sys.name());
            assert_eq!(via.xfer, direct.xfer, "{}", sys.name());
            assert_eq!(via.sim_time_ns, direct.sim_time_ns, "{}", sys.name());
            assert_eq!(via.kernels, direct.kernels, "{}", sys.name());
        }
    }

    #[test]
    fn system_names() {
        let env = Env::with_scale(50_000);
        assert_eq!(env.ascetic().name(), "Ascetic");
        assert_eq!(env.subway().name(), "Subway");
        assert_eq!(env.pt().name(), "PT");
        assert_eq!(env.uvm().name(), "UVM");
    }
}
