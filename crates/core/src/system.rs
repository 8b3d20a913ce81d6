//! The common system interface and shared device-budget helpers.
//!
//! Ascetic and all three baselines implement [`OutOfCoreSystem`], so the
//! benchmark harness, the integration tests and the examples drive them
//! uniformly and compare like-for-like.

use ascetic_algos::traits::DEVICE_BYTES_PER_VERTEX;
use ascetic_algos::VertexProgram;
use ascetic_graph::Csr;
use ascetic_sim::{DevPtr, Gpu};

use crate::config::ConfigError;
use crate::report::RunReport;

/// Why a system refused to run a graph during [`OutOfCoreSystem::prepare`].
#[derive(Clone, Debug, PartialEq)]
pub enum PrepareError {
    /// The device-resident vertex arrays alone exceed device memory; every
    /// system here assumes vertices fit (the paper's setting).
    VerticesDontFit {
        /// Bytes the vertex arrays need.
        need: u64,
        /// Device capacity in bytes.
        capacity: u64,
    },
    /// What the vertex arrays leave of device memory cannot hold the two
    /// chunks Ascetic needs (one static slot plus the on-demand region).
    EdgeBudgetBelowTwoChunks {
        /// Edge budget in bytes, as the session's arena will see it.
        budget: u64,
        /// Configured chunk size in bytes.
        chunk: u64,
    },
    /// What the vertex arrays leave of device memory cannot hold one edge
    /// entry, so a streaming baseline (PT, Subway) has no edge buffer.
    EdgeBudgetBelowOneEdge {
        /// Edge budget in bytes, as the run's arena will see it.
        budget: u64,
        /// Bytes per edge entry of the graph (4 or 8).
        edge: u64,
    },
    /// The system's configuration is invalid for this graph.
    Config(ConfigError),
}

impl std::fmt::Display for PrepareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrepareError::VerticesDontFit { need, capacity } => write!(
                f,
                "vertex arrays need {need} B but the device holds {capacity} B"
            ),
            PrepareError::EdgeBudgetBelowTwoChunks { budget, chunk } => {
                write!(f, "edge budget {budget} B below two {chunk}-byte chunks")
            }
            PrepareError::EdgeBudgetBelowOneEdge { budget, edge } => {
                write!(f, "edge budget {budget} B below one {edge}-byte edge")
            }
            PrepareError::Config(e) => write!(f, "invalid configuration: {e}"),
        }
    }
}

impl std::error::Error for PrepareError {}

impl From<ConfigError> for PrepareError {
    fn from(e: ConfigError) -> Self {
        PrepareError::Config(e)
    }
}

/// Check the paper's standing assumption that the vertex arrays fit on
/// the device with `capacity_bytes` of memory (shared by every system's
/// [`OutOfCoreSystem::prepare`]); returns the bytes they need.
pub fn check_vertex_fit(g: &Csr, capacity_bytes: u64) -> Result<u64, PrepareError> {
    let need = g.num_vertices() as u64 * DEVICE_BYTES_PER_VERTEX;
    if need > capacity_bytes {
        return Err(PrepareError::VerticesDontFit {
            need,
            capacity: capacity_bytes,
        });
    }
    Ok(need)
}

/// [`check_vertex_fit`], then the edge budget [`edge_budget_bytes`] will
/// report of the word-granular arena once [`reserve_vertex_arrays`] has
/// run — what Ascetic's, PT's and Subway's `prepare` size edge data by.
pub fn check_edge_budget(g: &Csr, capacity_bytes: u64) -> Result<u64, PrepareError> {
    let vertex_bytes = check_vertex_fit(g, capacity_bytes)?;
    Ok(capacity_bytes / 4 * 4 - vertex_bytes)
}

/// An out-of-GPU-memory graph-processing system.
pub trait OutOfCoreSystem {
    /// Display name.
    fn name(&self) -> &'static str;

    /// Validate that this system can run `g` at all — configuration sanity
    /// plus the vertices-fit-on-device assumption — *before* committing to
    /// device allocation. Callers (the CLI, the bench harness, the serve
    /// layer) surface the error cleanly instead of panicking mid-run. The
    /// default accepts everything.
    fn prepare(&self, g: &Csr) -> Result<(), PrepareError> {
        let _ = g;
        Ok(())
    }

    /// Execute `prog` over `g`, returning the full report. The graph must
    /// be weighted iff the program needs weights.
    fn run<P: VertexProgram>(&self, g: &Csr, prog: &P) -> RunReport;
}

/// Reserve the device-resident vertex arrays (values, offsets/degrees and
/// the two bitmaps — the paper keeps "all vertices in the GPU memory") and
/// return the reservation. The remaining arena capacity is the *edge
/// budget* every system partitions.
///
/// # Panics
/// Panics if the vertex arrays alone exceed device memory — the paper's
/// setting assumes vertices always fit.
pub fn reserve_vertex_arrays(gpu: &mut Gpu, g: &Csr) -> DevPtr {
    let words = (g.num_vertices() as u64 * DEVICE_BYTES_PER_VERTEX / 4) as usize;
    match gpu.alloc(words) {
        Ok(p) => p,
        Err(e) => panic!(
            "vertex arrays ({} words) do not fit in device memory: {e}",
            words
        ),
    }
}

/// The edge budget in bytes left after the vertex reservation.
pub fn edge_budget_bytes(gpu: &Gpu) -> u64 {
    gpu.mem.available() as u64 * 4
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascetic_graph::generators::uniform_graph;
    use ascetic_sim::DeviceConfig;

    #[test]
    fn vertex_reservation_shrinks_edge_budget() {
        let g = uniform_graph(1_000, 5_000, false, 1);
        let mut gpu = Gpu::new(DeviceConfig::p100(1 << 20)); // 1 MiB
        let before = edge_budget_bytes(&gpu);
        let p = reserve_vertex_arrays(&mut gpu, &g);
        let after = edge_budget_bytes(&gpu);
        assert_eq!(before - after, p.len_bytes());
        assert_eq!(p.len_bytes(), 1_000 * DEVICE_BYTES_PER_VERTEX);
    }

    #[test]
    #[should_panic(expected = "do not fit")]
    fn oversized_vertex_set_panics() {
        let g = uniform_graph(100_000, 10, false, 1);
        let mut gpu = Gpu::new(DeviceConfig::p100(1 << 10));
        reserve_vertex_arrays(&mut gpu, &g);
    }

    #[test]
    fn check_vertex_fit_mirrors_the_reservation_panic() {
        let g = uniform_graph(1_000, 5_000, false, 1);
        assert!(check_vertex_fit(&g, 1 << 20).is_ok());
        let err = check_vertex_fit(&g, 1 << 10).unwrap_err();
        assert!(matches!(err, PrepareError::VerticesDontFit { .. }));
        assert!(err.to_string().contains("vertex arrays"));
    }

    #[test]
    fn ascetic_prepare_validates_the_config() {
        use crate::config::{AsceticConfig, CompressionMode, ConfigError};
        use crate::engine::AsceticSystem;
        use ascetic_graph::datasets::weighted_variant;
        let g = uniform_graph(1_000, 5_000, false, 1);
        let dev = DeviceConfig::p100(1 << 20);
        let sys = AsceticSystem::new(AsceticConfig::new(dev).with_chunk_bytes(1024));
        sys.prepare(&g).expect("valid config");
        // compression is never a reason to refuse a graph: weighted
        // payloads simply ship raw
        let adaptive = AsceticSystem::new(
            AsceticConfig::new(dev)
                .with_chunk_bytes(1024)
                .with_compression(CompressionMode::Adaptive),
        );
        assert!(adaptive.prepare(&g).is_ok());
        assert!(adaptive.prepare(&weighted_variant(&g)).is_ok());
        // knob errors surface here
        let bad = AsceticSystem::new(AsceticConfig::new(dev).with_od_buffers(0));
        assert_eq!(
            bad.prepare(&g).unwrap_err(),
            PrepareError::Config(ConfigError::ZeroOdBuffers)
        );
    }

    #[test]
    fn ascetic_prepare_rejects_an_edge_budget_below_two_chunks() {
        use crate::config::AsceticConfig;
        use crate::engine::AsceticSystem;
        let g = uniform_graph(4_000, 30_000, false, 5);
        // vertex arrays + 40 % of the edges, two bytes past a word boundary
        let mem = 4_000 * DEVICE_BYTES_PER_VERTEX + g.edge_bytes() * 2 / 5 + 2;
        let cfg = AsceticConfig::new(DeviceConfig::p100(mem));
        let err = AsceticSystem::new(cfg.with_chunk_bytes(65_536))
            .prepare(&g)
            .unwrap_err();
        // the budget is the word-granular arena's, not `mem - vertex_bytes`
        let budget = (mem / 4) * 4 - 4_000 * DEVICE_BYTES_PER_VERTEX;
        let mut gpu = Gpu::new(cfg.device);
        reserve_vertex_arrays(&mut gpu, &g);
        assert_eq!(edge_budget_bytes(&gpu), budget);
        assert_eq!(
            err,
            PrepareError::EdgeBudgetBelowTwoChunks {
                budget,
                chunk: 65_536
            }
        );
        let text = err.to_string();
        assert!(text.contains(&budget.to_string()) && text.contains("65536"));
        // exactly two chunks is the smallest budget a session accepts
        let fits = cfg.with_chunk_bytes(budget as usize / 2);
        assert!(AsceticSystem::new(fits).prepare(&g).is_ok());
        crate::session::AsceticSession::new(fits, &g);
    }
}
