//! Memory-unconstrained runner.
//!
//! Executes a [`VertexProgram`] directly over the host CSR with no device,
//! no partitioning and no transfers — the shared driver loop
//! ([`crate::ops::Drive`]) around a bare [`crate::ops::advance_frontier`].
//! Three jobs:
//!
//! 1. **Semantic oracle** — every out-of-core system must produce exactly
//!    this output (integration tests enforce it);
//! 2. **Workload profiler** — the per-iteration [`IterationLog`] yields the
//!    active-edge ratios of the paper's Table 1 and the working-set sizes
//!    behind Table 2;
//! 3. **Iteration-shape source** — the benchmark harness uses the logs to
//!    reason about K (the paper's active-fraction parameter, §3.3).

use ascetic_graph::Csr;
use ascetic_par::Bitmap;

use crate::ops::{advance_frontier, Drive, NextFrontier};
use crate::traits::{AlgoOutput, VertexProgram};

/// Per-iteration activity record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IterationLog {
    /// Iteration index (0-based).
    pub iteration: u32,
    /// Vertices active at the start of the iteration.
    pub active_vertices: u64,
    /// Sum of their out-degrees (edges traversed this iteration).
    pub active_edges: u64,
}

/// Result of an in-memory run.
#[derive(Clone, Debug)]
pub struct InMemoryResult {
    /// Final program output.
    pub output: AlgoOutput,
    /// Number of iterations executed (until the frontier emptied).
    pub iterations: u32,
    /// Per-iteration activity.
    pub log: Vec<IterationLog>,
    /// Total edges traversed across the run.
    pub total_edges: u64,
}

impl InMemoryResult {
    /// Mean fraction of the graph's edges that were active per iteration —
    /// the paper's Table 1 metric ("Average percentages of active edges per
    /// iteration").
    pub fn avg_active_edge_fraction(&self, g: &Csr) -> f64 {
        if self.log.is_empty() || g.num_edges() == 0 {
            return 0.0;
        }
        let sum: f64 = self
            .log
            .iter()
            .map(|l| l.active_edges as f64 / g.num_edges() as f64)
            .sum();
        sum / self.log.len() as f64
    }
}

/// Run `prog` over `g` entirely in memory: [`crate::ops::Drive`] around one
/// [`crate::ops::advance_frontier`] per iteration.
pub fn run_in_memory<P: VertexProgram>(g: &Csr, prog: &P) -> InMemoryResult {
    if prog.capabilities().weights {
        assert!(g.is_weighted(), "{} requires weights", prog.name());
    }
    let state = prog.new_state(g);
    let active = prog.initial_frontier(g);
    run_in_memory_from(g, prog, &state, active)
}

/// Run `prog` over `g` from an existing `state` and starting frontier —
/// the *settle* half of incremental repair (and the warm re-run of a
/// [`crate::incremental::RepairPlan::Restart`]). [`run_in_memory`] is this
/// with a fresh state and the program's initial frontier.
pub fn run_in_memory_from<P: VertexProgram>(
    g: &Csr,
    prog: &P,
    state: &P::State,
    mut active: Bitmap,
) -> InMemoryResult {
    let mut log = Vec::new();
    let mut total_edges = 0u64;
    let mut next = NextFrontier::new(g.num_vertices());
    let mut nodes = Vec::new();

    let mut drive = Drive::new(prog, g, state);
    while let Some(iteration) = drive.begin(&mut active) {
        let active_edges = advance_frontier(prog, g, &active, state, next.writer(), &mut nodes);
        log.push(IterationLog {
            iteration,
            active_vertices: nodes.len() as u64,
            active_edges,
        });
        total_edges += active_edges;
        drive.end(&mut active, &mut next);
    }

    InMemoryResult {
        output: prog.output(state),
        iterations: drive.iterations(),
        log,
        total_edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::Bfs;
    use crate::cc::Cc;
    use crate::pr::PageRank;
    use ascetic_graph::generators::uniform_graph;
    use ascetic_graph::GraphBuilder;

    #[test]
    fn empty_frontier_terminates_immediately() {
        // BFS from an isolated vertex: 1 iteration (source only), then done.
        let mut b = GraphBuilder::new(3);
        b.add_edge(1, 2);
        let g = b.build();
        let res = run_in_memory(&g, &Bfs::new(0));
        assert_eq!(res.iterations, 1);
        assert_eq!(res.log[0].active_vertices, 1);
        assert_eq!(res.log[0].active_edges, 0);
        assert_eq!(res.total_edges, 0);
    }

    #[test]
    fn log_sums_to_total() {
        let g = uniform_graph(400, 3_000, true, 1);
        let res = run_in_memory(&g, &Cc::new());
        let sum: u64 = res.log.iter().map(|l| l.active_edges).sum();
        assert_eq!(sum, res.total_edges);
        assert_eq!(res.log.len() as u32, res.iterations);
    }

    #[test]
    fn active_fraction_in_unit_range() {
        let g = uniform_graph(300, 2_000, false, 2);
        let res = run_in_memory(&g, &PageRank::new());
        let f = res.avg_active_edge_fraction(&g);
        assert!(f > 0.0 && f <= 1.0, "fraction {f}");
    }

    #[test]
    fn iteration_indices_are_sequential() {
        let g = uniform_graph(200, 1_500, true, 3);
        let res = run_in_memory(&g, &Bfs::new(0));
        for (i, l) in res.log.iter().enumerate() {
            assert_eq!(l.iteration, i as u32);
        }
    }
}
