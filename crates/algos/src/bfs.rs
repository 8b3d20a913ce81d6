//! Breadth-first search (push-based level synchronous).
//!
//! Distances are hop counts from a single source; an edge push proposes
//! `dist(src) + 1` at its target through an atomic min. Activation on
//! improvement makes the frontier exactly the classic BFS level set, giving
//! the paper's tiny active-edge ratios (Table 1: 0.8–4.5 %).

use std::sync::atomic::{AtomicU32, Ordering};

use ascetic_graph::{Csr, GraphPatch, VertexId, INF_DIST};
use ascetic_par::{atomic_min_u32, AtomicBitmap, Bitmap};

use crate::incremental::{forward_closure, in_boundary, RepairPlan};
use crate::traits::{AlgoOutput, Capabilities, EdgeSlice, VertexProgram};

/// BFS from a fixed source.
#[derive(Clone, Copy, Debug)]
pub struct Bfs {
    /// Source vertex.
    pub source: VertexId,
}

impl Bfs {
    /// BFS rooted at `source`.
    pub fn new(source: VertexId) -> Self {
        Bfs { source }
    }
}

/// BFS per-vertex state: the distance array plus the iteration-start
/// snapshot of active distances.
///
/// The snapshot (`frozen`) makes execution *bulk-synchronous*: a push uses
/// the source's distance as of the start of the iteration, never a value
/// improved mid-iteration by another thread. This keeps frontier sizes —
/// and therefore every simulated time and transfer number — deterministic
/// and level-accurate, matching the paper's per-iteration bitmap model.
pub struct BfsState {
    dist: Vec<AtomicU32>,
    frozen: Vec<AtomicU32>,
}

impl VertexProgram for Bfs {
    type State = BfsState;

    fn name(&self) -> &'static str {
        "BFS"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::new()
            .with_pull()
            .with_batchable()
            .with_incremental()
    }

    fn new_state(&self, g: &Csr) -> BfsState {
        let dist: Vec<AtomicU32> = (0..g.num_vertices())
            .map(|_| AtomicU32::new(INF_DIST))
            .collect();
        dist[self.source as usize].store(0, Ordering::Relaxed);
        let frozen = (0..g.num_vertices())
            .map(|_| AtomicU32::new(INF_DIST))
            .collect();
        BfsState { dist, frozen }
    }

    fn initial_frontier(&self, g: &Csr) -> Bitmap {
        let mut b = Bitmap::new(g.num_vertices());
        b.set(self.source as usize);
        b
    }

    fn compute(&self, _iteration: u32, active: &Bitmap, state: &BfsState) {
        for v in active.iter_ones() {
            state.frozen[v].store(state.dist[v].load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    #[inline]
    fn advance_push(
        &self,
        _lane: usize,
        src: VertexId,
        edges: EdgeSlice<'_>,
        state: &BfsState,
        next: &AtomicBitmap,
    ) {
        let d = state.frozen[src as usize].load(Ordering::Relaxed);
        debug_assert_ne!(d, INF_DIST, "active vertex must have been reached");
        let nd = d + 1;
        edges.for_each_target(|t| {
            if atomic_min_u32(&state.dist[t as usize], nd) {
                next.set(t as usize);
            }
        });
    }

    fn output(&self, state: &BfsState) -> AlgoOutput {
        AlgoOutput::Distances(
            state
                .dist
                .iter()
                .map(|d| d.load(Ordering::Relaxed))
                .collect(),
        )
    }

    /// Pull candidates: the still-unreached vertices. A push iteration can
    /// only ever improve `INF` vertices (level-synchronous proposals are
    /// `level + 1`, and every reached vertex already sits at or below
    /// that), so restricting the gather to them is exact.
    fn pull_targets_into(&self, _g: &Csr, _active: &Bitmap, state: &BfsState, out: &mut Bitmap) {
        for (v, d) in state.dist.iter().enumerate() {
            if d.load(Ordering::Relaxed) == INF_DIST {
                out.set(v);
            }
        }
    }

    /// Gather `min(frozen[parent] + 1)` over *all* active in-neighbors.
    ///
    /// No first-hit early exit: frontier vertices may carry mixed frozen
    /// distances (fleet exchange can activate a vertex a level "late"), and
    /// only the full min commutes with the push formulation's per-edge
    /// atomic mins — which is also what keeps the scanned-edge count, and
    /// therefore the simulated kernel time, thread-independent.
    #[inline]
    fn advance_pull(
        &self,
        v: VertexId,
        in_edges: EdgeSlice<'_>,
        active: &Bitmap,
        state: &BfsState,
        next: &AtomicBitmap,
    ) -> u64 {
        let mut best = INF_DIST;
        in_edges.for_each_target(|u| {
            if active.get(u as usize) {
                let nd = state.frozen[u as usize].load(Ordering::Relaxed) + 1;
                best = best.min(nd);
            }
        });
        if best != INF_DIST && atomic_min_u32(&state.dist[v as usize], best) {
            next.set(v as usize);
        }
        in_edges.len() as u64
    }

    /// Invalidate-then-settle. Deleted tree edges (`dist[v] == dist[u] + 1`)
    /// root a forward closure over the *old* graph's tight edges — every
    /// vertex whose only witness paths used a deleted edge lies inside it,
    /// because each hop of a shortest witness path is tight. Distances in
    /// the closure reset to `INF`; the settle frontier is the closure's
    /// surviving in-boundary in the *new* graph plus the sources of
    /// inserted edges (inserts only ever improve a monotone fixed point).
    fn repair(
        &self,
        g_old: &Csr,
        g_new: &Csr,
        csc_new: Option<&Csr>,
        patch: &GraphPatch,
        state: &BfsState,
    ) -> RepairPlan {
        let dist = |v: VertexId| state.dist[v as usize].load(Ordering::Relaxed);
        let src = self.source;
        let roots: Vec<VertexId> = patch
            .deletes
            .iter()
            .filter_map(|&(u, v, _)| {
                let (du, dv) = (dist(u), dist(v));
                (v != src && du != INF_DIST && dv != INF_DIST && dv == du + 1).then_some(v)
            })
            .collect();
        let mut seeds = Bitmap::new(g_new.num_vertices());
        if !roots.is_empty() {
            let in_a = forward_closure(g_old, roots, |s, t, _| {
                t != src && dist(s) != INF_DIST && dist(t) == dist(s) + 1
            });
            for (v, &a) in in_a.iter().enumerate() {
                if a {
                    state.dist[v].store(INF_DIST, Ordering::Relaxed);
                }
            }
            in_boundary(g_new, csc_new, &in_a, |p| {
                if dist(p) != INF_DIST {
                    seeds.set(p as usize);
                }
            });
        }
        for &(u, _, _) in &patch.inserts {
            if dist(u) != INF_DIST {
                seeds.set(u as usize);
            }
        }
        RepairPlan::Seeded(seeds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inmemory::run_in_memory;
    use crate::reference::bfs_reference;
    use ascetic_graph::generators::{rmat_graph, uniform_graph, RmatConfig};
    use ascetic_graph::GraphBuilder;

    #[test]
    fn line_graph_distances() {
        let mut b = GraphBuilder::new(5);
        for v in 0..4u32 {
            b.add_edge(v, v + 1);
        }
        let g = b.build();
        let res = run_in_memory(&g, &Bfs::new(0));
        assert_eq!(res.output, AlgoOutput::Distances(vec![0, 1, 2, 3, 4]));
        assert_eq!(res.iterations, 5, "4 frontier levels + empty check");
    }

    #[test]
    fn unreachable_stays_inf() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        // 2, 3 disconnected
        b.add_edge(2, 3);
        let g = b.build();
        let res = run_in_memory(&g, &Bfs::new(0));
        match res.output {
            AlgoOutput::Distances(d) => {
                assert_eq!(d, vec![0, 1, INF_DIST, INF_DIST]);
            }
            _ => panic!("wrong output type"),
        }
    }

    #[test]
    fn matches_reference_on_random_graphs() {
        for seed in 0..3 {
            let g = uniform_graph(500, 3_000, false, seed);
            let res = run_in_memory(&g, &Bfs::new(0));
            assert_eq!(
                res.output,
                AlgoOutput::Distances(bfs_reference(&g, 0)),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn matches_reference_on_rmat() {
        let g = rmat_graph(&RmatConfig::new(9, 5_000, 3).undirected(true));
        let res = run_in_memory(&g, &Bfs::new(1));
        assert_eq!(res.output, AlgoOutput::Distances(bfs_reference(&g, 1)));
    }

    #[test]
    fn frontier_activity_decreases_eventually() {
        let g = uniform_graph(2_000, 16_000, true, 7);
        let res = run_in_memory(&g, &Bfs::new(0));
        // BFS on a random graph: a few fat levels then empty.
        let total: u64 = res.log.iter().map(|l| l.active_edges).sum();
        assert!(total >= g.num_edges() / 10);
        assert!(res.iterations < 20);
    }
}
