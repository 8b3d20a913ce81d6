//! Single-source shortest paths (push-based Bellman–Ford with frontier).
//!
//! A push proposes `dist(src) + w(src,t)` through an atomic min; targets
//! whose distance improved join the next frontier (label-correcting).
//! Requires edge weights — the paper doubles the edge footprint for SSSP.

use std::sync::atomic::{AtomicU32, Ordering};

use ascetic_graph::{Csr, GraphPatch, VertexId, INF_DIST};
use ascetic_par::{atomic_min_u32, AtomicBitmap, Bitmap};

use crate::incremental::{forward_closure, in_boundary, RepairPlan};
use crate::traits::{AlgoOutput, Capabilities, EdgeSlice, VertexProgram};

/// SSSP from a fixed source over non-negative `u32` weights.
#[derive(Clone, Copy, Debug)]
pub struct Sssp {
    /// Source vertex.
    pub source: VertexId,
}

impl Sssp {
    /// SSSP rooted at `source`.
    pub fn new(source: VertexId) -> Self {
        Sssp { source }
    }
}

/// SSSP per-vertex state: the distance array plus the iteration-start
/// snapshot of active distances (bulk-synchronous semantics — see
/// [`crate::bfs::BfsState`]).
pub struct SsspState {
    dist: Vec<AtomicU32>,
    frozen: Vec<AtomicU32>,
}

impl VertexProgram for Sssp {
    type State = SsspState;

    fn name(&self) -> &'static str {
        "SSSP"
    }

    fn capabilities(&self) -> Capabilities {
        // payload: vertex id + tentative distance
        Capabilities::new()
            .with_weights()
            .with_batchable()
            .with_payload_bytes(8)
            .with_incremental()
    }

    fn new_state(&self, g: &Csr) -> SsspState {
        assert!(g.is_weighted(), "SSSP requires a weighted graph");
        let dist: Vec<AtomicU32> = (0..g.num_vertices())
            .map(|_| AtomicU32::new(INF_DIST))
            .collect();
        dist[self.source as usize].store(0, Ordering::Relaxed);
        let frozen = (0..g.num_vertices())
            .map(|_| AtomicU32::new(INF_DIST))
            .collect();
        SsspState { dist, frozen }
    }

    fn initial_frontier(&self, g: &Csr) -> Bitmap {
        let mut b = Bitmap::new(g.num_vertices());
        b.set(self.source as usize);
        b
    }

    fn compute(&self, _iteration: u32, active: &Bitmap, state: &SsspState) {
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
        state: &SsspState,
        next: &AtomicBitmap,
    ) {
        debug_assert!(edges.weighted(), "SSSP must receive weighted slices");
        let d = state.frozen[src as usize].load(Ordering::Relaxed);
        if d == INF_DIST {
            return;
        }
        edges.for_each_edge(|t, w| {
            let nd = d.saturating_add(w);
            if atomic_min_u32(&state.dist[t as usize], nd) {
                next.set(t as usize);
            }
        });
    }

    fn output(&self, state: &SsspState) -> AlgoOutput {
        AlgoOutput::Distances(
            state
                .dist
                .iter()
                .map(|d| d.load(Ordering::Relaxed))
                .collect(),
        )
    }

    /// The weighted invalidate-then-settle pass ([`crate::bfs::Bfs`]'s,
    /// with `dist[t] == dist[s] + w` as the tight-edge test). The patch
    /// records one delete entry per removed parallel edge *with its
    /// weight*, so only deletes that severed an actual shortest-path
    /// predecessor root the closure.
    fn repair(
        &self,
        g_old: &Csr,
        g_new: &Csr,
        csc_new: Option<&Csr>,
        patch: &GraphPatch,
        state: &SsspState,
    ) -> RepairPlan {
        let dist = |v: VertexId| state.dist[v as usize].load(Ordering::Relaxed);
        let src = self.source;
        let roots: Vec<VertexId> = patch
            .deletes
            .iter()
            .filter_map(|&(u, v, w)| {
                let (du, dv) = (dist(u), dist(v));
                let w = w.expect("SSSP runs on weighted graphs");
                (v != src && du != INF_DIST && dv != INF_DIST && dv == du.saturating_add(w))
                    .then_some(v)
            })
            .collect();
        let mut seeds = Bitmap::new(g_new.num_vertices());
        if !roots.is_empty() {
            let in_a = forward_closure(g_old, roots, |s, t, w| {
                t != src && dist(s) != INF_DIST && dist(t) == dist(s).saturating_add(w)
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
    use crate::reference::sssp_reference;
    use ascetic_graph::datasets::weighted_variant;
    use ascetic_graph::generators::{rmat_graph, uniform_graph, RmatConfig};
    use ascetic_graph::GraphBuilder;

    #[test]
    fn prefers_cheap_two_hop_path() {
        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(0, 2, 10);
        b.add_weighted_edge(0, 1, 1);
        b.add_weighted_edge(1, 2, 2);
        let g = b.build();
        let res = run_in_memory(&g, &Sssp::new(0));
        assert_eq!(res.output, AlgoOutput::Distances(vec![0, 1, 3]));
    }

    #[test]
    fn unreachable_is_inf() {
        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(0, 1, 5);
        b.add_weighted_edge(2, 0, 1);
        let g = b.build();
        let res = run_in_memory(&g, &Sssp::new(0));
        assert_eq!(res.output, AlgoOutput::Distances(vec![0, 5, INF_DIST]));
    }

    #[test]
    fn matches_dijkstra_reference() {
        for seed in 0..3 {
            let g = weighted_variant(&uniform_graph(400, 3_000, false, seed));
            let res = run_in_memory(&g, &Sssp::new(0));
            assert_eq!(
                res.output,
                AlgoOutput::Distances(sssp_reference(&g, 0)),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn matches_reference_on_rmat() {
        let g = weighted_variant(&rmat_graph(&RmatConfig::new(9, 6_000, 11).undirected(true)));
        let res = run_in_memory(&g, &Sssp::new(2));
        assert_eq!(res.output, AlgoOutput::Distances(sssp_reference(&g, 2)));
    }

    #[test]
    #[should_panic(expected = "weighted")]
    fn rejects_unweighted_graph() {
        let g = uniform_graph(10, 20, false, 1);
        let _ = Sssp::new(0).new_state(&g);
    }
}
