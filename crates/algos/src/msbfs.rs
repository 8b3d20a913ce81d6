//! Multi-source BFS (MS-BFS): up to 64 concurrent traversals in one pass.
//!
//! The classic MS-BFS trick (Then et al., VLDB '14): give each source a bit
//! in a per-vertex `u64` mask and push masks with atomic OR — one sweep of
//! the edge data advances all traversals at once. Out-of-core systems love
//! this workload: the per-iteration frontier is the *union* of 64 BFS
//! frontiers, so the active set is denser than one BFS but the edge data is
//! read once instead of 64 times.
//!
//! Not part of the paper's evaluation — included as an extension workload
//! (reachability/centrality seeds) and exercised by the integration tests.

use std::sync::atomic::{AtomicU64, Ordering};

use ascetic_graph::{Csr, VertexId};
use ascetic_par::{AtomicBitmap, Bitmap};

use crate::traits::{AlgoOutput, EdgeSlice, VertexProgram};

/// Concurrent BFS from up to 64 sources; outputs, per vertex, how many of
/// the sources reach it.
#[derive(Clone, Debug)]
pub struct MsBfs {
    /// Source vertices (≤ 64, deduplicated by the caller).
    pub sources: Vec<VertexId>,
}

impl MsBfs {
    /// MS-BFS from `sources`.
    ///
    /// # Panics
    /// Panics if `sources` is empty or holds more than 64 vertices.
    pub fn new(sources: Vec<VertexId>) -> Self {
        assert!(
            !sources.is_empty() && sources.len() <= 64,
            "MS-BFS takes 1..=64 sources"
        );
        MsBfs { sources }
    }
}

/// MS-BFS per-vertex state: reachability masks plus the bulk-synchronous
/// iteration snapshot (see [`crate::bfs::BfsState`]).
pub struct MsBfsState {
    reached: Vec<AtomicU64>,
    frozen: Vec<AtomicU64>,
}

impl VertexProgram for MsBfs {
    type State = MsBfsState;

    fn name(&self) -> &'static str {
        "MS-BFS"
    }

    fn new_state(&self, g: &Csr) -> MsBfsState {
        let reached: Vec<AtomicU64> = (0..g.num_vertices()).map(|_| AtomicU64::new(0)).collect();
        for (i, &s) in self.sources.iter().enumerate() {
            reached[s as usize].fetch_or(1 << i, Ordering::Relaxed);
        }
        MsBfsState {
            reached,
            frozen: (0..g.num_vertices()).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn initial_frontier(&self, g: &Csr) -> Bitmap {
        let mut b = Bitmap::new(g.num_vertices());
        for &s in &self.sources {
            b.set(s as usize);
        }
        b
    }

    fn compute(&self, _iteration: u32, active: &Bitmap, state: &MsBfsState) {
        for v in active.iter_ones() {
            state.frozen[v].store(state.reached[v].load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    #[inline]
    fn advance_push(
        &self,
        _lane: usize,
        src: VertexId,
        edges: EdgeSlice<'_>,
        state: &MsBfsState,
        next: &AtomicBitmap,
    ) {
        let mask = state.frozen[src as usize].load(Ordering::Relaxed);
        if mask == 0 {
            return;
        }
        for (t, _w) in edges.iter() {
            let old = state.reached[t as usize].fetch_or(mask, Ordering::Relaxed);
            if old | mask != old {
                next.set(t as usize);
            }
        }
    }

    fn output(&self, state: &MsBfsState) -> AlgoOutput {
        AlgoOutput::Labels(
            state
                .reached
                .iter()
                .map(|m| m.load(Ordering::Relaxed).count_ones())
                .collect(),
        )
    }
}

/// Reference: run the sources one by one with plain BFS reachability.
pub fn msbfs_reference(g: &Csr, sources: &[VertexId]) -> Vec<u32> {
    let n = g.num_vertices();
    let mut counts = vec![0u32; n];
    for &s in sources {
        let mut seen = vec![false; n];
        seen[s as usize] = true;
        let mut stack = vec![s];
        while let Some(v) = stack.pop() {
            for &t in g.neighbors(v) {
                if !seen[t as usize] {
                    seen[t as usize] = true;
                    stack.push(t);
                }
            }
        }
        for (c, &r) in counts.iter_mut().zip(&seen) {
            *c += u32::from(r);
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inmemory::run_in_memory;
    use ascetic_graph::generators::{rmat_graph, uniform_graph, RmatConfig};
    use ascetic_graph::GraphBuilder;

    #[test]
    fn two_sources_on_a_path() {
        // 0 -> 1 -> 2 -> 3, sources {0, 2}
        let mut b = GraphBuilder::new(4);
        for v in 0..3u32 {
            b.add_edge(v, v + 1);
        }
        let g = b.build();
        let res = run_in_memory(&g, &MsBfs::new(vec![0, 2]));
        // 0 reached by {0}; 1 by {0}; 2 by {0,2}; 3 by {0,2}
        assert_eq!(res.output, AlgoOutput::Labels(vec![1, 1, 2, 2]));
    }

    #[test]
    fn matches_reference_on_random_graphs() {
        for seed in 0..3 {
            let g = uniform_graph(500, 2_500, false, seed);
            let sources: Vec<u32> = (0..32).map(|i| i * 13 % 500).collect();
            let mut dedup = sources.clone();
            dedup.sort_unstable();
            dedup.dedup();
            let res = run_in_memory(&g, &MsBfs::new(dedup.clone()));
            assert_eq!(
                res.output,
                AlgoOutput::Labels(msbfs_reference(&g, &dedup)),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn matches_reference_on_rmat() {
        let g = rmat_graph(&RmatConfig::new(10, 6_000, 21).undirected(true));
        let sources = vec![1, 5, 100, 500, 900];
        let res = run_in_memory(&g, &MsBfs::new(sources.clone()));
        assert_eq!(
            res.output,
            AlgoOutput::Labels(msbfs_reference(&g, &sources))
        );
    }

    #[test]
    fn full_64_sources() {
        let g = uniform_graph(300, 2_000, true, 9);
        let sources: Vec<u32> = (0..64).collect();
        let res = run_in_memory(&g, &MsBfs::new(sources.clone()));
        assert_eq!(
            res.output,
            AlgoOutput::Labels(msbfs_reference(&g, &sources))
        );
    }

    #[test]
    fn union_frontier_is_denser_than_single_bfs() {
        let g = uniform_graph(2_000, 16_000, false, 4);
        let single = run_in_memory(&g, &crate::bfs::Bfs::new(0));
        let multi = run_in_memory(&g, &MsBfs::new((0..64).collect()));
        let s_peak = single.log.iter().map(|l| l.active_vertices).max().unwrap();
        let m_peak = multi.log.iter().map(|l| l.active_vertices).max().unwrap();
        assert!(
            m_peak >= s_peak,
            "union frontier {m_peak} vs single {s_peak}"
        );
        // but far less total edge work than 64 separate traversals
        assert!(multi.total_edges < single.total_edges * 64);
    }

    #[test]
    #[should_panic(expected = "1..=64")]
    fn rejects_too_many_sources() {
        MsBfs::new((0..65).collect());
    }

    #[test]
    #[should_panic(expected = "1..=64")]
    fn rejects_empty_sources() {
        MsBfs::new(vec![]);
    }
}
