//! k-core membership (iterative peeling as a push program).
//!
//! The k-core of an undirected graph is the maximal subgraph in which every
//! vertex has degree ≥ k; it is computed by repeatedly *peeling* vertices
//! of degree < k. Peeling maps cleanly onto the push model — a removed
//! vertex pushes a "degree decrement" to each neighbor, and a neighbor
//! whose effective degree drops below k activates to be peeled next
//! iteration — which makes k-core a natural fifth workload for the
//! out-of-core systems (not part of the paper's evaluation; included as an
//! extension and exercised by the ablation benches).
//!
//! Pushes are idempotent per (source, delivery): the program is correct
//! under Ascetic's split/partial edge delivery because a vertex only
//! decrements neighbors for edges actually delivered, and each of its
//! edges is delivered exactly once in its removal iteration.

use std::sync::atomic::{AtomicU32, Ordering};

use ascetic_graph::{Csr, VertexId};
use ascetic_par::{AtomicBitmap, Bitmap};

use crate::traits::{AlgoOutput, EdgeSlice, VertexProgram};

/// k-core membership: output label 1 for vertices in the k-core, 0 outside.
#[derive(Clone, Copy, Debug)]
pub struct KCore {
    /// The core parameter k (≥ 1).
    pub k: u32,
}

impl KCore {
    /// k-core membership program.
    pub fn new(k: u32) -> Self {
        assert!(k >= 1, "k must be at least 1");
        KCore { k }
    }
}

/// Peeling state.
pub struct KCoreState {
    /// Effective degree (decremented as neighbors peel); `u32::MAX` marks
    /// an already-peeled vertex.
    degree: Vec<AtomicU32>,
    k: u32,
}

impl VertexProgram for KCore {
    type State = KCoreState;

    fn name(&self) -> &'static str {
        "kCore"
    }

    fn new_state(&self, g: &Csr) -> KCoreState {
        KCoreState {
            degree: (0..g.num_vertices() as VertexId)
                .map(|v| AtomicU32::new(g.degree(v) as u32))
                .collect(),
            k: self.k,
        }
    }

    fn initial_frontier(&self, g: &Csr) -> Bitmap {
        // iteration 0 peels every vertex whose raw degree is already < k
        let mut b = Bitmap::new(g.num_vertices());
        for v in 0..g.num_vertices() as VertexId {
            if (g.degree(v) as u32) < self.k {
                b.set(v as usize);
            }
        }
        b
    }

    fn compute(&self, _iteration: u32, active: &Bitmap, state: &KCoreState) {
        // mark this wave as peeled *before* any pushes, so concurrent
        // decrements cannot re-activate a vertex being peeled right now
        for v in active.iter_ones() {
            state.degree[v].store(u32::MAX, Ordering::Relaxed);
        }
    }

    #[inline]
    fn advance_push(
        &self,
        _lane: usize,
        _src: VertexId,
        edges: EdgeSlice<'_>,
        state: &KCoreState,
        next: &AtomicBitmap,
    ) {
        for (t, _w) in edges.iter() {
            let d = &state.degree[t as usize];
            // decrement unless the neighbor is already peeled
            let mut cur = d.load(Ordering::Relaxed);
            loop {
                if cur == u32::MAX || cur == 0 {
                    break;
                }
                match d.compare_exchange_weak(cur, cur - 1, Ordering::Relaxed, Ordering::Relaxed) {
                    Ok(_) => {
                        if cur - 1 < state.k {
                            next.set(t as usize);
                        }
                        break;
                    }
                    Err(actual) => cur = actual,
                }
            }
        }
    }

    fn output(&self, state: &KCoreState) -> AlgoOutput {
        AlgoOutput::Labels(
            state
                .degree
                .iter()
                .map(|d| {
                    let v = d.load(Ordering::Relaxed);
                    u32::from(v != u32::MAX && v >= state.k)
                })
                .collect(),
        )
    }
}

/// Sequential peeling reference.
pub fn kcore_reference(g: &Csr, k: u32) -> Vec<u32> {
    let n = g.num_vertices();
    let mut deg: Vec<u32> = (0..n as VertexId).map(|v| g.degree(v) as u32).collect();
    let mut removed = vec![false; n];
    let mut queue: Vec<VertexId> = (0..n as VertexId)
        .filter(|&v| deg[v as usize] < k)
        .collect();
    for &v in &queue {
        removed[v as usize] = true;
    }
    let mut qi = 0;
    while qi < queue.len() {
        let v = queue[qi];
        qi += 1;
        for &t in g.neighbors(v) {
            if !removed[t as usize] {
                deg[t as usize] -= 1;
                if deg[t as usize] < k {
                    removed[t as usize] = true;
                    queue.push(t);
                }
            }
        }
    }
    (0..n).map(|v| u32::from(!removed[v])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inmemory::run_in_memory;
    use ascetic_graph::generators::{rmat_graph, uniform_graph, RmatConfig};
    use ascetic_graph::GraphBuilder;

    /// Triangle 0-1-2 plus a pendant 3 attached to 0.
    fn triangle_with_tail() -> Csr {
        let mut b = GraphBuilder::new(4).symmetrize(true).sort_neighbors(true);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 0);
        b.add_edge(0, 3);
        b.build()
    }

    #[test]
    fn two_core_of_triangle_plus_tail() {
        let g = triangle_with_tail();
        let res = run_in_memory(&g, &KCore::new(2));
        assert_eq!(res.output, AlgoOutput::Labels(vec![1, 1, 1, 0]));
        assert_eq!(res.output, AlgoOutput::Labels(kcore_reference(&g, 2)));
    }

    #[test]
    fn k1_keeps_anything_with_an_edge() {
        let mut b = GraphBuilder::new(3).symmetrize(true);
        b.add_edge(0, 1);
        let g = b.build();
        let res = run_in_memory(&g, &KCore::new(1));
        assert_eq!(res.output, AlgoOutput::Labels(vec![1, 1, 0]));
    }

    #[test]
    fn huge_k_empties_the_graph() {
        let g = triangle_with_tail();
        let res = run_in_memory(&g, &KCore::new(100));
        assert_eq!(res.output, AlgoOutput::Labels(vec![0; 4]));
    }

    #[test]
    fn cascade_peeling_takes_multiple_iterations() {
        // path 0-1-2-3-4: 2-core empty, peeled from both ends inward
        let mut b = GraphBuilder::new(5).symmetrize(true).sort_neighbors(true);
        for v in 0..4u32 {
            b.add_edge(v, v + 1);
        }
        let g = b.build();
        let res = run_in_memory(&g, &KCore::new(2));
        assert_eq!(res.output, AlgoOutput::Labels(vec![0; 5]));
        assert!(
            res.iterations >= 2,
            "peeling must cascade: {}",
            res.iterations
        );
    }

    #[test]
    fn matches_reference_on_random_graphs() {
        for seed in 0..3 {
            let g = uniform_graph(400, 2_400, true, seed);
            for k in [2, 4, 8] {
                let res = run_in_memory(&g, &KCore::new(k));
                assert_eq!(
                    res.output,
                    AlgoOutput::Labels(kcore_reference(&g, k)),
                    "seed {seed} k {k}"
                );
            }
        }
    }

    #[test]
    fn matches_reference_on_rmat() {
        let g = rmat_graph(&RmatConfig::new(10, 8_000, 4).undirected(true));
        let res = run_in_memory(&g, &KCore::new(3));
        assert_eq!(res.output, AlgoOutput::Labels(kcore_reference(&g, 3)));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn rejects_k_zero() {
        KCore::new(0);
    }
}
