//! Sampled closeness centrality via multi-source BFS with distances.
//!
//! Exact closeness needs all-pairs BFS; the standard estimator (Eppstein &
//! Wang) samples k sources and averages their distances. This program runs
//! up to 16 sampled BFS traversals concurrently, packing each source's hop
//! distance into 4 bits of a per-vertex `AtomicU64` (distances saturate at
//! 15 hops — ample for the small-world graphs this workspace targets; the
//! saturation is part of the estimator's contract and is tested).
//!
//! The packed-lane update is monotone (per-lane minimum), so the program is
//! correct under Ascetic's split/partial edge delivery like every other
//! push program here. An extension workload, not part of the paper.

use std::sync::atomic::{AtomicU64, Ordering};

use ascetic_graph::{Csr, VertexId};
use ascetic_par::{AtomicBitmap, Bitmap};

use crate::traits::{AlgoOutput, EdgeSlice, VertexProgram};

/// Number of 4-bit distance lanes per vertex word.
const LANES: usize = 16;
/// Per-lane saturation value ("unreached or ≥ 15 hops").
const SAT: u64 = 0xF;

/// Closeness-centrality sampling program (≤ 16 sources).
///
/// Output: per vertex, the **sum of hop distances to the sampled sources**
/// (saturated per source at 15), as `Labels`. Downstream, closeness is
/// `k / sum` — kept as an integer sum so results stay exactly comparable
/// across systems.
#[derive(Clone, Debug)]
pub struct Closeness {
    /// Sampled sources (≤ 16, deduplicated by the caller).
    pub sources: Vec<VertexId>,
}

impl Closeness {
    /// Closeness sampling from `sources`.
    ///
    /// # Panics
    /// Panics if `sources` is empty or holds more than 16 vertices.
    pub fn new(sources: Vec<VertexId>) -> Self {
        assert!(
            !sources.is_empty() && sources.len() <= LANES,
            "closeness sampling takes 1..=16 sources"
        );
        Closeness { sources }
    }
}

/// Pack `dist` into lane `i`.
#[inline]
fn lane(i: usize, dist: u64) -> u64 {
    dist << (4 * i)
}

/// Per-lane saturating minimum of two packed words.
///
/// Works lane-by-lane; 16 lanes is cheap and keeps the logic obvious
/// (a SWAR version is possible but not worth the subtlety here).
#[inline]
fn packed_min(a: u64, b: u64) -> u64 {
    let mut out = 0u64;
    for i in 0..LANES {
        let (la, lb) = (a >> (4 * i) & SAT, b >> (4 * i) & SAT);
        out |= lane(i, la.min(lb));
    }
    out
}

/// Per-lane saturating increment (+1 hop, capped at 15).
#[inline]
fn packed_inc(a: u64) -> u64 {
    let mut out = 0u64;
    for i in 0..LANES {
        let la = a >> (4 * i) & SAT;
        out |= lane(i, (la + 1).min(SAT));
    }
    out
}

/// Closeness per-vertex state: packed distances plus the iteration
/// snapshot (bulk-synchronous; see [`crate::bfs::BfsState`]).
pub struct ClosenessState {
    packed: Vec<AtomicU64>,
    frozen: Vec<AtomicU64>,
}

impl VertexProgram for Closeness {
    type State = ClosenessState;

    fn name(&self) -> &'static str {
        "Closeness"
    }

    fn new_state(&self, g: &Csr) -> ClosenessState {
        // all lanes saturated ("unreached"), then source lanes zeroed
        let all_sat = (0..LANES).fold(0u64, |acc, i| acc | lane(i, SAT));
        let packed: Vec<AtomicU64> = (0..g.num_vertices())
            .map(|_| AtomicU64::new(all_sat))
            .collect();
        for (i, &s) in self.sources.iter().enumerate() {
            let v = &packed[s as usize];
            let cur = v.load(Ordering::Relaxed);
            v.store(cur & !lane(i, SAT), Ordering::Relaxed);
        }
        ClosenessState {
            packed,
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

    fn compute(&self, _iteration: u32, active: &Bitmap, state: &ClosenessState) {
        for v in active.iter_ones() {
            state.frozen[v].store(state.packed[v].load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    #[inline]
    fn advance_push(
        &self,
        _lane: usize,
        src: VertexId,
        edges: EdgeSlice<'_>,
        state: &ClosenessState,
        next: &AtomicBitmap,
    ) {
        let push = packed_inc(state.frozen[src as usize].load(Ordering::Relaxed));
        for (t, _w) in edges.iter() {
            // CAS loop computing the per-lane minimum
            let cell = &state.packed[t as usize];
            let mut cur = cell.load(Ordering::Relaxed);
            loop {
                let merged = packed_min(cur, push);
                if merged == cur {
                    break;
                }
                match cell.compare_exchange_weak(cur, merged, Ordering::Relaxed, Ordering::Relaxed)
                {
                    Ok(_) => {
                        next.set(t as usize);
                        break;
                    }
                    Err(actual) => cur = actual,
                }
            }
        }
    }

    fn output(&self, state: &ClosenessState) -> AlgoOutput {
        let k = self.sources.len();
        AlgoOutput::Labels(
            state
                .packed
                .iter()
                .map(|p| {
                    let w = p.load(Ordering::Relaxed);
                    (0..k).map(|i| (w >> (4 * i) & SAT) as u32).sum()
                })
                .collect(),
        )
    }
}

/// Reference: one saturated BFS per source, summed.
pub fn closeness_reference(g: &Csr, sources: &[VertexId]) -> Vec<u32> {
    use std::collections::VecDeque;
    let n = g.num_vertices();
    let mut sums = vec![0u32; n];
    for &s in sources {
        let mut dist = vec![u32::MAX; n];
        dist[s as usize] = 0;
        let mut q = VecDeque::from([s]);
        while let Some(v) = q.pop_front() {
            for &t in g.neighbors(v) {
                if dist[t as usize] == u32::MAX {
                    dist[t as usize] = dist[v as usize] + 1;
                    q.push_back(t);
                }
            }
        }
        for (sum, &d) in sums.iter_mut().zip(&dist) {
            *sum += if d == u32::MAX {
                SAT as u32
            } else {
                d.min(SAT as u32)
            };
        }
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inmemory::run_in_memory;
    use ascetic_graph::generators::{rmat_graph, uniform_graph, RmatConfig};
    use ascetic_graph::GraphBuilder;

    #[test]
    fn packed_helpers() {
        let a = lane(0, 3) | lane(1, SAT) | lane(15, 7);
        let b = lane(0, 5) | lane(1, 2) | lane(15, 7);
        let m = packed_min(a, b);
        assert_eq!(m & SAT, 3);
        assert_eq!(m >> 4 & SAT, 2);
        assert_eq!(m >> 60 & SAT, 7);
        let inc = packed_inc(lane(0, 14) | lane(1, SAT));
        assert_eq!(inc & SAT, 15);
        assert_eq!(inc >> 4 & SAT, SAT, "saturation holds");
    }

    #[test]
    fn path_distances_sum() {
        // 0 - 1 - 2 - 3 undirected; sources {0, 3}
        let mut b = GraphBuilder::new(4).symmetrize(true);
        for v in 0..3u32 {
            b.add_edge(v, v + 1);
        }
        let g = b.build();
        let res = run_in_memory(&g, &Closeness::new(vec![0, 3]));
        // sums: v0: 0+3, v1: 1+2, v2: 2+1, v3: 3+0
        assert_eq!(res.output, AlgoOutput::Labels(vec![3, 3, 3, 3]));
    }

    #[test]
    fn unreached_saturates() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        let g = b.build(); // vertex 2 disconnected
        let res = run_in_memory(&g, &Closeness::new(vec![0]));
        assert_eq!(res.output, AlgoOutput::Labels(vec![0, 1, SAT as u32]));
    }

    #[test]
    fn matches_reference_on_random_graphs() {
        for seed in 0..3 {
            let g = uniform_graph(400, 2_400, true, seed);
            let sources: Vec<u32> = (0..16).map(|i| i * 23 % 400).collect();
            let mut dedup = sources;
            dedup.sort_unstable();
            dedup.dedup();
            let res = run_in_memory(&g, &Closeness::new(dedup.clone()));
            assert_eq!(
                res.output,
                AlgoOutput::Labels(closeness_reference(&g, &dedup)),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn matches_reference_on_rmat() {
        let g = rmat_graph(&RmatConfig::new(10, 7_000, 31).undirected(true));
        let sources = vec![2, 90, 400, 777];
        let res = run_in_memory(&g, &Closeness::new(sources.clone()));
        assert_eq!(
            res.output,
            AlgoOutput::Labels(closeness_reference(&g, &sources))
        );
    }

    #[test]
    fn deep_graph_saturates_consistently() {
        // a 40-vertex path: distances beyond 15 saturate identically in the
        // program and the reference
        let mut b = GraphBuilder::new(40).symmetrize(true);
        for v in 0..39u32 {
            b.add_edge(v, v + 1);
        }
        let g = b.build();
        let res = run_in_memory(&g, &Closeness::new(vec![0]));
        assert_eq!(
            res.output,
            AlgoOutput::Labels(closeness_reference(&g, &[0]))
        );
        if let AlgoOutput::Labels(l) = &res.output {
            assert_eq!(l[39], SAT as u32, "distance 39 saturates to 15");
        }
    }

    #[test]
    #[should_panic(expected = "1..=16")]
    fn rejects_too_many_sources() {
        Closeness::new((0..17).collect());
    }
}
