//! Single-source betweenness centrality (Brandes) on the operator core —
//! the first *multi-phase* program.
//!
//! Brandes' algorithm: a forward BFS from the source counts shortest paths
//! (`σ`), then a backward sweep over the BFS DAG in decreasing depth
//! accumulates dependencies (`δ`):
//!
//! ```text
//! δ(v) = Σ_{w : dist(w) = dist(v)+1, (v,w) ∈ E}  σ(v)/σ(w) · (1 + δ(w))
//! ```
//!
//! The phase structure maps directly onto [`VertexProgram::next_phase`]:
//! phase 0 is the forward BFS (σ accumulates during advance — every edge is
//! delivered exactly once per iteration, so the per-edge `fetch_add` counts
//! each DAG edge once); when the frontier drains, the transition flips to
//! backward mode and returns the deepest non-leaf level as the next
//! frontier. Each subsequent phase is one iteration processing one level:
//! a vertex scans its *out*-edges, picks the DAG successors (one level
//! deeper, already finalized), and accumulates into its own δ — commuting
//! integer adds in 2⁻³² fixed point, so results are bit-identical across
//! threads, devices and delivery granularity. The engines drive all of this
//! through the ordinary operator loop: betweenness inherits prefetch,
//! compression, serving and fleet execution with no engine changes.
//!
//! `σ` uses wrapping `u64` arithmetic: path counts can explode
//! combinatorially, and wrapping keeps the computation deterministic
//! everywhere (the f64 reference is compared on graphs where counts stay
//! exact).

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

use ascetic_graph::{Csr, VertexId, INF_DIST};
use ascetic_par::{atomic_min_u32, AtomicBitmap, Bitmap};

use crate::traits::{AlgoOutput, Capabilities, EdgeSlice, VertexProgram};

/// Fixed-point scale for dependency values: 2^32 units per 1.0.
const SCALE: u64 = 1 << 32;

/// Brandes betweenness centrality from one source.
#[derive(Clone, Copy, Debug)]
pub struct Betweenness {
    /// BFS root; its own centrality is 0 by convention.
    pub source: VertexId,
}

impl Betweenness {
    /// Betweenness centrality of all vertices w.r.t. paths from `source`.
    pub fn new(source: VertexId) -> Self {
        Betweenness { source }
    }
}

/// Betweenness state: BFS depths, path counts, fixed-point dependencies,
/// and the forward/backward mode switch.
pub struct BcState {
    dist: Vec<AtomicU32>,
    sigma: Vec<AtomicU64>,
    delta: Vec<AtomicU64>,
    max_depth: AtomicU32,
    backward: AtomicBool,
}

impl VertexProgram for Betweenness {
    type State = BcState;

    fn name(&self) -> &'static str {
        "BC"
    }

    fn capabilities(&self) -> Capabilities {
        // payload: vertex id + depth + path count
        Capabilities::new().with_payload_bytes(16)
    }

    fn new_state(&self, g: &Csr) -> BcState {
        let n = g.num_vertices();
        let st = BcState {
            dist: (0..n).map(|_| AtomicU32::new(INF_DIST)).collect(),
            sigma: (0..n).map(|_| AtomicU64::new(0)).collect(),
            delta: (0..n).map(|_| AtomicU64::new(0)).collect(),
            max_depth: AtomicU32::new(0),
            backward: AtomicBool::new(false),
        };
        st.dist[self.source as usize].store(0, Ordering::Relaxed);
        st.sigma[self.source as usize].store(1, Ordering::Relaxed);
        st
    }

    fn initial_frontier(&self, g: &Csr) -> Bitmap {
        let mut b = Bitmap::new(g.num_vertices());
        b.set(self.source as usize);
        b
    }

    fn advance_push(
        &self,
        _lane: usize,
        src: VertexId,
        edges: EdgeSlice<'_>,
        state: &BcState,
        next: &AtomicBitmap,
    ) {
        let d = state.dist[src as usize].load(Ordering::Relaxed);
        if !state.backward.load(Ordering::Relaxed) {
            // forward: level-synchronous BFS + path counting. All proposals
            // this iteration equal d+1, so dist[t] == nd after the min
            // exactly identifies DAG edges, and σ[src] is final (its own
            // level finished last iteration).
            let nd = d + 1;
            let s = state.sigma[src as usize].load(Ordering::Relaxed);
            edges.for_each_target(|t| {
                if atomic_min_u32(&state.dist[t as usize], nd) {
                    next.set(t as usize);
                }
                if state.dist[t as usize].load(Ordering::Relaxed) == nd {
                    state.sigma[t as usize].fetch_add(s, Ordering::Relaxed);
                }
            });
        } else {
            // backward: one level per iteration; successors one level deeper
            // are finalized, so the gather is exact. Accumulate locally and
            // publish one commuting add (correct under split delivery).
            let s = state.sigma[src as usize].load(Ordering::Relaxed) as u128;
            let mut acc = 0u64;
            edges.for_each_target(|t| {
                if state.dist[t as usize].load(Ordering::Relaxed) == d + 1 {
                    let sw = state.sigma[t as usize].load(Ordering::Relaxed);
                    if sw == 0 {
                        return; // σ wrapped to 0: skip rather than divide by zero
                    }
                    let dw = state.delta[t as usize].load(Ordering::Relaxed);
                    acc = acc.wrapping_add(
                        (s.wrapping_mul(SCALE as u128 + dw as u128) / sw as u128) as u64,
                    );
                }
            });
            if acc != 0 {
                state.delta[src as usize].fetch_add(acc, Ordering::Relaxed);
            }
        }
    }

    /// Forward BFS drained → flip to backward mode and hand back one BFS
    /// level per phase, deepest first. Level `L` vertices read level `L+1`
    /// dependencies, finalized by the previous phase; level 0 is the source
    /// (excluded by convention), so the run ends after level 1.
    fn next_phase(&self, finished: u32, g: &Csr, state: &BcState) -> Option<Bitmap> {
        if finished == 0 {
            let d = (0..g.num_vertices())
                .map(|v| state.dist[v].load(Ordering::Relaxed))
                .filter(|&d| d != INF_DIST)
                .max()
                .unwrap_or(0);
            state.max_depth.store(d, Ordering::Relaxed);
            state.backward.store(true, Ordering::Relaxed);
        }
        let depth = state.max_depth.load(Ordering::Relaxed);
        // phase p (p >= 1) processes level depth - p
        let level = depth.checked_sub(finished + 1)?;
        if level == 0 {
            return None;
        }
        let mut b = Bitmap::new(g.num_vertices());
        for v in 0..g.num_vertices() {
            if state.dist[v].load(Ordering::Relaxed) == level {
                b.set(v);
            }
        }
        Some(b)
    }

    fn output(&self, state: &BcState) -> AlgoOutput {
        AlgoOutput::Ranks(
            state
                .delta
                .iter()
                .map(|d| d.load(Ordering::Relaxed) as f64 / SCALE as f64)
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inmemory::run_in_memory;
    use crate::reference::betweenness_reference;
    use ascetic_graph::generators::uniform_graph;
    use ascetic_graph::GraphBuilder;

    #[test]
    fn path_graph_centrality_is_interior_count() {
        // 0 -> 1 -> 2 -> 3: δ(1) = 2, δ(2) = 1, endpoints 0
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 3);
        let g = b.build();
        let res = run_in_memory(&g, &Betweenness::new(0));
        let AlgoOutput::Ranks(r) = &res.output else {
            panic!("BC outputs ranks")
        };
        assert_eq!(r.as_slice(), &[0.0, 2.0, 1.0, 0.0]);
        // forward levels {0},{1},{2},{3} then backward levels {2},{1}
        assert_eq!(res.iterations, 6);
    }

    #[test]
    fn diamond_splits_dependency() {
        // 0 -> {1, 2} -> 3: σ(3) = 2, δ(1) = δ(2) = 1/2
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        b.add_edge(1, 3);
        b.add_edge(2, 3);
        let g = b.build();
        let res = run_in_memory(&g, &Betweenness::new(0));
        let AlgoOutput::Ranks(r) = &res.output else {
            panic!("BC outputs ranks")
        };
        assert!(
            (r[1] - 0.5).abs() < 1e-6 && (r[2] - 0.5).abs() < 1e-6,
            "{r:?}"
        );
        assert_eq!(r[0], 0.0);
        assert_eq!(r[3], 0.0);
    }

    #[test]
    fn matches_brandes_reference() {
        let g = uniform_graph(400, 3_000, false, 11);
        let res = run_in_memory(&g, &Betweenness::new(0));
        let expect = betweenness_reference(&g, 0);
        let AlgoOutput::Ranks(got) = &res.output else {
            panic!("BC outputs ranks")
        };
        for (v, (a, b)) in got.iter().zip(&expect).enumerate() {
            assert!(
                (a - b).abs() < 1e-4,
                "vertex {v}: operator {a} vs Brandes {b}"
            );
        }
    }

    #[test]
    fn unreachable_and_source_are_zero() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(3, 4); // island
        let g = b.build();
        let res = run_in_memory(&g, &Betweenness::new(0));
        let AlgoOutput::Ranks(r) = &res.output else {
            panic!("BC outputs ranks")
        };
        assert_eq!(r[0], 0.0, "source excluded by convention");
        assert_eq!(r[3], 0.0);
        assert_eq!(r[4], 0.0);
    }
}
