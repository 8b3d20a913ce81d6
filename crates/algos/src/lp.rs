//! Label propagation (community detection) on the operator core.
//!
//! Synchronous (Jacobi) label propagation: every vertex starts in its own
//! community (`label(v) = v`); each iteration every candidate vertex adopts
//! the most frequent label among its in-neighbors (ties break to the
//! smallest label). The run converges when no label can change, with a hard
//! iteration cap for the oscillating configurations synchronous LP is known
//! for (bipartite flip-flops).
//!
//! The operator decomposition keeps the per-iteration work proportional to
//! the *changed* vertices instead of all of `V`:
//!
//! * **compute** adopts labels for the active set (sequential on the
//!   orchestration thread, so adoption order is deterministic and all
//!   adoptions see the previous iteration's histograms — exactly Jacobi);
//! * **advance** broadcasts each adopter's label *delta* to its
//!   out-neighbors' histograms (`-old, +new` under a per-vertex lock;
//!   commuting increments, so thread interleaving cannot change the final
//!   histogram) and activates them;
//! * **filter** retains only activated vertices whose histogram argmax now
//!   differs from their label — the first program where the filter operator
//!   does real compaction.
//!
//! Histograms are seeded from the initial labels by one deterministic edge
//! sweep in `new_state`, so iteration 0's adoptions already see every
//! in-neighbor — no warm-up broadcast iteration is needed.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

use ascetic_graph::{Csr, VertexId};
use ascetic_par::{AtomicBitmap, Bitmap};

use crate::traits::{AlgoOutput, Capabilities, EdgeSlice, VertexProgram};

/// Synchronous label propagation with an iteration cap.
#[derive(Clone, Copy, Debug)]
pub struct LabelPropagation {
    /// Hard cap on adoption sweeps (synchronous LP can oscillate forever).
    pub max_sweeps: u32,
}

/// Default sweep cap — communities on social-like graphs settle in well
/// under this; oscillators get cut off deterministically.
pub const DEFAULT_MAX_SWEEPS: u32 = 64;

impl Default for LabelPropagation {
    fn default() -> Self {
        LabelPropagation {
            max_sweeps: DEFAULT_MAX_SWEEPS,
        }
    }
}

impl LabelPropagation {
    /// LP with the default sweep cap.
    pub fn new() -> Self {
        Self::default()
    }
}

/// LP state: labels, the label each vertex held before its last adoption,
/// and one in-neighbor label histogram per vertex.
pub struct LpState {
    label: Vec<AtomicU32>,
    prev: Vec<AtomicU32>,
    counts: Vec<Mutex<Vec<(u32, u32)>>>,
}

/// Most frequent label in a histogram; ties break to the smallest label.
/// `None` when the histogram is empty (no in-neighbors).
fn argmax(counts: &[(u32, u32)]) -> Option<u32> {
    counts
        .iter()
        .filter(|&&(_, c)| c > 0)
        .fold(None, |best: Option<(u32, u32)>, &(l, c)| match best {
            Some((bl, bc)) if (bc, std::cmp::Reverse(bl)) >= (c, std::cmp::Reverse(l)) => best,
            _ => Some((l, c)),
        })
        .map(|(l, _)| l)
}

fn bump(counts: &mut Vec<(u32, u32)>, label: u32, delta: i32) {
    if let Some(e) = counts.iter_mut().find(|e| e.0 == label) {
        e.1 = e.1.wrapping_add_signed(delta);
    } else if delta > 0 {
        counts.push((label, delta as u32));
    }
}

impl VertexProgram for LabelPropagation {
    type State = LpState;

    fn name(&self) -> &'static str {
        "LP"
    }

    fn capabilities(&self) -> Capabilities {
        // payload: vertex id + community label
        Capabilities::new().with_payload_bytes(8).with_filter()
    }

    fn new_state(&self, g: &Csr) -> LpState {
        let n = g.num_vertices();
        // seed histograms with every in-neighbor's initial label (= its id)
        let mut counts: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        for v in 0..n as VertexId {
            for &t in g.neighbors(v) {
                bump(&mut counts[t as usize], v, 1);
            }
        }
        LpState {
            label: (0..n as u32).map(AtomicU32::new).collect(),
            prev: (0..n as u32).map(AtomicU32::new).collect(),
            counts: counts.into_iter().map(Mutex::new).collect(),
        }
    }

    fn initial_frontier(&self, g: &Csr) -> Bitmap {
        Bitmap::ones(g.num_vertices())
    }

    /// Adopt the argmax label for every active vertex. Runs before any
    /// advance of the iteration, so all adoptions see the previous
    /// iteration's histograms (Jacobi).
    fn compute(&self, _iteration: u32, active: &Bitmap, state: &LpState) {
        for v in active.iter_ones() {
            let old = state.label[v].load(Ordering::Relaxed);
            state.prev[v].store(old, Ordering::Relaxed);
            let hist = state.counts[v].lock().unwrap();
            if let Some(best) = argmax(&hist) {
                if best != old {
                    state.label[v].store(best, Ordering::Relaxed);
                }
            }
        }
    }

    /// Broadcast the adoption delta: `-prev, +label` into each
    /// out-neighbor's histogram. Vertices that did not change are a no-op
    /// (their edges may still be delivered; the delta is empty).
    fn advance_push(
        &self,
        _lane: usize,
        src: VertexId,
        edges: EdgeSlice<'_>,
        state: &LpState,
        next: &AtomicBitmap,
    ) {
        let l = state.label[src as usize].load(Ordering::Relaxed);
        let p = state.prev[src as usize].load(Ordering::Relaxed);
        if l == p {
            return;
        }
        edges.for_each_target(|t| {
            let mut hist = state.counts[t as usize].lock().unwrap();
            bump(&mut hist, p, -1);
            bump(&mut hist, l, 1);
            next.set(t as usize);
        });
    }

    /// Keep only vertices whose argmax now disagrees with their label —
    /// the rest cannot change next sweep.
    fn retain(&self, v: VertexId, state: &LpState) -> bool {
        let hist = state.counts[v as usize].lock().unwrap();
        match argmax(&hist) {
            Some(best) => best != state.label[v as usize].load(Ordering::Relaxed),
            None => false,
        }
    }

    fn output(&self, state: &LpState) -> AlgoOutput {
        AlgoOutput::Labels(
            state
                .label
                .iter()
                .map(|l| l.load(Ordering::Relaxed))
                .collect(),
        )
    }

    fn max_iterations(&self) -> u32 {
        self.max_sweeps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inmemory::run_in_memory;
    use crate::reference::lp_reference;
    use ascetic_graph::generators::uniform_graph;
    use ascetic_graph::GraphBuilder;

    #[test]
    fn two_cliques_find_two_communities() {
        // two 4-cliques joined by one edge
        let mut b = GraphBuilder::new(8);
        for c in [0u32, 4] {
            for i in 0..4 {
                for j in 0..4 {
                    if i != j {
                        b.add_edge(c + i, c + j);
                    }
                }
            }
        }
        b.add_edge(3, 4);
        b.add_edge(4, 3);
        let g = b.build();
        let res = run_in_memory(&g, &LabelPropagation::new());
        let AlgoOutput::Labels(l) = &res.output else {
            panic!("LP outputs labels")
        };
        assert!(l[0] == l[1] && l[1] == l[2] && l[2] == l[3], "{l:?}");
        assert!(l[4] == l[5] && l[5] == l[6] && l[6] == l[7], "{l:?}");
        assert_ne!(l[0], l[4], "cliques must keep distinct communities");
    }

    #[test]
    fn matches_jacobi_reference() {
        let g = uniform_graph(500, 4_000, false, 9);
        let res = run_in_memory(&g, &LabelPropagation::new());
        assert_eq!(
            res.output,
            AlgoOutput::Labels(lp_reference(&g, DEFAULT_MAX_SWEEPS)),
            "operator-core LP must equal the synchronous reference"
        );
    }

    #[test]
    fn filter_shrinks_the_frontier() {
        let g = uniform_graph(400, 3_000, false, 4);
        let res = run_in_memory(&g, &LabelPropagation::new());
        assert!(res.iterations >= 2, "LP should take a few sweeps");
        assert!(
            res.log[1].active_vertices < g.num_vertices() as u64,
            "filter must compact the second frontier"
        );
    }
}
