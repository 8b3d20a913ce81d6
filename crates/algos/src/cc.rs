//! Connected components (push-based label propagation).
//!
//! Every vertex starts labeled with its own id; a push proposes the
//! source's label at each target through an atomic min, so labels converge
//! to the minimum vertex id of each (weakly) connected component. All
//! vertices start active, which is why CC moves more data per iteration
//! than BFS in the paper's Table 1 (3.0–14.1 %).
//!
//! On directed graphs this computes components of the *directed reach*
//! closure under min-label flow — identical to weak connectivity when the
//! graph is symmetrized, which is how CC is conventionally run (and how the
//! tests compare against union–find).

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU32, Ordering};

use ascetic_graph::{Csr, GraphPatch, VertexId};
use ascetic_par::{atomic_min_u32, AtomicBitmap, Bitmap};

use crate::incremental::{forward_closure, in_boundary, RepairPlan};
use crate::traits::{AlgoOutput, Capabilities, EdgeSlice, VertexProgram};

/// Connected components via min-label propagation.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cc;

impl Cc {
    /// A CC program.
    pub fn new() -> Self {
        Cc
    }
}

/// CC per-vertex state: the label array plus the iteration-start snapshot
/// of active labels (bulk-synchronous semantics — see
/// [`crate::bfs::BfsState`]).
pub struct CcState {
    label: Vec<AtomicU32>,
    frozen: Vec<AtomicU32>,
}

impl VertexProgram for Cc {
    type State = CcState;

    fn name(&self) -> &'static str {
        "CC"
    }

    fn capabilities(&self) -> Capabilities {
        // payload: vertex id + component label
        Capabilities::new()
            .with_pull()
            .with_payload_bytes(8)
            .with_incremental()
    }

    fn new_state(&self, g: &Csr) -> CcState {
        CcState {
            label: (0..g.num_vertices() as u32).map(AtomicU32::new).collect(),
            frozen: (0..g.num_vertices() as u32).map(AtomicU32::new).collect(),
        }
    }

    fn initial_frontier(&self, g: &Csr) -> Bitmap {
        Bitmap::ones(g.num_vertices())
    }

    fn compute(&self, _iteration: u32, active: &Bitmap, state: &CcState) {
        for v in active.iter_ones() {
            state.frozen[v].store(state.label[v].load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    #[inline]
    fn advance_push(
        &self,
        _lane: usize,
        src: VertexId,
        edges: EdgeSlice<'_>,
        state: &CcState,
        next: &AtomicBitmap,
    ) {
        let l = state.frozen[src as usize].load(Ordering::Relaxed);
        edges.for_each_target(|t| {
            if atomic_min_u32(&state.label[t as usize], l) {
                next.set(t as usize);
            }
        });
    }

    fn output(&self, state: &CcState) -> AlgoOutput {
        AlgoOutput::Labels(
            state
                .label
                .iter()
                .map(|l| l.load(Ordering::Relaxed))
                .collect(),
        )
    }

    /// Pull candidates: every vertex whose label can still shrink. Label 0
    /// is the global floor, so vertices already there are exact to skip.
    fn pull_targets_into(&self, _g: &Csr, _active: &Bitmap, state: &CcState, out: &mut Bitmap) {
        for (v, l) in state.label.iter().enumerate() {
            if l.load(Ordering::Relaxed) > 0 {
                out.set(v);
            }
        }
    }

    /// Gather the min frozen label over active in-neighbors. Early exit
    /// when the running min reaches 0 is exact (nothing beats the floor)
    /// and deterministic: the stop position depends only on the row's
    /// contents, never on thread interleaving.
    #[inline]
    fn advance_pull(
        &self,
        v: VertexId,
        in_edges: EdgeSlice<'_>,
        active: &Bitmap,
        state: &CcState,
        next: &AtomicBitmap,
    ) -> u64 {
        let mut best = u32::MAX;
        let mut scanned = 0u64;
        let _ = in_edges.try_for_each_target(|u| {
            scanned += 1;
            if active.get(u as usize) {
                let l = state.frozen[u as usize].load(Ordering::Relaxed);
                best = best.min(l);
                if best == 0 {
                    return ControlFlow::Break(());
                }
            }
            ControlFlow::Continue(())
        });
        if best != u32::MAX && atomic_min_u32(&state.label[v as usize], best) {
            next.set(v as usize);
        }
        scanned
    }

    /// Invalidate-then-settle over labels. A deleted edge whose endpoints
    /// share a label may have been the only conduit for that label, so the
    /// forward closure of *label-carrying* edges (`label[s] == label[t]`)
    /// from the deleted heads is reset to self-labels. Each reset vertex is
    /// itself a settle seed (its own label must re-propagate — it may be
    /// the new component minimum), alongside the closure's surviving
    /// in-boundary and insert sources. Labels are always finite, so no
    /// reachability guards apply.
    fn repair(
        &self,
        g_old: &Csr,
        g_new: &Csr,
        csc_new: Option<&Csr>,
        patch: &GraphPatch,
        state: &CcState,
    ) -> RepairPlan {
        let label = |v: VertexId| state.label[v as usize].load(Ordering::Relaxed);
        let roots: Vec<VertexId> = patch
            .deletes
            .iter()
            .filter_map(|&(u, v, _)| (label(u) == label(v)).then_some(v))
            .collect();
        let mut seeds = Bitmap::new(g_new.num_vertices());
        if !roots.is_empty() {
            let in_a = forward_closure(g_old, roots, |s, t, _| label(s) == label(t));
            for (v, &a) in in_a.iter().enumerate() {
                if a {
                    state.label[v].store(v as u32, Ordering::Relaxed);
                    seeds.set(v);
                }
            }
            in_boundary(g_new, csc_new, &in_a, |p| seeds.set(p as usize));
        }
        for &(u, _, _) in &patch.inserts {
            seeds.set(u as usize);
        }
        RepairPlan::Seeded(seeds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inmemory::run_in_memory;
    use crate::reference::cc_reference;
    use ascetic_graph::generators::{rmat_graph, uniform_graph, RmatConfig};
    use ascetic_graph::GraphBuilder;

    #[test]
    fn two_components() {
        let mut b = GraphBuilder::new(5).symmetrize(true);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(3, 4);
        let g = b.build();
        let res = run_in_memory(&g, &Cc::new());
        assert_eq!(res.output, AlgoOutput::Labels(vec![0, 0, 0, 3, 3]));
    }

    #[test]
    fn isolated_vertices_keep_own_label() {
        let g = GraphBuilder::new(3).build();
        let res = run_in_memory(&g, &Cc::new());
        assert_eq!(res.output, AlgoOutput::Labels(vec![0, 1, 2]));
    }

    #[test]
    fn matches_union_find_on_random_graphs() {
        for seed in 0..3 {
            let g = uniform_graph(600, 1_200, true, seed);
            let res = run_in_memory(&g, &Cc::new());
            assert_eq!(
                res.output,
                AlgoOutput::Labels(cc_reference(&g)),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn matches_union_find_on_rmat() {
        let g = rmat_graph(&RmatConfig::new(10, 3_000, 9).undirected(true));
        let res = run_in_memory(&g, &Cc::new());
        assert_eq!(res.output, AlgoOutput::Labels(cc_reference(&g)));
    }

    /// The pull gather stops at the first *active* zero-label in-neighbour,
    /// and the count it returns — that index plus one, or the whole row
    /// when there is none — is what the virtual pull kernel is charged for.
    #[test]
    fn advance_pull_scans_through_the_first_active_zero_label() {
        let g = GraphBuilder::new(8).build();
        let row = [5u32, 0, 3, 4, 2];
        let weights = [9u32; 5];
        let packed_w: Vec<u32> = row.iter().flat_map(|&t| [t, 9]).collect();
        let layouts = [
            EdgeSlice::new(&row, false),
            EdgeSlice::new(&packed_w, true),
            EdgeSlice::split(&row, None),
            EdgeSlice::split(&row, Some(&weights)),
        ];
        let active_of = |vs: &[usize]| {
            let mut b = Bitmap::new(8);
            vs.iter().for_each(|&v| b.set(v));
            b
        };
        // (active in-neighbours, edges scanned, label vertex 7 settles on)
        let cases: [(&[usize], u64, u32); 4] = [
            (&[5, 0, 3, 4, 2], 2, 0), // vertex 0 at index 1
            (&[5, 3, 4, 2], 4, 0),    // vertex 4 (label zeroed) at index 3
            (&[5, 3, 2], 5, 2),       // no active zero: the full row
            (&[], 5, 7),              // nothing active: the full row, no update
        ];
        for edges in layouts {
            for &(active, scanned, label) in &cases {
                let cc = Cc::new();
                let state = cc.new_state(&g);
                state.frozen[4].store(0, Ordering::Relaxed);
                let next = AtomicBitmap::new(8);
                let got = cc.advance_pull(7, edges, &active_of(active), &state, &next);
                assert_eq!(got, scanned, "active {active:?}");
                assert_eq!(state.label[7].load(Ordering::Relaxed), label);
                assert_eq!(next.get(7), label != 7);
            }
        }
    }

    #[test]
    fn first_iteration_touches_every_edge() {
        let g = uniform_graph(300, 2_000, true, 4);
        let res = run_in_memory(&g, &Cc::new());
        assert_eq!(res.log[0].active_edges, g.num_edges());
        assert_eq!(res.log[0].active_vertices, g.num_vertices() as u64);
    }
}
