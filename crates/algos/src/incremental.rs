//! Incremental repair plans: per-program affected-frontier seeding.
//!
//! After a mutation batch, a program whose [`crate::Capabilities`] declare
//! `incremental` can *repair* its converged state instead of recomputing
//! from scratch: [`crate::VertexProgram::repair`] inspects the
//! [`ascetic_graph::GraphPatch`], adjusts its state in place (interior mutability — the
//! same atomics the operators use), and returns a [`RepairPlan`] telling
//! the engine where to re-run the operator core from.
//!
//! The monotone programs (BFS, SSSP, CC) use the standard two-half scheme:
//!
//! * **Inserts** only ever *improve* a monotone fixed point, so seeding the
//!   insert sources and re-running advance/filter to quiescence is exact.
//! * **Deletes** may strand values that depended on a removed edge. The
//!   *invalidate-then-settle* pass computes a conservative affected set
//!   `A`: the forward closure, over the **old** graph, of *dependency-
//!   carrying* edges (BFS/SSSP: tight edges `dist[t] == dist[s] + w`; CC:
//!   label-carrying edges `label[s] == label[t]`) from the heads of the
//!   deleted edges that carried a dependency. Every value in `A` is reset
//!   (distances to `INF`, labels to self), and the re-convergence is
//!   seeded from the surviving in-boundary of `A` in the **new** graph.
//!   Any vertex whose every witness path used a deleted edge is in `A` —
//!   on a min-witness path each hop carries the dependency — so values
//!   outside `A` remain exact and the monotone re-run reaches the unique
//!   fixed point: bit-identical to a full recompute.
//!
//! Non-monotone programs return [`RepairPlan::Restart`]: state is rebuilt
//! but the run stays inside the *warm* session (the data-efficiency half
//! of the win — no re-prestore, no arena teardown). PageRank's repair is
//! exactly its residual formulation restarted with fresh residuals.

use ascetic_graph::{Csr, VertexId, Weight};
use ascetic_par::Bitmap;

/// What the repair engine should do after
/// [`crate::VertexProgram::repair`] adjusted program state.
pub enum RepairPlan {
    /// Re-run the operator core to a fixed point from this frontier (which
    /// may be empty — nothing was affected). State was repaired in place.
    Seeded(Bitmap),
    /// Rebuild state and re-run from the program's initial frontier,
    /// inside the warm session.
    Restart,
}

/// The forward closure of `roots` over `g`'s edges that satisfy `carries`
/// (judged on `(src, dst, weight)`; unweighted edges report weight 1).
/// Returns the membership mask of the affected set `A`.
pub(crate) fn forward_closure(
    g: &Csr,
    roots: impl IntoIterator<Item = VertexId>,
    mut carries: impl FnMut(VertexId, VertexId, Weight) -> bool,
) -> Vec<bool> {
    let n = g.num_vertices();
    let mut in_a = vec![false; n];
    let mut stack: Vec<VertexId> = Vec::new();
    for r in roots {
        if !in_a[r as usize] {
            in_a[r as usize] = true;
            stack.push(r);
        }
    }
    while let Some(v) = stack.pop() {
        let targets = g.neighbors(v);
        let weights = g.weights().map(|_| g.edge_weights(v));
        for (i, &t) in targets.iter().enumerate() {
            if in_a[t as usize] {
                continue;
            }
            let w = weights.map_or(1, |ws| ws[i]);
            if carries(v, t, w) {
                in_a[t as usize] = true;
                stack.push(t);
            }
        }
    }
    in_a
}

/// Visit every vertex outside `A` with an out-edge into `A` in the new
/// graph — the surviving boundary that re-seeds the settle pass. Walks the
/// CSC mirror's rows when available (`O(edges into A)`), otherwise scans
/// the CSR once.
pub(crate) fn in_boundary(
    g_new: &Csr,
    csc_new: Option<&Csr>,
    in_a: &[bool],
    mut visit: impl FnMut(VertexId),
) {
    match csc_new {
        Some(csc) => {
            for (v, &a) in in_a.iter().enumerate() {
                if !a {
                    continue;
                }
                for &p in csc.neighbors(v as VertexId) {
                    if !in_a[p as usize] {
                        visit(p);
                    }
                }
            }
        }
        None => {
            for u in 0..g_new.num_vertices() {
                if in_a[u] {
                    continue;
                }
                if g_new
                    .neighbors(u as VertexId)
                    .iter()
                    .any(|&t| in_a[t as usize])
                {
                    visit(u as VertexId);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::Bfs;
    use crate::cc::Cc;
    use crate::inmemory::{run_in_memory, run_in_memory_from};
    use crate::pr::PageRank;
    use crate::sssp::Sssp;
    use crate::traits::VertexProgram;
    use ascetic_graph::generators::uniform_graph;
    use ascetic_graph::{GraphBuilder, Mutation};

    #[test]
    fn closure_follows_only_carrying_edges() {
        // 0 -> 1 -> 2, 0 -> 3; pretend only edges between even-sum pairs carry
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(0, 3);
        let g = b.build();
        let in_a = forward_closure(&g, [1], |s, t, _| s == 1 && t == 2);
        assert_eq!(in_a, vec![false, true, true, false]);
    }

    #[test]
    fn boundary_matches_between_csc_and_scan() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 2);
        b.add_edge(1, 2);
        b.add_edge(3, 4);
        b.add_edge(2, 3);
        let g = b.build();
        let csc = g.transpose();
        let in_a = vec![false, false, true, true, false];
        let mut with_csc = Vec::new();
        in_boundary(&g, Some(&csc), &in_a, |v| with_csc.push(v));
        let mut scanned = Vec::new();
        in_boundary(&g, None, &in_a, |v| scanned.push(v));
        with_csc.sort_unstable();
        with_csc.dedup();
        scanned.sort_unstable();
        scanned.dedup();
        assert_eq!(with_csc, vec![0, 1]);
        assert_eq!(scanned, vec![0, 1]);
    }

    /// Deterministic churn batch: ~2/3 inserts of fresh random edges, 1/3
    /// deletes of edges present in the current graph.
    fn churn_batch(
        g: &ascetic_graph::Csr,
        weighted: bool,
        count: usize,
        seed: u64,
    ) -> Vec<Mutation> {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut rng = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let n = g.num_vertices() as u64;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            if rng() % 3 == 0 && g.num_edges() > 0 {
                // delete a real edge: pick a vertex with out-degree > 0
                let mut src = (rng() % n) as u32;
                while g.degree(src) == 0 {
                    src = (src + 1) % n as u32;
                }
                let row = g.neighbors(src);
                let dst = row[(rng() % row.len() as u64) as usize];
                out.push(Mutation::Delete { src, dst });
            } else {
                out.push(Mutation::Insert {
                    src: (rng() % n) as u32,
                    dst: (rng() % n) as u32,
                    weight: weighted.then(|| (rng() % 9 + 1) as u32),
                });
            }
        }
        out
    }

    /// The hard oracle at the algorithm layer: converge on the old graph,
    /// patch, repair + settle, and demand bit-identical output to a cold
    /// recompute on the mutated graph — across several mutation batches
    /// applied to the *same* evolving state.
    fn assert_repair_matches_recompute<P: VertexProgram>(prog: &P, weighted: bool, seed: u64) {
        let base = uniform_graph(120, 700, false, seed);
        let base = if weighted {
            ascetic_graph::datasets::weighted_variant(&base)
        } else {
            base
        };
        let mut g_old = base;
        let mut state = prog.new_state(&g_old);
        run_in_memory_from(&g_old, prog, &state, prog.initial_frontier(&g_old));

        for round in 0..4u64 {
            let batch = churn_batch(&g_old, weighted, 24, seed * 17 + round);
            let mut g_new = g_old.clone();
            let patch = g_new.apply(&batch).expect("valid churn batch");
            g_new.validate().expect("patched CSR invariants");
            let csc_new = g_new.transpose();

            match prog.repair(&g_old, &g_new, Some(&csc_new), &patch, &state) {
                RepairPlan::Seeded(seeds) => {
                    run_in_memory_from(&g_new, prog, &state, seeds);
                }
                RepairPlan::Restart => {
                    state = prog.new_state(&g_new);
                    run_in_memory_from(&g_new, prog, &state, prog.initial_frontier(&g_new));
                }
            }
            let repaired = prog.output(&state);
            let recomputed = run_in_memory(&g_new, prog).output;
            assert_eq!(repaired, recomputed, "round {round} diverged");
            g_old = g_new;
        }
    }

    #[test]
    fn bfs_repair_is_bit_identical_to_recompute() {
        for seed in 1..=4 {
            assert_repair_matches_recompute(&Bfs::new(0), false, seed);
        }
    }

    #[test]
    fn sssp_repair_is_bit_identical_to_recompute() {
        for seed in 1..=4 {
            assert_repair_matches_recompute(&Sssp::new(0), true, seed);
        }
    }

    #[test]
    fn cc_repair_is_bit_identical_to_recompute() {
        for seed in 1..=4 {
            assert_repair_matches_recompute(&Cc::new(), false, seed);
        }
    }

    #[test]
    fn pr_restart_is_bit_identical_to_recompute() {
        assert_repair_matches_recompute(&PageRank::new(), false, 3);
    }

    #[test]
    fn delete_only_batches_strand_vertices_correctly() {
        // Chain 0 -> 1 -> 2 -> 3 with a shortcut 0 -> 3; delete the chain
        // middle and check distances settle through the survivor.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 3);
        b.add_edge(0, 3);
        let g = b.build();
        let prog = Bfs::new(0);
        let state = prog.new_state(&g);
        run_in_memory_from(&g, &prog, &state, prog.initial_frontier(&g));
        let mut g_new = g.clone();
        let patch = g_new.apply(&[Mutation::Delete { src: 1, dst: 2 }]).unwrap();
        match prog.repair(&g, &g_new, Some(&g_new.transpose()), &patch, &state) {
            RepairPlan::Seeded(seeds) => {
                run_in_memory_from(&g_new, &prog, &state, seeds);
            }
            RepairPlan::Restart => panic!("BFS declares incremental"),
        }
        assert_eq!(
            prog.output(&state),
            crate::AlgoOutput::Distances(vec![0, 1, ascetic_graph::INF_DIST, 1])
        );
    }
}
