//! The incremental repair engine: re-converge a session after a mutation.
//!
//! [`repair_session`] is the differential-dataflow-flavored half of
//! `ascetic-mutate`: the caller has already delta-patched the session with
//! [`AsceticSession::apply_batch`]; this decides *how little* recompute the
//! patched graph needs and drives the existing operator core to do it.
//!
//! Three modes, ranked by how much converged work survives:
//!
//! * **Seeded** — the program declares [`Capabilities::incremental`] and
//!   its [`VertexProgram::repair`] adjusted state in place (the monotone
//!   invalidate-then-settle passes of BFS/SSSP/CC): the engine re-runs
//!   from the returned affected-vertex frontier, typically a tiny fraction
//!   of the graph.
//! * **Restart** — the program keeps its warm-session benefits (patched
//!   resident chunks, no re-prestore) but re-converges from fresh state
//!   (PR's residual re-convergence: bit-identicality rules out warm
//!   residuals, and the patch changed its cached out-degrees).
//! * **Fallback** — the program never declared `incremental`: fresh state,
//!   initial frontier, warm session. Correctness by construction.
//!
//! All three end at the program's unique fixed point on the mutated graph,
//! so every mode satisfies the hard oracle: *bit-identical to a full
//! recompute* (pinned across thread counts and device counts by the
//! workspace determinism suites).
//!
//! [`Capabilities::incremental`]: ascetic_algos::Capabilities

use ascetic_algos::{RepairPlan, VertexProgram};
use ascetic_graph::{Csr, GraphPatch};

use crate::report::RunReport;
use crate::session::{AsceticSession, MUTATE_TRACK};

/// How [`repair_session`] re-converged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepairMode {
    /// In-place state repair, re-run from an affected-vertex frontier.
    Seeded,
    /// Fresh state in the warm session, by the program's own choice.
    Restart,
    /// Fresh state in the warm session — the program does not implement
    /// incremental repair.
    Fallback,
}

/// Result of one [`repair_session`] call.
pub struct RepairOutcome {
    /// Which repair path ran.
    pub mode: RepairMode,
    /// Seed-frontier size (0 unless [`RepairMode::Seeded`]).
    pub seed_count: u64,
    /// The re-convergence run's report (warm-session accounting: no
    /// prestore, only the iterations the repair actually needed).
    pub report: RunReport,
}

/// Re-converge `state` on `sess`'s (already patched) graph. `g_old` is the
/// pre-patch graph the state converged over — the invalidation closures
/// judge dependencies on its edges; the caller keeps it (a copy taken
/// before the batch) and the program state across batches.
pub fn repair_session<P: VertexProgram>(
    sess: &mut AsceticSession<'_>,
    prog: &P,
    state: &mut P::State,
    g_old: &Csr,
    patch: &GraphPatch,
) -> RepairOutcome {
    let start_ns = sess.clock_ns();
    if !prog.capabilities().incremental {
        *state = prog.new_state(sess.graph());
        let frontier = prog.initial_frontier(sess.graph());
        let report = sess.run_with_state(prog, state, frontier);
        sess.obs_counter_add("mutate.repair_fallback", 1);
        let end_ns = sess.clock_ns();
        sess.phase_span(
            MUTATE_TRACK,
            start_ns,
            end_ns,
            "repair (fallback recompute)",
        );
        return RepairOutcome {
            mode: RepairMode::Fallback,
            seed_count: 0,
            report,
        };
    }
    let plan = prog.repair(g_old, sess.graph(), sess.mirror_csc(), patch, state);
    match plan {
        RepairPlan::Seeded(seeds) => {
            let seed_count = seeds.count_ones() as u64;
            let report = sess.run_with_state(prog, state, seeds);
            sess.obs_counter_add("mutate.repair_seeded", 1);
            sess.obs_counter_add("mutate.repair_seeds", seed_count);
            let end_ns = sess.clock_ns();
            sess.phase_span(MUTATE_TRACK, start_ns, end_ns, "repair (seeded settle)");
            RepairOutcome {
                mode: RepairMode::Seeded,
                seed_count,
                report,
            }
        }
        RepairPlan::Restart => {
            *state = prog.new_state(sess.graph());
            let frontier = prog.initial_frontier(sess.graph());
            let report = sess.run_with_state(prog, state, frontier);
            sess.obs_counter_add("mutate.repair_restart", 1);
            let end_ns = sess.clock_ns();
            sess.phase_span(MUTATE_TRACK, start_ns, end_ns, "repair (warm restart)");
            RepairOutcome {
                mode: RepairMode::Restart,
                seed_count: 0,
                report,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascetic_algos::inmemory::run_in_memory;
    use ascetic_algos::{Bfs, Cc, LabelPropagation, PageRank, Sssp};
    use ascetic_graph::datasets::weighted_variant;
    use ascetic_graph::generators::uniform_graph;
    use ascetic_graph::Mutation;
    use ascetic_sim::DeviceConfig;

    use crate::config::AsceticConfig;

    fn cfg_for(g: &Csr) -> AsceticConfig {
        let dev = DeviceConfig::p100(g.num_vertices() as u64 * 24 + g.edge_bytes() * 2 / 5);
        AsceticConfig::new(dev).with_chunk_bytes(1024)
    }

    /// Deterministic small churn batch over the current graph.
    fn churn(g: &Csr, weighted: bool, count: usize, seed: u64) -> Vec<Mutation> {
        let mut s = seed.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
        let mut rng = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let n = g.num_vertices() as u64;
        (0..count)
            .map(|_| {
                if rng() % 3 == 0 && g.num_edges() > 0 {
                    let mut src = (rng() % n) as u32;
                    while g.degree(src) == 0 {
                        src = (src + 1) % n as u32;
                    }
                    let row = g.neighbors(src);
                    Mutation::Delete {
                        src,
                        dst: row[(rng() % row.len() as u64) as usize],
                    }
                } else {
                    Mutation::Insert {
                        src: (rng() % n) as u32,
                        dst: (rng() % n) as u32,
                        weight: weighted.then(|| (rng() % 9 + 1) as u32),
                    }
                }
            })
            .collect()
    }

    /// The engine-level oracle: session-run base, patch + repair per batch,
    /// compare bit-identically against a cold full recompute each time.
    fn assert_session_repair_matches<P: VertexProgram>(prog: &P, weighted: bool, seed: u64) {
        let base = uniform_graph(900, 7_000, false, seed);
        let base = if weighted {
            weighted_variant(&base)
        } else {
            base
        };
        // the session patches its own copy; the pre-batch graph is kept
        // only for repair's invalidation walk
        let mut sess = AsceticSession::new(cfg_for(&base), &base);
        let mut state = prog.new_state(&base);
        sess.run_with_state(prog, &state, prog.initial_frontier(&base));
        for round in 0..3u64 {
            let g_old = sess.graph().clone();
            let batch = churn(&g_old, weighted, 30, seed * 31 + round);
            let pa = sess.apply_batch(&batch).expect("valid churn");
            let out = repair_session(&mut sess, prog, &mut state, &g_old, &pa.patch);
            assert_eq!(
                out.report.output,
                run_in_memory(sess.graph(), prog).output,
                "round {round} diverged from full recompute"
            );
        }
    }

    #[test]
    fn bfs_session_repair_matches_recompute() {
        assert_session_repair_matches(&Bfs::new(0), false, 11);
    }

    #[test]
    fn sssp_session_repair_matches_recompute() {
        assert_session_repair_matches(&Sssp::new(0), true, 12);
    }

    #[test]
    fn cc_session_repair_matches_recompute() {
        assert_session_repair_matches(&Cc::new(), false, 13);
    }

    #[test]
    fn pr_session_restart_matches_recompute() {
        assert_session_repair_matches(&PageRank::new(), false, 14);
    }

    #[test]
    fn lp_falls_back_to_full_recompute() {
        let g0 = uniform_graph(500, 3_500, false, 15);
        let batch = churn(&g0, false, 12, 99);

        let prog = LabelPropagation::default();
        let mut sess = AsceticSession::new(cfg_for(&g0), &g0);
        let mut state = prog.new_state(&g0);
        sess.run_with_state(&prog, &state, prog.initial_frontier(&g0));
        let pa = sess.apply_batch(&batch).expect("valid churn");
        let out = repair_session(&mut sess, &prog, &mut state, &g0, &pa.patch);
        assert_eq!(out.mode, RepairMode::Fallback);
        assert_eq!(out.seed_count, 0);
        assert_eq!(out.report.output, run_in_memory(sess.graph(), &prog).output);
    }

    #[test]
    fn seeded_repair_moves_less_than_recompute() {
        // A small batch on a converged BFS session must re-touch far fewer
        // edges than a cold recompute — the paper-side claim behind the
        // incremental bench lane.
        let g0 = uniform_graph(1_500, 12_000, false, 21);
        let batch = churn(&g0, false, 8, 7);

        let prog = Bfs::new(0);
        let mut sess = AsceticSession::new(cfg_for(&g0), &g0);
        let mut state = prog.new_state(&g0);
        sess.run_with_state(&prog, &state, prog.initial_frontier(&g0));
        let pa = sess.apply_batch(&batch).expect("valid churn");
        assert!(pa.wire_bytes > 0, "delta must be accounted on the wire");
        let out = repair_session(&mut sess, &prog, &mut state, &g0, &pa.patch);
        assert_eq!(out.mode, RepairMode::Seeded);

        let g1 = sess.graph().clone();
        let mut cold = AsceticSession::new(cfg_for(&g1), &g1);
        let cold_report = cold.run(&prog);
        assert_eq!(out.report.output, cold_report.output);
        let repaired_edges: u64 = out.report.per_iter.iter().map(|i| i.active_edges).sum();
        let cold_edges: u64 = cold_report.per_iter.iter().map(|i| i.active_edges).sum();
        assert!(
            repaired_edges < cold_edges / 2,
            "repair touched {repaired_edges} edges vs {cold_edges} cold"
        );
    }
}
