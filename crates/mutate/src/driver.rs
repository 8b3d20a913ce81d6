//! The mutation driver: patch a live session through each batch, and
//! repair instead of recomputing.
//!
//! The session owns the graph of the epoch it is on:
//! `AsceticSession::apply_batch` patches it in place ([`Csr::apply`]) and
//! splices the delta into the resident chunks, and [`repair_session`]
//! re-converges the program state from the patch's affected-vertex
//! frontier, judging invalidations on a copy of the pre-batch graph — two
//! graph versions at a time, never one per batch. The optional verify mode
//! replays every epoch against the in-memory oracle and records
//! bit-identity per batch — the hard oracle behind the `mutate-smoke` CI
//! job and the incremental bench lane. [`materialize`] keeps every epoch,
//! for oracles that want them all at once.

use ascetic_algos::inmemory::run_in_memory;
use ascetic_algos::VertexProgram;
use ascetic_core::{repair_session, AsceticConfig, AsceticSession, RepairMode, RunReport};
use ascetic_graph::{Csr, GraphPatch, Mutation, PatchError};

/// Every graph epoch of a mutation stream ([`materialize`]).
pub struct Epochs {
    /// `versions[i]` is the graph after the first `i` batches
    /// (`versions[0]` is the base graph).
    pub versions: Vec<Csr>,
    /// `patches[i]` turned `versions[i]` into `versions[i + 1]`.
    pub patches: Vec<GraphPatch>,
}

/// Every graph version of a mutation stream, each a clone of the head
/// [`Csr::apply`] patches: what an oracle replaying or checking the stream
/// reads. Fails on the first malformed mutation, identifying the batch by
/// index.
pub fn materialize(g: &Csr, batches: &[Vec<Mutation>]) -> Result<Epochs, (usize, PatchError)> {
    let mut head = g.clone();
    let mut epochs = Epochs {
        versions: vec![g.clone()],
        patches: Vec::with_capacity(batches.len()),
    };
    for (i, batch) in batches.iter().enumerate() {
        epochs.patches.push(head.apply(batch).map_err(|e| (i, e))?);
        epochs.versions.push(head.clone());
    }
    Ok(epochs)
}

/// What one batch cost and how the session recovered from it.
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    /// Batch index in the stream.
    pub index: usize,
    /// Edges inserted.
    pub inserts: u64,
    /// Parallel-edge copies removed.
    pub deletes: u64,
    /// Deletes that named no live edge (counted no-ops).
    pub missing_deletes: u64,
    /// How [`repair_session`] re-converged.
    pub mode: RepairMode,
    /// Seed-frontier size (0 unless [`RepairMode::Seeded`]).
    pub seed_count: u64,
    /// Bytes the delta patch put on the wire (splice traffic, not the
    /// repair run's on-demand transfers).
    pub patch_wire_bytes: u64,
    /// Simulated time the in-place splice took, ns.
    pub patch_ns: u64,
    /// Resident device chunks rewritten in place by the patch.
    pub refreshed_chunks: u32,
    /// Resident device chunks evicted by the patch (graph shrank past
    /// their range).
    pub evicted_chunks: u32,
    /// Simulated time of the repair run, ns (warm session: no prestore).
    pub repair_ns: u64,
    /// H2D wire bytes the repair run moved.
    pub repair_wire_bytes: u64,
    /// Iterations the repair needed.
    pub repair_iterations: u32,
    /// Active edges the repair touched, summed over its iterations.
    pub repair_active_edges: u64,
    /// Fingerprint of the program output after this batch.
    pub fingerprint: u64,
    /// `Some(true)` iff verify mode ran and the repaired output was
    /// bit-identical to a cold in-memory recompute on the mutated graph.
    pub matches_recompute: Option<bool>,
}

/// A full mutated run: base convergence plus one [`BatchOutcome`] per
/// batch.
pub struct MutationRun {
    /// The initial (pre-mutation) convergence on the base graph.
    pub base: RunReport,
    /// Per-batch patch + repair accounting, in stream order.
    pub batches: Vec<BatchOutcome>,
}

impl MutationRun {
    /// Whether every verified batch matched the recompute oracle
    /// (vacuously true when verify mode was off).
    pub fn all_verified(&self) -> bool {
        self.batches
            .iter()
            .all(|b| b.matches_recompute.unwrap_or(true))
    }

    /// Fingerprint of the final output (base fingerprint if no batches).
    pub fn final_fingerprint(&self) -> u64 {
        self.batches
            .last()
            .map(|b| b.fingerprint)
            .unwrap_or_else(|| self.base.output.fingerprint())
    }
}

impl std::fmt::Display for MutationRun {
    /// The table `ascetic run --mutations` prints: the base run, one row
    /// per batch, and the totals.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let base = &self.base;
        writeln!(f, "system:            Ascetic (streaming mutations)")?;
        writeln!(f, "algorithm:         {}", base.algorithm)?;
        writeln!(
            f,
            "base run:          {:>8.2} ms, {} iterations, fp {:016x}",
            base.sim_time_ns as f64 / 1e6,
            base.iterations,
            base.output.fingerprint()
        )?;
        writeln!(
            f,
            "\n{:>5} {:>6} {:>6} {:<8} {:>7} {:>11} {:>10} {:>6} {:>16} {:>7}",
            "batch",
            "+ins",
            "-del",
            "mode",
            "seeds",
            "patch",
            "repair",
            "iters",
            "fingerprint",
            "verify"
        )?;
        for b in &self.batches {
            writeln!(
                f,
                "{:>5} {:>6} {:>6} {:<8} {:>7} {:>9.2}KB {:>8.2}ms {:>6} {:016x} {:>7}",
                b.index,
                b.inserts,
                b.deletes,
                format!("{:?}", b.mode).to_lowercase(),
                b.seed_count,
                b.patch_wire_bytes as f64 / 1e3,
                b.repair_ns as f64 / 1e6,
                b.repair_iterations,
                b.fingerprint,
                match b.matches_recompute {
                    Some(true) => "ok",
                    Some(false) => "FAIL",
                    None => "-",
                }
            )?;
        }
        let total_patch: u64 = self.batches.iter().map(|b| b.patch_wire_bytes).sum();
        let total_repair: u64 = self.batches.iter().map(|b| b.repair_ns).sum();
        writeln!(
            f,
            "\n{} batches: {:.2} KB spliced, {:.2} ms of repair, final fp {:016x}",
            self.batches.len(),
            total_patch as f64 / 1e3,
            total_repair as f64 / 1e6,
            self.final_fingerprint()
        )
    }
}

/// Run `prog` over `g`, then stream `batches` through the session —
/// patching the resident chunks in place and repairing the program state
/// after each batch. With `verify`, every batch's repaired output is
/// compared bit-identically against a cold in-memory recompute on the
/// mutated graph ([`BatchOutcome::matches_recompute`]). A malformed batch
/// fails the call before anything runs, named by its index.
pub fn run_with_mutations<P: VertexProgram>(
    cfg: AsceticConfig,
    g: &Csr,
    prog: &P,
    batches: &[Vec<Mutation>],
    verify: bool,
) -> Result<MutationRun, (usize, PatchError)> {
    for (i, batch) in batches.iter().enumerate() {
        g.check_batch(batch).map_err(|e| (i, e))?;
    }
    let mut sess = AsceticSession::new(cfg, g);
    let mut state = prog.new_state(g);
    let base = sess.run_with_state(prog, &state, prog.initial_frontier(g));
    let mut outcomes = Vec::with_capacity(batches.len());
    for (i, batch) in batches.iter().enumerate() {
        let g_old = sess.graph().clone();
        let pa = sess.apply_batch(batch).map_err(|e| (i, e))?;
        let patch = &pa.patch;
        let out = repair_session(&mut sess, prog, &mut state, &g_old, patch);
        let matches_recompute =
            verify.then(|| out.report.output == run_in_memory(sess.graph(), prog).output);
        outcomes.push(BatchOutcome {
            index: i,
            inserts: patch.inserts.len() as u64,
            deletes: patch.deletes.len() as u64,
            missing_deletes: patch.missing_deletes,
            mode: out.mode,
            seed_count: out.seed_count,
            patch_wire_bytes: pa.wire_bytes,
            patch_ns: pa.patch_ns,
            refreshed_chunks: pa.refreshed_chunks,
            evicted_chunks: pa.evicted_chunks,
            repair_ns: out.report.sim_time_ns,
            repair_wire_bytes: out.report.xfer.h2d_wire_bytes,
            repair_iterations: out.report.iterations,
            repair_active_edges: out.report.per_iter.iter().map(|it| it.active_edges).sum(),
            fingerprint: out.report.output.fingerprint(),
            matches_recompute,
        });
    }
    Ok(MutationRun {
        base,
        batches: outcomes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::synthetic_churn;
    use ascetic_algos::{Bfs, LabelPropagation, Sssp};
    use ascetic_graph::datasets::weighted_variant;
    use ascetic_graph::generators::uniform_graph;
    use ascetic_sim::DeviceConfig;

    fn cfg_for(g: &Csr) -> AsceticConfig {
        let dev = DeviceConfig::p100(g.num_vertices() as u64 * 24 + g.edge_bytes() * 2 / 5);
        AsceticConfig::new(dev).with_chunk_bytes(1024)
    }

    #[test]
    fn driver_repairs_and_verifies_every_batch() {
        let g = uniform_graph(700, 5_000, false, 31);
        let batches = synthetic_churn(&g, 3, 20, 8);
        let run = run_with_mutations(cfg_for(&g), &g, &Bfs::new(0), &batches, true).unwrap();
        assert_eq!(run.batches.len(), 3);
        assert!(run.all_verified());
        assert!(run
            .batches
            .iter()
            .all(|b| b.mode == RepairMode::Seeded && b.patch_wire_bytes > 0));
        assert_eq!(
            run.final_fingerprint(),
            run.batches.last().unwrap().fingerprint
        );
    }

    #[test]
    fn driver_handles_weighted_programs() {
        let g = weighted_variant(&uniform_graph(400, 2_500, false, 33));
        let batches = synthetic_churn(&g, 2, 15, 12);
        let run = run_with_mutations(cfg_for(&g), &g, &Sssp::new(0), &batches, true).unwrap();
        assert!(run.all_verified());
    }

    #[test]
    fn driver_falls_back_for_non_incremental_programs() {
        let g = uniform_graph(300, 2_000, false, 35);
        let batches = synthetic_churn(&g, 2, 10, 21);
        let run = run_with_mutations(
            cfg_for(&g),
            &g,
            &LabelPropagation::default(),
            &batches,
            true,
        )
        .unwrap();
        assert!(run.all_verified());
        assert!(run
            .batches
            .iter()
            .all(|b| b.mode == RepairMode::Fallback && b.seed_count == 0));
    }

    #[test]
    fn materialize_reports_the_failing_batch() {
        let g = uniform_graph(50, 200, false, 1);
        let batches = vec![
            vec![Mutation::Insert {
                src: 0,
                dst: 1,
                weight: None,
            }],
            vec![Mutation::Insert {
                src: 0,
                dst: 1,
                weight: Some(7),
            }],
        ];
        let Err((idx, _)) = materialize(&g, &batches) else {
            panic!("weighted insert into an unweighted graph must fail");
        };
        assert_eq!(idx, 1, "the failure is in the second batch");
    }
}
