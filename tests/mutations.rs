//! Streaming-mutation guarantees, across crate boundaries.
//!
//! Two families of checks:
//!
//! * **Structural** (proptests): random insert/delete churn over quirky
//!   graphs — self-loops, isolated vertices, parallel edges, batches that
//!   grow and shrink many rows at once — must leave the patched CSR (and
//!   its transpose) byte-equal to one rebuilt from scratch, and
//!   `Csr::validate()` must hold after every patch.
//! * **Oracle + determinism**: the incrementally repaired answer after
//!   every batch is bit-identical to a cold recompute on the mutated
//!   graph, and the whole stream is reproducible across {1, 2, 8} host
//!   threads and {1, 2} fleet devices.

use proptest::prelude::*;

use ascetic::algos::inmemory::run_in_memory;
use ascetic::algos::{Algo, ProgramOpts, VertexProgram};
use ascetic::core::{
    run_fleet, AsceticConfig, AsceticSession, CompressionMode, DirectionMode, FillPolicy,
    FleetConfig, PrefetchMode, RepairMode,
};
use ascetic::graph::datasets::{weighted_variant, Dataset, DatasetId};
use ascetic::graph::generators::{uniform_graph, web_graph, WebConfig};
use ascetic::graph::{Csr, GraphBuilder, Mutation, VertexId, Weight};
use ascetic::mutate::{materialize, run_with_mutations, synthetic_churn};
use ascetic::par::set_num_threads;
use ascetic::sim::{DecompressModel, DeviceConfig};

fn small_cfg(g: &Csr) -> AsceticConfig {
    let dev = DeviceConfig::p100(g.num_vertices() as u64 * 24 + g.edge_bytes() * 2 / 5);
    AsceticConfig::new(dev).with_chunk_bytes(1024)
}

/// Quirky proptest graphs are tiny (dozens of vertices, hundreds of
/// edges); give the arena room for the vertex slab plus a handful of
/// small chunks so the session's minimum edge budget holds.
fn tiny_cfg(g: &Csr) -> AsceticConfig {
    let dev = DeviceConfig::p100(g.num_vertices() as u64 * 64 + g.edge_bytes() + 4096);
    AsceticConfig::new(dev).with_chunk_bytes(256)
}

/// Self-loops kept, every edge squeezed into the bottom half of the
/// vertex range so the top half is guaranteed isolated.
fn quirky_graph_from_edges(n: usize, edges: &[(u32, u32)], weighted: bool) -> Csr {
    let mut b = GraphBuilder::new(n).dedup(false);
    let span = (n as u32 / 2).max(1);
    for (i, &(u, v)) in edges.iter().enumerate() {
        if weighted {
            b.add_weighted_edge(u % span, v % span, (i as Weight % 9) + 1);
        } else {
            b.add_edge(u % span, v % span);
        }
    }
    b.build()
}

/// Raw mutation ops as the proptest strategy draws them; resolved against
/// a concrete graph by [`resolve_batches`].
type RawBatches = Vec<Vec<(u32, u32, bool, u32)>>;

fn arb_raw_batches() -> impl Strategy<Value = RawBatches> {
    proptest::collection::vec(
        proptest::collection::vec((any::<u32>(), any::<u32>(), any::<bool>(), 1u32..10), 1..60),
        1..4,
    )
}

/// Random mutation stream: inserts anywhere in the range (so isolated rows
/// grow too and the edge array shifts both ways), deletes aimed at the
/// bottom half where the edges live (so they hit real edges often but not
/// always — `missing_deletes` must be a counted no-op, not a failure).
fn resolve_batches(raw: &RawBatches, n: usize, weighted: bool) -> Vec<Vec<Mutation>> {
    let span = (n as u32 / 2).max(1);
    raw.iter()
        .map(|ops| {
            ops.iter()
                .map(|&(u, v, del, w)| {
                    if del {
                        Mutation::Delete {
                            src: u % span,
                            dst: v % span,
                        }
                    } else {
                        Mutation::Insert {
                            src: u % n as u32,
                            dst: v % n as u32,
                            weight: weighted.then_some(w),
                        }
                    }
                })
                .collect()
        })
        .collect()
}

/// Rebuild-from-scratch oracle: the canonical semantics applied to a
/// plain edge list (inserts append at row end, deletes remove every
/// parallel copy).
fn oracle_apply(g: &Csr, batches: &[Vec<Mutation>]) -> Csr {
    let n = g.num_vertices();
    let mut rows: Vec<Vec<(VertexId, Option<Weight>)>> = (0..n)
        .map(|v| {
            let ts = g.neighbors(v as VertexId);
            match g.weights() {
                Some(_) => ts
                    .iter()
                    .zip(g.edge_weights(v as VertexId))
                    .map(|(&t, &w)| (t, Some(w)))
                    .collect(),
                None => ts.iter().map(|&t| (t, None)).collect(),
            }
        })
        .collect();
    for batch in batches {
        for op in batch {
            match *op {
                Mutation::Insert { src, dst, weight } => rows[src as usize].push((dst, weight)),
                Mutation::Delete { src, dst } => rows[src as usize].retain(|&(t, _)| t != dst),
            }
        }
    }
    let mut offsets = vec![0u64];
    let mut targets = Vec::new();
    let mut weights = g.weights().map(|_| Vec::new());
    for row in &rows {
        for &(t, w) in row {
            targets.push(t);
            if let Some(ws) = weights.as_mut() {
                ws.push(w.unwrap());
            }
        }
        offsets.push(targets.len() as u64);
    }
    Csr::from_parts(offsets, targets, weights)
}

fn assert_csr_eq(a: &Csr, b: &Csr, what: &str) {
    assert_eq!(a.offsets(), b.offsets(), "{what}: offsets differ");
    assert_eq!(a.targets(), b.targets(), "{what}: targets differ");
    assert_eq!(a.weights(), b.weights(), "{what}: weights differ");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Patched in place == rebuilt from scratch, CSR and its transpose
    /// alike, with `validate()` after every batch.
    #[test]
    fn patched_store_matches_a_rebuild_from_scratch(
        (n, edges, weighted) in (16usize..120, proptest::collection::vec((any::<u32>(), any::<u32>()), 1..600), any::<bool>()),
        raw in arb_raw_batches(),
    ) {
        let g = quirky_graph_from_edges(n, &edges, weighted);
        let batches = resolve_batches(&raw, n, weighted);
        let mut csr = g.clone();
        let mut applied: Vec<Vec<Mutation>> = Vec::new();
        for batch in &batches {
            csr.apply(batch).expect("well-formed batches always apply");
            applied.push(batch.clone());
            csr.validate().expect("patched CSR invariants");
            let csc = csr.transpose();
            csc.validate().expect("patched CSC invariants");
            let oracle = oracle_apply(&g, &applied);
            assert_csr_eq(&csr, &oracle, "csr");
            assert_csr_eq(&csc, &oracle.transpose(), "csc");
        }
    }

    /// The incrementally repaired answer equals a cold recompute on the
    /// mutated graph, bit-identically, after every batch — BFS (seeded
    /// monotone repair) and CC (seeded merge repair) over quirky graphs.
    #[test]
    fn repaired_outputs_match_recompute_on_quirky_graphs(
        (n, edges) in (24usize..100, proptest::collection::vec((any::<u32>(), any::<u32>()), 8..400)),
        seed in any::<u64>(),
    ) {
        let g = quirky_graph_from_edges(n, &edges, false);
        if g.num_edges() == 0 {
            return Ok(());
        }
        let batches = synthetic_churn(&g, 2, 12, seed);
        for algo in [Algo::Bfs, Algo::Cc] {
            let prog = algo.program(&ProgramOpts::from_source(0));
            let run = run_with_mutations(tiny_cfg(&g), &g, &prog, &batches, true)
                .expect("churn batches always apply");
            prop_assert!(run.all_verified(), "{}: repaired output diverged", algo.name());
        }
    }
}

/// Long churn (ROADMAP 4(b), first slice): a hundred batches through one
/// live session that patches its own graph. At every epoch the graph is a
/// valid CSR whose edge slots never exceed its length plus one batch's
/// inserts (in-place growth reserves exactly, nothing accumulates), and
/// the session's BFS and CC answers equal the in-memory oracle's.
#[test]
fn one_session_patches_itself_through_a_hundred_churn_batches() {
    let g = uniform_graph(600, 4_000, false, 41);
    let batches = synthetic_churn(&g, 100, 30, 0xC0FFEE);
    let mut sess = AsceticSession::new(small_cfg(&g), &g);
    for (i, batch) in batches.iter().enumerate() {
        sess.apply_batch(batch).expect("churn batches always apply");
        let now = sess.graph();
        now.validate().expect("patched CSR invariants");
        let inserts = batch
            .iter()
            .filter(|m| matches!(m, Mutation::Insert { .. }))
            .count();
        assert!(
            now.edge_capacity() <= now.num_edges() as usize + inserts,
            "batch {i}: {} edge slots for {} edges",
            now.edge_capacity(),
            now.num_edges()
        );
        for algo in [Algo::Bfs, Algo::Cc] {
            let prog = algo.program(&ProgramOpts::from_source(0));
            let want = run_in_memory(sess.graph(), &prog).output;
            assert_eq!(sess.run(&prog).output, want, "batch {i}: {}", algo.name());
        }
    }
    drop(sess);
    assert!(
        g == uniform_graph(600, 4_000, false, 41),
        "the session patched a copy, never the caller's graph"
    );
}

/// The mutation path under the mode product: a session that prefetches,
/// compresses and holds a CSC mirror re-chunks its region, its wire-size
/// cache, its prefetch history and its mirror on every batch. A rear-filled
/// region holds the tail chunks, so deleting the last rows' edges shrinks
/// the edge array past resident chunks (evicting them), and inserting them
/// back plus 300 edges out of vertex 0 grows it past its first length
/// (every cache keyed by chunk must grow with it) and rewrites every
/// resident chunk in place. After every batch BFS, CC and PR on the warm
/// session equal the in-memory oracle on the patched graph.
#[test]
fn a_prefetching_compressing_mirrored_session_patches_itself() {
    let g = web_graph(&WebConfig::new(3_000, 30_000, 3));
    let n = g.num_vertices() as VertexId;
    let tail: Vec<(VertexId, VertexId)> = (n - 100..n)
        .flat_map(|v| g.neighbors(v).iter().map(move |&t| (v, t)))
        .collect();
    let shrink: Vec<Mutation> = tail
        .iter()
        .map(|&(src, dst)| Mutation::Delete { src, dst })
        .collect();
    let grow: Vec<Mutation> = tail
        .iter()
        .copied()
        .chain((1..=300).map(|t| (0, t)))
        .map(|(src, dst)| Mutation::Insert {
            src,
            dst,
            weight: None,
        })
        .collect();
    let progs = [Algo::Bfs, Algo::Cc, Algo::Pr].map(|a| a.program(&ProgramOpts::from_source(0)));
    for direction in [DirectionMode::Adaptive, DirectionMode::Pull] {
        let mut cfg = small_cfg(&g)
            .with_fill(FillPolicy::Rear)
            .with_prefetch(PrefetchMode::NextFrontier)
            .with_compression(CompressionMode::Adaptive)
            .with_direction(direction);
        // a fast decoder on a quarter of the link: some batches ship encoded
        cfg.device.decompress = DecompressModel {
            bandwidth_bps: 200_000_000_000,
            launch_ns: 1_000,
        };
        cfg.device.pcie.bandwidth_bps /= 4;
        let mut sess = AsceticSession::new(cfg, &g);
        let check = |sess: &mut AsceticSession, what: &str| {
            for prog in &progs {
                let want = run_in_memory(sess.graph(), prog).output;
                assert_eq!(
                    sess.run(prog).output,
                    want,
                    "{direction} {what}: {}",
                    prog.name()
                );
            }
        };
        check(&mut sess, "before any batch");
        let shrunk = sess.apply_batch(&shrink).expect("deletes of present edges");
        assert!(
            g.num_edges() - sess.graph().num_edges() >= 256,
            "the deletes drop at least one 1 KiB chunk"
        );
        assert!(
            shrunk.evicted_chunks > 0,
            "{direction}: tail chunks evicted"
        );
        check(&mut sess, "after the shrink");
        let grown = sess.apply_batch(&grow).expect("inserts always apply");
        assert_eq!(sess.graph().num_edges(), g.num_edges() + 300);
        assert!(
            grown.refreshed_chunks > 0,
            "{direction}: resident chunks rewritten"
        );
        check(&mut sess, "after the regrowth");
    }
}

/// Repair stays exact over long churn: 100 `synthetic_churn` batches
/// through `run_with_mutations` in verify mode for BFS, CC, PR and SSSP
/// (on the weighted variant). Every batch's repaired answer equals a cold
/// recompute on the graph it was repaired for, and a program that declares
/// `incremental` never falls back to a cold rerun.
#[test]
fn repair_stays_exact_through_a_hundred_churn_batches() {
    let g = uniform_graph(600, 4_000, false, 41);
    let wg = weighted_variant(&g);
    for algo in [Algo::Bfs, Algo::Cc, Algo::Pr, Algo::Sssp] {
        let run_g = if algo.weighted() { &wg } else { &g };
        let batches = synthetic_churn(run_g, 100, 30, 0xBEEF);
        let prog = algo.program(&ProgramOpts::from_source(0));
        let run = run_with_mutations(small_cfg(run_g), run_g, &prog, &batches, true)
            .expect("churn batches always apply");
        assert_eq!(run.batches.len(), 100, "{}", algo.name());
        assert!(run.all_verified(), "{}", algo.name());
        let incremental = prog.capabilities().incremental;
        for b in &run.batches {
            assert_eq!(
                b.matches_recompute,
                Some(true),
                "{} batch {}",
                algo.name(),
                b.index
            );
            if incremental {
                assert_ne!(
                    b.mode,
                    RepairMode::Fallback,
                    "{} batch {}",
                    algo.name(),
                    b.index
                );
            }
        }
    }
}

/// The full stream — base run, every patch, every repair — is bit
/// identical across {1, 2, 8} host threads for all five serve-facing
/// programs (covering seeded, restart and fallback repair), and the final
/// repaired fingerprint equals a from-scratch fleet recompute on the
/// mutated graph over {1, 2} devices.
#[test]
fn mutated_runs_are_bit_identical_across_threads_and_devices() {
    const SCALE: u64 = 30_000;
    let ds = Dataset::build(DatasetId::Fk, SCALE);
    let wg = ds.weighted();
    let g = ds.graph;

    let algos = [Algo::Bfs, Algo::Sssp, Algo::Cc, Algo::Pr, Algo::Lp];
    let mut per_thread: Vec<Vec<Vec<u64>>> = Vec::new();
    let mut finals: Vec<(Algo, u64)> = Vec::new();
    for threads in [1usize, 2, 8] {
        set_num_threads(threads);
        let mut fingerprints: Vec<Vec<u64>> = Vec::new();
        for algo in algos {
            let run_g = if algo.weighted() { &wg } else { &g };
            let batches = synthetic_churn(run_g, 3, 40, 0xA11CE);
            let prog = algo.program(&ProgramOpts::from_source(0));
            let run = run_with_mutations(small_cfg(run_g), run_g, &prog, &batches, false)
                .expect("churn batches always apply");
            // the mode matrix must hold: monotone seeded repair for the
            // traversals, restart for PR, fallback for LP
            let expected = match algo {
                Algo::Bfs | Algo::Sssp | Algo::Cc => RepairMode::Seeded,
                Algo::Pr => RepairMode::Restart,
                _ => RepairMode::Fallback,
            };
            for b in &run.batches {
                assert_eq!(b.mode, expected, "{} batch {}", algo.name(), b.index);
            }
            let mut fps: Vec<u64> = vec![run.base.output.fingerprint()];
            fps.extend(run.batches.iter().map(|b| b.fingerprint));
            if threads == 1 {
                finals.push((algo, run.final_fingerprint()));
            }
            fingerprints.push(fps);
        }
        per_thread.push(fingerprints);
    }
    set_num_threads(0);
    for later in &per_thread[1..] {
        assert_eq!(
            &per_thread[0], later,
            "repair fingerprints changed with the host thread count"
        );
    }

    // final repaired answer == from-scratch fleet recompute on the final
    // mutated graph, for one and two devices
    for (algo, fp) in finals {
        let run_g = if algo.weighted() { &wg } else { &g };
        let batches = synthetic_churn(run_g, 3, 40, 0xA11CE);
        let epochs = materialize(run_g, &batches).expect("same stream, same result");
        let final_g = epochs.versions.last().expect("base version always exists");
        let prog = algo.program(&ProgramOpts::from_source(0));
        for devices in [1usize, 2] {
            let rep = run_fleet(
                small_cfg(final_g),
                FleetConfig::nvlink(devices),
                final_g,
                &prog,
            );
            assert_eq!(
                rep.output.fingerprint(),
                fp,
                "{} on {devices} device(s): fleet recompute diverged from the repaired answer",
                algo.name()
            );
        }
    }
}
