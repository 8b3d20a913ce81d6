//! Host-only invariance of the sparse-iteration fast path.
//!
//! The host fast path (test-before-RMW atomics, summary-indexed frontiers,
//! recycled iteration buffers, single-copy gather, work-aware dispatch)
//! may change how long the *host* takes and nothing else. This test pins
//! the virtual side of a warm multi-run session — simulated time, wire
//! bytes, DMA ops, iterations, kernel launches and the output fingerprint
//! of every run — to constants captured on the commit *before* the fast
//! path landed, at {1, 2, 8} host threads.
//! (`ASCETIC_PRINT_GOLDENS=1 cargo test --test host_fast_path_invariance -- --nocapture`
//! prints a fresh table.)

use ascetic::algos::reference::pagerank_reference;
use ascetic::algos::{AlgoOutput, Bfs, Cc, PageRank, Sssp, VertexProgram};
use ascetic::core::{
    run_fleet, AsceticConfig, AsceticSession, CompressionMode, DirectionMode, FleetConfig,
    PrefetchMode, RunReport,
};
use ascetic::graph::datasets::weighted_variant;
use ascetic::graph::generators::{web_graph, WebConfig};
use ascetic::graph::Csr;
use ascetic::par::set_num_threads;
use ascetic::sim::DeviceConfig;
use std::sync::Mutex;

/// `(sim_time_ns, h2d_wire_bytes, h2d_ops, iterations, kernel launches,
/// output fingerprint)` of one run.
type Virt = (u64, u64, u64, u32, u64, u64);

/// Captured on the parent commit (PR 11; the PR rows on PR 12, the commit
/// before PageRank's scatter went lane-private), identical at every thread
/// count.
const GOLDEN: [(&str, Virt); 10] = [
    ("BFS(0)", (2008146, 280428, 39, 51, 141, 0x1f2c1ab87e045bfe)),
    (
        "BFS(1777)",
        (1962549, 279428, 38, 52, 142, 0x16fd92c0332e67f7),
    ),
    (
        "BFS(4242)",
        (2130180, 281768, 43, 53, 146, 0x6ef9d11362d6a739),
    ),
    (
        "BFS(0) again",
        (2068313, 284868, 42, 51, 143, 0x1f2c1ab87e045bfe),
    ),
    ("CC", (6165388, 2404988, 221, 51, 323, 0xff29483f185f2a2c)),
    (
        "SSSP(0)",
        (9638509, 6329488, 251, 101, 438, 0x478264cf27d5749d),
    ),
    (
        "PR push",
        (10155726, 7777592, 319, 74, 467, 0xd33b43eeeabd4a45),
    ),
    (
        "PR adaptive modes",
        (7746179, 6143840, 424, 74, 397, 0xd33b43eeeabd4a45),
    ),
    (
        "PR forced pull",
        (28769491, 30098760, 1110, 74, 1184, 0xd33b43eeeabd4a45),
    ),
    (
        "PR 2-device NVLink + prefetch",
        (5948661, 1781728, 528, 74, 673, 0xd33b43eeeabd4a45),
    ),
];

fn cfg_for(g: &Csr) -> AsceticConfig {
    // ~40 % of the edges fit: both regions and the replacement server work
    let dev = DeviceConfig::p100(g.num_vertices() as u64 * 24 + g.edge_bytes() * 2 / 5);
    AsceticConfig::new(dev).with_chunk_bytes(1024)
}

fn virt(r: &RunReport) -> Virt {
    (
        r.sim_time_ns,
        r.xfer.h2d_wire_bytes,
        r.xfer.h2d_ops,
        r.iterations,
        r.kernels.launches,
        r.output.fingerprint(),
    )
}

fn run_all(g: &Csr, wg: &Csr) -> Vec<Virt> {
    fn go<P: VertexProgram>(s: &mut AsceticSession, p: &P) -> Virt {
        virt(&s.run(p))
    }
    // one warm session: the first BFS pays the prestore, the rest reuse
    // (and keep adapting) the static region
    let mut session = AsceticSession::new(cfg_for(g), g);
    let mut out = vec![
        go(&mut session, &Bfs::new(0)),
        go(&mut session, &Bfs::new(1777)),
        go(&mut session, &Bfs::new(4242)),
        go(&mut session, &Bfs::new(0)),
        go(&mut session, &Cc::new()),
    ];
    // weighted programs need the 8 B/edge variant, hence their own session
    let mut weighted = AsceticSession::new(cfg_for(wg), wg);
    out.push(go(&mut weighted, &Sssp::new(0)));
    // PageRank, cold, through every path that reads the next frontier
    // differently: the default push loop; both planners (prefetch, adaptive
    // direction) plus the compressed link; the pull gather; and a fleet,
    // whose shards write one shared frontier in turn.
    let pr = PageRank::new();
    let cold = |cfg: AsceticConfig| virt(&AsceticSession::new(cfg, g).run(&pr));
    out.push(cold(cfg_for(g)));
    out.push(cold(
        cfg_for(g)
            .with_compression(CompressionMode::Adaptive)
            .with_prefetch(PrefetchMode::NextFrontier)
            .with_direction(DirectionMode::Adaptive),
    ));
    out.push(cold(cfg_for(g).with_direction(DirectionMode::Pull)));
    // (prefetch on, so each shard snapshots the frontier its predecessor
    // wrote — the mid-iteration settle)
    let fleet_cfg = cfg_for(g).with_prefetch(PrefetchMode::NextFrontier);
    let fleet = run_fleet(fleet_cfg, FleetConfig::nvlink(2), g, &pr);
    let per_device = |f: fn(&RunReport) -> u64| fleet.per_device.iter().map(f).sum::<u64>();
    out.push((
        fleet.makespan_ns,
        per_device(|r| r.xfer.h2d_wire_bytes),
        per_device(|r| r.xfer.h2d_ops),
        fleet.iterations,
        per_device(|r| r.kernels.launches),
        fleet.output.fingerprint(),
    ));
    out
}

/// `set_num_threads` is process-global: thread counts are swept
/// sequentially, and the tests that sweep them take this lock.
static THREADS: Mutex<()> = Mutex::new(());

#[test]
fn virtual_numbers_match_the_pre_fast_path_commit_at_every_thread_count() {
    let _sweep = THREADS.lock().unwrap();
    let g = web_graph(&WebConfig::new(6_000, 90_000, 21));
    let wg = weighted_variant(&g);
    if std::env::var_os("ASCETIC_PRINT_GOLDENS").is_some() {
        for ((name, _), v) in GOLDEN.iter().zip(run_all(&g, &wg)) {
            let (sim, wire, ops, iters, launches, fp) = v;
            println!("    (\"{name}\", ({sim}, {wire}, {ops}, {iters}, {launches}, {fp:#018x})),");
        }
        return;
    }
    for threads in [1usize, 2, 8] {
        set_num_threads(threads);
        for ((name, golden), got) in GOLDEN.iter().zip(run_all(&g, &wg)) {
            assert_eq!(
                got, *golden,
                "{name} @ {threads} threads: virtual numbers drifted \
                 (sim ns, wire bytes, h2d ops, iterations, launches, output fp)"
            );
        }
    }
    set_num_threads(0);
}

/// PageRank through a session against the independent power-iteration
/// reference — an oracle that shares no code with the push-residual
/// program (the in-memory runner executes the same operators).
#[test]
fn session_pagerank_matches_the_power_iteration_reference() {
    let _sweep = THREADS.lock().unwrap();
    let g = web_graph(&WebConfig::new(2_000, 24_000, 5));
    let expect = AlgoOutput::Ranks(pagerank_reference(&g, 0.85, 1e-12, 10_000));
    let pr = PageRank::new().with_eps_frac(1e-6);
    for threads in [1usize, 2, 8] {
        set_num_threads(threads);
        let report = AsceticSession::new(cfg_for(&g), &g).run(&pr);
        assert_eq!(
            report.output.first_mismatch(&expect, 1e-6),
            None,
            "first mismatching vertex @ {threads} threads"
        );
    }
    set_num_threads(0);
}
