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

use ascetic::algos::{Bfs, Cc, Sssp, VertexProgram};
use ascetic::core::{AsceticConfig, AsceticSession, RunReport};
use ascetic::graph::datasets::weighted_variant;
use ascetic::graph::generators::{web_graph, WebConfig};
use ascetic::graph::Csr;
use ascetic::par::set_num_threads;
use ascetic::sim::DeviceConfig;

/// `(sim_time_ns, h2d_wire_bytes, h2d_ops, iterations, kernel launches,
/// output fingerprint)` of one run.
type Virt = (u64, u64, u64, u32, u64, u64);

/// Captured on the parent commit (PR 11), identical at every thread count.
const GOLDEN: [(&str, Virt); 6] = [
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
    out
}

/// One test fn: `set_num_threads` is process-global, so thread counts are
/// swept sequentially.
#[test]
fn virtual_numbers_match_the_pre_fast_path_commit_at_every_thread_count() {
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
