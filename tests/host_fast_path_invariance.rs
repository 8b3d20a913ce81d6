//! Host-only invariance of the sparse-iteration fast path.
//!
//! The host fast path (test-before-RMW atomics, summary-indexed frontiers,
//! recycled iteration buffers, single-copy gather, work-aware dispatch)
//! may change how long the *host* takes and nothing else. This test pins
//! the virtual side of a warm multi-run session — simulated time, wire
//! bytes, DMA ops, iterations, kernel launches and the output fingerprint
//! of every run — to constants captured on the commit *before* the fast
//! path landed, at {1, 2, 8} host threads. Two hashes widen each row from
//! six scalars to the whole observable run: the span-trace JSONL export
//! (every span's label, track, order and times) and `report.metrics`
//! (every counter, gauge and histogram bucket).
//! (`ASCETIC_PRINT_GOLDENS=1 cargo test --test host_fast_path_invariance -- --nocapture`
//! prints a fresh table.)

use ascetic::algos::reference::pagerank_reference;
use ascetic::algos::{AlgoOutput, Betweenness, Bfs, Cc, PageRank, Sssp, VertexProgram};
use ascetic::baselines::{PtSystem, SubwaySystem, UvmSystem};
use ascetic::core::{
    run_fleet, AsceticConfig, AsceticSession, CompressionMode, DirectionMode, FillPolicy,
    FleetConfig, FleetRunReport, OutOfCoreSystem, PrefetchMode, ReplacementPolicy, RunReport,
};
use ascetic::graph::datasets::weighted_variant;
use ascetic::graph::generators::{web_graph, WebConfig};
use ascetic::graph::Csr;
use ascetic::obs::{MetricsSnapshot, Trace};
use ascetic::par::set_num_threads;
use ascetic::sim::{DecompressModel, DeviceConfig};
use std::sync::Mutex;

/// `(sim_time_ns, h2d_wire_bytes, h2d_ops, iterations, kernel launches,
/// output fingerprint, span-trace fingerprint, metrics fingerprint)` of
/// one run.
type Virt = (u64, u64, u64, u32, u64, u64, u64, u64);

/// Captured on the parent commit (PR 11; the PR rows on PR 12, the commit
/// before PageRank's scatter went lane-private; the two hashes and the
/// last eight rows on PR 13, the commit before push and pull became one
/// pipeline; the last seven rows on PR 14, the commit before the runtimes
/// shared one driver loop and the baselines one run frame), identical at
/// every thread count. Nine rows were re-harvested when Eq (3) began to
/// judge under-use on accumulated evidence: the two warm sessions that open
/// with BFS(0) (`repartitions` 1 → 0 in that run, every later run keeps the
/// unshrunk region), their compression-always and overlap-off twins, and
/// SSSP(0) (`repartitions` 4 → 0). The metrics hash of every row was
/// re-harvested once more when `region.resident_runs`,
/// `iterations.both_regions` and `repartitions.declined` joined the
/// snapshot (the other seven columns did not move). The last three rows
/// pin the default configuration — no reactive swaps, Eq (3) on whole-run
/// evidence — and were harvested on the commit that made it the default.
/// The last row (lazy loads and swaps through the encoded chain, events
/// armed) was harvested on PR 20, the commit before every region op went
/// through one issue site. The metrics hash (the event log rides in it) of
/// that row and of the BC fleet row — the two with events armed and region
/// ops issued — was re-harvested when `LazyLoad` / `HotSwap` events began
/// to carry their DMA's start time instead of their window's
/// (`0xe7fd5d9a64f1cb75` → `0x3bfd070bab667551`, `0xf9c0e0a8ad16f835` →
/// `0x179cf0225a0b3b81`; the other seven columns did not move). The two UVM
/// rows were re-harvested when a page migration began to book its bytes on
/// the wire column as well (they cross the link raw): `h2d_wire_bytes`
/// 0 → 381952 in both, metrics hash `0x2bb2a6b57e4747fd` →
/// `0x3593b9c0c54fa355` and `0x85378e5788ac55c4` → `0x0ca216dc4fca5630`;
/// nothing on the virtual clock and no span moved.
#[rustfmt::skip]
const GOLDEN: [(&str, Virt); 29] = [
    ("BFS(0)", (1771089, 271620, 29, 51, 131, 0x1f2c1ab87e045bfe, 0xc68376c547b15afd, 0xa020efac9d2819b5)),
    ("BFS(1777)", (1648669, 271720, 25, 52, 129, 0x16fd92c0332e67f7, 0x72e5047317502e6e, 0x62262bb9408a3992)),
    ("BFS(4242)", (1844028, 272516, 31, 53, 134, 0x6ef9d11362d6a739, 0x5feeaa0cf3904389, 0xbe5659c8d1b276dd)),
    ("BFS(0) again", (1750944, 270960, 29, 51, 131, 0x1f2c1ab87e045bfe, 0x22455d2c49bc2477, 0x5f06e880a1103d8a)),
    ("CC", (3623831, 2310800, 96, 51, 198, 0xff29483f185f2a2c, 0xc0b51c91087a08f6, 0x1cd09ab4706811d1)),
    ("SSSP(0)", (5336468, 3863880, 107, 101, 309, 0x478264cf27d5749d, 0x2ccd1b205a09cf04, 0x94819ce5877afc47)),
    ("PR push", (10155726, 7777592, 319, 74, 467, 0xd33b43eeeabd4a45, 0xa8f9002f8bd4d661, 0xe3946df40b4d6e16)),
    ("PR adaptive modes", (7746179, 6143840, 424, 74, 397, 0xd33b43eeeabd4a45, 0x1f83020ecb72dbf1, 0xcd02a92123c9af5e)),
    ("PR forced pull", (28769491, 30098760, 1110, 74, 1184, 0xd33b43eeeabd4a45, 0x2872e628a1e6d36e, 0x1e2ba97c7a847a0a)),
    ("PR 2-device NVLink + prefetch", (5948661, 1781728, 528, 74, 673, 0xd33b43eeeabd4a45, 0x9d46c08762bfb996, 0x2986cf1bf0cbb31b)),
    ("BFS(0) push, compression always", (1924821, 106850, 29, 51, 131, 0x1f2c1ab87e045bfe, 0xdf80c53457683f57, 0x1be43fee6b6b013f)),
    ("CC push, compression always", (3970805, 908601, 96, 51, 198, 0xff29483f185f2a2c, 0xad6a02e1cd034ad1, 0x72401d0d801e3f2e)),
    ("BFS(0) forced pull, compression always", (6359942, 1625293, 179, 51, 230, 0x1f2c1ab87e045bfe, 0x49a0b1569c75fe2b, 0x699f254395daefb4)),
    ("CC forced pull, compression always", (6314359, 1625293, 179, 51, 230, 0xff29483f185f2a2c, 0x260b69118ee86f00, 0x87065f965355c359)),
    ("PR lazy fill", (11833706, 8591208, 461, 74, 493, 0xd33b43eeeabd4a45, 0x833143172c77cb3e, 0x6ac4db6c110f3819)),
    ("BFS(0) overlap off", (1993919, 271620, 29, 51, 131, 0x1f2c1ab87e045bfe, 0x3d1bd9ea1b1d8335, 0xf3581e9ae6df3885)),
    ("CC od_buffers=2", (5256638, 2270408, 175, 51, 277, 0xff29483f185f2a2c, 0xa3bc09c8acf5c187, 0x36272467f92841fe)),
    ("Subway BFS(0), compression adaptive", (2766804, 275709, 51, 51, 102, 0x1f2c1ab87e045bfe, 0x5b8fe6c93b00d8c4, 0xdbe8c828c876905a)),
    ("PT BFS(0)", (3341809, 11258020, 84, 51, 84, 0x1f2c1ab87e045bfe, 0x415facef6a08416f, 0x319b907d63ac72d0)),
    ("PT PR", (7784135, 24960752, 207, 74, 207, 0xd33b43eeeabd4a45, 0xd5889d6c2e3f80f2, 0xfe669ca259d4a336)),
    ("UVM BFS(0)", (13586918, 381952, 373, 51, 51, 0x1f2c1ab87e045bfe, 0xa7de9c0a7aecf2b0, 0x3593b9c0c54fa355)),
    ("UVM BFS(0), bulk prefetch", (531918, 381952, 0, 51, 51, 0x1f2c1ab87e045bfe, 0xf312d64ff2c29414, 0x0ca216dc4fca5630)),
    ("Subway BFS(0) raw", (2769697, 405804, 51, 51, 102, 0x1f2c1ab87e045bfe, 0x89ff1533b6e9e203, 0x1d16c04e6cd26036)),
    ("Subway BC(0)", (5435125, 810668, 100, 100, 200, 0xd504c1a8d3152869, 0x1abf85754bacf4c1, 0x2eb7ce13dce355c0)),
    ("BC(0) 2-device NVLink", (3289961, 181024, 72, 100, 408, 0xd504c1a8d3152869, 0x44c58d6f1ba6a709, 0x179cf0225a0b3b81)),
    ("default: BFS(0)", (1767327, 271620, 29, 51, 131, 0x1f2c1ab87e045bfe, 0x75185bacf68145ce, 0x00a69a788ea40ab6)),
    ("default: CC after BFS(0)", (3737059, 2627776, 108, 51, 210, 0xff29483f185f2a2c, 0x5c732f8e32a34d75, 0x7777842a2f483a36)),
    ("default: PR", (10066533, 8319032, 337, 74, 478, 0xd33b43eeeabd4a45, 0xbfe3d2c52621e106, 0x126b0d107061ed39)),
    ("PR lazy fill, compression always, events", (13008850, 3368730, 461, 74, 493, 0xd33b43eeeabd4a45, 0x855ec9b5ffb504c5, 0x3bfd070bab667551)),
];

/// The default configuration on a device ~40 % of the edges fit in, so
/// both regions work.
fn default_cfg(g: &Csr) -> AsceticConfig {
    let dev = DeviceConfig::p100(g.num_vertices() as u64 * 24 + g.edge_bytes() * 2 / 5);
    AsceticConfig::new(dev)
        .with_chunk_bytes(1024)
        .with_tracing(true)
}

/// [`default_cfg`] with the opt-in replacement server named, so the rows
/// built on it keep pinning its `Xfer::Refresh` arm whatever the
/// default policy is.
fn cfg_for(g: &Csr) -> AsceticConfig {
    default_cfg(g).with_replacement(ReplacementPolicy::LastIteration)
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a of the span trace's JSONL export — of a trace that keeps the
/// nesting contract, which recording no longer enforces.
fn trace_fp(trace: Option<&Trace>) -> u64 {
    let trace = trace.expect("tracing armed");
    trace.check_nesting().expect("every pinned trace nests");
    let mut h = FNV_OFFSET;
    fnv(&mut h, trace.to_jsonl(1).as_bytes());
    h
}

/// FNV-1a over every metric (name, kind, value, histogram buckets),
/// folded into `h`; `skip` names one metric to leave out.
fn metrics_fp(h: &mut u64, m: &MetricsSnapshot, skip: Option<&str>) {
    for (name, v) in m.iter().filter(|(name, _)| Some(*name) != skip) {
        fnv(h, name.as_bytes());
        fnv(h, format!("{v:?}").as_bytes());
    }
}

/// Folds the run's event log (every retained event with its timestamp, in
/// record order) into `h` — nothing when the run had events off, so rows
/// captured without a log keep their metrics fingerprint.
fn events_fp(h: &mut u64, r: &RunReport) {
    for e in r.events.iter().flat_map(|log| log.iter()) {
        fnv(h, format!("{e:?}").as_bytes());
    }
}

fn virt_skipping(r: &RunReport, skip: Option<&str>) -> Virt {
    let mut metrics = FNV_OFFSET;
    metrics_fp(&mut metrics, &r.metrics, skip);
    events_fp(&mut metrics, r);
    (
        r.sim_time_ns,
        r.xfer.h2d_wire_bytes,
        r.xfer.h2d_ops,
        r.iterations,
        r.kernels.launches,
        r.output.fingerprint(),
        trace_fp(r.span_trace.as_ref()),
        metrics,
    )
}

fn virt(r: &RunReport) -> Virt {
    virt_skipping(r, None)
}

/// A fleet's row: makespan, per-device sums, the merged trace, and every
/// device's metrics (and event log, when armed) folded in device order.
fn fleet_virt(fleet: &FleetRunReport) -> Virt {
    let per_device = |f: fn(&RunReport) -> u64| fleet.per_device.iter().map(f).sum::<u64>();
    let mut fleet_metrics = FNV_OFFSET;
    for r in &fleet.per_device {
        metrics_fp(&mut fleet_metrics, &r.metrics, None);
        events_fp(&mut fleet_metrics, r);
    }
    (
        fleet.makespan_ns,
        per_device(|r| r.xfer.h2d_wire_bytes),
        per_device(|r| r.xfer.h2d_ops),
        fleet.iterations,
        per_device(|r| r.kernels.launches),
        fleet.output.fingerprint(),
        trace_fp(fleet.span_trace.as_ref()),
        fleet_metrics,
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
    out.push(fleet_virt(&run_fleet(
        fleet_cfg,
        FleetConfig::nvlink(2),
        g,
        &pr,
    )));
    // The arms no benchmark workload reaches: forced encoding in both
    // directions (one warm session each, so CC also sees refreshes priced
    // by the BFS's wire cache), lazy fill, the no-overlap lane layout, a
    // split on-demand slab, and Subway's compressed subgraph shipping.
    let always = cfg_for(g).with_compression(CompressionMode::Always);
    for cfg in [always, always.with_direction(DirectionMode::Pull)] {
        let mut s = AsceticSession::new(cfg, g);
        out.push(go(&mut s, &Bfs::new(0)));
        out.push(go(&mut s, &Cc::new()));
    }
    out.push(cold(cfg_for(g).with_fill(FillPolicy::Lazy)));
    let bfs_cold = |cfg: AsceticConfig| virt(&AsceticSession::new(cfg, g).run(&Bfs::new(0)));
    out.push(bfs_cold(cfg_for(g).with_overlap(false)));
    out.push(virt(
        &AsceticSession::new(cfg_for(g).with_od_buffers(2), g).run(&Cc::new()),
    ));
    // a decompressor fast enough that Adaptive ships some subgraphs
    // encoded and declines others (the p100 calibration declines them all)
    let mut dev = cfg_for(g).device;
    dev.decompress = DecompressModel {
        bandwidth_bps: 200_000_000_000,
        launch_ns: 1_000,
    };
    let subway = SubwaySystem::new(dev)
        .with_tracing(true)
        .with_compression(CompressionMode::Adaptive)
        .run(g, &Bfs::new(0));
    assert!(subway.metrics.counter("compress.transfers") > Some(0));
    assert!(subway.metrics.counter("compress.declined") > Some(0));
    // (Subway's compressed transfers did not feed the ratio histogram
    // when these rows were captured; they do now)
    out.push(virt_skipping(&subway, Some("compress.ratio_x100")));
    // The systems behind the shared driver loop and baseline frame that no
    // row above reaches, tracing and events on (the event log rides in the
    // metrics fingerprint): PT, UVM demand-paged and with bulk hints, raw
    // Subway — and betweenness through Subway and a fleet, whose phase
    // handshake (and, in the fleet, the exchange that still runs on the
    // drained frontier at a phase boundary) only a multi-phase program
    // exercises.
    let dev = cfg_for(g).device;
    let bc = Betweenness::new(0);
    let pt = PtSystem::new(dev).with_tracing(true).with_events(true);
    out.push(virt(&pt.run(g, &Bfs::new(0))));
    out.push(virt(&pt.run(g, &pr)));
    // pages scaled down with the graph, as the chunks are
    let mut paged = dev;
    paged.uvm.page_bytes = 1024;
    let uvm = UvmSystem::new(paged).with_tracing(true).with_events(true);
    out.push(virt(&uvm.run(g, &Bfs::new(0))));
    out.push(virt(&uvm.with_prefetch(true).run(g, &Bfs::new(0))));
    let subway = SubwaySystem::new(dev).with_tracing(true).with_events(true);
    out.push(virt(&subway.run(g, &Bfs::new(0))));
    out.push(virt(&subway.run(g, &bc)));
    out.push(fleet_virt(&run_fleet(
        cfg_for(g).with_events(true),
        FleetConfig::nvlink(2),
        g,
        &bc,
    )));
    // The default configuration, no policy named: a warm BFS → CC session
    // over a region nothing reshapes, and a cold PageRank.
    let mut session = AsceticSession::new(default_cfg(g), g);
    out.push(go(&mut session, &Bfs::new(0)));
    out.push(go(&mut session, &Cc::new()));
    out.push(virt(&AsceticSession::new(default_cfg(g), g).run(&pr)));
    // Every region op through the encoded chain with the event log armed:
    // lazy loads warm the region, then the replacement server swaps, each
    // a `CompressedDma` followed by its `LazyLoad` / `HotSwap`.
    let lazy = cfg_for(g)
        .with_fill(FillPolicy::Lazy)
        .with_compression(CompressionMode::Always)
        .with_events(true);
    let lazy = AsceticSession::new(lazy, g).run(&pr);
    assert!(lazy.metrics.counter("lazy.loads") > Some(0));
    assert!(lazy.metrics.counter("hotness.swaps") > Some(0));
    out.push(virt(&lazy));
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
            let (sim, wire, ops, iters, launches, fp, trace, metrics) = v;
            println!(
                "    (\"{name}\", ({sim}, {wire}, {ops}, {iters}, {launches}, {fp:#018x}, \
                 {trace:#018x}, {metrics:#018x})),"
            );
        }
        return;
    }
    for threads in [1usize, 2, 8] {
        set_num_threads(threads);
        for ((name, golden), got) in GOLDEN.iter().zip(run_all(&g, &wg)) {
            assert_eq!(
                got, *golden,
                "{name} @ {threads} threads: virtual numbers drifted \
                 (sim ns, wire bytes, h2d ops, iterations, launches, output fp, \
                 span-trace fp, metrics fp)"
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
