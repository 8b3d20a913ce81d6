//! Host-only invariance of the sparse-iteration fast path.
//!
//! The host fast path (test-before-RMW atomics, summary-indexed frontiers,
//! recycled iteration buffers, single-copy gather, work-aware dispatch)
//! may change how long the *host* takes and nothing else. This test pins
//! the virtual side of a warm multi-run session — simulated time, wire
//! bytes, DMA ops, iterations, kernel launches and the output fingerprint
//! of every run — to constants captured on the commit *before* the fast
//! path landed, at {1, 2, 8} host threads. Two hashes widen each row from
//! six scalars to the whole observable run: the span trace (every
//! track's name, every span's label, track, order, times and depth) and `report.metrics`
//! (every counter, gauge and histogram bucket).
//! (`ASCETIC_PRINT_GOLDENS=1 cargo test --test host_fast_path_invariance -- --nocapture`
//! prints a fresh table.)

use ascetic::algos::reference::pagerank_reference;
use ascetic::algos::{AlgoOutput, Betweenness, Bfs, Cc, PageRank, Sssp, VertexProgram};
use ascetic::baselines::{PtSystem, SubwaySystem, UvmSystem};
use ascetic::core::{
    run_fleet, AsceticConfig, AsceticSession, CompressionMode, DirectionMode, FleetConfig,
    FleetRunReport, OutOfCoreSystem, PrefetchMode, RunReport,
};
use ascetic::graph::datasets::weighted_variant;
use ascetic::graph::generators::{web_graph, WebConfig};
use ascetic::graph::{Csr, GraphBuilder};
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
/// snapshot (the other seven columns did not move). The two UVM rows were
/// re-harvested when a page migration began to book its bytes on the wire
/// column as well (they cross the link raw): `h2d_wire_bytes` 0 → 381952 in
/// both, metrics hash `0x2bb2a6b57e4747fd` → `0x3593b9c0c54fa355` and
/// `0x85378e5788ac55c4` → `0x0ca216dc4fca5630`; nothing on the virtual
/// clock and no span moved. The twelve rows the opt-in replacement server
/// used to move (every push row without prefetch, and the BC fleet) were
/// re-harvested on PR 25, the commit before the server was deleted, once
/// `cfg_for` stopped naming it; the lazy-fill rows went with lazy fill, and
/// the default-configuration BFS(0) and PR rows, now equal to rows 1 and 7.
/// The last row, harvested then too, pins every surviving region class.
/// The five rows that forced every eligible payload encoded were replaced
/// by adaptive twins on a slowed link (`slow_link`) when the forced mode
/// was removed; the wire-form rule alone now decides.
/// The metrics hash of the eight event-armed rows (PT ×2, UVM ×2, Subway
/// raw and BC, the BC fleet, the last row) was re-harvested when the event
/// log stopped restating spans: only re-partitions, high-water marks and
/// UVM faults and evictions are folded; the other seven columns did not
/// move and no armed row drops an event. The UVM bulk-prefetch row went
/// with UVM's bulk hints. When every run started keeping its event log
/// (the `events` switch was deleted), the metrics hash of the 11 rows that
/// had run without one and whose run logs something — the first run of a
/// session owns the setup's high-water marks (`BFS(0)`, `SSSP(0)`,
/// `PR push`, `PR adaptive modes`, `PR forced pull`, the PR fleet, the
/// two slowed-link BFS rows, `BFS(0) overlap off`, `CC od_buffers=2`,
/// compressed Subway) — was re-harvested; no other column moved. The
/// span-trace hash of every row was re-harvested when it began to hash the
/// trace itself (track names, then every span's fields) instead of the
/// JSONL export, ahead of that export's removal; no other column moved.
#[rustfmt::skip]
const GOLDEN: [(&str, Virt); 25] = [
    ("BFS(0)", (1767327, 271620, 29, 51, 131, 0x1f2c1ab87e045bfe, 0x6b6e98352c04b488, 0x71bb0af5891af4e3)),
    ("BFS(1777)", (1644753, 271620, 25, 52, 129, 0x16fd92c0332e67f7, 0xfc2e023ec227ead9, 0x61a288ff62c14533)),
    ("BFS(4242)", (1839901, 271620, 31, 53, 134, 0x6ef9d11362d6a739, 0x359a0abd085f42c0, 0xeb3f15feec11c74e)),
    ("BFS(0) again", (1747428, 271620, 29, 51, 131, 0x1f2c1ab87e045bfe, 0xb2a3fe0b0f19afca, 0x9c07814a76d519c0)),
    ("CC", (3737059, 2627776, 108, 51, 210, 0xff29483f185f2a2c, 0x724f8ed6c1de98fd, 0x7777842a2f483a36)),
    ("SSSP(0)", (5202035, 4200232, 114, 101, 316, 0x478264cf27d5749d, 0xacec6a9b3d1fb973, 0x325ac16884c78164)),
    ("PR push", (10066533, 8319032, 337, 74, 478, 0xd33b43eeeabd4a45, 0xf61a260af833d231, 0x297096847a76a540)),
    ("PR adaptive modes", (7746179, 6143840, 424, 74, 397, 0xd33b43eeeabd4a45, 0xff8be7fa52a66761, 0xf82bc7e77aabdf6b)),
    ("PR forced pull", (28769491, 30098760, 1110, 74, 1184, 0xd33b43eeeabd4a45, 0x37915344c469f1ba, 0x976b65ef097c0497)),
    ("PR 2-device NVLink + prefetch", (5948661, 1781728, 528, 74, 673, 0xd33b43eeeabd4a45, 0xbf60a8c3783b1032, 0xc65205967ff484af)),
    ("BFS(0) push, compression adaptive, slowed link", (1798586, 131485, 29, 51, 131, 0x1f2c1ab87e045bfe, 0x002e6d331fa570a7, 0xadb55b9cca6f1fe9)),
    ("CC push, compression adaptive, slowed link", (3785690, 1043975, 108, 51, 210, 0xff29483f185f2a2c, 0x01d4374f9c7e1eb3, 0xc4e9e41f874cd1f1)),
    ("BFS(0) forced pull, compression adaptive, slowed link", (5793876, 1637234, 179, 51, 230, 0x1f2c1ab87e045bfe, 0xf2da4b2867da666a, 0x4d9a2e412c3683d5)),
    ("CC forced pull, compression adaptive, slowed link", (5758522, 1637234, 179, 51, 230, 0xff29483f185f2a2c, 0x72f45b9386eaa1c0, 0x575c3ba64af1cc03)),
    ("BFS(0) overlap off", (1990157, 271620, 29, 51, 131, 0x1f2c1ab87e045bfe, 0x34b4e1d3708729f4, 0xeb6f9fc9ada235ef)),
    ("CC od_buffers=2", (5640040, 2628384, 204, 51, 306, 0xff29483f185f2a2c, 0x3b87c5f562ddc62e, 0xf5fd5bed94fb7391)),
    ("Subway BFS(0), compression adaptive", (2766804, 275709, 51, 51, 102, 0x1f2c1ab87e045bfe, 0x619639f5a5c28251, 0x88fcd9e6b8415fdd)),
    ("PT BFS(0)", (3341809, 11258020, 84, 51, 84, 0x1f2c1ab87e045bfe, 0xa701033eaa5a164c, 0x3ef25eb181007aa1)),
    ("PT PR", (7784135, 24960752, 207, 74, 207, 0xd33b43eeeabd4a45, 0x00281a507de9d9f0, 0x30a436b6c1cac443)),
    ("UVM BFS(0)", (13586918, 381952, 373, 51, 51, 0x1f2c1ab87e045bfe, 0x1a1796c714b9f9d0, 0x1e8550e26a4606b4)),
    ("Subway BFS(0) raw", (2769697, 405804, 51, 51, 102, 0x1f2c1ab87e045bfe, 0x5d3115b059168133, 0x9e9259a02930939f)),
    ("Subway BC(0)", (5435125, 810668, 100, 100, 200, 0xd504c1a8d3152869, 0x02c5d41e8d6e3f5d, 0x1cf8dcc92ea2e3b8)),
    ("BC(0) 2-device NVLink", (3271292, 181480, 72, 100, 408, 0xd504c1a8d3152869, 0x012c70cf06f9ce81, 0x222c25fd702d5d79)),
    ("CC after one BFS(0)", (3737059, 2627776, 108, 51, 210, 0xff29483f185f2a2c, 0x65c565d136143934, 0x7777842a2f483a36)),
    ("PR adaptive compression on a slowed link + next-frontier prefetch", (7840796, 2536447, 425, 74, 397, 0xd33b43eeeabd4a45, 0x49b9598a09e666e9, 0x4368da47c989ef95)),
];

/// The default configuration on a device ~40 % of the edges fit in, so
/// both regions work.
fn cfg_for(g: &Csr) -> AsceticConfig {
    let dev = DeviceConfig::p100(g.num_vertices() as u64 * 24 + g.edge_bytes() * 2 / 5);
    AsceticConfig::new(dev)
        .with_chunk_bytes(1024)
        .with_tracing(true)
}

/// `cfg_for` under adaptive compression, with a fast decompressor and a
/// quarter of the link bandwidth: a device on which the wire-form rule
/// ships some on-demand batches encoded and declines others (on
/// `cfg_for`'s own device it encodes the prestore and declines them all).
fn slow_link(g: &Csr) -> AsceticConfig {
    let mut cfg = cfg_for(g).with_compression(CompressionMode::Adaptive);
    cfg.device.decompress = DecompressModel {
        bandwidth_bps: 200_000_000_000,
        launch_ns: 1_000,
    };
    cfg.device.pcie.bandwidth_bps /= 4;
    cfg
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a of the span trace itself — the track names, then every span's
/// `(track, name, cat, start_ns, end_ns, depth)`, no export in between —
/// of a trace that keeps the nesting contract, which recording no longer
/// enforces.
fn trace_fp(trace: Option<&Trace>) -> u64 {
    let trace = trace.expect("tracing armed");
    trace.check_nesting().expect("every pinned trace nests");
    let mut h = FNV_OFFSET;
    fnv(&mut h, format!("{:?}", trace.tracks()).as_bytes());
    for s in trace.spans() {
        fnv(&mut h, format!("{s:?}").as_bytes());
    }
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
/// record order) into `h`.
fn events_fp(h: &mut u64, r: &RunReport) {
    assert_eq!(r.events_dropped, 0, "the log holds the whole run");
    for e in r.events.iter() {
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
/// device's metrics and event log folded in device order.
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
    // The arms no benchmark workload reaches: encoded on-demand batches in
    // both directions (one warm session each, on a link slow enough that
    // the wire-form rule ships some encoded), the no-overlap lane layout, a
    // split on-demand slab, and Subway's compressed subgraph shipping.
    let slow = slow_link(g);
    for cfg in [slow, slow.with_direction(DirectionMode::Pull)] {
        let mut s = AsceticSession::new(cfg, g);
        for r in [s.run(&Bfs::new(0)), s.run(&Cc::new())] {
            assert!(r.metrics.counter("compress.transfers") > Some(0));
            assert!(r.metrics.counter("compress.declined") > Some(0));
            out.push(virt(&r));
        }
    }
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
    // row above reaches, tracing on (the event log rides in the metrics
    // fingerprint): PT, UVM demand-paged and with bulk hints, raw
    // Subway — and betweenness through Subway and a fleet, whose phase
    // handshake (and, in the fleet, the exchange that still runs on the
    // drained frontier at a phase boundary) only a multi-phase program
    // exercises.
    let dev = cfg_for(g).device;
    let bc = Betweenness::new(0);
    let pt = PtSystem::new(dev).with_tracing(true);
    out.push(virt(&pt.run(g, &Bfs::new(0))));
    out.push(virt(&pt.run(g, &pr)));
    // pages scaled down with the graph, as the chunks are
    let mut paged = dev;
    paged.uvm.page_bytes = 1024;
    let uvm = UvmSystem::new(paged).with_tracing(true);
    out.push(virt(&uvm.run(g, &Bfs::new(0))));
    let subway = SubwaySystem::new(dev).with_tracing(true);
    out.push(virt(&subway.run(g, &Bfs::new(0))));
    out.push(virt(&subway.run(g, &bc)));
    out.push(fleet_virt(&run_fleet(
        cfg_for(g),
        FleetConfig::nvlink(2),
        g,
        &bc,
    )));
    // CC after a single BFS(0): the warm region as one traversal left it.
    let mut session = AsceticSession::new(cfg_for(g), g);
    session.run(&Bfs::new(0));
    out.push(go(&mut session, &Cc::new()));
    // Every region class: the prestore through the encoded
    // chain, on-demand batches encoded, and prefetches on their own
    // stream, raw — each a span of the trace.
    let modes = slow_link(g).with_prefetch(PrefetchMode::NextFrontier);
    let modes = AsceticSession::new(modes, g).run(&pr);
    assert!(modes.prefetch_ops > 0 && modes.prestore_wire_bytes < modes.prestore_bytes);
    assert!(modes.metrics.counter("compress.transfers") > Some(0));
    out.push(virt(&modes));
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

/// The first event of each kind, as the summary JSON's `events` array
/// writes it: the four kinds' key sets, key order and number spelling,
/// byte for byte. The UVM run faults and evicts; on two islands, a BFS inside the
/// one the static region does not hold re-partitions on its second run.
#[test]
fn each_event_kind_renders_one_pinned_jsonl_line() {
    let _sweep = THREADS.lock().unwrap();
    let g = web_graph(&WebConfig::new(6_000, 90_000, 21));
    let mut paged = cfg_for(&g).device;
    paged.uvm.page_bytes = 1024;
    let uvm = UvmSystem::new(paged).run(&g, &Bfs::new(0));
    let (half, deg) = (1_500u32, 8u32);
    let mut b = GraphBuilder::new(2 * half as usize);
    for v in 0..2 * half {
        let (base, local) = (v / half * half, v % half);
        for i in 0..deg {
            b.add_edge(v, base + (local * 31 + i * 17 + 1) % half);
        }
    }
    let islands = b.build();
    let mut session = AsceticSession::new(cfg_for(&islands), &islands);
    session.run(&Bfs::new(half));
    let shrunk = session.run(&Bfs::new(half));
    assert_eq!(shrunk.repartitions, 1);
    let first = |kind: &str| {
        let mut line = String::new();
        let mut events = uvm.events.iter().chain(shrunk.events.iter());
        if let Some(e) = events.find(|e| e.event.kind() == kind) {
            ascetic::obs::json::object(&mut line, |o| e.json_into(o));
        }
        line
    };
    if std::env::var_os("ASCETIC_PRINT_GOLDENS").is_some() {
        for kind in ["uvm_fault", "uvm_evict", "repartition", "high_water"] {
            println!("{}", first(kind));
        }
        return;
    }
    assert_eq!(
        first("uvm_fault"),
        r#"{"t_ns":35256,"kind":"uvm_fault","page":0,"dur_ns":35256}"#
    );
    assert_eq!(
        first("uvm_evict"),
        r#"{"t_ns":5026556,"kind":"uvm_evict","pages":1}"#
    );
    assert_eq!(
        first("repartition"),
        r#"{"t_ns":587472,"kind":"repartition","iter":3,"static_bytes":26624,"static_share_ppm":0,"region_share_ppm":330666,"overflow_bytes":7168}"#
    );
    assert_eq!(
        first("high_water"),
        r#"{"t_ns":0,"kind":"high_water","bytes":144000}"#
    );
}
