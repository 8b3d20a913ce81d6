//! Every rendering of a `RunReport`, pinned: FNV hashes of
//! `summary_csv()`, `summary_markdown()`, `summary_json()`, `to_string()`
//! and `metrics.to_json()` for the report shapes `tests/cli_golden.rs`
//! never prints — the conditional prefetch / wire rows, a warm session's
//! name set, every baseline and a fleet's per-device reports.
//! Harvested on the commit before a run's scalars became one snapshot
//! diff read off the device registry; that refactor must reproduce every
//! row byte for byte. (The two UVM rows were re-harvested afterwards, when a
//! page migration began to book its bytes on the wire column too — a UVM
//! report no longer prints an `on the wire … (compressed)` row. The refresh
//! and lazy-fill shapes went with the replacement server and lazy fill.
//! Subway's forced-compression row became an adaptive twin on a slowed
//! link when the forced mode was removed.)
//! (`ASCETIC_PRINT_GOLDENS=1 cargo test --test report_renderings -- --nocapture`
//! prints a fresh table.)

use ascetic::algos::{Bfs, Cc, PageRank};
use ascetic::baselines::{PtSystem, SubwaySystem, UvmSystem};
use ascetic::core::{
    run_fleet, AsceticConfig, AsceticSession, CompressionMode, FleetConfig, OutOfCoreSystem,
    PrefetchMode, RunReport,
};
use ascetic::graph::generators::{web_graph, WebConfig};
use ascetic::graph::Csr;
use ascetic::sim::{DecompressModel, DeviceConfig};

/// `[csv, markdown, json, display, metrics json]`.
type Hashes = [u64; 5];

#[rustfmt::skip]
const GOLDEN: [(&str, Hashes); 11] = [
    ("Ascetic cold BFS(0)", [0x1e736b4cd6e2f65f, 0xafc1fc406d473e2e, 0x5e6bf5d45cbfcc64, 0x7bc9176554e62366, 0x141834474e126cd8]),
    ("prefetch + adaptive compression, run 1: BFS(0)", [0xacaa4dc0f3080fc2, 0x8c77a763c4ac9aa3, 0x819bffaee2691b57, 0xed0b73c997d83fd1, 0xafc84681b8b9116d]),
    ("prefetch + adaptive compression, run 2: CC", [0x6fb4c2584888b641, 0x87cd76e58708e5e0, 0x9a7462fa42ceea8d, 0x67c44602cd6c519f, 0x144005cf0fbeec4f]),
    ("prefetch + adaptive compression, run 3: PR", [0x55c3136bc46b17b6, 0x9392e94bef3aa3c1, 0x2a379e6ecd20b0d2, 0x6fc20aa3e1d11437, 0xd317d147ccebc7bd]),
    ("Subway BFS(0), compression adaptive", [0x141dee5251d33e82, 0x3e2a5f93a2ea5259, 0x9e8261e273a01f7e, 0x4bd147761aced331, 0x9c8e8c5558551209]),
    ("Subway CC, compression adaptive, slowed link", [0x538a42c0cc86aaf6, 0xd2a11e8c1da9ecac, 0xdb0a929826d21e79, 0x7ec29504a824e682, 0xaf506570a568820e]),
    ("PT BFS(0)", [0x56acdd4d75a0b2dd, 0x77132d4126ce47ff, 0x8a9db19b4b3ebf3c, 0x439b75dae3c6a47e, 0x5eb671a12189f319]),
    ("UVM BFS(0)", [0xa1ac5775a05fbf8c, 0x3aa5e59826fb1a69, 0xba433bf9b0a1f307, 0xb1cfab09ccdb65d7, 0x250605b9bde4129c]),
    ("UVM PR, bulk prefetch", [0xea70b624104efd0c, 0xedf7e2f9eee99e81, 0x4a3d0fd0b11f286c, 0x30935aba7fd6e52e, 0x735b84f6e80b13ba]),
    ("PR 2-device NVLink, device 0", [0xe55a0fc97f614ed5, 0x49c86ccc8765a7b2, 0x310c56888f6c278b, 0x5d359ab6d006334b, 0x1dbcf5ad10643bc7]),
    ("PR 2-device NVLink, device 1", [0xca5cb01b5518d714, 0x5de920a0a1fc0b71, 0x40a7032a92ef0ed3, 0xb1ebf7d8a53a0c13, 0x0dc62b4175db3516]),
];

fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn hashes(r: &RunReport) -> Hashes {
    [
        fnv(&r.summary_csv()),
        fnv(&r.summary_markdown()),
        fnv(&r.summary_json()),
        fnv(&r.to_string()),
        fnv(&r.metrics.to_json()),
    ]
}

/// A device ~40 % of the edges fit in, with a decompressor fast enough
/// that `Adaptive` ships some payloads encoded (the p100 calibration
/// declines them all at this scale).
fn device(g: &Csr) -> DeviceConfig {
    let mut dev = DeviceConfig::p100(g.num_vertices() as u64 * 24 + g.edge_bytes() * 2 / 5);
    dev.decompress = DecompressModel {
        bandwidth_bps: 200_000_000_000,
        launch_ns: 1_000,
    };
    dev
}

fn run_all(g: &Csr) -> Vec<RunReport> {
    let dev = device(g);
    let cfg = AsceticConfig::new(dev).with_chunk_bytes(1024);
    let (bfs, pr) = (Bfs::new(0), PageRank::new());
    let mut out = vec![AsceticSession::new(cfg, g).run(&bfs)];
    // the prefetch and wire rows, and a warm session's name set
    let modes = cfg
        .with_prefetch(PrefetchMode::NextFrontier)
        .with_compression(CompressionMode::Adaptive);
    let mut session = AsceticSession::new(modes, g);
    out.push(session.run(&bfs));
    out.push(session.run(&Cc::new()));
    out.push(session.run(&pr));
    assert!(out[1].prefetch_ops > 0 && out[3].prefetch_ops > 0);
    assert!(out[1].prestore_wire_bytes < out[1].prestore_bytes);
    // the baselines
    let subway = |dev| SubwaySystem::new(dev).with_compression(CompressionMode::Adaptive);
    out.push(subway(dev).run(g, &bfs));
    // on a quarter of the link bandwidth, where Subway ships some encoded
    let mut slow = dev;
    slow.pcie.bandwidth_bps /= 4;
    let cc = subway(slow).run(g, &Cc::new());
    assert!(cc.metrics.counter("compress.transfers") > Some(0));
    out.push(cc);
    out.push(PtSystem::new(dev).run(g, &bfs));
    // pages scaled down with the graph, as the chunks are
    let mut paged = dev;
    paged.uvm.page_bytes = 1024;
    out.push(UvmSystem::new(paged).run(g, &bfs));
    out.push(UvmSystem::new(paged).with_prefetch(true).run(g, &pr));
    // a fleet's per-device reports
    let fleet = run_fleet(modes, FleetConfig::nvlink(2), g, &pr);
    assert_eq!(fleet.per_device.len(), 2);
    out.extend(fleet.per_device);
    out
}

#[test]
fn every_rendering_reproduces_the_pre_snapshot_bytes() {
    let g = web_graph(&WebConfig::new(6_000, 90_000, 21));
    let reports = run_all(&g);
    assert_eq!(reports.len(), GOLDEN.len());
    if std::env::var_os("ASCETIC_PRINT_GOLDENS").is_some() {
        for ((name, _), r) in GOLDEN.iter().zip(&reports) {
            let h: Vec<String> = hashes(r).iter().map(|h| format!("{h:#018x}")).collect();
            println!("    (\"{name}\", [{}]),", h.join(", "));
        }
        return;
    }
    for ((name, golden), r) in GOLDEN.iter().zip(&reports) {
        let got = hashes(r);
        assert_eq!(
            got,
            *golden,
            "{name}: a rendering moved (csv, markdown, json, display, metrics json)\n{r}\n{}",
            r.summary_csv()
        );
    }
}
