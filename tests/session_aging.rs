//! A warm session does not age (ROADMAP 1(a), `DESIGN.md` §19).
//!
//! The paper's §4.3 promises a static region "reused throughout the graph
//! processing". Two decisions used to reshape it on one iteration's
//! evidence — the reactive replacement server and the Eq (3) re-partition —
//! and a long-lived session paid for both: H2D operations per warm BFS
//! crept up run after run at constant bytes, and a served SSSP session
//! gave its region away one sparse frontier at a time. These tests pin the
//! outcome from the outside: replaying a query costs what it cost the last
//! time, and an adaptive session never moves more bytes than one whose
//! partition is pinned.

use ascetic::algos::Bfs;
use ascetic::core::{AsceticConfig, AsceticSession, RunReport};
use ascetic::graph::datasets::weighted_variant;
use ascetic::graph::generators::{web_graph, WebConfig};
use ascetic::graph::{Csr, VertexId};
use ascetic::serve::{
    serve_mutating, synthetic_mixed, synthetic_mutations, Policy, ServeConfig, ServeReport,
};
use ascetic::sim::{DeviceConfig, InterconnectConfig};

/// One non-isolated source per `1/k` of the id range (the generators lay
/// ids out in crawl order), as `bfs-web` draws them.
fn stratified_sources(g: &Csr, k: u32) -> Vec<VertexId> {
    let n = g.num_vertices() as u32;
    (0..k)
        .map(|i| {
            (i * (n / k)..(i + 1) * (n / k))
                .find(|&v| g.degree(v) > 0)
                .expect("a stratum of a web graph has edges")
        })
        .collect()
}

#[test]
fn a_replayed_query_costs_what_it_cost_last_time() {
    let g = web_graph(&WebConfig::new(12_000, 200_000, 17));
    // ~40 % of the edges fit, paper defaults otherwise
    let dev = DeviceConfig::p100(g.num_vertices() as u64 * 24 + g.edge_bytes() * 2 / 5);
    let cfg = AsceticConfig::new(dev).with_chunk_bytes(1024);
    let mut session = AsceticSession::new(cfg, &g);
    let sources = stratified_sources(&g, 8);

    let cost = |r: &RunReport| (r.xfer.h2d_ops, r.xfer.h2d_bytes, r.sim_time_ns);
    let mut pass =
        || -> Vec<RunReport> { sources.iter().map(|&s| session.run(&Bfs::new(s))).collect() };
    // pass 1 holds the cold run (the prestore); from pass 2 on the
    // session is warm
    let _cold = pass();
    let second = pass();
    let third = pass();
    for ((a, b), s) in second.iter().zip(&third).zip(&sources) {
        assert_eq!(a.output, b.output);
        assert_eq!(
            cost(a),
            cost(b),
            "BFS({s}): (H2D ops, H2D bytes, sim ns) drifted between replays"
        );
        assert!(a.xfer.h2d_ops > 0, "BFS({s}) oversubscribes the device");
    }
    // and the session says so itself: the region is still the one
    // contiguous prefix the prestore laid down, untouched by any shrink
    for r in second.iter().chain(&third) {
        assert_eq!(r.metrics.gauge("region.resident_runs"), Some(1));
        assert_eq!(r.repartitions, 0);
        assert_eq!(r.refresh_bytes, 0);
    }
}

/// `serve-churn`'s recipe at half its size: the GS-class web graph and
/// its weighted variant, the device and the chunks scaled with it (same
/// dataset-to-device ratio, same chunk count), the same mixed trace with
/// mutation batches landing mid-schedule, 2 devices over NVLink under the
/// residency-affinity policy.
fn serve_churn(seed: u64, adaptive: bool) -> ServeReport {
    const SHRINK: u64 = 2;
    let g = web_graph(&WebConfig::new(
        (68_660_000 / 2_000 / SHRINK) as usize,
        1_800_000_000 / 2_000 / SHRINK,
        0x6753 ^ seed,
    ));
    let wg = weighted_variant(&g);
    let dev = DeviceConfig::p100(ascetic::graph::datasets::PAPER_GPU_MEM_BYTES / 2_000 / SHRINK);
    let cfg = AsceticConfig::new(dev)
        .with_chunk_bytes(16 * 1024 / SHRINK as usize)
        .with_adaptive(adaptive);
    let sc = ServeConfig::new(cfg, Policy::ResidencyAffinity)
        .with_devices(2)
        .with_interconnect(InterconnectConfig::nvlink());
    let n = g.num_vertices();
    let jobs = synthetic_mixed(24, n, seed, 20_000_000 / SHRINK, 6);
    let mutations = synthetic_mutations(60, n, seed ^ 0xfeed, 4_000_000 / SHRINK);
    serve_mutating(&sc, &g, Some(&wg), &jobs, &mutations).expect("a well-formed trace")
}

/// Host-link bytes of every distinct engine run (batch members share one)
/// plus patches and replication, and the weighted runs' static-edge share.
fn wire_and_weighted_static_share(s: &ServeReport) -> (u64, f64) {
    let mut seen = std::collections::BTreeSet::new();
    let mut wire = s.mutation_wire_bytes + s.replicated_bytes;
    let (mut static_edges, mut edges) = (0u64, 0u64);
    for j in s
        .jobs
        .iter()
        .filter(|j| seen.insert((j.device, j.start_ns)))
    {
        let r = &j.run;
        wire += r.xfer.h2d_wire_bytes + r.prestore_wire_bytes + r.refresh_wire_bytes;
        if j.algo == "sssp" {
            static_edges += r.per_iter.iter().map(|i| i.static_edges).sum::<u64>();
            edges += r.per_iter.iter().map(|i| i.active_edges).sum::<u64>();
        }
    }
    (wire, static_edges as f64 / edges.max(1) as f64)
}

#[test]
fn an_adaptive_served_session_never_gives_its_region_away() {
    // Eq (3)'s shrink is irreversible: judged on single iterations — or
    // on any prefix of a run — a weighted MS-SSSP session ratchets its
    // region away in its first dense iterations (static-edge share
    // 0.75 → 0.39 on seed 1 here, and the wire bytes follow). With the rule on
    // whole-run evidence the adaptive session must serve at least the
    // share a pinned partition serves, for no more bytes.
    for seed in [1, 2, 3, 4] {
        let (wire, share) = wire_and_weighted_static_share(&serve_churn(seed, true));
        let (pinned_wire, pinned_share) = wire_and_weighted_static_share(&serve_churn(seed, false));
        assert!(
            pinned_share > 0.5,
            "seed {seed}: the region earns its space"
        );
        assert!(
            share >= pinned_share,
            "seed {seed}: static-edge share fell, {share:.3} < pinned {pinned_share:.3}"
        );
        assert!(
            wire as f64 <= pinned_wire as f64 * 1.01,
            "seed {seed}: adaptive moved {wire} B, pinned {pinned_wire} B"
        );
    }
}
