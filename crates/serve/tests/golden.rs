//! The serve scheduler's whole observable output, pinned: every cell of
//! {fifo, sjf, residency} × {1 device, 2 NVLink devices} × {no mutations,
//! a synthetic mutation schedule} × {push, adaptive} must reproduce the
//! `ServeReport::to_json()` bytes and the span trace's JSONL bytes that
//! the pre-`Scheduler` `serve_impl` produced, and one trace run under
//! three configurations must be turned away with every rejection reason
//! (a fourth, forced compression on the weighted variant, went with that
//! mode).
//! The graph is GS-sized but social (`fk@30000`): adaptive sessions pull
//! there, so the two direction columns differ in every cell.
//! (`ASCETIC_PRINT_GOLDENS=1 cargo test -p ascetic-serve --test golden -- --nocapture`
//! prints a fresh table.)

use ascetic_core::{AsceticConfig, DirectionMode, RUN_REPORT_SCHEMA_VERSION};
use ascetic_graph::datasets::{weighted_variant, Dataset, DatasetId};
use ascetic_graph::Csr;
use ascetic_serve::{
    serve, serve_mutating, synthetic_mixed, synthetic_mutations, Algo, Job, Policy, ServeConfig,
    ServeReport, ALL_POLICIES,
};
use ascetic_sim::{DeviceConfig, InterconnectConfig};

fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn graphs() -> (Csr, Csr) {
    let g = Dataset::build(DatasetId::Fk, 30_000).graph;
    let w = weighted_variant(&g);
    (g, w)
}

/// A device holding the vertex arrays plus 40 % of the unweighted edges.
fn cfg_for(g: &Csr) -> AsceticConfig {
    let dev = DeviceConfig::p100(g.num_vertices() as u64 * 24 + g.edge_bytes() * 2 / 5);
    AsceticConfig::new(dev).with_chunk_bytes(1024)
}

/// `(makespan_ns, fnv(to_json), fnv(span trace JSONL))`.
fn observe(rep: &ServeReport) -> (u64, u64, u64) {
    let trace = rep.span_trace.as_ref().expect("serve always traces");
    assert_eq!(trace.check_nesting(), Ok(()), "every pinned trace nests");
    (
        rep.makespan_ns,
        fnv(&rep.to_json()),
        fnv(&trace.to_jsonl(RUN_REPORT_SCHEMA_VERSION)),
    )
}

/// Harvested from `serve_impl` at the parent of the `Scheduler` rewrite.
const GOLDEN: &[(&str, (u64, u64, u64))] = &[
    (
        "fifo/1dev/static/push",
        (50812168, 0x78ac983d0d171a79, 0x7ad5f3a097b9a469),
    ),
    (
        "fifo/1dev/static/adaptive",
        (50126932, 0x7f1744cc47968e84, 0x215650ef77e7bbd5),
    ),
    (
        "fifo/1dev/mutating/push",
        (49989936, 0x95b8b87694858817, 0x22a094d4367a6877),
    ),
    (
        "fifo/1dev/mutating/adaptive",
        (49304694, 0x4301a01f158fbaaa, 0xf80b9ea5f002e306),
    ),
    (
        "fifo/2dev/static/push",
        (31126794, 0x1159699cd688cbce, 0x03999c09f993c126),
    ),
    (
        "fifo/2dev/static/adaptive",
        (30802958, 0x4a1f8c05a3ec6dd3, 0xc3c999cc588a5d07),
    ),
    (
        "fifo/2dev/mutating/push",
        (30621337, 0xc3a4a1d6ce2be854, 0xe082c84a6a5ef129),
    ),
    (
        "fifo/2dev/mutating/adaptive",
        (30254673, 0x69852e439a7aaefe, 0x8f265c2aac6ebd08),
    ),
    (
        "sjf/1dev/static/push",
        (49638874, 0x2b4a0d9cd772f6e5, 0x63fce910c2f5f075),
    ),
    (
        "sjf/1dev/static/adaptive",
        (48953638, 0xe548abb57c486e3d, 0x032c92d4506f0717),
    ),
    (
        "sjf/1dev/mutating/push",
        (48859500, 0x336ed32192318ccf, 0x04869ed4c79683df),
    ),
    (
        "sjf/1dev/mutating/adaptive",
        (48174258, 0x7cd2c34988727a44, 0x3bf2c7916a7dd1c3),
    ),
    (
        "sjf/2dev/static/push",
        (32073187, 0x6ebb8751f159dc3a, 0xcf415456143964bf),
    ),
    (
        "sjf/2dev/static/adaptive",
        (31616363, 0x5656febea6f9310d, 0xe2b943c2aa6d285f),
    ),
    (
        "sjf/2dev/mutating/push",
        (31524926, 0xb680b9c7331bfcac, 0x3be9482b13636e5f),
    ),
    (
        "sjf/2dev/mutating/adaptive",
        (31068098, 0x44816c194031a4a5, 0x28bb4fbb50c9fced),
    ),
    (
        "residency/1dev/static/push",
        (49147942, 0xa33393e95039cebe, 0x814f54eff31cfd76),
    ),
    (
        "residency/1dev/static/adaptive",
        (48462706, 0x5546125529c80f95, 0xab1b1381e17b5302),
    ),
    (
        "residency/1dev/mutating/push",
        (48368561, 0xb8a67dd46090e309, 0x62618cf6c5483cc7),
    ),
    (
        "residency/1dev/mutating/adaptive",
        (47683317, 0xd512a00b23e5cbac, 0x572f3d457ef546b8),
    ),
    (
        "residency/2dev/static/push",
        (31126794, 0x4cf047b59fe70dce, 0x03999c09f993c126),
    ),
    (
        "residency/2dev/static/adaptive",
        (30669970, 0xdba4452b081699b6, 0xe5355db696d46df2),
    ),
    (
        "residency/2dev/mutating/push",
        (30621337, 0xc5f0164b967ffc24, 0xe082c84a6a5ef129),
    ),
    (
        "residency/2dev/mutating/adaptive",
        (30164507, 0xb5cf534253daac6a, 0x3fb4f7cffb0c311d),
    ),
];

fn cells(g: &Csr, w: &Csr) -> Vec<(String, (u64, u64, u64))> {
    let n = g.num_vertices();
    let jobs = synthetic_mixed(18, n, 7, 150_000, 3);
    let mutations = synthetic_mutations(12, n, 9, 250_000);
    let mut out = Vec::new();
    for policy in ALL_POLICIES {
        for devices in [1, 2] {
            for mutating in [false, true] {
                for direction in [DirectionMode::Push, DirectionMode::Adaptive] {
                    let sc = ServeConfig::new(cfg_for(g).with_direction(direction), policy)
                        .with_devices(devices)
                        .with_interconnect(InterconnectConfig::nvlink());
                    let rep = if mutating {
                        serve_mutating(&sc, g, Some(w), &jobs, &mutations)
                    } else {
                        serve(&sc, g, Some(w), &jobs)
                    }
                    .expect("the weighted graph is supplied");
                    assert!(rep.rejected.is_empty(), "every cell admits every job");
                    let name = format!(
                        "{}/{devices}dev/{}/{}",
                        policy.name(),
                        if mutating { "mutating" } else { "static" },
                        direction.as_str()
                    );
                    out.push((name, observe(&rep)));
                }
            }
        }
    }
    out
}

#[test]
fn every_cell_reproduces_the_pre_scheduler_bytes() {
    let (g, w) = graphs();
    let got = cells(&g, &w);
    if std::env::var_os("ASCETIC_PRINT_GOLDENS").is_some() {
        for (name, (makespan, json, trace)) in &got {
            println!("    (\"{name}\", ({makespan}, {json:#018x}, {trace:#018x})),");
        }
        return;
    }
    assert_eq!(got.len(), GOLDEN.len());
    for ((name, got), (golden_name, golden)) in got.iter().zip(GOLDEN) {
        assert_eq!(name, golden_name);
        assert_eq!(got, golden, "{name}: (makespan_ns, json fnv, trace fnv)");
    }
}

fn job(id: u32, kind: Algo, source: Option<u32>) -> Job {
    Job {
        id,
        kind,
        source,
        submit_ns: 0,
        deadline_ns: None,
    }
}

/// The configurations that make admission say no, each in its own way.
fn rejecting_configs(g: &Csr) -> [(&'static str, AsceticConfig); 3] {
    let base = cfg_for(g);
    let vertex_bytes = g.num_vertices() as u64 * 24;
    let mut too_small = base;
    too_small.device = DeviceConfig::p100(vertex_bytes - 4);
    [
        ("forced pull", base.with_direction(DirectionMode::Pull)),
        ("vertex arrays don't fit", too_small),
        (
            "chunk above half the budget",
            base.with_chunk_bytes(1 << 20),
        ),
    ]
}

/// `(configuration, [(job id, reason)], observe(report))`, harvested with
/// [`GOLDEN`].
type Rejections = (
    &'static str,
    &'static [(u32, &'static str)],
    (u64, u64, u64),
);
const GOLDEN_REJECTIONS: &[Rejections] = &[
    (
        "forced pull",
        &[
            (2, "--direction pull: LP is push-only (no pull operator)"),
            (3, "--direction pull: SSSP is push-only (no pull operator)"),
        ],
        (2065649, 0x14b53e9751bfa601, 0x5c92d14ecec76320),
    ),
    (
        "vertex arrays don't fit",
        &[
            (0, "vertex arrays need 54672 B but the device holds 54668 B"),
            (2, "vertex arrays need 54672 B but the device holds 54668 B"),
            (3, "vertex arrays need 54672 B but the device holds 54668 B"),
            (4, "vertex arrays need 54672 B but the device holds 54668 B"),
        ],
        (0, 0x8a9f539015c6fd2f, 0xb45d49e12fc02a31),
    ),
    (
        "chunk above half the budget",
        &[
            (0, "edge budget 137508 B below two 1048576-byte chunks"),
            (2, "edge budget 137508 B below two 1048576-byte chunks"),
            (3, "edge budget 137508 B below two 1048576-byte chunks"),
            (4, "edge budget 137508 B below two 1048576-byte chunks"),
        ],
        (0, 0x795d15b54a11b04f, 0xb45d49e12fc02a31),
    ),
];

/// One trace, three configurations, every way admission says no.
#[test]
fn every_rejection_kind_keeps_its_reason_and_its_bytes() {
    let (g, w) = graphs();
    let trace = [
        job(0, Algo::Bfs, Some(3)),
        job(2, Algo::Lp, None),
        job(3, Algo::Sssp, Some(5)),
        job(4, Algo::Cc, None),
    ];
    let print = std::env::var_os("ASCETIC_PRINT_GOLDENS").is_some();
    assert!(print || GOLDEN_REJECTIONS.len() == 3);
    for (i, (name, cfg)) in rejecting_configs(&g).into_iter().enumerate() {
        let rep = serve(&ServeConfig::new(cfg, Policy::Fifo), &g, Some(&w), &trace)
            .expect("the weighted graph is supplied");
        assert_eq!(rep.jobs.len() + rep.rejected.len(), trace.len(), "{name}");
        let reasons: Vec<(u32, &str)> = rep
            .rejected
            .iter()
            .map(|r| (r.id, r.reason.as_str()))
            .collect();
        if print {
            let (makespan, json, trace) = observe(&rep);
            println!("    (\n        \"{name}\",\n        &{reasons:#?},");
            println!("        ({makespan}, {json:#018x}, {trace:#018x}),\n    ),");
            continue;
        }
        let (golden_name, golden_reasons, golden) = GOLDEN_REJECTIONS[i];
        assert_eq!(name, golden_name);
        assert_eq!(reasons, golden_reasons, "{name}");
        assert_eq!(observe(&rep), golden, "{name}");
    }
}
