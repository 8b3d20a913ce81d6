//! Operator-equivalence matrix (satellite of the operator-core redesign).
//!
//! Every ported program × {push, pull where supported} × {1, 2, 8} host
//! threads × {1, 2} devices must produce an output fingerprint
//! byte-identical to the pre-refactor goldens harvested from the
//! per-algorithm-loop implementation. The fingerprints below were captured
//! on the tree immediately before the operator core landed
//! (`ASCETIC_PRINT_GOLDENS=1 cargo test --test operator_equivalence -- --nocapture`
//! prints a fresh table); any drift means the operator decomposition
//! changed an answer.

use ascetic::algos::{Bfs, Cc, MsBfsDistances, MsSsspDistances, PageRank, Sssp, VertexProgram};
use ascetic::core::{
    run_fleet, AsceticConfig, AsceticSystem, DirectionMode, FleetConfig, OutOfCoreSystem,
};
use ascetic::graph::datasets::{Dataset, DatasetId};
use ascetic::graph::{Csr, VertexId};
use ascetic::par::set_num_threads;
use ascetic::sim::DeviceConfig;

const SCALE: u64 = 30_000;

/// Pre-refactor golden fingerprints, one per program × direction (outputs
/// are thread- and device-count-invariant, so a single fingerprint pins
/// the whole {1,2,8} threads × {1,2} devices cell block).
const GOLDENS: &[(&str, &str, u64)] = &[
    ("BFS", "push", 0xf84eeb5a6de12deb),
    ("BFS", "pull", 0xf84eeb5a6de12deb),
    ("SSSP", "push", 0x813e509cc10a0c6a),
    ("CC", "push", 0x6b8a187c608ba6ac),
    ("CC", "pull", 0x6b8a187c608ba6ac),
    ("PR", "push", 0x903088e45bd4c333),
    ("PR", "pull", 0x903088e45bd4c333),
    ("MS-BFS-D", "push", 0x13705bcf76a972f3),
    ("MS-SSSP-D", "push", 0x56cbaa1ccb09740c),
];

/// The batch programs' deterministic source sample: `count` vertices spread
/// over `g` by a multiplicative hash of the index, sorted, duplicates
/// dropped. The `MS-BFS-D` and `MS-SSSP-D` goldens pin this sequence.
fn sample_sources(g: &Csr, count: usize) -> Vec<VertexId> {
    let n = (g.num_vertices() as VertexId).max(1);
    let mut s: Vec<VertexId> = (0..count as VertexId)
        .map(|i| i.wrapping_mul(2_654_435_761) % n)
        .collect();
    s.sort_unstable();
    s.dedup();
    s
}

fn golden_for(name: &str, dir: &str) -> u64 {
    GOLDENS
        .iter()
        .find(|(n, d, _)| *n == name && *d == dir)
        .map(|(_, _, fp)| *fp)
        .unwrap_or_else(|| panic!("no golden for {name}/{dir}"))
}

struct Case {
    name: &'static str,
    weighted: bool,
    pull: bool,
    prog: Box<dyn Fn(&Csr) -> Runner>,
}

/// Type-erased single run: (system-or-fleet, graph, direction) → fingerprint.
enum Runner {
    Bfs(Bfs),
    Sssp(Sssp),
    Cc(Cc),
    Pr(PageRank),
    MsBfsD(MsBfsDistances),
    MsSsspD(MsSsspDistances),
}

impl Runner {
    fn run(&self, cfg: AsceticConfig, g: &Csr, devices: usize) -> u64 {
        fn go<P: VertexProgram>(prog: &P, cfg: AsceticConfig, g: &Csr, devices: usize) -> u64 {
            if devices == 1 {
                AsceticSystem::new(cfg).run(g, prog).output.fingerprint()
            } else {
                run_fleet(cfg, FleetConfig::nvlink(devices), g, prog)
                    .output
                    .fingerprint()
            }
        }
        match self {
            Runner::Bfs(p) => go(p, cfg, g, devices),
            Runner::Sssp(p) => go(p, cfg, g, devices),
            Runner::Cc(p) => go(p, cfg, g, devices),
            Runner::Pr(p) => go(p, cfg, g, devices),
            Runner::MsBfsD(p) => go(p, cfg, g, devices),
            Runner::MsSsspD(p) => go(p, cfg, g, devices),
        }
    }
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "BFS",
            weighted: false,
            pull: true,
            prog: Box::new(|_| Runner::Bfs(Bfs::new(0))),
        },
        Case {
            name: "SSSP",
            weighted: true,
            pull: false,
            prog: Box::new(|_| Runner::Sssp(Sssp::new(0))),
        },
        Case {
            name: "CC",
            weighted: false,
            pull: true,
            prog: Box::new(|_| Runner::Cc(Cc::new())),
        },
        Case {
            name: "PR",
            weighted: false,
            pull: true,
            prog: Box::new(|_| Runner::Pr(PageRank::new())),
        },
        Case {
            name: "MS-BFS-D",
            weighted: false,
            pull: false,
            prog: Box::new(|g| Runner::MsBfsD(MsBfsDistances::new(sample_sources(g, 8)))),
        },
        Case {
            name: "MS-SSSP-D",
            weighted: true,
            pull: false,
            prog: Box::new(|g| Runner::MsSsspD(MsSsspDistances::new(sample_sources(g, 8)))),
        },
    ]
}

/// The two new operator-core programs have no pre-refactor goldens; their
/// anchor is the in-memory oracle. The out-of-core session and the
/// 2-device fleet must reproduce it bit-for-bit at every thread count —
/// the "new algorithms inherit the whole engine" guarantee.
#[test]
fn new_programs_match_in_memory_oracles() {
    use ascetic::algos::inmemory::run_in_memory;
    use ascetic::algos::{Algo, ProgramOpts};
    let ds = Dataset::build(DatasetId::Fk, SCALE);
    let g = ds.graph.clone();
    for algo in [Algo::Lp, Algo::Bc] {
        let prog = algo.program(&ProgramOpts::from_source(0));
        let oracle = run_in_memory(&g, &prog).output.fingerprint();
        let dev = DeviceConfig::p100(g.num_vertices() as u64 * 24 + g.edge_bytes() / 2);
        let cfg = AsceticConfig::new(dev).with_chunk_bytes(1024);
        for threads in [1usize, 8] {
            set_num_threads(threads);
            for devices in [1usize, 2] {
                let fp = if devices == 1 {
                    AsceticSystem::new(cfg).run(&g, &prog).output.fingerprint()
                } else {
                    run_fleet(cfg, FleetConfig::nvlink(devices), &g, &prog)
                        .output
                        .fingerprint()
                };
                assert_eq!(
                    fp,
                    oracle,
                    "{}: {threads} threads x {devices} devices drifted from the in-memory oracle",
                    algo.display()
                );
            }
        }
        set_num_threads(0);
    }
}

/// The full matrix in one test fn: `set_num_threads` is process-global, so
/// thread counts must be swept sequentially, not across parallel tests.
#[test]
fn every_program_matches_pre_refactor_goldens() {
    let harvest = std::env::var_os("ASCETIC_PRINT_GOLDENS").is_some();
    let ds = Dataset::build(DatasetId::Fk, SCALE);
    let g = ds.graph.clone();
    let wg = ds.weighted();

    for case in cases() {
        let graph = if case.weighted { &wg } else { &g };
        let dev = DeviceConfig::p100(graph.num_vertices() as u64 * 24 + graph.edge_bytes() / 2);
        let runner = (case.prog)(graph);
        let dirs: &[(&str, DirectionMode)] = if case.pull {
            &[("push", DirectionMode::Push), ("pull", DirectionMode::Pull)]
        } else {
            &[("push", DirectionMode::Push)]
        };
        for (dname, dir) in dirs {
            let cfg = AsceticConfig::new(dev)
                .with_chunk_bytes(1024)
                .with_direction(*dir);
            let mut first: Option<u64> = None;
            for threads in [1usize, 2, 8] {
                set_num_threads(threads);
                for devices in [1usize, 2] {
                    let fp = runner.run(cfg, graph, devices);
                    if let Some(f) = first {
                        assert_eq!(
                            f, fp,
                            "{} {dname}: fingerprint varies with {} threads x {} devices",
                            case.name, threads, devices
                        );
                    } else {
                        first = Some(fp);
                    }
                }
            }
            set_num_threads(0);
            let fp = first.unwrap();
            if harvest {
                println!("    (\"{}\", \"{dname}\", {fp:#018x}),", case.name);
            } else {
                assert_eq!(
                    fp,
                    golden_for(case.name, dname),
                    "{} {dname}: output drifted from the pre-refactor golden",
                    case.name
                );
            }
        }
    }
}
