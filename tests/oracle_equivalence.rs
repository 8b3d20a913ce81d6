//! Cross-system correctness: every out-of-core system must produce exactly
//! the in-memory oracle's output for every algorithm on every dataset
//! class, under heavy memory oversubscription.

use ascetic::algos::inmemory::run_in_memory;
use ascetic::algos::{Bfs, Cc, MsBfsDistances, PageRank, Sssp};
use ascetic::baselines::{PtSystem, SubwaySystem, UvmSystem};
use ascetic::core::{AsceticConfig, AsceticSystem, OutOfCoreSystem};
use ascetic::graph::datasets::{weighted_variant, Dataset, DatasetId};
use ascetic::graph::Csr;
use ascetic::sim::DeviceConfig;

const SCALE: u64 = 30_000;

fn device_for(g: &Csr, frac_num: u64, frac_den: u64) -> DeviceConfig {
    let mut d =
        DeviceConfig::p100(g.num_vertices() as u64 * 24 + g.edge_bytes() * frac_num / frac_den);
    d.uvm.page_bytes = 2048; // keep page counts meaningful at test scale
    d
}

fn check_all_systems(g: &Csr, tag: &str) {
    let dev = device_for(g, 2, 5);
    let chunk = 1024;

    macro_rules! check {
        ($prog:expr) => {{
            let prog = $prog;
            let oracle = run_in_memory(g, &prog);
            let asc =
                AsceticSystem::new(AsceticConfig::new(dev).with_chunk_bytes(chunk)).run(g, &prog);
            assert_eq!(asc.output, oracle.output, "Ascetic vs oracle on {tag}");
            assert_eq!(
                asc.iterations, oracle.iterations,
                "Ascetic iterations on {tag}"
            );
            let sw = SubwaySystem::new(dev).run(g, &prog);
            assert_eq!(sw.output, oracle.output, "Subway vs oracle on {tag}");
            let pt = PtSystem::new(dev).run(g, &prog);
            assert_eq!(pt.output, oracle.output, "PT vs oracle on {tag}");
            let uvm = UvmSystem::new(dev).run(g, &prog);
            assert_eq!(uvm.output, oracle.output, "UVM vs oracle on {tag}");
        }};
    }

    if g.is_weighted() {
        check!(Sssp::new(0));
    } else {
        check!(Bfs::new(0));
        check!(Cc::new());
        check!(PageRank::new());
        // 48 lanes of one bitmask frontier: the multi-lane program shape
        // through every system's transfer path
        let mut sources: Vec<u32> = (0..48u32)
            .map(|i| i * 71 % g.num_vertices() as u32)
            .collect();
        sources.sort_unstable();
        sources.dedup();
        check!(MsBfsDistances::new(sources));
    }
}

#[test]
fn social_dataset_all_algorithms() {
    let ds = Dataset::build(DatasetId::Fk, SCALE);
    check_all_systems(&ds.graph, "FK unweighted");
    check_all_systems(&ds.weighted(), "FK weighted");
}

#[test]
fn web_dataset_all_algorithms() {
    let ds = Dataset::build(DatasetId::Uk, SCALE);
    check_all_systems(&ds.graph, "UK unweighted");
    check_all_systems(&ds.weighted(), "UK weighted");
}

#[test]
fn rmat_dataset_all_algorithms() {
    let g = ascetic::graph::generators::rmat_graph(
        &ascetic::graph::generators::RmatConfig::new(12, 60_000, 99).undirected(true),
    );
    check_all_systems(&g, "RMAT unweighted");
    check_all_systems(&weighted_variant(&g), "RMAT weighted");
}

#[test]
fn extreme_oversubscription_still_correct() {
    // device edge budget ~8% of the dataset: the on-demand path dominates
    let ds = Dataset::build(DatasetId::Gs, SCALE);
    let g = &ds.graph;
    let dev = device_for(g, 2, 25);
    let oracle = run_in_memory(g, &Cc::new());
    let asc = AsceticSystem::new(AsceticConfig::new(dev).with_chunk_bytes(512)).run(g, &Cc::new());
    assert_eq!(asc.output, oracle.output);
    let sw = SubwaySystem::new(dev).run(g, &Cc::new());
    assert_eq!(sw.output, oracle.output);
}

#[test]
fn barely_oversubscribed_still_correct() {
    // device edge budget ~95% of the dataset: almost everything static
    let ds = Dataset::build(DatasetId::Fk, SCALE);
    let g = &ds.graph;
    let dev = device_for(g, 19, 20);
    let oracle = run_in_memory(g, &Bfs::new(0));
    let asc =
        AsceticSystem::new(AsceticConfig::new(dev).with_chunk_bytes(1024)).run(g, &Bfs::new(0));
    assert_eq!(asc.output, oracle.output);
    // nearly everything should be served statically
    let static_edges: u64 = asc.per_iter.iter().map(|i| i.static_edges).sum();
    let total: u64 = asc.per_iter.iter().map(|i| i.active_edges).sum();
    assert!(
        static_edges * 10 >= total * 8,
        "static {static_edges} of {total}"
    );
}
