//! Property-based tests across crate boundaries: random graphs, random
//! memory budgets, random chunk sizes — the out-of-core result must always
//! equal the in-memory oracle, and the structural invariants must hold.

use proptest::prelude::*;

use ascetic::algos::inmemory::run_in_memory;
use ascetic::algos::{Bfs, Cc, PageRank};
use ascetic::baselines::SubwaySystem;
use ascetic::core::ondemand::{gather, plan_batches};
use ascetic::core::ratio::{satisfies_eq1, static_share};
use ascetic::core::{AsceticConfig, AsceticSystem, OutOfCoreSystem};
use ascetic::graph::partition::{partition_by_bytes, validate_partitions};
use ascetic::graph::{Csr, GraphBuilder};
use ascetic::sim::DeviceConfig;

/// Build an arbitrary graph from a proptest edge list.
fn graph_from_edges(n: usize, edges: &[(u32, u32)]) -> Csr {
    let mut b = GraphBuilder::new(n)
        .drop_self_loops(true)
        .sort_neighbors(true);
    for &(u, v) in edges {
        b.add_edge(u % n as u32, v % n as u32);
    }
    b.build()
}

fn arb_graph() -> impl Strategy<Value = Csr> {
    (
        16usize..200,
        proptest::collection::vec((any::<u32>(), any::<u32>()), 1..2000),
    )
        .prop_map(|(n, edges)| graph_from_edges(n, &edges))
}

/// Like [`graph_from_edges`] but keeping self-loops, and with every edge
/// squeezed into the bottom half of the vertex range so the top half is
/// guaranteed isolated — the structural quirks (self-loops, isolated
/// vertices, disconnected components) the pull operators must survive.
fn quirky_graph_from_edges(n: usize, edges: &[(u32, u32)]) -> Csr {
    let mut b = GraphBuilder::new(n).sort_neighbors(true);
    let span = (n as u32 / 2).max(1);
    for &(u, v) in edges {
        b.add_edge(u % span, v % span);
    }
    b.build()
}

fn arb_quirky_graph() -> impl Strategy<Value = Csr> {
    (
        16usize..200,
        proptest::collection::vec((any::<u32>(), any::<u32>()), 1..2000),
    )
        .prop_map(|(n, edges)| quirky_graph_from_edges(n, &edges))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn ascetic_always_matches_oracle_bfs(g in arb_graph(), mem_frac in 1u64..20, chunk in 16usize..256) {
        let chunk = chunk.next_multiple_of(8);
        // edge budget must hold at least two chunks (engine precondition)
        let edge_budget = (g.edge_bytes() * mem_frac / 20).max(2 * chunk as u64 + 8);
        let dev = DeviceConfig::p100(g.num_vertices() as u64 * 24 + edge_budget);
        let cfg = AsceticConfig::new(dev).with_chunk_bytes(chunk);
        let asc = AsceticSystem::new(cfg).run(&g, &Bfs::new(0));
        let oracle = run_in_memory(&g, &Bfs::new(0));
        prop_assert_eq!(asc.output, oracle.output);
    }

    #[test]
    fn ascetic_always_matches_oracle_cc(g in arb_graph(), ratio in 0.0f64..=1.0) {
        let dev = DeviceConfig::p100(g.num_vertices() as u64 * 24 + g.edge_bytes() / 2 + 256);
        let cfg = AsceticConfig::new(dev).with_chunk_bytes(64).with_static_ratio(ratio);
        let asc = AsceticSystem::new(cfg).run(&g, &Cc::new());
        let oracle = run_in_memory(&g, &Cc::new());
        prop_assert_eq!(asc.output, oracle.output);
    }

    #[test]
    fn ascetic_matches_oracle_under_random_configs(
        g in arb_graph(),
        fill_pick in 0u8..3,
        prefetch in any::<bool>(),
        compression_pick in 0u8..3,
        overlap in any::<bool>(),
        adaptive in any::<bool>(),
        od_buffers in 1usize..4,
        weighted in any::<bool>(),
    ) {
        use ascetic::core::{CompressionMode, FillPolicy, PrefetchMode};
        use ascetic::algos::Sssp;
        use ascetic::graph::datasets::weighted_variant;
        let g = if weighted { weighted_variant(&g) } else { g };
        let dev = DeviceConfig::p100(g.num_vertices() as u64 * 24 + g.edge_bytes() / 2 + 512);
        let fill = match fill_pick {
            0 => FillPolicy::Front,
            1 => FillPolicy::Rear,
            _ => FillPolicy::Random { seed: 7 },
        };
        let prefetch = if prefetch { PrefetchMode::NextFrontier } else { PrefetchMode::Off };
        let compression = match compression_pick {
            1 => CompressionMode::Adaptive,
            // weights ship raw: `always` is an unweighted mode
            2 if !weighted => CompressionMode::Always,
            _ => CompressionMode::Off,
        };
        let cfg = AsceticConfig::new(dev)
            .with_chunk_bytes(64)
            .with_fill(fill)
            .with_prefetch(prefetch)
            .with_compression(compression)
            .with_overlap(overlap)
            .with_adaptive(adaptive)
            .with_od_buffers(od_buffers);
        if weighted {
            let asc = AsceticSystem::new(cfg).run(&g, &Sssp::new(0));
            let oracle = run_in_memory(&g, &Sssp::new(0));
            prop_assert_eq!(asc.output, oracle.output);
        } else {
            let asc = AsceticSystem::new(cfg).run(&g, &PageRank::new());
            let oracle = run_in_memory(&g, &PageRank::new());
            prop_assert_eq!(asc.output, oracle.output);
        }
    }

    #[test]
    fn pull_and_adaptive_always_match_push(
        g in arb_quirky_graph(),
        forced in any::<bool>(),
        chunk in 16usize..256,
    ) {
        use ascetic::core::DirectionMode;
        let chunk = chunk.next_multiple_of(8);
        // edge budget must hold at least two chunks (engine precondition)
        let edge_budget = (g.edge_bytes() / 2).max(2 * chunk as u64 + 8);
        let dev = DeviceConfig::p100(g.num_vertices() as u64 * 24 + edge_budget);
        let mode = if forced { DirectionMode::Pull } else { DirectionMode::Adaptive };
        let cfg = |m: DirectionMode| AsceticConfig::new(dev).with_chunk_bytes(chunk).with_direction(m);

        let push = AsceticSystem::new(cfg(DirectionMode::Push)).run(&g, &Bfs::new(0));
        let other = AsceticSystem::new(cfg(mode)).run(&g, &Bfs::new(0));
        prop_assert_eq!(&push.output, &run_in_memory(&g, &Bfs::new(0)).output);
        prop_assert_eq!(push.output, other.output);

        let push = AsceticSystem::new(cfg(DirectionMode::Push)).run(&g, &Cc::new());
        let other = AsceticSystem::new(cfg(mode)).run(&g, &Cc::new());
        prop_assert_eq!(&push.output, &run_in_memory(&g, &Cc::new()).output);
        prop_assert_eq!(push.output, other.output);

        let push = AsceticSystem::new(cfg(DirectionMode::Push)).run(&g, &PageRank::new());
        let other = AsceticSystem::new(cfg(mode)).run(&g, &PageRank::new());
        prop_assert_eq!(&push.output, &run_in_memory(&g, &PageRank::new()).output);
        prop_assert_eq!(push.output, other.output);
    }

    #[test]
    fn subway_always_matches_oracle_pr(g in arb_graph()) {
        let dev = DeviceConfig::p100(g.num_vertices() as u64 * 24 + g.edge_bytes() / 3 + 256);
        let sw = SubwaySystem::new(dev).run(&g, &PageRank::new());
        let oracle = run_in_memory(&g, &PageRank::new());
        prop_assert_eq!(sw.output, oracle.output);
    }

    #[test]
    fn partitions_always_tile(g in arb_graph(), budget in 8u64..4096) {
        let budget = budget.max(g.bytes_per_edge() as u64);
        let parts = partition_by_bytes(&g, budget);
        prop_assert!(validate_partitions(&g, &parts).is_ok());
    }

    #[test]
    fn batches_cover_all_requested_edges(g in arb_graph(), cap in 4usize..512) {
        let nodes: Vec<u32> = (0..g.num_vertices() as u32).step_by(2).collect();
        let batches = plan_batches(&g, &nodes, cap.max(g.words_per_edge()));
        // every requested vertex's edges appear exactly once, in order
        let mut covered: std::collections::HashMap<u32, u64> = Default::default();
        for b in &batches {
            for e in b {
                *covered.entry(e.vertex).or_insert(0) += e.num_edges();
            }
        }
        for &v in &nodes {
            prop_assert_eq!(covered.get(&v).copied().unwrap_or(0), g.degree(v), "vertex {}", v);
        }
        // gather materializes exactly the bytes the entries describe
        for entries in batches {
            let total: u64 = entries.iter().map(|e| e.num_edges()).sum();
            let batch = gather(&g, entries);
            prop_assert_eq!(batch.batch().edges(), total);
            prop_assert_eq!(batch.words.len() as u64, total * g.words_per_edge() as u64);
        }
    }

    #[test]
    fn eq2_share_always_satisfies_eq1(k in 0.01f64..0.5, d in 1u64..1_000_000, m in 1u64..1_000_000) {
        let r = static_share(k, d, m);
        prop_assert!((0.0..=1.0).contains(&r));
        let m_static = (r * m as f64) as u64;
        // Eq (1) must hold at the chosen point (within 1-byte rounding)
        // whenever it is satisfiable at all (K·D ≤ M; otherwise even
        // M_static = 0 cannot fit the per-iteration spill and the engine
        // falls back to fragmented on-demand batches).
        if d > m && k * d as f64 <= m as f64 {
            prop_assert!(satisfies_eq1(k, d, m, m_static.saturating_sub(1)));
        }
    }
}
