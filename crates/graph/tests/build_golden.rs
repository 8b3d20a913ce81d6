//! Byte pins of CSR construction. Every generator, the four dataset
//! stand-ins and the `GraphBuilder` option matrix are each folded into one
//! FNV of offsets + targets (+ weights), at 1, 2 and 8 threads. The values
//! were harvested on the builder that staged every mirror and rebuilt each
//! sorted row into a second array; any builder since must reproduce them
//! byte for byte — including the order among equal targets of a weighted
//! row, and which weight `dedup` keeps. A proptest checks the unweighted
//! build against the naive reference: the lexicographically sorted
//! `(src, dst)` pairs.
//!
//! `ASCETIC_PRINT_GOLDENS=1 cargo test -p ascetic-graph --test build_golden
//! -- --nocapture` prints a fresh table.

use proptest::prelude::*;

use ascetic_graph::datasets::weighted_variant;
use ascetic_graph::generators::{
    rmat_graph, social_graph, uniform_graph, web_graph, xorshift, RmatConfig, SocialConfig,
    WebConfig,
};
use ascetic_graph::{Csr, Dataset, DatasetId, GraphBuilder, VertexId, Weight};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// FNV of offsets, then targets, then weights when present.
fn fingerprint(g: &Csr) -> u64 {
    let mut h = FNV_OFFSET;
    for &o in g.offsets() {
        fnv(&mut h, &o.to_le_bytes());
    }
    for &t in g.targets() {
        fnv(&mut h, &t.to_le_bytes());
    }
    for &w in g.weights().unwrap_or(&[]) {
        fnv(&mut h, &w.to_le_bytes());
    }
    h
}

/// The matrix's input: 40 000 edges over 2 000 vertices, each landing at
/// most 7 ids past its source — so every row repeats targets with
/// different weights, one edge in eight is a self-loop, and the mirrors of
/// a symmetrized build fall into rows that already hold originals. Every
/// tenth edge leaves hub 0, whose row is long enough for the unstable sort
/// to reorder equal targets.
fn matrix_edges() -> Vec<(VertexId, VertexId, Weight)> {
    let n = 2_000u64;
    let mut state = 0x5EED_B11D_u64;
    (0..40_000)
        .map(|i| {
            let r = xorshift(&mut state);
            let src = if i % 10 == 0 { 0 } else { r % n };
            let dst = (src + (r >> 16) % 8) % n;
            (
                src as VertexId,
                dst as VertexId,
                ((r >> 32) % 100 + 1) as Weight,
            )
        })
        .collect()
}

/// `GraphBuilder` over [`matrix_edges`] with the given options.
fn matrix_build(sym: bool, drop: bool, sort: bool, dedup: bool, weighted: bool) -> Csr {
    let mut b = GraphBuilder::new(2_000)
        .symmetrize(sym)
        .drop_self_loops(drop)
        .sort_neighbors(sort)
        .dedup(dedup);
    for (s, d, w) in matrix_edges() {
        if weighted {
            b.add_weighted_edge(s, d, w);
        } else {
            b.add_edge(s, d);
        }
    }
    b.build()
}

/// Every pinned build, labelled, in table order.
fn builds() -> Vec<(String, Csr)> {
    let mut out = vec![
        (
            "web_graph 20000/160000 seed 3".to_string(),
            web_graph(&WebConfig::new(20_000, 160_000, 3)),
        ),
        (
            "social_graph 16384/80000 seed 7".to_string(),
            social_graph(&SocialConfig::new(16_384, 80_000, 7)),
        ),
        (
            "rmat_graph undirected scale 13/60000 seed 11".to_string(),
            rmat_graph(&RmatConfig::new(13, 60_000, 11).undirected(true)),
        ),
        (
            "uniform_graph directed 3000/40000 seed 5".to_string(),
            uniform_graph(3_000, 40_000, false, 5),
        ),
        (
            "uniform_graph undirected 3000/40000 seed 6".to_string(),
            uniform_graph(3_000, 40_000, true, 6),
        ),
    ];
    for id in DatasetId::ALL {
        let d = Dataset::build(id, 20_000);
        out.push((format!("Dataset {} @ 20000", id.abbr()), d.graph));
    }
    let fk = Dataset::build(DatasetId::Fk, 20_000);
    out.push((
        "weighted_variant FK @ 20000".to_string(),
        weighted_variant(&fk.graph),
    ));
    for weighted in [false, true] {
        for mask in 0..16u32 {
            let on = |bit: u32| mask & (1 << bit) != 0;
            let (sym, drop, sort, dedup) = (on(3), on(2), on(1), on(0));
            let name = format!(
                "builder {} {} {} {} {}",
                if sym { "sym" } else { "-" },
                if drop { "drop" } else { "-" },
                if sort { "sort" } else { "-" },
                if dedup { "dedup" } else { "-" },
                if weighted { "weighted" } else { "unweighted" },
            );
            out.push((name, matrix_build(sym, drop, sort, dedup, weighted)));
        }
    }
    out
}

/// Pinned fingerprints, in [`builds`] order.
const PINS: &[(&str, u64)] = &[
    ("web_graph 20000/160000 seed 3", 0x1abe005b4f11f5e6),
    ("social_graph 16384/80000 seed 7", 0xdbfb8a38c25ebff1),
    (
        "rmat_graph undirected scale 13/60000 seed 11",
        0x59c5c3793adc19b4,
    ),
    (
        "uniform_graph directed 3000/40000 seed 5",
        0x4e0dda63ed3e4a20,
    ),
    (
        "uniform_graph undirected 3000/40000 seed 6",
        0x77b505579843a305,
    ),
    ("Dataset GS @ 20000", 0x0cec3c4a695d6e70),
    ("Dataset FK @ 20000", 0x595fb57803274dac),
    ("Dataset FS @ 20000", 0x93418a286c76445f),
    ("Dataset UK @ 20000", 0xccd390b86fc3b4ed),
    ("weighted_variant FK @ 20000", 0x6e4b4655131ee79f),
    ("builder - - - - unweighted", 0xdebcc497c2a72abe),
    ("builder - - - dedup unweighted", 0x4c2e5c12792c0db3),
    ("builder - - sort - unweighted", 0x7891ae4548b011de),
    ("builder - - sort dedup unweighted", 0x4c2e5c12792c0db3),
    ("builder - drop - - unweighted", 0xe336d6a2b17bdba8),
    ("builder - drop - dedup unweighted", 0xfbba194c512df410),
    ("builder - drop sort - unweighted", 0xa173949fcb1645f4),
    ("builder - drop sort dedup unweighted", 0xfbba194c512df410),
    ("builder sym - - - unweighted", 0x4fcfba6a0e896449),
    ("builder sym - - dedup unweighted", 0x5d31a1394d38e78b),
    ("builder sym - sort - unweighted", 0xf7dc00de79e809dd),
    ("builder sym - sort dedup unweighted", 0x5d31a1394d38e78b),
    ("builder sym drop - - unweighted", 0xfe688d8f6fcf4986),
    ("builder sym drop - dedup unweighted", 0xd26e36fa1d0efb33),
    ("builder sym drop sort - unweighted", 0x836ba65cc0c04762),
    ("builder sym drop sort dedup unweighted", 0xd26e36fa1d0efb33),
    ("builder - - - - weighted", 0xbe79044240882c61),
    ("builder - - - dedup weighted", 0x640237a2d5a56fe7),
    ("builder - - sort - weighted", 0xd82fc26346953731),
    ("builder - - sort dedup weighted", 0x640237a2d5a56fe7),
    ("builder - drop - - weighted", 0xb150b8f0e13eed01),
    ("builder - drop - dedup weighted", 0x42947101ff457b5e),
    ("builder - drop sort - weighted", 0x854c098d0e32b0ad),
    ("builder - drop sort dedup weighted", 0x42947101ff457b5e),
    ("builder sym - - - weighted", 0x878f8372e9dc41af),
    ("builder sym - - dedup weighted", 0x4fbdc5ebdbc205d0),
    ("builder sym - sort - weighted", 0xabd1a53afbca604b),
    ("builder sym - sort dedup weighted", 0x4fbdc5ebdbc205d0),
    ("builder sym drop - - weighted", 0xaf008d34d3431ae6),
    ("builder sym drop - dedup weighted", 0xd08a5b23011f69a0),
    ("builder sym drop sort - weighted", 0xf967bfe6aa200402),
    ("builder sym drop sort dedup weighted", 0xd08a5b23011f69a0),
];

#[test]
fn every_build_matches_its_pin_at_1_2_and_8_threads() {
    let print = std::env::var_os("ASCETIC_PRINT_GOLDENS").is_some();
    for threads in [1, 2, 8] {
        ascetic_par::set_num_threads(threads);
        let got: Vec<(String, u64)> = builds()
            .into_iter()
            .map(|(name, g)| {
                g.validate().unwrap();
                (name, fingerprint(&g))
            })
            .collect();
        if print && threads == 1 {
            println!("const PINS: &[(&str, u64)] = &[");
            for (name, h) in &got {
                println!("    ({name:?}, {h:#018x}),");
            }
            println!("];");
        }
        let names: Vec<&str> = got.iter().map(|(n, _)| n.as_str()).collect();
        let pinned: Vec<&str> = PINS.iter().map(|p| p.0).collect();
        assert_eq!(names, pinned, "the table lists every build once, in order");
        for ((name, h), (_, pin)) in got.iter().zip(PINS) {
            assert_eq!(h, pin, "{name} at {threads} threads");
        }
    }
    ascetic_par::set_num_threads(0);
}

/// The documented order rules on a hand-sized row: a row is its kept
/// originals in input order, then its mirrors; a sorted weighted row keeps
/// its weights beside their targets; `dedup` keeps the first entry of each
/// run of equal targets in sorted order (on a row this short the unstable
/// sort leaves equal targets in pre-sort order).
#[test]
fn rows_list_originals_then_mirrors_and_dedup_keeps_the_first_sorted_entry() {
    let mut b = GraphBuilder::new(4).symmetrize(true);
    for (s, d, w) in [(1, 3, 10), (2, 1, 20), (1, 0, 30), (1, 1, 40), (3, 1, 50)] {
        b.add_weighted_edge(s, d, w);
    }
    let g = b.build();
    assert_eq!(g.neighbors(1), &[3, 0, 1, 2, 3]);
    assert_eq!(g.edge_weights(1), &[10, 30, 40, 20, 50]);

    let mut b = GraphBuilder::new(4).symmetrize(true).dedup(true);
    for (s, d, w) in [(1, 3, 10), (2, 1, 20), (1, 0, 30), (1, 1, 40), (3, 1, 50)] {
        b.add_weighted_edge(s, d, w);
    }
    let g = b.build();
    assert_eq!(g.neighbors(1), &[0, 1, 2, 3]);
    assert_eq!(g.edge_weights(1), &[30, 40, 20, 10]);
    // row 3: original 3 → 1 (50) before the mirror of 1 → 3 (10)
    assert_eq!(g.neighbors(3), &[1]);
    assert_eq!(g.edge_weights(3), &[50]);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// A sorted unweighted build is exactly the sorted `(src, dst)` pairs:
    /// the input, its mirrors when symmetrizing (self-loops are not
    /// mirrored), minus self-loops when dropping them, minus repeats when
    /// deduplicating. Up to 40 000 edges, so about half the cases take the
    /// multi-part sort.
    #[test]
    fn unweighted_build_equals_sorted_pairs(
        n in 1usize..3_000,
        raw in prop::collection::vec((any::<u32>(), any::<u32>()), 0..40_000),
        sym in any::<bool>(),
        drop in any::<bool>(),
        dedup in any::<bool>(),
    ) {
        let edges: Vec<(VertexId, VertexId)> = raw
            .iter()
            .map(|&(s, d)| (s % n as u32, d % n as u32))
            .collect();
        let mut b = GraphBuilder::new(n)
            .symmetrize(sym)
            .drop_self_loops(drop)
            .sort_neighbors(true)
            .dedup(dedup);
        for &(s, d) in &edges {
            b.add_edge(s, d);
        }
        let g = b.build();

        let mut want = edges.clone();
        if sym {
            want.extend(edges.iter().filter(|(s, d)| s != d).map(|&(s, d)| (d, s)));
        }
        if drop {
            want.retain(|(s, d)| s != d);
        }
        want.sort_unstable();
        if dedup {
            want.dedup();
        }
        prop_assert_eq!(g.num_vertices(), n);
        prop_assert_eq!(g.iter_edges().collect::<Vec<_>>(), want);
    }
}
