//! Differential pin of the region-op planner: next-frontier prefetch over
//! 240 seeded states (residency with free slots and non-contiguous holes in
//! slot order ≠ chunk order, access history across two runs, a sparse
//! demand vector, budgets from 0 past the chunk count, compressible on and
//! off). Every op list is folded into one FNV; the value below was harvested
//! from the separate `plan_prefetch` the one pairing loop replaced, so a
//! planner change that moves any op of any state shows up here.
//!
//! `ASCETIC_PRINT_GOLDENS=1 cargo test -p ascetic-core --test
//! planner_differential -- --nocapture` prints one line per state — diff
//! two builds' output to find the state that moved.

use ascetic_core::codec::WireSizes;
use ascetic_core::prefetch::{plan_ops, PrefetchOp, Prefetcher};
use ascetic_core::static_region::StaticRegion;
use ascetic_graph::chunks::{ChunkGeometry, ChunkId};
use ascetic_graph::generators::{web_graph, WebConfig};
use ascetic_graph::Csr;
use ascetic_sim::{DeviceConfig, Gpu};

/// Next-frontier prefetch over the state's demand.
fn next_frontier(s: &mut State, g: &Csr) -> Vec<PrefetchOp> {
    let wire = s.compressible.then_some(&mut s.wire);
    plan_ops(g, &s.region, &s.history, wire, &s.demand, s.max_ops)
}

/// Pinned fingerprint (harvested on the three-planner parent).
const NEXT_FRONTIER_FNV: u64 = 0xc323_7c6b_38f1_5dda;

// ---- Seeded states. ------------------------------------------------------

const STATES: u64 = 240;
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn fold(h: &mut u64, ops: &[PrefetchOp]) {
    fnv(h, &(ops.len() as u32).to_le_bytes());
    for op in ops {
        let (tag, evict, load) = match *op {
            PrefetchOp::Load(c) => (0u8, ChunkId::MAX, c),
            PrefetchOp::Swap { evict, load } => (1u8, evict, load),
        };
        fnv(h, &[tag]);
        fnv(h, &evict.to_le_bytes());
        fnv(h, &load.to_le_bytes());
    }
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

struct State {
    region: StaticRegion,
    history: Prefetcher,
    wire: WireSizes,
    demand: Vec<u64>,
    max_ops: usize,
    compressible: bool,
}

fn state(seed: u64, g: &Csr, geo: ChunkGeometry) -> State {
    let mut rng = Rng(seed.wrapping_mul(0xA076_1D64_78BD_642F) ^ 0x5EED);
    let n = geo.num_chunks();
    let mut gpu = Gpu::new(DeviceConfig::p100(1 << 22));

    // Residency: a shuffled subset of chunks, so slot order is not chunk
    // order and the resident ids have holes; every third state leaves
    // free slots, every eighth is full-width with nothing resident.
    let slots = 1 + rng.below(n);
    let mut region = StaticRegion::new(&mut gpu, g, geo, (slots * geo.chunk_bytes) as u64);
    let mut ids: Vec<ChunkId> = (0..n as ChunkId).collect();
    for i in 0..n {
        let j = i + rng.below(n - i);
        ids.swap(i, j);
    }
    let resident = match seed % 8 {
        7 => 0,
        0 | 3 | 6 => rng.below(slots + 1),
        _ => slots,
    };
    region.fill(&mut gpu, g, &ids[..resident]);
    // a few data-plane swaps so residency is not just the fill's prefix
    for _ in 0..rng.below(4) {
        let res = region.resident_chunk_ids();
        let absent: Vec<ChunkId> = (0..n as ChunkId)
            .filter(|&c| !region.is_resident(c))
            .collect();
        if res.is_empty() || absent.is_empty() {
            break;
        }
        let (evict, load) = (res[rng.below(res.len())], absent[rng.below(absent.len())]);
        region.swap_chunk(&mut gpu, g, evict, load);
    }

    // Access history: two runs of random touches. (One state in three still takes
    // the draw that once picked a staleness threshold, so the states are
    // the ones the fingerprint was harvested on.)
    if seed % 3 == 1 {
        rng.below(4);
    }
    let mut history = Prefetcher::new(n);
    for _run in 0..2 {
        history.begin_run();
        let iters = 1 + rng.below(4) as u32;
        for it in 0..iters {
            for _ in 0..rng.below(n) {
                history.record(rng.below(n) as ChunkId, it);
            }
        }
    }

    // Demand: about half the chunks at zero, the rest a few distinct
    // levels so ties and strict inequalities both occur.
    let demand = (0..n)
        .map(|_| match rng.below(6) {
            0..=2 => 0,
            k => (k as u64 - 2) * 64 * (1 + rng.below(3) as u64),
        })
        .collect();

    State {
        region,
        history,
        wire: WireSizes::new(n),
        demand,
        max_ops: rng.below(n + 3),
        compressible: seed.is_multiple_of(2),
    }
}

#[test]
fn every_seeded_plan_matches_its_pinned_fingerprint() {
    let g = web_graph(&WebConfig::new(600, 9_000, 11));
    let geo = ChunkGeometry::with_chunk_bytes(&g, 1024);
    assert!(geo.num_chunks() >= 24, "{} chunks", geo.num_chunks());
    let print = std::env::var_os("ASCETIC_PRINT_GOLDENS").is_some();

    let mut h = FNV_OFFSET;
    let (mut loads, mut swaps, mut empty) = (0usize, 0usize, 0usize);
    for seed in 0..STATES {
        let mut s = state(seed, &g, geo);
        let ops = next_frontier(&mut s, &g);
        fold(&mut h, &ops);
        assert!(ops.len() <= s.max_ops, "seed {seed}: over budget");
        loads += ops
            .iter()
            .filter(|o| matches!(o, PrefetchOp::Load(_)))
            .count();
        swaps += ops
            .iter()
            .filter(|o| matches!(o, PrefetchOp::Swap { .. }))
            .count();
        empty += usize::from(ops.is_empty());
        if print {
            println!("state {seed:3} max_ops {:2} {ops:?}", s.max_ops);
        }
    }
    if print {
        println!("const NEXT_FRONTIER_FNV: u64 = {h:#018x};");
        println!("loads {loads} swaps {swaps} empty plans {empty}");
    }
    // the states are worth pinning: both op kinds in bulk, not mostly empty
    assert!(loads > 300 && swaps > 300, "loads {loads} swaps {swaps}");
    assert!(empty < STATES as usize / 2, "{empty} empty plans");
    assert_eq!(h, NEXT_FRONTIER_FNV, "next-frontier prefetch");
}
