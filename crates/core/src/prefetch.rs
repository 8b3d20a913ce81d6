//! Cross-iteration prefetch policy (the push half of the pull+push loop).
//!
//! At the end of iteration *i* the next frontier is already known — the
//! kernels just wrote it. Instead of letting iteration *i+1* discover its
//! misses reactively, the session derives the next iteration's chunk
//! demand from that frontier bitmap, ranks candidate chunks by predicted
//! benefit (demand bytes × wire cost, the latter from the per-chunk
//! encoded-size cache when the compressed path is eligible), and issues
//! speculative refreshes on a dedicated second copy stream
//! ([`ascetic_sim::CopyStream`]) in two windows where the link is
//! provably idle:
//!
//! * the **tail slack** between the link's last transfer and the
//!   iteration barrier (these ops apply immediately; the next static
//!   kernel event-waits on their completion), and
//! * the **gather gaps** of the *next* iteration's on-demand pipeline —
//!   a transfer can never start before its own CPU gather ends, so every
//!   nanosecond the link waits on a gather is free wire time. Ops issued
//!   there mutate the region only at the following iteration boundary,
//!   re-validated against the then-current frontier.
//!
//! Either way the iteration's makespan is untouched by construction. A
//! mispredicted prefetch (the chunk goes cold or is evicted before use)
//! is charged as *waste*, never as corruption: the data plane stays exact
//! either way.
//!
//! Lazy warming and the replacement server plan their region ops through
//! the same pairing loop as the prefetcher ([`plan_ops`]); each is only a
//! set of inputs to it ([`OpSource`]).
//!
//! Everything here is integer math over deterministic inputs (the frontier
//! bitmap, the hotness table, cached encode sizes), planned from the
//! single orchestration thread — so plans are bit-identical at every host
//! thread count.

use ascetic_graph::chunks::{ChunkGeometry, ChunkId};
use ascetic_graph::Csr;
use ascetic_par::Bitmap;

use crate::codec::chunk_wire_bytes;
use crate::hotness::HotnessTable;
use crate::static_region::StaticRegion;

/// What (if anything) the cross-iteration pipeline speculates on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PrefetchMode {
    /// No speculation — every miss is serviced reactively (the paper's
    /// behavior, and the default).
    #[default]
    Off,
    /// Exact next-iteration demand: prefetch chunks the next frontier will
    /// touch, evicting only residents with *strictly lower* next-frontier
    /// demand (so every swap reduces the next iteration's on-demand
    /// volume).
    NextFrontier,
}

impl PrefetchMode {
    /// Whether this mode issues any speculative work.
    pub fn is_on(self) -> bool {
        self != PrefetchMode::Off
    }

    /// CLI / env spelling of the mode.
    pub fn as_str(self) -> &'static str {
        match self {
            PrefetchMode::Off => "off",
            PrefetchMode::NextFrontier => "next-frontier",
        }
    }
}

crate::spelled!(PrefetchMode, as_str, Off, NextFrontier);

/// One planned region op: a chunk on its way into the static region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrefetchOp {
    /// Adopt a chunk into a free static-region slot.
    Load(ChunkId),
    /// Replace a resident with a chunk worth more.
    Swap {
        /// Resident chunk to evict.
        evict: ChunkId,
        /// Chunk to bring in.
        load: ChunkId,
    },
}

impl PrefetchOp {
    /// The chunk this operation ships.
    pub fn chunk(self) -> ChunkId {
        match self {
            PrefetchOp::Load(c) => c,
            PrefetchOp::Swap { load, .. } => load,
        }
    }
}

/// Per-chunk demand, in bytes, the `frontier` will place on each chunk
/// next iteration: for every frontier vertex, its CSR edge range clipped
/// to each chunk it overlaps (the same clipping the static region applies
/// when classifying vertices).
pub fn chunk_demand_bytes(g: &Csr, geo: &ChunkGeometry, frontier: &Bitmap) -> Vec<u64> {
    let bpe = geo.bytes_per_edge as u64;
    let mut demand = vec![0u64; geo.num_chunks()];
    for v in frontier.iter_ones() {
        let v = v as u32;
        let er = g.edge_range(v);
        if let Some(chunks) = geo.chunks_of_vertex(g, v) {
            for c in chunks {
                let cr = geo.edge_range(c);
                let overlap = er.end.min(cr.end).saturating_sub(er.start.max(cr.start));
                demand[c as usize] += overlap * bpe;
            }
        }
    }
    demand
}

/// Who is asking for region ops. A source is only a set of *inputs* to the
/// one pairing loop of [`plan_ops`] — a candidate ranking, a victim
/// ranking, a free-slot budget and an admit test (`DESIGN.md` §21).
#[derive(Clone, Copy, Debug)]
pub enum OpSource<'a> {
    /// Lazy fill's warming: chunks demanded at the (0-based) iteration,
    /// ascending, into free slots only — nothing is ever evicted.
    LazyWarming(u32),
    /// The §3.4 replacement server: chunks hot at the (0-based) iteration,
    /// ascending, each for a stale resident (in slot order). It never
    /// adopts into free slots — that is warming's job.
    Replacement(u32),
    /// Next-frontier prefetch, judged at the end of the iteration before
    /// the one `demand` (the next frontier's [`chunk_demand_bytes`]) opens.
    ///
    /// Candidates are non-resident chunks the next frontier demands,
    /// ranked by `demand × wire cost` descending (prefetching an
    /// expensive-to-ship chunk hides more stall), ties broken by ascending
    /// chunk id. Eviction order matters twice over:
    ///
    /// * A load is paired only with a resident of *strictly lower*
    ///   next-frontier demand, so every swap is a net reduction of the next
    ///   iteration's on-demand volume — the policy can keep adapting under
    ///   dense frontiers (where no resident has zero demand) without ever
    ///   making the next iteration worse.
    /// * Among equally-cheap residents, chunks that have *been accessed*
    ///   and gone stale are evicted before chunks that have *never* been
    ///   accessed: in a traversal, never-touched chunks are precisely the
    ///   unexplored future (the frontier will reach them), while
    ///   long-stale chunks are the swept past.
    NextFrontier {
        /// Bytes the next frontier demands of each chunk.
        demand: &'a [u64],
        /// Whether a chunk's wire cost is its cached encoded size (the
        /// compressed path could apply) rather than its raw size.
        compressible: bool,
    },
}

/// Plan up to `max_ops` region ops for `source`: its candidates in rank
/// order, each into a free slot while the source's budget of them lasts
/// ([`PrefetchOp::Load`]), then against the cheapest victim left
/// ([`PrefetchOp::Swap`]).
pub fn plan_ops(
    source: OpSource<'_>,
    g: &Csr,
    geo: &ChunkGeometry,
    region: &StaticRegion,
    hot: &mut HotnessTable,
    max_ops: usize,
) -> Vec<PrefetchOp> {
    if max_ops == 0 {
        return Vec::new();
    }
    let absent = (0..geo.num_chunks() as ChunkId).filter(|&c| !region.is_resident(c));
    let free = region.free_slots();
    match source {
        OpSource::LazyWarming(iteration) => pair_ops(
            absent.filter(|&c| hot.demanded_at(c, iteration)),
            std::iter::empty(),
            free,
            max_ops,
            |_, _| true,
        ),
        OpSource::Replacement(iteration) => pair_ops(
            absent.filter(|&c| hot.is_hot(c, iteration)),
            region
                .resident_chunk_ids()
                .into_iter()
                .filter(|&c| hot.is_stale(c, iteration)),
            0,
            max_ops,
            |_, _| true,
        ),
        OpSource::NextFrontier {
            demand,
            compressible,
        } => {
            // Wire cost of shipping chunk `c` on demand: the cached encoded
            // size when the compressed path could apply, the raw size
            // otherwise.
            let mut candidates: Vec<(u128, ChunkId)> = absent
                .filter(|&c| demand[c as usize] > 0)
                .map(|c| {
                    let wire = if compressible {
                        chunk_wire_bytes(g, geo, c, hot)
                    } else {
                        geo.chunk_len_bytes(c) as u64
                    };
                    (demand[c as usize] as u128 * wire as u128, c)
                })
                .collect();
            // benefit descending, chunk id ascending on ties — deterministic
            candidates.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            // Residents cheapest-to-lose first. The key is (next-frontier
            // demand, never-accessed flag, last-access stamp, id): lowest
            // demand goes first; among equals, accessed-and-stale residents
            // beat never-accessed ones, oldest stamp first, then ascending
            // id.
            let mut victims: Vec<(u64, u8, u32, ChunkId)> = region
                .resident_chunk_ids()
                .into_iter()
                .map(|c| {
                    let never = u8::from(hot.access_count(c) == 0);
                    (demand[c as usize], never, hot.last_access_stamp(c), c)
                })
                .collect();
            victims.sort();
            pair_ops(
                candidates.into_iter().map(|(_, c)| c),
                victims.into_iter().map(|(.., c)| c),
                free,
                max_ops,
                // A swap must strictly reduce the next iteration's
                // on-demand bytes, or it is churn, not progress.
                |load, evict| demand[load as usize] > demand[evict as usize],
            )
        }
    }
}

/// The one pairing loop. `admit(load, evict)` may turn the cheapest victim
/// down for this load; the load is then skipped rather than the plan
/// stopped — a later candidate can still out-rank that victim.
fn pair_ops(
    candidates: impl Iterator<Item = ChunkId>,
    victims: impl Iterator<Item = ChunkId>,
    mut free_slots: usize,
    max_ops: usize,
    admit: impl Fn(ChunkId, ChunkId) -> bool,
) -> Vec<PrefetchOp> {
    let mut victims = victims.peekable();
    let mut plan = Vec::new();
    for load in candidates.take(max_ops) {
        if free_slots > 0 {
            free_slots -= 1;
            plan.push(PrefetchOp::Load(load));
        } else if let Some(&evict) = victims.peek() {
            if admit(load, evict) {
                victims.next();
                plan.push(PrefetchOp::Swap { evict, load });
            }
        } else {
            break; // nothing resident left to evict
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ReplacementPolicy;
    use ascetic_graph::GraphBuilder;
    use ascetic_sim::{DeviceConfig, Gpu};

    fn line_graph(n: usize) -> Csr {
        let mut b = GraphBuilder::new(n);
        for v in 0..n - 1 {
            b.add_edge(v as u32, v as u32 + 1);
        }
        b.build()
    }

    /// line_graph(33): 32 edges, 16-byte chunks of 4 edges → 8 chunks;
    /// vertex v owns edge v, so chunk c covers vertices 4c..4c+3.
    fn fixture() -> (Csr, ChunkGeometry) {
        let g = line_graph(33);
        let geo = ChunkGeometry::with_chunk_bytes(&g, 16);
        (g, geo)
    }

    /// The `NextFrontier` plan for the frontier `f`, at raw wire costs.
    fn plan(
        g: &Csr,
        geo: &ChunkGeometry,
        sr: &StaticRegion,
        hot: &mut HotnessTable,
        f: &Bitmap,
        max_ops: usize,
    ) -> Vec<PrefetchOp> {
        let demand = chunk_demand_bytes(g, geo, f);
        let source = OpSource::NextFrontier {
            demand: &demand,
            compressible: false,
        };
        plan_ops(source, g, geo, sr, hot, max_ops)
    }

    #[test]
    fn mode_parsing_round_trips() {
        for m in [PrefetchMode::Off, PrefetchMode::NextFrontier] {
            assert_eq!(m.as_str().parse(), Ok(m));
        }
        assert!("bogus".parse::<PrefetchMode>().is_err());
        assert!(!PrefetchMode::Off.is_on());
        assert!(PrefetchMode::NextFrontier.is_on());
        assert!(
            "hotness".parse::<PrefetchMode>().is_err(),
            "the history mode is gone"
        );
    }

    #[test]
    fn demand_clips_edge_ranges_to_chunks() {
        let (g, geo) = fixture();
        let mut f = Bitmap::new(33);
        f.set(9); // edge 9 → chunk 2
        f.set(10);
        let d = chunk_demand_bytes(&g, &geo, &f);
        assert_eq!(d[2], 8, "two 4-byte edges in chunk 2");
        assert_eq!(d.iter().sum::<u64>(), 8, "no other chunk touched");
    }

    /// `Off` is the session never asking: an oversubscribed traversal
    /// that prefetches under `NextFrontier` issues nothing without it.
    #[test]
    fn off_mode_plans_nothing() {
        use crate::session::AsceticSession;
        let g = ascetic_graph::generators::uniform_graph(2_000, 16_000, false, 7);
        let dev = DeviceConfig::p100(g.num_vertices() as u64 * 24 + g.edge_bytes() * 2 / 5);
        let cfg = crate::AsceticConfig::new(dev).with_chunk_bytes(1024);
        let bfs = ascetic_algos::Bfs::new(0);
        let on = cfg.with_prefetch(PrefetchMode::NextFrontier);
        assert!(AsceticSession::new(on, &g).run(&bfs).prefetch_ops > 0);
        let off = AsceticSession::new(cfg.with_prefetch(PrefetchMode::Off), &g).run(&bfs);
        assert_eq!((off.prefetch_ops, off.xfer.h2d_prefetch_bytes), (0, 0));
    }

    #[test]
    fn next_frontier_swaps_in_demanded_chunks_and_spares_demanded_residents() {
        let (g, geo) = fixture();
        let mut gpu = Gpu::new(DeviceConfig::p100(1 << 20));
        let mut sr = StaticRegion::new(&mut gpu, &g, geo, 2 * 16);
        sr.fill(&mut gpu, &g, &[0, 1]); // residents 0, 1
        let mut hot = HotnessTable::new(8, ReplacementPolicy::LastIteration);
        // next frontier: vertices 5 (chunk 1, resident) and 21 (chunk 5)
        let mut f = Bitmap::new(33);
        f.set(5);
        f.set(21);
        let ops = plan(&g, &geo, &sr, &mut hot, &f, 8);
        // chunk 5 comes in; chunk 1 is demanded next iteration so only
        // chunk 0 may be evicted
        assert_eq!(ops, vec![PrefetchOp::Swap { evict: 0, load: 5 }]);
        assert_eq!(ops[0].chunk(), 5);
    }

    #[test]
    fn next_frontier_with_all_residents_demanded_is_a_no_op() {
        let (g, geo) = fixture();
        let mut gpu = Gpu::new(DeviceConfig::p100(1 << 20));
        let mut sr = StaticRegion::new(&mut gpu, &g, geo, 2 * 16);
        sr.fill(&mut gpu, &g, &[0, 1]);
        let mut hot = HotnessTable::new(8, ReplacementPolicy::LastIteration);
        let f = Bitmap::ones(33); // everything active (PageRank-style)
        let ops = plan(&g, &geo, &sr, &mut hot, &f, 8);
        assert!(
            ops.is_empty(),
            "nothing evictable when every resident has next-iteration demand"
        );
    }

    #[test]
    fn free_slots_become_loads_before_swaps() {
        let (g, geo) = fixture();
        let mut gpu = Gpu::new(DeviceConfig::p100(1 << 20));
        // 3 slots, only 1 filled → 2 free
        let mut sr = StaticRegion::new(&mut gpu, &g, geo, 3 * 16);
        sr.fill(&mut gpu, &g, &[0]);
        let mut hot = HotnessTable::new(8, ReplacementPolicy::LastIteration);
        let mut f = Bitmap::new(33);
        f.set(9); // chunk 2
        f.set(13); // chunk 3
        f.set(17); // chunk 4
        let ops = plan(&g, &geo, &sr, &mut hot, &f, 8);
        assert_eq!(ops.len(), 3);
        assert!(matches!(ops[0], PrefetchOp::Load(_)));
        assert!(matches!(ops[1], PrefetchOp::Load(_)));
        assert!(matches!(ops[2], PrefetchOp::Swap { evict: 0, .. }));
        // equal per-chunk demand → benefit ties broken by ascending id
        assert_eq!(
            ops.iter().map(|o| o.chunk()).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
    }

    #[test]
    fn budget_caps_the_plan() {
        let (g, geo) = fixture();
        let mut gpu = Gpu::new(DeviceConfig::p100(1 << 20));
        let mut sr = StaticRegion::new(&mut gpu, &g, geo, 4 * 16);
        sr.fill(&mut gpu, &g, &[0]);
        let mut hot = HotnessTable::new(8, ReplacementPolicy::LastIteration);
        let f = Bitmap::ones(33);
        let ops = plan(&g, &geo, &sr, &mut hot, &f, 2);
        assert_eq!(ops.len(), 2, "max_ops bounds the plan");
    }

    #[test]
    fn next_frontier_evicts_only_strictly_lower_demand() {
        let (g, geo) = fixture();
        let mut gpu = Gpu::new(DeviceConfig::p100(1 << 20));
        let mut sr = StaticRegion::new(&mut gpu, &g, geo, 2 * 16);
        sr.fill(&mut gpu, &g, &[0, 1]);
        let mut hot = HotnessTable::new(8, ReplacementPolicy::LastIteration);
        // demand: chunk 0 (resident) 4 B, chunk 1 (resident) 16 B,
        // chunk 2 (candidate) 16 B, chunk 3 (candidate) 4 B
        let mut f = Bitmap::new(33);
        f.set(1);
        for v in 4..12 {
            f.set(v);
        }
        f.set(12);
        let ops = plan(&g, &geo, &sr, &mut hot, &f, 8);
        // chunk 2 (16 B) may displace chunk 0 (4 B): net −12 B of
        // next-iteration on-demand volume. Chunk 3 (4 B) must NOT displace
        // chunk 1 (16 B): that swap would be churn.
        assert_eq!(ops, vec![PrefetchOp::Swap { evict: 0, load: 2 }]);
    }

    #[test]
    fn never_accessed_residents_are_evicted_last() {
        let (g, geo) = fixture();
        let mut gpu = Gpu::new(DeviceConfig::p100(1 << 20));
        let mut sr = StaticRegion::new(&mut gpu, &g, geo, 2 * 16);
        sr.fill(&mut gpu, &g, &[0, 1]);
        let mut hot = HotnessTable::new(8, ReplacementPolicy::LastIteration);
        hot.record(0, 0); // chunk 0 was touched once, long ago; chunk 1 never
        let mut f = Bitmap::new(33);
        for v in 8..12 {
            f.set(v); // chunk 2 demanded, both residents at zero demand
        }
        let ops = plan(&g, &geo, &sr, &mut hot, &f, 8);
        // In a traversal the never-touched chunk is the unexplored future:
        // evict the swept past (accessed, stale) first, even though its
        // stamp makes it look "warmer" than the never-accessed resident.
        assert_eq!(ops, vec![PrefetchOp::Swap { evict: 0, load: 2 }]);
    }
}
