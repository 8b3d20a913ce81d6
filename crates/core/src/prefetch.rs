//! Cross-iteration prefetch: every prefetch decision, in one type.
//!
//! At the end of iteration *i* the next frontier is already known — the
//! kernels just wrote it. Instead of letting iteration *i+1* discover its
//! misses reactively, the [`Prefetcher`] derives the next iteration's chunk
//! demand from that frontier bitmap, ranks candidate chunks by predicted
//! benefit (demand bytes × wire cost, the latter from the codec's
//! per-chunk [`WireSizes`] when the compressed path is eligible), and
//! issues speculative refreshes on a dedicated second copy stream
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
//! Either way the iteration's makespan is untouched by construction, and
//! a mispredicted prefetch is charged as *waste*, never as corruption. It
//! is the only rule that changes the region's contents after the prestore
//! (Eq (3) only ever changes its size, `DESIGN.md` §19). Everything here is
//! integer math over deterministic inputs on the orchestration thread, so
//! plans are bit-identical at every host thread count.

use std::collections::VecDeque;

use ascetic_graph::chunks::{ChunkGeometry, ChunkId};
use ascetic_graph::{Csr, VertexId};
use ascetic_par::Bitmap;
use ascetic_sim::{Engine, Gpu, SimTime, Xfer};

use crate::codec::{chunk_wire_bytes, WireSizes};
use crate::maps::DataMaps;
use crate::static_region::StaticRegion;

/// How many planned prefetch ops may be carried into the next iteration
/// to wait for link gaps in its on-demand pipeline (on top of whatever
/// fits the end-of-iteration slack). Purely a planning bound: deferred
/// ops that never find a gap are dropped at no cost.
const GAP_PLAN_OPS: usize = 256;

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

/// Plan up to `max_ops` next-frontier prefetches, judged at the end of the
/// iteration before the one `demand` (the next frontier's
/// [`chunk_demand_bytes`]) opens: each candidate goes into a free slot
/// while there are any ([`PrefetchOp::Load`]), then against the cheapest
/// victim left ([`PrefetchOp::Swap`]).
///
/// Candidates are non-resident chunks the next frontier demands, ranked by
/// `demand × wire cost` descending (prefetching an expensive-to-ship chunk
/// hides more stall), ties broken by ascending chunk id; a chunk's wire cost
/// is its encoded size from `wire` when given (the compressed path could
/// apply), its raw size otherwise; victim recency is `history`'s. Eviction
/// order matters twice over:
///
/// * A load is paired only with a resident of *strictly lower*
///   next-frontier demand, so every swap is a net reduction of the next
///   iteration's on-demand volume — the policy can keep adapting under
///   dense frontiers (where no resident has zero demand) without ever
///   making the next iteration worse. A victim that turns a load down
///   skips that load rather than stopping the plan: a later candidate can
///   still out-rank it.
/// * Among equally-cheap residents, chunks that have *been accessed* and
///   gone stale are evicted before chunks that have *never* been accessed:
///   in a traversal, never-touched chunks are precisely the unexplored
///   future (the frontier will reach them), while long-stale chunks are
///   the swept past.
pub fn plan_ops(
    g: &Csr,
    region: &StaticRegion,
    history: &Prefetcher,
    mut wire: Option<&mut WireSizes>,
    demand: &[u64],
    max_ops: usize,
) -> Vec<PrefetchOp> {
    // a region with no slot can take no op: price nothing
    if max_ops == 0 || region.slots() == 0 {
        return Vec::new();
    }
    let geo = &region.geo;
    let mut candidates: Vec<(u128, ChunkId)> = (0..geo.num_chunks() as ChunkId)
        .filter(|&c| !region.is_resident(c) && demand[c as usize] > 0)
        .map(|c| {
            let cost = match wire.as_deref_mut() {
                Some(sizes) => chunk_wire_bytes(g, geo, c, sizes),
                None => geo.chunk_len_bytes(c) as u64,
            };
            (demand[c as usize] as u128 * cost as u128, c)
        })
        .collect();
    // benefit descending, chunk id ascending on ties — deterministic
    candidates.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    // Residents cheapest-to-lose first. The key is (next-frontier demand,
    // never-accessed flag, last-access stamp, id): lowest demand goes
    // first; among equals, accessed-and-stale residents beat never-accessed
    // ones, oldest stamp first, then ascending id.
    let mut victims: Vec<(u64, u8, u32, ChunkId)> = region
        .resident_chunk_ids()
        .into_iter()
        .map(|c| {
            let stamp = history.last_access_stamp(c);
            (demand[c as usize], u8::from(stamp == 0), stamp, c)
        })
        .collect();
    victims.sort();
    let mut victims = victims.into_iter().map(|(.., c)| c).peekable();
    let mut free_slots = region.free_slots();
    let mut plan = Vec::new();
    for (_, load) in candidates.into_iter().take(max_ops) {
        if free_slots > 0 {
            free_slots -= 1;
            plan.push(PrefetchOp::Load(load));
        } else if let Some(&evict) = victims.peek() {
            if demand[load as usize] > demand[evict as usize] {
                victims.next();
                plan.push(PrefetchOp::Swap { evict, load });
            }
        } else {
            break; // nothing resident left to evict
        }
    }
    plan
}

/// The next-frontier prefetcher a session builds when prefetch is on: the
/// per-chunk access history (hit scoring, victim recency) and the per-run
/// pipeline. The iteration frame calls `ready`, `fill_gap`,
/// `end_iteration`, `write_off` and `take_window`, and nothing else.
#[derive(Default)]
pub struct Prefetcher {
    /// Stamp of the last iteration each chunk was accessed (0 = never).
    /// Stamps count iterations over the whole session, not within a run:
    /// `run_base + iteration + 1`, so an access at iteration `i` of an
    /// earlier run never reads as an access at iteration `i` of this one.
    last_access: Vec<u32>,
    /// Stamp of the last iteration before the current run.
    run_base: u32,
    /// Highest stamp issued so far.
    newest: u32,
    // --- The per-run pipeline, reset by `begin_run`. ---
    // applied refreshes, scored one iteration later
    pending: Vec<(ChunkId, u64)>,
    // the prefetch stream's last applied completion
    ready: SimTime,
    // planned ops waiting for a gather gap in the next iteration
    deferred: VecDeque<PrefetchOp>,
    // gap-issued transfers, applied at the iteration boundary
    inflight: Vec<(PrefetchOp, u64)>,
    // this iteration's prefetch DMAs, for the prefetch track's span
    window: Option<(u64, u64)>,
}

impl Prefetcher {
    /// A prefetcher over `num_chunks` chunks, with no history.
    pub fn new(num_chunks: usize) -> Self {
        let mut prefetcher = Prefetcher::default();
        prefetcher.resize(num_chunks);
        prefetcher
    }

    /// Start a new run: its iteration indices restart at 0, its stamps
    /// continue after the previous run's, and its pipeline starts empty.
    pub fn begin_run(&mut self) {
        self.run_base = self.newest;
        (self.ready, self.window) = (SimTime::ZERO, None);
        self.pending.clear();
        self.deferred.clear();
        self.inflight.clear();
    }

    /// The session-wide stamp of this run's `iteration` (0-based).
    fn stamp(&self, iteration: u32) -> u32 {
        self.run_base.saturating_add(iteration).saturating_add(1)
    }

    /// Resize the history to a patched graph's chunk count. New chunks
    /// start cold; shrinking drops the tail. History for surviving chunks
    /// is kept — chunk boundaries are stable under patching (geometry
    /// depends only on chunk/edge byte sizes), so a surviving chunk still
    /// covers the same edge range.
    pub(crate) fn resize(&mut self, num_chunks: usize) {
        self.last_access.resize(num_chunks, 0);
    }

    /// Record that `chunk` was accessed during `iteration` (0-based).
    pub fn record(&mut self, chunk: ChunkId, iteration: u32) {
        let stamp = self.stamp(iteration);
        self.last_access[chunk as usize] = stamp;
        self.newest = self.newest.max(stamp);
    }

    /// Record accesses for every chunk covering the edges of `nodes` — one
    /// [`Prefetcher::record`] per (vertex, chunk) pair.
    ///
    /// Frontier node lists ascend, so consecutive vertices mostly fall in
    /// the chunk the previous one ended in, already recorded: those are
    /// skipped against that chunk's edge window without re-deriving the
    /// chunk (two divisions) per vertex.
    pub(crate) fn record_vertices(
        &mut self,
        g: &Csr,
        geo: &ChunkGeometry,
        nodes: &[VertexId],
        iteration: u32,
    ) {
        let mut last = 0..0u64; // edges of the chunk the last vertex ended in
        for &v in nodes {
            let r = g.edge_range(v);
            if r.start >= last.start && r.end <= last.end && !r.is_empty() {
                continue;
            }
            let Some(chunks) = geo.chunks_of_vertex(g, v) else {
                continue;
            };
            last = geo.edge_range(*chunks.end());
            for c in chunks {
                self.record(c, iteration);
            }
        }
    }

    /// Whether `chunk` was accessed during `iteration` (0-based) — its
    /// most recent touch is that very iteration. The hit test: a
    /// prefetched chunk counts as a hit iff the next iteration really
    /// demanded it.
    pub(crate) fn demanded_at(&self, chunk: ChunkId, iteration: u32) -> bool {
        self.last_access[chunk as usize] == self.stamp(iteration)
    }

    /// Raw recency stamp of `chunk`: session-wide count of the iteration
    /// that last accessed it, 0 = never touched (the planner evicts those
    /// last). Orders eviction candidates coldest-first, across runs as
    /// within one.
    pub(crate) fn last_access_stamp(&self, chunk: ChunkId) -> u32 {
        self.last_access[chunk as usize]
    }

    /// When the static-region kernel may read the region: the prefetch
    /// stream's last applied completion, budgeted to land inside the
    /// previous iteration's link slack, so the wait never actually stalls.
    pub(crate) fn ready(&self) -> SimTime {
        self.ready
    }

    /// Gap fill before an on-demand batch whose gather ends at
    /// `gather_end`: the link idles until then, so a deferred op ships if it
    /// lands before that — no on-demand transfer moves by a nanosecond. It
    /// waits in flight for the boundary's commit: kernels read the region.
    pub(crate) fn fill_gap(&mut self, gpu: &mut Gpu, region: &StaticRegion, gather_end: SimTime) {
        while let Some(&op) = self.deferred.front() {
            let bytes = region.geo.chunk_len_bytes(op.chunk()) as u64;
            let dur = gpu.config.pcie.transfer_ns(bytes);
            let link_free = gpu.timeline.engine_free_at(Engine::Copy);
            if link_free.0 + dur > gather_end.0 {
                break; // would push this batch's transfer later
            }
            self.deferred.pop_front();
            self.ship(gpu, op, bytes, link_free);
            self.inflight.push((op, bytes));
        }
    }

    /// ➏ The end of a push iteration: record the chunks `maps` touched at
    /// `iter`, score the previous iteration's refreshes against them and,
    /// when an iteration follows with frontier `next`, commit the gap-issued
    /// transfers, plan its ops (priced by `wire` when the compressed path
    /// could apply) and issue what fits the tail slack. With no iteration
    /// left, the pipeline is written off.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn end_iteration(
        &mut self,
        gpu: &mut Gpu,
        region: &mut StaticRegion,
        g: &Csr,
        wire: Option<&mut WireSizes>,
        maps: &DataMaps,
        iter: u32,
        next: Option<&Bitmap>,
    ) {
        let geo = region.geo;
        self.record_vertices(g, &geo, &maps.static_nodes, iter);
        self.record_vertices(g, &geo, &maps.ondemand_nodes, iter);
        // Score the previous iteration's refreshes now that the demand
        // they predicted has materialized: a hit iff the chunk is still
        // resident and this iteration touched it.
        for i in 0..self.pending.len() {
            let (c, bytes) = self.pending[i];
            if region.is_resident(c) && self.demanded_at(c, iter) {
                gpu.obs.registry.counter_add("prefetch.hits", 1);
            } else {
                charge_waste(gpu, bytes);
            }
        }
        self.pending.clear();
        let Some(next) = next else {
            return self.write_off(gpu);
        };
        // last iteration's ops that found no gap die un-issued, at no cost
        self.ready = SimTime::ZERO;
        self.deferred.clear();
        // Commit the gap-issued transfers now that every kernel of this
        // iteration is done reading the region. The plan was one iteration
        // old when its wire time was bought, so each commit is re-validated
        // against the *fresh* frontier: a stale op is dropped — its link
        // time was idle slack, its bytes become waste — rather than applied.
        let demand = chunk_demand_bytes(g, &geo, next);
        for (op, bytes) in self.inflight.drain(..) {
            let fresh = match op {
                PrefetchOp::Load(c) => {
                    !region.is_resident(c) && region.free_slots() > 0 && demand[c as usize] > 0
                }
                PrefetchOp::Swap { evict, load } => {
                    region.is_resident(evict)
                        && !region.is_resident(load)
                        && demand[load as usize] > demand[evict as usize]
                }
            };
            if fresh {
                apply(region, gpu, g, op);
                self.pending.push((op.chunk(), bytes));
            } else {
                charge_waste(gpu, bytes);
            }
        }

        // Plan the next iteration's refreshes; the tail ships what fits the
        // link slack before this iteration's barrier, in chunk-sized DMAs.
        let link_free = gpu.timeline.engine_free_at(Engine::Copy);
        let slack = gpu.timeline.now().0.saturating_sub(link_free.0);
        let op_ns = gpu.config.pcie.transfer_ns(geo.chunk_bytes as u64);
        let budget = (slack / op_ns.max(1)) as usize;
        let max_ops = budget + GAP_PLAN_OPS;
        let mut plan = plan_ops(g, region, self, wire, &demand, max_ops).into_iter();
        for op in plan.by_ref().take(budget) {
            apply(region, gpu, g, op);
            let bytes = geo.chunk_len_bytes(op.chunk()) as u64;
            self.ready = self.ready.max(self.ship(gpu, op, bytes, link_free));
            self.pending.push((op.chunk(), bytes));
        }
        // the rest waits for gather gaps in the next iteration
        self.deferred.extend(plan);
    }

    /// Charge what is pending or in flight as waste and drop the deferred
    /// plan. A run's end calls it, as does a pull iteration: pull never
    /// reads the CSR-chunked region, so a plan one push iteration old has
    /// nothing to validate against, and the gap fill is left nothing.
    pub(crate) fn write_off(&mut self, gpu: &mut Gpu) {
        let inflight = self.inflight.drain(..).map(|(_op, bytes)| bytes);
        let pending = self.pending.drain(..).map(|(_chunk, bytes)| bytes);
        for bytes in inflight.chain(pending) {
            charge_waste(gpu, bytes);
        }
        self.deferred.clear();
        self.ready = SimTime::ZERO;
    }

    /// The window this iteration's prefetch DMAs spanned, if any.
    pub(crate) fn take_window(&mut self) -> Option<(u64, u64)> {
        self.window.take()
    }

    /// The one issue site for a region op (`DESIGN.md` §21): ship `op`'s
    /// `bytes` on the prefetch stream from `at`, widen the window, and
    /// return when they land. Prefetches ship raw: a decompression launch
    /// would land on the busy compute engine, maybe behind the very kernel
    /// they hide under.
    fn ship(&mut self, gpu: &mut Gpu, op: PrefetchOp, bytes: u64, at: SimTime) -> SimTime {
        let chunk = op.chunk() as u64;
        let (copy, _) = gpu.ship_at(Xfer::Prefetch { chunk }, bytes, None, at);
        let (a, b) = self.window.unwrap_or((u64::MAX, 0));
        self.window = Some((a.min(copy.start.0), b.max(copy.end.0)));
        copy.end
    }
}

/// Move an op's chunk into the static region (the data plane).
fn apply(region: &mut StaticRegion, gpu: &mut Gpu, g: &Csr, op: PrefetchOp) {
    match op {
        PrefetchOp::Load(c) => region.load_chunk(gpu, g, c),
        PrefetchOp::Swap { evict, load } => region.swap_chunk(gpu, g, evict, load),
    };
}

/// Charge prefetched bytes that no read was served from.
fn charge_waste(gpu: &mut Gpu, bytes: u64) {
    gpu.obs.registry.counter_add("prefetch.waste_bytes", bytes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascetic_graph::GraphBuilder;
    use ascetic_sim::{DeviceConfig, Gpu};

    impl Prefetcher {
        /// Leave behind what a push iteration would have: one op waiting
        /// for a gap, one shipped in a gap (`inflight` bytes) and one
        /// applied refresh awaiting its hit test (`pending` bytes).
        pub(crate) fn leave_stale_plan(&mut self, inflight: u64, pending: u64) {
            self.deferred
                .extend([PrefetchOp::Load(0), PrefetchOp::Load(1)]);
            self.inflight.push((PrefetchOp::Load(2), inflight));
            self.pending.push((3, pending));
        }

        /// Whether nothing is deferred, in flight or pending.
        pub(crate) fn is_idle(&self) -> bool {
            self.deferred.is_empty() && self.inflight.is_empty() && self.pending.is_empty()
        }
    }

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
        sr: &StaticRegion,
        history: &Prefetcher,
        f: &Bitmap,
        max_ops: usize,
    ) -> Vec<PrefetchOp> {
        let demand = chunk_demand_bytes(g, &sr.geo, f);
        plan_ops(g, sr, history, None, &demand, max_ops)
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
        let history = Prefetcher::new(8);
        // next frontier: vertices 5 (chunk 1, resident) and 21 (chunk 5)
        let mut f = Bitmap::new(33);
        f.set(5);
        f.set(21);
        let ops = plan(&g, &sr, &history, &f, 8);
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
        let history = Prefetcher::new(8);
        let f = Bitmap::ones(33); // everything active (PageRank-style)
        let ops = plan(&g, &sr, &history, &f, 8);
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
        let history = Prefetcher::new(8);
        let mut f = Bitmap::new(33);
        f.set(9); // chunk 2
        f.set(13); // chunk 3
        f.set(17); // chunk 4
        let ops = plan(&g, &sr, &history, &f, 8);
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
        let history = Prefetcher::new(8);
        let f = Bitmap::ones(33);
        let ops = plan(&g, &sr, &history, &f, 2);
        assert_eq!(ops.len(), 2, "max_ops bounds the plan");
    }

    #[test]
    fn a_region_without_slots_plans_and_prices_nothing() {
        let (g, geo) = fixture();
        let mut gpu = Gpu::new(DeviceConfig::p100(1 << 20));
        let history = Prefetcher::new(8);
        let demand = chunk_demand_bytes(&g, &geo, &Bitmap::ones(33));
        for slots in [0, 1] {
            let mut sr = StaticRegion::new(&mut gpu, &g, geo, slots * 16);
            sr.fill(&mut gpu, &g, &[]);
            let mut sizes = WireSizes::new(8);
            let ops = plan_ops(&g, &sr, &history, Some(&mut sizes), &demand, 8);
            assert_eq!(ops.len() as u64, slots, "one free slot, one load");
            // the wire cost is measured only when a plan could use it
            assert_eq!(sizes.measured() > 0, slots > 0, "{slots} slot(s)");
        }
    }

    #[test]
    fn next_frontier_evicts_only_strictly_lower_demand() {
        let (g, geo) = fixture();
        let mut gpu = Gpu::new(DeviceConfig::p100(1 << 20));
        let mut sr = StaticRegion::new(&mut gpu, &g, geo, 2 * 16);
        sr.fill(&mut gpu, &g, &[0, 1]);
        let history = Prefetcher::new(8);
        // demand: chunk 0 (resident) 4 B, chunk 1 (resident) 16 B,
        // chunk 2 (candidate) 16 B, chunk 3 (candidate) 4 B
        let mut f = Bitmap::new(33);
        f.set(1);
        for v in 4..12 {
            f.set(v);
        }
        f.set(12);
        let ops = plan(&g, &sr, &history, &f, 8);
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
        let mut history = Prefetcher::new(8);
        history.record(0, 0); // chunk 0 was touched once, long ago; chunk 1 never
        let mut f = Bitmap::new(33);
        for v in 8..12 {
            f.set(v); // chunk 2 demanded, both residents at zero demand
        }
        let ops = plan(&g, &sr, &history, &f, 8);
        // In a traversal the never-touched chunk is the unexplored future:
        // evict the swept past (accessed, stale) first, even though its
        // stamp makes it look "warmer" than the never-accessed resident.
        assert_eq!(ops, vec![PrefetchOp::Swap { evict: 0, load: 2 }]);
    }

    #[test]
    fn an_access_in_an_earlier_run_is_not_an_access_in_this_one() {
        let mut t = Prefetcher::new(3);
        t.record(0, 3);
        t.record(1, 5);
        assert!(t.demanded_at(0, 3));
        assert!(!t.demanded_at(0, 4), "not touched in iteration 4");
        // a second run reaches the same iteration index without touching
        // chunk 0: the old stamp must not read as this iteration
        t.begin_run();
        t.record(2, 3);
        assert!(!t.demanded_at(0, 3), "run 1's iteration 3 is not run 2's");
        assert!(t.demanded_at(2, 3));
        // and recency orders across runs: anything touched in run 1 is
        // older than anything touched in run 2, whatever the indices
        assert!(t.last_access_stamp(1) < t.last_access_stamp(2));
        assert!(t.last_access_stamp(0) < t.last_access_stamp(1));
    }

    #[test]
    fn record_vertices_touches_their_chunks() {
        let (g, geo) = fixture(); // vertex 9's edge index is 9 -> chunk 2
        let mut t = Prefetcher::new(geo.num_chunks());
        t.record_vertices(&g, &geo, &[9], 0);
        assert!(t.demanded_at(2, 0));
        assert!(!t.demanded_at(1, 0));
        // zero-degree tail vertex touches nothing
        t.record_vertices(&g, &geo, &[32], 0);
        assert_eq!(t.last_access_stamp(7), 0);
    }

    #[test]
    fn run_length_recording_equals_one_record_per_vertex_chunk_pair() {
        // hubs spanning several chunks, leaves sharing one, empty rows
        let g = ascetic_graph::generators::web_graph(&ascetic_graph::generators::WebConfig::new(
            2_000, 30_000, 5,
        ));
        let geo = ChunkGeometry::with_chunk_bytes(&g, 256);
        let n = g.num_vertices() as VertexId;
        for nodes in [
            (0..n).collect::<Vec<_>>(),
            (0..n).step_by(7).collect(),
            (0..n).rev().step_by(3).collect(), // order must not matter
            vec![],
        ] {
            let mut fast = Prefetcher::new(geo.num_chunks());
            let mut slow = Prefetcher::new(geo.num_chunks());
            for iter in [0, 3] {
                fast.record_vertices(&g, &geo, &nodes, iter);
                for &v in &nodes {
                    for c in geo.chunks_of_vertex(&g, v).into_iter().flatten() {
                        slow.record(c, iter);
                    }
                }
            }
            assert_eq!(fast.last_access, slow.last_access);
            assert_eq!(fast.newest, slow.newest);
        }
    }
}
