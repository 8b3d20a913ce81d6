//! Multi-run sessions: reuse the static region across algorithm runs.
//!
//! The paper (§4.3): *"In practice, the Static Region can be reused
//! throughout the graph processing and benefits the reduction in data
//! transfer"* — the prestore is a one-time cost, not a per-algorithm one.
//! An [`AsceticSession`] owns the device, the prestored static region, the
//! on-demand buffers and the hotness state, and runs any number of
//! [`VertexProgram`]s over the same graph. The first run pays the prestore;
//! subsequent runs start with the same warm region — by default nothing
//! reshapes it on one iteration's evidence (`DESIGN.md` §19).
//!
//! Execution is factored into three steps — `AsceticSession::begin_run`,
//! `AsceticSession::step_iteration` and `AsceticSession::finish_run` —
//! so two drivers can share one engine: [`AsceticSession::run`] puts one
//! step in the body of the shared driver loop ([`ops::Drive`], `DESIGN.md`
//! §18), while `crate::fleet` puts the steps of N shard sessions there and
//! a cross-device frontier exchange after each round. `step_iteration` is
//! one frame for both traversal directions (`DESIGN.md` §17): a direction
//! only chooses what the shared on-demand pipeline is fed.
//!
//! [`super::engine::AsceticSystem`] is a thin one-shot wrapper around this
//! type.

use std::fmt::Display;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ascetic_algos::ops::{self, NextFrontier};
use ascetic_algos::TraversalDirection::{self, Pull, Push};
use ascetic_algos::{EdgeSlice, VertexProgram};
use ascetic_graph::chunks::{ChunkGeometry, ChunkId};
use ascetic_graph::{Csr, GraphChunks, GraphPatch, Mutation, PatchError, VertexId};
use ascetic_obs::Event;
use ascetic_par::{parallel_for_work, AtomicBitmap, Bitmap};
use ascetic_sim::{DevPtr, Engine, Gpu, SimTime, Span, Xfer};

use crate::codec::{
    chunk_wire_bytes, eligible, encoded_wins, estimate_batch_wire, ship_batch, EncodeScratch,
};
use crate::config::{AsceticConfig, DirectionMode};
use crate::engine::{finish_report, RunBase};
use crate::graph_ref::SessionGraph;
use crate::hotness::HotnessTable;
use crate::maps::DataMaps;
use crate::ondemand::{split_buffers, Batch, BatchPlan};
use crate::prefetch::{chunk_demand_bytes, plan_ops, PrefetchOp};
use crate::ratio::{static_share, RegionEvidence, Repartition};
use crate::report::{Breakdown, IterReport, RunReport};
use crate::static_region::StaticRegion;
use crate::system::{edge_budget_bytes, reserve_vertex_arrays};

/// How many planned prefetch ops may be carried into the next iteration
/// to wait for link gaps in its on-demand pipeline (on top of whatever
/// fits the end-of-iteration slack). Purely a planning bound: deferred
/// ops that never find a gap are dropped at no cost.
const GAP_PLAN_OPS: usize = 256;

/// Span-trace track carrying the session phases: static staging, then one
/// span per iteration with `GenDataMap`/static-compute children.
pub const SESSION_TRACK: &str = "session";
/// Span-trace track for the on-demand pipeline window of each iteration
/// (overlaps the static compute in time, hence its own track).
pub const ONDEMAND_TRACK: &str = "on-demand pipeline";
/// Span-trace track for the cross-iteration prefetch windows.
pub const PREFETCH_WINDOW_TRACK: &str = "prefetch window";
/// Span-trace track for mutation batches: delta patching and the repair
/// re-runs they trigger (its own track — patches land *between* runs, so
/// they must not nest into the session track's iteration spans).
pub const MUTATE_TRACK: &str = "mutation";
/// Category stamped on session-level phase spans.
const CAT_PHASE: &str = "phase";

/// Wire overhead per refreshed device chunk in the mutation delta stream:
/// a chunk header naming the slot, valid edge count and patch range.
const PATCH_CHUNK_HEADER_BYTES: u64 = 32;

/// A prepared Ascetic device bound to one graph, reusable across runs.
pub struct AsceticSession<'g> {
    cfg: AsceticConfig,
    // the caller's graph until the first mutation batch, then the
    // session's own copy of the epoch it is on
    g: SessionGraph<'g>,
    geo: ChunkGeometry,
    gpu: Gpu,
    region: StaticRegion,
    // the on-demand region and the batch buffers it is split into
    od_slab: DevPtr,
    od_buffers: Vec<DevPtr>,
    evidence: RegionEvidence,
    hotness: HotnessTable,
    // whether this graph's payloads may ship encoded at all (resolved
    // once); `false` ships everything raw
    encode: bool,
    // the chunked CSC mirror for pull-direction iterations; built once
    // per session (only when the config can ever pull) and shared by
    // every run — behind a handle a pull iteration holds while it
    // drives the device
    mirror: Option<Arc<GraphChunks>>,
    prestore_ns: u64,
    runs: u32,
}

/// An iteration's resolved traversal direction. Pull carries the CSC
/// mirror it gathers from, so a pull iteration cannot be entered without
/// one.
enum Direction {
    Push,
    Pull(Arc<GraphChunks>),
}

/// What one pass of the on-demand pipeline hands back to the frame.
#[derive(Default)]
struct OdRun {
    // payload + index bytes shipped
    payload: u64,
    // edges the batch kernels were charged for
    edges: u64,
}

/// Per-run bookkeeping threaded through the stepping API: the base
/// `AsceticSession::begin_run` captured (what the run's numbers are
/// measured from — the tallies themselves live in the device registry and
/// nowhere else) plus every piece of loop state one iteration hands the
/// next (breakdown, per-iteration reports, prefetch pipeline state, buffer
/// fences) and the host buffers an iteration refills instead of allocating
/// (data maps, batch plan, gather spans, pull targets, encoder scratch).
/// Opaque outside the core crate: drivers create it, pass it to each step,
/// and surrender it to `AsceticSession::finish_run`.
#[derive(Default)]
pub struct RunCtx {
    base: RunBase,
    breakdown: Breakdown,
    per_iter: Vec<IterReport>,
    iter_windows: Vec<(u64, u64)>,
    // reused across batches by the compressed path
    scratch: EncodeScratch,
    // likewise refilled every iteration: the data maps, the on-demand
    // batch plan with its gather spans, and the pull path's target set
    // (which the direction choice consults too) and target list
    maps: DataMaps,
    plan: BatchPlan,
    gather_spans: Vec<Span>,
    pull_bits: Bitmap,
    pull_targets: Vec<VertexId>,
    iter: u32,
    // per-buffer "compute that last read this buffer" fences
    buffer_free_at: Vec<SimTime>,
    // --- Cross-iteration prefetch pipeline state. ---
    // speculative refreshes in flight: scored for hit/waste one
    // iteration later, once the demand they predicted materializes
    prefetch_pending: Vec<(ChunkId, u64)>,
    // the event the next iteration's static kernel waits on (the
    // prefetch stream's last completion) instead of a blocking miss
    prefetch_ready: SimTime,
    // planned ops that did not fit the end-of-iteration slack: they
    // wait for link gaps in the next iteration's on-demand pipeline
    prefetch_deferred: std::collections::VecDeque<PrefetchOp>,
    // gap-issued transfers whose region mutation is deferred to the
    // iteration boundary (kernels may still be reading the region)
    prefetch_inflight: Vec<(PrefetchOp, u64)>,
    // the prefetch DMAs issued this iteration (gap fills + the tail),
    // for the iteration's window span on the prefetch track
    pf_window: Option<(u64, u64)>,
    // where the tracer stood when the iteration opened: what its span
    // encloses when it closes
    iter_mark: usize,
    // --- Direction-optimizing traversal state. ---
    // the direction iteration k decided for k+1 (computed after k's
    // refreshes so the estimate sees the residency k+1 will); None on
    // iteration 0, which decides on the spot
    next_dir: Option<Direction>,
    // whether the previous iteration pulled (hysteresis input)
    last_pull: bool,
}

impl RunCtx {
    /// Iterations stepped so far in this run.
    pub fn iterations(&self) -> u32 {
        self.iter
    }
}

impl<'g> AsceticSession<'g> {
    /// Set up the device for `g`: reserve vertex arrays, size the regions
    /// per Eq (2), allocate the on-demand buffers and perform the prestore.
    pub fn new(cfg: AsceticConfig, g: &'g Csr) -> AsceticSession<'g> {
        Self::build(cfg, SessionGraph::Borrowed(g))
    }

    /// [`AsceticSession::new`] over a graph the session owns from the
    /// start (a cold build on a mutated epoch, which only it will patch).
    pub fn owning(cfg: AsceticConfig, g: Csr) -> AsceticSession<'g> {
        Self::build(cfg, SessionGraph::Owned(Arc::new(g)))
    }

    fn build(cfg: AsceticConfig, graph: SessionGraph<'g>) -> AsceticSession<'g> {
        let g: &Csr = &graph;
        let geo = ChunkGeometry::with_chunk_bytes(g, cfg.chunk_bytes);
        let mut gpu = Gpu::armed(cfg.device, cfg.tracing);
        let _vertex_slab = reserve_vertex_arrays(&mut gpu, g);
        let m_edge = edge_budget_bytes(&gpu);
        let d = g.edge_bytes();
        // `AsceticSystem::prepare` rejects this with a typed error; a
        // caller that skipped it broke the contract
        assert!(
            m_edge >= 2 * cfg.chunk_bytes as u64,
            "edge budget ({m_edge} B) below two chunks"
        );

        // --- Region sizing: Eq (2) (or the Figure 10 override). ---
        let share = cfg
            .static_ratio_override
            .unwrap_or_else(|| static_share(cfg.k, d, m_edge));
        let full_cover = (geo.num_chunks() * cfg.chunk_bytes) as u64;
        let mut static_target = (share * m_edge as f64) as u64;
        if static_target >= d && full_cover <= m_edge {
            // The whole dataset fits: pin every chunk (round the Eq (2)
            // byte target up to whole chunks).
            static_target = full_cover;
        }
        if static_target < full_cover {
            // Data will spill on demand: leave the on-demand region at
            // least one chunk of room.
            static_target = static_target.min(m_edge - cfg.chunk_bytes as u64);
        }
        let mut region = StaticRegion::new(&mut gpu, g, geo, static_target);
        let od_words = gpu.mem.available();
        let od_slab = gpu.alloc(od_words).expect("on-demand region allocation");
        let od_buffers = split_buffers(od_slab, cfg.od_buffers, g.words_per_edge());

        // The hotness table exists before the prestore: its per-chunk
        // encoded-size cache prices the fill's wire form, and
        // the measurements stay warm for every later transfer decision.
        let mut hotness = HotnessTable::new(geo.num_chunks());
        let encode = eligible(cfg.compression, g);

        // --- Prestore: one bulk fill of the static region. ---
        let plan = region.plan_fill(cfg.fill, region.slots());
        let prestore_bytes = region.fill(&mut gpu, g, &plan);
        // Wire form of the fill: price the planned chunks' encoded
        // payloads (measuring + caching each) and ship encoded only when
        // the rule favors it.
        let mut wire = None;
        if encode && prestore_bytes > 0 {
            let encoded: u64 = plan
                .iter()
                .map(|&c| chunk_wire_bytes(g, &geo, c, &mut hotness))
                .sum();
            wire = encoded_wins(&gpu, SimTime::ZERO, prestore_bytes, encoded, false)
                .then_some(encoded);
        }
        let (copy, dec) = gpu.ship_at(Xfer::Prestore, prestore_bytes, wire, SimTime::ZERO);
        let prestore_ns = copy.duration() + dec.duration();
        let staged = gpu.sync();

        // The CSC mirror is host-side state (the on-demand pipeline ships
        // its rows exactly like CSR rows), built eagerly so every run —
        // and every fleet shard — amortizes one transpose.
        let mirror = (cfg.direction != DirectionMode::Push)
            .then(|| Arc::new(GraphChunks::build(g, cfg.chunk_bytes)));

        let mut session = AsceticSession {
            cfg,
            g: graph,
            geo,
            gpu,
            region,
            od_slab,
            od_buffers,
            evidence: RegionEvidence::default(),
            hotness,
            encode,
            mirror,
            prestore_ns,
            runs: 0,
        };
        session.phase_span(SESSION_TRACK, 0, staged.0, "static staging");
        session
    }

    /// Number of runs executed so far.
    pub fn runs(&self) -> u32 {
        self.runs
    }

    /// The graph this session is bound to (patched to its current epoch).
    pub fn graph(&self) -> &Csr {
        &self.g
    }

    /// The one issue site for a region op (`DESIGN.md` §21): move the
    /// chunk into the region, ship it on the prefetch stream and book the
    /// op against the run. Prefetches ship raw: the decompression launch
    /// would land on the busy compute engine and could push the very
    /// kernel they are hiding under. A gap-issued prefetch is issued with
    /// `apply_now` off — kernels are still reading the region, so it waits
    /// in flight for the boundary's commit.
    fn issue(&mut self, ctx: &mut RunCtx, op: PrefetchOp, ready: SimTime, apply_now: bool) {
        let chunk = op.chunk();
        let bytes = self.geo.chunk_len_bytes(chunk) as u64;
        if apply_now {
            self.apply(op);
        }
        let class = Xfer::Prefetch {
            chunk: chunk as u64,
        };
        let (copy, _) = self.gpu.ship_at(class, bytes, None, ready);
        let (a, b) = ctx.pf_window.unwrap_or((u64::MAX, 0));
        ctx.pf_window = Some((a.min(copy.start.0), b.max(copy.end.0)));
        if apply_now {
            ctx.prefetch_ready = ctx.prefetch_ready.max(copy.end);
            ctx.prefetch_pending.push((chunk, bytes));
        } else {
            ctx.prefetch_inflight.push((op, bytes));
        }
    }

    /// Move an op's chunk into the static region (the data plane).
    fn apply(&mut self, op: PrefetchOp) {
        let (gpu, g) = (&mut self.gpu, &*self.g);
        match op {
            PrefetchOp::Load(c) => self.region.load_chunk(gpu, g, c),
            PrefetchOp::Swap { evict, load } => self.region.swap_chunk(gpu, g, evict, load),
        };
    }

    /// Fraction of the graph's chunks currently resident in the static
    /// region.
    pub fn resident_fraction(&self) -> f64 {
        self.region.resident_chunks() as f64 / self.geo.num_chunks().max(1) as f64
    }

    /// Bytes of edge data currently resident in the static region
    /// (actual chunk payload, short last chunk included).
    pub fn resident_bytes(&self) -> u64 {
        self.region
            .resident_chunk_ids()
            .iter()
            .map(|&c| self.geo.chunk_len_bytes(c) as u64)
            .sum()
    }

    /// Bytes of the prestore payload as shipped (encoded when the fill
    /// crossed over) — what a device-to-device replica of this session's
    /// static region would put on a fleet link.
    pub fn prestore_wire_bytes(&self) -> u64 {
        let reg = &self.gpu.obs.registry;
        reg.counter("prestore.wire_bytes").unwrap_or(0)
    }

    /// Snapshot of the device arena's occupancy, for serve-layer admission
    /// control against what this session has pinned.
    pub fn occupancy(&self) -> ascetic_sim::ArenaOccupancy {
        self.gpu.occupancy()
    }

    /// Next-demand estimate for a prospective frontier: how many bytes of
    /// the chunk demand `frontier` would generate are already resident in
    /// the static region, and the total demand. Residency-affinity
    /// scheduling ranks waiting jobs by the first component — it is exactly
    /// the traffic a cold session would have to ship on demand but a warm
    /// one serves from device memory.
    pub fn demand_overlap(&self, frontier: &Bitmap) -> (u64, u64) {
        let demand = chunk_demand_bytes(&self.g, &self.geo, frontier);
        let mut resident = 0u64;
        let mut total = 0u64;
        for (c, &b) in demand.iter().enumerate() {
            total += b;
            if self.region.is_resident(c as ChunkId) {
                resident += b;
            }
        }
        (resident, total)
    }

    /// Synchronize every engine and return the device clock, ns. The
    /// fleet driver reads this after each shard's step to find the
    /// round's frontier-exchange start.
    pub(crate) fn clock_ns(&mut self) -> u64 {
        self.gpu.sync().0
    }

    /// Fleet hook: stamp this round's cross-device frontier exchange on
    /// the device timeline — a labeled copy-engine span over the window
    /// the interconnect computed for this device's sends — then
    /// fast-forward every engine to the fleet-wide barrier so the next
    /// round starts aligned.
    pub(crate) fn fleet_exchange(
        &mut self,
        round: u32,
        send_bytes: u64,
        window: (u64, u64),
        barrier_ns: u64,
    ) {
        if send_bytes > 0 && window.1 > window.0 {
            let dur_ns = window.1 - window.0;
            let class = Xfer::FleetExchange { round, dur_ns };
            self.gpu.ship_at(class, send_bytes, None, SimTime(window.0));
        }
        self.gpu.timeline.barrier(SimTime(barrier_ns));
    }

    /// Beamer-style density heuristic on *transfer* demand: compare the
    /// on-demand wire bytes each direction would ship for `frontier`.
    /// Push ships the non-resident frontier vertices' out-edge rows plus
    /// their subgraph index; pull bypasses the (CSR-chunked) static region
    /// entirely, so it ships every candidate target's full in-edge row
    /// from `csc`. Switching *into* pull demands a 25 % margin; staying
    /// only a tie — the hysteresis that keeps near-equal iterations from
    /// flapping. `targets` is the run's recycled pull-target bitmap.
    fn pull_wins<P: VertexProgram>(
        &self,
        prog: &P,
        csc: &Csr,
        frontier: &Bitmap,
        state: &P::State,
        prev_pull: bool,
        targets: &mut Bitmap,
    ) -> bool {
        let g = &*self.g;
        let bpe = g.bytes_per_edge() as u64;
        let resident = self.region.vertex_bitmap();
        let mut push_edges = 0u64;
        let mut push_nodes = 0u64;
        for v in frontier.iter_ones() {
            if !resident.get(v) {
                push_edges += g.degree(v as VertexId);
                push_nodes += 1;
            }
        }
        let push_est = push_edges * bpe + push_nodes * 8;
        ops::pull_frontier_into(prog, g, frontier, state, targets);
        let mut pull_edges = 0u64;
        let mut pull_nodes = 0u64;
        for v in targets.iter_ones() {
            let d = csc.degree(v as VertexId);
            if d > 0 {
                pull_edges += d;
                pull_nodes += 1;
            }
        }
        let pull_est = pull_edges * bpe + pull_nodes * 8;
        if prev_pull {
            pull_est <= push_est
        } else {
            pull_est * 4 < push_est * 3
        }
    }

    /// Resolve the traversal direction for an iteration whose frontier is
    /// `frontier`, honoring the config policy and the program's pull
    /// capability. A session whose config never pulls built no mirror and
    /// always runs push, as does a push-only program: forcing
    /// `--direction pull` onto one is rejected at configuration build /
    /// admission time ([`AsceticConfig::validate_algo`]), never here.
    fn direction_for<P: VertexProgram>(
        &self,
        prog: &P,
        frontier: &Bitmap,
        state: &P::State,
        prev_pull: bool,
        pull_targets: &mut Bitmap,
    ) -> Direction {
        let Some(mirror) = self.mirror.as_ref().filter(|_| prog.capabilities().pull) else {
            return Direction::Push;
        };
        let pull = match self.cfg.direction {
            DirectionMode::Push => false,
            DirectionMode::Pull => true,
            DirectionMode::Adaptive => {
                self.pull_wins(prog, &mirror.csc, frontier, state, prev_pull, pull_targets)
            }
        };
        if pull {
            Direction::Pull(Arc::clone(mirror))
        } else {
            Direction::Push
        }
    }

    /// Capture the run's base and fresh loop state. Drivers call this
    /// once, then `AsceticSession::step_iteration` per iteration, then
    /// `AsceticSession::finish_run`. The first run is measured from an
    /// empty registry and a zero clock, so it owns the prestore — bytes,
    /// wire payload and time — with no special case per field; a later
    /// run from the device as it stands now.
    pub(crate) fn begin_run(&mut self) -> RunCtx {
        self.hotness.begin_run();
        let clock_ns = self.gpu.sync().0;
        let mut base = RunBase {
            compute_busy_ns: self.gpu.timeline.busy_ns(Engine::Compute),
            ..RunBase::default()
        };
        if self.runs == 0 {
            base.prestore_ns = self.prestore_ns;
        } else {
            base.metrics = self.gpu.obs.registry.snapshot();
            base.clock_ns = clock_ns;
        }
        RunCtx {
            base,
            buffer_free_at: vec![SimTime::ZERO; self.od_buffers.len()],
            ..RunCtx::default()
        }
    }

    /// Execute one iteration of `prog` over this session's graph — one
    /// frame for both traversal directions:
    ///
    /// 1. **open** — barrier, the iteration span and the `GenDataMap`
    ///    charge;
    /// 2. **select** — push splits the frontier against the static region
    ///    (data maps, Eq (3) re-partition) and runs the static-region
    ///    kernel; pull derives the target set from the CSC mirror and
    ///    writes off any prefetch plan;
    /// 3. **on-demand pipeline** — one `run_ondemand` over whatever rows
    ///    the selection left to ship: plan, gather, ship, kernel per batch;
    /// 4. **prefetch** (push only — pull never reads the CSR-chunked static
    ///    region) — hotness accounting and the cross-iteration prefetch
    ///    commit/plan;
    /// 5. **pre-commit** the next iteration's direction;
    /// 6. **close** — barrier, windows, the `IterReport`.
    ///
    /// The driver loop ([`ops::Drive`]) owns the frontier dance: it runs
    /// the compute operator first, its body passes the (already
    /// ownership-masked, in the fleet case) `active` bitmap, and it closes
    /// `next` after the step (after *all* shards' steps, in the fleet case)
    /// to build the next round's frontier. The step itself looks at the
    /// next frontier only when a planner needs it (prefetch, direction
    /// choice), through `next`'s shared snapshot.
    pub(crate) fn step_iteration<P: VertexProgram>(
        &mut self,
        prog: &P,
        ctx: &mut RunCtx,
        active: &Bitmap,
        state: &P::State,
        next: &mut NextFrontier,
    ) {
        let g = self.g.clone();
        let weighted = g.is_weighted();
        // Direction dispatch: the previous iteration pre-committed a
        // direction for this frontier (after its prefetch window, so the
        // residency estimate matches what this iteration's data maps will
        // see); iteration 0 decides on the spot.
        let dir = match ctx.next_dir.take() {
            Some(dir) => dir,
            None => self.direction_for(prog, active, state, ctx.last_pull, &mut ctx.pull_bits),
        };
        ctx.last_pull = matches!(dir, Direction::Pull(_));
        let (iter_start, genmap) = self.open_iteration(ctx);

        let report = match &dir {
            Direction::Push => {
                let next_bits = next.writer();
                let ready = self.select_push(prog, ctx, active, state, next_bits, genmap);
                let nodes = std::mem::take(&mut ctx.maps.ondemand_nodes);
                let kernel = |batch: Batch<'_>, payload: &[u32]| {
                    batch.for_each_row(payload, |lane, v, words| {
                        let edges = EdgeSlice::new(words, weighted);
                        ops::advance(prog, lane, v, edges, state, next_bits);
                    });
                    batch.edges()
                };
                let od = self.run_ondemand(ctx, &g, &nodes, ready, Push, kernel);
                ctx.maps.ondemand_nodes = nodes;
                self.prefetch_phase(prog, ctx, state, next);
                IterReport {
                    active_vertices: ctx.maps.active_vertices(),
                    active_edges: ctx.maps.active_edges(),
                    payload_bytes: od.payload,
                    time_ns: 0,
                    static_edges: ctx.maps.static_edges,
                    pull: false,
                }
            }
            Direction::Pull(mirror) => {
                let csc = &mirror.csc;
                let next_bits = next.writer();
                self.select_pull(prog, ctx, csc, active, state);
                let targets = std::mem::take(&mut ctx.pull_targets);
                // The pull kernel is charged for the in-edges the operator
                // actually scanned (CC's zero-label early exit makes that
                // data-dependent), which is why the pipeline takes its
                // edge count from the host execution.
                let kernel = |batch: Batch<'_>, payload: &[u32]| {
                    let scanned = AtomicU64::new(0);
                    batch.for_each_row(payload, |_, v, words| {
                        let in_edges = EdgeSlice::new(words, weighted);
                        let s = ops::advance_pull(prog, v, in_edges, active, state, next_bits);
                        scanned.fetch_add(s, Ordering::Relaxed);
                    });
                    scanned.into_inner()
                };
                let od = self.run_ondemand(ctx, csc, &targets, genmap.end, Pull, kernel);
                ctx.pull_targets = targets;
                self.gpu.obs.registry.counter_add("direction.pull_iters", 1);
                IterReport {
                    active_vertices: active.count_ones() as u64,
                    active_edges: od.edges,
                    payload_bytes: od.payload,
                    time_ns: 0,
                    static_edges: 0,
                    pull: true,
                }
            }
        };

        // Pre-commit the next iteration's direction *after* the prefetch
        // phase, so the push-vs-pull transfer estimate sees the exact
        // static-region residency the next data maps will see.
        if self.mirror.is_some() && prog.capabilities().pull {
            let next_frontier = next.snapshot(prog, state);
            if !next_frontier.is_all_zero() {
                ctx.next_dir = Some(self.direction_for(
                    prog,
                    next_frontier,
                    state,
                    ctx.last_pull,
                    &mut ctx.pull_bits,
                ));
            }
        }
        self.close_iteration(ctx, iter_start, report);
    }

    /// Open the frame: barrier, the iteration's span on the session track
    /// and ➊ GenDataMap — a cheap bitmap kernel over |V| bits, over the
    /// frontier under push and the target set under pull, charged the
    /// same. Returns the iteration's start and that kernel.
    fn open_iteration(&mut self, ctx: &mut RunCtx) -> (SimTime, Span) {
        let iter_start = self.gpu.sync();
        if let Some(tr) = self.gpu.timeline.tracer_mut() {
            tr.track(SESSION_TRACK); // keeps its place in the track table
            ctx.iter_mark = tr.mark();
        }
        let n = self.g.num_vertices() as u64;
        let genmap = self.gpu.kernel_at(0, n.div_ceil(64), iter_start);
        ctx.breakdown.gen_map_ns += genmap.duration();
        self.phase_span(SESSION_TRACK, genmap.start.0, genmap.end.0, "GenDataMap");
        (iter_start, genmap)
    }

    /// Close the frame: the prefetch stream's window span, barrier, the
    /// iteration span, and `report` with its time filled in.
    fn close_iteration(&mut self, ctx: &mut RunCtx, iter_start: SimTime, mut report: IterReport) {
        let iter = ctx.iter;
        if let Some((start, end)) = ctx.pf_window.take() {
            let label = format_args!("prefetch iter {iter}");
            self.phase_span(PREFETCH_WINDOW_TRACK, start, end, label);
        }
        let iter_end = self.gpu.sync();
        if let Some(tr) = self.gpu.timeline.tracer_mut() {
            let t = tr.track(SESSION_TRACK);
            let pull = if ctx.last_pull { " (pull)" } else { "" };
            let label = format!("iteration {iter}{pull}");
            let (start, end) = (iter_start.0, iter_end.0);
            tr.enclose(t, ctx.iter_mark, start, end, &label, CAT_PHASE);
        }
        ctx.iter_windows.push((iter_start.0, iter_end.0));
        report.time_ns = iter_end.since(iter_start);
        ctx.per_iter.push(report);
        ctx.iter += 1;
    }

    /// Push selection: split the frontier against the static region, apply
    /// Eq (3), and run the static-region kernel over the resident share —
    /// `ctx.maps.ondemand_nodes` is what is left for the on-demand
    /// pipeline. Returns when that pipeline may start.
    fn select_push<P: VertexProgram>(
        &mut self,
        prog: &P,
        ctx: &mut RunCtx,
        active: &Bitmap,
        state: &P::State,
        next_bits: &AtomicBitmap,
        genmap: Span,
    ) -> SimTime {
        let g = self.g.clone();
        let g = &*g;
        let cfg = self.cfg;
        let bpe = g.bytes_per_edge() as u64;
        let maps = &mut ctx.maps;
        maps.regenerate(g, active, self.region.vertex_bitmap());

        // Eq (3): adaptive re-partition when the on-demand volume
        // overflows a static region its evidence shows under-used.
        if cfg.adaptive {
            let verdict = self.evidence.check(
                maps.ondemand_bytes(bpe),
                maps.static_bytes(bpe),
                maps.active_edges() * bpe,
                self.region.capacity_bytes(),
                self.od_slab.len_bytes(),
                g.edge_bytes(),
            );
            if let Repartition::Shrink(shrink) = verdict {
                let slots = (shrink.bytes as usize).div_ceil(cfg.chunk_bytes).max(1);
                if let Some(tail) = self.region.release_tail_slots(g, slots) {
                    // the donated tail borders the on-demand slab: one
                    // bigger region, re-split, never a smaller extra buffer
                    self.od_slab = tail.join(self.od_slab);
                    self.od_buffers =
                        split_buffers(self.od_slab, cfg.od_buffers, g.words_per_edge());
                    ctx.buffer_free_at
                        .resize(self.od_buffers.len(), SimTime::ZERO);
                    self.gpu.obs.registry.counter_add("repartitions", 1);
                    self.gpu.obs.record(
                        genmap.start.0,
                        Event::Repartition {
                            iter: ctx.iter,
                            static_bytes: self.region.capacity_bytes(),
                            static_share_ppm: shrink.static_share_ppm,
                            region_share_ppm: shrink.region_share_ppm,
                            overflow_bytes: shrink.overflow_bytes,
                        },
                    );
                    // bitmap changed: regenerate the data maps
                    maps.regenerate(g, active, self.region.vertex_bitmap());
                }
            } else if verdict == Repartition::Declined {
                self.obs_counter_add("repartitions.declined", 1);
            }
        }

        // ➌ Static-region compute (overlaps the on-demand pipeline).
        // The kernel event-waits on the prefetch stream's last
        // completion instead of faulting on a half-refreshed region;
        // prefetches are budgeted to land inside the previous
        // iteration's link slack, so the wait never actually stalls.
        if maps.static_nodes.is_empty() {
            return genmap.end;
        }
        let static_ready = genmap.end.max(ctx.prefetch_ready);
        let nodes = &maps.static_nodes;
        let span = self
            .gpu
            .kernel_at(maps.static_edges, nodes.len() as u64, static_ready);
        ctx.breakdown.static_compute_ns += span.duration();
        self.phase_span(
            SESSION_TRACK,
            span.start.0,
            span.end.0,
            "static-region compute",
        );
        let (mem, region) = (&self.gpu.mem, &self.region);
        let weighted = g.is_weighted();
        parallel_for_work(nodes.len(), maps.static_edges, |lane, i| {
            let v = nodes[i];
            region.for_each_vertex_slice(mem, g, v, |words| {
                let edges = EdgeSlice::new(words, weighted);
                ops::advance(prog, lane, v, edges, state, next_bits);
            });
        });
        // In no-overlap mode the whole pipeline waits for the static
        // compute (the Figure 8 "Baseline" lane layout).
        if cfg.overlap {
            genmap.end
        } else {
            span.end
        }
    }

    /// Pull selection: the live targets' in-edge rows of the CSC mirror
    /// are what the on-demand pipeline ships (`ctx.pull_targets`). The
    /// CSR-chunked static region holds out-edges, so pull bypasses it
    /// entirely — no static compute, no hotness updates — and a stale
    /// prefetch plan has nothing to validate against: it is written off as
    /// waste rather than committed against a region nothing will read this
    /// iteration on signals one push iteration old. That
    /// also leaves the deferred queue empty, so the pipeline's gap fill
    /// idles under pull without being told the direction.
    fn select_pull<P: VertexProgram>(
        &mut self,
        prog: &P,
        ctx: &mut RunCtx,
        csc: &Csr,
        active: &Bitmap,
        state: &P::State,
    ) {
        ops::pull_frontier_into(prog, &self.g, active, state, &mut ctx.pull_bits);
        let inflight = ctx.prefetch_inflight.drain(..).map(|(_op, bytes)| bytes);
        let pending = ctx.prefetch_pending.drain(..).map(|(_chunk, bytes)| bytes);
        for bytes in inflight.chain(pending) {
            self.obs_counter_add("prefetch.waste_bytes", bytes);
        }
        ctx.prefetch_deferred.clear();
        ctx.prefetch_ready = SimTime::ZERO;
        ctx.pull_targets.clear();
        ctx.pull_targets.extend(
            ctx.pull_bits
                .iter_ones()
                .map(|v| v as VertexId)
                .filter(|&v| csc.degree(v) > 0),
        );
    }

    /// ➋➍ The on-demand pipeline, the same for both directions: plan
    /// `nodes`' rows of `src` (the CSR under push, the CSC mirror under
    /// pull) into batches that fit the on-demand buffers, then gather →
    /// ship → kernel per batch, starting no earlier than `ready`.
    /// `kernel(batch, payload)` executes one delivered batch on the host
    /// and returns the edge count its simulated kernel is charged for;
    /// host execution runs before the charge because that count can be
    /// data-dependent, and the virtual clock makes the order unobservable.
    fn run_ondemand(
        &mut self,
        ctx: &mut RunCtx,
        src: &Csr,
        nodes: &[VertexId],
        ready: SimTime,
        dir: TraversalDirection,
        kernel: impl Fn(Batch<'_>, &[u32]) -> u64,
    ) -> OdRun {
        let mut od = OdRun::default();
        if nodes.is_empty() {
            return od;
        }
        let min_buffer_words = self.od_buffers.iter().map(|b| b.len).min().unwrap_or(0);
        assert!(
            min_buffer_words > 0,
            "no on-demand buffer but on-demand data exists"
        );
        ctx.plan.plan(src, nodes, min_buffer_words);
        // Issue every batch's CPU gather up front. The spans are
        // identical to in-loop issue (gathers serialize on the CPU
        // engine and depend on nothing downstream of themselves),
        // but knowing when batch k's gather completes tells the
        // prefetch stream exactly how long the link stays idle
        // before batch k's transfer can possibly start.
        let mut gather_ready = ready;
        ctx.gather_spans.clear();
        for batch in ctx.plan.batches() {
            let span = self.gpu.gather_at(
                batch.payload_bytes(),
                batch.entries.len() as u64,
                gather_ready,
            );
            ctx.breakdown.gather_ns += span.duration();
            gather_ready = span.end; // CPU engine serializes anyway
            ctx.gather_spans.push(span);
        }
        let gather_first = ctx.gather_spans.first().map(|s| s.start);
        let gather_last = gather_ready;
        let mut window_end = gather_last;
        // (the plan steps out of `ctx` while its batches are walked: the
        // gap fill below books against the whole of it)
        let plan = std::mem::take(&mut ctx.plan);
        for (bi, batch) in plan.batches().enumerate() {
            let g_span = ctx.gather_spans[bi];
            let buf_idx = bi % self.od_buffers.len();

            // Prefetch gap fill: the link is provably idle until
            // this batch's gather completes, so deferred
            // speculative refreshes ride the second copy stream in
            // that window — an op is issued only when it finishes
            // before the gather does, so no on-demand transfer
            // moves by a nanosecond.
            while let Some(&op) = ctx.prefetch_deferred.front() {
                let bytes = self.geo.chunk_len_bytes(op.chunk()) as u64;
                let dur = self.gpu.config.pcie.transfer_ns(bytes);
                let link_free = self.gpu.timeline.engine_free_at(Engine::Copy);
                if link_free.0 + dur > g_span.end.0 {
                    break; // would push this batch's transfer later
                }
                ctx.prefetch_deferred.pop_front();
                self.issue(ctx, op, link_free, false);
            }

            // H2D transfer of payload + index into this batch's buffer.
            // The hotness table's wire cache is keyed by CSR chunks, so
            // only push — which ships CSR rows — has an estimate to try
            // before encoding; the mirror's rows are encoded outright.
            let dst = self.od_buffers[buf_idx].slice(0, batch.words());
            let ready = g_span.end.max(ctx.buffer_free_at[buf_idx]);
            let estimate = (dir == Push).then_some(|| {
                estimate_batch_wire(&self.g, &self.geo, &mut self.hotness, batch.entries)
            });
            let (t_ns, payload_at) = ship_batch(
                &mut self.gpu,
                src,
                batch,
                dst,
                ready,
                self.encode,
                &mut ctx.scratch,
                estimate,
            );
            ctx.breakdown.transfer_ns += t_ns;
            od.payload += batch.payload_bytes() + batch.index_bytes();

            // OD compute (serializes on the COMPUTE engine after the
            // static kernel automatically)
            let edges = kernel(batch, self.gpu.mem.words(dst));
            let vertices = batch.entries.len() as u64;
            let c_span = match dir {
                Push => self.gpu.kernel_at(edges, vertices, payload_at),
                Pull => self.gpu.pull_kernel_at(edges, vertices, payload_at),
            };
            od.edges += edges;
            ctx.breakdown.ondemand_compute_ns += c_span.duration();
            ctx.buffer_free_at[buf_idx] = c_span.end;
            window_end = window_end.max(c_span.end);
        }
        ctx.plan = plan;
        if let (Some(first), Some(tr)) = (gather_first, self.gpu.timeline.tracer_mut()) {
            let t = tr.track(ONDEMAND_TRACK);
            let pull = if ctx.last_pull { " (pull)" } else { "" };
            let label = format!("on-demand iter {}{pull}", ctx.iter);
            let window = tr.mark();
            tr.span(t, first.0, gather_last.0, "gather", CAT_PHASE);
            tr.enclose(t, window, first.0, window_end.0, &label, CAT_PHASE);
        }
        od
    }

    /// ➏ The push-only phase after the pipeline: score last iteration's
    /// prefetches against this one's demand, commit the gap-issued ones
    /// and plan the next iteration's. A no-op unless prefetch is on —
    /// nothing else reads the hotness table's access history.
    fn prefetch_phase<P: VertexProgram>(
        &mut self,
        prog: &P,
        ctx: &mut RunCtx,
        state: &P::State,
        next: &mut NextFrontier,
    ) {
        if !self.cfg.prefetch.is_on() {
            return;
        }
        let g = self.g.clone();
        let g = &*g;
        let geo = self.geo;
        let iter = ctx.iter;
        self.hotness
            .record_vertices(g, &geo, &ctx.maps.static_nodes, iter);
        self.hotness
            .record_vertices(g, &geo, &ctx.maps.ondemand_nodes, iter);

        // Score the previous iteration's speculative refreshes now that
        // the demand they predicted has materialized: a hit iff the chunk
        // is still resident and this iteration touched it.
        for (c, bytes) in ctx.prefetch_pending.drain(..) {
            if self.region.is_resident(c) && self.hotness.demanded_at(c, iter) {
                self.obs_counter_add("prefetch.hits", 1);
            } else {
                self.obs_counter_add("prefetch.waste_bytes", bytes);
            }
        }

        // ➏ Cross-iteration prefetch: the kernels just wrote the next
        // frontier, so its chunk demand is already known. Speculatively
        // refresh the static region on the second copy stream, budgeted
        // to the link slack left before this iteration's barrier — the
        // transfers hide entirely under work already on the clock, so
        // the iteration's makespan is untouched whether they pay off
        // or not.
        ctx.prefetch_ready = SimTime::ZERO;
        // whatever of last iteration's plan never found a gap dies
        // here, un-issued and free of charge
        ctx.prefetch_deferred.clear();
        let next_frontier = next.snapshot(prog, state);
        if iter + 1 >= prog.max_iterations() || next_frontier.is_all_zero() {
            // no iteration left to refresh for: what the gaps shipped is waste
            for (_op, bytes) in ctx.prefetch_inflight.drain(..) {
                self.obs_counter_add("prefetch.waste_bytes", bytes);
            }
            return;
        }
        // Commit the gap-issued transfers now that every kernel of
        // this iteration is done reading the region. The plan was
        // one iteration old when its wire time was bought, so each
        // commit is re-validated against the *fresh* frontier: a
        // stale op is dropped — its link time was idle slack, its
        // bytes become waste — rather than applied.
        let demand = chunk_demand_bytes(g, &geo, next_frontier);
        for (op, bytes) in ctx.prefetch_inflight.drain(..) {
            let apply = match op {
                PrefetchOp::Load(c) => {
                    !self.region.is_resident(c)
                        && self.region.free_slots() > 0
                        && demand[c as usize] > 0
                }
                PrefetchOp::Swap { evict, load } => {
                    self.region.is_resident(evict)
                        && !self.region.is_resident(load)
                        && demand[load as usize] > demand[evict as usize]
                }
            };
            if apply {
                self.apply(op);
                ctx.prefetch_pending.push((op.chunk(), bytes));
            } else {
                self.obs_counter_add("prefetch.waste_bytes", bytes);
            }
        }
        let link_free = self.gpu.timeline.engine_free_at(Engine::Copy);
        let slack = self.gpu.timeline.now().0.saturating_sub(link_free.0);
        // in chunk-sized DMAs, fixed latency included
        let op_ns = self.gpu.config.pcie.transfer_ns(geo.chunk_bytes as u64);
        let budget = (slack / op_ns.max(1)) as usize;
        let (region, hot) = (&self.region, &mut self.hotness);
        let max_ops = budget + GAP_PLAN_OPS;
        let mut plan = plan_ops(g, &geo, region, hot, &demand, self.encode, max_ops).into_iter();
        // what fits the tail slack ships (and applies) now ...
        for op in plan.by_ref().take(budget) {
            self.issue(ctx, op, link_free, true);
        }
        // ... the remainder waits for link gaps in the next
        // iteration's on-demand pipeline
        ctx.prefetch_deferred.extend(plan);
    }

    /// Close out a run started by `AsceticSession::begin_run`: assemble
    /// the report — the registry's change since the run's base. The device
    /// stays armed as it was built, so a later run keeps recording.
    pub(crate) fn finish_run<P: VertexProgram>(
        &mut self,
        prog: &P,
        state: &P::State,
        mut ctx: RunCtx,
    ) -> RunReport {
        // speculative refreshes still in flight when the frontier drained
        // never got their demand scored: charge them as waste
        for (_c, bytes) in ctx.prefetch_pending.drain(..) {
            self.obs_counter_add("prefetch.waste_bytes", bytes);
        }
        self.gpu.sync();
        let reg = &mut self.gpu.obs.registry;
        reg.gauge_set("region.resident_runs", self.region.resident_runs());
        let report = finish_report(
            "Ascetic",
            prog.name(),
            ctx.iter,
            &mut self.gpu,
            &ctx.base,
            ctx.breakdown,
            ctx.per_iter,
            ctx.iter_windows,
            prog.output(state),
        );
        self.evidence.end_run();
        self.runs += 1;
        report
    }

    /// Execute one program over the session's graph. The first run's report
    /// carries the prestore cost; later runs report zero prestore (the
    /// region is already resident — the paper's amortization point).
    ///
    /// The loop is [`ops::Drive`] — compute → advance (one
    /// `AsceticSession::step_iteration`) → filter, with the multi-phase
    /// handshake when the frontier drains. Multi-phase programs
    /// (betweenness) therefore inherit prefetch, compression and direction
    /// choice with no session changes.
    pub fn run<P: VertexProgram>(&mut self, prog: &P) -> RunReport {
        let state = prog.new_state(&self.g);
        let active = prog.initial_frontier(&self.g);
        self.run_with_state(prog, &state, active)
    }

    /// Execute one program from caller-owned `state` and a caller-chosen
    /// starting frontier — the engine half of incremental repair: the
    /// repair seeds an affected-vertex frontier into converged state and
    /// this re-runs the operator core over it to the new fixed point.
    /// [`AsceticSession::run`] is this with fresh state and the program's
    /// initial frontier.
    pub fn run_with_state<P: VertexProgram>(
        &mut self,
        prog: &P,
        state: &P::State,
        mut active: Bitmap,
    ) -> RunReport {
        let mut next = NextFrontier::new(self.g.num_vertices());
        self.run_frontier(prog, state, &mut active, &mut next)
    }

    /// The run loop behind [`AsceticSession::run_with_state`], on
    /// caller-owned frontier buffers (so tests can count the snapshots the
    /// loop took).
    fn run_frontier<P: VertexProgram>(
        &mut self,
        prog: &P,
        state: &P::State,
        active: &mut Bitmap,
        next: &mut NextFrontier,
    ) -> RunReport {
        assert_eq!(
            self.g.is_weighted(),
            prog.capabilities().weights,
            "graph weighting must match the program"
        );
        let mut ctx = self.begin_run();
        let g = self.g.clone();
        let mut drive = ops::Drive::new(prog, &g, state);
        while drive.begin(active).is_some() {
            self.step_iteration(prog, &mut ctx, active, state, next);
            drive.end(active, next);
        }
        self.finish_run(prog, state, ctx)
    }

    /// Apply one mutation batch to the session's graph *in place*
    /// ([`Csr::apply`]): no arena teardown, no re-prestore. The first batch
    /// copies a borrowed graph once (the caller's stays as it was); from
    /// then on the session patches its own. A rejected batch changes
    /// nothing.
    ///
    /// What happens on the device, per the delta-shipping model:
    /// * resident chunks at or after the patch's first dirty edge are
    ///   rewritten in their slots; chunks past a shrunken edge array are
    ///   evicted (their slots return to the free pool);
    /// * the wire cost is the mutation delta — one record per inserted or
    ///   removed edge plus a header per refreshed chunk — not the refreshed
    ///   chunks' full payload: the device applies the delta with a
    ///   compaction kernel over the resident copies;
    /// * the hotness table keeps its access history (chunk boundaries are
    ///   stable under patching) but drops cached encoded sizes for dirty
    ///   chunks; the CSC mirror, when built, is re-transposed.
    pub fn apply_batch(&mut self, batch: &[Mutation]) -> Result<PatchApply, PatchError> {
        self.g.check_batch(batch)?;
        let patch = self.g.to_mut().apply(batch)?;
        let start = self.gpu.sync();
        let new_geo = ChunkGeometry::with_chunk_bytes(&self.g, self.cfg.chunk_bytes);
        let epc = self.geo.edges_per_chunk;
        let first_dirty_chunk =
            ((patch.first_dirty_edge / epc) as ChunkId).min(new_geo.num_chunks() as ChunkId);
        let rp = self
            .region
            .patch(&mut self.gpu, &self.g, new_geo, first_dirty_chunk);
        self.hotness.resize(new_geo.num_chunks());
        self.hotness.invalidate_wire_from(first_dirty_chunk);
        if self.mirror.is_some() {
            let chunks = GraphChunks::build(&self.g, self.cfg.chunk_bytes);
            self.mirror = Some(Arc::new(chunks));
        }
        self.geo = new_geo;

        // Delta shipping: endpoints-and-weight records for every changed
        // edge, plus a per-refreshed-chunk header. The compaction kernel
        // re-packs the refreshed chunks' resident edges around the delta.
        let wire_bytes = patch.delta_edges() * (self.geo.bytes_per_edge as u64 + 4)
            + rp.refreshed.len() as u64 * PATCH_CHUNK_HEADER_BYTES;
        let mut end = start;
        if wire_bytes > 0 {
            let class = Xfer::MutationDelta;
            let (copy, _) = self.gpu.ship_at(class, wire_bytes, None, start);
            let refreshed_edges = rp.bytes / self.geo.bytes_per_edge as u64;
            if refreshed_edges > 0 {
                let k = self
                    .gpu
                    .kernel_at(refreshed_edges, patch.touched.len() as u64, copy.end);
                end = k.end;
            } else {
                end = copy.end;
            }
        }
        let end = self.gpu.sync().max(end);

        let reg = &mut self.gpu.obs.registry;
        reg.counter_add("mutate.batches", 1);
        reg.counter_add("mutate.inserts", patch.inserts.len() as u64);
        reg.counter_add("mutate.deletes", patch.deletes.len() as u64);
        reg.counter_add("mutate.wire_bytes", wire_bytes);
        reg.counter_add("mutate.refreshed_chunks", rp.refreshed.len() as u64);
        reg.counter_add("mutate.evicted_chunks", rp.evicted.len() as u64);
        self.phase_span(MUTATE_TRACK, start.0, end.0, "mutation patch");
        Ok(PatchApply {
            patch,
            wire_bytes,
            refreshed_chunks: rp.refreshed.len() as u32,
            evicted_chunks: rp.evicted.len() as u32,
            patch_ns: end.since(start),
        })
    }

    /// The patched transpose the session's pull path would read — what
    /// [`ascetic_algos::VertexProgram::repair`] wants for its in-boundary
    /// walk (`None` on push-only sessions: repair falls back to a CSR scan).
    pub(crate) fn mirror_csc(&self) -> Option<&Csr> {
        self.mirror.as_ref().map(|m| &m.csc)
    }

    /// Bump a metrics counter (repair-engine hook; the registry itself is
    /// session-private).
    pub(crate) fn obs_counter_add(&mut self, key: &'static str, v: u64) {
        self.gpu.obs.registry.counter_add(key, v);
    }

    /// Stamp a `[start_ns, end_ns]` phase span on `track` — the one way
    /// the session (and the repair engine, on [`MUTATE_TRACK`]) annotates
    /// the trace beyond the frame's open/close. Zero-length spans (an
    /// empty-seed repair) are skipped; the label is only rendered when a
    /// tracer is armed.
    pub(crate) fn phase_span(
        &mut self,
        track: &str,
        start_ns: u64,
        end_ns: u64,
        label: impl Display,
    ) {
        if end_ns <= start_ns {
            return;
        }
        if let Some(tr) = self.gpu.timeline.tracer_mut() {
            let t = tr.track(track);
            tr.span(t, start_ns, end_ns, &label.to_string(), CAT_PHASE);
        }
    }
}

/// What [`AsceticSession::apply_batch`] changed, shipped and touched.
pub struct PatchApply {
    /// The batch's record ([`Csr::apply`]): what repair seeds from.
    pub patch: GraphPatch,
    /// Bytes the mutation delta put on the link (records + chunk headers).
    pub wire_bytes: u64,
    /// Resident chunks rewritten in place.
    pub refreshed_chunks: u32,
    /// Resident chunks evicted (edge array shrank past them).
    pub evicted_chunks: u32,
    /// Simulated time the patch occupied the device, ns.
    pub patch_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CompressionMode;
    use crate::prefetch::PrefetchMode;
    use ascetic_algos::inmemory::run_in_memory;
    use ascetic_algos::{Bfs, Cc, PageRank, Sssp};
    use ascetic_graph::generators::{uniform_graph, web_graph, WebConfig};
    use ascetic_sim::{DecompressModel, DeviceConfig};

    fn cfg_for(g: &Csr) -> AsceticConfig {
        let dev = DeviceConfig::p100(g.num_vertices() as u64 * 24 + g.edge_bytes() * 2 / 5);
        AsceticConfig::new(dev).with_chunk_bytes(1024)
    }

    /// A device whose decompressor is fast enough for the small test
    /// payloads to cross over (the p100 calibration needs near-MB
    /// transfers).
    fn compress_cfg(g: &Csr, mode: CompressionMode) -> AsceticConfig {
        let mut dev = DeviceConfig::p100(g.num_vertices() as u64 * 24 + g.edge_bytes() * 3 / 5);
        dev.decompress = DecompressModel {
            bandwidth_bps: 200_000_000_000,
            launch_ns: 1_000,
        };
        AsceticConfig::new(dev)
            .with_chunk_bytes(2048)
            .with_compression(mode)
    }

    /// `compress_cfg` under `Adaptive` with a quarter of the link
    /// bandwidth: the wire-form rule ships some on-demand batches encoded
    /// and declines others (with the full link it encodes the prestore and
    /// declines every push batch of the web graphs below).
    fn slow_link_cfg(g: &Csr) -> AsceticConfig {
        let mut cfg = compress_cfg(g, CompressionMode::Adaptive);
        cfg.device.pcie.bandwidth_bps /= 4;
        cfg
    }

    #[test]
    fn session_amortizes_the_prestore() {
        let g = uniform_graph(2_500, 20_000, false, 31);
        let mut session = AsceticSession::new(cfg_for(&g), &g);
        let first = session.run(&Bfs::new(0));
        let second = session.run(&Cc::new());
        let third = session.run(&PageRank::new());
        assert!(first.prestore_bytes > 0, "first run pays the prestore");
        assert_eq!(second.prestore_bytes, 0, "later runs reuse the region");
        assert_eq!(third.prestore_bytes, 0);
        assert_eq!(session.runs(), 3);
        assert!(session.resident_fraction() > 0.0);

        // against three one-shot runs on the same graph, the session saves
        // exactly the two prestores it skips: nothing reshapes the region
        // between runs, so every later run moves what a cold one would
        // after its prestore
        use crate::engine::AsceticSystem;
        use crate::system::OutOfCoreSystem;
        let sys = AsceticSystem::new(cfg_for(&g));
        let one_shot = [
            sys.run(&g, &Bfs::new(0)),
            sys.run(&g, &Cc::new()),
            sys.run(&g, &PageRank::new()),
        ];
        let (warm, cold) = ([&first, &second, &third], one_shot.each_ref());
        assert!(warm.iter().chain(&cold).all(|r| r.repartitions == 0));
        let bytes =
            |rs: &[&RunReport]| -> u64 { rs.iter().map(|r| r.total_bytes_with_prestore()).sum() };
        let ns = |rs: &[&RunReport]| -> u64 { rs.iter().map(|r| r.sim_time_ns).sum() };
        let skipped = cold[1].prestore_bytes + cold[2].prestore_bytes;
        assert!(skipped > 0);
        assert_eq!(bytes(&warm), bytes(&cold) - skipped);
        assert!(ns(&warm) < ns(&cold));
    }

    #[test]
    fn session_runs_match_oracles() {
        let g = uniform_graph(2_000, 16_000, false, 32);
        let mut session = AsceticSession::new(cfg_for(&g), &g);
        let bfs = session.run(&Bfs::new(0));
        assert_eq!(bfs.output, run_in_memory(&g, &Bfs::new(0)).output);
        let cc = session.run(&Cc::new());
        assert_eq!(cc.output, run_in_memory(&g, &Cc::new()).output);
        let pr = session.run(&PageRank::new());
        assert_eq!(pr.output, run_in_memory(&g, &PageRank::new()).output);
    }

    #[test]
    fn per_run_counters_are_deltas() {
        let g = uniform_graph(2_000, 16_000, false, 33);
        let mut session = AsceticSession::new(cfg_for(&g), &g);
        let a = session.run(&Bfs::new(0));
        let b = session.run(&Bfs::new(0));
        // identical workloads with a warm region: the second run's counters
        // must be its own, not cumulative
        assert!(b.xfer.h2d_bytes <= a.xfer.h2d_bytes + g.edge_bytes() / 10);
        assert!(b.kernels.launches <= a.kernels.launches * 2);
        // and it runs at least as fast (no prestore time)
        assert!(b.sim_time_ns <= a.sim_time_ns);
    }

    #[test]
    fn metrics_and_events_are_per_run() {
        use ascetic_obs::MetricValue;
        let g = uniform_graph(2_000, 16_000, false, 35);
        let batch: Vec<Mutation> = (0..20u32)
            .map(|i| Mutation::Insert {
                src: i * 7,
                dst: i * 13 + 1,
                weight: None,
            })
            .collect();
        let cfg = cfg_for(&g).with_prefetch(PrefetchMode::NextFrontier);
        let mut session = AsceticSession::new(cfg, &g);
        let registry = |s: &AsceticSession| s.gpu.obs.registry.snapshot();
        // What lets the first run be measured from an empty registry: all
        // the setup counted is the prestore (the gauge passes through a
        // diff as it is).
        let fresh = registry(&session);
        let names: Vec<&str> = fresh.iter().map(|(name, _)| name).collect();
        let setup = [
            "mem.high_water_bytes",
            "prestore.bytes",
            "prestore.wire_bytes",
        ];
        assert_eq!(names, setup);

        let a = session.run(&Bfs::new(0));
        assert!(a.prestore_bytes > 0 && a.prestore_wire_bytes > 0);
        assert_eq!(a.metrics.counter("prestore.bytes"), Some(a.prestore_bytes));
        assert_eq!(a.metrics.counter("iterations"), Some(a.iterations as u64));
        assert_eq!(a.metrics.label("system"), Some("Ascetic"));
        assert_eq!(a.metrics.label("algo"), Some("BFS"));
        // the setup's allocator climb is the first run's, as its
        // prestore is
        let high_water = |r: &RunReport| r.events.iter().any(|e| e.event.kind() == "high_water");
        assert!(
            high_water(&a),
            "first run owns the setup's high-water marks"
        );

        let b = session.run(&Cc::new());
        assert!(!high_water(&b));

        // a patch lands between runs: its traffic is nobody's run
        let before = registry(&session);
        let pa = session.apply_batch(&batch).expect("valid inserts");
        let patched = registry(&session).diff(&before);
        assert_eq!(patched.counter("mutate.wire_bytes"), Some(pa.wire_bytes));
        assert_eq!(patched.counter("xfer.h2d_wire_bytes"), Some(pa.wire_bytes));
        let c = session.run(&Bfs::new(0));
        assert_eq!(c.metrics.counter("mutate.wire_bytes"), Some(0));

        // the prestore is the first run's alone
        for warm in [&b, &c] {
            assert_eq!((warm.prestore_bytes, warm.prestore_wire_bytes), (0, 0));
            assert_eq!(warm.metrics.counter("prestore.bytes"), Some(0));
            assert_eq!(warm.prestore_ns, 0);
        }
        // Every counter and histogram the device holds is the sum of what
        // each run reported plus the patch: nothing is counted twice,
        // nothing falls between two runs.
        let mut sum = a.metrics.clone();
        for part in [&b.metrics, &patched, &c.metrics] {
            sum.merge(part);
        }
        let sum: std::collections::BTreeMap<&str, &MetricValue> = sum.iter().collect();
        let cumulative = registry(&session);
        assert!(cumulative.counter("prefetch.ops") > Some(0));
        for (name, total) in cumulative.iter() {
            if !matches!(total, MetricValue::Gauge(_)) {
                assert_eq!(sum.get(name), Some(&total), "{name}");
            }
        }
    }

    #[test]
    fn compressed_runs_match_oracles_and_save_wire_bytes() {
        let g = web_graph(&WebConfig::new(4_000, 60_000, 3));
        for (link, cfg) in [
            ("full", compress_cfg(&g, CompressionMode::Adaptive)),
            ("slow", slow_link_cfg(&g)),
        ] {
            let r = AsceticSession::new(cfg, &g).run(&Bfs::new(0));
            assert_eq!(
                r.output,
                run_in_memory(&g, &Bfs::new(0)).output,
                "{link} link output"
            );
            assert!(
                r.total_wire_bytes_with_prestore() < r.total_bytes_with_prestore(),
                "{link} link: must put fewer bytes on the wire"
            );
            assert!(
                r.prestore_wire_bytes < r.prestore_bytes,
                "{link} link: must ship the bulk prestore encoded"
            );
            if link == "slow" {
                // both arms of the one rule, on the on-demand batches
                assert!(r.metrics.counter("compress.transfers").unwrap_or(0) > 0);
                assert!(r.metrics.counter("compress.declined").unwrap_or(0) > 0);
            }
        }
    }

    #[test]
    fn adaptive_compression_never_slows_a_run() {
        let g = web_graph(&WebConfig::new(4_000, 60_000, 3));
        let off =
            AsceticSession::new(compress_cfg(&g, CompressionMode::Off), &g).run(&PageRank::new());
        let ad = AsceticSession::new(compress_cfg(&g, CompressionMode::Adaptive), &g)
            .run(&PageRank::new());
        assert_eq!(off.output, ad.output);
        assert!(
            ad.sim_time_ns <= off.sim_time_ns,
            "adaptive ({}) must not lose to raw ({})",
            ad.sim_time_ns,
            off.sim_time_ns
        );
        assert!(ad.total_wire_bytes_with_prestore() <= off.total_wire_bytes_with_prestore());
        // decoded-payload accounting is identical across modes
        assert_eq!(off.xfer.h2d_bytes, ad.xfer.h2d_bytes);
        assert_eq!(off.prestore_bytes, ad.prestore_bytes);
    }

    #[test]
    fn weighted_payloads_always_ship_raw() {
        use ascetic_graph::datasets::{Dataset, DatasetId};
        let g = Dataset::build(DatasetId::Fk, 10_000).weighted();
        let mut s = AsceticSession::new(slow_link_cfg(&g), &g);
        let r = s.run(&Sssp::new(0));
        assert_eq!(r.output, run_in_memory(&g, &Sssp::new(0)).output);
        assert_eq!(r.xfer.h2d_wire_bytes, r.xfer.h2d_bytes);
        assert_eq!(r.prestore_wire_bytes, r.prestore_bytes);
        assert_eq!(r.metrics.counter("compress.transfers").unwrap_or(0), 0);
    }

    #[test]
    fn prefetch_never_changes_results_and_accounts_its_bytes() {
        let g = web_graph(&WebConfig::new(4_000, 60_000, 3));
        let oracle = run_in_memory(&g, &Bfs::new(0)).output;
        let off = AsceticSession::new(cfg_for(&g), &g).run(&Bfs::new(0));
        assert_eq!(off.prefetch_ops, 0, "off mode never speculates");
        assert_eq!(off.xfer.h2d_prefetch_bytes, 0);
        let mode = PrefetchMode::NextFrontier;
        let r = AsceticSession::new(cfg_for(&g).with_prefetch(mode), &g).run(&Bfs::new(0));
        assert_eq!(r.output, oracle, "{mode}: prefetch must not change results");
        // What holds by construction is that prefetch transfers hide
        // in link slack (no on-demand transfer moves) and that the
        // exact-demand policy never evicts a chunk the *next*
        // iteration needs. Neither promises a shorter run: a swap
        // still trades a chunk of the contiguous prefix for one
        // elsewhere, and iterations after the next pay for the hole in
        // on-demand ops. While `Off` still meant "reactive swaps on
        // the link" NextFrontier never lost to it; against a region
        // nothing reshapes it does here (1 426 923 vs 1 410 314 ns,
        // +1.2 %) — recorded in DESIGN.md §19, not asserted away.
        // speculative traffic is accounted as a subset of H2D
        assert!(r.prefetch_bytes > 0, "{mode}");
        assert!(r.xfer.h2d_prefetch_bytes <= r.xfer.h2d_bytes, "{mode}");
        assert!(r.prefetch_hits <= r.prefetch_ops, "{mode}");
        assert!(r.prefetch_wasted_bytes <= r.prefetch_bytes, "{mode}");
    }

    #[test]
    fn next_frontier_prefetch_fires_and_hits() {
        let g = web_graph(&WebConfig::new(4_000, 60_000, 3));
        let cfg = cfg_for(&g).with_prefetch(PrefetchMode::NextFrontier);
        let r = AsceticSession::new(cfg, &g).run(&Bfs::new(0));
        assert!(r.prefetch_ops > 0, "oversubscribed BFS must prefetch");
        assert!(
            r.prefetch_hit_rate() > 0.5,
            "next-frontier demand is near-exact, got {:.2} over {} ops",
            r.prefetch_hit_rate(),
            r.prefetch_ops
        );
    }

    #[test]
    fn span_trace_idle_agrees_with_fig8_counters() {
        let g = uniform_graph(2_000, 16_000, false, 36);
        let mut s = AsceticSession::new(cfg_for(&g).with_tracing(true), &g);
        let r = s.run(&Bfs::new(0));
        let trace = r.span_trace.as_ref().expect("tracing armed");
        // the compute track's busy time over the run window must equal the
        // timeline's Fig-8 accounting exactly: idle = makespan - busy
        let gpu_track = trace
            .track_index(Engine::Compute.name())
            .expect("compute track exists");
        let busy = trace.busy_ns(gpu_track, 0, r.sim_time_ns);
        assert_eq!(r.sim_time_ns - r.gpu_idle_ns, busy);
        // every iteration got a utilization window, consistent within itself
        assert_eq!(r.utilization.len(), r.per_iter.len());
        for u in &r.utilization {
            assert!(u.end_ns > u.start_ns);
            assert!(u.link_busy_ns <= u.window_ns());
            assert!(u.compute_busy_ns <= u.window_ns());
            assert!(u.overlap_ns <= u.link_busy_ns.min(u.compute_busy_ns));
        }
        // the session phase tracks carry spans
        let session_track = trace.track_index(SESSION_TRACK).expect("session track");
        assert!(trace.track_spans(session_track).count() > r.per_iter.len());
        // warm runs re-arm the tracer and window on the warm clock
        let warm = s.run(&Cc::new());
        let wt = warm.span_trace.as_ref().expect("tracer re-armed");
        assert!(wt.spans().iter().all(|sp| sp.name != "static staging"));
        assert_eq!(warm.utilization.len(), warm.per_iter.len());
        let w0 = warm.utilization.first().expect("warm run iterates");
        let gpu_track = wt.track_index(Engine::Compute.name()).unwrap();
        assert!(wt.busy_ns(gpu_track, w0.start_ns, w0.end_ns) == w0.compute_busy_ns);
    }

    #[test]
    fn session_matches_one_shot_system() {
        use crate::engine::AsceticSystem;
        use crate::system::OutOfCoreSystem;
        let g = uniform_graph(1_500, 12_000, false, 34);
        let one_shot = AsceticSystem::new(cfg_for(&g)).run(&g, &PageRank::new());
        let mut session = AsceticSession::new(cfg_for(&g), &g);
        let first = session.run(&PageRank::new());
        assert_eq!(one_shot.output, first.output);
        assert_eq!(one_shot.xfer, first.xfer);
        assert_eq!(one_shot.sim_time_ns, first.sim_time_ns);
        assert_eq!(one_shot.prestore_bytes, first.prestore_bytes);
    }

    #[test]
    fn forced_pull_runs_match_oracles() {
        let g = uniform_graph(2_000, 16_000, false, 37);
        let cfg = cfg_for(&g).with_direction(DirectionMode::Pull);
        let mut s = AsceticSession::new(cfg, &g);
        let bfs = s.run(&Bfs::new(0));
        assert_eq!(bfs.output, run_in_memory(&g, &Bfs::new(0)).output);
        assert!(bfs.per_iter.iter().all(|i| i.pull), "every iteration pulls");
        let cc = s.run(&Cc::new());
        assert_eq!(cc.output, run_in_memory(&g, &Cc::new()).output);
        let pr = s.run(&PageRank::new());
        assert_eq!(pr.output, run_in_memory(&g, &PageRank::new()).output);
    }

    /// A source feeding a dense hub clique with a tiny tail hanging off
    /// one hub: after the clique level is visited, the frontier's out-edge
    /// volume is enormous while the unvisited tail's in-edge volume is
    /// tiny — exactly the dense mid-phase where pull must win.
    fn clique_tail_graph() -> Csr {
        use ascetic_graph::GraphBuilder;
        let m = 100usize;
        let tails = 10usize;
        let mut b = GraphBuilder::new(1 + m + tails);
        for h in 1..=m {
            b.add_edge(0, h as VertexId);
        }
        for u in 1..=m {
            for v in 1..=m {
                if u != v {
                    b.add_edge(u as VertexId, v as VertexId);
                }
            }
        }
        for t in 0..tails {
            b.add_edge(1, (1 + m + t) as VertexId);
        }
        b.build()
    }

    #[test]
    fn adaptive_matches_push_outputs_and_ships_fewer_wire_bytes_on_bfs() {
        let g = clique_tail_graph();
        let push = AsceticSession::new(cfg_for(&g), &g).run(&Bfs::new(0));
        let cfg = cfg_for(&g).with_direction(DirectionMode::Adaptive);
        let adaptive = AsceticSession::new(cfg, &g).run(&Bfs::new(0));
        assert_eq!(
            adaptive.output, push.output,
            "direction never changes results"
        );
        assert!(
            adaptive.per_iter.iter().any(|i| i.pull),
            "the dense mid-phase must pull"
        );
        assert_eq!(
            adaptive.metrics.counter("direction.pull_iters"),
            Some(adaptive.per_iter.iter().filter(|i| i.pull).count() as u64)
        );
        assert!(
            adaptive.xfer.h2d_wire_bytes < push.xfer.h2d_wire_bytes,
            "adaptive must reduce on-demand wire traffic: {} vs {}",
            adaptive.xfer.h2d_wire_bytes,
            push.xfer.h2d_wire_bytes
        );
    }

    #[test]
    fn adaptive_matches_oracles_for_cc_and_pr() {
        let g = web_graph(&WebConfig::new(3_000, 40_000, 5));
        let cfg = cfg_for(&g).with_direction(DirectionMode::Adaptive);
        let mut s = AsceticSession::new(cfg, &g);
        let cc = s.run(&Cc::new());
        assert_eq!(cc.output, run_in_memory(&g, &Cc::new()).output);
        let pr = s.run(&PageRank::new());
        assert_eq!(pr.output, run_in_memory(&g, &PageRank::new()).output);
    }

    #[test]
    fn adaptive_never_chooses_pull_for_push_only_programs() {
        use ascetic_graph::datasets::weighted_variant;
        let g = weighted_variant(&uniform_graph(1_500, 12_000, false, 38));
        let cfg = cfg_for(&g).with_direction(DirectionMode::Adaptive);
        let r = AsceticSession::new(cfg, &g).run(&Sssp::new(0));
        assert_eq!(r.output, run_in_memory(&g, &Sssp::new(0)).output);
        assert!(r.per_iter.iter().all(|i| !i.pull), "SSSP stays push");
    }

    #[test]
    fn forced_pull_on_push_only_program_is_rejected_at_build_time() {
        use crate::config::ConfigError;
        use ascetic_algos::AlgoError;
        use ascetic_graph::datasets::weighted_variant;
        let g = weighted_variant(&uniform_graph(1_000, 8_000, false, 39));
        let cfg = cfg_for(&g).with_direction(DirectionMode::Pull);
        // validation rejects the combination with a typed error...
        let prog = Sssp::new(0);
        let err = cfg
            .validate_algo(prog.capabilities(), prog.name())
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::Algo(AlgoError::PullUnsupported { algo: "SSSP" })
        );
        assert!(err.to_string().contains("push-only"), "{err}");
        // ...and a session handed the invalid config anyway degrades to
        // push instead of panicking mid-run
        let r = AsceticSession::new(cfg, &g).run(&prog);
        assert!(r.per_iter.iter().all(|i| !i.pull));
        assert_eq!(r.output, run_in_memory(&g, &Sssp::new(0)).output);
    }

    #[test]
    fn pull_runs_with_compression_match_oracles() {
        let g = web_graph(&WebConfig::new(4_000, 60_000, 3));
        for (link, cfg) in [
            ("full", compress_cfg(&g, CompressionMode::Adaptive)),
            ("slow", slow_link_cfg(&g)),
        ] {
            let r =
                AsceticSession::new(cfg.with_direction(DirectionMode::Pull), &g).run(&Bfs::new(0));
            assert_eq!(
                r.output,
                run_in_memory(&g, &Bfs::new(0)).output,
                "{link} link pull output"
            );
            if link == "slow" {
                assert!(r.metrics.counter("compress.transfers").unwrap_or(0) > 0);
            }
        }
    }

    #[test]
    fn adaptive_with_prefetch_matches_push_outputs() {
        let g = web_graph(&WebConfig::new(3_000, 40_000, 4));
        let base = cfg_for(&g).with_prefetch(PrefetchMode::NextFrontier);
        let push = AsceticSession::new(base, &g).run(&Bfs::new(0));
        let cfg = cfg_for(&g)
            .with_prefetch(PrefetchMode::NextFrontier)
            .with_direction(DirectionMode::Adaptive);
        let adaptive = AsceticSession::new(cfg, &g).run(&Bfs::new(0));
        assert_eq!(adaptive.output, push.output);
    }

    #[test]
    fn every_path_snapshots_the_next_frontier_once_per_iteration() {
        // The default path has no planner that looks at the next frontier
        // (it used to snapshot it anyway, twice); prefetch, direction
        // choice and pull each look at it mid-step. However they combine,
        // the run loop must copy the bitmap out exactly once an iteration.
        let g = web_graph(&WebConfig::new(3_000, 40_000, 4));
        let prefetch = PrefetchMode::NextFrontier;
        for (what, cfg) in [
            ("default", cfg_for(&g)),
            ("prefetch", cfg_for(&g).with_prefetch(prefetch)),
            (
                "adaptive",
                cfg_for(&g).with_direction(DirectionMode::Adaptive),
            ),
            ("pull", cfg_for(&g).with_direction(DirectionMode::Pull)),
            (
                "prefetch + adaptive",
                cfg_for(&g)
                    .with_prefetch(prefetch)
                    .with_direction(DirectionMode::Adaptive),
            ),
        ] {
            let mut session = AsceticSession::new(cfg, &g);
            for prog in [Bfs::new(0), Bfs::new(17)] {
                let state = prog.new_state(&g);
                let mut active = prog.initial_frontier(&g);
                let mut next = NextFrontier::new(g.num_vertices());
                let r = session.run_frontier(&prog, &state, &mut active, &mut next);
                assert!(r.iterations > 3, "{what}: a multi-level BFS");
                assert_eq!(
                    next.snapshots_taken(),
                    u64::from(r.iterations),
                    "{what}: snapshots per iteration"
                );
                assert_eq!(r.output, run_in_memory(&g, &prog).output, "{what}");
            }
        }
    }

    /// Drive `prog` to its fixed point through `ctx` the way
    /// `run_frontier` does, calling `after_step` once per iteration.
    fn step_to_fixed_point(
        s: &mut AsceticSession,
        ctx: &mut RunCtx,
        prog: &Bfs,
        mut after_step: impl FnMut(&RunCtx),
    ) {
        let state = prog.new_state(&s.g);
        let mut active = prog.initial_frontier(&s.g);
        let mut next = NextFrontier::new(s.g.num_vertices());
        while !active.is_all_zero() {
            ops::compute(prog, ctx.iter, &active, &state);
            s.step_iteration(prog, ctx, &active, &state, &mut next);
            next.finish(prog, &state, &mut active);
            after_step(ctx);
        }
    }

    #[test]
    fn a_pull_iteration_writes_off_the_prefetch_plan_and_issues_no_prefetch_dma() {
        // why the pipeline's gap fill needs no direction branch: pull
        // selection leaves it nothing to issue
        let g = web_graph(&WebConfig::new(3_000, 40_000, 4));
        let cfg = cfg_for(&g)
            .with_prefetch(PrefetchMode::NextFrontier)
            .with_direction(DirectionMode::Pull);
        let mut s = AsceticSession::new(cfg, &g);
        let mut ctx = s.begin_run();
        // a plan a previous push iteration would have left behind
        ctx.prefetch_deferred
            .extend([PrefetchOp::Load(0), PrefetchOp::Load(1)]);
        ctx.prefetch_inflight.push((PrefetchOp::Load(2), 700));
        ctx.prefetch_pending.push((3, 300));
        let prog = Bfs::new(0);
        step_to_fixed_point(&mut s, &mut ctx, &prog, |ctx| {
            assert!(ctx.per_iter.last().unwrap().pull);
            assert!(ctx.prefetch_deferred.is_empty());
            assert!(ctx.prefetch_inflight.is_empty() && ctx.prefetch_pending.is_empty());
        });
        let counted = |s: &AsceticSession, name| s.gpu.obs.registry.counter(name).unwrap_or(0);
        // in-flight + pending bytes, written off by the first iteration
        assert_eq!(counted(&s, "prefetch.waste_bytes"), 1_000);
        assert_eq!(counted(&s, "prefetch.ops"), 0, "no gap fill under pull");
        let r = s.finish_run(&prog, &prog.new_state(&g), ctx);
        assert_eq!(r.xfer.h2d_prefetch_bytes, 0);
        assert_eq!(r.prefetch_wasted_bytes, 1_000);
    }

    #[test]
    fn an_eq3_donation_never_lowers_batch_capacity() {
        // Two islands: the front-filled static region holds the first,
        // which a BFS inside the second never touches — a whole run of
        // that is evidence, so the replay's first overflowing frontier
        // shrinks the region.
        let (half, deg) = (1_500u32, 8u32);
        let mut b = ascetic_graph::GraphBuilder::new(2 * half as usize);
        for v in 0..2 * half {
            let (base, local) = (v / half * half, v % half);
            for i in 0..deg {
                b.add_edge(v, base + (local * 31 + i * 17 + 1) % half);
            }
        }
        let g = b.build();
        let prog = Bfs::new(half);
        let oracle = run_in_memory(&g, &prog).output;
        let min_words = |s: &AsceticSession| s.od_buffers.iter().map(|b| b.len).min().unwrap();
        for od_buffers in [1, 2] {
            let cfg = cfg_for(&g).with_od_buffers(od_buffers);
            let mut s = AsceticSession::new(cfg, &g);
            let (before, slab_before) = (min_words(&s), s.od_slab.len);
            let first = s.run(&prog);
            assert_eq!(first.repartitions, 0, "a run in progress is not evidence");
            assert!(first.metrics.counter("repartitions.declined") > Some(0));
            let r = s.run(&prog);
            assert_eq!(r.output, oracle);
            assert_eq!(
                r.repartitions, 1,
                "persistent under-use shrinks, once a run"
            );
            // the event says why: a region holding a third of the data
            // served nothing, and the frontier did not fit beside it
            let fired = r.events.iter().find_map(|e| match e.event {
                Event::Repartition {
                    static_share_ppm,
                    region_share_ppm,
                    overflow_bytes,
                    ..
                } => Some((static_share_ppm, region_share_ppm, overflow_bytes)),
                _ => None,
            });
            let (served, held, overflow) = fired.expect("a repartition event");
            assert_eq!(served, 0);
            assert!(
                (250_000..400_000).contains(&held),
                "region share {held} ppm"
            );
            assert!(overflow > 0);
            assert_eq!(r.metrics.gauge("region.resident_runs"), Some(1));
            assert_eq!(s.od_buffers.len(), od_buffers, "the split is the config's");
            assert!(s.od_slab.len > slab_before, "the donation joined the slab");
            assert!(
                min_words(&s) > before,
                "{od_buffers} buffer(s): batches are planned to the smallest \
                 buffer, which a donation must only ever grow"
            );
        }
    }

    #[test]
    fn warm_iterations_recycle_every_host_buffer() {
        // Capacity stability stands in for "step_iteration allocates
        // nothing": a second identical BFS through the same `RunCtx` must
        // find every recycled buffer already at its high-water size.
        // (`per_iter` / `iter_windows` are the report and grow by design.)
        fn capacities(ctx: &RunCtx) -> [usize; 10] {
            [
                ctx.maps.static_nodes.capacity(),
                ctx.maps.ondemand_nodes.capacity(),
                ctx.plan.capacity(),
                ctx.gather_spans.capacity(),
                ctx.pull_bits.words().len(),
                ctx.pull_targets.capacity(),
                ctx.scratch.capacity(),
                ctx.prefetch_pending.capacity(),
                ctx.prefetch_deferred.capacity(),
                ctx.prefetch_inflight.capacity(),
            ]
        }
        let g = web_graph(&WebConfig::new(3_000, 40_000, 4));
        // (residency does not drift between the two passes: nothing but
        // prefetch, off here, changes the region after the prestore)
        let base = slow_link_cfg(&g);
        for (what, cfg) in [
            ("push", base),
            ("forced pull", base.with_direction(DirectionMode::Pull)),
        ] {
            let mut s = AsceticSession::new(cfg, &g);
            let prog = Bfs::new(0);
            let mut ctx = s.begin_run();
            step_to_fixed_point(&mut s, &mut ctx, &prog, |_| {});
            let warm = capacities(&ctx);
            assert!(warm[2] > 0 && warm[6] > 0, "{what}: the pipeline ran");
            step_to_fixed_point(&mut s, &mut ctx, &prog, |ctx| {
                assert_eq!(capacities(ctx), warm, "{what}: iteration {}", ctx.iter);
            });
        }
    }
}
