//! PageRank (push-based residual / "delta" formulation).
//!
//! Classic pull PageRank touches every edge every iteration; the out-of-core
//! systems of the paper run the *push residual* variant in which only
//! vertices holding enough un-propagated mass are active. This matches the
//! paper's Table 1 (PR active-edge ratio 25–29 %, decaying over a ~43
//! iteration run on friendster-konect).
//!
//! Formulation: each vertex `v` carries `rank(v)` and `residual(v)`;
//! initially `rank = 0`, `residual = (1-d)/n`, everyone active. An active
//! vertex claims its residual `r` (once per iteration, in
//! [`VertexProgram::compute`], so split edge delivery cannot
//! double-claim), retires it into `rank`, and pushes `d·r/deg(v)` along
//! every out-edge. A target crossing the threshold `ε` activates. At
//! termination every vertex's rank satisfies the PageRank equation to
//! within `ε·|V|` total mass. Dangling mass (out-degree 0) is retired
//! without redistribution, the convention Subway-style push systems use.
//!
//! **Determinism**: residual/rank arithmetic is 2⁻⁴⁰ fixed-point in
//! `AtomicU64`. Integer adds commute and associate exactly, so a vertex's
//! residual after an iteration is the same number wherever its
//! contributions were summed on the way — and that is what lets the push
//! scatter skip the shared array altogether: each worker accumulates into
//! a private *lane* of per-vertex deltas (a plain load and store per edge,
//! no locked read-modify-write, no cache line shared between cores), and
//! [`VertexProgram::settle`] folds the lanes into `residual` once, at the
//! frontier seam. Activation is decided there, on the settled sum: a
//! vertex joins the next frontier iff its residual went from below `ε` to
//! at or above it over the iteration. Residuals only grow between two
//! claims, so exactly one increment — a settle, or a direct add on one of
//! the paths that bypass the lanes — observes the crossing, whichever
//! order the increments land in. Results and activation sets are therefore
//! bit-identical regardless of thread count, interleaving, or how the
//! contributions were split over lanes; floats would make frontier sizes
//! (and thus simulated times) racy.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

use ascetic_graph::{Csr, GraphPatch, VertexId};
use ascetic_par::{current_num_threads, parallel_for_work, AtomicBitmap, Bitmap};

use crate::incremental::RepairPlan;
use crate::traits::{AlgoOutput, Capabilities, EdgeSlice, VertexProgram};

/// Fixed-point scale: 2^40 units per 1.0 of rank mass.
const SCALE: u64 = 1 << 40;

/// PageRank with damping `d` and activation threshold `ε`.
#[derive(Clone, Copy, Debug)]
pub struct PageRank {
    /// Damping factor (paper-standard 0.85).
    pub damping: f64,
    /// Activation threshold as a fraction of the initial per-vertex
    /// residual `(1-d)/n`; smaller → more iterations. The default `1e-3`
    /// reproduces run lengths in the ballpark of the paper's 43 iterations
    /// on friendster-konect.
    pub eps_frac: f64,
    /// Hard iteration cap.
    pub max_iters: u32,
}

impl Default for PageRank {
    fn default() -> Self {
        PageRank {
            damping: 0.85,
            eps_frac: 1e-3,
            max_iters: 500,
        }
    }
}

impl PageRank {
    /// PageRank with the standard damping of 0.85.
    pub fn new() -> Self {
        Self::default()
    }

    /// Override the convergence threshold fraction.
    pub fn with_eps_frac(mut self, f: f64) -> Self {
        assert!(f > 0.0 && f <= 1.0, "eps_frac must be in (0, 1]");
        self.eps_frac = f;
        self
    }
}

/// PageRank per-vertex state (fixed-point).
pub struct PrState {
    /// Retired rank mass, 2^-40 units.
    rank: Vec<AtomicU64>,
    /// Un-propagated residual mass, 2^-40 units.
    residual: Vec<AtomicU64>,
    /// Residual claimed by the current iteration (set in
    /// `compute`; read-only during kernels).
    claimed: Vec<AtomicU64>,
    /// Out-degrees (a vertex's edges may arrive in pieces, so the degree
    /// cannot be inferred from slice length).
    degree: Vec<u32>,
    /// Damping in 2^-40 fixed-point.
    damping_fx: u64,
    /// Activation threshold in 2^-40 units.
    eps_fx: u64,
    /// One residual-delta lane per worker the run was sized for, each
    /// allocated the first time its worker scatters (a 1-thread or
    /// all-inline run pays for one). A worker index past the end — the
    /// thread count was raised mid-run — scatters straight into `residual`.
    lanes: Vec<OnceLock<Lane>>,
}

/// Vertices per dirty flag: 64 deltas, eight cache lines.
const BLOCK: usize = 64;
/// Vertices per [`DirtyLine`] — the unit `settle` is split by.
const GROUP: usize = BLOCK * 64;

/// One cache line of dirty flags, aligned so that no line is ever shared
/// with another lane's flags (or anything else another core writes): the
/// scatter stores a flag per edge, and a shared line would bounce on
/// every one of them.
#[repr(align(64))]
struct DirtyLine([AtomicBool; GROUP / BLOCK]);

/// One worker's pending residual mass. Between two settles only the worker
/// holding the lane touches it ([`parallel_for_work`]'s lane contract), so
/// every access is a plain load or store; the atomics are there for
/// `Sync`, not for ordering.
struct Lane {
    /// Un-settled contributions per vertex, 2^-40 units.
    delta: Vec<AtomicU64>,
    /// One flag per [`BLOCK`] of `delta` that may hold a non-zero entry, so
    /// a settle folds what the iteration scattered to, not |V|.
    dirty: Vec<DirtyLine>,
}

impl Lane {
    fn new(n: usize) -> Lane {
        Lane {
            delta: (0..n).map(|_| AtomicU64::new(0)).collect(),
            dirty: (0..n.div_ceil(GROUP))
                .map(|_| DirtyLine(std::array::from_fn(|_| AtomicBool::new(false))))
                .collect(),
        }
    }

    /// The flag covering `delta[block * BLOCK..][..BLOCK]`.
    #[inline]
    fn dirty_flag(&self, block: usize) -> &AtomicBool {
        const LINE: usize = GROUP / BLOCK;
        &self.dirty[block / LINE].0[block % LINE]
    }

    /// Park `contrib` for every target of `edges`.
    #[inline]
    fn scatter(&self, edges: EdgeSlice<'_>, contrib: u64) {
        edges.for_each_target(|t| {
            let t = t as usize;
            let d = &self.delta[t];
            d.store(d.load(Ordering::Relaxed) + contrib, Ordering::Relaxed);
            self.dirty_flag(t / BLOCK).store(true, Ordering::Relaxed);
        });
    }
}

impl PrState {
    fn live_lanes(&self) -> impl Iterator<Item = &Lane> {
        self.lanes.iter().filter_map(OnceLock::get)
    }

    /// Blocks of deltas, over all lanes, waiting for a settle.
    fn parked_blocks(&self) -> usize {
        self.live_lanes()
            .flat_map(|l| &l.dirty)
            .flat_map(|line| &line.0)
            .filter(|flag| flag.load(Ordering::Relaxed))
            .count()
    }

    /// Add `amount` to `v`'s residual while other threads may be adding to
    /// it too (one locked RMW), activating `v` iff this increment is the
    /// one that crosses `ε`.
    #[inline]
    fn deposit(&self, v: usize, amount: u64, next: &AtomicBitmap) {
        let old = self.residual[v].fetch_add(amount, Ordering::Relaxed);
        self.activate_on_crossing(v, old, amount, next);
    }

    /// Exactly-once activation: residuals only grow between claims, so of
    /// all the increments a vertex receives one at most sees `old` below
    /// the threshold and `old + amount` at or above it.
    #[inline]
    fn activate_on_crossing(&self, v: usize, old: u64, amount: u64, next: &AtomicBitmap) {
        if old < self.eps_fx && old + amount >= self.eps_fx {
            next.set(v);
        }
    }

    /// Fold every lane's deltas for the vertices of dirty line `group`
    /// into `residual`, leaving those deltas and flags clear.
    fn settle_group(&self, group: usize, next: &AtomicBitmap) {
        let n = self.residual.len();
        for base in (group * GROUP..n.min((group + 1) * GROUP)).step_by(BLOCK) {
            let block = base / BLOCK;
            if !self
                .live_lanes()
                .any(|l| l.dirty_flag(block).load(Ordering::Relaxed))
            {
                continue;
            }
            let len = BLOCK.min(n - base);
            let mut sums = [0u64; BLOCK];
            for lane in self.live_lanes() {
                if !lane.dirty_flag(block).load(Ordering::Relaxed) {
                    continue;
                }
                lane.dirty_flag(block).store(false, Ordering::Relaxed);
                for (sum, d) in sums.iter_mut().zip(&lane.delta[base..base + len]) {
                    let parked = d.load(Ordering::Relaxed);
                    if parked != 0 {
                        d.store(0, Ordering::Relaxed);
                        *sum += parked;
                    }
                }
            }
            // this work item owns the group's vertices and no advance is
            // in flight: the add is a plain load and store
            for (j, &sum) in sums[..len].iter().enumerate() {
                if sum != 0 {
                    let (v, r) = (base + j, &self.residual[base + j]);
                    let old = r.load(Ordering::Relaxed);
                    r.store(old + sum, Ordering::Relaxed);
                    self.activate_on_crossing(v, old, sum, next);
                }
            }
        }
    }
}

impl PageRank {
    /// [`VertexProgram::new_state`] with an explicit lane count (`0` sends
    /// every scatter down the shared `fetch_add` path).
    fn new_state_with_lanes(&self, g: &Csr, lanes: usize) -> PrState {
        let n = g.num_vertices().max(1);
        let init_residual = ((1.0 - self.damping) / n as f64 * SCALE as f64) as u64;
        let eps_fx = ((init_residual as f64 * self.eps_frac) as u64).max(1);
        PrState {
            rank: (0..n).map(|_| AtomicU64::new(0)).collect(),
            residual: (0..n).map(|_| AtomicU64::new(init_residual)).collect(),
            claimed: (0..n).map(|_| AtomicU64::new(0)).collect(),
            degree: (0..n as VertexId).map(|v| g.degree(v) as u32).collect(),
            damping_fx: (self.damping * SCALE as f64) as u64,
            eps_fx,
            lanes: (0..lanes).map(|_| OnceLock::new()).collect(),
        }
    }
}

impl VertexProgram for PageRank {
    type State = PrState;

    fn name(&self) -> &'static str {
        "PR"
    }

    fn capabilities(&self) -> Capabilities {
        // payload: vertex id + accumulated 64-bit fixed-point residual
        Capabilities::new()
            .with_pull()
            .with_payload_bytes(12)
            .with_incremental()
    }

    fn new_state(&self, g: &Csr) -> PrState {
        self.new_state_with_lanes(g, current_num_threads())
    }

    fn initial_frontier(&self, g: &Csr) -> Bitmap {
        Bitmap::ones(g.num_vertices())
    }

    fn compute(&self, _iteration: u32, active: &Bitmap, state: &PrState) {
        // settle-before-read: a claim that ran ahead of a settle would miss
        // the mass still parked, and the activation it carries
        debug_assert!(
            state.parked_blocks() == 0,
            "PR residuals claimed with un-settled lanes"
        );
        for v in active.iter_ones() {
            let r = state.residual[v].swap(0, Ordering::Relaxed);
            state.rank[v].fetch_add(r, Ordering::Relaxed);
            state.claimed[v].store(r, Ordering::Relaxed);
        }
    }

    #[inline]
    fn advance_push(
        &self,
        lane: usize,
        src: VertexId,
        edges: EdgeSlice<'_>,
        state: &PrState,
        next: &AtomicBitmap,
    ) {
        let deg = state.degree[src as usize] as u64;
        if deg == 0 {
            return; // dangling: mass already retired at claim time
        }
        let claimed = state.claimed[src as usize].load(Ordering::Relaxed);
        // per-edge contribution: d * claimed / deg, all in fixed-point
        let contrib = ((claimed as u128 * state.damping_fx as u128) >> 40) as u64 / deg;
        if contrib == 0 {
            return;
        }
        match state.lanes.get(lane) {
            Some(slot) => slot
                .get_or_init(|| Lane::new(state.residual.len()))
                .scatter(edges, contrib),
            // no lane for this worker: add in place, one locked RMW per edge
            None => edges.for_each_target(|t| state.deposit(t as usize, contrib, next)),
        }
    }

    /// Fold the lanes into `residual`, one line of dirty flags (4096
    /// vertices) per work item, so no two workers ever own the same vertex.
    fn settle(&self, state: &PrState, next: &AtomicBitmap) {
        let parked = state.parked_blocks();
        if parked == 0 {
            return;
        }
        let groups = state.residual.len().div_ceil(GROUP);
        parallel_for_work(groups, (parked * BLOCK) as u64, |_, group| {
            state.settle_group(group, next)
        });
    }

    fn output(&self, state: &PrState) -> AlgoOutput {
        // rank plus any unconsumed residual (settled or, should a driver
        // have stopped short of a settle, still parked), back to f64
        let ranks = (0..state.rank.len())
            .map(|v| {
                let parked: u64 = state
                    .live_lanes()
                    .map(|l| l.delta[v].load(Ordering::Relaxed))
                    .sum();
                let settled = state.rank[v].load(Ordering::Relaxed)
                    + state.residual[v].load(Ordering::Relaxed);
                (settled + parked) as f64 / SCALE as f64
            })
            .collect();
        AlgoOutput::Ranks(ranks)
    }

    fn max_iterations(&self) -> u32 {
        self.max_iters
    }

    /// PR's gather is the textbook pull formulation: every vertex may
    /// receive mass from an active in-neighbor, so the candidate set is all
    /// of `V`. (That makes pull demand ≈ |E| — the session's density
    /// heuristic only picks it when the push frontier is at least that
    /// expensive.)
    fn pull_targets_into(&self, _g: &Csr, _active: &Bitmap, _state: &PrState, out: &mut Bitmap) {
        out.set_all();
    }

    /// Sum the fixed-point contributions of active in-neighbors and apply
    /// them in one atomic add. Integer adds commute, so the result and the
    /// threshold-crossing activation are bit-identical to the push
    /// scatter's per-edge adds.
    #[inline]
    fn advance_pull(
        &self,
        v: VertexId,
        in_edges: EdgeSlice<'_>,
        active: &Bitmap,
        state: &PrState,
        next: &AtomicBitmap,
    ) -> u64 {
        let mut total = 0u64;
        in_edges.for_each_target(|u| {
            if active.get(u as usize) {
                let deg = state.degree[u as usize] as u64;
                if deg == 0 {
                    return; // dangling: mass already retired at claim time
                }
                let claimed = state.claimed[u as usize].load(Ordering::Relaxed);
                total += ((claimed as u128 * state.damping_fx as u128) >> 40) as u64 / deg;
            }
        });
        if total > 0 {
            state.deposit(v as usize, total, next);
        }
        in_edges.len() as u64
    }

    /// Residual-driven re-convergence restarted from fresh residuals.
    ///
    /// PR's repair is its own residual formulation: re-seed `(1-d)/n`
    /// everywhere and let the delta scheme re-converge inside the *warm*
    /// session — that is where the mutation win lives for PR (no
    /// re-prestore, resident chunks patched in place, only delta wire
    /// traffic). Warm-starting the old rank/residual vectors is ruled out
    /// by the hard oracle: fixed-point accumulation order differs from a
    /// cold run's, so the result would drift off bit-identity. A restart
    /// also rebuilds the state's cached out-degrees, which the patch
    /// changed.
    fn repair(
        &self,
        _g_old: &Csr,
        _g_new: &Csr,
        _csc_new: Option<&Csr>,
        _patch: &GraphPatch,
        _state: &PrState,
    ) -> RepairPlan {
        RepairPlan::Restart
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inmemory::run_in_memory;
    use crate::reference::pagerank_reference;
    use ascetic_graph::generators::{rmat_graph, uniform_graph, RmatConfig};
    use ascetic_graph::GraphBuilder;

    fn assert_close(out: &AlgoOutput, expect: &[f64], tol: f64) {
        match out {
            AlgoOutput::Ranks(r) => {
                assert_eq!(r.len(), expect.len());
                for (i, (a, b)) in r.iter().zip(expect).enumerate() {
                    assert!((a - b).abs() < tol, "vertex {i}: {a} vs {b}");
                }
            }
            _ => panic!("wrong output type"),
        }
    }

    #[test]
    fn two_cycle_is_symmetric() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        let g = b.build();
        let pr = PageRank::new().with_eps_frac(1e-6);
        let res = run_in_memory(&g, &pr);
        assert_close(&res.output, &[0.5, 0.5], 1e-4);
    }

    #[test]
    fn sink_absorbs_more_rank_than_source() {
        // 0 -> 1: vertex 1 must outrank vertex 0.
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        let g = b.build();
        let res = run_in_memory(&g, &PageRank::new().with_eps_frac(1e-6));
        match res.output {
            AlgoOutput::Ranks(r) => assert!(r[1] > r[0]),
            _ => panic!(),
        }
    }

    #[test]
    fn total_mass_is_conserved_within_rounding() {
        let g = uniform_graph(500, 4_000, false, 2);
        let res = run_in_memory(&g, &PageRank::new());
        match res.output {
            AlgoOutput::Ranks(r) => {
                let total: f64 = r.iter().sum();
                // dangling mass is retired (not lost); only integer-division
                // dust disappears
                assert!(total > 0.90 && total <= 1.0 + 1e-9, "total {total}");
            }
            _ => panic!(),
        }
    }

    #[test]
    fn matches_power_iteration_reference() {
        for seed in [1u64, 5] {
            let g = uniform_graph(300, 2_500, false, seed);
            let res = run_in_memory(&g, &PageRank::new().with_eps_frac(1e-6));
            let expect = pagerank_reference(&g, 0.85, 1e-12, 10_000);
            assert_close(&res.output, &expect, 1e-6);
        }
    }

    #[test]
    fn matches_reference_on_rmat() {
        let g = rmat_graph(&RmatConfig::new(9, 4_000, 8).undirected(true));
        let res = run_in_memory(&g, &PageRank::new().with_eps_frac(1e-6));
        let expect = pagerank_reference(&g, 0.85, 1e-12, 10_000);
        assert_close(&res.output, &expect, 1e-6);
    }

    #[test]
    fn activity_decays_across_iterations() {
        let g = uniform_graph(1_000, 10_000, false, 3);
        let res = run_in_memory(&g, &PageRank::new());
        assert!(res.iterations > 5, "ran {} iterations", res.iterations);
        let first = res.log.first().unwrap().active_edges;
        let last = res.log.last().unwrap().active_edges;
        assert_eq!(first, g.num_edges(), "everyone active at start");
        assert!(last < first / 4, "activity must decay: {last} vs {first}");
    }

    #[test]
    fn deterministic_across_runs() {
        let g = uniform_graph(400, 3_000, false, 9);
        let a = run_in_memory(&g, &PageRank::new());
        let b = run_in_memory(&g, &PageRank::new());
        assert_eq!(
            a.output, b.output,
            "fixed-point PR must be bit-deterministic"
        );
        assert_eq!(a.iterations, b.iterations);
        let la: Vec<u64> = a.log.iter().map(|l| l.active_edges).collect();
        let lb: Vec<u64> = b.log.iter().map(|l| l.active_edges).collect();
        assert_eq!(la, lb);
    }

    #[test]
    #[should_panic(expected = "eps_frac")]
    fn rejects_bad_eps() {
        PageRank::new().with_eps_frac(0.0);
    }

    // ---- lane-private scatter -------------------------------------------

    use crate::ops::{self, NextFrontier};
    use ascetic_par::set_num_threads;
    use std::sync::Mutex;

    /// `set_num_threads` is process-global; the lane tests need the count
    /// they asked for while they run.
    static THREADS: Mutex<()> = Mutex::new(());

    /// Run `f` at `threads` host threads, restoring the default after.
    fn at_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
        let _g = THREADS.lock().unwrap_or_else(|e| e.into_inner());
        set_num_threads(threads);
        let out = f();
        set_num_threads(0);
        out
    }

    /// Every leaf points at vertex 0: all edges hit one target.
    fn star(leaves: u32) -> Csr {
        let mut b = GraphBuilder::new(leaves as usize + 1);
        for v in 1..=leaves {
            b.add_edge(v, 0);
            b.add_edge(0, v);
        }
        b.build()
    }

    fn rmat() -> Csr {
        rmat_graph(&RmatConfig::new(12, 60_000, 17).undirected(true))
    }

    fn words(v: &[AtomicU64]) -> Vec<u64> {
        v.iter().map(|x| x.load(Ordering::Relaxed)).collect()
    }

    /// The push advance of `nodes`' rows as one dispatched job — what every
    /// engine runs between `writer()` and the next look at the frontier.
    fn push_rows(g: &Csr, nodes: &[VertexId], state: &PrState, next: &AtomicBitmap) {
        let edges: u64 = nodes.iter().map(|&v| g.degree(v)).sum();
        parallel_for_work(nodes.len(), edges, |lane, i| {
            let r = g.edge_range(nodes[i]);
            let row = &g.targets()[r.start as usize..r.end as usize];
            ops::advance(
                &PageRank::new(),
                lane,
                nodes[i],
                EdgeSlice::split(row, None),
                state,
                next,
            );
        });
    }

    /// Step `laned` and the all-`fetch_add` oracle (a state with no lanes)
    /// side by side to convergence; every iteration must leave the same
    /// frontier, residuals and ranks behind, bit for bit.
    fn assert_lockstep_with_fetch_add_oracle(g: &Csr, laned: PrState) {
        let pr = PageRank::new();
        let oracle = pr.new_state_with_lanes(g, 0);
        let (mut fa, mut fb) = (pr.initial_frontier(g), pr.initial_frontier(g));
        let (mut na, mut nb) = (
            NextFrontier::new(g.num_vertices()),
            NextFrontier::new(g.num_vertices()),
        );
        let mut nodes = Vec::new();
        let mut a = ops::Drive::new(&pr, g, &laned);
        let mut b = ops::Drive::new(&pr, g, &oracle);
        while let (Some(iters), Some(_)) = (a.begin(&mut fa), b.begin(&mut fb)) {
            let ea = ops::advance_frontier(&pr, g, &fa, &laned, na.writer(), &mut nodes);
            let eb = ops::advance_frontier(&pr, g, &fb, &oracle, nb.writer(), &mut nodes);
            a.end(&mut fa, &mut na);
            b.end(&mut fb, &mut nb);
            assert_eq!((ea, &fa), (eb, &fb), "activation set, iteration {iters}");
            assert_eq!(
                words(&laned.residual),
                words(&oracle.residual),
                "residuals, iteration {iters}"
            );
            assert_eq!(
                words(&laned.rank),
                words(&oracle.rank),
                "ranks, iteration {iters}"
            );
        }
        let iters = a.iterations();
        assert_eq!(iters, b.iterations());
        assert!(iters > 3, "ran {iters} iterations");
        assert!(
            oracle.live_lanes().next().is_none(),
            "the oracle must not grow lanes"
        );
        assert_eq!(pr.output(&laned), pr.output(&oracle));
    }

    #[test]
    fn the_driver_loop_never_hands_a_body_unsettled_lanes() {
        use crate::reference::pagerank_reference;
        let g = ascetic_graph::generators::uniform_graph(5_000, 60_000, false, 13);
        let pr = PageRank::new().with_eps_frac(1e-6);
        let state = at_threads(8, || {
            let state = pr.new_state(&g);
            let mut active = pr.initial_frontier(&g);
            let mut next = NextFrontier::new(g.num_vertices());
            let mut nodes = Vec::new();
            let mut parked_mid_iteration = 0;
            let mut drive = ops::Drive::new(&pr, &g, &state);
            while drive.begin(&mut active).is_some() {
                assert_eq!(state.parked_blocks(), 0, "frontier handed out unsettled");
                ops::advance_frontier(&pr, &g, &active, &state, next.writer(), &mut nodes);
                parked_mid_iteration += state.parked_blocks();
                drive.end(&mut active, &mut next);
            }
            assert!(parked_mid_iteration > 0, "the lanes were never used");
            state
        });
        let expect = AlgoOutput::Ranks(pagerank_reference(&g, 0.85, 1e-12, 10_000));
        assert_eq!(pr.output(&state).first_mismatch(&expect, 1e-6), None);
    }

    #[test]
    fn eight_lanes_match_the_fetch_add_oracle_bit_for_bit() {
        for g in [star(40_000), rmat()] {
            at_threads(8, || {
                let laned = PageRank::new().new_state(&g);
                assert_eq!(laned.lanes.len(), 8);
                assert_lockstep_with_fetch_add_oracle(&g, laned);
            });
        }
    }

    #[test]
    fn workers_past_the_allocated_lanes_fall_back_to_fetch_add() {
        let g = rmat();
        // sized for one worker, advanced by eight: workers 1..8 have no lane
        let narrow = at_threads(1, || PageRank::new().new_state(&g));
        assert_eq!(narrow.lanes.len(), 1);
        at_threads(8, || assert_lockstep_with_fetch_add_oracle(&g, narrow));
    }

    #[test]
    fn a_one_thread_run_allocates_one_lane() {
        let g = rmat();
        at_threads(1, || {
            let pr = PageRank::new();
            let state = pr.new_state(&g);
            let active = pr.initial_frontier(&g);
            crate::run_in_memory_from(&g, &pr, &state, active);
            assert_eq!(state.live_lanes().count(), 1);
        });
    }

    #[test]
    fn settling_twice_is_settling_once() {
        let g = rmat();
        at_threads(8, || {
            let pr = PageRank::new();
            let state = pr.new_state(&g);
            let active = pr.initial_frontier(&g);
            ops::compute(&pr, 0, &active, &state);
            let next = AtomicBitmap::new(g.num_vertices());
            push_rows(&g, &active.to_indices(), &state, &next);
            assert!(
                state.parked_blocks() > 0,
                "the scatter must have parked mass"
            );
            pr.settle(&state, &next);
            assert_eq!(state.parked_blocks(), 0);
            let once = (words(&state.residual), next.snapshot());
            pr.settle(&state, &next);
            assert_eq!((words(&state.residual), next.snapshot()), once);
        });
    }

    #[test]
    fn each_shard_round_sees_its_predecessors_activations() {
        // a fleet's shards advance their slice of the frontier one after
        // another through one NextFrontier, each looking at it in between
        let g = rmat();
        at_threads(8, || {
            let pr = PageRank::new();
            let (laned, oracle) = (pr.new_state(&g), pr.new_state_with_lanes(&g, 0));
            let mut active = pr.initial_frontier(&g);
            let (mut na, mut nb) = (
                NextFrontier::new(g.num_vertices()),
                NextFrontier::new(g.num_vertices()),
            );
            for iter in 0..4 {
                ops::compute(&pr, iter, &active, &laned);
                ops::compute(&pr, iter, &active, &oracle);
                let nodes = active.to_indices();
                let mut seen = 0;
                for shard in nodes.chunks(nodes.len().div_ceil(3).max(1)) {
                    push_rows(&g, shard, &laned, na.writer());
                    push_rows(&g, shard, &oracle, nb.writer());
                    let (a, b) = (na.snapshot(&pr, &laned), nb.snapshot(&pr, &oracle));
                    assert_eq!(a, b, "iteration {iter}: shard round diverged");
                    assert!(a.count_ones() >= seen, "activations are never lost");
                    seen = a.count_ones();
                }
                let mut fb = active.clone();
                na.finish(&pr, &laned, &mut active);
                nb.finish(&pr, &oracle, &mut fb);
                assert_eq!(active, fb);
                assert_eq!(words(&laned.residual), words(&oracle.residual));
            }
        });
    }

    #[test]
    fn output_counts_mass_still_parked_in_a_lane() {
        let g = rmat();
        at_threads(2, || {
            let pr = PageRank::new();
            let state = pr.new_state(&g);
            let active = pr.initial_frontier(&g);
            ops::compute(&pr, 0, &active, &state);
            let next = AtomicBitmap::new(g.num_vertices());
            push_rows(&g, &active.to_indices(), &state, &next);
            let parked = pr.output(&state);
            assert!(state.parked_blocks() > 0);
            pr.settle(&state, &next);
            assert_eq!(
                parked,
                pr.output(&state),
                "settling moves mass, never changes it"
            );
        });
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "un-settled lanes")]
    fn claiming_ahead_of_a_settle_is_caught_in_debug_builds() {
        let g = star(64);
        let pr = PageRank::new();
        let state = pr.new_state_with_lanes(&g, 1);
        let active = pr.initial_frontier(&g);
        ops::compute(&pr, 0, &active, &state);
        let next = AtomicBitmap::new(g.num_vertices());
        for v in active.iter_ones() {
            let r = g.edge_range(v as VertexId);
            let row = &g.targets()[r.start as usize..r.end as usize];
            pr.advance_push(0, v as VertexId, EdgeSlice::split(row, None), &state, &next);
        }
        ops::compute(&pr, 1, &active, &state); // no settle in between
    }
}
