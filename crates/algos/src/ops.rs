//! The operator core: advance / filter / compute, composed by every engine.
//!
//! Gunrock-style decomposition of a frontier iteration. Programs supply
//! functors through [`VertexProgram`] — `compute` (per-vertex map over the
//! frozen active set, once per iteration on the orchestration thread),
//! `advance_push` / `advance_pull` (edge expansion of one vertex's row or
//! a piece of it, single- or multi-lane: lanes live inside the program's
//! state, as in MS-BFS) — which runtimes (session, fleet, serve,
//! baselines, the in-memory oracle) call directly. What a runtime must not
//! restate lives here, implemented once and inherited by every workload:
//!
//! * [`pull_frontier_into`] — the candidate set a pull iteration gathers
//!   into;
//! * [`filter`] — frontier compaction through the program's retain
//!   predicate;
//! * [`NextFrontier`] — the recycled next-frontier buffers a driver loop
//!   carries across iterations (concurrent write side, one snapshot per
//!   iteration, filter, swap) — and the one place the program's `settle`
//!   hook runs, so no driver can read a frontier ahead of it;
//! * [`advance_frontier`] — whole-frontier push advance over a host CSR,
//!   the in-memory oracle's iteration body ([`advance_all`] is the one-shot
//!   form);
//! * [`phase_transition`] — the multi-phase handshake, consulted when a
//!   frontier drains;
//! * [`Drive`] — the driver loop every runtime shares: counters, cap,
//!   handshake, compute before the body, `finish` after it.
//!
//! The operators are deliberately thin: determinism rests on the same
//! contracts as before (frozen snapshots in `compute`, commuting atomic
//! reductions in advance, pure predicates in filter), and the engines keep
//! their own batching/cost accounting around these calls.

use ascetic_graph::{Csr, VertexId};
use ascetic_par::{parallel_for_work, AtomicBitmap, Bitmap};

use crate::traits::{EdgeSlice, VertexProgram};

/// The candidate set a pull iteration must gather into, given the frozen
/// `active` frontier, written into the caller's recycled `out` (whatever
/// it held or however long it was). Only meaningful when the program's
/// [`crate::Capabilities::pull`] is on.
pub fn pull_frontier_into<P: VertexProgram>(
    prog: &P,
    g: &Csr,
    active: &Bitmap,
    state: &P::State,
    out: &mut Bitmap,
) {
    if out.len() == g.num_vertices() {
        out.clear_all();
    } else {
        *out = Bitmap::new(g.num_vertices());
    }
    prog.pull_targets_into(g, active, state, out);
}

/// Run the *filter* operator: compact a freshly snapshotted next frontier,
/// in place, through the program's retain predicate. Programs that do not
/// declare [`crate::Capabilities::filters`] keep everything, and their
/// frontier passes through untouched and unscanned.
pub fn filter<P: VertexProgram>(prog: &P, frontier: &mut Bitmap, state: &P::State) {
    if prog.capabilities().filters {
        frontier.retain(|v| prog.retain(v as VertexId, state));
    }
}

/// The next-frontier half of a driver's frontier loop, recycled across
/// iterations: the concurrent bitmap the advance operators write, plus the
/// plain buffer its per-iteration snapshot lands in. A run allocates one
/// of these; an iteration then costs only what its frontier populates
/// (every bulk operation underneath is summary-indexed), never a fresh
/// |V|-bit allocation or scan.
///
/// Per iteration a driver hands [`NextFrontier::writer`] to the advance
/// operators, may look at the unfiltered result through
/// [`NextFrontier::snapshot`] (the prefetch planner does), and closes with
/// [`NextFrontier::finish`]. However those are mixed, the bitmap is copied
/// out **once** per hand-out of the writer. A traversal direction is not
/// chosen here: it is a property of the frontier an iteration runs, so
/// the driver chooses it from `active` when that iteration opens.
///
/// This is also the one seam every driver reads the frontier through, so
/// it is where the program's [`VertexProgram::settle`] hook runs: before
/// each copy-out, never anywhere else. A driver cannot observe a frontier
/// that is missing activations still parked in a lane.
pub struct NextFrontier {
    bits: AtomicBitmap,
    snap: Bitmap,
    /// `snap` holds `bits` as of the last `writer` hand-out's writes.
    snapped: bool,
    snapshots: u64,
}

impl NextFrontier {
    /// Buffers for frontiers over `n` vertices, all clear.
    pub fn new(n: usize) -> NextFrontier {
        NextFrontier {
            bits: AtomicBitmap::new(n),
            snap: Bitmap::new(n),
            snapped: false,
            snapshots: 0,
        }
    }

    /// The bitmap the advance operators activate vertices in. Handing it
    /// out invalidates any snapshot taken so far — a fleet's shards write
    /// the shared frontier one after another, and each must see its
    /// predecessors' bits.
    pub fn writer(&mut self) -> &AtomicBitmap {
        self.snapped = false;
        &self.bits
    }

    /// The next frontier as written so far, unfiltered. Settles the
    /// program's deferred updates and copies the bits out on the first
    /// call after a [`NextFrontier::writer`] hand-out, and returns the same
    /// copy until the next one.
    pub fn snapshot<P: VertexProgram>(&mut self, prog: &P, state: &P::State) -> &Bitmap {
        if !self.snapped {
            prog.settle(state, &self.bits);
            self.bits.snapshot_into(&mut self.snap);
            self.snapped = true;
            self.snapshots += 1;
        }
        &self.snap
    }

    /// Close the iteration: the (filtered) next frontier becomes `active`,
    /// whose old buffer is kept for the next snapshot, and the write side
    /// is cleared for the next iteration.
    pub fn finish<P: VertexProgram>(&mut self, prog: &P, state: &P::State, active: &mut Bitmap) {
        self.snapshot(prog, state);
        self.bits.clear_all();
        self.snapped = false;
        filter(prog, &mut self.snap, state);
        std::mem::swap(active, &mut self.snap);
    }

    /// Snapshots copied out so far — one per iteration when the loop is
    /// wired right, whatever mix of planners looked at the frontier.
    pub fn snapshots_taken(&self) -> u64 {
        self.snapshots
    }
}

/// Run one whole-frontier push advance over a host CSR: compute, then a
/// parallel advance of every active row, then filter. Returns the
/// compacted next frontier plus the active-edge count — one iteration of
/// [`Drive`] around [`advance_frontier`], with fresh buffers.
pub fn advance_all<P: VertexProgram>(
    prog: &P,
    g: &Csr,
    iteration: u32,
    active: &Bitmap,
    state: &P::State,
) -> (Bitmap, u64) {
    let mut frontier = active.clone();
    let mut next = NextFrontier::new(g.num_vertices());
    prog.compute(iteration, &frontier, state);
    let active_edges = advance_frontier(prog, g, &frontier, state, next.writer(), &mut Vec::new());
    next.finish(prog, state, &mut frontier);
    (frontier, active_edges)
}

/// Push-advance every active row straight from the host CSR — the
/// in-memory oracle's whole iteration body, and the host execution of any
/// runtime whose edges never leave host memory (UVM). `nodes` is recycled
/// scratch that comes back holding the active-vertex list, ascending.
/// Returns the active-edge count.
pub fn advance_frontier<P: VertexProgram>(
    prog: &P,
    g: &Csr,
    active: &Bitmap,
    state: &P::State,
    next: &AtomicBitmap,
    nodes: &mut Vec<VertexId>,
) -> u64 {
    active.collect_indices(nodes);
    let active_edges: u64 = nodes.iter().map(|&v| g.degree(v)).sum();
    let weights_all = g.weights();
    parallel_for_work(nodes.len(), active_edges, |lane, i| {
        let v = nodes[i];
        let r = g.edge_range(v);
        let (s, e) = (r.start as usize, r.end as usize);
        let slice = EdgeSlice::split(&g.targets()[s..e], weights_all.map(|w| &w[s..e]));
        prog.advance_push(lane, v, slice, state, next);
    });
    active_edges
}

/// Consult the multi-phase handshake after a frontier drains: `finished`
/// phases are complete. Returns the next phase's (non-empty) initial
/// frontier, or `None` when the program is done. Single-phase programs
/// (the default `next_phase`) always get `None`.
pub fn phase_transition<P: VertexProgram>(
    prog: &P,
    finished: u32,
    g: &Csr,
    state: &P::State,
) -> Option<Bitmap> {
    let f = prog.next_phase(finished, g, state)?;
    if f.is_all_zero() {
        None
    } else {
        Some(f)
    }
}

/// The one driver loop, shared by every runtime (session, fleet, the
/// three baselines, the in-memory oracle): it owns the iteration and phase
/// counters, the `max_iterations` cap, the [`phase_transition`] handshake
/// on a drained frontier, [`VertexProgram::compute`] before the
/// iteration's body and [`NextFrontier::finish`] (settle, snapshot,
/// filter, swap) after it. A runtime writes only the body — how the active
/// rows reach the advance operators:
///
/// ```text
/// let mut drive = Drive::new(prog, g, &state);
/// while let Some(iter) = drive.begin(&mut active) {
///     /* advance `active`'s rows into `next.writer()` */
///     drive.end(&mut active, &mut next);
/// }
/// ```
///
/// After [`Drive::end`], `active` is the frontier it just closed — empty
/// at a phase boundary — which is where a fleet runs its exchange. The
/// two frontier buffers stay the runtime's own locals (the loop borrows
/// them per call rather than holding them), so the body's hot code keeps
/// working on its function's own references.
pub struct Drive<'a, P: VertexProgram> {
    prog: &'a P,
    g: &'a Csr,
    state: &'a P::State,
    iter: u32,
    phase: u32,
}

impl<'a, P: VertexProgram> Drive<'a, P> {
    /// A loop over `prog`, at iteration 0 of phase 0.
    pub fn new(prog: &'a P, g: &'a Csr, state: &'a P::State) -> Self {
        Drive {
            prog,
            g,
            state,
            iter: 0,
            phase: 0,
        }
    }

    /// Open the next iteration over `active`: `None` once the cap is
    /// reached or the frontier has drained and the program declines
    /// another phase (otherwise the next phase's frontier is now in
    /// `active`); `Some(iteration index)` once the compute operator has
    /// run on the frozen frontier and the body may advance it.
    pub fn begin(&mut self, active: &mut Bitmap) -> Option<u32> {
        if self.iter >= self.prog.max_iterations() {
            return None;
        }
        if active.is_all_zero() {
            *active = phase_transition(self.prog, self.phase, self.g, self.state)?;
            self.phase += 1;
        }
        self.prog.compute(self.iter, active, self.state);
        Some(self.iter)
    }

    /// Close the iteration [`Drive::begin`] opened: what the body wrote
    /// through `next` becomes `active`.
    pub fn end(&mut self, active: &mut Bitmap, next: &mut NextFrontier) {
        next.finish(self.prog, self.state, active);
        self.iter += 1;
    }

    /// Iterations closed so far.
    pub fn iterations(&self) -> u32 {
        self.iter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::AlgoOutput;
    use ascetic_graph::generators::uniform_graph;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// A tiny program that activates everything but retains only even
    /// vertices — exercises the filter operator doing real compaction.
    struct EvenHops;
    impl VertexProgram for EvenHops {
        type State = Vec<AtomicU32>;
        fn name(&self) -> &'static str {
            "even-hops"
        }
        fn new_state(&self, g: &Csr) -> Self::State {
            (0..g.num_vertices()).map(|_| AtomicU32::new(0)).collect()
        }
        fn initial_frontier(&self, g: &Csr) -> Bitmap {
            let mut b = Bitmap::new(g.num_vertices());
            b.set(0);
            b
        }
        fn advance_push(
            &self,
            _lane: usize,
            _src: VertexId,
            edges: EdgeSlice<'_>,
            state: &Self::State,
            next: &AtomicBitmap,
        ) {
            edges.for_each_target(|t| {
                state[t as usize].fetch_add(1, Ordering::Relaxed);
                next.set(t as usize);
            });
        }
        fn capabilities(&self) -> crate::Capabilities {
            crate::Capabilities::new().with_filter()
        }
        fn retain(&self, v: VertexId, _state: &Self::State) -> bool {
            v.is_multiple_of(2)
        }
        fn max_iterations(&self) -> u32 {
            3
        }
        fn output(&self, state: &Self::State) -> AlgoOutput {
            AlgoOutput::Labels(state.iter().map(|x| x.load(Ordering::Relaxed)).collect())
        }
    }

    #[test]
    fn filter_compacts_through_retain() {
        let g = uniform_graph(64, 512, false, 7);
        let prog = EvenHops;
        let state = prog.new_state(&g);
        let active = prog.initial_frontier(&g);
        let (next, edges) = advance_all(&prog, &g, 0, &active, &state);
        assert_eq!(edges, g.degree(0));
        assert!(next.iter_ones().all(|v| v % 2 == 0), "odd vertex survived");
    }

    #[test]
    fn default_retain_is_identity() {
        let g = uniform_graph(32, 128, false, 3);
        let prog = crate::Bfs::new(0);
        let state = prog.new_state(&g);
        let mut b = Bitmap::new(g.num_vertices());
        for v in [1usize, 5, 17, 31] {
            b.set(v);
        }
        let before: Vec<usize> = b.iter_ones().collect();
        filter(&prog, &mut b, &state);
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), before);
    }

    #[test]
    fn next_frontier_snapshots_once_per_writer_hand_out() {
        let g = uniform_graph(5_000, 20_000, false, 9);
        let prog = crate::Bfs::new(0);
        let state = prog.new_state(&g);
        let mut active = prog.initial_frontier(&g);
        let mut next = NextFrontier::new(g.num_vertices());
        next.writer().set(7);
        next.writer().set(4_999);
        assert_eq!(next.snapshot(&prog, &state).to_indices(), vec![7, 4_999]);
        assert_eq!(next.snapshot(&prog, &state).to_indices(), vec![7, 4_999]);
        assert_eq!(next.snapshots_taken(), 1, "a second look reuses the copy");
        // a later writer (the next fleet shard) invalidates the copy
        next.writer().set(64);
        assert_eq!(
            next.snapshot(&prog, &state).to_indices(),
            vec![7, 64, 4_999]
        );
        next.finish(&prog, &state, &mut active);
        assert_eq!(next.snapshots_taken(), 2, "finish reuses the last copy");
        assert_eq!(active.to_indices(), vec![7, 64, 4_999]);
        // the write side and the recycled buffer start the next round clean
        next.writer().set(1);
        next.finish(&prog, &state, &mut active);
        assert_eq!(active.to_indices(), vec![1]);
        assert_eq!(next.snapshots_taken(), 3);
    }

    #[test]
    fn driven_advance_matches_the_one_shot_form() {
        let g = uniform_graph(600, 4_000, false, 11);
        let prog = crate::Bfs::new(3);
        let (s1, s2) = (prog.new_state(&g), prog.new_state(&g));
        let mut one_shot = prog.initial_frontier(&g);
        let mut recycled = one_shot.clone();
        let mut next = NextFrontier::new(g.num_vertices());
        let mut nodes = Vec::new();
        let mut drive = Drive::new(&prog, &g, &s2);
        while let Some(iter) = drive.begin(&mut recycled) {
            let (f, e1) = advance_all(&prog, &g, iter, &one_shot, &s1);
            let e2 = advance_frontier(&prog, &g, &recycled, &s2, next.writer(), &mut nodes);
            one_shot = f;
            drive.end(&mut recycled, &mut next);
            assert_eq!((e1, &one_shot), (e2, &recycled), "iteration {iter}");
        }
        assert!(drive.iterations() > 3 && one_shot.is_all_zero());
        assert_eq!(prog.output(&s1), prog.output(&s2));
    }

    /// What a [`Probe`] run did, in order.
    #[derive(Debug, PartialEq)]
    enum Ev {
        Compute(u32),
        Body(u32),
        Handshake(u32),
    }

    /// A program that only records how the loop called it: starts from
    /// `start`, offers `phases` (each a frontier of that one vertex) through
    /// the handshake, and leaves all activation to the test's loop body.
    struct Probe {
        start: Option<usize>,
        phases: Vec<usize>,
        cap: u32,
        log: std::sync::Mutex<Vec<Ev>>,
    }
    impl Probe {
        fn new(start: Option<usize>, phases: Vec<usize>, cap: u32) -> Probe {
            Probe {
                start,
                phases,
                cap,
                log: Default::default(),
            }
        }
        fn push(&self, ev: Ev) {
            self.log.lock().unwrap().push(ev);
        }
        fn only(v: usize) -> Bitmap {
            let mut b = Bitmap::new(8);
            b.set(v);
            b
        }
        /// Drive to the end; `body(iter)` names the vertex to activate.
        fn run(&self, body: impl Fn(u32) -> Option<usize>) -> (u32, Vec<Ev>) {
            let g = uniform_graph(8, 16, false, 1);
            let mut active = self.initial_frontier(&g);
            let mut next = NextFrontier::new(8);
            let mut drive = Drive::new(self, &g, &());
            while let Some(iter) = drive.begin(&mut active) {
                assert!(
                    !active.is_all_zero(),
                    "a body never sees a drained frontier"
                );
                self.push(Ev::Body(iter));
                if let Some(v) = body(iter) {
                    next.writer().set(v);
                }
                drive.end(&mut active, &mut next);
            }
            (
                drive.iterations(),
                std::mem::take(&mut self.log.lock().unwrap()),
            )
        }
    }
    impl VertexProgram for Probe {
        type State = ();
        fn name(&self) -> &'static str {
            "probe"
        }
        fn new_state(&self, _g: &Csr) {}
        fn initial_frontier(&self, _g: &Csr) -> Bitmap {
            self.start.map_or(Bitmap::new(8), Probe::only)
        }
        fn compute(&self, iteration: u32, _active: &Bitmap, _state: &()) {
            self.push(Ev::Compute(iteration));
        }
        fn advance_push(&self, _: usize, _: VertexId, _: EdgeSlice<'_>, _: &(), _: &AtomicBitmap) {}
        fn next_phase(&self, finished: u32, _g: &Csr, _state: &()) -> Option<Bitmap> {
            self.push(Ev::Handshake(finished));
            self.phases.get(finished as usize).copied().map(Probe::only)
        }
        fn max_iterations(&self) -> u32 {
            self.cap
        }
        fn output(&self, _state: &()) -> AlgoOutput {
            AlgoOutput::Labels(Vec::new())
        }
    }

    #[test]
    fn drive_runs_no_body_from_an_empty_frontier_with_no_further_phase() {
        let (iters, log) = Probe::new(None, vec![], 100).run(|_| Some(0));
        assert_eq!((iters, log), (0, vec![Ev::Handshake(0)]));
    }

    #[test]
    fn drive_caps_a_never_draining_program_exactly() {
        let (iters, log) = Probe::new(Some(0), vec![1], 7).run(|_| Some(3));
        assert_eq!(iters, 7);
        assert_eq!(log.len(), 14, "compute + body per iteration, no handshake");
        assert_eq!(log[12..], [Ev::Compute(6), Ev::Body(6)]);
    }

    #[test]
    fn drive_computes_before_each_body_and_shakes_hands_once_per_drained_frontier() {
        // phase 0 runs two iterations, phase 1 (entered through the
        // handshake) one; the second drain ends the run
        let probe = Probe::new(Some(0), vec![5], 100);
        let (iters, log) = probe.run(|iter| (iter == 0).then_some(1));
        assert_eq!(iters, 3);
        use Ev::*;
        assert_eq!(
            log,
            [
                Compute(0),
                Body(0),
                Compute(1),
                Body(1),
                Handshake(0),
                Compute(2),
                Body(2),
                Handshake(1),
            ]
        );
    }

    #[test]
    fn pull_frontier_into_overwrites_whatever_the_buffer_held() {
        let g = uniform_graph(5_000, 20_000, false, 4);
        let bfs = crate::Bfs::new(0);
        let state = bfs.new_state(&g);
        let mut active = bfs.initial_frontier(&g);
        for iter in 0..3 {
            active = advance_all(&bfs, &g, iter, &active, &state).0;
        }
        let mut fresh = Bitmap::new(g.num_vertices());
        bfs.pull_targets_into(&g, &active, &state, &mut fresh);
        assert!(!fresh.is_all_zero() && fresh.count_ones() < g.num_vertices());
        // first use (wrong length), then reuse over stale all-ones content
        let mut recycled = Bitmap::new(0);
        pull_frontier_into(&bfs, &g, &active, &state, &mut recycled);
        assert_eq!(recycled, fresh);
        recycled.set_all();
        pull_frontier_into(&bfs, &g, &active, &state, &mut recycled);
        assert_eq!(recycled, fresh);
        assert_eq!(recycled.to_indices(), fresh.to_indices(), "summary intact");
        // PR gathers into every vertex
        let pr = crate::PageRank::new();
        pull_frontier_into(&pr, &g, &active, &pr.new_state(&g), &mut recycled);
        assert_eq!(recycled, Bitmap::ones(g.num_vertices()));
    }

    #[test]
    fn single_phase_programs_decline_transition() {
        let g = uniform_graph(16, 64, false, 1);
        let prog = crate::Bfs::new(0);
        let state = prog.new_state(&g);
        assert!(phase_transition(&prog, 0, &g, &state).is_none());
    }
}
