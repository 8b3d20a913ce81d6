//! The operator core: advance / filter / compute, composed by every engine.
//!
//! Gunrock-style decomposition of a frontier iteration. Programs supply
//! functors through [`VertexProgram`]; runtimes (session, fleet, serve,
//! baselines, the in-memory oracle) call these free functions instead of
//! invoking program hooks directly, so each engine feature — prefetch,
//! compression, direction choice, batching, fleet exchange, tracing — is
//! implemented once here and inherited by every workload:
//!
//! * [`compute`] — per-vertex map over the frozen active set, run once per
//!   iteration on the orchestration thread;
//! * [`advance`] / [`advance_pull`] + [`pull_frontier_into`] — edge expansion of
//!   one vertex's row (or a piece of it), push or pull, single- or
//!   multi-lane (lanes live inside the program's state, as in MS-BFS);
//! * [`filter`] — frontier compaction through the program's retain
//!   predicate;
//! * [`NextFrontier`] — the recycled next-frontier buffers a driver loop
//!   carries across iterations (concurrent write side, one snapshot per
//!   iteration, filter, swap) — and the one place the program's `settle`
//!   hook runs, so no driver can read a frontier ahead of it;
//! * [`advance_all`] / [`advance_all_into`] — whole-frontier push advance
//!   over a host CSR, the composition the in-memory oracle uses;
//! * [`phase_transition`] — the multi-phase handshake, consulted when a
//!   frontier drains.
//!
//! The operators are deliberately thin: determinism rests on the same
//! contracts as before (frozen snapshots in `compute`, commuting atomic
//! reductions in advance, pure predicates in filter), and the engines keep
//! their own batching/cost accounting around these calls.

use ascetic_graph::{Csr, VertexId};
use ascetic_par::{parallel_for_work, AtomicBitmap, Bitmap};

use crate::traits::{EdgeSlice, VertexProgram};

/// Run the *compute* operator for one iteration: the program's per-vertex
/// map over the frozen `active` set. Must be called exactly once per
/// iteration, before any advance of that iteration, on the orchestration
/// thread.
#[inline]
pub fn compute<P: VertexProgram>(prog: &P, iteration: u32, active: &Bitmap, state: &P::State) {
    prog.compute(iteration, active, state);
}

/// Run the push *advance* operator over (a piece of) one active vertex's
/// out-edges. Engines may deliver a row in several pieces, but each edge
/// exactly once per iteration. `lane` is the worker index
/// [`parallel_for_work`] handed the calling body — pass it through as is
/// (`0` from a serial loop).
#[inline]
pub fn advance<P: VertexProgram>(
    prog: &P,
    lane: usize,
    src: VertexId,
    edges: EdgeSlice<'_>,
    state: &P::State,
    next: &AtomicBitmap,
) {
    prog.advance_push(lane, src, edges, state, next);
}

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

/// Run the pull *advance* operator over (a piece of) one candidate
/// vertex's in-edges; returns the number of edges actually scanned for the
/// kernel cost model.
#[inline]
pub fn advance_pull<P: VertexProgram>(
    prog: &P,
    v: VertexId,
    in_edges: EdgeSlice<'_>,
    active: &Bitmap,
    state: &P::State,
    next: &AtomicBitmap,
) -> u64 {
    prog.advance_pull(v, in_edges, active, state, next)
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
/// [`NextFrontier::snapshot`] (prefetch planning, direction choice), and
/// closes with [`NextFrontier::finish`]. However those are mixed, the
/// bitmap is copied out **once** per hand-out of the writer.
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
/// compacted next frontier plus the active-edge count — the reference
/// composition the out-of-core engines mirror around their data movement.
/// One-shot form of [`advance_all_into`], with fresh buffers.
pub fn advance_all<P: VertexProgram>(
    prog: &P,
    g: &Csr,
    iteration: u32,
    active: &Bitmap,
    state: &P::State,
) -> (Bitmap, u64) {
    let mut frontier = active.clone();
    let mut next = NextFrontier::new(g.num_vertices());
    let mut nodes = Vec::new();
    let active_edges = advance_all_into(
        prog,
        g,
        iteration,
        &mut frontier,
        state,
        &mut next,
        &mut nodes,
    );
    (frontier, active_edges)
}

/// [`advance_all`] on a loop's recycled buffers — the in-memory oracle's
/// entire iteration: `active` is advanced in place to the compacted next
/// frontier, `nodes` is scratch for the active-vertex list. Returns the
/// active-edge count.
pub fn advance_all_into<P: VertexProgram>(
    prog: &P,
    g: &Csr,
    iteration: u32,
    active: &mut Bitmap,
    state: &P::State,
    next: &mut NextFrontier,
    nodes: &mut Vec<VertexId>,
) -> u64 {
    compute(prog, iteration, active, state);
    active.collect_indices(nodes);
    let active_edges: u64 = nodes.iter().map(|&v| g.degree(v)).sum();
    let weights_all = g.weights();
    let bits = next.writer();
    parallel_for_work(nodes.len(), active_edges, |lane, i| {
        let v = nodes[i];
        let r = g.edge_range(v);
        let (s, e) = (r.start as usize, r.end as usize);
        let slice = EdgeSlice::split(&g.targets()[s..e], weights_all.map(|w| &w[s..e]));
        advance(prog, lane, v, slice, state, bits);
    });
    next.finish(prog, state, active);
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
            for (t, _) in edges.iter() {
                state[t as usize].fetch_add(1, Ordering::Relaxed);
                next.set(t as usize);
            }
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
    fn recycled_advance_matches_the_one_shot_form() {
        let g = uniform_graph(600, 4_000, false, 11);
        let prog = crate::Bfs::new(3);
        let (s1, s2) = (prog.new_state(&g), prog.new_state(&g));
        let mut one_shot = prog.initial_frontier(&g);
        let mut recycled = one_shot.clone();
        let mut next = NextFrontier::new(g.num_vertices());
        let mut nodes = Vec::new();
        for iter in 0..6 {
            let (f, e1) = advance_all(&prog, &g, iter, &one_shot, &s1);
            let e2 = advance_all_into(&prog, &g, iter, &mut recycled, &s2, &mut next, &mut nodes);
            one_shot = f;
            assert_eq!((e1, &one_shot), (e2, &recycled), "iteration {iter}");
        }
        assert_eq!(prog.output(&s1), prog.output(&s2));
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
