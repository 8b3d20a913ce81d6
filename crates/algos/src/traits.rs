//! The vertex-program abstraction behind the operator core.
//!
//! Every out-of-core system in this workspace (PT, UVM, Subway, Ascetic)
//! executes the same programs through this trait. A program declares
//! *functors* — a push [`VertexProgram::advance_push`], an optional pull
//! gather ([`VertexProgram::pull_targets_into`] /
//! [`VertexProgram::advance_pull`]), a per-iteration
//! [`VertexProgram::compute`] map, a [`VertexProgram::retain`] filter
//! predicate and an optional [`VertexProgram::next_phase`] transition —
//! plus a [`Capabilities`] descriptor. The engines in [`crate::ops`]
//! compose these into the advance → filter → compute loop that every
//! runtime (session, fleet, serve, baselines, in-memory oracle) drives;
//! programs never own a loop. The contract mirrors the paper's workflow
//! (Figure 4):
//!
//! 1. the driver owns an `ActiveBitmap`; at the start of each iteration it
//!    snapshots it and runs the *compute* operator
//!    ([`VertexProgram::compute`]);
//! 2. the system materializes each active vertex's edge payload *somewhere*
//!    (a partition buffer, the static region, a gathered on-demand
//!    subgraph, UVM pages) and hands it to the *advance* operator
//!    ([`VertexProgram::advance_push`]) as an [`EdgeSlice`] — programs
//!    never know or care where the bytes came from;
//! 3. `advance_push` pushes updates into the (device-resident, atomic)
//!    vertex state and marks activated vertices in the *next* frontier;
//! 4. the *filter* operator compacts the next frontier through
//!    [`VertexProgram::retain`];
//! 5. when the frontier comes back empty the driver offers the program a
//!    phase transition ([`VertexProgram::next_phase`]); the run ends when
//!    that declines.
//!
//! A vertex's edges may be delivered in several pieces within one iteration
//! (Subway splits oversized subgraphs; Ascetic splits across the two
//! regions' boundary chunk), so `advance_push` must be correct under
//! partial, repeated-source delivery — which push-style atomic reductions
//! are naturally. Each edge is delivered exactly once per iteration, so
//! per-edge accumulations (PR residual scatter, betweenness path counts)
//! are exact.

use std::ops::ControlFlow;

use ascetic_graph::{Csr, GraphPatch, VertexId};

use crate::incremental::RepairPlan;
use ascetic_par::{AtomicBitmap, Bitmap};

/// A view over the edge payload of one vertex (or a piece of it).
///
/// Two zero-copy layouts are supported:
/// * **Packed** — the device serialization format [`Csr::copy_edge_words`]
///   writes into device windows: `[target]` per edge unweighted or
///   `[target, weight]` interleaved (what the partition buffers, on-demand
///   region and static region hold);
/// * **Split** — the host CSR's separate target/weight arrays (what the
///   in-memory oracle and UVM runner read directly).
#[derive(Clone, Copy, Debug)]
pub enum EdgeSlice<'a> {
    /// Interleaved device format.
    Packed {
        /// `[t]` or `[t, w]` repeated.
        words: &'a [u32],
        /// Whether entries carry weights.
        weighted: bool,
    },
    /// Host CSR format.
    Split {
        /// Edge targets.
        targets: &'a [u32],
        /// Optional parallel weights.
        weights: Option<&'a [u32]>,
    },
}

impl<'a> EdgeSlice<'a> {
    /// Wrap a packed word slice. Debug-panics if a weighted slice has odd
    /// length.
    #[inline]
    pub fn new(words: &'a [u32], weighted: bool) -> Self {
        if weighted {
            debug_assert!(
                words.len().is_multiple_of(2),
                "weighted slice must be even-length"
            );
        }
        EdgeSlice::Packed { words, weighted }
    }

    /// Wrap host CSR arrays. Debug-panics on length mismatch.
    #[inline]
    pub fn split(targets: &'a [u32], weights: Option<&'a [u32]>) -> Self {
        if let Some(w) = weights {
            debug_assert_eq!(w.len(), targets.len(), "weights length mismatch");
        }
        EdgeSlice::Split { targets, weights }
    }

    /// Number of edges in the slice.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            EdgeSlice::Packed {
                words,
                weighted: true,
            } => words.len() / 2,
            EdgeSlice::Packed {
                words,
                weighted: false,
            } => words.len(),
            EdgeSlice::Split { targets, .. } => targets.len(),
        }
    }

    /// Whether the slice holds zero edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether entries carry weights.
    #[inline]
    pub fn weighted(&self) -> bool {
        match self {
            EdgeSlice::Packed { weighted, .. } => *weighted,
            EdgeSlice::Split { weights, .. } => weights.is_some(),
        }
    }

    /// Call `f` with every edge's target, weights ignored.
    ///
    /// Every edge loop goes through one of the visitors —
    /// [`EdgeSlice::for_each_target`], [`EdgeSlice::for_each_edge`] or
    /// [`EdgeSlice::try_for_each_target`]: each matches the layout once per
    /// row and then runs a plain slice loop, which is what keeps the hot
    /// scatters at slice speed. There is no per-item edge iterator.
    #[inline]
    pub fn for_each_target(&self, mut f: impl FnMut(VertexId)) {
        match *self {
            EdgeSlice::Packed {
                words: targets,
                weighted: false,
            }
            | EdgeSlice::Split { targets, .. } => targets.iter().for_each(|&t| f(t)),
            EdgeSlice::Packed {
                words,
                weighted: true,
            } => words.chunks_exact(2).for_each(|e| f(e[0])),
        }
    }

    /// Call `f` with every edge's `(target, weight)`; unweighted edges pass
    /// weight 1. Matches the layout once per row, like
    /// [`EdgeSlice::for_each_target`].
    #[inline]
    pub fn for_each_edge(&self, mut f: impl FnMut(VertexId, u32)) {
        match *self {
            EdgeSlice::Packed {
                words: targets,
                weighted: false,
            }
            | EdgeSlice::Split {
                targets,
                weights: None,
            } => targets.iter().for_each(|&t| f(t, 1)),
            EdgeSlice::Packed {
                words,
                weighted: true,
            } => words.chunks_exact(2).for_each(|e| f(e[0], e[1])),
            EdgeSlice::Split {
                targets,
                weights: Some(weights),
            } => targets.iter().zip(weights).for_each(|(&t, &w)| f(t, w)),
        }
    }

    /// [`EdgeSlice::for_each_target`] that stops at the first
    /// [`ControlFlow::Break`] and returns it — for gathers with an exact
    /// early exit, whose stop position is the number of edges they scanned.
    #[inline]
    pub fn try_for_each_target<B>(
        &self,
        mut f: impl FnMut(VertexId) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        match *self {
            EdgeSlice::Packed {
                words: targets,
                weighted: false,
            }
            | EdgeSlice::Split { targets, .. } => targets.iter().try_for_each(|&t| f(t)),
            EdgeSlice::Packed {
                words,
                weighted: true,
            } => words.chunks_exact(2).try_for_each(|e| f(e[0])),
        }
    }
}

/// Final result of a program run, for oracle comparison.
#[derive(Clone, Debug, PartialEq)]
pub enum AlgoOutput {
    /// Per-vertex hop distance or shortest-path distance
    /// ([`ascetic_graph::INF_DIST`] = unreachable).
    Distances(Vec<u32>),
    /// Per-vertex component label.
    Labels(Vec<u32>),
    /// Per-vertex PageRank score.
    Ranks(Vec<f64>),
    /// One distance vector per source of a batched multi-source run
    /// (lane-major: `v[lane][vertex]`), in the batch's source order.
    MultiDistances(Vec<Vec<u32>>),
}

impl AlgoOutput {
    /// Compare against another output; floats compare with `tol`
    /// (absolute). Returns the first mismatching vertex, if any.
    pub fn first_mismatch(&self, other: &AlgoOutput, tol: f64) -> Option<usize> {
        match (self, other) {
            (AlgoOutput::Distances(a), AlgoOutput::Distances(b))
            | (AlgoOutput::Labels(a), AlgoOutput::Labels(b)) => {
                if a.len() != b.len() {
                    return Some(a.len().min(b.len()));
                }
                a.iter().zip(b).position(|(x, y)| x != y)
            }
            (AlgoOutput::Ranks(a), AlgoOutput::Ranks(b)) => {
                if a.len() != b.len() {
                    return Some(a.len().min(b.len()));
                }
                a.iter().zip(b).position(|(x, y)| (x - y).abs() > tol)
            }
            (AlgoOutput::MultiDistances(a), AlgoOutput::MultiDistances(b)) => {
                if a.len() != b.len() {
                    return Some(a.len().min(b.len()));
                }
                // report the first mismatching vertex across any lane
                for (la, lb) in a.iter().zip(b) {
                    if la.len() != lb.len() {
                        return Some(la.len().min(lb.len()));
                    }
                    if let Some(v) = la.iter().zip(lb).position(|(x, y)| x != y) {
                        return Some(v);
                    }
                }
                None
            }
            _ => Some(0),
        }
    }

    /// FNV-1a over the output's canonical little-endian bytes: a compact,
    /// deterministic fingerprint for byte-identity oracles (across serve
    /// policies, traversal directions, thread and device counts).
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        match self {
            AlgoOutput::Distances(v) | AlgoOutput::Labels(v) => {
                eat(&[1u8]);
                for x in v {
                    eat(&x.to_le_bytes());
                }
            }
            AlgoOutput::Ranks(v) => {
                eat(&[2u8]);
                for x in v {
                    eat(&x.to_bits().to_le_bytes());
                }
            }
            AlgoOutput::MultiDistances(vs) => {
                eat(&[3u8]);
                for v in vs {
                    eat(&(v.len() as u64).to_le_bytes());
                    for x in v {
                        eat(&x.to_le_bytes());
                    }
                }
            }
        }
        h
    }
}

/// What a program can do and what its frontier traffic costs — declared
/// once, consulted by every engine instead of per-feature default-method
/// probes. Engines promise never to invoke a functor whose capability bit
/// is off: a program with `pull: false` will never see its pull functors
/// called, so the benign defaults on the trait are unreachable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Capabilities {
    /// The program reads edge weights (doubles edge bytes — the paper's
    /// SSSP). Engines assert the graph variant matches.
    pub weights: bool,
    /// The program has an exact pull-mode gather
    /// ([`VertexProgram::pull_targets_into`] / [`VertexProgram::advance_pull`])
    /// and may be scheduled pull or adaptive.
    pub pull: bool,
    /// Same-kind single-source queries can be fused into one multi-lane
    /// run (the serve layer batches BFS/SSSP through their `MS-*-D`
    /// variants).
    pub batchable: bool,
    /// Wire bytes a fleet must ship per remote frontier vertex at an
    /// iteration boundary: the vertex id plus whatever per-vertex value
    /// the program's push updates carry (a distance, a component label, a
    /// residual). Sized per program so the exchange traffic in fleet
    /// reports reflects the actual protocol, not a one-size guess.
    pub payload_bytes: u64,
    /// The program implements [`VertexProgram::repair`]: after a graph
    /// mutation batch its converged state can be patched in place and
    /// re-run from an affected-vertex frontier instead of recomputed from
    /// scratch. Programs without the bit get the engine's full-recompute
    /// fallback (fresh state inside the warm session).
    pub incremental: bool,
    /// The program overrides [`VertexProgram::retain`]. Exact-frontier
    /// programs (the default) leave it off and the filter operator hands
    /// their next frontier through untouched, without scanning it.
    pub filters: bool,
}

impl Default for Capabilities {
    fn default() -> Self {
        Capabilities {
            weights: false,
            pull: false,
            batchable: false,
            payload_bytes: 4, // vertex id only (pure frontier-membership programs)
            incremental: false,
            filters: false,
        }
    }
}

impl Capabilities {
    /// Builder start: the default descriptor (unweighted push-only,
    /// 4-byte id payload).
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare that edge weights are required.
    pub fn with_weights(mut self) -> Self {
        self.weights = true;
        self
    }

    /// Declare an exact pull implementation.
    pub fn with_pull(mut self) -> Self {
        self.pull = true;
        self
    }

    /// Declare serve-layer batchability.
    pub fn with_batchable(mut self) -> Self {
        self.batchable = true;
        self
    }

    /// Set the per-vertex frontier exchange payload.
    pub fn with_payload_bytes(mut self, bytes: u64) -> Self {
        self.payload_bytes = bytes;
        self
    }

    /// Declare an incremental repair implementation.
    pub fn with_incremental(mut self) -> Self {
        self.incremental = true;
        self
    }

    /// Declare a [`VertexProgram::retain`] predicate.
    pub fn with_filter(mut self) -> Self {
        self.filters = true;
        self
    }
}

/// A capability mismatch between a program and a requested configuration.
///
/// Raised at *configuration build / admission time* (CLI validation, serve
/// job admission, `AsceticConfig` checks) — never mid-run: engines treat
/// [`Capabilities`] as ground truth and silently fall back where the
/// request was only a preference (adaptive direction), but a *forced*
/// incompatible request surfaces as this typed error instead of the old
/// `unimplemented!()` panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlgoError {
    /// `--direction pull` was forced for a program whose
    /// [`Capabilities::pull`] is off.
    PullUnsupported {
        /// Program display name.
        algo: &'static str,
    },
    /// A weighted-graph program was handed an unweighted graph (or vice
    /// versa).
    WeightsMismatch {
        /// Program display name.
        algo: &'static str,
        /// Whether the program requires weights.
        needs_weights: bool,
    },
    /// `--source` names no vertex of the graph the program would run on.
    SourceOutOfRange {
        /// The rejected root.
        source: VertexId,
        /// The graph's vertex count.
        vertices: usize,
    },
}

impl std::fmt::Display for AlgoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AlgoError::PullUnsupported { algo } => write!(
                f,
                "--direction pull: {algo} is push-only (no pull operator)"
            ),
            AlgoError::WeightsMismatch {
                algo,
                needs_weights: true,
            } => write!(f, "{algo} requires a weighted graph"),
            AlgoError::WeightsMismatch {
                algo,
                needs_weights: false,
            } => write!(f, "{algo} runs on the unweighted graph variant"),
            AlgoError::SourceOutOfRange { source, vertices } => write!(
                f,
                "--source {source} is not a vertex of a {vertices}-vertex graph"
            ),
        }
    }
}

impl std::error::Error for AlgoError {}

/// A vertex program: per-edge/per-vertex functors plus a [`Capabilities`]
/// descriptor, composed into runs by the operators in [`crate::ops`].
pub trait VertexProgram: Sync {
    /// Per-run mutable state (device-resident vertex arrays; atomics).
    type State: Sync + Send;

    /// Display name ("BFS", "SSSP", ...).
    fn name(&self) -> &'static str;

    /// The program's capability descriptor. Engines consult this — and
    /// only this — to decide which functors may be invoked and how to
    /// budget frontier traffic.
    fn capabilities(&self) -> Capabilities {
        Capabilities::default()
    }

    /// Allocate and initialize state for `g`.
    fn new_state(&self, g: &Csr) -> Self::State;

    /// The iteration-0 frontier (of the first phase).
    fn initial_frontier(&self, g: &Csr) -> Bitmap;

    /// *Compute* functor: a per-iteration map over the (frozen) active
    /// set, run once on the orchestration thread before any advance of
    /// that iteration. PR claims residuals here so that split edge
    /// delivery cannot double-claim; label propagation adopts labels here.
    fn compute(&self, iteration: u32, active: &Bitmap, state: &Self::State) {
        let _ = (iteration, active, state);
    }

    /// Push *advance* functor: process (a piece of) the out-edges of
    /// active vertex `src`, pushing updates into `state` and activating
    /// vertices in `next`. `lane` is the index of the worker running this
    /// call, unique among the calls in flight at any moment
    /// ([`ascetic_par::parallel_for_work`]'s lane contract): a program may
    /// accumulate into per-lane state without synchronization, provided it
    /// folds the lanes back in [`VertexProgram::settle`]. Most programs
    /// ignore it.
    fn advance_push(
        &self,
        lane: usize,
        src: VertexId,
        edges: EdgeSlice<'_>,
        state: &Self::State,
        next: &AtomicBitmap,
    );

    /// Mark in `out` — handed over all-clear, one bit per vertex of `g`,
    /// and recycled by the caller across iterations — the vertices whose
    /// in-edge rows a pull iteration must scan, given the frozen `active`
    /// frontier. BFS/CC pull over the still unconverged vertices; PR's
    /// gather touches every vertex. Never called when
    /// [`Capabilities::pull`] is off (the default marks nothing, making an
    /// erroneous call benign rather than a panic).
    fn pull_targets_into(&self, g: &Csr, active: &Bitmap, state: &Self::State, out: &mut Bitmap) {
        let _ = (g, active, state, out);
    }

    /// Pull *advance* functor: process target vertex `v`'s in-edges
    /// (sources of edges pointing at `v`), gathering from parents that are
    /// set in the frozen `active` bitmap, updating `state` and activating
    /// `v` in `next` exactly as the push formulation would. Returns the
    /// number of in-edges actually scanned (early-exit may stop before the
    /// row ends), which the session charges to the pull kernel's cost
    /// model. Must be correct under partial, repeated delivery of a row,
    /// like [`VertexProgram::advance_push`]. Never called when
    /// [`Capabilities::pull`] is off (the default scans nothing).
    fn advance_pull(
        &self,
        v: VertexId,
        in_edges: EdgeSlice<'_>,
        active: &Bitmap,
        state: &Self::State,
        next: &AtomicBitmap,
    ) -> u64 {
        let _ = (v, in_edges, active, state, next);
        0
    }

    /// *Settle* hook: fold whatever the advance functors deferred into
    /// per-lane state back into `state`, activating vertices in `next`
    /// exactly as the undeferred updates would have. Called by
    /// [`crate::ops::NextFrontier`] on the orchestration thread, with no
    /// advance in flight, before every copy-out of the next frontier — so
    /// nothing ever reads a frontier (or, an iteration later, a state) with
    /// updates still parked in a lane. Must be idempotent. The default —
    /// programs whose advance writes `state` directly — does nothing.
    fn settle(&self, state: &Self::State, next: &AtomicBitmap) {
        let _ = (state, next);
    }

    /// *Filter* functor: whether an activated vertex should stay in the
    /// next frontier. A pure predicate over `state`, applied by the filter
    /// operator after every advance; the default keeps everything (exact
    /// frontier programs). Label propagation drops vertices whose label
    /// cannot change. Only called when [`Capabilities::filters`] is on.
    fn retain(&self, v: VertexId, state: &Self::State) -> bool {
        let _ = (v, state);
        true
    }

    /// Phase-transition hook for multi-phase programs, consulted when the
    /// frontier drains. `finished` phases (0-based) have completed; return
    /// the next phase's initial frontier to continue, or `None` to end the
    /// run. Betweenness centrality runs a forward BFS phase, then one
    /// dependency-accumulation phase per BFS level, walking back toward
    /// the source. The iteration counter keeps climbing across phases and
    /// [`VertexProgram::max_iterations`] bounds the whole run.
    fn next_phase(&self, finished: u32, g: &Csr, state: &Self::State) -> Option<Bitmap> {
        let _ = (finished, g, state);
        None
    }

    /// Extract the final answer.
    fn output(&self, state: &Self::State) -> AlgoOutput;

    /// Safety valve for non-converging configurations.
    fn max_iterations(&self) -> u32 {
        10_000
    }

    /// Repair converged state after a mutation batch: adjust `state` in
    /// place (through the same interior mutability the operators use) and
    /// return where the engine should re-run the operator core from.
    /// `g_old` is the pre-patch graph (dependency closures are judged on
    /// the edges the converged state was computed over), `g_new` /
    /// `csc_new` the post-patch graph and its transpose (when the session
    /// maintains a mirror). Only called when [`Capabilities::incremental`]
    /// is on; the default — never reached through a capability-honoring
    /// engine — asks for a restart.
    fn repair(
        &self,
        g_old: &Csr,
        g_new: &Csr,
        csc_new: Option<&Csr>,
        patch: &GraphPatch,
        state: &Self::State,
    ) -> RepairPlan {
        let _ = (g_old, g_new, csc_new, patch, state);
        RepairPlan::Restart
    }
}

/// Bytes of vertex-array state a program keeps on the device per vertex —
/// used by the systems' device-memory budgeting (vertices always stay on
/// the GPU per the paper). Conservative common bound: value arrays plus
/// offsets/degrees plus the two bitmaps round to ~24 B/vertex.
pub const DEVICE_BYTES_PER_VERTEX: u64 = 24;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_separates_variants_and_values() {
        let a = AlgoOutput::Distances(vec![1, 2, 3]);
        let b = AlgoOutput::Labels(vec![1, 2, 3]);
        let c = AlgoOutput::Distances(vec![1, 2, 4]);
        assert_eq!(a.fingerprint(), a.fingerprint());
        assert_eq!(a.fingerprint(), b.fingerprint()); // same payload class
        assert_ne!(a.fingerprint(), c.fingerprint());
        let r1 = AlgoOutput::Ranks(vec![0.5, 0.25]);
        let r2 = AlgoOutput::Ranks(vec![0.5, 0.125]);
        assert_ne!(r1.fingerprint(), r2.fingerprint());
    }

    /// Every `(target, weight)` pair [`EdgeSlice::for_each_edge`] visits.
    fn edges_of(s: EdgeSlice<'_>) -> Vec<(VertexId, u32)> {
        let mut v = Vec::new();
        s.for_each_edge(|t, w| v.push((t, w)));
        v
    }

    /// Every target [`EdgeSlice::for_each_target`] visits.
    fn targets_of(s: EdgeSlice<'_>) -> Vec<VertexId> {
        let mut v = Vec::new();
        s.for_each_target(|t| v.push(t));
        v
    }

    #[test]
    fn unweighted_slice_iteration() {
        let words = [5u32, 6, 7];
        let s = EdgeSlice::new(&words, false);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(edges_of(s), vec![(5, 1), (6, 1), (7, 1)]);
        assert_eq!(targets_of(s).len(), 3);
    }

    #[test]
    fn weighted_slice_iteration() {
        let words = [5u32, 10, 6, 20];
        let s = EdgeSlice::new(&words, true);
        assert_eq!(s.len(), 2);
        assert_eq!(edges_of(s), vec![(5, 10), (6, 20)]);
    }

    #[test]
    fn for_each_target_agrees_with_for_each_edge_in_every_layout() {
        let (targets, weights) = ([3u32, 4, 9], [30u32, 40, 90]);
        let slices = [
            EdgeSlice::new(&targets, false),
            EdgeSlice::new(&[3, 30, 4, 40, 9, 90], true),
            EdgeSlice::split(&targets, None),
            EdgeSlice::split(&targets, Some(&weights)),
            EdgeSlice::new(&[], true),
        ];
        for s in slices {
            let want = targets[..s.len()].to_vec();
            assert_eq!(targets_of(s), want);
            assert_eq!(
                edges_of(s).into_iter().map(|(t, _)| t).collect::<Vec<_>>(),
                targets_of(s)
            );
            assert_eq!(edges_of(s).len(), s.len());
        }
    }

    #[test]
    fn try_for_each_target_stops_at_the_first_break_in_every_layout() {
        let (targets, weights) = ([3u32, 4, 9], [30u32, 40, 90]);
        let slices = [
            EdgeSlice::new(&targets, false),
            EdgeSlice::new(&[3, 30, 4, 40, 9, 90], true),
            EdgeSlice::split(&targets, None),
            EdgeSlice::split(&targets, Some(&weights)),
        ];
        for s in slices {
            let mut seen = Vec::new();
            let stop = s.try_for_each_target(|t| {
                seen.push(t);
                if t == 4 {
                    ControlFlow::Break(t)
                } else {
                    ControlFlow::Continue(())
                }
            });
            assert_eq!(stop, ControlFlow::Break(4));
            assert_eq!(seen, vec![3, 4]);
            let mut all = Vec::new();
            let run = s.try_for_each_target(|t| {
                all.push(t);
                ControlFlow::<()>::Continue(())
            });
            assert_eq!(run, ControlFlow::Continue(()));
            assert_eq!(all, targets_of(s));
        }
    }

    #[test]
    fn empty_slice() {
        let s = EdgeSlice::new(&[], true);
        assert!(s.is_empty());
        assert_eq!(edges_of(s), vec![]);
        assert_eq!(targets_of(s), vec![]);
    }

    #[test]
    fn split_slice_unweighted() {
        let t = [3u32, 4];
        let s = EdgeSlice::split(&t, None);
        assert_eq!(s.len(), 2);
        assert!(!s.weighted());
        assert_eq!(edges_of(s), vec![(3, 1), (4, 1)]);
    }

    #[test]
    fn split_slice_weighted_matches_packed() {
        let targets = [3u32, 4, 9];
        let weights = [30u32, 40, 90];
        let split = EdgeSlice::split(&targets, Some(&weights));
        let packed_words = [3u32, 30, 4, 40, 9, 90];
        let packed = EdgeSlice::new(&packed_words, true);
        assert!(split.weighted());
        assert_eq!(edges_of(split), edges_of(packed));
        assert_eq!(edges_of(split), vec![(3, 30), (4, 40), (9, 90)]);
        assert_eq!(split.len(), packed.len());
    }

    #[test]
    fn output_mismatch_detection() {
        let a = AlgoOutput::Distances(vec![0, 1, 2]);
        let b = AlgoOutput::Distances(vec![0, 1, 3]);
        assert_eq!(a.first_mismatch(&b, 0.0), Some(2));
        assert_eq!(a.first_mismatch(&a.clone(), 0.0), None);

        let r1 = AlgoOutput::Ranks(vec![0.5, 0.25]);
        let r2 = AlgoOutput::Ranks(vec![0.5 + 1e-12, 0.25]);
        assert_eq!(r1.first_mismatch(&r2, 1e-9), None);
        assert_eq!(r1.first_mismatch(&r2, 1e-15), Some(0));

        assert_eq!(a.first_mismatch(&r1, 0.0), Some(0), "type mismatch");
        let short = AlgoOutput::Distances(vec![0]);
        assert_eq!(a.first_mismatch(&short, 0.0), Some(1));
    }

    #[test]
    fn capabilities_builder_and_defaults() {
        let d = Capabilities::default();
        assert!(!d.weights && !d.pull && !d.batchable && !d.incremental && !d.filters);
        assert_eq!(d.payload_bytes, 4);
        let c = Capabilities::new()
            .with_weights()
            .with_pull()
            .with_batchable()
            .with_payload_bytes(12)
            .with_incremental()
            .with_filter();
        assert!(c.weights && c.pull && c.batchable && c.incremental && c.filters);
        assert_eq!(c.payload_bytes, 12);
    }

    #[test]
    fn algo_error_messages_name_the_program() {
        let e = AlgoError::PullUnsupported { algo: "SSSP" };
        let msg = e.to_string();
        assert!(msg.contains("SSSP") && msg.contains("push-only"), "{msg}");
        let w = AlgoError::WeightsMismatch {
            algo: "SSSP",
            needs_weights: true,
        };
        assert!(w.to_string().contains("weighted"), "{w}");
    }
}
