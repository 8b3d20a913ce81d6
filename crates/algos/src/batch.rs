//! Batched single-source traversals with per-source outputs.
//!
//! The serve layer folds compatible queued BFS/SSSP jobs over one graph
//! into a single pass. Like MS-BFS they advance up to 64 traversals per
//! edge sweep over one frontier union (one read of the edge data for the
//! whole batch), and unlike it they keep every job's *own* answer in
//! per-lane distance arrays, so a batch's [`AlgoOutput::MultiDistances`]
//! lane `i` is byte-identical to running job `i` alone.
//!
//! Why the per-lane distances are exact:
//!
//! * **BFS** is level-synchronous under the frozen-mask discipline: any
//!   vertex that acquires a new source bit during iteration `it` is
//!   activated and pushes its whole mask during iteration `it + 1`, so a
//!   bit's first arrival at a vertex happens exactly at that source's BFS
//!   level. Recording `it + 1` at first-set time is therefore the true hop
//!   distance, and the `fetch_or` return value makes exactly one thread
//!   the recorder per (vertex, lane).
//! * **SSSP** runs one label-correcting Bellman–Ford per lane over the
//!   union frontier. Extra activations from sibling lanes only re-propose
//!   already-known distances (the atomic min rejects them), so each lane
//!   converges to the same fixed point as a solo run.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use ascetic_graph::{Csr, VertexId, INF_DIST};
use ascetic_par::{atomic_min_u32, AtomicBitmap, Bitmap};

use crate::traits::{AlgoOutput, Capabilities, EdgeSlice, VertexProgram};

/// Largest batch either program accepts (one bit per lane in the BFS
/// masks; SSSP keeps the same bound so batches are interchangeable).
pub const MAX_BATCH_LANES: usize = 64;

fn check_lanes(sources: &[VertexId]) {
    assert!(
        !sources.is_empty() && sources.len() <= MAX_BATCH_LANES,
        "batched traversal takes 1..=64 sources"
    );
}

/// Concurrent BFS from up to 64 sources, one distance vector per source.
#[derive(Clone, Debug)]
pub struct MsBfsDistances {
    /// Source vertices, one lane each (duplicates allowed — lanes are
    /// independent).
    pub sources: Vec<VertexId>,
}

impl MsBfsDistances {
    /// Batched BFS from `sources`.
    ///
    /// # Panics
    /// Panics if `sources` is empty or holds more than 64 vertices.
    pub fn new(sources: Vec<VertexId>) -> Self {
        check_lanes(&sources);
        MsBfsDistances { sources }
    }
}

/// Batched-BFS state: MS-BFS reachability masks plus lane-major distances
/// (`dist[v * lanes + lane]`) and the level every bit set this iteration
/// corresponds to.
pub struct MsBfsDistancesState {
    reached: Vec<AtomicU64>,
    frozen: Vec<AtomicU64>,
    dist: Vec<AtomicU32>,
    next_dist: AtomicU32,
    lanes: usize,
}

impl VertexProgram for MsBfsDistances {
    type State = MsBfsDistancesState;

    fn name(&self) -> &'static str {
        "MS-BFS-D"
    }

    fn new_state(&self, g: &Csr) -> MsBfsDistancesState {
        let n = g.num_vertices();
        let lanes = self.sources.len();
        let reached: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let dist: Vec<AtomicU32> = (0..n * lanes).map(|_| AtomicU32::new(INF_DIST)).collect();
        for (i, &s) in self.sources.iter().enumerate() {
            reached[s as usize].fetch_or(1 << i, Ordering::Relaxed);
            dist[s as usize * lanes + i].store(0, Ordering::Relaxed);
        }
        MsBfsDistancesState {
            reached,
            frozen: (0..n).map(|_| AtomicU64::new(0)).collect(),
            dist,
            next_dist: AtomicU32::new(1),
            lanes,
        }
    }

    fn initial_frontier(&self, g: &Csr) -> Bitmap {
        let mut b = Bitmap::new(g.num_vertices());
        for &s in &self.sources {
            b.set(s as usize);
        }
        b
    }

    fn compute(&self, iteration: u32, active: &Bitmap, state: &MsBfsDistancesState) {
        state.next_dist.store(iteration + 1, Ordering::Relaxed);
        for v in active.iter_ones() {
            state.frozen[v].store(state.reached[v].load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    #[inline]
    fn advance_push(
        &self,
        _lane: usize,
        src: VertexId,
        edges: EdgeSlice<'_>,
        state: &MsBfsDistancesState,
        next: &AtomicBitmap,
    ) {
        let mask = state.frozen[src as usize].load(Ordering::Relaxed);
        if mask == 0 {
            return;
        }
        let d = state.next_dist.load(Ordering::Relaxed);
        edges.for_each_target(|t| {
            let reached = &state.reached[t as usize];
            // Bits only rise during a run, so a load already holding all of
            // `mask` proves the `fetch_or` a no-op (as in `atomic_min_u32`).
            if reached.load(Ordering::Relaxed) & mask == mask {
                return;
            }
            let old = reached.fetch_or(mask, Ordering::Relaxed);
            let mut new = mask & !old;
            if new == 0 {
                return;
            }
            next.set(t as usize);
            // exactly one thread sees each bit as new, so these stores are
            // per-(vertex, lane) unique
            while new != 0 {
                let lane = new.trailing_zeros() as usize;
                state.dist[t as usize * state.lanes + lane].store(d, Ordering::Relaxed);
                new &= new - 1;
            }
        });
    }

    fn output(&self, state: &MsBfsDistancesState) -> AlgoOutput {
        AlgoOutput::MultiDistances(
            (0..state.lanes)
                .map(|lane| {
                    state
                        .dist
                        .iter()
                        .skip(lane)
                        .step_by(state.lanes)
                        .map(|d| d.load(Ordering::Relaxed))
                        .collect()
                })
                .collect(),
        )
    }
}

/// Concurrent SSSP from up to 64 sources, one distance vector per source.
#[derive(Clone, Debug)]
pub struct MsSsspDistances {
    /// Source vertices, one lane each (duplicates allowed).
    pub sources: Vec<VertexId>,
}

impl MsSsspDistances {
    /// Batched SSSP from `sources`.
    ///
    /// # Panics
    /// Panics if `sources` is empty or holds more than 64 vertices.
    pub fn new(sources: Vec<VertexId>) -> Self {
        check_lanes(&sources);
        MsSsspDistances { sources }
    }
}

/// Batched-SSSP state: lane-major distance array plus the bulk-synchronous
/// iteration snapshot (see [`crate::bfs::BfsState`]).
pub struct MsSsspDistancesState {
    dist: Vec<AtomicU32>,
    frozen: Vec<AtomicU32>,
    lanes: usize,
}

impl VertexProgram for MsSsspDistances {
    type State = MsSsspDistancesState;

    fn name(&self) -> &'static str {
        "MS-SSSP-D"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::new().with_weights()
    }

    fn new_state(&self, g: &Csr) -> MsSsspDistancesState {
        assert!(g.is_weighted(), "SSSP requires a weighted graph");
        let n = g.num_vertices();
        let lanes = self.sources.len();
        let dist: Vec<AtomicU32> = (0..n * lanes).map(|_| AtomicU32::new(INF_DIST)).collect();
        for (i, &s) in self.sources.iter().enumerate() {
            dist[s as usize * lanes + i].store(0, Ordering::Relaxed);
        }
        MsSsspDistancesState {
            dist,
            frozen: (0..n * lanes).map(|_| AtomicU32::new(INF_DIST)).collect(),
            lanes,
        }
    }

    fn initial_frontier(&self, g: &Csr) -> Bitmap {
        let mut b = Bitmap::new(g.num_vertices());
        for &s in &self.sources {
            b.set(s as usize);
        }
        b
    }

    fn compute(&self, _iteration: u32, active: &Bitmap, state: &MsSsspDistancesState) {
        for v in active.iter_ones() {
            for lane in 0..state.lanes {
                let i = v * state.lanes + lane;
                state.frozen[i].store(state.dist[i].load(Ordering::Relaxed), Ordering::Relaxed);
            }
        }
    }

    #[inline]
    fn advance_push(
        &self,
        _lane: usize,
        src: VertexId,
        edges: EdgeSlice<'_>,
        state: &MsSsspDistancesState,
        next: &AtomicBitmap,
    ) {
        debug_assert!(edges.weighted(), "SSSP must receive weighted slices");
        let lanes = state.lanes;
        let frozen = &state.frozen[src as usize * lanes..][..lanes];
        // Lane-outer: one tight relax loop per lane that has a distance to
        // push, walking that lane's column of `dist`. Each (target, lane)
        // cell sees its proposals in edge order whatever the loop nesting,
        // so the pushes and frontier bits do not depend on it.
        for (lane, dl) in frozen.iter().enumerate() {
            let dl = dl.load(Ordering::Relaxed);
            if dl == INF_DIST {
                continue;
            }
            edges.for_each_edge(|t, w| {
                if atomic_min_u32(&state.dist[t as usize * lanes + lane], dl.saturating_add(w)) {
                    next.set(t as usize);
                }
            });
        }
    }

    fn output(&self, state: &MsSsspDistancesState) -> AlgoOutput {
        AlgoOutput::MultiDistances(
            (0..state.lanes)
                .map(|lane| {
                    state
                        .dist
                        .iter()
                        .skip(lane)
                        .step_by(state.lanes)
                        .map(|d| d.load(Ordering::Relaxed))
                        .collect()
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inmemory::run_in_memory;
    use crate::ops::{Drive, NextFrontier};
    use crate::reference::{bfs_reference, sssp_reference};
    use crate::{Bfs, Sssp};
    use ascetic_graph::datasets::weighted_variant;
    use ascetic_graph::generators::{rmat_graph, uniform_graph, RmatConfig};
    use ascetic_graph::GraphBuilder;

    fn lanes_of(out: &AlgoOutput) -> &Vec<Vec<u32>> {
        match out {
            AlgoOutput::MultiDistances(v) => v,
            other => panic!("expected MultiDistances, got {other:?}"),
        }
    }

    #[test]
    fn batched_bfs_lanes_on_a_path() {
        // 0 -> 1 -> 2 -> 3, sources {0, 2}
        let mut b = GraphBuilder::new(4);
        for v in 0..3u32 {
            b.add_edge(v, v + 1);
        }
        let g = b.build();
        let res = run_in_memory(&g, &MsBfsDistances::new(vec![0, 2]));
        assert_eq!(
            lanes_of(&res.output),
            &vec![vec![0, 1, 2, 3], vec![INF_DIST, INF_DIST, 0, 1],]
        );
    }

    #[test]
    fn batched_bfs_matches_individual_runs() {
        for seed in 0..3 {
            let g = uniform_graph(500, 3_000, false, seed);
            let sources: Vec<u32> = (0..48).map(|i| i * 17 % 500).collect();
            let res = run_in_memory(&g, &MsBfsDistances::new(sources.clone()));
            let lanes = lanes_of(&res.output);
            for (i, &s) in sources.iter().enumerate() {
                assert_eq!(lanes[i], bfs_reference(&g, s), "seed {seed} lane {i}");
                let solo = run_in_memory(&g, &Bfs::new(s));
                assert_eq!(solo.output, AlgoOutput::Distances(lanes[i].clone()));
            }
        }
    }

    #[test]
    fn batched_bfs_on_rmat_with_duplicate_sources() {
        let g = rmat_graph(&RmatConfig::new(10, 6_000, 21).undirected(true));
        let sources = vec![1, 5, 1, 500, 5];
        let res = run_in_memory(&g, &MsBfsDistances::new(sources.clone()));
        let lanes = lanes_of(&res.output);
        for (i, &s) in sources.iter().enumerate() {
            assert_eq!(lanes[i], bfs_reference(&g, s), "lane {i}");
        }
    }

    #[test]
    fn batched_sssp_matches_individual_runs() {
        for seed in 0..3 {
            let g = weighted_variant(&uniform_graph(400, 2_400, false, seed));
            let sources: Vec<u32> = (0..24).map(|i| i * 13 % 400).collect();
            let res = run_in_memory(&g, &MsSsspDistances::new(sources.clone()));
            let lanes = lanes_of(&res.output);
            for (i, &s) in sources.iter().enumerate() {
                assert_eq!(lanes[i], sssp_reference(&g, s), "seed {seed} lane {i}");
                let solo = run_in_memory(&g, &Sssp::new(s));
                assert_eq!(solo.output, AlgoOutput::Distances(lanes[i].clone()));
            }
        }
    }

    #[test]
    fn full_64_lane_batch() {
        let g = uniform_graph(300, 2_000, true, 9);
        let sources: Vec<u32> = (0..64).collect();
        let res = run_in_memory(&g, &MsBfsDistances::new(sources.clone()));
        let lanes = lanes_of(&res.output);
        for (i, &s) in sources.iter().enumerate() {
            assert_eq!(lanes[i], bfs_reference(&g, s), "lane {i}");
        }
    }

    /// Vertices 0..400 carry a sparse directed uniform graph; 400..404 are
    /// isolated, so a source there reaches nothing and no other source
    /// reaches it. Weighted, so both programs run on it.
    fn islands() -> Csr {
        let core = uniform_graph(400, 1_200, false, 5);
        let mut b = GraphBuilder::new(404);
        for v in 0..400u32 {
            for &t in core.neighbors(v) {
                b.add_edge(v, t);
            }
        }
        weighted_variant(&b.build())
    }

    /// Batches of 1, 2, 3 and 64 lanes, each with duplicate sources and a
    /// source that reaches nothing.
    fn lane_sets() -> Vec<Vec<VertexId>> {
        vec![
            vec![401],
            vec![17, 17],
            vec![3, 402, 3],
            (0..64u32)
                .map(|i| {
                    if i % 9 == 0 {
                        400 + i % 4
                    } else {
                        i * 37 % 400
                    }
                })
                .collect(),
        ]
    }

    /// Drive `prog` to completion as the in-memory runtime does, but hand
    /// every row to `advance_push` as a packed `[t, w]` slice — the device
    /// layout — rather than split host arrays. Returns the output, the
    /// iteration count and the per-iteration `(active vertices, active
    /// edges)`.
    fn run_packed<P: VertexProgram>(g: &Csr, prog: &P) -> (AlgoOutput, u32, Vec<(u64, u64)>) {
        let weights = g.weights().expect("a weighted graph");
        let packed: Vec<u32> = g
            .targets()
            .iter()
            .zip(weights)
            .flat_map(|(&t, &w)| [t, w])
            .collect();
        let state = prog.new_state(g);
        let mut active = prog.initial_frontier(g);
        let mut next = NextFrontier::new(g.num_vertices());
        let mut drive = Drive::new(prog, g, &state);
        let mut log = Vec::new();
        while drive.begin(&mut active).is_some() {
            let (mut vertices, mut edges) = (0, 0);
            for v in active.iter_ones() {
                let r = g.edge_range(v as VertexId);
                let words = &packed[2 * r.start as usize..2 * r.end as usize];
                let slice = EdgeSlice::new(words, true);
                (vertices, edges) = (vertices + 1, edges + slice.len() as u64);
                prog.advance_push(0, v as VertexId, slice, &state, next.writer());
            }
            log.push((vertices, edges));
            drive.end(&mut active, &mut next);
        }
        (prog.output(&state), drive.iterations(), log)
    }

    /// [`run_in_memory`] (split host slices) in [`run_packed`]'s shape.
    fn run_split<P: VertexProgram>(g: &Csr, prog: &P) -> (AlgoOutput, u32, Vec<(u64, u64)>) {
        let res = run_in_memory(g, prog);
        let log = res
            .log
            .iter()
            .map(|l| (l.active_vertices, l.active_edges))
            .collect();
        (res.output, res.iterations, log)
    }

    type Runner<P> = fn(&Csr, &P) -> (AlgoOutput, u32, Vec<(u64, u64)>);

    /// Every lane of a batch equals its source's solo run through the same
    /// slice layout, and the batch takes as many iterations as the longest
    /// solo run — so its virtual charge is the union frontier's, not more.
    fn check_lanes_against_solo<B: VertexProgram, S: VertexProgram>(
        batch: impl Fn(Vec<VertexId>) -> B,
        solo: impl Fn(VertexId) -> S,
        run_batch: Runner<B>,
        run_solo: Runner<S>,
    ) {
        let g = islands();
        for sources in lane_sets() {
            let (out, iterations, _) = run_batch(&g, &batch(sources.clone()));
            let mut longest = 0;
            for (i, &s) in sources.iter().enumerate() {
                let (want, solo_iterations, _) = run_solo(&g, &solo(s));
                assert_eq!(
                    want,
                    AlgoOutput::Distances(lanes_of(&out)[i].clone()),
                    "{} lanes, lane {i} from {s}",
                    sources.len()
                );
                longest = longest.max(solo_iterations);
            }
            assert_eq!(iterations, longest, "{} lanes", sources.len());
        }
    }

    #[test]
    fn batched_bfs_lanes_equal_solo_runs_on_both_layouts() {
        check_lanes_against_solo(MsBfsDistances::new, Bfs::new, run_split, run_split);
        check_lanes_against_solo(MsBfsDistances::new, Bfs::new, run_packed, run_packed);
    }

    #[test]
    fn batched_sssp_lanes_equal_solo_runs_on_both_layouts() {
        check_lanes_against_solo(MsSsspDistances::new, Sssp::new, run_split, run_split);
        check_lanes_against_solo(MsSsspDistances::new, Sssp::new, run_packed, run_packed);
    }

    /// FNV-1a over every iteration's `(active vertices, active edges)`.
    fn activity_hash(log: &[(u64, u64)]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &(v, e) in log {
            for b in v.to_le_bytes().into_iter().chain(e.to_le_bytes()) {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// The batch kernels' per-iteration activity — what the virtual kernel
    /// charge is computed from — pinned on a fixed graph and batch, through
    /// both slice layouts. Changing a kernel's loop shape must not move it.
    #[test]
    fn batch_activity_per_iteration_is_pinned() {
        let g = islands();
        let sources = lane_sets().pop().expect("four lane sets");
        let bfs = MsBfsDistances::new(sources.clone());
        let sssp = MsSsspDistances::new(sources);
        let runs = [
            ("MS-BFS-D split", run_split(&g, &bfs)),
            ("MS-BFS-D packed", run_packed(&g, &bfs)),
            ("MS-SSSP-D split", run_split(&g, &sssp)),
            ("MS-SSSP-D packed", run_packed(&g, &sssp)),
        ];
        let got: Vec<(&str, u32, u64)> = runs
            .iter()
            .map(|(name, (_, iterations, log))| (*name, *iterations, activity_hash(log)))
            .collect();
        // harvested on the edge-outer kernels this test was written against
        let want = [
            ("MS-BFS-D split", 15, 0xf818_ac6d_8796_6575),
            ("MS-BFS-D packed", 15, 0xf818_ac6d_8796_6575),
            ("MS-SSSP-D split", 19, 0xd5c4_e782_931b_0358),
            ("MS-SSSP-D packed", 19, 0xd5c4_e782_931b_0358),
        ];
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "1..=64")]
    fn rejects_oversized_batch() {
        MsBfsDistances::new((0..65).collect());
    }

    #[test]
    #[should_panic(expected = "1..=64")]
    fn rejects_empty_batch() {
        MsSsspDistances::new(vec![]);
    }
}
