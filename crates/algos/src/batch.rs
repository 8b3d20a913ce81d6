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
            let old = state.reached[t as usize].fetch_or(mask, Ordering::Relaxed);
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
        let mut d = [INF_DIST; MAX_BATCH_LANES];
        let mut any = false;
        for (lane, dl) in d.iter_mut().enumerate().take(lanes) {
            *dl = state.frozen[src as usize * lanes + lane].load(Ordering::Relaxed);
            any |= *dl != INF_DIST;
        }
        if !any {
            return;
        }
        edges.for_each_edge(|t, w| {
            for (lane, &dl) in d.iter().enumerate().take(lanes) {
                if dl == INF_DIST {
                    continue;
                }
                let nd = dl.saturating_add(w);
                if atomic_min_u32(&state.dist[t as usize * lanes + lane], nd) {
                    next.set(t as usize);
                }
            }
        });
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
