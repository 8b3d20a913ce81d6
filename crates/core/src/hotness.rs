//! Per-chunk hotness tracking: the replacement policies' evidence (paper
//! §3.4, Fig 6).
//!
//! "For each chunk, a counter is assigned to record the number of accesses
//! in the earlier iterations. If the counter exceeds a threshold, it means
//! the chunk is stale." The paper sketches two policy flavors — cumulative
//! counting for one-shot traversals (BFS) and last-iteration recency for
//! iterative ranking (PageRank) — both implemented here behind
//! [`ReplacementPolicy`]. A server thread in the On-demand Engine performs
//! the swaps while the GPU processes the on-demand region; the Manager
//! bounds the swap volume by that overlap window's transfer budget
//! (§5: "only about 2% of the total data transfer can be completed during
//! that time"). The swaps are opt-in ([`ReplacementPolicy::Disabled`] is
//! the default, `DESIGN.md` §19) and planned, like every region op, by
//! [`crate::prefetch::plan_ops`]; the table itself also serves lazy fill,
//! next-frontier prefetch and the compressed path's wire-size cache.

use ascetic_graph::chunks::{ChunkGeometry, ChunkId};
use ascetic_graph::{Csr, VertexId};

use crate::config::ReplacementPolicy;

/// Per-chunk access statistics, plus per-chunk metadata reused across
/// iterations by the compressed transfer path.
pub struct HotnessTable {
    policy: ReplacementPolicy,
    /// Cumulative access count per chunk.
    counts: Vec<u32>,
    /// Stamp of the last iteration each chunk was accessed (0 = never).
    /// Stamps count iterations over the whole session, not within a run:
    /// `run_base + iteration + 1`, so an access at iteration `i` of an
    /// earlier run never reads as an access at iteration `i` of this one.
    last_access: Vec<u32>,
    /// Stamp of the last iteration before the current run.
    run_base: u32,
    /// Highest stamp issued so far.
    newest: u32,
    /// Cached delta–varint encoded size of each chunk's edge payload
    /// (0 = not yet measured; a real chunk never encodes to zero bytes).
    /// The adaptive crossover prices a transfer from these instead of
    /// re-encoding candidate payloads every iteration.
    wire_bytes: Vec<u32>,
}

impl HotnessTable {
    /// A table over `num_chunks` chunks.
    pub fn new(num_chunks: usize, policy: ReplacementPolicy) -> Self {
        HotnessTable {
            policy,
            counts: vec![0; num_chunks],
            last_access: vec![0; num_chunks],
            run_base: 0,
            newest: 0,
            wire_bytes: vec![0; num_chunks],
        }
    }

    /// Start a new run: its iteration indices restart at 0, its stamps
    /// continue after the previous run's.
    pub fn begin_run(&mut self) {
        self.run_base = self.newest;
    }

    /// The session-wide stamp of this run's `iteration` (0-based).
    fn stamp(&self, iteration: u32) -> u32 {
        self.run_base.saturating_add(iteration).saturating_add(1)
    }

    fn touch(&mut self, chunk: ChunkId, hits: u32, iteration: u32) {
        let stamp = self.stamp(iteration);
        self.counts[chunk as usize] = self.counts[chunk as usize].saturating_add(hits);
        self.last_access[chunk as usize] = stamp;
        self.newest = self.newest.max(stamp);
    }

    /// Cached encoded size of `chunk`'s payload, if measured.
    pub fn cached_wire_bytes(&self, chunk: ChunkId) -> Option<u64> {
        match self.wire_bytes[chunk as usize] {
            0 => None,
            b => Some(b as u64),
        }
    }

    /// Cache the measured encoded size of `chunk`'s payload.
    pub fn cache_wire_bytes(&mut self, chunk: ChunkId, bytes: u64) {
        debug_assert!(bytes > 0, "a chunk never encodes to zero bytes");
        self.wire_bytes[chunk as usize] = bytes.min(u32::MAX as u64) as u32;
    }

    /// Resize the table to a patched graph's chunk count. New chunks start
    /// cold and unmeasured; shrinking drops the tail stats. Access history
    /// for surviving chunks is kept — chunk boundaries are stable under
    /// patching (geometry depends only on chunk/edge byte sizes), so a
    /// surviving chunk still covers the same edge range.
    pub fn resize(&mut self, num_chunks: usize) {
        self.counts.resize(num_chunks, 0);
        self.last_access.resize(num_chunks, 0);
        self.wire_bytes.resize(num_chunks, 0);
    }

    /// Drop cached wire sizes for every chunk at or after `first_dirty`:
    /// a patch changed their payload (or shifted it), so the encoded sizes
    /// must be re-measured before the compressed path may price them.
    pub fn invalidate_wire_from(&mut self, first_dirty: ChunkId) {
        for b in self.wire_bytes.iter_mut().skip(first_dirty as usize) {
            *b = 0;
        }
    }

    /// Record that `chunk` was accessed during `iteration` (0-based).
    pub fn record(&mut self, chunk: ChunkId, iteration: u32) {
        self.touch(chunk, 1, iteration);
    }

    /// Record accesses for every chunk covering the edges of `nodes` — one
    /// [`HotnessTable::record`] per (vertex, chunk) pair.
    ///
    /// Frontier node lists ascend, so consecutive vertices mostly fall in
    /// the chunk the previous one ended in: those hits are counted against
    /// that chunk's edge window and booked in one go, without re-deriving
    /// the chunk (two divisions) per vertex.
    pub fn record_vertices(
        &mut self,
        g: &Csr,
        geo: &ChunkGeometry,
        nodes: &[VertexId],
        iteration: u32,
    ) {
        let mut run = (0 as ChunkId, 0..0u64, 0u32); // chunk, its edges, hits
        for &v in nodes {
            let r = g.edge_range(v);
            if r.start >= run.1.start && r.end <= run.1.end && !r.is_empty() {
                run.2 += 1;
                continue;
            }
            let Some(chunks) = geo.chunks_of_vertex(g, v) else {
                continue;
            };
            self.record_hits(run.0, run.2, iteration);
            let last = *chunks.end();
            for c in *chunks.start()..last {
                self.record(c, iteration);
            }
            run = (last, geo.edge_range(last), 1);
        }
        self.record_hits(run.0, run.2, iteration);
    }

    /// `hits` back-to-back [`HotnessTable::record`]s of one chunk.
    fn record_hits(&mut self, chunk: ChunkId, hits: u32, iteration: u32) {
        if hits > 0 {
            self.touch(chunk, hits, iteration);
        }
    }

    /// Whether `chunk` was accessed during `iteration` (0-based) — its
    /// most recent touch is that very iteration. The prefetch pipeline's
    /// hit test: a prefetched chunk counts as a hit iff the next iteration
    /// really demanded it.
    pub fn demanded_at(&self, chunk: ChunkId, iteration: u32) -> bool {
        self.last_access[chunk as usize] == self.stamp(iteration)
    }

    /// Cumulative access count of `chunk` (zero marks a never-touched
    /// chunk — the prefetch planner evicts those last).
    pub fn access_count(&self, chunk: ChunkId) -> u32 {
        self.counts[chunk as usize]
    }

    /// Raw recency stamp of `chunk`: session-wide count of the iteration
    /// that last accessed it, 0 = never touched. Orders eviction
    /// candidates coldest-first, across runs as within one.
    pub fn last_access_stamp(&self, chunk: ChunkId) -> u32 {
        self.last_access[chunk as usize]
    }

    /// Whether `chunk` is stale per the policy, judged at `iteration`.
    pub fn is_stale(&self, chunk: ChunkId, iteration: u32) -> bool {
        match self.policy {
            ReplacementPolicy::Disabled => false,
            ReplacementPolicy::Cumulative { stale_threshold } => {
                self.counts[chunk as usize] >= stale_threshold
            }
            ReplacementPolicy::LastIteration => !self.demanded_at(chunk, iteration),
        }
    }

    /// Whether `chunk` is hot (worth loading) at `iteration`: it was
    /// demanded this iteration and is not itself stale.
    pub fn is_hot(&self, chunk: ChunkId, iteration: u32) -> bool {
        self.demanded_at(chunk, iteration) && !self.is_stale(chunk, iteration)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FillPolicy;
    use crate::prefetch::{plan_ops, OpSource, PrefetchOp};
    use crate::static_region::StaticRegion;
    use ascetic_graph::GraphBuilder;
    use ascetic_sim::{DeviceConfig, Gpu};

    fn line_graph(n: usize) -> Csr {
        let mut b = GraphBuilder::new(n);
        for v in 0..n - 1 {
            b.add_edge(v as u32, v as u32 + 1);
        }
        b.build()
    }

    /// The replacement server's plan at `iteration`, as `(evict, load)`.
    fn plan_swaps(
        t: &mut HotnessTable,
        (g, geo): (&Csr, &ChunkGeometry),
        sr: &StaticRegion,
        iteration: u32,
        max_swaps: usize,
    ) -> Vec<(ChunkId, ChunkId)> {
        let source = OpSource::Replacement(iteration);
        plan_ops(source, g, geo, sr, t, max_swaps)
            .into_iter()
            .map(|op| match op {
                PrefetchOp::Swap { evict, load } => (evict, load),
                PrefetchOp::Load(c) => panic!("the server adopted {c} into a free slot"),
            })
            .collect()
    }

    #[test]
    fn cumulative_policy_marks_consumed_chunks_stale() {
        let mut t = HotnessTable::new(4, ReplacementPolicy::Cumulative { stale_threshold: 2 });
        t.record(0, 0);
        assert!(!t.is_stale(0, 0));
        t.record(0, 1);
        assert!(t.is_stale(0, 1));
        assert!(!t.is_stale(1, 1), "untouched chunk is fresh");
    }

    #[test]
    fn last_iteration_policy_tracks_recency() {
        let mut t = HotnessTable::new(2, ReplacementPolicy::LastIteration);
        t.record(0, 3);
        assert!(!t.is_stale(0, 3));
        assert!(t.is_stale(0, 4), "not touched in iteration 4");
        assert!(t.is_hot(0, 3));
        assert!(!t.is_hot(0, 4));
    }

    #[test]
    fn an_access_in_an_earlier_run_is_not_an_access_in_this_one() {
        let mut t = HotnessTable::new(3, ReplacementPolicy::LastIteration);
        t.record(0, 3);
        t.record(1, 5);
        assert!(t.demanded_at(0, 3) && t.is_hot(0, 3));
        // a second run reaches the same iteration index without touching
        // chunk 0: the old stamp must read as stale, not as this iteration
        t.begin_run();
        t.record(2, 3);
        assert!(!t.demanded_at(0, 3), "run 1's iteration 3 is not run 2's");
        assert!(!t.is_hot(0, 3) && t.is_stale(0, 3));
        assert!(t.demanded_at(2, 3) && !t.is_stale(2, 3));
        // and recency orders across runs: anything touched in run 1 is
        // older than anything touched in run 2, whatever the indices
        assert!(t.last_access_stamp(1) < t.last_access_stamp(2));
        assert!(t.last_access_stamp(0) < t.last_access_stamp(1));
        assert_eq!(t.access_count(0), 1, "counts are cumulative as before");
    }

    #[test]
    fn disabled_policy_never_plans() {
        let g = line_graph(33);
        let geo = ChunkGeometry::with_chunk_bytes(&g, 16);
        let mut gpu = Gpu::new(DeviceConfig::p100(1 << 20));
        let mut sr = StaticRegion::new(&mut gpu, &g, geo, 2 * 16);
        let plan = sr.plan_fill(FillPolicy::Front, 2);
        sr.fill(&mut gpu, &g, &plan);
        let mut t = HotnessTable::new(geo.num_chunks(), ReplacementPolicy::Disabled);
        t.record(5, 0);
        assert!(plan_swaps(&mut t, (&g, &geo), &sr, 0, 10).is_empty());
        assert!(!t.is_stale(0, 9));
    }

    #[test]
    fn record_vertices_touches_their_chunks() {
        let g = line_graph(33); // 32 edges; 4-edge chunks
        let geo = ChunkGeometry::with_chunk_bytes(&g, 16);
        let mut t = HotnessTable::new(geo.num_chunks(), ReplacementPolicy::LastIteration);
        // vertex 9's edge index is 9 -> chunk 2
        t.record_vertices(&g, &geo, &[9], 0);
        assert!(t.is_hot(2, 0));
        assert!(!t.is_hot(1, 0));
        // zero-degree tail vertex touches nothing
        t.record_vertices(&g, &geo, &[32], 0);
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
            let mut fast = HotnessTable::new(geo.num_chunks(), ReplacementPolicy::LastIteration);
            let mut slow = HotnessTable::new(geo.num_chunks(), ReplacementPolicy::LastIteration);
            for iter in [0, 3] {
                fast.record_vertices(&g, &geo, &nodes, iter);
                for &v in &nodes {
                    for c in geo.chunks_of_vertex(&g, v).into_iter().flatten() {
                        slow.record(c, iter);
                    }
                }
            }
            assert_eq!(fast.counts, slow.counts);
            assert_eq!(fast.last_access, slow.last_access);
        }
    }

    #[test]
    fn wire_byte_cache_round_trips() {
        let mut t = HotnessTable::new(4, ReplacementPolicy::LastIteration);
        assert_eq!(t.cached_wire_bytes(2), None);
        t.cache_wire_bytes(2, 1234);
        assert_eq!(t.cached_wire_bytes(2), Some(1234));
        assert_eq!(t.cached_wire_bytes(3), None, "other chunks unaffected");
    }

    #[test]
    fn plan_swaps_pairs_stale_with_hot() {
        let g = line_graph(33);
        let geo = ChunkGeometry::with_chunk_bytes(&g, 16); // 8 chunks
        let mut gpu = Gpu::new(DeviceConfig::p100(1 << 20));
        let mut sr = StaticRegion::new(&mut gpu, &g, geo, 2 * 16);
        sr.fill(&mut gpu, &g, &[0, 1]); // resident: 0, 1
        let mut t = HotnessTable::new(8, ReplacementPolicy::LastIteration);
        // iteration 5: chunks 4 and 5 demanded (on-demand), residents idle
        t.record(4, 5);
        t.record(5, 5);
        let plan = plan_swaps(&mut t, (&g, &geo), &sr, 5, 10);
        assert_eq!(plan, vec![(0, 4), (1, 5)]);
        // budget of one swap
        let plan1 = plan_swaps(&mut t, (&g, &geo), &sr, 5, 1);
        assert_eq!(plan1, vec![(0, 4)]);
    }

    #[test]
    fn plan_swaps_keeps_fresh_residents() {
        let g = line_graph(33);
        let geo = ChunkGeometry::with_chunk_bytes(&g, 16);
        let mut gpu = Gpu::new(DeviceConfig::p100(1 << 20));
        let mut sr = StaticRegion::new(&mut gpu, &g, geo, 2 * 16);
        sr.fill(&mut gpu, &g, &[0, 1]);
        let mut t = HotnessTable::new(8, ReplacementPolicy::LastIteration);
        t.record(0, 2); // resident 0 is fresh at iter 2
        t.record(6, 2); // chunk 6 demanded
        let plan = plan_swaps(&mut t, (&g, &geo), &sr, 2, 10);
        // only chunk 1 (stale) may be evicted
        assert_eq!(plan, vec![(1, 6)]);
    }
}
