//! Per-chunk access table. It serves next-frontier prefetch
//! ([`crate::prefetch`]) — whether a chunk was demanded at an iteration
//! (hit scoring) and how recently it was touched (victim order,
//! never-touched chunks last) — and holds the compressed path's per-chunk
//! wire-size cache.

use ascetic_graph::chunks::{ChunkGeometry, ChunkId};
use ascetic_graph::{Csr, VertexId};

/// Per-chunk access recency, plus per-chunk metadata reused across
/// iterations by the compressed transfer path.
pub struct HotnessTable {
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
    pub fn new(num_chunks: usize) -> Self {
        HotnessTable {
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
        let stamp = self.stamp(iteration);
        self.last_access[chunk as usize] = stamp;
        self.newest = self.newest.max(stamp);
    }

    /// Record accesses for every chunk covering the edges of `nodes` — one
    /// [`HotnessTable::record`] per (vertex, chunk) pair.
    ///
    /// Frontier node lists ascend, so consecutive vertices mostly fall in
    /// the chunk the previous one ended in, already recorded: those are
    /// skipped against that chunk's edge window without re-deriving the
    /// chunk (two divisions) per vertex.
    pub fn record_vertices(
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
    /// most recent touch is that very iteration. The prefetch pipeline's
    /// hit test: a prefetched chunk counts as a hit iff the next iteration
    /// really demanded it.
    pub fn demanded_at(&self, chunk: ChunkId, iteration: u32) -> bool {
        self.last_access[chunk as usize] == self.stamp(iteration)
    }

    /// Raw recency stamp of `chunk`: session-wide count of the iteration
    /// that last accessed it, 0 = never touched (the prefetch planner
    /// evicts those last). Orders eviction candidates coldest-first,
    /// across runs as within one.
    pub fn last_access_stamp(&self, chunk: ChunkId) -> u32 {
        self.last_access[chunk as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascetic_graph::GraphBuilder;

    fn line_graph(n: usize) -> Csr {
        let mut b = GraphBuilder::new(n);
        for v in 0..n - 1 {
            b.add_edge(v as u32, v as u32 + 1);
        }
        b.build()
    }

    #[test]
    fn an_access_in_an_earlier_run_is_not_an_access_in_this_one() {
        let mut t = HotnessTable::new(3);
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
        let g = line_graph(33); // 32 edges; 4-edge chunks
        let geo = ChunkGeometry::with_chunk_bytes(&g, 16);
        let mut t = HotnessTable::new(geo.num_chunks());
        // vertex 9's edge index is 9 -> chunk 2
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
            let mut fast = HotnessTable::new(geo.num_chunks());
            let mut slow = HotnessTable::new(geo.num_chunks());
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

    #[test]
    fn wire_byte_cache_round_trips() {
        let mut t = HotnessTable::new(4);
        assert_eq!(t.cached_wire_bytes(2), None);
        t.cache_wire_bytes(2, 1234);
        assert_eq!(t.cached_wire_bytes(2), Some(1234));
        assert_eq!(t.cached_wire_bytes(3), None, "other chunks unaffected");
    }
}
