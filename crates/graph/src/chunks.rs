//! Edge-chunk geometry.
//!
//! Paper §3.4: *"we divide the graph dataset into 16KB chunks, which are
//! also amenable to the PCI-e burst transfer mechanism"*. The static region,
//! the prefetcher's access history, the codec's wire-size cache and the
//! Figure-2 access tracer all operate on this
//! fixed-size chunking of the edge array. A chunk covers a contiguous range
//! of edge *indices*; how many edges fit depends on whether the graph is
//! weighted (16 KiB / 4 B = 4096 edges, or 2048 weighted).

use crate::csr::Csr;
use crate::types::VertexId;

/// Default chunk size from the paper.
pub const DEFAULT_CHUNK_BYTES: usize = 16 * 1024;

/// Identifier of an edge chunk (index into the chunked edge array).
pub type ChunkId = u32;

/// Geometry of a fixed-size chunking of a graph's edge array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkGeometry {
    /// Bytes per chunk (last chunk may be short).
    pub chunk_bytes: usize,
    /// Serialized bytes per edge entry (4 or 8).
    pub bytes_per_edge: usize,
    /// Edges per full chunk.
    pub edges_per_chunk: u64,
    /// Total edges in the graph.
    pub num_edges: u64,
}

impl ChunkGeometry {
    /// Geometry for `g` with a custom chunk size (must hold ≥ 1 edge).
    pub fn with_chunk_bytes(g: &Csr, chunk_bytes: usize) -> Self {
        let bpe = g.bytes_per_edge();
        assert!(chunk_bytes >= bpe, "chunk must hold at least one edge");
        ChunkGeometry {
            chunk_bytes,
            bytes_per_edge: bpe,
            edges_per_chunk: (chunk_bytes / bpe) as u64,
            num_edges: g.num_edges(),
        }
    }

    /// Number of chunks covering the edge array.
    #[inline]
    pub fn num_chunks(&self) -> usize {
        self.num_edges.div_ceil(self.edges_per_chunk) as usize
    }

    /// Chunk containing edge index `e`.
    #[inline]
    pub fn chunk_of_edge(&self, e: u64) -> ChunkId {
        debug_assert!(e < self.num_edges);
        (e / self.edges_per_chunk) as ChunkId
    }

    /// Edge-index range covered by chunk `c` (clamped at the array end).
    #[inline]
    pub fn edge_range(&self, c: ChunkId) -> std::ops::Range<u64> {
        let start = c as u64 * self.edges_per_chunk;
        let end = (start + self.edges_per_chunk).min(self.num_edges);
        start..end
    }

    /// Actual byte length of chunk `c` (last chunk may be short).
    #[inline]
    pub fn chunk_len_bytes(&self, c: ChunkId) -> usize {
        let r = self.edge_range(c);
        (r.end - r.start) as usize * self.bytes_per_edge
    }

    /// Inclusive range of chunks covering vertex `v`'s edges in `g`;
    /// `None` when `v` has no edges.
    pub fn chunks_of_vertex(
        &self,
        g: &Csr,
        v: VertexId,
    ) -> Option<std::ops::RangeInclusive<ChunkId>> {
        let r = g.edge_range(v);
        if r.is_empty() {
            return None;
        }
        Some(self.chunk_of_edge(r.start)..=self.chunk_of_edge(r.end - 1))
    }

    /// Total chunk-covered bytes (== serialized edge bytes).
    #[inline]
    pub fn total_bytes(&self) -> u64 {
        self.num_edges * self.bytes_per_edge as u64
    }
}

/// A graph's CSC mirror ([`Csr::transpose`]) beside the CSR's chunk
/// geometry. The session keeps a bare transposed [`Csr`] for pull
/// iterations, which ship vertex rows, not chunks; this pair is what the
/// `benchmark/` layer probe times as `graph.chunks_build`.
#[derive(Clone, Debug)]
pub struct GraphChunks {
    /// The transposed graph: row `v` holds the sources of `v`'s in-edges.
    pub csc: Csr,
    /// Chunk geometry of the original CSR edge array.
    pub csr_geo: ChunkGeometry,
}

impl GraphChunks {
    /// Transpose `g` and chunk the CSR at `chunk_bytes`.
    pub fn build(g: &Csr, chunk_bytes: usize) -> GraphChunks {
        GraphChunks {
            csc: g.transpose(),
            csr_geo: ChunkGeometry::with_chunk_bytes(g, chunk_bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn line_graph(n: usize) -> Csr {
        let mut b = GraphBuilder::new(n);
        for v in 0..n - 1 {
            b.add_edge(v as VertexId, v as VertexId + 1);
        }
        b.build()
    }

    #[test]
    fn paper_chunk_counts() {
        // 16 KiB / 4 B = 4096 edges per chunk.
        let g = line_graph(10_000); // 9999 edges
        let geo = ChunkGeometry::with_chunk_bytes(&g, DEFAULT_CHUNK_BYTES);
        assert_eq!(geo.edges_per_chunk, 4096);
        assert_eq!(geo.num_chunks(), 3); // 4096+4096+1807
        assert_eq!(geo.edge_range(0), 0..4096);
        assert_eq!(geo.edge_range(2), 8192..9999);
        assert_eq!(geo.chunk_len_bytes(2), 1807 * 4);
        assert_eq!(geo.total_bytes(), 9999 * 4);
    }

    #[test]
    fn weighted_halves_edges_per_chunk() {
        let g = line_graph(100).with_weights_from(|_, _| 1);
        let geo = ChunkGeometry::with_chunk_bytes(&g, DEFAULT_CHUNK_BYTES);
        assert_eq!(geo.edges_per_chunk, 2048);
        assert_eq!(geo.bytes_per_edge, 8);
    }

    #[test]
    fn chunk_of_edge_roundtrip() {
        let g = line_graph(20_000);
        let geo = ChunkGeometry::with_chunk_bytes(&g, DEFAULT_CHUNK_BYTES);
        for c in 0..geo.num_chunks() as ChunkId {
            for e in geo.edge_range(c) {
                assert_eq!(geo.chunk_of_edge(e), c);
            }
        }
    }

    #[test]
    fn vertex_chunk_span() {
        let g = line_graph(10_000);
        let geo = ChunkGeometry::with_chunk_bytes(&g, 16); // 4 edges/chunk
                                                           // vertex v has edge index v (single out-edge each)
        assert_eq!(geo.chunks_of_vertex(&g, 0), Some(0..=0));
        assert_eq!(geo.chunks_of_vertex(&g, 5), Some(1..=1));
        // the last vertex has no out-edges
        assert_eq!(geo.chunks_of_vertex(&g, 9999), None);
    }

    #[test]
    fn custom_small_chunks() {
        let g = line_graph(10);
        let geo = ChunkGeometry::with_chunk_bytes(&g, 8); // 2 edges
        assert_eq!(geo.num_chunks(), 5); // 9 edges -> ceil(9/2)
        assert_eq!(geo.edge_range(4), 8..9);
    }

    #[test]
    fn graph_chunks_mirror_shares_chunk_size() {
        let g = line_graph(10_000);
        let gc = GraphChunks::build(&g, 64);
        assert_eq!(gc.csc.num_edges(), g.num_edges());
        assert_eq!(gc.csr_geo.chunk_bytes, 64);
        assert_eq!(gc.csr_geo.num_edges, g.num_edges());
        // the line graph's transpose: vertex v+1 has one in-edge from v
        assert_eq!(gc.csc.neighbors(1), &[0]);
        assert!(gc.csc.neighbors(0).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one edge")]
    fn rejects_tiny_chunk() {
        let g = line_graph(10).with_weights_from(|_, _| 1);
        ChunkGeometry::with_chunk_bytes(&g, 4);
    }
}
