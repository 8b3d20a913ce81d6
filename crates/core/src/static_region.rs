//! The Static Region (paper §3.1, §3.4).
//!
//! A device-memory slab divided into chunk-sized slots (16 KiB, the paper's
//! transfer granularity). Residency is tracked two ways:
//!
//! * per **chunk** — which slot (if any) holds each edge chunk; this is the
//!   granularity of the initial fill and of prefetch loads and swaps;
//! * per **vertex** — the paper's `StaticBitmap`: a vertex is *static* iff
//!   every chunk covering its CSR edge range is resident (zero-degree
//!   vertices are trivially static). The bitmap is maintained
//!   incrementally as chunks swap.
//!
//! The Eq (3) adaptive re-partition is supported by `release_tail_slots`,
//! which evicts and donates the trailing slots of the slab to the
//! on-demand engine — they border its slab, which grows by them (shrinking
//! the static region without relocating the arena).

use ascetic_graph::chunks::{ChunkGeometry, ChunkId};
use ascetic_graph::{Csr, VertexId};
use ascetic_par::Bitmap;
use ascetic_sim::{DevPtr, DeviceMemory, Gpu};

use crate::config::FillPolicy;

/// Sentinel for "chunk not resident".
const NO_SLOT: u32 = u32::MAX;

/// What [`StaticRegion::patch`] did to reconcile the region with a mutated
/// graph: which resident chunks were rewritten in place, which fell off the
/// (shrunken) end of the chunked CSR, and the device bytes rewritten.
pub struct RegionPatch {
    /// Resident chunks whose device copy was refreshed in place.
    pub refreshed: Vec<ChunkId>,
    /// Chunks evicted because the patched graph has fewer chunks.
    pub evicted: Vec<ChunkId>,
    /// Device bytes rewritten (the in-place refresh volume).
    pub bytes: u64,
}

/// The static region store.
pub struct StaticRegion {
    /// Device slab backing all slots.
    slab: DevPtr,
    /// Chunk geometry of the graph: the session's one chunking.
    pub(crate) geo: ChunkGeometry,
    /// Words per (full) chunk.
    words_per_chunk: usize,
    /// Usable slots (may shrink via Eq (3)).
    slot_count: usize,
    /// slot → resident chunk.
    chunk_of_slot: Vec<Option<ChunkId>>,
    /// chunk → slot (NO_SLOT when absent).
    slot_of_chunk: Vec<u32>,
    /// The paper's `StaticBitmap` (vertex granularity).
    vertex_static: Bitmap,
}

/// SplitMix64 — tiny deterministic generator for the random fill policy
/// (keeps `ascetic-core` free of an RNG dependency).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl StaticRegion {
    /// Allocate a static region of at most `capacity_bytes` on `gpu` for
    /// graph `g` chunked by `geo`. The region holds
    /// `capacity_bytes / chunk_bytes` slots (zero slots is legal — the
    /// R = 0 end of the Figure 10 sweep).
    pub fn new(gpu: &mut Gpu, g: &Csr, geo: ChunkGeometry, capacity_bytes: u64) -> StaticRegion {
        let words_per_chunk = geo.chunk_bytes / 4;
        let max_useful = geo.num_chunks();
        let slot_count = ((capacity_bytes as usize) / geo.chunk_bytes).min(max_useful);
        let slab = gpu
            .alloc(slot_count * words_per_chunk)
            .expect("static region must fit the device (checked by ratio math)");
        let mut region = StaticRegion {
            slab,
            geo,
            words_per_chunk,
            slot_count,
            chunk_of_slot: vec![None; slot_count],
            slot_of_chunk: vec![NO_SLOT; max_useful],
            vertex_static: Bitmap::new(g.num_vertices()),
        };
        region.rebuild_vertex_bitmap(g);
        region
    }

    /// Number of usable slots.
    pub fn slots(&self) -> usize {
        self.slot_count
    }

    /// Usable capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        (self.slot_count * self.geo.chunk_bytes) as u64
    }

    /// Number of chunks currently resident.
    pub fn resident_chunks(&self) -> usize {
        self.chunk_of_slot
            .iter()
            .take(self.slot_count)
            .filter(|c| c.is_some())
            .count()
    }

    /// Whether `chunk` is resident.
    pub fn is_resident(&self, chunk: ChunkId) -> bool {
        self.slot_of_chunk[chunk as usize] != NO_SLOT
    }

    /// Number of maximal runs of consecutive resident chunk ids — 1 for an
    /// untouched front fill. Every extra run is a hole some swap punched:
    /// vertices straddling it go on demand, and an iteration that would
    /// have run from the region alone needs the pipeline too.
    pub fn resident_runs(&self) -> u64 {
        let resident = |c: usize| self.slot_of_chunk[c] != NO_SLOT;
        (0..self.slot_of_chunk.len())
            .filter(|&c| resident(c) && (c == 0 || !resident(c - 1)))
            .count() as u64
    }

    /// The `StaticBitmap`.
    pub fn vertex_bitmap(&self) -> &Bitmap {
        &self.vertex_static
    }

    /// Whether all of `v`'s edges are resident.
    pub fn is_vertex_static(&self, v: VertexId) -> bool {
        self.vertex_static.get(v as usize)
    }

    /// Number of slots with no resident chunk.
    pub fn free_slots(&self) -> usize {
        self.slot_count - self.resident_chunks()
    }

    /// Load non-resident `chunk` into a free slot (a prefetch `Load`).
    /// Returns the loaded bytes; panics if no slot is free or the chunk is
    /// already resident.
    pub fn load_chunk(&mut self, gpu: &mut Gpu, g: &Csr, chunk: ChunkId) -> u64 {
        assert!(!self.is_resident(chunk), "chunk already resident");
        let slot = self
            .chunk_of_slot
            .iter()
            .position(|c| c.is_none())
            .expect("no free slot to load into");
        let bytes = self.write_slot(gpu, g, slot, chunk);
        self.update_vertices_overlapping(g, chunk);
        bytes
    }

    /// Chunk ids chosen by `policy` for an initial fill of `n` chunks.
    pub fn plan_fill(&self, policy: FillPolicy, n: usize) -> Vec<ChunkId> {
        let total = self.geo.num_chunks();
        let n = n.min(total);
        match policy {
            FillPolicy::Front => (0..n as ChunkId).collect(),
            FillPolicy::Rear => ((total - n) as ChunkId..total as ChunkId).collect(),
            FillPolicy::Random { seed } => {
                // partial Fisher-Yates over 0..total
                let mut ids: Vec<ChunkId> = (0..total as ChunkId).collect();
                let mut st = seed ^ 0xA076_1D64_78BD_642F;
                for i in 0..n {
                    let j = i + (splitmix64(&mut st) as usize) % (total - i);
                    ids.swap(i, j);
                }
                ids.truncate(n);
                ids
            }
        }
    }

    /// Fill the region with `chunks` (one per free slot, in order), copying
    /// each chunk's edge words from the host CSR. Returns the bytes loaded;
    /// the caller charges the transfer time (prestore is a single bulk
    /// operation in the paper's accounting).
    pub fn fill(&mut self, gpu: &mut Gpu, g: &Csr, chunks: &[ChunkId]) -> u64 {
        assert!(chunks.len() <= self.slot_count, "more chunks than slots");
        let mut bytes = 0u64;
        for (slot, &c) in chunks.iter().enumerate() {
            assert!(
                self.chunk_of_slot[slot].is_none(),
                "fill into occupied slot"
            );
            bytes += self.write_slot(gpu, g, slot, c);
        }
        self.rebuild_vertex_bitmap(g);
        bytes
    }

    /// Device pointer of slot `slot` (full chunk width).
    fn slot_ptr(&self, slot: usize) -> DevPtr {
        self.slab
            .slice(slot * self.words_per_chunk, self.words_per_chunk)
    }

    /// The one way a chunk reaches the device: copy `chunk`'s edge words
    /// from the host CSR straight over the front of `slot` (one copy, no
    /// staging buffer) and record the chunk resident there (the
    /// `StaticBitmap` is the caller's). Returns the bytes written.
    fn write_slot(&mut self, gpu: &mut Gpu, g: &Csr, slot: usize, chunk: ChunkId) -> u64 {
        self.chunk_of_slot[slot] = Some(chunk);
        self.slot_of_chunk[chunk as usize] = slot as u32;
        let edges = self.geo.edge_range(chunk);
        let words = (edges.end - edges.start) as usize * g.words_per_edge();
        let dst = self.slot_ptr(slot).slice(0, words);
        g.copy_edge_words(edges, gpu.mem.words_mut(dst));
        dst.len_bytes()
    }

    /// Replace resident `evict` with non-resident `load` (the Figure 6
    /// swap, data plane). Returns the loaded bytes; the caller accounts the
    /// transfer on the prefetch stream.
    pub fn swap_chunk(&mut self, gpu: &mut Gpu, g: &Csr, evict: ChunkId, load: ChunkId) -> u64 {
        let slot = self.slot_of_chunk[evict as usize];
        assert_ne!(slot, NO_SLOT, "evicted chunk must be resident");
        assert!(!self.is_resident(load), "loaded chunk must not be resident");
        self.slot_of_chunk[evict as usize] = NO_SLOT;
        self.update_vertices_overlapping(g, evict);

        let bytes = self.write_slot(gpu, g, slot as usize, load);
        self.update_vertices_overlapping(g, load);
        bytes
    }

    /// Shrink by releasing the trailing `n` slots (evicting their chunks),
    /// donating them to the caller as a contiguous device buffer (Eq (3)).
    /// Returns `None` when `n` is zero or exceeds the current slot count.
    pub fn release_tail_slots(&mut self, g: &Csr, n: usize) -> Option<DevPtr> {
        if n == 0 || n > self.slot_count {
            return None;
        }
        let new_count = self.slot_count - n;
        for slot in new_count..self.slot_count {
            if let Some(c) = self.chunk_of_slot[slot].take() {
                self.slot_of_chunk[c as usize] = NO_SLOT;
                self.update_vertices_overlapping(g, c);
            }
        }
        let tail = self
            .slab
            .slice(new_count * self.words_per_chunk, n * self.words_per_chunk);
        self.slot_count = new_count;
        self.chunk_of_slot.truncate(new_count);
        Some(tail)
    }

    /// Iterate the word slices of `v`'s resident edge data, in edge order.
    /// Must only be called for static vertices (every chunk resident); a
    /// vertex's data may span several chunks and therefore yield several
    /// slices.
    pub fn for_each_vertex_slice<'m>(
        &self,
        mem: &'m DeviceMemory,
        g: &Csr,
        v: VertexId,
        mut f: impl FnMut(&'m [u32]),
    ) {
        let Some(chunks) = self.geo.chunks_of_vertex(g, v) else {
            return; // zero-degree
        };
        let er = g.edge_range(v);
        let wpe = self.geo.bytes_per_edge / 4;
        for c in chunks {
            let slot = self.slot_of_chunk[c as usize];
            debug_assert_ne!(slot, NO_SLOT, "static vertex with non-resident chunk");
            let cr = self.geo.edge_range(c);
            let lo = er.start.max(cr.start);
            let hi = er.end.min(cr.end);
            debug_assert!(lo < hi);
            let off = (lo - cr.start) as usize * wpe;
            let len = (hi - lo) as usize * wpe;
            let ptr = self.slot_ptr(slot as usize).slice(off, len);
            f(mem.words(ptr));
        }
    }

    /// Whether every chunk covering `v`'s edge range is resident
    /// (trivially so for a zero-degree vertex: nothing to load).
    fn covers(&self, g: &Csr, v: VertexId) -> bool {
        self.geo
            .chunks_of_vertex(g, v)
            .is_none_or(|mut chunks| chunks.all(|c| self.is_resident(c)))
    }

    /// Recompute the whole `StaticBitmap` (used after bulk changes).
    pub fn rebuild_vertex_bitmap(&mut self, g: &Csr) {
        for v in 0..g.num_vertices() {
            let is_static = self.covers(g, v as VertexId);
            self.vertex_static.assign(v, is_static);
        }
    }

    /// Recompute the bitmap for vertices whose edge ranges intersect
    /// `chunk` (after a single-chunk residency change).
    fn update_vertices_overlapping(&mut self, g: &Csr, chunk: ChunkId) {
        let cr = self.geo.edge_range(chunk);
        let offsets = g.offsets();
        let n = g.num_vertices();
        // first vertex with edge_range.end > cr.start  ⇔ offsets[v+1] > cr.start
        let first = offsets[1..=n].partition_point(|&o| o <= cr.start);
        // vertices with offsets[v] < cr.end
        let mut v = first;
        while v < n && offsets[v] < cr.end {
            let is_static = self.covers(g, v as VertexId);
            self.vertex_static.assign(v, is_static);
            v += 1;
        }
    }

    /// The chunk resident in each slot (for tests/inspection).
    pub fn resident_chunk_ids(&self) -> Vec<ChunkId> {
        self.chunk_of_slot.iter().flatten().copied().collect()
    }

    /// Reconcile the region with an in-place graph patch, *without*
    /// tearing the arena down: the region re-chunks `g_new` at its chunk
    /// size, chunks past the patched graph's end are evicted, resident
    /// chunks at or after `first_dirty_chunk` have their device copies
    /// rewritten from `g_new` in their existing slots (chunk boundaries
    /// are stable — geometry depends only on chunk and edge byte sizes,
    /// which must not change), and the `StaticBitmap` is rebuilt. The
    /// caller accounts the returned transfer volume.
    pub fn patch(&mut self, gpu: &mut Gpu, g_new: &Csr, first_dirty_chunk: ChunkId) -> RegionPatch {
        let new_geo = ChunkGeometry::with_chunk_bytes(g_new, self.geo.chunk_bytes);
        assert_eq!(
            new_geo.bytes_per_edge, self.geo.bytes_per_edge,
            "patch must not change edge width"
        );
        let new_chunks = new_geo.num_chunks();
        let mut evicted = Vec::new();
        for c in new_chunks..self.slot_of_chunk.len() {
            let slot = self.slot_of_chunk[c];
            if slot != NO_SLOT {
                self.chunk_of_slot[slot as usize] = None;
                evicted.push(c as ChunkId);
            }
        }
        self.slot_of_chunk.resize(new_chunks, NO_SLOT);
        self.geo = new_geo;

        let (mut refreshed, mut bytes) = (Vec::new(), 0u64);
        for c in first_dirty_chunk..new_chunks as ChunkId {
            let slot = self.slot_of_chunk[c as usize];
            if slot != NO_SLOT {
                bytes += self.write_slot(gpu, g_new, slot as usize, c);
                refreshed.push(c);
            }
        }
        self.rebuild_vertex_bitmap(g_new);
        RegionPatch {
            refreshed,
            evicted,
            bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascetic_graph::GraphBuilder;
    use ascetic_sim::DeviceConfig;

    /// Line graph: vertex v has exactly one out-edge (v -> v+1), so edge
    /// index == vertex id; with 4-edge chunks, chunk c covers vertices
    /// 4c..4c+4.
    fn setup(n: usize, chunk_bytes: usize) -> (Csr, ChunkGeometry, Gpu) {
        let mut b = GraphBuilder::new(n);
        for v in 0..n - 1 {
            b.add_edge(v as VertexId, v as VertexId + 1);
        }
        let g = b.build();
        let geo = ChunkGeometry::with_chunk_bytes(&g, chunk_bytes);
        let gpu = Gpu::new(DeviceConfig::p100(1 << 20));
        (g, geo, gpu)
    }

    #[test]
    fn fill_front_makes_prefix_vertices_static() {
        let (g, geo, mut gpu) = setup(33, 16); // 32 edges, 4 edges/chunk, 8 chunks
        let mut sr = StaticRegion::new(&mut gpu, &g, geo, 3 * 16); // 3 slots
        let plan = sr.plan_fill(FillPolicy::Front, 3);
        assert_eq!(plan, vec![0, 1, 2]);
        let bytes = sr.fill(&mut gpu, &g, &plan);
        assert_eq!(bytes, 3 * 16);
        // vertices 0..12 have their single edge in chunks 0..3
        for v in 0..12u32 {
            assert!(sr.is_vertex_static(v), "v{v}");
        }
        assert!(!sr.is_vertex_static(12));
        // last vertex has no out-edges -> trivially static
        assert!(sr.is_vertex_static(32));
        assert_eq!(sr.resident_chunks(), 3);
    }

    #[test]
    fn fill_rear_and_random_policies() {
        let (g, geo, mut gpu) = setup(33, 16);
        let sr = StaticRegion::new(&mut gpu, &g, geo, 3 * 16);
        assert_eq!(sr.plan_fill(FillPolicy::Rear, 3), vec![5, 6, 7]);
        let r1 = sr.plan_fill(FillPolicy::Random { seed: 1 }, 3);
        let r2 = sr.plan_fill(FillPolicy::Random { seed: 1 }, 3);
        assert_eq!(r1, r2, "random plan must be deterministic");
        assert_eq!(r1.len(), 3);
        let mut sorted = r1.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "random plan must not repeat chunks");
    }

    #[test]
    fn slices_deliver_the_right_edge_words() {
        let (g, geo, mut gpu) = setup(33, 16);
        let mut sr = StaticRegion::new(&mut gpu, &g, geo, 8 * 16);
        let plan = sr.plan_fill(FillPolicy::Front, 8);
        sr.fill(&mut gpu, &g, &plan);
        // vertex 5's single edge points at 6
        let mut seen = Vec::new();
        sr.for_each_vertex_slice(&gpu.mem, &g, 5, |words| seen.extend_from_slice(words));
        assert_eq!(seen, vec![6]);
        // zero-degree vertex yields nothing
        let mut count = 0;
        sr.for_each_vertex_slice(&gpu.mem, &g, 32, |_| count += 1);
        assert_eq!(count, 0);
    }

    #[test]
    fn multi_chunk_vertex_spans_slices() {
        // star: vertex 0 has 12 out-edges -> spans 3 chunks of 4 edges
        let mut b = GraphBuilder::new(13);
        for t in 1..13u32 {
            b.add_edge(0, t);
        }
        let g = b.build();
        let geo = ChunkGeometry::with_chunk_bytes(&g, 16);
        let mut gpu = Gpu::new(DeviceConfig::p100(1 << 20));
        let mut sr = StaticRegion::new(&mut gpu, &g, geo, 3 * 16);
        sr.fill(&mut gpu, &g, &[0, 1, 2]);
        assert!(sr.is_vertex_static(0));
        let mut pieces = 0;
        let mut all = Vec::new();
        sr.for_each_vertex_slice(&gpu.mem, &g, 0, |w| {
            pieces += 1;
            all.extend_from_slice(w);
        });
        assert_eq!(pieces, 3);
        assert_eq!(all, (1..13u32).collect::<Vec<_>>());
    }

    #[test]
    fn partially_resident_vertex_is_not_static() {
        let mut b = GraphBuilder::new(13);
        for t in 1..13u32 {
            b.add_edge(0, t);
        }
        let g = b.build();
        let geo = ChunkGeometry::with_chunk_bytes(&g, 16);
        let mut gpu = Gpu::new(DeviceConfig::p100(1 << 20));
        let mut sr = StaticRegion::new(&mut gpu, &g, geo, 2 * 16);
        sr.fill(&mut gpu, &g, &[0, 1]); // chunk 2 missing
        assert!(!sr.is_vertex_static(0));
    }

    #[test]
    fn swap_chunk_updates_residency_and_bitmap() {
        let (g, geo, mut gpu) = setup(33, 16);
        let mut sr = StaticRegion::new(&mut gpu, &g, geo, 2 * 16);
        sr.fill(&mut gpu, &g, &[0, 1]);
        assert!(sr.is_vertex_static(0) && sr.is_vertex_static(7));
        let bytes = sr.swap_chunk(&mut gpu, &g, 0, 5);
        assert_eq!(bytes, 16);
        assert!(!sr.is_resident(0));
        assert!(sr.is_resident(5));
        assert!(!sr.is_vertex_static(0), "chunk 0 evicted");
        assert!(sr.is_vertex_static(20), "chunk 5 covers vertices 20..24");
        // slice from the newly loaded chunk reads the right data
        let mut seen = Vec::new();
        sr.for_each_vertex_slice(&gpu.mem, &g, 21, |w| seen.extend_from_slice(w));
        assert_eq!(seen, vec![22]);
    }

    #[test]
    fn resident_runs_count_the_holes() {
        let (g, geo, mut gpu) = setup(33, 16); // 8 chunks
        let mut sr = StaticRegion::new(&mut gpu, &g, geo, 4 * 16);
        assert_eq!(sr.resident_runs(), 0, "empty region");
        sr.fill(&mut gpu, &g, &[0, 1, 2, 3]);
        assert_eq!(sr.resident_runs(), 1, "a front fill is one run");
        sr.swap_chunk(&mut gpu, &g, 1, 6);
        assert_eq!(sr.resident_runs(), 3, "0 | 2 3 | 6");
        sr.swap_chunk(&mut gpu, &g, 0, 7);
        assert_eq!(sr.resident_runs(), 2, "2 3 | 6 7");
    }

    #[test]
    fn release_tail_slots_donates_contiguous_buffer() {
        let (g, geo, mut gpu) = setup(33, 16);
        let mut sr = StaticRegion::new(&mut gpu, &g, geo, 4 * 16);
        sr.fill(&mut gpu, &g, &[0, 1, 2, 3]);
        let tail = sr.release_tail_slots(&g, 2).unwrap();
        assert_eq!(tail.len, 2 * 4); // 2 slots * 4 words
        assert_eq!(sr.slots(), 2);
        assert!(!sr.is_resident(2) && !sr.is_resident(3));
        assert!(sr.is_resident(0) && sr.is_resident(1));
        assert!(!sr.is_vertex_static(9), "evicted chunk 2 covered vertex 9");
        assert!(sr.release_tail_slots(&g, 5).is_none());
        assert!(sr.release_tail_slots(&g, 0).is_none());
    }

    #[test]
    fn zero_capacity_region() {
        let (g, geo, mut gpu) = setup(33, 16);
        let sr = StaticRegion::new(&mut gpu, &g, geo, 0);
        assert_eq!(sr.slots(), 0);
        assert_eq!(sr.capacity_bytes(), 0);
        // only the zero-degree tail vertex is static
        assert!(sr.is_vertex_static(32));
        assert!(!sr.is_vertex_static(0));
    }

    #[test]
    fn patch_refreshes_resident_dirty_chunks_in_place() {
        let (g, geo, mut gpu) = setup(33, 16); // 32 edges, 8 chunks
        let mut sr = StaticRegion::new(&mut gpu, &g, geo, 4 * 16);
        sr.fill(&mut gpu, &g, &[0, 1, 5, 7]);
        // mutate: vertex 4 now points at 0 instead of 5 (same edge count)
        let mut b = GraphBuilder::new(33);
        for v in 0..32u32 {
            b.add_edge(v, if v == 4 { 0 } else { v + 1 });
        }
        let g2 = b.build();
        // edge 4 lives in chunk 1 → first dirty chunk is 1
        let rp = sr.patch(&mut gpu, &g2, 1);
        assert_eq!(rp.refreshed, vec![1, 5, 7], "resident chunks >= 1");
        assert!(rp.evicted.is_empty());
        assert_eq!(rp.bytes, 3 * 16);
        let mut seen = Vec::new();
        sr.for_each_vertex_slice(&gpu.mem, &g2, 4, |w| seen.extend_from_slice(w));
        assert_eq!(seen, vec![0], "device copy reflects the patched edge");
        // clean chunk 0 untouched
        let mut seen0 = Vec::new();
        sr.for_each_vertex_slice(&gpu.mem, &g2, 2, |w| seen0.extend_from_slice(w));
        assert_eq!(seen0, vec![3]);
    }

    #[test]
    fn patch_evicts_chunks_past_shrunken_end() {
        let (g, geo, mut gpu) = setup(33, 16); // 8 chunks
        let mut sr = StaticRegion::new(&mut gpu, &g, geo, 3 * 16);
        sr.fill(&mut gpu, &g, &[0, 6, 7]);
        // drop the last 8 edges → 24 edges, 6 chunks
        let mut b = GraphBuilder::new(33);
        for v in 0..24u32 {
            b.add_edge(v, v + 1);
        }
        let g2 = b.build();
        let rp = sr.patch(&mut gpu, &g2, 6);
        assert_eq!(rp.evicted, vec![6, 7]);
        assert!(rp.refreshed.is_empty(), "no resident chunks in 6..6");
        assert_eq!(sr.resident_chunk_ids(), vec![0]);
        assert_eq!(sr.free_slots(), 2, "slots of evicted chunks are reusable");
    }

    #[test]
    fn capacity_capped_at_dataset() {
        let (g, geo, mut gpu) = setup(33, 16); // 8 chunks total
        let sr = StaticRegion::new(&mut gpu, &g, geo, 100 * 16);
        assert_eq!(sr.slots(), 8, "no point allocating beyond the dataset");
    }
}
