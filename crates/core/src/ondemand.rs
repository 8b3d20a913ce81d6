//! The On-demand Engine (paper §3.1, Figure 4 steps ➋–➍).
//!
//! CPU-side machinery that turns `OndemandNodes` into a compact subgraph —
//! the Subway-style scheme the paper adopts ("Such requests are sent to
//! On-demand Engine, which is similar to the scheme used in Subway"):
//!
//! 1. **plan** ([`BatchPlan`]) — split the node list into batches whose
//!    edge payload fits the on-demand region (the paper's "divide the
//!    on-demand data into many smaller fragments ... and then transfer and
//!    process them in turn"); a vertex whose adjacency list alone exceeds
//!    the region is split across batches (partial delivery is part of the
//!    `VertexProgram` contract). Planning is one sequential walk, so it
//!    also lays out the payload: every entry learns its word offset within
//!    its batch (`OndemandNodes` + offsets, the kernel's index);
//! 2. **gather** ([`Batch::gather_into`]) — multi-threaded copy of the
//!    requested edge ranges from the host CSR, in device word format,
//!    **straight into the destination window** — the session passes the
//!    on-demand buffer's slice of device memory, so each row is written
//!    once, not staged and re-copied.
//!
//! The engine is pure data-plane: the iteration frame in [`crate::session`]
//! charges the gather, and [`crate::codec::ship_batch`] the transfer. A
//! run keeps one [`BatchPlan`] and re-plans into it every iteration;
//! [`plan_batches`] / [`gather`] are the one-shot forms
//! (fresh buffers) for callers outside an iteration loop.

use ascetic_graph::{Csr, VertexId};
use ascetic_par::{parallel_for_work, parallel_parts, threads_for_work};
use ascetic_sim::DevPtr;

/// Split the on-demand slab into `n` equal batch buffers of whole edge
/// entries (fewer when the slab cannot give each one entry); a single
/// buffer is the whole slab. Every batch is planned to the smallest buffer,
/// so memory that joins the region (an Eq (3) donation) is merged into the
/// slab and re-split rather than appended as one more, smaller buffer.
pub(crate) fn split_buffers(slab: DevPtr, n: usize, words_per_edge: usize) -> Vec<DevPtr> {
    let n = n.clamp(1, (slab.len / words_per_edge).max(1));
    if n == 1 {
        return vec![slab];
    }
    let per = slab.len / n / words_per_edge * words_per_edge;
    (0..n).map(|i| slab.slice(i * per, per)).collect()
}

/// One gather request: a vertex and the sub-range of its edges to deliver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GatherEntry {
    /// Source vertex.
    pub vertex: VertexId,
    /// Edge-index range (absolute, into the CSR edge array).
    pub edges: std::ops::Range<u64>,
}

impl GatherEntry {
    /// Edges requested.
    pub fn num_edges(&self) -> u64 {
        self.edges.end - self.edges.start
    }
}

/// A reusable batch plan: the requests of every batch, back to back, with
/// each entry's word offset inside its batch's payload.
#[derive(Clone, Debug, Default)]
pub struct BatchPlan {
    entries: Vec<GatherEntry>,
    /// Word offset of entry `i`'s payload within its batch.
    offsets: Vec<u64>,
    /// One past the last entry of each batch.
    ends: Vec<usize>,
    words_per_edge: u64,
}

/// One planned batch: its requests and the layout of its payload.
#[derive(Clone, Copy, Debug)]
pub struct Batch<'a> {
    /// Requests in this batch.
    pub entries: &'a [GatherEntry],
    offsets: &'a [u64],
    words_per_edge: u64,
}

impl BatchPlan {
    /// Re-plan: split `nodes` into batches whose payload fits
    /// `capacity_words`, replacing the previous plan (its buffers are
    /// reused).
    ///
    /// # Panics
    /// Panics if `capacity_words` cannot hold a single edge entry.
    pub fn plan(&mut self, g: &Csr, nodes: &[VertexId], capacity_words: usize) {
        let wpe = g.words_per_edge() as u64;
        assert!(
            capacity_words as u64 >= wpe,
            "on-demand region below one edge"
        );
        let cap_edges = capacity_words as u64 / wpe;
        self.entries.clear();
        self.offsets.clear();
        self.ends.clear();
        self.words_per_edge = wpe;
        // one entry per vertex unless a row is split or empty
        self.entries.reserve(nodes.len());
        self.offsets.reserve(nodes.len());

        let mut cur_edges = 0u64;
        for &v in nodes {
            let mut r = g.edge_range(v);
            while !r.is_empty() {
                let room = cap_edges - cur_edges;
                if room == 0 {
                    self.ends.push(self.entries.len());
                    cur_edges = 0;
                    continue;
                }
                let take = (r.end - r.start).min(room);
                self.entries.push(GatherEntry {
                    vertex: v,
                    edges: r.start..r.start + take,
                });
                self.offsets.push(cur_edges * wpe);
                cur_edges += take;
                r.start += take;
            }
        }
        if self.ends.last().copied().unwrap_or(0) < self.entries.len() {
            self.ends.push(self.entries.len());
        }
    }

    /// The plan that delivers exactly `entries` as one batch.
    fn single(g: &Csr, entries: Vec<GatherEntry>) -> BatchPlan {
        let wpe = g.words_per_edge() as u64;
        let mut at = 0u64;
        let offsets = entries
            .iter()
            .map(|e| {
                let start = at;
                at += e.num_edges() * wpe;
                start
            })
            .collect();
        BatchPlan {
            ends: vec![entries.len()],
            entries,
            offsets,
            words_per_edge: wpe,
        }
    }

    /// Allocated capacity across the plan's vectors (recycling tests).
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.entries.capacity() + self.offsets.capacity() + self.ends.capacity()
    }

    /// Number of batches.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when nothing needs gathering.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Batch `b` (`0..len()`).
    pub fn batch(&self, b: usize) -> Batch<'_> {
        let r = if b == 0 { 0 } else { self.ends[b - 1] }..self.ends[b];
        Batch {
            entries: &self.entries[r.clone()],
            offsets: &self.offsets[r],
            words_per_edge: self.words_per_edge,
        }
    }

    /// The batches, in delivery order.
    pub fn batches(&self) -> impl Iterator<Item = Batch<'_>> {
        (0..self.len()).map(|b| self.batch(b))
    }
}

impl Batch<'_> {
    /// Payload words of the batch.
    pub fn words(&self) -> usize {
        match (self.entries.last(), self.offsets.last()) {
            (Some(e), Some(&at)) => (at + e.num_edges() * self.words_per_edge) as usize,
            _ => 0,
        }
    }

    /// Total edges in the batch.
    pub fn edges(&self) -> u64 {
        self.words() as u64 / self.words_per_edge
    }

    /// Payload bytes of the batch.
    pub fn payload_bytes(&self) -> u64 {
        (self.words() * 4) as u64
    }

    /// Bytes of the subgraph index shipped alongside the payload
    /// (vertex id + offset per entry, as in Subway's `OndemandNodes`).
    pub fn index_bytes(&self) -> u64 {
        (self.entries.len() * 8) as u64
    }

    /// The word range of entry `i` within the batch's payload.
    pub fn entry_words(&self, i: usize) -> std::ops::Range<usize> {
        let start = self.offsets[i] as usize;
        start..start + (self.entries[i].num_edges() * self.words_per_edge) as usize
    }

    /// Run `body(lane, vertex, words)` over every entry of the batch in
    /// parallel, `words` being the entry's window of the delivered
    /// `payload` — the host execution of the batch's kernel. `lane` is
    /// [`ascetic_par::parallel_for_work`]'s.
    pub fn for_each_row(&self, payload: &[u32], body: impl Fn(usize, VertexId, &[u32]) + Sync) {
        parallel_for_work(self.entries.len(), self.edges(), |lane, i| {
            body(lane, self.entries[i].vertex, &payload[self.entry_words(i)]);
        });
    }

    /// Gather the batch's payload from the host CSR into `dst` — exactly
    /// [`Batch::words`] words, typically the destination buffer's window
    /// of device memory. Each row is one [`Csr::copy_edge_words`].
    ///
    /// Whether the copy is split across workers follows the payload size,
    /// not the entry count (two hub rows are worth splitting, a hundred
    /// leaf rows are not), and a split balances *words*: workers fill
    /// disjoint, contiguous windows of `dst` cut at entry boundaries.
    pub fn gather_into(&self, g: &Csr, dst: &mut [u32]) {
        let total = self.words();
        assert_eq!(dst.len(), total, "window must fit the payload");
        // a 32-byte copy is about one unit of `ascetic_par::INLINE_WORK`
        let workers = threads_for_work(total as u64 / 8).min(self.entries.len());
        if workers <= 1 {
            return self.copy_rows(g, 0..self.entries.len(), dst);
        }
        let mut parts = Vec::with_capacity(workers);
        let mut rest = dst;
        let mut first = 0usize;
        for k in 1..=workers {
            // entries whose payload starts before this worker's share ends
            let end = if k == workers {
                self.entries.len()
            } else {
                let cut = (total * k / workers) as u64;
                self.offsets.partition_point(|&at| at < cut).max(first)
            };
            if end == first {
                continue;
            }
            let words = self.entry_words(end - 1).end - self.offsets[first] as usize;
            let (mine, tail) = std::mem::take(&mut rest).split_at_mut(words);
            rest = tail;
            parts.push((first..end, mine));
            first = end;
        }
        parallel_parts(parts, |_, (rows, window)| self.copy_rows(g, rows, window));
    }

    /// Copy entries `rows` back to back into `window`.
    fn copy_rows(&self, g: &Csr, rows: std::ops::Range<usize>, window: &mut [u32]) {
        let mut at = 0usize;
        for e in &self.entries[rows] {
            let n = (e.num_edges() * self.words_per_edge) as usize;
            g.copy_edge_words(e.edges.clone(), &mut window[at..at + n]);
            at += n;
        }
    }
}

/// Split `nodes` into batches whose payload fits `capacity_words` — the
/// one-shot form of [`BatchPlan::plan`], each batch's requests in a vector
/// of their own.
///
/// # Panics
/// Panics if `capacity_words` cannot hold a single edge entry.
pub fn plan_batches(g: &Csr, nodes: &[VertexId], capacity_words: usize) -> Vec<Vec<GatherEntry>> {
    let mut plan = BatchPlan::default();
    plan.plan(g, nodes, capacity_words);
    // peel the batches off the back: the first (usually only) one keeps
    // the plan's own vector
    let mut batches: Vec<_> = plan.ends[..plan.ends.len().saturating_sub(1)]
        .iter()
        .rev()
        .map(|&start| plan.entries.split_off(start))
        .collect();
    if !plan.ends.is_empty() {
        batches.push(plan.entries);
    }
    batches.reverse();
    batches
}

/// A batch gathered into a host buffer of its own.
#[derive(Clone, Debug)]
pub struct GatherBatch {
    plan: BatchPlan,
    /// The gathered edge payload (device word format).
    pub words: Vec<u32>,
}

impl GatherBatch {
    /// The batch's requests and payload layout.
    pub fn batch(&self) -> Batch<'_> {
        self.plan.batch(0)
    }

    /// Payload bytes of the batch.
    pub fn payload_bytes(&self) -> u64 {
        (self.words.len() * 4) as u64
    }
}

/// Gather one batch's payload from the host CSR into a fresh host buffer —
/// the one-shot form of [`Batch::gather_into`].
pub fn gather(g: &Csr, entries: Vec<GatherEntry>) -> GatherBatch {
    let plan = BatchPlan::single(g, entries);
    let mut words = vec![0u32; plan.batch(0).words()];
    plan.batch(0).gather_into(g, &mut words);
    GatherBatch { plan, words }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascetic_graph::datasets::weighted_variant;
    use ascetic_graph::generators::uniform_graph;
    use ascetic_graph::GraphBuilder;

    fn graph() -> Csr {
        // degrees: v0=3, v1=1, v2=2
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        b.add_edge(0, 3);
        b.add_edge(1, 3);
        b.add_edge(2, 0);
        b.add_edge(2, 1);
        b.build()
    }

    #[test]
    fn single_batch_when_everything_fits() {
        let g = graph();
        let batches = plan_batches(&g, &[0, 1, 2], 100);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].len(), 3);
        let total: u64 = batches[0].iter().map(|e| e.num_edges()).sum();
        assert_eq!(total, 6);
    }

    #[test]
    fn splits_batches_at_capacity() {
        let g = graph();
        // capacity = 2 edges (2 words unweighted)
        let batches = plan_batches(&g, &[0, 1, 2], 2);
        let sizes: Vec<u64> = batches
            .iter()
            .map(|b| b.iter().map(|e| e.num_edges()).sum())
            .collect();
        assert!(sizes.iter().all(|&s| s <= 2), "sizes {sizes:?}");
        let total: u64 = sizes.iter().sum();
        assert_eq!(total, 6);
        // vertex 0 (deg 3) must be split across batches
        let v0_entries: Vec<_> = batches.iter().flatten().filter(|e| e.vertex == 0).collect();
        assert!(v0_entries.len() >= 2);
    }

    #[test]
    fn empty_nodes_yield_no_batches() {
        let g = graph();
        assert!(plan_batches(&g, &[], 100).is_empty());
    }

    #[test]
    fn zero_degree_vertices_are_skipped() {
        let g = graph();
        let batches = plan_batches(&g, &[3], 100);
        assert!(batches.is_empty(), "vertex 3 has no edges");
    }

    #[test]
    fn gather_stages_correct_words_unweighted() {
        let g = graph();
        let gathered = gather(&g, plan_batches(&g, &[0, 2], 100).remove(0));
        let batch = gathered.batch();
        assert_eq!(batch.edges(), 5);
        assert_eq!(gathered.words, vec![1, 2, 3, 0, 1]);
        assert_eq!(batch.entry_words(0), 0..3);
        assert_eq!(batch.entry_words(1), 3..5);
        assert_eq!(batch.payload_bytes(), 20);
        assert_eq!(gathered.payload_bytes(), 20);
        assert_eq!(batch.index_bytes(), 16);
    }

    #[test]
    fn gather_stages_correct_words_weighted() {
        let g = weighted_variant(&graph());
        let batch = gather(&g, plan_batches(&g, &[1], 100).remove(0));
        assert_eq!(batch.batch().edges(), 1);
        assert_eq!(batch.words.len(), 2);
        assert_eq!(batch.words[0], 3); // target
        assert_eq!(batch.words[1], g.edge_weights(1)[0]); // weight
    }

    /// Every planned entry's window of a gathered batch holds exactly
    /// `write_edge_words` of that entry, the windows tile the payload, and
    /// a dirty destination is fully overwritten.
    fn assert_single_copy_gather_is_exact(g: &Csr, nodes: &[u32], capacity_words: usize) {
        let mut plan = BatchPlan::default();
        plan.plan(g, nodes, capacity_words);
        let mut planned_edges = 0u64;
        for batch in plan.batches() {
            assert!(batch.words() <= capacity_words);
            let mut dst = vec![u32::MAX; batch.words()];
            batch.gather_into(g, &mut dst);
            let mut at = 0usize;
            for (i, e) in batch.entries.iter().enumerate() {
                let mut expect = Vec::new();
                g.write_edge_words(e.edges.clone(), &mut expect);
                assert_eq!(batch.entry_words(i).start, at, "windows tile the payload");
                assert_eq!(&dst[batch.entry_words(i)], &expect[..]);
                at += expect.len();
            }
            assert_eq!(at, batch.words());
            planned_edges += batch.edges();
        }
        let demanded: u64 = nodes.iter().map(|&v| g.degree(v)).sum();
        assert_eq!(
            planned_edges, demanded,
            "every demanded edge is delivered once"
        );
    }

    #[test]
    fn single_copy_gather_matches_write_edge_words() {
        let g = uniform_graph(500, 4_000, false, 3);
        let wg = weighted_variant(&g);
        let nodes: Vec<u32> = (0..500).step_by(3).collect();
        for g in [&g, &wg] {
            // roomy, tight (rows split across batches) and one-edge buffers
            for cap in [1 << 20, 512, 14, 2] {
                assert_single_copy_gather_is_exact(g, &nodes, cap);
            }
        }
    }

    #[test]
    fn a_row_split_across_two_batches_is_delivered_in_order() {
        let g = graph();
        for g in [g.clone(), weighted_variant(&g)] {
            let wpe = g.words_per_edge();
            let mut plan = BatchPlan::default();
            plan.plan(&g, &[0], 2 * wpe); // v0 has 3 edges, room for 2
            assert_eq!(plan.len(), 2);
            let (a, b) = (plan.batch(0), plan.batch(1));
            assert_eq!(
                (a.entries[0].edges.clone(), b.entries[0].edges.clone()),
                (0..2, 2..3)
            );
            let mut got = vec![0u32; a.words() + b.words()];
            let (wa, wb) = got.split_at_mut(a.words());
            a.gather_into(&g, wa);
            b.gather_into(&g, wb);
            let mut expect = Vec::new();
            g.write_edge_words(g.edge_range(0), &mut expect);
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn parallel_gather_splits_by_words_at_entry_boundaries() {
        // one hub row and many leaves: big enough to be split, skewed
        // enough that an entry-count split would starve a worker
        let mut b = GraphBuilder::new(40_000);
        for t in 1..30_000u32 {
            b.add_edge(0, t);
        }
        for v in 1..10_000u32 {
            b.add_edge(v, v + 1);
        }
        let g = b.build();
        let nodes: Vec<u32> = (0..10_000).collect();
        assert_single_copy_gather_is_exact(&g, &nodes, 1 << 20);
        assert_single_copy_gather_is_exact(&weighted_variant(&g), &nodes, 1 << 20);
    }

    #[test]
    fn replanning_reuses_the_plan() {
        let g = uniform_graph(200, 2_000, false, 7);
        let mut plan = BatchPlan::default();
        plan.plan(&g, &(0..200).collect::<Vec<u32>>(), 1024);
        assert!(plan.len() > 1);
        plan.plan(&g, &[5], 1024);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.batch(0).entries.len(), 1);
        assert_eq!(plan.batch(0).edges(), g.degree(5));
        plan.plan(&g, &[], 1024);
        assert!(plan.is_empty());
    }

    #[test]
    #[should_panic(expected = "below one edge")]
    fn rejects_tiny_capacity() {
        let g = weighted_variant(&graph());
        plan_batches(&g, &[0], 1);
    }
}
