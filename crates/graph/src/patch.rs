//! Streaming edge mutations over a chunked, slack-padded CSR.
//!
//! A static [`Csr`] packs every row back to back, so a single edge insert
//! would shift the whole tail of the edge array. [`PatchableCsr`] keeps the
//! same logical graph in *vertex-ranged chunks with slack capacity*: an
//! insert shifts only within its chunk, and a chunk that runs out of slack
//! splits in two at a vertex boundary instead of relocating the world.
//! Applying a batch of [`Mutation`]s yields a [`GraphPatch`] — the record
//! the session layer uses to repair device residency and the repair engine
//! uses to seed its affected-vertex frontier — plus cheap `to_csr` /
//! `to_csc` materialization for the engines, which still consume plain
//! packed [`Csr`]s.
//!
//! ## Canonical patch semantics
//!
//! * An **insert** `(u, v, w)` appends the edge at the *end* of `u`'s row
//!   (rows are not kept sorted — the builder does not sort either), in
//!   batch order when a batch inserts several edges at one source.
//! * A **delete** `(u, v)` removes *every* parallel `(u, v)` edge; deleting
//!   an edge that does not exist is a counted no-op
//!   ([`GraphPatch::missing_deletes`]), never an error.
//! * The CSC mirror lists each row's sources ascending, equal sources in
//!   CSR row order — exactly [`Csr::transpose`]'s counting-sort order, so
//!   `to_csc()` stays byte-identical to `to_csr().transpose()` after any
//!   mutation sequence (pinned by tests and proptests).

use crate::chunks::ChunkGeometry;
use crate::csr::Csr;
use crate::types::{EdgeCount, VertexId, Weight};

/// One edge mutation. Vertex count is fixed — mutations add and remove
/// edges, never vertices (grow the vertex space at build time instead).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Insert edge `src → dst`. `weight` must be present exactly when the
    /// graph is weighted.
    Insert {
        /// Edge source.
        src: VertexId,
        /// Edge target.
        dst: VertexId,
        /// Edge weight (weighted graphs only).
        weight: Option<Weight>,
    },
    /// Delete every parallel `src → dst` edge.
    Delete {
        /// Edge source.
        src: VertexId,
        /// Edge target.
        dst: VertexId,
    },
}

impl Mutation {
    /// The mutation's source vertex.
    pub fn src(&self) -> VertexId {
        match *self {
            Mutation::Insert { src, .. } | Mutation::Delete { src, .. } => src,
        }
    }

    /// The mutation's target vertex.
    pub fn dst(&self) -> VertexId {
        match *self {
            Mutation::Insert { dst, .. } | Mutation::Delete { dst, .. } => dst,
        }
    }
}

/// Why a mutation batch was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PatchErrorKind {
    /// A vertex id at or beyond the vertex count.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: VertexId,
        /// The graph's vertex count.
        num_vertices: usize,
    },
    /// An insert without a weight on a weighted graph.
    MissingWeight,
    /// An insert with a weight on an unweighted graph.
    UnexpectedWeight,
}

/// A rejected mutation batch: the 0-based index of the offending op plus
/// the reason. Batches are validated up front — a rejected batch mutates
/// nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PatchError {
    /// 0-based index of the offending mutation within the batch.
    pub op: usize,
    /// What was wrong with it.
    pub kind: PatchErrorKind,
}

impl std::fmt::Display for PatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            PatchErrorKind::VertexOutOfRange {
                vertex,
                num_vertices,
            } => write!(
                f,
                "mutation {}: vertex {vertex} out of range (graph has {num_vertices} vertices)",
                self.op
            ),
            PatchErrorKind::MissingWeight => write!(
                f,
                "mutation {}: insert on a weighted graph requires a weight",
                self.op
            ),
            PatchErrorKind::UnexpectedWeight => write!(
                f,
                "mutation {}: insert on an unweighted graph must not carry a weight",
                self.op
            ),
        }
    }
}

impl std::error::Error for PatchError {}

/// The record of one applied mutation batch: what changed, which vertices
/// it touched, and where the packed edge array first differs from the
/// pre-patch layout — everything the session needs to repair device
/// residency and the repair engine needs to seed its frontier.
#[derive(Clone, Debug, Default)]
pub struct GraphPatch {
    /// Edges inserted, in batch order.
    pub inserts: Vec<(VertexId, VertexId, Option<Weight>)>,
    /// Edges actually removed — one entry per parallel edge, carrying the
    /// removed edge's weight (SSSP's invalidate pass needs it for the
    /// tight-edge test).
    pub deletes: Vec<(VertexId, VertexId, Option<Weight>)>,
    /// Deletes that matched nothing (counted no-ops).
    pub missing_deletes: u64,
    /// Sorted, deduplicated endpoints of every applied mutation.
    pub touched: Vec<VertexId>,
    /// Smallest global edge index (in pre-patch packed-CSR coordinates, a
    /// conservative lower bound) whose content or position changed. Equal
    /// to the pre-patch edge count when the batch changed nothing.
    pub first_dirty_edge: EdgeCount,
    /// Chunk splits the batch forced in the patchable store.
    pub splits: u32,
}

impl GraphPatch {
    /// Number of edge-level changes (inserted plus actually-removed edges).
    pub fn delta_edges(&self) -> u64 {
        (self.inserts.len() + self.deletes.len()) as u64
    }

    /// Whether the batch changed nothing at all.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }
}

/// One vertex-ranged chunk of the patchable store: a mini-CSR over the
/// vertices `[first_vertex, first_vertex + rows.len() - 1)` with `slack`
/// spare edge capacity.
#[derive(Clone, Debug)]
struct StoreChunk {
    /// First vertex covered (inclusive).
    first_vertex: usize,
    /// Local row offsets; `rows[0] == 0`, `rows.last() == targets.len()`.
    rows: Vec<u32>,
    /// Edge targets of the covered rows, packed.
    targets: Vec<VertexId>,
    /// Parallel weights (weighted graphs).
    weights: Option<Vec<Weight>>,
    /// Edge capacity before this chunk must split.
    cap: usize,
}

impl StoreChunk {
    fn num_rows(&self) -> usize {
        self.rows.len() - 1
    }

    fn len(&self) -> usize {
        self.targets.len()
    }
}

/// A chunked CSR (or CSC) with per-chunk slack, supporting in-place edge
/// inserts and deletes.
#[derive(Clone, Debug)]
struct PatchStore {
    weighted: bool,
    chunks: Vec<StoreChunk>,
    chunk_of_vertex: Vec<u32>,
    /// Slack edges granted to fresh chunks (build and split).
    slack: usize,
    splits: u32,
}

impl PatchStore {
    /// Chunk `g`'s rows into runs of at most `chunk_edges` edges (always at
    /// least one vertex per chunk), each with `slack` spare capacity.
    fn from_csr(g: &Csr, chunk_edges: usize, slack: usize) -> PatchStore {
        let n = g.num_vertices();
        let chunk_edges = chunk_edges.max(1);
        let mut chunks = Vec::new();
        let mut chunk_of_vertex = vec![0u32; n];
        let mut v = 0usize;
        while v < n {
            let first_vertex = v;
            let mut rows = vec![0u32];
            let mut targets = Vec::new();
            let mut weights = g.weights().map(|_| Vec::new());
            loop {
                let tr = g.neighbors(v as VertexId);
                targets.extend_from_slice(tr);
                if let Some(w) = weights.as_mut() {
                    w.extend_from_slice(g.edge_weights(v as VertexId));
                }
                rows.push(targets.len() as u32);
                chunk_of_vertex[v] = chunks.len() as u32;
                v += 1;
                if v >= n || targets.len() >= chunk_edges {
                    break;
                }
            }
            let cap = targets.len() + slack;
            chunks.push(StoreChunk {
                first_vertex,
                rows,
                targets,
                weights,
                cap,
            });
        }
        if chunks.is_empty() {
            // zero-vertex graph: one empty chunk keeps the invariants
            chunks.push(StoreChunk {
                first_vertex: 0,
                rows: vec![0],
                targets: Vec::new(),
                weights: g.weights().map(|_| Vec::new()),
                cap: slack,
            });
        }
        PatchStore {
            weighted: g.is_weighted(),
            chunks,
            chunk_of_vertex,
            slack,
            splits: 0,
        }
    }

    fn num_vertices(&self) -> usize {
        self.chunk_of_vertex.len()
    }

    fn num_edges(&self) -> u64 {
        self.chunks.iter().map(|c| c.len() as u64).sum()
    }

    fn row(&self, v: VertexId) -> &[VertexId] {
        let c = &self.chunks[self.chunk_of_vertex[v as usize] as usize];
        let r = v as usize - c.first_vertex;
        &c.targets[c.rows[r] as usize..c.rows[r + 1] as usize]
    }

    fn row_len(&self, v: VertexId) -> usize {
        let c = &self.chunks[self.chunk_of_vertex[v as usize] as usize];
        let r = v as usize - c.first_vertex;
        (c.rows[r + 1] - c.rows[r]) as usize
    }

    /// Global packed-CSR offset of `v`'s row start, in the store's current
    /// state.
    fn global_row_start(&self, v: VertexId) -> u64 {
        let ci = self.chunk_of_vertex[v as usize] as usize;
        let base: u64 = self.chunks[..ci].iter().map(|c| c.len() as u64).sum();
        let c = &self.chunks[ci];
        base + c.rows[v as usize - c.first_vertex] as u64
    }

    /// Insert `(t, w)` at position `pos` within `v`'s row, splitting (or,
    /// for single-vertex chunks, growing) on capacity overflow.
    fn insert(&mut self, v: VertexId, pos: usize, t: VertexId, w: Option<Weight>) {
        debug_assert_eq!(w.is_some(), self.weighted);
        let mut ci = self.chunk_of_vertex[v as usize] as usize;
        if self.chunks[ci].len() >= self.chunks[ci].cap {
            if self.chunks[ci].num_rows() > 1 {
                self.split_chunk(ci);
                ci = self.chunk_of_vertex[v as usize] as usize;
            } else {
                // one giant row: nothing to split at, grow the slack
                let grow = self.slack.max(4);
                self.chunks[ci].cap += grow;
            }
        }
        let c = &mut self.chunks[ci];
        let r = v as usize - c.first_vertex;
        let at = c.rows[r] as usize + pos;
        debug_assert!(at <= c.rows[r + 1] as usize, "insert past row end");
        c.targets.insert(at, t);
        if let Some(ws) = c.weights.as_mut() {
            ws.insert(at, w.expect("weighted store insert without weight"));
        }
        for o in &mut c.rows[r + 1..] {
            *o += 1;
        }
    }

    /// Remove every entry equal to `t` from `v`'s row. Returns the removed
    /// weights (empty when nothing matched) and the position of the first
    /// removal within the row.
    fn remove_matching(
        &mut self,
        v: VertexId,
        t: VertexId,
    ) -> (Vec<Option<Weight>>, Option<usize>) {
        let ci = self.chunk_of_vertex[v as usize] as usize;
        let c = &mut self.chunks[ci];
        let r = v as usize - c.first_vertex;
        let (start, end) = (c.rows[r] as usize, c.rows[r + 1] as usize);
        let mut removed = Vec::new();
        let mut first = None;
        let mut i = end;
        // walk backwards so earlier removal positions stay valid
        while i > start {
            i -= 1;
            if c.targets[i] == t {
                c.targets.remove(i);
                let w = c.weights.as_mut().map(|ws| ws.remove(i));
                removed.push(w);
                first = Some(i - start);
            }
        }
        removed.reverse();
        let k = removed.len() as u32;
        if k > 0 {
            for o in &mut c.rows[r + 1..] {
                *o -= k;
            }
        }
        (removed, first)
    }

    /// Split chunk `ci` at a vertex boundary near its edge midpoint. The
    /// chunk must cover at least two vertices.
    fn split_chunk(&mut self, ci: usize) {
        let c = &self.chunks[ci];
        let nrows = c.num_rows();
        debug_assert!(nrows > 1, "cannot split a single-vertex chunk");
        let half = (c.len() / 2) as u32;
        // first row boundary at or past the midpoint, clamped interior
        let mut cut = c.rows[1..nrows].partition_point(|&o| o < half) + 1;
        cut = cut.clamp(1, nrows - 1);
        let cut_off = c.rows[cut] as usize;

        let c = &mut self.chunks[ci];
        let hi_targets = c.targets.split_off(cut_off);
        let hi_weights = c.weights.as_mut().map(|ws| ws.split_off(cut_off));
        let hi_rows: Vec<u32> = c.rows[cut..].iter().map(|&o| o - cut_off as u32).collect();
        c.rows.truncate(cut + 1);
        c.cap = c.targets.len() + self.slack;
        let hi = StoreChunk {
            first_vertex: c.first_vertex + cut,
            cap: hi_targets.len() + self.slack,
            rows: hi_rows,
            targets: hi_targets,
            weights: hi_weights,
        };
        let hi_first = hi.first_vertex;
        let hi_rows_n = hi.num_rows();
        self.chunks.insert(ci + 1, hi);
        // renumber chunk ids for the split-off vertices and everything after
        for v in hi_first..hi_first + hi_rows_n {
            self.chunk_of_vertex[v] = (ci + 1) as u32;
        }
        for v in self.chunk_of_vertex[hi_first + hi_rows_n..].iter_mut() {
            *v += 1;
        }
        self.splits += 1;
    }

    /// Materialize a packed [`Csr`].
    fn to_csr(&self) -> Csr {
        let n = self.num_vertices();
        let m = self.num_edges() as usize;
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(m);
        let mut weights = if self.weighted {
            Some(Vec::with_capacity(m))
        } else {
            None
        };
        offsets.push(0u64);
        let mut total = 0u64;
        for c in &self.chunks {
            for r in 0..c.num_rows() {
                total += (c.rows[r + 1] - c.rows[r]) as u64;
                offsets.push(total);
            }
            targets.extend_from_slice(&c.targets);
            if let (Some(out), Some(ws)) = (weights.as_mut(), c.weights.as_ref()) {
                out.extend_from_slice(ws);
            }
        }
        debug_assert_eq!(offsets.len(), n + 1);
        Csr::from_parts(offsets, targets, weights)
    }
}

/// All graph epochs of a mutation stream ([`PatchableCsr::materialize`]).
pub struct Epochs {
    /// `versions[i]` is the graph after the first `i` batches
    /// (`versions[0]` is the base graph re-packed through the patch
    /// store's canonical chunking).
    pub versions: Vec<Csr>,
    /// The CSC mirror of each version (same indexing) — empty unless the
    /// mirror was asked for.
    pub cscs: Vec<Csr>,
    /// `patches[i]` turned `versions[i]` into `versions[i + 1]`.
    pub patches: Vec<GraphPatch>,
}

impl Epochs {
    /// The mirror of `versions[i]`, when mirrors were kept.
    pub fn csc(&self, i: usize) -> Option<&Csr> {
        self.cscs.get(i)
    }
}

/// A mutable graph: a chunked CSR with slack, plus an optional CSC mirror
/// kept in lockstep (built when pull-direction engines need the transpose).
pub struct PatchableCsr {
    csr: PatchStore,
    csc: Option<PatchStore>,
    num_vertices: usize,
    weighted: bool,
}

/// Default edge count per patchable chunk (matches the paper's 16 KiB
/// chunks at 4 B/edge).
pub const DEFAULT_CHUNK_EDGES: usize = 4096;
/// Default slack edges granted per chunk.
pub const DEFAULT_SLACK_EDGES: usize = 64;

impl PatchableCsr {
    /// Wrap `g` in a patchable store without a CSC mirror.
    pub fn new(g: &Csr, chunk_edges: usize, slack_edges: usize) -> PatchableCsr {
        PatchableCsr {
            csr: PatchStore::from_csr(g, chunk_edges, slack_edges),
            csc: None,
            num_vertices: g.num_vertices(),
            weighted: g.is_weighted(),
        }
    }

    /// Wrap `g` with a CSC mirror patched in lockstep — for sessions whose
    /// direction policy ever pulls.
    pub fn with_mirror(g: &Csr, chunk_edges: usize, slack_edges: usize) -> PatchableCsr {
        let mut p = Self::new(g, chunk_edges, slack_edges);
        p.csc = Some(PatchStore::from_csr(
            &g.transpose(),
            chunk_edges,
            slack_edges,
        ));
        p
    }

    /// Default-geometry store ([`DEFAULT_CHUNK_EDGES`] /
    /// [`DEFAULT_SLACK_EDGES`]), mirror included iff `mirror`.
    pub fn with_defaults(g: &Csr, mirror: bool) -> PatchableCsr {
        if mirror {
            Self::with_mirror(g, DEFAULT_CHUNK_EDGES, DEFAULT_SLACK_EDGES)
        } else {
            Self::new(g, DEFAULT_CHUNK_EDGES, DEFAULT_SLACK_EDGES)
        }
    }

    /// Vertex count (fixed for the store's lifetime).
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Current edge count.
    pub fn num_edges(&self) -> u64 {
        self.csr.num_edges()
    }

    /// Whether edges carry weights.
    pub fn is_weighted(&self) -> bool {
        self.weighted
    }

    /// Chunk splits performed so far (CSR side).
    pub fn splits(&self) -> u32 {
        self.csr.splits
    }

    /// Validate a batch without mutating anything.
    fn validate(&self, ops: &[Mutation]) -> Result<(), PatchError> {
        let n = self.num_vertices;
        for (i, op) in ops.iter().enumerate() {
            for v in [op.src(), op.dst()] {
                if v as usize >= n {
                    return Err(PatchError {
                        op: i,
                        kind: PatchErrorKind::VertexOutOfRange {
                            vertex: v,
                            num_vertices: n,
                        },
                    });
                }
            }
            if let Mutation::Insert { weight, .. } = op {
                if self.weighted && weight.is_none() {
                    return Err(PatchError {
                        op: i,
                        kind: PatchErrorKind::MissingWeight,
                    });
                }
                if !self.weighted && weight.is_some() {
                    return Err(PatchError {
                        op: i,
                        kind: PatchErrorKind::UnexpectedWeight,
                    });
                }
            }
        }
        Ok(())
    }

    /// Apply one mutation batch in order. Returns the [`GraphPatch`]
    /// record; a rejected batch (bad vertex, weight mismatch) mutates
    /// nothing.
    pub fn apply(&mut self, ops: &[Mutation]) -> Result<GraphPatch, PatchError> {
        self.validate(ops)?;
        let splits_before = self.csr.splits;
        let mut patch = GraphPatch {
            first_dirty_edge: self.csr.num_edges(),
            ..GraphPatch::default()
        };
        let mut touched = Vec::new();
        for op in ops {
            match *op {
                Mutation::Insert { src, dst, weight } => {
                    let dirty = self.csr.global_row_start(src) + self.csr.row_len(src) as u64;
                    patch.first_dirty_edge = patch.first_dirty_edge.min(dirty);
                    let pos = self.csr.row_len(src);
                    self.csr.insert(src, pos, dst, weight);
                    if let Some(csc) = self.csc.as_mut() {
                        // sources ascending; equal sources in CSR row
                        // order, and the CSR appended at the row end
                        let pos = csc.row(dst).partition_point(|&u| u <= src);
                        csc.insert(dst, pos, src, weight);
                    }
                    patch.inserts.push((src, dst, weight));
                    touched.push(src);
                    touched.push(dst);
                }
                Mutation::Delete { src, dst } => {
                    let row_start = self.csr.global_row_start(src);
                    let (removed, first) = self.csr.remove_matching(src, dst);
                    if removed.is_empty() {
                        patch.missing_deletes += 1;
                        continue;
                    }
                    patch.first_dirty_edge = patch
                        .first_dirty_edge
                        .min(row_start + first.unwrap_or(0) as u64);
                    if let Some(csc) = self.csc.as_mut() {
                        let (mirror_removed, _) = csc.remove_matching(dst, src);
                        debug_assert_eq!(mirror_removed.len(), removed.len(), "mirror divergence");
                    }
                    for w in removed {
                        patch.deletes.push((src, dst, w));
                    }
                    touched.push(src);
                    touched.push(dst);
                }
            }
        }
        touched.sort_unstable();
        touched.dedup();
        patch.touched = touched;
        patch.splits = self.csr.splits - splits_before;
        Ok(patch)
    }

    /// Apply `batches` in order through a default-geometry store over `g`
    /// and keep every intermediate epoch — a session borrows the graph it
    /// runs over, so a mutation stream's versions must all outlive it.
    /// The CSC mirrors are kept only when `mirror` is set (a session reads
    /// them only if its direction policy can pull). Fails on the first
    /// malformed mutation (weight-rule violation or out-of-range
    /// endpoint), identifying the batch by index.
    pub fn materialize(
        g: &Csr,
        batches: &[Vec<Mutation>],
        mirror: bool,
    ) -> Result<Epochs, (usize, PatchError)> {
        let mut store = PatchableCsr::with_defaults(g, mirror);
        let mut epochs = Epochs {
            versions: vec![store.to_csr()],
            cscs: store.to_csc().into_iter().collect(),
            patches: Vec::with_capacity(batches.len()),
        };
        for (i, batch) in batches.iter().enumerate() {
            epochs.patches.push(store.apply(batch).map_err(|e| (i, e))?);
            epochs.versions.push(store.to_csr());
            epochs.cscs.extend(store.to_csc());
        }
        Ok(epochs)
    }

    /// Materialize the packed CSR.
    pub fn to_csr(&self) -> Csr {
        self.csr.to_csr()
    }

    /// Materialize the packed CSC mirror (when maintained).
    pub fn to_csc(&self) -> Option<Csr> {
        self.csc.as_ref().map(|s| s.to_csr())
    }

    /// The packed CSR's chunk geometry for `chunk_bytes`-byte device
    /// chunks — what a session bound to [`PatchableCsr::to_csr`] sees.
    pub fn geometry(&self, chunk_bytes: usize) -> ChunkGeometry {
        ChunkGeometry::with_chunk_bytes(&self.to_csr(), chunk_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generators::uniform_graph;

    /// Rebuild-from-scratch oracle applying the canonical semantics to an
    /// edge list.
    fn oracle_apply(g: &Csr, batches: &[Vec<Mutation>]) -> Csr {
        let n = g.num_vertices();
        let mut rows: Vec<Vec<(VertexId, Option<Weight>)>> = (0..n)
            .map(|v| {
                let ts = g.neighbors(v as VertexId);
                match g.weights() {
                    Some(_) => ts
                        .iter()
                        .zip(g.edge_weights(v as VertexId))
                        .map(|(&t, &w)| (t, Some(w)))
                        .collect(),
                    None => ts.iter().map(|&t| (t, None)).collect(),
                }
            })
            .collect();
        for batch in batches {
            for op in batch {
                match *op {
                    Mutation::Insert { src, dst, weight } => {
                        rows[src as usize].push((dst, weight));
                    }
                    Mutation::Delete { src, dst } => {
                        rows[src as usize].retain(|&(t, _)| t != dst);
                    }
                }
            }
        }
        let mut offsets = vec![0u64];
        let mut targets = Vec::new();
        let mut weights = g.weights().map(|_| Vec::new());
        for row in &rows {
            for &(t, w) in row {
                targets.push(t);
                if let Some(ws) = weights.as_mut() {
                    ws.push(w.unwrap());
                }
            }
            offsets.push(targets.len() as u64);
        }
        Csr::from_parts(offsets, targets, weights)
    }

    fn assert_csr_eq(a: &Csr, b: &Csr) {
        assert_eq!(a.num_vertices(), b.num_vertices());
        assert_eq!(a.offsets(), b.offsets(), "offsets differ");
        assert_eq!(a.targets(), b.targets(), "targets differ");
        assert_eq!(a.weights(), b.weights(), "weights differ");
    }

    #[test]
    fn insert_appends_at_row_end() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 3);
        b.add_edge(0, 1);
        let g = b.build();
        let mut p = PatchableCsr::new(&g, 4, 2);
        let patch = p
            .apply(&[Mutation::Insert {
                src: 0,
                dst: 2,
                weight: None,
            }])
            .unwrap();
        let out = p.to_csr();
        out.validate().expect("patched CSR invariants");
        // rows keep builder insertion order; the insert lands at the end
        assert_eq!(out.neighbors(0), &[3, 1, 2]);
        assert_eq!(patch.inserts, vec![(0, 2, None)]);
        assert_eq!(patch.touched, vec![0, 2]);
        assert_eq!(out.num_edges(), 3);
    }

    #[test]
    fn delete_removes_all_parallel_edges_and_counts_misses() {
        let mut b = GraphBuilder::new(3).dedup(false);
        b.add_edge(0, 1);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        let g = b.build();
        let mut p = PatchableCsr::new(&g, 8, 2);
        let patch = p
            .apply(&[
                Mutation::Delete { src: 0, dst: 1 },
                Mutation::Delete { src: 2, dst: 0 },
            ])
            .unwrap();
        assert_eq!(patch.deletes.len(), 2, "both parallel copies removed");
        assert_eq!(patch.missing_deletes, 1);
        let out = p.to_csr();
        out.validate().expect("patched CSR invariants");
        assert_eq!(out.neighbors(0), &[2]);
    }

    #[test]
    fn weighted_patch_keeps_weights_aligned() {
        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(0, 1, 10);
        b.add_weighted_edge(0, 2, 20);
        b.add_weighted_edge(1, 2, 30);
        let g = b.build();
        let mut p = PatchableCsr::with_mirror(&g, 2, 1);
        p.apply(&[
            Mutation::Insert {
                src: 2,
                dst: 0,
                weight: Some(5),
            },
            Mutation::Delete { src: 0, dst: 1 },
        ])
        .unwrap();
        let out = p.to_csr();
        out.validate().expect("patched CSR invariants");
        assert_eq!(out.neighbors(0), &[2]);
        assert_eq!(out.edge_weights(0), &[20]);
        assert_eq!(out.neighbors(2), &[0]);
        assert_eq!(out.edge_weights(2), &[5]);
        let csc = p.to_csc().unwrap();
        csc.validate().expect("patched CSC invariants");
        assert_csr_eq(&csc, &out.transpose());
    }

    #[test]
    fn rejects_bad_batches_without_mutating() {
        let g = uniform_graph(10, 40, false, 1);
        let mut p = PatchableCsr::new(&g, 8, 2);
        let before = p.to_csr();
        let err = p
            .apply(&[
                Mutation::Insert {
                    src: 1,
                    dst: 2,
                    weight: None,
                },
                Mutation::Delete { src: 3, dst: 10 },
            ])
            .unwrap_err();
        assert_eq!(err.op, 1);
        assert!(matches!(
            err.kind,
            PatchErrorKind::VertexOutOfRange { vertex: 10, .. }
        ));
        let err = p
            .apply(&[Mutation::Insert {
                src: 0,
                dst: 1,
                weight: Some(7),
            }])
            .unwrap_err();
        assert_eq!(err.kind, PatchErrorKind::UnexpectedWeight);
        assert_csr_eq(&p.to_csr(), &before);
        let gw = crate::datasets::weighted_variant(&g);
        let mut pw = PatchableCsr::new(&gw, 8, 2);
        let err = pw
            .apply(&[Mutation::Insert {
                src: 0,
                dst: 1,
                weight: None,
            }])
            .unwrap_err();
        assert_eq!(err.kind, PatchErrorKind::MissingWeight);
    }

    #[test]
    fn chunk_split_on_overflow_preserves_content() {
        // tiny chunks + zero slack force splits immediately
        let g = uniform_graph(50, 300, false, 3);
        let mut p = PatchableCsr::new(&g, 4, 0);
        let mut batches = Vec::new();
        let mut rng = 0x1234_5678_u64;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for _ in 0..8 {
            let batch: Vec<Mutation> = (0..20)
                .map(|_| Mutation::Insert {
                    src: (next() % 50) as VertexId,
                    dst: (next() % 50) as VertexId,
                    weight: None,
                })
                .collect();
            p.apply(&batch).unwrap();
            batches.push(batch);
        }
        assert!(p.splits() > 0, "zero-slack chunks must have split");
        let out = p.to_csr();
        out.validate().expect("patched CSR invariants");
        assert_csr_eq(&out, &oracle_apply(&g, &batches));
    }

    #[test]
    fn single_vertex_hub_chunk_grows_instead_of_splitting() {
        // one hub owns a whole chunk; splitting is impossible, it must grow
        let mut b = GraphBuilder::new(8);
        for t in 1..8u32 {
            b.add_edge(0, t);
        }
        let g = b.build();
        let mut p = PatchableCsr::new(&g, 4, 0);
        let batch: Vec<Mutation> = (1..8)
            .map(|t| Mutation::Insert {
                src: 0,
                dst: t,
                weight: None,
            })
            .collect();
        p.apply(&batch).unwrap();
        let out = p.to_csr();
        out.validate().expect("patched CSR invariants");
        assert_eq!(out.degree(0), 14);
    }

    #[test]
    fn mirror_tracks_transpose_through_churn() {
        let g = uniform_graph(40, 250, false, 9);
        let mut p = PatchableCsr::with_mirror(&g, 8, 2);
        let mut rng = 0xDEAD_BEEF_u64;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for _ in 0..6 {
            let batch: Vec<Mutation> = (0..15)
                .map(|i| {
                    let (s, d) = ((next() % 40) as VertexId, (next() % 40) as VertexId);
                    if i % 3 == 0 {
                        Mutation::Delete { src: s, dst: d }
                    } else {
                        Mutation::Insert {
                            src: s,
                            dst: d,
                            weight: None,
                        }
                    }
                })
                .collect();
            p.apply(&batch).unwrap();
            let csr = p.to_csr();
            csr.validate().expect("patched CSR invariants");
            let csc = p.to_csc().unwrap();
            csc.validate().expect("patched CSC invariants");
            assert_csr_eq(&csc, &csr.transpose());
        }
    }

    #[test]
    fn materialize_keeps_every_epoch_and_mirrors_only_on_request() {
        let g = uniform_graph(40, 250, false, 9);
        let insert = |src, dst| Mutation::Insert {
            src,
            dst,
            weight: None,
        };
        let batches = vec![
            vec![insert(1, 2), insert(3, 4)],
            vec![Mutation::Delete { src: 1, dst: 2 }],
        ];
        let with = PatchableCsr::materialize(&g, &batches, true).unwrap();
        let without = PatchableCsr::materialize(&g, &batches, false).unwrap();
        assert_eq!((with.versions.len(), with.cscs.len()), (3, 3));
        assert_eq!((without.versions.len(), without.cscs.len()), (3, 0));
        assert!(without.csc(1).is_none());
        for (i, version) in with.versions.iter().enumerate() {
            assert_csr_eq(version, &without.versions[i]);
            assert_csr_eq(with.csc(i).unwrap(), &version.transpose());
        }
        assert_eq!(with.patches.len(), 2);
        // a malformed batch is named by index, whatever came before it
        let bad = vec![batches[0].clone(), vec![insert(1, 400)]];
        let Err((idx, _)) = PatchableCsr::materialize(&g, &bad, false) else {
            panic!("out-of-range endpoint accepted");
        };
        assert_eq!(idx, 1);
    }

    #[test]
    fn first_dirty_edge_is_conservative() {
        let mut b = GraphBuilder::new(6);
        for v in 0..5u32 {
            b.add_edge(v, v + 1);
        }
        let g = b.build();
        let before = g.clone();
        let mut p = PatchableCsr::new(&g, 2, 2);
        let patch = p
            .apply(&[Mutation::Insert {
                src: 3,
                dst: 0,
                weight: None,
            }])
            .unwrap();
        let after = p.to_csr();
        // everything before first_dirty_edge must be byte-identical
        let k = patch.first_dirty_edge as usize;
        assert_eq!(&before.targets()[..k], &after.targets()[..k]);
        assert!(k <= 4, "row 3 starts at edge 3, ends at 4");
        // an empty batch leaves the dirty mark at the edge count
        let patch = p.apply(&[]).unwrap();
        assert!(patch.is_empty());
        assert_eq!(patch.first_dirty_edge, after.num_edges());
    }

    #[test]
    fn self_loops_and_isolated_vertices() {
        let mut b = GraphBuilder::new(5).dedup(false);
        b.add_edge(1, 1);
        b.add_edge(1, 2);
        let g = b.build();
        let mut p = PatchableCsr::with_mirror(&g, 2, 1);
        let batches = vec![vec![
            Mutation::Insert {
                src: 4,
                dst: 4,
                weight: None,
            },
            Mutation::Delete { src: 1, dst: 1 },
            Mutation::Insert {
                src: 0,
                dst: 4,
                weight: None,
            },
        ]];
        p.apply(&batches[0]).unwrap();
        let out = p.to_csr();
        out.validate().expect("patched CSR invariants");
        assert_csr_eq(&out, &oracle_apply(&g, &batches));
        assert_csr_eq(&p.to_csc().unwrap(), &out.transpose());
    }
}
