//! Streaming edge mutations, applied to a packed [`Csr`] in place.
//!
//! [`Csr::apply`] takes one batch of [`Mutation`]s in a single pass over the
//! edge array — no chunked side store, no per-op memmove — and returns the
//! [`GraphPatch`] record the session layer uses to repair device residency
//! and the repair engine uses to seed its affected-vertex frontier. A
//! session owns the graph of the epoch it is on and patches it through
//! here; nothing keeps one copy per epoch.
//!
//! ## Canonical patch semantics
//!
//! * An **insert** `(u, v, w)` appends the edge at the *end* of `u`'s row
//!   (rows are not kept sorted — the builder does not sort either), in
//!   batch order when a batch inserts several edges at one source.
//! * A **delete** `(u, v)` removes *every* parallel `(u, v)` edge live at
//!   that point of the batch — the row's own copies first, in row order,
//!   then copies inserted earlier in the batch, in batch order; deleting
//!   an edge that does not exist is a counted no-op
//!   ([`GraphPatch::missing_deletes`]), never an error.
//! * The patched graph's transpose is [`Csr::transpose`] of the result, so
//!   a CSC mirror is re-derived, never patched beside it.
//!
//! ## One pass
//!
//! The fate of every edge copy depends only on the ops naming its
//! `(src, dst)` pair, so the batch is sorted by that pair (batch order
//! within it) and each pair is played out on its own: which original
//! copies die (one scan of each row the batch deletes from) and which
//! inserts survive. What is left is a list of edits in old-array order —
//! dropped positions, appended row tails — and the kept runs between them
//! move by a shift that is constant per run: runs moving left are copied
//! left to right, then runs moving right right to left, so no run is
//! overwritten before it is read; the tails land last. Net growth is one
//! `reserve_exact`; no second edge array is ever built. Cost:
//! O(m + b log b) for `m` edges and a `b`-op batch.

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
    /// Smallest global edge index whose content or position changed: the
    /// least of the pre-patch row end of every row the batch inserts into
    /// and the position of every original edge it deletes. Equal to the
    /// pre-patch edge count when the batch changed nothing.
    pub first_dirty_edge: EdgeCount,
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

/// One stretch of the patched edge array: a run of kept edges moved from
/// `from`, or appended row tails (`appended[items]`), landing at `to`.
enum Piece {
    Keep { from: usize, to: usize, len: usize },
    Tail { items: (usize, usize), to: usize },
}

impl Csr {
    /// Check a batch against this graph's vertex range and weight rule
    /// without applying it: every endpoint below the vertex count, a
    /// weight on exactly the inserts of a weighted graph. Vertex count and
    /// weightedness never change under mutation, so a batch valid for one
    /// epoch is valid for every epoch of the same graph.
    pub fn check_batch(&self, ops: &[Mutation]) -> Result<(), PatchError> {
        let n = self.num_vertices();
        let weighted = self.is_weighted();
        for (i, op) in ops.iter().enumerate() {
            let beyond = [op.src(), op.dst()].into_iter().find(|&v| v as usize >= n);
            let kind = match (beyond, op) {
                (Some(vertex), _) => PatchErrorKind::VertexOutOfRange {
                    vertex,
                    num_vertices: n,
                },
                (_, Mutation::Insert { weight, .. }) if weight.is_some() != weighted => {
                    if weighted {
                        PatchErrorKind::MissingWeight
                    } else {
                        PatchErrorKind::UnexpectedWeight
                    }
                }
                _ => continue,
            };
            return Err(PatchError { op: i, kind });
        }
        Ok(())
    }

    /// Apply one mutation batch in place, in one pass (module docs).
    /// Returns the [`GraphPatch`] record; a rejected batch
    /// ([`Csr::check_batch`]) mutates nothing.
    pub fn apply(&mut self, ops: &[Mutation]) -> Result<GraphPatch, PatchError> {
        self.check_batch(ops)?;
        let mut patch = GraphPatch {
            first_dirty_edge: self.num_edges(),
            ..GraphPatch::default()
        };
        let mut touched = Vec::new();
        for op in ops {
            if let Mutation::Insert { src, dst, weight } = *op {
                patch.inserts.push((src, dst, weight));
                touched.extend([src, dst]);
            }
        }

        // Play each (src, dst) pair's ops out in batch order, row by row.
        let op = |i: u32| ops[i as usize];
        let mut order: Vec<u32> = (0..ops.len() as u32).collect();
        order.sort_unstable_by_key(|&i| (op(i).src(), op(i).dst(), i));
        let mut dropped: Vec<usize> = Vec::new(); // original positions deleted
        let mut appended: Vec<(VertexId, u32)> = Vec::new(); // surviving inserts
        let mut removed: Vec<(u32, Option<Weight>)> = Vec::new(); // (delete op, weight)
        let mut row_delta: Vec<(VertexId, i64)> = Vec::new();
        let (mut doomed, mut hits, mut pending) = (Vec::new(), Vec::new(), Vec::new());
        let mut rest = &order[..];
        while let Some(&first) = rest.first() {
            let src = op(first).src();
            let (row_ops, tail) = rest.split_at(rest.partition_point(|&i| op(i).src() == src));
            rest = tail;
            let start = self.offsets[src as usize] as usize;
            let end = self.offsets[src as usize + 1] as usize;
            if row_ops
                .iter()
                .any(|&i| matches!(op(i), Mutation::Insert { .. }))
            {
                patch.first_dirty_edge = patch.first_dirty_edge.min(end as EdgeCount);
            }
            // The row's original copies of every target it deletes, in row
            // order per target: one scan of the row.
            doomed.clear();
            doomed.extend(
                row_ops
                    .iter()
                    .filter(|&&i| matches!(op(i), Mutation::Delete { .. }))
                    .map(|&i| op(i).dst()),
            );
            doomed.dedup(); // already sorted
            hits.clear();
            if !doomed.is_empty() {
                for (pos, t) in self.targets[start..end].iter().enumerate() {
                    if let Ok(k) = doomed.binary_search(t) {
                        hits.push((k, start + pos));
                    }
                }
                hits.sort_by_key(|h| h.0); // stable: row order per target
            }
            let (mut hit, mut gone, mut kept) = (0, 0, 0);
            let mut pairs = row_ops;
            while let Some(&first) = pairs.first() {
                let dst = op(first).dst();
                let (pair, tail) = pairs.split_at(pairs.partition_point(|&i| op(i).dst() == dst));
                pairs = tail;
                let from = hit;
                if let Ok(k) = doomed.binary_search(&dst) {
                    while hit < hits.len() && hits[hit].0 == k {
                        hit += 1;
                    }
                }
                let mut originals = &hits[from..hit];
                pending.clear();
                for &i in pair {
                    let Mutation::Insert { weight, .. } = op(i) else {
                        let before = removed.len();
                        for &(_, pos) in originals {
                            removed.push((i, self.weights.as_ref().map(|w| w[pos])));
                            dropped.push(pos);
                        }
                        gone += originals.len() as i64;
                        originals = &[];
                        removed.extend(pending.drain(..).map(|(_, w)| (i, w)));
                        if removed.len() == before {
                            patch.missing_deletes += 1;
                        } else {
                            touched.extend([src, dst]);
                        }
                        continue;
                    };
                    pending.push((i, weight));
                }
                kept += pending.len() as i64;
                appended.extend(pending.iter().map(|&(i, _)| (src, i)));
            }
            if kept != gone {
                row_delta.push((src, kept - gone));
            }
        }
        dropped.sort_unstable();
        if let Some(&first) = dropped.first() {
            patch.first_dirty_edge = patch.first_dirty_edge.min(first as EdgeCount);
        }
        appended.sort_unstable();
        // stable: within one delete, row order then batch order
        removed.sort_by_key(|r| r.0);
        patch.deletes = removed
            .iter()
            .map(|&(i, w)| (op(i).src(), op(i).dst(), w))
            .collect();
        touched.sort_unstable();
        touched.dedup();
        patch.touched = touched;

        self.splice(&dropped, &appended, ops);
        let mut shift = 0;
        for (k, &(v, delta)) in row_delta.iter().enumerate() {
            shift += delta;
            let next = row_delta
                .get(k + 1)
                .map_or(self.offsets.len() - 1, |r| r.0 as usize);
            for o in &mut self.offsets[v as usize + 1..=next] {
                *o = (*o as i64 + shift) as EdgeCount;
            }
        }
        debug_assert_eq!(self.num_edges() as usize, self.targets.len());
        Ok(patch)
    }

    /// Rewrite the edge arrays around a batch's edits: drop the original
    /// edges at `dropped` (ascending) and append each surviving insert of
    /// `appended` (by row, then batch order) at its row's pre-patch end.
    fn splice(&mut self, dropped: &[usize], appended: &[(VertexId, u32)], ops: &[Mutation]) {
        let m = self.targets.len();
        let row_end = |&(v, _): &(VertexId, u32)| self.offsets[v as usize + 1] as usize;
        let mut pieces = Vec::new();
        let (mut cur, mut out, mut d, mut a) = (0, 0, 0, 0);
        loop {
            // a tail lands before the edge at its row's end position
            let (pos, tail) = match (appended.get(a).map(row_end), dropped.get(d)) {
                (Some(t), Some(&p)) if t <= p => (t, true),
                (Some(t), None) => (t, true),
                (_, Some(&p)) => (p, false),
                (None, None) => (m, false),
            };
            if pos > cur {
                let len = pos - cur;
                pieces.push(Piece::Keep {
                    from: cur,
                    to: out,
                    len,
                });
                (cur, out) = (pos, out + len);
            }
            if tail {
                let first = a;
                while appended.get(a).map(row_end) == Some(pos) {
                    a += 1;
                }
                pieces.push(Piece::Tail {
                    items: (first, a),
                    to: out,
                });
                out += a - first;
            } else if d < dropped.len() {
                (d, cur) = (d + 1, pos + 1);
            } else {
                break;
            }
        }
        if out > m {
            self.targets.reserve_exact(out - m);
            self.targets.resize(out, 0);
            if let Some(w) = self.weights.as_mut() {
                w.reserve_exact(out - m);
                w.resize(out, 0);
            }
        }
        let (targets, mut weights) = (&mut self.targets, self.weights.as_mut());
        let mut shift = |from: usize, to: usize, len: usize| {
            targets.copy_within(from..from + len, to);
            if let Some(w) = weights.as_mut() {
                w.copy_within(from..from + len, to);
            }
        };
        // runs moving left, left to right ...
        for piece in &pieces {
            match *piece {
                Piece::Keep { from, to, len } if to <= from => shift(from, to, len),
                _ => {}
            }
        }
        // ... then runs moving right, right to left
        for piece in pieces.iter().rev() {
            match *piece {
                Piece::Keep { from, to, len } if to > from => shift(from, to, len),
                _ => {}
            }
        }
        // every kept edge is in place: the tails overwrite nothing
        for piece in &pieces {
            let Piece::Tail { items, to } = *piece else {
                continue;
            };
            for (slot, &(_, i)) in (to..).zip(&appended[items.0..items.1]) {
                if let Mutation::Insert { dst, weight, .. } = ops[i as usize] {
                    self.targets[slot] = dst;
                    if let (Some(w), Some(wt)) = (self.weights.as_mut(), weight) {
                        w[slot] = wt;
                    }
                }
            }
        }
        self.targets.truncate(out);
        if let Some(w) = self.weights.as_mut() {
            w.truncate(out);
        }
    }

    /// Edge slots the target array has allocated (at least
    /// [`Csr::num_edges`]): what in-place patching has grown it to.
    pub fn edge_capacity(&self) -> usize {
        self.targets.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generators::uniform_graph;
    use proptest::prelude::*;

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
        let mut g = b.build();
        let patch = g
            .apply(&[Mutation::Insert {
                src: 0,
                dst: 2,
                weight: None,
            }])
            .unwrap();
        g.validate().expect("patched CSR invariants");
        // rows keep builder insertion order; the insert lands at the end
        assert_eq!(g.neighbors(0), &[3, 1, 2]);
        assert_eq!(patch.inserts, vec![(0, 2, None)]);
        assert_eq!(patch.touched, vec![0, 2]);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn delete_removes_all_parallel_edges_and_counts_misses() {
        let mut b = GraphBuilder::new(3).dedup(false);
        b.add_edge(0, 1);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        let mut g = b.build();
        let patch = g
            .apply(&[
                Mutation::Delete { src: 0, dst: 1 },
                Mutation::Delete { src: 2, dst: 0 },
            ])
            .unwrap();
        assert_eq!(patch.deletes.len(), 2, "both parallel copies removed");
        assert_eq!(patch.missing_deletes, 1);
        g.validate().expect("patched CSR invariants");
        assert_eq!(g.neighbors(0), &[2]);
    }

    #[test]
    fn weighted_patch_keeps_weights_aligned() {
        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(0, 1, 10);
        b.add_weighted_edge(0, 2, 20);
        b.add_weighted_edge(1, 2, 30);
        let mut g = b.build();
        g.apply(&[
            Mutation::Insert {
                src: 2,
                dst: 0,
                weight: Some(5),
            },
            Mutation::Delete { src: 0, dst: 1 },
        ])
        .unwrap();
        g.validate().expect("patched CSR invariants");
        assert_eq!(g.neighbors(0), &[2]);
        assert_eq!(g.edge_weights(0), &[20]);
        assert_eq!(g.neighbors(2), &[0]);
        assert_eq!(g.edge_weights(2), &[5]);
    }

    #[test]
    fn rejects_bad_batches_without_mutating() {
        let mut g = uniform_graph(10, 40, false, 1);
        let before = g.clone();
        let err = g
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
        let err = g
            .apply(&[Mutation::Insert {
                src: 0,
                dst: 1,
                weight: Some(7),
            }])
            .unwrap_err();
        assert_eq!(err.kind, PatchErrorKind::UnexpectedWeight);
        assert_csr_eq(&g, &before);
        let mut gw = crate::datasets::weighted_variant(&g);
        let err = gw
            .apply(&[Mutation::Insert {
                src: 0,
                dst: 1,
                weight: None,
            }])
            .unwrap_err();
        assert_eq!(err.kind, PatchErrorKind::MissingWeight);
        assert_eq!(gw.check_batch(&[]), Ok(()));
    }

    #[test]
    fn first_dirty_edge_is_exact() {
        let mut b = GraphBuilder::new(6);
        for v in 0..5u32 {
            b.add_edge(v, v + 1);
        }
        let mut g = b.build();
        let before = g.clone();
        let patch = g
            .apply(&[Mutation::Insert {
                src: 3,
                dst: 0,
                weight: None,
            }])
            .unwrap();
        // everything before first_dirty_edge is byte-identical; row 3
        // ends at edge 4, where the insert lands
        let k = patch.first_dirty_edge as usize;
        assert_eq!(k, 4);
        assert_eq!(&before.targets()[..k], &g.targets()[..k]);
        // an empty batch leaves the dirty mark at the edge count
        let patch = g.apply(&[]).unwrap();
        assert!(patch.is_empty());
        assert_eq!(patch.first_dirty_edge, g.num_edges());
    }

    #[test]
    fn self_loops_and_isolated_vertices() {
        let mut b = GraphBuilder::new(5).dedup(false);
        b.add_edge(1, 1);
        b.add_edge(1, 2);
        let g = b.build();
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
        let mut out = g.clone();
        out.apply(&batches[0]).unwrap();
        out.validate().expect("patched CSR invariants");
        assert_csr_eq(&out, &oracle_apply(&g, &batches));
    }

    #[test]
    fn growth_reserves_exactly_the_net_inserts() {
        let mut g = uniform_graph(50, 300, false, 3);
        assert_eq!(g.edge_capacity(), g.num_edges() as usize);
        let batch: Vec<Mutation> = (0..20)
            .map(|i| Mutation::Insert {
                src: i,
                dst: 49 - i,
                weight: None,
            })
            .collect();
        g.apply(&batch).unwrap();
        assert_eq!(g.edge_capacity(), g.num_edges() as usize);
    }

    /// Mutation ops as the proptest draws them: `(src, dst, delete?,
    /// weight)` over a small vertex range, so deletes hit live edges,
    /// parallel copies and same-batch inserts often.
    fn resolve(raw: &[(u32, u32, bool, u32)], n: u32, weighted: bool) -> Vec<Mutation> {
        raw.iter()
            .map(|&(u, v, del, w)| {
                let (src, dst) = (u % n, v % n);
                if del {
                    Mutation::Delete { src, dst }
                } else {
                    Mutation::Insert {
                        src,
                        dst,
                        weight: weighted.then_some(w),
                    }
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// `Csr::apply` equals the rebuild-from-scratch oracle after every
        /// batch; the record counts what changed, the prefix before the
        /// dirty mark is untouched, and growth reserves no more than the
        /// batch's inserts.
        #[test]
        fn apply_matches_the_oracle(
            n in 2u32..40,
            edges in proptest::collection::vec((any::<u32>(), any::<u32>(), 1u32..50), 0..300),
            weighted in any::<bool>(),
            raw in proptest::collection::vec(
                proptest::collection::vec((any::<u32>(), any::<u32>(), any::<bool>(), 1u32..50), 0..80),
                1..5,
            ),
        ) {
            let mut b = GraphBuilder::new(n as usize).dedup(false);
            for &(u, v, w) in &edges {
                if weighted {
                    b.add_weighted_edge(u % n, v % n, w);
                } else {
                    b.add_edge(u % n, v % n);
                }
            }
            let base = b.build();
            let mut g = base.clone();
            let mut applied = Vec::new();
            for ops in &raw {
                let batch = resolve(ops, n, weighted);
                let (before, capacity) = (g.clone(), g.edge_capacity());
                let patch = g.apply(&batch).expect("well-formed batches always apply");
                applied.push(batch.clone());
                g.validate().expect("patched CSR invariants");
                assert_csr_eq(&g, &oracle_apply(&base, &applied));
                let inserts = batch.iter().filter(|m| matches!(m, Mutation::Insert { .. })).count();
                prop_assert_eq!(patch.inserts.len(), inserts);
                prop_assert_eq!(
                    g.num_edges() + patch.deletes.len() as u64,
                    before.num_edges() + inserts as u64
                );
                let k = patch.first_dirty_edge as usize;
                prop_assert!(k <= before.targets().len());
                prop_assert_eq!(&before.targets()[..k], &g.targets()[..k]);
                let grown = before.targets().len() + inserts;
                prop_assert!(g.edge_capacity() <= capacity.max(grown));
            }
        }
    }
}
