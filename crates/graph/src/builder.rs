//! Edge-list → CSR construction.
//!
//! The builder accepts an arbitrary `(src, dst[, weight])` stream and
//! produces a valid [`Csr`] in one pipeline: one counting pass over the
//! staged edges (dropping self-loops, counting mirrors, as asked), prefix
//! sums, one scatter into the final target (+ weight) array — mirrors are
//! never staged — and an in-place parallel sort (and de-duplication) of
//! each row.

use crate::csr::{row_windows, Csr};
use crate::types::{EdgeCount, VertexId, Weight};
use ascetic_par::{exclusive_scan_in_place, parallel_parts};

/// Staged edges plus construction options.
///
/// ```
/// use ascetic_graph::GraphBuilder;
/// let mut b = GraphBuilder::new(3).symmetrize(true).sort_neighbors(true);
/// b.add_edge(0, 1);
/// b.add_edge(1, 2);
/// let g = b.build();
/// assert_eq!(g.num_edges(), 4); // each undirected edge stored twice
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// ```
pub struct GraphBuilder {
    num_vertices: usize,
    edges: (Vec<VertexId>, Vec<VertexId>),
    weights: Option<Vec<Weight>>,
    symmetrize: bool,
    dedup: bool,
    drop_self_loops: bool,
    sort_neighbors: bool,
}

impl GraphBuilder {
    /// A builder for a graph over `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        GraphBuilder {
            num_vertices,
            edges: (Vec::new(), Vec::new()),
            weights: None,
            symmetrize: false,
            dedup: false,
            drop_self_loops: false,
            sort_neighbors: false,
        }
    }

    /// Pre-size internal buffers for `n` staged edges.
    pub fn with_capacity(num_vertices: usize, n: usize) -> Self {
        let mut b = Self::new(num_vertices);
        b.edges.0.reserve(n);
        b.edges.1.reserve(n);
        b
    }

    /// Also insert `(dst, src)` for every edge that is not a self-loop
    /// (undirected input). The mirrors are counted and scattered from the
    /// staged edges, never staged themselves.
    pub fn symmetrize(mut self, on: bool) -> Self {
        self.symmetrize = on;
        self
    }

    /// Remove duplicate `(src, dst)` pairs (implies neighbor sorting),
    /// keeping the first entry of each run in *sorted* order: in a weighted
    /// row, the weight [`GraphBuilder::sort_neighbors`] placed first.
    pub fn dedup(mut self, on: bool) -> Self {
        self.dedup = on;
        self
    }

    /// Drop `v → v` edges.
    pub fn drop_self_loops(mut self, on: bool) -> Self {
        self.drop_self_loops = on;
        self
    }

    /// Sort each adjacency list by target id. A row starts as its kept
    /// edges in input order, then its mirrors in input order; weighted rows
    /// sort `(target, weight)` pairs with `sort_unstable_by_key` on the
    /// target, so equal targets end in no input or weight order — but in a
    /// deterministic one, pinned by `tests/build_golden.rs`.
    pub fn sort_neighbors(mut self, on: bool) -> Self {
        self.sort_neighbors = on;
        self
    }

    /// Stage an unweighted edge. Panics if a weighted edge was staged before.
    pub fn add_edge(&mut self, src: VertexId, dst: VertexId) {
        debug_assert!((src as usize) < self.num_vertices && (dst as usize) < self.num_vertices);
        self.extend([(src, dst)]);
    }

    /// Stage a weighted edge. All edges must be weighted once any is.
    pub fn add_weighted_edge(&mut self, src: VertexId, dst: VertexId, w: Weight) {
        debug_assert!((src as usize) < self.num_vertices && (dst as usize) < self.num_vertices);
        if self.weights.is_none() {
            assert!(
                self.edges.0.is_empty(),
                "mixing weighted and unweighted edges"
            );
            self.weights = Some(Vec::new());
        }
        self.edges.extend([(src, dst)]);
        self.weights.as_mut().unwrap().push(w);
    }

    /// Build the CSR. Besides the staged edges it holds one target
    /// (+ weight) array and the offsets — no mirror, mask or second copy.
    pub fn build(self) -> Csr {
        let kept = |s: VertexId, d: VertexId| !self.drop_self_loops || s != d;
        let mirrored = |s: VertexId, d: VertexId| self.symmetrize && s != d;
        // Row s's degree is counted at `offsets[s + 1]`; the exclusive scan
        // turns that slot into the row's start, the scatter's cursor, which
        // the scatter leaves at the row's end: the final offset.
        let mut offsets = vec![0 as EdgeCount; self.num_vertices + 1];
        let edges = || std::iter::zip(self.edges.0.iter().copied(), self.edges.1.iter().copied());
        for (s, d) in edges() {
            offsets[s as usize + 1] += u64::from(kept(s, d));
            if mirrored(s, d) {
                offsets[d as usize + 1] += 1;
            }
        }
        let m = exclusive_scan_in_place(&mut offsets) as usize;
        let mut targets = vec![0 as VertexId; m];
        let mut weights = self.weights.as_ref().map(|_| vec![0 as Weight; m]);
        let mut place = |row: VertexId, target: VertexId, i: usize| {
            let slot = offsets[row as usize + 1] as usize;
            offsets[row as usize + 1] += 1;
            targets[slot] = target;
            if let (Some(out), Some(w)) = (weights.as_mut(), self.weights.as_ref()) {
                out[slot] = w[i];
            }
        };
        // a row is its kept edges in input order, then its mirrors
        for (i, (s, d)) in edges().enumerate() {
            if kept(s, d) {
                place(s, d, i);
            }
        }
        for (i, (s, d)) in edges().enumerate() {
            if mirrored(s, d) {
                place(d, s, i);
            }
        }
        drop((self.edges, self.weights));
        if self.sort_neighbors || self.dedup {
            sort_rows(&offsets, &mut targets, weights.as_deref_mut());
        }
        if self.dedup {
            dedup_rows(&mut offsets, &mut targets, weights.as_mut());
        }
        Csr::from_parts(offsets, targets, weights)
    }
}

/// Stage a block of unweighted edges in one call; panics after a weighted one.
impl Extend<(VertexId, VertexId)> for GraphBuilder {
    fn extend<I: IntoIterator<Item = (VertexId, VertexId)>>(&mut self, edges: I) {
        assert!(
            self.weights.is_none(),
            "mixing weighted and unweighted edges"
        );
        self.edges.extend(edges);
    }
}

/// Sort every row in place over edge-balanced windows of whole rows, one
/// worker each; a weighted row sorts `(target, weight)` pairs in a scratch
/// row and writes them back.
fn sort_rows(offsets: &[EdgeCount], targets: &mut [VertexId], weights: Option<&mut [Weight]>) {
    let mut ws = weights.map(|w| row_windows(offsets, w).into_iter().map(|(_, w)| w));
    let parts: Vec<_> = row_windows(offsets, targets)
        .into_iter()
        .map(|(rows, ts)| (rows, ts, ws.as_mut().and_then(Iterator::next)))
        .collect();
    parallel_parts(parts, |_, (rows, ts, mut ws)| {
        let (base, mut pairs) = (offsets[rows.start], Vec::new());
        for v in rows {
            let r = (offsets[v] - base) as usize..(offsets[v + 1] - base) as usize;
            let Some(ws) = ws.as_deref_mut() else {
                ts[r].sort_unstable();
                continue;
            };
            pairs.clear();
            pairs.extend(r.clone().map(|e| (ts[e], ws[e])));
            pairs.sort_unstable_by_key(|&(t, _)| t);
            for (e, &(t, w)) in r.zip(&pairs) {
                (ts[e], ws[e]) = (t, w);
            }
        }
    });
}

/// Drop repeated targets from every sorted row, keeping the first entry of
/// each run, and close the gaps by moving rows left in place (writes trail
/// the reads, so `ts[e - 1]` is still the row's own sorted entry).
fn dedup_rows(offsets: &mut [EdgeCount], ts: &mut Vec<VertexId>, mut ws: Option<&mut Vec<Weight>>) {
    let (mut kept, mut start) = (0usize, 0usize);
    for end in &mut offsets[1..] {
        for e in start..*end as usize {
            if e == start || ts[e] != ts[e - 1] {
                ts[kept] = ts[e];
                if let Some(w) = ws.as_deref_mut() {
                    w[kept] = w[e];
                }
                kept += 1;
            }
        }
        (start, *end) = (*end as usize, kept as EdgeCount);
    }
    ts.truncate(kept);
    if let Some(w) = ws {
        w.truncate(kept);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_sorted_csr() {
        let mut b = GraphBuilder::new(4).sort_neighbors(true);
        b.add_edge(2, 0);
        b.add_edge(0, 3);
        b.add_edge(0, 1);
        b.add_edge(3, 2);
        let g = b.build();
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(0), &[1, 3]);
        assert_eq!(g.neighbors(2), &[0]);
        assert_eq!(g.neighbors(3), &[2]);
        g.validate().unwrap();
    }

    #[test]
    fn symmetrize_doubles_edges() {
        let mut b = GraphBuilder::new(3).symmetrize(true).sort_neighbors(true);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let g = b.build();
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[1]);
    }

    #[test]
    fn symmetrize_does_not_duplicate_self_loops() {
        let mut b = GraphBuilder::new(2).symmetrize(true);
        b.add_edge(0, 0);
        b.add_edge(0, 1);
        let g = b.build();
        // self loop once, 0->1 and mirrored 1->0
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn dedup_removes_parallel_edges() {
        let mut b = GraphBuilder::new(3).dedup(true);
        b.add_edge(0, 1);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        b.add_edge(0, 1);
        let g = b.build();
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn drop_self_loops_works() {
        let mut b = GraphBuilder::new(3).drop_self_loops(true);
        b.add_edge(0, 0);
        b.add_edge(1, 1);
        b.add_edge(0, 2);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.neighbors(0), &[2]);
    }

    #[test]
    fn weighted_edges_follow_their_targets() {
        let mut b = GraphBuilder::new(3).sort_neighbors(true);
        b.add_weighted_edge(0, 2, 20);
        b.add_weighted_edge(0, 1, 10);
        b.add_weighted_edge(2, 0, 5);
        let g = b.build();
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.edge_weights(0), &[10, 20]);
        assert_eq!(g.edge_weights(2), &[5]);
    }

    #[test]
    fn weighted_symmetrize_copies_weight() {
        let mut b = GraphBuilder::new(2).symmetrize(true);
        b.add_weighted_edge(0, 1, 7);
        let g = b.build();
        assert_eq!(g.edge_weights(0), &[7]);
        assert_eq!(g.edge_weights(1), &[7]);
    }

    #[test]
    #[should_panic(expected = "mixing")]
    fn rejects_mixed_weightedness() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        b.add_weighted_edge(1, 0, 3);
    }

    #[test]
    fn empty_build() {
        let g = GraphBuilder::new(10).build();
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn isolated_vertices_have_empty_lists() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 4);
        let g = b.build();
        for v in 1..4 {
            assert!(g.neighbors(v).is_empty());
        }
    }
}
