//! Edge-list → CSR construction.
//!
//! The builder accepts an arbitrary `(src, dst[, weight])` stream and
//! produces a valid [`Csr`]: counting-sort by source (O(V+E), no comparison
//! sort), optional per-source neighbor sorting, optional de-duplication,
//! optional self-loop removal, and symmetrization for undirected inputs —
//! the same preprocessing pipeline graph frameworks run before handing data
//! to an out-of-core engine.

use crate::csr::Csr;
use crate::types::{VertexId, Weight};

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
    srcs: Vec<VertexId>,
    dsts: Vec<VertexId>,
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
            srcs: Vec::new(),
            dsts: Vec::new(),
            weights: None,
            symmetrize: false,
            dedup: false,
            drop_self_loops: false,
            sort_neighbors: false,
        }
    }

    /// Pre-size internal buffers for `n` edges.
    pub fn with_capacity(num_vertices: usize, n: usize) -> Self {
        let mut b = Self::new(num_vertices);
        b.srcs.reserve(n);
        b.dsts.reserve(n);
        b
    }

    /// Also insert `(dst, src)` for every edge (undirected input).
    pub fn symmetrize(mut self, on: bool) -> Self {
        self.symmetrize = on;
        self
    }

    /// Remove duplicate `(src, dst)` pairs (keeping the first weight).
    /// Implies neighbor sorting.
    pub fn dedup(mut self, on: bool) -> Self {
        self.dedup = on;
        self
    }

    /// Drop `v → v` edges.
    pub fn drop_self_loops(mut self, on: bool) -> Self {
        self.drop_self_loops = on;
        self
    }

    /// Sort each adjacency list by target id.
    pub fn sort_neighbors(mut self, on: bool) -> Self {
        self.sort_neighbors = on;
        self
    }

    /// Stage an unweighted edge. Panics if a weighted edge was staged before.
    pub fn add_edge(&mut self, src: VertexId, dst: VertexId) {
        assert!(
            self.weights.is_none(),
            "mixing weighted and unweighted edges"
        );
        debug_assert!((src as usize) < self.num_vertices && (dst as usize) < self.num_vertices);
        self.srcs.push(src);
        self.dsts.push(dst);
    }

    /// Stage a weighted edge. All edges must be weighted once any is.
    pub fn add_weighted_edge(&mut self, src: VertexId, dst: VertexId, w: Weight) {
        debug_assert!((src as usize) < self.num_vertices && (dst as usize) < self.num_vertices);
        if self.weights.is_none() {
            assert!(self.srcs.is_empty(), "mixing weighted and unweighted edges");
            self.weights = Some(Vec::new());
        }
        self.srcs.push(src);
        self.dsts.push(dst);
        self.weights.as_mut().unwrap().push(w);
    }

    /// Build the CSR.
    pub fn build(mut self) -> Csr {
        let n = self.num_vertices;
        if self.symmetrize {
            let m = self.srcs.len();
            self.srcs.reserve(m);
            self.dsts.reserve(m);
            for i in 0..m {
                let (s, d) = (self.srcs[i], self.dsts[i]);
                if s != d {
                    self.srcs.push(d);
                    self.dsts.push(s);
                    if let Some(w) = self.weights.as_mut() {
                        let wi = w[i];
                        w.push(wi);
                    }
                }
            }
        }
        if self.drop_self_loops {
            let keep: Vec<bool> = self
                .srcs
                .iter()
                .zip(&self.dsts)
                .map(|(s, d)| s != d)
                .collect();
            retain_by_mask(&mut self.srcs, &keep);
            retain_by_mask(&mut self.dsts, &keep);
            if let Some(w) = self.weights.as_mut() {
                retain_by_mask(w, &keep);
            }
        }

        // Counting sort by source: degree histogram → offsets → scatter.
        let m = self.srcs.len();
        let mut deg = vec![0u64; n + 1];
        for &s in &self.srcs {
            deg[s as usize + 1] += 1;
        }
        for i in 0..n {
            deg[i + 1] += deg[i];
        }
        let offsets = deg.clone(); // final offsets (prefix sums)
        let mut cursor = deg;
        let mut targets = vec![0 as VertexId; m];
        let mut weights = self.weights.as_ref().map(|_| vec![0 as Weight; m]);
        for i in 0..m {
            let s = self.srcs[i] as usize;
            let pos = cursor[s] as usize;
            cursor[s] += 1;
            targets[pos] = self.dsts[i];
            if let (Some(out), Some(src_w)) = (weights.as_mut(), self.weights.as_ref()) {
                out[pos] = src_w[i];
            }
        }

        let mut csr = Csr::from_parts(offsets, targets, weights);
        if self.sort_neighbors || self.dedup {
            csr = sort_and_maybe_dedup(csr, self.dedup);
        }
        csr
    }
}

fn retain_by_mask<T: Copy>(v: &mut Vec<T>, keep: &[bool]) {
    let mut w = 0usize;
    for i in 0..v.len() {
        if keep[i] {
            v[w] = v[i];
            w += 1;
        }
    }
    v.truncate(w);
}

/// Sort each adjacency list (by target, stable on weights) and optionally
/// remove duplicate targets, rebuilding the offset array.
fn sort_and_maybe_dedup(csr: Csr, dedup: bool) -> Csr {
    let n = csr.num_vertices();
    let mut new_offsets = Vec::with_capacity(n + 1);
    new_offsets.push(0u64);
    let mut new_targets = Vec::with_capacity(csr.num_edges() as usize);
    let mut new_weights = csr
        .weights()
        .map(|_| Vec::with_capacity(csr.num_edges() as usize));

    let mut scratch: Vec<(VertexId, Weight)> = Vec::new();
    for v in 0..n as VertexId {
        scratch.clear();
        match csr.weights() {
            None => scratch.extend(csr.neighbors(v).iter().map(|&t| (t, 0))),
            Some(_) => scratch.extend(
                csr.neighbors(v)
                    .iter()
                    .zip(csr.edge_weights(v))
                    .map(|(&t, &w)| (t, w)),
            ),
        }
        scratch.sort_unstable_by_key(|&(t, _)| t);
        if dedup {
            scratch.dedup_by_key(|&mut (t, _)| t);
        }
        for &(t, w) in &scratch {
            new_targets.push(t);
            if let Some(nw) = new_weights.as_mut() {
                nw.push(w);
            }
        }
        new_offsets.push(new_targets.len() as u64);
    }
    Csr::from_parts(new_offsets, new_targets, new_weights)
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
