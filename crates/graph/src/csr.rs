//! Compressed Sparse Row graph storage.
//!
//! One [`Csr`] holds the whole graph in CPU main memory — exactly the role
//! the host-side `Edgelist` plays in the paper (vertices live on the GPU,
//! edges live in CPU DRAM and are shipped over as needed). Targets are `u32`
//! and per-edge weights, when present, sit in a parallel `u32` array, so the
//! serialized edge footprint is 4 B/edge unweighted and 8 B/edge weighted —
//! the byte accounting Tables 2/5 rely on.

use crate::types::{
    EdgeCount, VertexId, Weight, BYTES_PER_EDGE_UNWEIGHTED, BYTES_PER_EDGE_WEIGHTED,
};
use ascetic_par::{parallel_parts, threads_for_work};

/// A directed graph in CSR form. Undirected inputs are stored symmetrized
/// (each undirected edge appears in both adjacency lists).
#[derive(Clone, PartialEq, Eq)]
pub struct Csr {
    /// `offsets[v]..offsets[v+1]` indexes `targets` (and `weights`) for the
    /// out-edges of `v`. Length `num_vertices + 1`; `offsets[0] == 0`.
    pub(crate) offsets: Vec<EdgeCount>,
    /// Edge targets, grouped by source vertex.
    pub(crate) targets: Vec<VertexId>,
    /// Optional per-edge weights, parallel to `targets`.
    pub(crate) weights: Option<Vec<Weight>>,
}

impl std::fmt::Debug for Csr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Csr(|V|={}, |E|={}, weighted={})",
            self.num_vertices(),
            self.num_edges(),
            self.is_weighted()
        )
    }
}

impl Csr {
    /// Build from raw parts, validating the CSR invariants.
    ///
    /// # Panics
    /// Panics if offsets are not monotone starting at 0, if the final offset
    /// disagrees with `targets.len()`, if any target is out of range, or if
    /// a weights array of the wrong length is supplied.
    pub fn from_parts(
        offsets: Vec<EdgeCount>,
        targets: Vec<VertexId>,
        weights: Option<Vec<Weight>>,
    ) -> Self {
        assert!(!offsets.is_empty(), "offsets must have at least one entry");
        assert_eq!(offsets[0], 0, "offsets[0] must be 0");
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be monotone"
        );
        assert_eq!(
            *offsets.last().unwrap() as usize,
            targets.len(),
            "last offset must equal edge count"
        );
        let n = (offsets.len() - 1) as u64;
        assert!(
            targets.iter().all(|&t| (t as u64) < n),
            "edge target out of vertex range"
        );
        if let Some(w) = &weights {
            assert_eq!(
                w.len(),
                targets.len(),
                "weights length must equal edge count"
            );
        }
        Csr {
            offsets,
            targets,
            weights,
        }
    }

    /// Fallible variant of [`Csr::from_parts`] for untrusted input
    /// (e.g. deserialization): returns a description of the violated
    /// invariant instead of panicking.
    pub fn try_from_parts(
        offsets: Vec<EdgeCount>,
        targets: Vec<VertexId>,
        weights: Option<Vec<Weight>>,
    ) -> Result<Self, String> {
        let candidate = Csr {
            offsets,
            targets,
            weights,
        };
        candidate.validate()?;
        Ok(candidate)
    }

    /// An empty graph with `n` vertices and no edges.
    pub fn empty(n: usize) -> Self {
        Csr {
            offsets: vec![0; n + 1],
            targets: Vec::new(),
            weights: None,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edge entries (undirected edges count twice).
    #[inline]
    pub fn num_edges(&self) -> u64 {
        *self.offsets.last().unwrap()
    }

    /// Whether a parallel weight array is present.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> u64 {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Range of edge indices belonging to `v`.
    #[inline]
    pub fn edge_range(&self, v: VertexId) -> std::ops::Range<u64> {
        self.offsets[v as usize]..self.offsets[v as usize + 1]
    }

    /// Neighbors of `v` as a slice of targets.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let r = self.edge_range(v);
        &self.targets[r.start as usize..r.end as usize]
    }

    /// Weights of `v`'s out-edges; panics if the graph is unweighted.
    #[inline]
    pub fn edge_weights(&self, v: VertexId) -> &[Weight] {
        let r = self.edge_range(v);
        &self.weights.as_ref().expect("graph is unweighted")[r.start as usize..r.end as usize]
    }

    /// Full offsets array (length `|V| + 1`).
    #[inline]
    pub fn offsets(&self) -> &[EdgeCount] {
        &self.offsets
    }

    /// Full targets array.
    #[inline]
    pub fn targets(&self) -> &[VertexId] {
        &self.targets
    }

    /// Full weights array, if present.
    #[inline]
    pub fn weights(&self) -> Option<&[Weight]> {
        self.weights.as_deref()
    }

    /// Bytes per serialized edge entry for this graph (4 or 8).
    #[inline]
    pub fn bytes_per_edge(&self) -> usize {
        if self.is_weighted() {
            BYTES_PER_EDGE_WEIGHTED
        } else {
            BYTES_PER_EDGE_UNWEIGHTED
        }
    }

    /// Total serialized edge bytes — the paper's dataset "Size" notion
    /// (Table 5 sizes are `|E| × bytes_per_edge`).
    #[inline]
    pub fn edge_bytes(&self) -> u64 {
        self.num_edges() * self.bytes_per_edge() as u64
    }

    /// Serialize the edge entries of edge-index range `r` as little-endian
    /// `u32` words (`target` or `target, weight` per edge) appended to
    /// `out`. Device memory in `ascetic-sim` is word-addressed, so this is
    /// the staging format for every simulated PCIe transfer; one edge is 1
    /// word unweighted, 2 words weighted — the 4/8-byte footprint of the
    /// paper.
    pub fn write_edge_words(&self, r: std::ops::Range<u64>, out: &mut Vec<u32>) {
        let (s, e) = (r.start as usize, r.end as usize);
        match &self.weights {
            None => out.extend_from_slice(&self.targets[s..e]),
            Some(w) => {
                out.reserve((e - s) * 2);
                for (&t, &wt) in self.targets[s..e].iter().zip(&w[s..e]) {
                    out.push(t);
                    out.push(wt);
                }
            }
        }
    }

    /// [`Csr::write_edge_words`] into a caller-owned window: fill `dst`
    /// (exactly `r.len() × words_per_edge` words) with the edge entries of
    /// `r`. Unweighted rows are one `memcpy` of the target array — the
    /// single copy the on-demand gather makes straight into device memory.
    ///
    /// # Panics
    /// Panics if `dst` does not have exactly the payload's length.
    pub fn copy_edge_words(&self, r: std::ops::Range<u64>, dst: &mut [u32]) {
        let (s, e) = (r.start as usize, r.end as usize);
        match &self.weights {
            None => dst.copy_from_slice(&self.targets[s..e]),
            Some(w) => {
                assert_eq!(dst.len(), (e - s) * 2, "window must fit the payload");
                for (pair, (&t, &wt)) in dst
                    .chunks_exact_mut(2)
                    .zip(self.targets[s..e].iter().zip(&w[s..e]))
                {
                    pair[0] = t;
                    pair[1] = wt;
                }
            }
        }
    }

    /// Words per edge entry in the [`Csr::write_edge_words`] format (1 or 2).
    #[inline]
    pub fn words_per_edge(&self) -> usize {
        self.bytes_per_edge() / 4
    }

    /// Attach weights generated by `f(src, edge_idx) -> Weight`, filled by
    /// edge-balanced row windows over the pool. Each weight depends only on
    /// its own edge, so the bytes are the same at any thread count.
    pub fn with_weights_from(&self, f: impl Fn(VertexId, u64) -> Weight + Sync) -> Csr {
        let mut w = vec![0 as Weight; self.targets.len()];
        parallel_parts(row_windows(&self.offsets, &mut w), |_, (rows, out)| {
            let base = self.offsets[rows.start];
            for v in rows.start as VertexId..rows.end as VertexId {
                for e in self.edge_range(v) {
                    out[(e - base) as usize] = f(v, e);
                }
            }
        });
        Csr {
            offsets: self.offsets.clone(),
            targets: self.targets.clone(),
            weights: Some(w),
        }
    }

    /// The transpose (CSC mirror): a CSR whose row `v` lists the *in*-edges
    /// of `v` — every source `u` with an edge `u → v` — with parallel
    /// weights carried over. Edges are placed in CSR iteration order
    /// (counting sort), so each transposed row's sources come out ascending
    /// and the delta–varint codec applies to the mirror unchanged.
    pub fn transpose(&self) -> Csr {
        let n = self.num_vertices();
        let mut offsets = vec![0 as EdgeCount; n + 1];
        for &t in &self.targets {
            offsets[t as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let m = self.targets.len();
        let mut targets = vec![0 as VertexId; m];
        let mut weights = self.weights.as_ref().map(|_| vec![0 as Weight; m]);
        let src_weights = self.weights.as_deref();
        for u in 0..n as VertexId {
            for e in self.edge_range(u) {
                let t = self.targets[e as usize] as usize;
                let slot = cursor[t] as usize;
                cursor[t] += 1;
                targets[slot] = u;
                if let (Some(w), Some(sw)) = (&mut weights, src_weights) {
                    w[slot] = sw[e as usize];
                }
            }
        }
        Csr {
            offsets,
            targets,
            weights,
        }
    }

    /// Iterate `(src, dst)` over all directed edge entries.
    pub fn iter_edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.num_vertices() as VertexId)
            .flat_map(move |v| self.neighbors(v).iter().map(move |&t| (v, t)))
    }

    /// Check structural sanity; returns a description of the first violation.
    /// `from_parts` enforces these at construction; this re-checks after any
    /// manual surgery (used by property tests).
    pub fn validate(&self) -> Result<(), String> {
        if self.offsets.is_empty() {
            return Err("empty offsets".into());
        }
        if self.offsets[0] != 0 {
            return Err("offsets[0] != 0".into());
        }
        if !self.offsets.windows(2).all(|w| w[0] <= w[1]) {
            return Err("offsets not monotone".into());
        }
        if *self.offsets.last().unwrap() as usize != self.targets.len() {
            return Err("last offset mismatch".into());
        }
        let n = self.num_vertices() as u64;
        if let Some(bad) = self.targets.iter().find(|&&t| t as u64 >= n) {
            return Err(format!("target {bad} out of range"));
        }
        if let Some(w) = &self.weights {
            if w.len() != self.targets.len() {
                return Err("weights length mismatch".into());
            }
        }
        Ok(())
    }
}

/// Cut `data` — one entry per edge of the CSR these `offsets` describe —
/// into `threads_for_work(m)` windows of whole rows carrying about equal
/// edge counts, each beside its row range (rows past the last edge hold
/// nothing and are left out). These are the parts `parallel_parts` hands
/// one worker each; it starts a worker per part, so there are no more
/// parts than threads.
pub(crate) fn row_windows<'a, T>(
    offsets: &[EdgeCount],
    mut data: &'a mut [T],
) -> Vec<(std::ops::Range<usize>, &'a mut [T])> {
    let m = offsets[offsets.len() - 1];
    let parts = threads_for_work(m) as EdgeCount;
    let mut start = 0;
    (1..=parts)
        .map(|k| {
            let end = offsets.partition_point(|&o| o < k * m / parts);
            let len = (offsets[end] - offsets[start]) as usize;
            let (window, rest) = std::mem::take(&mut data).split_at_mut(len);
            data = rest;
            let rows = start..end;
            start = end;
            (rows, window)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0→1, 0→2, 1→2, 2→0 ; a small directed test graph.
    fn tiny() -> Csr {
        Csr::from_parts(vec![0, 2, 3, 4], vec![1, 2, 2, 0], None)
    }

    #[test]
    fn basic_accessors() {
        let g = tiny();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 1);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(2), &[0]);
        assert_eq!(g.edge_range(1), 2..3);
        assert!(!g.is_weighted());
        assert_eq!(g.bytes_per_edge(), 4);
        assert_eq!(g.edge_bytes(), 16);
        g.validate().unwrap();
    }

    #[test]
    fn empty_graph() {
        let g = Csr::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(4), 0);
        assert!(g.neighbors(0).is_empty());
        g.validate().unwrap();
    }

    #[test]
    fn weights_roundtrip() {
        let g = tiny().with_weights_from(|_, e| (e as Weight) + 10);
        assert!(g.is_weighted());
        assert_eq!(g.bytes_per_edge(), 8);
        assert_eq!(g.edge_weights(0), &[10, 11]);
        assert_eq!(g.edge_weights(2), &[13]);
    }

    #[test]
    fn edge_words_unweighted() {
        let g = tiny();
        let mut buf = Vec::new();
        g.write_edge_words(1..4, &mut buf);
        assert_eq!(buf, vec![2, 2, 0]);
        assert_eq!(g.words_per_edge(), 1);
    }

    #[test]
    fn edge_words_weighted_interleaves() {
        let g = tiny().with_weights_from(|_, e| e as Weight + 50);
        let mut buf = Vec::new();
        g.write_edge_words(0..2, &mut buf);
        assert_eq!(buf, vec![1, 50, 2, 51]);
        assert_eq!(g.words_per_edge(), 2);
    }

    #[test]
    fn copy_edge_words_matches_write_edge_words() {
        for g in [tiny(), tiny().with_weights_from(|_, e| e as Weight + 50)] {
            let mut expect = Vec::new();
            g.write_edge_words(1..4, &mut expect);
            let mut got = vec![u32::MAX; expect.len()];
            g.copy_edge_words(1..4, &mut got);
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn transpose_reverses_every_edge_with_ascending_rows() {
        let g = tiny();
        let t = g.transpose();
        t.validate().unwrap();
        assert_eq!(t.num_vertices(), g.num_vertices());
        assert_eq!(t.num_edges(), g.num_edges());
        // in-edges of tiny(): 0←2, 1←0, 2←{0,1}
        assert_eq!(t.neighbors(0), &[2]);
        assert_eq!(t.neighbors(1), &[0]);
        assert_eq!(t.neighbors(2), &[0, 1]);
        // every transposed row lists its sources ascending (codec invariant)
        for v in 0..t.num_vertices() as VertexId {
            assert!(t.neighbors(v).windows(2).all(|w| w[0] <= w[1]));
        }
        // transpose is an involution on the edge multiset
        let mut fwd: Vec<_> = g.iter_edges().collect();
        let mut back: Vec<_> = t.transpose().iter_edges().collect();
        fwd.sort_unstable();
        back.sort_unstable();
        assert_eq!(fwd, back);
    }

    #[test]
    fn transpose_carries_weights() {
        let g = tiny().with_weights_from(|_, e| e as Weight + 10);
        let t = g.transpose();
        assert!(t.is_weighted());
        // edge 2→0 is edge index 3 (weight 13)
        assert_eq!(t.neighbors(0), &[2]);
        assert_eq!(t.edge_weights(0), &[13]);
        // in-edges of 2: 0→2 (edge 1, weight 11), 1→2 (edge 2, weight 12)
        assert_eq!(t.edge_weights(2), &[11, 12]);
    }

    #[test]
    fn transpose_handles_self_loops_and_isolated_vertices() {
        // 0→0 self-loop, 2 isolated, 3→1
        let g = Csr::from_parts(vec![0, 1, 1, 1, 2], vec![0, 1], None);
        let t = g.transpose();
        t.validate().unwrap();
        assert_eq!(t.neighbors(0), &[0]);
        assert_eq!(t.neighbors(1), &[3]);
        assert!(t.neighbors(2).is_empty());
        assert!(t.neighbors(3).is_empty());
    }

    #[test]
    fn iter_edges_lists_all() {
        let g = tiny();
        let edges: Vec<_> = g.iter_edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2), (2, 0)]);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn rejects_nonmonotone_offsets() {
        Csr::from_parts(vec![0, 3, 2, 4], vec![1, 2, 2, 0], None);
    }

    #[test]
    #[should_panic(expected = "out of vertex range")]
    fn rejects_out_of_range_target() {
        Csr::from_parts(vec![0, 1], vec![5], None);
    }

    #[test]
    #[should_panic(expected = "weights length")]
    fn rejects_bad_weights_len() {
        Csr::from_parts(vec![0, 1], vec![0], Some(vec![1, 2]));
    }

    #[test]
    #[should_panic(expected = "last offset")]
    fn rejects_offset_target_mismatch() {
        Csr::from_parts(vec![0, 2], vec![0], None);
    }
}
