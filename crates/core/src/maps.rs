//! Data-map generation (paper Figure 4, step ➊).
//!
//! Each iteration starts by splitting the active set against static-region
//! residency:
//!
//! ```text
//! StaticMap    = ActiveBitmap AND StaticBitmap
//! OndemandMap  = ActiveBitmap XOR StaticMap      (≡ AND-NOT StaticBitmap)
//! ```
//!
//! from which the `StaticNodes` and `OndemandNodes` arrays are produced,
//! along with the edge/byte volumes the partition-ratio check (Eq (3)) and
//! the cost models need. The two maps are never materialized: one pass
//! over the active set's non-zero words splits each word against the
//! static bitmap and emits both node lists (ascending, as the bitmap
//! algebra would) and both edge sums.

use ascetic_graph::{Csr, VertexId};
use ascetic_par::Bitmap;

/// The per-iteration data maps and their measured volumes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DataMaps {
    /// Active vertices served by the static region.
    pub static_nodes: Vec<VertexId>,
    /// Active vertices needing on-demand delivery.
    pub ondemand_nodes: Vec<VertexId>,
    /// Σ out-degree of `static_nodes`.
    pub static_edges: u64,
    /// Σ out-degree of `ondemand_nodes`.
    pub ondemand_edges: u64,
}

impl DataMaps {
    /// Build the maps for one iteration.
    ///
    /// `active` and `static_bitmap` are vertex bitmaps of equal length
    /// (`static_bitmap` true ⇔ all of the vertex's edges are resident in
    /// the static region).
    pub fn generate(g: &Csr, active: &Bitmap, static_bitmap: &Bitmap) -> DataMaps {
        let mut maps = DataMaps::default();
        maps.regenerate(g, active, static_bitmap);
        maps
    }

    /// [`DataMaps::generate`] into this value's recycled vectors (a run
    /// keeps one `DataMaps` and refills it every iteration).
    pub fn regenerate(&mut self, g: &Csr, active: &Bitmap, static_bitmap: &Bitmap) {
        self.static_nodes.clear();
        self.ondemand_nodes.clear();
        self.static_edges = 0;
        self.ondemand_edges = 0;
        split_words(active, static_bitmap, |base, resident, ondemand| {
            let split = |mut bits: u64, nodes: &mut Vec<VertexId>, edges: &mut u64| {
                while bits != 0 {
                    let v = base + bits.trailing_zeros();
                    nodes.push(v);
                    *edges += g.degree(v);
                    bits &= bits - 1;
                }
            };
            split(resident, &mut self.static_nodes, &mut self.static_edges);
            split(ondemand, &mut self.ondemand_nodes, &mut self.ondemand_edges);
        });
    }

    /// The on-demand map's volume alone, `(vertices, edges)` — what
    /// [`DataMaps::regenerate`] leaves in `ondemand_nodes.len()` and
    /// `ondemand_edges` — from the same walk, without listing a vertex:
    /// each word's edges are one offsets difference per run of set bits.
    pub(crate) fn ondemand_volume(g: &Csr, active: &Bitmap, static_bitmap: &Bitmap) -> (u64, u64) {
        let (mut nodes, mut edges) = (0u64, 0u64);
        split_words(active, static_bitmap, |base, _, ondemand| {
            nodes += ondemand.count_ones() as u64;
            edges += word_rows(g, base, ondemand).0;
        });
        (nodes, edges)
    }

    /// Total active vertices.
    pub fn active_vertices(&self) -> u64 {
        (self.static_nodes.len() + self.ondemand_nodes.len()) as u64
    }

    /// Total active edges.
    pub fn active_edges(&self) -> u64 {
        self.static_edges + self.ondemand_edges
    }

    /// Bytes the on-demand region must receive (`V_ondemand` in Eq (3)).
    pub fn ondemand_bytes(&self, bytes_per_edge: u64) -> u64 {
        self.ondemand_edges * bytes_per_edge
    }

    /// Bytes of static-region data touched (`V_static` in Eq (3)).
    pub fn static_bytes(&self, bytes_per_edge: u64) -> u64 {
        self.static_edges * bytes_per_edge
    }
}

/// The one walk of Figure 4's split: `f(base, static_bits, ondemand_bits)`
/// for every non-zero word of `active`, `base` being the word's first
/// vertex and the two masks the word AND / AND-NOT the static bitmap.
fn split_words(active: &Bitmap, static_bitmap: &Bitmap, mut f: impl FnMut(VertexId, u64, u64)) {
    assert_eq!(active.len(), static_bitmap.len(), "bitmap length mismatch");
    let resident = static_bitmap.words();
    for (wi, word) in active.nonzero_words() {
        f(
            (wi * 64) as VertexId,
            word & resident[wi],
            word & !resident[wi],
        );
    }
}

/// `(Σ degree, non-empty rows)` of `g` over the vertices set in `bits`,
/// the bitmap word whose first vertex is `base`: one offsets difference
/// per run of consecutive set bits, no per-vertex degree call.
pub(crate) fn word_rows(g: &Csr, base: VertexId, mut bits: u64) -> (u64, u64) {
    let offsets = g.offsets();
    let (mut edges, mut rows) = (0u64, 0u64);
    while bits != 0 {
        let lo = bits.trailing_zeros();
        let end = lo + (bits >> lo).trailing_ones();
        let run = &offsets[(base + lo) as usize..=(base + end) as usize];
        edges += run[run.len() - 1] - run[0];
        rows += run.windows(2).filter(|w| w[1] != w[0]).count() as u64;
        // drop the run: keep the bits above it (none when it reached bit 63)
        bits = bits.checked_shr(end).map_or(0, |rest| rest << end);
    }
    (edges, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascetic_graph::GraphBuilder;

    /// degrees: v0=2, v1=1, v2=3, v3=0
    fn graph() -> Csr {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        b.add_edge(1, 0);
        b.add_edge(2, 0);
        b.add_edge(2, 1);
        b.add_edge(2, 3);
        b.build()
    }

    #[test]
    fn splits_active_set_by_residency() {
        let g = graph();
        let mut active = Bitmap::new(4);
        active.set(0);
        active.set(2);
        active.set(3);
        let mut stat = Bitmap::new(4);
        stat.set(0);
        stat.set(1); // resident but inactive
        let m = DataMaps::generate(&g, &active, &stat);
        assert_eq!(m.static_nodes, vec![0]);
        assert_eq!(m.ondemand_nodes, vec![2, 3]);
        assert_eq!(m.static_edges, 2);
        assert_eq!(m.ondemand_edges, 3);
        assert_eq!(m.active_vertices(), 3);
        assert_eq!(m.active_edges(), 5);
        assert_eq!(m.ondemand_bytes(4), 12);
        assert_eq!(m.static_bytes(8), 16);
    }

    #[test]
    fn single_pass_equals_the_bitmap_algebra() {
        // the Figure-4 composition, spelled out with the combinators
        let by_algebra = |g: &Csr, active: &Bitmap, stat: &Bitmap| {
            let static_nodes = active.and(stat).to_indices();
            let ondemand_nodes = active.and_not(stat).to_indices();
            DataMaps {
                static_edges: static_nodes.iter().map(|&v| g.degree(v)).sum(),
                ondemand_edges: ondemand_nodes.iter().map(|&v| g.degree(v)).sum(),
                static_nodes,
                ondemand_nodes,
            }
        };
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x9e37_79b9);
        let mut recycled = DataMaps::default();
        for (n, p_active, p_static) in [
            (2usize, 1.0, 0.5),
            (63, 0.5, 0.5),
            (64, 0.3, 1.0),
            (4_097, 0.001, 0.5),
            (9_000, 0.5, 0.3),
            (9_000, 1.0, 1.0),
            (20_000, 0.002, 0.0),
        ] {
            let g = ascetic_graph::generators::uniform_graph(n, 4 * n as u64, false, n as u64);
            let (mut active, mut stat) = (Bitmap::new(n), Bitmap::new(n));
            for v in 0..n {
                if rng.gen_bool(p_active) {
                    active.set(v);
                }
                if rng.gen_bool(p_static) {
                    stat.set(v);
                }
            }
            let expect = by_algebra(&g, &active, &stat);
            assert_eq!(DataMaps::generate(&g, &active, &stat), expect, "n={n}");
            // refilling a dirty value leaves nothing of the previous maps
            recycled.regenerate(&g, &active, &stat);
            assert_eq!(recycled, expect, "recycled, n={n}");
            // the count-only walk agrees with the listed on-demand map
            let volume = (expect.ondemand_nodes.len() as u64, expect.ondemand_edges);
            assert_eq!(DataMaps::ondemand_volume(&g, &active, &stat), volume);
        }
    }

    #[test]
    fn word_rows_sums_each_run_of_set_bits() {
        // degrees 2, 1, 3, 0: runs {0,1}, {2,3}, all four, and single bits
        let g = graph();
        let rows = |bits: u64| word_rows(&g, 0, bits);
        assert_eq!(rows(0b0011), (3, 2));
        assert_eq!(rows(0b1100), (3, 1), "v3 has no edges");
        assert_eq!(rows(0b1111), (6, 3));
        assert_eq!(rows(0b1001), (2, 1));
        assert_eq!(rows(0), (0, 0));
        // a full word, on a graph wide enough for one: every row counts
        let wide = ascetic_graph::generators::uniform_graph(130, 900, false, 3);
        let by_vertex = |base: u32| {
            let vs = base..base + 64;
            let edges = vs.clone().map(|v| wide.degree(v)).sum::<u64>();
            (edges, vs.filter(|&v| wide.degree(v) > 0).count() as u64)
        };
        assert_eq!(word_rows(&wide, 64, u64::MAX), by_vertex(64));
        assert_eq!(word_rows(&wide, 0, u64::MAX), by_vertex(0));
    }

    #[test]
    fn empty_active_set() {
        let g = graph();
        let m = DataMaps::generate(&g, &Bitmap::new(4), &Bitmap::ones(4));
        assert!(m.static_nodes.is_empty());
        assert!(m.ondemand_nodes.is_empty());
        assert_eq!(m.active_edges(), 0);
    }

    #[test]
    fn all_static_when_everything_resident() {
        let g = graph();
        let m = DataMaps::generate(&g, &Bitmap::ones(4), &Bitmap::ones(4));
        assert_eq!(m.static_nodes.len(), 4);
        assert!(m.ondemand_nodes.is_empty());
        assert_eq!(m.static_edges, g.num_edges());
    }

    #[test]
    fn all_ondemand_when_nothing_resident() {
        let g = graph();
        let m = DataMaps::generate(&g, &Bitmap::ones(4), &Bitmap::new(4));
        assert!(m.static_nodes.is_empty());
        assert_eq!(m.ondemand_edges, g.num_edges());
    }
}
