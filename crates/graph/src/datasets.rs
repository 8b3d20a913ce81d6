//! Scaled dataset catalog mirroring the paper's Table 3.
//!
//! The paper evaluates on four real graphs plus R-MAT synthetics:
//!
//! | Abbr | Name                 | Vertices | Edges  | Class |
//! |------|----------------------|----------|--------|-------|
//! | GS   | gsh-2015-host (d)    | 68.66 M  | 1.80 B | web   |
//! | FK   | friendster-konect (u)| 68.35 M  | 2.59 B | social|
//! | FS   | friendster-snap (u)  | 124.83 M | 3.61 B | social|
//! | UK   | uk-2007-04 (d)       | 106.86 M | 3.79 B | web   |
//! | RMAT | RMAT-rand (u)        | 40–100 M | 2.5–12 B | synthetic |
//!
//! Those graphs are 7–28 GB; the experiments here run them scaled down by a
//! configurable divisor (default 1000) with the **simulated GPU memory
//! scaled by the same divisor** (paper: 10 GB cap on a 16 GB P100), so every
//! ratio the paper's results depend on — active fraction K, dataset-size /
//! GPU-memory, partition counts — is preserved. Social datasets come from
//! the Chung–Lu generator, web datasets from the host-locality generator,
//! both seeded per dataset for reproducibility.

use crate::csr::Csr;
use crate::generators::{rmat_graph, social_graph, web_graph, RmatConfig, SocialConfig, WebConfig};
use crate::types::Weight;

/// Paper GPU memory cap: "we limit the GPU memory as 10GB".
pub const PAPER_GPU_MEM_BYTES: u64 = 10 * (1 << 30);

/// Default scale divisor applied to the paper's graph sizes.
pub const DEFAULT_SCALE: u64 = 1000;

/// Structural class of a dataset (selects the generator).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphClass {
    /// Undirected, heavy-tailed, no id locality (Friendster-like).
    Social,
    /// Directed, host-locality, power-law host popularity (web crawl).
    Web,
    /// R-MAT synthetic.
    Rmat,
}

/// Identifier of one of the paper's datasets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DatasetId {
    /// gsh-2015-host (directed web).
    Gs,
    /// friendster-konect (undirected social).
    Fk,
    /// friendster-snap (undirected social).
    Fs,
    /// uk-2007-04 (directed web).
    Uk,
}

impl DatasetId {
    /// All four real-graph stand-ins, in the paper's Table 3 order.
    pub const ALL: [DatasetId; 4] = [DatasetId::Gs, DatasetId::Fk, DatasetId::Fs, DatasetId::Uk];

    /// Paper abbreviation ("GS", "FK", ...).
    pub fn abbr(self) -> &'static str {
        match self {
            DatasetId::Gs => "GS",
            DatasetId::Fk => "FK",
            DatasetId::Fs => "FS",
            DatasetId::Uk => "UK",
        }
    }

    /// Full dataset name from Table 3.
    pub fn name(self) -> &'static str {
        match self {
            DatasetId::Gs => "gsh-2015-host(d)",
            DatasetId::Fk => "friendster-konect(u)",
            DatasetId::Fs => "friendster-snap(u)",
            DatasetId::Uk => "uk-2007-04(d)",
        }
    }

    /// Structural class (selects the stand-in generator).
    pub fn class(self) -> GraphClass {
        match self {
            DatasetId::Gs | DatasetId::Uk => GraphClass::Web,
            DatasetId::Fk | DatasetId::Fs => GraphClass::Social,
        }
    }

    /// Whether the original graph is directed.
    pub fn directed(self) -> bool {
        matches!(self.class(), GraphClass::Web)
    }

    /// Paper vertex count.
    pub fn paper_vertices(self) -> u64 {
        match self {
            DatasetId::Gs => 68_660_000,
            DatasetId::Fk => 68_350_000,
            DatasetId::Fs => 124_830_000,
            DatasetId::Uk => 106_860_000,
        }
    }

    /// Paper edge count (CSR entries; matches the Table 5 size column at
    /// 4 B/edge for the unweighted algorithms).
    pub fn paper_edges(self) -> u64 {
        match self {
            DatasetId::Gs => 1_800_000_000,
            DatasetId::Fk => 2_590_000_000,
            DatasetId::Fs => 3_610_000_000,
            DatasetId::Uk => 3_790_000_000,
        }
    }

    /// Vertex and edge counts of the stand-in at divisor `scale`.
    pub(crate) fn scaled_size(self, scale: u64) -> (usize, u64) {
        assert!(scale >= 1, "scale divisor must be >= 1");
        let n = (self.paper_vertices() / scale).max(2) as usize;
        (n, (self.paper_edges() / scale).max(16))
    }

    /// Deterministic seed for the stand-in generator.
    fn seed(self) -> u64 {
        match self {
            DatasetId::Gs => 0x6A5C_0001,
            DatasetId::Fk => 0x6A5C_0002,
            DatasetId::Fs => 0x6A5C_0003,
            DatasetId::Uk => 0x6A5C_0004,
        }
    }
}

/// A materialized scaled dataset.
pub struct Dataset {
    /// Which paper dataset this stands in for.
    pub id: DatasetId,
    /// The scaled graph (unweighted; call [`Dataset::weighted`] for SSSP).
    pub graph: Csr,
    /// The scale divisor it was built with.
    pub scale: u64,
}

impl Dataset {
    /// Build the scaled stand-in for `id` with divisor `scale`
    /// (use [`DEFAULT_SCALE`] to match the shipped experiments).
    pub fn build(id: DatasetId, scale: u64) -> Dataset {
        let (n, m) = id.scaled_size(scale);
        let graph = match id.class() {
            GraphClass::Social => {
                // Social graphs are undirected; the CSR holds ~m entries,
                // so sample m/2 undirected edges.
                social_graph(&SocialConfig::new(n, m / 2, id.seed()))
            }
            GraphClass::Web => web_graph(&WebConfig::new(n, m, id.seed())),
            GraphClass::Rmat => unreachable!("use Dataset::rmat"),
        };
        Dataset { id, graph, scale }
    }

    /// The scaled GPU-memory cap matching this dataset's scale
    /// (paper: 10 GB).
    pub fn gpu_mem_bytes(&self) -> u64 {
        PAPER_GPU_MEM_BYTES / self.scale
    }

    /// Weighted variant for SSSP: weights uniform in `1..=64` derived from a
    /// hash of the edge index (deterministic, matches the paper's doubled
    /// edge footprint).
    pub fn weighted(&self) -> Csr {
        weighted_variant(&self.graph)
    }
}

/// Attach deterministic pseudo-random weights in `1..=64` to any graph.
pub fn weighted_variant(g: &Csr) -> Csr {
    g.with_weights_from(|_, e| {
        let h = e.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31);
        (h % 64 + 1) as Weight
    })
}

/// Build an R-MAT stand-in with roughly `paper_edges / scale` edges — the
/// Figure 11 scaling series ("RMAT-rand", 2.5–12 B edges at paper scale).
pub fn rmat_dataset(paper_edges: u64, scale: u64, seed: u64) -> Csr {
    let m = (paper_edges / scale).max(16);
    // Paper RMATs have 40-100M vertices for 2.5-12B edges (~1:40 V:E, with
    // vertex arrays a small share of the 10GB device). R-MAT needs a
    // power-of-two vertex count; round *down* so the scaled vertex arrays
    // keep the paper's proportion of device memory.
    let target_vertices = (m / 40).max(16);
    let sc = 63 - target_vertices.leading_zeros();
    rmat_graph(&RmatConfig::new(sc, m / 2, seed).undirected(true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::degree_stats;

    const TEST_SCALE: u64 = 20_000; // tiny for fast tests

    #[test]
    fn catalog_matches_paper_table3_order() {
        let names: Vec<&str> = DatasetId::ALL.iter().map(|d| d.abbr()).collect();
        assert_eq!(names, vec!["GS", "FK", "FS", "UK"]);
        assert!(DatasetId::Gs.directed());
        assert!(!DatasetId::Fk.directed());
        assert!(!DatasetId::Fs.directed());
        assert!(DatasetId::Uk.directed());
    }

    #[test]
    fn scaled_sizes_track_paper_ratios() {
        let d = Dataset::build(DatasetId::Fk, TEST_SCALE);
        let expect_v = DatasetId::Fk.paper_vertices() / TEST_SCALE;
        assert_eq!(d.graph.num_vertices() as u64, expect_v);
        // symmetrized social: entries within 25% of the paper-scaled count
        let expect_e = DatasetId::Fk.paper_edges() / TEST_SCALE;
        let got = d.graph.num_edges();
        assert!(
            (got as f64) > expect_e as f64 * 0.75 && (got as f64) < expect_e as f64 * 1.25,
            "edges {got} vs expected ~{expect_e}"
        );
    }

    #[test]
    fn gpu_memory_scales_with_dataset() {
        let d = Dataset::build(DatasetId::Gs, TEST_SCALE);
        assert_eq!(d.gpu_mem_bytes(), PAPER_GPU_MEM_BYTES / TEST_SCALE);
        // Dataset must oversubscribe the device like the paper's do (PR sizes
        // are 0.7-1.5x of 10GB; SSSP 1.4-2.9x).
        let sssp_bytes = d.weighted().edge_bytes();
        assert!(
            sssp_bytes > d.gpu_mem_bytes(),
            "SSSP dataset must exceed GPU memory"
        );
    }

    #[test]
    fn social_datasets_are_symmetric_and_skewed() {
        let d = Dataset::build(DatasetId::Fs, TEST_SCALE);
        let s = degree_stats(&d.graph);
        assert!(s.gini > 0.3, "social gini {:.2}", s.gini);
        for (u, v) in d.graph.iter_edges().take(5_000) {
            assert!(d.graph.neighbors(v).contains(&u));
        }
    }

    #[test]
    fn weighted_variant_doubles_bytes() {
        let d = Dataset::build(DatasetId::Gs, TEST_SCALE);
        let w = d.weighted();
        assert_eq!(w.edge_bytes(), 2 * d.graph.edge_bytes());
        assert!(w.weights().unwrap().iter().all(|&x| (1..=64).contains(&x)));
    }

    #[test]
    fn deterministic_builds() {
        let a = Dataset::build(DatasetId::Uk, TEST_SCALE);
        let b = Dataset::build(DatasetId::Uk, TEST_SCALE);
        assert_eq!(a.graph, b.graph);
    }

    #[test]
    fn every_social_community_is_non_empty_at_every_divisor() {
        // the ring arithmetic alone, as `Dataset::build` sizes it: no edge
        // is generated
        let social = DatasetId::ALL
            .into_iter()
            .filter(|d| d.class() == GraphClass::Social);
        for id in social {
            for scale in 50..=8_000 {
                let (n, m) = id.scaled_size(scale);
                let (count, size) = SocialConfig::new(n, m / 2, id.seed()).communities();
                let at = format!("{} at 1/{scale} (n = {n}, {count} x {size})", id.abbr());
                for c in 0..count {
                    let (lo, hi) = (c * size, ((c + 1) * size).min(n));
                    assert!(lo < hi, "{at}: community {c} is empty");
                }
                assert_eq!(
                    (n - 1) / size,
                    count - 1,
                    "{at}: the last id has no community"
                );
            }
        }
    }

    #[test]
    fn rmat_dataset_scales() {
        let g = rmat_dataset(2_500_000_000, 100_000, 1);
        assert!(g.num_edges() > 10_000, "edges {}", g.num_edges());
        g.validate().unwrap();
    }
}
