//! Community-structured power-law generator — stand-in for the Friendster
//! social graphs.
//!
//! friendster-konect / friendster-snap are undirected social networks with
//! (a) heavy-tailed degree distributions and (b) pronounced community
//! structure that gives them a non-trivial traversal depth — BFS on the
//! real graph runs for dozens of levels with only a few percent of edges
//! active per level (paper Table 1: 4.5 % BFS, 14.1 % CC on FK). A plain
//! Chung–Lu graph reproduces (a) but not (b): at reproduction scale it
//! collapses to a 2-hop small world and every traversal finishes
//! instantly. So the stand-in samples:
//!
//! * endpoint degrees from a Zipf-like weight table (power-law tail, with
//!   the weight table deterministically permuted so degree is uncorrelated
//!   with vertex id),
//! * and endpoint *pairs* from a ring of equal-size communities: most
//!   edges stay inside a community, the rest hop a geometrically
//!   distributed ring distance — so label/level propagation must walk the
//!   ring, recovering the multi-iteration dynamics the paper's mechanisms
//!   depend on.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use super::alias::AliasTable;
use crate::builder::GraphBuilder;
use crate::csr::Csr;
use crate::types::VertexId;
use ascetic_par::parallel_map_fixed_blocks;

/// Parameters for [`social_graph`].
#[derive(Clone, Copy, Debug)]
pub struct SocialConfig {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Number of undirected edges to sample (CSR will hold ~2× entries).
    pub num_edges: u64,
    /// Power-law exponent γ of the degree distribution (2 < γ ≤ 3 typical;
    /// Friendster is ≈ 2.5).
    pub gamma: f64,
    /// Approximate community size (ring of `n / community_size`
    /// communities).
    pub community_size: usize,
    /// Fraction of edges that stay within their community.
    pub intra_frac: f64,
    /// Mean ring distance of inter-community edges (geometric).
    pub hop_mean: f64,
    /// RNG seed.
    pub seed: u64,
}

impl SocialConfig {
    /// Friendster-like defaults (γ = 2.5, ~500-vertex communities, 90 %
    /// intra-community edges).
    pub fn new(num_vertices: usize, num_edges: u64, seed: u64) -> Self {
        SocialConfig {
            num_vertices,
            num_edges,
            gamma: 2.5,
            community_size: 512,
            intra_frac: 0.9,
            hop_mean: 1.3,
            seed,
        }
    }

    /// The community ring as `(count, size)`; no community is empty.
    pub(crate) fn communities(&self) -> (usize, usize) {
        let n = self.num_vertices;
        let size = n.div_ceil((n / self.community_size.max(1)).clamp(1, n));
        (n.div_ceil(size), size)
    }
}

/// Sample a geometric ring hop ≥ 1 with mean ≈ `mean`.
#[inline]
fn geometric_hop(rng: &mut SmallRng, mean: f64) -> usize {
    let p = 1.0 / mean.max(1.0);
    let mut k = 1usize;
    while rng.gen::<f64>() > p && k < 64 {
        k += 1;
    }
    k
}

/// Generate an undirected community-structured power-law graph as a
/// symmetrized CSR (self-loops removed, neighbors sorted).
pub fn social_graph(cfg: &SocialConfig) -> Csr {
    assert!(cfg.num_vertices >= 2, "need at least two vertices");
    assert!(cfg.gamma > 1.0, "gamma must exceed 1");
    assert!(
        (0.0..=1.0).contains(&cfg.intra_frac),
        "intra_frac must be in [0,1]"
    );
    let n = cfg.num_vertices;
    let (communities, comm_size) = cfg.communities();

    // Zipf-ish expected-degree weights, permuted so hubs are spread across
    // the id space (and hence across communities).
    let exponent = 1.0 / (cfg.gamma - 1.0);
    let v0 = (n as f64).powf(0.25).max(1.0);
    let mut weights: Vec<f64> = (0..n).map(|v| (v as f64 + v0).powf(-exponent)).collect();
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        weights.swap(i, j);
    }

    // Per-community alias tables so intra-community endpoints still follow
    // the power law.
    let local_tables: Vec<AliasTable> = weights.chunks(comm_size).map(AliasTable::new).collect();
    let global = AliasTable::new(&weights);
    let comm_of = |v: usize| v / comm_size;

    let m = cfg.num_edges as usize;
    let batches = parallel_map_fixed_blocks(m, 65_536, |block, range| {
        let mut rng =
            SmallRng::seed_from_u64(cfg.seed ^ (block as u64).wrapping_mul(0xA24B_AED4_963E_E407));
        let mut out = Vec::with_capacity(range.len());
        for _ in range {
            let u = global.sample(&mut rng) as usize;
            let cu = comm_of(u);
            let cv = if rng.gen::<f64>() < cfg.intra_frac || communities == 1 {
                cu
            } else {
                // hop a geometric ring distance, either direction
                let hop = geometric_hop(&mut rng, cfg.hop_mean) % communities;
                if rng.gen::<bool>() {
                    (cu + hop) % communities
                } else {
                    (cu + communities - hop) % communities
                }
            };
            let lo = cv * comm_size;
            let v = lo + local_tables[cv].sample(&mut rng) as usize;
            out.push((u as VertexId, v as VertexId));
        }
        out
    });

    let mut b = GraphBuilder::with_capacity(n, m)
        .symmetrize(true)
        .drop_self_loops(true)
        .sort_neighbors(true);
    for batch in batches {
        b.extend(batch);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_shape() {
        let g = social_graph(&SocialConfig::new(1_000, 5_000, 1));
        assert_eq!(g.num_vertices(), 1_000);
        // symmetrized: ~2x sampled edges minus self loops
        assert!(g.num_edges() > 9_000 && g.num_edges() <= 10_000);
        g.validate().unwrap();
    }

    #[test]
    fn deterministic() {
        let a = social_graph(&SocialConfig::new(500, 2_000, 9));
        let b = social_graph(&SocialConfig::new(500, 2_000, 9));
        assert_eq!(a, b);
    }

    #[test]
    fn symmetric_adjacency() {
        let g = social_graph(&SocialConfig::new(300, 1_000, 5));
        for (u, v) in g.iter_edges() {
            assert!(g.neighbors(v).contains(&u));
        }
    }

    #[test]
    fn heavy_tail_present() {
        let g = social_graph(&SocialConfig::new(4_000, 40_000, 3));
        let n = g.num_vertices();
        let avg = g.num_edges() as f64 / n as f64;
        let max = (0..n as VertexId).map(|v| g.degree(v)).max().unwrap();
        assert!(max as f64 > avg * 8.0, "max {max} vs avg {avg:.1}");
    }

    #[test]
    fn community_structure_gives_traversal_depth() {
        // 16k vertices in ~16 communities: BFS from anywhere should need
        // well over the 2-3 levels of an unstructured small world.
        let g = social_graph(&SocialConfig::new(16_384, 80_000, 7));
        // simple BFS level count from vertex 0's component
        let n = g.num_vertices();
        let mut dist = vec![u32::MAX; n];
        dist[0] = 0;
        let mut frontier = vec![0u32];
        let mut levels = 0u32;
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &v in &frontier {
                for &t in g.neighbors(v) {
                    if dist[t as usize] == u32::MAX {
                        dist[t as usize] = levels + 1;
                        next.push(t);
                    }
                }
            }
            frontier = next;
            levels += 1;
        }
        assert!(
            levels >= 5,
            "expected community-driven depth, got {levels} levels"
        );
    }

    #[test]
    fn hubs_spread_across_id_space() {
        let g = social_graph(&SocialConfig::new(4_000, 40_000, 17));
        let top = (0..4_000 as VertexId).max_by_key(|&v| g.degree(v)).unwrap();
        assert_ne!(top, 0, "weight permutation must decouple degree from id");
    }

    #[test]
    fn mostly_intra_community_edges() {
        let cfg = SocialConfig::new(8_192, 40_000, 2);
        let g = social_graph(&cfg);
        let cs = 1024;
        let mut intra = 0u64;
        let mut total = 0u64;
        for (u, v) in g.iter_edges() {
            total += 1;
            if (u as usize) / cs == (v as usize) / cs {
                intra += 1;
            }
        }
        let frac = intra as f64 / total as f64;
        assert!(frac > 0.7, "intra fraction {frac:.2}");
    }

    #[test]
    fn sizes_whose_last_community_was_empty_generate() {
        // 263 169: the last community was empty (the alias table's assert);
        // 263 681: it started past the last id (an out-of-range slice)
        for n in [263_169, 263_681] {
            let cfg = SocialConfig::new(n, 10_000, 1);
            let (count, size) = cfg.communities();
            assert!((count - 1) * size < n, "n = {n}: {count} x {size}");
            assert_eq!(social_graph(&cfg).num_vertices(), n);
        }
    }

    #[test]
    #[should_panic(expected = "two vertices")]
    fn rejects_tiny() {
        social_graph(&SocialConfig::new(1, 10, 1));
    }
}
