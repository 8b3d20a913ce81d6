//! Uniform (Erdős–Rényi G(n, m)) graphs, for tests and ablations where a
//! structureless baseline is wanted.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::builder::GraphBuilder;
use crate::csr::Csr;
use crate::types::VertexId;

/// Sample `num_edges` directed edges uniformly at random (self-loops
/// removed, neighbors sorted). Set `undirected` to mirror each edge.
pub fn uniform_graph(num_vertices: usize, num_edges: u64, undirected: bool, seed: u64) -> Csr {
    assert!(num_vertices >= 2, "need at least two vertices");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(num_vertices, num_edges as usize)
        .symmetrize(undirected)
        .drop_self_loops(true)
        .sort_neighbors(true);
    b.extend((0..num_edges).map(|_| {
        let u = rng.gen_range(0..num_vertices) as VertexId;
        (u, rng.gen_range(0..num_vertices) as VertexId)
    }));
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_determinism() {
        let a = uniform_graph(100, 500, false, 1);
        let b = uniform_graph(100, 500, false, 1);
        assert_eq!(a, b);
        assert!(a.num_edges() <= 500);
        a.validate().unwrap();
    }

    #[test]
    fn undirected_mirrors() {
        let g = uniform_graph(50, 200, true, 2);
        for (u, v) in g.iter_edges() {
            assert!(g.neighbors(v).contains(&u));
        }
    }

    #[test]
    fn degrees_roughly_uniform() {
        let g = uniform_graph(100, 10_000, false, 3);
        let avg = g.num_edges() as f64 / 100.0;
        for v in 0..100 {
            let d = g.degree(v) as f64;
            assert!(d > avg * 0.5 && d < avg * 1.5, "degree {d} vs avg {avg}");
        }
    }
}
