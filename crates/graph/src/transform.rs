//! Graph transformations: relabeling by degree. (The transpose is
//! [`Csr::transpose`]; undirected input is symmetrized by the builder.)

use crate::csr::Csr;
use crate::types::{VertexId, Weight};

/// Relabel vertices by descending out-degree: vertex 0 becomes the highest
/// degree hub, etc. Returns the relabeled graph plus `old_of_new` (the
/// original id of each new id, for translating results back).
///
/// Out-of-core systems benefit: with degree-descending ids, the *front* of
/// the edge array holds the hubs' adjacency — so a front-filled static
/// region pins exactly the data most likely to be active every iteration
/// (studied in `ablation_relabel`).
pub fn relabel_by_degree(g: &Csr) -> (Csr, Vec<VertexId>) {
    let n = g.num_vertices();
    let mut old_of_new: Vec<VertexId> = (0..n as VertexId).collect();
    old_of_new.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
    let mut new_of_old = vec![0 as VertexId; n];
    for (new, &old) in old_of_new.iter().enumerate() {
        new_of_old[old as usize] = new as VertexId;
    }
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0u64);
    let m = g.num_edges() as usize;
    let mut targets = Vec::with_capacity(m);
    let mut weights = g.weights().map(|_| Vec::with_capacity(m));
    let mut scratch: Vec<(VertexId, Weight)> = Vec::new();
    for &old in &old_of_new {
        scratch.clear();
        match g.weights() {
            None => scratch.extend(
                g.neighbors(old)
                    .iter()
                    .map(|&t| (new_of_old[t as usize], 0)),
            ),
            Some(_) => scratch.extend(
                g.neighbors(old)
                    .iter()
                    .zip(g.edge_weights(old))
                    .map(|(&t, &w)| (new_of_old[t as usize], w)),
            ),
        }
        scratch.sort_unstable_by_key(|&(t, _)| t);
        for &(t, w) in &scratch {
            targets.push(t);
            if let Some(ws) = weights.as_mut() {
                ws.push(w);
            }
        }
        offsets.push(targets.len() as u64);
    }
    (Csr::from_parts(offsets, targets, weights), old_of_new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generators::uniform_graph;

    fn sample() -> Csr {
        let mut b = GraphBuilder::new(4).sort_neighbors(true);
        b.add_weighted_edge(0, 1, 10);
        b.add_weighted_edge(0, 2, 20);
        b.add_weighted_edge(2, 1, 30);
        b.add_weighted_edge(3, 0, 40);
        b.build()
    }

    #[test]
    fn relabel_sorts_degrees_descending() {
        let g = uniform_graph(200, 3_000, false, 8);
        let (rg, old_of_new) = relabel_by_degree(&g);
        assert_eq!(rg.num_edges(), g.num_edges());
        rg.validate().unwrap();
        for v in 1..200u32 {
            assert!(rg.degree(v - 1) >= rg.degree(v), "not sorted at {v}");
        }
        // permutation is a bijection
        let mut sorted = old_of_new.clone();
        sorted.sort_unstable();
        assert!(sorted.iter().enumerate().all(|(i, &v)| i as u32 == v));
    }

    #[test]
    fn relabel_preserves_structure() {
        // edge (u, v) in the original must map to (new(u), new(v))
        let g = uniform_graph(100, 900, false, 3);
        let (rg, old_of_new) = relabel_by_degree(&g);
        let mut new_of_old = vec![0u32; 100];
        for (new, &old) in old_of_new.iter().enumerate() {
            new_of_old[old as usize] = new as u32;
        }
        for (u, v) in g.iter_edges() {
            let (nu, nv) = (new_of_old[u as usize], new_of_old[v as usize]);
            assert!(rg.neighbors(nu).contains(&nv), "{u}->{v} lost");
        }
    }

    #[test]
    fn relabel_keeps_weights_with_their_edges() {
        let g = sample();
        let (rg, old_of_new) = relabel_by_degree(&g);
        // vertex 0 (deg 2, weights 10/20) maps to new id 0 (highest degree)
        assert_eq!(old_of_new[0], 0);
        let mut w: Vec<u32> = rg.edge_weights(0).to_vec();
        w.sort_unstable();
        assert_eq!(w, vec![10, 20]);
    }
}
