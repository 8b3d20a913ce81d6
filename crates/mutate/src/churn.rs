//! Deterministic synthetic churn: insert/delete batches over a live graph.
//!
//! The generator walks a working adjacency mirror of the graph so deletes
//! always name an edge that exists *at that point in the stream* —
//! including edges inserted by an earlier batch (or earlier in the same
//! batch). That makes every generated stream applicable without
//! `missing_deletes`, which keeps the bench and CI oracles sharp: a churn
//! batch that silently no-ops would understate the repair work.

use ascetic_graph::generators::xorshift;
use ascetic_graph::{Csr, Mutation, VertexId};

/// Generate `batches` batches of `batch_size` mutations each over `g`:
/// roughly 70% inserts (weighted iff `g` is weighted, weights in 1..=9)
/// and 30% deletes of edges live at that point in the stream. Entirely
/// deterministic in `seed`.
pub fn synthetic_churn(
    g: &Csr,
    batches: usize,
    batch_size: usize,
    seed: u64,
) -> Vec<Vec<Mutation>> {
    let n = g.num_vertices() as u64;
    assert!(n > 0, "churn needs at least one vertex");
    let weighted = g.weights().is_some();
    // Scramble before the nonzero guard: `seed | 1` alone would collapse
    // adjacent even/odd seed pairs onto the same stream.
    let mut rng = seed.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
    // Working adjacency: destination lists only — deletes are addressed by
    // (src, dst) and remove every parallel copy, so weights never matter
    // for picking a victim.
    let mut adj: Vec<Vec<VertexId>> = (0..g.num_vertices())
        .map(|v| g.neighbors(v as VertexId).to_vec())
        .collect();
    let mut live_edges: u64 = adj.iter().map(|row| row.len() as u64).sum();
    (0..batches)
        .map(|_| {
            (0..batch_size)
                .map(|_| {
                    if xorshift(&mut rng) % 10 < 3 && live_edges > 0 {
                        // Delete: find a vertex with out-edges (linear probe
                        // from a random start keeps this deterministic).
                        let mut src = (xorshift(&mut rng) % n) as u32;
                        while adj[src as usize].is_empty() {
                            src = (src + 1) % n as u32;
                        }
                        let row = &mut adj[src as usize];
                        let dst = row[(xorshift(&mut rng) % row.len() as u64) as usize];
                        // A delete removes every parallel src → dst copy.
                        let before = row.len();
                        row.retain(|&d| d != dst);
                        live_edges -= (before - row.len()) as u64;
                        Mutation::Delete { src, dst }
                    } else {
                        let src = (xorshift(&mut rng) % n) as u32;
                        let dst = (xorshift(&mut rng) % n) as u32;
                        let weight = weighted.then(|| (xorshift(&mut rng) % 9 + 1) as u32);
                        adj[src as usize].push(dst);
                        live_edges += 1;
                        Mutation::Insert { src, dst, weight }
                    }
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascetic_graph::datasets::weighted_variant;
    use ascetic_graph::generators::uniform_graph;

    #[test]
    fn churn_is_deterministic() {
        let g = uniform_graph(200, 1_400, false, 3);
        assert_eq!(
            synthetic_churn(&g, 3, 25, 42),
            synthetic_churn(&g, 3, 25, 42)
        );
        assert_ne!(
            synthetic_churn(&g, 3, 25, 42),
            synthetic_churn(&g, 3, 25, 43)
        );
    }

    #[test]
    fn churn_respects_weightedness_and_mixes_ops() {
        let g = weighted_variant(&uniform_graph(150, 900, false, 5));
        let batches = synthetic_churn(&g, 2, 60, 9);
        let all: Vec<_> = batches.iter().flatten().collect();
        assert!(all
            .iter()
            .all(|m| !matches!(m, Mutation::Insert { weight: None, .. })));
        assert!(all.iter().any(|m| matches!(m, Mutation::Insert { .. })));
        assert!(all.iter().any(|m| matches!(m, Mutation::Delete { .. })));
    }

    #[test]
    fn churn_deletes_always_hit_live_edges() {
        let g = uniform_graph(120, 700, false, 11);
        let mut head = g.clone();
        for batch in synthetic_churn(&g, 4, 40, 17) {
            let patch = head.apply(&batch).expect("churn is always applicable");
            assert_eq!(patch.missing_deletes, 0, "every delete names a live edge");
        }
    }
}
