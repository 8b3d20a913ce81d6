//! Host-locality web-graph generator — stand-in for gsh-2015 / uk-2007.
//!
//! Web crawls (the paper's GS and UK datasets) are *directed* with strong
//! structure that the evaluation depends on:
//!
//! * crawlers number pages host-by-host, so most links stay inside a small
//!   id window (the same host) — this is why UK shows the lowest active
//!   ratios in the paper's Table 1 (BFS 0.8 %);
//! * within a host, pages form deep link hierarchies (URL trees): a link
//!   mostly points a short id distance away, so a traversal entering a
//!   host takes many iterations to reach its deep pages;
//! * cross-host links go either to topologically nearby hosts (same
//!   domain/topic) or to a power-law-popular set of hub hosts, and they
//!   predominantly land on the target host's *front pages* (site roots).
//!
//! Together these give BFS/SSSP the long, thin frontier profile of a real
//! crawl while keeping generation O(E).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use super::alias::AliasTable;
use crate::builder::GraphBuilder;
use crate::csr::Csr;
use crate::types::VertexId;
use ascetic_par::parallel_map_fixed_blocks;

/// Parameters for [`web_graph`].
#[derive(Clone, Copy, Debug)]
pub struct WebConfig {
    /// Number of vertices (pages).
    pub num_vertices: usize,
    /// Number of directed edges (links).
    pub num_edges: u64,
    /// Approximate number of hosts.
    pub num_hosts: usize,
    /// Fraction of links that stay within the source's host.
    pub intra_frac: f64,
    /// Mean intra-host id distance of a link (geometric; controls crawl
    /// depth — smaller means deeper hierarchies).
    pub intra_span_mean: f64,
    /// Of the cross-host links, the fraction that go to ring-nearby hosts
    /// (the rest go to power-law-popular hub hosts).
    pub near_host_frac: f64,
    /// Power-law exponent for host popularity.
    pub host_gamma: f64,
    /// Fraction of each host reachable as a "front page" cross-host link
    /// target.
    pub front_frac: f64,
    /// RNG seed.
    pub seed: u64,
}

impl WebConfig {
    /// uk-2007-ish defaults: ~250-page hosts, 80 % intra-host links with
    /// mean span 6 (deep hierarchies), cross links mostly to nearby hosts,
    /// landing on the front 10 % of the target host (at least four hosts,
    /// but never more hosts than pages).
    pub fn new(num_vertices: usize, num_edges: u64, seed: u64) -> Self {
        WebConfig {
            num_vertices,
            num_edges,
            num_hosts: (num_vertices / 250).max(4).min(num_vertices),
            intra_frac: 0.8,
            intra_span_mean: 6.0,
            near_host_frac: 0.7,
            host_gamma: 2.2,
            front_frac: 0.1,
            seed,
        }
    }
}

/// Geometric sample ≥ 1 with mean ≈ `mean` (capped to keep generation O(1)).
#[inline]
fn geometric(rng: &mut SmallRng, mean: f64) -> usize {
    let p = 1.0 / mean.max(1.0);
    let mut k = 1usize;
    while rng.gen::<f64>() > p && k < 256 {
        k += 1;
    }
    k
}

/// Generate a directed host-locality web graph (self-loops removed,
/// neighbors sorted).
pub fn web_graph(cfg: &WebConfig) -> Csr {
    let n = cfg.num_vertices;
    assert!(n >= 2, "need at least two vertices");
    assert!(cfg.num_hosts >= 1 && cfg.num_hosts <= n, "bad host count");
    assert!(
        (0.0..=1.0).contains(&cfg.intra_frac),
        "intra_frac must be in [0,1]"
    );
    assert!(
        (0.0..=1.0).contains(&cfg.near_host_frac),
        "near_host_frac must be in [0,1]"
    );

    // Host boundaries: power-law host sizes over contiguous id ranges
    // (crawl order). host_starts[h]..host_starts[h+1] are host h's pages.
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let h = cfg.num_hosts;
    let raw: Vec<f64> = (0..h)
        .map(|i| (i as f64 + 1.5).powf(-1.0 / (cfg.host_gamma - 1.0)))
        .collect();
    let total: f64 = raw.iter().sum();
    let mut host_starts = Vec::with_capacity(h + 1);
    host_starts.push(0usize);
    let mut acc = 0.0;
    for (i, r) in raw.iter().enumerate() {
        acc += r;
        let mut end = ((acc / total) * n as f64).round() as usize;
        end = end.clamp(host_starts[i] + 1, n - (h - i - 1)).min(n);
        host_starts.push(end);
    }
    *host_starts.last_mut().unwrap() = n;

    let host_of = |v: usize| -> usize {
        match host_starts.binary_search(&v) {
            Ok(i) => i.min(h - 1),
            Err(i) => i - 1,
        }
    };

    // Host popularity for hub links: power law, permuted so popular hosts
    // are spread over the crawl order.
    let mut pop: Vec<f64> = (0..h).map(|i| (i as f64 + 1.0).powf(-1.2)).collect();
    for i in (1..h).rev() {
        let j = rng.gen_range(0..=i);
        pop.swap(i, j);
    }
    let host_table = AliasTable::new(&pop);

    let mean_deg = (cfg.num_edges as f64 / n as f64).max(0.0);
    let batches = parallel_map_fixed_blocks(n, 16_384, |block, range| {
        let mut rng =
            SmallRng::seed_from_u64(cfg.seed ^ (block as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93));
        let mut out: Vec<(VertexId, VertexId)> =
            Vec::with_capacity((range.len() as f64 * mean_deg) as usize + 4);
        for v in range {
            let deg = rng.gen_range(0.0..=2.0 * mean_deg).round() as usize;
            let my_host = host_of(v);
            let (hs, he) = (host_starts[my_host], host_starts[my_host + 1]);
            for _ in 0..deg {
                let dst = if rng.gen::<f64>() < cfg.intra_frac && he - hs > 1 {
                    // intra-host: short geometric id hop (URL-tree depth)
                    let span = geometric(&mut rng, cfg.intra_span_mean);
                    let down = rng.gen::<f64>() < 0.7; // links mostly go deeper
                    let cand = if down {
                        v + span
                    } else {
                        v.saturating_sub(span)
                    };
                    cand.clamp(hs, he - 1)
                } else {
                    // cross-host: nearby host or popular hub host...
                    let th = if rng.gen::<f64>() < cfg.near_host_frac {
                        let hop = geometric(&mut rng, 2.0);
                        if rng.gen::<bool>() {
                            (my_host + hop) % h
                        } else {
                            (my_host + h - hop % h) % h
                        }
                    } else {
                        host_table.sample(&mut rng) as usize
                    };
                    // ...landing on one of the target's front pages
                    let (ts, te) = (host_starts[th], host_starts[th + 1]);
                    let front = ((te - ts) as f64 * cfg.front_frac).ceil() as usize;
                    rng.gen_range(ts..(ts + front.max(1)).min(te))
                };
                if dst != v {
                    out.push((v as VertexId, dst as VertexId));
                }
            }
        }
        out
    });

    let mut b = GraphBuilder::with_capacity(n, cfg.num_edges as usize)
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
        let cfg = WebConfig::new(2_000, 16_000, 1);
        let g = web_graph(&cfg);
        assert_eq!(g.num_vertices(), 2_000);
        let m = g.num_edges();
        assert!(m > 12_000 && m < 20_000, "edges {m}");
        g.validate().unwrap();
    }

    #[test]
    fn deterministic() {
        let cfg = WebConfig::new(1_000, 5_000, 4);
        assert_eq!(web_graph(&cfg), web_graph(&cfg));
    }

    #[test]
    fn mostly_local_targets() {
        let cfg = WebConfig::new(5_000, 40_000, 2);
        let g = web_graph(&cfg);
        let mut local = 0u64;
        let mut total = 0u64;
        for (u, v) in g.iter_edges() {
            total += 1;
            if (u as i64 - v as i64).unsigned_abs() < 500 {
                local += 1;
            }
        }
        let frac = local as f64 / total as f64;
        assert!(frac > 0.6, "locality fraction {frac:.2}");
    }

    #[test]
    fn directed_not_necessarily_symmetric() {
        let cfg = WebConfig::new(1_000, 8_000, 6);
        let g = web_graph(&cfg);
        let asym = g
            .iter_edges()
            .filter(|&(u, v)| !g.neighbors(v).contains(&u))
            .count();
        assert!(asym > 0, "a web crawl should have one-way links");
    }

    #[test]
    fn deep_crawl_frontiers() {
        // BFS from the largest host's root must take many levels: the
        // intra-host hierarchies are deep by construction.
        let g = web_graph(&WebConfig::new(20_000, 160_000, 3));
        let n = g.num_vertices();
        let src = (0..n as VertexId).max_by_key(|&v| g.degree(v)).unwrap();
        let mut dist = vec![u32::MAX; n];
        dist[src as usize] = 0;
        let mut frontier = vec![src];
        let mut levels = 0u32;
        let mut reached = 1usize;
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &v in &frontier {
                for &t in g.neighbors(v) {
                    if dist[t as usize] == u32::MAX {
                        dist[t as usize] = levels + 1;
                        next.push(t);
                        reached += 1;
                    }
                }
            }
            frontier = next;
            levels += 1;
        }
        assert!(
            reached > n / 2,
            "BFS should reach most pages: {reached}/{n}"
        );
        assert!(levels >= 10, "expected deep crawl, got {levels} levels");
    }

    #[test]
    #[should_panic(expected = "intra_frac")]
    fn rejects_bad_fraction() {
        let mut cfg = WebConfig::new(100, 500, 1);
        cfg.intra_frac = 1.5;
        web_graph(&cfg);
    }
}
