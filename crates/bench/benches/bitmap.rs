//! Benchmarks of `Bitmap::iter_ones` across the density regimes the
//! session walks every iteration: near-empty frontiers (a few set bits
//! among millions — the summary level's home turf), clustered frontiers
//! (set bits packed into a few words), and dense frontiers where every
//! word carries payload. `frontier_split` times the two per-iteration
//! consumers of a frontier — `to_indices` and the static/on-demand
//! data-map split — at 0.1 %, 1 % and 50 % density, scattered (every block
//! marked: the summary must cost nothing) and clustered (most blocks
//! skipped unread).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use ascetic_core::maps::DataMaps;
use ascetic_graph::generators::uniform_graph;
use ascetic_par::Bitmap;

const N: usize = 1 << 20;

fn sparse_scattered(stride: usize) -> Bitmap {
    let mut b = Bitmap::new(N);
    let mut i = 0;
    while i < N {
        b.set(i);
        i += stride;
    }
    b
}

fn clustered(run: usize, period: usize) -> Bitmap {
    let mut b = Bitmap::new(N);
    let mut i = 0;
    while i < N {
        for j in i..(i + run).min(N) {
            b.set(j);
        }
        i += period;
    }
    b
}

fn iter_ones_benches(c: &mut Criterion) {
    let cases: [(&str, Bitmap); 4] = [
        // 16 set bits in a 1M-bit map: virtually every word is zero
        ("sparse_1_in_64k", sparse_scattered(N / 16)),
        // one bit per 8 words: skip still dominates
        ("sparse_1_in_512", sparse_scattered(512)),
        // 64-bit runs every 4096 bits: zero gaps between dense islands
        ("clustered_64_per_4096", clustered(64, 4096)),
        // every other bit: no zero words at all (skip must not slow this)
        ("dense_alternating", sparse_scattered(2)),
    ];
    let mut grp = c.benchmark_group("bitmap_iter_ones");
    grp.throughput(Throughput::Elements(N as u64));
    for (name, b) in &cases {
        grp.bench_function(*name, |bench| {
            bench.iter(|| {
                let mut acc = 0usize;
                for i in b.iter_ones() {
                    acc = acc.wrapping_add(i);
                }
                black_box(acc)
            })
        });
    }
    grp.finish();
}

fn frontier_split_benches(c: &mut Criterion) {
    let g = uniform_graph(N, 4 * N as u64, false, 1);
    // residency of a half-full static region: alternating 4096-vertex runs
    let resident = clustered(4096, 8192);
    let mut grp = c.benchmark_group("frontier_split");
    grp.throughput(Throughput::Elements(N as u64));
    for (density, stride) in [("0.1pct", 1000), ("1pct", 100), ("50pct", 2)] {
        // the same population packed into one contiguous vertex range
        let packed = clustered(N / stride, N);
        for (shape, frontier) in [("scattered", sparse_scattered(stride)), ("packed", packed)] {
            grp.bench_function(format!("to_indices_{density}_{shape}"), |bench| {
                bench.iter(|| black_box(frontier.to_indices()))
            });
            let mut maps = DataMaps::default();
            grp.bench_function(format!("data_maps_{density}_{shape}"), |bench| {
                bench.iter(|| {
                    maps.regenerate(&g, &frontier, &resident);
                    black_box(maps.active_edges())
                })
            });
        }
    }
    grp.finish();
}

criterion_group!(benches, iter_ones_benches, frontier_split_benches);
criterion_main!(benches);
