//! Benchmarks of the On-demand Engine data plane: batch planning and the
//! multi-threaded edge gather (the paper's CPU-side `Tfilling` component —
//! the cost Ascetic hides behind static-region compute).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use ascetic_core::ondemand::{gather, plan_batches, BatchPlan};
use ascetic_graph::generators::{social_graph, SocialConfig};

fn gather_benches(c: &mut Criterion) {
    let g = social_graph(&SocialConfig::new(65_536, 1_000_000, 3));
    let every_3rd: Vec<u32> = (0..g.num_vertices() as u32).step_by(3).collect();
    let total_edges: u64 = every_3rd.iter().map(|&v| g.degree(v)).sum();

    let mut grp = c.benchmark_group("ondemand");
    grp.sample_size(20);
    grp.throughput(Throughput::Elements(total_edges));

    grp.bench_function("plan_batches", |b| {
        b.iter(|| black_box(plan_batches(&g, &every_3rd, 1 << 18)))
    });

    let batches = plan_batches(&g, &every_3rd, 1 << 18);
    grp.bench_function("gather_all_batches", |b| {
        b.iter(|| {
            for entries in &batches {
                black_box(gather(&g, entries.clone()));
            }
        })
    });

    // the session's form: one recycled plan, rows copied straight into a
    // reused destination window (no per-batch allocation, no zero-fill)
    let mut plan = BatchPlan::default();
    let mut window = vec![0u32; 1 << 18];
    grp.bench_function("plan_and_gather_recycled", |b| {
        b.iter(|| {
            plan.plan(&g, &every_3rd, window.len());
            for batch in plan.batches() {
                batch.gather_into(&g, &mut window[..batch.words()]);
            }
            black_box(window[0])
        })
    });

    // sparse frontier (every 50th vertex): per-vertex overheads dominate
    let sparse: Vec<u32> = (0..g.num_vertices() as u32).step_by(50).collect();
    let sparse_edges: u64 = sparse.iter().map(|&v| g.degree(v)).sum();
    grp.throughput(Throughput::Elements(sparse_edges));
    grp.bench_function("gather_sparse_frontier", |b| {
        b.iter(|| {
            for entries in plan_batches(&g, &sparse, 1 << 18) {
                black_box(gather(&g, entries));
            }
        })
    });
    grp.finish();
}

criterion_group!(benches, gather_benches);
criterion_main!(benches);
