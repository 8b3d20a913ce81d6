//! Micro-benchmarks of the hot substrate primitives: bitmap algebra
//! (GenDataMap's cost), atomic reductions (the kernels' inner loop),
//! prefix scans (subgraph layout) and the device-memory allocator.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use ascetic_par::{atomic_add_f64, atomic_min_u32, exclusive_scan_in_place, AtomicBitmap, Bitmap};
use ascetic_sim::DeviceMemory;
use std::sync::atomic::{AtomicU32, AtomicU64};

fn bitmap_ops(c: &mut Criterion) {
    let n = 1 << 20;
    let mut a = Bitmap::new(n);
    let mut b = Bitmap::new(n);
    for i in (0..n).step_by(3) {
        a.set(i);
    }
    for i in (0..n).step_by(7) {
        b.set(i);
    }
    let mut g = c.benchmark_group("bitmap");
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("and_1M", |bench| bench.iter(|| black_box(a.and(&b))));
    g.bench_function("and_not_1M", |bench| {
        bench.iter(|| black_box(a.and_not(&b)))
    });
    g.bench_function("to_indices_1M", |bench| {
        bench.iter(|| black_box(a.to_indices()))
    });
    g.bench_function("count_ones_1M", |bench| {
        bench.iter(|| black_box(a.count_ones()))
    });
    g.finish();

    let ab = AtomicBitmap::new(n);
    c.bench_function("atomic_bitmap/set_snapshot_1M", |bench| {
        bench.iter(|| {
            ab.clear_all();
            for i in (0..n).step_by(5) {
                ab.set(i);
            }
            black_box(ab.snapshot())
        })
    });
}

fn atomic_reductions(c: &mut Criterion) {
    let n = 1 << 16;
    let targets: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(u32::MAX)).collect();
    let mut g = c.benchmark_group("atomics");
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("min_u32_64K", |bench| {
        bench.iter(|| {
            for (i, t) in targets.iter().enumerate() {
                atomic_min_u32(t, black_box((i as u32).wrapping_mul(2_654_435_761)));
            }
        })
    });
    let acc: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    g.bench_function("add_f64_64K", |bench| {
        bench.iter(|| {
            for a in &acc {
                atomic_add_f64(a, black_box(0.25));
            }
        })
    });
    g.finish();
}

fn scans(c: &mut Criterion) {
    let xs: Vec<u64> = (0..1_000_000u64).map(|i| i % 37).collect();
    let mut g = c.benchmark_group("scan");
    g.throughput(Throughput::Elements(xs.len() as u64));
    g.bench_function("exclusive_in_place_1M", |bench| {
        bench.iter(|| {
            let mut out = xs.clone();
            black_box(exclusive_scan_in_place(&mut out))
        })
    });
    g.finish();
}

fn allocator(c: &mut Criterion) {
    c.bench_function("device_alloc/churn_1000", |bench| {
        bench.iter(|| {
            let mut mem = DeviceMemory::new(1 << 20);
            let mut live = Vec::new();
            for i in 0..1000 {
                live.push(mem.alloc(64 + i % 128).unwrap());
                if i % 3 == 0 {
                    let p = live.swap_remove(i % live.len());
                    mem.free(p);
                }
            }
            black_box(mem.available())
        })
    });
}

criterion_group!(benches, bitmap_ops, atomic_reductions, scans, allocator);
criterion_main!(benches);
