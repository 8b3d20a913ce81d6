//! Peak live heap of a mutating serve. Sessions patch their own graphs,
//! so a serve holds at most one graph per live session plus one head copy
//! per variant — not one packed CSR per epoch per variant. The whole
//! binary runs under a counting global allocator (std only: `System` plus
//! two atomics), which is why this test has a binary of its own: every
//! allocation the serve makes, on any thread, lands in one live/peak pair.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use ascetic::core::AsceticConfig;
use ascetic::graph::datasets::weighted_variant;
use ascetic::graph::generators::uniform_graph;
use ascetic::graph::Csr;
use ascetic::serve::{serve_mutating, synthetic_mixed, synthetic_mutations, Policy, ServeConfig};
use ascetic::sim::{DeviceConfig, InterconnectConfig};

/// `System`, plus a live-bytes count and its high-water mark.
struct Counting;

// Statistics only: the counters publish no other data, so `Relaxed`
// suffices; the test reads them after the serve's threads are joined.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` implementation is sound, and returns its result unchanged;
// the counting touches only the two atomics above.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from this allocator, i.e. from `System`, with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(p, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `p` came from `System` with `layout`, and `new_size`
        // meets `realloc`'s contract, as the caller guarantees.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            match new_size.checked_sub(layout.size()) {
                Some(more) => grew(more),
                None => {
                    LIVE.fetch_sub(layout.size() - new_size, Relaxed);
                }
            }
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Heap bytes of one packed graph version: offsets, targets, weights.
fn version_bytes(g: &Csr) -> usize {
    g.offsets().len() * 8 + g.targets().len() * 4 + g.weights().map_or(0, |w| w.len() * 4)
}

/// Two NVLink devices serve a mixed trace over both variants while 20
/// mutation batches land. The serve's extra peak — everything it
/// allocates beyond the inputs — must stay within four versions of each
/// variant: the heads, the live sessions' own graphs, device arenas and
/// reports included. Keeping every epoch would be 21 of each.
#[test]
fn a_mutating_serve_holds_one_graph_per_live_session() {
    let g = uniform_graph(4_000, 160_000, false, 71);
    let w = weighted_variant(&g);
    let dev = DeviceConfig::p100(g.num_vertices() as u64 * 24 + g.edge_bytes() * 2 / 5);
    let cfg = AsceticConfig::new(dev).with_chunk_bytes(1024);
    let sc = ServeConfig::new(cfg, Policy::ResidencyAffinity)
        .with_devices(2)
        .with_interconnect(InterconnectConfig::nvlink());
    let jobs = synthetic_mixed(12, g.num_vertices(), 5, 400_000, 3);
    let mutations = synthetic_mutations(60, g.num_vertices(), 9, 150_000);
    let budget = 4 * (version_bytes(&g) + version_bytes(&w));

    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let rep = serve_mutating(&sc, &g, Some(&w), &jobs, &mutations).expect("well-formed");
    let extra = PEAK.load(Relaxed) - before;
    let versions = extra as f64 / (budget / 4) as f64;
    println!("extra peak {extra} B = {versions:.2} x (unweighted + weighted version)");

    assert_eq!(rep.jobs.len(), jobs.len(), "every job was answered");
    assert!(
        rep.mutations_applied > 0,
        "live sessions patched themselves"
    );
    assert!(
        extra <= budget,
        "serve peaked {extra} B above its inputs, budget {budget} B (4 x both versions)"
    );
}
