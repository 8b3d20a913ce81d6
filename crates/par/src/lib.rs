#![warn(missing_docs)]
#![deny(unsafe_code)]

//! # ascetic-par — parallelism substrate
//!
//! Small, dependency-light building blocks used by every other crate in the
//! Ascetic workspace:
//!
//! * [`parallel_for`] / [`parallel_for_with`] / [`parallel_for_work`] — a
//!   chunked, work-stealing parallel loop over an index range, used to run
//!   the "GPU kernels" of the simulated device on host cores. Whether a
//!   job is dispatched or runs inline follows its estimated *work*
//!   ([`INLINE_WORK`]), not its item count; the body is told which worker
//!   *lane* it runs in, unique among a job's concurrent bodies, so per-lane
//!   state needs no synchronization. Jobs execute on a
//!   lazily-initialized **persistent worker pool** ([`workers`]): workers
//!   are spawned once, park on a condvar between jobs, and are woken per
//!   job — eliminating the per-call thread spawn/join that used to sit on
//!   the per-iteration hot path. The spawn-per-call baseline survives as
//!   [`DispatchMode::Spawn`] (`ASCETIC_POOL=spawn`) for A/B measurement.
//! * [`parallel_ranges`] / [`parallel_parts`] — static decompositions for
//!   per-worker owned results and disjoint `&mut` windows.
//! * [`with_scratch`] — per-thread scratch arenas ([`scratch`]) whose
//!   buffer capacities persist across jobs and iterations on the pool's
//!   long-lived workers.
//! * [`AtomicBitmap`] / [`Bitmap`] — the bitmap machinery behind the paper's
//!   `ActiveBitmap` / `StaticBitmap` / `StaticMap` / `OndemandMap` dataflow
//!   (Figure 4 of the paper): concurrent set/test plus bulk word-level
//!   AND / XOR / AND-NOT combinators, all indexed by a summary level so
//!   their cost follows the frontier's population rather than |V|.
//! * [`atomics`] — the reductions the push-based vertex programs scatter
//!   with: test-before-RMW atomic min / max (SSSP/BFS/CC relaxations, a
//!   plain load when the proposal cannot win) and compare-exchange float
//!   adds (PageRank scatter).
//! * [`scan`] — the exclusive prefix sum that lays out compacted payloads
//!   (per-entry lengths → offsets).
//!
//! Concurrency uses `std::sync::atomic`, condvars and the "Rust Atomics and
//! Locks" idioms. The crate contains exactly one audited `unsafe` block —
//! the type-erased job pointer in [`workers`] that lets persistent threads
//! borrow the submitter's closure; everything else is safe Rust
//! (`#![deny(unsafe_code)]` with a scoped allow in that module).

pub mod atomics;
pub mod bitmap;
pub mod pool;
pub mod scan;
pub mod scratch;
pub mod workers;

pub use atomics::{
    atomic_add_f32, atomic_add_f64, atomic_max_u32, atomic_min_u32, atomic_swap_f64, load_f64,
    store_f64,
};
pub use bitmap::{AtomicBitmap, Bitmap};
pub use pool::{
    current_num_threads, parallel_for, parallel_for_with, parallel_for_work,
    parallel_map_fixed_blocks, parallel_parts, parallel_ranges, set_num_threads, threads_for_work,
    INLINE_WORK,
};
pub use scan::exclusive_scan_in_place;
pub use scratch::{with_scratch, Scratch};
pub use workers::{dispatch_mode, pool_stats, set_dispatch_mode, DispatchMode, PoolStats};
