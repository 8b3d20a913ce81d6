//! Chunked parallel-for over an index range.
//!
//! The simulated GPU executes its "kernels" on host cores. A kernel is a loop
//! over work items (active vertices, edge chunks, bitmap words); this module
//! provides the loop. Work is handed out in fixed-size chunks through a single
//! shared atomic cursor, which gives dynamic load balancing (important for
//! power-law graphs where one vertex can own millions of edges) without any
//! per-item synchronization.
//!
//! Jobs are executed by the **persistent worker pool** in [`crate::workers`]
//! (workers spawned once and parked between jobs) rather than by spawning
//! fresh scoped threads per call; the old behaviour survives as
//! [`crate::DispatchMode::Spawn`] for A/B measurement.
//!
//! The thread count defaults to the machine's available parallelism and can
//! be overridden globally with [`set_num_threads`] (used by tests and by the
//! deterministic benchmark harness; note that simulated *time* never depends
//! on the host thread count — only wall time does).
//!
//! # `set_num_threads` contract
//!
//! The override is a relaxed global: it takes effect at the **next job
//! boundary**. Every parallel primitive reads the count exactly once, at
//! dispatch, and latches it for the whole job — a concurrent
//! `set_num_threads` therefore never changes the worker-index range
//! (`0..threads`) or the decomposition of a job already in flight, and the
//! persistent pool only grows between jobs (while holding the submit lock),
//! never mid-job.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::workers::{note_inline_job, run_on_workers, CHUNKS_SERVED};

/// Global override for the worker thread count. `0` means "not set".
static NUM_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Work below which a job runs inline on the caller, in units of roughly
/// one edge relaxation (a few ns) — some tens of microseconds of serial
/// work, an order of magnitude above one dispatch round-trip of the
/// persistent pool, because a job dispatched into a mostly-inline phase
/// usually finds the workers parked, not spinning. (Sweeping 4 Ki / 16 Ki /
/// 64 Ki over the benchmark's sparse-frontier workloads put the knee here.)
/// Also the work each chunk grab should cover — small enough to balance
/// skewed work, big enough that cursor contention is negligible.
pub const INLINE_WORK: u64 = 16_384;

/// Work an item is assumed to carry when the caller gives no estimate
/// ([`parallel_for`]): a 64-item job is the largest that stays inline.
const DEFAULT_ITEM_WORK: u64 = INLINE_WORK / 64;

/// Set the number of worker threads used by [`parallel_for`].
///
/// Passing `0` restores the default (machine parallelism). Takes effect at
/// the next job boundary; jobs already in flight keep the count they
/// latched at dispatch (see the module docs).
pub fn set_num_threads(n: usize) {
    NUM_THREADS.store(n, Ordering::Relaxed);
}

/// Number of worker threads [`parallel_for`] will use right now.
pub fn current_num_threads() -> usize {
    let n = NUM_THREADS.load(Ordering::Relaxed);
    if n != 0 {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// How many workers a job of `work` units (see [`INLINE_WORK`]) is worth:
/// `1` — run it inline — when it is small or one thread is configured,
/// else the configured thread count. Callers that build their own static
/// decomposition (the on-demand gather) size it with this; the
/// `parallel_for*` family applies it internally.
pub fn threads_for_work(work: u64) -> usize {
    if work <= INLINE_WORK {
        1
    } else {
        current_num_threads()
    }
}

/// Pick a chunk size for a loop of `len` items carrying `work` units in
/// total, on `threads` workers.
///
/// Aims for ~8 chunks per thread so stealing can smooth out skew, with a
/// floor of [`INLINE_WORK`] units per chunk (at the job's mean item cost)
/// to keep the shared cursor cold: trivial items come in big chunks, hub
/// rows one at a time.
fn chunk_size(len: usize, work: u64, threads: usize) -> usize {
    let target = len / (threads * 8).max(1);
    let floor = (INLINE_WORK as u128 * len as u128).div_ceil(work.max(1) as u128) as usize;
    target.max(floor).clamp(1, len.max(1))
}

/// Run `body(i)` for every `i in 0..len`, in parallel.
///
/// `body` must be safe to call concurrently from multiple threads
/// (`Sync + Send` closure over shared state — typically atomics or disjoint
/// indexed writes through interior mutability).
///
/// Degenerates to a plain serial loop when `len` is small or only one thread
/// is configured, so it is safe to use in cold paths too. Item count is
/// the only size it knows; when the caller can estimate the job's work
/// (edges, words), [`parallel_for_work`] makes the better call.
///
/// ```
/// use std::sync::atomic::{AtomicU64, Ordering};
/// let sum = AtomicU64::new(0);
/// ascetic_par::parallel_for(1_000, |i| {
///     sum.fetch_add(i as u64, Ordering::Relaxed);
/// });
/// assert_eq!(sum.into_inner(), 999 * 1_000 / 2);
/// ```
pub fn parallel_for<F>(len: usize, body: F)
where
    F: Fn(usize) + Sync,
{
    parallel_for_with(len, |_, i| body(i));
}

/// Like [`parallel_for`] but the body also receives the worker index
/// (`0..current_num_threads()`), for per-thread scratch buffers.
pub fn parallel_for_with<F>(len: usize, body: F)
where
    F: Fn(usize, usize) + Sync,
{
    dispatch(len, len as u64 * DEFAULT_ITEM_WORK, body);
}

/// [`parallel_for_with`] for a job whose total `work` the caller can
/// estimate (in [`INLINE_WORK`] units — for the engines, the edges the items
/// will relax). The inline-or-dispatch decision and the chunk size follow
/// the work, not the item count: two hub rows are split across workers, a
/// thousand leaf rows are not worth a wake-up.
///
/// # The lane contract
///
/// `body(lane, i)` receives the index of the worker running it, and within
/// one job **no two bodies running at the same time are handed the same
/// lane**: a job is one closure invocation per worker index (`0` = the
/// submitting thread; an inline job is lane 0 throughout; a nested job
/// inside a pool worker runs its lanes one after another), and a worker
/// runs its items sequentially. State indexed by the lane is therefore
/// private to the running body for the duration of the job without any
/// synchronization — what lane-private reductions (PageRank's scatter)
/// build on. Lanes are `< current_num_threads()` as latched at dispatch;
/// the count may differ between jobs, so per-lane state sized earlier must
/// tolerate a lane past its end.
pub fn parallel_for_work<F>(len: usize, work: u64, body: F)
where
    F: Fn(usize, usize) + Sync,
{
    dispatch(len, work, body);
}

/// The one loop behind the `parallel_for*` family.
fn dispatch<F>(len: usize, work: u64, body: F)
where
    F: Fn(usize, usize) + Sync,
{
    if len == 0 {
        return;
    }
    let threads = threads_for_work(work).min(len);
    if threads == 1 {
        note_inline_job();
        for i in 0..len {
            body(0, i);
        }
        return;
    }
    let chunk = chunk_size(len, work, threads);
    let cursor = AtomicUsize::new(0);
    run_on_workers(threads, |worker| loop {
        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
        if start >= len {
            break;
        }
        CHUNKS_SERVED.fetch_add(1, Ordering::Relaxed);
        let end = (start + chunk).min(len);
        for i in start..end {
            body(worker, i);
        }
    });
}

/// Split `0..len` into per-worker ranges, run `body(worker, range)` on each
/// worker thread, and collect the return values in worker order.
///
/// Unlike [`parallel_for`], the split is static (one contiguous range per
/// worker); use this when the body needs to produce an owned result per
/// thread (e.g. per-thread gather buffers that are later concatenated).
///
/// Every returned range is **non-empty**: when `len` does not divide evenly
/// across the configured threads, only as many workers as have work are
/// used — no worker is dispatched on an empty range, and `len == 0` yields
/// an empty vector.
pub fn parallel_ranges<T, F>(len: usize, body: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, std::ops::Range<usize>) -> T + Sync,
{
    if len == 0 {
        return Vec::new();
    }
    let threads = current_num_threads().min(len).max(1);
    if threads == 1 {
        return vec![body(0, 0..len)];
    }
    let per = len.div_ceil(threads);
    // With `per = ceil(len/threads)`, the trailing workers can end up with
    // empty ranges (e.g. len=10, threads=8 → per=2 → workers 5..8 idle).
    // Dispatch only the workers that have work.
    let nranges = len.div_ceil(per);
    let slots: Vec<Mutex<Option<T>>> = (0..nranges).map(|_| Mutex::new(None)).collect();
    run_on_workers(nranges, |worker| {
        let start = worker * per;
        let end = ((worker + 1) * per).min(len);
        *slots[worker].lock().unwrap() = Some(body(worker, start..end));
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().unwrap().expect("worker completed"))
        .collect()
}

/// Run `body(index, part)` for every element of `parts`, one worker per
/// part, consuming the parts.
///
/// This is the primitive behind "each worker fills a disjoint `&mut`
/// window" patterns (the on-demand gather, the codec's encode pass):
/// split a buffer with `split_at_mut`, push the windows into a `Vec`, and
/// let each worker take exactly one. Parts run concurrently on
/// the persistent pool; a single part runs inline on the caller.
pub fn parallel_parts<T, F>(parts: Vec<T>, body: F)
where
    T: Send,
    F: Fn(usize, T) + Sync,
{
    match parts.len() {
        0 => {}
        1 => {
            note_inline_job();
            for (i, p) in parts.into_iter().enumerate() {
                body(i, p);
            }
        }
        n => {
            let slots: Vec<Mutex<Option<T>>> =
                parts.into_iter().map(|p| Mutex::new(Some(p))).collect();
            run_on_workers(n, |worker| {
                let part = slots[worker]
                    .lock()
                    .unwrap()
                    .take()
                    .expect("each part is taken exactly once");
                body(worker, part);
            });
        }
    }
}

/// Map fixed-size blocks of `0..len` to values, in parallel, returning the
/// results in block order.
///
/// Unlike [`parallel_ranges`], the work decomposition is **independent of
/// the thread count**: block `i` always covers
/// `i*block_size .. min((i+1)*block_size, len)`. Use this whenever the
/// per-block computation is seeded by its block (e.g. deterministic
/// parallel RNG streams in the graph generators) so that results are
/// reproducible on any machine.
pub fn parallel_map_fixed_blocks<T, F>(len: usize, block_size: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, std::ops::Range<usize>) -> T + Sync,
{
    assert!(block_size > 0, "block size must be positive");
    let nblocks = len.div_ceil(block_size);
    let nested = parallel_ranges(nblocks, |_, brange| {
        brange
            .map(|b| f(b, b * block_size..((b + 1) * block_size).min(len)))
            .collect::<Vec<T>>()
    });
    nested.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// Tests that mutate the global thread override serialize on this.
    static THREAD_OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn covers_every_index_exactly_once() {
        let n = 10_000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(n, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn empty_range_is_a_noop() {
        parallel_for(0, |_| panic!("must not be called"));
    }

    #[test]
    fn single_item() {
        let sum = AtomicU64::new(0);
        parallel_for(1, |i| {
            sum.fetch_add(i as u64 + 1, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn sums_match_serial() {
        let n = 123_457;
        let sum = AtomicU64::new(0);
        parallel_for(n, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        let expect = (n as u64 - 1) * n as u64 / 2;
        assert_eq!(sum.load(Ordering::Relaxed), expect);
    }

    #[test]
    fn worker_ids_are_in_range() {
        let _g = THREAD_OVERRIDE_LOCK.lock().unwrap();
        set_num_threads(4);
        let bad = AtomicUsize::new(0);
        parallel_for_with(50_000, |w, _| {
            if w >= 4 {
                bad.fetch_add(1, Ordering::Relaxed);
            }
        });
        set_num_threads(0);
        assert_eq!(bad.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn respects_thread_override() {
        let _g = THREAD_OVERRIDE_LOCK.lock().unwrap();
        set_num_threads(1);
        assert_eq!(current_num_threads(), 1);
        // Serial path must still cover everything.
        let sum = AtomicU64::new(0);
        parallel_for(1000, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 999 * 1000 / 2);
        set_num_threads(0);
        assert!(current_num_threads() >= 1);
    }

    #[test]
    fn thread_count_change_applies_at_the_next_job_boundary() {
        // The contract: a concurrent set_num_threads never corrupts an
        // in-flight job. Hammer the override from one thread while another
        // runs jobs; every job must still cover each index exactly once
        // and keep worker ids within the largest configured count.
        let _g = THREAD_OVERRIDE_LOCK.lock().unwrap();
        let stop = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let stop_ref = &stop;
            s.spawn(move || {
                let mut t = 1;
                while stop_ref.load(Ordering::Relaxed) == 0 {
                    set_num_threads(t);
                    t = t % 8 + 1;
                    std::hint::spin_loop();
                }
            });
            for _ in 0..50 {
                let n = 10_000;
                let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let bad = AtomicUsize::new(0);
                parallel_for_with(n, |w, i| {
                    if w >= 8 {
                        bad.fetch_add(1, Ordering::Relaxed);
                    }
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                assert_eq!(bad.load(Ordering::Relaxed), 0, "worker id beyond latch");
                assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
            }
            stop.store(1, Ordering::Relaxed);
        });
        set_num_threads(0);
    }

    /// The lane contract, hammered: 8 workers on however few cores, every
    /// body holding its lane's flag while it runs. A second body entering
    /// an occupied lane would find the flag already up.
    #[test]
    fn no_two_concurrent_bodies_share_a_lane() {
        let _g = THREAD_OVERRIDE_LOCK.lock().unwrap();
        set_num_threads(8);
        let occupied: Vec<AtomicUsize> = (0..8).map(|_| AtomicUsize::new(0)).collect();
        let used: Vec<AtomicUsize> = (0..8).map(|_| AtomicUsize::new(0)).collect();
        let collisions = AtomicUsize::new(0);
        let hold = |lane: usize| {
            if occupied[lane].swap(1, Ordering::AcqRel) != 0 {
                collisions.fetch_add(1, Ordering::Relaxed);
            }
            used[lane].fetch_add(1, Ordering::Relaxed);
            for _ in 0..50 {
                std::hint::spin_loop();
            }
            occupied[lane].store(0, Ordering::Release);
        };
        for _ in 0..20 {
            parallel_for_work(4_000, 4_000_000, |lane, _| hold(lane));
        }
        // an inline job is lane 0 throughout
        parallel_for_work(10, 10, |lane, _| assert_eq!(lane, 0));
        // a job nested in a pool worker runs its lanes one after another
        // on that worker — still never two bodies in one lane at a time
        parallel_for_work(8, 8_000_000, |_, _| {
            let inner: Vec<AtomicUsize> = (0..8).map(|_| AtomicUsize::new(0)).collect();
            parallel_for_work(64, 64_000_000, |lane, _| {
                assert_eq!(inner[lane].swap(1, Ordering::AcqRel), 0);
                inner[lane].store(0, Ordering::Release);
            });
        });
        set_num_threads(0);
        assert_eq!(collisions.into_inner(), 0, "two bodies ran in one lane");
        let lanes_used = used
            .iter()
            .filter(|u| u.load(Ordering::Relaxed) > 0)
            .count();
        assert!(lanes_used > 1, "the hammer never left lane 0");
    }

    #[test]
    fn parallel_ranges_partition_the_domain() {
        let n = 100_001;
        let parts = parallel_ranges(n, |_, r| r);
        let mut all: Vec<usize> = parts.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all.len(), n);
        assert!(all.iter().enumerate().all(|(i, &v)| i == v));
    }

    #[test]
    fn parallel_ranges_empty() {
        let parts = parallel_ranges(0, |_, r| r.len());
        assert_eq!(parts.iter().sum::<usize>(), 0);
        assert!(parts.is_empty(), "len == 0 dispatches no workers");
    }

    #[test]
    fn parallel_ranges_single_item() {
        let _g = THREAD_OVERRIDE_LOCK.lock().unwrap();
        set_num_threads(8);
        let parts = parallel_ranges(1, |w, r| (w, r));
        set_num_threads(0);
        assert_eq!(parts, vec![(0, 0..1)], "one item → exactly one worker");
    }

    #[test]
    fn parallel_ranges_never_yield_empty_ranges() {
        let _g = THREAD_OVERRIDE_LOCK.lock().unwrap();
        set_num_threads(8);
        // len=10, threads=8 → per=2 → only 5 workers have work.
        let parts = parallel_ranges(10, |_, r| r);
        set_num_threads(0);
        assert_eq!(parts.len(), 5);
        assert!(parts.iter().all(|r| !r.is_empty()));
        let covered: Vec<usize> = parts.into_iter().flatten().collect();
        assert_eq!(covered, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_parts_consumes_each_part_once() {
        let hits: Vec<AtomicUsize> = (0..7).map(|_| AtomicUsize::new(0)).collect();
        let parts: Vec<usize> = (0..7).collect();
        parallel_parts(parts, |worker, part| {
            assert_eq!(worker, part, "part i goes to worker i");
            hits[part].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_parts_moves_mutable_borrows() {
        let mut data = vec![0u32; 100];
        let mut windows: Vec<(usize, &mut [u32])> = Vec::new();
        let mut rest: &mut [u32] = &mut data;
        for i in 0..4 {
            let (w, tail) = std::mem::take(&mut rest).split_at_mut(25);
            rest = tail;
            windows.push((i, w));
        }
        parallel_parts(windows, |_, (i, w)| {
            for x in w.iter_mut() {
                *x = i as u32 + 1;
            }
        });
        for (i, chunk) in data.chunks(25).enumerate() {
            assert!(chunk.iter().all(|&x| x == i as u32 + 1));
        }
    }

    #[test]
    fn parallel_parts_empty_and_single() {
        parallel_parts(Vec::<u32>::new(), |_, _| panic!("no parts, no calls"));
        let seen = AtomicUsize::new(0);
        parallel_parts(vec![41u32], |w, p| {
            assert_eq!((w, p), (0, 41));
            seen.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(seen.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn fixed_blocks_are_thread_count_independent() {
        let _g = THREAD_OVERRIDE_LOCK.lock().unwrap();
        let run = || parallel_map_fixed_blocks(1000, 64, |b, r| (b, r.start, r.end));
        set_num_threads(1);
        let serial = run();
        set_num_threads(7);
        let par = run();
        set_num_threads(0);
        assert_eq!(serial, par);
        assert_eq!(serial.len(), 16);
        assert_eq!(serial[0], (0, 0, 64));
        assert_eq!(serial[15], (15, 960, 1000));
    }

    #[test]
    fn fixed_blocks_empty_input() {
        let out = parallel_map_fixed_blocks(0, 64, |b, _| b);
        assert!(out.is_empty());
    }

    #[test]
    fn chunk_size_has_floor() {
        let plain = |len: usize| len as u64 * DEFAULT_ITEM_WORK;
        assert_eq!(chunk_size(10, plain(10), 4), 10);
        assert!(chunk_size(1_000_000, plain(1_000_000), 8) >= 64);
        assert_eq!(chunk_size(0, 0, 4), 1);
        // hub rows are handed out one at a time, leaf rows in bulk
        assert_eq!(chunk_size(2, 1_000_000, 2), 1);
        assert_eq!(chunk_size(1_000_000, 1_000_000, 2), 1_000_000 / 16);
        assert_eq!(chunk_size(100_000, 100_000, 2), INLINE_WORK as usize);
    }

    #[test]
    fn inline_decision_follows_work_not_item_count() {
        let _g = THREAD_OVERRIDE_LOCK.lock().unwrap();
        set_num_threads(2);
        // Pool counters are process-global and other tests dispatch
        // concurrently, so the deltas are lower bounds on their own; what
        // pins the decision is which worker ids the body observes.
        let workers_seen = |len: usize, work: u64| {
            let seen = [AtomicUsize::new(0), AtomicUsize::new(0)];
            let before = crate::pool_stats();
            dispatch(len, work, |w, _| {
                seen[w].fetch_add(1, Ordering::Relaxed);
                // keep worker 0 from draining both chunks before worker 1
                // wakes: each item waits until the other worker showed up
                if work > INLINE_WORK {
                    while seen[1 - w].load(Ordering::Relaxed) == 0 {
                        std::hint::spin_loop();
                    }
                }
            });
            let after = crate::pool_stats();
            (
                [
                    seen[0].load(Ordering::Relaxed),
                    seen[1].load(Ordering::Relaxed),
                ],
                after.jobs_inline - before.jobs_inline,
                (after.jobs_persistent + after.jobs_spawn)
                    - (before.jobs_persistent + before.jobs_spawn),
            )
        };
        // 2 hub rows: dispatched, one row per worker
        let (seen, _, dispatched) = workers_seen(2, 1_000_000);
        assert_eq!(seen, [1, 1], "two heavy items must be split");
        assert!(dispatched >= 1, "a heavy 2-item job must reach the pool");
        // 65 leaf rows: inline on the caller, whatever the item count
        let (seen, inline, _) = workers_seen(65, 65);
        assert_eq!(seen, [65, 0], "trivial items must stay on the caller");
        assert!(inline >= 1, "a trivial 65-item job must be counted inline");
        set_num_threads(0);
    }
}
