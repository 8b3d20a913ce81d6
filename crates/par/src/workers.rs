//! The persistent worker pool behind [`crate::parallel_for`].
//!
//! Before this module existed, every parallel loop spawned and joined fresh
//! scoped OS threads — dozens of times per simulated iteration across the
//! compute, gather, bitmap and scan paths. Thread creation costs tens of
//! microseconds, which dominates small "kernels" exactly the way real GPU
//! launch overhead dominates small grids. The pool removes that overhead:
//!
//! * workers are spawned **lazily, once**, the first time a job needs them,
//!   and grow on demand when a later job asks for more;
//! * idle workers **spin briefly, then park**. The bounded spin catches
//!   back-to-back dispatches (the common case inside an iteration) without
//!   a futex round-trip; only a genuinely idle pool pays the park/wake
//!   cost. The submitter waits for completion the same way: spin first,
//!   sleep after;
//! * a job **wakes only its participants** (each worker parks on its own
//!   thread token): a 2-way job in a process whose pool once grew to 8
//!   leaves the other six workers asleep instead of waking them to find
//!   out they have nothing to do;
//! * the **submitting thread is worker 0** — it runs its share of the job
//!   in place instead of parking, so a `threads`-way job wakes only
//!   `threads - 1` pool workers;
//! * job submission is serialized by a submit lock. If a second thread
//!   submits while the pool is busy (`try_lock` fails) it falls back to the
//!   scoped-spawn path, so concurrent submitters never deadlock;
//! * a pool worker that itself calls a parallel primitive (re-entrancy)
//!   runs the nested job serially inline — nested jobs can never wait on
//!   workers that are busy running their parent.
//!
//! # Dispatch modes
//!
//! [`DispatchMode::Persistent`] is the default. The pre-pool behaviour is
//! kept as [`DispatchMode::Spawn`] for A/B measurement (CI runs the par and
//! algos suites under it); the `ASCETIC_POOL` environment variable
//! (`spawn` | `persistent`) selects the initial mode.
//! The mode is read at each job boundary, never mid-job.
//!
//! # The one unsafe block
//!
//! Handing a borrowed closure to `'static` worker threads requires erasing
//! its lifetime (`Job` stores a raw pointer plus a monomorphized
//! trampoline). This is sound because the submitting thread **always**
//! blocks until every participating worker has finished the job — including
//! when the closure panics on either side — so the closure strictly
//! outlives every dereference. Everything else in the crate is safe Rust.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// How parallel jobs reach their worker threads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DispatchMode {
    /// Spawn and join fresh scoped threads per job (the pre-pool baseline,
    /// kept for A/B measurement).
    Spawn,
    /// Dispatch to the lazily-initialized persistent pool (default).
    Persistent,
}

/// 0 = unset (read `ASCETIC_POOL` on first use), 1 = spawn, 2 = persistent.
static MODE: AtomicUsize = AtomicUsize::new(0);

/// Select the dispatch mode for subsequent jobs (applies at the next job
/// boundary; jobs already in flight are unaffected).
pub fn set_dispatch_mode(mode: DispatchMode) {
    let v = match mode {
        DispatchMode::Spawn => 1,
        DispatchMode::Persistent => 2,
    };
    MODE.store(v, Ordering::Relaxed);
}

/// The dispatch mode new jobs will use right now.
pub fn dispatch_mode() -> DispatchMode {
    match MODE.load(Ordering::Relaxed) {
        1 => DispatchMode::Spawn,
        2 => DispatchMode::Persistent,
        _ => {
            let from_env = match std::env::var("ASCETIC_POOL").as_deref() {
                Ok("spawn") => DispatchMode::Spawn,
                _ => DispatchMode::Persistent,
            };
            set_dispatch_mode(from_env);
            from_env
        }
    }
}

// ---------------------------------------------------------------------------
// Pool statistics (observability; see `pool_stats`).
// ---------------------------------------------------------------------------

/// Buckets in the job wall-time histogram — matches the `ascetic-obs`
/// log2-histogram layout (bucket 0 holds zeros, bucket `i ≥ 1` holds
/// `[2^(i-1), 2^i - 1]`, bucket 64 saturates).
pub const WALL_BUCKETS: usize = 65;

static WORKERS_SPAWNED: AtomicU64 = AtomicU64::new(0);
static JOBS_PERSISTENT: AtomicU64 = AtomicU64::new(0);
static JOBS_SPAWN: AtomicU64 = AtomicU64::new(0);
static JOBS_INLINE: AtomicU64 = AtomicU64::new(0);
/// Incremented by `parallel_for_with` once per chunk grabbed off the shared
/// cursor (the dynamic load-balancing "steal" count).
pub(crate) static CHUNKS_SERVED: AtomicU64 = AtomicU64::new(0);
static JOB_WALL_COUNT: AtomicU64 = AtomicU64::new(0);
static JOB_WALL_SUM_NS: AtomicU64 = AtomicU64::new(0);
#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static JOB_WALL_NS: [AtomicU64; WALL_BUCKETS] = [ZERO; WALL_BUCKETS];

pub(crate) fn note_inline_job() {
    JOBS_INLINE.fetch_add(1, Ordering::Relaxed);
}

fn observe_job_wall(ns: u64) {
    JOB_WALL_COUNT.fetch_add(1, Ordering::Relaxed);
    JOB_WALL_SUM_NS.fetch_add(ns, Ordering::Relaxed);
    let bucket = if ns == 0 {
        0
    } else {
        64 - ns.leading_zeros() as usize
    };
    JOB_WALL_NS[bucket].fetch_add(1, Ordering::Relaxed);
}

/// A point-in-time snapshot of the pool's global counters.
///
/// Everything here is **wall-clock derived and host-dependent** — it must
/// never feed the deterministic `RunReport` metrics, only side-channel
/// telemetry (`--pool-metrics`, the `benchmark/` harness's `par.*` layer).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PoolStats {
    /// Persistent workers currently alive (gauge; excludes submitters).
    pub workers: u64,
    /// Jobs dispatched through the persistent pool.
    pub jobs_persistent: u64,
    /// Jobs run on freshly spawned scoped threads (Spawn mode, or
    /// fallback when the pool was busy).
    pub jobs_spawn: u64,
    /// Jobs run serially inline (small loops, one-thread config, nested
    /// calls from inside a pool worker).
    pub jobs_inline: u64,
    /// Chunks handed out by the shared work-stealing cursor.
    pub chunks_served: u64,
    /// Samples in the job wall-time histogram (== parallel jobs timed).
    pub job_wall_count: u64,
    /// Sum of all timed job wall-times, ns.
    pub job_wall_sum_ns: u64,
    /// Log2-bucketed job wall-times, ns (layout of `ascetic-obs`).
    pub job_wall_ns_buckets: [u64; WALL_BUCKETS],
}

/// Snapshot the pool counters.
pub fn pool_stats() -> PoolStats {
    let mut buckets = [0u64; WALL_BUCKETS];
    for (b, a) in buckets.iter_mut().zip(JOB_WALL_NS.iter()) {
        *b = a.load(Ordering::Relaxed);
    }
    PoolStats {
        workers: WORKERS_SPAWNED.load(Ordering::Relaxed),
        jobs_persistent: JOBS_PERSISTENT.load(Ordering::Relaxed),
        jobs_spawn: JOBS_SPAWN.load(Ordering::Relaxed),
        jobs_inline: JOBS_INLINE.load(Ordering::Relaxed),
        chunks_served: CHUNKS_SERVED.load(Ordering::Relaxed),
        job_wall_count: JOB_WALL_COUNT.load(Ordering::Relaxed),
        job_wall_sum_ns: JOB_WALL_SUM_NS.load(Ordering::Relaxed),
        job_wall_ns_buckets: buckets,
    }
}

// ---------------------------------------------------------------------------
// The pool itself.
// ---------------------------------------------------------------------------

type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// A type-erased borrowed job closure: the pointer is the `&F` of the
/// submitter's stack frame, `call` its monomorphized trampoline.
#[derive(Clone, Copy)]
struct Job {
    func: *const (),
    call: unsafe fn(*const (), usize),
}

// SAFETY: the pointer is only dereferenced between job dispatch and the
// last participant's completion, and `run_persistent` does not return (or
// resume a panic) until every participant has completed — so the referent
// outlives every use. See the module docs.
#[allow(unsafe_code)]
unsafe impl Send for Job {}

#[allow(unsafe_code)]
unsafe fn call_erased<F: Fn(usize) + Sync>(f: *const (), worker: usize) {
    // SAFETY: see `Job` — `f` points at a live `F` for the whole job.
    unsafe { (*(f as *const F))(worker) }
}

#[derive(Default)]
struct State {
    job: Option<Job>,
    /// Pool workers participating in the current job (ids `1..=participants`
    /// run it; higher ids just re-park).
    participants: usize,
    /// First panic raised by a participant (re-raised by the submitter).
    panic: Option<PanicPayload>,
}

struct Shared {
    state: Mutex<State>,
    /// Bumped once per dispatched job (after `state` is written, still under
    /// the lock); workers spin on it lock-free, latching it to claim the job
    /// exactly once.
    seq: AtomicU64,
    /// Participants that have not finished the current job yet. Decremented
    /// with release ordering after the closure returns, so the submitter's
    /// acquire spin on `0` sees every side effect of the job.
    remaining: AtomicUsize,
    /// The submitter parks here (after its spin budget) waiting for
    /// `remaining == 0`.
    done: Condvar,
}

/// Spin iterations before yielding/parking, on both the worker (waiting
/// for work) and submitter (waiting for completion) sides — a few tens of
/// microseconds, enough to bridge the gap between the back-to-back small
/// jobs the gather/scan/bitmap paths dispatch within one iteration.
const SPIN_ITERS: u32 = 20_000;

/// `yield_now` rounds after the spin budget, before parking on the condvar.
/// On a single-CPU host a yield is what actually lets the peer thread run;
/// on multi-core it is a cheap last resort before the futex sleep.
const YIELD_ROUNDS: u32 = 64;

/// The spin budget for this host: busy-spinning is only useful when the
/// waiter and the thread it waits on can run simultaneously, so single-CPU
/// hosts get `0` and go straight to yielding.
fn spin_budget() -> u32 {
    static BUDGET: OnceLock<u32> = OnceLock::new();
    *BUDGET.get_or_init(|| match std::thread::available_parallelism() {
        Ok(n) if n.get() > 1 => SPIN_ITERS,
        _ => 0,
    })
}

/// Bounded wait for `ready()` without touching a condvar: spin (multi-core
/// only), then yield. Returns `true` if the condition was met in budget.
fn wait_briefly(ready: impl Fn() -> bool) -> bool {
    let budget = spin_budget();
    let mut spins = 0u32;
    while spins < budget {
        if ready() {
            return true;
        }
        spins += 1;
        std::hint::spin_loop();
    }
    let mut yields = 0u32;
    while yields < YIELD_ROUNDS {
        if ready() {
            return true;
        }
        yields += 1;
        std::thread::yield_now();
    }
    ready()
}

struct Pool {
    shared: Arc<Shared>,
    /// Held for the duration of a persistent job; the value is the handle
    /// of every worker spawned so far, by id − 1 (only the lock holder may
    /// spawn more). A dispatch unparks exactly its participants.
    submit: Mutex<Vec<std::thread::Thread>>,
}

static POOL: OnceLock<Pool> = OnceLock::new();

thread_local! {
    /// Set for the lifetime of a pool worker thread: nested parallel calls
    /// detect it and run serially inline.
    static IN_POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn in_pool_worker() -> bool {
    IN_POOL_WORKER.with(|f| f.get())
}

fn worker_loop(shared: Arc<Shared>, id: usize) {
    IN_POOL_WORKER.with(|f| f.set(true));
    // Latch the current sequence so a worker spawned after earlier jobs
    // completed does not mistake a stale (cleared) slot for work.
    let mut seen = {
        let st = shared.state.lock().unwrap();
        let seq = shared.seq.load(Ordering::Acquire);
        // A worker spawned *for* the in-flight job must still take it:
        // participants covers it only if the job is live.
        if st.job.is_some() && id <= st.participants {
            seq - 1
        } else {
            seq
        }
    };
    loop {
        // Lock-free bounded wait: back-to-back dispatches are caught here
        // without a futex round-trip. After it, park until a submitter
        // that wants this worker unparks it; the unpark token makes the
        // check-then-park race benign (an unpark that lands first turns
        // the park into a no-op), and spurious wake-ups just re-check.
        if !wait_briefly(|| shared.seq.load(Ordering::Acquire) != seen) {
            while shared.seq.load(Ordering::Acquire) == seen {
                std::thread::park();
            }
        }
        let job = {
            let st = shared.state.lock().unwrap();
            seen = shared.seq.load(Ordering::Acquire);
            if id <= st.participants {
                st.job
            } else {
                None
            }
        };
        let Some(job) = job else { continue };
        // SAFETY: see `Job`.
        #[allow(unsafe_code)]
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (job.call)(job.func, id) }));
        if let Err(p) = result {
            shared.state.lock().unwrap().panic.get_or_insert(p);
        }
        // Release pairs with the submitter's acquire spin; notify under the
        // lock so a submitter that chose to sleep cannot miss the wakeup.
        if shared.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _st = shared.state.lock().unwrap();
            shared.done.notify_all();
        }
    }
}

impl Pool {
    fn new() -> Pool {
        Pool {
            shared: Arc::new(Shared {
                state: Mutex::new(State::default()),
                seq: AtomicU64::new(0),
                remaining: AtomicUsize::new(0),
                done: Condvar::new(),
            }),
            submit: Mutex::new(Vec::new()),
        }
    }
}

/// Run `f` on the persistent pool: `f(0)` on the calling thread plus
/// `f(1) .. f(threads - 1)` on pool workers, concurrently. Returns `false`
/// without running anything when the pool is busy with another submitter
/// (the caller then falls back to scoped spawning).
fn run_persistent<F: Fn(usize) + Sync>(threads: usize, f: &F) -> bool {
    let pool = POOL.get_or_init(Pool::new);
    let Ok(mut workers) = pool.submit.try_lock() else {
        return false;
    };
    // Grow the pool to cover this job (workers are never torn down; the
    // gauge only rises).
    while workers.len() < threads - 1 {
        let shared = Arc::clone(&pool.shared);
        let id = workers.len() + 1;
        let handle = std::thread::Builder::new()
            .name(format!("ascetic-par-{id}"))
            .spawn(move || worker_loop(shared, id))
            .expect("failed to spawn pool worker");
        workers.push(handle.thread().clone());
        WORKERS_SPAWNED.fetch_add(1, Ordering::Relaxed);
    }
    {
        let mut st = pool.shared.state.lock().unwrap();
        st.job = Some(Job {
            func: f as *const F as *const (),
            call: call_erased::<F>,
        });
        st.participants = threads - 1;
        pool.shared.remaining.store(threads - 1, Ordering::Release);
        // seq moves last (still under the lock): a worker that observes the
        // new seq — spinning or unparked — sees the whole job.
        pool.shared.seq.fetch_add(1, Ordering::Release);
    }
    for worker in &workers[..threads - 1] {
        worker.unpark();
    }
    // The submitter is worker 0. Its own panic must not unwind past the
    // wait below — pool workers may still hold the erased pointer.
    let mine = catch_unwind(AssertUnwindSafe(|| f(0)));
    // Completion wait mirrors the workers' job wait: bounded spin/yield
    // (small jobs complete within it), then sleep on the `done` condvar.
    wait_briefly(|| pool.shared.remaining.load(Ordering::Acquire) == 0);
    let pool_panic = {
        let mut st = pool.shared.state.lock().unwrap();
        while pool.shared.remaining.load(Ordering::Acquire) > 0 {
            st = pool.shared.done.wait(st).unwrap();
        }
        st.job = None;
        st.panic.take()
    };
    drop(workers);
    if let Err(p) = mine {
        resume_unwind(p);
    }
    if let Some(p) = pool_panic {
        resume_unwind(p);
    }
    true
}

/// Spawn-and-join fallback (the pre-pool dispatch): fresh scoped threads
/// for workers `1..threads`, the caller running worker 0.
fn run_scoped<F: Fn(usize) + Sync>(threads: usize, f: &F) {
    std::thread::scope(|scope| {
        for w in 1..threads {
            scope.spawn(move || f(w));
        }
        f(0);
    });
}

/// Run `f(w)` exactly once for every `w in 0..threads`, concurrently when
/// possible. This is the dispatch primitive every parallel combinator in
/// [`crate::pool`] builds on.
pub(crate) fn run_on_workers<F: Fn(usize) + Sync>(threads: usize, f: F) {
    if threads <= 1 {
        note_inline_job();
        f(0);
        return;
    }
    if in_pool_worker() {
        // Nested parallelism inside a pool worker: run serially so the
        // nested job can never wait on workers busy running its parent.
        note_inline_job();
        for w in 0..threads {
            f(w);
        }
        return;
    }
    let start = Instant::now();
    match dispatch_mode() {
        DispatchMode::Spawn => {
            JOBS_SPAWN.fetch_add(1, Ordering::Relaxed);
            run_scoped(threads, &f);
        }
        DispatchMode::Persistent => {
            if run_persistent(threads, &f) {
                JOBS_PERSISTENT.fetch_add(1, Ordering::Relaxed);
            } else {
                JOBS_SPAWN.fetch_add(1, Ordering::Relaxed);
                run_scoped(threads, &f);
            }
        }
    }
    observe_job_wall(start.elapsed().as_nanos() as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    // Dispatch-mode mutations are process-global; serialize the tests that
    // flip them (shared with pool.rs via the same pattern).
    static MODE_LOCK: Mutex<()> = Mutex::new(());

    fn sum_on(threads: usize) -> u64 {
        let total = AtomicU64::new(0);
        run_on_workers(threads, |w| {
            total.fetch_add(w as u64 + 1, Ordering::Relaxed);
        });
        total.into_inner()
    }

    #[test]
    fn every_worker_runs_exactly_once() {
        let _g = MODE_LOCK.lock().unwrap();
        set_dispatch_mode(DispatchMode::Persistent);
        for threads in [2, 3, 8] {
            let hits: Vec<AtomicUsize> = (0..threads).map(|_| AtomicUsize::new(0)).collect();
            run_on_workers(threads, |w| {
                hits[w].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn modes_agree() {
        let _g = MODE_LOCK.lock().unwrap();
        set_dispatch_mode(DispatchMode::Spawn);
        let spawn = sum_on(4);
        set_dispatch_mode(DispatchMode::Persistent);
        let persistent = sum_on(4);
        assert_eq!(spawn, persistent);
        assert_eq!(spawn, 1 + 2 + 3 + 4);
    }

    #[test]
    fn pool_grows_on_demand_and_workers_persist() {
        let _g = MODE_LOCK.lock().unwrap();
        set_dispatch_mode(DispatchMode::Persistent);
        assert_eq!(sum_on(2), 3);
        let w2 = pool_stats().workers;
        assert!(w2 >= 1);
        assert_eq!(sum_on(6), 21);
        let w6 = pool_stats().workers;
        assert!(w6 >= 5, "pool must grow to cover the bigger job");
        assert_eq!(sum_on(6), 21);
        assert_eq!(pool_stats().workers, w6, "no respawn for a repeat job");
    }

    #[test]
    fn worker_panic_propagates_to_submitter() {
        let _g = MODE_LOCK.lock().unwrap();
        set_dispatch_mode(DispatchMode::Persistent);
        let r = catch_unwind(AssertUnwindSafe(|| {
            run_on_workers(4, |w| {
                if w == 2 {
                    panic!("boom from worker 2");
                }
            });
        }));
        assert!(r.is_err(), "worker panic must reach the submitter");
        // The pool must still be usable afterwards.
        assert_eq!(sum_on(4), 10);
    }

    #[test]
    fn submitter_panic_still_joins_workers() {
        let _g = MODE_LOCK.lock().unwrap();
        set_dispatch_mode(DispatchMode::Persistent);
        let others = AtomicU64::new(0);
        let r = catch_unwind(AssertUnwindSafe(|| {
            run_on_workers(4, |w| {
                if w == 0 {
                    panic!("boom from the submitter");
                }
                others.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(r.is_err());
        assert_eq!(others.into_inner(), 3, "pool workers finished their share");
        assert_eq!(sum_on(4), 10);
    }

    #[test]
    fn nested_jobs_run_inline() {
        let _g = MODE_LOCK.lock().unwrap();
        set_dispatch_mode(DispatchMode::Persistent);
        let total = AtomicU64::new(0);
        run_on_workers(4, |_| {
            // From a pool worker this nests; from the submitter it hits the
            // busy-pool fallback. Either way it must complete.
            run_on_workers(3, |w| {
                total.fetch_add(w as u64 + 1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.into_inner(), 4 * (1 + 2 + 3));
    }

    #[test]
    fn stats_count_jobs_and_wall_time() {
        let _g = MODE_LOCK.lock().unwrap();
        set_dispatch_mode(DispatchMode::Persistent);
        let before = pool_stats();
        sum_on(4);
        set_dispatch_mode(DispatchMode::Spawn);
        sum_on(4);
        let after = pool_stats();
        assert!(after.jobs_persistent > before.jobs_persistent);
        assert!(after.jobs_spawn > before.jobs_spawn);
        assert!(after.job_wall_count >= before.job_wall_count + 2);
        assert!(after.job_wall_sum_ns >= before.job_wall_sum_ns);
        let bucket_total: u64 = after.job_wall_ns_buckets.iter().sum();
        assert_eq!(bucket_total, after.job_wall_count);
        set_dispatch_mode(DispatchMode::Persistent);
    }

    #[test]
    fn concurrent_submitters_all_complete() {
        let _g = MODE_LOCK.lock().unwrap();
        set_dispatch_mode(DispatchMode::Persistent);
        let total = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let total = &total;
                s.spawn(move || {
                    for _ in 0..50 {
                        run_on_workers(3, |w| {
                            total.fetch_add(w as u64 + 1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(total.into_inner(), 4 * 50 * 6);
    }
}
