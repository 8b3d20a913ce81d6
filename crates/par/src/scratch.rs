//! Per-thread scratch arenas: reusable buffers that survive across jobs.
//!
//! The hot paths of the simulated device repeatedly need short-lived
//! staging buffers — the on-demand gather serializes one adjacency list at
//! a time, the static region stages one chunk per fill/swap. Allocating
//! those on every call puts the allocator on the per-iteration critical
//! path. Because the worker pool threads are persistent (see
//! [`crate::workers`]), a thread-local pool of buffers amortizes those
//! allocations across batches *and* iterations: after warm-up, the steady
//! state performs zero staging allocations.
//!
//! Usage is take/put:
//!
//! ```
//! ascetic_par::with_scratch(|s| {
//!     let mut buf = s.take_u32();
//!     buf.extend_from_slice(&[1, 2, 3]);
//!     // ... use buf ...
//!     s.put_u32(buf); // returns the capacity to this thread's pool
//! });
//! ```
//!
//! A buffer that is never `put` back is simply dropped — the pool is an
//! optimization, not an obligation. Nested `with_scratch` calls get a
//! fresh (un-pooled) arena rather than deadlocking on the thread-local.

use std::cell::RefCell;

/// Buffers retained per type per thread; beyond this, `put_*` drops.
const MAX_POOLED: usize = 8;

/// A per-thread pool of reusable `Vec` buffers.
#[derive(Debug, Default)]
pub struct Scratch {
    u8s: Vec<Vec<u8>>,
    u32s: Vec<Vec<u32>>,
}

impl Scratch {
    /// A fresh, empty arena (thread-locals start here).
    pub fn new() -> Scratch {
        Scratch::default()
    }

    /// Take a cleared `Vec<u32>`, reusing a pooled buffer's capacity when
    /// one is available.
    pub fn take_u32(&mut self) -> Vec<u32> {
        self.u32s.pop().unwrap_or_default()
    }

    /// Return a `Vec<u32>` to the pool (cleared; capacity retained).
    pub fn put_u32(&mut self, mut buf: Vec<u32>) {
        if self.u32s.len() < MAX_POOLED && buf.capacity() > 0 {
            buf.clear();
            self.u32s.push(buf);
        }
    }

    /// Take a cleared `Vec<u8>`, reusing pooled capacity when available.
    /// Byte buffers back the streaming delta–varint encoder, which stages
    /// one transfer's compressed payload per call.
    pub fn take_u8(&mut self) -> Vec<u8> {
        self.u8s.pop().unwrap_or_default()
    }

    /// Return a `Vec<u8>` to the pool (cleared; capacity retained).
    pub fn put_u8(&mut self, mut buf: Vec<u8>) {
        if self.u8s.len() < MAX_POOLED && buf.capacity() > 0 {
            buf.clear();
            self.u8s.push(buf);
        }
    }

    /// Number of pooled `u32` buffers — for tests and telemetry.
    pub fn pooled(&self) -> usize {
        self.u32s.len()
    }

    /// Number of pooled `u8` buffers.
    pub fn pooled_u8(&self) -> usize {
        self.u8s.len()
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::new());
}

/// Run `f` with this thread's scratch arena.
///
/// On persistent pool workers and on long-lived caller threads the arena —
/// and therefore every pooled buffer capacity — survives across jobs and
/// iterations. A nested call (from inside `f`) receives a temporary empty
/// arena instead of panicking on the re-borrow.
pub fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|s| match s.try_borrow_mut() {
        Ok(mut arena) => f(&mut arena),
        Err(_) => f(&mut Scratch::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_put_reuses_capacity() {
        let mut s = Scratch::new();
        let mut b = s.take_u32();
        b.extend_from_slice(&[1, 2, 3, 4]);
        let cap = b.capacity();
        assert!(cap >= 4);
        s.put_u32(b);
        let b2 = s.take_u32();
        assert!(b2.is_empty(), "pooled buffers come back cleared");
        assert_eq!(b2.capacity(), cap, "capacity is retained");
    }

    #[test]
    fn pool_is_bounded() {
        let mut s = Scratch::new();
        for _ in 0..(MAX_POOLED + 5) {
            s.put_u32(Vec::with_capacity(16));
        }
        assert_eq!(s.pooled(), MAX_POOLED);
    }

    #[test]
    fn empty_buffers_are_not_pooled() {
        let mut s = Scratch::new();
        s.put_u32(Vec::new());
        assert_eq!(s.pooled(), 0, "no point pooling zero capacity");
    }

    #[test]
    fn thread_local_arena_persists_across_calls() {
        // Run on a dedicated thread so other tests' scratch use on this
        // thread cannot interfere with the capacity check.
        std::thread::spawn(|| {
            let cap = with_scratch(|s| {
                let mut b = s.take_u32();
                b.resize(1000, 7);
                let cap = b.capacity();
                s.put_u32(b);
                cap
            });
            let cap2 = with_scratch(|s| {
                let b = s.take_u32();
                let c = b.capacity();
                s.put_u32(b);
                c
            });
            assert_eq!(cap, cap2, "second call sees the first call's buffer");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn u8_pool_reuses_capacity_and_is_bounded() {
        let mut s = Scratch::new();
        let mut b = s.take_u8();
        b.extend_from_slice(&[1, 2, 3]);
        let cap = b.capacity();
        s.put_u8(b);
        let b2 = s.take_u8();
        assert!(b2.is_empty());
        assert_eq!(b2.capacity(), cap);
        s.put_u8(b2);
        for _ in 0..(MAX_POOLED + 5) {
            s.put_u8(Vec::with_capacity(8));
        }
        assert_eq!(s.pooled_u8(), MAX_POOLED);
    }

    #[test]
    fn nested_with_scratch_does_not_panic() {
        with_scratch(|outer| {
            let b = outer.take_u32();
            with_scratch(|inner| {
                let ib = inner.take_u32();
                inner.put_u32(ib);
            });
            outer.put_u32(b);
        });
    }
}
