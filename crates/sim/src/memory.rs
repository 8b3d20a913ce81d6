//! Device-memory arena with a first-fit free-list allocator.
//!
//! Every byte a system claims to put "on the GPU" really lives in this
//! arena, and every transfer really copies into it — so memory-capacity
//! bugs (static region too large, on-demand buffer overflow, fragmentation)
//! fail loudly instead of being silently mismodeled. The arena is
//! word-addressed (`u32`) because all edge payloads in this workspace are
//! 4-byte aligned (target ids and weights).

/// A device allocation: offset and length in words.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DevPtr {
    /// Word offset into the arena.
    pub offset: usize,
    /// Length in words.
    pub len: usize,
}

impl DevPtr {
    /// Byte length of the allocation.
    pub fn len_bytes(&self) -> u64 {
        self.len as u64 * 4
    }

    /// A sub-range of this allocation (word offsets relative to it).
    pub fn slice(&self, start: usize, len: usize) -> DevPtr {
        assert!(start + len <= self.len, "slice out of allocation bounds");
        DevPtr {
            offset: self.offset + start,
            len,
        }
    }

    /// The allocation spanning this one and `next`, the block that starts
    /// where this one ends.
    pub fn join(&self, next: DevPtr) -> DevPtr {
        assert_eq!(self.offset + self.len, next.offset, "blocks not adjacent");
        DevPtr {
            offset: self.offset,
            len: self.len + next.len,
        }
    }
}

/// Error: the device is out of memory (or too fragmented).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutOfDeviceMemory {
    /// Words requested.
    pub requested: usize,
    /// Largest free block available.
    pub largest_free: usize,
}

impl std::fmt::Display for OutOfDeviceMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "out of device memory: requested {} words, largest free block {}",
            self.requested, self.largest_free
        )
    }
}

impl std::error::Error for OutOfDeviceMemory {}

/// A point-in-time, byte-denominated view of the device arena, cheap to
/// copy out to layers that must not hold a borrow of the allocator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaOccupancy {
    /// Total arena capacity in bytes.
    pub capacity_bytes: u64,
    /// Bytes currently allocated.
    pub used_bytes: u64,
    /// Bytes currently free (possibly fragmented).
    pub free_bytes: u64,
    /// Largest single free block in bytes — the real ceiling for the next
    /// contiguous allocation.
    pub largest_free_bytes: u64,
    /// Peak concurrent allocation over the arena's lifetime, in bytes.
    pub high_water_bytes: u64,
}

/// The device-memory arena.
pub struct DeviceMemory {
    data: Vec<u32>,
    /// Free blocks as (offset, len), kept sorted by offset and coalesced.
    free: Vec<(usize, usize)>,
    used_words: usize,
    high_water_words: usize,
}

impl DeviceMemory {
    /// An arena of `capacity_words` words (all free).
    pub fn new(capacity_words: usize) -> Self {
        DeviceMemory {
            data: vec![0; capacity_words],
            free: if capacity_words > 0 {
                vec![(0, capacity_words)]
            } else {
                vec![]
            },
            used_words: 0,
            high_water_words: 0,
        }
    }

    /// Capacity in words.
    pub fn capacity(&self) -> usize {
        self.data.len()
    }

    /// Currently allocated words.
    pub fn used(&self) -> usize {
        self.used_words
    }

    /// Currently free words (may be fragmented).
    pub fn available(&self) -> usize {
        self.capacity() - self.used()
    }

    /// Peak concurrently-allocated words over the arena's lifetime.
    pub fn high_water(&self) -> usize {
        self.high_water_words
    }

    /// Largest single free block, in words.
    pub fn largest_free_block(&self) -> usize {
        self.free.iter().map(|&(_, l)| l).max().unwrap_or(0)
    }

    /// A byte-denominated snapshot of arena occupancy, for admission
    /// control and reporting above the allocator (the serve layer sizes
    /// incoming jobs against `largest_free_bytes`, not just the total).
    pub fn occupancy(&self) -> ArenaOccupancy {
        ArenaOccupancy {
            capacity_bytes: self.capacity() as u64 * 4,
            used_bytes: self.used() as u64 * 4,
            free_bytes: self.available() as u64 * 4,
            largest_free_bytes: self.largest_free_block() as u64 * 4,
            high_water_bytes: self.high_water() as u64 * 4,
        }
    }

    /// Allocate `words` words (first fit). Zero-length allocations succeed
    /// and occupy nothing.
    pub fn alloc(&mut self, words: usize) -> Result<DevPtr, OutOfDeviceMemory> {
        if words == 0 {
            return Ok(DevPtr { offset: 0, len: 0 });
        }
        for i in 0..self.free.len() {
            let (off, len) = self.free[i];
            if len >= words {
                if len == words {
                    self.free.remove(i);
                } else {
                    self.free[i] = (off + words, len - words);
                }
                self.used_words += words;
                self.high_water_words = self.high_water_words.max(self.used_words);
                return Ok(DevPtr {
                    offset: off,
                    len: words,
                });
            }
        }
        Err(OutOfDeviceMemory {
            requested: words,
            largest_free: self.largest_free_block(),
        })
    }

    /// Free an allocation returned by [`DeviceMemory::alloc`]. Coalesces
    /// with neighbors. Freeing a zero-length pointer is a no-op.
    ///
    /// # Panics
    /// Panics (debug) if the block overlaps the free list — an indicator of
    /// a double free.
    pub fn free(&mut self, ptr: DevPtr) {
        if ptr.len == 0 {
            return;
        }
        debug_assert!(ptr.offset + ptr.len <= self.capacity());
        let idx = self.free.partition_point(|&(off, _)| off < ptr.offset);
        // check overlap with neighbors
        if idx > 0 {
            let (poff, plen) = self.free[idx - 1];
            assert!(
                poff + plen <= ptr.offset,
                "double free / overlap with previous block"
            );
        }
        if idx < self.free.len() {
            let (noff, _) = self.free[idx];
            assert!(
                ptr.offset + ptr.len <= noff,
                "double free / overlap with next block"
            );
        }
        self.free.insert(idx, (ptr.offset, ptr.len));
        self.used_words -= ptr.len;
        self.coalesce_around(idx);
    }

    fn coalesce_around(&mut self, idx: usize) {
        // try merge with next
        if idx + 1 < self.free.len() {
            let (off, len) = self.free[idx];
            let (noff, nlen) = self.free[idx + 1];
            if off + len == noff {
                self.free[idx] = (off, len + nlen);
                self.free.remove(idx + 1);
            }
        }
        // try merge with previous
        if idx > 0 {
            let (poff, plen) = self.free[idx - 1];
            let (off, len) = self.free[idx];
            if poff + plen == off {
                self.free[idx - 1] = (poff, plen + len);
                self.free.remove(idx);
            }
        }
    }

    /// Read-only view of an allocation's words.
    #[inline]
    pub fn words(&self, ptr: DevPtr) -> &[u32] {
        &self.data[ptr.offset..ptr.offset + ptr.len]
    }

    /// Mutable view of an allocation's words.
    #[inline]
    pub fn words_mut(&mut self, ptr: DevPtr) -> &mut [u32] {
        &mut self.data[ptr.offset..ptr.offset + ptr.len]
    }

    /// Copy `src` into the allocation (the data-plane half of an H2D
    /// transfer; the time accounting lives in [`crate::gpu::Gpu`]).
    ///
    /// # Panics
    /// Panics if `src` does not fit `ptr` exactly.
    pub fn write(&mut self, ptr: DevPtr, src: &[u32]) {
        assert_eq!(src.len(), ptr.len, "payload size must match allocation");
        self.data[ptr.offset..ptr.offset + ptr.len].copy_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_roundtrip() {
        let mut m = DeviceMemory::new(100);
        let a = m.alloc(40).unwrap();
        let b = m.alloc(60).unwrap();
        assert_eq!(m.used(), 100);
        assert_eq!(m.available(), 0);
        assert!(m.alloc(1).is_err());
        m.free(a);
        assert_eq!(m.available(), 40);
        m.free(b);
        assert_eq!(m.available(), 100);
        assert_eq!(m.largest_free_block(), 100, "blocks must coalesce");
    }

    #[test]
    fn first_fit_reuses_freed_block() {
        let mut m = DeviceMemory::new(100);
        let a = m.alloc(30).unwrap();
        let _b = m.alloc(30).unwrap();
        m.free(a);
        let c = m.alloc(20).unwrap();
        assert_eq!(c.offset, 0, "first fit should reuse the hole at 0");
    }

    #[test]
    fn coalesce_middle_block() {
        let mut m = DeviceMemory::new(90);
        let a = m.alloc(30).unwrap();
        let b = m.alloc(30).unwrap();
        let c = m.alloc(30).unwrap();
        m.free(a);
        m.free(c);
        assert_eq!(m.largest_free_block(), 30);
        m.free(b);
        assert_eq!(m.largest_free_block(), 90);
    }

    #[test]
    fn fragmentation_reported() {
        let mut m = DeviceMemory::new(100);
        let a = m.alloc(40).unwrap();
        let _b = m.alloc(20).unwrap();
        let c = m.alloc(40).unwrap();
        m.free(a);
        m.free(c);
        // 80 words free but split 40/40
        assert_eq!(m.available(), 80);
        let err = m.alloc(50).unwrap_err();
        assert_eq!(err.largest_free, 40);
        assert_eq!(err.requested, 50);
    }

    #[test]
    fn high_water_tracks_peak_not_current() {
        let mut m = DeviceMemory::new(100);
        let a = m.alloc(60).unwrap();
        assert_eq!(m.high_water(), 60);
        m.free(a);
        assert_eq!(m.high_water(), 60, "peak survives frees");
        let _b = m.alloc(30).unwrap();
        assert_eq!(m.high_water(), 60, "smaller re-alloc keeps peak");
        let _c = m.alloc(40).unwrap();
        assert_eq!(m.high_water(), 70);
    }

    #[test]
    fn zero_length_alloc() {
        let mut m = DeviceMemory::new(10);
        let z = m.alloc(0).unwrap();
        assert_eq!(z.len, 0);
        m.free(z);
        assert_eq!(m.used(), 0);
    }

    #[test]
    fn data_plane_roundtrip() {
        let mut m = DeviceMemory::new(16);
        let p = m.alloc(4).unwrap();
        m.write(p, &[1, 2, 3, 4]);
        assert_eq!(m.words(p), &[1, 2, 3, 4]);
        m.words_mut(p)[2] = 99;
        assert_eq!(m.words(p), &[1, 2, 99, 4]);
    }

    #[test]
    fn slice_within_allocation() {
        let mut m = DeviceMemory::new(16);
        let p = m.alloc(8).unwrap();
        m.write(p, &[0, 1, 2, 3, 4, 5, 6, 7]);
        let s = p.slice(2, 3);
        assert_eq!(m.words(s), &[2, 3, 4]);
        assert_eq!(s.len_bytes(), 12);
    }

    #[test]
    #[should_panic(expected = "out of allocation bounds")]
    fn slice_bounds_checked() {
        let p = DevPtr { offset: 0, len: 4 };
        p.slice(2, 3);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_detected() {
        let mut m = DeviceMemory::new(10);
        let a = m.alloc(5).unwrap();
        m.free(a);
        m.free(a);
    }

    #[test]
    fn empty_arena() {
        let mut m = DeviceMemory::new(0);
        assert_eq!(m.capacity(), 0);
        assert!(m.alloc(1).is_err());
    }
}
