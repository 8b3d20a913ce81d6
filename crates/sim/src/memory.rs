//! Device-memory arena: a bump allocator.
//!
//! Every byte a system claims to put "on the GPU" really lives in this
//! arena, and every transfer really copies into it — so memory-capacity
//! bugs (static region too large, on-demand buffer overflow) fail loudly
//! instead of being silently mismodeled. The arena is word-addressed
//! (`u32`) because all edge payloads in this workspace are 4-byte aligned
//! (target ids and weights).
//!
//! Device memory is laid out once (§3.1–§3.3 of the paper: vertex arrays,
//! the static region, the on-demand buffers) and nothing is ever freed: a
//! torn-down session drops its whole [`crate::Gpu`], and Eq (3) grows the
//! on-demand region by joining the next allocation onto it
//! ([`DevPtr::join`]). So `alloc` hands out the next `words` words, and the
//! arena's use is its high water.

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

/// Error: the device is out of memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutOfDeviceMemory {
    /// Words requested.
    pub requested: usize,
    /// Words left: the one free block, the arena's tail.
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
/// copy out to layers that must not hold a borrow of the allocator (serve
/// reports it per device).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaOccupancy {
    /// Total arena capacity in bytes.
    pub capacity_bytes: u64,
    /// Bytes currently allocated.
    pub used_bytes: u64,
    /// Peak concurrent allocation over the arena's lifetime, in bytes.
    pub high_water_bytes: u64,
}

/// The device-memory arena.
pub struct DeviceMemory {
    data: Vec<u32>,
    /// Words handed out so far: the next allocation starts here.
    used_words: usize,
}

impl DeviceMemory {
    /// An arena of `capacity_words` words (all free).
    pub fn new(capacity_words: usize) -> Self {
        DeviceMemory {
            data: vec![0; capacity_words],
            used_words: 0,
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

    /// Currently free words, all in one block.
    pub fn available(&self) -> usize {
        self.capacity() - self.used()
    }

    /// Peak concurrently-allocated words over the arena's lifetime — the
    /// allocated words, since nothing is freed.
    pub fn high_water(&self) -> usize {
        self.used_words
    }

    /// A byte-denominated snapshot of arena occupancy.
    pub fn occupancy(&self) -> ArenaOccupancy {
        ArenaOccupancy {
            capacity_bytes: self.capacity() as u64 * 4,
            used_bytes: self.used() as u64 * 4,
            high_water_bytes: self.high_water() as u64 * 4,
        }
    }

    /// Allocate the next `words` words. Zero-length allocations succeed
    /// and occupy nothing.
    pub fn alloc(&mut self, words: usize) -> Result<DevPtr, OutOfDeviceMemory> {
        if words == 0 {
            return Ok(DevPtr { offset: 0, len: 0 });
        }
        if words > self.available() {
            return Err(OutOfDeviceMemory {
                requested: words,
                largest_free: self.available(),
            });
        }
        let offset = self.used_words;
        self.used_words += words;
        Ok(DevPtr { offset, len: words })
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_handed_out_back_to_back() {
        let mut m = DeviceMemory::new(100);
        let a = m.alloc(40).unwrap();
        let b = m.alloc(60).unwrap();
        assert_eq!((a.offset, b.offset), (0, 40));
        assert_eq!(
            a.join(b),
            DevPtr {
                offset: 0,
                len: 100
            }
        );
        assert_eq!(m.used(), 100);
        assert_eq!(m.available(), 0);
        assert_eq!(m.high_water(), 100);
        assert!(m.alloc(1).is_err());
    }

    #[test]
    fn out_of_memory_reports_the_tail() {
        let mut m = DeviceMemory::new(100);
        m.alloc(60).unwrap();
        let err = m.alloc(50).unwrap_err();
        assert_eq!((err.requested, err.largest_free), (50, 40));
        assert_eq!(
            err.to_string(),
            "out of device memory: requested 50 words, largest free block 40"
        );
        assert_eq!(m.used(), 60, "a failed allocation takes nothing");
        let occ = m.occupancy();
        assert_eq!(
            (occ.capacity_bytes, occ.used_bytes, occ.high_water_bytes),
            (400, 240, 240)
        );
    }

    #[test]
    fn zero_length_alloc() {
        let mut m = DeviceMemory::new(10);
        let z = m.alloc(0).unwrap();
        assert_eq!(z.len, 0);
        assert_eq!(m.used(), 0);
    }

    #[test]
    fn data_plane_roundtrip() {
        let mut m = DeviceMemory::new(16);
        let p = m.alloc(4).unwrap();
        m.words_mut(p).copy_from_slice(&[1, 2, 3, 4]);
        assert_eq!(m.words(p), &[1, 2, 3, 4]);
        m.words_mut(p)[2] = 99;
        assert_eq!(m.words(p), &[1, 2, 99, 4]);
    }

    #[test]
    fn slice_within_allocation() {
        let mut m = DeviceMemory::new(16);
        let p = m.alloc(8).unwrap();
        m.words_mut(p).copy_from_slice(&[0, 1, 2, 3, 4, 5, 6, 7]);
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
    fn empty_arena() {
        let mut m = DeviceMemory::new(0);
        assert_eq!(m.capacity(), 0);
        assert!(m.alloc(1).is_err());
    }
}
