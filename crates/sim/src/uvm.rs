//! Unified Virtual Memory emulation.
//!
//! The UVM baseline (paper §4.4) lets the GPU touch host-resident edge data
//! directly: the first touch of a non-resident page stalls on a page fault,
//! the driver migrates the page over PCIe, and an LRU policy evicts pages
//! when the device fills. This module reproduces that mechanism:
//!
//! * pages of configurable size (Pascal default 64 KiB),
//! * a device-capacity-bounded resident set with **O(1) LRU** (hash map +
//!   intrusive doubly-linked list),
//! * fault / hit / eviction / migrated-byte accounting.
//!
//! The paper's two UVM pathologies fall out naturally: sparse accesses
//! drag in whole pages (amplification), and reuse distances larger than
//! capacity make LRU evict every page right before it would be reused.

use std::collections::HashMap;

use crate::device::UvmModel;

/// Page identifier (byte address / page size).
pub type PageId = u64;

/// UVM access/migration counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UvmStats {
    /// Accesses that found the page resident.
    pub hits: u64,
    /// Page faults (demand migrations).
    pub faults: u64,
    /// Pages evicted to make room.
    pub evictions: u64,
    /// Bytes migrated host→device by faults.
    pub migrated_bytes: u64,
}

/// Intrusive LRU list node.
#[derive(Clone, Copy, Debug)]
struct Node {
    page: PageId,
    prev: usize,
    next: usize,
}

const NIL: usize = usize::MAX;

/// O(1) LRU set of pages with bounded capacity.
struct LruSet {
    map: HashMap<PageId, usize>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
}

impl LruSet {
    fn new() -> Self {
        LruSet {
            map: HashMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn contains(&self, page: PageId) -> bool {
        self.map.contains_key(&page)
    }

    fn detach(&mut self, idx: usize) {
        let Node { prev, next, .. } = self.nodes[idx];
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Mark `page` most-recently-used; returns false if absent.
    fn touch(&mut self, page: PageId) -> bool {
        match self.map.get(&page).copied() {
            None => false,
            Some(idx) => {
                if self.head != idx {
                    self.detach(idx);
                    self.push_front(idx);
                }
                true
            }
        }
    }

    /// Insert `page` as most-recently-used (must not be present).
    fn insert(&mut self, page: PageId) {
        debug_assert!(!self.contains(page));
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i] = Node {
                    page,
                    prev: NIL,
                    next: NIL,
                };
                i
            }
            None => {
                self.nodes.push(Node {
                    page,
                    prev: NIL,
                    next: NIL,
                });
                self.nodes.len() - 1
            }
        };
        self.map.insert(page, idx);
        self.push_front(idx);
    }

    /// Remove and return the least-recently-used page.
    fn pop_lru(&mut self) -> Option<PageId> {
        if self.tail == NIL {
            return None;
        }
        let idx = self.tail;
        let page = self.nodes[idx].page;
        self.detach(idx);
        self.map.remove(&page);
        self.free.push(idx);
        Some(page)
    }
}

/// The UVM space for one host allocation (the edge array).
pub struct Uvm {
    model: UvmModel,
    capacity_pages: usize,
    lru: LruSet,
    /// Counters.
    pub stats: UvmStats,
}

impl Uvm {
    /// UVM over a device with `capacity_bytes` available for migrated pages.
    pub fn new(model: UvmModel, capacity_bytes: u64) -> Self {
        let capacity_pages = (capacity_bytes / model.page_bytes).max(1) as usize;
        Uvm {
            model,
            capacity_pages,
            lru: LruSet::new(),
            stats: UvmStats::default(),
        }
    }

    /// Page size in bytes.
    pub fn page_bytes(&self) -> u64 {
        self.model.page_bytes
    }

    /// Resident-set capacity in pages.
    pub fn capacity_pages(&self) -> usize {
        self.capacity_pages
    }

    /// Number of currently resident pages.
    pub fn resident_pages(&self) -> usize {
        self.lru.len()
    }

    /// Whether `page` is resident (does not touch recency).
    pub fn is_resident(&self, page: PageId) -> bool {
        self.lru.contains(page)
    }

    /// GPU touches `page`. On a hit, recency is refreshed and 0 ns is
    /// charged. On a fault the page is migrated (evicting LRU if full) and
    /// the fault-service time is returned.
    pub fn touch(&mut self, page: PageId) -> u64 {
        if self.lru.touch(page) {
            self.stats.hits += 1;
            return 0;
        }
        self.stats.faults += 1;
        self.stats.migrated_bytes += self.model.page_bytes;
        if self.lru.len() >= self.capacity_pages {
            self.lru.pop_lru();
            self.stats.evictions += 1;
        }
        self.lru.insert(page);
        self.model.fault_in_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> UvmModel {
        UvmModel {
            page_bytes: 1024,
            fault_ns: 10_000,
            bandwidth_bps: 1_000_000_000,
        }
    }

    #[test]
    fn fault_then_hit() {
        let mut u = Uvm::new(model(), 10 * 1024);
        let t1 = u.touch(3);
        assert!(t1 > 0);
        assert_eq!(u.stats.faults, 1);
        let t2 = u.touch(3);
        assert_eq!(t2, 0);
        assert_eq!(u.stats.hits, 1);
        assert!(u.is_resident(3));
        assert_eq!(u.resident_pages(), 1);
    }

    #[test]
    fn capacity_evicts_lru() {
        let mut u = Uvm::new(model(), 3 * 1024); // 3 pages
        u.touch(0);
        u.touch(1);
        u.touch(2);
        u.touch(0); // refresh 0; LRU is now 1
        u.touch(3); // evicts 1
        assert!(u.is_resident(0));
        assert!(!u.is_resident(1));
        assert!(u.is_resident(2));
        assert!(u.is_resident(3));
        assert_eq!(u.stats.evictions, 1);
    }

    #[test]
    fn thrash_on_cyclic_scan_larger_than_capacity() {
        // The paper's core observation: a sequential scan with reuse
        // distance > capacity gets zero hits from LRU.
        let mut u = Uvm::new(model(), 4 * 1024); // 4 pages
        for _round in 0..3 {
            for p in 0..8 {
                u.touch(p);
            }
        }
        assert_eq!(
            u.stats.hits, 0,
            "LRU must thrash on cyclic oversubscribed scan"
        );
        assert_eq!(u.stats.faults, 24);
    }

    #[test]
    fn lru_set_reuses_freed_slots() {
        let mut u = Uvm::new(model(), 2 * 1024); // 2 pages
        for p in 0..100 {
            u.touch(p);
        }
        // internal nodes vec shouldn't grow unbounded: len == capacity + freed
        assert!(u.lru.nodes.len() <= 3, "nodes: {}", u.lru.nodes.len());
    }

    #[test]
    fn single_page_capacity() {
        let mut u = Uvm::new(model(), 100); // rounds up to 1 page
        assert_eq!(u.capacity_pages(), 1);
        u.touch(0);
        u.touch(1);
        assert_eq!(u.resident_pages(), 1);
        assert!(u.is_resident(1));
    }
}
