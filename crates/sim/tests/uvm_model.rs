//! Property test: the O(1) intrusive-LRU UVM implementation must behave
//! exactly like an obviously-correct naive model (Vec-backed LRU) on any
//! access sequence.

use proptest::prelude::*;

use ascetic_sim::{Uvm, UvmModel};

/// Naive reference: a Vec ordered most-recent-first.
struct NaiveLru {
    cap: usize,
    pages: Vec<u64>,
    hits: u64,
    faults: u64,
    evictions: u64,
}

impl NaiveLru {
    fn new(cap: usize) -> Self {
        NaiveLru {
            cap,
            pages: Vec::new(),
            hits: 0,
            faults: 0,
            evictions: 0,
        }
    }

    fn touch(&mut self, p: u64) {
        if let Some(i) = self.pages.iter().position(|&x| x == p) {
            self.pages.remove(i);
            self.pages.insert(0, p);
            self.hits += 1;
            return;
        }
        self.faults += 1;
        if self.pages.len() >= self.cap {
            self.pages.pop();
            self.evictions += 1;
        }
        self.pages.insert(0, p);
    }
}

fn model(page_bytes: u64) -> UvmModel {
    UvmModel {
        page_bytes,
        fault_ns: 1_000,
        bandwidth_bps: 1_000_000_000,
    }
}

proptest! {
    #[test]
    fn lru_matches_naive_model(
        cap in 1usize..32,
        accesses in proptest::collection::vec(0u64..64, 1..2000),
    ) {
        let mut uvm = Uvm::new(model(1024), cap as u64 * 1024);
        let mut naive = NaiveLru::new(cap);
        for &p in &accesses {
            uvm.touch(p);
            naive.touch(p);
        }
        prop_assert_eq!(uvm.stats.hits, naive.hits);
        prop_assert_eq!(uvm.stats.faults, naive.faults);
        prop_assert_eq!(uvm.stats.evictions, naive.evictions);
        prop_assert_eq!(uvm.resident_pages(), naive.pages.len());
        for &p in &naive.pages {
            prop_assert!(uvm.is_resident(p), "page {} must be resident", p);
        }
    }

    #[test]
    fn migrated_bytes_equal_faults(
        cap in 1usize..16,
        accesses in proptest::collection::vec(0u64..48, 1..500),
    ) {
        let mut uvm = Uvm::new(model(512), cap as u64 * 512);
        for &p in &accesses {
            uvm.touch(p);
        }
        prop_assert_eq!(uvm.stats.migrated_bytes, uvm.stats.faults * 512);
    }
}
