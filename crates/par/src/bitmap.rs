//! Plain and concurrent bitmaps with a summary level.
//!
//! The Ascetic dataflow (paper Figure 4) is bitmap algebra over vertices:
//!
//! ```text
//! StaticMap    = ActiveBitmap AND StaticBitmap      (compute in Static Region)
//! OndemandMap  = ActiveBitmap AND-NOT StaticBitmap  (fetch from CPU)
//! ```
//!
//! [`Bitmap`] is the single-owner variant used for per-iteration maps;
//! [`AtomicBitmap`] is the shared variant the "kernels" write next-iteration
//! frontiers into from many threads at once. Both store 64 bits per word.
//!
//! # The summary level
//!
//! Traversal frontiers are sparse — a few hundred set bits across 10⁵–10⁸
//! vertices — and a frontier loop scans its bitmaps several times per
//! iteration. So both types carry one **summary bit per block of 64
//! words** (4096 bits), with the invariant
//!
//! > if any word of block `b` is non-zero, summary bit `b` is set.
//!
//! The converse is not required (a marked block may have been cleared bit
//! by bit), so the summary is a conservative index, never a second source
//! of truth: every bulk operation — iteration, counting, the AND and
//! AND-NOT combinators, snapshots, clearing — visits only marked blocks
//! and skips the rest unread, which makes its cost proportional to the
//! populated part of the bitmap instead of |V|/64. Iteration order is
//! still ascending. A dense bitmap pays one extra word per 64.
//!
//! Who maintains it: [`Bitmap::set`] marks the block unconditionally;
//! [`AtomicBitmap::or_word`] (and `set`, through it) marks it on the word's
//! 0 → non-0 transition, which its `fetch_or` observes for free; combinators
//! derive the result's summary from their operands'; [`Bitmap::clear`]
//! leaves it alone; `clear_all` resets both levels.

use std::sync::atomic::{AtomicU64, Ordering};

const WORD_BITS: usize = 64;
/// Words covered by one summary bit.
const BLOCK_WORDS: usize = 64;

#[inline]
fn word_count(len: usize) -> usize {
    len.div_ceil(WORD_BITS)
}

/// Summary words needed to index `words` payload words.
#[inline]
fn summary_count(words: usize) -> usize {
    words.div_ceil(BLOCK_WORDS).div_ceil(WORD_BITS)
}

/// Mask selecting the valid bits of the final word of a bitmap of `len` bits.
#[inline]
fn tail_mask(len: usize) -> u64 {
    let rem = len % WORD_BITS;
    if rem == 0 {
        u64::MAX
    } else {
        (1u64 << rem) - 1
    }
}

/// The word range of block `b` in a bitmap of `words` payload words.
#[inline]
fn block_range(b: usize, words: usize) -> std::ops::Range<usize> {
    b * BLOCK_WORDS..((b + 1) * BLOCK_WORDS).min(words)
}

/// Indices of the blocks marked in `summary`, ascending.
fn marked_blocks(summary: impl Iterator<Item = u64>) -> impl Iterator<Item = usize> {
    summary
        .enumerate()
        .filter(|&(_, s)| s != 0)
        .flat_map(|(si, s)| BitIter { word: s }.map(move |b| si * WORD_BITS + b))
}

/// A fixed-length, single-owner bitmap.
///
/// ```
/// use ascetic_par::Bitmap;
/// let mut active = Bitmap::new(128);
/// active.set(3);
/// active.set(90);
/// let mut resident = Bitmap::new(128);
/// resident.set(3);
/// // the paper's Figure-4 split:
/// let static_map = active.and(&resident);
/// let ondemand_map = active.and_not(&resident);
/// assert_eq!(static_map.to_indices(), vec![3]);
/// assert_eq!(ondemand_map.to_indices(), vec![90]);
/// ```
#[derive(Clone, Default)]
pub struct Bitmap {
    words: Vec<u64>,
    /// One bit per [`BLOCK_WORDS`]-word block; see the module docs.
    summary: Vec<u64>,
    len: usize,
}

/// Equality is over the bits: the summary is a conservative index and two
/// equal bitmaps may have reached different (both valid) summaries.
impl PartialEq for Bitmap {
    fn eq(&self, other: &Bitmap) -> bool {
        self.len == other.len && self.words == other.words
    }
}

impl Eq for Bitmap {}

impl std::fmt::Debug for Bitmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bitmap(len={}, ones={})", self.len, self.count_ones())
    }
}

impl Bitmap {
    /// An all-zero bitmap of `len` bits.
    pub fn new(len: usize) -> Self {
        let words = word_count(len);
        Bitmap {
            words: vec![0; words],
            summary: vec![0; summary_count(words)],
            len,
        }
    }

    /// An all-one bitmap of `len` bits.
    pub fn ones(len: usize) -> Self {
        let mut b = Bitmap::new(len);
        b.set_all();
        b
    }

    /// Set every bit to one.
    pub fn set_all(&mut self) {
        self.words.fill(u64::MAX);
        if let Some(last) = self.words.last_mut() {
            *last &= tail_mask(self.len);
        }
        self.summary.fill(u64::MAX);
        if let Some(last) = self.summary.last_mut() {
            *last &= tail_mask(self.words.len().div_ceil(BLOCK_WORDS));
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap holds zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Test bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / WORD_BITS] >> (i % WORD_BITS) & 1 == 1
    }

    /// Set bit `i` to one.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        let wi = i / WORD_BITS;
        self.words[wi] |= 1u64 << (i % WORD_BITS);
        self.mark(wi);
    }

    /// Mark the block holding word `wi` in the summary.
    #[inline]
    fn mark(&mut self, wi: usize) {
        let b = wi / BLOCK_WORDS;
        self.summary[b / WORD_BITS] |= 1u64 << (b % WORD_BITS);
    }

    /// Clear bit `i`. The block stays marked (the summary is conservative).
    #[inline]
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / WORD_BITS] &= !(1u64 << (i % WORD_BITS));
    }

    /// Set bit `i` to `v`.
    #[inline]
    pub fn assign(&mut self, i: usize, v: bool) {
        if v {
            self.set(i)
        } else {
            self.clear(i)
        }
    }

    /// Zero every bit (touches only marked blocks).
    pub fn clear_all(&mut self) {
        let n = self.words.len();
        for b in marked_blocks(self.summary.iter().copied()) {
            self.words[block_range(b, n)].fill(0);
        }
        self.summary.fill(0);
    }

    /// The word slices of the marked blocks, ascending, each with the index
    /// of its first word.
    fn blocks(&self) -> impl Iterator<Item = (usize, &[u64])> + '_ {
        let n = self.words.len();
        marked_blocks(self.summary.iter().copied()).map(move |b| {
            let r = block_range(b, n);
            (r.start, &self.words[r])
        })
    }

    /// The non-zero words as `(word index, word)`, ascending — the
    /// primitive behind every sparse scan (bit `j` of word `i` is vertex
    /// `64·i + j`).
    pub fn nonzero_words(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.blocks().flat_map(|(base, ws)| {
            ws.iter()
                .enumerate()
                .filter(|&(_, &w)| w != 0)
                .map(move |(i, &w)| (base + i, w))
        })
    }

    /// Population count.
    pub fn count_ones(&self) -> usize {
        self.blocks()
            .map(|(_, ws)| ws.iter().map(|w| w.count_ones() as usize).sum::<usize>())
            .sum()
    }

    /// True when no bit is set.
    pub fn is_all_zero(&self) -> bool {
        self.blocks().all(|(_, ws)| ws.iter().all(|&w| w == 0))
    }

    /// Combine two equal-length bitmaps word by word over the blocks
    /// marked in `blocks` (a summary-shaped mask that must cover every
    /// block where `f` can produce a non-zero word).
    fn zip_with(
        &self,
        other: &Bitmap,
        blocks: impl Iterator<Item = u64>,
        f: impl Fn(u64, u64) -> u64,
    ) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        let mut out = Bitmap::new(self.len);
        let n = self.words.len();
        for b in marked_blocks(blocks) {
            let r = block_range(b, n);
            let mut any = 0u64;
            for i in r {
                let w = f(self.words[i], other.words[i]);
                out.words[i] = w;
                any |= w;
            }
            if any != 0 {
                out.summary[b / WORD_BITS] |= 1u64 << (b % WORD_BITS);
            }
        }
        out
    }

    /// `self ∧ other`, element-wise. Panics on length mismatch.
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        let both = self.summary.iter().zip(&other.summary).map(|(a, b)| a & b);
        self.zip_with(other, both, |a, b| a & b)
    }

    /// `self ∧ ¬other`: bits set here and not in `other`.
    ///
    /// This is the paper's `OndemandMap` derivation (Active XOR
    /// (Active AND Static) ≡ Active AND-NOT Static).
    pub fn and_not(&self, other: &Bitmap) -> Bitmap {
        self.zip_with(other, self.summary.iter().copied(), |a, b| a & !b)
    }

    /// Iterate over the indices of set bits, ascending. Unmarked blocks
    /// and zero words are skipped before any per-bit work, so the cost is
    /// proportional to the populated blocks, not to the bitmap's length.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.nonzero_words().flat_map(|(wi, w)| {
            let base = wi * WORD_BITS;
            BitIter { word: w }.map(move |b| base + b)
        })
    }

    /// Keep only the set bits for which `keep` returns `true`.
    pub fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        let n = self.words.len();
        for b in marked_blocks(self.summary.iter().copied()) {
            for wi in block_range(b, n) {
                let w = self.words[wi];
                let mut kept = w;
                for bit in (BitIter { word: w }) {
                    if !keep(wi * WORD_BITS + bit) {
                        kept &= !(1u64 << bit);
                    }
                }
                self.words[wi] = kept;
            }
        }
    }

    /// Replace `out`'s contents with the set-bit indices, ascending —
    /// [`Bitmap::to_indices`] into a recycled buffer.
    pub fn collect_indices(&self, out: &mut Vec<u32>) {
        out.clear();
        for (base, ws) in self.blocks() {
            for (i, &word) in ws.iter().enumerate() {
                let first = ((base + i) * WORD_BITS) as u32;
                let mut w = word;
                while w != 0 {
                    out.push(first + w.trailing_zeros());
                    w &= w - 1;
                }
            }
        }
    }

    /// Collect set-bit indices into a vector (the paper's `StaticNodes` /
    /// `OndemandNodes` arrays are exactly this, with `u32` vertex ids).
    pub fn to_indices(&self) -> Vec<u32> {
        let mut v = Vec::with_capacity(self.count_ones());
        self.collect_indices(&mut v);
        v
    }

    /// Raw word slice (read-only), for bulk hashing or serialization.
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// Iterator over the set-bit positions of a single word.
struct BitIter {
    word: u64,
}

impl Iterator for BitIter {
    type Item = usize;
    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let b = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(b)
    }
}

/// A fixed-length bitmap that can be set concurrently from many threads.
///
/// Reads made while writers are active are racy in the usual benign way
/// (Relaxed atomics): the Ascetic kernels only ever *set* bits of the next
/// frontier during a compute phase, and the single-threaded driver snapshots
/// it between phases. The same phase discipline covers the summary level:
/// a setter marks its block right after the `fetch_or` that made the word
/// non-zero, so the summary invariant holds whenever no setter is in flight
/// — which is exactly when the bulk operations (`snapshot*`, `count_ones`,
/// `clear_all`, `load_from`) may be called.
pub struct AtomicBitmap {
    words: Vec<AtomicU64>,
    summary: Vec<AtomicU64>,
    len: usize,
}

impl AtomicBitmap {
    /// An all-zero concurrent bitmap of `len` bits.
    pub fn new(len: usize) -> Self {
        let words = word_count(len);
        let zeroed = |n: usize| (0..n).map(|_| AtomicU64::new(0)).collect();
        AtomicBitmap {
            words: zeroed(words),
            summary: zeroed(summary_count(words)),
            len,
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap holds zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Atomically set bit `i`, returning `true` iff this call flipped it —
    /// used to count newly activated vertices exactly once.
    ///
    /// Test-before-RMW: bits are only ever *set* during a phase, so a
    /// (possibly stale) load that already shows the bit proves the
    /// `fetch_or` a no-op returning `false`; otherwise the `fetch_or` runs
    /// and its return value decides, so exactly one caller per bit sees
    /// `true`. Frontier vertices are activated by many in-edges, which
    /// makes the plain-load case the common one.
    #[inline]
    pub fn set(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let (wi, mask) = (i / WORD_BITS, 1u64 << (i % WORD_BITS));
        self.words[wi].load(Ordering::Relaxed) & mask == 0 && self.or_word(wi, mask) != 0
    }

    /// OR `mask` into word `wi` (bit `j` is bit `64·wi + j`, none past the
    /// length) in one RMW, returning the bits this call flipped: `set` for a
    /// word's worth of bits gathered locally. A zero mask is a no-op.
    #[inline]
    pub fn or_word(&self, wi: usize, mask: u64) -> u64 {
        if mask == 0 {
            return 0;
        }
        let prev = self.words[wi].fetch_or(mask, Ordering::Relaxed);
        if prev == 0 {
            // 0 → non-0: this call owns marking the block
            let b = wi / BLOCK_WORDS;
            let sbit = 1u64 << (b % WORD_BITS);
            let s = &self.summary[b / WORD_BITS];
            if s.load(Ordering::Relaxed) & sbit == 0 {
                s.fetch_or(sbit, Ordering::Relaxed);
            }
        }
        mask & !prev
    }

    /// Test bit `i` (Relaxed).
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / WORD_BITS].load(Ordering::Relaxed) >> (i % WORD_BITS) & 1 == 1
    }

    /// The word slices of the marked blocks, ascending, each with the index
    /// of its first word (between phases only).
    fn blocks(&self) -> impl Iterator<Item = (usize, &[AtomicU64])> + '_ {
        let n = self.words.len();
        marked_blocks(self.summary.iter().map(|s| s.load(Ordering::Relaxed))).map(move |b| {
            let r = block_range(b, n);
            (r.start, &self.words[r])
        })
    }

    /// Zero every bit (single-threaded phase only; touches only marked
    /// blocks).
    pub fn clear_all(&self) {
        for (_, ws) in self.blocks() {
            for w in ws {
                w.store(0, Ordering::Relaxed);
            }
        }
        for s in &self.summary {
            s.store(0, Ordering::Relaxed);
        }
    }

    /// Copy the current contents into a fresh [`Bitmap`].
    pub fn snapshot(&self) -> Bitmap {
        let mut b = Bitmap::new(self.len);
        self.snapshot_into(&mut b);
        b
    }

    /// Overwrite `dst` (same length, any prior contents) with the current
    /// contents — [`AtomicBitmap::snapshot`] into a recycled buffer. Cost
    /// is proportional to the marked blocks of the two bitmaps.
    pub fn snapshot_into(&self, dst: &mut Bitmap) {
        assert_eq!(self.len, dst.len, "bitmap length mismatch");
        dst.clear_all();
        for (base, ws) in self.blocks() {
            for (d, w) in dst.words[base..base + ws.len()].iter_mut().zip(ws) {
                *d = w.load(Ordering::Relaxed);
            }
        }
        for (d, s) in dst.summary.iter_mut().zip(&self.summary) {
            *d = s.load(Ordering::Relaxed);
        }
    }

    /// Population count (Relaxed; exact only between phases).
    pub fn count_ones(&self) -> usize {
        self.blocks()
            .flat_map(|(_, ws)| ws)
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    /// Overwrite from a plain bitmap of the same length.
    pub fn load_from(&self, src: &Bitmap) {
        assert_eq!(self.len, src.len, "bitmap length mismatch");
        self.clear_all();
        for (wi, w) in src.nonzero_words() {
            self.or_word(wi, w);
        }
    }
}

impl From<&Bitmap> for AtomicBitmap {
    fn from(b: &Bitmap) -> Self {
        let a = AtomicBitmap::new(b.len);
        a.load_from(b);
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::parallel_for;

    #[test]
    fn set_get_clear_roundtrip() {
        let mut b = Bitmap::new(130);
        assert!(!b.get(0));
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert_eq!(b.count_ones(), 3);
        b.clear(64);
        assert!(!b.get(64));
        assert_eq!(b.count_ones(), 2);
    }

    #[test]
    fn ones_respects_tail() {
        for len in [1, 63, 64, 65, 127, 128, 129, 1000] {
            let b = Bitmap::ones(len);
            assert_eq!(b.count_ones(), len, "len={len}");
            assert!(b.get(len - 1));
        }
    }

    #[test]
    fn set_all_on_a_used_bitmap_equals_ones() {
        for len in [0, 1, 64, 65, 4096, 4097, 300_000] {
            let mut b = Bitmap::new(len);
            if len > 0 {
                b.set(len / 2);
            }
            b.set_all();
            assert_eq!(b, Bitmap::ones(len), "len={len}");
            // the summary covers every block: iteration reaches the tail
            assert_eq!(b.iter_ones().count(), len, "len={len}");
            b.clear_all();
            assert!(b.is_all_zero(), "len={len}");
        }
    }

    #[test]
    fn empty_bitmap() {
        let b = Bitmap::new(0);
        assert!(b.is_empty());
        assert_eq!(b.count_ones(), 0);
        assert!(b.is_all_zero());
        assert_eq!(b.to_indices(), Vec::<u32>::new());
    }

    #[test]
    fn and_andnot_match_per_bit() {
        let n = 200;
        let mut a = Bitmap::new(n);
        let mut b = Bitmap::new(n);
        for i in (0..n).step_by(3) {
            a.set(i);
        }
        for i in (0..n).step_by(5) {
            b.set(i);
        }
        let and = a.and(&b);
        let andnot = a.and_not(&b);
        for i in 0..n {
            assert_eq!(and.get(i), a.get(i) && b.get(i));
            assert_eq!(andnot.get(i), a.get(i) && !b.get(i));
        }
    }

    #[test]
    fn ondemand_map_identity() {
        // Active XOR (Active AND Static) == Active AND-NOT Static, the
        // identity Figure 4 relies on.
        let n = 500;
        let mut active = Bitmap::new(n);
        let mut stat = Bitmap::new(n);
        for i in (0..n).step_by(2) {
            active.set(i);
        }
        for i in (0..n).step_by(7) {
            stat.set(i);
        }
        let static_map = active.and(&stat);
        let od_via_andnot = active.and_not(&stat);
        for i in 0..n {
            assert_eq!(od_via_andnot.get(i), active.get(i) ^ static_map.get(i));
        }
    }

    #[test]
    fn iter_ones_ascending_and_complete() {
        let mut b = Bitmap::new(300);
        let picks = [0usize, 1, 63, 64, 65, 128, 255, 299];
        for &i in &picks {
            b.set(i);
        }
        let got: Vec<usize> = b.iter_ones().collect();
        assert_eq!(got, picks);
        assert_eq!(
            b.to_indices(),
            picks.iter().map(|&i| i as u32).collect::<Vec<_>>()
        );
    }

    #[test]
    fn atomic_set_reports_first_setter() {
        let a = AtomicBitmap::new(100);
        assert!(a.set(42));
        assert!(!a.set(42));
        assert!(a.get(42));
        assert_eq!(a.count_ones(), 1);
    }

    #[test]
    fn concurrent_sets_all_land() {
        let n = 100_000;
        let a = AtomicBitmap::new(n);
        parallel_for(n, |i| {
            a.set(i);
        });
        assert_eq!(a.count_ones(), n);
        let snap = a.snapshot();
        assert_eq!(snap.count_ones(), n);
    }

    #[test]
    fn snapshot_and_load_roundtrip() {
        let mut b = Bitmap::new(777);
        for i in (0..777).step_by(11) {
            b.set(i);
        }
        let a = AtomicBitmap::new(777);
        a.load_from(&b);
        assert_eq!(a.snapshot(), b);
        a.clear_all();
        assert_eq!(a.count_ones(), 0);
        let a2: AtomicBitmap = (&b).into();
        assert_eq!(a2.snapshot(), b);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn and_panics_on_mismatch() {
        let a = Bitmap::new(10);
        let b = Bitmap::new(11);
        let _ = a.and(&b);
    }

    #[test]
    fn atomic_set_hammer_one_winner_per_bit() {
        // 8 threads released together, all setting the same overlapping
        // bits: every bit has exactly one `true`, and the summary the
        // racing setters built indexes every one of them.
        const THREADS: usize = 8;
        let n = 3 * 4096 + 17;
        let picks: Vec<usize> = (0..n).filter(|i| i % 3 == 0 || i % 64 == 63).collect();
        let a = AtomicBitmap::new(n);
        let barrier = std::sync::Barrier::new(THREADS);
        let wins: Vec<Vec<usize>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (a, barrier, picks) = (&a, &barrier, &picks);
                    s.spawn(move || {
                        barrier.wait();
                        // each thread walks the picks from its own offset
                        let k = picks.len();
                        (0..k)
                            .map(|j| picks[(j + t * k / THREADS) % k])
                            .filter(|&i| a.set(i))
                            .collect::<Vec<usize>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut won: Vec<usize> = wins.into_iter().flatten().collect();
        won.sort_unstable();
        assert_eq!(won, picks, "exactly one `true` per bit");
        assert_eq!(a.count_ones(), picks.len());
        let got: Vec<usize> = a.snapshot().iter_ones().collect();
        assert_eq!(got, picks);
    }

    #[test]
    fn a_zero_mask_is_a_no_op_that_marks_nothing() {
        let a = AtomicBitmap::new(3 * 4096 + 17);
        for wi in [0, 1, 64, 130, 192] {
            a.or_word(wi, 0);
        }
        let marked = a.summary.iter().any(|s| s.load(Ordering::Relaxed) != 0);
        assert!(!marked, "a zero mask marked a block");
        assert_eq!(a.count_ones(), 0);
        assert_eq!(a.snapshot(), Bitmap::new(a.len()));
        // a zero mask into a populated word changes nothing either
        a.or_word(65, 0b1010);
        a.or_word(65, 0);
        assert_eq!(a.snapshot().to_indices(), vec![65 * 64 + 1, 65 * 64 + 3]);
    }

    #[test]
    fn or_word_into_a_zero_word_marks_its_block_for_every_bulk_read() {
        let n = 3 * 4096 + 17;
        let a = AtomicBitmap::new(n);
        // one word per block, the last the partial tail word
        let words = [
            (0, 1u64 << 63),
            (64, 0b11),
            (129, u64::MAX),
            (192, 0x1_ffff),
        ];
        for (wi, mask) in words {
            a.or_word(wi, mask);
        }
        let mut expect = Bitmap::new(n);
        for (wi, mask) in words {
            (0..64)
                .filter(|j| mask >> j & 1 == 1)
                .for_each(|j| expect.set(wi * 64 + j));
        }
        assert_eq!(a.count_ones(), expect.count_ones());
        let mut dirty = Bitmap::ones(n);
        a.snapshot_into(&mut dirty);
        assert_eq!(dirty.to_indices(), expect.to_indices());
        a.clear_all();
        assert_eq!(a.count_ones(), 0);
        assert!(a.snapshot().is_all_zero());
        assert!((0..n).all(|i| !a.get(i)), "clear_all missed an or_word bit");
    }

    #[test]
    fn or_word_and_set_racing_on_shared_words_land_the_union() {
        // 8 threads released together: even threads OR whole masks, odd
        // threads set single bits, into the same words of three blocks;
        // every bit of the union is reported flipped by exactly one call
        const THREADS: usize = 8;
        let n = 3 * 4096 + 17;
        let a = AtomicBitmap::new(n);
        let barrier = std::sync::Barrier::new(THREADS);
        let hit = |t: usize, i: usize| (i * 7 + t * 13) % 11 < 3;
        let flipped: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (a, barrier) = (&a, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        let mut flipped = 0;
                        for wi in 0..word_count(n) {
                            let bits = (0..64).map(|j| wi * 64 + j).filter(|&i| i < n && hit(t, i));
                            flipped += if t % 2 == 0 {
                                let mask = bits.fold(0, |m, i| m | 1 << (i % 64));
                                a.or_word(wi, mask).count_ones() as usize
                            } else {
                                bits.filter(|&i| a.set(i)).count()
                            };
                        }
                        flipped
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        let union: Vec<usize> = (0..n)
            .filter(|&i| (0..THREADS).any(|t| hit(t, i)))
            .collect();
        assert_eq!(flipped, union.len(), "exactly one flip per bit");
        assert_eq!(a.count_ones(), union.len());
        assert_eq!(a.snapshot().iter_ones().collect::<Vec<_>>(), union);
    }

    // ---- summary-indexed operations against a naive Vec<bool> model ----

    use proptest::prelude::*;

    /// Lengths that straddle word, tail and block boundaries.
    fn lengths() -> impl Strategy<Value = usize> {
        prop_oneof![
            Just(0usize),
            Just(1),
            Just(63),
            Just(64),
            Just(65),
            Just(4095),
            Just(4096),
            Just(4097),
            Just(2 * 4096 - 1),
            Just(2 * 4096),
            Just(3 * 4096 + 1),
            Just(64 * 4096 + 63),
            1usize..20_000,
        ]
    }

    /// A model bitmap of one of the shapes the engines produce: empty, a
    /// single bit, 0.1 % sparse, half full, all ones.
    fn model(len: usize, shape: u8, seed: u64) -> Vec<bool> {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut m = vec![false; len];
        match shape {
            1 if len > 0 => m[rng.gen_range(0..len)] = true,
            2 => m.iter_mut().for_each(|b| *b = rng.gen_bool(0.001)),
            3 => m.iter_mut().for_each(|b| *b = rng.gen_bool(0.5)),
            4 => m.fill(true),
            _ => {}
        }
        m
    }

    fn build(m: &[bool]) -> Bitmap {
        let mut b = Bitmap::new(m.len());
        (0..m.len()).filter(|&i| m[i]).for_each(|i| b.set(i));
        b
    }

    /// Every read-side operation of `b` agrees with the model `m`.
    fn check(b: &Bitmap, m: &[bool]) -> Result<(), TestCaseError> {
        let ones: Vec<usize> = (0..m.len()).filter(|&i| m[i]).collect();
        prop_assert_eq!(b.len(), m.len());
        prop_assert_eq!(b.iter_ones().collect::<Vec<_>>(), ones.clone());
        prop_assert_eq!(b.count_ones(), ones.len());
        prop_assert_eq!(b.is_all_zero(), ones.is_empty());
        let ids: Vec<u32> = ones.iter().map(|&i| i as u32).collect();
        prop_assert_eq!(b.to_indices(), ids.clone());
        let mut recycled = vec![7u32; 3];
        b.collect_indices(&mut recycled);
        prop_assert_eq!(recycled, ids);
        let via_words: Vec<usize> = b
            .nonzero_words()
            .flat_map(|(wi, w)| {
                (0..64)
                    .filter(move |j| w >> j & 1 == 1)
                    .map(move |j| wi * 64 + j)
            })
            .collect();
        prop_assert_eq!(via_words, ones);
        prop_assert!(b.nonzero_words().all(|(_, w)| w != 0));
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        #[test]
        fn summary_indexed_bitmap_matches_naive_model(
            len in lengths(),
            (sa, sb) in (0u8..5, 0u8..5),
            seed in any::<u64>(),
        ) {
            let (ma, mb) = (model(len, sa, seed), model(len, sb, seed.rotate_left(17) ^ 0x9e37));
            let (a, b) = (build(&ma), build(&mb));
            check(&a, &ma)?;
            if sa == 4 {
                prop_assert_eq!(&a, &Bitmap::ones(len));
                check(&Bitmap::ones(len), &ma)?;
            }

            // combinators
            let zip = |f: fn(bool, bool) -> bool| -> Vec<bool> {
                ma.iter().zip(&mb).map(|(&x, &y)| f(x, y)).collect()
            };
            check(&a.and(&b), &zip(|x, y| x && y))?;
            check(&a.and_not(&b), &zip(|x, y| x && !y))?;

            // bit-by-bit clearing leaves blocks marked but empty: every
            // operation must still agree, and equality ignores the summary
            let mut cleared = a.clone();
            let mut mc = ma.clone();
            for i in (0..len).filter(|i| i % 3 != 1) {
                cleared.clear(i);
                mc[i] = false;
            }
            check(&cleared, &mc)?;
            prop_assert_eq!(&cleared, &build(&mc));
            check(&cleared.and(&b), &mc.iter().zip(&mb).map(|(&x, &y)| x && y).collect::<Vec<_>>())?;

            // retain
            let mut kept = a.clone();
            kept.retain(|i| i % 5 != 0);
            let mk: Vec<bool> = ma.iter().enumerate().map(|(i, &x)| x && i % 5 != 0).collect();
            check(&kept, &mk)?;

            // clear_all, then reuse: a stale summary would hide the new bits
            let mut reused = a.clone();
            reused.clear_all();
            check(&reused, &vec![false; len])?;
            (0..len).filter(|&i| mb[i]).for_each(|i| reused.set(i));
            check(&reused, &mb)?;
            prop_assert_eq!(&reused, &b);

            // the concurrent twin: set, snapshot (fresh and into a dirty
            // recycled buffer), count, clear_all + reuse, load_from
            let at = AtomicBitmap::new(len);
            for i in (0..len).filter(|&i| ma[i]) {
                prop_assert!(at.set(i));
                prop_assert!(!at.set(i));
            }
            prop_assert_eq!(at.count_ones(), a.count_ones());
            check(&at.snapshot(), &ma)?;
            let mut dirty = b.clone();
            at.snapshot_into(&mut dirty);
            check(&dirty, &ma)?;
            prop_assert_eq!(&dirty, &a);
            at.clear_all();
            prop_assert_eq!(at.count_ones(), 0);
            check(&at.snapshot(), &vec![false; len])?;
            (0..len).filter(|&i| mb[i]).for_each(|i| { at.set(i); });
            check(&at.snapshot(), &mb)?;
            at.load_from(&cleared);
            check(&at.snapshot(), &mc)?;
            prop_assert!((0..len).all(|i| at.get(i) == mc[i]));
            at.load_from(&a);
            at.snapshot_into(&mut dirty);
            check(&dirty, &ma)?;
        }

        #[test]
        fn or_word_matches_setting_its_bits_one_by_one(
            len in lengths(),
            (sa, sb) in (0u8..5, 0u8..5),
            seed in any::<u64>(),
        ) {
            // `a`'s words ORed in whole over `b`'s bits set one by one
            let (ma, mb) = (model(len, sa, seed), model(len, sb, seed.rotate_left(29) ^ 0x51ed));
            let mu: Vec<bool> = ma.iter().zip(&mb).map(|(&x, &y)| x || y).collect();
            let (a, union) = (build(&ma), build(&mu));
            let at = AtomicBitmap::new(len);
            (0..len).filter(|&i| mb[i]).for_each(|i| { at.set(i); });
            for (wi, &w) in a.words().iter().enumerate() {
                at.or_word(wi, w);
            }
            prop_assert_eq!(at.count_ones(), union.count_ones());
            check(&at.snapshot(), &mu)?;
            at.clear_all();
            check(&at.snapshot(), &vec![false; len])?;
            // into cleared words, with no `set` to mark their blocks
            for (wi, &w) in a.words().iter().enumerate() {
                at.or_word(wi, w);
            }
            let mut dirty = union.clone();
            at.snapshot_into(&mut dirty);
            check(&dirty, &ma)?;
        }
    }
}
