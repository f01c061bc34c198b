//! Per-core TLB model.
//!
//! The TLB tracks which virtual page numbers a core can currently
//! translate without touching the page table. It serves two purposes in
//! the reproduction:
//!
//! 1. **Hit accounting** — minor-access fast paths (TLB hit) versus
//!    page-table walks.
//! 2. **Safety checking** — the eviction pipeline must never reclaim a
//!    frame while any core still caches a translation to it. The engine's
//!    debug assertions consult [`Tlb::translates`] to enforce this.
//!
//! Invalidations performed by the shootdown protocol clear entries at
//! *request* time even though the simulated flush completes later; this is
//! conservative for hit accounting and exact for the safety check, because
//! the initiating evictor does not reclaim the frame until the flush ACK
//! (see `mage_mmu::ipi`).

use std::cell::RefCell;

use mage_sim::rng::SplitMix64;
use mage_sim::stats::Counter;

/// Largest supported capacity: the index packs the `order` index + 1 into
/// 16 bits, and its `next_pow2(2 × capacity)` slots must fit the 16-bit
/// fingerprint's home-slot field.
const MAX_CAPACITY: usize = 32_767;

/// Top 16 bits of the vpn's Fibonacci hash (the multiplier `PageMap`
/// uses): the fingerprint stored in the index, whose top bits are also
/// the home slot.
#[inline]
fn fingerprint(vpn: u64) -> u32 {
    (vpn.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48) as u32
}

/// The translations and their index, behind one borrow.
struct Entries {
    /// Open-addressed index over `order`, one `u32` per slot: the high
    /// 16 bits hold the vpn's [`fingerprint`], the low 16 bits its
    /// `order` index + 1, and 0 marks an empty slot. Linear probing with
    /// backward-shift deletion; the fingerprint's top `log2(len)` bits
    /// are the home slot, so deletion never re-hashes a vpn. At 1,536
    /// entries the table is 16 KiB — 4 bytes a slot, where a
    /// `PageMap<usize>` spends 24 — so the per-core TLBs a shootdown
    /// probes stay cache-resident.
    index: Vec<u32>,
    /// `16 - log2(index.len())`: a fingerprint shifted right by this is
    /// its home slot.
    home_shift: u32,
    /// Cached vpns; random replacement draws an index into this vector.
    order: Vec<u64>,
}

/// The `order` index an occupied index word points at.
#[inline]
fn order_idx(word: u32) -> usize {
    (word & 0xFFFF) as usize - 1
}

impl Entries {
    /// Home slot of a fingerprint.
    #[inline]
    fn home(&self, fp: u32) -> usize {
        (fp >> self.home_shift) as usize
    }

    #[inline]
    fn next(&self, slot: usize) -> usize {
        (slot + 1) & (self.index.len() - 1)
    }

    /// Index slot caching `vpn`. A fingerprint match counts only after
    /// `order` confirms the vpn, so the answer is exact.
    #[inline]
    fn find(&self, vpn: u64) -> Option<usize> {
        let fp = fingerprint(vpn);
        let mut slot = self.home(fp);
        loop {
            let word = self.index[slot];
            if word == 0 {
                return None;
            }
            if word >> 16 == fp && self.order[order_idx(word)] == vpn {
                return Some(slot);
            }
            slot = self.next(slot);
        }
    }

    /// Indexes `vpn` as `order[idx]`; `vpn` must not be indexed already.
    fn insert(&mut self, vpn: u64, idx: usize) {
        let fp = fingerprint(vpn);
        let mut slot = self.home(fp);
        while self.index[slot] != 0 {
            slot = self.next(slot);
        }
        self.index[slot] = fp << 16 | (idx as u32 + 1);
    }

    /// Empties `hole`, shifting later entries of its probe run back so
    /// lookups never meet a tombstone.
    fn remove_slot(&mut self, mut hole: usize) {
        let mask = self.index.len() - 1;
        self.index[hole] = 0;
        let mut slot = hole;
        loop {
            slot = self.next(slot);
            let word = self.index[slot];
            if word == 0 {
                return;
            }
            let home = self.home(word >> 16);
            // Shift `slot` back into the hole iff its home does not lie
            // cyclically after the hole.
            if (slot.wrapping_sub(home) & mask) >= (slot.wrapping_sub(hole) & mask) {
                self.index[hole] = word;
                self.index[slot] = 0;
                hole = slot;
            }
        }
    }
}

/// A fixed-capacity, randomly-replaced translation cache for one core.
pub struct Tlb {
    capacity: usize,
    entries: RefCell<Entries>,
    rng: SplitMix64,
    /// Translation hits.
    pub hits: Counter,
    /// Translation misses.
    pub misses: Counter,
    /// Entries evicted by capacity replacement.
    pub capacity_evictions: Counter,
}

impl Tlb {
    /// Creates a TLB with `capacity` entries (e.g. 1,536 for Ice Lake's
    /// combined DTLB+STLB reach at 4 KiB pages).
    ///
    /// The index has `next_pow2(2 × capacity)` slots: a full TLB replaces
    /// an entry per miss (remove + insert), and the 2× slack keeps the
    /// probe runs that backward-shift deletion walks short.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` exceeds 32,767, the most the 16-bit fields of
    /// the index can address.
    pub fn new(capacity: usize, seed: u64) -> Self {
        assert!(
            capacity <= MAX_CAPACITY,
            "TLB capacity {capacity} exceeds {MAX_CAPACITY}"
        );
        let slots = (2 * capacity).next_power_of_two();
        Tlb {
            capacity,
            entries: RefCell::new(Entries {
                index: vec![0; slots],
                home_shift: 16 - slots.trailing_zeros(),
                order: Vec::with_capacity(capacity),
            }),
            rng: SplitMix64::new(seed),
            hits: Counter::new(),
            misses: Counter::new(),
            capacity_evictions: Counter::new(),
        }
    }

    /// Looks up `vpn`, recording a hit or miss.
    pub fn lookup(&self, vpn: u64) -> bool {
        if self.translates(vpn) {
            self.hits.inc();
            true
        } else {
            self.misses.inc();
            false
        }
    }

    /// Whether the core can currently translate `vpn` (no stats recorded).
    pub fn translates(&self, vpn: u64) -> bool {
        self.entries.borrow().find(vpn).is_some()
    }

    /// Inserts a translation after a page-table walk, evicting a random
    /// victim if the TLB is full.
    pub fn fill(&self, vpn: u64) {
        let mut e = self.entries.borrow_mut();
        if e.find(vpn).is_some() {
            return;
        }
        if e.order.len() >= self.capacity {
            let victim_idx = self.rng.next_below(e.order.len() as u64) as usize;
            let victim_slot = e.find(e.order[victim_idx]).expect("cached vpn is indexed");
            e.remove_slot(victim_slot);
            self.capacity_evictions.inc();
            e.order[victim_idx] = vpn;
            e.insert(vpn, victim_idx);
        } else {
            e.order.push(vpn);
            let idx = e.order.len() - 1;
            e.insert(vpn, idx);
        }
    }

    /// Invalidates one translation (INVLPG).
    pub fn invalidate(&self, vpn: u64) {
        let mut e = self.entries.borrow_mut();
        let Some(slot) = e.find(vpn) else {
            return;
        };
        let idx = order_idx(e.index[slot]);
        e.remove_slot(slot);
        // Swap-remove: the last entry moves into `idx`.
        let last = e.order.len() - 1;
        if idx < last {
            let moved = e.find(e.order[last]).expect("cached vpn is indexed");
            e.index[moved] = (e.index[moved] & !0xFFFF) | (idx as u32 + 1);
        }
        e.order.swap_remove(idx);
    }

    /// Flushes every translation (CR3 write).
    pub fn flush_all(&self) {
        let mut e = self.entries.borrow_mut();
        e.index.fill(0);
        e.order.clear();
    }

    /// Number of cached translations.
    pub fn len(&self) -> usize {
        self.entries.borrow().order.len()
    }

    /// Whether the TLB is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.borrow().order.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_then_hit() {
        let tlb = Tlb::new(4, 1);
        assert!(!tlb.lookup(10));
        tlb.fill(10);
        assert!(tlb.lookup(10));
        assert_eq!(tlb.hits.get(), 1);
        assert_eq!(tlb.misses.get(), 1);
    }

    #[test]
    fn invalidate_removes_entry() {
        let tlb = Tlb::new(4, 1);
        tlb.fill(1);
        tlb.fill(2);
        tlb.invalidate(1);
        assert!(!tlb.translates(1));
        assert!(tlb.translates(2));
        assert_eq!(tlb.len(), 1);
    }

    #[test]
    fn invalidate_absent_is_noop() {
        let tlb = Tlb::new(4, 1);
        tlb.fill(1);
        tlb.invalidate(99);
        assert_eq!(tlb.len(), 1);
    }

    #[test]
    fn capacity_replacement_bounds_size() {
        let tlb = Tlb::new(8, 42);
        for vpn in 0..100 {
            tlb.fill(vpn);
        }
        assert_eq!(tlb.len(), 8);
        assert_eq!(tlb.capacity_evictions.get(), 92);
        // Every resident entry must still be translatable.
        let resident: Vec<u64> = (0..100).filter(|&v| tlb.translates(v)).collect();
        assert_eq!(resident.len(), 8);
    }

    #[test]
    fn flush_all_clears() {
        let tlb = Tlb::new(16, 3);
        for vpn in 0..10 {
            tlb.fill(vpn);
        }
        tlb.flush_all();
        assert!(tlb.is_empty());
        assert!(!tlb.translates(5));
    }

    #[test]
    fn duplicate_fill_is_idempotent() {
        let tlb = Tlb::new(4, 1);
        tlb.fill(7);
        tlb.fill(7);
        assert_eq!(tlb.len(), 1);
    }

    #[test]
    fn swap_remove_bookkeeping_stays_consistent() {
        let tlb = Tlb::new(16, 5);
        for vpn in 0..10 {
            tlb.fill(vpn);
        }
        // Remove from the middle repeatedly; the map/order cross-links
        // must stay coherent.
        for vpn in [3, 0, 9, 5] {
            tlb.invalidate(vpn);
            assert!(!tlb.translates(vpn));
        }
        let alive: Vec<u64> = (0..10).filter(|&v| tlb.translates(v)).collect();
        assert_eq!(alive, vec![1, 2, 4, 6, 7, 8]);
        for &v in &alive {
            tlb.invalidate(v);
        }
        assert!(tlb.is_empty());
    }
}
