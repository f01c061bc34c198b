//! Differential fuzz of the fingerprint-indexed [`Tlb`] against the
//! `PageMap`-indexed TLB it replaced, in the style of the buddy
//! allocator's `EagerRef`: the index layout is internal, but every
//! observable decision — hit or miss, which entry random replacement
//! evicts, swap-remove on invalidation — must match step for step.

use std::cell::RefCell;

use mage_mmu::Tlb;
use mage_sim::rng::SplitMix64;
use mage_sim::slab::PageMap;

/// The reference TLB: vpn → `order` index in a [`PageMap`], random
/// replacement over `order`, swap-remove on invalidation.
struct RefTlb {
    capacity: usize,
    map: RefCell<PageMap<usize>>,
    order: RefCell<Vec<u64>>,
    rng: SplitMix64,
    hits: u64,
    misses: u64,
    capacity_evictions: u64,
}

impl RefTlb {
    fn new(capacity: usize, seed: u64) -> Self {
        RefTlb {
            capacity,
            map: RefCell::new(PageMap::with_capacity(capacity * 2)),
            order: RefCell::new(Vec::with_capacity(capacity)),
            rng: SplitMix64::new(seed),
            hits: 0,
            misses: 0,
            capacity_evictions: 0,
        }
    }

    fn lookup(&mut self, vpn: u64) -> bool {
        let hit = self.translates(vpn);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    fn translates(&self, vpn: u64) -> bool {
        self.map.borrow().contains_key(vpn)
    }

    fn fill(&mut self, vpn: u64) {
        let mut map = self.map.borrow_mut();
        if map.contains_key(vpn) {
            return;
        }
        let mut order = self.order.borrow_mut();
        if order.len() >= self.capacity {
            let victim_slot = self.rng.next_below(order.len() as u64) as usize;
            let victim = order[victim_slot];
            map.remove(victim);
            self.capacity_evictions += 1;
            order[victim_slot] = vpn;
            map.insert(vpn, victim_slot);
        } else {
            order.push(vpn);
            map.insert(vpn, order.len() - 1);
        }
    }

    fn invalidate(&self, vpn: u64) {
        let mut map = self.map.borrow_mut();
        if let Some(slot) = map.remove(vpn) {
            let mut order = self.order.borrow_mut();
            let last = order.len() - 1;
            order.swap(slot, last);
            order.pop();
            if slot < order.len() {
                map.insert(order[slot], slot);
            }
        }
    }

    fn flush_all(&self) {
        *self.map.borrow_mut() = PageMap::with_capacity(self.capacity * 2);
        self.order.borrow_mut().clear();
    }

    fn len(&self) -> usize {
        self.order.borrow().len()
    }
}

/// Highest vpn the 5-level page table maps.
const TOP_VPN: u64 = (1 << 45) - 1;

#[test]
fn tlb_matches_pagemap_reference() {
    for capacity in [1usize, 4, 64, 1_536] {
        for seed in [1u64, 7, 0xDEAD_BEEF, 0x5EED_5EED_5EED_5EED] {
            let rng = SplitMix64::new(seed ^ capacity as u64);
            // A pool of 2 × capacity distinct vpns spread over the whole
            // space plus both ends: full TLBs, duplicate fills and
            // invalidations of vpns that are not cached.
            let mut pool: Vec<u64> = vec![0, TOP_VPN];
            pool.extend((0..2 * capacity).map(|_| rng.next_below(TOP_VPN)));
            let tlb = Tlb::new(capacity, seed);
            let mut reference = RefTlb::new(capacity, seed);
            let mut touched: Vec<u64> = Vec::new();
            for step in 0..20_000u32 {
                let vpn = pool[rng.next_below(pool.len() as u64) as usize];
                if !touched.contains(&vpn) {
                    touched.push(vpn);
                }
                let at = format!("capacity {capacity} seed {seed:#x} step {step} vpn {vpn:#x}");
                match rng.next_below(10_000) {
                    0..=3_999 => {
                        tlb.fill(vpn);
                        reference.fill(vpn);
                    }
                    4_000..=6_499 => assert_eq!(tlb.lookup(vpn), reference.lookup(vpn), "{at}"),
                    6_500..=7_499 => {
                        assert_eq!(tlb.translates(vpn), reference.translates(vpn), "{at}")
                    }
                    7_500..=9_997 => {
                        tlb.invalidate(vpn);
                        reference.invalidate(vpn);
                    }
                    _ => {
                        tlb.flush_all();
                        reference.flush_all();
                    }
                }
                assert_eq!(tlb.hits.get(), reference.hits, "hits: {at}");
                assert_eq!(tlb.misses.get(), reference.misses, "misses: {at}");
                assert_eq!(
                    tlb.capacity_evictions.get(),
                    reference.capacity_evictions,
                    "capacity evictions: {at}"
                );
                assert_eq!(tlb.len(), reference.len(), "len: {at}");
                assert_eq!(tlb.is_empty(), reference.len() == 0, "is_empty: {at}");
                for &v in &touched {
                    assert_eq!(
                        tlb.translates(v),
                        reference.translates(v),
                        "translates({v:#x}): {at}"
                    );
                }
            }
            assert!(
                reference.capacity_evictions > 0,
                "capacity {capacity} seed {seed:#x}: the stream never filled the TLB"
            );
        }
    }
}

#[test]
fn largest_capacity_is_accepted() {
    let tlb = Tlb::new(32_767, 3);
    for vpn in 0..40_000 {
        tlb.fill(vpn);
    }
    assert_eq!(tlb.len(), 32_767);
    assert_eq!(tlb.capacity_evictions.get(), 40_000 - 32_767);
}

#[test]
#[should_panic(expected = "TLB capacity 32768 exceeds 32767")]
fn capacity_beyond_the_index_bound_panics() {
    Tlb::new(32_768, 1);
}
