//! Remote (far-memory) slot allocators.
//!
//! When a dirty page is evicted, the system must decide *where* in far
//! memory it goes. Linux-derived systems (Hermit) allocate a swap slot
//! under the swap subsystem's global spinlock — a major eviction-path
//! bottleneck at scale (§3.3.3). DiLOS and MAGE eliminate the allocation
//! entirely with VMA-level direct mapping (§4.2.3): the remote location is
//! a fixed linear function of the virtual address.

use mage_sim::stats::Counter;
use mage_sim::sync::{LockStats, SimMutex};
use mage_sim::time::Nanos;
use mage_sim::SimHandle;

/// A Linux-swap-style slot bitmap behind a global lock.
pub struct SwapBitmap {
    sim: SimHandle,
    inner: SimMutex<SwapInner>,
    /// Lock hold time per slot allocation (bitmap scan + bookkeeping).
    op_ns: Nanos,
    /// Successful slot allocations.
    pub allocs: Counter,
    /// Slot frees.
    pub frees: Counter,
}

struct SwapInner {
    free: Vec<u64>,
    next: u64,
    capacity: u64,
}

impl SwapInner {
    /// Pops the most recently freed slot, or bumps into never-used space;
    /// `None` when the area is full.
    fn take(&mut self) -> Option<u64> {
        self.free.pop().or_else(|| {
            (self.next < self.capacity).then(|| {
                self.next += 1;
                self.next - 1
            })
        })
    }
}

impl SwapBitmap {
    /// Creates a swap area with `capacity` slots and the given per-op
    /// critical-section cost.
    pub fn new(sim: SimHandle, capacity: u64, op_ns: Nanos) -> Self {
        SwapBitmap {
            inner: SimMutex::new_named(
                sim.clone(),
                "palloc.swap-bitmap",
                SwapInner {
                    free: Vec::new(),
                    next: 0,
                    capacity,
                },
            ),
            sim,
            op_ns,
            allocs: Counter::new(),
            frees: Counter::new(),
        }
    }

    /// Synchronously allocates a slot during setup (no virtual time, no
    /// statistics).
    fn seed_alloc(&self) -> Option<u64> {
        self.inner.with_sync(SwapInner::take)
    }

    /// Allocates one swap slot, or `None` when the area is full.
    pub async fn alloc(&self) -> Option<u64> {
        let mut inner = self.inner.lock().await;
        self.sim.sleep(self.op_ns).await;
        let slot = inner.take();
        if slot.is_some() {
            self.allocs.inc();
        }
        slot
    }

    /// Frees a swap slot.
    pub async fn free(&self, slot: u64) {
        let mut inner = self.inner.lock().await;
        self.sim.sleep(self.op_ns).await;
        debug_assert!(slot < inner.next, "free of never-allocated slot");
        inner.free.push(slot);
        self.frees.inc();
    }

    /// Contention statistics of the swap lock.
    pub fn lock_stats(&self) -> &LockStats {
        self.inner.stats()
    }
}

/// The remote-slot allocation policy used by a system.
pub enum RemoteAllocator {
    /// VMA-level direct mapping: no allocation, no synchronization
    /// (DiLOS, MAGE). The slot is `vma.remote_page(vpn)`.
    DirectMap,
    /// Global-lock swap bitmap (Hermit / Linux swap subsystem). Boxed:
    /// the bitmap dwarfs the data-free `DirectMap` variant.
    Swap(Box<SwapBitmap>),
}

impl RemoteAllocator {
    /// Resolves the remote page for an eviction of `vpn`, whose VMA
    /// direct-maps it to `direct_rpn`. For `Swap`, allocates a slot and
    /// pays the lock cost; returns `None` only if swap is exhausted.
    pub async fn alloc_for(&self, direct_rpn: u64) -> Option<u64> {
        match self {
            RemoteAllocator::DirectMap => Some(direct_rpn),
            RemoteAllocator::Swap(bitmap) => bitmap.alloc().await,
        }
    }

    /// [`alloc_for`](Self::alloc_for) at setup time: synchronous, no
    /// virtual time, no statistics; `None` only if swap is exhausted.
    pub fn seed_for(&self, direct_rpn: u64) -> Option<u64> {
        match self {
            RemoteAllocator::DirectMap => Some(direct_rpn),
            RemoteAllocator::Swap(bitmap) => bitmap.seed_alloc(),
        }
    }

    /// Releases a remote page when it is faulted back in. Direct mapping
    /// keeps the remote page reserved (it is address-derived), so only
    /// swap areas do work here.
    pub async fn release(&self, rpn: u64) {
        if let RemoteAllocator::Swap(bitmap) = self {
            bitmap.free(rpn).await;
        }
    }

    /// Whether this policy pays a synchronized allocation per eviction.
    pub fn is_synchronized(&self) -> bool {
        matches!(self, RemoteAllocator::Swap(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mage_sim::Simulation;
    use std::rc::Rc;

    #[test]
    fn swap_slots_are_unique_and_recycled() {
        let sim = Simulation::new();
        let swap = Rc::new(SwapBitmap::new(sim.handle(), 8, 100));
        let s = Rc::clone(&swap);
        sim.block_on(async move {
            let mut slots = Vec::new();
            for _ in 0..8 {
                slots.push(s.alloc().await.expect("capacity"));
            }
            let uniq: std::collections::BTreeSet<_> = slots.iter().collect();
            assert_eq!(uniq.len(), 8);
            assert!(s.alloc().await.is_none(), "exhausted");
            s.free(slots[3]).await;
            assert_eq!(s.alloc().await, Some(slots[3]), "LIFO recycling");
        });
    }

    #[test]
    fn swap_lock_serializes_contenders() {
        let sim = Simulation::new();
        let swap = Rc::new(SwapBitmap::new(sim.handle(), 1_000, 100));
        for _ in 0..10 {
            let s = Rc::clone(&swap);
            sim.spawn(async move {
                s.alloc().await.unwrap();
            });
        }
        let end = sim.run();
        // 10 allocations serialized at 100 ns each.
        assert_eq!(end.as_nanos(), 1_000);
        assert_eq!(swap.lock_stats().contended(), 9);
    }

    #[test]
    fn direct_map_is_free_of_synchronization() {
        let sim = Simulation::new();
        let ra = Rc::new(RemoteAllocator::DirectMap);
        let r = Rc::clone(&ra);
        sim.block_on(async move {
            assert_eq!(r.alloc_for(1234).await, Some(1234));
            r.release(1234).await;
        });
        assert_eq!(ra.seed_for(77), Some(77));
        assert_eq!(sim.run().as_nanos(), 0, "no virtual time consumed");
        assert!(!ra.is_synchronized());
    }

    #[test]
    fn swap_allocator_uses_allocated_slot_not_direct() {
        let sim = Simulation::new();
        let ra = Rc::new(RemoteAllocator::Swap(Box::new(SwapBitmap::new(sim.handle(), 16, 50))));
        let r = Rc::clone(&ra);
        sim.block_on(async move {
            let slot = r.alloc_for(999).await.expect("capacity");
            assert_eq!(slot, 0, "bitmap slot, not the direct rpn");
            r.release(slot).await;
        });
        assert_eq!(ra.seed_for(999), Some(0), "seeding reuses the freed slot");
        assert!(ra.is_synchronized());
    }
}
