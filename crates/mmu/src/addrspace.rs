//! Virtual address spaces, VMAs and address-space lock models.
//!
//! The fault-in path's first scalability bottleneck in Linux-derived
//! systems is contention on address-space metadata locks (VMA locks,
//! `mmap_lock`; §3.2 "Fault-in path"). The systems compared in the paper
//! differ exactly in this layer:
//!
//! - **Hermit (Linux)** — a global address-space lock taken (briefly) on
//!   every fault ([`VmaLockModel::Global`]);
//! - **MAGE-Lnx** — coarse locks split into interval-tree "shards"
//!   (§5.1), modeled as hash-sharded range locks
//!   ([`VmaLockModel::Sharded`]);
//! - **DiLOS / MAGE-Lib (unikernel)** — a unified page table with
//!   PTE-embedded synchronization and no VMA lock at all
//!   ([`VmaLockModel::None`]).

use std::collections::BTreeMap;
use std::rc::Rc;

use mage_sim::sync::SimMutex;
use mage_sim::SimHandle;

use crate::pagetable::PAGE_SHIFT;

/// A virtual memory area.
#[derive(Clone, Debug)]
pub struct Vma {
    /// First virtual page number.
    pub start_vpn: u64,
    /// Number of pages.
    pub pages: u64,
    /// Base remote page number for VMA-level direct mapping (§4.2.3): the
    /// page at `start_vpn + i` lives at remote page `remote_base + i`.
    pub remote_base: u64,
}

impl Vma {
    /// Whether `vpn` falls inside this VMA.
    pub fn contains(&self, vpn: u64) -> bool {
        vpn >= self.start_vpn && vpn < self.start_vpn + self.pages
    }

    /// Remote page number backing `vpn` under direct mapping.
    ///
    /// # Panics
    ///
    /// Panics if `vpn` is outside the VMA.
    pub fn remote_page(&self, vpn: u64) -> u64 {
        assert!(self.contains(vpn), "vpn outside vma");
        self.remote_base + (vpn - self.start_vpn)
    }

    /// Last vpn + 1.
    pub fn end_vpn(&self) -> u64 {
        self.start_vpn + self.pages
    }
}

/// Lock granularity protecting address-space metadata on the fault path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VmaLockModel {
    /// One lock for the whole address space (Linux `mmap_lock`-style).
    Global,
    /// `n` hash-sharded interval locks (MAGE-Lnx interval-tree shards).
    Sharded(usize),
    /// No VMA locking (unikernel unified page table).
    None,
}

/// An address space: VMA map plus the configured lock model.
pub struct AddressSpace {
    vmas: BTreeMap<u64, Vma>,
    lock_model: VmaLockModel,
    locks: Vec<Rc<SimMutex<()>>>,
    next_vpn: u64,
    next_remote: u64,
}

impl AddressSpace {
    /// Creates an empty address space with the given lock model.
    pub fn new(sim: SimHandle, lock_model: VmaLockModel) -> Self {
        let n_locks = match lock_model {
            VmaLockModel::Global => 1,
            VmaLockModel::Sharded(n) => n.max(1),
            VmaLockModel::None => 0,
        };
        AddressSpace {
            vmas: BTreeMap::new(),
            lock_model,
            locks: (0..n_locks)
                .map(|_| Rc::new(SimMutex::new_named(sim.clone(), "mmu.vma-shard", ())))
                .collect(),
            next_vpn: 0x10_0000, // leave low addresses unmapped
            next_remote: 0,
        }
    }

    /// Maps a new region of `pages` pages, assigning it a directly-mapped
    /// remote backing range, and returns the VMA.
    pub fn mmap(&mut self, pages: u64) -> Vma {
        let vma = Vma {
            start_vpn: self.next_vpn,
            pages,
            remote_base: self.next_remote,
        };
        self.next_vpn += pages + 512; // guard gap
        self.next_remote += pages;
        self.vmas.insert(vma.start_vpn, vma.clone());
        vma
    }

    /// Finds the VMA containing `vpn`.
    pub fn find(&self, vpn: u64) -> Option<&Vma> {
        self.vmas
            .range(..=vpn)
            .next_back()
            .map(|(_, v)| v)
            .filter(|v| v.contains(vpn))
    }

    /// The metadata lock guarding faults on `vpn`, if the model has one.
    pub fn lock_for(&self, vpn: u64) -> Option<&Rc<SimMutex<()>>> {
        match self.lock_model {
            VmaLockModel::None => None,
            VmaLockModel::Global => Some(&self.locks[0]),
            VmaLockModel::Sharded(_) => {
                let shard =
                    (mage_sim::rng::mix64(vpn >> (21 - PAGE_SHIFT)) as usize) % self.locks.len();
                Some(&self.locks[shard])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mage_sim::Simulation;

    fn space(model: VmaLockModel) -> AddressSpace {
        AddressSpace::new(Simulation::new().handle(), model)
    }

    #[test]
    fn mmap_and_find() {
        let mut asp = space(VmaLockModel::None);
        let a = asp.mmap(100);
        let b = asp.mmap(50);
        assert!(asp.find(a.start_vpn + 99).is_some());
        assert!(asp.find(a.start_vpn + 100).is_none(), "guard gap unmapped");
        assert_eq!(asp.find(b.start_vpn).unwrap().pages, 50);
    }

    #[test]
    fn direct_mapping_is_offset_preserving() {
        let mut asp = space(VmaLockModel::None);
        let a = asp.mmap(10);
        let b = asp.mmap(10);
        // Paper §4.2.3: local_addr + 512KB maps to remote_addr + 512KB.
        assert_eq!(a.remote_page(a.start_vpn + 7), a.remote_base + 7);
        // Remote ranges must not overlap between VMAs.
        assert_eq!(b.remote_base, a.remote_base + 10);
    }

    #[test]
    fn lock_model_selection() {
        let mut global = space(VmaLockModel::Global);
        let v = global.mmap(1000);
        let l1 = Rc::as_ptr(global.lock_for(v.start_vpn).unwrap());
        let l2 = Rc::as_ptr(global.lock_for(v.start_vpn + 999).unwrap());
        assert_eq!(l1, l2, "global model has one lock");

        let mut none = space(VmaLockModel::None);
        let v = none.mmap(10);
        assert!(none.lock_for(v.start_vpn).is_none());

        let mut sharded = space(VmaLockModel::Sharded(8));
        let v = sharded.mmap(1 << 14);
        // Different 2 MiB extents should spread across shards.
        let shards: std::collections::BTreeSet<_> = (0..32)
            .map(|i| Rc::as_ptr(sharded.lock_for(v.start_vpn + i * 512).unwrap()))
            .collect();
        assert!(shards.len() > 1, "sharding must use multiple locks");
        // Same extent always maps to the same shard.
        assert_eq!(
            Rc::as_ptr(sharded.lock_for(v.start_vpn).unwrap()),
            Rc::as_ptr(sharded.lock_for(v.start_vpn + 1).unwrap())
        );
    }

    #[test]
    #[should_panic(expected = "outside vma")]
    fn remote_page_out_of_bounds_panics() {
        let mut asp = space(VmaLockModel::None);
        let a = asp.mmap(10);
        let _ = a.remote_page(a.start_vpn + 10);
    }
}
