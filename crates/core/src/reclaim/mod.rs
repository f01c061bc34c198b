//! The eviction path (`EP₁`–`EP₃`), layered:
//!
//! - [`policy`] — pluggable victim-selection policies (the second-chance
//!   test of `EP₁` and its alternatives), behind the [`EvictionPolicy`]
//!   trait;
//! - `batch` — the life of one batch: unmap, shootdown, writeback,
//!   reclaim (steps ①–⑦ of §4.1), shared by every eviction flavour;
//! - `pipeline` — the background evictor threads: sequential loop,
//!   MAGE's cross-batch pipelined evictor (P2) and Hermit's scaling
//!   controller.
//!
//! The split keeps one `scan_and_unmap`/`finalize_batch` implementation
//! under all four entry points (background sequential, background
//! pipelined, synchronous fault-path fallback, forced pageout); policies
//! and backends extend the path through traits instead of engine edits.

pub mod policy;

pub(crate) mod batch;
pub(crate) mod pipeline;

pub use policy::{ApproxLru, Clock, EvictionPolicy, Fifo, S3Fifo, SecondChance};

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use mage_mmu::{CoreId, Topology};
    use mage_sim::Simulation;

    use crate::machine::{Access, FarMemory, MachineParams};
    use crate::reclaim::batch::EvictPage;
    use crate::SystemConfig;

    fn rig(cfg: SystemConfig, local_pages: u64) -> (Simulation, Rc<FarMemory>, mage_mmu::Vma) {
        let sim = Simulation::new();
        let params = MachineParams {
            topo: Topology::single_socket(8),
            app_threads: 4,
            local_pages,
            remote_pages: 8_192,
            tlb_entries: 128,
            seed: 11,
        };
        let engine = FarMemory::launch(sim.handle(), cfg, params);
        let vma = engine.mmap(2_048);
        engine.populate(&vma);
        (sim, engine, vma)
    }

    #[test]
    fn refault_cancels_inflight_eviction() {
        let (sim, engine, vma) = rig(SystemConfig::mage_lib(), 512);
        let e = Rc::clone(&engine);
        sim.block_on(async move {
            let vpn = (0..vma.pages)
                .map(|i| vma.start_vpn + i)
                .find(|&v| e.pt.get(v).is_present())
                .expect("local page");
            let frame = e.pt.get(vpn).payload();
            // Simulate the page being mid-eviction (unmapped, locked,
            // shootdown/writeback pending).
            e.pt.set(vpn, mage_mmu::Pte::remote(7).with_locked(true));
            e.evicting.borrow_mut().insert(vpn, (frame, 424242));
            let access = e.access(CoreId(0), vpn, false).await;
            assert!(matches!(access, Access::Major { .. }));
            assert_eq!(e.stats.evict_cancels.get(), 1);
            let pte = e.pt.get(vpn);
            assert!(pte.is_present(), "cancelled page must be re-mapped");
            assert_eq!(pte.payload(), frame, "same frame reclaimed");
            assert!(pte.dirty(), "remote copy may be stale => dirty");
            assert!(e.evicting.borrow().is_empty(), "cancel consumed the entry");
        });
    }

    #[test]
    fn stale_generation_is_not_reclaimed_by_old_batch() {
        // A cancelled-and-re-evicted page must only be finalized by the
        // batch that currently owns it (ABA protection).
        let (sim, engine, vma) = rig(SystemConfig::mage_lib(), 512);
        let e = Rc::clone(&engine);
        sim.block_on(async move {
            let vpn = (0..vma.pages)
                .map(|i| vma.start_vpn + i)
                .find(|&v| e.pt.get(v).is_present())
                .expect("local page");
            let frame = e.pt.get(vpn).payload();
            e.pt.set(vpn, mage_mmu::Pte::remote(7).with_locked(true));
            // Newer generation owns the entry.
            e.evicting.borrow_mut().insert(vpn, (frame, 2));
            let old_batch = vec![EvictPage {
                vpn,
                frame,
                rpn: 7,
                dirty: false,
                gen: 1,
            }];
            let free_before = e.alloc.free_frames();
            let reclaimed = e.finalize_batch(CoreId(4), &old_batch, false).await;
            assert_eq!(reclaimed, 0, "stale batch reclaims nothing");
            assert_eq!(
                e.alloc.free_frames(),
                free_before,
                "stale batch must not free the frame"
            );
            assert_eq!(e.stats.evict_cancelled_pages.get(), 1);
            assert_eq!(
                e.stats.evicted_pages.get(),
                0,
                "cancelled pages are not counted as evicted"
            );
            assert!(e.pt.get(vpn).locked(), "newer owner's lock intact");
        });
    }

    #[test]
    fn hermit_scaling_controller_reacts_to_pressure() {
        let (sim, engine, vma) = rig(SystemConfig::hermit(), 512);
        assert_eq!(engine.active_evictors.get(), 4);
        let e = Rc::clone(&engine);
        sim.block_on(async move {
            // Hammer faults so free pages stay scarce for a while.
            for round in 0..3 {
                for i in 0..vma.pages {
                    e.access(CoreId((i % 4) as u32), vma.start_vpn + i, round == 0)
                        .await;
                }
            }
        });
        assert!(
            engine.active_evictors.get() > 4 || engine.stats.sync_evictions.get() > 0,
            "pressure must either scale evictors or trigger sync eviction"
        );
    }

    #[test]
    fn sequential_and_pipelined_agree_on_conservation() {
        for pipelined in [false, true] {
            let mut cfg = SystemConfig::mage_lib();
            cfg.pipelined_eviction = pipelined;
            let (sim, engine, vma) = rig(cfg, 512);
            let e = Rc::clone(&engine);
            sim.block_on(async move {
                for i in 0..vma.pages {
                    e.access(CoreId((i % 4) as u32), vma.start_vpn + i, i % 3 == 0)
                        .await;
                }
            });
            engine.shutdown();
            let resident = engine.acct.resident_pages();
            let free = engine.alloc.free_frames();
            assert!(resident + free <= 512, "pipelined={pipelined}: over-commit");
            assert!(engine.stats.evicted_pages.get() > 0);
        }
    }

    #[test]
    fn evicted_and_cancelled_pages_account_for_every_unmap() {
        // Every page that enters the eviction machinery (unmapped) must
        // leave it as exactly one of: evicted, sync-evicted, cancelled —
        // or still be in flight at shutdown.
        let (sim, engine, vma) = rig(SystemConfig::mage_lib(), 512);
        let e = Rc::clone(&engine);
        sim.block_on(async move {
            for round in 0..2 {
                for i in 0..vma.pages {
                    e.access(CoreId((i % 4) as u32), vma.start_vpn + i, round == 0)
                        .await;
                }
            }
        });
        engine.shutdown();
        let s = engine.stats();
        // Each unmapped page settles once (a fault-side cancel is
        // observed by its owning batch as a cancelled page later).
        let settled = s.settled_pages();
        let unmapped = s.unmapped_pages.get();
        assert!(unmapped > 0);
        assert!(settled <= unmapped, "settled {settled} > unmapped {unmapped}");
        let in_flight = unmapped - settled;
        assert!(
            in_flight <= 3 * 256 * 4,
            "{in_flight} pages unaccounted beyond pipeline capacity"
        );
        assert!(
            s.evict_cancelled_pages.get() <= s.evict_cancels.get(),
            "a batch observed more cancellations than faults performed"
        );
    }
}
