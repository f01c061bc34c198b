//! Randomized integration tests: seeded random machine shapes and access
//! mixes preserve the engine's safety and accounting invariants.

use std::rc::Rc;

use mage_far_memory::mmu::Topology;
use mage_far_memory::prelude::*;
use mage_far_memory::sim::rng::{self, SplitMix64};

/// Drives a random access mix on a random machine and returns
/// (major_faults, evicted, resident, free).
fn stress(
    system: SystemConfig,
    threads: u32,
    local_pages: u64,
    wss_pages: u64,
    ops: u32,
    seed: u64,
) -> (u64, u64, u64, u64) {
    let sim = Simulation::new();
    let params = MachineParams {
        topo: Topology::single_socket(threads + 6),
        app_threads: threads as usize,
        local_pages,
        remote_pages: wss_pages + 512,
        tlb_entries: 128,
        seed,
    };
    let engine = FarMemory::launch(sim.handle(), system, params);
    let vma = engine.mmap(wss_pages);
    engine.populate(&vma);
    let mut joins = Vec::new();
    for t in 0..threads {
        let e = Rc::clone(&engine);
        joins.push(sim.spawn(async move {
            let stream = rng::stream(seed, t as u64);
            for _ in 0..ops {
                let page = stream.next_below(wss_pages);
                let write = stream.next_below(5) == 0;
                e.access(CoreId(t), vma.start_vpn + page, write).await;
            }
        }));
    }
    sim.block_on(async move {
        for j in joins {
            j.await;
        }
    });
    engine.shutdown();
    // Eviction-stats identity: every unmapped page settles once (pages
    // still in flight at shutdown account for the difference), and a
    // batch can never observe more cancellations than faults performed.
    let s = engine.stats();
    let settled = s.settled_pages();
    assert!(
        settled <= s.unmapped_pages.get(),
        "settled {settled} > unmapped {}",
        s.unmapped_pages.get()
    );
    assert!(s.evict_cancelled_pages.get() <= s.evict_cancels.get());
    (
        engine.stats().major_faults.get(),
        engine.stats().evicted_pages.get() + engine.stats().sync_evicted_pages.get(),
        engine.accounting().resident_pages(),
        engine.allocator().free_frames(),
    )
}

/// For every system and random shape: runs terminate (no deadlock),
/// frames are conserved, and residency never exceeds the quota.
#[test]
fn engine_invariants_hold() {
    let rng = SplitMix64::new(0x1217_AB1E);
    for case in 0..12u64 {
        let system = match rng.next_below(4) {
            0 => SystemConfig::mage_lib(),
            1 => SystemConfig::mage_lnx(),
            2 => SystemConfig::dilos(),
            _ => SystemConfig::hermit(),
        };
        let threads = (1 + rng.next_below(8)) as u32;
        let local_frac = 3 + rng.next_below(6); // local = wss * frac / 10
        let wss_pages = 2_000 + rng.next_below(4_000);
        let ops = (500 + rng.next_below(1_000)) as u32;
        let seed = rng.next_below(1_000_000);
        let local_pages = (wss_pages * local_frac / 10).max(600);
        let (faults, evicted, resident, free) =
            stress(system, threads, local_pages, wss_pages, ops, seed);

        // Terminated (this line being reached) and produced work.
        assert!(faults + evicted < u64::MAX);
        // No over-commit: resident + free never exceeds the quota.
        assert!(
            resident + free <= local_pages,
            "case {case}: resident {resident} + free {free} > quota {local_pages}",
        );
        // No massive leak: the unaccounted slack is bounded by the
        // eviction pipeline's in-flight capacity.
        let slack = local_pages - (resident + free);
        assert!(
            slack <= 4 * 256 * 3 + 64,
            "case {case}: {slack} frames unaccounted"
        );
    }
}

/// Determinism: same shape, same seed → identical outcome for randomly
/// chosen configurations.
#[test]
fn determinism_for_random_shapes() {
    let rng = SplitMix64::new(0xD373_0000);
    for _ in 0..4 {
        let threads = (1 + rng.next_below(5)) as u32;
        let wss_pages = 2_000 + rng.next_below(2_000);
        let seed = rng.next_below(100_000);
        let a = stress(
            SystemConfig::mage_lib(),
            threads,
            wss_pages / 2,
            wss_pages,
            600,
            seed,
        );
        let b = stress(
            SystemConfig::mage_lib(),
            threads,
            wss_pages / 2,
            wss_pages,
            600,
            seed,
        );
        assert_eq!(a, b);
    }
}
