//! Integration tests for the engine's seams: every [`EvictionPolicy`]
//! implementation (the one trait seam) and both remote-slot placements of
//! the far-memory backend must run the full engine end-to-end while
//! preserving the safety invariants the default configuration
//! guarantees.

use std::rc::Rc;

use mage_far_memory::engine::reclaim::EvictionPolicy;
use mage_far_memory::engine::RemoteAllocKind;
use mage_far_memory::mmu::{PageTable, Topology, Vma};
use mage_far_memory::prelude::*;

fn launch(system: SystemConfig, seed: u64) -> (Simulation, Rc<FarMemory>, Vma) {
    let sim = Simulation::new();
    let params = MachineParams {
        topo: Topology::single_socket(8),
        app_threads: 4,
        local_pages: 512,
        remote_pages: 4_096,
        tlb_entries: 64,
        seed,
    };
    let engine = FarMemory::launch(sim.handle(), system, params);
    let vma = engine.mmap(1_024);
    engine.populate(&vma);
    (sim, engine, vma)
}

/// Two rounds over the working set, forcing heavy eviction traffic.
fn churn(sim: &Simulation, engine: &Rc<FarMemory>, vma: &Vma) {
    let e = Rc::clone(engine);
    let vma = vma.clone();
    sim.block_on(async move {
        for round in 0..2 {
            for i in 0..vma.pages {
                e.access(CoreId((i % 4) as u32), vma.start_vpn + i, round == 0)
                    .await;
            }
        }
    });
    engine.shutdown();
}

/// The invariants every configuration must uphold after churn: frame
/// conservation, eviction progress, a consistent stats identity, and no
/// stale TLB entry for any remote page.
fn assert_safe(engine: &Rc<FarMemory>, vma: &Vma, label: &str) {
    let resident = engine.accounting().resident_pages();
    let free = engine.allocator().free_frames();
    assert!(
        resident + free <= 512,
        "{label}: resident {resident} + free {free} over-commits"
    );
    assert!(
        engine.stats().evicted_pages.get() > 0,
        "{label}: no eviction progress"
    );
    let s = engine.stats();
    let settled = s.settled_pages();
    assert!(
        settled <= s.unmapped_pages.get(),
        "{label}: settled {settled} > unmapped {}",
        s.unmapped_pages.get()
    );
    assert!(
        s.major_faults.get() > vma.pages / 4,
        "{label}: churn produced too few faults"
    );
}

/// Every shipped eviction policy drives the engine end-to-end under the
/// same seed and upholds the same invariants (policy parity).
#[test]
fn every_policy_preserves_invariants() {
    let policies = [
        EvictionPolicyKind::SecondChance,
        EvictionPolicyKind::Fifo,
        EvictionPolicyKind::Clock,
        EvictionPolicyKind::S3Fifo,
        EvictionPolicyKind::ApproxLru,
    ];
    for kind in policies {
        let system = SystemConfig::mage_lib().with_eviction_policy(kind);
        let (sim, engine, vma) = launch(system, 21);
        assert_eq!(engine.eviction_policy().name(), kind.name());
        churn(&sim, &engine, &vma);
        assert_safe(&engine, &vma, kind.name());
        assert_eq!(
            engine.stats().sync_evictions.get(),
            0,
            "{}: MAGE P1 must hold for every policy",
            kind.name()
        );
    }
}

/// The accounting structure runs under the queue discipline its policy
/// names, with the preset's partition count: S3-FIFO gets small/main
/// queues, MAGE-Lnx's FIFO skips the recheck, CLOCK rotates in place,
/// and every other policy keeps LRU lists.
#[test]
fn s3fifo_policy_pairs_with_s3fifo_accounting() {
    use mage_far_memory::accounting::Discipline;

    let lib = |policy| SystemConfig::mage_lib().with_eviction_policy(policy);
    let cases = [
        (lib(EvictionPolicyKind::S3Fifo), Discipline::S3Fifo, 8),
        (lib(EvictionPolicyKind::Clock), Discipline::Clock, 8),
        (lib(EvictionPolicyKind::ApproxLru), Discipline::Lru, 8),
        (SystemConfig::mage_lnx(), Discipline::Fifo, 8),
        (SystemConfig::dilos(), Discipline::Lru, 1),
    ];
    for (system, discipline, partitions) in cases {
        let policy = system.eviction_policy.name();
        let (_sim, engine, _vma) = launch(system, 21);
        assert_eq!(engine.eviction_policy().name(), policy);
        assert_eq!(engine.accounting().discipline(), discipline, "{policy}");
        assert_eq!(engine.accounting().partition_count(), partitions, "{policy}");
    }
}

/// Same seed, same accesses: a policy swap changes *which* pages are
/// evicted but never the total amount of work the application observes.
#[test]
fn policy_swap_conserves_accesses() {
    let mut totals = Vec::new();
    for kind in [EvictionPolicyKind::SecondChance, EvictionPolicyKind::Fifo] {
        let system = SystemConfig::mage_lib().with_eviction_policy(kind);
        let (sim, engine, vma) = launch(system, 21);
        churn(&sim, &engine, &vma);
        totals.push(engine.stats().accesses.get());
    }
    assert_eq!(totals[0], totals[1], "access count is policy-independent");
}

/// The RDMA backend drives the engine end-to-end with the safety
/// invariants intact.
#[test]
fn backend_swap_preserves_invariants() {
    let system = SystemConfig::mage_lib();
    let (sim, engine, vma) = launch(system, 33);
    churn(&sim, &engine, &vma);
    assert_safe(&engine, &vma, "rdma");
}

/// Swap-slot placement hands out a fresh slot on every eviction, so the
/// backend reports `writes_clean_pages()` and the engine must write clean
/// pages back; under the same read-only run VMA direct mapping keeps the
/// old remote copy valid and reclaims clean pages for free.
#[test]
fn swap_slots_rewrite_clean_pages() {
    let mut clean_reclaims = Vec::new();
    let mut writebacks = Vec::new();
    for remote_alloc in [RemoteAllocKind::DirectMap, RemoteAllocKind::SwapLock] {
        let system = SystemConfig {
            remote_alloc,
            ..SystemConfig::mage_lib()
        };
        let (sim, engine, vma) = launch(system, 5);
        assert_eq!(
            engine.backend().writes_clean_pages(),
            remote_alloc == RemoteAllocKind::SwapLock
        );
        let e = Rc::clone(&engine);
        sim.block_on(async move {
            // Read-only traffic: pages stay clean after their first
            // writeback, so direct mapping can skip re-writing them.
            for _round in 0..3 {
                for i in 0..vma.pages {
                    e.access(CoreId((i % 4) as u32), vma.start_vpn + i, false).await;
                }
            }
        });
        engine.shutdown();
        clean_reclaims.push(engine.stats().clean_reclaims.get());
        writebacks.push(engine.stats().writebacks.get());
    }
    assert!(
        clean_reclaims[0] > 0,
        "direct mapping must reclaim clean pages without writes"
    );
    assert_eq!(
        clean_reclaims[1], 0,
        "swap slots invalidate the old copy: every eviction writes"
    );
    assert!(
        writebacks[1] > writebacks[0],
        "swap slots must write back more: {writebacks:?}"
    );
}

/// Pinned golden schedules. The first two rows were captured before the
/// fault-injection layer existed: with the default `FaultPlan::none()`
/// the fault layer must be bit-invisible, so any drift means the clean
/// path now consumes RNG draws, schedules extra events, or awaits
/// differently than it used to. The four preset rows pin the victim
/// selection paths the eviction policy picks: MAGE-Lnx's no-recheck FIFO
/// queues, DiLOS's single global list, CLOCK's in-place rotation and
/// S3-FIFO's ghost-fed main queue.
#[test]
fn zero_fault_path_matches_pre_fault_layer_golden_values() {
    use mage_far_memory::workloads::runner::{run_batch, RunConfig};
    use mage_far_memory::workloads::WorkloadKind;

    type Golden = (u64, u64, u64, u64, u64, u64, u64, u64, u64);
    let gups = |system: SystemConfig| {
        let mut cfg = RunConfig::new(system, WorkloadKind::Gups, 4, 2048, 0.5);
        cfg.ops_per_thread = 500;
        cfg.seed = 7;
        cfg
    };
    let mut seq = RunConfig::new(SystemConfig::mage_lib(), WorkloadKind::SeqFault, 2, 2048, 0.5);
    seq.all_remote = true;
    seq.ops_per_thread = 1024;
    seq.seed = 0xA11CE;

    let cases: [(&str, RunConfig, Golden); 6] = [
        (
            "mage_lib/SeqFault",
            seq,
            (5_396_662, 2_048, 2_048, 5_119, 9_471, 1_964, 0, 0, 4_662_422_839_683_448_832),
        ),
        (
            "hermit/Gups",
            gups(SystemConfig::hermit()),
            (1_110_675, 2_000, 521, 7_807, 15_359, 410, 0, 101, 4_664_748_314_519_089_569),
        ),
        (
            "mage_lnx/Gups",
            gups(SystemConfig::mage_lnx()),
            (1_051_318, 2_000, 680, 6_271, 6_527, 608, 0, 112, 4_662_766_977_639_292_061),
        ),
        (
            "dilos/Gups",
            gups(SystemConfig::dilos()),
            (922_965, 2_000, 536, 5_375, 11_775, 617, 0, 30, 4_662_812_068_065_735_328),
        ),
        (
            "mage_lib+clock/Gups",
            gups(SystemConfig::mage_lib().with_eviction_policy(EvictionPolicyKind::Clock)),
            (821_888, 2_000, 629, 5_119, 5_503, 565, 0, 100, 4_661_605_543_666_718_098),
        ),
        (
            "mage_lib+s3fifo/Gups",
            gups(SystemConfig::mage_lib().with_eviction_policy(EvictionPolicyKind::S3Fifo)),
            (818_514, 2_000, 630, 5_119, 5_503, 563, 0, 105, 4_661_570_035_473_235_916),
        ),
    ];
    for (label, cfg, want) in cases {
        let churns = cfg.kind == WorkloadKind::Gups;
        let r = run_batch(&cfg);
        let got = (
            r.runtime_ns,
            r.total_ops,
            r.major_faults,
            r.fault_p50_ns,
            r.fault_p99_ns,
            r.evicted_pages,
            r.sync_evictions,
            r.evict_cancels,
            r.fault_mean_ns.to_bits(),
        );
        assert_eq!(got, want, "{label} drifted from its pinned schedule");

        // The fault-layer counters must read zero on a clean link.
        assert_eq!(r.transfer_retries, 0, "{label}");
        assert_eq!(r.transfer_failures, 0, "{label}");
        assert_eq!(r.aborted_faults, 0, "{label}");
        assert_eq!(r.requeued_victims, 0, "{label}");

        // The ghost-feedback counters flow into the report without having
        // moved the pinned schedules above.
        assert!(r.ghost_hits >= r.re_faults, "{label}: re-faults are ghost hits");
        assert!(!churns || r.re_faults > 0, "{label}: churn must observe re-faults");
    }
}

/// A user-supplied policy plugs in through `EvictionPolicyKind::Custom`.
#[test]
fn custom_policy_plugs_in() {
    struct EvictEverything;
    impl EvictionPolicy for EvictEverything {
        fn name(&self) -> &'static str {
            "evict-everything"
        }
        fn test_and_age(&self, pt: &PageTable, vpn: u64) -> bool {
            pt.update(vpn, |p| p.with_accessed(false));
            false
        }
    }

    let system = SystemConfig::mage_lib().with_eviction_policy(EvictionPolicyKind::Custom {
        name: "evict-everything",
        build: || Box::new(EvictEverything),
    });
    let (sim, engine, vma) = launch(system, 13);
    assert_eq!(engine.eviction_policy().name(), "evict-everything");
    churn(&sim, &engine, &vma);
    assert_safe(&engine, &vma, "evict-everything");
}
