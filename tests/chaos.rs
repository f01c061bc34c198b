//! Chaos suite: seeded fault-injection sweeps over the whole engine.
//!
//! Every run drives heavy fault-in + eviction churn through a faulty
//! fabric (transfer errors, latency spikes, link brownouts, remote-node
//! crash windows) and then checks the safety invariants that must hold
//! no matter what the link does:
//!
//! (a) no frame is reclaimed while a stale TLB entry still translates
//!     its page — every remote PTE implies every core's TLB misses;
//! (b) the settlement identity
//!     `evicted + sync + cancelled + requeued ≤ unmapped`;
//! (c) no page is lost: every VMA page is either resident or still
//!     reachable remotely, even after aborted fault-ins and requeued
//!     writebacks.
//!
//! The sweep covers ≥ 64 (system × fault-plan × seed) cells. Each assert
//! carries the cell label and seed so a failing run can be replayed in
//! isolation.

use std::rc::Rc;

use mage_far_memory::mmu::Topology;
use mage_far_memory::prelude::*;

const CORES: u32 = 8;
const THREADS: usize = 4;
const VMA_PAGES: u64 = 512;

/// Frequent transient CQ errors plus latency spikes: exercises the
/// bounded-retry path on both fault-in reads and eviction writes.
fn errors(rate: f64, seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        error_rate: rate,
        spike_rate: 0.1,
        spike_ns: 20_000,
        ..FaultPlan::none()
    }
}

/// Periodic bandwidth-collapse windows of the given width.
fn brownouts(duration_ns: u64, seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        error_rate: 0.02,
        brownout_period_ns: 400_000,
        brownout_duration_ns: duration_ns,
        brownout_rate: 0.5,
        brownout_bw_div: 8,
        ..FaultPlan::none()
    }
}

/// Remote-node crash/recovery windows: ops fail fast while down.
fn crashes(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        crash_period_ns: 500_000,
        crash_duration_ns: 60_000,
        crash_rate: 0.5,
        ..FaultPlan::none()
    }
}

struct ChaosOutcome {
    transfer_retries: u64,
    requeued_victims: u64,
    failed_accesses: u64,
}

/// One chaos cell: launch, churn two rounds over the working set under
/// the fault plan, then check every invariant. `label` and `seed` are
/// echoed in every assert for replay.
fn chaos_run(system: SystemConfig, plan: FaultPlan, label: &str, seed: u64) -> ChaosOutcome {
    let retry = RetryPolicy {
        max_retries: 2,
        ..RetryPolicy::default()
    };
    let system = system.with_faults(plan).with_retry(retry);
    let sim = Simulation::new();
    let params = MachineParams {
        topo: Topology::single_socket(CORES),
        app_threads: THREADS,
        local_pages: 256,
        remote_pages: 4_096,
        tlb_entries: 64,
        seed,
    };
    let engine = FarMemory::launch(sim.handle(), system, params);
    let vma = engine.mmap(VMA_PAGES);
    engine.populate(&vma);

    let e = Rc::clone(&engine);
    let v = vma.clone();
    let failed_accesses = sim.block_on(async move {
        let mut failed = 0u64;
        for round in 0..2 {
            for i in 0..v.pages {
                let core = CoreId((i % THREADS as u64) as u32);
                let access = e.access(core, v.start_vpn + i, round == 0).await;
                if matches!(access, Access::Failed { .. }) {
                    failed += 1;
                }
            }
        }
        failed
    });
    engine.shutdown();

    // (a) Settled remote page ⇒ no core still translates it. A page
    // that is remote *and locked* is mid-eviction: its frame is not
    // reclaimed until the shootdown ack arrives and finalize unlocks
    // it, so a TLB entry there is not stale — shutdown can freeze a
    // batch between unmap and ack.
    for i in 0..vma.pages {
        let vpn = vma.start_vpn + i;
        let pte = engine.page_table().get(vpn);
        if pte.is_remote() && !pte.locked() {
            for c in 0..CORES {
                assert!(
                    !engine.interrupts().tlb(CoreId(c)).translates(vpn),
                    "[{label} seed={seed}] stale TLB entry: core {c} still \
                     translates remote vpn {vpn}"
                );
            }
        }
    }

    // (b) Settlement identity with the requeue term.
    let s = engine.stats();
    let settled = s.settled_pages();
    assert!(
        settled <= s.unmapped_pages.get(),
        "[{label} seed={seed}] settled {settled} > unmapped {}",
        s.unmapped_pages.get()
    );

    // (c) No page lost: resident or reachable remotely, never neither.
    for i in 0..vma.pages {
        let vpn = vma.start_vpn + i;
        let pte = engine.page_table().get(vpn);
        assert!(
            pte.is_present() || pte.is_remote(),
            "[{label} seed={seed}] page lost: vpn {vpn} neither resident \
             nor remote"
        );
    }

    // Frame conservation still holds under injected failures.
    let resident = engine.accounting().resident_pages();
    let free = engine.allocator().free_frames();
    assert!(
        resident + free <= 256,
        "[{label} seed={seed}] resident {resident} + free {free} \
         over-commits the local quota"
    );

    ChaosOutcome {
        transfer_retries: s.transfer_retries.get(),
        requeued_victims: s.requeued_victims.get(),
        failed_accesses,
    }
}

type SystemCtor = (&'static str, fn() -> SystemConfig);

struct SweepTotals {
    retries: u64,
    requeued: u64,
    failed: u64,
    cells: usize,
}

fn sweep(systems: &[SystemCtor]) -> SweepTotals {
    let mut retries = 0u64;
    let mut requeued = 0u64;
    let mut failed = 0u64;
    let mut cells = 0usize;
    for (name, system) in systems {
        for fault_seed in 0..4u64 {
            let plans: [(&str, FaultPlan); 4] = [
                ("err-5%", errors(0.05, 0xC0FFEE ^ fault_seed)),
                ("err-50%", errors(0.5, 0xBADD ^ fault_seed)),
                ("brownout", brownouts(100_000 + 40_000 * fault_seed, 0xD1 ^ fault_seed)),
                ("crash", crashes(0x5EED ^ fault_seed)),
            ];
            for (plan_name, plan) in plans {
                for seed in [11u64, 29] {
                    let label = format!("{name}/{plan_name}/fseed={fault_seed}");
                    let out = chaos_run(system(), plan.clone(), &label, seed);
                    retries += out.transfer_retries;
                    requeued += out.requeued_victims;
                    failed += out.failed_accesses;
                    cells += 1;
                }
            }
        }
    }
    SweepTotals {
        retries,
        requeued,
        failed,
        cells,
    }
}

/// The main sweep: 2 systems × 4 plan families × 4 fault seeds × 2 engine
/// seeds = 64 cells, each upholding every invariant.
#[test]
fn chaos_sweep_preserves_invariants() {
    let systems: [SystemCtor; 2] = [
        ("mage_lib", SystemConfig::mage_lib),
        ("hermit", SystemConfig::hermit),
    ];
    let t = sweep(&systems);
    assert!(t.cells >= 64, "sweep shrank to {} cells", t.cells);
    // The sweep must actually exercise the machinery it protects: the
    // high-error cells are tuned so retries fire and some exhaust.
    assert!(
        t.retries > 0,
        "no transfer was ever retried across {} cells",
        t.cells
    );
    assert!(
        t.requeued > 0,
        "no eviction victim was ever requeued across {} cells",
        t.cells
    );
    assert!(
        t.failed > 0,
        "no access ever exhausted its retry budget across {} cells",
        t.cells
    );
}

/// A crashed remote node must never wedge the engine: accesses during
/// the outage fail with typed errors and succeed once the node recovers.
#[test]
fn crash_windows_fail_typed_and_recover() {
    let out = chaos_run(SystemConfig::mage_lib(), crashes(0xD05E), "crash-solo", 7);
    assert!(out.failed_accesses > 0, "crash windows never surfaced a failure");
}

/// Retry spans are emitted only when the retry machinery actually runs:
/// a clean link produces a trace with no `retry`-category events, while
/// an active error-injecting [`FaultPlan`] produces them. Guards against
/// the clean fast path growing tracing overhead (or phantom spans).
#[test]
fn retry_spans_appear_only_under_an_active_fault_plan() {
    let traced_run = |plan: FaultPlan, seed: u64| {
        let retry = RetryPolicy {
            max_retries: 2,
            ..RetryPolicy::default()
        };
        let system = SystemConfig::mage_lib().with_faults(plan).with_retry(retry);
        let sim = Simulation::new();
        let params = MachineParams {
            topo: Topology::single_socket(CORES),
            app_threads: THREADS,
            local_pages: 256,
            remote_pages: 4_096,
            tlb_entries: 64,
            seed,
        };
        let engine = FarMemory::launch(sim.handle(), system, params);
        let tracer = Tracer::new(sim.handle());
        engine.attach_tracer(std::rc::Rc::clone(&tracer));
        let vma = engine.mmap(VMA_PAGES);
        engine.populate(&vma);
        let e = Rc::clone(&engine);
        let v = vma.clone();
        sim.block_on(async move {
            for round in 0..2 {
                for i in 0..v.pages {
                    let core = CoreId((i % THREADS as u64) as u32);
                    e.access(core, v.start_vpn + i, round == 0).await;
                }
            }
        });
        engine.shutdown();
        tracer.to_chrome_json()
    };

    let clean = traced_run(
        FaultPlan {
            seed: 0xABCD,
            ..FaultPlan::none()
        },
        3,
    );
    assert!(
        !clean.contains("\"cat\":\"retry\""),
        "clean link must not emit retry spans"
    );

    let faulty = traced_run(errors(0.5, 0xBADD), 3);
    assert!(
        faulty.contains("\"cat\":\"retry\""),
        "50% error injection never reached the retry path"
    );
}

// ---------------------------------------------------------------------
// Kill-a-node-mid-sweep battery: with page replication on, a memory-node
// crash costs failover latency, never data. Every cell asserts
//
//   (a) zero lost pages — every VMA page resident or remote;
//   (b) zero aborted faults and zero failed accesses — reads fail over
//       to the surviving replica instead of exhausting retries;
//   (c) every settled remote page keeps ≥ 1 synced/rebuilding replica;
//   (d) the replica state machine was never violated.
//
// The replication-off sweeps above are untouched: unreplicated configs
// take byte-identical code paths (pinned by tests/seams.rs goldens).
// ---------------------------------------------------------------------

struct ReplicatedOutcome {
    failover_reads: u64,
    rereplicated_pages: u64,
    failed_accesses: u64,
}

/// One node-kill cell: two memory nodes with provably disjoint staggered
/// crash windows, replication on, two access rounds over the WSS.
fn replicated_chaos_run(
    period_ns: u64,
    duration_ns: u64,
    plan_seed: u64,
    seed: u64,
    label: &str,
) -> ReplicatedOutcome {
    let nodes = 2usize;
    let node_plans: Vec<FaultPlan> = (0..nodes)
        .map(|i| FaultPlan::staggered_node_crash(plan_seed, i, nodes, period_ns, duration_ns))
        .collect();
    let retry = RetryPolicy {
        max_retries: 2,
        ..RetryPolicy::default()
    };
    let system = SystemConfig::mage_lib()
        .with_replication(ReplicationConfig {
            nodes,
            repair_poll_ns: 10_000,
            node_faults: node_plans,
        })
        .with_retry(retry);
    let sim = Simulation::new();
    let params = MachineParams {
        topo: Topology::single_socket(CORES),
        app_threads: THREADS,
        local_pages: 256,
        remote_pages: 4_096,
        tlb_entries: 64,
        seed,
    };
    let engine = FarMemory::launch(sim.handle(), system, params);
    let vma = engine.mmap(VMA_PAGES);
    engine.populate(&vma);

    let e = Rc::clone(&engine);
    let v = vma.clone();
    let failed_accesses = sim.block_on(async move {
        let mut failed = 0u64;
        for round in 0..2 {
            for i in 0..v.pages {
                let core = CoreId((i % THREADS as u64) as u32);
                let access = e.access(core, v.start_vpn + i, round == 0).await;
                if matches!(access, Access::Failed { .. }) {
                    failed += 1;
                }
            }
        }
        failed
    });
    engine.shutdown();

    // (a) Zero lost pages.
    for i in 0..vma.pages {
        let vpn = vma.start_vpn + i;
        let pte = engine.page_table().get(vpn);
        assert!(
            pte.is_present() || pte.is_remote(),
            "[{label} seed={seed}] page lost: vpn {vpn} neither resident nor remote"
        );
    }

    // (b) Node crashes cost failover latency, never aborted faults.
    let s = engine.stats();
    assert_eq!(
        s.aborted_faults.get(),
        0,
        "[{label} seed={seed}] a fault-in aborted despite replication"
    );
    assert_eq!(
        failed_accesses, 0,
        "[{label} seed={seed}] an access failed despite replication"
    );

    // (c) Every settled remote page keeps a live replica.
    for i in 0..vma.pages {
        let vpn = vma.start_vpn + i;
        let pte = engine.page_table().get(vpn);
        if pte.is_remote() && !pte.locked() {
            let states = engine
                .backend()
                .replica_states(pte.payload())
                .unwrap_or_else(|| {
                    panic!("[{label} seed={seed}] untracked remote slot {}", pte.payload())
                });
            assert!(
                states
                    .iter()
                    .any(|st| matches!(st, ReplicaState::Synced | ReplicaState::Rebuilding)),
                "[{label} seed={seed}] vpn {vpn} has no live replica: {states:?}"
            );
        }
    }

    // (d) The replica state machine was obeyed throughout.
    let rstats = engine
        .backend()
        .replication_stats()
        .expect("replicated backend exposes repair stats");
    assert_eq!(
        rstats.illegal_transitions.get(),
        0,
        "[{label} seed={seed}] replica state machine violated"
    );

    ReplicatedOutcome {
        failover_reads: s.failover_reads.get(),
        rereplicated_pages: rstats.rereplicated_pages.get(),
        failed_accesses,
    }
}

/// The node-kill sweep: 4 outage geometries × 4 plan seeds × 4 engine
/// seeds = 64 cells. Replication must hold every cell to zero lost pages
/// and zero aborted faults, and the sweep as a whole must actually
/// exercise failover and re-replication.
#[test]
fn node_kill_sweep_loses_nothing_with_replication() {
    let geometries: [(&str, u64, u64); 4] = [
        ("short-frequent", 400_000, 40_000),
        ("long-rare", 1_000_000, 120_000),
        ("mid", 600_000, 60_000),
        ("tight", 300_000, 30_000),
    ];
    let mut cells = 0usize;
    let mut failovers = 0u64;
    let mut repairs = 0u64;
    for (geo, period, duration) in geometries {
        for plan_seed in 0..4u64 {
            for seed in [5u64, 13, 23, 31] {
                let label = format!("replicated/{geo}/pseed={plan_seed}");
                let out =
                    replicated_chaos_run(period, duration, 0x5EED ^ plan_seed, seed, &label);
                failovers += out.failover_reads;
                repairs += out.rereplicated_pages;
                assert_eq!(out.failed_accesses, 0);
                cells += 1;
            }
        }
    }
    assert!(cells >= 64, "sweep shrank to {cells} cells");
    assert!(
        failovers > 0,
        "no read ever failed over across {cells} cells"
    );
    assert!(
        repairs > 0,
        "no page was ever re-replicated across {cells} cells"
    );
}

/// Zero-amplitude plans take the clean fast path: no retries, no
/// failures, no requeues, regardless of the plan seed.
#[test]
fn inactive_plan_is_noise_free() {
    let out = chaos_run(
        SystemConfig::mage_lib(),
        FaultPlan {
            seed: 0xABCD,
            ..FaultPlan::none()
        },
        "inactive",
        3,
    );
    assert_eq!(out.transfer_retries, 0, "clean link must not retry");
    assert_eq!(out.requeued_victims, 0, "clean link must not requeue");
    assert_eq!(out.failed_accesses, 0, "clean link must not fail accesses");
}
