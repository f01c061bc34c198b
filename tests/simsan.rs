//! simsan integration suite: the happens-before race detector over the
//! full engine (DESIGN.md §10).
//!
//! - a full multi-threaded churn run is race-free with the detector on
//!   (the engine's lock/wake/publish protocol really does order every
//!   plain PTE access);
//! - the detector never perturbs: an enabled run produces a bit-for-bit
//!   identical stats-and-schedule digest to a disabled one;
//! - the planted `PlantedBug::Publish` bug (an unlocked PTE re-publish after
//!   batch settlement) is caught deterministically under both the Fifo
//!   and SeededRandom exploration policies, with a stable same-seed
//!   report naming both access sites;
//! - the mage-check shrinker minimizes the racy cell and emits a
//!   one-line `MAGE_CHECK_SEED=…` reproducer.

use std::rc::Rc;

use mage_check::{run_cell, shrink, Cell, CheckOptions, PolicyKind, Violation};
use mage_far_memory::engine::PlantedBug;
use mage_far_memory::mmu::Topology;
use mage_far_memory::prelude::*;
use mage_far_memory::sim::race::RaceMode;

/// Stats-and-schedule digest of a fixed multi-threaded churn workload
/// (the same shape tests/check_explore.rs and tests/trace.rs pin).
fn churn_digest(sim: Simulation) -> [u64; 10] {
    let params = MachineParams {
        topo: Topology::single_socket(8),
        app_threads: 4,
        local_pages: 256,
        remote_pages: 4_096,
        tlb_entries: 64,
        seed: 11,
    };
    let engine = FarMemory::launch(sim.handle(), SystemConfig::mage_lib(), params);
    let vma = engine.mmap(512);
    engine.populate(&vma);
    let mut joins = Vec::new();
    for t in 0..4u64 {
        let e = Rc::clone(&engine);
        let start = vma.start_vpn;
        joins.push(sim.spawn(async move {
            for i in 0..384u64 {
                let vpn = start + (i * 7 + t * 13) % 512;
                e.access(CoreId(t as u32), vpn, i % 3 == 0).await;
            }
        }));
    }
    sim.block_on(async move {
        for j in joins {
            j.await;
        }
    });
    engine.shutdown();
    let s = engine.stats();
    [
        s.accesses.get(),
        s.tlb_hits.get(),
        s.minor_walks.get(),
        s.major_faults.get(),
        s.evicted_pages.get(),
        s.sync_evicted_pages.get(),
        s.unmapped_pages.get(),
        s.evict_cancelled_pages.get(),
        sim.polls(),
        sim.handle().now().as_nanos(),
    ]
}

/// A full churn run — four app threads hammering a 2:1 overcommitted
/// working set against four evictors — finishes with zero races: every
/// plain PTE write really is ordered by the lock-bit protocol, the
/// evicting-map handoff or a wake edge. (In Panic mode a race would
/// abort the run; the explicit count pins the detector was live.)
#[test]
fn full_churn_run_is_race_free_under_the_detector() {
    let sim = Simulation::new();
    let det = sim.enable_race_detection();
    let digest = churn_digest(sim);
    assert!(digest[3] > 0, "the run must exercise major faults");
    assert_eq!(det.race_count(), 0, "clean engine must be race-free");
    assert!(
        det.atomic_ops() > 0,
        "the run must classify TLB/stats traffic as atomic"
    );
}

/// Detector-never-perturbs: the enabled digest is bit-for-bit the
/// disabled one — same stats, same poll count, same final virtual time.
/// (tests/seams.rs pins the disabled schedule's absolute values, so
/// together these prove simsan leaves the golden schedules untouched.)
#[test]
fn detector_does_not_perturb_the_schedule() {
    let plain = churn_digest(Simulation::new());
    let sim = Simulation::new();
    sim.enable_race_detection();
    let shadowed = churn_digest(sim);
    assert_eq!(plain, shadowed, "enabling simsan changed the schedule");
}

fn racy_opts() -> CheckOptions {
    CheckOptions {
        wss_pages: 192,
        local_pages: 96,
        phases: 1,
        planted: Some(PlantedBug::Publish),
        ..CheckOptions::default()
    }
}

fn race_report(cell: &Cell) -> String {
    match run_cell(cell, &racy_opts()) {
        Err(Violation::DataRace { report }) => report,
        other => panic!("expected a data race from {cell:?}, got {other:?}"),
    }
}

/// The planted unlocked re-publish is caught under the default FIFO
/// schedule and under seeded-random exploration, and the report names
/// the racing region, both access sites (file:line) and both tasks'
/// clocks. Running the same cell twice yields the identical report:
/// detection is as deterministic as the simulator itself.
#[test]
fn planted_publish_race_is_caught_under_fifo_and_random() {
    for policy in [PolicyKind::Fifo, PolicyKind::SeededRandom] {
        let cell = Cell {
            policy,
            ..Cell::default()
        };
        let report = race_report(&cell);
        assert!(report.contains("data race on pte["), "{report}");
        assert!(
            report.contains("batch.rs:"),
            "report must cite the broken re-publish site: {report}"
        );
        assert!(report.contains("clock {"), "clocks rendered: {report}");
        let again = race_report(&cell);
        assert_eq!(report, again, "same seed, same race, same report");
    }
}

/// The racy cell shrinks like any other violation: the minimal cell
/// still races and the result is a single `MAGE_CHECK_SEED=…` line that
/// replays it (via `MAGE_CHECK_BREAK=publish replay_cell`).
#[test]
fn publish_race_shrinks_to_a_one_line_repro() {
    let failing = Cell {
        seed: 5,
        plan: 0,
        ops: 256,
        threads: 4,
        policy: PolicyKind::SeededRandom,
    };
    let opts = racy_opts();
    let shrunk = shrink(&failing, &opts, 48);
    assert_eq!(shrunk.violation.name(), "data-race", "got {}", shrunk.violation);
    assert!(shrunk.cell.ops <= failing.ops);
    assert!(shrunk.cell.threads <= failing.threads);
    let replayed = run_cell(&shrunk.cell, &opts).unwrap_err();
    assert_eq!(replayed.name(), "data-race");
    let line = shrunk.cell.repro_line();
    assert_eq!(line.lines().count(), 1, "repro must be one line");
    assert!(line.starts_with("MAGE_CHECK_SEED="));
    println!("MAGE_CHECK_BREAK=publish {line}");
}

/// Panic mode (the default, and what `MAGE_SIMSAN=1` suite runs use)
/// fails fast: the planted race aborts the run with the rendered report
/// as the panic message.
#[test]
fn panic_mode_aborts_on_the_planted_race() {
    let result = std::panic::catch_unwind(|| {
        let sim = Simulation::new();
        let det = sim.enable_race_detection();
        det.set_mode(RaceMode::Panic);
        let params = MachineParams {
            topo: Topology::single_socket(8),
            app_threads: 4,
            local_pages: 96,
            remote_pages: 288,
            tlb_entries: 64,
            seed: 1,
        };
        let cfg = SystemConfig::mage_lib()
            .with_eviction_batch(16)
            .with_planted_bug(PlantedBug::Publish);
        let engine = FarMemory::launch(sim.handle(), cfg, params);
        let vma = engine.mmap(192);
        engine.populate(&vma);
        let mut joins = Vec::new();
        for t in 0..4u64 {
            let e = Rc::clone(&engine);
            let start = vma.start_vpn;
            joins.push(sim.spawn(async move {
                for i in 0..256u64 {
                    let vpn = start + (i * 11 + t * 29) % 192;
                    e.access(CoreId(t as u32), vpn, i % 4 == 0).await;
                }
            }));
        }
        sim.block_on(async move {
            for j in joins {
                j.await;
            }
        });
    });
    let payload = result.expect_err("the planted race must panic the run");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .expect("panic payload is the rendered report");
    assert!(msg.contains("simsan: data race on pte["), "{msg}");
}
