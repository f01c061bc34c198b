//! The invariant registry: named whole-machine safety checks evaluated
//! at quiescent points.
//!
//! Each invariant is a pure inspection function over a [`CheckCtx`]
//! (engine + region + quota); it returns the first [`Violation`] it
//! finds or `None`. The [`standard`](InvariantRegistry::standard)
//! registry carries the four safety properties the engine must uphold
//! under every schedule and fault plan (DESIGN.md §8/§9):
//!
//! 1. **no-stale-tlb** — a settled remote page is translated by no
//!    core's TLB (a stale entry would let the app read a reclaimed
//!    frame);
//! 2. **settlement** — `evicted + sync + cancelled + requeued ≤
//!    unmapped`: every unmapped page settles at most once;
//! 3. **frame-conservation** — resident + free frames never exceed the
//!    local quota (frames mid-circulation are owned by exactly one
//!    path);
//! 4. **no-lost-page** — every page of the region is resident or
//!    remotely reachable, never neither.
//!
//! The registry is open: `register` adds project- or test-specific
//! invariants without touching the harness.

use mage::FarMemory;
use mage_mmu::{CoreId, Vma};

use crate::Violation;

/// Everything an invariant may inspect at a quiescent point.
pub struct CheckCtx<'a> {
    /// The engine under check (read-only inspection).
    pub engine: &'a FarMemory,
    /// The mapped region the workload runs over.
    pub vma: &'a Vma,
    /// The machine's local DRAM quota in pages.
    pub local_pages: u64,
}

/// One named invariant check.
type CheckFn = fn(&CheckCtx) -> Option<Violation>;

/// An ordered collection of named invariants.
#[derive(Default)]
pub struct InvariantRegistry {
    checks: Vec<(&'static str, CheckFn)>,
}

impl InvariantRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        InvariantRegistry::default()
    }

    /// The standard four-invariant registry described in the module
    /// docs.
    pub fn standard() -> Self {
        let mut r = InvariantRegistry::new();
        r.register("no-stale-tlb", no_stale_tlb);
        r.register("settlement", settlement);
        r.register("frame-conservation", frame_conservation);
        r.register("no-lost-page", no_lost_page);
        r
    }

    /// Appends a named invariant; checks run in registration order.
    pub fn register(&mut self, name: &'static str, check: CheckFn) {
        self.checks.push((name, check));
    }

    /// Names of the registered invariants, in evaluation order.
    pub fn names(&self) -> Vec<&'static str> {
        self.checks.iter().map(|(n, _)| *n).collect()
    }

    /// Number of registered invariants.
    pub fn len(&self) -> usize {
        self.checks.len()
    }

    /// True if no invariant is registered.
    pub fn is_empty(&self) -> bool {
        self.checks.is_empty()
    }

    /// Runs every invariant; fails on the first violation.
    pub fn check_all(&self, ctx: &CheckCtx) -> Result<(), Violation> {
        for (_, check) in &self.checks {
            if let Some(v) = check(ctx) {
                return Err(v);
            }
        }
        Ok(())
    }
}

/// Settled remote page ⇒ no core still translates it. A page that is
/// remote *and locked* is mid-eviction: its frame is not reclaimed until
/// the shootdown acks arrive, so a TLB entry there is not yet stale.
fn no_stale_tlb(ctx: &CheckCtx) -> Option<Violation> {
    let cores = ctx.engine.topology().total_cores();
    for i in 0..ctx.vma.pages {
        let vpn = ctx.vma.start_vpn + i;
        let pte = ctx.engine.page_table().get(vpn);
        if pte.is_remote() && !pte.locked() {
            for core in 0..cores {
                if ctx.engine.interrupts().tlb(CoreId(core)).translates(vpn) {
                    return Some(Violation::StaleTlb { core, vpn });
                }
            }
        }
    }
    None
}

/// Settlement identity: every unmapped page settles as at most one of
/// evicted / sync-evicted / cancelled / requeued.
fn settlement(ctx: &CheckCtx) -> Option<Violation> {
    let s = ctx.engine.stats();
    let settled = s.settled_pages();
    let unmapped = s.unmapped_pages.get();
    if settled > unmapped {
        return Some(Violation::Settlement { settled, unmapped });
    }
    None
}

/// Resident + free frames never exceed the local quota.
fn frame_conservation(ctx: &CheckCtx) -> Option<Violation> {
    let resident = ctx.engine.accounting().resident_pages();
    let free = ctx.engine.allocator().free_frames();
    if resident + free > ctx.local_pages {
        return Some(Violation::FrameConservation {
            resident,
            free,
            quota: ctx.local_pages,
        });
    }
    None
}

/// Replica coverage (replicated backends): a settled remote page must
/// keep at least one replica that is `Synced` or actively `Rebuilding` —
/// all-`Degraded` means the page's data survives on no node, which a
/// correct repair loop makes impossible as long as node outages never
/// overlap. Pages the backend does not track (or unreplicated backends,
/// where `replica_states` is `None` everywhere) are skipped.
pub fn replica_coverage(ctx: &CheckCtx) -> Option<Violation> {
    use mage::ReplicaState;
    let backend = ctx.engine.backend();
    for i in 0..ctx.vma.pages {
        let vpn = ctx.vma.start_vpn + i;
        let pte = ctx.engine.page_table().get(vpn);
        if !pte.is_remote() || pte.locked() {
            continue;
        }
        let rpn = pte.payload();
        if let Some(states) = backend.replica_states(rpn) {
            let alive = states
                .iter()
                .any(|s| matches!(s, ReplicaState::Synced | ReplicaState::Rebuilding));
            if !alive {
                return Some(Violation::ReplicaUnreachable { vpn, rpn });
            }
        }
    }
    None
}

/// Replica states only ever move along the legal
/// Synced↔Degraded→Rebuilding→Synced machine; the backend counts every
/// violation at the single funnel all state writes pass through.
pub fn replica_transitions(ctx: &CheckCtx) -> Option<Violation> {
    let count = ctx
        .engine
        .backend()
        .replication_stats()
        .map(|s| s.illegal_transitions.get())
        .unwrap_or(0);
    if count > 0 {
        return Some(Violation::ReplicaTransition { count });
    }
    None
}

/// Every page of the region is resident or remotely reachable.
fn no_lost_page(ctx: &CheckCtx) -> Option<Violation> {
    for i in 0..ctx.vma.pages {
        let vpn = ctx.vma.start_vpn + i;
        let pte = ctx.engine.page_table().get(vpn);
        if !pte.is_present() && !pte.is_remote() {
            return Some(Violation::LostPage { vpn });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use mage::{MachineParams, SystemConfig};
    use mage_mmu::Topology;
    use mage_sim::Simulation;

    #[test]
    fn standard_registry_carries_the_four_invariants() {
        let r = InvariantRegistry::standard();
        assert_eq!(
            r.names(),
            [
                "no-stale-tlb",
                "settlement",
                "frame-conservation",
                "no-lost-page"
            ]
        );
        assert_eq!(r.len(), 4);
        assert!(!r.is_empty());
    }

    #[test]
    fn registry_is_open_for_extension() {
        let mut r = InvariantRegistry::new();
        assert!(r.is_empty());
        r.register("always-fails", |_| Some(Violation::LostPage { vpn: 0 }));
        assert_eq!(r.names(), ["always-fails"]);
    }

    #[test]
    fn freshly_populated_machine_upholds_every_invariant() {
        let sim = Simulation::new();
        let params = MachineParams {
            topo: Topology::single_socket(8),
            app_threads: 4,
            local_pages: 128,
            remote_pages: 1_024,
            tlb_entries: 64,
            seed: 3,
        };
        let engine = mage::FarMemory::launch(sim.handle(), SystemConfig::mage_lib(), params);
        let vma = engine.mmap(256);
        engine.populate(&vma);
        let ctx = CheckCtx {
            engine: &engine,
            vma: &vma,
            local_pages: 128,
        };
        InvariantRegistry::standard()
            .check_all(&ctx)
            .expect("fresh machine must be invariant-clean");
    }

    #[test]
    fn custom_violation_stops_the_sweep() {
        let sim = Simulation::new();
        let params = MachineParams {
            topo: Topology::single_socket(8),
            app_threads: 2,
            local_pages: 64,
            remote_pages: 512,
            tlb_entries: 32,
            seed: 1,
        };
        let engine = mage::FarMemory::launch(sim.handle(), SystemConfig::mage_lib(), params);
        let vma = engine.mmap(64);
        engine.populate(&vma);
        let ctx = CheckCtx {
            engine: &engine,
            vma: &vma,
            local_pages: 64,
        };
        let mut r = InvariantRegistry::standard();
        r.register("tripwire", |_| Some(Violation::LostPage { vpn: 7 }));
        let err = r.check_all(&ctx).unwrap_err();
        assert_eq!(err, Violation::LostPage { vpn: 7 });
    }
}
