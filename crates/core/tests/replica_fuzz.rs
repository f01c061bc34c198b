//! Seeded differential fuzz of a replicated [`FarBackend`] against a linear
//! shadow model, in the style of `accounting/tests/fuzz_s3fifo.rs`.
//!
//! Two layers are pinned:
//!
//! * The **replica table** — with the background repair task parked, the
//!   only thing that moves replica states is the op stream itself, so a
//!   plain `BTreeMap` shadow re-derives every answer from first
//!   principles: which node each replica homes on, which node is inside
//!   its (disjoint, aligned) outage window at post time, and therefore
//!   the exact `[ReplicaState; 2]` after every alloc / mirrored
//!   writeback, the exact routing and outcome of every read, and the
//!   exact presence of a failover candidate. The shadow also pins
//!   conservation: `replica_states` is `Some` for exactly the allocated
//!   slots (direct mapping keeps released slots tracked), and
//!   `degraded_pages` equals the shadow's count.
//! * The **crash monitor / repair task** — with the monitor live, exact
//!   state prediction would need its poll phase, so the second fuzz pins
//!   the machine's laws instead: writes still land exactly as posted
//!   (the simulator is single-threaded, so nothing runs between post and
//!   check), a failed read always has a failover candidate whenever a
//!   synced replica sits on a reachable node, every page keeps at least
//!   one live (Synced/Rebuilding) replica through three full outage
//!   cycles, `illegal_transitions` stays zero, and at a quiescent point
//!   between outages the repair task has converged every page back to
//!   `[Synced, Synced]`.
//!
//! Everything is seeded [`SplitMix64`], so a failure reproduces
//! bit-for-bit from the printed seed and step.

use std::collections::BTreeMap;
use std::rc::Rc;

use mage::{FarBackend, ReplicaState, ReplicationConfig, SystemConfig};
use mage_fabric::{FaultInjector, FaultPlan, NodeId};
use mage_mmu::PAGE_SIZE;
use mage_sim::rng::SplitMix64;
use mage_sim::time::SimTime;
use mage_sim::Simulation;

const SEEDS: [u64; 4] = [1, 42, 0xDEAD_BEEF, 0x5EED_5EED_5EED_5EED];

/// Slot universe: small enough that ops constantly revisit pages across
/// outage windows.
const SLOTS: u64 = 96;
const NODES: usize = 2;
const PERIOD_NS: u64 = 400_000;
const DURATION_NS: u64 = 40_000;

fn plans(seed: u64) -> Vec<FaultPlan> {
    (0..NODES)
        .map(|i| FaultPlan::staggered_node_crash(seed ^ 0xFA17, i, NODES, PERIOD_NS, DURATION_NS))
        .collect()
}

/// Independent reachability oracle: fresh injectors over the same plans.
/// `node_down` is pure in (seed, now) for aligned plans, so these agree
/// with the NIC's injectors without sharing any state with them.
struct NodeOracle {
    injectors: Vec<FaultInjector>,
}

impl NodeOracle {
    fn new(seed: u64) -> Self {
        NodeOracle {
            injectors: plans(seed).into_iter().map(|p| FaultInjector::new(p, 0)).collect(),
        }
    }

    fn down(&self, node: NodeId, now: SimTime) -> bool {
        self.injectors[node.0 as usize].node_down(now)
    }
}

/// Home node of replica `slot` of page `rpn` — mirrors the backend's
/// placement rule (primaries spread across nodes, backup on the next).
fn home(rpn: u64, slot: usize) -> NodeId {
    NodeId(((rpn + slot as u64) % NODES as u64) as u32)
}

/// Builds a replicated backend over direct-mapped RDMA with per-node
/// crash plans. `repair_poll_ns` huge parks the monitor for the exact
/// differential; small makes it live for the laws fuzz.
fn replicated(sim: &Simulation, seed: u64, repair_poll_ns: u64) -> Rc<FarBackend> {
    let cfg = SystemConfig::mage_lib().with_replication(ReplicationConfig {
        nodes: NODES,
        repair_poll_ns,
        node_faults: plans(seed),
    });
    Rc::new(FarBackend::new(sim.handle(), &cfg, 1_024))
}

/// With the repair task parked, a linear shadow predicts every replica
/// state, every read route and outcome, and every failover answer.
#[test]
fn replicated_backend_matches_linear_shadow() {
    for seed in SEEDS {
        let sim = Simulation::new();
        // Poll far beyond the fuzz horizon: the monitor stays parked and
        // the op stream is the only writer of replica states.
        let be = replicated(&sim, seed, 1 << 40);
        let oracle = NodeOracle::new(seed);
        let b = Rc::clone(&be);
        let h = sim.handle();
        sim.block_on(async move {
            let rng = SplitMix64::new(seed);
            let mut shadow: BTreeMap<u64, [ReplicaState; 2]> = BTreeMap::new();
            for step in 0..600u64 {
                let now = h.now();
                let pick = |shadow: &BTreeMap<u64, [ReplicaState; 2]>| -> u64 {
                    let keys: Vec<u64> = shadow.keys().copied().collect();
                    keys[rng.next_below(keys.len() as u64) as usize]
                };
                let op = if shadow.is_empty() { 0 } else { rng.next_below(8) };
                match op {
                    // Allocate (direct mapping: the slot IS the rpn).
                    0..=1 => {
                        let rpn = rng.next_below(SLOTS);
                        let got = b.alloc_slot(rpn).await;
                        assert_eq!(
                            got,
                            Some(rpn),
                            "seed {seed} step {step}: direct-mapped slot identity"
                        );
                        // Fresh slots start fully degraded; re-allocating a
                        // tracked slot keeps its states.
                        shadow
                            .entry(rpn)
                            .or_insert([ReplicaState::Degraded, ReplicaState::Degraded]);
                    }
                    // Mirrored writeback: per-slot fate decided at post time
                    // by the home node's reachability.
                    2..=4 => {
                        let rpn = pick(&shadow);
                        let oks =
                            [!oracle.down(home(rpn, 0), now), !oracle.down(home(rpn, 1), now)];
                        let c = b.write_page(rpn, PAGE_SIZE);
                        assert_eq!(
                            c.outcome().is_ok(),
                            oks[0] || oks[1],
                            "seed {seed} step {step}: merged write outcome for {rpn}"
                        );
                        let entry = shadow.get_mut(&rpn).unwrap();
                        for (slot, ok) in oks.iter().enumerate() {
                            entry[slot] = if *ok {
                                ReplicaState::Synced
                            } else {
                                ReplicaState::Degraded
                            };
                        }
                        // States move at post time, before any await.
                        assert_eq!(
                            b.replica_states(rpn),
                            Some(*entry),
                            "seed {seed} step {step}: post-write states for {rpn}"
                        );
                        let _ = c.await;
                    }
                    // Read: routes to the first synced replica (primary when
                    // none), succeeds iff that home is up; a failed read has
                    // a failover candidate iff a synced replica sits on a
                    // reachable node.
                    5 => {
                        let rpn = pick(&shadow);
                        let s = shadow[&rpn];
                        let route = (0..2).find(|&i| s[i] == ReplicaState::Synced).unwrap_or(0);
                        let expect_ok = !oracle.down(home(rpn, route), now);
                        let c = b.read_page(rpn, PAGE_SIZE);
                        assert_eq!(
                            c.outcome().is_ok(),
                            expect_ok,
                            "seed {seed} step {step}: read outcome for {rpn} via slot {route}"
                        );
                        if !expect_ok {
                            let alt = (0..2).find(|&i| {
                                s[i] == ReplicaState::Synced && !oracle.down(home(rpn, i), now)
                            });
                            match b.failover_read(rpn, PAGE_SIZE) {
                                Some(f) => {
                                    assert!(
                                        alt.is_some(),
                                        "seed {seed} step {step}: phantom failover for {rpn}"
                                    );
                                    assert!(
                                        f.await.is_ok(),
                                        "seed {seed} step {step}: failover read failed for {rpn}"
                                    );
                                }
                                None => assert!(
                                    alt.is_none(),
                                    "seed {seed} step {step}: missed failover for {rpn} (slot {})",
                                    alt.unwrap()
                                ),
                            }
                        }
                        let _ = c.await;
                    }
                    // Release: direct mapping keeps the slot (and its
                    // replicas) reserved — conservation, not teardown.
                    6 => {
                        let rpn = pick(&shadow);
                        b.release_slot(rpn).await;
                        assert!(
                            b.replica_states(rpn).is_some(),
                            "seed {seed} step {step}: released direct slot {rpn} untracked"
                        );
                    }
                    // Let virtual time cross outage boundaries.
                    _ => h.sleep(rng.next_below(25_000) + 1).await,
                }
                // Conservation + exactness crosschecks.
                assert_eq!(
                    b.replication_stats().unwrap().illegal_transitions.get(),
                    0,
                    "seed {seed} step {step}: illegal replica transition"
                );
                if step % 64 == 0 || step == 599 {
                    for rpn in 0..SLOTS {
                        assert_eq!(
                            b.replica_states(rpn),
                            shadow.get(&rpn).copied(),
                            "seed {seed} step {step}: replica states drifted for {rpn}"
                        );
                    }
                    let degraded = shadow
                        .values()
                        .filter(|s| s.contains(&ReplicaState::Degraded))
                        .count() as u64;
                    assert_eq!(
                        b.degraded_pages(),
                        degraded,
                        "seed {seed} step {step}: degraded gauge drifted"
                    );
                }
            }
            b.shutdown();
        });
    }
}

/// With the monitor live, exact timing is its business — the fuzz pins
/// the laws instead: post-time write exactness, failover availability,
/// the ≥ 1-live-replica invariant, state-machine legality, and repair
/// convergence at a quiescent point.
#[test]
fn live_monitor_upholds_replica_laws() {
    for seed in SEEDS {
        let sim = Simulation::new();
        let be = replicated(&sim, seed, 10_000);
        let oracle = NodeOracle::new(seed);
        let b = Rc::clone(&be);
        let h = sim.handle();
        sim.block_on(async move {
            let rng = SplitMix64::new(seed ^ 0xB0B);
            // Setup-time seeding is wire-free and fully synced.
            for rpn in 0..48u64 {
                assert_eq!(b.seed_slot(rpn), Some(rpn), "seed {seed}: seeding slot {rpn}");
                assert_eq!(
                    b.replica_states(rpn),
                    Some([ReplicaState::Synced, ReplicaState::Synced]),
                    "seed {seed}: seeded slot {rpn} not synced"
                );
            }
            // ~3 full outage cycles of mixed traffic.
            for step in 0..240u64 {
                h.sleep(rng.next_below(12_000) + 500).await;
                let now = h.now();
                let rpn = rng.next_below(48);
                match rng.next_below(4) {
                    0..=1 => {
                        let oks =
                            [!oracle.down(home(rpn, 0), now), !oracle.down(home(rpn, 1), now)];
                        let c = b.write_page(rpn, PAGE_SIZE);
                        assert_eq!(
                            c.outcome().is_ok(),
                            oks[0] || oks[1],
                            "seed {seed} step {step}: merged write outcome for {rpn}"
                        );
                        // Single-threaded simulator: nothing (monitor
                        // included) ran between post and this check.
                        let s = b.replica_states(rpn).unwrap();
                        for (slot, ok) in oks.iter().enumerate() {
                            let want = if *ok {
                                ReplicaState::Synced
                            } else {
                                ReplicaState::Degraded
                            };
                            assert_eq!(
                                s[slot], want,
                                "seed {seed} step {step}: write left {rpn} slot {slot} wrong"
                            );
                        }
                        let _ = c.await;
                    }
                    _ => {
                        let c = b.read_page(rpn, PAGE_SIZE);
                        if c.outcome().is_err() {
                            // A synced replica on a reachable node must be
                            // offered for failover, and must deliver.
                            let s = b.replica_states(rpn).unwrap();
                            let alt = (0..2).find(|&i| {
                                s[i] == ReplicaState::Synced && !oracle.down(home(rpn, i), now)
                            });
                            match b.failover_read(rpn, PAGE_SIZE) {
                                Some(f) => assert!(
                                    f.await.is_ok(),
                                    "seed {seed} step {step}: failover read failed for {rpn}"
                                ),
                                None => assert!(
                                    alt.is_none(),
                                    "seed {seed} step {step}: missed failover for {rpn}"
                                ),
                            }
                        }
                        let _ = c.await;
                    }
                }
                let stats = b.replication_stats().unwrap();
                assert_eq!(
                    stats.illegal_transitions.get(),
                    0,
                    "seed {seed} step {step}: illegal replica transition"
                );
                // The crash-consistency core: staggered outages plus batch
                // repair keep one live replica per page at every instant.
                for rpn in 0..48u64 {
                    let s = b.replica_states(rpn).unwrap();
                    assert!(
                        s.iter().any(|st| matches!(
                            st,
                            ReplicaState::Synced | ReplicaState::Rebuilding
                        )),
                        "seed {seed} step {step}: page {rpn} lost all live replicas ({s:?})"
                    );
                }
            }
            // Quiescent point: mid-way through the calm stretch of the next
            // epoch (outages occupy [0, 40k) and [200k, 240k) of each
            // 400k-ns period), several polls after the last recovery.
            let now = h.now().as_nanos();
            let target = (now / PERIOD_NS + 1) * PERIOD_NS + 300_000;
            h.sleep(target - now).await;
            let stats = b.replication_stats().unwrap();
            assert!(
                stats.rereplicated_pages.get() > 0,
                "seed {seed}: monitor never repaired anything"
            );
            assert!(
                stats.degraded_marks.get() > 0,
                "seed {seed}: outages never degraded anything"
            );
            assert_eq!(stats.illegal_transitions.get(), 0, "seed {seed}");
            assert_eq!(
                b.degraded_pages(),
                0,
                "seed {seed}: repair did not converge between outages"
            );
            for rpn in 0..48u64 {
                assert_eq!(
                    b.replica_states(rpn),
                    Some([ReplicaState::Synced, ReplicaState::Synced]),
                    "seed {seed}: page {rpn} not fully re-replicated at quiescence"
                );
            }
            b.shutdown();
        });
    }
}
