//! Page accounting: tracking residency and choosing eviction victims.
//!
//! Page accounting is the most update-intensive structure in a far-memory
//! system — both the fault-in path (inserting freshly faulted pages,
//! `FP₃`) and the eviction path (scanning for victims, `EP₁`) hammer it,
//! and the paper identifies contention on the system-wide LRU list as
//! Challenge 2 (§3.3.2). The structure is `partitions` independent
//! probation/protected queue pairs, each behind its own lock. One
//! partition is the system-wide list of Linux / Hermit / DiLOS; several
//! are MAGE's partitioned lists: insertion hashes the faulting CPU id to
//! a partition, and evictors scan partitions round-robin from staggered
//! starting indices (§4.2.2), trading accuracy for lock locality.
//!
//! How the queues treat a candidate is the [`Discipline`], which the
//! engine derives from its eviction policy. Victim hotness is judged
//! through a caller-supplied [`VictimProbe`] reading (and clearing) the
//! PTE accessed bit, so this crate stays independent of the page-table
//! representation.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;

use mage_sim::slab::PageMap;
use mage_sim::stats::Counter;
use mage_sim::sync::{LockStats, SimMutex};
use mage_sim::time::Nanos;
use mage_sim::SimHandle;

/// Hotness probe consulted while scanning victim candidates.
///
/// Implementors read **and age** the candidate's reference state (for the
/// default second-chance policy: read-and-clear the PTE accessed bit).
/// Returning `true` keeps the page resident for another round. The engine
/// passes its configured `EvictionPolicy` through this trait; plain
/// closures work too via the blanket impl (used by tests).
pub trait VictimProbe {
    /// Tests the candidate and ages its metadata; `true` means hot.
    fn test_and_age(&self, vpn: u64) -> bool;
}

impl<F: Fn(u64) -> bool> VictimProbe for F {
    fn test_and_age(&self, vpn: u64) -> bool {
        self(vpn)
    }
}

/// Service-time constants for accounting operations (virtual ns).
#[derive(Clone, Debug)]
pub struct AccountingCosts {
    /// List push/pop/move under the partition lock.
    pub list_op_ns: Nanos,
    /// Per-page cost of splicing pages off a list *under* the lock
    /// (pointer manipulation only, like Linux `isolate_lru_pages`).
    pub pop_per_page_ns: Nanos,
    /// Per-page accessed-bit check during a scan (performed *off* the
    /// lock, on pages already isolated).
    pub scan_per_page_ns: Nanos,
}

impl Default for AccountingCosts {
    fn default() -> Self {
        AccountingCosts {
            list_op_ns: 200,
            pop_per_page_ns: 30,
            scan_per_page_ns: 150,
        }
    }
}

/// How a partition's queues treat scanned candidates. Derived from the
/// engine's eviction policy, never configured on its own.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Discipline {
    /// Active/inactive LRU: hot candidates move to the protected list.
    Lru,
    /// MAGE-Lnx's FIFO queues (§5.1): candidates are evicted in queue
    /// order without consulting the probe or paying its per-page cost.
    Fifo,
    /// CLOCK: hot candidates rotate to the tail of the probation list.
    Clock,
    /// S3-FIFO (SOSP '23): the probation list is the small queue, the
    /// protected list the main queue, and a ghost hit admits a page
    /// straight to main. Paired with a one-bit-degraded frequency probe,
    /// its accuracy advantage largely evaporates, which is the paper's
    /// §4.2.2 point.
    S3Fifo,
}

struct Lists {
    /// The probationary queue: the inactive list, or S3-FIFO's small
    /// queue.
    inactive: VecDeque<u64>,
    /// The protected queue: the active list, or S3-FIFO's main queue.
    active: VecDeque<u64>,
}

/// A bounded FIFO of recently evicted pages — the S3-FIFO ghost queue
/// (SOSP '23), kept under every discipline as the engine's *re-fault
/// detector*: a page that faults back in while still on the ghost list
/// was evicted too early.
///
/// Under [`Discipline::S3Fifo`] the ghost additionally drives placement
/// (a ghost hit admits the page straight to the main queue); under every
/// other discipline it is measurement-only, so the default paths
/// keep their schedules bit-for-bit (membership updates are synchronous
/// — no locks, no virtual time).
///
/// Each `record` stamps the page with a fresh sequence number: `live`
/// maps every remembered page to its latest stamp, and `fifo` holds
/// `(vpn, stamp)` in record order. A `fifo` entry whose stamp is no
/// longer live (the page was taken or re-recorded since) is stale and
/// skipped when the oldest entry falls off, so every operation is O(1)
/// amortized; `fifo` is compacted once it exceeds twice the bound, which
/// keeps memory O(`cap`).
pub struct GhostList {
    cap: usize,
    live: PageMap<u64>,
    fifo: VecDeque<(u64, u64)>,
    next_stamp: u64,
}

impl GhostList {
    /// The default capacity, matching the historical per-structure bound.
    pub const DEFAULT_CAP: usize = 4_096;

    /// An empty ghost list bounded at `cap` pages (`0` disables it).
    pub fn new(cap: usize) -> Self {
        GhostList {
            cap,
            live: PageMap::new(),
            fifo: VecDeque::new(),
            next_stamp: 0,
        }
    }

    /// Remembers `vpn` as recently evicted. Re-recording a page refreshes
    /// its position (it ages from the back of the queue again); the
    /// oldest entry falls off once the bound is exceeded.
    pub fn record(&mut self, vpn: u64) {
        if self.cap == 0 {
            return;
        }
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.live.insert(vpn, stamp);
        self.fifo.push_back((vpn, stamp));
        while self.live.len() > self.cap {
            let (old, old_stamp) = self.fifo.pop_front().expect("every live page is queued");
            if self.live.get(old) == Some(&old_stamp) {
                self.live.remove(old);
            }
        }
        if self.fifo.len() > 2 * self.cap {
            let live = &self.live;
            self.fifo.retain(|&(v, s)| live.get(v) == Some(&s));
        }
    }

    /// Consumes a ghost hit: removes `vpn` and reports whether it was
    /// present (i.e. whether this insert is a re-fault).
    pub fn take(&mut self, vpn: u64) -> bool {
        self.live.remove(vpn).is_some()
    }

    /// Whether `vpn` is currently remembered.
    pub fn contains(&self, vpn: u64) -> bool {
        self.live.contains_key(vpn)
    }

    /// Pages currently remembered.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.cap
    }
}

/// Aggregate accounting statistics.
#[derive(Default)]
pub struct AccountingStats {
    /// Pages inserted (fault-in or reactivation re-insert).
    pub inserts: Counter,
    /// Pages examined during scans.
    pub scanned: Counter,
    /// Pages found hot and rotated back (second chance).
    pub reactivated: Counter,
    /// Victims handed to the evictor.
    pub victims: Counter,
}

/// The page-accounting structure of a running system.
pub struct PageAccounting {
    sim: SimHandle,
    discipline: Discipline,
    costs: AccountingCosts,
    partitions: Vec<SimMutex<Lists>>,
    /// Engine-wide re-fault detector (see [`GhostList`]). Updated
    /// synchronously so it never perturbs the event schedule.
    ghost: RefCell<GhostList>,
    resident: Cell<u64>,
    stats: AccountingStats,
}

impl PageAccounting {
    /// Creates `partitions` queue pairs (at least one) run under
    /// `discipline`.
    pub fn new(
        sim: SimHandle,
        partitions: usize,
        discipline: Discipline,
        costs: AccountingCosts,
    ) -> Self {
        PageAccounting {
            discipline,
            costs,
            partitions: (0..partitions.max(1))
                .map(|_| {
                    SimMutex::new_named(
                        sim.clone(),
                        "accounting.lists",
                        Lists {
                            inactive: VecDeque::new(),
                            active: VecDeque::new(),
                        },
                    )
                })
                .collect(),
            ghost: RefCell::new(GhostList::new(GhostList::DEFAULT_CAP)),
            resident: Cell::new(0),
            stats: AccountingStats::default(),
            sim,
        }
    }

    /// The queue discipline.
    pub fn discipline(&self) -> Discipline {
        self.discipline
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// Pages currently tracked.
    pub fn resident_pages(&self) -> u64 {
        self.resident.get()
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &AccountingStats {
        &self.stats
    }

    /// Merged contention statistics across partition locks.
    pub fn lock_wait_sum_ns(&self) -> u64 {
        self.partitions.iter().map(|p| p.stats().wait().sum()).sum()
    }

    /// Contention statistics of partition `i`.
    pub fn partition_lock_stats(&self, i: usize) -> &LockStats {
        self.partitions[i].stats()
    }

    fn partition_for_insert(&self, core: usize) -> usize {
        // Paper §4.2.2: hash of the current CPU id modulo list count.
        (mage_sim::rng::mix64(core as u64) as usize) % self.partitions.len()
    }

    /// Synchronously seeds a resident page during setup (no virtual time
    /// passes, no statistics recorded).
    pub fn seed(&self, core: usize, vpn: u64) {
        let idx = self.partition_for_insert(core);
        self.partitions[idx].with_sync(|lists| lists.inactive.push_back(vpn));
        self.resident.set(self.resident.get() + 1);
    }

    /// Records a page as resident (`FP₃`) and reports whether the insert
    /// is a *re-fault* — the page was still on the ghost list of recently
    /// evicted pages, i.e. it was evicted too early.
    ///
    /// `core` is the CPU of the inserting thread; it selects the target
    /// partition under the partitioned designs. The ghost check is
    /// synchronous and happens under every discipline; only
    /// [`Discipline::S3Fifo`] also acts on it (a ghost hit admits the
    /// page straight to the main queue instead of probation), so the
    /// other disciplines keep their event schedules bit-for-bit.
    pub async fn insert(&self, core: usize, vpn: u64) -> bool {
        let ghost_hit = self.ghost.borrow_mut().take(vpn);
        let idx = self.partition_for_insert(core);
        let mut lists = self.partitions[idx].lock().await;
        self.sim.sleep(self.costs.list_op_ns).await;
        if ghost_hit && self.discipline == Discipline::S3Fifo {
            // Ghost hit: the page was recently evicted and is back —
            // admit it straight to the main queue.
            lists.active.push_back(vpn);
        } else {
            lists.inactive.push_back(vpn); // small/probationary queue
        }
        drop(lists);
        self.resident.set(self.resident.get() + 1);
        self.stats.inserts.inc();
        ghost_hit
    }

    /// Selects up to `want` victim pages for evictor `evictor_id` on its
    /// `round`-th scan cycle (`EP₁`).
    ///
    /// Pages are spliced off the list in batches *under* the lock (cheap
    /// pointer work, like Linux's `isolate_lru_pages`), then the
    /// accessed-bit recheck runs *off* the lock; hot pages get a second
    /// chance and are re-added to the active list (to the probation tail
    /// under [`Discipline::Clock`]). Under [`Discipline::Fifo`] the probe
    /// is not consulted (no recheck — the accuracy trade of MAGE-Lnx).
    ///
    /// `probe` reads **and ages** the page's reference state (see
    /// [`VictimProbe`]).
    pub async fn take_victims(
        &self,
        evictor_id: usize,
        round: usize,
        want: usize,
        probe: &dyn VictimProbe,
        out: &mut Vec<u64>,
    ) {
        let n = self.partitions.len();
        let recheck = self.discipline != Discipline::Fifo;
        let before = out.len();
        let target = before + want;
        // Staggered start + round-robin over partitions (§4.2.2). Allow a
        // few passes so second-chance rejections don't under-fill.
        let mut idx = (evictor_id + round) % n;
        let mut tried = 0;
        let max_tries = n * 3;
        // Bound the total scan work per call so that a reactivation-heavy
        // (hot) list cannot stall the evictor for an unbounded time.
        let mut scan_budget = want * 4;
        while out.len() < target && tried < max_tries && scan_budget > 0 {
            let isolated = self
                .isolate(idx, (target - out.len()).min(scan_budget))
                .await;
            scan_budget = scan_budget.saturating_sub(isolated.len());
            if isolated.is_empty() {
                idx = (idx + 1) % n;
                tried += 1;
                continue;
            }
            // Recheck accessed bits off the lock.
            let mut hot = Vec::new();
            for vpn in isolated {
                if recheck {
                    self.sim.sleep(self.costs.scan_per_page_ns).await;
                    self.stats.scanned.inc();
                    if probe.test_and_age(vpn) {
                        hot.push(vpn);
                        continue;
                    }
                } else {
                    self.stats.scanned.inc();
                }
                out.push(vpn);
            }
            if !hot.is_empty() {
                self.stats.reactivated.add(hot.len() as u64);
                let mut lists = self.partitions[idx].lock().await;
                self.sim
                    .sleep(self.costs.list_op_ns + self.costs.pop_per_page_ns * hot.len() as u64)
                    .await;
                if self.discipline == Discipline::Clock {
                    // CLOCK rotates survivors to the tail of the same
                    // circular queue.
                    lists.inactive.extend(hot);
                } else {
                    // S3-FIFO promotes probation survivors to main; LRU
                    // to the active list.
                    lists.active.extend(hot);
                }
            }
            idx = (idx + 1) % n;
            tried += 1;
        }
        let taken = (out.len() - before) as u64;
        if taken > 0 {
            // Remember the victims so a quick re-fault is detectable (and,
            // under S3-FIFO, promoted to the main queue). Synchronous: no
            // lock, no virtual time, so non-S3-FIFO schedules are
            // unchanged. Pages evicted without passing through this scan
            // path (e.g. direct removal) bypass the detector.
            let mut ghost = self.ghost.borrow_mut();
            for &vpn in &out[before..] {
                ghost.record(vpn);
            }
        }
        self.resident.set(self.resident.get().saturating_sub(taken));
        self.stats.victims.add(taken);
    }

    /// Pages currently on the ghost (recently-evicted) list.
    pub fn ghost_len(&self) -> usize {
        self.ghost.borrow().len()
    }

    /// Whether `vpn` is currently on the ghost list.
    pub fn ghost_contains(&self, vpn: u64) -> bool {
        self.ghost.borrow().contains(vpn)
    }

    /// Snapshot of every partition's `(probationary, protected)` queues,
    /// for tests and debugging only (synchronous; panics if a partition
    /// lock is held).
    pub fn queues_snapshot(&self) -> Vec<(Vec<u64>, Vec<u64>)> {
        self.partitions
            .iter()
            .map(|p| {
                p.with_sync(|lists| {
                    (
                        lists.inactive.iter().copied().collect(),
                        lists.active.iter().copied().collect(),
                    )
                })
            })
            .collect()
    }

    /// Splices up to `want` pages off partition `idx` under its lock,
    /// refilling the inactive list from the active list if needed.
    async fn isolate(&self, idx: usize, want: usize) -> Vec<u64> {
        let mut lists = self.partitions[idx].lock().await;
        if lists.inactive.len() < want && !lists.active.is_empty() {
            // Demote from the active list to refill (bounded splice).
            let move_n = lists.active.len().min(want * 2);
            for _ in 0..move_n {
                let vpn = lists.active.pop_front().expect("non-empty");
                lists.inactive.push_back(vpn);
            }
            self.sim
                .sleep(self.costs.pop_per_page_ns * move_n as u64)
                .await;
        }
        let take = lists.inactive.len().min(want);
        let mut isolated = Vec::with_capacity(take);
        for _ in 0..take {
            isolated.push(lists.inactive.pop_front().expect("non-empty"));
        }
        self.sim
            .sleep(self.costs.list_op_ns + self.costs.pop_per_page_ns * take as u64)
            .await;
        isolated
    }

    /// Forgets `vpn` without evicting it (e.g. on unmap). Linear scan;
    /// only used on cold paths and in tests.
    pub async fn remove(&self, vpn: u64) -> bool {
        for p in &self.partitions {
            let mut lists = p.lock().await;
            if let Some(pos) = lists.inactive.iter().position(|&v| v == vpn) {
                lists.inactive.remove(pos);
                self.resident.set(self.resident.get() - 1);
                return true;
            }
            if let Some(pos) = lists.active.iter().position(|&v| v == vpn) {
                lists.active.remove(pos);
                self.resident.set(self.resident.get() - 1);
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mage_sim::Simulation;
    use std::rc::Rc;

    fn rig(partitions: usize, discipline: Discipline) -> (Simulation, Rc<PageAccounting>) {
        let sim = Simulation::new();
        let acc = Rc::new(PageAccounting::new(
            sim.handle(),
            partitions,
            discipline,
            AccountingCosts::default(),
        ));
        (sim, acc)
    }

    #[test]
    fn insert_then_evict_fifo_order() {
        let (sim, acc) = rig(1, Discipline::Lru);
        let a = Rc::clone(&acc);
        sim.block_on(async move {
            for vpn in 0..10 {
                a.insert(0, vpn).await;
            }
            let mut victims = Vec::new();
            a.take_victims(0, 0, 4, &|_| false, &mut victims).await;
            assert_eq!(victims, vec![0, 1, 2, 3], "oldest first");
            assert_eq!(a.resident_pages(), 6);
        });
    }

    #[test]
    fn hot_pages_get_second_chance() {
        let (sim, acc) = rig(1, Discipline::Lru);
        let a = Rc::clone(&acc);
        sim.block_on(async move {
            for vpn in 0..6 {
                a.insert(0, vpn).await;
            }
            // Pages 0 and 1 are hot on first inspection only.
            let hot = std::cell::RefCell::new(std::collections::BTreeSet::from([0u64, 1]));
            let is_hot = |vpn: u64| hot.borrow_mut().remove(&vpn);
            let mut victims = Vec::new();
            a.take_victims(0, 0, 2, &is_hot, &mut victims).await;
            assert_eq!(victims, vec![2, 3], "hot pages skipped");
            assert_eq!(a.stats().reactivated.get(), 2);
            // Next scan drains 4, 5 then wraps to the reactivated pages.
            victims.clear();
            a.take_victims(0, 1, 4, &is_hot, &mut victims).await;
            assert_eq!(victims, vec![4, 5, 0, 1]);
        });
    }

    #[test]
    fn fifo_queues_ignore_hotness() {
        let (sim, acc) = rig(1, Discipline::Fifo);
        let a = Rc::clone(&acc);
        sim.block_on(async move {
            for vpn in 0..4 {
                a.insert(0, vpn).await;
            }
            let mut victims = Vec::new();
            a.take_victims(0, 0, 4, &|_| true, &mut victims).await;
            assert_eq!(victims, vec![0, 1, 2, 3], "no recheck under FIFO");
            assert_eq!(a.stats().reactivated.get(), 0);
        });
    }

    #[test]
    fn partitioned_insert_spreads_by_core() {
        let (sim, acc) = rig(4, Discipline::Lru);
        let a = Rc::clone(&acc);
        sim.block_on(async move {
            for core in 0..32usize {
                a.insert(core, core as u64).await;
            }
        });
        // All four partitions should have received pages.
        let counts: Vec<u64> = (0..4)
            .map(|i| acc.partition_lock_stats(i).acquisitions())
            .collect();
        assert!(counts.iter().all(|&c| c > 0), "uneven spread: {counts:?}");
        assert_eq!(acc.resident_pages(), 32);
    }

    #[test]
    fn round_robin_scans_cover_all_partitions() {
        let (sim, acc) = rig(4, Discipline::Lru);
        let a = Rc::clone(&acc);
        sim.block_on(async move {
            for core in 0..64usize {
                a.insert(core, core as u64).await;
            }
            // One evictor must be able to drain everything even though
            // its start partition rotates.
            let mut victims = Vec::new();
            for round in 0..8 {
                a.take_victims(0, round, 8, &|_| false, &mut victims).await;
            }
            assert_eq!(victims.len(), 64);
            assert_eq!(a.resident_pages(), 0);
        });
    }

    #[test]
    fn partitioned_lru_reduces_lock_waiting() {
        // 8 inserters + 2 scanners on 1 vs 8 partitions: aggregated lock
        // wait time must drop with partitioning.
        fn run(partitions: usize) -> u64 {
            let (sim, acc) = rig(partitions, Discipline::Lru);
            for core in 0..8usize {
                let a = Rc::clone(&acc);
                sim.spawn(async move {
                    for i in 0..50u64 {
                        a.insert(core, core as u64 * 1000 + i).await;
                    }
                });
            }
            for e in 0..2usize {
                let a = Rc::clone(&acc);
                sim.spawn(async move {
                    let mut v = Vec::new();
                    for round in 0..10 {
                        a.take_victims(e, round, 10, &|_| false, &mut v).await;
                    }
                });
            }
            sim.run();
            acc.lock_wait_sum_ns()
        }
        let global = run(1);
        let partitioned = run(8);
        assert!(
            partitioned * 2 < global,
            "partitioned {partitioned} vs global {global}"
        );
    }

    #[test]
    fn clock_rotates_hot_pages_in_place() {
        let (sim, acc) = rig(1, Discipline::Clock);
        let a = Rc::clone(&acc);
        sim.block_on(async move {
            for vpn in 0..4 {
                a.insert(0, vpn).await;
            }
            // Page 0 is hot once: it must survive the first scan and be
            // re-evictable at the *tail* of the same queue.
            let hot = std::cell::Cell::new(true);
            let is_hot = |vpn: u64| vpn == 0 && hot.replace(false);
            let mut victims = Vec::new();
            a.take_victims(0, 0, 3, &is_hot, &mut victims).await;
            assert_eq!(victims, vec![1, 2, 3], "hot page skipped");
            victims.clear();
            a.take_victims(0, 1, 1, &is_hot, &mut victims).await;
            assert_eq!(victims, vec![0], "rotated page eventually evicted");
        });
    }

    #[test]
    fn s3fifo_ghost_promotes_refaulted_pages() {
        let (sim, acc) = rig(1, Discipline::S3Fifo);
        let a = Rc::clone(&acc);
        sim.block_on(async move {
            for vpn in 0..4 {
                a.insert(0, vpn).await;
            }
            let mut victims = Vec::new();
            a.take_victims(0, 0, 2, &|_| false, &mut victims).await;
            assert_eq!(victims, vec![0, 1]);
            // Page 0 refaults: the ghost hit must admit it to the main
            // (active) queue, so the next probation scan prefers 2 and 3.
            assert!(a.insert(0, 0).await, "refault must report a ghost hit");
            victims.clear();
            a.take_victims(0, 1, 2, &|_| false, &mut victims).await;
            assert_eq!(victims, vec![2, 3], "ghost-promoted page protected");
        });
    }

    #[test]
    fn ghost_detects_refaults_under_every_discipline() {
        // The ghost list is measurement-only outside S3-FIFO, but the
        // re-fault signal must still fire.
        let (sim, acc) = rig(1, Discipline::Lru);
        let a = Rc::clone(&acc);
        sim.block_on(async move {
            for vpn in 0..4 {
                assert!(!a.insert(0, vpn).await, "fresh insert is no re-fault");
            }
            let mut victims = Vec::new();
            a.take_victims(0, 0, 2, &|_| false, &mut victims).await;
            assert_eq!(victims, vec![0, 1]);
            assert_eq!(a.ghost_len(), 2);
            assert!(a.ghost_contains(0) && a.ghost_contains(1));
            assert!(a.insert(0, 0).await, "refault detected");
            assert!(!a.ghost_contains(0), "ghost hit is consumed");
            // Placement is unchanged outside S3-FIFO: page 0 sits
            // at the probationary tail, not in the protected queue.
            let snap = a.queues_snapshot();
            assert_eq!(snap[0].0, vec![2, 3, 0]);
            assert!(snap[0].1.is_empty());
        });
    }

    #[test]
    fn ghost_list_is_bounded_and_consistent() {
        let mut g = GhostList::new(4);
        for vpn in 0..10 {
            g.record(vpn);
        }
        assert_eq!(g.len(), 4);
        assert!((6..10).all(|v| g.contains(v)));
        // Re-recording refreshes the position instead of duplicating.
        g.record(6);
        assert_eq!(g.len(), 4);
        g.record(100);
        assert!(g.contains(6), "refreshed entry outlives older ones");
        assert!(!g.contains(7), "oldest entry displaced");
        assert!(g.take(6));
        assert!(!g.take(6), "hit consumed");
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn remove_forgets_page() {
        let (sim, acc) = rig(1, Discipline::Lru);
        let a = Rc::clone(&acc);
        sim.block_on(async move {
            a.insert(0, 7).await;
            a.insert(0, 8).await;
            assert!(a.remove(7).await);
            assert!(!a.remove(7).await, "already removed");
            let mut victims = Vec::new();
            a.take_victims(0, 0, 2, &|_| false, &mut victims).await;
            assert_eq!(victims, vec![8]);
        });
    }
}
