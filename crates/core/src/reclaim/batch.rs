//! One eviction batch: victim selection, unmap, shootdown, writeback,
//! reclaim (steps ①–⑦ of §4.1), shared by the sequential evictor, the
//! synchronous fault-path fallback, `madvise(MADV_PAGEOUT)`-style forced
//! pageout and the pipelined evictor.

use mage_fabric::Completion;
use mage_mmu::{CoreId, FlushTicket, Pte, PAGE_SIZE};
use mage_sim::time::{Nanos, SimTime};
use mage_sim::trace::TRACK_WRITEBACK;

use crate::config::PlantedBug;
use crate::events::PageEvent;
use crate::machine::FarMemory;
use crate::reclaim::policy::PolicyProbe;
use crate::retry::TransferOp;

/// One page moving through the eviction pipeline.
#[derive(Clone, Copy)]
pub(crate) struct EvictPage {
    pub(crate) vpn: u64,
    pub(crate) frame: u64,
    /// Backend slot the page writes back to (replicated backends route
    /// the mirror writes by this).
    pub(crate) rpn: u64,
    pub(crate) dirty: bool,
    /// Generation tag matching this page's entry in `FarMemory::evicting`.
    pub(crate) gen: u64,
}

/// The posted writebacks of one eviction batch, each tagged with its
/// page's index in the batch so failures map back to their victims.
pub(crate) struct WritebackSet {
    completions: Vec<(usize, Completion)>,
}

impl WritebackSet {
    /// When every posted write has completed (successfully or not), or
    /// `None` if the batch was all-clean and posted nothing. Injected
    /// latency spikes can reorder completions, so this is the maximum
    /// over the set, not the last posted.
    pub(crate) fn done_at(&self) -> Option<SimTime> {
        self.completions.iter().map(|(_, c)| c.completes_at()).max()
    }
}

/// Timing contributions of one (possibly synchronous) eviction batch.
pub(crate) struct EvictOutcome {
    /// Pages evicted.
    pub pages: usize,
    /// Time spent waiting on the TLB shootdown.
    pub tlb_ns: Nanos,
    /// Time spent in accounting scans.
    pub acct_ns: Nanos,
}

impl FarMemory {
    /// Allocates a backend slot for candidate `vpn` and unmaps it,
    /// leaving the PTE `remote + locked` so concurrent faults wait until
    /// the writeback is durable. Returns the staged page, or `None` if
    /// the candidate must be skipped (raced with a fault/unmap, VMA gone,
    /// or far memory exhausted).
    ///
    /// This is the single unmap implementation behind both the scan-driven
    /// batches ([`FarMemory::scan_and_unmap`]) and forced pageout
    /// ([`FarMemory::pageout`]).
    async fn unmap_candidate(&self, vpn: u64) -> Option<EvictPage> {
        let pte = self.pt.get(vpn);
        if !pte.is_present() || pte.locked() {
            return None; // raced with an unmap or an in-flight fault
        }
        let direct_rpn = {
            let asp = self.asp.borrow();
            match asp.find(vpn) {
                Some(vma) => vma.remote_page(vpn),
                None => return None,
            }
        };
        let unmap_cost = self.cfg.costs.os.pte_update_ns
            + self.cfg.costs.os.rmap_cgroup_ns
            + self.cfg.costs.os.swapcache_ns;
        self.sim.sleep(unmap_cost).await;
        let rpn = self.backend.alloc_slot(direct_rpn).await?;
        let frame = pte.payload();
        let dirty = pte.dirty();
        // The set below both rewrites the word and takes its lock bit:
        // tell the detector the lock edge comes first so the write is
        // inside the critical section.
        self.pt.shadow_lock(vpn);
        self.pt.set(vpn, Pte::remote(rpn).with_locked(true));
        let gen = self.evict_gen.get();
        self.evict_gen.set(gen + 1);
        self.evicting.borrow_mut().insert(vpn, (frame, gen));
        // Publish the evicting-map entry: the fault path's cancel branch
        // reads it without holding the PTE lock.
        self.pt.shadow_publish(vpn);
        self.stats.unmapped_pages.inc();
        self.emit(PageEvent::Unmapped { vpn, frame });
        Some(EvictPage {
            vpn,
            frame,
            rpn,
            dirty,
            gen,
        })
    }

    /// Steps ① of §4.1: select victims through the accounting structure
    /// and the configured [`EvictionPolicy`](crate::reclaim::EvictionPolicy),
    /// allocate backend slots and unmap.
    ///
    /// Returns the unmapped batch and the accounting-scan time.
    pub(crate) async fn scan_and_unmap(
        &self,
        evictor_id: usize,
        round: usize,
        want: usize,
    ) -> (Vec<EvictPage>, Nanos) {
        let t0 = self.sim.now();
        let mut victims = Vec::new();
        let probe = PolicyProbe {
            pt: &self.pt,
            policy: &*self.policy,
        };
        self.acct
            .take_victims(evictor_id, round, want, &probe, &mut victims)
            .await;
        let acct_ns = self.sim.now().saturating_since(t0);
        let mut batch = Vec::with_capacity(victims.len());
        for vpn in victims {
            if let Some(page) = self.unmap_candidate(vpn).await {
                batch.push(page);
            }
        }
        (batch, acct_ns)
    }

    /// Steps ②–③ initiation: send the batched shootdown IPIs.
    pub(crate) async fn send_shootdown(&self, core: CoreId, batch: &[EvictPage]) -> FlushTicket {
        let vpns: Vec<u64> = batch.iter().map(|p| p.vpn).collect();
        self.ic.send_flush(core, &self.app_cores, &vpns).await
    }

    /// Steps ④–⑤: post the writebacks for flushed pages.
    ///
    /// Clean pages whose backend copy is still valid (direct mapping)
    /// skip the write; backends with per-eviction slot allocation report
    /// [`writes_clean_pages`](crate::backend::FarBackend::writes_clean_pages),
    /// so every page is written.
    pub(crate) async fn post_writebacks(&self, batch: &[EvictPage]) -> WritebackSet {
        let t_post = self.sim.now();
        let must_write_clean = self.backend.writes_clean_pages();
        let mut completions = Vec::new();
        for (idx, page) in batch.iter().enumerate() {
            if page.dirty || must_write_clean {
                completions.push((idx, self.backend.write_page(page.rpn, PAGE_SIZE)));
            } else {
                self.stats.clean_reclaims.inc();
            }
        }
        let wrote = completions.len() as u64;
        if wrote > 0 {
            // Doorbell-batched posting cost for the whole group.
            self.sim
                .sleep(
                    self.cfg.costs.os.rdma_post_cpu_ns
                        + self.cfg.costs.evict_post_per_page_ns * (wrote - 1),
                )
                .await;
            self.stats.writebacks.add(wrote);
        }
        let wb = WritebackSet { completions };
        if let (Some(t), Some(done)) = (self.tracer(), wb.done_at()) {
            // The in-flight window is known at post time (completion
            // instants are fixed when posted), so the whole batch is one
            // predicted event on the writeback track.
            t.record(
                TRACK_WRITEBACK,
                "evict",
                "writeback",
                t_post.as_nanos(),
                done.saturating_since(t_post),
                Some(("pages", wrote)),
            );
        }
        wb
    }

    /// Step ⑥ settlement: inspect the completed writebacks of a batch,
    /// retry the failed ones, and re-insert victims whose write could not
    /// be made durable. Returns the pages that may proceed to reclaim.
    ///
    /// Must be called only after [`WritebackSet::done_at`]: outcomes are
    /// read synchronously, so the fault-free path adds no awaits (and no
    /// schedule perturbation) here.
    pub(crate) async fn settle_writebacks(
        &self,
        core: CoreId,
        batch: &[EvictPage],
        wb: &WritebackSet,
    ) -> Vec<EvictPage> {
        let mut failed = Vec::new();
        for (idx, c) in &wb.completions {
            if let Err(e) = c.outcome() {
                if self
                    .retry_transfer(TransferOp::Write, PAGE_SIZE, batch[*idx].rpn, Err(e))
                    .await
                    .is_err()
                {
                    failed.push(*idx);
                }
            }
        }
        if failed.is_empty() {
            return batch.to_vec();
        }
        let mut survivors = Vec::with_capacity(batch.len() - failed.len());
        for (idx, page) in batch.iter().enumerate() {
            if failed.contains(&idx) {
                self.requeue_victim(core, page).await;
            } else {
                survivors.push(*page);
            }
        }
        survivors
    }

    /// Re-inserts a victim whose writeback exhausted its retries: the
    /// remote copy never became durable, so the frame (still intact —
    /// reclaim happens strictly after settlement) is re-mapped dirty.
    /// This reuses the refault-cancellation bookkeeping: the page leaves
    /// `evicting` under its generation tag, so the settlement identity
    /// `evicted + sync + cancelled + requeued ≤ unmapped` is preserved.
    async fn requeue_victim(&self, core: CoreId, page: &EvictPage) {
        {
            let mut evicting = self.evicting.borrow_mut();
            match evicting.get(page.vpn) {
                Some(&(_, gen)) if gen == page.gen => {
                    evicting.remove(page.vpn);
                }
                _ => {
                    // A concurrent refault already cancelled this eviction
                    // and owns the frame; nothing left to roll back.
                    self.stats.evict_cancelled_pages.inc();
                    return;
                }
            }
        }
        let pte = self.pt.get(page.vpn);
        debug_assert!(pte.is_remote() && pte.locked(), "requeue of a settled page");
        let rpn = pte.payload();
        self.sim.sleep(self.cfg.costs.os.pte_update_ns).await;
        // Dirty: the only valid copy is local again. The set rewrites the
        // word while the lock bit (held since unmap) clears: unlock after.
        self.pt.set(
            page.vpn,
            Pte::present(page.frame).with_accessed(true).with_dirty(true),
        );
        self.pt.shadow_unlock(page.vpn);
        if self.acct.insert(core.index(), page.vpn).await {
            // Not a fault — the victim came straight back because its
            // writeback failed — so only the ghost-hit counter moves.
            self.stats.ghost_hits.inc();
        }
        self.wake_page(page.vpn);
        self.backend.release_slot(rpn).await;
        self.stats.requeued_victims.inc();
        self.emit(PageEvent::Requeued {
            vpn: page.vpn,
            frame: page.frame,
        });
    }

    /// Step ⑦: reclaim the frames, release the page locks and wake both
    /// page waiters and threads stalled on the free list. Returns the
    /// number of frames actually reclaimed (cancelled pages excluded).
    pub(crate) async fn finalize_batch(
        &self,
        core: CoreId,
        batch: &[EvictPage],
        sync: bool,
    ) -> usize {
        let t0 = self.sim.now();
        let mut frames = Vec::with_capacity(batch.len());
        let planted_publish = self.cfg.planted == Some(PlantedBug::Publish);
        let mut settled = Vec::new();
        for page in batch {
            // A concurrent refault may have cancelled this page's
            // eviction and reclaimed the frame — and the page may even be
            // mid-eviction again under a *newer* batch. Only the batch
            // whose generation still owns the entry may reclaim.
            {
                let mut evicting = self.evicting.borrow_mut();
                match evicting.get(page.vpn) {
                    Some(&(_, gen)) if gen == page.gen => {
                        evicting.remove(page.vpn);
                    }
                    _ => {
                        self.stats.evict_cancelled_pages.inc();
                        continue;
                    }
                }
            }
            #[cfg(debug_assertions)]
            for c in self.topo.cores() {
                debug_assert!(
                    !self.ic.tlb(c).translates(page.vpn),
                    "frame reclaim with live translation: vpn {:#x} core {c:?}",
                    page.vpn
                );
            }
            self.pt.update(page.vpn, |p| p.with_locked(false));
            self.pt.shadow_unlock(page.vpn);
            self.wake_page(page.vpn);
            self.emit(PageEvent::Reclaimed {
                vpn: page.vpn,
                frame: page.frame,
            });
            if planted_publish {
                settled.push(page.vpn);
            }
            frames.push(page.frame);
        }
        self.alloc.free_batch(core.index(), &frames).await;
        self.free_waiters.wake_all();
        // Planted bug (test-only, `PlantedBug::Publish`): redundantly
        // re-publish the settled PTE words *after* dropping their lock
        // bits and waking waiters. The rewritten values are identical, so
        // no functional test can tell — but each `set` is an unlocked
        // plain write that races with the next fault-in install (or
        // unmap) of the same page. Only the race detector can see it.
        if planted_publish {
            for &vpn in &settled {
                self.pt.set(vpn, self.pt.get(vpn));
            }
        }
        self.stats.eviction_batches.inc();
        // Count only frames actually reclaimed: pages cancelled mid-batch
        // by a refault are accounted under `evict_cancelled_pages`, never
        // under the evicted counters. `PlantedBug::Settlement` resurrects
        // the historical double-count (a deliberate, test-only bug for the
        // mage-check oracle to catch).
        let counted = if self.cfg.planted == Some(PlantedBug::Settlement) {
            2 * frames.len() as u64
        } else {
            frames.len() as u64
        };
        if sync {
            self.stats.sync_evicted_pages.add(counted);
        } else {
            self.stats.evicted_pages.add(counted);
        }
        self.trace_evt(
            core.0,
            "evict",
            "finalize",
            t0,
            Some(("frames", frames.len() as u64)),
        );
        frames.len()
    }

    /// Steps ②–⑦ with blocking waits: shootdown, writeback, reclaim.
    /// Returns the TLB-shootdown wait time.
    async fn flush_batch_sync(&self, core: CoreId, batch: &[EvictPage], sync: bool) -> Nanos {
        let t_tlb = self.sim.now();
        let ticket = self.send_shootdown(core, batch).await;
        ticket.wait().await;
        let tlb_ns = self.sim.now().saturating_since(t_tlb);
        let wb = self.post_writebacks(batch).await;
        if let Some(done) = wb.done_at() {
            self.sim.sleep_until(done).await;
        }
        let survivors = self.settle_writebacks(core, batch, &wb).await;
        self.finalize_batch(core, &survivors, sync).await;
        tlb_ns
    }

    /// Force-evicts the given present pages (an `madvise(MADV_PAGEOUT)`
    /// analogue, the mechanism the paper's §3.2 microbenchmarks use to
    /// pre-evict pages). Runs the full unmap → shootdown → writeback →
    /// reclaim sequence synchronously on the calling core and returns the
    /// number of pages actually paged out.
    pub async fn pageout(&self, core: CoreId, vpns: &[u64]) -> usize {
        let mut batch = Vec::new();
        for &vpn in vpns {
            if let Some(page) = self.unmap_candidate(vpn).await {
                batch.push(page);
            }
        }
        if batch.is_empty() {
            return 0;
        }
        self.flush_batch_sync(core, &batch, false).await;
        batch.len()
    }

    /// A full sequential eviction batch (steps ①–⑦ with blocking waits).
    ///
    /// Used by the background evictors of non-pipelined systems and by
    /// the synchronous-eviction fallback on the fault path (`sync`).
    pub(crate) async fn evict_batch(
        &self,
        core: CoreId,
        evictor_id: usize,
        round: usize,
        want: usize,
        sync: bool,
    ) -> EvictOutcome {
        if sync {
            self.stats.sync_evictions.inc();
        }
        let t_scan = self.sim.now();
        let (batch, acct_ns) = self.scan_and_unmap(evictor_id, round, want).await;
        self.trace_evt(
            core.0,
            "evict",
            "scan",
            t_scan,
            Some(("pages", batch.len() as u64)),
        );
        if batch.is_empty() {
            return EvictOutcome {
                pages: 0,
                tlb_ns: 0,
                acct_ns,
            };
        }
        let tlb_ns = self.flush_batch_sync(core, &batch, sync).await;
        EvictOutcome {
            pages: batch.len(),
            tlb_ns,
            acct_ns,
        }
    }
}
