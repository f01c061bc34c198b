//! Sequential-pattern readahead prefetching.
//!
//! DiLOS, Hermit and MAGE-Lib record past fault-in virtual addresses to
//! detect sequential access patterns and proactively fetch upcoming pages
//! (§6.2, "Applications with regular access patterns"). The window grows
//! with the streak length up to [`READAHEAD_MAX_WINDOW`] pages.
//! Prefetches run as detached tasks: they consume NIC bandwidth and free
//! pages but add no latency to the faulting thread — which is exactly why
//! prefetching only pays off when the eviction path can sustain the extra
//! fault-in pressure (the paper's Fig. 10 observation).

use std::rc::Rc;

use mage_mmu::{CoreId, Pte, PAGE_SIZE};

use crate::config::PrefetchPolicy;
use crate::events::PageEvent;
use crate::machine::FarMemory;

/// Largest readahead window, in pages.
const READAHEAD_MAX_WINDOW: u64 = 8;

/// Per-core sequential-stream detector.
pub(crate) struct StreamDetector {
    last_vpn: u64,
    streak: u32,
    prefetched_until: u64,
}

impl StreamDetector {
    pub(crate) fn new() -> Self {
        StreamDetector {
            last_vpn: u64::MAX - 1,
            streak: 0,
            prefetched_until: 0,
        }
    }

    /// Feeds a fault address; returns how many pages ahead to prefetch.
    fn observe(&mut self, vpn: u64) -> u64 {
        if vpn == self.last_vpn + 1 {
            self.streak += 1;
        } else {
            self.streak = 0;
            self.prefetched_until = vpn;
        }
        self.last_vpn = vpn;
        if self.streak < 2 {
            return 0;
        }
        // Exponential ramp-up capped at the window, like Linux readahead.
        let window = (1u64 << self.streak.min(10)).min(READAHEAD_MAX_WINDOW);
        let target = vpn + window;
        if target <= self.prefetched_until {
            return 0;
        }
        let from = self.prefetched_until.max(vpn) + 1;
        self.prefetched_until = target;
        target - from + 1
    }
}

impl FarMemory {
    /// Called at the end of a major fault: detect streams, spawn
    /// prefetches.
    pub(crate) fn maybe_prefetch(&self, core: CoreId, vpn: u64) {
        if self.cfg.prefetch != PrefetchPolicy::Readahead {
            return;
        }
        let count = {
            let mut detectors = self.prefetchers.borrow_mut();
            detectors[core.index()].observe(vpn)
        };
        if count == 0 {
            return;
        }
        let Some(engine) = self.self_ref.borrow().upgrade() else {
            return;
        };
        let vma_end = {
            let asp = self.asp.borrow();
            match asp.find(vpn) {
                Some(v) => v.end_vpn(),
                None => return,
            }
        };
        // Prefetch the next `count` *remote* pages, skipping already-
        // resident ones (swap-cluster-readahead style) within a bounded
        // lookahead so the window stays meaningfully ahead of the scan.
        let mut issued = 0;
        let mut target = vpn + 1;
        let lookahead_end = (vpn + 8 * count).min(vma_end);
        while issued < count && target < lookahead_end {
            if self.pt.get(target).is_remote() {
                let e = Rc::clone(&engine);
                let t = target;
                self.sim
                    .spawn(async move { e.prefetch_page(core, t).await });
                issued += 1;
            }
            target += 1;
        }
        {
            let mut detectors = self.prefetchers.borrow_mut();
            let d = &mut detectors[core.index()];
            d.prefetched_until = d.prefetched_until.max(target);
        }
    }

    /// Asynchronously faults in one page without blocking any app thread.
    async fn prefetch_page(self: Rc<Self>, core: CoreId, vpn: u64) {
        // Never compete with real faults for the last free pages.
        if self.alloc.free_frames() <= self.low_watermark {
            return;
        }
        let pte = self.pt.get(vpn);
        if !pte.is_remote() || pte.locked() {
            return;
        }
        if !self.pt.try_lock(vpn) {
            return;
        }
        self.emit(PageEvent::FetchStart { vpn });
        let rpn = pte.payload();
        let Some(frame) = self.alloc.alloc(core.index()).await else {
            self.pt.unlock(vpn);
            self.wake_page(vpn);
            self.emit(PageEvent::FetchAborted { vpn });
            return;
        };
        self.sim.sleep(self.cfg.costs.os.rdma_post_cpu_ns).await;
        if self
            .await_op(self.backend.read_page(rpn, PAGE_SIZE))
            .await
            .is_err()
        {
            // Prefetches are speculative: no retries, just roll back and
            // let a real fault (with its retry budget) fetch the page.
            self.pt.unlock(vpn);
            self.wake_page(vpn);
            self.alloc.free_batch(core.index(), &[frame]).await;
            self.free_waiters.wake_all();
            self.emit(PageEvent::FetchAborted { vpn });
            return;
        }
        self.backend.release_slot(rpn).await;
        self.sim.sleep(self.cfg.costs.os.pte_update_ns).await;
        // Installed with one referenced round (like swap-cache readahead
        // pages): enough grace not to be reclaimed before first touch,
        // while a wrong guess still ages out on the next scan.
        self.pt.set(vpn, Pte::present(frame).with_accessed(true));
        self.pt.shadow_unlock(vpn);
        self.emit(PageEvent::Installed { vpn, frame });
        self.acct.insert(core.index(), vpn).await;
        self.wake_page(vpn);
        self.stats.prefetches.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detector_needs_a_streak() {
        let mut d = StreamDetector::new();
        assert_eq!(d.observe(100), 0);
        assert_eq!(d.observe(101), 0);
        // Third sequential fault triggers readahead.
        assert!(d.observe(102) > 0);
    }

    #[test]
    fn detector_resets_on_random_jump() {
        let mut d = StreamDetector::new();
        for v in 100..105 {
            d.observe(v);
        }
        assert_eq!(d.observe(9_000), 0, "jump resets the streak");
        assert_eq!(d.observe(9_001), 0);
    }

    #[test]
    fn window_does_not_refetch_covered_pages() {
        let mut d = StreamDetector::new();
        d.observe(10);
        d.observe(11);
        let first = d.observe(12);
        assert!(first >= 1);
        // The next sequential fault extends, not repeats, the window.
        let second = d.observe(13);
        assert!(second <= first + 1);
        let total_covered = d.prefetched_until;
        assert!(total_covered > 13);
    }

    #[test]
    fn window_caps_at_max() {
        let mut d = StreamDetector::new();
        let mut max_step = 0;
        for v in 0..64 {
            max_step = max_step.max(d.observe(v));
        }
        assert!(
            max_step <= READAHEAD_MAX_WINDOW,
            "window {max_step} exceeded cap"
        );
    }
}
