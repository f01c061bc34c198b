//! Pluggable victim-selection policies (`EP₁`).
//!
//! A policy answers one question — *is this candidate worth keeping
//! resident for another round?* — by testing **and aging** the page's
//! reference state. The accounting structure decides *which* candidates
//! are inspected and in what order; the policy decides their fate. The
//! split mirrors Linux: `isolate_lru_pages` picks candidates, the
//! reference check decides reactivation. The policy also names the
//! queue [`Discipline`] the accounting structure runs under, so the
//! policy is the system's only victim-selection choice.
//!
//! Implementations ship for the paper's second-chance test (default),
//! MAGE-Lnx's no-recheck [`Fifo`] queues, classic [`Clock`], S3-FIFO
//! ([`S3Fifo`]: a frequency-capped filter over small/main queues fed by
//! the ghost list's re-fault signal), and an NFU/aging [`ApproxLru`]
//! baseline. New policies are a new file
//! implementing [`EvictionPolicy`] plus an
//! [`EvictionPolicyKind::Custom`](crate::config::EvictionPolicyKind)
//! constructor — no engine edits.
//!
//! ## Ghost-feedback contract
//!
//! The engine notifies the policy via [`EvictionPolicy::note_refault`]
//! whenever a fault-in (or an eviction cancel) hits the accounting
//! ghost list — i.e. the page was evicted recently enough that evicting
//! it was probably a mistake. Policies may use the signal to bias victim
//! selection away from such pages; the default is a no-op, so policies
//! that ignore it (and the pinned default paths) pay nothing.

use std::cell::RefCell;
use std::collections::BTreeMap;

use mage_accounting::Discipline;
use mage_mmu::PageTable;

/// Victim-selection policy: test-and-age one eviction candidate.
pub trait EvictionPolicy {
    /// Display name (for reports and examples).
    fn name(&self) -> &'static str;

    /// Tests candidate `vpn` and ages its reference state; `true` keeps
    /// the page resident for another round (it is reactivated by the
    /// accounting structure), `false` hands it to the evictor.
    ///
    /// Implementations that consult the hardware-accessed bit must clear
    /// it here, so the next round observes only newer accesses.
    fn test_and_age(&self, pt: &PageTable, vpn: u64) -> bool;

    /// Called when a fault-in for `vpn` hits the accounting ghost list
    /// (the page is back shortly after being evicted). Policies may bias
    /// future [`test_and_age`](Self::test_and_age) decisions in its
    /// favour; the default ignores the signal.
    fn note_refault(&self, _vpn: u64) {}

    /// The queue discipline the accounting structure runs under for this
    /// policy; the default is [`Discipline::Lru`].
    fn discipline(&self) -> Discipline {
        Discipline::Lru
    }
}

/// The paper's second-chance test: a page whose accessed bit is set since
/// the last scan survives once; the test clears the bit.
#[derive(Default)]
pub struct SecondChance;

impl EvictionPolicy for SecondChance {
    fn name(&self) -> &'static str {
        "second-chance"
    }

    fn test_and_age(&self, pt: &PageTable, vpn: u64) -> bool {
        let old = pt.update(vpn, |p| p.with_accessed(false));
        old.accessed()
    }
}

/// MAGE-Lnx's FIFO queues (§5.1): candidates are evicted in queue order
/// with no accessed-bit recheck, trading accuracy for less list work.
/// Under [`Discipline::Fifo`] the accounting structure never calls the
/// test, nor charges its per-page scan cost.
#[derive(Default)]
pub struct Fifo;

impl EvictionPolicy for Fifo {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn test_and_age(&self, _pt: &PageTable, _vpn: u64) -> bool {
        false
    }

    fn discipline(&self) -> Discipline {
        Discipline::Fifo
    }
}

/// Classic CLOCK: the [`SecondChance`] test, but a hot page rotates to
/// the tail of the same circular queue instead of moving to a protected
/// list.
#[derive(Default)]
pub struct Clock;

impl EvictionPolicy for Clock {
    fn name(&self) -> &'static str {
        "clock"
    }

    fn test_and_age(&self, pt: &PageTable, vpn: u64) -> bool {
        SecondChance.test_and_age(pt, vpn)
    }

    fn discipline(&self) -> Discipline {
        Discipline::Clock
    }
}

/// S3-FIFO's frequency filter (SOSP '23), honestly degraded to the page
/// table's one-bit accessed signal as the paper's §4.2.2 argues it must
/// be: each observed hit raises a per-page frequency (capped at
/// [`S3Fifo::FREQ_CAP`]), each cold scan decays it, and the page is
/// evicted only at frequency zero. The queue structure itself (small /
/// main / ghost) is the accounting structure run under
/// [`Discipline::S3Fifo`]. The ghost re-fault signal arrives through
/// [`EvictionPolicy::note_refault`] and recharges the page to the cap —
/// this is the "biases victim selection away from recently re-faulted
/// pages" half of the feedback loop.
#[derive(Default)]
pub struct S3Fifo {
    /// Per-page access frequency, capped at [`Self::FREQ_CAP`]. BTreeMap
    /// for the no-hash-collections rule; keyed point lookups only.
    freq: RefCell<BTreeMap<u64, u8>>,
}

impl S3Fifo {
    /// Frequency cap — S3-FIFO uses 2 bits (0..=3).
    pub const FREQ_CAP: u8 = 3;
}

impl EvictionPolicy for S3Fifo {
    fn name(&self) -> &'static str {
        "s3-fifo"
    }

    fn test_and_age(&self, pt: &PageTable, vpn: u64) -> bool {
        let old = pt.update(vpn, |p| p.with_accessed(false));
        let mut freq = self.freq.borrow_mut();
        if old.accessed() {
            let f = freq.entry(vpn).or_insert(0);
            *f = (*f + 1).min(Self::FREQ_CAP);
            return true;
        }
        match freq.get_mut(&vpn) {
            Some(f) if *f > 1 => {
                *f -= 1;
                true
            }
            Some(_) => {
                freq.remove(&vpn);
                true // last unit of grace: survive this scan, evict next
            }
            None => false,
        }
    }

    fn discipline(&self) -> Discipline {
        Discipline::S3Fifo
    }

    fn note_refault(&self, vpn: u64) {
        // A ghost hit means this page was evicted too early — give it the
        // full frequency budget so the next scans keep it resident.
        self.freq.borrow_mut().insert(vpn, Self::FREQ_CAP);
    }
}

/// NFU-with-aging LRU approximation (the classic software LRU stand-in):
/// each scan shifts the page's age byte right and ORs the accessed bit
/// into the top bit, so recently-touched pages carry large values and a
/// page is evicted only once its byte decays to zero (8 cold scans after
/// the last hit). A deliberately *stateful-but-cheap* baseline between
/// [`SecondChance`] (1 bit) and a true LRU ordering.
#[derive(Default)]
pub struct ApproxLru {
    /// Per-page age byte. BTreeMap for the no-hash-collections rule.
    age: RefCell<BTreeMap<u64, u8>>,
}

impl EvictionPolicy for ApproxLru {
    fn name(&self) -> &'static str {
        "approx-lru"
    }

    fn test_and_age(&self, pt: &PageTable, vpn: u64) -> bool {
        let old = pt.update(vpn, |p| p.with_accessed(false));
        let mut ages = self.age.borrow_mut();
        let slot = ages.entry(vpn).or_insert(0);
        *slot = (*slot >> 1) | if old.accessed() { 0x80 } else { 0 };
        if *slot == 0 {
            ages.remove(&vpn);
            false
        } else {
            true
        }
    }
}

/// Adapter presenting an [`EvictionPolicy`] to the accounting crate's
/// [`VictimProbe`](mage_accounting::VictimProbe) seam.
pub(crate) struct PolicyProbe<'a> {
    pub(crate) pt: &'a PageTable,
    pub(crate) policy: &'a dyn EvictionPolicy,
}

impl mage_accounting::VictimProbe for PolicyProbe<'_> {
    fn test_and_age(&self, vpn: u64) -> bool {
        self.policy.test_and_age(self.pt, vpn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mage_mmu::Pte;

    fn table_with(vpn: u64, accessed: bool) -> PageTable {
        let pt = PageTable::new();
        pt.set(vpn, Pte::present(1).with_accessed(accessed));
        pt
    }

    #[test]
    fn second_chance_clears_and_reports() {
        // CLOCK runs the same test; only its queue discipline differs.
        for p in [&SecondChance as &dyn EvictionPolicy, &Clock] {
            let pt = table_with(9, true);
            assert!(p.test_and_age(&pt, 9), "hot on first test");
            assert!(!pt.get(9).accessed(), "bit cleared by the test");
            assert!(!p.test_and_age(&pt, 9), "cold on second test");
        }
    }

    #[test]
    fn fifo_never_reactivates() {
        let pt = table_with(9, true);
        let p = Fifo;
        assert!(!p.test_and_age(&pt, 9), "no recheck");
    }

    #[test]
    fn s3fifo_caps_frequency_and_decays() {
        let pt = table_with(9, true);
        let p = S3Fifo::default();
        assert!(p.test_and_age(&pt, 9), "hit: freq -> 1");
        assert!(!pt.get(9).accessed(), "bit cleared by the test");
        assert!(p.test_and_age(&pt, 9), "cold: last grace unit spent");
        assert!(!p.test_and_age(&pt, 9), "cold again: evicted");
        // Repeated hits saturate at FREQ_CAP instead of growing forever.
        for _ in 0..10 {
            pt.set(9, pt.get(9).with_accessed(true));
            assert!(p.test_and_age(&pt, 9));
        }
        let survives = (0..8).take_while(|_| p.test_and_age(&pt, 9)).count();
        assert_eq!(survives, 3, "decay bounded by the 2-bit cap");
    }

    #[test]
    fn s3fifo_refault_signal_recharges() {
        let pt = table_with(9, false);
        let p = S3Fifo::default();
        assert!(!p.test_and_age(&pt, 9), "unknown cold page evicts");
        p.note_refault(9);
        assert!(p.test_and_age(&pt, 9), "ghost hit grants full grace");
        assert!(p.test_and_age(&pt, 9));
        assert!(p.test_and_age(&pt, 9));
        assert!(!p.test_and_age(&pt, 9), "grace exhausted");
    }

    #[test]
    fn approx_lru_age_byte_decays_over_eight_scans() {
        let pt = table_with(9, true);
        let p = ApproxLru::default();
        assert!(p.test_and_age(&pt, 9), "hit: byte = 0x80");
        let survives = (0..10).take_while(|_| p.test_and_age(&pt, 9)).count();
        assert_eq!(survives, 7, "seven further survivals as the byte shifts out");
        assert!(!p.test_and_age(&pt, 9), "stays cold");
    }

    #[test]
    fn approx_lru_ranks_recent_over_stale() {
        let pt = PageTable::new();
        pt.set(1, Pte::present(1).with_accessed(true));
        pt.set(2, Pte::present(2).with_accessed(true));
        let p = ApproxLru::default();
        // Page 1 touched long ago, page 2 touched every scan: after a few
        // rounds page 1 decays out first.
        assert!(p.test_and_age(&pt, 1));
        for _ in 0..8 {
            assert!(p.test_and_age(&pt, 2));
            pt.set(2, pt.get(2).with_accessed(true));
            if !p.test_and_age(&pt, 1) {
                return; // page 1 evicted while page 2 still protected
            }
        }
        panic!("stale page never decayed out");
    }

    #[test]
    fn default_note_refault_is_a_no_op() {
        let pt = table_with(9, false);
        let p = SecondChance;
        p.note_refault(9);
        assert!(!p.test_and_age(&pt, 9), "second-chance ignores the signal");
    }
}
