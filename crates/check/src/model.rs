//! The differential reference model: an abstract per-page state machine.
//!
//! The engine's page-lifecycle event stream (see `mage::events`) drives a
//! four-state abstraction of each page — [`PageState::Local`],
//! [`PageState::Remote`], [`PageState::InFlight`] (fetch in progress) and
//! [`PageState::Evicting`] (unmapped, not yet settled). Each event is a
//! legal transition from exactly one set of predecessor states; anything
//! else (a double install, a reclaim of a page never unmapped, a cancel
//! of an eviction that was not in flight) is a protocol violation the
//! concrete engine must never produce.
//!
//! At quiescent points [`RefModel::crosscheck`] compares the abstract
//! state against the concrete PTE bits: `Local` pages must be present,
//! `Remote` pages must be remote and unlocked, and the two transient
//! states must still hold the PTE lock. Because events are delivered
//! synchronously with the PTE mutation, any divergence means the engine
//! and its own event stream disagree — a real bug, not a race of the
//! observer.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

use mage::{EventSink, FarMemory, PageEvent};
use mage_mmu::Vma;

use crate::Violation;

/// Abstract state of one page in the reference model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PageState {
    /// Mapped to a local frame.
    Local,
    /// Only the far-memory copy exists; no operation in flight.
    Remote,
    /// A fault or prefetch holds the PTE lock and is fetching the page.
    InFlight,
    /// Eviction unmapped the page; settlement (reclaim, cancel or
    /// requeue) has not happened yet.
    Evicting,
}

/// Display name of a [`PageEvent`] variant, for violation reports.
fn event_name(event: &PageEvent) -> &'static str {
    match event {
        PageEvent::Placed { .. } => "placed",
        PageEvent::FetchStart { .. } => "fetch-start",
        PageEvent::Installed { .. } => "installed",
        PageEvent::FetchAborted { .. } => "fetch-aborted",
        PageEvent::Unmapped { .. } => "unmapped",
        PageEvent::EvictCancelled { .. } => "evict-cancelled",
        PageEvent::Requeued { .. } => "requeued",
        PageEvent::Reclaimed { .. } => "reclaimed",
    }
}

/// The reference model: registered on the engine's event tap, replays
/// every page-lifecycle event through the abstract state machine and
/// records the first illegal transition.
#[derive(Default)]
pub struct RefModel {
    pages: RefCell<BTreeMap<u64, PageState>>,
    violation: RefCell<Option<Violation>>,
    events: Cell<u64>,
}

impl RefModel {
    /// An empty model (no pages placed yet). Register it with
    /// [`FarMemory::tap_events`] *before* `populate` so it observes the
    /// initial placements.
    pub fn new() -> Self {
        RefModel::default()
    }

    /// Total events observed so far.
    pub fn events_seen(&self) -> u64 {
        self.events.get()
    }

    /// The model's state for `vpn`, if the page was ever placed.
    pub fn state(&self, vpn: u64) -> Option<PageState> {
        self.pages.borrow().get(&vpn).copied()
    }

    /// The first recorded protocol violation, if any.
    pub fn violation(&self) -> Option<Violation> {
        self.violation.borrow().clone()
    }

    fn apply(&self, event: PageEvent) {
        // After the first violation the abstract state is unreliable;
        // keep the original evidence instead of piling up corruption.
        if self.violation.borrow().is_some() {
            return;
        }
        self.events.set(self.events.get() + 1);
        let vpn = event.vpn();
        let mut pages = self.pages.borrow_mut();
        let state = pages.get(&vpn).copied();
        let next = match (event, state) {
            (PageEvent::Placed { local: true, .. }, None) => PageState::Local,
            (PageEvent::Placed { local: false, .. }, None) => PageState::Remote,
            // `None` admits a first-touch fault on a never-placed page.
            (PageEvent::FetchStart { .. }, Some(PageState::Remote) | None) => PageState::InFlight,
            (PageEvent::Installed { .. }, Some(PageState::InFlight)) => PageState::Local,
            (PageEvent::FetchAborted { .. }, Some(PageState::InFlight)) => PageState::Remote,
            (PageEvent::Unmapped { .. }, Some(PageState::Local)) => PageState::Evicting,
            (PageEvent::EvictCancelled { .. }, Some(PageState::Evicting)) => PageState::Local,
            (PageEvent::Requeued { .. }, Some(PageState::Evicting)) => PageState::Local,
            (PageEvent::Reclaimed { .. }, Some(PageState::Evicting)) => PageState::Remote,
            _ => {
                *self.violation.borrow_mut() = Some(Violation::IllegalTransition {
                    vpn,
                    state,
                    event: event_name(&event),
                });
                return;
            }
        };
        pages.insert(vpn, next);
    }

    /// Compares the abstract state of every page in `vma` against the
    /// concrete PTE bits. Call only at quiescent points (no app thread
    /// running); in-flight fetches and unsettled evictions are expected
    /// and checked for lock consistency rather than flagged.
    pub fn crosscheck(&self, engine: &FarMemory, vma: &Vma) -> Result<(), Violation> {
        if let Some(v) = self.violation.borrow().clone() {
            return Err(v);
        }
        let pages = self.pages.borrow();
        for i in 0..vma.pages {
            let vpn = vma.start_vpn + i;
            let pte = engine.page_table().get(vpn);
            let Some(state) = pages.get(&vpn).copied() else {
                return Err(Violation::IllegalTransition {
                    vpn,
                    state: None,
                    event: "never-placed",
                });
            };
            let consistent = match state {
                // A present page may be lock-held by an eviction scan
                // that has not unmapped it yet.
                PageState::Local => pte.is_present(),
                PageState::Remote => pte.is_remote() && !pte.locked(),
                // Both transient states own the PTE lock until they
                // settle; settling emits the event synchronously.
                PageState::InFlight | PageState::Evicting => pte.locked(),
            };
            if !consistent {
                return Err(Violation::ModelMismatch {
                    vpn,
                    state,
                    pte: pte.0,
                });
            }
        }
        Ok(())
    }
}

impl EventSink for RefModel {
    fn on_event(&self, event: PageEvent) {
        self.apply(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legal_lifecycle_is_accepted() {
        let m = RefModel::new();
        let vpn = 42;
        for e in [
            PageEvent::Placed { vpn, local: true },
            PageEvent::Unmapped { vpn, frame: 3 },
            PageEvent::Reclaimed { vpn, frame: 3 },
            PageEvent::FetchStart { vpn },
            PageEvent::Installed { vpn, frame: 5 },
            PageEvent::Unmapped { vpn, frame: 5 },
            PageEvent::EvictCancelled { vpn, frame: 5 },
        ] {
            m.on_event(e);
        }
        assert_eq!(m.violation(), None);
        assert_eq!(m.state(vpn), Some(PageState::Local));
        assert_eq!(m.events_seen(), 7);
    }

    #[test]
    fn aborted_fetch_returns_to_remote() {
        let m = RefModel::new();
        m.on_event(PageEvent::Placed { vpn: 1, local: false });
        m.on_event(PageEvent::FetchStart { vpn: 1 });
        assert_eq!(m.state(1), Some(PageState::InFlight));
        m.on_event(PageEvent::FetchAborted { vpn: 1 });
        assert_eq!(m.state(1), Some(PageState::Remote));
        assert_eq!(m.violation(), None);
    }

    #[test]
    fn illegal_transition_is_flagged_and_first_wins() {
        let m = RefModel::new();
        m.on_event(PageEvent::Placed { vpn: 9, local: false });
        // Install without a fetch: illegal.
        m.on_event(PageEvent::Installed { vpn: 9, frame: 1 });
        let first = m.violation().expect("violation recorded");
        assert!(matches!(
            first,
            Violation::IllegalTransition {
                vpn: 9,
                state: Some(PageState::Remote),
                event: "installed"
            }
        ));
        // Later garbage must not replace the original evidence.
        m.on_event(PageEvent::Reclaimed { vpn: 9, frame: 1 });
        assert_eq!(m.violation(), Some(first));
    }

    #[test]
    fn double_placement_is_illegal() {
        let m = RefModel::new();
        m.on_event(PageEvent::Placed { vpn: 2, local: true });
        m.on_event(PageEvent::Placed { vpn: 2, local: false });
        assert!(m.violation().is_some());
    }
}
