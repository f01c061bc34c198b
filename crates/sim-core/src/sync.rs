//! Virtual-time synchronization primitives with contention accounting.
//!
//! These primitives are the measurement instruments of the whole
//! reproduction: the paper's scalability collapse is queueing delay at
//! shared locks (LRU lists, allocators, swap locks, APIC). [`SimMutex`] is
//! a strict-FIFO ticket lock on virtual time; waiting time accrues in the
//! simulation clock and is recorded in [`LockStats`], so contention curves
//! *emerge* from the simulated mechanism rather than being assumed.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeSet, VecDeque};
use std::future::Future;
use std::panic::Location;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::executor::SimHandle;
use crate::race;
use crate::stats::TimeStat;
use crate::time::SimTime;

/// Contention statistics for a [`SimMutex`] or [`Semaphore`].
#[derive(Default)]
pub struct LockStats {
    acquisitions: Cell<u64>,
    contended: Cell<u64>,
    wait: RefCell<TimeStat>,
    hold: RefCell<TimeStat>,
    max_queue: Cell<u64>,
}

impl LockStats {
    /// Total number of successful acquisitions.
    pub fn acquisitions(&self) -> u64 {
        self.acquisitions.get()
    }

    /// Number of acquisitions that had to wait.
    pub fn contended(&self) -> u64 {
        self.contended.get()
    }

    /// Aggregate waiting-time statistics (ns of virtual time).
    pub fn wait(&self) -> TimeStat {
        self.wait.borrow().clone()
    }

    /// Aggregate hold-time statistics (ns of virtual time).
    pub fn hold(&self) -> TimeStat {
        self.hold.borrow().clone()
    }

    /// Longest waiter queue observed.
    pub fn max_queue(&self) -> u64 {
        self.max_queue.get()
    }

    pub(crate) fn record_acquire(&self, waited_ns: u64, queue_len: u64) {
        self.acquisitions.set(self.acquisitions.get() + 1);
        if waited_ns > 0 {
            self.contended.set(self.contended.get() + 1);
        }
        self.wait.borrow_mut().record(waited_ns);
        if queue_len > self.max_queue.get() {
            self.max_queue.set(queue_len);
        }
    }
}

struct MutexCtl {
    next_ticket: Cell<u64>,
    now_serving: Cell<u64>,
    /// Waiters' wakers, keyed by ticket. Registration happens at
    /// poll-time (not ticket order) and handoff needs a lookup by the
    /// served ticket, so this is an association list — queues are short
    /// and a linear scan beats the ordered map it replaced on the
    /// lock/unlock hot path.
    wakers: RefCell<Vec<(u64, Waker)>>,
    abandoned: RefCell<BTreeSet<u64>>,
}

impl MutexCtl {
    /// Removes and returns the waker registered for `ticket`, if any.
    fn take_waker(&self, ticket: u64) -> Option<Waker> {
        let mut wakers = self.wakers.borrow_mut();
        let pos = wakers.iter().position(|(t, _)| *t == ticket)?;
        Some(wakers.swap_remove(pos).1)
    }

    /// Advances `now_serving` past abandoned tickets and wakes the holder
    /// of the newly served ticket, if any is waiting.
    fn serve_next(&self) {
        let mut serving = self.now_serving.get() + 1;
        {
            let mut abandoned = self.abandoned.borrow_mut();
            while abandoned.remove(&serving) {
                serving += 1;
            }
        }
        self.now_serving.set(serving);
        if let Some(w) = self.take_waker(serving) {
            w.wake();
        }
    }
}

/// A strict-FIFO asynchronous mutex on virtual time.
///
/// Acquisition order equals the order in which [`SimMutex::lock`] was
/// *called* (ticket lock), making simulations deterministic and queueing
/// delay faithful to a fair spinlock. Waiting never burns host CPU — it
/// suspends the task until the guard is handed over.
///
/// # Examples
///
/// ```
/// use mage_sim::{Simulation, sync::SimMutex};
/// use std::rc::Rc;
///
/// let sim = Simulation::new();
/// let h = sim.handle();
/// let m = Rc::new(SimMutex::new(h.clone(), 0u64));
/// for _ in 0..3 {
///     let (h, m) = (h.clone(), Rc::clone(&m));
///     sim.spawn(async move {
///         let mut g = m.lock().await;
///         h.sleep(100).await; // critical-section service time
///         *g += 1;
///     });
/// }
/// sim.run();
/// let m2 = Rc::clone(&m);
/// assert_eq!(sim.block_on(async move { *m2.lock().await }), 3);
/// assert_eq!(m.stats().acquisitions(), 4);
/// ```
pub struct SimMutex<T> {
    sim: SimHandle,
    ctl: MutexCtl,
    value: RefCell<T>,
    stats: LockStats,
    hold_since: Cell<SimTime>,
    /// Lockdep class (see [`crate::lockdep`]).
    class: u32,
    /// Lazily-allocated simsan sync id (see [`crate::race`]).
    race_sync: Cell<u32>,
}

impl<T> SimMutex<T> {
    /// Creates an unlocked mutex protecting `value`.
    ///
    /// The lockdep class defaults to the protected type's name; locks
    /// whose role matters for ordering should use [`SimMutex::new_named`]
    /// so inversions are reported against meaningful class names.
    pub fn new(sim: SimHandle, value: T) -> Self {
        let name = format!("SimMutex<{}>", std::any::type_name::<T>());
        Self::new_named(sim, &name, value)
    }

    /// Creates an unlocked mutex in the lockdep class `name`.
    ///
    /// All locks sharing a class are one node in the acquisition-order
    /// graph (like a `lock_class_key` in Linux lockdep): shard arrays
    /// should share a class, unrelated locks should not.
    pub fn new_named(sim: SimHandle, name: &str, value: T) -> Self {
        let class = sim.lockdep().register_class(name);
        SimMutex {
            sim,
            ctl: MutexCtl {
                next_ticket: Cell::new(0),
                now_serving: Cell::new(0),
                wakers: RefCell::new(Vec::new()),
                abandoned: RefCell::new(BTreeSet::new()),
            },
            value: RefCell::new(value),
            stats: LockStats::default(),
            hold_since: Cell::new(SimTime::ZERO),
            class,
            race_sync: Cell::new(0),
        }
    }

    /// Forbids holding this lock's class across a virtual-time advance:
    /// the executor panics (with the held chain) if the clock must move
    /// while any guard of this class is live. See [`crate::lockdep`] for
    /// why this is opt-in.
    pub fn forbid_hold_across_sleep(&self) {
        self.sim.lockdep().forbid_hold_across_sleep(self.class);
    }

    /// Acquires the mutex; resolves to a guard releasing it on drop.
    #[track_caller]
    pub fn lock(&self) -> MutexLock<'_, T> {
        let ticket = self.ctl.next_ticket.get();
        self.ctl.next_ticket.set(ticket + 1);
        MutexLock {
            mutex: self,
            ticket,
            started: self.sim.now(),
            acquired: false,
            validated: false,
            site: Location::caller(),
        }
    }

    /// Synchronously accesses the protected value without queueing or
    /// recording statistics.
    ///
    /// Intended for setup/seeding and post-run inspection while the
    /// simulation is quiescent.
    ///
    /// # Panics
    ///
    /// Panics if the mutex is currently held or has waiters.
    pub fn with_sync<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        assert_eq!(
            self.ctl.now_serving.get(),
            self.ctl.next_ticket.get(),
            "with_sync on a held or contended mutex"
        );
        f(&mut self.value.borrow_mut())
    }

    /// Current number of tickets waiting behind the holder.
    pub fn queue_len(&self) -> u64 {
        self.ctl
            .next_ticket
            .get()
            .saturating_sub(self.ctl.now_serving.get())
            .saturating_sub(1)
    }

    /// Contention statistics for this lock.
    pub fn stats(&self) -> &LockStats {
        &self.stats
    }
}

/// Future returned by [`SimMutex::lock`].
pub struct MutexLock<'a, T> {
    mutex: &'a SimMutex<T>,
    ticket: u64,
    started: SimTime,
    acquired: bool,
    validated: bool,
    site: &'static Location<'static>,
}

impl<'a, T> Future for MutexLock<'a, T> {
    type Output = MutexGuard<'a, T>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let m = self.mutex;
        if !self.validated {
            // Validate the ordering at the *attempt* (before blocking),
            // so inversions are reported even when they deadlock.
            self.validated = true;
            m.sim
                .lockdep()
                .check_acquire(m.sim.current_task_key(), m.class, self.site);
        }
        if m.ctl.now_serving.get() == self.ticket {
            self.acquired = true;
            let waited = m.sim.now().saturating_since(self.started);
            m.stats.record_acquire(waited, m.queue_len());
            m.hold_since.set(m.sim.now());
            let task = m.sim.current_task_key();
            m.sim.lockdep().acquired(task, m.class, self.site);
            race::edge(&m.race_sync, |det, s| det.acquire(s));
            // The ticket protocol guarantees exclusivity, so this borrow
            // cannot conflict with another live guard.
            let inner = m.value.borrow_mut();
            Poll::Ready(MutexGuard {
                mutex: m,
                inner: Some(inner),
                task,
            })
        } else {
            let mut wakers = m.ctl.wakers.borrow_mut();
            match wakers.iter_mut().find(|(t, _)| *t == self.ticket) {
                Some(entry) => entry.1 = cx.waker().clone(),
                None => wakers.push((self.ticket, cx.waker().clone())),
            }
            Poll::Pending
        }
    }
}

impl<T> Drop for MutexLock<'_, T> {
    fn drop(&mut self) {
        if self.acquired {
            return;
        }
        // Cancelled before acquisition: retire the ticket so the queue
        // does not stall on it.
        let m = self.mutex;
        m.ctl.take_waker(self.ticket);
        if m.ctl.now_serving.get() == self.ticket {
            m.ctl.serve_next();
        } else {
            m.ctl.abandoned.borrow_mut().insert(self.ticket);
        }
    }
}

/// RAII guard for a [`SimMutex`].
pub struct MutexGuard<'a, T> {
    mutex: &'a SimMutex<T>,
    inner: Option<std::cell::RefMut<'a, T>>,
    task: crate::lockdep::TaskKey,
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard borrow missing")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard borrow missing")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the borrow before waking the next ticket holder.
        self.inner = None;
        let m = self.mutex;
        m.sim.lockdep().release(self.task, m.class);
        race::edge(&m.race_sync, |det, s| det.release(s));
        let held = m.sim.now().saturating_since(m.hold_since.get());
        m.stats.hold.borrow_mut().record(held);
        m.ctl.serve_next();
    }
}

struct SemWaiter {
    need: u64,
    granted: Cell<bool>,
    cancelled: Cell<bool>,
    waker: RefCell<Option<Waker>>,
}

/// A FIFO counting semaphore on virtual time.
///
/// Used for bounded resources such as free-page reserves and NIC queue
/// depth. Waiters are served strictly in arrival order; a waiter needing
/// more permits than are available blocks everything behind it (no
/// barging), which models a fair resource queue.
pub struct Semaphore {
    sim: SimHandle,
    permits: Cell<u64>,
    waiters: RefCell<VecDeque<Rc<SemWaiter>>>,
    stats: LockStats,
    /// Lazily-allocated simsan sync id: releases publish, grants acquire.
    race_sync: Cell<u32>,
}

impl Semaphore {
    /// Creates a semaphore with `permits` initial permits.
    pub fn new(sim: SimHandle, permits: u64) -> Self {
        Semaphore {
            sim,
            permits: Cell::new(permits),
            waiters: RefCell::new(VecDeque::new()),
            stats: LockStats::default(),
            race_sync: Cell::new(0),
        }
    }

    /// Currently available permits.
    pub fn available(&self) -> u64 {
        self.permits.get()
    }

    /// Acquires `need` permits, waiting in FIFO order.
    pub fn acquire(&self, need: u64) -> SemAcquire<'_> {
        SemAcquire {
            sem: self,
            need,
            started: self.sim.now(),
            waiter: None,
        }
    }

    /// Attempts to take `need` permits without waiting.
    fn try_acquire(&self, need: u64) -> bool {
        if self.waiters.borrow().is_empty() && self.permits.get() >= need {
            self.permits.set(self.permits.get() - need);
            self.stats.record_acquire(0, 0);
            race::edge(&self.race_sync, |det, s| det.acquire(s));
            true
        } else {
            false
        }
    }

    /// Returns `n` permits and grants queued waiters in order.
    pub fn release(&self, n: u64) {
        race::edge(&self.race_sync, |det, s| det.release(s));
        self.permits.set(self.permits.get() + n);
        self.grant_waiters();
    }

    /// Contention statistics for this semaphore.
    pub fn stats(&self) -> &LockStats {
        &self.stats
    }

    /// Number of queued waiters.
    pub fn queue_len(&self) -> usize {
        self.waiters.borrow().len()
    }

    fn grant_waiters(&self) {
        loop {
            let mut q = self.waiters.borrow_mut();
            match q.front() {
                Some(w) if w.cancelled.get() => {
                    q.pop_front();
                }
                Some(w) if self.permits.get() >= w.need => {
                    self.permits.set(self.permits.get() - w.need);
                    w.granted.set(true);
                    let waker = w.waker.borrow_mut().take();
                    q.pop_front();
                    drop(q);
                    if let Some(waker) = waker {
                        waker.wake();
                    }
                }
                _ => break,
            }
        }
    }
}

/// Future returned by [`Semaphore::acquire`].
pub struct SemAcquire<'a> {
    sem: &'a Semaphore,
    need: u64,
    started: SimTime,
    waiter: Option<Rc<SemWaiter>>,
}

impl Future for SemAcquire<'_> {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let sem = self.sem;
        match &self.waiter {
            None => {
                if sem.try_acquire(self.need) {
                    return Poll::Ready(());
                }
                let w = Rc::new(SemWaiter {
                    need: self.need,
                    granted: Cell::new(false),
                    cancelled: Cell::new(false),
                    waker: RefCell::new(Some(cx.waker().clone())),
                });
                sem.waiters.borrow_mut().push_back(Rc::clone(&w));
                self.waiter = Some(w);
                Poll::Pending
            }
            Some(w) => {
                if w.granted.get() {
                    let waited = sem.sim.now().saturating_since(self.started);
                    sem.stats
                        .record_acquire(waited, sem.waiters.borrow().len() as u64);
                    race::edge(&sem.race_sync, |det, s| det.acquire(s));
                    self.waiter = None;
                    Poll::Ready(())
                } else {
                    *w.waker.borrow_mut() = Some(cx.waker().clone());
                    Poll::Pending
                }
            }
        }
    }
}

impl Drop for SemAcquire<'_> {
    fn drop(&mut self) {
        if let Some(w) = self.waiter.take() {
            if w.granted.get() {
                // Granted but never observed: return the permits.
                self.sem.release(w.need);
            } else {
                w.cancelled.set(true);
            }
        }
    }
}

struct WaitSlot {
    signalled: Cell<bool>,
    waker: RefCell<Option<Waker>>,
    /// Per-waiter simsan sync: the waker releases into it at wake time,
    /// the waiter acquires it when its `Wait` resolves, so a woken task
    /// inherits exactly its waker's clock (a precise edge, not a
    /// queue-wide one).
    race_sync: Cell<u32>,
}

/// A condition-variable-style wait queue.
///
/// Tasks call [`WaitQueue::wait`] in a predicate loop; state changers call
/// [`WaitQueue::wake_one`] / [`WaitQueue::wake_all`]. Because the executor
/// is single-threaded and non-preemptive, checking the predicate and then
/// awaiting is free of lost-wakeup races as long as no `.await` separates
/// the two.
#[derive(Default)]
pub struct WaitQueue {
    waiters: RefCell<VecDeque<Rc<WaitSlot>>>,
}

impl WaitQueue {
    /// Creates an empty wait queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a future completing at the next wake targeting this waiter.
    pub fn wait(&self) -> Wait {
        let slot = Rc::new(WaitSlot {
            signalled: Cell::new(false),
            waker: RefCell::new(None),
            race_sync: Cell::new(0),
        });
        self.waiters.borrow_mut().push_back(Rc::clone(&slot));
        Wait { slot }
    }

    /// Wakes the oldest waiter, if any. Returns true if one was woken.
    pub fn wake_one(&self) -> bool {
        let slot = self.waiters.borrow_mut().pop_front();
        match slot {
            Some(s) => {
                race::edge(&s.race_sync, |det, sy| det.release(sy));
                s.signalled.set(true);
                if let Some(w) = s.waker.borrow_mut().take() {
                    w.wake();
                }
                true
            }
            None => false,
        }
    }

    /// Wakes every current waiter.
    pub fn wake_all(&self) {
        let slots: Vec<_> = self.waiters.borrow_mut().drain(..).collect();
        for s in slots {
            race::edge(&s.race_sync, |det, sy| det.release(sy));
            s.signalled.set(true);
            if let Some(w) = s.waker.borrow_mut().take() {
                w.wake();
            }
        }
    }

    /// Number of registered waiters.
    pub fn len(&self) -> usize {
        self.waiters.borrow().len()
    }

    /// Whether no waiter is registered.
    pub fn is_empty(&self) -> bool {
        self.waiters.borrow().is_empty()
    }
}

/// Future returned by [`WaitQueue::wait`].
pub struct Wait {
    slot: Rc<WaitSlot>,
}

impl Future for Wait {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.slot.signalled.get() {
            race::edge(&self.slot.race_sync, |det, sy| det.acquire(sy));
            Poll::Ready(())
        } else {
            *self.slot.waker.borrow_mut() = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulation;

    #[test]
    fn mutex_is_fifo_and_measures_wait() {
        let sim = Simulation::new();
        let h = sim.handle();
        let m = Rc::new(SimMutex::new(h.clone(), Vec::new()));
        for id in 0..4u32 {
            let (h, m) = (h.clone(), Rc::clone(&m));
            sim.spawn(async move {
                let mut g = m.lock().await;
                h.sleep(100).await;
                g.push(id);
            });
        }
        sim.run();
        let m2 = Rc::clone(&m);
        let order = Simulation::new(); // separate sim not needed; inspect directly
        drop(order);
        assert_eq!(*m2.value.borrow(), vec![0, 1, 2, 3]);
        assert_eq!(m.stats().acquisitions(), 4);
        assert_eq!(m.stats().contended(), 3);
        // Waiters 1..3 wait 100, 200, 300 ns respectively.
        assert_eq!(m.stats().wait().sum(), 600);
        assert_eq!(m.stats().wait().max(), 300);
    }

    #[test]
    fn mutex_uncontended_is_immediate() {
        let sim = Simulation::new();
        let h = sim.handle();
        let m = SimMutex::new(h.clone(), 5u32);
        let v = sim.block_on(async move {
            let g = m.lock().await;
            *g
        });
        assert_eq!(v, 5);
    }

    #[test]
    fn cancelled_lock_does_not_stall_queue() {
        let sim = Simulation::new();
        let h = sim.handle();
        let m = Rc::new(SimMutex::new(h.clone(), ()));
        let m2 = Rc::clone(&m);
        let h2 = h.clone();
        let done = sim.block_on(async move {
            let g = m2.lock().await;
            // Create and drop a pending lock future (ticket 1).
            {
                let fut = m2.lock();
                drop(fut);
            }
            drop(g);
            h2.sleep(1).await;
            // Ticket 2 must still be served.
            let _g = m2.lock().await;
            true
        });
        assert!(done);
    }

    #[test]
    fn semaphore_fifo_grants() {
        let sim = Simulation::new();
        let h = sim.handle();
        let s = Rc::new(Semaphore::new(h.clone(), 2));
        let log = Rc::new(RefCell::new(Vec::new()));
        for id in 0..4u32 {
            let (h, s, log) = (h.clone(), Rc::clone(&s), Rc::clone(&log));
            sim.spawn(async move {
                s.acquire(1).await;
                log.borrow_mut().push(id);
                h.sleep(50).await;
                s.release(1);
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3]);
        assert_eq!(s.available(), 2);
    }

    #[test]
    fn semaphore_large_request_blocks_queue() {
        let sim = Simulation::new();
        let h = sim.handle();
        let s = Rc::new(Semaphore::new(h.clone(), 0));
        let log = Rc::new(RefCell::new(Vec::new()));
        // First waiter needs 2; second needs 1 and must wait behind it.
        for (id, need) in [(0u32, 2u64), (1, 1)] {
            let (s, log) = (Rc::clone(&s), Rc::clone(&log));
            sim.spawn(async move {
                s.acquire(need).await;
                log.borrow_mut().push(id);
            });
        }
        let s2 = Rc::clone(&s);
        let h2 = h.clone();
        let log2 = Rc::clone(&log);
        sim.spawn(async move {
            h2.sleep(10).await;
            // One permit is not enough for the head waiter (needs 2), so
            // the later small waiter must stay blocked behind it (FIFO).
            s2.release(1);
            h2.sleep(10).await;
            assert!(log2.borrow().is_empty());
            // Two more permits: the head (need 2) is served first, then
            // the small waiter takes the remaining permit.
            s2.release(2);
        });
        sim.run();
        assert_eq!(*log.borrow(), vec![0, 1]);
    }

    #[test]
    fn waitqueue_wake_all() {
        let sim = Simulation::new();
        let q = Rc::new(WaitQueue::new());
        let n = Rc::new(Cell::new(0u32));
        for _ in 0..3 {
            let (q, n) = (Rc::clone(&q), Rc::clone(&n));
            sim.spawn(async move {
                q.wait().await;
                n.set(n.get() + 1);
            });
        }
        let q2 = Rc::clone(&q);
        let h = sim.handle();
        sim.spawn(async move {
            h.sleep(5).await;
            q2.wake_all();
        });
        sim.run();
        assert_eq!(n.get(), 3);
    }

    #[test]
    fn queueing_delay_grows_with_contenders() {
        // The core mechanism of the reproduction: total waiting time at a
        // lock with fixed service time grows quadratically with the number
        // of simultaneous contenders.
        fn total_wait(contenders: u32) -> u64 {
            let sim = Simulation::new();
            let h = sim.handle();
            let m = Rc::new(SimMutex::new(h.clone(), ()));
            for _ in 0..contenders {
                let (h, m) = (h.clone(), Rc::clone(&m));
                sim.spawn(async move {
                    let _g = m.lock().await;
                    h.sleep(200).await;
                });
            }
            sim.run();
            m.stats().wait().sum()
        }
        let w8 = total_wait(8);
        let w48 = total_wait(48);
        // sum_{i<n} i*200 = n(n-1)*100: 8 -> 5_600, 48 -> 225_600.
        assert_eq!(w8, 5_600);
        assert_eq!(w48, 225_600);
    }
}
