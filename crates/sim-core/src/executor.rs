//! Deterministic single-threaded async executor over virtual time.
//!
//! Tasks are `!Send` futures polled on the caller's thread. Time advances
//! only when no task is runnable: the executor then jumps the virtual clock
//! to the earliest pending timer. Wakers are `Arc`-based and thread-safe
//! (so the `Waker` contract is honoured even if one escapes), but in
//! practice everything stays on one thread and execution is deterministic:
//! the ready queue is FIFO and timers break ties by registration sequence.
//!
//! Hot-path representation (the slab refactor, DESIGN.md §11): tasks
//! live in a dense slot arena with an intrusive ready list threaded
//! through them (each task carries a per-slot cached waker, so polling
//! allocates nothing), and timers live in a hierarchical timer wheel
//! ([`crate::wheel`]) that batches same-tick wakeups. Both preserve the
//! historical FIFO / `(deadline, seq)` orders bit-for-bit.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
// The Waker contract requires Send + Sync, so the cross-thread wake queue
// must use a host mutex; it is drained only by the single executor thread
// and never blocks on virtual time.
// simlint: allow(std-sync): Waker contract requires a Send+Sync queue
use std::sync::Mutex;
// simlint: allow(std-sync): lock-free fast path of the wake queue above
use std::sync::atomic::{AtomicUsize, Ordering};
use std::task::{Context, Poll, Wake, Waker};

use crate::explore::{ExplorationPolicy, Explorer, RunProgress};
use crate::lockdep::{LockDep, TaskKey, MAIN_TASK};
use crate::race::{CurrentGuard, RaceDetector};
use crate::time::{Nanos, SimTime};
use crate::wheel::TimerWheel;

type TaskId = usize;
type LocalFuture = Pin<Box<dyn Future<Output = ()>>>;

/// Sentinel for "no task" in the intrusive ready list.
const NO_TASK: TaskId = usize::MAX;

/// Thread-safe queue that wakers push task ids into.
///
/// Kept behind a real `Mutex` so that `Waker::wake` is sound even if a
/// waker is (incorrectly but safely) moved to another thread. The
/// executor drains this once per loop iteration, and most iterations
/// find it empty, so an atomic count (updated under the lock) lets the
/// empty case skip the Mutex entirely.
#[derive(Default)]
struct WakeQueue {
    ids: Mutex<Vec<TaskId>>,
    // simlint: allow(std-sync): pairs with the Mutex above (same contract)
    len: AtomicUsize,
}

impl WakeQueue {
    fn push(&self, id: TaskId) {
        let mut q = self.ids.lock().expect("wake queue poisoned");
        q.push(id);
        self.len.store(q.len(), Ordering::Release);
    }

    fn is_empty(&self) -> bool {
        self.len.load(Ordering::Acquire) == 0
    }

    fn drain_into(&self, out: &mut Vec<TaskId>) {
        if self.is_empty() {
            return;
        }
        let mut q = self.ids.lock().expect("wake queue poisoned");
        out.append(&mut q);
        self.len.store(0, Ordering::Release);
    }
}

struct TaskWaker {
    queue: Arc<WakeQueue>,
    id: TaskId,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.queue.push(self.id);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.queue.push(self.id);
    }
}

struct Task {
    future: Option<LocalFuture>,
    /// True while the task id sits in the executor's ready queue, to
    /// de-duplicate redundant wakes.
    enqueued: bool,
    /// Next task in the intrusive ready list ([`NO_TASK`] at the tail,
    /// meaningless while not enqueued).
    next_ready: TaskId,
    /// The slot's cached waker, created once at spawn: polling clones
    /// the `Rc` (a non-atomic refcount bump) instead of allocating a
    /// fresh `Arc` — or touching its atomic refcount — per poll.
    waker: Rc<Waker>,
    /// simsan join-sync id released when the task completes (0 when the
    /// race detector is disabled).
    race_join: u32,
}

/// What a fired timer delivers. `Sleep` resolves to `Task` whenever it
/// is polled with the owning task's own waker (the overwhelmingly common
/// case), letting the executor move the task straight onto the ready
/// list — no `Arc` refcount traffic, no wake-queue Mutex round-trip.
enum TimerTarget {
    /// Enqueue this task directly.
    Task(TaskId),
    /// A foreign waker (combinator-wrapped or out-of-executor poll):
    /// woken the generic way.
    External(Waker),
}

struct ExecCore {
    now: Cell<SimTime>,
    tasks: RefCell<Vec<Option<Task>>>,
    free_ids: RefCell<Vec<TaskId>>,
    /// Intrusive FIFO ready list threaded through `Task::next_ready`.
    ready_head: Cell<TaskId>,
    ready_tail: Cell<TaskId>,
    ready_len: Cell<usize>,
    wake_queue: Arc<WakeQueue>,
    /// Pending timers: hierarchical wheel, fired in `(deadline, seq)`
    /// order with same-tick wakeups batched (see [`crate::wheel`]).
    wheel: RefCell<TimerWheel<TimerTarget>>,
    /// The waker of the task currently being polled (`None` outside
    /// `poll_one`), so `Sleep` can tell "polled with the task's own
    /// waker" from a wrapped one via `will_wake`.
    current_waker: RefCell<Option<Rc<Waker>>>,
    timer_seq: Cell<u64>,
    drain_buf: RefCell<Vec<TaskId>>,
    /// Scratch for timer fire batches.
    fire_buf: RefCell<Vec<TimerTarget>>,
    /// Scratch for non-FIFO exploration picks: the ready list
    /// materialized as a dense slice of slot ids.
    pick_buf: RefCell<Vec<TaskId>>,
    /// Task currently being polled, for lockdep hold tracking.
    current: Cell<Option<TaskId>>,
    lockdep: LockDep,
    /// Ready-queue pick strategy (FIFO unless exploration is requested).
    explorer: Explorer,
    /// Cumulative task polls, for runaway-schedule bounding.
    polls: Cell<u64>,
    /// The simsan race detector, if enabled (see [`crate::race`]).
    race: RefCell<Option<Rc<RaceDetector>>>,
}

impl ExecCore {
    fn new(policy: ExplorationPolicy) -> Rc<Self> {
        Rc::new(ExecCore {
            now: Cell::new(SimTime::ZERO),
            tasks: RefCell::new(Vec::new()),
            free_ids: RefCell::new(Vec::new()),
            ready_head: Cell::new(NO_TASK),
            ready_tail: Cell::new(NO_TASK),
            ready_len: Cell::new(0),
            wake_queue: Arc::new(WakeQueue::default()),
            wheel: RefCell::new(TimerWheel::new()),
            current_waker: RefCell::new(None),
            timer_seq: Cell::new(0),
            drain_buf: RefCell::new(Vec::new()),
            fire_buf: RefCell::new(Vec::new()),
            pick_buf: RefCell::new(Vec::new()),
            current: Cell::new(None),
            lockdep: LockDep::default(),
            explorer: Explorer::new(policy),
            polls: Cell::new(0),
            race: RefCell::new(None),
        })
    }

    /// Appends `id` to the intrusive ready list. The caller must have
    /// checked `enqueued` (the list cannot hold duplicates).
    fn push_ready(&self, tasks: &mut [Option<Task>], id: TaskId) {
        let task = tasks[id].as_mut().expect("enqueued task exists");
        debug_assert!(task.enqueued);
        task.next_ready = NO_TASK;
        let tail = self.ready_tail.get();
        if tail == NO_TASK {
            self.ready_head.set(id);
        } else {
            tasks[tail].as_mut().expect("ready tail exists").next_ready = id;
        }
        self.ready_tail.set(id);
        self.ready_len.set(self.ready_len.get() + 1);
    }

    /// Pops the front of the intrusive ready list.
    fn pop_ready_front(&self, tasks: &mut [Option<Task>]) -> Option<TaskId> {
        let id = self.ready_head.get();
        if id == NO_TASK {
            return None;
        }
        let next = tasks[id].as_ref().expect("ready task exists").next_ready;
        self.ready_head.set(next);
        if next == NO_TASK {
            self.ready_tail.set(NO_TASK);
        }
        self.ready_len.set(self.ready_len.get() - 1);
        Some(id)
    }

    /// Removes and returns the next task id to poll, as chosen by the
    /// exploration policy. The FIFO case pops the list head directly —
    /// no materialization, no RNG — preserving the historical schedule
    /// bit-for-bit. Exploration policies see the ready list as a dense
    /// slice of stable slot ids.
    fn pick_ready(&self) -> Option<TaskId> {
        let mut tasks = self.tasks.borrow_mut();
        if self.explorer.is_fifo() {
            return self.pop_ready_front(&mut tasks);
        }
        if self.ready_len.get() == 0 {
            return None;
        }
        let mut buf = self.pick_buf.borrow_mut();
        buf.clear();
        let mut id = self.ready_head.get();
        while id != NO_TASK {
            buf.push(id);
            id = tasks[id].as_ref().expect("ready task exists").next_ready;
        }
        let idx = self.explorer.pick(&buf);
        let chosen = buf[idx];
        // Unlink `chosen`; its predecessor is the materialized slice's
        // previous element.
        let next = tasks[chosen].as_ref().expect("chosen task exists").next_ready;
        if idx == 0 {
            self.ready_head.set(next);
        } else {
            let prev = buf[idx - 1];
            tasks[prev].as_mut().expect("predecessor exists").next_ready = next;
        }
        if next == NO_TASK {
            self.ready_tail.set(if idx == 0 { NO_TASK } else { buf[idx - 1] });
        }
        self.ready_len.set(self.ready_len.get() - 1);
        Some(chosen)
    }

    /// Spawns a task; returns its (recycled) slot id and the simsan
    /// join-sync id (0 when the detector is disabled).
    fn spawn(self: &Rc<Self>, future: LocalFuture) -> (TaskId, u32) {
        // Fork edge: the spawner's clock happens-before everything the
        // child does. Recorded before the slot id is even assigned, in
        // the spawner's context.
        let race = self.race.borrow().clone();
        let (fork_sync, join_sync) = match &race {
            Some(det) => det.fork(),
            None => (0, 0),
        };
        let id = match self.free_ids.borrow_mut().pop() {
            Some(id) => id,
            None => {
                let mut tasks = self.tasks.borrow_mut();
                tasks.push(None);
                tasks.len() - 1
            }
        };
        self.tasks.borrow_mut()[id] = Some(Task {
            future: Some(future),
            enqueued: true,
            next_ready: NO_TASK,
            waker: Rc::new(Waker::from(Arc::new(TaskWaker {
                queue: Arc::clone(&self.wake_queue),
                id,
            }))),
            race_join: join_sync,
        });
        if let Some(det) = &race {
            det.task_begin(id as u64, fork_sync);
        }
        self.push_ready(&mut self.tasks.borrow_mut(), id);
        (id, join_sync)
    }

    fn register_timer(&self, deadline: SimTime, target: TimerTarget) -> u64 {
        let seq = self.timer_seq.get();
        self.timer_seq.set(seq + 1);
        self.wheel.borrow_mut().insert(deadline.as_nanos(), seq, target);
        seq
    }

    /// Resolves the [`TimerTarget`] for a timer registered from the poll
    /// context `cx`: the current task's id when `cx` carries that task's
    /// own waker, otherwise the waker itself.
    fn timer_target(&self, cx: &Context<'_>) -> TimerTarget {
        if let Some(id) = self.current.get() {
            if let Some(w) = self.current_waker.borrow().as_deref() {
                if cx.waker().will_wake(w) {
                    return TimerTarget::Task(id);
                }
            }
        }
        TimerTarget::External(cx.waker().clone())
    }

    /// Puts `id` straight onto the ready list (a fired timer's direct
    /// wake) — the same transition `absorb_wakes` performs, minus the
    /// queue round-trip.
    fn wake_task_direct(&self, id: TaskId) {
        let mut tasks = self.tasks.borrow_mut();
        if let Some(Some(task)) = tasks.get_mut(id) {
            if !task.enqueued {
                task.enqueued = true;
                self.push_ready(&mut tasks, id);
            }
        }
    }

    /// Moves externally-woken tasks into the FIFO ready queue.
    fn absorb_wakes(&self) {
        if self.wake_queue.is_empty() {
            return;
        }
        let mut buf = self.drain_buf.borrow_mut();
        buf.clear();
        self.wake_queue.drain_into(&mut buf);
        if buf.is_empty() {
            return;
        }
        let mut tasks = self.tasks.borrow_mut();
        for &id in buf.iter() {
            if let Some(Some(task)) = tasks.get_mut(id) {
                if !task.enqueued {
                    task.enqueued = true;
                    self.push_ready(&mut tasks, id);
                }
            }
        }
    }

    /// Advances the clock to the earliest pending timer and fires every
    /// timer whose deadline has been reached, one same-deadline batch at
    /// a time in `(deadline, seq)` order. Returns false if no timer was
    /// pending.
    fn advance_to_next_timer(&self) -> bool {
        let next = match self.wheel.borrow().peek() {
            Some(d) => SimTime::from_nanos(d),
            None => return false,
        };
        debug_assert!(next >= self.now.get(), "timer in the past");
        if next > self.now.get() {
            self.lockdep.check_time_advance(self.now.get(), next);
        }
        self.now.set(self.now.get().max(next));
        let now = self.now.get().as_nanos();
        let mut fired = self.fire_buf.borrow_mut();
        loop {
            fired.clear();
            if !self.wheel.borrow_mut().fire_next(now, &mut fired) {
                break;
            }
            for target in fired.drain(..) {
                match target {
                    TimerTarget::Task(id) => self.wake_task_direct(id),
                    TimerTarget::External(w) => w.wake(),
                }
            }
        }
        true
    }

    fn poll_one(self: &Rc<Self>, id: TaskId, race: Option<&Rc<RaceDetector>>) {
        let (mut future, waker, race_join) = {
            let mut tasks = self.tasks.borrow_mut();
            let Some(Some(task)) = tasks.get_mut(id) else {
                return;
            };
            task.enqueued = false;
            match task.future.take() {
                Some(f) => (f, Rc::clone(&task.waker), task.race_join),
                None => return,
            }
        };
        let mut cx = Context::from_waker(&waker);
        *self.current_waker.borrow_mut() = Some(Rc::clone(&waker));
        self.current.set(Some(id));
        if let Some(det) = race {
            det.set_now(self.now.get().as_nanos());
            det.enter(id as u64);
        }
        let polled = future.as_mut().poll(&mut cx);
        if let Some(det) = race {
            det.exit();
        }
        self.current.set(None);
        *self.current_waker.borrow_mut() = None;
        match polled {
            Poll::Ready(()) => {
                if let Some(det) = race {
                    det.task_end(id as u64, race_join);
                }
                self.tasks.borrow_mut()[id] = None;
                self.free_ids.borrow_mut().push(id);
            }
            Poll::Pending => {
                // The task may have been re-woken while it was being
                // polled; the id would already be in the wake queue, so we
                // just return the future to its slot.
                if let Some(Some(task)) = self.tasks.borrow_mut().get_mut(id) {
                    task.future = Some(future);
                }
            }
        }
    }

    /// Runs until no task is runnable and no timer is pending, or the
    /// optional deadline is reached, or `max_polls` task polls have been
    /// performed. Returns true unless the poll budget stopped the run
    /// first (the runaway case).
    fn run(
        self: &Rc<Self>,
        deadline: Option<SimTime>,
        stop: &dyn Fn() -> bool,
        max_polls: Option<u64>,
    ) -> bool {
        // simsan world edges: everything main did before this run
        // happens-before every task step inside it, and every task step
        // inside it happens-before whatever main does after it returns.
        // The guard publishes the detector to handle-less primitives
        // (WaitQueue/Event) for the duration of the loop.
        let race = self.race.borrow().clone();
        let _guard = CurrentGuard::install(race.clone());
        if let Some(det) = &race {
            det.set_now(self.now.get().as_nanos());
            det.world_publish();
        }
        let out = self.run_inner(deadline, stop, max_polls, race.as_ref());
        if let Some(det) = &race {
            det.set_now(self.now.get().as_nanos());
            det.world_join();
        }
        out
    }

    fn run_inner(
        self: &Rc<Self>,
        deadline: Option<SimTime>,
        stop: &dyn Fn() -> bool,
        max_polls: Option<u64>,
        race: Option<&Rc<RaceDetector>>,
    ) -> bool {
        let start_polls = self.polls.get();
        loop {
            if stop() {
                return true;
            }
            self.absorb_wakes();
            let runnable = self.ready_len.get() != 0;
            if runnable && max_polls.is_some_and(|b| self.polls.get() - start_polls >= b) {
                return false;
            }
            let next = self.pick_ready();
            match next {
                Some(id) => {
                    self.polls.set(self.polls.get() + 1);
                    self.poll_one(id, race);
                }
                None => {
                    if let Some(d) = deadline {
                        let next_timer = self.wheel.borrow().peek().map(SimTime::from_nanos);
                        match next_timer {
                            Some(t) if t <= d => {
                                self.advance_to_next_timer();
                            }
                            _ => {
                                self.now.set(self.now.get().max(d));
                                return true;
                            }
                        }
                    } else if !self.advance_to_next_timer() {
                        return true;
                    }
                }
            }
        }
    }
}

/// A cloneable handle to the simulation, usable from inside tasks.
///
/// The handle provides the virtual clock, sleeping, and task spawning. It
/// is the ambient "world" object passed to every simulated component.
#[derive(Clone)]
pub struct SimHandle {
    core: Rc<ExecCore>,
}

impl SimHandle {
    /// Returns the current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now.get()
    }

    /// Returns a future that completes `duration` nanoseconds of virtual
    /// time from now. A zero-duration sleep completes without yielding.
    pub fn sleep(&self, duration: Nanos) -> Sleep {
        Sleep {
            core: Rc::clone(&self.core),
            deadline: self.core.now.get() + duration,
            registered: false,
        }
    }

    /// Returns a future that completes at the absolute instant `deadline`
    /// (immediately if `deadline` has already passed).
    pub fn sleep_until(&self, deadline: SimTime) -> Sleep {
        Sleep {
            core: Rc::clone(&self.core),
            deadline,
            registered: false,
        }
    }

    /// Yields to other runnable tasks once, without advancing time.
    pub fn yield_now(&self) -> YieldNow {
        YieldNow { yielded: false }
    }

    /// Spawns a task, returning a handle that can await its result.
    pub fn spawn<T: 'static>(&self, future: impl Future<Output = T> + 'static) -> JoinHandle<T> {
        let state = Rc::new(RefCell::new(JoinState {
            result: None,
            waker: None,
        }));
        let state2 = Rc::clone(&state);
        let (_id, race_join) = self.core.spawn(Box::pin(async move {
            let value = future.await;
            let mut s = state2.borrow_mut();
            s.result = Some(value);
            if let Some(w) = s.waker.take() {
                w.wake();
            }
        }));
        JoinHandle {
            state,
            race: self.core.race.borrow().clone(),
            race_join,
        }
    }

    /// The simulation's lock-order registry (see [`crate::lockdep`]).
    pub fn lockdep(&self) -> &LockDep {
        &self.core.lockdep
    }

    /// The simsan race detector, if enabled on this simulation (see
    /// [`crate::race`] and [`Simulation::enable_race_detection`]).
    pub fn race_detector(&self) -> Option<Rc<RaceDetector>> {
        self.core.race.borrow().clone()
    }

    /// Key identifying the task currently being polled, for lockdep.
    pub(crate) fn current_task_key(&self) -> TaskKey {
        match self.core.current.get() {
            Some(id) => id as TaskKey,
            None => MAIN_TASK,
        }
    }
}

/// Future returned by [`SimHandle::sleep`].
pub struct Sleep {
    core: Rc<ExecCore>,
    deadline: SimTime,
    registered: bool,
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.core.now.get() >= self.deadline {
            return Poll::Ready(());
        }
        if !self.registered {
            self.registered = true;
            let deadline = self.deadline;
            let target = self.core.timer_target(cx);
            self.core.register_timer(deadline, target);
        }
        Poll::Pending
    }
}

/// Future returned by [`SimHandle::yield_now`].
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

struct JoinState<T> {
    result: Option<T>,
    waker: Option<Waker>,
}

/// Handle to a spawned task; awaiting it yields the task's result.
pub struct JoinHandle<T> {
    state: Rc<RefCell<JoinState<T>>>,
    /// simsan join edge: acquired when the join observes completion.
    race: Option<Rc<RaceDetector>>,
    race_join: u32,
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut s = self.state.borrow_mut();
        match s.result.take() {
            Some(v) => {
                // Join edge: everything the finished task did
                // happens-before the joiner's continuation.
                if let Some(det) = &self.race {
                    det.acquire(self.race_join);
                }
                Poll::Ready(v)
            }
            None => {
                s.waker = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }
}

/// A deterministic discrete-event simulation.
///
/// Owns the executor; see the crate docs for an example.
pub struct Simulation {
    handle: SimHandle,
}

impl Simulation {
    /// Creates an empty simulation at virtual time zero, with the
    /// default FIFO schedule.
    pub fn new() -> Self {
        Simulation::with_policy(ExplorationPolicy::Fifo)
    }

    /// Creates an empty simulation whose ready-queue picks follow
    /// `policy` (see [`ExplorationPolicy`]). `Fifo` is bit-for-bit
    /// identical to [`Simulation::new`].
    pub fn with_policy(policy: ExplorationPolicy) -> Self {
        let sim = Simulation {
            handle: SimHandle {
                core: ExecCore::new(policy),
            },
        };
        // Opt-in for whole suites without touching the tests: running
        // with MAGE_SIMSAN set enables the race detector on every
        // simulation (ci.sh's simsan stage).
        if std::env::var_os("MAGE_SIMSAN").is_some() {
            sim.enable_race_detection();
        }
        sim
    }

    /// Enables the simsan happens-before race detector on this
    /// simulation and returns it. Must be called before components that
    /// want shadow checking create their [`crate::race::ShadowRegion`]s
    /// (regions bind to the detector at construction). Idempotent.
    ///
    /// The detector observes without perturbing: it never awaits, never
    /// advances virtual time and never draws randomness, so an enabled
    /// run executes the exact same schedule as a disabled one.
    pub fn enable_race_detection(&self) -> Rc<RaceDetector> {
        let mut slot = self.handle.core.race.borrow_mut();
        match &*slot {
            Some(det) => Rc::clone(det),
            None => {
                let det = RaceDetector::new();
                *slot = Some(Rc::clone(&det));
                det
            }
        }
    }

    /// The exploration policy this simulation schedules with.
    pub fn policy(&self) -> ExplorationPolicy {
        self.handle.core.explorer.policy()
    }

    /// Total task polls performed so far, a monotone progress measure
    /// independent of virtual time.
    pub fn polls(&self) -> u64 {
        self.handle.core.polls.get()
    }

    /// Returns a handle usable inside tasks.
    pub fn handle(&self) -> SimHandle {
        self.handle.clone()
    }

    /// Spawns a task onto the simulation.
    pub fn spawn<T: 'static>(&self, future: impl Future<Output = T> + 'static) -> JoinHandle<T> {
        self.handle.spawn(future)
    }

    /// Runs until no work remains; returns the final virtual time.
    pub fn run(&self) -> SimTime {
        self.handle.core.run(None, &|| false, None);
        self.handle.core.now.get()
    }

    /// Like [`Simulation::run`], but stops at `deadline` (if any) and
    /// performs at most `max_polls` task polls, so a runaway schedule (livelock,
    /// starvation loop) cannot hang the caller. The returned
    /// [`RunProgress`] says how far the run got and whether it drained
    /// (`completed`) or hit the budget.
    pub fn run_bounded(&self, deadline: Option<SimTime>, max_polls: u64) -> RunProgress {
        let start = self.handle.core.polls.get();
        let completed = self.handle.core.run(deadline, &|| false, Some(max_polls));
        RunProgress {
            now: self.handle.core.now.get(),
            polls: self.handle.core.polls.get() - start,
            completed,
        }
    }

    /// Spawns `future` and runs the simulation until it completes.
    ///
    /// # Panics
    ///
    /// Panics if the simulation runs dry (deadlocks) before the future
    /// finishes.
    pub fn block_on<T: 'static>(&self, future: impl Future<Output = T> + 'static) -> T {
        match self.block_on_inner(future, None) {
            Ok(v) => v,
            Err(_) => unreachable!("unbounded block_on cannot exhaust a poll budget"),
        }
    }

    /// Like [`Simulation::block_on`], but gives up after `max_polls`
    /// task polls. Returns `Err` with the progress made if the budget
    /// ran out before the future completed (the runaway case).
    ///
    /// # Panics
    ///
    /// Panics if the simulation runs dry (deadlocks) before the future
    /// finishes and before the budget is exhausted.
    pub fn block_on_bounded<T: 'static>(
        &self,
        future: impl Future<Output = T> + 'static,
        max_polls: u64,
    ) -> Result<T, RunProgress> {
        self.block_on_inner(future, Some(max_polls))
    }

    fn block_on_inner<T: 'static>(
        &self,
        future: impl Future<Output = T> + 'static,
        max_polls: Option<u64>,
    ) -> Result<T, RunProgress> {
        let out: Rc<RefCell<Option<T>>> = Rc::new(RefCell::new(None));
        let out2 = Rc::clone(&out);
        let (_id, _join) = self.handle.core.spawn(Box::pin(async move {
            *out2.borrow_mut() = Some(future.await);
        }));
        let done = {
            let out = Rc::clone(&out);
            move || out.borrow().is_some()
        };
        let start = self.handle.core.polls.get();
        let completed = self.handle.core.run(None, &done, max_polls);
        let result = out.borrow_mut().take();
        match result {
            Some(v) => Ok(v),
            None if !completed => Err(RunProgress {
                now: self.handle.core.now.get(),
                polls: self.handle.core.polls.get() - start,
                completed: false,
            }),
            None => panic!("simulation deadlocked: block_on future never completed"),
        }
    }
}

impl Default for Simulation {
    fn default() -> Self {
        Simulation::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sleep_advances_virtual_time() {
        let sim = Simulation::new();
        let h = sim.handle();
        let t = sim.block_on(async move {
            h.sleep(42).await;
            h.sleep(8).await;
            h.now().as_nanos()
        });
        assert_eq!(t, 50);
    }

    #[test]
    fn zero_sleep_completes_immediately() {
        let sim = Simulation::new();
        let h = sim.handle();
        sim.block_on(async move {
            h.sleep(0).await;
        });
    }

    #[test]
    fn concurrent_sleeps_interleave_deterministically() {
        let sim = Simulation::new();
        let h = sim.handle();
        let log = Rc::new(RefCell::new(Vec::new()));
        for (name, delay) in [("a", 30u64), ("b", 10), ("c", 20)] {
            let h2 = h.clone();
            let log2 = Rc::clone(&log);
            sim.spawn(async move {
                h2.sleep(delay).await;
                log2.borrow_mut().push(name);
            });
        }
        sim.run();
        assert_eq!(&*log.borrow(), &["b", "c", "a"]);
    }

    #[test]
    fn two_sleepers_at_one_instant_both_wake() {
        // Regression guard for the timer-wheel slot lists: two timers
        // registered for the same deadline tick must both keep their
        // wakers (a tick-keyed `BTreeMap<tick, Waker>` would silently
        // drop the second registration) and fire as one batch.
        let sim = Simulation::new();
        let h = sim.handle();
        let woken = Rc::new(Cell::new(0u32));
        for _ in 0..2 {
            let h2 = h.clone();
            let woken2 = Rc::clone(&woken);
            sim.spawn(async move {
                h2.sleep(1_000).await;
                woken2.set(woken2.get() + 1);
                assert_eq!(h2.now().as_nanos(), 1_000);
            });
        }
        sim.run();
        assert_eq!(woken.get(), 2, "both same-instant sleepers must wake");
    }

    #[test]
    fn same_deadline_fires_in_registration_order() {
        let sim = Simulation::new();
        let h = sim.handle();
        let log = Rc::new(RefCell::new(Vec::new()));
        for name in 0..5 {
            let h2 = h.clone();
            let log2 = Rc::clone(&log);
            sim.spawn(async move {
                h2.sleep(100).await;
                log2.borrow_mut().push(name);
            });
        }
        sim.run();
        assert_eq!(&*log.borrow(), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn join_handle_returns_value() {
        let sim = Simulation::new();
        let h = sim.handle();
        let result = sim.block_on(async move {
            let jh = h.spawn(async { 7 });
            jh.await * 6
        });
        assert_eq!(result, 42);
    }

    #[test]
    fn join_waits_for_sleeping_task() {
        let sim = Simulation::new();
        let h = sim.handle();
        let h2 = h.clone();
        let t = sim.block_on(async move {
            let jh = h2.spawn({
                let h3 = h2.clone();
                async move {
                    h3.sleep(500).await;
                    "done"
                }
            });
            assert_eq!(jh.await, "done");
            h2.now().as_nanos()
        });
        assert_eq!(t, 500);
    }

    #[test]
    fn run_bounded_stops_at_deadline() {
        let sim = Simulation::new();
        let h = sim.handle();
        let flag = Rc::new(Cell::new(false));
        let flag2 = Rc::clone(&flag);
        sim.spawn(async move {
            h.sleep(1_000_000).await;
            flag2.set(true);
        });
        let p = sim.run_bounded(Some(SimTime::from_nanos(500)), u64::MAX);
        assert_eq!(p.now.as_nanos(), 500);
        assert!(!flag.get());
        sim.run();
        assert!(flag.get());
    }

    #[test]
    fn yield_now_round_robins() {
        let sim = Simulation::new();
        let h = sim.handle();
        let log = Rc::new(RefCell::new(Vec::new()));
        for name in 0..2 {
            let h2 = h.clone();
            let log2 = Rc::clone(&log);
            sim.spawn(async move {
                for round in 0..2 {
                    log2.borrow_mut().push((name, round));
                    h2.yield_now().await;
                }
            });
        }
        sim.run();
        assert_eq!(&*log.borrow(), &[(0, 0), (1, 0), (0, 1), (1, 1)]);
    }

    #[test]
    #[should_panic(expected = "deadlocked")]
    fn block_on_detects_deadlock() {
        let sim = Simulation::new();
        sim.block_on(std::future::pending::<()>());
    }

    /// Runs a contended interleaving workload and returns the order in
    /// which tasks logged, as a schedule fingerprint.
    fn schedule_fingerprint(sim: &Simulation) -> Vec<(usize, usize)> {
        let h = sim.handle();
        let log = Rc::new(RefCell::new(Vec::new()));
        for name in 0..4usize {
            let h2 = h.clone();
            let log2 = Rc::clone(&log);
            sim.spawn(async move {
                for round in 0..4usize {
                    log2.borrow_mut().push((name, round));
                    h2.yield_now().await;
                    h2.sleep((round as u64 % 3) * 10).await;
                }
            });
        }
        sim.run();
        let out = log.borrow().clone();
        out
    }

    #[test]
    fn fifo_policy_matches_default_schedule() {
        let a = schedule_fingerprint(&Simulation::new());
        let b = schedule_fingerprint(&Simulation::with_policy(ExplorationPolicy::Fifo));
        assert_eq!(a, b, "Fifo must reproduce the default schedule exactly");
    }

    #[test]
    fn exploration_policies_perturb_and_reproduce_schedules() {
        let seeded = |seed| {
            schedule_fingerprint(&Simulation::with_policy(ExplorationPolicy::SeededRandom {
                seed,
            }))
        };
        assert_eq!(seeded(5), seeded(5), "same seed, same schedule");
        let fifo = schedule_fingerprint(&Simulation::new());
        let mut diverged = false;
        for seed in 0..8 {
            if seeded(seed) != fifo {
                diverged = true;
                break;
            }
        }
        assert!(diverged, "random exploration never left the FIFO schedule");
        let fuzz = |seed| {
            schedule_fingerprint(&Simulation::with_policy(ExplorationPolicy::PriorityFuzz {
                seed,
            }))
        };
        assert_eq!(fuzz(5), fuzz(5), "priority fuzz is reproducible too");
    }

    #[test]
    fn policies_only_reorder_never_drop_work() {
        // Every policy must run every task to completion: same multiset
        // of log entries, whatever the order.
        let mut sorted_fifo = schedule_fingerprint(&Simulation::new());
        sorted_fifo.sort_unstable();
        for policy in [
            ExplorationPolicy::SeededRandom { seed: 3 },
            ExplorationPolicy::PriorityFuzz { seed: 3 },
        ] {
            let mut got = schedule_fingerprint(&Simulation::with_policy(policy));
            got.sort_unstable();
            assert_eq!(got, sorted_fifo, "{} lost or duplicated work", policy.name());
        }
    }

    #[test]
    fn run_bounded_stops_runaway_schedules() {
        let sim = Simulation::new();
        let h = sim.handle();
        sim.spawn(async move {
            loop {
                h.yield_now().await;
            }
        });
        let p = sim.run_bounded(None, 1_000);
        assert!(!p.completed, "an infinite yield loop must hit the budget");
        assert_eq!(p.polls, 1_000);
        assert_eq!(sim.polls(), 1_000);
        // A later bounded run resumes where the first stopped.
        let p2 = sim.run_bounded(None, 500);
        assert!(!p2.completed);
        assert_eq!(p2.polls, 500);
        assert_eq!(sim.polls(), 1_500);
    }

    #[test]
    fn run_bounded_reports_completion_when_draining() {
        let sim = Simulation::new();
        let h = sim.handle();
        sim.spawn(async move {
            h.sleep(100).await;
        });
        let p = sim.run_bounded(None, 1_000_000);
        assert!(p.completed, "a finite schedule must drain within budget");
        assert_eq!(p.now.as_nanos(), 100);
        assert!(p.polls > 0);
    }

    #[test]
    fn block_on_bounded_returns_progress_on_budget_exhaustion() {
        let sim = Simulation::new();
        let h = sim.handle();
        let err = sim
            .block_on_bounded(
                async move {
                    loop {
                        h.yield_now().await;
                    }
                },
                200,
            )
            .expect_err("an infinite loop must exhaust the budget");
        assert!(!err.completed);
        assert_eq!(err.polls, 200);

        let sim2 = Simulation::new();
        let h2 = sim2.handle();
        let v = sim2
            .block_on_bounded(
                async move {
                    h2.sleep(7).await;
                    41 + 1
                },
                1_000_000,
            )
            .expect("a finite future completes within budget");
        assert_eq!(v, 42);
    }

    #[test]
    fn many_tasks_scale() {
        let sim = Simulation::new();
        let h = sim.handle();
        let counter = Rc::new(Cell::new(0u64));
        for i in 0..10_000 {
            let h2 = h.clone();
            let c = Rc::clone(&counter);
            sim.spawn(async move {
                h2.sleep(i % 97).await;
                c.set(c.get() + 1);
            });
        }
        sim.run();
        assert_eq!(counter.get(), 10_000);
    }
}
