//! Deterministic lock-order validation (lockdep) for the simulator.
//!
//! Real far-memory kernels deadlock through lock-ordering inversions
//! (fault path vs. eviction path vs. allocator); a simulator of them can
//! too, and an async deadlock just looks like a mysteriously idle run.
//! This module validates lock ordering *as the simulation executes*,
//! exactly like Linux's lockdep: every [`crate::sync::SimMutex`] belongs
//! to a **lock class** (named at construction, or defaulted from the
//! protected type), and every acquisition while other locks are held
//! records a directed edge
//! `held-class → acquired-class` in an acquisition graph. The first
//! acquisition that would close a cycle panics with both acquisition
//! chains — the one being attempted and the one that established the
//! opposite order — including the `file:line` of every `lock()` call
//! involved.
//!
//! Because the executor is deterministic, an inversion is not a flaky
//! once-in-a-thousand-runs hang: the same seed produces the same panic
//! with the same chains, every run.
//!
//! Two deliberate design points:
//!
//! - **Same-class nesting is allowed.** Holding two locks of one class
//!   (e.g. two VMA shard locks) is a legitimate ordered-acquisition
//!   pattern here, and flagging it would reject the sharded-lock models.
//! - **Holding a guard across a virtual-time advance is opt-in checked.**
//!   The simulator *intentionally* holds guards across `sleep()` to model
//!   critical-section service time, so this cannot be an unconditional
//!   rule. Classes that must never be held across an await that advances
//!   the clock (e.g. locks guarding host-side scratch state) opt in via
//!   [`crate::sync::SimMutex::forbid_hold_across_sleep`]; the check fires
//!   when the executor is about to advance the clock while such a guard
//!   is held.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::panic::Location;

use crate::time::SimTime;

/// Task key used in lockdep bookkeeping: the executor's task id, or
/// [`MAIN_TASK`] for guards acquired outside any task.
pub type TaskKey = u64;

/// Sentinel for acquisitions outside any executor task.
pub const MAIN_TASK: TaskKey = u64::MAX;

/// One held (or being-acquired) lock: its class and the `lock()` site.
#[derive(Clone, Copy)]
struct Held {
    class: u32,
    site: &'static Location<'static>,
}

/// Snapshot of the acquisition that first created a graph edge.
#[derive(Clone)]
struct EdgeOrigin {
    task: TaskKey,
    /// The stack of locks held at that moment (the edge source is one of
    /// these), then the acquisition itself.
    stack: Vec<Held>,
    acquired: Held,
}

#[derive(Default)]
struct Inner {
    /// Class id → name.
    names: Vec<String>,
    /// Class id → "must not be held across a virtual-time advance".
    no_hold_across_sleep: Vec<bool>,
    /// True once any class opted into `forbid_hold_across_sleep`; lets
    /// [`LockDep::check_time_advance`] (called on every clock advance)
    /// return without scanning anything in the common case.
    any_forbidden: bool,
    /// Name → class id (classes are deduplicated by name).
    by_name: BTreeMap<String, u32>,
    /// Acquisition graph, indexed by from-class: `edges[from]` maps
    /// to-class → first origin. Grown alongside `names` in
    /// `register_class`. The inner map stays ordered so `find_path`
    /// visits neighbours in deterministic class-id order.
    edges: Vec<BTreeMap<u32, EdgeOrigin>>,
    /// Per-task stacks of currently held locks, indexed by
    /// [`task_slot`]. Task ids are dense executor indices, so a Vec
    /// beats the ordered map this used to be: `acquired`/`release` run
    /// once per lock cycle on the engine's hot paths. Empty stacks stay
    /// in place rather than being evicted.
    held: Vec<Vec<Held>>,
    /// Total held guards across all tasks (sum of `held[*].len()`).
    held_total: usize,
}

/// Dense index for a task's `held` stack: tasks are numbered from 0 by
/// the executor, and [`MAIN_TASK`] (`u64::MAX`) wraps to slot 0.
fn task_slot(task: TaskKey) -> usize {
    task.wrapping_add(1) as usize
}

impl Inner {
    /// Depth-first search for a path `from → … → to` in the acquisition
    /// graph. Deterministic: neighbours are visited in class-id order.
    fn find_path(&self, from: u32, to: u32) -> Option<Vec<(u32, u32)>> {
        let mut stack = vec![(from, Vec::new())];
        let mut visited = vec![false; self.names.len()];
        while let Some((node, path)) = stack.pop() {
            if node == to {
                return Some(path);
            }
            if std::mem::replace(&mut visited[node as usize], true) {
                continue;
            }
            // Reverse so the smallest class id is explored first
            // (stack pops last-pushed).
            for (&next, _) in self.edges[node as usize].iter().rev() {
                let mut p = path.clone();
                p.push((node, next));
                stack.push((next, p));
            }
        }
        None
    }

    fn describe_held(&self, h: &Held) -> String {
        format!("{} (locked at {})", self.names[h.class as usize], h.site)
    }

    fn describe_origin(&self, o: &EdgeOrigin) -> String {
        let mut s = format!("task {} held [", task_name(o.task));
        for (i, h) in o.stack.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&self.describe_held(h));
        }
        s.push_str("] and acquired ");
        s.push_str(&self.describe_held(&o.acquired));
        s
    }
}

fn task_name(task: TaskKey) -> String {
    if task == MAIN_TASK {
        "<main>".to_string()
    } else {
        task.to_string()
    }
}

/// The lock-order registry. One per [`crate::Simulation`], owned by the
/// executor core; locks reach it through their `SimHandle`.
#[derive(Default)]
pub struct LockDep {
    inner: RefCell<Inner>,
}

impl LockDep {
    /// Registers (or looks up) the lock class called `name`.
    pub(crate) fn register_class(&self, name: &str) -> u32 {
        let mut inner = self.inner.borrow_mut();
        if let Some(&id) = inner.by_name.get(name) {
            return id;
        }
        let id = inner.names.len() as u32;
        inner.names.push(name.to_string());
        inner.no_hold_across_sleep.push(false);
        inner.edges.push(BTreeMap::new());
        inner.by_name.insert(name.to_string(), id);
        id
    }

    /// Marks `class` as forbidden to hold across a virtual-time advance.
    pub(crate) fn forbid_hold_across_sleep(&self, class: u32) {
        let mut inner = self.inner.borrow_mut();
        inner.no_hold_across_sleep[class as usize] = true;
        inner.any_forbidden = true;
    }

    /// Validates an acquisition *attempt* of `class` by `task` at
    /// `site`, recording `held → class` edges. Called before the task
    /// blocks (like Linux's `lock_acquire`), so an inversion is reported
    /// even on the very execution where it deadlocks.
    ///
    /// # Panics
    ///
    /// Panics with both acquisition chains if a new `held → class` edge
    /// closes a cycle in the acquisition graph.
    pub(crate) fn check_acquire(&self, task: TaskKey, class: u32, site: &'static Location<'static>) {
        let mut inner = self.inner.borrow_mut();
        // Take the stack out instead of cloning it: the outermost lock of
        // an uncontended cycle goes through here with nothing held, and
        // even nested acquisitions only clone when a *new* edge needs an
        // origin snapshot. The stack goes back before returning (the
        // panic arms abandon it — lockdep state is moot mid-panic).
        let slot = task_slot(task);
        let stack = match inner.held.get_mut(slot) {
            Some(s) if !s.is_empty() => std::mem::take(s),
            _ => return,
        };
        let acquired = Held { class, site };
        for h in &stack {
            // Same-class nesting (shard arrays, ordered same-type locks)
            // is an accepted pattern; see the module docs.
            if h.class == class {
                continue;
            }
            if inner.edges[h.class as usize].contains_key(&class) {
                continue;
            }
            // New edge h.class → class: adding it creates a cycle iff the
            // graph already has a path class → … → h.class.
            if let Some(path) = inner.find_path(class, h.class) {
                // One-line class-name cycle (A -> B -> C -> A) so the shape
                // is readable before the per-edge chains below.
                let mut cycle = vec![inner.names[class as usize].as_str()];
                for (_, b) in &path {
                    cycle.push(inner.names[*b as usize].as_str());
                }
                cycle.push(inner.names[class as usize].as_str());
                let mut msg = format!(
                    "lockdep: lock ordering cycle\n  cycle: {}\n  task {} attempting to acquire {} while holding {}\n  but the opposite order {} -> … -> {} is already established:\n",
                    cycle.join(" -> "),
                    task_name(task),
                    inner.describe_held(&acquired),
                    inner.describe_held(h),
                    inner.names[class as usize],
                    inner.names[h.class as usize],
                );
                for (a, b) in &path {
                    let origin = &inner.edges[*a as usize][b];
                    msg.push_str(&format!(
                        "    {} -> {}: {}\n",
                        inner.names[*a as usize],
                        inner.names[*b as usize],
                        inner.describe_origin(origin),
                    ));
                }
                msg.push_str(&format!(
                    "  current chain: {}",
                    inner.describe_origin(&EdgeOrigin {
                        task,
                        stack: stack.clone(),
                        acquired,
                    })
                ));
                drop(inner);
                panic!("{msg}");
            }
            let origin = EdgeOrigin {
                task,
                stack: stack.clone(),
                acquired,
            };
            inner.edges[h.class as usize].insert(class, origin);
        }
        inner.held[slot] = stack;
    }

    /// Records that `task` now holds `class` (acquisition succeeded).
    pub(crate) fn acquired(&self, task: TaskKey, class: u32, site: &'static Location<'static>) {
        let mut inner = self.inner.borrow_mut();
        let slot = task_slot(task);
        if slot >= inner.held.len() {
            inner.held.resize_with(slot + 1, Vec::new);
        }
        inner.held[slot].push(Held { class, site });
        inner.held_total += 1;
    }

    /// Records the release of `class` by `task` (innermost matching hold).
    pub(crate) fn release(&self, task: TaskKey, class: u32) {
        let mut inner = self.inner.borrow_mut();
        if let Some(stack) = inner.held.get_mut(task_slot(task)) {
            if let Some(pos) = stack.iter().rposition(|h| h.class == class) {
                stack.remove(pos);
                inner.held_total -= 1;
            }
        }
    }

    /// Called by the executor just before the virtual clock advances from
    /// `now` to `next`.
    ///
    /// # Panics
    ///
    /// Panics if any task holds a guard of a class registered with
    /// [`forbid_hold_across_sleep`](Self::forbid_hold_across_sleep): the
    /// clock advancing means that task is suspended in an await with the
    /// guard still live.
    pub(crate) fn check_time_advance(&self, now: SimTime, next: SimTime) {
        let inner = self.inner.borrow();
        // Fast path: the executor calls this on every clock advance, and
        // almost no run registers a forbidden class or is even holding a
        // guard at advance time.
        if !inner.any_forbidden || inner.held_total == 0 {
            return;
        }
        // Slot 0 is MAIN_TASK (u64::MAX), which the ordered map this
        // replaced reported *last*; keep that report order.
        for slot in (1..inner.held.len()).chain(std::iter::once(0)) {
            let stack = &inner.held[slot];
            let task = if slot == 0 {
                MAIN_TASK
            } else {
                (slot - 1) as TaskKey
            };
            for h in stack {
                if inner.no_hold_across_sleep[h.class as usize] {
                    let chain = stack
                        .iter()
                        .map(|h| inner.describe_held(h))
                        .collect::<Vec<_>>()
                        .join(", ");
                    panic!(
                        "lockdep: guard held across virtual-time advance\n  task {} holds {} while the clock advances {} -> {} ns\n  held chain: [{}]\n  class {} was registered with forbid_hold_across_sleep()",
                        task_name(task),
                        inner.describe_held(h),
                        now.as_nanos(),
                        next.as_nanos(),
                        chain,
                        inner.names[h.class as usize],
                    );
                }
            }
        }
    }

    /// Number of distinct lock classes registered so far.
    pub fn classes(&self) -> usize {
        self.inner.borrow().names.len()
    }

    /// Number of distinct ordering edges observed so far.
    pub fn edges(&self) -> usize {
        self.inner.borrow().edges.iter().map(|m| m.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[track_caller]
    fn site() -> &'static Location<'static> {
        Location::caller()
    }

    /// The 3-lock cycle report renders class *names* at every level: the
    /// one-line cycle, each established edge with its origin chain, and
    /// the attempting chain. Asserted verbatim so the format stays
    /// readable as classes grow.
    #[test]
    fn three_lock_cycle_report_names_every_class() {
        let dep = LockDep::default();
        let a = dep.register_class("mmap_lock");
        let b = dep.register_class("lru_lock");
        let c = dep.register_class("palloc.buddy");
        let (sa, sb, sc) = (site(), site(), site());

        // Task 1 establishes mmap_lock -> lru_lock.
        dep.check_acquire(1, a, sa);
        dep.acquired(1, a, sa);
        dep.check_acquire(1, b, sb);
        dep.acquired(1, b, sb);
        dep.release(1, b);
        dep.release(1, a);
        // Task 2 establishes lru_lock -> palloc.buddy.
        dep.check_acquire(2, b, sb);
        dep.acquired(2, b, sb);
        dep.check_acquire(2, c, sc);
        dep.acquired(2, c, sc);
        dep.release(2, c);
        dep.release(2, b);
        // Task 3 attempts palloc.buddy -> mmap_lock: closes the cycle.
        dep.check_acquire(3, c, sc);
        dep.acquired(3, c, sc);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dep.check_acquire(3, a, sa);
        }))
        .expect_err("cycle must panic");
        let msg = err
            .downcast_ref::<String>()
            .expect("panic payload is the report")
            .clone();

        let expected = format!(
            "lockdep: lock ordering cycle\n\
             \x20 cycle: mmap_lock -> lru_lock -> palloc.buddy -> mmap_lock\n\
             \x20 task 3 attempting to acquire mmap_lock (locked at {sa}) while holding palloc.buddy (locked at {sc})\n\
             \x20 but the opposite order mmap_lock -> … -> palloc.buddy is already established:\n\
             \x20   mmap_lock -> lru_lock: task 1 held [mmap_lock (locked at {sa})] and acquired lru_lock (locked at {sb})\n\
             \x20   lru_lock -> palloc.buddy: task 2 held [lru_lock (locked at {sb})] and acquired palloc.buddy (locked at {sc})\n\
             \x20 current chain: task 3 held [palloc.buddy (locked at {sc})] and acquired mmap_lock (locked at {sa})"
        );
        assert_eq!(msg, expected);
    }
}
