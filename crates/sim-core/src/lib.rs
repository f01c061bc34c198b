//! Deterministic discrete-event simulation kernel for the MAGE far-memory
//! reproduction.
//!
//! This crate provides the substrate on which every simulated hardware and
//! OS component runs:
//!
//! - a single-threaded, deterministic async **executor** over *virtual time*
//!   ([`Simulation`], [`SimHandle`]),
//! - virtual-time **synchronization primitives** that record contention
//!   statistics ([`sync::SimMutex`], [`sync::Semaphore`],
//!   [`sync::WaitQueue`]),
//! - a **statistics** library with counters, time aggregates and
//!   log-bucketed latency histograms ([`stats`]), with snapshot/delta
//!   support for measurement windows,
//! - a **virtual-time tracer** recording structured spans into per-track
//!   ring buffers, exportable as Chrome `trace_event` JSON ([`trace`]),
//! - the workspace's one **JSON codec** ([`json`]): value type, parser
//!   and report renderer,
//! - a tiny deterministic **RNG** ([`rng::SplitMix64`]) for components that
//!   must not depend on external crates.
//!
//! Determinism is a design requirement (DESIGN.md §4.1): given the same
//! configuration and seeds, every experiment reproduces bit-for-bit. The
//! executor uses FIFO ready queues, sequence-number tie-breaking for timers,
//! and no host-time or host-thread dependence.
//!
//! # Examples
//!
//! ```
//! use mage_sim::Simulation;
//!
//! let sim = Simulation::new();
//! let h = sim.handle();
//! let elapsed = sim.block_on(async move {
//!     h.sleep(1_000).await; // 1 µs of virtual time
//!     h.now().as_nanos()
//! });
//! assert_eq!(elapsed, 1_000);
//! ```

pub mod executor;
pub mod explore;
pub mod json;
pub mod lockdep;
pub mod race;
pub mod rng;
pub mod slab;
pub mod stats;
pub mod sync;
pub mod time;
pub mod trace;
pub mod wheel;

pub use executor::{JoinHandle, SimHandle, Simulation};
pub use explore::{ExplorationPolicy, RunProgress};
pub use race::{RaceDetector, RaceMode, RaceReport, ShadowCell, ShadowRegion};
pub use time::{Nanos, SimTime};
