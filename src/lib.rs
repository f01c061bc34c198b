//! MAGE far memory — umbrella crate.
//!
//! A full, simulation-backed Rust reproduction of *"Scalable Far Memory:
//! Balancing Faults and Evictions"* (SOSP 2025). This crate re-exports
//! the whole stack; see the `README.md` for a tour and `DESIGN.md` for
//! the architecture and hardware-substitution rationale.
//!
//! - [`sim`] — deterministic virtual-time simulator (executor, locks,
//!   histograms),
//! - [`fabric`] — RDMA fabric and far-memory node,
//! - [`mmu`] — page tables, TLBs, IPIs, address spaces,
//! - [`palloc`] — buddy/per-CPU/multi-layer frame allocators, remote
//!   allocators,
//! - [`accounting`] — global or partitioned page accounting under LRU,
//!   FIFO, CLOCK or S3-FIFO queue disciplines,
//! - [`engine`] — the far-memory engine (fault-in + eviction paths) and
//!   system presets (MAGE-Lib, MAGE-Lnx, Hermit, DiLOS, ideal),
//! - [`workloads`] — the paper's applications as access-pattern
//!   generators plus experiment runners.
//!
//! # Quick start
//!
//! ```
//! use mage_far_memory::prelude::*;
//!
//! // GapBS-like random access, 8 threads, 30% of memory offloaded.
//! let mut cfg = RunConfig::new(
//!     SystemConfig::mage_lib(),
//!     WorkloadKind::RandomGraph,
//!     8,
//!     16_384, // working set, pages
//!     0.7,    // local fraction
//! );
//! cfg.ops_per_thread = 2_000;
//! let report = run_batch(&cfg);
//! assert!(report.major_faults > 0);
//! println!("{}: {:.2} M ops/s", report.system, report.mops());
//! ```

pub use mage as engine;
pub use mage_accounting as accounting;
pub use mage_fabric as fabric;
pub use mage_mmu as mmu;
pub use mage_palloc as palloc;
pub use mage_sim as sim;
pub use mage_workloads as workloads;

/// The most common imports for running experiments.
pub mod prelude {
    pub use mage::{
        Access, ApproxLru, Clock, CostModel, EvictionPolicy, EvictionPolicyKind, FarBackend,
        FarMemory, FaultError, Fifo, IdealModel, MachineParams, MetricsRegistry, MetricsSnapshot,
        MetricsWindow, OsProfile, PrefetchPolicy, ReplicaState, ReplicationConfig,
        ReplicationStats, RetryPolicy, S3Fifo, SecondChance, SystemConfig, TransferOp,
    };
    pub use mage_fabric::{FaultPlan, TransferError};
    pub use mage_mmu::{CoreId, Topology};
    pub use mage_sim::trace::{TraceEvent, Tracer};
    pub use mage_sim::{SimHandle, Simulation};
    pub use mage_workloads::memcached::{run_memcached, MemcachedConfig, MemcachedReport};
    pub use mage_workloads::runner::{
        run_batch, run_open_loop_faults, run_raw_rdma, OpenLoopReport, RunConfig, RunReport,
    };
    pub use mage_workloads::{Op, Stream, WorkloadKind, Zipf};
}
