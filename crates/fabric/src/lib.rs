//! RDMA fabric simulator: one-sided verbs over a full-duplex serialized
//! link, plus a passive far-memory node.
//!
//! This crate substitutes for the paper's 200 Gbps Mellanox BlueField-2
//! fabric (DESIGN.md §1). For a one-sided RDMA initiator the observable
//! behaviour of the fabric is *latency + serialization + queueing*:
//!
//! - each direction of the link is a FIFO serializer with a configurable
//!   bandwidth (reads consume the remote→local direction, writes the
//!   local→remote direction),
//! - every operation pays a base one-sided latency (3.9 µs in the paper's
//!   testbed, §3.1) on top of its serialization slot,
//! - queueing delay near saturation emerges from the serializer, which is
//!   what produces the congestion-driven tail-latency spikes of Fig. 15.
//!
//! Operations are *posted* ([`Nic::post_read`] / [`Nic::post_write`]),
//! returning a [`Completion`] future; the split lets MAGE's cross-batch
//! pipelined evictor issue a batch of writes and harvest completions later
//! (paper §4.1 steps ⑤–⑦).

//!
//! Transport failure is modeled by optional deterministic [`FaultPlan`]s,
//! one for the link and one per memory node of a multi-node fabric
//! ([`Nic::with_faults`]): completions then resolve to
//! `Result<Nanos, TransferError>` and the engine above decides how to
//! retry, time out, or degrade.

pub mod faults;
pub mod link;
pub mod node;

pub use faults::{FaultInjector, FaultPlan, FaultStats, TransferError};
pub use link::{Completion, Nic, NicConfig, NicStats};
pub use node::{MemoryNode, NodeId, RemoteAddr, RemoteRegion};
