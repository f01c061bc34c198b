//! The passive far-memory node: region registration and remote addressing.
//!
//! The paper's memory node is a daemon that registers a HugeTLB-backed
//! region with its RDMA NIC and then stays passive — all data movement is
//! one-sided (§5.2, "Memory node"). Pages are metadata in this
//! reproduction (DESIGN.md §4.5), so the node tracks address-space
//! bookkeeping and capacity only; byte movement is charged at the NIC.

use std::cell::RefCell;
use std::fmt;

/// Identity of one simulated memory node behind a link. The single-node
/// fabric is node 0; replicated configurations address mirrors on nodes
/// 1, 2, … via [`crate::Nic::post_read_to`] / [`crate::Nic::post_write_to`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The default (primary) node of a single-node fabric.
    pub const PRIMARY: NodeId = NodeId(0);

    /// Index into per-node tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// An address in the far-memory node's registered address space.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RemoteAddr(pub u64);

impl fmt::Debug for RemoteAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{:#x}", self.0)
    }
}

/// A region registered on the memory node.
#[derive(Clone, Debug)]
pub struct RemoteRegion {
    /// Base address within the node's space.
    pub base: RemoteAddr,
    /// Region length in bytes.
    pub len: u64,
    /// Whether the node backs the region with huge pages (cuts the node's
    /// page-walk cost; modeled as a small per-op latency delta by callers).
    pub huge_pages: bool,
}

/// The far-memory node daemon's bookkeeping.
pub struct MemoryNode {
    capacity: u64,
    next_base: RefCell<u64>,
}

impl MemoryNode {
    /// Creates a node exporting `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        MemoryNode {
            capacity,
            next_base: RefCell::new(0),
        }
    }

    /// Registers a region of `len` bytes, returning it, or `None` if the
    /// node lacks capacity. Mirrors the setup-request handling of the
    /// MAGE-Lib memory-node daemon.
    pub fn register(&self, len: u64, huge_pages: bool) -> Option<RemoteRegion> {
        let mut next = self.next_base.borrow_mut();
        if *next + len > self.capacity {
            return None;
        }
        let region = RemoteRegion {
            base: RemoteAddr(*next),
            len,
            huge_pages,
        };
        *next += len;
        Some(region)
    }

    /// Total exported capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently registered.
    pub fn registered(&self) -> u64 {
        *self.next_base.borrow()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_within_capacity() {
        let node = MemoryNode::new(1 << 20);
        let r1 = node.register(4096, true).expect("fits");
        let r2 = node.register(8192, false).expect("fits");
        assert_eq!(r1.base, RemoteAddr(0));
        assert_eq!(r2.base, RemoteAddr(4096));
        assert_eq!(node.registered(), 12_288);
    }

    #[test]
    fn register_beyond_capacity_fails() {
        let node = MemoryNode::new(10_000);
        assert!(node.register(8_000, false).is_some());
        assert!(node.register(8_000, false).is_none());
        // A smaller request still fits.
        assert!(node.register(2_000, false).is_some());
    }
}
