//! Machine topology: cores and NUMA sockets.
//!
//! The paper's testbed is a dual-socket Xeon Gold 6348 (28 cores per
//! socket, §6.1); cross-socket IPI delivery is substantially slower and is
//! the cause of the latency inflection at 28 threads in Fig. 7.

/// Identifier of a logical core.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CoreId(pub u32);

impl CoreId {
    /// The core's index as a usize (for table lookups).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// NUMA topology of the simulated machine.
#[derive(Clone, Copy, Debug)]
pub struct Topology {
    /// Number of sockets.
    pub sockets: u32,
    /// Cores per socket.
    pub cores_per_socket: u32,
}

impl Topology {
    /// The paper's testbed: 2 sockets × 28 cores (§6.1).
    pub fn xeon_6348_dual() -> Self {
        Topology {
            sockets: 2,
            cores_per_socket: 28,
        }
    }

    /// A single-socket topology with `cores` cores (for unit tests).
    pub fn single_socket(cores: u32) -> Self {
        Topology {
            sockets: 1,
            cores_per_socket: cores,
        }
    }

    /// A dual-socket machine with `cores_per_socket` cores per socket:
    /// the paper's NUMA geometry scaled up, used by the 128–256
    /// virtual-core sweeps (cross-socket IPI costs stay in the model).
    pub fn dual_socket(cores_per_socket: u32) -> Self {
        Topology {
            sockets: 2,
            cores_per_socket,
        }
    }

    /// Total number of cores.
    pub fn total_cores(&self) -> u32 {
        self.sockets * self.cores_per_socket
    }

    /// The socket that `core` belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    fn socket_of(&self, core: CoreId) -> u32 {
        assert!(core.0 < self.total_cores(), "core {core:?} out of range");
        core.0 / self.cores_per_socket
    }

    /// Whether two cores sit on different sockets.
    pub fn cross_socket(&self, a: CoreId, b: CoreId) -> bool {
        self.socket_of(a) != self.socket_of(b)
    }

    /// Iterates over all core ids.
    pub fn cores(&self) -> impl Iterator<Item = CoreId> {
        (0..self.total_cores()).map(CoreId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dual_socket_layout() {
        let t = Topology::xeon_6348_dual();
        assert_eq!(t.total_cores(), 56);
        assert_eq!(t.socket_of(CoreId(0)), 0);
        assert_eq!(t.socket_of(CoreId(27)), 0);
        assert_eq!(t.socket_of(CoreId(28)), 1);
        assert!(t.cross_socket(CoreId(0), CoreId(28)));
        assert!(!t.cross_socket(CoreId(1), CoreId(27)));
    }

    #[test]
    fn cores_iterator_covers_all() {
        let t = Topology::single_socket(4);
        let ids: Vec<_> = t.cores().collect();
        assert_eq!(ids, vec![CoreId(0), CoreId(1), CoreId(2), CoreId(3)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn socket_of_out_of_range_panics() {
        Topology::single_socket(2).socket_of(CoreId(2));
    }
}
