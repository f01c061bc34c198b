//! Measurement windows over every stat source of a running machine.
//!
//! A [`MetricsRegistry`] composes the engine, fault-breakdown, NIC,
//! interrupt, accounting and replication statistics into one façade with
//! two operations: [`snapshot`](MetricsRegistry::snapshot) captures a
//! cheap start line ([`MetricsSnapshot`]), and
//! [`window_since`](MetricsRegistry::window_since) computes the
//! *end − start* deltas ([`MetricsWindow`]). Reports are derived from a
//! window, never from cumulative counters.
//!
//! All four are generated from one table (the `registry!` invocation at
//! the bottom of this file) that names every field of every stats
//! struct: either the window field it feeds, or `_` with the reason it
//! is deliberately not windowed. The table destructures each struct
//! without `..`, so a stat added to a source and left out of the table
//! fails the build — the "warmup reset missed a counter" bug class
//! (a NIC or IPI counter keeping its warmup samples and then being
//! divided by the post-warmup runtime) cannot compile.

use std::cell::RefCell;

use mage_accounting::AccountingStats;
use mage_fabric::NicStats;
use mage_mmu::IpiStats;
use mage_sim::stats::{
    Counter, CounterSnapshot, Histogram, HistogramDelta, HistogramSnapshot, TimeStat,
    TimeStatDelta, TimeStatSnapshot,
};
use mage_sim::time::Nanos;

use crate::backend::ReplicationStats;
use crate::stats::{BreakdownMeans, EngineStats, FaultBreakdown};

/// Borrowed view of every stat source of one machine; the entry point for
/// snapshot/delta measurement windows. Obtain via
/// [`FarMemory::metrics`](crate::machine::FarMemory::metrics).
pub struct MetricsRegistry<'a> {
    pub(crate) engine: &'a EngineStats,
    pub(crate) breakdown: &'a FaultBreakdown,
    pub(crate) nic: &'a NicStats,
    pub(crate) interrupts: &'a IpiStats,
    pub(crate) accounting: &'a AccountingStats,
    /// Present only when the machine's backend replicates
    /// ([`SystemConfig::replication`](crate::config::SystemConfig::replication));
    /// its window fields are zero otherwise.
    pub(crate) replication: Option<&'a ReplicationStats>,
}

/// A stat with a measurement-window start line and a delta since it.
trait Windowed {
    type Snapshot;
    type Delta;
    fn snapshot(&self) -> Self::Snapshot;
    fn delta(&self, start: &Self::Snapshot) -> Self::Delta;
}

impl Windowed for Counter {
    type Snapshot = CounterSnapshot;
    type Delta = u64;
    fn snapshot(&self) -> CounterSnapshot {
        Counter::snapshot(self)
    }
    fn delta(&self, start: &CounterSnapshot) -> u64 {
        Counter::delta(self, start)
    }
}

impl Windowed for Histogram {
    type Snapshot = HistogramSnapshot;
    type Delta = HistogramDelta;
    fn snapshot(&self) -> HistogramSnapshot {
        Histogram::snapshot(self)
    }
    fn delta(&self, start: &HistogramSnapshot) -> HistogramDelta {
        Histogram::delta(self, start)
    }
}

impl Windowed for RefCell<TimeStat> {
    type Snapshot = TimeStatSnapshot;
    type Delta = TimeStatDelta;
    fn snapshot(&self) -> TimeStatSnapshot {
        self.borrow().snapshot()
    }
    fn delta(&self, start: &TimeStatSnapshot) -> TimeStatDelta {
        self.borrow().delta(start)
    }
}

/// Generates [`MetricsSnapshot`], [`MetricsWindow`],
/// [`MetricsRegistry::snapshot`] and [`MetricsRegistry::window_since`]
/// from one table.
///
/// The table is a list of sources, `name: StatsStruct { entries }`, where
/// `name` is the [`MetricsRegistry`] field (a reference, or an `Option`
/// of one for a source a machine may lack). Each entry is either
/// `field => window_name: Kind,` (with `Kind` one of `Counter`,
/// `Histogram`, `TimeStat`; doc comments above it document the window
/// field) or `field => _ ("reason"),` for a field deliberately not
/// windowed. Every source struct is destructured without `..`, so a
/// stats field missing from the table is a compile error at the table.
/// Because of macro hygiene rustc words it as "pattern requires `..` due
/// to inaccessible fields": read that as "add the new field here".
macro_rules! registry {
    // Normalise one entry at a time into
    // `[source: Struct [windowed entries] [skipped fields]]` groups.
    (@source [$($done:tt)*] $src:ident: $ty:ident { $($body:tt)* } $($rest:tt)*) => {
        registry!(@entry [$($done)*] [$src: $ty] [] [] [$($body)*] $($rest)*);
    };
    (@source [$($done:tt)*]) => {
        registry!(@emit $($done)*);
    };
    (@entry $done:tt $src:tt [$($win:tt)*] $skip:tt
        [$(#[$doc:meta])* $field:ident => $name:ident: $kind:ident, $($body:tt)*] $($rest:tt)*) => {
        registry!(@entry $done $src [$($win)* $(#[$doc])* $field => $name: $kind,] $skip
            [$($body)*] $($rest)*);
    };
    (@entry $done:tt $src:tt $win:tt [$($skip:tt)*]
        [$field:ident => _ ($why:literal), $($body:tt)*] $($rest:tt)*) => {
        registry!(@entry $done $src $win [$($skip)* $field] [$($body)*] $($rest)*);
    };
    (@entry [$($done:tt)*] [$src:ident: $ty:ident] $win:tt $skip:tt [] $($rest:tt)*) => {
        registry!(@source [$($done)* [$src: $ty $win $skip]] $($rest)*);
    };
    (@snapshot Counter) => { CounterSnapshot };
    (@snapshot Histogram) => { HistogramSnapshot };
    (@snapshot TimeStat) => { TimeStatSnapshot };
    (@delta Counter) => { u64 };
    (@delta Histogram) => { HistogramDelta };
    (@delta TimeStat) => { TimeStatDelta };
    (@emit $([$src:ident: $ty:ident
        [$($(#[$doc:meta])* $field:ident => $name:ident: $kind:ident,)*] [$($skip:ident)*]])*) => {
        /// Start line of a measurement window: a point-in-time capture of
        /// every registered stat. Cheap to take (a few hundred plain
        /// copies, no virtual time passes).
        #[derive(Clone, Debug, Default)]
        pub struct MetricsSnapshot {
            $($($name: registry!(@snapshot $kind),)*)*
        }

        /// The *end − start* deltas of one measurement window. Every field
        /// is a windowed value: counters are plain differences,
        /// distributions are [`HistogramDelta`]s / [`TimeStatDelta`]s
        /// covering only samples recorded inside the window.
        #[derive(Default)]
        pub struct MetricsWindow {
            $($($(#[$doc])* pub $name: registry!(@delta $kind),)*)*
        }

        impl MetricsRegistry<'_> {
            /// Captures the start line of a measurement window.
            pub fn snapshot(&self) -> MetricsSnapshot {
                // `Option::from` wraps a required source in `Some` and
                // passes an optional one through; an absent source leaves
                // its fields at their zero defaults.
                let mut snap = MetricsSnapshot::default();
                $(
                    if let Some($ty { $($field,)* $($skip: _,)* }) = Option::<&$ty>::from(self.$src) {
                        $(snap.$name = Windowed::snapshot($field);)*
                    }
                )*
                snap
            }

            /// Computes the *current − start* window over every registered
            /// stat.
            pub fn window_since(&self, start: &MetricsSnapshot) -> MetricsWindow {
                let mut window = MetricsWindow::default();
                $(
                    if let Some($ty { $($field,)* $($skip: _,)* }) = Option::<&$ty>::from(self.$src) {
                        $(window.$name = Windowed::delta($field, &start.$name);)*
                    }
                )*
                window
            }
        }
    };
    ($($table:tt)*) => {
        registry!(@source [] $($table)*);
    };
}

registry! {
    engine: EngineStats {
        /// Page accesses in the window.
        accesses => accesses: Counter,
        /// TLB hits in the window.
        tlb_hits => tlb_hits: Counter,
        /// Minor walks in the window.
        minor_walks => minor_walks: Counter,
        /// Major faults in the window.
        major_faults => major_faults: Counter,
        /// Page-lock waits in the window.
        page_lock_waits => page_lock_waits: Counter,
        /// Fault-latency distribution over the window.
        fault_latency => fault_latency: Histogram,
        breakdown => _ ("windowed as the `breakdown` source"),
        /// Synchronous evictions in the window.
        sync_evictions => sync_evictions: Counter,
        /// Background-evicted pages in the window.
        evicted_pages => evicted_pages: Counter,
        /// Synchronously evicted pages in the window.
        sync_evicted_pages => sync_evicted_pages: Counter,
        /// Writebacks in the window.
        writebacks => writebacks: Counter,
        /// Clean reclaims in the window.
        clean_reclaims => clean_reclaims: Counter,
        /// Eviction batches in the window.
        eviction_batches => eviction_batches: Counter,
        /// Free-page wait time over the window.
        free_wait => free_wait: TimeStat,
        /// Pages unmapped in the window.
        unmapped_pages => unmapped_pages: Counter,
        /// Refault-cancelled evictions in the window.
        evict_cancels => evict_cancels: Counter,
        /// Eviction-batch pages cancelled in the window.
        evict_cancelled_pages => evict_cancelled_pages: Counter,
        /// Pages prefetched in the window.
        prefetches => prefetches: Counter,
        /// In-flight prefetch hits in the window.
        prefetch_inflight_hits => prefetch_inflight_hits: Counter,
        /// Transfer retries in the window.
        transfer_retries => transfer_retries: Counter,
        /// Exhausted-retry transfer failures in the window.
        transfer_failures => transfer_failures: Counter,
        /// Aborted faults in the window.
        aborted_faults => aborted_faults: Counter,
        /// Requeued eviction victims in the window.
        requeued_victims => requeued_victims: Counter,
        /// Reads served from a surviving replica in the window.
        failover_reads => failover_reads: Counter,
        /// Retry-recovery latency distribution over the window.
        retry_latency => retry_latency: Histogram,
        /// Major faults that hit the ghost list in the window (pages
        /// evicted too early — the re-fault-rate numerator).
        re_faults => re_faults: Counter,
        /// All ghost-list hits in the window (re-faults plus eviction
        /// cancels and requeues).
        ghost_hits => ghost_hits: Counter,
    }
    breakdown: FaultBreakdown {
        /// RDMA-read component of the fault breakdown, window only.
        rdma => breakdown_rdma: TimeStat,
        /// In-fault TLB component of the fault breakdown, window only.
        tlb => breakdown_tlb: TimeStat,
        /// Accounting component of the fault breakdown, window only.
        accounting => breakdown_accounting: TimeStat,
        /// Circulation component of the fault breakdown, window only.
        circulation => breakdown_circulation: TimeStat,
        /// Residual component of the fault breakdown, window only.
        other => breakdown_other: TimeStat,
    }
    nic: NicStats {
        /// NIC reads completed in the window.
        reads => nic_reads: Counter,
        /// NIC writes completed in the window.
        writes => nic_writes: Counter,
        /// Bytes read remote→local in the window.
        read_bytes => nic_read_bytes: Counter,
        /// Bytes written local→remote in the window.
        write_bytes => nic_write_bytes: Counter,
        /// NIC read-latency distribution over the window.
        read_latency => nic_read_latency: Histogram,
        /// NIC write-latency distribution over the window.
        write_latency => nic_write_latency: Histogram,
    }
    interrupts: IpiStats {
        /// IPIs delivered in the window.
        ipis => ipis: Counter,
        /// Per-IPI latency distribution over the window.
        ipi_latency => ipi_latency: Histogram,
        /// Shootdown rounds in the window.
        shootdowns => shootdowns: Counter,
        /// Shootdown (first-send → last-ACK) distribution over the window.
        shootdown_latency => shootdown_latency: Histogram,
    }
    accounting: AccountingStats {
        /// Accounting inserts in the window.
        inserts => acct_inserts: Counter,
        /// Accounting pages scanned in the window.
        scanned => acct_scanned: Counter,
        /// Accounting reactivations in the window.
        reactivated => acct_reactivated: Counter,
        /// Accounting victims taken in the window.
        victims => acct_victims: Counter,
    }
    replication: ReplicationStats {
        /// Pages copied back to full replication in the window (zero
        /// without a replicated backend).
        rereplicated_pages => rereplicated_pages: Counter,
        /// Replica slots marked degraded by node outages in the window.
        degraded_marks => degraded_marks: Counter,
        illegal_transitions => _ ("oracle gauge: mage-check reads it cumulatively"),
    }
}

impl MetricsWindow {
    /// Achieved read bandwidth over the window, in Gbps, for a window of
    /// `elapsed` ns. Counts only bytes moved *inside* the window.
    pub fn read_gbps(&self, elapsed: Nanos) -> f64 {
        if elapsed == 0 {
            return 0.0;
        }
        self.nic_read_bytes as f64 * 8.0 / elapsed as f64
    }

    /// Achieved write bandwidth over the window, in Gbps.
    pub fn write_gbps(&self, elapsed: Nanos) -> f64 {
        if elapsed == 0 {
            return 0.0;
        }
        self.nic_write_bytes as f64 * 8.0 / elapsed as f64
    }

    /// Mean per-fault component latencies over the window (the Fig. 6/16
    /// breakdown).
    pub fn breakdown_means(&self) -> BreakdownMeans {
        BreakdownMeans {
            rdma: self.breakdown_rdma.mean(),
            tlb: self.breakdown_tlb.mean(),
            accounting: self.breakdown_accounting.mean(),
            circulation: self.breakdown_circulation.mean(),
            other: self.breakdown_other.mean(),
        }
    }
}
