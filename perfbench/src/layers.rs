//! Per-layer counters windowed over a run's measured phase.
//!
//! [`LayerSnap`] is the start line: the engine's own
//! [`MetricsSnapshot`](mage::MetricsSnapshot) plus the layer statistics the
//! registry does not cover (allocator counters and the lock classes'
//! [`LockStats`]). [`layer_metrics`] turns *now − start* into named
//! per-layer metrics. Nothing here advances virtual time or polls a task.

use mage::{FarMemory, MetricsSnapshot};
use mage_sim::stats::{CounterSnapshot, HistogramSnapshot};
use mage_sim::sync::LockStats;
use mage_sim::time::Nanos;

use crate::report::Metric;

/// Cumulative state of one lock class.
#[derive(Clone, Copy, Debug, Default)]
struct LockCount {
    acquisitions: u64,
    contended: u64,
    wait_ns: u64,
}

impl LockCount {
    fn of(s: &LockStats) -> Self {
        LockCount {
            acquisitions: s.acquisitions(),
            contended: s.contended(),
            wait_ns: s.wait().sum(),
        }
    }

    fn add(self, o: LockCount) -> Self {
        LockCount {
            acquisitions: self.acquisitions + o.acquisitions,
            contended: self.contended + o.contended,
            wait_ns: self.wait_ns + o.wait_ns,
        }
    }

    fn since(self, start: LockCount) -> Self {
        LockCount {
            acquisitions: self.acquisitions - start.acquisitions,
            contended: self.contended - start.contended,
            wait_ns: self.wait_ns - start.wait_ns,
        }
    }
}

/// Lock classes whose contention the benchmark reports (the paper's P3).
struct Locks {
    partitions: LockCount,
    buddy: LockCount,
    queue: LockCount,
}

impl Locks {
    fn of(engine: &FarMemory) -> Self {
        let acct = engine.accounting();
        let partitions = (0..acct.partition_count())
            .map(|i| LockCount::of(acct.partition_lock_stats(i)))
            .fold(LockCount::default(), LockCount::add);
        Locks {
            partitions,
            buddy: LockCount::of(engine.allocator().buddy_lock_stats()),
            queue: LockCount::of(engine.allocator().queue_lock_stats()),
        }
    }
}

/// Start line of a measured window over every layer.
pub struct LayerSnap {
    engine: MetricsSnapshot,
    cache_hits: CounterSnapshot,
    buddy_ops: CounterSnapshot,
    alloc_failures: CounterSnapshot,
    alloc_latency: HistogramSnapshot,
    locks: Locks,
}

impl LayerSnap {
    /// Captures the start line.
    pub fn take(engine: &FarMemory) -> Self {
        let a = engine.allocator().stats();
        LayerSnap {
            engine: engine.metrics().snapshot(),
            cache_hits: a.cache_hits.snapshot(),
            buddy_ops: a.buddy_ops.snapshot(),
            alloc_failures: a.failures.snapshot(),
            alloc_latency: a.alloc_latency.snapshot(),
            locks: Locks::of(engine),
        }
    }

    /// The engine-registry part of the start line.
    pub fn engine(&self) -> &MetricsSnapshot {
        &self.engine
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    crate::report::ratio(num as f64, den as f64)
}

fn lock_metrics(out: &mut Vec<Metric>, prefix: &str, l: LockCount) {
    out.push(Metric::new(
        format!("{prefix}_acquisitions"),
        l.acquisitions as f64,
        "count",
    ));
    out.push(Metric::new(
        format!("{prefix}_contended_ratio"),
        ratio(l.contended, l.acquisitions),
        "ratio",
    ));
    out.push(Metric::new(
        format!("{prefix}_wait_us"),
        l.wait_ns as f64 / 1e3,
        "us",
    ));
}

/// Per-layer counters of the window `start .. now`, which lasted
/// `runtime_ns` of virtual time.
pub fn layer_metrics(engine: &FarMemory, start: &LayerSnap, runtime_ns: Nanos) -> Vec<Metric> {
    let w = engine.metrics().window_since(&start.engine);
    let a = engine.allocator().stats();
    let locks = Locks::of(engine);
    let b = w.breakdown_means();
    let us = |ns: f64| ns / 1e3;
    let mut out = vec![
        // core.fault
        Metric::new(
            "core.fault_rate",
            ratio(w.major_faults, w.accesses),
            "ratio",
        ),
        Metric::new("core.page_lock_waits", w.page_lock_waits as f64, "count"),
        Metric::new("core.fp_rdma_us", us(b.rdma), "us"),
        Metric::new("core.fp_tlb_us", us(b.tlb), "us"),
        Metric::new("core.fp_accounting_us", us(b.accounting), "us"),
        Metric::new("core.fp_circulation_us", us(b.circulation), "us"),
        Metric::new("core.fp_other_us", us(b.other), "us"),
        // core.reclaim
        Metric::new(
            "reclaim.evicted_pages",
            (w.evicted_pages + w.sync_evicted_pages) as f64,
            "count",
        ),
        Metric::new("reclaim.batches", w.eviction_batches as f64, "count"),
        Metric::new("reclaim.writebacks", w.writebacks as f64, "count"),
        Metric::new("reclaim.clean_reclaims", w.clean_reclaims as f64, "count"),
        Metric::new("reclaim.sync_evictions", w.sync_evictions as f64, "count"),
        Metric::new("reclaim.evict_cancels", w.evict_cancels as f64, "count"),
        Metric::new(
            "reclaim.re_fault_rate",
            ratio(w.re_faults, w.major_faults),
            "ratio",
        ),
        Metric::new(
            "reclaim.free_wait_count",
            w.free_wait.count() as f64,
            "count",
        ),
        Metric::new("reclaim.free_wait_mean_us", us(w.free_wait.mean()), "us"),
        // mmu
        Metric::new("mmu.tlb_hit_ratio", ratio(w.tlb_hits, w.accesses), "ratio"),
        Metric::new("mmu.minor_walks", w.minor_walks as f64, "count"),
        Metric::new(
            "mmu.pt_nodes",
            engine.page_table().node_count() as f64,
            "count",
        ),
        Metric::new("mmu.shootdowns", w.shootdowns as f64, "count"),
        Metric::new(
            "mmu.ipis_per_shootdown",
            ratio(w.ipis, w.shootdowns),
            "count",
        ),
        Metric::new(
            "mmu.shootdown_mean_us",
            us(w.shootdown_latency.mean()),
            "us",
        ),
        Metric::new("mmu.ipi_mean_us", us(w.ipi_latency.mean()), "us"),
        // palloc
        Metric::new(
            "palloc.cache_hit_ratio",
            ratio(
                a.cache_hits.delta(&start.cache_hits),
                a.alloc_latency.delta(&start.alloc_latency).count(),
            ),
            "ratio",
        ),
        Metric::new(
            "palloc.buddy_ops",
            a.buddy_ops.delta(&start.buddy_ops) as f64,
            "count",
        ),
        Metric::new(
            "palloc.alloc_failures",
            a.failures.delta(&start.alloc_failures) as f64,
            "count",
        ),
        Metric::new(
            "palloc.alloc_p99_ns",
            a.alloc_latency.delta(&start.alloc_latency).p99() as f64,
            "ns",
        ),
        // accounting
        Metric::new("accounting.scanned", w.acct_scanned as f64, "count"),
        Metric::new("accounting.victims", w.acct_victims as f64, "count"),
        Metric::new(
            "accounting.scan_yield",
            ratio(w.acct_victims, w.acct_scanned),
            "ratio",
        ),
        Metric::new("accounting.reactivated", w.acct_reactivated as f64, "count"),
        // fabric
        Metric::new("fabric.reads", w.nic_reads as f64, "count"),
        Metric::new("fabric.writes", w.nic_writes as f64, "count"),
        Metric::new("fabric.read_gbps", w.read_gbps(runtime_ns), "Gbps"),
        Metric::new("fabric.write_gbps", w.write_gbps(runtime_ns), "Gbps"),
        Metric::new(
            "fabric.read_p99_us",
            us(w.nic_read_latency.p99() as f64),
            "us",
        ),
        Metric::new("fabric.retries", w.transfer_retries as f64, "count"),
        Metric::new("fabric.failures", w.transfer_failures as f64, "count"),
    ];
    lock_metrics(
        &mut out,
        "accounting.partition_lock",
        locks.partitions.since(start.locks.partitions),
    );
    lock_metrics(
        &mut out,
        "palloc.buddy_lock",
        locks.buddy.since(start.locks.buddy),
    );
    lock_metrics(
        &mut out,
        "palloc.queue_lock",
        locks.queue.since(start.locks.queue),
    );
    out
}
