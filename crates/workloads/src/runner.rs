//! Experiment runners: closed-loop batch jobs, open-loop fault storms,
//! and raw-RDMA load generators.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use mage::{Access, FarMemory, MachineParams, SystemConfig};
use mage_mmu::{CoreId, Topology};
use mage_sim::rng::SplitMix64;
use mage_sim::stats::{Counter, Histogram};
use mage_sim::time::{Nanos, SECS};
use mage_sim::trace::Tracer;
use mage_sim::Simulation;

use crate::patterns::{Stream, WorkloadKind};

/// Configuration of one closed-loop batch experiment.
#[derive(Clone)]
pub struct RunConfig {
    /// The system under test.
    pub system: SystemConfig,
    /// Access pattern.
    pub kind: WorkloadKind,
    /// Application threads (thread *i* runs on core *i*).
    pub threads: usize,
    /// Working-set size in pages.
    pub wss_pages: u64,
    /// Fraction of the WSS resident locally (1 − offload ratio).
    pub local_ratio: f64,
    /// Operations per thread.
    pub ops_per_thread: u64,
    /// Unmeasured operations per thread executed before the measurement
    /// window (lets cache residency converge to the access distribution;
    /// statistics and the clock origin are reset afterwards).
    pub warmup_ops: u64,
    /// Deterministic seed.
    pub seed: u64,
    /// Start with every page remote (§3.2 fault-storm setup).
    pub all_remote: bool,
    /// Skip population entirely: pages start unmapped and zero-fill on
    /// first touch, so setup is O(1) and host metadata stays O(touched
    /// pages). The honest mode for huge sparse address spaces; takes
    /// precedence over `all_remote`.
    pub lazy_populate: bool,
    /// Switch phase-change workloads to phase 1 at this virtual time.
    pub phase_change_at_ns: Option<Nanos>,
    /// Switch phase-change workloads to phase 1 after this many ops per
    /// thread (Metis-style explicit barrier).
    pub phase_change_at_op: Option<u64>,
    /// Record an ops-throughput timeline at this interval.
    pub sample_interval_ns: Option<Nanos>,
    /// Attach a virtual-time tracer and export the run as Chrome
    /// `trace_event` JSON in [`RunReport::trace_json`].
    pub capture_trace: bool,
    /// Machine topology.
    pub topo: Topology,
}

impl RunConfig {
    /// A testbed-shaped run with sensible defaults.
    pub fn new(
        system: SystemConfig,
        kind: WorkloadKind,
        threads: usize,
        wss_pages: u64,
        local_ratio: f64,
    ) -> Self {
        RunConfig {
            system,
            kind,
            threads,
            wss_pages,
            local_ratio,
            ops_per_thread: (wss_pages / threads.max(1) as u64).max(1_000),
            warmup_ops: 0,
            seed: 42,
            all_remote: false,
            lazy_populate: false,
            phase_change_at_ns: None,
            phase_change_at_op: None,
            sample_interval_ns: None,
            capture_trace: false,
            topo: Topology::xeon_6348_dual(),
        }
    }

    fn local_pages(&self) -> u64 {
        if self.local_ratio >= 0.999 {
            // All-local runs need headroom above the watermarks (which
            // scale with both the eviction batch and memory size) so that
            // nothing ever evicts.
            self.wss_pages
                + self.wss_pages / 16
                + 3 * (self.system.evictors as u64) * (self.system.eviction_batch as u64)
                + 256
        } else {
            ((self.wss_pages as f64 * self.local_ratio) as u64).max(512)
        }
    }
}

/// Results of one batch run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// System name.
    pub system: &'static str,
    /// Virtual runtime of the job (start → slowest thread done), ns.
    pub runtime_ns: Nanos,
    /// Total application operations completed.
    pub total_ops: u64,
    /// Major faults observed.
    pub major_faults: u64,
    /// Per-thread major-fault counts (feeds the §3.1 ideal model).
    pub faults_per_thread: Vec<u64>,
    /// Mean major-fault latency, ns.
    pub fault_mean_ns: f64,
    /// p50 major-fault latency, ns.
    pub fault_p50_ns: u64,
    /// p99 major-fault latency, ns.
    pub fault_p99_ns: u64,
    /// Per-component fault breakdown means.
    pub breakdown: mage::BreakdownMeans,
    /// Synchronous evictions performed on the fault path.
    pub sync_evictions: u64,
    /// Pages evicted in the background.
    pub evicted_pages: u64,
    /// Mean TLB-shootdown latency, ns.
    pub shootdown_mean_ns: f64,
    /// Mean per-IPI latency, ns.
    pub ipi_mean_ns: f64,
    /// Achieved RDMA read bandwidth, Gbps.
    pub read_gbps: f64,
    /// Achieved RDMA write bandwidth, Gbps.
    pub write_gbps: f64,
    /// Pages prefetched.
    pub prefetches: u64,
    /// Ops-per-bucket timeline, if sampling was enabled.
    pub timeline: Vec<(Nanos, u64)>,
    /// Per-thread instant of the phase-0 → phase-1 switch (0 if none).
    pub phase_switch_ns: Vec<Nanos>,
    /// Faults that cancelled an in-flight eviction (refault dedup).
    pub evict_cancels: u64,
    /// Time faulting threads spent waiting for free pages (count, mean).
    pub free_wait_count: u64,
    /// Mean free-page wait, ns.
    pub free_wait_mean_ns: f64,
    /// RDMA transfers re-posted after an injected fault.
    pub transfer_retries: u64,
    /// Transfers that exhausted the retry budget.
    pub transfer_failures: u64,
    /// Fault-ins aborted after retry exhaustion.
    pub aborted_faults: u64,
    /// Eviction victims re-inserted after a failed writeback.
    pub requeued_victims: u64,
    /// Reads served from a surviving replica after the primary's node
    /// went unreachable (zero without a replicated backend).
    pub failover_reads: u64,
    /// Pages copied back to full replication after a node outage.
    pub rereplicated_pages: u64,
    /// Replica slots still degraded when the run ended (end-of-run
    /// gauge, not a window delta).
    pub degraded_pages: u64,
    /// Major faults whose page was still on the accounting ghost list —
    /// pages the eviction policy gave up on too early. The numerator of
    /// [`RunReport::re_fault_rate`].
    pub re_faults: u64,
    /// All ghost-list hits (re-faults plus eviction cancels/requeues).
    pub ghost_hits: u64,
    /// Chrome `trace_event` JSON of the run, when
    /// [`RunConfig::capture_trace`] was set.
    pub trace_json: Option<String>,
    /// Total executor task polls the run performed — the discrete-event
    /// count behind the wall-clock events/sec figure in `BENCH_*.json`.
    pub executor_polls: u64,
    /// Page-table nodes allocated by the end of the run (host-metadata
    /// gauge: O(touched pages), never O(address-space span)).
    pub pt_nodes: u64,
    /// Replica-table entries tracked by the end of the run (0 without a
    /// replicated backend; O(touched slots), never O(max rpn)).
    pub replica_entries: u64,
}

impl RunReport {
    /// Application throughput in M ops/s.
    pub fn mops(&self) -> f64 {
        if self.runtime_ns == 0 {
            return 0.0;
        }
        self.total_ops as f64 * 1e3 / self.runtime_ns as f64
    }

    /// Fraction of major faults that re-fetched a recently evicted page
    /// (lower is better — the policy-ablation figure of merit).
    pub fn re_fault_rate(&self) -> f64 {
        if self.major_faults == 0 {
            return 0.0;
        }
        self.re_faults as f64 / self.major_faults as f64
    }

    /// Major-fault throughput in M faults/s.
    pub fn fault_mops(&self) -> f64 {
        if self.runtime_ns == 0 {
            return 0.0;
        }
        self.major_faults as f64 * 1e3 / self.runtime_ns as f64
    }
}

/// Runs one closed-loop batch experiment to completion.
pub fn run_batch(cfg: &RunConfig) -> RunReport {
    let sim = Simulation::new();
    let params = MachineParams {
        topo: cfg.topo,
        app_threads: cfg.threads,
        local_pages: cfg.local_pages(),
        remote_pages: cfg.wss_pages + 1024,
        tlb_entries: 1_536,
        seed: cfg.seed,
    };
    let engine = FarMemory::launch(sim.handle(), cfg.system.clone(), params);
    let vma = engine.mmap(cfg.wss_pages);
    if cfg.lazy_populate {
        engine.populate_lazy(&vma);
    } else if cfg.all_remote {
        engine.populate_all_remote(&vma);
    } else {
        engine.populate(&vma);
    }
    let tracer = cfg.capture_trace.then(|| {
        let t = Tracer::new(sim.handle());
        engine.attach_tracer(Rc::clone(&t));
        t
    });

    let ops_counter = Rc::new(Counter::new());
    let phase = Rc::new(Cell::new(0usize));
    let done = Rc::new(Cell::new(0usize));
    let timeline = Rc::new(RefCell::new(Vec::new()));
    let sampled = Rc::new(Cell::new(0u64));
    let warmed = Rc::new(Cell::new(0usize));
    let start_line = Rc::new(mage_sim::sync::WaitQueue::new());
    let t_start = Rc::new(Cell::new(0u64));
    // Start line of the measurement window, captured by the last thread
    // to finish warmup. Replaces the destructive stats reset: the window
    // covers every stat source (engine, NIC, IPIs, accounting), so warmup
    // traffic can no longer leak into bandwidth or shootdown figures.
    let start_snap = Rc::new(RefCell::new(None));

    // Phase-change trigger by virtual time (GUPS).
    if let Some(at) = cfg.phase_change_at_ns {
        let h = sim.handle();
        let p = Rc::clone(&phase);
        sim.spawn(async move {
            h.sleep(at).await;
            p.set(1);
        });
    }

    // Throughput timeline sampler. `sampled` tracks how many ops the
    // pushed buckets cover so the final partial bucket can be flushed
    // after the join (the sampler itself is parked mid-sleep when the
    // last thread finishes and never sees the remainder).
    if let Some(interval) = cfg.sample_interval_ns {
        let h = sim.handle();
        let ops = Rc::clone(&ops_counter);
        let tl = Rc::clone(&timeline);
        let done = Rc::clone(&done);
        let sampled = Rc::clone(&sampled);
        let threads = cfg.threads;
        sim.spawn(async move {
            while done.get() < threads {
                h.sleep(interval).await;
                let cur = ops.get();
                tl.borrow_mut().push((h.now().as_nanos(), cur - sampled.get()));
                sampled.set(cur);
            }
        });
    }

    // Application threads.
    let mut joins = Vec::new();
    for t in 0..cfg.threads {
        let engine = Rc::clone(&engine);
        let h = sim.handle();
        let ops_counter = Rc::clone(&ops_counter);
        let phase = Rc::clone(&phase);
        let done = Rc::clone(&done);
        let mut stream = Stream::new(cfg.kind, t, cfg.threads, cfg.wss_pages, cfg.seed);
        let ops = cfg.ops_per_thread;
        let warmup = cfg.warmup_ops;
        let base = vma.start_vpn;
        let phase_at_op = cfg.phase_change_at_op;
        let warmed = Rc::clone(&warmed);
        let start_line = Rc::clone(&start_line);
        let t_start = Rc::clone(&t_start);
        let start_snap = Rc::clone(&start_snap);
        let threads = cfg.threads;
        joins.push(sim.spawn(async move {
            let core = CoreId(t as u32);
            // Warmup: converge residency, then rendezvous at a start line
            // where the last thread opens the measurement window.
            if warmup > 0 {
                for _ in 0..warmup {
                    let op = stream.next_op();
                    engine.access(core, base + op.page, op.write).await;
                    let compute = engine.inflate_compute(op.compute_ns);
                    if compute > 0 {
                        h.sleep(compute).await;
                    }
                }
            }
            warmed.set(warmed.get() + 1);
            if warmed.get() == threads {
                *start_snap.borrow_mut() = Some(engine.metrics().snapshot());
                t_start.set(h.now().as_nanos());
                start_line.wake_all();
            } else {
                start_line.wait().await;
            }
            let mut faults = 0u64;
            let mut switch_ns = 0u64;
            for i in 0..ops {
                if let Some(at) = phase_at_op {
                    if i == at {
                        stream.set_phase(1);
                        switch_ns = h.now().as_nanos();
                    }
                }
                if stream.kind().has_phases()
                    && phase.get() != stream.phase()
                    && phase_at_op.is_none()
                {
                    stream.set_phase(phase.get());
                    switch_ns = h.now().as_nanos();
                }
                let op = stream.next_op();
                let access = engine.access(core, base + op.page, op.write).await;
                if matches!(access, Access::Major { .. }) {
                    faults += 1;
                }
                let compute = engine.inflate_compute(op.compute_ns);
                if compute > 0 {
                    h.sleep(compute).await;
                }
                ops_counter.inc();
            }
            done.set(done.get() + 1);
            (faults, switch_ns, h.now().as_nanos())
        }));
    }

    let per_thread = sim.block_on(async move {
        let mut out = Vec::new();
        for j in joins {
            out.push(j.await);
        }
        out
    });
    engine.shutdown();

    let end_abs = per_thread.iter().map(|&(_, _, end)| end).max().unwrap_or(0);
    let runtime_ns = end_abs.saturating_sub(t_start.get());
    // Flush the final partial bucket: block_on returns the instant the
    // last thread finishes, before the sampler's next tick, so without
    // this the trailing `total % interval` ops would vanish from the
    // timeline and `sum(timeline) != total_ops`.
    if cfg.sample_interval_ns.is_some() {
        let cur = ops_counter.get();
        if cur > sampled.get() {
            timeline.borrow_mut().push((end_abs, cur - sampled.get()));
        }
    }
    let start = start_snap
        .borrow_mut()
        .take()
        .expect("rendezvous captured a start snapshot");
    let w = engine.metrics().window_since(&start);
    RunReport {
        system: cfg.system.name,
        runtime_ns,
        total_ops: ops_counter.get(),
        major_faults: w.major_faults,
        faults_per_thread: per_thread.iter().map(|&(f, _, _)| f).collect(),
        fault_mean_ns: w.fault_latency.mean(),
        fault_p50_ns: w.fault_latency.p50(),
        fault_p99_ns: w.fault_latency.p99(),
        breakdown: w.breakdown_means(),
        sync_evictions: w.sync_evictions,
        evicted_pages: w.evicted_pages + w.sync_evicted_pages,
        shootdown_mean_ns: w.shootdown_latency.mean(),
        ipi_mean_ns: w.ipi_latency.mean(),
        read_gbps: w.read_gbps(runtime_ns),
        write_gbps: w.write_gbps(runtime_ns),
        prefetches: w.prefetches,
        timeline: timeline.take(),
        phase_switch_ns: per_thread.iter().map(|&(_, s, _)| s).collect(),
        evict_cancels: w.evict_cancels,
        free_wait_count: w.free_wait.count(),
        free_wait_mean_ns: w.free_wait.mean(),
        transfer_retries: w.transfer_retries,
        transfer_failures: w.transfer_failures,
        aborted_faults: w.aborted_faults,
        requeued_victims: w.requeued_victims,
        failover_reads: w.failover_reads,
        rereplicated_pages: w.rereplicated_pages,
        degraded_pages: engine.backend().degraded_pages(),
        re_faults: w.re_faults,
        ghost_hits: w.ghost_hits,
        trace_json: tracer.map(|t| t.to_chrome_json()),
        executor_polls: sim.polls(),
        pt_nodes: engine.page_table().node_count() as u64,
        replica_entries: engine.backend().replica_entries(),
    }
}

/// Report of an open-loop experiment.
#[derive(Clone, Debug)]
pub struct OpenLoopReport {
    /// Offered load, M ops/s.
    pub offered_mops: f64,
    /// Achieved completion rate, M ops/s.
    pub achieved_mops: f64,
    /// Mean request latency, ns.
    pub mean_ns: f64,
    /// p50 request latency, ns.
    pub p50_ns: u64,
    /// p99 request latency, ns.
    pub p99_ns: u64,
    /// Synchronous evictions during the run.
    pub sync_evictions: u64,
    /// Achieved read bandwidth, Gbps.
    pub read_gbps: f64,
    /// Requests that stalled waiting for a free page.
    pub free_waits: u64,
    /// Longest free-page stall, ns.
    pub free_wait_max_ns: u64,
    /// p99 of the engine-level fault latency (excluding request queueing).
    pub fault_p99_ns: u64,
    /// Requests the generator issued during the offered-load window.
    pub issued_requests: u64,
    /// Requests that completed by the end of the drain (in or out of the
    /// window; their latencies are all in the distribution).
    pub completed_requests: u64,
    /// Requests still in flight when the bounded drain gave up — the
    /// right-censored residue the latency distribution cannot see. Zero
    /// whenever the drain finishes, i.e. at any sustainable load.
    pub censored_requests: u64,
}

/// Drives the fault path open-loop at `rate_mops` for `duration_ns`,
/// touching fresh (remote) pages in sequence (Fig. 15 setup).
pub fn run_open_loop_faults(
    system: SystemConfig,
    threads: usize,
    wss_pages: u64,
    local_ratio: f64,
    rate_mops: f64,
    duration_ns: Nanos,
    seed: u64,
) -> OpenLoopReport {
    let sim = Simulation::new();
    let local_pages = ((wss_pages as f64 * local_ratio) as u64).max(1024);
    let params = MachineParams {
        topo: Topology::xeon_6348_dual(),
        app_threads: threads,
        local_pages,
        remote_pages: wss_pages + 1024,
        tlb_entries: 1_536,
        seed,
    };
    let engine = FarMemory::launch(sim.handle(), system, params);
    let vma = engine.mmap(wss_pages);
    // Normal placement: local memory starts full of resident pages so the
    // driver operates in eviction steady state from the first request
    // (the paper's Fig. 15 regime), not in a one-off fill phase.
    engine.populate(&vma);
    let first_remote = engine.accounting().resident_pages();
    let remote_span = wss_pages - first_remote;

    let latency = Rc::new(Histogram::new());
    let completed = Rc::new(Counter::new());
    let issued = Rc::new(Counter::new());
    let in_window = Rc::new(Counter::new());

    // The generator issues requests with exponential inter-arrivals,
    // spreading them round-robin over the worker cores.
    let h = sim.handle();
    let gen_engine = Rc::clone(&engine);
    let gen_latency = Rc::clone(&latency);
    let gen_completed = Rc::clone(&completed);
    let gen_issued = Rc::clone(&issued);
    let gen_in_window = Rc::clone(&in_window);
    let base = vma.start_vpn;
    sim.spawn(async move {
        let rng = SplitMix64::new(seed);
        let mean_gap_ns = 1e3 / rate_mops; // ns between arrivals
        let mut next_page = 0u64;
        let mut core = 0u32;
        while h.now().as_nanos() < duration_ns {
            let u = rng.next_f64();
            let gap = (-(1.0 - u).ln() * mean_gap_ns).max(1.0) as u64;
            h.sleep(gap).await;
            let page = base + first_remote + (next_page % remote_span);
            next_page += 1;
            let c = CoreId(core % threads as u32);
            core += 1;
            gen_issued.inc();
            let e = Rc::clone(&gen_engine);
            let lat = Rc::clone(&gen_latency);
            let comp = Rc::clone(&gen_completed);
            let win = Rc::clone(&gen_in_window);
            let h2 = h.clone();
            h.spawn(async move {
                let t0 = h2.now();
                e.access(c, page, false).await;
                lat.record(h2.now() - t0);
                comp.inc();
                if h2.now().as_nanos() <= duration_ns {
                    win.inc();
                }
            });
        }
    });

    // Drain until every issued request completes (bounded): a fixed-length
    // drain right-censors the tail — precisely the slow requests that an
    // overloaded system queues past the cutoff — which deflates p99 at the
    // loads where it matters most. The NIC byte count is sampled at the
    // window edge so bandwidth covers the offered-load window only.
    let h = sim.handle();
    let drain_completed = Rc::clone(&completed);
    let drain_issued = Rc::clone(&issued);
    let drain_engine = Rc::clone(&engine);
    let window_read_bytes = sim.block_on(async move {
        h.sleep(duration_ns).await;
        let bytes = drain_engine.nic().stats().read_bytes.get();
        let cutoff = duration_ns + 2 * SECS;
        while drain_completed.get() < drain_issued.get() && h.now().as_nanos() < cutoff {
            h.sleep(50_000).await;
        }
        bytes
    });
    engine.shutdown();

    let free_wait = engine.stats().free_wait.borrow().clone();
    OpenLoopReport {
        offered_mops: rate_mops,
        achieved_mops: in_window.get() as f64 * 1e3 / duration_ns as f64,
        mean_ns: latency.mean(),
        p50_ns: latency.p50(),
        p99_ns: latency.p99(),
        sync_evictions: engine.stats().sync_evictions.get(),
        read_gbps: window_read_bytes as f64 * 8.0 / duration_ns as f64,
        free_waits: free_wait.count(),
        free_wait_max_ns: free_wait.max(),
        fault_p99_ns: engine.stats().fault_latency.p99(),
        issued_requests: issued.get(),
        completed_requests: completed.get(),
        censored_requests: issued.get() - completed.get(),
    }
}

/// Raw RDMA reads at `rate_mops` with 4 background writer threads
/// saturating the write direction (the Fig. 15 "RDMA" baseline).
pub fn run_raw_rdma(rate_mops: f64, duration_ns: Nanos, seed: u64) -> OpenLoopReport {
    use mage_fabric::{Nic, NicConfig};
    let sim = Simulation::new();
    let nic = Rc::new(Nic::new(sim.handle(), NicConfig::bluefield2_200g()));
    let latency = Rc::new(Histogram::new());
    let completed = Rc::new(Counter::new());
    let issued = Rc::new(Counter::new());
    let in_window = Rc::new(Counter::new());

    // Background writers: keep the tx direction busy, mirroring eviction
    // traffic ("4 background threads constantly performing RDMA writes").
    for _ in 0..4 {
        let nic = Rc::clone(&nic);
        let h = sim.handle();
        sim.spawn(async move {
            while h.now().as_nanos() < duration_ns {
                let _ = nic.post_write(4096).await;
            }
        });
    }

    let h = sim.handle();
    let gen_nic = Rc::clone(&nic);
    let gen_latency = Rc::clone(&latency);
    let gen_completed = Rc::clone(&completed);
    let gen_issued = Rc::clone(&issued);
    let gen_in_window = Rc::clone(&in_window);
    sim.spawn(async move {
        let rng = SplitMix64::new(seed);
        let mean_gap_ns = 1e3 / rate_mops;
        while h.now().as_nanos() < duration_ns {
            let u = rng.next_f64();
            let gap = (-(1.0 - u).ln() * mean_gap_ns).max(1.0) as u64;
            h.sleep(gap).await;
            gen_issued.inc();
            let nic = Rc::clone(&gen_nic);
            let lat = Rc::clone(&gen_latency);
            let comp = Rc::clone(&gen_completed);
            let win = Rc::clone(&gen_in_window);
            let h2 = h.clone();
            h.spawn(async move {
                let t0 = h2.now();
                let _ = nic.post_read(4096).await;
                lat.record(h2.now() - t0);
                comp.inc();
                if h2.now().as_nanos() <= duration_ns {
                    win.inc();
                }
            });
        }
    });

    // Same uncensored-tail protocol as `run_open_loop_faults`: drain every
    // issued read (bounded), window the byte count at the load cutoff.
    let h = sim.handle();
    let drain_completed = Rc::clone(&completed);
    let drain_issued = Rc::clone(&issued);
    let drain_nic = Rc::clone(&nic);
    let window_read_bytes = sim.block_on(async move {
        h.sleep(duration_ns).await;
        let bytes = drain_nic.stats().read_bytes.get();
        let cutoff = duration_ns + 2 * SECS;
        while drain_completed.get() < drain_issued.get() && h.now().as_nanos() < cutoff {
            h.sleep(50_000).await;
        }
        bytes
    });

    OpenLoopReport {
        offered_mops: rate_mops,
        achieved_mops: in_window.get() as f64 * 1e3 / duration_ns as f64,
        mean_ns: latency.mean(),
        p50_ns: latency.p50(),
        p99_ns: latency.p99(),
        sync_evictions: 0,
        read_gbps: window_read_bytes as f64 * 8.0 / duration_ns as f64,
        free_waits: 0,
        free_wait_max_ns: 0,
        fault_p99_ns: latency.p99(),
        issued_requests: issued.get(),
        completed_requests: completed.get(),
        censored_requests: issued.get() - completed.get(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(system: SystemConfig, kind: WorkloadKind, local_ratio: f64) -> RunConfig {
        let mut cfg = RunConfig::new(system, kind, 4, 8_192, local_ratio);
        cfg.ops_per_thread = 4_000;
        cfg.topo = Topology::single_socket(10);
        cfg
    }

    #[test]
    fn all_local_run_has_no_faults() {
        let report = run_batch(&tiny(
            SystemConfig::mage_lib(),
            WorkloadKind::RandomGraph,
            1.0,
        ));
        assert_eq!(report.major_faults, 0, "all-local must not fault");
        assert!(report.total_ops == 16_000);
        assert!(report.mops() > 0.0);
    }

    #[test]
    fn offloading_causes_faults_and_slowdown() {
        let local = run_batch(&tiny(
            SystemConfig::mage_lib(),
            WorkloadKind::RandomGraph,
            1.0,
        ));
        let off = run_batch(&tiny(
            SystemConfig::mage_lib(),
            WorkloadKind::RandomGraph,
            0.5,
        ));
        assert!(off.major_faults > 1_000);
        assert!(off.runtime_ns > local.runtime_ns);
        assert!(off.read_gbps > 0.0);
    }

    #[test]
    fn mage_beats_hermit_at_high_offload() {
        // The differentiation regime is high thread count (the paper's
        // Fig. 18b shows near-parity at 4 threads).
        let run16 = |system: SystemConfig| {
            let mut cfg = RunConfig::new(system, WorkloadKind::RandomGraph, 16, 16_384, 0.4);
            cfg.ops_per_thread = 6_000;
            cfg.warmup_ops = 1_500;
            run_batch(&cfg)
        };
        let mage = run16(SystemConfig::mage_lib());
        let hermit = run16(SystemConfig::hermit());
        assert!(
            mage.mops() > hermit.mops(),
            "mage {:.3} vs hermit {:.3} Mops",
            mage.mops(),
            hermit.mops()
        );
        assert_eq!(mage.sync_evictions, 0);
    }

    #[test]
    fn timeline_sampling_records_buckets() {
        let mut cfg = tiny(SystemConfig::mage_lib(), WorkloadKind::Gups, 0.85);
        cfg.sample_interval_ns = Some(200_000);
        cfg.phase_change_at_ns = Some(1_000_000);
        let report = run_batch(&cfg);
        assert!(report.timeline.len() > 3);
        let total: u64 = report.timeline.iter().map(|&(_, o)| o).sum();
        assert_eq!(total, report.total_ops, "final partial bucket must be flushed");
    }

    #[test]
    fn deterministic_reports() {
        let a = run_batch(&tiny(SystemConfig::dilos(), WorkloadKind::XsBench, 0.7));
        let b = run_batch(&tiny(SystemConfig::dilos(), WorkloadKind::XsBench, 0.7));
        assert_eq!(a.runtime_ns, b.runtime_ns);
        assert_eq!(a.major_faults, b.major_faults);
        assert_eq!(a.fault_p99_ns, b.fault_p99_ns);
    }

    #[test]
    fn open_loop_latency_grows_with_load() {
        let lo = run_open_loop_faults(
            SystemConfig::mage_lib(),
            8,
            200_000,
            0.4,
            0.2,
            20_000_000,
            1,
        );
        let hi = run_open_loop_faults(
            SystemConfig::mage_lib(),
            8,
            200_000,
            0.4,
            4.0,
            20_000_000,
            1,
        );
        assert!(hi.p99_ns > lo.p99_ns, "hi {} lo {}", hi.p99_ns, lo.p99_ns);
        assert!(lo.achieved_mops > 0.1);
    }

    #[test]
    fn raw_rdma_saturates_near_ceiling() {
        let r = run_raw_rdma(5.0, 50_000_000, 3);
        assert!(r.achieved_mops > 4.0, "achieved {}", r.achieved_mops);
        let sat = run_raw_rdma(8.0, 50_000_000, 3);
        // Offered above the 5.86 Mops ceiling: queueing explodes p99.
        assert!(sat.p99_ns > 10 * r.p99_ns);
    }
}
