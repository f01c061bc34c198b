//! The workload runners.
//!
//! [`run_closed`] is the closed-loop batch runner: the same tasks, in the
//! same spawn order, awaited the same way as
//! [`mage_workloads::run_batch`], so its virtual digest must equal
//! `run_batch`'s report for the same [`RunConfig`] (`main` checks that).
//! [`run_open`] is the open-loop key-value service: Poisson arrivals
//! spread round-robin over per-worker FIFO queues, each request timed
//! from its due time. Both drive the machine only through public APIs
//! and put every host-time hook behind a [`Probe`].

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Instant;

use mage::{Access, FarMemory, MachineParams, SystemConfig};
use mage_mmu::{CoreId, Topology};
use mage_sim::rng::SplitMix64;
use mage_sim::sync::WaitQueue;
use mage_sim::time::{Nanos, SimTime};
use mage_sim::Simulation;
use mage_workloads::{RunConfig, RunReport, Stream, Zipf};

use crate::layers::{layer_metrics, LayerSnap};
use crate::probe::{Name, Probe};
use crate::report::{quantile, Metric};

/// Closed-loop ops per recorded request-latency sample: a client's
/// request is a batch of this many consecutive ops.
pub const OPS_PER_REQUEST: u64 = 64;

/// The schedule-determined outcome of a run. Two runs of one seed must
/// agree on every field, traced or not.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Digest {
    /// Executor polls over the whole simulation.
    pub polls: u64,
    /// Virtual length of the measured phase, ns.
    pub runtime_ns: Nanos,
    /// Ops (closed loop) or requests (open loop) completed in the window.
    pub ops: u64,
    /// Major faults in the window.
    pub faults: u64,
    /// Pages evicted in the window.
    pub evictions: u64,
    /// Engine fault-latency histogram p50 / p99 over the window, ns.
    pub fault_p50_ns: u64,
    /// See `fault_p50_ns`.
    pub fault_p99_ns: u64,
    /// Exact request-latency p50 / p99, ns (0 when `run_batch` is the
    /// reference, which does not report it).
    pub req_p50_ns: u64,
    /// See `req_p50_ns`.
    pub req_p99_ns: u64,
}

impl Digest {
    /// The fields `run_batch` reports for the same configuration.
    pub fn batch_view(&self) -> Digest {
        Digest {
            req_p50_ns: 0,
            req_p99_ns: 0,
            ..self.clone()
        }
    }

    /// The digest `run_batch` reports.
    pub fn of_report(r: &RunReport) -> Digest {
        Digest {
            polls: r.executor_polls,
            runtime_ns: r.runtime_ns,
            ops: r.total_ops,
            faults: r.major_faults,
            evictions: r.evicted_pages,
            fault_p50_ns: r.fault_p50_ns,
            fault_p99_ns: r.fault_p99_ns,
            req_p50_ns: 0,
            req_p99_ns: 0,
        }
    }
}

/// One simulation run: its set-up, its measured phase and what it did.
pub struct Outcome {
    /// Host seconds spent in launch, mmap and populate.
    pub setup_s: f64,
    /// Host seconds of the measured phase.
    pub measure_s: f64,
    /// Executor polls during the measured phase.
    pub measure_polls: u64,
    /// Ops (or requests) issued in the measured phase.
    pub issued: u64,
    /// Ops (or requests) that did not complete: aborted accesses, or
    /// requests still queued when the drain ended.
    pub failed: u64,
    /// Major-fault latencies of measured accesses, ns (exact).
    pub fault_ns: Vec<u64>,
    /// Request latencies, ns (exact): open-loop sojourn from the due
    /// time, or closed-loop time per [`OPS_PER_REQUEST`]-op batch.
    pub request_ns: Vec<u64>,
    /// Schedule digest.
    pub digest: Digest,
    /// Per-layer counters of the measured window.
    pub layers: Vec<Metric>,
}

impl Outcome {
    /// Modelled throughput: completed ops per virtual µs.
    pub fn virt_mops(&self) -> f64 {
        if self.digest.runtime_ns == 0 {
            return 0.0;
        }
        self.digest.ops as f64 * 1e3 / self.digest.runtime_ns as f64
    }
}

/// Builds the machine, timing launch, mmap and populate.
fn set_up<P: Probe>(
    sim: &Simulation,
    system: SystemConfig,
    params: MachineParams,
    pages: u64,
    all_remote: bool,
    probe: &P,
) -> (Rc<FarMemory>, mage_mmu::Vma, f64) {
    let t0 = Instant::now();
    let setup = probe.open(Name::Setup);
    let span = probe.open(Name::Launch);
    let engine = FarMemory::launch(sim.handle(), system, params);
    probe.close(span);
    let span = probe.open(Name::Mmap);
    let vma = engine.mmap(pages);
    probe.close(span);
    let span = probe.open(Name::Populate);
    if all_remote {
        engine.populate_all_remote(&vma);
    } else {
        engine.populate(&vma);
    }
    probe.close(span);
    probe.close(setup);
    (engine, vma, t0.elapsed().as_secs_f64())
}

/// Local frames `run_batch` gives a configuration (the same formula:
/// an all-local run gets headroom above the watermarks so nothing ever
/// evicts).
pub fn batch_local_pages(cfg: &RunConfig) -> u64 {
    if cfg.local_ratio >= 0.999 {
        cfg.wss_pages
            + cfg.wss_pages / 16
            + 3 * (cfg.system.evictors as u64) * (cfg.system.eviction_batch as u64)
            + 256
    } else {
        ((cfg.wss_pages as f64 * cfg.local_ratio) as u64).max(512)
    }
}

/// Stops the machine and runs its background tasks to completion, so
/// the tasks release the machine and a process that runs many
/// simulations does not keep every earlier one alive.
fn retire(sim: &Simulation, engine: &FarMemory) {
    engine.shutdown();
    sim.run();
}

/// State the app threads share with the start-line rendezvous.
struct StartLine {
    warmed: Cell<usize>,
    queue: WaitQueue,
    at_ns: Cell<Nanos>,
    host: Cell<Option<Instant>>,
    polls: Cell<u64>,
    snap: RefCell<Option<LayerSnap>>,
}

/// Runs one closed-loop batch experiment: warmup, a start line where the
/// last thread to finish warmup opens the measured window, then
/// `ops_per_thread` measured ops per thread.
pub fn run_closed<P: Probe>(cfg: &RunConfig, probe: &P) -> Outcome {
    assert!(
        cfg.phase_change_at_ns.is_none()
            && cfg.sample_interval_ns.is_none()
            && !cfg.capture_trace
            && !cfg.lazy_populate,
        "run_closed mirrors run_batch without timers, samplers, tracing or lazy population"
    );
    let sim = Rc::new(Simulation::new());
    let params = MachineParams {
        topo: cfg.topo,
        app_threads: cfg.threads,
        local_pages: batch_local_pages(cfg),
        remote_pages: cfg.wss_pages + 1024,
        tlb_entries: 1_536,
        seed: cfg.seed,
    };
    let (engine, vma, setup_s) = set_up(
        &sim,
        cfg.system.clone(),
        params,
        cfg.wss_pages,
        cfg.all_remote,
        probe,
    );

    let line = Rc::new(StartLine {
        warmed: Cell::new(0),
        queue: WaitQueue::new(),
        at_ns: Cell::new(0),
        host: Cell::new(None),
        polls: Cell::new(0),
        snap: RefCell::new(None),
    });
    let fault_ns = Rc::new(RefCell::new(Vec::new()));
    let request_ns = Rc::new(RefCell::new(Vec::new()));
    let failed = Rc::new(Cell::new(0u64));
    let measure_span = Rc::new(RefCell::new(None));

    let mut joins = Vec::new();
    for t in 0..cfg.threads {
        let engine = Rc::clone(&engine);
        let h = sim.handle();
        let weak_sim = Rc::downgrade(&sim);
        let line = Rc::clone(&line);
        let fault_ns = Rc::clone(&fault_ns);
        let request_ns = Rc::clone(&request_ns);
        let failed = Rc::clone(&failed);
        let measure_span = Rc::clone(&measure_span);
        let probe = probe.clone();
        let mut stream = Stream::new(cfg.kind, t, cfg.threads, cfg.wss_pages, cfg.seed);
        let (ops, warmup, threads) = (cfg.ops_per_thread, cfg.warmup_ops, cfg.threads);
        let phase_at_op = cfg.phase_change_at_op;
        let base = vma.start_vpn;
        joins.push(sim.spawn(async move {
            let core = CoreId(t as u32);
            for _ in 0..warmup {
                let op = probe.gen(|| stream.next_op());
                probe
                    .access(engine.access(core, base + op.page, op.write))
                    .await;
                let compute = engine.inflate_compute(op.compute_ns);
                if compute > 0 {
                    h.sleep(compute).await;
                }
            }
            line.warmed.set(line.warmed.get() + 1);
            if line.warmed.get() == threads {
                *line.snap.borrow_mut() = Some(LayerSnap::take(&engine));
                line.at_ns.set(h.now().as_nanos());
                let sim = weak_sim
                    .upgrade()
                    .expect("the simulation outlives its tasks");
                line.polls.set(sim.polls());
                *measure_span.borrow_mut() = probe.open(Name::Measure);
                line.host.set(Some(Instant::now()));
                line.queue.wake_all();
            } else {
                line.queue.wait().await;
            }
            let mut faults = Vec::new();
            let mut requests = Vec::new();
            let mut request_start = h.now();
            for i in 0..ops {
                if phase_at_op == Some(i) {
                    stream.set_phase(1);
                }
                let op = probe.gen(|| stream.next_op());
                match probe
                    .access(engine.access(core, base + op.page, op.write))
                    .await
                {
                    Access::Major { latency } => faults.push(latency),
                    Access::Failed { .. } => failed.set(failed.get() + 1),
                    Access::TlbHit | Access::Minor => {}
                }
                let compute = engine.inflate_compute(op.compute_ns);
                if compute > 0 {
                    h.sleep(compute).await;
                }
                if (i + 1) % OPS_PER_REQUEST == 0 {
                    requests.push(h.now() - request_start);
                    request_start = h.now();
                }
            }
            fault_ns.borrow_mut().extend(faults);
            request_ns.borrow_mut().extend(requests);
            h.now().as_nanos()
        }));
    }

    let ends = sim.block_on(async move {
        let mut out = Vec::new();
        for j in joins {
            out.push(j.await);
        }
        out
    });
    let host_end = Instant::now();
    probe.close(measure_span.borrow_mut().take());
    let polls = sim.polls();
    let runtime_ns = ends.iter().copied().max().unwrap_or(0) - line.at_ns.get();
    let start = line
        .snap
        .borrow_mut()
        .take()
        .expect("the start line captured a snapshot");
    let w = engine.metrics().window_since(start.engine());
    let layers = layer_metrics(&engine, &start, runtime_ns);
    retire(&sim, &engine);
    let fault_ns = fault_ns.take();
    let mut request_ns = request_ns.take();
    let issued = cfg.ops_per_thread * cfg.threads as u64;
    let host_start = line.host.get().expect("the start line was crossed");
    Outcome {
        setup_s,
        measure_s: host_end.duration_since(host_start).as_secs_f64(),
        measure_polls: polls - line.polls.get(),
        issued,
        failed: failed.get(),
        digest: Digest {
            polls,
            runtime_ns,
            ops: issued,
            faults: w.major_faults,
            evictions: w.evicted_pages + w.sync_evicted_pages,
            fault_p50_ns: w.fault_latency.p50(),
            fault_p99_ns: w.fault_latency.p99(),
            req_p50_ns: quantile(&mut request_ns, 0.50),
            req_p99_ns: quantile(&mut request_ns, 0.99),
        },
        fault_ns,
        request_ns,
        layers,
    }
}

/// An open-loop key-value service: Poisson arrivals over per-worker FIFO
/// queues, Zipf-popular keys, GET/SET mix.
#[derive(Clone, Debug)]
pub struct OpenConfig {
    /// Worker threads (one queue each).
    pub workers: usize,
    /// Store size in pages.
    pub data_pages: u64,
    /// Fraction of the store resident locally.
    pub local_ratio: f64,
    /// Key-popularity skew.
    pub zipf_theta: f64,
    /// GET fraction.
    pub get_ratio: f64,
    /// Service compute per request, ns.
    pub service_ns: Nanos,
    /// Unmeasured lead-in at the offered rate, virtual ns.
    pub warmup_ns: Nanos,
    /// Measured arrival window, virtual ns.
    pub duration_ns: Nanos,
    /// Longest wait after the window for queued requests, virtual ns.
    pub drain_ns: Nanos,
    /// Seed of the arrival, key and mix streams.
    pub seed: u64,
}

impl OpenConfig {
    fn local_pages(&self) -> u64 {
        ((self.data_pages as f64 * self.local_ratio) as u64).max(1024)
    }
}

struct Request {
    due: SimTime,
    page: u64,
    write: bool,
    measured: bool,
}

struct Queue {
    requests: RefCell<VecDeque<Request>>,
    signal: WaitQueue,
}

/// Open-loop counters shared by the generator, the workers and the drain.
#[derive(Default)]
struct Flow {
    issued: Cell<u64>,
    completed: Cell<u64>,
    measured_issued: Cell<u64>,
    measured_completed: Cell<u64>,
    stop: Cell<bool>,
}

/// Runs the service at `rate_mops` offered requests per virtual µs.
pub fn run_open<P: Probe>(cfg: &OpenConfig, rate_mops: f64, probe: &P) -> Outcome {
    let sim = Rc::new(Simulation::new());
    let params = MachineParams {
        topo: Topology::xeon_6348_dual(),
        app_threads: cfg.workers,
        local_pages: cfg.local_pages(),
        remote_pages: cfg.data_pages + 1024,
        tlb_entries: 1_536,
        seed: cfg.seed,
    };
    let (engine, vma, setup_s) = set_up(
        &sim,
        SystemConfig::mage_lib(),
        params,
        cfg.data_pages,
        false,
        probe,
    );

    let queues: Vec<Rc<Queue>> = (0..cfg.workers)
        .map(|_| {
            Rc::new(Queue {
                requests: RefCell::new(VecDeque::new()),
                signal: WaitQueue::new(),
            })
        })
        .collect();
    let flow = Rc::new(Flow::default());
    // Sized for the expected arrivals up front, so peak memory does not
    // depend on where a seed's count falls against a doubling boundary.
    let expected = (rate_mops * cfg.duration_ns as f64 / 1e3 * 1.1) as usize;
    let sojourn_ns = Rc::new(RefCell::new(Vec::with_capacity(expected)));
    let fault_ns = Rc::new(RefCell::new(Vec::with_capacity(expected)));

    for (w, queue) in queues.iter().enumerate() {
        let engine = Rc::clone(&engine);
        let queue = Rc::clone(queue);
        let flow = Rc::clone(&flow);
        let sojourn_ns = Rc::clone(&sojourn_ns);
        let fault_ns = Rc::clone(&fault_ns);
        let probe = probe.clone();
        let h = sim.handle();
        let base = vma.start_vpn;
        let service = cfg.service_ns;
        sim.spawn(async move {
            let core = CoreId(w as u32);
            loop {
                let next = queue.requests.borrow_mut().pop_front();
                let Some(req) = next else {
                    if flow.stop.get() {
                        break;
                    }
                    queue.signal.wait().await;
                    continue;
                };
                let access = probe
                    .access(engine.access(core, base + req.page, req.write))
                    .await;
                h.sleep(engine.inflate_compute(service)).await;
                flow.completed.set(flow.completed.get() + 1);
                if !req.measured {
                    continue;
                }
                // An aborted access is not completed: it counts as failed.
                match access {
                    Access::Major { latency } => fault_ns.borrow_mut().push(latency),
                    Access::Failed { .. } => continue,
                    Access::TlbHit | Access::Minor => {}
                }
                sojourn_ns
                    .borrow_mut()
                    .push(h.now().saturating_since(req.due));
                flow.measured_completed
                    .set(flow.measured_completed.get() + 1);
            }
        });
    }

    {
        let h = sim.handle();
        let queues = queues.clone();
        let flow = Rc::clone(&flow);
        let probe = probe.clone();
        let zipf = Zipf::new(cfg.data_pages, cfg.zipf_theta);
        let mean_gap_ns = 1e3 / rate_mops;
        let (warmup, end) = (cfg.warmup_ns, cfg.warmup_ns + cfg.duration_ns);
        let get_ratio = cfg.get_ratio;
        let rng = SplitMix64::new(cfg.seed);
        sim.spawn(async move {
            let mut due = 0u64;
            let mut next_worker = 0usize;
            loop {
                let (gap, page, write) = probe.gen(|| {
                    let gap = (-(1.0 - rng.next_f64()).ln() * mean_gap_ns).max(1.0) as u64;
                    (gap, zipf.sample(&rng), rng.next_f64() >= get_ratio)
                });
                due += gap;
                if due >= end {
                    break;
                }
                h.sleep_until(SimTime::from_nanos(due)).await;
                let measured = due >= warmup;
                flow.issued.set(flow.issued.get() + 1);
                if measured {
                    flow.measured_issued.set(flow.measured_issued.get() + 1);
                }
                let q = &queues[next_worker];
                next_worker = (next_worker + 1) % queues.len();
                q.requests.borrow_mut().push_back(Request {
                    due: SimTime::from_nanos(due),
                    page,
                    write,
                    measured,
                });
                q.signal.wake_one();
            }
        });
    }

    let h = sim.handle();
    let main_engine = Rc::clone(&engine);
    let main_flow = Rc::clone(&flow);
    let weak_sim = Rc::downgrade(&sim);
    let main_probe = probe.clone();
    let (warmup, end, cutoff) = (
        cfg.warmup_ns,
        cfg.warmup_ns + cfg.duration_ns,
        cfg.warmup_ns + cfg.duration_ns + cfg.drain_ns,
    );
    let (start, host_start, start_polls, measure_span, drained_at) = sim.block_on(async move {
        h.sleep_until(SimTime::from_nanos(warmup)).await;
        let start = LayerSnap::take(&main_engine);
        let polls = weak_sim
            .upgrade()
            .expect("the simulation outlives its tasks")
            .polls();
        let span = main_probe.open(Name::Measure);
        let host_start = Instant::now();
        h.sleep_until(SimTime::from_nanos(end)).await;
        while main_flow.completed.get() < main_flow.issued.get() && h.now().as_nanos() < cutoff {
            h.sleep(10_000).await;
        }
        // Stop the workers: queues that are still non-empty hold the
        // requests that failed to complete within the drain.
        main_flow.stop.set(true);
        (start, host_start, polls, span, h.now().as_nanos())
    });
    let host_end = Instant::now();
    probe.close(measure_span);
    let polls = sim.polls();
    let runtime_ns = drained_at - warmup;
    let w = engine.metrics().window_since(start.engine());
    let layers = layer_metrics(&engine, &start, runtime_ns);
    for q in &queues {
        q.requests.borrow_mut().clear();
        q.signal.wake_all();
    }
    retire(&sim, &engine);
    let mut sojourn_ns = sojourn_ns.take();
    let issued = flow.measured_issued.get();
    let completed = flow.measured_completed.get();
    Outcome {
        setup_s,
        measure_s: host_end.duration_since(host_start).as_secs_f64(),
        measure_polls: polls - start_polls,
        issued,
        failed: issued - completed,
        digest: Digest {
            polls,
            // Throughput is completions over the arrival window, so an
            // overloaded run reads below its offered rate.
            runtime_ns: cfg.duration_ns,
            ops: completed,
            faults: w.major_faults,
            evictions: w.evicted_pages + w.sync_evicted_pages,
            fault_p50_ns: w.fault_latency.p50(),
            fault_p99_ns: w.fault_latency.p99(),
            req_p50_ns: quantile(&mut sojourn_ns, 0.50),
            req_p99_ns: quantile(&mut sojourn_ns, 0.99),
        },
        fault_ns: fault_ns.take(),
        request_ns: sojourn_ns,
        layers,
    }
}
