//! The repository benchmark: three far-memory workloads on the modelled
//! dual-socket Xeon running MAGE-Lib, each reporting host end-to-end
//! metrics (set-up time, simulated ops per host second, peak memory),
//! modelled-machine end-to-end metrics (virtual throughput, fault and
//! request latency, SLO capacity) and, in a traced run, a per-layer
//! ledger. See `README.md` beside this crate for the workloads, seeds
//! and the layer-to-end-to-end predictions.

pub mod drive;
pub mod layers;
pub mod primitives;
pub mod probe;
pub mod report;

use std::rc::Rc;
use std::time::{Duration, Instant};

use mage::SystemConfig;
use mage_mmu::Topology;
use mage_sim::rng::mix64;
use mage_workloads::{run_batch, RunConfig, WorkloadKind};

use drive::{run_closed, run_open, Digest, OpenConfig, Outcome};
use probe::{Name, Off, Probe, Recorder, Totals};
use report::{median, quantile, ratio, Metric};

/// The request-latency SLO, ns (the paper's 200 µs p99).
pub const SLO_P99_NS: u64 = 200_000;

/// The nominal offered rate of `memcached_slo`, M requests/s.
pub const NOMINAL_MOPS: f64 = 6.0;

/// The nominal run warms up and measures this many times longer than a
/// ladder rung, so its p99 covers many eviction cycles and is steady
/// across seeds.
pub const NOMINAL_LENGTH: u64 = 12;

/// Simulations each run repeats at least, so a run can compare two
/// same-seed digests and report a median.
pub const MIN_REPS: usize = 3;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// §3.2/Fig-5 fault storm: every access a major fault, no eviction.
    FaultStorm,
    /// Fig-11 GUPS: Zipf updates with eviction in steady state.
    GupsEvict,
    /// §6.3/Fig-13 open-loop key-value service against a p99 SLO.
    MemcachedSlo,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::FaultStorm,
        Workload::GupsEvict,
        Workload::MemcachedSlo,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FaultStorm => "fault_storm",
            Workload::GupsEvict => "gups_evict",
            Workload::MemcachedSlo => "memcached_slo",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The closed-loop configuration, or `None` for the open-loop service.
    pub fn closed_config(self, seed: u64, quick: bool) -> Option<RunConfig> {
        let mut cfg = match self {
            Workload::FaultStorm => {
                // Each thread reads its own region once, so every access
                // faults. The seed picks the region size.
                let threads = if quick { 8 } else { 24 };
                let base = if quick { 512 } else { 6_144 };
                let per_thread = base + mix64(seed) % (base / 8);
                let wss = per_thread * threads as u64;
                let mut cfg = RunConfig::new(
                    SystemConfig::mage_lib(),
                    WorkloadKind::SeqFault,
                    threads,
                    wss,
                    1.0,
                );
                cfg.all_remote = true;
                cfg.ops_per_thread = per_thread;
                cfg
            }
            Workload::GupsEvict => {
                let (threads, wss, ops, warmup) = if quick {
                    (8, 8_192, 2_000, 1_000)
                } else {
                    (48, 65_536, 32_000, 4_000)
                };
                let mut cfg = RunConfig::new(
                    SystemConfig::mage_lib(),
                    WorkloadKind::Gups,
                    threads,
                    wss,
                    0.5,
                );
                cfg.ops_per_thread = ops;
                cfg.warmup_ops = warmup;
                cfg.phase_change_at_op = Some(ops / 2);
                cfg
            }
            Workload::MemcachedSlo => return None,
        };
        cfg.seed = seed;
        cfg.topo = Topology::xeon_6348_dual();
        Some(cfg)
    }

    /// The open-loop service configuration.
    pub fn open_config(seed: u64, quick: bool) -> OpenConfig {
        OpenConfig {
            workers: 24,
            data_pages: if quick { 20_000 } else { 100_000 },
            local_ratio: 0.2,
            zipf_theta: 0.99,
            get_ratio: 0.998,
            service_ns: 1_500,
            warmup_ns: if quick { 200_000 } else { 1_000_000 },
            duration_ns: if quick { 1_000_000 } else { 10_000_000 },
            drain_ns: 2_000_000,
            seed,
        }
    }

    /// Offered rates of the SLO ladder, M requests/s: 2 Mops to past the
    /// knee in 0.5 Mops steps.
    pub fn ladder(quick: bool) -> Vec<f64> {
        if quick {
            vec![2.0, 4.0, NOMINAL_MOPS]
        } else {
            (4..=18).map(|i| i as f64 * 0.5).collect()
        }
    }

    /// Table sizes for the isolated primitive measurements.
    pub fn sizes(self, seed: u64, quick: bool) -> primitives::Sizes {
        let ops = if quick { 20_000 } else { 200_000 };
        match self.closed_config(seed, quick) {
            Some(cfg) => primitives::Sizes {
                pages: cfg.wss_pages,
                frames: drive::batch_local_pages(&cfg),
                ops,
            },
            None => {
                let cfg = Self::open_config(seed, quick);
                primitives::Sizes {
                    pages: cfg.data_pages,
                    frames: ((cfg.data_pages as f64 * cfg.local_ratio) as u64).max(1024),
                    ops,
                }
            }
        }
    }
}

/// One repetition of a workload: a closed-loop run, or the whole ladder.
pub struct Rep {
    /// Host set-up seconds of each simulation in the repetition.
    pub setups: Vec<f64>,
    /// Host seconds in measured phases.
    pub measure_s: f64,
    /// Ops (requests) issued in measured phases.
    pub ops: u64,
    /// Executor polls in measured phases.
    pub polls: u64,
    /// One digest per simulation.
    pub digests: Vec<Digest>,
    /// Ops counted for correctness (closed loop: all; open loop: the
    /// nominal run and the ladder rates up to the nominal rate).
    pub attempted: u64,
    /// Failed among `attempted`.
    pub failed: u64,
    /// Modelled-machine metrics (see [`virt_metrics`]).
    pub virt: Vec<Metric>,
    /// Per-layer counters of the reference simulation (the closed-loop
    /// run, or the nominal open-loop run).
    pub layers: Vec<Metric>,
    /// `(offered rate, p99 sojourn ns, failed)` per ladder rate.
    pub ladder: Vec<(f64, u64, u64)>,
}

impl Rep {
    /// Adds one open-loop simulation's host time, work and digest.
    fn add_open(&mut self, o: &Outcome) {
        self.setups.push(o.setup_s);
        self.measure_s += o.measure_s;
        self.ops += o.issued;
        self.polls += o.measure_polls;
        self.digests.push(o.digest.clone());
    }

    /// Simulated ops per host second in the measured phases.
    pub fn host_ops_per_s(&self) -> f64 {
        ratio(self.ops as f64, self.measure_s)
    }

    /// The per-layer counter named `name`.
    pub fn layer(&self, name: &str) -> f64 {
        self.layers
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
            .unwrap_or_else(|| panic!("no metric {name}"))
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn mean_us(ns: &[u64]) -> f64 {
    ratio(ns.iter().sum::<u64>() as f64, ns.len() as f64) / 1e3
}

/// Modelled-machine metrics of one simulation. The first four are
/// end-to-end metrics; the medians and the fault tail go with the
/// per-layer ledger, because on `fault_storm` the model's lockstep
/// schedule makes them the same constant for every seed.
fn virt_metrics(o: &Outcome, slo_mops: f64) -> Vec<Metric> {
    let mut faults = o.fault_ns.clone();
    let mut requests = o.request_ns.clone();
    vec![
        Metric::new("virt_mops", o.virt_mops(), "Mops"),
        Metric::new("virt_fault_mean_us", mean_us(&faults), "us"),
        Metric::new("virt_p99_us", us(quantile(&mut requests, 0.99)), "us"),
        Metric::new("virt_slo_mops", slo_mops, "Mops"),
        Metric::new("virt_fault_p50_us", us(quantile(&mut faults, 0.50)), "us"),
        Metric::new("virt_fault_p99_us", us(quantile(&mut faults, 0.99)), "us"),
        Metric::new("virt_p50_us", us(quantile(&mut requests, 0.50)), "us"),
    ]
}

/// How many leading entries of [`virt_metrics`] are end-to-end metrics.
const E2E_VIRT: usize = 4;

/// Runs one repetition of `w` under `probe`.
pub fn run_rep<P: Probe>(w: Workload, seed: u64, quick: bool, probe: &P) -> Rep {
    if let Some(cfg) = w.closed_config(seed, quick) {
        let o = run_closed(&cfg, probe);
        // A closed loop has no offered-load ladder: its clients wait for
        // replies, so the rate it sustains is the rate it achieves.
        let virt = virt_metrics(&o, o.virt_mops());
        return Rep {
            setups: vec![o.setup_s],
            measure_s: o.measure_s,
            ops: o.issued,
            polls: o.measure_polls,
            digests: vec![o.digest.clone()],
            attempted: o.issued,
            failed: o.failed,
            virt,
            layers: o.layers,
            ladder: Vec::new(),
        };
    }
    let cfg = Workload::open_config(seed, quick);
    let mut rep = Rep {
        setups: Vec::new(),
        measure_s: 0.0,
        ops: 0,
        polls: 0,
        digests: Vec::new(),
        attempted: 0,
        failed: 0,
        virt: Vec::new(),
        layers: Vec::new(),
        ladder: Vec::new(),
    };
    for rate in Workload::ladder(quick) {
        let o = run_open(&cfg, rate, probe);
        rep.add_open(&o);
        rep.ladder.push((rate, o.digest.req_p99_ns, o.failed));
        if rate <= NOMINAL_MOPS {
            rep.attempted += o.issued;
            rep.failed += o.failed;
        }
    }
    // The nominal run: the same service at the nominal rate, warmed up
    // and measured for longer than a rung so that its p99 and counters
    // span many eviction cycles.
    let nominal_cfg = OpenConfig {
        warmup_ns: cfg.warmup_ns * NOMINAL_LENGTH,
        duration_ns: cfg.duration_ns * NOMINAL_LENGTH,
        ..cfg
    };
    let nominal = run_open(&nominal_cfg, NOMINAL_MOPS, probe);
    rep.add_open(&nominal);
    rep.attempted += nominal.issued;
    rep.failed += nominal.failed;
    // The highest rate up to which every rung meets the SLO with no
    // failed request.
    let slo_mops = rep
        .ladder
        .iter()
        .take_while(|&&(_, p99, failed)| p99 <= SLO_P99_NS && failed == 0)
        .last()
        .map_or(0.0, |&(rate, _, _)| rate);
    rep.virt = virt_metrics(&nominal, slo_mops);
    rep.layers = nominal.layers;
    rep
}

/// Arguments of one benchmark run.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measuring time; repetitions continue until it is spent.
    pub seconds: f64,
    /// Traced run: report the per-layer ledger instead of end-to-end
    /// metrics.
    pub trace: bool,
    /// Scaled-down sizes (the crate's tests).
    pub quick: bool,
}

/// What a run reports.
pub struct Outcomes {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The reported metrics (end-to-end, or per-layer when traced).
    pub metrics: Vec<Metric>,
    /// Failed output checks, one line each.
    pub errors: Vec<String>,
    /// The trace recorder of a traced run.
    pub recorder: Option<Rc<Recorder>>,
    /// `(offered rate, p99 sojourn ns, failed)` per ladder rate (open
    /// loop only).
    pub ladder: Vec<(f64, u64, u64)>,
}

/// Peak resident set of this process, MiB (0 where `/proc` is absent).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host-time split of one traced repetition, ns per measured op.
fn host_split(rep: &Rep, spans: &Totals) -> [f64; 3] {
    let ops = rep.ops.max(1) as f64;
    let access = spans.ns(Name::Access) as f64;
    let gen = spans.ns(Name::Gen) as f64;
    let other = (rep.measure_s * 1e9 - access - gen).max(0.0);
    [access / ops, gen / ops, other / ops]
}

/// Output checks over the untraced and traced repetitions.
fn check(args: &Args, plain: &[Rep], traced: &[Rep]) -> Vec<String> {
    let mut errors = Vec::new();
    let first = &plain[0];
    for (i, rep) in plain.iter().enumerate().skip(1) {
        if rep.digests != first.digests {
            errors.push(format!(
                "repetition {i} digest differs from repetition 0 of the same seed"
            ));
        }
    }
    for (i, rep) in traced.iter().enumerate() {
        if rep.digests != first.digests {
            errors.push(format!(
                "traced repetition {i} digest differs from the untraced run"
            ));
        }
    }
    for rep in plain.iter().chain(traced) {
        if rep.failed != 0 {
            errors.push(format!(
                "{} of {} operations failed",
                rep.failed, rep.attempted
            ));
        }
    }
    match args.workload {
        Workload::FaultStorm => {
            let d = &first.digests[0];
            if d.faults != d.ops {
                errors.push(format!("{} faults for {} accesses", d.faults, d.ops));
            }
            if d.evictions != 0 {
                errors.push(format!("{} evictions, expected none", d.evictions));
            }
        }
        Workload::GupsEvict => {
            for name in ["reclaim.writebacks", "mmu.shootdowns"] {
                if first.layer(name) == 0.0 {
                    errors.push(format!("{name} is 0: eviction is not in steady state"));
                }
            }
        }
        Workload::MemcachedSlo => {
            if first.layer("reclaim.evicted_pages") == 0.0 {
                errors.push("no evictions at the nominal rate".to_string());
            }
        }
    }
    if let Some(cfg) = args.workload.closed_config(args.seed, args.quick) {
        let reference = Digest::of_report(&run_batch(&cfg));
        let ours = first.digests[0].batch_view();
        if reference != ours {
            errors.push(format!(
                "digest differs from run_batch for the same config: ours {ours:?}, run_batch {reference:?}"
            ));
        }
    }
    errors
}

/// Runs the benchmark: repetitions until `args.seconds` are spent, the
/// output checks, and the metrics.
pub fn run(args: &Args) -> Outcomes {
    let recorder = args
        .trace
        .then(|| Recorder::new(mix64(args.seed ^ mix64(args.workload as u64 + 1))));
    let run_span = recorder.as_ref().map(|r| r.open(Name::Run));
    let budget = Duration::from_secs_f64(args.seconds);
    let t0 = Instant::now();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut splits = Vec::new();
    while plain.len() < MIN_REPS || t0.elapsed() < budget {
        let rep = run_rep(args.workload, args.seed, args.quick, &Off);
        eprintln!(
            "repetition {}: {:.0} ops/s, set-up {:.4} s",
            plain.len(),
            rep.host_ops_per_s(),
            median(&rep.setups)
        );
        plain.push(rep);
        if let Some(rec) = &recorder {
            let before = rec.totals();
            let rep = run_rep(args.workload, args.seed, args.quick, rec);
            splits.push(host_split(&rep, &rec.totals().since(&before)));
            traced.push(rep);
        }
    }
    if let (Some(rec), Some(span)) = (&recorder, run_span) {
        rec.close(span);
    }
    let errors = check(args, &plain, &traced);
    let first = &plain[0];
    let attempted = first.attempted;
    let failed = plain
        .iter()
        .chain(&traced)
        .map(|r| r.failed)
        .max()
        .unwrap_or(0);
    let host_ops: Vec<f64> = plain.iter().map(Rep::host_ops_per_s).collect();

    let metrics = if args.trace {
        let traced_ops: Vec<f64> = traced.iter().map(Rep::host_ops_per_s).collect();
        let col = |i: usize| median(&splits.iter().map(|s: &[f64; 3]| s[i]).collect::<Vec<_>>());
        let mut m = vec![
            Metric::new(
                "trace_overhead",
                median(&host_ops) / median(&traced_ops),
                "ratio",
            ),
            Metric::new(
                "failed_frac",
                ratio(failed as f64, attempted as f64),
                "ratio",
            ),
            Metric::new(
                "sim.polls_per_op",
                ratio(first.polls as f64, first.ops as f64),
                "count",
            ),
            Metric::new("sim.other_ns_per_op", col(2), "ns"),
            Metric::new("workloads.gen_ns_per_op", col(1), "ns"),
            Metric::new("core.access_ns_per_op", col(0), "ns"),
        ];
        m.extend(first.virt[E2E_VIRT..].iter().cloned());
        m.extend(first.layers.iter().cloned());
        m.extend(primitives::measure(
            args.workload.sizes(args.seed, args.quick),
            args.seed,
        ));
        m
    } else {
        let setups: Vec<f64> = plain
            .iter()
            .flat_map(|r| r.setups.iter().copied())
            .collect();
        let mut m = vec![
            Metric::new("setup_s", median(&setups), "s"),
            Metric::new("host_ops_per_s", median(&host_ops), "1/s"),
            Metric::new("peak_rss_mib", peak_rss_mib(), "MiB"),
        ];
        m.extend(first.virt[..E2E_VIRT].iter().cloned());
        m
    };
    Outcomes {
        correct: errors.is_empty(),
        attempted,
        failed,
        metrics,
        errors,
        recorder,
        ladder: first.ladder.clone(),
    }
}
