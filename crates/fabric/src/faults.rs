//! Deterministic fault injection for the fabric.
//!
//! Real far-memory deployments must survive transport failure: completion
//! queue errors, latency spikes, congestion-driven bandwidth collapse and
//! remote-node brownouts. The seed simulation modeled a perfect network —
//! every posted operation succeeded — so none of the engine's correctness
//! invariants (reclaim only after shootdown ACK *and* durable writeback,
//! §4.1) were ever exercised under failure.
//!
//! A [`FaultPlan`] describes, per link, a reproducible failure schedule:
//!
//! - **per-op transfer errors** (`error_rate`): the operation runs its full
//!   wire time but its completion carries an error status (a CQE error);
//! - **latency spikes** (`spike_rate`/`spike_ns`): the completion is
//!   delayed by a fixed spike on top of serialization + base latency;
//! - **link brownouts**: during pseudo-randomly placed virtual-time
//!   windows the link's bandwidth collapses by `brownout_bw_div`
//!   (serialization stretches, queueing explodes);
//! - **remote-node crashes**: during crash windows every operation fails
//!   fast with [`TransferError::NodeUnreachable`] after one base latency
//!   (the detection delay) without consuming link bandwidth.
//!
//! Everything is driven by SplitMix64 streams derived from `seed`.
//! Brownout and crash windows are *pure functions of virtual time*, so
//! whether a window is open does not depend on operation order; per-op
//! error/spike draws consume a stateful per-link RNG, which the
//! deterministic executor replays identically for a given seed.

use mage_sim::rng::{self, mix64, SplitMix64};
use mage_sim::time::{Nanos, SimTime};

/// Why a posted transfer did not complete successfully.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransferError {
    /// The operation completed in error (CQE with error status): the wire
    /// time was spent but the data must not be trusted.
    Cq,
    /// The remote node did not respond (crashed or rebooting); detected
    /// after one base latency, no bandwidth consumed.
    NodeUnreachable,
    /// The initiator gave up waiting (consumer-side virtual-time timeout;
    /// the fabric itself never produces this variant).
    Timeout,
}

impl std::fmt::Display for TransferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransferError::Cq => write!(f, "completion-queue error"),
            TransferError::NodeUnreachable => write!(f, "remote node unreachable"),
            TransferError::Timeout => write!(f, "operation timed out"),
        }
    }
}

/// A reproducible failure schedule for one link.
///
/// [`FaultPlan::none`] (the default everywhere) injects nothing and is
/// bypassed entirely, keeping the fault-free schedule bit-identical to a
/// build without the injection layer.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Seed of every injection stream.
    pub seed: u64,
    /// Per-op probability of a CQE error in `[0, 1]`.
    pub error_rate: f64,
    /// Per-op probability of a latency spike in `[0, 1]`.
    pub spike_rate: f64,
    /// Extra completion latency of a spiked op, ns.
    pub spike_ns: Nanos,
    /// Brownout epoch length, ns (0 disables brownouts).
    pub brownout_period_ns: Nanos,
    /// Length of the brownout window inside an affected epoch, ns.
    pub brownout_duration_ns: Nanos,
    /// Probability that a given epoch contains a brownout window.
    pub brownout_rate: f64,
    /// Bandwidth divisor while a brownout window is open (≥ 1).
    pub brownout_bw_div: u32,
    /// Crash epoch length, ns (0 disables node crashes).
    pub crash_period_ns: Nanos,
    /// Length of the outage window inside an affected epoch, ns.
    pub crash_duration_ns: Nanos,
    /// Probability that a given epoch contains an outage.
    pub crash_rate: f64,
    /// Aligned crash windows: the outage opens at the *start* of each
    /// affected epoch (after shifting time by `crash_phase_ns`) instead of
    /// at a pseudo-random offset. Replication tests use this to build
    /// provably disjoint staggered outage schedules across nodes.
    pub crash_aligned: bool,
    /// Virtual-time shift applied before epoch/window computation when
    /// `crash_aligned` is set; staggers otherwise identical plans.
    pub crash_phase_ns: Nanos,
}

impl FaultPlan {
    /// The perfect network: nothing is injected.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            error_rate: 0.0,
            spike_rate: 0.0,
            spike_ns: 0,
            brownout_period_ns: 0,
            brownout_duration_ns: 0,
            brownout_rate: 0.0,
            brownout_bw_div: 1,
            crash_period_ns: 0,
            crash_duration_ns: 0,
            crash_rate: 0.0,
            crash_aligned: false,
            crash_phase_ns: 0,
        }
    }

    /// A mildly degraded link: sporadic CQE errors and latency spikes
    /// plus occasional short brownouts (the EXPERIMENTS.md "degraded
    /// link" variant of the throughput figures).
    pub fn degraded_link(seed: u64) -> Self {
        FaultPlan {
            seed,
            error_rate: 0.01,
            spike_rate: 0.05,
            spike_ns: 20_000,
            brownout_period_ns: 2_000_000,
            brownout_duration_ns: 300_000,
            brownout_rate: 0.3,
            brownout_bw_div: 8,
            ..FaultPlan::none()
        }
    }

    /// A staggered per-node crash plan: node `index` of `nodes` suffers a
    /// deterministic outage of `duration_ns` once per `period_ns`, phase-
    /// shifted so the windows of distinct nodes never overlap (requires
    /// `duration_ns <= period_ns / nodes`, which this constructor clamps
    /// to). Replication tests rely on the disjointness: at any instant at
    /// most one replica's home node is down.
    pub fn staggered_node_crash(
        seed: u64,
        index: usize,
        nodes: usize,
        period_ns: Nanos,
        duration_ns: Nanos,
    ) -> Self {
        let nodes = nodes.max(1) as u64;
        let slot = period_ns / nodes;
        // Window for node `index` opens at offset index*slot inside each
        // period; `crash_phase_ns` shifts time so the open instant lands
        // on the (shifted) epoch boundary.
        let start = (index as u64 % nodes) * slot;
        FaultPlan {
            seed,
            crash_period_ns: period_ns,
            crash_duration_ns: duration_ns.min(slot.max(1)),
            crash_rate: 1.0,
            crash_aligned: true,
            crash_phase_ns: (period_ns - start) % period_ns.max(1),
            ..FaultPlan::none()
        }
    }

    /// Number of distinct plan families [`FaultPlan::enumerate`] cycles
    /// through (index 0 is always the perfect network).
    pub const FAMILIES: usize = 5;

    /// Enumerates a canonical family of plans for systematic exploration
    /// (the mage-check harness sweeps `index` as one shrinkable dimension
    /// of a failing cell). Index 0 is [`FaultPlan::none`]; higher indices
    /// are increasingly adversarial: transient errors, error+spike mixes,
    /// brownouts, crash windows. Indices wrap modulo [`Self::FAMILIES`],
    /// so any `usize` is a valid cell coordinate.
    pub fn enumerate(index: usize, seed: u64) -> Self {
        match index % Self::FAMILIES {
            0 => FaultPlan::none(),
            1 => FaultPlan {
                seed,
                error_rate: 0.05,
                spike_rate: 0.1,
                spike_ns: 20_000,
                ..FaultPlan::none()
            },
            2 => FaultPlan {
                seed,
                error_rate: 0.5,
                spike_rate: 0.1,
                spike_ns: 20_000,
                ..FaultPlan::none()
            },
            3 => FaultPlan {
                seed,
                error_rate: 0.02,
                brownout_period_ns: 400_000,
                brownout_duration_ns: 120_000,
                brownout_rate: 0.5,
                brownout_bw_div: 8,
                ..FaultPlan::none()
            },
            _ => FaultPlan {
                seed,
                crash_period_ns: 500_000,
                crash_duration_ns: 60_000,
                crash_rate: 0.5,
                ..FaultPlan::none()
            },
        }
    }

    /// Whether any injection is configured at all.
    pub fn is_active(&self) -> bool {
        self.error_rate > 0.0
            || (self.spike_rate > 0.0 && self.spike_ns > 0)
            || (self.brownout_period_ns > 0
                && self.brownout_duration_ns > 0
                && self.brownout_rate > 0.0
                && self.brownout_bw_div > 1)
            || (self.crash_period_ns > 0 && self.crash_duration_ns > 0 && self.crash_rate > 0.0)
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// Injection counters of one link.
#[derive(Default)]
pub struct FaultStats {
    /// Ops whose completion carried a CQE error.
    pub injected_errors: mage_sim::stats::Counter,
    /// Ops that failed fast because the node was down.
    pub unreachable_ops: mage_sim::stats::Counter,
    /// Ops delayed by a latency spike.
    pub latency_spikes: mage_sim::stats::Counter,
    /// Ops serialized through an open brownout window.
    pub brownout_ops: mage_sim::stats::Counter,
}

/// What the injector decided for one posted operation.
#[derive(Clone, Copy, Debug)]
pub(crate) struct OpInjection {
    /// The node is down: fail fast, consume no bandwidth.
    pub node_down: bool,
    /// Completion status override.
    pub error: Option<TransferError>,
    /// Extra completion latency, ns.
    pub extra_ns: Nanos,
    /// Serialization-time multiplier (brownout), ≥ 1.
    pub ser_factor: u64,
}

impl OpInjection {
    pub(crate) const CLEAN: OpInjection = OpInjection {
        node_down: false,
        error: None,
        extra_ns: 0,
        ser_factor: 1,
    };
}

/// Distinct hash streams so the window schedules are independent.
const STREAM_BROWNOUT: u64 = 0xB10A_0000_0000_0001;
const STREAM_CRASH: u64 = 0xC1A5_0000_0000_0002;

/// Executes a [`FaultPlan`] against one link.
pub struct FaultInjector {
    plan: FaultPlan,
    rng: SplitMix64,
    stats: FaultStats,
}

impl FaultInjector {
    /// Builds the injector; `lane` decorrelates multiple links sharing a
    /// plan (e.g. read vs. write lanes of distinct NICs).
    pub fn new(plan: FaultPlan, lane: u64) -> Self {
        let rng = rng::stream(plan.seed, lane);
        FaultInjector {
            plan,
            rng,
            stats: FaultStats::default(),
        }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Injection counters.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Whether a pseudo-randomly placed window is open at `now`. Pure in
    /// (`seed`, `stream`, `now`): independent of operation order.
    fn window_active(
        &self,
        stream: u64,
        period: Nanos,
        duration: Nanos,
        rate: f64,
        now: SimTime,
    ) -> bool {
        if period == 0 || duration == 0 || rate <= 0.0 {
            return false;
        }
        let t = now.as_nanos();
        let epoch = t / period;
        let h = mix64(self.plan.seed ^ stream ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if u >= rate {
            return false;
        }
        let dur = duration.min(period);
        let span = period - dur;
        let offset = if span == 0 { 0 } else { mix64(h ^ 0x000F_F5E7) % (span + 1) };
        let start = epoch * period + offset;
        t >= start && t < start + dur
    }

    /// Whether the link is inside a brownout window at `now`.
    fn brownout_active(&self, now: SimTime) -> bool {
        self.plan.brownout_bw_div > 1
            && self.window_active(
                STREAM_BROWNOUT,
                self.plan.brownout_period_ns,
                self.plan.brownout_duration_ns,
                self.plan.brownout_rate,
                now,
            )
    }

    /// Whether an *aligned* crash window is open at `now`: the outage
    /// occupies the first `duration` ns of each affected (phase-shifted)
    /// epoch. Pure in (`seed`, `now`), like [`Self::window_active`].
    fn aligned_crash_active(&self, now: SimTime) -> bool {
        let period = self.plan.crash_period_ns;
        let duration = self.plan.crash_duration_ns;
        if period == 0 || duration == 0 || self.plan.crash_rate <= 0.0 {
            return false;
        }
        let t = now.as_nanos().wrapping_add(self.plan.crash_phase_ns);
        let epoch = t / period;
        let h = mix64(self.plan.seed ^ STREAM_CRASH ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if u >= self.plan.crash_rate {
            return false;
        }
        t % period < duration.min(period)
    }

    /// Whether the remote node is down at `now`.
    pub fn node_down(&self, now: SimTime) -> bool {
        if self.plan.crash_aligned {
            return self.aligned_crash_active(now);
        }
        self.window_active(
            STREAM_CRASH,
            self.plan.crash_period_ns,
            self.plan.crash_duration_ns,
            self.plan.crash_rate,
            now,
        )
    }

    /// Decides the fate of one operation posted at `now`.
    pub(crate) fn sample(&self, now: SimTime) -> OpInjection {
        if self.node_down(now) {
            self.stats.unreachable_ops.inc();
            return OpInjection {
                node_down: true,
                error: Some(TransferError::NodeUnreachable),
                extra_ns: 0,
                ser_factor: 1,
            };
        }
        let mut inj = OpInjection::CLEAN;
        if self.plan.error_rate > 0.0 && self.rng.next_f64() < self.plan.error_rate {
            inj.error = Some(TransferError::Cq);
            self.stats.injected_errors.inc();
        }
        if self.plan.spike_rate > 0.0
            && self.plan.spike_ns > 0
            && self.rng.next_f64() < self.plan.spike_rate
        {
            inj.extra_ns = self.plan.spike_ns;
            self.stats.latency_spikes.inc();
        }
        if self.brownout_active(now) {
            inj.ser_factor = self.plan.brownout_bw_div.max(1) as u64;
            self.stats.brownout_ops.inc();
        }
        inj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn windowed(period: Nanos, duration: Nanos, rate: f64) -> FaultPlan {
        FaultPlan {
            seed: 7,
            brownout_period_ns: period,
            brownout_duration_ns: duration,
            brownout_rate: rate,
            brownout_bw_div: 4,
            ..FaultPlan::none()
        }
    }

    #[test]
    fn none_plan_is_inactive_and_clean() {
        let plan = FaultPlan::none();
        assert!(!plan.is_active());
        let inj = FaultInjector::new(plan, 0);
        for t in [0u64, 1_000, 1_000_000, 1 << 40] {
            let s = inj.sample(SimTime::from_nanos(t));
            assert!(s.error.is_none() && s.extra_ns == 0 && s.ser_factor == 1);
        }
    }

    #[test]
    fn windows_are_pure_functions_of_time() {
        let a = FaultInjector::new(windowed(100_000, 20_000, 0.5), 0);
        let b = FaultInjector::new(windowed(100_000, 20_000, 0.5), 0);
        let probes: Vec<u64> = (0..2_000).map(|i| i * 997).collect();
        // Probe `b` in reverse order first so its internal state (none is
        // supposed to exist) cannot line up with `a`'s by accident.
        for &t in probes.iter().rev() {
            let _ = b.brownout_active(SimTime::from_nanos(t));
        }
        for &t in &probes {
            assert_eq!(
                a.brownout_active(SimTime::from_nanos(t)),
                b.brownout_active(SimTime::from_nanos(t)),
                "schedules diverge at t={t}"
            );
        }
    }

    #[test]
    fn windows_respect_rate_and_duration() {
        let inj = FaultInjector::new(windowed(100_000, 25_000, 0.5), 0);
        let mut open = 0u64;
        let total = 400_000u64;
        for t in 0..total {
            if inj.brownout_active(SimTime::from_nanos(t * 10)) {
                open += 1;
            }
        }
        // Expected open fraction ≈ rate × duration/period = 0.125.
        let frac = open as f64 / total as f64;
        assert!(
            (0.05..0.25).contains(&frac),
            "open fraction {frac} far from expectation"
        );
    }

    #[test]
    fn error_rate_draws_are_seed_reproducible() {
        let plan = FaultPlan {
            seed: 99,
            error_rate: 0.3,
            ..FaultPlan::none()
        };
        let a = FaultInjector::new(plan.clone(), 1);
        let b = FaultInjector::new(plan, 1);
        let fates_a: Vec<bool> = (0..500)
            .map(|i| a.sample(SimTime::from_nanos(i)).error.is_some())
            .collect();
        let fates_b: Vec<bool> = (0..500)
            .map(|i| b.sample(SimTime::from_nanos(i)).error.is_some())
            .collect();
        assert_eq!(fates_a, fates_b);
        let errors = fates_a.iter().filter(|&&e| e).count();
        assert!((80..220).contains(&errors), "errors {errors} far from 150");
        assert_eq!(a.stats().injected_errors.get(), errors as u64);
    }

    #[test]
    fn crash_windows_fail_fast() {
        let plan = FaultPlan {
            seed: 3,
            crash_period_ns: 50_000,
            crash_duration_ns: 50_000,
            crash_rate: 1.0,
            ..FaultPlan::none()
        };
        let inj = FaultInjector::new(plan, 0);
        let s = inj.sample(SimTime::from_nanos(10));
        assert!(s.node_down);
        assert_eq!(s.error, Some(TransferError::NodeUnreachable));
        assert_eq!(inj.stats().unreachable_ops.get(), 1);
    }

    #[test]
    fn staggered_node_crashes_are_disjoint_and_periodic() {
        let nodes = 3;
        let injs: Vec<_> = (0..nodes)
            .map(|i| {
                FaultInjector::new(
                    FaultPlan::staggered_node_crash(9, i, nodes, 300_000, 40_000),
                    0,
                )
            })
            .collect();
        let mut down_counts = vec![0u64; nodes];
        for t in (0..3_000_000u64).step_by(500) {
            let now = SimTime::from_nanos(t);
            let down: Vec<bool> = injs.iter().map(|i| i.node_down(now)).collect();
            assert!(
                down.iter().filter(|&&d| d).count() <= 1,
                "overlapping outages at t={t}: {down:?}"
            );
            for (i, d) in down.iter().enumerate() {
                if *d {
                    down_counts[i] += 1;
                }
            }
        }
        for (i, c) in down_counts.iter().enumerate() {
            assert!(*c > 0, "node {i} never crashed");
        }
    }

    #[test]
    fn enumerate_is_a_total_wrapping_family() {
        assert!(!FaultPlan::enumerate(0, 9).is_active(), "index 0 is clean");
        for i in 1..FaultPlan::FAMILIES {
            assert!(FaultPlan::enumerate(i, 9).is_active(), "family {i} inert");
        }
        // Wrapping: any usize is a valid coordinate.
        let a = FaultPlan::enumerate(1, 9);
        let b = FaultPlan::enumerate(1 + FaultPlan::FAMILIES, 9);
        assert_eq!(a.error_rate.to_bits(), b.error_rate.to_bits());
        assert_eq!(a.seed, b.seed);
        // The seed flows into every family.
        assert_eq!(FaultPlan::enumerate(3, 77).seed, 77);
    }
}
