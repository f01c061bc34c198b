//! Shape tests for the paper's headline claims, at reduced scale.
//!
//! These assert the *qualitative* results of the evaluation — who wins,
//! in which regime, and in which direction each technique moves the
//! numbers — so a regression in any mechanism (pipelining, partitioning,
//! allocator layering, sync-eviction avoidance) fails loudly.

use mage_far_memory::palloc::LocalAllocatorKind;
use mage_far_memory::prelude::*;

fn batch(system: SystemConfig, kind: WorkloadKind, threads: usize, local: f64) -> RunReport {
    let mut cfg = RunConfig::new(system, kind, threads, 32_768, local);
    cfg.ops_per_thread = 4_000;
    run_batch(&cfg)
}

/// §6.2 / Fig. 9: at 48 threads and substantial offload, MAGE variants
/// beat both baselines on random-access workloads.
#[test]
fn mage_wins_throughput_at_scale() {
    let mage = batch(SystemConfig::mage_lib(), WorkloadKind::RandomGraph, 48, 0.5);
    let lnx = batch(SystemConfig::mage_lnx(), WorkloadKind::RandomGraph, 48, 0.5);
    let dilos = batch(SystemConfig::dilos(), WorkloadKind::RandomGraph, 48, 0.5);
    let hermit = batch(SystemConfig::hermit(), WorkloadKind::RandomGraph, 48, 0.5);
    assert!(
        mage.mops() > 1.2 * dilos.mops(),
        "MageLib {:.2} vs DiLOS {:.2}",
        mage.mops(),
        dilos.mops()
    );
    assert!(
        mage.mops() > 1.2 * hermit.mops(),
        "MageLib {:.2} vs Hermit {:.2}",
        mage.mops(),
        hermit.mops()
    );
    assert!(
        lnx.mops() > dilos.mops(),
        "MageLnx {:.2} vs DiLOS {:.2}",
        lnx.mops(),
        dilos.mops()
    );
}

/// Fig. 18b: at 4 threads the systems converge — no MAGE regression, and
/// no large MAGE advantage either (demand is below everyone's capacity).
#[test]
fn low_thread_count_is_a_wash() {
    let mage = batch(SystemConfig::mage_lib(), WorkloadKind::RandomGraph, 4, 0.7);
    let dilos = batch(SystemConfig::dilos(), WorkloadKind::RandomGraph, 4, 0.7);
    let ratio = mage.mops() / dilos.mops();
    assert!(
        (0.85..1.6).contains(&ratio),
        "4-thread ratio {ratio:.2} out of the expected near-parity band"
    );
}

/// §3.2 / Fig. 5: the eviction path, not the fault path, is what
/// collapses the baselines: enabling eviction costs them throughput.
#[test]
fn eviction_is_the_bottleneck_for_baselines() {
    let fault_only = {
        let mut cfg = RunConfig::new(
            SystemConfig::hermit(),
            WorkloadKind::SeqFault,
            24,
            60_000,
            1.0,
        );
        cfg.all_remote = true;
        cfg.ops_per_thread = 2_500;
        run_batch(&cfg)
    };
    let with_evict = {
        let mut cfg = RunConfig::new(
            SystemConfig::hermit(),
            WorkloadKind::SeqFault,
            24,
            60_000,
            0.5,
        );
        cfg.all_remote = true;
        cfg.ops_per_thread = 2_500;
        run_batch(&cfg)
    };
    assert!(
        with_evict.fault_mops() < 0.85 * fault_only.fault_mops(),
        "eviction cost invisible: {:.2} vs {:.2}",
        with_evict.fault_mops(),
        fault_only.fault_mops()
    );
}

/// §3.3.1 / Fig. 7: shootdown latency grows with thread count, with a
/// cross-socket penalty once threads span sockets.
#[test]
fn shootdown_latency_grows_with_threads() {
    let mut shots = Vec::new();
    for threads in [4usize, 48] {
        let mut cfg = RunConfig::new(
            SystemConfig::dilos(),
            WorkloadKind::SeqFault,
            threads,
            60_000,
            0.5,
        );
        cfg.all_remote = true;
        cfg.ops_per_thread = (60_000 / threads) as u64;
        let r = run_batch(&cfg);
        shots.push(r.shootdown_mean_ns);
    }
    assert!(
        shots[1] > 2.0 * shots[0],
        "48T shootdown {:.0}ns not >> 4T {:.0}ns",
        shots[1],
        shots[0]
    );
}

/// Fig. 10: prefetching helps MAGE (fast EP absorbs the extra pressure)
/// but does not help Hermit.
#[test]
fn prefetch_only_pays_off_on_mage() {
    let mage_off = {
        let mut s = SystemConfig::mage_lib();
        s.prefetch = PrefetchPolicy::None;
        batch(s, WorkloadKind::SeqScan, 48, 0.9)
    };
    let mage_on = batch(
        SystemConfig::mage_lib().with_prefetch(),
        WorkloadKind::SeqScan,
        48,
        0.9,
    );
    assert!(
        mage_on.mops() > mage_off.mops(),
        "prefetch must help MAGE: {:.2} vs {:.2}",
        mage_on.mops(),
        mage_off.mops()
    );
    assert!(mage_on.prefetches > 0);

    let hermit_off = {
        let mut s = SystemConfig::hermit();
        s.prefetch = PrefetchPolicy::None;
        batch(s, WorkloadKind::SeqScan, 48, 0.9)
    };
    let hermit_on = batch(SystemConfig::hermit(), WorkloadKind::SeqScan, 48, 0.9);
    assert!(
        hermit_on.mops() < 1.15 * hermit_off.mops(),
        "prefetch must not substantially help Hermit: {:.2} vs {:.2}",
        hermit_on.mops(),
        hermit_off.mops()
    );
}

/// §6.3 / Fig. 13: MAGE's tail latency beats the baselines under memory
/// pressure because requests never block behind synchronous eviction.
#[test]
fn memcached_tail_ordering() {
    let p99 = |system: SystemConfig| {
        let mut cfg = MemcachedConfig::paper(system, 40_000);
        cfg.workers = 12;
        cfg.local_ratio = 0.4;
        cfg.load_mops = 0.6;
        cfg.duration_ns = 25_000_000;
        run_memcached(&cfg).p99_ns
    };
    let mage = p99(SystemConfig::mage_lib());
    let hermit = p99(SystemConfig::hermit());
    assert!(mage < hermit, "MAGE p99 {mage} not below Hermit {hermit}");
}

/// Fig. 17: each MAGE technique moves throughput in the right direction
/// at 48 threads under pressure.
#[test]
fn ablation_steps_improve_monotonically_enough() {
    let baseline = batch(SystemConfig::dilos(), WorkloadKind::RandomGraph, 48, 0.6);

    let mut pipelined_cfg = SystemConfig::dilos();
    pipelined_cfg.sync_eviction = false;
    pipelined_cfg.pipelined_eviction = true;
    pipelined_cfg.eviction_batch = 256;
    let pipelined = batch(pipelined_cfg.clone(), WorkloadKind::RandomGraph, 48, 0.6);

    let mut partitioned_cfg = pipelined_cfg.clone();
    partitioned_cfg.accounting_partitions = 8;
    let partitioned = batch(partitioned_cfg.clone(), WorkloadKind::RandomGraph, 48, 0.6);

    let mut full_cfg = partitioned_cfg;
    full_cfg.local_alloc = LocalAllocatorKind::MultiLayer;
    let full = batch(full_cfg, WorkloadKind::RandomGraph, 48, 0.6);

    assert!(
        full.mops() > baseline.mops(),
        "all techniques combined must beat the baseline: {:.2} vs {:.2}",
        full.mops(),
        baseline.mops()
    );
    assert!(
        full.mops() >= partitioned.mops() * 0.95,
        "multilayer step must not regress: {:.2} vs {:.2}",
        full.mops(),
        partitioned.mops()
    );
    assert!(
        partitioned.mops() > pipelined.mops(),
        "LRU partitioning must help under contention: {:.2} vs {:.2}",
        partitioned.mops(),
        pipelined.mops()
    );
}

/// Fig. 18a: with pipelining, larger batches help up to a point; the
/// sequential evictor prefers small batches.
#[test]
fn batch_size_sweet_spots() {
    let run_with = |pipelined: bool, batch_size: usize| {
        let mut s = SystemConfig::mage_lib().with_eviction_batch(batch_size);
        s.pipelined_eviction = pipelined;
        let mut cfg = RunConfig::new(s, WorkloadKind::RandomGraph, 32, 32_768, 0.5);
        cfg.ops_per_thread = 3_000;
        cfg.warmup_ops = 1_000;
        run_batch(&cfg).mops()
    };
    let p256 = run_with(true, 256);
    let p32 = run_with(true, 32);
    assert!(
        p256 > p32,
        "pipelined 256 {p256:.2} must beat pipelined 32 {p32:.2}"
    );
}

/// Table 2: with 100% local memory the bare-metal baseline (Hermit) is
/// fastest — virtualization costs the MAGE variants a few percent.
#[test]
fn all_local_virtualization_cost() {
    let hermit = batch(SystemConfig::hermit(), WorkloadKind::XsBench, 16, 1.0);
    let mage = batch(SystemConfig::mage_lib(), WorkloadKind::XsBench, 16, 1.0);
    assert_eq!(hermit.major_faults, 0);
    assert_eq!(mage.major_faults, 0);
    assert!(
        hermit.mops() > mage.mops(),
        "bare metal must win all-local: hermit {:.2} vs mage {:.2}",
        hermit.mops(),
        mage.mops()
    );
    let penalty = 1.0 - mage.mops() / hermit.mops();
    assert!(
        penalty < 0.15,
        "virtualization penalty {penalty:.2} too large"
    );
}
