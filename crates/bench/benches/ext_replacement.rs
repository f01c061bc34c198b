//! Extension experiment (beyond the paper's figures): replacement-policy
//! accuracy vs. contention across the full policy zoo.
//!
//! §4.2.2 argues that newer algorithms like S3-FIFO "require fine-grained
//! access frequency tracking that is incompatible with existing OS page
//! table mechanisms". This bench makes that argument measurable: with
//! only the one-bit accessed signal available to an OS, S3-FIFO's
//! accuracy advantage largely evaporates, while the partitioned designs
//! keep their contention advantage.
//!
//! Each row is one (accounting partitions, eviction policy) pair; the
//! policy also picks the queue discipline. Columns: application
//! throughput, major faults (lower = more accurate replacement), and
//! evictions cancelled by a re-fault of the page in flight.

use mage::{EvictionPolicyKind, SystemConfig};
use mage_bench::{f2, scale, Experiment};
use mage_workloads::runner::{run_batch, RunConfig};
use mage_workloads::WorkloadKind;

fn main() {
    // (row, accounting partitions, eviction policy)
    let policies: [(&str, usize, EvictionPolicyKind); 5] = [
        ("GlobalLru", 1, EvictionPolicyKind::SecondChance),
        ("PartLru", 8, EvictionPolicyKind::SecondChance),
        ("Fifo", 8, EvictionPolicyKind::Fifo),
        ("Clock", 8, EvictionPolicyKind::Clock),
        ("S3Fifo", 8, EvictionPolicyKind::S3Fifo),
    ];
    let mut exp = Experiment::new(
        "ext_replacement",
        "Replacement policies on MAGE-Lib: GapBS 48T, 40% offloaded",
        &["policy", "mops", "major_faults", "evict_cancels"],
    );
    for (name, partitions, policy) in policies {
        let mut system = SystemConfig::mage_lib().with_eviction_policy(policy);
        system.accounting_partitions = partitions;
        let mut cfg = RunConfig::new(
            system,
            WorkloadKind::RandomGraph,
            scale::THREADS,
            scale::APP_WSS,
            0.6,
        );
        cfg.ops_per_thread = scale::APP_OPS;
        cfg.warmup_ops = scale::APP_OPS / 2;
        let r = run_batch(&cfg);
        exp.row(vec![
            name.to_string(),
            f2(r.mops()),
            r.major_faults.to_string(),
            r.evict_cancels.to_string(),
        ]);
    }
    exp.finish();
    println!("Expected shape: the one-bit accessed signal compresses the accuracy");
    println!("differences between Clock/S3-FIFO/partitioned-LRU (the paper's");
    println!("incompatibility argument); GlobalLru pays for its accuracy with");
    println!("lock contention at 48 threads.");
}
