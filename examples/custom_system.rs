//! Build-your-own far-memory system: toggling MAGE's design principles.
//!
//! Starts from the DiLOS-like baseline and applies the paper's three
//! techniques one at a time (the Fig. 17 ablation), printing how each
//! changes throughput on a random-access workload.
//!
//! ```sh
//! cargo run --release --example custom_system
//! ```

use mage_far_memory::palloc::LocalAllocatorKind;
use mage_far_memory::prelude::*;

fn main() {
    let threads = 16;
    let wss: u64 = 65_536;

    // Baseline: DiLOS-style — global LRU, global buddy lock, sequential
    // eviction with synchronous fallback.
    let baseline = SystemConfig::dilos();

    // + P1/P2: always-asynchronous, cross-batch pipelined eviction.
    let mut pipelined = baseline.clone();
    pipelined.name = "+Pipelined";
    pipelined.sync_eviction = false;
    pipelined.pipelined_eviction = true;
    pipelined.eviction_batch = 256;

    // + P3a: partitioned LRU lists.
    let mut partitioned = pipelined.clone();
    partitioned.name = "+LRU-part";
    partitioned.accounting_partitions = 8;

    // + P3b: multi-layer allocator => this is MAGE-Lib.
    let mut multilayer = partitioned.clone();
    multilayer.name = "+MultiLayer";
    multilayer.local_alloc = LocalAllocatorKind::MultiLayer;

    println!("Technique ablation, random access, {threads} threads, 30% offloaded\n");
    println!(
        "{:<14} {:>10} {:>12} {:>14} {:>10}",
        "system", "M ops/s", "p99 fault", "sync evicts", "re-faults"
    );
    for system in [baseline, pipelined, partitioned, multilayer] {
        let name = system.name;
        let mut cfg = RunConfig::new(system, WorkloadKind::RandomGraph, threads, wss, 0.7);
        cfg.ops_per_thread = 6_000;
        let r = run_batch(&cfg);
        println!(
            "{:<14} {:>10.2} {:>9.1} us {:>14} {:>10}",
            name,
            r.mops(),
            r.fault_p99_ns as f64 / 1_000.0,
            r.sync_evictions,
            r.re_faults
        );
    }
    println!("\nEach row adds one technique, as in the paper's Fig. 17. In this");
    println!("model the multi-layer allocator is the jump: with pipelining and");
    println!("the partitioned lists alone, throughput stays below the baseline");
    println!("and the fault p99 rises; the allocator brings both back. Policy");
    println!("comparisons are BENCH_policies.json");
    println!("(cargo run -p mage-bench --bin policies).");
}
