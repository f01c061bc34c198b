//! Quickstart: drive the MAGE engine directly.
//!
//! Builds a small far-memory machine, touches a working set larger than
//! local DRAM, prints what the paging stack did (measured through a
//! snapshot-delta [`MetricsWindow`]), and exports a virtual-time trace
//! of the run to `target/quickstart_trace.json` — open it in
//! `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::rc::Rc;

use mage_far_memory::prelude::*;

fn main() {
    let sim = Simulation::new();
    let params = MachineParams {
        topo: Topology::single_socket(8),
        app_threads: 4,
        local_pages: 4_096,   // 16 MiB of local DRAM
        remote_pages: 32_768, // 128 MiB far-memory pool
        tlb_entries: 1_536,
        seed: 1,
    };
    let engine = FarMemory::launch(sim.handle(), SystemConfig::mage_lib(), params);
    let tracer = Tracer::new(sim.handle());
    engine.attach_tracer(Rc::clone(&tracer));

    // Map and place a 64 MiB region: it cannot fit locally, so the tail
    // starts in far memory.
    let vma = engine.mmap(16_384);
    engine.populate(&vma);

    // Open the measurement window. Everything the report shows is the
    // delta against this start line — no destructive resets.
    let start = engine.metrics().snapshot();

    // Four threads stream through the region.
    let mut joins = Vec::new();
    for t in 0..4u32 {
        let engine = Rc::clone(&engine);
        let h = sim.handle();
        joins.push(sim.spawn(async move {
            let mut faults = 0u64;
            for i in 0..16_384u64 {
                if i % 4 != t as u64 {
                    continue; // interleaved sharding
                }
                let access = engine.access(CoreId(t), vma.start_vpn + i, false).await;
                if matches!(access, Access::Major { .. }) {
                    faults += 1;
                }
                h.sleep(300).await; // per-page compute
            }
            faults
        }));
    }
    let total_faults: u64 = sim.block_on(async move {
        let mut sum = 0;
        for j in joins {
            sum += j.await;
        }
        sum
    });
    engine.shutdown();

    let w = engine.metrics().window_since(&start);
    let elapsed = sim.handle().now();
    println!("== MAGE quickstart ==");
    println!("virtual runtime        : {elapsed}");
    println!("accesses               : {}", w.accesses);
    println!("tlb hits               : {}", w.tlb_hits);
    println!("major faults           : {total_faults}");
    println!(
        "mean fault latency     : {:.1} us",
        w.fault_latency.mean() / 1_000.0
    );
    println!(
        "p99 fault latency      : {:.1} us",
        w.fault_latency.p99() as f64 / 1_000.0
    );
    println!(
        "sync evictions         : {} (always 0 under MAGE's P1)",
        w.sync_evictions
    );
    println!("pages evicted          : {}", w.evicted_pages);
    println!("dirty writebacks       : {}", w.writebacks);
    println!("clean reclaims         : {}", w.clean_reclaims);
    println!(
        "rdma read bandwidth    : {:.1} Gbps",
        w.read_gbps(elapsed.as_nanos())
    );
    assert!(w.sync_evictions == 0);

    // Export the virtual-time trace (fault phases, eviction stages, NIC
    // transfers, TLB shootdowns) as Chrome trace_event JSON.
    let trace = tracer.to_chrome_json();
    mage_sim::json::parse(&trace).expect("trace export must be valid JSON");
    let out = "target/quickstart_trace.json";
    std::fs::write(out, &trace).expect("write trace JSON");
    println!(
        "trace                  : {out} ({} events, load in chrome://tracing)",
        tracer.len()
    );
}
