//! Host ns/op of each layer's hot public primitive, measured in isolation
//! at a workload's own table sizes.
//!
//! Each primitive runs in [`ROUNDS`] timed rounds over a seeded key
//! stream; the reported figure is the median round's ns per op.

use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use mage_fabric::{Nic, NicConfig};
use mage_mmu::{PageTable, Pte, Tlb};
use mage_palloc::BuddyAllocator;
use mage_sim::rng::SplitMix64;
use mage_sim::slab::PageMap;
use mage_sim::stats::Histogram;
use mage_sim::Simulation;
use mage_workloads::Zipf;

use crate::report::{median, Metric};

/// Timed rounds per primitive.
pub const ROUNDS: usize = 7;

/// Table sizes of one workload.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Working-set pages (page table, `PageMap` and Zipf domain).
    pub pages: u64,
    /// Local frames (buddy allocator size).
    pub frames: u64,
    /// Ops per timed round.
    pub ops: usize,
}

/// Per-round entries of a TLB, as configured for every workload.
const TLB_ENTRIES: usize = 1_536;

fn time_rounds(ops: usize, mut round: impl FnMut()) -> f64 {
    let per_round: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t0 = Instant::now();
            round();
            t0.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&per_round)
}

fn keys(n: usize, below: u64, seed: u64) -> Vec<u64> {
    let rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.next_below(below)).collect()
}

/// Measures every primitive at `sizes`; keys come from `seed`.
pub fn measure(sizes: Sizes, seed: u64) -> Vec<Metric> {
    let n = sizes.ops;
    let pages = keys(n, sizes.pages, seed);
    let mut out = Vec::new();

    // mmu: a full TLB, then lookups (half hit), replacing fills, and
    // invalidations of resident entries.
    let tlb = Tlb::new(TLB_ENTRIES, seed);
    for vpn in 0..TLB_ENTRIES as u64 {
        tlb.fill(vpn);
    }
    let tlb_keys = keys(n, 2 * TLB_ENTRIES as u64, seed ^ 1);
    out.push(Metric::new(
        "mmu.tlb_lookup_ns",
        time_rounds(n, || {
            for &k in &tlb_keys {
                black_box(tlb.lookup(black_box(k)));
            }
        }),
        "ns",
    ));
    let mut fresh = 1u64 << 32;
    out.push(Metric::new(
        "mmu.tlb_fill_ns",
        time_rounds(n, || {
            for _ in 0..n {
                fresh += 1;
                tlb.fill(black_box(fresh));
            }
        }),
        "ns",
    ));
    let inval_ns = {
        let mut rounds = Vec::new();
        for _ in 0..ROUNDS {
            let resident: Vec<u64> = (0..TLB_ENTRIES as u64).map(|i| (2 << 32) + i).collect();
            for &vpn in &resident {
                tlb.fill(vpn);
            }
            let t0 = Instant::now();
            for &vpn in &resident {
                tlb.invalidate(black_box(vpn));
            }
            rounds.push(t0.elapsed().as_nanos() as f64 / TLB_ENTRIES as f64);
        }
        median(&rounds)
    };
    out.push(Metric::new("mmu.tlb_invalidate_ns", inval_ns, "ns"));

    // mmu: the 5-level page table over the working set.
    let pt = PageTable::new();
    for vpn in 0..sizes.pages {
        pt.set(vpn, Pte::remote(vpn));
    }
    out.push(Metric::new(
        "mmu.pt_get_ns",
        time_rounds(n, || {
            for &k in &pages {
                black_box(pt.get(black_box(k)));
            }
        }),
        "ns",
    ));
    out.push(Metric::new(
        "mmu.pt_update_ns",
        time_rounds(n, || {
            for &k in &pages {
                pt.update(black_box(k), |p| p.with_accessed(!p.accessed()));
            }
        }),
        "ns",
    ));

    // palloc: the buddy allocator over the workload's local frames.
    let mut buddy = BuddyAllocator::new(sizes.frames);
    out.push(Metric::new(
        "palloc.buddy_alloc_free_ns",
        time_rounds(n, || {
            for _ in 0..n {
                let f = buddy.alloc(0).expect("an empty pool has a free frame");
                buddy.free(black_box(f), 0);
            }
        }),
        "ns",
    ));
    let mut batch = Vec::with_capacity(64);
    let batches = (n / 64).max(1);
    out.push(Metric::new(
        "palloc.buddy_batch64_ns",
        time_rounds(batches * 64, || {
            for _ in 0..batches {
                batch.clear();
                buddy.alloc_batch(64, &mut batch);
                buddy.free_batch(black_box(&batch));
            }
        }),
        "ns",
    ));

    // sim: PageMap at the working set's size, the executor's sleep/wake
    // round trip, and a histogram record.
    let mut map = PageMap::with_capacity(sizes.pages as usize);
    let insert_ns = {
        let mut rounds = Vec::new();
        for _ in 0..ROUNDS {
            map = PageMap::with_capacity(sizes.pages as usize);
            let t0 = Instant::now();
            for vpn in 0..sizes.pages {
                map.insert(black_box(vpn.wrapping_mul(0x9E37_79B9_7F4A_7C15)), vpn);
            }
            rounds.push(t0.elapsed().as_nanos() as f64 / sizes.pages as f64);
        }
        median(&rounds)
    };
    out.push(Metric::new("sim.pagemap_insert_ns", insert_ns, "ns"));
    let map_keys: Vec<u64> = pages
        .iter()
        .map(|p| p.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    out.push(Metric::new(
        "sim.pagemap_get_ns",
        time_rounds(n, || {
            for &k in &map_keys {
                black_box(map.get(black_box(k)));
            }
        }),
        "ns",
    ));
    out.push(Metric::new(
        "sim.sleep_wake_ns",
        time_rounds(n, || {
            let sim = Simulation::new();
            let h = sim.handle();
            let rounds = n as u64;
            sim.block_on(async move {
                for i in 0..rounds {
                    h.sleep(1 + i % 7).await;
                }
            });
        }),
        "ns",
    ));
    let hist = Histogram::new();
    let lat = keys(n, 1 << 20, seed ^ 2);
    out.push(Metric::new(
        "sim.histogram_record_ns",
        time_rounds(n, || {
            for &v in &lat {
                hist.record(black_box(v));
            }
        }),
        "ns",
    ));

    // workloads: Zipf(0.99) over the working set.
    let zipf = Zipf::new(sizes.pages, 0.99);
    let rng = SplitMix64::new(seed ^ 3);
    out.push(Metric::new(
        "workloads.zipf_sample_ns",
        time_rounds(n, || {
            for _ in 0..n {
                black_box(zipf.sample(&rng));
            }
        }),
        "ns",
    ));

    // fabric: one 4 KiB read posted and awaited to completion.
    out.push(Metric::new(
        "fabric.post_read_ns",
        time_rounds(n, || {
            let sim = Simulation::new();
            let nic = Rc::new(Nic::new(sim.handle(), NicConfig::bluefield2_200g()));
            let reads = n;
            sim.block_on(async move {
                for _ in 0..reads {
                    black_box(nic.post_read(4096).await.is_ok());
                }
            });
        }),
        "ns",
    ));
    out
}
