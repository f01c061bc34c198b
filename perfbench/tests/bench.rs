//! The benchmark's own tests, on the scaled-down (`quick`) sizes.

use std::collections::BTreeSet;

use mage_perfbench::probe::{Off, Recorder};
use mage_perfbench::{run, run_rep, Args, Workload};

/// The metric names `BENCHMARK.json` lists under `key`.
fn listed(key: &str) -> BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let section = &text[text.find(&format!("\"{key}\"")).expect("section present")..];
    let section = &section[..section.find(']').expect("section is a list")];
    section
        .split("\"name\"")
        .skip(1)
        .map(|s| {
            let s = &s[s.find('"').expect("quoted name") + 1..];
            s[..s.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

fn quick(workload: Workload, trace: bool) -> Args {
    Args {
        workload,
        seed: 1,
        seconds: 0.0,
        trace,
        quick: true,
    }
}

#[test]
fn quick_mode_emits_every_named_metric_and_passes_its_checks() {
    for w in Workload::ALL {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let out = run(&quick(w, trace));
            assert!(out.correct, "{}: {:?}", w.name(), out.errors);
            assert_eq!(out.failed, 0);
            assert!(out.attempted > 0);
            let names: BTreeSet<String> = out.metrics.iter().map(|m| m.name.clone()).collect();
            assert_eq!(
                names.len(),
                out.metrics.len(),
                "{}: duplicate metric",
                w.name()
            );
            assert_eq!(names, listed(key), "{} {key}", w.name());
            for m in &out.metrics {
                assert!(m.value.is_finite(), "{} {} = {}", w.name(), m.name, m.value);
            }
        }
    }
}

#[test]
fn end_to_end_metrics_are_never_zero() {
    for w in Workload::ALL {
        for m in run(&quick(w, false)).metrics {
            assert!(m.value > 0.0, "{} {} reads 0", w.name(), m.name);
        }
    }
}

#[test]
fn same_seed_gives_the_same_digest_traced_or_not() {
    for w in Workload::ALL {
        let a = run_rep(w, 7, true, &Off);
        let b = run_rep(w, 7, true, &Off);
        let traced = run_rep(w, 7, true, &Recorder::new(1));
        assert_eq!(a.digests, b.digests, "{}", w.name());
        assert_eq!(a.digests, traced.digests, "{} traced", w.name());
        let other = run_rep(w, 8, true, &Off);
        assert_ne!(
            a.digests,
            other.digests,
            "{}: the seed must change the inputs",
            w.name()
        );
    }
}

#[test]
fn memcached_p99_does_not_fall_as_the_offered_rate_rises() {
    let rep = run_rep(Workload::MemcachedSlo, 1, true, &Off);
    assert_eq!(rep.ladder.len(), Workload::ladder(true).len());
    for pair in rep.ladder.windows(2) {
        let ((lo_rate, lo_p99, _), (hi_rate, hi_p99, _)) = (pair[0], pair[1]);
        assert!(
            hi_p99 >= lo_p99,
            "p99 fell from {lo_p99} ns at {lo_rate} Mops to {hi_p99} ns at {hi_rate} Mops"
        );
    }
}

#[test]
fn fault_storm_faults_on_every_access_and_never_evicts() {
    let rep = run_rep(Workload::FaultStorm, 3, true, &Off);
    let d = &rep.digests[0];
    assert_eq!(d.faults, d.ops);
    assert_eq!(d.evictions, 0);
    assert_eq!(rep.layer("reclaim.evicted_pages"), 0.0);
}

#[test]
fn gups_keeps_eviction_in_steady_state() {
    let rep = run_rep(Workload::GupsEvict, 3, true, &Off);
    for name in [
        "reclaim.writebacks",
        "mmu.shootdowns",
        "accounting.scanned",
        "reclaim.batches",
    ] {
        assert!(rep.layer(name) > 0.0, "{name} is 0");
    }
}
