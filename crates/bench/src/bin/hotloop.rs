//! Emits `BENCH_hotloop.json` at the repo root: the committed events/sec
//! trajectory of the simulator's hot loop (see `mage_bench::hotloop`).
//!
//! ```sh
//! cargo run --release -p mage-bench --bin hotloop            # full run
//! cargo run --release -p mage-bench --bin hotloop -- --quick # smoke
//! ```
//!
//! Flags:
//! * `--quick` — scaled-down scenarios (CI smoke; ids stay comparable).
//! * `--baseline <path>` — previous report to compute speedups against
//!   (default: `crates/bench/baseline/hotloop_baseline.json`, the
//!   pre-slab-refactor numbers, when it exists).
//! * `--out <path>` — output path (default: `<repo>/BENCH_hotloop.json`).
//! * `--verify <path>` — instead of measuring, run every scenario once
//!   and exit 1 if any scenario's `events` or `virtual_ns` differs from
//!   the report at `path` (add `--quick` only for a quick-mode report).
//!   Both are fixed by the seeded schedule, so this catches a change
//!   that moves the simulation without regenerating the report.

use std::path::{Path, PathBuf};

use mage_bench::hotloop::{
    render_json, run_hotloop, run_suite, schedule_mismatches, validate_report,
};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("mage-bench lives at <workspace>/crates/bench")
        .to_path_buf()
}

fn main() {
    let mut quick = false;
    let mut baseline_path: Option<PathBuf> = None;
    let mut out_path: Option<PathBuf> = None;
    let mut verify_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--baseline" => {
                baseline_path = Some(PathBuf::from(args.next().expect("--baseline needs a path")))
            }
            "--out" => out_path = Some(PathBuf::from(args.next().expect("--out needs a path"))),
            "--verify" => {
                verify_path = Some(PathBuf::from(args.next().expect("--verify needs a path")))
            }
            other => {
                eprintln!("hotloop: unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    if let Some(path) = verify_path {
        verify(&path, quick);
        return;
    }
    let root = workspace_root();
    let baseline_path =
        baseline_path.unwrap_or_else(|| root.join("crates/bench/baseline/hotloop_baseline.json"));
    let out_path = out_path.unwrap_or_else(|| root.join("BENCH_hotloop.json"));

    eprintln!(
        "hotloop: running {} scenarios...",
        if quick { "quick" } else { "full" }
    );
    let report = run_hotloop(quick);

    let baseline_rows = std::fs::read_to_string(&baseline_path).ok().map(|json| {
        validate_report(&json)
            .unwrap_or_else(|e| panic!("baseline {} is malformed: {e}", baseline_path.display()))
    });
    // Committed output should not carry host-absolute paths.
    let baseline_label = baseline_path
        .strip_prefix(&root)
        .unwrap_or(&baseline_path)
        .display()
        .to_string();
    let baseline = baseline_rows
        .as_deref()
        .map(|rows| (baseline_label.as_str(), rows));

    let json = render_json(&report, baseline);
    validate_report(&json).expect("emitted report must validate against its own schema");
    std::fs::write(&out_path, &json).expect("write BENCH_hotloop.json");

    for s in &report.scenarios {
        eprintln!(
            "  {:24} {:>9.1} ms  {:>12} events  {:>12.0} events/s",
            s.id,
            s.wall_ms,
            s.events,
            s.events_per_sec()
        );
    }
    eprintln!(
        "hotloop: {} events in {:.1} ms ({:.0} events/s) -> {}",
        report.total_events(),
        report.total_wall_ms(),
        report.events_per_sec(),
        out_path.display()
    );
    print!("{json}");
}

/// The `--verify` mode: exits 1 on any schedule difference, 2 when the
/// report cannot be read.
fn verify(path: &Path, quick: bool) {
    let committed = std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|json| validate_report(&json))
        .unwrap_or_else(|e| {
            eprintln!("hotloop: cannot read report {}: {e}", path.display());
            std::process::exit(2);
        });
    let run = run_suite(quick);
    let mismatches = schedule_mismatches(&committed, &run);
    if mismatches.is_empty() {
        eprintln!(
            "hotloop: events and virtual_ns match {} in all {} scenarios",
            path.display(),
            run.len()
        );
        return;
    }
    eprintln!("hotloop: schedule differs from {}:", path.display());
    for m in &mismatches {
        eprintln!("  {m}");
    }
    std::process::exit(1);
}
