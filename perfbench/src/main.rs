//! Command line of the repository benchmark.
//!
//! ```text
//! perfbench --workload <fault_storm|gups_evict|memcached_slo> --seed <n>
//!           --seconds <s> --trace <0|1> [--quick]
//! ```
//!
//! Prints progress and failed checks on stderr and, as the last line of
//! stdout, one JSON object: `correct`, `attempted`, `failed` and the
//! metrics (end-to-end with `--trace 0`, per-layer with `--trace 1`).
//! A traced run also writes its spans to
//! `$CARGO_TARGET_DIR/perfbench/trace-<workload>-<seed>.jsonl`
//! (`.bench_build` when the variable is unset). Exits 1 when an output
//! check fails and 2 on bad arguments.

use std::path::PathBuf;
use std::process::ExitCode;

use mage_perfbench::{report, run, Args, Workload};

const USAGE: &str = "usage: perfbench --workload <fault_storm|gups_evict|memcached_slo> \
--seed <n> --seconds <s> --trace <0|1> [--quick]";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut quick = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && (0.0..=600.0).contains(&s)) {
                    return Err(format!("--seconds {s} is outside 0..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        quick,
    })
}

fn trace_path(args: &Args) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(dir).join("perfbench").join(format!(
        "trace-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = run(&args);
    for e in &out.errors {
        eprintln!("check failed: {e}");
    }
    if let Some(rec) = &out.recorder {
        let path = trace_path(&args);
        if let Err(e) = rec.write(&path) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("spans written to {}", path.display());
    }
    for (rate, p99_ns, failed) in &out.ladder {
        eprintln!(
            "offered {rate:>4} Mops: p99 {:>10.3} us, {failed} failed",
            *p99_ns as f64 / 1e3
        );
    }
    for m in &out.metrics {
        eprintln!("{:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        report::result_json(out.correct, out.attempted, out.failed, &out.metrics)
    );
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
