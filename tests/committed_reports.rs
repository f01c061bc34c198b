//! The committed report trajectories, read from disk: each passes its own
//! validator and re-renders byte for byte through the one JSON codec
//! (`mage_sim::json`), and a malformed row is rejected by name rather
//! than skipped.

use std::path::Path;

use mage_bench::{hotloop, scale_bench};
use mage_far_memory::workloads::ablation;
use mage_sim::json;

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// `text` with the value of `key` replaced by `value` on the one line
/// that contains `row` (the committed layout puts each row on a line).
fn rewrite(text: &str, row: &str, key: &str, value: &str) -> String {
    let tag = format!("\"{key}\": ");
    let mut hits = 0;
    let out: Vec<String> = text
        .lines()
        .map(|line| {
            if !line.contains(row) {
                return line.to_string();
            }
            hits += 1;
            let at = line.find(&tag).expect("row has the key") + tag.len();
            let end = at + line[at..].find([',', '}']).expect("value ends");
            format!("{}{value}{}", &line[..at], &line[end..])
        })
        .collect();
    assert_eq!(hits, 1, "row {row:?} must be on exactly one line");
    out.join("\n") + "\n"
}

/// A report validator, reduced to the number of rows it accepted.
type RowCount = fn(&str) -> Result<usize, String>;

#[test]
fn committed_reports_validate_and_round_trip() {
    let hotloop_rows: RowCount = |j| hotloop::validate_report(j).map(|r| r.len());
    let reports: [(&str, RowCount, usize); 4] = [
        ("BENCH_hotloop.json", hotloop_rows, 9),
        (
            "crates/bench/baseline/hotloop_baseline.json",
            hotloop_rows,
            9,
        ),
        (
            "BENCH_scale.json",
            |j| scale_bench::validate_report(j).map(|r| r.len()),
            4,
        ),
        (
            "BENCH_policies.json",
            |j| ablation::validate_report(j).map(|r| r.len()),
            24,
        ),
    ];
    for (path, validate, rows) in reports {
        let text = read(path);
        assert_eq!(validate(&text), Ok(rows), "{path}");
        let doc = json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert!(
            doc.render() == text,
            "{path} does not re-render byte for byte"
        );
    }
}

/// A dense-metadata count smuggled in as a quoted string used to be
/// skipped by the line scanner, so the report passed with 3 points.
#[test]
fn scale_validator_rejects_quoted_metadata_entries() {
    let bad = rewrite(
        &read("BENCH_scale.json"),
        "\"sparse_2p40_replicated\"",
        "metadata_entries",
        "\"1099511627776\"",
    );
    json::parse(&bad).expect("still well-formed JSON");
    let err = scale_bench::validate_report(&bad).expect_err("a mistyped row must fail");
    assert!(
        err.contains("sparse_2p40_replicated") && err.contains("metadata_entries"),
        "{err}"
    );
}

/// A garbage events/sec used to be skipped, so the report passed with 8
/// of its 9 scenarios.
#[test]
fn hotloop_validator_rejects_garbage_events_per_sec() {
    let bad = rewrite(
        &read("BENCH_hotloop.json"),
        "\"fig5_mage_t8\"",
        "events_per_sec",
        "\"oops\"",
    );
    json::parse(&bad).expect("still well-formed JSON");
    let err = hotloop::validate_report(&bad).expect_err("a mistyped row must fail");
    assert!(
        err.contains("fig5_mage_t8") && err.contains("events_per_sec"),
        "{err}"
    );
}

/// Each report's own schema rules, on otherwise well-formed input.
#[test]
fn validators_enforce_their_schema_rules() {
    for text in ["{}", "[]", "not json"] {
        assert!(hotloop::validate_report(text).is_err(), "{text}");
        assert!(scale_bench::validate_report(text).is_err(), "{text}");
        assert!(ablation::validate_report(text).is_err(), "{text}");
    }
    let empty = format!("{{\"schema\": \"{}\", \"scenarios\": []}}", hotloop::SCHEMA);
    assert!(hotloop::validate_report(&empty).is_err(), "no scenarios");
    let stale = read("BENCH_hotloop.json").replace(hotloop::SCHEMA, "mage-bench-hotloop/v0");
    assert!(hotloop::validate_report(&stale).is_err(), "schema marker");
    let stalled = rewrite(
        &read("BENCH_hotloop.json"),
        "\"quickstart\"",
        "events_per_sec",
        "0.0",
    );
    assert!(hotloop::validate_report(&stalled)
        .unwrap_err()
        .contains("non-positive"));

    let dense = rewrite(
        &read("BENCH_scale.json"),
        "\"sparse_2p40_replicated\"",
        "metadata_entries",
        "1099511627776",
    );
    let err = scale_bench::validate_report(&dense).expect_err("dense metadata must fail");
    assert!(err.contains("dense-metadata regression"), "{err}");

    let policies = read("BENCH_policies.json");
    let dropped: String = policies
        .lines()
        .filter(|l| !(l.contains("\"fifo\"") && l.contains("\"pagerank\"") && l.contains("0.50")))
        .map(|l| format!("{l}\n"))
        .collect();
    assert!(
        ablation::validate_report(&dropped)
            .unwrap_err()
            .contains("expected 24 cells"),
        "cube incomplete"
    );
    let duplicated = policies.replace("\"policy\": \"fifo\"", "\"policy\": \"s3-fifo\"");
    assert!(ablation::validate_report(&duplicated)
        .unwrap_err()
        .contains("appears"));
    let rate = rewrite(
        &policies,
        "\"approx-lru\", \"workload\": \"gups\", \"local_frac\": 0.20",
        "re_fault_rate",
        "1.5",
    );
    assert!(ablation::validate_report(&rate)
        .unwrap_err()
        .contains("outside [0, 1]"));
}
