//! Fixture tests: the seeded violation file trips every rule; the clean
//! fixture (with a justified allow) trips none.

use std::path::{Path, PathBuf};

use simlint::{lint_file, lint_tree, Rule};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

#[test]
fn violation_fixture_trips_every_rule() {
    // `hot-path` keys on the file name, so it has its own fixture; the
    // seeded violations file covers every other rule.
    let mut violations = lint_file(&fixture("violations.rs")).expect("fixture readable");
    violations.extend(lint_file(&fixture("hotpath/executor.rs")).expect("fixture readable"));
    for &rule in Rule::all() {
        assert!(
            violations.iter().any(|v| v.rule == rule),
            "rule {} not tripped; got: {violations:#?}",
            rule.name()
        );
    }
}

/// The hot-path fixture pair: an ordered map in an executor-named file
/// fails, and the justified `allow(hot-path)` escape hatch passes.
#[test]
fn hot_path_fixture_pair() {
    let bad = lint_file(&fixture("hotpath/executor.rs")).expect("fixture readable");
    assert!(
        bad.iter().all(|v| v.rule == Rule::HotPath) && bad.len() == 2,
        "{bad:#?}"
    );
    let ok = lint_file(&fixture("hotpath_ok/machine.rs")).expect("fixture readable");
    assert!(ok.is_empty(), "unexpected: {ok:#?}");
}

#[test]
fn violation_lines_are_exact() {
    let violations = lint_file(&fixture("violations.rs")).expect("fixture readable");
    let at = |rule: Rule| {
        violations
            .iter()
            .find(|v| v.rule == rule)
            .map(|v| v.line)
            .unwrap_or(0)
    };
    assert_eq!(at(Rule::HashCollection), 8);
    assert_eq!(at(Rule::StdSync), 9);
    assert_eq!(at(Rule::HostThread), 10);
    assert_eq!(at(Rule::WallClock), 11);
    assert_eq!(at(Rule::ExternalRng), 14);
    assert_eq!(at(Rule::UnseededRng), 24);
    assert_eq!(at(Rule::BareAllow), 30);
}

#[test]
fn clean_fixture_is_clean() {
    let violations = lint_file(&fixture("clean.rs")).expect("fixture readable");
    assert!(violations.is_empty(), "unexpected: {violations:#?}");
}

#[test]
fn lint_tree_visits_fixtures_in_stable_order() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let a = lint_tree(&dir).expect("fixtures dir readable");
    let b = lint_tree(&dir).expect("fixtures dir readable");
    assert!(!a.is_empty());
    assert_eq!(a, b, "reports must be stable");
}
