#!/bin/sh
# CI gate: build, test, determinism lint, clippy. Fails on the first error.
set -eu

cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> chaos suite (fault-injection sweep, DESIGN.md §8)"
cargo test -q --test chaos

echo "==> mage-check smoke (schedule exploration + oracle, DESIGN.md §9)"
cargo test -q --test check_explore

echo "==> simsan suite (race detector end-to-end, DESIGN.md §10)"
cargo test -q --test simsan

echo "==> chaos + seams under the race detector (MAGE_SIMSAN=1)"
MAGE_SIMSAN=1 cargo test -q --test chaos --test seams

echo "==> replication chaos (node-kill sweep + replica fuzz + failover determinism, DESIGN.md §13)"
cargo test -q --test chaos node_kill_sweep_loses_nothing_with_replication
cargo test -q -p mage --test replica_fuzz
MAGE_SIMSAN=1 cargo test -q --test determinism replicated_sweep

echo "==> replication oracle self-check (the planted bug must trip mage-check)"
# Mirrors the simlint fixture pattern: the skipped-backup-repair bug
# (PlantedBug::Rereplication) must be caught by the replica-coverage invariant
# and shrunk to a one-line repro; the test fails if the oracle misses it.
cargo test -q --test check_explore broken_rereplication_is_caught_and_shrunk

echo "==> perfbench build (the repo benchmark, its own workspace)"
# perfbench/ is a separate workspace, so the stages above never compile
# it: a change that renames or removes a pub item it uses would pass
# every test here and still break the benchmark.
cargo build --offline --release --manifest-path perfbench/Cargo.toml

echo "==> perfbench tests (digest equals run_batch's, guarding the MetricsWindow seam)"
cargo test --offline --release -q --manifest-path perfbench/Cargo.toml

echo "==> cargo build --examples"
cargo build --examples

echo "==> quickstart trace export (validates + writes Chrome trace_event JSON)"
rm -f target/quickstart_trace.json
# The example parses the export with mage_sim::json::parse
# before writing; a missing or empty file means export or validation broke.
cargo run -q --release --example quickstart >/dev/null
test -s target/quickstart_trace.json || {
    echo "error: quickstart did not produce target/quickstart_trace.json" >&2
    exit 1
}

echo "==> example runs (an example that panics fails CI)"
cargo run -q --release --example swap_backends >/dev/null
cargo run -q --release --example custom_system >/dev/null
cargo run -q --release --example colocation >/dev/null
cargo run -q --release --example graph_analytics >/dev/null
cargo run -q --release --example memcached_tail_latency >/dev/null
cargo run -q --release --example phase_change >/dev/null

echo "==> cargo doc --no-deps (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> simlint (determinism rules, DESIGN.md §5)"
cargo run -p simlint

echo "==> simlint self-check (fixtures must fail)"
if cargo run -q -p simlint -- crates/simlint/fixtures/violations.rs >/dev/null 2>&1; then
    echo "error: simlint accepted the seeded violation fixture" >&2
    exit 1
fi
if cargo run -q -p simlint -- crates/simlint/fixtures/hotpath/executor.rs >/dev/null 2>&1; then
    echo "error: simlint accepted the hot-path ordered-map fixture" >&2
    exit 1
fi
cargo run -q -p simlint -- crates/simlint/fixtures/hotpath_ok >/dev/null 2>&1 || {
    echo "error: simlint rejected the justified hot-path allow fixture" >&2
    exit 1
}

echo "==> bench smoke (hot-loop harness, quick mode; validates BENCH_hotloop.json schema)"
# Writes the quick-mode report to target/ — the committed BENCH_hotloop.json
# at the repo root comes from a full run (see README "Benchmarking").
cargo run -q --release -p mage-bench --bin hotloop -- --quick --out target/bench_hotloop_smoke.json >/dev/null
test -s target/bench_hotloop_smoke.json || {
    echo "error: bench smoke did not produce target/bench_hotloop_smoke.json" >&2
    exit 1
}

echo "==> policy-ablation smoke (eviction-policy zoo, quick mode; validates BENCH_policies.json schema)"
# Quick-mode sweep of the fig17-style policy × workload × local-fraction
# cube. The committed BENCH_policies.json comes from a full run (see
# EXPERIMENTS.md "Eviction-policy ablation").
cargo run -q --release -p mage-bench --bin policies -- --quick --out target/bench_policies_smoke.json >/dev/null
test -s target/bench_policies_smoke.json || {
    echo "error: policy ablation smoke did not produce target/bench_policies_smoke.json" >&2
    exit 1
}

echo "==> policy cube reproduction (full mode; must match the committed BENCH_policies.json)"
# Every cell is a fixed-seed virtual-time run, so the full cube is
# bit-reproducible on any host: a code change that moves a cell without
# regenerating the committed report fails here instead of going stale.
cargo run -q --release -p mage-bench --bin policies -- --out target/bench_policies_full.json >/dev/null
cmp target/bench_policies_full.json BENCH_policies.json || {
    echo "error: BENCH_policies.json is stale; regenerate it with cargo run --release -p mage-bench --bin policies" >&2
    exit 1
}

echo "==> hot-loop schedule check (full mode, one repeat; must match the committed BENCH_hotloop.json)"
# Each scenario's events and virtual_ns are fixed by its seeded schedule,
# so a change that moves the simulation (say, a speed-up that alters one
# decision) fails here instead of leaving the committed events/sec
# trajectory stale. The wall-clock columns are not compared.
cargo run -q --release -p mage-bench --bin hotloop -- --verify BENCH_hotloop.json

echo "==> scale smoke (terabyte-scale sparse-metadata harness, quick mode; validates BENCH_scale.json schema)"
# Quick mode shrinks the per-point work but keeps the nominal capacities
# at full scale (256 vcores, 2^26-page keyspace, 1M connections,
# 2^40-page space), so any dense O(capacity) metadata regression fails
# here. The committed BENCH_scale.json comes from a full run (see
# EXPERIMENTS.md "Scale sweep"). The sparse regression test drives the
# same property end to end through the engine and the batch runner.
cargo test -q --release --test scale_sparse >/dev/null
cargo run -q --release -p mage-bench --bin scale -- --quick --out target/bench_scale_smoke.json >/dev/null
test -s target/bench_scale_smoke.json || {
    echo "error: scale smoke did not produce target/bench_scale_smoke.json" >&2
    exit 1
}

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "CI OK"
