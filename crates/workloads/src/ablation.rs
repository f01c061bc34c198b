//! Fig-17-style eviction-policy ablation behind `BENCH_policies.json`.
//!
//! The sweep crosses the policy zoo (`EvictionPolicyKind`) with two
//! access patterns and three local-memory fractions on the MAGE-Lib
//! preset, holding everything else fixed — so each cell isolates the
//! victim-selection policy exactly the way the paper's Fig. 17 isolates
//! one knob at a time. The figure of merit is the *re-fault rate*:
//! the fraction of major faults whose page was still on the accounting
//! ghost list, i.e. pages the policy evicted and then needed right back
//! (lower is better). Throughput and tail latency ride along so accuracy
//! gains that cost throughput are visible in the same row.
//!
//! All metrics are virtual-time quantities from
//! [`RunReport`](crate::runner::RunReport) measurement
//! windows — unlike the hotloop harness there is no wall clock anywhere,
//! so the committed report is bit-reproducible across hosts.
//!
//! The emitted JSON (`schema: mage-bench-policies/v1`) is written and
//! read back through [`mage_sim::json`], for validation and the CI
//! smoke stage.

use mage::{EvictionPolicyKind, SystemConfig};
use mage_mmu::Topology;
use mage_sim::json::{self, Json};

use crate::patterns::WorkloadKind;
use crate::runner::{run_batch, RunConfig};

/// JSON schema marker written to (and expected in) `BENCH_policies.json`.
pub const SCHEMA: &str = "mage-bench-policies/v1";

/// Local-memory fractions swept (the x-axis of the ablation).
pub const LOCAL_FRACTIONS: [f64; 3] = [0.2, 0.5, 0.8];

/// The policy zoo under ablation: the paper's second-chance and FIFO
/// against two stateful baselines. `Clock` is not in the cube; its
/// comparison with second-chance is the `ext_replacement` bench.
pub fn policies() -> Vec<EvictionPolicyKind> {
    vec![
        EvictionPolicyKind::SecondChance,
        EvictionPolicyKind::Fifo,
        EvictionPolicyKind::ApproxLru,
        EvictionPolicyKind::S3Fifo,
    ]
}

/// The two access patterns swept: skewed point updates with a phase
/// change (GUPS) and power-law graph walks (page rank).
pub fn workloads() -> [WorkloadKind; 2] {
    [WorkloadKind::Gups, WorkloadKind::RandomGraph]
}

/// Stable id of a workload in the report.
fn workload_name(kind: WorkloadKind) -> &'static str {
    match kind {
        WorkloadKind::RandomGraph => "pagerank",
        WorkloadKind::XsBench => "xsbench",
        WorkloadKind::SeqScan => "seqscan",
        WorkloadKind::Gups => "gups",
        WorkloadKind::Metis => "metis",
        WorkloadKind::SeqFault => "seqfault",
    }
}

/// One measured cell of the policy × workload × fraction cube.
#[derive(Clone, Debug)]
pub struct PolicyCell {
    /// Policy display name (`EvictionPolicyKind::name`).
    pub policy: &'static str,
    /// Workload id (`"gups"` or `"pagerank"`).
    pub workload: &'static str,
    /// Fraction of the working set resident locally.
    pub local_frac: f64,
    /// Application throughput, M ops/s.
    pub mops: f64,
    /// Major faults in the measurement window.
    pub major_faults: u64,
    /// Major faults that hit the ghost list (evicted too early).
    pub re_faults: u64,
    /// All ghost hits (re-faults + cancels + requeues).
    pub ghost_hits: u64,
    /// `re_faults / major_faults` — the figure of merit, lower is better.
    pub re_fault_rate: f64,
    /// p99 major-fault latency, ns.
    pub fault_p99_ns: u64,
}

fn run_cell(
    policy: EvictionPolicyKind,
    kind: WorkloadKind,
    local_frac: f64,
    quick: bool,
) -> PolicyCell {
    let (wss, ops, threads) = if quick {
        (2_048, 512, 2)
    } else {
        (8_192, 2_048, 4)
    };
    let system = SystemConfig::mage_lib().with_eviction_policy(policy);
    let mut cfg = RunConfig::new(system, kind, threads, wss, local_frac);
    cfg.ops_per_thread = ops;
    // Let residency converge to the access distribution before measuring,
    // so the window sees steady-state policy behaviour, not cold start.
    cfg.warmup_ops = ops / 4;
    cfg.seed = 0xAB1A;
    cfg.topo = Topology::single_socket(16);
    let report = run_batch(&cfg);
    PolicyCell {
        policy: policy.name(),
        workload: workload_name(kind),
        local_frac,
        mops: report.mops(),
        major_faults: report.major_faults,
        re_faults: report.re_faults,
        ghost_hits: report.ghost_hits,
        re_fault_rate: report.re_fault_rate(),
        fault_p99_ns: report.fault_p99_ns,
    }
}

/// Runs the full cube. `quick` shrinks every cell (~10× less work) for
/// the CI smoke stage; cell ids are identical in both modes.
pub fn run_ablation(quick: bool) -> Vec<PolicyCell> {
    let mut cells = Vec::new();
    for kind in workloads() {
        for &frac in &LOCAL_FRACTIONS {
            for policy in policies() {
                cells.push(run_cell(policy, kind, frac, quick));
            }
        }
    }
    cells
}

/// `(workload, local_frac)` groups where S3-FIFO's re-fault rate is
/// strictly below every other policy's.
pub fn s3fifo_win_cells(cells: &[PolicyCell]) -> Vec<(&'static str, f64)> {
    let mut wins = Vec::new();
    for kind in workloads() {
        let w = workload_name(kind);
        for &frac in &LOCAL_FRACTIONS {
            let group: Vec<&PolicyCell> = cells
                .iter()
                .filter(|c| c.workload == w && c.local_frac == frac)
                .collect();
            let Some(s3) = group.iter().find(|c| c.policy == "s3-fifo") else {
                continue;
            };
            if group
                .iter()
                .filter(|c| c.policy != "s3-fifo")
                .all(|c| s3.re_fault_rate < c.re_fault_rate)
            {
                wins.push((w, frac));
            }
        }
    }
    wins
}

/// Renders the cells as `mage-bench-policies/v1` JSON.
pub fn render_json(cells: &[PolicyCell], quick: bool) -> String {
    let frac = |f: f64| Json::num(format_args!("{f:.2}"));
    let rows = cells.iter().map(|c| {
        Json::object([
            ("policy", Json::str(c.policy)),
            ("workload", Json::str(c.workload)),
            ("local_frac", frac(c.local_frac)),
            ("mops", Json::num(format_args!("{:.4}", c.mops))),
            ("major_faults", Json::num(c.major_faults)),
            ("re_faults", Json::num(c.re_faults)),
            ("ghost_hits", Json::num(c.ghost_hits)),
            ("re_fault_rate", Json::num(format_args!("{:.6}", c.re_fault_rate))),
            ("fault_p99_ns", Json::num(c.fault_p99_ns)),
        ])
    });
    let wins = s3fifo_win_cells(cells)
        .into_iter()
        .map(|(w, f)| Json::object([("workload", Json::str(w)), ("local_frac", frac(f))]));
    Json::object([
        ("schema", Json::str(SCHEMA)),
        ("mode", Json::str(if quick { "quick" } else { "full" })),
        ("cells", Json::Array(rows.collect())),
        ("s3fifo_refault_wins", Json::Array(wins.collect())),
    ])
    .render()
}

/// Reads cell `i` back, every field by name; errors name the cell.
/// Policy and workload must be members of the swept cube.
fn cell_from_json(i: usize, row: &Json) -> Result<PolicyCell, String> {
    let text = |key| row.get(key).and_then(Json::as_str).unwrap_or("?");
    let id = format!("cell #{i} ({}, {})", text("policy"), text("workload"));
    let at = |e: String| format!("{id}: {e}");
    let pick = |key, names: Vec<&'static str>| -> Result<&'static str, String> {
        let name = row.field(key, Json::as_str).map_err(at)?;
        names
            .into_iter()
            .find(|n| *n == name)
            .ok_or_else(|| at(format!("{key} {name:?} is not swept")))
    };
    let count = |key| row.field(key, Json::as_u64).map_err(at);
    let real = |key| row.field(key, Json::as_f64).map_err(at);
    Ok(PolicyCell {
        policy: pick("policy", policies().iter().map(|p| p.name()).collect())?,
        workload: pick("workload", workloads().map(workload_name).to_vec())?,
        local_frac: real("local_frac")?,
        mops: real("mops")?,
        major_faults: count("major_faults")?,
        re_faults: count("re_faults")?,
        ghost_hits: count("ghost_hits")?,
        re_fault_rate: real("re_fault_rate")?,
        fault_p99_ns: count("fault_p99_ns")?,
    })
}

/// Validates an emitted report and returns its cells: schema marker,
/// every cell field present and well-typed, a complete cube (every
/// policy × workload × fraction cell present exactly once) and sane
/// rates.
pub fn validate_report(json: &str) -> Result<Vec<PolicyCell>, String> {
    let doc = json::parse(json)?;
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("missing schema marker {SCHEMA:?}"));
    }
    let cells = doc
        .field("cells", Json::as_array)?
        .iter()
        .enumerate()
        .map(|(i, row)| cell_from_json(i, row))
        .collect::<Result<Vec<_>, _>>()?;
    let expected = policies().len() * workloads().len() * LOCAL_FRACTIONS.len();
    if cells.len() != expected {
        return Err(format!("expected {expected} cells, found {}", cells.len()));
    }
    for policy in policies() {
        for kind in workloads() {
            for &frac in &LOCAL_FRACTIONS {
                let hits = cells
                    .iter()
                    .filter(|c| {
                        c.policy == policy.name()
                            && c.workload == workload_name(kind)
                            && (c.local_frac - frac).abs() < 1e-9
                    })
                    .count();
                if hits != 1 {
                    return Err(format!(
                        "cell ({}, {}, {frac}) appears {hits} times",
                        policy.name(),
                        workload_name(kind)
                    ));
                }
            }
        }
    }
    for c in &cells {
        if !(0.0..=1.0).contains(&c.re_fault_rate) {
            return Err(format!(
                "cell ({}, {}, {}) has re-fault rate {} outside [0, 1]",
                c.policy, c.workload, c.local_frac, c.re_fault_rate
            ));
        }
    }
    Ok(cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_parses_and_validates() {
        // Synthetic cells: the renderer/parser round-trip must not need a
        // (slow) simulation run.
        let mut cells = Vec::new();
        for kind in workloads() {
            for &frac in &LOCAL_FRACTIONS {
                for (i, policy) in policies().into_iter().enumerate() {
                    cells.push(PolicyCell {
                        policy: policy.name(),
                        workload: workload_name(kind),
                        local_frac: frac,
                        mops: 1.0 + i as f64,
                        major_faults: 1_000,
                        re_faults: 100 * (i as u64 + 1),
                        ghost_hits: 120 * (i as u64 + 1),
                        re_fault_rate: 0.1 * (i as f64 + 1.0),
                        fault_p99_ns: 10_000,
                    });
                }
            }
        }
        let json = render_json(&cells, true);
        let rows = validate_report(&json).expect("synthetic report validates");
        assert_eq!(rows.len(), cells.len());
        // S3-FIFO is listed last (highest synthetic rate) => no wins.
        assert!(s3fifo_win_cells(&cells).is_empty());
        assert!(json.contains("\"s3fifo_refault_wins\": ["));
    }

    #[test]
    fn winner_detection_requires_strict_wins() {
        let mk = |policy: &'static str, rate: f64| PolicyCell {
            policy,
            workload: "gups",
            local_frac: 0.5,
            mops: 1.0,
            major_faults: 100,
            re_faults: (rate * 100.0) as u64,
            ghost_hits: 0,
            re_fault_rate: rate,
            fault_p99_ns: 1,
        };
        let tie = vec![mk("second-chance", 0.2), mk("s3-fifo", 0.2)];
        assert!(s3fifo_win_cells(&tie).is_empty(), "ties are not wins");
        let win = vec![mk("second-chance", 0.2), mk("s3-fifo", 0.1)];
        assert_eq!(s3fifo_win_cells(&win), vec![("gups", 0.5)]);
    }
}
