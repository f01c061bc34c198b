//! The committed scale benchmark behind `BENCH_scale.json`.
//!
//! Where `hotloop` measures how fast the simulator executes, this
//! harness measures how *big* a machine it can model: each scale point
//! runs a scenario whose nominal capacity (virtual cores, keyspace
//! pages, address-space pages) far exceeds what a dense per-capacity
//! representation could afford, and records the host-side cost actually
//! paid — peak RSS, sparse-metadata entries, and events per host
//! second. The metadata gauges are the proof that every per-page and
//! per-core structure is O(touched pages), not O(capacity): a dense
//! regression would blow the `validate_report` bound (or the host)
//! immediately.
//!
//! Scale points:
//!
//! * `fig5_mage_c128` / `fig5_mage_c256` — the Fig-5 fault storm pushed
//!   past the paper testbed's 56 cores onto the scaled dual-socket
//!   geometry (the 256-virtual-core sweep end point).
//! * `memcached_1m_conn_256gib` — one million Zipf-active connections
//!   over a 2^26-page (256 GiB) keyspace, lazily populated.
//! * `sparse_2p40_replicated` — scattered touches over a 2^40-page
//!   (4 PiB) address space through the replicated backend, with a local
//!   cache small enough that evictions exercise replica tracking.
//!
//! The emitted JSON (`schema: mage-bench-scale/v1`) is written and read
//! back through [`mage_sim::json`], like `hotloop`'s.

use std::rc::Rc;

// Host timing is half the point of this harness: events/sec measures
// the host executing the simulator, and peak RSS is a host gauge too.
// Nothing here reads the host clock inside virtual time.
// simlint: allow(wall-clock): events/sec needs host wall time; virtual time is the numerator, not the clock
use std::time::Instant;

use mage::{FarMemory, MachineParams, ReplicationConfig, SystemConfig};
use mage_mmu::{CoreId, Topology};
use mage_sim::json::{self, Json};
use mage_sim::Simulation;
use mage_workloads::memcached::{run_memcached, MemcachedConfig};
use mage_workloads::runner::{run_batch, RunConfig};
use mage_workloads::WorkloadKind;

/// JSON schema marker written to (and expected in) `BENCH_scale.json`.
pub const SCHEMA: &str = "mage-bench-scale/v1";

/// Sparse-metadata slack allowed by [`validate_report`]: entries may be
/// at most this multiple of touched pages (plus [`META_FLOOR`]). The
/// honest per-touch costs are small — ≤ 5 page-table nodes, ≤ 1 replica
/// record, ≤ 2 workload-tracker records — so 16× is generous headroom
/// that still catches any dense O(capacity) regression by orders of
/// magnitude.
pub const META_SLACK: u64 = 16;

/// Fixed metadata floor allowed regardless of touches (root tables,
/// allocator free-list tails, per-core structures).
pub const META_FLOOR: u64 = 4_096;

/// One measured scale point.
#[derive(Clone, Debug)]
pub struct ScalePoint {
    /// Stable scenario id.
    pub id: String,
    /// Nominal capacity of the scenario, pages (keyspace or address
    /// space) — what a dense representation would be sized by.
    pub capacity_pages: u64,
    /// Distinct pages the scenario actually touched.
    pub touched_pages: u64,
    /// Sparse-metadata entries alive at the end of the run (page-table
    /// nodes + replica records + workload trackers).
    pub metadata_entries: u64,
    /// Host wall-clock spent inside the run, milliseconds.
    pub wall_ms: f64,
    /// Final virtual time of the run, nanoseconds.
    pub virtual_ns: u64,
    /// Executor task polls the run performed.
    pub events: u64,
    /// Process peak RSS (VmHWM) sampled after the run, KiB. Monotone
    /// across the process lifetime, so later points can only report
    /// equal-or-higher values; the headline number is the last point's.
    pub peak_rss_kb: u64,
}

impl ScalePoint {
    /// Discrete events per host second.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            return 0.0;
        }
        self.events as f64 * 1e3 / self.wall_ms
    }
}

/// A full harness run.
#[derive(Clone, Debug)]
pub struct ScaleReport {
    /// `quick` shrinks the work per point (smoke tests); `full` is the
    /// committed configuration. Capacities stay at full scale in both —
    /// shrinking *those* would defeat the purpose.
    pub mode: &'static str,
    /// Per-point measurements.
    pub points: Vec<ScalePoint>,
}

/// Process peak RSS in KiB from `/proc/self/status` (`VmHWM`); 0 where
/// the proc filesystem is unavailable.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// One Fig-5-shaped fault storm at `threads` virtual cores on the
/// scaled dual-socket geometry (SeqFault, every page remote).
fn run_fig5_point(threads: usize, wss_pages: u64) -> ScalePoint {
    let mut cfg = RunConfig::new(
        SystemConfig::mage_lib(),
        WorkloadKind::SeqFault,
        threads,
        wss_pages,
        1.0,
    );
    cfg.all_remote = true;
    cfg.ops_per_thread = wss_pages / threads as u64;
    cfg.topo = Topology::dual_socket(threads.div_ceil(2) as u32);
    let t0 = Instant::now();
    let r = run_batch(&cfg);
    ScalePoint {
        id: format!("fig5_mage_c{threads}"),
        capacity_pages: wss_pages,
        touched_pages: wss_pages,
        metadata_entries: r.pt_nodes + r.replica_entries,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        virtual_ns: r.runtime_ns,
        events: r.executor_polls,
        peak_rss_kb: peak_rss_kb(),
    }
}

/// One million connections over a 256 GiB keyspace, lazily populated:
/// the host pays for requested pages and active connections only.
fn run_memcached_point(quick: bool) -> ScalePoint {
    let capacity: u64 = 1 << 26; // 2^26 pages = 256 GiB of 4 KiB pages
    let mut cfg = MemcachedConfig::paper(SystemConfig::mage_lib(), capacity);
    cfg.workers = 8;
    cfg.connections = 1_000_000;
    cfg.lazy_populate = true;
    cfg.duration_ns = if quick { 2_000_000 } else { 20_000_000 };
    let t0 = Instant::now();
    let r = run_memcached(&cfg);
    ScalePoint {
        id: "memcached_1m_conn_256gib".to_string(),
        capacity_pages: capacity,
        touched_pages: r.touched_pages,
        metadata_entries: r.pt_nodes + r.active_connections + r.touched_pages,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        virtual_ns: r.runtime_ns,
        events: r.executor_polls,
        peak_rss_kb: peak_rss_kb(),
    }
}

/// Scattered touches over a 2^40-page VMA through the replicated
/// backend. The local cache is far smaller than the touch count, so
/// evictions stream pages to the backend and the replica table tracks
/// them — all of it O(touched).
fn run_sparse_point(touched: u64) -> ScalePoint {
    const SPACE: u64 = 1 << 40; // 4 PiB of 4 KiB pages
    let t0 = Instant::now();
    let sim = Simulation::new();
    let params = MachineParams {
        topo: Topology::single_socket(8),
        app_threads: 4,
        local_pages: 1_024,
        remote_pages: SPACE,
        tlb_entries: 1_536,
        seed: 7,
    };
    let engine = FarMemory::launch(
        sim.handle(),
        SystemConfig::mage_lib().with_replication(ReplicationConfig::default()),
        params,
    );
    let vma = engine.mmap(SPACE);
    engine.populate_lazy(&vma);
    let mut joins = Vec::new();
    for t in 0..4u64 {
        let engine = Rc::clone(&engine);
        let h = sim.handle();
        let start_vpn = vma.start_vpn;
        joins.push(sim.spawn(async move {
            for i in (t..touched).step_by(4) {
                // Golden-ratio scatter: no two touches share a radix
                // subtree until the space is saturated.
                let vpn = start_vpn + i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % SPACE;
                engine.access(CoreId(t as u32), vpn, true).await;
                h.sleep(200).await;
            }
        }));
    }
    sim.block_on(async move {
        for j in joins {
            j.await;
        }
    });
    engine.shutdown();
    sim.run();
    let metadata =
        engine.page_table().node_count() as u64 + engine.backend().replica_entries();
    ScalePoint {
        id: "sparse_2p40_replicated".to_string(),
        capacity_pages: SPACE,
        touched_pages: touched,
        metadata_entries: metadata,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        virtual_ns: sim.handle().now().as_nanos(),
        events: sim.polls(),
        peak_rss_kb: peak_rss_kb(),
    }
}

/// Runs the whole harness. `quick` shrinks the *work* per point (ops,
/// duration, touch counts) for smoke tests; nominal capacities — 256
/// virtual cores, 2^26-page keyspace, million connections, 2^40-page
/// address space — are identical in both modes, because affording the
/// capacity is exactly what is being measured.
pub fn run_scale(quick: bool) -> ScaleReport {
    let (storm_wss, touched) = if quick { (8_192, 512) } else { (131_072, 4_096) };
    let points = vec![
        run_fig5_point(128, storm_wss),
        run_fig5_point(256, storm_wss),
        run_memcached_point(quick),
        run_sparse_point(touched),
    ];
    ScaleReport {
        mode: if quick { "quick" } else { "full" },
        points,
    }
}

/// Renders the report as `mage-bench-scale/v1` JSON.
pub fn render_json(report: &ScaleReport) -> String {
    let points = report.points.iter().map(|p| {
        Json::object([
            ("id", Json::str(&p.id)),
            ("capacity_pages", Json::num(p.capacity_pages)),
            ("touched_pages", Json::num(p.touched_pages)),
            ("metadata_entries", Json::num(p.metadata_entries)),
            ("wall_ms", Json::num(format_args!("{:.3}", p.wall_ms))),
            ("virtual_ns", Json::num(p.virtual_ns)),
            ("events", Json::num(p.events)),
            ("events_per_sec", Json::num(format_args!("{:.1}", p.events_per_sec()))),
            ("peak_rss_kb", Json::num(p.peak_rss_kb)),
        ])
    });
    Json::object([
        ("schema", Json::str(SCHEMA)),
        ("mode", Json::str(report.mode)),
        ("points", Json::Array(points.collect())),
    ])
    .render()
}

/// Validates an emitted report and returns its points: schema marker, at
/// least one point, every field present and well-typed, a positive
/// events/sec everywhere, and — the point of the harness — metadata
/// within [`META_SLACK`]·touched + [`META_FLOOR`] at every point. A
/// dense O(capacity) structure anywhere fails this by orders of
/// magnitude (capacity/touched is ≥ 2^14 at every point).
pub fn validate_report(json: &str) -> Result<Vec<ScalePoint>, String> {
    let doc = json::parse(json)?;
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("missing schema marker {SCHEMA:?}"));
    }
    let rows = doc.field("points", Json::as_array)?;
    if rows.is_empty() {
        return Err("no scale points found".to_string());
    }
    rows.iter().enumerate().map(|(i, row)| checked_point(i, row)).collect()
}

/// Reads point `i` back, every field by name, and checks it against the
/// schema rules; errors name the point.
fn checked_point(i: usize, row: &Json) -> Result<ScalePoint, String> {
    let id = row.field("id", Json::as_str).map_err(|e| format!("point #{i}: {e}"))?;
    let at = |e: String| format!("point {id}: {e}");
    let count = |key| row.field(key, Json::as_u64).map_err(at);
    let (cap, touched, meta) = (
        count("capacity_pages")?,
        count("touched_pages")?,
        count("metadata_entries")?,
    );
    let eps = row.field("events_per_sec", Json::as_f64).map_err(at)?;
    if eps <= 0.0 {
        return Err(format!("point {id} has non-positive events/sec {eps}"));
    }
    if touched > cap {
        return Err(format!("point {id} touched {touched} > capacity {cap}"));
    }
    let bound = META_SLACK.saturating_mul(touched).saturating_add(META_FLOOR);
    if meta > bound {
        return Err(format!(
            "point {id} metadata {meta} exceeds O(touched) bound {bound} \
             ({touched} touched of {cap} capacity): dense-metadata regression"
        ));
    }
    Ok(ScalePoint {
        id: id.to_string(),
        capacity_pages: cap,
        touched_pages: touched,
        metadata_entries: meta,
        wall_ms: row.field("wall_ms", Json::as_f64).map_err(at)?,
        virtual_ns: count("virtual_ns")?,
        events: count("events")?,
        peak_rss_kb: count("peak_rss_kb")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scale-harness smoke test: a quick run must emit valid
    /// `mage-bench-scale/v1` JSON whose every point holds the
    /// O(touched) metadata bound at full nominal capacity.
    #[test]
    fn quick_report_covers_all_points_and_validates() {
        let report = run_scale(true);
        assert_eq!(report.points.len(), 4);
        let json = render_json(&report);
        let points = validate_report(&json).expect("fresh report validates");
        assert_eq!(points.len(), report.points.len());
        // The headline capacities must survive quick mode untouched.
        let cap = |id: &str| {
            points
                .iter()
                .find(|p| p.id == id)
                .map(|p| p.capacity_pages)
                .expect("point present")
        };
        assert_eq!(cap("memcached_1m_conn_256gib"), 1 << 26);
        assert_eq!(cap("sparse_2p40_replicated"), 1 << 40);
        assert_eq!(cap("fig5_mage_c256"), cap("fig5_mage_c128"));
    }

    #[test]
    fn sparse_point_is_o_touched() {
        let p = run_sparse_point(256);
        assert_eq!(p.capacity_pages, 1 << 40);
        assert!(p.events > 0);
        assert!(
            p.metadata_entries <= META_SLACK * p.touched_pages + META_FLOOR,
            "metadata {} for {} touches",
            p.metadata_entries,
            p.touched_pages
        );
    }
}
