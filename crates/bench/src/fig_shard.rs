//! Sharded-cell sweep: the ≥100k-session regime.
//!
//! Not a paper artefact — the scale-out layer above the fleet engine
//! (DESIGN.md §12). Four views:
//!
//! 1. **Merge identity**: a 1-cell shard over an identical roster must
//!    reproduce `Fleet::run` *bit for bit* — percentiles, FPS statistics,
//!    utilisation, energy, and the windowed timeline all compare with
//!    `==`. This is the merge laws' end-to-end receipt.
//! 2. **Spill admission**: joins route to the least-loaded cell, spill
//!    across cells when a probe fails at full share, and degrade or bounce
//!    only when no cell can hold them.
//! 3. **Worker scaling**: the same shard stepped on 1/2/4 workers — the
//!    merged `ShardSummary` is asserted identical across all of them
//!    (cells only talk through the telemetry seam), and wall-clock rates
//!    are reported per worker count. On a single-core runner the rates are
//!    flat; the determinism assertion is the portable guarantee.
//! 4. **The ≥100k sweep**: one shard stepping >100,000 concurrent
//!    sessions with windowed task retirement — live schedule state stays
//!    O(cells × window) while sessions-stepped/sec holds the single-fleet
//!    rate (near-linear scaling in cell count).

// qvr-lint: module(report)

use crate::{TextTable, SEED};
use qvr::prelude::*;
use qvr::scene::Benchmark;
use std::time::Instant;

/// Cells in the full sweep (a cell is one AP/server "room": ~32 headsets
/// is the occupancy the 300 ms retirement window comfortably covers).
pub const SWEEP_CELLS: usize = 3_200;
/// Sessions per cell in the full sweep (3,200 × 32 = 102,400 sessions).
pub const SWEEP_PER_CELL: usize = 32;
/// Per-session frame budget of the full sweep.
pub const SWEEP_FRAMES: usize = 3;
/// Engine-history retirement window, ms (the O(cells × window) knob).
pub const RETIRE_WINDOW_MS: f64 = 300.0;

/// The sweep's mixed roster: four apps round-robin.
fn spec(i: usize) -> SessionSpec {
    let apps = [
        Benchmark::Hl2H,
        Benchmark::Doom3H,
        Benchmark::Wolf,
        Benchmark::Ut3,
    ];
    SessionSpec::new(SchemeKind::Qvr, apps[i % apps.len()].profile())
}

/// The per-cell fleet template: 4 GPU units + 2 link streams per cell,
/// windowed retirement on.
fn template(frames: usize) -> FleetConfig {
    let mut t = FleetConfig::uniform(
        SystemConfig::default(),
        SchemeKind::Qvr,
        Benchmark::Hl2H.profile(),
        1, // placeholder: the shard routes its own roster
        frames,
        SEED,
    );
    t.server_units = 4;
    t.link_streams = 2;
    t.retire_window_ms = Some(RETIRE_WINDOW_MS);
    t
}

/// The sweep's shard config over `cells × per_cell` sessions.
#[must_use]
fn shard_config(cells: usize, per_cell: usize, frames: usize) -> ShardConfig {
    ShardConfig::new(
        template(frames),
        cells,
        per_cell,
        (0..cells * per_cell).map(spec).collect(),
    )
}

/// The 1-cell degeneracy receipt: shard == fleet, bit for bit.
fn identity_report() -> String {
    let mut config = template(30);
    config.sessions = (0..6).map(spec).collect();
    config.telemetry = config.telemetry.with_window_ms(150.0).with_metrics();
    let fleet = Fleet::run(config.clone());
    let shard = Shard::run(ShardConfig::new(config.clone(), 1, 6, config.sessions));
    assert!(
        shard.matches_fleet(&fleet),
        "1-cell shard diverged from the fleet: {shard} vs {fleet}"
    );
    let exposition_lines = shard.exposition.as_deref().map_or(0, |e| e.lines().count());
    assert!(exposition_lines > 0, "metrics exposition must be present");
    format!(
        "Merge identity: a 1-cell shard over the fleet's roster reproduces\n\
         Fleet::run bit for bit (p50/p95/p99 {:.2}/{:.2}/{:.2} ms, util\n\
         {:.3}, energy {:.1} mJ, {} windows, {exposition_lines}-line metrics\n\
         exposition) — asserted with `==`, no tolerance; the exposition text\n\
         itself compares byte-identical.\n\n",
        shard.mtp_p50_ms,
        shard.mtp_p95_ms,
        shard.mtp_p99_ms,
        shard.server_utilization,
        shard.energy.total_mj(),
        shard.windows.len(),
    )
}

/// The spill-admission demo: more joins than any cell holds at full share.
fn spill_report() -> String {
    let policy = AdmissionPolicy {
        probe_frames: 3,
        max_server_utilization: 0.9,
        ..AdmissionPolicy::default()
    };
    let config = ShardConfig::new(template(6), 3, 4, (0..12).map(spec).collect())
        .with_admission(policy)
        .with_workers(1);
    let s = Shard::run(config);
    format!(
        "Spill admission: 12 joins over 3 cells x 4 slots, full-share probes\n\
         in least-loaded order, degraded fallback at the least-loaded cell.\n\
         {} placed {:?} across cells; {} spilled, {} degraded, {} rejected,\n\
         {} probe fleets run.\n\n",
        s.sessions, s.cell_sessions, s.spilled, s.degraded, s.rejected, s.probes_run,
    )
}

/// Runs one shard shape at each worker count, asserting the merged
/// summaries identical and reporting per-count wall-clock rates.
fn scaling_report(cells: usize, per_cell: usize, frames: usize, workers: &[usize]) -> String {
    let mut out = format!(
        "Worker scaling: {cells} cells x {per_cell} sessions x {frames} \
         frames, identical\nmerged summary asserted across worker counts \
         (rates are runner-dependent;\non a 1-core runner they are flat).\n\n",
    );
    let mut t = TextTable::new(vec![
        "workers",
        "sessions",
        "frames",
        "wall",
        "sessions/s",
        "frames/s",
    ]);
    let mut baseline: Option<ShardSummary> = None;
    for &w in workers {
        let t0 = Instant::now();
        let s = Shard::run(shard_config(cells, per_cell, frames).with_workers(w));
        let wall = t0.elapsed().as_secs_f64().max(1e-9);
        t.row(vec![
            format!("{w}"),
            format!("{}", s.sessions),
            format!("{}", s.frames),
            // At least three digits, so the column (and the header that
            // `run_all.expected` pins) is as wide under 100 ms as under 1 s.
            format!("{:>3.0} ms", wall * 1e3),
            format!("{:.0}", s.sessions as f64 / wall),
            format!("{:.0}", s.frames as f64 / wall),
        ]);
        match &baseline {
            None => baseline = Some(s),
            Some(b) => assert_eq!(
                *b, s,
                "shard summary must be identical across worker counts"
            ),
        }
    }
    out.push_str(&t.render());
    out.push('\n');
    out
}

/// The headline run: one shard at full size, rate + memory receipt.
fn sweep_line(cells: usize, per_cell: usize, frames: usize) -> String {
    let t0 = Instant::now();
    let s = Shard::run(shard_config(cells, per_cell, frames));
    let wall = t0.elapsed().as_secs_f64().max(1e-9);
    let cap = cells * (8.0 * RETIRE_WINDOW_MS) as usize;
    assert!(
        s.peak_live_tasks < cap,
        "live schedule state must stay O(cells x window): peak {} vs cap {cap}",
        s.peak_live_tasks
    );
    format!(
        "Sweep: {} concurrent sessions over {} cells ({} frames each) in\n\
         {:.1} s — {:.0} sessions-stepped/s, {:.0} frames-stepped/s; MTP\n\
         p50/p95/p99 {:.1}/{:.1}/{:.1} ms, FPS floor {:.0}, util {:.0}%.\n\
         Peak live schedule state {} tasks vs the O(cells x window) cap of\n\
         {cap} ({} cells x 8 tasks/ms x {:.0} ms window) — cells ship sink\n\
         states across the seam, never frame histories.\n",
        s.sessions,
        s.cells,
        frames,
        wall,
        s.sessions as f64 / wall,
        s.frames as f64 / wall,
        s.mtp_p50_ms,
        s.mtp_p95_ms,
        s.mtp_p99_ms,
        s.fps_floor,
        s.server_utilization * 100.0,
        s.peak_live_tasks,
        s.cells,
        RETIRE_WINDOW_MS,
    )
}

/// A stable digest of one shard run at an explicit worker count.
///
/// Hashes the merged `ShardSummary`'s full `Debug` form (every field:
/// percentiles, utilisation, energy, incidents, windowed timeline, and
/// the metrics exposition) with FNV-1a. Wall-clock never enters the
/// summary, so two invocations — at *any* worker counts — must agree bit
/// for bit. The determinism smoke test pins exactly that.
#[must_use]
pub fn determinism_digest(cells: usize, per_cell: usize, frames: usize, workers: usize) -> u64 {
    let s = Shard::run(shard_config(cells, per_cell, frames).with_workers(workers));
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in format!("{s:?}").bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Regenerates the full sharded-cell sweep (the ≥100k-session run).
#[must_use]
pub fn report() -> String {
    report_with(SWEEP_CELLS, SWEEP_PER_CELL, SWEEP_FRAMES, &[1, 2, 4])
}

/// The sweep at explicit sizes (the CI smoke and unit tests run miniature
/// versions; `report` runs the full 102,400-session shape).
#[must_use]
pub fn report_with(cells: usize, per_cell: usize, frames: usize, workers: &[usize]) -> String {
    let mut out = format!(
        "Sharded fleet cells — {} sessions over {cells} independent cells\n\
         (4 GPU units + 2 link streams each), communicating only through\n\
         the telemetry seam: per-cell sink states merge into one\n\
         fleet-identical ShardSummary (DESIGN.md §12).\n\n",
        cells * per_cell,
    );
    out.push_str(&identity_report());
    out.push_str(&spill_report());
    // Worker scaling on a mid-size shard (the full shape would triple the
    // sweep's runtime for identical rows on a small runner).
    out.push_str(&scaling_report(
        cells.min(64),
        per_cell.min(32),
        frames.max(4),
        workers,
    ));
    out.push_str(&sweep_line(cells, per_cell, frames));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_covers_the_sweep() {
        // Miniature: 6 cells x 8 sessions (the 102,400-session shape
        // belongs to the release binary, not every `cargo test`).
        let r = report_with(6, 8, 3, &[1, 2]);
        assert!(r.contains("48 sessions over 6"));
        assert!(r.contains("bit for bit"));
        assert!(r.contains("Spill admission"));
        assert!(r.contains("sessions-stepped/s"));
        assert!(r.contains("O(cells x window)"));
    }

    #[test]
    fn sweep_shape_counts_every_session_and_frame() {
        let s = Shard::run(shard_config(4, 8, 3));
        assert_eq!(s.sessions, 32);
        assert_eq!(s.frames, 32 * 3);
        assert_eq!(s.cell_sessions, vec![8, 8, 8, 8]);
    }
}
