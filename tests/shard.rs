//! Sharded-cell integration tests: the 1-cell shard degenerates to a
//! single fleet bit-for-bit, the merged summary is identical for every
//! worker count, live memory stays O(cells × window), and spill admission
//! routes degraded joiners to the least-loaded cell.

use qvr::prelude::*;
use qvr::scene::Benchmark;

fn mixed_spec(i: usize) -> SessionSpec {
    let apps = [
        Benchmark::Hl2H,
        Benchmark::Doom3H,
        Benchmark::Wolf,
        Benchmark::Ut3,
    ];
    SessionSpec::new(SchemeKind::Qvr, apps[i % apps.len()].profile())
}

fn template(frames: usize, seed: u64) -> FleetConfig {
    let mut t = FleetConfig::uniform(
        SystemConfig::default(),
        SchemeKind::Qvr,
        Benchmark::Hl2H.profile(),
        1, // placeholder: the shard routes its own roster
        frames,
        seed,
    );
    t.server_units = 4;
    t.link_streams = 2;
    t
}

#[test]
fn one_cell_shard_is_bit_identical_to_the_fleet() {
    // The acceptance contract: a 1-cell shard over an identical roster is
    // the same simulation as a single fleet — same seed (cell 0's seed is
    // the shard seed), same streams, same telemetry — so every merged
    // aggregate must match `Fleet::run` with `==`, no tolerance. The shard
    // runs its windowed sink deferred and the fleet streams closes, so
    // this also pins deferred-mode parity end to end.
    let mut fleet_config = template(30, 42);
    fleet_config.sessions = (0..6).map(mixed_spec).collect();
    fleet_config.telemetry = fleet_config.telemetry.with_window_ms(150.0);
    let fleet = Fleet::run(fleet_config.clone());

    let shard = Shard::run(ShardConfig::new(
        fleet_config.clone(),
        1,
        6,
        fleet_config.sessions.clone(),
    ));
    assert_eq!(shard.cells, 1);
    assert_eq!(shard.sessions, 6);
    assert!(
        shard.matches_fleet(&fleet),
        "1-cell shard must degenerate to the fleet bit-for-bit:\n  \
         shard p50/p95/p99 {}/{}/{} util {} energy {:.6} mJ\n  \
         fleet p50/p95/p99 {}/{}/{} util {} energy {:.6} mJ",
        shard.mtp_p50_ms,
        shard.mtp_p95_ms,
        shard.mtp_p99_ms,
        shard.server_utilization,
        shard.energy.total_mj(),
        fleet.mtp_p50_ms,
        fleet.mtp_p95_ms,
        fleet.mtp_p99_ms,
        fleet.server_utilization,
        fleet.energy.total_mj(),
    );
    assert_eq!(shard.windows, fleet.windows, "windowed timelines match");
}

#[test]
fn one_cell_shard_matches_fleet_with_rate_control_on() {
    // The same degeneracy contract with the closed-loop rate controller
    // active: controller state lives inside each session's stepper, so a
    // 1-cell shard's per-slot controllers see exactly the fleet's frame
    // order and the merged summary still compares with `==`.
    let mut fleet_config = template(30, 42).with_rate_control(RateControlConfig::on());
    fleet_config.sessions = (0..6).map(mixed_spec).collect();
    fleet_config.telemetry = fleet_config.telemetry.with_window_ms(150.0);
    let fleet = Fleet::run(fleet_config.clone());

    let shard = Shard::run(ShardConfig::new(
        fleet_config.clone(),
        1,
        6,
        fleet_config.sessions.clone(),
    ));
    assert!(
        shard.matches_fleet(&fleet),
        "rate-controlled 1-cell shard must still degenerate to the fleet"
    );
    assert_eq!(shard.windows, fleet.windows, "windowed timelines match");
}

#[test]
fn shard_summary_is_identical_across_worker_counts() {
    // The determinism contract that replaces wall-clock scaling curves on
    // 1-CPU CI: cells only talk through the telemetry seam and the merge
    // folds in cell-id order, so 1, 2, and 5 workers must produce the
    // same `ShardSummary` down to the last bit.
    let make = |workers: usize| {
        let mut config = ShardConfig::new(template(8, 17), 6, 8, (0..36).map(mixed_spec).collect())
            .with_workers(workers);
        config.template.telemetry = config.template.telemetry.with_window_ms(200.0);
        Shard::run(config)
    };
    let one = make(1);
    let two = make(2);
    let five = make(5);
    assert_eq!(one, two, "1 vs 2 workers");
    assert_eq!(one, five, "1 vs 5 workers");
    assert_eq!(one.sessions, 36);
    assert_eq!(one.cells, 6);
}

/// The retirement window for the bounded-memory smoke, ms. The CI job sets
/// `QVR_RETIRE_WINDOW`; locally the default keeps the test meaningful.
fn retire_window_ms() -> f64 {
    std::env::var("QVR_RETIRE_WINDOW")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(250.0)
}

#[test]
fn shard_bounded_memory_retains_o_cells_x_window_tasks() {
    // The scale claim behind the ≥100k-session sweep: each cell retires
    // its schedule history behind a window, and cells ship sink states —
    // never frame records — across the seam, so shard-wide live state is
    // O(cells × window) regardless of roster size. Debug builds run a
    // smaller instance; the release CI bounded-memory job runs the full
    // shape.
    let (cells, per_cell, frames) = if cfg!(debug_assertions) {
        (4, 8, 6)
    } else {
        (16, 32, 10)
    };
    let window_ms = retire_window_ms();
    let mut t = template(frames, 42);
    t.retire_window_ms = Some(window_ms);
    let roster = (0..cells * per_cell).map(mixed_spec).collect();
    let summary = Shard::run(ShardConfig::new(t, cells, per_cell, roster));
    assert_eq!(summary.sessions, cells * per_cell, "everyone placed");
    assert_eq!(summary.frames, cells * per_cell * frames);
    // Same per-resource O(window) cap the churn smoke pins, summed over
    // the cells: ~8 live tasks per simulated ms of window on any one
    // resource, independent of how many sessions or frames ran.
    let cap = cells * (8.0 * window_ms) as usize;
    assert!(
        summary.peak_live_tasks < cap,
        "live schedule state must stay O(cells x window): peak {} vs cap \
         {cap} ({} sessions, window {window_ms} ms)",
        summary.peak_live_tasks,
        summary.sessions,
    );
}

#[test]
fn spill_admission_routes_around_loaded_cells() {
    // Give each cell so little headroom that a full roster cannot all be
    // admitted at full share: joins must spill across cells in
    // least-loaded order and the stragglers take degraded shares or
    // rejections — and the counters must account for every join.
    let policy = AdmissionPolicy {
        probe_frames: 3,
        max_server_utilization: 0.9,
        ..AdmissionPolicy::default()
    };
    let config = ShardConfig::new(template(6, 9), 3, 4, (0..12).map(mixed_spec).collect())
        .with_admission(policy);
    let s = Shard::run(config);
    assert!(s.probes_run > 0, "admission must actually probe");
    assert_eq!(
        s.sessions + s.rejected,
        12,
        "every join is placed or rejected: {s}"
    );
    assert!(
        s.cell_sessions.iter().all(|&n| n <= 4),
        "no cell exceeds its capacity: {:?}",
        s.cell_sessions
    );
    let spread = s.cell_sessions.iter().max().unwrap() - s.cell_sessions.iter().min().unwrap();
    assert!(
        spread <= 1,
        "least-loaded routing keeps occupancy balanced: {:?}",
        s.cell_sessions
    );
}

#[test]
fn reject_only_admission_rejects_what_no_cell_can_hold() {
    // With degraded admission disabled and a hostile SLO, the shard must
    // reject (never silently place) joins that no cell's probe can hold.
    let mut policy = AdmissionPolicy::default().reject_only();
    policy.probe_frames = 3;
    policy.mtp_p95_slo_ms = 1.0; // unsatisfiable
    let config = ShardConfig::new(template(4, 5), 2, 4, (0..6).map(mixed_spec).collect())
        .with_admission(policy);
    let s = Shard::run(config);
    assert_eq!(s.sessions, 0, "nothing can hold a 1 ms p95 SLO");
    assert_eq!(s.rejected, 6);
    assert_eq!(s.degraded, 0, "reject-only control never degrades");
    assert_eq!(s.cells, 0, "empty cells never run");
}

#[test]
fn admission_cell_runs_its_controllers_roster_degraded_shares_included() {
    // Under admission a cell runs exactly what its controller admitted:
    // degraded joiners at their degraded share, rejected joiners not at
    // all. Weighted fairness makes the degraded share move the link
    // allocation, so running the requested share instead would diverge.
    let policy = AdmissionPolicy {
        probe_frames: 6,
        ..AdmissionPolicy::default()
    };
    let mut t = template(6, 9);
    t.fairness = FairnessPolicy::Weighted;
    let roster: Vec<SessionSpec> = (0..6).map(mixed_spec).collect();

    let cell = FleetConfig {
        seed: cell_seed(t.seed, 0),
        ..t.clone()
    };
    let mut controller = AdmissionController::new(cell, policy.clone());
    for spec in &roster {
        controller.offer(spec.clone());
    }
    let degraded = controller.count(AdmissionDecision::Degraded);
    assert!(degraded > 0, "the roster must force a degraded join");
    let mut fleet_config = t.clone();
    fleet_config.sessions = controller.admitted().to_vec();
    let fleet = Fleet::run(fleet_config);

    let shard = Shard::run(ShardConfig::new(t, 1, 8, roster).with_admission(policy));
    assert_eq!(shard.sessions, controller.admitted().len());
    assert_eq!(shard.degraded, degraded);
    assert!(
        shard.matches_fleet(&fleet),
        "the admission cell must run its controller's roster"
    );
}
