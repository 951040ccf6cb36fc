//! Server scheduling policy sweep: the mixed noisy-neighbour fleet under
//! class-aware GPU placement.
//!
//! The fig_fleet heterogeneous table shows non-adaptive tenants
//! (StaticCollab ships full colour+depth frames, RemoteOnly streams
//! everything) dragging the adaptive sessions down under least-loaded
//! placement: the slow tenants run whole frame-times ahead of the adaptive
//! class in simulated time, and least-loaded placement spreads their
//! heavy far-future chains over *every* unit's frontier, so the adaptive
//! tenants queue behind them on whichever unit they pick (DESIGN.md
//! §7/§9 — pool frontier coupling). This sweep re-runs exactly that
//! 8-session roster on Wi-Fi / 4G LTE / early 5G under the four
//! [`ServerPolicy`] designs and reports each tenant class's tail latency
//! and FPS floor side by side, with a uniform 8×Q-VR fleet of the same
//! size as the recovery target. Expected shape: under `QuotaPartition`
//! (GPU units 0–5 reserved for the adaptive class) and
//! `AdaptivePriority` (best-effort chains packed onto the hottest unit,
//! 50 ms aging bound), the adaptive tenants' p95 MTP and FPS floor
//! recover toward uniform-fleet levels while the Static/Remote tenants
//! keep paying their own (network-dominated) costs plus the queueing they
//! used to externalise. `MeasuredLoad` (same 6/2 split, membership by the
//! telemetry `LoadTracker` EWMA instead of scheme class) matches the
//! quota row's adaptive recovery while freeing FFR — best-effort by
//! class, light by measurement — from the heavy slice: its frame rate
//! recovers ~7× vs quota on Wi-Fi, and the fleet floor (set by the
//! network-bound Static/Remote tenants either way) stays put.

use crate::{TextTable, SEED};
use qvr::prelude::*;
use qvr::scene::Benchmark;

/// Frames per session (matches fig_fleet's multi-tenant rows).
pub const SCHED_FRAMES: usize = 120;

/// GPU units reserved for the adaptive class under the quota policy
/// (of the default 8-unit pool: 5 adaptive tenants get 6 units, the 3
/// best-effort tenants share the remaining 2).
pub const QUOTA_RESERVED: usize = 6;

/// Aging bound for packed best-effort chains under the priority policy, ms.
pub const PRIORITY_AGING_MS: f64 = 50.0;

/// EWMA server-ms/frame above which `MeasuredLoad` places a tenant on the
/// heavy slice. On the mixed roster the adaptive tenants and FFR measure
/// 0.7–3.9 ms/frame while Static and Remote measure 14–20 ms on every
/// network, so 8 ms splits the two populations with wide margin.
pub const MEASURED_HEAVY_MS: f64 = 8.0;

/// The measured-load policy cell: same 6/2 unit split as the quota row,
/// but membership decided by each tenant's *measured* server time (the
/// telemetry `LoadTracker` EWMA) instead of its scheme class — so FFR,
/// best-effort by class but light by measurement, earns light placement.
#[must_use]
pub fn measured_policy() -> ServerPolicy {
    ServerPolicy::MeasuredLoad {
        reserved: QUOTA_RESERVED,
        heavy_ms: MEASURED_HEAVY_MS,
    }
}

/// The four policies swept, default first.
#[must_use]
pub fn policies() -> [ServerPolicy; 4] {
    [
        ServerPolicy::LeastLoaded,
        ServerPolicy::QuotaPartition {
            reserved: QUOTA_RESERVED,
        },
        ServerPolicy::AdaptivePriority {
            aging_ms: PRIORITY_AGING_MS,
        },
        measured_policy(),
    ]
}

/// The fig_fleet noisy-neighbour roster: 5 adaptive tenants (4 Q-VR + DFR)
/// and 3 best-effort tenants (FFR, Static, Remote).
#[must_use]
pub fn mixed_sessions() -> Vec<SessionSpec> {
    vec![
        SessionSpec::new(SchemeKind::Qvr, Benchmark::Grid.profile()),
        SessionSpec::new(SchemeKind::Qvr, Benchmark::Doom3L.profile()),
        SessionSpec::new(SchemeKind::Qvr, Benchmark::Ut3.profile()),
        SessionSpec::new(SchemeKind::Qvr, Benchmark::Wolf.profile()),
        SessionSpec::new(SchemeKind::Dfr, Benchmark::Hl2H.profile()),
        SessionSpec::new(SchemeKind::Ffr, Benchmark::Hl2L.profile()),
        SessionSpec::new(SchemeKind::StaticCollab, Benchmark::Doom3H.profile()),
        SessionSpec::new(SchemeKind::RemoteOnly, Benchmark::Wolf.profile()),
    ]
}

/// The sweep's fleet config for one network × policy cell — public so the
/// integration tests (`tests/sched.rs`) lock exactly the fleet shape the
/// sweep runs.
#[must_use]
pub fn mixed_config(preset: NetworkPreset, policy: ServerPolicy, frames: usize) -> FleetConfig {
    let units = SystemConfig::default().remote.count() as usize;
    FleetConfig {
        system: SystemConfig::default().with_network(preset),
        sessions: mixed_sessions(),
        frames,
        seed: SEED,
        server_units: units,
        link_streams: units,
        fairness: FairnessPolicy::EqualShare,
        server_policy: policy,
        stepping: SteppingPolicy::RoundRobin,
        retire_window_ms: None,
        telemetry: TelemetryConfig::default(),
    }
}

/// Regenerates the scheduling-policy sweep.
#[must_use]
pub fn report() -> String {
    report_with(SCHED_FRAMES)
}

/// The sweep at an explicit per-session frame count (the unit test runs a
/// miniature version; `report` and the CI smoke step run the full one).
fn report_with(frames: usize) -> String {
    let adaptive: Vec<bool> = mixed_sessions()
        .iter()
        .map(|s| s.scheme.is_adaptive())
        .collect();
    let best_effort: Vec<bool> = adaptive.iter().map(|a| !a).collect();

    let mut configs = Vec::new();
    for preset in NetworkPreset::all() {
        for policy in policies() {
            configs.push(mixed_config(preset, policy, frames));
        }
        // The recovery target: a uniform 8×Q-VR fleet of the same size on
        // the same network (no noisy neighbours to isolate).
        configs.push(FleetConfig::uniform(
            SystemConfig::default().with_network(preset),
            SchemeKind::Qvr,
            Benchmark::Hl2H.profile(),
            mixed_sessions().len(),
            frames,
            SEED,
        ));
    }
    let results = Fleet::run_many(configs);

    let mut out = String::new();
    out.push_str(&format!(
        "Server scheduling policies — the mixed noisy-neighbour fleet ({} adaptive + {} \
         best-effort tenants, 8 GPU units) under {} placement policies\n",
        adaptive.iter().filter(|a| **a).count(),
        best_effort.iter().filter(|b| **b).count(),
        policies().len(),
    ));
    out.push_str(
        "least-loaded spreads the slow tenants' heavy (far-future) chains over every\n\
         unit's frontier, queueing the adaptive class behind them; quota confines them\n\
         to the unreserved slice, priority packs them onto the hottest unit, and\n\
         measured re-derives the quota split from each tenant's *streamed* server\n\
         time (freeing light-by-measurement FFR), so the adaptive tail and FPS floor\n\
         recover toward the uniform reference while the Static/Remote tenants keep\n\
         their own network-dominated latencies\n\n",
    );

    // Per preset: the policy rows plus the uniform reference.
    let rows_per_preset = policies().len() + 1;
    for (preset, preset_results) in NetworkPreset::all()
        .iter()
        .zip(results.chunks(rows_per_preset))
    {
        let mut t = TextTable::new(vec![
            "policy",
            "adaptive p95",
            "adaptive floor",
            "BE p95",
            "BE floor",
            "fleet p95",
            "fleet floor",
            "server util",
        ]);
        for (policy, s) in policies().iter().zip(preset_results) {
            t.row(vec![
                policy.label(),
                format!("{:.1} ms", s.mtp_p95_over(&adaptive)),
                format!("{:.0} FPS", s.fps_floor_over(&adaptive)),
                format!("{:.1} ms", s.mtp_p95_over(&best_effort)),
                format!("{:.0} FPS", s.fps_floor_over(&best_effort)),
                format!("{:.1} ms", s.mtp_p95_ms),
                format!("{:.0} FPS", s.fps_floor),
                format!("{:.0}%", s.server_utilization * 100.0),
            ]);
        }
        let uniform = &preset_results[policies().len()];
        t.row(vec![
            "uniform 8xQ-VR ref".to_owned(),
            format!("{:.1} ms", uniform.mtp_p95_ms),
            format!("{:.0} FPS", uniform.fps_floor),
            "-".to_owned(),
            "-".to_owned(),
            format!("{:.1} ms", uniform.mtp_p95_ms),
            format!("{:.0} FPS", uniform.fps_floor),
            format!("{:.0}%", uniform.server_utilization * 100.0),
        ]);
        out.push_str(&format!("{preset}\n"));
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_covers_the_sweep() {
        // Miniature sweep: same report structure, a fraction of the work
        // (the full SCHED_FRAMES sweep belongs to the release binary and
        // the CI smoke step, not every `cargo test`).
        let r = report_with(10);
        assert!(r.contains("Wi-Fi"));
        assert!(r.contains("4G LTE"));
        assert!(r.contains("Early 5G"));
        assert!(r.contains("least-loaded"));
        assert!(r.contains("quota(res=6)"));
        assert!(r.contains("priority(age=50ms)"));
        assert!(r.contains("measured(res=6,heavy=8ms)"));
        assert!(r.contains("adaptive p95"));
    }
}
