//! Server scheduling policy integration tests: the quota invariant
//! (best-effort work never touches reserved units), the priority property
//! (adaptive tenants' tail under `AdaptivePriority` no worse than under
//! `LeastLoaded` in the mixed noisy-neighbour fleet), the bounded aging
//! guarantee (deprioritised work still completes), determinism, and
//! `LeastLoaded` parity with the default engine.

use qvr::prelude::*;
use qvr::scene::Benchmark;

/// The canonical fig_sched noisy-neighbour roster (5 adaptive tenants —
/// 4 Q-VR + DFR — and 3 best-effort: FFR, Static, Remote) and the sweep's
/// own config builder, so these tests lock exactly the fleet shape the
/// sweep runs.
use qvr_bench::fig_sched::mixed_sessions;

fn mixed_config(policy: ServerPolicy, frames: usize) -> FleetConfig {
    qvr_bench::fig_sched::mixed_config(NetworkPreset::WiFi, policy, frames)
}

fn adaptive_mask() -> Vec<bool> {
    mixed_sessions()
        .iter()
        .map(|s| s.scheme.is_adaptive())
        .collect()
}

#[test]
fn quota_invariant_best_effort_never_touches_reserved_units() {
    // A fleet of only best-effort tenants under QuotaPartition: the
    // reserved slice of the GPU (and encoder) pool must finish the run
    // with zero busy time — no best-effort chain ever lands there.
    let reserved = 5;
    let mut config = mixed_config(ServerPolicy::QuotaPartition { reserved }, 15);
    config.sessions = vec![
        SessionSpec::new(SchemeKind::StaticCollab, Benchmark::Doom3H.profile()),
        SessionSpec::new(SchemeKind::RemoteOnly, Benchmark::Wolf.profile()),
        SessionSpec::new(SchemeKind::Ffr, Benchmark::Hl2L.profile()),
        SessionSpec::new(SchemeKind::RemoteOnly, Benchmark::Hl2H.profile()),
    ];
    let mut fleet = Fleet::new(config);
    let engine = fleet.shared_engine();
    for _ in 0..15 {
        fleet.step_round();
    }
    let units = SystemConfig::default().remote.count() as usize;
    for pool_name in ["RGPU", "SENC"] {
        let pool = engine.resource_pool(pool_name, units);
        let unit_ids = engine.pool_units(pool);
        for (i, unit) in unit_ids.iter().enumerate() {
            if i < reserved {
                assert_eq!(
                    engine.busy_ms(*unit),
                    0.0,
                    "best-effort work must never run on reserved {pool_name}[{i}]"
                );
            }
        }
        let slice_busy: f64 = unit_ids[reserved..]
            .iter()
            .map(|u| engine.busy_ms(*u))
            .sum();
        assert!(
            slice_busy > 0.0,
            "the best-effort {pool_name} slice must carry the whole load"
        );
    }
    let summary = fleet.finish();
    for s in &summary.sessions {
        assert_eq!(s.len(), 15, "confinement must not drop frames");
    }
}

#[test]
fn adaptive_only_quota_fleet_stays_inside_its_slice() {
    // The complement: an all-adaptive fleet under QuotaPartition leaves
    // the best-effort slice untouched (the partition is strict both ways).
    let reserved = 6;
    let mut config = mixed_config(ServerPolicy::QuotaPartition { reserved }, 10);
    config.sessions = (0..4)
        .map(|_| SessionSpec::new(SchemeKind::Qvr, Benchmark::Hl2H.profile()))
        .collect();
    let mut fleet = Fleet::new(config);
    let engine = fleet.shared_engine();
    for _ in 0..10 {
        fleet.step_round();
    }
    let units = SystemConfig::default().remote.count() as usize;
    let pool = engine.resource_pool("RGPU", units);
    let unit_ids = engine.pool_units(pool);
    for (i, unit) in unit_ids.iter().enumerate().skip(reserved) {
        assert_eq!(
            engine.busy_ms(*unit),
            0.0,
            "adaptive work must stay off best-effort RGPU[{i}]"
        );
    }
}

#[test]
fn priority_and_quota_do_not_worsen_the_adaptive_tail() {
    // The priority property on the mixed noisy-neighbour fleet: isolating
    // policies must leave the adaptive class's p95 MTP no worse than
    // least-loaded placement, and (at this contention level) strictly
    // better by a wide margin.
    let frames = 40;
    let adaptive = adaptive_mask();
    let base = Fleet::run(mixed_config(ServerPolicy::LeastLoaded, frames));
    let quota = Fleet::run(mixed_config(
        ServerPolicy::QuotaPartition { reserved: 6 },
        frames,
    ));
    let prio = Fleet::run(mixed_config(
        ServerPolicy::AdaptivePriority { aging_ms: 50.0 },
        frames,
    ));
    let p95 = |s: &FleetSummary| s.mtp_p95_over(&adaptive);
    assert!(
        p95(&quota) < p95(&base),
        "quota must improve the adaptive tail: {:.1} vs {:.1} ms",
        p95(&quota),
        p95(&base)
    );
    assert!(
        p95(&prio) <= p95(&base),
        "priority must not worsen the adaptive tail: {:.1} vs {:.1} ms",
        p95(&prio),
        p95(&base)
    );
    let floor = |s: &FleetSummary| s.fps_floor_over(&adaptive);
    assert!(
        floor(&quota) > floor(&base),
        "quota must lift the adaptive FPS floor: {:.0} vs {:.0}",
        floor(&quota),
        floor(&base)
    );
}

#[test]
fn aging_bound_keeps_best_effort_work_flowing() {
    // Bounded aging: packed best-effort tenants are deprioritised, never
    // starved — every session still completes every frame at a positive
    // frame rate, even with a zero aging bound (pure work-conserving
    // fallback) and a large one (maximal packing).
    for aging_ms in [0.0, 50.0, 500.0] {
        let summary = Fleet::run(mixed_config(
            ServerPolicy::AdaptivePriority { aging_ms },
            20,
        ));
        for (i, s) in summary.sessions.iter().enumerate() {
            assert_eq!(s.len(), 20, "session {i} lost frames at aging {aging_ms}");
            assert!(
                s.fps() > 0.0,
                "session {i} starved at aging {aging_ms}: {:.2} FPS",
                s.fps()
            );
        }
    }
}

#[test]
fn policy_fleets_are_deterministic() {
    for policy in [
        ServerPolicy::QuotaPartition { reserved: 6 },
        ServerPolicy::AdaptivePriority { aging_ms: 50.0 },
        qvr_bench::fig_sched::measured_policy(),
    ] {
        let a = Fleet::run(mixed_config(policy, 12));
        let b = Fleet::run(mixed_config(policy, 12));
        assert_eq!(a, b, "{policy} runs must be bit-identical");
    }
}

#[test]
fn measured_load_separates_the_mixed_roster_by_measurement() {
    // The telemetry LoadTracker drives placement: after a short run the
    // mixed roster's measured EWMAs must split exactly where the probe
    // calibrated the threshold — Static and Remote heavy, everyone else
    // (including best-effort-classed FFR) light.
    let mut fleet = Fleet::new(mixed_config(qvr_bench::fig_sched::measured_policy(), 20));
    for _ in 0..20 {
        fleet.step_round();
    }
    let heavy_ms = qvr_bench::fig_sched::MEASURED_HEAVY_MS;
    for (i, spec) in mixed_sessions().iter().enumerate() {
        let ewma = fleet.load_ewma(i).expect("every tenant measured");
        let heavy = matches!(
            spec.scheme,
            SchemeKind::StaticCollab | SchemeKind::RemoteOnly
        );
        assert_eq!(
            ewma > heavy_ms,
            heavy,
            "session {i} ({}) measured {ewma:.1} ms/frame vs threshold {heavy_ms}",
            spec.scheme
        );
    }
}

#[test]
fn measured_load_matches_or_beats_quota_on_the_mixed_roster() {
    // The PR 4 follow-up's acceptance: placement by measured load must
    // recover the adaptive tail like the class-based quota does, while the
    // fleet-wide floor does at least as well — FFR (best-effort by class,
    // light by measurement) earns light placement instead of queueing
    // behind Static/Remote on the 2-unit best-effort slice.
    let frames = 40;
    let adaptive = adaptive_mask();
    let quota = Fleet::run(mixed_config(
        ServerPolicy::QuotaPartition { reserved: 6 },
        frames,
    ));
    let measured = Fleet::run(mixed_config(
        qvr_bench::fig_sched::measured_policy(),
        frames,
    ));
    let base = Fleet::run(mixed_config(ServerPolicy::LeastLoaded, frames));
    assert!(
        measured.mtp_p95_over(&adaptive) < base.mtp_p95_over(&adaptive),
        "measured placement must recover the adaptive tail vs least-loaded: \
         {:.1} vs {:.1} ms",
        measured.mtp_p95_over(&adaptive),
        base.mtp_p95_over(&adaptive)
    );
    assert!(
        measured.mtp_p95_over(&adaptive) <= quota.mtp_p95_over(&adaptive) * 1.10,
        "measured must match the quota row's adaptive recovery: {:.1} vs {:.1} ms",
        measured.mtp_p95_over(&adaptive),
        quota.mtp_p95_over(&adaptive)
    );
    assert!(
        measured.fps_floor >= quota.fps_floor * 0.99,
        "freeing FFR from the heavy slice must not cost the fleet floor \
         (set by the network-bound heavy tenants either way): {:.2} vs {:.2} FPS",
        measured.fps_floor,
        quota.fps_floor
    );
    // The beat: FFR is best-effort by class but light by measurement, so
    // quota confines it to the 2-unit heavy slice behind Static/Remote
    // while measured placement frees it — its frame rate must recover by
    // a wide factor.
    let ffr = mixed_sessions()
        .iter()
        .position(|s| s.scheme == SchemeKind::Ffr)
        .expect("roster has an FFR tenant");
    assert!(
        measured.sessions[ffr].fps() > 4.0 * quota.sessions[ffr].fps(),
        "measured placement must free the light-by-measurement FFR tenant: \
         {:.1} vs {:.1} FPS under quota",
        measured.sessions[ffr].fps(),
        quota.sessions[ffr].fps()
    );
}

#[test]
fn least_loaded_is_the_default_and_matches_an_explicit_selection() {
    // LeastLoaded parity: the default is LeastLoaded (the engine the
    // fig_fleet goldens in tests/fleet.rs bit-pin across PRs), and for an
    // all-adaptive fleet the policies that only re-place *best-effort*
    // work must reduce to it exactly — AdaptivePriority resolves every
    // adaptive tenant to whole-pool earliest-start, so the two schedules
    // must be bit-identical despite taking different config paths.
    let uniform = FleetConfig::uniform(
        SystemConfig::default(),
        SchemeKind::Qvr,
        Benchmark::Hl2H.profile(),
        4,
        15,
        42,
    );
    assert_eq!(uniform.server_policy, ServerPolicy::LeastLoaded);
    let all_adaptive = |policy: ServerPolicy| {
        let mut c = mixed_config(policy, 15);
        c.sessions = vec![
            SessionSpec::new(SchemeKind::Qvr, Benchmark::Hl2H.profile()),
            SessionSpec::new(SchemeKind::Dfr, Benchmark::Grid.profile()),
            SessionSpec::new(SchemeKind::QvrSw, Benchmark::Doom3L.profile()),
        ];
        Fleet::run(c)
    };
    let least_loaded = all_adaptive(ServerPolicy::LeastLoaded);
    let priority = all_adaptive(ServerPolicy::AdaptivePriority { aging_ms: 50.0 });
    assert_eq!(
        least_loaded, priority,
        "priority must be a no-op for an all-adaptive fleet"
    );
}

#[test]
fn churn_fleets_accept_a_server_policy() {
    // Policies thread through open fleets: a churn run under quota is
    // deterministic and the joining best-effort tenant stays off the
    // reserved slice.
    let make = || {
        let trace = ChurnTrace::script(vec![ChurnEvent::join(
            200.0,
            SessionSpec::new(SchemeKind::RemoteOnly, Benchmark::Wolf.profile()),
        )]);
        ChurnConfig {
            server_policy: ServerPolicy::QuotaPartition { reserved: 6 },
            ..ChurnConfig::new(
                SystemConfig::default(),
                vec![
                    SessionSpec::new(SchemeKind::Qvr, Benchmark::Hl2H.profile()),
                    SessionSpec::new(SchemeKind::StaticCollab, Benchmark::Doom3H.profile()),
                ],
                trace,
                600.0,
                11,
            )
        }
    };
    let a = ChurnFleet::run(make());
    let b = ChurnFleet::run(make());
    assert_eq!(a, b, "churn under a policy must stay deterministic");
    assert_eq!(a.len(), 3);
    for t in &a.tenants {
        assert!(!t.summary.is_empty(), "every tenant renders under quota");
    }
}

#[test]
#[should_panic(expected = "at least one unit")]
fn fleet_rejects_a_quota_wider_than_the_pool() {
    let mut config = mixed_config(ServerPolicy::QuotaPartition { reserved: 8 }, 5);
    config.server_units = 8;
    let _ = Fleet::new(config);
}
