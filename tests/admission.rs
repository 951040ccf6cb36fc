//! Admission-control integration tests: determinism (same seed ⇒ same
//! admit/reject sequence) and SLO monotonicity (tightening the SLO can only
//! demote decisions at the point of divergence and never admits a strict
//! superset of sessions).

use qvr::prelude::*;
use qvr::scene::Benchmark;

/// A mixed candidate stream: four apps round-robin, every third station a
/// cell-edge (half-rate MCS) tenant.
fn candidate(i: usize) -> SessionSpec {
    let apps = [
        Benchmark::Hl2H,
        Benchmark::Doom3H,
        Benchmark::Wolf,
        Benchmark::Ut3,
    ];
    let spec = SessionSpec::new(SchemeKind::Qvr, apps[i % apps.len()].profile());
    if i % 3 == 2 {
        spec.with_share(LinkShare::default().with_mcs_efficiency(0.5))
    } else {
        spec
    }
}

fn policy(p95_slo_ms: f64, fps_floor: f64) -> AdmissionPolicy {
    let mut p = AdmissionPolicy::default()
        .with_mtp_p95_slo_ms(p95_slo_ms)
        .with_min_fps_floor(fps_floor);
    p.probe_frames = 4;
    p
}

fn run_controller(
    fairness: FairnessPolicy,
    policy: AdmissionPolicy,
    seed: u64,
    offers: usize,
) -> AdmissionController {
    // The default system's full server array, and a link with one
    // full-rate stream per server GPU.
    let cell = FleetConfig {
        fairness,
        ..FleetConfig::uniform(
            SystemConfig::default(),
            SchemeKind::Qvr,
            Benchmark::Hl2H.profile(),
            0,
            1,
            seed,
        )
    };
    let mut c = AdmissionController::new(cell, policy);
    for i in 0..offers {
        c.offer(candidate(i));
    }
    c
}

#[test]
fn same_seed_gives_the_same_admission_sequence() {
    for fairness in FairnessPolicy::all() {
        let a = run_controller(fairness, policy(26.0, 70.0), 42, 8);
        let b = run_controller(fairness, policy(26.0, 70.0), 42, 8);
        assert_eq!(a.decisions(), b.decisions(), "{fairness}");
        assert_eq!(a.admitted().len(), b.admitted().len(), "{fairness}");
        for (x, y) in a.admitted().iter().zip(b.admitted()) {
            assert_eq!(x.share, y.share, "{fairness}: admitted shares must match");
        }
        assert_eq!(a.protected(), b.protected(), "{fairness}");
    }
}

#[test]
fn different_seeds_may_disagree_but_both_hold_their_slo() {
    let a = run_controller(FairnessPolicy::Weighted, policy(26.0, 70.0), 1, 8);
    let b = run_controller(FairnessPolicy::Weighted, policy(26.0, 70.0), 2, 8);
    for c in [&a, &b] {
        if let Some((p95, floor)) = c.protected_metrics() {
            assert!(p95 <= 26.0, "protected p95 {p95:.1} must hold the SLO");
            assert!(
                floor >= 70.0,
                "protected floor {floor:.0} must hold the SLO"
            );
        }
    }
}

#[test]
fn tightening_the_slo_only_demotes_at_the_first_divergence() {
    // Reject-only control so the decision rule's pointwise monotonicity is
    // directly observable: up to the first divergent offer both controllers
    // hold identical rosters, so the probes are identical, and the stricter
    // SLO can only turn that offer's Admit into a Reject.
    let loose = policy(30.0, 60.0).reject_only();
    let tight = policy(24.0, 75.0).reject_only();
    assert!(tight.tightens(&loose));
    let l = run_controller(FairnessPolicy::EqualShare, loose, 42, 10);
    let t = run_controller(FairnessPolicy::EqualShare, tight, 42, 10);
    let first_divergence = l
        .decisions()
        .iter()
        .zip(t.decisions())
        .position(|(dl, dt)| dl != dt);
    if let Some(i) = first_divergence {
        assert_eq!(
            l.decisions()[i],
            AdmissionDecision::Admitted,
            "at the first divergence the looser SLO must be the one admitting"
        );
        assert_eq!(
            t.decisions()[i],
            AdmissionDecision::Rejected,
            "at the first divergence the tighter SLO must be the one rejecting"
        );
    } else {
        // No divergence at all is legal (the SLO gap never bound); the
        // sequences must then be identical.
        assert_eq!(l.decisions(), t.decisions());
    }
}

#[test]
fn tightening_the_slo_never_admits_a_superset() {
    // After the first divergence the rosters differ, so later decisions may
    // go either way — but the tighter controller can never end up having
    // admitted a strict superset of the looser one's sessions.
    for (fairness, seed) in [
        (FairnessPolicy::EqualShare, 42u64),
        (FairnessPolicy::Weighted, 42),
        (FairnessPolicy::Airtime, 7),
    ] {
        let loose = policy(30.0, 60.0).reject_only();
        let tight = policy(24.0, 75.0).reject_only();
        let l = run_controller(fairness, loose, seed, 10);
        let t = run_controller(fairness, tight, seed, 10);
        let joined = |c: &AdmissionController| -> Vec<usize> {
            c.decisions()
                .iter()
                .enumerate()
                .filter(|(_, d)| d.joined())
                .map(|(i, _)| i)
                .collect()
        };
        let lj = joined(&l);
        let tj = joined(&t);
        let strict_superset = tj.len() > lj.len() && lj.iter().all(|i| tj.contains(i));
        assert!(
            !strict_superset,
            "{fairness}: tight SLO admitted a strict superset: {tj:?} over {lj:?}"
        );
        assert!(
            tj.len() <= l.offered(),
            "sanity: decisions cover every offer"
        );
    }
}

#[test]
fn admitted_fleet_config_reruns_deterministically() {
    // The controller's final roster must itself be a deterministic fleet:
    // running it twice gives bit-identical summaries (the property the
    // whole probe-based scheme relies on).
    let c = run_controller(FairnessPolicy::Weighted, policy(28.0, 60.0), 42, 8);
    let config = c.fleet_config(12).expect("something must admit");
    let a = Fleet::run(config.clone());
    let b = Fleet::run(config);
    assert_eq!(a, b);
}
