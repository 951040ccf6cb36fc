//! Admission-control sweep: offered load vs. admitted load vs. tail latency
//! under an SLO, for each link-fairness mode on Wi-Fi / 4G LTE / early 5G.
//!
//! Not a paper artefact — the natural operations layer above the fleet
//! engine: an [`AdmissionController`] gates a stream of joining sessions so
//! the tenants already admitted keep their p95 motion-to-photon SLO. The
//! expected shape, per network and fairness mode: everything admits while
//! the offered load fits the server pool and the link, then the
//! degrade/reject rate climbs with offered load while the *admitted* fleet's
//! p95 stays pinned under the SLO (that is the whole point of admission
//! control — fig_fleet shows the tail blowing up without it).
//!
//! The offered population cycles four apps; every third candidate is a
//! cell-edge tenant (half-rate MCS). The fairness modes trade off who pays
//! for those slow stations: byte-fair `weighted` arbitration admits them at
//! full service by billing the whole cell (running the protected class
//! closer to the SLO), while `airtime` fairness shields the cell so
//! cell-edge stations can only come in best-effort (degraded) or not at
//! all. Under `equal-share` a degraded probe differs from a full one only
//! by the candidate's rate cap and its SLO exemption — the joiner's
//! occupancy debit on everyone else cannot be discounted — so degraded
//! admission rarely helps there and the dominant valve is rejection.

use crate::{TextTable, SEED};
use qvr::prelude::*;
use qvr::scene::Benchmark;

/// Sessions offered to each controller.
pub const OFFERED: usize = 32;

/// Frames per admission probe (the controller's look-ahead horizon).
pub const PROBE_FRAMES: usize = 24;

/// Offered-load checkpoints reported per table row.
pub const CHECKPOINTS: [usize; 4] = [8, 16, 24, 32];

/// The candidate stream: four apps round-robin, every third station at
/// half-rate MCS (a cell-edge tenant).
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

/// The cell the sweep admits into: the system's full server array and a
/// link with one full-rate stream per server GPU, under `fairness`.
fn cell(system: SystemConfig, fairness: FairnessPolicy) -> FleetConfig {
    FleetConfig {
        fairness,
        ..FleetConfig::uniform(
            system,
            SchemeKind::Qvr,
            Benchmark::Hl2H.profile(),
            0,
            PROBE_FRAMES,
            SEED,
        )
    }
}

/// The per-preset SLO, self-calibrated off a single-tenant probe so one
/// knob fits all three networks: p95 ≤ 1.5× the solo p95, FPS floor ≥ 0.75×
/// the solo rate.
fn slo_for(system: &SystemConfig) -> AdmissionPolicy {
    let solo = Fleet::run(FleetConfig::uniform(
        *system,
        SchemeKind::Qvr,
        Benchmark::Hl2H.profile(),
        1,
        PROBE_FRAMES,
        SEED,
    ));
    let mut policy = AdmissionPolicy::default()
        .with_mtp_p95_slo_ms(1.5 * solo.mtp_p95_ms)
        .with_min_fps_floor(0.75 * solo.fps_floor);
    policy.probe_frames = PROBE_FRAMES;
    policy.degraded =
        Some(LinkShare::weighted(0.5).with_cap_mbps(0.5 * system.network.download_mbps()));
    policy
}

/// Regenerates the admission sweep.
#[must_use]
pub fn report() -> String {
    report_with(&NetworkPreset::all(), OFFERED, PROBE_FRAMES)
}

/// The sweep over explicit presets/offered-load (the unit test runs a
/// miniature version; `report` runs the full one).
fn report_with(presets: &[NetworkPreset], offered: usize, probe_frames: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "SLO admission control — {offered} offered Q-VR sessions (4 apps, every 3rd at \n\
         half-rate MCS), probe horizon {probe_frames} frames, per-preset SLO = 1.5x solo p95\n\
         Admission holds the admitted fleet's p95 under the SLO; the degrade/reject\n\
         rate is the release valve that rises with offered load instead of the tail\n\n",
    ));
    for preset in presets {
        let system = SystemConfig::default().with_network(*preset);
        let mut policy = slo_for(&system);
        policy.probe_frames = probe_frames;
        // p95/floor columns cover the protected class — the SLO
        // constituency; degraded tenants ride best-effort outside it.
        let mut t = TextTable::new(vec![
            "fairness",
            "offered",
            "admitted",
            "degraded",
            "rejected",
            "prot p95",
            "prot floor",
            "pool util",
        ]);
        for fairness in FairnessPolicy::all() {
            let mut controller = AdmissionController::new(cell(system, fairness), policy.clone());
            let mut checkpoint_iter = CHECKPOINTS.iter().filter(|c| **c <= offered).peekable();
            for i in 0..offered {
                controller.offer(candidate(i));
                if checkpoint_iter.peek() == Some(&&(i + 1)) {
                    checkpoint_iter.next();
                    // p95/floor over the *protected* class (the SLO
                    // constituency); utilization is fleet-wide.
                    let (p95, floor) = controller.protected_metrics().unwrap_or((0.0, 0.0));
                    let util = controller
                        .accepted_summary()
                        .map_or(0.0, |s| s.server_utilization);
                    t.row(vec![
                        fairness.label().to_owned(),
                        format!("{}", i + 1),
                        format!("{}", controller.count(AdmissionDecision::Admitted)),
                        format!("{}", controller.count(AdmissionDecision::Degraded)),
                        format!("{}", controller.count(AdmissionDecision::Rejected)),
                        format!("{p95:.1} ms"),
                        format!("{floor:.0}"),
                        format!("{:.0}%", util * 100.0),
                    ]);
                }
            }
        }
        out.push_str(&format!(
            "{preset} — SLO: p95 <= {:.1} ms, FPS floor >= {:.0}\n",
            policy.mtp_p95_slo_ms, policy.min_fps_floor
        ));
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_covers_the_sweep_and_respects_the_slo() {
        // Miniature sweep: one preset, few offers, short probes (the full
        // OFFERED x PROBE_FRAMES x 3-preset sweep belongs to the release
        // binary, not every `cargo test`).
        let r = report_with(&[NetworkPreset::WiFi], 8, 6);
        assert!(r.contains("Wi-Fi"));
        assert!(r.contains("equal-share"));
        assert!(r.contains("weighted"));
        assert!(r.contains("airtime"));
        assert!(r.contains("SLO"));
    }

    #[test]
    fn admitted_fleet_meets_the_slo_while_rejections_rise() {
        // The acceptance-shape claim on a small instance: offers keep
        // arriving, some get refused, and the admitted roster's probe p95
        // never breaks the SLO.
        let system = SystemConfig::default();
        let mut policy = slo_for(&system);
        policy.probe_frames = 8;
        let mut c =
            AdmissionController::new(cell(system, FairnessPolicy::Weighted), policy.clone());
        for i in 0..12 {
            c.offer(candidate(i));
        }
        let (p95, _) = c.protected_metrics().expect("something must admit");
        assert!(
            p95 <= policy.mtp_p95_slo_ms,
            "protected p95 {p95:.1} ms must hold the SLO {:.1} ms",
            policy.mtp_p95_slo_ms
        );
        assert!(
            c.count(AdmissionDecision::Rejected) + c.count(AdmissionDecision::Degraded) > 0,
            "12 offers on an 8-unit pool must trip the SLO valve"
        );
    }
}
