//! Fleet energy sweep: energy per delivered frame across session counts ×
//! networks × server scheduling policies.
//!
//! Closes the ROADMAP's fleet-energy item through the telemetry stack: the
//! `EnergyMeter` sink streams per-frame server busy attribution (render +
//! encode ms × `ServerPowerModel`), access-point activity (`ApPowerModel`),
//! and folds in every headset's own energy at finalisation — reported on
//! `FleetSummary.energy`. This sweep scales a mixed roster 1→32 sessions on
//! the default 8-GPU server over Wi-Fi / 4G LTE / early 5G under three
//! placement policies, and reports millijoules **per delivered frame**
//! (total fleet energy over total frames displayed).
//!
//! Expected shape: per-frame infrastructure energy *falls* with session
//! count while the pool amortises its idle floor (Wi-Fi server mJ/frame:
//! ~1500 at 1 session → ~490 at 4), then *climbs back up* past pool
//! capacity — oversubscription stretches every schedule and the idle
//! floor grows with the makespan (~1050 at 16, ~1430 at 32), so the
//! energy-per-frame sweet spot sits right at pool capacity; total fleet
//! energy grows monotonically with the session count throughout.
//! Placement policies shift the
//! numbers measurably wherever they change queueing — a policy that
//! stretches the fleet's makespan pays for it in idle-floor energy, and
//! adaptive tenants that re-balance under contention shift work (and
//! joules) between the server pool, the link, and their own GPUs.

use crate::fig_sched::measured_policy;
use crate::{TextTable, SEED};
use qvr::prelude::*;
use qvr::scene::Benchmark;

/// Frames per session (shorter than fig_fleet's rows: the 32-session cells
/// dominate the sweep's runtime).
pub const ENERGY_FRAMES: usize = 96;

/// The session counts swept, 1→32 around the 8-unit pool.
pub const ENERGY_SIZES: [usize; 4] = [1, 4, 16, 32];

/// The placement policies compared (the priority policy adds nothing
/// energy-specific over quota; measured-load is the PR 5 addition).
#[must_use]
pub fn policies() -> [ServerPolicy; 3] {
    [
        ServerPolicy::LeastLoaded,
        ServerPolicy::QuotaPartition { reserved: 6 },
        measured_policy(),
    ]
}

/// The first `n` tenants of a repeating mixed pattern (adaptive-heavy,
/// like a real cell: Q-VR majority with a DFR user, an FFR user, and two
/// noisy non-adaptive tenants per 8).
#[must_use]
pub fn roster(n: usize) -> Vec<SessionSpec> {
    let pattern: [(SchemeKind, Benchmark); 8] = [
        (SchemeKind::Qvr, Benchmark::Grid),
        (SchemeKind::Qvr, Benchmark::Doom3L),
        (SchemeKind::Dfr, Benchmark::Hl2H),
        (SchemeKind::Ffr, Benchmark::Hl2L),
        (SchemeKind::Qvr, Benchmark::Ut3),
        (SchemeKind::StaticCollab, Benchmark::Doom3H),
        (SchemeKind::Qvr, Benchmark::Wolf),
        (SchemeKind::RemoteOnly, Benchmark::Wolf),
    ];
    (0..n)
        .map(|i| {
            let (scheme, bench) = pattern[i % pattern.len()];
            SessionSpec::new(scheme, bench.profile())
        })
        .collect()
}

/// The sweep's fleet config for one `(preset, policy, n)` cell.
#[must_use]
pub fn energy_config(
    preset: NetworkPreset,
    policy: ServerPolicy,
    n: usize,
    frames: usize,
) -> FleetConfig {
    let units = SystemConfig::default().remote.count() as usize;
    FleetConfig {
        system: SystemConfig::default().with_network(preset),
        sessions: roster(n),
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

/// Regenerates the fleet energy sweep.
#[must_use]
pub fn report() -> String {
    report_with(&ENERGY_SIZES, ENERGY_FRAMES)
}

/// The sweep over explicit sizes and frames (the unit test runs a
/// miniature version; `report` and the CI smoke step run the full one).
fn report_with(sizes: &[usize], frames: usize) -> String {
    let mut configs = Vec::new();
    for preset in NetworkPreset::all() {
        for &n in sizes {
            for policy in policies() {
                configs.push(energy_config(preset, policy, n, frames));
            }
        }
    }
    let results = Fleet::run_many(configs);

    let mut out = String::new();
    out.push_str(&format!(
        "Fleet energy — mixed roster × {} sessions × 3 placement policies, mJ per \
         delivered frame\n",
        sizes
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join("/"),
    ));
    out.push_str(
        "server = pool render+encode active energy + idle floor; AP = access-point\n\
         radio active + idle; client = every headset's own GPU/radio/decoder/\n\
         accelerators. Per-frame infrastructure energy amortises with the crowd\n\
         (the idle floor splits across more frames) and placement shifts it\n\
         wherever queueing stretches the schedule.\n\n",
    );

    let cells_per_preset = sizes.len() * policies().len();
    for (preset, preset_results) in NetworkPreset::all()
        .iter()
        .zip(results.chunks(cells_per_preset))
    {
        let mut t = TextTable::new(vec![
            "sessions",
            "policy",
            "server mJ/f",
            "AP mJ/f",
            "client mJ/f",
            "total mJ/f",
            "fleet J",
            "p95 MTP",
        ]);
        let mut cell = preset_results.iter();
        for &n in sizes {
            for policy in policies() {
                let s = cell.next().expect("one result per cell");
                let frames_delivered: usize = s.sessions.iter().map(RunSummary::len).sum();
                let per = |mj: f64| mj / frames_delivered as f64;
                t.row(vec![
                    format!("{n}"),
                    policy.label(),
                    format!("{:.1}", per(s.energy.server_mj())),
                    format!("{:.1}", per(s.energy.ap_radio_mj)),
                    format!("{:.1}", per(s.energy.client_mj)),
                    format!("{:.1}", per(s.energy.total_mj())),
                    format!("{:.1}", s.energy.total_mj() / 1_000.0),
                    format!("{:.1} ms", s.mtp_p95_ms),
                ]);
            }
        }
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
        let r = report_with(&[1, 2], 8);
        assert!(r.contains("Wi-Fi"));
        assert!(r.contains("4G LTE"));
        assert!(r.contains("Early 5G"));
        assert!(r.contains("least-loaded"));
        assert!(r.contains("quota(res=6)"));
        assert!(r.contains("measured(res=6,heavy=8ms)"));
        assert!(r.contains("total mJ/f"));
    }

    #[test]
    fn fleet_energy_grows_with_session_count() {
        // The acceptance shape at miniature scale: total fleet energy must
        // grow with the session count on every preset (more tenants → more
        // server busy, more link activity, more headsets burning).
        for preset in NetworkPreset::all() {
            let small = Fleet::run(energy_config(preset, ServerPolicy::LeastLoaded, 2, 12));
            let big = Fleet::run(energy_config(preset, ServerPolicy::LeastLoaded, 8, 12));
            assert!(
                big.energy.total_mj() > small.energy.total_mj(),
                "{preset}: 8 sessions must burn more than 2: {:.0} vs {:.0} mJ",
                big.energy.total_mj(),
                small.energy.total_mj()
            );
            assert!(big.energy.server_render_mj > small.energy.server_render_mj);
            assert!(big.energy.client_mj > small.energy.client_mj);
        }
    }
}
