//! Session-churn sweep: open fleets with joins, leaves, admission, and
//! reclaim-driven upgrades on Wi-Fi / 4G LTE / early 5G.
//!
//! Not a paper artefact — the dynamics layer above the fleet engine. Two
//! views:
//!
//! 1. **Burst narrative** (per network): a small protected roster absorbs a
//!    join burst mid-run — the windowed p95 motion-to-photon series spikes
//!    while the burst holds (extra tenants come in degraded/best-effort or
//!    bounce off admission), then a leave burst frees headroom and the
//!    admission controller's reclaim pass upgrades best-effort tenants back
//!    to their requested shares, letting the tail recover.
//! 2. **Arrival-rate sweep**: seeded Poisson arrivals with exponential
//!    holding times at increasing offered rates, with windowed task
//!    retirement on — offered load turns into rejects/degrades rather than
//!    unbounded tails, and per-resource retained engine state stays
//!    O(window) no matter how long the run (the bounded-memory claim the
//!    CI smoke job pins at 64 sessions).

use crate::{TextTable, SEED};
use qvr::prelude::*;
use qvr::scene::Benchmark;

/// Virtual-time horizon of the burst narrative, ms.
pub const BURST_HORIZON_MS: f64 = 2_200.0;

/// Virtual-time horizon of the arrival-rate sweep, ms.
pub const SWEEP_HORIZON_MS: f64 = 2_500.0;

/// Windowed-p95 bucket width, ms.
pub const WINDOW_MS: f64 = 275.0;

/// Engine-history retirement window used by the sweep, ms.
pub const RETIRE_WINDOW_MS: f64 = 300.0;

/// A non-adaptive heavy tenant (streams full frames, so its link share —
/// not a controller — decides its latency; churn dynamics show undamped).
fn heavy() -> SessionSpec {
    SessionSpec::new(SchemeKind::RemoteOnly, Benchmark::Hl2H.profile())
}

/// An adaptive Q-VR tenant for the arrival sweep.
fn adaptive(i: usize) -> SessionSpec {
    let apps = [
        Benchmark::Hl2H,
        Benchmark::Doom3H,
        Benchmark::Wolf,
        Benchmark::Ut3,
    ];
    SessionSpec::new(SchemeKind::Qvr, apps[i % apps.len()].profile())
}

/// The burst SLO, calibrated per network off a 2-tenant probe so one knob
/// fits all three presets: p95 ≤ 1.4× the duo's p95, with degraded
/// admission at a quarter weight (the valve the reclaim pass later opens).
fn burst_policy(system: &SystemConfig, probe_frames: usize) -> AdmissionPolicy {
    let duo = Fleet::run(FleetConfig {
        system: *system,
        sessions: vec![heavy(), heavy()],
        frames: probe_frames,
        seed: SEED,
        server_units: 8,
        link_streams: 2,
        fairness: FairnessPolicy::Weighted,
        server_policy: ServerPolicy::default(),
        stepping: SteppingPolicy::RoundRobin,
        retire_window_ms: None,
        telemetry: TelemetryConfig::default(),
    });
    let mut policy = AdmissionPolicy::default()
        .with_mtp_p95_slo_ms(1.4 * duo.mtp_p95_ms)
        .with_min_fps_floor(0.3 * duo.fps_floor);
    policy.probe_frames = probe_frames;
    policy.degraded = Some(LinkShare::weighted(0.25));
    policy
}

/// The scripted burst: 2 initial tenants, a 3-join burst at 600 ms, a
/// 2-leave burst at 1400 ms (both initial members), horizon 2.2 s.
fn burst_config(system: SystemConfig, probe_frames: usize, horizon_ms: f64) -> ChurnConfig {
    let burst_at = 0.27 * horizon_ms;
    let leave_at = 0.64 * horizon_ms;
    let trace = ChurnTrace::script(vec![
        ChurnEvent::join(burst_at, heavy()),
        ChurnEvent::join(burst_at + 1.0, heavy()),
        ChurnEvent::join(burst_at + 2.0, heavy()),
        ChurnEvent::leave(leave_at, 0),
        ChurnEvent::leave(leave_at + 1.0, 1),
    ]);
    let policy = burst_policy(&system, probe_frames);
    // The health monitor watches the same calibrated ceiling the admission
    // controller enforces, so its incident timeline narrates the burst: the
    // p95 breach opens when the 3-join burst lands and closes once the
    // leave burst's reclaim pass restores the tail.
    let rules = HealthRules::new(WINDOW_MS).with_mtp_p95_ceiling_ms(policy.mtp_p95_slo_ms);
    let mut config = ChurnConfig::new(system, vec![heavy(), heavy()], trace, horizon_ms, SEED)
        .with_fairness(FairnessPolicy::Weighted)
        .with_admission(policy)
        .with_stats_window_ms(WINDOW_MS);
    config.telemetry = config.telemetry.with_health(rules);
    config.server_units = 8;
    config.link_streams = 2;
    config
}

/// Runs the burst narrative for one preset and renders its window table.
fn burst_report(preset: NetworkPreset, probe_frames: usize, horizon_ms: f64) -> String {
    let system = SystemConfig::default().with_network(preset);
    let summary = ChurnFleet::run(burst_config(system, probe_frames, horizon_ms));
    let mut out = String::new();
    let mut t = TextTable::new(vec!["window", "live", "frames", "p95 MTP"]);
    for &(start, frames, p95) in &summary.windows {
        t.row(vec![
            format!("{:.0}-{:.0} ms", start, start + WINDOW_MS),
            format!("{}", summary.live_at(start + 0.5 * WINDOW_MS)),
            format!("{frames}"),
            format!("{p95:.1} ms"),
        ]);
    }
    out.push_str(&format!("{preset}\n"));
    out.push_str(&t.render());
    out.push_str(&format!(
        "{}: {} rejected / {} degraded at the join burst; {} best-effort \
         upgraded after the leave burst\n",
        summary, summary.rejected, summary.degraded, summary.upgrades,
    ));
    // The streaming health monitor's deterministic incident timeline —
    // the same burst story, told as SLO breaches.
    if summary.incidents.is_empty() {
        out.push_str("health: no SLO incidents\n");
    }
    for inc in &summary.incidents {
        out.push_str(&format!("health: {inc}\n"));
    }
    out.push('\n');
    out
}

/// Runs the Poisson arrival sweep row for one preset × rate.
fn sweep_row(
    preset: NetworkPreset,
    arrivals_per_s: f64,
    probe_frames: usize,
    horizon_ms: f64,
) -> (ChurnSummary, f64) {
    let system = SystemConfig::default().with_network(preset);
    let initial = vec![adaptive(0), adaptive(1)];
    let trace = ChurnTrace::poisson(
        SEED,
        arrivals_per_s,
        0.35 * horizon_ms,
        horizon_ms,
        initial.len(),
        adaptive,
    );
    // Calibrate on a solo fleet of the sweep's own adaptive tenants (like
    // fig_admission) so the valve visibly engages at high rates; same
    // degraded-share valve as the burst policy.
    let solo = Fleet::run(FleetConfig::uniform(
        system,
        SchemeKind::Qvr,
        Benchmark::Hl2H.profile(),
        1,
        probe_frames,
        SEED,
    ));
    let mut policy = AdmissionPolicy::default()
        .with_mtp_p95_slo_ms(1.35 * solo.mtp_p95_ms)
        .with_min_fps_floor(0.6 * solo.fps_floor);
    policy.probe_frames = probe_frames;
    policy.degraded = Some(LinkShare::weighted(0.25));
    let mut config = ChurnConfig::new(system, initial, trace, horizon_ms, SEED)
        .with_fairness(FairnessPolicy::Weighted)
        .with_admission(policy)
        .with_retire_window_ms(RETIRE_WINDOW_MS);
    config.server_units = 8;
    config.link_streams = 4;
    let summary = ChurnFleet::run(config);
    let mtps = summary
        .tenants
        .iter()
        .flat_map(|t| t.summary.frames.iter().map(|f| f.mtp_ms))
        .collect();
    let p95 = qvr::core::metrics::SortedSamples::new(mtps).p95();
    (summary, p95)
}

/// Regenerates the churn sweep.
#[must_use]
pub fn report() -> String {
    report_with(
        &NetworkPreset::all(),
        10,
        BURST_HORIZON_MS,
        SWEEP_HORIZON_MS,
    )
}

/// The sweep over explicit presets/horizons (the unit test runs a
/// miniature version; `report` runs the full one).
fn report_with(
    presets: &[NetworkPreset],
    probe_frames: usize,
    burst_horizon_ms: f64,
    sweep_horizon_ms: f64,
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Session churn — open fleets under virtual-time stepping\n\
         Burst narrative: 2 protected tenants, +3 joins at {:.0}% of the run,\n\
         -2 leaves at {:.0}%; SLO = 1.4x duo p95, weighted link, 2 streams.\n\
         p95 spikes while the burst holds and recovers after reclaim-driven\n\
         upgrades return best-effort tenants to their requested shares.\n\n",
        27.0, 64.0,
    ));
    for preset in presets {
        out.push_str(&burst_report(*preset, probe_frames, burst_horizon_ms));
    }

    out.push_str(&format!(
        "Poisson arrival sweep — Q-VR tenants, exponential holds, admission on,\n\
         windowed retirement at {RETIRE_WINDOW_MS:.0} ms (per-resource live engine state\n\
         stays O(window) regardless of run length)\n\n",
    ));
    let mut t = TextTable::new(vec![
        "network",
        "arrivals/s",
        "offered",
        "rejected",
        "degraded",
        "upgraded",
        "peak live",
        "p95 MTP",
        "live tasks/res",
        "retired",
    ]);
    for preset in presets {
        for rate in [2.0, 6.0] {
            let (s, p95) = sweep_row(*preset, rate, probe_frames, sweep_horizon_ms);
            t.row(vec![
                preset.label().to_owned(),
                format!("{rate:.0}"),
                format!("{}", s.len() + s.rejected),
                format!("{}", s.rejected),
                format!("{}", s.degraded),
                format!("{}", s.upgrades),
                format!("{}", s.peak_live()),
                format!("{p95:.1} ms"),
                format!("{}", s.peak_live_per_resource),
                format!("{}", s.retired_tasks),
            ]);
        }
    }
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_covers_the_sweep() {
        // Miniature: one preset, short probes and horizons (the full
        // 3-preset sweep belongs to the release binary, not every
        // `cargo test`).
        let r = report_with(&[NetworkPreset::WiFi], 6, 1_400.0, 900.0);
        assert!(r.contains("Wi-Fi"));
        assert!(r.contains("p95"));
        assert!(r.contains("upgraded after the leave burst"));
        assert!(r.contains("retired"));
    }

    #[test]
    fn burst_degrades_then_reclaim_upgrades() {
        // The acceptance shape: the join burst produces best-effort
        // tenants, and the leave burst's reclaim pass upgrades at least
        // one of them.
        let summary = ChurnFleet::run(burst_config(SystemConfig::default(), 10, BURST_HORIZON_MS));
        assert!(
            summary.degraded > 0,
            "the join burst must push someone into best-effort: {summary}"
        );
        assert!(
            summary.upgrades > 0,
            "the leave burst must upgrade a best-effort tenant: {summary}"
        );
        // And the tail spikes during the burst relative to the pre-burst
        // window, visible in the windowed series.
        let p95_at = |t: f64| {
            summary
                .windows
                .iter()
                .rfind(|(s, _, _)| *s <= t)
                .map(|(_, _, p)| *p)
                .expect("window exists")
        };
        let calm = p95_at(0.15 * BURST_HORIZON_MS);
        let burst = p95_at(0.45 * BURST_HORIZON_MS);
        assert!(
            burst > calm,
            "the join burst must lift the tail: {burst:.1} vs {calm:.1} ms"
        );
    }

    #[test]
    fn burst_incident_timeline_is_deterministic_and_tracks_the_burst() {
        // The observability acceptance shape: the health monitor's
        // incident timeline is identical across reruns, non-empty, and its
        // p95-MTP breach opens while the 3-join burst holds and closes
        // after the leave burst's reclaim pass restores the tail.
        let run = || ChurnFleet::run(burst_config(SystemConfig::default(), 10, BURST_HORIZON_MS));
        let (a, b) = (run(), run());
        assert_eq!(
            a.incidents, b.incidents,
            "the incident timeline must be deterministic across reruns"
        );
        let burst_at = 0.27 * BURST_HORIZON_MS;
        let leave_at = 0.64 * BURST_HORIZON_MS;
        let breach = a
            .incidents
            .iter()
            .find(|i| i.rule == HealthRuleKind::MtpP95)
            .expect("the join burst must open a p95-MTP incident");
        assert!(
            breach.open_ms >= burst_at - WINDOW_MS && breach.open_ms <= leave_at,
            "the breach opens at the join burst: open @{:.0} ms vs burst @{burst_at:.0} ms",
            breach.open_ms
        );
        let close = breach
            .close_ms
            .expect("the leave burst's upgrades must close the breach");
        assert!(
            close > leave_at,
            "the breach closes after the leave burst: close @{close:.0} ms vs leave @{leave_at:.0} ms"
        );
    }
}
