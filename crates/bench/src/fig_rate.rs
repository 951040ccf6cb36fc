//! Closed-loop rate control: convergence + LIWC equilibrium contrast.
//!
//! Not a paper artefact — the paper ships closed-form frame sizes — but the
//! acceptance sweep for the content-true rate path (DESIGN.md §15): each
//! tenant's [`RateController`] steers the entropy-modeled periphery stream
//! toward its allocated link share. Two tables:
//!
//! 1. **Convergence** — uniform Q-VR fleets (Wi-Fi, equal share) across a
//!    sweep of per-tenant allocations (uncapped / capped / contended):
//!    steady-state bytes/frame must settle within ±10% of the per-tenant
//!    allocation (`share × 1e6 / 8 / target_fps`).
//! 2. **LIWC equilibrium at 1:8 weights** — with strongly unequal shares,
//!    rate control off ships the same closed-form bytes regardless of
//!    share (only latency differs), while rate control on bends each
//!    tenant's quality until its stream fits its allocation — shifting the
//!    LIWC fovea equilibrium the paper's single-user controller never sees.

use crate::{TextTable, SEED};
use qvr::prelude::*;
use qvr::scene::Benchmark;

/// Frames per session: enough for the controller (gain 0.6, deadband 4%)
/// to settle plus a steady-state window.
pub const RATE_FRAMES: usize = 160;

/// Convergence rows: (sessions, per-tenant cap in Mbps). Wi-Fi serves 8
/// MU-MIMO streams, so 8 uncapped tenants each get the full 200 Mbps; the
/// capped rows sweep the allocation down through the entropy plant's range,
/// and the 16-session row halves the share through contention instead.
pub const RATE_ROWS: [(usize, Option<f64>); 4] =
    [(8, None), (8, Some(140.0)), (8, Some(90.0)), (16, None)];

/// Regenerates the rate-control sweep.
#[must_use]
pub fn report() -> String {
    report_with(&RATE_ROWS, RATE_FRAMES)
}

/// A stable digest of a rate-controlled shard run at an explicit worker
/// count: the dynamic determinism receipt that per-tenant controller state
/// stays inside its cell (slot-namespaced, reset on recycle) and never
/// leaks across the telemetry seam. Hashes the merged `ShardSummary`'s
/// full `Debug` form with FNV-1a, like `fig_shard::determinism_digest`.
#[must_use]
pub fn determinism_digest(cells: usize, per_cell: usize, frames: usize, workers: usize) -> u64 {
    let mut template = FleetConfig::uniform(
        SystemConfig::default().with_rate_control(RateControlConfig::on()),
        SchemeKind::Qvr,
        Benchmark::Hl2H.profile(),
        1, // placeholder: the shard routes its own roster
        frames,
        SEED,
    );
    template.server_units = 4;
    template.link_streams = 2;
    let roster = (0..cells * per_cell)
        .map(|_| SessionSpec::new(SchemeKind::Qvr, Benchmark::Hl2H.profile()))
        .collect();
    let s = Shard::run(ShardConfig::new(template, cells, per_cell, roster).with_workers(workers));
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in format!("{s:?}").bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Steady-state mean of per-frame transmitted bytes (second half of the run).
fn steady_bytes(s: &RunSummary) -> f64 {
    let skip = s.frames.len() / 2;
    let tail = &s.frames[skip..];
    tail.iter().map(|f| f.tx_bytes).sum::<f64>() / tail.len().max(1) as f64
}

/// Steady-state mean of the controller's chosen quality, if it ran.
fn steady_quality(s: &RunSummary) -> Option<f64> {
    let skip = s.frames.len() / 2;
    let qs: Vec<f64> = s.frames[skip..].iter().filter_map(|f| f.quality).collect();
    if qs.is_empty() {
        None
    } else {
        Some(qs.iter().sum::<f64>() / qs.len() as f64)
    }
}

/// The sweep over explicit fleet sizes and per-session frames (the unit
/// test runs a miniature version; `report` runs the full one).
fn report_with(rows: &[(usize, Option<f64>)], frames: usize) -> String {
    let bench = Benchmark::Hl2H;
    let system = || SystemConfig::default().with_rate_control(RateControlConfig::on());
    let capacity = NetworkPreset::WiFi.download_mbps();
    let streams = SystemConfig::default().remote.count() as usize;
    let fps = SystemConfig::default().target_fps;

    let share_for = |cap: Option<f64>| match cap {
        Some(c) => LinkShare::default().with_cap_mbps(c),
        None => LinkShare::default(),
    };
    let configs: Vec<FleetConfig> = rows
        .iter()
        .map(|&(n, cap)| {
            let mut cfg =
                FleetConfig::uniform(system(), SchemeKind::Qvr, bench.profile(), n, frames, SEED);
            for spec in &mut cfg.sessions {
                spec.share = share_for(cap);
            }
            cfg
        })
        .collect();
    let results = Fleet::run_many(configs);

    let mut out = String::new();
    out.push_str(&format!(
        "Closed-loop rate control — {} × Q-VR, Wi-Fi, equal share, controller on\n",
        bench.label()
    ));
    out.push_str("Each tenant steers its entropy-coded periphery stream toward the link's\n");
    out.push_str("allocated share; steady-state bytes/frame settle within ±10%\n\n");

    let mut t = TextTable::new(vec![
        "sessions",
        "cap",
        "alloc Mbps",
        "target KB",
        "mean KB",
        "worst err",
        "quality",
        "mean e1",
    ]);
    for (&(n, cap), s) in rows.iter().zip(&results) {
        // The exact allocation the channel gives each (identical) member —
        // the same pure function the fairness layer resolves transfers with.
        let alloc = qvr::net::allocate_mbps(
            FairnessPolicy::EqualShare,
            capacity,
            streams,
            &vec![share_for(cap); n],
        )[0];
        let target = RateController::target_bytes(alloc, fps);
        let per: Vec<f64> = s.sessions.iter().map(steady_bytes).collect();
        let worst_err = per
            .iter()
            .map(|b| (b - target).abs() / target)
            .fold(0.0f64, f64::max);
        let mean_kb = per.iter().sum::<f64>() / per.len() as f64 / 1024.0;
        let quality = {
            let qs: Vec<f64> = s.sessions.iter().filter_map(steady_quality).collect();
            qs.iter().sum::<f64>() / qs.len().max(1) as f64
        };
        let mean_e1 = {
            let es: Vec<f64> = s
                .sessions
                .iter()
                .filter_map(|r| r.mean_e1_deg(frames / 2))
                .collect();
            es.iter().sum::<f64>() / es.len().max(1) as f64
        };
        t.row(vec![
            format!("{n}"),
            cap.map_or_else(|| "-".into(), |c| format!("{c:.0}")),
            format!("{alloc:.0}"),
            format!("{:.0}", target / 1024.0),
            format!("{mean_kb:.0}"),
            format!("{:.1}%", worst_err * 100.0),
            format!("{quality:.2}"),
            format!("{mean_e1:.1}°"),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');

    // LIWC equilibrium contrast: two Q-VR tenants at 8:1 link weights, rate
    // control off vs on. Off, the closed-form size model ships identical
    // bytes for both (share only moves latency, and LIWC's e1 with it); on,
    // the starved tenant's controller compresses harder until its stream
    // fits ~1/9 of the link, and the LIWC equilibrium follows the true
    // cost of each candidate eccentricity.
    let weighted = |rc: bool| {
        let sys = if rc {
            system()
        } else {
            SystemConfig::default()
        };
        Fleet::run(FleetConfig {
            system: sys,
            sessions: vec![
                SessionSpec::new(SchemeKind::Qvr, bench.profile())
                    .with_share(LinkShare::weighted(8.0)),
                SessionSpec::new(SchemeKind::Qvr, bench.profile()),
            ],
            frames,
            seed: SEED,
            server_units: 8,
            link_streams: 2,
            fairness: FairnessPolicy::Weighted,
            server_policy: ServerPolicy::default(),
            stepping: SteppingPolicy::RoundRobin,
            retire_window_ms: None,
            telemetry: TelemetryConfig::default(),
        })
    };
    let off = weighted(false);
    let on = weighted(true);
    out.push_str("Weighted fairness at 8:1 shares — LIWC equilibrium, controller off vs on\n");
    let mut t = TextTable::new(vec![
        "tenant",
        "alloc Mbps",
        "KB off",
        "KB on",
        "target KB",
        "e1 off",
        "e1 on",
        "quality on",
    ]);
    let allocs = qvr::net::allocate_mbps(
        FairnessPolicy::Weighted,
        capacity,
        2,
        &[LinkShare::weighted(8.0), LinkShare::default()],
    );
    for (i, weight) in [8.0f64, 1.0].iter().enumerate() {
        let alloc = allocs[i];
        let target = RateController::target_bytes(alloc, fps);
        let e1 = |s: &FleetSummary| {
            s.sessions[i]
                .mean_e1_deg(frames / 2)
                .map_or_else(|| "-".into(), |e| format!("{e:.1}°"))
        };
        t.row(vec![
            format!("{i} (w={weight:.0})"),
            format!("{alloc:.0}"),
            format!("{:.0}", steady_bytes(&off.sessions[i]) / 1024.0),
            format!("{:.0}", steady_bytes(&on.sessions[i]) / 1024.0),
            format!("{:.0}", target / 1024.0),
            e1(&off),
            e1(&on),
            steady_quality(&on.sessions[i]).map_or_else(|| "-".into(), |q| format!("{q:.2}")),
        ]);
    }
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_covers_the_sweep() {
        // Miniature sweep: same report structure, a fraction of the work.
        let r = report_with(&[(1, None), (2, Some(120.0))], 24);
        assert!(r.contains("Closed-loop rate control"));
        assert!(r.contains("Weighted fairness at 8:1 shares"));
        assert!(r.contains("worst err"));
    }

    #[test]
    fn controller_converges_to_each_tenants_allocation() {
        // Two Q-VR tenants under equal-share fairness, one hard-capped at
        // 60 Mbps: each controller must settle its steady-state bytes per
        // frame within ±10% of what the link actually allocates it.
        let shares = [
            LinkShare::default().with_cap_mbps(60.0),
            LinkShare::default(),
        ];
        let fleet = Fleet::run(FleetConfig {
            system: SystemConfig::default().with_rate_control(RateControlConfig::on()),
            sessions: shares
                .iter()
                .map(|s| {
                    SessionSpec::new(SchemeKind::Qvr, Benchmark::Hl2H.profile()).with_share(*s)
                })
                .collect(),
            frames: 80,
            seed: SEED,
            server_units: 8,
            link_streams: 2,
            fairness: FairnessPolicy::EqualShare,
            server_policy: ServerPolicy::default(),
            stepping: SteppingPolicy::RoundRobin,
            retire_window_ms: None,
            telemetry: TelemetryConfig::default(),
        });
        let allocs = qvr::net::allocate_mbps(
            FairnessPolicy::EqualShare,
            NetworkPreset::WiFi.download_mbps(),
            2,
            &shares,
        );
        let fps = SystemConfig::default().target_fps;
        for (i, alloc) in allocs.iter().enumerate() {
            let target = RateController::target_bytes(*alloc, fps);
            let got = steady_bytes(&fleet.sessions[i]);
            assert!(
                (got - target).abs() / target < 0.10,
                "tenant {i}: {got:.0} B/frame vs {target:.0} allocated",
            );
        }
    }
}
