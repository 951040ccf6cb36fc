//! Fleet scaling sweep: multi-tenant sessions on one server + one link.
//!
//! Not a paper artefact — the paper evaluates one user — but the natural
//! extension its title promises: *collaborative* VR. We sweep 1→32 Q-VR
//! sessions sharing the default 8-GPU MCM server and one wireless channel
//! (Wi-Fi / 4G LTE / early 5G), and report fleet tail latency, the FPS
//! fairness floor, server-pool utilisation, and the per-session transmit
//! budget. The expected shape: flat tails while the session count stays
//! within the server pool and the per-session bandwidth share stays
//! workable, then measurable degradation once oversubscribed — with each
//! session's LIWC independently growing its fovea (shrinking its periphery
//! stream) to absorb the crowd.

use crate::{TextTable, SEED};
use qvr::prelude::*;
use qvr::scene::Benchmark;

/// Frames per session (shorter than the single-user artefacts: a 32-session
/// fleet simulates 32× the frames per row).
pub const FLEET_FRAMES: usize = 120;

/// The session counts swept (the default server pool has 8 units).
pub const FLEET_SIZES: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// Regenerates the fleet scaling sweep.
#[must_use]
pub fn report() -> String {
    report_with(&FLEET_SIZES, FLEET_FRAMES)
}

/// The sweep over explicit session counts and per-session frames (the unit
/// test runs a miniature version; `report` runs the full one).
fn report_with(sizes: &[usize], frames: usize) -> String {
    let bench = Benchmark::Hl2H;
    let mut configs = Vec::new();
    for preset in NetworkPreset::all() {
        for &n in sizes {
            configs.push(FleetConfig::uniform(
                SystemConfig::default().with_network(preset),
                SchemeKind::Qvr,
                bench.profile(),
                n,
                frames,
                SEED,
            ));
        }
    }
    let results = Fleet::run_many(configs);

    let mut out = String::new();
    out.push_str(&format!(
        "Fleet scaling — {} × Q-VR on {} sessions/server-pool sweep, shared link\n",
        bench.label(),
        sizes
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join("/"),
    ));
    out.push_str("8 server units (mcm_8_gpu): tails stay flat while sessions fit the pool\n");
    out.push_str("and the per-session link share; oversubscription degrades p95/p99 and\n");
    out.push_str("the FPS floor while mean e1 grows (LIWC pulling work back on-device)\n\n");

    // Pairing is structural: run_many preserves input order, so chunking
    // the results by the inner (sizes) loop length re-yields the
    // preset-major nesting the configs were built with.
    for (preset, preset_results) in NetworkPreset::all().iter().zip(results.chunks(sizes.len())) {
        let mut t = TextTable::new(vec![
            "sessions",
            "p50 MTP",
            "p95 MTP",
            "p99 MTP",
            "FPS floor",
            "server util",
            "KB/frame",
            "mean e1",
        ]);
        for (&n, s) in sizes.iter().zip(preset_results) {
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
                format!("{:.1} ms", s.mtp_p50_ms),
                format!("{:.1} ms", s.mtp_p95_ms),
                format!("{:.1} ms", s.mtp_p99_ms),
                format!("{:.0}", s.fps_floor),
                format!("{:.0}%", s.server_utilization * 100.0),
                format!("{:.0}", s.mean_tx_bytes() / 1024.0),
                format!("{mean_e1:.1}°"),
            ]);
        }
        out.push_str(&format!("{preset}\n"));
        out.push_str(&t.render());
        out.push('\n');
    }

    // One heterogeneous fleet: mixed apps and schemes on Wi-Fi. This is the
    // noisy-neighbour demonstration — the non-adaptive tenants (Static ships
    // color+depth full frames, Remote streams everything) saturate the
    // server pool and drag the whole fleet down, where a uniform Q-VR fleet
    // of the same size runs near private-rate latencies (tables above).
    let mixed = Fleet::run(FleetConfig {
        system: SystemConfig::default(),
        // The canonical noisy-neighbour roster (shared with the fig_sched
        // policy sweep, which shows how to fix what this table exposes).
        sessions: crate::fig_sched::mixed_sessions(),
        frames,
        seed: SEED,
        server_units: SystemConfig::default().remote.count() as usize,
        link_streams: SystemConfig::default().remote.count() as usize,
        fairness: FairnessPolicy::EqualShare,
        server_policy: ServerPolicy::default(),
        stepping: SteppingPolicy::RoundRobin,
        retire_window_ms: None,
        telemetry: TelemetryConfig::default(),
    });
    out.push_str(
        "Heterogeneous 8-session fleet (mixed apps + schemes, Wi-Fi) — noisy neighbours\n",
    );
    let mut t = TextTable::new(vec!["session", "scheme", "app", "MTP", "FPS", "KB/frame"]);
    for (i, s) in mixed.sessions.iter().enumerate() {
        t.row(vec![
            format!("{i}"),
            s.scheme.clone(),
            s.app.clone(),
            format!("{:.1} ms", s.mean_mtp_ms()),
            format!("{:.0}", s.fps()),
            format!("{:.0}", s.mean_tx_bytes() / 1024.0),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!("fleet: {mixed}\n"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_covers_the_sweep() {
        // Miniature sweep: same report structure, a fraction of the work
        // (the full FLEET_SIZES x FLEET_FRAMES sweep belongs to the
        // release binary, not every `cargo test`).
        let r = report_with(&[1, 2], 10);
        assert!(r.contains("Wi-Fi"));
        assert!(r.contains("4G LTE"));
        assert!(r.contains("Early 5G"));
        assert!(r.contains("1/2"));
        assert!(r.contains("Heterogeneous"));
        assert!(r.contains("noisy neighbours"));
    }
}
