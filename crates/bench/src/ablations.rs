//! Ablations beyond the paper's headline results (DESIGN.md §6): the
//! design choices Q-VR's sections argue for, each toggled in isolation.

use crate::{TextTable, FRAMES, SEED, WARMUP};
use qvr::prelude::*;
use qvr::sim::parallel_map;

/// Regenerates the ablation suite.
#[must_use]
pub fn report() -> String {
    let mut out = String::new();
    out.push_str(&alpha_sweep());
    out.push('\n');
    out.push_str(&uca_units());
    out.push('\n');
    out.push_str(&prefetch_lookahead());
    out
}

/// LIWC reward-rate α: convergence speed vs steady-state stability.
fn alpha_sweep() -> String {
    let alphas = [0.05, 0.15, 0.3, 0.6, 0.9];
    let results = parallel_map(&alphas, |alpha| {
        let config = SystemConfig {
            liwc_reward_alpha: *alpha,
            ..SystemConfig::default()
        };
        let s = SchemeKind::Qvr.run(&config, Benchmark::Hl2H.profile(), FRAMES, SEED);
        // Convergence: first frame whose ratio enters [0.8, 1.25] for good.
        let converged = (0..s.frames.len())
            .find(|&i| {
                s.frames[i..]
                    .iter()
                    .take(20)
                    .all(|f| (0.7..1.4).contains(&f.latency_ratio()))
            })
            .unwrap_or(s.frames.len());
        let tail: Vec<f64> = s
            .frames
            .iter()
            .skip(WARMUP)
            .map(|f| f.latency_ratio())
            .collect();
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        let sd = (tail.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / tail.len() as f64).sqrt();
        (converged, mean, sd, s.fps())
    });

    let mut t = TextTable::new(vec![
        "reward α",
        "frames to converge",
        "steady ratio",
        "ratio σ",
        "FPS",
    ]);
    for (alpha, (conv, mean, sd, fps)) in alphas.iter().zip(results) {
        t.row(vec![
            format!("{alpha}"),
            format!("{conv}"),
            format!("{mean:.2}"),
            format!("{sd:.3}"),
            format!("{fps:.0}"),
        ]);
    }
    format!(
        "Ablation — LIWC reward rate α (HL2-H, Wi-Fi)\n\
         low α learns slowly; high α chases noise\n\n{}",
        t.render()
    )
}

/// UCA unit count and the value of the off-GPU offload.
fn uca_units() -> String {
    let configs: Vec<(String, SystemConfig)> = vec![
        ("no UCA (DFR)".into(), SystemConfig::default()),
        ("1 unit".into(), with_uca_units(1)),
        ("2 units (paper)".into(), with_uca_units(2)),
        ("4 units".into(), with_uca_units(4)),
    ];
    let results = parallel_map(&configs, |(name, config)| {
        let scheme = if name.starts_with("no UCA") {
            SchemeKind::Dfr
        } else {
            SchemeKind::Qvr
        };
        let s = scheme.run(config, Benchmark::Wolf.profile(), FRAMES, SEED);
        (
            name.clone(),
            s.mean_mtp_ms(),
            s.fps(),
            s.busy.gpu_ms / s.makespan_ms,
        )
    });
    let mut t = TextTable::new(vec!["configuration", "MTP ms", "FPS", "GPU util"]);
    for (name, mtp, fps, util) in results {
        t.row(vec![
            name,
            format!("{mtp:.1}"),
            format!("{fps:.0}"),
            format!("{:.0}%", util * 100.0),
        ]);
    }
    format!(
        "Ablation — UCA unit count (Wolf)\n\
         the second unit halves the pass; beyond that the pass is off the\n\
         critical path and more units stop mattering\n\n{}",
        t.render()
    )
}

fn with_uca_units(units: u32) -> SystemConfig {
    let mut config = SystemConfig::default();
    config.uca_timing.overhead.units = units;
    config
}

/// Static prefetch look-ahead: deeper prediction hides more latency but
/// mispredicts more.
fn prefetch_lookahead() -> String {
    let lookaheads = [1u32, 3, 5, 8];
    let results = parallel_map(&lookaheads, |l| {
        let config = SystemConfig {
            prefetch_lookahead: *l,
            ..SystemConfig::default()
        };
        let s = SchemeKind::StaticCollab.run(&config, Benchmark::Ut3.profile(), FRAMES, SEED);
        (s.mean_mtp_ms(), s.misprediction_rate(), s.fps())
    });
    let mut t = TextTable::new(vec!["look-ahead", "MTP ms", "misprediction", "FPS"]);
    for (l, (mtp, miss, fps)) in lookaheads.iter().zip(results) {
        t.row(vec![
            format!("{l} frames"),
            format!("{mtp:.1}"),
            format!("{:.0}%", miss * 100.0),
            format!("{fps:.0}"),
        ]);
    }
    format!(
        "Ablation — static prefetch look-ahead (UT3)\n\
         the paper's Challenge II: predicting >30 ms ahead loses accuracy\n\n{}",
        t.render()
    )
}
