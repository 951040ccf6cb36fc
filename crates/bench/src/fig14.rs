//! Fig. 14: per-frame local/remote latency ratio and FPS over 300 frames.

use crate::{FRAMES, SEED};
use qvr::prelude::*;
use qvr::sim::parallel_map;
use std::fmt::Write as _;

const TRACKED: [Benchmark; 5] = [
    Benchmark::Doom3H,
    Benchmark::Hl2H,
    Benchmark::Grid,
    Benchmark::Ut3,
    Benchmark::Wolf,
];

/// Regenerates Fig. 14 (sampled every 10 frames, plus summary statistics).
#[must_use]
pub fn report() -> String {
    let config = SystemConfig::default();
    let runs = parallel_map(&TRACKED, |b| {
        SchemeKind::Qvr.run(&config, b.profile(), FRAMES, SEED)
    });

    let mut out = String::new();
    out.push_str("Fig. 14(a) — latency ratio T_remote/T_local per frame (Q-VR, e1 init 5°)\n");
    out.push_str("paper: high initial imbalance, converging to ~1 within tens of frames\n\n");
    out.push_str("frame:   ");
    for f in (0..FRAMES).step_by(30) {
        let _ = write!(out, "{f:>7}");
    }
    out.push('\n');
    for (bench, run) in TRACKED.iter().zip(&runs) {
        let _ = write!(out, "{:<9}", bench.label());
        for f in (0..FRAMES).step_by(30) {
            let _ = write!(out, "{:>7.2}", run.frames[f].latency_ratio());
        }
        out.push('\n');
    }

    out.push_str("\nFig. 14(b) — instantaneous FPS per frame (target 90 Hz)\n\n");
    out.push_str("frame:   ");
    for f in (0..FRAMES).step_by(30) {
        let _ = write!(out, "{f:>7}");
    }
    out.push('\n');
    for (bench, run) in TRACKED.iter().zip(&runs) {
        let _ = write!(out, "{:<9}", bench.label());
        for f in (0..FRAMES).step_by(30) {
            let _ = write!(out, "{:>7.0}", run.frames[f].instantaneous_fps());
        }
        out.push('\n');
    }

    out.push_str("\nsummary (steady state = frames 100..300):\n");
    for (bench, run) in TRACKED.iter().zip(&runs) {
        let tail: Vec<&FrameRecord> = run.frames.iter().skip(100).collect();
        let mean_ratio = tail.iter().map(|f| f.latency_ratio()).sum::<f64>() / tail.len() as f64;
        let min_fps = tail
            .iter()
            .map(|f| f.instantaneous_fps())
            .fold(f64::INFINITY, f64::min);
        let _ = writeln!(
            out,
            "  {:<9} ratio {:.2}, min FPS {:.0}, sustained {:.0} FPS, meets 90 Hz: {}",
            bench.label(),
            mean_ratio,
            min_fps,
            run.fps(),
            run.meets_target_fps(90.0, 100)
        );
    }
    out
}
