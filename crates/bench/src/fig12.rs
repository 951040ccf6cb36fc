//! Fig. 12: normalised end-to-end performance and frame-rate improvement of
//! every design point over the local-rendering baseline.

use crate::{TextTable, FRAMES, SEED};
use qvr::prelude::*;
use qvr::sim::parallel_map;

/// Regenerates Fig. 12.
#[must_use]
pub fn report() -> String {
    let config = SystemConfig::default();
    let schemes = [
        SchemeKind::StaticCollab,
        SchemeKind::Ffr,
        SchemeKind::Dfr,
        SchemeKind::QvrSw,
        SchemeKind::Qvr,
    ];

    // (benchmark, scheme) matrix, run in parallel.
    let mut jobs = Vec::new();
    for bench in Benchmark::all() {
        jobs.push((bench, SchemeKind::LocalOnly));
        for s in schemes {
            jobs.push((bench, s));
        }
    }
    let results = parallel_map(&jobs, |(bench, scheme)| {
        scheme.run(&config, bench.profile(), FRAMES, SEED)
    });
    let get = |bench: Benchmark, scheme: SchemeKind| -> &RunSummary {
        let idx = jobs
            .iter()
            .position(|j| j.0 == bench && j.1 == scheme)
            .expect("job exists");
        &results[idx]
    };

    let mut out = String::new();
    out.push_str("Fig. 12 — normalised performance over the local baseline\n");
    out.push_str("paper: FFR ~1.75x avg (up to 5.6x), DFR ~1.1x over FFR,\n");
    out.push_str("Q-VR 3.4x avg (up to 6.7x); FPS: Q-VR = 4.1x Static, 2.8x SW\n\n");

    let mut t = TextTable::new(vec![
        "benchmark",
        "Static",
        "FFR",
        "DFR",
        "Q-VR-SW",
        "Q-VR",
        "SW-FPS",
        "Q-VR-FPS",
    ]);
    let mut sums = [0.0f64; 7];
    let mut qvr_max: f64 = 0.0;
    for bench in Benchmark::all() {
        let base = get(bench, SchemeKind::LocalOnly);
        let speedup = |s: SchemeKind| base.mean_mtp_ms() / get(bench, s).mean_mtp_ms();
        let fps_x = |s: SchemeKind| get(bench, s).fps() / base.fps();
        let row = [
            speedup(SchemeKind::StaticCollab),
            speedup(SchemeKind::Ffr),
            speedup(SchemeKind::Dfr),
            speedup(SchemeKind::QvrSw),
            speedup(SchemeKind::Qvr),
            fps_x(SchemeKind::QvrSw),
            fps_x(SchemeKind::Qvr),
        ];
        qvr_max = qvr_max.max(row[4]);
        for (acc, v) in sums.iter_mut().zip(row) {
            *acc += v;
        }
        let mut cells = vec![bench.label().to_owned()];
        cells.extend(row.iter().map(|v| format!("{v:.2}x")));
        t.row(cells);
    }
    let n = Benchmark::all().len() as f64;
    let mut cells = vec!["Avg.".to_owned()];
    cells.extend(sums.iter().map(|v| format!("{:.2}x", v / n)));
    t.row(cells);
    out.push_str(&t.render());

    let qvr_fps_avg = sums[6] / n;
    let sw_fps_avg = sums[5] / n;
    let static_fps_avg: f64 = Benchmark::all()
        .iter()
        .map(|b| get(*b, SchemeKind::StaticCollab).fps() / get(*b, SchemeKind::LocalOnly).fps())
        .sum::<f64>()
        / n;
    out.push_str(&format!(
        "\nQ-VR avg speedup {:.2}x (paper 3.4x), max {:.2}x (paper 6.7x)\n",
        sums[4] / n,
        qvr_max
    ));
    out.push_str(&format!(
        "Q-VR FPS vs Static: {:.1}x (paper 4.1x); vs software impl: {:.1}x (paper 2.8x)\n",
        qvr_fps_avg / static_fps_avg,
        qvr_fps_avg / sw_fps_avg
    ));
    out
}
