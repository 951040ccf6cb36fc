//! Fig. 13: normalised transmitted data size and resolution reduction.

use crate::{TextTable, FRAMES, SEED};
use qvr::prelude::*;
use qvr::sim::parallel_map;

/// Regenerates Fig. 13.
#[must_use]
pub fn report() -> String {
    let config = SystemConfig::default();
    let schemes = [
        SchemeKind::RemoteOnly,
        SchemeKind::StaticCollab,
        SchemeKind::Ffr,
        SchemeKind::Qvr,
    ];
    let mut jobs = Vec::new();
    for bench in Benchmark::all() {
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
    out.push_str("Fig. 13 — transmitted data (normalised to remote-only) + resolution reduction\n");
    out.push_str("paper: Static ~1.0 (prefetch, no reduction), Q-VR avg 0.15 (85% cut),\n");
    out.push_str("overall resolution reduction avg 41%; Doom3-L: 96% data cut, 7% res cut\n\n");

    let mut t = TextTable::new(vec![
        "benchmark",
        "Static",
        "FFR",
        "Q-VR",
        "Q-VR res. reduction",
        "mean e1",
    ]);
    let mut static_sum = 0.0;
    let mut ffr_sum = 0.0;
    let mut qvr_sum = 0.0;
    let mut res_sum = 0.0;
    for bench in Benchmark::all() {
        let remote = get(bench, SchemeKind::RemoteOnly).mean_tx_bytes();
        let st = get(bench, SchemeKind::StaticCollab).mean_tx_bytes() / remote;
        let ffr = get(bench, SchemeKind::Ffr).mean_tx_bytes() / remote;
        let qvr_run = get(bench, SchemeKind::Qvr);
        let qvr = qvr_run.mean_tx_bytes() / remote;
        let res = qvr_run.mean_resolution_reduction();
        static_sum += st;
        ffr_sum += ffr;
        qvr_sum += qvr;
        res_sum += res;
        t.row(vec![
            bench.label().to_owned(),
            format!("{st:.2}"),
            format!("{ffr:.2}"),
            format!("{qvr:.2}"),
            format!("{:.0}%", res * 100.0),
            format!("{:.1}°", qvr_run.mean_e1_deg(FRAMES / 2).unwrap_or(0.0)),
        ]);
    }
    let n = Benchmark::all().len() as f64;
    t.row(vec![
        "Avg.".to_owned(),
        format!("{:.2}", static_sum / n),
        format!("{:.2}", ffr_sum / n),
        format!("{:.2}", qvr_sum / n),
        format!("{:.0}%", res_sum / n * 100.0),
        String::new(),
    ]);
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nQ-VR average transmitted-data reduction: {:.0}% (paper 85%)\n",
        (1.0 - qvr_sum / n) * 100.0
    ));
    out
}
