//! Fig. 15: normalised system energy of Q-VR across GPU frequencies and
//! network technologies.

use crate::{TextTable, FRAMES, SEED};
use qvr::prelude::*;
use qvr::sim::parallel_map;

/// Regenerates Fig. 15.
///
/// Energy is normalised per frame: Q-VR's total system energy divided by
/// the local-rendering baseline's at the same GPU frequency.
#[must_use]
pub fn report() -> String {
    let freqs = [500.0, 400.0, 300.0];
    let presets = NetworkPreset::all();

    // Baselines per frequency.
    let baselines = parallel_map(&freqs, |f| {
        let config = SystemConfig::default().with_gpu_frequency_mhz(*f);
        Benchmark::all()
            .map(|b| {
                let s = SchemeKind::LocalOnly.run(&config, b.profile(), FRAMES, SEED);
                s.energy.total_mj() / s.len() as f64
            })
            .to_vec()
    });

    let mut jobs = Vec::new();
    for f in freqs {
        for p in presets {
            for b in Benchmark::all() {
                jobs.push((f, p, b));
            }
        }
    }
    let results = parallel_map(&jobs, |(f, p, b)| {
        let config = SystemConfig::default()
            .with_gpu_frequency_mhz(*f)
            .with_network(*p);
        let s = SchemeKind::Qvr.run(&config, b.profile(), FRAMES, SEED);
        s.energy.total_mj() / s.len() as f64
    });

    let mut out = String::new();
    out.push_str("Fig. 15 — Q-VR system energy normalised to local rendering (same GPU clock)\n");
    out.push_str("paper: avg 73% reduction; higher bandwidth improves efficiency;\n");
    out.push_str("lower clocks do not always help (static energy stretch); some\n");
    out.push_str("300 MHz points exceed 1.0 (paper annotates 1.24 / 1.09)\n\n");

    let mut t = TextTable::new(vec![
        "freq", "network", "D3H", "D3L", "H2H", "H2L", "GD", "UT3", "WF", "avg",
    ]);
    let mut grand_sum = 0.0;
    let mut grand_n = 0.0;
    for (fi, f) in freqs.iter().enumerate() {
        for p in presets {
            let mut cells = vec![format!("{f:.0} MHz"), p.label().to_owned()];
            let mut row_sum = 0.0;
            for (bi, b) in Benchmark::all().iter().enumerate() {
                let idx = jobs
                    .iter()
                    .position(|j| j.0 == *f && j.1 == p && j.2 == *b)
                    .expect("job exists");
                let ratio = results[idx] / baselines[fi][bi];
                row_sum += ratio;
                cells.push(format!("{ratio:.2}"));
            }
            let n = Benchmark::all().len() as f64;
            cells.push(format!("{:.2}", row_sum / n));
            grand_sum += row_sum;
            grand_n += n;
            t.row(cells);
        }
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\noverall mean normalised energy: {:.2} (paper ≈ 0.27, i.e. 73% reduction)\n",
        grand_sum / grand_n
    ));
    out
}
