//! Table 4: mean steady-state eccentricity per app × GPU frequency ×
//! network technology; entries that miss 90 Hz are marked with `*`
//! (the paper underlines them).

use crate::{TextTable, FRAMES, SEED, WARMUP};
use qvr::prelude::*;
use qvr::sim::parallel_map;
use std::fmt::Write as _;

/// Paper reference values for 500 MHz (Wi-Fi / LTE / 5G rows).
const PAPER_500: [(&str, [f64; 7]); 3] = [
    ("Wi-Fi", [46.4, 85.3, 27.4, 33.2, 9.9, 27.2, 15.3]),
    ("4G LTE", [74.5, 90.0, 42.2, 44.3, 22.1, 39.1, 25.7]),
    ("Early 5G", [22.4, 45.2, 11.3, 14.3, 5.0, 10.9, 8.6]),
];

/// Regenerates Table 4.
#[must_use]
pub fn report() -> String {
    let freqs = [500.0, 400.0, 300.0];
    let presets = NetworkPreset::all();

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
        (
            s.mean_e1_deg(WARMUP).unwrap_or(0.0),
            s.meets_target_fps(90.0, WARMUP),
        )
    });

    let mut out = String::new();
    out.push_str("Table 4 — best (steady-state) eccentricity per configuration\n");
    out.push_str("entries marked * miss the 90 Hz target (the paper underlines these)\n\n");

    let mut t = TextTable::new(vec![
        "freq", "network", "D3H", "D3L", "H2H", "H2L", "GD", "UT3", "WF",
    ]);
    for f in freqs {
        for p in presets {
            let mut cells = vec![format!("{f:.0} MHz"), p.label().to_owned()];
            for b in Benchmark::all() {
                let idx = jobs
                    .iter()
                    .position(|j| j.0 == f && j.1 == p && j.2 == b)
                    .expect("job exists");
                let (e1, meets) = results[idx];
                cells.push(format!("{e1:.1}{}", if meets { "" } else { "*" }));
            }
            t.row(cells);
        }
    }
    out.push_str(&t.render());

    out.push_str("\npaper reference @ 500 MHz (NFS column read as UT3; see DESIGN.md):\n");
    for (net, vals) in PAPER_500 {
        let _ = write!(out, "  {net:<9}");
        for v in vals {
            let _ = write!(out, " {v:>6.1}");
        }
        out.push('\n');
    }
    out.push_str(
        "\nshape checks: LTE > Wi-Fi > 5G per app; lighter apps get larger e1;\n\
         lower GPU frequency shrinks e1.\n",
    );
    out
}
