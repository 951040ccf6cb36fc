//! Span tracing over an 8-session Wi-Fi fleet: dump a Chrome-trace /
//! Perfetto recording of every session's per-stage pipeline spans plus
//! the per-class metrics exposition.
//!
//! ```text
//! cargo run --release --example trace_frames
//! ```
//!
//! Load the emitted `trace_frames.json` at <https://ui.perfetto.dev> (or
//! `chrome://tracing`). Two process groups appear:
//!
//! * **sessions** — one track per session slot, with upload → render →
//!   encode → network → decode → display slices tiling each frame;
//! * **server units** — one track per GPU unit, carrying the render and
//!   encode slices of whichever sessions landed there, so cross-session
//!   queueing on a shared unit reads directly off the timeline.
//!
//! **What to look for — the §7 round-robin skew artifact.** This roster
//! deliberately mixes full-share and quarter-share tenants under
//! round-robin stepping (the golden-pinned default). Round-robin steps
//! every session one frame per round regardless of how far its own
//! virtual clock has advanced, so the quarter-share tenants' tracks fall
//! further and further behind the full-share tracks: scroll right in the
//! trace and watch the same frame index sit at increasingly different
//! virtual times across tracks. That growing horizontal offset is the
//! DESIGN.md §7 "known limitation" — an artifact of the stepping policy,
//! not physics — and stepping the same roster in virtual time (a
//! `ChurnFleet` with an empty trace) collapses the tracks back into
//! lockstep (`tests/churn.rs` pins exactly that collapse).

use qvr::prelude::*;
use qvr::scene::Benchmark;

fn main() {
    let apps = [
        Benchmark::Hl2H,
        Benchmark::Doom3H,
        Benchmark::Wolf,
        Benchmark::Ut3,
    ];
    let mut config = FleetConfig::uniform(
        SystemConfig::default().with_network(NetworkPreset::WiFi),
        SchemeKind::Qvr,
        Benchmark::Hl2H.profile(),
        8,
        60,
        42,
    );
    // Half the roster streams full frames on a quarter link share: the
    // share tilt is what makes the §7 skew visible between tracks.
    config.fairness = FairnessPolicy::Weighted;
    for (i, spec) in config.sessions.iter_mut().enumerate() {
        *spec = if i % 2 == 0 {
            SessionSpec::new(SchemeKind::Qvr, apps[i % apps.len()].profile())
        } else {
            SessionSpec::new(SchemeKind::RemoteOnly, apps[i % apps.len()].profile())
                .with_share(LinkShare::weighted(0.25))
        };
    }
    // Trace every session (sample_one_in = 1), collect the per-class
    // histogram metrics, and arm the health monitor with a generous
    // utilization band so the incident timeline is exercised too.
    config.telemetry = TelemetryConfig::default()
        .with_trace(TraceConfig::default())
        .with_metrics()
        .with_health(HealthRules::new(200.0).with_utilization_band(0.02, 0.98));

    let summary = Fleet::run(config);
    println!("{summary}\n");

    let trace = summary.trace.as_ref().expect("tracing was enabled");
    let json = trace.chrome_trace_json();
    std::fs::write("trace_frames.json", &json).expect("write trace");
    println!(
        "wrote trace_frames.json: {} frames across {} sessions ({} bytes)\n\
         -> open it at https://ui.perfetto.dev and compare the even\n\
         (full-share) and odd (quarter-share) session tracks drifting\n\
         apart — the §7 round-robin skew artifact",
        trace.len(),
        summary.sessions.len(),
        json.len(),
    );

    let exposition = summary.exposition.as_ref().expect("metrics were enabled");
    std::fs::write("trace_frames_exposition.txt", exposition).expect("write exposition");
    println!(
        "\nwrote trace_frames_exposition.txt ({} lines); the adaptive-class\n\
         tail out of the per-class histograms:",
        exposition.lines().count(),
    );
    for line in exposition.lines().filter(|l| l.contains("qvr_mtp_p9")) {
        println!("  {line}");
    }

    if summary.incidents.is_empty() {
        println!("\nhealth: no SLO incidents");
    } else {
        println!("\nhealth incident timeline:");
        for inc in &summary.incidents {
            println!("  {inc}");
        }
    }
}
