//! Cross-crate integration tests: the paper's headline shapes must hold on
//! full 200-frame runs of the real pipeline.

use qvr::prelude::*;

fn config() -> SystemConfig {
    SystemConfig::default()
}

#[test]
fn scheme_ordering_on_heavy_benchmarks() {
    // Fig. 12's ordering: Q-VR > DFR ≥ FFR > Static > Baseline in
    // end-to-end latency for heavy scenes.
    for bench in [Benchmark::Grid, Benchmark::Wolf] {
        let cfg = config();
        let run = |k: SchemeKind| k.run(&cfg, bench.profile(), 200, 11).mean_mtp_ms();
        let base = run(SchemeKind::LocalOnly);
        let stat = run(SchemeKind::StaticCollab);
        let ffr = run(SchemeKind::Ffr);
        let dfr = run(SchemeKind::Dfr);
        let qvr = run(SchemeKind::Qvr);
        assert!(
            stat < base,
            "{bench}: static {stat:.1} < baseline {base:.1}"
        );
        assert!(ffr < stat, "{bench}: FFR {ffr:.1} < static {stat:.1}");
        assert!(dfr <= ffr * 1.05, "{bench}: DFR {dfr:.1} ~<= FFR {ffr:.1}");
        assert!(qvr < dfr, "{bench}: Q-VR {qvr:.1} < DFR {dfr:.1}");
    }
}

#[test]
fn qvr_meets_vr_targets_where_the_paper_says_so() {
    // Fig. 14(b): Q-VR sustains > 90 FPS on the default condition, and the
    // 25 ms MTP bound holds.
    let cfg = config();
    for bench in Benchmark::all() {
        let s = SchemeKind::Qvr.run(&cfg, bench.profile(), 200, 11);
        assert!(
            s.fps() >= 85.0,
            "{bench}: Q-VR FPS {:.0} below the 90 Hz neighbourhood",
            s.fps()
        );
        assert!(
            s.mean_mtp_ms() < 25.0,
            "{bench}: Q-VR MTP {:.1} ms above the 25 ms bound",
            s.mean_mtp_ms()
        );
    }
}

#[test]
fn qvr_speedup_band_over_baseline() {
    // Abstract: average 3.4x (up to 6.7x) end-to-end speedup over local
    // rendering. Allow a generous band around the shape.
    let cfg = config();
    let mut speedups = Vec::new();
    for bench in Benchmark::all() {
        let base = SchemeKind::LocalOnly.run(&cfg, bench.profile(), 150, 11);
        let qvr = SchemeKind::Qvr.run(&cfg, bench.profile(), 150, 11);
        speedups.push(base.mean_mtp_ms() / qvr.mean_mtp_ms());
    }
    let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
    let max = speedups.iter().cloned().fold(0.0, f64::max);
    assert!(
        (2.0..6.0).contains(&avg),
        "average speedup {avg:.1}x vs paper 3.4x"
    );
    assert!(
        (4.0..10.0).contains(&max),
        "max speedup {max:.1}x vs paper 6.7x"
    );
}

#[test]
fn qvr_transmits_far_less_than_remote_only() {
    // Fig. 13: ~85% average transmitted-data reduction vs full streaming.
    let cfg = config();
    let mut ratios = Vec::new();
    for bench in Benchmark::all() {
        let remote = SchemeKind::RemoteOnly.run(&cfg, bench.profile(), 100, 11);
        let qvr = SchemeKind::Qvr.run(&cfg, bench.profile(), 100, 11);
        ratios.push(qvr.mean_tx_bytes() / remote.mean_tx_bytes());
    }
    let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
    assert!(avg < 0.35, "average transmit ratio {avg:.2} vs paper 0.15");
}

#[test]
fn rate_controlled_qvr_never_transmits_more_than_remote_only() {
    // The metamorphic law behind Fig. 13 on the content-true byte path:
    // with rate control on, both schemes size every frame with the entropy
    // model and close the loop on the same link share, and Q-VR streams
    // only the periphery the client does not render, so for every app and
    // seed its mean tx bytes stay at or under full-frame streaming's.
    let cfg = config().with_rate_control(RateControlConfig::on());
    for bench in Benchmark::all() {
        for seed in [3, 11, 29] {
            let remote = SchemeKind::RemoteOnly.run(&cfg, bench.profile(), 80, seed);
            let qvr = SchemeKind::Qvr.run(&cfg, bench.profile(), 80, seed);
            let (q, r) = (qvr.mean_tx_bytes(), remote.mean_tx_bytes());
            assert!(
                q <= r,
                "{bench} seed {seed}: Q-VR ships {q:.0} B/frame, RemoteOnly {r:.0}"
            );
        }
    }
}

#[test]
fn qvr_saves_energy_vs_baseline() {
    // Fig. 15: ~73% average energy reduction vs local rendering.
    let cfg = config();
    let mut ratios = Vec::new();
    for bench in Benchmark::all() {
        let base = SchemeKind::LocalOnly.run(&cfg, bench.profile(), 100, 11);
        let qvr = SchemeKind::Qvr.run(&cfg, bench.profile(), 100, 11);
        ratios.push(qvr.energy.total_mj() / base.energy.total_mj());
    }
    let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
    assert!(avg < 0.6, "average energy ratio {avg:.2} vs paper 0.27");
}

#[test]
fn perception_stays_lossless_under_qvr() {
    // Sec. 3.1's survey conclusion: every frame's foveation plan satisfies
    // the MAR bound, so users cannot tell Q-VR frames from native ones.
    let cfg = config();
    let model = PerceptionModel::new(DisplayGeometry::vive_pro_class(), MarModel::default());
    let s = SchemeKind::Qvr.run(&cfg, Benchmark::Hl2H.profile(), 100, 11);
    for f in &s.frames {
        let e1 = f.e1_deg.expect("foveated scheme records e1");
        let p = LayerPartition::with_optimal_middle(e1, model.display(), model.mar()).unwrap();
        assert!(
            model.score(&p).is_lossless(),
            "frame {} violates MAR",
            f.frame_id
        );
    }
    let survey = model.run_survey(
        &LayerPartition::with_optimal_middle(
            s.mean_e1_deg(50).unwrap(),
            model.display(),
            model.mar(),
        )
        .unwrap(),
        50,
        7,
    );
    assert_eq!(survey.fraction_noticing, 0.0);
}

#[test]
fn network_sensitivity_matches_table4_direction() {
    let bench = Benchmark::Hl2H;
    let e1_for = |preset: NetworkPreset| {
        let cfg = config().with_network(preset);
        SchemeKind::Qvr
            .run(&cfg, bench.profile(), 250, 11)
            .mean_e1_deg(125)
            .unwrap()
    };
    let wifi = e1_for(NetworkPreset::WiFi);
    let lte = e1_for(NetworkPreset::Lte4G);
    let five_g = e1_for(NetworkPreset::Early5G);
    assert!(lte > wifi, "LTE e1 {lte:.1} > WiFi e1 {wifi:.1}");
    assert!(wifi > five_g, "WiFi e1 {wifi:.1} > 5G e1 {five_g:.1}");
}

#[test]
fn frequency_sensitivity_matches_table4_direction() {
    let bench = Benchmark::Ut3;
    let e1_for = |mhz: f64| {
        let cfg = config().with_gpu_frequency_mhz(mhz);
        SchemeKind::Qvr
            .run(&cfg, bench.profile(), 250, 11)
            .mean_e1_deg(125)
            .unwrap()
    };
    let at_500 = e1_for(500.0);
    let at_300 = e1_for(300.0);
    assert!(
        at_300 < at_500,
        "slower GPUs keep smaller foveas: 300 MHz {at_300:.1}° vs 500 MHz {at_500:.1}°"
    );
}

#[test]
fn runs_are_fully_deterministic_across_schemes() {
    let cfg = config();
    for kind in SchemeKind::all() {
        let a = kind.run(&cfg, Benchmark::Doom3H.profile(), 50, 99);
        let b = kind.run(&cfg, Benchmark::Doom3H.profile(), 50, 99);
        assert_eq!(a, b, "{kind} must be deterministic");
    }
}
