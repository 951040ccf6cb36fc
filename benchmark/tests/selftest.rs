//! The benchmark's own tests: every workload runs, replays faithfully,
//! repeats its counts exactly, and stays clear of retired engine history.

use qvr::prelude::*;
use qvr_benchmark::clock;
use qvr_benchmark::layers::{self, Round};
use qvr_benchmark::record;
use qvr_benchmark::reference::{self, REFERENCE_SEED};
use qvr_benchmark::run;
use qvr_benchmark::workload::{self, Size, Workload};

fn round(w: Workload, seed: u64, workers: usize) -> Round {
    layers::round(w, seed, Size::Reduced, workers, true)
        .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", w.name()))
}

#[test]
fn every_workload_runs_and_replays_at_reduced_length_on_two_seeds() {
    for w in Workload::ALL {
        for seed in [1, 2] {
            let (timing, out) = run::run(w, seed, Size::Reduced);
            assert!(out.frames > 0, "{}: no frames", w.name());
            assert_eq!(timing.frames, out.frames);
            assert!(out.mtp_p50_ms <= out.mtp_p95_ms && out.mtp_p95_ms <= out.mtp_p99_ms);
            // The traced run replays bit-exactly (a drift is an error).
            assert_eq!(round(w, seed, 2).frames, out.frames, "{}", w.name());
        }
    }
}

#[test]
fn counts_repeat_exactly_across_runs_and_worker_counts() {
    for w in Workload::ALL {
        let a = round(w, 5, 2);
        let b = round(w, 5, 2);
        assert_eq!(layers::counts(&a), layers::counts(&b), "{}", w.name());
        if w == Workload::ObservedShard {
            let one = round(w, 5, 1);
            assert_eq!(layers::counts(&a), layers::counts(&one), "1 vs 2 workers");
        }
    }
}

#[test]
fn layer_shares_and_the_runner_sum_to_one() {
    for w in Workload::ALL {
        let rounds = vec![round(w, 3, 2), round(w, 3, 2), round(w, 3, 2)];
        let metrics = layers::metrics(&rounds, 1_000.0).expect("consistent rounds");
        let value = |name: &str| {
            metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("missing {name}"))
                .value
        };
        let layer_shares: f64 = metrics
            .iter()
            .filter(|m| m.name.ends_with(".share") && m.name != "core.runner.share")
            .map(|m| m.value)
            .sum();
        let total = layer_shares + value("core.runner.share");
        assert!(
            (total - 1.0).abs() < 1e-9,
            "{}: shares sum to {total}",
            w.name()
        );
        assert!((value("trace.coverage") - layer_shares).abs() < 1e-12);
        assert!(metrics.iter().all(|m| m.value.is_finite()));
    }
}

#[test]
fn geometry_is_where_the_foveated_fleet_spends_and_churn_never_calls_it() {
    let fleet = round(Workload::FoveatedFleet, 1, 2);
    let churn = round(Workload::StreamingChurn, 1, 2);
    let tf = qvr_benchmark::trace::Layer::TriangleFraction as usize;
    assert!(fleet.calls[tf] > 0);
    assert_eq!(
        churn.calls[tf], 0,
        "no tenant of the churn fleet is foveated"
    );
    let largest = (0..fleet.self_ns.len())
        .max_by_key(|&i| fleet.self_ns[i])
        .expect("layers");
    assert_eq!(largest, tf, "the triangle-fraction integral dominates");
}

/// The longest gap between two consecutive displays of any tenant, ms.
fn longest_interval<'a>(frames: impl Iterator<Item = &'a FrameRecord>) -> f64 {
    frames.map(|f| f.frame_interval_ms).fold(0.0, f64::max)
}

#[test]
fn retirement_windows_clear_the_dependency_horizon() {
    // A frame depends on tasks at most (prefetch lookahead + 1) of its
    // session's frame intervals back (static collaborative prefetch chains;
    // render-ahead pacing reaches two displays back).
    let depth = f64::from(SystemConfig::default().prefetch_lookahead) + 1.0;
    for seed in [1, 2, 3] {
        let churn = ChurnFleet::run(workload::churn_config(seed, Size::Full));
        let gap = longest_interval(churn.tenants.iter().flat_map(|t| t.summary.frames.iter()));
        assert!(
            depth * gap < workload::CHURN_RETIRE_WINDOW_MS,
            "churn seed {seed}: horizon {} ms",
            depth * gap
        );
        let config = workload::shard_config(seed, Size::Full, 2);
        let cells = record::record_shard(&config, 2);
        let gap = longest_interval(
            cells
                .iter()
                .flat_map(|(_, r)| r.sessions.iter().flat_map(|s| s.frames.iter())),
        );
        assert!(
            depth * gap < workload::SHARD_RETIRE_WINDOW_MS,
            "shard seed {seed}: horizon {} ms",
            depth * gap
        );
    }
}

#[test]
fn the_cpu_clock_advances_over_a_probe() {
    let before = clock::process_cpu();
    let probe = clock::probe_s();
    assert!(probe > 0.0);
    assert!((clock::process_cpu() - before).as_secs_f64() >= probe);
}

#[test]
fn outputs_match_the_stored_reference() {
    for w in Workload::ALL {
        let got = run::checked_outputs(w, REFERENCE_SEED, Size::Full).expect("consistent");
        let want = reference::stored(w).expect("stored");
        reference::compare(&got, &want).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
    }
}

#[test]
fn the_tolerance_admits_a_declared_repin_and_catches_a_changed_model() {
    let want = reference::stored(Workload::FoveatedFleet).expect("stored");
    let mut repin = want;
    repin.mtp_p50_ms *= 1.0 + 1.1e-6;
    assert!(reference::compare(&repin, &want).is_ok());
    let mut changed = want;
    changed.mean_tx_bytes *= 1.01;
    assert!(reference::compare(&changed, &want).is_err());
    let mut extra = want;
    extra.tasks += 1;
    assert!(reference::compare(&extra, &want).is_err());
}

#[test]
fn the_traced_round_writes_a_chrome_trace() {
    let r = round(Workload::FoveatedFleet, 1, 1);
    let json = r.chrome_trace.as_deref().expect("asked for");
    assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
    assert!(json.trim_end().ends_with("]}"));
    for name in [
        "core.runner",
        "replay.step",
        "scene.triangle_fraction",
        "sim.engine",
    ] {
        assert!(json.contains(&format!("\"name\":\"{name}\"")), "{name}");
    }
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}
