//! The traced run: record a workload, replay it layer by layer, and turn
//! the spans and counts into per-layer metrics.

use crate::record::{self, Recording};
use crate::replay::Replay;
use crate::trace::{self, Layer, Tracer};
use crate::workload::{self, Size, Workload};
use crate::{median, Metric};
use qvr::prelude::*;
use std::time::Instant;

/// One traced round's measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct Round {
    /// Frames stepped.
    pub frames: u64,
    /// Host time of the traced run's public stepping calls, ns.
    pub stepping_ns: u64,
    /// Durations of those calls, ns.
    pub step_ns: Vec<u64>,
    /// Host time from the first stepping call's start to the last one's
    /// end across all recordings, ns (capture between calls included).
    pub wall_ns: u64,
    /// Self time per layer, ns (order of [`Layer::ALL`]).
    pub self_ns: Vec<u64>,
    /// Calls per layer (order of [`Layer::ALL`]).
    pub calls: Vec<u64>,
    /// Σ distinct (gaze, e1) pairs per frame.
    pub distinct_pairs: u64,
    /// Replayed downlink transfers.
    pub transfers: u64,
    /// Tasks the real engines were given.
    pub tasks: u64,
    /// Tasks the real engines retired.
    pub retired: u64,
    /// Chrome-trace JSON of the round, when asked for.
    pub chrome_trace: Option<String>,
}

fn record_workload(workload: Workload, seed: u64, size: Size, workers: usize) -> Vec<Recording> {
    let origin = Instant::now();
    match workload {
        Workload::FoveatedFleet => {
            vec![record::record_fleet(workload::fleet_config(seed, size), origin).0]
        }
        Workload::StreamingChurn => {
            vec![record::record_churn(workload::churn_config(seed, size), origin).0]
        }
        Workload::ObservedShard => {
            record::record_shard(&workload::shard_config(seed, size, workers), workers)
                .into_iter()
                .map(|(_, r)| r)
                .collect()
        }
    }
}

/// Records one run of the workload and replays it; with `keep_trace`,
/// also renders the round's spans as Chrome-trace JSON.
///
/// # Errors
///
/// Returns a description of a replay drift, or of a merged shard that does
/// not reproduce the recorded cells.
pub fn round(
    workload: Workload,
    seed: u64,
    size: Size,
    workers: usize,
    keep_trace: bool,
) -> Result<Round, String> {
    let recs = record_workload(workload, seed, size, workers);
    let tr = Tracer::new();
    let mut frames = 0;
    let mut distinct_pairs = 0;
    let mut transfers = 0;
    let mut cells = Vec::with_capacity(recs.len());
    for (i, rec) in recs.iter().enumerate() {
        let out = Replay::new(rec, &tr).run()?;
        frames += out.frames;
        distinct_pairs += out.distinct_pairs;
        transfers += out.transfers;
        let mut cell = out.cell;
        cell.cell = i;
        cells.push(cell);
    }
    if workload == Workload::ObservedShard {
        let expected = cells.iter().map(|c| c.frames).sum::<usize>();
        let merged = tr.layer(Layer::ShardMerge, 1, || ShardSummary::merge(cells));
        if merged.frames != expected || merged.exposition.is_none() {
            return Err("replayed shard merge lost frames or metrics".to_owned());
        }
    }
    tr.mark_uncalled();
    let steps: Vec<(usize, u64, u64)> = recs
        .iter()
        .enumerate()
        .flat_map(|(i, r)| {
            r.steps
                .iter()
                .filter_map(move |s| s.host.map(|(a, b)| (i, a, b)))
        })
        .collect();
    let wall_ns =
        steps.iter().map(|s| s.2).max().unwrap_or(0) - steps.iter().map(|s| s.1).min().unwrap_or(0);
    Ok(Round {
        frames,
        wall_ns,
        stepping_ns: recs.iter().map(Recording::stepping_ns).sum(),
        step_ns: recs.iter().flat_map(Recording::step_durations_ns).collect(),
        self_ns: tr.self_ns().to_vec(),
        calls: Layer::ALL.iter().map(|l| tr.calls(*l)).collect(),
        distinct_pairs,
        transfers,
        tasks: recs.iter().map(|r| r.tasks_total as u64).sum(),
        retired: recs.iter().map(|r| r.retired_total as u64).sum(),
        chrome_trace: keep_trace.then(|| trace::chrome_trace_json(&steps, &tr.spans())),
    })
}

/// The nearest-rank percentile of a sorted sample (0 when empty).
fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// Every count a round reports that must repeat exactly between runs of
/// the same inputs.
#[must_use]
pub fn counts(r: &Round) -> Vec<u64> {
    let mut c = r.calls.clone();
    c.extend([
        r.frames,
        r.distinct_pairs,
        r.transfers,
        r.tasks,
        r.retired,
        r.step_ns.len() as u64,
    ]);
    c
}

/// The share of a round's traced stepping time the replayed layers cover.
fn coverage(r: &Round) -> f64 {
    r.self_ns.iter().sum::<u64>() as f64 / r.stepping_ns.max(1) as f64
}

/// Per-layer metrics from several rounds of the same inputs. Counts must
/// be equal in every round. Times and shares come from one round, the one
/// with the median coverage, so they stay consistent with each other:
/// `core.runner` is that round's stepping time not covered by a layer,
/// and the layer shares plus `core.runner.share` sum to 1.
/// `trace.overhead` compares the median traced stepping rate with
/// `untraced_fps`.
///
/// # Errors
///
/// Returns an error if there are no rounds or their counts differ.
pub fn metrics(rounds: &[Round], untraced_fps: f64) -> Result<Vec<Metric>, String> {
    let first = rounds.first().ok_or("no traced rounds")?;
    if rounds.iter().any(|r| counts(r) != counts(first)) {
        return Err("layer counts differ between rounds of the same inputs".to_owned());
    }
    let mut by_coverage: Vec<&Round> = rounds.iter().collect();
    by_coverage.sort_by(|a, b| coverage(a).total_cmp(&coverage(b)));
    let r = by_coverage[by_coverage.len() / 2];
    let frames = r.frames.max(1) as f64;
    let stepping = r.stepping_ns.max(1) as f64;
    let mut out = Vec::new();
    let mut push = |name: String, value: f64, unit: &'static str| {
        out.push(Metric::new(name, value, unit));
    };
    for (i, layer) in Layer::ALL.iter().enumerate() {
        let name = layer.name();
        let ns = r.self_ns[i] as f64;
        push(
            format!("{name}.calls_per_frame"),
            r.calls[i] as f64 / frames,
            "calls/frame",
        );
        push(format!("{name}.ns_per_frame"), ns / frames, "ns");
        push(format!("{name}.share"), ns / stepping, "fraction");
    }
    let covered = coverage(r);
    let runner_ns = stepping - r.self_ns.iter().sum::<u64>() as f64;
    let mut steps = r.step_ns.clone();
    steps.sort_unstable();
    push(
        "core.runner.calls_per_frame".to_owned(),
        steps.len() as f64 / frames,
        "calls/frame",
    );
    push(
        "core.runner.ns_per_frame".to_owned(),
        runner_ns / frames,
        "ns",
    );
    push(
        "core.runner.share".to_owned(),
        runner_ns / stepping,
        "fraction",
    );
    push(
        "core.runner.step_us_p50".to_owned(),
        percentile(&steps, 0.50) / 1e3,
        "us",
    );
    push(
        "core.runner.step_us_p99".to_owned(),
        percentile(&steps, 0.99) / 1e3,
        "us",
    );
    push(
        "core.runner.step_samples".to_owned(),
        steps.len() as f64,
        "count",
    );
    push(
        "scene.triangle_fraction.distinct_per_frame".to_owned(),
        r.distinct_pairs as f64 / frames,
        "pairs/frame",
    );
    push(
        "net.link.transfers_per_frame".to_owned(),
        r.transfers as f64 / frames,
        "count/frame",
    );
    push(
        "sim.engine.tasks_per_frame".to_owned(),
        r.tasks as f64 / frames,
        "count/frame",
    );
    push(
        "sim.engine.retired_per_frame".to_owned(),
        r.retired as f64 / frames,
        "count/frame",
    );
    push("trace.coverage".to_owned(), covered, "fraction");
    let wall_ns = median(rounds.iter().map(|r| r.wall_ns as f64).collect());
    push(
        "trace.overhead".to_owned(),
        frames / (wall_ns / 1e9).max(1e-12) / untraced_fps.max(1e-12),
        "ratio",
    );
    Ok(out)
}
