//! Untraced workload runs: host timings and the simulated outputs the
//! correctness check compares.

use crate::clock::process_cpu;
use crate::record;
use crate::workload::{self, Size, Workload};
use qvr::core::metrics::SortedSamples;
use qvr::prelude::*;
use std::time::{Duration, Instant};

/// Worker threads `observed_shard` runs on (the benchmark machine's
/// `nproc`; all load comes from one process).
pub const SHARD_WORKERS: usize = 1;

/// Host timings of one untraced run, seconds of the benchmark process's CPU
/// time ([`clock::process_cpu`]) except where marked wall-clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Roster, trace and config construction plus fleet construction.
    pub setup_s: f64,
    /// The public stepping calls.
    pub stepping_s: f64,
    /// The public stepping calls, wall-clock: the base `trace.overhead`
    /// compares the (wall-clock) traced run with.
    pub stepping_wall_s: f64,
    /// Set-up through summary.
    pub run_s: f64,
    /// Frames stepped.
    pub frames: u64,
    /// Peak retained engine intervals, from the summary.
    pub peak_live_tasks: u64,
}

/// Clock readings around one run's phases: CPU time at its start, after
/// set-up, after stepping and at its end, and the wall-clock stepping time.
struct Marks {
    cpu: [Duration; 4],
    stepping_wall: Duration,
}

impl Marks {
    fn timing(&self, frames: u64, peak_live_tasks: u64) -> Timing {
        let [start, setup, stepped, end] = self.cpu;
        Timing {
            setup_s: (setup - start).as_secs_f64(),
            stepping_s: (stepped - setup).as_secs_f64(),
            stepping_wall_s: self.stepping_wall.as_secs_f64(),
            run_s: (end - start).as_secs_f64(),
            frames,
            peak_live_tasks,
        }
    }
}

/// The simulated results a run is checked on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outputs {
    /// Frames stepped.
    pub frames: u64,
    /// Tenants admitted.
    pub tenants: u64,
    /// Engine tasks submitted.
    pub tasks: u64,
    /// MTP percentiles, ms.
    pub mtp_p50_ms: f64,
    /// 95th percentile.
    pub mtp_p95_ms: f64,
    /// 99th percentile.
    pub mtp_p99_ms: f64,
    /// Mean downlink bytes per frame.
    pub mean_tx_bytes: f64,
    /// The slowest tenant's frame rate, frames/s.
    pub fps_floor: f64,
}

fn mean_tx<'a>(frames: impl Iterator<Item = &'a FrameRecord>) -> f64 {
    let (n, sum) = frames.fold((0u64, 0.0), |(n, s), f| (n + 1, s + f.tx_bytes));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Runs one workload untraced.
#[must_use]
pub fn run(workload: Workload, seed: u64, size: Size) -> (Timing, Outputs) {
    match workload {
        Workload::FoveatedFleet => run_fleet(seed, size),
        Workload::StreamingChurn => run_churn(seed, size),
        Workload::ObservedShard => run_shard(seed, size, SHARD_WORKERS),
    }
}

fn run_fleet(seed: u64, size: Size) -> (Timing, Outputs) {
    let c0 = process_cpu();
    let config = workload::fleet_config(seed, size);
    let frames = config.frames;
    let mut fleet = Fleet::new(config);
    let c1 = process_cpu();
    let w1 = Instant::now();
    for _ in 0..frames {
        fleet.step_round();
    }
    let stepping_wall = w1.elapsed();
    let c2 = process_cpu();
    let engine = fleet.shared_engine();
    let s = fleet.finish();
    let marks = Marks {
        cpu: [c0, c1, c2, process_cpu()],
        stepping_wall,
    };
    let stepped: u64 = s.sessions.iter().map(|r| r.frames.len() as u64).sum();
    let timing = marks.timing(stepped, s.peak_live_tasks as u64);
    let outputs = Outputs {
        frames: stepped,
        tenants: s.len() as u64,
        tasks: engine.task_count() as u64,
        mtp_p50_ms: s.mtp_p50_ms,
        mtp_p95_ms: s.mtp_p95_ms,
        mtp_p99_ms: s.mtp_p99_ms,
        mean_tx_bytes: mean_tx(s.sessions.iter().flat_map(|r| r.frames.iter())),
        fps_floor: s.fps_floor,
    };
    (timing, outputs)
}

fn run_churn(seed: u64, size: Size) -> (Timing, Outputs) {
    let c0 = process_cpu();
    let config = workload::churn_config(seed, size);
    let mut fleet = ChurnFleet::new(config);
    let c1 = process_cpu();
    let w1 = Instant::now();
    while fleet.tick() {}
    let stepping_wall = w1.elapsed();
    let c2 = process_cpu();
    let s = fleet.finish();
    let marks = Marks {
        cpu: [c0, c1, c2, process_cpu()],
        stepping_wall,
    };
    let timing = marks.timing(
        s.tenants.iter().map(|t| t.summary.len() as u64).sum(),
        s.peak_live_per_resource as u64,
    );
    (timing, churn_outputs(&s))
}

/// The checked outputs of a churn summary: percentiles over every frame,
/// and the floor of residency frame rates over tenants that displayed.
#[must_use]
pub fn churn_outputs(s: &ChurnSummary) -> Outputs {
    let frames = s.tenants.iter().flat_map(|t| t.summary.frames.iter());
    let mtp = SortedSamples::new(frames.clone().map(|f| f.mtp_ms).collect());
    let floor = s
        .tenants
        .iter()
        .filter(|t| !t.summary.is_empty())
        .map(TenantRecord::resident_fps)
        .fold(f64::INFINITY, f64::min);
    Outputs {
        frames: mtp.len() as u64,
        tenants: s
            .tenants
            .iter()
            .filter(|t| t.decision == AdmissionDecision::Admitted)
            .count() as u64,
        tasks: s.total_tasks as u64,
        mtp_p50_ms: mtp.p50(),
        mtp_p95_ms: mtp.p95(),
        mtp_p99_ms: mtp.p99(),
        mean_tx_bytes: mean_tx(frames),
        fps_floor: if floor.is_finite() { floor } else { 0.0 },
    }
}

fn run_shard(seed: u64, size: Size, workers: usize) -> (Timing, Outputs) {
    let c0 = process_cpu();
    let config = workload::shard_config(seed, size, workers);
    let c1 = process_cpu();
    let w1 = Instant::now();
    let s = Shard::run(config);
    let stepping_wall = w1.elapsed();
    let c2 = process_cpu();
    let marks = Marks {
        cpu: [c0, c1, c2, c2],
        stepping_wall,
    };
    let timing = marks.timing(s.frames as u64, s.peak_live_tasks as u64);
    let outputs = Outputs {
        frames: s.frames as u64,
        tenants: s.sessions as u64,
        // `ShardSummary` carries no task or byte totals; the reference
        // check reads them from the recorded cells (see `check_shard`).
        tasks: 0,
        mtp_p50_ms: s.mtp_p50_ms,
        mtp_p95_ms: s.mtp_p95_ms,
        mtp_p99_ms: s.mtp_p99_ms,
        mean_tx_bytes: 0.0,
        fps_floor: s.fps_floor,
    };
    (timing, outputs)
}

/// The full set of checked outputs for `observed_shard`: `Shard::run`'s
/// summary, completed with task and byte totals from the cells run one by
/// one under the same routing. The recorded cells' aggregates merged must
/// reproduce `Shard::run` exactly, or the recording the traced run replays
/// is not the run it claims to be.
///
/// # Errors
///
/// Returns a description of the first disagreement.
pub fn shard_outputs(seed: u64, size: Size, workers: usize) -> Result<Outputs, String> {
    let (_, mut out) = run_shard(seed, size, workers);
    let config = workload::shard_config(seed, size, workers);
    let cells = record::record_shard(&config, workers);
    let mut aggregate = AggregateSink::new();
    let mut tasks = 0u64;
    let mut n = 0u64;
    let mut sum = 0.0;
    for (_, rec) in &cells {
        let mut cell = AggregateSink::new();
        cell.on_batch(&rec.events);
        aggregate.absorb(&cell);
        tasks += rec.tasks_total as u64;
        for f in rec.sessions.iter().flat_map(|s| s.frames.iter()) {
            n += 1;
            sum += f.tx_bytes;
        }
    }
    let (p50, p95, p99) = aggregate.mtp_percentiles();
    let (floor, _) = aggregate.fps_stats();
    if (p50, p95, p99, floor)
        != (
            out.mtp_p50_ms,
            out.mtp_p95_ms,
            out.mtp_p99_ms,
            out.fps_floor,
        )
        || aggregate.frames() as u64 != out.frames
    {
        return Err("recorded shard cells do not reproduce Shard::run".to_owned());
    }
    out.tasks = tasks;
    out.mean_tx_bytes = if n == 0 { 0.0 } else { sum / n as f64 };
    Ok(out)
}

/// The outputs the reference check compares for any workload.
///
/// # Errors
///
/// Returns a description of an internal disagreement (shard only).
pub fn checked_outputs(workload: Workload, seed: u64, size: Size) -> Result<Outputs, String> {
    match workload {
        Workload::ObservedShard => shard_outputs(seed, size, SHARD_WORKERS),
        w => Ok(run(w, seed, size).1),
    }
}
