//! Benchmark runner.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <foveated_fleet|streaming_churn|observed_shard> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run first checks the workload's outputs at the reference seed
//! against `reference.txt`. `--trace 0` then cycles untraced runs through
//! the seed's fleets (`Workload::fleets` of them) for `--seconds`, each
//! between two host-speed probes, and reports the end-to-end metrics in
//! CPU seconds scaled to the reference host speed; `--trace 1` spends half
//! the time on untraced runs (the base of `trace.overhead`) and the rest
//! on traced rounds of the seed's first fleet, and reports the per-layer
//! metrics.
//! The last line of standard output is the result object.
//! `--write-reference` prints fresh reference lines instead.

use qvr_benchmark::clock::{probe_s, PROBE_REFERENCE_S};
use qvr_benchmark::layers;
use qvr_benchmark::malloc;
use qvr_benchmark::reference::{self, REFERENCE_SEED};
use qvr_benchmark::run::{self, Outputs, Timing, SHARD_WORKERS};
use qvr_benchmark::workload::{sub_seed, Size, Workload};
use qvr_benchmark::{median, result_json, Metric};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

/// `None` asks for fresh reference lines (`--write-reference`).
fn parse_args() -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut write_reference = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-reference" {
            write_reference = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if write_reference {
        return Ok(None);
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

/// Counts runs and failures; a panic counts as a failure.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn attempt<R>(&mut self, f: impl FnOnce() -> Result<R, String>) -> Option<R> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(r)) => Some(r),
            Ok(Err(e)) => {
                eprintln!("run failed: {e}");
                self.failed += 1;
                None
            }
            Err(_) => {
                eprintln!("run panicked");
                self.failed += 1;
                None
            }
        }
    }
}

/// The process's peak resident set, MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One untraced run and the host speed around it.
#[derive(Debug, Clone, Copy)]
struct Sample {
    timing: Timing,
    /// (reference probe time / mean of the probes just before and just
    /// after the run)^[`Workload::probe_exponent`].
    scale: f64,
}

impl Sample {
    /// A timing of this run in reference seconds: the time it would have
    /// taken at the reference host's typical speed.
    fn scaled(&self, secs: f64) -> f64 {
        secs * self.scale
    }
}

/// Untraced runs cycling through the seed's fleets ([`Workload::fleets`]),
/// in whole cycles, until `budget` has elapsed (at least `min_cycles`
/// cycles), each between two host-speed probes. A fleet's repeat runs must
/// reproduce its first run's outputs exactly. Returns the samples per
/// fleet.
fn untraced(
    tally: &mut Tally,
    w: Workload,
    seed: u64,
    budget: Duration,
    min_cycles: usize,
) -> Vec<Vec<Sample>> {
    let start = Instant::now();
    let fleets = w.fleets();
    let mut samples: Vec<Vec<Sample>> = vec![Vec::new(); fleets];
    let mut first: Vec<Option<Outputs>> = vec![None; fleets];
    let mut cycles = 0;
    while cycles < min_cycles || start.elapsed() < budget {
        for i in 0..fleets {
            let expected = first[i];
            let before = probe_s();
            let r = tally.attempt(|| {
                let (timing, out) = run::run(w, sub_seed(seed, i), Size::Full);
                if out.frames == 0 || !(out.mtp_p50_ms > 0.0 && out.fps_floor > 0.0) {
                    return Err(format!("degenerate outputs: {out:?}"));
                }
                match expected {
                    Some(f) if f != out => {
                        Err("outputs differ between runs of one seed".to_owned())
                    }
                    _ => Ok((timing, out)),
                }
            });
            let after = probe_s();
            if let Some((timing, out)) = r {
                first[i].get_or_insert(out);
                let probe = (before + after) / 2.0;
                samples[i].push(Sample {
                    timing,
                    scale: (PROBE_REFERENCE_S / probe).powf(w.probe_exponent()),
                });
            }
        }
        cycles += 1;
        if tally.failed > 3 {
            break;
        }
    }
    samples
}

/// Σ frames over Σ per-fleet median `time`: a rate in which every fleet
/// weighs the same.
fn rate(samples: &[Vec<Sample>], time: impl Fn(&Sample) -> f64) -> f64 {
    let per_fleet = samples.iter().filter(|t| !t.is_empty());
    let (frames, secs) = per_fleet.fold((0.0, 0.0), |(f, s), t| {
        (
            f + t[0].timing.frames as f64,
            s + median(t.iter().map(&time).collect()),
        )
    });
    frames / secs
}

/// The nearest-rank 10th percentile of a sample (0 when empty).
fn lower_decile(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    v[(v.len() - 1) / 10]
}

/// End-to-end metrics over a run's fleets, in reference seconds
/// ([`Sample::scaled`]). Each fleet's repeats reduce to their median, then
/// rates and times aggregate over the fleets (input variation), so every
/// fleet weighs the same. Set-up time is the lower decile over every run:
/// set-up takes 10 µs to 12 ms, mostly fresh allocations, and a share of
/// set-ups runs long on cache misses and page faults whatever the probes
/// say. Over the 30 s stretches below, the median scaled set-up time moved
/// by 0.10, 0.05 and 0.45 (interquartile range over median), the lower
/// decile by 0.017, 0.08 and 0.027.
/// `peak_rss_mib` is the peak resident set after the reference check, a
/// full run on fixed inputs: read after the measured runs, it grows with
/// the number of repeats a run fits in, that is with the host's speed.
///
/// Over 30 s stretches of four-minute single-seed series on the two-vCPU
/// reference host, the interquartile range over median of the summed
/// stepping time was, for `foveated_fleet`, `streaming_churn` and
/// `observed_shard`: 0.07, 0.12 and 0.07 with the fastest repeat per fleet;
/// 0.13, 0.29 and 0.07 with the median repeat; 0.016, 0.016 and 0.021 with
/// the median scaled repeat.
fn end_to_end(samples: &[Vec<Sample>], peak_rss_mib: f64) -> Vec<Metric> {
    let per_fleet: Vec<&Vec<Sample>> = samples.iter().filter(|t| !t.is_empty()).collect();
    let n = per_fleet.len().max(1) as f64;
    let run_s: f64 = per_fleet
        .iter()
        .map(|t| median(t.iter().map(|x| x.scaled(x.timing.run_s)).collect()))
        .sum();
    let peak_live: f64 = per_fleet
        .iter()
        .map(|t| t[0].timing.peak_live_tasks as f64)
        .sum();
    vec![
        Metric::new(
            "frames_per_s".to_owned(),
            rate(samples, |x| x.scaled(x.timing.stepping_s)),
            "1/s",
        ),
        Metric::new("run_s".to_owned(), run_s / n, "s"),
        Metric::new(
            "setup_s".to_owned(),
            lower_decile(
                samples
                    .iter()
                    .flatten()
                    .map(|x| x.scaled(x.timing.setup_s))
                    .collect(),
            ),
            "s",
        ),
        Metric::new("peak_live_tasks".to_owned(), peak_live / n, "count"),
        Metric::new("peak_rss_mib".to_owned(), peak_rss_mib, "MiB"),
    ]
}

/// Writes a traced round's Chrome-trace JSON to `out/<workload>.trace.json`
/// in the benchmark's directory.
fn write_trace(w: Workload, json: &str) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{}.trace.json", w.name()));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
        eprintln!("could not write {}: {e}", path.display());
    }
}

/// Prints fresh reference lines for every workload.
fn write_reference() -> ExitCode {
    for w in Workload::ALL {
        match run::checked_outputs(w, REFERENCE_SEED, Size::Full) {
            Ok(o) => println!("{}", reference::line(w, REFERENCE_SEED, &o)),
            Err(e) => {
                eprintln!("{}: {e}", w.name());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => return write_reference(),
        Err(e) => {
            eprintln!("usage error: {e}");
            return ExitCode::from(2);
        }
    };
    if !malloc::fix_settings() {
        eprintln!("the C library refused the malloc settings");
        return ExitCode::FAILURE;
    }
    let w = args.workload;
    let budget = Duration::from_secs(args.seconds);
    let mut tally = Tally::default();
    tally.attempt(|| {
        let got = run::checked_outputs(w, REFERENCE_SEED, Size::Full)?;
        reference::compare(&got, &reference::stored(w)?)
    });
    let reference_rss = peak_rss_mib();
    let metrics = if args.trace {
        let samples = untraced(&mut tally, w, args.seed, budget / 2, 1);
        let untraced_fps = rate(&samples, |x| x.timing.stepping_wall_s);
        let start = Instant::now();
        let mut rounds = Vec::new();
        while rounds.len() < 3 || start.elapsed() < budget / 2 {
            let traced = sub_seed(args.seed, 0);
            // Only the first round renders its spans: one churn round's
            // trace runs to tens of MB.
            let keep = rounds.is_empty();
            match tally.attempt(|| layers::round(w, traced, Size::Full, SHARD_WORKERS, keep)) {
                Some(mut r) => {
                    if let Some(json) = r.chrome_trace.take() {
                        write_trace(w, &json);
                    }
                    rounds.push(r);
                }
                None if tally.failed > 3 => break,
                None => {}
            }
        }
        tally
            .attempt(|| layers::metrics(&rounds, untraced_fps))
            .unwrap_or_default()
    } else {
        let samples = untraced(&mut tally, w, args.seed, budget, 2);
        end_to_end(&samples, reference_rss)
    };
    for m in &metrics {
        eprintln!("{:<48} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        result_json(tally.failed == 0, tally.attempted, tally.failed, &metrics)
    );
    ExitCode::SUCCESS
}
