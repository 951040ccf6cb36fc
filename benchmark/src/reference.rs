//! Reference outputs stored with the benchmark, and the check against them.
//!
//! `reference.txt` holds, per workload, the simulated outputs of one
//! full-size run at [`REFERENCE_SEED`]. Counts must match exactly; the
//! latency, byte and frame-rate figures within [`REL_TOL`]. Regenerate the
//! file with `--write-reference` only when a change is meant to move the
//! simulated results, and say so in that change.

use crate::run::Outputs;
use crate::workload::Workload;

/// The seed every run's correctness check uses.
pub const REFERENCE_SEED: u64 = 1;

/// Relative tolerance on MTP percentiles, mean tx bytes and the FPS floor:
/// about 900× the 1.1e-6 relative move of a declared closed-form geometry
/// re-pin, and far below the percent-level moves a changed timing, byte
/// or link model produces.
pub const REL_TOL: f64 = 1e-3;

const REFERENCE: &str = include_str!("../reference.txt");

/// Renders one reference line.
#[must_use]
pub fn line(workload: Workload, seed: u64, o: &Outputs) -> String {
    format!(
        "{} {seed} {} {} {} {} {} {} {} {}",
        workload.name(),
        o.frames,
        o.tenants,
        o.tasks,
        o.mtp_p50_ms,
        o.mtp_p95_ms,
        o.mtp_p99_ms,
        o.mean_tx_bytes,
        o.fps_floor
    )
}

/// The stored reference for a workload.
///
/// # Errors
///
/// Returns an error when the file has no well-formed line for it.
pub fn stored(workload: Workload) -> Result<Outputs, String> {
    let line = REFERENCE
        .lines()
        .find(|l| l.split_whitespace().next() == Some(workload.name()))
        .ok_or_else(|| format!("no reference for {}", workload.name()))?;
    let f: Vec<&str> = line.split_whitespace().collect();
    let bad = || format!("malformed reference line: {line}");
    if f.len() != 10 || f[1].parse::<u64>().ok() != Some(REFERENCE_SEED) {
        return Err(bad());
    }
    let u = |i: usize| f[i].parse::<u64>().map_err(|_| bad());
    let x = |i: usize| f[i].parse::<f64>().map_err(|_| bad());
    Ok(Outputs {
        frames: u(2)?,
        tenants: u(3)?,
        tasks: u(4)?,
        mtp_p50_ms: x(5)?,
        mtp_p95_ms: x(6)?,
        mtp_p99_ms: x(7)?,
        mean_tx_bytes: x(8)?,
        fps_floor: x(9)?,
    })
}

/// Compares outputs with a reference: counts exactly, the rest within
/// [`REL_TOL`].
///
/// # Errors
///
/// Names every field that disagrees.
pub fn compare(got: &Outputs, want: &Outputs) -> Result<(), String> {
    let mut bad = Vec::new();
    for (name, g, w) in [
        ("frames", got.frames, want.frames),
        ("tenants", got.tenants, want.tenants),
        ("tasks", got.tasks, want.tasks),
    ] {
        if g != w {
            bad.push(format!("{name} {g} != {w}"));
        }
    }
    for (name, g, w) in [
        ("mtp_p50_ms", got.mtp_p50_ms, want.mtp_p50_ms),
        ("mtp_p95_ms", got.mtp_p95_ms, want.mtp_p95_ms),
        ("mtp_p99_ms", got.mtp_p99_ms, want.mtp_p99_ms),
        ("mean_tx_bytes", got.mean_tx_bytes, want.mean_tx_bytes),
        ("fps_floor", got.fps_floor, want.fps_floor),
    ] {
        let rel = (g - w).abs() / w.abs().max(f64::MIN_POSITIVE);
        // NaN counts as a mismatch.
        if rel.is_nan() || rel > REL_TOL {
            bad.push(format!("{name} {g} vs {w} (rel {rel:.3e})"));
        }
    }
    if bad.is_empty() {
        Ok(())
    } else {
        Err(bad.join(", "))
    }
}
