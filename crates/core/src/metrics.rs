//! Per-frame records and run summaries for scheme evaluations.

use qvr_energy::{BusyTimes, EnergyBreakdown};
use std::fmt;

/// Everything recorded about one simulated frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameRecord {
    /// Frame index.
    pub frame_id: u64,
    /// Fovea eccentricity used (degrees); `None` for non-foveated schemes.
    pub e1_deg: Option<f64>,
    /// Local GPU rendering latency, ms.
    pub t_local_ms: f64,
    /// Remote chain latency (render/transmit/decode critical part), ms.
    pub t_remote_ms: f64,
    /// Motion-to-photon latency of this frame, ms.
    pub mtp_ms: f64,
    /// Interval between this frame's display and the previous one's, ms.
    pub frame_interval_ms: f64,
    /// Bytes transmitted over the downlink for this frame.
    pub tx_bytes: f64,
    /// Codec quality the rate controller chose for this frame's streams;
    /// `None` when rate control is off (closed-form byte path) or the
    /// scheme never transmits.
    pub quality: Option<f64>,
    /// Fraction by which rendered resolution was reduced vs native, `[0,1]`.
    pub resolution_reduction: f64,
    /// Whether a prefetch misprediction forced a blocking re-fetch
    /// (static collaborative scheme only).
    pub misprediction: bool,
}

impl FrameRecord {
    /// Instantaneous achievable FPS from the pipeline's two rate limiters
    /// (the paper's `FPS = min(1/T_GPU, 1/T_network)`).
    #[must_use]
    pub fn instantaneous_fps(&self) -> f64 {
        let limiter = self.t_local_ms.max(self.t_remote_ms).max(1e-3);
        1_000.0 / limiter
    }

    /// The local/remote balance ratio `T_remote / T_local` (Fig. 14a).
    #[must_use]
    pub fn latency_ratio(&self) -> f64 {
        self.t_remote_ms / self.t_local_ms.max(1e-3)
    }
}

/// The outcome of one scheme × app × condition run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Scheme label.
    pub scheme: String,
    /// App label.
    pub app: String,
    /// Per-frame records.
    pub frames: Vec<FrameRecord>,
    /// Total simulated wall-clock, ms.
    pub makespan_ms: f64,
    /// Per-resource busy times (for energy).
    pub busy: BusyTimes,
    /// Per-component energy over the run.
    pub energy: EnergyBreakdown,
}

impl RunSummary {
    /// Number of frames.
    #[must_use]
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the run recorded no frames.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Mean motion-to-photon latency, ms.
    #[must_use]
    pub fn mean_mtp_ms(&self) -> f64 {
        mean(self.frames.iter().map(|f| f.mtp_ms))
    }

    /// Steady-state frame rate: frames displayed per second of makespan.
    #[must_use]
    pub fn fps(&self) -> f64 {
        if self.makespan_ms <= 0.0 {
            0.0
        } else {
            self.frames.len() as f64 * 1_000.0 / self.makespan_ms
        }
    }

    /// Mean downlink bytes per frame.
    #[must_use]
    pub fn mean_tx_bytes(&self) -> f64 {
        mean(self.frames.iter().map(|f| f.tx_bytes))
    }

    /// Mean resolution reduction.
    #[must_use]
    pub fn mean_resolution_reduction(&self) -> f64 {
        mean(self.frames.iter().map(|f| f.resolution_reduction))
    }

    /// Mean eccentricity over frames that have one, after skipping the
    /// first `warmup` frames (Table 4 averages steady state only).
    #[must_use]
    pub fn mean_e1_deg(&self, warmup: usize) -> Option<f64> {
        let vals: Vec<f64> = self
            .frames
            .iter()
            .skip(warmup)
            .filter_map(|f| f.e1_deg)
            .collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }

    /// Fraction of frames whose instantaneous FPS meets a target.
    #[must_use]
    pub fn fraction_meeting_fps(&self, target_fps: f64, warmup: usize) -> f64 {
        let total = self.frames.len().saturating_sub(warmup);
        if total == 0 {
            return 0.0;
        }
        let ok = self
            .frames
            .iter()
            .skip(warmup)
            .filter(|f| f.instantaneous_fps() >= target_fps)
            .count();
        ok as f64 / total as f64
    }

    /// Whether the run sustains a target frame rate in steady state
    /// (Table 4's underline criterion, inverted).
    #[must_use]
    pub fn meets_target_fps(&self, target_fps: f64, warmup: usize) -> bool {
        self.fraction_meeting_fps(target_fps, warmup) >= 0.9
    }

    /// Misprediction rate (static collaborative runs).
    #[must_use]
    pub fn misprediction_rate(&self) -> f64 {
        if self.frames.is_empty() {
            0.0
        } else {
            self.frames.iter().filter(|f| f.misprediction).count() as f64 / self.frames.len() as f64
        }
    }
}

/// A latency sample set sorted **once** at construction, serving any number
/// of nearest-rank percentile queries without re-sorting per call (the
/// fleet aggregator asks for p50/p95/p99 of the same vector; admission
/// control asks again per probe).
#[derive(Debug, Clone, PartialEq)]
pub struct SortedSamples {
    sorted: Vec<f64>,
}

impl SortedSamples {
    /// Sorts the samples (total order, so NaNs cannot poison comparisons).
    #[must_use]
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        SortedSamples { sorted: samples }
    }

    /// Nearest-rank percentile, `q` in `[0, 100]`; 0.0 for an empty set.
    #[must_use]
    pub fn percentile(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let rank = qvr_sim::checked::ceil_index(q / 100.0 * self.sorted.len() as f64);
        self.sorted[rank.clamp(1, self.sorted.len()) - 1]
    }

    /// Median (nearest-rank p50).
    #[must_use]
    pub fn p50(&self) -> f64 {
        self.percentile(50.0)
    }

    /// 95th percentile.
    #[must_use]
    pub fn p95(&self) -> f64 {
        self.percentile(95.0)
    }

    /// 99th percentile.
    #[must_use]
    pub fn p99(&self) -> f64 {
        self.percentile(99.0)
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }
}

/// A log-linear bucketed latency histogram with a bounded *relative*
/// quantile error, built for the telemetry seam's merge laws (DESIGN.md
/// §12–13): bucket counts are integers, merging is bucket-wise `u64`
/// addition, so a K-way merge is **bit-identical** to one histogram fed
/// the concatenated stream — no f64 accumulation order to worry about.
///
/// Layout (the DDSketch family): with accuracy `α`, `γ = (1+α)/(1−α)`,
/// a positive value `v` lands in bucket `k = ⌈ln v / ln γ⌉` (so bucket
/// `k` covers `(γ^(k−1), γ^k]`), and the bucket's representative value
/// `2γ^k/(γ+1)` is within `α·v` of every value it absorbs. Zero and
/// negative values share a dedicated zero bucket. Memory is O(occupied
/// buckets) — ~`ln(max/min)/ln γ` ≈ 700 buckets across twelve decades at
/// the default 1% accuracy — which is what lets the monitoring path drop
/// the O(run) `SortedSamples` retention.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Relative-error bound `α` (construction parameter).
    accuracy: f64,
    /// Cached `ln γ` — the only value `record` needs per sample.
    ln_gamma: f64,
    /// Count of samples `≤ 0` (latencies land here only degenerately).
    zero: u64,
    /// Occupied buckets, keyed by index `k` — `BTreeMap` so iteration is
    /// ascending-value and every derived rendering is deterministic.
    buckets: std::collections::BTreeMap<i32, u64>,
    /// Total samples recorded (including the zero bucket).
    count: u64,
}

impl Default for Histogram {
    /// The monitoring default: 1% relative error.
    fn default() -> Self {
        Histogram::new(0.01)
    }
}

impl Histogram {
    /// A histogram with relative-error bound `accuracy` in `(0, 1)`.
    ///
    /// # Panics
    /// If `accuracy` is outside `(0, 1)`.
    #[must_use]
    pub fn new(accuracy: f64) -> Self {
        assert!(
            accuracy > 0.0 && accuracy < 1.0,
            "histogram accuracy must lie in (0, 1), got {accuracy}"
        );
        let gamma = (1.0 + accuracy) / (1.0 - accuracy);
        Histogram {
            accuracy,
            ln_gamma: gamma.ln(),
            zero: 0,
            buckets: std::collections::BTreeMap::new(),
            count: 0,
        }
    }

    /// Records one sample. Non-positive and non-finite-negative values go
    /// to the zero bucket; everything else to its log-linear bucket.
    pub fn record(&mut self, v: f64) {
        if v > 0.0 {
            let k = qvr_sim::checked::ceil_key(v.ln() / self.ln_gamma);
            *self.buckets.entry(k).or_insert(0) += 1;
        } else {
            self.zero += 1;
        }
        self.count += 1;
    }

    /// Folds another histogram in by bucket-wise `u64` addition — the
    /// merge half of the seam's merge laws: `a.absorb(&b)` is
    /// bit-identical to one histogram that recorded both streams, in any
    /// order and any association.
    ///
    /// # Panics
    /// If the accuracies differ (buckets would not line up).
    pub fn absorb(&mut self, other: &Histogram) {
        assert!(
            self.accuracy.to_bits() == other.accuracy.to_bits(),
            "histogram merge requires identical accuracy ({} vs {})",
            self.accuracy,
            other.accuracy
        );
        self.zero += other.zero;
        self.count += other.count;
        for (&k, &n) in &other.buckets {
            *self.buckets.entry(k).or_insert(0) += n;
        }
    }

    /// Nearest-rank percentile over the bucketed distribution, `q` in
    /// `[0, 100]`; 0.0 for an empty histogram. The returned value is a
    /// bucket representative, within `accuracy × true-value` of the exact
    /// [`SortedSamples`] nearest-rank answer for positive samples.
    #[must_use]
    pub fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = qvr_sim::checked::ceil_rank(q / 100.0 * self.count as f64).clamp(1, self.count);
        if rank <= self.zero {
            return 0.0;
        }
        let mut seen = self.zero;
        for (&k, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return self.representative(k);
            }
        }
        // Unreachable: bucket counts sum to `count`.
        self.buckets
            .last_key_value()
            .map_or(0.0, |(&k, _)| self.representative(k))
    }

    /// 95th percentile.
    #[must_use]
    pub fn p95(&self) -> f64 {
        self.percentile(95.0)
    }

    /// Total samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Occupied buckets in ascending value order as
    /// `(upper_bound, cumulative_count)` pairs, the zero bucket first when
    /// occupied — exactly the shape a Prometheus-style cumulative
    /// `_bucket{le=...}` rendering wants.
    pub fn cumulative_buckets(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        let mut running = 0u64;
        std::iter::once((0.0, self.zero))
            .filter(|&(_, z)| z > 0)
            .chain(
                self.buckets
                    .iter()
                    .map(move |(&k, &n)| (self.upper_bound(k), n)),
            )
            .map(move |(le, n)| {
                running += n;
                (le, running)
            })
    }

    /// The representative value reported for bucket `k` (the point
    /// minimising worst-case relative error over the bucket's range).
    fn representative(&self, k: i32) -> f64 {
        let gamma_k = (f64::from(k) * self.ln_gamma).exp();
        let gamma = (1.0 + self.accuracy) / (1.0 - self.accuracy);
        2.0 * gamma_k / (gamma + 1.0)
    }

    /// Bucket `k`'s inclusive upper bound `γ^k`.
    fn upper_bound(&self, k: i32) -> f64 {
        (f64::from(k) * self.ln_gamma).exp()
    }
}

fn mean(iter: impl Iterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in iter {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

impl fmt::Display for RunSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {}: {} frames, MTP {:.1} ms, {:.0} FPS, {:.0} KB/frame",
            self.scheme,
            self.app,
            self.frames.len(),
            self.mean_mtp_ms(),
            self.fps(),
            self.mean_tx_bytes() / 1024.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(t_local: f64, t_remote: f64, mtp: f64) -> FrameRecord {
        FrameRecord {
            frame_id: 0,
            e1_deg: Some(20.0),
            t_local_ms: t_local,
            t_remote_ms: t_remote,
            mtp_ms: mtp,
            frame_interval_ms: 11.0,
            tx_bytes: 100_000.0,
            quality: None,
            resolution_reduction: 0.4,
            misprediction: false,
        }
    }

    fn summary(frames: Vec<FrameRecord>, makespan: f64) -> RunSummary {
        RunSummary {
            scheme: "test".into(),
            app: "app".into(),
            frames,
            makespan_ms: makespan,
            busy: BusyTimes::default(),
            energy: EnergyBreakdown::default(),
        }
    }

    #[test]
    fn instantaneous_fps_uses_slowest_limiter() {
        let r = record(5.0, 10.0, 20.0);
        assert!((r.instantaneous_fps() - 100.0).abs() < 1e-9);
        assert!((r.latency_ratio() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn fps_from_makespan() {
        let s = summary(vec![record(5.0, 5.0, 15.0); 90], 1_000.0);
        assert!((s.fps() - 90.0).abs() < 1e-9);
    }

    #[test]
    fn mean_mtp() {
        let s = summary(vec![record(1.0, 1.0, 10.0), record(1.0, 1.0, 20.0)], 100.0);
        assert!((s.mean_mtp_ms() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn empty_summary_is_safe() {
        let s = summary(vec![], 0.0);
        assert_eq!(s.fps(), 0.0);
        assert_eq!(s.mean_mtp_ms(), 0.0);
        assert!(s.mean_e1_deg(0).is_none());
        assert!(s.is_empty());
    }

    #[test]
    fn warmup_skipped_in_mean_e1() {
        let mut frames = vec![record(1.0, 1.0, 10.0); 10];
        for f in frames.iter_mut().take(5) {
            f.e1_deg = Some(5.0);
        }
        let s = summary(frames, 100.0);
        assert_eq!(s.mean_e1_deg(5), Some(20.0));
    }

    #[test]
    fn target_fps_criterion() {
        // 10 ms limiter = 100 FPS instantaneous: meets 90, misses 120.
        let s = summary(vec![record(10.0, 8.0, 20.0); 50], 500.0);
        assert!(s.meets_target_fps(90.0, 5));
        assert!(!s.meets_target_fps(120.0, 5));
    }

    #[test]
    fn misprediction_rate_counts() {
        let mut frames = vec![record(1.0, 1.0, 10.0); 4];
        frames[1].misprediction = true;
        let s = summary(frames, 100.0);
        assert!((s.misprediction_rate() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn display_mentions_scheme() {
        let s = summary(vec![record(1.0, 1.0, 10.0)], 11.0);
        assert!(s.to_string().contains("test"));
    }

    #[test]
    fn sorted_samples_percentiles_on_known_inputs() {
        // p50/p95/p99 of a fixed 1..=100 vector under nearest-rank, fed in
        // shuffled order to prove the single up-front sort does its job.
        let mut values: Vec<f64> = (1..=100).map(f64::from).collect();
        values.reverse();
        values.swap(3, 77);
        let s = SortedSamples::new(values);
        assert_eq!(s.p50(), 50.0);
        assert_eq!(s.p95(), 95.0);
        assert_eq!(s.p99(), 99.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.len(), 100);
        assert!(!s.is_empty());
    }

    #[test]
    fn sorted_samples_small_and_empty_sets() {
        let empty = SortedSamples::new(vec![]);
        assert_eq!(empty.p50(), 0.0);
        assert_eq!(empty.p99(), 0.0);
        assert!(empty.is_empty());
        let one = SortedSamples::new(vec![7.5]);
        assert_eq!(one.p50(), 7.5);
        assert_eq!(one.p95(), 7.5);
        assert_eq!(one.p99(), 7.5);
        let five = SortedSamples::new(vec![30.0, 10.0, 50.0, 20.0, 40.0]);
        assert_eq!(five.p50(), 30.0);
        assert_eq!(five.p95(), 50.0);
        assert_eq!(five.p99(), 50.0);
    }

    #[test]
    fn histogram_percentiles_stay_within_the_relative_error_bound() {
        let mut h = Histogram::new(0.01);
        let exact = SortedSamples::new((1..=100).map(f64::from).collect());
        for v in 1..=100 {
            h.record(f64::from(v));
        }
        assert_eq!(h.count(), 100);
        for q in [0.0, 10.0, 50.0, 95.0, 99.0, 100.0] {
            let e = exact.percentile(q);
            let a = h.percentile(q);
            assert!(
                (a - e).abs() <= 0.01 * e,
                "p{q}: {a} vs exact {e} exceeds 1% relative error"
            );
        }
    }

    #[test]
    fn histogram_zero_and_empty_cases() {
        let empty = Histogram::default();
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.p95(), 0.0);
        let mut h = Histogram::default();
        h.record(0.0);
        h.record(-3.0);
        h.record(10.0);
        assert_eq!(h.count(), 3);
        assert_eq!(
            h.percentile(50.0),
            0.0,
            "two of three samples sit in the zero bucket"
        );
        assert!((h.percentile(99.0) - 10.0).abs() <= 0.1);
    }

    #[test]
    #[should_panic(expected = "identical accuracy")]
    fn histogram_merge_rejects_mismatched_accuracy() {
        let mut a = Histogram::new(0.01);
        let b = Histogram::new(0.02);
        a.absorb(&b);
    }

    #[test]
    fn histogram_cumulative_buckets_are_monotone() {
        let mut h = Histogram::default();
        for v in [0.0, 1.0, 1.0, 5.0, 80.0] {
            h.record(v);
        }
        let buckets: Vec<(f64, u64)> = h.cumulative_buckets().collect();
        assert_eq!(buckets.last().map(|&(_, n)| n), Some(5));
        for w in buckets.windows(2) {
            assert!(w[0].0 < w[1].0, "upper bounds ascend");
            assert!(w[0].1 <= w[1].1, "cumulative counts are monotone");
        }
    }

    use proptest::prelude::*;

    /// Adversarial positive sample streams: up to 4 shards × 50 samples
    /// spanning nine orders of magnitude (sub-ms jitter to multi-minute
    /// stalls), which is where naive linear bucketing falls over. (The
    /// offline proptest shim generates fixed-size vectors, so shard count
    /// and per-shard lengths are drawn separately and applied by
    /// truncation.)
    fn shard_streams() -> impl Strategy<Value = Vec<Vec<f64>>> {
        (
            collection::vec(collection::vec(1e-3..1e6, 50), 4),
            1usize..5,
            collection::vec(0usize..51, 4),
        )
            .prop_map(|(shards, count, lens)| {
                shards
                    .into_iter()
                    .zip(lens)
                    .take(count)
                    .map(|(mut shard, len)| {
                        shard.truncate(len);
                        shard
                    })
                    .collect()
            })
    }

    proptest! {
        #[test]
        fn histogram_merge_is_bit_identical_to_the_concatenated_stream(
            shards in shard_streams(),
        ) {
            // K-way merge == one histogram over the concatenated stream,
            // compared with `==` (bucket maps, counts, everything).
            let mut merged = Histogram::default();
            let mut concatenated = Histogram::default();
            for shard in &shards {
                let mut part = Histogram::default();
                for &v in shard {
                    part.record(v);
                    concatenated.record(v);
                }
                merged.absorb(&part);
            }
            prop_assert_eq!(&merged, &concatenated);
            // And merge order does not matter: fold in reverse.
            let mut reversed = Histogram::default();
            for shard in shards.iter().rev() {
                let mut part = Histogram::default();
                for &v in shard {
                    part.record(v);
                }
                reversed.absorb(&part);
            }
            prop_assert_eq!(&reversed, &concatenated);
        }

        #[test]
        fn histogram_quantiles_track_sorted_samples_within_accuracy(
            shards in shard_streams(),
            q in 0.0..100.0f64,
        ) {
            let samples: Vec<f64> = shards.into_iter().flatten().collect();
            if !samples.is_empty() {
                let mut h = Histogram::new(0.01);
                for &v in &samples {
                    h.record(v);
                }
                let exact = SortedSamples::new(samples).percentile(q);
                let approx = h.percentile(q);
                // 1% bound plus a hair of slack for float rounding at exact
                // bucket boundaries (ceil(ln v / ln γ) can tip either way).
                prop_assert!(
                    (approx - exact).abs() <= 0.0101 * exact + 1e-9,
                    "p{}: {} vs exact {}", q, approx, exact
                );
            }
        }
    }
}
