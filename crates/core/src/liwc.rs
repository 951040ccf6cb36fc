//! The Lightweight Interaction-aware Workload Controller (paper Sec. 4.1).
//!
//! LIWC picks each frame's fovea eccentricity `e1` so that local and remote
//! rendering latencies balance. It is built from the four components the
//! paper describes:
//!
//! 1. a **motion codec** quantising the frame-over-frame motion change into
//!    10 bits (6 bits of head-DoF change flags + 4 bits of fovea movement);
//! 2. a **mapping table** — 2¹⁵ half-precision entries indexed by (motion
//!    code, eccentricity bucket) holding the learned *latency gradient*
//!    (how fast the local/remote latency gap closes per degree of `e1`);
//! 3. a **latency predictor** implementing Eq. (2):
//!    `T_local = #triangles × %fovea / P(GPUₘ)` and
//!    `T_remote = datasize(M+O) / throughput`, fed by *intermediate
//!    hardware data* — the triangle count visible at render setup and the
//!    ACK-observed network throughput — so prediction happens before the
//!    frame finishes rendering;
//! 4. a **runtime updater** applying the reward rule
//!    `gradient = (1−α)·gradient′ + α·Δlatency` after each frame.
//!
//! The eccentricity action space is the paper's integer delta tags
//! `Δe1 ∈ [−5°, +5°]`.
//!
//! [`SoftwareController`] is the evaluation's pure-software alternative
//! (Fig. 12's "SW" line): it can only react to *measured* latencies from
//! completed frames, one frame later, with no hardware observability.

use crate::f16::F16;
use qvr_hvs::LayerPartition;
use qvr_scene::MotionDelta;
use std::collections::VecDeque;
use std::fmt;

/// Quantises motion deltas into the 10-bit code of Sec. 4.1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MotionCodec {
    /// Rotation change (per axis) considered significant, degrees.
    pub rotation_threshold_deg: f64,
    /// Translation change (per axis) considered significant, metres.
    pub translation_threshold_m: f64,
    /// Gaze movement considered non-still, NDC units.
    pub gaze_still_threshold: f64,
    /// Gaze movement considered large, NDC units.
    pub gaze_large_threshold: f64,
}

impl MotionCodec {
    /// Number of distinct motion codes (10 bits).
    pub const CODES: usize = 1 << 10;

    /// Encodes a delta into a 10-bit motion code.
    ///
    /// Bits 9..4: per-DoF significance flags (yaw, pitch, roll, x, y, z).
    /// Bits 3..0: fovea-movement nibble — 15 = still, otherwise
    /// `large·8 + octant`.
    #[must_use]
    pub fn encode(&self, delta: &MotionDelta) -> u16 {
        let mut dof_bits = 0u16;
        for (i, &d) in delta.dof.iter().enumerate() {
            let threshold = if i < 3 {
                self.rotation_threshold_deg
            } else {
                self.translation_threshold_m
            };
            if d.abs() > threshold {
                dof_bits |= 1 << i;
            }
        }
        let mag = delta.gaze_magnitude();
        let nibble = if mag < self.gaze_still_threshold {
            15
        } else {
            let angle = delta.gaze.1.atan2(delta.gaze.0);
            let octant =
                ((angle + std::f64::consts::PI) / (std::f64::consts::TAU / 8.0)) as u16 % 8;
            let large = u16::from(mag >= self.gaze_large_threshold);
            large * 8 + octant
        };
        (dof_bits << 4) | nibble
    }
}

impl Default for MotionCodec {
    fn default() -> Self {
        MotionCodec {
            rotation_threshold_deg: 0.5,
            translation_threshold_m: 0.005,
            gaze_still_threshold: 0.02,
            gaze_large_threshold: 0.12,
        }
    }
}

/// The 2¹⁵-entry f16 gradient table (64 KB SRAM in hardware).
///
/// A controller writes one entry per frame at most, and only where its
/// eccentricity moved, so a session touches a small share of the table.
/// The table stores only the entries whose value differs from the initial
/// gradient, sorted by index; every other entry reads the initial gradient
/// through the same f16 round-trip, so a fresh table allocates nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct MappingTable {
    /// What every entry holds until it is written.
    initial: F16,
    /// The entries that differ from `initial`, by index.
    written: Vec<(u16, F16)>,
}

impl MappingTable {
    /// Eccentricity buckets (5 bits).
    pub const BUCKETS: usize = 32;

    /// Creates a table with every entry initialised to `initial_gradient`
    /// (ms per degree; negative — growing `e1` closes a positive
    /// remote-minus-local gap).
    #[must_use]
    pub fn new(initial_gradient: f64) -> Self {
        MappingTable {
            initial: F16::from_f32(initial_gradient as f32),
            written: Vec::new(),
        }
    }

    /// Total entries (2¹⁵), the depth of the modelled SRAM.
    #[must_use]
    pub fn depth(&self) -> usize {
        MotionCodec::CODES * Self::BUCKETS
    }

    /// Bucket for an eccentricity in `[MIN_E1, MAX_E1]`.
    #[must_use]
    pub fn bucket(&self, e1_deg: f64) -> usize {
        let span = LayerPartition::MAX_E1 - LayerPartition::MIN_E1;
        let t = ((e1_deg - LayerPartition::MIN_E1) / span).clamp(0.0, 1.0);
        ((t * Self::BUCKETS as f64) as usize).min(Self::BUCKETS - 1)
    }

    /// The entry's index: below 2¹⁵, so it fits a `u16`.
    fn index(&self, motion_code: u16, e1_deg: f64) -> u16 {
        ((motion_code as usize % MotionCodec::CODES) * Self::BUCKETS + self.bucket(e1_deg)) as u16
    }

    /// Reads the gradient for a state (f16 precision).
    #[must_use]
    pub fn gradient(&self, motion_code: u16, e1_deg: f64) -> f64 {
        let idx = self.index(motion_code, e1_deg);
        let entry = match self.written.binary_search_by_key(&idx, |&(i, _)| i) {
            Ok(at) => self.written[at].1,
            Err(_) => self.initial,
        };
        f64::from(entry.to_f32())
    }

    /// Writes a gradient (stored through an f16 round-trip).
    pub fn set_gradient(&mut self, motion_code: u16, e1_deg: f64, gradient: f64) {
        let idx = self.index(motion_code, e1_deg);
        let value = F16::from_f32(gradient as f32);
        match self.written.binary_search_by_key(&idx, |&(i, _)| i) {
            Ok(at) if value == self.initial => {
                self.written.remove(at);
            }
            Ok(at) => self.written[at].1 = value,
            Err(_) if value == self.initial => {}
            Err(at) => self.written.insert(at, (idx, value)),
        }
    }
}

/// Eq. (2) latency predictor with online parameter refinement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyPredictor {
    /// `P(GPUₘ)`: local GPU throughput, triangles per ms (for the current
    /// fovea share of the scene).
    gpu_triangles_per_ms: f64,
    /// EMA factor for parameter refreshes.
    alpha: f64,
    /// Fixed non-rendering local overhead included in predictions, ms.
    local_overhead_ms: f64,
    /// Learned fixed remote-chain overhead (server render + codec pipeline
    /// fill) on top of the pure network term, ms. The runtime updater
    /// "updates the latency parameter" (Sec. 4.1) — this is that parameter.
    remote_overhead_ms: f64,
}

impl LatencyPredictor {
    /// Creates a predictor with an initial GPU-throughput estimate.
    #[must_use]
    pub fn new(initial_triangles_per_ms: f64, alpha: f64, local_overhead_ms: f64) -> Self {
        LatencyPredictor {
            gpu_triangles_per_ms: initial_triangles_per_ms.max(1.0),
            alpha: alpha.clamp(0.0, 1.0),
            local_overhead_ms: local_overhead_ms.max(0.0),
            remote_overhead_ms: 0.0,
        }
    }

    /// The current `P(GPUₘ)` estimate.
    #[must_use]
    pub fn gpu_triangles_per_ms(&self) -> f64 {
        self.gpu_triangles_per_ms
    }

    /// Eq. (2): `T_local = #triangles × %fovea / P`.
    #[must_use]
    pub fn predict_local_ms(&self, scene_triangles: u64, fovea_fraction: f64) -> f64 {
        self.local_overhead_ms
            + scene_triangles as f64 * fovea_fraction.clamp(0.0, 1.0) / self.gpu_triangles_per_ms
    }

    /// Eq. (2): `T_remote = datasize(M+O) / throughput` (+ base latency and
    /// the learned fixed chain overhead).
    #[must_use]
    pub fn predict_remote_ms(&self, periphery_bytes: f64, observed_mbps: f64, base_ms: f64) -> f64 {
        base_ms
            + self.remote_overhead_ms
            + periphery_bytes.max(0.0) * 8.0 / (observed_mbps.max(1.0) * 1_000.0)
    }

    /// Refines `P(GPUₘ)` from a measured local rendering time.
    pub fn observe_local(&mut self, scene_triangles: u64, fovea_fraction: f64, measured_ms: f64) {
        let rendering_ms = (measured_ms - self.local_overhead_ms).max(0.05);
        let implied = scene_triangles as f64 * fovea_fraction.clamp(0.0, 1.0) / rendering_ms;
        if implied.is_finite() && implied > 0.0 {
            self.gpu_triangles_per_ms =
                (1.0 - self.alpha) * self.gpu_triangles_per_ms + self.alpha * implied;
        }
    }

    /// Refines the fixed remote overhead from a measured remote-chain time.
    pub fn observe_remote(
        &mut self,
        periphery_bytes: f64,
        observed_mbps: f64,
        base_ms: f64,
        measured_ms: f64,
    ) {
        let network_part =
            base_ms + periphery_bytes.max(0.0) * 8.0 / (observed_mbps.max(1.0) * 1_000.0);
        let implied = (measured_ms - network_part).max(0.0);
        if implied.is_finite() {
            self.remote_overhead_ms =
                (1.0 - self.alpha) * self.remote_overhead_ms + self.alpha * implied;
        }
    }
}

/// One LIWC decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiwcDecision {
    /// The chosen eccentricity for this frame, degrees.
    pub e1_deg: f64,
    /// The applied delta, degrees (integer in `[-5, 5]`).
    pub delta_e_deg: f64,
    /// Predicted local rendering latency, ms.
    pub predicted_local_ms: f64,
    /// Predicted remote (network-dominated) latency, ms.
    pub predicted_remote_ms: f64,
}

/// The LIWC controller.
#[derive(Debug, Clone)]
pub struct Liwc {
    codec: MotionCodec,
    table: MappingTable,
    predictor: LatencyPredictor,
    /// Reward smoothing factor α of the runtime updater.
    reward_alpha: f64,
    e1_deg: f64,
    /// State of the previous decision, for the table update.
    last: Option<(u16, f64, f64)>, // (motion code, e1 at decision, delta_e)
    prev_measured_gap: Option<f64>,
}

impl Liwc {
    /// Largest per-frame eccentricity change, degrees (the integer delta
    /// tags of Sec. 4.1).
    pub const MAX_DELTA_DEG: f64 = 5.0;

    /// Creates a controller starting at `initial_e1` degrees.
    #[must_use]
    pub fn new(
        initial_e1: f64,
        initial_gradient: f64,
        reward_alpha: f64,
        predictor: LatencyPredictor,
    ) -> Self {
        Liwc {
            codec: MotionCodec::default(),
            table: MappingTable::new(initial_gradient),
            predictor,
            reward_alpha: reward_alpha.clamp(0.0, 1.0),
            e1_deg: initial_e1.clamp(LayerPartition::MIN_E1, LayerPartition::MAX_E1),
            last: None,
            prev_measured_gap: None,
        }
    }

    /// The current eccentricity, degrees.
    #[must_use]
    pub fn e1_deg(&self) -> f64 {
        self.e1_deg
    }

    /// Read-only access to the mapping table.
    #[must_use]
    pub fn table(&self) -> &MappingTable {
        &self.table
    }

    /// Selects the eccentricity for the upcoming frame.
    ///
    /// * `delta` — motion change feeding the motion codec;
    /// * `scene_triangles` — triangle count observed at render setup;
    /// * `fovea_fraction_at` — `%fovea` as a function of `e1` (scene
    ///   complexity field around the current gaze);
    /// * `periphery_bytes_at` — estimated periphery data volume as a
    ///   function of `e1`;
    /// * `observed_mbps`, `net_base_ms` — ACK-monitor network state.
    pub fn select(
        &mut self,
        delta: &MotionDelta,
        scene_triangles: u64,
        mut fovea_fraction_at: impl FnMut(f64) -> f64,
        mut periphery_bytes_at: impl FnMut(f64) -> f64,
        observed_mbps: f64,
        net_base_ms: f64,
    ) -> LiwcDecision {
        let code = self.codec.encode(delta);
        let gradient = self.table.gradient(code, self.e1_deg);

        let t_local = self
            .predictor
            .predict_local_ms(scene_triangles, fovea_fraction_at(self.e1_deg));
        let t_remote = self.predictor.predict_remote_ms(
            periphery_bytes_at(self.e1_deg),
            observed_mbps,
            net_base_ms,
        );
        let gap = t_remote - t_local;

        // Close the gap along the learned gradient: gap + g·Δe ≈ 0.
        let raw = if gradient.abs() < 1e-3 {
            // Uninformative gradient: probe in the direction that should
            // help (positive gap ⇒ grow the fovea).
            gap.signum()
        } else {
            -gap / gradient
        };
        let delta_e = raw.clamp(-Self::MAX_DELTA_DEG, Self::MAX_DELTA_DEG).round();

        let decision_e1 = self.e1_deg;
        self.e1_deg = (self.e1_deg + delta_e).clamp(LayerPartition::MIN_E1, LayerPartition::MAX_E1);
        self.last = Some((code, decision_e1, self.e1_deg - decision_e1));

        LiwcDecision {
            e1_deg: self.e1_deg,
            delta_e_deg: self.e1_deg - decision_e1,
            predicted_local_ms: t_local,
            predicted_remote_ms: t_remote,
        }
    }

    /// Runtime updater: feeds back the measured latencies of the frame that
    /// used the last decision, together with the hardware-observable remote
    /// context (bytes shipped, ACK throughput, base latency) so the remote
    /// latency parameter can be refined.
    #[allow(clippy::too_many_arguments)]
    pub fn observe(
        &mut self,
        scene_triangles: u64,
        fovea_fraction: f64,
        measured_local_ms: f64,
        measured_remote_ms: f64,
        periphery_bytes: f64,
        observed_mbps: f64,
        net_base_ms: f64,
    ) {
        self.predictor
            .observe_local(scene_triangles, fovea_fraction, measured_local_ms);
        self.predictor.observe_remote(
            periphery_bytes,
            observed_mbps,
            net_base_ms,
            measured_remote_ms,
        );
        let gap = measured_remote_ms - measured_local_ms;
        if let (Some((code, e1_at, delta_e)), Some(prev_gap)) = (self.last, self.prev_measured_gap)
        {
            if delta_e.abs() >= 1.0 {
                let measured_gradient = (gap - prev_gap) / delta_e;
                if measured_gradient.is_finite() {
                    let old = self.table.gradient(code, e1_at);
                    // The paper's reward: g = (1-α)·g' + α·Δlatency. Keep the
                    // gradient in the "growing e1 closes positive gaps"
                    // regime to avoid sign flapping from noise.
                    let updated = (1.0 - self.reward_alpha) * old
                        + self.reward_alpha * measured_gradient.clamp(-50.0, -0.01);
                    self.table.set_gradient(code, e1_at, updated);
                }
            }
        }
        self.prev_measured_gap = Some(gap);
    }
}

impl fmt::Display for Liwc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "LIWC @ e1={:.1}°, P(GPU)={:.0} tri/ms",
            self.e1_deg,
            self.predictor.gpu_triangles_per_ms()
        )
    }
}

/// The evaluation's pure-software controller (Fig. 12 "SW").
///
/// Selects the eccentricity from the *measured* latencies of completed
/// frames, delivered one frame late (software must wait for rendering to
/// finish and read back counters — Fig. 4-Ⓑ), using a fixed proportional
/// gain instead of a learned gradient.
#[derive(Debug, Clone)]
pub struct SoftwareController {
    e1_deg: f64,
    gain_deg_per_ms: f64,
    /// Measurement pipeline: front = oldest. Decisions read measurements
    /// that are `lag` frames old.
    pending: VecDeque<(f64, f64)>,
    lag: usize,
}

impl SoftwareController {
    /// Creates a controller starting at `initial_e1`, reacting with
    /// `gain_deg_per_ms` degrees per millisecond of latency gap, reading
    /// measurements `lag` frames late (≥ 1).
    #[must_use]
    pub fn new(initial_e1: f64, gain_deg_per_ms: f64, lag: usize) -> Self {
        SoftwareController {
            e1_deg: initial_e1.clamp(LayerPartition::MIN_E1, LayerPartition::MAX_E1),
            gain_deg_per_ms: gain_deg_per_ms.max(0.0),
            pending: VecDeque::new(),
            lag: lag.max(1),
        }
    }

    /// The current eccentricity, degrees.
    #[must_use]
    pub fn e1_deg(&self) -> f64 {
        self.e1_deg
    }

    /// Records a completed frame's measured latencies.
    pub fn observe(&mut self, measured_local_ms: f64, measured_remote_ms: f64) {
        self.pending
            .push_back((measured_local_ms, measured_remote_ms));
    }

    /// Selects the eccentricity for the next frame.
    pub fn select(&mut self) -> f64 {
        if self.pending.len() > self.lag {
            while self.pending.len() > self.lag + 1 {
                self.pending.pop_front();
            }
            if let Some(&(local, remote)) = self.pending.front() {
                let gap = remote - local;
                let delta = (self.gain_deg_per_ms * gap)
                    .clamp(-Liwc::MAX_DELTA_DEG, Liwc::MAX_DELTA_DEG)
                    .round();
                self.e1_deg =
                    (self.e1_deg + delta).clamp(LayerPartition::MIN_E1, LayerPartition::MAX_E1);
                self.pending.pop_front();
            }
        }
        self.e1_deg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn still_delta() -> MotionDelta {
        MotionDelta::default()
    }

    fn moving_delta() -> MotionDelta {
        MotionDelta {
            dof: [2.0, 0.1, 0.0, 0.01, 0.0, 0.0],
            gaze: (0.2, -0.1),
            interaction: 0.1,
        }
    }

    #[test]
    fn motion_code_is_10_bits() {
        let codec = MotionCodec::default();
        for delta in [still_delta(), moving_delta()] {
            let code = codec.encode(&delta);
            assert!(usize::from(code) < MotionCodec::CODES);
        }
    }

    #[test]
    fn still_and_moving_have_distinct_codes() {
        let codec = MotionCodec::default();
        assert_ne!(codec.encode(&still_delta()), codec.encode(&moving_delta()));
    }

    #[test]
    fn dof_flags_reflect_axes() {
        let codec = MotionCodec::default();
        let yaw_only = MotionDelta {
            dof: [3.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            ..Default::default()
        };
        let code = codec.encode(&yaw_only);
        assert_eq!(code >> 4, 0b000001);
        let z_only = MotionDelta {
            dof: [0.0, 0.0, 0.0, 0.0, 0.0, 0.02],
            ..Default::default()
        };
        assert_eq!(codec.encode(&z_only) >> 4, 0b100000);
    }

    #[test]
    fn gaze_octants_differ() {
        let codec = MotionCodec::default();
        let right = MotionDelta {
            gaze: (0.2, 0.0),
            ..Default::default()
        };
        let up = MotionDelta {
            gaze: (0.0, 0.2),
            ..Default::default()
        };
        assert_ne!(codec.encode(&right) & 0xF, codec.encode(&up) & 0xF);
    }

    #[test]
    fn table_depth_matches_sec43() {
        let t = MappingTable::new(-0.5);
        assert_eq!(t.depth(), 1 << 15, "2^15 entries = 64 KB of f16");
    }

    #[test]
    fn table_buckets_span_range() {
        let t = MappingTable::new(-0.5);
        assert_eq!(t.bucket(LayerPartition::MIN_E1), 0);
        assert_eq!(t.bucket(LayerPartition::MAX_E1), MappingTable::BUCKETS - 1);
        assert!(t.bucket(45.0) > 0 && t.bucket(45.0) < MappingTable::BUCKETS - 1);
    }

    /// The table stored densely, all 2¹⁵ entries as the modelled SRAM
    /// holds them: the oracle of [`MappingTable`].
    struct DenseTable(Vec<F16>);

    impl DenseTable {
        fn new(initial_gradient: f64) -> Self {
            DenseTable(vec![
                F16::from_f32(initial_gradient as f32);
                MotionCodec::CODES * MappingTable::BUCKETS
            ])
        }

        fn index(motion_code: u16, e1_deg: f64) -> usize {
            let t = MappingTable::new(0.0);
            (motion_code as usize % MotionCodec::CODES) * MappingTable::BUCKETS + t.bucket(e1_deg)
        }

        fn gradient(&self, motion_code: u16, e1_deg: f64) -> f64 {
            f64::from(self.0[Self::index(motion_code, e1_deg)].to_f32())
        }

        fn set_gradient(&mut self, motion_code: u16, e1_deg: f64, gradient: f64) {
            self.0[Self::index(motion_code, e1_deg)] = F16::from_f32(gradient as f32);
        }
    }

    #[test]
    fn sparse_table_reads_equal_the_dense_table() {
        // LIWC's use of the table, at random: each select reads the entry
        // of a (motion code, e1) state, and each observe reads the entry of
        // the previous decision and writes it back updated. A few codes
        // and e1s repeat, so writes land on written entries too, some of
        // them back to the initial value.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x7ab1e);
        for initial in [-0.5, -1.0, 0.0, -3.7] {
            let mut sparse = MappingTable::new(initial);
            let mut dense = DenseTable::new(initial);
            let mut state = (0u16, 5.0);
            for step in 0..20_000 {
                let code = if rng.gen_bool(0.5) {
                    rng.gen_range(0..8u16)
                } else {
                    rng.gen_range(0..u16::MAX)
                };
                let e1 = if rng.gen_bool(0.5) {
                    f64::from(rng.gen_range(5..91u32))
                } else {
                    rng.gen_range(-20.0..120.0)
                };
                // select
                let read = sparse.gradient(code, e1);
                assert_eq!(
                    read.to_bits(),
                    dense.gradient(code, e1).to_bits(),
                    "step {step}"
                );
                // observe, on the previous decision's state
                if rng.gen_bool(0.6) {
                    let (code, e1) = state;
                    let old = sparse.gradient(code, e1);
                    assert_eq!(old.to_bits(), dense.gradient(code, e1).to_bits());
                    let updated = if rng.gen_bool(0.2) {
                        initial
                    } else {
                        0.7 * old + 0.3 * rng.gen_range(-50.0..-0.01)
                    };
                    sparse.set_gradient(code, e1, updated);
                    dense.set_gradient(code, e1, updated);
                }
                state = (code, e1);
            }
            // Every entry, written or not, reads the same from both.
            for code in 0..MotionCodec::CODES as u16 {
                for bucket in 0..MappingTable::BUCKETS {
                    let e1 = LayerPartition::MIN_E1
                        + (bucket as f64 + 0.5) / MappingTable::BUCKETS as f64
                            * (LayerPartition::MAX_E1 - LayerPartition::MIN_E1);
                    assert_eq!(
                        sparse.gradient(code, e1).to_bits(),
                        dense.gradient(code, e1).to_bits(),
                        "code {code} bucket {bucket}"
                    );
                }
            }
            assert!(!sparse.written.is_empty());
            assert!(sparse.written.iter().all(|&(_, v)| v != sparse.initial));
        }
    }

    #[test]
    fn table_readback_is_f16_quantised() {
        let mut t = MappingTable::new(0.0);
        t.set_gradient(7, 20.0, -0.123456789);
        let g = t.gradient(7, 20.0);
        assert!(
            (g - (-0.123456789)).abs() < 1e-3,
            "f16 keeps ~3 digits: {g}"
        );
        assert_ne!(g, -0.123456789, "storage must quantise");
    }

    #[test]
    fn predictor_eq2_shape() {
        let p = LatencyPredictor::new(100_000.0, 0.2, 0.5);
        let t1 = p.predict_local_ms(1_000_000, 0.1);
        let t2 = p.predict_local_ms(1_000_000, 0.2);
        assert!(t2 > t1, "more fovea share costs more");
        assert!(
            (t1 - (0.5 + 1.0)).abs() < 1e-9,
            "1M tris x 10% / 100k tri/ms = 1 ms"
        );
        let r = p.predict_remote_ms(250_000.0, 200.0, 2.0);
        assert!(
            (r - (2.0 + 10.0)).abs() < 1e-9,
            "250 KB at 200 Mbps = 10 ms"
        );
    }

    #[test]
    fn predictor_learns_gpu_performance() {
        let mut p = LatencyPredictor::new(50_000.0, 0.5, 0.0);
        // Real hardware is twice as fast as the initial estimate.
        for _ in 0..50 {
            p.observe_local(1_000_000, 0.1, 1.0); // implies 100k tri/ms
        }
        let learned = p.gpu_triangles_per_ms();
        assert!((learned - 100_000.0).abs() < 5_000.0, "learned {learned}");
    }

    #[test]
    fn liwc_grows_fovea_when_network_is_slow() {
        let predictor = LatencyPredictor::new(100_000.0, 0.2, 0.5);
        let mut liwc = Liwc::new(5.0, -1.0, 0.3, predictor);
        // Remote side far slower than local: e1 must grow monotonically.
        let mut last_e1 = liwc.e1_deg();
        for _ in 0..10 {
            let d = liwc.select(
                &still_delta(),
                1_000_000,
                |e1| (e1 / 90.0).min(1.0) * 0.5,
                |e1| 600_000.0 * (1.0 - e1 / 120.0),
                100.0,
                2.0,
            );
            assert!(
                d.e1_deg >= last_e1,
                "e1 must not shrink while remote dominates"
            );
            last_e1 = d.e1_deg;
        }
        assert!(
            last_e1 > 30.0,
            "after 10 frames of +5°, e1 is large: {last_e1}"
        );
    }

    #[test]
    fn liwc_shrinks_fovea_when_local_is_slow() {
        let predictor = LatencyPredictor::new(20_000.0, 0.2, 0.5);
        let mut liwc = Liwc::new(60.0, -1.0, 0.3, predictor);
        for _ in 0..10 {
            liwc.select(
                &still_delta(),
                2_000_000,
                |e1| (e1 / 90.0).min(1.0),
                |_| 50_000.0,
                500.0,
                1.5,
            );
        }
        assert!(liwc.e1_deg() < 30.0, "e1 must shrink: {}", liwc.e1_deg());
    }

    #[test]
    fn liwc_delta_bounded_by_tags() {
        let predictor = LatencyPredictor::new(100_000.0, 0.2, 0.5);
        let mut liwc = Liwc::new(45.0, -0.1, 0.3, predictor);
        let d = liwc.select(
            &moving_delta(),
            5_000_000,
            |_| 1.0,
            |_| 5_000_000.0,
            10.0,
            2.0,
        );
        assert!(d.delta_e_deg.abs() <= Liwc::MAX_DELTA_DEG + 1e-9);
    }

    #[test]
    fn liwc_updates_gradient_from_measurements() {
        let predictor = LatencyPredictor::new(100_000.0, 0.2, 0.5);
        let mut liwc = Liwc::new(20.0, -0.5, 0.5, predictor);
        let code = MotionCodec::default().encode(&still_delta());
        // Two frames: the gap shrinks by 4 ms after the second +5° move, so
        // the measured gradient is -0.8 ms/deg.
        liwc.select(
            &still_delta(),
            1_000_000,
            |_| 0.2,
            |_| 300_000.0,
            200.0,
            2.0,
        );
        liwc.observe(1_000_000, 0.2, 5.0, 13.0, 300_000.0, 200.0, 2.0); // gap 8, seeds prev_gap
        liwc.select(
            &still_delta(),
            1_000_000,
            |_| 0.2,
            |_| 300_000.0,
            200.0,
            2.0,
        );
        liwc.observe(1_000_000, 0.2, 7.0, 11.0, 300_000.0, 200.0, 2.0); // gap 4

        // The second decision was taken from the post-first-move state
        // (e1 = 25°), so the update lands on that state's entry: the value
        // moves off the -0.5 initialisation toward -0.8.
        let after = liwc.table().gradient(code, 25.0);
        assert_ne!(after, -0.5, "observed gradient must update the table");
        assert!(
            after < -0.5,
            "update moves toward the measured -0.8: {after}"
        );
    }

    #[test]
    fn liwc_convergence_on_synthetic_equilibrium() {
        // Local cost rises with e1, remote falls; equilibrium near 30°.
        let predictor = LatencyPredictor::new(100_000.0, 0.3, 0.5);
        let mut liwc = Liwc::new(5.0, -1.0, 0.3, predictor);
        let local_at = |e1: f64| 0.5 + 1_500_000.0 * (e1 / 90.0).powi(2) / 100_000.0;
        let remote_at = |e1: f64| 2.0 + 16.0 * (1.0 - e1 / 60.0).max(0.1);
        let mut e1_hist = Vec::new();
        for _ in 0..120 {
            let d = liwc.select(
                &still_delta(),
                1_500_000,
                |e1| (e1 / 90.0).powi(2),
                |e1| (remote_at(e1) - 2.0) * 200.0 * 1_000.0 / 8.0,
                200.0,
                2.0,
            );
            liwc.observe(
                1_500_000,
                (d.e1_deg / 90.0).powi(2),
                local_at(d.e1_deg),
                remote_at(d.e1_deg),
                (remote_at(d.e1_deg) - 2.0) * 200.0 * 1_000.0 / 8.0,
                200.0,
                2.0,
            );
            e1_hist.push(d.e1_deg);
        }
        // Steady state: the last 40 frames hover near the crossing point.
        let tail = &e1_hist[80..];
        let mean: f64 = tail.iter().sum::<f64>() / tail.len() as f64;
        let crossing = (5..90)
            .map(f64::from)
            .min_by(|a, b| {
                (local_at(*a) - remote_at(*a))
                    .abs()
                    .total_cmp(&(local_at(*b) - remote_at(*b)).abs())
            })
            .unwrap();
        assert!(
            (mean - crossing).abs() < 8.0,
            "converged mean {mean:.1}° vs true balance {crossing:.1}°"
        );
    }

    #[test]
    fn software_controller_lags_and_tracks() {
        let mut sw = SoftwareController::new(5.0, 0.5, 2);
        // Constant positive gap: e1 should eventually grow, but not before
        // the lag drains.
        let e_first = sw.select();
        assert_eq!(e_first, 5.0, "no measurements yet");
        for _ in 0..20 {
            sw.observe(3.0, 13.0);
            sw.select();
        }
        assert!(
            sw.e1_deg() > 20.0,
            "software controller must track: {}",
            sw.e1_deg()
        );
    }

    #[test]
    fn software_controller_respects_delta_cap() {
        let mut sw = SoftwareController::new(5.0, 10.0, 1);
        sw.observe(0.0, 100.0);
        sw.observe(0.0, 100.0);
        let before = sw.e1_deg();
        sw.select();
        assert!(sw.e1_deg() - before <= Liwc::MAX_DELTA_DEG + 1e-9);
    }

    #[test]
    fn liwc_display() {
        let liwc = Liwc::new(10.0, -0.5, 0.3, LatencyPredictor::new(1e5, 0.2, 0.5));
        assert!(liwc.to_string().contains("e1=10.0"));
    }
}
