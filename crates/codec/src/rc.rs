//! Per-tenant closed-loop rate control.
//!
//! A [`RateController`] holds one scalar of state — the current codec
//! quality — and adapts it so the tenant's per-frame transmitted bytes
//! track a target derived from its allocated link share:
//! `target_bytes = allocated_mbps × 10⁶ / 8 / target_fps`.
//!
//! Adaptation happens in the *quantiser-step* domain (the physically
//! meaningful knob: coded bytes fall roughly as a power of the step), in
//! the classic one-pole rate-controller idiom: after each frame the step
//! is multiplied by `(actual/target)^gain`, clamped to a bounded per-frame
//! ratio so a single outlier frame cannot slam the quality, with a
//! deadband around the target so a converged controller holds its quality
//! exactly (bit-stable output). Fully deterministic and allocation-free:
//! the controller is two `Copy` structs of scalars.

/// Configuration for the per-tenant rate controller.
///
/// `enabled` defaults to **off**: the fleet's transmitted bytes then come
/// from the closed-form size model exactly as before, keeping every
/// golden-pinned trajectory bit-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateControlConfig {
    /// Master switch; off preserves the legacy closed-form byte path.
    pub enabled: bool,
    /// Codec quality a fresh controller starts at.
    pub initial_quality: f64,
    /// Lower quality bound (floor on how coarse the stream may get).
    pub min_quality: f64,
    /// Upper quality bound (streaming finer than this wastes link).
    pub max_quality: f64,
    /// Damping exponent on the `(actual/target)` error ratio; 1.0 would
    /// correct the full error in one frame (assuming bytes ∝ 1/step),
    /// smaller values trade convergence speed for overshoot immunity.
    pub gain: f64,
    /// Per-frame bound on the quantiser-step multiplier (and its
    /// reciprocal); limits how fast quality can move.
    pub max_step_ratio: f64,
    /// Relative error inside which the controller holds its quality.
    pub deadband: f64,
}

impl Default for RateControlConfig {
    fn default() -> Self {
        RateControlConfig {
            enabled: false,
            initial_quality: 0.6,
            min_quality: 0.05,
            max_quality: 0.95,
            gain: 0.6,
            max_step_ratio: 1.35,
            deadband: 0.04,
        }
    }
}

impl RateControlConfig {
    /// The default configuration with the controller switched on.
    #[must_use]
    pub fn on() -> Self {
        RateControlConfig {
            enabled: true,
            ..RateControlConfig::default()
        }
    }
}

/// One tenant's closed-loop rate controller (see module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateController {
    config: RateControlConfig,
    quality: f64,
}

/// The codec's quality → quantiser-step mapping (without the 0.04 floor,
/// which lies outside the codec's quality range).
fn quant_step(quality: f64) -> f64 {
    3.5 * (-3.2 * quality).exp()
}

/// Inverse of [`quant_step`].
fn quality_for_step(step: f64) -> f64 {
    -(step.max(1e-9) / 3.5).ln() / 3.2
}

impl RateController {
    /// A fresh controller at the configured initial quality.
    #[must_use]
    pub fn new(config: RateControlConfig) -> Self {
        RateController {
            config,
            quality: config
                .initial_quality
                .clamp(config.min_quality, config.max_quality),
        }
    }

    /// The quality the next frame should be encoded at.
    #[must_use]
    pub fn quality(&self) -> f64 {
        self.quality
    }

    /// Target bytes per frame for an allocated link share at a frame rate.
    #[must_use]
    pub fn target_bytes(allocated_mbps: f64, target_fps: f64) -> f64 {
        if target_fps <= 0.0 {
            return 0.0;
        }
        allocated_mbps.max(0.0) * 1e6 / 8.0 / target_fps
    }

    /// Feeds back one frame's actual transmitted bytes against its target,
    /// adapting quality for the next frame. Non-positive inputs (no link
    /// allocation yet, nothing transmitted) leave the controller untouched.
    pub fn observe(&mut self, actual_bytes: f64, target_bytes: f64) {
        if actual_bytes <= 0.0 || target_bytes <= 0.0 {
            return;
        }
        let ratio = actual_bytes / target_bytes;
        if (ratio - 1.0).abs() <= self.config.deadband {
            return;
        }
        let step = quant_step(self.quality);
        let bound = self.config.max_step_ratio.max(1.0);
        let desired = step * ratio.powf(self.config.gain);
        let clamped = desired.clamp(step / bound, step * bound);
        self.quality =
            quality_for_step(clamped).clamp(self.config.min_quality, self.config.max_quality);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EntropyModel;

    /// Drive the controller against the entropy model as the plant; it
    /// must settle with bytes inside the deadband of the target.
    #[test]
    fn converges_onto_achievable_target() {
        let model = EntropyModel::layer(256.0 * 256.0, 0.6, 1.0, 1.0, 0.0);
        for &target in &[30_000.0, 60_000.0, 90_000.0] {
            let mut rc = RateController::new(RateControlConfig::on());
            let mut bytes = 0.0;
            for _ in 0..60 {
                bytes = model.frame_bytes(rc.quality());
                rc.observe(bytes, target);
            }
            let err = (bytes / target - 1.0).abs();
            assert!(
                err <= RateControlConfig::default().deadband + 1e-9,
                "target {target}: settled at {bytes:.0} (err {err:.3})"
            );
        }
    }

    #[test]
    fn saturates_at_quality_bounds() {
        let model = EntropyModel::layer(256.0 * 256.0, 0.6, 1.0, 1.0, 0.0);
        let cfg = RateControlConfig::on();
        let mut starved = RateController::new(cfg);
        let mut lavish = RateController::new(cfg);
        for _ in 0..80 {
            let b = model.frame_bytes(starved.quality());
            starved.observe(b, 1_000.0);
            let b = model.frame_bytes(lavish.quality());
            lavish.observe(b, 10_000_000.0);
        }
        assert_eq!(starved.quality(), cfg.min_quality);
        assert_eq!(lavish.quality(), cfg.max_quality);
    }

    #[test]
    fn deadband_holds_quality_bit_stable() {
        let mut rc = RateController::new(RateControlConfig::on());
        let q = rc.quality();
        // Errors inside the deadband must not move quality at all.
        rc.observe(10_300.0, 10_000.0);
        assert_eq!(rc.quality().to_bits(), q.to_bits());
        rc.observe(9_700.0, 10_000.0);
        assert_eq!(rc.quality().to_bits(), q.to_bits());
    }

    #[test]
    fn per_frame_step_ratio_is_bounded() {
        let cfg = RateControlConfig::on();
        let mut rc = RateController::new(cfg);
        let before = quant_step(rc.quality());
        // A 100x overshoot still moves the step by at most max_step_ratio.
        rc.observe(1_000_000.0, 10_000.0);
        let after = quant_step(rc.quality());
        assert!((after / before - cfg.max_step_ratio).abs() < 1e-9);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let model = EntropyModel::layer(128.0 * 128.0, 0.4, 0.7, 0.8, 10.0);
            let mut rc = RateController::new(RateControlConfig::on());
            let mut trace = Vec::new();
            for i in 0..40 {
                let bytes = model.frame_bytes(rc.quality());
                rc.observe(bytes, 20_000.0 + f64::from(i % 7) * 500.0);
                trace.push(rc.quality().to_bits());
            }
            trace
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn ignores_degenerate_inputs() {
        let mut rc = RateController::new(RateControlConfig::on());
        let q = rc.quality();
        rc.observe(0.0, 10_000.0);
        rc.observe(10_000.0, 0.0);
        rc.observe(-5.0, -5.0);
        assert_eq!(rc.quality().to_bits(), q.to_bits());
        assert_eq!(RateController::target_bytes(8.0, 0.0), 0.0);
        assert_eq!(RateController::target_bytes(8.0, 50.0), 20_000.0);
    }

    #[test]
    fn default_is_off() {
        assert!(!RateControlConfig::default().enabled);
        assert!(RateControlConfig::on().enabled);
    }
}
