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

    /// Checks the config, whether or not it is enabled. Every
    /// [`RateController`] is built through this check, so a bad config
    /// is rejected before a stepper runs its first frame.
    ///
    /// # Panics
    ///
    /// Panics, naming the field, if a quality bound is NaN, `min_quality`
    /// exceeds `max_quality`, or `gain`, `max_step_ratio` or `deadband` is
    /// NaN, infinite or negative.
    pub fn validate(&self) {
        for (field, bound) in [
            ("min_quality", self.min_quality),
            ("max_quality", self.max_quality),
        ] {
            assert!(!bound.is_nan(), "rate control: {field} is NaN");
        }
        assert!(
            self.min_quality <= self.max_quality,
            "rate control: min_quality {} exceeds max_quality {}",
            self.min_quality,
            self.max_quality
        );
        for (field, value) in [
            ("gain", self.gain),
            ("max_step_ratio", self.max_step_ratio),
            ("deadband", self.deadband),
        ] {
            assert!(
                value.is_finite() && value >= 0.0,
                "rate control: {field} must be finite and non-negative, got {value}"
            );
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
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid ([`RateControlConfig::validate`]).
    #[must_use]
    pub fn new(config: RateControlConfig) -> Self {
        config.validate();
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

    /// Asserts that validating `config` panics with a message naming
    /// `field`.
    fn assert_rejected(config: RateControlConfig, field: &str) {
        let err = std::panic::catch_unwind(|| config.validate())
            .expect_err(&format!("{config:?} passed validation"));
        let message = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_default();
        assert!(
            message.contains(field),
            "{config:?}: the message {message:?} does not name {field}"
        );
    }

    #[test]
    fn nan_quality_bounds_are_rejected() {
        let on = RateControlConfig::on();
        let min_quality = f64::NAN;
        assert_rejected(RateControlConfig { min_quality, ..on }, "min_quality");
        let max_quality = f64::NAN;
        assert_rejected(RateControlConfig { max_quality, ..on }, "max_quality");
    }

    #[test]
    fn inverted_quality_bounds_are_rejected() {
        // Unchecked, `RateController::new` would panic inside
        // `f64::clamp` ("min > max, or either was NaN"), naming no field.
        for enabled in [false, true] {
            let config = RateControlConfig {
                enabled,
                min_quality: 0.9,
                max_quality: 0.2,
                ..RateControlConfig::default()
            };
            assert_rejected(config, "min_quality");
        }
    }

    const NON_FINITE_OR_NEGATIVE: [f64; 4] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.1];

    #[test]
    fn bad_gains_are_rejected() {
        // Unchecked, a NaN gain would make a frame at twice its target
        // raise quality from 0.6 to the 0.95 ceiling.
        for gain in NON_FINITE_OR_NEGATIVE {
            assert_rejected(
                RateControlConfig {
                    gain,
                    ..RateControlConfig::on()
                },
                "gain",
            );
        }
    }

    #[test]
    fn bad_step_ratios_are_rejected() {
        for max_step_ratio in NON_FINITE_OR_NEGATIVE {
            let config = RateControlConfig {
                max_step_ratio,
                ..RateControlConfig::on()
            };
            assert_rejected(config, "max_step_ratio");
        }
    }

    #[test]
    fn bad_deadbands_are_rejected() {
        for deadband in NON_FINITE_OR_NEGATIVE {
            let config = RateControlConfig {
                deadband,
                ..RateControlConfig::on()
            };
            assert_rejected(config, "deadband");
        }
    }

    #[test]
    fn shipped_configs_and_their_edges_pass() {
        RateControlConfig::default().validate();
        RateControlConfig::on().validate();
        // Equal bounds and zero gain, ratio and deadband are legal.
        RateControlConfig {
            min_quality: 0.5,
            max_quality: 0.5,
            gain: 0.0,
            max_step_ratio: 0.0,
            deadband: 0.0,
            ..RateControlConfig::on()
        }
        .validate();
    }

    #[test]
    fn default_is_off() {
        assert!(!RateControlConfig::default().enabled);
        assert!(RateControlConfig::on().enabled);
    }
}
