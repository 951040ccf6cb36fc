//! The minimum-angle-of-resolution (MAR) acuity model.
//!
//! Human visual acuity falls off linearly with eccentricity to a good
//! approximation (Guenter et al. 2012; Weymouth 1958): the smallest angular
//! detail resolvable at eccentricity `e` degrees is
//!
//! ```text
//! ω(e) = m·e + ω₀      [degrees per cycle]
//! ```
//!
//! where `ω₀` is the foveal MAR (about one arc-minute) and `m` the acuity
//! slope. Q-VR inherits its `m` and `ω₀` "directly ... from the previous
//! user studies" (Sec. 3.1); we default to the conservative slope from
//! Guenter et al.'s user study.

use crate::error::HvsError;
use std::fmt;

/// Linear MAR acuity model `ω(e) = m·e + ω₀`.
///
/// # Example
///
/// ```
/// use qvr_hvs::MarModel;
///
/// let mar = MarModel::default();
/// // Acuity requirement relaxes with eccentricity.
/// assert!(mar.mar_at(30.0) > mar.mar_at(5.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarModel {
    slope: f64,
    omega0: f64,
}

impl MarModel {
    /// Conservative slope from Guenter et al. 2012's user study
    /// (the value that produced no perceptible artifacts for all subjects).
    pub const GUENTER_CONSERVATIVE_SLOPE: f64 = 0.022;
    /// Aggressive slope from the same study (artifact-free for most).
    pub const GUENTER_AGGRESSIVE_SLOPE: f64 = 0.034;
    /// Foveal MAR of a healthy adult: one arc-minute, in degrees.
    pub const FOVEAL_MAR_DEG: f64 = 1.0 / 60.0;

    /// Creates a MAR model from an acuity slope and foveal MAR (degrees).
    ///
    /// # Errors
    ///
    /// Returns [`HvsError::InvalidMarParameter`] if `slope` is negative or
    /// non-finite, or `omega0` is non-positive or non-finite.
    pub fn new(slope: f64, omega0: f64) -> Result<Self, HvsError> {
        if !slope.is_finite() || slope < 0.0 {
            return Err(HvsError::InvalidMarParameter {
                name: "slope",
                value: slope,
            });
        }
        if !omega0.is_finite() || omega0 <= 0.0 {
            return Err(HvsError::InvalidMarParameter {
                name: "omega0",
                value: omega0,
            });
        }
        Ok(MarModel { slope, omega0 })
    }

    /// The acuity slope `m` in degrees of MAR per degree of eccentricity.
    #[must_use]
    pub fn slope(&self) -> f64 {
        self.slope
    }

    /// The foveal MAR `ω₀` in degrees.
    #[must_use]
    pub fn omega0(&self) -> f64 {
        self.omega0
    }

    /// MAR at eccentricity `e` degrees: `ω(e) = m·e + ω₀`.
    ///
    /// Negative eccentricities are treated by their absolute value (the
    /// model is radially symmetric).
    #[must_use]
    pub fn mar_at(&self, e_deg: f64) -> f64 {
        self.slope * e_deg.abs() + self.omega0
    }

    /// The maximum tolerable *linear* subsampling factor at eccentricity `e`
    /// for a display whose native angular resolution is `native_mar` degrees
    /// per pixel.
    ///
    /// A factor of `1.0` means native resolution is required; a factor of
    /// `4.0` means one rendered pixel may cover 4×4 native pixels without a
    /// perceptible difference.
    #[must_use]
    pub fn subsample_factor(&self, e_deg: f64, native_mar: f64) -> f64 {
        (self.mar_at(e_deg) / native_mar).max(1.0)
    }

    /// The *linear* resolution scale (≤ 1) tolerable at eccentricity `e`
    /// relative to a display with native MAR `native_mar`.
    ///
    /// This is the paper's `*sᵢ = ωᵢ / ω*` from Eq. (1), inverted so that
    /// smaller values mean coarser layers: `scale = ω* / ω(e)`, clamped to 1.
    #[must_use]
    pub fn resolution_scale(&self, e_deg: f64, native_mar: f64) -> f64 {
        1.0 / self.subsample_factor(e_deg, native_mar)
    }

    /// Whether a layer sampled with linear scale `scale` (≤ 1) satisfies the
    /// MAR constraint at eccentricity `e` for the given display.
    ///
    /// The requirement is display-relative: a panel can never deliver finer
    /// than its native angular resolution, so near the fovea (where the eye
    /// out-resolves the panel) native-scale rendering counts as satisfied.
    #[must_use]
    pub fn satisfies(&self, e_deg: f64, scale: f64, native_mar: f64) -> bool {
        // The layer's effective angular resolution is native_mar / scale.
        // Guard scale = 0 (infinitely coarse) as unsatisfiable.
        if scale <= 0.0 {
            return false;
        }
        let required = self.mar_at(e_deg).max(native_mar);
        native_mar / scale <= required * (1.0 + 1e-9)
    }
}

impl Default for MarModel {
    /// The conservative Guenter et al. parameters used by Q-VR.
    fn default() -> Self {
        MarModel {
            slope: Self::GUENTER_CONSERVATIVE_SLOPE,
            omega0: Self::FOVEAL_MAR_DEG,
        }
    }
}

impl fmt::Display for MarModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ω(e) = {:.4}·e + {:.4}", self.slope, self.omega0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_parameters_match_constants() {
        let m = MarModel::default();
        assert_eq!(m.slope(), MarModel::GUENTER_CONSERVATIVE_SLOPE);
        assert_eq!(m.omega0(), MarModel::FOVEAL_MAR_DEG);
    }

    #[test]
    fn mar_is_linear() {
        let m = MarModel::default();
        let at0 = m.mar_at(0.0);
        let at10 = m.mar_at(10.0);
        let at20 = m.mar_at(20.0);
        assert!((at20 - at10 - (at10 - at0)).abs() < 1e-12);
    }

    #[test]
    fn mar_radially_symmetric() {
        let m = MarModel::default();
        assert_eq!(m.mar_at(-15.0), m.mar_at(15.0));
    }

    #[test]
    fn subsample_factor_clamps_at_fovea() {
        let m = MarModel::default();
        // A display coarser than the eye: native MAR larger than omega0.
        let native = 0.06; // ~16.7 ppd, a VR-class panel
        assert_eq!(m.subsample_factor(0.0, native), 1.0);
        assert!(m.subsample_factor(40.0, native) > 1.0);
    }

    #[test]
    fn resolution_scale_monotonically_decreases() {
        let m = MarModel::default();
        let native = 0.06;
        let mut last = f64::INFINITY;
        for e in 0..90 {
            let s = m.resolution_scale(f64::from(e), native);
            assert!(s <= last + 1e-12);
            assert!(s > 0.0 && s <= 1.0);
            last = s;
        }
    }

    #[test]
    fn satisfies_exactly_at_boundary() {
        let m = MarModel::default();
        let native = 0.06;
        let e = 30.0;
        let s = m.resolution_scale(e, native);
        assert!(m.satisfies(e, s, native));
        assert!(!m.satisfies(e, s * 0.8, native));
        assert!(m.satisfies(e, (s * 1.2).min(1.0), native));
    }

    #[test]
    fn zero_scale_never_satisfies() {
        let m = MarModel::default();
        assert!(!m.satisfies(80.0, 0.0, 0.06));
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(MarModel::new(-0.01, 0.01).is_err());
        assert!(MarModel::new(0.02, 0.0).is_err());
        assert!(MarModel::new(f64::INFINITY, 0.01).is_err());
        assert!(MarModel::new(0.02, f64::NAN).is_err());
    }

    #[test]
    fn display_shows_equation() {
        let s = MarModel::default().to_string();
        assert!(s.contains("ω(e)"));
    }
}
