//! Fovea / middle / outer layer partition (paper Sec. 3, Eq. (1)).
//!
//! Traditional foveated rendering splits the frame into three nested layers.
//! Q-VR re-groups them into a **local** part (the fovea disc of radius `e1`,
//! rendered on the mobile GPU at native resolution) and a **remote** part
//! (middle + outer, rendered on the server at MAR-constrained reduced
//! resolutions and streamed back). Eq. (1) picks the middle eccentricity
//! `*e₂` that minimises the total periphery pixel volume
//! `P_middle + P_outer`, which directly minimises transmitted data.

use crate::angles::{DisplayGeometry, GazePoint};
use crate::error::HvsError;
use crate::mar::MarModel;
use std::fmt;

/// Which visual layer a screen location belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Innermost layer: native resolution, rendered locally in Q-VR.
    Fovea,
    /// Annulus between `e1` and `e2`: gradient resolution, rendered remotely.
    Middle,
    /// Beyond `e2`: lowest resolution, rendered remotely.
    Outer,
}

impl fmt::Display for LayerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            LayerKind::Fovea => "fovea",
            LayerKind::Middle => "middle",
            LayerKind::Outer => "outer",
        };
        f.write_str(name)
    }
}

/// Pixel volume that each layer contributes to a frame.
///
/// All quantities are fractional pixel counts for **one eye**; multiply by
/// two for a stereo pair.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LayerBudget {
    /// Native-resolution pixels in the local fovea layer.
    pub fovea_px: f64,
    /// Subsampled pixels rendered for the middle layer.
    pub middle_px: f64,
    /// Subsampled pixels rendered for the outer layer.
    pub outer_px: f64,
}

impl LayerBudget {
    /// Pixels rendered remotely (middle + outer).
    #[must_use]
    pub fn periphery(&self) -> f64 {
        self.middle_px + self.outer_px
    }

    /// Total pixels rendered across all layers.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.fovea_px + self.periphery()
    }
}

/// A two-eccentricity foveation partition `(e1, e2)` in visual degrees.
///
/// Invariant: `0 < e1 <= e2 <= MAX_ECCENTRICITY`.
///
/// # Example
///
/// ```
/// use qvr_hvs::{DisplayGeometry, MarModel, LayerPartition};
///
/// let display = DisplayGeometry::vive_pro_class();
/// let mar = MarModel::default();
/// let p = LayerPartition::new(15.0, 40.0)?;
/// let budget = p.layer_budget(&display, &mar, Default::default());
/// assert!(budget.fovea_px > 0.0 && budget.periphery() > 0.0);
/// # Ok::<(), qvr_hvs::HvsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerPartition {
    e1: f64,
    e2: f64,
}

impl LayerPartition {
    /// The smallest fovea the controller may select, in degrees.
    ///
    /// Five degrees is the classic anatomical fovea (and the paper's FFR
    /// baseline as well as Q-VR's initial value).
    pub const MIN_E1: f64 = 5.0;
    /// The largest eccentricity the controller may select, in degrees.
    ///
    /// Table 4 saturates at 90° ("render everything locally").
    pub const MAX_E1: f64 = 90.0;

    /// Creates a partition from explicit eccentricities.
    ///
    /// # Errors
    ///
    /// Returns [`HvsError::InvalidEccentricity`] if either value is outside
    /// `(0, 90]` or non-finite, and [`HvsError::InvertedPartition`] if
    /// `e1 > e2`.
    pub fn new(e1: f64, e2: f64) -> Result<Self, HvsError> {
        for e in [e1, e2] {
            if !e.is_finite() || e <= 0.0 || e > Self::MAX_E1 {
                return Err(HvsError::InvalidEccentricity {
                    value: e,
                    max: Self::MAX_E1,
                });
            }
        }
        if e1 > e2 {
            return Err(HvsError::InvertedPartition { e1, e2 });
        }
        Ok(LayerPartition { e1, e2 })
    }

    /// Creates a partition with the Eq. (1) optimal middle eccentricity:
    /// `*e₂ = argmin (P_middle + P_outer)`.
    ///
    /// # Errors
    ///
    /// Returns [`HvsError::InvalidEccentricity`] if `e1` is outside `(0, 90]`.
    pub fn with_optimal_middle(
        e1: f64,
        display: &DisplayGeometry,
        mar: &MarModel,
    ) -> Result<Self, HvsError> {
        if !e1.is_finite() || e1 <= 0.0 || e1 > Self::MAX_E1 {
            return Err(HvsError::InvalidEccentricity {
                value: e1,
                max: Self::MAX_E1,
            });
        }
        let e2 = optimal_middle_eccentricity(e1, display, mar);
        LayerPartition::new(e1, e2)
    }

    /// The fovea (first) eccentricity `e1` in degrees.
    #[must_use]
    pub fn fovea_eccentricity(&self) -> f64 {
        self.e1
    }

    /// The middle (second) eccentricity `e2` in degrees.
    #[must_use]
    pub fn middle_eccentricity(&self) -> f64 {
        self.e2
    }

    /// Returns a copy with a different fovea eccentricity, re-optimising the
    /// middle eccentricity, clamping `e1` into `[MIN_E1, MAX_E1]`.
    #[must_use]
    pub fn retargeted(&self, e1: f64, display: &DisplayGeometry, mar: &MarModel) -> Self {
        let e1 = e1.clamp(Self::MIN_E1, Self::MAX_E1);
        LayerPartition::with_optimal_middle(e1, display, mar)
            .expect("clamped eccentricity is always valid")
    }

    /// The layer containing eccentricity `e` degrees.
    #[must_use]
    pub fn layer_at(&self, e_deg: f64) -> LayerKind {
        if e_deg <= self.e1 {
            LayerKind::Fovea
        } else if e_deg <= self.e2 {
            LayerKind::Middle
        } else {
            LayerKind::Outer
        }
    }

    /// Linear resolution scale (≤ 1) of a layer under the MAR model.
    ///
    /// The fovea is always native (1.0); the middle layer is sampled for its
    /// most demanding (innermost) eccentricity `e1`; the outer for `e2`.
    #[must_use]
    pub fn layer_scale(&self, layer: LayerKind, display: &DisplayGeometry, mar: &MarModel) -> f64 {
        let native = display.native_mar();
        match layer {
            LayerKind::Fovea => 1.0,
            LayerKind::Middle => mar.resolution_scale(self.e1, native),
            LayerKind::Outer => mar.resolution_scale(self.e2, native),
        }
    }

    /// Pixel volume of every layer for one eye.
    ///
    /// Layer extents follow Guenter et al.: each layer is rendered as an
    /// axis-aligned rectangle circumscribing its eccentricity disc (clipped
    /// to the panel), at its layer scale; the outer layer always covers the
    /// full panel.
    #[must_use]
    pub fn layer_budget(
        &self,
        display: &DisplayGeometry,
        mar: &MarModel,
        gaze: GazePoint,
    ) -> LayerBudget {
        let fovea_px = display.fovea_pixels(self.e1, gaze);
        self.layer_budget_with_fovea(display, mar, gaze, fovea_px)
    }

    /// [`LayerPartition::layer_budget`] for a caller that already holds the
    /// fovea disc's pixels, `display.fovea_pixels(e1, gaze)`: the disc is
    /// not integrated again.
    #[must_use]
    pub fn layer_budget_with_fovea(
        &self,
        display: &DisplayGeometry,
        mar: &MarModel,
        gaze: GazePoint,
        fovea_px: f64,
    ) -> LayerBudget {
        let total_px = display.pixels_per_eye() as f64;
        let mid_extent = rect_fraction(self.e2, display, gaze);
        let mid_scale = self.layer_scale(LayerKind::Middle, display, mar);
        // The middle rectangle excludes the fovea disc it encloses: those
        // pixels come from the local layer.
        let mid_area_px = (mid_extent * total_px - fovea_px).max(0.0);
        let middle_px = mid_area_px * mid_scale * mid_scale;

        let out_scale = self.layer_scale(LayerKind::Outer, display, mar);
        // The outer layer covers the full panel; the composition overlaps it
        // with the middle rectangle, so only the remainder is unique, but the
        // server still renders (and transmits) the full coarse plane, which
        // is what matters for workload and network volume.
        let outer_px = total_px * out_scale * out_scale;

        LayerBudget {
            fovea_px,
            middle_px,
            outer_px,
        }
    }

    /// Remote (middle + outer) pixel volume for one eye; the paper's
    /// `P_middle + P_outer` objective.
    #[must_use]
    pub fn periphery_pixels(&self, display: &DisplayGeometry, mar: &MarModel) -> f64 {
        self.layer_budget(display, mar, GazePoint::center())
            .periphery()
    }

    /// Fraction by which the total rendered pixel volume is reduced relative
    /// to rendering the full panel at native resolution (Fig. 13's
    /// "resolution reduction").
    #[must_use]
    pub fn resolution_reduction(
        &self,
        display: &DisplayGeometry,
        mar: &MarModel,
        gaze: GazePoint,
    ) -> f64 {
        let budget = self.layer_budget(display, mar, gaze);
        let native = display.pixels_per_eye() as f64;
        (1.0 - budget.total() / native).clamp(0.0, 1.0)
    }
}

impl fmt::Display for LayerPartition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e1={:.1}°, e2={:.1}°", self.e1, self.e2)
    }
}

/// Fraction of the panel covered by the axis-aligned rectangle that
/// circumscribes the eccentricity disc of radius `e` at `gaze`.
fn rect_fraction(e_deg: f64, display: &DisplayGeometry, gaze: GazePoint) -> f64 {
    let (w, h) = (display.fov_h().0, display.fov_v().0);
    let cx = gaze.x * w / 2.0;
    let cy = gaze.y * h / 2.0;
    let left = (cx - e_deg).max(-w / 2.0);
    let right = (cx + e_deg).min(w / 2.0);
    let bottom = (cy - e_deg).max(-h / 2.0);
    let top = (cy + e_deg).min(h / 2.0);
    if left >= right || bottom >= top {
        return 0.0;
    }
    ((right - left) * (top - bottom) / (w * h)).clamp(0.0, 1.0)
}

/// Grid search for the Eq. (1) optimal `*e₂`: the middle eccentricity that
/// minimises total periphery pixel volume.
///
/// The candidate cost is the [`LayerPartition::periphery_pixels`] objective
/// with its e2-invariant terms (fovea disc area, middle-layer scale, native
/// MAR) hoisted out of the loop: each candidate evaluates the same
/// expression tree as `layer_budget` would, operation for operation, so the
/// selected `e2` is bit-identical to scanning full budgets — while the
/// expensive disc integration runs once instead of once per candidate.
fn optimal_middle_eccentricity(e1: f64, display: &DisplayGeometry, mar: &MarModel) -> f64 {
    let e_max = display.max_eccentricity().0.min(LayerPartition::MAX_E1);
    if e1 >= e_max {
        return LayerPartition::MAX_E1.min(e1.max(LayerPartition::MIN_E1));
    }
    const STEP: f64 = 0.25;
    let gaze = GazePoint::center();
    let total_px = display.pixels_per_eye() as f64;
    let fovea_px = display.fovea_pixels(e1, gaze);
    let native = display.native_mar();
    let mid_scale = mar.resolution_scale(e1, native);
    let mut best_e2 = e1;
    let mut best_cost = f64::INFINITY;
    let mut consider = |e2: f64| {
        // `layer_budget(center).periphery()`, term by term.
        let mid_extent = rect_fraction(e2, display, gaze);
        let mid_area_px = (mid_extent * total_px - fovea_px).max(0.0);
        let middle_px = mid_area_px * mid_scale * mid_scale;
        let out_scale = mar.resolution_scale(e2, native);
        let outer_px = total_px * out_scale * out_scale;
        let cost = middle_px + outer_px;
        if cost < best_cost {
            best_cost = cost;
            best_e2 = e2;
        }
    };
    let mut e2 = e1;
    while e2 <= e_max + 1e-9 {
        consider(e2);
        e2 += STEP;
    }
    // The grid may stop short of the boundary; evaluate it exactly.
    consider(e_max);
    best_e2
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (DisplayGeometry, MarModel) {
        (DisplayGeometry::vive_pro_class(), MarModel::default())
    }

    #[test]
    fn new_validates_ordering() {
        assert!(LayerPartition::new(30.0, 10.0).is_err());
        assert!(LayerPartition::new(10.0, 30.0).is_ok());
        assert!(LayerPartition::new(10.0, 10.0).is_ok());
    }

    #[test]
    fn new_validates_range() {
        assert!(LayerPartition::new(0.0, 10.0).is_err());
        assert!(LayerPartition::new(-5.0, 10.0).is_err());
        assert!(LayerPartition::new(5.0, 95.0).is_err());
        assert!(LayerPartition::new(f64::NAN, 10.0).is_err());
    }

    #[test]
    fn layer_at_boundaries() {
        let p = LayerPartition::new(10.0, 30.0).unwrap();
        assert_eq!(p.layer_at(0.0), LayerKind::Fovea);
        assert_eq!(p.layer_at(10.0), LayerKind::Fovea);
        assert_eq!(p.layer_at(10.1), LayerKind::Middle);
        assert_eq!(p.layer_at(30.0), LayerKind::Middle);
        assert_eq!(p.layer_at(30.1), LayerKind::Outer);
    }

    #[test]
    fn fovea_scale_is_native() {
        let (d, m) = setup();
        let p = LayerPartition::new(10.0, 30.0).unwrap();
        assert_eq!(p.layer_scale(LayerKind::Fovea, &d, &m), 1.0);
    }

    #[test]
    fn scales_decrease_outward() {
        let (d, m) = setup();
        let p = LayerPartition::new(10.0, 30.0).unwrap();
        let sf = p.layer_scale(LayerKind::Fovea, &d, &m);
        let sm = p.layer_scale(LayerKind::Middle, &d, &m);
        let so = p.layer_scale(LayerKind::Outer, &d, &m);
        assert!(sf >= sm && sm >= so, "{sf} {sm} {so}");
        assert!(so > 0.0);
    }

    #[test]
    fn budget_components_positive_for_interior_partition() {
        let (d, m) = setup();
        let p = LayerPartition::new(15.0, 40.0).unwrap();
        let b = p.layer_budget(&d, &m, GazePoint::center());
        assert!(b.fovea_px > 0.0);
        assert!(b.middle_px > 0.0);
        assert!(b.outer_px > 0.0);
        assert!((b.total() - (b.fovea_px + b.middle_px + b.outer_px)).abs() < 1e-9);
    }

    #[test]
    fn periphery_shrinks_as_fovea_grows_with_optimal_middle() {
        let (d, m) = setup();
        let small = LayerPartition::with_optimal_middle(10.0, &d, &m).unwrap();
        let large = LayerPartition::with_optimal_middle(40.0, &d, &m).unwrap();
        assert!(
            large.periphery_pixels(&d, &m) < small.periphery_pixels(&d, &m),
            "bigger local fovea must shrink remote volume"
        );
    }

    #[test]
    fn optimal_middle_is_at_least_e1() {
        let (d, m) = setup();
        for e1 in [5.0, 10.0, 20.0, 30.0, 50.0, 70.0, 89.0] {
            let p = LayerPartition::with_optimal_middle(e1, &d, &m).unwrap();
            assert!(p.middle_eccentricity() >= p.fovea_eccentricity() - 1e-9);
        }
    }

    #[test]
    fn optimal_middle_beats_naive_choices() {
        let (d, m) = setup();
        let e1 = 15.0;
        let opt = LayerPartition::with_optimal_middle(e1, &d, &m).unwrap();
        let opt_cost = opt.periphery_pixels(&d, &m);
        for e2 in [e1, 25.0, 45.0, 60.0, 77.0] {
            let p = LayerPartition::new(e1, e2).unwrap();
            assert!(
                opt_cost <= p.periphery_pixels(&d, &m) + 1e-6,
                "optimal e2 must minimise periphery pixels (e2={e2})"
            );
        }
    }

    #[test]
    fn hoisted_grid_search_matches_full_budget_scan_exactly() {
        // The production grid search hoists e2-invariant terms; this naive
        // scan evaluates the full `periphery_pixels` objective per
        // candidate. Both must pick the same e2 with the same cost bits.
        let (d, m) = setup();
        for e1 in [5.0, 7.25, 15.0, 22.5, 40.0, 61.0, 77.0] {
            let e_max = d.max_eccentricity().0.min(LayerPartition::MAX_E1);
            let mut best_e2 = e1;
            let mut best_cost = f64::INFINITY;
            let mut consider = |e2: f64| {
                let cost = LayerPartition { e1, e2 }.periphery_pixels(&d, &m);
                if cost < best_cost {
                    best_cost = cost;
                    best_e2 = e2;
                }
            };
            let mut e2 = e1;
            while e2 <= e_max + 1e-9 {
                consider(e2);
                e2 += 0.25;
            }
            consider(e_max);
            let got = optimal_middle_eccentricity(e1, &d, &m);
            assert_eq!(got.to_bits(), best_e2.to_bits(), "e1={e1}");
        }
    }

    #[test]
    fn resolution_reduction_in_unit_range() {
        let (d, m) = setup();
        for e1 in [5.0, 20.0, 45.0, 88.0] {
            let p = LayerPartition::with_optimal_middle(e1, &d, &m).unwrap();
            let r = p.resolution_reduction(&d, &m, GazePoint::center());
            assert!((0.0..=1.0).contains(&r), "reduction {r} for e1={e1}");
        }
    }

    #[test]
    fn small_fovea_gives_large_resolution_reduction() {
        let (d, m) = setup();
        let p = LayerPartition::with_optimal_middle(5.0, &d, &m).unwrap();
        // Almost all of the frame is MAR-subsampled periphery.
        assert!(p.resolution_reduction(&d, &m, GazePoint::center()) > 0.5);
    }

    #[test]
    fn retargeted_clamps() {
        let (d, m) = setup();
        let p = LayerPartition::new(10.0, 30.0).unwrap();
        assert_eq!(
            p.retargeted(2.0, &d, &m).fovea_eccentricity(),
            LayerPartition::MIN_E1
        );
        assert_eq!(
            p.retargeted(300.0, &d, &m).fovea_eccentricity(),
            LayerPartition::MAX_E1
        );
    }

    #[test]
    fn layer_kind_display() {
        assert_eq!(LayerKind::Fovea.to_string(), "fovea");
        assert_eq!(LayerKind::Middle.to_string(), "middle");
        assert_eq!(LayerKind::Outer.to_string(), "outer");
    }

    #[test]
    fn partition_display_contains_both_eccentricities() {
        let p = LayerPartition::new(12.5, 33.0).unwrap();
        let s = p.to_string();
        assert!(s.contains("12.5") && s.contains("33.0"));
    }
}
