//! Angular display geometry for a head-mounted display.
//!
//! VR acuity models work in *visual degrees*; rendering works in *pixels*.
//! [`DisplayGeometry`] converts between the two for one eye of an HMD and
//! answers the geometric questions the rest of the system asks: how many
//! pixels fall inside an eccentricity disc, what fraction of the field of
//! view a fovea of a given radius covers, and where a gaze point sits on the
//! panel.

use crate::error::HvsError;
use std::fmt;

/// An angle in visual degrees.
///
/// A thin newtype so that angular quantities are not confused with pixel
/// counts or ratios in the many `f64`-heavy APIs of this workspace.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Degrees(pub f64);

impl Degrees {
    /// The angle in radians.
    #[must_use]
    pub fn to_radians(self) -> f64 {
        self.0.to_radians()
    }

    /// Absolute value.
    #[must_use]
    pub fn abs(self) -> Degrees {
        Degrees(self.0.abs())
    }
}

impl fmt::Display for Degrees {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}°", self.0)
    }
}

impl From<f64> for Degrees {
    fn from(v: f64) -> Self {
        Degrees(v)
    }
}

impl From<Degrees> for f64 {
    fn from(d: Degrees) -> Self {
        d.0
    }
}

/// A gaze point on the panel, in normalized device coordinates.
///
/// `(0.0, 0.0)` is the panel centre; `x` and `y` range over `[-1, 1]` at the
/// panel edges. The eye tracker reports gaze in this space.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GazePoint {
    /// Horizontal position, `-1` (left edge) to `1` (right edge).
    pub x: f64,
    /// Vertical position, `-1` (bottom edge) to `1` (top edge).
    pub y: f64,
}

impl GazePoint {
    /// A gaze point at the panel centre.
    #[must_use]
    pub fn center() -> Self {
        GazePoint::default()
    }

    /// Creates a gaze point, clamping both coordinates into `[-1, 1]`.
    #[must_use]
    pub fn clamped(x: f64, y: f64) -> Self {
        GazePoint {
            x: x.clamp(-1.0, 1.0),
            y: y.clamp(-1.0, 1.0),
        }
    }

    /// Euclidean distance to another gaze point in NDC units.
    #[must_use]
    pub fn distance(&self, other: &GazePoint) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// Per-eye display geometry of a head-mounted display.
///
/// Q-VR's evaluation uses 1920×2160 per eye (HTC-Vive-Pro-class panels) with
/// roughly a 110° field of view; see `DisplayGeometry::vive_pro_class`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DisplayGeometry {
    width_px: u32,
    height_px: u32,
    fov_h: Degrees,
    fov_v: Degrees,
}

impl DisplayGeometry {
    /// Creates a per-eye geometry from pixel dimensions and fields of view.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or any field of view is non-positive
    /// or non-finite. Use [`DisplayGeometry::try_per_eye`] for a fallible
    /// constructor.
    #[must_use]
    pub fn per_eye(width_px: u32, height_px: u32, fov_h_deg: f64, fov_v_deg: f64) -> Self {
        Self::try_per_eye(width_px, height_px, fov_h_deg, fov_v_deg)
            .expect("invalid display geometry")
    }

    /// Fallible counterpart of [`DisplayGeometry::per_eye`].
    ///
    /// # Errors
    ///
    /// Returns [`HvsError::InvalidDisplay`] if a pixel dimension is zero or a
    /// field of view is non-positive, non-finite, or larger than 180°.
    pub fn try_per_eye(
        width_px: u32,
        height_px: u32,
        fov_h_deg: f64,
        fov_v_deg: f64,
    ) -> Result<Self, HvsError> {
        if width_px == 0 || height_px == 0 {
            return Err(HvsError::InvalidDisplay {
                what: "zero pixel dimension",
            });
        }
        for fov in [fov_h_deg, fov_v_deg] {
            if !fov.is_finite() || fov <= 0.0 || fov > 180.0 {
                return Err(HvsError::InvalidDisplay {
                    what: "field of view outside (0, 180]",
                });
            }
        }
        Ok(DisplayGeometry {
            width_px,
            height_px,
            fov_h: Degrees(fov_h_deg),
            fov_v: Degrees(fov_v_deg),
        })
    }

    /// The 1920×2160 @ 110°×110° per-eye geometry used throughout the paper.
    #[must_use]
    pub fn vive_pro_class() -> Self {
        DisplayGeometry::per_eye(1920, 2160, 110.0, 110.0)
    }

    /// The low-resolution 1280×1600 variant used by Doom3-L and HL2-L.
    #[must_use]
    pub fn low_res_class() -> Self {
        DisplayGeometry::per_eye(1280, 1600, 110.0, 110.0)
    }

    /// Panel width in pixels (one eye).
    #[must_use]
    pub fn width_px(&self) -> u32 {
        self.width_px
    }

    /// Panel height in pixels (one eye).
    #[must_use]
    pub fn height_px(&self) -> u32 {
        self.height_px
    }

    /// Horizontal field of view.
    #[must_use]
    pub fn fov_h(&self) -> Degrees {
        self.fov_h
    }

    /// Vertical field of view.
    #[must_use]
    pub fn fov_v(&self) -> Degrees {
        self.fov_v
    }

    /// Total pixels on one eye's panel.
    #[must_use]
    pub fn pixels_per_eye(&self) -> u64 {
        u64::from(self.width_px) * u64::from(self.height_px)
    }

    /// Mean pixels per visual degree (horizontal).
    #[must_use]
    pub fn ppd_h(&self) -> f64 {
        f64::from(self.width_px) / self.fov_h.0
    }

    /// Mean pixels per visual degree (vertical).
    #[must_use]
    pub fn ppd_v(&self) -> f64 {
        f64::from(self.height_px) / self.fov_v.0
    }

    /// The display's native angular resolution ω\* in degrees per pixel.
    ///
    /// This is the `ω*` of the paper's Eq. (1): the finest angular detail the
    /// panel can show. Uses the geometric mean of the two axes.
    #[must_use]
    pub fn native_mar(&self) -> f64 {
        (1.0 / self.ppd_h() * (1.0 / self.ppd_v())).sqrt()
    }

    /// Largest on-screen eccentricity in degrees (panel corner from centre).
    #[must_use]
    pub fn max_eccentricity(&self) -> Degrees {
        let half_diag = ((self.fov_h.0 / 2.0).powi(2) + (self.fov_v.0 / 2.0).powi(2)).sqrt();
        Degrees(half_diag)
    }

    /// The fraction of the panel area covered by an eccentricity disc of
    /// radius `e` degrees centred at `gaze`.
    ///
    /// The disc is intersected with the panel rectangle by 256-strip
    /// midpoint integration. Against the exact area of circle ∩ rectangle
    /// the worst relative error measured is 2.0e-4 (three panel shapes,
    /// 19×19 gazes over the panel, 400 radii in (0, 200°]); a test holds it
    /// under 5e-4.
    ///
    /// Returns a value in `[0, 1]`.
    #[must_use]
    pub fn fovea_area_fraction(&self, e_deg: f64, gaze: GazePoint) -> f64 {
        if e_deg <= 0.0 {
            return 0.0;
        }
        let (w, h, gx, gy) = self.panel_about(gaze);
        let mut widths = [0.0; STRIPS];
        strip_widths(e_deg, gx, gy, w, h, &mut widths);
        let area = widths.iter().fold(0.0, |sum, width| sum + width);
        (area / (w * h)).clamp(0.0, 1.0)
    }

    /// [`DisplayGeometry::fovea_area_fraction`] for every radius in `radii`
    /// at one gaze, written to the same index of `out`.
    ///
    /// Each result is bit-identical to the single-radius call. Discs run
    /// four at a time: their strip widths are summed in lockstep, one
    /// accumulator per disc, each adding in strip order, so no sum is
    /// reassociated.
    ///
    /// # Panics
    ///
    /// Panics if `radii` and `out` differ in length.
    pub fn fovea_area_fractions(&self, radii: &[f64], gaze: GazePoint, out: &mut [f64]) {
        const LANES: usize = 4;
        assert_eq!(radii.len(), out.len(), "one output per radius");
        let (w, h, gx, gy) = self.panel_about(gaze);
        let mut widths = [[0.0; STRIPS]; LANES];
        for (rs, os) in radii.chunks(LANES).zip(out.chunks_mut(LANES)) {
            for (&r, lane) in rs.iter().zip(widths.iter_mut()) {
                strip_widths(r, gx, gy, w, h, lane);
            }
            // Lanes past a short tail chunk still hold the previous chunk's
            // widths; their sums are computed and dropped.
            let mut sums = [0.0; LANES];
            for i in 0..STRIPS {
                for (sum, lane) in sums.iter_mut().zip(&widths) {
                    *sum += lane[i];
                }
            }
            for ((o, &r), area) in os.iter_mut().zip(rs).zip(sums) {
                *o = if r <= 0.0 {
                    0.0
                } else {
                    (area / (w * h)).clamp(0.0, 1.0)
                };
            }
        }
    }

    /// The panel in degrees (`fov_h × fov_v`) and the gaze's offset from its
    /// centre, in degrees.
    fn panel_about(&self, gaze: GazePoint) -> (f64, f64, f64, f64) {
        let (w, h) = (self.fov_h.0, self.fov_v.0);
        (w, h, gaze.x * w / 2.0, gaze.y * h / 2.0)
    }

    /// Number of panel pixels inside the eccentricity disc of radius `e`
    /// centred at `gaze`.
    #[must_use]
    pub fn fovea_pixels(&self, e_deg: f64, gaze: GazePoint) -> f64 {
        self.fovea_area_fraction(e_deg, gaze) * self.pixels_per_eye() as f64
    }

    /// Radius in degrees beyond which an eccentricity disc centred at
    /// `gaze` certainly covers the whole panel (the distance from the gaze
    /// point to the farthest panel corner): for any `e` at or above it,
    /// [`DisplayGeometry::fovea_area_fraction`] is a saturated constant.
    /// Integration loops use this to stop early.
    #[must_use]
    pub fn saturation_radius_deg(&self, gaze: GazePoint) -> f64 {
        let (w, h, gx, gy) = self.panel_about(gaze);
        let dx = (w / 2.0 - gx).max(gx + w / 2.0);
        let dy = (h / 2.0 - gy).max(gy + h / 2.0);
        (dx * dx + dy * dy).sqrt()
    }

    /// Eccentricity of a pixel at NDC position `(x, y)` for a gaze point.
    #[must_use]
    pub fn eccentricity_of(&self, x: f64, y: f64, gaze: GazePoint) -> Degrees {
        let dx = (x - gaze.x) * self.fov_h.0 / 2.0;
        let dy = (y - gaze.y) * self.fov_v.0 / 2.0;
        Degrees((dx * dx + dy * dy).sqrt())
    }
}

impl Default for DisplayGeometry {
    fn default() -> Self {
        DisplayGeometry::vive_pro_class()
    }
}

impl fmt::Display for DisplayGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{} px, {}x{} FOV",
            self.width_px, self.height_px, self.fov_h, self.fov_v
        )
    }
}

/// Strips per disc in [`strip_widths`].
const STRIPS: usize = 256;

/// The strip pass behind the area of the intersection of a circle (radius
/// `r`, centre `(cx, cy)` with the panel centre at the origin) with the
/// rectangle `[-w/2, w/2] x [-h/2, h/2]`.
///
/// Splits the circle's clipped horizontal extent into 256 equal strips and
/// writes each strip's area — the clipped chord height at the strip's
/// midpoint times its width — into `widths`; the area is their sum, taken in
/// strip order. A strip outside the disc, or clipped to nothing, writes
/// `+0.0`, and so does every strip when the clipped extent is empty. The
/// sum starts at `+0.0` and every term is `≥ +0.0`, so it never becomes
/// `−0.0` and each `+0.0` term leaves its bits unchanged: the area is
/// bit-identical to a loop that skips those strips. The loop has no
/// branches, so it vectorizes. The midpoint rule's worst relative error
/// against the exact area is 2.0e-4 as measured (see
/// [`DisplayGeometry::fovea_area_fraction`]).
fn strip_widths(r: f64, cx: f64, cy: f64, w: f64, h: f64, widths: &mut [f64; STRIPS]) {
    let (x_lo, x_hi) = (-w / 2.0, w / 2.0);
    let (y_lo, y_hi) = (-h / 2.0, h / 2.0);
    let left = (cx - r).max(x_lo);
    let right = (cx + r).min(x_hi);
    if left >= right {
        widths.fill(0.0);
        return;
    }
    let dx = (right - left) / STRIPS as f64;
    let r_sq = r * r;
    for (i, width) in widths.iter_mut().enumerate() {
        let x = left + (i as f64 + 0.5) * dx;
        let half_chord_sq = r_sq - (x - cx) * (x - cx);
        // NaN when the strip is outside the disc; the select below drops it.
        let half_chord = half_chord_sq.sqrt();
        let top = (cy + half_chord).min(y_hi);
        let bottom = (cy - half_chord).max(y_lo);
        *width = if half_chord_sq <= 0.0 || top <= bottom {
            0.0
        } else {
            (top - bottom) * dx
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const EPS: f64 = 1e-6;

    /// The two shipped panels plus a non-square one with unequal fields of
    /// view.
    fn panels() -> [DisplayGeometry; 3] {
        [
            DisplayGeometry::vive_pro_class(),
            DisplayGeometry::low_res_class(),
            DisplayGeometry::per_eye(2560, 1440, 100.0, 62.0),
        ]
    }

    /// The strip loop as it stood before the branch-free kernel: it skips
    /// strips outside the disc or clipped to nothing instead of writing
    /// `+0.0`, and sums as it goes. Both kernels must match it bit for bit.
    fn branchy_clipped_circle_area(r: f64, cx: f64, cy: f64, w: f64, h: f64) -> f64 {
        let (x_lo, x_hi) = (-w / 2.0, w / 2.0);
        let (y_lo, y_hi) = (-h / 2.0, h / 2.0);
        let left = (cx - r).max(x_lo);
        let right = (cx + r).min(x_hi);
        if left >= right {
            return 0.0;
        }
        let dx = (right - left) / STRIPS as f64;
        let mut area = 0.0;
        for i in 0..STRIPS {
            let x = left + (i as f64 + 0.5) * dx;
            let half_chord_sq = r * r - (x - cx) * (x - cx);
            if half_chord_sq <= 0.0 {
                continue;
            }
            let half_chord = half_chord_sq.sqrt();
            let top = (cy + half_chord).min(y_hi);
            let bottom = (cy - half_chord).max(y_lo);
            if top > bottom {
                area += (top - bottom) * dx;
            }
        }
        area
    }

    /// `fovea_area_fraction` over the branchy oracle.
    fn branchy_fraction(d: &DisplayGeometry, e_deg: f64, gaze: GazePoint) -> f64 {
        if e_deg <= 0.0 {
            return 0.0;
        }
        let (w, h, gx, gy) = d.panel_about(gaze);
        (branchy_clipped_circle_area(e_deg, gx, gy, w, h) / (w * h)).clamp(0.0, 1.0)
    }

    /// Exact area of the disc of radius `r` centred at `(cx, cy)` clipped to
    /// `[-w/2, w/2] x [-h/2, h/2]`, by inclusion–exclusion over four signed
    /// quadrant areas.
    fn exact_clipped_circle_area(r: f64, cx: f64, cy: f64, w: f64, h: f64) -> f64 {
        let r_sq = r * r;
        // ∫₀ᵗ √(r² − s²) ds.
        let p = |t: f64| 0.5 * (t * (r_sq - t * t).max(0.0).sqrt() + r_sq * (t / r).asin());
        // Area of the disc (centred at the origin) ∩ [0, x] × [0, y], odd in
        // each argument.
        let quadrant = |x: f64, y: f64| {
            let (qx, qy) = (x.abs().min(r), y.abs().min(r));
            let area = if qx * qx + qy * qy <= r_sq {
                qx * qy
            } else {
                let xc = (r_sq - qy * qy).sqrt();
                xc * qy + p(qx) - p(xc)
            };
            x.signum() * y.signum() * area
        };
        let (x0, x1) = (-w / 2.0 - cx, w / 2.0 - cx);
        let (y0, y1) = (-h / 2.0 - cy, h / 2.0 - cy);
        quadrant(x1, y1) - quadrant(x0, y1) - quadrant(x1, y0) + quadrant(x0, y0)
    }

    #[test]
    fn exact_area_matches_hand_cases() {
        let pi = std::f64::consts::PI;
        // Whole disc inside, quarter disc at a corner, half disc on an edge,
        // and a disc covering the whole panel.
        let cases = [
            (10.0, 0.0, 0.0, 100.0, 100.0, pi * 100.0),
            (10.0, 50.0, 50.0, 100.0, 100.0, pi * 25.0),
            (10.0, 50.0, 0.0, 100.0, 100.0, pi * 50.0),
            (200.0, 3.0, -7.0, 100.0, 60.0, 6000.0),
        ];
        for (r, cx, cy, w, h, want) in cases {
            let got = exact_clipped_circle_area(r, cx, cy, w, h);
            assert!(
                (got - want).abs() < 1e-9 * want,
                "r={r} c=({cx},{cy}): {got} vs {want}"
            );
        }
    }

    #[test]
    fn strip_area_is_within_5e_4_of_the_exact_area() {
        let mut worst: f64 = 0.0;
        for d in panels() {
            let (w, h) = (d.fov_h().0, d.fov_v().0);
            for gi in -4..=4 {
                for gj in -4..=4 {
                    let gaze = GazePoint::clamped(f64::from(gi) / 4.0, f64::from(gj) / 4.0);
                    let (_, _, gx, gy) = d.panel_about(gaze);
                    // Radii from 0.02° to 200°, dense where discs are small.
                    for k in 1..=100 {
                        let r = 200.0 * (f64::from(k) / 100.0).powi(2);
                        let exact = exact_clipped_circle_area(r, gx, gy, w, h) / (w * h);
                        let strip = d.fovea_area_fraction(r, gaze);
                        worst = worst.max((strip - exact).abs() / exact);
                    }
                }
            }
        }
        assert!(worst <= 5e-4, "worst relative gap {worst:.3e}");
    }

    #[test]
    fn kernels_match_the_branchy_loop_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x0571_21b5);
        let mut out = [0.0; 9];
        for d in panels() {
            for _ in 0..400 {
                let gaze = GazePoint {
                    x: rng.gen_range(-1.2..1.2),
                    y: rng.gen_range(-1.2..1.2),
                };
                let len = rng.gen_range(0..10usize);
                let mut radii = [0.0; 9];
                for r in &mut radii[..len] {
                    *r = match rng.gen_range(0..10u32) {
                        0 => 0.0,
                        1 => d.saturation_radius_deg(gaze),
                        // Discs a few ulps of the gaze offset wide: rounded
                        // strip midpoints fall outside them.
                        2 => rng.gen_range(1e-14..1e-11),
                        _ => rng.gen_range(-10.0..210.0),
                    };
                }
                d.fovea_area_fractions(&radii[..len], gaze, &mut out[..len]);
                for (&r, &batch) in radii[..len].iter().zip(&out[..len]) {
                    let single = d.fovea_area_fraction(r, gaze);
                    let oracle = branchy_fraction(&d, r, gaze);
                    assert_eq!(single.to_bits(), oracle.to_bits(), "single, r={r} {gaze:?}");
                    assert_eq!(batch.to_bits(), oracle.to_bits(), "batch, r={r} {gaze:?}");
                }
            }
        }
    }

    #[test]
    fn ppd_matches_hand_computation() {
        let d = DisplayGeometry::vive_pro_class();
        assert!((d.ppd_h() - 1920.0 / 110.0).abs() < EPS);
        assert!((d.ppd_v() - 2160.0 / 110.0).abs() < EPS);
    }

    #[test]
    fn native_mar_is_geometric_mean() {
        let d = DisplayGeometry::vive_pro_class();
        let expected = ((110.0 / 1920.0) * (110.0_f64 / 2160.0)).sqrt();
        assert!((d.native_mar() - expected).abs() < EPS);
    }

    #[test]
    fn zero_dimension_rejected() {
        assert!(matches!(
            DisplayGeometry::try_per_eye(0, 100, 110.0, 110.0),
            Err(HvsError::InvalidDisplay { .. })
        ));
        assert!(matches!(
            DisplayGeometry::try_per_eye(100, 100, -1.0, 110.0),
            Err(HvsError::InvalidDisplay { .. })
        ));
        assert!(matches!(
            DisplayGeometry::try_per_eye(100, 100, 110.0, f64::NAN),
            Err(HvsError::InvalidDisplay { .. })
        ));
    }

    #[test]
    fn centred_small_fovea_area_is_circular() {
        let d = DisplayGeometry::vive_pro_class();
        // A 10-degree disc fits fully on a 110x110 panel, so the fraction is
        // pi * r^2 / (w * h).
        let frac = d.fovea_area_fraction(10.0, GazePoint::center());
        let expected = std::f64::consts::PI * 100.0 / (110.0 * 110.0);
        assert!((frac - expected).abs() < 1e-3, "{frac} vs {expected}");
    }

    #[test]
    fn huge_fovea_covers_whole_panel() {
        let d = DisplayGeometry::vive_pro_class();
        let frac = d.fovea_area_fraction(200.0, GazePoint::center());
        assert!((frac - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fovea_area_monotonic_in_radius() {
        let d = DisplayGeometry::vive_pro_class();
        let mut last = 0.0;
        for e in 1..90 {
            let frac = d.fovea_area_fraction(f64::from(e), GazePoint::center());
            assert!(frac >= last, "area fraction must not decrease");
            last = frac;
        }
    }

    #[test]
    fn off_centre_gaze_reduces_visible_disc() {
        let d = DisplayGeometry::vive_pro_class();
        let centred = d.fovea_area_fraction(30.0, GazePoint::center());
        let cornered = d.fovea_area_fraction(30.0, GazePoint::clamped(0.9, 0.9));
        assert!(cornered < centred);
        assert!(cornered > 0.0);
    }

    #[test]
    fn eccentricity_of_gaze_point_is_zero() {
        let d = DisplayGeometry::vive_pro_class();
        let g = GazePoint::clamped(0.3, -0.2);
        assert!(d.eccentricity_of(0.3, -0.2, g).0.abs() < EPS);
    }

    #[test]
    fn eccentricity_of_corner_matches_max() {
        let d = DisplayGeometry::vive_pro_class();
        let e = d.eccentricity_of(1.0, 1.0, GazePoint::center());
        assert!((e.0 - d.max_eccentricity().0).abs() < EPS);
    }

    #[test]
    fn gaze_clamping() {
        let g = GazePoint::clamped(3.0, -7.0);
        assert_eq!(g, GazePoint { x: 1.0, y: -1.0 });
    }

    #[test]
    fn gaze_distance_symmetric() {
        let a = GazePoint::clamped(0.1, 0.2);
        let b = GazePoint::clamped(-0.4, 0.9);
        assert!((a.distance(&b) - b.distance(&a)).abs() < EPS);
    }

    #[test]
    fn display_formats_human_readably() {
        let d = DisplayGeometry::vive_pro_class();
        let s = d.to_string();
        assert!(s.contains("1920x2160"));
        assert!(s.contains("110"));
    }
}
