//! Radial scene-complexity fields.
//!
//! How much of a scene's geometry lands inside a fovea disc of radius `e1`
//! determines the local rendering cost in Q-VR (Eq. 2's `#triangles ×
//! %fovea`). Game scenes are not uniform: detail concentrates where users
//! look (interactive objects, focal architecture). We model triangle
//! density as a radial profile around the gaze point,
//!
//! ```text
//! density(e) = 1 + k · exp(−e² / 2σ²)
//! ```
//!
//! with `k` the *center concentration* and `σ` its angular extent. The
//! fraction of frame triangles within eccentricity `e1` is the ring-
//! integrated density, where ring weights come from the display's clipped
//! disc geometry (so off-screen parts of the disc never count).

use qvr_hvs::{DisplayGeometry, GazePoint};
use std::fmt;

/// A radial triangle-density field around the gaze point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComplexityField {
    concentration: f64,
    sigma_deg: f64,
}

impl ComplexityField {
    /// Integration step in degrees.
    const STEP: f64 = 0.5;

    /// Creates a field with center concentration `k ≥ 0` and angular extent
    /// `σ > 0` degrees.
    ///
    /// # Panics
    ///
    /// Panics if `concentration` is negative or `sigma_deg` is not positive.
    #[must_use]
    pub fn new(concentration: f64, sigma_deg: f64) -> Self {
        assert!(concentration >= 0.0, "concentration must be non-negative");
        assert!(sigma_deg > 0.0, "sigma must be positive");
        ComplexityField {
            concentration,
            sigma_deg,
        }
    }

    /// A uniform field: triangles spread evenly over the view.
    #[must_use]
    pub fn uniform() -> Self {
        ComplexityField {
            concentration: 0.0,
            sigma_deg: 30.0,
        }
    }

    /// Relative triangle density at eccentricity `e` degrees from gaze.
    #[must_use]
    pub fn density(&self, e_deg: f64) -> f64 {
        1.0 + self.concentration * (-0.5 * (e_deg / self.sigma_deg).powi(2)).exp()
    }

    /// Fraction of the frame's triangles inside the eccentricity disc of
    /// radius `e1` centred at `gaze`, in `[0, 1]`, or NaN when `e1` or a
    /// gaze coordinate is NaN.
    ///
    /// Ring weights are the derivative of the clipped disc area, so gaze
    /// points near the panel edge integrate correctly.
    #[must_use]
    pub fn triangle_fraction(
        &self,
        e1_deg: f64,
        display: &DisplayGeometry,
        gaze: GazePoint,
    ) -> f64 {
        if any_nan(e1_deg, gaze) {
            return f64::NAN;
        }
        if e1_deg <= 0.0 {
            return 0.0;
        }
        let e_max = display.max_eccentricity().0 * 1.5;
        let num = self.integrate(e1_deg.min(e_max), display, gaze);
        let den = self.integrate(e_max, display, gaze);
        Self::fraction_of(num, den)
    }

    /// `triangle_fraction` through a per-gaze ring table (see
    /// [`TriangleFractionCache`]): [`ComplexityField::record_rings`] for
    /// `gaze` when `e1` is positive, then
    /// [`ComplexityField::triangle_fraction_recorded`]. Results are
    /// bit-identical to [`ComplexityField::triangle_fraction`].
    #[must_use]
    pub fn triangle_fraction_cached(
        &self,
        e1_deg: f64,
        display: &DisplayGeometry,
        gaze: GazePoint,
        cache: &mut TriangleFractionCache,
    ) -> f64 {
        if e1_deg > 0.0 {
            self.record_rings(display, gaze, cache);
        }
        self.triangle_fraction_recorded(e1_deg, display, gaze, cache)
    }

    /// `triangle_fraction` read from a ring table that holds `gaze` (see
    /// [`ComplexityField::record_rings`]), through a shared borrow. Every
    /// numerator at a recorded gaze is a prefix of the recorded pass: it
    /// reads the record at its last full ring and integrates at most one
    /// partial ring, with one area call (none when `e1` is on the 0.5°
    /// grid, as every integer `e1` is). Results are bit-identical to
    /// [`ComplexityField::triangle_fraction`]: the same terms are added in
    /// the same order. A table that does not hold `gaze` is not read; the
    /// call then runs the uncached integral.
    #[must_use]
    pub fn triangle_fraction_recorded(
        &self,
        e1_deg: f64,
        display: &DisplayGeometry,
        gaze: GazePoint,
        rings: &TriangleFractionCache,
    ) -> f64 {
        if !rings.holds(gaze) {
            return self.triangle_fraction(e1_deg, display, gaze);
        }
        if e1_deg.is_nan() {
            return f64::NAN;
        }
        if e1_deg <= 0.0 {
            return 0.0;
        }
        let e_max = display.max_eccentricity().0 * 1.5;
        let num = self.integrate_from(rings, e1_deg.min(e_max), display, gaze);
        Self::fraction_of(num, rings.den)
    }

    /// Records `gaze`'s ring table in `cache`, unless it already holds it
    /// or a gaze coordinate is NaN: the gaze-wide denominator pass
    /// `integrate(e_max)`, with its disc areas computed in one
    /// [`DisplayGeometry::fovea_area_fractions`] batch and the running sum
    /// recorded after each full ring.
    pub fn record_rings(
        &self,
        display: &DisplayGeometry,
        gaze: GazePoint,
        cache: &mut TriangleFractionCache,
    ) {
        if cache.holds(gaze) || gaze.x.is_nan() || gaze.y.is_nan() {
            return;
        }
        let e_max = display.max_eccentricity().0 * 1.5;
        let TriangleFractionCache {
            radii,
            areas,
            sums,
            den,
            ..
        } = cache;
        // A pass visits at most `bound` grid radii, plus one partial radius:
        // the first pass sizes the table, and it never grows after that.
        let bound = ((e_max + 1e-9) / Self::STEP).floor() as usize;
        radii.clear();
        radii.reserve_exact(bound + 1);
        areas.clear();
        areas.reserve_exact(bound + 1);
        sums.clear();
        sums.reserve_exact(bound);
        // The grid radii `integrate` visits, up to its saturation stop.
        let r_sat = display.saturation_radius_deg(gaze) + 1.0;
        let mut e = Self::STEP;
        let mut saturated = false;
        while e <= e_max + 1e-9 {
            if e - Self::STEP >= r_sat {
                saturated = true;
                break;
            }
            radii.push(e);
            e += Self::STEP;
        }
        let full = radii.len();
        let rem = e_max - (e - Self::STEP);
        if !saturated && rem > 1e-9 {
            radii.push(e_max);
        }
        areas.resize(radii.len(), 0.0);
        display.fovea_area_fractions(radii, gaze, areas);

        let mut sum = 0.0;
        let mut prev_area = 0.0;
        for (&e, &area) in radii[..full].iter().zip(&areas[..full]) {
            let ring = (area - prev_area).max(0.0);
            sum += ring * self.density(e - Self::STEP / 2.0);
            prev_area = area;
            sums.push(sum);
        }
        if let Some(&area) = areas.get(full) {
            let ring = (area - prev_area).max(0.0);
            sum += ring * self.density(e_max - rem / 2.0);
        }
        *den = sum;
        cache.gaze = Some(gaze_key(gaze));
    }

    /// `integrate(upto_deg)` from a recorded denominator pass at the same
    /// gaze with `upto_deg ≤ e_max`: the pass's first rings are exactly this
    /// integral's full rings.
    fn integrate_from(
        &self,
        table: &TriangleFractionCache,
        upto_deg: f64,
        display: &DisplayGeometry,
        gaze: GazePoint,
    ) -> f64 {
        let grid = &table.radii[..table.sums.len()];
        let full = grid.partition_point(|&e| e <= upto_deg + 1e-9);
        let (sum, prev_area) = full
            .checked_sub(1)
            .map_or((0.0, 0.0), |last| (table.sums[last], table.areas[last]));
        // `integrate`'s loop variable after `full` rings.
        let e = (full + 1) as f64 * Self::STEP;
        if e <= upto_deg + 1e-9 {
            // Only the saturation stop ends a pass before `upto_deg`'s last
            // grid radius; `integrate` returns without a partial ring.
            return sum;
        }
        let rem = upto_deg - (e - Self::STEP);
        if rem > 1e-9 {
            let area = display.fovea_area_fraction(upto_deg, gaze);
            let ring = (area - prev_area).max(0.0);
            sum + ring * self.density(upto_deg - rem / 2.0)
        } else {
            sum
        }
    }

    fn fraction_of(num: f64, den: f64) -> f64 {
        if den <= 0.0 {
            0.0
        } else {
            (num / den).clamp(0.0, 1.0)
        }
    }

    fn integrate(&self, upto_deg: f64, display: &DisplayGeometry, gaze: GazePoint) -> f64 {
        // Once a grid radius certainly covers the whole clipped panel, every
        // later ring is the difference of two bit-identical saturated areas
        // — exactly 0.0 — so the loop can stop. `saturation_radius` is
        // conservative by a full degree: rings near the boundary still run
        // the real integration.
        let r_sat = display.saturation_radius_deg(gaze) + 1.0;
        let mut sum = 0.0;
        let mut prev_area = 0.0;
        let mut e = Self::STEP;
        while e <= upto_deg + 1e-9 {
            if e - Self::STEP >= r_sat {
                // Previous grid radius was already saturated; this ring and
                // every remaining one (including the partial last ring)
                // would add exactly 0.0.
                return sum;
            }
            let area = display.fovea_area_fraction(e, gaze);
            let ring = (area - prev_area).max(0.0);
            sum += ring * self.density(e - Self::STEP / 2.0);
            prev_area = area;
            e += Self::STEP;
        }
        // Partial last ring.
        let rem = upto_deg - (e - Self::STEP);
        if rem > 1e-9 {
            let area = display.fovea_area_fraction(upto_deg, gaze);
            let ring = (area - prev_area).max(0.0);
            sum += ring * self.density(upto_deg - rem / 2.0);
        }
        sum
    }
}

/// Whether `e1` or either gaze coordinate is NaN. The integral's `min`
/// and `max` drop a NaN operand, so without this check such a call would
/// read as the whole panel.
fn any_nan(e1_deg: f64, gaze: GazePoint) -> bool {
    e1_deg.is_nan() || gaze.x.is_nan() || gaze.y.is_nan()
}

/// A gaze point's raw bits: the key of a [`TriangleFractionCache`].
fn gaze_key(gaze: GazePoint) -> (u64, u64) {
    (gaze.x.to_bits(), gaze.y.to_bits())
}

/// Per-gaze ring table for [`ComplexityField::triangle_fraction_cached`].
///
/// Keyed by the gaze point's raw bits: a new gaze reruns the denominator
/// pass and overwrites the table. The table is that pass's record: the
/// running `(sum, area)` after each full ring, and the denominator. Its
/// buffers are sized once, at the first call, from the display's ring
/// bound, so later gazes allocate nothing. One cache belongs to ONE (field,
/// display) pair — steppers own one per session; sharing across profiles
/// would mix incompatible integrals. Its disc areas depend on the display
/// and the gaze only, so [`TriangleFractionCache::fovea_area_fraction`]
/// serves them to any caller on that display.
#[derive(Debug, Clone, Default)]
pub struct TriangleFractionCache {
    gaze: Option<(u64, u64)>,
    /// The pass's grid radii, then its partial radius if it has one.
    radii: Vec<f64>,
    /// The clipped disc area at each of `radii`.
    areas: Vec<f64>,
    /// The running sum after each full ring, one per grid radius.
    sums: Vec<f64>,
    den: f64,
}

impl TriangleFractionCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the table is `gaze`'s.
    fn holds(&self, gaze: GazePoint) -> bool {
        self.gaze == Some(gaze_key(gaze))
    }

    /// `display.fovea_area_fraction(e_deg, gaze)`, read from the table
    /// when it holds `gaze` and `e_deg` is one of its radii (every grid
    /// radius up to the pass's stop, integer `e1` among them). A recorded
    /// area comes from the batched pass, which is bit-identical to the
    /// single call. `display` must be the table's display.
    #[must_use]
    pub fn fovea_area_fraction(
        &self,
        display: &DisplayGeometry,
        e_deg: f64,
        gaze: GazePoint,
    ) -> f64 {
        // The radii ascend, so a NaN or out-of-table radius finds no match.
        let i = self.radii.partition_point(|&r| r < e_deg);
        match self.radii.get(i) {
            Some(&r) if r == e_deg && self.holds(gaze) => self.areas[i],
            _ => display.fovea_area_fraction(e_deg, gaze),
        }
    }
}

impl Default for ComplexityField {
    fn default() -> Self {
        ComplexityField::new(3.0, 20.0)
    }
}

impl fmt::Display for ComplexityField {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "density(e) = 1 + {:.1}·exp(-e²/2·{:.0}²)",
            self.concentration, self.sigma_deg
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn display() -> DisplayGeometry {
        DisplayGeometry::vive_pro_class()
    }

    /// The uniform field, the default one and a concentrated one.
    fn fields() -> [ComplexityField; 3] {
        [
            ComplexityField::uniform(),
            ComplexityField::default(),
            ComplexityField::new(8.0, 10.0),
        ]
    }

    /// Both shipped displays.
    fn displays() -> [DisplayGeometry; 2] {
        [
            DisplayGeometry::vive_pro_class(),
            DisplayGeometry::low_res_class(),
        ]
    }

    /// Gazes at the centre, the corners, an edge, on the diagonal and at a
    /// random point. The saturation stop ends the denominator pass early at
    /// the centre and a few rings before `e_max` at (0.45, 0.45); from a
    /// corner or an edge the pass runs to `e_max` and ends on a partial
    /// ring.
    fn gazes(rng: &mut StdRng) -> [GazePoint; 7] {
        [
            GazePoint::center(),
            GazePoint::clamped(0.45, 0.45),
            GazePoint::clamped(1.0, 1.0),
            GazePoint::clamped(-1.0, 1.0),
            GazePoint::clamped(-0.93, -1.0),
            GazePoint::clamped(0.0, -1.0),
            GazePoint::clamped(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)),
        ]
    }

    /// An `e1` on the 0.5° grid, just inside or outside `integrate`'s 1e-9
    /// grid tolerance, off the grid, at or past `e_max`, or non-positive.
    fn e1(rng: &mut StdRng, e_max: f64) -> f64 {
        let grid = f64::from(rng.gen_range(1..240u32)) * 0.5;
        match rng.gen_range(0..8u32) {
            0 | 1 => grid,
            2 => grid + rng.gen_range(-2e-9..2e-9),
            3 | 4 => rng.gen_range(0.0..e_max),
            5 => e_max + rng.gen_range(-1e-9..1e-9),
            6 => rng.gen_range(e_max..1e3),
            _ => -rng.gen_range(0.0..3.0),
        }
    }

    #[test]
    fn cached_fraction_equals_the_uncached_one_bit_for_bit() {
        // Each uncached call runs two full integrals; the debug build checks
        // fewer calls.
        let calls = if cfg!(debug_assertions) { 24 } else { 400 };
        let mut rng = StdRng::seed_from_u64(0x00ca_c4ed);
        for field in fields() {
            for d in displays() {
                let e_max = d.max_eccentricity().0 * 1.5;
                let gazes = gazes(&mut rng);
                // One cache, driven in a random order that moves between
                // gazes and back.
                let mut cache = TriangleFractionCache::new();
                for _ in 0..calls {
                    let gaze = gazes[rng.gen_range(0..gazes.len())];
                    let e1 = e1(&mut rng, e_max);
                    // A NaN e1 or gaze coordinate reads as NaN on both
                    // paths, and leaves the cache as it was.
                    let (e1, gaze) = match rng.gen_range(0..16u32) {
                        0 => (f64::NAN, gaze),
                        1 => (
                            e1,
                            GazePoint {
                                x: f64::NAN,
                                ..gaze
                            },
                        ),
                        2 => (
                            e1,
                            GazePoint {
                                y: f64::NAN,
                                ..gaze
                            },
                        ),
                        _ => (e1, gaze),
                    };
                    let cached = field.triangle_fraction_cached(e1, &d, gaze, &mut cache);
                    let uncached = field.triangle_fraction(e1, &d, gaze);
                    assert_eq!(
                        cached.to_bits(),
                        uncached.to_bits(),
                        "{field} on {d}, e1={e1} at {gaze:?}: {cached} vs {uncached}"
                    );
                    let nan_in = e1.is_nan() || gaze.x.is_nan() || gaze.y.is_nan();
                    assert_eq!(cached.is_nan(), nan_in, "e1={e1} at {gaze:?}");
                }
            }
        }
    }

    #[test]
    fn ring_table_areas_equal_the_single_disc_bit_for_bit() {
        // Grid, off-grid, past-saturation and past-`e_max` radii from
        // `e1`, plus non-positive, NaN and infinite ones; each read from
        // the gaze's own table, from another gaze's and from an empty
        // one. Only the first serves recorded areas; the others integrate
        // the disc.
        let mut rng = StdRng::seed_from_u64(0x000a_4ea5);
        let field = ComplexityField::default();
        let special = [0.0, -0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let empty = TriangleFractionCache::new();
        for d in displays() {
            let e_max = d.max_eccentricity().0 * 1.5;
            let gazes = gazes(&mut rng);
            let tables = gazes.map(|gaze| {
                let mut rings = TriangleFractionCache::new();
                field.record_rings(&d, gaze, &mut rings);
                rings
            });
            let mut served = 0;
            for (k, &gaze) in gazes.iter().enumerate() {
                let r_sat = d.saturation_radius_deg(gaze) + 1.0;
                let radii = (0..200)
                    .map(|_| e1(&mut rng, e_max))
                    .chain((1..=4).map(|i| r_sat.ceil() + f64::from(i)))
                    .chain(special);
                for e in radii {
                    let single = d.fovea_area_fraction(e, gaze);
                    let own = &tables[k];
                    let other = &tables[(k + 1) % tables.len()];
                    for rings in [own, other, &empty] {
                        let read = rings.fovea_area_fraction(&d, e, gaze);
                        assert_eq!(
                            read.to_bits(),
                            single.to_bits(),
                            "{d} at {gaze:?}, radius {e}: {read} vs {single}"
                        );
                    }
                    served += usize::from(tables[k].radii.contains(&e));
                }
            }
            // Many radii were recorded ones, so the table path ran.
            assert!(served > 100, "{d}: {served} radii served from a table");
        }
    }

    #[test]
    fn ring_table_stops_where_integrate_stops() {
        // Rings past the saturation stop add exactly 0.0, so recording them
        // would change no result, only the work: pin the stop itself. The
        // table ends at the first grid radius at or past `r_sat`, or at the
        // last one within `e_max`.
        let mut rng = StdRng::seed_from_u64(0x570b);
        let field = ComplexityField::default();
        for d in displays() {
            let e_max = d.max_eccentricity().0 * 1.5;
            let mut cache = TriangleFractionCache::new();
            for gaze in gazes(&mut rng) {
                let _ = field.triangle_fraction_cached(1.0, &d, gaze, &mut cache);
                let r_sat = d.saturation_radius_deg(gaze) + 1.0;
                let rings = cache.sums.len();
                let last = cache.radii[rings - 1];
                assert_eq!(last, rings as f64 * ComplexityField::STEP);
                assert!(last <= e_max + 1e-9);
                // No stop fired at the last recorded radius, and one fires at
                // the next.
                assert!(last - ComplexityField::STEP < r_sat, "{d} at {gaze:?}");
                let ran_out = last + ComplexityField::STEP > e_max + 1e-9;
                assert!(ran_out || last >= r_sat, "{d} at {gaze:?}: {rings} rings");
                assert_eq!(cache.radii.len() > rings, ran_out && e_max - last > 1e-9);
            }
        }
    }

    #[test]
    fn larger_e1_never_lowers_the_fraction() {
        let mut rng = StdRng::seed_from_u64(0x3e7a);
        for field in fields() {
            for d in displays() {
                let e_max = d.max_eccentricity().0 * 1.5;
                let mut cache = TriangleFractionCache::new();
                for _ in 0..20 {
                    let gaze =
                        GazePoint::clamped(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
                    let mut e1s: Vec<f64> = (0..64).map(|_| e1(&mut rng, e_max)).collect();
                    e1s.sort_by(f64::total_cmp);
                    let mut last = 0.0;
                    for e1 in e1s {
                        let frac = field.triangle_fraction_cached(e1, &d, gaze, &mut cache);
                        assert!(
                            frac >= last,
                            "{field} on {d} at {gaze:?}: e1={e1} gives {frac} < {last}"
                        );
                        last = frac;
                    }
                }
            }
        }
    }

    #[test]
    fn density_peaks_at_center() {
        let f = ComplexityField::new(4.0, 15.0);
        assert!(f.density(0.0) > f.density(10.0));
        assert!(f.density(10.0) > f.density(40.0));
        assert!((f.density(0.0) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_density_is_flat() {
        let f = ComplexityField::uniform();
        assert_eq!(f.density(0.0), f.density(50.0));
    }

    #[test]
    fn fraction_monotone_in_radius() {
        let f = ComplexityField::default();
        let d = display();
        let g = GazePoint::center();
        let mut last = 0.0;
        for e in 1..=90 {
            let frac = f.triangle_fraction(f64::from(e), &d, g);
            assert!(frac + 1e-9 >= last, "fraction must grow with e1");
            assert!((0.0..=1.0).contains(&frac));
            last = frac;
        }
    }

    #[test]
    fn full_disc_captures_everything() {
        let f = ComplexityField::default();
        let frac = f.triangle_fraction(120.0, &display(), GazePoint::center());
        assert!(
            frac > 0.999,
            "whole view must contain all triangles, got {frac}"
        );
    }

    #[test]
    fn zero_radius_captures_nothing() {
        let f = ComplexityField::default();
        assert_eq!(
            f.triangle_fraction(0.0, &display(), GazePoint::center()),
            0.0
        );
    }

    #[test]
    fn concentrated_field_front_loads_triangles() {
        let d = display();
        let g = GazePoint::center();
        let uniform = ComplexityField::uniform();
        let concentrated = ComplexityField::new(8.0, 10.0);
        let e1 = 15.0;
        let fu = uniform.triangle_fraction(e1, &d, g);
        let fc = concentrated.triangle_fraction(e1, &d, g);
        assert!(
            fc > 1.5 * fu,
            "concentration must front-load triangles: uniform {fu}, concentrated {fc}"
        );
    }

    #[test]
    fn uniform_fraction_tracks_area() {
        let d = display();
        let g = GazePoint::center();
        let f = ComplexityField::uniform();
        for e1 in [10.0, 25.0, 45.0] {
            let frac = f.triangle_fraction(e1, &d, g);
            // With a flat density, triangle share equals (visible) area
            // share of the whole extended view; compare against the ratio of
            // clipped disc areas.
            let area_ratio = d.fovea_area_fraction(e1, g)
                / d.fovea_area_fraction(d.max_eccentricity().0 * 1.5, g);
            assert!(
                (frac - area_ratio).abs() < 0.02,
                "e1={e1}: {frac} vs {area_ratio}"
            );
        }
    }

    #[test]
    fn off_center_gaze_still_integrates() {
        let f = ComplexityField::default();
        let frac = f.triangle_fraction(20.0, &display(), GazePoint::clamped(0.8, -0.7));
        assert!(frac > 0.0 && frac < 1.0);
    }

    #[test]
    #[should_panic(expected = "sigma")]
    fn zero_sigma_rejected() {
        let _ = ComplexityField::new(1.0, 0.0);
    }

    #[test]
    fn display_format() {
        let s = ComplexityField::default().to_string();
        assert!(s.contains("density"));
    }
}
