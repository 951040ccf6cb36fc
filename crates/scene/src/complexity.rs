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

    /// Creates a field with finite center concentration `k ≥ 0` and
    /// angular extent `σ > 0` degrees. An infinite `σ` is the uniform
    /// limit, density `1 + k` everywhere.
    ///
    /// # Panics
    ///
    /// Panics if `concentration` is negative or not finite (an infinite
    /// one would read every triangle fraction as ∞/∞), or if `sigma_deg`
    /// is not positive.
    #[must_use]
    pub fn new(concentration: f64, sigma_deg: f64) -> Self {
        assert!(
            (0.0..f64::INFINITY).contains(&concentration),
            "concentration must be non-negative and finite"
        );
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

    /// `triangle_fraction` read from a ring table that holds this field,
    /// `display`'s field of view and `gaze` (see
    /// [`ComplexityField::record_rings`]), through a shared borrow. Every
    /// numerator at a recorded gaze is a prefix of the recorded pass: it
    /// reads the record at its last full ring and integrates at most one
    /// partial ring, with one area call (none when `e1` is on the 0.5°
    /// grid, as every integer `e1` is). Results are bit-identical to
    /// [`ComplexityField::triangle_fraction`]: the same terms are added in
    /// the same order. A table recorded from other inputs is not read; the
    /// call then runs the uncached integral.
    #[must_use]
    pub fn triangle_fraction_recorded(
        &self,
        e1_deg: f64,
        display: &DisplayGeometry,
        gaze: GazePoint,
        rings: &TriangleFractionCache,
    ) -> f64 {
        if !rings.holds(self, display, gaze) {
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

    /// Records the ring table of this field, `display`'s field of view and
    /// `gaze` in `cache`, unless it already holds it or a gaze coordinate
    /// is NaN: the gaze-wide denominator pass `integrate(e_max)`, with its
    /// disc areas computed in one
    /// [`DisplayGeometry::fovea_area_fractions`] batch (kept when the
    /// table already holds them) and the running sum recorded after each
    /// full ring.
    pub fn record_rings(
        &self,
        display: &DisplayGeometry,
        gaze: GazePoint,
        cache: &mut TriangleFractionCache,
    ) {
        self.record_rings_from(display, gaze, cache, None);
    }

    /// [`ComplexityField::record_rings`], with the disc areas taken from
    /// `slot` when it holds them. A table whose areas must be computed
    /// leaves them in `slot` for the next recording at the same field of
    /// view and gaze, whatever its field. The result is bit-identical to
    /// the plain recording's: the areas are a function of the field of view
    /// and the gaze alone.
    pub fn record_rings_through(
        &self,
        display: &DisplayGeometry,
        gaze: GazePoint,
        cache: &mut TriangleFractionCache,
        slot: &mut RingAreas,
    ) {
        self.record_rings_from(display, gaze, cache, Some(slot));
    }

    /// The one recording both entry points run: an area pass (or a copy)
    /// when the table lacks the gaze's areas, then the sum pass.
    fn record_rings_from(
        &self,
        display: &DisplayGeometry,
        gaze: GazePoint,
        cache: &mut TriangleFractionCache,
        slot: Option<&mut RingAreas>,
    ) {
        if cache.holds(self, display, gaze) || gaze.x.is_nan() || gaze.y.is_nan() {
            return;
        }
        if !cache.rings.holds(display, gaze) {
            match slot {
                Some(slot) if slot.holds(display, gaze) => cache.rings.copy_from(slot, display),
                Some(slot) => {
                    cache.rings.record(display, gaze);
                    slot.copy_from(&cache.rings, display);
                }
                None => cache.rings.record(display, gaze),
            }
        }
        self.record_sums(display, cache);
    }

    /// The sum pass over the table's recorded areas: the running sum after
    /// each full ring, then the denominator. Each full ring's density is
    /// the field's weight at that ring, computed once per field.
    fn record_sums(&self, display: &DisplayGeometry, cache: &mut TriangleFractionCache) {
        let TriangleFractionCache {
            rings,
            field,
            weights,
            sums,
            den,
        } = cache;
        let key = self.key();
        if *field != Some(key) {
            weights.clear();
            *field = Some(key);
        }
        let bound = RingAreas::bound(display);
        // The weights of the rings no earlier table reached. The loop's
        // ring radius is an exact multiple of 0.5, so each weight is the
        // density `integrate` computes at that ring.
        weights.reserve_exact(bound.saturating_sub(weights.len()));
        for &e in rings.radii.get(weights.len()..rings.full).unwrap_or(&[]) {
            weights.push(self.density(e - Self::STEP / 2.0));
        }
        sums.clear();
        sums.reserve_exact(bound);
        let mut sum = 0.0;
        let mut prev_area = 0.0;
        for (&area, &weight) in rings.areas[..rings.full].iter().zip(weights.iter()) {
            let ring = (area - prev_area).max(0.0);
            sum += ring * weight;
            prev_area = area;
            sums.push(sum);
        }
        if let Some(&area) = rings.areas.get(rings.full) {
            // The partial ring out to `e_max`, from the last grid radius.
            let e_max = rings.radii[rings.full];
            let rem = e_max - rings.full as f64 * Self::STEP;
            let ring = (area - prev_area).max(0.0);
            sum += ring * self.density(e_max - rem / 2.0);
        }
        *den = sum;
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
        let grid = &table.rings.radii[..table.sums.len()];
        let full = grid.partition_point(|&e| e <= upto_deg + 1e-9);
        let (sum, prev_area) = full.checked_sub(1).map_or((0.0, 0.0), |last| {
            (table.sums[last], table.rings.areas[last])
        });
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

    /// The field's raw bits: the key of a ring table's weights and sums.
    fn key(&self) -> (u64, u64) {
        (self.concentration.to_bits(), self.sigma_deg.to_bits())
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

/// The key of a ring table's disc areas: the raw bits of the display's
/// field of view and of the gaze point. The areas depend on nothing else
/// (not on the panel's pixel counts).
fn area_key(display: &DisplayGeometry, gaze: GazePoint) -> [u64; 4] {
    [
        display.fov_h().0.to_bits(),
        display.fov_v().0.to_bits(),
        gaze.x.to_bits(),
        gaze.y.to_bits(),
    ]
}

/// The disc areas of one ring table: the grid radii a denominator pass
/// visits at one gaze (0.5°, 1.0°, … up to its saturation stop or
/// `e_max`), then its partial radius if it has one, and the clipped disc
/// area at each.
///
/// Keyed by the raw bits of the field of view and the gaze, the only
/// inputs the areas depend on, so one table serves every field and every
/// panel of that field of view. A [`TriangleFractionCache`] holds one; a
/// free-standing one is the slot through which tenants that share a
/// display's field of view pass areas to each other
/// ([`ComplexityField::record_rings_through`]). Its buffers are sized from
/// the display's ring bound when it first takes a table, so later tables
/// of that field of view allocate nothing.
#[derive(Debug, Clone, Default)]
pub struct RingAreas {
    key: Option<[u64; 4]>,
    /// The pass's grid radii, then its partial radius if it has one.
    radii: Vec<f64>,
    /// The clipped disc area at each of `radii`.
    areas: Vec<f64>,
    /// How many of `radii` are grid radii.
    full: usize,
}

impl RingAreas {
    /// Creates an empty slot.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the areas are those of `display`'s field of view at `gaze`.
    fn holds(&self, display: &DisplayGeometry, gaze: GazePoint) -> bool {
        self.key == Some(area_key(display, gaze))
    }

    /// The most grid radii a pass on `display` visits: a pass visits at
    /// most this many, plus one partial radius.
    fn bound(display: &DisplayGeometry) -> usize {
        let e_max = display.max_eccentricity().0 * 1.5;
        ((e_max + 1e-9) / ComplexityField::STEP).floor() as usize
    }

    /// Empties the buffers, sized for any pass on `display`.
    fn reset(&mut self, display: &DisplayGeometry) {
        let bound = Self::bound(display);
        self.key = None;
        self.radii.clear();
        self.radii.reserve_exact(bound + 1);
        self.areas.clear();
        self.areas.reserve_exact(bound + 1);
    }

    /// The area pass: the grid radii `integrate(e_max)` visits at `gaze`,
    /// up to its saturation stop, its partial radius, and all their areas
    /// from one [`DisplayGeometry::fovea_area_fractions`] batch.
    fn record(&mut self, display: &DisplayGeometry, gaze: GazePoint) {
        const STEP: f64 = ComplexityField::STEP;
        self.reset(display);
        let e_max = display.max_eccentricity().0 * 1.5;
        let r_sat = display.saturation_radius_deg(gaze) + 1.0;
        let mut e = STEP;
        let mut saturated = false;
        while e <= e_max + 1e-9 {
            if e - STEP >= r_sat {
                saturated = true;
                break;
            }
            self.radii.push(e);
            e += STEP;
        }
        self.full = self.radii.len();
        let rem = e_max - (e - STEP);
        if !saturated && rem > 1e-9 {
            self.radii.push(e_max);
        }
        self.areas.resize(self.radii.len(), 0.0);
        display.fovea_area_fractions(&self.radii, gaze, &mut self.areas);
        self.key = Some(area_key(display, gaze));
    }

    /// Takes `source`'s table into these buffers, sized for `display`.
    fn copy_from(&mut self, source: &RingAreas, display: &DisplayGeometry) {
        self.reset(display);
        self.radii.extend_from_slice(&source.radii);
        self.areas.extend_from_slice(&source.areas);
        self.full = source.full;
        self.key = source.key;
    }
}

/// Per-gaze ring table for [`ComplexityField::triangle_fraction_cached`].
///
/// The table is one denominator pass's record: its disc areas
/// ([`RingAreas`], keyed by the field of view's and the gaze's raw bits),
/// the running sum after each full ring and the denominator (keyed by the
/// field's raw bits), and the field's density weight at each grid radius,
/// which a new gaze on the same field reuses. A recording from other
/// inputs reruns what they change and overwrites the table; a read from
/// other inputs runs the uncached integral. Its buffers are sized once, at
/// the first call, from the display's ring bound, so later gazes allocate
/// nothing. A foveated stepper owns one for its session's field and
/// display. Its disc areas depend on the field of view and the gaze only,
/// so [`TriangleFractionCache::fovea_area_fraction`] serves them to any
/// caller on a display of that field of view.
#[derive(Debug, Clone, Default)]
pub struct TriangleFractionCache {
    rings: RingAreas,
    /// The raw bits of the field whose weights, sums and denominator these
    /// are.
    field: Option<(u64, u64)>,
    /// The field's density at the middle of each grid ring, from the first.
    weights: Vec<f64>,
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

    /// Whether the table is `field`'s on `display`'s field of view at
    /// `gaze`.
    fn holds(&self, field: &ComplexityField, display: &DisplayGeometry, gaze: GazePoint) -> bool {
        self.field == Some(field.key()) && self.rings.holds(display, gaze)
    }

    /// `display.fovea_area_fraction(e_deg, gaze)`, read from the table
    /// when it holds `display`'s field of view and `gaze` and `e_deg` is
    /// one of its radii (every grid radius up to the pass's stop, integer
    /// `e1` among them). A recorded area comes from the batched pass,
    /// which is bit-identical to the single call.
    #[must_use]
    pub fn fovea_area_fraction(
        &self,
        display: &DisplayGeometry,
        e_deg: f64,
        gaze: GazePoint,
    ) -> f64 {
        let rings = &self.rings;
        // The radii ascend, so a NaN or out-of-table radius finds no match.
        let i = rings.radii.partition_point(|&r| r < e_deg);
        match rings.radii.get(i) {
            Some(&r) if r == e_deg && rings.holds(display, gaze) => rings.areas[i],
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
                    served += usize::from(tables[k].rings.radii.contains(&e));
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
                assert_eq!(rings, cache.rings.full);
                let last = cache.rings.radii[rings - 1];
                assert_eq!(last, rings as f64 * ComplexityField::STEP);
                assert!(last <= e_max + 1e-9);
                // No stop fired at the last recorded radius, and one fires at
                // the next.
                assert!(last - ComplexityField::STEP < r_sat, "{d} at {gaze:?}");
                let ran_out = last + ComplexityField::STEP > e_max + 1e-9;
                assert!(ran_out || last >= r_sat, "{d} at {gaze:?}: {rings} rings");
                assert_eq!(
                    cache.rings.radii.len() > rings,
                    ran_out && e_max - last > 1e-9
                );
            }
        }
    }

    #[test]
    fn one_cache_answers_only_for_the_inputs_it_was_recorded_from() {
        // One cache, driven in a random order over three fields, two
        // fields of view and seven gazes: a read or a recording whose
        // field, field of view or gaze differs from the table's must not
        // see the table's sums or areas.
        let calls = if cfg!(debug_assertions) { 60 } else { 1_500 };
        let mut rng = StdRng::seed_from_u64(0x00f1_e1d5);
        let displays = [
            DisplayGeometry::vive_pro_class(),
            DisplayGeometry::per_eye(2560, 1440, 100.0, 62.0),
        ];
        let gazes = gazes(&mut rng);
        let mut cache = TriangleFractionCache::new();
        for _ in 0..calls {
            let field = fields()[rng.gen_range(0..3)];
            let d = displays[rng.gen_range(0..2)];
            let gaze = gazes[rng.gen_range(0..gazes.len())];
            let e_max = d.max_eccentricity().0 * 1.5;
            let e1 = e1(&mut rng, e_max);
            let uncached = field.triangle_fraction(e1, &d, gaze);
            let (how, got) = match rng.gen_range(0..3u32) {
                0 => (
                    "cached",
                    field.triangle_fraction_cached(e1, &d, gaze, &mut cache),
                ),
                1 => (
                    "recorded",
                    field.triangle_fraction_recorded(e1, &d, gaze, &cache),
                ),
                _ => {
                    let single = d.fovea_area_fraction(e1, gaze);
                    let read = cache.fovea_area_fraction(&d, e1, gaze);
                    assert_eq!(
                        read.to_bits(),
                        single.to_bits(),
                        "area on {d}, e={e1} at {gaze:?}: {read} vs {single}"
                    );
                    continue;
                }
            };
            assert_eq!(
                got.to_bits(),
                uncached.to_bits(),
                "{how} {field} on {d}, e1={e1} at {gaze:?}: {got} vs {uncached}"
            );
        }
    }

    #[test]
    fn tenants_recording_through_one_slot_match_their_own_tables() {
        // Tenants of three fields on three panels, two of them sharing a
        // field of view, record round-robin through one slot. Every gaze
        // path starts at the centre, and tenants now and then look where
        // another one just looked, so the slot serves areas across fields
        // and panels. Each result must equal the tenant's own table and
        // the uncached integral, and a NaN gaze must leave both the slot
        // and the tenant's cache as they were.
        let rounds = if cfg!(debug_assertions) { 6 } else { 40 };
        let mut rng = StdRng::seed_from_u64(0x0005_1075);
        let panels = [
            DisplayGeometry::vive_pro_class(),
            DisplayGeometry::low_res_class(),
            DisplayGeometry::per_eye(2560, 1440, 100.0, 62.0),
        ];
        let tenants: Vec<(ComplexityField, DisplayGeometry)> = fields()
            .into_iter()
            .flat_map(|field| panels.map(|d| (field, d)))
            .collect();
        let mut through = vec![TriangleFractionCache::new(); tenants.len()];
        let mut own = vec![TriangleFractionCache::new(); tenants.len()];
        let mut slot = RingAreas::new();
        let mut last_gaze = GazePoint::center();
        let (mut served, mut nans) = (0, 0);
        for round in 0..rounds {
            for (k, &(field, d)) in tenants.iter().enumerate() {
                let gaze = match rng.gen_range(0..8u32) {
                    _ if round == 0 => GazePoint::center(),
                    0 | 1 => last_gaze,
                    2 => GazePoint {
                        x: f64::NAN,
                        ..last_gaze
                    },
                    _ => GazePoint::clamped(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)),
                };
                if gaze.x.is_nan() {
                    let before = format!("{slot:?} {:?}", through[k]);
                    field.record_rings_through(&d, gaze, &mut through[k], &mut slot);
                    assert_eq!(format!("{slot:?} {:?}", through[k]), before);
                    nans += 1;
                    continue;
                }
                served += usize::from(slot.holds(&d, gaze) && !through[k].rings.holds(&d, gaze));
                field.record_rings_through(&d, gaze, &mut through[k], &mut slot);
                field.record_rings(&d, gaze, &mut own[k]);
                last_gaze = gaze;
                let e_max = d.max_eccentricity().0 * 1.5;
                for _ in 0..8 {
                    let e1 = e1(&mut rng, e_max);
                    let shared = field.triangle_fraction_recorded(e1, &d, gaze, &through[k]);
                    let alone = field.triangle_fraction_recorded(e1, &d, gaze, &own[k]);
                    let uncached = field.triangle_fraction(e1, &d, gaze);
                    assert_eq!(
                        shared.to_bits(),
                        alone.to_bits(),
                        "{field} on {d} at {gaze:?}"
                    );
                    assert_eq!(shared.to_bits(), uncached.to_bits(), "e1={e1}");
                    let area = through[k].fovea_area_fraction(&d, e1, gaze);
                    let single = d.fovea_area_fraction(e1, gaze);
                    assert_eq!(area.to_bits(), single.to_bits(), "area at e={e1}");
                }
            }
        }
        // The centre round alone serves six of the nine tenants.
        assert!(served >= 6, "{served} tables served from the slot");
        assert!(nans > 0 || cfg!(debug_assertions), "no NaN gaze drawn");
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
    #[should_panic(expected = "concentration")]
    fn infinite_concentration_rejected() {
        let _ = ComplexityField::new(f64::INFINITY, 20.0);
    }

    #[test]
    fn infinite_sigma_is_the_uniform_limit() {
        let f = ComplexityField::new(3.0, f64::INFINITY);
        let uniform = ComplexityField::uniform();
        for e1 in [5.0, 20.0, 60.0] {
            let (got, want) = (
                f.triangle_fraction(e1, &display(), GazePoint::center()),
                uniform.triangle_fraction(e1, &display(), GazePoint::center()),
            );
            assert!((got - want).abs() < 1e-12, "e1={e1}: {got} vs {want}");
        }
    }

    #[test]
    fn display_format() {
        let s = ComplexityField::default().to_string();
        assert!(s.contains("density"));
    }
}
