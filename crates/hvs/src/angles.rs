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
use std::ops::Range;

/// An angle in visual degrees.
///
/// A thin newtype so that angular quantities are not confused with pixel
/// counts or ratios in the many `f64`-heavy APIs of this workspace.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Degrees(pub f64);

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
    /// Returns a value in `[0, 1]`, or NaN when the radius or a gaze
    /// coordinate is NaN.
    #[must_use]
    pub fn fovea_area_fraction(&self, e_deg: f64, gaze: GazePoint) -> f64 {
        if any_nan(e_deg, gaze) {
            return f64::NAN;
        }
        if e_deg <= 0.0 {
            return 0.0;
        }
        let (w, h, gx, gy) = self.panel_about(gaze);
        let mut widths = [0.0; STRIPS];
        Panel::new(gx, gy, h).strip_widths(&Strips::new(e_deg, gx, w), &mut widths);
        let area = widths.iter().fold(0.0, |sum, width| sum + width);
        (area / (w * h)).clamp(0.0, 1.0)
    }

    /// [`DisplayGeometry::fovea_area_fraction`] for every radius in `radii`
    /// at one gaze, written to the same index of `out`.
    ///
    /// Each result is bit-identical to the single-radius call. Discs run
    /// four at a time in one pass over the strips, one accumulator per
    /// disc, each adding its disc's strip areas in strip order, so no sum
    /// is reassociated. Where all four discs' chords span the full panel
    /// height, a strip's area is a per-disc constant and the pass takes no
    /// square root.
    ///
    /// # Panics
    ///
    /// Panics if `radii` and `out` differ in length.
    pub fn fovea_area_fractions(&self, radii: &[f64], gaze: GazePoint, out: &mut [f64]) {
        assert_eq!(radii.len(), out.len(), "one output per radius");
        let (w, h, gx, gy) = self.panel_about(gaze);
        let panel = Panel::new(gx, gy, h);
        for (rs, os) in radii.chunks(LANES).zip(out.chunks_mut(LANES)) {
            // The absent lanes of a short tail chunk have no strips.
            let mut discs = [Strips::NONE; LANES];
            for (disc, &r) in discs.iter_mut().zip(rs) {
                *disc = Strips::new(r, gx, w);
            }
            let sums = panel.lane_sums(&discs);
            for ((o, &r), area) in os.iter_mut().zip(rs).zip(sums) {
                *o = if any_nan(r, gaze) {
                    f64::NAN
                } else if r <= 0.0 {
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

/// Strips per disc in the strip pass.
const STRIPS: usize = 256;

/// Discs per pass in [`DisplayGeometry::fovea_area_fractions`]: each
/// per-disc quantity fills two SSE2 registers.
const LANES: usize = 4;

/// Whether a disc radius or either gaze coordinate is NaN. `min`, `max`
/// and the strip pass's clips pick the panel edge over a NaN operand, so
/// without this check such a disc would clip to the whole panel.
fn any_nan(r: f64, gaze: GazePoint) -> bool {
    r.is_nan() || gaze.x.is_nan() || gaze.y.is_nan()
}

/// A disc's strips: the disc's horizontal extent, clipped to the panel,
/// starts at `left` and is cut into [`STRIPS`] strips of width `dx`.
/// `r_sq` is the disc's squared radius.
#[derive(Debug, Clone, Copy)]
struct Strips {
    left: f64,
    dx: f64,
    r_sq: f64,
}

impl Strips {
    /// Strips of zero width: every one has area `+0.0`, in or out of a
    /// band.
    const NONE: Strips = Strips {
        left: 0.0,
        dx: 0.0,
        r_sq: 0.0,
    };

    /// The strips of the disc of radius `r` whose centre sits `cx` degrees
    /// right of the centre of a panel `w` degrees wide; [`Strips::NONE`]
    /// when the clipped extent is empty.
    fn new(r: f64, cx: f64, w: f64) -> Self {
        let left = (cx - r).max(-w / 2.0);
        let right = (cx + r).min(w / 2.0);
        if left >= right {
            return Strips::NONE;
        }
        Strips {
            left,
            dx: (right - left) / STRIPS as f64,
            r_sq: r * r,
        }
    }

    /// The midpoint of strip `i`.
    fn mid(&self, i: usize) -> f64 {
        self.left + (i as f64 + 0.5) * self.dx
    }
}

/// A chunk's clipping regime, which picks its strip kernel
/// ([`Panel::regime`]). Each kernel is bit-identical to
/// [`Panel::strip_area`] on the discs its regime admits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Regime {
    /// Every disc's `cy ± √r_sq` lies in the panel rows:
    /// [`Panel::inside_strip_area`].
    Inside,
    /// Otherwise, the disc centre lies in the panel rows (every clamped
    /// gaze): [`Panel::rows_strip_area`].
    Rows,
    /// A NaN or off-panel `cy`: [`Panel::strip_area`].
    General,
}

/// What the strip pass needs besides each disc's [`Strips`]: the disc
/// centre `(cx, cy)` and the panel rows `[y_lo, y_hi]`, in degrees about
/// the panel centre.
///
/// The pass computes the area of the intersection of a circle with the
/// rectangle `[-w/2, w/2] x [-h/2, h/2]` as the sum of its 256 strip
/// areas, each the clipped chord height at the strip's midpoint times the
/// strip width, taken in strip order. A strip outside the disc, or clipped
/// to nothing, has area `+0.0`, and so does every strip when the clipped
/// extent is empty. The sum starts at `+0.0` and every term is `≥ +0.0`,
/// so it never becomes `−0.0` and each `+0.0` term leaves its bits
/// unchanged: the area is bit-identical to a loop that skips those
/// strips. The midpoint rule's worst relative error against the exact
/// area is 2.0e-4 as measured (see
/// [`DisplayGeometry::fovea_area_fraction`]).
#[derive(Debug, Clone, Copy)]
struct Panel {
    cx: f64,
    cy: f64,
    y_lo: f64,
    y_hi: f64,
}

impl Panel {
    /// Discs centred at `(cx, cy)` on a panel `h` degrees tall.
    fn new(cx: f64, cy: f64, h: f64) -> Self {
        Panel {
            cx,
            cy,
            y_lo: -h / 2.0,
            y_hi: h / 2.0,
        }
    }

    /// The area of a strip of width `dx` with midpoint `x`, of the disc of
    /// squared radius `r_sq`: the chord height at `x`, clipped to the
    /// panel rows, times `dx`. It has no branches, so loops over it
    /// vectorize.
    ///
    /// Each chord end is clipped by a compare-select whose fallback
    /// operand is the panel edge: one `minpd`/`maxpd`. `f64::min` and
    /// `f64::max` must return the non-NaN operand, which costs a
    /// four-instruction fix-up per clip at the SSE2 baseline. The bits
    /// are the same: a chord end is NaN only when `half_chord_sq < 0`,
    /// which the guard zeroes, and then the select returns the edge, as
    /// `min`/`max` do; a chord end equal to an edge selects the edge, and
    /// neither edge is `±0.0` (`y_lo < 0 < y_hi`), so no signed zero can
    /// differ.
    ///
    /// The zero guard takes three mask operations per lane pair: one
    /// compare and one mask zero the height outside the disc, and one
    /// `maxpd` clamps a non-positive height to `+0.0`. This equals
    /// zeroing the strip when `half_chord_sq <= 0 || top <= bottom`:
    /// neither `top` nor `bottom` is NaN (each select falls back to its
    /// edge), `top` is never `+∞` and `bottom` never `−∞`, so
    /// `top − bottom` is never NaN, and it is `> 0` exactly when
    /// `top > bottom`. A zeroed strip is `+0.0 · dx = +0.0`, since `dx` is
    /// finite and `≥ 0`.
    #[inline(always)]
    fn strip_area(&self, x: f64, dx: f64, r_sq: f64) -> f64 {
        let half_chord_sq = r_sq - (x - self.cx) * (x - self.cx);
        // NaN when the strip is outside the disc; the guard below zeroes
        // the strip.
        let half_chord = half_chord_sq.sqrt();
        let (up, down) = (self.cy + half_chord, self.cy - half_chord);
        let top = if up < self.y_hi { up } else { self.y_hi };
        let bottom = if down > self.y_lo { down } else { self.y_lo };
        let height = if half_chord_sq <= 0.0 {
            0.0
        } else {
            top - bottom
        };
        (if height > 0.0 { height } else { 0.0 }) * dx
    }

    /// The half chord of the disc of squared radius `r_sq` at `x`, for the
    /// clamped kernels: `√max(half_chord_sq, 0)`, one `maxpd` and one
    /// `sqrtpd` per lane pair. A negative `half_chord_sq` clamps to `+0.0`
    /// and a NaN one passes.
    #[inline(always)]
    fn clamped_half_chord(&self, x: f64, r_sq: f64) -> f64 {
        let half_chord_sq = r_sq - (x - self.cx) * (x - self.cx);
        (if half_chord_sq < 0.0 {
            0.0
        } else {
            half_chord_sq
        })
        .sqrt()
    }

    /// [`Panel::strip_area`] for a disc inside the panel rows: the chord
    /// is never clipped, so the strip needs no clip, guard or final clamp.
    ///
    /// Bit-identical to `strip_area` when `cy ± √r_sq` lies in
    /// `[y_lo, y_hi]` (the [`Regime::Inside`] test), for every `r_sq` but
    /// `−0.0`, which no disc's is (`r·r` never is), and for a `cx` that is
    /// not NaN (a NaN gaze reads NaN before a strip counts). Then `r_sq`
    /// is finite, so `half_chord_sq` is never NaN, and it is at most
    /// `r_sq`: rounding
    /// is monotone, so `half_chord ≤ √r_sq` bounds both chord ends,
    /// `up ≤ y_hi` and `down ≥ y_lo`, where `strip_area`'s selects return
    /// `up` and `down` (an end equal to its edge has the edge's bits). A
    /// non-positive `half_chord_sq`, which `strip_area` zeroes, clamps to
    /// `+0.0`, and `(cy + 0) − (cy − 0)` is `+0.0`. A positive one gives
    /// `up ≥ cy ≥ down`, so the height is `≥ +0.0`, where the final clamp
    /// changes nothing.
    #[inline(always)]
    fn inside_strip_area(&self, x: f64, dx: f64, r_sq: f64) -> f64 {
        let half_chord = self.clamped_half_chord(x, r_sq);
        ((self.cy + half_chord) - (self.cy - half_chord)) * dx
    }

    /// [`Panel::strip_area`] for a disc centre on the panel rows: both
    /// clips stay, and the three-mask guard and the final clamp become one
    /// clamp of `half_chord_sq` at zero.
    ///
    /// Bit-identical to `strip_area` when `y_lo ≤ cy ≤ y_hi` (the
    /// [`Regime::Rows`] test), for every `r_sq` but `−0.0`. A negative
    /// `half_chord_sq` clamps to `+0.0`, so both ends are `cy` (clipped
    /// to an edge it equals) and the height is `+0.0`, as the guard gives.
    /// A NaN one passes the clamp, and each clip falls back to its edge,
    /// as in `strip_area`. Otherwise `up ≥ cy ≥ down`, and with `cy` in
    /// the rows the clips keep `top ≥ cy ≥ bottom`, so the height is
    /// `≥ +0.0` and never `−0.0`: the guard and the clamp change nothing.
    #[inline(always)]
    fn rows_strip_area(&self, x: f64, dx: f64, r_sq: f64) -> f64 {
        let half_chord = self.clamped_half_chord(x, r_sq);
        let (up, down) = (self.cy + half_chord, self.cy - half_chord);
        let top = if up < self.y_hi { up } else { self.y_hi };
        let bottom = if down > self.y_lo { down } else { self.y_lo };
        (top - bottom) * dx
    }

    /// The fastest kernel that is exact for all of `discs`, by the
    /// kernels' own float operations.
    fn regime(&self, discs: &[Strips]) -> Regime {
        let inside = |disc: &Strips| {
            let reach = disc.r_sq.sqrt();
            self.cy + reach <= self.y_hi && self.cy - reach >= self.y_lo
        };
        if discs.iter().all(inside) {
            Regime::Inside
        } else if self.y_lo <= self.cy && self.cy <= self.y_hi {
            Regime::Rows
        } else {
            Regime::General
        }
    }

    /// Whether the chord at `x` reaches both the top and the bottom panel
    /// edge, by [`Panel::strip_area`]'s own operations. Where it holds,
    /// `top` is `y_hi` and `bottom` is `y_lo`, so the strip's area is
    /// exactly `(y_hi − y_lo)·dx` whatever its square root.
    fn spans(&self, x: f64, r_sq: f64) -> bool {
        let half_chord_sq = r_sq - (x - self.cx) * (x - self.cx);
        let half_chord = half_chord_sq.sqrt();
        half_chord_sq > 0.0
            && self.cy + half_chord >= self.y_hi
            && self.cy - half_chord <= self.y_lo
    }

    /// Writes the area of each of `disc`'s strips into `widths`, by the
    /// kernel of the disc's [`Regime`].
    fn strip_widths(&self, disc: &Strips, widths: &mut [f64; STRIPS]) {
        match self.regime(std::slice::from_ref(disc)) {
            Regime::Inside => self.widths_by(disc, widths, Panel::inside_strip_area),
            Regime::Rows => self.widths_by(disc, widths, Panel::rows_strip_area),
            Regime::General => self.widths_by(disc, widths, Panel::strip_area),
        }
    }

    /// [`Panel::strip_widths`] by one kernel.
    fn widths_by(
        &self,
        disc: &Strips,
        widths: &mut [f64; STRIPS],
        kernel: impl Fn(&Panel, f64, f64, f64) -> f64,
    ) {
        for (i, width) in widths.iter_mut().enumerate() {
            *width = kernel(self, disc.mid(i), disc.dx, disc.r_sq);
        }
    }

    /// The strip sums of [`LANES`] discs in one pass over the strips: one
    /// accumulator per disc adds that disc's strip areas in strip order,
    /// so each sum is bit-identical to folding [`Panel::strip_widths`] from
    /// `+0.0`. The lanes are discs, and LLVM vectorizes across them. The
    /// chunk's [`Regime`] picks the strip kernel once.
    ///
    /// The pass's band is the intersection of the discs'
    /// [`Panel::full_height_band`]s. Inside it every strip area is its
    /// disc's constant `(y_hi − y_lo)·dx`, so the accumulators add that
    /// and no square root is taken.
    fn lane_sums(&self, discs: &[Strips; LANES]) -> [f64; LANES] {
        match self.regime(discs) {
            Regime::Inside => self.lane_sums_by(discs, Panel::inside_strip_area),
            Regime::Rows => self.lane_sums_by(discs, Panel::rows_strip_area),
            Regime::General => self.lane_sums_by(discs, Panel::strip_area),
        }
    }

    /// [`Panel::lane_sums`] by one kernel. Kept out of line, one copy per
    /// kernel: inlined into [`DisplayGeometry::fovea_area_fractions`], the
    /// inside loop spilled two loads and took 43 instructions, not 38.
    #[inline(never)]
    fn lane_sums_by(
        &self,
        discs: &[Strips; LANES],
        kernel: impl Fn(&Panel, f64, f64, f64) -> f64,
    ) -> [f64; LANES] {
        let band = discs.iter().fold(0..STRIPS, |band, disc| {
            let own = self.full_height_band(disc);
            band.start.max(own.start)..band.end.min(own.end)
        });
        let (lo, hi) = (band.start, band.end.max(band.start));
        let left = discs.map(|d| d.left);
        let dx = discs.map(|d| d.dx);
        let r_sq = discs.map(|d| d.r_sq);
        let full = dx.map(|dx| (self.y_hi - self.y_lo) * dx);
        let mut sums = [0.0; LANES];
        let add_strips = |strips: Range<usize>, sums: &mut [f64; LANES]| {
            // Strip `i`'s `i + 0.5`, stepped as a float: every value up to
            // `STRIPS` is exact, so lane `l`'s midpoint is
            // `discs[l].mid(i)`, op for op, with no integer conversion.
            let mut m = strips.start as f64 + 0.5;
            for _ in strips {
                for (l, sum) in sums.iter_mut().enumerate() {
                    *sum += kernel(self, left[l] + m * dx[l], dx[l], r_sq[l]);
                }
                m += 1.0;
            }
        };
        add_strips(0..lo, &mut sums);
        for _ in lo..hi {
            for (sum, full) in sums.iter_mut().zip(full) {
                *sum += full;
            }
        }
        add_strips(hi..STRIPS, &mut sums);
        sums
    }

    /// A range of `disc`'s strips on which [`Panel::spans`] holds at
    /// every midpoint: all of them when the strips have zero width (their
    /// areas are `+0.0` in or out of a band), otherwise the band found
    /// below, or an empty range.
    ///
    /// The strips where `spans` holds form one interval. Rounding is
    /// monotone, so the computed midpoints never decrease with `i`; so
    /// the computed `half_chord_sq` rises and then falls, and `spans` is
    /// monotone in it. The band's candidate is the strips whose midpoints
    /// lie within `s = √(r² − reach²)` of `cx`, with `reach` the larger
    /// distance from `cy` to a panel edge, shrunk by one strip at each end
    /// against rounding. It is accepted only if `spans` holds at both of
    /// its ends, which by the interval property proves it for every strip
    /// in between.
    fn full_height_band(&self, disc: &Strips) -> Range<usize> {
        if disc.dx == 0.0 {
            return 0..STRIPS;
        }
        let reach = (self.y_hi - self.cy).max(self.cy - self.y_lo);
        let slack = disc.r_sq - reach * reach;
        if slack > 0.0 {
            let s = slack.sqrt();
            // Strip i's midpoint is left + (i + ½)·dx.
            let first = ((self.cx - s - disc.left) / disc.dx - 0.5).ceil() + 1.0;
            let last = ((self.cx + s - disc.left) / disc.dx - 0.5).floor() - 1.0;
            let (first, last) = (first.max(0.0), last.min((STRIPS - 1) as f64));
            if first <= last {
                let (first, last) = (first as usize, last as usize);
                if self.spans(disc.mid(first), disc.r_sq) && self.spans(disc.mid(last), disc.r_sq) {
                    return first..last + 1;
                }
            }
        }
        0..0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const EPS: f64 = 1e-6;

    /// The two shipped panels plus a wide and a tall one with unequal
    /// fields of view.
    fn panels() -> [DisplayGeometry; 4] {
        [
            DisplayGeometry::vive_pro_class(),
            DisplayGeometry::low_res_class(),
            DisplayGeometry::per_eye(2560, 1440, 100.0, 62.0),
            DisplayGeometry::per_eye(1440, 2560, 62.0, 100.0),
        ]
    }

    /// The strip loop as it stood before the branch-free kernel, strip by
    /// strip: `None` for a strip it skips (outside the disc, or clipped to
    /// nothing), else the strip's area and whether its chord was clipped
    /// at both the top and the bottom panel edge. An empty clipped extent
    /// has no strips.
    fn branchy_strips(r: f64, cx: f64, cy: f64, w: f64, h: f64) -> Vec<Option<(f64, bool)>> {
        let (x_lo, x_hi) = (-w / 2.0, w / 2.0);
        let left = (cx - r).max(x_lo);
        let right = (cx + r).min(x_hi);
        if left >= right {
            return Vec::new();
        }
        let dx = (right - left) / STRIPS as f64;
        (0..STRIPS)
            .map(|i| branchy_strip(left + (i as f64 + 0.5) * dx, dx, r * r, cx, cy, h))
            .collect()
    }

    /// One strip of the old loop, of width `dx` with midpoint `x`, of the
    /// disc of squared radius `r_sq` centred at `(cx, cy)` on a panel `h`
    /// degrees tall: what [`branchy_strips`] gives for it.
    fn branchy_strip(x: f64, dx: f64, r_sq: f64, cx: f64, cy: f64, h: f64) -> Option<(f64, bool)> {
        let (y_lo, y_hi) = (-h / 2.0, h / 2.0);
        let half_chord_sq = r_sq - (x - cx) * (x - cx);
        if half_chord_sq <= 0.0 {
            return None;
        }
        let half_chord = half_chord_sq.sqrt();
        let top = (cy + half_chord).min(y_hi);
        let bottom = (cy - half_chord).max(y_lo);
        let both = cy + half_chord >= y_hi && cy - half_chord <= y_lo;
        (top > bottom).then_some(((top - bottom) * dx, both))
    }

    /// The old loop's area: it skips the strips the kernels set to `+0.0`
    /// and sums as it goes. Both kernels must match it bit for bit.
    fn branchy_clipped_circle_area(r: f64, cx: f64, cy: f64, w: f64, h: f64) -> f64 {
        branchy_strips(r, cx, cy, w, h)
            .iter()
            .flatten()
            .fold(0.0, |area, &(width, _)| area + width)
    }

    /// `fovea_area_fraction` over the branchy oracle, with the same NaN
    /// rule.
    fn branchy_fraction(d: &DisplayGeometry, e_deg: f64, gaze: GazePoint) -> f64 {
        if e_deg.is_nan() || gaze.x.is_nan() || gaze.y.is_nan() {
            return f64::NAN;
        }
        if e_deg <= 0.0 {
            return 0.0;
        }
        let (w, h, gx, gy) = d.panel_about(gaze);
        (branchy_clipped_circle_area(e_deg, gx, gy, w, h) / (w * h)).clamp(0.0, 1.0)
    }

    /// `r` moved by `k` units in the last place (`r > 0`).
    fn ulps(r: f64, k: i64) -> f64 {
        f64::from_bits(r.to_bits().wrapping_add_signed(k))
    }

    /// A gaze coordinate: NaN, ±∞, a panel edge or a few ulps inside one,
    /// the centre (±0.0), or a point on or just beyond the panel.
    fn gaze_coord(rng: &mut StdRng) -> f64 {
        match rng.gen_range(0..48u32) {
            0 => f64::NAN,
            1 => [f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..2usize)],
            2..=5 => -1.0,
            6..=8 => 0.0,
            9 => -0.0,
            10..=13 => 1.0,
            14..=17 => [-1.0, 1.0][rng.gen_range(0..2usize)] * ulps(1.0, -rng.gen_range(1..5)),
            _ => rng.gen_range(-1.2..1.2),
        }
    }

    /// A disc radius for the kernel tests at `gaze`: zero or negative
    /// (an empty extent), NaN, ±∞, the saturation radius or a few ulps off
    /// it, a few ulps off the larger distance from the gaze to a panel
    /// edge (where the full-height band's `r² − reach²` crosses 0) or off
    /// either distance (where a disc leaves the panel rows), a few ulps
    /// wide, or anything from −10° to 210°.
    fn kernel_radius(rng: &mut StdRng, d: &DisplayGeometry, gaze: GazePoint) -> f64 {
        let (_, h, _, gy) = d.panel_about(gaze);
        let (to_top, to_bottom) = (h / 2.0 - gy, gy + h / 2.0);
        let reach = to_top.max(to_bottom);
        let sat = d.saturation_radius_deg(gaze);
        match rng.gen_range(0..18u32) {
            0 => 0.0,
            1 => -rng.gen_range(0.0..5.0),
            2 => f64::NAN,
            8 => [f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..2usize)],
            3 => sat,
            4 => ulps(sat, rng.gen_range(-4..5)),
            5 | 6 => ulps(reach, rng.gen_range(-4..5)),
            15 | 16 => ulps(
                [to_top, to_bottom][rng.gen_range(0..2usize)],
                rng.gen_range(-4..5),
            ),
            // Discs a few ulps of the gaze offset wide: rounded strip
            // midpoints fall outside them.
            7 => rng.gen_range(1e-14..1e-11),
            _ => rng.gen_range(-10.0..210.0),
        }
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

    /// Both kernels against the branchy oracle, `to_bits`, on one batch.
    fn assert_kernels_match(d: &DisplayGeometry, radii: &[f64], gaze: GazePoint) {
        let mut out = [0.0; 9];
        let out = &mut out[..radii.len()];
        d.fovea_area_fractions(radii, gaze, out);
        for (&r, &batch) in radii.iter().zip(out.iter()) {
            let single = d.fovea_area_fraction(r, gaze);
            let oracle = branchy_fraction(d, r, gaze);
            assert_eq!(
                single.to_bits(),
                oracle.to_bits(),
                "single r={r} {gaze:?} {d}"
            );
            assert_eq!(
                batch.to_bits(),
                oracle.to_bits(),
                "batch r={r} {gaze:?} {d}"
            );
        }
    }

    #[test]
    fn kernels_match_the_branchy_loop_bit_for_bit() {
        let cases = if cfg!(debug_assertions) { 400 } else { 4_000 };
        let mut rng = StdRng::seed_from_u64(0x0571_21b5);
        for d in panels() {
            for _ in 0..cases {
                let gaze = GazePoint {
                    x: gaze_coord(&mut rng),
                    y: gaze_coord(&mut rng),
                };
                // Batches of 0 to 9 discs: full chunks and tails of 1-3.
                let len = rng.gen_range(0..10usize);
                let mut radii = [0.0; 9];
                for r in &mut radii[..len] {
                    *r = kernel_radius(&mut rng, &d, gaze);
                }
                assert_kernels_match(&d, &radii[..len], gaze);
                // A chunk that mixes empty-extent lanes with saturated
                // ones, and its tails.
                let sat = d.saturation_radius_deg(gaze);
                let mixed = [0.0, sat, -1.0, sat + 1.0, sat];
                assert_kernels_match(&d, &mixed[..rng.gen_range(1..6usize)], gaze);
            }
        }
    }

    /// [`Panel::strip_area`] against the old loop's strip `want`,
    /// `to_bits`: a strip the old loop skips must be `+0.0`.
    fn assert_strip_matches(panel: &Panel, want: Option<(f64, bool)>, x: f64, dx: f64, r_sq: f64) {
        let want = want.map_or(0.0, |(area, _)| area);
        let got = panel.strip_area(x, dx, r_sq);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "x={x} dx={dx} r_sq={r_sq} {panel:?}"
        );
    }

    #[test]
    fn strip_area_matches_the_branchy_loop_strip_by_strip() {
        // Every strip, not only the summed area. Random discs cover gazes
        // past the panel edges (so `cy` can lie outside the panel rows),
        // ±∞ radii, and discs a multiple of half an ulp of `cx` wide: a
        // whole number of ulps puts rounded midpoints on the rim
        // (`half_chord_sq` = +0.0), and a rounded extent end can fall
        // past it (negative). No radius makes `r²` −0.0, so no disc strip
        // has `half_chord_sq` = −0.0: hand-made strips add it.
        let cases = if cfg!(debug_assertions) { 200 } else { 2_000 };
        let mut rng = StdRng::seed_from_u64(0x5791_b175);
        // Strips seen with `half_chord_sq` negative, +0.0 and −0.0, and
        // with `cy` outside the panel rows.
        let mut seen = [0usize; 4];
        let mut tally = |panel: &Panel, x: f64, r_sq: f64| {
            let half_chord_sq = r_sq - (x - panel.cx) * (x - panel.cx);
            seen[0] += usize::from(half_chord_sq < 0.0);
            seen[1] += usize::from(half_chord_sq.to_bits() == 0.0f64.to_bits());
            seen[2] += usize::from(half_chord_sq.to_bits() == (-0.0f64).to_bits());
            seen[3] += usize::from(!(panel.y_lo..=panel.y_hi).contains(&panel.cy));
        };
        for d in panels() {
            for _ in 0..cases {
                let gaze = GazePoint {
                    x: gaze_coord(&mut rng),
                    y: gaze_coord(&mut rng),
                };
                let (w, h, gx, gy) = d.panel_about(gaze);
                let r = match rng.gen_range(0..4u32) {
                    0 => [f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..2usize)],
                    // A multiple of half an ulp of `gx`.
                    1 => f64::from(rng.gen_range(1..17u32)) / 2.0 * (ulps(gx.abs(), 1) - gx.abs()),
                    _ => kernel_radius(&mut rng, &d, gaze),
                };
                let disc = Strips::new(r, gx, w);
                let panel = Panel::new(gx, gy, h);
                // An empty extent has no strips in the old loop, and every
                // one of `Strips::NONE`'s must be +0.0.
                let strips = branchy_strips(r, gx, gy, w, h);
                for i in 0..STRIPS {
                    let want = strips.get(i).copied().flatten();
                    assert_strip_matches(&panel, want, disc.mid(i), disc.dx, disc.r_sq);
                    if !strips.is_empty() {
                        tally(&panel, disc.mid(i), disc.r_sq);
                    }
                }
            }
        }
        // Hand-made strips: `r²` of −0.0 and +0.0 at the disc centre, a
        // negative `r²`, ±∞, and chords that end inside, on and beyond the
        // panel edges, with `cy` inside, on and outside the rows.
        let h = DisplayGeometry::vive_pro_class().fov_v().0;
        let cx = 1.5;
        for cy in [-0.6 * h, -h / 2.0, -3.0, 0.0, h / 2.0, 0.6 * h] {
            let panel = Panel::new(cx, cy, h);
            let to_top = (h / 2.0 - cy) * (h / 2.0 - cy);
            for r_sq in [
                -0.0,
                0.0,
                -1.0,
                1e-300,
                4.0,
                to_top,
                1e6,
                f64::INFINITY,
                f64::NEG_INFINITY,
            ] {
                for x in [cx, cx + 1e-9, cx - 1.0, cx + 2.0] {
                    let want = branchy_strip(x, 0.25, r_sq, cx, cy, h);
                    assert_strip_matches(&panel, want, x, 0.25, r_sq);
                    tally(&panel, x, r_sq);
                }
            }
        }
        assert!(seen.iter().all(|&n| n > 0), "strips seen: {seen:?}");
    }

    /// The kernel of `discs`' [`Regime`] against the old loop's strip,
    /// `to_bits`, on every strip of every disc; returns the regime. An
    /// off-panel or NaN `cy` must take [`Panel::strip_area`].
    fn assert_regime_kernel_matches(panel: &Panel, discs: &[Strips], h: f64) -> Regime {
        let regime = panel.regime(discs);
        let on_rows = panel.y_lo <= panel.cy && panel.cy <= panel.y_hi;
        assert_eq!(regime == Regime::General, !on_rows, "{panel:?}");
        let kernel = match regime {
            Regime::Inside => Panel::inside_strip_area,
            Regime::Rows => Panel::rows_strip_area,
            Regime::General => Panel::strip_area,
        };
        for disc in discs {
            for i in 0..STRIPS {
                let x = disc.mid(i);
                let want = branchy_strip(x, disc.dx, disc.r_sq, panel.cx, panel.cy, h);
                let want = want.map_or(0.0, |(area, _)| area);
                let got = kernel(panel, x, disc.dx, disc.r_sq);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{regime:?} strip {i} of {disc:?} {panel:?}"
                );
            }
        }
        regime
    }

    #[test]
    fn regime_kernels_match_the_branchy_loop_strip_by_strip() {
        // Every strip of every disc of a chunk, by the kernel its regime
        // picks. A NaN `cx` is left out: any NaN gaze coordinate reads NaN
        // before a strip counts (`any_nan`), and the inside kernel's chord
        // is NaN there where `strip_area`'s clips fall back to the edges.
        let cases = if cfg!(debug_assertions) { 300 } else { 3_000 };
        let mut rng = StdRng::seed_from_u64(0x2e61_03e5);
        let mut seen = [0usize; 3];
        let mut tally = |regime: Regime| seen[regime as usize] += 1;
        for d in panels() {
            for _ in 0..cases {
                let gaze = GazePoint {
                    x: gaze_coord(&mut rng),
                    y: gaze_coord(&mut rng),
                };
                if gaze.x.is_nan() {
                    continue;
                }
                let (w, h, gx, gy) = d.panel_about(gaze);
                // Four discs of one draw (inside chunks are common), or
                // four draws.
                let radii: [f64; LANES] = if rng.gen_bool(0.5) {
                    [kernel_radius(&mut rng, &d, gaze); LANES]
                } else {
                    std::array::from_fn(|_| kernel_radius(&mut rng, &d, gaze))
                };
                let discs = radii.map(|r| Strips::new(r, gx, w));
                tally(assert_regime_kernel_matches(
                    &Panel::new(gx, gy, h),
                    &discs,
                    h,
                ));
            }
        }
        // Hand-made chunks: `cy` on an edge, at ±0.0 and a few ulps inside
        // the rows, with radii a few ulps either side of each edge
        // distance, a disc a few ulps wide, and ±∞.
        for d in panels() {
            for y in [-1.0, 1.0, 0.0, -0.0, ulps(1.0, -2), -ulps(1.0, -2), 0.3] {
                let gaze = GazePoint { x: 0.2, y };
                let (w, h, gx, gy) = d.panel_about(gaze);
                let panel = Panel::new(gx, gy, h);
                for edge in [h / 2.0 - gy, gy + h / 2.0] {
                    for k in -3..=3 {
                        let r = ulps(edge, k);
                        for radii in [[r; LANES], [r, 1e-13, r / 2.0, f64::INFINITY]] {
                            let discs = radii.map(|r| Strips::new(r, gx, w));
                            tally(assert_regime_kernel_matches(&panel, &discs, h));
                        }
                    }
                }
                let tiny = [1e-13, 3e-14, f64::NEG_INFINITY, 0.0];
                let discs = tiny.map(|r| Strips::new(r, gx, w));
                tally(assert_regime_kernel_matches(&panel, &discs, h));
            }
        }
        assert!(seen.iter().all(|&n| n > 0), "chunks per regime: {seen:?}");
    }

    #[test]
    fn full_height_band_is_clipped_at_both_edges() {
        // Every strip the kernel puts in a disc's band must be clipped at
        // the top and the bottom panel edge in the branchy loop, the band
        // must lie in the one interval of strips where the kernel's own
        // test holds, and a saturated disc's band must not be empty, or
        // the band would go untested.
        let cases = if cfg!(debug_assertions) { 300 } else { 3_000 };
        let mut rng = StdRng::seed_from_u64(0xba2d);
        for d in panels() {
            for _ in 0..cases {
                let gaze = GazePoint {
                    x: gaze_coord(&mut rng),
                    y: gaze_coord(&mut rng),
                };
                let r = kernel_radius(&mut rng, &d, gaze);
                let (w, h, gx, gy) = d.panel_about(gaze);
                let disc = Strips::new(r, gx, w);
                if disc.dx == 0.0 {
                    // Zero-width strips: no strip of the old loop to compare.
                    continue;
                }
                let panel = Panel::new(gx, gy, h);
                let band = panel.full_height_band(&disc);
                let strips = branchy_strips(r, gx, gy, w, h);
                for i in band.clone() {
                    assert!(
                        matches!(strips[i], Some((_, true))),
                        "strip {i} of {band:?}, r={r} {gaze:?} on {d}"
                    );
                }
                let spans: Vec<usize> = (0..STRIPS)
                    .filter(|&i| panel.spans(disc.mid(i), disc.r_sq))
                    .collect();
                if let (Some(&first), Some(&last)) = (spans.first(), spans.last()) {
                    assert_eq!(spans.len(), last - first + 1, "r={r} {gaze:?} on {d}");
                    assert!(band.is_empty() || (first..=last).contains(&band.start));
                    assert!(band.is_empty() || band.end <= last + 1);
                }
                // An infinite gaze coordinate has no finite saturation
                // radius: no chord spans the panel from it.
                let sat = d.saturation_radius_deg(gaze);
                if r >= sat && sat.is_finite() {
                    assert!(!band.is_empty(), "saturated r={r} {gaze:?} on {d}");
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
    fn eccentricity_of_corner_matches_max() {
        // The panel corner, NDC (1, 1), lies half the horizontal and half
        // the vertical field of view from a centred gaze.
        let d = DisplayGeometry::vive_pro_class();
        let corner = (d.fov_h().0 / 2.0).hypot(d.fov_v().0 / 2.0);
        assert!((corner - d.max_eccentricity().0).abs() < EPS);
    }

    #[test]
    fn gaze_clamping() {
        let g = GazePoint::clamped(3.0, -7.0);
        assert_eq!(g, GazePoint { x: 1.0, y: -1.0 });
    }

    #[test]
    fn display_formats_human_readably() {
        let d = DisplayGeometry::vive_pro_class();
        let s = d.to_string();
        assert!(s.contains("1920x2160"));
        assert!(s.contains("110"));
    }
}
