//! The software-layer foveation framework (paper Sec. 3.2, Fig. 7).
//!
//! Q-VR's software layer splits the VR graphics into a local client (the
//! "Fovea" channel) and a remote server (the "Periphery" channels with VRS
//! rates), connected by parallel per-layer streams and composed by a
//! "Display" channel. [`FoveationPlan`] is the per-frame resolved plan
//! (eccentricities, VRS-quantised layer scales, per-layer pixel and byte
//! volumes) that both the scheme pipelines and the benchmarks consume.

use qvr_codec::{EntropyModel, SizeModel};
use qvr_hvs::{DisplayGeometry, GazePoint, LayerKind, LayerPartition, MarModel};
use qvr_scene::TriangleFractionCache;
use std::cell::RefCell;
use std::fmt;

/// Hardware variable-rate-shading rates available on the server renderer
/// (the "VRS Graphics" of Fig. 7), expressed as linear resolution scales.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VrsRate {
    /// 1×1: native shading.
    Full,
    /// 1×2 / 2×1: ~0.71 linear scale.
    Half,
    /// 2×2: 0.5 linear scale.
    Quarter,
    /// 2×4 / 4×2: ~0.35 linear scale.
    Eighth,
    /// 4×4: 0.25 linear scale.
    Sixteenth,
}

impl VrsRate {
    /// All rates, finest first.
    #[must_use]
    pub fn all() -> [VrsRate; 5] {
        [
            VrsRate::Full,
            VrsRate::Half,
            VrsRate::Quarter,
            VrsRate::Eighth,
            VrsRate::Sixteenth,
        ]
    }

    /// The linear resolution scale of this rate.
    #[must_use]
    pub fn linear_scale(&self) -> f64 {
        match self {
            VrsRate::Full => 1.0,
            VrsRate::Half => std::f64::consts::FRAC_1_SQRT_2,
            VrsRate::Quarter => 0.5,
            VrsRate::Eighth => 0.354,
            VrsRate::Sixteenth => 0.25,
        }
    }

    /// The coarsest hardware rate whose scale still satisfies (is at least)
    /// the MAR-derived target scale.
    #[must_use]
    pub fn quantize(target_scale: f64) -> VrsRate {
        let mut chosen = VrsRate::Full;
        for rate in VrsRate::all() {
            if rate.linear_scale() + 1e-12 >= target_scale {
                chosen = rate;
            } else {
                break;
            }
        }
        chosen
    }
}

impl fmt::Display for VrsRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            VrsRate::Full => "1x1",
            VrsRate::Half => "1x2",
            VrsRate::Quarter => "2x2",
            VrsRate::Eighth => "2x4",
            VrsRate::Sixteenth => "4x4",
        };
        f.write_str(s)
    }
}

/// The per-frame resolved foveation plan.
///
/// Produced by [`FoveationPlan::resolve`] from an eccentricity choice, a
/// display, a MAR model, and the gaze point; consumed by the scheme
/// pipelines (workload + byte volumes) and by the benchmarks (Fig. 6's
/// relative frame size, Fig. 13's reductions).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FoveationPlan {
    /// Fovea eccentricity `e1`, degrees.
    pub e1_deg: f64,
    /// Middle eccentricity `*e2` (Eq. 1 optimal), degrees.
    pub e2_deg: f64,
    /// Largest on-screen eccentricity, degrees.
    pub max_extent_deg: f64,
    /// VRS rate of the middle layer.
    pub middle_rate: VrsRate,
    /// VRS rate of the outer layer.
    pub outer_rate: VrsRate,
    /// Fraction of the panel covered by the local fovea disc.
    pub fovea_area_fraction: f64,
    /// Native pixels of the middle-layer region (rect minus fovea), one eye.
    pub middle_region_px: f64,
    /// Native pixels of the outer-layer region (full panel), one eye.
    pub outer_region_px: f64,
    /// Rendered pixels, one eye (fovea native + periphery at VRS scales).
    pub rendered_px: f64,
    /// Area-weighted mean linear resolution scale across the frame.
    pub mean_linear_scale: f64,
}

impl FoveationPlan {
    /// Resolves a plan for eccentricity `e1` on a display under a MAR model.
    ///
    /// The middle eccentricity follows Eq. (1); MAR scales are quantised to
    /// hardware VRS rates (never coarser than the MAR bound allows, i.e.
    /// always at least the MAR scale).
    #[must_use]
    pub fn resolve(
        e1_deg: f64,
        display: &DisplayGeometry,
        mar: &MarModel,
        gaze: GazePoint,
    ) -> Self {
        let e1 = clamp_e1(e1_deg);
        let part =
            LayerPartition::with_optimal_middle(e1, display, mar).expect("clamped e1 is valid");
        FoveationPlan::from_partition(
            part,
            display,
            mar,
            gaze,
            display.fovea_area_fraction(e1, gaze),
        )
    }

    /// The plan for a partition already resolved on `display` under `mar`,
    /// given `fovea_area`, the disc's `display.fovea_area_fraction(e1,
    /// gaze)` at the partition's e1: [`FoveationPlan::resolve`] is
    /// `from_partition` applied to [`LayerPartition::with_optimal_middle`]
    /// of the clamped `e1` and that area. A caller that keeps those
    /// partitions skips the Eq. (1) search, and one that holds the area
    /// (say, in a ring table of the gaze) skips the disc integral.
    #[must_use]
    pub fn from_partition(
        part: LayerPartition,
        display: &DisplayGeometry,
        mar: &MarModel,
        gaze: GazePoint,
        fovea_area: f64,
    ) -> Self {
        let e1 = part.fovea_eccentricity();
        let native = display.pixels_per_eye() as f64;
        // `display.fovea_pixels(e1, gaze)`, from the area the caller holds.
        let budget = part.layer_budget_with_fovea(display, mar, gaze, fovea_area * native);

        let mid_scale_mar = part.layer_scale(LayerKind::Middle, display, mar);
        let out_scale_mar = part.layer_scale(LayerKind::Outer, display, mar);
        let middle_rate = VrsRate::quantize(mid_scale_mar);
        let outer_rate = VrsRate::quantize(out_scale_mar);

        // Region extents in native pixels. Q-VR's server transmits only
        // what the client does not render locally: the middle rectangle
        // minus the fovea disc, and the remainder of the panel beyond the
        // middle rectangle (this is what makes transmitted data collapse
        // when light apps push e1 toward 90°, e.g. Doom3-L's 96 %).
        let middle_region_px = if mid_scale_mar > 0.0 {
            budget.middle_px / (mid_scale_mar * mid_scale_mar)
        } else {
            0.0
        };
        let outer_region_px = (native - middle_region_px - fovea_area * native).max(0.0);

        let rendered_px = budget.fovea_px
            + middle_region_px * middle_rate.linear_scale().powi(2)
            + outer_region_px * outer_rate.linear_scale().powi(2);

        // Area-weighted linear scale: fovea at 1, middle annulus at its
        // rate, remaining outer area at its rate.
        let mid_area = (middle_region_px / native).clamp(0.0, 1.0 - fovea_area);
        let outer_area = (outer_region_px / native).clamp(0.0, 1.0 - fovea_area - mid_area);
        let mean_linear_scale = fovea_area
            + mid_area * middle_rate.linear_scale()
            + outer_area * outer_rate.linear_scale();

        FoveationPlan {
            e1_deg: e1,
            e2_deg: part.middle_eccentricity(),
            max_extent_deg: display.max_eccentricity().0,
            middle_rate,
            outer_rate,
            fovea_area_fraction: fovea_area,
            middle_region_px,
            outer_region_px,
            rendered_px,
            mean_linear_scale: mean_linear_scale.clamp(0.0, 1.0),
        }
    }

    /// Compressed bytes for the periphery streams of **one eye** under a
    /// size model, with `periphery_quality` scaling the encoder quality of
    /// the remote streams (the Eq. 1 "*Periphery Quality" knob; `1.0` =
    /// fovea-grade quality).
    #[must_use]
    pub fn periphery_bytes(
        &self,
        size_model: &SizeModel,
        content_detail: f64,
        periphery_quality: f64,
    ) -> f64 {
        let q = periphery_quality.clamp(0.05, 1.0);
        let mid = size_model.frame_bytes(
            self.middle_region_px.round() as u64,
            content_detail,
            self.middle_rate.linear_scale(),
        );
        let out = size_model.frame_bytes(
            self.outer_region_px.round() as u64,
            content_detail,
            self.outer_rate.linear_scale(),
        );
        (mid + out) * q
    }

    /// Entropy-modeled compressed bytes for the periphery streams of **one
    /// eye** at an explicit codec `quality` (the rate controller's knob).
    ///
    /// Unlike [`FoveationPlan::periphery_bytes`], this path is content-,
    /// motion-, and foveation-true: each layer's bytes come from a
    /// [`qvr_codec::EntropyModel`] synthesized from the scene's detail and
    /// head motion and the layer's eccentricity (HVS attenuation), with the
    /// VRS downscale concentrating the surviving detail. Allocation-free.
    #[must_use]
    pub fn periphery_entropy_bytes(&self, content_detail: f64, motion: f64, quality: f64) -> f64 {
        let mid = EntropyModel::vrs_layer(
            self.middle_region_px,
            content_detail,
            motion,
            self.middle_rate.linear_scale(),
            self.e1_deg,
        );
        let out = EntropyModel::vrs_layer(
            self.outer_region_px,
            content_detail,
            motion,
            self.outer_rate.linear_scale(),
            self.e2_deg,
        );
        mid.frame_bytes(quality) + out.frame_bytes(quality)
    }

    /// Resolution reduction relative to native rendering (the Fig. 13
    /// "resolution reduction": one minus the area-weighted linear scale).
    #[must_use]
    pub fn resolution_reduction(&self) -> f64 {
        (1.0 - self.mean_linear_scale).clamp(0.0, 1.0)
    }
}

/// `e1` clamped into the controller's range `[MIN_E1, MAX_E1]`.
fn clamp_e1(e1_deg: f64) -> f64 {
    e1_deg.clamp(LayerPartition::MIN_E1, LayerPartition::MAX_E1)
}

/// A memo key: the display's pixel counts and raw field-of-view bits, and
/// the raw bits of the clamped e1.
type PartitionKey = (u32, u32, u64, u64, u64);

fn partition_key(display: &DisplayGeometry, e1: f64) -> PartitionKey {
    (
        display.width_px(),
        display.height_px(),
        display.fov_h().0.to_bits(),
        display.fov_v().0.to_bits(),
        e1.to_bits(),
    )
}

/// Eq. (1) partitions for one MAR model, kept per display and clamped e1.
///
/// [`LayerPartition::with_optimal_middle`] searches ~290 middle
/// eccentricities and integrates the fovea disc, at the panel centre
/// whatever the gaze, so its result depends only on e1, the display and
/// the MAR. A cell runs one [`crate::schemes::SystemConfig`], so it has one
/// MAR, and its memo (in [`crate::cell::CellMemo`]) serves every tenant,
/// whatever its display, resolving each (display, e1) once, and
/// [`PartitionMemo::plan`] equals [`FoveationPlan::resolve`] under the
/// memo's MAR model bit for bit.
///
/// The memo is keyed by the display and the bits of the clamped e1 and
/// holds one entry per distinct key, in key order, at most
/// [`PartitionMemo::CAP`] of them. A warm-started churn joiner walks from
/// an off-grid e1 in whole degrees, so each can add keys no other tenant
/// shares; when an insert would pass the cap the memo is cleared. Entries
/// are pure functions of their keys, so a cleared memo changes no bit.
///
/// The plan's fovea area comes from a ring table of the gaze
/// ([`TriangleFractionCache::fovea_area_fraction`]): a table that holds
/// the gaze and the clamped e1 serves the area it recorded, and any other
/// reads the disc itself, so the plan is the same either way.
#[derive(Debug)]
pub(crate) struct PartitionMemo {
    mar: MarModel,
    entries: RefCell<Vec<(PartitionKey, LayerPartition)>>,
}

impl PartitionMemo {
    /// The most entries the memo holds: a 32-tenant fleet of the
    /// benchmark's `foveated_fleet` workload visits 42–54 keys (seed 7's
    /// sixteen fleets).
    pub(crate) const CAP: usize = 256;

    /// An empty memo for `mar`. It allocates nothing until its first entry.
    pub(crate) fn new(mar: MarModel) -> Self {
        PartitionMemo {
            mar,
            entries: RefCell::new(Vec::new()),
        }
    }

    /// `FoveationPlan::resolve(e1_deg, display, mar, gaze)` under the
    /// memo's `mar`, with the fovea area read from `rings` where it holds
    /// it.
    pub(crate) fn plan(
        &self,
        e1_deg: f64,
        display: &DisplayGeometry,
        gaze: GazePoint,
        rings: &TriangleFractionCache,
    ) -> FoveationPlan {
        let e1 = clamp_e1(e1_deg);
        let key = partition_key(display, e1);
        let held = {
            let entries = self.entries.borrow();
            entries
                .binary_search_by_key(&key, |&(k, _)| k)
                .map(|i| entries[i].1)
        };
        let part = held.unwrap_or_else(|_| {
            let part = LayerPartition::with_optimal_middle(e1, display, &self.mar)
                .expect("clamped e1 is valid");
            let mut entries = self.entries.borrow_mut();
            if entries.len() == Self::CAP {
                entries.clear();
            }
            let at = entries.partition_point(|&(k, _)| k < key);
            entries.insert(at, (key, part));
            part
        });
        let fovea_area = rings.fovea_area_fraction(display, e1, gaze);
        FoveationPlan::from_partition(part, display, &self.mar, gaze, fovea_area)
    }

    /// How many partitions the memo holds.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.borrow().len()
    }
}

impl fmt::Display for FoveationPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "e1={:.1}°, e2={:.1}°, mid {} out {}, {:.0}% res reduction",
            self.e1_deg,
            self.e2_deg,
            self.middle_rate,
            self.outer_rate,
            self.resolution_reduction() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (DisplayGeometry, MarModel) {
        (DisplayGeometry::vive_pro_class(), MarModel::default())
    }

    #[test]
    fn vrs_quantize_never_coarser_than_target() {
        for target in [1.0, 0.9, 0.71, 0.6, 0.5, 0.4, 0.3, 0.25, 0.1, 0.01] {
            let rate = VrsRate::quantize(target);
            assert!(
                rate.linear_scale() + 1e-12 >= target.min(0.25),
                "target {target} got {rate}"
            );
            // And it is the coarsest such rate: the next-coarser rate (if
            // any) must violate the target.
            let all = VrsRate::all();
            if let Some(pos) = all.iter().position(|r| *r == rate) {
                if pos + 1 < all.len() {
                    assert!(
                        all[pos + 1].linear_scale() < target,
                        "target {target}: {rate} not coarsest"
                    );
                }
            }
        }
    }

    #[test]
    fn vrs_floor_is_4x4() {
        assert_eq!(VrsRate::quantize(0.001), VrsRate::Sixteenth);
    }

    #[test]
    fn plan_scales_coarsen_outward() {
        let (d, m) = setup();
        let plan = FoveationPlan::resolve(15.0, &d, &m, GazePoint::center());
        assert!(plan.middle_rate.linear_scale() >= plan.outer_rate.linear_scale());
        assert!(plan.e2_deg >= plan.e1_deg);
    }

    #[test]
    fn bigger_fovea_means_less_periphery_bytes() {
        let (d, m) = setup();
        let sm = SizeModel::default();
        let small = FoveationPlan::resolve(10.0, &d, &m, GazePoint::center());
        let large = FoveationPlan::resolve(45.0, &d, &m, GazePoint::center());
        assert!(large.periphery_bytes(&sm, 0.5, 1.0) < small.periphery_bytes(&sm, 0.5, 1.0));
    }

    #[test]
    fn periphery_quality_scales_bytes() {
        let (d, m) = setup();
        let sm = SizeModel::default();
        let plan = FoveationPlan::resolve(15.0, &d, &m, GazePoint::center());
        let full = plan.periphery_bytes(&sm, 0.5, 1.0);
        let half = plan.periphery_bytes(&sm, 0.5, 0.5);
        assert!((half / full - 0.5).abs() < 1e-9);
    }

    #[test]
    fn resolution_reduction_sensible_bounds() {
        let (d, m) = setup();
        for e1 in [5.0, 15.0, 30.0, 60.0, 90.0] {
            let plan = FoveationPlan::resolve(e1, &d, &m, GazePoint::center());
            let r = plan.resolution_reduction();
            assert!((0.0..1.0).contains(&r), "e1={e1}: reduction {r}");
        }
        // Small fovea: most of the frame is coarse.
        let small = FoveationPlan::resolve(5.0, &d, &m, GazePoint::center());
        assert!(small.resolution_reduction() > 0.4);
        // Huge fovea: almost everything native.
        let big = FoveationPlan::resolve(90.0, &d, &m, GazePoint::center());
        assert!(big.resolution_reduction() < 0.25);
    }

    #[test]
    fn rendered_pixels_below_native() {
        let (d, m) = setup();
        let plan = FoveationPlan::resolve(20.0, &d, &m, GazePoint::center());
        assert!(plan.rendered_px < d.pixels_per_eye() as f64 * 1.1);
        assert!(plan.rendered_px > 0.0);
    }

    #[test]
    fn plan_clamps_eccentricity() {
        let (d, m) = setup();
        let plan = FoveationPlan::resolve(2.0, &d, &m, GazePoint::center());
        assert_eq!(plan.e1_deg, LayerPartition::MIN_E1);
        let plan = FoveationPlan::resolve(500.0, &d, &m, GazePoint::center());
        assert_eq!(plan.e1_deg, LayerPartition::MAX_E1);
    }

    /// Every field of a plan, floats as bits.
    fn plan_bits(p: &FoveationPlan) -> ([u64; 8], VrsRate, VrsRate) {
        let floats = [
            p.e1_deg,
            p.e2_deg,
            p.max_extent_deg,
            p.fovea_area_fraction,
            p.middle_region_px,
            p.outer_region_px,
            p.rendered_px,
            p.mean_linear_scale,
        ];
        (floats.map(f64::to_bits), p.middle_rate, p.outer_rate)
    }

    #[test]
    fn memoized_plans_equal_resolve_bit_for_bit() {
        let mar = MarModel::default();
        // Every integer e1 from 5 to 90, twice; off-grid values, one a
        // single ulp above 5; and values the clamp maps onto 5 and 90.
        let mut e1s: Vec<f64> = (5..=90).chain((5..=90).rev()).map(f64::from).collect();
        let off_grid = [5.000000000000001, 7.25, 33.3, 89.99];
        e1s.extend(off_grid.iter().chain(&[4.0, 120.0]).chain(&off_grid));
        let gazes = [
            GazePoint::center(),
            GazePoint::clamped(0.4, -0.3),
            GazePoint::clamped(-1.0, 1.0),
            GazePoint::clamped(0.93, 0.1),
            GazePoint::clamped(0.0, -1.0),
        ];
        let field = qvr_scene::ComplexityField::default();
        // Both shipped displays, interleaved through one memo as a cell's
        // tenants are: they share a field of view, so only the partition
        // key's pixel counts tell their entries apart.
        let displays = [
            DisplayGeometry::vive_pro_class(),
            DisplayGeometry::low_res_class(),
        ];
        let memo = PartitionMemo::new(mar);
        assert_eq!(
            memo.entries.borrow().capacity(),
            0,
            "allocates nothing when built"
        );
        // Each gaze's ring table on each display, whose recorded areas the
        // plan reads, and an empty table, with which the plan integrates
        // the disc.
        let tables = displays.map(|display| {
            gazes.map(|gaze| {
                let mut rings = TriangleFractionCache::new();
                field.record_rings(&display, gaze, &mut rings);
                rings
            })
        });
        let empty = TriangleFractionCache::new();
        let mut keys = std::collections::BTreeSet::new();
        for (k, &e1) in e1s.iter().enumerate() {
            for i in [k % 2, (k + 1) % 2] {
                let display = displays[i];
                let gaze = gazes[k % gazes.len()];
                keys.insert(partition_key(&display, clamp_e1(e1)));
                let resolved = FoveationPlan::resolve(e1, &display, &mar, gaze);
                // The gaze's own table, another gaze's and the empty one.
                let own = &tables[i][k % gazes.len()];
                let other = &tables[i][(k + 1) % gazes.len()];
                for rings in [own, other, &empty] {
                    let memoized = memo.plan(e1, &display, gaze, rings);
                    assert_eq!(
                        plan_bits(&memoized),
                        plan_bits(&resolved),
                        "e1={e1} at {gaze:?} on {display}"
                    );
                }
            }
        }
        // One entry per distinct (display, clamped e1), in key order.
        let held: Vec<PartitionKey> = memo.entries.borrow().iter().map(|&(key, _)| key).collect();
        assert_eq!(held, keys.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn a_full_memo_clears_and_still_equals_resolve() {
        // More distinct e1s than the cap, twice over: each insert past the
        // cap starts the memo afresh, and every plan still equals
        // `resolve`.
        let (d, mar) = setup();
        let memo = PartitionMemo::new(mar);
        let rings = TriangleFractionCache::new();
        let e1s = (0..PartitionMemo::CAP + 40).map(|i| 5.0 + i as f64 * 0.25);
        for e1 in e1s.clone().chain(e1s) {
            let memoized = memo.plan(e1, &d, GazePoint::center(), &rings);
            let resolved = FoveationPlan::resolve(e1, &d, &mar, GazePoint::center());
            assert_eq!(plan_bits(&memoized), plan_bits(&resolved), "e1={e1}");
            assert!(memo.len() <= PartitionMemo::CAP);
        }
        assert!(memo.len() < PartitionMemo::CAP, "the memo never cleared");
    }

    #[test]
    fn vrs_display_labels() {
        assert_eq!(VrsRate::Quarter.to_string(), "2x2");
        assert_eq!(VrsRate::Sixteenth.to_string(), "4x4");
    }
}
