//! The software-layer foveation framework (paper Sec. 3.2, Fig. 7).
//!
//! Q-VR's software layer splits the VR graphics into a local client (the
//! "Fovea" channel) and a remote server (the "Periphery" channels with VRS
//! rates), connected by parallel per-layer streams and composed by a
//! "Display" channel. [`FoveationPlan`] is the per-frame resolved plan
//! (eccentricities, VRS-quantised layer scales, per-layer pixel and byte
//! volumes) that both the scheme pipelines and the benchmarks consume.

use qvr_codec::{Attenuation, EntropyModel, Plane, QuantSteps, SizeModel};
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

/// A memo of at most `N` values (`N` a power of two), one per distinct
/// key of `W` words: an open-addressed table of `2N` slots, probed
/// linearly from the key's hash, holds each key and one plus the index of
/// its value (0 marks an empty slot), and the values sit in insertion
/// order. Every buffer is sized at the first lookup, so a cell that never
/// asks allocates nothing, and an insert that would pass `N` entries
/// clears the memo first (emptying the slots clears only their marks), so
/// it never allocates after its first lookup and its slots are never more
/// than half full.
#[derive(Debug)]
struct Capped<const W: usize, V, const N: usize> {
    keys: Vec<[u64; W]>,
    marks: Vec<u32>,
    values: Vec<V>,
}

impl<const W: usize, V, const N: usize> Capped<W, V, N> {
    fn new() -> Self {
        Capped {
            keys: Vec::new(),
            marks: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The slot `key`'s probe starts at: the top bits of a
    /// multiply-rotate hash of its words.
    fn home(key: &[u64; W]) -> usize {
        let hash = key.iter().fold(0u64, |h, &word| {
            (h.rotate_left(5) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        });
        (hash >> (64 - (2 * N).trailing_zeros())) as usize
    }

    /// The value held for `key`, computed by `value` and inserted if the
    /// memo does not hold it.
    fn get_or_insert_with(&mut self, key: [u64; W], value: impl FnOnce() -> V) -> &V {
        if self.marks.is_empty() {
            self.keys = vec![[0; W]; 2 * N];
            self.marks = vec![0; 2 * N];
            self.values.reserve_exact(N);
        }
        let mask = 2 * N - 1;
        let mut slot = Self::home(&key);
        while self.marks[slot] != 0 {
            if self.keys[slot] == key {
                return &self.values[self.marks[slot] as usize - 1];
            }
            slot = (slot + 1) & mask;
        }
        let value = value();
        if self.values.len() == N {
            self.marks.fill(0);
            self.values.clear();
            slot = Self::home(&key);
        }
        self.values.push(value);
        self.keys[slot] = key;
        self.marks[slot] = self.values.len() as u32;
        &self.values[self.values.len() - 1]
    }
}

/// A memo key: the display's pixel counts, its raw field-of-view bits
/// and the raw bits of the clamped e1.
type PartitionKey = [u64; 4];

fn partition_key(display: &DisplayGeometry, e1: f64) -> PartitionKey {
    [
        u64::from(display.width_px()) << 32 | u64::from(display.height_px()),
        display.fov_h().0.to_bits(),
        display.fov_v().0.to_bits(),
        e1.to_bits(),
    ]
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
/// holds one entry per distinct key, at most [`PartitionMemo::CAP`] of
/// them, in a table sized at its first plan. A warm-started churn joiner
/// walks from an off-grid e1 in whole degrees, so each can add keys no
/// other tenant shares; when an insert would pass the cap the memo is
/// cleared. Entries are pure functions of their keys, so a cleared memo
/// changes no bit.
///
/// The plan's fovea area comes from a ring table of the gaze
/// ([`TriangleFractionCache::fovea_area_fraction`]): a table that holds
/// the gaze and the clamped e1 serves the area it recorded, and any other
/// reads the disc itself, so the plan is the same either way.
#[derive(Debug)]
pub(crate) struct PartitionMemo {
    mar: MarModel,
    partitions: RefCell<Capped<4, LayerPartition, { PartitionMemo::CAP }>>,
}

impl PartitionMemo {
    /// The most entries the memo holds: a 32-tenant fleet of the
    /// benchmark's `foveated_fleet` workload visits 42–54 keys (seed 7's
    /// sixteen fleets).
    pub(crate) const CAP: usize = 256;

    /// An empty memo for `mar`. It allocates nothing until its first plan.
    pub(crate) fn new(mar: MarModel) -> Self {
        PartitionMemo {
            mar,
            partitions: RefCell::new(Capped::new()),
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
        let part =
            *self
                .partitions
                .borrow_mut()
                .get_or_insert_with(partition_key(display, e1), || {
                    LayerPartition::with_optimal_middle(e1, display, &self.mar)
                        .expect("clamped e1 is valid")
                });
        let fovea_area = rings.fovea_area_fraction(display, e1, gaze);
        FoveationPlan::from_partition(part, display, &self.mar, gaze, fovea_area)
    }

    /// How many partitions the memo holds.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.partitions.borrow().values.len()
    }
}

/// Entropy-model prices ([`qvr_codec::stats`]) for the layers a cell's
/// tenants stream, each computed once per distinct input.
///
/// A layer's price is two block costs, one per plane
/// ([`Plane::block_cost`]), and each plane's cost reads only some of the
/// layer's inputs: chroma reads the motion, the VRS scale, the
/// eccentricity and the quantiser scale; luma reads those and the content
/// detail. LIWC's probe and the plan a frame ships often share the outer
/// layer's eccentricity and VRS rate, and head motion saturates the motion
/// index, so a cell's tenants repeat plane inputs, and they repeat an
/// eccentricity far more often. The memo keeps each plane's cost keyed by
/// the raw bits of exactly the inputs that plane reads, and each
/// eccentricity's [`Attenuation`] table keyed by its bits.
///
/// Every entry is a pure function of its key, so
/// [`EntropyMemo::periphery_bytes`] equals
/// [`FoveationPlan::periphery_entropy_bytes`], and
/// [`EntropyMemo::layer_bytes`] equals
/// [`EntropyModel::vrs_layer`]`(..).frame_bytes(quality)`, bit for bit:
/// those unmemoized calls are its oracle. Each table holds at most
/// [`EntropyMemo::CAP`] entries, in buffers sized at the memo's first
/// price (a cell that never prices allocates nothing), and is cleared
/// when an insert would pass the cap, so pricing allocates only once. A
/// cell keeps one memo for all its tenants (a fleet cell is stepped on
/// one thread).
#[derive(Debug)]
pub struct EntropyMemo {
    attenuations: RefCell<Capped<1, Attenuation, { EntropyMemo::CAP }>>,
    luma: RefCell<Capped<5, f64, { EntropyMemo::CAP }>>,
    chroma: RefCell<Capped<4, f64, { EntropyMemo::CAP }>>,
}

impl EntropyMemo {
    /// The most entries each of the memo's three tables holds.
    pub const CAP: usize = 256;

    /// An empty memo. It allocates nothing until its first price.
    #[must_use]
    pub fn new() -> Self {
        EntropyMemo {
            attenuations: RefCell::new(Capped::new()),
            luma: RefCell::new(Capped::new()),
            chroma: RefCell::new(Capped::new()),
        }
    }

    /// [`FoveationPlan::periphery_entropy_bytes`]`(content_detail, motion,
    /// quality)` of `plan`, from the memo.
    #[must_use]
    pub fn periphery_bytes(
        &self,
        plan: &FoveationPlan,
        content_detail: f64,
        motion: f64,
        quality: f64,
    ) -> f64 {
        let mid = self.layer_bytes(
            plan.middle_region_px,
            content_detail,
            motion,
            plan.middle_rate.linear_scale(),
            plan.e1_deg,
            quality,
        );
        let out = self.layer_bytes(
            plan.outer_region_px,
            content_detail,
            motion,
            plan.outer_rate.linear_scale(),
            plan.e2_deg,
            quality,
        );
        mid + out
    }

    /// [`EntropyModel::vrs_layer`]`(native_pixels, detail, motion,
    /// linear_scale, eccentricity_deg).frame_bytes(quality)`, from the memo.
    #[must_use]
    pub fn layer_bytes(
        &self,
        native_pixels: f64,
        detail: f64,
        motion: f64,
        linear_scale: f64,
        eccentricity_deg: f64,
        quality: f64,
    ) -> f64 {
        let quant_scale = EntropyModel::quant_scale_for_quality(quality);
        // The quantiser steps, computed on the layer's first miss.
        let mut steps = None;
        let mut cost = |plane: Plane| {
            let steps = steps.get_or_insert_with(|| QuantSteps::at(quant_scale));
            let mut attenuations = self.attenuations.borrow_mut();
            let attenuation = attenuations.get_or_insert_with([eccentricity_deg.to_bits()], || {
                Attenuation::at(eccentricity_deg)
            });
            plane.block_cost(detail, motion, linear_scale, attenuation, steps)
        };
        let chroma_key = [motion, linear_scale, eccentricity_deg, quant_scale].map(f64::to_bits);
        let luma_key =
            [detail, motion, linear_scale, eccentricity_deg, quant_scale].map(f64::to_bits);
        let luma = *self
            .luma
            .borrow_mut()
            .get_or_insert_with(luma_key, || cost(Plane::Luma));
        let chroma = *self
            .chroma
            .borrow_mut()
            .get_or_insert_with(chroma_key, || cost(Plane::Chroma));
        EntropyModel::vrs_layer_bytes(native_pixels, linear_scale, luma, chroma)
    }

    /// How many attenuation tables, luma costs and chroma costs the memo
    /// holds.
    #[cfg(test)]
    pub(crate) fn len(&self) -> [usize; 3] {
        [
            self.attenuations.borrow().values.len(),
            self.luma.borrow().values.len(),
            self.chroma.borrow().values.len(),
        ]
    }
}

impl Default for EntropyMemo {
    fn default() -> Self {
        EntropyMemo::new()
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
            memo.partitions.borrow().marks.capacity(),
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
        // One entry per distinct (display, clamped e1).
        assert_eq!(memo.len(), keys.len());
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

    /// Asserts a memoized price equals its oracle bit for bit, or is NaN
    /// where the oracle is (Rust leaves a NaN's sign and payload to the
    /// codegen, so two NaNs from the same operations may differ).
    fn assert_same_price(memoized: f64, oracle: f64, what: &dyn Fn() -> String) {
        if oracle.is_nan() {
            assert!(memoized.is_nan(), "{}: {memoized} vs NaN", what());
        } else {
            assert_eq!(
                memoized.to_bits(),
                oracle.to_bits(),
                "{}: {memoized} vs {oracle}",
                what()
            );
        }
    }

    #[test]
    fn memoized_prices_equal_the_entropy_model_bit_for_bit() {
        use qvr_codec::EntropyModel;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xe47_2091);
        // Values at and past every clamp edge, and the non-finite ones.
        let special = [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            0.05,
            0.049,
            1.0,
            1.0000000000000002,
            -1.0,
            f64::MIN_POSITIVE,
        ];
        // Each input is special, reused from a small pool (so keys
        // repeat and the memo hits), or a fresh draw around its range.
        let mut draw = |pool: &[f64], lo: f64, hi: f64| match rng.gen_range(0..10u32) {
            0 => special[rng.gen_range(0..special.len())],
            1..=5 => pool[rng.gen_range(0..pool.len())],
            _ => rng.gen_range(lo..hi),
        };
        let details = [0.0, 0.3, 0.55, 1.0];
        let motions = [0.0, 0.42, 1.0];
        let scales = VrsRate::all().map(|r| r.linear_scale());
        let eccentricities = [0.0, 5.0, 17.0, 33.25, 90.0];
        let qualities = [0.05, 0.35, 0.6, 0.95];
        let memo = EntropyMemo::new();
        let mut peak = [0; 3];
        let mut clears = 0;
        for i in 0..6_000 {
            let pixels = if i % 7 == 0 {
                special[i % special.len()]
            } else {
                1.0e6 * (i % 13) as f64
            };
            let (detail, motion) = (draw(&details, -0.2, 1.2), draw(&motions, -0.2, 1.2));
            let scale = draw(&scales, 0.0, 1.2);
            let eccentricity = draw(&eccentricities, -10.0, 130.0);
            let quality = draw(&qualities, -0.1, 1.1);
            let before = memo.len();
            let memoized = memo.layer_bytes(pixels, detail, motion, scale, eccentricity, quality);
            let oracle = EntropyModel::vrs_layer(pixels, detail, motion, scale, eccentricity)
                .frame_bytes(quality);
            let inputs = || format!("{pixels} {detail} {motion} {scale} {eccentricity} {quality}");
            assert_same_price(memoized, oracle, &inputs);
            // The full-frame layer a remote stream prices.
            let memoized = memo.layer_bytes(pixels, detail, motion, 1.0, 0.0, quality);
            let oracle = EntropyModel::layer(pixels, detail, motion, 1.0, 0.0).frame_bytes(quality);
            assert_same_price(memoized, oracle, &inputs);
            let held = memo.len();
            for t in 0..3 {
                assert!(held[t] <= EntropyMemo::CAP, "table {t} holds {}", held[t]);
                peak[t] = peak[t].max(held[t]);
                clears += usize::from(held[t] < before[t]);
            }
        }
        assert!(clears > 0, "the memo never overflowed (peak {peak:?})");
        assert_eq!(peak[1], EntropyMemo::CAP, "luma keys fill the memo");
    }

    #[test]
    fn memoized_periphery_bytes_equal_the_plan_bit_for_bit() {
        let (display, mar) = setup();
        let memo = EntropyMemo::new();
        for e1 in [5.0, 12.0, 12.0, 33.3, 90.0] {
            let plan = FoveationPlan::resolve(e1, &display, &mar, GazePoint::clamped(0.2, -0.1));
            for (detail, motion, quality) in [(0.4, 1.0, 0.6), (0.4, 1.0, 0.6), (0.9, 0.1, 0.2)] {
                let memoized = memo.periphery_bytes(&plan, detail, motion, quality);
                let oracle = plan.periphery_entropy_bytes(detail, motion, quality);
                assert_same_price(memoized, oracle, &|| {
                    format!("{plan} {detail} {motion} {quality}")
                });
            }
        }
    }

    #[test]
    fn vrs_display_labels() {
        assert_eq!(VrsRate::Quarter.to_string(), "2x2");
        assert_eq!(VrsRate::Sixteenth.to_string(), "4x4");
    }
}
