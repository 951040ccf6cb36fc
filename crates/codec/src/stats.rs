//! Per-layer residual statistics and an entropy-coded frame-size model.
//!
//! The fleet hot path cannot run the real [`crate::TransformCodec`] per
//! frame per tenant — encoding a single 64×64 probe frame costs more than
//! stepping an entire fleet round. Instead, this module models what the
//! coder *would* emit: per-zigzag-index Laplacian-style coefficient
//! statistics ([`BlockStats`]) synthesized from scene content detail,
//! frame-to-frame motion, the layer's VRS shading scale, and its retinal
//! eccentricity, feeding an [`EntropyModel`] that predicts entropy-coded
//! bytes as a function of the quantiser step.
//!
//! The model mirrors the real coder's cost structure exactly — one marker
//! and one end byte per block, and per nonzero coefficient a run byte plus
//! LEB128-style VLC bytes — so the only modelled quantity is the
//! probability that a coefficient at zigzag index `i` survives quantiser
//! step Δᵢ. For a Laplacian with scale `bᵢ` that is `exp(−Δᵢ/2bᵢ)`; real
//! block populations are mixtures (flat interiors vs edges), which a
//! stretched exponential `exp(−(θΔᵢ/2bᵢ)^ρ)` captures. The coefficient
//! tables and the shape constants `θ`, `ρ` are calibrated against the real
//! [`crate::TransformCodec`] on synthetic game frames; the property test
//! `entropy_model_tracks_real_codec` pins the estimate within ~15% of the
//! actual encoded size across a detail × quality grid.
//!
//! A caller that prices many layers can keep what repeats between them:
//! an eccentricity's [`Attenuation`], a quantiser scale's [`QuantSteps`]
//! and each plane's [`Plane::block_cost`], which
//! [`EntropyModel::vrs_layer_bytes`] assembles into a layer's bytes.
//! [`BlockStats::layer`] and [`EntropyModel::bytes_at_step`] are built
//! from the same steps, so those pieces give their bits exactly.

use crate::transform::QUANT_BASE;

/// Mean |DCT coefficient| per zigzag index for the luma plane of
/// zero-detail game content (flat regions + checker edges + gradient),
/// measured over 8×8 blocks of the calibration corpus.
const LUMA_BASE: [f64; 64] = [
    3.747805904597044,
    0.4487786666722968,
    0.42609060399638604,
    0.15811869819179564,
    0.35360224661417305,
    0.15811871234887354,
    0.15199481505260337,
    0.13121881004190072,
    0.13121877535013482,
    0.1496230980964735,
    0.0,
    0.124168605892919,
    0.0486941832350567,
    0.12416860013036057,
    0.0,
    0.10068274756486062,
    0.0,
    0.04607791005400941,
    0.04607791895978153,
    0.0,
    0.09997523381349405,
    0.06549489924951515,
    0.08296683104708791,
    0.0,
    0.04360221448587254,
    0.0,
    0.08296680459170602,
    0.06549489206646744,
    0.0849332290304119,
    0.05435261124512181,
    0.030788283416768536,
    0.0,
    0.0,
    0.030788292351644486,
    0.05435264788684435,
    0.08475467388121083,
    0.07033585238968953,
    0.020169804483884946,
    0.0291340789408423,
    0.0,
    0.02913407183950767,
    0.020169793424429372,
    0.07033583117299713,
    0.02610103324695956,
    0.019086099782725796,
    0.0,
    0.0,
    0.01908610522514209,
    0.02610104480118025,
    0.02469866107276175,
    0.0,
    0.019466765894321725,
    0.0,
    0.024698657522094436,
    0.0,
    0.012752929498674348,
    0.012752930910210125,
    0.0,
    0.016503120968991425,
    0.008354608828085475,
    0.01650312201672932,
    0.01081140669703018,
    0.010811408435984049,
    0.013990662122523645,
];

/// Added mean |DCT coefficient| per unit content detail (luma), from the
/// same calibration corpus (texture noise scales linearly with detail).
const LUMA_SLOPE: [f64; 64] = [
    0.0,
    0.016833401356507238,
    0.05009770771255223,
    0.039365379672123446,
    0.03524076080066152,
    0.030759530905420385,
    0.026293251848983346,
    0.0340969302051235,
    0.04012106475420296,
    0.022752930262011695,
    0.055862764035370806,
    0.03571683992049657,
    0.03753891246742569,
    0.023264269009814598,
    0.0415341805096905,
    0.012955011905432912,
    0.05107399882399477,
    0.034511609526816756,
    0.022984798066318035,
    0.05103408626746386,
    0.03869174403047415,
    0.03324006348840655,
    0.03159518536995165,
    0.05505365788121708,
    0.035204281855840236,
    0.04250115415197797,
    0.030501695320708677,
    0.038651356678187726,
    0.02358417469122287,
    0.030075811635470018,
    0.045861410500947386,
    0.040039356317720376,
    0.049724573371349834,
    0.03584185952786356,
    0.03750405352911912,
    0.02408751246479901,
    0.019922725317883305,
    0.045459552929969504,
    0.03098607478023041,
    0.054519159835763276,
    0.03628369692887645,
    0.0347326375922421,
    0.03752825222181855,
    0.03615684680698905,
    0.038004511647159234,
    0.043596883668215014,
    0.054605233046459034,
    0.03853193006943911,
    0.03405047336127609,
    0.026713272516644793,
    0.04117264927481301,
    0.03983306094596628,
    0.05058062600437552,
    0.039076380264305044,
    0.049745518117561005,
    0.03801595505501609,
    0.04372805994353257,
    0.04781481362442719,
    0.030231110853492282,
    0.040000021319428924,
    0.0375568684830796,
    0.04279394763580058,
    0.038113445618364494,
    0.04310597455332754,
];

/// Mean |DCT coefficient| per zigzag index for the subsampled chroma
/// planes. Chroma carries the palette contrast, not the texture noise, so
/// it is detail-independent in the calibration corpus.
const CHROMA_BASE: [f64; 64] = [
    0.09181377173808869,
    0.032003332534377565,
    0.032003332835575715,
    0.026135700699041222,
    0.09947564781759866,
    0.026135700724514647,
    0.007933575073958844,
    0.08123733835964231,
    0.0812373365406529,
    0.007933574511216596,
    0.010296126287467691,
    0.024659843285917304,
    0.06634292179660406,
    0.024659842616529204,
    0.010296126190095796,
    0.013556412350659689,
    0.03200334258872317,
    0.02013859732687706,
    0.020138597996265162,
    0.03200334042776376,
    0.013556408508157912,
    0.0033961329708960385,
    0.04213724633882521,
    0.02613570413814159,
    0.006113133531471249,
    0.026135706444620155,
    0.042137242780881934,
    0.0033961349067573405,
    0.01015345809781613,
    0.010556162924331147,
    0.0344116136948287,
    0.007933575492643286,
    0.00793357407746953,
    0.03441161349473987,
    0.010556162626016885,
    0.01015345430755599,
    0.03155988018261269,
    0.008620751461421605,
    0.010445751784573076,
    0.01029612782804179,
    0.010445750325743575,
    0.008620749995316146,
    0.03155988347134553,
    0.02577355283392535,
    0.0026168543990934268,
    0.013556408823205857,
    0.013556410485762171,
    0.002616854697407689,
    0.02577355185894703,
    0.007823640098649776,
    0.0033961338849621825,
    0.01784906672219222,
    0.0033961342105612857,
    0.007823640771675855,
    0.01015345722407801,
    0.004471521826417302,
    0.0044715240655932575,
    0.010153456400075811,
    0.01336856296256883,
    0.0011202006307939882,
    0.013368562846153509,
    0.003349073045683326,
    0.003349073791923729,
    0.010012763668783009,
];

/// Fitted tail-shape constants of the stretched-exponential survival
/// probability `p_nz = exp(−(θ·Δ/2b)^ρ)` (calibrated against the real
/// coder on the detail × quality grid).
const THETA: f64 = 1.85;
/// See [`THETA`].
const RHO: f64 = 0.65;

/// Effective detail gain: the texture-noise slope understates how much
/// coded size grows with detail (edge sharpening under quantisation), so
/// the calibrated model scales the per-unit-detail slope up by this much.
const DETAIL_GAIN: f64 = 2.7;

/// Amplitude boost exponent for downscaled (VRS-shaded) content: box
/// filtering to linear scale `s` concentrates the surviving energy into
/// fewer blocks, raising per-block amplitudes by `s^−β` (this is what
/// makes bytes scale *sub-quadratically* with resolution, the γ < 2 of
/// the closed-form [`crate::SizeModel`]).
const SCALE_BOOST_EXP: f64 = 0.55;

/// Eccentricity at which high-frequency content is attenuated by `1/e` at
/// the top of the zigzag scan (peripheral layers are rendered coarse and
/// blurred, so their residual spectra decay faster).
const ECC_REF_DEG: f64 = 60.0;

/// Fraction of intra-frame statistics that remains in the residual when
/// the stream is fully motion-compensated (motion = 0): static content
/// still refreshes disocclusions and shading.
const MOTION_FLOOR: f64 = 0.3;

/// Per-layer Laplacian-style coefficient statistics: one scale per zigzag
/// index for luma and for the (subsampled) chroma planes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockStats {
    /// Laplacian scale per zigzag index, luma plane.
    pub luma: [f64; 64],
    /// Laplacian scale per zigzag index, chroma planes.
    pub chroma: [f64; 64],
}

impl BlockStats {
    /// Statistics for one streamed layer.
    ///
    /// * `detail` — scene content detail in `[0, 1]` (clamped).
    /// * `motion` — normalised frame-to-frame motion magnitude; `0` is a
    ///   static scene (residuals shrink toward `MOTION_FLOOR`), `1` a
    ///   brisk head turn (intra-like statistics). Values above 1 clamp.
    /// * `linear_scale` — VRS linear shading scale in `(0, 1]`; coarser
    ///   shading concentrates energy, boosting amplitudes by `s^−β`.
    /// * `eccentricity_deg` — the layer's retinal eccentricity; far
    ///   periphery is blurred, so its high-frequency tail decays faster.
    #[must_use]
    pub fn layer(detail: f64, motion: f64, linear_scale: f64, eccentricity_deg: f64) -> Self {
        let factors = factors(motion, linear_scale, &Attenuation::at(eccentricity_deg));
        BlockStats {
            luma: luma_scales(detail, &factors),
            chroma: chroma_scales(&factors),
        }
    }
}

/// The high-frequency attenuation of a layer at one retinal eccentricity:
/// one factor per zigzag index, `exp(−(i/63)·ecc/ECC_REF_DEG)`. It depends
/// on nothing else, so a caller that prices many layers at a few
/// eccentricities computes each table once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Attenuation([f64; 64]);

impl Attenuation {
    /// The table at `eccentricity_deg` (negative values read as 0).
    #[must_use]
    pub fn at(eccentricity_deg: f64) -> Self {
        let ecc = eccentricity_deg.max(0.0) / ECC_REF_DEG;
        Attenuation(std::array::from_fn(|zi| (-(zi as f64 / 63.0) * ecc).exp()))
    }
}

/// The per-index amplitude factor `motion_factor · boost · attenuation`
/// shared by both planes.
fn factors(motion: f64, linear_scale: f64, attenuation: &Attenuation) -> [f64; 64] {
    let motion_factor = MOTION_FLOOR + (1.0 - MOTION_FLOOR) * motion.clamp(0.0, 1.0);
    let boost = linear_scale.clamp(0.05, 1.0).powf(-SCALE_BOOST_EXP);
    std::array::from_fn(|zi| motion_factor * boost * attenuation.0[zi])
}

/// Luma Laplacian scales: base plus detail-driven texture, times `factors`.
fn luma_scales(detail: f64, factors: &[f64; 64]) -> [f64; 64] {
    let detail = detail.clamp(0.0, 1.0);
    std::array::from_fn(|zi| (LUMA_BASE[zi] + DETAIL_GAIN * detail * LUMA_SLOPE[zi]) * factors[zi])
}

/// Chroma Laplacian scales (detail-independent), times `factors`.
fn chroma_scales(factors: &[f64; 64]) -> [f64; 64] {
    std::array::from_fn(|zi| CHROMA_BASE[zi] * factors[zi])
}

/// One coded plane of a 4:2:0 frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plane {
    /// The full-resolution luma plane; its statistics read content detail.
    Luma,
    /// Each quarter-resolution chroma plane; its statistics ignore detail.
    Chroma,
}

impl Plane {
    /// Expected payload bytes of one coded 8×8 block of this plane: the
    /// per-block cost [`EntropyModel::bytes_at_step`] charges for a layer
    /// built by [`BlockStats::layer`] from the same inputs, with the
    /// eccentricity's `attenuation` and the quantiser `steps` precomputed.
    /// [`Plane::Chroma`] ignores `detail`.
    #[must_use]
    pub fn block_cost(
        self,
        detail: f64,
        motion: f64,
        linear_scale: f64,
        attenuation: &Attenuation,
        steps: &QuantSteps,
    ) -> f64 {
        let factors = factors(motion, linear_scale, attenuation);
        let scales = match self {
            Plane::Luma => luma_scales(detail, &factors),
            Plane::Chroma => chroma_scales(&factors),
        };
        block_cost(&scales, &steps.0)
    }
}

/// Below this exponent `p_big = exp(x)` is under `exp(−37)` ≈ 8.5e-17,
/// less than 2⁻⁵² (half an ulp of 2.0), so `2.0 + p_big` rounds to 2.0
/// exactly and [`block_cost`] skips the `exp`.
const P_BIG_INERT: f64 = -37.0;

/// Above this `t = θΔ/2b` an AC coefficient's term cannot reach the sum:
/// `p_nz = exp(−t^ρ) < exp(−261^0.65) ≈ exp(−37.2)`, and `p_big ≤ 1`, so
/// `p_nz·(2 + p_big) < 3·exp(−37.2)` ≈ 2.1e-16, less than 2⁻⁵². The block
/// cost starts at 2.0 and only grows, so that is under half an ulp of it
/// and adding the term leaves every bit unchanged.
const P_NZ_INERT: f64 = 261.0;

/// The quantiser step Δᵢ of every zigzag index at one quantiser scale.
/// They depend on nothing else, so both planes of a layer, and every
/// layer priced at the same scale, can share one table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantSteps([f64; 64]);

impl QuantSteps {
    /// The steps at `quant_scale` (floored at 1e-6, as
    /// [`EntropyModel::bytes_at_step`] floors it).
    #[must_use]
    pub fn at(quant_scale: f64) -> Self {
        let quant_scale = quant_scale.max(1e-6);
        QuantSteps(std::array::from_fn(|zi| {
            f64::from(QUANT_BASE[zi]) * quant_scale / 255.0
        }))
    }
}

/// Expected payload bytes of one coded 8×8 block with coefficient scales
/// `b` at quantiser steps `delta` (from [`QuantSteps`]), mirroring the
/// real coder's cost structure: `BLOCK_CODED` + `RLE_END` markers, and per
/// surviving coefficient a run byte plus VLC bytes.
///
/// An AC term under half an ulp of the running cost is skipped, and so is
/// an `exp` that cannot move `2.0 + p_big` (see [`P_NZ_INERT`] and
/// [`P_BIG_INERT`]): the sum is bit-identical to adding every term. A NaN
/// `t` or exponent fails both tests and takes the full path.
fn block_cost(b: &[f64; 64], delta: &[f64; 64]) -> f64 {
    let mut cost = 2.0;
    for zi in 0..64 {
        let (b, delta) = (b[zi], delta[zi]);
        if b <= 0.0 {
            continue;
        }
        if zi == 0 {
            // DC is a concentrated magnitude (block mean × 8), not a
            // zero-centred Laplacian: code its typical VLC length.
            let q_typ = b / delta;
            if q_typ >= 0.5 {
                cost += 1.0 + vlc_bytes(2.0 * q_typ);
            } else {
                cost += 2.0 * (-THETA * delta / (2.0 * b)).exp();
            }
        } else {
            let t = THETA * delta / (2.0 * b);
            if t > P_NZ_INERT {
                continue;
            }
            let p_nz = (-t.powf(RHO)).exp();
            // Probability the coefficient needs a second VLC byte
            // (|q| > 63), conditional on being nonzero.
            let x = -63.0 * delta / b;
            let bytes = if x < P_BIG_INERT { 2.0 } else { 2.0 + x.exp() };
            cost += p_nz * bytes;
        }
    }
    cost
}

/// VLC length in bytes of the zigzag-mapped unsigned magnitude `u`
/// (7 payload bits per byte).
fn vlc_bytes(u: f64) -> f64 {
    if u < 128.0 {
        1.0
    } else if u < 16384.0 {
        2.0
    } else if u < 2_097_152.0 {
        3.0
    } else {
        4.0
    }
}

/// Predicts entropy-coded frame bytes from [`BlockStats`] as a function of
/// the quantiser step, mirroring [`crate::TransformCodec`]'s bitstream
/// layout (4:2:0 planes, per-block markers, run + VLC coefficients, and
/// the 16-byte header).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EntropyModel {
    stats: BlockStats,
    pixels: f64,
}

impl EntropyModel {
    /// A model over `pixels` *encoded* luma pixels (i.e. after any VRS
    /// downscale) with the given layer statistics.
    #[must_use]
    pub fn new(pixels: f64, stats: BlockStats) -> Self {
        EntropyModel {
            stats,
            pixels: pixels.max(0.0),
        }
    }

    /// A model for a VRS-shaded layer given its *native* pixel count: the
    /// encoder sees `native_pixels × linear_scale²` pixels with
    /// scale-boosted statistics.
    #[must_use]
    pub fn vrs_layer(
        native_pixels: f64,
        detail: f64,
        motion: f64,
        linear_scale: f64,
        eccentricity_deg: f64,
    ) -> Self {
        let s = linear_scale.clamp(0.05, 1.0);
        EntropyModel::layer(native_pixels * s * s, detail, motion, s, eccentricity_deg)
    }

    /// Convenience: build the [`BlockStats`] and the model in one call.
    #[must_use]
    pub fn layer(
        pixels: f64,
        detail: f64,
        motion: f64,
        linear_scale: f64,
        eccentricity_deg: f64,
    ) -> Self {
        EntropyModel::new(
            pixels,
            BlockStats::layer(detail, motion, linear_scale, eccentricity_deg),
        )
    }

    /// The quantiser scale the real coder uses at `quality` (its
    /// `quant_scale` mapping, including the f32 rounding).
    #[must_use]
    pub fn quant_scale_for_quality(quality: f64) -> f64 {
        let q = quality.clamp(0.01, 1.0);
        f64::from((3.5 * (-3.2 * q).exp()).max(0.04) as f32)
    }

    /// Predicted encoded size in bytes at the codec `quality` knob.
    #[must_use]
    pub fn frame_bytes(&self, quality: f64) -> f64 {
        self.bytes_at_step(Self::quant_scale_for_quality(quality))
    }

    /// Predicted encoded size in bytes at an explicit quantiser scale.
    #[must_use]
    pub fn bytes_at_step(&self, quant_scale: f64) -> f64 {
        let QuantSteps(delta) = QuantSteps::at(quant_scale);
        coded_bytes(
            self.pixels,
            block_cost(&self.stats.luma, &delta),
            block_cost(&self.stats.chroma, &delta),
        )
    }

    /// What `EntropyModel::vrs_layer(native_pixels, .., linear_scale, ..)`
    /// predicts at a quantiser step where one luma block costs `luma` bytes
    /// and one chroma block `chroma` bytes (each from [`Plane::block_cost`]
    /// on the layer's inputs at that step).
    #[must_use]
    pub fn vrs_layer_bytes(native_pixels: f64, linear_scale: f64, luma: f64, chroma: f64) -> f64 {
        let s = linear_scale.clamp(0.05, 1.0);
        coded_bytes((native_pixels * s * s).max(0.0), luma, chroma)
    }
}

/// Bytes of a frame of `pixels` (≥ 0) encoded luma pixels whose luma and
/// chroma blocks cost `luma` and `chroma` bytes each: 4:2:0 gives one
/// full-resolution luma plane and two quarter-resolution chroma planes,
/// all in 8×8 blocks, after the 16-byte header.
fn coded_bytes(pixels: f64, luma: f64, chroma: f64) -> f64 {
    let luma_blocks = pixels / 64.0;
    let chroma_blocks = pixels / 256.0;
    16.0 + luma_blocks * luma + 2.0 * chroma_blocks * chroma
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TransformCodec;

    /// The acceptance-criteria calibration grid: the model must track the
    /// real coder within ~15% across detail × quality on the calibration
    /// corpus (intra frames, full scale, central vision).
    #[test]
    fn entropy_model_tracks_real_codec() {
        let details = [0.1, 0.3, 0.5, 0.7, 0.9];
        let qualities = [0.2, 0.35, 0.5, 0.65, 0.8];
        let mut worst: f64 = 0.0;
        for &detail in &details {
            let frame = crate::test_content::game_frame(64, detail, 11);
            let model = EntropyModel::layer(64.0 * 64.0, detail, 1.0, 1.0, 0.0);
            for &quality in &qualities {
                let actual = TransformCodec::new(quality)
                    .encode_intra(&frame)
                    .size_bytes() as f64;
                let predicted = model.frame_bytes(quality);
                let err = (predicted / actual - 1.0).abs();
                worst = worst.max(err);
                assert!(
                    err <= 0.15,
                    "detail {detail} quality {quality}: predicted {predicted:.0} \
                     actual {actual:.0} err {err:.3}"
                );
            }
        }
        // The fit should be comfortably inside the bound somewhere, not
        // just squeaking by everywhere.
        assert!(worst > 0.01, "suspiciously exact fit: worst {worst}");
    }

    /// The calibration must not be a single-noise-realisation artifact: a
    /// different seed stays within a slightly looser band.
    #[test]
    fn calibration_holds_on_unseen_content() {
        for &detail in &[0.2, 0.6] {
            let frame = crate::test_content::game_frame(64, detail, 5);
            let model = EntropyModel::layer(64.0 * 64.0, detail, 1.0, 1.0, 0.0);
            for &quality in &[0.3, 0.6] {
                let actual = TransformCodec::new(quality)
                    .encode_intra(&frame)
                    .size_bytes() as f64;
                let predicted = model.frame_bytes(quality);
                let err = (predicted / actual - 1.0).abs();
                assert!(
                    err <= 0.2,
                    "seed 5 detail {detail} quality {quality}: err {err:.3}"
                );
            }
        }
    }

    #[test]
    fn bytes_monotone_in_quality_detail_and_pixels() {
        let mut last = 0.0;
        for q in [0.1, 0.3, 0.5, 0.7, 0.9] {
            let b = EntropyModel::layer(4096.0, 0.5, 1.0, 1.0, 0.0).frame_bytes(q);
            assert!(b > last, "quality {q}: {b} <= {last}");
            last = b;
        }
        last = 0.0;
        for d in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let b = EntropyModel::layer(4096.0, d, 1.0, 1.0, 0.0).frame_bytes(0.6);
            assert!(b > last, "detail {d}: {b} <= {last}");
            last = b;
        }
        let small = EntropyModel::layer(1024.0, 0.5, 1.0, 1.0, 0.0).frame_bytes(0.6);
        let large = EntropyModel::layer(8192.0, 0.5, 1.0, 1.0, 0.0).frame_bytes(0.6);
        assert!(
            large > 4.0 * small,
            "pixels scale linearly: {small} {large}"
        );
    }

    #[test]
    fn coarser_step_means_fewer_bytes() {
        let model = EntropyModel::layer(4096.0, 0.5, 1.0, 1.0, 0.0);
        let fine = model.bytes_at_step(0.2);
        let coarse = model.bytes_at_step(2.0);
        assert!(fine > coarse, "fine {fine} coarse {coarse}");
    }

    #[test]
    fn motion_and_eccentricity_shrink_frames() {
        let moving = EntropyModel::layer(4096.0, 0.5, 1.0, 1.0, 0.0).frame_bytes(0.6);
        let still = EntropyModel::layer(4096.0, 0.5, 0.0, 1.0, 0.0).frame_bytes(0.6);
        assert!(still < moving, "still {still} moving {moving}");
        let central = EntropyModel::layer(4096.0, 0.5, 1.0, 1.0, 0.0).frame_bytes(0.6);
        let far = EntropyModel::layer(4096.0, 0.5, 1.0, 1.0, 40.0).frame_bytes(0.6);
        assert!(far < central, "far {far} central {central}");
    }

    /// Downscaled (VRS-shaded) layers: the s^−β amplitude boost reproduces
    /// the real coder's sub-quadratic byte scaling under box downscale.
    #[test]
    fn downscale_boost_tracks_real_codec() {
        let master = crate::test_content::game_frame(128, 0.5, 11);
        let down = crate::test_content::box_down(&master, 2);
        for &quality in &[0.35, 0.6] {
            let actual = TransformCodec::new(quality)
                .encode_intra(&down)
                .size_bytes() as f64;
            // The model sees the downscaled layer as (128·0.5)² encoded
            // pixels with scale-boosted statistics.
            let predicted =
                EntropyModel::layer(64.0 * 64.0, 0.5, 1.0, 0.5, 0.0).frame_bytes(quality);
            let err = (predicted / actual - 1.0).abs();
            assert!(err <= 0.3, "quality {quality}: err {err:.3}");
        }
    }

    /// The model against the real coder at the VRS scales the periphery
    /// streams use: 0.25 (a 256 → 64 box-down) and 0.5 (128 → 64), at two
    /// details and three qualities. The model over-predicts there; this
    /// pins the gap, a known model error (DESIGN §15), so that neither the
    /// model nor the coder drifts unseen. It does not recalibrate.
    #[test]
    fn vrs_scale_gap_to_the_real_codec_is_pinned() {
        // (linear scale, box-down factor, and the signed error band
        // measured on seed-11 content: +33.5% to +62.0% at 0.25, +8.7% to
        // +32.0% at 0.5), each band widened by MARGIN on both sides.
        const MARGIN: f64 = 0.05;
        let rows = [(0.25, 4, 0.33, 0.62), (0.5, 2, 0.08, 0.32)];
        for (scale, factor, lo, hi) in rows {
            let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
            for detail in [0.3, 0.7] {
                let master = crate::test_content::game_frame(64 * factor, detail, 11);
                let down = crate::test_content::box_down(&master, factor);
                let model = EntropyModel::layer(64.0 * 64.0, detail, 1.0, scale, 0.0);
                for quality in [0.35, 0.6, 0.8] {
                    let actual = TransformCodec::new(quality)
                        .encode_intra(&down)
                        .size_bytes() as f64;
                    let err = model.frame_bytes(quality) / actual - 1.0;
                    assert!(
                        (lo - MARGIN..=hi + MARGIN).contains(&err),
                        "scale {scale} detail {detail} quality {quality}: error {err:+.3} \
                         outside [{lo:+.2}, {hi:+.2}] ± {MARGIN}"
                    );
                    (min, max) = (min.min(err), max.max(err));
                }
            }
            eprintln!("scale {scale}: {min:+.3} .. {max:+.3}");
        }
    }

    /// `block_cost` as it was before the inert-term skips and the hoisted
    /// quantiser steps: every term computed and added. The oracle of
    /// [`bytes_at_step_matches_the_unskipped_model_bit_for_bit`].
    fn block_cost_reference(b: &[f64; 64], quant_scale: f64) -> f64 {
        let mut cost = 2.0;
        for zi in 0..64 {
            let delta = f64::from(QUANT_BASE[zi]) * quant_scale / 255.0;
            if b[zi] <= 0.0 {
                continue;
            }
            if zi == 0 {
                let q_typ = b[0] / delta;
                if q_typ >= 0.5 {
                    cost += 1.0 + vlc_bytes(2.0 * q_typ);
                } else {
                    cost += 2.0 * (-THETA * delta / (2.0 * b[0])).exp();
                }
            } else {
                let p_nz = (-(THETA * delta / (2.0 * b[zi])).powf(RHO)).exp();
                let p_big = (-63.0 * delta / b[zi]).exp();
                cost += p_nz * (2.0 + p_big);
            }
        }
        cost
    }

    /// Asserts `bytes_at_step` equals the unskipped model bit for bit, or
    /// is NaN where it is NaN (Rust leaves a NaN's sign and payload to
    /// the codegen, so two NaNs from the same operations may differ).
    fn assert_matches_reference(model: &EntropyModel, quant_scale: f64) {
        let qs = quant_scale.max(1e-6);
        let reference = 16.0
            + model.pixels / 64.0 * block_cost_reference(&model.stats.luma, qs)
            + 2.0 * (model.pixels / 256.0) * block_cost_reference(&model.stats.chroma, qs);
        let fast = model.bytes_at_step(quant_scale);
        if reference.is_nan() {
            assert!(fast.is_nan(), "{model:?} at step {quant_scale}: {fast}");
        } else {
            assert_eq!(
                fast.to_bits(),
                reference.to_bits(),
                "{model:?} at step {quant_scale}: {fast} vs {reference}"
            );
        }
    }

    /// A splitmix64 stream of uniform draws (the codec has no RNG
    /// dependency).
    struct Draws(u64);

    impl Draws {
        fn range(&mut self, lo: f64, hi: f64) -> f64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            lo + (hi - lo) * ((z >> 11) as f64 / (1u64 << 53) as f64)
        }
    }

    /// `x` moved by `k` ulps (`x > 0`).
    fn ulps(x: f64, k: i64) -> f64 {
        f64::from_bits(x.to_bits().wrapping_add_signed(k))
    }

    /// How many AC terms of `b` at `quant_scale` each skip drops: the
    /// whole term, and the `exp` of `p_big` alone.
    fn skips(b: &[f64; 64], quant_scale: f64) -> (usize, usize) {
        let QuantSteps(delta) = QuantSteps::at(quant_scale);
        let (mut terms, mut exps) = (0, 0);
        for zi in 1..64 {
            if b[zi] > 0.0 {
                if THETA * delta[zi] / (2.0 * b[zi]) > P_NZ_INERT {
                    terms += 1;
                } else if -63.0 * delta[zi] / b[zi] < P_BIG_INERT {
                    exps += 1;
                }
            }
        }
        (terms, exps)
    }

    #[test]
    fn bytes_at_step_matches_the_unskipped_model_bit_for_bit() {
        let mut draws = Draws(0x00c0_dec5);
        let (mut terms, mut exps) = (0, 0);
        for _ in 0..2_000 {
            // Every input a little past its clamp on both sides.
            let detail = draws.range(-0.2, 1.2);
            let motion = draws.range(-0.2, 1.2);
            let scale = draws.range(0.0, 1.2);
            let eccentricity = draws.range(-5.0, 130.0);
            let quality = draws.range(-0.1, 1.1);
            let pixels = draws.range(0.0, 2.5e6);
            let model = EntropyModel::layer(pixels, detail, motion, scale, eccentricity);
            let step = EntropyModel::quant_scale_for_quality(quality);
            assert_matches_reference(&model, step);
            for b in [&model.stats.luma, &model.stats.chroma] {
                let (t, e) = skips(b, step);
                terms += t;
                exps += e;
            }
        }
        // Both skips fire on this sweep, so it tests them.
        assert!(terms > 0 && exps > 0, "skipped terms {terms}, exps {exps}");
    }

    #[test]
    fn inert_term_cutoffs_hold_a_few_ulps_either_side() {
        // Each AC scale sits k ulps from the `b` that puts its term exactly
        // on a cutoff, k = −4..=4: luma on θΔ/2b = 261, chroma on
        // −63Δ/b = −37.
        for quant_scale in [0.04, 0.3, 1.0, 3.5] {
            let QuantSteps(delta) = QuantSteps::at(quant_scale);
            let mut stats = BlockStats {
                luma: [1.0; 64],
                chroma: [1.0; 64],
            };
            for (zi, &d) in delta.iter().enumerate().skip(1) {
                let k = (zi % 9) as i64 - 4;
                stats.luma[zi] = ulps(THETA * d / (2.0 * P_NZ_INERT), k);
                stats.chroma[zi] = ulps(-63.0 * d / P_BIG_INERT, k);
            }
            let model = EntropyModel::new(4096.0, stats);
            assert_matches_reference(&model, quant_scale);
            // The computed ratios land on both sides of each cutoff.
            let t = |zi: usize| THETA * delta[zi] / (2.0 * stats.luma[zi]);
            let x = |zi: usize| -63.0 * delta[zi] / stats.chroma[zi];
            assert!((1..64).any(|zi| t(zi) > P_NZ_INERT));
            assert!((1..64).any(|zi| t(zi) <= P_NZ_INERT));
            assert!((1..64).any(|zi| x(zi) < P_BIG_INERT));
            assert!((1..64).any(|zi| x(zi) >= P_BIG_INERT));
        }
    }

    #[test]
    fn non_positive_nan_and_infinite_scales_match_the_unskipped_model() {
        let special = [
            0.0,
            -0.0,
            -1.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            5e-324,
            f64::MAX,
        ];
        let base = EntropyModel::layer(4096.0, 0.5, 1.0, 1.0, 20.0).stats;
        for quant_scale in [0.0, 0.04, 1.0, f64::INFINITY, f64::NAN] {
            for (i, &v) in special.iter().enumerate() {
                // One special scale in an ordinary block, at the DC and at
                // an AC index; and a whole block of it.
                for zi in [0, 1 + i, 63] {
                    let mut stats = base;
                    stats.luma[zi] = v;
                    stats.chroma[zi] = v;
                    assert_matches_reference(&EntropyModel::new(4096.0, stats), quant_scale);
                }
                let stats = BlockStats {
                    luma: [v; 64],
                    chroma: [v; 64],
                };
                assert_matches_reference(&EntropyModel::new(4096.0, stats), quant_scale);
            }
        }
    }
}
