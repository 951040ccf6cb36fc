//! The Unified Composition and ATW unit (paper Sec. 4.2).
//!
//! The baseline pipeline composes the foveation layers (anti-aliasing
//! across layer seams), writes the composite to memory, then ATW re-samples
//! it through lens distortion + reprojection — two filtering passes, both on
//! the GPU. Eq. (4) observes that both passes are linear filters, so they
//! commute: warping first and sampling the layer stack directly needs only
//! **one** (trilinear) sampling pass, touches memory once, and can run on a
//! small dedicated unit off the GPU.
//!
//! This module provides both halves of that claim:
//!
//! * a **functional model** ([`Uca::compose_then_atw`] vs [`Uca::unified`])
//!   operating on real framebuffers, with tile classification (border tiles
//!   need the trilinear path, non-overlapping tiles plain bilinear) and
//!   previous-frame reconstruction for dropped frames — tests verify the
//!   two paths agree;
//! * a **timing model** ([`UcaTiming`]) built on the Sec. 4.3 figures
//!   (532 cycles per 32×32 tile, 2 units at 500 MHz), split so schedulers
//!   can start the non-overlapping portion before local rendering finishes
//!   (the pipeline-reorder advantage of Fig. 10).

use qvr_energy::overhead::UcaOverhead;
use qvr_gpu::{Framebuffer, Rgba};
use std::fmt;

/// ATW warp parameters: a reprojection shift plus barrel lens distortion.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WarpParams {
    /// Horizontal reprojection, NDC units (head yaw between render & scan).
    pub dx_ndc: f32,
    /// Vertical reprojection, NDC units.
    pub dy_ndc: f32,
    /// First barrel distortion coefficient.
    pub k1: f32,
    /// Second barrel distortion coefficient.
    pub k2: f32,
}

impl WarpParams {
    /// A typical HMD lens profile with no reprojection.
    #[must_use]
    pub fn lens_only() -> Self {
        WarpParams {
            dx_ndc: 0.0,
            dy_ndc: 0.0,
            k1: 0.12,
            k2: 0.03,
        }
    }

    /// Maps an output pixel (NDC, `[-1, 1]`) to its source coordinate.
    #[must_use]
    pub fn source_ndc(&self, x: f32, y: f32) -> (f32, f32) {
        let r2 = x * x + y * y;
        let distort = 1.0 + self.k1 * r2 + self.k2 * r2 * r2;
        (x * distort + self.dx_ndc, y * distort + self.dy_ndc)
    }
}

/// A rendered foveated frame: three layers awaiting composition.
///
/// The fovea layer is native resolution over a disc; the middle layer is a
/// subsampled square of half-width `middle_radius_px` around the same
/// centre; the outer layer is a subsampled full-frame plane.
#[derive(Debug, Clone)]
pub struct FoveatedFrame {
    width: u32,
    height: u32,
    center_px: (f32, f32),
    fovea: Framebuffer,
    fovea_radius_px: f32,
    middle: Framebuffer,
    middle_radius_px: f32,
    outer: Framebuffer,
}

/// Width of the seam blend band, output pixels (the MSAA-style edge
/// anti-aliasing of Sec. 3.2).
const BLEND_BAND_PX: f32 = 4.0;

impl FoveatedFrame {
    /// Assembles a frame from its layers.
    ///
    /// # Panics
    ///
    /// Panics if the fovea buffer is not the output size, or radii are
    /// non-positive.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        width: u32,
        height: u32,
        center_px: (f32, f32),
        fovea: Framebuffer,
        fovea_radius_px: f32,
        middle: Framebuffer,
        middle_radius_px: f32,
        outer: Framebuffer,
    ) -> Self {
        assert_eq!(
            (fovea.width(), fovea.height()),
            (width, height),
            "fovea layer must be native resolution"
        );
        assert!(
            fovea_radius_px > 0.0 && middle_radius_px >= fovea_radius_px,
            "radii must be positive and ordered"
        );
        FoveatedFrame {
            width,
            height,
            center_px,
            fovea,
            fovea_radius_px,
            middle,
            middle_radius_px,
            outer,
        }
    }

    /// Output width, pixels.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Output height, pixels.
    #[must_use]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Samples the composed image at output-space pixel coordinates,
    /// cross-fading between layers inside the blend band (the trilinear
    /// filter of Eq. 4: a bilinear fetch in each of two layers plus a blend).
    #[must_use]
    pub fn sample(&self, x: f32, y: f32) -> Rgba {
        let dx = x - self.center_px.0;
        let dy = y - self.center_px.1;
        let dist = (dx * dx + dy * dy).sqrt();

        // Fovea region with blend into the middle layer.
        if dist < self.fovea_radius_px + BLEND_BAND_PX {
            let fovea_px = self.fovea.sample_bilinear(x, y);
            if dist <= self.fovea_radius_px - BLEND_BAND_PX {
                return fovea_px;
            }
            let t = ((dist - (self.fovea_radius_px - BLEND_BAND_PX)) / (2.0 * BLEND_BAND_PX))
                .clamp(0.0, 1.0);
            return fovea_px.lerp(self.sample_middle_or_outer(x, y), t);
        }
        self.sample_middle_or_outer(x, y)
    }

    fn sample_middle_or_outer(&self, x: f32, y: f32) -> Rgba {
        let dx = x - self.center_px.0;
        let dy = y - self.center_px.1;
        // The middle layer covers a square (Chebyshev) region.
        let cheb = dx.abs().max(dy.abs());
        if cheb < self.middle_radius_px + BLEND_BAND_PX {
            let mid = self.sample_middle(x, y);
            if cheb <= self.middle_radius_px - BLEND_BAND_PX {
                return mid;
            }
            let t = ((cheb - (self.middle_radius_px - BLEND_BAND_PX)) / (2.0 * BLEND_BAND_PX))
                .clamp(0.0, 1.0);
            return mid.lerp(self.sample_outer(x, y), t);
        }
        self.sample_outer(x, y)
    }

    fn sample_middle(&self, x: f32, y: f32) -> Rgba {
        // Map the output-space middle square onto the middle buffer.
        let half = self.middle_radius_px;
        let u = (x - (self.center_px.0 - half)) / (2.0 * half);
        let v = (y - (self.center_px.1 - half)) / (2.0 * half);
        self.middle.sample_bilinear(
            u * (self.middle.width().saturating_sub(1)) as f32,
            v * (self.middle.height().saturating_sub(1)) as f32,
        )
    }

    fn sample_outer(&self, x: f32, y: f32) -> Rgba {
        let u = x / (self.width.saturating_sub(1)) as f32;
        let v = y / (self.height.saturating_sub(1)) as f32;
        self.outer.sample_bilinear(
            u * (self.outer.width().saturating_sub(1)) as f32,
            v * (self.outer.height().saturating_sub(1)) as f32,
        )
    }

    /// Whether an output pixel lies in a layer-boundary band (needs the
    /// trilinear path).
    #[must_use]
    pub fn is_border(&self, x: f32, y: f32) -> bool {
        let dx = x - self.center_px.0;
        let dy = y - self.center_px.1;
        let dist = (dx * dx + dy * dy).sqrt();
        let cheb = dx.abs().max(dy.abs());
        (dist - self.fovea_radius_px).abs() <= BLEND_BAND_PX
            || (cheb - self.middle_radius_px).abs() <= BLEND_BAND_PX
    }

    /// Classifies `tile_px`-sized tiles: returns `(border_tiles,
    /// total_tiles)`.
    #[must_use]
    pub fn classify_tiles(&self, tile_px: u32) -> (u64, u64) {
        let tile_px = tile_px.max(1);
        let tx = self.width.div_ceil(tile_px);
        let ty = self.height.div_ceil(tile_px);
        let mut border = 0u64;
        for j in 0..ty {
            for i in 0..tx {
                // A tile is border if any probe on a 3×3 grid inside it
                // lies in a seam band. With 32-px tiles and an 8-px blend
                // band this catches every seam crossing in practice.
                let x0 = (i * tile_px) as f32;
                let y0 = (j * tile_px) as f32;
                let x1 = ((i + 1) * tile_px - 1).min(self.width - 1) as f32;
                let y1 = ((j + 1) * tile_px - 1).min(self.height - 1) as f32;
                let mut hit = false;
                'probe: for py in 0..3 {
                    for px in 0..3 {
                        let x = x0 + (x1 - x0) * px as f32 / 2.0;
                        let y = y0 + (y1 - y0) * py as f32 / 2.0;
                        if self.is_border(x, y) {
                            hit = true;
                            break 'probe;
                        }
                    }
                }
                if hit {
                    border += 1;
                }
            }
        }
        (border, u64::from(tx) * u64::from(ty))
    }
}

/// The UCA unit: functional paths + timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uca {
    timing: UcaTiming,
}

impl Uca {
    /// Creates a unit with the published timing figures.
    #[must_use]
    pub fn new(timing: UcaTiming) -> Self {
        Uca { timing }
    }

    /// Baseline sequential path: composition (with seam anti-aliasing) into
    /// a full-resolution buffer, then ATW resampling — two filter passes.
    #[must_use]
    pub fn compose_then_atw(frame: &FoveatedFrame, warp: &WarpParams) -> Framebuffer {
        let (w, h) = (frame.width(), frame.height());
        let mut composite = Framebuffer::new(w, h, Rgba::TRANSPARENT);
        for y in 0..h {
            for x in 0..w {
                composite.set_pixel(x, y, frame.sample(x as f32, y as f32));
            }
        }
        let mut out = Framebuffer::new(w, h, Rgba::TRANSPARENT);
        for y in 0..h {
            for x in 0..w {
                let (sx, sy) = Self::warp_px(frame, warp, x, y);
                out.set_pixel(x, y, composite.sample_bilinear(sx, sy));
            }
        }
        out
    }

    /// UCA's unified path: one pass, sampling the layer stack directly at
    /// the warped coordinate (Eq. 4's reordered trilinear filter).
    #[must_use]
    pub fn unified(frame: &FoveatedFrame, warp: &WarpParams) -> Framebuffer {
        let (w, h) = (frame.width(), frame.height());
        let mut out = Framebuffer::new(w, h, Rgba::TRANSPARENT);
        for y in 0..h {
            for x in 0..w {
                let (sx, sy) = Self::warp_px(frame, warp, x, y);
                out.set_pixel(x, y, frame.sample(sx, sy));
            }
        }
        out
    }

    fn warp_px(frame: &FoveatedFrame, warp: &WarpParams, x: u32, y: u32) -> (f32, f32) {
        let w = frame.width() as f32;
        let h = frame.height() as f32;
        let ndc_x = 2.0 * (x as f32 + 0.5) / w - 1.0;
        let ndc_y = 2.0 * (y as f32 + 0.5) / h - 1.0;
        let (sx, sy) = warp.source_ndc(ndc_x, ndc_y);
        ((sx + 1.0) * 0.5 * w - 0.5, (sy + 1.0) * 0.5 * h - 0.5)
    }
}

impl Default for Uca {
    fn default() -> Self {
        Uca::new(UcaTiming::default())
    }
}

impl fmt::Display for Uca {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "UCA ({})", self.timing.overhead)
    }
}

/// Timing model for the UCA pass over one stereo frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UcaTiming {
    /// Published per-tile figures (532 cycles / 32×32 tile, 2 units).
    pub overhead: UcaOverhead,
    /// Relative cost of a bilinear (non-overlapping) tile vs a trilinear
    /// border tile.
    pub bilinear_cost_fraction: f64,
}

impl UcaTiming {
    /// Time to process a stereo frame where `border_fraction` of tiles need
    /// the trilinear path, ms.
    #[must_use]
    pub fn stereo_pass_ms(&self, width: u32, height: u32, border_fraction: f64) -> f64 {
        let b = border_fraction.clamp(0.0, 1.0);
        let tiles = self.overhead.tiles_per_stereo_frame(width, height) as f64;
        let cycles_border = f64::from(self.overhead.cycles_per_tile);
        let cycles_plain = cycles_border * self.bilinear_cost_fraction;
        let total_cycles = tiles * (b * cycles_border + (1.0 - b) * cycles_plain);
        total_cycles / (f64::from(self.overhead.units) * self.overhead.frequency_mhz * 1_000.0)
    }

    /// Splits the pass into the part that only needs the decoded periphery
    /// (can start before local rendering finishes) and the part that also
    /// needs the fovea layer, ms.
    ///
    /// Border tiles and fovea-interior tiles wait for the local render;
    /// everything else streams early. `fovea_area_fraction` is the fovea
    /// disc's share of the frame.
    #[must_use]
    pub fn split_ms(
        &self,
        width: u32,
        height: u32,
        border_fraction: f64,
        fovea_area_fraction: f64,
    ) -> (f64, f64) {
        let total = self.stereo_pass_ms(width, height, border_fraction);
        let late_share = (border_fraction + fovea_area_fraction).clamp(0.0, 1.0);
        (total * (1.0 - late_share), total * late_share)
    }
}

impl Default for UcaTiming {
    fn default() -> Self {
        UcaTiming {
            overhead: UcaOverhead::published(),
            bilinear_cost_fraction: 0.64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qvr_gpu::Texture;

    /// Builds a small foveated frame with distinct layer content.
    fn test_frame(size: u32) -> FoveatedFrame {
        let mut fovea = Framebuffer::new(size, size, Rgba::TRANSPARENT);
        let tex = Texture::value_noise(size, 3, 0.2);
        for y in 0..size {
            for x in 0..size {
                let v = tex.fetch(i64::from(x), i64::from(y)).r();
                fovea.set_pixel(x, y, Rgba::new(v, v * 0.5 + 0.3, 0.2, 1.0));
            }
        }
        let msize = size / 2;
        let mut middle = Framebuffer::new(msize, msize, Rgba::TRANSPARENT);
        for y in 0..msize {
            for x in 0..msize {
                let v = (x + y) as f32 / (2.0 * msize as f32);
                middle.set_pixel(x, y, Rgba::new(0.2, v, 0.6, 1.0));
            }
        }
        let osize = size / 4;
        let mut outer = Framebuffer::new(osize, osize, Rgba::TRANSPARENT);
        for y in 0..osize {
            for x in 0..osize {
                let v = y as f32 / osize as f32;
                outer.set_pixel(x, y, Rgba::new(0.7, 0.2, v, 1.0));
            }
        }
        FoveatedFrame::new(
            size,
            size,
            (size as f32 / 2.0, size as f32 / 2.0),
            fovea,
            size as f32 / 6.0,
            middle,
            size as f32 / 3.0,
            outer,
        )
    }

    #[test]
    fn unified_equals_sequential_under_identity_warp() {
        let frame = test_frame(64);
        let warp = WarpParams::default();
        let seq = Uca::compose_then_atw(&frame, &warp);
        let uni = Uca::unified(&frame, &warp);
        // Identity warp: bilinear at integer coordinates is exact, so the
        // two paths agree to floating-point noise.
        assert!(
            seq.mean_abs_diff(&uni) < 1e-6,
            "diff {}",
            seq.mean_abs_diff(&uni)
        );
    }

    #[test]
    fn unified_close_to_sequential_under_real_warp() {
        // Eq. (4): the single trilinear pass replaces composition + ATW.
        // Under a non-trivial warp the sequential path filters twice, so
        // tiny differences are expected — but must stay imperceptible.
        let frame = test_frame(64);
        let warp = WarpParams {
            dx_ndc: 0.03,
            dy_ndc: -0.02,
            ..WarpParams::lens_only()
        };
        let seq = Uca::compose_then_atw(&frame, &warp);
        let uni = Uca::unified(&frame, &warp);
        let diff = seq.mean_abs_diff(&uni);
        assert!(diff < 0.02, "mean abs diff {diff}");
        assert!(uni.psnr(&seq) > 30.0, "psnr {}", uni.psnr(&seq));
    }

    #[test]
    fn fovea_interior_uses_fovea_layer() {
        let frame = test_frame(64);
        let c = frame.sample(32.0, 32.0);
        let direct = frame.fovea.sample_bilinear(32.0, 32.0);
        assert_eq!(c, direct);
    }

    #[test]
    fn far_periphery_uses_outer_layer() {
        let frame = test_frame(64);
        // A corner pixel lies outside the middle square.
        let c = frame.sample(1.0, 1.0);
        let outer_direct = frame.sample_outer(1.0, 1.0);
        assert_eq!(c, outer_direct);
    }

    #[test]
    fn border_classification_finds_both_seams() {
        let frame = test_frame(64);
        // On the fovea circle.
        assert!(frame.is_border(32.0 + 64.0 / 6.0, 32.0));
        // On the middle square edge.
        assert!(frame.is_border(32.0 + 64.0 / 3.0, 32.0));
        // Deep interior / far corner are not borders.
        assert!(!frame.is_border(32.0, 32.0));
        assert!(!frame.is_border(1.0, 1.0));
    }

    #[test]
    fn tile_classification_counts_are_plausible() {
        let frame = test_frame(128);
        let (border, total) = frame.classify_tiles(16);
        assert_eq!(total, 64);
        assert!(border > 4, "seams must cross several tiles, got {border}");
        assert!(border < total, "not every tile is a seam tile");
    }

    #[test]
    fn timing_matches_published_bounds() {
        let t = UcaTiming::default();
        // All-border frame = the Sec. 4.3 worst case.
        let worst = t.stereo_pass_ms(1920, 2160, 1.0);
        let published = UcaOverhead::published().stereo_frame_ms(1920, 2160);
        assert!((worst - published).abs() < 1e-9);
        // Typical frames are cheaper.
        let typical = t.stereo_pass_ms(1920, 2160, 0.2);
        assert!(typical < worst);
        assert!(typical > 0.5 * worst, "bilinear tiles still cost");
    }

    #[test]
    fn split_conserves_total() {
        let t = UcaTiming::default();
        let total = t.stereo_pass_ms(1920, 2160, 0.3);
        let (early, late) = t.split_ms(1920, 2160, 0.3, 0.2);
        assert!((early + late - total).abs() < 1e-9);
        assert!(early > 0.0 && late > 0.0);
    }

    #[test]
    #[should_panic(expected = "native resolution")]
    fn wrong_fovea_size_rejected() {
        let fovea = Framebuffer::new(16, 16, Rgba::BLACK);
        let mid = Framebuffer::new(8, 8, Rgba::BLACK);
        let out = Framebuffer::new(8, 8, Rgba::BLACK);
        let _ = FoveatedFrame::new(32, 32, (16.0, 16.0), fovea, 5.0, mid, 10.0, out);
    }
}
