//! Closed-form compressed-size model.
//!
//! The frame-level simulation needs compressed sizes for millions of frame ×
//! parameter combinations; running the full transform codec for each would
//! dominate runtime without changing the answer. This model captures the
//! two effects that matter:
//!
//! 1. **Content detail** sets bits-per-pixel. Calibrated so that a
//!    1920×2160 background at game-like detail compresses to the ~500–650 KB
//!    of Table 1's "Back Size" column (H.264, high quality).
//! 2. **Resolution scaling is sub-quadratic in bytes.** Downscaling an
//!    image before encoding concentrates the surviving detail: bytes shrink
//!    like `scaleᵞ` with `γ < 2`, not like the pixel count (`scale²`). The
//!    γ default is fitted against the real transform codec (see the
//!    cross-validation test) and against Fig. 6's "relative frame size"
//!    curve.

use std::fmt;

/// Closed-form compressed-size model for rendered frames.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizeModel {
    bpp_base: f64,
    bpp_detail: f64,
    gamma: f64,
}

impl SizeModel {
    /// Creates a model.
    ///
    /// * `bpp_base` — bits per pixel for detail-free content.
    /// * `bpp_detail` — additional bits per pixel at full detail.
    /// * `gamma` — resolution-scaling exponent in `(0, 2]`.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is non-positive or `gamma > 2`.
    #[must_use]
    pub fn new(bpp_base: f64, bpp_detail: f64, gamma: f64) -> Self {
        assert!(
            bpp_base > 0.0 && bpp_detail > 0.0,
            "bpp parameters must be positive"
        );
        assert!(gamma > 0.0 && gamma <= 2.0, "gamma must be in (0, 2]");
        SizeModel {
            bpp_base,
            bpp_detail,
            gamma,
        }
    }

    /// Bits per pixel at native resolution for content `detail ∈ [0, 1]`.
    #[must_use]
    pub fn bits_per_pixel(&self, detail: f64) -> f64 {
        self.bpp_base + self.bpp_detail * detail.clamp(0.0, 1.0)
    }

    /// Compressed bytes for a region of `native_pixels` (at native display
    /// resolution) encoded after linear downscaling by `scale ∈ (0, 1]`.
    #[must_use]
    pub fn frame_bytes(&self, native_pixels: u64, detail: f64, scale: f64) -> f64 {
        let scale = scale.clamp(1e-3, 1.0);
        native_pixels as f64 * self.bits_per_pixel(detail) * scale.powf(self.gamma) / 8.0
    }

    /// Compressed bytes for a depth plane of the same region (static
    /// collaborative rendering must also ship depth for composition;
    /// depth compresses harder than color).
    #[must_use]
    pub fn depth_bytes(&self, native_pixels: u64, scale: f64) -> f64 {
        // Depth maps are smooth: roughly 40% of a low-detail color plane.
        self.frame_bytes(native_pixels, 0.1, scale) * 0.4
    }
}

impl Default for SizeModel {
    /// Calibrated default: 0.4 + 1.2·detail bits/pixel, γ = 1.25.
    ///
    /// At detail 0.55 a 1920×2160 frame gives ≈ 550 KB, matching Table 1.
    fn default() -> Self {
        SizeModel::new(0.4, 1.2, 1.25)
    }
}

impl fmt::Display for SizeModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bytes = px·({:.2} + {:.2}·detail)·scale^{:.2} / 8",
            self.bpp_base, self.bpp_detail, self.gamma
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::TransformCodec;

    const EYE_PIXELS: u64 = 1920 * 2160;

    #[test]
    fn table1_back_sizes_reproduced() {
        // Table 1: Foveated3D 646 KB (detail 0.75), Viking 530 KB (0.55),
        // Nature 482 KB (0.45), Sponza 537 KB (0.57), San Miguel 572 KB
        // (0.63).
        let m = SizeModel::default();
        let expect = [
            (0.75, 646.0),
            (0.55, 530.0),
            (0.45, 482.0),
            (0.57, 537.0),
            (0.63, 572.0),
        ];
        for (detail, kb) in expect {
            let bytes = m.frame_bytes(EYE_PIXELS, detail, 1.0) / 1024.0;
            assert!(
                (bytes - kb).abs() / kb < 0.15,
                "detail {detail}: {bytes:.0} KB vs Table 1 {kb} KB"
            );
        }
    }

    #[test]
    fn bytes_monotone_in_detail_and_scale() {
        let m = SizeModel::default();
        assert!(m.frame_bytes(EYE_PIXELS, 0.8, 1.0) > m.frame_bytes(EYE_PIXELS, 0.2, 1.0));
        assert!(m.frame_bytes(EYE_PIXELS, 0.5, 1.0) > m.frame_bytes(EYE_PIXELS, 0.5, 0.5));
        assert!(m.frame_bytes(EYE_PIXELS, 0.5, 0.5) > m.frame_bytes(EYE_PIXELS, 0.5, 0.25));
    }

    #[test]
    fn subquadratic_scaling() {
        // Halving resolution must NOT quarter the bytes (gamma < 2).
        let m = SizeModel::default();
        let full = m.frame_bytes(EYE_PIXELS, 0.5, 1.0);
        let half = m.frame_bytes(EYE_PIXELS, 0.5, 0.5);
        assert!(half > full / 4.0);
        assert!(half < full / 1.5);
    }

    #[test]
    fn depth_cheaper_than_color() {
        let m = SizeModel::default();
        assert!(m.depth_bytes(EYE_PIXELS, 1.0) < m.frame_bytes(EYE_PIXELS, 0.5, 1.0));
        assert!(m.depth_bytes(EYE_PIXELS, 1.0) > 0.0);
    }

    #[test]
    fn gamma_validated() {
        assert!(std::panic::catch_unwind(|| SizeModel::new(0.4, 1.2, 2.5)).is_err());
        assert!(std::panic::catch_unwind(|| SizeModel::new(0.0, 1.2, 1.0)).is_err());
    }

    /// Calibration regression over a detail × quality grid: the real codec's
    /// encoded sizes must stay monotone in both axes, and the closed-form
    /// model must track the same detail ordering — so the analytical path
    /// can't silently drift from `TransformCodec` behaviour.
    #[test]
    fn grid_monotone_against_real_codec() {
        let details = [0.1, 0.3, 0.5, 0.7, 0.9];
        let qualities = [0.2, 0.4, 0.6, 0.8];
        let mut grid = [[0usize; 4]; 5];
        for (di, &detail) in details.iter().enumerate() {
            let frame = crate::test_content::game_frame(64, detail, 31);
            for (qi, &quality) in qualities.iter().enumerate() {
                grid[di][qi] = TransformCodec::new(quality)
                    .encode_intra(&frame)
                    .size_bytes();
            }
        }
        // Monotone in quality at every detail, and in detail at every
        // quality (strictly: each grid step changes quantiser step or
        // content energy enough to move the coded size).
        for (di, row) in grid.iter().enumerate() {
            for qi in 1..qualities.len() {
                assert!(
                    row[qi] > row[qi - 1],
                    "detail {}: bytes not monotone in quality ({} vs {})",
                    details[di],
                    row[qi],
                    row[qi - 1]
                );
            }
        }
        for qi in 0..qualities.len() {
            for di in 1..details.len() {
                assert!(
                    grid[di][qi] > grid[di - 1][qi],
                    "quality {}: bytes not monotone in detail ({} vs {})",
                    qualities[qi],
                    grid[di][qi],
                    grid[di - 1][qi]
                );
            }
        }
        // The closed-form model orders details identically.
        let m = SizeModel::default();
        for di in 1..details.len() {
            assert!(
                m.frame_bytes(64 * 64, details[di], 1.0)
                    > m.frame_bytes(64 * 64, details[di - 1], 1.0)
            );
        }
    }

    /// Cross-validation: the γ exponent matches the real transform codec's
    /// behaviour when encoding box-downscaled versions of the same content
    /// (flat regions + edges + mild noise, the mix that makes compressed
    /// size scale sub-quadratically with resolution).
    #[test]
    fn gamma_matches_real_codec() {
        let codec = TransformCodec::default();
        let master = crate::test_content::game_frame(128, 0.3, 23);
        let b_full = codec.encode_intra(&master).size_bytes() as f64;
        let b_quarter = codec
            .encode_intra(&crate::test_content::box_down(&master, 4))
            .size_bytes() as f64;
        // bytes(s) = bytes(1) * s^gamma  =>  gamma = ln(ratio)/ln(scale).
        let gamma = (b_quarter / b_full).ln() / (0.25f64).ln();
        let m = SizeModel::default();
        let model_gamma =
            (m.frame_bytes(4096, 0.3, 0.25) / m.frame_bytes(4096, 0.3, 1.0)).ln() / (0.25f64).ln();
        assert!(
            (gamma - model_gamma).abs() < 0.5,
            "fitted gamma {gamma:.2} vs model {model_gamma}"
        );
    }
}
