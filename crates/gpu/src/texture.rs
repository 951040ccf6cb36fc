//! Simple textures for the functional rasterizer.
//!
//! Scenes in this reproduction are procedural, so textures are too: the
//! generators here produce deterministic contents (checkerboards, value
//! noise, gradients) whose spatial frequency is controllable — that matters
//! because the video codec's compressed size depends on image content.

use crate::framebuffer::Rgba;
use std::fmt;

/// A 2D RGBA texture with bilinear sampling and wrap addressing.
#[derive(Debug, Clone, PartialEq)]
pub struct Texture {
    width: u32,
    height: u32,
    texels: Vec<Rgba>,
}

impl Texture {
    /// Creates a texture from raw texels (row-major).
    ///
    /// # Panics
    ///
    /// Panics if dimensions are zero or `texels.len() != width * height`.
    #[must_use]
    pub fn from_texels(width: u32, height: u32, texels: Vec<Rgba>) -> Self {
        assert!(
            width > 0 && height > 0,
            "texture dimensions must be non-zero"
        );
        assert_eq!(
            texels.len(),
            (width as usize) * (height as usize),
            "texel count must match dimensions"
        );
        Texture {
            width,
            height,
            texels,
        }
    }

    /// A `size`×`size` checkerboard with `cells` cells per side.
    #[must_use]
    pub fn checkerboard(size: u32, cells: u32, a: Rgba, b: Rgba) -> Self {
        let cells = cells.max(1);
        let cell = (size / cells).max(1);
        let mut texels = Vec::with_capacity((size as usize) * (size as usize));
        for y in 0..size {
            for x in 0..size {
                let parity = (x / cell + y / cell) % 2;
                texels.push(if parity == 0 { a } else { b });
            }
        }
        Texture::from_texels(size, size, texels)
    }

    /// Deterministic value-noise texture; `roughness` in `[0, 1]` controls
    /// high-frequency content (0 = smooth gradient, 1 = per-texel hash).
    #[must_use]
    pub fn value_noise(size: u32, seed: u64, roughness: f64) -> Self {
        let roughness = roughness.clamp(0.0, 1.0);
        let mut texels = Vec::with_capacity((size as usize) * (size as usize));
        for y in 0..size {
            for x in 0..size {
                // Smooth base: a couple of low-frequency sinusoids.
                let fx = f64::from(x) / f64::from(size);
                let fy = f64::from(y) / f64::from(size);
                let base = 0.5
                    + 0.25 * (fx * std::f64::consts::TAU).sin()
                    + 0.25 * (fy * std::f64::consts::TAU * 2.0).cos();
                // High-frequency: integer hash per texel.
                let h = hash3(u64::from(x), u64::from(y), seed);
                let noise = (h % 1_000) as f64 / 999.0;
                let v = (base * (1.0 - roughness) + noise * roughness).clamp(0.0, 1.0) as f32;
                let g = hash3(u64::from(x), u64::from(y), seed ^ 0x9e37) % 1_000;
                let gch = (g as f64 / 999.0 * roughness + base * (1.0 - roughness)).clamp(0.0, 1.0)
                    as f32;
                texels.push(Rgba::new(v, gch, 1.0 - v, 1.0));
            }
        }
        Texture::from_texels(size, size, texels)
    }

    /// Nearest-texel fetch with wrap addressing.
    #[must_use]
    pub fn fetch(&self, x: i64, y: i64) -> Rgba {
        let xi = x.rem_euclid(i64::from(self.width)) as usize;
        let yi = y.rem_euclid(i64::from(self.height)) as usize;
        self.texels[yi * self.width as usize + xi]
    }

    /// Bilinear sample with normalized wrap coordinates.
    #[must_use]
    pub fn sample(&self, u: f32, v: f32) -> Rgba {
        let x = f64::from(u) * f64::from(self.width) - 0.5;
        let y = f64::from(v) * f64::from(self.height) - 0.5;
        let x0 = x.floor() as i64;
        let y0 = y.floor() as i64;
        let tx = (x - x0 as f64) as f32;
        let ty = (y - y0 as f64) as f32;
        let top = self.fetch(x0, y0).lerp(self.fetch(x0 + 1, y0), tx);
        let bottom = self.fetch(x0, y0 + 1).lerp(self.fetch(x0 + 1, y0 + 1), tx);
        top.lerp(bottom, ty)
    }
}

impl fmt::Display for Texture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{} texture", self.width, self.height)
    }
}

/// A small integer hash for deterministic procedural content.
fn hash3(x: u64, y: u64, seed: u64) -> u64 {
    let mut h = x
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(y.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(seed.wrapping_mul(0x94D0_49BB_1331_11EB));
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkerboard_alternates() {
        let t = Texture::checkerboard(8, 4, Rgba::BLACK, Rgba::WHITE);
        assert_eq!(t.fetch(0, 0), Rgba::BLACK);
        assert_eq!(t.fetch(2, 0), Rgba::WHITE);
        assert_eq!(t.fetch(0, 2), Rgba::WHITE);
        assert_eq!(t.fetch(2, 2), Rgba::BLACK);
    }

    #[test]
    fn fetch_wraps() {
        let t = Texture::checkerboard(8, 4, Rgba::BLACK, Rgba::WHITE);
        assert_eq!(t.fetch(-8, 0), t.fetch(0, 0));
        assert_eq!(t.fetch(8, 8), t.fetch(0, 0));
        assert_eq!(t.fetch(-1, 0), t.fetch(7, 0));
    }

    #[test]
    fn noise_is_deterministic() {
        let a = Texture::value_noise(16, 42, 0.5);
        let b = Texture::value_noise(16, 42, 0.5);
        assert_eq!(a, b);
        let c = Texture::value_noise(16, 43, 0.5);
        assert_ne!(a, c, "different seed must change content");
    }

    #[test]
    fn roughness_increases_local_variation() {
        let smooth = Texture::value_noise(32, 1, 0.0);
        let rough = Texture::value_noise(32, 1, 1.0);
        let variation = |t: &Texture| -> f32 {
            let mut sum = 0.0;
            for y in 0..31 {
                for x in 0..31 {
                    sum += t.fetch(x, y).max_abs_diff(t.fetch(x + 1, y));
                }
            }
            sum
        };
        assert!(variation(&rough) > 2.0 * variation(&smooth));
    }

    #[test]
    fn sample_center_of_texel_matches_fetch() {
        let t = Texture::checkerboard(8, 8, Rgba::BLACK, Rgba::WHITE);
        // Texel centers are at (i + 0.5) / size.
        let c = t.sample(0.5 / 8.0, 0.5 / 8.0);
        assert_eq!(c, t.fetch(0, 0));
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn from_texels_validates_length() {
        let _ = Texture::from_texels(4, 4, vec![Rgba::BLACK; 15]);
    }
}
