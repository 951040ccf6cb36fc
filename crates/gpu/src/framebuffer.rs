//! Color and depth render targets.

use std::fmt;

/// A linear RGBA color with `f32` channels in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Rgba(pub [f32; 4]);

impl Rgba {
    /// Opaque black.
    pub const BLACK: Rgba = Rgba([0.0, 0.0, 0.0, 1.0]);
    /// Opaque white.
    pub const WHITE: Rgba = Rgba([1.0, 1.0, 1.0, 1.0]);
    /// Fully transparent.
    pub const TRANSPARENT: Rgba = Rgba([0.0, 0.0, 0.0, 0.0]);

    /// Creates a color from channels.
    #[must_use]
    pub const fn new(r: f32, g: f32, b: f32, a: f32) -> Self {
        Rgba([r, g, b, a])
    }

    /// Red channel.
    #[must_use]
    pub fn r(&self) -> f32 {
        self.0[0]
    }

    /// Green channel.
    #[must_use]
    pub fn g(&self) -> f32 {
        self.0[1]
    }

    /// Blue channel.
    #[must_use]
    pub fn b(&self) -> f32 {
        self.0[2]
    }

    /// Alpha channel.
    #[must_use]
    pub fn a(&self) -> f32 {
        self.0[3]
    }

    /// Channel-wise linear interpolation: `self` at `t = 0`, `o` at `t = 1`.
    #[must_use]
    pub fn lerp(&self, o: Rgba, t: f32) -> Rgba {
        let mut out = [0.0; 4];
        for (i, v) in out.iter_mut().enumerate() {
            *v = self.0[i] + (o.0[i] - self.0[i]) * t;
        }
        Rgba(out)
    }

    /// Maximum channel-wise absolute difference to another color.
    #[must_use]
    pub fn max_abs_diff(&self, o: Rgba) -> f32 {
        (0..4)
            .map(|i| (self.0[i] - o.0[i]).abs())
            .fold(0.0, f32::max)
    }

    /// Perceptual luma (Rec. 601 weights), used by the codec.
    #[must_use]
    pub fn luma(&self) -> f32 {
        0.299 * self.0[0] + 0.587 * self.0[1] + 0.114 * self.0[2]
    }
}

impl fmt::Display for Rgba {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rgba({:.3}, {:.3}, {:.3}, {:.3})",
            self.0[0], self.0[1], self.0[2], self.0[3]
        )
    }
}

/// A rectangular color buffer.
///
/// Row-major storage; `(0, 0)` is the top-left pixel.
#[derive(Debug, Clone, PartialEq)]
pub struct Framebuffer {
    width: u32,
    height: u32,
    pixels: Vec<Rgba>,
}

impl Framebuffer {
    /// Creates a buffer filled with a clear color.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(width: u32, height: u32, clear: Rgba) -> Self {
        assert!(
            width > 0 && height > 0,
            "framebuffer dimensions must be non-zero"
        );
        Framebuffer {
            width,
            height,
            pixels: vec![clear; (width as usize) * (height as usize)],
        }
    }

    /// Buffer width in pixels.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Buffer height in pixels.
    #[must_use]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Total pixel count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pixels.len()
    }

    /// Whether the buffer has zero pixels (never true by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pixels.is_empty()
    }

    /// Reads the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[must_use]
    pub fn pixel(&self, x: u32, y: u32) -> Rgba {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x}, {y}) out of bounds"
        );
        self.pixels[(y as usize) * (self.width as usize) + x as usize]
    }

    /// Writes the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set_pixel(&mut self, x: u32, y: u32, c: Rgba) {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x}, {y}) out of bounds"
        );
        self.pixels[(y as usize) * (self.width as usize) + x as usize] = c;
    }

    /// Bilinearly samples the buffer at fractional pixel coordinates,
    /// clamping to the border.
    #[must_use]
    pub fn sample_bilinear(&self, x: f32, y: f32) -> Rgba {
        let xf = x.clamp(0.0, (self.width - 1) as f32);
        let yf = y.clamp(0.0, (self.height - 1) as f32);
        let x0 = xf.floor() as u32;
        let y0 = yf.floor() as u32;
        let x1 = (x0 + 1).min(self.width - 1);
        let y1 = (y0 + 1).min(self.height - 1);
        let tx = xf - x0 as f32;
        let ty = yf - y0 as f32;
        let top = self.pixel(x0, y0).lerp(self.pixel(x1, y0), tx);
        let bottom = self.pixel(x0, y1).lerp(self.pixel(x1, y1), tx);
        top.lerp(bottom, ty)
    }

    /// Iterator over all pixels in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = &Rgba> {
        self.pixels.iter()
    }

    /// Mean per-channel absolute difference to another buffer of the same
    /// dimensions.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    #[must_use]
    pub fn mean_abs_diff(&self, o: &Framebuffer) -> f32 {
        assert_eq!(
            (self.width, self.height),
            (o.width, o.height),
            "buffers must have identical dimensions"
        );
        let sum: f32 = self
            .pixels
            .iter()
            .zip(&o.pixels)
            .map(|(a, b)| (0..4).map(|i| (a.0[i] - b.0[i]).abs()).sum::<f32>() / 4.0)
            .sum();
        sum / self.pixels.len() as f32
    }

    /// Peak signal-to-noise ratio against a reference buffer, in dB
    /// (infinite for identical buffers).
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    #[must_use]
    pub fn psnr(&self, reference: &Framebuffer) -> f64 {
        assert_eq!(
            (self.width, self.height),
            (reference.width, reference.height),
            "buffers must have identical dimensions"
        );
        let mse: f64 = self
            .pixels
            .iter()
            .zip(&reference.pixels)
            .map(|(a, b)| {
                (0..3)
                    .map(|i| f64::from(a.0[i] - b.0[i]).powi(2))
                    .sum::<f64>()
                    / 3.0
            })
            .sum::<f64>()
            / self.pixels.len() as f64;
        if mse <= 0.0 {
            f64::INFINITY
        } else {
            10.0 * (1.0 / mse).log10()
        }
    }
}

/// A rectangular depth buffer storing NDC depth (`-1` near … `1` far).
#[derive(Debug, Clone, PartialEq)]
pub struct DepthBuffer {
    width: u32,
    height: u32,
    depth: Vec<f32>,
}

impl DepthBuffer {
    /// Creates a depth buffer cleared to the far plane.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(width: u32, height: u32) -> Self {
        assert!(
            width > 0 && height > 0,
            "depth buffer dimensions must be non-zero"
        );
        DepthBuffer {
            width,
            height,
            depth: vec![f32::INFINITY; (width as usize) * (height as usize)],
        }
    }

    /// Reads the depth at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[must_use]
    pub fn depth(&self, x: u32, y: u32) -> f32 {
        assert!(
            x < self.width && y < self.height,
            "depth ({x}, {y}) out of bounds"
        );
        self.depth[(y as usize) * (self.width as usize) + x as usize]
    }

    /// Depth test and conditional write; returns `true` if `z` passed
    /// (strictly nearer than the stored depth) and was stored.
    pub fn test_and_set(&mut self, x: u32, y: u32, z: f32) -> bool {
        assert!(
            x < self.width && y < self.height,
            "depth ({x}, {y}) out of bounds"
        );
        let idx = (y as usize) * (self.width as usize) + x as usize;
        if z < self.depth[idx] {
            self.depth[idx] = z;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rgba_lerp_endpoints() {
        let a = Rgba::BLACK;
        let b = Rgba::WHITE;
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Rgba::new(0.5, 0.5, 0.5, 1.0));
    }

    #[test]
    fn framebuffer_set_get() {
        let mut fb = Framebuffer::new(4, 3, Rgba::BLACK);
        fb.set_pixel(2, 1, Rgba::WHITE);
        assert_eq!(fb.pixel(2, 1), Rgba::WHITE);
        assert_eq!(fb.pixel(0, 0), Rgba::BLACK);
        assert_eq!(fb.len(), 12);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn framebuffer_oob_panics() {
        let fb = Framebuffer::new(4, 3, Rgba::BLACK);
        let _ = fb.pixel(4, 0);
    }

    #[test]
    fn bilinear_at_integer_coords_is_exact() {
        let mut fb = Framebuffer::new(2, 2, Rgba::BLACK);
        fb.set_pixel(1, 0, Rgba::WHITE);
        assert_eq!(fb.sample_bilinear(1.0, 0.0), Rgba::WHITE);
        assert_eq!(fb.sample_bilinear(0.0, 0.0), Rgba::BLACK);
    }

    #[test]
    fn bilinear_midpoint_averages() {
        let mut fb = Framebuffer::new(2, 1, Rgba::BLACK);
        fb.set_pixel(1, 0, Rgba::WHITE);
        let mid = fb.sample_bilinear(0.5, 0.0);
        assert!((mid.r() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn bilinear_clamps_at_border() {
        let fb = Framebuffer::new(2, 2, Rgba::WHITE);
        assert_eq!(fb.sample_bilinear(-5.0, 10.0), Rgba::WHITE);
    }

    #[test]
    fn psnr_identical_is_infinite() {
        let fb = Framebuffer::new(8, 8, Rgba::new(0.2, 0.4, 0.6, 1.0));
        assert!(fb.psnr(&fb).is_infinite());
    }

    #[test]
    fn psnr_degrades_with_noise() {
        let fb = Framebuffer::new(8, 8, Rgba::new(0.5, 0.5, 0.5, 1.0));
        let mut slightly = fb.clone();
        let mut heavily = fb.clone();
        for y in 0..8 {
            for x in 0..8 {
                slightly.set_pixel(x, y, Rgba::new(0.52, 0.5, 0.5, 1.0));
                heavily.set_pixel(x, y, Rgba::new(0.9, 0.1, 0.5, 1.0));
            }
        }
        assert!(slightly.psnr(&fb) > heavily.psnr(&fb));
    }

    #[test]
    fn depth_test_keeps_nearest() {
        let mut db = DepthBuffer::new(2, 2);
        assert!(db.test_and_set(0, 0, 0.5));
        assert!(!db.test_and_set(0, 0, 0.7), "farther fragment must fail");
        assert!(db.test_and_set(0, 0, 0.2), "nearer fragment must pass");
        assert_eq!(db.depth(0, 0), 0.2);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_size_framebuffer_panics() {
        let _ = Framebuffer::new(0, 4, Rgba::BLACK);
    }
}
