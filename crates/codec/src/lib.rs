//! Video codec substrate for the Q-VR reproduction.
//!
//! The paper compresses remote-rendered frames with H.264 (via ffmpeg) and
//! computes network latency from the compressed size (Sec. 5). H.264 itself
//! is out of scope, so this crate provides the closest equivalent that
//! exercises the same code path:
//!
//! * [`transform`] — a real 8×8 DCT transform codec (quantisation, zigzag,
//!   run-length + variable-length byte coding) producing actual bitstreams
//!   from [`qvr_gpu::Framebuffer`] contents, coding every frame intra.
//!   Round-trip quality is measured in PSNR.
//! * [`size_model`] — a closed-form compressed-size model,
//!   `bytes = pixels × bpp(detail) × scaleᵞ / 8`, used by the frame-level
//!   simulation where running the full transform per frame would be wasteful.
//!   Tests fit the model against the real codec.
//! * [`latency`] — encode/decode latency models for hardware video engines
//!   (the "video decoder" accelerator of Fig. 4's pipeline).
//!
//! # Example
//!
//! ```
//! use qvr_codec::{SizeModel, TransformCodec};
//! use qvr_gpu::{Framebuffer, Rgba};
//!
//! // Closed-form: a 1920x2160 frame of moderate detail compresses to the
//! // Table 1 "Back Size" ballpark (~0.5 MB).
//! let model = SizeModel::default();
//! let bytes = model.frame_bytes(1920 * 2160, 0.55, 1.0);
//! assert!((300_000.0..900_000.0).contains(&bytes));
//!
//! // Real transform codec round-trip.
//! let frame = Framebuffer::new(64, 64, Rgba::new(0.3, 0.5, 0.7, 1.0));
//! let codec = TransformCodec::new(0.6);
//! let encoded = codec.encode_intra(&frame);
//! let decoded = codec.decode(&encoded).unwrap();
//! assert!(decoded.psnr(&frame) > 30.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod latency;
pub mod rc;
pub mod size_model;
pub mod stats;
pub mod transform;

pub use latency::CodecLatencyModel;
pub use rc::{RateControlConfig, RateController};
pub use size_model::SizeModel;
pub use stats::{BlockStats, EntropyModel};
pub use transform::{CodecError, EncodedFrame, TransformCodec};

/// Shared synthetic content for tests: game-like frames (smooth regions,
/// hard edges, correlated mild noise) rather than incompressible white
/// noise.
#[cfg(test)]
pub(crate) mod test_content {
    use qvr_gpu::{Framebuffer, Rgba, Texture};

    /// A `size`×`size` frame mixing flat regions, edges, a gradient, and
    /// `detail`-scaled texture noise with luma-correlated channels.
    pub fn game_frame(size: u32, detail: f64, seed: u64) -> Framebuffer {
        let checker = Texture::checkerboard(
            size,
            6,
            Rgba::new(0.2, 0.25, 0.3, 1.0),
            Rgba::new(0.8, 0.75, 0.6, 1.0),
        );
        let noise = Texture::value_noise(size, seed, 0.6);
        let mut fb = Framebuffer::new(size, size, Rgba::BLACK);
        let amp = detail.clamp(0.0, 1.0) as f32 * 0.35;
        for y in 0..size {
            for x in 0..size {
                let base = checker.fetch(i64::from(x), i64::from(y));
                let n = noise.fetch(i64::from(x), i64::from(y)).r() - 0.5;
                let grad = 0.15 * (x as f32 / size as f32);
                let v = |c: f32| (c * 0.8 + amp * n + grad).clamp(0.0, 1.0);
                fb.set_pixel(x, y, Rgba::new(v(base.r()), v(base.g()), v(base.b()), 1.0));
            }
        }
        fb
    }

    /// Area-averaging (box) downscale by an integer factor, as a video
    /// scaler would do before encoding.
    pub fn box_down(master: &Framebuffer, factor: u32) -> Framebuffer {
        let (w, h) = (master.width() / factor, master.height() / factor);
        let mut out = Framebuffer::new(w, h, Rgba::BLACK);
        for y in 0..h {
            for x in 0..w {
                let mut acc = [0.0f32; 4];
                for dy in 0..factor {
                    for dx in 0..factor {
                        let p = master.pixel(x * factor + dx, y * factor + dy);
                        for (a, c) in acc.iter_mut().zip(p.0.iter()) {
                            *a += c;
                        }
                    }
                }
                let n = (factor * factor) as f32;
                out.set_pixel(x, y, Rgba([acc[0] / n, acc[1] / n, acc[2] / n, acc[3] / n]));
            }
        }
        out
    }
}
