//! A real 8×8 DCT transform codec over framebuffers.
//!
//! The pipeline per 8×8 luma/chroma block: level shift → forward DCT →
//! quantisation (JPEG-style matrix scaled by quality) → zigzag scan →
//! run-length coding of zeros → variable-length byte coding. Every frame
//! is coded intra (without a reference frame).
//!
//! Color is handled as Y'CbCr with 4:2:0 chroma subsampling, like every
//! deployed video codec.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use qvr_gpu::{Framebuffer, Rgba};
use std::error::Error;
use std::fmt;

/// Errors produced while decoding a bitstream.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// The bitstream ended prematurely or a marker was malformed.
    Truncated,
    /// The header advertised impossible dimensions.
    BadHeader,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CodecError::Truncated => "bitstream truncated",
            CodecError::BadHeader => "invalid bitstream header",
        };
        f.write_str(s)
    }
}

impl Error for CodecError {}

/// An encoded frame: header + entropy-coded blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedFrame {
    width: u32,
    height: u32,
    payload: Bytes,
}

impl EncodedFrame {
    /// Compressed size in bytes (payload + a nominal 16-byte header).
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.payload.len() + 16
    }
}

/// The transform codec with a quality knob.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransformCodec {
    quality: f64,
}

/// JPEG luminance quantisation matrix (quality 0.5 reference).
pub(crate) const QUANT_BASE: [f32; 64] = [
    16.0, 11.0, 10.0, 16.0, 24.0, 40.0, 51.0, 61.0, //
    12.0, 12.0, 14.0, 19.0, 26.0, 58.0, 60.0, 55.0, //
    14.0, 13.0, 16.0, 24.0, 40.0, 57.0, 69.0, 56.0, //
    14.0, 17.0, 22.0, 29.0, 51.0, 87.0, 80.0, 62.0, //
    18.0, 22.0, 37.0, 56.0, 68.0, 109.0, 103.0, 77.0, //
    24.0, 35.0, 55.0, 64.0, 81.0, 104.0, 113.0, 92.0, //
    49.0, 64.0, 78.0, 87.0, 103.0, 121.0, 120.0, 101.0, //
    72.0, 92.0, 95.0, 98.0, 112.0, 100.0, 103.0, 99.0,
];

/// Zigzag scan order for an 8×8 block.
pub(crate) const ZIGZAG: [usize; 64] = [
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5, 12, 19, 26, 33, 40, 48, 41, 34, 27, 20,
    13, 6, 7, 14, 21, 28, 35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51, 58, 59,
    52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
];

impl TransformCodec {
    /// Creates a codec with `quality` in `[0, 1]`; higher preserves more
    /// detail and produces larger bitstreams.
    #[must_use]
    pub fn new(quality: f64) -> Self {
        TransformCodec {
            quality: quality.clamp(0.01, 1.0),
        }
    }

    /// Quantisation scale: quality 1.0 ⇒ fine (~0.14×), 0.0 ⇒ coarse (3.5×).
    pub(crate) fn quant_scale(&self) -> f32 {
        // Exponential mapping gives a useful dynamic range.
        (3.5 * (-3.2 * self.quality).exp()).max(0.04) as f32
    }

    /// Encodes a frame without a reference (key frame).
    #[must_use]
    pub fn encode_intra(&self, frame: &Framebuffer) -> EncodedFrame {
        let mut out = BytesMut::with_capacity(1024);
        let scale = self.quant_scale();
        for plane in &to_ycbcr_420(frame) {
            encode_plane(plane, scale, &mut out);
        }
        EncodedFrame {
            width: frame.width(),
            height: frame.height(),
            payload: out.freeze(),
        }
    }

    /// Decodes a frame.
    ///
    /// # Errors
    ///
    /// Returns a parse error for malformed bitstreams.
    pub fn decode(&self, encoded: &EncodedFrame) -> Result<Framebuffer, CodecError> {
        let (w, h) = (encoded.width, encoded.height);
        if w == 0 || h == 0 {
            return Err(CodecError::BadHeader);
        }
        let mut payload = encoded.payload.clone();
        let scale = self.quant_scale();
        let mut planes = Vec::with_capacity(3);
        for (pw, ph) in plane_dims(w, h) {
            planes.push(decode_plane(pw, ph, scale, &mut payload)?);
        }
        Ok(from_ycbcr_420(w, h, &planes))
    }
}

impl Default for TransformCodec {
    /// Quality 0.6: visually transparent for game content while achieving
    /// H.264-like compression ratios (~20:1 on detailed frames).
    fn default() -> Self {
        TransformCodec::new(0.6)
    }
}

/// One image plane (luma or subsampled chroma).
#[derive(Debug, Clone, PartialEq)]
struct Plane {
    w: u32,
    h: u32,
    data: Vec<f32>,
}

impl Plane {
    fn new(w: u32, h: u32) -> Self {
        Plane {
            w,
            h,
            data: vec![0.0; (w as usize) * (h as usize)],
        }
    }

    fn at(&self, x: u32, y: u32) -> f32 {
        let x = x.min(self.w - 1);
        let y = y.min(self.h - 1);
        self.data[(y as usize) * (self.w as usize) + x as usize]
    }

    fn set(&mut self, x: u32, y: u32, v: f32) {
        if x < self.w && y < self.h {
            self.data[(y as usize) * (self.w as usize) + x as usize] = v;
        }
    }
}

fn plane_dims(w: u32, h: u32) -> [(u32, u32); 3] {
    [
        (w, h),
        (w.div_ceil(2), h.div_ceil(2)),
        (w.div_ceil(2), h.div_ceil(2)),
    ]
}

/// RGB → Y'CbCr with 4:2:0 chroma subsampling.
fn to_ycbcr_420(frame: &Framebuffer) -> [Plane; 3] {
    let (w, h) = (frame.width(), frame.height());
    let [yd, cd, _] = plane_dims(w, h);
    let mut y = Plane::new(yd.0, yd.1);
    let mut cb = Plane::new(cd.0, cd.1);
    let mut cr = Plane::new(cd.0, cd.1);
    for py in 0..h {
        for px in 0..w {
            let c = frame.pixel(px, py);
            let yy = 0.299 * c.r() + 0.587 * c.g() + 0.114 * c.b();
            y.set(px, py, yy);
        }
    }
    for cy in 0..cd.1 {
        for cx in 0..cd.0 {
            // Average the 2x2 neighbourhood.
            let mut sb = 0.0;
            let mut sr = 0.0;
            let mut n = 0.0;
            for dy in 0..2 {
                for dx in 0..2 {
                    let (px, py) = (cx * 2 + dx, cy * 2 + dy);
                    if px < w && py < h {
                        let c = frame.pixel(px, py);
                        let yy = 0.299 * c.r() + 0.587 * c.g() + 0.114 * c.b();
                        sb += 0.564 * (c.b() - yy);
                        sr += 0.713 * (c.r() - yy);
                        n += 1.0;
                    }
                }
            }
            cb.set(cx, cy, sb / n);
            cr.set(cx, cy, sr / n);
        }
    }
    [y, cb, cr]
}

/// Y'CbCr 4:2:0 → RGB (alpha forced to 1).
fn from_ycbcr_420(w: u32, h: u32, planes: &[Plane]) -> Framebuffer {
    let mut fb = Framebuffer::new(w, h, Rgba::BLACK);
    for py in 0..h {
        for px in 0..w {
            let y = planes[0].at(px, py);
            let cb = planes[1].at(px / 2, py / 2);
            let cr = planes[2].at(px / 2, py / 2);
            let r = y + 1.403 * cr;
            let g = y - 0.344 * cb - 0.714 * cr;
            let b = y + 1.773 * cb;
            fb.set_pixel(
                px,
                py,
                Rgba::new(r.clamp(0.0, 1.0), g.clamp(0.0, 1.0), b.clamp(0.0, 1.0), 1.0),
            );
        }
    }
    fb
}

/// Forward 8×8 DCT-II (straightforward O(n⁴) per block; blocks are tiny).
fn dct8x8(block: &[f32; 64]) -> [f32; 64] {
    let mut out = [0.0f32; 64];
    for v in 0..8 {
        for u in 0..8 {
            let cu = if u == 0 {
                std::f32::consts::FRAC_1_SQRT_2
            } else {
                1.0
            };
            let cv = if v == 0 {
                std::f32::consts::FRAC_1_SQRT_2
            } else {
                1.0
            };
            let mut sum = 0.0;
            for y in 0..8 {
                for x in 0..8 {
                    sum += block[y * 8 + x]
                        * (((2 * x + 1) as f32) * (u as f32) * std::f32::consts::PI / 16.0).cos()
                        * (((2 * y + 1) as f32) * (v as f32) * std::f32::consts::PI / 16.0).cos();
                }
            }
            out[v * 8 + u] = 0.25 * cu * cv * sum;
        }
    }
    out
}

/// Inverse 8×8 DCT-II.
fn idct8x8(coeff: &[f32; 64]) -> [f32; 64] {
    let mut out = [0.0f32; 64];
    for y in 0..8 {
        for x in 0..8 {
            let mut sum = 0.0;
            for v in 0..8 {
                for u in 0..8 {
                    let cu = if u == 0 {
                        std::f32::consts::FRAC_1_SQRT_2
                    } else {
                        1.0
                    };
                    let cv = if v == 0 {
                        std::f32::consts::FRAC_1_SQRT_2
                    } else {
                        1.0
                    };
                    sum += cu
                        * cv
                        * coeff[v * 8 + u]
                        * (((2 * x + 1) as f32) * (u as f32) * std::f32::consts::PI / 16.0).cos()
                        * (((2 * y + 1) as f32) * (v as f32) * std::f32::consts::PI / 16.0).cos();
                }
            }
            out[y * 8 + x] = 0.25 * sum;
        }
    }
    out
}

/// Marker for a coded block; followed by RLE pairs and END.
const BLOCK_CODED: u8 = 0xFE;
/// End-of-block marker inside RLE data.
const RLE_END: u8 = 0xFD;

fn encode_plane(plane: &Plane, scale: f32, out: &mut BytesMut) {
    let bw = plane.w.div_ceil(8);
    let bh = plane.h.div_ceil(8);
    for by in 0..bh {
        for bx in 0..bw {
            let mut block = [0.0f32; 64];
            for y in 0..8 {
                for x in 0..8 {
                    block[(y * 8 + x) as usize] = plane.at(bx * 8 + x, by * 8 + y);
                }
            }
            out.put_u8(BLOCK_CODED);
            let coeffs = dct8x8(&block);
            // Quantise, zigzag, RLE + VLC.
            let mut run = 0u8;
            for (zi, &src) in ZIGZAG.iter().enumerate() {
                let q = (coeffs[src] * 255.0 / (QUANT_BASE[zi] * scale)).round() as i32;
                if q == 0 {
                    run = run.saturating_add(1);
                } else {
                    out.put_u8(run.min(252));
                    put_vlc(out, q);
                    run = 0;
                }
            }
            out.put_u8(RLE_END);
        }
    }
}

fn decode_plane(w: u32, h: u32, scale: f32, payload: &mut Bytes) -> Result<Plane, CodecError> {
    let mut plane = Plane::new(w, h);
    let bw = w.div_ceil(8);
    let bh = h.div_ceil(8);
    for by in 0..bh {
        for bx in 0..bw {
            if payload.remaining() < 1 || payload.get_u8() != BLOCK_CODED {
                return Err(CodecError::Truncated);
            }
            let mut coeffs = [0.0f32; 64];
            let mut zi = 0usize;
            loop {
                if payload.remaining() < 1 {
                    return Err(CodecError::Truncated);
                }
                let run = payload.get_u8();
                if run == RLE_END {
                    break;
                }
                zi += run as usize;
                if zi >= 64 {
                    return Err(CodecError::Truncated);
                }
                let q = get_vlc(payload)?;
                coeffs[ZIGZAG[zi]] = q as f32 * (QUANT_BASE[zi] * scale) / 255.0;
                zi += 1;
            }
            let block = idct8x8(&coeffs);
            for y in 0..8 {
                for x in 0..8 {
                    plane.set(bx * 8 + x, by * 8 + y, block[(y * 8 + x) as usize]);
                }
            }
        }
    }
    Ok(plane)
}

/// Signed variable-length coding: zigzag-map to unsigned, then LEB128-ish.
fn put_vlc(out: &mut BytesMut, v: i32) {
    let mut u = ((v << 1) ^ (v >> 31)) as u32;
    loop {
        let byte = (u & 0x7F) as u8;
        u >>= 7;
        if u == 0 {
            out.put_u8(byte);
            break;
        }
        out.put_u8(byte | 0x80);
    }
}

fn get_vlc(payload: &mut Bytes) -> Result<i32, CodecError> {
    let mut u: u32 = 0;
    let mut shift = 0;
    loop {
        if payload.remaining() < 1 {
            return Err(CodecError::Truncated);
        }
        let byte = payload.get_u8();
        let group = u32::from(byte & 0x7F);
        // The fifth group can only carry the top 4 bits of a u32; a larger
        // value is a corrupt stream (and would overflow the shift below).
        if shift == 28 && group > 0x0F {
            return Err(CodecError::Truncated);
        }
        u |= group << shift;
        if byte & 0x80 == 0 {
            break;
        }
        shift += 7;
        if shift > 28 {
            return Err(CodecError::Truncated);
        }
    }
    Ok((u >> 1) as i32 ^ -((u & 1) as i32))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qvr_gpu::Texture;

    /// Game-like content: a master value-noise field drives all channels in
    /// a correlated way (real frames have luma-dominated detail, not
    /// independent per-pixel chroma noise, which 4:2:0 subsampling would
    /// destroy regardless of codec quality).
    fn textured_frame(size: u32, roughness: f64, seed: u64) -> Framebuffer {
        let tex = Texture::value_noise(size, seed, roughness);
        let mut fb = Framebuffer::new(size, size, Rgba::BLACK);
        for y in 0..size {
            for x in 0..size {
                let v = tex.fetch(i64::from(x), i64::from(y)).r();
                fb.set_pixel(
                    x,
                    y,
                    Rgba::new(v, v * 0.7 + 0.15, (1.0 - v) * 0.4 + 0.3 * v, 1.0),
                );
            }
        }
        fb
    }

    #[test]
    fn dct_roundtrip_is_lossless() {
        let mut block = [0.0f32; 64];
        for (i, v) in block.iter_mut().enumerate() {
            *v = ((i * 7) % 13) as f32 / 13.0 - 0.5;
        }
        let back = idct8x8(&dct8x8(&block));
        for i in 0..64 {
            assert!((block[i] - back[i]).abs() < 1e-4, "index {i}");
        }
    }

    #[test]
    fn vlc_roundtrip() {
        let mut buf = BytesMut::new();
        let values = [0, 1, -1, 5, -128, 300, -70_000, i32::MAX / 4];
        for v in values {
            put_vlc(&mut buf, v);
        }
        let mut b = buf.freeze();
        for v in values {
            assert_eq!(get_vlc(&mut b).unwrap(), v);
        }
    }

    #[test]
    fn intra_roundtrip_high_quality() {
        let frame = crate::test_content::game_frame(64, 0.3, 1);
        let codec = TransformCodec::new(0.9);
        let enc = codec.encode_intra(&frame);
        let dec = codec.decode(&enc).unwrap();
        let psnr = dec.psnr(&frame);
        assert!(psnr > 30.0, "PSNR {psnr}");
    }

    #[test]
    fn quality_trades_size_for_psnr() {
        let frame = textured_frame(64, 0.5, 2);
        let hi = TransformCodec::new(0.9);
        let lo = TransformCodec::new(0.2);
        let enc_hi = hi.encode_intra(&frame);
        let enc_lo = lo.encode_intra(&frame);
        assert!(enc_hi.size_bytes() > enc_lo.size_bytes());
        let psnr_hi = hi.decode(&enc_hi).unwrap().psnr(&frame);
        let psnr_lo = lo.decode(&enc_lo).unwrap().psnr(&frame);
        assert!(psnr_hi > psnr_lo);
    }

    #[test]
    fn detailed_content_is_larger() {
        let smooth = textured_frame(64, 0.05, 3);
        let rough = textured_frame(64, 0.9, 3);
        let codec = TransformCodec::default();
        assert!(
            codec.encode_intra(&rough).size_bytes() > 2 * codec.encode_intra(&smooth).size_bytes()
        );
    }

    #[test]
    fn flat_frame_compresses_brutally() {
        let frame = Framebuffer::new(64, 64, Rgba::new(0.4, 0.4, 0.4, 1.0));
        let codec = TransformCodec::default();
        let enc = codec.encode_intra(&frame);
        // 64x64 RGBA floats are 64 KB as RGBA8; flat content must compress
        // by >40x.
        assert!(
            enc.size_bytes() < 1_000,
            "flat frame {} bytes",
            enc.size_bytes()
        );
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let frame = textured_frame(32, 0.5, 6);
        let codec = TransformCodec::default();
        let mut enc = codec.encode_intra(&frame);
        enc.payload = enc.payload.slice(0..enc.payload.len() / 2);
        assert!(matches!(codec.decode(&enc), Err(CodecError::Truncated)));
    }

    #[test]
    fn non_multiple_of_8_dimensions() {
        let mut fb = Framebuffer::new(37, 29, Rgba::new(0.2, 0.6, 0.4, 1.0));
        for y in 0..29 {
            for x in 0..37 {
                let v = (x as f32 / 37.0 + y as f32 / 29.0) / 2.0;
                fb.set_pixel(x, y, Rgba::new(v, 1.0 - v, v * v, 1.0));
            }
        }
        let codec = TransformCodec::new(0.8);
        let dec = codec.decode(&codec.encode_intra(&fb)).unwrap();
        assert_eq!(dec.width(), 37);
        assert_eq!(dec.height(), 29);
        assert!(dec.psnr(&fb) > 28.0, "psnr {}", dec.psnr(&fb));
    }

    #[test]
    fn compression_ratio_in_h264_ballpark() {
        // The paper's backgrounds compress ~20:1 (12.4 MB raw -> ~0.6 MB).
        // Our transform codec on game-like content should land in the same
        // order of magnitude (vs RGBA8 raw size).
        let frame = crate::test_content::game_frame(128, 0.45, 7);
        let codec = TransformCodec::default();
        let enc = codec.encode_intra(&frame);
        let raw = 128.0 * 128.0 * 4.0;
        let ratio = raw / enc.size_bytes() as f64;
        assert!((5.0..60.0).contains(&ratio), "compression ratio {ratio}");
    }

    /// Pins the intra bitstream bit for bit: an FNV-1a digest of every
    /// `encode_intra` payload over the entropy model's calibration grid
    /// (`stats.rs`, `entropy_model_tracks_real_codec`). The entropy model
    /// is fitted against this codec, so its bits change only in a
    /// declared re-pin.
    #[test]
    fn intra_bitstream_is_pinned() {
        const INTRA_DIGEST: u64 = 0x5fc8_3eb7_9e83_6b65;
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &detail in &[0.1, 0.3, 0.5, 0.7, 0.9] {
            let frame = crate::test_content::game_frame(64, detail, 11);
            for &quality in &[0.2, 0.35, 0.5, 0.65, 0.8] {
                let enc = TransformCodec::new(quality).encode_intra(&frame);
                for &b in enc.payload.as_slice() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        assert_eq!(h, INTRA_DIGEST, "intra bitstream digest {h:#018x}");
    }

    #[test]
    fn error_display() {
        assert_eq!(CodecError::Truncated.to_string(), "bitstream truncated");
    }

    /// Every strict prefix of a valid bitstream must decode to a clean
    /// `Truncated` error — a cut stream can never panic or over-read.
    #[test]
    fn all_truncations_are_rejected() {
        let a = crate::test_content::game_frame(16, 0.7, 21);
        let codec = TransformCodec::default();
        let intra = codec.encode_intra(&a);
        for n in 0..intra.payload.len() {
            let mut cut = intra.clone();
            cut.payload = cut.payload.slice(0..n);
            assert_eq!(codec.decode(&cut), Err(CodecError::Truncated), "prefix {n}");
        }
    }

    /// Flipping any single bit of the payload must yield either a decoded
    /// frame or a `CodecError` — never a panic. Exercises every byte
    /// position with a position-dependent bit, then sweeps the marker bytes
    /// that steer the block parser.
    #[test]
    fn bit_flips_never_panic() {
        let a = crate::test_content::game_frame(16, 0.7, 23);
        let codec = TransformCodec::default();
        let enc = codec.encode_intra(&a);
        let base = enc.payload.as_slice().to_vec();
        for i in 0..base.len() {
            let mut mutants = vec![base.clone(); 4];
            mutants[0][i] ^= 1 << (i % 8);
            mutants[1][i] = 0xFF; // no block marker
            mutants[2][i] = BLOCK_CODED;
            mutants[3][i] = RLE_END;
            for m in mutants {
                let mut e = enc.clone();
                e.payload = Bytes::copy_from_slice(&m);
                // Ok or Err are both acceptable; the assertion is the
                // absence of a panic or over-read.
                let _ = codec.decode(&e);
            }
        }
    }

    /// A maximal VLC continuation chain whose fifth group carries more than
    /// the 4 bits a u32 has left must be rejected, not overflow the shift
    /// (regression: panicked under `-C overflow-checks` before the guard).
    #[test]
    fn vlc_overflow_is_rejected_not_panicking() {
        let enc = EncodedFrame {
            width: 8,
            height: 8,
            payload: Bytes::copy_from_slice(&[BLOCK_CODED, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F]),
        };
        let codec = TransformCodec::default();
        assert_eq!(codec.decode(&enc), Err(CodecError::Truncated));
    }
}
