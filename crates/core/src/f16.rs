//! IEEE 754 half-precision storage for the LIWC mapping table.
//!
//! Sec. 4.3: "We use a 16 bit half-precision floating-point number to
//! represent the latency gradient offset." Storing gradients through a real
//! f16 round-trip keeps the quantisation behaviour of the hardware table in
//! the model.

use std::fmt;

/// A value stored in IEEE 754 binary16.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct F16(u16);

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0);

    /// Encodes an `f32` to binary16 (round-to-nearest-even on the mantissa,
    /// clamping to ±infinity on overflow).
    #[must_use]
    pub fn from_f32(v: f32) -> Self {
        let bits = v.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let mantissa = bits & 0x7F_FFFF;

        if exp == 0xFF {
            // Inf / NaN.
            let payload: u16 = if mantissa != 0 { 0x0200 } else { 0 };
            return F16(sign | 0x7C00 | payload);
        }
        // Re-bias from 127 to 15.
        let unbiased = exp - 127;
        if unbiased > 15 {
            return F16(sign | 0x7C00); // overflow to infinity
        }
        if unbiased >= -14 {
            // Normal half.
            let half_exp = ((unbiased + 15) as u16) << 10;
            let half_man = (mantissa >> 13) as u16;
            // Round to nearest (ties away, adequate for table storage).
            let round = ((mantissa >> 12) & 1) as u16;
            return F16((sign | half_exp | half_man).wrapping_add(round));
        }
        if unbiased >= -24 {
            // Subnormal half: value = man_half × 2⁻²⁴, so
            // man_half = 1.m × 2^(unbiased+24) = (implicit-one mantissa) >> (−1 − unbiased).
            let shift = (-1 - unbiased) as u32;
            let man = (mantissa | 0x80_0000) >> shift;
            return F16(sign | man as u16);
        }
        F16(sign) // underflow to zero
    }

    /// Decodes to `f32`.
    #[must_use]
    pub fn to_f32(self) -> f32 {
        let sign = u32::from(self.0 & 0x8000) << 16;
        let exp = u32::from(self.0 >> 10) & 0x1F;
        let man = u32::from(self.0) & 0x3FF;
        let bits = match (exp, man) {
            (0, 0) => sign,
            (0, m) => {
                // Subnormal: value = m × 2⁻²⁴ = 1.f × 2^(p−24) where p is
                // the MSB position of the 10-bit field.
                let p = 31 - m.leading_zeros();
                let exp32 = 127 + p - 24;
                let man32 = (m ^ (1 << p)) << (23 - p);
                sign | (exp32 << 23) | man32
            }
            (0x1F, 0) => sign | 0x7F80_0000,
            (0x1F, m) => sign | 0x7F80_0000 | (m << 13),
            (e, m) => sign | ((e + 127 - 15) << 23) | (m << 13),
        };
        f32::from_bits(bits)
    }
}

impl From<f32> for F16 {
    fn from(v: f32) -> Self {
        F16::from_f32(v)
    }
}

impl From<F16> for f32 {
    fn from(v: F16) -> Self {
        v.to_f32()
    }
}

impl fmt::Display for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_sign() {
        assert_eq!(F16::from_f32(0.0).to_f32(), 0.0);
        assert_eq!(F16::from_f32(-0.0).0, 0x8000);
        assert_eq!(F16::ZERO.to_f32(), 0.0);
    }

    #[test]
    fn exact_small_values_roundtrip() {
        for v in [1.0f32, -1.0, 0.5, 2.0, -3.5, 0.25, 1024.0] {
            assert_eq!(F16::from_f32(v).to_f32(), v, "{v}");
        }
    }

    #[test]
    fn precision_within_half_ulp() {
        // Gradients live in roughly [-10, 10] ms/deg; binary16 has ~3
        // decimal digits there.
        for i in 0..1000 {
            let v = -10.0 + 0.02 * i as f32;
            let q = F16::from_f32(v).to_f32();
            assert!((q - v).abs() <= 0.01_f32.max(v.abs() * 0.001), "{v} -> {q}");
        }
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        assert!(F16::from_f32(1e9).to_f32().is_infinite());
        assert!(F16::from_f32(-1e9).to_f32().is_infinite());
        assert!(
            F16::from_f32(65504.0).to_f32().is_finite(),
            "max half is finite"
        );
    }

    #[test]
    fn underflow_flushes_to_zero() {
        assert_eq!(F16::from_f32(1e-12).to_f32(), 0.0);
    }

    #[test]
    fn subnormals_roundtrip_approximately() {
        let v = 3.0e-5f32; // subnormal in half precision
        let q = F16::from_f32(v).to_f32();
        assert!((q - v).abs() / v < 0.05, "{v} -> {q}");
    }

    #[test]
    fn nan_stays_nan() {
        assert!(F16::from_f32(f32::NAN).to_f32().is_nan());
    }

    #[test]
    fn quantisation_is_idempotent() {
        for v in [0.123f32, -7.77, 42.42, 1e-3] {
            let once = F16::from_f32(v).to_f32();
            let twice = F16::from_f32(once).to_f32();
            assert_eq!(once, twice, "{v}");
        }
    }
}
