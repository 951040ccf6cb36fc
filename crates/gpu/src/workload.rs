//! Abstract description of one frame's rendering work.
//!
//! A [`FrameWorkload`] captures what the timing model needs to know about a
//! frame without the actual geometry: triangle count, covered pixels,
//! overdraw, per-fragment shading cost, texture intensity, and draw batch
//! count. App profiles (`qvr-scene`) produce these analytically; the
//! functional rasterizer's [`RenderStats`] can be converted into one for
//! cross-validation.

use crate::stats::RenderStats;
use std::fmt;

/// Per-frame rendering workload for **one eye**.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameWorkload {
    width: u32,
    height: u32,
    triangles: u64,
    coverage: f64,
    overdraw: f64,
    vertex_shader_cycles: f64,
    fragment_shader_cycles: f64,
    texture_samples_per_fragment: f64,
    batches: u64,
}

impl FrameWorkload {
    /// Starts building a workload for a render target of the given size.
    #[must_use]
    pub fn builder(width: u32, height: u32) -> FrameWorkloadBuilder {
        FrameWorkloadBuilder::new(width, height)
    }

    /// Builds a workload from measured rasterizer statistics.
    ///
    /// Shader cost knobs cannot be observed from counters and are taken as
    /// arguments.
    #[must_use]
    pub fn from_stats(
        width: u32,
        height: u32,
        stats: &RenderStats,
        vertex_shader_cycles: f64,
        fragment_shader_cycles: f64,
    ) -> Self {
        let pixels = f64::from(width) * f64::from(height);
        let coverage = if pixels > 0.0 {
            (stats.fragments_shaded as f64 / pixels).min(1.0)
        } else {
            0.0
        };
        let tex_per_frag = if stats.fragments_shaded == 0 {
            0.0
        } else {
            stats.texture_samples as f64 / stats.fragments_shaded as f64
        };
        FrameWorkload {
            width,
            height,
            triangles: stats.triangles_in,
            coverage,
            overdraw: stats.overdraw(),
            vertex_shader_cycles,
            fragment_shader_cycles,
            texture_samples_per_fragment: tex_per_frag,
            batches: stats.batches.max(1),
        }
    }

    /// Render-target width, pixels.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Render-target height, pixels.
    #[must_use]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Render-target pixel count.
    #[must_use]
    pub fn target_pixels(&self) -> f64 {
        f64::from(self.width) * f64::from(self.height)
    }

    /// Triangles submitted this frame.
    #[must_use]
    pub fn triangles(&self) -> u64 {
        self.triangles
    }

    /// Fraction of the target covered by visible geometry, `[0, 1]`.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        self.coverage
    }

    /// Fragments generated per finally-visible fragment (≥ 1).
    #[must_use]
    pub fn overdraw(&self) -> f64 {
        self.overdraw
    }

    /// ALU cycles per vertex.
    #[must_use]
    pub fn vertex_shader_cycles(&self) -> f64 {
        self.vertex_shader_cycles
    }

    /// ALU cycles per fragment.
    #[must_use]
    pub fn fragment_shader_cycles(&self) -> f64 {
        self.fragment_shader_cycles
    }

    /// Bilinear texture lookups per shaded fragment.
    #[must_use]
    pub fn texture_samples_per_fragment(&self) -> f64 {
        self.texture_samples_per_fragment
    }

    /// Draw batches (state changes) this frame.
    #[must_use]
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Total fragments generated (covered pixels × overdraw).
    #[must_use]
    pub fn fragments(&self) -> f64 {
        self.target_pixels() * self.coverage * self.overdraw
    }

    /// Total texture samples issued.
    #[must_use]
    pub fn texture_samples(&self) -> f64 {
        self.fragments() * self.texture_samples_per_fragment
    }

    /// Returns a copy scaled to a sub-region of the frame.
    ///
    /// `area_fraction` scales covered pixels; `triangle_fraction` scales
    /// submitted geometry. This is how foveal layers are derived from the
    /// full-frame workload: a fovea disc covering 10 % of the screen with
    /// 14 % of the scene's triangles is
    /// `full.scaled_region(0.10, 0.14)`.
    #[must_use]
    pub fn scaled_region(&self, area_fraction: f64, triangle_fraction: f64) -> Self {
        let area_fraction = area_fraction.clamp(0.0, 1.0);
        let triangle_fraction = triangle_fraction.clamp(0.0, 1.0);
        FrameWorkload {
            triangles: (self.triangles as f64 * triangle_fraction).round() as u64,
            coverage: self.coverage * area_fraction,
            // Batches shrink with geometry, but a floor of one remains.
            batches: ((self.batches as f64 * triangle_fraction).round() as u64).max(1),
            ..*self
        }
    }
}

impl fmt::Display for FrameWorkload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{}, {} tris, {:.0}% coverage, {:.2}x overdraw, {} batches",
            self.width,
            self.height,
            self.triangles,
            self.coverage * 100.0,
            self.overdraw,
            self.batches
        )
    }
}

/// Builder for [`FrameWorkload`] (see `C-BUILDER`).
#[derive(Debug, Clone)]
pub struct FrameWorkloadBuilder {
    workload: FrameWorkload,
}

impl FrameWorkloadBuilder {
    fn new(width: u32, height: u32) -> Self {
        FrameWorkloadBuilder {
            workload: FrameWorkload {
                width,
                height,
                triangles: 100_000,
                coverage: 1.0,
                overdraw: 1.5,
                vertex_shader_cycles: 12.0,
                fragment_shader_cycles: 24.0,
                texture_samples_per_fragment: 1.0,
                batches: 100,
            },
        }
    }

    /// Sets the triangle count.
    pub fn triangles(&mut self, n: u64) -> &mut Self {
        self.workload.triangles = n;
        self
    }

    /// Sets the covered fraction of the target (clamped to `[0, 1]`).
    pub fn coverage(&mut self, c: f64) -> &mut Self {
        self.workload.coverage = c.clamp(0.0, 1.0);
        self
    }

    /// Sets the overdraw factor (clamped to ≥ 1).
    pub fn overdraw(&mut self, o: f64) -> &mut Self {
        self.workload.overdraw = o.max(1.0);
        self
    }

    /// Sets ALU cycles per vertex.
    pub fn vertex_shader_cycles(&mut self, c: f64) -> &mut Self {
        self.workload.vertex_shader_cycles = c.max(0.0);
        self
    }

    /// Sets ALU cycles per fragment.
    pub fn fragment_shader_cycles(&mut self, c: f64) -> &mut Self {
        self.workload.fragment_shader_cycles = c.max(0.0);
        self
    }

    /// Sets texture samples per fragment.
    pub fn texture_samples_per_fragment(&mut self, t: f64) -> &mut Self {
        self.workload.texture_samples_per_fragment = t.max(0.0);
        self
    }

    /// Sets the draw batch count (floored at 1).
    pub fn batches(&mut self, b: u64) -> &mut Self {
        self.workload.batches = b.max(1);
        self
    }

    /// Finishes the builder.
    #[must_use]
    pub fn build(&self) -> FrameWorkload {
        self.workload
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_are_sane() {
        let w = FrameWorkload::builder(1920, 2160).build();
        assert_eq!(w.width(), 1920);
        assert!(w.coverage() > 0.0 && w.coverage() <= 1.0);
        assert!(w.overdraw() >= 1.0);
        assert!(w.fragments() > 0.0);
    }

    #[test]
    fn builder_clamps() {
        let w = FrameWorkload::builder(100, 100)
            .coverage(3.0)
            .overdraw(0.2)
            .batches(0)
            .build();
        assert_eq!(w.coverage(), 1.0);
        assert_eq!(w.overdraw(), 1.0);
        assert_eq!(w.batches(), 1);
    }

    #[test]
    fn fragments_formula() {
        let w = FrameWorkload::builder(100, 100)
            .coverage(0.5)
            .overdraw(2.0)
            .build();
        assert!((w.fragments() - 10_000.0).abs() < 1e-9);
    }

    #[test]
    fn scaled_region_shrinks_work() {
        let full = FrameWorkload::builder(1000, 1000)
            .triangles(1_000_000)
            .batches(100)
            .build();
        let part = full.scaled_region(0.25, 0.1);
        assert_eq!(part.triangles(), 100_000);
        assert!((part.coverage() - full.coverage() * 0.25).abs() < 1e-12);
        assert_eq!(part.batches(), 10);
        assert_eq!(part.width(), full.width(), "target size unchanged");
    }

    #[test]
    fn scaled_region_keeps_batch_floor() {
        let full = FrameWorkload::builder(100, 100).batches(3).build();
        assert_eq!(full.scaled_region(0.5, 0.0).batches(), 1);
    }

    #[test]
    fn from_stats_roundtrip() {
        let stats = RenderStats {
            triangles_in: 1000,
            fragments_shaded: 5000,
            fragments_rejected: 2500,
            texture_samples: 10_000,
            batches: 7,
            ..Default::default()
        };
        let w = FrameWorkload::from_stats(100, 100, &stats, 10.0, 20.0);
        assert_eq!(w.triangles(), 1000);
        assert!((w.coverage() - 0.5).abs() < 1e-12);
        assert!((w.overdraw() - 1.5).abs() < 1e-12);
        assert!((w.texture_samples_per_fragment() - 2.0).abs() < 1e-12);
        assert_eq!(w.batches(), 7);
        // Derived totals agree with the raw counters.
        assert!((w.fragments() - 7500.0).abs() < 1.0);
        assert!((w.texture_samples() - 15_000.0).abs() < 2.0);
    }

    #[test]
    fn display_mentions_dimensions() {
        let w = FrameWorkload::builder(640, 480).build();
        assert!(w.to_string().contains("640x480"));
    }
}
