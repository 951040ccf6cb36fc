//! Cycle-accounting timing model for a tile-based mobile GPU.
//!
//! Mobile GPUs (Mali-G76 included) are tile-based deferred renderers: a
//! **binning pass** transforms geometry and sorts it into screen tiles, then
//! a **fragment pass** shades each tile out of on-chip memory. The two
//! passes are serialized per render target; within the fragment pass, shader
//! ALU work, texture filtering, and external DRAM traffic proceed in
//! parallel, so the pass runs at the speed of its slowest resource — a
//! roofline in the spirit of Gables (Hill & Reddi, 2019), which the paper
//! cites for multi-accelerator SoC modelling.
//!
//! The model charges:
//!
//! * binning: vertex shading (ALU) in parallel with fixed-function triangle
//!   setup/binning throughput;
//! * fragment: max(ALU shading, texture filtering, DRAM traffic);
//! * per-batch driver/state overhead and a fixed per-frame overhead.
//!
//! DRAM traffic counts geometry fetch, texture miss traffic (with an
//! L2-working-set amplification), and the final tile flush. All cycle
//! counts convert to time via the configured core clock.

use crate::config::GpuConfig;
use crate::workload::FrameWorkload;
use std::fmt;

/// Bytes fetched per vertex (position + attributes).
const VERTEX_FETCH_BYTES: f64 = 32.0;
/// Average vertices shaded per triangle after post-transform reuse.
const VERTICES_PER_TRIANGLE: f64 = 1.5;
/// Bytes per texel in memory (RGBA8).
const TEXEL_BYTES: f64 = 4.0;
/// Bytes written per covered pixel at tile flush (RGBA8).
const FLUSH_BYTES_PER_PIXEL: f64 = 4.0;

/// Cycle and time breakdown for one frame on one GPU.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FrameTime {
    /// Binning-pass cycles (vertex shading ∥ triangle setup).
    pub binning_cycles: f64,
    /// Fragment-pass cycles (max of ALU / texture / DRAM).
    pub fragment_cycles: f64,
    /// Shader ALU cycles inside the fragment pass (informational).
    pub alu_cycles: f64,
    /// Texture-unit cycles inside the fragment pass (informational).
    pub texture_cycles: f64,
    /// DRAM-bound cycles inside the fragment pass (informational).
    pub dram_cycles: f64,
    /// Batch + frame overhead cycles.
    pub overhead_cycles: f64,
    /// Core frequency used for conversion, MHz.
    pub frequency_mhz: f64,
}

impl FrameTime {
    /// Total cycles for the frame.
    #[must_use]
    pub fn total_cycles(&self) -> f64 {
        self.binning_cycles + self.fragment_cycles + self.overhead_cycles
    }

    /// Total frame time in milliseconds.
    #[must_use]
    pub fn total_ms(&self) -> f64 {
        self.total_cycles() / (self.frequency_mhz * 1_000.0)
    }

    /// The fragment-pass resource that bounds this frame.
    #[must_use]
    pub fn bottleneck(&self) -> Bottleneck {
        if self.dram_cycles >= self.alu_cycles && self.dram_cycles >= self.texture_cycles {
            Bottleneck::Memory
        } else if self.alu_cycles >= self.texture_cycles {
            Bottleneck::Shading
        } else {
            Bottleneck::Texturing
        }
    }
}

impl fmt::Display for FrameTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.2} ms ({:.1}M cycles, {} bound)",
            self.total_ms(),
            self.total_cycles() / 1e6,
            self.bottleneck()
        )
    }
}

/// Which resource bounds the fragment pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    /// Shader ALU throughput.
    Shading,
    /// Texture filtering throughput.
    Texturing,
    /// External memory bandwidth.
    Memory,
}

impl fmt::Display for Bottleneck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Bottleneck::Shading => "ALU",
            Bottleneck::Texturing => "texture",
            Bottleneck::Memory => "memory",
        };
        f.write_str(s)
    }
}

/// The analytic timing model for one [`GpuConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GpuTimingModel {
    config: GpuConfig,
}

impl GpuTimingModel {
    /// Creates a model over a hardware configuration.
    #[must_use]
    pub fn new(config: GpuConfig) -> Self {
        GpuTimingModel { config }
    }

    /// Times one monoscopic frame.
    #[must_use]
    pub fn frame_time(&self, w: &FrameWorkload) -> FrameTime {
        let c = &self.config;
        let triangles = w.triangles() as f64;
        let vertices = triangles * VERTICES_PER_TRIANGLE;

        // Binning pass: vertex ALU in parallel with fixed-function setup.
        let vertex_alu = vertices * w.vertex_shader_cycles() / c.total_lanes();
        let setup = triangles / c.triangles_per_cycle;
        let geometry_fetch_bytes = vertices * VERTEX_FETCH_BYTES;
        let geometry_dram = geometry_fetch_bytes / c.dram_bytes_per_cycle;
        let binning_cycles = vertex_alu.max(setup).max(geometry_dram);

        // Fragment pass.
        let fragments = w.fragments();
        let alu_cycles = fragments * w.fragment_shader_cycles() / c.total_lanes();

        let samples = w.texture_samples();
        // Each bilinear sample needs one cycle per `texels_per_cycle` quad;
        // anisotropic filtering multiplies taps on a fraction of samples.
        let aniso_tap_factor = 1.0 + (c.anisotropy - 1.0) * 0.25;
        let texture_cycles =
            samples * aniso_tap_factor / (f64::from(c.texture_units) * c.texels_per_cycle);

        // DRAM traffic: texture misses + tile flush. Unique texels scale
        // with *visible* pixels; the miss amplification grows once the
        // texture working set exceeds the L2.
        let visible_pixels = w.target_pixels() * w.coverage();
        let unique_texel_bytes =
            visible_pixels * TEXEL_BYTES * w.texture_samples_per_fragment().min(2.0);
        let l2 = c.l2_bytes as f64;
        let amplification = 1.0 + (unique_texel_bytes / l2).log2().max(0.0) * 0.25;
        let texture_dram_bytes = unique_texel_bytes * amplification;
        let flush_bytes = visible_pixels * FLUSH_BYTES_PER_PIXEL;
        let dram_cycles = (texture_dram_bytes + flush_bytes) / c.dram_bytes_per_cycle;

        let fragment_cycles = alu_cycles.max(texture_cycles).max(dram_cycles);

        let overhead_cycles =
            w.batches() as f64 * c.batch_overhead_cycles + c.frame_overhead_cycles;

        FrameTime {
            binning_cycles,
            fragment_cycles,
            alu_cycles,
            texture_cycles,
            dram_cycles,
            overhead_cycles,
            frequency_mhz: c.frequency_mhz,
        }
    }

    /// Times a stereo frame with simultaneous multi-projection: geometry is
    /// binned once and the fragment pass runs for both eyes (the ATTILA
    /// modification described in Sec. 5).
    #[must_use]
    pub fn stereo_frame_time(&self, per_eye: &FrameWorkload) -> FrameTime {
        let mono = self.frame_time(per_eye);
        FrameTime {
            fragment_cycles: mono.fragment_cycles * 2.0,
            alu_cycles: mono.alu_cycles * 2.0,
            texture_cycles: mono.texture_cycles * 2.0,
            dram_cycles: mono.dram_cycles * 2.0,
            ..mono
        }
    }

    /// Time for a full-screen post-processing pass (composition, ATW, lens
    /// distortion) over `pixels` at `cycles_per_pixel` ALU cost, in ms.
    ///
    /// Such passes are bandwidth-light (streaming reads) and ALU-bound on
    /// mobile GPUs, so only ALU throughput is charged plus the frame
    /// overhead of a kernel launch.
    #[must_use]
    pub fn fullscreen_pass_ms(&self, pixels: f64, cycles_per_pixel: f64) -> f64 {
        let c = &self.config;
        let alu = pixels * cycles_per_pixel / c.total_lanes();
        c.cycles_to_ms(alu + c.frame_overhead_cycles * 0.2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heavy() -> FrameWorkload {
        FrameWorkload::builder(1920, 2160)
            .triangles(2_000_000)
            .overdraw(2.2)
            .fragment_shader_cycles(48.0)
            .texture_samples_per_fragment(2.0)
            .batches(2_000)
            .build()
    }

    fn light() -> FrameWorkload {
        FrameWorkload::builder(1280, 1600)
            .triangles(200_000)
            .overdraw(1.4)
            .fragment_shader_cycles(16.0)
            .texture_samples_per_fragment(1.0)
            .batches(300)
            .build()
    }

    #[test]
    fn heavy_frame_slower_than_light() {
        let m = GpuTimingModel::new(GpuConfig::mali_g76_class());
        assert!(m.frame_time(&heavy()).total_ms() > 3.0 * m.frame_time(&light()).total_ms());
    }

    #[test]
    fn heavy_frame_in_mobile_vr_range() {
        // The motivation study (Fig. 3a) reports 40–130 ms for high-quality
        // apps on mobile silicon; a heavy single eye should land near half
        // that band.
        let m = GpuTimingModel::new(GpuConfig::mali_g76_class());
        let t = m.stereo_frame_time(&heavy()).total_ms();
        assert!((20.0..200.0).contains(&t), "stereo heavy frame {t} ms");
    }

    #[test]
    fn frequency_scales_time_inversely() {
        let w = heavy();
        let fast = GpuTimingModel::new(GpuConfig::mali_g76_class().with_frequency_mhz(500.0));
        let slow = GpuTimingModel::new(GpuConfig::mali_g76_class().with_frequency_mhz(250.0));
        let ratio = slow.frame_time(&w).total_ms() / fast.frame_time(&w).total_ms();
        assert!(
            (ratio - 2.0).abs() < 1e-9,
            "halving clock doubles time, got {ratio}"
        );
    }

    #[test]
    fn stereo_doubles_fragment_work_only() {
        let m = GpuTimingModel::new(GpuConfig::mali_g76_class());
        let w = heavy();
        let mono = m.frame_time(&w);
        let stereo = m.stereo_frame_time(&w);
        assert_eq!(stereo.binning_cycles, mono.binning_cycles);
        assert_eq!(stereo.fragment_cycles, 2.0 * mono.fragment_cycles);
        assert!(stereo.total_ms() < 2.0 * mono.total_ms());
    }

    #[test]
    fn more_triangles_cost_more() {
        let m = GpuTimingModel::new(GpuConfig::mali_g76_class());
        let base = FrameWorkload::builder(1920, 2160)
            .triangles(100_000)
            .build();
        let more = FrameWorkload::builder(1920, 2160)
            .triangles(4_000_000)
            .build();
        assert!(m.frame_time(&more).total_ms() > m.frame_time(&base).total_ms());
    }

    #[test]
    fn coverage_scales_fragment_pass() {
        let m = GpuTimingModel::new(GpuConfig::mali_g76_class());
        let full = FrameWorkload::builder(1920, 2160).coverage(1.0).build();
        let tenth = FrameWorkload::builder(1920, 2160).coverage(0.1).build();
        let ft_full = m.frame_time(&full);
        let ft_tenth = m.frame_time(&tenth);
        assert!(ft_tenth.fragment_cycles < 0.2 * ft_full.fragment_cycles);
    }

    #[test]
    fn bottleneck_flips_with_workload_character() {
        let m = GpuTimingModel::new(GpuConfig::mali_g76_class());
        let alu_bound = FrameWorkload::builder(1920, 2160)
            .fragment_shader_cycles(100.0)
            .texture_samples_per_fragment(0.1)
            .build();
        let tex_bound = FrameWorkload::builder(1920, 2160)
            .fragment_shader_cycles(2.0)
            .texture_samples_per_fragment(8.0)
            .build();
        assert_eq!(m.frame_time(&alu_bound).bottleneck(), Bottleneck::Shading);
        assert_ne!(m.frame_time(&tex_bound).bottleneck(), Bottleneck::Shading);
    }

    #[test]
    fn fullscreen_pass_is_cheap_but_not_free() {
        let m = GpuTimingModel::new(GpuConfig::mali_g76_class());
        let px = 1920.0 * 2160.0;
        let atw = m.fullscreen_pass_ms(px, 8.0);
        assert!(atw > 0.5 && atw < 10.0, "ATW-class pass {atw} ms");
        assert!(m.fullscreen_pass_ms(px, 16.0) > atw);
    }

    #[test]
    fn pascal_class_much_faster_on_same_frame() {
        let w = heavy();
        let mobile = GpuTimingModel::new(GpuConfig::mali_g76_class());
        let server = GpuTimingModel::new(GpuConfig::pascal_class());
        let speedup = mobile.frame_time(&w).total_ms() / server.frame_time(&w).total_ms();
        assert!(speedup > 8.0, "server speedup {speedup}");
    }

    #[test]
    fn empty_frame_costs_only_overhead() {
        let m = GpuTimingModel::new(GpuConfig::mali_g76_class());
        let w = FrameWorkload::builder(1920, 2160)
            .triangles(0)
            .coverage(0.0)
            .batches(1)
            .build();
        let t = m.frame_time(&w);
        assert_eq!(t.binning_cycles, 0.0);
        assert_eq!(t.fragment_cycles, 0.0);
        assert!(t.total_cycles() > 0.0, "overhead still charged");
    }

    #[test]
    fn frame_time_display() {
        let m = GpuTimingModel::new(GpuConfig::mali_g76_class());
        let s = m.frame_time(&heavy()).to_string();
        assert!(s.contains("ms"));
    }
}
