//! The remote rendering server: a chiplet-based multi-GPU system.
//!
//! The paper's server is "a future chiplet based multi-GPU design that can
//! scale up to 8 MCM GPUs (similar to that in [OO-VR])" enabling parallel
//! rendering of the periphery layers. OO-VR reports near-linear scaling for
//! VR parallel rendering thanks to NUMA-friendly object placement; we model
//! per-GPU efficiency with a configurable scaling coefficient.

use crate::config::GpuConfig;
use crate::timing::GpuTimingModel;
use crate::workload::FrameWorkload;
use std::fmt;

/// A multi-GPU remote rendering server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RemoteGpuModel {
    gpu: GpuConfig,
    count: u32,
    scaling: f64,
}

impl RemoteGpuModel {
    /// Creates a server with `count` GPUs of the given configuration.
    ///
    /// `scaling` is the incremental efficiency of each added GPU in
    /// `[0, 1]`: effective parallelism is `1 + scaling × (count − 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or `scaling` is outside `[0, 1]`.
    #[must_use]
    pub fn new(gpu: GpuConfig, count: u32, scaling: f64) -> Self {
        assert!(count > 0, "server needs at least one GPU");
        assert!(
            (0.0..=1.0).contains(&scaling),
            "scaling must be within [0, 1]"
        );
        RemoteGpuModel {
            gpu,
            count,
            scaling,
        }
    }

    /// The paper's default: 8 MCM Pascal-class GPUs with OO-VR-like
    /// NUMA-friendly scaling.
    #[must_use]
    pub fn mcm_8_gpu() -> Self {
        RemoteGpuModel::new(GpuConfig::pascal_class(), 8, 0.85)
    }

    /// Number of GPUs.
    #[must_use]
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Effective parallel speedup over one GPU.
    #[must_use]
    pub fn effective_parallelism(&self) -> f64 {
        1.0 + self.scaling * f64::from(self.count - 1)
    }

    /// Stereo render time for a per-eye workload across the GPU array, ms.
    #[must_use]
    pub fn stereo_render_ms(&self, per_eye: &FrameWorkload) -> f64 {
        let single = GpuTimingModel::new(self.gpu)
            .stereo_frame_time(per_eye)
            .total_ms();
        single / self.effective_parallelism()
    }

    /// Stereo render time for a per-eye workload on **one** GPU of the
    /// array, ms — the per-unit cost when the server is scheduled as a pool
    /// of frame-level units (multi-tenant mode) instead of ganging all
    /// chiplets on a single frame.
    #[must_use]
    pub fn per_gpu_stereo_render_ms(&self, per_eye: &FrameWorkload) -> f64 {
        GpuTimingModel::new(self.gpu)
            .stereo_frame_time(per_eye)
            .total_ms()
    }
}

impl Default for RemoteGpuModel {
    fn default() -> Self {
        RemoteGpuModel::mcm_8_gpu()
    }
}

impl fmt::Display for RemoteGpuModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x MCM GPU ({:.1}x effective), {}",
            self.count,
            self.effective_parallelism(),
            self.gpu
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> FrameWorkload {
        FrameWorkload::builder(1920, 2160)
            .triangles(2_000_000)
            .overdraw(2.0)
            .fragment_shader_cycles(48.0)
            .build()
    }

    #[test]
    fn more_gpus_render_faster() {
        let one = RemoteGpuModel::new(GpuConfig::pascal_class(), 1, 0.85);
        let eight = RemoteGpuModel::mcm_8_gpu();
        assert!(eight.stereo_render_ms(&frame()) < one.stereo_render_ms(&frame()));
    }

    #[test]
    fn effective_parallelism_bounds() {
        let m = RemoteGpuModel::mcm_8_gpu();
        let p = m.effective_parallelism();
        assert!(p > 1.0 && p <= 8.0, "parallelism {p}");
    }

    #[test]
    fn server_renders_full_frame_fast() {
        // The remote side must not be the bottleneck: a heavy stereo frame
        // should render in single-digit milliseconds on the 8-GPU server.
        let m = RemoteGpuModel::mcm_8_gpu();
        let t = m.stereo_render_ms(&frame());
        assert!(t < 10.0, "remote stereo render {t} ms");
    }

    #[test]
    fn per_gpu_time_is_the_unscaled_single_gpu_time() {
        let m = RemoteGpuModel::mcm_8_gpu();
        let pooled = m.per_gpu_stereo_render_ms(&frame());
        let ganged = m.stereo_render_ms(&frame());
        assert!(
            (pooled / ganged - m.effective_parallelism()).abs() < 1e-9,
            "per-GPU time must be the array time times the effective parallelism"
        );
    }

    #[test]
    fn zero_scaling_means_no_speedup() {
        let m = RemoteGpuModel::new(GpuConfig::pascal_class(), 8, 0.0);
        assert_eq!(m.effective_parallelism(), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one GPU")]
    fn zero_gpus_rejected() {
        let _ = RemoteGpuModel::new(GpuConfig::pascal_class(), 0, 0.5);
    }

    #[test]
    #[should_panic(expected = "scaling")]
    fn bad_scaling_rejected() {
        let _ = RemoteGpuModel::new(GpuConfig::pascal_class(), 4, 1.5);
    }

    #[test]
    fn display_mentions_count() {
        assert!(RemoteGpuModel::mcm_8_gpu().to_string().contains("8x"));
    }
}
