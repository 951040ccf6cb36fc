//! Mobile-GPU simulation substrate for the Q-VR reproduction.
//!
//! The paper evaluates on a modified **ATTILA-sim** — a cycle-level
//! rasterization GPU simulator — configured after an ARM Mali-G76 (Table 2).
//! We cannot ship ATTILA, so this crate rebuilds the two capabilities the
//! evaluation actually consumes:
//!
//! 1. **A functional software rasterizer** ([`raster`], [`geometry`],
//!    [`framebuffer`], [`texture`]) that renders real pixels. It validates
//!    the UCA filtering algebra, feeds the video codec with genuine image
//!    content, and produces ground-truth workload statistics
//!    ([`stats::RenderStats`]).
//! 2. **A cycle-accounting timing model** ([`timing`]) for a tile-based
//!    mobile GPU: two-pass (binning + per-tile fragment) execution, shader
//!    ALU throughput, texture filtering, L1/L2/DRAM traffic, and draw-batch
//!    overhead, all scaled by core frequency. A chiplet multi-GPU server
//!    model ([`remote`]) covers the remote rendering side.
//!
//! The timing model consumes a [`workload::FrameWorkload`] — an abstract
//! description of one frame's rendering work — which either comes from an
//! app profile (`qvr-scene`) or from measured rasterizer statistics, so the
//! analytic path can be cross-validated against the functional path.
//!
//! # Example
//!
//! ```
//! use qvr_gpu::{GpuConfig, FrameWorkload, GpuTimingModel};
//!
//! let gpu = GpuConfig::mali_g76_class();
//! let model = GpuTimingModel::new(gpu);
//! let frame = FrameWorkload::builder(1920, 2160)
//!     .triangles(500_000)
//!     .overdraw(1.8)
//!     .fragment_shader_cycles(24.0)
//!     .build();
//! let t = model.frame_time(&frame);
//! assert!(t.total_ms() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod framebuffer;
pub mod geometry;
pub mod raster;
pub mod remote;
pub mod stats;
pub mod texture;
pub mod timing;
pub mod workload;

pub use config::GpuConfig;
pub use framebuffer::{DepthBuffer, Framebuffer, Rgba};
pub use geometry::{Mat4, Triangle, Vec3, Vec4, Vertex};
pub use raster::RasterPipeline;
pub use remote::RemoteGpuModel;
pub use stats::RenderStats;
pub use texture::Texture;
pub use timing::{FrameTime, GpuTimingModel};
pub use workload::{FrameWorkload, FrameWorkloadBuilder};
