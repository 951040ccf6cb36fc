//! # Q-VR: collaborative mobile VR rendering (ASPLOS '21 reproduction)
//!
//! A full-system reproduction of *Q-VR: System-Level Design for Future
//! Mobile Collaborative Virtual Reality* (Xie, Li, Hu, Peng, Taylor, Song —
//! ASPLOS 2021): a software–hardware co-design that splits each VR frame
//! between the mobile headset (a high-resolution **fovea** around the gaze)
//! and a remote server (MAR-constrained low-resolution **periphery**
//! streamed back as video), balanced per frame by a tiny learned controller
//! (**LIWC**) and composed off-GPU by a fused composition+timewarp unit
//! (**UCA**).
//!
//! The original evaluation ran on a modified cycle-level GPU simulator with
//! commercial game traces and physical network hardware; this workspace
//! rebuilds every substrate in Rust. See `DESIGN.md` for the substitution
//! map and `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! ## Crate map
//!
//! | Module (re-export) | Crate | Provides |
//! |---|---|---|
//! | [`hvs`] | `qvr-hvs` | MAR acuity model, layer partition, perception survey |
//! | [`gpu`] | `qvr-gpu` | software rasterizer + tile-based GPU timing model |
//! | [`scene`] | `qvr-scene` | the 12 app profiles, motion/gaze traces |
//! | [`codec`] | `qvr-codec` | DCT transform codec + compressed-size model |
//! | [`net`] | `qvr-net` | Wi-Fi/LTE/5G channels with SNR jitter + ACK monitor |
//! | [`sim`] | `qvr-sim` | discrete-event multi-accelerator pipeline engine |
//! | [`energy`] | `qvr-energy` | power models + Sec. 4.3 overhead figures |
//! | [`core`] | `qvr-core` | LIWC, UCA, foveation framework, the 7 schemes |
//!
//! ## Quickstart
//!
//! ```
//! use qvr::prelude::*;
//!
//! // Run 60 frames of GRID under full Q-VR and under the local baseline.
//! let config = SystemConfig::default();
//! let qvr = SchemeKind::Qvr.run(&config, Benchmark::Grid.profile(), 60, 42);
//! let base = SchemeKind::LocalOnly.run(&config, Benchmark::Grid.profile(), 60, 42);
//!
//! // Q-VR slashes motion-to-photon latency on heavy scenes.
//! assert!(qvr.mean_mtp_ms() < base.mean_mtp_ms() / 2.0);
//! println!("speedup: {:.1}x", base.mean_mtp_ms() / qvr.mean_mtp_ms());
//! ```
//!
//! ## Multi-tenant fleets
//!
//! The collaborative regime the paper targets — many headsets behind one
//! multi-GPU server and one wireless link — is a [`prelude::Fleet`]: N
//! sessions stepped round-robin against a shared server pool and a shared
//! channel budget, with tail-latency and fairness aggregates.
//!
//! ```
//! use qvr::prelude::*;
//!
//! // 8 Q-VR users share the default 8-GPU server and one Wi-Fi link.
//! let fleet = FleetConfig::uniform(
//!     SystemConfig::default(),
//!     SchemeKind::Qvr,
//!     Benchmark::Hl2H.profile(),
//!     8,   // sessions
//!     40,  // frames each
//!     42,  // seed
//! );
//! let summary = Fleet::run(fleet);
//! assert_eq!(summary.len(), 8);
//! println!("p95 MTP {:.1} ms, FPS floor {:.0}", summary.mtp_p95_ms, summary.fps_floor);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use qvr_codec as codec;
pub use qvr_core as core;
pub use qvr_energy as energy;
pub use qvr_gpu as gpu;
pub use qvr_hvs as hvs;
pub use qvr_net as net;
pub use qvr_scene as scene;
pub use qvr_sim as sim;

/// The items most programs need, in one import.
pub mod prelude {
    pub use qvr_codec::{
        CodecLatencyModel, EntropyModel, RateControlConfig, RateController, SizeModel,
        TransformCodec,
    };
    pub use qvr_core::admission::{AdmissionController, AdmissionDecision, AdmissionPolicy};
    pub use qvr_core::churn::{
        ChurnConfig, ChurnEvent, ChurnEventKind, ChurnFleet, ChurnSummary, ChurnTrace, TenantRecord,
    };
    pub use qvr_core::fleet::{Fleet, FleetConfig, FleetSummary, SessionSpec, SteppingPolicy};
    pub use qvr_core::metrics::{FrameRecord, Histogram, RunSummary};
    pub use qvr_core::obs::{
        parse_exposition, HealthMonitor, HealthRuleKind, HealthRules, Incident, MetricsSink,
        Severity, TraceConfig, TraceSink,
    };
    pub use qvr_core::sched::{ServerPolicy, TenantClass};
    pub use qvr_core::schemes::{SchemeKind, SystemConfig};
    pub use qvr_core::session::Session;
    pub use qvr_core::shard::{cell_seed, CellSummary, Shard, ShardConfig, ShardSummary};
    pub use qvr_core::telemetry::{
        AggregateSink, EnergyMeter, FrameEvent, FrameSpans, LoadTracker, StageSpan,
        TelemetryConfig, TelemetrySink, WindowedStatsSink,
    };
    pub use qvr_core::{FoveationPlan, Liwc, Uca, VrsRate};
    pub use qvr_energy::{
        overhead::LiwcOverhead, overhead::UcaOverhead, ApPowerModel, FleetEnergy, PowerModel,
        ServerPowerModel,
    };
    pub use qvr_gpu::{FrameWorkload, GpuConfig, GpuTimingModel, RemoteGpuModel};
    pub use qvr_hvs::{DisplayGeometry, GazePoint, LayerPartition, MarModel, PerceptionModel};
    pub use qvr_net::{FairnessPolicy, LinkShare, NetworkChannel, NetworkPreset, SharedChannel};
    pub use qvr_scene::{AppProfile, AppSession, Benchmark, CharacterizationApp};
}
