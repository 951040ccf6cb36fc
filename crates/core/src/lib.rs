//! Q-VR: software–hardware co-designed collaborative mobile VR rendering.
//!
//! This crate is the paper's primary contribution (Xie et al., ASPLOS
//! 2021), built on the substrate crates of this workspace:
//!
//! * [`liwc`] — the **Lightweight Interaction-aware Workload Controller**
//!   (Sec. 4.1): a Q-learning-flavoured accelerator that picks the per-frame
//!   fovea eccentricity `e1` from quantised motion deltas and a 2¹⁵-entry
//!   f16 gradient table, using *intermediate hardware data* (triangle count
//!   at setup, ACK-observed network throughput) so the decision lands before
//!   rendering completes.
//! * [`uca`] — the **Unified Composition and ATW** unit (Sec. 4.2): the
//!   algebraic fusion of foveated composition and asynchronous timewarp into
//!   one trilinear filtering pass (Eq. 4), implemented both functionally
//!   (on real framebuffers, with the equivalence property tested) and as a
//!   timing/contention model.
//! * [`foveation`] — the software framework of Fig. 7: the per-frame
//!   foveation plan with its layer eccentricities, VRS-quantised layer
//!   rates, and pixel and byte volumes.
//! * [`schemes`] — per-frame pipeline steppers for every design point the
//!   evaluation compares: local-only, remote-only, static collaborative,
//!   FFR, DFR, software-only Q-VR, and full Q-VR.
//! * [`session`] — first-class sessions: one user, one app, one scheme,
//!   steppable frame by frame on private or shared resources.
//! * [`fleet`] — the multi-tenant session engine: N sessions round-robin on
//!   one shared server pool and one shared wireless channel, with
//!   fleet-level tail-latency/FPS/utilisation aggregates and pluggable
//!   link-fairness policies (equal-share / weighted / airtime).
//! * [`admission`] — SLO admission control: probe-based accept / degrade /
//!   reject of joining sessions against p95-MTP, FPS-floor, and
//!   pool-utilization targets.
//! * [`sched`] — server-side GPU scheduling policies for heterogeneous
//!   fleets: class-aware unit placement (least-loaded / quota-partition /
//!   adaptive-priority) isolating adaptive tenants from noisy
//!   non-adaptive neighbours, plus measured-load placement driven by the
//!   telemetry stream.
//! * [`telemetry`] — the push observability API: per-frame [`FrameEvent`]s
//!   emitted at display end and fanned out to pluggable
//!   [`telemetry::TelemetrySink`]s (streaming aggregates, windowed
//!   percentiles, fleet energy, measured load).
//! * [`metrics`] — per-frame records and run summaries (latency breakdowns,
//!   FPS, transmitted bytes, energy), plus the mergeable log-linear
//!   [`metrics::Histogram`] behind the monitoring paths.
//! * [`obs`] — observability over the telemetry seam: sampled span tracing
//!   with Chrome-trace export, per-class mergeable histogram metrics with
//!   a Prometheus-style exposition, and a streaming SLO health monitor
//!   emitting deterministic incident timelines.
//!
//! # Example
//!
//! ```
//! use qvr_core::schemes::{SchemeKind, SystemConfig};
//! use qvr_scene::Benchmark;
//!
//! let config = SystemConfig::default();
//! let summary = SchemeKind::Qvr.run(&config, Benchmark::Doom3H.profile(), 60, 42);
//! assert!(summary.mean_mtp_ms() > 0.0);
//! assert!(summary.fps() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
mod cell;
pub mod churn;
pub mod f16;
pub mod fleet;
pub mod foveation;
pub mod liwc;
pub mod metrics;
pub mod obs;
pub mod sched;
pub mod schemes;
pub mod session;
pub mod shard;
pub mod telemetry;
pub mod uca;

pub use admission::{AdmissionController, AdmissionDecision, AdmissionPolicy};
pub use churn::{ChurnConfig, ChurnEvent, ChurnFleet, ChurnSummary, ChurnTrace};
pub use f16::F16;
pub use fleet::{Fleet, FleetConfig, FleetSummary, SessionSpec, SteppingPolicy};
pub use foveation::{FoveationPlan, VrsRate};
pub use liwc::Liwc;
pub use metrics::{FrameRecord, Histogram, RunSummary};
pub use obs::{
    HealthMonitor, HealthRuleKind, HealthRules, Incident, MetricsSink, Severity, TraceConfig,
    TraceSink,
};
pub use sched::{ServerPolicy, TenantClass};
pub use schemes::{SchemeKind, SystemConfig};
pub use session::Session;
pub use shard::{cell_seed, CellSummary, Shard, ShardConfig, ShardSummary};
pub use telemetry::{
    AggregateSink, EnergyMeter, FrameEvent, FrameSpans, LoadTracker, StageSpan, TelemetryConfig,
    TelemetrySink, WindowedStatsSink,
};
pub use uca::Uca;
