//! End-to-end frame pipelines for every design point in the evaluation.
//!
//! | Kind | Paper name | Where work runs |
//! |---|---|---|
//! | [`SchemeKind::LocalOnly`] | Baseline (commercial mobile VR) | everything on the mobile GPU |
//! | [`SchemeKind::RemoteOnly`] | remote-only rendering (Fig. 3b) | everything on the server, streamed |
//! | [`SchemeKind::StaticCollab`] | Static collaborative rendering | interactive objects local, prefetched background remote |
//! | [`SchemeKind::Ffr`] | FFR | fovea (fixed e1 = 5°) local, periphery remote |
//! | [`SchemeKind::Dfr`] | DFR | FFR + LIWC-driven dynamic e1 |
//! | [`SchemeKind::QvrSw`] | pure-software Q-VR (Fig. 12 "SW") | dynamic e1 from software-measured latencies |
//! | [`SchemeKind::Qvr`] | Q-VR | LIWC + UCA |
//!
//! Every scheme shares one [`SystemConfig`] (Table 2 defaults), one seeded
//! app session, and the same discrete-event rig, so comparisons are
//! apples-to-apples.

mod foveated;
mod local;
mod remote;
mod rig;
mod static_collab;

pub(crate) use rig::Label;
pub use rig::{RemoteChain, Rig, ServerPool};

use crate::metrics::RunSummary;
use crate::session::Session;
use crate::uca::UcaTiming;
use qvr_codec::{CodecLatencyModel, RateControlConfig, SizeModel};
use qvr_energy::{ApPowerModel, PowerModel, ServerPowerModel};
use qvr_gpu::{GpuConfig, RemoteGpuModel};
use qvr_hvs::MarModel;
use qvr_net::NetworkPreset;
use qvr_scene::AppProfile;
use qvr_scene::AppSession;
use std::fmt;

/// Full system configuration shared by all schemes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Mobile GPU (Table 2).
    pub gpu: GpuConfig,
    /// Remote multi-GPU server.
    pub remote: RemoteGpuModel,
    /// Network technology.
    pub network: NetworkPreset,
    /// Acuity model.
    pub mar: MarModel,
    /// Compressed-size model.
    pub size_model: SizeModel,
    /// Per-tenant closed-loop rate control (default **off**: tx bytes come
    /// from the closed-form size model, bit-identical to the pinned
    /// goldens; on: entropy-modeled bytes at the controller's quality).
    pub rate_control: RateControlConfig,
    /// Hardware codec latency model.
    pub codec_latency: CodecLatencyModel,
    /// Power model for energy accounting (the headset's own hardware).
    pub power: PowerModel,
    /// Per-unit power of the shared remote server pool (fleet-level energy
    /// accounting via the telemetry `EnergyMeter`).
    pub server_power: ServerPowerModel,
    /// Power of the access point serving the fleet's shared link.
    pub ap_power: ApPowerModel,
    /// Sensor-data transport latency counted into MTP, ms (Sec. 7: 2 ms).
    pub tracking_ms: f64,
    /// HMD scanout latency counted into MTP, ms (Sec. 5: 5 ms).
    pub display_ms: f64,
    /// Control-logic (CL) CPU time per frame, ms.
    pub cl_ms: f64,
    /// Local-setup (LS) CPU time per frame, ms.
    pub ls_ms: f64,
    /// Extra CPU time for the pure-software controller's decision, ms.
    pub sw_controller_ms: f64,
    /// GPU composition cost for foveated layers, cycles per output pixel.
    pub composition_cycles_per_px: f64,
    /// GPU composition cost for the static scheme's depth-based embedding,
    /// cycles per output pixel (collision detection makes it pricier).
    pub static_composition_cycles_per_px: f64,
    /// GPU ATW cost, cycles per output pixel.
    pub atw_cycles_per_px: f64,
    /// Bytes multiplier for the second eye under inter-view prediction.
    pub stereo_stream_factor: f64,
    /// Encoder-quality factor for periphery streams (Eq. 1's "*Periphery
    /// Quality" knob).
    pub periphery_quality: f64,
    /// Streaming chunks per frame (render/encode/transmit/decode overlap).
    pub tx_chunks: u32,
    /// Static scheme's prefetch look-ahead, frames (Sec. 2.3: ~3).
    pub prefetch_lookahead: u32,
    /// Head-rotation threshold over the look-ahead window beyond which the
    /// prefetched background is unusable, degrees.
    pub misprediction_rotation_deg: f64,
    /// Head-rotation threshold under which the static scheme reuses its
    /// cached background instead of fetching (FlashBack-style memoization).
    pub static_cache_rotation_deg: f64,
    /// LIWC table initialisation gradient, ms/degree.
    pub liwc_initial_gradient: f64,
    /// LIWC reward smoothing α.
    pub liwc_reward_alpha: f64,
    /// LIWC predictor refinement α.
    pub liwc_predictor_alpha: f64,
    /// Software controller's proportional gain, degrees per ms of gap.
    pub sw_gain_deg_per_ms: f64,
    /// Software controller's measurement lag, frames.
    pub sw_lag_frames: usize,
    /// Initial eccentricity for dynamic controllers, degrees (paper: 5°).
    pub initial_e1_deg: f64,
    /// UCA timing model.
    pub uca_timing: UcaTiming,
    /// Frames allowed in flight (render-ahead), ≥ 1.
    pub frames_in_flight: u32,
    /// Target refresh rate, Hz.
    pub target_fps: f64,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            gpu: GpuConfig::mali_g76_class(),
            remote: RemoteGpuModel::mcm_8_gpu(),
            network: NetworkPreset::WiFi,
            mar: MarModel::default(),
            size_model: SizeModel::default(),
            rate_control: RateControlConfig::default(),
            codec_latency: CodecLatencyModel::mobile_soc(),
            power: PowerModel::default(),
            server_power: ServerPowerModel::default(),
            ap_power: ApPowerModel::default(),
            tracking_ms: 2.0,
            display_ms: 5.0,
            cl_ms: 0.3,
            ls_ms: 0.4,
            sw_controller_ms: 1.2,
            composition_cycles_per_px: 4.0,
            static_composition_cycles_per_px: 9.0,
            atw_cycles_per_px: 5.0,
            stereo_stream_factor: 1.35,
            periphery_quality: 0.9,
            tx_chunks: 4,
            prefetch_lookahead: 3,
            misprediction_rotation_deg: 1.5,
            static_cache_rotation_deg: 0.8,
            liwc_initial_gradient: -1.0,
            liwc_reward_alpha: 0.3,
            liwc_predictor_alpha: 0.3,
            sw_gain_deg_per_ms: 0.4,
            sw_lag_frames: 3,
            initial_e1_deg: 5.0,
            uca_timing: UcaTiming::default(),
            frames_in_flight: 2,
            target_fps: 90.0,
        }
    }
}

impl SystemConfig {
    /// Returns a copy with the mobile GPU clocked differently (the Table 4
    /// / Fig. 15 frequency axis).
    #[must_use]
    pub fn with_gpu_frequency_mhz(mut self, mhz: f64) -> Self {
        self.gpu = self.gpu.with_frequency_mhz(mhz);
        self
    }

    /// Returns a copy on a different network technology.
    #[must_use]
    pub fn with_network(mut self, preset: NetworkPreset) -> Self {
        self.network = preset;
        self
    }

    /// Returns a copy with the per-tenant rate controller configured
    /// (pass [`RateControlConfig::on`] to switch the content-true,
    /// entropy-modeled byte path on).
    #[must_use]
    pub fn with_rate_control(mut self, rate_control: RateControlConfig) -> Self {
        self.rate_control = rate_control;
        self
    }
}

/// Maps a frame's head-motion delta to the entropy model's inter-frame
/// coherence index in `[0, 1]`: around 1.5° of rotation in one frame (a
/// fast head turn at 90 Hz) destroys block reuse entirely.
pub(crate) fn motion_index(delta: &qvr_scene::MotionDelta) -> f64 {
    (delta.rotation_magnitude() / 1.5).clamp(0.0, 1.0)
}

impl fmt::Display for SystemConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} | {} | {}", self.gpu, self.network, self.remote)
    }
}

/// One frame of scheme-specific pipeline logic, driven by a [`Session`]:
/// the session owns the loop, the stepper owns only what one frame
/// submits, which is what lets heterogeneous sessions (different apps and
/// schemes per user) interleave on shared fleet resources.
///
/// The steppers form a closed set dispatched by `match`: a [`Session`]
/// holds one inline, so the per-frame step is a direct (inlinable) call
/// and opening a session allocates no stepper box.
#[derive(Debug)]
pub(crate) enum AnyStepper {
    /// Traditional local rendering.
    Local(local::LocalStepper),
    /// Full-frame remote streaming.
    Remote(remote::RemoteStepper),
    /// Static collaborative rendering.
    Static(static_collab::StaticStepper),
    /// The foveated family (FFR/DFR/Q-VR-SW/Q-VR).
    Foveated(foveated::FoveatedStepper),
}

impl AnyStepper {
    /// Submits one frame's tasks and records its [`crate::metrics::FrameRecord`].
    pub(crate) fn step(&mut self, rig: &mut Rig, session: &mut AppSession) {
        match self {
            AnyStepper::Local(s) => s.step(rig, session),
            AnyStepper::Remote(s) => s.step(rig, session),
            AnyStepper::Static(s) => s.step(rig, session),
            AnyStepper::Foveated(s) => s.step(rig, session),
        }
    }

    /// Whether the LIWC unit is always powered for energy accounting: it
    /// is for the schemes LIWC controls (DFR and Q-VR).
    pub(crate) fn liwc_always_on(&self) -> bool {
        matches!(self, AnyStepper::Foveated(s) if s.runs_liwc())
    }
}

/// The seven design points of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Traditional local rendering on the mobile GPU (the Fig. 12 baseline).
    LocalOnly,
    /// Server rendering with full-frame streaming (Fig. 3b).
    RemoteOnly,
    /// Static collaborative rendering with background prefetching.
    StaticCollab,
    /// Collaborative foveated rendering, fixed classic fovea (e1 = 5°).
    Ffr,
    /// FFR + LIWC dynamic eccentricity (no UCA).
    Dfr,
    /// Pure-software Q-VR: software eccentricity control, GPU composition.
    QvrSw,
    /// Full Q-VR: LIWC + UCA.
    Qvr,
}

impl SchemeKind {
    /// All schemes, baseline first.
    #[must_use]
    pub fn all() -> [SchemeKind; 7] {
        [
            SchemeKind::LocalOnly,
            SchemeKind::RemoteOnly,
            SchemeKind::StaticCollab,
            SchemeKind::Ffr,
            SchemeKind::Dfr,
            SchemeKind::QvrSw,
            SchemeKind::Qvr,
        ]
    }

    /// Whether this scheme moves frame data over the wireless link (every
    /// design point except pure local rendering). Fleets use this to count
    /// a shared channel's real occupancy.
    #[must_use]
    pub fn uses_network(&self) -> bool {
        !matches!(self, SchemeKind::LocalOnly)
    }

    /// Whether this scheme carries a *dynamic* workload controller (LIWC
    /// or the software controller) that re-balances local/remote work in
    /// response to contention. Server scheduling policies
    /// ([`crate::sched::ServerPolicy`]) derive each tenant's class from
    /// this: adaptive schemes get protected placement, fixed-split schemes
    /// (remote-only, static collaborative, FFR's fixed fovea) ride
    /// best-effort.
    #[must_use]
    pub fn is_adaptive(&self) -> bool {
        matches!(self, SchemeKind::Dfr | SchemeKind::QvrSw | SchemeKind::Qvr)
    }

    /// The server scheduling class this scheme belongs to (see
    /// [`SchemeKind::is_adaptive`]).
    #[must_use]
    pub fn tenant_class(&self) -> crate::sched::TenantClass {
        if self.is_adaptive() {
            crate::sched::TenantClass::Adaptive
        } else {
            crate::sched::TenantClass::BestEffort
        }
    }

    /// The paper's label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            SchemeKind::LocalOnly => "Baseline",
            SchemeKind::RemoteOnly => "Remote",
            SchemeKind::StaticCollab => "Static",
            SchemeKind::Ffr => "FFR",
            SchemeKind::Dfr => "DFR",
            SchemeKind::QvrSw => "Q-VR-SW",
            SchemeKind::Qvr => "Q-VR",
        }
    }

    /// Builds this scheme's per-frame pipeline logic.
    pub(crate) fn stepper(
        &self,
        config: &SystemConfig,
        profile: AppProfile,
        seed: u64,
    ) -> AnyStepper {
        match self {
            SchemeKind::LocalOnly => AnyStepper::Local(local::LocalStepper::new(profile)),
            SchemeKind::RemoteOnly => {
                AnyStepper::Remote(remote::RemoteStepper::new(config, profile))
            }
            SchemeKind::StaticCollab => AnyStepper::Static(static_collab::StaticStepper::new(
                profile,
                config.prefetch_lookahead as usize,
            )),
            SchemeKind::Ffr | SchemeKind::Dfr | SchemeKind::QvrSw | SchemeKind::Qvr => {
                AnyStepper::Foveated(foveated::FoveatedStepper::new(config, profile, seed, *self))
            }
        }
    }

    /// Opens a private single-tenant session of this scheme: a per-frame
    /// stepper over a dedicated rig (own engine, own channel, own server).
    /// Step it `n` times and [`Session::finish`] it to reproduce exactly
    /// what [`SchemeKind::run`] returns.
    #[must_use]
    pub fn session(&self, config: &SystemConfig, profile: AppProfile, seed: u64) -> Session {
        Session::new(*self, config, profile, seed, Rig::new(config, seed))
    }

    /// Runs `frames` frames of an app under this scheme: the classic
    /// one-user evaluation, a private [`SchemeKind::session`] stepped
    /// `frames` times.
    #[must_use]
    pub fn run(
        &self,
        config: &SystemConfig,
        profile: AppProfile,
        frames: usize,
        seed: u64,
    ) -> RunSummary {
        let mut session = self.session(config, profile, seed);
        session.reserve_frames(frames);
        for _ in 0..frames {
            session.step();
        }
        session.finish()
    }
}

impl fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qvr_scene::Benchmark;

    #[test]
    fn default_config_matches_table2() {
        let c = SystemConfig::default();
        assert_eq!(c.gpu.frequency_mhz, 500.0);
        assert_eq!(c.network, NetworkPreset::WiFi);
        assert_eq!(c.tracking_ms, 2.0);
        assert_eq!(c.display_ms, 5.0);
        assert_eq!(c.prefetch_lookahead, 3);
        assert_eq!(c.initial_e1_deg, 5.0);
    }

    #[test]
    fn builders_override() {
        let c = SystemConfig::default()
            .with_gpu_frequency_mhz(300.0)
            .with_network(NetworkPreset::Early5G);
        assert_eq!(c.gpu.frequency_mhz, 300.0);
        assert_eq!(c.network, NetworkPreset::Early5G);
    }

    #[test]
    fn all_schemes_run_and_produce_frames() {
        let config = SystemConfig::default();
        for kind in SchemeKind::all() {
            let s = kind.run(&config, Benchmark::Doom3L.profile(), 20, 7);
            assert_eq!(s.scheme, kind.label(), "a run is labelled by its scheme");
            assert_eq!(s.len(), 20, "{kind}");
            assert!(s.mean_mtp_ms() > 0.0, "{kind}");
            assert!(s.fps() > 0.0, "{kind}");
            assert!(s.makespan_ms > 0.0, "{kind}");
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let config = SystemConfig::default();
        let a = SchemeKind::Qvr.run(&config, Benchmark::Grid.profile(), 30, 5);
        let b = SchemeKind::Qvr.run(&config, Benchmark::Grid.profile(), 30, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn labels_match_paper() {
        let labels = SchemeKind::all().map(|kind| kind.label());
        assert_eq!(
            labels,
            ["Baseline", "Remote", "Static", "FFR", "DFR", "Q-VR-SW", "Q-VR"]
        );
    }

    #[test]
    fn rate_control_is_opt_in() {
        // The content-true rate path must stay off by default: every golden
        // (fleet hashes, figure tables, energy sweeps) pins the closed-form
        // size-model byte path, and `enabled: false` is what guarantees the
        // legacy expressions are evaluated verbatim.
        assert!(!SystemConfig::default().rate_control.enabled);
        let on = SystemConfig::default().with_rate_control(qvr_codec::RateControlConfig::on());
        assert!(on.rate_control.enabled);
    }
}
