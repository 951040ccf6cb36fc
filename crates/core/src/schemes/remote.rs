//! Remote-only rendering: cloud streaming (paper Fig. 3b).
//!
//! The mobile side uploads the pose, the server renders the full stereo
//! frame and streams it back compressed; the mobile decodes and time-warps.
//! Under present-day networks the transmission dominates (the paper
//! measures ≈ 63 % of end-to-end latency), which is the second half of the
//! motivation study.

use super::rig::{Label, Rig};
use super::SystemConfig;
use crate::metrics::FrameRecord;
use qvr_codec::RateController;
use qvr_scene::{AppProfile, AppSession};

/// Per-frame stepper for remote-only streaming.
#[derive(Debug)]
pub(crate) struct RemoteStepper {
    profile: AppProfile,
    native_px: f64,
    /// Per-tenant rate controller (consulted only when enabled); stepper-
    /// local, so churn recycling and shard cells get fresh, disjoint state.
    rc: RateController,
}

impl RemoteStepper {
    pub(super) fn new(config: &SystemConfig, profile: AppProfile) -> Self {
        let native_px =
            f64::from(profile.display.width_px()) * f64::from(profile.display.height_px());
        RemoteStepper {
            profile,
            native_px,
            rc: RateController::new(config.rate_control),
        }
    }

    /// Submits one frame's tasks and records its [`FrameRecord`].
    pub(super) fn step(&mut self, rig: &mut Rig, session: &mut AppSession) {
        let config = *rig.config();
        let frame = session.advance();
        let pace = rig.pace_deps();

        let cl = rig.submit(Label::Cl, Some(rig.cpu), config.cl_ms, &pace);
        let (send, send_ms) = rig.upload(Label::Pose, 1_024.0, &[cl]);

        let workload = self.profile.full_workload(&frame);
        let render_ms = rig.remote_render_ms(&workload);
        let rc_quality = config.rate_control.enabled.then(|| self.rc.quality());
        let bytes = match rc_quality {
            // Full-frame stream: native resolution (no VRS), fovea-grade
            // statistics (eccentricity 0 — the whole frame may be looked at).
            Some(q) => rig.memo().entropy.layer_bytes(
                self.native_px,
                frame.content_detail,
                super::motion_index(&frame.delta),
                1.0,
                0.0,
                q,
            ),
            None => config.size_model.frame_bytes(
                self.native_px.round() as u64,
                frame.content_detail,
                1.0,
            ),
        } * config.stereo_stream_factor;
        let chain = rig.remote_chain("remote", render_ms, bytes, self.native_px * 2.0, &[send]);
        if rc_quality.is_some() {
            let target = RateController::target_bytes(
                rig.channel.allocated_download_mbps(),
                config.target_fps,
            );
            self.rc.observe(bytes, target);
        }

        let atw_ms = rig.stereo_pass_ms(&self.profile, config.atw_cycles_per_px);
        let atw = rig.submit(Label::Atw, Some(rig.gpu), atw_ms, &[chain.done]);

        rig.display(&[atw]);

        let t_remote = rig.chain_latency_ms(&chain);
        rig.record(FrameRecord {
            frame_id: frame.frame_id,
            e1_deg: None,
            t_local_ms: atw_ms,
            t_remote_ms: t_remote,
            mtp_ms: rig.path_mtp_ms(config.cl_ms, send_ms + t_remote, atw_ms),
            frame_interval_ms: 0.0,
            tx_bytes: chain.bytes,
            quality: rc_quality,
            resolution_reduction: 0.0,
            misprediction: false,
        });
    }
}

#[cfg(test)]
mod tests {
    use crate::schemes::{SchemeKind, SystemConfig};
    use qvr_scene::{AppProfile, Benchmark, CharacterizationApp};

    fn run(
        config: &SystemConfig,
        profile: AppProfile,
        frames: usize,
        seed: u64,
    ) -> crate::metrics::RunSummary {
        SchemeKind::RemoteOnly.run(config, profile, frames, seed)
    }

    #[test]
    fn transmission_dominates_like_fig3b() {
        // The paper: transmission ≈ 63 % of remote-only end-to-end latency.
        let config = SystemConfig {
            gpu: qvr_gpu::GpuConfig::gen9_class(),
            ..SystemConfig::default()
        };
        for app in CharacterizationApp::all() {
            let s = run(&config, app.profile(), 40, 3);
            let mtp = s.mean_mtp_ms();
            let remote_share: f64 = s
                .frames
                .iter()
                .map(|f| f.t_remote_ms / f.mtp_ms)
                .sum::<f64>()
                / s.frames.len() as f64;
            assert!((30.0..80.0).contains(&mtp), "{app}: {mtp} ms");
            assert!(
                remote_share > 0.45,
                "{app}: remote chain should dominate, got {remote_share:.2}"
            );
        }
    }

    #[test]
    fn remote_beats_local_for_heavy_apps_but_misses_target() {
        let config = SystemConfig::default();
        let local = SchemeKind::LocalOnly.run(&config, Benchmark::Grid.profile(), 30, 3);
        let remote = run(&config, Benchmark::Grid.profile(), 30, 3);
        assert!(remote.mean_mtp_ms() < local.mean_mtp_ms());
        // But still misses 90 Hz / 25 ms MTP.
        assert!(remote.mean_mtp_ms() > 25.0);
    }

    #[test]
    fn downlink_carries_full_frames() {
        let config = SystemConfig::default();
        let s = run(&config, Benchmark::Doom3H.profile(), 20, 2);
        // Full 1920x2160 stereo frames: hundreds of KB each.
        assert!(s.mean_tx_bytes() > 300_000.0);
        assert!(s.busy.radio_ms > 0.0);
        assert!(s.busy.vdec_ms > 0.0);
    }

    #[test]
    fn local_gpu_only_does_atw() {
        let config = SystemConfig::default();
        let s = run(&config, Benchmark::Wolf.profile(), 20, 2);
        // ATW alone is a few ms per frame; the GPU must be mostly idle.
        assert!(s.busy.gpu_ms < 0.5 * s.makespan_ms);
    }
}
