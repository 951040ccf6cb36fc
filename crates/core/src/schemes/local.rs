//! Local-only rendering: the commercial mobile-VR baseline.
//!
//! Everything happens on the mobile SoC: the CPU processes inputs and sets
//! up the frame, the GPU renders the full stereo scene at native resolution
//! and then runs ATW, and the panel scans out. No network is involved.
//! This is the Fig. 12 normalisation baseline and the Fig. 3(a) motivation
//! study.

use super::rig::{Label, Rig};
use crate::metrics::FrameRecord;
use qvr_scene::{AppProfile, AppSession};

/// Per-frame stepper for the local-only baseline.
#[derive(Debug)]
pub(crate) struct LocalStepper {
    profile: AppProfile,
}

impl LocalStepper {
    pub(super) fn new(profile: AppProfile) -> Self {
        LocalStepper { profile }
    }

    /// Submits one frame's tasks and records its [`FrameRecord`].
    pub(super) fn step(&mut self, rig: &mut Rig, session: &mut AppSession) {
        let config = *rig.config();
        let frame = session.advance();
        let pace = rig.pace_deps();

        let cl = rig.submit(Label::Cl, Some(rig.cpu), config.cl_ms, &pace);
        let ls = rig.submit(Label::Ls, Some(rig.cpu), config.ls_ms, &[cl]);

        let workload = self.profile.full_workload(&frame);
        let render_ms = rig.mobile.stereo_frame_time(&workload).total_ms();
        let lr = rig.submit(Label::Lr, Some(rig.gpu), render_ms, &[ls]);

        let atw_ms = rig.stereo_pass_ms(&self.profile, config.atw_cycles_per_px);
        let atw = rig.submit(Label::Atw, Some(rig.gpu), atw_ms, &[lr]);

        rig.display(&[atw]);

        rig.record(FrameRecord {
            frame_id: frame.frame_id,
            e1_deg: None,
            t_local_ms: render_ms + atw_ms,
            t_remote_ms: 0.0,
            mtp_ms: rig.path_mtp_ms(config.cl_ms + config.ls_ms, render_ms, atw_ms),
            frame_interval_ms: 0.0, // finalised by Rig::finish
            tx_bytes: 0.0,
            quality: None,
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
        SchemeKind::LocalOnly.run(config, profile, frames, seed)
    }

    #[test]
    fn baseline_latency_in_fig3a_band() {
        // Fig. 3(a): high-quality apps on mobile silicon show 40–130 ms
        // end-to-end and single/low-double-digit FPS.
        let config = SystemConfig {
            gpu: qvr_gpu::GpuConfig::gen9_class(),
            ..SystemConfig::default()
        };
        for app in CharacterizationApp::all() {
            let s = run(&config, app.profile(), 40, 3);
            let mtp = s.mean_mtp_ms();
            assert!((30.0..160.0).contains(&mtp), "{app}: {mtp} ms");
            assert!(s.fps() < 40.0, "{app}: {} FPS should be low", s.fps());
        }
    }

    #[test]
    fn no_network_traffic() {
        let s = run(&SystemConfig::default(), Benchmark::Doom3H.profile(), 20, 1);
        assert_eq!(s.mean_tx_bytes(), 0.0);
        assert_eq!(s.busy.radio_ms, 0.0);
        assert_eq!(s.busy.vdec_ms, 0.0);
    }

    #[test]
    fn gpu_dominates_busy_time() {
        let s = run(&SystemConfig::default(), Benchmark::Grid.profile(), 20, 1);
        assert!(s.busy.gpu_ms > 0.8 * s.makespan_ms);
    }

    #[test]
    fn mtp_includes_tracking_and_display() {
        let config = SystemConfig::default();
        let s = run(&config, Benchmark::Doom3L.profile(), 10, 1);
        for f in &s.frames {
            assert!(f.mtp_ms >= config.tracking_ms + config.display_ms);
        }
    }
}
