//! Static collaborative rendering (the state of the art Q-VR improves on).
//!
//! Pre-declared interactive objects render locally; the background renders
//! remotely and is **prefetched** `lookahead` frames ahead against a pose
//! prediction, to hide the ~30 ms network fetch (Sec. 2.2–2.3). The scheme
//! inherits every weakness the paper characterises:
//!
//! * the remote workload (and hence transmitted bytes — color **and** depth
//!   for composition) is not reduced at all;
//! * prefetching needs pose prediction ≥ 3 frames out; when the user moves,
//!   the prediction misses and the fetch lands on the critical path;
//! * composition is depth-based embedding on the GPU (collision detection),
//!   which together with ATW contends with the next frame's rendering.

use super::rig::{Label, RemoteChain, Rig};
use crate::metrics::FrameRecord;
use qvr_scene::{AppProfile, AppSession, FrameState, MotionDelta};
use qvr_sim::DepList;
use std::collections::VecDeque;

/// Per-frame stepper for static collaborative rendering.
#[derive(Debug)]
pub(crate) struct StaticStepper {
    profile: AppProfile,
    native_px: f64,
    lookahead: usize,
    frame_idx: usize,
    /// Prefetches in flight for frame i+lookahead; `None` when the frame's
    /// motion was calm enough to reuse the cached background instead
    /// (FlashBack-style memoization).
    prefetched: VecDeque<Option<(RemoteChain, FrameState)>>,
    /// Pose at which the cached background was (pre)fetched.
    cache_pose: Option<FrameState>,
}

impl StaticStepper {
    pub(super) fn new(profile: AppProfile, lookahead: usize) -> Self {
        let native_px =
            f64::from(profile.display.width_px()) * f64::from(profile.display.height_px());
        StaticStepper {
            profile,
            native_px,
            lookahead,
            frame_idx: 0,
            prefetched: VecDeque::new(),
            cache_pose: None,
        }
    }

    /// Submits one frame's tasks and records its [`FrameRecord`].
    pub(super) fn step(&mut self, rig: &mut Rig, session: &mut AppSession) {
        let config = *rig.config();
        let i = self.frame_idx;
        self.frame_idx += 1;
        let frame = session.advance();
        let pace = rig.pace_deps();

        let cl = rig.submit(Label::Cl, Some(rig.cpu), config.cl_ms, &pace);
        let ls = rig.submit(Label::Ls, Some(rig.cpu), config.ls_ms, &[cl]);
        let (send, _send_ms) = rig.upload(Label::Pose, 1_024.0, &[ls]);

        let bg_workload = self.profile.background_workload(&frame);
        let bg_bytes = (config.size_model.frame_bytes(
            self.native_px.round() as u64,
            frame.content_detail,
            1.0,
        ) + config
            .size_model
            .depth_bytes(self.native_px.round() as u64, 1.0))
            * config.stereo_stream_factor;
        let bg_render_ms = rig.remote_render_ms(&bg_workload);

        // Issue the prefetch for frame i + lookahead using today's pose —
        // unless the view is calm enough that the cache will still be valid.
        let cache_fresh = self.cache_pose.is_some_and(|p| {
            MotionDelta::between(&p.sample, &frame.sample).rotation_magnitude()
                < config.static_cache_rotation_deg
        });
        let mut tx_bytes = 0.0;
        if cache_fresh {
            self.prefetched.push_back(None);
        } else {
            let chain = rig.remote_chain(
                "bg:prefetch",
                bg_render_ms,
                bg_bytes,
                self.native_px * 2.0,
                &[send],
            );
            tx_bytes += chain.bytes;
            self.prefetched.push_back(Some((chain, frame)));
        }

        // Local rendering of the interactive objects.
        let int_workload = self.profile.interactive_workload(&frame);
        let render_ms = rig.mobile.stereo_frame_time(&int_workload).total_ms();
        let lr = rig.submit(Label::Lr, Some(rig.gpu), render_ms, &[ls]);

        // Background availability for *this* frame.
        let mut misprediction = false;

        let (bg_done, bg_critical_ms, bg_nominal_ms): (Option<qvr_sim::TaskId>, f64, f64) =
            if i < self.lookahead {
                // Cold start: fetch synchronously.
                let sync = rig.remote_chain(
                    "bg:sync",
                    bg_render_ms,
                    bg_bytes,
                    self.native_px * 2.0,
                    &[send],
                );
                tx_bytes += sync.bytes;
                self.cache_pose = Some(frame);
                let latency = rig.chain_latency_ms(&sync);
                (Some(sync.done), latency, sync.nominal_ms)
            } else {
                match self.prefetched.pop_front().expect("prefetch queue primed") {
                    // Calm view: composited against the cached background.
                    None => (None, 0.0, 0.0),
                    Some((chain, predicted_from)) => {
                        // Prediction error: how far the head actually moved
                        // since the prefetch pose was captured.
                        let drift = MotionDelta::between(&predicted_from.sample, &frame.sample);
                        self.cache_pose = Some(predicted_from);
                        if drift.rotation_magnitude() > config.misprediction_rotation_deg {
                            misprediction = true;
                            // The prefetched background is unusable: blocking
                            // re-fetch, queued behind all in-flight traffic —
                            // this is where static's unreduced data volume
                            // really hurts (Sec. 2.3, Challenge II).
                            let sync = rig.remote_chain(
                                "bg:refetch",
                                bg_render_ms,
                                bg_bytes,
                                self.native_px * 2.0,
                                &[send],
                            );
                            tx_bytes += sync.bytes;
                            // Critical-path cost: the re-fetch itself plus
                            // the position-mismatch recovery (one frame of
                            // re-setup), but the client flushes the stale
                            // prefetch queue rather than waiting behind it.
                            let latency = rig.chain_latency_ms(&sync);
                            (Some(sync.done), latency * 1.25, sync.nominal_ms)
                        } else {
                            // Arrived in the background, off the critical path.
                            (Some(chain.done), 0.0, chain.nominal_ms)
                        }
                    }
                }
            };

        // Depth-based embedding composition + ATW, both on the GPU.
        let c_ms = rig.stereo_pass_ms(&self.profile, config.static_composition_cycles_per_px);
        let mut c_deps = DepList::new();
        c_deps.push(lr);
        if let Some(bg) = bg_done {
            c_deps.push(bg);
        }
        let c = rig.submit(Label::C, Some(rig.gpu), c_ms, &c_deps);
        let atw_ms = rig.stereo_pass_ms(&self.profile, config.atw_cycles_per_px);
        let atw = rig.submit(Label::Atw, Some(rig.gpu), atw_ms, &[c]);

        rig.display(&[atw]);

        rig.record(FrameRecord {
            frame_id: frame.frame_id,
            e1_deg: None,
            t_local_ms: render_ms,
            // The steady-state network cost per frame is one background
            // transfer whether or not it hid; mispredictions put it on the
            // critical path (bg_critical_ms) as well.
            t_remote_ms: bg_nominal_ms,
            mtp_ms: rig.path_mtp_ms(
                config.cl_ms + config.ls_ms,
                render_ms.max(bg_critical_ms),
                c_ms + atw_ms,
            ),
            frame_interval_ms: 0.0,
            tx_bytes,
            quality: None,
            resolution_reduction: 0.0,
            misprediction,
        });
    }
}

#[cfg(test)]
mod tests {
    use crate::schemes::{SchemeKind, SystemConfig};
    use qvr_scene::{AppProfile, Benchmark};

    fn run(
        config: &SystemConfig,
        profile: AppProfile,
        frames: usize,
        seed: u64,
    ) -> crate::metrics::RunSummary {
        SchemeKind::StaticCollab.run(config, profile, frames, seed)
    }

    #[test]
    fn static_beats_local_baseline_on_latency() {
        let config = SystemConfig::default();
        for b in [Benchmark::Grid, Benchmark::Hl2H] {
            let local = SchemeKind::LocalOnly.run(&config, b.profile(), 40, 3);
            let st = run(&config, b.profile(), 40, 3);
            assert!(
                st.mean_mtp_ms() < local.mean_mtp_ms(),
                "{b}: static {:.1} vs local {:.1}",
                st.mean_mtp_ms(),
                local.mean_mtp_ms()
            );
        }
    }

    #[test]
    fn mispredictions_happen_under_motion() {
        let config = SystemConfig::default();
        // GRID uses a frantic motion profile.
        let s = run(&config, Benchmark::Grid.profile(), 120, 3);
        let rate = s.misprediction_rate();
        assert!(rate > 0.02, "some prefetches must miss, rate {rate}");
        assert!(rate < 0.9, "not all prefetches miss, rate {rate}");
    }

    #[test]
    fn transmitted_data_not_reduced() {
        // Fig. 13: the static approach does not reduce the transmitted data
        // (it ships full-resolution background + depth every frame).
        let config = SystemConfig::default();
        let st = run(&config, Benchmark::Doom3H.profile(), 40, 3);
        let remote = SchemeKind::RemoteOnly.run(&config, Benchmark::Doom3H.profile(), 40, 3);
        assert!(
            st.mean_tx_bytes() >= remote.mean_tx_bytes(),
            "static ships color+depth: {} vs remote-only {}",
            st.mean_tx_bytes(),
            remote.mean_tx_bytes()
        );
    }

    #[test]
    fn interactive_latency_varies_with_user_motion() {
        // The Fig. 5 effect: the same app's local rendering time swings with
        // interaction intensity.
        let config = SystemConfig::default();
        let s = run(&config, Benchmark::Grid.profile(), 200, 3);
        let min = s
            .frames
            .iter()
            .map(|f| f.t_local_ms)
            .fold(f64::INFINITY, f64::min);
        let max = s.frames.iter().map(|f| f.t_local_ms).fold(0.0, f64::max);
        assert!(
            max > 1.5 * min,
            "local latency must swing: {min:.1}..{max:.1} ms"
        );
    }

    #[test]
    fn misses_90hz_for_heavy_apps() {
        let config = SystemConfig::default();
        let s = run(&config, Benchmark::Grid.profile(), 60, 3);
        assert!(
            !s.meets_target_fps(90.0, 10),
            "static cannot hold 90 Hz on GRID"
        );
    }
}
