//! Collaborative foveated rendering: FFR, DFR, software Q-VR, and full Q-VR.
//!
//! One pipeline, three switches:
//!
//! * **Controller** — how `e1` is chosen per frame: fixed at the classic 5°
//!   fovea (FFR), by LIWC from intermediate hardware data (DFR, Q-VR), or by
//!   the lagged software rule (Q-VR-SW).
//! * **UCA** — whether composition + ATW run fused on the dedicated unit
//!   (Q-VR) or as two passes on the mobile GPU, contending with the next
//!   frame's rendering (everything else).
//! * Software control additionally serialises: the decision needs the
//!   previous frame's *rendered output* (Fig. 4-Ⓑ), so its control logic
//!   waits for the previous composition, which costs pipeline overlap.

use super::rig::{Label, Rig};
use super::{SchemeKind, SystemConfig};
use crate::foveation::FoveationPlan;
use crate::liwc::{LatencyPredictor, Liwc, SoftwareController};
use crate::metrics::FrameRecord;
use qvr_codec::RateController;
use qvr_hvs::DisplayGeometry;
use qvr_scene::{AppProfile, AppSession, TriangleFractionCache};
use qvr_sim::TaskId;

/// Fraction of UCA tiles crossed by a layer seam, from the plan geometry.
fn border_fraction(plan: &FoveationPlan, display: &DisplayGeometry, tile_px: u32) -> f64 {
    let ppd = (display.ppd_h() * display.ppd_v()).sqrt();
    let fovea_r_px = plan.e1_deg * ppd;
    let middle_half_px =
        (plan.e2_deg * ppd).min(f64::from(display.width_px().max(display.height_px())) / 2.0);
    // Tiles crossed by a curve ≈ 1.5 × length / tile edge.
    let seam_len_px = std::f64::consts::TAU * fovea_r_px + 8.0 * middle_half_px;
    let seam_tiles = 1.5 * seam_len_px / f64::from(tile_px);
    let total_tiles = f64::from(display.width_px().div_ceil(tile_px))
        * f64::from(display.height_px().div_ceil(tile_px));
    (seam_tiles / total_tiles).clamp(0.0, 1.0)
}

/// How the per-frame eccentricity is selected, with the controller's
/// state: a stepper runs exactly one, so it holds only that one's state.
#[derive(Debug)]
enum ControlState {
    /// Fixed eccentricity, degrees (FFR uses the classic 5° fovea).
    Fixed(f64),
    /// The LIWC hardware controller.
    Liwc(Liwc),
    /// The lagged software controller.
    Software(SoftwareController),
}

/// Per-frame stepper for the foveated family (FFR/DFR/Q-VR-SW/Q-VR).
#[derive(Debug)]
pub(crate) struct FoveatedStepper {
    profile: AppProfile,
    control: ControlState,
    /// Composition + ATW run fused on the UCA (Q-VR) rather than as two
    /// mobile-GPU passes.
    uca: bool,
    prev_compose: Option<TaskId>,
    /// Per-gaze triangle-fraction ring table (bit-identical reuse), whose
    /// disc areas come through the cell's slot.
    fovea_cache: TriangleFractionCache,
    /// Per-tenant closed-loop rate controller. Lives inside the stepper, so
    /// churn recycling a slot builds a fresh controller and a sharded cell
    /// carries exactly its own sessions' state — consulted only when
    /// `rate_control.enabled`.
    rc: RateController,
}

impl FoveatedStepper {
    /// The stepper of a foveated `scheme` (FFR, DFR, Q-VR-SW or Q-VR).
    ///
    /// # Panics
    ///
    /// Panics if `scheme` is not foveated.
    pub(super) fn new(
        config: &SystemConfig,
        profile: AppProfile,
        seed: u64,
        scheme: SchemeKind,
    ) -> Self {
        let control = match scheme {
            SchemeKind::Ffr => ControlState::Fixed(5.0),
            SchemeKind::Dfr | SchemeKind::Qvr => {
                // Initial P(GPU) estimate: the full frame's triangles over
                // its render time, as a rough prior LIWC refines online.
                let prior_frame = AppSession::start(profile.clone(), seed).advance();
                let full_ms = qvr_gpu::GpuTimingModel::new(config.gpu)
                    .stereo_frame_time(&profile.full_workload(&prior_frame))
                    .total_ms();
                let p0 = prior_frame.triangles as f64 / full_ms.max(0.1);
                ControlState::Liwc(Liwc::new(
                    config.initial_e1_deg,
                    config.liwc_initial_gradient,
                    config.liwc_reward_alpha,
                    LatencyPredictor::new(
                        p0,
                        config.liwc_predictor_alpha,
                        config.cl_ms + config.ls_ms,
                    ),
                ))
            }
            SchemeKind::QvrSw => ControlState::Software(SoftwareController::new(
                config.initial_e1_deg,
                config.sw_gain_deg_per_ms,
                config.sw_lag_frames,
            )),
            SchemeKind::LocalOnly | SchemeKind::RemoteOnly | SchemeKind::StaticCollab => {
                unreachable!("{scheme} is not a foveated scheme")
            }
        };
        FoveatedStepper {
            profile,
            control,
            uca: scheme == SchemeKind::Qvr,
            prev_compose: None,
            fovea_cache: TriangleFractionCache::new(),
            rc: RateController::new(config.rate_control),
        }
    }

    /// Whether LIWC selects this stepper's eccentricity.
    pub(super) fn runs_liwc(&self) -> bool {
        matches!(self.control, ControlState::Liwc(_))
    }

    /// Submits one frame's tasks and records its [`FrameRecord`].
    pub(super) fn step(&mut self, rig: &mut Rig, session: &mut AppSession) {
        let config = *rig.config();
        let display = self.profile.display;
        let frame = session.advance();

        // Rate control: the quality chosen for this frame's streams (None
        // keeps the legacy closed-form byte path bit-identical).
        let rc_quality = config.rate_control.enabled.then(|| self.rc.quality());
        let motion = super::motion_index(&frame.delta);
        let gaze = frame.sample.gaze;

        // The ring table of this frame's gaze, recorded once (its disc
        // areas through the cell's slot): LIWC's probes, the plan, the
        // fovea workload and the feedback read their triangle shares and
        // disc areas from it. The plans' Eq. (1) partitions come from the
        // cell's memo.
        let profile = &self.profile;
        let field = profile.complexity;
        let memo = rig.memo();
        memo.record_rings(&field, &display, gaze, &mut self.fovea_cache);
        let rings = &self.fovea_cache;
        // The plan at `e` and the bytes its periphery streams ship (both
        // eyes). LIWC's byte predictor must model the same path the frame
        // will actually ship on, or the equilibrium it finds is for the
        // wrong system, so LIWC's probe and the frame share this one body.
        let plan_and_bytes = |e: f64| {
            let plan = memo.partitions.plan(e, &display, gaze, rings);
            let bytes = match rc_quality {
                Some(q) => memo
                    .entropy
                    .periphery_bytes(&plan, frame.content_detail, motion, q),
                None => plan.periphery_bytes(
                    &config.size_model,
                    frame.content_detail,
                    config.periphery_quality,
                ),
            } * config.stereo_stream_factor;
            (plan, bytes)
        };

        // --- eccentricity selection -------------------------------------
        // LIWC's probe: the bits of the e1 it probed, and that e1's plan
        // and bytes, which the frame reuses when it ships the same e1.
        let mut probed = None;
        let e1 = match &mut self.control {
            ControlState::Fixed(e) => *e,
            ControlState::Software(sw) => sw.select(),
            ControlState::Liwc(liwc) => {
                let observed = rig.channel.observed_download_mbps();
                let base = config.network.base_latency_ms();
                liwc.select(
                    &frame.delta,
                    frame.triangles,
                    |e| field.triangle_fraction_recorded(e, &display, gaze, rings),
                    |e| {
                        let (plan, bytes) = plan_and_bytes(e);
                        probed = Some((e.to_bits(), plan, bytes));
                        bytes
                    },
                    observed,
                    base,
                )
                .e1_deg
            }
        };
        let (plan, bytes) = match probed {
            Some((bits, plan, bytes)) if bits == e1.to_bits() => (plan, bytes),
            _ => plan_and_bytes(e1),
        };

        // --- control logic + setup --------------------------------------
        let mut pace = rig.pace_deps();
        let cl_ms = match self.control {
            ControlState::Software(_) => {
                // Fig. 4-Ⓑ: the software decision waits for the previous
                // frame's rendered output (it runs in the app loop, which
                // blocks on present) and burns CPU time.
                if let Some(prev) = self.prev_compose {
                    pace.push(prev);
                }
                if let Some(prev_disp) = rig.last_display_task() {
                    pace.push(prev_disp);
                }
                config.cl_ms + config.sw_controller_ms
            }
            _ => config.cl_ms,
        };
        let cl = rig.submit(Label::Cl, Some(rig.cpu), cl_ms, &pace);
        if self.runs_liwc() {
            // The hardware lookup runs in parallel with setup; its latency
            // (table lookup + Eq. 2 arithmetic) is nanoseconds.
            rig.submit(Label::LiwcSelect, Some(rig.liwc), 0.002, &[cl]);
        }
        let ls = rig.submit(Label::Ls, Some(rig.cpu), config.ls_ms, &[cl]);
        let (send, send_ms) = rig.upload(Label::PoseCfg, 1_536.0, &[ls]);

        // --- local fovea rendering ---------------------------------------
        let fovea_wl = profile.fovea_workload_recorded(&frame, e1, rings);
        let lr_ms = rig.mobile.stereo_frame_time(&fovea_wl).total_ms();
        let lr = rig.submit(Label::Lr, Some(rig.gpu), lr_ms, &[ls]);

        // --- remote periphery --------------------------------------------
        let mid_px = plan.middle_region_px * plan.middle_rate.linear_scale().powi(2);
        let out_px = plan.outer_region_px * plan.outer_rate.linear_scale().powi(2);
        let periph_px = mid_px + out_px;
        let native_px = f64::from(display.width_px()) * f64::from(display.height_px());
        let periph_wl = profile
            .full_workload(&frame)
            .scaled_region(periph_px / native_px, 1.0);
        let rr_ms = rig.remote_render_ms(&periph_wl);
        let chain = rig.remote_chain("periph", rr_ms, bytes, periph_px * 2.0, &[send]);

        // --- composition + ATW -------------------------------------------
        let (compose_done, compose_path_ms) = if self.uca {
            let bf = border_fraction(&plan, &display, config.uca_timing.overhead.tile_px);
            let (early_ms, late_ms) = config.uca_timing.split_ms(
                display.width_px(),
                display.height_px(),
                bf,
                plan.fovea_area_fraction,
            );
            // Non-overlapping periphery tiles stream as soon as the decoder
            // has them; seam + fovea tiles additionally wait for LR. Only
            // the late part sits on the frame's critical path.
            let early = rig.submit(Label::UcaOuter, Some(rig.uca), early_ms, &[chain.done]);
            let late = rig.submit(Label::UcaBorder, Some(rig.uca), late_ms, &[lr, early]);
            (late, late_ms)
        } else {
            let c_ms = rig.stereo_pass_ms(profile, config.composition_cycles_per_px);
            let c = rig.submit(Label::C, Some(rig.gpu), c_ms, &[lr, chain.done]);
            let atw_ms = rig.stereo_pass_ms(profile, config.atw_cycles_per_px);
            let atw = rig.submit(Label::Atw, Some(rig.gpu), atw_ms, &[c]);
            (atw, c_ms + atw_ms)
        };
        self.prev_compose = Some(compose_done);

        rig.display(&[compose_done]);

        // --- feedback ------------------------------------------------------
        let t_local = lr_ms;
        let t_remote = rig.chain_latency_ms(&chain);
        match &mut self.control {
            ControlState::Liwc(liwc) => {
                let fovea_frac = field.triangle_fraction_recorded(e1, &display, gaze, rings);
                liwc.observe(
                    frame.triangles,
                    fovea_frac,
                    t_local,
                    t_remote,
                    bytes,
                    rig.channel.observed_download_mbps(),
                    config.network.base_latency_ms(),
                );
                // Runtime updater executes in parallel with display.
                rig.submit(Label::LiwcUpdate, Some(rig.liwc), 0.003, &[compose_done]);
            }
            ControlState::Software(sw) => sw.observe(t_local, t_remote),
            ControlState::Fixed(_) => {}
        }
        if rc_quality.is_some() {
            // Close the rate loop against this tenant's allocated share of
            // the link (not the observed throughput: a converged controller
            // must track its *fair* share, or tenants steal from each
            // other through the feedback).
            let target = RateController::target_bytes(
                rig.channel.allocated_download_mbps(),
                config.target_fps,
            );
            self.rc.observe(bytes, target);
        }

        rig.record(FrameRecord {
            frame_id: frame.frame_id,
            e1_deg: Some(e1),
            t_local_ms: t_local,
            t_remote_ms: t_remote,
            mtp_ms: rig.path_mtp_ms(
                cl_ms + config.ls_ms,
                t_local.max(send_ms + t_remote),
                compose_path_ms,
            ),
            frame_interval_ms: 0.0,
            tx_bytes: bytes,
            quality: rc_quality,
            resolution_reduction: plan.resolution_reduction(),
            misprediction: false,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::SchemeKind;
    use qvr_scene::Benchmark;

    fn cfg() -> SystemConfig {
        SystemConfig::default()
    }

    #[test]
    fn ffr_beats_baseline() {
        let config = cfg();
        for b in [Benchmark::Grid, Benchmark::Ut3] {
            let base = SchemeKind::LocalOnly.run(&config, b.profile(), 60, 3);
            let ffr = SchemeKind::Ffr.run(&config, b.profile(), 60, 3);
            assert!(
                ffr.mean_mtp_ms() < base.mean_mtp_ms() / 1.3,
                "{b}: FFR {:.1} vs baseline {:.1}",
                ffr.mean_mtp_ms(),
                base.mean_mtp_ms()
            );
        }
    }

    #[test]
    fn dfr_balances_better_than_ffr() {
        let config = cfg();
        let ffr = SchemeKind::Ffr.run(&config, Benchmark::Grid.profile(), 150, 3);
        let dfr = SchemeKind::Dfr.run(&config, Benchmark::Grid.profile(), 150, 3);
        // DFR grows the fovea until local and remote latencies meet; the
        // steady-state ratio must be closer to 1 than FFR's.
        let tail_ratio = |s: &crate::metrics::RunSummary| -> f64 {
            let tail: Vec<f64> = s
                .frames
                .iter()
                .skip(75)
                .map(|f| f.latency_ratio())
                .collect();
            tail.iter().sum::<f64>() / tail.len() as f64
        };
        let r_ffr = tail_ratio(&ffr);
        let r_dfr = tail_ratio(&dfr);
        assert!(
            (r_dfr - 1.0).abs() < (r_ffr - 1.0).abs(),
            "DFR ratio {r_dfr:.2} must beat FFR ratio {r_ffr:.2}"
        );
    }

    #[test]
    fn qvr_uses_uca_not_gpu_for_composition() {
        let config = cfg();
        let dfr = SchemeKind::Dfr.run(&config, Benchmark::Wolf.profile(), 60, 3);
        let qvr = SchemeKind::Qvr.run(&config, Benchmark::Wolf.profile(), 60, 3);
        assert!(qvr.busy.uca_ms > 0.0);
        assert!(dfr.busy.uca_ms == 0.0);
        assert!(
            qvr.busy.gpu_ms < dfr.busy.gpu_ms,
            "UCA must offload GPU work: {} vs {}",
            qvr.busy.gpu_ms,
            dfr.busy.gpu_ms
        );
    }

    #[test]
    fn qvr_converges_from_imbalanced_start() {
        // Fig. 14: starting at e1 = 5°, the latency ratio starts high and
        // converges near 1.
        let config = cfg();
        let s = SchemeKind::Qvr.run(&config, Benchmark::Hl2H.profile(), 300, 3);
        // Our LIWC converges within a handful of frames (the paper's takes
        // tens); the imbalance is visible on the very first frames.
        let early: Vec<f64> = s.frames.iter().take(2).map(|f| f.latency_ratio()).collect();
        let late: Vec<f64> = s
            .frames
            .iter()
            .skip(200)
            .map(|f| f.latency_ratio())
            .collect();
        let early_mean = early.iter().sum::<f64>() / early.len() as f64;
        let late_mean = late.iter().sum::<f64>() / late.len() as f64;
        assert!(
            early_mean > 1.5,
            "cold start must be imbalanced, got {early_mean:.2}"
        );
        assert!(
            (0.5..1.6).contains(&late_mean),
            "steady state must balance, got {late_mean:.2}"
        );
    }

    #[test]
    fn qvr_faster_than_software_qvr() {
        let config = cfg();
        let sw = SchemeKind::QvrSw.run(&config, Benchmark::Grid.profile(), 150, 3);
        let hw = SchemeKind::Qvr.run(&config, Benchmark::Grid.profile(), 150, 3);
        assert!(
            hw.fps() > 1.5 * sw.fps(),
            "hardware Q-VR {:.0} FPS vs software {:.0} FPS",
            hw.fps(),
            sw.fps()
        );
    }

    #[test]
    fn qvr_reduces_transmitted_data() {
        let config = cfg();
        let remote = SchemeKind::RemoteOnly.run(&config, Benchmark::Ut3.profile(), 80, 3);
        let qvr = SchemeKind::Qvr.run(&config, Benchmark::Ut3.profile(), 80, 3);
        let ratio = qvr.mean_tx_bytes() / remote.mean_tx_bytes();
        assert!(ratio < 0.5, "Q-VR transmit ratio {ratio:.2}");
    }

    #[test]
    fn light_apps_get_bigger_foveas() {
        // Table 4's cross-app ordering: the lighter the scene, the further
        // the balanced eccentricity moves out (Doom3-L 85.3° vs GRID 9.9°).
        let config = cfg();
        let light = SchemeKind::Qvr.run(&config, Benchmark::Doom3L.profile(), 300, 3);
        let heavy = SchemeKind::Qvr.run(&config, Benchmark::Grid.profile(), 300, 3);
        let e_light = light.mean_e1_deg(150).unwrap();
        let e_heavy = heavy.mean_e1_deg(150).unwrap();
        assert!(
            e_light > e_heavy + 8.0,
            "light app fovea {e_light:.1}° must exceed heavy app fovea {e_heavy:.1}°"
        );
    }

    #[test]
    fn heavy_apps_keep_small_fovea() {
        let config = cfg();
        let s = SchemeKind::Qvr.run(&config, Benchmark::Grid.profile(), 300, 3);
        let e1 = s.mean_e1_deg(150).unwrap();
        assert!(e1 < 35.0, "heavy app should offload, e1 {e1:.1}");
    }

    #[test]
    fn faster_network_shrinks_fovea() {
        let config = cfg();
        let wifi = SchemeKind::Qvr.run(&config, Benchmark::Hl2H.profile(), 250, 3);
        let config5g = cfg().with_network(qvr_net::NetworkPreset::Early5G);
        let five_g = SchemeKind::Qvr.run(&config5g, Benchmark::Hl2H.profile(), 250, 3);
        let e_wifi = wifi.mean_e1_deg(120).unwrap();
        let e_5g = five_g.mean_e1_deg(120).unwrap();
        assert!(
            e_5g < e_wifi,
            "faster download should offload more: 5G {e_5g:.1}° vs WiFi {e_wifi:.1}°"
        );
    }

    #[test]
    fn border_fraction_reasonable() {
        let display = DisplayGeometry::vive_pro_class();
        let mar = qvr_hvs::MarModel::default();
        let plan = FoveationPlan::resolve(20.0, &display, &mar, Default::default());
        let bf = border_fraction(&plan, &display, 32);
        assert!(bf > 0.02 && bf < 0.6, "border fraction {bf}");
    }
}
