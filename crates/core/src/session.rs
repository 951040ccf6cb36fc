//! First-class simulation sessions: one user running one app under one
//! scheme, steppable frame by frame.
//!
//! The old evaluation fused "a scheme" with "the whole run loop": each
//! scheme function owned its engine, channel, and frame loop, so exactly
//! one user could exist. A [`Session`] splits that apart — the scheme
//! contributes only a per-frame stepper, while the session owns the rig
//! (resources + channel view) and the app state. Sessions can therefore be
//! driven individually ([`SchemeKind::session`]) or interleaved round-robin
//! on shared resources by a [`crate::fleet::Fleet`].

use crate::metrics::RunSummary;
use crate::sched::UnitDirective;
use crate::schemes::{AnyStepper, Rig, SchemeKind, ServerPool, Stepper, SystemConfig};
use crate::telemetry::FrameEvent;
use qvr_net::SharedChannel;
use qvr_scene::{AppProfile, AppSession};
use qvr_sim::SharedEngine;

/// One user's running pipeline: a scheme stepper bound to a rig and an app.
#[derive(Debug)]
pub struct Session {
    scheme: SchemeKind,
    app_name: &'static str,
    rig: Rig,
    app: AppSession,
    stepper: AnyStepper,
    frames_stepped: usize,
}

impl Session {
    /// Opens a session on a dedicated rig (private engine, channel, and
    /// server) — the classic single-tenant setup.
    #[must_use]
    pub(crate) fn private(
        scheme: SchemeKind,
        config: &SystemConfig,
        profile: AppProfile,
        seed: u64,
    ) -> Self {
        let rig = Rig::new(config, seed);
        Self::with_rig(scheme, config, profile, seed, rig)
    }

    /// Opens a session that joins a fleet: per-session mobile resources on
    /// the shared engine, the shared server pool, and the given channel
    /// view (shared or per-session). `directive` is the fleet's server
    /// policy resolved for this tenant's class.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn in_fleet(
        scheme: SchemeKind,
        config: &SystemConfig,
        profile: AppProfile,
        seed: u64,
        engine: SharedEngine,
        channel: SharedChannel,
        server: ServerPool,
        session_idx: usize,
        directive: UnitDirective,
    ) -> Self {
        let rig = Rig::in_fleet(config, engine, channel, server, session_idx, directive);
        Self::with_rig(scheme, config, profile, seed, rig)
    }

    fn with_rig(
        scheme: SchemeKind,
        config: &SystemConfig,
        profile: AppProfile,
        seed: u64,
        rig: Rig,
    ) -> Self {
        let app_name = profile.name;
        let app = AppSession::start(profile.clone(), seed);
        let stepper = scheme.stepper(config, profile, seed);
        Session {
            scheme,
            app_name,
            rig,
            app,
            stepper,
            frames_stepped: 0,
        }
    }

    /// Simulates one frame: the stepper submits this frame's task graph and
    /// records its metrics. Returns the frame's telemetry event — the
    /// display-end emission point of the push observability API (fleets fan
    /// it out to their sinks; standalone callers may ignore it).
    pub fn step(&mut self) -> FrameEvent {
        let span_start_ms = if self.frames_stepped == 0 {
            self.rig.origin_ms()
        } else {
            self.rig.last_display_end()
        };
        self.stepper.step(&mut self.rig, &mut self.app);
        self.frames_stepped += 1;
        let (server_render_ms, server_encode_ms, radio_ms, unit) = self.rig.take_frame_stats();
        let record = self
            .rig
            .last_record()
            .expect("every stepper records exactly one frame per step");
        FrameEvent {
            session: self.rig.slot(),
            frame: self.frames_stepped as u64 - 1,
            span_start_ms,
            end_ms: self.rig.last_display_end(),
            mtp_ms: record.mtp_ms,
            tx_bytes: record.tx_bytes,
            quality: record.quality,
            server_render_ms,
            server_encode_ms,
            radio_ms,
            unit,
            class: self.scheme.tenant_class(),
            spans: self.rig.take_frame_spans(),
        }
    }

    /// Frames stepped so far.
    #[must_use]
    pub fn frames_stepped(&self) -> usize {
        self.frames_stepped
    }

    /// End time of this session's most recently displayed frame, ms —
    /// the session's virtual clock (what [`crate::clock::FleetClock`] keys
    /// on, and useful for fairness monitoring while a fleet is running).
    #[must_use]
    pub fn last_display_end(&self) -> f64 {
        self.rig.last_display_end()
    }

    /// Fovea eccentricity of the most recent frame, if the scheme is
    /// foveated (the warm-start seed churn hands to joining sessions).
    #[must_use]
    pub fn last_e1_deg(&self) -> Option<f64> {
        self.rig.last_record().and_then(|r| r.e1_deg)
    }

    /// Releases this session's claim on a shared link, if it holds one
    /// (called when the session leaves a fleet mid-run, so the remaining
    /// members' shares renormalize).
    pub(crate) fn release_link(&self) {
        if self.rig.channel.member().is_some() && self.rig.channel.member_is_active() {
            self.rig.channel.leave();
        }
    }

    /// Replaces this session's link share (a reclaim-driven upgrade), if
    /// the session is a link member; no-op for local-only tenants.
    pub(crate) fn set_link_share(&self, share: qvr_net::LinkShare) {
        if self.rig.channel.member().is_some() {
            self.rig.channel.set_share(share);
        }
    }

    /// A clone of this session's channel handle (churn banks departed
    /// members' handles so later joiners reuse the slot).
    pub(crate) fn channel_handle(&self) -> SharedChannel {
        self.rig.channel.clone()
    }

    /// Pre-reserves per-frame record storage for a planned run length (see
    /// [`crate::schemes::Rig::reserve_frames`]).
    #[cfg(test)]
    pub(crate) fn frame_capacity(&self) -> (usize, usize) {
        self.rig.frame_capacity()
    }

    pub(crate) fn reserve_frames(&mut self, frames: usize) {
        self.rig.reserve_frames(frames);
    }

    /// Gates every per-session resource until absolute simulated time
    /// `t_ms` (see [`crate::schemes::Rig::gate_at`]) — called once, before
    /// the first step, for sessions that join a fleet mid-run.
    pub(crate) fn gate_at(&mut self, t_ms: f64) {
        self.rig.gate_at(t_ms);
    }

    /// Finalises the session into a per-session summary (latency, FPS,
    /// transmitted bytes, energy of this user's own hardware).
    #[must_use]
    pub fn finish(self) -> RunSummary {
        let liwc_always_on = self.stepper.liwc_always_on();
        self.rig
            .finish(self.stepper.label(), self.app_name, liwc_always_on)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qvr_scene::Benchmark;

    #[test]
    fn stepped_session_equals_run() {
        let config = SystemConfig::default();
        for kind in SchemeKind::all() {
            let mut session = kind.session(&config, Benchmark::Doom3H.profile(), 9);
            for _ in 0..40 {
                session.step();
            }
            assert_eq!(session.frames_stepped(), 40);
            let stepped = session.finish();
            let run = kind.run(&config, Benchmark::Doom3H.profile(), 40, 9);
            assert_eq!(stepped, run, "{kind}: session stepping must equal run()");
        }
    }

    #[test]
    fn session_exposes_identity() {
        let config = SystemConfig::default();
        let s = SchemeKind::Qvr.session(&config, Benchmark::Grid.profile(), 1);
        assert_eq!(s.scheme, SchemeKind::Qvr);
        assert_eq!(s.app_name, "GRID");
        assert_eq!(s.frames_stepped(), 0);
        assert_eq!(s.last_display_end(), 0.0);
    }

    #[test]
    fn step_emits_a_consistent_frame_event() {
        let config = SystemConfig::default();
        let mut s = SchemeKind::Qvr.session(&config, Benchmark::Hl2H.profile(), 7);
        let mut prev_end = 0.0;
        for i in 0..10u64 {
            let ev = s.step();
            assert_eq!(ev.frame, i);
            assert_eq!(ev.session, 0, "private sessions occupy slot 0");
            assert_eq!(ev.span_start_ms, prev_end, "spans tile the timeline");
            assert!(ev.end_ms > ev.span_start_ms);
            assert_eq!(ev.end_ms, s.last_display_end());
            assert_eq!(ev.mtp_ms, s.rig.last_record().unwrap().mtp_ms);
            assert!(ev.server_render_ms > 0.0, "Q-VR streams its periphery");
            assert!(ev.radio_ms > 0.0);
            assert!(ev.unit.is_some());
            // Q-VR's remote branch fills every stage span, and the stages
            // tile sensibly: render before the network finishes, network
            // before display ends, display closing the frame.
            let sp = ev.spans;
            for (name, span) in [
                ("upload", sp.upload),
                ("render", sp.render),
                ("encode", sp.encode),
                ("network", sp.network),
                ("decode", sp.decode),
                ("display", sp.display),
            ] {
                assert!(!span.is_empty(), "Q-VR frames fill the {name} span");
                assert!(span.duration_ms() > 0.0);
            }
            assert!(sp.render.start_ms <= sp.network.end_ms);
            assert!(sp.network.end_ms <= sp.display.end_ms);
            assert_eq!(
                sp.display.end_ms, ev.end_ms,
                "display span closes the frame"
            );
            prev_end = ev.end_ms;
        }
        // A local-only session touches neither the server nor the link.
        let mut local = SchemeKind::LocalOnly.session(&config, Benchmark::Doom3L.profile(), 7);
        let ev = local.step();
        assert_eq!(ev.server_render_ms, 0.0);
        assert_eq!(ev.server_encode_ms, 0.0);
        assert_eq!(ev.radio_ms, 0.0);
        assert_eq!(ev.unit, None);
        assert!(
            ev.spans.render.is_empty(),
            "no remote chain, no render span"
        );
        assert!(ev.spans.network.is_empty());
        assert!(!ev.spans.display.is_empty(), "every frame scans out");
    }

    #[test]
    fn unfinished_session_summary_is_consistent() {
        let config = SystemConfig::default();
        let mut s = SchemeKind::Ffr.session(&config, Benchmark::Wolf.profile(), 2);
        s.step();
        s.step();
        let summary = s.finish();
        assert_eq!(summary.len(), 2);
        assert!(summary.makespan_ms > 0.0);
    }
}
