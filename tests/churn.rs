//! Virtual-time stepping and churn integration tests: earliest-first
//! stepping, agreement with round-robin on a homogeneous roster, the §7
//! time-skew artifact disappearing when a closed roster is stepped in
//! virtual time (a churn fleet with an empty trace), churn determinism,
//! and the bounded-memory (O(window) retained tasks per resource) claim
//! the CI smoke job pins at 64 sessions.

use qvr::core::metrics::SortedSamples;
use qvr::prelude::*;
use qvr::scene::Benchmark;
use std::cell::RefCell;
use std::rc::Rc;

/// A closed roster stepped in virtual time: a churn fleet whose only
/// joins are the initial roster's, run to `horizon_ms`.
fn closed_roster(initial: Vec<SessionSpec>, horizon_ms: f64, seed: u64) -> ChurnConfig {
    ChurnConfig::new(
        SystemConfig::default(),
        initial,
        ChurnTrace::default(),
        horizon_ms,
        seed,
    )
}

/// Records every frame event a fleet emits, in stream order.
#[derive(Debug, Clone, Default)]
struct Tap(Rc<RefCell<Vec<FrameEvent>>>);

impl TelemetrySink for Tap {
    fn on_frame(&mut self, event: &FrameEvent) {
        self.0.borrow_mut().push(*event);
    }
}

/// Runs a churn fleet to the end and returns its frame stream.
fn frame_stream(config: ChurnConfig) -> (ChurnSummary, Vec<FrameEvent>) {
    let mut fleet = ChurnFleet::new(config);
    let tap = Tap::default();
    fleet.attach_sink(Box::new(tap.clone()));
    let summary = fleet.finish();
    (summary, tap.0.take())
}

/// Every session slot's virtual clock (its next frame's start) before the
/// first event and after each one: the join time (0) until its first
/// frame, then its last frame's end, and `None` once that end reaches the
/// horizon and the session stops stepping.
fn clock_history(events: &[FrameEvent], sessions: usize, horizon_ms: f64) -> Vec<Vec<Option<f64>>> {
    let mut clocks = vec![Some(0.0); sessions];
    let mut history = vec![clocks.clone()];
    for e in events {
        clocks[e.session] = (e.end_ms < horizon_ms).then_some(e.end_ms);
        history.push(clocks.clone());
    }
    history
}

/// Spread between the earliest and latest running session clock, ms.
fn spread_ms(clocks: impl IntoIterator<Item = f64>) -> f64 {
    let (min, max) = clocks
        .into_iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), c| {
            (lo.min(c), hi.max(c))
        });
    (max - min).max(0.0)
}

#[test]
fn virtual_time_never_steps_a_session_backwards() {
    // Property: every frame starts at its session's clock, that clock is
    // the minimum among running sessions (ties to the lowest slot, so the
    // first frames come out in slot order), and no clock ever decreases.
    let horizon_ms = 300.0;
    let roster = (0..6)
        .map(|_| SessionSpec::new(SchemeKind::Qvr, Benchmark::Hl2H.profile()))
        .collect();
    let (summary, events) = frame_stream(closed_roster(roster, horizon_ms, 21));
    let history = clock_history(&events, 6, horizon_ms);
    for (e, before) in events.iter().zip(&history) {
        let own = before[e.session].expect("a finished session stepped");
        assert_eq!(e.span_start_ms, own, "slot {} skipped time", e.session);
        assert!(e.end_ms >= own, "slot {}'s clock ran backwards", e.session);
        for (i, c) in before.iter().enumerate() {
            if let Some(c) = *c {
                assert!(
                    own < c || (own == c && e.session <= i),
                    "stepped slot {} at {own:.2} but slot {i} was earlier at {c:.2}",
                    e.session
                );
            }
        }
    }
    assert!(history.last().unwrap().iter().all(Option::is_none));
    for t in &summary.tenants {
        assert!(t.summary.len() > 1, "every session stepped to the horizon");
    }
}

#[test]
fn churned_frames_step_in_clock_order() {
    // Earliest-first stepping under churn: leavers withdrawn while
    // runnable, slots recycled at the join instant, and joins and a leave
    // at one instant. Frames must come out one event per recorded frame,
    // in strictly increasing (clock, slot) order.
    let spec = || SessionSpec::new(SchemeKind::Qvr, Benchmark::Hl2H.profile());
    let trace = ChurnTrace::script(vec![
        ChurnEvent::leave(150.0, 0),
        ChurnEvent::join(150.0, spec()),
        ChurnEvent::leave(260.0, 1),
        ChurnEvent::join(260.0, spec()),
        ChurnEvent::join(400.0, spec()),
        ChurnEvent::join(400.0, spec()),
        ChurnEvent::leave(400.0, 2),
    ]);
    let (summary, events) = frame_stream(ChurnConfig::new(
        SystemConfig::default(),
        vec![spec(), spec(), spec()],
        trace,
        700.0,
        29,
    ));
    assert_eq!(summary.len(), 7, "three initial tenants and four joiners");
    let frames: usize = summary.tenants.iter().map(|t| t.summary.len()).sum();
    assert_eq!(events.len(), frames, "one frame event per recorded frame");
    for pair in events.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        let order = a
            .span_start_ms
            .total_cmp(&b.span_start_ms)
            .then(a.session.cmp(&b.session));
        assert!(
            order.is_lt(),
            "slot {} stepped at {:.3} ms after slot {} at {:.3} ms",
            b.session,
            b.span_start_ms,
            a.session,
            a.span_start_ms
        );
    }
}

#[test]
fn uniform_fleets_agree_across_stepping_policies() {
    // A homogeneous roster has (nearly) no time skew, so stepping it in
    // virtual time must reproduce round-robin's tail over the same span —
    // the policies only diverge when tenants advance at very different
    // paces.
    let rr_config = FleetConfig::uniform(
        SystemConfig::default(),
        SchemeKind::Qvr,
        Benchmark::Hl2H.profile(),
        4,
        40,
        5,
    );
    let roster = rr_config.sessions.clone();
    let rr = Fleet::run(rr_config);
    let vt = ChurnFleet::run(closed_roster(roster, rr.makespan_ms, 5));
    let vt_p95 = SortedSamples::new(
        vt.tenants
            .iter()
            .flat_map(|t| t.summary.frames.iter().map(|f| f.mtp_ms))
            .collect(),
    )
    .p95();
    let ratio = vt_p95 / rr.mtp_p95_ms;
    assert!(
        (0.8..1.25).contains(&ratio),
        "uniform fleets should agree across policies: p95 ratio {ratio:.2}"
    );
}

#[test]
fn virtual_time_retires_the_section7_skew_artifact() {
    // DESIGN.md §7: under round-robin, strongly unequal link shares make
    // per-session timelines advance at different simulated paces — after
    // enough rounds the tenants are whole time-windows apart, and the
    // slow tenant's far-future pool frontiers queue the fast one. Stepped
    // in virtual time, the same roster stays synchronized: the peak clock
    // spread collapses to about one of the slow tenant's frame intervals.
    let roster = || {
        vec![
            SessionSpec::new(SchemeKind::RemoteOnly, Benchmark::Hl2H.profile())
                .with_share(LinkShare::weighted(8.0)),
            SessionSpec::new(SchemeKind::RemoteOnly, Benchmark::Hl2H.profile()),
        ]
    };
    let frames = 60;
    let mut rr_fleet = Fleet::new(FleetConfig {
        system: SystemConfig::default(),
        sessions: roster(),
        frames,
        seed: 17,
        server_units: 8,
        link_streams: 1,
        fairness: FairnessPolicy::Weighted,
        server_policy: ServerPolicy::default(),
        stepping: SteppingPolicy::RoundRobin,
        retire_window_ms: None,
        telemetry: TelemetryConfig::default(),
    });
    let mut rr_skew = 0.0f64;
    for _ in 0..frames {
        rr_fleet.step_round();
        let running = rr_fleet
            .sessions()
            .iter()
            .filter(|s| s.frames_stepped() < frames)
            .map(Session::last_display_end);
        rr_skew = rr_skew.max(spread_ms(running));
    }
    let rr = rr_fleet.finish();
    let horizon_ms = 4_000.0;
    let mut config =
        closed_roster(roster(), horizon_ms, 17).with_fairness(FairnessPolicy::Weighted);
    config.server_units = 8;
    config.link_streams = 1;
    let (vt, events) = frame_stream(config);
    let vt_skew = clock_history(&events, 2, horizon_ms)
        .iter()
        .map(|clocks| spread_ms(clocks.iter().flatten().copied()))
        .fold(0.0, f64::max);
    assert!(
        rr_skew > 4.0 * vt_skew,
        "round-robin must skew tenants apart and virtual time must not: \
         {rr_skew:.0} ms vs {vt_skew:.0} ms"
    );
    // And the artifact's symptom is gone: with virtual time, the fast
    // tenant's remote chain stays fast at long horizons (under round-robin
    // the slow tenant's future frontiers inflate it — DESIGN.md §7 is why
    // the weighted-tilt unit test had to stop at 8 frames).
    let mean_remote_ms = |frames: &[FrameRecord]| {
        frames.iter().map(|r| r.t_remote_ms).sum::<f64>() / frames.len() as f64
    };
    let vt_remote = |ordinal: usize| mean_remote_ms(&vt.tenants[ordinal].summary.frames);
    let rr_fast = mean_remote_ms(&rr.sessions[0].frames);
    assert!(
        vt_remote(0) < vt_remote(1),
        "virtual time: the 8x-weighted tenant keeps its faster remote chain \
         over {horizon_ms} ms: {:.1} vs {:.1} ms",
        vt_remote(0),
        vt_remote(1),
    );
    assert!(
        rr_fast > vt_remote(0),
        "round-robin's cross-window queueing must inflate the fast tenant's \
         chain relative to virtual time: {rr_fast:.1} vs {:.1} ms",
        vt_remote(0),
    );
}

#[test]
fn churn_traces_are_deterministic_under_a_fixed_seed() {
    let spec = || SessionSpec::new(SchemeKind::Qvr, Benchmark::Doom3H.profile());
    let make = || {
        let trace = ChurnTrace::poisson(23, 6.0, 300.0, 1_200.0, 1, |_| spec());
        ChurnConfig::new(SystemConfig::default(), vec![spec()], trace, 1_200.0, 23)
    };
    let a = ChurnFleet::run(make());
    let b = ChurnFleet::run(make());
    assert_eq!(a, b, "same seed, same trace, same everything");
    assert!(!a.is_empty());
}

#[test]
fn recycled_slot_gets_a_fresh_rate_controller() {
    // Tenant 0 leaves at 500 ms; a new tenant joins at 600 ms and recycles
    // the slot. With rate control on, the controllers live inside each
    // session's stepper, so the joiner must open at exactly the configured
    // initial quality — fresh loop state, nothing inherited from the
    // departed tenant — while a resident tenant has long stepped away from
    // that initial point.
    let rc = RateControlConfig::on();
    let spec = || SessionSpec::new(SchemeKind::Qvr, Benchmark::Hl2H.profile());
    let trace = ChurnTrace::script(vec![
        ChurnEvent::leave(500.0, 0),
        ChurnEvent::join(600.0, spec()),
    ]);
    let summary = ChurnFleet::run(ChurnConfig::new(
        SystemConfig::default().with_rate_control(rc),
        vec![spec(), spec()],
        trace,
        1_200.0,
        11,
    ));
    let tenant = |ordinal: usize| {
        summary
            .tenants
            .iter()
            .find(|t| t.ordinal == ordinal)
            .expect("every ordinal leaves a record")
    };
    let joiner = tenant(2);
    assert!(!joiner.summary.is_empty(), "the joiner stepped frames");
    assert_eq!(
        joiner.summary.frames[0].quality,
        Some(rc.initial_quality),
        "a recycled slot must start from a fresh controller"
    );
    let resident = tenant(1);
    let settled = resident
        .summary
        .frames
        .last()
        .and_then(|f| f.quality)
        .expect("rate control on: every frame carries its quality");
    assert_ne!(
        settled, rc.initial_quality,
        "the resident controller should have stepped off its initial point"
    );
}

/// The retirement window for the bounded-memory smoke, ms. The CI job sets
/// `QVR_RETIRE_WINDOW`; locally the default keeps the test meaningful.
fn retire_window_ms() -> f64 {
    std::env::var("QVR_RETIRE_WINDOW")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(250.0)
}

#[test]
fn churn_bounded_memory_64_sessions_retains_o_window_tasks() {
    // The scale claim: a churn fleet with windowed retirement holds
    // O(window) live tasks per resource no matter how much history it has
    // simulated. Debug builds run a smaller instance; the release CI smoke
    // job runs the full 64-session fleet.
    let (n, horizon_ms) = if cfg!(debug_assertions) {
        (16, 900.0)
    } else {
        (64, 2_000.0)
    };
    let window_ms = retire_window_ms();
    let spec = |i: usize| {
        let apps = [
            Benchmark::Hl2H,
            Benchmark::Doom3H,
            Benchmark::Wolf,
            Benchmark::Ut3,
        ];
        SessionSpec::new(SchemeKind::Qvr, apps[i % apps.len()].profile())
    };
    let initial: Vec<SessionSpec> = (0..n).map(spec).collect();
    // Rolling churn on top: every 40 ms one tenant leaves and a fresh one
    // joins, so membership keeps turning over while the count stays ~n.
    let mut events = Vec::new();
    for k in 0..(n / 4) {
        let t = 100.0 + 40.0 * k as f64;
        events.push(ChurnEvent::leave(t, k));
        events.push(ChurnEvent::join(t + 1.0, spec(n + k)));
    }
    let mut config = ChurnConfig::new(
        SystemConfig::default(),
        initial,
        ChurnTrace::script(events),
        horizon_ms,
        42,
    )
    .with_retire_window_ms(window_ms)
    // Stream the MTP timeline too: the WindowedStatsSink must keep the
    // churn stats series O(window) alongside the engine's task retirement.
    .with_stats_window_ms(window_ms);
    config.server_units = 8;
    config.link_streams = 8;
    let summary = ChurnFleet::run(config);
    assert_eq!(summary.len(), n + n / 4, "everyone joined");
    // The streamed timeline's live footprint is a couple of windows of
    // in-flight frames — it scales with (sessions × window), never the
    // horizon.
    let total_frames: usize = summary.windows.iter().map(|(_, f, _)| *f).sum();
    assert!(total_frames > 0, "the streamed timeline saw every frame");
    let stats_cap = 4 * n * qvr::sim::checked::ceil_index(window_ms / 10.0);
    assert!(
        summary.peak_open_samples < stats_cap,
        "live stats memory must stay O(sessions x window): peak {} vs cap {} \
         ({} frames streamed over {horizon_ms} ms)",
        summary.peak_open_samples,
        stats_cap,
        total_frames
    );
    assert!(
        summary.retired_tasks > summary.total_tasks / 2,
        "most history must retire: {} of {} tasks",
        summary.retired_tasks,
        summary.total_tasks
    );
    // O(window) per resource: a display-paced session at ~90 Hz with a few
    // tasks per frame stays well under 8 tasks per simulated ms on any one
    // resource; the cap scales with the window, not the horizon.
    let cap = (8.0 * window_ms) as usize;
    assert!(
        summary.peak_live_per_resource < cap,
        "per-resource live state must stay O(window): peak {} vs cap {} \
         (window {window_ms} ms, {} total tasks)",
        summary.peak_live_per_resource,
        cap,
        summary.total_tasks
    );
}
