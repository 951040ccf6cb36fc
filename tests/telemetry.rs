//! Telemetry integration tests: event streams are one-per-frame, fleet
//! energy is non-negative / additive / retirement-proof, and a churn run's
//! streamed windowed-p95 timeline equals a bucketing of its recorded
//! events.

use qvr::core::metrics::SortedSamples;
use qvr::prelude::*;
use qvr::scene::Benchmark;
use std::cell::RefCell;
use std::rc::Rc;

/// A custom sink that forwards every event into a shared vector.
#[derive(Debug)]
struct Recorder(Rc<RefCell<Vec<FrameEvent>>>);

impl TelemetrySink for Recorder {
    fn on_frame(&mut self, event: &FrameEvent) {
        self.0.borrow_mut().push(*event);
    }
}

fn golden_config(preset: NetworkPreset, n: usize) -> FleetConfig {
    FleetConfig::uniform(
        SystemConfig::default().with_network(preset),
        SchemeKind::Qvr,
        Benchmark::Hl2H.profile(),
        n,
        120,
        42,
    )
}

#[test]
fn every_frame_emits_exactly_one_event() {
    let events = Rc::new(RefCell::new(Vec::new()));
    let mut fleet = Fleet::new(golden_config(NetworkPreset::WiFi, 3));
    fleet.attach_sink(Box::new(Recorder(events.clone())));
    let summary = fleet.finish();
    let events = events.borrow();
    let frames_delivered: usize = summary.sessions.iter().map(RunSummary::len).sum();
    assert_eq!(events.len(), frames_delivered, "one event per frame");
    // Per-session: counts match, frame indices are 0..frames in order, and
    // spans tile each session's timeline gaplessly.
    for slot in 0..3 {
        let mine: Vec<&FrameEvent> = events.iter().filter(|e| e.session == slot).collect();
        assert_eq!(mine.len(), summary.sessions[slot].len());
        let mut prev_end = 0.0;
        for (i, e) in mine.iter().enumerate() {
            assert_eq!(e.frame, i as u64);
            assert_eq!(e.span_start_ms, prev_end);
            assert!(e.end_ms > e.span_start_ms);
            prev_end = e.end_ms;
        }
    }
    // Every event's MTP appears in the recorded frames (same values the
    // summary aggregated).
    for e in events.iter() {
        assert_eq!(
            summary.sessions[e.session].frames[e.frame as usize].mtp_ms,
            e.mtp_ms
        );
    }
}

#[test]
fn fleet_energy_is_non_negative_additive_and_matches_the_stream() {
    let events = Rc::new(RefCell::new(Vec::new()));
    let config = golden_config(NetworkPreset::WiFi, 4);
    let server_power = config.system.server_power;
    let mut fleet = Fleet::new(config);
    fleet.attach_sink(Box::new(Recorder(events.clone())));
    let summary = fleet.finish();
    let e = summary.energy;
    for part in [
        e.server_render_mj,
        e.server_encode_mj,
        e.server_idle_mj,
        e.ap_radio_mj,
        e.client_mj,
    ] {
        assert!(part >= 0.0, "energy components are non-negative: {e}");
        assert!(part.is_finite());
    }
    // Additive across sessions: the active server energy equals the
    // per-session attribution summed over the event stream.
    let events = events.borrow();
    let per_session_mj = |slot: usize| -> f64 {
        events
            .iter()
            .filter(|ev| ev.session == slot)
            .map(|ev| {
                server_power.gpu_active_w * ev.server_render_ms
                    + server_power.enc_active_w * ev.server_encode_ms
            })
            .sum()
    };
    let attributed: f64 = (0..4).map(per_session_mj).sum();
    let active = e.server_render_mj + e.server_encode_mj;
    assert!(
        (attributed - active).abs() <= 1e-9 * active,
        "per-session energy must add up to the fleet total: {attributed} vs {active}"
    );
    // And the client side is exactly the sum of the sessions' own budgets.
    let client: f64 = summary.sessions.iter().map(|s| s.energy.total_mj()).sum();
    assert_eq!(e.client_mj, client);
}

#[test]
fn fleet_energy_is_bit_identical_with_retirement_on_and_off() {
    // The bugfix-by-construction satellite: energy accounting flows through
    // the event stream (and retired busy intervals fold into cumulative
    // engine counters), so windowed task retirement must not move a single
    // bit of any energy field.
    let mut plain = golden_config(NetworkPreset::WiFi, 4);
    plain.frames = 60;
    let mut windowed = plain.clone();
    windowed.retire_window_ms = Some(300.0);
    let keep = Fleet::run(plain);
    let drop = Fleet::run(windowed);
    assert_eq!(
        keep.energy, drop.energy,
        "retirement must not change energy: {} vs {}",
        keep.energy, drop.energy
    );
    assert_eq!(
        keep.energy.server_render_mj.to_bits(),
        drop.energy.server_render_mj.to_bits()
    );
    assert_eq!(
        keep.energy.ap_radio_mj.to_bits(),
        drop.energy.ap_radio_mj.to_bits()
    );
    assert_eq!(
        keep.energy.client_mj.to_bits(),
        drop.energy.client_mj.to_bits()
    );
    assert!(keep.energy.total_mj() > 0.0);
}

#[test]
fn energy_differs_measurably_across_server_policies() {
    // The fig_energy acceptance claim at test scale: on the mixed
    // noisy-neighbour roster, placement changes queueing, queueing changes
    // the fleet's makespan and the adaptive tenants' operating points, and
    // the energy meter must see it — least-loaded (every adaptive tenant
    // dragged to ~13 FPS, long makespan, big idle floor) burns measurably
    // differently from the quota split.
    let frames = 40;
    let base = Fleet::run(qvr_bench::fig_sched::mixed_config(
        NetworkPreset::WiFi,
        ServerPolicy::LeastLoaded,
        frames,
    ));
    let quota = Fleet::run(qvr_bench::fig_sched::mixed_config(
        NetworkPreset::WiFi,
        ServerPolicy::QuotaPartition { reserved: 6 },
        frames,
    ));
    let (a, b) = (base.energy.total_mj(), quota.energy.total_mj());
    assert!(
        (a - b).abs() > 0.02 * a.max(b),
        "placement must move fleet energy by >2%: least-loaded {a:.0} mJ vs quota {b:.0} mJ"
    );
    assert!(a > 0.0 && b > 0.0);
}

#[test]
fn streamed_churn_timeline_matches_a_bucketing_of_the_recorded_events() {
    // The reference for `ChurnSummary::windows`: record every frame event
    // of a windowed churn run, bucket the events here — half-open
    // `[k·w, (k+1)·w)` by display end, nearest-rank p95, empty buckets
    // skipped — and require the streamed timeline to match exactly.
    let spec = || SessionSpec::new(SchemeKind::Qvr, Benchmark::Hl2H.profile());
    let config = || {
        let trace = ChurnTrace::poisson(5, 3.0, 300.0, 800.0, 2, |_| spec());
        ChurnConfig::new(
            SystemConfig::default(),
            vec![spec(), spec()],
            trace,
            800.0,
            7,
        )
    };
    let window_ms = 100.0;
    let events = Rc::new(RefCell::new(Vec::new()));
    let mut fleet = ChurnFleet::new(config().with_stats_window_ms(window_ms));
    fleet.attach_sink(Box::new(Recorder(events.clone())));
    let streamed = fleet.finish();
    let mut buckets: Vec<Vec<f64>> = Vec::new();
    for e in events.borrow().iter() {
        let b = qvr::sim::checked::floor_index(e.end_ms / window_ms);
        if b >= buckets.len() {
            buckets.resize(b + 1, Vec::new());
        }
        buckets[b].push(e.mtp_ms);
    }
    let reference: Vec<(f64, usize, f64)> = buckets
        .into_iter()
        .enumerate()
        .filter(|(_, mtps)| !mtps.is_empty())
        .map(|(b, mtps)| {
            let n = mtps.len();
            (b as f64 * window_ms, n, SortedSamples::new(mtps).p95())
        })
        .collect();
    assert!(reference.len() > 1, "the run spans several windows");
    assert_eq!(streamed.windows, reference);
    // Streaming the timeline never perturbs the run itself.
    let plain = ChurnFleet::run(config());
    assert!(plain.windows.is_empty());
    assert_eq!(streamed.tenants, plain.tenants);
    assert_eq!(streamed.occupancy, plain.occupancy);
    assert_eq!(streamed.energy, plain.energy);
}

#[test]
fn fleet_summaries_can_stream_a_windowed_timeline() {
    let mut config = golden_config(NetworkPreset::WiFi, 2);
    config.frames = 40;
    config.telemetry = TelemetryConfig::default().with_window_ms(50.0);
    let summary = Fleet::run(config);
    assert!(!summary.windows.is_empty());
    let frames: usize = summary.windows.iter().map(|(_, n, _)| *n).sum();
    assert_eq!(frames, 2 * 40, "the timeline covers every frame");
    for pair in summary.windows.windows(2) {
        assert!(pair[0].0 < pair[1].0, "buckets stay in time order");
    }
    // Without a configured width the timeline stays empty.
    let plain = Fleet::run(golden_config(NetworkPreset::WiFi, 2));
    assert!(plain.windows.is_empty());
}

#[test]
fn disabling_the_energy_meter_zeroes_only_the_energy_fields() {
    let mut config = golden_config(NetworkPreset::WiFi, 2);
    config.frames = 20;
    let with = Fleet::run(config.clone());
    config.telemetry.energy = false;
    let without = Fleet::run(config);
    assert_eq!(without.energy, FleetEnergy::default());
    assert!(with.energy.total_mj() > 0.0);
    assert_eq!(with.mtp_p95_ms.to_bits(), without.mtp_p95_ms.to_bits());
    assert_eq!(with.sessions, without.sessions, "metering never perturbs");
}
