//! Multi-tenant fleets: N collaborative-VR sessions contending for one
//! remote multi-GPU server and one wireless link.
//!
//! This is the regime the paper is actually pitched at — "future mobile
//! collaborative VR" with many headsets behind one server — and the regime
//! where the LIWC/UCA co-design earns its keep: as the shared link's
//! per-session share shrinks and the server pool saturates, each session's
//! controller independently grows its fovea to absorb the loss.
//!
//! A [`Fleet`] steps its sessions round-robin (one frame per session per
//! round) against a shared [`qvr_sim::SharedEngine`], a shared server pool
//! of per-frame GPU units, and one shared [`qvr_net::SharedChannel`]
//! bandwidth budget that every streaming session joins. Independent fleets
//! (across seeds or configs) run in parallel threads via
//! [`Fleet::run_many`].
//!
//! # Tenancy semantics
//!
//! Every fleet is **multi-tenant**: each frame renders on one least-loaded
//! GPU unit at single-GPU speed, and recorded latencies include queueing
//! behind other tenants — even for a 1-session fleet on a 1-unit pool.
//! The classic **dedicated** single-user setup, where the whole MCM array
//! gangs up on each frame (analytic acceleration) and recorded chain
//! latencies are contention-free nominal costs, is not a fleet at all:
//! it is [`crate::schemes::SchemeKind::run`], a private session stepped to
//! the end.

use crate::cell::Cell;
use crate::metrics::RunSummary;
use crate::sched::ServerPolicy;
use crate::schemes::{SchemeKind, SystemConfig};
use crate::session::Session;
use crate::telemetry::{
    client_energy_mj, AggregateSink, FrameEvent, TelemetryConfig, TelemetrySink,
};
use qvr_energy::FleetEnergy;
use qvr_net::{FairnessPolicy, LinkShare};
use qvr_scene::AppProfile;
use qvr_sim::SharedEngine;
use std::fmt;

/// One tenant's slot in a fleet: which scheme and which app it runs, and
/// the share of the shared link it registers with.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// The design point this user runs.
    pub scheme: SchemeKind,
    /// The app this user plays.
    pub profile: AppProfile,
    /// The tenant's claim on the shared link (weight, rate cap, MCS
    /// efficiency) — consumed by the fleet's [`FairnessPolicy`]; the unit
    /// default is invisible under equal-share.
    pub share: LinkShare,
}

impl SessionSpec {
    /// A spec with the default unit link share.
    #[must_use]
    pub fn new(scheme: SchemeKind, profile: AppProfile) -> Self {
        SessionSpec {
            scheme,
            profile,
            share: LinkShare::default(),
        }
    }

    /// Returns a copy with an explicit link share.
    #[must_use]
    pub fn with_share(mut self, share: LinkShare) -> Self {
        self.share = share;
        self
    }
}

/// How a [`Fleet`] advances its sessions through simulated time.
/// Round-robin is its only mode; virtual-time stepping is
/// [`crate::churn::ChurnFleet`]'s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SteppingPolicy {
    /// One frame per session per round, in session-index order — the
    /// original engine, bit-pinned by the `fig_fleet` goldens.
    #[default]
    RoundRobin,
}

/// Full description of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The system every session runs on (Table 2 defaults).
    pub system: SystemConfig,
    /// The tenants, in session-index order.
    pub sessions: Vec<SessionSpec>,
    /// Frames each session simulates.
    pub frames: usize,
    /// Fleet seed; per-session seeds derive from it (session 0 keeps it).
    pub seed: u64,
    /// Remote GPU (and encoder) units in the shared server pool.
    pub server_units: usize,
    /// Concurrent full-rate streams the shared link serves (MU-MIMO/OFDMA
    /// capacity): per-transfer rates degrade only once the streaming
    /// session count exceeds this.
    pub link_streams: usize,
    /// How the shared link arbitrates its budget between streaming tenants.
    /// [`FairnessPolicy::EqualShare`] (the default) with unit shares is
    /// bit-identical to the pre-policy engine.
    pub fairness: FairnessPolicy,
    /// How the shared server pool places tenants' remote chains on GPU
    /// units, by tenant class ([`SchemeKind::tenant_class`]).
    /// [`ServerPolicy::LeastLoaded`] (the default) is bit-pinned by the
    /// fig_fleet goldens.
    pub server_policy: ServerPolicy,
    /// How sessions advance through simulated time. Its one value,
    /// [`SteppingPolicy::RoundRobin`], is bit-pinned by the fig_fleet
    /// goldens; virtual-time stepping belongs to
    /// [`crate::churn::ChurnFleet`] (DESIGN.md §8).
    pub stepping: SteppingPolicy,
    /// Windowed task retirement: completed engine history older than this
    /// many ms behind the slowest unfinished session is dropped, so every
    /// resource holds O(window) live state instead of the full task
    /// history. `None` (the default) keeps everything. A window must be
    /// positive and finite (checked at construction), and must exceed the
    /// longest dependency horizon a stepper keeps (render-ahead pacing ×
    /// frame interval); lookups into retired history panic.
    pub retire_window_ms: Option<f64>,
    /// Which built-in telemetry sinks stream this fleet's frame events
    /// (default-on; see [`crate::telemetry`]). Sinks observe the event
    /// stream and never perturb the schedule, so the fig_fleet goldens stay
    /// bit-identical with every default sink enabled.
    pub telemetry: TelemetryConfig,
}

impl FleetConfig {
    /// A homogeneous fleet: `n` users all running `scheme` on `profile`,
    /// sharing the system's full server array (`remote.count()` units) and
    /// one wireless link provisioned with as many concurrent full-rate
    /// streams as the server has GPUs (a collaborative-VR AP sized to its
    /// server — sharing starts to bite exactly when the pool does).
    #[must_use]
    pub fn uniform(
        system: SystemConfig,
        scheme: SchemeKind,
        profile: AppProfile,
        n: usize,
        frames: usize,
        seed: u64,
    ) -> Self {
        let server_units = system.remote.count() as usize;
        FleetConfig {
            system,
            sessions: (0..n)
                .map(|_| SessionSpec::new(scheme, profile.clone()))
                .collect(),
            frames,
            seed,
            server_units,
            link_streams: server_units,
            fairness: FairnessPolicy::EqualShare,
            server_policy: ServerPolicy::default(),
            stepping: SteppingPolicy::RoundRobin,
            retire_window_ms: None,
            telemetry: TelemetryConfig::default(),
        }
    }

    /// Returns a copy with every session's per-tenant rate controller
    /// configured (see [`SystemConfig::with_rate_control`]); pass
    /// `RateControlConfig::on()` for the content-true byte path.
    #[must_use]
    pub fn with_rate_control(mut self, rate_control: qvr_codec::RateControlConfig) -> Self {
        self.system = self.system.with_rate_control(rate_control);
        self
    }

    /// Whether this config runs as a dedicated single-user session: never.
    /// No fleet has a private channel (every streaming session joins its
    /// cell's link), and every fleet is multi-tenant (see the module docs'
    /// tenancy semantics); the dedicated run is [`SchemeKind::run`]. The
    /// constant stays because the repository benchmark's recorder asserts
    /// it.
    #[must_use]
    pub fn is_dedicated(&self) -> bool {
        false
    }
}

/// A running fleet of sessions on shared resources.
#[derive(Debug)]
pub struct Fleet {
    cell: Cell,
    sessions: Vec<Session>,
    frames: usize,
    rounds_done: usize,
    /// Reusable buffer for one round's frame events (round-robin batched
    /// fan-out) — cleared and refilled each round, never reallocated in
    /// steady state.
    event_buf: Vec<FrameEvent>,
}

impl Fleet {
    /// Builds the fleet: its cell (shared engine, server pool, link and
    /// sinks) and one session per spec, opened in session-index order.
    ///
    /// # Panics
    ///
    /// Panics if the config has no sessions or zero frames, or if its
    /// tenancy is invalid: zero server units or link streams, a server
    /// policy the pool cannot hold, or a retirement window that is set but
    /// not positive and finite.
    #[must_use]
    pub fn new(config: FleetConfig) -> Self {
        assert!(
            !config.sessions.is_empty(),
            "a fleet needs at least one session"
        );
        assert!(config.frames > 0, "a fleet needs at least one frame");
        // The aggregate stream always runs: it *is* the summary.
        let mut cell = Cell::new(&config, true);
        let sessions: Vec<Session> = config
            .sessions
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let mut session = cell.open(spec, i, i, None);
                session.reserve_frames(config.frames);
                session
            })
            .collect();
        let n = sessions.len();
        Fleet {
            cell,
            sessions,
            frames: config.frames,
            rounds_done: 0,
            event_buf: Vec::with_capacity(n),
        }
    }

    /// Attaches a custom telemetry sink: it receives every frame event the
    /// fleet emits from this point on (tests and tooling; the built-in
    /// sinks are configured via [`FleetConfig::telemetry`]).
    pub fn attach_sink(&mut self, sink: Box<dyn TelemetrySink>) {
        self.cell.sinks.attach(sink);
    }

    /// The measured server-load EWMA of one session slot, ms/frame (`None`
    /// before its first frame) — the signal
    /// [`ServerPolicy::MeasuredLoad`] places on.
    #[must_use]
    pub fn load_ewma(&self, slot: usize) -> Option<f64> {
        self.cell.sinks.load.ewma(slot)
    }

    /// The sessions, in index order.
    #[must_use]
    pub fn sessions(&self) -> &[Session] {
        &self.sessions
    }

    /// Steps every session one frame, round-robin in session-index order
    /// (the deterministic arbitration order on shared resources).
    pub fn step_round(&mut self) {
        // Collect the whole round into the reusable buffer, then fan it
        // out once: the sink set is traversed per round, not per event,
        // and event order (session-index order) is unchanged.
        self.event_buf.clear();
        for session in &mut self.sessions {
            self.event_buf.push(session.step());
        }
        self.cell.sinks.emit_batch(&self.event_buf);
        self.rounds_done += 1;
        self.advance_frontier();
    }

    /// Propagates the fleet's virtual-time frontier — the slowest
    /// *unfinished* session's clock — to the consumers that key on it:
    /// windowed task retirement (drop history older than `frontier −
    /// window`) and the streaming stats sink (close buckets no future
    /// sample can reach). No-op for both once everyone has finished
    /// (finish flushes the sink).
    fn advance_frontier(&mut self) {
        if self.cell.retire_window_ms.is_none()
            && self.cell.sinks.windowed.is_none()
            && self.cell.sinks.health.is_none()
        {
            return;
        }
        let frontier = self
            .sessions
            .iter()
            .filter(|s| s.frames_stepped() < self.frames)
            .map(Session::last_display_end)
            .fold(f64::INFINITY, f64::min);
        if !frontier.is_finite() {
            return;
        }
        if let Some(window) = self.cell.retire_window_ms {
            if frontier > window {
                self.cell.engine.retire_before(frontier - window);
            }
        }
        self.cell.sinks.close_windows_before(frontier);
    }

    /// A handle to the engine all sessions submit into (for retention
    /// inspection in bounded-memory runs).
    #[must_use]
    pub fn shared_engine(&self) -> SharedEngine {
        self.cell.engine.clone()
    }

    /// Steps every session to its frame budget.
    fn step_to_end(&mut self) {
        while self.rounds_done < self.frames {
            self.step_round();
        }
    }

    /// Steps all remaining rounds and finalises. The summary's aggregates
    /// are the product of the built-in telemetry sinks: percentiles and FPS
    /// statistics stream out of the [`crate::telemetry::AggregateSink`],
    /// fleet energy out of the [`crate::telemetry::EnergyMeter`], and the
    /// windowed timeline out of the [`crate::telemetry::WindowedStatsSink`].
    #[must_use]
    pub fn finish(mut self) -> FleetSummary {
        self.step_to_end();
        let cell = &mut self.cell;
        let server_utilization = cell.engine.pool_utilization(cell.server.rgpu());
        let makespan_ms = cell.engine.makespan();
        let sessions: Vec<RunSummary> = self.sessions.into_iter().map(Session::finish).collect();
        let energy = cell.sinks.energy_finalize(
            makespan_ms,
            client_energy_mj(sessions.iter().map(|s| &s.energy)),
        );
        let (windows, _) = cell.sinks.windowed_finish();
        let aggregate = cell.sinks.aggregate.as_ref().expect("fleets always stream");
        let (mtp_p50_ms, mtp_p95_ms, mtp_p99_ms) = aggregate.mtp_percentiles();
        let (fps_floor, mean_fps) = aggregate.fps_stats();
        FleetSummary {
            sessions,
            makespan_ms,
            mtp_p50_ms,
            mtp_p95_ms,
            mtp_p99_ms,
            fps_floor,
            mean_fps,
            server_utilization,
            server_units: cell.server.units(),
            energy,
            windows,
            exposition: cell.sinks.metrics_exposition(),
            incidents: cell.sinks.health_finish(),
            trace: cell.sinks.trace.take(),
            peak_live_tasks: cell.engine.max_live_intervals(),
        }
    }

    /// Builds, runs, and finalises one fleet.
    #[must_use]
    pub fn run(config: FleetConfig) -> FleetSummary {
        Fleet::new(config).finish()
    }

    /// Steps all remaining rounds and finalises into the bundle a shard
    /// cell ships across its worker-thread boundary (see [`crate::shard`]):
    /// raw sink states (aggregate, deferred windowed, finalised energy, a
    /// load-EWMA snapshot) plus scalar schedule facts — never the
    /// per-session frame histories, which die with the cell.
    #[must_use]
    pub(crate) fn finish_cell(mut self, id: usize) -> crate::shard::CellSummary {
        self.step_to_end();
        let cell = &mut self.cell;
        let makespan_ms = cell.engine.makespan();
        let server_units = cell.server.units();
        let server_busy_ms = cell.engine.pool_busy_ms(cell.server.rgpu());
        let peak_live_tasks = cell.engine.max_live_intervals();
        let sessions = self.sessions.len();
        // Sessions finalise only to surface their energy breakdowns; their
        // frame histories are dropped on this side of the seam.
        let summaries: Vec<RunSummary> = self.sessions.drain(..).map(Session::finish).collect();
        let energy = cell.sinks.energy_finalize(
            makespan_ms,
            client_energy_mj(summaries.iter().map(|s| &s.energy)),
        );
        let aggregate = cell.sinks.aggregate.take().expect("fleets always stream");
        crate::shard::CellSummary {
            cell: id,
            sessions,
            frames: aggregate.frames(),
            makespan_ms,
            server_units,
            server_busy_ms,
            aggregate,
            windowed: cell.sinks.windowed.take(),
            energy,
            load: cell.sinks.load.snapshot(),
            peak_live_tasks,
            metrics: cell.sinks.metrics.take(),
            incidents: cell.sinks.health_finish(),
        }
    }

    /// Runs independent fleets in parallel (intended for sweeps across
    /// seeds, session counts, or networks), preserving input order. Work
    /// is fed to at most `available_parallelism` worker threads via
    /// [`qvr_sim::parallel_map`], so a hundred-config sweep doesn't spawn
    /// a hundred concurrent simulations.
    #[must_use]
    pub fn run_many(configs: Vec<FleetConfig>) -> Vec<FleetSummary> {
        qvr_sim::parallel_map(&configs, |config| Fleet::run(config.clone()))
    }
}

/// Fleet-level aggregates over all sessions' frames, plus the per-session
/// summaries they were computed from.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSummary {
    /// Per-session summaries, in session-index order.
    pub sessions: Vec<RunSummary>,
    /// Wall-clock of the whole fleet schedule, ms.
    pub makespan_ms: f64,
    /// Median motion-to-photon latency across all sessions' frames, ms.
    pub mtp_p50_ms: f64,
    /// 95th-percentile MTP across all sessions' frames, ms.
    pub mtp_p95_ms: f64,
    /// 99th-percentile MTP across all sessions' frames, ms.
    pub mtp_p99_ms: f64,
    /// The slowest session's frame rate, frames/s (the fairness floor).
    pub fps_floor: f64,
    /// Mean session frame rate, frames/s.
    pub mean_fps: f64,
    /// Remote-GPU pool utilisation over the makespan, `[0, 1]`.
    pub server_utilization: f64,
    /// Units in the server pool.
    pub server_units: usize,
    /// Fleet-level energy (server pool + access point + all headsets),
    /// streamed by the telemetry [`crate::telemetry::EnergyMeter`];
    /// identity-zero when the meter is disabled.
    pub energy: FleetEnergy,
    /// The streaming windowed-p95 MTP timeline `(start_ms, frames, p95)`,
    /// when [`TelemetryConfig::window_ms`] was configured; empty otherwise.
    pub windows: Vec<(f64, usize, f64)>,
    /// Prometheus-style text exposition of the per-class metric families,
    /// when [`TelemetryConfig::metrics`] was enabled; `None` otherwise.
    pub exposition: Option<String>,
    /// The deterministic SLO incident timeline, when
    /// [`TelemetryConfig::health`] rules were configured; empty otherwise.
    pub incidents: Vec<crate::obs::Incident>,
    /// The span-trace recording, when [`TelemetryConfig::trace`] was
    /// configured; `None` otherwise. Render it with
    /// [`crate::obs::TraceSink::chrome_trace_json`].
    pub trace: Option<crate::obs::TraceSink>,
    /// Live task intervals the engine retained at finish — the
    /// schedule-state footprint the benchmark gauges. It is read once,
    /// after the last round, which never retires: without windowed
    /// retirement that is the run's peak (every submitted task), but with
    /// a window an earlier round can have held more.
    pub peak_live_tasks: usize,
}

impl FleetSummary {
    /// Number of sessions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether the fleet recorded no sessions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// The aggregate sink fed with the masked subset of sessions
    /// (`mask[i]` keeps session `i`), each kept session's finished frames
    /// as one slot.
    ///
    /// # Panics
    ///
    /// Panics if the mask length doesn't match the session count.
    fn aggregate_over(&self, mask: &[bool]) -> AggregateSink {
        assert_eq!(mask.len(), self.sessions.len(), "mask/session mismatch");
        let mut sink = AggregateSink::new();
        for (session, _) in self.sessions.iter().zip(mask).filter(|(_, keep)| **keep) {
            sink.absorb_session(session);
        }
        sink
    }

    /// p95 motion-to-photon latency over the masked subset of sessions
    /// (`mask[i]` keeps session `i`) — how a class-aware sweep reads one
    /// tenant class's tail out of a mixed fleet. 0 when the subset has no
    /// frames.
    ///
    /// # Panics
    ///
    /// Panics if the mask length doesn't match the session count.
    #[must_use]
    pub fn mtp_p95_over(&self, mask: &[bool]) -> f64 {
        self.aggregate_over(mask).mtp_percentiles().1
    }

    /// The slowest frame rate over the masked subset of sessions
    /// (zero-frame sessions excluded, as in the fleet-wide floor). 0 when
    /// the subset has no frames.
    ///
    /// # Panics
    ///
    /// Panics if the mask length doesn't match the session count.
    #[must_use]
    pub fn fps_floor_over(&self, mask: &[bool]) -> f64 {
        self.aggregate_over(mask).fps_stats().0
    }

    /// Mean downlink bytes per frame across all sessions.
    #[must_use]
    pub fn mean_tx_bytes(&self) -> f64 {
        if self.sessions.is_empty() {
            return 0.0;
        }
        self.sessions
            .iter()
            .map(RunSummary::mean_tx_bytes)
            .sum::<f64>()
            / self.sessions.len() as f64
    }
}

impl fmt::Display for FleetSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} sessions on {} server units + shared link: MTP p50/p95/p99 \
             {:.1}/{:.1}/{:.1} ms, FPS floor {:.0}, server util {:.0}%",
            self.sessions.len(),
            self.server_units,
            self.mtp_p50_ms,
            self.mtp_p95_ms,
            self.mtp_p99_ms,
            self.fps_floor,
            self.server_utilization * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qvr_scene::Benchmark;

    fn cfg() -> SystemConfig {
        SystemConfig::default()
    }

    #[test]
    fn local_only_neighbours_do_not_debit_the_link() {
        // Shared-channel occupancy counts only tenants that stream: a Q-VR
        // session surrounded by 7 LocalOnly users (who never touch the
        // downlink or the server) must behave exactly as it would alone.
        let mixed = |n_local: usize| {
            let mut sessions = vec![SessionSpec::new(SchemeKind::Qvr, Benchmark::Hl2H.profile())];
            sessions.extend(
                (0..n_local)
                    .map(|_| SessionSpec::new(SchemeKind::LocalOnly, Benchmark::Doom3L.profile())),
            );
            Fleet::run(FleetConfig {
                system: cfg(),
                sessions,
                frames: 20,
                seed: 9,
                server_units: 8,
                link_streams: 1,
                fairness: FairnessPolicy::EqualShare,
                server_policy: ServerPolicy::default(),
                stepping: SteppingPolicy::RoundRobin,
                retire_window_ms: None,
                telemetry: TelemetryConfig::default(),
            })
        };
        let alone = mixed(0);
        let crowded = mixed(7);
        assert_eq!(
            alone.sessions[0].frames, crowded.sessions[0].frames,
            "idle neighbours must not change the streaming session's frames"
        );
    }

    #[test]
    fn local_only_neighbours_hold_private_channels() {
        // Regression: `Fleet::new` used to hand non-streaming tenants a
        // clone of the *shared* channel handle, so any code path touching
        // the neighbour's link would mutate the shared RNG/ACK state
        // without being a member. The neighbour must get a private channel:
        // hammering it leaves the shared channel's occupancy, transfer
        // counter, and RNG stream (and therefore the streaming session's
        // frames) untouched.
        let config = FleetConfig {
            system: cfg(),
            sessions: vec![
                SessionSpec::new(SchemeKind::Qvr, Benchmark::Hl2H.profile()),
                SessionSpec::new(SchemeKind::LocalOnly, Benchmark::Doom3L.profile()),
            ],
            frames: 12,
            seed: 5,
            server_units: 4,
            link_streams: 2,
            fairness: FairnessPolicy::EqualShare,
            server_policy: ServerPolicy::default(),
            stepping: SteppingPolicy::RoundRobin,
            retire_window_ms: None,
            telemetry: TelemetryConfig::default(),
        };
        let run = |poke: bool| {
            let mut fleet = Fleet::new(config.clone());
            let streaming = fleet.sessions()[0].channel_handle();
            let local = fleet.sessions()[1].channel_handle();
            assert_eq!(
                local.members(),
                0,
                "a non-streaming tenant must hold a private channel"
            );
            assert_eq!(streaming.members(), 1, "only the streamer joined");
            assert_eq!(streaming.occupancy(), 1);
            let transfers_before = streaming.transfers();
            for _ in 0..12 {
                fleet.step_round();
                if poke {
                    // A future code path touching the neighbour's link.
                    let _ = local.download_ms(512.0 * 1024.0);
                }
            }
            assert!(streaming.transfers() > transfers_before);
            (streaming.transfers(), fleet.finish())
        };
        let (quiet_transfers, quiet) = run(false);
        let (poked_transfers, poked) = run(true);
        assert_eq!(
            quiet_transfers, poked_transfers,
            "poking the private neighbour channel must not reach the shared one"
        );
        assert_eq!(
            quiet.sessions[0].frames, poked.sessions[0].frames,
            "the streaming session's RNG stream must be unaffected"
        );
    }

    #[test]
    fn zero_frame_sessions_do_not_poison_fps_aggregates() {
        // A churn join that leaves immediately can finish with a positive
        // residency span and zero recorded frames; the masked floor must
        // skip it instead of collapsing to 0 (or NaN).
        let mut s = Fleet::run(FleetConfig::uniform(
            cfg(),
            SchemeKind::LocalOnly,
            Benchmark::Doom3L.profile(),
            2,
            3,
            5,
        ));
        let empty = &mut s.sessions[1];
        empty.frames.clear();
        empty.makespan_ms = 50.0;
        let normal = s.sessions[0].fps();
        assert!(normal > 0.0);
        assert_eq!(s.fps_floor_over(&[true, true]), normal);
        // A subset of only such sessions reports zero, never NaN.
        assert_eq!(s.fps_floor_over(&[false, true]), 0.0);
        assert_eq!(s.mtp_p95_over(&[false, true]), 0.0);
    }

    #[test]
    fn subset_metrics_select_by_mask() {
        let s = Fleet::run(FleetConfig::uniform(
            cfg(),
            SchemeKind::Qvr,
            Benchmark::Hl2H.profile(),
            3,
            10,
            7,
        ));
        let all = vec![true; 3];
        assert_eq!(s.mtp_p95_over(&all), s.mtp_p95_ms);
        assert_eq!(s.fps_floor_over(&all), s.fps_floor);
        let one = vec![false, true, false];
        assert_eq!(s.fps_floor_over(&one), s.sessions[1].fps());
        assert_eq!(s.mtp_p95_over(&[false, false, false]), 0.0);
        assert_eq!(s.fps_floor_over(&[false, false, false]), 0.0);
    }

    #[test]
    #[should_panic(expected = "mask/session mismatch")]
    fn subset_mask_length_must_match() {
        let s = Fleet::run(FleetConfig::uniform(
            cfg(),
            SchemeKind::Qvr,
            Benchmark::Grid.profile(),
            2,
            5,
            1,
        ));
        let _ = s.mtp_p95_over(&[true]);
    }

    #[test]
    fn a_solo_fleet_on_one_unit_is_still_multi_tenant() {
        // One session on a 1-unit pool has the dedicated single-user
        // shape, but a fleet still streams it through its cell's link and
        // renders it as a 1-unit multi-tenant fleet; the contention-free
        // single-user run is `SchemeKind::run`.
        let f = FleetConfig {
            system: cfg(),
            sessions: vec![SessionSpec::new(
                SchemeKind::Qvr,
                Benchmark::Doom3H.profile(),
            )],
            frames: 10,
            seed: 1,
            server_units: 1,
            link_streams: 1,
            fairness: FairnessPolicy::EqualShare,
            server_policy: ServerPolicy::default(),
            stepping: SteppingPolicy::RoundRobin,
            retire_window_ms: None,
            telemetry: TelemetryConfig::default(),
        };
        assert!(!f.is_dedicated());
        let s = Fleet::run(f);
        assert_eq!(s.server_units, 1);
        assert_ne!(
            s.sessions[0],
            SchemeKind::Qvr.run(&cfg(), Benchmark::Doom3H.profile(), 10, 1)
        );
        let uniform = FleetConfig::uniform(
            cfg(),
            SchemeKind::Qvr,
            Benchmark::Doom3H.profile(),
            1,
            10,
            1,
        );
        assert!(
            !uniform.is_dedicated(),
            "a 1-session fleet on the full pool is multi-tenant"
        );
    }

    #[test]
    fn fleet_runs_every_session_to_completion() {
        let summary = Fleet::run(FleetConfig::uniform(
            cfg(),
            SchemeKind::Qvr,
            Benchmark::Hl2H.profile(),
            4,
            30,
            7,
        ));
        assert_eq!(summary.len(), 4);
        for s in &summary.sessions {
            assert_eq!(s.len(), 30);
            assert!(s.mean_mtp_ms() > 0.0);
            assert!(s.fps() > 0.0);
        }
        assert!(summary.mtp_p50_ms <= summary.mtp_p95_ms);
        assert!(summary.mtp_p95_ms <= summary.mtp_p99_ms);
        assert!(summary.fps_floor <= summary.mean_fps + 1e-9);
        assert!(summary.server_utilization > 0.0);
        assert!(summary.makespan_ms > 0.0);
        assert!(summary.to_string().contains("4 sessions"));
    }

    #[test]
    fn fleets_are_deterministic() {
        let make =
            || FleetConfig::uniform(cfg(), SchemeKind::Qvr, Benchmark::Grid.profile(), 6, 25, 11);
        let a = Fleet::run(make());
        let b = Fleet::run(make());
        assert_eq!(a, b);
    }

    #[test]
    fn sessions_diverge_across_seeds() {
        let summary = Fleet::run(FleetConfig::uniform(
            cfg(),
            SchemeKind::Qvr,
            Benchmark::Hl2H.profile(),
            2,
            20,
            3,
        ));
        // Different per-session seeds → different motion traces → different
        // per-frame latencies.
        assert_ne!(summary.sessions[0].frames, summary.sessions[1].frames);
    }

    #[test]
    fn heterogeneous_fleets_interleave() {
        let summary = Fleet::run(FleetConfig {
            system: cfg(),
            sessions: vec![
                SessionSpec::new(SchemeKind::Qvr, Benchmark::Grid.profile()),
                SessionSpec::new(SchemeKind::Ffr, Benchmark::Doom3L.profile()),
                SessionSpec::new(SchemeKind::RemoteOnly, Benchmark::Wolf.profile()),
            ],
            frames: 20,
            seed: 5,
            server_units: 4,
            link_streams: 1,
            fairness: FairnessPolicy::EqualShare,
            server_policy: ServerPolicy::default(),
            stepping: SteppingPolicy::RoundRobin,
            retire_window_ms: None,
            telemetry: TelemetryConfig::default(),
        });
        assert_eq!(summary.len(), 3);
        assert_eq!(summary.sessions[0].scheme, "Q-VR");
        assert_eq!(summary.sessions[1].scheme, "FFR");
        assert_eq!(summary.sessions[2].scheme, "Remote");
    }

    #[test]
    fn shared_link_contention_hurts_oversubscribed_fleets() {
        let run_n = |n: usize| {
            Fleet::run(FleetConfig::uniform(
                cfg(),
                SchemeKind::Qvr,
                Benchmark::Hl2H.profile(),
                n,
                40,
                13,
            ))
        };
        let small = run_n(2);
        let big = run_n(16);
        assert!(
            big.mtp_p95_ms > small.mtp_p95_ms,
            "16 tenants must see worse tail latency than 2: {:.1} vs {:.1} ms",
            big.mtp_p95_ms,
            small.mtp_p95_ms
        );
    }

    #[test]
    fn run_many_matches_sequential_runs() {
        let configs: Vec<FleetConfig> = (0..3)
            .map(|i| {
                FleetConfig::uniform(
                    cfg(),
                    SchemeKind::Qvr,
                    Benchmark::Doom3H.profile(),
                    2,
                    15,
                    100 + i,
                )
            })
            .collect();
        let parallel = Fleet::run_many(configs.clone());
        let sequential: Vec<FleetSummary> = configs.into_iter().map(Fleet::run).collect();
        assert_eq!(parallel, sequential);
    }

    #[test]
    #[should_panic(expected = "at least one session")]
    fn empty_fleet_rejected() {
        let _ = Fleet::new(FleetConfig {
            system: cfg(),
            sessions: vec![],
            frames: 1,
            seed: 0,
            server_units: 1,
            link_streams: 1,
            fairness: FairnessPolicy::EqualShare,
            server_policy: ServerPolicy::default(),
            stepping: SteppingPolicy::RoundRobin,
            retire_window_ms: None,
            telemetry: TelemetryConfig::default(),
        });
    }

    #[test]
    #[should_panic(expected = "at least one stream")]
    fn zero_streams_on_a_shared_link_rejected() {
        let mut config =
            FleetConfig::uniform(cfg(), SchemeKind::Qvr, Benchmark::Grid.profile(), 1, 1, 0);
        config.link_streams = 0;
        let _ = Fleet::new(config);
    }

    fn with_window(window_ms: f64) -> FleetConfig {
        let mut config =
            FleetConfig::uniform(cfg(), SchemeKind::Qvr, Benchmark::Grid.profile(), 1, 1, 0);
        config.retire_window_ms = Some(window_ms);
        config
    }

    #[test]
    #[should_panic(expected = "retirement window must be positive and finite")]
    fn zero_retirement_window_rejected() {
        let _ = Fleet::new(with_window(0.0));
    }

    #[test]
    #[should_panic(expected = "retirement window must be positive and finite")]
    fn nan_retirement_window_rejected() {
        let _ = Fleet::new(with_window(f64::NAN));
    }

    #[test]
    #[should_panic(expected = "retirement window must be positive and finite")]
    fn infinite_retirement_window_rejected() {
        let _ = Fleet::new(with_window(f64::INFINITY));
    }

    #[test]
    fn weighted_fleet_tilts_latency_toward_heavy_tenants() {
        // Two non-adaptive RemoteOnly tenants (fixed bytes per frame, so no
        // controller feedback masks the MAC) on one saturated stream. Going
        // from 1:1 to 4:1 weights must speed up the heavy tenant's remote
        // chain and slow down the light one's, session-by-session against
        // its own 1:1 run (same seed, same motion trace). Short run: with
        // strongly unequal shares the tenants' per-session timelines skew
        // apart, and after ~10 rounds the slow tenant's far-future pool
        // frontiers start queueing the fast one (see DESIGN.md §7 on the
        // round-robin time-skew artifact), which would mask the link tilt.
        let run = |w0: f64| {
            Fleet::run(FleetConfig {
                system: cfg(),
                sessions: vec![
                    SessionSpec::new(SchemeKind::RemoteOnly, Benchmark::Hl2H.profile())
                        .with_share(LinkShare::weighted(w0)),
                    SessionSpec::new(SchemeKind::RemoteOnly, Benchmark::Hl2H.profile()),
                ],
                frames: 8,
                seed: 17,
                server_units: 8,
                link_streams: 1,
                fairness: FairnessPolicy::Weighted,
                server_policy: ServerPolicy::default(),
                stepping: SteppingPolicy::RoundRobin,
                retire_window_ms: None,
                telemetry: TelemetryConfig::default(),
            })
        };
        let rem = |s: &FleetSummary, i: usize| {
            s.sessions[i]
                .frames
                .iter()
                .map(|f| f.t_remote_ms)
                .sum::<f64>()
                / s.sessions[i].frames.len() as f64
        };
        let tilted = run(4.0);
        let flat = run(1.0);
        assert!(
            rem(&tilted, 0) < rem(&flat, 0) * 0.9,
            "4x weight must speed the heavy tenant up: {:.1} vs {:.1} ms",
            rem(&tilted, 0),
            rem(&flat, 0)
        );
        assert!(
            rem(&tilted, 1) > rem(&flat, 1) * 1.1,
            "the light tenant pays for the heavy one: {:.1} vs {:.1} ms",
            rem(&tilted, 1),
            rem(&flat, 1)
        );
    }

    #[test]
    fn capped_tenant_sheds_load_via_liwc() {
        // A hard 20 Mbps cap starves the downlink; that tenant's LIWC must
        // pull work on-device (bigger fovea, fewer bytes) vs an uncapped
        // twin in the same fleet position.
        let run = |share: LinkShare| {
            Fleet::run(FleetConfig {
                system: cfg(),
                sessions: vec![
                    SessionSpec::new(SchemeKind::Qvr, Benchmark::Hl2H.profile()).with_share(share),
                    SessionSpec::new(SchemeKind::Qvr, Benchmark::Hl2H.profile()),
                ],
                frames: 40,
                seed: 19,
                server_units: 2,
                link_streams: 2,
                fairness: FairnessPolicy::Weighted,
                server_policy: ServerPolicy::default(),
                stepping: SteppingPolicy::RoundRobin,
                retire_window_ms: None,
                telemetry: TelemetryConfig::default(),
            })
        };
        let capped = run(LinkShare::default().with_cap_mbps(20.0));
        let free = run(LinkShare::default());
        assert!(
            capped.sessions[0].mean_tx_bytes() < free.sessions[0].mean_tx_bytes() * 0.9,
            "capped tenant must ship fewer bytes: {:.0} vs {:.0}",
            capped.sessions[0].mean_tx_bytes(),
            free.sessions[0].mean_tx_bytes()
        );
        let e1_capped = capped.sessions[0].mean_e1_deg(20).unwrap();
        let e1_free = free.sessions[0].mean_e1_deg(20).unwrap();
        assert!(
            e1_capped > e1_free,
            "capped tenant's fovea must grow: {e1_capped:.1}° vs {e1_free:.1}°"
        );
    }

    #[test]
    fn prereserved_frame_storage_never_reallocates() {
        // `Fleet::new` pre-reserves each rig's per-frame `records` /
        // `display_ends` for the configured run length, so a full run must
        // not grow either buffer past its initial capacity (no per-frame
        // reallocation on the hot path).
        let frames = 40;
        let config = FleetConfig::uniform(
            cfg(),
            SchemeKind::Qvr,
            Benchmark::Hl2H.profile(),
            4,
            frames,
            42,
        );
        let mut fleet = Fleet::new(config);
        let before: Vec<(usize, usize)> = fleet
            .sessions()
            .iter()
            .map(|s| s.frame_capacity())
            .collect();
        for (records, ends) in &before {
            assert!(*records >= frames, "records capacity {records} < {frames}");
            assert!(*ends >= frames, "display_ends capacity {ends} < {frames}");
        }
        for _ in 0..frames {
            fleet.step_round();
        }
        let after: Vec<(usize, usize)> = fleet
            .sessions()
            .iter()
            .map(|s| s.frame_capacity())
            .collect();
        assert_eq!(before, after, "per-frame buffers reallocated mid-run");
    }

    #[test]
    fn prereservation_keeps_windowed_retirement_exact() {
        // Pre-reservation touches only client-side frame buffers; windowed
        // retirement must still drop exactly the engine-history prefix and
        // leave every output bit unchanged versus an unwindowed run.
        let mut plain =
            FleetConfig::uniform(cfg(), SchemeKind::Qvr, Benchmark::Hl2H.profile(), 4, 40, 7);
        let mut windowed = plain.clone();
        windowed.retire_window_ms = Some(300.0);
        plain.retire_window_ms = None;
        let keep = Fleet::new(plain);
        let drop = Fleet::new(windowed);
        let keep_engine = keep.shared_engine();
        let drop_engine = drop.shared_engine();
        let a = keep.finish();
        let mut b = drop.finish();
        // The schedule-state gauge measures the retained engine footprint
        // — the one field retirement is supposed to shrink.
        assert!(b.peak_live_tasks < a.peak_live_tasks);
        b.peak_live_tasks = a.peak_live_tasks;
        assert_eq!(a, b, "retirement output drifted under pre-reservation");
        assert_eq!(keep_engine.retired_tasks(), 0);
        let retired = drop_engine.retired_tasks();
        assert!(retired > 0, "history must actually retire");
        // The drop is an exact prefix of the task-id space: live + retired
        // still accounts for every task, and re-retiring at an older cutoff
        // is a no-op.
        assert_eq!(
            drop_engine.live_tasks() + retired,
            keep_engine.live_tasks(),
            "retirement must drop a prefix, not rewrite history"
        );
        assert_eq!(drop_engine.retire_before(0.0), 0);
        assert_eq!(drop_engine.retired_tasks(), retired);
    }
}
