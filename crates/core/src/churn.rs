//! Dynamic fleets: sessions that join and leave mid-run.
//!
//! The collaborative end-state Q-VR is pitched at is not a fixed cast of
//! headsets — multi-party VR surveys consistently find churn (participants
//! arriving late, dropping out, reconnecting) to be the norm. A
//! [`ChurnFleet`] runs an open system on the same shared substrate as
//! [`crate::fleet::Fleet`]: one engine, one server pool, one wireless
//! link — but membership follows a deterministic [`ChurnTrace`] of
//! join/leave events pinned to *virtual* time, which is why churn steps
//! the globally-earliest session next (a join at 800 ms only means
//! something when the fleet has a coherent global frontier at 800 ms).
//! With an empty trace it is a closed roster stepped in virtual time.
//!
//! The pieces:
//!
//! * **Traces** — explicit scripts ([`ChurnTrace::script`]) or seeded
//!   Poisson arrivals with exponential holding times
//!   ([`ChurnTrace::poisson`]); both are pure data, so a churn run is a
//!   deterministic function of `(config, trace, seed)`.
//! * **Admission-gated joins** — with an [`AdmissionPolicy`] configured,
//!   every join (the initial roster included) routes through an
//!   [`AdmissionController`] probe and can be admitted protected, degraded
//!   to best-effort, or rejected.
//! * **Reclaim on leave** — a leaver releases its [`qvr_net::LinkShare`]
//!   (the survivors' allocations renormalize) and the controller's
//!   [`AdmissionController::release`] spends the freed headroom upgrading
//!   best-effort tenants back to their requested shares.
//! * **Warm-started joiners** — a session joining a converged fleet starts
//!   its LIWC at the live tenants' mean operating eccentricity instead of
//!   the cold 5°, skipping the cold-start imbalance the crowd already
//!   paid for.
//! * **Windowed retirement** — long-running open systems retire completed
//!   engine history ([`qvr_sim::Engine::retire_before`]) so per-resource
//!   live state stays O(window) while tenants come and go.

use crate::admission::{AdmissionController, AdmissionDecision, AdmissionPolicy};
use crate::cell::Cell;
use crate::fleet::SessionSpec;
use crate::metrics::RunSummary;
use crate::sched::ServerPolicy;
use crate::schemes::SystemConfig;
use crate::session::Session;
use crate::telemetry::{client_energy_mj, TelemetryConfig, TelemetrySink};
use qvr_energy::FleetEnergy;
use qvr_net::FairnessPolicy;
use qvr_sim::SharedEngine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;

/// What happens to fleet membership at one instant of virtual time.
#[derive(Debug, Clone)]
pub enum ChurnEventKind {
    /// A session arrives and (subject to admission) joins the fleet.
    /// (Boxed: a spec carries a whole app profile, and traces hold many
    /// more leave events than a spec is large.)
    Join(Box<SessionSpec>),
    /// The session with this arrival **ordinal** departs. Ordinals number
    /// every join in application order: the initial roster takes
    /// `0..initial.len()`, trace joins continue from there. Leaves aimed
    /// at rejected or already-departed ordinals are counted and ignored.
    Leave(usize),
}

/// One membership change, pinned to virtual time.
#[derive(Debug, Clone)]
pub struct ChurnEvent {
    /// Virtual time the event fires, ms.
    pub at_ms: f64,
    /// Join or leave.
    pub kind: ChurnEventKind,
}

impl ChurnEvent {
    /// A join event.
    #[must_use]
    pub fn join(at_ms: f64, spec: SessionSpec) -> Self {
        ChurnEvent {
            at_ms,
            kind: ChurnEventKind::Join(Box::new(spec)),
        }
    }

    /// A leave event for an arrival ordinal.
    #[must_use]
    pub fn leave(at_ms: f64, ordinal: usize) -> Self {
        ChurnEvent {
            at_ms,
            kind: ChurnEventKind::Leave(ordinal),
        }
    }
}

/// A deterministic sequence of join/leave events, sorted by time (stable,
/// so same-instant events keep their authored order).
#[derive(Debug, Clone, Default)]
pub struct ChurnTrace {
    events: Vec<ChurnEvent>,
}

impl ChurnTrace {
    /// An explicit script of events (sorted by time on construction;
    /// same-instant events keep their authored order).
    ///
    /// # Panics
    ///
    /// Panics if any event time is negative or non-finite.
    #[must_use]
    pub fn script(mut events: Vec<ChurnEvent>) -> Self {
        assert!(
            events.iter().all(|e| e.at_ms.is_finite() && e.at_ms >= 0.0),
            "churn event times must be finite and non-negative"
        );
        events.sort_by(|a, b| a.at_ms.total_cmp(&b.at_ms));
        ChurnTrace { events }
    }

    /// A seeded open-system trace: Poisson arrivals at `arrivals_per_s`
    /// with exponentially-distributed holding times of mean `mean_hold_ms`,
    /// generated until `horizon_ms`. `spec_of(k)` supplies the k-th
    /// arrival's spec (k counts from 0 within this trace);
    /// `first_ordinal` is the arrival ordinal the trace's first join will
    /// get at application time (the initial roster size), so generated
    /// leaves target their own joins.
    ///
    /// # Panics
    ///
    /// Panics if the rate, mean hold, or horizon is not positive-finite.
    #[must_use]
    pub fn poisson(
        seed: u64,
        arrivals_per_s: f64,
        mean_hold_ms: f64,
        horizon_ms: f64,
        first_ordinal: usize,
        mut spec_of: impl FnMut(usize) -> SessionSpec,
    ) -> Self {
        assert!(
            arrivals_per_s.is_finite() && arrivals_per_s > 0.0,
            "arrival rate must be positive"
        );
        assert!(
            mean_hold_ms.is_finite() && mean_hold_ms > 0.0,
            "mean holding time must be positive"
        );
        assert!(
            horizon_ms.is_finite() && horizon_ms > 0.0,
            "horizon must be positive"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let exp = |mean: f64, rng: &mut StdRng| -> f64 {
            let u: f64 = rng.gen_range(1e-12..1.0);
            -mean * u.ln()
        };
        let mean_interarrival_ms = 1_000.0 / arrivals_per_s;
        let mut events = Vec::new();
        let mut t = 0.0;
        let mut k = 0usize;
        loop {
            t += exp(mean_interarrival_ms, &mut rng);
            if t >= horizon_ms {
                break;
            }
            events.push(ChurnEvent::join(t, spec_of(k)));
            let hold = exp(mean_hold_ms, &mut rng);
            if t + hold < horizon_ms {
                events.push(ChurnEvent::leave(t + hold, first_ordinal + k));
            }
            k += 1;
        }
        ChurnTrace::script(events)
    }

    /// The events, in time order.
    #[must_use]
    pub fn events(&self) -> &[ChurnEvent] {
        &self.events
    }

    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Full description of one churn run.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// The system every session runs on.
    pub system: SystemConfig,
    /// Sessions present from virtual time 0 (they route through admission
    /// like any other join when a policy is configured).
    pub initial: Vec<SessionSpec>,
    /// The membership trace.
    pub trace: ChurnTrace,
    /// Virtual time the run ends, ms: sessions stop stepping once their
    /// clock reaches it and pending events beyond it never fire.
    pub horizon_ms: f64,
    /// Fleet seed; per-session seeds derive from arrival ordinals.
    pub seed: u64,
    /// Remote GPU (and encoder) units in the shared server pool.
    pub server_units: usize,
    /// Concurrent full-rate streams on the shared link.
    pub link_streams: usize,
    /// How the shared link arbitrates its budget.
    pub fairness: FairnessPolicy,
    /// How the shared server pool places tenants' remote chains, by
    /// tenant class (see [`crate::sched::ServerPolicy`]).
    pub server_policy: ServerPolicy,
    /// SLO gate for joins (and upgrade engine for leaves); `None` admits
    /// everyone at their requested share.
    pub admission: Option<AdmissionPolicy>,
    /// Windowed engine-history retirement (see
    /// [`crate::fleet::FleetConfig::retire_window_ms`]).
    pub retire_window_ms: Option<f64>,
    /// Which built-in telemetry sinks stream this run's frame events
    /// (default-on). With [`TelemetryConfig::window_ms`] set, the MTP
    /// timeline streams through a [`crate::telemetry::WindowedStatsSink`]
    /// at O(window) live memory into [`ChurnSummary::windows`].
    pub telemetry: TelemetryConfig,
}

impl ChurnConfig {
    /// A config over the system's full server array and a link provisioned
    /// like [`crate::fleet::FleetConfig::uniform`], equal-share, no
    /// admission gate, no retirement.
    #[must_use]
    pub fn new(
        system: SystemConfig,
        initial: Vec<SessionSpec>,
        trace: ChurnTrace,
        horizon_ms: f64,
        seed: u64,
    ) -> Self {
        let units = system.remote.count() as usize;
        ChurnConfig {
            system,
            initial,
            trace,
            horizon_ms,
            seed,
            server_units: units,
            link_streams: units,
            fairness: FairnessPolicy::EqualShare,
            server_policy: ServerPolicy::default(),
            admission: None,
            retire_window_ms: None,
            telemetry: TelemetryConfig::default(),
        }
    }

    /// Returns a copy that streams its windowed-p95 MTP timeline
    /// ([`ChurnSummary::windows`]) through a
    /// [`crate::telemetry::WindowedStatsSink`] at this bucket width.
    #[must_use]
    pub fn with_stats_window_ms(mut self, window_ms: f64) -> Self {
        self.telemetry = self.telemetry.with_window_ms(window_ms);
        self
    }

    /// Returns a copy with an admission gate.
    #[must_use]
    pub fn with_admission(mut self, policy: AdmissionPolicy) -> Self {
        self.admission = Some(policy);
        self
    }

    /// Returns a copy with a different fairness policy.
    #[must_use]
    pub fn with_fairness(mut self, fairness: FairnessPolicy) -> Self {
        self.fairness = fairness;
        self
    }

    /// Returns a copy with windowed engine-history retirement.
    #[must_use]
    pub fn with_retire_window_ms(mut self, window_ms: f64) -> Self {
        self.retire_window_ms = Some(window_ms);
        self
    }
}

/// One tenant's lifecycle record in a churn run.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantRecord {
    /// Arrival ordinal (the id leave events target).
    pub ordinal: usize,
    /// Virtual time the session joined, ms.
    pub joined_ms: f64,
    /// Virtual time the session left, ms (the horizon for survivors).
    pub left_ms: f64,
    /// The admission verdict that let it in ([`AdmissionDecision::Admitted`]
    /// for everyone when no gate is configured).
    pub decision: AdmissionDecision,
    /// Whether a reclaim-driven upgrade later promoted it to protected.
    pub upgraded: bool,
    /// The session's run summary over its residency.
    pub summary: RunSummary,
}

impl TenantRecord {
    /// Frame rate over the tenant's *residency* (join to departure) rather
    /// than the whole run's makespan — the fair FPS for a late joiner.
    #[must_use]
    pub fn resident_fps(&self) -> f64 {
        let span = (self.left_ms - self.joined_ms).max(1e-9);
        self.summary.len() as f64 * 1_000.0 / span
    }
}

/// Aggregates of one churn run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnSummary {
    /// Every tenant that ever joined, in departure order (survivors last,
    /// in arrival-ordinal order).
    pub tenants: Vec<TenantRecord>,
    /// The streamed windowed-p95 MTP timeline `(start_ms, frames,
    /// p95_ms)` when stats streaming was configured
    /// ([`ChurnConfig::with_stats_window_ms`]); empty otherwise. This is
    /// the series that shows tails spiking at join bursts and recovering
    /// after reclaim. Buckets are half-open — bucket `k` covers
    /// `[k·window, (k+1)·window)`, a frame past the horizon included — and
    /// only buckets with at least one displayed frame appear.
    pub windows: Vec<(f64, usize, f64)>,
    /// Largest raw-sample count the streaming stats sink ever held live
    /// (0 when streaming was off) — the O(window) memory bound the
    /// bounded-memory CI job asserts.
    pub peak_open_samples: usize,
    /// The deterministic SLO incident timeline, when
    /// [`TelemetryConfig::with_health`] rules were configured; empty
    /// otherwise.
    pub incidents: Vec<crate::obs::Incident>,
    /// Fleet-level energy over the run (server pool + AP + every tenant's
    /// headset), streamed by the telemetry [`crate::telemetry::EnergyMeter`].
    pub energy: FleetEnergy,
    /// `(at_ms, live_count_after)` at every membership change.
    pub occupancy: Vec<(f64, usize)>,
    /// Join offers that were rejected at admission.
    pub rejected: usize,
    /// Join offers that came in degraded (best-effort).
    pub degraded: usize,
    /// Best-effort tenants upgraded to protected by leave-time reclaim.
    pub upgrades: usize,
    /// Leave events that fired but found no live tenant (aimed at a
    /// rejected ordinal, or a double-leave). Events beyond the horizon
    /// never fire and are not counted.
    pub dropped_leaves: usize,
    /// The run horizon, ms.
    pub horizon_ms: f64,
    /// Largest live-interval count any engine resource held (the
    /// bounded-memory claim when retirement is on).
    pub peak_live_per_resource: usize,
    /// Total tasks the engine retired over the run.
    pub retired_tasks: usize,
    /// Total tasks submitted over the run.
    pub total_tasks: usize,
}

impl ChurnSummary {
    /// Tenants that ever joined.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Whether nobody ever joined.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// Peak concurrent live sessions.
    #[must_use]
    pub fn peak_live(&self) -> usize {
        self.occupancy.iter().map(|(_, n)| *n).max().unwrap_or(0)
    }

    /// Live session count at a virtual time (0 before the first join).
    #[must_use]
    pub fn live_at(&self, t_ms: f64) -> usize {
        self.occupancy
            .iter()
            .take_while(|(at, _)| *at <= t_ms)
            .last()
            .map_or(0, |(_, n)| *n)
    }
}

impl fmt::Display for ChurnSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} tenants over {:.0} ms (peak {} live): {} rejected, {} degraded, \
             {} upgraded, {} frames",
            self.tenants.len(),
            self.horizon_ms,
            self.peak_live(),
            self.rejected,
            self.degraded,
            self.upgrades,
            self.tenants.iter().map(|t| t.summary.len()).sum::<usize>(),
        )
    }
}

/// A runnable session's virtual time, ordered by [`f64::total_cmp`] so it
/// can key the runnable heap. Every time pushed is finite: a join time is
/// checked by [`ChurnTrace::script`], and a display end is built from
/// engine durations the engine checks finite.
#[derive(Debug, Clone, Copy)]
struct At(f64);

impl PartialEq for At {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for At {}

impl PartialOrd for At {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for At {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// One live tenant.
#[derive(Debug)]
struct Tenant {
    session: Session,
    /// The engine slot this tenant occupies (recycled from departed
    /// tenants so per-session resources are O(peak concurrency)).
    slot: usize,
    joined_ms: f64,
    decision: AdmissionDecision,
    upgraded: bool,
}

/// An open fleet: the same shared substrate as [`crate::fleet::Fleet`],
/// with virtual-time stepping and a membership trace.
#[derive(Debug)]
pub struct ChurnFleet {
    cell: Cell,
    horizon_ms: f64,
    retire_window_ms: Option<f64>,
    /// Runnable sessions keyed on their virtual clock (the join time, then
    /// each frame's display end), so the root is the globally-earliest
    /// session, ties to the lowest slot. A slot holds at most one entry: a
    /// step pops its slot before pushing it back, a join takes a slot with
    /// no entry, and a leave withdraws its slot's entry.
    runnable: BinaryHeap<Reverse<(At, usize)>>,
    /// Indexed by arrival ordinal; `None` once departed (or never
    /// admitted). Boxed so a long-running open system pays one pointer —
    /// not a whole tenant's footprint — per historical arrival.
    live: Vec<Option<Box<Tenant>>>,
    /// Slot → current occupant's ordinal. Slots name per-session engine
    /// resources (`CPU#slot`, …) and key the runnable heap; departed
    /// tenants' slots are recycled so the engine's resource table — like
    /// the link's member table — stays O(peak concurrency). Per-tenant
    /// accounting survives reuse because each rig baselines its resources'
    /// busy time at build ([`crate::schemes::Rig`]).
    slots: Vec<Option<usize>>,
    /// Recyclable slots of departed tenants (LIFO, deterministic).
    free_slots: Vec<usize>,
    /// Current live tenant count (maintained so membership queries don't
    /// rescan the full arrival history).
    live_now: usize,
    /// Roster order of the admission controller ↔ live ordinals (kept in
    /// lock-step with the controller's `accepted` list).
    roster_ordinals: Vec<usize>,
    controller: Option<AdmissionController>,
    pending: VecDeque<ChurnEvent>,
    // --- outputs under construction ---
    finished: Vec<TenantRecord>,
    occupancy: Vec<(f64, usize)>,
    rejected: usize,
    degraded: usize,
    upgrades: usize,
    dropped_leaves: usize,
    peak_live_per_resource: usize,
    /// The retirement frontier of the last `retire_before` call (batches
    /// retirement so it doesn't scan resources every step).
    last_retire_ms: f64,
}

impl ChurnFleet {
    /// Builds the open fleet; membership starts empty and the initial
    /// roster joins as events at virtual time 0.
    ///
    /// # Panics
    ///
    /// Panics if the horizon is not positive-finite or a capacity is zero.
    #[must_use]
    pub fn new(config: ChurnConfig) -> Self {
        assert!(
            config.horizon_ms.is_finite() && config.horizon_ms > 0.0,
            "a churn run needs a positive horizon"
        );
        assert!(
            config.server_units > 0,
            "the server pool needs at least one unit"
        );
        assert!(
            config.link_streams > 0,
            "the link needs at least one stream"
        );
        let cell = Cell::new(
            config.system,
            config.seed,
            config.server_units,
            config.server_policy,
            (config.fairness, config.link_streams),
            &config.telemetry,
            false, // churn has its own summary shape; no aggregate stream
        );
        let controller = config.admission.map(|policy| {
            AdmissionController::with_capacity(
                config.system,
                config.fairness,
                policy,
                config.seed,
                config.server_units,
                config.link_streams,
            )
            .with_server_policy(config.server_policy)
        });
        let mut pending: VecDeque<ChurnEvent> = config
            .initial
            .into_iter()
            .map(|spec| ChurnEvent::join(0.0, spec))
            .collect();
        pending.extend(config.trace.events);
        ChurnFleet {
            cell,
            horizon_ms: config.horizon_ms,
            retire_window_ms: config.retire_window_ms,
            runnable: BinaryHeap::new(),
            live: Vec::new(),
            slots: Vec::new(),
            free_slots: Vec::new(),
            live_now: 0,
            roster_ordinals: Vec::new(),
            controller,
            pending,
            finished: Vec::new(),
            occupancy: Vec::new(),
            rejected: 0,
            degraded: 0,
            upgrades: 0,
            dropped_leaves: 0,
            peak_live_per_resource: 0,
            last_retire_ms: 0.0,
        }
    }

    /// Live session count.
    #[must_use]
    pub fn live_count(&self) -> usize {
        self.live_now
    }

    /// The globally-earliest unfinished session's virtual time, if any.
    #[must_use]
    pub fn frontier_ms(&self) -> Option<f64> {
        self.runnable.peek().map(|Reverse((At(t), _))| *t)
    }

    /// A handle to the engine (for retention inspection).
    #[must_use]
    pub fn shared_engine(&self) -> SharedEngine {
        self.cell.engine.clone()
    }

    /// Advances the run by one unit of work — either the next due
    /// membership event or one frame of the earliest session — and returns
    /// whether anything remains to do.
    pub fn tick(&mut self) -> bool {
        let frontier = self
            .runnable
            .peek()
            .map(|Reverse((At(t), slot))| (*slot, *t));
        let due = match (self.pending.front(), frontier) {
            // Events fire once the global frontier passes them (or
            // immediately while nobody is live to advance the frontier).
            (Some(e), None) => e.at_ms < self.horizon_ms,
            (Some(e), Some((_, tf))) => e.at_ms <= tf && e.at_ms < self.horizon_ms,
            (None, _) => false,
        };
        if due {
            let event = self.pending.pop_front().expect("checked above");
            self.apply(event);
            return true;
        }
        let Some((slot, at)) = frontier else {
            // Nobody live: events at/after the horizon can never fire —
            // discard them (they are not "dropped leaves": those are
            // leaves that *fired* and found no live tenant).
            return if self.pending.pop_front().is_some() {
                !self.pending.is_empty()
            } else {
                false
            };
        };
        if at >= self.horizon_ms {
            // Every live session has simulated up to the horizon.
            return false;
        }
        self.runnable.pop();
        let ordinal = self.slots[slot].expect("scheduled slots are occupied");
        let tenant = self.live[ordinal]
            .as_mut()
            .expect("occupied slots map to live tenants");
        let event = tenant.session.step();
        self.cell.sinks.emit(&event);
        let t = event.end_ms;
        if t < self.horizon_ms {
            self.runnable.push(Reverse((At(t), slot)));
        }
        if let Some(window) = self.retire_window_ms {
            if let Some(f) = self.frontier_ms() {
                // Retire in batches of a quarter-window: per-resource live
                // state only grows between retirements, so sampling the
                // peak just before each retire (plus once at finish) sees
                // every maximum — no per-step O(resources) scan needed.
                if f - window > self.last_retire_ms + 0.25 * window {
                    self.peak_live_per_resource = self
                        .peak_live_per_resource
                        .max(self.cell.engine.max_live_intervals());
                    self.last_retire_ms = f - window;
                    self.cell.engine.retire_before(self.last_retire_ms);
                }
            }
        }
        if self.cell.sinks.windowed.is_some() || self.cell.sinks.health.is_some() {
            // Close streamed stat buckets (and health windows) no future
            // sample can reach: a future frame ends after its session's
            // clock (≥ the heap frontier), and a future *joiner*'s first
            // frame ends after its join event's time — so the safe frontier
            // is the earlier of the heap's root and the next pending
            // membership event.
            let frontier = self.frontier_ms();
            let pending_at = self.pending.front().map(|e| e.at_ms);
            let safe = match (frontier, pending_at) {
                (Some(f), Some(p)) => Some(f.min(p)),
                (Some(f), None) => Some(f),
                (None, p) => p,
            };
            if let Some(t) = safe {
                self.cell.sinks.close_windows_before(t);
            }
        }
        true
    }

    /// Attaches a custom telemetry sink (receives every frame event from
    /// now on).
    pub fn attach_sink(&mut self, sink: Box<dyn TelemetrySink>) {
        self.cell.sinks.attach(sink);
    }

    /// Applies one membership event.
    fn apply(&mut self, event: ChurnEvent) {
        match event.kind {
            ChurnEventKind::Join(spec) => self.join(event.at_ms, *spec),
            ChurnEventKind::Leave(ordinal) => self.leave(event.at_ms, ordinal),
        }
    }

    /// The live fleet's mean operating eccentricity (the warm-start seed).
    /// Iterates occupied slots — O(peak concurrency), not total arrivals.
    fn warm_e1(&self) -> Option<f64> {
        let es: Vec<f64> = self
            .slots
            .iter()
            .flatten()
            .filter_map(|ordinal| self.live[*ordinal].as_ref())
            .filter_map(|t| t.session.last_e1_deg())
            .collect();
        (!es.is_empty()).then(|| es.iter().sum::<f64>() / es.len() as f64)
    }

    fn join(&mut self, at_ms: f64, spec: SessionSpec) {
        let ordinal = self.live.len();
        // Admission gate: the probe decides the class and the share.
        let (decision, spec) = match &mut self.controller {
            Some(c) => {
                let decision = c.offer(spec);
                if decision == AdmissionDecision::Rejected {
                    self.rejected += 1;
                    self.live.push(None);
                    return;
                }
                if decision == AdmissionDecision::Degraded {
                    self.degraded += 1;
                }
                self.roster_ordinals.push(ordinal);
                (decision, c.admitted().last().expect("just joined").clone())
            }
            None => (AdmissionDecision::Admitted, spec),
        };
        // Warm start: begin at the crowd's operating point instead of the
        // cold default (only meaningful for adaptive-controller schemes).
        let warm_e1 = self.warm_e1();
        // Recycle a departed tenant's engine slot when one is free
        // (the rig baselines the reused resources' busy time, and the join
        // gate pins their frontiers to the join instant).
        let slot = match self.free_slots.pop() {
            Some(s) => {
                self.slots[s] = Some(ordinal);
                s
            }
            None => {
                self.slots.push(Some(ordinal));
                self.slots.len() - 1
            }
        };
        let mut session = self.cell.open(&spec, ordinal, slot, warm_e1);
        session.gate_at(at_ms);
        self.live.push(Some(Box::new(Tenant {
            session,
            slot,
            joined_ms: at_ms,
            decision,
            upgraded: false,
        })));
        self.live_now += 1;
        self.runnable.push(Reverse((At(at_ms), slot)));
        self.occupancy.push((at_ms, self.live_count()));
    }

    fn leave(&mut self, at_ms: f64, ordinal: usize) {
        let Some(tenant) = self
            .live
            .get_mut(ordinal)
            .and_then(std::option::Option::take)
        else {
            self.dropped_leaves += 1;
            return;
        };
        self.live_now -= 1;
        self.runnable.retain(|Reverse((_, s))| *s != tenant.slot);
        self.slots[tenant.slot] = None;
        self.free_slots.push(tenant.slot);
        self.cell.close(&tenant.session);
        // The leaver may have simulated slightly past the event time
        // before the global frontier caught up and fired the leave; its
        // residency closes at its actual last display so resident_fps and
        // the streamed timeline stay consistent with the recorded frames.
        let left_ms = at_ms.max(tenant.session.last_display_end());
        self.finished.push(TenantRecord {
            ordinal,
            joined_ms: tenant.joined_ms,
            left_ms,
            decision: tenant.decision,
            upgraded: tenant.upgraded,
            summary: tenant.session.finish(),
        });
        self.occupancy.push((at_ms, self.live_count()));
        // Reclaim: release through the admission controller and apply any
        // best-effort upgrades it wins back to the live sessions.
        if let Some(controller) = &mut self.controller {
            let roster_idx = self
                .roster_ordinals
                .iter()
                .position(|o| *o == ordinal)
                .expect("admitted tenants are on the roster");
            self.roster_ordinals.remove(roster_idx);
            for i in controller.release(roster_idx) {
                let o = self.roster_ordinals[i];
                let share = controller.admitted()[i].share;
                if let Some(t) = &mut self.live[o] {
                    t.session.set_link_share(share);
                    t.upgraded = true;
                    self.upgrades += 1;
                }
            }
        }
    }

    /// Runs the remaining work and finalises.
    #[must_use]
    pub fn finish(mut self) -> ChurnSummary {
        while self.tick() {}
        let cell = &mut self.cell;
        let total_tasks = cell.engine.task_count();
        let retired_tasks = cell.engine.retired_tasks();
        let peak = self
            .peak_live_per_resource
            .max(cell.engine.max_live_intervals());
        let mut tenants = self.finished;
        // Survivors retire at the horizon (or their final display, if the
        // last frame overshot it), in arrival-ordinal order.
        for (ordinal, entry) in self.live.into_iter().enumerate() {
            if let Some(tenant) = entry {
                cell.close(&tenant.session);
                tenants.push(TenantRecord {
                    ordinal,
                    joined_ms: tenant.joined_ms,
                    left_ms: self.horizon_ms.max(tenant.session.last_display_end()),
                    decision: tenant.decision,
                    upgraded: tenant.upgraded,
                    summary: tenant.session.finish(),
                });
            }
        }
        let energy = cell.sinks.energy_finalize(
            cell.engine.makespan(),
            client_energy_mj(tenants.iter().map(|t| &t.summary.energy)),
        );
        let (windows, peak_open_samples) = cell.sinks.windowed_finish();
        let incidents = cell.sinks.health_finish();
        ChurnSummary {
            tenants,
            windows,
            peak_open_samples,
            incidents,
            energy,
            occupancy: self.occupancy,
            rejected: self.rejected,
            degraded: self.degraded,
            upgrades: self.upgrades,
            dropped_leaves: self.dropped_leaves,
            horizon_ms: self.horizon_ms,
            peak_live_per_resource: peak,
            retired_tasks,
            total_tasks,
        }
    }

    /// Builds, runs, and finalises one churn fleet.
    #[must_use]
    pub fn run(config: ChurnConfig) -> ChurnSummary {
        ChurnFleet::new(config).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::foveation::PartitionMemo;
    use crate::schemes::SchemeKind;
    use qvr_scene::Benchmark;

    fn spec() -> SessionSpec {
        SessionSpec::new(SchemeKind::Qvr, Benchmark::Hl2H.profile())
    }

    #[test]
    fn scripted_join_and_leave_shape_the_roster() {
        let trace = ChurnTrace::script(vec![
            ChurnEvent::join(120.0, spec()),
            ChurnEvent::leave(260.0, 0),
        ]);
        let s = ChurnFleet::run(ChurnConfig::new(
            SystemConfig::default(),
            vec![spec(), spec()],
            trace,
            500.0,
            7,
        ));
        assert_eq!(s.len(), 3, "two initial + one joiner");
        assert_eq!(s.peak_live(), 3);
        assert_eq!(s.live_at(0.0), 2);
        assert_eq!(s.live_at(200.0), 3);
        assert_eq!(s.live_at(400.0), 2);
        // The departed tenant is ordinal 0; it left at 260 ms plus at most
        // the slight overshoot of its final frame past the event time.
        let departed = &s.tenants[0];
        assert_eq!(departed.ordinal, 0);
        assert!(departed.left_ms >= 260.0);
        assert!(departed.left_ms < 320.0, "left at {:.1}", departed.left_ms);
        assert!(!departed.summary.is_empty());
        assert!(departed.resident_fps() > 0.0);
        // Survivors ran to (at least) the horizon.
        for t in &s.tenants[1..] {
            assert!(t.left_ms >= 500.0);
        }
        assert!(s.to_string().contains("3 tenants"));
    }

    #[test]
    fn joiners_start_at_their_join_time() {
        let trace = ChurnTrace::script(vec![ChurnEvent::join(300.0, spec())]);
        let s = ChurnFleet::run(ChurnConfig::new(
            SystemConfig::default(),
            vec![spec()],
            trace,
            600.0,
            9,
        ));
        let joiner = s.tenants.iter().find(|t| t.ordinal == 1).expect("joined");
        assert!((joiner.joined_ms - 300.0).abs() < 1e-9);
        // Every sample this tenant produced lies after its join: its first
        // display cannot precede the join gate.
        let first_frame_ms = joiner.summary.makespan_ms;
        assert!(
            first_frame_ms >= 300.0,
            "joiner's clock must start at its join time, got {first_frame_ms:.1}"
        );
    }

    #[test]
    fn churn_runs_are_deterministic() {
        let make = || {
            let trace = ChurnTrace::poisson(5, 4.0, 400.0, 1_000.0, 2, |_| spec());
            ChurnConfig::new(
                SystemConfig::default(),
                vec![spec(), spec()],
                trace,
                1_000.0,
                11,
            )
        };
        let a = ChurnFleet::run(make());
        let b = ChurnFleet::run(make());
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn poisson_traces_are_deterministic_and_ordered() {
        let t1 = ChurnTrace::poisson(3, 10.0, 300.0, 2_000.0, 0, |_| spec());
        let t2 = ChurnTrace::poisson(3, 10.0, 300.0, 2_000.0, 0, |_| spec());
        assert_eq!(t1.len(), t2.len());
        assert!(!t1.is_empty());
        for (a, b) in t1.events().iter().zip(t2.events()) {
            assert_eq!(a.at_ms, b.at_ms);
        }
        for w in t1.events().windows(2) {
            assert!(w[0].at_ms <= w[1].at_ms, "events must be time-sorted");
        }
        let different = ChurnTrace::poisson(4, 10.0, 300.0, 2_000.0, 0, |_| spec());
        assert!(
            t1.events()
                .iter()
                .zip(different.events())
                .any(|(a, b)| a.at_ms != b.at_ms),
            "different seeds must give different traces"
        );
    }

    #[test]
    fn departed_slots_are_recycled_by_later_joiners() {
        // Open-system boundedness: churning K tenants through 2 concurrent
        // seats must not grow the engine's resource table (or the link's
        // member table) beyond peak concurrency — joiners recycle departed
        // tenants' slots.
        let mut events = Vec::new();
        for k in 0..6 {
            let t = 150.0 + 100.0 * f64::from(k);
            events.push(ChurnEvent::leave(t, k as usize));
            events.push(ChurnEvent::join(t + 5.0, spec()));
        }
        let fleet = ChurnFleet::new(ChurnConfig::new(
            SystemConfig::default(),
            vec![spec(), spec()],
            ChurnTrace::script(events),
            900.0,
            31,
        ));
        let engine = fleet.shared_engine();
        let summary = fleet.finish();
        assert_eq!(summary.len(), 8, "2 initial + 6 churned joiners");
        assert_eq!(summary.peak_live(), 2, "never more than 2 concurrent");
        // 7 per-session resources × 2 slots, plus the shared server pools
        // (8 RGPU + 8 SENC with default units) — NOT 7 × 8 sessions.
        let per_session = 7 * 2;
        let shared = engine.resource_count() - per_session;
        assert!(
            shared <= 16,
            "resource table must stay O(peak): {} total, {} non-session",
            engine.resource_count(),
            shared
        );
        // Departed tenants' energy stays per-tenant despite slot reuse:
        // every tenant ran ~the same residency, so no summary's radio
        // energy may dwarf another's (it would if busy times accumulated
        // across slot generations).
        let radios: Vec<f64> = summary
            .tenants
            .iter()
            .map(|t| t.summary.busy.radio_ms)
            .collect();
        let max = radios.iter().copied().fold(0.0f64, f64::max);
        let min = radios.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(
            max < 6.0 * min.max(1e-9),
            "slot reuse must not leak busy time across tenants: {radios:?}"
        );
    }

    #[test]
    fn churn_energy_covers_servers_ap_and_clients() {
        let s = ChurnFleet::run(ChurnConfig::new(
            SystemConfig::default(),
            vec![spec(), spec()],
            ChurnTrace::default(),
            500.0,
            3,
        ));
        assert!(s.energy.server_render_mj > 0.0);
        assert!(s.energy.ap_radio_mj > 0.0);
        let client: f64 = s.tenants.iter().map(|t| t.summary.energy.total_mj()).sum();
        assert_eq!(s.energy.client_mj, client);
        assert!(s.energy.total_mj() > s.energy.client_mj);
    }

    #[test]
    fn leave_on_a_rejected_or_gone_ordinal_is_counted_not_fatal() {
        let trace = ChurnTrace::script(vec![
            ChurnEvent::leave(50.0, 0),
            ChurnEvent::leave(100.0, 0),
            ChurnEvent::leave(150.0, 7),
        ]);
        let s = ChurnFleet::run(ChurnConfig::new(
            SystemConfig::default(),
            vec![spec()],
            trace,
            400.0,
            13,
        ));
        assert_eq!(s.dropped_leaves, 2, "double-leave and unknown ordinal");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn local_only_joiners_leave_the_streamers_frames_untouched() {
        // A LocalOnly joiner never moves frame data over the link, so it
        // opens on a private channel: on a one-stream link, where a second
        // member would halve the streamer's share, the streaming tenant's
        // frames must be bit-identical with and without it.
        let streamer_frames = |with_joiner: bool| {
            let local = SessionSpec::new(SchemeKind::LocalOnly, Benchmark::Doom3L.profile());
            let events = if with_joiner {
                vec![ChurnEvent::join(150.0, local)]
            } else {
                Vec::new()
            };
            let mut config = ChurnConfig::new(
                SystemConfig::default(),
                vec![spec()],
                ChurnTrace::script(events),
                500.0,
                5,
            );
            config.link_streams = 1;
            let s = ChurnFleet::run(config);
            assert_eq!(s.len(), if with_joiner { 2 } else { 1 });
            s.tenants
                .into_iter()
                .find(|t| t.ordinal == 0)
                .expect("the streamer survives")
                .summary
                .frames
        };
        assert_eq!(
            streamer_frames(false),
            streamer_frames(true),
            "a LocalOnly joiner must not touch the shared link"
        );
    }

    #[test]
    fn warm_started_joiners_keep_the_partition_memo_bounded() {
        // A warm-started Q-VR joiner starts LIWC at the live tenants' mean
        // e1, off the integer grid, and LIWC then moves it in whole
        // degrees, so each joiner adds Eq. (1) keys no other tenant
        // shares. Enough of them overflow the cell's memo, which must
        // stay within its cap at every step of the run.
        let apps = [
            Benchmark::Grid,
            Benchmark::Doom3L,
            Benchmark::Hl2H,
            Benchmark::Hl2L,
        ];
        let spec_of = |i: usize| SessionSpec::new(SchemeKind::Qvr, apps[i % apps.len()].profile());
        let joiners = 64;
        let events = (0..joiners)
            .flat_map(|i| {
                let at = 60.0 + 40.0 * i as f64;
                // The initial pair holds ordinals 0 and 1.
                [
                    ChurnEvent::join(at, spec_of(i)),
                    ChurnEvent::leave(at + 130.0, i + 2),
                ]
            })
            .collect();
        let mut fleet = ChurnFleet::new(ChurnConfig::new(
            SystemConfig::default(),
            vec![spec_of(0), spec_of(1)],
            ChurnTrace::script(events),
            60.0 + 40.0 * joiners as f64 + 200.0,
            11,
        ));
        let (mut peak, mut clears, mut last) = (0, 0, 0);
        while fleet.tick() {
            let held = fleet.cell.memo.partitions.len();
            assert!(held <= PartitionMemo::CAP, "{held} partitions held");
            peak = peak.max(held);
            clears += usize::from(held < last);
            last = held;
        }
        assert!(
            clears > 0,
            "the memo never overflowed (peak {peak}, last {last})"
        );
    }

    #[test]
    fn warm_started_joiners_skip_the_cold_start() {
        // A joiner into a converged fleet: warm-started LIWC must begin
        // near the crowd's operating eccentricity, so its first frames are
        // far less imbalanced than a cold joiner's. A joiner into an empty
        // fleet has no live eccentricity to warm from, so it cold-starts.
        let run = |initial: Vec<SessionSpec>| {
            let trace = ChurnTrace::script(vec![ChurnEvent::join(700.0, spec())]);
            ChurnFleet::run(ChurnConfig::new(
                SystemConfig::default(),
                initial,
                trace,
                1_200.0,
                17,
            ))
        };
        let warm = run(vec![spec(), spec()]);
        let cold = run(Vec::new());
        let first_e1 = |s: &ChurnSummary, ordinal: usize| {
            s.tenants
                .iter()
                .find(|t| t.ordinal == ordinal)
                .and_then(|t| t.summary.frames.first().and_then(|f| f.e1_deg))
                .expect("joiner's first frame has an eccentricity")
        };
        let (we1, ce1) = (first_e1(&warm, 2), first_e1(&cold, 0));
        // (The very first select already refines off the start point, so
        // compare the two starts rather than pinning the cold value.)
        assert!(
            we1 > ce1 + 2.0,
            "warm joiner must start near the converged fovea: {we1:.1}° vs cold {ce1:.1}°"
        );
    }
}
