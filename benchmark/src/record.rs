//! Recording a workload's inputs during a traced run.
//!
//! The traced run steps a fleet through the same public calls the
//! untraced run makes and, around each call, captures what the layers were
//! given: the frame events (through a sink attached with `attach_sink`),
//! the tasks the call submitted to the engine and how many the engine had
//! retired afterwards, and the membership changes a churn tick applied.
//! After the run it keeps each session's `FrameRecord` sequence. The
//! replay ([`crate::replay`]) feeds exactly these inputs back through each
//! layer's public functions.

use qvr::core::churn::ChurnEventKind;
use qvr::prelude::*;
use qvr::sim::{ResourceId, SharedEngine};
use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::Range;
use std::rc::Rc;
use std::time::Instant;

/// One engine task the real run submitted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskRec {
    /// Index into [`Recording::labels`].
    pub label: u32,
    /// Index into [`Recording::resources`]; `None` for pure delays.
    pub resource: Option<u32>,
    /// Scheduled start, ms.
    pub start: f64,
    /// Scheduled end, ms.
    pub end: f64,
}

/// What one recorded step did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// Stepped frames (its events are in [`StepRec::events`]).
    Frames,
    /// A session joined: arrival ordinal and the slot it took.
    Join {
        /// Arrival ordinal (index into [`Recording::sessions`]).
        ordinal: usize,
        /// Fleet slot (the `session` field of its frame events).
        slot: usize,
    },
    /// A session left.
    Leave {
        /// Arrival ordinal of the leaver.
        ordinal: usize,
    },
    /// The call changed nothing the replay models.
    Idle,
}

/// One public stepping call (or, for a closed fleet's roster, one
/// construction-time join).
#[derive(Debug, Clone, PartialEq)]
pub struct StepRec {
    /// What the step did.
    pub kind: StepKind,
    /// Its frame events, as a range of [`Recording::events`].
    pub events: Range<usize>,
    /// Its engine submissions, as a range of [`Recording::tasks`].
    pub tasks: Range<usize>,
    /// Tasks the engine had retired after the step.
    pub retired_after: usize,
    /// The frontier the fleet closed telemetry windows at, if it did.
    pub close_at: Option<f64>,
    /// The threshold the fleet retired engine history before, if it
    /// called retirement in this step.
    pub retire_at: Option<f64>,
    /// Host time of the public call, ns from the recording's origin
    /// (`None` for construction-time joins, which are not stepping calls).
    pub host: Option<(u64, u64)>,
}

/// A session the replay rebuilds.
#[derive(Debug, Clone)]
pub struct SessionRec {
    /// Scheme, app and link share.
    pub spec: SessionSpec,
    /// The session's stream seed.
    pub seed: u64,
    /// The frames it recorded, in order.
    pub frames: Vec<FrameRecord>,
}

/// Everything one fleet (or one shard cell, or one churn fleet) was given.
#[derive(Debug, Clone)]
pub struct Recording {
    /// The system every session ran on.
    pub system: SystemConfig,
    /// Fleet seed (the shared link's stream).
    pub seed: u64,
    /// Server units in the pool.
    pub server_units: usize,
    /// Link fairness policy.
    pub fairness: FairnessPolicy,
    /// Concurrent link streams.
    pub link_streams: usize,
    /// Telemetry configuration of the run.
    pub telemetry: TelemetryConfig,
    /// Whether the fleet ran the aggregate sink (closed fleets do).
    pub aggregate: bool,
    /// Sessions by arrival ordinal.
    pub sessions: Vec<SessionRec>,
    /// Every frame event, in stream order.
    pub events: Vec<FrameEvent>,
    /// Every submitted task, in submission order.
    pub tasks: Vec<TaskRec>,
    /// Interned task labels.
    pub labels: Vec<String>,
    /// Interned resource names.
    pub resources: Vec<String>,
    /// The steps, in order.
    pub steps: Vec<StepRec>,
    /// Tasks the real engine held in total at the end.
    pub tasks_total: usize,
    /// Tasks the real engine had retired at the end.
    pub retired_total: usize,
    /// Facts the shard merge needs about the finished cell.
    pub cell: CellFacts,
    /// What timing a call costs by itself (two back-to-back clock reads),
    /// ns; taken off every recorded call's duration.
    pub timer_ns: u64,
}

/// Scalar facts about a finished closed fleet.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CellFacts {
    /// Schedule makespan, ms.
    pub makespan_ms: f64,
    /// GPU-pool utilisation over the makespan.
    pub server_utilization: f64,
    /// Peak live engine intervals.
    pub peak_live_tasks: usize,
    /// Summed headset energy, mJ.
    pub client_mj: f64,
}

impl Recording {
    /// An empty recording of a fleet built with these settings.
    #[must_use]
    pub fn new(
        system: SystemConfig,
        seed: u64,
        (server_units, link_streams): (usize, usize),
        fairness: FairnessPolicy,
        telemetry: TelemetryConfig,
        aggregate: bool,
    ) -> Self {
        Recording {
            system,
            seed,
            server_units,
            fairness,
            link_streams,
            telemetry,
            aggregate,
            sessions: Vec::new(),
            events: Vec::new(),
            tasks: Vec::new(),
            labels: Vec::new(),
            resources: Vec::new(),
            steps: Vec::new(),
            tasks_total: 0,
            retired_total: 0,
            cell: CellFacts::default(),
            timer_ns: 0,
        }
    }

    /// Host time of the recorded stepping calls, ns.
    #[must_use]
    pub fn stepping_ns(&self) -> u64 {
        self.step_durations_ns().iter().sum()
    }

    /// Durations of the recorded stepping calls, ns.
    #[must_use]
    pub fn step_durations_ns(&self) -> Vec<u64> {
        self.steps
            .iter()
            .filter_map(|s| s.host)
            .map(|(a, b)| (b - a).saturating_sub(self.timer_ns))
            .collect()
    }
}

/// The sink the traced run attaches: it copies every event it is handed.
#[derive(Debug, Clone, Default)]
struct EventTap(Rc<RefCell<Vec<FrameEvent>>>);

impl TelemetrySink for EventTap {
    fn on_frame(&mut self, event: &FrameEvent) {
        self.0.borrow_mut().push(*event);
    }

    fn on_batch(&mut self, events: &[FrameEvent]) {
        self.0.borrow_mut().extend_from_slice(events);
    }
}

/// Captures steps into a [`Recording`].
struct Recorder {
    rec: Recording,
    tap: EventTap,
    engine: SharedEngine,
    /// Task labels by the address of the engine's interned text.
    label_ids: HashMap<usize, u32>,
    resource_ids: HashMap<ResourceId, u32>,
    seen_tasks: usize,
    origin: Instant,
}

impl Recorder {
    fn new(mut rec: Recording, engine: SharedEngine, origin: Instant) -> Self {
        let now = || u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut pairs: Vec<u64> = (0..1024)
            .map(|_| {
                let a = now();
                now() - a
            })
            .collect();
        pairs.sort_unstable();
        rec.timer_ns = pairs[pairs.len() / 2];
        Recorder {
            rec,
            tap: EventTap::default(),
            engine,
            label_ids: HashMap::new(),
            resource_ids: HashMap::new(),
            seen_tasks: 0,
            origin,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Appends a step: drains the tapped events and the engine's new tasks.
    /// Returns how many frame events the step produced.
    fn push_step(
        &mut self,
        kind: StepKind,
        (close_at, retire_at): (Option<f64>, Option<f64>),
        host: Option<(u64, u64)>,
    ) -> usize {
        let ev0 = self.rec.events.len();
        self.rec.events.append(&mut self.tap.0.borrow_mut());
        let n_events = self.rec.events.len() - ev0;
        let t0 = self.rec.tasks.len();
        let total = self.engine.task_count();
        let fresh = total - self.seen_tasks;
        self.seen_tasks = total;
        let Recorder {
            rec,
            engine,
            label_ids,
            resource_ids,
            ..
        } = self;
        engine.with(|e| {
            let live = e.tasks();
            assert!(fresh <= live.len(), "a step's own tasks retired within it");
            for t in &live[live.len() - fresh..] {
                let label = *label_ids
                    .entry(Rc::as_ptr(&t.label).cast::<u8>() as usize)
                    .or_insert_with(|| {
                        rec.labels.push(t.label.to_string());
                        u32::try_from(rec.labels.len() - 1).expect("label count")
                    });
                let resource = t.resource.map(|r| {
                    *resource_ids.entry(r).or_insert_with(|| {
                        rec.resources.push(e.resource_name(r).to_owned());
                        u32::try_from(rec.resources.len() - 1).expect("resource count")
                    })
                });
                rec.tasks.push(TaskRec {
                    label,
                    resource,
                    start: t.start,
                    end: t.end,
                });
            }
        });
        let kind = if kind == StepKind::Frames && n_events == 0 {
            StepKind::Idle
        } else {
            kind
        };
        self.rec.steps.push(StepRec {
            kind,
            events: ev0..self.rec.events.len(),
            tasks: t0..self.rec.tasks.len(),
            retired_after: self.engine.retired_tasks(),
            close_at,
            retire_at,
            host,
        });
        n_events
    }

    fn finish(mut self) -> Recording {
        self.rec.tasks_total = self.engine.task_count();
        self.rec.retired_total = self.engine.retired_tasks();
        self.rec
    }
}

/// Derives session `idx`'s stream seed from a fleet seed — the library's
/// derivation, which the replay must match (its fidelity checks fail if
/// the two ever drift apart).
#[must_use]
pub fn session_seed(seed: u64, idx: usize) -> u64 {
    seed ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn base_recording(config: &FleetConfig) -> Recording {
    let mut rec = Recording::new(
        config.system,
        config.seed,
        (config.server_units, config.link_streams.max(1)),
        config.fairness,
        config.telemetry,
        true,
    );
    rec.sessions = config
        .sessions
        .iter()
        .enumerate()
        .map(|(i, spec)| SessionRec {
            spec: spec.clone(),
            seed: session_seed(config.seed, i),
            frames: Vec::new(),
        })
        .collect();
    rec
}

/// Runs a closed round-robin fleet through `Fleet::new`/`step_round`/
/// `finish`, recording every step. Returns the recording and the summary.
///
/// # Panics
///
/// Panics if the config is not round-robin or not multi-tenant.
#[must_use]
pub fn record_fleet(config: FleetConfig, origin: Instant) -> (Recording, FleetSummary) {
    assert_eq!(config.stepping, SteppingPolicy::RoundRobin);
    assert!(!config.is_dedicated(), "benchmark fleets are multi-tenant");
    let frames = config.frames;
    let window = config.retire_window_ms;
    let rec = base_recording(&config);
    let joins: Vec<StepKind> = (0..rec.sessions.len())
        .map(|i| StepKind::Join {
            ordinal: i,
            slot: i,
        })
        .collect();
    let mut fleet = Fleet::new(config);
    let mut recorder = Recorder::new(rec, fleet.shared_engine(), origin);
    fleet.attach_sink(Box::new(recorder.tap.clone()));
    // The roster joins at construction; its gate tasks (none for a closed
    // fleet) and link memberships precede every round.
    for kind in joins {
        recorder.push_step(kind, (None, None), None);
    }
    for _ in 0..frames {
        let a = recorder.now_ns();
        fleet.step_round();
        let b = recorder.now_ns();
        let close_at = fleet
            .sessions()
            .iter()
            .filter(|s| s.frames_stepped() < frames)
            .map(Session::last_display_end)
            .fold(None, |m: Option<f64>, t| Some(m.map_or(t, |m| m.min(t))));
        // Retirement follows the same frontier, once it clears the window.
        let retire_at = window.and_then(|w| close_at.filter(|f| *f > w).map(|f| f - w));
        recorder.push_step(StepKind::Frames, (close_at, retire_at), Some((a, b)));
    }
    let summary = fleet.finish();
    let mut rec = recorder.finish();
    for (s, run) in rec.sessions.iter_mut().zip(&summary.sessions) {
        s.frames.clone_from(&run.frames);
    }
    rec.cell = CellFacts {
        makespan_ms: summary.makespan_ms,
        server_utilization: summary.server_utilization,
        peak_live_tasks: summary.peak_live_tasks,
        client_mj: qvr::core::telemetry::client_energy_mj(
            summary.sessions.iter().map(|s| &s.energy),
        ),
    };
    (rec, summary)
}

/// Runs a churn fleet through `ChurnFleet::new`/`tick`/`finish`,
/// recording every tick. The membership each non-frame tick applied is
/// reconstructed from the trace: ticks consume the pending queue (initial
/// roster, then the trace in time order) strictly in order, and an event
/// at or past the horizon is discarded rather than applied.
#[must_use]
pub fn record_churn(config: ChurnConfig, origin: Instant) -> (Recording, ChurnSummary) {
    let horizon = config.horizon_ms;
    let seed = config.seed;
    let window = config.retire_window_ms;
    let mut last_retire = 0.0;
    let mut pending: std::collections::VecDeque<(f64, ChurnEventKind)> = config
        .initial
        .iter()
        .map(|s| (0.0, ChurnEventKind::Join(Box::new(s.clone()))))
        .chain(
            config
                .trace
                .events()
                .iter()
                .map(|e| (e.at_ms, e.kind.clone())),
        )
        .collect();
    let rec = Recording::new(
        config.system,
        seed,
        (config.server_units, config.link_streams),
        config.fairness,
        config.telemetry,
        false,
    );
    let mut fleet = ChurnFleet::new(config);
    let mut live: Vec<bool> = Vec::new();
    let mut slot_of: Vec<usize> = Vec::new();
    let mut free_slots: Vec<usize> = Vec::new();
    let mut slots = 0usize;
    let mut recorder = Recorder::new(rec, fleet.shared_engine(), origin);
    fleet.attach_sink(Box::new(recorder.tap.clone()));
    loop {
        let a = recorder.now_ns();
        let more = fleet.tick();
        let b = recorder.now_ns();
        let stepped = !recorder.tap.0.borrow().is_empty();
        let mut kind = StepKind::Frames;
        if !stepped {
            kind = StepKind::Idle;
            if let Some((at, event)) = pending.pop_front() {
                if at < horizon {
                    match event {
                        ChurnEventKind::Join(spec) => {
                            let ordinal = live.len();
                            let slot = free_slots.pop().unwrap_or_else(|| {
                                slots += 1;
                                slots - 1
                            });
                            live.push(true);
                            slot_of.push(slot);
                            recorder.rec.sessions.push(SessionRec {
                                spec: *spec,
                                seed: session_seed(seed, ordinal),
                                frames: Vec::new(),
                            });
                            kind = StepKind::Join { ordinal, slot };
                        }
                        ChurnEventKind::Leave(ordinal) => {
                            if live.get(ordinal).copied().unwrap_or(false) {
                                live[ordinal] = false;
                                free_slots.push(slot_of[ordinal]);
                                kind = StepKind::Leave { ordinal };
                            }
                        }
                    }
                }
            }
        }
        // Windows close at the earlier of the clock head and the next
        // pending membership event (after frame ticks only).
        let close_at = if stepped {
            let head = fleet.frontier_ms();
            let next = pending.front().map(|(at, _)| *at);
            match (head, next) {
                (Some(f), Some(p)) => Some(f.min(p)),
                (Some(f), None) => Some(f),
                (None, p) => p,
            }
        } else {
            None
        };
        // Retirement runs in quarter-window batches off the clock head.
        let mut retire_at = None;
        if let (true, Some(w), Some(f)) = (stepped, window, fleet.frontier_ms()) {
            if f - w > last_retire + 0.25 * w {
                last_retire = f - w;
                retire_at = Some(last_retire);
            }
        }
        recorder.push_step(kind, (close_at, retire_at), Some((a, b)));
        if !more {
            break;
        }
    }
    let summary = fleet.finish();
    let mut rec = recorder.finish();
    for t in &summary.tenants {
        rec.sessions[t.ordinal].frames.clone_from(&t.summary.frames);
    }
    (rec, summary)
}

/// The shard's cells as `Shard::run` builds them: occupancy routing (the
/// least-loaded open cell, lowest id on ties — the router's rule without
/// an admission policy), `cell_seed` per cell, deferred windows.
///
/// # Panics
///
/// Panics if the config carries an admission policy (the benchmark's shard
/// routes on occupancy).
#[must_use]
pub fn shard_cells(config: &ShardConfig) -> Vec<(usize, FleetConfig)> {
    assert!(config.admission.is_none(), "occupancy routing only");
    let mut placements: Vec<Vec<SessionSpec>> = vec![Vec::new(); config.cells];
    for spec in &config.roster {
        let mut best: Option<usize> = None;
        for (c, placed) in placements.iter().enumerate() {
            if placed.len() < config.cell_capacity
                && best.is_none_or(|b| placed.len() < placements[b].len())
            {
                best = Some(c);
            }
        }
        if let Some(c) = best {
            placements[c].push(spec.clone());
        }
    }
    placements
        .into_iter()
        .enumerate()
        .filter(|(_, specs)| !specs.is_empty())
        .map(|(cell, specs)| {
            let mut fleet = config.template.clone();
            fleet.sessions = specs;
            fleet.seed = cell_seed(config.template.seed, cell);
            if fleet.telemetry.window_ms.is_some() {
                fleet.telemetry = fleet.telemetry.with_deferred_windows();
            }
            (cell, fleet)
        })
        .collect()
}

/// Runs the shard's cells as independent recorded fleets on at most
/// `workers` threads (the same worker pool `Shard::run` uses). Returns
/// `(cell id, recording)` in cell order.
#[must_use]
pub fn record_shard(config: &ShardConfig, workers: usize) -> Vec<(usize, Recording)> {
    let cells = shard_cells(config);
    let origin = Instant::now();
    qvr::sim::parallel_map_with(workers, &cells, |(cell, fleet)| {
        (*cell, record_fleet(fleet.clone(), origin).0)
    })
}
