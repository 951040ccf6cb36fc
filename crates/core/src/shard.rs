//! Sharded fleet cells: the ≥100k-session regime.
//!
//! A single [`crate::fleet::Fleet`] is one arbitration domain — every
//! session contends for one engine, one server pool, one link, stepped on
//! one thread. The surveys in PAPERS.md are blunt that deployed
//! collaborative VR is *many rooms*, not one: a metro-scale service runs
//! thousands of independent server+AP cells. This module models exactly
//! that topology. A [`Shard`] routes a roster of [`SessionSpec`]s across
//! `cells` independent cells (each a full [`Fleet`] with its own
//! [`qvr_sim::SharedEngine`] pools and link), runs the cells on a bounded
//! worker pool ([`qvr_sim::parallel_map_with`]), and merges the results
//! into one [`ShardSummary`] with fleet-identical aggregates.
//!
//! # The telemetry seam is the only wire
//!
//! Cells communicate *nothing* while running and ship only the PR 5
//! telemetry seam's sink states at the end ([`CellSummary`]): the
//! [`AggregateSink`] (merged by slot tiling), the finalised
//! [`qvr_energy::FleetEnergy`] (summed component-wise), the *deferred*
//! [`WindowedStatsSink`] (merged bucket-index-wise), and a load-EWMA
//! snapshot (shipped, not merged). Never per-session frame histories —
//! those die inside the cell, so shard-level live state is O(cells ×
//! window) engine tasks plus O(total frames) scalar samples, not
//! O(sessions × frames) frame records.
//!
//! # Merge laws (DESIGN.md §12)
//!
//! Each sink's `absorb` is proven (property tests in
//! [`crate::telemetry`]) bit-identical to one sink consuming the cells'
//! concatenated event streams, and [`ShardSummary::merge`] folds cells in
//! ascending cell-id order, so the summary is independent of both the
//! worker count and the order cells finish. On one cell the whole pipeline
//! degenerates to a single fleet: `tests/shard.rs` pins the 1-cell
//! [`ShardSummary`] bit-identical to [`Fleet::run`] on the same roster.
//!
//! # Cross-cell admission (spill)
//!
//! Routing is load-aware and deterministic. Without admission, a join
//! lands on the least-loaded open cell (occupancy, then cell id). Cells
//! start empty and share one capacity, so that rule is round robin: after
//! `k` joins cell `c` holds `⌊k/cells⌋ + [c < k mod cells]`, the lowest id
//! holding the minimum is `k mod cells`, and it is open while
//! `k < cells × cell_capacity`. Join `k` therefore goes to cell
//! `k mod cells` until every cell is full, and the router computes that
//! instead of scanning cells. With a
//! per-cell [`crate::admission::AdmissionController`], cells are tried in
//! ascending (occupancy, last-probe utilisation, cell id) order for *full*
//! admission first ([`crate::admission::AdmissionController::offer_protected`]);
//! a join every cell declines falls back to one degraded offer at the
//! least-loaded cell. A placement anywhere but the first-choice cell
//! counts as *spilled*. Every cell builds its own
//! [`crate::telemetry::LoadTracker`] and routing reads none of them, so a
//! spilled joiner can never inherit another cell's measured load.
//!
//! Routing copies no spec. Under occupancy routing a cell's sessions are
//! a stride of the roster; under admission they are its controller's own
//! roster. Each worker builds its own cell's [`FleetConfig`] from them, so
//! a run holds one copy of the roster plus whatever the live cells hold.

use crate::admission::{AdmissionController, AdmissionDecision, AdmissionPolicy};
use crate::fleet::{Fleet, FleetConfig, FleetSummary, SessionSpec};
use crate::obs::{Incident, MetricsSink};
use crate::telemetry::{AggregateSink, WindowedStatsSink};
use qvr_energy::FleetEnergy;
use std::fmt;

/// Derives cell `c`'s fleet seed from the shard seed — identity for cell 0
/// (so a 1-cell shard reproduces the single-fleet streams bit-for-bit), a
/// distinct multiplier from [`crate::fleet`]'s per-session derivation so
/// cell and session streams decorrelate.
#[must_use]
pub fn cell_seed(seed: u64, cell: usize) -> u64 {
    seed ^ (cell as u64).wrapping_mul(0xA24B_AED4_963E_E407)
}

/// Full description of one sharded run.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// The per-cell fleet template: system, frames, per-cell server units,
    /// link provisioning, fairness, server policy, stepping, retirement
    /// window, telemetry. `template.sessions` is ignored (the shard routes
    /// [`ShardConfig::roster`]); `template.seed` is the shard seed each
    /// cell's seed derives from ([`cell_seed`]); windowed telemetry is
    /// forced into deferred mode per cell (the mergeable form).
    pub template: FleetConfig,
    /// Number of independent cells.
    pub cells: usize,
    /// Session slots per cell (occupancy-routing capacity).
    pub cell_capacity: usize,
    /// The joins to route, in arrival order.
    pub roster: Vec<SessionSpec>,
    /// Worker threads the cells fan out on; `None` uses
    /// `available_parallelism`. The merged summary is bit-identical for
    /// every choice (pinned by `tests/shard.rs`).
    pub workers: Option<usize>,
    /// Per-cell admission control; `None` admits on raw occupancy.
    pub admission: Option<AdmissionPolicy>,
}

impl ShardConfig {
    /// A shard of `cells` cells, `cell_capacity` slots each, routing
    /// `roster` with the given per-cell template.
    ///
    /// # Panics
    ///
    /// Panics if `cells` or `cell_capacity` is zero.
    #[must_use]
    pub fn new(
        template: FleetConfig,
        cells: usize,
        cell_capacity: usize,
        roster: Vec<SessionSpec>,
    ) -> Self {
        assert!(cells > 0, "a shard needs at least one cell");
        assert!(cell_capacity > 0, "cells need at least one slot");
        ShardConfig {
            template,
            cells,
            cell_capacity,
            roster,
            workers: None,
            admission: None,
        }
    }

    /// Returns a copy with an explicit worker-thread count.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Returns a copy with per-cell admission control.
    #[must_use]
    pub fn with_admission(mut self, policy: AdmissionPolicy) -> Self {
        self.admission = Some(policy);
        self
    }
}

/// What the deterministic router decided, before any cell runs.
#[derive(Debug, Clone)]
struct Routing {
    /// Per-cell admission controllers, cell-id order; each one's roster is
    /// its cell's sessions. Empty under occupancy routing, where cell `c`
    /// runs [`round_robin`]'s joins.
    controllers: Vec<AdmissionController>,
    /// Joins placed anywhere but their first-choice cell.
    spilled: usize,
    /// Joins no cell would take.
    rejected: usize,
    /// Joins placed on a degraded share.
    degraded: usize,
    /// Admission probe fleets simulated.
    probes_run: usize,
}

/// The roster indices cell `c` runs under occupancy routing. Join `k`
/// goes to cell `k mod cells` while `k < cells × cell_capacity` (module
/// docs give the argument), so the cell runs every `cells`-th join from
/// `c`, at most `cell_capacity` of them. Only called with `c < cells`.
fn round_robin(config: &ShardConfig, c: usize) -> impl Iterator<Item = usize> {
    (c..config.roster.len())
        .step_by(config.cells)
        .take(config.cell_capacity)
}

impl Routing {
    /// Cell `c`'s sessions in placement order (degraded shares included).
    fn sessions(&self, config: &ShardConfig, c: usize) -> Vec<SessionSpec> {
        match self.controllers.get(c) {
            Some(controller) => controller.admitted().to_vec(),
            None => round_robin(config, c)
                .map(|k| config.roster[k].clone())
                .collect(),
        }
    }

    /// Whether cell `c` holds at least one session.
    fn occupied(&self, config: &ShardConfig, c: usize) -> bool {
        match self.controllers.get(c) {
            Some(controller) => !controller.admitted().is_empty(),
            None => round_robin(config, c).next().is_some(),
        }
    }
}

/// Routes the roster across cells: least-loaded first, spilling on
/// rejection or degradation (module docs give the resolution order).
/// Occupancy routing is round robin, so only its rejections are counted
/// here; [`round_robin`] names each cell's joins. Single-threaded and
/// deterministic — the router is the shard's only cross-cell coupling, so
/// keeping it off the worker pool is what makes the whole run
/// worker-count-independent.
fn route(config: &ShardConfig) -> Routing {
    let Some(policy) = &config.admission else {
        let open = config.cells.saturating_mul(config.cell_capacity);
        return Routing {
            controllers: Vec::new(),
            spilled: 0,
            rejected: config.roster.len().saturating_sub(open),
            degraded: 0,
            probes_run: 0,
        };
    };
    let mut controllers: Vec<AdmissionController> = (0..config.cells)
        .map(|c| {
            AdmissionController::with_capacity(
                config.template.system,
                config.template.fairness,
                policy.clone(),
                cell_seed(config.template.seed, c),
                config.template.server_units,
                config.template.link_streams,
            )
            .with_server_policy(config.template.server_policy)
        })
        .collect();
    let mut routing = Routing {
        controllers: Vec::new(),
        spilled: 0,
        rejected: 0,
        degraded: 0,
        probes_run: 0,
    };
    for spec in &config.roster {
        // Candidate cells in spill-resolution order: occupancy, then the
        // cell's last accepted probe's measured utilisation, then cell id.
        // Nothing is released while routing, so a controller's roster
        // length is its cell's occupancy.
        let occupancy = |c: usize| controllers[c].admitted().len();
        let mut order: Vec<usize> = (0..config.cells)
            .filter(|&c| occupancy(c) < config.cell_capacity)
            .collect();
        let probe_util = |c: usize| -> f64 {
            controllers[c]
                .accepted_summary()
                .map_or(0.0, |s| s.server_utilization)
        };
        order.sort_by(|&a, &b| {
            occupancy(a)
                .cmp(&occupancy(b))
                .then(probe_util(a).total_cmp(&probe_util(b)))
                .then(a.cmp(&b))
        });
        let Some(&first_choice) = order.first() else {
            routing.rejected += 1; // every cell is full
            continue;
        };
        // Pass 1: full (protected) admission at the best cell that holds
        // the SLO.
        let placed = order
            .iter()
            .copied()
            .find(|&c| controllers[c].offer_protected(spec.clone()) == AdmissionDecision::Admitted);
        match placed {
            Some(c) if c != first_choice => routing.spilled += 1,
            Some(_) => {}
            // Pass 2: nobody takes it at full share — one degraded offer at
            // the least-loaded cell.
            None => match controllers[first_choice].offer(spec.clone()) {
                AdmissionDecision::Rejected => routing.rejected += 1,
                AdmissionDecision::Degraded => routing.degraded += 1,
                AdmissionDecision::Admitted => {}
            },
        }
    }
    routing.probes_run = controllers
        .iter()
        .map(AdmissionController::probes_run)
        .sum();
    routing.controllers = controllers;
    routing
}

/// The bundle one cell ships across its worker-thread boundary: sink
/// states plus scalar schedule facts. Everything here is `Send` (the
/// single-threaded [`crate::telemetry::LoadTracker`] is snapshotted), and
/// nothing retains a per-session frame history.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSummary {
    /// The cell's id (its position in the shard's cell-id order).
    pub cell: usize,
    /// Sessions the cell ran.
    pub sessions: usize,
    /// Frames the cell displayed.
    pub frames: usize,
    /// The cell's schedule makespan, ms.
    pub makespan_ms: f64,
    /// GPU units in the cell's server pool.
    pub server_units: usize,
    /// Busy time summed over the cell's GPU pool, ms (with
    /// `makespan_ms × server_units` as capacity, utilisations merge
    /// exactly: the shard divides once, after summing).
    pub server_busy_ms: f64,
    /// The cell's aggregate stream (MTP samples + per-slot FPS spans).
    pub aggregate: AggregateSink,
    /// The cell's windowed-p95 sink, un-collapsed (deferred mode), when
    /// windows were configured.
    pub windowed: Option<WindowedStatsSink>,
    /// The cell's finalised energy (its own span × its own pool).
    pub energy: FleetEnergy,
    /// The cell's load-EWMA snapshot, fleet-local slot order (shipped for
    /// inspection; the merge does not read it).
    pub load: Vec<Option<f64>>,
    /// Peak live engine intervals — the cell's O(window) memory witness.
    pub peak_live_tasks: usize,
    /// The cell's per-class metrics sink (un-rendered, the mergeable
    /// form), when [`crate::telemetry::TelemetryConfig::metrics`] was
    /// enabled. Span traces deliberately do *not* ship across the seam —
    /// tracing is a per-fleet debugging tool, not an O(1)-per-frame sink.
    pub metrics: Option<MetricsSink>,
    /// The cell's SLO incident timeline, cell-local (no cell stamp); the
    /// shard merge stamps each incident with this cell's id.
    pub incidents: Vec<Incident>,
}

/// Fleet-identical aggregates over every cell, plus the shard-level
/// routing and memory facts. Produced by [`Shard::run`] or directly by
/// [`ShardSummary::merge`] over cell bundles.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSummary {
    /// Cells that actually ran (empty cells ship nothing).
    pub cells: usize,
    /// Sessions across all cells.
    pub sessions: usize,
    /// Frames displayed across all cells.
    pub frames: usize,
    /// Slowest cell's makespan, ms (cells run concurrently in deployment).
    pub makespan_ms: f64,
    /// Median MTP across every cell's frames, ms.
    pub mtp_p50_ms: f64,
    /// 95th-percentile MTP across every cell's frames, ms.
    pub mtp_p95_ms: f64,
    /// 99th-percentile MTP across every cell's frames, ms.
    pub mtp_p99_ms: f64,
    /// The slowest session's frame rate anywhere in the shard, frames/s.
    pub fps_floor: f64,
    /// Mean session frame rate across the shard, frames/s.
    pub mean_fps: f64,
    /// GPU utilisation over the summed pool: Σ busy / Σ capacity.
    pub server_utilization: f64,
    /// GPU units summed over all cells.
    pub server_units: usize,
    /// Component-wise energy sum over cells, in cell-id order.
    pub energy: FleetEnergy,
    /// The merged windowed-p95 timeline `(start_ms, frames, p95)` (cells
    /// share one virtual-time origin, so buckets merge index-wise).
    pub windows: Vec<(f64, usize, f64)>,
    /// Raw samples held by the merged windowed sink at finalisation.
    pub peak_open_samples: usize,
    /// Σ of per-cell peak live engine intervals — the O(cells × window)
    /// bound the CI bounded-memory job asserts.
    pub peak_live_tasks: usize,
    /// Joins placed anywhere but their first-choice cell.
    pub spilled: usize,
    /// Joins no cell accepted.
    pub rejected: usize,
    /// Joins admitted on a degraded share.
    pub degraded: usize,
    /// Admission probe fleets simulated by the router.
    pub probes_run: usize,
    /// The shard-wide Prometheus-style exposition: every cell's metrics
    /// sink folded bucket-wise in cell-id order, then rendered once.
    /// `None` when no cell shipped metrics. On one cell this is bitwise
    /// the fleet's own exposition (the merge laws' 1-cell degeneracy).
    pub exposition: Option<String>,
    /// Every cell's incidents in cell-id order, each stamped with its
    /// originating cell ([`Incident::cell`]).
    pub incidents: Vec<Incident>,
    /// Per-cell session counts, cell-id order (ran cells only).
    pub cell_sessions: Vec<usize>,
}

impl ShardSummary {
    /// Merges per-cell bundles into fleet-identical aggregates. Cells are
    /// first sorted by cell id, so the result is independent of the order
    /// they are supplied (or finished) in; each sink merges by its proven
    /// law (slot tiling, component sum, bucket-index union), and
    /// utilisation divides once over the summed pool.
    ///
    /// # Panics
    ///
    /// Panics if two bundles claim the same cell id, or if windowed sinks
    /// are present but collapsed / of mismatched widths
    /// ([`WindowedStatsSink::absorb`]).
    #[must_use]
    pub fn merge(mut cells: Vec<CellSummary>) -> ShardSummary {
        cells.sort_by_key(|c| c.cell);
        for pair in cells.windows(2) {
            assert!(
                pair[0].cell != pair[1].cell,
                "duplicate cell id {} in merge",
                pair[0].cell
            );
        }
        let mut aggregate = AggregateSink::new();
        let mut windowed: Option<WindowedStatsSink> = None;
        let mut metrics: Option<MetricsSink> = None;
        let mut incidents: Vec<Incident> = Vec::new();
        let mut energy = FleetEnergy::default();
        let mut sessions = 0;
        let mut frames = 0;
        let mut makespan_ms: f64 = 0.0;
        let mut busy_ms = 0.0;
        let mut capacity_ms = 0.0;
        let mut server_units = 0;
        let mut peak_live_tasks = 0;
        let ran = cells.len();
        let mut cell_sessions = Vec::with_capacity(ran);
        for cell in cells {
            aggregate.absorb(&cell.aggregate);
            if let Some(w) = cell.windowed {
                match &mut windowed {
                    None => windowed = Some(w),
                    Some(merged) => merged.absorb(&w),
                }
            }
            if let Some(m) = cell.metrics {
                match &mut metrics {
                    None => metrics = Some(m),
                    Some(merged) => merged.absorb(&m),
                }
            }
            incidents.extend(cell.incidents.into_iter().map(|mut inc| {
                inc.cell = Some(cell.cell);
                inc
            }));
            // qvr-lint: allow(D4): fixed cell-id-sorted fold, audited in DESIGN §12
            energy += cell.energy;
            sessions += cell.sessions;
            frames += cell.frames;
            makespan_ms = makespan_ms.max(cell.makespan_ms);
            // qvr-lint: allow(D4): cell-id-sorted fold, divided once by capacity_ms
            busy_ms += cell.server_busy_ms;
            // qvr-lint: allow(D4): cell-id-sorted fold, consumed once for utilisation
            capacity_ms += cell.makespan_ms * cell.server_units as f64;
            server_units += cell.server_units;
            peak_live_tasks += cell.peak_live_tasks;
            cell_sessions.push(cell.sessions);
        }
        let (mtp_p50_ms, mtp_p95_ms, mtp_p99_ms) = aggregate.mtp_percentiles();
        let (fps_floor, mean_fps) = aggregate.fps_stats();
        let (windows, peak_open_samples) = match windowed {
            Some(w) => {
                let peak = w.peak_open_samples();
                (w.finish(), peak)
            }
            None => (Vec::new(), 0),
        };
        ShardSummary {
            cells: ran,
            sessions,
            frames,
            makespan_ms,
            mtp_p50_ms,
            mtp_p95_ms,
            mtp_p99_ms,
            fps_floor,
            mean_fps,
            server_utilization: if capacity_ms > 0.0 {
                (busy_ms / capacity_ms).clamp(0.0, 1.0)
            } else {
                0.0
            },
            server_units,
            energy,
            windows,
            peak_open_samples,
            peak_live_tasks,
            exposition: metrics.map(|m| m.exposition()),
            incidents,
            spilled: 0,
            rejected: 0,
            degraded: 0,
            probes_run: 0,
            cell_sessions,
        }
    }

    /// Whether this shard's aggregates are bit-identical to a single
    /// fleet's — the 1-cell degeneracy check (percentiles, FPS statistics,
    /// utilisation, makespan, energy, and the windowed timeline all
    /// compare with `==`, no tolerance).
    #[must_use]
    pub fn matches_fleet(&self, fleet: &FleetSummary) -> bool {
        self.mtp_p50_ms == fleet.mtp_p50_ms
            && self.mtp_p95_ms == fleet.mtp_p95_ms
            && self.mtp_p99_ms == fleet.mtp_p99_ms
            && self.fps_floor == fleet.fps_floor
            && self.mean_fps == fleet.mean_fps
            && self.server_utilization == fleet.server_utilization
            && self.makespan_ms == fleet.makespan_ms
            && self.server_units == fleet.server_units
            && self.energy == fleet.energy
            && self.windows == fleet.windows
            && self.exposition == fleet.exposition
    }
}

impl fmt::Display for ShardSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} sessions over {} cells ({} GPU units): MTP p50/p95/p99 \
             {:.1}/{:.1}/{:.1} ms, FPS floor {:.0}, util {:.0}%, \
             {} spilled, {} degraded, {} rejected",
            self.sessions,
            self.cells,
            self.server_units,
            self.mtp_p50_ms,
            self.mtp_p95_ms,
            self.mtp_p99_ms,
            self.fps_floor,
            self.server_utilization * 100.0,
            self.spilled,
            self.degraded,
            self.rejected,
        )
    }
}

/// The sharded-run entry point.
#[derive(Debug)]
pub struct Shard;

impl Shard {
    /// Routes, runs, and merges one sharded sweep: the deterministic
    /// router places every join (module docs give the spill order), each
    /// non-empty cell runs as an independent [`Fleet`] on the bounded
    /// worker pool, and the cells' sink states fold into one
    /// [`ShardSummary`]. Bit-deterministic for a fixed config regardless
    /// of worker count.
    #[must_use]
    pub fn run(config: ShardConfig) -> ShardSummary {
        let routing = route(&config);
        let occupied: Vec<usize> = (0..config.cells)
            .filter(|&c| routing.occupied(&config, c))
            .collect();
        let workers = config
            .workers
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |w| w.get()));
        let cells = qvr_sim::parallel_map_with(workers, &occupied, |&cell| {
            let mut fleet = config.template.clone();
            fleet.sessions = routing.sessions(&config, cell);
            fleet.seed = cell_seed(config.template.seed, cell);
            if fleet.telemetry.window_ms.is_some() {
                fleet.telemetry = fleet.telemetry.with_deferred_windows();
            }
            Fleet::new(fleet).finish_cell(cell)
        });
        let mut summary = ShardSummary::merge(cells);
        summary.spilled = routing.spilled;
        summary.rejected = routing.rejected;
        summary.degraded = routing.degraded;
        summary.probes_run = routing.probes_run;
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::{SchemeKind, SystemConfig};
    use proptest::prelude::*;
    use qvr_scene::Benchmark;

    fn template(frames: usize, seed: u64) -> FleetConfig {
        let mut t = FleetConfig::uniform(
            SystemConfig::default(),
            SchemeKind::Qvr,
            Benchmark::Hl2H.profile(),
            1, // ignored: the shard routes its own roster
            frames,
            seed,
        );
        t.server_units = 4;
        t.link_streams = 2;
        t
    }

    fn roster(n: usize) -> Vec<SessionSpec> {
        (0..n)
            .map(|i| {
                let bench = [Benchmark::Hl2H, Benchmark::Doom3L, Benchmark::Wolf][i % 3];
                SessionSpec::new(SchemeKind::Qvr, bench.profile())
            })
            .collect()
    }

    #[test]
    fn cell_seed_is_identity_for_cell_zero_and_distinct_after() {
        assert_eq!(cell_seed(42, 0), 42);
        let seeds: Vec<u64> = (0..16).map(|c| cell_seed(42, c)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "cell seeds must not collide");
    }

    #[test]
    fn occupancy_routing_balances_and_rejects_overflow() {
        let config = ShardConfig::new(template(4, 7), 3, 2, roster(7));
        let routing = route(&config);
        let occupancy: Vec<usize> = (0..3).map(|c| routing.sessions(&config, c).len()).collect();
        assert_eq!(occupancy, vec![2, 2, 2], "least-loaded fills evenly");
        assert_eq!(routing.rejected, 1, "the 7th join finds every cell full");
        assert_eq!(routing.probes_run, 0);
        assert_eq!(routing.spilled, 0, "occupancy routing never spills");
    }

    /// The linear min-scan occupancy routing ran before its closed form:
    /// each join goes to the least-loaded open cell, lowest id on ties.
    /// Returns each cell's roster indices and the count of rejected joins.
    fn scan_route(joins: usize, cells: usize, capacity: usize) -> (Vec<Vec<usize>>, usize) {
        let mut placements: Vec<Vec<usize>> = vec![Vec::new(); cells];
        let mut rejected = 0;
        for k in 0..joins {
            let mut best: Option<usize> = None;
            for (c, placed) in placements.iter().enumerate() {
                if placed.len() >= capacity {
                    continue;
                }
                if best.is_none_or(|b| placed.len() < placements[b].len()) {
                    best = Some(c);
                }
            }
            match best {
                Some(c) => placements[c].push(k),
                None => rejected += 1,
            }
        }
        (placements, rejected)
    }

    fn assert_round_robin_matches_scan(cells: usize, capacity: usize, joins: usize) {
        let spec = SessionSpec::new(SchemeKind::Qvr, Benchmark::Wolf.profile());
        let config = ShardConfig::new(template(1, 0), cells, capacity, vec![spec; joins]);
        let (placements, rejected) = scan_route(joins, cells, capacity);
        for (c, scanned) in placements.iter().enumerate() {
            let closed: Vec<usize> = round_robin(&config, c).collect();
            assert_eq!(
                &closed, scanned,
                "cell {c} of {cells} x {capacity} after {joins} joins"
            );
        }
        assert_eq!(
            route(&config).rejected,
            rejected,
            "rejections at {cells} x {capacity} after {joins} joins"
        );
    }

    #[test]
    fn round_robin_matches_the_scan_on_every_small_shape() {
        for cells in 1..=12 {
            for capacity in 1..=6 {
                for joins in 0..=cells * capacity + 5 {
                    assert_round_robin_matches_scan(cells, capacity, joins);
                }
            }
        }
    }

    proptest! {
        #[test]
        fn round_robin_matches_the_scan_on_larger_shapes(
            shape in (1usize..257, 1usize..17, 0usize..1 << 20)
                .prop_map(|(cells, capacity, j)| (cells, capacity, j % (cells * capacity + 6))),
        ) {
            let (cells, capacity, joins) = shape;
            assert_round_robin_matches_scan(cells, capacity, joins);
        }
    }

    #[test]
    fn zero_cells_or_slots_reject_every_join_and_run_no_cell() {
        // `cells` and `cell_capacity` are public, so they can be zeroed
        // after `ShardConfig::new`'s checks.
        for (cells, capacity) in [(0, 2), (3, 0), (0, 0)] {
            for admission in [None, Some(AdmissionPolicy::default())] {
                let mut config = ShardConfig::new(template(2, 5), 1, 1, roster(4));
                config.cells = cells;
                config.cell_capacity = capacity;
                config.admission = admission;
                let s = Shard::run(config);
                assert_eq!(
                    (s.cells, s.sessions, s.rejected, s.probes_run),
                    (0, 0, 4, 0),
                    "{cells} cells x {capacity} slots"
                );
            }
        }
    }

    #[test]
    fn shard_summary_aggregates_across_cells() {
        let mut config = ShardConfig::new(template(6, 11), 4, 4, roster(12));
        config.template.telemetry = config.template.telemetry.with_window_ms(200.0);
        let s = Shard::run(config);
        assert_eq!(s.sessions, 12);
        assert_eq!(s.cells, 4);
        assert_eq!(s.cell_sessions, vec![3, 3, 3, 3]);
        assert_eq!(s.frames, 12 * 6);
        assert_eq!(s.server_units, 16);
        assert!(s.mtp_p50_ms <= s.mtp_p95_ms && s.mtp_p95_ms <= s.mtp_p99_ms);
        assert!(s.fps_floor > 0.0 && s.fps_floor <= s.mean_fps + 1e-9);
        assert!(s.server_utilization > 0.0 && s.server_utilization <= 1.0);
        assert!(s.energy.total_mj() > 0.0);
        assert!(!s.windows.is_empty());
        let frames_in_windows: usize = s.windows.iter().map(|(_, n, _)| *n).sum();
        assert_eq!(frames_in_windows, s.frames, "windows must not lose frames");
        assert!(s.peak_live_tasks > 0);
        assert!(s.to_string().contains("12 sessions over 4 cells"));
    }

    #[test]
    fn merge_is_independent_of_cell_arrival_order() {
        let config = ShardConfig::new(template(5, 3), 3, 4, roster(9));
        let routing = route(&config);
        let mut cells: Vec<CellSummary> = (0..config.cells)
            .map(|c| {
                let mut fleet = config.template.clone();
                fleet.sessions = routing.sessions(&config, c);
                fleet.seed = cell_seed(config.template.seed, c);
                Fleet::new(fleet).finish_cell(c)
            })
            .collect();
        let forward = ShardSummary::merge(cells.clone());
        cells.reverse();
        let reversed = ShardSummary::merge(cells);
        assert_eq!(forward, reversed);
    }

    #[test]
    #[should_panic(expected = "duplicate cell id")]
    fn merge_rejects_duplicate_cell_ids() {
        let mut fleet = template(3, 1);
        fleet.sessions = roster(2);
        let cell = Fleet::new(fleet).finish_cell(5);
        let _ = ShardSummary::merge(vec![cell.clone(), cell]);
    }
}
