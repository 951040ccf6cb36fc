//! Discrete-event pipeline engine for multi-accelerator frame simulation.
//!
//! Fig. 4 of the paper draws a VR frame as a task graph spread over
//! accelerators — CPU (control logic, local setup), mobile GPU (local
//! rendering, and composition/ATW when no UCA exists), the network, the
//! video decoder, the remote GPUs, and Q-VR's LIWC and UCA units. Frames
//! overlap: while frame *N* streams its periphery, frame *N+1* already
//! renders locally, and the exact interleaving (including the GPU
//! contention of Fig. 4-③) decides FPS.
//!
//! [`Engine`] models this with *incremental greedy FIFO scheduling*: tasks
//! are submitted in program order; each task starts at the later of (a) its
//! dependencies' completion and (b) its resource becoming free, exactly like
//! work issued to a real in-order accelerator queue. Submission order on a
//! shared resource therefore *is* the arbitration order, which lets scheme
//! code express contention (e.g. composition delaying the next frame's
//! rendering) simply by submitting in pipeline order.
//!
//! Per-resource busy time is tracked for the energy model, and the full
//! task timeline can be dumped as a text Gantt chart for inspection.
//!
//! For multi-tenant simulation, [`Engine::resource_pool`] groups `k`
//! schedulable units behind one handle (an `mcm_8_gpu` server becomes 8
//! contended units instead of an analytic constant): a caller picks a unit
//! with [`Engine::least_loaded_unit_in`] or [`Engine::most_loaded_unit_in`]
//! and submits to it. [`SharedEngine`] is a cloneable handle letting
//! several session rigs submit into one schedule.
//!
//! # Example
//!
//! ```
//! use qvr_sim::Engine;
//!
//! let mut sim = Engine::new();
//! let gpu = sim.resource("GPU");
//! let net = sim.resource("NET");
//! // Frame: render 4 ms in parallel with a 6 ms download, then 1 ms compose.
//! let render = sim.submit("LR", Some(gpu), 4.0, &[]);
//! let fetch = sim.submit("RR+net", Some(net), 6.0, &[]);
//! let compose = sim.submit("C", Some(gpu), 1.0, &[render, fetch]);
//! assert_eq!(sim.end_of(compose), 7.0); // starts when the download lands
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checked;

use std::cell::RefCell;
use std::collections::HashSet;
use std::fmt;
use std::fmt::Write as _;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

/// Identifies a resource within one [`Engine`].
///
/// A `u32` index, so that `Option<ResourceId>` takes 8 bytes and a
/// [`ScheduledTask`] 40.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResourceId(u32);

impl ResourceId {
    /// The id of the resource at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit a `u32`.
    fn new(index: usize) -> Self {
        ResourceId(u32::try_from(index).expect("an engine holds at most 2^32 resources"))
    }

    /// The resource's place in [`Engine`]'s resource table.
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifies a resource pool within one [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PoolId(usize);

/// Identifies a submitted task within one [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskId(usize);

/// A small inline dependency list for hot-path task submission.
///
/// Per-frame pipeline code builds dependency sets of at most a handful of
/// tasks (pacing gate, previous chunk, previous compose); heap-backed
/// `Vec<TaskId>` lists made that an allocation per frame. A `DepList` holds
/// them inline and derefs to `&[TaskId]`, so it drops into every `deps:
/// &[TaskId]` submission parameter unchanged.
#[derive(Debug, Clone, Copy)]
pub struct DepList {
    buf: [TaskId; Self::CAPACITY],
    len: usize,
}

impl DepList {
    /// Maximum dependencies an inline list holds.
    pub const CAPACITY: usize = 4;

    /// An empty list.
    #[must_use]
    pub fn new() -> Self {
        DepList {
            buf: [TaskId(0); Self::CAPACITY],
            len: 0,
        }
    }

    /// Appends a dependency.
    ///
    /// # Panics
    ///
    /// Panics if the list is full ([`DepList::CAPACITY`] entries).
    pub fn push(&mut self, id: TaskId) {
        assert!(
            self.len < Self::CAPACITY,
            "DepList overflow (capacity {})",
            Self::CAPACITY
        );
        self.buf[self.len] = id;
        self.len += 1;
    }

    /// The dependencies as a slice.
    #[must_use]
    pub fn as_slice(&self) -> &[TaskId] {
        &self.buf[..self.len]
    }
}

impl Default for DepList {
    fn default() -> Self {
        DepList::new()
    }
}

impl std::ops::Deref for DepList {
    type Target = [TaskId];

    fn deref(&self) -> &[TaskId] {
        self.as_slice()
    }
}

#[derive(Debug, Clone)]
struct Resource {
    name: String,
    free_at: f64,
    busy_ms: f64,
    intervals: Vec<(f64, f64)>,
    /// Busy time of intervals dropped by [`Engine::retire_before`], folded
    /// into this cumulative counter *before* the prefix drop so
    /// interval-derived accounting (energy attribution, utilization audits)
    /// stays exact no matter how much history has retired.
    retired_busy_ms: f64,
}

#[derive(Debug, Clone)]
struct Pool {
    name: String,
    units: Vec<ResourceId>,
}

/// A scheduled task record.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledTask {
    /// Human-readable label (used by the timeline dump). Interned: tasks
    /// sharing a label share one allocation.
    pub label: Rc<str>,
    /// Executing resource, if any (`None` = pure delay, e.g. sensor wait).
    pub resource: Option<ResourceId>,
    /// Start time, ms.
    pub start: f64,
    /// End time, ms.
    pub end: f64,
}

/// The label pool's hasher: FxHash's rotate-xor-multiply over 8-byte
/// words. Labels are the engine's own text and never feed a simulated
/// number, so SipHash's resistance to crafted collisions buys nothing here.
#[derive(Default)]
struct LabelHasher(u64);

impl LabelHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for LabelHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail));
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The incremental discrete-event engine.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    resources: Vec<Resource>,
    pools: Vec<Pool>,
    /// Live (unretired) tasks; [`TaskId`] `i` lives at `tasks[i - retired]`.
    tasks: Vec<ScheduledTask>,
    /// Tasks dropped by [`Engine::retire_before`]; the id-space offset of
    /// `tasks[0]`.
    retired: usize,
    /// Latest end time among retired tasks (so [`Engine::makespan`] stays
    /// exact after retirement). 0 while nothing has retired.
    retired_makespan: f64,
    /// Interned task labels: a steady-state frame loop reuses the same
    /// label set every frame, so after warm-up submission allocates nothing
    /// for labels.
    label_pool: HashSet<Rc<str>, BuildHasherDefault<LabelHasher>>,
    /// Scratch for composed labels (release gates) — reused across calls.
    label_scratch: String,
}

impl Engine {
    /// Creates an empty engine.
    #[must_use]
    pub fn new() -> Self {
        Engine::default()
    }

    /// Returns the resource with this name, creating it if needed.
    pub fn resource(&mut self, name: &str) -> ResourceId {
        if let Some(i) = self.resources.iter().position(|r| r.name == name) {
            return ResourceId::new(i);
        }
        self.resources.push(Resource {
            name: name.to_owned(),
            free_at: 0.0,
            busy_ms: 0.0,
            intervals: Vec::new(),
            retired_busy_ms: 0.0,
        });
        ResourceId::new(self.resources.len() - 1)
    }

    /// Returns the pool with this name, creating it with `k` schedulable
    /// units if needed. A `k = 1` pool shares its unit with the plain
    /// resource of the same name, so pooled and non-pooled submission paths
    /// produce identical schedules for single units.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero, or if a pool with this name already exists
    /// with a different unit count.
    pub fn resource_pool(&mut self, name: &str, k: usize) -> PoolId {
        assert!(k > 0, "a pool needs at least one unit");
        if let Some(i) = self.pools.iter().position(|p| p.name == name) {
            assert_eq!(
                self.pools[i].units.len(),
                k,
                "pool {name:?} already exists with a different unit count"
            );
            return PoolId(i);
        }
        let units = if k == 1 {
            vec![self.resource(name)]
        } else {
            (0..k)
                .map(|i| self.resource(&format!("{name}[{i}]")))
                .collect()
        };
        self.pools.push(Pool {
            name: name.to_owned(),
            units,
        });
        PoolId(self.pools.len() - 1)
    }

    /// The schedulable units behind a pool, in index order.
    #[must_use]
    pub fn pool_units(&self, pool: PoolId) -> &[ResourceId] {
        &self.pools[pool.0].units
    }

    /// Number of units in a pool.
    #[must_use]
    pub fn pool_size(&self, pool: PoolId) -> usize {
        self.pools[pool.0].units.len()
    }

    /// Index of the least-loaded unit of the unit-index subrange `range`
    /// for work becoming ready at `ready_at_ms`: the unit that can start it
    /// earliest, tie-broken by earliest free time, then lowest index — the
    /// exact lexicographic total order on `(start, free_at, index)`, so
    /// selection is transitive and independent of unit iteration order.
    /// Greedy earliest-start selection is work-conserving: no unit of the
    /// slice sits idle past `ready_at_ms` while the submitted task waits on
    /// a busier one. Class-aware server scheduling policies confine a
    /// tenant class to a slice of the pool this way.
    ///
    /// # Panics
    ///
    /// Panics if `range` is empty or out of the pool's bounds.
    #[must_use]
    pub fn least_loaded_unit_in(
        &self,
        pool: PoolId,
        ready_at_ms: f64,
        range: std::ops::Range<usize>,
    ) -> usize {
        let units = &self.pools[pool.0].units;
        assert!(
            range.start < range.end && range.end <= units.len(),
            "unit range {range:?} invalid for a {}-unit pool",
            units.len()
        );
        let mut best = range.start;
        let mut best_start = f64::INFINITY;
        let mut best_free = f64::INFINITY;
        for i in range {
            let free = self.resources[units[i].index()].free_at;
            let start = free.max(ready_at_ms);
            if start
                .total_cmp(&best_start)
                .then(free.total_cmp(&best_free))
                .is_lt()
            {
                best = i;
                best_start = start;
                best_free = free;
            }
        }
        best
    }

    /// The *most*-loaded unit of the subrange: the one whose next task
    /// would start latest (maximising `(start, free_at)`, ties to the
    /// lowest index). Packing policies use it to concentrate best-effort
    /// work on already-hot units, keeping the rest of the pool clear for
    /// priority tenants.
    ///
    /// # Panics
    ///
    /// Panics if `range` is empty or out of the pool's bounds.
    #[must_use]
    pub fn most_loaded_unit_in(
        &self,
        pool: PoolId,
        ready_at_ms: f64,
        range: std::ops::Range<usize>,
    ) -> usize {
        let units = &self.pools[pool.0].units;
        assert!(
            range.start < range.end && range.end <= units.len(),
            "unit range {range:?} invalid for a {}-unit pool",
            units.len()
        );
        let mut best = range.start;
        let mut best_start = f64::NEG_INFINITY;
        let mut best_free = f64::NEG_INFINITY;
        for i in range {
            let free = self.resources[units[i].index()].free_at;
            let start = free.max(ready_at_ms);
            if start
                .total_cmp(&best_start)
                .then(free.total_cmp(&best_free))
                .is_gt()
            {
                best = i;
                best_start = start;
                best_free = free;
            }
        }
        best
    }

    /// Latest end time of a dependency set (0 when empty).
    ///
    /// # Panics
    ///
    /// Panics if a dependency id is stale.
    #[must_use]
    pub fn deps_ready_ms(&self, deps: &[TaskId]) -> f64 {
        deps.iter()
            .map(|d| self.task(*d).end)
            .fold(0.0f64, f64::max)
    }

    /// Looks up a live task record.
    ///
    /// # Panics
    ///
    /// Panics if the id is beyond the submission frontier, or if the task
    /// was dropped by [`Engine::retire_before`] (callers must keep their
    /// dependency horizon inside the retirement window).
    fn task(&self, id: TaskId) -> &ScheduledTask {
        assert!(
            id.0 >= self.retired,
            "task id {} was retired (retirement window too small for the \
             caller's dependency horizon)",
            id.0
        );
        self.tasks
            .get(id.0 - self.retired)
            .unwrap_or_else(|| panic!("unknown task id {}", id.0))
    }

    /// Accumulated busy time across all units of a pool, ms.
    #[must_use]
    pub fn pool_busy_ms(&self, pool: PoolId) -> f64 {
        self.pools[pool.0]
            .units
            .iter()
            .map(|r| self.resources[r.index()].busy_ms)
            .sum()
    }

    /// Utilisation of a pool over the makespan: busy time over
    /// `units × makespan`, in `[0, 1]`.
    #[must_use]
    pub fn pool_utilization(&self, pool: PoolId) -> f64 {
        let span = self.makespan();
        let k = self.pools[pool.0].units.len();
        if span <= 0.0 || k == 0 {
            0.0
        } else {
            (self.pool_busy_ms(pool) / (span * k as f64)).clamp(0.0, 1.0)
        }
    }

    /// Submits a task and schedules it immediately.
    ///
    /// The task starts at the later of its dependencies' ends and its
    /// resource's free time; the resource is then busy until the task ends.
    /// `duration_ms` must be non-negative.
    ///
    /// # Panics
    ///
    /// Panics if `duration_ms` is negative/NaN or a dependency id is stale.
    pub fn submit(
        &mut self,
        label: &str,
        resource: Option<ResourceId>,
        duration_ms: f64,
        deps: &[TaskId],
    ) -> TaskId {
        let label = self.intern(label);
        let deps_ready = self.deps_ready_ms(deps);
        self.submit_ready(label, resource, duration_ms, deps_ready)
    }

    /// [`Engine::submit`] with a label already interned by
    /// [`Engine::intern`]: the task shares the handle's allocation, so a
    /// caller that submits the same labels every frame interns them once
    /// and pays no formatting or hashing per task.
    ///
    /// # Panics
    ///
    /// As [`Engine::submit`]. Debug builds also panic if `label` is not
    /// this engine's pooled allocation (tasks sharing a label must share
    /// one allocation; see [`ScheduledTask::label`]).
    pub fn submit_interned(
        &mut self,
        label: &Rc<str>,
        resource: Option<ResourceId>,
        duration_ms: f64,
        deps: &[TaskId],
    ) -> TaskId {
        debug_assert!(
            self.label_pool
                .get(&**label)
                .is_some_and(|pooled| Rc::ptr_eq(pooled, label)),
            "label {label:?} was not interned by this engine"
        );
        let deps_ready = self.deps_ready_ms(deps);
        self.submit_ready(Rc::clone(label), resource, duration_ms, deps_ready)
    }

    /// Submission with the label interned and the dependency frontier
    /// already reduced to a readiness time — the shared tail of every
    /// submission path.
    fn submit_ready(
        &mut self,
        label: Rc<str>,
        resource: Option<ResourceId>,
        duration_ms: f64,
        deps_ready: f64,
    ) -> TaskId {
        assert!(
            duration_ms.is_finite() && duration_ms >= 0.0,
            "duration must be finite and non-negative, got {duration_ms}"
        );
        let start = match resource {
            Some(rid) => deps_ready.max(self.resources[rid.index()].free_at),
            None => deps_ready,
        };
        let end = start + duration_ms;
        if let Some(rid) = resource {
            let r = &mut self.resources[rid.index()];
            r.free_at = end;
            r.busy_ms += duration_ms;
            r.intervals.push((start, end));
        }
        self.tasks.push(ScheduledTask {
            label,
            resource,
            start,
            end,
        });
        TaskId(self.retired + self.tasks.len() - 1)
    }

    /// Looks up (or creates) the shared allocation for a task label — the
    /// handle [`Engine::submit_interned`] takes. The pool never shrinks,
    /// so a handle stays this engine's pooled allocation for good.
    pub fn intern(&mut self, label: &str) -> Rc<str> {
        if let Some(l) = self.label_pool.get(label) {
            return Rc::clone(l);
        }
        let l: Rc<str> = Rc::from(label);
        self.label_pool.insert(Rc::clone(&l));
        l
    }

    /// Retires completed history: drops every task (and resource interval)
    /// that ended at or before `t_ms` from the *front* of the schedule, so a
    /// long-running simulation holds O(window) live state per resource
    /// instead of the full task history. Returns how many tasks retired.
    ///
    /// Retirement is prefix-only (ids stay dense), stops at the first task
    /// still ending after `t_ms`, and never touches accumulated busy time,
    /// `free_at` frontiers, or the makespan — aggregates stay exact. Looking
    /// up a retired task afterwards panics, so callers must keep `t_ms` at
    /// least one dependency horizon behind every session's frontier (fleets
    /// use `min(last_display_end) - window`).
    pub fn retire_before(&mut self, t_ms: f64) -> usize {
        let k = self
            .tasks
            .iter()
            .position(|t| t.end > t_ms)
            .unwrap_or(self.tasks.len());
        if k > 0 {
            for t in self.tasks.drain(..k) {
                self.retired_makespan = self.retired_makespan.max(t.end);
            }
            self.retired += k;
        }
        for r in &mut self.resources {
            // Per-resource intervals are non-overlapping and time-ordered,
            // so retired history is a prefix here too. Fold each dropped
            // interval's busy time into the cumulative counter *before* the
            // drop: interval-derived accounting (per-stage energy
            // attribution) must stay exact under windowed retirement.
            let cut = r
                .intervals
                .iter()
                .position(|iv| iv.1 > t_ms)
                .unwrap_or(r.intervals.len());
            for iv in r.intervals.drain(..cut) {
                r.retired_busy_ms += iv.1 - iv.0;
            }
        }
        k
    }

    /// Busy time of a resource reconstructed from its intervals: the
    /// retired-interval counter plus the live intervals' spans, ms. Always
    /// within float-summation error of [`Engine::busy_ms`] (which
    /// accumulates at submission) — the checkable invariant that windowed
    /// retirement never loses busy time.
    #[must_use]
    pub fn interval_busy_ms(&self, id: ResourceId) -> f64 {
        let r = &self.resources[id.index()];
        r.retired_busy_ms + r.intervals.iter().map(|iv| iv.1 - iv.0).sum::<f64>()
    }

    /// Tasks currently held live (submitted and not retired).
    #[must_use]
    pub fn live_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Tasks dropped by [`Engine::retire_before`] so far.
    #[must_use]
    pub fn retired_tasks(&self) -> usize {
        self.retired
    }

    /// Live busy intervals currently held for one resource.
    #[must_use]
    pub fn live_intervals(&self, id: ResourceId) -> usize {
        self.resources[id.index()].intervals.len()
    }

    /// Number of distinct resources created so far (a churn fleet recycling
    /// its per-session slots keeps this O(peak concurrency)).
    #[must_use]
    pub fn resource_count(&self) -> usize {
        self.resources.len()
    }

    /// The largest live-interval count across all resources — the
    /// per-resource retained state a bounded-memory run must keep flat.
    #[must_use]
    pub fn max_live_intervals(&self) -> usize {
        self.resources
            .iter()
            .map(|r| r.intervals.len())
            .max()
            .unwrap_or(0)
    }

    /// Submits a task that becomes ready at an absolute time (e.g. a sensor
    /// sample arriving at the start of a frame interval).
    pub fn submit_at(
        &mut self,
        label: &str,
        resource: Option<ResourceId>,
        ready_at_ms: f64,
        duration_ms: f64,
        deps: &[TaskId],
    ) -> TaskId {
        // Model the release time as a zero-resource delay task. The gate
        // label composes in a reused scratch and the gate folds into the
        // readiness frontier directly, so no per-call dep list or label
        // String is built.
        let mut gate_label = std::mem::take(&mut self.label_scratch);
        gate_label.clear();
        let _ = write!(gate_label, "{label}:release");
        let gate = self.submit(&gate_label, None, ready_at_ms.max(0.0), &[]);
        self.label_scratch = gate_label;
        let label = self.intern(label);
        let deps_ready = self.deps_ready_ms(deps).max(self.task(gate).end);
        self.submit_ready(label, resource, duration_ms, deps_ready)
    }

    /// Start time of a (live) task.
    #[must_use]
    pub fn start_of(&self, id: TaskId) -> f64 {
        self.task(id).start
    }

    /// End time of a (live) task.
    #[must_use]
    pub fn end_of(&self, id: TaskId) -> f64 {
        self.task(id).end
    }

    /// The time the resource becomes free under the current schedule.
    #[must_use]
    pub fn free_at(&self, id: ResourceId) -> f64 {
        self.resources[id.index()].free_at
    }

    /// Accumulated busy time of a resource, ms.
    #[must_use]
    pub fn busy_ms(&self, id: ResourceId) -> f64 {
        self.resources[id.index()].busy_ms
    }

    /// Resource name.
    #[must_use]
    pub fn resource_name(&self, id: ResourceId) -> &str {
        &self.resources[id.index()].name
    }

    /// Latest task end across the whole schedule, retired history included
    /// (0 when empty).
    #[must_use]
    pub fn makespan(&self) -> f64 {
        self.tasks
            .iter()
            .map(|t| t.end)
            .fold(self.retired_makespan, f64::max)
    }

    /// Utilisation of a resource over the makespan, `[0, 1]`.
    #[must_use]
    pub fn utilization(&self, id: ResourceId) -> f64 {
        let span = self.makespan();
        if span <= 0.0 {
            0.0
        } else {
            (self.busy_ms(id) / span).clamp(0.0, 1.0)
        }
    }

    /// All *live* scheduled tasks in submission order (retired history is
    /// gone — that is the point of retirement).
    #[must_use]
    pub fn tasks(&self) -> &[ScheduledTask] {
        &self.tasks
    }

    /// Verifies that no resource ever runs two tasks at once.
    ///
    /// Exclusivity holds by construction; this is a checkable invariant for
    /// tests and debugging.
    #[must_use]
    pub fn verify_exclusivity(&self) -> bool {
        for r in &self.resources {
            let mut iv = r.intervals.clone();
            iv.sort_by(|a, b| a.0.total_cmp(&b.0));
            for pair in iv.windows(2) {
                if pair[1].0 < pair[0].1 - 1e-9 {
                    return false;
                }
            }
        }
        true
    }

    /// Renders a text Gantt chart of the last `max_tasks` tasks.
    #[must_use]
    pub fn timeline(&self, max_tasks: usize) -> String {
        let span = self.makespan().max(1e-9);
        const COLS: usize = 72;
        let mut out = String::new();
        let skip = self.tasks.len().saturating_sub(max_tasks);
        for t in &self.tasks[skip..] {
            if t.resource.is_none() && t.label.ends_with(":release") {
                continue;
            }
            let s = checked::floor_index((t.start / span) * COLS as f64);
            let e = checked::ceil_index((t.end / span) * COLS as f64).clamp(s + 1, COLS);
            let rname = t.resource.map_or("-", |r| self.resource_name(r));
            out.push_str(&format!(
                "{:18} {:8}|",
                truncate(&t.label, 18),
                truncate(rname, 8)
            ));
            for c in 0..COLS {
                out.push(if c >= s && c < e { '#' } else { '.' });
            }
            out.push_str(&format!("| {:.2}..{:.2} ms\n", t.start, t.end));
        }
        out
    }
}

/// A cloneable shared handle to one [`Engine`], so several sessions (each
/// holding its own rig) can submit into a single schedule — the substrate of
/// multi-tenant fleets. Mirrors the [`Engine`] API; all methods take `&self`
/// and borrow the engine internally.
///
/// # Panics
///
/// Methods panic if called re-entrantly while another borrow is live (not
/// possible through this API's non-reentrant methods).
#[derive(Debug, Clone, Default)]
pub struct SharedEngine(Rc<RefCell<Engine>>);

impl SharedEngine {
    /// Creates a handle to a fresh empty engine.
    #[must_use]
    pub fn new() -> Self {
        SharedEngine::default()
    }

    /// See [`Engine::resource`].
    pub fn resource(&self, name: &str) -> ResourceId {
        self.0.borrow_mut().resource(name)
    }

    /// See [`Engine::resource_pool`].
    pub fn resource_pool(&self, name: &str, k: usize) -> PoolId {
        self.0.borrow_mut().resource_pool(name, k)
    }

    /// See [`Engine::pool_units`] (returns an owned copy).
    #[must_use]
    pub fn pool_units(&self, pool: PoolId) -> Vec<ResourceId> {
        self.0.borrow().pool_units(pool).to_vec()
    }

    /// One unit of a pool by index (no allocation, for hot paths).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn pool_unit(&self, pool: PoolId, idx: usize) -> ResourceId {
        self.0.borrow().pool_units(pool)[idx]
    }

    /// See [`Engine::least_loaded_unit_in`].
    #[must_use]
    pub fn least_loaded_unit_in(
        &self,
        pool: PoolId,
        ready_at_ms: f64,
        range: std::ops::Range<usize>,
    ) -> usize {
        self.0
            .borrow()
            .least_loaded_unit_in(pool, ready_at_ms, range)
    }

    /// See [`Engine::most_loaded_unit_in`].
    #[must_use]
    pub fn most_loaded_unit_in(
        &self,
        pool: PoolId,
        ready_at_ms: f64,
        range: std::ops::Range<usize>,
    ) -> usize {
        self.0
            .borrow()
            .most_loaded_unit_in(pool, ready_at_ms, range)
    }

    /// See [`Engine::deps_ready_ms`].
    #[must_use]
    pub fn deps_ready_ms(&self, deps: &[TaskId]) -> f64 {
        self.0.borrow().deps_ready_ms(deps)
    }

    /// See [`Engine::submit`].
    pub fn submit(
        &self,
        label: &str,
        resource: Option<ResourceId>,
        duration_ms: f64,
        deps: &[TaskId],
    ) -> TaskId {
        self.0
            .borrow_mut()
            .submit(label, resource, duration_ms, deps)
    }

    /// See [`Engine::intern`].
    pub fn intern(&self, label: &str) -> Rc<str> {
        self.0.borrow_mut().intern(label)
    }

    /// See [`Engine::submit_interned`].
    pub fn submit_interned(
        &self,
        label: &Rc<str>,
        resource: Option<ResourceId>,
        duration_ms: f64,
        deps: &[TaskId],
    ) -> TaskId {
        self.0
            .borrow_mut()
            .submit_interned(label, resource, duration_ms, deps)
    }

    /// See [`Engine::submit_at`].
    pub fn submit_at(
        &self,
        label: &str,
        resource: Option<ResourceId>,
        ready_at_ms: f64,
        duration_ms: f64,
        deps: &[TaskId],
    ) -> TaskId {
        self.0
            .borrow_mut()
            .submit_at(label, resource, ready_at_ms, duration_ms, deps)
    }

    /// See [`Engine::start_of`].
    #[must_use]
    pub fn start_of(&self, id: TaskId) -> f64 {
        self.0.borrow().start_of(id)
    }

    /// See [`Engine::end_of`].
    #[must_use]
    pub fn end_of(&self, id: TaskId) -> f64 {
        self.0.borrow().end_of(id)
    }

    /// See [`Engine::free_at`].
    #[must_use]
    pub fn free_at(&self, id: ResourceId) -> f64 {
        self.0.borrow().free_at(id)
    }

    /// See [`Engine::busy_ms`].
    #[must_use]
    pub fn busy_ms(&self, id: ResourceId) -> f64 {
        self.0.borrow().busy_ms(id)
    }

    /// See [`Engine::pool_busy_ms`].
    #[must_use]
    pub fn pool_busy_ms(&self, pool: PoolId) -> f64 {
        self.0.borrow().pool_busy_ms(pool)
    }

    /// See [`Engine::pool_utilization`].
    #[must_use]
    pub fn pool_utilization(&self, pool: PoolId) -> f64 {
        self.0.borrow().pool_utilization(pool)
    }

    /// See [`Engine::makespan`].
    #[must_use]
    pub fn makespan(&self) -> f64 {
        self.0.borrow().makespan()
    }

    /// See [`Engine::verify_exclusivity`].
    #[must_use]
    pub fn verify_exclusivity(&self) -> bool {
        self.0.borrow().verify_exclusivity()
    }

    /// Number of tasks submitted so far (retired history included).
    #[must_use]
    pub fn task_count(&self) -> usize {
        let e = self.0.borrow();
        e.retired_tasks() + e.live_tasks()
    }

    /// See [`Engine::retire_before`].
    pub fn retire_before(&self, t_ms: f64) -> usize {
        self.0.borrow_mut().retire_before(t_ms)
    }

    /// See [`Engine::live_tasks`].
    #[must_use]
    pub fn live_tasks(&self) -> usize {
        self.0.borrow().live_tasks()
    }

    /// See [`Engine::retired_tasks`].
    #[must_use]
    pub fn retired_tasks(&self) -> usize {
        self.0.borrow().retired_tasks()
    }

    /// See [`Engine::resource_count`].
    #[must_use]
    pub fn resource_count(&self) -> usize {
        self.0.borrow().resource_count()
    }

    /// See [`Engine::max_live_intervals`].
    #[must_use]
    pub fn max_live_intervals(&self) -> usize {
        self.0.borrow().max_live_intervals()
    }

    /// Runs a closure against the underlying engine (escape hatch for
    /// read-only inspection not covered by the mirror methods).
    pub fn with<R>(&self, f: impl FnOnce(&Engine) -> R) -> R {
        f(&self.0.borrow())
    }
}

impl fmt::Display for SharedEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.borrow().fmt(f)
    }
}

/// Runs `f` over `items` on up to `available_parallelism` worker threads,
/// preserving input order. The shared sweep primitive: independent
/// simulations (fleets, figure rows) fan out without oversubscribing the
/// machine or holding every result's engine in flight at once.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = std::thread::available_parallelism().map_or(4, |w| w.get());
    parallel_map_with(workers, items, f)
}

/// [`parallel_map`] with an explicit worker-thread cap (at least 1 thread
/// runs; the cap is also clamped to the item count). Results are written
/// into input-order slots and work is handed out through one shared
/// counter, so the output — and, for item-local `f`, every byte of it — is
/// independent of the worker count: a sharded sweep can assert bit-equal
/// results across `workers = 1, 2, n`.
pub fn parallel_map_with<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let n = items.len();
    let workers = workers.max(1).min(n.max(1));
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<&mut Option<R>>> = out.iter_mut().map(Mutex::new).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(&items[i]);
                **slots[i].lock().expect("slot lock") = Some(r);
            });
        }
    });
    out.into_iter()
        .map(|r| r.expect("all slots filled"))
        .collect()
}

fn truncate(s: &str, n: usize) -> &str {
    match s.char_indices().nth(n) {
        Some((idx, _)) => &s[..idx],
        None => s,
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} tasks over {} resources, makespan {:.2} ms",
            self.tasks.len(),
            self.resources.len(),
            self.makespan()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Places a task the way a session rig does: select the least-loaded
    /// unit of `range` at the dependencies' ready time, then submit to it.
    fn submit_least_loaded(
        sim: &mut Engine,
        label: &str,
        pool: PoolId,
        duration_ms: f64,
        deps: &[TaskId],
        range: std::ops::Range<usize>,
    ) -> TaskId {
        let ready = sim.deps_ready_ms(deps);
        let unit = sim.pool_units(pool)[sim.least_loaded_unit_in(pool, ready, range)];
        sim.submit(label, Some(unit), duration_ms, deps)
    }

    #[test]
    fn a_task_record_is_40_bytes() {
        // `retire_before` moves every live task and `submit` pushes one,
        // so the record's size is copy traffic on the hot path.
        assert_eq!(std::mem::size_of::<Option<ResourceId>>(), 8);
        assert_eq!(std::mem::size_of::<ScheduledTask>(), 40);
    }

    #[test]
    fn independent_tasks_on_distinct_resources_overlap() {
        let mut sim = Engine::new();
        let gpu = sim.resource("GPU");
        let net = sim.resource("NET");
        let a = sim.submit("a", Some(gpu), 5.0, &[]);
        let b = sim.submit("b", Some(net), 3.0, &[]);
        assert_eq!(sim.start_of(a), 0.0);
        assert_eq!(sim.start_of(b), 0.0);
        assert_eq!(sim.makespan(), 5.0);
    }

    #[test]
    fn same_resource_serializes_in_submission_order() {
        let mut sim = Engine::new();
        let gpu = sim.resource("GPU");
        let a = sim.submit("a", Some(gpu), 5.0, &[]);
        let b = sim.submit("b", Some(gpu), 2.0, &[]);
        assert_eq!(sim.end_of(a), 5.0);
        assert_eq!(sim.start_of(b), 5.0);
        assert_eq!(sim.end_of(b), 7.0);
        assert!(sim.verify_exclusivity());
    }

    #[test]
    fn dependencies_gate_start() {
        let mut sim = Engine::new();
        let gpu = sim.resource("GPU");
        let net = sim.resource("NET");
        let render = sim.submit("LR", Some(gpu), 4.0, &[]);
        let fetch = sim.submit("RR", Some(net), 9.0, &[]);
        let compose = sim.submit("C", Some(gpu), 1.0, &[render, fetch]);
        assert_eq!(sim.start_of(compose), 9.0);
        assert_eq!(sim.end_of(compose), 10.0);
    }

    #[test]
    fn delay_tasks_consume_no_resource() {
        let mut sim = Engine::new();
        let gpu = sim.resource("GPU");
        let wait = sim.submit("sensor", None, 2.0, &[]);
        let render = sim.submit("LR", Some(gpu), 3.0, &[wait]);
        assert_eq!(sim.start_of(render), 2.0);
        assert_eq!(sim.busy_ms(gpu), 3.0);
    }

    #[test]
    fn submit_at_releases_at_absolute_time() {
        let mut sim = Engine::new();
        let gpu = sim.resource("GPU");
        let t = sim.submit_at("frame2:LR", Some(gpu), 11.1, 4.0, &[]);
        assert_eq!(sim.start_of(t), 11.1);
        assert_eq!(sim.end_of(t), 15.1);
    }

    #[test]
    fn cross_frame_contention_delays_next_frame() {
        // Fig. 4-(3): composition on the GPU delays the next frame's local
        // rendering; a UCA (separate resource) would not.
        let mut sim = Engine::new();
        let gpu = sim.resource("GPU");
        let lr1 = sim.submit("f1:LR", Some(gpu), 6.0, &[]);
        let c1 = sim.submit("f1:C+ATW", Some(gpu), 3.0, &[lr1]);
        let lr2 = sim.submit("f2:LR", Some(gpu), 6.0, &[]);
        assert_eq!(
            sim.start_of(lr2),
            sim.end_of(c1),
            "contention must delay frame 2"
        );

        let mut sim2 = Engine::new();
        let gpu2 = sim2.resource("GPU");
        let uca = sim2.resource("UCA");
        let lr1 = sim2.submit("f1:LR", Some(gpu2), 6.0, &[]);
        let _c1 = sim2.submit("f1:UCA", Some(uca), 3.0, &[lr1]);
        let lr2 = sim2.submit("f2:LR", Some(gpu2), 6.0, &[]);
        assert_eq!(sim2.start_of(lr2), 6.0, "UCA removes the contention");
    }

    #[test]
    fn busy_and_utilization_accumulate() {
        let mut sim = Engine::new();
        let gpu = sim.resource("GPU");
        sim.submit("a", Some(gpu), 4.0, &[]);
        let wait = sim.submit("idle", None, 6.0, &[]);
        sim.submit("b", Some(gpu), 2.0, &[wait]);
        assert_eq!(sim.busy_ms(gpu), 6.0);
        assert_eq!(sim.makespan(), 8.0);
        assert!((sim.utilization(gpu) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn resource_lookup_is_idempotent() {
        let mut sim = Engine::new();
        let a = sim.resource("GPU");
        let b = sim.resource("GPU");
        assert_eq!(a, b);
        assert_eq!(sim.resource_name(a), "GPU");
    }

    #[test]
    fn empty_engine_is_sane() {
        let sim = Engine::new();
        assert_eq!(sim.makespan(), 0.0);
        assert!(sim.verify_exclusivity());
        assert!(sim.tasks().is_empty());
    }

    #[test]
    #[should_panic(expected = "duration")]
    fn negative_duration_rejected() {
        let mut sim = Engine::new();
        let gpu = sim.resource("GPU");
        sim.submit("bad", Some(gpu), -1.0, &[]);
    }

    #[test]
    fn timeline_renders_bars() {
        let mut sim = Engine::new();
        let gpu = sim.resource("GPU");
        let a = sim.submit("render", Some(gpu), 5.0, &[]);
        sim.submit("compose", Some(gpu), 5.0, &[a]);
        let chart = sim.timeline(10);
        assert!(chart.contains("render"));
        assert!(chart.contains('#'));
        assert!(chart.contains("GPU"));
    }

    #[test]
    fn pool_units_run_in_parallel() {
        let mut sim = Engine::new();
        let pool = sim.resource_pool("RGPU", 4);
        for i in 0..4 {
            let t = submit_least_loaded(&mut sim, &format!("t{i}"), pool, 5.0, &[], 0..4);
            assert_eq!(sim.start_of(t), 0.0, "unit {i} should be free");
        }
        let queued = submit_least_loaded(&mut sim, "t4", pool, 5.0, &[], 0..4);
        assert_eq!(sim.start_of(queued), 5.0, "fifth task must queue");
        assert!(sim.verify_exclusivity());
        assert_eq!(sim.makespan(), 10.0);
    }

    #[test]
    fn restricted_selection_stays_inside_its_slice() {
        let mut sim = Engine::new();
        let pool = sim.resource_pool("P", 4);
        let units = sim.pool_units(pool).to_vec();
        // Unit 2 is the emptiest overall, but a [0, 2) restriction must
        // never pick it.
        sim.submit("l0", Some(units[0]), 9.0, &[]);
        sim.submit("l1", Some(units[1]), 5.0, &[]);
        sim.submit("l3", Some(units[3]), 7.0, &[]);
        assert_eq!(sim.least_loaded_unit_in(pool, 0.0, 0..4), 2);
        assert_eq!(sim.least_loaded_unit_in(pool, 0.0, 0..2), 1);
        let t = submit_least_loaded(&mut sim, "confined", pool, 1.0, &[], 0..2);
        assert_eq!(sim.start_of(t), 5.0, "queued on unit 1, not free unit 2");
        assert_eq!(sim.busy_ms(units[2]), 0.0, "the excluded unit stays idle");
    }

    #[test]
    fn selection_total_order_breaks_exact_ties_by_free_then_index() {
        let mut sim = Engine::new();
        let pool = sim.resource_pool("P", 3);
        let units = sim.pool_units(pool).to_vec();
        // Every unit starts a ready-at-6 task at exactly 6.0 (free at 4, 2,
        // and 0) — the start-time tie breaks to the earliest-free unit.
        sim.submit("a", Some(units[0]), 4.0, &[]);
        sim.submit("b", Some(units[1]), 2.0, &[]);
        assert_eq!(
            sim.least_loaded_unit_in(pool, 6.0, 0..3),
            2,
            "lowest free_at wins"
        );
        // All units exactly equal → lowest index.
        let mut e = Engine::new();
        let q = e.resource_pool("Q", 3);
        assert_eq!(e.least_loaded_unit_in(q, 0.0, 0..3), 0);
    }

    #[test]
    fn most_loaded_unit_picks_the_latest_start() {
        let mut sim = Engine::new();
        let pool = sim.resource_pool("P", 3);
        let units = sim.pool_units(pool).to_vec();
        sim.submit("a", Some(units[0]), 3.0, &[]);
        sim.submit("b", Some(units[2]), 8.0, &[]);
        assert_eq!(sim.most_loaded_unit_in(pool, 0.0, 0..3), 2);
        assert_eq!(sim.most_loaded_unit_in(pool, 0.0, 0..2), 0);
        // Exact ties break to the lowest index.
        let mut e = Engine::new();
        let q = e.resource_pool("Q", 2);
        assert_eq!(e.most_loaded_unit_in(q, 0.0, 0..2), 0);
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn empty_selection_range_rejected() {
        let mut sim = Engine::new();
        let pool = sim.resource_pool("P", 2);
        let _ = sim.least_loaded_unit_in(pool, 0.0, 1..1);
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn out_of_bounds_selection_range_rejected() {
        let mut sim = Engine::new();
        let pool = sim.resource_pool("P", 2);
        let _ = sim.most_loaded_unit_in(pool, 0.0, 0..3);
    }

    #[test]
    fn pool_selection_prefers_earliest_start() {
        let mut sim = Engine::new();
        let pool = sim.resource_pool("P", 2);
        let units = sim.pool_units(pool).to_vec();
        // Load unit 0 with 10 ms; a new task must land on unit 1.
        sim.submit("busy", Some(units[0]), 10.0, &[]);
        let t = submit_least_loaded(&mut sim, "next", pool, 1.0, &[], 0..2);
        assert_eq!(sim.start_of(t), 0.0);
        assert_eq!(sim.busy_ms(units[1]), 1.0);
    }

    #[test]
    fn single_unit_pool_matches_plain_resource() {
        // The same submission sequence through a k = 1 pool and through the
        // classic single-resource API must produce identical schedules.
        let mut pooled = Engine::new();
        let pool = pooled.resource_pool("GPU", 1);
        let mut plain = Engine::new();
        let gpu = plain.resource("GPU");
        let durations = [4.0, 2.5, 7.0, 0.5, 3.0];
        for (i, d) in durations.iter().enumerate() {
            let a = submit_least_loaded(&mut pooled, &format!("t{i}"), pool, *d, &[], 0..1);
            let b = plain.submit(&format!("t{i}"), Some(gpu), *d, &[]);
            assert_eq!(pooled.start_of(a), plain.start_of(b));
            assert_eq!(pooled.end_of(a), plain.end_of(b));
        }
        assert_eq!(pooled.makespan(), plain.makespan());
    }

    #[test]
    fn single_unit_pool_shares_the_plain_resource() {
        let mut sim = Engine::new();
        let pool = sim.resource_pool("SENC", 1);
        let direct = sim.resource("SENC");
        assert_eq!(sim.pool_units(pool), &[direct]);
    }

    #[test]
    fn pool_lookup_is_idempotent() {
        let mut sim = Engine::new();
        let a = sim.resource_pool("RGPU", 3);
        let b = sim.resource_pool("RGPU", 3);
        assert_eq!(a, b);
        assert_eq!(sim.pool_size(a), 3);
    }

    #[test]
    #[should_panic(expected = "different unit count")]
    fn pool_size_conflict_rejected() {
        let mut sim = Engine::new();
        sim.resource_pool("RGPU", 3);
        sim.resource_pool("RGPU", 4);
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn empty_pool_rejected() {
        let mut sim = Engine::new();
        sim.resource_pool("RGPU", 0);
    }

    #[test]
    fn pool_busy_and_utilization_aggregate_units() {
        let mut sim = Engine::new();
        let pool = sim.resource_pool("P", 2);
        submit_least_loaded(&mut sim, "a", pool, 4.0, &[], 0..2);
        submit_least_loaded(&mut sim, "b", pool, 2.0, &[], 0..2);
        assert_eq!(sim.pool_busy_ms(pool), 6.0);
        // Makespan 4, two units: 6 / 8 = 0.75.
        assert!((sim.pool_utilization(pool) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn shared_engine_mirrors_and_aliases() {
        let eng = SharedEngine::new();
        let other = eng.clone();
        let gpu = eng.resource("GPU");
        let a = eng.submit("a", Some(gpu), 5.0, &[]);
        // The clone sees the same schedule and extends it.
        let b = other.submit("b", Some(gpu), 2.0, &[a]);
        assert_eq!(eng.start_of(b), 5.0);
        assert_eq!(eng.makespan(), 7.0);
        assert_eq!(eng.task_count(), 2);
        assert!(eng.verify_exclusivity());
        assert!(eng.to_string().contains("2 tasks"));
        assert_eq!(other.with(|e| e.tasks().len()), 2);
    }

    #[test]
    fn retirement_drops_history_but_keeps_aggregates_exact() {
        let mut sim = Engine::new();
        let gpu = sim.resource("GPU");
        let mut last = None;
        for i in 0..50 {
            let deps: Vec<TaskId> = last.into_iter().collect();
            last = Some(sim.submit(&format!("t{i}"), Some(gpu), 2.0, &deps));
        }
        let makespan_before = sim.makespan();
        let busy_before = sim.busy_ms(gpu);
        let retired = sim.retire_before(60.0);
        assert_eq!(retired, 30, "tasks ending at or before 60 ms retire");
        assert_eq!(sim.retired_tasks(), 30);
        assert_eq!(sim.live_tasks(), 20);
        assert_eq!(sim.live_intervals(gpu), 20);
        assert_eq!(sim.makespan(), makespan_before);
        assert_eq!(sim.busy_ms(gpu), busy_before);
        // Live ids keep working; new submissions keep dense ids.
        assert_eq!(sim.end_of(last.unwrap()), 100.0);
        let next = sim.submit("t50", Some(gpu), 1.0, &[last.unwrap()]);
        assert_eq!(sim.start_of(next), 100.0);
        assert!(sim.verify_exclusivity());
    }

    #[test]
    fn retirement_folds_interval_busy_into_the_cumulative_counter() {
        // The by-construction guarantee behind retirement-proof energy
        // accounting: interval-derived busy time equals the submission-time
        // accumulator before retirement, after a partial retirement, and
        // after everything retired.
        let mut sim = Engine::new();
        let gpu = sim.resource("GPU");
        let durations = [3.5, 1.25, 7.0, 0.75, 2.0];
        for (i, d) in durations.iter().enumerate() {
            sim.submit(&format!("t{i}"), Some(gpu), *d, &[]);
        }
        let total: f64 = durations.iter().sum();
        assert!((sim.interval_busy_ms(gpu) - total).abs() < 1e-12);
        sim.retire_before(5.0); // drops the first two intervals
        assert_eq!(sim.live_intervals(gpu), 3);
        assert!((sim.interval_busy_ms(gpu) - sim.busy_ms(gpu)).abs() < 1e-12);
        sim.retire_before(1e9);
        assert_eq!(sim.live_intervals(gpu), 0);
        assert!((sim.interval_busy_ms(gpu) - total).abs() < 1e-12);
        assert!((sim.busy_ms(gpu) - total).abs() < 1e-12);
    }

    #[test]
    fn retirement_is_a_noop_on_future_tasks() {
        let mut sim = Engine::new();
        let gpu = sim.resource("GPU");
        let t = sim.submit("a", Some(gpu), 5.0, &[]);
        assert_eq!(sim.retire_before(4.9), 0);
        assert_eq!(sim.end_of(t), 5.0);
        assert_eq!(sim.retired_tasks(), 0);
    }

    #[test]
    #[should_panic(expected = "retired")]
    fn retired_dependency_lookup_panics() {
        let mut sim = Engine::new();
        let gpu = sim.resource("GPU");
        let old = sim.submit("old", Some(gpu), 1.0, &[]);
        sim.retire_before(1.0);
        let _ = sim.end_of(old);
    }

    #[test]
    fn retirement_keeps_pool_accounting() {
        let mut sim = Engine::new();
        let pool = sim.resource_pool("P", 2);
        for i in 0..8 {
            submit_least_loaded(&mut sim, &format!("t{i}"), pool, 3.0, &[], 0..2);
        }
        let util_before = sim.pool_utilization(pool);
        sim.retire_before(6.0);
        assert_eq!(sim.pool_utilization(pool), util_before);
        assert_eq!(sim.pool_busy_ms(pool), 24.0);
        assert!(sim.max_live_intervals() <= 2);
    }

    #[test]
    fn repeated_exclusivity_queries_return_identical_results() {
        // Verification is a pure function of the current schedule:
        // querying many times (with submissions interleaved) returns the
        // same verdict every time, across resources of different interval
        // counts.
        let mut sim = Engine::new();
        let gpu = sim.resource("GPU");
        let net = sim.resource("NET");
        for i in 0..20 {
            sim.submit(&format!("g{i}"), Some(gpu), 1.5, &[]);
            let first = sim.verify_exclusivity();
            for _ in 0..3 {
                assert_eq!(sim.verify_exclusivity(), first);
            }
            assert!(first);
        }
        sim.submit("n0", Some(net), 4.0, &[]);
        assert!(sim.verify_exclusivity());
        assert!(sim.verify_exclusivity());
    }

    #[test]
    fn labels_are_interned_across_submissions() {
        let mut sim = Engine::new();
        let gpu = sim.resource("GPU");
        let a = sim.submit("LR", Some(gpu), 1.0, &[]);
        let b = sim.submit("LR", Some(gpu), 2.0, &[a]);
        let tasks = sim.tasks();
        assert!(
            Rc::ptr_eq(&tasks[a.0].label, &tasks[b.0].label),
            "same label must share one allocation"
        );
        assert_eq!(&*tasks[b.0].label, "LR");
    }

    #[test]
    fn interned_submission_schedules_exactly_like_submission_by_text() {
        // One pseudo-random submission sequence (mixed resources, delays,
        // dependency chains, periodic retirement) through `submit(&str)`
        // on one engine and `submit_interned` on another.
        let names = ["LR", "C", "remote:rr0", "remote:tx11", "pose", "ATW"];
        let mut by_text = Engine::new();
        let mut by_handle = Engine::new();
        let res_t = ["GPU", "NET", "CPU"].map(|n| by_text.resource(n));
        let res_h = ["GPU", "NET", "CPU"].map(|n| by_handle.resource(n));
        let handles = names.map(|n| by_handle.intern(n));
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut prev: Option<TaskId> = None;
        for step in 0..400 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let pick = (x >> 33) as usize;
            let n = pick % names.len();
            let r = (pick / names.len()) % 4;
            let duration = f64::from((x >> 44) as u32 % 1000) / 64.0;
            let mut deps = DepList::new();
            if let Some(p) = prev.filter(|_| !pick.is_multiple_of(3)) {
                deps.push(p);
            }
            let a = by_text.submit(names[n], res_t.get(r).copied(), duration, &deps);
            let b = by_handle.submit_interned(&handles[n], res_h.get(r).copied(), duration, &deps);
            assert_eq!(a, b, "step {step}");
            assert_eq!(
                by_text.start_of(a).to_bits(),
                by_handle.start_of(b).to_bits()
            );
            assert_eq!(by_text.end_of(a).to_bits(), by_handle.end_of(b).to_bits());
            let pooled = by_text.intern(names[n]);
            let (ta, tb) = (by_text.tasks().last(), by_handle.tasks().last());
            let (ta, tb) = (ta.expect("submitted"), tb.expect("submitted"));
            assert_eq!(ta.resource, tb.resource);
            assert!(Rc::ptr_eq(&tb.label, &handles[n]), "handle path shares");
            assert!(Rc::ptr_eq(&ta.label, &pooled), "text path shares");
            prev = Some(a);
            if step % 50 == 49 {
                let cut = by_text.end_of(a) - 40.0;
                assert_eq!(by_text.retire_before(cut), by_handle.retire_before(cut));
            }
        }
        assert_eq!(by_text.makespan().to_bits(), by_handle.makespan().to_bits());
        for (ra, rb) in res_t.iter().zip(&res_h) {
            assert_eq!(
                by_text.busy_ms(*ra).to_bits(),
                by_handle.busy_ms(*rb).to_bits()
            );
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not interned")]
    fn foreign_label_handles_are_rejected_in_debug_builds() {
        let mut sim = Engine::new();
        let gpu = sim.resource("GPU");
        let _ = sim.intern("LR");
        let foreign: Rc<str> = Rc::from("LR");
        sim.submit_interned(&foreign, Some(gpu), 1.0, &[]);
    }

    #[test]
    fn dep_list_holds_inline_and_derefs_to_slice() {
        let mut sim = Engine::new();
        let gpu = sim.resource("GPU");
        let a = sim.submit("a", Some(gpu), 2.0, &[]);
        let b = sim.submit("b", Some(gpu), 3.0, &[]);
        let mut deps = DepList::new();
        assert!(deps.is_empty());
        deps.push(a);
        deps.push(b);
        assert_eq!(deps.len(), 2);
        assert_eq!(deps.as_slice(), &[a, b]);
        let c = sim.submit("c", None, 1.0, &deps);
        assert_eq!(sim.start_of(c), 5.0, "gated on the later dependency");
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn dep_list_overflow_panics() {
        let mut sim = Engine::new();
        let gpu = sim.resource("GPU");
        let t = sim.submit("t", Some(gpu), 1.0, &[]);
        let mut deps = DepList::new();
        for _ in 0..=DepList::CAPACITY {
            deps.push(t);
        }
    }

    #[test]
    fn long_pipeline_stays_causal() {
        // 100 frames of a 3-stage pipeline over 3 resources; steady-state
        // throughput must be set by the slowest stage.
        let mut sim = Engine::new();
        let cpu = sim.resource("CPU");
        let gpu = sim.resource("GPU");
        let net = sim.resource("NET");
        let mut prev_end = None;
        for i in 0..100 {
            let setup = sim.submit(&format!("f{i}:setup"), Some(cpu), 1.0, &[]);
            let render = sim.submit(&format!("f{i}:render"), Some(gpu), 4.0, &[setup]);
            let deps: Vec<TaskId> = match prev_end {
                Some(p) => vec![render, p],
                None => vec![render],
            };
            let tx = sim.submit(&format!("f{i}:tx"), Some(net), 2.0, &deps);
            prev_end = Some(tx);
        }
        assert!(sim.verify_exclusivity());
        // Slowest stage is the 4 ms GPU stage; 100 frames ≥ ~400 ms.
        let span = sim.makespan();
        assert!((400.0..420.0).contains(&span), "makespan {span}");
    }
}
