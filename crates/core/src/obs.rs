//! Observability over the telemetry seam: span tracing, mergeable
//! metrics, and a streaming SLO health monitor (DESIGN.md §13).
//!
//! PR 5's sinks made fleet statistics *streamable* and PR 7 made them
//! *mergeable*; this module makes them *explainable*. Three parts, all
//! ordinary [`TelemetrySink`]s riding the existing fan-out so they
//! inherit batching and shard-cell merge semantics for free:
//!
//! * [`TraceSink`] — records the per-stage span breakdown
//!   ([`crate::telemetry::FrameSpans`]) of deterministically *sampled*
//!   sessions and exports Chrome-trace / Perfetto JSON: one track per
//!   session, one per server GPU unit, so the §7 coupling artifacts (a
//!   best-effort tenant's chain pinning a unit's frontier while an
//!   adaptive tenant's network span stretches) are visible instead of
//!   inferred from percentiles.
//! * [`MetricsSink`] — per-tenant-class MTP / tx / stage-busy
//!   [`Histogram`]s plus exact integer counters, with a Prometheus-style
//!   text [exposition](MetricsSink::exposition). Histogram buckets merge
//!   by `u64` addition, so `ShardSummary::merge` folds cell expositions
//!   shard-wide bit-identically to one sink over the concatenated stream
//!   — the monitoring path that replaces O(run) sample retention at
//!   fleet scale (the exact `SortedSamples` path stays the default for
//!   the golden numbers).
//! * [`HealthMonitor`] — evaluates SLO rules ([`HealthRules`]: p95-MTP
//!   ceiling, FPS floor, energy-per-frame budget, utilization band) over
//!   sliding histogram windows as the fleet's closing frontier advances,
//!   emitting a deterministic timestamped [`Incident`] timeline (breach
//!   open/close, severity, offending class).
//!
//! Everything here observes and never steers: at default configuration
//! none of these sinks run, and when they do run they only consume the
//! event stream, so schedules, RNG draws, and the fig_fleet goldens stay
//! bit-identical.

use crate::metrics::Histogram;
use crate::sched::TenantClass;
use crate::telemetry::{FrameEvent, StageSpan, TelemetrySink, Windows};
use qvr_energy::ServerPowerModel;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fmt::Write as _;

/// Dense index for the two tenant classes (per-class metric arrays).
fn class_index(class: TenantClass) -> usize {
    match class {
        TenantClass::Adaptive => 0,
        TenantClass::BestEffort => 1,
    }
}

/// The two classes in index order (exposition renders both, always, so
/// the line set is fixed and merge-stable).
const CLASSES: [TenantClass; 2] = [TenantClass::Adaptive, TenantClass::BestEffort];

// ---------------------------------------------------------------------------
// (a) Span tracing
// ---------------------------------------------------------------------------

/// Which sessions a [`TraceSink`] records: a seeded, deterministic
/// 1-in-N hash sample over session slots. The same `(seed,
/// sample_one_in)` pair picks the same slots on every run, every worker
/// count, and every rerun — sampling is a pure function of the slot id,
/// never of arrival order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Sampling seed (mixed with the slot id; independent of the fleet's
    /// simulation seed so tracing cannot perturb schedules).
    pub seed: u64,
    /// Record one session in this many (1 = trace everything).
    pub sample_one_in: u32,
}

impl Default for TraceConfig {
    /// Trace every session (the small-fleet debugging default).
    fn default() -> Self {
        TraceConfig {
            seed: 0,
            sample_one_in: 1,
        }
    }
}

impl TraceConfig {
    /// A config sampling one session in `sample_one_in` under `seed`.
    #[must_use]
    pub fn sampled(seed: u64, sample_one_in: u32) -> Self {
        TraceConfig {
            seed,
            sample_one_in: sample_one_in.max(1),
        }
    }

    /// Whether this configuration records session slot `session` — the
    /// public sampling predicate (tests pick seeds with known sampled
    /// slots through it).
    #[must_use]
    pub fn samples_session(&self, session: usize) -> bool {
        if self.sample_one_in <= 1 {
            return true;
        }
        splitmix64(self.seed ^ (session as u64)).is_multiple_of(u64::from(self.sample_one_in))
    }
}

/// SplitMix64 finaliser — a well-mixed stateless hash for the sampling
/// predicate.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Records sampled sessions' frame events (each carrying its
/// [`crate::telemetry::FrameSpans`]) and exports them as Chrome-trace /
/// Perfetto JSON — load the dump at `chrome://tracing` or
/// <https://ui.perfetto.dev>.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSink {
    config: TraceConfig,
    events: Vec<FrameEvent>,
}

impl TraceSink {
    /// An empty sink recording under `config`.
    #[must_use]
    pub fn new(config: TraceConfig) -> Self {
        TraceSink {
            config,
            events: Vec::new(),
        }
    }

    /// Recorded events, in stream order.
    #[must_use]
    pub fn events(&self) -> &[FrameEvent] {
        &self.events
    }

    /// Number of recorded frames.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders the recording as Chrome-trace JSON (the "JSON Array
    /// Format" with complete `ph:"X"` slices). Two process groups:
    /// pid 1 is *sessions* (one track per sampled slot, all six pipeline
    /// stages), pid 2 is *server units* (one track per GPU unit, carrying
    /// the server-side render/encode slices of every sampled session that
    /// landed there — cross-session unit coupling reads directly off this
    /// group). Timestamps are virtual-time microseconds (`ts = ms ×
    /// 1000`). Deterministic: stream order plus Rust's shortest-roundtrip
    /// float formatting.
    #[must_use]
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let mut first = true;
        let meta =
            |out: &mut String, first: &mut bool, pid: usize, tid: usize, kind: &str, name: &str| {
                sep(out, first);
                let _ = write!(
                    out,
                    "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{kind}\",\
                 \"args\":{{\"name\":\"{name}\"}}}}"
                );
            };
        meta(&mut out, &mut first, 1, 0, "process_name", "sessions");
        meta(&mut out, &mut first, 2, 0, "process_name", "server units");
        let sessions: BTreeSet<usize> = self.events.iter().map(|e| e.session).collect();
        for &s in &sessions {
            let label = format!("session {s}");
            meta(&mut out, &mut first, 1, s, "thread_name", &label);
        }
        let units: BTreeSet<usize> = self.events.iter().filter_map(|e| e.unit).collect();
        for &u in &units {
            let label = format!("unit {u}");
            meta(&mut out, &mut first, 2, u, "thread_name", &label);
        }
        for e in &self.events {
            let stages: [(&str, StageSpan); 6] = [
                ("upload", e.spans.upload),
                ("render", e.spans.render),
                ("encode", e.spans.encode),
                ("network", e.spans.network),
                ("decode", e.spans.decode),
                ("display", e.spans.display),
            ];
            for (name, span) in stages {
                if span.is_empty() {
                    continue;
                }
                sep(&mut out, &mut first);
                slice(&mut out, name, span, 1, e.session, e);
                // Server-side stages repeat on the serving unit's track.
                if let (Some(u), "render" | "encode") = (e.unit, name) {
                    sep(&mut out, &mut first);
                    slice(&mut out, name, span, 2, u, e);
                }
            }
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Writes the separator between JSON array elements.
fn sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push_str(",\n");
    }
}

/// Writes one complete-slice trace event.
fn slice(out: &mut String, name: &str, span: StageSpan, pid: usize, tid: usize, e: &FrameEvent) {
    let _ = write!(
        out,
        "{{\"name\":\"{name}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
         \"pid\":{pid},\"tid\":{tid},\"args\":{{\"session\":{},\"frame\":{},\
         \"mtp_ms\":{},\"class\":\"{}\"}}}}",
        span.start_ms * 1_000.0,
        span.duration_ms() * 1_000.0,
        e.session,
        e.frame,
        e.mtp_ms,
        e.class.label(),
    );
}

impl TelemetrySink for TraceSink {
    fn on_frame(&mut self, event: &FrameEvent) {
        if self.config.samples_session(event.session) {
            self.events.push(*event);
        }
    }
}

// ---------------------------------------------------------------------------
// (b) Mergeable metrics
// ---------------------------------------------------------------------------

/// One tenant class's metric state: exact integer counters plus bounded
/// log-linear histograms. Everything merges exactly (`u64` adds and
/// bucket-wise histogram absorption), which is what lets a shard fold
/// cell snapshots into a fleet-identical exposition.
#[derive(Debug, Clone, Default, PartialEq)]
struct ClassMetrics {
    /// Frames displayed.
    frames: u64,
    /// Frames whose remote chain touched the server pool.
    server_frames: u64,
    /// Motion-to-photon latency, ms.
    mtp_ms: Histogram,
    /// Downlink bytes per frame.
    tx_bytes: Histogram,
    /// Attributed per-frame busy across server + radio stages, ms.
    stage_busy_ms: Histogram,
    /// Rate-controller codec quality per frame (recorded only when a
    /// tenant's controller is on; empty otherwise).
    quality: Histogram,
}

impl ClassMetrics {
    fn absorb(&mut self, other: &ClassMetrics) {
        self.frames += other.frames;
        self.server_frames += other.server_frames;
        self.mtp_ms.absorb(&other.mtp_ms);
        self.tx_bytes.absorb(&other.tx_bytes);
        self.stage_busy_ms.absorb(&other.stage_busy_ms);
        self.quality.absorb(&other.quality);
    }
}

/// Per-class mergeable metrics over the event stream: MTP / tx /
/// stage-busy [`Histogram`]s (1% relative error) and exact counters,
/// rendered as a Prometheus-style text [`MetricsSink::exposition`].
///
/// The merge law (DESIGN.md §12) holds bit-exactly: counters are `u64`
/// sums and histogram merges are bucket-wise `u64` adds, so K cells'
/// sinks absorbed in any order equal one sink over the concatenated
/// stream — and therefore a 1-cell shard's exposition equals the
/// fleet's, *bitwise* (asserted by `fig_shard`'s identity receipt).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSink {
    classes: [ClassMetrics; 2],
}

impl MetricsSink {
    /// An empty sink at the default 1% histogram accuracy.
    #[must_use]
    pub fn new() -> Self {
        MetricsSink::default()
    }

    /// Total frames observed across classes.
    #[must_use]
    pub fn frames(&self) -> u64 {
        self.classes.iter().map(|c| c.frames).sum()
    }

    /// Folds another sink's state into this one — exact, order- and
    /// association-independent (see the type docs).
    pub fn absorb(&mut self, other: &MetricsSink) {
        for (mine, theirs) in self.classes.iter_mut().zip(&other.classes) {
            mine.absorb(theirs);
        }
    }

    /// Renders the Prometheus-style text exposition: counters, derived
    /// percentile gauges, and cumulative `_bucket{le=...}` histograms per
    /// class. Deterministic by construction — fixed metric/class order,
    /// ascending bucket iteration, integer counts, and Rust's
    /// shortest-roundtrip float formatting — so equal sink states render
    /// byte-identical text.
    #[must_use]
    pub fn exposition(&self) -> String {
        let mut out = String::new();
        out.push_str("# TYPE qvr_frames_total counter\n");
        for class in CLASSES {
            let c = &self.classes[class_index(class)];
            let _ = writeln!(
                out,
                "qvr_frames_total{{class=\"{}\"}} {}",
                class.label(),
                c.frames
            );
        }
        out.push_str("# TYPE qvr_server_frames_total counter\n");
        for class in CLASSES {
            let c = &self.classes[class_index(class)];
            let _ = writeln!(
                out,
                "qvr_server_frames_total{{class=\"{}\"}} {}",
                class.label(),
                c.server_frames
            );
        }
        for (gauge, q) in [
            ("qvr_mtp_p50_ms", 50.0),
            ("qvr_mtp_p95_ms", 95.0),
            ("qvr_mtp_p99_ms", 99.0),
        ] {
            let _ = writeln!(out, "# TYPE {gauge} gauge");
            for class in CLASSES {
                let c = &self.classes[class_index(class)];
                let _ = writeln!(
                    out,
                    "{gauge}{{class=\"{}\"}} {}",
                    class.label(),
                    c.mtp_ms.percentile(q)
                );
            }
        }
        for (name, pick) in [
            ("qvr_mtp_ms", 0usize),
            ("qvr_tx_bytes", 1),
            ("qvr_stage_busy_ms", 2),
            ("qvr_quality", 3),
        ] {
            let _ = writeln!(out, "# TYPE {name} histogram");
            for class in CLASSES {
                let c = &self.classes[class_index(class)];
                let h = match pick {
                    0 => &c.mtp_ms,
                    1 => &c.tx_bytes,
                    2 => &c.stage_busy_ms,
                    _ => &c.quality,
                };
                for (le, cumulative) in h.cumulative_buckets() {
                    let _ = writeln!(
                        out,
                        "{name}_bucket{{class=\"{}\",le=\"{le}\"}} {cumulative}",
                        class.label()
                    );
                }
                let _ = writeln!(
                    out,
                    "{name}_bucket{{class=\"{}\",le=\"+Inf\"}} {}",
                    class.label(),
                    h.count()
                );
                let _ = writeln!(
                    out,
                    "{name}_count{{class=\"{}\"}} {}",
                    class.label(),
                    h.count()
                );
            }
        }
        out
    }
}

impl TelemetrySink for MetricsSink {
    fn on_frame(&mut self, event: &FrameEvent) {
        let c = &mut self.classes[class_index(event.class)];
        c.frames += 1;
        if event.unit.is_some() {
            c.server_frames += 1;
        }
        c.mtp_ms.record(event.mtp_ms);
        c.tx_bytes.record(event.tx_bytes);
        c.stage_busy_ms
            .record(event.server_render_ms + event.server_encode_ms + event.radio_ms);
        if let Some(q) = event.quality {
            c.quality.record(q);
        }
    }
}

/// Parses a Prometheus-style text exposition and re-renders it
/// canonically: `Some(text)` with the reconstructed lines when every line
/// is grammatical (`# TYPE name kind` comments or
/// `name{label="v",...} number` samples, numbers finite), `None`
/// otherwise. For text produced by [`MetricsSink::exposition`] the
/// reconstruction is byte-identical — the round-trip the CI smoke
/// asserts.
#[must_use]
pub fn parse_exposition(text: &str) -> Option<String> {
    let mut out = String::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let name = parts.next()?;
            let kind = parts.next()?;
            if name.is_empty() || parts.next().is_some() {
                return None;
            }
            if !matches!(kind, "counter" | "gauge" | "histogram") {
                return None;
            }
            let _ = writeln!(out, "# TYPE {name} {kind}");
            continue;
        }
        let (series, value) = line.rsplit_once(' ')?;
        if !value.parse::<f64>().is_ok_and(f64::is_finite) && value != "+Inf" {
            return None;
        }
        let (name, labels) = match series.split_once('{') {
            Some((name, rest)) => (name, Some(rest.strip_suffix('}')?)),
            None => (series, None),
        };
        if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return None;
        }
        if let Some(labels) = labels {
            for pair in labels.split(',') {
                let (k, v) = pair.split_once('=')?;
                let v = v.strip_prefix('"')?.strip_suffix('"')?;
                if k.is_empty() || v.contains('"') {
                    return None;
                }
            }
        }
        let _ = writeln!(out, "{series} {value}");
    }
    Some(out)
}

// ---------------------------------------------------------------------------
// (c) Health monitoring
// ---------------------------------------------------------------------------

/// The SLO rule set a [`HealthMonitor`] evaluates per sliding window.
/// `None` rules are skipped; every threshold is over the window, not the
/// run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthRules {
    /// Evaluation window width, virtual ms (half-open buckets
    /// `[k·w, (k+1)·w)` keyed on frame display end, like the windowed
    /// stats sink).
    pub window_ms: f64,
    /// Breach when the window's p95 MTP exceeds this ceiling, ms.
    pub mtp_p95_ceiling_ms: Option<f64>,
    /// Breach when any session's in-window frame rate falls below this
    /// floor, FPS.
    pub fps_floor: Option<f64>,
    /// Breach when active server energy per displayed frame exceeds this
    /// budget, mJ/frame.
    pub energy_per_frame_mj: Option<f64>,
    /// Breach when server GPU utilization leaves `(low, high)`.
    pub utilization_band: Option<(f64, f64)>,
}

impl HealthRules {
    /// Rules with the given window and nothing to evaluate yet.
    ///
    /// # Panics
    /// If `window_ms` is not positive-finite.
    #[must_use]
    pub fn new(window_ms: f64) -> Self {
        assert!(
            window_ms.is_finite() && window_ms > 0.0,
            "health window must be positive"
        );
        HealthRules {
            window_ms,
            mtp_p95_ceiling_ms: None,
            fps_floor: None,
            energy_per_frame_mj: None,
            utilization_band: None,
        }
    }

    /// Returns a copy with a p95-MTP ceiling rule.
    #[must_use]
    pub fn with_mtp_p95_ceiling_ms(mut self, ceiling: f64) -> Self {
        self.mtp_p95_ceiling_ms = Some(ceiling);
        self
    }

    /// Returns a copy with a per-session FPS-floor rule.
    #[must_use]
    pub fn with_fps_floor(mut self, floor: f64) -> Self {
        self.fps_floor = Some(floor);
        self
    }

    /// Returns a copy with an active-server-energy-per-frame budget rule.
    #[must_use]
    pub fn with_energy_per_frame_mj(mut self, budget: f64) -> Self {
        self.energy_per_frame_mj = Some(budget);
        self
    }

    /// Returns a copy with a GPU-utilization band rule.
    #[must_use]
    pub fn with_utilization_band(mut self, low: f64, high: f64) -> Self {
        self.utilization_band = Some((low, high));
        self
    }
}

/// Which SLO rule an [`Incident`] breached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthRuleKind {
    /// The windowed p95 MTP exceeded its ceiling.
    MtpP95,
    /// Some session's windowed frame rate fell under the floor.
    FpsFloor,
    /// Active server energy per frame exceeded its budget.
    EnergyPerFrame,
    /// Server GPU utilization left its band.
    Utilization,
}

impl HealthRuleKind {
    /// Stable display label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            HealthRuleKind::MtpP95 => "p95-mtp",
            HealthRuleKind::FpsFloor => "fps-floor",
            HealthRuleKind::EnergyPerFrame => "energy/frame",
            HealthRuleKind::Utilization => "utilization",
        }
    }

    fn index(self) -> usize {
        match self {
            HealthRuleKind::MtpP95 => 0,
            HealthRuleKind::FpsFloor => 1,
            HealthRuleKind::EnergyPerFrame => 2,
            HealthRuleKind::Utilization => 3,
        }
    }
}

/// Incident severity, ordered so an escalating breach upgrades with
/// `max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Breached by less than 2× the threshold magnitude.
    Warning,
    /// Breached by 2× or worse.
    Critical,
}

impl Severity {
    /// Stable display label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }
}

/// One entry of the deterministic incident timeline: a breach that opened
/// at some window and either closed at a later one or was still open at
/// finish.
#[derive(Debug, Clone, PartialEq)]
pub struct Incident {
    /// The breached rule.
    pub rule: HealthRuleKind,
    /// Worst severity observed while open.
    pub severity: Severity,
    /// Start of the first breaching window, virtual ms.
    pub open_ms: f64,
    /// Start of the first clear window after the breach; `None` when the
    /// run ended with the incident open.
    pub close_ms: Option<f64>,
    /// The rule's threshold (the band edge nearest the breach, for the
    /// utilization rule).
    pub threshold: f64,
    /// Worst observed value while open (highest for ceiling rules, lowest
    /// for floor rules).
    pub peak_value: f64,
    /// The tenant class driving the breach at its worst window.
    pub class: TenantClass,
    /// The shard cell the incident occurred in; `None` for a plain fleet,
    /// stamped by `ShardSummary::merge`.
    pub cell: Option<usize>,
}

impl fmt::Display for Incident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} breach ({}, {}): open @{:.0} ms",
            self.rule.label(),
            self.severity.label(),
            self.class.label(),
            self.open_ms,
        )?;
        match self.close_ms {
            Some(t) => write!(f, ", close @{t:.0} ms")?,
            None => write!(f, ", open at finish")?,
        }
        if let Some(cell) = self.cell {
            write!(f, " [cell {cell}]")?;
        }
        write!(
            f,
            " (peak {:.3} vs threshold {:.3})",
            self.peak_value, self.threshold
        )
    }
}

/// Per-window accumulators the monitor evaluates once the frontier passes
/// the window's end.
#[derive(Debug, Clone, Default)]
struct WindowAccum {
    frames: u64,
    mtp: Histogram,
    /// Per-class counts of samples over the p95 ceiling (offender
    /// attribution for the MTP rule).
    over_ceiling: [u64; 2],
    /// Per-class attributed server busy (render + encode), ms.
    class_busy_ms: [f64; 2],
    /// In-window frame count and last-seen class per session slot (FPS
    /// floor rule).
    per_slot: BTreeMap<usize, (u64, TenantClass)>,
    render_ms: f64,
    encode_ms: f64,
}

/// Streaming SLO monitor: buckets events into half-open windows, and as
/// the caller's closing frontier guarantees a window complete, evaluates
/// every configured [`HealthRules`] rule against it, driving a per-rule
/// breach state machine that opens, escalates, and closes [`Incident`]s.
///
/// Determinism: windows are evaluated strictly in time order, each cell's
/// monitor sees only its own single-threaded stream, and incident
/// timestamps are window boundaries — so the timeline is identical across
/// reruns, and a shard's per-cell timelines concatenate (in cell-id
/// order) identically across worker counts.
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    rules: HealthRules,
    server: ServerPowerModel,
    units: usize,
    windows: Windows<WindowAccum>,
    /// Open incident per rule, as an index into `incidents`.
    active: [Option<usize>; 4],
    incidents: Vec<Incident>,
}

impl HealthMonitor {
    /// A monitor over `units` server GPUs under `server` power figures
    /// (the energy-per-frame rule's model).
    #[must_use]
    pub fn new(rules: HealthRules, server: ServerPowerModel, units: usize) -> Self {
        HealthMonitor {
            rules,
            server,
            units: units.max(1),
            windows: Windows::new(rules.window_ms),
            active: [None; 4],
            incidents: Vec::new(),
        }
    }

    /// Incidents fully recorded so far (open ones included once opened).
    #[must_use]
    pub fn incidents(&self) -> &[Incident] {
        &self.incidents
    }

    /// Evaluates every window that ends at or before `t_ms` (callers pass
    /// the same frontier that drives windowed-stats closing: a time no
    /// future frame can precede).
    pub fn close_before(&mut self, t_ms: f64) {
        while let Some((start_ms, accum)) = self.windows.pop_before(t_ms) {
            self.evaluate(start_ms, accum);
        }
    }

    /// Evaluates all remaining windows and returns the completed
    /// timeline; incidents still open keep `close_ms: None`.
    #[must_use]
    pub fn finish(mut self) -> Vec<Incident> {
        while let Some((start_ms, accum)) = self.windows.pop_first() {
            self.evaluate(start_ms, accum);
        }
        self.incidents
    }

    /// Evaluates one closed window (quiet stretches hold no evidence and
    /// are never evaluated) through the breach state machines.
    fn evaluate(&mut self, start_ms: f64, accum: WindowAccum) {
        let rules = self.rules;
        if let Some(ceiling) = rules.mtp_p95_ceiling_ms {
            let p95 = accum.mtp.p95();
            let offender = if accum.over_ceiling[1] > accum.over_ceiling[0] {
                TenantClass::BestEffort
            } else {
                TenantClass::Adaptive
            };
            self.step_rule(
                HealthRuleKind::MtpP95,
                start_ms,
                p95 > ceiling,
                p95,
                ceiling,
                p95 / ceiling,
                true,
                offender,
            );
        }
        if let Some(floor) = rules.fps_floor {
            let mut worst: Option<(f64, TenantClass)> = None;
            for &(frames, class) in accum.per_slot.values() {
                let fps = frames as f64 * 1_000.0 / rules.window_ms;
                if worst.is_none_or(|(w, _)| fps < w) {
                    worst = Some((fps, class));
                }
            }
            if let Some((fps, class)) = worst {
                self.step_rule(
                    HealthRuleKind::FpsFloor,
                    start_ms,
                    fps < floor,
                    fps,
                    floor,
                    floor / fps.max(1e-9),
                    false,
                    class,
                );
            }
        }
        if let Some(budget) = rules.energy_per_frame_mj {
            let active_mj = self.server.gpu_active_w * accum.render_ms
                + self.server.enc_active_w * accum.encode_ms;
            let per_frame = active_mj / accum.frames as f64;
            let offender = if accum.class_busy_ms[1] > accum.class_busy_ms[0] {
                TenantClass::BestEffort
            } else {
                TenantClass::Adaptive
            };
            self.step_rule(
                HealthRuleKind::EnergyPerFrame,
                start_ms,
                per_frame > budget,
                per_frame,
                budget,
                per_frame / budget,
                true,
                offender,
            );
        }
        if let Some((low, high)) = rules.utilization_band {
            let util = accum.render_ms / (self.units as f64 * rules.window_ms);
            let offender = if accum.class_busy_ms[1] > accum.class_busy_ms[0] {
                TenantClass::BestEffort
            } else {
                TenantClass::Adaptive
            };
            let (breach, threshold, magnitude, high_side) = if util > high {
                (true, high, util / high.max(1e-9), true)
            } else if util < low {
                (true, low, low / util.max(1e-9), false)
            } else {
                (false, high, 1.0, true)
            };
            self.step_rule(
                HealthRuleKind::Utilization,
                start_ms,
                breach,
                util,
                threshold,
                magnitude,
                high_side,
                offender,
            );
        }
    }

    /// One rule's breach state machine for one window: open on a fresh
    /// breach (severity from the breach magnitude — ≥2× is critical),
    /// escalate/track the worst value while breaching, close at the first
    /// clear window.
    #[allow(clippy::too_many_arguments)]
    fn step_rule(
        &mut self,
        rule: HealthRuleKind,
        window_start_ms: f64,
        breach: bool,
        value: f64,
        threshold: f64,
        magnitude: f64,
        worst_is_max: bool,
        offender: TenantClass,
    ) {
        let slot = rule.index();
        match (breach, self.active[slot]) {
            (true, None) => {
                self.active[slot] = Some(self.incidents.len());
                self.incidents.push(Incident {
                    rule,
                    severity: severity_of(magnitude),
                    open_ms: window_start_ms,
                    close_ms: None,
                    threshold,
                    peak_value: value,
                    class: offender,
                    cell: None,
                });
            }
            (true, Some(i)) => {
                let incident = &mut self.incidents[i];
                let worse = if worst_is_max {
                    value > incident.peak_value
                } else {
                    value < incident.peak_value
                };
                if worse {
                    incident.peak_value = value;
                    incident.class = offender;
                }
                incident.severity = incident.severity.max(severity_of(magnitude));
            }
            (false, Some(i)) => {
                self.incidents[i].close_ms = Some(window_start_ms);
                self.active[slot] = None;
            }
            (false, None) => {}
        }
    }
}

/// Severity from a breach magnitude (threshold-relative).
fn severity_of(magnitude: f64) -> Severity {
    if magnitude >= 2.0 {
        Severity::Critical
    } else {
        Severity::Warning
    }
}

impl TelemetrySink for HealthMonitor {
    fn on_frame(&mut self, event: &FrameEvent) {
        let idx = class_index(event.class);
        let accum = self.windows.file(event.end_ms);
        accum.frames += 1;
        accum.mtp.record(event.mtp_ms);
        if let Some(ceiling) = self.rules.mtp_p95_ceiling_ms {
            if event.mtp_ms > ceiling {
                accum.over_ceiling[idx] += 1;
            }
        }
        let busy = event.server_render_ms + event.server_encode_ms;
        accum.class_busy_ms[idx] += busy;
        accum.render_ms += event.server_render_ms;
        accum.encode_ms += event.server_encode_ms;
        let slot = accum
            .per_slot
            .entry(event.session)
            .or_insert((0, event.class));
        slot.0 += 1;
        slot.1 = event.class;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::FrameSpans;

    fn ev(session: usize, end: f64, mtp: f64, class: TenantClass) -> FrameEvent {
        let mut spans = FrameSpans::default();
        spans.render.widen(end - 8.0, end - 5.0);
        spans.network.widen(end - 5.0, end - 1.0);
        spans.display.widen(end - 1.0, end);
        FrameEvent {
            session,
            frame: 0,
            span_start_ms: end - 10.0,
            end_ms: end,
            mtp_ms: mtp,
            tx_bytes: 10_000.0,
            quality: if session.is_multiple_of(2) {
                Some(0.6)
            } else {
                None
            },
            server_render_ms: 3.0,
            server_encode_ms: 1.0,
            radio_ms: 2.0,
            unit: Some(session % 2),
            class,
            spans,
        }
    }

    #[test]
    fn sampling_is_deterministic_and_hits_the_rate() {
        let all = TraceConfig::default();
        assert!((0..64).all(|s| all.samples_session(s)));
        let sparse = TraceConfig::sampled(7, 32);
        let picked: Vec<usize> = (0..4_096).filter(|&s| sparse.samples_session(s)).collect();
        // Same predicate on a rerun, and roughly 1/32 of the population.
        let again: Vec<usize> = (0..4_096).filter(|&s| sparse.samples_session(s)).collect();
        assert_eq!(picked, again);
        assert!(
            (64..=256).contains(&picked.len()),
            "1-in-32 sampling over 4096 slots picked {}",
            picked.len()
        );
    }

    #[test]
    fn trace_sink_records_only_sampled_sessions() {
        // Pick a seed under which slot 0 is sampled and slot 1 is not.
        let config = (0..u64::MAX)
            .map(|seed| TraceConfig::sampled(seed, 32))
            .find(|c| c.samples_session(0) && !c.samples_session(1))
            .unwrap();
        let mut sink = TraceSink::new(config);
        sink.on_frame(&ev(0, 10.0, 15.0, TenantClass::Adaptive));
        sink.on_frame(&ev(1, 11.0, 16.0, TenantClass::BestEffort));
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.events()[0].session, 0);
    }

    #[test]
    fn chrome_trace_has_both_process_groups_and_all_stages() {
        let mut sink = TraceSink::new(TraceConfig::default());
        sink.on_frame(&ev(3, 20.0, 15.0, TenantClass::Adaptive));
        let json = sink.chrome_trace_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\":\"sessions\""));
        assert!(json.contains("\"name\":\"server units\""));
        assert!(json.contains("\"name\":\"session 3\""));
        assert!(json.contains("\"name\":\"unit 1\""));
        assert!(json.contains("\"name\":\"render\""));
        assert!(json.contains("\"name\":\"network\""));
        assert!(json.contains("\"name\":\"display\""));
        // The render slice appears on both the session and the unit track.
        assert_eq!(json.matches("\"name\":\"render\"").count(), 2);
        // An empty stage (no upload span in `ev`) renders no slice.
        assert!(!json.contains("\"name\":\"upload\""));
    }

    #[test]
    fn metrics_merge_matches_concatenated_stream_bitwise() {
        let streams: [Vec<FrameEvent>; 3] = [
            (0..20)
                .map(|i| ev(i % 4, i as f64 * 10.0 + 5.0, 12.0, TenantClass::Adaptive))
                .collect(),
            (0..15)
                .map(|i| ev(i % 3, i as f64 * 9.0 + 4.0, 48.0, TenantClass::BestEffort))
                .collect(),
            (0..7)
                .map(|i| ev(0, i as f64 * 11.0 + 3.0, 90.0, TenantClass::Adaptive))
                .collect(),
        ];
        let mut merged = MetricsSink::new();
        let mut whole = MetricsSink::new();
        for stream in &streams {
            let mut cell = MetricsSink::new();
            for e in stream {
                cell.on_frame(e);
                whole.on_frame(e);
            }
            merged.absorb(&cell);
        }
        assert_eq!(merged, whole);
        assert_eq!(merged.exposition(), whole.exposition());
        assert_eq!(merged.frames(), 42);
    }

    #[test]
    fn exposition_round_trips_and_has_fixed_shape() {
        let mut sink = MetricsSink::new();
        for i in 0..30 {
            let class = if i % 3 == 0 {
                TenantClass::BestEffort
            } else {
                TenantClass::Adaptive
            };
            sink.on_frame(&ev(i % 5, i as f64 * 12.0 + 6.0, 10.0 + i as f64, class));
        }
        let text = sink.exposition();
        assert!(text.contains("qvr_frames_total{class=\"adaptive\"} 20"));
        assert!(text.contains("qvr_frames_total{class=\"best-effort\"} 10"));
        assert!(text.contains("# TYPE qvr_mtp_ms histogram"));
        assert!(text.contains("# TYPE qvr_quality histogram"));
        assert!(text.contains("le=\"+Inf\""));
        assert_eq!(
            parse_exposition(&text).as_deref(),
            Some(text.as_str()),
            "exposition must round-trip byte-identically"
        );
        // The empty sink still renders every family (fixed line set).
        let empty = MetricsSink::new().exposition();
        assert!(empty.contains("qvr_frames_total{class=\"adaptive\"} 0"));
        assert_eq!(parse_exposition(&empty).as_deref(), Some(empty.as_str()));
        // Garbage does not parse.
        assert_eq!(parse_exposition("not a metric line"), None);
        assert_eq!(parse_exposition("name{class=\"a\"} not-a-number"), None);
    }

    fn rules(window: f64) -> HealthRules {
        HealthRules::new(window).with_mtp_p95_ceiling_ms(30.0)
    }

    #[test]
    fn health_monitor_opens_and_closes_incidents_at_window_boundaries() {
        let mut m = HealthMonitor::new(rules(100.0), ServerPowerModel::default(), 4);
        // Window 0: healthy. Windows 1–2: breaching. Window 3: recovered.
        for i in 0..8 {
            m.on_frame(&ev(0, 10.0 + f64::from(i), 12.0, TenantClass::Adaptive));
        }
        for i in 0..8 {
            m.on_frame(&ev(0, 110.0 + f64::from(i), 80.0, TenantClass::BestEffort));
        }
        for i in 0..8 {
            m.on_frame(&ev(0, 210.0 + f64::from(i), 45.0, TenantClass::BestEffort));
        }
        for i in 0..8 {
            m.on_frame(&ev(0, 310.0 + f64::from(i), 11.0, TenantClass::Adaptive));
        }
        m.close_before(250.0);
        assert_eq!(m.incidents().len(), 1, "breach opened while streaming");
        let open = &m.incidents()[0];
        assert_eq!(
            (open.severity, open.close_ms),
            (Severity::Critical, None),
            "80 ms vs 30 ms ceiling is critical and still open"
        );
        let incidents = m.finish();
        assert_eq!(incidents.len(), 1);
        let i = &incidents[0];
        assert_eq!(i.rule, HealthRuleKind::MtpP95);
        assert_eq!(i.severity, Severity::Critical);
        assert_eq!(i.open_ms, 100.0);
        assert_eq!(i.close_ms, Some(300.0));
        assert_eq!(i.class, TenantClass::BestEffort);
        // The window histogram reports its bucket representative: within
        // the configured 1% relative error of the true 80 ms p95.
        assert!(
            (i.peak_value - 80.0).abs() <= 0.0101 * 80.0,
            "peak {} strays past the error bound",
            i.peak_value
        );
        assert!(i.to_string().contains("p95-mtp breach (critical"));
    }

    #[test]
    fn health_monitor_is_deterministic_across_reruns() {
        let run = || {
            let mut m = HealthMonitor::new(
                rules(50.0)
                    .with_fps_floor(30.0)
                    .with_utilization_band(0.0, 0.9),
                ServerPowerModel::default(),
                2,
            );
            for i in 0..200u32 {
                let mtp = if (60..120).contains(&i) { 70.0 } else { 14.0 };
                m.on_frame(&ev(
                    (i % 3) as usize,
                    f64::from(i) * 2.0 + 1.0,
                    mtp,
                    TenantClass::Adaptive,
                ));
            }
            m.finish()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }
}
