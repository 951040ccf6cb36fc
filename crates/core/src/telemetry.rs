//! Push-based observability: per-frame events streamed through the stack.
//!
//! Until PR 5, every fleet-level number was bolted on after the fact:
//! [`crate::fleet::FleetSummary`] re-walked per-session frame histories,
//! churn kept an O(run) in-memory sample series, and server policies could
//! act only on a tenant's scheme *class*, never its measured load. The
//! multi-user VR system surveys both single out live per-session telemetry
//! and energy as first-class concerns for multi-party deployments — and the
//! cross-fleet sharding step on the ROADMAP needs a seam that aggregates
//! *streams*, not retained histories.
//!
//! This module is that seam. A [`FrameEvent`] is emitted by every
//! [`crate::session::Session`] at display end — one event per simulated
//! frame, carrying the session slot, frame index, virtual-time span,
//! motion-to-photon latency, transmitted bytes, per-stage server busy time,
//! the GPU unit the frame's remote chain landed on, and the tenant class. A
//! [`TelemetrySink`] consumes events online; each fleet cell's sink set
//! (the crate-private `SinkSet`) fans each event out to the built-in sinks
//! (default-on, configured by [`TelemetryConfig`] on
//! `FleetConfig`/`ChurnConfig`) plus any custom sinks attached for tests or
//! tooling:
//!
//! * [`AggregateSink`] — MTP percentile samples and per-slot FPS spans:
//!   the one derivation of every fleet and shard summary's percentiles,
//!   FPS floor and mean, and of `FleetSummary`'s masked subset queries.
//! * [`WindowedStatsSink`] — streaming half-open-bucket p95 timeline at
//!   O(window) live memory (closed buckets collapse to `(start, frames,
//!   p95)`); the only source of `ChurnSummary`'s windowed timeline. It
//!   and [`crate::obs::HealthMonitor`] file frames and close windows
//!   through one rule, the crate's `Windows` type.
//! * [`EnergyMeter`] — closes the fleet energy loop: per-stage server busy
//!   ms × [`qvr_energy::ServerPowerModel`], link activity ×
//!   [`qvr_energy::ApPowerModel`], summed headset energy; reported as
//!   [`qvr_energy::FleetEnergy`] on `FleetSummary`/`ChurnSummary`. Because
//!   it meters the *stream*, the result is independent of windowed task
//!   retirement by construction.
//! * [`LoadTracker`] — EWMA of each tenant's measured server ms/frame,
//!   queryable mid-run by [`crate::sched::ServerPolicy::MeasuredLoad`]
//!   placement (closing the measured-load loop left open in PR 4).
//!
//! Sinks observe and never steer (except [`LoadTracker`], whose readings a
//! fleet may *explicitly* route back into placement via `MeasuredLoad`):
//! with the default policy the event stream is derived purely from state
//! the simulation already computed, so enabling every default sink leaves
//! schedules, RNG draws, and the fig_fleet goldens bit-identical.

use crate::metrics::{RunSummary, SortedSamples};
use crate::sched::TenantClass;
use qvr_energy::{ApPowerModel, EnergyBreakdown, FleetEnergy, ServerPowerModel};
use qvr_net::NetworkPreset;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// One pipeline stage's `(start, end)` span in virtual time, ms. The empty
/// span is `(0, 0)` — a stage the frame never exercised (e.g. the remote
/// stages of a local-only scheme) reads as empty rather than absent, which
/// keeps [`FrameEvent`] `Copy` and the hot path allocation-free.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageSpan {
    /// Earliest virtual time any task of this stage started, ms.
    pub start_ms: f64,
    /// Latest virtual time any task of this stage ended, ms.
    pub end_ms: f64,
}

impl StageSpan {
    /// Whether the stage recorded no (non-degenerate) work this frame.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.end_ms <= self.start_ms
    }

    /// The span's extent, ms (0 when empty).
    #[must_use]
    pub fn duration_ms(&self) -> f64 {
        (self.end_ms - self.start_ms).max(0.0)
    }

    /// Widens the span to cover `[start_ms, end_ms]`; an empty span adopts
    /// the interval outright. The rig calls this once per submitted task,
    /// right after submission (task times are final at submission, and
    /// eager capture is what keeps span attribution exact once old tasks
    /// retire out of the engine's history window).
    pub fn widen(&mut self, start_ms: f64, end_ms: f64) {
        if self.is_empty() {
            self.start_ms = start_ms;
            self.end_ms = end_ms;
        } else {
            self.start_ms = self.start_ms.min(start_ms);
            self.end_ms = self.end_ms.max(end_ms);
        }
    }
}

/// Per-stage span breakdown of one frame — where the frame's wall time
/// actually went, in virtual time. Chunked pipelines (DESIGN.md §4) submit
/// k tasks per stage; each stage's span covers the union `[first start,
/// last end]`, so overlap between consecutive stages is *visible* (that is
/// the point: the §7 coupling artifacts show up as one tenant's network
/// span stretching while its render span does not).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FrameSpans {
    /// Pose/input upload on the shared uplink.
    pub upload: StageSpan,
    /// Server GPU render tasks.
    pub render: StageSpan,
    /// Server hardware-encode tasks.
    pub encode: StageSpan,
    /// Downlink transfer tasks.
    pub network: StageSpan,
    /// Client decode tasks.
    pub decode: StageSpan,
    /// Display scanout.
    pub display: StageSpan,
}

/// Everything the stack reports about one displayed frame, emitted by
/// [`crate::session::Session::step`] at display end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameEvent {
    /// The session's fleet slot (0 for a private single-tenant session;
    /// churn fleets recycle departed tenants' slots).
    pub session: usize,
    /// Per-session frame index, 0-based.
    pub frame: u64,
    /// Virtual time this frame's span opens: the previous frame's display
    /// end, or the session's origin (its join gate) for the first frame.
    pub span_start_ms: f64,
    /// Virtual time the frame's display scanout ends — the session's clock
    /// after this frame.
    pub end_ms: f64,
    /// Motion-to-photon latency of the frame, ms.
    pub mtp_ms: f64,
    /// Downlink bytes the frame shipped.
    pub tx_bytes: f64,
    /// Codec quality the tenant's rate controller chose for the frame;
    /// `None` when rate control is off or the scheme never transmits.
    pub quality: Option<f64>,
    /// Server GPU render time this frame submitted, ms (0 for local-only
    /// work; includes prefetch chains submitted on this frame's behalf).
    pub server_render_ms: f64,
    /// Server hardware-encoder time this frame submitted, ms.
    pub server_encode_ms: f64,
    /// Wireless link activity this frame submitted (uplink + downlink), ms.
    pub radio_ms: f64,
    /// Server GPU unit the frame's (last) remote chain landed on; `None`
    /// when the frame never touched the server.
    pub unit: Option<usize>,
    /// The emitting tenant's scheduling class.
    pub class: TenantClass,
    /// Per-stage span breakdown (render / encode / network / decode /
    /// display / upload start+end in virtual time). Captured eagerly by
    /// the rig's attribution hooks; always populated — the *sinks* that
    /// consume it (tracing) are what the configuration gates.
    pub spans: FrameSpans,
}

/// An online consumer of [`FrameEvent`]s.
pub trait TelemetrySink: std::fmt::Debug {
    /// Observes one displayed frame. Events arrive in fleet step order;
    /// within one session they are ordered by frame index, across sessions
    /// ordering follows the stepping policy.
    fn on_frame(&mut self, event: &FrameEvent);

    /// Observes a batch of frames in stream order — semantically identical
    /// to calling [`TelemetrySink::on_frame`] on each event in order (the
    /// default does exactly that). Fleets deliver one round per batch so
    /// the fan-out traverses the sink set once per step instead of once
    /// per event; sinks may override to exploit the batching.
    fn on_batch(&mut self, events: &[FrameEvent]) {
        for event in events {
            self.on_frame(event);
        }
    }
}

/// Which built-in sinks a fleet runs, threaded through
/// `FleetConfig::telemetry` / `ChurnConfig::telemetry`. Default-on: the
/// aggregate, energy, and load sinks always stream (they are cheap and
/// observational); the windowed-stats sink activates when a bucket width is
/// configured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryConfig {
    /// Bucket width for the streaming windowed-p95 sink, ms; `None` (the
    /// default) disables it (and with it the summary's windowed timeline).
    pub window_ms: Option<f64>,
    /// Whether the energy meter runs (default `true`).
    pub energy: bool,
    /// Defer window closing: the windowed sink ignores the fleet's closing
    /// frontier and keeps every bucket open (raw samples retained) until
    /// finalisation. This is how a shard *cell* runs — an un-collapsed
    /// sink state is exactly mergeable across cells
    /// ([`WindowedStatsSink::absorb`]), while a collapsed bucket has lost
    /// the samples a bit-exact merge needs. Default `false` (streaming
    /// closes keep live memory O(window)).
    pub defer_window_close: bool,
    /// Span tracing: `Some` attaches a [`crate::obs::TraceSink`] recording
    /// the sampled sessions' per-frame stage spans for Chrome-trace export.
    /// Default `None` — tracing off adds zero work and zero allocations to
    /// the frame loop (spans ride the event either way).
    pub trace: Option<crate::obs::TraceConfig>,
    /// Mergeable metrics: `true` attaches a [`crate::obs::MetricsSink`]
    /// maintaining per-class MTP/tx/stage-busy histograms and counters at
    /// the default 1% accuracy, exposable as Prometheus-style text. Default
    /// `false` (the exact `SortedSamples` aggregate path stays the
    /// percentile source either way).
    pub metrics: bool,
    /// Health monitoring: `Some` attaches a [`crate::obs::HealthMonitor`]
    /// evaluating these SLO rules over sliding histogram windows and
    /// emitting a deterministic incident timeline. Default `None`.
    pub health: Option<crate::obs::HealthRules>,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            window_ms: None,
            energy: true,
            defer_window_close: false,
            trace: None,
            metrics: false,
            health: None,
        }
    }
}

impl TelemetryConfig {
    /// Returns a copy with the windowed-stats sink enabled at this width.
    #[must_use]
    pub fn with_window_ms(mut self, window_ms: f64) -> Self {
        self.window_ms = Some(window_ms);
        self
    }

    /// Returns a copy whose windowed sink defers all bucket closing to
    /// finalisation (the mergeable shard-cell mode; see
    /// [`TelemetryConfig::defer_window_close`]).
    #[must_use]
    pub fn with_deferred_windows(mut self) -> Self {
        self.defer_window_close = true;
        self
    }

    /// Returns a copy with span tracing enabled under this sampling
    /// configuration.
    #[must_use]
    pub fn with_trace(mut self, trace: crate::obs::TraceConfig) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Returns a copy with the mergeable metrics sink enabled.
    #[must_use]
    pub fn with_metrics(mut self) -> Self {
        self.metrics = true;
        self
    }

    /// Returns a copy with the health monitor enabled under these rules.
    #[must_use]
    pub fn with_health(mut self, rules: crate::obs::HealthRules) -> Self {
        self.health = Some(rules);
        self
    }
}

/// Per-slot accumulators behind [`AggregateSink`]'s FPS statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct SlotSpan {
    frames: usize,
    first_start_ms: f64,
    last_end_ms: f64,
}

/// Every frame's MTP (for the percentile queries) and per-slot `(frame
/// count, span)` (for the FPS floor and mean): the one place the crate
/// turns frames into a fleet's percentiles and rates. Fleets stream their
/// events into it; [`crate::fleet::FleetSummary`]'s masked subset queries
/// feed it finished sessions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AggregateSink {
    mtp_samples: Vec<f64>,
    slots: Vec<SlotSpan>,
}

impl AggregateSink {
    /// An empty sink.
    #[must_use]
    pub fn new() -> Self {
        AggregateSink::default()
    }

    /// Events observed so far (== frames displayed fleet-wide).
    #[must_use]
    pub fn frames(&self) -> usize {
        self.mtp_samples.len()
    }

    /// Folds another sink's state into this one — the cross-cell merge of
    /// the sharding seam. `other`'s slots are re-based at `self`'s slot
    /// count (cells tile the shard's slot-id space, so distinct cells can
    /// never collide on a slot), and its MTP samples are appended in
    /// stream order. Merging K cells' sinks in ascending cell order is
    /// bit-identical to one sink consuming the concatenated event stream:
    /// the percentile queries sort, so sample order never matters, and the
    /// FPS statistics walk slots in the same tiled order either way.
    pub fn absorb(&mut self, other: &AggregateSink) {
        self.mtp_samples.extend_from_slice(&other.mtp_samples);
        self.slots.extend_from_slice(&other.slots);
    }

    /// Feeds one finished session in as the next slot: its frames' MTP
    /// samples, and a span from 0 to its makespan, so the slot's rate is
    /// the session's own [`RunSummary::fps`] (the same operands and
    /// operations).
    pub(crate) fn absorb_session(&mut self, session: &RunSummary) {
        self.mtp_samples
            .extend(session.frames.iter().map(|f| f.mtp_ms));
        self.slots.push(SlotSpan {
            frames: session.frames.len(),
            first_start_ms: 0.0,
            last_end_ms: session.makespan_ms,
        });
    }

    /// `(p50, p95, p99)` MTP over every streamed frame.
    #[must_use]
    pub fn mtp_percentiles(&self) -> (f64, f64, f64) {
        let sorted = SortedSamples::new(self.mtp_samples.clone());
        (sorted.p50(), sorted.p95(), sorted.p99())
    }

    /// `(fps_floor, mean_fps)` over slots that displayed at least one
    /// frame (a zero-frame slot carries no rate signal and would drag the
    /// floor to a meaningless 0); `(0, 0)` when no slot did.
    #[must_use]
    pub fn fps_stats(&self) -> (f64, f64) {
        let fps: Vec<f64> = self
            .slots
            .iter()
            .filter(|s| s.frames > 0)
            .map(|s| {
                let span = s.last_end_ms - s.first_start_ms;
                if span <= 0.0 {
                    0.0
                } else {
                    s.frames as f64 * 1_000.0 / span
                }
            })
            .collect();
        let floor = fps.iter().copied().fold(f64::INFINITY, f64::min);
        let mean = if fps.is_empty() {
            0.0
        } else {
            fps.iter().sum::<f64>() / fps.len() as f64
        };
        (if floor.is_finite() { floor } else { 0.0 }, mean)
    }
}

impl TelemetrySink for AggregateSink {
    fn on_frame(&mut self, event: &FrameEvent) {
        self.mtp_samples.push(event.mtp_ms);
        if event.session >= self.slots.len() {
            self.slots.resize(event.session + 1, SlotSpan::default());
        }
        let slot = &mut self.slots[event.session];
        if slot.frames == 0 {
            slot.first_start_ms = event.span_start_ms;
        }
        slot.frames += 1;
        slot.last_end_ms = event.end_ms;
    }
}

/// Half-open virtual-time windows `[k·w, (k+1)·w)` behind a closing
/// frontier: the one rule by which [`WindowedStatsSink`] and
/// [`crate::obs::HealthMonitor`] file frames and close windows. A frame
/// files into the window its display end falls in; windows close in index
/// order once the caller's frontier passes their end. Only occupied
/// windows exist, so quiet stretches cost nothing.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Windows<A> {
    width_ms: f64,
    /// Open windows by index.
    open: BTreeMap<usize, A>,
    /// First window index not yet closed; every open window sits at or
    /// above it.
    frontier: usize,
}

impl<A: Default> Windows<A> {
    /// No windows yet, frontier at zero.
    ///
    /// # Panics
    ///
    /// Panics if `width_ms` is not positive-finite.
    pub(crate) fn new(width_ms: f64) -> Self {
        assert!(
            width_ms.is_finite() && width_ms > 0.0,
            "window must be positive"
        );
        Windows {
            width_ms,
            open: BTreeMap::new(),
            frontier: 0,
        }
    }

    /// The accumulator of the window a frame ending at `end_ms` files
    /// into, opened empty on first use. A frame below the frontier broke
    /// the caller's frontier promise: deterministic simulations never do
    /// this (debug builds assert), and release builds degrade by filing it
    /// into the earliest window still open.
    pub(crate) fn file(&mut self, end_ms: f64) -> &mut A {
        let mut k = qvr_sim::checked::floor_index(end_ms / self.width_ms);
        if k < self.frontier {
            debug_assert!(
                false,
                "frame at {end_ms:.3} ms arrived below the closed frontier {:.3} ms",
                self.frontier as f64 * self.width_ms
            );
            k = self.frontier;
        }
        self.open.entry(k).or_default()
    }

    /// Pops the earliest open window that ends at or before `t_ms` as
    /// `(start_ms, accumulator)`, or `None` once none is left. Callers
    /// drain it with `while let`, passing a time no future frame can
    /// precede; one below t = 0 closes nothing. Returns before touching
    /// the map when the frontier does not move.
    pub(crate) fn pop_before(&mut self, t_ms: f64) -> Option<(f64, A)> {
        let first_open = qvr_sim::checked::floor_index((t_ms / self.width_ms).max(0.0));
        if first_open <= self.frontier {
            return None;
        }
        match self.open.first_entry() {
            Some(entry) if *entry.key() < first_open => {
                let (k, acc) = entry.remove_entry();
                self.frontier = k + 1;
                Some((k as f64 * self.width_ms, acc))
            }
            _ => {
                self.frontier = first_open;
                None
            }
        }
    }

    /// Pops the earliest open window whatever the frontier (finalisation).
    pub(crate) fn pop_first(&mut self) -> Option<(f64, A)> {
        self.open
            .pop_first()
            .map(|(k, acc)| (k as f64 * self.width_ms, acc))
    }
}

/// Streaming windowed-p95 timeline over half-open virtual-time buckets
/// `[k·w, (k+1)·w)` (a sample at an interior boundary `k·w` belongs to
/// bucket `k`) with bounded live memory: raw samples are held only for
/// *open* buckets, and a bucket closes to a `(start_ms, frames, p95)`
/// triple once the caller's [`WindowedStatsSink::close_before`] frontier
/// guarantees no earlier sample can still arrive. Fleets drive the
/// frontier from their virtual clock (the same quantity windowed task
/// retirement keys on).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedStatsSink {
    windows: Windows<Vec<f64>>,
    /// Closed buckets in index order: `(start_ms, frames, p95_ms)`.
    closed: Vec<(f64, usize, f64)>,
    open_samples: usize,
    peak_open_samples: usize,
    /// Deferred mode: [`WindowedStatsSink::close_before`] is a no-op, so
    /// every bucket stays open (raw samples retained) until finish — the
    /// mergeable shard-cell mode (see [`WindowedStatsSink::absorb`]).
    defer: bool,
}

impl WindowedStatsSink {
    /// A sink with the given bucket width.
    ///
    /// # Panics
    ///
    /// Panics if `window_ms` is not positive-finite.
    #[must_use]
    pub fn new(window_ms: f64) -> Self {
        WindowedStatsSink {
            windows: Windows::new(window_ms),
            closed: Vec::new(),
            open_samples: 0,
            peak_open_samples: 0,
            defer: false,
        }
    }

    /// A sink that defers all bucket closing to finalisation, keeping raw
    /// samples for every bucket — the state a shard cell ships, because an
    /// un-collapsed sink merges exactly ([`WindowedStatsSink::absorb`])
    /// while a closed bucket's samples are gone. Live memory is O(run)
    /// rather than O(window); the timeline [`WindowedStatsSink::finish`]
    /// produces is bit-identical to the streaming-close mode (same
    /// per-bucket samples in the same order, collapsed by the same
    /// arithmetic).
    ///
    /// # Panics
    ///
    /// Panics if `window_ms` is not positive-finite.
    #[must_use]
    pub fn deferred(window_ms: f64) -> Self {
        let mut sink = WindowedStatsSink::new(window_ms);
        sink.defer = true;
        sink
    }

    /// Whether no bucket has collapsed yet (the frontier is still at zero,
    /// so nothing closed) — the precondition for an exact merge.
    #[must_use]
    pub fn is_uncollapsed(&self) -> bool {
        self.windows.frontier == 0
    }

    /// Folds another sink's open buckets into this one, index-wise: bucket
    /// `k`'s samples are `self`'s then `other`'s, in each source's stream
    /// order. Cells share one virtual-time origin, so equal bucket indices
    /// mean the same time window, and merging K cells in ascending cell
    /// order is bit-identical to one sink consuming the concatenated event
    /// stream (per-bucket p95 sorts its samples, so cross-cell interleaving
    /// never matters).
    ///
    /// # Panics
    ///
    /// Panics if the widths differ, or if either sink has already
    /// collapsed a bucket (closing is lossy — the raw samples an exact
    /// merge needs are gone; build cells with
    /// [`TelemetryConfig::defer_window_close`] /
    /// [`WindowedStatsSink::deferred`]).
    pub fn absorb(&mut self, other: &WindowedStatsSink) {
        assert!(
            self.windows.width_ms == other.windows.width_ms,
            "windowed merge requires equal bucket widths: {} vs {} ms",
            self.windows.width_ms,
            other.windows.width_ms
        );
        assert!(
            self.is_uncollapsed() && other.is_uncollapsed(),
            "windowed merge requires un-collapsed sinks: a closed bucket \
             has lost the raw samples an exact merge needs"
        );
        for (&k, samples) in &other.windows.open {
            self.windows
                .open
                .entry(k)
                .or_default()
                .extend_from_slice(samples);
        }
        self.open_samples += other.open_samples;
        self.peak_open_samples = self.peak_open_samples.max(self.open_samples);
    }

    /// Collapses one closed bucket's raw samples into its `(start, frames,
    /// p95)` triple.
    fn collapse(&mut self, start_ms: f64, samples: Vec<f64>) {
        self.open_samples -= samples.len();
        self.closed
            .push((start_ms, samples.len(), SortedSamples::new(samples).p95()));
    }

    /// Closes every bucket that ends at or before `t_ms` (callers pass a
    /// frontier no future sample can precede — a fleet's minimum virtual
    /// clock). Closed buckets collapse to their `(start, frames, p95)`
    /// triple. No-op in deferred mode (shard cells stay mergeable until
    /// finish).
    pub fn close_before(&mut self, t_ms: f64) {
        if self.defer {
            return;
        }
        while let Some((start_ms, samples)) = self.windows.pop_before(t_ms) {
            self.collapse(start_ms, samples);
        }
    }

    /// Closes everything and returns the full timeline, in bucket order.
    #[must_use]
    pub fn finish(mut self) -> Vec<(f64, usize, f64)> {
        while let Some((start_ms, samples)) = self.windows.pop_first() {
            self.collapse(start_ms, samples);
        }
        self.closed
    }

    /// Largest number of raw samples held live at any point — the
    /// O(window) memory claim a bounded-memory run asserts.
    #[must_use]
    pub fn peak_open_samples(&self) -> usize {
        self.peak_open_samples
    }
}

impl TelemetrySink for WindowedStatsSink {
    fn on_frame(&mut self, event: &FrameEvent) {
        self.windows.file(event.end_ms).push(event.mtp_ms);
        self.open_samples += 1;
        self.peak_open_samples = self.peak_open_samples.max(self.open_samples);
    }
}

/// Closes the fleet-level energy loop from the event stream: per-stage
/// server busy × [`ServerPowerModel`], link activity × [`ApPowerModel`],
/// plus every session's own mobile-side energy at finalisation. Metering
/// the stream (instead of re-walking task history) makes the result
/// independent of windowed retirement by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyMeter {
    server: ServerPowerModel,
    ap: ApPowerModel,
    preset: NetworkPreset,
    units: usize,
    /// Per-slot attributed busy, ms (render, encode, radio). Radio is
    /// accumulated per slot too — not in one running scalar — so that
    /// merging K cells' meters (slot-tiled, in cell order) finalises
    /// bit-identically to one meter consuming the concatenated stream:
    /// every per-slot sum sees exactly its own slot's addends in stream
    /// order, and the finalisation total folds the slots in the same tiled
    /// order either way. A single running scalar would associate the
    /// additions differently across the two paths.
    per_slot: Vec<(f64, f64, f64)>,
}

impl EnergyMeter {
    /// A meter over a `units`-wide server pool on one network preset.
    #[must_use]
    pub fn new(
        server: ServerPowerModel,
        ap: ApPowerModel,
        preset: NetworkPreset,
        units: usize,
    ) -> Self {
        EnergyMeter {
            server,
            ap,
            preset,
            units,
            per_slot: Vec::new(),
        }
    }

    /// Finalises the meter over a fleet span: `client_mj` is the summed
    /// mobile-side energy of every session (the caller folds it in because
    /// sessions finalise outside the event stream).
    #[must_use]
    pub fn finalize(&self, span_ms: f64, client_mj: f64) -> FleetEnergy {
        // Totals from the per-slot sums, in slot order.
        let render_ms: f64 = self.per_slot.iter().map(|(r, _, _)| *r).sum();
        let encode_ms: f64 = self.per_slot.iter().map(|(_, e, _)| *e).sum();
        let radio_ms: f64 = self.per_slot.iter().map(|(_, _, w)| *w).sum();
        let (server_render_mj, server_encode_mj, server_idle_mj) = self
            .server
            .pool_energy_mj(self.units, span_ms, render_ms, encode_ms);
        FleetEnergy {
            server_render_mj,
            server_encode_mj,
            server_idle_mj,
            ap_radio_mj: self.ap.energy_mj(self.preset, span_ms, radio_ms),
            client_mj,
        }
    }
}

impl TelemetrySink for EnergyMeter {
    fn on_frame(&mut self, event: &FrameEvent) {
        if event.session >= self.per_slot.len() {
            self.per_slot.resize(event.session + 1, (0.0, 0.0, 0.0));
        }
        let (r, e, w) = &mut self.per_slot[event.session];
        *r += event.server_render_ms;
        *e += event.server_encode_ms;
        *w += event.radio_ms;
    }
}

/// Shared EWMA of each tenant's *measured* server ms/frame — the signal
/// [`crate::sched::ServerPolicy::MeasuredLoad`] places on instead of the
/// scheme class. A cloneable handle: the fleet's sink set updates it after
/// every frame, and every session's rig reads it at chain submission, so
/// placement reacts to load within one frame of measuring it.
#[derive(Debug, Clone, Default)]
pub struct LoadTracker {
    state: Rc<RefCell<Vec<Option<f64>>>>,
}

/// EWMA smoothing for measured per-tenant server load (≈ the last ~8
/// frames dominate — fast enough to catch a scene transition, slow enough
/// not to flap on one heavy frame).
pub const LOAD_EWMA_ALPHA: f64 = 0.25;

impl LoadTracker {
    /// A tracker with no observations.
    #[must_use]
    pub fn new() -> Self {
        LoadTracker::default()
    }

    /// The raw per-slot EWMA state — what a shard cell ships across the
    /// thread boundary (the tracker itself is single-threaded shared
    /// state).
    #[must_use]
    pub fn snapshot(&self) -> Vec<Option<f64>> {
        self.state.borrow().clone()
    }

    /// Folds one frame's measured server time into a slot's EWMA.
    pub fn observe(&self, slot: usize, server_ms: f64) {
        let mut state = self.state.borrow_mut();
        if slot >= state.len() {
            state.resize(slot + 1, None);
        }
        state[slot] = Some(match state[slot] {
            Some(prev) => prev + LOAD_EWMA_ALPHA * (server_ms - prev),
            None => server_ms,
        });
    }

    /// The slot's current EWMA server ms/frame; `None` before any
    /// observation (a fresh tenant is presumed light until measured).
    #[must_use]
    pub fn ewma(&self, slot: usize) -> Option<f64> {
        self.state.borrow().get(slot).copied().flatten()
    }

    /// Clears a slot's history (churn fleets recycle slots; a joiner must
    /// not inherit its predecessor's load profile).
    pub fn reset(&self, slot: usize) {
        let mut state = self.state.borrow_mut();
        if slot < state.len() {
            state[slot] = None;
        }
    }
}

impl PartialEq for LoadTracker {
    /// Identity equality: two handles are equal iff they share state.
    fn eq(&self, other: &Self) -> bool {
        Rc::ptr_eq(&self.state, &other.state)
    }
}

impl TelemetrySink for LoadTracker {
    fn on_frame(&mut self, event: &FrameEvent) {
        self.observe(
            event.session,
            event.server_render_ms + event.server_encode_ms,
        );
    }
}

/// The fan-out a fleet drives: every built-in sink the configuration
/// enabled, plus any custom sinks attached for tests or tooling.
#[derive(Debug, Default)]
pub(crate) struct SinkSet {
    /// The aggregate stream (fleets always run it; churn has its own
    /// summary shape and leaves it off).
    pub(crate) aggregate: Option<AggregateSink>,
    /// The streaming windowed-p95 timeline, when configured.
    pub(crate) windowed: Option<WindowedStatsSink>,
    /// The energy meter, unless disabled.
    pub(crate) energy: Option<EnergyMeter>,
    /// The measured-load EWMA (always on: placement may read it).
    pub(crate) load: LoadTracker,
    /// Span tracing over the sampled sessions, when configured.
    pub(crate) trace: Option<crate::obs::TraceSink>,
    /// The mergeable per-class histogram metrics, when configured.
    pub(crate) metrics: Option<crate::obs::MetricsSink>,
    /// The streaming SLO health monitor, when configured.
    pub(crate) health: Option<crate::obs::HealthMonitor>,
    custom: Vec<Box<dyn TelemetrySink>>,
}

impl SinkSet {
    /// Builds the fan-out a [`TelemetryConfig`] describes — the one wiring
    /// point fleets *and* churn share, so a new built-in sink cannot land
    /// in one and silently miss the other: the energy meter (unless
    /// disabled), the windowed sink (when a width is set), the load
    /// tracker (always), and — when `aggregate` is requested (closed
    /// fleets, whose `FleetSummary` is the stream's product; churn has its
    /// own summary shape) — the aggregate sink.
    #[must_use]
    pub(crate) fn from_config(
        telemetry: &TelemetryConfig,
        system: &crate::schemes::SystemConfig,
        units: usize,
        aggregate: bool,
    ) -> Self {
        let mut sinks = SinkSet::default();
        if aggregate {
            sinks.aggregate = Some(AggregateSink::new());
        }
        if telemetry.energy {
            sinks.energy = Some(EnergyMeter::new(
                system.server_power,
                system.ap_power,
                system.network,
                units,
            ));
        }
        sinks.windowed = telemetry.window_ms.map(if telemetry.defer_window_close {
            WindowedStatsSink::deferred
        } else {
            WindowedStatsSink::new
        });
        sinks.trace = telemetry.trace.map(crate::obs::TraceSink::new);
        if telemetry.metrics {
            sinks.metrics = Some(crate::obs::MetricsSink::new());
        }
        sinks.health = telemetry
            .health
            .map(|rules| crate::obs::HealthMonitor::new(rules, system.server_power, units));
        sinks
    }

    /// Fans one event out to every sink.
    pub(crate) fn emit(&mut self, event: &FrameEvent) {
        self.emit_batch(std::slice::from_ref(event));
    }

    /// Fans a batch of events (one fleet round) out to every sink: each
    /// sink sees the whole batch in stream order via
    /// [`TelemetrySink::on_batch`], so per-step fan-out walks the sink set
    /// once instead of once per event. Event order — and therefore every
    /// sink's result — is identical to emitting one by one.
    pub(crate) fn emit_batch(&mut self, events: &[FrameEvent]) {
        if events.is_empty() {
            return;
        }
        if let Some(s) = &mut self.aggregate {
            s.on_batch(events);
        }
        if let Some(s) = &mut self.windowed {
            s.on_batch(events);
        }
        if let Some(s) = &mut self.energy {
            s.on_batch(events);
        }
        self.load.on_batch(events);
        if let Some(s) = &mut self.trace {
            s.on_batch(events);
        }
        if let Some(s) = &mut self.metrics {
            s.on_batch(events);
        }
        if let Some(s) = &mut self.health {
            s.on_batch(events);
        }
        for s in &mut self.custom {
            s.on_batch(events);
        }
    }

    /// Attaches a custom sink (receives every event from now on).
    pub(crate) fn attach(&mut self, sink: Box<dyn TelemetrySink>) {
        self.custom.push(sink);
    }

    /// Advances the windowed sink's and the health monitor's closing
    /// frontiers, if either is running (both evaluate time buckets no
    /// future sample can precede).
    pub(crate) fn close_windows_before(&mut self, t_ms: f64) {
        if let Some(w) = &mut self.windowed {
            w.close_before(t_ms);
        }
        if let Some(h) = &mut self.health {
            h.close_before(t_ms);
        }
    }

    /// Finalises the energy meter (identity-zero when disabled).
    #[must_use]
    pub(crate) fn energy_finalize(&self, span_ms: f64, client_mj: f64) -> FleetEnergy {
        self.energy
            .as_ref()
            .map(|m| m.finalize(span_ms, client_mj))
            .unwrap_or_default()
    }

    /// Finishes the windowed sink and returns its timeline plus peak live
    /// sample count (`(vec![], 0)` when it never ran).
    #[must_use]
    pub(crate) fn windowed_finish(&mut self) -> (Vec<(f64, usize, f64)>, usize) {
        match self.windowed.take() {
            Some(w) => {
                let peak = w.peak_open_samples();
                (w.finish(), peak)
            }
            None => (Vec::new(), 0),
        }
    }

    /// The metrics sink's Prometheus-style text exposition (`None` when
    /// metrics are off).
    #[must_use]
    pub(crate) fn metrics_exposition(&self) -> Option<String> {
        self.metrics
            .as_ref()
            .map(crate::obs::MetricsSink::exposition)
    }

    /// Finishes the health monitor and returns its incident timeline
    /// (empty when no monitor ran).
    #[must_use]
    pub(crate) fn health_finish(&mut self) -> Vec<crate::obs::Incident> {
        self.health
            .take()
            .map(crate::obs::HealthMonitor::finish)
            .unwrap_or_default()
    }
}

/// Sums a set of per-session energy breakdowns, mJ (in roster order — the
/// deterministic `client_mj` input to [`EnergyMeter::finalize`]).
#[must_use]
pub fn client_energy_mj<'a>(breakdowns: impl IntoIterator<Item = &'a EnergyBreakdown>) -> f64 {
    breakdowns.into_iter().map(EnergyBreakdown::total_mj).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(session: usize, frame: u64, start: f64, end: f64, mtp: f64) -> FrameEvent {
        FrameEvent {
            session,
            frame,
            span_start_ms: start,
            end_ms: end,
            mtp_ms: mtp,
            tx_bytes: 1_000.0,
            quality: None,
            server_render_ms: 2.0,
            server_encode_ms: 0.5,
            radio_ms: 1.5,
            unit: Some(0),
            class: TenantClass::Adaptive,
            spans: FrameSpans::default(),
        }
    }

    #[test]
    fn aggregate_sink_streams_percentiles_and_fps() {
        let mut sink = AggregateSink::new();
        for i in 0..10u32 {
            let t = f64::from(i) * 10.0;
            sink.on_frame(&ev(0, u64::from(i), t, t + 10.0, f64::from(i + 1)));
        }
        assert_eq!(sink.frames(), 10);
        let (p50, p95, p99) = sink.mtp_percentiles();
        assert_eq!(p50, 5.0);
        assert_eq!(p95, 10.0);
        assert_eq!(p99, 10.0);
        let (floor, mean) = sink.fps_stats();
        // 10 frames over exactly 100 ms.
        assert!((floor - 100.0).abs() < 1e-9);
        assert_eq!(floor, mean);
    }

    #[test]
    fn aggregate_sink_fps_skips_empty_slots() {
        let mut sink = AggregateSink::new();
        sink.on_frame(&ev(2, 0, 0.0, 20.0, 5.0)); // slots 0 and 1 stay empty
        let (floor, mean) = sink.fps_stats();
        assert!((floor - 50.0).abs() < 1e-9);
        assert_eq!(floor, mean);
        let empty = AggregateSink::new();
        assert_eq!(empty.fps_stats(), (0.0, 0.0));
        assert_eq!(empty.mtp_percentiles(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn windowed_sink_matches_the_bucket_convention() {
        // Buckets are uniformly half-open: a sample at an interior
        // boundary goes *up*, and samples at a run's horizon (300) or
        // past it (a final frame can overshoot) land in the bucket their
        // time falls in, never clamped down.
        let mut w = WindowedStatsSink::new(100.0);
        for (t, mtp) in [
            (0.0, 10.0),
            (99.9, 11.0),
            (100.0, 20.0),
            (300.0, 30.0),
            (310.0, 31.0),
        ] {
            w.on_frame(&ev(0, 0, t - 1.0, t, mtp));
        }
        let windows = w.finish();
        let starts: Vec<f64> = windows.iter().map(|(s, _, _)| *s).collect();
        assert_eq!(starts, vec![0.0, 100.0, 300.0]);
        let counts: Vec<usize> = windows.iter().map(|(_, n, _)| *n).collect();
        assert_eq!(counts, vec![2, 1, 2]);
        assert_eq!(windows[1].2, 20.0);
    }

    #[test]
    fn windowed_sink_closing_bounds_live_memory() {
        let mut w = WindowedStatsSink::new(50.0);
        for i in 0..1_000u32 {
            let t = f64::from(i) * 1.0;
            w.on_frame(&ev(0, u64::from(i), t, t, 12.0));
            // The frontier trails the stream by one bucket's worth.
            w.close_before(t - 50.0);
        }
        assert!(
            w.peak_open_samples() <= 110,
            "live samples must stay O(window): {}",
            w.peak_open_samples()
        );
        let windows = w.finish();
        let total: usize = windows.iter().map(|(_, n, _)| *n).sum();
        assert_eq!(total, 1_000, "closing must not lose samples");
        for pair in windows.windows(2) {
            assert!(pair[0].0 < pair[1].0, "timeline stays in bucket order");
        }
    }

    #[test]
    fn energy_meter_attributes_per_slot_and_adds_up() {
        let meter_cfg = (
            ServerPowerModel::default(),
            ApPowerModel::default(),
            NetworkPreset::WiFi,
        );
        let mut m = EnergyMeter::new(meter_cfg.0, meter_cfg.1, meter_cfg.2, 4);
        for i in 0..6u64 {
            let slot = (i % 2) as usize;
            m.on_frame(&ev(slot, i, 0.0, 10.0, 15.0));
        }
        let e = m.finalize(100.0, 500.0);
        assert!(e.server_render_mj > 0.0);
        assert!(e.server_idle_mj > 0.0);
        assert!(e.ap_radio_mj > 0.0);
        assert_eq!(e.client_mj, 500.0);
        let attributed: f64 = m
            .per_slot
            .iter()
            .map(|(r, enc, _)| m.server.gpu_active_w * r + m.server.enc_active_w * enc)
            .sum();
        let active = e.server_render_mj + e.server_encode_mj;
        assert!(
            (attributed - active).abs() <= 1e-9 * active.max(1.0),
            "per-slot attribution must be additive: {attributed} vs {active}"
        );
    }

    #[test]
    fn load_tracker_ewma_converges_and_resets() {
        let t = LoadTracker::new();
        assert_eq!(t.ewma(3), None);
        t.observe(3, 10.0);
        assert_eq!(t.ewma(3), Some(10.0), "first observation seeds the EWMA");
        for _ in 0..40 {
            t.observe(3, 2.0);
        }
        let settled = t.ewma(3).unwrap();
        assert!(
            (settled - 2.0).abs() < 0.01,
            "EWMA must converge to the steady load: {settled}"
        );
        // Handles share state; reset clears one slot only.
        let clone = t.clone();
        assert_eq!(clone.ewma(3), t.ewma(3));
        assert_eq!(clone, t);
        t.observe(1, 5.0);
        t.reset(3);
        assert_eq!(t.ewma(3), None);
        assert_eq!(t.ewma(1), Some(5.0));
    }

    /// An event with explicit per-stage busy attribution (the energy-law
    /// inputs), `span_start` trailing `end` by 5 ms.
    fn evx(slot: usize, end: f64, mtp: f64, render: f64, encode: f64, radio: f64) -> FrameEvent {
        FrameEvent {
            session: slot,
            frame: 0,
            span_start_ms: end - 5.0,
            end_ms: end,
            mtp_ms: mtp,
            tx_bytes: 500.0,
            quality: None,
            server_render_ms: render,
            server_encode_ms: encode,
            radio_ms: radio,
            unit: Some(0),
            class: TenantClass::Adaptive,
            spans: FrameSpans::default(),
        }
    }

    /// Per-cell event streams drawn from a proptest strategy tuple.
    type CellStreams = Vec<Vec<(usize, f64, f64, f64, f64, f64)>>;

    fn cell_events(cells: &CellStreams, k: usize) -> Vec<Vec<FrameEvent>> {
        cells
            .iter()
            .take(k)
            .map(|evs| {
                evs.iter()
                    .map(|&(slot, end, mtp, r, e, w)| evx(slot, end, mtp, r, e, w))
                    .collect()
            })
            .collect()
    }

    /// The concatenated stream one un-sharded fleet would see: cell after
    /// cell in ascending cell order, slots re-based by each preceding
    /// cell's tile width (max slot seen + 1), matching `absorb`.
    fn concatenated(cells: &[Vec<FrameEvent>]) -> Vec<FrameEvent> {
        let mut out = Vec::new();
        let mut base = 0;
        for events in cells {
            let width = events.iter().map(|e| e.session + 1).max().unwrap_or(0);
            for e in events {
                let mut e = *e;
                e.session += base;
                out.push(e);
            }
            base += width;
        }
        out
    }

    use proptest::prelude::*;

    /// The strategy behind every merge law: up to 4 cells, 17 events each,
    /// slots in 0..4, times in [5, 1000) ms, varied busy attribution.
    fn cells_strategy() -> impl Strategy<Value = CellStreams> {
        collection::vec(
            collection::vec(
                (
                    0usize..4,
                    5.0f64..1_000.0,
                    0.1f64..80.0,
                    0.0f64..6.0,
                    0.0f64..2.0,
                    0.0f64..4.0,
                ),
                17,
            ),
            4,
        )
    }

    proptest! {
        #[test]
        fn aggregate_merge_is_bit_identical_to_the_concatenated_stream(
            raw in cells_strategy(),
            k in 1usize..5,
        ) {
            let cells = cell_events(&raw, k);
            let mut merged = AggregateSink::new();
            let mut per_cell = Vec::new();
            for events in &cells {
                let mut sink = AggregateSink::new();
                sink.on_batch(events);
                merged.absorb(&sink);
                per_cell.push(sink);
            }
            let mut whole = AggregateSink::new();
            whole.on_batch(&concatenated(&cells));
            prop_assert_eq!(&merged, &whole);
            prop_assert_eq!(merged.mtp_percentiles(), whole.mtp_percentiles());
            prop_assert_eq!(merged.fps_stats(), whole.fps_stats());
            // Percentile queries sort, so *any* merge order yields the
            // same percentiles bitwise (FPS layout legitimately differs —
            // ShardSummary canonicalises by folding in cell-id order).
            let mut reversed = AggregateSink::new();
            for sink in per_cell.iter().rev() {
                reversed.absorb(sink);
            }
            prop_assert_eq!(reversed.mtp_percentiles(), whole.mtp_percentiles());
        }

        #[test]
        fn windowed_merge_is_bit_identical_to_the_concatenated_stream(
            raw in cells_strategy(),
            k in 1usize..5,
        ) {
            let cells = cell_events(&raw, k);
            let mut merged = WindowedStatsSink::deferred(100.0);
            for events in &cells {
                let mut sink = WindowedStatsSink::deferred(100.0);
                sink.on_batch(events);
                merged.absorb(&sink);
            }
            let mut whole = WindowedStatsSink::deferred(100.0);
            whole.on_batch(&concatenated(&cells));
            prop_assert_eq!(&merged, &whole);
            prop_assert_eq!(merged.finish(), whole.finish());
        }

        #[test]
        fn deferred_windows_finish_bit_identically_to_streaming_closes(
            raw in cells_strategy(),
        ) {
            // One time-ordered stream, consumed twice: once with the
            // frontier trailing the stream (streaming closes, O(window)
            // live memory), once fully deferred. The final timelines must
            // match bitwise — deferral changes *when* buckets collapse,
            // never what they collapse to.
            let mut events = cell_events(&raw, 1).remove(0);
            events.sort_by(|a, b| a.end_ms.total_cmp(&b.end_ms));
            let mut streaming = WindowedStatsSink::new(100.0);
            let mut deferred = WindowedStatsSink::deferred(100.0);
            for e in &events {
                streaming.on_frame(e);
                streaming.close_before(e.end_ms - 150.0);
                deferred.on_frame(e);
                deferred.close_before(e.end_ms - 150.0); // no-op
            }
            prop_assert!(deferred.is_uncollapsed());
            prop_assert_eq!(streaming.finish(), deferred.finish());
        }
    }

    #[test]
    #[should_panic(expected = "un-collapsed sinks")]
    fn windowed_merge_rejects_collapsed_sinks() {
        // A sink that has closed a bucket no longer holds the raw samples
        // an exact merge needs; absorbing it must fail loudly instead of
        // silently losing them (the frontier-sensitivity bug class).
        let mut closed = WindowedStatsSink::new(50.0);
        closed.on_frame(&ev(0, 0, 10.0, 20.0, 5.0));
        closed.close_before(200.0);
        let mut merged = WindowedStatsSink::deferred(50.0);
        merged.absorb(&closed);
    }

    #[test]
    #[should_panic(expected = "equal bucket widths")]
    fn windowed_merge_rejects_mismatched_widths() {
        let mut a = WindowedStatsSink::deferred(50.0);
        let b = WindowedStatsSink::deferred(100.0);
        a.absorb(&b);
    }

    #[test]
    fn sink_set_fans_out_to_custom_sinks() {
        #[derive(Debug, Default)]
        struct Counter(usize);
        impl TelemetrySink for Counter {
            fn on_frame(&mut self, _: &FrameEvent) {
                self.0 += 1;
            }
        }
        let mut set = SinkSet {
            aggregate: Some(AggregateSink::new()),
            ..SinkSet::default()
        };
        set.attach(Box::<Counter>::default());
        for i in 0..5 {
            set.emit(&ev(0, i, 0.0, 10.0, 12.0));
        }
        assert_eq!(set.aggregate.as_ref().unwrap().frames(), 5);
        assert!(set.load.ewma(0).is_some());
        assert_eq!(set.energy_finalize(10.0, 0.0), FleetEnergy::default());
        assert_eq!(set.windowed_finish(), (Vec::new(), 0));
    }
}
