//! The shared pipeline rig: resources, streaming chains, and accounting.
//!
//! A [`Rig`] is the per-session view of the simulated machine. In the
//! classic single-tenant mode ([`Rig::new`]) it owns a private engine, a
//! private network channel, and an analytically-accelerated remote server —
//! exactly the original one-user evaluation. In fleet mode (built by
//! [`crate::cell::Cell::open`] through [`Rig::build`]) several rigs submit
//! into one [`SharedEngine`], contend for one [`ServerPool`] of real GPU
//! units, and, when they stream, draw from their cell's one
//! [`SharedChannel`] bandwidth budget. Every
//! rig of a cell holds the cell's memo ([`CellMemo`]) through one handle:
//! the fixed task labels interned into the cell's engine, the Eq. (1)
//! partitions and the ring-table area slot; a private rig builds its own.

use super::SystemConfig;
use crate::cell::CellMemo;
use crate::metrics::{FrameRecord, RunSummary};
use crate::sched::UnitDirective;
use crate::telemetry::FrameSpans;
use qvr_energy::BusyTimes;
use qvr_gpu::{FrameWorkload, GpuTimingModel};
use qvr_net::{NetworkChannel, SharedChannel};
use qvr_scene::AppProfile;
use qvr_sim::{DepList, PoolId, ResourceId, SharedEngine, TaskId};
use std::fmt::Write as _;
use std::rc::Rc;

/// The server-side resources a fleet of sessions contends for: a pool of
/// remote GPU units and a matching pool of hardware encoders (one per GPU).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ServerPool {
    rgpu: PoolId,
    senc: PoolId,
    units: usize,
}

impl ServerPool {
    /// Creates (or finds) the server pools on an engine.
    ///
    /// # Panics
    ///
    /// Panics if `units` is zero.
    #[must_use]
    pub(crate) fn on(engine: &SharedEngine, units: usize) -> Self {
        ServerPool {
            rgpu: engine.resource_pool("RGPU", units),
            senc: engine.resource_pool("SENC", units),
            units,
        }
    }

    /// The remote-GPU pool.
    #[must_use]
    pub(crate) fn rgpu(&self) -> PoolId {
        self.rgpu
    }

    /// Number of GPU (and encoder) units.
    #[must_use]
    pub(crate) fn units(&self) -> usize {
        self.units
    }
}

/// Shared pipeline state for one scheme run.
#[derive(Debug)]
pub(crate) struct Rig {
    /// The discrete-event engine (possibly shared with other sessions).
    pub(crate) engine: SharedEngine,
    /// CPU resource (CL, LS, software controller).
    pub(crate) cpu: ResourceId,
    /// Mobile GPU resource.
    pub(crate) gpu: ResourceId,
    /// Uplink radio.
    pub(crate) net_up: ResourceId,
    /// Downlink radio.
    pub(crate) net_down: ResourceId,
    /// Server pools (remote GPUs + encoders).
    server: ServerPool,
    /// Mobile video decoder.
    pub(crate) vdec: ResourceId,
    /// UCA units.
    pub(crate) uca: ResourceId,
    /// LIWC unit.
    pub(crate) liwc: ResourceId,
    /// Seeded network channel (possibly shared with other sessions).
    pub(crate) channel: SharedChannel,
    /// Mobile GPU timing model.
    pub(crate) mobile: GpuTimingModel,
    config: SystemConfig,
    /// Fleet mode (the rig has a fleet slot): remote renders cost per-GPU
    /// time on a pool unit, and recorded chain latencies include queueing
    /// behind other tenants.
    contended: bool,
    /// How this session's remote chains pick a server unit — resolved by
    /// the fleet's [`crate::sched::ServerPolicy`] from the session's
    /// tenant class (whole-pool earliest-start outside a policy fleet).
    directive: UnitDirective,
    /// The fleet slot this rig occupies (0 for private rigs) — stamped on
    /// every telemetry [`crate::telemetry::FrameEvent`] the session emits.
    slot: usize,
    /// Absolute simulated time this session's life starts (0 unless gated
    /// by [`Rig::gate_at`]): spans, FPS, and frame intervals measure from
    /// here, so a mid-run joiner isn't billed for time before it existed.
    origin_ms: f64,
    /// Server GPU time submitted since the last frame-stat take, ms (the
    /// per-stage busy attribution telemetry streams).
    pending_render_ms: f64,
    /// Server encoder time submitted since the last take, ms.
    pending_encode_ms: f64,
    /// Link activity (uplink + downlink) submitted since the last take, ms.
    pending_radio_ms: f64,
    /// Server unit the latest remote chain landed on, if any this frame.
    pending_unit: Option<usize>,
    /// Per-stage span envelopes accumulated since the last frame-span take
    /// — task times are final at submission, so each stage's start/end is
    /// widened eagerly as chains submit (no TaskId kept alive).
    pending_spans: FrameSpans,
    /// Per-resource busy time already accumulated when this rig was built
    /// — non-zero when a churn fleet reuses a departed session's resource
    /// slot; subtracted at finish so energy stays per-tenant.
    busy_baseline: BusyTimes,
    /// Display tasks of the last `frames_in_flight` frames (for
    /// render-ahead pacing) — bounded, so retiring engine history never
    /// leaves a stale pacing reference behind.
    recent_displays: std::collections::VecDeque<TaskId>,
    /// End time of every display so far (frame intervals are derived from
    /// these at finish; times are final at submission, so recording them
    /// eagerly is exact and keeps no TaskId alive).
    display_ends: Vec<f64>,
    records: Vec<FrameRecord>,
    /// Interned chunk labels of every chain this rig has submitted (see
    /// [`ChainLabels`]).
    chain_labels: ChainLabels,
    /// The cell's memo, shared with every rig on the engine.
    memo: Rc<CellMemo>,
}

/// The fixed task labels the steppers submit every frame: control logic,
/// local setup, local rendering, GPU composition, time warp, scanout, the
/// two uploads, LIWC's lookup and update, and the UCA's two composition
/// passes. They are interned once per cell ([`Label::intern_all`]) and
/// submitted by handle.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Label {
    Cl,
    Ls,
    Lr,
    C,
    Atw,
    Display,
    Pose,
    PoseCfg,
    LiwcSelect,
    LiwcUpdate,
    UcaOuter,
    UcaBorder,
}

impl Label {
    /// Each label's text, as the engine's task records carry it, indexed
    /// by the label.
    const TEXT: [&'static str; 12] = [
        "CL",
        "LS",
        "LR",
        "C",
        "ATW",
        "display",
        "pose",
        "pose+cfg",
        "LIWC:select",
        "LIWC:update",
        "UCA:outer",
        "UCA:border",
    ];

    /// Every fixed label interned into `engine`, indexed by the label.
    pub(crate) fn intern_all(engine: &SharedEngine) -> [Rc<str>; 12] {
        Label::TEXT.map(|text| engine.intern(text))
    }
}

/// The rig's chain-label table, threaded through [`Rig::remote_chain`]:
/// for each chain label the rig has used, the engine-interned handles of
/// chunk `i`'s labels `{label}:rr{i}`, `:enc{i}`, `:tx{i}` and `:vd{i}`,
/// for every chunk in submission order. A chain's labels are formatted and
/// interned on its first use; every later chain submits each chunk with a
/// reference-count increment. A rig uses at most three chain labels
/// (`remote`, `periph`, or StaticCollab's `bg:prefetch`, `bg:sync` and
/// `bg:refetch`), so a lookup is a text comparison over at most three
/// entries.
#[derive(Debug, Clone, Default)]
struct ChainLabels(Vec<(Box<str>, Vec<ChunkLabels>)>);

/// One chunk's interned `rr`, `enc`, `tx` and `vd` labels.
type ChunkLabels = [Rc<str>; 4];

impl ChainLabels {
    /// The per-chunk label handles of chain `label` split into `chunks`
    /// chunks, interned into `engine` on first use.
    fn of(&mut self, engine: &SharedEngine, label: &str, chunks: u32) -> &[ChunkLabels] {
        let idx = match self.0.iter().position(|(l, _)| **l == *label) {
            Some(idx) => idx,
            None => {
                let mut text = String::new();
                let handles = (0..chunks)
                    .map(|i| {
                        ["rr", "enc", "tx", "vd"].map(|stage| {
                            text.clear();
                            let _ = write!(text, "{label}:{stage}{i}");
                            engine.intern(&text)
                        })
                    })
                    .collect();
                self.0.push((label.into(), handles));
                self.0.len() - 1
            }
        };
        &self.0[idx].1
    }
}

/// Result of one remote render→encode→transmit→decode chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RemoteChain {
    /// The final decode task; composition depends on it.
    pub(crate) done: TaskId,
    /// Wall-clock latency from the chain becoming ready (its dependencies
    /// done) to the last decode landing, ms. Includes queueing behind other
    /// frames and other sessions — the number a tenant actually experiences.
    pub(crate) duration_ms: f64,
    /// Contention-free chain duration: the chunked-pipeline completion time
    /// `Σstages/k + max(stage)·(k−1)/k`, ms. This is what one frame costs in
    /// isolation — the quantity the paper's stacked latency bars report and
    /// the quantity LIWC balances against local rendering.
    pub(crate) nominal_ms: f64,
    /// Bytes that crossed the downlink.
    pub(crate) bytes: f64,
}

impl Rig {
    /// Builds a private single-tenant rig for a config and seed (the
    /// original evaluation setup: one user, one server, one channel).
    #[must_use]
    pub(crate) fn new(config: &SystemConfig, seed: u64) -> Self {
        let engine = SharedEngine::new();
        let channel = SharedChannel::new(NetworkChannel::new(config.network, seed));
        let server = ServerPool::on(&engine, 1);
        let directive = UnitDirective::whole_pool(1);
        let memo = Rc::new(CellMemo::new(&engine, config.mar));
        Self::build(config, engine, channel, server, None, directive, memo)
    }

    /// The rig of fleet slot `session_idx`, or a private rig for `None`.
    /// A fleet tenant's rig tags its mobile-side resources with its slot and
    /// shares the cell's engine, server pools and memo; `channel` is the
    /// cell's link (or a private channel for a tenant that does not
    /// stream), and `directive` the cell policy's placement rule for the
    /// tenant's class.
    pub(crate) fn build(
        config: &SystemConfig,
        engine: SharedEngine,
        channel: SharedChannel,
        server: ServerPool,
        session_idx: Option<usize>,
        directive: UnitDirective,
        memo: Rc<CellMemo>,
    ) -> Self {
        let name = |base: &str| match session_idx {
            Some(i) => format!("{base}#{i}"),
            None => base.to_owned(),
        };
        let cpu = engine.resource(&name("CPU"));
        let gpu = engine.resource(&name("GPU"));
        let net_up = engine.resource(&name("NET_UP"));
        let net_down = engine.resource(&name("NET_DOWN"));
        let vdec = engine.resource(&name("VDEC"));
        let uca = engine.resource(&name("UCA"));
        let liwc = engine.resource(&name("LIWC"));
        let busy_baseline = BusyTimes {
            span_ms: 0.0,
            gpu_ms: engine.busy_ms(gpu),
            radio_ms: engine.busy_ms(net_down) + engine.busy_ms(net_up),
            vdec_ms: engine.busy_ms(vdec),
            cpu_ms: engine.busy_ms(cpu),
            liwc_ms: engine.busy_ms(liwc),
            uca_ms: engine.busy_ms(uca),
        };
        Rig {
            engine,
            cpu,
            gpu,
            net_up,
            net_down,
            server,
            vdec,
            uca,
            liwc,
            channel,
            mobile: GpuTimingModel::new(config.gpu),
            config: *config,
            contended: session_idx.is_some(),
            directive,
            slot: session_idx.unwrap_or(0),
            origin_ms: 0.0,
            pending_render_ms: 0.0,
            pending_encode_ms: 0.0,
            pending_radio_ms: 0.0,
            pending_unit: None,
            pending_spans: FrameSpans::default(),
            busy_baseline,
            recent_displays: std::collections::VecDeque::with_capacity(
                config.frames_in_flight as usize + 1,
            ),
            display_ends: Vec::new(),
            records: Vec::new(),
            chain_labels: ChainLabels::default(),
            memo,
        }
    }

    /// The memo of the cell this rig belongs to.
    pub(crate) fn memo(&self) -> &CellMemo {
        &self.memo
    }

    /// Submits a task labelled with a fixed label, by its interned handle.
    pub(crate) fn submit(
        &self,
        label: Label,
        resource: Option<ResourceId>,
        duration_ms: f64,
        deps: &[TaskId],
    ) -> TaskId {
        self.engine
            .submit_interned(self.memo.label(label), resource, duration_ms, deps)
    }

    #[cfg(test)]
    pub(crate) fn frame_capacity(&self) -> (usize, usize) {
        (self.records.capacity(), self.display_ends.capacity())
    }

    /// Pre-reserves the per-frame record storage for a run of (at least)
    /// `frames` frames, so long-horizon runs don't reallocate
    /// `display_ends`/`records` mid-flight. Growing past the reservation
    /// still works — this is a capacity hint, not a bound.
    pub(crate) fn reserve_frames(&mut self, frames: usize) {
        let extra = frames.saturating_sub(self.records.len());
        self.records.reserve(extra);
        let extra = frames.saturating_sub(self.display_ends.len());
        self.display_ends.reserve(extra);
    }

    /// The config this rig runs under.
    #[must_use]
    pub(crate) fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Holds every per-session resource until absolute time `t_ms`: a
    /// session joining a running fleet starts its pipeline at its *join*
    /// time instead of simulated time zero. Zero-duration hold tasks pin
    /// each private resource's frontier; shared resources (server pool,
    /// link) already sit at the fleet's global frontier.
    pub(crate) fn gate_at(&mut self, t_ms: f64) {
        self.origin_ms = t_ms.max(0.0);
        for rid in [
            self.cpu,
            self.gpu,
            self.net_up,
            self.net_down,
            self.vdec,
            self.uca,
            self.liwc,
        ] {
            self.engine
                .submit_at("join:hold", Some(rid), t_ms, 0.0, &[]);
        }
    }

    /// Render-ahead pacing dependencies for a new frame: at most
    /// `frames_in_flight` frames may be in the pipe. Returned inline (a
    /// [`DepList`] derefs to `&[TaskId]`), so per-frame pacing allocates
    /// nothing.
    #[must_use]
    pub(crate) fn pace_deps(&self) -> DepList {
        let mut deps = DepList::new();
        let in_flight = self.config.frames_in_flight as usize;
        if self.display_ends.len() >= in_flight {
            // The deque holds exactly the last `in_flight` display tasks,
            // so its front is the display of frame `n - in_flight`.
            deps.push(*self.recent_displays.front().expect("deque primed"));
        }
        deps
    }

    /// Time for a full-screen GPU pass over both eyes at `cycles_per_px`.
    #[must_use]
    pub(crate) fn stereo_pass_ms(&self, profile: &AppProfile, cycles_per_px: f64) -> f64 {
        let px = f64::from(profile.display.width_px()) * f64::from(profile.display.height_px());
        self.mobile.fullscreen_pass_ms(px * 2.0, cycles_per_px)
    }

    /// Remote render time for a per-eye workload under this rig's server
    /// scheduling: the analytic all-chiplets time when the session owns the
    /// server, the single-GPU time when it shares a pool of per-frame units.
    #[must_use]
    pub(crate) fn remote_render_ms(&self, per_eye: &FrameWorkload) -> f64 {
        if self.contended {
            self.config.remote.per_gpu_stereo_render_ms(per_eye)
        } else {
            self.config.remote.stereo_render_ms(per_eye)
        }
    }

    /// The latency a frame's remote chain contributes to this session's
    /// motion-to-photon: contention-free nominal cost in single-tenant mode
    /// (the paper's per-stage bars), experienced queueing-inclusive latency
    /// in fleet mode (where waiting behind other tenants is the point).
    #[must_use]
    pub(crate) fn chain_latency_ms(&self, chain: &RemoteChain) -> f64 {
        if self.contended {
            chain.duration_ms
        } else {
            chain.nominal_ms
        }
    }

    /// Resolves this session's placement directive to a concrete server
    /// unit for a chain becoming ready at `ready` ms.
    fn select_chain_unit(&self, ready: f64) -> usize {
        let pool = self.server.rgpu;
        match &self.directive {
            UnitDirective::EarliestStart { lo, hi } => {
                self.engine.least_loaded_unit_in(pool, ready, *lo..*hi)
            }
            UnitDirective::PackLatest { aging_ms, units } => {
                let packed = self.engine.most_loaded_unit_in(pool, ready, 0..*units);
                let free = self.engine.free_at(self.engine.pool_unit(pool, packed));
                if free > ready + aging_ms {
                    // Aging bound hit: take the work-conserving choice so
                    // deprioritised work never waits more than `aging_ms`
                    // beyond what least-loaded placement would give it.
                    self.engine.least_loaded_unit_in(pool, ready, 0..*units)
                } else {
                    packed
                }
            }
            UnitDirective::ByLoad {
                reserved,
                heavy_ms,
                units,
                slot,
                tracker,
            } => {
                // Measured placement: re-classified at every submission
                // against the live EWMA (unmeasured tenants ride light).
                let heavy = tracker.ewma(*slot).is_some_and(|l| l > *heavy_ms);
                let range = if heavy {
                    *reserved..*units
                } else {
                    0..*reserved
                };
                self.engine.least_loaded_unit_in(pool, ready, range)
            }
        }
    }

    /// Submits the remote render → encode → transmit → decode chain, split
    /// into `tx_chunks` streaming chunks so the stages overlap (the paper:
    /// "remote rendering, network transmission and video codex can be
    /// streamed in parallel").
    ///
    /// The whole chain is pinned to one server unit — chosen by the
    /// session's placement directive (least-loaded by default; a fleet's
    /// [`crate::sched::ServerPolicy`] may confine or deprioritise the
    /// choice by tenant class) together with its encoder — so a frame
    /// never straddles GPUs while chunks still pipeline against the network
    /// and the decoder. With a 1-unit pool this reduces exactly to the
    /// classic single-resource schedule.
    ///
    /// Chunk `i`'s tasks are labelled `{label}:rr{i}`, `:enc{i}`, `:tx{i}`
    /// and `:vd{i}`. The rig interns them on the label's first chain and
    /// reuses the handles afterwards, so `label` should be one of a few
    /// fixed names: each new one adds `4 × tx_chunks` labels to the
    /// engine's pool for good.
    ///
    /// * `render_ms` — total remote render time for the frame;
    /// * `bytes` — total downlink bytes (already stereo-adjusted);
    /// * `decode_px` — total pixels the mobile decoder reconstructs;
    /// * `deps` — tasks that must complete before the chain starts (pose
    ///   upload, setup).
    pub(crate) fn remote_chain(
        &mut self,
        label: &str,
        render_ms: f64,
        bytes: f64,
        decode_px: f64,
        deps: &[TaskId],
    ) -> RemoteChain {
        let k = self.config.tx_chunks.max(1);
        let kf = f64::from(k);
        let encode_ms = self.config.codec_latency.encode_ms(decode_px);
        let decode_ms = self.config.codec_latency.decode_ms(decode_px);
        let ready = self.engine.deps_ready_ms(deps);
        let unit = self.select_chain_unit(ready);
        let rgpu = self.engine.pool_unit(self.server.rgpu, unit);
        let senc = self.engine.pool_unit(self.server.senc, unit);
        let mut tx_total_ms = 0.0;
        let mut last_decode: Option<TaskId> = None;
        let mut prev_tx: Option<TaskId> = None;
        let labels = self.chain_labels.of(&self.engine, label, k);
        for (i, [rr_label, enc_label, tx_label, vd_label]) in labels.iter().enumerate() {
            let rr = self
                .engine
                .submit_interned(rr_label, Some(rgpu), render_ms / kf, deps);
            self.pending_spans
                .render
                .widen(self.engine.start_of(rr), self.engine.end_of(rr));
            let enc = self
                .engine
                .submit_interned(enc_label, Some(senc), encode_ms / kf, &[rr]);
            self.pending_spans
                .encode
                .widen(self.engine.start_of(enc), self.engine.end_of(enc));
            // Sample the channel for this chunk's transfer time. The stream
            // pays its base (propagation) latency once, on the first chunk.
            let tx_ms = if i == 0 {
                self.channel.download_ms(bytes / f64::from(k))
            } else {
                self.channel.transfer_only_ms(bytes / f64::from(k))
            };
            tx_total_ms += tx_ms;
            let tx = match prev_tx {
                Some(p) => {
                    self.engine
                        .submit_interned(tx_label, Some(self.net_down), tx_ms, &[enc, p])
                }
                None => self
                    .engine
                    .submit_interned(tx_label, Some(self.net_down), tx_ms, &[enc]),
            };
            self.pending_spans
                .network
                .widen(self.engine.start_of(tx), self.engine.end_of(tx));
            prev_tx = Some(tx);
            let vd = self
                .engine
                .submit_interned(vd_label, Some(self.vdec), decode_ms / kf, &[tx]);
            self.pending_spans
                .decode
                .widen(self.engine.start_of(vd), self.engine.end_of(vd));
            last_decode = Some(vd);
        }
        let done = last_decode.expect("k >= 1");
        // Per-stage busy attribution for the telemetry stream: everything
        // this chain put on the server pool and the link, and where.
        self.pending_render_ms += render_ms;
        self.pending_encode_ms += encode_ms;
        self.pending_radio_ms += tx_total_ms;
        self.pending_unit = Some(unit);
        let stages = [render_ms, encode_ms, tx_total_ms, decode_ms];
        let sum: f64 = stages.iter().sum();
        let max = stages.iter().fold(0.0f64, |a, &b| a.max(b));
        let nominal_ms = sum / kf + max * (kf - 1.0) / kf;
        RemoteChain {
            done,
            duration_ms: self.engine.end_of(done) - ready,
            nominal_ms,
            bytes,
        }
    }

    /// Submits the pose/config upload for a frame; returns the task and its
    /// sampled duration in ms.
    pub(crate) fn upload(&mut self, label: Label, bytes: f64, deps: &[TaskId]) -> (TaskId, f64) {
        let t = self.channel.upload_ms(bytes);
        self.pending_radio_ms += t;
        let task = self.submit(label, Some(self.net_up), t, deps);
        self.pending_spans
            .upload
            .widen(self.engine.start_of(task), self.engine.end_of(task));
        (task, t)
    }

    /// The fleet slot this rig occupies (0 for private rigs).
    #[must_use]
    pub(crate) fn slot(&self) -> usize {
        self.slot
    }

    /// The session's origin in absolute simulated time (its join gate;
    /// 0 unless gated).
    #[must_use]
    pub(crate) fn origin_ms(&self) -> f64 {
        self.origin_ms
    }

    /// Takes (and resets) the frame's accumulated busy attribution:
    /// `(server render ms, server encode ms, radio ms, server unit)`.
    /// Called once per frame by [`crate::session::Session::step`] when it
    /// assembles the frame's telemetry event.
    pub(crate) fn take_frame_stats(&mut self) -> (f64, f64, f64, Option<usize>) {
        let stats = (
            self.pending_render_ms,
            self.pending_encode_ms,
            self.pending_radio_ms,
            self.pending_unit,
        );
        self.pending_render_ms = 0.0;
        self.pending_encode_ms = 0.0;
        self.pending_radio_ms = 0.0;
        self.pending_unit = None;
        stats
    }

    /// Takes (and resets) the frame's accumulated per-stage span envelopes
    /// — the trace attribution the observability sinks consume. Called once
    /// per frame alongside [`Rig::take_frame_stats`].
    pub(crate) fn take_frame_spans(&mut self) -> FrameSpans {
        std::mem::take(&mut self.pending_spans)
    }

    /// Submits the display scanout as a latency-only stage and registers it
    /// for pacing. Returns the display task.
    pub(crate) fn display(&mut self, deps: &[TaskId]) -> TaskId {
        let t = self.submit(Label::Display, None, self.config.display_ms, deps);
        self.pending_spans
            .display
            .widen(self.engine.start_of(t), self.engine.end_of(t));
        self.recent_displays.push_back(t);
        if self.recent_displays.len() > self.config.frames_in_flight as usize {
            self.recent_displays.pop_front();
        }
        self.display_ends.push(self.engine.end_of(t));
        t
    }

    /// End time of the most recent display task (0 before any frame) —
    /// the session's virtual clock.
    #[must_use]
    pub(crate) fn last_display_end(&self) -> f64 {
        self.display_ends.last().copied().unwrap_or(0.0)
    }

    /// The most recent display task, if any (for fully serialised control
    /// loops that block on present).
    #[must_use]
    pub(crate) fn last_display_task(&self) -> Option<TaskId> {
        self.recent_displays.back().copied()
    }

    /// The most recently recorded frame, if any.
    #[must_use]
    pub(crate) fn last_record(&self) -> Option<&FrameRecord> {
        self.records.last()
    }

    /// Records a completed frame.
    pub(crate) fn record(&mut self, record: FrameRecord) {
        self.records.push(record);
    }

    /// Motion-to-photon latency from the per-frame critical path: sensor
    /// transport + CPU stages + the slower of the local/remote branches +
    /// composition path + display scanout. In single-tenant mode the branch
    /// uses contention-free nominal costs, so queueing behind the session's
    /// own render-ahead frames is excluded — real pipelines sample the
    /// latest pose at render start (the paper's stacked latency bars report
    /// exactly these per-stage costs). In fleet mode the branch comes from
    /// [`Rig::chain_latency_ms`], i.e. [`RemoteChain::duration_ms`], which
    /// includes *all* queueing on shared resources — behind other tenants
    /// and behind this session's own in-flight frames alike (a contended
    /// pool can't attribute waiting to one or the other).
    #[must_use]
    pub(crate) fn path_mtp_ms(&self, cpu_ms: f64, branch_ms: f64, compose_ms: f64) -> f64 {
        self.config.tracking_ms + cpu_ms + branch_ms + compose_ms + self.config.display_ms
    }

    /// Finalises the run into a summary with energy accounting.
    ///
    /// Only this session's mobile-side resources are counted into the
    /// energy budget (the headset pays for its own GPU, radio, decoder and
    /// accelerators — not for the shared server).
    #[must_use]
    pub(crate) fn finish(mut self, scheme: &str, app: &str, liwc_always_on: bool) -> RunSummary {
        // In a fleet the engine's makespan belongs to the whole schedule —
        // a slow tenant must not dilute a fast one's FPS or energy span, so
        // contended sessions close their span at their own last scanout.
        // Both span and busy times measure from this session's own origin
        // and baseline (non-zero only for gated/slot-reusing churn
        // joiners), so FPS and energy are per-tenant.
        let span = if self.contended && !self.display_ends.is_empty() {
            self.last_display_end()
        } else {
            self.engine.makespan()
        } - self.origin_ms;
        let base = &self.busy_baseline;
        let busy = BusyTimes {
            span_ms: span,
            gpu_ms: self.engine.busy_ms(self.gpu) - base.gpu_ms,
            radio_ms: self.engine.busy_ms(self.net_down) + self.engine.busy_ms(self.net_up)
                - base.radio_ms,
            vdec_ms: self.engine.busy_ms(self.vdec) - base.vdec_ms,
            cpu_ms: self.engine.busy_ms(self.cpu) - base.cpu_ms,
            liwc_ms: if liwc_always_on {
                span
            } else {
                self.engine.busy_ms(self.liwc) - base.liwc_ms
            },
            uca_ms: self.engine.busy_ms(self.uca) - base.uca_ms,
        };
        let energy =
            self.config
                .power
                .energy(&busy, self.config.gpu.frequency_mhz, self.config.network);
        // Fill in frame intervals from the display ends recorded at
        // submission (final the moment they were scheduled).
        let mut prev_end = self.origin_ms;
        for (record, end) in self.records.iter_mut().zip(&self.display_ends) {
            record.frame_interval_ms = end - prev_end;
            prev_end = *end;
        }
        RunSummary {
            scheme: scheme.to_owned(),
            app: app.to_owned(),
            frames: self.records,
            makespan_ms: span,
            busy,
            energy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A chain's chunk labels in submission order, composed per task: the
    /// text the rig's label table must reproduce.
    fn composed(label: &str, chunks: u32) -> Vec<String> {
        (0..chunks)
            .flat_map(|i| ["rr", "enc", "tx", "vd"].map(|stage| format!("{label}:{stage}{i}")))
            .collect()
    }

    #[test]
    fn fixed_labels_submit_their_text_by_the_pooled_handle() {
        // Each label submits under its own text, shared with the engine's
        // pool, and the twelve texts are distinct.
        use Label::*;
        let labels = [
            Cl, Ls, Lr, C, Atw, Display, Pose, PoseCfg, LiwcSelect, LiwcUpdate, UcaOuter, UcaBorder,
        ];
        let rig = Rig::new(&SystemConfig::default(), 7);
        let mut texts = std::collections::BTreeSet::new();
        for label in labels {
            let id = rig.submit(label, None, 1.0, &[]);
            let task = rig.engine.with(|e| e.tasks()[e.tasks().len() - 1].clone());
            assert_eq!(rig.engine.end_of(id), task.end);
            let text = Label::TEXT[label as usize];
            assert_eq!(&*task.label, text);
            assert!(Rc::ptr_eq(&task.label, &rig.engine.intern(text)));
            texts.insert(text);
        }
        assert_eq!(texts.len(), Label::TEXT.len());
    }

    #[test]
    fn chain_chunks_carry_the_composed_labels_in_submission_order() {
        // 12 chunks reach the two-digit indices; the repeated `remote`
        // chain runs from the rig's label table.
        for chunks in [1, 4, 12] {
            let config = SystemConfig {
                tx_chunks: chunks,
                ..SystemConfig::default()
            };
            let mut rig = Rig::new(&config, 7);
            for label in ["remote", "bg:prefetch", "remote"] {
                let before = rig.engine.with(|e| e.tasks().len());
                let chain = rig.remote_chain(label, 6.0, 240_000.0, 2.0e6, &[]);
                let tasks = rig.engine.with(|e| e.tasks()[before..].to_vec());
                let got: Vec<&str> = tasks.iter().map(|t| &*t.label).collect();
                assert_eq!(got, composed(label, chunks), "{label} x{chunks}");
                for t in &tasks {
                    assert!(
                        Rc::ptr_eq(&t.label, &rig.engine.intern(&t.label)),
                        "{} must share the engine's pooled allocation",
                        t.label
                    );
                }
                assert_eq!(rig.engine.end_of(chain.done), tasks[tasks.len() - 1].end);
            }
        }
    }
}
