//! Replaying a [`Recording`] through each layer's public functions.
//!
//! Every frame event is replayed in stream order, making the calls the
//! scheme's stepper made for that frame, in the same order, with the same
//! arguments: the scene is regenerated from `AppSession`, LIWC runs with
//! closures the replay supplies, the shared link is a fresh channel on the
//! same seed that sees the same sequence of transfers, and so on. Because
//! the inputs are the same, the results must be too, and the replay checks
//! that they are (e1, tx bytes, local render time, radio time and rate
//! quality must equal the recorded frame bit for bit). A replay that
//! drifts from the run it claims to measure fails the benchmark run.
//!
//! The engine is the exception: recorded tasks carry no dependency lists,
//! so they are resubmitted in order into a fresh engine with a one-task
//! dependency chain, on the recorded resources, with the recorded labels
//! and durations, plus the reads and unit selection the rig makes around
//! them; retirement is called where the fleet called it and retires up to
//! the real engine's retired count.

use crate::record::{Recording, StepKind, StepRec};
use crate::trace::{Layer, SpanKind, Tracer};
use qvr::core::liwc::LatencyPredictor;
use qvr::prelude::*;
use qvr::scene::{FrameState, MotionDelta, TriangleFractionCache};
use qvr::sim::{PoolId, ResourceId, SharedEngine, TaskId};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::hint::black_box;

/// The fovea eccentricity FFR fixes.
const FFR_E1_DEG: f64 = 5.0;

/// The engine resources a rig opens per session slot (`{base}#{slot}`).
const RIG_RESOURCES: [&str; 7] = ["CPU", "GPU", "NET_UP", "NET_DOWN", "VDEC", "UCA", "LIWC"];

/// Runs `f`, timed as a span of `layer` when `timed`.
fn timed_layer<R>(tr: &Tracer, timed: bool, layer: Layer, calls: u64, f: impl FnOnce() -> R) -> R {
    if timed {
        tr.layer(layer, calls, f)
    } else {
        f()
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Foveated { liwc: bool, uca: bool },
    Remote,
    Static,
}

#[derive(Debug)]
struct RSession {
    kind: Kind,
    profile: AppProfile,
    app: AppSession,
    link: SharedChannel,
    /// The rig's per-session engine resources, in [`RIG_RESOURCES`] order.
    rig: [ResourceId; 7],
    mobile: GpuTimingModel,
    native_px: f64,
    cache: TriangleFractionCache,
    liwc: Option<Liwc>,
    rc: RateController,
    frames_done: usize,
    /// Static collaborative: queued prefetches (`None` = cache reuse).
    prefetched: VecDeque<Option<FrameState>>,
    /// Static collaborative: pose of the cached background.
    cache_pose: Option<FrameState>,
}

/// The default sinks a fleet streams through.
#[derive(Debug)]
struct DefaultSinks {
    aggregate: Option<AggregateSink>,
    windowed: Option<WindowedStatsSink>,
    energy: Option<EnergyMeter>,
    load: LoadTracker,
}

/// The observability sinks.
#[derive(Debug)]
struct ObsSinks {
    metrics: Option<MetricsSink>,
    health: Option<HealthMonitor>,
    trace: Option<TraceSink>,
}

/// What a finished replay hands back.
#[derive(Debug)]
pub struct ReplayOut {
    /// Frames replayed.
    pub frames: u64,
    /// Σ over frames of distinct (gaze, e1) pairs the frame's
    /// triangle-fraction calls asked for.
    pub distinct_pairs: u64,
    /// Downlink transfers the replayed link performed.
    pub transfers: u64,
    /// The replayed cell state, ready for `ShardSummary::merge`.
    pub cell: CellSummary,
}

/// Replays one recording.
#[derive(Debug)]
pub struct Replay<'a> {
    rec: &'a Recording,
    tr: &'a Tracer,
    system: SystemConfig,
    sessions: Vec<Option<RSession>>,
    slot_owner: Vec<Option<usize>>,
    link: SharedChannel,
    free_links: Vec<SharedChannel>,
    engine: SharedEngine,
    engine_res: Vec<ResourceId>,
    /// The replay engine's server pools (GPU, encoder).
    pools: (PoolId, PoolId),
    label_uses: Vec<LabelUse>,
    label_buf: String,
    ids: Vec<TaskId>,
    defaults: DefaultSinks,
    obs: ObsSinks,
    frames: u64,
    distinct_pairs: u64,
    /// (gaze x bits, gaze y bits, e1 bits) asked for in the current frame.
    frame_pairs: Vec<(u64, u64, u64)>,
}

/// How the rig uses a task label beyond submitting it.
#[derive(Debug, Clone, PartialEq)]
enum LabelUse {
    /// Submitted and never read back.
    Plain,
    /// Read back after submission (uploads and displays widen spans).
    Read,
    /// One chunk of a remote chain, `{prefix}:{stage}{chunk}`.
    Chunk {
        prefix: String,
        stage: &'static str,
        chunk: u32,
    },
}

impl LabelUse {
    fn of(label: &str) -> LabelUse {
        if matches!(label, "pose" | "pose+cfg" | "display") {
            return LabelUse::Read;
        }
        if let Some((prefix, tail)) = label.rsplit_once(':') {
            for stage in ["rr", "enc", "tx", "vd"] {
                if let Some(chunk) = tail.strip_prefix(stage).and_then(|n| n.parse().ok()) {
                    return LabelUse::Chunk {
                        prefix: prefix.to_owned(),
                        stage,
                        chunk,
                    };
                }
            }
        }
        LabelUse::Plain
    }
}

fn motion_index(delta: &MotionDelta) -> f64 {
    (delta.rotation_magnitude() / 1.5).clamp(0.0, 1.0)
}

fn same(what: &str, replayed: f64, recorded: f64) -> Result<(), String> {
    if replayed.to_bits() == recorded.to_bits() {
        Ok(())
    } else {
        Err(format!(
            "replay drift: {what} replayed {replayed} vs recorded {recorded}"
        ))
    }
}

/// One remote chain's transfers, as the rig samples them: the first chunk
/// pays the base latency, the rest only their transfer time.
fn chain_transfers(link: &SharedChannel, bytes: f64, chunks: u32) -> f64 {
    let k = chunks.max(1);
    let mut total = 0.0;
    for i in 0..k {
        total += if i == 0 {
            link.download_ms(bytes / f64::from(k))
        } else {
            link.transfer_only_ms(bytes / f64::from(k))
        };
    }
    total
}

impl<'a> Replay<'a> {
    /// Prepares a replay: a fresh link on the recording's seed and policy,
    /// a fresh engine with the recording's resources, fresh sinks.
    #[must_use]
    pub fn new(rec: &'a Recording, tr: &'a Tracer) -> Self {
        let system = rec.system;
        let link = SharedChannel::new(NetworkChannel::new(system.network, rec.seed));
        link.set_policy(rec.fairness);
        link.set_concurrent_streams(rec.link_streams);
        let engine = SharedEngine::new();
        let pools = (
            engine.resource_pool("RGPU", rec.server_units),
            engine.resource_pool("SENC", rec.server_units),
        );
        let engine_res = rec.resources.iter().map(|n| engine.resource(n)).collect();
        let t = &rec.telemetry;
        let units = rec.server_units;
        Replay {
            rec,
            tr,
            system,
            sessions: (0..rec.sessions.len()).map(|_| None).collect(),
            slot_owner: Vec::new(),
            link,
            free_links: Vec::new(),
            engine,
            engine_res,
            pools,
            label_uses: rec.labels.iter().map(|l| LabelUse::of(l)).collect(),
            label_buf: String::new(),
            ids: Vec::with_capacity(rec.tasks.len()),
            defaults: DefaultSinks {
                aggregate: rec.aggregate.then(AggregateSink::new),
                windowed: t.window_ms.map(if t.defer_window_close {
                    WindowedStatsSink::deferred
                } else {
                    WindowedStatsSink::new
                }),
                energy: t.energy.then(|| {
                    EnergyMeter::new(system.server_power, system.ap_power, system.network, units)
                }),
                load: LoadTracker::new(),
            },
            obs: ObsSinks {
                metrics: t.metrics.then(MetricsSink::new),
                health: t
                    .health
                    .map(|rules| HealthMonitor::new(rules, system.server_power, units)),
                trace: t.trace.map(TraceSink::new),
            },
            frames: 0,
            distinct_pairs: 0,
            frame_pairs: Vec::with_capacity(4),
        }
    }

    /// Replays every step.
    ///
    /// # Errors
    ///
    /// Returns the first replay drift found.
    pub fn run(mut self) -> Result<ReplayOut, String> {
        for step in &self.rec.steps {
            self.step(step)?;
        }
        let cell = self.cell_summary();
        Ok(ReplayOut {
            frames: self.frames,
            distinct_pairs: self.distinct_pairs,
            transfers: self.link.transfers(),
            cell,
        })
    }

    fn step(&mut self, step: &StepRec) -> Result<(), String> {
        let tr = self.tr;
        let events = &self.rec.events[step.events.clone()];
        if let Some(e) = events.first() {
            tr.set_frame(e.frame);
        }
        let step_span = tr.begin(SpanKind::Step);
        match step.kind {
            StepKind::Join { ordinal, slot } => self.join(ordinal, slot, step.host.is_some()),
            StepKind::Leave { ordinal } => self.leave(ordinal),
            StepKind::Frames => {
                for ev in events {
                    self.frame(ev)?;
                }
            }
            StepKind::Idle => {}
        }
        self.engine_step(step);
        if !events.is_empty() {
            self.sinks_step(events, step.close_at);
        }
        tr.end(step_span);
        Ok(())
    }

    /// Opens a session. A join made by a stepping call (a churn tick)
    /// is timed: the link membership, the load-slot reset, the rig's
    /// per-session engine resources, and the session's scene (and, for a
    /// LIWC tenant, its controller and prior). A closed fleet's roster
    /// joins at construction, outside stepping, and is not timed.
    fn join(&mut self, ordinal: usize, slot: usize, timed: bool) {
        let tr = self.tr;
        let rs = &self.rec.sessions[ordinal];
        let spec = &rs.spec;
        let system = self.system;
        let link = if spec.scheme.uses_network() {
            let (free, link) = (&mut self.free_links, &self.link);
            timed_layer(tr, timed, Layer::NetLink, 1, || match free.pop() {
                Some(handle) => {
                    handle.rejoin(spec.share);
                    handle
                }
                None => link.join(spec.share),
            })
        } else {
            SharedChannel::new(NetworkChannel::new(system.network, rs.seed))
        };
        let load = &self.defaults.load;
        timed_layer(tr, timed, Layer::Telemetry, 1, || load.reset(slot));
        let engine = &self.engine;
        let rig = timed_layer(tr, timed, Layer::SimEngine, 14, || {
            let ids = RIG_RESOURCES.map(|base| engine.resource(&format!("{base}#{slot}")));
            for id in ids {
                black_box(engine.busy_ms(id));
            }
            ids
        });
        let kind = match spec.scheme {
            SchemeKind::Qvr => Kind::Foveated {
                liwc: true,
                uca: true,
            },
            SchemeKind::Dfr => Kind::Foveated {
                liwc: true,
                uca: false,
            },
            SchemeKind::Ffr => Kind::Foveated {
                liwc: false,
                uca: false,
            },
            SchemeKind::RemoteOnly => Kind::Remote,
            SchemeKind::StaticCollab => Kind::Static,
            other => panic!("the benchmark's rosters do not run {other}"),
        };
        let profile = spec.profile.clone();
        let app = timed_layer(tr, timed, Layer::SceneAdvance, 1, || {
            AppSession::start(profile.clone(), rs.seed)
        });
        let liwc = matches!(kind, Kind::Foveated { liwc: true, .. }).then(|| {
            // The controller and its prior, built exactly as the stepper
            // builds them.
            let prior = timed_layer(tr, timed, Layer::SceneAdvance, 2, || {
                AppSession::start(profile.clone(), rs.seed).advance()
            });
            let full_ms = timed_layer(tr, timed, Layer::GpuTiming, 1, || {
                GpuTimingModel::new(system.gpu)
                    .stereo_frame_time(&profile.full_workload(&prior))
                    .total_ms()
            });
            let p0 = prior.triangles as f64 / full_ms.max(0.1);
            timed_layer(tr, timed, Layer::Liwc, 1, || {
                Liwc::new(
                    system.initial_e1_deg,
                    system.liwc_initial_gradient,
                    system.liwc_reward_alpha,
                    LatencyPredictor::new(
                        p0,
                        system.liwc_predictor_alpha,
                        system.cl_ms + system.ls_ms,
                    ),
                )
            })
        });
        let native_px =
            f64::from(profile.display.width_px()) * f64::from(profile.display.height_px());
        self.sessions[ordinal] = Some(RSession {
            kind,
            app,
            profile,
            link,
            rig,
            mobile: GpuTimingModel::new(system.gpu),
            native_px,
            cache: TriangleFractionCache::new(),
            liwc,
            rc: RateController::new(system.rate_control),
            frames_done: 0,
            prefetched: VecDeque::new(),
            cache_pose: None,
        });
        if self.slot_owner.len() <= slot {
            self.slot_owner.resize(slot + 1, None);
        }
        self.slot_owner[slot] = Some(ordinal);
    }

    /// Closes a session: its link membership, and the busy-time reads the
    /// rig makes to finalise the tenant's energy.
    fn leave(&mut self, ordinal: usize) {
        let Some(s) = self.sessions[ordinal].take() else {
            return;
        };
        if let Some(slot) = self.slot_owner.iter().position(|o| *o == Some(ordinal)) {
            self.slot_owner[slot] = None;
        }
        let tr = self.tr;
        if s.link.member().is_some() {
            let free = &mut self.free_links;
            tr.layer(Layer::NetLink, 1, || {
                if s.link.member_is_active() {
                    s.link.leave();
                }
                free.push(s.link.clone());
            });
        }
        let engine = &self.engine;
        tr.layer(Layer::SimEngine, 7, || {
            for id in s.rig {
                black_box(engine.busy_ms(id));
            }
        });
    }

    fn frame(&mut self, ev: &FrameEvent) -> Result<(), String> {
        let tr = self.tr;
        let recording = self.rec;
        let ordinal = self
            .slot_owner
            .get(ev.session)
            .copied()
            .flatten()
            .ok_or_else(|| format!("frame event for unoccupied slot {}", ev.session))?;
        let s = self.sessions[ordinal]
            .as_mut()
            .ok_or("frame event for a departed session")?;
        let rec = recording.sessions[ordinal]
            .frames
            .get(s.frames_done)
            .ok_or("more frame events than recorded frames")?;
        s.frames_done += 1;
        self.frames += 1;
        let frame = tr.layer(Layer::SceneAdvance, 1, || s.app.advance());
        if frame.frame_id != rec.frame_id {
            return Err(format!(
                "replay drift: frame id {} vs recorded {}",
                frame.frame_id, rec.frame_id
            ));
        }
        let config = self.system;
        let rc_quality = config.rate_control.enabled.then(|| s.rc.quality());
        if rc_quality != rec.quality {
            return Err("replay drift: rate-control quality".to_owned());
        }
        let stereo = config.stereo_stream_factor;
        let chunks = config.tx_chunks;
        let eye_px = s.native_px;
        let (bytes, radio, t_local) = match s.kind {
            Kind::Foveated { liwc, uca } => {
                let display = s.profile.display;
                let gaze = frame.sample.gaze;
                let motion = motion_index(&frame.delta);
                let base = config.network.base_latency_ms();
                let pairs = &mut self.frame_pairs;
                pairs.clear();
                let e1 = if liwc {
                    let observed = tr.layer(Layer::NetLink, 1, || s.link.observed_download_mbps());
                    let (profile, cache) = (&s.profile, &mut s.cache);
                    let controller = s.liwc.as_mut().expect("LIWC sessions carry one");
                    let span = tr.begin(SpanKind::Layer(Layer::Liwc));
                    let d = controller.select(
                        &frame.delta,
                        frame.triangles,
                        |e| {
                            pairs.push((gaze.x.to_bits(), gaze.y.to_bits(), e.to_bits()));
                            tr.layer(Layer::TriangleFraction, 1, || {
                                profile.fovea_triangle_fraction_cached(&frame, e, cache)
                            })
                        },
                        |e| {
                            let plan = tr.layer(Layer::Foveation, 1, || {
                                FoveationPlan::resolve(e, &display, &config.mar, gaze)
                            });
                            tr.layer(Layer::CodecBytes, 1, || match rc_quality {
                                Some(q) => {
                                    plan.periphery_entropy_bytes(frame.content_detail, motion, q)
                                }
                                None => plan.periphery_bytes(
                                    &config.size_model,
                                    frame.content_detail,
                                    config.periphery_quality,
                                ),
                            }) * stereo
                        },
                        observed,
                        base,
                    );
                    tr.end(span);
                    tr.count(Layer::Liwc, 1);
                    d.e1_deg
                } else {
                    FFR_E1_DEG
                };
                same("e1", e1, rec.e1_deg.unwrap_or(f64::NAN))?;
                let plan = tr.layer(Layer::Foveation, 1, || {
                    FoveationPlan::resolve(e1, &display, &config.mar, gaze)
                });
                let up = tr.layer(Layer::NetLink, 1, || s.link.upload_ms(1_536.0));
                pairs.push((gaze.x.to_bits(), gaze.y.to_bits(), e1.to_bits()));
                let (profile, cache) = (&s.profile, &mut s.cache);
                let fovea_wl = tr.layer(Layer::TriangleFraction, 1, || {
                    profile.fovea_workload_cached(&frame, e1, cache)
                });
                let mobile = &s.mobile;
                let lr_ms = tr.layer(Layer::GpuTiming, 2, || {
                    let lr_ms = mobile.stereo_frame_time(&fovea_wl).total_ms();
                    let mid_px = plan.middle_region_px * plan.middle_rate.linear_scale().powi(2);
                    let out_px = plan.outer_region_px * plan.outer_rate.linear_scale().powi(2);
                    let periph_wl = profile
                        .full_workload(&frame)
                        .scaled_region((mid_px + out_px) / eye_px, 1.0);
                    black_box(config.remote.per_gpu_stereo_render_ms(&periph_wl));
                    lr_ms
                });
                let bytes = tr.layer(Layer::CodecBytes, 1, || match rc_quality {
                    Some(q) => plan.periphery_entropy_bytes(frame.content_detail, motion, q),
                    None => plan.periphery_bytes(
                        &config.size_model,
                        frame.content_detail,
                        config.periphery_quality,
                    ),
                }) * stereo;
                let link = &s.link;
                let tx = tr.layer(Layer::NetLink, u64::from(chunks), || {
                    chain_transfers(link, bytes, chunks)
                });
                if !uca {
                    tr.layer(Layer::GpuTiming, 2, || {
                        let px = eye_px * 2.0;
                        black_box(
                            mobile.fullscreen_pass_ms(px, config.composition_cycles_per_px)
                                + mobile.fullscreen_pass_ms(px, config.atw_cycles_per_px),
                        )
                    });
                }
                if liwc {
                    pairs.push((gaze.x.to_bits(), gaze.y.to_bits(), e1.to_bits()));
                    let frac = tr.layer(Layer::TriangleFraction, 1, || {
                        profile.fovea_triangle_fraction_cached(&frame, e1, cache)
                    });
                    let observed = tr.layer(Layer::NetLink, 1, || link.observed_download_mbps());
                    let controller = s.liwc.as_mut().expect("LIWC sessions carry one");
                    tr.layer(Layer::Liwc, 1, || {
                        controller.observe(
                            frame.triangles,
                            frac,
                            lr_ms,
                            rec.t_remote_ms,
                            bytes,
                            observed,
                            base,
                        );
                    });
                }
                pairs.sort_unstable();
                pairs.dedup();
                self.distinct_pairs += pairs.len() as u64;
                (bytes, up + tx, lr_ms)
            }
            Kind::Remote => {
                let up = tr.layer(Layer::NetLink, 1, || s.link.upload_ms(1_024.0));
                let profile = &s.profile;
                tr.layer(Layer::GpuTiming, 1, || {
                    black_box(
                        config
                            .remote
                            .per_gpu_stereo_render_ms(&profile.full_workload(&frame)),
                    )
                });
                let bytes = tr.layer(Layer::CodecBytes, 1, || match rc_quality {
                    Some(q) => EntropyModel::layer(
                        eye_px,
                        frame.content_detail,
                        motion_index(&frame.delta),
                        1.0,
                        0.0,
                    )
                    .frame_bytes(q),
                    None => config.size_model.frame_bytes(
                        eye_px.round() as u64,
                        frame.content_detail,
                        1.0,
                    ),
                }) * stereo;
                let link = &s.link;
                let tx = tr.layer(Layer::NetLink, u64::from(chunks), || {
                    chain_transfers(link, bytes, chunks)
                });
                let mobile = &s.mobile;
                let atw_ms = tr.layer(Layer::GpuTiming, 1, || {
                    mobile.fullscreen_pass_ms(eye_px * 2.0, config.atw_cycles_per_px)
                });
                (bytes, up + tx, atw_ms)
            }
            Kind::Static => {
                let i = s.frames_done - 1;
                let lookahead = config.prefetch_lookahead as usize;
                let link = &s.link;
                let mut radio = tr.layer(Layer::NetLink, 1, || link.upload_ms(1_024.0));
                let profile = &s.profile;
                tr.layer(Layer::GpuTiming, 1, || {
                    black_box(
                        config
                            .remote
                            .per_gpu_stereo_render_ms(&profile.background_workload(&frame)),
                    )
                });
                let px = eye_px.round() as u64;
                let bg_bytes = tr.layer(Layer::CodecBytes, 2, || {
                    config.size_model.frame_bytes(px, frame.content_detail, 1.0)
                        + config.size_model.depth_bytes(px, 1.0)
                }) * stereo;
                let fresh = s.cache_pose.is_some_and(|p| {
                    MotionDelta::between(&p.sample, &frame.sample).rotation_magnitude()
                        < config.static_cache_rotation_deg
                });
                let mut tx_bytes = 0.0;
                if fresh {
                    s.prefetched.push_back(None);
                } else {
                    radio += tr.layer(Layer::NetLink, u64::from(chunks), || {
                        chain_transfers(link, bg_bytes, chunks)
                    });
                    tx_bytes += bg_bytes;
                    s.prefetched.push_back(Some(frame));
                }
                let mobile = &s.mobile;
                let render_ms = tr.layer(Layer::GpuTiming, 1, || {
                    mobile
                        .stereo_frame_time(&profile.interactive_workload(&frame))
                        .total_ms()
                });
                let refetch = if i < lookahead {
                    s.cache_pose = Some(frame);
                    true
                } else {
                    match s
                        .prefetched
                        .pop_front()
                        .ok_or("static prefetch queue empty")?
                    {
                        None => false,
                        Some(predicted) => {
                            let drift = MotionDelta::between(&predicted.sample, &frame.sample);
                            s.cache_pose = Some(predicted);
                            drift.rotation_magnitude() > config.misprediction_rotation_deg
                        }
                    }
                };
                if refetch {
                    radio += tr.layer(Layer::NetLink, u64::from(chunks), || {
                        chain_transfers(link, bg_bytes, chunks)
                    });
                    tx_bytes += bg_bytes;
                }
                tr.layer(Layer::GpuTiming, 2, || {
                    let px = eye_px * 2.0;
                    black_box(
                        mobile.fullscreen_pass_ms(px, config.static_composition_cycles_per_px)
                            + mobile.fullscreen_pass_ms(px, config.atw_cycles_per_px),
                    )
                });
                (tx_bytes, radio, render_ms)
            }
        };
        if rc_quality.is_some() {
            let link = &s.link;
            let alloc = tr.layer(Layer::NetLink, 1, || link.allocated_download_mbps());
            let rc = &mut s.rc;
            tr.layer(Layer::CodecBytes, 1, || {
                rc.observe(
                    bytes,
                    RateController::target_bytes(alloc, config.target_fps),
                );
            });
        }
        same("tx bytes", bytes, rec.tx_bytes)?;
        same("radio ms", radio, ev.radio_ms)?;
        same("local ms", t_local, rec.t_local_ms)
    }

    fn engine_step(&mut self, step: &StepRec) {
        let rec = self.rec;
        let tasks = &rec.tasks[step.tasks.clone()];
        if tasks.is_empty() && step.retire_at.is_none() {
            return;
        }
        let chunks = self.system.tx_chunks.max(1);
        let units = rec.server_units;
        let open = rec.aggregate;
        let Replay {
            tr,
            engine,
            ids,
            engine_res: res,
            pools: (rgpu, senc),
            label_uses,
            label_buf: buf,
            ..
        } = self;
        let (rgpu, senc) = (*rgpu, *senc);
        let mut calls = 0u64;
        tr.layer(Layer::SimEngine, 0, || {
            let mut i = 0;
            while i < tasks.len() {
                let t = tasks[i];
                let label = &rec.labels[t.label as usize];
                let resource = t.resource.map(|r| res[r as usize]);
                // `submit_at` records its release gate (a resource-free
                // delay from 0 to the release time) just before the task.
                if resource.is_none()
                    && label.ends_with(":release")
                    && i + 1 < tasks.len()
                    && t.start == 0.0
                {
                    let next = tasks[i + 1];
                    let target = &rec.labels[next.label as usize];
                    let id = engine.submit_at(
                        target,
                        next.resource.map(|r| res[r as usize]),
                        t.end,
                        next.end - next.start,
                        &[],
                    );
                    // The gate's id is not handed back; its slot holds the
                    // task's, which ends no earlier.
                    ids.push(id);
                    ids.push(id);
                    calls += 1;
                    i += 2;
                    continue;
                }
                let dep = ids
                    .last()
                    .copied()
                    .filter(|_| engine.task_count() > engine.retired_tasks());
                let deps: &[TaskId] = match &dep {
                    Some(d) => std::slice::from_ref(d),
                    None => &[],
                };
                let duration = t.end - t.start;
                let id = match &label_uses[t.label as usize] {
                    LabelUse::Plain => {
                        calls += 1;
                        engine.submit(label, resource, duration, deps)
                    }
                    LabelUse::Read => {
                        let id = engine.submit(label, resource, duration, deps);
                        black_box((engine.start_of(id), engine.end_of(id)));
                        calls += 3;
                        id
                    }
                    LabelUse::Chunk {
                        prefix,
                        stage,
                        chunk,
                    } => {
                        // The rig composes each chunk's label, picks the
                        // chain's unit on its first chunk, reads every
                        // chunk back, and reads the last decode's end.
                        buf.clear();
                        let _ = write!(buf, "{prefix}:{stage}{chunk}");
                        if *stage == "rr" && *chunk == 0 {
                            let ready = engine.deps_ready_ms(deps);
                            let u = engine.least_loaded_unit_in(rgpu, ready, 0..units);
                            black_box((engine.pool_unit(rgpu, u), engine.pool_unit(senc, u)));
                            calls += 4;
                        }
                        let id = engine.submit(buf, resource, duration, deps);
                        black_box((engine.start_of(id), engine.end_of(id)));
                        calls += 3;
                        if *stage == "vd" && *chunk + 1 == chunks {
                            black_box(engine.end_of(id));
                            calls += 1;
                        }
                        id
                    }
                };
                ids.push(id);
                i += 1;
            }
            if step.retire_at.is_some() {
                // A churn fleet samples its peak before each retirement.
                if !open {
                    black_box(engine.max_live_intervals());
                    calls += 1;
                }
                let cut = step.retired_after;
                let t = if cut > engine.retired_tasks() && cut <= ids.len() {
                    engine.end_of(ids[cut - 1])
                } else {
                    f64::NEG_INFINITY
                };
                engine.retire_before(t);
                calls += 1;
            }
        });
        tr.count(Layer::SimEngine, calls);
    }

    fn sinks_step(&mut self, events: &[FrameEvent], close_at: Option<f64>) {
        let tr = self.tr;
        let d = &mut self.defaults;
        let calls = u64::from(d.aggregate.is_some())
            + u64::from(d.windowed.is_some()) * (1 + u64::from(close_at.is_some()))
            + u64::from(d.energy.is_some())
            + 1;
        tr.layer(Layer::Telemetry, calls, || {
            if let Some(s) = &mut d.aggregate {
                s.on_batch(events);
            }
            if let Some(s) = &mut d.windowed {
                s.on_batch(events);
                if let Some(t) = close_at {
                    s.close_before(t);
                }
            }
            if let Some(s) = &mut d.energy {
                s.on_batch(events);
            }
            d.load.on_batch(events);
        });
        let o = &mut self.obs;
        if o.metrics.is_none() && o.health.is_none() && o.trace.is_none() {
            return;
        }
        let calls = u64::from(o.metrics.is_some())
            + u64::from(o.health.is_some()) * (1 + u64::from(close_at.is_some()))
            + u64::from(o.trace.is_some());
        tr.layer(Layer::Obs, calls, || {
            if let Some(s) = &mut o.metrics {
                s.on_batch(events);
            }
            if let Some(s) = &mut o.health {
                s.on_batch(events);
                if let Some(t) = close_at {
                    s.close_before(t);
                }
            }
            if let Some(s) = &mut o.trace {
                s.on_batch(events);
            }
        });
    }

    /// The replayed sinks as the cell bundle a shard cell ships.
    fn cell_summary(&mut self) -> CellSummary {
        let facts = self.rec.cell;
        let units = self.rec.server_units;
        let aggregate = self.defaults.aggregate.take().unwrap_or_default();
        CellSummary {
            cell: 0,
            sessions: self.rec.sessions.len(),
            frames: aggregate.frames(),
            makespan_ms: facts.makespan_ms,
            server_units: units,
            server_busy_ms: facts.server_utilization * facts.makespan_ms * units as f64,
            aggregate,
            windowed: self.defaults.windowed.take(),
            energy: self
                .defaults
                .energy
                .as_ref()
                .map(|m| m.finalize(facts.makespan_ms, facts.client_mj))
                .unwrap_or_default(),
            load: self.defaults.load.snapshot(),
            peak_live_tasks: facts.peak_live_tasks,
            metrics: self.obs.metrics.take(),
            incidents: self
                .obs
                .health
                .take()
                .map(HealthMonitor::finish)
                .unwrap_or_default(),
        }
    }
}
