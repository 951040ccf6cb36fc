//! Spans and counts recorded from the benchmark's own code, around the
//! calls it makes into each layer.
//!
//! A span is `(layer, start, end, parent, frame)` in host nanoseconds from
//! the tracer's origin; a layer's self time is its spans' durations minus
//! the parts their child spans cover. Spans stay in memory and are written
//! out as Chrome-trace JSON when the traced run ends.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::time::Instant;

/// The layers a frame crosses, as the replay times them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `AppSession::advance`.
    SceneAdvance,
    /// The triangle-fraction integral and the fovea workload built on it.
    TriangleFraction,
    /// `FoveationPlan::resolve`.
    Foveation,
    /// `Liwc::select` (self time) and `Liwc::observe`.
    Liwc,
    /// Mobile and remote GPU timing.
    GpuTiming,
    /// The byte model and the rate controller.
    CodecBytes,
    /// Shared-link transfers, ACK reads, allocation and membership.
    NetLink,
    /// Engine submission and retirement.
    SimEngine,
    /// The default telemetry sinks.
    Telemetry,
    /// The observability sinks.
    Obs,
    /// `ShardSummary::merge`.
    ShardMerge,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 11] = [
        Layer::SceneAdvance,
        Layer::TriangleFraction,
        Layer::Foveation,
        Layer::Liwc,
        Layer::GpuTiming,
        Layer::CodecBytes,
        Layer::NetLink,
        Layer::SimEngine,
        Layer::Telemetry,
        Layer::Obs,
        Layer::ShardMerge,
    ];

    /// The layer's metric prefix.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Layer::SceneAdvance => "scene.advance",
            Layer::TriangleFraction => "scene.triangle_fraction",
            Layer::Foveation => "core.foveation",
            Layer::Liwc => "core.liwc",
            Layer::GpuTiming => "gpu.timing",
            Layer::CodecBytes => "codec.bytes",
            Layer::NetLink => "net.link",
            Layer::SimEngine => "sim.engine",
            Layer::Telemetry => "core.telemetry",
            Layer::Obs => "core.obs",
            Layer::ShardMerge => "core.shard.merge",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// What a span measured: one layer, or one replayed step (the parent of
/// every layer span the step opens).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A layer's calls.
    Layer(Layer),
    /// A layer the replay never called: one empty span, kept at its raw
    /// duration so the layer's time is measured, not a constant zero.
    Marker(Layer),
    /// One replayed step.
    Step,
}

impl SpanKind {
    fn name(self) -> &'static str {
        match self {
            SpanKind::Layer(l) | SpanKind::Marker(l) => l.name(),
            SpanKind::Step => "replay.step",
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// What it measured.
    pub kind: SpanKind,
    /// Start, ns from the tracer's origin.
    pub start_ns: u64,
    /// End, ns from the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The frame (per-session frame index of the step's first event).
    pub frame: u64,
}

/// Collects spans and per-layer call counts.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    /// What an empty span measures (the clock read it encloses), ns.
    inside_ns: u64,
    /// What an empty child span adds to its parent outside its own
    /// interval (opening and closing bookkeeping), ns.
    outside_ns: u64,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<u32>>,
    calls: [Cell<u64>; Layer::ALL.len()],
    frame: Cell<u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now, calibrated for its own cost: an
    /// empty span and an empty child are each measured 1024 times, and
    /// their median cost is taken off every span's self time, so a
    /// layer's time is the time of its calls, not of the timer around them.
    #[must_use]
    pub fn new() -> Self {
        let mut tr = Tracer::uncalibrated();
        let probe = Tracer::uncalibrated();
        const N: usize = 1024;
        let mut inside = Vec::with_capacity(N);
        let mut outside = Vec::with_capacity(N);
        for _ in 0..N {
            let parent = probe.begin(SpanKind::Step);
            let child = probe.begin(SpanKind::Step);
            probe.end(child);
            probe.end(parent);
            let spans = probe.spans.borrow();
            let (p, c) = (spans[parent as usize], spans[child as usize]);
            inside.push(c.end_ns - c.start_ns);
            outside.push((p.end_ns - p.start_ns).saturating_sub(c.end_ns - c.start_ns));
        }
        inside.sort_unstable();
        outside.sort_unstable();
        tr.inside_ns = inside[N / 2];
        // The parent's own clock read is part of `outside`; keep only the
        // child's bookkeeping.
        tr.outside_ns = outside[N / 2].saturating_sub(tr.inside_ns);
        tr.origin = Instant::now();
        tr
    }

    fn uncalibrated() -> Self {
        Tracer {
            origin: Instant::now(),
            inside_ns: 0,
            outside_ns: 0,
            spans: RefCell::new(Vec::with_capacity(1 << 16)),
            open: RefCell::new(Vec::with_capacity(8)),
            calls: Default::default(),
            frame: Cell::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Sets the frame stamped on spans opened from now on.
    pub fn set_frame(&self, frame: u64) {
        self.frame.set(frame);
    }

    /// Opens a span; spans nest in open order.
    pub fn begin(&self, kind: SpanKind) -> u32 {
        let mut spans = self.spans.borrow_mut();
        let id = u32::try_from(spans.len()).expect("span count fits u32");
        let parent = self.open.borrow().last().copied();
        spans.push(Span {
            kind,
            start_ns: 0,
            end_ns: 0,
            parent,
            frame: self.frame.get(),
        });
        self.open.borrow_mut().push(id);
        drop(spans);
        let t = self.now_ns();
        self.spans.borrow_mut()[id as usize].start_ns = t;
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&self, id: u32) {
        let t = self.now_ns();
        let top = self.open.borrow_mut().pop();
        debug_assert_eq!(top, Some(id), "spans close in reverse open order");
        self.spans.borrow_mut()[id as usize].end_ns = t;
    }

    /// Times `f` as one span of `layer` that made `calls` calls into it.
    pub fn layer<R>(&self, layer: Layer, calls: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(SpanKind::Layer(layer));
        let r = f();
        self.end(id);
        self.count(layer, calls);
        r
    }

    /// Marks every layer that has had no calls with one empty span.
    pub fn mark_uncalled(&self) {
        for layer in Layer::ALL {
            if self.calls(layer) == 0 {
                let id = self.begin(SpanKind::Marker(layer));
                self.end(id);
            }
        }
    }

    /// Adds calls into a layer.
    pub fn count(&self, layer: Layer, calls: u64) {
        let c = &self.calls[layer.index()];
        c.set(c.get() + calls);
    }

    /// Calls made into a layer so far.
    #[must_use]
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer.index()].get()
    }

    /// Self time per layer, ns: each span's duration minus its children's
    /// and minus the tracer's own calibrated cost.
    #[must_use]
    pub fn self_ns(&self) -> [u64; Layer::ALL.len()] {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns + self.outside_ns;
            }
        }
        let mut out = [0u64; Layer::ALL.len()];
        for (s, child) in spans.iter().zip(child_ns) {
            match s.kind {
                SpanKind::Layer(l) => {
                    out[l.index()] +=
                        (s.end_ns - s.start_ns).saturating_sub(child + self.inside_ns);
                }
                SpanKind::Marker(l) => out[l.index()] += s.end_ns - s.start_ns,
                SpanKind::Step => {}
            }
        }
        out
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Renders replay spans and the traced run's stepping calls as
/// Chrome-trace JSON (the JSON Array Format with complete `ph:"X"` slices
/// the fleet's `TraceSink` also writes, so both open in the same Perfetto
/// UI). pid 1 holds the traced run's public stepping calls, one track per
/// fleet or cell; pid 2 holds the replay, where layer spans nest inside
/// their step. Timestamps are host microseconds.
#[must_use]
pub fn chrome_trace_json(steps: &[(usize, u64, u64)], spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let _ = write!(
        out,
        "{{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{{\"name\":\"traced run\"}}}},\n\
         {{\"ph\":\"M\",\"pid\":2,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{{\"name\":\"replay\"}}}}"
    );
    for &(track, a, b) in steps {
        let _ = write!(
            out,
            ",\n{{\"name\":\"core.runner\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":1,\"tid\":{track},\"args\":{{}}}}",
            a as f64 / 1e3,
            (b - a) as f64 / 1e3,
        );
    }
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(-1, i64::from);
        let _ = write!(
            out,
            ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":2,\"tid\":0,\
             \"args\":{{\"span\":{i},\"parent\":{parent},\"frame\":{}}}}}",
            s.kind.name(),
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.frame,
        );
    }
    out.push_str("\n]}\n");
    out
}
