//! Allocation-count regression gate for the per-frame hot path.
//!
//! A counting global allocator wraps `System` and tallies every
//! `alloc`/`realloc` the measuring thread makes while armed. The fleet
//! tests warm an 8-session fleet past its start-up transient (label
//! interning pool, chain-label tables, scratch buffers, engine vectors),
//! then count allocations over a steady-state window and pin the per-frame
//! average to a small constant, for every scheme. Any change that
//! reintroduces a per-frame allocation site (dep-list `Vec`s, `format!`ed
//! labels, interval clones, per-event telemetry fan-out) shows up here as
//! a multiple-allocations-per-frame jump, long before it is visible in
//! wall-clock numbers. The app-session test pins a whole session, from
//! profile to last frame, at zero, the triangle-fraction test pins the
//! foveal ring table's new-gaze path at zero, alone and through a shared
//! area slot, and three more pin the entropy model's periphery bytes, the
//! cell's memo of them and the ring table's disc-area read at zero.
//!
//! This lives in the root integration-test crate on purpose: every library
//! crate in the workspace is `#![forbid(unsafe_code)]`, and a
//! `GlobalAlloc` impl is unavoidably `unsafe`. Integration tests compile
//! as separate crates, so the forbid does not apply here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use qvr::core::foveation::EntropyMemo;
use qvr::hvs::{DisplayGeometry, GazePoint};
use qvr::prelude::*;
use qvr::scene::{AppSession, Benchmark, ComplexityField, RingAreas, TriangleFractionCache};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread's allocations are counted. Only the measuring
    /// thread arms itself, so the test harness's own threads (spawning the
    /// next test, reporting a finished one) never land in a window.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn armed() -> bool {
    ARMED.try_with(Cell::get).unwrap_or(false)
}

// SAFETY: every method forwards its arguments unchanged to `System`;
// counting reads a const-initialised thread-local and bumps an atomic,
// neither of which allocates or touches the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if armed() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if armed() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if armed() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Serializes the measuring tests: they share the one `ALLOCS` tally.
static GATE: Mutex<()> = Mutex::new(());

/// Holds [`GATE`] for the rest of the caller's scope.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Steady-state allocations-per-frame ceiling for an 8-session fleet round
/// of any one scheme. The hot path itself (dep lists, labels, pacing,
/// telemetry fan-out) is allocation-free; what remains is amortized `Vec`
/// doubling in the engine's task/interval history and the aggregate sink's
/// sample series, which averages out well under one allocation per frame
/// over the measurement window.
const MAX_ALLOCS_PER_FRAME: f64 = 2.0;

/// Ceiling with 1-in-32 span-trace sampling on: the sampled slot's event
/// push into the `TraceSink` recording is the only new allocation site
/// (one amortized-doubling `Vec` push per sampled frame; span capture
/// itself is plain `Copy` field writes on the rig), so the traced bound
/// sits just above the untraced one.
const MAX_ALLOCS_PER_FRAME_TRACED: f64 = 4.0;

/// Warms an 8-session Q-VR fleet under the given telemetry config past
/// its start-up transient, then returns the steady-state allocations per
/// frame over the measured window.
fn measured_per_frame(telemetry: TelemetryConfig) -> f64 {
    measured_per_frame_with(SystemConfig::default(), SchemeKind::Qvr, telemetry)
}

/// [`measured_per_frame`] under an explicit system config and scheme (the
/// rate-control gate runs the same window with the controller active, the
/// steady-state gate runs it once per scheme).
fn measured_per_frame_with(
    system: SystemConfig,
    scheme: SchemeKind,
    telemetry: TelemetryConfig,
) -> f64 {
    let _serial = serial();
    let sessions = 8;
    let warmup_rounds = 24;
    let measured_rounds = 32;
    let mut config = FleetConfig::uniform(
        system,
        scheme,
        Benchmark::Hl2H.profile(),
        sessions,
        warmup_rounds + measured_rounds,
        42,
    );
    config.telemetry = telemetry;
    let mut fleet = Fleet::new(config);
    for _ in 0..warmup_rounds {
        fleet.step_round();
    }

    ALLOCS.store(0, Ordering::Relaxed);
    ARMED.set(true);
    for _ in 0..measured_rounds {
        fleet.step_round();
    }
    ARMED.set(false);
    let allocs = ALLOCS.load(Ordering::Relaxed);

    let frames = (measured_rounds * sessions) as f64;
    let per_frame = allocs as f64 / frames;
    eprintln!(
        "steady-state {}: {allocs} allocations / {frames} frames = {per_frame:.3} per frame",
        scheme.label()
    );
    per_frame
}

#[test]
fn steady_state_fleet_round_is_allocation_free() {
    // The default telemetry config leaves tracing, metrics, and health
    // disabled, so holding this bound is also the receipt that the
    // observability hooks add zero allocations per frame when off. Every
    // scheme runs the window: a label that names its frame (say, a
    // prefetch chain labelled after its frame number) interns new text
    // every frame, which costs at least two allocations per frame.
    for scheme in SchemeKind::all() {
        let per_frame =
            measured_per_frame_with(SystemConfig::default(), scheme, TelemetryConfig::default());
        assert!(
            per_frame <= MAX_ALLOCS_PER_FRAME,
            "{} steady-state hot path regressed: {per_frame:.2} allocations/frame \
             (limit {MAX_ALLOCS_PER_FRAME})",
            scheme.label()
        );
    }
}

#[test]
fn rate_controlled_fleet_round_is_allocation_free() {
    // The closed-loop rate path (entropy-model evaluation, controller
    // observe/step, quality telemetry) is pure arithmetic on stepper-owned
    // state — turning it on must not add a single per-frame allocation.
    let per_frame = measured_per_frame_with(
        SystemConfig::default().with_rate_control(RateControlConfig::on()),
        SchemeKind::Qvr,
        TelemetryConfig::default(),
    );
    assert!(
        per_frame <= MAX_ALLOCS_PER_FRAME,
        "rate-controlled hot path allocates: {per_frame:.2} allocations/frame \
         (limit {MAX_ALLOCS_PER_FRAME})"
    );
}

#[test]
fn sampled_tracing_stays_within_its_pinned_allocation_bound() {
    // 1-in-32 sampling over 8 slots: pick a seed whose deterministic
    // sampler selects exactly one of this fleet's sessions, so the window
    // measures the real record-one-slot configuration.
    let trace = (0..10_000u64)
        .map(|seed| TraceConfig::sampled(seed, 32))
        .find(|t| (0..8).filter(|&i| t.samples_session(i)).count() == 1)
        .expect("some seed samples exactly one of 8 slots");
    let per_frame = measured_per_frame(TelemetryConfig::default().with_trace(trace));
    assert!(
        per_frame <= MAX_ALLOCS_PER_FRAME_TRACED,
        "sampled tracing blew its allocation budget: {per_frame:.2} \
         allocations/frame (limit {MAX_ALLOCS_PER_FRAME_TRACED})"
    );
}

#[test]
fn app_session_start_and_advance_never_allocate() {
    // Profiles name their objects with `&'static str`s and motion is drawn
    // per frame, so a session needs no heap from its profile to its last
    // frame, whatever its length.
    let _serial = serial();
    ALLOCS.store(0, Ordering::Relaxed);
    ARMED.set(true);
    let mut session = AppSession::start(Benchmark::Hl2H.profile(), 42);
    for _ in 0..5_000 {
        std::hint::black_box(session.advance());
    }
    ARMED.set(false);
    let allocs = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        allocs, 0,
        "a 5,000-frame app session allocated {allocs} times"
    );
}

#[test]
fn triangle_fraction_ring_table_never_grows() {
    // The first call sizes the ring table from the display's ring bound;
    // every later gaze, corners included (their pass runs to `e_max` and
    // adds a partial radius), reuses it.
    let _serial = serial();
    let field = ComplexityField::default();
    let display = DisplayGeometry::vive_pro_class();
    let mut cache = TriangleFractionCache::new();
    let _ = field.triangle_fraction_cached(5.0, &display, GazePoint::center(), &mut cache);
    let corners = [(1.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)];
    let gazes = corners
        .into_iter()
        .chain((0..996u32).map(|i| {
            let t = f64::from(i);
            (
                (t * 0.618_034).fract() * 2.0 - 1.0,
                (t * 0.414_214).fract() * 2.0 - 1.0,
            )
        }))
        .map(|(x, y)| GazePoint::clamped(x, y));
    ALLOCS.store(0, Ordering::Relaxed);
    ARMED.set(true);
    for gaze in gazes {
        for e1 in [5.0, 12.5, 33.3] {
            std::hint::black_box(field.triangle_fraction_cached(e1, &display, gaze, &mut cache));
        }
    }
    ARMED.set(false);
    let allocs = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        allocs, 0,
        "1,000 gazes x 3 e1 through one cache allocated {allocs} times"
    );
}

#[test]
fn ring_table_recording_through_a_slot_never_allocates() {
    // Two tenants of different fields, on the two shipped panels (one
    // field of view), record each gaze in turn through one area slot: the
    // first misses, runs the area pass and leaves its areas in the slot;
    // the second hits and copies them. Once the centre's tables have sized
    // both caches and the slot, neither path allocates, corners included.
    let _serial = serial();
    let tenants = [
        (
            ComplexityField::default(),
            DisplayGeometry::vive_pro_class(),
        ),
        (
            ComplexityField::new(8.0, 10.0),
            DisplayGeometry::low_res_class(),
        ),
    ];
    let mut caches = [TriangleFractionCache::new(), TriangleFractionCache::new()];
    let mut slot = RingAreas::new();
    for ((field, display), cache) in tenants.iter().zip(&mut caches) {
        field.record_rings_through(display, GazePoint::center(), cache, &mut slot);
    }
    let corners = [(1.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)];
    let gazes = corners
        .into_iter()
        .chain((0..496u32).map(|i| {
            let t = f64::from(i);
            (
                (t * 0.618_034).fract() * 2.0 - 1.0,
                (t * 0.414_214).fract() * 2.0 - 1.0,
            )
        }))
        .map(|(x, y)| GazePoint::clamped(x, y));
    ALLOCS.store(0, Ordering::Relaxed);
    ARMED.set(true);
    for gaze in gazes {
        for ((field, display), cache) in tenants.iter().zip(&mut caches) {
            field.record_rings_through(display, gaze, cache, &mut slot);
            std::hint::black_box(field.triangle_fraction_recorded(12.5, display, gaze, cache));
        }
    }
    ARMED.set(false);
    let allocs = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        allocs, 0,
        "500 gazes x 2 tenants through one slot allocated {allocs} times"
    );
}

#[test]
fn periphery_entropy_bytes_never_allocates() {
    // The rate-controlled byte model (LIWC calls it once per probed e1,
    // the frame once more) is stack arithmetic: its quantiser steps and
    // block statistics live in fixed-size arrays.
    let _serial = serial();
    let display = DisplayGeometry::vive_pro_class();
    let mar = MarModel::default();
    let plans: Vec<FoveationPlan> = [5.0, 17.0, 42.0, 90.0]
        .into_iter()
        .map(|e1| FoveationPlan::resolve(e1, &display, &mar, GazePoint::center()))
        .collect();
    ALLOCS.store(0, Ordering::Relaxed);
    ARMED.set(true);
    for plan in &plans {
        for i in 0..250u32 {
            let t = f64::from(i) / 250.0;
            std::hint::black_box(plan.periphery_entropy_bytes(t, 1.0 - t, 0.2 + 0.8 * t));
        }
    }
    ARMED.set(false);
    let allocs = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        allocs, 0,
        "1,000 periphery byte estimates allocated {allocs} times"
    );
}

#[test]
fn memoized_entropy_pricing_never_allocates() {
    // The memo's tables are sized at its first price: after it, hits,
    // misses and the clears of a full table all reuse them.
    let _serial = serial();
    let display = DisplayGeometry::vive_pro_class();
    let mar = MarModel::default();
    let plans: Vec<FoveationPlan> = [5.0, 17.0, 42.0, 90.0]
        .into_iter()
        .map(|e1| FoveationPlan::resolve(e1, &display, &mar, GazePoint::center()))
        .collect();
    let memo = EntropyMemo::new();
    std::hint::black_box(memo.periphery_bytes(&plans[0], 0.5, 0.5, 0.5));
    let cap = EntropyMemo::CAP as u32;
    ALLOCS.store(0, Ordering::Relaxed);
    ARMED.set(true);
    // Each round prices 2,048 distinct luma keys (two layers per plan, a
    // detail per call) through a table of `cap`, so it clears several
    // times; each price is asked twice, and at a saturated motion the
    // chroma costs repeat across details, so both tables also hit.
    for _round in 0..2 {
        for plan in &plans {
            for i in 0..cap {
                let detail = f64::from(i) / f64::from(cap);
                for _ in 0..2 {
                    std::hint::black_box(memo.periphery_bytes(plan, detail, 1.0, 0.6));
                }
            }
        }
    }
    ARMED.set(false);
    let allocs = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        allocs,
        0,
        "{} memoized periphery prices allocated {allocs} times",
        2 * 2 * plans.len() as u32 * cap
    );
}

#[test]
fn ring_table_area_read_never_allocates() {
    // A recorded radius reads the table's area; any other radius, and a
    // gaze the table does not hold, integrates the disc on the stack.
    let _serial = serial();
    let field = ComplexityField::default();
    let display = DisplayGeometry::vive_pro_class();
    let mut rings = TriangleFractionCache::new();
    field.record_rings(&display, GazePoint::center(), &mut rings);
    let gazes =
        [(0.0, 0.0), (0.45, -0.3), (-1.0, 1.0), (0.93, 0.1)].map(|(x, y)| GazePoint::clamped(x, y));
    ALLOCS.store(0, Ordering::Relaxed);
    ARMED.set(true);
    for gaze in gazes {
        field.record_rings(&display, gaze, &mut rings);
        for e in (5..=90).map(f64::from).chain([7.25, 33.3, 150.0]) {
            std::hint::black_box(rings.fovea_area_fraction(&display, e, gaze));
            std::hint::black_box(rings.fovea_area_fraction(&display, e, GazePoint::center()));
        }
    }
    ARMED.set(false);
    let allocs = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        allocs, 0,
        "ring-table area reads at 4 gazes allocated {allocs} times"
    );
}
