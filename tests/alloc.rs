//! Allocation-count regression gate for the per-frame hot path.
//!
//! A counting global allocator wraps `System` and tallies every
//! `alloc`/`realloc` the measuring thread makes while armed. The fleet
//! tests warm an 8-session fleet past its start-up transient (label
//! interning pool, scratch buffers, engine vectors), then count
//! allocations over a steady-state window and pin the per-frame average to
//! a small constant. Any change that reintroduces a per-frame allocation
//! site (dep-list `Vec`s, `format!`ed labels, interval clones, per-event
//! telemetry fan-out) shows up here as a multiple-allocations-per-frame
//! jump, long before it is visible in wall-clock numbers. The app-session
//! test pins a whole session, from profile to last frame, at zero.
//!
//! This lives in the root integration-test crate on purpose: every library
//! crate in the workspace is `#![forbid(unsafe_code)]`, and a
//! `GlobalAlloc` impl is unavoidably `unsafe`. Integration tests compile
//! as separate crates, so the forbid does not apply here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use qvr::prelude::*;
use qvr::scene::{AppSession, Benchmark};

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

/// Steady-state allocations-per-frame ceiling for an 8-session Q-VR fleet
/// round. The hot path itself (dep lists, labels, pacing, telemetry
/// fan-out) is allocation-free; what remains is amortized `Vec` doubling
/// in the engine's task/interval history and the aggregate sink's sample
/// series, which averages out well under one allocation per frame over the
/// measurement window.
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
    measured_per_frame_with(SystemConfig::default(), telemetry)
}

/// [`measured_per_frame`] under an explicit system config (the rate-control
/// gate runs the same window with the controller active).
fn measured_per_frame_with(system: SystemConfig, telemetry: TelemetryConfig) -> f64 {
    let _serial = serial();
    let sessions = 8;
    let warmup_rounds = 24;
    let measured_rounds = 32;
    let mut config = FleetConfig::uniform(
        system,
        SchemeKind::Qvr,
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
    eprintln!("steady-state: {allocs} allocations / {frames} frames = {per_frame:.3} per frame");
    per_frame
}

#[test]
fn steady_state_fleet_round_is_allocation_free() {
    // The default telemetry config leaves tracing, metrics, and health
    // disabled, so holding this bound is also the receipt that the
    // observability hooks add zero allocations per frame when off.
    let per_frame = measured_per_frame(TelemetryConfig::default());
    assert!(
        per_frame <= MAX_ALLOCS_PER_FRAME,
        "steady-state hot path regressed: {per_frame:.2} allocations/frame \
         (limit {MAX_ALLOCS_PER_FRAME})"
    );
}

#[test]
fn rate_controlled_fleet_round_is_allocation_free() {
    // The closed-loop rate path (entropy-model evaluation, controller
    // observe/step, quality telemetry) is pure arithmetic on stepper-owned
    // state — turning it on must not add a single per-frame allocation.
    let per_frame = measured_per_frame_with(
        SystemConfig::default().with_rate_control(RateControlConfig::on()),
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
