//! The three benchmark workloads and the configs they build from a seed.
//!
//! Every workload is driven only through the library's public API, and the
//! seed is the only input that varies between runs: it seeds the fleet
//! (motion traces, link jitter, per-session streams) and, for the churn
//! workload, the Poisson membership trace. The rosters themselves are
//! fixed, so a run's cost depends on the seed only through the simulated
//! behaviour, not through a different mix of tenants.

use qvr::prelude::*;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A closed roster of foveated tenants on one shared Wi-Fi link.
    FoveatedFleet,
    /// An open churn fleet of non-foveated streaming tenants on early 5G.
    StreamingChurn,
    /// `Shard::run` over cells of a mixed roster with observability on.
    ObservedShard,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::FoveatedFleet,
        Workload::StreamingChurn,
        Workload::ObservedShard,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::FoveatedFleet => "foveated_fleet",
            Workload::StreamingChurn => "streaming_churn",
            Workload::ObservedShard => "observed_shard",
        }
    }

    /// Fleets one measured run cycles through (see [`sub_seed`]). Each
    /// `observed_shard` run already spans four independent cells, so fewer
    /// fleets leave room for more repeats of each.
    #[must_use]
    pub fn fleets(self) -> usize {
        match self {
            Workload::FoveatedFleet | Workload::StreamingChurn => SUB_SEEDS,
            Workload::ObservedShard => 6,
        }
    }

    /// How steeply the workload's host time follows the host-speed probe
    /// ([`crate::clock::probe_s`]): a run's times are multiplied by
    /// (reference probe time / probe time)^exponent. The foveated workloads
    /// are float-heavy like the probe and slow down about as much; the
    /// churn workload chases pointers through engine and link state and
    /// slows down about twice as much in logarithm (1.9× when the probe
    /// slows 1.3×). Each exponent is the one, of 1, 1.5, 2 and 2.5, that
    /// gave the steadiest scaled stepping time over 30 s stretches of
    /// multi-minute single-seed series on the reference host.
    #[must_use]
    pub fn probe_exponent(self) -> f64 {
        match self {
            Workload::FoveatedFleet | Workload::ObservedShard => 1.0,
            Workload::StreamingChurn => 2.0,
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The most fleets one measured run cycles through. A single fleet's host
/// cost swings by ~10% between seeds (each session's gaze path moves the
/// foveal integrals it evaluates), so a run measures several fleets,
/// derived from its seed by [`sub_seed`], and reports over all of them.
pub const SUB_SEEDS: usize = 16;

/// The seed of the `i`-th fleet a run on `seed` measures: runs on
/// different seeds measure disjoint sets of fleets.
#[must_use]
pub fn sub_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(SUB_SEEDS as u64)
        .wrapping_add((i % SUB_SEEDS) as u64)
}

/// How much simulated work one workload run does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A short run for the self-tests.
    Reduced,
}

/// Apps the foveated rosters cycle through (five of Table 3's seven).
const FOVEATED_APPS: [Benchmark; 5] = [
    Benchmark::Hl2H,
    Benchmark::Doom3H,
    Benchmark::Ut3,
    Benchmark::Wolf,
    Benchmark::Grid,
];

/// `foveated_fleet`: sessions in the closed roster.
pub const FLEET_SESSIONS: usize = 32;

/// Frames per session of `foveated_fleet`.
fn fleet_frames(size: Size) -> usize {
    match size {
        Size::Full => 24,
        Size::Reduced => 6,
    }
}

/// Frames per session of `observed_shard`.
fn shard_frames(size: Size) -> usize {
    match size {
        Size::Full => 48,
        Size::Reduced => 8,
    }
}

/// The foveated roster: mostly Q-VR, with every fourth tenant on DFR and
/// every sixth on FFR, cycling through five apps.
fn foveated_spec(i: usize) -> SessionSpec {
    let scheme = if i % 6 == 5 {
        SchemeKind::Ffr
    } else if i % 4 == 3 {
        SchemeKind::Dfr
    } else {
        SchemeKind::Qvr
    };
    SessionSpec::new(scheme, FOVEATED_APPS[i % FOVEATED_APPS.len()].profile())
}

/// `foveated_fleet`: the paper's own regime — default 8-unit server,
/// shared Wi-Fi, round-robin stepping, no retirement, default telemetry,
/// rate control off.
#[must_use]
pub fn fleet_config(seed: u64, size: Size) -> FleetConfig {
    let n = match size {
        Size::Full => FLEET_SESSIONS,
        Size::Reduced => 6,
    };
    let mut config = FleetConfig::uniform(
        SystemConfig::default(),
        SchemeKind::Qvr,
        Benchmark::Hl2H.profile(),
        n,
        fleet_frames(size),
        seed,
    );
    config.sessions = (0..n).map(foveated_spec).collect();
    config
}

/// Retirement window of the streaming churn fleet, ms. A frame depends on
/// tasks up to four of its session's frame intervals back (static
/// collaborative tenants keep prefetched background chains three frames
/// deep; render-ahead pacing reaches two displays back). Full-frame
/// streams on a shared early-5G link see intervals of several hundred ms
/// under load, so 300 ms windows retire tasks a later frame still depends
/// on (the engine panics with "task id … was retired"). The self-test
/// checks this window against four times the longest interval any tenant
/// shows.
pub const CHURN_RETIRE_WINDOW_MS: f64 = 6_000.0;

/// Retirement window of the observed shard's cells, ms (the same horizon
/// argument; checked by the same self-test).
pub const SHARD_RETIRE_WINDOW_MS: f64 = 4_000.0;

/// `streaming_churn`: initial tenants present at time zero.
const CHURN_INITIAL: usize = 6;

fn streaming_spec(k: usize) -> SessionSpec {
    let apps = [Benchmark::Hl2L, Benchmark::Doom3L, Benchmark::Wolf];
    let scheme = if k % 3 == 2 {
        SchemeKind::StaticCollab
    } else {
        SchemeKind::RemoteOnly
    };
    // Alternating weights, so weighted fairness has something to divide.
    let weight = if k.is_multiple_of(2) { 1.0 } else { 2.0 };
    SessionSpec::new(scheme, apps[k % apps.len()].profile()).with_share(LinkShare::weighted(weight))
}

/// `streaming_churn`: Poisson arrivals with exponential holds on shared
/// early 5G, weighted fairness, virtual-time stepping, windowed retirement
/// and a streamed windowed-p95 timeline. No tenant is foveated.
#[must_use]
pub fn churn_config(seed: u64, size: Size) -> ChurnConfig {
    let horizon_ms = match size {
        Size::Full => 80_000.0,
        Size::Reduced => 1_500.0,
    };
    let initial: Vec<SessionSpec> = (0..CHURN_INITIAL).map(streaming_spec).collect();
    let trace = ChurnTrace::poisson(seed, 1.5, 4_000.0, horizon_ms, initial.len(), |k| {
        streaming_spec(CHURN_INITIAL + k)
    });
    let system = SystemConfig::default().with_network(NetworkPreset::Early5G);
    let mut config = ChurnConfig::new(system, initial, trace, horizon_ms, seed)
        .with_fairness(FairnessPolicy::Weighted)
        .with_retire_window_ms(CHURN_RETIRE_WINDOW_MS)
        .with_stats_window_ms(500.0);
    config.link_streams = 4;
    config
}

/// `observed_shard`: cells in the shard.
pub const SHARD_CELLS: usize = 4;
/// `observed_shard`: session slots per cell.
pub const SHARD_CELL_CAPACITY: usize = 8;

/// The shard roster: three foveated tenants (Q-VR, or DFR every third)
/// for each RemoteOnly tenant.
fn shard_spec(i: usize) -> SessionSpec {
    if i % 4 == 3 {
        SessionSpec::new(SchemeKind::RemoteOnly, Benchmark::Doom3L.profile())
    } else {
        let scheme = if i % 3 == 2 {
            SchemeKind::Dfr
        } else {
            SchemeKind::Qvr
        };
        SessionSpec::new(scheme, FOVEATED_APPS[i % FOVEATED_APPS.len()].profile())
    }
}

/// The observability the shard's cells run: per-class metrics, an SLO
/// health monitor, sampled span tracing and a windowed-p95 timeline.
#[must_use]
pub fn shard_telemetry(seed: u64) -> TelemetryConfig {
    TelemetryConfig::default()
        .with_window_ms(250.0)
        .with_metrics()
        .with_health(
            HealthRules::new(250.0)
                .with_mtp_p95_ceiling_ms(60.0)
                .with_fps_floor(30.0),
        )
        .with_trace(TraceConfig::sampled(seed, 4))
}

/// `observed_shard`: the mixed roster routed over four cells of four GPU
/// units and two link streams each, with rate control, metrics, health
/// monitoring, sampled tracing and windowed retirement on, on at most
/// `workers` threads.
#[must_use]
pub fn shard_config(seed: u64, size: Size, workers: usize) -> ShardConfig {
    let (cells, capacity) = match size {
        Size::Full => (SHARD_CELLS, SHARD_CELL_CAPACITY),
        Size::Reduced => (2, 4),
    };
    let mut template = FleetConfig::uniform(
        SystemConfig::default(),
        SchemeKind::Qvr,
        Benchmark::Hl2H.profile(),
        1,
        shard_frames(size),
        seed,
    )
    .with_rate_control(RateControlConfig::on());
    template.server_units = 4;
    template.link_streams = 2;
    template.retire_window_ms = Some(SHARD_RETIRE_WINDOW_MS);
    template.telemetry = shard_telemetry(seed);
    let roster = (0..cells * capacity).map(shard_spec).collect();
    ShardConfig::new(template, cells, capacity, roster).with_workers(workers)
}
