//! Fleet-level integration tests: determinism, bit-pinned fleet and
//! single-user goldens, and the acceptance-shape contention curve (flat
//! tails up to the server pool size, measurable degradation once
//! oversubscribed).

use qvr::prelude::*;
use qvr::scene::Benchmark;

fn wifi_fleet(n: usize, frames: usize, seed: u64) -> FleetConfig {
    FleetConfig::uniform(
        SystemConfig::default(),
        SchemeKind::Qvr,
        Benchmark::Hl2H.profile(),
        n,
        frames,
        seed,
    )
}

#[test]
fn same_seed_and_size_give_identical_fleet_aggregates() {
    let a = Fleet::run(wifi_fleet(8, 60, 42));
    let b = Fleet::run(wifi_fleet(8, 60, 42));
    assert_eq!(a.mtp_p50_ms, b.mtp_p50_ms);
    assert_eq!(a.mtp_p95_ms, b.mtp_p95_ms);
    assert_eq!(a.mtp_p99_ms, b.mtp_p99_ms);
    assert_eq!(a.fps_floor, b.fps_floor);
    assert_eq!(a.server_utilization, b.server_utilization);
    assert_eq!(a, b, "full fleet summaries must be bit-identical");
}

#[test]
fn different_seeds_give_different_fleets() {
    let a = Fleet::run(wifi_fleet(4, 40, 1));
    let b = Fleet::run(wifi_fleet(4, 40, 2));
    assert_ne!(a, b);
}

#[test]
fn run_equals_a_hand_stepped_private_session() {
    // `SchemeKind::run` steps a private session with its frame storage
    // pre-reserved; stepping one by hand without the reservation must
    // agree exactly.
    let config = SystemConfig::default();
    for kind in [
        SchemeKind::LocalOnly,
        SchemeKind::StaticCollab,
        SchemeKind::Qvr,
    ] {
        let via_run = kind.run(&config, Benchmark::Grid.profile(), 50, 7);
        let mut session = kind.session(&config, Benchmark::Grid.profile(), 7);
        for _ in 0..50 {
            session.step();
        }
        assert_eq!(via_run, session.finish(), "{kind}");
    }
}

#[test]
fn eight_qvr_sessions_on_default_server_and_wifi_complete() {
    // The headline acceptance scenario: 8 Q-VR tenants, mcm_8_gpu pool,
    // shared Wi-Fi.
    let summary = Fleet::run(wifi_fleet(8, 80, 42));
    assert_eq!(summary.len(), 8);
    assert_eq!(summary.server_units, 8);
    for s in &summary.sessions {
        assert_eq!(s.len(), 80, "every session reports every frame");
        assert_eq!(s.scheme, "Q-VR");
        assert!(
            s.fps() > 60.0,
            "tenant holds interactive rates, got {:.0}",
            s.fps()
        );
        assert!(s.energy.total_mj() > 0.0);
    }
    assert!(summary.server_utilization > 0.0);
}

#[test]
fn p95_flat_up_to_pool_size_then_degrades() {
    // Real contention shape: within the 8-unit pool (and the link's
    // concurrent streams) the tail stays flat; oversubscribing degrades it
    // measurably.
    let frames = 60;
    let p95 = |n: usize| Fleet::run(wifi_fleet(n, frames, 42)).mtp_p95_ms;
    let p1 = p95(1);
    let p8 = p95(8);
    let p16 = p95(16);
    assert!(
        p8 < p1 * 1.15,
        "p95 must stay flat up to the pool size: 1 session {p1:.1} ms vs 8 sessions {p8:.1} ms"
    );
    assert!(
        p16 > p8 * 1.15,
        "oversubscription must degrade the tail: 8 sessions {p8:.1} ms vs 16 {p16:.1} ms"
    );
}

/// Order-sensitive FNV-1a checksum over every session's per-frame
/// `(mtp_ms, tx_bytes)` stream.
fn frame_hash<'a>(sessions: impl IntoIterator<Item = &'a RunSummary>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for sess in sessions {
        for f in &sess.frames {
            hash ^= f.mtp_ms.to_bits();
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            hash ^= f.tx_bytes.to_bits();
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

/// One pinned fleet outcome: every aggregate as raw `f64` bits, plus the
/// [`frame_hash`] of its sessions.
struct Golden {
    preset: NetworkPreset,
    n: usize,
    mtp_p50: u64,
    mtp_p95: u64,
    mtp_p99: u64,
    fps_floor: u64,
    mean_fps: u64,
    server_utilization: u64,
    makespan: u64,
    mean_tx: u64,
    frame_hash: u64,
}

/// Captured from the pre-policy engine (PR 1) for the `fig_fleet`
/// 1/8/32-session configs: `FleetConfig::uniform(default + preset, Qvr,
/// Hl2H, n, 120 frames, seed 42)`. `FairnessPolicy::EqualShare` with unit
/// shares must keep reproducing these bits forever.
#[rustfmt::skip]
const GOLDENS: [Golden; 9] = [
    Golden { preset: NetworkPreset::WiFi,    n: 1,  mtp_p50: 0x4031e994ab7b48ff, mtp_p95: 0x40324e6d4bf69b5f, mtp_p99: 0x4032de8129013530, fps_floor: 0x405b1235204b5101, mean_fps: 0x405b1235204b5101, server_utilization: 0x3f8748afa95c173d, makespan: 0x409150c4875b11b2, mean_tx: 0x40fc4f9bd00234a6, frame_hash: 0x30409bc01f977dea },
    Golden { preset: NetworkPreset::WiFi,    n: 8,  mtp_p50: 0x4031fc7fa77f298e, mtp_p95: 0x40329b837f7d7016, mtp_p99: 0x403327914c5adb02, fps_floor: 0x405ac9e7caf52d54, mean_fps: 0x405affe4cae6249e, server_utilization: 0x3fb719ae3a65783f, makespan: 0x40917f8078347e4a, mean_tx: 0x40fc65c42ca56ca2, frame_hash: 0xaf2b199dfdb60026 },
    Golden { preset: NetworkPreset::WiFi,    n: 32, mtp_p50: 0x403f220f2b413b5f, mtp_p95: 0x404220c830d35846, mtp_p99: 0x404688bc8900af28, fps_floor: 0x4048c80426040b43, mean_fps: 0x404906cefaac8158, server_utilization: 0x3fc4d017abe7bd6e, makespan: 0x40a2ea5bbe72131b, mean_tx: 0x40f6fb714cf83a9c, frame_hash: 0x1c796aeb7aef6621 },
    Golden { preset: NetworkPreset::Lte4G,   n: 1,  mtp_p50: 0x404119493fc95a98, mtp_p95: 0x404185306b1b4c9e, mtp_p99: 0x4041f4095627d812, fps_floor: 0x404cdd45ab30e8c0, mean_fps: 0x404cdd45ab30e8c0, server_utilization: 0x3f7856ad95c61eac, makespan: 0x40a03d60db4498cb, mean_tx: 0x40f82df0dd785827, frame_hash: 0xc7b8d4e8b485ae4b },
    Golden { preset: NetworkPreset::Lte4G,   n: 8,  mtp_p50: 0x40412a41cac8daea, mtp_p95: 0x4041b06d04f9b782, mtp_p99: 0x404229ea33e27f46, fps_floor: 0x404c65de842ccb4f, mean_fps: 0x404cbb25a8f62458, server_utilization: 0x3fa8022039669be4, makespan: 0x40a081a91e4eff93, mean_tx: 0x40f83fc81a9434c8, frame_hash: 0x8d1ca31476f20afb },
    Golden { preset: NetworkPreset::Lte4G,   n: 32, mtp_p50: 0x404a3325970ff077, mtp_p95: 0x4051b7a41fafea68, mtp_p99: 0x40589d68fd1e6b53, fps_floor: 0x403d09164eeeff98, mean_fps: 0x403d4e350ae4463d, server_utilization: 0x3fb7a5fd78db9fd7, makespan: 0x40b024df4f790438, mean_tx: 0x40f0c279d73f03e8, frame_hash: 0x439f77c76a42e668 },
    Golden { preset: NetworkPreset::Early5G, n: 1,  mtp_p50: 0x402b8a5ebcff11e8, mtp_p95: 0x402bdd86129ea7ca, mtp_p99: 0x402c564a4864d6a0, fps_floor: 0x40615e49b0aa222f, mean_fps: 0x40615e49b0aa222f, server_utilization: 0x3f8e14c28ccd3fbf, makespan: 0x408afd2262e0b406, mean_tx: 0x40fdb6aff414f27b, frame_hash: 0x54cc4704a4d70d20 },
    Golden { preset: NetworkPreset::Early5G, n: 8,  mtp_p50: 0x402b9aa6a08d620e, mtp_p95: 0x402c236a2a4392a8, mtp_p99: 0x402c8688f7507834, fps_floor: 0x40614245858ba068, mean_fps: 0x406156b635a60f8f, server_utilization: 0x3fbdf92db6769c7b, makespan: 0x408b28f1f72cc1f8, mean_tx: 0x40fdd90580b5e002, frame_hash: 0x46d8b946595d7f27 },
    Golden { preset: NetworkPreset::Early5G, n: 32, mtp_p50: 0x403437ddc130aaec, mtp_p95: 0x40351ba707ebc4de, mtp_p99: 0x403665ed2674f947, fps_floor: 0x4057fc597daf5ca9, mean_fps: 0x40582b32085bc978, server_utilization: 0x3fd490e5a8a4af75, makespan: 0x40938af8f5205c45, mean_tx: 0x40fb494288301d1a, frame_hash: 0x2936d85e0ac6635d },
];

#[test]
fn equal_share_unit_weights_reproduce_the_pre_policy_engine_bit_exactly() {
    // The backwards-compatibility contract of the fairness layer: the
    // default `FairnessPolicy::EqualShare` with unit `LinkShare`s must give
    // bit-identical `FleetSummary` output to the engine before fairness
    // policies existed, for the fig_fleet 1/8/32-session configs. Debug
    // builds skip the 32-session rows (they dominate the runtime); the
    // release CI job runs all nine.
    for g in &GOLDENS {
        if cfg!(debug_assertions) && g.n > 8 {
            continue;
        }
        let config = FleetConfig::uniform(
            SystemConfig::default().with_network(g.preset),
            SchemeKind::Qvr,
            Benchmark::Hl2H.profile(),
            g.n,
            120,
            42,
        );
        assert_eq!(config.fairness, FairnessPolicy::EqualShare);
        assert!(config
            .sessions
            .iter()
            .all(|s| s.share == LinkShare::default()));
        let s = Fleet::run(config);
        let hash = frame_hash(&s.sessions);
        let ctx = format!("{} x{}", g.preset.label(), g.n);
        assert_eq!(s.mtp_p50_ms.to_bits(), g.mtp_p50, "{ctx}: p50");
        assert_eq!(s.mtp_p95_ms.to_bits(), g.mtp_p95, "{ctx}: p95");
        assert_eq!(s.mtp_p99_ms.to_bits(), g.mtp_p99, "{ctx}: p99");
        assert_eq!(s.fps_floor.to_bits(), g.fps_floor, "{ctx}: fps floor");
        assert_eq!(s.mean_fps.to_bits(), g.mean_fps, "{ctx}: mean fps");
        assert_eq!(
            s.server_utilization.to_bits(),
            g.server_utilization,
            "{ctx}: server utilization"
        );
        assert_eq!(s.makespan_ms.to_bits(), g.makespan, "{ctx}: makespan");
        assert_eq!(s.mean_tx_bytes().to_bits(), g.mean_tx, "{ctx}: mean tx");
        assert_eq!(hash, g.frame_hash, "{ctx}: per-frame stream");
    }
}

/// One pinned single-user outcome ([`SchemeKind::run`]): its scalar
/// results as raw `f64` bits, plus its [`frame_hash`].
struct SoloGolden {
    scheme: SchemeKind,
    makespan: u64,
    fps: u64,
    mean_tx: u64,
    energy: u64,
    frame_hash: u64,
}

/// Captured from the dedicated-fleet implementation of `SchemeKind::run`
/// for every scheme on `(SystemConfig::default(), Hl2H, 120 frames, seed
/// 42)` — the single-user runs behind fig03, fig12–fig15, table1 and
/// table4 must keep reproducing these bits.
#[rustfmt::skip]
const SOLO_GOLDENS: [SoloGolden; 7] = [
    SoloGolden { scheme: SchemeKind::LocalOnly,    makespan: 0x40c03f6cf483cafe, fps: 0x402cd9a299d42aad, mean_tx: 0x0000000000000000, energy: 0x40dd4b7db8206d64, frame_hash: 0xf7879055ed84b4ae },
    SoloGolden { scheme: SchemeKind::RemoteOnly,   makespan: 0x40b15175694210e6, fps: 0x403b1120a1697c7e, mean_tx: 0x41288c5a39e5a996, energy: 0x40bf3b5940f8d4f7, frame_hash: 0x95ec5c30ce89e26e },
    SoloGolden { scheme: SchemeKind::StaticCollab, makespan: 0x40b583bd3da69499, fps: 0x4035c99b2ac72685, mean_tx: 0x412c1376ec489915, energy: 0x40cd712cd273ca75, frame_hash: 0xa1317f144399d573 },
    SoloGolden { scheme: SchemeKind::Ffr,          makespan: 0x4094099bc1a86a93, fps: 0x405764c2df4a5216, mean_tx: 0x41017fde167ac0d0, energy: 0x40ae7cdcf3ce8c63, frame_hash: 0x18d3c9a2020b472a },
    SoloGolden { scheme: SchemeKind::Dfr,          makespan: 0x4096ab46a2c48a4f, fps: 0x4054ad8fd529a0f6, mean_tx: 0x40fc625315500031, energy: 0x40b897d65a76ef03, frame_hash: 0x44f3cca99d2ee4ef },
    SoloGolden { scheme: SchemeKind::QvrSw,        makespan: 0x40a3ef55625c92eb, fps: 0x4047839844e82c4e, mean_tx: 0x40fc8b2cc4732cd5, energy: 0x40bb6ab846091bfa, frame_hash: 0xc69114ca92bbf860 },
    SoloGolden { scheme: SchemeKind::Qvr,          makespan: 0x409128b28766ff18, fps: 0x405b516cd1cd2d63, mean_tx: 0x40fc625315500031, energy: 0x40b15eea4b93cd00, frame_hash: 0x251e42e84236d2d6 },
];

#[test]
fn single_user_runs_reproduce_their_pinned_bits() {
    for g in &SOLO_GOLDENS {
        let s = g
            .scheme
            .run(&SystemConfig::default(), Benchmark::Hl2H.profile(), 120, 42);
        let ctx = g.scheme.label();
        assert_eq!(s.makespan_ms.to_bits(), g.makespan, "{ctx}: makespan");
        assert_eq!(s.fps().to_bits(), g.fps, "{ctx}: fps");
        assert_eq!(s.mean_tx_bytes().to_bits(), g.mean_tx, "{ctx}: mean tx");
        assert_eq!(s.energy.total_mj().to_bits(), g.energy, "{ctx}: energy");
        assert_eq!(frame_hash([&s]), g.frame_hash, "{ctx}: per-frame stream");
    }
}

#[test]
fn oversubscribed_sessions_shed_network_load() {
    // Each tenant's LIWC reacts to the shrinking bandwidth share by growing
    // its fovea: per-session transmitted bytes must drop.
    let frames = 60;
    let bytes = |n: usize| Fleet::run(wifi_fleet(n, frames, 42)).mean_tx_bytes();
    let at8 = bytes(8);
    let at32 = bytes(32);
    assert!(
        at32 < at8 * 0.95,
        "32 tenants must ship less per frame than 8: {at32:.0} vs {at8:.0} bytes"
    );
}
