//! Bit-level pins of the per-frame state an [`AppSession`] emits.
//!
//! Each golden is an order-sensitive FNV-1a hash over the raw bits of every
//! [`FrameState`] field for frames `0..FRAMES`. The runs go past frame
//! 4,095, where the motion stream starts holding its last pose, so they
//! pin the hold as well as the motion itself. The values were captured
//! from the implementation that pre-generated a 4,096-sample trace per
//! session and read it by frame index; drawing motion one frame at a time
//! must keep reproducing them.

use qvr_scene::{AppProfile, AppSession, Benchmark, CharacterizationApp, FrameState};

/// Frames hashed per session: past the hold at 4,096.
const FRAMES: usize = 4_200;

/// One pinned session: app, seed, and the FNV-1a hash of its frames.
/// The apps are HL2-H (typical motion), GRID (frantic) and Viking (calm).
struct MotionGolden {
    profile: fn() -> AppProfile,
    seed: u64,
    hash: u64,
}

#[rustfmt::skip]
const MOTION_GOLDENS: [MotionGolden; 6] = [
    MotionGolden { profile: || Benchmark::Hl2H.profile(),             seed: 42, hash: 0xc480fd3e2dbae28a },
    MotionGolden { profile: || Benchmark::Hl2H.profile(),             seed: 7,  hash: 0x921513f1222921e7 },
    MotionGolden { profile: || Benchmark::Grid.profile(),             seed: 42, hash: 0xc37eac997be96385 },
    MotionGolden { profile: || Benchmark::Grid.profile(),             seed: 7,  hash: 0xce954e0634dcf16f },
    MotionGolden { profile: || CharacterizationApp::Viking.profile(), seed: 42, hash: 0x6dbbe5a2b5a6c068 },
    MotionGolden { profile: || CharacterizationApp::Viking.profile(), seed: 7,  hash: 0x0314611c1f0624c1 },
];

/// The raw bits of every field of one frame, in declaration order.
fn frame_bits(f: &FrameState) -> impl Iterator<Item = u64> {
    let s = &f.sample;
    let d = &f.delta;
    let sample = [
        s.yaw,
        s.pitch,
        s.roll,
        s.position[0],
        s.position[1],
        s.position[2],
        s.gaze.x,
        s.gaze.y,
        s.interaction,
    ];
    let delta = [
        d.dof[0],
        d.dof[1],
        d.dof[2],
        d.dof[3],
        d.dof[4],
        d.dof[5],
        d.gaze.0,
        d.gaze.1,
        d.interaction,
    ];
    let tail = [
        f.complexity_multiplier,
        f.interactive_fraction,
        f.content_detail,
    ];
    std::iter::once(f.frame_id)
        .chain(sample.into_iter().chain(delta).map(f64::to_bits))
        .chain(std::iter::once(f.triangles))
        .chain(tail.into_iter().map(f64::to_bits))
}

/// Order-sensitive FNV-1a over the bits of a session's first `FRAMES`
/// frames.
fn session_hash(profile: AppProfile, seed: u64) -> u64 {
    let mut session = AppSession::start(profile, seed);
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for _ in 0..FRAMES {
        for bits in frame_bits(&session.advance()) {
            hash ^= bits;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

#[test]
fn sessions_reproduce_their_pinned_frames() {
    for g in &MOTION_GOLDENS {
        let profile = (g.profile)();
        let app = profile.name;
        let hash = session_hash(profile, g.seed);
        assert_eq!(hash, g.hash, "{app} seed {}: per-frame state", g.seed);
    }
}
