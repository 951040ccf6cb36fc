//! Application profiles and per-frame workload generation.
//!
//! Two app sets, matching the paper:
//!
//! * [`CharacterizationApp`] — the five photorealistic VR apps of Table 1 /
//!   Fig. 3 (Foveated3D, Viking, Nature, Sponza, San Miguel), profiled on a
//!   Gen9-class platform for the motivation study.
//! * [`Benchmark`] — the seven simulator benchmarks of Table 3 (Doom3-H/L,
//!   HL2-H/L, GRID, UT3, Wolf) evaluated on the Mali-class mobile GPU.
//!
//! Each [`AppProfile`] is calibrated so that the *published* characteristics
//! come out of our substrate models: triangle counts and draw batches match
//! Tables 1 and 3 directly; per-fragment shading cost and overdraw are
//! fitted so baseline local rendering latency lands in the ranges of
//! Fig. 3(a) and Table 1; content detail is fitted so compressed background
//! frames land near Table 1's "Back Size" column.
//!
//! An [`AppSession`] draws seeded motion frame by frame and emits one
//! [`FrameState`] per frame: the motion sample and delta, this frame's
//! triangle count (complexity varies with user motion and interaction), the
//! interactive-object workload share, and the content detail seen by the
//! codec.

use crate::complexity::{ComplexityField, TriangleFractionCache};
use crate::interactive::InteractiveObject;
use crate::motion::{MotionDelta, MotionProfile, MotionSample, MotionTrace};
use qvr_gpu::FrameWorkload;
use qvr_hvs::DisplayGeometry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// A fully calibrated application profile.
#[derive(Debug, Clone, PartialEq)]
pub struct AppProfile {
    /// Display name (Table 1 / Table 3 spelling).
    pub name: &'static str,
    /// Per-eye display geometry (resolution + FOV).
    pub display: DisplayGeometry,
    /// Scene triangle budget for a typical frame.
    pub base_triangles: u64,
    /// Draw batches per frame (Table 3 `#Batches`).
    pub batches: u64,
    /// ALU cycles per vertex.
    pub vertex_shader_cycles: f64,
    /// ALU cycles per fragment (fitted to published latencies).
    pub fragment_shader_cycles: f64,
    /// Overdraw factor.
    pub overdraw: f64,
    /// Texture samples per fragment.
    pub texture_samples_per_fragment: f64,
    /// Radial complexity concentration around the gaze.
    pub complexity: ComplexityField,
    /// Amplitude of frame-to-frame workload variation, `[0, 1]`.
    pub complexity_variation: f64,
    /// The static baseline's pre-defined interactive objects.
    pub interactive: InteractiveObject,
    /// Baseline image detail for the codec, `[0, 1]` (fitted to Table 1
    /// "Back Size").
    pub content_detail: f64,
    /// User-motion character while playing this app.
    pub motion: MotionProfile,
}

impl AppProfile {
    /// Full-frame per-eye workload for one frame.
    #[must_use]
    pub fn full_workload(&self, frame: &FrameState) -> FrameWorkload {
        FrameWorkload::builder(self.display.width_px(), self.display.height_px())
            .triangles(frame.triangles)
            .coverage(1.0)
            .overdraw(self.overdraw)
            .vertex_shader_cycles(self.vertex_shader_cycles)
            .fragment_shader_cycles(self.fragment_shader_cycles)
            .texture_samples_per_fragment(self.texture_samples_per_fragment)
            .batches(self.batches)
            .build()
    }

    /// The local fovea-layer workload at eccentricity `e1` degrees.
    ///
    /// Screen coverage comes from the clipped disc geometry; the triangle
    /// share from the complexity field around the current gaze.
    #[must_use]
    pub fn fovea_workload(&self, frame: &FrameState, e1_deg: f64) -> FrameWorkload {
        let area = self.display.fovea_area_fraction(e1_deg, frame.sample.gaze);
        let tris = self
            .complexity
            .triangle_fraction(e1_deg, &self.display, frame.sample.gaze);
        self.full_workload(frame).scaled_region(area, tris)
    }

    /// [`AppProfile::fovea_workload`] through a per-gaze triangle-fraction
    /// ring table (bit-identical results; the cache belongs to one session's
    /// profile — see [`TriangleFractionCache`]): records the frame's gaze
    /// in `cache` ([`ComplexityField::record_rings`]), then
    /// [`AppProfile::fovea_workload_recorded`].
    #[must_use]
    pub fn fovea_workload_cached(
        &self,
        frame: &FrameState,
        e1_deg: f64,
        cache: &mut TriangleFractionCache,
    ) -> FrameWorkload {
        self.complexity
            .record_rings(&self.display, frame.sample.gaze, cache);
        self.fovea_workload_recorded(frame, e1_deg, cache)
    }

    /// [`AppProfile::fovea_workload`] read from a ring table, through a
    /// shared borrow: the disc area from
    /// [`TriangleFractionCache::fovea_area_fraction`], the triangle share
    /// from [`ComplexityField::triangle_fraction_recorded`] (bit-identical
    /// results).
    #[must_use]
    pub fn fovea_workload_recorded(
        &self,
        frame: &FrameState,
        e1_deg: f64,
        rings: &TriangleFractionCache,
    ) -> FrameWorkload {
        let gaze = frame.sample.gaze;
        let area = rings.fovea_area_fraction(&self.display, e1_deg, gaze);
        let tris = self
            .complexity
            .triangle_fraction_recorded(e1_deg, &self.display, gaze, rings);
        self.full_workload(frame).scaled_region(area, tris)
    }

    /// Triangle share inside the fovea disc at `e1` (the `%fovea` of
    /// Eq. 2), read through a per-gaze ring table
    /// ([`ComplexityField::triangle_fraction_cached`]; bit-identical to
    /// [`ComplexityField::triangle_fraction`]).
    #[must_use]
    pub fn fovea_triangle_fraction_cached(
        &self,
        frame: &FrameState,
        e1_deg: f64,
        cache: &mut TriangleFractionCache,
    ) -> f64 {
        self.complexity
            .triangle_fraction_cached(e1_deg, &self.display, frame.sample.gaze, cache)
    }

    /// The static baseline's locally rendered interactive-object workload.
    #[must_use]
    pub fn interactive_workload(&self, frame: &FrameState) -> FrameWorkload {
        let f = frame.interactive_fraction;
        self.full_workload(frame).scaled_region(f, f)
    }

    /// The static baseline's remotely rendered background workload.
    #[must_use]
    pub fn background_workload(&self, frame: &FrameState) -> FrameWorkload {
        let f = 1.0 - frame.interactive_fraction;
        self.full_workload(frame).scaled_region(f, f)
    }
}

impl fmt::Display for AppProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}x{}, {}K tris, {} batches)",
            self.name,
            self.display.width_px(),
            self.display.height_px(),
            self.base_triangles / 1_000,
            self.batches
        )
    }
}

/// One frame of application state, as produced by [`AppSession`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameState {
    /// Frame index from session start.
    pub frame_id: u64,
    /// Absolute head pose and gaze this frame.
    pub sample: MotionSample,
    /// Motion change since the previous frame.
    pub delta: MotionDelta,
    /// Scene triangles submitted this frame.
    pub triangles: u64,
    /// Workload multiplier relative to the app's base (diagnostic).
    pub complexity_multiplier: f64,
    /// Share of frame rendering time owed to interactive objects (the
    /// static baseline's `f`).
    pub interactive_fraction: f64,
    /// Image detail seen by the video codec this frame, `[0, 1]`.
    pub content_detail: f64,
}

/// A deterministic per-frame generator for one app run.
#[derive(Debug, Clone)]
pub struct AppSession {
    profile: AppProfile,
    motion: MotionTrace,
    /// The previous frame's sample (`None` before frame 0).
    last_sample: Option<MotionSample>,
    frame: u64,
    rng: StdRng,
    detail_phase: f64,
}

impl AppSession {
    /// Starts a session for a profile with a deterministic seed.
    #[must_use]
    pub fn start(profile: AppProfile, seed: u64) -> Self {
        AppSession {
            motion: MotionTrace::new(profile.motion, seed),
            profile,
            last_sample: None,
            frame: 0,
            rng: StdRng::seed_from_u64(seed ^ 0xA5A5_5A5A_DEAD_BEEF),
            detail_phase: (seed % 97) as f64 / 97.0,
        }
    }

    /// The profile being run.
    #[must_use]
    pub fn profile(&self) -> &AppProfile {
        &self.profile
    }

    /// Produces the next frame's state.
    pub fn advance(&mut self) -> FrameState {
        let id = self.frame;
        self.frame += 1;
        let sample = self.motion.next_sample();
        let delta = self.last_sample.map_or_else(MotionDelta::default, |prev| {
            MotionDelta::between(&prev, &sample)
        });
        self.last_sample = Some(sample);

        // Workload variation: slow content drift + motion-coupled change
        // (new geometry streams in as the head turns) + interaction detail.
        let p = &self.profile;
        let slow = (id as f64 / 211.0 * std::f64::consts::TAU + self.detail_phase).sin();
        let fast = (id as f64 / 53.0 * std::f64::consts::TAU).sin();
        let motion_term = (delta.rotation_magnitude() / 2.0).min(1.0);
        let noise: f64 = self.rng.gen_range(-0.1..0.1);
        let mult = 1.0
            + p.complexity_variation
                * (0.45 * slow
                    + 0.2 * fast
                    + 0.45 * motion_term
                    + 0.35 * sample.interaction
                    + noise);
        let mult = mult.clamp(0.6, 1.7);

        let interactive_fraction = p.interactive.fraction_at(sample.interaction);

        let detail = (p.content_detail
            + 0.08 * slow
            + 0.10 * sample.interaction
            + self.rng.gen_range(-0.02..0.02))
        .clamp(0.05, 1.0);

        FrameState {
            frame_id: id,
            sample,
            delta,
            triangles: (p.base_triangles as f64 * mult).round() as u64,
            complexity_multiplier: mult,
            interactive_fraction,
            content_detail: detail,
        }
    }
}

/// The seven simulator benchmarks of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// Doom 3 at 1920×2160 per eye (OpenGL, 382 batches).
    Doom3H,
    /// Doom 3 at 1280×1600 per eye.
    Doom3L,
    /// Half-Life 2 at 1920×2160 per eye (DirectX, 656 batches).
    Hl2H,
    /// Half-Life 2 at 1280×1600 per eye.
    Hl2L,
    /// GRID at 1920×2160 per eye (DirectX, 3680 batches).
    Grid,
    /// Unreal Tournament 3 at 1920×2160 per eye (DirectX, 1752 batches).
    Ut3,
    /// Wolfenstein at 1920×2160 per eye (DirectX, 3394 batches).
    Wolf,
}

impl Benchmark {
    /// All seven, in the paper's column order.
    #[must_use]
    pub fn all() -> [Benchmark; 7] {
        [
            Benchmark::Doom3H,
            Benchmark::Doom3L,
            Benchmark::Hl2H,
            Benchmark::Hl2L,
            Benchmark::Grid,
            Benchmark::Ut3,
            Benchmark::Wolf,
        ]
    }

    /// The paper's display label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Benchmark::Doom3H => "Doom3-H",
            Benchmark::Doom3L => "Doom3-L",
            Benchmark::Hl2H => "HL2-H",
            Benchmark::Hl2L => "HL2-L",
            Benchmark::Grid => "GRID",
            Benchmark::Ut3 => "UT3",
            Benchmark::Wolf => "Wolf",
        }
    }

    /// The calibrated profile.
    #[must_use]
    pub fn profile(&self) -> AppProfile {
        let hi = DisplayGeometry::vive_pro_class();
        let lo = DisplayGeometry::low_res_class();
        match self {
            Benchmark::Doom3H => AppProfile {
                name: "Doom3-H",
                display: hi,
                base_triangles: 800_000,
                batches: 382,
                vertex_shader_cycles: 12.0,
                fragment_shader_cycles: 48.0,
                overdraw: 1.6,
                texture_samples_per_fragment: 1.6,
                complexity: ComplexityField::new(1.0, 25.0),
                complexity_variation: 0.22,
                interactive: InteractiveObject::new("Weapons, 2 Demons", 0.08, 0.25),
                content_detail: 0.50,
                motion: MotionProfile::typical(),
            },
            Benchmark::Doom3L => AppProfile {
                display: lo,
                name: "Doom3-L",
                base_triangles: 650_000,
                batches: 382,
                fragment_shader_cycles: 38.0,
                overdraw: 1.4,
                complexity: ComplexityField::new(0.5, 30.0),
                content_detail: 0.42,
                ..Benchmark::Doom3H.profile()
            },
            Benchmark::Hl2H => AppProfile {
                name: "HL2-H",
                display: hi,
                base_triangles: 1_200_000,
                batches: 656,
                vertex_shader_cycles: 12.0,
                fragment_shader_cycles: 60.0,
                overdraw: 1.8,
                texture_samples_per_fragment: 1.8,
                complexity: ComplexityField::new(2.5, 18.0),
                complexity_variation: 0.25,
                interactive: InteractiveObject::new("Gravity-gun props", 0.10, 0.30),
                content_detail: 0.55,
                motion: MotionProfile::typical(),
            },
            Benchmark::Hl2L => AppProfile {
                display: lo,
                name: "HL2-L",
                base_triangles: 1_000_000,
                fragment_shader_cycles: 55.0,
                complexity: ComplexityField::new(2.0, 20.0),
                content_detail: 0.48,
                ..Benchmark::Hl2H.profile()
            },
            Benchmark::Grid => AppProfile {
                name: "GRID",
                display: hi,
                base_triangles: 1_500_000,
                batches: 3_680,
                vertex_shader_cycles: 14.0,
                fragment_shader_cycles: 80.0,
                overdraw: 2.4,
                texture_samples_per_fragment: 2.2,
                complexity: ComplexityField::new(6.0, 12.0),
                complexity_variation: 0.30,
                interactive: InteractiveObject::new("Player car", 0.15, 0.45),
                content_detail: 0.70,
                motion: MotionProfile::frantic(),
            },
            Benchmark::Ut3 => AppProfile {
                name: "UT3",
                display: hi,
                base_triangles: 1_000_000,
                batches: 1_752,
                vertex_shader_cycles: 12.0,
                fragment_shader_cycles: 70.0,
                overdraw: 2.0,
                texture_samples_per_fragment: 2.0,
                complexity: ComplexityField::new(2.5, 16.0),
                complexity_variation: 0.28,
                interactive: InteractiveObject::new("Weapons, 3 Bots", 0.10, 0.35),
                content_detail: 0.60,
                motion: MotionProfile::frantic(),
            },
            Benchmark::Wolf => AppProfile {
                name: "Wolf",
                display: hi,
                base_triangles: 1_300_000,
                batches: 3_394,
                vertex_shader_cycles: 12.0,
                fragment_shader_cycles: 68.0,
                overdraw: 2.2,
                texture_samples_per_fragment: 2.0,
                complexity: ComplexityField::new(4.0, 15.0),
                complexity_variation: 0.26,
                interactive: InteractiveObject::new("Weapons, 4 Soldiers", 0.12, 0.40),
                content_detail: 0.65,
                motion: MotionProfile::typical(),
            },
        }
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The five Table 1 / Fig. 3 characterization apps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CharacterizationApp {
    /// Guenter et al.'s chess scene (231 K triangles, 9 chess pieces).
    Foveated3D,
    /// Unity "Viking Village" (2.8 M triangles, 1 carriage).
    Viking,
    /// Unity "Nature" (1.4 M triangles, 1 tree).
    Nature,
    /// Crytek Sponza (282 K triangles, lion shield).
    Sponza,
    /// San Miguel (4.2 M triangles, 4 chairs + 1 table).
    SanMiguel,
}

impl CharacterizationApp {
    /// All five, in Table 1 row order.
    #[must_use]
    pub fn all() -> [CharacterizationApp; 5] {
        [
            CharacterizationApp::Foveated3D,
            CharacterizationApp::Viking,
            CharacterizationApp::Nature,
            CharacterizationApp::Sponza,
            CharacterizationApp::SanMiguel,
        ]
    }

    /// The paper's display label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            CharacterizationApp::Foveated3D => "Foveated3D",
            CharacterizationApp::Viking => "Viking",
            CharacterizationApp::Nature => "Nature",
            CharacterizationApp::Sponza => "Sponze",
            CharacterizationApp::SanMiguel => "San Miguel",
        }
    }

    /// The calibrated profile (Gen9-class platform, Sec. 2.3).
    #[must_use]
    pub fn profile(&self) -> AppProfile {
        let hi = DisplayGeometry::vive_pro_class();
        match self {
            CharacterizationApp::Foveated3D => AppProfile {
                name: "Foveated3D",
                display: hi,
                base_triangles: 231_000,
                batches: 420,
                vertex_shader_cycles: 12.0,
                fragment_shader_cycles: 200.0,
                overdraw: 2.1,
                texture_samples_per_fragment: 2.5,
                complexity: ComplexityField::new(3.0, 18.0),
                complexity_variation: 0.35,
                interactive: InteractiveObject::new("9 Chess", 0.16, 0.52),
                content_detail: 0.75,
                motion: MotionProfile::typical(),
            },
            CharacterizationApp::Viking => AppProfile {
                name: "Viking",
                display: hi,
                base_triangles: 2_800_000,
                batches: 900,
                vertex_shader_cycles: 12.0,
                fragment_shader_cycles: 170.0,
                overdraw: 2.0,
                texture_samples_per_fragment: 2.0,
                complexity: ComplexityField::new(1.5, 22.0),
                complexity_variation: 0.12,
                interactive: InteractiveObject::new("1 Carriage", 0.10, 0.13),
                content_detail: 0.55,
                motion: MotionProfile::calm(),
            },
            CharacterizationApp::Nature => AppProfile {
                name: "Nature",
                display: hi,
                base_triangles: 1_400_000,
                batches: 700,
                vertex_shader_cycles: 12.0,
                fragment_shader_cycles: 150.0,
                overdraw: 2.0,
                texture_samples_per_fragment: 2.2,
                complexity: ComplexityField::new(2.0, 20.0),
                complexity_variation: 0.25,
                interactive: InteractiveObject::new("1 Tree", 0.10, 0.24),
                content_detail: 0.45,
                motion: MotionProfile::typical(),
            },
            CharacterizationApp::Sponza => AppProfile {
                name: "Sponze",
                display: hi,
                base_triangles: 282_000,
                batches: 380,
                vertex_shader_cycles: 12.0,
                fragment_shader_cycles: 105.0,
                overdraw: 1.9,
                texture_samples_per_fragment: 2.0,
                complexity: ComplexityField::new(1.8, 20.0),
                complexity_variation: 0.30,
                interactive: InteractiveObject::new("Lion Shield", 0.001, 0.20),
                content_detail: 0.57,
                motion: MotionProfile::typical(),
            },
            CharacterizationApp::SanMiguel => AppProfile {
                name: "San Miguel",
                display: hi,
                base_triangles: 4_200_000,
                batches: 1_100,
                vertex_shader_cycles: 12.0,
                fragment_shader_cycles: 135.0,
                overdraw: 2.2,
                texture_samples_per_fragment: 2.4,
                complexity: ComplexityField::new(1.6, 24.0),
                complexity_variation: 0.15,
                interactive: InteractiveObject::new("4 Chairs, 1 Table", 0.06, 0.15),
                content_detail: 0.63,
                motion: MotionProfile::calm(),
            },
        }
    }
}

impl fmt::Display for CharacterizationApp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_have_table3_batches() {
        assert_eq!(Benchmark::Doom3H.profile().batches, 382);
        assert_eq!(Benchmark::Doom3L.profile().batches, 382);
        assert_eq!(Benchmark::Hl2H.profile().batches, 656);
        assert_eq!(Benchmark::Hl2L.profile().batches, 656);
        assert_eq!(Benchmark::Grid.profile().batches, 3_680);
        assert_eq!(Benchmark::Ut3.profile().batches, 1_752);
        assert_eq!(Benchmark::Wolf.profile().batches, 3_394);
    }

    #[test]
    fn resolution_matches_table3() {
        for b in Benchmark::all() {
            let p = b.profile();
            let (w, h) = (p.display.width_px(), p.display.height_px());
            match b {
                Benchmark::Doom3L | Benchmark::Hl2L => assert_eq!((w, h), (1280, 1600)),
                _ => assert_eq!((w, h), (1920, 2160)),
            }
        }
    }

    #[test]
    fn table1_triangle_budgets() {
        assert_eq!(
            CharacterizationApp::Foveated3D.profile().base_triangles,
            231_000
        );
        assert_eq!(
            CharacterizationApp::Viking.profile().base_triangles,
            2_800_000
        );
        assert_eq!(
            CharacterizationApp::Nature.profile().base_triangles,
            1_400_000
        );
        assert_eq!(
            CharacterizationApp::Sponza.profile().base_triangles,
            282_000
        );
        assert_eq!(
            CharacterizationApp::SanMiguel.profile().base_triangles,
            4_200_000
        );
    }

    #[test]
    fn table1_interactive_ranges() {
        let n = CharacterizationApp::Nature.profile();
        assert!((n.interactive.f_min() - 0.10).abs() < 1e-12);
        assert!((n.interactive.f_max() - 0.24).abs() < 1e-12);
    }

    #[test]
    fn session_is_deterministic() {
        let mut a = AppSession::start(Benchmark::Grid.profile(), 17);
        let mut b = AppSession::start(Benchmark::Grid.profile(), 17);
        for _ in 0..100 {
            assert_eq!(a.advance(), b.advance());
        }
    }

    #[test]
    fn session_frames_count_up() {
        let mut s = AppSession::start(Benchmark::Ut3.profile(), 1);
        assert_eq!(s.advance().frame_id, 0);
        assert_eq!(s.advance().frame_id, 1);
        assert_eq!(s.advance().frame_id, 2);
    }

    #[test]
    fn triangles_vary_but_stay_bounded() {
        let mut s = AppSession::start(Benchmark::Grid.profile(), 3);
        let base = Benchmark::Grid.profile().base_triangles as f64;
        let mut min = f64::INFINITY;
        let mut max = 0.0f64;
        for _ in 0..600 {
            let f = s.advance();
            let t = f.triangles as f64;
            min = min.min(t);
            max = max.max(t);
            assert!(t > 0.5 * base && t < 2.0 * base);
        }
        assert!(max / min > 1.1, "workload must vary across frames");
    }

    #[test]
    fn interactive_fraction_within_profile_range() {
        let p = Benchmark::Grid.profile();
        let (lo, hi) = (p.interactive.f_min(), p.interactive.f_max());
        let mut s = AppSession::start(p, 5);
        for _ in 0..500 {
            let f = s.advance();
            assert!(f.interactive_fraction >= lo - 1e-9);
            assert!(f.interactive_fraction <= hi + 1e-9);
        }
    }

    #[test]
    fn fovea_workload_smaller_than_full() {
        let p = Benchmark::Hl2H.profile();
        let mut s = AppSession::start(p.clone(), 9);
        let frame = s.advance();
        let full = p.full_workload(&frame);
        let fovea = p.fovea_workload(&frame, 15.0);
        assert!(fovea.fragments() < full.fragments());
        assert!(fovea.triangles() < full.triangles());
        assert!(fovea.triangles() > 0);
    }

    #[test]
    fn fovea_triangle_fraction_grows() {
        let p = Benchmark::Grid.profile();
        let mut s = AppSession::start(p.clone(), 9);
        let frame = s.advance();
        let mut cache = TriangleFractionCache::new();
        let f10 = p.fovea_triangle_fraction_cached(&frame, 10.0, &mut cache);
        let f40 = p.fovea_triangle_fraction_cached(&frame, 40.0, &mut cache);
        assert!(f40 > f10);
    }

    #[test]
    fn interactive_plus_background_partition_frame() {
        let p = CharacterizationApp::Nature.profile();
        let mut s = AppSession::start(p.clone(), 2);
        let frame = s.advance();
        let int = p.interactive_workload(&frame);
        let bg = p.background_workload(&frame);
        let full = p.full_workload(&frame);
        let total = int.fragments() + bg.fragments();
        assert!((total / full.fragments() - 1.0).abs() < 0.01);
    }

    #[test]
    fn content_detail_in_unit_range() {
        let mut s = AppSession::start(Benchmark::Wolf.profile(), 4);
        for _ in 0..300 {
            let f = s.advance();
            assert!((0.0..=1.0).contains(&f.content_detail));
        }
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(Benchmark::Grid.to_string(), "GRID");
        assert_eq!(CharacterizationApp::SanMiguel.to_string(), "San Miguel");
    }
}
