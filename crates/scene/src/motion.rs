//! Seeded 6-DoF head and gaze motion traces.
//!
//! VR user motion alternates between calm viewing and active phases (head
//! sweeps, gaze saccades, object interaction). LIWC's whole premise
//! (Sec. 4.1) is that these motions correlate with scene-complexity change,
//! so the trace generator produces *correlated* channels: head angular
//! velocity, gaze movement, and an interaction intensity that the scene
//! model turns into workload variation.
//!
//! A [`MotionTrace`] draws one sample per frame from its seed and is exactly
//! reproducible.

use qvr_hvs::GazePoint;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How agitated a user is while playing one app.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MotionProfile {
    /// Overall activity level in `[0, 1]`: scales head velocity, saccade
    /// frequency, and interaction probability.
    pub activity: f64,
    /// Mean length of a calm/active segment, frames.
    pub segment_len: u32,
    /// Peak head angular velocity during active segments, degrees/frame.
    pub peak_head_velocity: f64,
    /// Probability per frame of a gaze saccade during active segments.
    pub saccade_rate: f64,
}

impl MotionProfile {
    /// A seated, slow-viewing profile.
    #[must_use]
    pub fn calm() -> Self {
        MotionProfile {
            activity: 0.25,
            segment_len: 120,
            peak_head_velocity: 0.8,
            saccade_rate: 0.02,
        }
    }

    /// A typical gaming profile (default).
    #[must_use]
    pub fn typical() -> Self {
        MotionProfile {
            activity: 0.5,
            segment_len: 75,
            peak_head_velocity: 1.6,
            saccade_rate: 0.05,
        }
    }

    /// A fast, highly interactive profile (racing, shooters).
    #[must_use]
    pub fn frantic() -> Self {
        MotionProfile {
            activity: 0.8,
            segment_len: 45,
            peak_head_velocity: 2.8,
            saccade_rate: 0.10,
        }
    }
}

impl Default for MotionProfile {
    fn default() -> Self {
        MotionProfile::typical()
    }
}

/// One frame's absolute head pose and gaze.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MotionSample {
    /// Head yaw in degrees.
    pub yaw: f64,
    /// Head pitch in degrees.
    pub pitch: f64,
    /// Head roll in degrees.
    pub roll: f64,
    /// Head position in metres (x, y, z).
    pub position: [f64; 3],
    /// Gaze point on the panel (eye tracker output).
    pub gaze: GazePoint,
    /// Interaction intensity in `[0, 1]` (0 = observing, 1 = manipulating
    /// a nearby object, the Fig. 5 "close to the tree" situation).
    pub interaction: f64,
}

/// Frame-over-frame motion change: what LIWC's motion codec consumes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MotionDelta {
    /// Changes of the six degrees of freedom:
    /// `[Δyaw, Δpitch, Δroll, Δx, Δy, Δz]` (degrees / metres).
    pub dof: [f64; 6],
    /// Gaze movement in NDC units `(Δx, Δy)`.
    pub gaze: (f64, f64),
    /// Change in interaction intensity.
    pub interaction: f64,
}

impl MotionDelta {
    /// The change between two consecutive samples.
    #[must_use]
    pub fn between(prev: &MotionSample, next: &MotionSample) -> Self {
        MotionDelta {
            dof: [
                next.yaw - prev.yaw,
                next.pitch - prev.pitch,
                next.roll - prev.roll,
                next.position[0] - prev.position[0],
                next.position[1] - prev.position[1],
                next.position[2] - prev.position[2],
            ],
            gaze: (next.gaze.x - prev.gaze.x, next.gaze.y - prev.gaze.y),
            interaction: next.interaction - prev.interaction,
        }
    }

    /// Magnitude of the rotational change, degrees.
    #[must_use]
    pub fn rotation_magnitude(&self) -> f64 {
        (self.dof[0].powi(2) + self.dof[1].powi(2) + self.dof[2].powi(2)).sqrt()
    }

    /// Magnitude of the gaze movement, NDC units.
    #[must_use]
    pub fn gaze_magnitude(&self) -> f64 {
        (self.gaze.0.powi(2) + self.gaze.1.powi(2)).sqrt()
    }
}

/// Samples a stream draws before it holds its last pose.
///
/// Motion used to be pre-generated as a 4,096-sample trace per session,
/// and every frame past its end repeated the last pose. The frozen
/// benchmark's `streaming_churn` reference pins tenants that run past that
/// point, so the stream keeps the hold bit for bit. The next change to the
/// benchmark removes it and re-pins that reference.
const HOLD_AFTER: u32 = 4_096;

/// A seed-deterministic motion stream, drawn one sample per frame. After
/// 4,096 samples it repeats its last pose.
#[derive(Debug, Clone)]
pub struct MotionTrace {
    profile: MotionProfile,
    rng: StdRng,
    /// The last sample drawn.
    sample: MotionSample,
    /// Samples drawn so far, up to [`HOLD_AFTER`].
    drawn: u32,
    /// Segment state machine: calm <-> active.
    active: bool,
    segment_left: u32,
    /// Current smooth head velocities.
    vel_yaw: f64,
    vel_pitch: f64,
    gaze_target: GazePoint,
    interaction_target: f64,
}

impl MotionTrace {
    /// Starts the stream for a profile and seed.
    #[must_use]
    pub fn new(profile: MotionProfile, seed: u64) -> Self {
        MotionTrace {
            profile,
            rng: StdRng::seed_from_u64(seed),
            sample: MotionSample {
                gaze: GazePoint::center(),
                ..MotionSample::default()
            },
            drawn: 0,
            active: false,
            // Starting at zero makes the first sample draw a segment, so
            // streams are stationary from frame 0.
            segment_left: 0,
            vel_yaw: 0.0,
            vel_pitch: 0.0,
            gaze_target: GazePoint::center(),
            interaction_target: 0.0,
        }
    }

    /// Draws the next frame's sample (the last one again once the stream
    /// holds).
    pub fn next_sample(&mut self) -> MotionSample {
        if self.drawn == HOLD_AFTER {
            return self.sample;
        }
        self.drawn += 1;
        let profile = &self.profile;
        let rng = &mut self.rng;
        let sample = &mut self.sample;

        if self.segment_left == 0 {
            // Active segments are more likely at higher activity.
            self.active = rng.gen_bool(profile.activity.clamp(0.05, 0.95));
            let jitter = rng.gen_range(0.6..1.4);
            self.segment_left = ((f64::from(profile.segment_len) * jitter).round() as u32).max(10);
            if self.active {
                self.vel_yaw = rng.gen_range(-1.0..1.0) * profile.peak_head_velocity;
                self.vel_pitch = rng.gen_range(-0.5..0.5) * profile.peak_head_velocity;
                self.interaction_target = rng.gen_range(0.45..1.0);
            } else {
                self.vel_yaw = rng.gen_range(-0.1..0.1);
                self.vel_pitch = rng.gen_range(-0.05..0.05);
                self.interaction_target = rng.gen_range(0.05..0.4);
            }
        }
        self.segment_left -= 1;

        // Head: smooth integration with small noise.
        sample.yaw += self.vel_yaw + rng.gen_range(-0.05..0.05);
        sample.pitch =
            (sample.pitch + self.vel_pitch + rng.gen_range(-0.03..0.03)).clamp(-60.0, 60.0);
        sample.roll += rng.gen_range(-0.02..0.02);
        for p in &mut sample.position {
            *p += rng.gen_range(-0.002..0.002) * (1.0 + profile.activity);
        }

        // Gaze: smooth pursuit toward a target; saccades jump the target.
        let saccade_p = if self.active {
            profile.saccade_rate
        } else {
            profile.saccade_rate * 0.3
        };
        if rng.gen_bool(saccade_p.clamp(0.0, 1.0)) {
            self.gaze_target =
                GazePoint::clamped(rng.gen_range(-0.7..0.7), rng.gen_range(-0.6..0.6));
        }
        let pursuit = 0.15;
        sample.gaze = GazePoint::clamped(
            sample.gaze.x + (self.gaze_target.x - sample.gaze.x) * pursuit,
            sample.gaze.y + (self.gaze_target.y - sample.gaze.y) * pursuit,
        );

        // Interaction: first-order lag toward the segment target.
        sample.interaction += (self.interaction_target - sample.interaction) * 0.08;
        sample.interaction = sample.interaction.clamp(0.0, 1.0);

        *sample
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first `frames` samples of a stream.
    fn samples(profile: MotionProfile, frames: usize, seed: u64) -> Vec<MotionSample> {
        let mut t = MotionTrace::new(profile, seed);
        (0..frames).map(|_| t.next_sample()).collect()
    }

    #[test]
    fn generation_is_deterministic() {
        let p = MotionProfile::typical();
        let a = samples(p, 300, 7);
        assert_eq!(a, samples(p, 300, 7));
        assert_ne!(a, samples(p, 300, 8));
    }

    #[test]
    fn stream_holds_its_last_pose_after_4096_samples() {
        let s = samples(MotionProfile::frantic(), 4_100, 0);
        assert_ne!(s[4_094], s[4_095], "the 4,096th sample is still drawn");
        assert_eq!(s[4_096], s[4_095]);
        for pair in s[4_095..].windows(2) {
            assert_eq!(
                MotionDelta::between(&pair[0], &pair[1]),
                MotionDelta::default()
            );
        }
    }

    #[test]
    fn frantic_moves_more_than_calm() {
        let total_rotation = |p: MotionProfile| -> f64 {
            samples(p, 600, 11)
                .windows(2)
                .map(|w| MotionDelta::between(&w[0], &w[1]).rotation_magnitude())
                .sum()
        };
        let calm = total_rotation(MotionProfile::calm());
        let frantic = total_rotation(MotionProfile::frantic());
        assert!(
            frantic > 1.5 * calm,
            "frantic {frantic:.1} vs calm {calm:.1}"
        );
    }

    #[test]
    fn gaze_stays_in_panel() {
        for s in samples(MotionProfile::frantic(), 1000, 5) {
            assert!(s.gaze.x.abs() <= 1.0 && s.gaze.y.abs() <= 1.0);
        }
    }

    #[test]
    fn interaction_stays_in_unit_range() {
        for s in samples(MotionProfile::frantic(), 1000, 5) {
            assert!((0.0..=1.0).contains(&s.interaction));
        }
    }

    #[test]
    fn interaction_varies_over_time() {
        let t = samples(MotionProfile::typical(), 1000, 9);
        let max = t.iter().map(|s| s.interaction).fold(0.0, f64::max);
        let min = t.iter().map(|s| s.interaction).fold(1.0, f64::min);
        assert!(max - min > 0.2, "interaction must vary, got [{min}, {max}]");
    }

    #[test]
    fn pitch_is_clamped() {
        for s in samples(MotionProfile::frantic(), 5000, 13) {
            assert!(s.pitch.abs() <= 60.0);
        }
    }

    #[test]
    fn delta_magnitudes() {
        let d = MotionDelta {
            dof: [3.0, 4.0, 0.0, 0.0, 0.0, 0.0],
            gaze: (0.3, 0.4),
            interaction: 0.0,
        };
        assert!((d.rotation_magnitude() - 5.0).abs() < 1e-12);
        assert!((d.gaze_magnitude() - 0.5).abs() < 1e-12);
    }
}
