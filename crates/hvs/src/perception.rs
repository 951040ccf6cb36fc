//! Synthetic stand-in for the paper's image-quality user survey (Sec. 3.1).
//!
//! The paper ran a 50-candidate survey and found that participants observe
//! *no* visible quality difference between eccentricity selections as long
//! as the target MAR is satisfied for every displayed layer. This module
//! encodes that finding as a checkable model:
//!
//! * [`PerceptionModel::score`] returns a deterministic quality score that
//!   is perfect exactly when the MAR bound holds everywhere, and degrades
//!   with the worst acuity shortfall otherwise.
//! * [`PerceptionModel::run_survey`] simulates a panel of candidates with
//!   seeded inter-subject variability, reproducing the survey protocol
//!   (5-second exposures, per-image opinion scores).

use crate::angles::DisplayGeometry;
use crate::layers::LayerPartition;
use crate::mar::MarModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// A frame-quality score in `[0, 1]`; `1.0` means perceptually lossless.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct PerceptionScore(f64);

impl PerceptionScore {
    /// The raw score value in `[0, 1]`.
    #[must_use]
    pub fn value(&self) -> f64 {
        self.0
    }

    /// Whether the configuration is perceptually lossless.
    #[must_use]
    pub fn is_lossless(&self) -> bool {
        self.0 >= 1.0 - 1e-9
    }
}

impl fmt::Display for PerceptionScore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.0)
    }
}

/// Aggregate outcome of a simulated user survey.
#[derive(Debug, Clone, PartialEq)]
pub struct SurveyOutcome {
    /// Number of simulated candidates.
    pub candidates: usize,
    /// Fraction of candidates who reported a visible difference.
    pub fraction_noticing: f64,
    /// Mean opinion score across candidates (1–5).
    pub mean_opinion_score: f64,
}

impl fmt::Display for SurveyOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} noticed, MOS {:.2}",
            (self.fraction_noticing * self.candidates as f64).round() as usize,
            self.candidates,
            self.mean_opinion_score
        )
    }
}

/// Perception model combining a display and a MAR acuity model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PerceptionModel {
    display: DisplayGeometry,
    mar: MarModel,
}

impl PerceptionModel {
    /// Number of eccentricity samples used when scanning a partition.
    const SAMPLES: usize = 128;

    /// Creates a model for a display and acuity model.
    #[must_use]
    pub fn new(display: DisplayGeometry, mar: MarModel) -> Self {
        PerceptionModel { display, mar }
    }

    /// The display geometry under evaluation.
    #[must_use]
    pub fn display(&self) -> &DisplayGeometry {
        &self.display
    }

    /// The acuity model in use.
    #[must_use]
    pub fn mar(&self) -> &MarModel {
        &self.mar
    }

    /// Deterministic quality score for a layer partition.
    ///
    /// Scans eccentricities from the gaze centre to the panel corner; at
    /// each, the displayed layer's resolution scale must satisfy the MAR
    /// bound. The score is `1.0` when satisfied everywhere; otherwise it
    /// falls with the mean relative acuity shortfall.
    #[must_use]
    pub fn score(&self, partition: &LayerPartition) -> PerceptionScore {
        let native = self.display.native_mar();
        let e_max = self.display.max_eccentricity().0;
        let mut shortfall_sum = 0.0;
        for i in 0..Self::SAMPLES {
            let e = e_max * (i as f64 + 0.5) / Self::SAMPLES as f64;
            let layer = partition.layer_at(e);
            let scale = partition.layer_scale(layer, &self.display, &self.mar);
            // Effective angular resolution delivered at this eccentricity.
            let delivered = native / scale.max(1e-9);
            // Lossless means "as good as non-foveated rendering on the same
            // panel": the requirement can never be finer than native.
            let required = self.mar.mar_at(e).max(native);
            if delivered > required {
                shortfall_sum += (delivered / required - 1.0).min(1.0);
            }
        }
        let mean_shortfall = shortfall_sum / Self::SAMPLES as f64;
        PerceptionScore((1.0 - mean_shortfall).clamp(0.0, 1.0))
    }

    /// Simulates the paper's survey protocol for one partition.
    ///
    /// Each of `candidates` simulated subjects views the foveated frame and
    /// reports (a) whether they noticed degradation and (b) an opinion score.
    /// Subjects have individual acuity offsets drawn from a seeded RNG, so a
    /// configuration exactly at the MAR bound is noticed by (almost) nobody,
    /// matching the paper's finding.
    #[must_use]
    pub fn run_survey(
        &self,
        partition: &LayerPartition,
        candidates: usize,
        seed: u64,
    ) -> SurveyOutcome {
        let base = self.score(partition);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut noticed = 0usize;
        let mut mos_sum = 0.0;
        for _ in 0..candidates {
            // Inter-subject acuity variability: ±10 % on the perceived
            // shortfall, plus a small response noise on the opinion score.
            let sensitivity: f64 = rng.gen_range(0.9..1.1);
            let perceived_loss = (1.0 - base.value()) * sensitivity;
            if perceived_loss > 0.02 {
                noticed += 1;
            }
            let mos = (5.0 - 4.0 * perceived_loss + rng.gen_range(-0.1..0.1)).clamp(1.0, 5.0);
            mos_sum += mos;
        }
        SurveyOutcome {
            candidates,
            fraction_noticing: if candidates == 0 {
                0.0
            } else {
                noticed as f64 / candidates as f64
            },
            mean_opinion_score: if candidates == 0 {
                0.0
            } else {
                mos_sum / candidates as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> PerceptionModel {
        PerceptionModel::new(DisplayGeometry::vive_pro_class(), MarModel::default())
    }

    #[test]
    fn mar_constrained_partition_is_lossless() {
        let m = model();
        for e1 in [5.0, 15.0, 30.0, 60.0] {
            let p = LayerPartition::with_optimal_middle(e1, m.display(), m.mar()).unwrap();
            let s = m.score(&p);
            assert!(s.is_lossless(), "e1={e1} score={s}");
        }
    }

    #[test]
    fn survey_on_lossless_config_finds_no_difference() {
        let m = model();
        let p = LayerPartition::with_optimal_middle(15.0, m.display(), m.mar()).unwrap();
        let outcome = m.run_survey(&p, 50, 42);
        assert_eq!(outcome.candidates, 50);
        assert_eq!(outcome.fraction_noticing, 0.0);
        assert!(outcome.mean_opinion_score > 4.8);
    }

    #[test]
    fn survey_is_deterministic_per_seed() {
        let m = model();
        let p = LayerPartition::with_optimal_middle(15.0, m.display(), m.mar()).unwrap();
        let a = m.run_survey(&p, 50, 7);
        let b = m.run_survey(&p, 50, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_survey_is_well_defined() {
        let m = model();
        let p = LayerPartition::with_optimal_middle(15.0, m.display(), m.mar()).unwrap();
        let outcome = m.run_survey(&p, 0, 0);
        assert_eq!(outcome.fraction_noticing, 0.0);
        assert_eq!(outcome.mean_opinion_score, 0.0);
    }

    #[test]
    fn outcome_display_is_informative() {
        let o = SurveyOutcome {
            candidates: 50,
            fraction_noticing: 0.1,
            mean_opinion_score: 4.5,
        };
        let s = o.to_string();
        assert!(s.contains("5/50"));
        assert!(s.contains("4.5"));
    }
}
