//! Pre-defined interactive objects for the *static* collaborative baseline.
//!
//! The state-of-the-art static scheme (Sec. 2.2) requires programmers to
//! pre-classify "interactive objects" for local rendering. Table 1 lists
//! them per app with the fraction `f` of frame rendering time they consume —
//! a fraction that swings widely at runtime (Fig. 5: the Nature tree costs
//! 12–26 ms depending on how close the user gets).

use std::fmt;

/// One pre-declared interactive object set for an app.
#[derive(Debug, Clone, PartialEq)]
pub struct InteractiveObject {
    name: &'static str,
    f_min: f64,
    f_max: f64,
}

impl InteractiveObject {
    /// Creates an object set with its workload-fraction range `[f_min,
    /// f_max]` (fractions of whole-frame rendering latency, as in Table 1).
    ///
    /// # Panics
    ///
    /// Panics if the range is not within `[0, 1]` or inverted.
    #[must_use]
    pub fn new(name: &'static str, f_min: f64, f_max: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&f_min) && (0.0..=1.0).contains(&f_max) && f_min <= f_max,
            "fraction range must satisfy 0 <= f_min <= f_max <= 1"
        );
        InteractiveObject { name, f_min, f_max }
    }

    /// Display name of the object set (e.g. `"9 Chess"`, `"1 Tree"`).
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Minimum workload fraction.
    #[must_use]
    pub fn f_min(&self) -> f64 {
        self.f_min
    }

    /// Maximum workload fraction.
    #[must_use]
    pub fn f_max(&self) -> f64 {
        self.f_max
    }

    /// The workload fraction at interaction intensity `t ∈ [0, 1]`.
    ///
    /// Interaction drives the object close to the user and animates it
    /// (Fig. 5), which moves `f` from its minimum toward its maximum with a
    /// mildly super-linear response (close-up interaction inflates detail).
    #[must_use]
    pub fn fraction_at(&self, t: f64) -> f64 {
        let t = t.clamp(0.0, 1.0);
        self.f_min + (self.f_max - self.f_min) * t.powf(1.1)
    }
}

impl fmt::Display for InteractiveObject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (f = {:.0}%–{:.0}%)",
            self.name,
            self.f_min * 100.0,
            self.f_max * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_spans_range() {
        let o = InteractiveObject::new("1 Tree", 0.10, 0.24);
        assert!((o.fraction_at(0.0) - 0.10).abs() < 1e-12);
        assert!((o.fraction_at(1.0) - 0.24).abs() < 1e-12);
    }

    #[test]
    fn fraction_monotone() {
        let o = InteractiveObject::new("chess", 0.16, 0.52);
        let mut last = 0.0;
        for i in 0..=10 {
            let f = o.fraction_at(f64::from(i) / 10.0);
            assert!(f >= last);
            last = f;
        }
    }

    #[test]
    fn fraction_clamps_inputs() {
        let o = InteractiveObject::new("x", 0.1, 0.2);
        assert_eq!(o.fraction_at(-3.0), o.fraction_at(0.0));
        assert_eq!(o.fraction_at(5.0), o.fraction_at(1.0));
    }

    #[test]
    #[should_panic(expected = "fraction range")]
    fn inverted_range_rejected() {
        let _ = InteractiveObject::new("bad", 0.5, 0.2);
    }

    #[test]
    fn display_shows_percentages() {
        let o = InteractiveObject::new("Lion Shield", 0.001, 0.20);
        let s = o.to_string();
        assert!(s.contains("Lion Shield"));
        assert!(s.contains("20%"));
    }
}
