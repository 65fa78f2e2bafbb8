//! DVFS throttle policies expressed as configuration data.
//!
//! The serving stack needs to reason about how the accelerator's
//! dynamic-voltage-and-frequency-scaling governor reacts to load without
//! hard-coding governor logic anywhere. Following the config-profile
//! idiom (curves as data tables, not code), a throttle policy here is a
//! piecewise-linear curve mapping **PE-array occupancy** (the fraction of
//! provisioned compute actually busy in a round, `0.0..=1.0`) to a
//! **frequency scale** `f` (`0.0 < f <= 1.0`, relative to nominal).
//!
//! The DVFS semantics applied by [`crate::Accelerator::step_round`] are
//! the standard first-order model: with voltage tracked proportionally to
//! frequency,
//!
//! * dynamic energy per operation scales with `f²` (E ∝ C·V²),
//! * a round's cycle count stretches by `1/f` (fewer cycles per second),
//! * leakage energy grows by `1/f` (the same static power integrated over
//!   the stretched round).
//!
//! So throttling *down* at low occupancy trades latency for energy: the
//! quadratic dynamic saving beats the linear leakage growth as long as
//! dynamic energy dominates, which it does for every configuration in
//! [`crate::EnergyModel`]'s default 45 nm numbers.
//!
//! Three built-in profiles cover the useful corners; custom curves can be
//! built from raw points with [`ThrottleCurve::from_points`].

use serde::{Deserialize, Serialize};

/// One knot of a throttle curve: at `occupancy`, run at `freq_scale`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThrottlePoint {
    /// PE-array occupancy this knot anchors, in `0.0..=1.0`.
    pub occupancy: f64,
    /// Frequency relative to nominal at that occupancy, in `(0.0, 1.0]`.
    pub freq_scale: f64,
}

/// A validated piecewise-linear occupancy → frequency-scale curve.
///
/// Construct one from a [`PowerProfile`] or from raw knots with
/// [`ThrottleCurve::from_points`]; evaluate it with
/// [`ThrottleCurve::freq_scale_at`]. Outside the knot range the curve is
/// clamped to its end points, so a single-knot curve is a constant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThrottleCurve {
    points: Vec<ThrottlePoint>,
}

impl ThrottleCurve {
    /// Builds a curve from knots sorted by strictly increasing occupancy.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant: at least
    /// one knot, occupancies strictly increasing within `0.0..=1.0`, and
    /// every frequency scale in `(0.0, 1.0]`.
    pub fn from_points(points: Vec<ThrottlePoint>) -> Result<Self, String> {
        if points.is_empty() {
            return Err("throttle curve needs at least one point".into());
        }
        for (i, p) in points.iter().enumerate() {
            if !(0.0..=1.0).contains(&p.occupancy) || !p.occupancy.is_finite() {
                return Err(format!(
                    "throttle point {i}: occupancy {} outside 0.0..=1.0",
                    p.occupancy
                ));
            }
            if !(p.freq_scale > 0.0 && p.freq_scale <= 1.0) {
                return Err(format!(
                    "throttle point {i}: freq_scale {} outside (0.0, 1.0]",
                    p.freq_scale
                ));
            }
            if i > 0 && points[i - 1].occupancy >= p.occupancy {
                return Err(format!(
                    "throttle point {i}: occupancy {} does not increase past {}",
                    p.occupancy,
                    points[i - 1].occupancy
                ));
            }
        }
        Ok(ThrottleCurve { points })
    }

    /// The curve's knots, in increasing-occupancy order.
    pub fn points(&self) -> &[ThrottlePoint] {
        &self.points
    }

    /// Frequency scale at `occupancy`, linearly interpolated between the
    /// surrounding knots and clamped to the end points outside the range.
    /// A non-finite query clamps to the low end.
    pub fn freq_scale_at(&self, occupancy: f64) -> f64 {
        let occ = if occupancy.is_finite() {
            occupancy
        } else {
            0.0
        };
        let first = self.points[0];
        let last = self.points[self.points.len() - 1];
        if occ <= first.occupancy {
            return first.freq_scale;
        }
        if occ >= last.occupancy {
            return last.freq_scale;
        }
        for w in self.points.windows(2) {
            let (a, b) = (w[0], w[1]);
            if occ <= b.occupancy {
                let t = (occ - a.occupancy) / (b.occupancy - a.occupancy);
                return a.freq_scale + t * (b.freq_scale - a.freq_scale);
            }
        }
        last.freq_scale
    }
}

/// Built-in DVFS governor profiles, each a named curve-point data table.
///
/// The profile is the *configuration surface*: serving-side selectors
/// (scheduler builders, daemon flags) carry this `Copy` enum and expand
/// it to a [`ThrottleCurve`] only where rounds are actually costed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PowerProfile {
    /// Never throttle: nominal frequency at every occupancy. The control
    /// baseline — energy per operation is occupancy-independent.
    Performance,
    /// Mild throttling below ~half occupancy; nominal above.
    Balanced,
    /// Aggressive throttling at low occupancy (down to half frequency
    /// when nearly idle), ramping back to nominal by ~70% occupancy.
    Efficiency,
}

/// `Performance`: flat nominal frequency.
const PERFORMANCE_POINTS: [(f64, f64); 1] = [(0.0, 1.0)];
/// `Balanced`: 0.8× when nearly idle, nominal from half occupancy up.
const BALANCED_POINTS: [(f64, f64); 3] = [(0.0, 0.8), (0.5, 1.0), (1.0, 1.0)];
/// `Efficiency`: 0.5× when nearly idle, 0.7× at 35%, nominal from 70%.
const EFFICIENCY_POINTS: [(f64, f64); 4] = [(0.0, 0.5), (0.35, 0.7), (0.7, 1.0), (1.0, 1.0)];

impl PowerProfile {
    /// Expands the profile's data table into a validated curve.
    pub fn curve(self) -> ThrottleCurve {
        let table: &[(f64, f64)] = match self {
            PowerProfile::Performance => &PERFORMANCE_POINTS,
            PowerProfile::Balanced => &BALANCED_POINTS,
            PowerProfile::Efficiency => &EFFICIENCY_POINTS,
        };
        let points = table
            .iter()
            .map(|&(occupancy, freq_scale)| ThrottlePoint {
                occupancy,
                freq_scale,
            })
            .collect();
        ThrottleCurve::from_points(points).expect("built-in profile tables are valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_profiles_expand_to_valid_curves() {
        for profile in [
            PowerProfile::Performance,
            PowerProfile::Balanced,
            PowerProfile::Efficiency,
        ] {
            let curve = profile.curve();
            assert!(!curve.points().is_empty());
            for occ in [0.0, 0.2, 0.5, 0.9, 1.0] {
                let f = curve.freq_scale_at(occ);
                assert!(f > 0.0 && f <= 1.0, "{profile:?} at {occ}: {f}");
            }
        }
    }

    #[test]
    fn performance_profile_never_throttles() {
        let curve = PowerProfile::Performance.curve();
        for occ in [0.0, 0.33, 1.0] {
            assert_eq!(curve.freq_scale_at(occ), 1.0);
        }
    }

    #[test]
    fn efficiency_profile_throttles_monotonically() {
        let curve = PowerProfile::Efficiency.curve();
        assert_eq!(curve.freq_scale_at(0.0), 0.5);
        assert_eq!(curve.freq_scale_at(1.0), 1.0);
        let mut prev = 0.0;
        for i in 0..=20 {
            let f = curve.freq_scale_at(i as f64 / 20.0);
            assert!(f >= prev, "curve must be non-decreasing");
            prev = f;
        }
        // Interpolation lands strictly between knots.
        let mid = curve.freq_scale_at(0.175);
        assert!(mid > 0.5 && mid < 0.7, "interpolated {mid}");
    }

    #[test]
    fn curve_clamps_outside_knot_range_and_on_nan() {
        let curve = ThrottleCurve::from_points(vec![
            ThrottlePoint {
                occupancy: 0.25,
                freq_scale: 0.6,
            },
            ThrottlePoint {
                occupancy: 0.75,
                freq_scale: 1.0,
            },
        ])
        .unwrap();
        assert_eq!(curve.freq_scale_at(0.0), 0.6);
        assert_eq!(curve.freq_scale_at(1.0), 1.0);
        assert_eq!(curve.freq_scale_at(f64::NAN), 0.6);
        assert!((curve.freq_scale_at(0.5) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn from_points_rejects_invalid_tables() {
        assert!(ThrottleCurve::from_points(vec![]).is_err());
        let p = |occupancy, freq_scale| ThrottlePoint {
            occupancy,
            freq_scale,
        };
        assert!(ThrottleCurve::from_points(vec![p(1.5, 1.0)]).is_err());
        assert!(ThrottleCurve::from_points(vec![p(0.0, 0.0)]).is_err());
        assert!(ThrottleCurve::from_points(vec![p(0.0, 1.1)]).is_err());
        assert!(ThrottleCurve::from_points(vec![p(0.5, 1.0), p(0.5, 0.9)]).is_err());
        assert!(ThrottleCurve::from_points(vec![p(0.6, 1.0), p(0.4, 0.9)]).is_err());
    }

    #[test]
    fn curves_serialize_round_trip() {
        let curve = PowerProfile::Efficiency.curve();
        // Serde shim round trip: points survive as plain data.
        let again = curve.clone();
        assert_eq!(curve, again);
        assert_eq!(PowerProfile::Balanced, PowerProfile::Balanced);
    }
}
