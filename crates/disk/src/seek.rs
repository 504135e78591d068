//! The seek-time model `γ(x)` of Eq. 7 and disk latency sampling.
//!
//! The paper follows Ruemmler & Wilkes and Chang & Garcia-Molina in
//! modelling the seek time over `x` cylinders as
//!
//! ```text
//! γ(x) = μ1 + ν1·√x        for x < breakpoint
//! γ(x) = μ2 + ν2·x         for x ≥ breakpoint
//! ```
//!
//! with `μ2`, `ν2` chosen so that `γ` is continuous at the breakpoint
//! (x = 400 for the Barracuda 9LP). `γ(0) = 0`: no head movement, no seek.
//!
//! *Disk latency* `DL` for one service is defined in the paper as seek time
//! plus rotational delay; the worst case uses the **maximum** rotational
//! delay `θ` (one full revolution).

use vod_types::{ConfigError, Seconds};

/// The two-piece seek-time curve of Eq. 7.
#[derive(Clone, Debug, PartialEq)]
pub struct SeekModel {
    /// Fixed overhead of the square-root segment (speedup/slowdown/settle),
    /// in seconds (`μ1`).
    pub mu1: Seconds,
    /// Coefficient of `√x` in the square-root segment, in seconds (`ν1`).
    pub nu1: Seconds,
    /// Fixed overhead of the linear segment, in seconds (`μ2`).
    pub mu2: Seconds,
    /// Coefficient of `x` in the linear segment, in seconds (`ν2`).
    pub nu2: Seconds,
    /// Cylinder distance at which the model switches from the square-root
    /// to the linear segment (400 for the Barracuda 9LP).
    pub breakpoint: u32,
    /// Maximum rotational delay `θ` (one full revolution), in seconds.
    pub max_rotational_delay: Seconds,
}

impl SeekModel {
    /// Validates the model parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when a coefficient is negative/non-finite,
    /// the breakpoint is zero, or the two segments are discontinuous at the
    /// breakpoint by more than 5% of the local seek time. (The paper *selects*
    /// `μ2`, `ν2` for continuity; a small tolerance admits its rounded
    /// published constants.)
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (name, v) in [
            ("mu1", self.mu1),
            ("nu1", self.nu1),
            ("mu2", self.mu2),
            ("nu2", self.nu2),
            ("max_rotational_delay", self.max_rotational_delay),
        ] {
            if !v.is_valid_duration() {
                return Err(ConfigError::new(
                    "seek_model",
                    format!("{name} must be a finite, non-negative duration"),
                ));
            }
        }
        if self.breakpoint == 0 {
            return Err(ConfigError::new(
                "seek_model",
                "breakpoint must be positive",
            ));
        }
        let x = f64::from(self.breakpoint);
        let left = self.mu1.as_secs_f64() + self.nu1.as_secs_f64() * x.sqrt();
        let right = self.mu2.as_secs_f64() + self.nu2.as_secs_f64() * x;
        let scale = left.abs().max(right.abs()).max(1e-9);
        if (left - right).abs() / scale > 0.05 {
            return Err(ConfigError::new(
                "seek_model",
                format!(
                    "segments discontinuous at breakpoint {x}: sqrt-side {left:.6}s vs linear-side {right:.6}s"
                ),
            ));
        }
        Ok(())
    }

    /// Seek time `γ(x)` over a distance of `x` cylinders.
    ///
    /// Accepts fractional distances because the paper evaluates
    /// `γ(Cyln / n)` for the Sweep and GSS methods.
    #[must_use]
    pub fn seek_time(&self, cylinders: f64) -> Seconds {
        if cylinders <= 0.0 {
            return Seconds::ZERO;
        }
        if cylinders < f64::from(self.breakpoint) {
            Seconds::from_secs(self.mu1.as_secs_f64() + self.nu1.as_secs_f64() * cylinders.sqrt())
        } else {
            Seconds::from_secs(self.mu2.as_secs_f64() + self.nu2.as_secs_f64() * cylinders)
        }
    }

    /// Worst-case disk latency for one service across `x` cylinders:
    /// `γ(x) + θ` (seek plus a full rotation).
    #[must_use]
    pub fn worst_latency(&self, cylinders: f64) -> Seconds {
        self.seek_time(cylinders) + self.max_rotational_delay
    }
}

/// How a simulator charges disk latency for each service.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum LatencyModel {
    /// Charge the worst-case latency the buffer-size formulas assume
    /// (maximum seek for the scheduling method, full rotation). This is
    /// what the paper's evaluation assumes and keeps the simulator
    /// consistent with the analysis.
    #[default]
    WorstCase,
    /// Charge `γ(actual head movement) + U(0, θ)` based on real head
    /// positions, for realism ablations. Buffers are still *sized* for the
    /// worst case, so services complete early and memory-sharing effects
    /// (the Sweep vs. Sweep* distinction) become visible.
    Sampled,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn barracuda_seek() -> SeekModel {
        // Table 3 of the paper.
        SeekModel {
            mu1: Seconds::from_millis(0.54),
            nu1: Seconds::from_millis(0.26),
            mu2: Seconds::from_millis(5.0),
            nu2: Seconds::from_millis(0.0014),
            breakpoint: 400,
            max_rotational_delay: Seconds::from_millis(8.33),
        }
    }

    #[test]
    fn validates_paper_constants() {
        barracuda_seek()
            .validate()
            .expect("Table 3 constants are consistent");
    }

    #[test]
    fn gamma_zero_is_zero() {
        assert_eq!(barracuda_seek().seek_time(0.0), Seconds::ZERO);
        assert_eq!(barracuda_seek().seek_time(-3.0), Seconds::ZERO);
    }

    #[test]
    fn gamma_is_nearly_continuous_at_breakpoint() {
        // The paper's published constants are rounded, leaving a ~0.18 ms
        // step at x = 400 (5.74 ms vs. 5.56 ms); `validate` tolerates up to
        // 5% for exactly this reason.
        let m = barracuda_seek();
        let just_below = m.seek_time(399.999_999);
        let at = m.seek_time(400.0);
        let gap = (just_below.as_secs_f64() - at.as_secs_f64()).abs();
        assert!(gap < 0.25e-3, "left {just_below}, right {at}");
    }

    #[test]
    fn gamma_is_monotone_within_each_segment() {
        let m = barracuda_seek();
        let mut prev = Seconds::ZERO;
        for x in 0..400 {
            let t = m.seek_time(f64::from(x));
            assert!(t >= prev, "sqrt segment not monotone at x={x}");
            prev = t;
        }
        let mut prev = m.seek_time(400.0);
        for x in 401..8000 {
            let t = m.seek_time(f64::from(x));
            assert!(t >= prev, "linear segment not monotone at x={x}");
            prev = t;
        }
    }

    #[test]
    fn gamma_uses_sqrt_segment_below_breakpoint() {
        let m = barracuda_seek();
        let t = m.seek_time(100.0);
        let expected = 0.54e-3 + 0.26e-3 * 10.0;
        assert!((t.as_secs_f64() - expected).abs() < 1e-12);
    }

    #[test]
    fn gamma_uses_linear_segment_at_and_above_breakpoint() {
        let m = barracuda_seek();
        let t = m.seek_time(7501.0);
        let expected = 5.0e-3 + 0.0014e-3 * 7501.0;
        assert!((t.as_secs_f64() - expected).abs() < 1e-12);
    }

    #[test]
    fn worst_latency_adds_full_rotation() {
        let m = barracuda_seek();
        let dl = m.worst_latency(7501.0);
        let expected = (5.0 + 0.0014 * 7501.0 + 8.33) * 1e-3;
        assert!((dl.as_secs_f64() - expected).abs() < 1e-12);
        // The paper's DL^RR for the Barracuda is roughly 23.8 ms.
        assert!((dl.as_millis() - 23.83).abs() < 0.1);
    }

    #[test]
    fn rejects_discontinuous_model() {
        let mut m = barracuda_seek();
        m.mu2 = Seconds::from_millis(50.0);
        assert!(m.validate().is_err());
    }

    #[test]
    fn rejects_negative_coefficients() {
        let mut m = barracuda_seek();
        m.nu1 = Seconds::from_secs(-1.0);
        assert!(m.validate().is_err());
        let mut m = barracuda_seek();
        m.breakpoint = 0;
        assert!(m.validate().is_err());
    }

    #[test]
    fn max_seek_matches_table3_read_seek() {
        // Table 3: max read seek 13.4 ms. γ(Cyln)+0 should be close for the
        // full stroke (γ(7501) ≈ 15.5ms includes settle overhead; the spec's
        // 13.4ms is the raw seek). We assert the model is in the right
        // regime rather than exactly equal.
        let m = barracuda_seek();
        let full = m.seek_time(7501.0).as_millis();
        assert!(full > 10.0 && full < 20.0, "full-stroke seek {full} ms");
    }
}
