//! The [`SchedulingMethod`] enum and its per-method disk latency.

use core::fmt;

use vod_disk::DiskProfile;
use vod_types::{ConfigError, Seconds};

/// When a scheduling method first services a newly admitted request.
///
/// This is the behavioural difference that drives the initial-latency
/// formulas of §2.2 and the simulator's service ordering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionTiming {
    /// BubbleUp: right after the service currently in execution completes.
    AfterCurrentService,
    /// Sweep\*: at the next service-period boundary (servicing it
    /// mid-period could break seek-order optimality).
    NextPeriod,
    /// GSS\*: with the next group to be serviced.
    NextGroup,
}

/// A buffer scheduling method, as evaluated in the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedulingMethod {
    /// Round-Robin in allocation order, serviced with BubbleUp.
    RoundRobin,
    /// Sweep\*: seek-order service within each period.
    Sweep,
    /// GSS\*: groups of at most `group_size` buffers; Sweep within a
    /// group, Round-Robin (BubbleUp) across groups.
    Gss {
        /// Maximum buffers per group (`g`). The paper uses 8, the value
        /// minimizing memory requirements for the Barracuda 9LP (§5.1).
        group_size: usize,
    },
}

impl SchedulingMethod {
    /// The paper's GSS\* configuration (`g` = 8).
    pub const GSS_PAPER: SchedulingMethod = SchedulingMethod::Gss { group_size: 8 };

    /// All three methods with the paper's parameters, in the order the
    /// paper's figures present them.
    #[must_use]
    pub fn paper_methods() -> [SchedulingMethod; 3] {
        [
            SchedulingMethod::RoundRobin,
            SchedulingMethod::Sweep,
            SchedulingMethod::GSS_PAPER,
        ]
    }

    /// Validates method parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when a GSS group size is zero.
    pub fn validate(&self) -> Result<(), ConfigError> {
        match self {
            SchedulingMethod::Gss { group_size: 0 } => {
                Err(ConfigError::new("group_size", "must be at least 1"))
            }
            _ => Ok(()),
        }
    }

    /// Worst-case disk latency `DL` for servicing **one buffer** when `n`
    /// streams are in service (§2.2):
    ///
    /// * Round-Robin: `γ(Cyln) + θ` — the head may cross the whole disk.
    /// * Sweep\*: `γ(Cyln/n) + θ` — the worst total seek across a period
    ///   occurs with equally spaced data, `n·γ(Cyln/n)`; per buffer that is
    ///   `γ(Cyln/n)`.
    /// * GSS\*: `γ(Cyln/g) + θ` with `g` buffers swept per group.
    ///
    /// `n = 0` is treated as `n = 1` (the latency of servicing the first
    /// buffer of an empty server).
    #[must_use]
    pub fn worst_disk_latency(&self, profile: &DiskProfile, n: usize) -> Seconds {
        let cyln = f64::from(profile.cylinders);
        let span = match self {
            SchedulingMethod::RoundRobin => cyln,
            SchedulingMethod::Sweep => cyln / (n.max(1) as f64),
            SchedulingMethod::Gss { group_size } => {
                // A group never holds more buffers than there are streams.
                let g = (*group_size).clamp(1, n.max(1));
                cyln / (g as f64)
            }
        };
        profile.seek.worst_latency(span)
    }

    /// When this method first services a newly admitted request.
    #[must_use]
    pub fn admission_timing(&self) -> AdmissionTiming {
        match self {
            SchedulingMethod::RoundRobin => AdmissionTiming::AfterCurrentService,
            SchedulingMethod::Sweep => AdmissionTiming::NextPeriod,
            SchedulingMethod::Gss { .. } => AdmissionTiming::NextGroup,
        }
    }

    /// Effective group size for `n` streams: `n` for Sweep\*, 1 for
    /// Round-Robin, `min(g, n)` for GSS\* — the paper's observation that
    /// GSS degenerates to Sweep at `g = n` and Round-Robin at `g = 1`.
    #[must_use]
    pub fn effective_group_size(&self, n: usize) -> usize {
        match self {
            SchedulingMethod::RoundRobin => 1,
            SchedulingMethod::Sweep => n.max(1),
            SchedulingMethod::Gss { group_size } => (*group_size).clamp(1, n.max(1)),
        }
    }

    /// Short label used in tables and CSV headers.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            SchedulingMethod::RoundRobin => "Round-Robin",
            SchedulingMethod::Sweep => "Sweep*",
            SchedulingMethod::Gss { .. } => "GSS*",
        }
    }
}

impl fmt::Display for SchedulingMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedulingMethod::Gss { group_size } => write!(f, "GSS*(g={group_size})"),
            other => f.write_str(other.label()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> DiskProfile {
        DiskProfile::barracuda_9lp()
    }

    #[test]
    fn round_robin_latency_is_full_stroke() {
        let dl = SchedulingMethod::RoundRobin.worst_disk_latency(&disk(), 40);
        let expected = disk().seek.worst_latency(7501.0);
        assert_eq!(dl, expected);
        // ≈ 23.8 ms for the Barracuda 9LP.
        assert!((dl.as_millis() - 23.83).abs() < 0.1);
    }

    #[test]
    fn round_robin_latency_is_independent_of_n() {
        let m = SchedulingMethod::RoundRobin;
        assert_eq!(
            m.worst_disk_latency(&disk(), 1),
            m.worst_disk_latency(&disk(), 79)
        );
    }

    #[test]
    fn sweep_latency_shrinks_with_n() {
        let m = SchedulingMethod::Sweep;
        let dl1 = m.worst_disk_latency(&disk(), 1);
        let dl10 = m.worst_disk_latency(&disk(), 10);
        let dl79 = m.worst_disk_latency(&disk(), 79);
        assert!(dl1 > dl10);
        assert!(dl10 > dl79);
        // n = 1 Sweep equals Round-Robin's full stroke.
        assert_eq!(
            dl1,
            SchedulingMethod::RoundRobin.worst_disk_latency(&disk(), 1)
        );
    }

    #[test]
    fn sweep_latency_matches_formula() {
        let dl = SchedulingMethod::Sweep.worst_disk_latency(&disk(), 10);
        let expected = disk().seek.worst_latency(7501.0 / 10.0);
        assert_eq!(dl, expected);
    }

    #[test]
    fn gss_latency_uses_group_size() {
        let m = SchedulingMethod::GSS_PAPER;
        let dl = m.worst_disk_latency(&disk(), 40);
        let expected = disk().seek.worst_latency(7501.0 / 8.0);
        assert_eq!(dl, expected);
    }

    #[test]
    fn gss_group_clamps_to_stream_count() {
        let m = SchedulingMethod::GSS_PAPER;
        // With only 3 streams the group has 3 buffers, not 8.
        let dl = m.worst_disk_latency(&disk(), 3);
        let expected = disk().seek.worst_latency(7501.0 / 3.0);
        assert_eq!(dl, expected);
        assert_eq!(m.effective_group_size(3), 3);
        assert_eq!(m.effective_group_size(40), 8);
    }

    #[test]
    fn gss_degenerates_to_sweep_and_round_robin() {
        let n = 16;
        let sweep_like = SchedulingMethod::Gss { group_size: n };
        assert_eq!(
            sweep_like.worst_disk_latency(&disk(), n),
            SchedulingMethod::Sweep.worst_disk_latency(&disk(), n)
        );
        let rr_like = SchedulingMethod::Gss { group_size: 1 };
        assert_eq!(
            rr_like.effective_group_size(n),
            SchedulingMethod::RoundRobin.effective_group_size(n)
        );
    }

    #[test]
    fn n_zero_is_treated_as_one() {
        for m in SchedulingMethod::paper_methods() {
            assert_eq!(
                m.worst_disk_latency(&disk(), 0),
                m.worst_disk_latency(&disk(), 1)
            );
        }
    }

    #[test]
    fn validation() {
        assert!(SchedulingMethod::Gss { group_size: 0 }.validate().is_err());
        for m in SchedulingMethod::paper_methods() {
            assert!(m.validate().is_ok());
        }
    }

    #[test]
    fn labels_and_display() {
        assert_eq!(SchedulingMethod::RoundRobin.label(), "Round-Robin");
        assert_eq!(SchedulingMethod::Sweep.to_string(), "Sweep*");
        assert_eq!(SchedulingMethod::GSS_PAPER.to_string(), "GSS*(g=8)");
    }

    #[test]
    fn admission_timings_differ_per_method() {
        assert_eq!(
            SchedulingMethod::RoundRobin.admission_timing(),
            AdmissionTiming::AfterCurrentService
        );
        assert_eq!(
            SchedulingMethod::Sweep.admission_timing(),
            AdmissionTiming::NextPeriod
        );
        assert_eq!(
            SchedulingMethod::GSS_PAPER.admission_timing(),
            AdmissionTiming::NextGroup
        );
    }
}
