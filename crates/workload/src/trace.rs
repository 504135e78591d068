//! Reproducible workload traces.
//!
//! A [`Workload`] is the full, materialized input of one simulation run:
//! every request's arrival time, target disk/video, and viewing time.
//! Generating it up front (from a [`WorkloadConfig`] and a seed) lets the
//! paper's comparisons replay the *identical* request sequence against
//! each buffer allocation scheme and scheduling method.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vod_types::{ConfigError, DiskId, Instant, Seconds, VideoId};

use crate::catalog::Catalog;
use crate::poisson;
use crate::profile::RateProfile;

/// One user request in a trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arrival {
    /// Arrival time.
    pub at: Instant,
    /// The disk holding the requested video.
    pub disk: DiskId,
    /// The requested video.
    pub video: VideoId,
    /// How long the user watches before departing (uniform on
    /// `(0, 120 min)` in the paper's model — VCR actions are modelled as
    /// departure + new request).
    pub viewing: Seconds,
}

/// A complete, time-sorted workload.
#[derive(Clone, Debug, Default)]
pub struct Workload {
    /// Arrivals in nondecreasing time order.
    pub arrivals: Vec<Arrival>,
}

impl Workload {
    /// Number of requests.
    #[must_use]
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// True when the trace has no requests.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Arrivals targeting one disk, preserving order.
    #[must_use]
    pub fn for_disk(&self, disk: DiskId) -> Vec<Arrival> {
        self.arrivals
            .iter()
            .copied()
            .filter(|a| a.disk == disk)
            .collect()
    }
}

/// Configuration of the paper's workload model (§5.1).
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Simulated horizon (the paper's figures span a 24-hour day).
    pub duration: Seconds,
    /// Rate-change granularity (30 minutes in the paper).
    pub slot_len: Seconds,
    /// Zipf parameter of the arrival-rate profile (0, 0.5, 1 in §5).
    pub theta: f64,
    /// Peak time of the profile (hour 9 in the paper).
    pub peak: Seconds,
    /// Total expected arrivals over the horizon. The paper does not state
    /// its absolute λ; see `EXPERIMENTS.md` for our calibration.
    pub expected_arrivals: f64,
    /// Upper bound of the uniform viewing-time distribution (120 min).
    pub max_viewing: Seconds,
    /// Number of disks, with Zipf(`disk_theta`) load across them.
    pub disks: usize,
    /// Zipf parameter of the disk-load distribution.
    pub disk_theta: f64,
}

impl WorkloadConfig {
    /// The paper's single-disk environment with profile skew `theta`.
    #[must_use]
    pub fn paper_single_disk(theta: f64, expected_arrivals: f64) -> Self {
        WorkloadConfig {
            duration: Seconds::from_hours(24.0),
            slot_len: Seconds::from_minutes(30.0),
            theta,
            peak: Seconds::from_hours(9.0),
            expected_arrivals,
            max_viewing: Seconds::from_minutes(120.0),
            disks: 1,
            disk_theta: 1.0,
        }
    }

    /// The paper's 10-disk capacity environment with disk-load skew
    /// `disk_theta` and a uniform-in-time arrival profile.
    #[must_use]
    pub fn paper_ten_disk(disk_theta: f64, expected_arrivals: f64) -> Self {
        WorkloadConfig {
            duration: Seconds::from_hours(24.0),
            slot_len: Seconds::from_minutes(30.0),
            theta: 1.0,
            peak: Seconds::from_hours(9.0),
            expected_arrivals,
            max_viewing: Seconds::from_minutes(120.0),
            disks: 10,
            disk_theta,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when any constituent model rejects its
    /// parameters.
    pub fn validate(&self) -> Result<(), ConfigError> {
        RateProfile::zipf_peaked(
            self.duration,
            self.slot_len,
            self.peak,
            self.theta,
            self.expected_arrivals,
        )?;
        Catalog::paper_catalog(self.disks, self.disk_theta)?;
        if !self.max_viewing.is_valid_duration() || self.max_viewing <= Seconds::ZERO {
            return Err(ConfigError::new("max_viewing", "must be positive"));
        }
        Ok(())
    }
}

/// Generates a reproducible workload from a config and a seed.
///
/// # Errors
///
/// Returns [`ConfigError`] when the configuration is invalid.
pub fn generate(config: &WorkloadConfig, seed: u64) -> Result<Workload, ConfigError> {
    config.validate()?;
    let profile = RateProfile::zipf_peaked(
        config.duration,
        config.slot_len,
        config.peak,
        config.theta,
        config.expected_arrivals,
    )?;
    let catalog = Catalog::paper_catalog(config.disks, config.disk_theta)?;
    let mut rng = StdRng::seed_from_u64(seed);

    let times = poisson::piecewise(
        &mut rng,
        profile.slot_rates(),
        profile.slot_len(),
        Instant::ZERO,
    );
    let mut arrivals = Vec::with_capacity(times.len());
    for at in times {
        let video = catalog.sample(&mut rng);
        let viewing = Seconds::from_secs(rng.gen::<f64>() * config.max_viewing.as_secs_f64());
        arrivals.push(Arrival {
            at,
            disk: video.disk,
            video: video.id,
            viewing,
        });
    }
    Ok(Workload { arrivals })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(theta: f64) -> WorkloadConfig {
        WorkloadConfig::paper_single_disk(theta, 1440.0)
    }

    #[test]
    fn generates_roughly_expected_count() {
        let w = generate(&config(1.0), 1).expect("valid");
        let n = w.len() as f64;
        assert!((n - 1440.0).abs() < 4.0 * 1440.0_f64.sqrt(), "count {n}");
    }

    #[test]
    fn same_seed_is_deterministic() {
        let a = generate(&config(0.5), 77).expect("valid");
        let b = generate(&config(0.5), 77).expect("valid");
        assert_eq!(a.arrivals, b.arrivals);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&config(0.5), 1).expect("valid");
        let b = generate(&config(0.5), 2).expect("valid");
        assert_ne!(a.arrivals, b.arrivals);
    }

    #[test]
    fn arrivals_are_sorted_and_within_horizon() {
        let w = generate(&config(0.0), 5).expect("valid");
        for pair in w.arrivals.windows(2) {
            assert!(pair[0].at <= pair[1].at);
        }
        for a in &w.arrivals {
            assert!(a.at.as_secs_f64() < 24.0 * 3600.0);
            assert!(a.viewing > Seconds::ZERO);
            assert!(a.viewing <= Seconds::from_minutes(120.0));
        }
    }

    #[test]
    fn skewed_profile_peaks_near_hour_nine() {
        let w = generate(&config(0.0), 9).expect("valid");
        let count_in = |from_h: f64, to_h: f64| {
            w.arrivals
                .iter()
                .filter(|a| {
                    let h = a.at.as_secs_f64() / 3600.0;
                    h >= from_h && h < to_h
                })
                .count()
        };
        let near_peak = count_in(7.0, 11.0);
        let off_peak = count_in(18.0, 22.0);
        assert!(
            near_peak > 3 * off_peak.max(1),
            "near {near_peak}, off {off_peak}"
        );
    }

    #[test]
    fn offered_load_rises_toward_the_peak() {
        let w = generate(&config(0.0), 3).expect("valid");
        // Requests concurrently viewing at hour `h` if none were rejected.
        let at = |h: f64| {
            let t = Instant::from_secs(h * 3600.0);
            w.arrivals
                .iter()
                .filter(|a| a.at <= t && a.at + a.viewing > t)
                .count()
        };
        assert!(at(9.5) > at(2.0), "peak {} vs early {}", at(9.5), at(2.0));
    }

    #[test]
    fn ten_disk_traces_cover_disks_with_skew() {
        let cfg = WorkloadConfig::paper_ten_disk(0.0, 4000.0);
        let w = generate(&cfg, 12).expect("valid");
        let d0 = w.for_disk(DiskId::new(0)).len();
        let d9 = w.for_disk(DiskId::new(9)).len();
        assert!(d0 > d9, "hot disk {d0} <= cold disk {d9}");
        let total: usize = (0..10).map(|d| w.for_disk(DiskId::new(d)).len()).sum();
        assert_eq!(total, w.len());
    }

    #[test]
    fn single_disk_traces_target_disk_zero() {
        let w = generate(&config(1.0), 2).expect("valid");
        assert!(w.arrivals.iter().all(|a| a.disk == DiskId::new(0)));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = config(0.5);
        c.max_viewing = Seconds::ZERO;
        assert!(generate(&c, 1).is_err());
        let mut c = config(0.5);
        c.theta = 2.0;
        assert!(generate(&c, 1).is_err());
        let mut c = config(0.5);
        c.disks = 0;
        assert!(generate(&c, 1).is_err());
    }
}
