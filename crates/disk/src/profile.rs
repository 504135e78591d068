//! Named disk parameter sets and quantities derived from them.

use vod_types::{BitRate, Bits, ConfigError, Seconds};

use crate::seek::SeekModel;

/// A disk's performance profile: everything the paper's formulas need.
///
/// [`DiskProfile::barracuda_9lp`] reproduces Table 3 of the paper (the
/// Seagate Barracuda 9LP used throughout its evaluation).
#[derive(Clone, Debug, PartialEq)]
pub struct DiskProfile {
    /// Human-readable model name.
    pub name: String,
    /// Formatted capacity of the drive.
    pub capacity: Bits,
    /// Minimum sustained transfer rate `TR`.
    pub transfer_rate: BitRate,
    /// Spindle speed, revolutions per minute.
    pub rpm: u32,
    /// Number of cylinders (`Cyln`). The paper's Table 3 omits this value;
    /// we default to the published 9LP figure (7 501) — see DESIGN.md §3.
    pub cylinders: u32,
    /// The seek-time curve and rotational delay.
    pub seek: SeekModel,
}

impl DiskProfile {
    /// The Seagate Barracuda 9LP profile of Table 3.
    ///
    /// ```
    /// use vod_disk::DiskProfile;
    /// use vod_types::BitRate;
    ///
    /// let disk = DiskProfile::barracuda_9lp();
    /// // The paper's Table 3 derives N = 79 for CR = 1.5 Mbps MPEG-1 streams.
    /// assert_eq!(disk.max_concurrent_requests(BitRate::from_mbps(1.5)), 79);
    /// ```
    #[must_use]
    pub fn barracuda_9lp() -> Self {
        DiskProfile {
            name: "Seagate Barracuda 9LP".to_owned(),
            capacity: Bits::from_gigabytes(9.19),
            transfer_rate: BitRate::from_mbps(120.0),
            rpm: 7200,
            cylinders: 7501,
            seek: SeekModel {
                mu1: Seconds::from_millis(0.54),
                nu1: Seconds::from_millis(0.26),
                mu2: Seconds::from_millis(5.0),
                nu2: Seconds::from_millis(0.0014),
                breakpoint: 400,
                max_rotational_delay: Seconds::from_millis(8.33),
            },
        }
    }

    /// Validates the profile.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for non-positive rates/capacity/cylinder
    /// counts, an invalid seek model, or a rotational delay inconsistent
    /// with the spindle speed by more than 10%.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.transfer_rate.is_valid_rate() {
            return Err(ConfigError::new("transfer_rate", "must be positive"));
        }
        if !self.capacity.is_valid_size() || self.capacity.is_zero() {
            return Err(ConfigError::new("capacity", "must be positive"));
        }
        if self.cylinders == 0 {
            return Err(ConfigError::new("cylinders", "must be positive"));
        }
        if self.rpm == 0 {
            return Err(ConfigError::new("rpm", "must be positive"));
        }
        self.seek.validate()?;
        let revolution = 60.0 / f64::from(self.rpm);
        let theta = self.seek.max_rotational_delay.as_secs_f64();
        if (theta - revolution).abs() / revolution > 0.10 {
            return Err(ConfigError::new(
                "max_rotational_delay",
                format!(
                    "θ = {theta:.5}s does not match one revolution at {} rpm ({revolution:.5}s)",
                    self.rpm
                ),
            ));
        }
        Ok(())
    }

    /// The maximum number `N` of concurrent streams the disk supports at
    /// consumption rate `CR`: the largest integer with `N < TR / CR`
    /// (Eq. 1 — strict, because disk latency makes `TR = N·CR` infeasible).
    #[must_use]
    pub fn max_concurrent_requests(&self, consumption_rate: BitRate) -> usize {
        if !consumption_rate.is_valid_rate() {
            return 0;
        }
        let ratio = self.transfer_rate / consumption_rate;
        if !ratio.is_finite() || ratio <= 1.0 {
            return 0;
        }
        // Largest integer strictly below `ratio`.
        let floor = ratio.floor();
        #[allow(clippy::float_cmp)] // exact comparison is the point: N < TR/CR is strict
        let n = if floor == ratio { floor - 1.0 } else { floor };
        n.max(0.0) as usize
    }

    /// How many 120-minute videos at rate `cr` fit on the drive.
    #[must_use]
    pub fn videos_fitting(&self, cr: BitRate, video_length: Seconds) -> usize {
        let video_size = cr * video_length;
        if video_size.is_zero() {
            return 0;
        }
        (self.capacity / video_size).floor() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barracuda_profile_is_valid() {
        DiskProfile::barracuda_9lp()
            .validate()
            .expect("Table 3 profile");
    }

    #[test]
    fn n_is_79_for_mpeg1() {
        // TR/CR = 120/1.5 = 80 exactly; N must be *strictly* less, so 79.
        let disk = DiskProfile::barracuda_9lp();
        assert_eq!(disk.max_concurrent_requests(BitRate::from_mbps(1.5)), 79);
    }

    #[test]
    fn n_handles_non_integral_ratio() {
        let disk = DiskProfile::barracuda_9lp();
        // 120 / 1.6 = 75 exactly -> 74; 120 / 1.7 ≈ 70.6 -> 70.
        assert_eq!(disk.max_concurrent_requests(BitRate::from_mbps(1.6)), 74);
        assert_eq!(disk.max_concurrent_requests(BitRate::from_mbps(1.7)), 70);
    }

    #[test]
    fn n_degenerate_cases() {
        let disk = DiskProfile::barracuda_9lp();
        assert_eq!(disk.max_concurrent_requests(BitRate::ZERO), 0);
        assert_eq!(disk.max_concurrent_requests(BitRate::from_mbps(120.0)), 0);
        assert_eq!(disk.max_concurrent_requests(BitRate::from_mbps(200.0)), 0);
        assert_eq!(disk.max_concurrent_requests(BitRate::from_mbps(61.0)), 1);
    }

    #[test]
    fn rotation_matches_rpm() {
        let disk = DiskProfile::barracuda_9lp();
        // 7200 rpm -> 8.333... ms per revolution; Table 3 rounds to 8.33 ms.
        let revolution = Seconds::from_secs(60.0 / f64::from(disk.rpm));
        assert!((revolution.as_millis() - 8.333).abs() < 0.01);
        assert!((disk.seek.max_rotational_delay.as_millis() - 8.33).abs() < 0.01);
    }

    #[test]
    fn validation_rejects_inconsistent_theta() {
        let mut disk = DiskProfile::barracuda_9lp();
        disk.seek.max_rotational_delay = Seconds::from_millis(20.0);
        assert!(disk.validate().is_err());
    }

    #[test]
    fn validation_rejects_zero_fields() {
        let mut disk = DiskProfile::barracuda_9lp();
        disk.cylinders = 0;
        assert!(disk.validate().is_err());

        let mut disk = DiskProfile::barracuda_9lp();
        disk.transfer_rate = BitRate::ZERO;
        assert!(disk.validate().is_err());

        let mut disk = DiskProfile::barracuda_9lp();
        disk.capacity = Bits::ZERO;
        assert!(disk.validate().is_err());
    }

    #[test]
    fn catalog_capacity_is_plausible() {
        let disk = DiskProfile::barracuda_9lp();
        // A 120-min MPEG-1 video is ~1.32 GB; the 9.19 GB drive holds ~6.
        let n = disk.videos_fitting(BitRate::from_mbps(1.5), Seconds::from_minutes(120.0));
        assert_eq!(n, 6);
    }
}
