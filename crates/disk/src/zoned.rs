//! Multi-zone recording (ZBR): real drives transfer faster on outer
//! cylinders.
//!
//! The paper sidesteps zoning by using the drive's **minimum** sustained
//! rate as `TR` (Table 3 lists "Min. Transfer Rate") — a conservative
//! bound under which every formula stays safe. [`ZonedProfile`] models
//! the zones explicitly so a server can (a) validate that the paper's
//! conservative choice really is the minimum, and (b) quantify the
//! headroom the conservative bound leaves on outer-zone reads.

use vod_types::{BitRate, ConfigError};

use crate::profile::DiskProfile;

/// One recording zone: a run of cylinders sharing a transfer rate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Zone {
    /// Number of cylinders in the zone.
    pub cylinders: u32,
    /// Sustained transfer rate within the zone.
    pub rate: BitRate,
}

/// A disk profile with explicit recording zones (outermost first).
#[derive(Clone, Debug, PartialEq)]
pub struct ZonedProfile {
    base: DiskProfile,
    zones: Vec<Zone>,
    /// Cumulative cylinder boundaries (exclusive end per zone).
    boundaries: Vec<u32>,
}

impl ZonedProfile {
    /// Builds a zoned profile over `base`. The zones must tile exactly
    /// `base.cylinders`, and the slowest zone must be at least
    /// `base.transfer_rate` — the conservative `TR` the buffer formulas
    /// use must be a true lower bound.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the zones are empty, do not tile the
    /// cylinder count, contain a non-positive rate, or undercut `TR`.
    pub fn new(base: DiskProfile, zones: Vec<Zone>) -> Result<Self, ConfigError> {
        base.validate()?;
        if zones.is_empty() {
            return Err(ConfigError::new("zones", "must not be empty"));
        }
        let mut total: u64 = 0;
        let mut boundaries = Vec::with_capacity(zones.len());
        for (i, z) in zones.iter().enumerate() {
            if z.cylinders == 0 {
                return Err(ConfigError::new(
                    "zones",
                    format!("zone {i} has no cylinders"),
                ));
            }
            if !z.rate.is_valid_rate() {
                return Err(ConfigError::new("zones", format!("zone {i} has no rate")));
            }
            if z.rate < base.transfer_rate {
                return Err(ConfigError::new(
                    "zones",
                    format!(
                        "zone {i} rate {} undercuts the conservative TR {}",
                        z.rate, base.transfer_rate
                    ),
                ));
            }
            total += u64::from(z.cylinders);
            boundaries.push(total as u32);
        }
        if total != u64::from(base.cylinders) {
            return Err(ConfigError::new(
                "zones",
                format!(
                    "zones cover {total} cylinders; the profile has {}",
                    base.cylinders
                ),
            ));
        }
        Ok(ZonedProfile {
            base,
            zones,
            boundaries,
        })
    }

    /// A plausible 3-zone Barracuda 9LP: the paper's 120 Mbps as the
    /// inner-zone floor, faster middle and outer zones.
    ///
    /// # Errors
    ///
    /// Never fails for the built-in constants; the `Result` mirrors
    /// [`ZonedProfile::new`].
    pub fn barracuda_9lp_3zone() -> Result<Self, ConfigError> {
        let base = DiskProfile::barracuda_9lp();
        let c = base.cylinders;
        let zones = vec![
            Zone {
                cylinders: c / 3,
                rate: BitRate::from_mbps(180.0),
            },
            Zone {
                cylinders: c / 3,
                rate: BitRate::from_mbps(150.0),
            },
            Zone {
                cylinders: c - 2 * (c / 3),
                rate: BitRate::from_mbps(120.0),
            },
        ];
        ZonedProfile::new(base, zones)
    }

    /// The conservative single-rate profile the paper's formulas consume.
    #[must_use]
    pub fn conservative(&self) -> &DiskProfile {
        &self.base
    }

    /// The zones, outermost first.
    #[must_use]
    pub fn zones(&self) -> &[Zone] {
        &self.zones
    }

    /// Transfer rate at a cylinder (clamps past the last zone).
    #[must_use]
    pub fn rate_at(&self, cylinder: u32) -> BitRate {
        let idx = self.boundaries.partition_point(|&b| b <= cylinder);
        self.zones[idx.min(self.zones.len() - 1)].rate
    }

    /// The true minimum rate across zones (≥ the conservative `TR`).
    #[must_use]
    pub fn min_rate(&self) -> BitRate {
        self.zones
            .iter()
            .map(|z| z.rate)
            .min()
            .expect("constructor requires at least one zone")
    }

    /// Cylinder-weighted mean rate — the headroom the conservative bound
    /// leaves on average.
    #[must_use]
    pub fn mean_rate(&self) -> BitRate {
        let total: f64 = self.zones.iter().map(|z| f64::from(z.cylinders)).sum();
        let weighted: f64 = self
            .zones
            .iter()
            .map(|z| z.rate.as_f64() * f64::from(z.cylinders))
            .sum();
        BitRate::new(weighted / total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_zone_barracuda_is_valid() {
        let z = ZonedProfile::barracuda_9lp_3zone().expect("built-in constants");
        assert_eq!(z.zones().len(), 3);
        assert_eq!(z.min_rate(), BitRate::from_mbps(120.0));
        assert!(z.mean_rate() > z.min_rate());
        assert!(z.mean_rate() < BitRate::from_mbps(180.0));
    }

    #[test]
    fn rate_lookup_respects_boundaries() {
        let z = ZonedProfile::barracuda_9lp_3zone().expect("valid");
        let third = z.conservative().cylinders / 3;
        assert_eq!(z.rate_at(0), BitRate::from_mbps(180.0));
        assert_eq!(z.rate_at(third - 1), BitRate::from_mbps(180.0));
        assert_eq!(z.rate_at(third), BitRate::from_mbps(150.0));
        assert_eq!(z.rate_at(2 * third), BitRate::from_mbps(120.0));
        // Past the end clamps into the last zone.
        assert_eq!(z.rate_at(u32::MAX), BitRate::from_mbps(120.0));
    }

    #[test]
    fn rejects_zones_that_undercut_tr() {
        let base = DiskProfile::barracuda_9lp();
        let c = base.cylinders;
        let res = ZonedProfile::new(
            base,
            vec![Zone {
                cylinders: c,
                rate: BitRate::from_mbps(100.0), // below TR = 120
            }],
        );
        assert!(res.is_err());
    }

    #[test]
    fn rejects_bad_tilings() {
        let base = DiskProfile::barracuda_9lp();
        assert!(ZonedProfile::new(base.clone(), vec![]).is_err());
        assert!(ZonedProfile::new(
            base.clone(),
            vec![Zone {
                cylinders: 10,
                rate: BitRate::from_mbps(130.0)
            }]
        )
        .is_err());
        assert!(ZonedProfile::new(
            base.clone(),
            vec![
                Zone {
                    cylinders: base.cylinders,
                    rate: BitRate::ZERO
                };
                1
            ]
        )
        .is_err());
    }

    #[test]
    fn single_zone_degenerates_to_flat() {
        let base = DiskProfile::barracuda_9lp();
        let z = ZonedProfile::new(
            base.clone(),
            vec![Zone {
                cylinders: base.cylinders,
                rate: base.transfer_rate,
            }],
        )
        .expect("valid");
        assert_eq!(z.min_rate(), base.transfer_rate);
        assert_eq!(z.mean_rate(), base.transfer_rate);
        assert_eq!(z.rate_at(1234), base.transfer_rate);
    }
}
