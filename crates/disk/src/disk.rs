//! A simulated disk drive: head position, reads, and service accounting.

use vod_types::{Bits, ConfigError, Seconds, VideoId, VodError};

use crate::layout::{Extent, VideoLayout};
use crate::profile::DiskProfile;

/// Latency breakdown of one buffer service.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReadOutcome {
    /// Seek time `γ(distance)`.
    pub seek: Seconds,
    /// Rotational delay (up to one revolution `θ`).
    pub rotation: Seconds,
    /// Transfer time `amount / TR`.
    pub transfer: Seconds,
}

impl ReadOutcome {
    /// Total service time: seek + rotation + transfer.
    #[must_use]
    pub fn total(&self) -> Seconds {
        self.seek + self.rotation + self.transfer
    }

    /// Disk latency as the paper defines it: seek + rotational delay
    /// (everything except the transfer).
    #[must_use]
    pub fn latency(&self) -> Seconds {
        self.seek + self.rotation
    }
}

/// Aggregate usage statistics of one drive.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DiskStats {
    /// Number of buffer services performed.
    pub services: u64,
    /// Total bits transferred.
    pub transferred: Bits,
    /// Total time the drive spent seeking/rotating/transferring.
    pub busy: Seconds,
}

/// A simulated drive.
///
/// The drive owns its [`VideoLayout`] and tracks the head cylinder so that
/// a simulator running in sampled-latency mode can charge the *actual* seek
/// distance between consecutive services. Worst-case mode bypasses the head
/// model via [`Disk::read_worst_case`], matching the paper's analysis.
#[derive(Clone, Debug)]
pub struct Disk {
    profile: DiskProfile,
    layout: VideoLayout,
    head_cylinder: u32,
    stats: DiskStats,
}

impl Disk {
    /// Creates an empty drive from a profile.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for an invalid profile.
    pub fn new(profile: DiskProfile) -> Result<Self, ConfigError> {
        profile.validate()?;
        let layout = VideoLayout::new(&profile)?;
        Ok(Disk {
            profile,
            layout,
            head_cylinder: 0,
            stats: DiskStats::default(),
        })
    }

    /// Stores a video on the drive.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the video does not fit (see
    /// [`VideoLayout::place`]).
    pub fn place_video(&mut self, video: VideoId, size: Bits) -> Result<Extent, ConfigError> {
        self.layout.place(video, size)
    }

    /// Services one buffer with sampled latency: seeks from the current
    /// head position to the play point of `video` at `offset`, waits
    /// `rotation_fraction` of a full revolution (the caller samples this in
    /// `[0, 1]` — keeping randomness out of the substrate), and transfers
    /// `amount` bits.
    ///
    /// # Errors
    ///
    /// Returns [`VodError::UnknownRequest`]-free errors only:
    /// [`VodError::Config`] when the video is not on this drive or the
    /// rotation fraction is out of range.
    pub fn read(
        &mut self,
        video: VideoId,
        offset: Bits,
        amount: Bits,
        rotation_fraction: f64,
    ) -> Result<ReadOutcome, VodError> {
        if !(0.0..=1.0).contains(&rotation_fraction) {
            return Err(ConfigError::new(
                "rotation_fraction",
                format!("{rotation_fraction} outside [0, 1]"),
            )
            .into());
        }
        let target = self
            .layout
            .cylinder_at(video, offset)
            .ok_or_else(|| ConfigError::new("video", format!("{video} not on this disk")))?;
        let distance = f64::from(self.head_cylinder.abs_diff(target));
        let seek = self.profile.seek.seek_time(distance);
        let rotation = self.profile.seek.max_rotational_delay * rotation_fraction;
        let transfer = amount / self.profile.transfer_rate;
        self.head_cylinder = target;
        let outcome = ReadOutcome {
            seek,
            rotation,
            transfer,
        };
        self.account(amount, outcome);
        Ok(outcome)
    }

    /// Services one buffer charging a caller-supplied worst-case disk
    /// latency (the per-scheduling-method `DL` of §2.2) plus the transfer
    /// time for `amount` bits. The head position is not consulted: the
    /// worst case is position-independent by construction.
    pub fn read_worst_case(&mut self, amount: Bits, worst_latency: Seconds) -> ReadOutcome {
        let transfer = amount / self.profile.transfer_rate;
        // Attribute the whole worst-case latency to "seek" and none to
        // rotation; the split is not observable downstream.
        let outcome = ReadOutcome {
            seek: worst_latency,
            rotation: Seconds::ZERO,
            transfer,
        };
        self.account(amount, outcome);
        outcome
    }

    fn account(&mut self, amount: Bits, outcome: ReadOutcome) {
        self.stats.services += 1;
        self.stats.transferred += amount;
        self.stats.busy += outcome.total();
    }

    /// The drive's profile.
    #[must_use]
    pub fn profile(&self) -> &DiskProfile {
        &self.profile
    }

    /// The video layout.
    #[must_use]
    pub fn layout(&self) -> &VideoLayout {
        &self.layout
    }

    /// Current head cylinder.
    #[must_use]
    pub fn head_cylinder(&self) -> u32 {
        self.head_cylinder
    }

    /// Usage statistics so far.
    #[must_use]
    pub fn stats(&self) -> DiskStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_types::BitRate;

    fn disk_with_video() -> (Disk, VideoId, Bits) {
        let mut d = Disk::new(DiskProfile::barracuda_9lp()).expect("valid profile");
        let v = VideoId::new(0);
        let size = Bits::new(1.5e6 * 7200.0);
        d.place_video(v, size).expect("fits");
        (d, v, size)
    }

    #[test]
    fn sampled_read_moves_head_and_accounts() {
        let (mut d, v, size) = disk_with_video();
        let amount = Bits::from_megabits(8.0);
        let out = d.read(v, size / 2.0, amount, 0.5).expect("video present");
        assert!(out.seek > Seconds::ZERO, "head moved from cylinder 0");
        assert!(out.rotation > Seconds::ZERO);
        assert!((out.transfer.as_secs_f64() - 8.0e6 / 120.0e6).abs() < 1e-12);
        assert!(d.head_cylinder() > 0);
        assert_eq!(d.stats().services, 1);
        assert_eq!(d.stats().transferred, amount);
        assert!((d.stats().busy.as_secs_f64() - out.total().as_secs_f64()).abs() < 1e-15);
    }

    #[test]
    fn repeated_read_at_same_position_has_no_seek() {
        let (mut d, v, _) = disk_with_video();
        let amount = Bits::from_megabits(1.0);
        d.read(v, Bits::ZERO, amount, 0.0).expect("first read");
        let out = d.read(v, Bits::ZERO, amount, 0.0).expect("second read");
        assert_eq!(out.seek, Seconds::ZERO);
        assert_eq!(out.rotation, Seconds::ZERO);
    }

    #[test]
    fn worst_case_read_charges_supplied_latency() {
        let (mut d, _, _) = disk_with_video();
        let dl = Seconds::from_millis(23.8);
        let amount = Bits::from_megabits(12.0);
        let out = d.read_worst_case(amount, dl);
        assert_eq!(out.latency(), dl);
        assert!((out.transfer.as_secs_f64() - 0.1).abs() < 1e-12);
        assert_eq!(d.stats().services, 1);
    }

    #[test]
    fn read_of_missing_video_fails() {
        let (mut d, _, _) = disk_with_video();
        let err = d.read(VideoId::new(42), Bits::ZERO, Bits::new(1.0), 0.0);
        assert!(err.is_err());
    }

    #[test]
    fn rotation_fraction_is_validated() {
        let (mut d, v, _) = disk_with_video();
        assert!(d.read(v, Bits::ZERO, Bits::new(1.0), 1.5).is_err());
        assert!(d.read(v, Bits::ZERO, Bits::new(1.0), -0.1).is_err());
    }

    #[test]
    fn latency_and_total_are_consistent() {
        let out = ReadOutcome {
            seek: Seconds::from_millis(10.0),
            rotation: Seconds::from_millis(4.0),
            transfer: Seconds::from_millis(100.0),
        };
        assert!((out.latency().as_millis() - 14.0).abs() < 1e-12);
        assert!((out.total().as_millis() - 114.0).abs() < 1e-12);
    }

    #[test]
    fn profile_constants_flow_through() {
        let (d, _, _) = disk_with_video();
        assert_eq!(
            d.profile().max_concurrent_requests(BitRate::from_mbps(1.5)),
            79
        );
        assert_eq!(d.layout().len(), 1);
    }
}
