//! The video catalog and its placement across disks.

use rand::Rng;
use vod_types::{BitRate, Bits, ConfigError, DiskId, Seconds, VideoId};

use crate::zipf::Zipf;

/// One stored video.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VideoInfo {
    /// The video's identifier (unique across the catalog).
    pub id: VideoId,
    /// The disk holding it.
    pub disk: DiskId,
    /// Stored size.
    pub size: Bits,
    /// Playback length at the system consumption rate.
    pub length: Seconds,
}

/// A catalog of equal-length videos spread over a disk array, with a
/// Zipf(θ) distribution of *disk load*: the probability that a request
/// targets disk `d` follows the paper's Fig. 13/14 model of popularity-
/// induced load imbalance.
#[derive(Clone, Debug)]
pub struct Catalog {
    videos: Vec<VideoInfo>,
    per_disk: Vec<Vec<VideoId>>,
    disk_load: Zipf,
}

impl Catalog {
    /// Builds a catalog of `disks × videos_per_disk` videos, each of
    /// `length` at rate `cr`, with disk load skew `disk_theta`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for zero disks/videos, more disks or
    /// videos than a [`DiskId`] or [`VideoId`] can name, invalid rates or
    /// lengths, or θ outside `[0, 1]`.
    pub fn build(
        disks: usize,
        videos_per_disk: usize,
        cr: BitRate,
        length: Seconds,
        disk_theta: f64,
    ) -> Result<Self, ConfigError> {
        if disks == 0 {
            return Err(ConfigError::new("disks", "must be at least 1"));
        }
        if videos_per_disk == 0 {
            return Err(ConfigError::new("videos_per_disk", "must be at least 1"));
        }
        if !cr.is_valid_rate() {
            return Err(ConfigError::new("consumption_rate", "must be positive"));
        }
        if !length.is_valid_duration() || length <= Seconds::ZERO {
            return Err(ConfigError::new("video_length", "must be positive"));
        }
        // Every id must fit its 32 bits; check the last of each before
        // allocating anything.
        DiskId::try_from_index(disks - 1, "disks")?;
        let total = disks.checked_mul(videos_per_disk).ok_or_else(|| {
            ConfigError::new("videos_per_disk", "disks × videos_per_disk overflows")
        })?;
        VideoId::try_from_index(total - 1, "videos_per_disk")?;
        let disk_load = Zipf::new(disks, disk_theta)?;
        let size = cr * length;
        let mut videos = Vec::with_capacity(total);
        let mut per_disk = vec![Vec::with_capacity(videos_per_disk); disks];
        for (d, disk_videos) in per_disk.iter_mut().enumerate() {
            let disk = DiskId::try_from_index(d, "disks")?;
            for _ in 0..videos_per_disk {
                let id = VideoId::try_from_index(videos.len(), "videos_per_disk")?;
                videos.push(VideoInfo {
                    id,
                    disk,
                    size,
                    length,
                });
                disk_videos.push(id);
            }
        }
        Ok(Catalog {
            videos,
            per_disk,
            disk_load,
        })
    }

    /// The paper's catalog: 120-minute MPEG-1 titles (1.5 Mbps), six per
    /// Barracuda 9LP, across `disks` drives.
    ///
    /// # Errors
    ///
    /// As [`Catalog::build`].
    pub fn paper_catalog(disks: usize, disk_theta: f64) -> Result<Self, ConfigError> {
        Catalog::build(
            disks,
            6,
            BitRate::from_mbps(1.5),
            Seconds::from_minutes(120.0),
            disk_theta,
        )
    }

    /// All videos, id order.
    #[must_use]
    pub fn videos(&self) -> &[VideoInfo] {
        &self.videos
    }

    /// Number of disks.
    #[must_use]
    pub fn disks(&self) -> usize {
        self.per_disk.len()
    }

    /// Probability that a request lands on `disk` (the Zipf load model;
    /// rank = disk index + 1).
    #[must_use]
    pub fn disk_probability(&self, disk: DiskId) -> f64 {
        self.disk_load.probability(disk.index() + 1)
    }

    /// Samples a request target: a disk by the Zipf load model, then a
    /// video uniformly within that disk.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> VideoInfo {
        let disk = self.disk_load.sample(rng) - 1;
        let vids = &self.per_disk[disk];
        let v = vids[rng.gen_range(0..vids.len())];
        self.videos[v.index()]
    }

    /// Looks up a video.
    #[must_use]
    pub fn video(&self, id: VideoId) -> Option<&VideoInfo> {
        self.videos.get(id.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_catalog_has_six_videos_per_disk() {
        let c = Catalog::paper_catalog(10, 0.0).expect("valid");
        assert_eq!(c.disks(), 10);
        assert_eq!(c.videos().len(), 60);
        assert_eq!(c.per_disk.len(), 10);
        for vids in &c.per_disk {
            assert_eq!(vids.len(), 6);
        }
        // 120 min at 1.5 Mbps = 1.08e10 bits.
        assert!((c.videos()[0].size.as_f64() - 1.08e10).abs() < 1.0);
    }

    #[test]
    fn video_ids_are_dense_and_disk_tagged() {
        let c = Catalog::paper_catalog(3, 0.5).expect("valid");
        for (i, v) in (0..).zip(c.videos()) {
            assert_eq!(v.id, VideoId::new(i));
            assert_eq!(c.video(v.id), Some(v));
            assert!(v.disk.index() < 3);
        }
        assert!(c.video(VideoId::new(999)).is_none());
    }

    #[test]
    fn disk_probabilities_follow_zipf() {
        let c = Catalog::paper_catalog(10, 0.0).expect("valid");
        let p0 = c.disk_probability(DiskId::new(0));
        let p9 = c.disk_probability(DiskId::new(9));
        assert!(p0 > p9, "disk 0 must be the hottest under θ=0");
        let total: f64 = (0..10).map(|d| c.disk_probability(DiskId::new(d))).sum();
        assert!((total - 1.0).abs() < 1e-12);

        let u = Catalog::paper_catalog(10, 1.0).expect("valid");
        assert!((u.disk_probability(DiskId::new(0)) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn sampling_respects_disk_skew() {
        let c = Catalog::paper_catalog(10, 0.0).expect("valid");
        let mut rng = StdRng::seed_from_u64(4);
        let mut counts = [0usize; 10];
        let draws = 100_000;
        for _ in 0..draws {
            let v = c.sample(&mut rng);
            counts[v.disk.index()] += 1;
        }
        for (d, &count) in (0..).zip(&counts) {
            let emp = count as f64 / draws as f64;
            let exp = c.disk_probability(DiskId::new(d));
            assert!((emp - exp).abs() < 0.01, "disk {d}: {emp} vs {exp}");
        }
    }

    #[test]
    fn rejects_bad_configs() {
        assert!(Catalog::paper_catalog(0, 0.0).is_err());
        assert!(Catalog::build(
            1,
            0,
            BitRate::from_mbps(1.5),
            Seconds::from_minutes(1.0),
            0.0
        )
        .is_err());
        assert!(Catalog::build(1, 1, BitRate::ZERO, Seconds::from_minutes(1.0), 0.0).is_err());
        assert!(Catalog::build(1, 1, BitRate::from_mbps(1.5), Seconds::ZERO, 0.0).is_err());
        assert!(Catalog::paper_catalog(2, 1.5).is_err());
    }
}
