//! Contiguous placement of videos on disk cylinders.
//!
//! The paper assumes video data is stored contiguously so that one service
//! incurs exactly one disk latency (§2.1). Chang & Garcia-Molina realize
//! this with *chunks*: physically contiguous regions at least twice the
//! maximum buffer size, with data replicated across chunk boundaries so any
//! one buffer's worth of data is readable from a single chunk. For the
//! model, the observable consequence is simply: **one seek + one rotation
//! per buffer service**, and a head position that advances with the play
//! point of the video.
//!
//! [`VideoLayout`] places each video on a contiguous cylinder extent and
//! maps a play offset to a cylinder, which is what the sampled-latency
//! simulator needs to compute actual seek distances.

use std::collections::BTreeMap;

use vod_types::{Bits, ConfigError, VideoId};

use crate::profile::DiskProfile;

/// A contiguous range of cylinders occupied by one video.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Extent {
    /// First cylinder of the extent.
    pub start_cylinder: u32,
    /// Number of cylinders spanned (at least 1).
    pub cylinders: u32,
    /// Size of the stored video.
    pub size: Bits,
}

impl Extent {
    /// Cylinder holding the data at `offset` bits into the video.
    ///
    /// Offsets at or past the end clamp to the last cylinder.
    #[must_use]
    pub fn cylinder_at(&self, offset: Bits) -> u32 {
        if self.size.is_zero() || self.cylinders == 0 {
            return self.start_cylinder;
        }
        let frac = (offset.as_f64() / self.size.as_f64()).clamp(0.0, 1.0);
        let within = ((frac * f64::from(self.cylinders)) as u32).min(self.cylinders - 1);
        self.start_cylinder + within
    }

    /// One-past-the-last cylinder of the extent.
    #[must_use]
    pub fn end_cylinder(&self) -> u32 {
        self.start_cylinder + self.cylinders
    }
}

/// Placement of a set of videos on one disk's cylinders.
#[derive(Clone, Debug, Default)]
pub struct VideoLayout {
    extents: BTreeMap<VideoId, Extent>,
    bits_per_cylinder: f64,
    total_cylinders: u32,
    next_free_cylinder: u32,
}

impl VideoLayout {
    /// Creates an empty layout for the given disk.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the profile has no cylinders or capacity.
    pub fn new(profile: &DiskProfile) -> Result<Self, ConfigError> {
        if profile.cylinders == 0 {
            return Err(ConfigError::new("cylinders", "must be positive"));
        }
        if profile.capacity.is_zero() || !profile.capacity.is_valid_size() {
            return Err(ConfigError::new("capacity", "must be positive"));
        }
        Ok(VideoLayout {
            extents: BTreeMap::new(),
            bits_per_cylinder: profile.capacity.as_f64() / f64::from(profile.cylinders),
            total_cylinders: profile.cylinders,
            next_free_cylinder: 0,
        })
    }

    /// Places `video` of the given size on the next free contiguous extent.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the video is empty, already placed, or
    /// does not fit in the remaining cylinders.
    pub fn place(&mut self, video: VideoId, size: Bits) -> Result<Extent, ConfigError> {
        if !size.is_valid_size() || size.is_zero() {
            return Err(ConfigError::new("video_size", "must be positive"));
        }
        if self.extents.contains_key(&video) {
            return Err(ConfigError::new(
                "video",
                format!("{video} is already placed on this disk"),
            ));
        }
        let cylinders = (size.as_f64() / self.bits_per_cylinder).ceil().max(1.0) as u32;
        let end = self
            .next_free_cylinder
            .checked_add(cylinders)
            .ok_or_else(|| ConfigError::new("video_size", "cylinder index overflow"))?;
        if end > self.total_cylinders {
            return Err(ConfigError::new(
                "video_size",
                format!(
                    "{video} needs {cylinders} cylinders but only {} remain",
                    self.total_cylinders - self.next_free_cylinder
                ),
            ));
        }
        let extent = Extent {
            start_cylinder: self.next_free_cylinder,
            cylinders,
            size,
        };
        self.next_free_cylinder = end;
        self.extents.insert(video, extent);
        Ok(extent)
    }

    /// The extent of a placed video.
    #[must_use]
    pub fn extent(&self, video: VideoId) -> Option<Extent> {
        self.extents.get(&video).copied()
    }

    /// Cylinder under the play point of `video` at `offset` bits.
    #[must_use]
    pub fn cylinder_at(&self, video: VideoId, offset: Bits) -> Option<u32> {
        self.extents.get(&video).map(|e| e.cylinder_at(offset))
    }

    /// Number of videos placed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.extents.len()
    }

    /// True when no videos are placed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.extents.is_empty()
    }

    /// Iterates over `(video, extent)` pairs in video-id order.
    pub fn iter(&self) -> impl Iterator<Item = (VideoId, Extent)> + '_ {
        self.extents.iter().map(|(v, e)| (*v, *e))
    }
}

/// Validates the chunk-size rule of Chang & Garcia-Molina: a chunk must be
/// at least twice the largest buffer the allocation scheme can hand out, so
/// that any single buffer's data lies within one chunk (possibly via the
/// replicated overlap region).
///
/// # Errors
///
/// Returns [`ConfigError`] when the rule is violated.
pub fn validate_chunk_size(chunk: Bits, max_buffer: Bits) -> Result<(), ConfigError> {
    if !chunk.is_valid_size() || chunk.is_zero() {
        return Err(ConfigError::new("chunk_size", "must be positive"));
    }
    if chunk < max_buffer * 2.0 {
        return Err(ConfigError::new(
            "chunk_size",
            format!("chunk ({chunk}) must be at least twice the maximum buffer ({max_buffer})"),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::DiskProfile;

    fn layout() -> VideoLayout {
        VideoLayout::new(&DiskProfile::barracuda_9lp()).expect("valid profile")
    }

    fn video_size() -> Bits {
        // 120 min at 1.5 Mbps.
        Bits::new(1.5e6 * 7200.0)
    }

    #[test]
    fn places_videos_contiguously() {
        let mut l = layout();
        let a = l.place(VideoId::new(0), video_size()).expect("fits");
        let b = l.place(VideoId::new(1), video_size()).expect("fits");
        assert_eq!(a.start_cylinder, 0);
        assert_eq!(b.start_cylinder, a.end_cylinder());
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn six_mpeg1_videos_fill_most_of_the_disk() {
        let mut l = layout();
        for i in 0..6 {
            l.place(VideoId::new(i), video_size()).expect("video fits");
        }
        // A seventh does not fit (capacity check in DiskProfile::videos_fitting).
        assert!(l.place(VideoId::new(6), video_size()).is_err());
    }

    #[test]
    fn rejects_duplicates_and_empty_videos() {
        let mut l = layout();
        l.place(VideoId::new(0), video_size()).expect("fits");
        assert!(l.place(VideoId::new(0), video_size()).is_err());
        assert!(l.place(VideoId::new(1), Bits::ZERO).is_err());
    }

    #[test]
    fn cylinder_advances_with_offset() {
        let mut l = layout();
        let v = VideoId::new(0);
        let ext = l.place(v, video_size()).expect("fits");
        let start = l.cylinder_at(v, Bits::ZERO).expect("placed");
        let middle = l.cylinder_at(v, video_size() / 2.0).expect("placed");
        let end = l.cylinder_at(v, video_size()).expect("placed");
        assert_eq!(start, ext.start_cylinder);
        assert!(middle > start);
        assert!(end >= middle);
        assert!(end < ext.end_cylinder());
    }

    #[test]
    fn offset_clamps_at_video_end() {
        let mut l = layout();
        let v = VideoId::new(0);
        let ext = l.place(v, video_size()).expect("fits");
        let past = l.cylinder_at(v, video_size() * 10.0).expect("placed");
        assert_eq!(past, ext.end_cylinder() - 1);
    }

    #[test]
    fn unknown_video_has_no_cylinder() {
        let l = layout();
        assert!(l.cylinder_at(VideoId::new(9), Bits::ZERO).is_none());
        assert!(l.extent(VideoId::new(9)).is_none());
        assert!(l.is_empty());
    }

    #[test]
    fn chunk_rule() {
        let max_buf = Bits::from_megabits(10.0);
        assert!(validate_chunk_size(Bits::from_megabits(20.0), max_buf).is_ok());
        assert!(validate_chunk_size(Bits::from_megabits(19.9), max_buf).is_err());
        assert!(validate_chunk_size(Bits::ZERO, max_buf).is_err());
    }

    #[test]
    fn free_cylinders_decrease_monotonically() {
        let mut l = layout();
        let before = l.next_free_cylinder;
        l.place(VideoId::new(0), video_size()).expect("fits");
        assert!(l.next_free_cylinder > before);
        assert!(l.next_free_cylinder <= l.total_cylinders);
        assert_eq!(l.iter().count(), 1);
    }
}
