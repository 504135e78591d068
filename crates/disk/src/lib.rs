//! Disk substrate for the VOD dynamic-buffer-allocation library.
//!
//! The paper's entire analysis consumes a disk through three quantities:
//!
//! * the sustained transfer rate `TR` (bits/s),
//! * the seek-time function `γ(x)` over a distance of `x` cylinders
//!   (Eq. 7 of the paper, the Ruemmler & Wilkes two-piece model), and
//! * the maximum rotational delay `θ`.
//!
//! This crate models exactly that — plus the pieces a real server built on
//! the model needs:
//!
//! * [`seek::SeekModel`] — the two-piece seek curve with its continuity
//!   constraint at the breakpoint;
//! * [`profile::DiskProfile`] — a named parameter set
//!   ([`profile::DiskProfile::barracuda_9lp`] reproduces Table 3 of the
//!   paper) with derived quantities such as the maximum number `N` of
//!   concurrent streams (Eq. 1);
//! * [`layout`] — contiguous *chunk* placement of videos on cylinders
//!   (following Chang & Garcia-Molina), so a simulator can derive actual
//!   seek distances;
//! * [`disk::Disk`] — a simulated drive: tracks head position, services
//!   reads, and reports both worst-case and sampled service latencies.
//!
//! The paper models one single-zone disk whose `TR` is the drive's
//! *minimum* transfer rate (Table 3); multi-disk capacity (Figs. 13–14)
//! comes from a Zipf disk-load model in `vod-analysis`, not from a drive
//! array, so this crate has neither zones nor arrays.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod disk;
pub mod layout;
pub mod profile;
pub mod seek;

pub use disk::{Disk, ReadOutcome};
pub use layout::{Extent, VideoLayout};
pub use profile::DiskProfile;
pub use seek::{LatencyModel, SeekModel};
