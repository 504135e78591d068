//! Buffer scheduling methods for VOD servers.
//!
//! The *buffer scheduling method* determines the order in which the server
//! fills the buffers of active streams (§2.2 of the paper). Three
//! representative methods are modelled, exactly as the paper evaluates
//! them:
//!
//! * **Round-Robin**, serviced with **BubbleUp** (Chang & Garcia-Molina):
//!   buffers are filled in allocation order, but a newly arriving request
//!   is serviced right after the service currently in execution, giving
//!   the worst-case initial latency of Eq. 2.
//! * **Sweep\***: buffers are filled in disk-position order to minimize
//!   seek time; new requests wait for the next service period, giving
//!   Eq. 3.
//! * **GSS\*** (Grouped Sweeping Scheduling): `n` streams are split into
//!   groups of at most `g` buffers; groups are serviced round-robin (with
//!   BubbleUp), buffers within a group by Sweep, giving Eq. 4.
//!
//! Each method also fixes the **worst-case disk latency `DL`** charged per
//! buffer service, which is what the buffer-size formulas consume:
//! `γ(Cyln)+θ` for Round-Robin, `γ(Cyln/n)+θ` for Sweep\*, and
//! `γ(Cyln/g)+θ` for GSS\*.
//!
//! The buffer *allocation* schemes (static and dynamic) are deliberately
//! independent of the method — the paper's third claimed advantage — so
//! this crate exposes the per-method quantities behind one enum,
//! [`SchedulingMethod`], that `vod-core` and `vod-sim` consume.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod latency;
pub mod method;

pub use latency::{worst_initial_latency, worst_initial_latency_fixed_stretch};
pub use method::{AdmissionTiming, SchedulingMethod};
