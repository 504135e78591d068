//! Per-stream state inside the simulator.

use vod_obs::span::{TraceId, SEQ_FIRST_SERVICE};
use vod_types::{BitRate, Bits, Instant, RequestId, Seconds, VideoId};

/// The simulator's view of one active stream.
///
/// Consumption is *lazy*: the buffer level is only materialized when the
/// stream is touched (serviced, departed, or inspected). Between touches
/// it drains linearly at `CR` from the moment the first data arrived.
#[derive(Clone, Debug)]
pub struct Stream {
    /// The request this stream serves.
    pub id: RequestId,
    /// The requested video.
    pub video: VideoId,
    /// Arrival time of the request (queue time included in latency).
    pub arrived: Instant,
    /// How long the user watches once data starts flowing.
    pub viewing: Seconds,
    /// Completion time of the first fill; `None` until first serviced.
    pub first_data_at: Option<Instant>,
    /// Buffer level at `level_time` (after the last touch).
    level: Bits,
    /// When `level` was last materialized.
    level_time: Instant,
    /// Total data consumed so far (drives the play position / cylinder).
    pub consumed: Bits,
    /// Streams already in service when this request arrived (the Fig. 11
    /// x-coordinate).
    pub n_at_arrival: usize,
    /// Earliest instant the scheduling method may first service this
    /// stream (the BubbleUp slot / Sweep\* period / GSS\* group boundary
    /// following admission).
    pub eligible_at: Instant,
    /// Allocation size used at the last service — observability only
    /// (drives buffer-resize events); never feeds back into scheduling.
    pub last_alloc: Bits,
    /// The lifecycle trace this stream rides (derived at ingest, or
    /// handed in by a cluster front end). Observability only — pure
    /// data-flow, never read by any scheduling decision.
    pub trace: TraceId,
    /// Sequence salt of the stream's *next* service span (starts at
    /// [`SEQ_FIRST_SERVICE`], advances once per disk read).
    /// Observability only.
    pub span_seq: u64,
}

/// What a lazy level update observed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LevelUpdate {
    /// Data consumed since the previous touch (bounded by departure).
    pub consumed: Bits,
    /// Deficit if consumption outran the buffer (underflow), else zero.
    pub deficit: Bits,
}

impl Stream {
    /// A freshly admitted stream with an empty buffer.
    #[must_use]
    pub fn new(id: RequestId, video: VideoId, arrived: Instant, viewing: Seconds) -> Self {
        Stream {
            id,
            video,
            arrived,
            viewing,
            first_data_at: None,
            level: Bits::ZERO,
            level_time: arrived,
            consumed: Bits::ZERO,
            n_at_arrival: 0,
            eligible_at: arrived,
            last_alloc: Bits::ZERO,
            trace: TraceId::NONE,
            span_seq: SEQ_FIRST_SERVICE,
        }
    }

    /// When the level was last materialized.
    #[must_use]
    pub fn level_at_time(&self) -> Instant {
        self.level_time
    }

    /// When this stream departs: `first_data + viewing`, or `None` while
    /// it has not started viewing.
    #[must_use]
    pub fn departs_at(&self) -> Option<Instant> {
        self.first_data_at.map(|t| t + self.viewing)
    }

    /// True once the stream has received its first data.
    #[must_use]
    pub fn viewing_started(&self) -> bool {
        self.first_data_at.is_some()
    }

    /// Buffer level at `t ≥ level_time` without mutating (may be negative
    /// when an underflow is in progress).
    #[must_use]
    pub fn level_at(&self, t: Instant, cr: BitRate) -> Bits {
        let Some(start) = self.first_data_at else {
            return self.level;
        };
        let from = self.level_time.max(start);
        let until = match self.departs_at() {
            Some(d) => {
                if t < d {
                    t
                } else {
                    d
                }
            }
            None => t,
        };
        if until <= from {
            return self.level;
        }
        self.level - cr * (until - from)
    }

    /// When the buffer drains to zero (the stream's next-service *due*
    /// time). Streams that never started or already departed have no due.
    #[must_use]
    pub fn due_at(&self, cr: BitRate) -> Option<Instant> {
        self.first_data_at?;
        let drain_start = self.level_time;
        let due = drain_start + self.level / cr;
        match self.departs_at() {
            Some(d) if due >= d => None, // provisioned to the end
            _ => Some(due),
        }
    }

    /// Materializes consumption up to `t`, clamping the level at zero and
    /// reporting any deficit. Call before every fill and at departure.
    pub fn advance_to(&mut self, t: Instant, cr: BitRate) -> LevelUpdate {
        let new_level = self.level_at(t, cr);
        let clamped = new_level.clamp_non_negative();
        // Only data that was actually in the buffer counts as consumed
        // (and as released memory); the shortfall is the deficit.
        let consumed_now = (self.level - clamped).clamp_non_negative();
        let deficit = (Bits::ZERO - new_level).clamp_non_negative();
        self.level = clamped;
        self.level_time = self.level_time.max(t);
        self.consumed += consumed_now;
        LevelUpdate {
            consumed: consumed_now,
            deficit,
        }
    }

    /// Adds freshly read data at time `t` (the fill's completion);
    /// consumption must already be materialized to `t`. Marks the first
    /// data arrival when applicable.
    pub fn fill(&mut self, t: Instant, amount: Bits) {
        debug_assert!(self.level_time >= t || self.first_data_at.is_none());
        if self.first_data_at.is_none() {
            self.first_data_at = Some(t);
            self.level_time = t;
        }
        self.level += amount;
    }

    /// Current materialized level (valid at `level_time`).
    #[must_use]
    pub fn level(&self) -> Bits {
        self.level
    }

    /// Data the stream still needs to consume after `t` until departure;
    /// `None` before viewing starts (needs the full first buffer).
    #[must_use]
    pub fn remaining_demand(&self, t: Instant, cr: BitRate) -> Option<Bits> {
        let departs = self.departs_at()?;
        if t >= departs {
            return Some(Bits::ZERO);
        }
        Some(cr * (departs - t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cr() -> BitRate {
        BitRate::from_mbps(1.5)
    }

    fn stream() -> Stream {
        Stream::new(
            RequestId::new(1),
            VideoId::new(0),
            Instant::from_secs(10.0),
            Seconds::from_minutes(30.0),
        )
    }

    #[test]
    fn no_consumption_before_first_fill() {
        let mut s = stream();
        assert_eq!(s.level_at(Instant::from_secs(100.0), cr()), Bits::ZERO);
        let upd = s.advance_to(Instant::from_secs(100.0), cr());
        assert_eq!(upd.consumed, Bits::ZERO);
        assert_eq!(upd.deficit, Bits::ZERO);
        assert!(!s.viewing_started());
        assert!(s.due_at(cr()).is_none());
    }

    #[test]
    fn first_fill_sets_latency_and_departure() {
        let mut s = stream();
        s.advance_to(Instant::from_secs(12.5), cr());
        s.fill(Instant::from_secs(12.5), Bits::from_megabits(3.0));
        assert_eq!(s.first_data_at, Some(s.arrived + Seconds::from_secs(2.5)));
        assert_eq!(s.departs_at(), Some(Instant::from_secs(12.5 + 30.0 * 60.0)));
    }

    #[test]
    fn level_drains_at_cr() {
        let mut s = stream();
        s.fill(Instant::from_secs(10.0), Bits::from_megabits(3.0));
        // After 1 s, 1.5 Mb consumed.
        let lvl = s.level_at(Instant::from_secs(11.0), cr());
        assert!((lvl.as_megabits() - 1.5).abs() < 1e-12);
        // Due when the 3 Mb run out: 2 s after fill.
        let due = s.due_at(cr()).expect("viewing");
        assert!((due.as_secs_f64() - 12.0).abs() < 1e-12);
    }

    #[test]
    fn advance_accumulates_consumption() {
        let mut s = stream();
        s.fill(Instant::from_secs(10.0), Bits::from_megabits(3.0));
        let upd = s.advance_to(Instant::from_secs(11.0), cr());
        assert!((upd.consumed.as_megabits() - 1.5).abs() < 1e-12);
        assert_eq!(upd.deficit, Bits::ZERO);
        assert!((s.consumed.as_megabits() - 1.5).abs() < 1e-12);
        // Second advance to the same time is a no-op.
        let upd = s.advance_to(Instant::from_secs(11.0), cr());
        assert_eq!(upd.consumed, Bits::ZERO);
    }

    #[test]
    fn underflow_is_reported_and_clamped() {
        let mut s = stream();
        s.fill(Instant::from_secs(10.0), Bits::from_megabits(1.5)); // 1 s of data
        let upd = s.advance_to(Instant::from_secs(13.0), cr());
        // 3 s elapsed, only 1 s of data: 2 s * 1.5 Mbps deficit.
        assert!((upd.deficit.as_megabits() - 3.0).abs() < 1e-12);
        assert!((upd.consumed.as_megabits() - 1.5).abs() < 1e-12);
        assert_eq!(s.level(), Bits::ZERO);
    }

    #[test]
    fn consumption_stops_at_departure() {
        let mut s = Stream::new(
            RequestId::new(2),
            VideoId::new(0),
            Instant::ZERO,
            Seconds::from_secs(2.0), // watches 2 s
        );
        s.fill(Instant::ZERO, Bits::from_megabits(6.0)); // 4 s of data
        let upd = s.advance_to(Instant::from_secs(10.0), cr());
        // Only 2 s consumed (3 Mb); 3 Mb left, no deficit.
        assert!((upd.consumed.as_megabits() - 3.0).abs() < 1e-12);
        assert_eq!(upd.deficit, Bits::ZERO);
        assert!((s.level().as_megabits() - 3.0).abs() < 1e-12);
        // Fully provisioned to departure: no due.
        assert!(s.due_at(cr()).is_none());
    }

    #[test]
    fn remaining_demand_shrinks_to_zero() {
        let mut s = stream();
        assert!(s.remaining_demand(Instant::from_secs(10.0), cr()).is_none());
        s.fill(Instant::from_secs(10.0), Bits::from_megabits(3.0));
        let d0 = s
            .remaining_demand(Instant::from_secs(10.0), cr())
            .expect("viewing");
        assert!((d0.as_megabits() - 1.5 * 1800.0).abs() < 1e-6);
        let d_end = s
            .remaining_demand(Instant::from_secs(10.0 + 1800.0), cr())
            .expect("viewing");
        assert_eq!(d_end, Bits::ZERO);
    }

    #[test]
    fn top_up_after_advance_keeps_level_consistent() {
        let mut s = stream();
        s.fill(Instant::from_secs(10.0), Bits::from_megabits(3.0));
        s.advance_to(Instant::from_secs(11.0), cr());
        s.fill(Instant::from_secs(11.0), Bits::from_megabits(1.5));
        assert!((s.level().as_megabits() - 3.0).abs() < 1e-12);
        let due = s.due_at(cr()).expect("viewing");
        assert!((due.as_secs_f64() - 13.0).abs() < 1e-12);
    }
}
