//! Cycle-indexed time series with power-of-two decimation.
//!
//! The metrics registry (PR 2) captures end-of-run aggregates and the
//! span layer (PR 5) captures per-request lifecycles; this module covers
//! the territory between them: **how a quantity evolved over a run**.
//! A [`TimeSeries`] is a fixed-capacity buffer of `(index, t, value)`
//! points sampled at deterministic simulation points (engine cycle
//! boundaries, cluster dispatches). When the buffer fills, every second
//! retained point is dropped and the sampling stride doubles
//! (1 → 2 → 4 → …), so memory stays bounded while coverage always spans
//! the whole run at uniform resolution.
//!
//! ## Determinism argument
//!
//! Nothing here reads a wall clock, draws randomness, or depends on
//! thread interleaving:
//!
//! * the sample *index* is a pure count of offers to the series;
//! * the *t* column is simulated time, supplied by the caller;
//! * acceptance of an offer depends only on `(index, stride)`, and the
//!   stride only on how many offers preceded it.
//!
//! A series is therefore a pure function of the offered `(t, value)`
//! sequence. Engines sample themselves (one series set per engine), so
//! the sequence each series sees is the engine's own deterministic
//! history — running the matrix at `--jobs 1` or `--jobs N` produces
//! byte-identical exports (pinned by tests).
//!
//! ## Decimation invariant
//!
//! With an **even** capacity `C`, the retained points are always exactly
//! the offers at indices `{0, s, 2s, …}` for the current stride `s`:
//! decimating a full buffer keeps positions `0, 2, 4, …` — the offers at
//! multiples of `2s` — and since `C` is even the next accepted offer
//! (`C·s`, a multiple of `2s`) continues the arithmetic progression.
//! Consequently a series with capacity `C` equals a series with any
//! larger capacity filtered to the coarser stride — capacity changes
//! only the resolution, never which values appear at the indices both
//! keep (property-tested in `tests/timeseries_properties.rs`).

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::trace::{SeriesLine, TraceLine};

/// Default point capacity of a series (even; see the module docs).
pub const DEFAULT_SERIES_CAPACITY: usize = 512;

/// One retained sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Point {
    /// The offer index (cycle number, dispatch number, …).
    pub index: u64,
    /// Simulated time of the sample, seconds.
    pub t: f64,
    /// The sampled value.
    pub value: f64,
}

/// A fixed-capacity, stride-doubling series of [`Point`]s.
#[derive(Clone, Debug, PartialEq)]
pub struct TimeSeries {
    name: String,
    capacity: usize,
    stride: u64,
    count: u64,
    points: Vec<Point>,
}

impl TimeSeries {
    /// An empty series retaining at most `capacity` points. Capacities
    /// are clamped to at least 2 and rounded up to even — the decimation
    /// invariant (module docs) needs an even buffer.
    #[must_use]
    pub fn new(name: &str, capacity: usize) -> Self {
        let capacity = capacity.max(2);
        let capacity = capacity + (capacity % 2);
        TimeSeries {
            name: name.to_owned(),
            capacity,
            stride: 1,
            count: 0,
            points: Vec::new(),
        }
    }

    /// The series name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The current sampling stride (a power of two).
    #[must_use]
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// Total samples offered (kept or decimated away).
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The retained points, in index order.
    #[must_use]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Offers one sample. The offer's index is the running count; it is
    /// kept only when the index is a multiple of the current stride, and
    /// a full buffer decimates (drop every second point, double the
    /// stride) before accepting.
    pub fn push(&mut self, t: f64, value: f64) {
        let index = self.count;
        self.count += 1;
        if !index.is_multiple_of(self.stride) {
            return;
        }
        if self.points.len() == self.capacity {
            let mut pos = 0usize;
            self.points.retain(|_| {
                let keep = pos.is_multiple_of(2);
                pos += 1;
                keep
            });
            self.stride *= 2;
            if !index.is_multiple_of(self.stride) {
                return;
            }
        }
        self.points.push(Point { index, t, value });
    }

    /// The series as the `series` line of `scope`.
    #[must_use]
    pub(crate) fn line<'s>(&'s self, scope: &'s str) -> SeriesLine<'s> {
        SeriesLine {
            scope,
            name: &self.name,
            stride: self.stride,
            count: self.count,
            points: Cow::Borrowed(&self.points),
        }
    }

    /// One JSONL line:
    /// `{"kind":"series","scope":..,"name":..,"stride":..,"count":..,"points":[[index,t,value],..]}`.
    #[must_use]
    pub fn to_json(&self, scope: &str) -> String {
        TraceLine::Series(self.line(scope)).to_json()
    }
}

/// A shared handle to one series. Cloning the `Arc` is how emitters keep
/// a resolved handle (mirroring [`crate::metrics::Histo`]); pushes
/// lock only this series.
#[derive(Debug)]
pub struct Series(Mutex<TimeSeries>);

impl Series {
    /// Offers one sample (see [`TimeSeries::push`]).
    pub fn push(&self, t: f64, value: f64) {
        self.0.lock().expect("series mutex poisoned").push(t, value);
    }

    /// A point-in-time copy of the series.
    #[must_use]
    pub fn snapshot(&self) -> TimeSeries {
        self.0.lock().expect("series mutex poisoned").clone()
    }
}

/// A named set of series sharing one scope label (an engine, a cluster
/// node, the cluster front end). Detachable like the metrics registry:
/// samplers hold `Option<Arc<SeriesRecorder>>` and skip all sampling
/// work when none is attached, so telemetry-off runs never construct a
/// sample (the emission-gating that keeps `DiskRunStats` bit-identical).
#[derive(Debug)]
pub struct SeriesRecorder {
    scope: String,
    capacity: usize,
    series: Mutex<BTreeMap<String, Arc<Series>>>,
}

impl SeriesRecorder {
    /// A recorder whose series hold [`DEFAULT_SERIES_CAPACITY`] points.
    #[must_use]
    pub fn new(scope: &str) -> Self {
        SeriesRecorder::with_capacity(scope, DEFAULT_SERIES_CAPACITY)
    }

    /// A recorder whose series hold at most `capacity` points each (see
    /// [`TimeSeries::new`] for the evenness clamp).
    #[must_use]
    pub fn with_capacity(scope: &str, capacity: usize) -> Self {
        SeriesRecorder {
            scope: scope.to_owned(),
            capacity,
            series: Mutex::new(BTreeMap::new()),
        }
    }

    /// The scope label series of this recorder export under.
    #[must_use]
    pub fn scope(&self) -> &str {
        &self.scope
    }

    /// Resolves (creating on first use) the series named `name`.
    #[must_use]
    pub fn series(&self, name: &str) -> Arc<Series> {
        let mut map = self.series.lock().expect("series map poisoned");
        Arc::clone(
            map.entry(name.to_owned()).or_insert_with(|| {
                Arc::new(Series(Mutex::new(TimeSeries::new(name, self.capacity))))
            }),
        )
    }

    /// Snapshots every series, in name order.
    #[must_use]
    pub fn snapshot(&self) -> Vec<TimeSeries> {
        self.series
            .lock()
            .expect("series map poisoned")
            .values()
            .map(|s| s.snapshot())
            .collect()
    }

    /// One `{"kind":"series",...}` JSONL line per series, in name order.
    #[must_use]
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.snapshot() {
            out.push_str(&s.to_json(&self.scope));
            out.push('\n');
        }
        out
    }

    /// CSV rows (`scope,name,index,t,value`, no header), in name order.
    #[must_use]
    pub fn export_csv(&self) -> String {
        let mut out = String::new();
        for s in self.snapshot() {
            s.line(&self.scope).append_csv(&mut out);
        }
        out
    }
}

/// The canonical CSV header matching [`SeriesRecorder::export_csv`].
pub const SERIES_CSV_HEADER: &str = "scope,name,index,t,value\n";

/// Engine series names (sampled once per completed service cycle).
pub mod engine_series {
    /// Buffer-pool occupancy at the cycle boundary, bits.
    pub const POOL_USED_BITS: &str = "pool_used_bits";
    /// Streams in service at the cycle boundary.
    pub const ACTIVE_STREAMS: &str = "active_streams";
    /// Admission headroom: the Assumption-1 bound minus offered load.
    pub const ADMISSION_HEADROOM: &str = "admission_headroom";
    /// Deferred requests waiting in the admission queue.
    pub const DEFERRAL_QUEUE_DEPTH: &str = "deferral_queue_depth";
    /// Duration of the cycle that just completed, seconds.
    pub const CYCLE_SERVICE_S: &str = "cycle_service_s";
}

/// Cluster series names (sampled once per front-end dispatch).
pub mod cluster_series {
    /// Arrivals dispatched to the node so far (per-node scope).
    pub const NODE_LOAD: &str = "load";
    /// Redirections in + out touching the node so far (per-node scope).
    pub const NODE_REDIRECTIONS: &str = "redirections";
    /// Busiest node's dispatched count over the mean (cluster scope).
    pub const IMBALANCE_RATIO: &str = "imbalance_ratio";
}

#[cfg(test)]
mod tests {
    use super::*;

    fn offered(n: u64) -> TimeSeries {
        let mut s = TimeSeries::new("x", 8);
        for i in 0..n {
            s.push(i as f64 * 0.5, i as f64);
        }
        s
    }

    #[test]
    fn under_capacity_keeps_every_sample_at_stride_one() {
        let s = offered(5);
        assert_eq!(s.stride(), 1);
        assert_eq!(s.count(), 5);
        let idx: Vec<u64> = s.points().iter().map(|p| p.index).collect();
        assert_eq!(idx, vec![0, 1, 2, 3, 4]);
        assert_eq!(s.points()[3].value, 3.0);
        assert_eq!(s.points()[3].t, 1.5);
    }

    #[test]
    fn overflow_decimates_and_doubles_the_stride() {
        let s = offered(9); // capacity 8: the 9th offer triggers decimation
        assert_eq!(s.stride(), 2);
        let idx: Vec<u64> = s.points().iter().map(|p| p.index).collect();
        assert_eq!(idx, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn retained_indices_are_always_stride_multiples() {
        for n in [1u64, 7, 8, 9, 16, 17, 33, 100, 1000] {
            let s = offered(n);
            assert!(s.points().len() <= 8, "n={n}");
            for (i, p) in s.points().iter().enumerate() {
                assert_eq!(p.index, i as u64 * s.stride(), "n={n}");
                assert_eq!(p.value, p.index as f64, "values ride along");
            }
            // Full-run coverage: the last retained point is within one
            // stride of the last offer.
            let last = s.points().last().expect("non-empty").index;
            assert!(n - 1 - last < s.stride(), "n={n} last={last}");
        }
    }

    #[test]
    fn coarse_series_is_the_fine_series_filtered_to_its_stride() {
        let n = 613u64;
        let coarse = offered(n);
        let mut fine = TimeSeries::new("x", 64);
        for i in 0..n {
            fine.push(i as f64 * 0.5, i as f64);
        }
        let filtered: Vec<Point> = fine
            .points()
            .iter()
            .copied()
            .filter(|p| p.index % coarse.stride() == 0)
            .collect();
        assert_eq!(coarse.points(), &filtered[..]);
    }

    #[test]
    fn capacity_is_clamped_even() {
        assert_eq!(TimeSeries::new("x", 0).capacity, 2);
        assert_eq!(TimeSeries::new("x", 7).capacity, 8);
        assert_eq!(TimeSeries::new("x", 8).capacity, 8);
    }

    #[test]
    fn json_line_carries_scope_name_stride_and_points() {
        let mut s = TimeSeries::new("pool_used_bits", 4);
        s.push(0.0, 1.5);
        s.push(1.0, 2.0);
        let j = s.to_json("node0");
        assert!(j.starts_with("{\"kind\":\"series\""), "{j}");
        assert!(j.contains("\"scope\":\"node0\""), "{j}");
        assert!(j.contains("\"name\":\"pool_used_bits\""), "{j}");
        assert!(j.contains("\"stride\":1"), "{j}");
        assert!(j.contains("\"count\":2"), "{j}");
        assert!(j.contains("\"points\":[[0,0.0,1.5],[1,1.0,2.0]]"), "{j}");
    }

    #[test]
    fn recorder_resolves_and_exports_in_name_order() {
        let rec = SeriesRecorder::with_capacity("engine", 4);
        rec.series("zeta").push(0.0, 1.0);
        rec.series("alpha").push(0.0, 2.0);
        rec.series("alpha").push(1.0, 3.0);
        let jsonl = rec.export_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"name\":\"alpha\""));
        assert!(lines[1].contains("\"name\":\"zeta\""));
        let csv = rec.export_csv();
        assert_eq!(
            csv,
            "engine,alpha,0,0.0,2.0\nengine,alpha,1,1.0,3.0\nengine,zeta,0,0.0,1.0\n"
        );
    }

    #[test]
    fn series_handles_share_state() {
        let rec = SeriesRecorder::new("s");
        let a = rec.series("x");
        let b = rec.series("x");
        a.push(0.0, 1.0);
        b.push(1.0, 2.0);
        assert_eq!(a.snapshot().count(), 2);
    }
}
