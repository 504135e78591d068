//! The heap a generated trace costs, and the configurations refused
//! before anything is allocated.
//!
//! A counting global allocator wraps [`System`] and tracks the calling
//! thread's live bytes and their peak, so the tests can run on parallel
//! harness threads without counting each other.
//!
//! The Fig. 14 day (`paper_ten_disk`, θ = 0, 20 000 arrivals over 24 h)
//! peaks while `generate` holds both the arrival-time column and the
//! finished trace. With 24-byte records and one time column reserved for
//! the expected count plus five standard deviations, that is about 32.4
//! bytes per arrival; 32-byte records and a time column grown by doubling
//! cost about 44.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vod_types::{BitRate, Seconds};
use vod_workload::{generate, multi_movie, Catalog, MultiMovieConfig, WorkloadConfig};

struct CountingAlloc;

thread_local! {
    // `const` and drop-free, so touching them from inside the allocator
    // never allocates (no lazy init, no destructor registration).
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn grow(bytes: usize) {
    // `try_with`: the slots are gone while a thread tears down.
    let _ = LIVE.try_with(|live| {
        let now = live.get() + bytes;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

fn shrink(bytes: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(bytes)));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // The old block stays live until the new one is filled.
        grow(new_size);
        shrink(layout.size());
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the calling thread's peak live
/// heap above what was live when it started.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let out = f();
    (out, PEAK.with(Cell::get) - base)
}

/// Midway between the two layouts' readings on seed 1: 32.4 bytes per
/// arrival with 24-byte records, 44.0 with 32-byte ones.
const MAX_BYTES_PER_ARRIVAL: f64 = 38.0;

#[test]
fn fig14_day_trace_peaks_below_its_bound_per_arrival() {
    let cfg = WorkloadConfig::paper_ten_disk(0.0, 20_000.0);
    for seed in 1..=5 {
        let (trace, peak) = peak_of(|| generate(&cfg, seed).expect("the paper's config is valid"));
        let per_arrival = peak as f64 / trace.len() as f64;
        assert!(
            per_arrival < MAX_BYTES_PER_ARRIVAL,
            "seed {seed}: {peak} B peak over {} arrivals = {per_arrival:.1} B each",
            trace.len()
        );
    }
}

/// A refused configuration allocates at most its error message.
const REFUSAL_BYTES: usize = 256;

#[test]
fn a_catalog_past_32_bit_video_ids_is_refused_before_allocating() {
    let (result, peak) = peak_of(|| {
        Catalog::build(
            65_537,
            65_537,
            BitRate::from_mbps(1.5),
            Seconds::from_minutes(120.0),
            0.0,
        )
    });
    let err = result.expect_err("65 537² videos exceed 2³² ids");
    assert_eq!(err.parameter, "videos_per_disk");
    assert!(peak <= REFUSAL_BYTES, "allocated {peak} B");
}

#[test]
fn a_catalog_past_32_bit_disk_ids_is_refused_before_allocating() {
    let disks = usize::try_from(u64::from(u32::MAX) + 2).expect("64-bit usize");
    let (result, peak) = peak_of(|| {
        Catalog::build(
            disks,
            1,
            BitRate::from_mbps(1.5),
            Seconds::from_minutes(120.0),
            0.0,
        )
    });
    assert_eq!(result.expect_err("too many disks").parameter, "disks");
    assert!(peak <= REFUSAL_BYTES, "allocated {peak} B");
}

#[test]
fn a_workload_past_32_bit_disk_ids_is_refused() {
    let disks = usize::try_from(u64::from(u32::MAX) + 2).expect("64-bit usize");
    let mut cfg = WorkloadConfig::paper_ten_disk(0.0, 100.0);
    cfg.disks = disks;
    assert_eq!(
        generate(&cfg, 1).expect_err("too many disks").parameter,
        "disks"
    );
}

#[test]
fn a_multi_movie_catalog_past_32_bit_ids_is_refused_before_allocating() {
    let movies = usize::try_from(u64::from(u32::MAX) + 2).expect("64-bit usize");
    let cfg = MultiMovieConfig::paper_cluster(movies, 0.271, 500.0);
    let (result, peak) = peak_of(|| multi_movie(&cfg, 1));
    assert_eq!(result.expect_err("too many movies").parameter, "movies");
    assert!(peak <= REFUSAL_BYTES, "allocated {peak} B");
}
