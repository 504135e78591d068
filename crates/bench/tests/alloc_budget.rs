//! The allocation budget of the steady-state hot loop.
//!
//! A counting global allocator wraps [`System`] and tallies every
//! `alloc`/`realloc`. The test warms an engine into steady state (all
//! streams admitted, scratch vectors and heap capacities grown), then
//! advances simulated time across a window of pure service cycles and
//! asserts the window allocated **nothing**: under the static and the
//! dynamic scheme with Round-Robin, and under the dynamic scheme with
//! Sweep\* (whose roster is sorted in place across cycles) and GSS\*
//! (whose groups are re-sorted every cycle). The dynamic scheme's
//! estimator audit queues only the windows that outlast the measured
//! `advance_to` horizon, its arrival floor, in capacity grown during
//! warm-up.
//!
//! Allocations are counted per thread, so the tests can run on parallel
//! harness threads without counting each other's set-up.
//!
//! Meaningful only in release mode: debug builds run the engine's
//! shadow-scan `debug_assert!`s, which are allowed to allocate. The test
//! is a no-op under `debug_assertions` so plain `cargo test` stays
//! green; CI runs it with `cargo test --release`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vod_core::SchemeKind;
use vod_sched::SchedulingMethod;
use vod_sim::{DiskEngine, EngineConfig};
use vod_types::{DiskId, Instant, Seconds, VideoId};
use vod_workload::Arrival;

struct CountingAlloc;

thread_local! {
    // `const` and drop-free, so touching it from inside the allocator
    // never allocates (no lazy init, no destructor registration).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: the slot is gone while a thread tears down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Drives `streams` arrivals into a fresh engine, warms it for
/// `warm_s` simulated seconds, then measures allocations across a
/// `window_s` steady-state window. Returns `(allocs_in_window, cycles)`
/// where `cycles` is the whole run's cycle count (a sanity floor that
/// the window actually contained service cycles).
fn measure(
    method: SchedulingMethod,
    scheme: SchemeKind,
    streams: u32,
    warm_s: f64,
    window_s: f64,
) -> (u64, u64) {
    let mut cfg = EngineConfig::paper(method, scheme);
    // Play points run off the end of their video mid-window. Their
    // clamped position keys then tie, and Sweep*'s id tie-break re-sorts
    // its roster inside the window.
    cfg.video_length = Seconds::from_secs(warm_s + window_s / 2.0);
    let mut engine = DiskEngine::new(cfg).expect("paper config is valid");
    // All viewings outlast the window: the measured stretch is pure
    // cycle service — no arrivals, no departures, no pool churn. Video
    // ids fall with admission order, so each GSS* group is out of
    // position order and re-sorted every cycle.
    for i in 0..streams {
        engine.offer(&Arrival {
            at: Instant::ZERO,
            disk: DiskId::new(0),
            video: VideoId::new(7 - i % 8),
            viewing: Seconds::from_secs(warm_s + window_s + 600.0),
        });
    }
    engine.advance_to(Instant::from_secs(warm_s));
    let before = allocations();
    engine.advance_to(Instant::from_secs(warm_s + window_s));
    let in_window = allocations() - before;
    let stats = engine.finish();
    assert_eq!(
        stats.underflows, 0,
        "{method}/{scheme:?}: steady state must not underflow"
    );
    (in_window, stats.cycles)
}

/// Asserts that `method`/`scheme`'s steady-state window allocates
/// nothing (release builds only; see the module docs).
fn assert_allocation_free(method: SchedulingMethod, scheme: SchemeKind) {
    if cfg!(debug_assertions) {
        eprintln!("alloc_budget: skipped (debug build runs allocating shadow-scan asserts)");
        return;
    }
    let (allocs, cycles) = measure(method, scheme, 20, 120.0, 60.0);
    assert!(
        cycles > 100,
        "{method}/{scheme:?}: window must span real service cycles, got {cycles}"
    );
    assert_eq!(
        allocs, 0,
        "{method}/{scheme:?} steady-state window performed {allocs} heap allocations; the hot loop must not allocate"
    );
}

#[test]
fn static_steady_state_cycles_are_allocation_free() {
    assert_allocation_free(SchedulingMethod::RoundRobin, SchemeKind::Static);
}

#[test]
fn dynamic_steady_state_cycles_are_allocation_free() {
    // The estimator memo, the table cache and the streaming audit make
    // the dynamic scheme's steady-state cycle allocation-free too.
    assert_allocation_free(SchedulingMethod::RoundRobin, SchemeKind::Dynamic);
}

#[test]
fn dynamic_sweep_steady_state_cycles_are_allocation_free() {
    // The roster's position sort writes back in place, from a reused
    // scratch vector.
    assert_allocation_free(SchedulingMethod::Sweep, SchemeKind::Dynamic);
}

#[test]
fn dynamic_gss_steady_state_cycles_are_allocation_free() {
    assert_allocation_free(SchedulingMethod::GSS_PAPER, SchemeKind::Dynamic);
}
