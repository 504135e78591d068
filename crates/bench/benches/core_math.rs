//! Microbenchmarks of the paper's core math: Theorem 1 (closed form vs.
//! the raw recurrence vs. the precomputed table — quantifying §3.3's
//! precomputation argument), Eq. 5, and the memory theorems.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use vod_core::closed_form::buffer_size_closed_form;
use vod_core::memory::{min_memory_dynamic, min_memory_static};
use vod_core::recurrence::buffer_size_recursive;
use vod_core::static_scheme::static_buffer_size;
use vod_core::{SizeTable, SystemParams};
use vod_sched::SchedulingMethod;

fn params() -> SystemParams {
    SystemParams::paper_defaults(SchedulingMethod::RoundRobin)
}

fn bench_buffer_size(c: &mut Criterion) {
    let p = params();
    let table = SizeTable::build(&p);
    let mut group = c.benchmark_group("buffer_size");

    // The paper's runtime-efficiency claim: per-allocation evaluation of
    // Theorem 1 costs real CPU; the O(N²) table makes it a lookup.
    group.bench_function("recurrence", |b| {
        b.iter(|| buffer_size_recursive(&p, black_box(20), black_box(3)))
    });
    group.bench_function("closed_form", |b| {
        b.iter(|| buffer_size_closed_form(&p, black_box(20), black_box(3)))
    });
    group.bench_function("table_lookup", |b| {
        b.iter(|| table.size(black_box(20), black_box(3)))
    });
    group.bench_function("eq5_static", |b| {
        b.iter(|| static_buffer_size(&p, black_box(79)))
    });
    group.finish();
}

fn bench_table_build(c: &mut Criterion) {
    let p = params();
    c.bench_function("size_table_build_full_n79", |b| {
        b.iter(|| SizeTable::build(black_box(&p)))
    });
}

fn bench_memory_theorems(c: &mut Criterion) {
    let mut group = c.benchmark_group("memory_theorems");
    for method in SchedulingMethod::paper_methods() {
        let p = SystemParams::paper_defaults(method);
        let table = SizeTable::build(&p);
        group.bench_function(format!("dynamic_{}", method.label()), |b| {
            b.iter(|| min_memory_dynamic(&p, &table, black_box(40), black_box(3)))
        });
        group.bench_function(format!("static_{}", method.label()), |b| {
            b.iter(|| min_memory_static(&p, black_box(40)))
        });
    }
    group.finish();
}

fn bench_admission_path(c: &mut Criterion) {
    use vod_core::{AdmissionController, ArrivalLog};
    use vod_types::{Instant, RequestId, Seconds};

    // The per-request hot path of a live server: note_arrival +
    // can_admit + allocate.
    c.bench_function("admission_allocate_n40", |b| {
        let mut ctl =
            AdmissionController::new(params(), Seconds::from_minutes(40.0)).expect("valid");
        let t = Instant::ZERO;
        // Note the whole burst first so k_log (and with it the admission
        // bound) covers all 40 admissions.
        for _ in 0..40 {
            ctl.note_arrival(t);
        }
        for i in 0..40u64 {
            ctl.admit(RequestId::new(i))
                .expect("bound covers the burst");
            ctl.allocate(RequestId::new(i), t, Seconds::from_secs(2.0))
                .expect("admitted");
        }
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let id = RequestId::new(i % 40);
            black_box(
                ctl.allocate(
                    id,
                    t + Seconds::from_millis(i as f64),
                    Seconds::from_secs(2.0),
                )
                .expect("in service"),
            )
        })
    });

    // The k_log sliding-window estimator as `CapacitySim` drives it:
    // every query follows a new arrival and the period moves with the
    // load. Uneven gaps averaging 1.7 s, and `T_log` = 1000 × 1.7 s, keep
    // about 1000 arrivals retained, so nearly every query also prunes.
    c.bench_function("k_log_1000_arrivals", |b| {
        const GAPS: [f64; 8] = [0.4, 2.9, 1.1, 0.2, 3.3, 1.7, 0.9, 3.1];
        let mut log = ArrivalLog::new(Seconds::from_secs(1000.0 * 1.7));
        let mut at = 0.0;
        let mut i = 0usize;
        let mut step = || {
            i += 1;
            at += GAPS[i % GAPS.len()];
            let now = Instant::from_secs(at);
            log.record(now);
            log.k_log(now, Seconds::from_secs(2.0 + (i % 7) as f64))
        };
        for _ in 0..2000 {
            step();
        }
        b.iter(|| black_box(step()))
    });
}

criterion_group!(
    benches,
    bench_buffer_size,
    bench_table_build,
    bench_memory_theorems,
    bench_admission_path
);
criterion_main!(benches);
