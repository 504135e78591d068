//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * `ablation_table_vs_direct` — §3.3's precomputation: allocate 10 000
//!   buffers through the table vs. through Theorem 1 directly.
//! * `ablation_alpha` — α's cost: a fixed burst workload simulated at
//!   α ∈ {1, 2, 4}; larger α adapts faster (fewer deferrals) but sizes
//!   larger buffers, so the run itself gets heavier.
//! * `ablation_naive_vs_dynamic` — the Fig. 3 scheme vs.
//!   predict-and-enforce under a rising load (the naive runs *and*
//!   underflows; this times the runs, the integration tests check the
//!   underflows).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use vod_core::closed_form::buffer_size_closed_form;
use vod_core::{SchemeKind, SizeTable, SystemParams};
use vod_sched::SchedulingMethod;
use vod_sim::{DiskEngine, EngineConfig};
use vod_types::{DiskId, Instant, Seconds, VideoId};
use vod_workload::Arrival;

fn rising_load() -> Vec<Arrival> {
    (0..50u32)
        .map(|i| Arrival {
            at: Instant::from_secs(1.0 + f64::from(i) * 30.0),
            disk: DiskId::new(0),
            video: VideoId::new(i % 6),
            viewing: Seconds::from_minutes(45.0),
        })
        .collect()
}

fn bench_table_vs_direct(c: &mut Criterion) {
    let p = SystemParams::paper_defaults(SchedulingMethod::RoundRobin);
    let table = SizeTable::build(&p);
    let mut group = c.benchmark_group("ablation_table_vs_direct");
    group.bench_function("10k_allocations_via_table", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 0..10_000usize {
                acc += table.size(i % 79, i % 7).as_f64();
            }
            black_box(acc)
        })
    });
    group.bench_function("10k_allocations_via_theorem1", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 0..10_000usize {
                acc += buffer_size_closed_form(&p, i % 79, i % 7).as_f64();
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_alpha(c: &mut Criterion) {
    let arrivals = rising_load();
    let mut group = c.benchmark_group("ablation_alpha");
    group.sample_size(10);
    for alpha in [1u32, 2, 4] {
        group.bench_function(format!("alpha_{alpha}"), |b| {
            b.iter(|| {
                let mut cfg =
                    EngineConfig::paper(SchedulingMethod::RoundRobin, SchemeKind::Dynamic);
                cfg.params.alpha = alpha;
                let engine = DiskEngine::new(cfg).expect("valid engine config");
                black_box(engine.run(&arrivals))
            })
        });
    }
    group.finish();
}

fn bench_naive_vs_dynamic(c: &mut Criterion) {
    let arrivals = rising_load();
    let mut group = c.benchmark_group("ablation_naive_vs_dynamic");
    group.sample_size(10);
    for scheme in [SchemeKind::NaiveDynamic, SchemeKind::Dynamic] {
        group.bench_function(scheme.label(), |b| {
            b.iter(|| {
                let engine =
                    DiskEngine::new(EngineConfig::paper(SchedulingMethod::RoundRobin, scheme))
                        .expect("valid engine config");
                black_box(engine.run(&arrivals))
            })
        });
    }
    group.finish();
}

fn bench_seek_model(c: &mut Criterion) {
    // DESIGN.md's `ablation_seek_model`: worst-case DL (the paper's
    // modelling assumption) vs. sampled head movement.
    let arrivals = rising_load();
    let mut group = c.benchmark_group("ablation_seek_model");
    group.sample_size(10);
    for (name, model) in [
        ("worst_case", vod_disk::LatencyModel::WorstCase),
        ("sampled", vod_disk::LatencyModel::Sampled),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut cfg = EngineConfig::paper(SchedulingMethod::Sweep, SchemeKind::Dynamic);
                cfg.latency_model = model;
                let engine = DiskEngine::new(cfg).expect("valid engine config");
                black_box(engine.run(&arrivals))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_table_vs_direct,
    bench_alpha,
    bench_naive_vs_dynamic,
    bench_seek_model
);
criterion_main!(benches);
