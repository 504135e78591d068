//! Edge-case coverage for the admission-level capacity simulator.

use vod_core::{SchemeKind, SystemParams};
use vod_sched::SchedulingMethod;
use vod_sim::{CapacityConfig, CapacitySim};
use vod_types::{Bits, DiskId, Instant, Seconds, VideoId};
use vod_workload::{Arrival, Workload};

fn config(scheme: SchemeKind, disks: usize, memory_gb: f64) -> CapacityConfig {
    CapacityConfig {
        params: SystemParams::paper_defaults(SchedulingMethod::RoundRobin),
        scheme,
        disks,
        total_memory: Bits::from_gigabytes(memory_gb),
        t_log: Seconds::from_minutes(40.0),
    }
}

fn arrival(at: f64, disk: u32, viewing: f64) -> Arrival {
    Arrival {
        at: Instant::from_secs(at),
        disk: DiskId::new(disk),
        video: VideoId::new(disk * 6),
        viewing: Seconds::from_secs(viewing),
    }
}

#[test]
fn empty_workload_is_a_noop() {
    let sim = CapacitySim::new(config(SchemeKind::Dynamic, 4, 2.0)).expect("valid");
    let result = sim.run(&Workload::default());
    assert_eq!(result.admitted, 0);
    assert_eq!(result.rejected, 0);
    assert_eq!(result.max_concurrent, 0);
    assert_eq!(result.peak_reserved, Bits::ZERO);
}

#[test]
fn more_disks_than_32_bit_ids_can_name_is_a_config_error() {
    let widest = usize::try_from(u64::from(u32::MAX) + 1).expect("64-bit usize");
    let err = CapacitySim::new(config(SchemeKind::Dynamic, widest + 1, 2.0))
        .err()
        .expect("2³² + 1 disks");
    assert_eq!(err.parameter, "disks");
    // Disk ids 0..=u32::MAX all fit; the constructor allocates nothing
    // per disk.
    assert!(CapacitySim::new(config(SchemeKind::Dynamic, widest, 2.0)).is_ok());
}

#[test]
fn arrivals_to_unknown_disks_are_rejected() {
    let sim = CapacitySim::new(config(SchemeKind::Static, 2, 4.0)).expect("valid");
    let workload = Workload {
        arrivals: vec![arrival(1.0, 0, 60.0), arrival(2.0, 7, 60.0)],
    };
    let result = sim.run(&workload);
    // The disk-7 arrival targets a disk the server does not have: it is
    // rejected, keeping admitted + rejected == workload length.
    assert_eq!(result.admitted, 1);
    assert_eq!(result.rejected, 1);
}

#[test]
fn per_disk_n_limit_binds_even_with_infinite_memory() {
    let sim = CapacitySim::new(config(SchemeKind::Dynamic, 1, 1000.0)).expect("valid");
    let workload = Workload {
        arrivals: (0..120)
            .map(|i| arrival(1.0 + f64::from(i) * 0.01, 0, 3600.0))
            .collect(),
    };
    let result = sim.run(&workload);
    assert_eq!(result.max_concurrent, 79, "Eq. 1's N binds");
    assert_eq!(result.admitted, 79);
    assert_eq!(result.rejected, 41);
}

#[test]
fn departures_release_capacity() {
    let sim = CapacitySim::new(config(SchemeKind::Static, 1, 0.1)).expect("valid");
    // 0.1 GB admits only a couple of static streams; back-to-back short
    // viewings must be admitted serially as slots free.
    let workload = Workload {
        arrivals: (0..6)
            .map(|i| arrival(1.0 + f64::from(i) * 100.0, 0, 50.0))
            .collect(),
    };
    let result = sim.run(&workload);
    assert_eq!(result.admitted, 6, "serial viewings all fit");
    assert!(result.max_concurrent <= 2);
}

#[test]
fn tighter_memory_admits_fewer() {
    let workload = Workload {
        arrivals: (0..200u32)
            .map(|i| arrival(1.0 + f64::from(i) * 0.5, i % 4, 7200.0))
            .collect(),
    };
    let mut prev = 0;
    for gb in [0.5, 1.0, 2.0, 4.0] {
        let sim = CapacitySim::new(config(SchemeKind::Static, 4, gb)).expect("valid");
        let got = sim.run(&workload).max_concurrent;
        assert!(got >= prev, "capacity dipped at {gb} GB");
        prev = got;
    }
    assert!(prev > 0);
}

#[test]
fn naive_scheme_reserves_less_than_dynamic() {
    // The naive scheme under-sizes buffers, so its *reservations* are
    // smaller and it appears to fit more streams — the capacity it
    // promises is not actually safe (see the underflow ablation).
    let workload = Workload {
        arrivals: (0..300u32)
            .map(|i| arrival(1.0 + f64::from(i) * 0.2, i % 2, 7200.0))
            .collect(),
    };
    let naive = CapacitySim::new(config(SchemeKind::NaiveDynamic, 2, 0.4))
        .expect("valid")
        .run(&workload);
    let dynamic = CapacitySim::new(config(SchemeKind::Dynamic, 2, 0.4))
        .expect("valid")
        .run(&workload);
    assert!(
        naive.max_concurrent >= dynamic.max_concurrent,
        "naive {} vs dynamic {}",
        naive.max_concurrent,
        dynamic.max_concurrent
    );
}
