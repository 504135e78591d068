//! Oracle test for the capacity simulator: `CapacitySim::run` memoizes the
//! `(n, k)` reservations and usage periods, orders departures by an
//! integer key and skips the estimator for the static schemes. Every
//! [`CapacityResult`] must equal that of the plain loop below, which
//! orders its departure heap by `Instant`, evaluates every period and
//! reservation at each event and records every arrival for every scheme.
//!
//! Traces mix disks the server has with one it does not, bursts at one
//! instant, and viewings from a small set, so departures tie exactly;
//! near-zero and `-0.0` viewings release a stream at its own arrival
//! instant, and a trace may start at `-0.0`. Each trace replays through
//! all four schemes × three methods × three memory sizes, and the peak
//! reservation is compared by its bits.

use std::collections::BinaryHeap;

use proptest::prelude::*;
use vod_core::scheme::Sizer;
use vod_core::{memory, ArrivalLog, SchemeKind, SystemParams};
use vod_sched::SchedulingMethod;
use vod_sim::{CapacityConfig, CapacityResult, CapacitySim};
use vod_types::{Bits, DiskId, Instant, Seconds, VideoId};
use vod_workload::{Arrival, Workload};

const SCHEMES: [SchemeKind; 4] = [
    SchemeKind::Static,
    SchemeKind::StaticMaxUse,
    SchemeKind::NaiveDynamic,
    SchemeKind::Dynamic,
];
/// Tight admits a few streams per disk, mid a few dozen, ample is bound
/// by `N` alone.
const MEMORY_GB: [f64; 3] = [0.05, 0.6, 1e4];
const T_LOG_S: [f64; 2] = [20.0, 2400.0];
const GAPS: [f64; 6] = [0.0, 0.0, 0.0, 0.5, 2.0, 40.0];
const VIEWINGS: [f64; 7] = [-0.0, 0.0, 1e-12, 0.5, 2.0, 60.0, 3600.0];

/// The capacity loop before memoization, kept as the reference.
struct Reference {
    cfg: CapacityConfig,
    sizer: Sizer,
    big_n: usize,
}

#[derive(PartialEq)]
struct Departure {
    at: Instant,
    disk: usize,
}

impl Eq for Departure {}

impl Ord for Departure {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.at.cmp(&self.at)
    }
}

impl PartialOrd for Departure {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Reference {
    fn new(cfg: CapacityConfig) -> Self {
        let sizer = Sizer::new(cfg.scheme, &cfg.params).expect("valid params");
        Reference {
            big_n: cfg.params.max_requests(),
            cfg,
            sizer,
        }
    }

    fn run(&self, workload: &Workload) -> CapacityResult {
        let d = self.cfg.disks;
        let alpha = self.cfg.params.alpha as usize;
        let mut n = vec![0usize; d];
        let mut k_last = vec![alpha; d];
        let mut reserved = vec![Bits::ZERO; d];
        let mut logs: Vec<ArrivalLog> = (0..d).map(|_| ArrivalLog::new(self.cfg.t_log)).collect();
        let mut departures: BinaryHeap<Departure> = BinaryHeap::new();
        let mut result = CapacityResult {
            per_disk_peak: vec![0; d],
            ..Default::default()
        };
        let mut total_reserved = Bits::ZERO;
        let mut concurrent = 0usize;
        for a in &workload.arrivals {
            while let Some(dep) = departures.peek() {
                if dep.at > a.at {
                    break;
                }
                let dep = departures.pop().expect("peeked");
                n[dep.disk] -= 1;
                concurrent -= 1;
                let k = self.estimate_k(&mut logs[dep.disk], dep.at, n[dep.disk], k_last[dep.disk]);
                k_last[dep.disk] = k;
                let new_res = self.reservation(n[dep.disk], k);
                total_reserved = total_reserved - reserved[dep.disk] + new_res;
                reserved[dep.disk] = new_res;
            }
            let disk = a.disk.index();
            if disk >= d {
                result.rejected += 1;
                continue;
            }
            logs[disk].record(a.at);
            if n[disk] >= self.big_n {
                result.rejected += 1;
                continue;
            }
            let k = self.estimate_k(&mut logs[disk], a.at, n[disk] + 1, k_last[disk]);
            let needed = self.reservation(n[disk] + 1, k);
            let prospective = total_reserved - reserved[disk] + needed;
            if prospective > self.cfg.total_memory {
                result.rejected += 1;
                continue;
            }
            n[disk] += 1;
            k_last[disk] = k;
            total_reserved = prospective;
            reserved[disk] = needed;
            concurrent += 1;
            result.admitted += 1;
            result.max_concurrent = result.max_concurrent.max(concurrent);
            result.per_disk_peak[disk] = result.per_disk_peak[disk].max(n[disk]);
            if total_reserved > result.peak_reserved {
                result.peak_reserved = total_reserved;
            }
            departures.push(Departure {
                at: a.at + a.viewing,
                disk,
            });
        }
        result
    }

    fn reservation(&self, n: usize, k: usize) -> Bits {
        if n == 0 {
            return Bits::ZERO;
        }
        let params = &self.cfg.params;
        match self.cfg.scheme {
            SchemeKind::Static | SchemeKind::StaticMaxUse => {
                let n = n.min(self.big_n);
                memory::min_memory_with(params, self.sizer.max_size(), n, self.big_n - n)
            }
            SchemeKind::NaiveDynamic => {
                memory::min_memory_with(params, self.sizer.size(n, k), n, k)
            }
            SchemeKind::Dynamic => {
                let table = self.sizer.table().expect("the dynamic sizer holds a table");
                memory::min_memory_dynamic(params, table, n, k)
            }
        }
    }

    fn estimate_k(&self, log: &mut ArrivalLog, now: Instant, n: usize, k_prev: usize) -> usize {
        if !self.cfg.scheme.is_dynamic() {
            return 0;
        }
        let params = &self.cfg.params;
        let n_eff = n.max(1);
        let dl = params.method.worst_disk_latency(&params.disk, n_eff);
        let slot = dl + self.sizer.size(n_eff, k_prev) / params.tr();
        let period = slot * (n_eff + k_prev) as f64;
        (log.k_log(now, period) + params.alpha as usize).min(self.big_n)
    }
}

/// One group of arrivals at a single instant.
#[derive(Clone, Copy, Debug)]
struct Burst {
    /// Index into `GAPS`: time to the next burst.
    gap: usize,
    /// The disk, where `disks` itself is one the server does not have.
    disk: u32,
    /// Arrivals in the burst.
    size: usize,
    /// Index into `VIEWINGS`.
    viewing: usize,
}

fn burst() -> impl Strategy<Value = Burst> {
    (0..GAPS.len(), 0u32..5, 1usize..40, 0..VIEWINGS.len()).prop_map(
        |(gap, disk, size, viewing)| Burst {
            gap,
            disk,
            size,
            viewing,
        },
    )
}

/// The trace: bursts in time order from `start`, each burst's arrivals
/// on one disk (folded into `0..=disks`) at one instant, with one
/// viewing time.
fn workload(disks: u32, start: f64, bursts: &[Burst]) -> Workload {
    let mut clock = start;
    let mut arrivals = Vec::new();
    for b in bursts {
        let disk = b.disk % (disks + 1);
        for _ in 0..b.size {
            arrivals.push(Arrival {
                at: Instant::from_secs(clock),
                disk: DiskId::new(disk),
                video: VideoId::new(disk),
                viewing: Seconds::from_secs(VIEWINGS[b.viewing]),
            });
        }
        clock += GAPS[b.gap];
    }
    Workload { arrivals }
}

fn assert_same(got: &CapacityResult, want: &CapacityResult, what: &str) {
    assert_eq!(
        got.max_concurrent, want.max_concurrent,
        "{what}: max_concurrent"
    );
    assert_eq!(got.admitted, want.admitted, "{what}: admitted");
    assert_eq!(got.rejected, want.rejected, "{what}: rejected");
    assert_eq!(
        got.peak_reserved.as_f64().to_bits(),
        want.peak_reserved.as_f64().to_bits(),
        "{what}: peak_reserved {:?} vs {:?}",
        got.peak_reserved,
        want.peak_reserved
    );
    assert_eq!(
        got.per_disk_peak, want.per_disk_peak,
        "{what}: per_disk_peak"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn capacity_sim_matches_the_plain_loop(
        disks in 1u32..5,
        negative_zero_start in 0u8..2,
        t_log in 0..T_LOG_S.len(),
        bursts in prop::collection::vec(burst(), 1..40),
    ) {
        let start = if negative_zero_start == 1 { -0.0 } else { 0.0 };
        let trace = workload(disks, start, &bursts);
        for method in SchedulingMethod::paper_methods() {
            for scheme in SCHEMES {
                for gb in MEMORY_GB {
                    let cfg = CapacityConfig {
                        params: SystemParams::paper_defaults(method),
                        scheme,
                        disks: disks as usize,
                        total_memory: Bits::from_gigabytes(gb),
                        t_log: Seconds::from_secs(T_LOG_S[t_log]),
                    };
                    let want = Reference::new(cfg.clone()).run(&trace);
                    let got = CapacitySim::new(cfg).expect("valid config").run(&trace);
                    assert_same(&got, &want, &format!("{method:?} {scheme} {gb} GB"));
                }
            }
        }
    }
}
