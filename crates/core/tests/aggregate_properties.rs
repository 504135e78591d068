//! Property tests for the incremental admission aggregates: the O(1)
//! counting-multiset minima must agree with a naive full scan over the
//! same history, for arbitrary interleavings of inserts, removes,
//! allocations (including re-allocations at an unchanged load, which
//! leave the aggregates untouched), and departures.

use std::collections::HashMap;

use proptest::prelude::*;
use vod_core::{AdmissionConstraint, AdmissionController, MinMultiset, SystemParams};
use vod_sched::SchedulingMethod;
use vod_types::{Instant, RequestId, Seconds};

/// The controller's admission bound and binding constraint vs a scan of
/// the `Allocation`s it handed out: `min_i(n_i + k_i)` capped at `N`.
fn check_against_scan(
    ctl: &mut AdmissionController,
    allocs: &HashMap<RequestId, (usize, usize)>,
    big_n: usize,
) {
    let naive_a1 = allocs
        .values()
        .map(|&(n_i, k_i)| n_i + k_i)
        .min()
        .unwrap_or(usize::MAX);
    assert_eq!(
        ctl.admission_bound(),
        naive_a1.min(big_n),
        "incremental bound != naive scan over handed-out allocations"
    );
    let binding = if naive_a1 < big_n {
        AdmissionConstraint::Assumption1 { bound: naive_a1 }
    } else {
        AdmissionConstraint::DiskBound { bound: big_n }
    };
    assert_eq!(ctl.binding_constraint(), binding);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `MinMultiset` vs the obvious shadow model (a bag of values whose
    /// minimum is recomputed by scanning): identical `min`/`len` after
    /// every operation, including duplicate values and re-inserts after
    /// removal.
    #[test]
    fn multiset_min_matches_naive_scan(
        ops in prop::collection::vec((0u16..512, 0u8..255, 0u8..255), 1..300)
    ) {
        let mut agg = MinMultiset::new();
        let mut shadow: Vec<usize> = Vec::new();
        for (value, select, pick) in ops {
            if shadow.is_empty() || select < 170 {
                agg.insert(usize::from(value));
                shadow.push(usize::from(value));
            } else {
                let victim = shadow.swap_remove(usize::from(pick) % shadow.len());
                agg.remove(victim);
            }
            prop_assert_eq!(agg.len(), shadow.len());
            prop_assert_eq!(agg.min(), shadow.iter().copied().min());
        }
    }

    /// The controller's Assumption-1 admission bound vs a shadow rebuilt
    /// from the `Allocation`s it handed out: `min_i(n_i + k_i)` capped at
    /// `N`, recomputed by scanning the shadow after every step. (In debug
    /// builds the controller additionally cross-checks its internal
    /// aggregates against its own record table on every read.) The
    /// Assumption-2 clamp is visible through `estimate_k`: the estimate
    /// never exceeds the smallest outstanding `k_i` plus `α`. One step
    /// kind re-allocates every active stream, one to three rounds at a
    /// single instant, so most of those allocations repeat the stream's
    /// previous `(n_i, k_i)`.
    #[test]
    fn admission_bound_matches_shadow_scan(
        ops in prop::collection::vec((0u8..255, 0u8..255), 1..250)
    ) {
        let params = SystemParams::paper_defaults(SchedulingMethod::RoundRobin);
        let big_n = params.max_requests();
        let alpha = params.alpha as usize;
        let mut ctl =
            AdmissionController::new(params, Seconds::from_minutes(40.0)).expect("valid");
        let period = Seconds::from_secs(2.0);
        let mut t = Instant::ZERO;
        let mut next_id = 0u64;
        let mut active: Vec<RequestId> = Vec::new();
        let mut allocs: HashMap<RequestId, (usize, usize)> = HashMap::new();

        for (select, pick) in ops {
            match select % 6 {
                // Arrive + admit when the controller allows it.
                0 | 1 => {
                    ctl.note_arrival(t);
                    if ctl.can_admit() {
                        let id = RequestId::new(next_id);
                        next_id += 1;
                        ctl.admit(id).expect("can_admit() said yes");
                        active.push(id);
                    }
                }
                // Allocate for some active stream; record what it got.
                2 | 3 => {
                    if !active.is_empty() {
                        let id = active[usize::from(pick) % active.len()];
                        let alloc = ctl.allocate(id, t, period).expect("active");
                        allocs.insert(id, (alloc.n, alloc.k));
                    }
                }
                // Re-allocate everyone at one instant, at an unchanged load.
                4 => {
                    for _ in 0..=pick % 3 {
                        for &id in &active {
                            let alloc = ctl.allocate(id, t, period).expect("active");
                            allocs.insert(id, (alloc.n, alloc.k));
                            check_against_scan(&mut ctl, &allocs, big_n);
                        }
                    }
                }
                // Depart some active stream.
                _ => {
                    if !active.is_empty() {
                        let id = active.swap_remove(usize::from(pick) % active.len());
                        ctl.depart(id).expect("active");
                        allocs.remove(&id);
                    }
                }
            }
            t += Seconds::from_millis(250.0);

            check_against_scan(&mut ctl, &allocs, big_n);
            if let Some(min_k) = allocs.values().map(|&(_, k_i)| k_i).min() {
                let (k_c, _) = ctl.estimate_k(t, period);
                prop_assert!(
                    k_c <= min_k + alpha,
                    "Assumption-2 clamp violated: k_c {} > min k_i {} + α {}",
                    k_c,
                    min_k,
                    alpha
                );
            }
        }
    }
}

/// A second allocation round at the same instant and load hands every
/// stream the `(n_i, k_i)` it already holds, which takes the path that
/// leaves both aggregates untouched; the bound and the binding constraint
/// must not move.
#[test]
fn unchanged_reallocation_keeps_the_bound() {
    let params = SystemParams::paper_defaults(SchedulingMethod::RoundRobin);
    let big_n = params.max_requests();
    let mut ctl = AdmissionController::new(params, Seconds::from_minutes(40.0)).expect("valid");
    let (t, period) = (Instant::from_secs(30.0), Seconds::from_secs(2.0));
    let ids: Vec<RequestId> = (0..12).map(RequestId::new).collect();
    for &id in &ids {
        ctl.note_arrival(Instant::from_secs(1.0));
        ctl.admit(id).expect("far below the bound");
    }
    let mut allocs = HashMap::new();
    for &id in &ids {
        let alloc = ctl.allocate(id, t, period).expect("admitted");
        allocs.insert(id, (alloc.n, alloc.k));
    }
    check_against_scan(&mut ctl, &allocs, big_n);
    let bound = ctl.admission_bound();
    for round in 0..3 {
        for &id in &ids {
            let alloc = ctl.allocate(id, t, period).expect("admitted");
            assert_eq!((alloc.n, alloc.k), allocs[&id], "round {round}: {id}");
            check_against_scan(&mut ctl, &allocs, big_n);
        }
    }
    assert_eq!(ctl.admission_bound(), bound);
}
