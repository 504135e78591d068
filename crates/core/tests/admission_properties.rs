//! Property tests on the admission controller: the inertia assumptions
//! hold across arbitrary interleavings of arrivals, admissions,
//! allocations, and departures, and the controller matches a naive
//! full-scan model on request ids built to defeat its hasher.

use std::collections::btree_map::{BTreeMap, Entry};

use proptest::prelude::*;
use vod_core::{AdmissionController, Allocation, ArrivalLog, SystemParams};
use vod_sched::SchedulingMethod;
use vod_types::{Instant, RequestId, Seconds, VodError};

#[derive(Debug, Clone, Copy)]
enum Op {
    Arrive,
    /// Admit a fresh request, or the i-th (mod len) id of an id set.
    TryAdmit(u8),
    /// Allocate for the i-th (mod len) active stream or id.
    Allocate(u8),
    /// Depart the i-th (mod len) active stream or id.
    Depart(u8),
    Tick(u16),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            Just(Op::Arrive),
            (0u8..255).prop_map(Op::TryAdmit),
            (0u8..255).prop_map(Op::Allocate),
            (0u8..255).prop_map(Op::Depart),
            (1u16..5000).prop_map(Op::Tick),
        ],
        1..200,
    )
}

/// Request ids that a weak integer hasher would pile into a few
/// buckets: multiples of 2³² (identical low halves), values just below
/// `u64::MAX`, and arbitrary ids in no particular order.
fn sparse_ids() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..1 << 32).prop_map(|m| m << 32),
            (0u64..1024).prop_map(|d| u64::MAX - d),
            0u64..=u64::MAX,
        ],
        1..48,
    )
}

/// The model's Assumption-1 bound: `min_i(n_i + k_i)` by full scan.
fn model_bound(records: &BTreeMap<u64, Option<(usize, usize)>>) -> usize {
    records
        .values()
        .flatten()
        .map(|&(n_i, k_i)| n_i + k_i)
        .min()
        .unwrap_or(usize::MAX)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The controller against a naive model — an ordered map of
    /// `(n_i, k_i)` records scanned in full, plus its own arrival log —
    /// on ids chosen to defeat the record table's hasher.
    #[test]
    fn controller_matches_naive_model_on_sparse_ids(ids in sparse_ids(), ops in ops()) {
        let params = SystemParams::paper_defaults(SchedulingMethod::RoundRobin);
        let big_n = params.max_requests();
        let alpha = params.alpha as usize;
        let t_log = Seconds::from_minutes(40.0);
        let mut ctl = AdmissionController::new(params, t_log).expect("valid");
        let mut log = ArrivalLog::new(t_log);
        let mut records: BTreeMap<u64, Option<(usize, usize)>> = BTreeMap::new();
        let mut deferrals = 0u64;
        let mut t = Instant::ZERO;
        let period = Seconds::from_secs(2.0);
        let pick = |i: u8| ids[usize::from(i) % ids.len()];

        for op in ops {
            match op {
                Op::Arrive => {
                    ctl.note_arrival(t);
                    log.record(t);
                }
                Op::TryAdmit(i) => {
                    let raw = pick(i);
                    let id = RequestId::new(raw);
                    let fits = records.len() < big_n && records.len() < model_bound(&records);
                    prop_assert_eq!(ctl.can_admit(), fits);
                    let got = ctl.admit(id);
                    match records.entry(raw) {
                        Entry::Occupied(_) => {
                            prop_assert!(matches!(got, Err(VodError::Config(_))), "{got:?}");
                        }
                        Entry::Vacant(_) if !fits => {
                            prop_assert_eq!(got, Err(VodError::AdmissionDeferred { request: id }));
                            deferrals += 1;
                        }
                        Entry::Vacant(slot) => {
                            prop_assert_eq!(got, Ok(()));
                            slot.insert(None);
                        }
                    }
                }
                Op::Allocate(i) => {
                    let raw = pick(i);
                    let id = RequestId::new(raw);
                    let got = ctl.allocate(id, t, period);
                    if records.contains_key(&raw) {
                        let k_log = log.k_log(t, period);
                        let k_cap = records.values().flatten().map(|&(_, k_i)| k_i + alpha).min();
                        let k = (k_log + alpha).min(k_cap.unwrap_or(usize::MAX)).min(big_n);
                        let n = records.len();
                        prop_assert_eq!(got, Ok(Allocation { n, k, k_log }));
                        records.insert(raw, Some((n, k)));
                    } else {
                        prop_assert_eq!(got, Err(VodError::UnknownRequest(id)));
                    }
                }
                Op::Depart(i) => {
                    let raw = pick(i);
                    let want = match records.remove(&raw) {
                        Some(_) => Ok(()),
                        None => Err(VodError::UnknownRequest(RequestId::new(raw))),
                    };
                    prop_assert_eq!(ctl.depart(RequestId::new(raw)), want);
                }
                Op::Tick(ms) => {
                    t += Seconds::from_millis(f64::from(ms));
                }
            }
            prop_assert_eq!(ctl.active_count(), records.len());
            prop_assert_eq!(ctl.admission_bound(), model_bound(&records).min(big_n));
            prop_assert_eq!(ctl.deferrals(), deferrals);
        }
    }

    #[test]
    fn assumptions_hold_under_arbitrary_interleavings(ops in ops()) {
        let params = SystemParams::paper_defaults(SchedulingMethod::RoundRobin);
        let big_n = params.max_requests();
        let alpha = params.alpha as usize;
        let mut ctl = AdmissionController::new(params, Seconds::from_minutes(40.0))
            .expect("valid");
        let mut t = Instant::ZERO;
        let mut next_id = 0u64;
        let mut active: Vec<RequestId> = Vec::new();
        // (n_i, k_i) records we have observed per active stream.
        let mut records: std::collections::HashMap<RequestId, (usize, usize)> =
            std::collections::HashMap::new();
        let period = Seconds::from_secs(2.0);

        for op in ops {
            match op {
                Op::Arrive => {
                    ctl.note_arrival(t);
                }
                Op::TryAdmit(_) => {
                    let id = RequestId::new(next_id);
                    if ctl.can_admit() {
                        ctl.admit(id).expect("can_admit() said yes");
                        next_id += 1;
                        active.push(id);
                        // Assumption 1 as the paper states it: the new
                        // count respects every recorded bound.
                        for (&_, &(n_i, k_i)) in &records {
                            prop_assert!(
                                active.len() <= n_i + k_i,
                                "admission violated a ({n_i},{k_i}) record"
                            );
                        }
                        prop_assert!(active.len() <= big_n);
                    } else {
                        prop_assert!(ctl.admit(id).is_err());
                    }
                }
                Op::Allocate(i) => {
                    if !active.is_empty() {
                        let id = active[usize::from(i) % active.len()];
                        let alloc = ctl.allocate(id, t, period).expect("active");
                        prop_assert_eq!(alloc.n, active.len());
                        // Assumption 2: k_c ≤ every k_i + α.
                        for (&other, &(_, k_i)) in &records {
                            if other != id {
                                prop_assert!(
                                    alloc.k <= k_i + alpha,
                                    "k_c {} > k_i {} + α", alloc.k, k_i
                                );
                            }
                        }
                        prop_assert!(alloc.k <= big_n);
                        records.insert(id, (alloc.n, alloc.k));
                    }
                }
                Op::Depart(i) => {
                    if !active.is_empty() {
                        let idx = usize::from(i) % active.len();
                        let id = active.swap_remove(idx);
                        ctl.depart(id).expect("active");
                        records.remove(&id);
                    }
                }
                Op::Tick(ms) => {
                    t += Seconds::from_millis(f64::from(ms));
                }
            }
            prop_assert_eq!(ctl.active_count(), active.len());
            prop_assert!(ctl.admission_bound() <= big_n);
        }
    }

    #[test]
    fn estimate_is_side_effect_free(arrivals in 1usize..50) {
        let params = SystemParams::paper_defaults(SchedulingMethod::RoundRobin);
        let mut ctl = AdmissionController::new(params, Seconds::from_minutes(40.0))
            .expect("valid");
        let t = Instant::from_secs(10.0);
        for i in 0..arrivals {
            ctl.note_arrival(Instant::from_secs(i as f64 * 0.1));
        }
        let period = Seconds::from_secs(3.0);
        let first = ctl.estimate_k(t, period);
        let second = ctl.estimate_k(t, period);
        prop_assert_eq!(first, second, "estimate_k must be repeatable");
        prop_assert_eq!(ctl.active_count(), 0, "estimate_k must not admit");
    }
}
