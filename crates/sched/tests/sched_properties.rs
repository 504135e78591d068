//! Property tests for the scheduling methods: latency formulas behave
//! per §2.2 across the whole parameter space.

use proptest::prelude::*;
use vod_disk::DiskProfile;
use vod_sched::{worst_initial_latency, worst_initial_latency_fixed_stretch, SchedulingMethod};
use vod_types::Bits;

fn methods() -> impl Strategy<Value = SchedulingMethod> {
    prop_oneof![
        Just(SchedulingMethod::RoundRobin),
        Just(SchedulingMethod::Sweep),
        (1usize..=16).prop_map(|g| SchedulingMethod::Gss { group_size: g }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn latency_is_positive_finite_and_monotone_in_bs(
        m in methods(),
        n in 1usize..=79,
        mb in 0.1f64..250.0,
    ) {
        let disk = DiskProfile::barracuda_9lp();
        let bs = Bits::from_megabits(mb);
        let il = worst_initial_latency(m, &disk, bs, n);
        prop_assert!(il.is_valid_duration());
        prop_assert!(il.as_secs_f64() > 0.0);
        let il_bigger = worst_initial_latency(m, &disk, Bits::from_megabits(mb * 2.0), n);
        prop_assert!(il_bigger > il, "{m}: IL must grow with BS");
    }

    #[test]
    fn per_buffer_latency_never_exceeds_full_stroke(
        m in methods(),
        n in 1usize..=79,
    ) {
        // γ is concave-ish increasing: a shorter sweep span can never
        // cost more than the full stroke Round-Robin assumes.
        let disk = DiskProfile::barracuda_9lp();
        let dl = m.worst_disk_latency(&disk, n);
        let full = SchedulingMethod::RoundRobin.worst_disk_latency(&disk, n);
        prop_assert!(dl <= full + vod_types::Seconds::from_millis(0.3),
            "{m} at n={n}: {dl} > {full}");
        prop_assert!(dl > disk.seek.max_rotational_delay, "at least one rotation");
    }

    #[test]
    fn gss_interpolates_between_extremes(n in 2usize..=79) {
        let disk = DiskProfile::barracuda_9lp();
        let rr = SchedulingMethod::Gss { group_size: 1 }.worst_disk_latency(&disk, n);
        let sweep_like = SchedulingMethod::Gss { group_size: n }.worst_disk_latency(&disk, n);
        for g in 2..n {
            let dl = SchedulingMethod::Gss { group_size: g }.worst_disk_latency(&disk, n);
            prop_assert!(dl <= rr + vod_types::Seconds::from_millis(0.3));
            prop_assert!(dl >= sweep_like - vod_types::Seconds::from_millis(0.3));
        }
    }

    #[test]
    fn bubbleup_dominates_fixed_stretch(
        n in 1usize..=79,
        mb in 0.1f64..250.0,
    ) {
        let disk = DiskProfile::barracuda_9lp();
        let bs = Bits::from_megabits(mb);
        let bubble = worst_initial_latency(SchedulingMethod::RoundRobin, &disk, bs, n);
        let fixed = worst_initial_latency_fixed_stretch(&disk, bs, n);
        prop_assert!(bubble < fixed);
    }
}
