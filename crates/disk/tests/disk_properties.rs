//! Property tests for the disk substrate: seek-curve sanity over random
//! valid models, and layout extent disjointness over random catalogs.

use proptest::prelude::*;
use vod_disk::{DiskProfile, SeekModel, VideoLayout};
use vod_types::{Bits, Seconds, VideoId};

fn seek_model_strategy() -> impl Strategy<Value = SeekModel> {
    // Build the linear segment first, then derive a continuous sqrt
    // segment (the construction the paper describes: pick μ2, ν2 so γ is
    // continuous at the breakpoint).
    (
        0.1f64..2.0,  // mu1 ms
        0.05f64..0.5, // nu1 ms
        100u32..1000, // breakpoint
        1.0f64..20.0, // theta ms
    )
        .prop_map(|(mu1, nu1, bp, theta)| {
            let x = f64::from(bp);
            // Continuity: mu2 + nu2·x = mu1 + nu1·√x, slope matched at
            // roughly half the sqrt slope.
            let left = mu1 + nu1 * x.sqrt();
            let nu2 = nu1 / (2.0 * x.sqrt());
            let mu2 = left - nu2 * x;
            SeekModel {
                mu1: Seconds::from_millis(mu1),
                nu1: Seconds::from_millis(nu1),
                mu2: Seconds::from_millis(mu2),
                nu2: Seconds::from_millis(nu2),
                breakpoint: bp,
                max_rotational_delay: Seconds::from_millis(theta),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn constructed_models_validate_and_are_monotone(model in seek_model_strategy()) {
        prop_assert!(model.validate().is_ok());
        let mut prev = Seconds::ZERO;
        for x in 0..3000u32 {
            let t = model.seek_time(f64::from(x));
            prop_assert!(t >= prev, "γ dips at x={x}");
            prop_assert!(t.is_valid_duration());
            prev = t;
        }
        // Worst latency dominates the bare seek by exactly θ.
        let dl = model.worst_latency(1234.0);
        let seek = model.seek_time(1234.0);
        prop_assert!((dl.as_secs_f64() - seek.as_secs_f64()
            - model.max_rotational_delay.as_secs_f64()).abs() < 1e-15);
    }

    #[test]
    fn layout_extents_are_disjoint_and_ordered(
        sizes in prop::collection::vec(1.0e8f64..2.0e9, 1..12),
    ) {
        let profile = DiskProfile::barracuda_9lp();
        let mut layout = VideoLayout::new(&profile).expect("valid profile");
        let mut placed = Vec::new();
        for (i, &size) in (0..).zip(&sizes) {
            match layout.place(VideoId::new(i), Bits::new(size)) {
                Ok(ext) => placed.push(ext),
                Err(_) => break, // disk full: acceptable, stop placing
            }
        }
        // Extents tile the disk without overlap, in placement order.
        for pair in placed.windows(2) {
            prop_assert_eq!(pair[0].end_cylinder(), pair[1].start_cylinder);
        }
        for ext in &placed {
            prop_assert!(ext.cylinders >= 1);
            prop_assert!(ext.end_cylinder() <= profile.cylinders);
        }
    }

    #[test]
    fn play_offset_maps_into_the_extent(
        size in 1.0e8f64..2.0e9,
        frac in 0.0f64..1.5,
    ) {
        let profile = DiskProfile::barracuda_9lp();
        let mut layout = VideoLayout::new(&profile).expect("valid profile");
        let v = VideoId::new(0);
        let ext = layout.place(v, Bits::new(size)).expect("one video fits");
        let cyl = layout.cylinder_at(v, Bits::new(size * frac)).expect("placed");
        prop_assert!(cyl >= ext.start_cylinder);
        prop_assert!(cyl < ext.end_cylinder());
        // Offsets are monotone in cylinder.
        let before = layout.cylinder_at(v, Bits::new(size * frac * 0.5)).expect("placed");
        prop_assert!(before <= cyl);
    }

    #[test]
    fn n_formula_matches_strict_inequality(tr_mbps in 10.0f64..400.0, cr_mbps in 0.5f64..20.0) {
        let mut profile = DiskProfile::barracuda_9lp();
        profile.transfer_rate = vod_types::BitRate::from_mbps(tr_mbps);
        let n = profile.max_concurrent_requests(vod_types::BitRate::from_mbps(cr_mbps));
        let ratio = tr_mbps / cr_mbps;
        // N < TR/CR strictly, and N+1 ≥ TR/CR.
        prop_assert!((n as f64) < ratio);
        prop_assert!((n as f64) + 1.0 >= ratio - 1e-9);
    }
}
