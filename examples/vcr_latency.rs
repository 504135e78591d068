//! VCR responsiveness: in most VOD systems a fast-forward or rewind is a
//! *new* request (the paper's §1), so initial latency is the response
//! time of every VCR button press. This example measures how snappy the
//! buttons feel under each scheme and scheduling method as the house
//! fills up.
//!
//! ```text
//! cargo run --release --example vcr_latency
//! ```

use vod::core::{static_scheme, SchemeKind, SizeTable};
use vod::prelude::*;
use vod::sched::worst_initial_latency;

fn main() {
    println!("Worst-case VCR response time (Eqs. 2-4), seconds:\n");
    println!(
        "{:<14} {:>7} {:>18} {:>18}",
        "method", "viewers", "static scheme", "dynamic scheme"
    );

    for method in SchedulingMethod::paper_methods() {
        let params = SystemParams::paper_defaults(method);
        let table = SizeTable::build(&params);
        let static_bs = static_scheme::static_allocated_size(&params);
        for n in [5usize, 40, 79] {
            let k = 2;
            let il_static = worst_initial_latency(method, &params.disk, static_bs, n);
            let il_dynamic = worst_initial_latency(method, &params.disk, table.size(n, k), n);
            println!(
                "{:<14} {:>7} {:>17.3}s {:>17.3}s",
                method.to_string(),
                n,
                il_static.as_secs_f64(),
                il_dynamic.as_secs_f64(),
            );
        }
        println!();
    }

    // And the felt experience: simulate a binge-watcher skipping ahead
    // every few minutes while 20 other streams play. Each skip is a
    // departure plus a new request.
    println!("Simulated: a viewer pressing skip every 3 minutes while 20 others watch");
    for scheme in [SchemeKind::Static, SchemeKind::Dynamic] {
        let engine = DiskEngine::new(EngineConfig::paper(SchedulingMethod::RoundRobin, scheme))
            .expect("paper parameters are feasible");

        // 20 long-running background streams, then one viewer re-arriving
        // every 3 minutes (each press = depart + rejoin).
        let mut arrivals = Vec::new();
        for i in 0..20u32 {
            arrivals.push(vod::workload::Arrival {
                at: Instant::from_secs(f64::from(i)),
                disk: vod::types::DiskId::new(0),
                video: VideoId::new(i % 6),
                viewing: Seconds::from_hours(1.5),
            });
        }
        for press in 0..20u32 {
            arrivals.push(vod::workload::Arrival {
                at: Instant::from_secs(60.0 + f64::from(press) * 180.0),
                disk: vod::types::DiskId::new(0),
                video: VideoId::new(0),
                viewing: Seconds::from_secs(175.0),
            });
        }
        arrivals.sort_by_key(|a| a.at);
        let stats = engine.run(&arrivals);

        // The skipper's samples are the ones arriving at n ≈ 20.
        let skips: Vec<f64> = stats
            .il_samples
            .iter()
            .filter(|s| s.n_at_arrival >= 19)
            .map(|s| s.latency.as_secs_f64())
            .collect();
        let mean = skips.iter().sum::<f64>() / skips.len().max(1) as f64;
        println!(
            "  {scheme:<14} {} skips, mean response {:.3}s",
            skips.len(),
            mean
        );
    }
}
