//! Property test: redirection-hop spans reconcile with the per-node
//! redirection counters.
//!
//! The front end emits exactly one `Hop` span per counted redirect,
//! annotated `from_node`/`to_node`. Under arbitrary cluster shapes and
//! workloads, the hop spans recovered from a recorder must therefore
//! sum to `ClusterReport::redirected`, and the per-node `from_node` /
//! `to_node` tallies must equal each node's `redirected_out` /
//! `redirected_in`. This is the on-line twin of the audit
//! `repro trace-analyze` runs against a written trace file.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;
use vod_cluster::{Cluster, ClusterConfig, DispatchPolicy, PlacementPolicy};
use vod_core::SchemeKind;
use vod_obs::{AnnoValue, Event, Obs, RecorderSink, SpanKind};
use vod_sched::SchedulingMethod;
use vod_sim::EngineConfig;
use vod_workload::{multi_movie, MultiMovieConfig};

fn dispatch_strategy() -> impl Strategy<Value = DispatchPolicy> {
    prop_oneof![
        Just(DispatchPolicy::LeastLoaded),
        Just(DispatchPolicy::MostHeadroom),
    ]
}

proptest! {
    // Each case runs a full multi-hour cluster simulation; keep the
    // case count small so the suite stays fast.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn hop_spans_reconcile_with_redirection_counters(
        nodes in 2usize..5,
        seed in 0u64..64,
        expected in 120f64..400f64,
        dispatch in dispatch_strategy(),
    ) {
        let movies = nodes * 6;
        // Replicated-hot placement with few replicas is the pressure
        // case: primaries saturate and hand arrivals off, so redirects
        // actually occur for most sampled shapes.
        let cfg = ClusterConfig {
            nodes,
            engine: EngineConfig::paper(SchedulingMethod::RoundRobin, SchemeKind::Dynamic),
            movies,
            movie_theta: 0.271,
            placement: PlacementPolicy::ReplicatedHot { replicas: 2, hot_movies: movies / 2 },
            dispatch,
            seed,
        };
        let mut wl_cfg = MultiMovieConfig::paper_cluster(movies, 0.271, expected);
        wl_cfg.duration = vod_types::Seconds::from_hours(2.0);
        wl_cfg.peak = vod_types::Seconds::from_hours(1.0);
        let wl = multi_movie(&wl_cfg, seed).expect("valid multi-movie config");

        // Span records only — the same kind filter as `repro cluster
        // --trace` — so a 2 h run fits the ring with nothing dropped.
        let recorder = Arc::new(RecorderSink::new().with_kinds(&[
            vod_obs::EventKind::SpanStart,
            vod_obs::EventKind::SpanAnnotate,
            vod_obs::EventKind::SpanEnd,
        ]));
        let cluster = Cluster::with_observer(
            cfg,
            Obs::new(Arc::clone(&recorder) as Arc<dyn vod_obs::Sink>),
        )
        .expect("valid cluster config");
        let report = cluster.run(&wl.arrivals);

        let snap = recorder.snapshot();
        prop_assert_eq!(snap.spans_dropped(), 0, "ring must hold the whole run");

        // Recover each hop span's endpoints from its annotations.
        let mut hop_spans: HashMap<(u64, u64), (Option<u64>, Option<u64>)> = HashMap::new();
        for e in snap.events() {
            match *e {
                Event::SpanStart { trace, span, span_kind: SpanKind::Hop, .. } => {
                    hop_spans.insert((trace.raw(), span.raw()), (None, None));
                }
                Event::SpanAnnotate { trace, span, key, value, .. } => {
                    if let Some(slot) = hop_spans.get_mut(&(trace.raw(), span.raw())) {
                        let AnnoValue::U64(v) = value else {
                            prop_assert!(false, "hop annotations are node indexes");
                            unreachable!()
                        };
                        match key {
                            "from_node" => slot.0 = Some(v),
                            "to_node" => slot.1 = Some(v),
                            other => prop_assert!(false, "unexpected hop annotation `{}`", other),
                        }
                    }
                }
                _ => {}
            }
        }

        prop_assert_eq!(
            hop_spans.len() as u64, report.redirected,
            "one hop span per counted redirect"
        );
        let mut out_by_node: HashMap<u64, u64> = HashMap::new();
        let mut in_by_node: HashMap<u64, u64> = HashMap::new();
        for (&id, &(from, to)) in &hop_spans {
            let (Some(from), Some(to)) = (from, to) else {
                prop_assert!(false, "hop span {:?} missing endpoint annotations", id);
                unreachable!()
            };
            prop_assert_ne!(from, to, "a hop must change nodes");
            *out_by_node.entry(from).or_insert(0) += 1;
            *in_by_node.entry(to).or_insert(0) += 1;
        }
        for n in &report.nodes {
            let node = n.node as u64;
            prop_assert_eq!(
                out_by_node.get(&node).copied().unwrap_or(0),
                n.redirected_out,
                "node {} redirected_out", node
            );
            prop_assert_eq!(
                in_by_node.get(&node).copied().unwrap_or(0),
                n.redirected_in,
                "node {} redirected_in", node
            );
        }
    }
}
