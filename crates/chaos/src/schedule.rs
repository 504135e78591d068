//! Fault schedules: typed faults pinned to (instant, node), built from a
//! seed, a script, or an explicit event list.
//!
//! A schedule is data, not behaviour — the [`crate::runner`] interprets
//! it against a live cluster. Keeping the two apart means a schedule can
//! be printed, diffed, committed next to a bench baseline, and replayed
//! bit-identically on any machine.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vod_types::{Instant, Seconds};

use crate::domain::{DomainEvent, DomainFault, DomainMap};

/// How a rejoining node rebuilds its buffer-size tables (the paper's
/// precomputed `BS_k` tables, `SizeTable` here).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejoinMode {
    /// Reuse the process-wide shared table cache
    /// ([`vod_core::SizeTable::shared`]) — a warm standby that kept its
    /// precomputed state.
    Warm,
    /// Rebuild the tables from scratch ([`vod_core::SizeTable::build`])
    /// — a cold restart that lost them. The rebuilt table is
    /// bit-identical (it is a pure function of the system parameters);
    /// only the cost differs, which is exactly the paper's point about
    /// precomputing `BS_k` offline.
    Cold,
}

/// One typed fault. Slow/pressure factors describe *severity*, and both
/// map onto admission-side throttles — the engine's service loop is
/// untouched, because under the paper's model a slower disk is
/// equivalent to a smaller stream capacity `N` (§3: the admission bound
/// `min(min_i(n_i + k_i), N)` is where disk speed enters), and
/// tightening admission can never cause an underflow.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Fault {
    /// The node halts: every active stream and queued request is evicted
    /// and the node is excluded from routing until it rejoins.
    NodeCrash,
    /// The node's disk slows by `factor` (≥ 1; 2.0 = half speed). Its
    /// effective stream capacity shrinks to `N / factor`.
    NodeSlow {
        /// Slowdown multiple (≥ 1.0).
        factor: f64,
    },
    /// `fraction` of the node's memory budget (in `[0, 1]`) is withheld
    /// from the buffer pool — a co-tenant grabbing RAM.
    MemoryPressure {
        /// Fraction of the budget withheld.
        fraction: f64,
    },
    /// The node returns to service: routing re-includes it, throttles
    /// (whole-node *and* per-disk) clear, and parked requests get a
    /// re-admission pass.
    NodeRejoin {
        /// `None` defers to the run's [`crate::RecoveryPolicy`].
        mode: Option<RejoinMode>,
    },
    /// A *partial* fault: one disk of the node degrades by `factor` ≥ 1
    /// while the node stays up. With `d` configured disks each owns an
    /// equal share of the stream bound, so the node keeps
    /// `(d − 1 + 1/factor) / d` of its admission capacity — a fraction
    /// of the node throttles instead of the whole thing.
    DiskDegrade {
        /// Target disk index (validated against the engine's disk
        /// count at run start).
        disk: usize,
        /// Slowdown multiple of that one disk (≥ 1.0).
        factor: f64,
    },
    /// A *partial* fault: the node's disks fail a fraction `rate` of
    /// requests. Deterministic by the paper's equivalence — an error
    /// rate `r` is a `1 − r` multiplier on the admission bound, never a
    /// random per-request coin flip.
    DiskError {
        /// Failing fraction in `[0, 1)`.
        rate: f64,
    },
}

impl Fault {
    /// Stable label for events, metrics, and scripts.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Fault::NodeCrash => "crash",
            Fault::NodeSlow { .. } => "slow",
            Fault::MemoryPressure { .. } => "pressure",
            Fault::NodeRejoin { .. } => "rejoin",
            Fault::DiskDegrade { .. } => "degrade",
            Fault::DiskError { .. } => "error",
        }
    }
}

/// One scheduled fault: what happens to which node, when.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    /// Simulated instant the fault fires (applied before any arrival at
    /// the same instant).
    pub at: Instant,
    /// Target node index.
    pub node: usize,
    /// The fault itself.
    pub fault: Fault,
}

/// A time-sorted fault schedule. The empty schedule is the identity:
/// running it leaves the cluster byte-identical to a plain run.
#[derive(Clone, Debug, Default)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
    /// Domain-level events this schedule was expanded from (0 for flat
    /// schedules). Accounting only: by the time the runner executes,
    /// every event is per-node.
    domain_events: u64,
}

impl FaultSchedule {
    /// The empty schedule (no faults; bit-identical to no chaos at all).
    #[must_use]
    pub fn empty() -> Self {
        Self::default()
    }

    /// Builds a schedule from explicit events, stable-sorting by
    /// `(at, node)` so same-instant faults on different nodes apply in
    /// node order and same-cell faults keep their authored order.
    #[must_use]
    pub fn from_events(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by(|a, b| {
            a.at.as_secs_f64()
                .total_cmp(&b.at.as_secs_f64())
                .then(a.node.cmp(&b.node))
        });
        Self {
            events,
            domain_events: 0,
        }
    }

    /// Builds a schedule from domain-level events layered over `map`,
    /// merged with flat per-node events. Each [`DomainEvent`] expands to
    /// one [`FaultEvent`] per member node *at the same instant*, and the
    /// merged list gets the same `(at, node)` stable sort as
    /// [`Self::from_events`] — so a domain schedule is indistinguishable
    /// from the equivalent hand-written flat schedule, and with an empty
    /// map and no domain events this *is* `from_events(node_events)`,
    /// bit for bit.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first domain event addressing a
    /// domain absent from the map.
    pub fn with_domains(
        map: &DomainMap,
        domain_events: &[DomainEvent],
        node_events: Vec<FaultEvent>,
    ) -> Result<Self, String> {
        let mut events = node_events;
        for de in domain_events {
            let Some(members) = map.nodes_of(&de.domain) else {
                return Err(format!(
                    "domain event at t={} targets unknown domain `{}`",
                    de.at.as_secs_f64(),
                    de.domain
                ));
            };
            let fault = match de.fault {
                DomainFault::Crash => Fault::NodeCrash,
                DomainFault::Slow { factor } => Fault::NodeSlow { factor },
                DomainFault::Rejoin { mode } => Fault::NodeRejoin { mode },
            };
            events.extend(members.iter().map(|&node| FaultEvent {
                at: de.at,
                node,
                fault,
            }));
        }
        let mut schedule = Self::from_events(events);
        schedule.domain_events = domain_events.len() as u64;
        Ok(schedule)
    }

    /// Parses a fault script. One statement per line:
    ///
    /// ```text
    /// domain <name> <node> [<node> ...]        # declare a failure domain
    /// <t_secs> <node> crash
    /// <t_secs> <node> slow:<factor>
    /// <t_secs> <node> pressure:<fraction>
    /// <t_secs> <node> rejoin[:warm|:cold]
    /// <t_secs> <node> degrade:<disk>:<factor>  # partial: one disk slows
    /// <t_secs> <node> error:<rate>             # partial: error-rate throttle
    /// <t_secs> @<name> crash|slow:<f>|rejoin[:...]   # correlated domain fault
    /// ```
    ///
    /// Domain faults expand to one per-node event per member at the same
    /// instant; a domain must be declared before it is used. Blank lines
    /// and `#` comments are ignored.
    ///
    /// # Errors
    ///
    /// Returns a `line N: reason` message naming the offending token for
    /// the first malformed line, and rejects duplicate `(t, node)`
    /// events with a diagnostic naming both lines.
    pub fn from_script(src: &str) -> Result<Self, String> {
        let mut map = DomainMap::empty();
        let mut domain_count: u64 = 0;
        // (event, 1-based source line) — domain faults carry the domain
        // line, so duplicate diagnostics always point at real script
        // lines.
        let mut events: Vec<(FaultEvent, usize)> = Vec::new();
        for (idx, raw) in src.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let lineno = idx + 1;
            let err = |reason: String| format!("line {lineno}: {reason}");
            let fields: Vec<&str> = line.split_whitespace().collect();
            if fields[0] == "domain" {
                let [_, name, members @ ..] = fields.as_slice() else {
                    return Err(err("domain needs a name and at least one member node \
                         (want `domain <name> <node> [<node> ...]`)"
                        .to_string()));
                };
                if members.is_empty() {
                    return Err(err(format!(
                        "domain `{name}` needs at least one member node \
                         (want `domain <name> <node> [<node> ...]`)"
                    )));
                }
                let mut nodes = Vec::with_capacity(members.len());
                for m in members {
                    let node: usize = m
                        .parse()
                        .map_err(|_| err(format!("bad node index `{m}`")))?;
                    nodes.push(node);
                }
                let mut pairs: Vec<(String, Vec<usize>)> = map
                    .iter()
                    .map(|(n, ns)| (n.to_string(), ns.to_vec()))
                    .collect();
                pairs.push(((*name).to_string(), nodes));
                map = DomainMap::from_domains(pairs).map_err(err)?;
                continue;
            }
            let [t, target, kind] = fields.as_slice() else {
                return Err(err(format!(
                    "expected `<t_secs> <node|@domain> <fault>`, got {} fields",
                    fields.len()
                )));
            };
            let at: f64 = t.parse().map_err(|_| err(format!("bad time `{t}`")))?;
            if !at.is_finite() || at < 0.0 {
                return Err(err(format!("time `{t}` must be finite and non-negative")));
            }
            let at = Instant::from_secs(at);
            let fault = Self::parse_fault(kind).map_err(err)?;
            if let Some(name) = target.strip_prefix('@') {
                let Some(members) = map.nodes_of(name) else {
                    return Err(err(format!(
                        "unknown domain `{name}` (declare it first with `domain {name} ...`)"
                    )));
                };
                if matches!(fault, Fault::DiskDegrade { .. } | Fault::DiskError { .. }) {
                    return Err(err(format!(
                        "partial fault `{kind}` targets a single node, not domain `@{name}`"
                    )));
                }
                domain_count += 1;
                events.extend(
                    members
                        .iter()
                        .map(|&node| (FaultEvent { at, node, fault }, lineno)),
                );
            } else {
                let node: usize = target
                    .parse()
                    .map_err(|_| err(format!("bad node index `{target}`")))?;
                events.push((FaultEvent { at, node, fault }, lineno));
            }
        }
        // Duplicate (t, node) events are ambiguous (which fault wins?)
        // and almost always a script typo: reject with both lines named.
        let mut keys: Vec<(u64, usize, usize)> = events
            .iter()
            .map(|(e, line)| (e.at.as_secs_f64().to_bits(), e.node, *line))
            .collect();
        keys.sort_unstable();
        for w in keys.windows(2) {
            if w[0].0 == w[1].0 && w[0].1 == w[1].1 {
                return Err(format!(
                    "line {}: duplicate fault for node {} at t={} (first scheduled at line {})",
                    w[1].2,
                    w[1].1,
                    f64::from_bits(w[1].0),
                    w[0].2,
                ));
            }
        }
        let mut schedule = Self::from_events(events.into_iter().map(|(e, _)| e).collect());
        schedule.domain_events = domain_count;
        Ok(schedule)
    }

    /// Parses one `<fault>` token of the script grammar.
    fn parse_fault(kind: &str) -> Result<Fault, String> {
        Ok(match kind.split_once(':') {
            None if kind == "crash" => Fault::NodeCrash,
            None if kind == "rejoin" => Fault::NodeRejoin { mode: None },
            Some(("slow", f)) => {
                let factor: f64 = f.parse().map_err(|_| format!("bad slow factor `{f}`"))?;
                if !(factor >= 1.0 && factor.is_finite()) {
                    return Err(format!("slow factor `{f}` must be >= 1"));
                }
                Fault::NodeSlow { factor }
            }
            Some(("pressure", f)) => {
                let fraction: f64 = f
                    .parse()
                    .map_err(|_| format!("bad pressure fraction `{f}`"))?;
                if !(0.0..=1.0).contains(&fraction) {
                    return Err(format!("pressure fraction `{f}` must be in [0, 1]"));
                }
                Fault::MemoryPressure { fraction }
            }
            Some(("rejoin", "warm")) => Fault::NodeRejoin {
                mode: Some(RejoinMode::Warm),
            },
            Some(("rejoin", "cold")) => Fault::NodeRejoin {
                mode: Some(RejoinMode::Cold),
            },
            Some(("degrade", rest)) => {
                let Some((disk, f)) = rest.split_once(':') else {
                    return Err(format!(
                        "degrade wants `degrade:<disk>:<factor>`, got `{kind}`"
                    ));
                };
                let disk: usize = disk
                    .parse()
                    .map_err(|_| format!("bad disk index `{disk}`"))?;
                let factor: f64 = f.parse().map_err(|_| format!("bad degrade factor `{f}`"))?;
                if !(factor >= 1.0 && factor.is_finite()) {
                    return Err(format!("degrade factor `{f}` must be >= 1"));
                }
                Fault::DiskDegrade { disk, factor }
            }
            Some(("error", r)) => {
                let rate: f64 = r.parse().map_err(|_| format!("bad error rate `{r}`"))?;
                if !(0.0..1.0).contains(&rate) {
                    return Err(format!("error rate `{r}` must be in [0, 1)"));
                }
                Fault::DiskError { rate }
            }
            _ => {
                return Err(format!(
                    "unknown fault `{kind}` (want crash | slow:<f> | pressure:<f> | \
                     rejoin[:warm|:cold] | degrade:<disk>:<f> | error:<r>)"
                ))
            }
        })
    }

    /// Generates a random-but-reproducible schedule: a pure function of
    /// `(seed, nodes, horizon)`. Each episode strikes one node with one
    /// fault in the first 60% of the horizon and rejoins it later, so
    /// seeded runs always exercise both failover *and* recovery.
    #[must_use]
    pub fn from_seed(seed: u64, nodes: usize, horizon: Seconds) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let h = horizon.as_secs_f64();
        let episodes = 1 + nodes / 2;
        let mut events = Vec::with_capacity(episodes * 2);
        for _ in 0..episodes {
            let node = rng.gen_range(0..nodes);
            let start = h * rng.gen_range(0.10..0.60);
            let heal = start + h * rng.gen_range(0.10..0.30);
            let fault = match rng.gen_range(0..3u64) {
                0 => Fault::NodeCrash,
                1 => Fault::NodeSlow {
                    factor: rng.gen_range(1.5..6.0),
                },
                _ => Fault::MemoryPressure {
                    fraction: rng.gen_range(0.2..0.8),
                },
            };
            events.push(FaultEvent {
                at: Instant::from_secs(start),
                node,
                fault,
            });
            events.push(FaultEvent {
                at: Instant::from_secs(heal),
                node,
                fault: Fault::NodeRejoin { mode: None },
            });
        }
        Self::from_events(events)
    }

    /// True when the schedule carries no faults.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled faults.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The events, time-sorted.
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Largest node index referenced, if any (for validation against a
    /// cluster's node count).
    #[must_use]
    pub fn max_node(&self) -> Option<usize> {
        self.events.iter().map(|e| e.node).max()
    }

    /// Largest disk index referenced by a [`Fault::DiskDegrade`] event,
    /// if any (for validation against the engine's disk count).
    #[must_use]
    pub fn max_disk(&self) -> Option<usize> {
        self.events
            .iter()
            .filter_map(|e| match e.fault {
                Fault::DiskDegrade { disk, .. } => Some(disk),
                _ => None,
            })
            .max()
    }

    /// Domain-level events this schedule was expanded from (0 for flat
    /// schedules).
    #[must_use]
    pub fn domain_event_count(&self) -> u64 {
        self.domain_events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_round_trips_every_fault_kind() {
        let s = FaultSchedule::from_script(
            "# chaos script\n\
             10 0 crash\n\
             20 1 slow:4\n\
             30 0 rejoin:cold\n\
             40 1 rejoin:warm\n\
             5 1 pressure:0.5\n\
             \n\
             50 0 rejoin\n",
        )
        .expect("valid script");
        assert_eq!(s.len(), 6);
        // Sorted by time despite authored order.
        assert_eq!(s.events()[0].at, Instant::from_secs(5.0));
        assert_eq!(s.events()[0].fault, Fault::MemoryPressure { fraction: 0.5 });
        assert_eq!(s.events()[1].fault, Fault::NodeCrash);
        assert_eq!(s.events()[5].fault, Fault::NodeRejoin { mode: None },);
        assert_eq!(s.max_node(), Some(1));
    }

    #[test]
    fn script_errors_name_the_line() {
        for (src, needle) in [
            ("10 0", "line 1"),
            ("x 0 crash", "bad time"),
            ("10 0 slow:0.5", "slow factor"),
            ("10 0 pressure:1.5", "pressure fraction"),
            ("10 0 melt", "unknown fault"),
            ("10 0 crash extra", "expected"),
            ("-1 0 crash", "non-negative"),
        ] {
            let err = FaultSchedule::from_script(src).unwrap_err();
            assert!(err.contains(needle), "{src:?} -> {err}");
        }
    }

    #[test]
    fn script_errors_name_the_offending_token() {
        for (src, needle) in [
            ("abc 0 crash", "`abc`"),
            ("10 zz crash", "`zz`"),
            ("10 0 slow:fast", "`fast`"),
            ("10 0 melt", "`melt`"),
            ("10 0 degrade:1", "degrade:<disk>:<factor>"),
            ("10 0 degrade:x:2", "`x`"),
            ("10 0 degrade:1:0.5", "`0.5`"),
            ("10 0 error:1.5", "`1.5`"),
            ("10 @zone crash", "unknown domain `zone`"),
            ("domain z", "at least one member"),
            ("domain z 0 q", "`q`"),
            ("domain z 0\ndomain z 1", "duplicate domain"),
            ("domain z 0\n10 @z degrade:0:2", "single node"),
        ] {
            let err = FaultSchedule::from_script(src).unwrap_err();
            assert!(err.contains(needle), "{src:?} -> {err}");
        }
    }

    #[test]
    fn script_rejects_duplicate_time_node_events() {
        let err = FaultSchedule::from_script(
            "# two faults on the same node at the same instant\n\
             10 0 crash\n\
             20 1 slow:2\n\
             10 0 pressure:0.5\n",
        )
        .unwrap_err();
        assert!(err.contains("line 4"), "{err}");
        assert!(err.contains("duplicate fault"), "{err}");
        assert!(err.contains("node 0"), "{err}");
        assert!(err.contains("line 2"), "{err}");
        // A domain expansion colliding with an explicit event is caught
        // too — the diagnostic points at the domain-fault line.
        let err = FaultSchedule::from_script(
            "domain z 0 2\n\
             10 @z crash\n\
             10 2 crash\n",
        )
        .unwrap_err();
        assert!(err.contains("duplicate fault"), "{err}");
        assert!(err.contains("node 2"), "{err}");
    }

    #[test]
    fn script_domain_faults_expand_in_node_order() {
        let s = FaultSchedule::from_script(
            "domain rack0 2 0\n\
             domain rack1 1 3\n\
             100 @rack0 crash\n\
             200 @rack0 rejoin:warm\n\
             150 1 slow:2\n",
        )
        .expect("valid script");
        assert_eq!(s.len(), 5);
        assert_eq!(s.domain_event_count(), 2);
        let got: Vec<(f64, usize)> = s
            .events()
            .iter()
            .map(|e| (e.at.as_secs_f64(), e.node))
            .collect();
        assert_eq!(
            got,
            vec![(100.0, 0), (100.0, 2), (150.0, 1), (200.0, 0), (200.0, 2)]
        );
        assert_eq!(s.events()[0].fault, Fault::NodeCrash);
        assert_eq!(
            s.events()[3].fault,
            Fault::NodeRejoin {
                mode: Some(RejoinMode::Warm)
            }
        );
    }

    #[test]
    fn script_partial_faults_round_trip() {
        let s = FaultSchedule::from_script(
            "10 0 degrade:1:4\n\
             20 1 error:0.25\n",
        )
        .expect("valid script");
        assert_eq!(
            s.events()[0].fault,
            Fault::DiskDegrade {
                disk: 1,
                factor: 4.0
            }
        );
        assert_eq!(s.events()[1].fault, Fault::DiskError { rate: 0.25 });
        assert_eq!(s.max_disk(), Some(1));
        assert_eq!(s.domain_event_count(), 0);
    }

    #[test]
    fn with_domains_matches_flat_expansion_and_rejects_unknown() {
        let map = DomainMap::racks(4, 2);
        let de = vec![DomainEvent {
            at: Instant::from_secs(100.0),
            domain: "rack0".to_string(),
            fault: DomainFault::Crash,
        }];
        let s = FaultSchedule::with_domains(&map, &de, Vec::new()).expect("known domain");
        let flat = FaultSchedule::from_events(
            [0usize, 2]
                .iter()
                .map(|&node| FaultEvent {
                    at: Instant::from_secs(100.0),
                    node,
                    fault: Fault::NodeCrash,
                })
                .collect(),
        );
        assert_eq!(s.events(), flat.events());
        assert_eq!(s.domain_event_count(), 1);

        let bad = vec![DomainEvent {
            at: Instant::from_secs(1.0),
            domain: "zone-x".to_string(),
            fault: DomainFault::Crash,
        }];
        assert!(FaultSchedule::with_domains(&map, &bad, Vec::new())
            .unwrap_err()
            .contains("unknown domain"));

        // Empty map + no domain events ≡ from_events, bit for bit.
        let node_events = vec![FaultEvent {
            at: Instant::from_secs(5.0),
            node: 1,
            fault: Fault::NodeSlow { factor: 2.0 },
        }];
        let a = FaultSchedule::with_domains(&DomainMap::empty(), &[], node_events.clone())
            .expect("no domains needed");
        let b = FaultSchedule::from_events(node_events);
        assert_eq!(a.events(), b.events());
        assert_eq!(a.domain_event_count(), 0);
    }

    #[test]
    fn seeded_schedules_are_reproducible_and_heal() {
        let a = FaultSchedule::from_seed(42, 4, Seconds::from_hours(2.0));
        let b = FaultSchedule::from_seed(42, 4, Seconds::from_hours(2.0));
        assert_eq!(a.events(), b.events());
        assert!(!a.is_empty());
        // Every episode pairs a strike with a rejoin.
        let rejoins = a
            .events()
            .iter()
            .filter(|e| matches!(e.fault, Fault::NodeRejoin { .. }))
            .count();
        assert_eq!(rejoins * 2, a.len());
        let c = FaultSchedule::from_seed(43, 4, Seconds::from_hours(2.0));
        assert_ne!(a.events(), c.events());
        // Sorted by time.
        assert!(a.events().windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn empty_is_empty() {
        assert!(FaultSchedule::empty().is_empty());
        assert_eq!(FaultSchedule::empty().max_node(), None);
        assert_eq!(FaultSchedule::default().len(), 0);
    }
}
