//! What a repetition's simulators returned, reduced to the counts the
//! metrics need, a digest of every simulated output, and the output
//! checks.

use vod_chaos::ChaosReport;
use vod_cluster::ClusterReport;
use vod_sim::{CapacityResult, DiskRunStats};
use vod_types::Bits;

use crate::workloads::Raw;

/// FNV-1a over the bit patterns of simulated outputs. Two repetitions of
/// the same inputs must produce the same digest.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Counters, `peak_memory` bits and every initial-latency sample.
pub fn digest_stats(s: &DiskRunStats, d: &mut Digest) {
    for v in [
        s.admitted,
        s.rejected,
        s.deferrals,
        s.services,
        s.cycles,
        s.underflows,
    ] {
        d.u64(v);
    }
    d.f64(s.peak_memory.as_f64());
    d.u64(s.il_samples.len() as u64);
    for il in &s.il_samples {
        d.f64(il.arrived.as_secs_f64());
        d.u64(il.n_at_arrival as u64);
        d.f64(il.latency.as_secs_f64());
    }
}

/// Every node's stats plus the front end's own counters.
fn digest_cluster(r: &ClusterReport, d: &mut Digest) {
    for n in &r.nodes {
        d.u64(n.dispatched);
        d.u64(n.redirected_in);
        d.u64(n.redirected_out);
        digest_stats(&n.stats, d);
    }
    d.u64(r.dispatched);
    d.u64(r.redirected);
    d.u64(r.overflow_queued);
}

fn digest_capacity(r: &CapacityResult, d: &mut Digest) {
    d.u64(r.max_concurrent as u64);
    d.u64(r.admitted);
    d.u64(r.rejected);
    d.f64(r.peak_reserved.as_f64());
    for &p in &r.per_disk_peak {
        d.u64(p as u64);
    }
}

/// Checks every engine's own accounting: zero underflows, and every
/// offered request either admitted or rejected.
pub fn check_engine(label: &str, s: &DiskRunStats, offered: u64, violations: &mut Vec<String>) {
    if s.underflows != 0 {
        violations.push(format!("{label}: {} underflows", s.underflows));
    }
    if s.admitted + s.rejected != offered {
        violations.push(format!(
            "{label}: admitted {} + rejected {} != offered {offered}",
            s.admitted, s.rejected
        ));
    }
}

/// The reduced result of one repetition.
#[derive(Default)]
pub struct Outcome {
    /// Requests offered to the simulators.
    pub offered: u64,
    /// Requests rejected, dropped, left unplaceable or underflowed.
    pub failed: u64,
    /// Disk services performed; admission decisions on `capacity_fig14`,
    /// whose model has no disk services.
    pub services: u64,
    /// Peak buffer memory: max over engines, sum over cluster nodes, max
    /// reservation over capacity sims.
    pub peak_buffer_mib: f64,
    /// Initial latency of every admitted request, in simulated seconds.
    pub latencies: Vec<f64>,
    /// Digest of every simulated output.
    pub digest: u64,
    /// Failed output checks, one line each.
    pub violations: Vec<String>,
}

impl Outcome {
    pub fn of(raw: &Raw) -> Outcome {
        let mut d = Digest::default();
        let mut out = Outcome::default();
        match raw {
            Raw::Disk(runs) => {
                for (i, (s, offered)) in runs.iter().enumerate() {
                    check_engine(&format!("engine {i}"), s, *offered, &mut out.violations);
                    digest_stats(s, &mut d);
                    out.offered += offered;
                    out.failed += s.rejected + s.underflows;
                    out.services += s.services;
                    out.peak_buffer_mib = out.peak_buffer_mib.max(s.peak_memory.as_mebibytes());
                    out.latencies
                        .extend(s.il_samples.iter().map(|il| il.latency.as_secs_f64()));
                }
            }
            Raw::Chaos(report) => {
                let c = &report.cluster;
                let s = &report.summary;
                digest_cluster(c, &mut d);
                for v in [
                    s.interrupted,
                    s.migrated,
                    s.parked,
                    s.dropped,
                    s.unplaceable,
                    s.rereplications,
                    s.rereplicated,
                ] {
                    d.u64(v);
                }
                check_chaos(report, &mut out.violations);
                out.offered = c.dispatched;
                out.failed = c.rejected() + s.dropped + s.unplaceable + c.underflows();
                out.services = c.services();
                out.peak_buffer_mib = Bits::new(c.peak_memory_bits()).as_mebibytes();
                out.latencies = c
                    .nodes
                    .iter()
                    .flat_map(|n| n.stats.il_samples.iter())
                    .map(|il| il.latency.as_secs_f64())
                    .collect();
            }
            Raw::Capacity(runs) => {
                for (i, (r, offered)) in runs.iter().enumerate() {
                    if r.admitted + r.rejected != *offered {
                        out.violations.push(format!(
                            "capacity sim {i}: admitted {} + rejected {} != offered {offered}",
                            r.admitted, r.rejected
                        ));
                    }
                    digest_capacity(r, &mut d);
                    out.offered += offered;
                    out.failed += r.rejected;
                    out.services += offered;
                    out.peak_buffer_mib = out.peak_buffer_mib.max(r.peak_reserved.as_mebibytes());
                }
            }
        }
        out.digest = d.finish();
        out
    }
}

/// Chaos accounting: zero underflows on every node, and every interrupted
/// stream migrated, parked or dropped.
pub fn check_chaos(report: &ChaosReport, violations: &mut Vec<String>) {
    for n in &report.cluster.nodes {
        if n.stats.underflows != 0 {
            violations.push(format!(
                "node {}: {} underflows",
                n.node, n.stats.underflows
            ));
        }
    }
    let s = &report.summary;
    if s.interrupted != s.migrated + s.parked + s.dropped {
        violations.push(format!(
            "chaos: interrupted {} != migrated {} + parked {} + dropped {}",
            s.interrupted, s.migrated, s.parked, s.dropped
        ));
    }
}
