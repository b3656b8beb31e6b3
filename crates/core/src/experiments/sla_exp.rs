//! **E16 — placement density vs service latency** (the SLA half of the
//! §IV ripple effect).
//!
//! Consolidation-friendly policies pack web containers tightly; packed
//! containers share a 700 MHz core and their request latency explodes as
//! the node saturates. The experiment places a fleet of web containers
//! with heterogeneous offered load under every policy, computes each
//! container's latency (weighted-fair CPU share → M/D/1 with that
//! capacity), and scores SLA compliance — the tension between the power
//! experiment's "pack everything" and the tenants' "serve my requests".

use crate::report::TextTable;
use picloud_hardware::cpu::{share_capacity, CpuClaim};
use picloud_placement::cluster::{ClusterView, PlacementRequest};
use picloud_placement::scheduler::{place_all, PlacementError, PolicyKind};
use picloud_simcore::units::Bytes;
use picloud_simcore::SeedFactory;
use picloud_workloads::httpd::{HttpRequest, HttpServerSpec};
use rand::Rng;
use std::collections::BTreeMap;
use std::fmt;

/// One policy's SLA scorecard.
#[derive(Debug, Clone, PartialEq)]
pub struct SlaOutcome {
    /// The policy.
    pub policy: PolicyKind,
    /// Nodes hosting at least one container.
    pub nodes_used: usize,
    /// Containers meeting the SLA.
    pub meeting_sla: usize,
    /// Containers saturated (unbounded latency).
    pub saturated: usize,
    /// 95th-percentile latency over unsaturated containers, seconds.
    pub p95_latency_secs: f64,
}

/// The experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct SlaExperiment {
    /// Number of web containers placed.
    pub containers: usize,
    /// SLA bound, seconds.
    pub sla_secs: f64,
    /// One row per policy.
    pub outcomes: Vec<SlaOutcome>,
}

impl SlaExperiment {
    /// Places `n` web containers with seeded offered loads under every
    /// policy and scores latency against `sla_secs`.
    ///
    /// # Errors
    ///
    /// [`PlacementError`] if the batch exceeds cluster capacity under some
    /// policy.
    pub fn run(seed: u64, n: usize, sla_secs: f64) -> Result<SlaExperiment, PlacementError> {
        let seeds = SeedFactory::new(seed);
        let server = HttpServerSpec::lighttpd();
        let req = HttpRequest::static_page();
        let service = server.cycles_per_request(&req).as_u64() as f64; // cycles
        let mut rng = seeds.stream("sla/load");
        // Offered load per container: 20..180 req/s (a Pi core serves 350).
        let offered: Vec<f64> = (0..n).map(|_| rng.gen_range(20.0..180.0)).collect();
        let requests: Vec<PlacementRequest> = offered
            .iter()
            .map(|rps| PlacementRequest::new(Bytes::mib(30), server.cpu_demand_hz(&req, *rps)))
            .collect();

        let outcomes = PolicyKind::all()
            .into_iter()
            .map(|kind| {
                let mut view = ClusterView::picloud_default().with_cpu_overcommit(4.0);
                let mut policy = kind.build(seed);
                place_all(&mut view, &mut *policy, &requests)?;
                // Group containers by node. `place_all` issues tickets in
                // request order on a fresh view, so the i-th placement in
                // ticket order is container i.
                let mut by_node: BTreeMap<_, Vec<usize>> = BTreeMap::new();
                for (i, (_, node, _)) in view.placements().enumerate() {
                    by_node.entry(node).or_default().push(i);
                }
                // Per node, per container: the *capacity* container i can
                // count on is its max-min share when it asks for the whole
                // core while co-residents offer their actual demand — the
                // work-conserving CFS behaviour. M/D/1 at that capacity.
                let mut latencies: Vec<f64> = Vec::new();
                let mut saturated = 0usize;
                for members in by_node.values() {
                    for (slot, &i) in members.iter().enumerate() {
                        let claims: Vec<CpuClaim> = members
                            .iter()
                            .enumerate()
                            .map(|(s2, &j)| {
                                if s2 == slot {
                                    CpuClaim::new(700e6) // i wants everything
                                } else {
                                    CpuClaim::new(server.cpu_demand_hz(&req, offered[j]))
                                }
                            })
                            .collect();
                        let alloc = share_capacity(700e6, &claims);
                        let mu = alloc[slot] / service; // req/s i can do
                        let lambda = offered[i];
                        if lambda >= mu * 0.999 {
                            saturated += 1;
                            continue;
                        }
                        // M/D/1 sojourn: s + rho * s / (2 (1 - rho)).
                        let s = 1.0 / mu;
                        let rho = lambda / mu;
                        latencies.push(s * (1.0 + rho / (2.0 * (1.0 - rho))));
                    }
                }
                latencies.sort_by(|a, b| a.total_cmp(b));
                let meeting = latencies.iter().filter(|l| **l <= sla_secs).count();
                let p95 = latencies
                    .get(((latencies.len() as f64 * 0.95).ceil() as usize).saturating_sub(1))
                    .copied()
                    .unwrap_or(f64::INFINITY);
                Ok(SlaOutcome {
                    policy: kind,
                    nodes_used: by_node.len(),
                    meeting_sla: meeting,
                    saturated,
                    p95_latency_secs: p95,
                })
            })
            .collect::<Result<_, PlacementError>>()?;
        Ok(SlaExperiment {
            containers: n,
            sla_secs,
            outcomes,
        })
    }

    /// Paper-scale: 168 web containers (3 per board if spread), 50 ms SLA.
    ///
    /// # Errors
    ///
    /// As [`SlaExperiment::run`].
    pub fn paper_scale() -> Result<SlaExperiment, PlacementError> {
        SlaExperiment::run(2013, 168, 0.05)
    }

    /// Looks up a policy row.
    pub fn outcome(&self, kind: PolicyKind) -> Option<&SlaOutcome> {
        self.outcomes.iter().find(|o| o.policy == kind)
    }
}

impl fmt::Display for SlaExperiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E16: {} web containers, {:.0} ms SLA — density vs latency",
            self.containers,
            self.sla_secs * 1e3
        )?;
        let mut t = TextTable::new(vec![
            "policy".into(),
            "nodes used".into(),
            "meeting SLA".into(),
            "saturated".into(),
            "p95 latency".into(),
        ]);
        for o in &self.outcomes {
            t.row(vec![
                o.policy.to_string(),
                o.nodes_used.to_string(),
                o.meeting_sla.to_string(),
                o.saturated.to_string(),
                if o.p95_latency_secs.is_finite() {
                    format!("{:.1} ms", o.p95_latency_secs * 1e3)
                } else {
                    "-".into()
                },
            ]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exp() -> SlaExperiment {
        SlaExperiment::paper_scale().unwrap()
    }

    #[test]
    fn spreading_beats_packing_on_sla() {
        let e = exp();
        let wf = e.outcome(PolicyKind::WorstFit).expect("row");
        let ff = e.outcome(PolicyKind::FirstFit).expect("row");
        assert!(
            wf.meeting_sla > ff.meeting_sla,
            "worst-fit {} vs first-fit {}",
            wf.meeting_sla,
            ff.meeting_sla
        );
        assert!(wf.saturated < ff.saturated);
    }

    #[test]
    fn packing_uses_fewer_nodes() {
        // The other side of the ledger: first-fit's SLA pain buys density.
        let e = exp();
        let wf = e.outcome(PolicyKind::WorstFit).expect("row");
        let ff = e.outcome(PolicyKind::FirstFit).expect("row");
        assert!(ff.nodes_used < wf.nodes_used);
    }

    #[test]
    fn worst_fit_spread_meets_sla_broadly() {
        let e = exp();
        let wf = e.outcome(PolicyKind::WorstFit).expect("row");
        // 3 containers of 20–180 req/s share each 350 req/s core: most —
        // but not all — meet the 50 ms bound (132/168 at this seed).
        assert!(
            wf.meeting_sla as f64 / e.containers as f64 > 0.7,
            "spread placement mostly meets SLA: {}",
            wf.meeting_sla
        );
        assert!(wf.p95_latency_secs < 0.5);
    }

    #[test]
    fn accounting_adds_up() {
        let e = exp();
        for o in &e.outcomes {
            assert!(o.meeting_sla + o.saturated <= e.containers, "{}", o.policy);
        }
    }

    #[test]
    fn deterministic() {
        let run = || SlaExperiment::run(4, 100, 0.05).unwrap();
        assert_eq!(run(), run());
    }

    #[test]
    fn display_tabulates() {
        let s = exp().to_string();
        assert!(s.contains("density vs latency"));
        assert!(s.contains("p95 latency"));
    }
}
