//! **E8 — SDN control plane & IP-less routing** (§III).
//!
//! Two questions, one fabric:
//!
//! 1. *Reactive vs proactive rule installation* — how much setup latency do
//!    first flows pay, and how many table entries does each discipline
//!    cost? (The DESIGN.md §4 ablation.)
//! 2. *IP-less routing for migration* — §III: "we are researching IP-less
//!    routing in order to support more flexible and efficient migration."
//!    How much control-plane churn and session breakage does one container
//!    migration cause under IP addressing versus flat labels?

use crate::experiments::ExperimentError;
use crate::report::TextTable;
use picloud_network::topology::{DeviceId, Topology};
use picloud_sdn::controller::{InstallMode, SdnController};
use picloud_sdn::ipless::{AddressingMode, IplessFabric, Label, MigrationImpact};
use picloud_simcore::{SimDuration, SimTime};
use std::fmt;

/// One installation-discipline row.
#[derive(Debug, Clone, PartialEq)]
pub struct InstallModeOutcome {
    /// The discipline.
    pub mode: InstallMode,
    /// Peers each host talked to (workload density).
    pub fanout: usize,
    /// Flows routed in the workload.
    pub flows: usize,
    /// Flows that paid a control-plane round trip.
    pub flows_with_setup: usize,
    /// Total setup latency across all flows.
    pub total_setup: SimDuration,
    /// Table entries across the fabric after the workload.
    pub resident_rules: usize,
    /// Rules installed over the run.
    pub lifetime_rules: u64,
}

/// One addressing-mode migration row.
#[derive(Debug, Clone, PartialEq)]
pub struct AddressingOutcome {
    /// The addressing mode.
    pub mode: AddressingMode,
    /// Client sessions open at migration time.
    pub sessions: usize,
    /// The migration's control-plane impact.
    pub impact: MigrationImpact,
}

/// The SDN experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct SdnExperiment {
    /// Reactive vs proactive.
    pub install_modes: Vec<InstallModeOutcome>,
    /// IP vs label migration churn.
    pub addressing: Vec<AddressingOutcome>,
}

impl SdnExperiment {
    /// Routes an all-pairs-lite workload (every host to `fanout` peers)
    /// under one discipline.
    pub fn run_install_mode(mode: InstallMode, fanout: usize) -> InstallModeOutcome {
        let topo = Topology::multi_root_tree(4, 14, 2);
        let hosts: Vec<DeviceId> = topo.hosts().map(|h| h.id).collect();
        let mut ctrl = SdnController::new(topo, mode);
        let mut pairs = Vec::with_capacity(hosts.len() * fanout);
        for (i, &src) in hosts.iter().enumerate() {
            for k in 1..=fanout {
                let dst = hosts[(i + k * 7) % hosts.len()];
                if dst == src {
                    continue;
                }
                pairs.push((src, dst));
            }
        }
        // The whole workload arrives as one burst; route_batch suppresses
        // duplicate packet-ins within it.
        let mut flows = 0;
        let mut with_setup = 0;
        let mut total_setup = SimDuration::ZERO;
        for out in ctrl.route_batch(&pairs) {
            flows += 1;
            if !out.cache_hit {
                with_setup += 1;
                total_setup = total_setup.saturating_add(out.setup_latency);
            }
        }
        InstallModeOutcome {
            mode,
            fanout,
            flows,
            flows_with_setup: with_setup,
            total_setup,
            resident_rules: ctrl.total_rules(),
            lifetime_rules: ctrl.lifetime_rule_installs(),
        }
    }

    /// Opens `sessions` client sessions to a service container, migrates it
    /// across racks, and reports the churn under one addressing mode.
    ///
    /// # Errors
    ///
    /// [`ExperimentError::Workflow`] if the paper fabric lacks the service
    /// hosts, or the bound label fails to route or migrate.
    pub fn run_addressing(
        mode: AddressingMode,
        sessions: usize,
    ) -> Result<AddressingOutcome, ExperimentError> {
        let topo = Topology::multi_root_tree(4, 14, 2);
        let hosts: Vec<DeviceId> = topo.hosts().map(|h| h.id).collect();
        // The service starts on the last host (rack 3) and moves to the
        // first host of rack 1; clients sit in racks 0-1.
        let (Some(&home), Some(&away)) = (hosts.last(), hosts.get(14)) else {
            return Err(ExperimentError::Workflow(format!(
                "the paper fabric has {} hosts, fewer than the 15 the migration needs",
                hosts.len()
            )));
        };
        let mut fabric = IplessFabric::new(topo, mode);
        let service = Label(1);
        fabric.bind(service, home);
        for &client in hosts.iter().take(28).cycle().take(sessions) {
            fabric.open_session(client, service).ok_or_else(|| {
                ExperimentError::Workflow(format!("bound label does not route from {client}"))
            })?;
        }
        let impact = fabric
            .migrate(service, away, SimTime::from_secs(1))
            .ok_or_else(|| ExperimentError::Workflow("bound label does not migrate".to_owned()))?;
        Ok(AddressingOutcome {
            mode,
            sessions,
            impact,
        })
    }

    /// The full experiment at paper scale: sparse (fanout 1) and dense
    /// (fanout 8) workloads expose the reactive/proactive table-space
    /// crossover.
    ///
    /// # Errors
    ///
    /// As [`SdnExperiment::run_addressing`].
    pub fn paper_scale() -> Result<SdnExperiment, ExperimentError> {
        Ok(SdnExperiment {
            install_modes: vec![
                SdnExperiment::run_install_mode(InstallMode::Reactive, 1),
                SdnExperiment::run_install_mode(InstallMode::Proactive, 1),
                SdnExperiment::run_install_mode(InstallMode::Reactive, 8),
                SdnExperiment::run_install_mode(InstallMode::Proactive, 8),
            ],
            addressing: vec![
                SdnExperiment::run_addressing(AddressingMode::IpSubnet, 20)?,
                SdnExperiment::run_addressing(AddressingMode::FlatLabel, 20)?,
            ],
        })
    }
}

impl fmt::Display for SdnExperiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "E8: SDN rule installation disciplines")?;
        let mut t = TextTable::new(vec![
            "mode".into(),
            "fanout".into(),
            "flows".into(),
            "paid setup".into(),
            "total setup".into(),
            "resident rules".into(),
            "lifetime installs".into(),
        ]);
        for m in &self.install_modes {
            t.row(vec![
                m.mode.to_string(),
                m.fanout.to_string(),
                m.flows.to_string(),
                m.flows_with_setup.to_string(),
                m.total_setup.to_string(),
                m.resident_rules.to_string(),
                m.lifetime_rules.to_string(),
            ]);
        }
        write!(f, "{t}")?;
        writeln!(f, "IP-less routing: one cross-rack migration under load")?;
        let mut t = TextTable::new(vec![
            "addressing".into(),
            "sessions".into(),
            "rules touched".into(),
            "sessions broken".into(),
            "convergence".into(),
        ]);
        for a in &self.addressing {
            t.row(vec![
                a.mode.to_string(),
                a.sessions.to_string(),
                a.impact.rules_touched.to_string(),
                a.impact.flows_disrupted.to_string(),
                a.impact.convergence_latency.to_string(),
            ]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exp() -> SdnExperiment {
        SdnExperiment::paper_scale().unwrap()
    }

    #[test]
    fn proactive_pays_no_setup_reactive_pays_once_per_pair() {
        let e = exp();
        for pair in e.install_modes.chunks(2) {
            let (reactive, proactive) = (&pair[0], &pair[1]);
            assert_eq!(proactive.flows_with_setup, 0);
            assert_eq!(proactive.total_setup, SimDuration::ZERO);
            assert!(reactive.flows_with_setup > 0);
            assert!(reactive.total_setup > SimDuration::ZERO);
            assert_eq!(reactive.flows, proactive.flows);
        }
    }

    #[test]
    fn table_space_crossover_with_workload_density() {
        let e = exp();
        let sparse_reactive = &e.install_modes[0];
        let sparse_proactive = &e.install_modes[1];
        let dense_reactive = &e.install_modes[2];
        let dense_proactive = &e.install_modes[3];
        // Proactive always holds 7 switches x 56 hosts.
        assert_eq!(sparse_proactive.resident_rules, 7 * 56);
        assert_eq!(dense_proactive.resident_rules, 7 * 56);
        // Sparse workload: per-pair reactive rules are cheaper...
        assert!(
            sparse_reactive.resident_rules < sparse_proactive.resident_rules,
            "sparse: reactive {} vs proactive {}",
            sparse_reactive.resident_rules,
            sparse_proactive.resident_rules
        );
        // ...dense workload: reactive's O(pairs) state overtakes it.
        assert!(
            dense_reactive.resident_rules > dense_proactive.resident_rules,
            "dense: reactive {} vs proactive {}",
            dense_reactive.resident_rules,
            dense_proactive.resident_rules
        );
    }

    #[test]
    fn labels_beat_ip_on_every_churn_axis() {
        let e = exp();
        let ip = &e.addressing[0];
        let label = &e.addressing[1];
        assert!(label.impact.rules_touched < ip.impact.rules_touched);
        assert_eq!(label.impact.flows_disrupted, 0);
        assert!(ip.impact.flows_disrupted > 0);
        assert!(label.impact.convergence_latency < ip.impact.convergence_latency);
    }

    #[test]
    fn deterministic() {
        assert_eq!(exp(), exp());
    }

    #[test]
    fn display_has_both_tables() {
        let s = exp().to_string();
        assert!(s.contains("reactive"));
        assert!(s.contains("proactive"));
        assert!(s.contains("flat label"));
        assert!(s.contains("IP subnet"));
    }
}
