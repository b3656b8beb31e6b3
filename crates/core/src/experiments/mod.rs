//! One module per reproduced table, figure and claim.
//!
//! The index lives in `DESIGN.md` §3; in code:
//!
//! | Paper artifact | Module |
//! |---|---|
//! | Table I (cost/power/cooling) + §IV cooling claim | [`table1`] |
//! | Fig. 2 (architecture, fat-tree re-cable) | [`fig2`] |
//! | Fig. 3 (software stack) + §II-B density claim | [`fig3`] |
//! | Fig. 4 (management panel) | [`fig4`] |
//! | §III/§IV whole-cloud power, single socket | [`power`] |
//! | §III placement & consolidation | [`placement_exp`] |
//! | §VI live migration | [`migration_exp`] |
//! | §I traffic realism / congestion | [`traffic_exp`] |
//! | §III SDN + IP-less routing | [`sdn_exp`] |
//! | §IV scale-model fidelity | [`fidelity`] |
//! | failure study (paper ref.\ 2) | [`failure_exp`] |
//! | §III P2P management | [`p2p_mgmt`] |
//! | §II-A image distribution | [`image_dist`] |
//! | §III oversubscription | [`oversub_exp`] |
//! | §III power / cpufreq governors | [`dvfs_exp`] |
//! | §IV SLA vs density | [`sla_exp`] |
//! | §I failure recovery / self-healing | [`recovery_exp`] |
//! | model-only: estimation mode vs exact oracle | [`estimate_exp`] |
//!
//! Every experiment is deterministic given its seed, returns a typed
//! result, and `Display`s as an aligned text table so the bench harness
//! regenerates paper-style output. Experiments whose workflow drives a
//! fallible API (the management plane, the scheduler, gossip, the IP-less
//! fabric) return `Result<_, ExperimentError>` instead of panicking.

pub mod dvfs_exp;
pub mod estimate_exp;
pub mod failure_exp;
pub mod fidelity;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod image_dist;
pub mod migration_exp;
pub mod oversub_exp;
pub mod p2p_mgmt;
pub mod placement_exp;
pub mod power;
pub mod recovery_exp;
pub mod sdn_exp;
pub mod sla_exp;
pub mod table1;
pub mod traffic_exp;

use picloud_container::host::HostError;
use picloud_mgmt::api::ApiError;
use picloud_placement::scheduler::PlacementError;
use std::fmt;

/// Why an experiment could not finish its workflow.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentError {
    /// The management API refused a request.
    Api(ApiError),
    /// A container host refused an operation for a reason other than
    /// running out of room.
    Host(HostError),
    /// A placement batch did not fit the cluster.
    Placement(PlacementError),
    /// A workflow step did not happen; the message names the step.
    Workflow(String),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Api(e) => write!(f, "management API: {e}"),
            ExperimentError::Host(e) => write!(f, "container host: {e}"),
            ExperimentError::Placement(e) => write!(f, "placement: {e}"),
            ExperimentError::Workflow(step) => f.write_str(step),
        }
    }
}

impl std::error::Error for ExperimentError {}

impl From<ApiError> for ExperimentError {
    fn from(e: ApiError) -> Self {
        ExperimentError::Api(e)
    }
}

impl From<HostError> for ExperimentError {
    fn from(e: HostError) -> Self {
        ExperimentError::Host(e)
    }
}

impl From<PlacementError> for ExperimentError {
    fn from(e: PlacementError) -> Self {
        ExperimentError::Placement(e)
    }
}
