//! **F4 — Fig. 4**: the pimaster's web control panel.
//!
//! The screenshot shows per-node CPU load with spawn/limit controls. The
//! experiment reproduces the *workflow* behind it (§II-C's "typical
//! use-case scenarios"): spawn instances across the cluster through the
//! REST API, drive load, set per-VM soft limits, and refresh the panel —
//! reporting the panel payload plus the management-plane operation counts.

use crate::cluster::PiCloud;
use crate::experiments::ExperimentError;
use picloud_container::container::ContainerId;
use picloud_hardware::node::NodeId;
use picloud_mgmt::api::{ApiError, ApiRequest, ApiResponse};
use picloud_mgmt::panel::{ControlPanel, PanelView};
use picloud_simcore::units::Bytes;
use picloud_simcore::SimTime;
use std::fmt;

/// Result of the management-plane workflow.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4 {
    /// Containers spawned through the API.
    pub spawned: usize,
    /// Limit updates applied.
    pub limits_set: usize,
    /// The final panel payload.
    pub panel: PanelView,
    /// The panel serialised as the frontend would fetch it.
    pub panel_json: String,
}

impl Fig4 {
    /// Runs the workflow on a fresh default PiCloud: one web container per
    /// node in the first two racks, load on rack 0, soft limits on rack 1.
    ///
    /// # Errors
    ///
    /// [`ExperimentError`] if the default cloud rejects a step of the
    /// workflow — that would mean the management plane regressed.
    pub fn run() -> Result<Fig4, ExperimentError> {
        let mut cloud = PiCloud::glasgow();
        let now = SimTime::ZERO;
        let mut spawned_ids: Vec<(NodeId, ContainerId)> = Vec::new();
        // Spawn across racks 0 and 1 (nodes 0..28).
        for node in 0..28u32 {
            let resp = cloud.api(
                ApiRequest::SpawnContainer {
                    node: NodeId(node),
                    name: format!("web-{node}"),
                    image: "lighttpd".to_owned(),
                },
                now,
            )?;
            let ApiResponse::Spawned { container, .. } = resp else {
                return Err(ExperimentError::Workflow(format!(
                    "spawn on node {node} answered {resp:?}"
                )));
            };
            spawned_ids.push((NodeId(node), container));
        }
        // Drive CPU load on rack 0 so the panel shows a gradient.
        for (i, (node, ct)) in spawned_ids.iter().take(14).enumerate() {
            let demand = 700e6 * (i as f64 + 1.0) / 14.0;
            cloud
                .pimaster_mut()
                .daemon_mut(*node)
                .ok_or_else(|| ApiError::NotFound(node.to_string()))?
                .set_demand(*ct, demand);
        }
        // Soft limits on rack 1 (§II-C's per-VM utilisation limits).
        let mut limits_set = 0;
        for (node, ct) in spawned_ids.iter().skip(14) {
            cloud.api(
                ApiRequest::SetVmLimits {
                    node: *node,
                    container: *ct,
                    cpu_shares: Some(512),
                    memory_limit: Some(Bytes::mib(48)),
                },
                now,
            )?;
            limits_set += 1;
        }
        let panel = ControlPanel::new().refresh(cloud.pimaster_mut(), SimTime::from_secs(1));
        let panel_json = panel.to_json();
        Ok(Fig4 {
            spawned: spawned_ids.len(),
            limits_set,
            panel,
            panel_json,
        })
    }
}

impl fmt::Display for Fig4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "FIG 4: management panel after {} spawns and {} limit updates",
            self.spawned, self.limits_set
        )?;
        write!(f, "{}", self.panel.render_ascii())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workflow_completes() {
        let fig = Fig4::run().unwrap();
        assert_eq!(fig.spawned, 28);
        assert_eq!(fig.limits_set, 14);
        assert_eq!(fig.panel.rows.len(), 56);
        assert_eq!(fig.panel.running_containers, 28);
    }

    #[test]
    fn panel_shows_the_load_gradient() {
        let fig = Fig4::run().unwrap();
        // Node 13 runs at 100%, node 0 at ~7%.
        let cpu0 = fig.panel.rows[0].cpu_percent;
        let cpu13 = fig.panel.rows[13].cpu_percent;
        assert!(cpu13 > 95.0, "{cpu13}");
        assert!(cpu0 < 15.0, "{cpu0}");
        // Racks 2-3 are idle.
        assert!(fig.panel.rows[40].cpu_percent < 1e-9);
    }

    #[test]
    fn json_payload_is_complete() {
        let fig = Fig4::run().unwrap();
        assert!(fig.panel_json.contains("pi-0-0.picloud"));
        assert!(fig.panel_json.contains("web-0 [running]"));
        let back: PanelView = serde_json::from_str(&fig.panel_json).unwrap();
        assert_eq!(back, fig.panel);
    }

    #[test]
    fn display_is_the_dashboard() {
        let s = Fig4::run().unwrap().to_string();
        assert!(s.contains("control panel"));
        assert!(s.contains("28 spawns"));
    }
}
