//! Consolidation: drain lightly-loaded nodes so they can be powered off.
//!
//! §III: consolidation "allows ... to reduce power consumption"; §IV warns
//! the same knob "may improve server resource usage at the expense of
//! frequent episodes of network congestion". The planner therefore reports
//! both sides of the ledger: watts saved *and* the migration traffic (and
//! its rack-crossing share) required to realise the plan — the cross-layer
//! ripple effect the PiCloud exists to expose.
//!
//! The algorithm is the standard greedy drain: visit candidate donor nodes
//! from least- to most-loaded; for each, try to re-home every placement
//! onto the most-loaded receiver that fits (never another donor); if every
//! placement fits, emit the moves and mark the donor for power-off.

use crate::cluster::{ClusterView, PlacementRequest, PlacementTicket};
use picloud_hardware::node::NodeId;
use picloud_simcore::units::{Bytes, Power};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One planned migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlannedMove {
    /// The placement to move.
    pub ticket: PlacementTicket,
    /// Source node.
    pub from: NodeId,
    /// Target node.
    pub to: NodeId,
    /// RAM state that must cross the fabric.
    pub ram: Bytes,
    /// Whether the move crosses racks (and therefore the aggregation
    /// layer).
    pub crosses_rack: bool,
}

/// The planner's output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConsolidationPlan {
    /// Migrations to perform, in order.
    pub moves: Vec<PlannedMove>,
    /// Nodes that become empty and can be powered off.
    pub nodes_freed: Vec<NodeId>,
}

impl ConsolidationPlan {
    /// Total RAM bytes the plan moves across the fabric.
    pub fn migration_bytes(&self) -> Bytes {
        self.moves.iter().map(|m| m.ram).sum()
    }

    /// Moves that cross racks (traverse the aggregation layer).
    pub fn cross_rack_moves(&self) -> usize {
        self.moves.iter().filter(|m| m.crosses_rack).count()
    }

    /// Power saved by switching off the freed nodes, each idling at
    /// `idle_per_node`.
    pub fn power_saved(&self, idle_per_node: Power) -> Power {
        idle_per_node * self.nodes_freed.len() as f64
    }

    /// Whether the plan does anything.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty() && self.nodes_freed.is_empty()
    }
}

impl fmt::Display for ConsolidationPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} moves ({} cross-rack, {}), {} nodes freed",
            self.moves.len(),
            self.cross_rack_moves(),
            self.migration_bytes(),
            self.nodes_freed.len()
        )
    }
}

/// The greedy consolidation planner.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Consolidator {
    /// Only nodes at or below this RAM utilisation are drained.
    pub donor_threshold: f64,
    /// Never fill a receiver above this RAM utilisation.
    pub receiver_ceiling: f64,
}

impl Default for Consolidator {
    fn default() -> Self {
        Consolidator {
            donor_threshold: 0.5,
            receiver_ceiling: 0.9,
        }
    }
}

impl Consolidator {
    /// Creates a planner with explicit thresholds.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ donor_threshold ≤ receiver_ceiling ≤ 1`.
    pub fn new(donor_threshold: f64, receiver_ceiling: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&donor_threshold)
                && (0.0..=1.0).contains(&receiver_ceiling)
                && donor_threshold <= receiver_ceiling,
            "thresholds must satisfy 0 <= donor <= ceiling <= 1"
        );
        Consolidator {
            donor_threshold,
            receiver_ceiling,
        }
    }

    /// Plans (and applies to `view`) a consolidation pass. Freed nodes are
    /// powered off in the view.
    ///
    /// Receivers must already be non-empty: draining one node into another
    /// idle node is churn with no power benefit. A node that receives
    /// placements during the pass is removed from the donor list — it has
    /// become a keeper.
    pub fn plan(&self, view: &mut ClusterView) -> ConsolidationPlan {
        // Donors: non-empty, under-utilised, least-loaded first.
        let mut donors: Vec<NodeId> = view
            .nodes()
            .iter()
            .filter(|n| {
                n.powered_on && !n.ram_used.is_zero() && n.ram_utilisation() <= self.donor_threshold
            })
            .map(|n| n.node)
            .collect();
        donors.sort_by(|a, b| {
            view.node(*a)
                .ram_utilisation()
                .total_cmp(&view.node(*b).ram_utilisation())
                .then(a.cmp(b))
        });

        let mut received: std::collections::BTreeSet<NodeId> = std::collections::BTreeSet::new();
        let mut moves = Vec::new();
        let mut freed = Vec::new();
        for donor in donors {
            if received.contains(&donor) {
                continue; // took on load earlier in the pass; now a keeper
            }
            // Each of the donor's placements, with its request.
            let tickets: Vec<(PlacementTicket, PlacementRequest)> = view
                .placements()
                .filter(|(_, node, _)| *node == donor)
                .map(|(t, _, r)| (t, *r))
                .collect();
            // Tentatively re-home every ticket on a scratch copy so a
            // partial failure rolls back cleanly.
            let mut staged: Vec<(PlacementTicket, PlacementRequest, NodeId)> =
                Vec::with_capacity(tickets.len());
            let mut scratch = view.clone();
            let mut ok = true;
            for &(ticket, req) in &tickets {
                // Receivers: powered on, not the donor, already non-empty,
                // fits, and stays under the ceiling. Most-loaded first so
                // the pack is tight.
                let mut receivers: Vec<NodeId> = scratch
                    .nodes()
                    .iter()
                    .filter(|n| {
                        n.powered_on && n.node != donor && !n.ram_used.is_zero() && n.fits(&req)
                    })
                    .map(|n| n.node)
                    .collect();
                receivers.sort_by(|a, b| {
                    scratch
                        .node(*b)
                        .ram_utilisation()
                        .total_cmp(&scratch.node(*a).ram_utilisation())
                        .then(a.cmp(b))
                });
                let target = receivers.into_iter().find(|r| {
                    let n = scratch.node(*r);
                    let after = (n.ram_used + req.ram).as_u64() as f64
                        / n.ram_capacity.as_u64().max(1) as f64;
                    after <= self.receiver_ceiling
                });
                match target {
                    Some(t) if scratch.relocate(ticket, t).is_some() => {
                        staged.push((ticket, req, t))
                    }
                    _ => {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                continue; // cannot fully drain this donor; leave it alone
            }
            // Commit the staged moves for real.
            for (ticket, req, target) in staged {
                let from_rack = view.node(donor).rack;
                let to_rack = view.node(target).rack;
                if view.relocate(ticket, target).is_none() {
                    continue;
                }
                received.insert(target);
                moves.push(PlannedMove {
                    ticket,
                    from: donor,
                    to: target,
                    ram: req.ram,
                    crosses_rack: from_rack != to_rack,
                });
            }
            view.power_off(donor);
            freed.push(donor);
        }
        ConsolidationPlan {
            moves,
            nodes_freed: freed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{place_all, WorstFit};

    fn spread_cluster(n_placements: usize) -> ClusterView {
        let mut view = ClusterView::picloud_default();
        let reqs = vec![PlacementRequest::new(Bytes::mib(30), 50e6); n_placements];
        let mut policy = WorstFit;
        place_all(&mut view, &mut policy, &reqs).unwrap();
        view
    }

    #[test]
    fn consolidation_frees_nodes_and_saves_power() {
        // 56 placements spread one-per-node; each node is at 30/192 ≈ 16%.
        let mut view = spread_cluster(56);
        assert_eq!(view.powered_on_count(), 56);
        let plan = Consolidator::default().plan(&mut view);
        assert!(!plan.nodes_freed.is_empty(), "spread load must consolidate");
        assert_eq!(view.powered_on_count(), 56 - plan.nodes_freed.len());
        // All placements survive.
        assert_eq!(view.placement_count(), 56);
        let idle = Power::watts(2.45); // Pi idle
        assert!(plan.power_saved(idle).as_watts() > 0.0);
    }

    #[test]
    fn receivers_respect_the_ceiling() {
        let mut view = spread_cluster(56);
        let plan = Consolidator::new(0.5, 0.8).plan(&mut view);
        for n in view.nodes() {
            if n.powered_on {
                assert!(
                    n.ram_utilisation() <= 0.8 + 1e-9,
                    "{} exceeds ceiling at {:.2}",
                    n.node,
                    n.ram_utilisation()
                );
            }
        }
        assert!(!plan.is_empty());
    }

    #[test]
    fn busy_cluster_has_nothing_to_consolidate() {
        // Fill every node close to capacity: nobody is under the threshold.
        let mut view = ClusterView::picloud_default();
        for n in 0..56u32 {
            for _ in 0..5 {
                view.commit(NodeId(n), PlacementRequest::new(Bytes::mib(30), 10e6));
            }
        }
        // 150/192 = 78% > 50% threshold.
        let plan = Consolidator::default().plan(&mut view);
        assert!(plan.is_empty());
        assert_eq!(view.powered_on_count(), 56);
    }

    #[test]
    fn plan_reports_cross_rack_traffic() {
        let mut view = spread_cluster(56);
        let plan = Consolidator::default().plan(&mut view);
        // Migration bytes are exactly moves × 30 MB.
        assert_eq!(
            plan.migration_bytes(),
            Bytes::mib(30) * plan.moves.len() as u64
        );
        // With donors/receivers across all four racks, some moves must
        // cross racks — the congestion side-effect the paper warns about.
        assert!(plan.cross_rack_moves() > 0);
        assert!(plan.cross_rack_moves() <= plan.moves.len());
    }

    #[test]
    fn empty_nodes_are_not_donors() {
        let mut view = ClusterView::picloud_default();
        view.commit(NodeId(0), PlacementRequest::new(Bytes::mib(30), 0.0));
        let plan = Consolidator::default().plan(&mut view);
        // Node 0 is the only occupied node; the 55 empty nodes are not
        // "freed" (they were never donors) and node 0 has no receiver.
        assert!(plan.is_empty());
    }

    #[test]
    #[should_panic(expected = "thresholds")]
    fn bad_thresholds_rejected() {
        let _ = Consolidator::new(0.9, 0.5);
    }

    #[test]
    fn display_summarises() {
        let mut view = spread_cluster(56);
        let plan = Consolidator::default().plan(&mut view);
        assert!(plan.to_string().contains("nodes freed"));
    }
}
