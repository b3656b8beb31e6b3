//! Placement policies.
//!
//! "The way in which VMs are allocated is crucial; we can experiment with
//! new algorithms on the PiCloud, while directly observing the resulting
//! behaviour on all layers of the Cloud architecture" (§III). Five policies
//! are provided behind one trait:
//!
//! * **First-fit** — lowest-id node that fits; packs the front of the
//!   cluster, good for consolidation, bad for rack balance.
//! * **Best-fit** — the fitting node with the least free RAM; tightest
//!   packing.
//! * **Worst-fit** — the fitting node with the most free RAM; spreads load.
//! * **Random** — seeded uniform choice among fitting nodes; the baseline.
//! * **Network-aware** — prefer nodes in racks already hosting the
//!   request's service group, so group-internal traffic stays under one
//!   ToR; the cross-layer policy §IV motivates.

use crate::cluster::{ClusterView, PlacementRequest};
use picloud_hardware::node::NodeId;
use rand::Rng;
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Why a placement failed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementError {
    /// The request that could not be placed.
    pub request: PlacementRequest,
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no node can fit {} RAM and {:.0} Hz",
            self.request.ram, self.request.cpu_hz
        )
    }
}

impl std::error::Error for PlacementError {}

/// A placement policy: pick a node for a request given the cluster state.
///
/// Implementations must be deterministic given their own state (the random
/// policy carries a seeded generator).
pub trait PlacementPolicy {
    /// Chooses a node for `req`, or `None` if nothing fits. Must not
    /// mutate the view; committing is the caller's job.
    fn place(&mut self, view: &ClusterView, req: &PlacementRequest) -> Option<NodeId>;

    /// A short policy name for reports.
    fn name(&self) -> &'static str;
}

/// The built-in policies as a value type (convenient for sweeps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Lowest-id fitting node.
    FirstFit,
    /// Least free RAM among fitting nodes.
    BestFit,
    /// Most free RAM among fitting nodes.
    WorstFit,
    /// Seeded uniform choice among fitting nodes.
    Random,
    /// Rack-affinity by service group, falling back to best-fit.
    NetworkAware,
}

impl PolicyKind {
    /// Instantiates the policy; `seed` only affects [`PolicyKind::Random`].
    pub fn build(self, seed: u64) -> Box<dyn PlacementPolicy> {
        use rand::SeedableRng;
        match self {
            PolicyKind::FirstFit => Box::new(FirstFit),
            PolicyKind::BestFit => Box::new(BestFit),
            PolicyKind::WorstFit => Box::new(WorstFit),
            PolicyKind::Random => Box::new(RandomFit {
                rng: ChaCha12Rng::seed_from_u64(seed),
            }),
            PolicyKind::NetworkAware => Box::new(NetworkAware),
        }
    }

    /// All kinds, for sweeps.
    pub fn all() -> [PolicyKind; 5] {
        [
            PolicyKind::FirstFit,
            PolicyKind::BestFit,
            PolicyKind::WorstFit,
            PolicyKind::Random,
            PolicyKind::NetworkAware,
        ]
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PolicyKind::FirstFit => "first-fit",
            PolicyKind::BestFit => "best-fit",
            PolicyKind::WorstFit => "worst-fit",
            PolicyKind::Random => "random",
            PolicyKind::NetworkAware => "network-aware",
        };
        write!(f, "{s}")
    }
}

/// Lowest-id node that fits.
#[derive(Debug, Clone, Copy, Default)]
pub struct FirstFit;

impl PlacementPolicy for FirstFit {
    fn place(&mut self, view: &ClusterView, req: &PlacementRequest) -> Option<NodeId> {
        view.nodes().iter().find(|n| n.fits(req)).map(|n| n.node)
    }

    fn name(&self) -> &'static str {
        "first-fit"
    }
}

/// Fitting node with the least free RAM (ties: lowest id).
#[derive(Debug, Clone, Copy, Default)]
pub struct BestFit;

impl PlacementPolicy for BestFit {
    fn place(&mut self, view: &ClusterView, req: &PlacementRequest) -> Option<NodeId> {
        view.nodes()
            .iter()
            .filter(|n| n.fits(req))
            .min_by_key(|n| (n.ram_free().as_u64(), n.node))
            .map(|n| n.node)
    }

    fn name(&self) -> &'static str {
        "best-fit"
    }
}

/// Fitting node with the most free RAM (ties: lowest id).
#[derive(Debug, Clone, Copy, Default)]
pub struct WorstFit;

impl PlacementPolicy for WorstFit {
    fn place(&mut self, view: &ClusterView, req: &PlacementRequest) -> Option<NodeId> {
        view.nodes()
            .iter()
            .filter(|n| n.fits(req))
            .max_by_key(|n| (n.ram_free().as_u64(), std::cmp::Reverse(n.node)))
            .map(|n| n.node)
    }

    fn name(&self) -> &'static str {
        "worst-fit"
    }
}

/// Seeded uniform choice among fitting nodes.
#[derive(Debug, Clone)]
pub struct RandomFit {
    rng: ChaCha12Rng,
}

impl PlacementPolicy for RandomFit {
    fn place(&mut self, view: &ClusterView, req: &PlacementRequest) -> Option<NodeId> {
        let fitting: Vec<NodeId> = view
            .nodes()
            .iter()
            .filter(|n| n.fits(req))
            .map(|n| n.node)
            .collect();
        if fitting.is_empty() {
            None
        } else {
            Some(fitting[self.rng.gen_range(0..fitting.len())])
        }
    }

    fn name(&self) -> &'static str {
        "random"
    }
}

/// Rack affinity by service group, then best-fit within candidates.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetworkAware;

impl PlacementPolicy for NetworkAware {
    fn place(&mut self, view: &ClusterView, req: &PlacementRequest) -> Option<NodeId> {
        let group_racks: Vec<u32> = view
            .nodes_hosting_group(req.group)
            .into_iter()
            .map(|n| view.node(n).rack)
            .collect();
        let in_group_rack = view
            .nodes()
            .iter()
            .filter(|n| n.fits(req) && group_racks.contains(&n.rack))
            .min_by_key(|n| (n.ram_free().as_u64(), n.node))
            .map(|n| n.node);
        in_group_rack.or_else(|| BestFit.place(view, req))
    }

    fn name(&self) -> &'static str {
        "network-aware"
    }
}

/// Places a batch of requests with `policy`, committing each, and returns
/// the tickets. Stops at the first failure.
///
/// # Errors
///
/// [`PlacementError`] carrying the first request nothing could fit.
pub fn place_all(
    view: &mut ClusterView,
    policy: &mut dyn PlacementPolicy,
    requests: &[PlacementRequest],
) -> Result<Vec<crate::cluster::PlacementTicket>, PlacementError> {
    let mut tickets = Vec::with_capacity(requests.len());
    for req in requests {
        let node = policy
            .place(view, req)
            .ok_or(PlacementError { request: *req })?;
        tickets.push(view.commit(node, *req));
    }
    Ok(tickets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use picloud_simcore::units::Bytes;

    fn req() -> PlacementRequest {
        PlacementRequest::new(Bytes::mib(30), 100e6)
    }

    #[test]
    fn first_fit_packs_the_front() {
        let mut view = ClusterView::picloud_default();
        let mut policy = FirstFit;
        for _ in 0..6 {
            let node = policy.place(&view, &req()).unwrap();
            view.commit(node, req());
        }
        // 192 MB / 30 MB = 6 fit on node 0.
        assert_eq!(view.placements_on(NodeId(0)).len(), 6);
        let node = policy.place(&view, &req()).unwrap();
        assert_eq!(node, NodeId(1), "overflow to the next node");
    }

    #[test]
    fn worst_fit_spreads() {
        let mut view = ClusterView::picloud_default();
        let mut policy = WorstFit;
        let mut used = std::collections::HashSet::new();
        for _ in 0..8 {
            let node = policy.place(&view, &req()).unwrap();
            view.commit(node, req());
            used.insert(node);
        }
        assert_eq!(used.len(), 8, "each placement lands on a fresh node");
    }

    #[test]
    fn best_fit_tightens_packing() {
        let mut view = ClusterView::picloud_default();
        // Prime node 10 with one placement: it now has the least free RAM.
        view.commit(NodeId(10), req());
        let mut policy = BestFit;
        assert_eq!(policy.place(&view, &req()), Some(NodeId(10)));
    }

    #[test]
    fn random_is_seed_deterministic() {
        let view = ClusterView::picloud_default();
        let picks = |seed: u64| {
            let mut p = PolicyKind::Random.build(seed);
            (0..10)
                .map(|_| p.place(&view, &req()).unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(picks(5), picks(5));
        assert_ne!(picks(5), picks(6));
    }

    #[test]
    fn network_aware_prefers_group_rack() {
        let mut view = ClusterView::picloud_default();
        // Seed group 9 in rack 2 (nodes 28..42).
        view.commit(NodeId(30), req().with_group(9));
        let mut policy = NetworkAware;
        let pick = policy.place(&view, &req().with_group(9)).unwrap();
        assert_eq!(view.node(pick).rack, 2, "stays in the group's rack");
        // A different group falls back to best-fit (node 30 has least free).
        let other = policy.place(&view, &req().with_group(1)).unwrap();
        assert_eq!(other, NodeId(30));
    }

    #[test]
    fn place_all_reports_exhaustion() {
        // Tiny cluster: 1 node, 192 MB => 6 placements of 30 MB.
        let spec = picloud_hardware::node::NodeSpec::pi_model_b_rev1();
        let mut view = ClusterView::homogeneous(1, 1, &spec);
        let mut policy = FirstFit;
        let requests = vec![req(); 7];
        let err = place_all(&mut view, &mut policy, &requests).unwrap_err();
        assert_eq!(err.request.ram, Bytes::mib(30));
        assert_eq!(view.placement_count(), 6, "six committed before failure");
        assert!(err.to_string().contains("no node can fit"));
    }

    #[test]
    fn all_policies_fill_the_cluster_equally() {
        // Capacity is policy-independent: every policy places exactly
        // 56 * 6 idle containers before failing.
        for kind in PolicyKind::all() {
            let mut view = ClusterView::picloud_default();
            let mut policy = kind.build(3);
            let mut placed = 0;
            while let Some(node) = policy.place(&view, &req()) {
                view.commit(node, req());
                placed += 1;
            }
            assert_eq!(placed, 56 * 6, "{kind} placed {placed}");
        }
    }

    #[test]
    fn powered_off_nodes_are_skipped() {
        let mut view = ClusterView::picloud_default();
        view.power_off(NodeId(0));
        let mut policy = FirstFit;
        assert_eq!(policy.place(&view, &req()), Some(NodeId(1)));
    }

    #[test]
    fn kind_display() {
        assert_eq!(PolicyKind::NetworkAware.to_string(), "network-aware");
        assert_eq!(PolicyKind::all().len(), 5);
    }
}
