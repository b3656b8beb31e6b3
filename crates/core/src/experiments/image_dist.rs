//! **E13 — image distribution** ("image upgrading, patching, and
//! spawning", §II-A, under the network's constraints).
//!
//! After the pimaster patches a golden image, every node must pull it. The
//! pimaster is a head node — one machine behind one Fast Ethernet NIC (it
//! lives on `pi-0-0` here), not the gigabit border router — so naive
//! unicast serialises 55 copies through that NIC. Three strategies:
//!
//! * **direct unicast** — pimaster streams to all 55 peers at once; its
//!   NIC is the bottleneck.
//! * **global binary tree** — every node that holds the image forwards it
//!   to one that does not, doubling holders each round regardless of rack.
//! * **rack-aware tree** — the pimaster seeds one node per rack, then
//!   binary trees run *inside* each rack under the ToR, keeping phase-2
//!   traffic off the aggregation uplinks.
//!
//! Expected shape: both trees beat unicast by ~an order of magnitude; the
//! rack-aware tree additionally moves almost nothing across the uplinks.

use crate::report::TextTable;
use picloud_network::flow::FlowSpec;
use picloud_network::flowsim::{FlowSimulator, RateAllocator};
use picloud_network::routing::RoutingPolicy;
use picloud_network::topology::{DeviceId, DeviceKind, Topology};
use picloud_simcore::units::Bytes;
use picloud_simcore::{SimDuration, SimTime};
use std::fmt;

/// One strategy's result.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributionOutcome {
    /// Strategy label.
    pub strategy: String,
    /// Time until every node holds the image.
    pub makespan: SimDuration,
    /// Images' worth of bytes that crossed ToR-aggregation uplinks.
    pub uplink_image_crossings: f64,
    /// Relay rounds used (0 for unicast).
    pub rounds: u32,
}

/// The distribution experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ImageDistributionExperiment {
    /// Image size distributed.
    pub image_size: Bytes,
    /// Nodes updated (excluding the pimaster, which has it already).
    pub receivers: usize,
    /// One row per strategy.
    pub outcomes: Vec<DistributionOutcome>,
}

fn uplink_bytes(sim: &FlowSimulator) -> f64 {
    let topo = sim.topology();
    topo.links()
        .iter()
        .filter(|l| {
            matches!(
                (&topo.device(l.a).kind, &topo.device(l.b).kind),
                (DeviceKind::TopOfRack { .. }, DeviceKind::Aggregation)
                    | (DeviceKind::Aggregation, DeviceKind::TopOfRack { .. })
            )
        })
        .map(|l| sim.link_bytes_carried(l.id))
        .sum()
}

/// Runs binary-tree dissemination from `holders` to everyone in `all`,
/// with a barrier between rounds; returns (finish time, rounds).
fn tree_dissemination(
    sim: &mut FlowSimulator,
    image: Bytes,
    mut holders: Vec<DeviceId>,
    all: &[DeviceId],
) -> (SimTime, u32) {
    let mut pending: Vec<DeviceId> = all
        .iter()
        .copied()
        .filter(|d| !holders.contains(d))
        .collect();
    let mut now = sim.now();
    let mut rounds = 0u32;
    while !pending.is_empty() {
        rounds += 1;
        let transfers: Vec<(DeviceId, DeviceId)> = holders
            .iter()
            .copied()
            .zip(pending.iter().copied())
            .collect();
        let specs: Vec<FlowSpec> = transfers
            .iter()
            .map(|&(src, dst)| FlowSpec::new(src, dst, image).with_tag("image"))
            .collect();
        // The round's transfers all start together: one recompute.
        sim.inject_batch(specs, now)
            // lint: allow(P1) reason=dissemination endpoints are hosts of the connected builder topology
            .expect("fabric is connected");
        now = sim.run_to_completion();
        for (_, dst) in transfers {
            pending.retain(|d| *d != dst);
            holders.push(dst);
        }
    }
    (now, rounds)
}

impl ImageDistributionExperiment {
    /// Runs all three strategies for an image of `image_size` on the paper
    /// fabric, with the pimaster on the first host of rack 0.
    pub fn run(image_size: Bytes) -> ImageDistributionExperiment {
        let topo = Topology::multi_root_tree(4, 14, 2);
        let by_rack = topo.hosts_by_rack();
        let all_hosts: Vec<DeviceId> = topo.hosts().map(|h| h.id).collect();
        let Some((&pimaster, others)) = all_hosts.split_first() else {
            // A fabric without hosts has nothing to distribute.
            return ImageDistributionExperiment {
                image_size,
                receivers: 0,
                outcomes: Vec::new(),
            };
        };
        let receivers = others.len();
        let fresh = || {
            FlowSimulator::new(
                topo.clone(),
                RoutingPolicy::default(),
                RateAllocator::MaxMin,
            )
        };

        // --- direct unicast -------------------------------------------
        let mut sim = fresh();
        let unicasts: Vec<FlowSpec> = others
            .iter()
            .map(|&host| FlowSpec::new(pimaster, host, image_size).with_tag("image"))
            .collect();
        sim.inject_batch(unicasts, SimTime::ZERO)
            // lint: allow(P1) reason=dissemination endpoints are hosts of the connected builder topology
            .expect("routable");
        let end = sim.run_to_completion();
        let img = image_size.as_u64().max(1) as f64;
        let direct = DistributionOutcome {
            strategy: "direct unicast (pimaster to all)".to_owned(),
            makespan: end.saturating_duration_since(SimTime::ZERO),
            uplink_image_crossings: uplink_bytes(&sim) / img,
            rounds: 0,
        };

        // --- global binary tree ----------------------------------------
        let mut sim = fresh();
        let (end, rounds) = tree_dissemination(&mut sim, image_size, vec![pimaster], &all_hosts);
        let global = DistributionOutcome {
            strategy: "global binary tree".to_owned(),
            makespan: end.saturating_duration_since(SimTime::ZERO),
            uplink_image_crossings: uplink_bytes(&sim) / img,
            rounds,
        };

        // --- rack-aware tree --------------------------------------------
        let mut sim = fresh();
        // Phase 1: seed the first host of every *other* rack.
        let seeds: Vec<DeviceId> = by_rack
            .values()
            .filter_map(|hosts| hosts.first().copied())
            .filter(|&d| d != pimaster)
            .collect();
        let seed_specs: Vec<FlowSpec> = seeds
            .iter()
            .map(|&seed| FlowSpec::new(pimaster, seed, image_size).with_tag("image-seed"))
            .collect();
        sim.inject_batch(seed_specs, SimTime::ZERO)
            // lint: allow(P1) reason=dissemination endpoints are hosts of the connected builder topology
            .expect("routable");
        sim.run_to_completion();
        // Phase 2: per-rack binary trees, all racks in parallel. Emulate
        // parallelism with a shared round barrier across racks.
        let mut holders_by_rack: Vec<Vec<DeviceId>> = Vec::new();
        let mut pending_by_rack: Vec<Vec<DeviceId>> = Vec::new();
        for hosts in by_rack.values() {
            let Some(&first) = hosts.first() else {
                continue;
            };
            let holder = if hosts.contains(&pimaster) {
                pimaster
            } else {
                first
            };
            holders_by_rack.push(vec![holder]);
            pending_by_rack.push(hosts.iter().copied().filter(|&d| d != holder).collect());
        }
        let mut now = sim.now();
        let mut rounds = 1u32; // phase 1 counts as a round
        while pending_by_rack.iter().any(|p| !p.is_empty()) {
            rounds += 1;
            let mut round_transfers = Vec::new();
            for (holders, pending) in holders_by_rack.iter().zip(&pending_by_rack) {
                for (src, dst) in holders.iter().copied().zip(pending.iter().copied()) {
                    round_transfers.push((src, dst));
                }
            }
            let round_specs: Vec<FlowSpec> = round_transfers
                .iter()
                .map(|&(src, dst)| FlowSpec::new(src, dst, image_size).with_tag("image"))
                .collect();
            sim.inject_batch(round_specs, now)
                // lint: allow(P1) reason=dissemination endpoints are hosts of the connected builder topology
                .expect("routable");
            now = sim.run_to_completion();
            // Mark completions per rack.
            for (holders, pending) in holders_by_rack.iter_mut().zip(pending_by_rack.iter_mut()) {
                let moved = holders.len().min(pending.len());
                for dst in pending.drain(..moved) {
                    holders.push(dst);
                }
            }
        }
        let rack_aware = DistributionOutcome {
            strategy: "rack-aware tree (seed per rack)".to_owned(),
            makespan: now.saturating_duration_since(SimTime::ZERO),
            uplink_image_crossings: uplink_bytes(&sim) / img,
            rounds,
        };

        ImageDistributionExperiment {
            image_size,
            receivers,
            outcomes: vec![direct, global, rack_aware],
        }
    }

    /// The paper-scale run: the 180 MiB lighttpd image.
    pub fn paper_scale() -> ImageDistributionExperiment {
        ImageDistributionExperiment::run(Bytes::mib(180))
    }

    /// Looks up a strategy row by prefix.
    pub fn strategy(&self, prefix: &str) -> Option<&DistributionOutcome> {
        self.outcomes
            .iter()
            .find(|o| o.strategy.starts_with(prefix))
    }
}

impl fmt::Display for ImageDistributionExperiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E13: distributing a {} image to {} nodes (pimaster on pi-0-0)",
            self.image_size, self.receivers
        )?;
        let mut t = TextTable::new(vec![
            "strategy".into(),
            "makespan".into(),
            "rounds".into(),
            "uplink crossings (images)".into(),
        ]);
        for o in &self.outcomes {
            t.row(vec![
                o.strategy.clone(),
                o.makespan.to_string(),
                o.rounds.to_string(),
                format!("{:.1}", o.uplink_image_crossings),
            ]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exp() -> ImageDistributionExperiment {
        ImageDistributionExperiment::run(Bytes::mib(16))
    }

    #[test]
    fn trees_beat_unicast_by_an_order_of_magnitude() {
        let e = exp();
        let direct = e.strategy("direct").expect("row");
        let global = e.strategy("global").expect("row");
        let rack = e.strategy("rack-aware").expect("row");
        assert!(
            global.makespan.as_secs_f64() < direct.makespan.as_secs_f64() / 5.0,
            "global {} vs direct {}",
            global.makespan,
            direct.makespan
        );
        assert!(rack.makespan.as_secs_f64() < direct.makespan.as_secs_f64() / 5.0);
    }

    #[test]
    fn tree_rounds_are_logarithmic() {
        let e = exp();
        let global = e.strategy("global").expect("row");
        // 56 hosts from 1 holder: ceil(log2 56) = 6 rounds.
        assert_eq!(global.rounds, 6);
        let rack = e.strategy("rack-aware").expect("row");
        // 1 seed round + ceil(log2 14) = 4 in-rack rounds.
        assert_eq!(rack.rounds, 5);
    }

    #[test]
    fn rack_awareness_spares_the_uplinks() {
        let e = exp();
        let global = e.strategy("global").expect("row");
        let rack = e.strategy("rack-aware").expect("row");
        assert!(
            rack.uplink_image_crossings < global.uplink_image_crossings,
            "rack {} vs global {}",
            rack.uplink_image_crossings,
            global.uplink_image_crossings
        );
        // Only the 3 seed copies cross the uplinks (each crossing two
        // uplinks: ToR->agg and agg->ToR).
        assert!(
            rack.uplink_image_crossings <= 6.5,
            "{}",
            rack.uplink_image_crossings
        );
    }

    #[test]
    fn unicast_serialises_through_the_pimaster_nic() {
        let e = exp();
        let direct = e.strategy("direct").expect("row");
        // 55 copies over a 100 Mbit NIC: ~55 x 1.34 s for 16 MiB.
        let expect = 55.0 * (16.0 * 1024.0 * 1024.0 * 8.0) / 100e6;
        assert!(
            (direct.makespan.as_secs_f64() - expect).abs() / expect < 0.05,
            "measured {} vs expected {expect}",
            direct.makespan
        );
    }

    #[test]
    fn display_tabulates() {
        let s = exp().to_string();
        assert!(s.contains("rack-aware tree"));
        assert!(s.contains("global binary tree"));
    }
}
