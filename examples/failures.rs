//! Failure drills on the PiCloud: what breaks, what survives.
//!
//! Covers the resilience side of the testbed: aggregation-root loss on the
//! paper fabric vs the fat-tree re-cable, random link attrition, and the
//! management plane's answer — centralised pimaster vs peer-to-peer
//! gossip.
//!
//! Run with:
//!
//! ```sh
//! cargo run --example failures
//! ```

use picloud::experiments::failure_exp::FailureExperiment;
use picloud::experiments::p2p_mgmt::P2pMgmtExperiment;
use picloud_hardware::node::NodeId;
use picloud_mgmt::gossip::GossipNetwork;
use picloud_network::failure::{aggregation_devices, ConnectivityReport, FailureMask};
use picloud_network::topology::Topology;
use picloud_simcore::SeedFactory;

fn main() {
    // The full failure-injection sweep.
    println!("{}", FailureExperiment::run(2013));

    // A live walk-through: lose one root, then both.
    let topo = Topology::multi_root_tree(4, 14, 2);
    let roots = aggregation_devices(&topo);
    println!(
        "\nWalk-through on the paper fabric ({} aggregation roots):",
        roots.len()
    );
    let mut mask = FailureMask::none();
    println!("  healthy:         {}", ConnectivityReport::measure(&topo));
    mask.fail_device(roots[0]);
    println!(
        "  one root down:   {}",
        ConnectivityReport::measure(&mask.apply(&topo).topology)
    );
    mask.fail_device(roots[1]);
    println!(
        "  both roots down: {} (racks are islands)",
        ConnectivityReport::measure(&mask.apply(&topo).topology)
    );

    // The management plane under failure: pimaster vs gossip.
    println!(
        "\n{}",
        P2pMgmtExperiment::paper_scale().expect("gossip converges")
    );

    // Gossip riding out a progressive failure.
    println!("\nGossip under progressive node loss (56 nodes, fanout 2):");
    let mut net = GossipNetwork::new(56, 2, &SeedFactory::new(99));
    net.run_to_convergence(64).expect("healthy convergence");
    for wave in 1..=3u32 {
        for i in 0..7 {
            net.fail_node(NodeId((wave - 1) * 7 + i));
        }
        let mut probe = net.clone();
        let ok = probe.run_to_convergence(64).is_some();
        println!(
            "  wave {wave}: {} nodes down, survivors {} converge",
            wave * 7,
            if ok { "still" } else { "NO LONGER" }
        );
    }
}
