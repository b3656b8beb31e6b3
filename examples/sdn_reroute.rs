//! SDN on the PiCloud: the OpenFlow aggregation layer in action.
//!
//! Demonstrates §II-A/§III: reactive vs proactive rule installation on the
//! paper fabric, then the IP-less routing experiment — migrate a service
//! container across racks and compare control-plane churn under IP
//! addressing versus flat labels.
//!
//! Run with:
//!
//! ```sh
//! cargo run --example sdn_reroute
//! ```

use picloud::experiments::sdn_exp::SdnExperiment;
use picloud_network::topology::Topology;
use picloud_sdn::controller::{InstallMode, SdnController};
use picloud_sdn::ipless::{AddressingMode, IplessFabric, Label};
use picloud_simcore::SimTime;

fn main() {
    // A first flow pays the control-plane round trip; the second rides the
    // installed rules.
    let topo = Topology::multi_root_tree(4, 14, 2);
    let hosts: Vec<_> = topo.hosts().map(|h| h.id).collect();
    let mut ctrl = SdnController::new(topo, InstallMode::Reactive);
    let first = ctrl.route(hosts[0], hosts[55]);
    let second = ctrl.route(hosts[0], hosts[55]);
    println!("reactive fabric, flow pi-0-0 -> pi-3-13:");
    println!(
        "  first packet: {} setup, {} rules installed along {} hops",
        first.setup_latency,
        first.rules_installed,
        first.path.len()
    );
    println!(
        "  second flow:  {} setup (cache hit: {})\n",
        second.setup_latency, second.cache_hit
    );

    // The full discipline comparison.
    println!(
        "{}",
        SdnExperiment::paper_scale().expect("bound labels route")
    );

    // A live walk-through of the IP-less migration story.
    println!("\nWalk-through: migrating a service with 10 clients attached");
    for mode in [AddressingMode::IpSubnet, AddressingMode::FlatLabel] {
        let topo = Topology::multi_root_tree(4, 14, 2);
        let hosts: Vec<_> = topo.hosts().map(|h| h.id).collect();
        let mut fabric = IplessFabric::new(topo, mode);
        let svc = Label(7);
        fabric.bind(svc, hosts[55]);
        for host in hosts.iter().take(10) {
            fabric
                .open_session(*host, svc)
                .expect("bound label routes on a healthy fabric");
        }
        let impact = fabric
            .migrate(svc, hosts[14], SimTime::from_secs(1))
            .expect("bound label migrates");
        println!(
            "  {mode}: {} rules touched, {} sessions broken, converged in {}",
            impact.rules_touched, impact.flows_disrupted, impact.convergence_latency
        );
    }
}
