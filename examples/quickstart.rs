//! Quickstart: build the Glasgow PiCloud, look at every layer, and
//! regenerate the paper's Table I and Figs. 1–3.
//!
//! Run with:
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use picloud::experiments::{fig3::Fig3, table1::Table1};
use picloud::PiCloud;
use picloud_hardware::node::NodeId;
use picloud_simcore::SimTime;

fn main() {
    // ---------------------------------------------------------------
    // The testbed of the paper: 56 Raspberry Pi Model B boards, four
    // Lego racks of 14, multi-root tree fabric, pimaster on top.
    // ---------------------------------------------------------------
    let mut cloud = PiCloud::glasgow();
    println!("{cloud}\n");

    // Fig. 1 — the racks.
    println!("--- Fig. 1: the racks (first rack shown) ---");
    let racks = cloud.render_racks();
    let first_rack: String = racks.lines().take(17).collect::<Vec<_>>().join("\n");
    println!("{first_rack}\n");

    // Fig. 2 — the architecture.
    println!("--- Fig. 2: system architecture ---");
    println!("{}", cloud.render_architecture());

    // Fig. 3 — the per-Pi software stack: deploy web + db + hadoop on
    // node 0 through the management API.
    println!("--- Fig. 3: software stack on node 0 ---");
    let stack = cloud
        .deploy_standard_stack(NodeId(0), SimTime::ZERO)
        .expect("a fresh Pi hosts the standard stack");
    println!("{}", stack.render_ascii());
    for member in stack.members() {
        println!(
            "  {} -> {} @ {}",
            member.image, member.dns_name, member.address
        );
    }
    println!();

    // Table I — the cost breakdown, regenerated.
    println!("{}", Table1::paper());

    // The §II-B density claims behind Fig. 3.
    println!("{}", Fig3::run().expect("density sweep"));

    // The single-socket claim.
    println!(
        "Whole-cloud nameplate power: {} — fits a single UK socket: {}",
        cloud.nameplate_power(),
        cloud.fits_single_socket()
    );
}
