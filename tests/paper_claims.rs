//! Integration tests pinning every quantitative claim the paper makes.
//!
//! If any of these fail, the reproduction has drifted from the paper.

use picloud::experiments::fig3::Fig3;
use picloud::experiments::table1::Table1;
use picloud::PiCloud;
use picloud_hardware::node::NodeSpec;
use picloud_simcore::units::{Bytes, Money};

#[test]
fn table1_cost_row() {
    // "Testbed $112,000 (@$2,000) | PiCloud $1,960 (@$35)"
    let t = Table1::paper();
    assert_eq!(t.rows[0].total_cost, Money::dollars(112_000));
    assert_eq!(t.rows[1].total_cost, Money::dollars(1_960));
}

#[test]
fn table1_power_row() {
    // "10,080W/h (@180W/h) | 196W/h (@3.5W/h)"
    let t = Table1::paper();
    assert!((t.rows[0].total_power.as_watts() - 10_080.0).abs() < 1e-9);
    assert!((t.rows[1].total_power.as_watts() - 196.0).abs() < 1e-9);
}

#[test]
fn table1_cooling_row() {
    // "Needs Cooling? Yes | No"
    let t = Table1::paper();
    assert!(t.rows[0].needs_cooling);
    assert!(!t.rows[1].needs_cooling);
}

#[test]
fn cost_is_orders_of_magnitude_smaller() {
    // §IV: "The cost of the PiCloud is several orders of magnitude smaller"
    // — arithmetically ~57x on Table I's own numbers.
    let t = Table1::paper();
    assert!(t.cost_factor > 50.0);
}

#[test]
fn cluster_is_56_nodes_in_4_racks_of_14() {
    // §II-A: "56 Model B version Raspberry Pi devices... divided into 4
    // racks with 14 Raspberry Pis each."
    let cloud = PiCloud::glasgow();
    assert_eq!(cloud.node_count(), 56);
    assert_eq!(cloud.racks().len(), 4);
    assert!(cloud.racks().iter().all(|r| r.occupied() == 14));
}

#[test]
fn sd_card_is_16gb_sandisk_class() {
    // §II-A: "runs Linux from a Sandisk 16GB SD card storage".
    let spec = NodeSpec::pi_model_b_rev1();
    assert_eq!(spec.storage.capacity, Bytes::gib(16));
    assert!(spec.storage.model.contains("SanDisk 16GB"));
}

#[test]
fn three_containers_at_30mb_idle() {
    // §II-B: "we can run three containers on a single Pi, each consuming
    // 30MB RAM when idle."
    let fig = Fig3::run().expect("density sweep");
    assert_eq!(fig.density[0].container_idle, Bytes::mib(30));
    assert!(fig.density[0].containers_started >= 3);
}

#[test]
fn full_virtualisation_is_too_heavy_for_256mb() {
    // §II-B: "full virtualisation technologies such as Xen are
    // memory-intensive when compared to the 256MB RAM capacity".
    let fig = Fig3::run().expect("density sweep");
    assert!(fig.virt_ablation[0].full_virt_instances < fig.virt_ablation[0].lxc_instances);
}

#[test]
fn ram_doubled_at_same_price() {
    // §IV: "the Raspberry Pi foundation doubled the RAM size on every
    // Raspberry Pi while keeping the same price."
    let r1 = NodeSpec::pi_model_b_rev1();
    let r2 = NodeSpec::pi_model_b_rev2();
    assert_eq!(r2.ram.as_u64(), 2 * r1.ram.as_u64());
    assert_eq!(r2.unit_cost, r1.unit_cost);
}

#[test]
fn whole_cloud_runs_off_one_socket() {
    // §III: "we can run the PiCloud from a single trailing power socket
    // board."
    assert!(PiCloud::glasgow().fits_single_socket());
    let x86 = PiCloud::builder()
        .node_spec(NodeSpec::x86_commodity())
        .build();
    assert!(!x86.fits_single_socket());
}

#[test]
fn pi_model_a_sells_for_25_dollars() {
    // §IV: "the Pi is available for as little as $25."
    assert_eq!(NodeSpec::pi_model_a().unit_cost, Money::dollars(25));
}

#[test]
fn bom_processor_is_most_expensive_at_about_10() {
    // §IV: "Estimations place the processor as the most expensive
    // component for around 10$."
    let t = Table1::paper();
    let top = t.pi_bom.most_expensive().expect("bom has lines");
    assert!(top.component.contains("SoC"));
    assert_eq!(top.cost, Money::dollars(10));
}

#[test]
fn cooling_is_33_percent_of_dc_power() {
    // §IV: cooling "reportedly accounts for 33% of the total power
    // consumption in Cloud DCs."
    use picloud_hardware::power::CoolingModel;
    use picloud_simcore::units::Power;
    let cooling = CoolingModel::datacenter_typical();
    let it = Power::watts(1000.0);
    let total = cooling.total_power(it);
    let frac = cooling.cooling_power(it).as_watts() / total.as_watts();
    assert!((frac - 0.33).abs() < 1e-9);
}
