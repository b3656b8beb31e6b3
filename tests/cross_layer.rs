//! Cross-layer integration: the interactions the paper says simulators
//! miss ("simulation does not model cross-layer correlations and
//! interaction", §I).

use picloud::experiments::placement_exp::PlacementExperiment;
use picloud::experiments::traffic_exp::TrafficExperiment;
use picloud::PiCloud;
use picloud_network::flow::FlowSpec;
use picloud_network::flowsim::RateAllocator;
use picloud_network::routing::RoutingPolicy;
use picloud_placement::migration::LiveMigrationModel;
use picloud_placement::scheduler::PolicyKind;
use picloud_simcore::units::Bytes;
use picloud_simcore::{SimDuration, SimTime};
use picloud_workloads::mapreduce::MapReduceJob;

#[test]
fn consolidation_power_saving_has_a_network_price() {
    // The §IV ripple effect end to end: consolidating a spread placement
    // saves watts AND puts measurable load on the aggregation uplinks.
    let e = PlacementExperiment::paper_scale().expect("batch fits");
    let wf = e
        .consolidation_for(PolicyKind::WorstFit)
        .expect("worst-fit row");
    assert!(
        wf.power_saved_watts > 10.0,
        "saved {}",
        wf.power_saved_watts
    );
    assert!(
        wf.peak_uplink_utilisation > 0.05,
        "uplinks felt it: {}",
        wf.peak_uplink_utilisation
    );
    // A packed placement pays almost nothing.
    let ff = e
        .consolidation_for(PolicyKind::FirstFit)
        .expect("first-fit row");
    assert!(ff.migration_bytes <= wf.migration_bytes);
}

#[test]
fn shuffle_locality_changes_job_completion() {
    // Placement decides MapReduce shuffle locality, which decides makespan:
    // compute layer -> network layer -> application layer.
    let cloud = PiCloud::glasgow();
    let spec = cloud.node_spec().clone();
    let job = MapReduceJob::terasort_like(Bytes::mib(64));

    // Workers spread across all 4 racks...
    let spread: Vec<_> = (0..16)
        .map(|i| cloud.device_of(picloud_hardware::node::NodeId(i * 3)))
        .collect();
    let mut sim = cloud.flow_simulator(RoutingPolicy::default(), RateAllocator::MaxMin);
    let spread_out = job
        .plan(&spread)
        .execute(&mut sim, spec.clock, &spec.storage);

    // ...versus workers packed into one rack.
    let packed: Vec<_> = (0..14)
        .map(|i| cloud.device_of(picloud_hardware::node::NodeId(i)))
        .collect();
    let mut sim = cloud.flow_simulator(RoutingPolicy::default(), RateAllocator::MaxMin);
    let packed_out = job
        .plan(&packed)
        .execute(&mut sim, spec.clock, &spec.storage);

    assert!(
        packed_out.shuffle_rack_locality > spread_out.shuffle_rack_locality,
        "packed {} vs spread {}",
        packed_out.shuffle_rack_locality,
        spread_out.shuffle_rack_locality
    );
}

#[test]
fn migration_stream_contends_with_tenant_traffic() {
    // A migration is not free for tenants: run a tenant flow with and
    // without a concurrent cross-rack migration stream and compare FCTs.
    let cloud = PiCloud::glasgow();
    let a = cloud.device_of(picloud_hardware::node::NodeId(0));
    let b = cloud.device_of(picloud_hardware::node::NodeId(20)); // rack 1
    let c = cloud.device_of(picloud_hardware::node::NodeId(1));

    let tenant_alone = {
        let mut sim = cloud.flow_simulator(RoutingPolicy::SingleShortest, RateAllocator::MaxMin);
        sim.inject(
            FlowSpec::new(a, b, Bytes::mib(4)).with_tag("tenant"),
            SimTime::ZERO,
        )
        .expect("routeable");
        sim.run_to_completion();
        sim.completed()[0].fct()
    };
    let tenant_contended = {
        let mut sim = cloud.flow_simulator(RoutingPolicy::SingleShortest, RateAllocator::MaxMin);
        // Migration leaves the same source host: shares its access link.
        sim.inject(
            FlowSpec::new(a, c, Bytes::mib(64)).with_tag("migration"),
            SimTime::ZERO,
        )
        .expect("routeable");
        sim.inject(
            FlowSpec::new(a, b, Bytes::mib(4)).with_tag("tenant"),
            SimTime::ZERO,
        )
        .expect("routeable");
        sim.run_to_completion();
        sim.completed()
            .iter()
            .find(|f| f.spec.tag == "tenant")
            .expect("tenant finished")
            .fct()
    };
    assert!(
        tenant_contended.as_secs_f64() > 1.5 * tenant_alone.as_secs_f64(),
        "contended {tenant_contended} vs alone {tenant_alone}"
    );
}

#[test]
fn precopy_traffic_matches_flow_level_bytes() {
    // The migration model's byte count, replayed as real flows, carries
    // exactly those bytes over the fabric.
    let cloud = PiCloud::glasgow();
    let model = LiveMigrationModel::default();
    let outcome = model.pre_copy(Bytes::mib(64), 1e6);
    let src = cloud.device_of(picloud_hardware::node::NodeId(0));
    let dst = cloud.device_of(picloud_hardware::node::NodeId(30));
    let mut sim = cloud.flow_simulator(RoutingPolicy::SingleShortest, RateAllocator::MaxMin);
    sim.inject(
        FlowSpec::new(src, dst, outcome.bytes_transferred).with_tag("migration"),
        SimTime::ZERO,
    )
    .expect("routeable");
    let end = sim.run_to_completion();
    // A dedicated 100 Mbit path moves the bytes in ~ the model's total time
    // (the model charges the same link rate).
    let model_secs = outcome.total_time.as_secs_f64();
    let flow_secs = end.as_secs_f64();
    assert!(
        (flow_secs - model_secs).abs() / model_secs < 0.1,
        "flow {flow_secs:.2}s vs model {model_secs:.2}s"
    );
}

#[test]
fn locality_sweep_is_monotone_enough() {
    // More cross-rack traffic must never *reduce* uplink utilisation.
    let e = TrafficExperiment::run(11, SimDuration::from_secs(15));
    let utils: Vec<f64> = e.points.iter().map(|p| p.mean_uplink_utilisation).collect();
    for w in utils.windows(2) {
        assert!(
            w[1] >= w[0] - 0.02,
            "locality falls, uplinks rise: {utils:?}"
        );
    }
}
