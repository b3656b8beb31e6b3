//! Determinism guarantees: identical seeds give bit-identical experiments.
//!
//! Everything in the scale model is driven by the virtual clock and
//! labelled ChaCha streams; these tests pin that property at the topmost
//! level, where any hidden `HashMap` iteration or wall-clock leak would
//! surface.

use picloud::experiments::fidelity::FidelityExperiment;
use picloud::experiments::placement_exp::PlacementExperiment;
use picloud::experiments::recovery_exp::RecoveryExperiment;
use picloud::experiments::sdn_exp::SdnExperiment;
use picloud::experiments::traffic_exp::TrafficExperiment;
use picloud::PiCloud;
use picloud_faults::{ChurnConfig, FaultTimeline};
use picloud_hardware::node::NodeId;
use picloud_network::flowsim::RateAllocator;
use picloud_network::routing::RoutingPolicy;
use picloud_network::topology::Topology;
use picloud_simcore::{SeedFactory, SimDuration};
use picloud_workloads::traffic::TrafficPattern;

#[test]
fn traffic_replay_is_bit_reproducible() {
    let run = || {
        let cloud = PiCloud::builder().seed(99).build();
        let pattern = TrafficPattern::measured_dc();
        let workload =
            pattern.generate(cloud.topology(), SimDuration::from_secs(10), &cloud.seeds());
        let mut sim = cloud.flow_simulator(RoutingPolicy::default(), RateAllocator::MaxMin);
        for (at, spec) in workload.events() {
            sim.inject(spec.clone(), *at).expect("connected");
        }
        sim.run_to_completion();
        sim.completed()
            .iter()
            .map(|c| (c.id, c.started, c.finished))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn different_seeds_differ() {
    let fct_sum = |seed: u64| {
        let cloud = PiCloud::builder().seed(seed).build();
        let pattern = TrafficPattern::measured_dc();
        let workload =
            pattern.generate(cloud.topology(), SimDuration::from_secs(10), &cloud.seeds());
        workload.total_bytes().as_u64()
    };
    assert_ne!(fct_sum(1), fct_sum(2));
}

#[test]
fn placement_experiment_reproduces() {
    let run = || PlacementExperiment::run(42, 120, 12).expect("batch fits");
    assert_eq!(run(), run());
}

#[test]
fn traffic_experiment_reproduces() {
    assert_eq!(
        TrafficExperiment::run(42, SimDuration::from_secs(8)),
        TrafficExperiment::run(42, SimDuration::from_secs(8))
    );
}

#[test]
fn sdn_experiment_reproduces() {
    let run = || SdnExperiment::paper_scale().expect("label routes");
    assert_eq!(run(), run());
}

#[test]
fn fidelity_experiment_reproduces() {
    assert_eq!(
        FidelityExperiment::run(42, 30),
        FidelityExperiment::run(42, 30)
    );
}

#[test]
fn fault_timeline_is_bit_reproducible() {
    let trace = |seed: u64| {
        let topo = Topology::multi_root_tree(4, 14, 2);
        let nodes: Vec<_> = (0..56).map(NodeId).collect();
        let links: Vec<_> = topo.links().iter().map(|l| l.id).collect();
        FaultTimeline::churn(
            &ChurnConfig::accelerated(),
            &nodes,
            &links,
            SimDuration::from_secs(3600),
            &SeedFactory::new(seed),
        )
    };
    let a = trace(7);
    assert_eq!(a, trace(7));
    // Byte-identical rendering, not just structural equality.
    assert_eq!(a.to_string(), trace(7).to_string());
    assert_ne!(a, trace(8), "different seeds draw different churn");
}

#[test]
fn recovery_experiment_reproduces() {
    let run = || RecoveryExperiment::run_for(42, SimDuration::from_secs(900));
    let (a, b) = (run(), run());
    assert_eq!(a, b);
    assert_eq!(a.to_string(), b.to_string(), "reports are byte-identical");
}
