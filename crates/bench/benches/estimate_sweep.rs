//! Estimation-mode throughput — benches the S2 sweep at both fidelities
//! and writes `BENCH_estimate.json` at the repository root.
//!
//! The estimation pipeline's pitch (ISSUE: Parsimon-style clustering) is
//! order-of-magnitude faster scenario sweeps for a stated error bound:
//! cluster link directions with similar traffic features, replay one
//! representative per cluster on an isolated link, and read predicted
//! FCT percentiles off the composed empirical delay distributions. This
//! bench runs the full E7 × oversubscription sweep (every fabric tier ×
//! every locality, one workload each) through the exact max–min fabric
//! and through the estimator, and records wall-clock for each side, the
//! speedup, and the worst p99 relative error observed — the same bound
//! `tests/estimate.rs` asserts against the oracle. The in-bench guard
//! holds the speedup at ≥ 5× (the acceptance floor is 10× at the longer
//! paper-scale horizon; the bench horizon is shortened for CI, which
//! *under*-states the advantage because the exact solver's cost grows
//! superlinearly with concurrent flows while the estimator's is near
//! linear). Wall-clock lives here and only here: simulation crates never
//! read the clock (lint rule D2).

use criterion::{criterion_group, criterion_main, Criterion};
use picloud::experiments::estimate_exp::{EstimateExperiment, FABRIC_TIERS_MBPS, LOCALITIES};
use picloud_bench::{print_once, quick_criterion, write_bench_json};
use picloud_network::flowsim::estimate::{EstimateConfig, FlowEstimator};
use picloud_network::flowsim::{FlowSimulator, RateAllocator};
use picloud_network::routing::RoutingPolicy;
use picloud_network::topology::{LinkRates, Topology};
use picloud_simcore::units::Bandwidth;
use picloud_simcore::{EDist, SeedFactory, SimDuration};
use picloud_workloads::traffic::TrafficPattern;
use picloud_workloads::TrafficWorkload;
use std::hint::black_box;
use std::sync::Once;
use std::time::Instant;

static BANNER: Once = Once::new();

/// Bench seed (the paper seed) and sweep horizon. The horizon is long
/// enough that the exact solver pays real contention (tens of thousands
/// of flows across the sweep) while keeping the bench CI-sized.
const SEED: u64 = 2013;
const HORIZON_SECS: u64 = 40;

/// In-bench speedup floor: estimate must clear 5× over exact on the
/// identical sweep. The documented claim (≥ 10×) holds at paper-scale
/// horizons; see EXPERIMENTS.md §S2.
const SPEEDUP_FLOOR: f64 = 5.0;

struct Scenario {
    topo: Topology,
    workload: TrafficWorkload,
}

/// One workload per sweep point, generated once and replayed at both
/// fidelities so the comparison times solving, not generation.
fn scenarios() -> Vec<Scenario> {
    let seeds = SeedFactory::new(SEED);
    let mut out = Vec::with_capacity(FABRIC_TIERS_MBPS.len() * LOCALITIES.len());
    for &tier in &FABRIC_TIERS_MBPS {
        for &loc in &LOCALITIES {
            let rates = LinkRates {
                access: Bandwidth::mbps(100),
                fabric: Bandwidth::mbps(tier),
            };
            let topo = Topology::multi_root_tree_with(4, 14, 2, rates);
            let pattern = TrafficPattern::measured_dc()
                .with_arrival_rate(10.0)
                .with_intra_rack_fraction(loc);
            let workload = pattern.generate(&topo, SimDuration::from_secs(HORIZON_SECS), &seeds);
            out.push(Scenario { topo, workload });
        }
    }
    out
}

fn exact_dist(s: &Scenario) -> EDist {
    let mut sim = FlowSimulator::new(
        s.topo.clone(),
        RoutingPolicy::default(),
        RateAllocator::MaxMin,
    );
    s.workload
        .replay_on(&mut sim)
        .expect("generated endpoints are hosts of the connected fabric");
    sim.run_to_completion();
    EDist::from_samples(
        sim.completed()
            .iter()
            .map(|c| c.fct().as_secs_f64())
            .collect(),
    )
}

fn estimate_dist(s: &Scenario) -> (EDist, usize) {
    let est = FlowEstimator::new(
        s.topo.clone(),
        RoutingPolicy::default(),
        RateAllocator::MaxMin,
    )
    .with_config(EstimateConfig::seeded(SEED));
    let out = est.estimate(s.workload.events());
    (out.fct_dist(), out.cluster_count())
}

struct SweepResult {
    flows: usize,
    exact_ms: f64,
    estimate_ms: f64,
    max_p99_rel_err: f64,
    clusters_total: usize,
}

fn run_sweep(scenarios: &[Scenario]) -> SweepResult {
    let start = Instant::now();
    let exact: Vec<EDist> = scenarios.iter().map(exact_dist).collect();
    let exact_ms = start.elapsed().as_secs_f64() * 1e3;

    let start = Instant::now();
    let est: Vec<(EDist, usize)> = scenarios.iter().map(estimate_dist).collect();
    let estimate_ms = start.elapsed().as_secs_f64() * 1e3;

    let mut max_err = 0.0f64;
    for (x, (e, _)) in exact.iter().zip(&est) {
        let (xp, ep) = (x.quantile(0.99), e.quantile(0.99));
        if xp > 0.0 {
            max_err = max_err.max((ep - xp).abs() / xp);
        }
    }
    SweepResult {
        flows: exact.iter().map(EDist::len).sum(),
        exact_ms,
        estimate_ms,
        max_p99_rel_err: max_err,
        clusters_total: est.iter().map(|(_, c)| c).sum(),
    }
}

fn write_artifact(r: &SweepResult) -> f64 {
    let speedup = r.exact_ms / r.estimate_ms.max(1e-9);
    let body = format!(
        "{{\n  \"bench\": \"estimate\",\n  \"topology\": \"multi_root_tree(4,14,2)\",\n  \
         \"seed\": {SEED},\n  \"horizon_secs\": {HORIZON_SECS},\n  \
         \"scenarios\": {},\n  \"flows_total\": {},\n  \"workers\": 1,\n  \
         \"exact_ms\": {:.1},\n  \"estimate_ms\": {:.1},\n  \"speedup\": {:.1},\n  \
         \"clusters_total\": {},\n  \"max_p99_rel_err\": {:.4},\n  \
         \"error_bound\": {:.2}\n}}\n",
        FABRIC_TIERS_MBPS.len() * LOCALITIES.len(),
        r.flows,
        r.exact_ms,
        r.estimate_ms,
        speedup,
        r.clusters_total,
        r.max_p99_rel_err,
        EstimateExperiment::P99_ERROR_BOUND,
    );
    write_bench_json("estimate", &body);
    speedup
}

fn bench(c: &mut Criterion) {
    print_once(
        "Estimation mode — clustered sweep throughput vs the exact oracle",
        "Wall-clock, speedup and worst p99 error land in BENCH_estimate.json (repo root).",
        &BANNER,
    );
    let scenarios = scenarios();
    let result = run_sweep(&scenarios);
    let speedup = write_artifact(&result);

    assert!(
        speedup >= SPEEDUP_FLOOR,
        "estimation mode must clear {SPEEDUP_FLOOR}x over exact on the sweep, got {speedup:.1}x \
         ({:.0} ms exact vs {:.0} ms estimate)",
        result.exact_ms,
        result.estimate_ms
    );
    assert!(
        result.max_p99_rel_err <= EstimateExperiment::P99_ERROR_BOUND,
        "bench sweep p99 error {:.3} exceeds the documented bound {:.2}",
        result.max_p99_rel_err,
        EstimateExperiment::P99_ERROR_BOUND
    );

    // Criterion samples of the per-scenario unit costs (the hardest
    // scenario: all-remote traffic on the tightest fabric).
    let hardest = &scenarios[LOCALITIES.len() - 1];
    c.bench_function("estimate/cluster_and_predict_hardest", |b| {
        b.iter(|| {
            let (d, clusters) = estimate_dist(hardest);
            black_box((d.len(), clusters))
        })
    });
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench
}
criterion_main!(benches);
