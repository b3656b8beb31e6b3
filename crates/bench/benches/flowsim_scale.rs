//! Fabric scaling — benches the flow-level simulator's hot paths at
//! escalating active-flow populations and writes `BENCH_flowsim.json`
//! at the repository root.
//!
//! The incremental max–min solver's pitch is sub-quadratic scaling: an
//! inject or completion should only pay for its dirty region, not for
//! every active flow in the fabric. This bench pins that claim with
//! numbers on the paper's 56-host multi-root tree carrying the
//! measurement-calibrated Pareto mix: best-round nanos per inject, per
//! advance step and per completed flow at 80–800 concurrent flows, and
//! an in-bench guard that a 10× larger population stays within linear
//! per-op growth (a quadratic-per-op regression lands at ~100×).
//!
//! The second section scales past the paper: a 1024-host `fat_tree(16)`
//! pre-loaded with ≥ 100k active flows, swept over partition
//! *concentration* — the same population confined to 1, 4 or 16 pods.
//! Spreading flows across partitions shrinks every dirty region, so
//! per-inject cost must fall well below proportional as the partition
//! count rises (the in-bench assert). The solver worker count comes
//! from `--partitions N` (after `--`, default 1); worker count never
//! changes a simulated bit (pinned by `tests/flowsim_equiv.rs`), only
//! wall-clock time. Both sections land in `BENCH_flowsim.json`;
//! EXPERIMENTS.md documents the schema.

use criterion::{criterion_group, criterion_main, Criterion};
use picloud_bench::{median, print_once, quick_criterion, time_ns_per_iter, write_bench_json};
use picloud_network::flow::FlowSpec;
use picloud_network::flowsim::{FlowSimulator, RateAllocator};
use picloud_network::routing::RoutingPolicy;
use picloud_network::topology::Topology;
use picloud_simcore::rng::SeedFactory;
use picloud_simcore::{SimDuration, SimTime};
use picloud_workloads::traffic::TrafficPattern;
use std::hint::black_box;
use std::sync::Once;
use std::time::Instant;

static BANNER: Once = Once::new();

const SCALES: [usize; 4] = [80, 160, 320, 800];

/// Best-round nanos per iteration of `f` over `rounds` timed rounds of
/// `iters` calls each. The minimum is the noise-robust estimator of an
/// operation's intrinsic cost (scheduler preemption and cache pollution
/// only ever add time), which matters because the scaling asserts below
/// compare two of these figures against a fixed ratio.
fn best_ns_per_iter(rounds: usize, iters: u32, f: impl FnMut()) -> u64 {
    time_ns_per_iter(rounds, iters, f)
        .into_iter()
        .min()
        .unwrap_or(0)
}

/// Pareto-mix specs drawn from the calibrated DC pattern, endpoints and
/// sizes only (the bench controls injection times itself).
fn specs(n: usize) -> Vec<FlowSpec> {
    let topo = Topology::multi_root_tree(4, 14, 2);
    let pattern = TrafficPattern::measured_dc();
    let mut out = Vec::with_capacity(n);
    let mut window = SimDuration::from_secs(30);
    // One generation window usually suffices; widen it until it does.
    while out.len() < n {
        out.clear();
        let wl = pattern.generate(&topo, window, &SeedFactory::new(42));
        out.extend(wl.events().iter().take(n).map(|(_, s)| s.clone()));
        window = window.saturating_add(window);
    }
    out
}

/// A fabric pre-loaded with `n` active flows at `SimTime::ZERO`.
fn loaded_sim(n: usize) -> FlowSimulator {
    let mut sim = FlowSimulator::new(
        Topology::multi_root_tree(4, 14, 2),
        RoutingPolicy::Ecmp { max_paths: 4 },
        RateAllocator::MaxMin,
    );
    sim.inject_batch(specs(n), SimTime::ZERO)
        .expect("generated endpoints are hosts of the connected fabric");
    sim
}

/// Per-scale hot-path costs.
struct ScaleRow {
    active: usize,
    inject_ns: u64,
    advance_ns: u64,
    complete_ns: u64,
}

fn measure(scale: usize, probes: &[FlowSpec]) -> ScaleRow {
    let base = loaded_sim(scale);

    // Inject: one extra flow into the steady population, then back out.
    let mut sim = base.clone();
    let mut i = 0usize;
    let inject_ns = best_ns_per_iter(9, 64, || {
        let spec = probes[i % probes.len()].clone();
        i += 1;
        let at = sim.now();
        let id = sim.inject(spec, at).expect("probe endpoints are hosts");
        sim.cancel(id);
        black_box(sim.active_count());
    });

    // Advance: event-by-event progress through completions.
    let advance_ns = {
        let mut sims = Vec::new();
        let mut samples = Vec::new();
        for _ in 0..5 {
            sims.push(base.clone());
        }
        for mut sim in sims {
            let start = Instant::now();
            let mut steps = 0u32;
            while steps < 64 {
                match sim.next_completion_time() {
                    Some(t) => sim.advance_to(t),
                    None => break,
                }
                steps += 1;
            }
            if steps > 0 {
                samples.push((start.elapsed().as_nanos() / u128::from(steps)) as u64);
            }
        }
        median(samples)
    };

    // Complete: full drain, cost per completed flow.
    let complete_ns = {
        let mut samples = Vec::new();
        for _ in 0..3 {
            let mut sim = base.clone();
            let start = Instant::now();
            sim.run_to_completion();
            let done = sim.completed_total().max(1);
            samples.push((start.elapsed().as_nanos() / u128::from(done)) as u64);
        }
        median(samples)
    };

    ScaleRow {
        active: scale,
        inject_ns,
        advance_ns,
        complete_ns,
    }
}

/// One partition-concentration point on the 1024-host fat-tree.
struct ConcentrationRow {
    /// Pods the population is confined to (= local partitions exercised).
    partitions_loaded: usize,
    /// Active flows per loaded pod.
    pod_flows: usize,
    /// Median nanos for an inject + cancel probe into pod 0.
    inject_ns: u64,
}

/// Worker count for the fat-tree section: `--partitions N` after `--`
/// on the bench command line, else 1. (The vendored criterion shim
/// ignores CLI arguments, so the flag is ours to parse.)
fn scale_workers() -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--partitions")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .map(|n| n.max(1))
        .unwrap_or(1)
}

/// Number of pods in the scale fabric (`fat_tree(SCALE_K)`).
const SCALE_K: u16 = 16;
/// Pre-loaded population: ≥ 100k active flows (the acceptance bar).
const SCALE_FLOWS: usize = 102_400;

/// Hosts grouped by pod: edge rack `r` belongs to pod `r / (k/2)`.
fn hosts_by_pod(topo: &Topology) -> Vec<Vec<picloud_network::topology::DeviceId>> {
    let half = SCALE_K / 2;
    let mut pods = vec![Vec::new(); SCALE_K as usize];
    for (rack, hosts) in topo.hosts_by_rack() {
        pods[(rack / half) as usize].extend(hosts);
    }
    pods
}

/// `SCALE_FLOWS` pod-local flows confined to the first `p` pods.
/// Within each pod the endpoint walk `h -> h + 1 + (j % 7)` makes the
/// pod's flow-sharing graph one connected component (a circulant graph
/// over the 64 hosts), so a probe into pod 0 dirties — and re-solves —
/// exactly its own pod's `SCALE_FLOWS / p` flows: the cost a partition
/// actually owns. Sizes are uniform and large so nothing completes
/// while probing, and the few hundred distinct pairs keep the route
/// cache warm.
fn concentrated_specs(
    pods: &[Vec<picloud_network::topology::DeviceId>],
    p: usize,
) -> Vec<FlowSpec> {
    let mut out = Vec::with_capacity(SCALE_FLOWS);
    for i in 0..SCALE_FLOWS {
        let pod = &pods[i % p];
        let j = i / p;
        let src = pod[j % pod.len()];
        // The hop `1 + (j % 7)` is never 0 mod 64, so src != dst.
        let dst = pod[(j + 1 + (j % 7)) % pod.len()];
        out.push(FlowSpec::new(
            src,
            dst,
            picloud_simcore::units::Bytes::mib(256),
        ));
    }
    out
}

fn measure_concentration(
    pods: &[Vec<picloud_network::topology::DeviceId>],
    p: usize,
    workers: usize,
) -> (ConcentrationRow, usize) {
    let mut sim = FlowSimulator::new(
        Topology::fat_tree(SCALE_K),
        RoutingPolicy::SingleShortest,
        RateAllocator::MaxMin,
    )
    .with_workers(workers);
    let effective = sim.workers();
    sim.inject_batch(concentrated_specs(pods, p), SimTime::ZERO)
        .expect("pod-local endpoints are hosts of the connected fabric");
    assert!(
        sim.active_count() >= 100_000,
        "scale section must hold >= 100k active flows, got {}",
        sim.active_count()
    );
    let probe = FlowSpec::new(
        pods[0][0],
        pods[0][1],
        picloud_simcore::units::Bytes::mib(1),
    );
    let inject_ns = best_ns_per_iter(3, 4, || {
        let at = sim.now();
        let id = sim.inject(probe.clone(), at).expect("pod-0 probe routes");
        sim.cancel(id);
        black_box(sim.active_count());
    });
    (
        ConcentrationRow {
            partitions_loaded: p,
            pod_flows: SCALE_FLOWS / p,
            inject_ns,
        },
        effective,
    )
}

/// The fat-tree scale sweep: same population, rising partition spread.
/// Returns the rows plus the pool size the simulators actually ran with
/// (the artifact records that, not the raw flag, so the CI partitions
/// matrix uploads stay distinguishable even if the request gets
/// clamped).
fn measure_fat_tree_scale(workers: usize) -> (Vec<ConcentrationRow>, usize) {
    let topo = Topology::fat_tree(SCALE_K);
    let pods = hosts_by_pod(&topo);
    let mut effective = workers.max(1);
    let rows = [1usize, 4, 16]
        .iter()
        .map(|&p| {
            let (row, used) = measure_concentration(&pods, p, workers);
            effective = used;
            row
        })
        .collect();
    (rows, effective)
}

fn write_artifact() -> (Vec<ScaleRow>, Vec<ConcentrationRow>) {
    let probes = specs(64);
    let rows: Vec<ScaleRow> = SCALES.iter().map(|&s| measure(s, &probes)).collect();
    let (scale_rows, workers) = measure_fat_tree_scale(scale_workers());

    let mut body = String::from(
        "{\n  \"bench\": \"flowsim\",\n  \"topology\": \"multi_root_tree(4,14,2)\",\n  \
         \"hosts\": 56,\n  \"scales\": [\n",
    );
    for (i, r) in rows.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"active_flows\": {}, \"ns_per_inject\": {}, \
             \"ns_per_advance\": {}, \"ns_per_complete\": {}}}{}\n",
            r.active,
            r.inject_ns,
            r.advance_ns,
            r.complete_ns,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    body.push_str(&format!(
        "  ],\n  \"fat_tree_scale\": {{\n    \"topology\": \"fat_tree({SCALE_K})\",\n    \
         \"hosts\": 1024,\n    \"active_flows\": {SCALE_FLOWS},\n    \
         \"workers\": {workers},\n    \"concentrations\": [\n"
    ));
    for (i, r) in scale_rows.iter().enumerate() {
        body.push_str(&format!(
            "      {{\"partitions_loaded\": {}, \"pod_flows\": {}, \"ns_per_inject\": {}}}{}\n",
            r.partitions_loaded,
            r.pod_flows,
            r.inject_ns,
            if i + 1 < scale_rows.len() { "," } else { "" },
        ));
    }
    body.push_str("    ]\n  }\n}\n");
    write_bench_json("flowsim", &body);
    (rows, scale_rows)
}

fn bench(c: &mut Criterion) {
    print_once(
        "Fabric scaling — incremental solver cost vs active-flow count",
        "Median hot-path costs land in BENCH_flowsim.json (repo root).",
        &BANNER,
    );
    let (rows, scale_rows) = write_artifact();

    // Quadratic-blowup guard: on the saturated 56-host fabric every flow
    // shares links with every other, so one probe's dirty region is the
    // whole population and per-op cost grows up to *linearly* with the
    // flow count (measured ~10× at 10× flows once the route-computation
    // overhead that used to pad the small-scale figure was pruned). The
    // 20× bound catches a regression to quadratic-per-op work — an
    // accidental full re-solve inside the inner loop lands at ~100× —
    // while tolerating the honest linear region growth. The *sub-linear*
    // claim (cost tracks the disturbed partition, not the population)
    // belongs to the fat-tree concentration sweep asserted below, where
    // partition structure actually exists.
    let (small, large) = (&rows[0], &rows[rows.len() - 1]);
    assert_eq!(large.active, small.active * 10);
    assert!(
        large.inject_ns < small.inject_ns.max(1) * 20,
        "inject cost blew past linear: {} ns at {} flows vs {} ns at {} flows",
        large.inject_ns,
        large.active,
        small.inject_ns,
        small.active
    );
    assert!(
        large.advance_ns < small.advance_ns.max(1) * 20,
        "advance cost blew past linear: {} ns at {} flows vs {} ns at {} flows",
        large.advance_ns,
        large.active,
        small.advance_ns,
        small.active
    );

    // The partition claim: spreading the same ≥100k-flow population over
    // 16 pods instead of 1 shrinks every dirty region 16×, so per-inject
    // cost must fall well below proportional — sub-linear in partition
    // count means 16× the partitions buys (much) more than 4× per op.
    let (one, sixteen) = (&scale_rows[0], &scale_rows[scale_rows.len() - 1]);
    assert_eq!((one.partitions_loaded, sixteen.partitions_loaded), (1, 16));
    assert!(
        sixteen.inject_ns.max(1) * 4 < one.inject_ns,
        "partitioning does not pay: {} ns/inject at 1 partition vs {} ns at 16",
        one.inject_ns,
        sixteen.inject_ns
    );

    c.bench_function("flowsim/inject_cancel_at_320", |b| {
        let mut sim = loaded_sim(320);
        let probes = specs(8);
        let mut i = 0usize;
        b.iter(|| {
            let spec = probes[i % probes.len()].clone();
            i += 1;
            let at = sim.now();
            let id = sim.inject(spec, at).expect("probe endpoints are hosts");
            sim.cancel(id);
            black_box(sim.active_count());
        })
    });
    c.bench_function("flowsim/drain_80", |b| {
        let base = loaded_sim(80);
        b.iter(|| {
            let mut sim = base.clone();
            sim.run_to_completion();
            black_box(sim.completed_total())
        })
    });
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench
}
criterion_main!(benches);
