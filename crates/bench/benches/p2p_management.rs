//! E12 — regenerates the centralised-vs-gossip management table and
//! benches gossip convergence.

use criterion::{criterion_group, criterion_main, Criterion};
use picloud::experiments::p2p_mgmt::P2pMgmtExperiment;
use picloud_bench::{print_once, quick_criterion};
use picloud_mgmt::gossip::GossipNetwork;
use picloud_simcore::SeedFactory;
use std::hint::black_box;
use std::sync::Once;

static BANNER: Once = Once::new();

fn bench(c: &mut Criterion) {
    print_once(
        "E12 — centralised vs P2P management",
        &P2pMgmtExperiment::paper_scale()
            .expect("gossip converges")
            .to_string(),
        &BANNER,
    );
    let seeds = SeedFactory::new(2013);
    c.bench_function("gossip/converge_56_fanout2", |b| {
        b.iter(|| {
            let mut net = GossipNetwork::new(56, 2, &seeds);
            black_box(net.run_to_convergence(128).expect("converges"))
        })
    });
    c.bench_function("gossip/converge_224_fanout2", |b| {
        b.iter(|| {
            let mut net = GossipNetwork::new(224, 2, &seeds);
            black_box(net.run_to_convergence(128).expect("converges"))
        })
    });
    c.bench_function("p2p/full_experiment", |b| {
        b.iter(|| black_box(P2pMgmtExperiment::run(1, 56)))
    });
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench
}
criterion_main!(benches);
