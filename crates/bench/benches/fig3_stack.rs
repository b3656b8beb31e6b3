//! F3 — regenerates the Fig. 3 density tables (containers per board, LXC
//! vs full virtualisation) and benches stack deployment through the API.

use criterion::{criterion_group, criterion_main, Criterion};
use picloud::experiments::fig3::Fig3;
use picloud::PiCloud;
use picloud_bench::{print_once, quick_criterion};
use picloud_hardware::node::NodeId;
use picloud_simcore::SimTime;
use std::hint::black_box;
use std::sync::Once;

static BANNER: Once = Once::new();

fn bench(c: &mut Criterion) {
    print_once(
        "F3 / Fig. 3 — software stack & density",
        &Fig3::run().expect("density sweep").to_string(),
        &BANNER,
    );
    c.bench_function("fig3/density_experiment", |b| {
        b.iter(|| black_box(Fig3::run()))
    });
    c.bench_function("fig3/deploy_standard_stack", |b| {
        b.iter(|| {
            let mut cloud = PiCloud::glasgow();
            black_box(
                cloud
                    .deploy_standard_stack(NodeId(0), SimTime::ZERO)
                    .expect("stack deploys"),
            )
        })
    });
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench
}
criterion_main!(benches);
