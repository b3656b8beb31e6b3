//! E8 — regenerates the SDN discipline comparison and the IP-less
//! migration churn table; benches controller routing and migration.

use criterion::{criterion_group, criterion_main, Criterion};
use picloud::experiments::sdn_exp::SdnExperiment;
use picloud_bench::{print_once, quick_criterion};
use picloud_network::topology::Topology;
use picloud_sdn::controller::{InstallMode, SdnController};
use picloud_sdn::ipless::{AddressingMode, IplessFabric, Label};
use picloud_simcore::SimTime;
use std::hint::black_box;
use std::sync::Once;

static BANNER: Once = Once::new();

fn bench(c: &mut Criterion) {
    print_once(
        "E8 — SDN installation disciplines & IP-less routing",
        &SdnExperiment::paper_scale()
            .expect("label routes")
            .to_string(),
        &BANNER,
    );
    c.bench_function("sdn/reactive_all_pairs_fanout4", |b| {
        b.iter(|| black_box(SdnExperiment::run_install_mode(InstallMode::Reactive, 4)))
    });
    c.bench_function("sdn/proactive_preinstall", |b| {
        b.iter(|| {
            black_box(SdnController::new(
                Topology::multi_root_tree(4, 14, 2),
                InstallMode::Proactive,
            ))
        })
    });
    c.bench_function("sdn/label_migration_under_load", |b| {
        b.iter(|| {
            let topo = Topology::multi_root_tree(4, 14, 2);
            let hosts: Vec<_> = topo.hosts().map(|h| h.id).collect();
            let mut fabric = IplessFabric::new(topo, AddressingMode::FlatLabel);
            fabric.bind(Label(1), hosts[55]);
            for host in hosts.iter().take(20) {
                fabric.open_session(*host, Label(1));
            }
            black_box(fabric.migrate(Label(1), hosts[14], SimTime::from_secs(1)))
        })
    });
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench
}
criterion_main!(benches);
