//! F4 — regenerates the Fig. 4 control panel after the §II-C workflow and
//! benches panel refresh and spawn latency.

use criterion::{criterion_group, criterion_main, Criterion};
use picloud::experiments::fig4::Fig4;
use picloud::PiCloud;
use picloud_bench::{print_once, quick_criterion};
use picloud_hardware::node::NodeId;
use picloud_mgmt::api::ApiRequest;
use picloud_mgmt::panel::ControlPanel;
use picloud_simcore::SimTime;
use std::hint::black_box;
use std::sync::Once;

static BANNER: Once = Once::new();

fn bench(c: &mut Criterion) {
    print_once(
        "F4 / Fig. 4 — management control panel",
        &Fig4::run().expect("panel workflow").to_string(),
        &BANNER,
    );
    c.bench_function("fig4/full_workflow", |b| b.iter(|| black_box(Fig4::run())));
    // Panel refresh cost on a loaded 56-node cloud.
    let mut cloud = PiCloud::glasgow();
    for node in 0..56u32 {
        cloud
            .api(
                ApiRequest::SpawnContainer {
                    node: NodeId(node),
                    name: format!("web-{node}"),
                    image: "lighttpd".into(),
                },
                SimTime::ZERO,
            )
            .expect("spawn");
    }
    let mut panel = ControlPanel::new();
    let mut tick = 1u64;
    c.bench_function("fig4/panel_refresh_56_nodes", |b| {
        b.iter(|| {
            tick += 1;
            black_box(panel.refresh(cloud.pimaster_mut(), SimTime::from_secs(tick)))
        })
    });
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench
}
criterion_main!(benches);
