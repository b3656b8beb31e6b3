//! E5 — regenerates the placement/consolidation ledger (power saved vs
//! congestion caused) and benches each policy.

use criterion::{criterion_group, criterion_main, Criterion};
use picloud::experiments::placement_exp::PlacementExperiment;
use picloud_bench::{print_once, quick_criterion};
use picloud_placement::cluster::{ClusterView, PlacementRequest};
use picloud_placement::consolidate::Consolidator;
use picloud_placement::scheduler::{place_all, PolicyKind};
use picloud_simcore::units::Bytes;
use std::hint::black_box;
use std::sync::Once;

static BANNER: Once = Once::new();

fn bench(c: &mut Criterion) {
    print_once(
        "E5 — placement policies & consolidation ledger",
        &PlacementExperiment::paper_scale()
            .expect("batch fits")
            .to_string(),
        &BANNER,
    );
    let requests: Vec<PlacementRequest> = (0..150)
        .map(|i| PlacementRequest::new(Bytes::mib(30), 50e6).with_group(i % 20))
        .collect();
    for kind in PolicyKind::all() {
        c.bench_function(&format!("placement/{kind}"), |b| {
            b.iter(|| {
                let mut view = ClusterView::picloud_default();
                let mut policy = kind.build(1);
                black_box(place_all(&mut view, &mut *policy, &requests).expect("fits"))
            })
        });
    }
    c.bench_function("placement/consolidate_after_worst_fit", |b| {
        b.iter(|| {
            let mut view = ClusterView::picloud_default();
            let mut policy = PolicyKind::WorstFit.build(1);
            place_all(&mut view, &mut *policy, &requests).expect("fits");
            black_box(Consolidator::default().plan(&mut view))
        })
    });
    c.bench_function("placement/full_experiment", |b| {
        b.iter(|| black_box(PlacementExperiment::run(1, 150, 20)))
    });
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench
}
criterion_main!(benches);
