//! T1 — regenerates Table I (cost / power / cooling, 56 servers) and
//! benches the comparison pipeline.

use criterion::{criterion_group, criterion_main, Criterion};
use picloud::experiments::table1::Table1;
use picloud_bench::{print_once, quick_criterion};
use std::hint::black_box;
use std::sync::Once;

static BANNER: Once = Once::new();

fn bench(c: &mut Criterion) {
    print_once(
        "T1 / Table I — cost breakdown of a 56-server testbed",
        &Table1::paper().to_string(),
        &BANNER,
    );
    c.bench_function("table1/paper_56_servers", |b| {
        b.iter(|| black_box(Table1::paper()))
    });
    c.bench_function("table1/sweep_sizes", |b| {
        b.iter(|| {
            for machines in [14u16, 28, 56, 112, 224] {
                black_box(Table1::run(machines));
            }
        })
    });
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench
}
criterion_main!(benches);
