//! E14/E15 — regenerates the oversubscription and cpufreq-governor tables
//! (the §III cost-efficiency and power-management levers) and benches
//! them, plus the discrete-event web-server simulation they rest on.

use criterion::{criterion_group, criterion_main, Criterion};
use picloud::experiments::dvfs_exp::DvfsExperiment;
use picloud::experiments::oversub_exp::OversubscriptionExperiment;
use picloud::experiments::sla_exp::SlaExperiment;
use picloud_bench::{print_once, quick_criterion};
use picloud_simcore::SeedFactory;
use picloud_workloads::websim::{simulate, WebSimConfig};
use std::hint::black_box;
use std::sync::Once;

static BANNER: Once = Once::new();

fn bench(c: &mut Criterion) {
    let body = format!(
        "{}\n{}\n{}",
        OversubscriptionExperiment::paper_scale(),
        DvfsExperiment::paper_scale(),
        SlaExperiment::paper_scale().expect("168 web containers fit at 4x overcommit")
    );
    print_once(
        "E14/E15 — oversubscription & cpufreq governors",
        &body,
        &BANNER,
    );
    c.bench_function("oversub/full_sweep", |b| {
        b.iter(|| black_box(OversubscriptionExperiment::paper_scale()))
    });
    c.bench_function("dvfs/diurnal_day", |b| {
        b.iter(|| black_box(DvfsExperiment::paper_scale()))
    });
    c.bench_function("sla/full_sweep", |b| {
        b.iter(|| black_box(SlaExperiment::run(1, 168, 0.05)))
    });
    let seeds = SeedFactory::new(2013);
    c.bench_function("websim/10k_requests_rho07", |b| {
        b.iter(|| black_box(simulate(&WebSimConfig::pi_static(245.0), 10_000, &seeds)))
    });
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench
}
criterion_main!(benches);
