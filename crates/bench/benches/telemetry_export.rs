//! Observability overhead — benches the telemetry layer and writes
//! `BENCH_telemetry.json` at the repository root.
//!
//! Three costs matter: the hot-path overhead of a *disabled* sink (must
//! be near zero — it guards every instrumented subsystem), the cost of
//! recording into the labeled registry, and the cost of snapshotting and
//! serialising a full E17 run. The JSON artifact captures median
//! nanos-per-iteration for each so CI can chart the trend.

use criterion::{criterion_group, criterion_main, Criterion};
use picloud_bench::{
    e17_live_run, median, print_once, quick_criterion, time_ns_per_iter, write_bench_json,
};
use picloud_simcore::telemetry::{MetricsRegistry, TelemetrySink, Tracer};
use picloud_simcore::SimTime;
use std::hint::black_box;
use std::sync::Once;

static BANNER: Once = Once::new();

/// One short E17 churn run with live telemetry.
fn live_run() -> TelemetrySink {
    e17_live_run(TelemetrySink::recording(SimTime::ZERO))
}

fn write_artifact() {
    let disabled_emit = median(time_ns_per_iter(9, 100_000, || {
        let mut t = Tracer::disabled();
        t.emit(SimTime::ZERO, "noop", |e| {
            e.u64("x", 1);
        });
        black_box(&t);
    }));
    let enabled_emit = median(time_ns_per_iter(9, 100_000, || {
        let mut t = Tracer::ring(64);
        t.emit(SimTime::ZERO, "noop", |e| {
            e.u64("x", 1);
        });
        black_box(&t);
    }));
    let gauge_set = median(time_ns_per_iter(9, 10_000, || {
        let mut reg = MetricsRegistry::new(SimTime::ZERO);
        reg.gauge("bench_gauge", &[("node", "7")])
            .set(SimTime::from_secs(1), 1.0);
        black_box(&reg);
    }));
    let sink = live_run();
    let snap = sink.registry.snapshot(SimTime::from_secs(600));
    let export_jsonl = median(time_ns_per_iter(5, 10, || {
        black_box(snap.to_jsonl());
    }));
    let export_prometheus = median(time_ns_per_iter(5, 10, || {
        black_box(snap.to_prometheus());
    }));
    let trace_jsonl = median(time_ns_per_iter(5, 10, || {
        black_box(sink.tracer.to_jsonl());
    }));
    let body = format!(
        "{{\n  \"bench\": \"telemetry\",\n  \"series\": {},\n  \"trace_events\": {},\n  \
         \"ns_per_iter\": {{\n    \"tracer_emit_disabled\": {disabled_emit},\n    \
         \"tracer_emit_ring\": {enabled_emit},\n    \"registry_gauge_create_set\": {gauge_set},\n    \
         \"snapshot_to_jsonl\": {export_jsonl},\n    \"snapshot_to_prometheus\": {export_prometheus},\n    \
         \"trace_to_jsonl\": {trace_jsonl}\n  }}\n}}\n",
        snap.rows.len(),
        sink.tracer.len(),
    );
    write_bench_json("telemetry", &body);
}

fn bench(c: &mut Criterion) {
    print_once(
        "Telemetry — registry, tracer and exporter overhead",
        "Median costs land in BENCH_telemetry.json (repo root).",
        &BANNER,
    );
    write_artifact();

    c.bench_function("telemetry/tracer_emit_disabled", |b| {
        let mut t = Tracer::disabled();
        b.iter(|| {
            t.emit(SimTime::ZERO, "noop", |e| {
                e.u64("x", 1);
            });
            black_box(&t);
        })
    });
    c.bench_function("telemetry/tracer_emit_ring", |b| {
        let mut t = Tracer::ring(1024);
        b.iter(|| {
            t.emit(SimTime::ZERO, "noop", |e| {
                e.u64("x", 1);
            });
            black_box(&t);
        })
    });
    c.bench_function("telemetry/e17_snapshot_jsonl", |b| {
        let sink = live_run();
        let snap = sink.registry.snapshot(SimTime::from_secs(600));
        b.iter(|| black_box(snap.to_jsonl()))
    });
    c.bench_function("telemetry/e17_live_run", |b| {
        b.iter(|| black_box(live_run().registry.len()))
    });
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench
}
criterion_main!(benches);
