//! Span-layer overhead — benches causal-span recording and analysis and
//! writes `BENCH_spans.json` at the repository root.
//!
//! The contract under test: a *disabled* tracer's span path must cost no
//! more than the plain disabled emit it guards (within ~2×, plus a few
//! nanoseconds of timer noise) — instrumented subsystems thread span ids
//! unconditionally, so this branch runs on every RPC, route and recovery
//! step even when observability is off. The artifact also captures the
//! enabled-path costs: span start/end recording, forest reconstruction
//! from a live E17 run, and critical-path extraction.

use criterion::{criterion_group, criterion_main, Criterion};
use picloud_bench::{
    e17_live_run, median, print_once, quick_criterion, time_ns_per_iter, write_bench_json,
};
use picloud_simcore::telemetry::{TelemetrySink, Tracer};
use picloud_simcore::{SimTime, SpanForest, SpanId};
use std::hint::black_box;
use std::sync::Once;

static BANNER: Once = Once::new();

/// One short E17 churn run with live telemetry (spans included).
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
    let disabled_span = median(time_ns_per_iter(9, 100_000, || {
        let mut t = Tracer::disabled();
        let id = t.span_start(SimTime::ZERO, "noop", SpanId::NONE, |e| {
            e.u64("x", 1);
        });
        t.span_end(SimTime::ZERO, id, |_| {});
        black_box(&t);
    }));
    let enabled_span = median(time_ns_per_iter(9, 100_000, || {
        let mut t = Tracer::ring(64);
        let id = t.span_start(SimTime::ZERO, "noop", SpanId::NONE, |e| {
            e.u64("x", 1);
        });
        t.span_end(SimTime::ZERO, id, |_| {});
        black_box(&t);
    }));
    let sink = live_run();
    let forest = SpanForest::from_tracer(&sink.tracer);
    let reconstruct = median(time_ns_per_iter(5, 10, || {
        black_box(SpanForest::from_tracer(&sink.tracer));
    }));
    let roots: Vec<SpanId> = forest.roots().to_vec();
    let critical_paths = median(time_ns_per_iter(5, 10, || {
        for &r in &roots {
            black_box(forest.critical_path(r));
        }
    }));
    let spans_jsonl = median(time_ns_per_iter(5, 10, || {
        black_box(forest.to_jsonl());
    }));

    // The zero-alloc contract: the disabled span path (start + end, two
    // guarded no-ops) stays within ~2x one disabled emit. The +50 ns
    // floor keeps sub-nanosecond medians from tripping on timer noise.
    assert!(
        disabled_span <= disabled_emit * 2 + 50,
        "disabled span start+end ({disabled_span} ns) must stay within ~2x \
         a disabled emit ({disabled_emit} ns)"
    );

    let body = format!(
        "{{\n  \"bench\": \"spans\",\n  \"spans\": {},\n  \"roots\": {},\n  \
         \"ns_per_iter\": {{\n    \"tracer_emit_disabled\": {disabled_emit},\n    \
         \"span_start_end_disabled\": {disabled_span},\n    \
         \"span_start_end_ring\": {enabled_span},\n    \
         \"forest_from_e17_trace\": {reconstruct},\n    \
         \"critical_paths_all_roots\": {critical_paths},\n    \
         \"spans_to_jsonl\": {spans_jsonl}\n  }}\n}}\n",
        forest.len(),
        roots.len(),
    );
    write_bench_json("spans", &body);
}

fn bench(c: &mut Criterion) {
    print_once(
        "Spans — recording, reconstruction and critical-path overhead",
        "Median costs land in BENCH_spans.json (repo root).",
        &BANNER,
    );
    write_artifact();

    c.bench_function("spans/span_start_end_disabled", |b| {
        let mut t = Tracer::disabled();
        b.iter(|| {
            let id = t.span_start(SimTime::ZERO, "noop", SpanId::NONE, |e| {
                e.u64("x", 1);
            });
            t.span_end(SimTime::ZERO, id, |_| {});
            black_box(&t);
        })
    });
    c.bench_function("spans/span_start_end_ring", |b| {
        let mut t = Tracer::ring(1024);
        b.iter(|| {
            let id = t.span_start(SimTime::ZERO, "noop", SpanId::NONE, |e| {
                e.u64("x", 1);
            });
            t.span_end(SimTime::ZERO, id, |_| {});
            black_box(&t);
        })
    });
    c.bench_function("spans/e17_forest_reconstruct", |b| {
        let sink = live_run();
        b.iter(|| black_box(SpanForest::from_tracer(&sink.tracer).len()))
    });
    c.bench_function("spans/e17_critical_paths", |b| {
        let sink = live_run();
        let forest = SpanForest::from_tracer(&sink.tracer);
        let roots: Vec<SpanId> = forest.roots().to_vec();
        b.iter(|| {
            for &r in &roots {
                black_box(forest.critical_path(r));
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
