//! Time-series pipeline costs — benches the tsdb scrape, query and alert
//! path and writes `BENCH_tsdb.json` at the repository root.
//!
//! Three costs matter: sampling a full registry into the delta-encoded
//! store (paid on every scrape tick of every observed run), evaluating a
//! windowed query over a long scrape history, and walking the burn-rate
//! alert state machine over a real E17 timeline. The artifact also
//! captures bytes-per-sample so the encoding's storage claim is tracked
//! as a trend, not asserted once.

use criterion::{criterion_group, criterion_main, Criterion};
use picloud_bench::{
    e17_live_run, median, print_once, quick_criterion, time_ns_per_iter, write_bench_json,
};
use picloud_simcore::telemetry::slo::AlertPolicy;
use picloud_simcore::telemetry::tsdb::{QueryFn, ScrapeConfig, TimeSeriesDb};
use picloud_simcore::telemetry::{MetricsRegistry, TelemetrySink};
use picloud_simcore::{SimDuration, SimTime};
use std::hint::black_box;
use std::sync::Once;

static BANNER: Once = Once::new();

/// A registry holding six hundred mixed series (a thousand streams) — the scale of a full E17
/// run (56 nodes × a handful of per-node series plus the fabric).
fn synthetic_registry() -> MetricsRegistry {
    let mut reg = MetricsRegistry::new(SimTime::ZERO);
    for n in 0..200u32 {
        let node = n.to_string();
        reg.gauge("bench_node_cpu", &[("node", &node)])
            .set(SimTime::ZERO, f64::from(n));
        reg.counter("bench_node_ops_total", &[("node", &node)])
            .add(u64::from(n));
    }
    for n in 0..200u32 {
        let node = n.to_string();
        reg.histogram("bench_latency_seconds", &[("node", &node)])
            .observe(f64::from(n) * 0.001);
    }
    reg
}

/// Advances the registry one second and scrapes it, the per-tick unit of
/// work an observed run pays.
fn tick(reg: &mut MetricsRegistry, db: &mut TimeSeriesDb, s: u64) {
    let now = SimTime::from_secs(s);
    // A minority of series move each tick, as in a real run: delta
    // encoding earns its keep on the unchanged majority.
    for n in 0..20u32 {
        let node = (n * 10).to_string();
        reg.gauge("bench_node_cpu", &[("node", &node)])
            .set(now, f64::from(n) + s as f64);
        reg.counter("bench_node_ops_total", &[("node", &node)])
            .add(1);
    }
    db.record(reg, now);
}

/// A scrape history of `scrapes` one-second ticks over the synthetic
/// registry.
fn synthetic_db(scrapes: u64) -> (MetricsRegistry, TimeSeriesDb) {
    let mut reg = synthetic_registry();
    let mut db = TimeSeriesDb::new(
        SimTime::ZERO,
        ScrapeConfig::every(SimDuration::from_secs(1)),
    );
    for s in 0..scrapes {
        tick(&mut reg, &mut db, s);
    }
    (reg, db)
}

/// One short E17 churn run scraped on the default grid.
fn live_sink() -> TelemetrySink {
    e17_live_run(TelemetrySink::recording_with_tsdb(
        SimTime::ZERO,
        ScrapeConfig::default(),
    ))
}

fn write_artifact() {
    // Scrape cost: fresh store, 60 ticks, reported per scrape of the
    // ~1000-stream registry.
    let scrape = median(time_ns_per_iter(9, 3, || {
        let (_, db) = synthetic_db(60);
        black_box(db.samples());
    })) / 60;

    let (reg, db) = synthetic_db(240);
    let key = db
        .series_matching("bench_node_cpu", &[("node".to_owned(), "70".to_owned())])
        .pop()
        .unwrap_or_else(|| db.all_series().remove(0));
    let at = SimTime::from_secs(239);
    let full = SimDuration::from_secs(240);
    let query_avg = median(time_ns_per_iter(9, 1000, || {
        black_box(db.eval_at(&key, QueryFn::AvgOverTime, full, at));
    }));
    let query_quantile = median(time_ns_per_iter(9, 1000, || {
        black_box(db.eval_at(&key, QueryFn::QuantileOverTime(0.99), full, at));
    }));

    let sink = live_sink();
    let e17 = sink.tsdb().expect("recording sink has a tsdb");
    let policy = AlertPolicy::picloud_default();
    let alerts = median(time_ns_per_iter(5, 20, || {
        black_box(policy.evaluate(e17).transitions.len());
    }));

    let body = format!(
        "{{\n  \"bench\": \"tsdb\",\n  \"series\": {},\n  \"scrapes\": {},\n  \
         \"samples\": {},\n  \"bytes_per_sample\": {:.3},\n  \"e17_samples\": {},\n  \
         \"e17_bytes_per_sample\": {:.3},\n  \"ns_per_iter\": {{\n    \
         \"scrape_1k_streams\": {scrape},\n    \"query_avg_full_window\": {query_avg},\n    \
         \"query_quantile_full_window\": {query_quantile},\n    \
         \"alert_evaluate_e17\": {alerts}\n  }}\n}}\n",
        reg.len(),
        db.scrape_times().len(),
        db.samples(),
        db.bytes_per_sample(),
        e17.samples(),
        e17.bytes_per_sample(),
    );
    write_bench_json("tsdb", &body);
}

fn bench(c: &mut Criterion) {
    print_once(
        "TSDB — scrape, windowed query and burn-rate alert costs",
        "Median costs land in BENCH_tsdb.json (repo root).",
        &BANNER,
    );
    write_artifact();

    c.bench_function("tsdb/scrape_1k_streams_60_ticks", |b| {
        b.iter(|| {
            let (_, db) = synthetic_db(60);
            black_box(db.samples())
        })
    });
    c.bench_function("tsdb/query_avg_full_window", |b| {
        let (_, db) = synthetic_db(240);
        let key = db.all_series().remove(0);
        b.iter(|| {
            black_box(db.eval_at(
                &key,
                QueryFn::AvgOverTime,
                SimDuration::from_secs(240),
                SimTime::from_secs(239),
            ))
        })
    });
    c.bench_function("tsdb/alert_evaluate_e17", |b| {
        let sink = live_sink();
        let db = sink.tsdb().expect("recording sink has a tsdb");
        let policy = AlertPolicy::picloud_default();
        b.iter(|| black_box(policy.evaluate(db).transitions.len()))
    });
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench
}
criterion_main!(benches);
