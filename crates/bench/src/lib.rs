//! Shared helpers for the PiCloud benchmark harness.
//!
//! Each bench target regenerates one table or figure of the paper (printed
//! once, before timing starts) and then benchmarks the computation that
//! produces it. `cargo bench -p picloud-bench` therefore doubles as the
//! reproduction driver: its stdout is the paper's evaluation, re-derived.

use std::sync::Once;

/// Prints a regenerated artifact exactly once per process, so criterion's
/// repeated calls do not spam the log.
pub fn print_once(banner: &str, body: &str, once: &'static Once) {
    once.call_once(|| {
        println!("\n================================================================");
        println!("{banner}");
        println!("================================================================");
        println!("{body}");
    });
}

/// Criterion configuration shared by all targets: small sample counts —
/// the workloads are deterministic, variance comes only from the host.
pub fn quick_criterion() -> criterion::Criterion {
    criterion::Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2))
}

/// Nanos per iteration of `f`, one sample per timed round: `rounds`
/// rounds of `iters` calls each, in round order. Each bench picks its
/// own estimator over the samples — the minimum where a ratio of two
/// figures is asserted (preemption and cache pollution only ever add
/// time), the [`median`] for a trend artifact.
pub fn time_ns_per_iter(rounds: usize, iters: u32, mut f: impl FnMut()) -> Vec<u64> {
    (0..rounds)
        .map(|_| {
            let start = std::time::Instant::now();
            for _ in 0..iters {
                f();
            }
            (start.elapsed().as_nanos() / u128::from(iters)) as u64
        })
        .collect()
}

/// The median (upper median for an even count) of `samples`; 0 when
/// there are none.
pub fn median(mut samples: Vec<u64>) -> u64 {
    samples.sort_unstable();
    samples.get(samples.len() / 2).copied().unwrap_or(0)
}

/// One 10-minute E17 churn run recorded into `sink` — the live trace,
/// registry and tsdb the observability benches measure.
pub fn e17_live_run(sink: picloud_simcore::TelemetrySink) -> picloud_simcore::TelemetrySink {
    picloud::experiments::recovery_exp::RecoveryExperiment::run_with_telemetry(
        1,
        picloud_simcore::SimDuration::from_secs(10 * 60),
        sink,
    )
    .1
}

/// Writes a bench artifact to `BENCH_<name>.json` at the repository root
/// and echoes it to stdout. A write failure is reported on stderr, not
/// fatal.
pub fn write_bench_json(name: &str, body: &str) {
    let path = format!("{}/../../BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
    match std::fs::write(&path, body) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }
    println!("{body}");
}
