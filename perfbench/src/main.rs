//! PiCloud scale-model benchmark runner.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fabric_remote|fabric_local|estimate_grid|recovery_session|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--setup-probe 1` is the runner's own: it runs one op of the named
//! workload at `--seed` and exits, printing nothing (see `setup_probe`).
//!
//! One process runs one workload as a closed loop: one client, each op
//! starting when the previous one ends. The last line of standard output
//! is one JSON object `{"correct", "attempted", "failed", "metrics"}`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A readable report goes to standard error. See README.md.

mod heap;
mod host;
mod trace;
mod workloads;

use picloud::experiments::estimate_exp::EstimateExperiment;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{Bench, Reference, Workload};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// End-to-end metrics (`--trace 0`), name and unit.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("op_p50_s", "s/op"),
    ("op_p90_s", "s/op"),
    ("work_per_s", "1/s"),
    ("cpu_s_per_op", "s/op"),
    ("peak_heap_mb", "MiB"),
];

/// The window when `--seconds` is not given: `run_seconds` of
/// BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 20.0;

/// Timed ops per run at least, so that at least 10 lie beyond `op_p90_s`.
const MIN_OPS: u64 = 100;

/// Where a traced run writes its spans, inside the benchmark's directory.
const TRACE_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

#[derive(Debug, Clone, PartialEq)]
struct Args {
    /// `None` runs every workload, each in its own process.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Run one op and exit: a set-up sample taken by the parent runner.
    probe: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: workloads::DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        probe: false,
    };
    let mut named = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                named = true;
                out.workload = match value {
                    "all" => None,
                    w => Some(Workload::parse(w).ok_or_else(|| format!("unknown workload '{w}'"))?),
                };
            }
            "--seed" => out.seed = value.parse().map_err(|_| format!("bad --seed '{value}'"))?,
            "--seconds" => {
                out.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 120.0)
                    .ok_or_else(|| format!("bad --seconds '{value}' (0 < s <= 120)"))?;
            }
            "--trace" | "--setup-probe" => {
                let on = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad {flag} '{value}' (0 or 1)")),
                };
                if flag == "--trace" {
                    out.trace = on;
                } else {
                    out.probe = on;
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    if !named {
        return Err("--workload is required".into());
    }
    if out.probe && out.workload.is_none() {
        return Err("--setup-probe needs one workload".into());
    }
    Ok(out)
}

/// Ops run back to back for at least `window`.
#[derive(Debug, Default)]
struct Window {
    op_secs: Vec<f64>,
    /// Per op, the work it completed over its time (0 for a failed op).
    op_rates: Vec<f64>,
    /// Process CPU seconds spent inside ops.
    cpu_secs: f64,
    attempted: u64,
    failed: u64,
}

impl Window {
    fn p50(&self) -> f64 {
        host::median(&self.op_secs)
    }
}

/// Runs ops until `window` has passed and each tracer ran `min_ops`
/// (at least one): input sets in turn, each once per tracer, so a
/// traced and an untraced op on the same input run back to back.
/// Returns one window per tracer. The op and the freeing of its output
/// are timed, in wall and CPU time; digesting and checking it are not.
fn measure(
    benches: &[Bench],
    references: &[Reference],
    tracers: &mut [Tracer],
    window: Duration,
    min_ops: u64,
) -> Result<Vec<Window>, String> {
    let start = Instant::now();
    let mut windows: Vec<Window> = tracers.iter().map(|_| Window::default()).collect();
    for (bench, reference) in benches.iter().zip(references).cycle() {
        if windows[0].attempted >= min_ops.max(1) && start.elapsed() >= window {
            break;
        }
        for (tracer, w) in tracers.iter_mut().zip(&mut windows) {
            let cpu0 = host::cpu_seconds()?;
            let t = Instant::now();
            let raw = tracer.op(|tr| bench.op(tr));
            let mut secs = t.elapsed().as_secs_f64();
            let mut cpu = host::cpu_seconds()? - cpu0;
            let out = raw.as_ref().map_err(String::clone).and_then(|raw| {
                let out = workloads::summarise(raw);
                workloads::check(&out, reference).map(|()| out)
            });
            let cpu0 = host::cpu_seconds()?;
            let t = Instant::now();
            drop(raw);
            secs += t.elapsed().as_secs_f64();
            cpu += host::cpu_seconds()? - cpu0;
            w.cpu_secs += cpu;
            w.op_secs.push(secs);
            w.attempted += 1;
            match out {
                Ok(out) => w.op_rates.push(out.work as f64 / secs),
                Err(e) => {
                    w.op_rates.push(0.0);
                    w.failed += 1;
                    eprintln!(
                        "{} seed {}: op {} failed: {e}",
                        bench.workload.name(),
                        bench.seed,
                        w.attempted
                    );
                }
            }
        }
    }
    Ok(windows)
}

/// The result line: exactly the four keys the contract names.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The per-layer metric names and units, in output order.
fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &str)> = std::iter::once(trace::OP_SPAN)
        .chain(workloads::LAYER_SPANS)
        .map(|s| (format!("{s}.self_s"), "s"))
        .collect();
    v.extend(
        workloads::LAYER_COUNTS
            .iter()
            .map(|&(n, u)| (n.to_string(), u)),
    );
    v.push(("bench.trace_overhead".into(), "ratio"));
    v
}

/// One `setup_s` sample: the wall time from starting a fresh copy of
/// the runner until it has run `bench`'s first op, freed its output and
/// exited. Any one-time work of the program (statics, caches, thread
/// pools) falls inside every sample.
fn setup_probe(bench: &Bench) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let t = Instant::now();
    let status = std::process::Command::new(exe)
        .args(["--workload", bench.workload.name()])
        .args(["--seed", &bench.seed.to_string(), "--setup-probe", "1"])
        .status()
        .map_err(|e| format!("cannot start a set-up probe: {e}"))?;
    let secs = t.elapsed().as_secs_f64();
    if !status.success() {
        return Err(format!(
            "set-up probe at seed {} exited with {status}",
            bench.seed
        ));
    }
    Ok(secs)
}

fn run(args: &Args, workload: Workload) -> Result<String, String> {
    let benches: Vec<Bench> = (0..workloads::SETUP_INPUTS)
        .map(|i| Bench {
            workload,
            seed: workloads::input_seed(args.seed, i),
        })
        .collect();

    // Set-up: for `setup_s` in an untraced run, one fresh process per
    // input set; then, here, one untimed warm-up op per input set with
    // heap counting on, and the exact oracles.
    let setups = if args.trace {
        Vec::new()
    } else {
        benches
            .iter()
            .map(setup_probe)
            .collect::<Result<Vec<f64>, String>>()?
    };
    let mut heap_peaks = Vec::with_capacity(benches.len());
    let mut warm = Vec::with_capacity(benches.len());
    for bench in &benches {
        let (raw, peak) = heap::peak_during(|| bench.op(&mut Tracer::new(false)));
        heap_peaks.push(peak as f64 / (1024.0 * 1024.0));
        warm.push(workloads::summarise(&raw?));
    }
    let references = benches
        .iter()
        .zip(&warm)
        .map(|(b, w)| b.reference(w))
        .collect::<Result<Vec<_>, _>>()?;
    // est_p99_err is input 0's, the run's own seed, as S2 reports it at
    // that seed; the other inputs only report when they exceed the bound.
    let mut warm_ok = true;
    let mut est_p99_errs = Vec::new();
    for ((bench, out), reference) in benches.iter().zip(&warm).zip(&references) {
        if let Err(e) = workloads::check(out, reference) {
            warm_ok = false;
            eprintln!(
                "{} seed {}: warm-up op failed: {e}",
                workload.name(),
                bench.seed
            );
        }
        if let workloads::Facts::Estimate { scenarios } = &out.facts {
            let err = workloads::p99_error(scenarios, &reference.exact_p99)?;
            if err > EstimateExperiment::P99_ERROR_BOUND {
                eprintln!(
                    "estimate_grid seed {}: worst p99 error {err:.4} is above {}, the bound \
                     pinned at seeds {:?} only",
                    bench.seed,
                    EstimateExperiment::P99_ERROR_BOUND,
                    workloads::P99_PINNED_SEEDS
                );
            }
            est_p99_errs.push(err);
        }
    }
    let est_p99_err = est_p99_errs.first().copied().unwrap_or(0.0);

    let seconds = Duration::from_secs_f64(args.seconds);
    let timed = workload.timed_inputs();
    let (benches, references) = (&benches[..timed], &references[..timed]);
    if !args.trace {
        let mut windows = measure(
            benches,
            references,
            &mut [Tracer::new(false)],
            seconds,
            MIN_OPS,
        )?;
        let w = windows.pop().ok_or("no window measured")?;
        let values = [
            host::median(&setups),
            w.p50(),
            host::quantile(&w.op_secs, 0.9),
            host::median(&w.op_rates),
            w.cpu_secs / w.attempted as f64,
            host::median(&heap_peaks),
        ];
        report_end_to_end(args, workload, &w, &values, est_p99_err)?;
        let metrics: Vec<(String, &str, f64)> = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n.to_string(), u, v))
            .collect();
        return Ok(result_line(
            warm_ok && w.failed == 0,
            w.attempted,
            w.failed,
            &metrics,
        ));
    }

    // Traced mode: traced and untraced ops alternate, so the tracing
    // overhead is measured under the same host conditions. Counts are
    // those of input set 0, the run's own seed.
    let mut tracers = [Tracer::new(false), Tracer::new(true)];
    let windows = measure(benches, references, &mut tracers, seconds, 1)?;
    let [plain, traced] = &windows[..] else {
        return Err("expected two windows".into());
    };
    let tracer = &tracers[1];
    let self_times = tracer.self_time_medians();
    let metrics: Vec<(String, &str, f64)> = per_layer_names()
        .into_iter()
        .map(|(metric, unit)| {
            let v = match metric.strip_suffix(".self_s") {
                Some(span) => self_times.get(span).copied().unwrap_or(0.0),
                None if metric == "est_p99_err" => est_p99_err,
                None if metric == "bench.trace_overhead" => traced.p50() / plain.p50() - 1.0,
                None => warm[0].counts.get(metric.as_str()).copied().unwrap_or(0.0),
            };
            (metric, unit, v)
        })
        .collect();
    write_trace(args, workload, tracer, &metrics)?;
    report_per_layer(args, workload, traced, &metrics);
    let attempted = plain.attempted + traced.attempted;
    let failed = plain.failed + traced.failed;
    Ok(result_line(
        warm_ok && failed == 0,
        attempted,
        failed,
        &metrics,
    ))
}

/// The readable report: every end-to-end metric under the name a user
/// reads, with its unit.
fn report_end_to_end(
    args: &Args,
    workload: Workload,
    w: &Window,
    values: &[f64; 6],
    est_p99_err: f64,
) -> Result<(), String> {
    let [setup, p50, p90, work, cpu, heap] = *values;
    let rss = host::peak_rss_mib()?;
    let n = w.op_secs.len();
    let beyond_p90 = w.op_secs.iter().filter(|&&s| s > p90).count();
    let na = "n/a".to_string();
    let work_line = |metric: &str| {
        if workload.work_metric() == metric {
            format!("{work:.1}")
        } else {
            na.clone()
        }
    };
    let rows = [
        ("setup_s", format!("{setup:.6}"), "s"),
        ("op_p50_s", format!("{p50:.6}"), "s/op"),
        ("op_p90_s", format!("{p90:.6}"), "s/op"),
        ("flows_per_s", work_line("flows_per_s"), "flows/host-s"),
        ("events_per_s", work_line("events_per_s"), "events/host-s"),
        ("cpu_s_per_op", format!("{cpu:.6}"), "host CPU s/op"),
        (
            "peak_rss_mb",
            format!("{rss:.2}"),
            "MiB (VmHWM, whole process)",
        ),
        (
            "peak_heap_mb",
            format!("{heap:.2}"),
            "MiB (median op peak heap)",
        ),
        (
            "failed_ops_ratio",
            format!("{}", w.failed as f64 / w.attempted as f64),
            "failed/attempted",
        ),
        (
            "est_p99_err",
            if workload == Workload::EstimateGrid {
                format!("{est_p99_err:.4}")
            } else {
                na.clone()
            },
            "ratio",
        ),
    ];
    eprintln!(
        "{} seed={} ops={} failed={} window={}s (untraced); {} ops lie beyond op_p90_s",
        workload.name(),
        args.seed,
        n,
        w.failed,
        args.seconds,
        beyond_p90
    );
    for (name, value, unit) in rows {
        eprintln!("  {name:<18} {value:>14} {unit}");
    }
    Ok(())
}

fn report_per_layer(args: &Args, workload: Workload, w: &Window, metrics: &[(String, &str, f64)]) {
    eprintln!(
        "{} seed={} traced ops={} failed={}; per-layer metrics:",
        workload.name(),
        args.seed,
        w.attempted,
        w.failed
    );
    for (name, unit, v) in metrics {
        eprintln!("  {name:<40} {v:>16.6} {unit}");
    }
}

/// Writes every span, then the per-layer table, as JSONL.
fn write_trace(
    args: &Args,
    workload: Workload,
    tracer: &Tracer,
    metrics: &[(String, &str, f64)],
) -> Result<(), String> {
    let mut body = tracer.to_jsonl();
    for (name, unit, v) in metrics {
        body.push_str(&format!(
            "{{\"metric\":\"{name}\",\"unit\":\"{unit}\",\"value\":{},\"workload\":\"{}\",\"seed\":{}}}\n",
            json_num(*v),
            workload.name(),
            args.seed
        ));
    }
    std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("cannot create {TRACE_DIR}: {e}"))?;
    let path = format!("{TRACE_DIR}/{}-seed{}.jsonl", workload.name(), args.seed);
    std::fs::write(&path, body).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("wrote {} spans to {path}", tracer.spans().len());
    Ok(())
}

/// `--workload all`: every workload in its own child process, so each
/// reports its own peak memory. Traced runs follow the untraced ones.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let traces: &[&str] = if args.trace { &["0", "1"] } else { &["0"] };
    for w in Workload::ALL {
        for trace in traces {
            let status = std::process::Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .status()
                .map_err(|e| format!("cannot run {}: {e}", w.name()))?;
            if !status.success() {
                return Err(format!(
                    "{} (--trace {trace}) exited with {status}",
                    w.name()
                ));
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload {
        Some(w) if args.probe => Bench {
            workload: w,
            seed: args.seed,
        }
        .op(&mut Tracer::new(false))
        .map(drop),
        Some(w) => run(&args, w).map(|line| println!("{line}")),
        None => run_all(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    /// The `"name"` values of one top-level array of BENCHMARK.json.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let key = format!("\"{section}\"");
        let start = text.find(&key).expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("array closes")];
        let field = |obj: &str, k: &str| -> String {
            let at = obj.find(&format!("\"{k}\"")).expect("field present") + k.len() + 2;
            let rest = &obj[at..];
            let open = rest.find('"').expect("string value") + 1;
            let close = rest[open..].find('"').expect("string closes");
            rest[open..open + close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    #[test]
    fn printed_metrics_match_benchmark_json() {
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layer: Vec<(String, String)> = per_layer_names()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), layer);
    }

    #[test]
    fn per_layer_names_are_unique_and_valid() {
        let names = per_layer_names();
        let mut seen = std::collections::BTreeSet::new();
        for (n, _) in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
            assert!(seen.insert(n.clone()), "duplicate {n}");
        }
    }

    #[test]
    fn default_window_is_run_seconds() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let rest = &text[text.find("\"run_seconds\":").expect("run_seconds") + 14..];
        let digits: String = rest
            .trim_start()
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        assert_eq!(digits.parse::<f64>().expect("a number"), DEFAULT_SECONDS);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 3, 0, &[("op_p50_s".into(), "s/op", 0.125)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"op_p50_s\": {\"value\": 0.125, \"unit\": \"s/op\"}}}"
        );
    }

    #[test]
    fn argument_parsing() {
        let a = parse_args(&strings(&[
            "--workload",
            "fabric_local",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(
            a,
            Args {
                workload: Some(Workload::FabricLocal),
                seed: 7,
                seconds: 3.0,
                trace: true,
                probe: false,
            }
        );
        let all = parse_args(&strings(&["--workload", "all"])).expect("valid");
        assert_eq!(all.workload, None);
        assert_eq!(all.seed, workloads::DEFAULT_SEED);
        let probe = parse_args(&strings(&[
            "--workload",
            "estimate_grid",
            "--setup-probe",
            "1",
        ]));
        assert!(probe.expect("valid").probe);
        for bad in [
            &["--seed", "1"][..],
            &["--workload", "nope"],
            &["--workload", "all", "--trace", "2"],
            &["--workload", "all", "--seconds", "0"],
            &["--workload", "all", "--seed"],
            &["--workload", "all", "--frob", "1"],
            &["--workload", "all", "--setup-probe", "1"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }
}
