//! Static-analysis costs — benches the full-workspace `picloud-lint`
//! scan (lexer + parser + call graph + taint) and writes
//! `BENCH_lint.json` at the repository root.
//!
//! The lint pass runs on every commit, so its wall time is part of the
//! inner development loop: the artifact pins the full-workspace scan
//! (which must stay under five seconds) plus the finding counts per
//! rule, so a resolver regression that silently doubles findings — or
//! an accidentally quadratic pass — shows up as a trend, not a surprise.

use criterion::{criterion_group, criterion_main, Criterion};
use picloud_bench::{median, print_once, quick_criterion, time_ns_per_iter, write_bench_json};
use picloud_lint::rules::Rule;
use picloud_lint::Workspace;
use std::hint::black_box;
use std::sync::Once;

static BANNER: Once = Once::new();

/// Median milliseconds for one full-workspace scan over `rounds` runs.
fn scan_ms(ws: &Workspace, rounds: usize) -> f64 {
    let samples = time_ns_per_iter(rounds, 1, || {
        let report = ws.scan().expect("workspace scan succeeds");
        black_box(report.findings.len());
    });
    median(samples) as f64 / 1e6
}

fn write_artifact(ws: &Workspace) {
    let report = ws.scan().expect("workspace scan succeeds");
    let ms = scan_ms(ws, 5);
    let mut per_rule = String::new();
    for (i, rule) in Rule::ALL.iter().enumerate() {
        let n = report
            .findings
            .iter()
            .filter(|f| f.rule == rule.name())
            .count();
        if i > 0 {
            per_rule.push_str(",\n    ");
        }
        per_rule.push_str(&format!("\"{}\": {n}", rule.name()));
    }
    let body = format!(
        "{{\n  \"bench\": \"lint\",\n  \"files_scanned\": {},\n  \"findings\": {},\n  \
         \"allowed_by_marker\": {},\n  \"scan_wall_ms\": {ms:.3},\n  \
         \"under_5s\": {},\n  \"findings_per_rule\": {{\n    {per_rule}\n  }}\n}}\n",
        report.files_scanned,
        report.findings.len(),
        report.allowed,
        ms < 5000.0,
    );
    write_bench_json("lint", &body);
}

fn bench(c: &mut Criterion) {
    print_once(
        "LINT — full-workspace static-analysis scan cost",
        "Median scan wall time and finding counts land in BENCH_lint.json (repo root).",
        &BANNER,
    );
    let ws = Workspace::discover(None).expect("workspace root");
    write_artifact(&ws);

    c.bench_function("lint/full_workspace_scan", |b| {
        b.iter(|| black_box(ws.scan().expect("scan").findings.len()))
    });
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench
}
criterion_main!(benches);
