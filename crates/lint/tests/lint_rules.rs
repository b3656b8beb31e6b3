//! End-to-end rule tests over the fixture workspace in
//! `tests/fixtures/ws`. The fixtures are a miniature `crates/*/src`
//! tree with one deliberate violation (and one allow-marker negative)
//! per rule; the expected `(rule, file, line)` triples below are pinned
//! to exact fixture lines, so edits to the fixtures must append rather
//! than reorder.

use picloud_lint::Workspace;
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

fn scan() -> picloud_lint::report::Report {
    Workspace::discover(Some(&fixture_root()))
        .expect("fixture workspace")
        .scan()
        .expect("scan succeeds")
}

const ALIASES: &str = "crates/aliases/src/lib.rs";
const APP: &str = "crates/app/src/lib.rs";
const FLOATS: &str = "crates/floats/src/lib.rs";
const POOLAPP: &str = "crates/poolapp/src/lib.rs";
const SIMCORE: &str = "crates/simcore/src/lib.rs";
const TAINT: &str = "crates/taintchain/src/lib.rs";

#[test]
fn every_rule_fires_exactly_where_expected() {
    let report = scan();
    let got: Vec<(&str, &str, usize)> = report
        .findings
        .iter()
        .map(|f| (f.rule.as_str(), f.file.as_str(), f.line))
        .collect();
    let expected = vec![
        ("D1", ALIASES, 5),  // use … HashMap as Map (literal name at decl)
        ("D1", ALIASES, 6),  // use … {BTreeMap, HashSet as Set}
        ("D2", ALIASES, 7),  // use … Instant as Clock
        ("D3", ALIASES, 8),  // use … OsRng as Entropy
        ("D1", ALIASES, 11), // Map::new() — alias use site
        ("D1", ALIASES, 16), // Set::new() — grouped alias use site
        ("D2", ALIASES, 20), // Clock::now() — alias use site
        ("D3", ALIASES, 25), // Entropy — alias use site
        ("D1", APP, 5),      // use std::collections::HashMap
        ("D2", APP, 11),     // Instant::now()
        ("D3", APP, 16),     // thread_rng()
        ("P1", APP, 21),     // .unwrap()
        ("P1", APP, 22),     // .expect("..")
        ("P1", APP, 24),     // panic!
        ("P1", APP, 26),     // v[0]
        ("P1", APP, 41),     // marker without reason= does not suppress
        ("F1", FLOATS, 6),   // partial_cmp inside sort_by
        ("F1", FLOATS, 12),  // partial_cmp in a multi-line comparator
        ("F1", FLOATS, 27),  // partial_cmp in the private kernel (D5 seed)
        ("D5", FLOATS, 30),  // pub run_stats -> kernel -> F1 source
        ("D4", POOLAPP, 6),  // std::thread::spawn
        ("D4", POOLAPP, 10), // thread::scope
        ("O1", SIMCORE, 6),  // undocumented pub fn in a contract crate
        ("D2", TAINT, 6),    // Instant::now() — the taint seed
        ("D5", TAINT, 14),   // pub entry -> mid -> clock_source
        ("D5", TAINT, 35),   // pub Sampler::read -> sample -> clock_source
    ];
    assert_eq!(got, expected, "full report:\n{}", report.to_text());
    assert_eq!(report.files_scanned, 7);
}

#[test]
fn justified_markers_suppress_and_are_counted() {
    let report = scan();
    // app: D1 line 8, P1 lines 31 and 36 (trailing form);
    // poolapp: D4 line 15; simcore: O1 line 19; floats: F1 line 23;
    // taintchain: D2 line 20 (the severed source).
    assert_eq!(report.allowed, 7, "full report:\n{}", report.to_text());
}

#[test]
fn taint_chain_reports_exact_witness_path() {
    let report = scan();
    let entry = report
        .findings
        .iter()
        .find(|f| f.rule == "D5" && f.file == TAINT && f.line == 14)
        .expect("D5 at taintchain entry");
    assert_eq!(
        entry.path,
        vec![
            "taintchain::entry".to_string(),
            "taintchain::mid".to_string(),
            "taintchain::clock_source".to_string(),
        ],
        "full report:\n{}",
        report.to_text()
    );
    assert!(
        entry
            .message
            .contains("D2 at crates/taintchain/src/lib.rs:6"),
        "{}",
        entry.message
    );
    let method_hop = report
        .findings
        .iter()
        .find(|f| f.rule == "D5" && f.file == TAINT && f.line == 35)
        .expect("D5 at Sampler::read");
    assert_eq!(
        method_hop.path,
        vec![
            "taintchain::Sampler::read".to_string(),
            "taintchain::Sampler::sample".to_string(),
            "taintchain::clock_source".to_string(),
        ]
    );
}

#[test]
fn marker_at_source_severs_the_whole_chain() {
    let report = scan();
    // `severed_entry` (line 24) reaches a wall-clock source that carries
    // a justified allow(D2) marker: no D5 anywhere on that chain.
    assert!(
        !report
            .findings
            .iter()
            .any(|f| f.rule == "D5" && f.file == TAINT && f.line == 24),
        "severed chain must not produce D5:\n{}",
        report.to_text()
    );
}

#[test]
fn distance_zero_sources_are_not_double_reported() {
    let report = scan();
    // `sort_latencies` (floats line 5) is itself the F1 source: the local
    // rule owns distance 0, D5 only fires for transitive callers.
    assert!(
        !report
            .findings
            .iter()
            .any(|f| f.rule == "D5" && f.file == FLOATS && f.line == 5),
        "distance-0 D5 duplicate:\n{}",
        report.to_text()
    );
}

#[test]
fn attribute_docs_satisfy_o1() {
    let report = scan();
    // simcore line 26 is documented via `#[doc = "…"]` — no O1 finding.
    assert!(
        !report
            .findings
            .iter()
            .any(|f| f.rule == "O1" && f.file == SIMCORE && f.line == 26),
        "#[doc] attribute must count as documentation:\n{}",
        report.to_text()
    );
}

#[test]
fn bench_crate_is_exempt_from_wall_clock_and_panic_rules() {
    let report = scan();
    assert!(
        !report
            .findings
            .iter()
            .any(|f| f.file.starts_with("crates/bench/")),
        "bench must be exempt from D2/P1:\n{}",
        report.to_text()
    );
}

#[test]
fn test_modules_are_exempt() {
    let report = scan();
    // HashMap + unwrap inside `#[cfg(test)] mod tests` (app lines 53-54)
    // must not fire.
    assert!(
        !report.findings.iter().any(|f| f.line >= 49),
        "findings inside the fixture test module:\n{}",
        report.to_text()
    );
}

#[test]
fn reports_are_byte_identical_across_runs() {
    let a = scan();
    let b = scan();
    assert_eq!(a.to_text(), b.to_text());
    assert_eq!(a.to_jsonl(), b.to_jsonl());
    assert_eq!(a.to_jsonl().lines().count(), a.findings.len());
    // JSONL lines carry the fixed field order the telemetry exporters
    // use, so byte-level diffs stay stable across runs.
    for line in a.to_jsonl().lines() {
        assert!(line.starts_with("{\"rule\":\""), "{line}");
        // Per-line findings close after the snippet; D5 findings carry a
        // trailing witness-path array.
        assert!(line.ends_with("\"}") || line.ends_with("\"]}"), "{line}");
        for field in [
            "\",\"file\":\"",
            "\",\"line\":",
            ",\"message\":\"",
            "\",\"snippet\":\"",
        ] {
            assert!(line.contains(field), "missing {field} in {line}");
        }
    }
}

#[test]
fn binary_fails_on_any_finding_and_passes_a_clean_tree() {
    let bin = env!("CARGO_BIN_EXE_picloud-lint");
    let fixtures = Command::new(bin)
        .arg("--root")
        .arg(fixture_root())
        .output()
        .expect("run picloud-lint on the fixtures");
    let stdout = String::from_utf8_lossy(&fixtures.stdout);
    assert_eq!(fixtures.status.code(), Some(1), "{stdout}");
    assert!(
        stdout.contains("crates/app/src/lib.rs:21: P1 "),
        "the P1 fixture finding is reported:\n{stdout}"
    );

    // The real workspace (this crate's default root) owes nothing.
    let workspace = Command::new(bin).output().expect("run picloud-lint");
    assert_eq!(
        workspace.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&workspace.stdout)
    );
}
