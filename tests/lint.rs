//! The lint gate as a tier-1 test: the working tree must have zero
//! determinism/panic-safety findings.
//!
//! `cargo test` therefore fails on any `HashMap` (aliased or not),
//! wall-clock read, ambient RNG, rogue thread spawn, non-total float
//! ordering, unwrap-without-justification, undocumented public contract
//! item — or any public function transitively reaching one of those
//! sources (D5) — the same gate CI runs via `cargo run -p picloud-lint`.

use picloud_lint::Workspace;

#[test]
fn workspace_owes_no_new_lint_debt() {
    let ws = Workspace::discover(None).expect("workspace root");
    let report = ws.scan().expect("scan succeeds");
    assert!(
        report.findings.is_empty(),
        "fix each finding or add a justified `// lint: allow(..) reason=..` \
         marker (see LINTS.md):\n{}",
        report.to_text()
    );
}

#[test]
fn lint_report_is_deterministic_at_workspace_scale() {
    let ws = Workspace::discover(None).expect("workspace root");
    let a = ws.scan().expect("scan");
    let b = ws.scan().expect("scan");
    assert_eq!(a.to_text(), b.to_text());
    assert_eq!(a.to_jsonl(), b.to_jsonl());
    assert_eq!(a.to_github(), b.to_github());
}

#[test]
fn every_d5_finding_carries_a_witness_path() {
    let ws = Workspace::discover(None).expect("workspace root");
    let report = ws.scan().expect("scan");
    for f in report.findings.iter().filter(|f| f.rule == "D5") {
        assert!(
            f.path.len() >= 2,
            "D5 at {}:{} has no witness chain: {:?}",
            f.file,
            f.line,
            f.path
        );
        // The message names the source the chain ends at.
        assert!(f.message.contains("transitively reaches"), "{}", f.message);
    }
}
