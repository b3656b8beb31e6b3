//! `picloud-lint` — determinism & panic-safety static analysis for the
//! PiCloud workspace.
//!
//! The emulator's headline guarantee is that every experiment, telemetry
//! export and span forest is byte-deterministic for a fixed seed. The
//! end-to-end suites (`tests/determinism.rs`, `tests/telemetry.rs`,
//! `tests/spans.rs`) catch violations *after* they flake; this crate
//! makes the contract statically checkable on every commit. It walks
//! every `crates/*/src/**/*.rs` file with a comment/string-aware lexer
//! (see [`lexer`]) and enforces the named rules in [`rules`]:
//!
//! * **D1** — no `std::collections::{HashMap,HashSet}` outside tests;
//! * **D2** — no wall-clock time outside `crates/bench`;
//! * **D3** — no ambient randomness;
//! * **D4** — no thread spawning outside `crates/bench` and the
//!   quarantined `flowsim::partition` pool;
//! * **F1** — no non-total float ordering (`partial_cmp` comparators)
//!   in sim-visible code;
//! * **P1** — no `unwrap`/`expect`/`panic!`/literal-indexing in
//!   non-test, non-bench library code;
//! * **O1** — public items in `simcore`/`mgmt`/`faults` carry docs.
//!
//! On top of the per-line rules sits a lightweight front-end: a
//! recursive-descent item parser ([`parser`]) feeds per-crate symbol
//! tables and a workspace-wide call graph ([`symgraph`]), over which
//! the interprocedural **D5** determinism-taint pass ([`taint`])
//! reports every public simulation-facing function that transitively
//! reaches a D1–D4/F1 source, with the shortest witness call path.
//!
//! Findings are reported deterministically ([`report`]). The gate is
//! zero findings: any finding fails `picloud-lint`, `picloud lint` and
//! `tests/lint.rs`, so a violation is either fixed or carries a
//! justified allow marker. See `LINTS.md` at the workspace root for the
//! full rule book and marker syntax.

#![warn(missing_docs)]

pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;
pub mod symgraph;
pub mod taint;

use report::Report;
use std::path::{Path, PathBuf};

/// A scan rooted at the workspace checkout.
#[derive(Debug, Clone)]
pub struct Workspace {
    root: PathBuf,
}

impl Workspace {
    /// Opens the workspace at `root`, or at this crate's compile-time
    /// checkout (two levels above `crates/lint`) when `None` — which is
    /// correct for `cargo run -p picloud-lint` from anywhere in the tree.
    pub fn discover(root: Option<&Path>) -> Result<Workspace, String> {
        let root = match root {
            Some(r) => r.to_path_buf(),
            None => Path::new(env!("CARGO_MANIFEST_DIR"))
                .ancestors()
                .nth(2)
                .map(Path::to_path_buf)
                .ok_or_else(|| "cannot locate workspace root".to_string())?,
        };
        if !root.join("crates").is_dir() {
            return Err(format!(
                "{} does not look like the workspace root (no crates/)",
                root.display()
            ));
        }
        Ok(Workspace { root })
    }

    /// The workspace root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Every `crates/*/src/**/*.rs` file, workspace-relative with forward
    /// slashes, sorted — the scan order and therefore the report order is
    /// independent of filesystem iteration order.
    pub fn source_files(&self) -> Result<Vec<String>, String> {
        let crates_dir = self.root.join("crates");
        let mut crate_dirs: Vec<PathBuf> = read_dir_sorted(&crates_dir)?
            .into_iter()
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        let mut files = Vec::new();
        for dir in crate_dirs {
            let src = dir.join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
        let mut rel: Vec<String> = files
            .into_iter()
            .filter_map(|p| {
                p.strip_prefix(&self.root).ok().map(|r| {
                    r.components()
                        .map(component_str)
                        .collect::<Vec<_>>()
                        .join("/")
                })
            })
            .collect();
        rel.sort();
        Ok(rel)
    }

    /// Scans the whole workspace: the per-line rules file by file, then
    /// the interprocedural D5 taint pass over the assembled call graph.
    /// Returns the sorted report.
    pub fn scan(&self) -> Result<Report, String> {
        let mut report = Report::default();
        let mut models: Vec<(String, parser::FileModel)> = Vec::new();
        let mut taints: Vec<taint::FileTaint> = Vec::new();
        let mut sources_text: std::collections::BTreeMap<String, Vec<String>> =
            std::collections::BTreeMap::new();
        for rel in self.source_files()? {
            let full = self.root.join(&rel);
            let src = std::fs::read_to_string(&full)
                .map_err(|e| format!("cannot read {}: {e}", full.display()))?;
            let scan = rules::check_file(&rel, &src);
            report.findings.extend(scan.findings);
            report.allowed += scan.allowed;
            report.files_scanned += 1;
            models.push((rel.clone(), scan.model));
            taints.push((rel.clone(), scan.sources, scan.allows));
            sources_text.insert(rel, src.lines().map(|l| l.trim().to_string()).collect());
        }
        let graph = symgraph::CallGraph::build(&models);
        let snippet = |file: &str, line: usize| -> String {
            sources_text
                .get(file)
                .and_then(|lines| lines.get(line))
                .cloned()
                .unwrap_or_default()
        };
        let (d5, d5_allowed) = taint::propagate(&graph, &taints, &snippet);
        report.findings.extend(d5);
        report.allowed += d5_allowed;
        report.sort();
        Ok(report)
    }
}

fn component_str(c: std::path::Component<'_>) -> String {
    c.as_os_str().to_string_lossy().into_owned()
}

fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let rd = std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    let mut out = Vec::new();
    for entry in rd {
        let entry = entry.map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
        out.push(entry.path());
    }
    out.sort();
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    for path in read_dir_sorted(dir)? {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().map(|e| e == "rs").unwrap_or(false) {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discovers_own_workspace() {
        let ws = Workspace::discover(None).expect("workspace");
        let files = ws.source_files().expect("files");
        assert!(
            files.iter().any(|f| f == "crates/lint/src/lib.rs"),
            "{files:?}"
        );
        // Sorted ⇒ deterministic report order.
        let mut sorted = files.clone();
        sorted.sort();
        assert_eq!(files, sorted);
    }
}
