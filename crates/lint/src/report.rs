//! Deterministic finding reports: sorted text and JSONL renderings.
//!
//! The JSONL form follows the `simcore::telemetry` exporter conventions:
//! one JSON object per line, fields in a fixed order, strings escaped by
//! hand — so two runs over the same tree are byte-identical and the file
//! diffs cleanly in CI artifacts.

/// One rule violation at one source line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Finding {
    /// Rule short name (`D1` … `O1`, `D5`, `F1`).
    pub rule: String,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based source line.
    pub line: usize,
    /// What is wrong and what to do about it.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// For interprocedural findings (D5): the shortest witness call
    /// path, public entry first, source function last. Empty for the
    /// per-line rules.
    pub path: Vec<String>,
}

/// The outcome of scanning a workspace.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All surviving findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Findings suppressed by justified `// lint: allow(..)` markers.
    pub allowed: usize,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Sorts findings into canonical report order.
    pub fn sort(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    }

    /// Human-readable report: one `file:line: RULE message` per finding
    /// plus a summary trailer.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}:{}: {} {}\n    {}\n",
                f.file, f.line, f.rule, f.message, f.snippet
            ));
            if !f.path.is_empty() {
                out.push_str(&format!("    witness: {}\n", f.path.join(" -> ")));
            }
        }
        out.push_str(&format!(
            "picloud-lint: {} finding(s) in {} file(s) scanned, {} allowed by marker\n",
            self.findings.len(),
            self.files_scanned,
            self.allowed
        ));
        out
    }

    /// Machine-readable report: one JSON object per finding per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str("{\"rule\":\"");
            json_escape(&f.rule, &mut out);
            out.push_str("\",\"file\":\"");
            json_escape(&f.file, &mut out);
            out.push_str(&format!("\",\"line\":{},\"message\":\"", f.line));
            json_escape(&f.message, &mut out);
            out.push_str("\",\"snippet\":\"");
            json_escape(&f.snippet, &mut out);
            out.push('"');
            if !f.path.is_empty() {
                out.push_str(",\"path\":[");
                for (i, hop) in f.path.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    json_escape(hop, &mut out);
                    out.push('"');
                }
                out.push(']');
            }
            out.push_str("}\n");
        }
        out
    }

    /// GitHub Actions workflow-command annotations: one
    /// `::error file=…,line=…,title=…::message` per finding, so lint
    /// findings surface inline on pull requests.
    pub fn to_github(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let mut message = f.message.clone();
            if !f.path.is_empty() {
                message.push_str(&format!(" [witness: {}]", f.path.join(" -> ")));
            }
            out.push_str(&format!(
                "::error file={},line={},title=picloud-lint {}::{}\n",
                gh_escape_property(&f.file),
                f.line,
                gh_escape_property(&f.rule),
                gh_escape_data(&message)
            ));
        }
        out
    }
}

/// Escapes workflow-command message data (`%`, CR, LF).
fn gh_escape_data(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

/// Escapes workflow-command property values (data escapes plus `:`, `,`).
fn gh_escape_property(s: &str) -> String {
    gh_escape_data(s).replace(':', "%3A").replace(',', "%2C")
}

/// Minimal JSON string escaping (same dialect as the telemetry exporters).
pub fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &str, file: &str, line: usize) -> Finding {
        Finding {
            rule: rule.into(),
            file: file.into(),
            line,
            message: "m".into(),
            snippet: "s".into(),
            path: Vec::new(),
        }
    }

    #[test]
    fn sorts_by_file_line_rule() {
        let mut r = Report {
            findings: vec![
                finding("P1", "b.rs", 9),
                finding("D1", "a.rs", 3),
                finding("P1", "a.rs", 3),
            ],
            allowed: 1,
            files_scanned: 2,
        };
        r.sort();
        let order: Vec<(&str, usize, &str)> = r
            .findings
            .iter()
            .map(|f| (f.file.as_str(), f.line, f.rule.as_str()))
            .collect();
        assert_eq!(
            order,
            [("a.rs", 3, "D1"), ("a.rs", 3, "P1"), ("b.rs", 9, "P1")]
        );
    }

    #[test]
    fn jsonl_escapes_and_terminates_lines() {
        let r = Report {
            findings: vec![finding("D1", "a\"b.rs", 1)],
            allowed: 0,
            files_scanned: 1,
        };
        let j = r.to_jsonl();
        assert!(j.ends_with('\n'));
        assert!(j.contains("a\\\"b.rs"));
    }

    #[test]
    fn witness_paths_render_in_every_format() {
        let mut f = finding("D5", "a.rs", 2);
        f.path = vec!["a::entry".into(), "a::mid".into(), "a::source".into()];
        let r = Report {
            findings: vec![f],
            allowed: 0,
            files_scanned: 1,
        };
        assert!(r
            .to_text()
            .contains("witness: a::entry -> a::mid -> a::source"));
        assert!(r
            .to_jsonl()
            .contains(",\"path\":[\"a::entry\",\"a::mid\",\"a::source\"]}"));
        assert!(r
            .to_github()
            .contains("[witness: a::entry -> a::mid -> a::source]"));
    }

    #[test]
    fn github_annotations_escape_workflow_metacharacters() {
        let mut f = finding("D1", "a.rs", 3);
        f.message = "50% of\nruns".into();
        let r = Report {
            findings: vec![f],
            allowed: 0,
            files_scanned: 1,
        };
        let gh = r.to_github();
        assert!(gh.starts_with("::error file=a.rs,line=3,title=picloud-lint D1::"));
        assert!(gh.contains("50%25 of%0Aruns"));
    }
}
