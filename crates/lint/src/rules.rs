//! The named lint rules and their per-file checker.
//!
//! | rule | meaning |
//! |------|---------|
//! | D1   | no `std::collections::{HashMap,HashSet}` outside tests — iteration order leaks nondeterminism into simulation state |
//! | D2   | no wall-clock time (`Instant`, `SystemTime`, `UNIX_EPOCH`) outside `crates/bench` — sim time must come from the engine clock |
//! | D3   | no ambient randomness (`thread_rng`, `rand::random`, `from_entropy`, `OsRng`) — all RNG flows through the experiment seed |
//! | D4   | no thread spawning (`std::thread`, `thread::spawn/scope/Builder`) outside `crates/bench` — concurrency must go through the quarantined, order-restoring solver pool |
//! | D5   | no public simulation-facing function may *transitively* reach a D1–D4/F1 source along the call graph (see [`crate::taint`]) |
//! | F1   | no non-total float ordering (`partial_cmp` inside a `sort_by`-family comparator) in sim-visible code — NaN breaks the order |
//! | P1   | no `.unwrap()` / `.expect(..)` / `panic!`-family macros / indexing-by-integer-literal in non-test, non-bench library code |
//! | O1   | public items in `simcore` / `mgmt` / `faults` must carry doc comments (`///` or `#[doc = "…"]`) |
//!
//! D1–D3 match both the literal names and any `use … as` alias the
//! file binds to them ([`crate::parser`] resolves the import table),
//! so `use std::collections::HashMap as Map; Map::new()` is flagged at
//! the use site too. Any finding can be suppressed in place with a
//! justified marker: `// lint: allow(P1) reason=why this is a true
//! invariant`. A marker on a code line covers that line; a marker on
//! its own line covers the next code line. Markers without a non-empty
//! `reason=` are ignored. A marker at a D1–D4/F1 *source* line also
//! severs D5 taint for every transitive caller.

use crate::lexer::{lex, FileMap};
use crate::parser::{self, FileModel};
use crate::report::Finding;
use crate::symgraph::crate_of;
use crate::taint::TaintSource;
use std::collections::BTreeSet;

/// The checkable rules, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Unordered std hash collections in simulation-visible state.
    D1,
    /// Wall-clock time outside `crates/bench`.
    D2,
    /// Ambient (unseeded) randomness.
    D3,
    /// Thread spawning outside the quarantined worker pool.
    D4,
    /// Public functions transitively reaching a nondeterminism source.
    D5,
    /// Non-total float ordering in sort comparators.
    F1,
    /// Panic paths in library code.
    P1,
    /// Undocumented public items in the contract crates.
    O1,
}

impl Rule {
    /// All rules, in canonical order.
    pub const ALL: [Rule; 8] = [
        Rule::D1,
        Rule::D2,
        Rule::D3,
        Rule::D4,
        Rule::D5,
        Rule::F1,
        Rule::P1,
        Rule::O1,
    ];

    /// The short name used in reports and markers.
    pub fn name(self) -> &'static str {
        match self {
            Rule::D1 => "D1",
            Rule::D2 => "D2",
            Rule::D3 => "D3",
            Rule::D4 => "D4",
            Rule::D5 => "D5",
            Rule::F1 => "F1",
            Rule::P1 => "P1",
            Rule::O1 => "O1",
        }
    }

    /// Parses a rule name as written inside an allow marker.
    pub fn parse(s: &str) -> Option<Rule> {
        match s.trim() {
            "D1" => Some(Rule::D1),
            "D2" => Some(Rule::D2),
            "D3" => Some(Rule::D3),
            "D4" => Some(Rule::D4),
            "D5" => Some(Rule::D5),
            "F1" => Some(Rule::F1),
            "P1" => Some(Rule::P1),
            "O1" => Some(Rule::O1),
            _ => None,
        }
    }

    /// One-line description for `--rules` output and docs.
    pub fn describe(self) -> &'static str {
        match self {
            Rule::D1 => "no std HashMap/HashSet outside tests (iteration order nondeterminism)",
            Rule::D2 => "no wall-clock time (Instant/SystemTime/UNIX_EPOCH) outside crates/bench",
            Rule::D3 => "no ambient randomness; RNG must flow from the experiment seed",
            Rule::D4 => "no thread spawning outside crates/bench; use the quarantined solver pool",
            Rule::D5 => {
                "no public sim-facing fn may transitively reach a D1-D4/F1 source (call graph)"
            }
            Rule::F1 => "no partial_cmp in sort comparators on sim-visible floats; use total_cmp",
            Rule::P1 => "no unwrap/expect/panic!/literal-indexing in non-test library code",
            Rule::O1 => "public items in simcore/mgmt/faults must carry doc comments",
        }
    }
}

/// Crates whose public items must be documented (mirrors their
/// `#![warn(missing_docs)]`, but cross-crate and non-bypassable).
const DOC_CONTRACT_CRATES: &[&str] = &["simcore", "mgmt", "faults"];

/// Item keywords that O1 requires docs on (after `pub` + modifiers).
const ITEM_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "mod", "const", "static", "type", "union",
];

/// Method names whose comparator closure establishes an ordering —
/// the F1 scan looks for `partial_cmp` inside their argument list.
const SORT_CONTEXT_FNS: &[&str] = &[
    "sort_by",
    "sort_unstable_by",
    "binary_search_by",
    "max_by",
    "min_by",
];

/// Per-file scan outcome: surfaced findings, marker-suppression count,
/// and everything the interprocedural pass needs (the parsed item
/// model, the taint sources, and the per-line allow sets).
#[derive(Debug, Default)]
pub struct FileScan {
    /// Findings that survived marker filtering.
    pub findings: Vec<Finding>,
    /// Number of findings suppressed by `// lint: allow(..) reason=..`.
    pub allowed: usize,
    /// Nondeterminism sources (D1–D4, F1) for the taint pass, severed
    /// or not.
    pub sources: Vec<TaintSource>,
    /// The parsed `use`/`fn`/call model for the call-graph layer.
    pub model: FileModel,
    /// Per-line allow sets (0-based), for D5 marker filtering.
    pub allows: Vec<BTreeSet<Rule>>,
}

/// Runs every per-line rule over one file. `rel_path` is
/// workspace-relative with forward slashes, e.g.
/// `crates/network/src/routing.rs`. The interprocedural D5 rule runs
/// afterwards, over all files at once, in [`crate::taint`].
pub fn check_file(rel_path: &str, src: &str) -> FileScan {
    let map = lex(src);
    let crate_name = crate_of(rel_path);
    let allows = allow_markers(&map);
    let model = parser::parse(&map);
    let mut scan = FileScan::default();
    // `what` labels a D1–D4/F1 match as a taint source; a marker for
    // the rule itself or for D5 at the same line severs the seed.
    let push = |scan: &mut FileScan,
                rule: Rule,
                line: usize,
                message: String,
                what: Option<String>,
                map: &FileMap| {
        let line_allows = allows.get(line);
        let allowed = line_allows.map(|set| set.contains(&rule)).unwrap_or(false);
        if let Some(what) = what {
            let d5_severed = line_allows
                .map(|set| set.contains(&Rule::D5))
                .unwrap_or(false);
            scan.sources.push(TaintSource {
                rule,
                line,
                what,
                severed: allowed || d5_severed,
            });
        }
        if allowed {
            scan.allowed += 1;
        } else {
            scan.findings.push(Finding {
                rule: rule.name().to_string(),
                file: rel_path.to_string(),
                line: line + 1,
                message,
                snippet: snippet_of(src, line, map),
                path: Vec::new(),
            });
        }
    };

    // Aliased bindings of the banned D1–D3 names: `use std::time::
    // Instant as Clock` makes every later `Clock` a wall-clock read.
    // The `use` line itself still matches the literal name, so only
    // use *sites* are attributed to the alias (decl lines are skipped).
    let mut alias_bans: Vec<(&str, Rule, String)> = Vec::new();
    let mut use_decl_lines: BTreeSet<usize> = BTreeSet::new();
    for u in &model.uses {
        for l in u.line..=u.end_line {
            use_decl_lines.insert(l);
        }
        let Some(tail) = u.segments.last() else {
            continue;
        };
        if u.alias == *tail {
            continue;
        }
        let rule = match tail.as_str() {
            "HashMap" | "HashSet" => Some(Rule::D1),
            "Instant" | "SystemTime" | "UNIX_EPOCH" => Some(Rule::D2),
            "thread_rng" | "OsRng" => Some(Rule::D3),
            _ => None,
        };
        if let Some(rule) = rule {
            if rule == Rule::D2 && crate_name == "bench" {
                continue;
            }
            alias_bans.push((u.alias.as_str(), rule, u.segments.join("::")));
        }
    }

    // F1 sort-comparator context: >0 while inside the still-open
    // argument list of a `sort_by`-family call.
    let mut sort_depth: i64 = 0;

    for (i, code) in map.code.iter().enumerate() {
        if map.test[i] {
            sort_depth = 0;
            continue;
        }
        // D1 — unordered hash collections.
        for word in ["HashMap", "HashSet"] {
            if has_word(code, word) {
                push(
                    &mut scan,
                    Rule::D1,
                    i,
                    format!(
                        "std {word} iterates in nondeterministic order; use the BTree \
                         equivalent in simulation-visible state"
                    ),
                    Some(format!("hash-ordered {word} iteration")),
                    &map,
                );
            }
        }
        // D2 — wall clock (bench crate is the one place allowed to time
        // the real machine).
        if crate_name != "bench" {
            for word in ["Instant", "SystemTime", "UNIX_EPOCH"] {
                if has_word(code, word) {
                    push(
                        &mut scan,
                        Rule::D2,
                        i,
                        format!("wall-clock {word} in simulation code; use the sim clock"),
                        Some(format!("wall-clock {word}")),
                        &map,
                    );
                }
            }
        }
        // D3 — ambient randomness.
        for pat in ["thread_rng", "from_entropy", "OsRng"] {
            if has_word(code, pat) {
                push(
                    &mut scan,
                    Rule::D3,
                    i,
                    format!("ambient randomness ({pat}); seed all RNG via simcore::rng"),
                    Some(format!("ambient randomness ({pat})")),
                    &map,
                );
            }
        }
        if code.contains("rand::random") {
            push(
                &mut scan,
                Rule::D3,
                i,
                "ambient randomness (rand::random); seed all RNG via simcore::rng".to_string(),
                Some("ambient randomness (rand::random)".to_string()),
                &map,
            );
        }
        // D1–D3 via `use … as` aliases (use sites only; the declaration
        // line already matches the literal name).
        if !use_decl_lines.contains(&i) {
            for (alias, rule, resolved) in &alias_bans {
                if has_word(code, alias) {
                    push(
                        &mut scan,
                        *rule,
                        i,
                        format!(
                            "`{alias}` is `{resolved}` (aliased import); the alias does not \
                             launder the nondeterminism"
                        ),
                        Some(format!("aliased {resolved}")),
                        &map,
                    );
                }
            }
        }
        // D4 — thread spawning. Concurrency in simulation code must go
        // through the quarantined, order-restoring pool in
        // `flowsim::partition` (itself carrying justified markers); a
        // rogue spawn can leak scheduling order into results.
        if crate_name != "bench" {
            for pat in [
                "std::thread",
                "thread::spawn",
                "thread::scope",
                "thread::Builder",
                "scope.spawn",
            ] {
                if code.contains(pat) {
                    push(
                        &mut scan,
                        Rule::D4,
                        i,
                        format!(
                            "thread spawning ({pat}) in simulation code; route concurrency \
                             through the quarantined flowsim::partition pool"
                        ),
                        Some(format!("ad-hoc thread spawn ({pat})")),
                        &map,
                    );
                    break;
                }
            }
        }
        // F1 — non-total float ordering in sort comparators. The
        // comparator may span lines, so the open-paren balance of the
        // sort call keeps the context alive until its list closes.
        if crate_name != "bench" {
            let in_context = sort_depth > 0;
            let opens_context = SORT_CONTEXT_FNS.iter().any(|f| has_word(code, f));
            if (in_context || opens_context)
                && has_word(code, "partial_cmp")
                && !has_word(code, "total_cmp")
            {
                push(
                    &mut scan,
                    Rule::F1,
                    i,
                    "partial_cmp is not a total order on floats (NaN): the sort can panic \
                     or reorder; use total_cmp"
                        .to_string(),
                    Some("non-total float ordering (partial_cmp)".to_string()),
                    &map,
                );
            }
            if opens_context {
                let from = SORT_CONTEXT_FNS
                    .iter()
                    .filter_map(|f| find_word(code, f))
                    .min()
                    .unwrap_or(0);
                sort_depth = paren_balance(&code[from..]).max(0);
            } else if in_context {
                sort_depth = (sort_depth + paren_balance(code)).max(0);
            }
        }
        // P1 — panic paths in library code.
        if crate_name != "bench" {
            if has_method_call(code, "unwrap") {
                push(
                    &mut scan,
                    Rule::P1,
                    i,
                    ".unwrap() in library code; return an error or justify the invariant"
                        .to_string(),
                    None,
                    &map,
                );
            }
            if has_method_call(code, "expect") {
                push(
                    &mut scan,
                    Rule::P1,
                    i,
                    ".expect(..) in library code; return an error or justify the invariant"
                        .to_string(),
                    None,
                    &map,
                );
            }
            for mac in ["panic", "todo", "unimplemented"] {
                if has_macro(code, mac) {
                    push(
                        &mut scan,
                        Rule::P1,
                        i,
                        format!("{mac}! in library code; return an error or justify the invariant"),
                        None,
                        &map,
                    );
                }
            }
            if has_literal_index(code) {
                push(
                    &mut scan,
                    Rule::P1,
                    i,
                    "indexing by integer literal can panic; use .get(..) or justify the bound"
                        .to_string(),
                    None,
                    &map,
                );
            }
        }
    }

    // O1 — undocumented public items in the contract crates.
    if DOC_CONTRACT_CRATES.contains(&crate_name) {
        for i in 0..map.len() {
            if map.test[i] {
                continue;
            }
            if let Some(keyword) = public_item_keyword(&map.code[i]) {
                if !has_attached_doc(&map, i) {
                    push(
                        &mut scan,
                        Rule::O1,
                        i,
                        format!("public `{keyword}` without a doc comment"),
                        None,
                        &map,
                    );
                }
            }
        }
    }

    scan.findings
        .sort_by(|a, b| (a.line, a.rule.as_str()).cmp(&(b.line, b.rule.as_str())));
    scan.model = model;
    scan.allows = allows;
    scan
}

/// Net `(` minus `)` over a code-shadow slice (literals are already
/// blanked, so every paren is structural).
fn paren_balance(code: &str) -> i64 {
    let mut bal = 0i64;
    for c in code.chars() {
        match c {
            '(' => bal += 1,
            ')' => bal -= 1,
            _ => {}
        }
    }
    bal
}

/// The trimmed original source line, capped for report readability.
fn snippet_of(src: &str, line: usize, _map: &FileMap) -> String {
    let raw = src.lines().nth(line).unwrap_or("").trim();
    let mut s: String = raw.chars().take(120).collect();
    if raw.chars().count() > 120 {
        s.push('…');
    }
    s
}

/// Per-line sets of rules suppressed by justified allow markers.
fn allow_markers(map: &FileMap) -> Vec<BTreeSet<Rule>> {
    let mut allows: Vec<BTreeSet<Rule>> = vec![BTreeSet::new(); map.len()];
    for (i, comment) in map.comments.iter().enumerate() {
        let rules = parse_marker(comment);
        if rules.is_empty() {
            continue;
        }
        let target = if map.code[i].trim().is_empty() {
            // Marker on its own line: applies to the next code line.
            (i + 1..map.len()).find(|&j| !map.code[j].trim().is_empty())
        } else {
            Some(i)
        };
        if let Some(t) = target {
            allows[t].extend(rules);
        }
    }
    allows
}

/// Parses `lint: allow(R1,R2) reason=non-empty` out of a comment. Returns
/// the named rules, or empty if absent / malformed / missing a reason.
fn parse_marker(comment: &str) -> Vec<Rule> {
    let Some(at) = comment.find("lint:") else {
        return Vec::new();
    };
    let rest = &comment[at + "lint:".len()..];
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix("allow(") else {
        return Vec::new();
    };
    let Some(close) = rest.find(')') else {
        return Vec::new();
    };
    let names = &rest[..close];
    let tail = &rest[close + 1..];
    let has_reason = tail
        .find("reason=")
        .map(|r| !tail[r + "reason=".len()..].trim().is_empty())
        .unwrap_or(false);
    if !has_reason {
        return Vec::new();
    }
    names.split(',').filter_map(Rule::parse).collect()
}

/// Whether `word` occurs in `code` with non-identifier boundaries.
fn has_word(code: &str, word: &str) -> bool {
    find_word(code, word).is_some()
}

fn find_word(code: &str, word: &str) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut from = 0usize;
    while let Some(pos) = code[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let pre_ok = start == 0 || !is_ident_byte(bytes[start - 1]);
        let post_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if pre_ok && post_ok {
            return Some(start);
        }
        from = start + word.len();
    }
    None
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Whether `code` contains a `.name(` method call (e.g. `.unwrap()`),
/// ignoring look-alikes such as `.unwrap_or(..)`.
fn has_method_call(code: &str, name: &str) -> bool {
    let bytes = code.as_bytes();
    let mut from = 0usize;
    while let Some(pos) = code[from..].find(name) {
        let start = from + pos;
        let end = start + name.len();
        let pre_ok = start > 0
            && !is_ident_byte(bytes[start - 1])
            && code[..start].trim_end().ends_with('.');
        let post = code[end..].trim_start();
        let boundary = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if pre_ok && boundary && post.starts_with('(') {
            return true;
        }
        from = end;
    }
    false
}

/// Whether `code` invokes the `name!` macro.
fn has_macro(code: &str, name: &str) -> bool {
    let bytes = code.as_bytes();
    let mut from = 0usize;
    while let Some(pos) = code[from..].find(name) {
        let start = from + pos;
        let end = start + name.len();
        let pre_ok = start == 0 || !is_ident_byte(bytes[start - 1]);
        if pre_ok && code[end..].starts_with('!') {
            return true;
        }
        from = end;
    }
    false
}

/// Whether `code` indexes an expression by a bare integer literal
/// (`xs[0]`, `f()[1]`) — a panic waiting for a shorter slice.
fn has_literal_index(code: &str) -> bool {
    let chars: Vec<char> = code.chars().collect();
    for (i, &c) in chars.iter().enumerate() {
        if c != '[' || i == 0 {
            continue;
        }
        let prev = chars[..i].iter().rev().find(|ch| !ch.is_whitespace());
        let indexes_expr = matches!(
            prev,
            Some(p) if p.is_alphanumeric() || *p == '_' || *p == ')' || *p == ']'
        );
        if !indexes_expr {
            continue;
        }
        if let Some(close) = chars[i + 1..].iter().position(|&ch| ch == ']') {
            let inner: String = chars[i + 1..i + 1 + close].iter().collect();
            let inner = inner.trim();
            if !inner.is_empty() && inner.chars().all(|ch| ch.is_ascii_digit() || ch == '_') {
                return true;
            }
        }
    }
    false
}

/// If the line declares a `pub` item, the item keyword (`fn`, `struct`,
/// …). `pub(crate)`/`pub(super)` and `pub use` are not public API here.
fn public_item_keyword(code: &str) -> Option<&'static str> {
    let t = code.trim_start();
    let rest = t.strip_prefix("pub ")?;
    let mut tokens = rest.split_whitespace();
    loop {
        let tok = tokens.next()?;
        if tok == "use" {
            return None;
        }
        if tok == "mod" && t.trim_end().ends_with(';') {
            // `pub mod foo;` — the module's docs are the `//!` header of
            // its own file, which rustdoc attaches for us.
            return None;
        }
        if let Some(k) = ITEM_KEYWORDS.iter().find(|k| **k == tok) {
            // `const` / `static` / `type` can also be modifiers or
            // generics markers; accept them only when followed by a name.
            return Some(k);
        }
        // `extern "C"` ABIs arrive with the string body blanked (`""`).
        if !(tok == "async" || tok == "unsafe" || tok == "extern" || tok.starts_with('"')) {
            return None;
        }
    }
}

/// Whether the item on `line` has a doc comment attached (walking up
/// over attributes, blank lines and plain comments). `#[doc = "…"]`
/// attribute docs — the form `///` desugars to, and the one macros
/// emit — count the same as comment docs; the item's own line may
/// carry one too (`#[doc = "…"] pub fn f()`).
fn has_attached_doc(map: &FileMap, line: usize) -> bool {
    if map.code[line].trim_start().starts_with("#[doc") {
        return true;
    }
    let mut l = line;
    let mut in_attr_tail = false;
    while l > 0 {
        l -= 1;
        let code = map.code[l].trim();
        if code.starts_with("#[doc") {
            return true;
        }
        if in_attr_tail {
            // Inside a multi-line attribute: skip until its `#[` opener.
            if code.starts_with("#[") || code.starts_with("#!") {
                in_attr_tail = false;
            }
            continue;
        }
        if code.starts_with("#[") || code.starts_with("#!") {
            continue; // single-line attribute
        }
        if code.ends_with(")]") {
            in_attr_tail = true; // tail of a multi-line attribute
            continue;
        }
        if code.is_empty() {
            if map.doc[l] {
                return true;
            }
            continue; // blank or plain comment line — keep walking
        }
        return false; // real code: nothing attached
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_call_detection_ignores_lookalikes() {
        assert!(has_method_call("x.unwrap()", "unwrap"));
        assert!(has_method_call("x.unwrap ()", "unwrap"));
        assert!(!has_method_call("x.unwrap_or(0)", "unwrap"));
        assert!(!has_method_call("unwrap()", "unwrap"));
    }

    #[test]
    fn literal_index_detection() {
        assert!(has_literal_index("let x = xs[0];"));
        assert!(has_literal_index("f()[12]"));
        assert!(!has_literal_index("let a = [0];"));
        assert!(!has_literal_index("let a: [u8; 4] = x;"));
        assert!(!has_literal_index("xs[i]"));
        assert!(!has_literal_index("vec![0; 3]"));
    }

    #[test]
    fn marker_requires_reason() {
        assert!(parse_marker("// lint: allow(P1)").is_empty());
        assert!(parse_marker("// lint: allow(P1) reason=").is_empty());
        assert_eq!(
            parse_marker("// lint: allow(P1) reason=true invariant"),
            vec![Rule::P1]
        );
        assert_eq!(
            parse_marker(" lint: allow(D1,P1) reason=bounded"),
            vec![Rule::D1, Rule::P1]
        );
    }

    #[test]
    fn pub_item_keywords() {
        assert_eq!(public_item_keyword("pub fn f() {"), Some("fn"));
        assert_eq!(public_item_keyword("    pub struct X {"), Some("struct"));
        assert_eq!(public_item_keyword("pub const fn g() {"), Some("const"));
        assert_eq!(public_item_keyword("pub use foo::Bar;"), None);
        assert_eq!(public_item_keyword("pub(crate) fn h() {"), None);
        assert_eq!(public_item_keyword("let x = 1;"), None);
    }
}
