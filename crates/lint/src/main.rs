//! `picloud-lint` binary — scan, report, fail on any finding.
//!
//! ```sh
//! cargo run -p picloud-lint                     # full report (text); CI gate
//! cargo run -p picloud-lint -- --format jsonl   # machine-readable
//! cargo run -p picloud-lint -- --format github  # PR annotations
//! cargo run -p picloud-lint -- --rules          # list the rule book
//! ```
//!
//! Exit codes: 0 when the report is empty, 1 when it holds any finding,
//! 2 on a usage or I/O error.

use picloud_lint::rules::Rule;
use picloud_lint::Workspace;
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    root: Option<PathBuf>,
    format: String,
    out: Option<PathBuf>,
    list_rules: bool,
}

fn usage() {
    eprintln!(
        "picloud-lint — determinism & panic-safety static analysis\n\n\
         usage: picloud-lint [--root DIR] [--format text|jsonl|github] [--out FILE] [--rules]\n\n\
         --rules  print the rule book and exit\n\n\
         Exits 0 when the report is empty, 1 on any finding, 2 on a usage or I/O error.\n\
         See LINTS.md for the rules and the allow-marker syntax."
    );
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        root: None,
        format: "text".to_string(),
        out: None,
        list_rules: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => {
                opts.root = Some(PathBuf::from(it.next().ok_or("--root needs a directory")?))
            }
            "--format" => {
                let f = it
                    .next()
                    .ok_or("--format needs one of text, jsonl, github")?;
                if f != "text" && f != "jsonl" && f != "github" {
                    return Err(format!("unknown --format '{f}' (text, jsonl, github)"));
                }
                opts.format = f.clone();
            }
            "--out" => opts.out = Some(PathBuf::from(it.next().ok_or("--out needs a file path")?)),
            "--rules" => opts.list_rules = true,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("picloud-lint: {msg}\n");
            }
            usage();
            return ExitCode::from(2);
        }
    };
    if opts.list_rules {
        for rule in Rule::ALL {
            println!("{}  {}", rule.name(), rule.describe());
        }
        return ExitCode::SUCCESS;
    }
    match run(&opts) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("picloud-lint: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Scans, renders and writes the report; `Ok(true)` when it is empty.
fn run(opts: &Options) -> Result<bool, String> {
    let ws = Workspace::discover(opts.root.as_deref())?;
    let report = ws.scan()?;
    let rendered = match opts.format.as_str() {
        "jsonl" => report.to_jsonl(),
        "github" => report.to_github(),
        _ => report.to_text(),
    };
    match &opts.out {
        None => print!("{rendered}"),
        Some(path) => {
            std::fs::write(path, &rendered)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            eprintln!("wrote {} bytes to {}", rendered.len(), path.display());
        }
    }
    Ok(report.findings.is_empty())
}
