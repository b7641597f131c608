//! `lithohd-lint` — the workspace static-analysis gate.
//!
//! ```text
//! lithohd-lint check [--json] [--root <dir>] [paths…]
//! lithohd-lint explain <rule>
//! lithohd-lint rules
//! ```
//!
//! `check` scans the workspace (or the explicitly listed files, which are
//! always scanned at library strictness — that is how the known-bad test
//! fixtures are exercised).
//!
//! Exit codes distinguish *what the linter found* from *whether it ran*:
//!
//! * `0` — scan completed, no unsuppressed findings;
//! * `1` — the scan itself failed: usage, I/O, or configuration error;
//! * `2` — scan completed and found violations.
//!
//! CI treats any nonzero exit as a failure but the distinction matters for
//! tooling: exit 2 means "read the findings", exit 1 means "fix the
//! invocation". Every unsuppressed finding is a hard failure.

use hotspot_lint::rules::{self, CheckReport, Finding, NameRegistry, Severity};
use hotspot_lint::workspace;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const REGISTRY_REL_PATH: &str = "crates/telemetry/src/names.rs";

/// The scan ran and reported violations.
const EXIT_FINDINGS: u8 = 2;
/// The scan could not run: usage, I/O, or configuration error.
const EXIT_ERROR: u8 = 1;

fn usage() -> ExitCode {
    eprintln!(
        "usage: lithohd-lint <check|explain|rules> …\n\
         \n\
         check [--json] [--root <dir>] [paths…]\n\
         \x20   scan the workspace (or the given files, at library strictness)\n\
         explain <rule>\n\
         \x20   describe one rule: what it catches, why, how to fix\n\
         rules\n\
         \x20   list the rule catalog\n\
         \n\
         exit codes:\n\
         \x20   0  scan completed, no violations\n\
         \x20   1  usage, I/O, or configuration error (the scan did not run)\n\
         \x20   2  scan completed and found violations"
    );
    ExitCode::from(EXIT_ERROR)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => run_check(&args[1..]),
        Some("explain") => run_explain(&args[1..]),
        Some("rules") => run_rules(),
        _ => usage(),
    }
}

struct CheckArgs {
    json: bool,
    root: Option<PathBuf>,
    paths: Vec<PathBuf>,
}

fn parse_check_args(args: &[String]) -> Result<CheckArgs, String> {
    let mut parsed = CheckArgs {
        json: false,
        root: None,
        paths: Vec::new(),
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--json" => parsed.json = true,
            "--root" => {
                parsed.root = Some(PathBuf::from(iter.next().ok_or("--root expects a path")?));
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag: {flag}")),
            path => parsed.paths.push(PathBuf::from(path)),
        }
    }
    Ok(parsed)
}

fn resolve_root(explicit: Option<&Path>) -> Result<PathBuf, String> {
    if let Some(root) = explicit {
        return Ok(root.to_path_buf());
    }
    let cwd = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
    workspace::find_root(&cwd)
        .ok_or_else(|| "no workspace root found (run inside the repo or pass --root)".to_string())
}

fn load_registry(root: &Path) -> Option<NameRegistry> {
    let path = root.join(REGISTRY_REL_PATH);
    let source = std::fs::read_to_string(path).ok()?;
    Some(NameRegistry::parse(REGISTRY_REL_PATH, &source))
}

/// Scans either the whole workspace or the explicit paths.
fn scan(root: &Path, explicit: &[PathBuf]) -> Result<CheckReport, String> {
    let registry = load_registry(root);
    if explicit.is_empty() {
        let files = workspace::discover(root).map_err(|e| format!("discovery failed: {e}"))?;
        rules::check_on_disk(root, &files, registry.as_ref(), false)
    } else {
        // Explicit paths are scanned at library strictness, and without the
        // registry's cross-file bookkeeping (a lone fixture file would
        // otherwise report every registered name as unused).
        rules::check_on_disk(root, explicit, None, true)
    }
    .map_err(|e| format!("scan failed: {e}"))
}

fn run_check(args: &[String]) -> ExitCode {
    let parsed = match parse_check_args(args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("lithohd-lint check: {message}");
            return ExitCode::from(EXIT_ERROR);
        }
    };
    let root = match resolve_root(parsed.root.as_deref()) {
        Ok(root) => root,
        Err(message) => {
            eprintln!("lithohd-lint check: {message}");
            return ExitCode::from(EXIT_ERROR);
        }
    };
    let report = match scan(&root, &parsed.paths) {
        Ok(report) => report,
        Err(message) => {
            eprintln!("lithohd-lint check: {message}");
            return ExitCode::from(EXIT_ERROR);
        }
    };
    if parsed.json {
        print_json(&report);
    } else {
        print_human(&report);
    }
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_FINDINGS)
    }
}

fn print_human(report: &CheckReport) {
    let findings = &report.findings;
    for finding in findings {
        println!(
            "{}:{}: [{}] {}: {}",
            finding.path,
            finding.line,
            finding.severity.label(),
            finding.rule,
            finding.message
        );
        if !finding.excerpt.is_empty() {
            println!("    {}", finding.excerpt);
        }
    }
    let errors = findings
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .count();
    println!(
        "lithohd-lint: {} file(s) scanned, {} violation(s) ({} error(s), {} warning(s)), \
         {} suppressed",
        report.files_scanned,
        findings.len(),
        errors,
        findings.len() - errors,
        report.suppressed.len(),
    );
    if !report.suppressed.is_empty() {
        println!("suppressions in effect:");
        for finding in &report.suppressed {
            println!(
                "    {}:{}: {} — {}",
                finding.path,
                finding.line,
                finding.rule,
                finding.suppression_reason.as_deref().unwrap_or("")
            );
        }
    }
}

/// The machine-readable `--json` report shape.
#[derive(serde::Serialize)]
struct JsonReport {
    files_scanned: usize,
    new_violations: Vec<Finding>,
    suppressed: Vec<Finding>,
}

fn print_json(report: &CheckReport) {
    let body = JsonReport {
        files_scanned: report.files_scanned,
        new_violations: report.findings.clone(),
        suppressed: report.suppressed.clone(),
    };
    match serde_json::to_string_pretty(&body) {
        Ok(text) => println!("{text}"),
        Err(e) => eprintln!("lithohd-lint check: cannot serialize report: {e}"),
    }
}

fn run_explain(args: &[String]) -> ExitCode {
    let Some(name) = args.first() else {
        eprintln!("usage: lithohd-lint explain <rule>");
        return ExitCode::from(EXIT_ERROR);
    };
    match rules::rule_info(name) {
        Some(rule) => {
            println!("{} [{}]", rule.name, rule.severity.label());
            println!("{}", rule.summary);
            println!();
            println!("{}", rule.explain);
            ExitCode::SUCCESS
        }
        None => {
            eprintln!(
                "unknown rule `{name}`; known rules: {}",
                rules::RULES
                    .iter()
                    .map(|r| r.name)
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            ExitCode::from(EXIT_ERROR)
        }
    }
}

fn run_rules() -> ExitCode {
    for rule in rules::RULES {
        println!(
            "{:<24} [{:<7}] {}",
            rule.name,
            rule.severity.label(),
            rule.summary
        );
    }
    ExitCode::SUCCESS
}
