//! `lithohd-report` — journal analytics and the bench regression gate.
//!
//! Four subcommands over JSONL run journals (written with `--journal`):
//!
//! * `report <journal.jsonl> [--lint <lint.json>]` — render a Markdown
//!   report: per-run headline table, per-iteration trajectories with
//!   sparklines (temperature, ECE, batch yield, train loss, entropy
//!   weights), fault counters, and span latency quantiles. With `--lint`,
//!   a static-analysis section (findings by rule, zero-baseline badge) is
//!   appended from a `lithohd-lint check --json` report.
//! * `diff <a.jsonl> <b.jsonl>` — per-method, per-metric deltas between two
//!   journals.
//! * `render <journal.jsonl> --out <dir> [--max-clips <n>]` — render the
//!   offline SVG dashboard (method bars, trajectories, selection maps,
//!   reliability diagrams, clip geometry) plus a self-contained
//!   `index.html`.
//! * `gate <journal.jsonl> <baseline.json> [--tolerance-acc <pts>]
//!   [--tolerance-litho <pct>] [--tolerance-time <factor>]` — compare the
//!   journal against a committed `BENCH_*.json` baseline and exit nonzero
//!   on regression (accuracy drop beyond the tolerance, Litho# growth
//!   beyond the tolerance, or — opt-in — wall-time blowup).
//!
//! Exit codes: `0` success / gate passed, `1` gate regression, `2` usage or
//! I/O error.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

use hotspot_bench::journal::{
    evaluate_gate, load_baseline, method_for_selector, percentile, GateTolerances, Journal,
    RunRecord,
};
use hotspot_bench::profile::{
    evaluate_kernel_gate, load_kernel_baseline, looks_like_kernel_baseline,
};
use hotspot_bench::render::{render_dashboard, RenderOptions};

const USAGE: &str = "usage: lithohd-report <command>\n\
  report <journal.jsonl>                 render a Markdown report\n\
       [--lint <lint.json>]              append a static-analysis section\n\
                                         from `lithohd-lint check --json`\n\
  diff <a.jsonl> <b.jsonl>               per-metric deltas between journals\n\
  render <journal.jsonl> --out <dir>     render the SVG dashboard\n\
       [--max-clips <n>]                 clip geometry renderings (default 8)\n\
  gate <journal.jsonl> <baseline.json>   regression gate against a baseline\n\
       [--tolerance-acc <points>]        allowed accuracy drop (default 0.5)\n\
       [--tolerance-litho <percent>]     allowed Litho# increase (default 0)\n\
       [--tolerance-time <factor>]       allowed wall-time factor (off by default)\n\
  gate <fresh.json> <BENCH_kernels.json> --tolerance-time <factor>\n\
       kernel-microbench mode (auto-detected from the baseline shape): both\n\
       files are lithohd-profile sample arrays, gated on median wall time";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("report") => cmd_report(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("render") => cmd_render(&args[1..]),
        Some("gate") => cmd_gate(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

fn read_journal(path: &str) -> Result<Journal, String> {
    Journal::read(path).map_err(|e| format!("cannot read journal {path}: {e}"))
}

fn cmd_report(args: &[String]) -> Result<ExitCode, String> {
    let mut positional = Vec::new();
    let mut lint_path: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--lint" => {
                lint_path = Some(
                    iter.next()
                        .ok_or_else(|| "flag --lint expects a value".to_string())?
                        .clone(),
                );
            }
            other if other.starts_with("--") => return Err(format!("unknown flag: {other}")),
            other => positional.push(other.to_string()),
        }
    }
    let [path] = positional.as_slice() else {
        return Err(USAGE.to_string());
    };
    let journal = read_journal(path)?;
    print!("{}", render_report(path, &journal));
    if let Some(lint_path) = lint_path {
        let text = std::fs::read_to_string(&lint_path)
            .map_err(|e| format!("cannot read lint report {lint_path}: {e}"))?;
        let lint: LintReport = serde_json::from_str(&text)
            .map_err(|e| format!("cannot parse lint report {lint_path}: {e}"))?;
        println!();
        print!("{}", render_lint_section(&lint_path, &lint));
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_diff(args: &[String]) -> Result<ExitCode, String> {
    let [path_a, path_b] = args else {
        return Err(USAGE.to_string());
    };
    let a = read_journal(path_a)?;
    let b = read_journal(path_b)?;
    print!("{}", render_diff(path_a, &a, path_b, &b));
    Ok(ExitCode::SUCCESS)
}

fn cmd_render(args: &[String]) -> Result<ExitCode, String> {
    let mut positional = Vec::new();
    let mut out_dir: Option<String> = None;
    let mut options = RenderOptions::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| {
            iter.next()
                .ok_or_else(|| format!("flag {flag} expects a value"))
        };
        match arg.as_str() {
            "--out" => out_dir = Some(value("--out")?.clone()),
            "--max-clips" => {
                options.max_clips = value("--max-clips")?
                    .parse()
                    .map_err(|e| format!("bad --max-clips: {e}"))?;
            }
            other if other.starts_with("--") => return Err(format!("unknown flag: {other}")),
            other => positional.push(other.to_string()),
        }
    }
    let [journal_path] = positional.as_slice() else {
        return Err(USAGE.to_string());
    };
    let out_dir = out_dir.ok_or_else(|| USAGE.to_string())?;
    let journal = read_journal(journal_path)?;
    let summary = render_dashboard(&journal, std::path::Path::new(&out_dir), &options)?;
    println!(
        "wrote {} file(s) to {out_dir} ({} run(s), {} clip rendering(s)); open {out_dir}/index.html",
        summary.files.len(),
        summary.runs,
        summary.clips,
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_gate(args: &[String]) -> Result<ExitCode, String> {
    let mut positional = Vec::new();
    let mut tolerances = GateTolerances::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| {
            iter.next()
                .ok_or_else(|| format!("flag {flag} expects a value"))
        };
        match arg.as_str() {
            "--tolerance-acc" => {
                tolerances.accuracy_points = value("--tolerance-acc")?
                    .parse()
                    .map_err(|e| format!("bad --tolerance-acc: {e}"))?;
            }
            "--tolerance-litho" => {
                tolerances.litho_percent = value("--tolerance-litho")?
                    .parse()
                    .map_err(|e| format!("bad --tolerance-litho: {e}"))?;
            }
            "--tolerance-time" => {
                tolerances.time_factor = Some(
                    value("--tolerance-time")?
                        .parse()
                        .map_err(|e| format!("bad --tolerance-time: {e}"))?,
                );
            }
            other if other.starts_with("--") => return Err(format!("unknown flag: {other}")),
            other => positional.push(other.to_string()),
        }
    }
    let [journal_path, baseline_path] = positional.as_slice() else {
        return Err(USAGE.to_string());
    };
    let baseline_text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
    let outcome = if looks_like_kernel_baseline(&baseline_text) {
        // Kernel-microbench mode: both sides are `lithohd-profile` sample
        // arrays, gated purely on wall time.
        let factor = tolerances.time_factor.ok_or_else(|| {
            "kernel baselines gate on wall time only: pass --tolerance-time <factor>".to_string()
        })?;
        let measured = load_kernel_baseline(journal_path)?;
        let baseline = load_kernel_baseline(baseline_path)?;
        evaluate_kernel_gate(&measured, &baseline, factor)
    } else {
        let journal = read_journal(journal_path)?;
        let baseline = load_baseline(baseline_path)?;
        evaluate_gate(&journal, &baseline, &tolerances)
    };

    println!("# Regression gate: `{journal_path}` vs `{baseline_path}`");
    println!();
    println!("| method | metric | baseline | measured | bound | status |");
    println!("|---|---|---:|---:|---:|---|");
    for check in &outcome.checks {
        let status = if check.ok { "ok" } else { "**REGRESSION**" };
        println!(
            "| {} | {} | {} | {} | {} | {status} |",
            check.method,
            check.metric,
            fmt_metric(check.metric, check.baseline),
            fmt_metric(check.metric, check.measured),
            fmt_metric(check.metric, check.bound),
        );
    }
    for error in &outcome.errors {
        println!();
        println!("**error:** {error}");
    }
    println!();
    if outcome.passed() {
        println!("gate: PASS");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("gate: FAIL");
        Ok(ExitCode::FAILURE)
    }
}

/// Formats a gate value in the metric's natural unit.
fn fmt_metric(metric: &str, value: f64) -> String {
    match metric {
        "accuracy" => format!("{:.2}%", value * 100.0),
        "litho" => format!("{value:.1}"),
        "kernel_ns" => {
            if value >= 1e6 {
                format!("{:.2}ms", value / 1e6)
            } else {
                format!("{:.1}µs", value / 1e3)
            }
        }
        _ => format!("{value:.2}s"),
    }
}

const SPARK: [char; 8] = [
    '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}', '\u{2588}',
];

/// Renders a series as a Unicode sparkline (empty string for no data).
fn sparkline(values: &[f64]) -> String {
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    let (Some(min), Some(max)) = (
        finite.iter().copied().reduce(f64::min),
        finite.iter().copied().reduce(f64::max),
    ) else {
        // No finite samples at all: every slot is a gap, not an empty string,
        // so the line keeps its width in the table.
        return values.iter().map(|_| '?').collect();
    };
    let span = max - min;
    values
        .iter()
        .map(|v| {
            if !v.is_finite() {
                return '?';
            }
            if span <= 0.0 {
                // Constant series: a flat mid-level line, not a row of minima.
                return SPARK[SPARK.len() / 2];
            }
            let level = ((v - min) / span * (SPARK.len() - 1) as f64).round() as usize;
            SPARK[level.min(SPARK.len() - 1)]
        })
        .collect()
}

fn fmt_opt(value: Option<f64>, unit_scale: f64) -> String {
    match value {
        Some(v) if v.is_finite() => format!("{:.3}", v * unit_scale),
        _ => "-".to_string(),
    }
}

fn render_report(path: &str, journal: &Journal) -> String {
    let mut out = String::new();
    let runs = journal.runs();
    let iterations = journal.iterations();

    let _ = writeln!(out, "# Run report: `{path}`");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{} records ({} skipped line{}), {} run{}, {} iteration event{}.",
        journal.records.len(),
        journal.skipped_lines,
        if journal.skipped_lines == 1 { "" } else { "s" },
        runs.len(),
        if runs.len() == 1 { "" } else { "s" },
        iterations.len(),
        if iterations.len() == 1 { "" } else { "s" },
    );

    if !runs.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "## Runs");
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "| run | method | accuracy | litho | false alarms | ECE before → after | degraded | elapsed |"
        );
        let _ = writeln!(out, "|---:|---|---:|---:|---:|---|---|---:|");
        for run in &runs {
            let method = method_for_selector(&run.selector).unwrap_or(run.selector.as_str());
            let _ = writeln!(
                out,
                "| {} | {} | {:.2}% | {} | {} | {:.4} → {:.4} | {} | {:.2}s |",
                run.run_id,
                method,
                run.accuracy * 100.0,
                run.litho,
                run.false_alarms,
                run.ece_before,
                run.ece_after,
                if run.degraded { "yes" } else { "no" },
                run.elapsed_ms as f64 / 1000.0,
            );
        }
        if let Some(faults) = render_fault_lines(&runs) {
            let _ = writeln!(out);
            out.push_str(&faults);
        }
        if let Some(shards) = render_shard_incidents(journal) {
            let _ = writeln!(out);
            out.push_str(&shards);
        }
    }

    // Per-run iteration trajectories.
    let mut by_run: BTreeMap<u64, Vec<&hotspot_bench::journal::IterationRecord>> = BTreeMap::new();
    for iteration in &iterations {
        by_run.entry(iteration.run_id).or_default().push(iteration);
    }
    for (run_id, rows) in &by_run {
        let _ = writeln!(out);
        let _ = writeln!(out, "## Iterations (run {run_id})");
        let _ = writeln!(out);
        let temp: Vec<f64> = rows.iter().map(|r| r.temperature).collect();
        let ece: Vec<f64> = rows.iter().map(|r| r.ece).collect();
        let loss: Vec<f64> = rows.iter().map(|r| r.train_loss).collect();
        let _ = writeln!(out, "- temperature `{}`", sparkline(&temp));
        let _ = writeln!(out, "- ECE         `{}`", sparkline(&ece));
        let _ = writeln!(out, "- train loss  `{}`", sparkline(&loss));
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "| iter | temperature | ECE | batch | hotspots | labeled | loss | failed | ω1 | ω2 |"
        );
        let _ = writeln!(out, "|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|");
        for row in rows {
            let (w1, w2) = row
                .omega
                .map_or(("-".to_string(), "-".to_string()), |(w1, w2)| {
                    (format!("{w1:.3}"), format!("{w2:.3}"))
                });
            let _ = writeln!(
                out,
                "| {} | {:.4} | {:.4} | {} | {} | {} | {:.4} | {} | {} | {} |",
                row.iteration,
                row.temperature,
                row.ece,
                row.batch_size,
                row.batch_hotspots,
                row.labeled_size,
                row.train_loss,
                row.failed_labels,
                w1,
                w2,
            );
        }
    }

    if let Some(snapshot) = journal.final_snapshot() {
        if let Some(kernels) = render_kernel_counters(&snapshot.counters) {
            let _ = writeln!(out);
            out.push_str(&kernels);
        }
        if !snapshot.counters.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "## Counters");
            let _ = writeln!(out);
            let _ = writeln!(out, "| counter | value |");
            let _ = writeln!(out, "|---|---:|");
            for (name, value) in &snapshot.counters {
                let _ = writeln!(out, "| `{name}` | {value} |");
            }
        }
        if !snapshot.gauges.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "## Gauges");
            let _ = writeln!(out);
            let _ = writeln!(out, "| gauge | value |");
            let _ = writeln!(out, "|---|---:|");
            for (name, value) in &snapshot.gauges {
                let _ = writeln!(out, "| `{name}` | {value:.4} |");
            }
        }
        if !snapshot.histograms.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "## Histograms");
            let _ = writeln!(out);
            let _ = writeln!(out, "| histogram | count | mean | p50 | p95 | p99 | max |");
            let _ = writeln!(out, "|---|---:|---:|---:|---:|---:|---:|");
            for (name, h) in &snapshot.histograms {
                let _ = writeln!(
                    out,
                    "| `{name}` | {} | {:.4} | {} | {} | {} | {} |",
                    h.count,
                    h.mean,
                    fmt_opt(h.p50, 1.0),
                    fmt_opt(h.p95, 1.0),
                    fmt_opt(h.p99, 1.0),
                    fmt_opt(h.max, 1.0),
                );
            }
        }
    }

    let spans = journal.span_durations_us();
    if !spans.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "## Span latencies (ms)");
        let _ = writeln!(out);
        let _ = writeln!(out, "| span | count | mean | p50 | p95 | p99 |");
        let _ = writeln!(out, "|---|---:|---:|---:|---:|---:|");
        for (span, durations) in &spans {
            let mean = durations.iter().sum::<f64>() / durations.len() as f64;
            let _ = writeln!(
                out,
                "| `{span}` | {} | {:.3} | {} | {} | {} |",
                durations.len(),
                mean / 1000.0,
                fmt_opt(percentile(durations, 0.50), 1e-3),
                fmt_opt(percentile(durations, 0.95), 1e-3),
                fmt_opt(percentile(durations, 0.99), 1e-3),
            );
        }
    }
    out
}

/// Renders the kernel performance section from the snapshot's `kernel.*`
/// counters: one row per hot kernel with calls, processed elements, nominal
/// FLOPs, and bytes moved, plus derived per-call intensity. `None` when the
/// snapshot carries no kernel counters (canonical journals withhold them).
fn render_kernel_counters(counters: &BTreeMap<String, u64>) -> Option<String> {
    // kernel -> (calls, elements, flops, bytes).
    let mut by_kernel: BTreeMap<&str, (u64, u64, u64, u64)> = BTreeMap::new();
    for (name, &value) in counters {
        let Some(rest) = name.strip_prefix("kernel.") else {
            continue;
        };
        let Some((kernel, metric)) = rest.split_once('.') else {
            continue;
        };
        let entry = by_kernel.entry(kernel).or_default();
        match metric {
            "calls" => entry.0 = value,
            "elements" => entry.1 = value,
            "flops" => entry.2 = value,
            "bytes" => entry.3 = value,
            _ => {}
        }
    }
    if by_kernel.is_empty() {
        return None;
    }
    let mut out = String::new();
    let _ = writeln!(out, "## Kernel performance counters");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "| kernel | calls | elements | MFLOPs | MB moved | FLOPs/byte |"
    );
    let _ = writeln!(out, "|---|---:|---:|---:|---:|---:|");
    for (kernel, (calls, elements, flops, bytes)) in &by_kernel {
        let intensity = if *bytes > 0 {
            format!("{:.2}", *flops as f64 / *bytes as f64)
        } else {
            "-".to_string()
        };
        let _ = writeln!(
            out,
            "| `{kernel}` | {calls} | {elements} | {:.2} | {:.2} | {intensity} |",
            *flops as f64 / 1e6,
            *bytes as f64 / 1e6,
        );
    }
    Some(out)
}

/// Renders the fault meters of the runs that saw any fault, or `None` when
/// every run was fault-free.
fn render_fault_lines(runs: &[RunRecord]) -> Option<String> {
    let mut out = String::new();
    for run in runs {
        if run.label_failures + run.oracle_retries + run.oracle_giveups + run.quorum_votes == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "- run {}: {} retries, {} giveups, {} label failures, {} quorum votes{}",
            run.run_id,
            run.oracle_retries,
            run.oracle_giveups,
            run.label_failures,
            run.quorum_votes,
            if run.degraded {
                " — **degraded**"
            } else {
                ""
            },
        );
    }
    (!out.is_empty()).then(|| format!("Fault activity:\n\n{out}"))
}

/// Renders the coordinator's dead/hung-worker incident log as a per-shard
/// table, or `None` when the journal recorded none (canonical journals
/// withhold the coordinator target entirely).
fn render_shard_incidents(journal: &Journal) -> Option<String> {
    let incidents = journal.shard_incidents();
    if incidents.is_empty() {
        return None;
    }
    // shard -> (dead, hung, salvaged, orphaned).
    let mut by_shard: BTreeMap<u64, (u64, u64, u64, u64)> = BTreeMap::new();
    for incident in &incidents {
        let entry = by_shard.entry(incident.shard).or_default();
        if incident.dead {
            entry.0 += 1;
        } else {
            entry.1 += 1;
        }
        entry.2 += incident.salvaged;
        entry.3 += incident.orphaned;
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Shard incidents ({} worker{} lost):",
        incidents.len(),
        if incidents.len() == 1 { "" } else { "s" },
    );
    let _ = writeln!(out);
    let _ = writeln!(out, "| shard | dead | hung | salvaged | reassigned |");
    let _ = writeln!(out, "|---:|---:|---:|---:|---:|");
    for (shard, (dead, hung, salvaged, orphaned)) in &by_shard {
        let _ = writeln!(
            out,
            "| {shard} | {dead} | {hung} | {salvaged} | {orphaned} |"
        );
    }
    Some(out)
}

/// A `lithohd-lint check --json` report, read back for the static-analysis
/// section. Mirrors the linter's `JsonReport` shape; unknown fields are
/// ignored so the two binaries can evolve independently.
#[derive(serde::Deserialize)]
struct LintReport {
    files_scanned: usize,
    new_violations: Vec<LintFinding>,
    // `Option` rather than `Vec` so reports from a linter predating the
    // list still parse (absent key deserializes as `None`).
    suppressed: Option<Vec<LintFinding>>,
}

impl LintReport {
    fn suppressed(&self) -> &[LintFinding] {
        self.suppressed.as_deref().unwrap_or_default()
    }
}

/// The slice of a lint finding the report cares about.
#[derive(serde::Deserialize)]
struct LintFinding {
    rule: String,
    severity: String,
}

/// Renders the static-analysis section: a clean-or-violations badge and a
/// findings-by-rule table.
fn render_lint_section(path: &str, lint: &LintReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## Static analysis: `{path}`");
    let _ = writeln!(out);
    let badge = if lint.new_violations.is_empty() {
        "**clean** — no unsuppressed findings".to_string()
    } else {
        format!("**{} violation(s)**", lint.new_violations.len())
    };
    let _ = writeln!(
        out,
        "{badge} · {} file(s) scanned · {} suppressed",
        lint.files_scanned,
        lint.suppressed().len()
    );

    // rule -> (new, suppressed), worst severity seen.
    let mut by_rule: BTreeMap<&str, (usize, usize, &str)> = BTreeMap::new();
    let buckets: [(&[LintFinding], bool); 2] =
        [(&lint.new_violations, false), (lint.suppressed(), true)];
    for (findings, suppressed) in buckets {
        for finding in findings {
            let entry = by_rule.entry(&finding.rule).or_insert((0, 0, ""));
            if suppressed {
                entry.1 += 1;
            } else {
                entry.0 += 1;
            }
            if entry.2.is_empty() || finding.severity == "Error" {
                entry.2 = &finding.severity;
            }
        }
    }
    if !by_rule.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "| rule | severity | new | suppressed |");
        let _ = writeln!(out, "|---|---|---:|---:|");
        for (rule, (new, suppressed, severity)) in &by_rule {
            let _ = writeln!(
                out,
                "| `{rule}` | {} | {new} | {suppressed} |",
                severity.to_lowercase()
            );
        }
    }
    out
}

/// Per-method mean (accuracy, litho, seconds) over a journal's runs.
fn method_means(journal: &Journal) -> BTreeMap<String, (f64, f64, f64)> {
    let mut sums: BTreeMap<String, (f64, f64, f64, usize)> = BTreeMap::new();
    for run in journal.runs() {
        let method =
            method_for_selector(&run.selector).map_or_else(|| run.selector.clone(), str::to_string);
        let entry = sums.entry(method).or_insert((0.0, 0.0, 0.0, 0));
        entry.0 += run.accuracy;
        entry.1 += run.litho as f64;
        entry.2 += run.elapsed_ms as f64 / 1000.0;
        entry.3 += 1;
    }
    sums.into_iter()
        .map(|(method, (acc, litho, secs, n))| {
            let n = n as f64;
            (method, (acc / n, litho / n, secs / n))
        })
        .collect()
}

fn render_diff(path_a: &str, a: &Journal, path_b: &str, b: &Journal) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Journal diff: `{path_a}` vs `{path_b}`");
    let _ = writeln!(out);
    let means_a = method_means(a);
    let means_b = method_means(b);
    let methods: Vec<&String> = means_a.keys().chain(means_b.keys()).collect();
    let mut seen = Vec::new();
    let _ = writeln!(out, "| method | metric | a | b | delta |");
    let _ = writeln!(out, "|---|---|---:|---:|---:|");
    for method in methods {
        if seen.contains(&method) {
            continue;
        }
        seen.push(method);
        match (means_a.get(method), means_b.get(method)) {
            (Some(&(acc_a, litho_a, secs_a)), Some(&(acc_b, litho_b, secs_b))) => {
                let _ = writeln!(
                    out,
                    "| {method} | accuracy | {:.2}% | {:.2}% | {:+.2}pp |",
                    acc_a * 100.0,
                    acc_b * 100.0,
                    (acc_b - acc_a) * 100.0,
                );
                let _ = writeln!(
                    out,
                    "| {method} | litho | {litho_a:.1} | {litho_b:.1} | {:+.1} |",
                    litho_b - litho_a,
                );
                let _ = writeln!(
                    out,
                    "| {method} | wall_time | {secs_a:.2}s | {secs_b:.2}s | {:+.2}s |",
                    secs_b - secs_a,
                );
            }
            (Some(_), None) => {
                let _ = writeln!(out, "| {method} | - | present | missing | - |");
            }
            (None, Some(_)) => {
                let _ = writeln!(out, "| {method} | - | missing | present | - |");
            }
            (None, None) => {}
        }
    }

    // Span-latency deltas where both journals timed the same span.
    let spans_a = a.span_durations_us();
    let spans_b = b.span_durations_us();
    let shared: Vec<&String> = spans_a
        .keys()
        .filter(|k| spans_b.contains_key(*k))
        .collect();
    if !shared.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "## Span p95 deltas (ms)");
        let _ = writeln!(out);
        let _ = writeln!(out, "| span | a | b | delta |");
        let _ = writeln!(out, "|---|---:|---:|---:|");
        for span in shared {
            let (Some(pa), Some(pb)) = (
                percentile(&spans_a[span], 0.95),
                percentile(&spans_b[span], 0.95),
            ) else {
                continue;
            };
            let _ = writeln!(
                out,
                "| `{span}` | {:.3} | {:.3} | {:+.3} |",
                pa / 1000.0,
                pb / 1000.0,
                (pb - pa) / 1000.0,
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::{
        fmt_opt, render_kernel_counters, render_lint_section, render_shard_incidents, sparkline,
        BTreeMap, Journal, LintReport, SPARK,
    };

    #[test]
    fn lint_section_clean_badge() {
        let lint: LintReport = serde_json::from_str(
            r#"{"files_scanned": 173, "new_violations": [], "suppressed": []}"#,
        )
        .unwrap();
        let section = render_lint_section("lint.json", &lint);
        assert!(section.contains("**clean**"));
        assert!(section.contains("173 file(s) scanned"));
        assert!(!section.contains("| rule |"), "no table without findings");
    }

    #[test]
    fn lint_section_findings_by_rule_table() {
        let lint: LintReport = serde_json::from_str(
            r#"{
                "files_scanned": 3,
                "new_violations": [
                    {"rule": "lock-order", "severity": "Error"},
                    {"rule": "lock-order", "severity": "Error"},
                    {"rule": "detached-spawn", "severity": "Warning"}
                ],
                "suppressed": [{"rule": "lock-order", "severity": "Error"}]
            }"#,
        )
        .unwrap();
        let section = render_lint_section("lint.json", &lint);
        assert!(section.contains("**3 violation(s)**"));
        assert!(section.contains("| `lock-order` | error | 2 | 1 |"));
        assert!(section.contains("| `detached-spawn` | warning | 1 | 0 |"));
    }

    #[test]
    fn lint_report_tolerates_extra_fields() {
        // The linter's Finding carries path/line/message/excerpt too; the
        // report must not choke on them.
        let lint: LintReport = serde_json::from_str(
            r#"{
                "files_scanned": 1,
                "new_violations": [
                    {"rule": "x", "severity": "Error", "path": "a.rs", "line": 3,
                     "message": "m", "excerpt": "e", "suppression_reason": null}
                ]
            }"#,
        )
        .unwrap();
        assert_eq!(lint.new_violations.len(), 1);
        assert!(lint.suppressed().is_empty());
    }

    #[test]
    fn kernel_counters_render_per_kernel_rows() {
        let mut counters = BTreeMap::new();
        counters.insert("kernel.dct.calls".to_string(), 100u64);
        counters.insert("kernel.dct.elements".to_string(), 6400);
        counters.insert("kernel.dct.flops".to_string(), 2_000_000);
        counters.insert("kernel.dct.bytes".to_string(), 1_000_000);
        counters.insert("kernel.aerial.calls".to_string(), 4);
        counters.insert("litho.oracle.calls".to_string(), 9); // not a kernel
        let section = render_kernel_counters(&counters).unwrap();
        assert!(section.contains("| `dct` | 100 | 6400 | 2.00 | 1.00 | 2.00 |"));
        assert!(section.contains("| `aerial` | 4 |"));
        assert!(!section.contains("oracle"));
        assert!(render_kernel_counters(&BTreeMap::new()).is_none());
    }

    #[test]
    fn sparkline_spans_min_to_max() {
        let line = sparkline(&[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(line.chars().next(), Some(SPARK[0]));
        assert_eq!(line.chars().last(), Some(SPARK[SPARK.len() - 1]));
    }

    #[test]
    fn sparkline_constant_series_is_a_flat_mid_line() {
        let mid = SPARK[SPARK.len() / 2];
        assert_eq!(sparkline(&[5.0, 5.0, 5.0]), mid.to_string().repeat(3));
    }

    #[test]
    fn sparkline_non_finite_values_become_gaps() {
        assert_eq!(sparkline(&[f64::NAN, f64::INFINITY]), "??");
        let line = sparkline(&[0.0, f64::NAN, 1.0]);
        assert_eq!(line.chars().nth(1), Some('?'));
        assert_eq!(line.chars().count(), 3);
    }

    #[test]
    fn sparkline_empty_is_empty() {
        assert_eq!(sparkline(&[]), "");
    }

    #[test]
    fn shard_incidents_render_per_shard_not_aggregated() {
        let text = concat!(
            r#"{"type":"event","target":"shard.coordinator","message":"shard worker lost","batch":2,"shard":1,"dead":true,"salvaged":3,"orphaned":2}"#,
            "\n",
            r#"{"type":"event","target":"shard.coordinator","message":"shard worker lost","batch":4,"shard":2,"dead":false,"salvaged":0,"orphaned":6}"#,
            "\n",
        );
        let section = render_shard_incidents(&Journal::parse_str(text)).unwrap();
        assert!(section.contains("2 workers lost"));
        assert!(section.contains("| 1 | 1 | 0 | 3 | 2 |"));
        assert!(section.contains("| 2 | 0 | 1 | 0 | 6 |"));
        assert!(render_shard_incidents(&Journal::parse_str("")).is_none());
    }

    #[test]
    fn fmt_opt_absorbs_missing_and_non_finite() {
        assert_eq!(fmt_opt(None, 1.0), "-");
        assert_eq!(fmt_opt(Some(f64::NAN), 1.0), "-");
        assert_eq!(fmt_opt(Some(f64::INFINITY), 1.0), "-");
        assert_eq!(fmt_opt(Some(0.25), 100.0), "25.000");
    }
}
