//! `lithobench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! lithobench --workload <campaign|score|session> --seed <n> --seconds <s>
//!            --trace <0|1> --serve-bin <path> --work-dir <dir>
//! ```
//!
//! Three workloads, each stressing different layers (see `BENCHMARK.json`
//! for why each exists):
//!
//! - `campaign` runs generation and the four samplers in process;
//! - `score` drives `POST /score` on a spawned `lithohd-serve`;
//! - `session` runs labelling sessions on the same server while a second
//!   connection keeps scoring.
//!
//! With `--trace 0` every workload reports the same end-to-end metrics,
//! each read on that workload's own operation:
//!
//! - `op_ms`: median latency of the operation. For `campaign` that is one
//!   campaign, generation included. For `score` it is one `/score` at
//!   20 req/s, timed from when it was due. For `session` it is one round:
//!   an Ours and a Random session stepped to `done`.
//! - `setup_s`: median set-up time. For `campaign` that is one benchmark
//!   generation; for `score` and `session`, server spawn until `/readyz`
//!   reports ready, scorer bootstrap included.
//! - `accuracy`: for `campaign`, Ours detection accuracy (Eq. 1); for
//!   `session`, the sessions' detection accuracy; for `score`, the share of
//!   served clips whose hotspot probability is at least ½ exactly when the
//!   clip is a lithography hotspot. Means over the run.
//! - `peak_rss_mb`: `VmHWM` of the benchmark process for `campaign` and of
//!   the server for `score` and `session`.
//! - `ok_rate`: 1 − failed ÷ attempted operations.
//!
//! With `--trace 1` the run reports every per-layer metric, whichever
//! workload it names: it probes the campaign, score and session layers in
//! turn, the named workload's for the full run length and the others for a
//! third of it. The layers are measured from outside the program: timed
//! calls into public functions, timing decorators on the `LithoOracle` and
//! `BatchSelector` traits, and before/after scrapes of the server's
//! `/metrics`. Every output is checked; a failed check counts as a failed
//! operation and makes the process exit with status 1. The last stdout
//! line is the JSON result.

#![forbid(unsafe_code)]

mod campaign;
mod score;
mod server;
mod session;
mod stats;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// Everything a workload needs from the command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: PathBuf,
    pub work_dir: PathBuf,
}

/// One run's outcome: operation counts, failed output checks and metrics.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Descriptions of failed output checks; each also counts in `failed`.
    pub check_failures: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable lines printed before the metrics.
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.check_failures.len() < 20 {
                self.check_failures.push(what());
            }
        }
    }

    /// `1 − failed / attempted`: the error rate turned into a share of
    /// successes, so that a healthy run reports a value other than zero.
    pub fn ok_rate(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut serve_bin = None;
    let mut work_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value for {flag}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        serve_bin: serve_bin.ok_or("--serve-bin is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("lithobench: {message}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        _ if !WORKLOADS.contains(&args.workload.as_str()) => Err(format!(
            "unknown workload {:?}; expected campaign, score or session",
            args.workload
        )),
        _ if args.trace => layers(&args),
        "campaign" => campaign::run(&args),
        "score" => score::run(&args),
        _ => session::run(&args),
    };
    let report = match outcome {
        Ok(report) => report,
        Err(message) => {
            eprintln!("lithobench: {} failed: {message}", args.workload);
            return ExitCode::from(1);
        }
    };
    println!("machine: {}", machine_stamp(&args));
    for note in &report.notes {
        println!("{note}");
    }
    for failure in &report.check_failures {
        println!("CHECK FAILED: {failure}");
    }
    let mut finite = true;
    for (name, value, unit) in &report.metrics {
        println!("{name:<28} {value:>14.6} {unit}");
        if !value.is_finite() {
            println!("CHECK FAILED: metric {name} was not measured");
            finite = false;
        }
    }
    let correct = finite && report.check_failures.is_empty() && report.failed == 0;
    println!("{}", result_json(&report, correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

const WORKLOADS: [&str; 3] = ["campaign", "score", "session"];

/// The traced run: every layer probe, the named workload's for the whole
/// run length and the others for a third of it.
fn layers(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let brief = Args {
        seconds: args.seconds / 3.0,
        ..args.clone()
    };
    let length = |workload: &str| {
        if args.workload == workload {
            args
        } else {
            &brief
        }
    };
    campaign::traced(length("campaign"), &mut report)?;
    score::traced(length("score"), &mut report)?;
    session::traced(length("session"), &mut report)?;
    Ok(report)
}

fn result_json(report: &Report, correct: bool) -> String {
    let mut metrics = String::new();
    for (i, (name, value, unit)) in report.metrics.iter().enumerate() {
        if i > 0 {
            metrics.push_str(", ");
        }
        // JSON has no NaN; an unmeasured value has already failed the run.
        let value = if value.is_finite() { *value } else { -1.0 };
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.attempted.max(1),
        report.failed
    )
}

/// Where and how the numbers were made: `nproc`, CPU model, kernel,
/// compiler, commit, seed and run length, as one JSON object.
fn machine_stamp(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    let rustc = command_line("rustc", &["-V"]);
    let commit = command_line("git", &["rev-parse", "HEAD"]);
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"kernel\": {}, \"rustc\": {}, \"commit\": {}, \
         \"workload\": {}, \"seed\": {}, \"seconds\": {:?}, \"trace\": {}}}",
        json_string(&cpu),
        json_string(&kernel),
        json_string(&rustc),
        json_string(&commit),
        json_string(&args.workload),
        args.seed,
        args.seconds,
        args.trace
    )
}

/// First stdout line of a command, or `"unknown"` (e.g. outside a git
/// checkout).
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_string(text: &str) -> String {
    serde_json::to_string(text).unwrap_or_else(|_| "\"?\"".to_string())
}

/// SplitMix64 finaliser: derives well-separated seeds from a run's seed.
pub fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Peak resident set (`VmHWM`) of a process, in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
