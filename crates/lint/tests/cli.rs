//! End-to-end tests of the `lithohd-lint` binary: the known-bad fixtures
//! must fail loudly (exit 2, expected rules named), usage/config errors
//! must exit 1, and `explain`/`rules` must describe the catalog.

use std::path::Path;
use std::process::{Command, Output};

/// Exit code for "scan completed and found violations".
const EXIT_FINDINGS: i32 = 2;
/// Exit code for "usage, I/O, or configuration error".
const EXIT_ERROR: i32 = 1;

fn lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lithohd-lint"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawn lithohd-lint")
}

#[test]
fn known_bad_fixture_fails_with_the_expected_rules() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/bad.rs");
    let out = lint(&["check", fixture.to_str().expect("utf-8 path")]);
    assert_eq!(
        out.status.code(),
        Some(EXIT_FINDINGS),
        "stdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for rule in [
        "determinism-rng",
        "determinism-clock",
        "float-eq",
        "panic-safety",
        "hash-order",
        "suppression-reason",
    ] {
        assert!(stdout.contains(rule), "missing {rule} in:\n{stdout}");
    }
}

#[test]
fn concurrency_fixture_fails_with_every_v2_rule() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/concurrency.rs");
    let out = lint(&["check", fixture.to_str().expect("utf-8 path")]);
    assert_eq!(
        out.status.code(),
        Some(EXIT_FINDINGS),
        "stdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for rule in [
        "lock-order",
        "detached-spawn",
        "unordered-merge",
        "canonical-purity",
    ] {
        assert!(stdout.contains(rule), "missing {rule} in:\n{stdout}");
    }
    assert!(
        stdout.contains("accounts → audit → accounts")
            || stdout.contains("audit → accounts → audit"),
        "cycle path missing in:\n{stdout}"
    );
}

#[test]
fn usage_and_config_errors_exit_1_not_2() {
    // No subcommand: usage error.
    let out = lint(&[]);
    assert_eq!(out.status.code(), Some(EXIT_ERROR));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("exit codes"), "{stderr}");
    assert!(
        stderr.contains("2  scan completed and found violations"),
        "{stderr}"
    );

    // Unknown flag: usage error.
    let out = lint(&["check", "--no-such-flag"]);
    assert_eq!(out.status.code(), Some(EXIT_ERROR));

    // The retired `--baseline` flag: a usage error, so stale invocations
    // fail loudly instead of scanning without it.
    let out = lint(&["check", "--baseline", "x"]);
    assert_eq!(
        out.status.code(),
        Some(EXIT_ERROR),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Unreadable explicit path: I/O error.
    let out = lint(&["check", "no/such/file.rs"]);
    assert_eq!(out.status.code(), Some(EXIT_ERROR));
}

#[test]
fn baseline_subcommand_is_gone() {
    let out = lint(&["baseline"]);
    assert_eq!(out.status.code(), Some(EXIT_ERROR));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage"), "{stderr}");
}

#[test]
fn json_output_is_machine_readable() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/bad.rs");
    let out = lint(&["check", "--json", fixture.to_str().expect("utf-8 path")]);
    assert_eq!(out.status.code(), Some(EXIT_FINDINGS));
    let report: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON report");
    let new = report
        .get("new_violations")
        .and_then(|v| v.as_array())
        .expect("new_violations array");
    assert!(
        new.len() >= 6,
        "expected >= 6 violations, got {}",
        new.len()
    );
    assert_eq!(
        report.get("files_scanned").and_then(|v| v.as_u64()),
        Some(1)
    );
}

#[test]
fn explain_describes_each_rule() {
    for rule in [
        "determinism-rng",
        "telemetry-names",
        "forbid-unsafe",
        "lock-order",
        "canonical-purity",
    ] {
        let out = lint(&["explain", rule]);
        assert!(out.status.success());
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(rule), "{stdout}");
        assert!(stdout.len() > 80, "explanation too short:\n{stdout}");
    }
    let unknown = lint(&["explain", "no-such-rule"]);
    assert_eq!(unknown.status.code(), Some(EXIT_ERROR));
}

#[test]
fn rules_lists_the_catalog() {
    let out = lint(&["rules"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for rule in [
        "determinism-rng",
        "determinism-clock",
        "hash-order",
        "panic-safety",
        "float-eq",
        "telemetry-names",
        "forbid-unsafe",
        "lock-order",
        "detached-spawn",
        "unordered-merge",
        "canonical-purity",
    ] {
        assert!(stdout.contains(rule), "missing {rule} in:\n{stdout}");
    }
}
