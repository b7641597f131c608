//! The workspace must stay lint-clean: `cargo test` runs the same check as
//! the CI `lint` job — every `lithohd-lint` finding is either fixed or
//! suppressed inline with a reason. Violations fail this test with the
//! exact file:line output `lithohd-lint check` would print.

use hotspot_lint::workspace::{discover, find_root};
use hotspot_lint::{check_on_disk, NameRegistry};
use std::path::Path;

#[test]
fn workspace_has_no_unsuppressed_findings() {
    let root = find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    let registry_path = root.join("crates/telemetry/src/names.rs");
    let registry_source =
        std::fs::read_to_string(&registry_path).expect("telemetry name registry exists");
    let registry = NameRegistry::parse("crates/telemetry/src/names.rs", &registry_source);

    let files = discover(&root).expect("workspace discovery");
    assert!(
        files.len() > 100,
        "suspiciously few files discovered: {}",
        files.len()
    );
    let report =
        check_on_disk(&root, &files, Some(&registry), false).expect("workspace scan succeeds");

    let findings = &report.findings;
    assert!(
        findings.is_empty(),
        "{} lint violation(s); fix or suppress with a reason:\n{}",
        findings.len(),
        findings
            .iter()
            .map(|f| format!(
                "  {}:{}: [{}] {}: {}",
                f.path,
                f.line,
                f.severity.label(),
                f.rule,
                f.message
            ))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn every_inline_suppression_carries_a_reason() {
    let root = find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    let files = discover(&root).expect("workspace discovery");
    let report = check_on_disk(&root, &files, None, false).expect("workspace scan succeeds");
    for finding in &report.suppressed {
        let reason = finding.suppression_reason.as_deref().unwrap_or("");
        assert!(
            reason.len() >= 10,
            "suppression at {}:{} has no substantive reason",
            finding.path,
            finding.line
        );
    }
}
