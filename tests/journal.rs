//! Integration test for the telemetry run journal: a framework run with a
//! [`JsonlSink`] attached must journal exactly one iteration record per
//! [`RunOutcome::history`] entry, and the final metrics snapshot's
//! `litho.oracle.calls` counter must equal the reported litho-clip count
//! (Eq. 2: unique simulations plus false-alarm verification runs).
//!
//! Journal lines are decoded with the shared [`hotspot_bench::journal`]
//! parser — the same code path `lithohd-report` uses — so the test also
//! pins the parser to the framework's journal schema.
//!
//! This lives in its own test binary so the process-wide metrics registry is
//! not shared with unrelated framework runs.

use hotspot_bench::journal::Journal;
use hotspot_telemetry as telemetry;
use lithohd::active::{EntropySelector, SamplingConfig, SamplingFramework};
use lithohd::layout::{BenchmarkSpec, GeneratedBenchmark, Tech};
use std::sync::Arc;

#[test]
fn journal_records_every_iteration_and_the_litho_count() {
    let path = std::env::temp_dir().join(format!(
        "lithohd-journal-integration-{}.jsonl",
        std::process::id()
    ));
    let sink = telemetry::JsonlSink::create(&path, false).expect("journal opens");
    telemetry::add_sink(Arc::new(sink));

    let spec = BenchmarkSpec {
        name: "journal".to_owned(),
        tech: Tech::Euv7,
        hotspots: 24,
        non_hotspots: 226,
        dup_rate: 0.2,
        near_miss_rate: 0.3,
    };
    let bench = GeneratedBenchmark::generate(&spec, 11).expect("generation succeeds");
    let mut config = SamplingConfig::for_benchmark(bench.len());
    config.iterations = 4;
    config.initial_epochs = 40;
    config.update_epochs = 15;
    let framework = SamplingFramework::new(config);
    let outcome = framework
        .run(&bench, &mut EntropySelector::new(), 3)
        .expect("run succeeds");

    telemetry::publish_snapshot();
    telemetry::flush();
    telemetry::clear_sinks();

    let journal = Journal::read(&path).expect("journal readable");
    std::fs::remove_file(&path).ok();

    assert!(!journal.records.is_empty(), "journal must not be empty");
    assert_eq!(
        journal.skipped_lines, 0,
        "a cleanly closed journal has no unreadable lines"
    );

    // One "iteration complete" event per history entry, tagged with this
    // run's id and carrying the paper's per-iteration quantities.
    let iterations: Vec<_> = journal
        .iterations()
        .into_iter()
        .filter(|record| record.run_id == outcome.run_id)
        .collect();
    assert_eq!(
        iterations.len(),
        outcome.history.len(),
        "one journal record per Algorithm-2 iteration"
    );
    for (record, stat) in iterations.iter().zip(&outcome.history) {
        assert_eq!(record.iteration, stat.iteration as u64);
        assert_eq!(record.temperature, stat.temperature);
        assert_eq!(record.labeled_size, stat.labeled_size as u64);
    }

    // The typed run record mirrors the outcome's headline metrics.
    let run = journal
        .runs()
        .into_iter()
        .find(|run| run.run_id == outcome.run_id)
        .expect("journal has the run's completion event");
    assert_eq!(run.accuracy, outcome.metrics.accuracy);
    assert_eq!(run.litho, outcome.metrics.litho as u64);

    // The final snapshot's oracle counter equals the reported Litho#. This
    // binary runs exactly one framework run, so the process-wide counter is
    // entirely attributable to it.
    let snapshot = journal
        .final_snapshot()
        .expect("journal ends with a metrics snapshot");
    assert_eq!(
        snapshot.counters.get("litho.oracle.calls").copied(),
        Some(outcome.metrics.litho as u64),
        "journal litho.oracle.calls must equal the reported litho-clip count"
    );

    // The oracle's latency histogram saw every billable simulation and
    // carries quantile estimates for the exporter.
    let latency = snapshot
        .histograms
        .get("litho.oracle.seconds")
        .expect("snapshot carries the oracle latency histogram");
    assert!(latency.count >= outcome.oracle_stats.unique as u64);
    assert!(latency.p99.is_some());
}
