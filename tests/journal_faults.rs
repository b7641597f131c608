//! Integration test for the run journal under an injected-fault oracle: a
//! degraded run must journal its retry/giveup meters and `degraded` flag,
//! and the billable-call counter must account for every retry and quorum
//! vote — `litho.oracle.calls` equals the oracle's unique-simulation meter
//! plus the billed false alarms, exactly as in a fault-free run.
//!
//! Acceptance demo for the fault-tolerance layer: a seeded 20% transient +
//! 2% label-flip oracle behind retry/backoff and 3-vote quorum completes
//! without panicking, bit-identically for a fixed seed, and lands within
//! two accuracy points of the fault-free run at the same scale.
//!
//! Journal lines are decoded with the shared [`hotspot_bench::journal`]
//! parser — the same code path `lithohd-report` uses.
//!
//! This lives in its own test binary so the process-wide metrics registry is
//! not shared with unrelated framework runs.

use hotspot_bench::journal::Journal;
use hotspot_telemetry as telemetry;
use lithohd::active::{EntropySelector, RunOutcome, SamplingConfig, SamplingFramework};
use lithohd::layout::{BenchmarkSpec, GeneratedBenchmark, Tech};
use lithohd::litho::{FaultRates, FaultyOracle, RetryOracle, RetryPolicy, VirtualClock};
use std::sync::Arc;

fn bench_and_framework() -> (GeneratedBenchmark, SamplingFramework) {
    let spec = BenchmarkSpec {
        name: "journal-faults".to_owned(),
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
    (bench, framework)
}

fn faulty_run(bench: &GeneratedBenchmark, framework: &SamplingFramework, seed: u64) -> RunOutcome {
    let rates = FaultRates {
        transient: 0.2,
        flip: 0.02,
        ..FaultRates::default()
    };
    let flaky = FaultyOracle::new(bench.oracle(), rates, 99);
    let mut oracle =
        RetryOracle::with_clock(flaky, RetryPolicy::default(), VirtualClock::new()).with_quorum(3);
    framework
        .run_with_oracle(bench, &mut EntropySelector::new(), seed, &mut oracle)
        .expect("degraded run completes")
}

#[test]
fn faulty_run_journals_fault_meters_and_exact_billing() {
    let path = std::env::temp_dir().join(format!(
        "lithohd-journal-faults-{}.jsonl",
        std::process::id()
    ));
    let sink = telemetry::JsonlSink::create(&path, false).expect("journal opens");
    telemetry::add_sink(Arc::new(sink));

    let (bench, framework) = bench_and_framework();

    // Fault-free reference first (its calls land in the same process-wide
    // counter; the per-run delta accounting below must still be exact).
    let clean = framework
        .run(&bench, &mut EntropySelector::new(), 3)
        .expect("fault-free run succeeds");

    let outcome = faulty_run(&bench, &framework, 3);
    let again = faulty_run(&bench, &framework, 3);

    telemetry::publish_snapshot();
    telemetry::flush();
    telemetry::clear_sinks();

    let journal = Journal::read(&path).expect("journal readable");
    std::fs::remove_file(&path).ok();

    // Determinism: the same seed reproduces the same degraded run.
    assert_eq!(
        outcome.metrics, again.metrics,
        "faulty run must be bit-identical"
    );
    assert_eq!(outcome.sampled_indices, again.sampled_indices);
    assert_eq!(outcome.fault_stats, again.fault_stats);

    // Resilience: within two accuracy points of the fault-free run.
    assert!(
        (clean.metrics.accuracy - outcome.metrics.accuracy).abs() <= 0.02 + 1e-12,
        "fault-free acc {} vs faulty acc {}",
        clean.metrics.accuracy,
        outcome.metrics.accuracy
    );

    // The retry layer absorbed faults and the quorum voted.
    assert!(outcome.fault_stats.oracle_retries > 0);
    assert!(outcome.fault_stats.quorum_votes > 0);
    assert!(outcome.metrics.extra_simulations > 0);

    // Eq. 2 accounting: the oracle's unique-simulation meter covers the
    // labelled sets plus every billable quorum vote.
    assert_eq!(
        outcome.oracle_stats.unique,
        outcome.metrics.train_size
            + outcome.metrics.validation_size
            + outcome.metrics.extra_simulations
    );
    assert_eq!(
        outcome.metrics.litho,
        outcome.oracle_stats.unique + outcome.metrics.false_alarms
    );

    // The "run complete" event journals the fault meters and degraded flag.
    let run = journal
        .runs()
        .into_iter()
        .find(|run| run.run_id == outcome.run_id)
        .expect("journal has the faulty run's completion event");
    assert_eq!(
        run.oracle_retries,
        outcome.fault_stats.oracle_retries as u64
    );
    assert_eq!(
        run.oracle_giveups,
        outcome.fault_stats.oracle_giveups as u64
    );
    assert_eq!(run.quorum_votes, outcome.fault_stats.quorum_votes as u64);
    assert_eq!(run.degraded, outcome.degraded);

    // The snapshot's counters carry the fault-layer meters, and the billable
    // counter accounts for every run in this process exactly: each run's
    // unique simulations plus its billed false alarms.
    let snapshot = journal
        .final_snapshot()
        .expect("journal ends with a metrics snapshot");
    let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
    let expected_calls: u64 = [&clean, &outcome, &again]
        .iter()
        .map(|o| (o.oracle_stats.unique + o.metrics.false_alarms) as u64)
        .sum();
    assert_eq!(
        counter("litho.oracle.calls"),
        expected_calls,
        "billable-call counter must account for every retry and quorum vote"
    );
    assert_eq!(
        counter("litho.oracle.retries"),
        (outcome.fault_stats.oracle_retries + again.fault_stats.oracle_retries) as u64
    );
    assert!(counter("litho.oracle.quorum_votes") > 0);
    assert!(counter("litho.oracle.faults_injected") > 0);
}
