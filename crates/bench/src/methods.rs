use hotspot_active::{
    BatchSelector, CheckpointHook, EntropySelector, NoCheckpoint, RandomSelector, SamplingConfig,
    SamplingFramework, UncertaintySelector,
};
use hotspot_baselines::{PatternMatcher, QpSelector};
use hotspot_layout::GeneratedBenchmark;
use hotspot_litho::{
    FaultRates, FaultyOracle, LithoOracle, RetryOracle, RetryPolicy, VirtualClock,
};
use hotspot_shard::{KillSpec, ShardConfig, ShardedOracle};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::time::Duration;

use crate::checkpoint::{CheckpointedSequence, RunRecord};
use crate::cli::ExperimentArgs;

/// How a sharded run fans its labelling batches out — built from
/// `--workers` / `--kill-shard` / `--checkpoint-dir` by
/// [`ShardSpec::from_args`] and carried by [`RunPlan::shard`]. The
/// merged labels, Litho#, and canonical journal are byte-identical for
/// every worker count and for any chaos the recovery path absorbed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// Oracle worker threads per labelling batch.
    pub workers: usize,
    /// Optional chaos injection (applies to every run of the binary — each
    /// run builds a fresh sharded oracle, so the spec fires once per run).
    pub kill: Option<KillSpec>,
    /// Per-shard checkpoint-commit directory; lost workers are salvaged
    /// from it. `None` recovers by recomputation instead.
    pub dir: Option<PathBuf>,
}

impl ShardSpec {
    /// Builds the spec from `--workers` (returns `None` without it),
    /// `--kill-shard`, and — when `--checkpoint-dir` is given — a `shards/`
    /// commit subdirectory next to the run checkpoints.
    pub fn from_args(args: &ExperimentArgs) -> Option<Self> {
        Some(ShardSpec {
            workers: args.workers?,
            kill: args.kill_spec(),
            dir: args.checkpoint_dir.as_ref().map(|d| d.join("shards")),
        })
    }

    fn config(&self, seed: u64) -> ShardConfig {
        let mut config = ShardConfig::new(self.workers).with_stream_seed(seed ^ 0x5a4d_0001);
        if let Some(kill) = self.kill {
            config = config.with_kill(kill);
        }
        if let Some(dir) = &self.dir {
            config = config.with_dir(dir);
        }
        config
    }
}

/// The learning-based sampling methods of Table II (and Fig. 4 / Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ActiveMethod {
    /// The paper's entropy-based sampler.
    Ours,
    /// Calibrated uncertainty only ("TS").
    Ts,
    /// The QP batch selector of \[14\].
    Qp,
    /// Uniform random batches.
    Random,
}

impl ActiveMethod {
    /// Table column label.
    pub fn label(self) -> &'static str {
        match self {
            ActiveMethod::Ours => "Ours",
            ActiveMethod::Ts => "TS",
            ActiveMethod::Qp => "QP",
            ActiveMethod::Random => "Random",
        }
    }

    /// Builds the corresponding batch selector.
    pub fn selector(self) -> Box<dyn BatchSelector> {
        match self {
            ActiveMethod::Ours => Box::new(EntropySelector::new()),
            ActiveMethod::Ts => Box::new(UncertaintySelector::new()),
            ActiveMethod::Qp => Box::new(QpSelector::new()),
            ActiveMethod::Random => Box::new(RandomSelector::new()),
        }
    }
}

/// One (method, benchmark) result cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MethodResult {
    /// Method label.
    pub method: String,
    /// Benchmark name.
    pub benchmark: String,
    /// Detection accuracy in `[0, 1]`.
    pub accuracy: f64,
    /// Litho-clip overhead.
    pub litho: usize,
    /// Measured PSHD computation time.
    #[serde(with = "duration_secs")]
    pub elapsed: Duration,
    /// Oracle worker threads the labelling batches were sharded across
    /// (`--workers`); `None` is the single-threaded legacy path. Accuracy
    /// and Litho# are worker-count-invariant, so sharded rows exist purely
    /// to let `lithohd-report gate` track shard-scaling wall-clock.
    /// Baselines written before this field existed parse as `None`.
    pub workers: Option<usize>,
}

mod duration_secs {
    use serde::{Deserialize, Deserializer, Serialize, Serializer};
    use std::time::Duration;

    pub fn serialize<S: Serializer>(d: &Duration, s: S) -> Result<S::Ok, S::Error> {
        d.as_secs_f64().serialize(s)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Duration, D::Error> {
        Ok(Duration::from_secs_f64(f64::deserialize(d)?))
    }
}

/// One harness run, fully described: which sampler, the seed of the first
/// repeat, how many repeats (repeat `i` runs with `seed + i`), and the
/// optional oracle layers. Every table and figure binary builds one and
/// hands it to [`run`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunPlan {
    /// The batch sampler under test.
    pub method: ActiveMethod,
    /// Seed of the first repeat.
    pub seed: u64,
    /// Number of repeats with consecutive seeds; must be positive.
    pub repeats: usize,
    /// Fault injection behind the retry/backoff layer (virtual clock — no
    /// wall-clock sleeps): the injected rates and the quorum votes per
    /// label (`1` = no quorum). `None` queries the bare metered oracle.
    pub faults: Option<(FaultRates, usize)>,
    /// Shard every labelling batch across oracle worker threads. The merged
    /// labels, Litho# and canonical journal equal the unsharded run's.
    pub shard: Option<ShardSpec>,
}

/// Executes every repeat of `plan` and returns one record per repeat, in
/// repeat order. With a `seq`, each repeat is one durable run of the
/// checkpointed sequence (replayed from the record on resume); without,
/// runs are not checkpointed.
///
/// # Panics
///
/// Panics when `plan.repeats == 0`, the fault rates are invalid, or the
/// framework rejects the configuration or a checkpoint (the harness passes
/// validated ones).
pub fn run(
    bench: &GeneratedBenchmark,
    config: &SamplingConfig,
    plan: &RunPlan,
    mut seq: Option<&mut CheckpointedSequence>,
) -> Vec<RunRecord> {
    assert!(plan.repeats > 0, "repeats must be positive");
    (0..plan.repeats as u64)
        .map(|repeat| {
            let seed = plan.seed + repeat;
            match seq.as_deref_mut() {
                Some(seq) => seq.next_run(|hook| run_once(bench, config, plan, seed, hook)),
                None => run_once(bench, config, plan, seed, &mut NoCheckpoint),
            }
        })
        .collect()
}

fn run_once(
    bench: &GeneratedBenchmark,
    config: &SamplingConfig,
    plan: &RunPlan,
    seed: u64,
    hook: &mut dyn CheckpointHook,
) -> RunRecord {
    match plan.faults {
        // The fault-free stack stays the bare metered oracle: a zero-rate
        // retry layer would add events to the journal.
        None => run_stack(bench, config, plan, seed, hook, |_jitter_seed| {
            bench.oracle()
        }),
        Some((rates, quorum)) => run_stack(bench, config, plan, seed, hook, move |jitter_seed| {
            let flaky = FaultyOracle::new(bench.oracle(), rates, seed ^ 0xfa17_fa17);
            let policy = RetryPolicy {
                seed: jitter_seed,
                ..RetryPolicy::default()
            };
            let mut oracle = RetryOracle::with_clock(flaky, policy, VirtualClock::new());
            if quorum > 1 {
                oracle = oracle.with_quorum(quorum);
            }
            oracle
        }),
    }
}

/// Runs one repeat over the oracle `stack` builds. The master copy takes
/// the default retry-jitter seed; sharded workers each rebuild the stack
/// with a jitter seed from the coordinator's split streams and restore it
/// from the master's snapshot. Jitter shapes backoff sleeps only, so the
/// merged run equals the unsharded one label for label and bill for bill.
fn run_stack<O: LithoOracle + Send + 'static>(
    bench: &GeneratedBenchmark,
    config: &SamplingConfig,
    plan: &RunPlan,
    seed: u64,
    hook: &mut dyn CheckpointHook,
    stack: impl Fn(u64) -> O,
) -> RunRecord {
    let framework = SamplingFramework::new(config.clone());
    let mut selector = plan.method.selector();
    let mut master = stack(RetryPolicy::default().seed);
    let mut sharded;
    let oracle: &mut dyn LithoOracle = match &plan.shard {
        Some(spec) => {
            sharded = ShardedOracle::new(
                master,
                |_shard, jitter_seed| stack(jitter_seed),
                spec.config(seed),
            );
            &mut sharded
        }
        None => &mut master,
    };
    let outcome =
        framework.run_with_oracle_checkpointed(bench, selector.as_mut(), seed, oracle, hook);
    // lithohd-lint: allow(panic-safety) — documented: the harness passes validated configurations
    RunRecord::from(&outcome.expect("framework run succeeds"))
}

/// The [`MethodResult`] row of `plan`'s records: the mean accuracy, Litho#
/// (rounded) and time over the repeats — CNN-style detectors are
/// initialisation-sensitive, so the paper's tables are read as averages.
pub fn method_result(
    plan: &RunPlan,
    bench: &GeneratedBenchmark,
    records: &[RunRecord],
) -> MethodResult {
    let n = records.len() as f64;
    let mean = |field: fn(&RunRecord) -> f64| records.iter().map(field).sum::<f64>() / n;
    MethodResult {
        method: plan.method.label().to_owned(),
        benchmark: bench.spec().name.clone(),
        accuracy: mean(|r| r.accuracy),
        litho: mean(|r| r.litho as f64).round() as usize,
        elapsed: Duration::from_secs_f64(mean(|r| r.secs)),
        workers: plan.shard.as_ref().map(|spec| spec.workers),
    }
}

/// One cell of the `faults` robustness sweep: a method run against a
/// seeded fault-injecting oracle behind the retry/quorum layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultyMethodResult {
    /// Method label.
    pub method: String,
    /// Benchmark name.
    pub benchmark: String,
    /// Injected transient-failure rate.
    pub transient: f64,
    /// Injected silent label-flip rate.
    pub flip: f64,
    /// Quorum votes per label (1 = no quorum).
    pub quorum: usize,
    /// Detection accuracy in `[0, 1]`.
    pub accuracy: f64,
    /// Litho-clip overhead (Eq. 2, quorum re-simulations included).
    pub litho: usize,
    /// Billable re-simulations beyond the labelled sets.
    pub extra_simulations: usize,
    /// Oracle retries absorbed by the backoff policy.
    pub retries: usize,
    /// Queries abandoned after exhausting the retry budget.
    pub giveups: usize,
    /// Labels that never arrived (clips returned to the pool).
    pub label_failures: usize,
    /// Whether the run degraded (see `RunFaultStats::is_degraded`).
    pub degraded: bool,
}

/// The [`FaultyMethodResult`] cell of one of `plan`'s records; a fault-free
/// plan reads as zero rates without quorum.
pub fn faulty_method_result(
    plan: &RunPlan,
    bench: &GeneratedBenchmark,
    record: &RunRecord,
) -> FaultyMethodResult {
    let (rates, quorum) = plan.faults.unwrap_or((FaultRates::default(), 1));
    FaultyMethodResult {
        method: plan.method.label().to_owned(),
        benchmark: bench.spec().name.clone(),
        transient: rates.transient,
        flip: rates.flip,
        quorum: quorum.max(1),
        accuracy: record.accuracy,
        litho: record.litho as usize,
        extra_simulations: record.extra_simulations as usize,
        retries: record.retries as usize,
        giveups: record.giveups as usize,
        label_failures: record.label_failures as usize,
        degraded: record.degraded,
    }
}

/// Runs a pattern-matching method on a benchmark.
pub fn run_pattern_method(matcher: PatternMatcher, bench: &GeneratedBenchmark) -> MethodResult {
    // lithohd-lint: allow(determinism-clock) — method wall time is a reported measurement, not control flow
    let start = std::time::Instant::now();
    let outcome = matcher.run(bench);
    MethodResult {
        method: outcome.name,
        benchmark: bench.spec().name.clone(),
        accuracy: outcome.accuracy,
        litho: outcome.litho,
        elapsed: start.elapsed(),
        workers: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotspot_layout::{BenchmarkSpec, Tech};

    fn bench() -> GeneratedBenchmark {
        let spec = BenchmarkSpec {
            name: "harness".to_owned(),
            tech: Tech::Euv7,
            hotspots: 15,
            non_hotspots: 135,
            dup_rate: 0.2,
            near_miss_rate: 0.3,
        };
        GeneratedBenchmark::generate(&spec, 4).unwrap()
    }

    fn config(b: &GeneratedBenchmark) -> SamplingConfig {
        let mut config = SamplingConfig::for_benchmark(b.len());
        config.iterations = 2;
        config.initial_epochs = 20;
        config.update_epochs = 5;
        config
    }

    fn plan(faults: Option<(FaultRates, usize)>, shard: Option<ShardSpec>) -> RunPlan {
        RunPlan {
            method: ActiveMethod::Ours,
            seed: 1,
            repeats: 1,
            faults,
            shard,
        }
    }

    fn flaky() -> FaultRates {
        FaultRates {
            transient: 0.2,
            flip: 0.02,
            ..FaultRates::default()
        }
    }

    #[test]
    fn all_active_methods_run() {
        let b = bench();
        let config = config(&b);
        for method in [
            ActiveMethod::Ours,
            ActiveMethod::Ts,
            ActiveMethod::Qp,
            ActiveMethod::Random,
        ] {
            let plan = RunPlan {
                method,
                ..plan(None, None)
            };
            let result = method_result(&plan, &b, &run(&b, &config, &plan, None));
            assert_eq!(result.method, method.label());
            assert!(result.accuracy > 0.0);
            assert!(result.litho > 0);
        }
    }

    #[test]
    fn faulty_method_runs_and_accounts() {
        let b = bench();
        let config = config(&b);
        let plan = plan(Some((flaky(), 3)), None);
        let cell = || faulty_method_result(&plan, &b, &run(&b, &config, &plan, None)[0]);
        let r = cell();
        assert!(r.litho > 0);
        assert_eq!(r.quorum, 3);
        assert!(r.retries > 0, "20% transient should force retries");
        assert!(r.extra_simulations > 0, "quorum votes should bill");
        // The same seed reproduces the same degraded run bit-for-bit.
        assert_eq!(r, cell());
    }

    /// Every plan axis in one table: {no faults, flaky oracle with quorum}
    /// × {unsharded, 1 worker, 3 workers, 3 workers with a killed shard} ×
    /// {no sequence, checkpointed}. The plans come from the binaries' own
    /// flags, and every cell's records (two repeats) must equal its row's
    /// plain cell, wall seconds aside.
    #[test]
    fn sharded_runs_match_sequential_outcomes() {
        let b = bench();
        let config = config(&b);
        let scratch =
            std::env::temp_dir().join(format!("hotspot-bench-plan-axes-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&scratch);
        let shard_flags: [&[&str]; 4] = [
            &[],
            &["--workers", "1"],
            &["--workers", "3"],
            &["--workers", "3", "--kill-shard", "1@2"],
        ];
        for (row, faults) in [None, Some((flaky(), 3))].into_iter().enumerate() {
            let mut plain = None;
            for (col, flags) in shard_flags.iter().enumerate() {
                for checkpointed in [false, true] {
                    let cell =
                        format!("faults={faults:?} flags={flags:?} checkpointed={checkpointed}");
                    let mut argv: Vec<String> = flags.iter().map(|f| f.to_string()).collect();
                    if checkpointed {
                        let dir = scratch.join(format!("{row}-{col}"));
                        argv.extend(["--checkpoint-dir".to_owned(), dir.display().to_string()]);
                    }
                    let args = ExperimentArgs::parse(argv).unwrap();
                    let plan = RunPlan {
                        repeats: 2,
                        ..plan(faults, ShardSpec::from_args(&args))
                    };
                    let mut seq = CheckpointedSequence::from_args(&args);
                    assert_eq!(seq.is_some(), checkpointed, "{cell}");
                    let records: Vec<RunRecord> = run(&b, &config, &plan, seq.as_mut())
                        .into_iter()
                        .map(|r| RunRecord { secs: 0.0, ..r })
                        .collect();
                    assert_eq!(records.len(), 2, "{cell}");
                    assert!(records.iter().all(|r| r.litho > 0), "{cell}");
                    assert_eq!(
                        &records,
                        plain.get_or_insert_with(|| records.clone()),
                        "{cell}"
                    );
                }
            }
        }
        std::fs::remove_dir_all(&scratch).unwrap();
    }

    #[test]
    fn killed_worker_run_matches_the_undisturbed_one() {
        let b = bench();
        let config = config(&b);
        let rates = FaultRates {
            transient: 0.2,
            ..FaultRates::default()
        };
        let shard = |kill| ShardSpec {
            workers: 3,
            kill,
            dir: None,
        };
        let cell = |kill| {
            let plan = plan(Some((rates, 1)), Some(shard(kill)));
            faulty_method_result(&plan, &b, &run(&b, &config, &plan, None)[0])
        };
        let undisturbed = cell(None);
        let murdered = cell(Some(KillSpec {
            shard: 1,
            batch: 2,
            mode: hotspot_shard::FailureMode::Panic,
        }));
        assert_eq!(undisturbed, murdered, "recovery must not change anything");
    }

    #[test]
    fn method_result_averages_the_repeats() {
        let b = bench();
        let plan = plan(
            None,
            Some(ShardSpec {
                workers: 2,
                kill: None,
                dir: None,
            }),
        );
        let record = |accuracy, litho, secs| RunRecord {
            accuracy,
            litho,
            secs,
            ..RunRecord::default()
        };
        let row = method_result(&plan, &b, &[record(0.5, 10, 1.0), record(1.0, 11, 2.0)]);
        assert_eq!(row.method, "Ours");
        assert_eq!(row.benchmark, "harness");
        assert_eq!(row.accuracy, 0.75);
        assert_eq!(row.litho, 11, "10.5 rounds half away from zero");
        assert_eq!(row.elapsed, Duration::from_millis(1500));
        assert_eq!(row.workers, Some(2));
    }

    #[test]
    fn pattern_method_runs() {
        let b = bench();
        let result = run_pattern_method(PatternMatcher::exact(), &b);
        assert_eq!(result.method, "PM-exact");
        assert_eq!(result.accuracy, 1.0);
    }

    #[test]
    fn method_result_serializes() {
        let r = MethodResult {
            method: "Ours".to_owned(),
            benchmark: "B".to_owned(),
            accuracy: 0.5,
            litho: 10,
            elapsed: Duration::from_millis(1500),
            workers: None,
        };
        let json = serde_json::to_string(&r).unwrap();
        let back: MethodResult = serde_json::from_str(&json).unwrap();
        assert!((back.elapsed.as_secs_f64() - 1.5).abs() < 1e-9);
        assert_eq!(back.workers, None);
    }

    #[test]
    fn baselines_without_a_workers_field_parse_as_unsharded() {
        // BENCH_pshd.json files written before the shard-scaling rows
        // existed must keep loading; the absent field reads as `None`.
        let legacy = r#"{"method":"Ours","benchmark":"B","accuracy":0.9,"litho":12,"elapsed":2.5}"#;
        let row: MethodResult = serde_json::from_str(legacy).unwrap();
        assert_eq!(row.workers, None);

        let tagged = r#"{"method":"Ours","benchmark":"B","accuracy":0.9,"litho":12,"elapsed":2.5,"workers":4}"#;
        let row: MethodResult = serde_json::from_str(tagged).unwrap();
        assert_eq!(row.workers, Some(4));
    }
}
