//! The `campaign` workload: benchmark generation and the four samplers to
//! detection, in process.
//!
//! Litho simulation and layout synthesis inside generation do about half
//! the work and QP selection about a quarter; serving and the store do
//! none. A generation or selector speed-up shows here, and a transport fix
//! must not move it.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

use hotspot_active::{
    BatchSelector, HotspotModel, RunOutcome, SamplingConfig, SamplingFramework, SelectionContext,
};
use hotspot_bench::{try_generate, ActiveMethod};
use hotspot_calibration::Temperature;
use hotspot_features::{run_length_histogram, FeatureExtractor, DEFAULT_RUN_BINS};
use hotspot_gmm::{GaussianMixture, GmmConfig};
use hotspot_layout::{BenchmarkSpec, ClipRecipe, GeneratedBenchmark};
use hotspot_litho::{
    Label, LithoOracle, LithoSimulator, OracleError, OracleStateSnapshot, OracleStats,
};
use hotspot_nn::Matrix;

use crate::stats::{mean, median, median_secs};
use crate::{Args, Report};

/// ICCAD12 population scale: one campaign takes a few seconds on two
/// cores, so a run holds several and reports medians.
const SCALE: f64 = 0.01;
const SUBSEEDS: u64 = 4;

const METHODS: [ActiveMethod; 4] = [
    ActiveMethod::Ours,
    ActiveMethod::Ts,
    ActiveMethod::Qp,
    ActiveMethod::Random,
];

/// Temperature-fit search bounds (`Temperature::fit` searches
/// `ln T ∈ [ln 0.25, ln 10]`); a fit this close to either sits on its clamp.
const CLAMPS: [f64; 2] = [0.25, 10.0];
const CLAMP_TOLERANCE: f64 = 1e-3;

/// Fresh clips the traced run re-simulates for per-clip kernel medians.
const KERNEL_SAMPLE: usize = 200;

/// Timing and counting decorator over the oracle a run labels through.
struct TimedOracle<O> {
    inner: O,
    queries: usize,
    seen: BTreeSet<usize>,
}

impl<O: LithoOracle> LithoOracle for TimedOracle<O> {
    fn try_query(&mut self, index: usize) -> Result<Label, OracleError> {
        self.queries += 1;
        self.seen.insert(index);
        self.inner.try_query(index)
    }

    fn resimulate(&mut self, index: usize) -> Result<Label, OracleError> {
        self.queries += 1;
        self.seen.insert(index);
        self.inner.resimulate(index)
    }

    fn try_query_batch(&mut self, indices: &[usize]) -> Vec<Result<Label, OracleError>> {
        self.queries += indices.len();
        self.seen.extend(indices.iter().copied());
        self.inner.try_query_batch(indices)
    }

    fn unique_queries(&self) -> usize {
        self.inner.unique_queries()
    }

    fn total_queries(&self) -> usize {
        self.inner.total_queries()
    }

    fn stats(&self) -> OracleStats {
        self.inner.stats()
    }

    fn state_snapshot(&self) -> Option<OracleStateSnapshot> {
        self.inner.state_snapshot()
    }

    fn restore_state(&mut self, state: &OracleStateSnapshot) -> bool {
        self.inner.restore_state(state)
    }
}

/// Timing decorator over a batch selector.
#[derive(Debug)]
struct TimedSelector {
    inner: Box<dyn BatchSelector>,
    calls: usize,
    busy_s: f64,
}

impl BatchSelector for TimedSelector {
    fn select(&mut self, ctx: &SelectionContext<'_>) -> Vec<usize> {
        let start = Instant::now();
        let picked = self.inner.select(ctx);
        self.busy_s += start.elapsed().as_secs_f64();
        self.calls += 1;
        picked
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn last_weights(&self) -> Option<(f64, f64)> {
        self.inner.last_weights()
    }
}

/// One sampler's run inside a campaign.
struct MethodRun {
    method: ActiveMethod,
    outcome: RunOutcome,
    /// Distinct clips the oracle billed, as the oracle (or its decorator)
    /// counted them.
    unique: usize,
    run_s: f64,
    /// Decorator readings; zero in an untraced campaign.
    queries: usize,
    select_s: f64,
    select_calls: usize,
}

struct Campaign {
    bench: GeneratedBenchmark,
    config: SamplingConfig,
    generate_s: f64,
    wall_s: f64,
    runs: Vec<MethodRun>,
}

fn run_campaign(seed: u64, traced: bool) -> Result<Campaign, String> {
    let spec = BenchmarkSpec::iccad12().scaled(SCALE);
    let start = Instant::now();
    let bench = try_generate(&spec, seed).map_err(|e| format!("generation failed: {e}"))?;
    let generate_s = start.elapsed().as_secs_f64();
    let config = SamplingConfig::for_benchmark(bench.len());
    let framework = SamplingFramework::new(config.clone());
    let mut runs = Vec::with_capacity(METHODS.len());
    for method in METHODS {
        let started = Instant::now();
        let failed = |e: hotspot_active::ActiveError| format!("{} run failed: {e}", method.label());
        let run = if traced {
            let mut oracle = TimedOracle {
                inner: bench.oracle(),
                queries: 0,
                seen: BTreeSet::new(),
            };
            let mut selector = TimedSelector {
                inner: method.selector(),
                calls: 0,
                busy_s: 0.0,
            };
            let outcome = framework
                .run_with_oracle(&bench, &mut selector, seed, &mut oracle)
                .map_err(failed)?;
            MethodRun {
                method,
                outcome,
                unique: oracle.seen.len(),
                run_s: started.elapsed().as_secs_f64(),
                queries: oracle.queries,
                select_s: selector.busy_s,
                select_calls: selector.calls,
            }
        } else {
            let mut oracle = bench.oracle();
            let mut selector = method.selector();
            let outcome = framework
                .run_with_oracle(&bench, selector.as_mut(), seed, &mut oracle)
                .map_err(failed)?;
            MethodRun {
                method,
                outcome,
                unique: oracle.unique_queries(),
                run_s: started.elapsed().as_secs_f64(),
                queries: 0,
                select_s: 0.0,
                select_calls: 0,
            }
        };
        runs.push(run);
    }
    Ok(Campaign {
        bench,
        config,
        generate_s,
        wall_s: start.elapsed().as_secs_f64(),
        runs,
    })
}

/// Eq. 2 and Eq. 1 sanity for every method of a campaign.
fn check_campaign(report: &mut Report, campaign: &Campaign) {
    for run in &campaign.runs {
        let metrics = &run.outcome.metrics;
        let label = run.method.label();
        report.check(metrics.litho == run.unique + metrics.false_alarms, || {
            format!(
                "{label}: Litho# {} != unique oracle queries {} + false alarms {}",
                metrics.litho, run.unique, metrics.false_alarms
            )
        });
        report.check((0.0..=1.0).contains(&metrics.accuracy), || {
            format!("{label}: accuracy {} outside [0, 1]", metrics.accuracy)
        });
        report.check(!run.outcome.degraded, || {
            format!("{label}: fault-free run reported itself degraded")
        });
    }
}

/// FNV-1a over every method's sampled and predicted clip indices.
fn digest(campaign: &Campaign) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |value: u64| {
        for byte in value.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for run in &campaign.runs {
        feed(run.outcome.sampled_indices.len() as u64);
        run.outcome
            .sampled_indices
            .iter()
            .for_each(|&i| feed(i as u64));
        feed(run.outcome.predicted_hotspots.len() as u64);
        run.outcome
            .predicted_hotspots
            .iter()
            .for_each(|&i| feed(i as u64));
    }
    hash
}

/// Area under cumulative hotspots found ÷ benchmark hotspots against labels
/// spent ÷ final Litho#, from the per-iteration history: the curve runs
/// from the origin through every iteration's labelled set to
/// (1, accuracy) once detection's verification simulations are spent.
fn hit_auc(outcome: &RunOutcome) -> f64 {
    let metrics = &outcome.metrics;
    let litho = metrics.litho.max(1) as f64;
    let total = metrics.total_hotspots.max(1) as f64;
    let labelled_hotspots = (metrics.train_hotspots + metrics.validation_hotspots) as f64;
    let mut later_batches: f64 = outcome
        .history
        .iter()
        .map(|s| s.batch_hotspots as f64)
        .sum();
    let mut points = vec![(0.0, 0.0)];
    for stats in &outcome.history {
        later_batches -= stats.batch_hotspots as f64;
        let spent = (stats.labeled_size + metrics.validation_size) as f64;
        points.push((spent / litho, (labelled_hotspots - later_batches) / total));
    }
    points.push((1.0, metrics.accuracy));
    points
        .windows(2)
        .map(|w| (w[1].0 - w[0].0) * (w[0].1 + w[1].1) / 2.0)
        .sum()
}

/// Share of iterations whose fitted temperature sits on a search bound.
fn clamp_ratio(outcome: &RunOutcome) -> f64 {
    let on_clamp = outcome
        .history
        .iter()
        .filter(|s| {
            CLAMPS
                .iter()
                .any(|c| (s.temperature / c).ln().abs() < CLAMP_TOLERANCE)
        })
        .count();
    on_clamp as f64 / outcome.history.len().max(1) as f64
}

fn ours(campaign: &Campaign) -> &RunOutcome {
    &campaign.runs[0].outcome
}

/// Generation seed `i` of a run. Quality metrics are means over
/// `SUBSEEDS` distinct benchmarks, since one small benchmark's hit curve
/// varies a lot from seed to seed. The seeds are hashed apart: runs on
/// neighbouring seeds give correlated hit curves.
fn subseed(seed: u64, i: u64) -> u64 {
    crate::mix(seed.wrapping_mul(SUBSEEDS).wrapping_add(i % SUBSEEDS))
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let start = Instant::now();
    let (mut walls, mut generations) = (Vec::new(), Vec::new());
    let mut firsts = Vec::new();
    let mut accuracy = Vec::new();
    // Every sub-seed once, then repeats of them (at least one) while the
    // run lasts; a repeat must reproduce its first run exactly.
    for i in 0u64.. {
        if i > SUBSEEDS && start.elapsed().as_secs_f64() + walls[walls.len() - 1] > args.seconds {
            break;
        }
        let campaign = run_campaign(subseed(args.seed, i), false)?;
        check_campaign(&mut report, &campaign);
        let this = (
            digest(&campaign),
            ours(&campaign).metrics.accuracy,
            ours(&campaign).metrics.litho,
        );
        if i < SUBSEEDS {
            accuracy.push(this.1);
            firsts.push(this);
        } else {
            let expected = firsts[(i % SUBSEEDS) as usize];
            report.check(this == expected, || {
                format!("campaign {i} diverged from its first run: {this:?} != {expected:?}")
            });
        }
        walls.push(campaign.wall_s);
        generations.push(campaign.generate_s);
    }
    report.notes.push(format!(
        "campaign: {} runs over {SUBSEEDS} benchmarks at ICCAD12 scale {SCALE}, wall s {walls:.3?}, \
         generation s {generations:.3?}",
        walls.len()
    ));
    report.metric("op_ms", median(&walls) * 1e3, "ms");
    report.metric("setup_s", median(&generations), "s");
    report.metric("accuracy", mean(&accuracy), "ratio");
    report.metric(
        "peak_rss_mb",
        crate::peak_rss_mb("self").ok_or("cannot read VmHWM")?,
        "MB",
    );
    let ok_rate = report.ok_rate();
    report.metric("ok_rate", ok_rate, "ratio");
    Ok(report)
}

/// The campaign layers: one campaign through the trait decorators beside
/// an untraced one, then the generation kernels and learning layers
/// re-timed at the campaign's sizes.
pub fn traced(args: &Args, report: &mut Report) -> Result<(), String> {
    let seed = subseed(args.seed, 0);
    let untraced = run_campaign(seed, false)?;
    check_campaign(report, &untraced);
    let campaign = run_campaign(seed, true)?;
    check_campaign(report, &campaign);
    report.check(digest(&campaign) == digest(&untraced), || {
        "traced campaign diverged from the untraced one".to_string()
    });
    let bench = &campaign.bench;
    let config = &campaign.config;

    // Generation, broken into its per-clip kernels.
    let fresh: Vec<usize> = bench
        .recipes()
        .iter()
        .enumerate()
        .filter(|(_, r)| matches!(r, ClipRecipe::Fresh { .. }))
        .map(|(i, _)| i)
        .collect();
    let dups = bench.len() - fresh.len();
    let sim = LithoSimulator::new(bench.spec().tech.litho_config());
    let extractor = FeatureExtractor::standard();
    let core = bench.core();
    let stride = fresh.len().div_ceil(KERNEL_SAMPLE).max(1);
    let (mut analyze, mut aerial, mut extract) = (Vec::new(), Vec::new(), Vec::new());
    for &clip in fresh.iter().step_by(stride) {
        let raster = bench.clip_raster(clip);
        let t = Instant::now();
        black_box(sim.analyze(black_box(&raster), core));
        analyze.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        black_box(sim.aerial_image(black_box(&raster)));
        aerial.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let crop = raster.crop(&core).unwrap_or_else(|| raster.clone());
        black_box(extractor.extract(&crop));
        black_box(run_length_histogram(&crop, 0.5, &DEFAULT_RUN_BINS));
        black_box(extractor.density_features(&raster));
        extract.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let (analyze_us, aerial_us, extract_us) = (median(&analyze), median(&aerial), median(&extract));
    report.metric("layout.generate_s", campaign.generate_s, "s");
    report.metric("layout.fresh_clips", fresh.len() as f64, "count");
    report.metric("layout.dup_clips", dups as f64, "count");
    report.metric("litho.analyze_us", analyze_us, "us");
    report.metric("litho.aerial_us", aerial_us, "us");
    report.metric("litho.defect_us", analyze_us - aerial_us, "us");
    report.metric("features.extract_us", extract_us, "us");
    report.metric(
        "layout.other_s",
        campaign.generate_s - fresh.len() as f64 * (analyze_us + extract_us) / 1e6,
        "s",
    );

    // Learning layers at the campaign's own sizes.
    let density = bench.density_features();
    let gmm_config = GmmConfig {
        components: config.gmm_components.min(bench.len()),
        seed,
        ..GmmConfig::default()
    };
    let mut gmm_error = None;
    let gmm_s = median_secs(3, || {
        if let Err(e) = GaussianMixture::fit(density.as_slice(), density.dim(), &gmm_config) {
            gmm_error = Some(e.to_string());
        }
    });
    report.check(gmm_error.is_none(), || {
        format!("GMM fit failed: {gmm_error:?}")
    });
    report.metric("gmm.fit_s", gmm_s, "s");

    let dct = bench.dct_features();
    let (mean, std) = dct.column_stats();
    let features = Matrix::from_flat(
        dct.rows(),
        dct.dim(),
        dct.standardized(&mean, &std).as_slice().to_vec(),
    );
    let classes: Vec<usize> = bench.labels().iter().map(|l| l.class_index()).collect();
    let mut model = HotspotModel::new(
        dct.dim(),
        seed,
        config.init_sigma,
        config.learning_rate,
        config.train_batch,
    );
    // The framework's training schedule: the initial fit, then one update
    // per iteration on the grown labelled set.
    let mut schedule = vec![(config.initial_train, config.initial_epochs)];
    schedule.extend((1..=config.iterations).map(|i| {
        (
            config.initial_train + i * config.batch,
            config.update_epochs,
        )
    }));
    let train_start = Instant::now();
    for (i, &(size, epochs)) in schedule.iter().enumerate() {
        let rows: Vec<usize> = (0..size.min(bench.len())).collect();
        let x = features.gather_rows(&rows);
        let y: Vec<usize> = rows.iter().map(|&r| classes[r]).collect();
        let trained = model.train(&x, &y, epochs, seed ^ i as u64);
        report.check(trained.is_ok(), || {
            format!("training step {i} failed: {trained:?}")
        });
    }
    report.metric("nn.train_s", train_start.elapsed().as_secs_f64(), "s");

    let pool: Vec<usize> = (0..config.query_pool.min(bench.len())).collect();
    let pool_x = features.gather_rows(&pool);
    let predict_s = median_secs(20, || {
        black_box(model.predict(black_box(&pool_x)));
    });
    report.metric("nn.predict_us", predict_s * 1e6 / pool.len() as f64, "us");

    // Validation-sized set holding both classes, as the framework's does.
    let hotspots: Vec<usize> = (0..bench.len()).filter(|&i| classes[i] == 1).collect();
    let mut val: Vec<usize> = hotspots
        .iter()
        .copied()
        .take(config.validation / 4)
        .collect();
    val.extend(
        (0..bench.len())
            .filter(|&i| classes[i] == 0)
            .take(config.validation - val.len()),
    );
    let (val_logits, _) = model.predict(&features.gather_rows(&val));
    let val_y: Vec<usize> = val.iter().map(|&i| classes[i]).collect();
    let fit_s = median_secs(20, || {
        black_box(Temperature::fit(val_logits.as_slice(), 2, &val_y).ok());
    });
    report.metric("calibration.fit_us", fit_s * 1e6, "us");

    // The samplers, through the trait decorators.
    let mut layer_s = campaign.generate_s;
    let mut select_calls = 0;
    for run in &campaign.runs {
        let key = run.method.label().to_ascii_lowercase();
        report.metric(format!("core.run_s.{key}"), run.run_s, "s");
        report.metric(format!("core.select_s.{key}"), run.select_s, "s");
        report.metric(
            format!("litho.oracle_queries.{key}"),
            run.queries as f64,
            "count",
        );
        report.metric(
            format!("litho.oracle_unique.{key}"),
            run.unique as f64,
            "count",
        );
        layer_s += run.run_s;
        select_calls += run.select_calls;
    }
    report.metric("core.select_calls", select_calls as f64, "count");

    // Ours' labelling cost and hit curve, and degeneracy as numbers.
    let random = &campaign.runs[METHODS.len() - 1].outcome;
    report.metric("core.litho", ours(&campaign).metrics.litho as f64, "count");
    report.metric("core.hit_auc", hit_auc(ours(&campaign)), "ratio");
    report.metric(
        "calibration.clamp_ratio",
        clamp_ratio(ours(&campaign)),
        "ratio",
    );
    report.metric(
        "core.hit_auc_gap",
        hit_auc(ours(&campaign)) - hit_auc(random),
        "ratio",
    );
    report.metric("trace.coverage", layer_s / campaign.wall_s, "ratio");
    report.metric(
        "trace.overhead",
        campaign.wall_s / untraced.wall_s - 1.0,
        "ratio",
    );
    report.notes.push(format!(
        "campaign: traced {:.3} s, untraced {:.3} s, {} fresh clips, kernels sampled every {stride}",
        campaign.wall_s,
        untraced.wall_s,
        fresh.len()
    ));
    Ok(())
}
