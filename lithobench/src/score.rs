//! The `score` workload: `POST /score` on a spawned `lithohd-serve` over
//! two keep-alive connections, in three phases — an open loop at 20 req/s,
//! a geometric rate ladder, and a closed loop.
//!
//! Transport, the micro-batcher and the NN forward pass do all of its
//! work; litho runs only in set-up (scorer bootstrap). A serve fix shows
//! here, and a generation speed-up moves only `setup_s`.
//!
//! The untraced run measures the open loop, whose median latency is the
//! workload's `op_ms`; the traced run adds the ladder and the closed loop.

use std::hint::black_box;
use std::sync::atomic::AtomicBool;
use std::time::Duration;

use hotspot_layout::{BenchmarkSpec, ClipRecipe, GeneratedBenchmark};
use hotspot_serve::{
    BootstrapConfig, ClipScore, HttpClient, RasterInput, ScoreRequest, ScoreResponse, Scorer,
};
use rand::seq::SliceRandom;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::server::{self, delta, drive, window_mean_ms, Pace, Server, Shot};
use crate::stats::{mean, median, median_secs, quantile};
use crate::{Args, Report};

/// Distinct request bodies; request `k` sends body `k mod POOL`.
const POOL: usize = 64;
/// Every eighth body is a raster, so server-side feature extraction runs.
const RASTER_EVERY: usize = 8;
/// Feature rows per feature request.
const ROWS: usize = 4;
/// ICCAD12 scale of the clips the payloads are cut from.
const PAYLOAD_SCALE: f64 = 0.002;

/// Server boots per run; `setup_s` is their median.
pub const BOOTS: usize = 5;
const CONNECTIONS: usize = 2;

/// The light open-loop rate and its minimum sample.
const LIGHT_RPS: f64 = 20.0;
const LIGHT_MIN_REQUESTS: usize = 400;
/// Rate ladder: `LIGHT_RPS × LADDER_STEP^i`, then `FINE_STEP` rungs below
/// the first failing one, each held for at least `RUNG_MIN_REQUESTS`
/// requests; a rung passes when p95 (timed from when due) stays within
/// `P95_LIMIT_MS` and lateness does not grow.
const LADDER_STEP: f64 = 1.25;
const LADDER_RUNGS: i32 = 16;
const FINE_STEP: f64 = 1.1;
const RUNG_MIN_REQUESTS: usize = 60;
const P95_LIMIT_MS: f64 = 20.0;
/// Lateness growth between a rung's first and last quarter that marks a
/// growing backlog.
const BACKLOG_GROWTH_MS: f64 = 10.0;

/// Seeded request bodies and the in-process reference answer to each.
pub struct Payloads {
    bodies: Vec<String>,
    expected: Vec<Vec<ClipScore>>,
    scorer: Scorer,
    /// Every feature row the bodies carry.
    rows: Vec<Vec<f32>>,
    /// Whether each clip of each body is a lithography hotspot.
    hotspots: Vec<Vec<bool>>,
}

impl Payloads {
    /// Cuts the bodies from a small generated benchmark (feature rows and
    /// core rasters of real clips) and scores each in process with a scorer
    /// bootstrapped exactly as the server's.
    pub fn new(seed: u64) -> Result<Payloads, String> {
        let scorer = Scorer::bootstrap(&BootstrapConfig::default())
            .map_err(|e| format!("reference scorer bootstrap failed: {e}"))?;
        let spec = BenchmarkSpec::iccad12().scaled(PAYLOAD_SCALE);
        let bench = GeneratedBenchmark::generate(&spec, seed)
            .map_err(|e| format!("payload generation failed: {e}"))?;
        let mut rng = ChaCha8Rng::seed_from_u64(crate::mix(seed));
        let dct = bench.dct_features();
        let fresh: Vec<usize> = (0..bench.len())
            .filter(|&i| matches!(bench.recipes()[i], ClipRecipe::Fresh { .. }))
            .collect();
        let mut bodies = Vec::with_capacity(POOL);
        let mut expected = Vec::with_capacity(POOL);
        let mut feature_rows = Vec::new();
        let mut hotspots = Vec::with_capacity(POOL);
        let hotspot = |clip: usize| bench.labels()[clip].is_hotspot();
        for p in 0..POOL {
            let (request, rows) = if p % RASTER_EVERY == RASTER_EVERY - 1 {
                let clip = *fresh.choose(&mut rng).ok_or("no fresh clips")?;
                hotspots.push(vec![hotspot(clip)]);
                let raster = bench.clip_raster(clip);
                let core = raster.crop(&bench.core()).unwrap_or(raster);
                let input = RasterInput {
                    width: core.width(),
                    height: core.height(),
                    pixels: core.pixels().to_vec(),
                };
                let row = scorer
                    .raster_features(input.width, input.height, &input.pixels)
                    .map_err(|e| format!("reference raster features failed: {e}"))?;
                let request = ScoreRequest {
                    request_id: None,
                    features: None,
                    rasters: Some(vec![input]),
                };
                (request, vec![row])
            } else {
                let clips: Vec<usize> = (0..ROWS).map(|_| rng.gen_range(0..dct.rows())).collect();
                hotspots.push(clips.iter().map(|&clip| hotspot(clip)).collect());
                let rows: Vec<Vec<f32>> =
                    clips.iter().map(|&clip| dct.row(clip).to_vec()).collect();
                feature_rows.extend(rows.iter().cloned());
                let request = ScoreRequest {
                    request_id: None,
                    features: Some(rows.clone()),
                    rasters: None,
                };
                (request, rows)
            };
            bodies.push(serde_json::to_string(&request).map_err(|e| e.to_string())?);
            // The reference scores each row alone: batch size 1.
            let mut scores = Vec::with_capacity(rows.len());
            for row in &rows {
                let single = scorer
                    .score_rows(std::slice::from_ref(row))
                    .map_err(|e| format!("reference scoring failed: {e}"))?;
                scores.extend(single);
            }
            expected.push(scores);
        }
        // Shuffle so raster requests are spread over both connections.
        let mut order: Vec<usize> = (0..POOL).collect();
        order.shuffle(&mut rng);
        Ok(Payloads {
            bodies: order.iter().map(|&i| bodies[i].clone()).collect(),
            expected: order.iter().map(|&i| expected[i].clone()).collect(),
            hotspots: order.iter().map(|&i| hotspots[i].clone()).collect(),
            scorer,
            rows: feature_rows,
        })
    }

    /// Share of the pool's clips whose served hotspot probability (which
    /// every response must match bit for bit) is at least ½ exactly when
    /// the clip is a lithography hotspot.
    pub fn accuracy(&self) -> f64 {
        let (mut agree, mut clips) = (0usize, 0usize);
        for (scores, hotspots) in self.expected.iter().zip(&self.hotspots) {
            for (score, &hotspot) in scores.iter().zip(hotspots) {
                agree += usize::from((score.probability >= 0.5) == hotspot);
                clips += 1;
            }
        }
        agree as f64 / clips.max(1) as f64
    }

    /// Sends request `k` and compares the answer bit for bit with the
    /// in-process reference.
    pub fn send(&self, client: &mut HttpClient, addr: &str, k: usize) -> Result<(), String> {
        let index = k % POOL;
        let response = server::post(client, addr, "/score", &self.bodies[index])
            .map_err(|e| format!("request {k}: {e}"))?;
        if response.status != 200 {
            return Err(format!("request {k}: status {}", response.status));
        }
        let parsed: ScoreResponse = serde_json::from_str(&response.body)
            .map_err(|e| format!("request {k}: bad body: {e}"))?;
        if parsed.model_version != self.scorer.model_version()
            || parsed.calibration_version != self.scorer.calibration_version()
        {
            return Err(format!(
                "request {k}: served {}/{} but the reference is {}/{}",
                parsed.model_version,
                parsed.calibration_version,
                self.scorer.model_version(),
                self.scorer.calibration_version()
            ));
        }
        if !same_bits(&parsed.scores, &self.expected[index]) {
            return Err(format!(
                "request {k}: scores differ from batch-size-1 reference"
            ));
        }
        Ok(())
    }

    /// Checks the booted server runs the reference model.
    pub fn check_server(&self, report: &mut Report, server: &Server) {
        report.check(
            server.ready.ready
                && server.ready.model_version == self.scorer.model_version()
                && server.ready.calibration_version == self.scorer.calibration_version(),
            || {
                format!(
                    "server model {}/{} differs from reference {}/{}",
                    server.ready.model_version,
                    server.ready.calibration_version,
                    self.scorer.model_version(),
                    self.scorer.calibration_version()
                )
            },
        );
    }
}

fn same_bits(got: &[ClipScore], want: &[ClipScore]) -> bool {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| {
            g.probability.to_bits() == w.probability.to_bits()
                && g.bvsb.to_bits() == w.bvsb.to_bits()
                && g.uncertainty.to_bits() == w.uncertainty.to_bits()
                && bits(&g.logits) == bits(&w.logits)
                && bits(&g.scaled_logits) == bits(&w.scaled_logits)
        })
}

/// Counts every request of a phase as one checked operation.
pub fn tally(report: &mut Report, phase: &str, shots: &[Shot]) {
    for shot in shots {
        report.check(shot.error.is_none(), || {
            format!("{phase}: {}", shot.error.clone().unwrap_or_default())
        });
    }
}

pub fn latencies(shots: &[Shot]) -> Vec<f64> {
    shots.iter().map(Shot::latency_ms).collect()
}

/// Median lateness of the last quarter minus that of the first.
fn lateness_growth(shots: &[Shot]) -> f64 {
    let quarter = (shots.len() / 4).max(1);
    let late = |s: &[Shot]| crate::stats::median(&s.iter().map(Shot::late_ms).collect::<Vec<_>>());
    late(&shots[shots.len() - quarter..]) - late(&shots[..quarter])
}

/// Requests answered per second, from the first answer to the last.
fn completion_rate(shots: &[Shot]) -> f64 {
    let done = shots.iter().map(|s| s.done);
    match (done.clone().min(), done.max()) {
        (Some(first), Some(last)) if last > first => {
            (shots.len() - 1) as f64 / (last - first).as_secs_f64()
        }
        _ => 0.0,
    }
}

fn connect_all(server: &Server, n: usize) -> Result<Vec<HttpClient>, String> {
    (0..n).map(|_| server.connect()).collect()
}

/// A booted server with the reference payloads and two warmed-up
/// keep-alive connections.
struct Rig {
    payloads: Payloads,
    server: Server,
    boots: Vec<f64>,
    clients: Vec<HttpClient>,
}

fn rig(args: &Args, report: &mut Report, boots: usize) -> Result<Rig, String> {
    let payloads = Payloads::new(args.seed)?;
    let (server, boots) = server::boot(&args.serve_bin, &args.work_dir, boots)?;
    payloads.check_server(report, &server);
    let mut rig = Rig {
        clients: connect_all(&server, CONNECTIONS)?,
        payloads,
        server,
        boots,
    };
    // Warm-up, outside every measurement: one pass over the pool.
    let warm = rig.drive(Pace::Open {
        rate: 200.0,
        count: POOL,
        give_up: Duration::from_secs(60),
    });
    tally(report, "warm-up", &warm);
    Ok(rig)
}

impl Rig {
    fn drive(&mut self, pace: Pace) -> Vec<Shot> {
        let (payloads, addr) = (&self.payloads, &self.server.addr);
        let send = |client: &mut HttpClient, k: usize| payloads.send(client, addr, k);
        drive(&mut self.clients, pace, &AtomicBool::new(false), &send)
    }

    /// The open loop at `LIGHT_RPS`, with at least `min_requests`.
    fn light(&mut self, report: &mut Report, seconds: f64, min_requests: usize) -> Vec<Shot> {
        let count = min_requests.max((LIGHT_RPS * seconds * 0.8) as usize);
        let light = self.drive(Pace::Open {
            rate: LIGHT_RPS,
            count,
            give_up: Duration::from_secs(60),
        });
        tally(report, "light", &light);
        report.notes.push(format!(
            "score: {} light requests at {LIGHT_RPS} req/s, p50 {:.3} ms, generator late p95 {:.2} ms",
            light.len(),
            quantile(&latencies(&light), 0.5),
            quantile(&light.iter().map(Shot::late_ms).collect::<Vec<_>>(), 0.95),
        ));
        light
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut rig = rig(args, &mut report, BOOTS)?;
    let light = rig.light(&mut report, args.seconds, LIGHT_MIN_REQUESTS);
    report.metric("op_ms", quantile(&latencies(&light), 0.5), "ms");
    report
        .notes
        .push(format!("setup: server boots s {:.3?}", rig.boots));
    report.metric("setup_s", median(&rig.boots), "s");
    report.metric("accuracy", rig.payloads.accuracy(), "ratio");
    report.metric("peak_rss_mb", rig.server.peak_rss_mb()?, "MB");
    let ok_rate = report.ok_rate();
    report.metric("ok_rate", ok_rate, "ratio");
    Ok(report)
}

/// The score layers: the open loop, the rate ladder and the closed loop
/// on one server, with `/metrics` deltas and in-process forward timings.
pub fn traced(args: &Args, report: &mut Report) -> Result<(), String> {
    let mut rig = rig(args, report, 1)?;
    let first = server::scrape(&rig.server)?;
    let light = rig.light(report, args.seconds, RUNG_MIN_REQUESTS);
    let after_light = server::scrape(&rig.server)?;

    // The light phase is the ladder's first rung. The coarse ladder climbs
    // until a rung fails; fine rungs then split the gap below that rung.
    // `loadgen.max_rps` is the completion rate measured on the highest
    // rung that passes.
    let rung_seconds = args.seconds / 30.0;
    let light_passed = quantile(&latencies(&light), 0.95) <= P95_LIMIT_MS;
    let mut max_rps = if light_passed {
        completion_rate(&light)
    } else {
        0.0
    };
    let mut top_late_ms = quantile(&light.iter().map(Shot::late_ms).collect::<Vec<_>>(), 0.95);
    let (mut last_pass, mut ceiling, mut coarse) = (LIGHT_RPS, None, 0);
    loop {
        let rate = match ceiling {
            None if !light_passed || coarse == LADDER_RUNGS => break,
            None => {
                coarse += 1;
                LIGHT_RPS * LADDER_STEP.powi(coarse)
            }
            Some(limit) if last_pass * FINE_STEP >= limit * 0.999 => break,
            Some(_) => last_pass * FINE_STEP,
        };
        let count = RUNG_MIN_REQUESTS.max((rate * rung_seconds) as usize);
        let shots = rig.drive(Pace::Open {
            rate,
            count,
            give_up: Duration::from_secs(1),
        });
        tally(report, &format!("ladder {rate:.1}"), &shots);
        let p95 = quantile(&latencies(&shots), 0.95);
        let late = quantile(&shots.iter().map(Shot::late_ms).collect::<Vec<_>>(), 0.95);
        let growth = lateness_growth(&shots);
        let passed = shots.len() == count && p95 <= P95_LIMIT_MS && growth <= BACKLOG_GROWTH_MS;
        report.notes.push(format!(
            "ladder {rate:>7.1} req/s: {} of {count} sent, p95 {p95:.2} ms, late p95 {late:.2} ms, \
             lateness growth {growth:.2} ms -> {}",
            shots.len(),
            if passed { "pass" } else { "fail" }
        ));
        if passed {
            max_rps = completion_rate(&shots);
            top_late_ms = late;
            last_pass = rate;
        } else if ceiling.is_none() {
            ceiling = Some(rate);
        } else {
            break;
        }
    }

    let closed_seconds = args.seconds / 10.0;
    let closed = rig.drive(Pace::Closed {
        seconds: closed_seconds,
    });
    tally(report, "closed", &closed);
    let last = server::scrape(&rig.server)?;
    let closed_s = closed
        .iter()
        .map(|s| s.done)
        .max()
        .zip(closed.iter().map(|s| s.sent).min())
        .map_or(closed_seconds, |(end, begin)| (end - begin).as_secs_f64());
    report.notes.push(format!(
        "score: {} closed-loop requests in {closed_s:.2} s",
        closed.len()
    ));

    let server_ms = window_mean_ms(&first, &after_light, "serve_score_seconds");
    let client_ms = mean(&light.iter().map(Shot::service_ms).collect::<Vec<_>>());
    report.metric("serve.server_ms", server_ms, "ms");
    report.metric("serve.transport_ms", client_ms - server_ms, "ms");
    for rows in [4usize, 32] {
        let batch: Vec<Vec<f32>> = rig.payloads.rows.iter().take(rows).cloned().collect();
        let secs = median_secs(200, || {
            black_box(rig.payloads.scorer.score_rows(black_box(&batch)).ok());
        });
        report.metric(format!("serve.forward_us.r{rows}"), secs * 1e6, "us");
    }
    let flushes = delta(&first, &last, "serve_batch_flushes");
    report.metric(
        "serve.clips_per_flush",
        delta(&first, &last, "serve_batch_clips") / flushes.max(1.0),
        "count",
    );
    report.metric(
        "serve.rejected",
        delta(&first, &last, "serve_backpressure_rejected")
            + delta(&first, &last, "serve_load_shed"),
        "count",
    );
    report.metric("loadgen.late_ms", top_late_ms, "ms");
    report.metric(
        "loadgen.score_p95_ms",
        quantile(&latencies(&light), 0.95),
        "ms",
    );
    report.metric("loadgen.max_rps", max_rps, "1/s");
    report.metric("loadgen.closed_rps", closed.len() as f64 / closed_s, "1/s");
    Ok(())
}
