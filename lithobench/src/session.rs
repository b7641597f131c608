//! The `session` workload: labelling sessions on a spawned `lithohd-serve`
//! while a second connection keeps scoring.
//!
//! One connection drives a fixed set of sessions (`POST /session`, then
//! `/step` until `done`) round after round, each session with a seed of
//! its own so the server's benchmark cache never hits. The other sends
//! `/score` in an open loop at 10 req/s, the per-connection gap of the
//! `score` workload's light phase. Long, write-heavy requests through
//! store checkpoints, shard fan-out and a fresh generation per session
//! compete with reads for the cores: a `/score` gain that costs sessions,
//! or the reverse, shows here.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use hotspot_serve::{HttpClient, SessionInfo, SessionRequest};

use crate::score::{latencies, tally, Payloads, BOOTS};
use crate::server::{self, delta, drive, window_mean_ms, Pace, Scrape};
use crate::stats::{mean, median, quantile};
use crate::{Args, Report};

/// The session set of one round: methods run at this ICCAD12 scale for
/// this many iterations.
const METHODS: [&str; 2] = ["ours", "random"];
const SCALE: f64 = 0.005;
const ITERATIONS: usize = 10;
const WORKERS: usize = 2;
/// Planned wall time of one round, which sets the rounds per run.
const ROUND_SECONDS: f64 = 5.0;
/// The scoring connection's open-loop rate.
const MIXED_RPS: f64 = 10.0;

/// One finished session as its client saw it.
struct SessionRun {
    request: SessionRequest,
    info: SessionInfo,
    /// Wall time of each `/step`, in ms.
    steps_ms: Vec<f64>,
}

fn post(
    client: &mut HttpClient,
    addr: &str,
    path: &str,
    body: &str,
) -> Result<SessionInfo, String> {
    let response = server::post(client, addr, path, body)?;
    if response.status != 200 {
        return Err(format!(
            "{path}: status {} ({})",
            response.status, response.body
        ));
    }
    serde_json::from_str(&response.body).map_err(|e| format!("{path}: bad body: {e}"))
}

/// Creates a session and steps it to `done`.
fn run_session(
    client: &mut HttpClient,
    addr: &str,
    request: SessionRequest,
) -> Result<SessionRun, String> {
    let body = serde_json::to_string(&request).map_err(|e| e.to_string())?;
    let mut info = post(client, addr, "/session", &body)?;
    let path = format!("/session/{}/step", info.session);
    let mut steps_ms = Vec::new();
    while !info.done {
        if steps_ms.len() > ITERATIONS + 1 {
            return Err(format!("session {} did not finish", info.session));
        }
        let start = Instant::now();
        info = post(client, addr, &path, "")?;
        steps_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    Ok(SessionRun {
        request,
        info,
        steps_ms,
    })
}

fn check_done(report: &mut Report, run: &SessionRun) {
    let info = &run.info;
    report.check(
        info.done
            && info.iteration == info.iterations
            && info.iterations == ITERATIONS
            && info.accuracy.is_some_and(|a| (0.0..=1.0).contains(&a))
            && info.litho.is_some(),
        || format!("session {} ended badly: {info:?}", info.session),
    );
}

fn request(seed: u64, round: usize, index: usize) -> SessionRequest {
    SessionRequest {
        benchmark: Some("iccad12".to_string()),
        scale: Some(SCALE),
        // Distinct per session, so every session generates afresh.
        seed: Some(crate::mix(
            seed.wrapping_mul(1000) + (round * METHODS.len() + index) as u64,
        )),
        method: Some(METHODS[index].to_string()),
        workers: Some(WORKERS),
        iterations: Some(ITERATIONS),
    }
}

/// Sums of per-session `/metrics` deltas: checkpoint saves and bytes,
/// shard batch count and seconds.
#[derive(Default)]
struct StoreDeltas {
    saves: f64,
    bytes: f64,
    shard_batches: f64,
    shard_seconds: f64,
}

impl StoreDeltas {
    fn add(&mut self, before: &Scrape, after: &Scrape) {
        self.saves += delta(before, after, "checkpoint_saves");
        self.bytes += delta(before, after, "checkpoint_bytes");
        self.shard_batches += delta(before, after, "shard_batch_seconds_count");
        self.shard_seconds += delta(before, after, "shard_batch_seconds_sum");
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    measure(args, &mut report)?;
    Ok(report)
}

/// The session layers: the same rounds with a `/metrics` scrape around
/// every session.
pub fn traced(args: &Args, report: &mut Report) -> Result<(), String> {
    measure(args, report)
}

/// Runs the rounds and reports the end-to-end metrics, or with
/// `args.trace` the per-layer ones.
fn measure(args: &Args, report: &mut Report) -> Result<(), String> {
    let payloads = Payloads::new(args.seed)?;
    let boots = if args.trace { 1 } else { BOOTS };
    let (server, boots) = server::boot(&args.serve_bin, &args.work_dir, boots)?;
    payloads.check_server(report, &server);
    let mut control = server.connect()?;
    let mut scorer = [server.connect()?];
    let stop = AtomicBool::new(false);
    let send = |client: &mut HttpClient, k: usize| payloads.send(client, &server.addr, k);

    let first = server::scrape(&server)?;
    let start = Instant::now();
    let mut rounds: Vec<(f64, Vec<SessionRun>)> = Vec::new();
    let mut store = StoreDeltas::default();
    let (sessions, shots) = std::thread::scope(|scope| {
        let sessions = scope.spawn(|| {
            let outcome = (|| -> Result<(), String> {
                // A fixed number of rounds for the run length: the
                // server keeps every generated benchmark, so its memory
                // grows with the number of sessions run.
                let planned = ((args.seconds / ROUND_SECONDS).round() as usize).max(2);
                while rounds.len() < planned {
                    let round_start = Instant::now();
                    let mut runs = Vec::with_capacity(METHODS.len());
                    for index in 0..METHODS.len() {
                        let before = if args.trace {
                            Some(server::scrape(&server)?)
                        } else {
                            None
                        };
                        runs.push(run_session(
                            &mut control,
                            &server.addr,
                            request(args.seed, rounds.len(), index),
                        )?);
                        if let Some(before) = before {
                            store.add(&before, &server::scrape(&server)?);
                        }
                    }
                    rounds.push((round_start.elapsed().as_secs_f64(), runs));
                }
                Ok(())
            })();
            stop.store(true, Ordering::Relaxed);
            outcome
        });
        let shots = drive(
            &mut scorer,
            Pace::Open {
                rate: MIXED_RPS,
                count: usize::MAX,
                give_up: Duration::from_secs(60),
            },
            &stop,
            &send,
        );
        (sessions.join().expect("session thread panicked"), shots)
    });
    sessions?;
    let window_s = start.elapsed().as_secs_f64();
    let last = server::scrape(&server)?;
    tally(report, "mixed score", &shots);

    // Output checks: every session finished its iterations, reports the
    // same result when asked again, and a re-run of the first session's
    // request reproduces its accuracy and Litho#.
    for (_, runs) in &rounds {
        for run in runs {
            check_done(report, run);
        }
    }
    let reference = &rounds[0].1[0];
    let status = control
        .get(&format!("/session/{}", reference.info.session))
        .map_err(|e| format!("session status: {e}"))?;
    let status: Result<SessionInfo, _> = serde_json::from_str(&status.body);
    report.check(status.as_ref().is_ok_and(|s| s == &reference.info), || {
        format!("status of {} changed: {status:?}", reference.info.session)
    });
    let rerun = run_session(&mut control, &server.addr, reference.request.clone())?;
    check_done(report, &rerun);
    report.check(
        rerun.info.accuracy == reference.info.accuracy && rerun.info.litho == reference.info.litho,
        || {
            format!(
                "re-run of seed {:?} gave {:?}/{:?}, first run {:?}/{:?}",
                reference.request.seed,
                rerun.info.accuracy,
                rerun.info.litho,
                reference.info.accuracy,
                reference.info.litho
            )
        },
    );

    let round_s: Vec<f64> = rounds.iter().map(|(s, _)| *s).collect();
    report.notes.push(format!(
        "session: {} rounds of {} sessions in {window_s:.2} s, round s {round_s:.3?} (mean {:.4}); {} mixed /score requests",
        rounds.len(),
        METHODS.len(),
        mean(&round_s),
        shots.len()
    ));
    if args.trace {
        let runs: Vec<&SessionRun> = rounds.iter().flat_map(|(_, runs)| runs).collect();
        let first_steps: Vec<f64> = runs.iter().map(|r| r.steps_ms[0]).collect();
        let later_steps: Vec<f64> = runs.iter().flat_map(|r| r.steps_ms[1..].to_vec()).collect();
        let sessions = runs.len() as f64;
        report.metric("session.first_step_ms", median(&first_steps), "ms");
        report.metric("session.step_ms", median(&later_steps), "ms");
        report.metric("store.checkpoint_bytes", store.bytes / sessions, "bytes");
        report.metric("store.checkpoint_saves", store.saves / sessions, "count");
        report.metric(
            "shard.batch_ms",
            store.shard_seconds / store.shard_batches.max(1.0) * 1e3,
            "ms",
        );
        report.metric(
            "loadgen.mixed_p50_ms",
            quantile(&latencies(&shots), 0.5),
            "ms",
        );
        report.metric(
            "loadgen.mixed_p95_ms",
            quantile(&latencies(&shots), 0.95),
            "ms",
        );
        report.metric(
            "session.server_ms",
            window_mean_ms(&first, &last, "serve_score_seconds"),
            "ms",
        );
    } else {
        let accuracy: Vec<f64> = rounds
            .iter()
            .flat_map(|(_, runs)| runs.iter().filter_map(|r| r.info.accuracy))
            .collect();
        report.metric("op_ms", median(&round_s) * 1e3, "ms");
        report
            .notes
            .push(format!("setup: server boots s {boots:.3?}"));
        report.metric("setup_s", median(&boots), "s");
        report.metric("accuracy", mean(&accuracy), "ratio");
        report.metric("peak_rss_mb", server.peak_rss_mb()?, "MB");
        let ok_rate = report.ok_rate();
        report.metric("ok_rate", ok_rate, "ratio");
    }
    Ok(())
}
