//! A spawned `lithohd-serve` process and the load the benchmark puts on it.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use hotspot_serve::client::HttpResponse;
use hotspot_serve::{HttpClient, ReadyResponse};

/// How long one request may take before it counts as failed.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(20);
/// How long a boot may take before the run gives up.
const BOOT_TIMEOUT: Duration = Duration::from_secs(90);

/// A running server; killed and reaped on drop.
pub struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
    /// Spawn until `/readyz` answered ready, scorer bootstrap included.
    pub setup_s: f64,
    pub ready: ReadyResponse,
}

impl Server {
    pub fn spawn(bin: &Path, sessions: &Path, log: &Path) -> Result<Server, String> {
        let log =
            std::fs::File::create(log).map_err(|e| format!("cannot create server log: {e}"))?;
        let start = Instant::now();
        let mut child = Command::new(bin)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--sessions")
            .arg(sessions)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log))
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().ok_or("server stdout not captured")?;
        // Read the `listening on <addr>` line on a helper thread, so a
        // wedged boot is killed instead of blocking the run.
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut stdout = BufReader::new(stdout);
            let mut line = String::new();
            let read = stdout.read_line(&mut line);
            let _ = tx.send(());
            (stdout, read.map(|_| line))
        });
        if rx.recv_timeout(BOOT_TIMEOUT).is_err() {
            let _ = child.kill();
        }
        let (stdout, line) = match reader.join() {
            Ok(joined) => joined,
            Err(_) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err("server stdout reader panicked".to_string());
            }
        };
        let mut server = Server {
            child,
            _stdout: stdout,
            addr: String::new(),
            setup_s: 0.0,
            ready: ReadyResponse {
                ready: false,
                model_version: String::new(),
                calibration_version: String::new(),
            },
        };
        let line = line.map_err(|e| format!("cannot read server stdout: {e}"))?;
        server.addr = line
            .trim()
            .strip_prefix("listening on ")
            .ok_or_else(|| format!("server did not come up (stdout {line:?})"))?
            .to_string();
        let mut client = server.connect()?;
        loop {
            let response = client
                .get("/readyz")
                .map_err(|e| format!("/readyz failed: {e}"))?;
            if response.status == 200 {
                server.ready = serde_json::from_str(&response.body)
                    .map_err(|e| format!("bad /readyz body: {e}"))?;
                break;
            }
            if start.elapsed() > BOOT_TIMEOUT {
                return Err("server never became ready".to_string());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        server.setup_s = start.elapsed().as_secs_f64();
        Ok(server)
    }

    pub fn connect(&self) -> Result<HttpClient, String> {
        HttpClient::connect(&self.addr, REQUEST_TIMEOUT)
            .map_err(|e| format!("cannot connect to {}: {e}", self.addr))
    }

    /// Peak resident set of the server process, in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        crate::peak_rss_mb(&self.child.id().to_string())
            .ok_or_else(|| "cannot read server VmHWM".to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Boots the server `boots` times, returning every set-up time and the
/// last process, which the measured phases use.
pub fn boot(bin: &Path, work: &Path, boots: usize) -> Result<(Server, Vec<f64>), String> {
    let mut times = Vec::with_capacity(boots);
    let mut last = None;
    for i in 0..boots.max(1) {
        let sessions = work.join(format!("sessions-{i}"));
        let server = Server::spawn(bin, &sessions, &work.join(format!("server-{i}.log")))?;
        times.push(server.setup_s);
        last = Some(server);
    }
    let server = last.ok_or("no server booted")?;
    Ok((server, times))
}

/// `POST path` on a keep-alive connection. The connection is re-opened
/// for the next request when the server announced `Connection: close`
/// (it closes after a fixed number of requests) or the request failed.
pub fn post(
    client: &mut HttpClient,
    addr: &str,
    path: &str,
    body: &str,
) -> Result<HttpResponse, String> {
    let outcome = client.post_json(path, body);
    let closing = outcome
        .as_ref()
        .map_or(true, |r| r.header("connection") == Some("close"));
    if closing {
        *client = HttpClient::connect(addr, REQUEST_TIMEOUT)
            .map_err(|e| format!("cannot reconnect to {addr}: {e}"))?;
    }
    outcome.map_err(|e| format!("{path}: {e}"))
}

/// One `/metrics` scrape: sample name → value.
pub type Scrape = BTreeMap<String, f64>;

/// Scrapes `/metrics` on a fresh connection (an idle keep-alive one may
/// have been closed by the server).
pub fn scrape(server: &Server) -> Result<Scrape, String> {
    let response = server
        .connect()?
        .get("/metrics")
        .map_err(|e| format!("/metrics failed: {e}"))?;
    if response.status != 200 {
        return Err(format!("/metrics answered {}", response.status));
    }
    Ok(response
        .body
        .lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let (name, value) = line.split_once(' ')?;
            Some((name.to_string(), value.trim().parse().ok()?))
        })
        .collect())
}

/// `after − before` for one series (a missing series reads as zero).
pub fn delta(before: &Scrape, after: &Scrape, name: &str) -> f64 {
    after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
}

/// Mean of a histogram's observations between two scrapes, in ms.
pub fn window_mean_ms(before: &Scrape, after: &Scrape, histogram: &str) -> f64 {
    let count = delta(before, after, &format!("{histogram}_count"));
    let sum = delta(before, after, &format!("{histogram}_sum"));
    if count > 0.0 {
        sum / count * 1e3
    } else {
        f64::NAN
    }
}

/// One request: when it was due, sent and answered, and what went wrong.
#[derive(Debug, Clone)]
pub struct Shot {
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
    pub error: Option<String>,
}

impl Shot {
    /// Latency from when the request was due, in ms.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due).as_secs_f64() * 1e3
    }

    /// Latency from when the request was actually sent, in ms.
    pub fn service_ms(&self) -> f64 {
        (self.done - self.sent).as_secs_f64() * 1e3
    }

    /// How late the generator sent the request, in ms.
    pub fn late_ms(&self) -> f64 {
        (self.sent - self.due).as_secs_f64() * 1e3
    }
}

/// How a phase paces its requests.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Request `k` is due at `start + k / rate`, on connection
    /// `k mod connections`; a connection that falls more than `give_up`
    /// behind stops sending, since its backlog is already growing.
    Open {
        rate: f64,
        count: usize,
        give_up: Duration,
    },
    /// Each connection sends its next request as soon as the previous one
    /// is answered, until `seconds` have passed.
    Closed { seconds: f64 },
}

/// Drives one phase over the given keep-alive connections (one thread
/// each) and returns every request in due order. `send` issues request `k`
/// and checks its answer. The phase also ends early once `stop` is set.
pub fn drive<F>(clients: &mut [HttpClient], pace: Pace, stop: &AtomicBool, send: &F) -> Vec<Shot>
where
    F: Fn(&mut HttpClient, usize) -> Result<(), String> + Sync,
{
    let connections = clients.len();
    let start = Instant::now();
    let mut shots: Vec<Shot> = std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    let mut shots = Vec::new();
                    let mut k = c;
                    while !stop.load(Ordering::Relaxed) {
                        let due = match pace {
                            Pace::Open {
                                rate,
                                count,
                                give_up,
                            } => {
                                if k >= count {
                                    break;
                                }
                                let due = start + Duration::from_secs_f64(k as f64 / rate);
                                let now = Instant::now();
                                if due > now {
                                    std::thread::sleep(due - now);
                                } else if now - due > give_up {
                                    break;
                                }
                                due
                            }
                            Pace::Closed { seconds } => {
                                if start.elapsed().as_secs_f64() >= seconds {
                                    break;
                                }
                                Instant::now()
                            }
                        };
                        let sent = Instant::now();
                        let error = send(client, k).err();
                        shots.push(Shot {
                            due,
                            sent,
                            done: Instant::now(),
                            error,
                        });
                        k += connections;
                    }
                    shots
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("load thread panicked"))
            .collect()
    });
    shots.sort_by_key(|s| s.due);
    shots
}
