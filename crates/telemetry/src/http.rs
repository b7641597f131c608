//! Minimal std-only HTTP request loop, plus the metrics endpoint built on
//! top of it.
//!
//! The core is [`serve_http`]: a multi-threaded accept loop that parses
//! requests (head + `Content-Length` body), honors `Connection: keep-alive`
//! with a per-read deadline, and hands every request to a router callback.
//! It exists so every long-running binary in the workspace — the metrics
//! scrape endpoint here, the scoring server in `hotspot-serve` — shares one
//! connection loop instead of growing private ones.
//!
//! [`serve_metrics`] is the original metrics endpoint, now a thin router
//! over the shared loop:
//!
//! - `GET /metrics` — the current [`crate::snapshot`] rendered by
//!   [`crate::render_prometheus`] (`text/plain; version=0.0.4`);
//! - `GET /healthz` — `ok`, for liveness probes.
//!
//! The returned handles stop the accept loops and join the serving threads
//! on shutdown (or drop), so tests and `--metrics-addr` binaries exit
//! cleanly.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::export::render_prometheus;

/// How long one read may stall before an idle keep-alive connection is
/// dropped; keeps a stalled client from wedging a worker forever.
const IO_TIMEOUT: Duration = Duration::from_millis(500);

/// Head bytes (request line + headers) accepted before the request is
/// rejected as malformed.
const MAX_HEAD: usize = 16 * 1024;

/// Largest accepted request body; a longer one is answered 413.
const MAX_BODY: usize = 4 * 1024 * 1024;

/// Requests served on one connection before it is closed.
const MAX_KEEP_ALIVE: usize = 1024;

/// A parsed HTTP request handed to the router callback.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method token as sent (`GET`, `POST`, …).
    pub method: String,
    /// Request path with any query string still attached.
    pub path: String,
    /// Header `(name, value)` pairs; names are lowercased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First header value under `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let wanted = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == wanted)
            .map(|(_, v)| v.as_str())
    }

    /// The path without its query string.
    pub fn route_path(&self) -> &str {
        self.path.split('?').next().unwrap_or("")
    }

    /// Whether the client asked for the connection to close after this
    /// response (`Connection: close`).
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// A response produced by the router callback.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: String,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// Extra headers appended verbatim (e.g. `Retry-After`).
    pub headers: Vec<(String, String)>,
    /// Force `Connection: close` after this response.
    pub close: bool,
}

impl Response {
    /// Builds a response with an explicit content type.
    pub fn new(status: u16, content_type: impl Into<String>, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            content_type: content_type.into(),
            body: body.into(),
            headers: Vec::new(),
            close: false,
        }
    }

    /// Plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response::new(
            status,
            "text/plain; charset=utf-8",
            body.into().into_bytes(),
        )
    }

    /// JSON response (`application/json`).
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Response::new(status, "application/json", body.into().into_bytes())
    }

    /// Appends one extra response header.
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }
}

/// Canonical reason phrase for the status codes this workspace emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "",
    }
}

/// Tuning knobs for [`serve_http`].
#[derive(Debug, Clone)]
pub struct HttpOptions {
    /// Worker threads sharing the accept loop.
    pub threads: usize,
    /// Per-read deadline; an idle keep-alive connection is dropped after
    /// one deadline without a new request.
    pub read_timeout: Duration,
    /// Name prefix for the worker threads.
    pub thread_name: String,
}

impl Default for HttpOptions {
    fn default() -> Self {
        HttpOptions {
            threads: 1,
            read_timeout: IO_TIMEOUT,
            thread_name: "lithohd-http".to_string(),
        }
    }
}

/// The router callback type: pure request → response.
pub type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

/// Handle to a running HTTP request loop (see [`serve_http`]).
#[derive(Debug)]
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// The bound address — useful with port `0`, where the OS picks one.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins every worker. Idempotent; also
    /// invoked on drop.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Workers only re-check the flag per accepted connection; poke one
        // connection per worker to wake them all.
        for _ in 0..self.handles.len() {
            let _ = TcpStream::connect(self.addr);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Starts a multi-threaded HTTP request loop on `addr` (e.g.
/// `127.0.0.1:9184`, or port `0` to let the OS choose) and routes every
/// request through `handler` until the returned handle shuts down.
///
/// # Errors
///
/// Propagates the bind failure (address in use, permission denied, …) and
/// worker-spawn failures.
pub fn serve_http(addr: &str, options: HttpOptions, handler: Handler) -> io::Result<HttpServer> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let threads = options.threads.max(1);
    let options = Arc::new(options);
    let mut handles = Vec::with_capacity(threads);
    for worker in 0..threads {
        let listener = listener.try_clone()?;
        let stop = Arc::clone(&stop);
        let options = Arc::clone(&options);
        let handler = Arc::clone(&handler);
        let handle = std::thread::Builder::new()
            .name(format!("{}-{worker}", options.thread_name))
            .spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    match stream {
                        Ok(stream) => handle_connection(stream, &options, &handler, &stop),
                        Err(_) => continue,
                    }
                }
            })?;
        handles.push(handle);
    }
    crate::info(
        "telemetry.http",
        "serving http",
        &[
            ("addr", addr.to_string().into()),
            ("threads", (threads as u64).into()),
        ],
    );
    Ok(HttpServer {
        addr,
        stop,
        handles,
    })
}

/// What one attempt to read a request produced.
enum ReadOutcome {
    /// A complete request.
    Request(Request),
    /// Clean end of stream or a read deadline on an idle connection.
    Closed,
    /// A syntactically broken head: answer 400 and close.
    Malformed,
    /// A body larger than `MAX_BODY`: answer 413 and close.
    TooLarge,
}

/// Serves requests on one connection until the client closes, asks to
/// close, a read deadline passes with no new request, or the keep-alive
/// budget is exhausted.
fn handle_connection(
    mut stream: TcpStream,
    options: &HttpOptions,
    handler: &Handler,
    stop: &AtomicBool,
) {
    let _ = stream.set_read_timeout(Some(options.read_timeout));
    let _ = stream.set_write_timeout(Some(options.read_timeout));
    // Bytes read past the previous request's end (pipelined head start).
    let mut leftover: Vec<u8> = Vec::new();
    for served in 0..MAX_KEEP_ALIVE {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let request = match read_request(&mut stream, &mut leftover) {
            ReadOutcome::Request(request) => request,
            ReadOutcome::Closed => break,
            ReadOutcome::Malformed => {
                let mut response = Response::text(400, "malformed request\n");
                response.close = true;
                let _ = write_response(&mut stream, &response);
                break;
            }
            ReadOutcome::TooLarge => {
                let mut response = Response::text(413, "request body too large\n");
                response.close = true;
                let _ = write_response(&mut stream, &response);
                break;
            }
        };
        let mut response = handler(&request);
        let last = served + 1 == MAX_KEEP_ALIVE;
        response.close = response.close || request.wants_close() || last;
        let close = response.close;
        if write_response(&mut stream, &response).is_err() || close {
            break;
        }
    }
}

/// Reads one request: head through the blank line, then a `Content-Length`
/// body. `leftover` carries bytes already read past the previous request.
fn read_request(stream: &mut TcpStream, leftover: &mut Vec<u8>) -> ReadOutcome {
    let mut buffer = std::mem::take(leftover);
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(end) = find_head_end(&buffer) {
            break end;
        }
        if buffer.len() > MAX_HEAD {
            return ReadOutcome::Malformed;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return ReadOutcome::Closed,
            Ok(n) => buffer.extend_from_slice(&chunk[..n]),
            // A timeout mid-head (some bytes already arrived) is a broken
            // request; a timeout on a fresh idle connection is a clean end.
            Err(_) if buffer.is_empty() => return ReadOutcome::Closed,
            Err(_) => return ReadOutcome::Malformed,
        }
    };
    let head = String::from_utf8_lossy(&buffer[..head_end]).into_owned();
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(method), Some(path)) if !method.is_empty() => (method.to_string(), path.to_string()),
        _ => return ReadOutcome::Malformed,
    };
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return ReadOutcome::Malformed;
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok())
        .unwrap_or(0);
    if content_length > MAX_BODY {
        return ReadOutcome::TooLarge;
    }
    let mut body = buffer.split_off(head_end + 4);
    buffer.truncate(head_end);
    while body.len() < content_length {
        match stream.read(&mut chunk) {
            Ok(0) => return ReadOutcome::Malformed,
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(_) => return ReadOutcome::Malformed,
        }
    }
    *leftover = body.split_off(content_length);
    ReadOutcome::Request(Request {
        method,
        path,
        headers,
        body,
    })
}

/// Byte offset of the `\r\n\r\n` head terminator, if complete.
fn find_head_end(buffer: &[u8]) -> Option<usize> {
    buffer.windows(4).position(|w| w == b"\r\n\r\n")
}

fn write_response(stream: &mut TcpStream, response: &Response) -> io::Result<()> {
    let connection = if response.close {
        "close"
    } else {
        "keep-alive"
    };
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len(),
    );
    for (name, value) in &response.headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(&response.body)?;
    stream.flush()
}

/// Handle to a running metrics endpoint (see [`serve_metrics`]).
#[derive(Debug)]
pub struct MetricsServer {
    inner: HttpServer,
}

impl MetricsServer {
    /// The bound address — useful with port `0`, where the OS picks one.
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr()
    }

    /// Stops the accept loop and joins the serving thread. Idempotent;
    /// also invoked on drop.
    pub fn shutdown(&mut self) {
        self.inner.shutdown();
    }
}

/// Starts the `/metrics` + `/healthz` endpoint on `addr` and serves it from
/// a background thread until the returned handle shuts down.
///
/// # Errors
///
/// Propagates the bind failure (address in use, permission denied, …).
pub fn serve_metrics(addr: &str) -> io::Result<MetricsServer> {
    let options = HttpOptions {
        thread_name: "lithohd-metrics".to_string(),
        ..HttpOptions::default()
    };
    let inner = serve_http(addr, options, Arc::new(metrics_route))?;
    Ok(MetricsServer { inner })
}

/// The metrics endpoint's router.
fn metrics_route(request: &Request) -> Response {
    if request.method != "GET" {
        return Response::text(405, "method not allowed\n");
    }
    match request.route_path() {
        "/metrics" => Response::new(
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            render_prometheus(&crate::snapshot()).into_bytes(),
        ),
        "/healthz" => Response::text(200, "ok\n"),
        _ => Response::text(404, "not found\n"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect to metrics server");
        write!(
            stream,
            "GET {path} HTTP/1.1\r\nHost: lithohd\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn serves_metrics_health_and_404() {
        crate::counter("http.test.counter").add(5);
        crate::gauge("http.test.gauge").set(2.5);
        let mut server = serve_metrics("127.0.0.1:0").expect("bind");
        let addr = server.local_addr();

        let metrics = get(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK"));
        assert!(metrics.contains("text/plain; version=0.0.4"));
        assert!(metrics.contains("http_test_counter 5"));
        assert!(metrics.contains("http_test_gauge 2.5"));

        let health = get(addr, "/healthz");
        assert!(health.starts_with("HTTP/1.1 200 OK"));
        assert!(health.ends_with("ok\n"));

        assert!(get(addr, "/nope").starts_with("HTTP/1.1 404"));

        server.shutdown();
        server.shutdown(); // idempotent
    }

    #[test]
    fn non_get_methods_are_rejected() {
        let mut server = serve_metrics("127.0.0.1:0").expect("bind");
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "POST /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 405"));
        server.shutdown();
    }

    /// One read of everything currently buffered (a whole response for the
    /// small bodies these tests produce).
    fn read_response(stream: &mut TcpStream) -> String {
        let mut chunk = [0u8; 4096];
        let mut out = Vec::new();
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => {
                    out.extend_from_slice(&chunk[..n]);
                    let text = String::from_utf8_lossy(&out);
                    if let Some(head_end) = text.find("\r\n\r\n") {
                        let advertised: usize = text[..head_end]
                            .lines()
                            .find_map(|l| l.strip_prefix("Content-Length: "))
                            .and_then(|v| v.parse().ok())
                            .unwrap_or(0);
                        if out.len() >= head_end + 4 + advertised {
                            break;
                        }
                    }
                }
                Err(_) => break,
            }
        }
        String::from_utf8_lossy(&out).into_owned()
    }

    #[test]
    fn keep_alive_serves_multiple_requests_on_one_connection() {
        let mut server = serve_metrics("127.0.0.1:0").expect("bind");
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let first = read_response(&mut stream);
        assert!(first.starts_with("HTTP/1.1 200 OK"), "{first}");
        assert!(first.contains("Connection: keep-alive"), "{first}");

        // Same socket, second request: the connection must still be open.
        write!(
            stream,
            "GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let second = read_response(&mut stream);
        assert!(second.starts_with("HTTP/1.1 200 OK"), "{second}");
        assert!(second.contains("Connection: close"), "{second}");
        server.shutdown();
    }

    #[test]
    fn post_bodies_are_read_by_content_length() {
        let echo: Handler = Arc::new(|request: &Request| {
            Response::text(
                200,
                format!(
                    "{} {} {}",
                    request.method,
                    request.route_path(),
                    String::from_utf8_lossy(&request.body)
                ),
            )
        });
        let mut server =
            serve_http("127.0.0.1:0", HttpOptions::default(), echo).expect("bind echo server");
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        let body = "{\"x\":1}";
        write!(
            stream,
            "POST /score?q=1 HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.ends_with("POST /score {\"x\":1}"), "{response}");
        server.shutdown();
    }

    #[test]
    fn malformed_heads_get_400() {
        let mut server = serve_metrics("127.0.0.1:0").expect("bind");
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "NONSENSE\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        server.shutdown();
    }
}
