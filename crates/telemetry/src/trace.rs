//! Performance tracing: span ids, parent links, per-thread trace buffers
//! with explicit cross-thread propagation, and a Chrome-trace-event
//! (Perfetto-compatible) JSON exporter.
//!
//! Tracing is opt-in ([`enable`], normally via `--trace out.json`) and
//! strictly separate from the journal: trace data never reaches any
//! [`crate::Sink`], so `--canonical-journal` byte-identity is untouched.
//! When disabled, the only cost a span pays is one relaxed atomic load.
//!
//! # Threading model
//!
//! Only threads holding a *trace buffer* record spans. [`enable`] installs
//! one on the calling thread (track 0, the coordinator). A worker thread —
//! even a telemetry-silenced one, which is the point: shard workers mute
//! their events but must still show up in the trace — receives a buffer by
//! [`adopt`]ing a [`TraceHandoff`] captured on the spawning thread. The
//! handoff carries the spawner's innermost open span id, so the worker's
//! root spans get correct cross-thread parent links. The worker [`harvest`]s
//! its records before finishing and hands them back to the coordinator,
//! which [`absorb`]s every shard's buffer in ascending shard order — the
//! merge is deterministic, and a panicked worker simply contributes nothing.
//!
//! # Determinism contract
//!
//! Span ids are allocated from one process-wide atomic, so their numeric
//! values (like every `ts`/`dur` timestamp) vary across runs. The exported
//! *structure* — event names, per-track event counts, and the parent/child
//! nesting shape — is a pure function of the seeded computation and is
//! asserted identical across same-seed runs by the determinism suite.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use serde_json::Value;

use crate::FieldValue;

/// One closed span captured by the tracer.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// Span name (a `names::SPAN_*` constant).
    pub name: &'static str,
    /// Track (Chrome `tid`): 0 is the coordinator, `1 + shard` a worker.
    pub track: u64,
    /// Process-unique span id.
    pub id: u64,
    /// Id of the enclosing span (0 for a root), possibly on another track.
    pub parent: u64,
    /// Microseconds from the trace epoch to the span opening.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
    /// Fields attached to the span via [`crate::SpanTimer::with`].
    pub args: Vec<(&'static str, FieldValue)>,
}

/// The cross-thread propagation token: captures the spawning thread's
/// innermost open span so a worker's roots parent onto it. `Copy + Send`,
/// made to be moved into a `thread::spawn` closure.
#[derive(Debug, Clone, Copy)]
pub struct TraceHandoff {
    parent: u64,
    track: u64,
}

impl TraceHandoff {
    /// The spawning thread's track, for helpers that run a slice of the
    /// spawner's own work and should appear on its track rather than on a
    /// shard track of their own.
    pub fn track(&self) -> u64 {
        self.track
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
/// 0 is reserved for "no parent"; ids start at 1.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();
/// Records absorbed from worker buffers (the exporting thread's own buffer
/// is drained directly at export time).
static ABSORBED: Mutex<Vec<TraceRecord>> = Mutex::new(Vec::new());

thread_local! {
    static BUFFER: RefCell<Option<ThreadTrace>> = const { RefCell::new(None) };
}

struct ThreadTrace {
    track: u64,
    root_parent: u64,
    /// Ids of the spans currently open on this thread, outermost first.
    stack: Vec<u64>,
    records: Vec<TraceRecord>,
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

fn epoch_us() -> u64 {
    epoch().elapsed().as_micros().min(u128::from(u64::MAX)) as u64
}

/// Turns tracing on process-wide and installs the coordinator buffer
/// (track 0) on the calling thread. Idempotent; the first call pins the
/// trace epoch all timestamps are relative to.
pub fn enable() {
    let _ = epoch();
    ENABLED.store(true, Ordering::Release);
    BUFFER.with(|buffer| {
        let mut buffer = buffer.borrow_mut();
        if buffer.is_none() {
            *buffer = Some(ThreadTrace {
                track: 0,
                root_parent: 0,
                stack: Vec::new(),
                records: Vec::new(),
            });
        }
    });
}

/// Whether tracing is on ([`enable`] was called and not undone by a test).
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Acquire)
}

/// Captures the current thread's innermost open span as the parent for a
/// worker thread's roots. `None` when tracing is off or this thread has no
/// buffer — pass it along anyway; [`adopt`] of `None` is a no-op guard.
pub fn handoff() -> Option<TraceHandoff> {
    if !is_enabled() {
        return None;
    }
    BUFFER.with(|buffer| {
        buffer.borrow().as_ref().map(|b| TraceHandoff {
            parent: b.stack.last().copied().unwrap_or(b.root_parent),
            track: b.track,
        })
    })
}

/// RAII guard for an adopted trace buffer; dropping it uninstalls the
/// buffer (discarding anything not [`harvest`]ed, e.g. on a panic path).
#[derive(Debug)]
pub struct AdoptGuard {
    installed: bool,
}

impl Drop for AdoptGuard {
    fn drop(&mut self) {
        if self.installed {
            BUFFER.with(|buffer| buffer.borrow_mut().take());
        }
    }
}

/// Installs a trace buffer for `track` on the current thread, parenting its
/// root spans onto the handoff's span. Tracing the thread ends when the
/// returned guard drops. Adopting `None` (tracing off) is a no-op.
pub fn adopt(handoff: Option<TraceHandoff>, track: u64) -> AdoptGuard {
    let Some(handoff) = handoff else {
        return AdoptGuard { installed: false };
    };
    BUFFER.with(|buffer| {
        *buffer.borrow_mut() = Some(ThreadTrace {
            track,
            root_parent: handoff.parent,
            stack: Vec::new(),
            records: Vec::new(),
        });
    });
    AdoptGuard { installed: true }
}

/// Takes every record the current thread buffered so far (the buffer stays
/// installed). Workers call this right before returning so the coordinator
/// can [`absorb`] the records deterministically.
pub fn harvest() -> Vec<TraceRecord> {
    BUFFER.with(|buffer| {
        buffer
            .borrow_mut()
            .as_mut()
            .map(|b| std::mem::take(&mut b.records))
            .unwrap_or_default()
    })
}

/// Merges harvested worker records into the process trace. Callers absorb
/// shards in ascending order, which keeps the export deterministic.
pub fn absorb(records: Vec<TraceRecord>) {
    if records.is_empty() {
        return;
    }
    crate::recover(ABSORBED.lock()).extend(records);
}

/// A span being traced: allocated at open, closed on timer drop.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OpenSpan {
    id: u64,
    parent: u64,
    start_us: u64,
}

/// Called by [`crate::SpanTimer::open`]. Returns `None` (one atomic load)
/// unless tracing is on *and* this thread holds a buffer.
pub(crate) fn on_span_open() -> Option<OpenSpan> {
    if !is_enabled() {
        return None;
    }
    BUFFER.with(|buffer| {
        let mut buffer = buffer.borrow_mut();
        let buffer = buffer.as_mut()?;
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let parent = buffer.stack.last().copied().unwrap_or(buffer.root_parent);
        buffer.stack.push(id);
        Some(OpenSpan {
            id,
            parent,
            start_us: epoch_us(),
        })
    })
}

/// Called by the span timer's drop. Pops exactly this span's frame (ids are
/// unique, so an out-of-order or mid-unwind drop cannot corrupt siblings)
/// and buffers the record. Never panics: a timer dropped on a thread that
/// lost or never had a buffer is simply not recorded.
pub(crate) fn on_span_close(
    open: OpenSpan,
    name: &'static str,
    elapsed: Duration,
    args: &[(&'static str, FieldValue)],
) {
    BUFFER.with(|buffer| {
        let mut buffer = buffer.borrow_mut();
        let Some(buffer) = buffer.as_mut() else {
            return;
        };
        if let Some(frame) = buffer.stack.iter().rposition(|&id| id == open.id) {
            buffer.stack.truncate(frame);
        }
        buffer.records.push(TraceRecord {
            name,
            track: buffer.track,
            id: open.id,
            parent: open.parent,
            start_us: open.start_us,
            dur_us: elapsed.as_micros().min(u128::from(u64::MAX)) as u64,
            args: args.to_vec(),
        });
    });
}

/// Drains every buffered record — the calling thread's own buffer plus
/// everything [`absorb`]ed from workers — sorted by track, then start time.
pub fn drain_records() -> Vec<TraceRecord> {
    let mut records = std::mem::take(&mut *crate::recover(ABSORBED.lock()));
    records.append(&mut harvest());
    records.sort_by_key(|r| (r.track, r.start_us, r.id));
    records
}

/// Human name for a track: `coordinator` for 0, `shard-<i>` for workers.
fn track_name(track: u64) -> String {
    if track == 0 {
        "coordinator".to_string()
    } else {
        format!("shard-{}", track - 1)
    }
}

/// Renders records as Chrome-trace-event JSON (the object form with a
/// `traceEvents` array), loadable by Perfetto and `chrome://tracing`. Spans
/// become `ph:"X"` complete events with `ts`/`dur` in microseconds; every
/// span carries its `span_id` and `parent_span_id` args, and each track
/// gets a `thread_name` metadata event.
pub fn render_chrome_trace(records: &[TraceRecord]) -> String {
    let mut events: Vec<Value> = Vec::with_capacity(records.len() + 4);
    let mut tracks: Vec<u64> = records.iter().map(|r| r.track).collect();
    tracks.sort_unstable();
    tracks.dedup();
    for &track in &tracks {
        events.push(Value::Map(vec![
            ("ph".to_string(), Value::Str("M".to_string())),
            ("pid".to_string(), Value::U64(1)),
            ("tid".to_string(), Value::U64(track)),
            ("name".to_string(), Value::Str("thread_name".to_string())),
            (
                "args".to_string(),
                Value::Map(vec![("name".to_string(), Value::Str(track_name(track)))]),
            ),
        ]));
    }
    for record in records {
        let mut args = vec![
            ("span_id".to_string(), Value::U64(record.id)),
            ("parent_span_id".to_string(), Value::U64(record.parent)),
        ];
        for (key, value) in &record.args {
            args.push((key.to_string(), value.to_json()));
        }
        events.push(Value::Map(vec![
            ("ph".to_string(), Value::Str("X".to_string())),
            ("pid".to_string(), Value::U64(1)),
            ("tid".to_string(), Value::U64(record.track)),
            ("name".to_string(), Value::Str(record.name.to_string())),
            ("cat".to_string(), Value::Str("span".to_string())),
            ("ts".to_string(), Value::U64(record.start_us)),
            ("dur".to_string(), Value::U64(record.dur_us)),
            ("args".to_string(), Value::Map(args)),
        ]));
    }
    let trace = Value::Map(vec![
        ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
        ("traceEvents".to_string(), Value::Seq(events)),
    ]);
    let mut out = Vec::new();
    let _ = serde_json::to_writer(&mut out, &trace);
    String::from_utf8(out).unwrap_or_default()
}

/// Drains all buffered records and renders them; the convenience the
/// `--trace <path>` flag calls once at the end of a binary.
pub fn export_chrome_trace() -> String {
    render_chrome_trace(&drain_records())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tracing tests share one process-global tracer, so they run under one
    /// lock and each starts from a drained state.
    fn with_tracer(test: impl FnOnce()) {
        static LOCK: Mutex<()> = Mutex::new(());
        let _guard = crate::recover(LOCK.lock());
        enable();
        let _ = drain_records();
        test();
        let _ = drain_records();
    }

    #[test]
    fn spans_record_with_parent_links() {
        with_tracer(|| {
            {
                let _outer = crate::span("tr_outer");
                let _inner = crate::span("tr_inner");
            }
            let records = drain_records();
            let outer = records.iter().find(|r| r.name == "tr_outer").unwrap();
            let inner = records.iter().find(|r| r.name == "tr_inner").unwrap();
            assert_eq!(outer.parent, 0);
            assert_eq!(inner.parent, outer.id);
            assert_ne!(inner.id, outer.id);
            assert_eq!(outer.track, 0);
        });
    }

    #[test]
    fn handoff_parents_worker_roots_across_threads() {
        with_tracer(|| {
            let outer = crate::span("tr_coord");
            let token = handoff();
            assert!(token.is_some());
            let worker_records = std::thread::spawn(move || {
                let _mute = crate::silence_thread();
                let _guard = adopt(token, 3);
                {
                    let _span = crate::span("tr_worker");
                }
                harvest()
            })
            .join()
            .unwrap();
            assert_eq!(worker_records.len(), 1);
            assert_eq!(worker_records[0].name, "tr_worker");
            assert_eq!(worker_records[0].track, 3);
            let coord_id = {
                // The worker root's parent is the coordinator span open at
                // handoff time.
                let records_parent = worker_records[0].parent;
                absorb(worker_records.clone());
                records_parent
            };
            drop(outer);
            let records = drain_records();
            let outer = records.iter().find(|r| r.name == "tr_coord").unwrap();
            assert_eq!(coord_id, outer.id);
            assert!(records.iter().any(|r| r.name == "tr_worker"));
        });
    }

    #[test]
    fn handoff_carries_the_spawners_track() {
        with_tracer(|| {
            let token = handoff();
            assert_eq!(token.map(|h| h.track()), Some(0));
            let nested = std::thread::spawn(move || {
                let _guard = adopt(token, 4);
                handoff().map(|h| h.track())
            })
            .join()
            .unwrap();
            assert_eq!(nested, Some(4));
        });
    }

    #[test]
    fn untraced_threads_record_nothing() {
        with_tracer(|| {
            let count = std::thread::spawn(|| {
                let _span = crate::span("tr_orphan");
                drop(_span);
                harvest().len()
            })
            .join()
            .unwrap();
            assert_eq!(count, 0, "no buffer, no records");
        });
    }

    #[test]
    fn chrome_export_is_loadable_shaped() {
        with_tracer(|| {
            {
                let _span = crate::span("tr_export").with("answer", 42u64);
            }
            let json = export_chrome_trace();
            let parsed: Value = serde_json::from_str(&json).unwrap();
            let events = match parsed.get("traceEvents") {
                Some(Value::Seq(events)) => events,
                other => panic!("traceEvents missing: {other:?}"),
            };
            let meta = &events[0];
            assert_eq!(meta.get("ph").unwrap().as_str(), Some("M"));
            let span = events
                .iter()
                .find(|e| e.get("name").and_then(Value::as_str) == Some("tr_export"))
                .unwrap();
            assert_eq!(span.get("ph").unwrap().as_str(), Some("X"));
            assert!(span.get("ts").unwrap().as_u64().is_some());
            assert!(span.get("dur").unwrap().as_u64().is_some());
            let args = span.get("args").unwrap();
            assert_eq!(args.get("answer").unwrap().as_u64(), Some(42));
            assert!(args.get("span_id").unwrap().as_u64().unwrap() > 0);
        });
    }

    #[test]
    fn out_of_order_close_cannot_corrupt_the_id_stack() {
        with_tracer(|| {
            let a = crate::span("tr_a");
            let b = crate::span("tr_b");
            drop(a);
            drop(b);
            {
                let _c = crate::span("tr_c");
            }
            let records = drain_records();
            let c = records.iter().find(|r| r.name == "tr_c").unwrap();
            assert_eq!(c.parent, 0, "stale frames must not become parents");
        });
    }

    #[test]
    fn track_names_label_coordinator_and_shards() {
        assert_eq!(track_name(0), "coordinator");
        assert_eq!(track_name(1), "shard-0");
        assert_eq!(track_name(4), "shard-3");
    }
}
