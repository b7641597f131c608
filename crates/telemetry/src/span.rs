//! RAII span timers: a duration histogram, a `profile` event and a trace
//! record per closed span.

use std::cell::RefCell;
use std::time::Instant;

use crate::{FieldValue, Level};

thread_local! {
    /// Names of the spans currently open on this thread, outermost first.
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// RAII wall-clock timer: opens a span on creation, and on drop records the
/// elapsed time in the span's duration histogram and emits a `profile` event
/// carrying the span path, duration, and any attached fields.
#[must_use = "a span timer measures until it is dropped"]
#[derive(Debug)]
pub struct SpanTimer {
    name: &'static str,
    depth: usize,
    start: Instant,
    fields: Vec<(&'static str, FieldValue)>,
    trace: Option<crate::trace::OpenSpan>,
}

impl SpanTimer {
    pub(crate) fn open(name: &'static str) -> Self {
        let depth = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            stack.push(name);
            stack.len() - 1
        });
        SpanTimer {
            name,
            depth,
            start: Instant::now(),
            fields: Vec::new(),
            trace: crate::trace::on_span_open(),
        }
    }

    /// Attaches a field reported on the span-close event.
    pub fn with(mut self, key: &'static str, value: impl Into<FieldValue>) -> Self {
        self.fields.push((key, value.into()));
        self
    }

    /// The span's full path, `outer/inner/...`.
    pub fn path(&self) -> String {
        SPAN_STACK.with(|stack| {
            let stack = stack.borrow();
            if stack.is_empty() {
                self.name.to_string()
            } else {
                stack[..=self.depth.min(stack.len() - 1)].join("/")
            }
        })
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        if let Some(open) = self.trace.take() {
            crate::trace::on_span_close(open, self.name, elapsed, &self.fields);
        }
        // Rebuild the path, then unwind the stack to this span's depth. The
        // truncate (rather than a pop) keeps the stack sane even if an inner
        // span leaked past its parent, and the clamps keep an out-of-order or
        // mid-unwind drop — another timer on this thread may already have
        // truncated below us — from indexing past the live stack.
        let path = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let path = if stack.is_empty() {
                self.name.to_string()
            } else {
                stack[..=self.depth.min(stack.len() - 1)].join("/")
            };
            let keep = self.depth.min(stack.len());
            stack.truncate(keep);
            path
        });
        // Feed the per-span duration histogram so live scrapes (`/metrics`)
        // see tail latencies without waiting for journal post-processing.
        crate::global()
            .metrics
            .histogram(&crate::names::span_seconds(self.name))
            .record(elapsed.as_secs_f64());
        let mut fields = vec![
            ("span", FieldValue::Str(path)),
            (
                "duration_us",
                FieldValue::U64(elapsed.as_micros().min(u128::from(u64::MAX)) as u64),
            ),
        ];
        fields.append(&mut self.fields);
        crate::emit(Level::Debug, "profile", self.name, &fields);
    }
}

#[cfg(test)]
mod tests {
    use crate::{FieldValue, MemorySink, Sink};
    use std::sync::Arc;

    /// Runs `body` with a memory sink attached and returns the
    /// `(span name, path)` of every `profile` event it captured. Other tests
    /// share the process-global sinks, so callers filter by span name.
    fn closed_spans(body: impl FnOnce()) -> Vec<(String, String)> {
        let sink = Arc::new(MemorySink::default());
        let registered: Arc<dyn Sink> = sink.clone();
        crate::add_sink(Arc::clone(&registered));
        body();
        crate::remove_sink(&registered);
        let mut spans = Vec::new();
        for event in sink.events() {
            if event.target != "profile" {
                continue;
            }
            if let Some((_, FieldValue::Str(path))) =
                event.fields.iter().find(|(k, _)| *k == "span")
            {
                spans.push((event.message.clone(), path.clone()));
            }
        }
        spans
    }

    fn paths_of<'a>(spans: &'a [(String, String)], name: &str) -> Vec<&'a str> {
        spans
            .iter()
            .filter(|(span, _)| span == name)
            .map(|(_, path)| path.as_str())
            .collect()
    }

    #[test]
    fn span_drop_records_a_duration_histogram() {
        {
            let _span = crate::span("st_histogram");
        }
        let histogram = crate::histogram(&crate::names::span_seconds("st_histogram"));
        assert!(histogram.count() >= 1);
        assert!(histogram.quantile(0.99).is_some());
    }

    #[test]
    fn out_of_order_drops_do_not_panic_or_corrupt_siblings() {
        let spans = closed_spans(|| {
            let a = crate::span("st_ooo_a");
            let b = crate::span("st_ooo_b");
            drop(a); // closes the parent first, emptying this thread's stack
            drop(b); // must not underflow, and must record under its own name
            {
                let _c = crate::span("st_ooo_c");
            }
        });
        assert_eq!(paths_of(&spans, "st_ooo_b"), ["st_ooo_b"]);
        assert_eq!(paths_of(&spans, "st_ooo_c"), ["st_ooo_c"]);
    }

    #[test]
    fn span_timers_nest_and_record() {
        let mut inner_path = String::new();
        let spans = closed_spans(|| {
            let outer = crate::span("st_outer");
            {
                let inner = crate::span("st_inner");
                inner_path = inner.path();
            }
            drop(outer);
        });
        assert_eq!(inner_path, "st_outer/st_inner");
        assert_eq!(paths_of(&spans, "st_inner"), ["st_outer/st_inner"]);
        assert_eq!(paths_of(&spans, "st_outer"), ["st_outer"]);
    }
}
