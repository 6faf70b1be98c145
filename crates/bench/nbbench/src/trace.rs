//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name `"<layer>.<call>"`, a start and end on one monotonic
//! clock, the span open on the same thread when it began (its parent), and
//! the request or step id it served. Spans are kept in memory while the
//! workload runs and written out when it ends. Recording is off unless
//! [`set_enabled`] turned it on; a disabled [`span`] costs one atomic load.
//!
//! Spans are taken from the benchmark's side of each public call: time
//! spent inside a layer's own threads (nb-serve workers, pool helpers) is
//! not visible here.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRec {
    /// `"<layer>.<call>"`.
    pub name: &'static str,
    /// Nanoseconds since the trace origin.
    pub start_ns: u64,
    /// Nanoseconds since the trace origin (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// Request, step or call id.
    pub id: u64,
    /// Recording thread, numbered in order of first use.
    pub thread: u64,
}

impl SpanRec {
    /// The layer this span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<SpanRec>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    origin().elapsed().as_nanos() as u64
}

fn spans() -> std::sync::MutexGuard<'static, Vec<SpanRec>> {
    SPANS
        .lock()
        .expect("a thread panicked while recording a span")
}

/// Starts or stops recording for the whole process.
pub fn set_enabled(on: bool) {
    origin();
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; it ends when dropped.
#[must_use = "a span ends when this guard is dropped"]
pub struct Span(Option<usize>);

/// Opens a span named `"<layer>.<call>"` for request or step `id`.
pub fn span(name: &'static str, id: u64) -> Span {
    if !enabled() {
        return Span(None);
    }
    let parent = STACK.with(|s| s.borrow().last().copied());
    let rec = SpanRec {
        name,
        start_ns: now_ns(),
        end_ns: 0,
        parent,
        id,
        thread: THREAD.with(|t| *t),
    };
    let idx = {
        let mut all = spans();
        all.push(rec);
        all.len() - 1
    };
    STACK.with(|s| s.borrow_mut().push(idx));
    Span(Some(idx))
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(idx) = self.0 {
            let end = now_ns();
            STACK.with(|s| s.borrow_mut().pop());
            // Never panic in drop: a poisoned or drained store just loses
            // this end.
            if let Ok(mut all) = SPANS.lock() {
                if let Some(rec) = all.get_mut(idx) {
                    rec.end_ns = end;
                }
            }
        }
    }
}

/// Removes and returns every recorded span.
pub fn take() -> Vec<SpanRec> {
    std::mem::take(&mut *spans())
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Totals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus direct children), nanoseconds.
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the part its direct child
/// spans cover.
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Totals per span name.
pub fn totals_by_name(spans: &[SpanRec]) -> BTreeMap<&'static str, Totals> {
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += own;
    }
    out
}

/// Self time per layer.
pub fn self_ns_by_layer(spans: &[SpanRec]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer()).or_insert(0) += own;
    }
    out
}

/// The spans and their totals as one JSON document.
pub fn to_json(spans: &[SpanRec], metrics: &[(String, f64, &str)]) -> String {
    let mut out = String::from("{\n  \"totals\": {");
    let totals = totals_by_name(spans);
    for (i, (name, t)) in totals.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    \"{name}\": {{\"count\": {}, \"total_us\": {:.3}, \"self_us\": {:.3}}}",
            t.count,
            t.total_ns as f64 / 1e3,
            t.self_ns as f64 / 1e3
        ));
    }
    out.push_str("\n  },\n  \"per_layer\": {");
    for (i, (name, v, unit)) in metrics.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    \"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            crate::report::json_number(*v)
        ));
    }
    out.push_str("\n  },\n  \"spans\": [");
    for (i, (s, own)) in spans.iter().zip(self_times(spans)).enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}, \
             \"parent\": {parent}, \"id\": {}, \"thread\": {}}}",
            s.name, s.start_ns, s.end_ns, s.id, s.thread
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            name,
            start_ns,
            end_ns,
            parent,
            id: 0,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            rec("bench.round", 0, 100, None),
            rec("nb-nn.run_in", 10, 40, Some(0)),
            rec("nb-nn.run_in", 50, 90, Some(0)),
            rec("nb-tensor.kernel", 60, 70, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 30, 10]);
        let by_layer = self_ns_by_layer(&spans);
        assert_eq!(by_layer["bench"], 30);
        assert_eq!(by_layer["nb-nn"], 60);
        assert_eq!(by_layer["nb-tensor"], 10);
        let t = totals_by_name(&spans)["nb-nn.run_in"];
        assert_eq!((t.count, t.total_ns, t.self_ns), (2, 70, 60));
        let json = to_json(&spans, &[("x.y".into(), 1.5, "ms")]);
        assert!(json.contains("\"nb-nn.run_in\": {\"count\": 2"));
        assert!(json.contains("\"x.y\": {\"value\": 1.5, \"unit\": \"ms\"}"));
    }

    #[test]
    fn recorder_nests_per_thread_and_is_off_by_default() {
        // One test owns the process-wide recorder, so states are checked
        // in sequence here rather than in separate tests.
        assert!(!enabled());
        drop(span("bench.ignored", 0));
        assert!(take().is_empty(), "disabled spans are not recorded");
        set_enabled(true);
        {
            let _outer = span("bench.outer", 1);
            std::thread::scope(|s| {
                s.spawn(|| drop(span("nb-serve.other_thread", 2)));
            });
            let _inner = span("nb-nn.inner", 3);
        }
        set_enabled(false);
        let got = take();
        assert_eq!(got.len(), 3);
        let outer = got.iter().position(|s| s.name == "bench.outer").unwrap();
        let inner = got.iter().find(|s| s.name == "nb-nn.inner").unwrap();
        let other = got
            .iter()
            .find(|s| s.name == "nb-serve.other_thread")
            .unwrap();
        assert_eq!(inner.parent, Some(outer));
        assert_eq!(other.parent, None, "parents never cross threads");
        assert_ne!(other.thread, inner.thread);
        assert!(got.iter().all(|s| s.end_ns >= s.start_ns && s.end_ns > 0));
    }
}
