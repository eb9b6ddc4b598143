//! Spans around each call the benchmark makes into a layer.
//!
//! A span holds the `layer.function` name, start, end, parent span and a
//! request id (circuit or job). Spans stay in memory until the run ends.
//! Timing is always taken; recording happens only when tracing is on.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id (1-based).
    pub id: u64,
    /// Enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// `layer.function`.
    pub name: &'static str,
    /// Circuit or job the call served.
    pub request: u64,
    /// Benchmark thread that made the call.
    pub thread: u64,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// The layer: the name up to its first dot.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Span recorder; a disabled tracer only times.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records spans when `on`.
    #[must_use]
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Run `f`, returning its result and its duration in seconds; when
    /// tracing is on, record it as a span named `name` for `request`.
    pub fn timed<T>(&self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> (T, f64) {
        if !self.on {
            let t0 = Instant::now();
            let out = f();
            return (out, t0.elapsed().as_secs_f64());
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|o| {
            let mut o = o.borrow_mut();
            let parent = o.last().copied();
            o.push(id);
            parent
        });
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        OPEN.with(|o| o.borrow_mut().pop());
        let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            name,
            request,
            thread: THREAD.with(|t| *t),
            start_ns: ns(t0),
            end_ns: ns(t1),
        };
        self.spans.lock().expect("span list lock").push(span);
        (out, (t1 - t0).as_secs_f64())
    }

    /// Every span recorded so far, in completion order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock").clone()
    }
}

/// Self time per layer, in seconds: each span's duration minus the part of
/// it that its child spans cover.
#[must_use]
pub fn self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
        }
        let own = (s.end_ns - s.start_ns).saturating_sub(covered);
        *out.entry(s.layer()).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

/// Spans as a JSON array, one object per line.
#[must_use]
pub fn to_json(spans: &[Span]) -> String {
    let mut s = String::from("[\n");
    for (i, sp) in spans.iter().enumerate() {
        let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
        s += &format!(
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"request\":{},\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}{}\n",
            sp.id,
            sp.name,
            sp.request,
            sp.thread,
            sp.start_ns,
            sp.end_ns,
            if i + 1 < spans.len() { "," } else { "" }
        );
    }
    s + "]\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            request: 0,
            thread: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = [
            span(1, None, "bench.pass", 0, 1000),
            span(2, Some(1), "exec.run_plan", 100, 400),
            span(3, Some(1), "measure.sample", 300, 600),
            span(4, Some(2), "qasm.parse", 150, 250),
        ];
        let t = self_seconds(&spans);
        assert!((t["bench"] - 500e-9).abs() < 1e-15);
        assert!((t["exec"] - 200e-9).abs() < 1e-15);
        assert!((t["measure"] - 300e-9).abs() < 1e-15);
        assert!((t["qasm"] - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn nested_calls_record_their_parent() {
        let tr = Tracer::new(true);
        tr.timed("bench.pass", 7, || tr.timed("qasm.parse", 7, || ()));
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        let parse = spans.iter().find(|s| s.name == "qasm.parse").unwrap();
        let pass = spans.iter().find(|s| s.name == "bench.pass").unwrap();
        assert_eq!(parse.parent, Some(pass.id));
        assert_eq!(pass.parent, None);
        assert!(Tracer::new(false).spans().is_empty());
    }
}
