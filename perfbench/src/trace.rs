//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark around its calls into the
//! program's public API; nothing inside the program is instrumented. A
//! disabled [`Tracer`] costs one branch per span, which is how the timed
//! runs stay untraced while sharing code with the traced one.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified call name, e.g. `nn.nnl_segment`.
    pub name: &'static str,
    /// Start, ns since the tracer origin.
    pub start_ns: u64,
    /// End, ns since the tracer origin (0 while the span is open).
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// Request id: the display index of the frame the call served.
    pub req: Option<u32>,
    /// Small per-process thread number.
    pub thread: u64,
}

impl Span {
    /// Span length in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span (inert when tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // (thread number, stack of open span indices) — the stack is what makes
    // a span's parent the innermost span still open on the same thread.
    static STACK: RefCell<(Option<u64>, Vec<usize>)> = const { RefCell::new((None, Vec::new())) };
}

fn thread_number() -> u64 {
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        *s.0.get_or_insert_with(|| NEXT_THREAD.fetch_add(1, Ordering::Relaxed))
    })
}

/// Span recorder shared by every thread of one traced pass.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; `enabled == false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span on the calling thread.
    pub fn open(&self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let thread = thread_number();
        let parent = STACK.with(|s| s.borrow().1.last().copied());
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("tracer lock poisoned");
        let id = spans.len();
        spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            req: None,
            thread,
        });
        drop(spans);
        STACK.with(|s| s.borrow_mut().1.push(id));
        Open(Some(id))
    }

    /// Closes a span opened on the calling thread, tagging its request id.
    pub fn close(&self, open: Open, req: Option<u32>) {
        let Some(id) = open.0 else { return };
        let end_ns = self.now_ns();
        STACK.with(|s| {
            let popped = s.borrow_mut().1.pop();
            debug_assert_eq!(popped, Some(id), "spans must close innermost-first");
        });
        let mut spans = self.spans.lock().expect("tracer lock poisoned");
        spans[id].end_ns = end_ns;
        spans[id].req = req;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&self, name: &'static str, req: Option<u32>, f: impl FnOnce() -> R) -> R {
        let open = self.open(name);
        let out = f();
        self.close(open, req);
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer lock poisoned").clone()
    }
}

/// Per-name aggregate of a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Agg {
    /// Spans with this name.
    pub calls: usize,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus time covered by child spans), ns.
    pub self_ns: u64,
}

impl Agg {
    /// Mean duration per call in milliseconds (0 with no calls).
    pub fn mean_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64 / 1e6
        }
    }
}

/// Self time of every span: its duration minus its children's durations.
/// Children run on the parent's thread and nest inside it, so they never
/// overlap one another.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Aggregates spans by name.
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, Agg> {
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let a = out.entry(s.name).or_default();
        a.calls += 1;
        a.total_ns += s.dur_ns();
        a.self_ns += self_ns;
    }
    out
}

/// Share (percent) of the root spans' wall time that the self times of the
/// spans below them account for. Root spans are those without a parent on
/// `thread`; what they do outside any child span is unattributed time.
pub fn coverage_pct(spans: &[Span], thread: u64) -> f64 {
    let selfs = self_times(spans);
    let (mut root_ns, mut root_self_ns) = (0u64, 0u64);
    for (s, self_ns) in spans.iter().zip(selfs) {
        if s.thread == thread && s.parent.is_none() {
            root_ns += s.dur_ns();
            root_self_ns += self_ns;
        }
    }
    if root_ns == 0 {
        0.0
    } else {
        100.0 * (root_ns - root_self_ns) as f64 / root_ns as f64
    }
}

/// Renders a span set as JSON lines (one span per line), for the dump
/// written at the end of a traced run.
pub fn render_jsonl(pass: &str, spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let req = s.req.map_or("null".to_string(), |r| r.to_string());
        let _ = writeln!(
            out,
            "{{\"pass\": \"{pass}\", \"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \
             \"end_ns\": {}, \"parent\": {parent}, \"req\": {req}, \"thread\": {}}}",
            s.name, s.start_ns, s.end_ns, s.thread
        );
    }
    out
}

/// Human-readable self-time table of one pass: calls, total and self
/// milliseconds, and each name's share of the summed self time.
pub fn render_table(pass: &str, spans: &[Span]) -> String {
    let agg = aggregate(spans);
    let all_self: u64 = agg.values().map(|a| a.self_ns).sum();
    let mut rows: Vec<_> = agg.into_iter().collect();
    rows.sort_by_key(|(_, a)| std::cmp::Reverse(a.self_ns));
    let mut out = format!(
        "{pass}: {:<28} {:>6} {:>11} {:>11} {:>7}\n",
        "span", "calls", "total_ms", "self_ms", "self%"
    );
    for (name, a) in rows {
        let _ = writeln!(
            out,
            "{pass}: {name:<28} {:>6} {:>11.2} {:>11.2} {:>6.1}%",
            a.calls,
            a.total_ns as f64 / 1e6,
            a.self_ns as f64 / 1e6,
            100.0 * a.self_ns as f64 / all_self.max(1) as f64
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_get_parents_and_self_times() {
        let t = Tracer::new(true);
        t.span("outer", None, || {
            t.span("inner", Some(3), || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].req, Some(3));
        let selfs = self_times(&spans);
        assert_eq!(selfs[0] + selfs[1], spans[0].dur_ns());
        let agg = aggregate(&spans);
        assert_eq!(agg["inner"].calls, 1);
        assert!(coverage_pct(&spans, spans[0].thread) > 50.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.span("x", None, || 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }
}
