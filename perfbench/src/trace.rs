//! Spans recorded by the benchmark around each call into a layer.
//!
//! The program itself carries no tracing: every span wraps a call the
//! benchmark makes into a public function of one crate. A span's layer is
//! the prefix of its name before the first `.` (`serve.handle` belongs to
//! `serve`). Spans of one op share the op id, which is the id of the op's
//! root span. Each thread records into its own [`Recorder`]; the spans stay
//! in memory and are written out when the run ends.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::time::Instant;

/// The name of every op's root span (the harness's own layer).
pub const ROOT: &str = "bench.op";

/// Ops starting after a recorder holds this many spans run untraced, so a
/// run cannot grow the trace without bound (64 bytes a span; an
/// `engine-converge` op records two spans a step over three starts, about
/// 700k).
pub const SPAN_CAP: usize = 1_000_000;

/// One recorded span, in nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Id of the op this span belongs to (its root span's id).
    pub op: u64,
    /// This span's id, unique within the run.
    pub id: u64,
    /// The enclosing span, `None` for an op's root.
    pub parent: Option<u64>,
    /// `layer.call`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// The layer a span belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder. When off, [`Recorder::span`] only runs its
/// closure and reads no clock.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    thread: u64,
    next: u64,
    /// Open spans of the current op: (id, start ns).
    stack: Vec<(u64, u64)>,
    /// Whether the op now running is traced.
    active: bool,
    op: u64,
    spans: Vec<Span>,
    ops_traced: u64,
}

impl Recorder {
    /// A recorder for thread number `thread`; spans are timed from `epoch`.
    pub fn new(on: bool, epoch: Instant, thread: u64) -> Recorder {
        Recorder {
            on,
            epoch,
            thread,
            next: 0,
            stack: Vec::new(),
            active: false,
            op: 0,
            spans: Vec::new(),
            ops_traced: 0,
        }
    }

    /// Run `f` inside a span named `name`. With no span open this starts a
    /// new op (use [`ROOT`] for the name); the op is traced only if the
    /// recorder is on and under [`SPAN_CAP`].
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if self.stack.is_empty() {
            self.active = self.on && self.spans.len() < SPAN_CAP;
        }
        if !self.active {
            return f(self);
        }
        self.next += 1;
        let id = (self.thread << 40) | self.next;
        let parent = self.stack.last().map(|&(id, _)| id);
        if parent.is_none() {
            self.op = id;
            self.ops_traced += 1;
        }
        let start_ns = self.now_ns();
        self.stack.push((id, start_ns));
        let out = f(self);
        self.stack.pop();
        let end_ns = self.now_ns();
        self.spans.push(Span { op: self.op, id, parent, name, start_ns, end_ns });
        out
    }

    /// Switch tracing on or off for ops that start from now on.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Whether the op now running records spans.
    pub fn tracing(&self) -> bool {
        self.active
    }

    /// Whether the recorder holds [`SPAN_CAP`] spans, so no further op
    /// will be traced.
    pub fn full(&self) -> bool {
        self.spans.len() >= SPAN_CAP
    }

    /// Ops that were traced so far.
    pub fn ops_traced(&self) -> u64 {
        self.ops_traced
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Durations (ns) of every span named `name`.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.ns() as f64).collect()
}

/// Self time per layer: each span's duration minus the part of its
/// interval that its child spans cover (overlapping children count once).
pub fn self_ns_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children.entry(parent).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let covered = children.get_mut(&s.id).map_or(0, |kids| covered_ns(kids, s));
        *out.entry(s.layer()).or_insert(0) += s.ns() - covered.min(s.ns());
    }
    out
}

/// Length of the union of `kids`, clipped to `parent`'s interval.
fn covered_ns(kids: &mut [(u64, u64)], parent: &Span) -> u64 {
    kids.sort_unstable();
    let (mut covered, mut reach) = (0, parent.start_ns);
    for &(start, end) in kids.iter() {
        let start = start.max(reach);
        let end = end.min(parent.end_ns);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// The spans as tab-separated text, one span per line after a header.
pub fn to_tsv(spans: &[Span]) -> String {
    let mut out = String::from("op\tid\tparent\tname\tstart_ns\tend_ns\n");
    for s in spans {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        let _ =
            writeln!(out, "{}\t{}\t{parent}\t{}\t{}\t{}", s.op, s.id, s.name, s.start_ns, s.end_ns);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span { op: 1, id, parent, name, start_ns: start, end_ns: end }
    }

    #[test]
    fn self_time_subtracts_children_at_every_depth() {
        // bench.op [0,100) ⊃ ctl.request [10,60) ⊃ serve.handle [20,50),
        // and bench.op ⊃ net.encode [70,80).
        let spans = [
            span(1, None, "bench.op", 0, 100),
            span(2, Some(1), "ctl.request", 10, 60),
            span(3, Some(2), "serve.handle", 20, 50),
            span(4, Some(1), "net.encode", 70, 80),
        ];
        let by_layer = self_ns_by_layer(&spans);
        assert_eq!(by_layer["bench"], 100 - 50 - 10);
        assert_eq!(by_layer["ctl"], 50 - 30);
        assert_eq!(by_layer["serve"], 30);
        assert_eq!(by_layer["net"], 10);
        // Self times partition the root interval.
        assert_eq!(by_layer.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span(1, None, "bench.op", 0, 100),
            span(2, Some(1), "serve.a", 10, 40),
            span(3, Some(1), "serve.b", 30, 60),
            span(4, Some(1), "serve.c", 90, 120),
        ];
        // Children cover [10,60) and [90,100) of the root.
        assert_eq!(self_ns_by_layer(&spans)["bench"], 100 - 50 - 10);
    }

    #[test]
    fn recorder_nests_spans_under_one_op() {
        let mut rec = Recorder::new(true, Instant::now(), 3);
        let got = rec.span(ROOT, |rec| rec.span("core.call", |rec| rec.span("core.inner", |_| 7)));
        assert_eq!(got, 7);
        rec.span(ROOT, |_| ());
        assert_eq!(rec.ops_traced(), 2);
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 4);
        // Children close first; the op id is the root's id.
        let (inner, call, root) = (spans[0], spans[1], spans[2]);
        assert_eq!(inner.parent, Some(call.id));
        assert_eq!(call.parent, Some(root.id));
        assert_eq!(root.parent, None);
        assert!([inner.op, call.op].iter().all(|&op| op == root.id));
        assert_ne!(spans[3].op, root.id);
        assert!(root.start_ns <= call.start_ns && call.end_ns <= root.end_ns);
        assert!(to_tsv(&spans).lines().nth(1).expect("a span line").contains("core.inner"));
    }

    #[test]
    fn an_off_recorder_records_nothing() {
        let mut rec = Recorder::new(false, Instant::now(), 0);
        assert!(!rec.span(ROOT, |rec| rec.span("x.y", |rec| rec.tracing())));
        assert!(rec.into_spans().is_empty());
    }
}
