//! The harness's own span tracer. Spans are recorded around the calls
//! the benchmark makes into each layer's public functions — nothing
//! inside the program is instrumented. Each workload op is a root span;
//! the calls inside it are child spans sharing its op id. Spans stay in
//! memory and are written out once, when the run ends.
//!
//! With tracing off every wrapper is one branch and a direct call.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Index of the span in the tracer's list.
    pub id: usize,
    /// The enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// The op (root span) this span belongs to.
    pub op: u64,
    /// Layer-qualified name, e.g. `core.plan`.
    pub name: &'static str,
    /// Seconds since the tracer started.
    pub start: f64,
    /// Seconds since the tracer started.
    pub end: f64,
}

impl Span {
    /// Wall seconds the span covers.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// In-memory span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    next_op: Cell<u64>,
}

impl Tracer {
    /// A tracer; `on == false` makes every wrapper a plain call.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            next_op: Cell::new(0),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Run `f` as a new op: a root span with a fresh op id.
    pub fn root<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let op = self.next_op.get();
        self.next_op.set(op + 1);
        self.timed(name, None, op, f)
    }

    /// Run `f` as a child of the innermost open span (a root when none
    /// is open).
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let parent = self.stack.borrow().last().copied();
        match parent {
            Some(p) => {
                let op = self.spans.borrow()[p].op;
                self.timed(name, Some(p), op, f)
            }
            None => self.root(name, f),
        }
    }

    fn timed<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            let start = self.epoch.elapsed().as_secs_f64();
            spans.push(Span {
                id,
                parent,
                op,
                name,
                start,
                end: start,
            });
            id
        };
        self.stack.borrow_mut().push(id);
        let out = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[id].end = self.epoch.elapsed().as_secs_f64();
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Durations of every span called `name`, in recording order.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration)
        .collect()
}

/// Summed duration of every span called `name`.
pub fn total(spans: &[Span], name: &str) -> f64 {
    durations(spans, name).iter().sum()
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
pub fn union_length(intervals: &[(f64, f64)], lo: f64, hi: f64) -> f64 {
    let mut v: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| b > a)
        .collect();
    v.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut covered = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    covered
}

/// Self time of span `id`: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_time(spans: &[Span], id: usize) -> f64 {
    let s = &spans[id];
    let kids: Vec<(f64, f64)> = spans
        .iter()
        .filter(|c| c.parent == Some(id))
        .map(|c| (c.start, c.end))
        .collect();
    s.duration() - union_length(&kids, s.start, s.end)
}

/// Summed self time per span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0.0) += self_time(spans, s.id);
    }
    out
}

/// CPU seconds per call that the replay lanes do not account for:
/// mean CPU per call minus the per-call share of each lane's summed
/// replay time. `lane_totals` are whole-pass sums over `calls` calls.
/// What remains is the executor's own machinery — threads, channels,
/// copies and locks — plus whatever a lane failed to model.
pub fn unattributed_per_call(cpu_per_call: &[f64], lane_totals: &[f64], calls: usize) -> f64 {
    if calls == 0 {
        return 0.0;
    }
    let cpu = cpu_per_call.iter().sum::<f64>() / cpu_per_call.len().max(1) as f64;
    cpu - lane_totals.iter().sum::<f64>() / calls as f64
}

/// JSON lines for the span dump: one object per span with its self time,
/// then one `self_time` summary line per name.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start\":{},\"end\":{},\"self\":{}}}",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.op,
            s.name,
            s.start,
            s.end,
            self_time(spans, s.id)
        );
    }
    for (name, t) in self_times(spans) {
        let _ = writeln!(out, "{{\"self_time\":\"{name}\",\"seconds\":{t}}}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name,
            start,
            end,
        }
    }

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(union_length(&[], 0.0, 10.0), 0.0);
        assert_eq!(union_length(&[(1.0, 3.0), (2.0, 5.0)], 0.0, 10.0), 4.0);
        assert_eq!(union_length(&[(1.0, 2.0), (4.0, 5.0)], 0.0, 10.0), 2.0);
        // Nested and touching intervals.
        assert_eq!(
            union_length(&[(1.0, 6.0), (2.0, 3.0), (6.0, 7.0)], 0.0, 10.0),
            6.0
        );
        // Clipped to the parent.
        assert_eq!(union_length(&[(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0), 3.0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Root [0, 10]; children [1, 4] and [3, 6] overlap (union 5);
        // a grandchild inside the first child must not count for the root.
        let spans = vec![
            span(0, None, "op", 0.0, 10.0),
            span(1, Some(0), "a", 1.0, 4.0),
            span(2, Some(0), "b", 3.0, 6.0),
            span(3, Some(1), "c", 1.5, 2.5),
        ];
        assert_eq!(self_time(&spans, 0), 5.0);
        assert_eq!(self_time(&spans, 1), 2.0);
        assert_eq!(self_time(&spans, 2), 3.0);
        assert_eq!(self_time(&spans, 3), 1.0);
        // Overlapping siblings each keep their own time, so the self
        // times sum past the root's interval by the overlap [3, 4].
        let sum: f64 = self_times(&spans).values().sum();
        assert_eq!(sum, 11.0);
        // Without overlap they partition it exactly.
        let seq = vec![
            span(0, None, "op", 0.0, 10.0),
            span(1, Some(0), "a", 2.0, 5.0),
        ];
        assert_eq!(self_times(&seq).values().sum::<f64>(), 10.0);
    }

    #[test]
    fn tracer_nests_spans_under_one_op() {
        let t = Tracer::new(true);
        let x = t.root("op", || t.span("a", || t.span("b", || 7)));
        assert_eq!(x, 7);
        t.root("op", || ());
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(1))
        );
        assert_eq!((s[0].op, s[1].op, s[2].op, s[3].op), (0, 0, 0, 1));
        assert!(s.iter().all(|x| x.end >= x.start));
        assert!(s[1].start >= s[0].start && s[1].end <= s[0].end);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.root("op", || t.span("a", || 3)), 3);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn replay_lanes_and_unattributed_cpu_on_synthetic_spans() {
        // Two calls at 2.0 and 3.0 CPU-s; replay lanes summed over the
        // pass: fold 1.0 + 0.6, checksum 0.8, hash 0.4 (one proof call).
        let spans = vec![
            span(0, None, "replay.gf_fold", 0.0, 1.0),
            span(1, None, "replay.gf_fold", 1.0, 1.6),
            span(2, None, "replay.checksum", 2.0, 2.8),
            span(3, None, "replay.proof_hash", 3.0, 3.4),
        ];
        let lanes: Vec<f64> = ["replay.gf_fold", "replay.checksum", "replay.proof_hash"]
            .iter()
            .map(|n| total(&spans, n))
            .collect();
        assert!((lanes[0] - 1.6).abs() < 1e-12);
        assert!((lanes[1] - 0.8).abs() < 1e-12);
        assert!((lanes[2] - 0.4).abs() < 1e-12);
        // Mean CPU 2.5 per call minus (1.6 + 0.8 + 0.4) / 2 = 1.4 per
        // call of replay leaves 1.1 unattributed.
        let u = unattributed_per_call(&[2.0, 3.0], &lanes, 2);
        assert!((u - 1.1).abs() < 1e-12, "{u}");
        assert_eq!(unattributed_per_call(&[], &lanes, 0), 0.0);
    }

    #[test]
    fn json_lines_carry_every_span_and_a_self_time_summary() {
        let spans = vec![
            span(0, None, "op", 0.0, 2.0),
            span(1, Some(0), "a", 0.5, 1.0),
        ];
        let text = to_json_lines(&spans);
        assert_eq!(text.lines().count(), 4);
        assert!(text.contains("\"name\":\"a\""));
        assert!(text.contains("\"self_time\":\"op\",\"seconds\":1.5"));
    }
}
