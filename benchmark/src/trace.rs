//! In-memory spans around every call the benchmark makes into a layer.
//!
//! The program under test carries no spans of its own yet, so the traced
//! run measures each layer from outside: a span is opened before a call
//! into a public function and closed after it. Spans nest (the open span
//! is the parent of the next one), carry the op they belong to, and are
//! only written out — with each span's self time, its duration minus the
//! part its children cover — when the run ends.

use crate::json::{num, obj, text, Value};
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<u32>,
    /// The op (request, force call, MD step) this span belongs to.
    pub op: u32,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin`; tracers that will be
    /// [`absorb`](Self::absorb)ed into one another must share it.
    pub fn new(origin: Instant, capacity: usize) -> Self {
        Self {
            origin,
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
            op: 0,
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Spans opened from now on belong to op `op`.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        self.open.push(id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op,
        });
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: u32) {
        let end_ns = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Append the closed spans of `other` (recorded on another thread
    /// against the same origin), keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "absorbed tracer has open spans");
        let shift = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + shift);
            s
        }));
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Per op, the summed duration of the spans called `name`,
    /// microseconds, in op order (a stage that runs once per level
    /// contributes one sum per op).
    pub fn per_op_us(&self, name: &str) -> Vec<f64> {
        let mut sums: std::collections::BTreeMap<u32, f64> = std::collections::BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *sums.entry(s.op).or_default() += (s.end_ns - s.start_ns) as f64 / 1e3;
        }
        sums.into_values().collect()
    }

    /// Self time of every span: its duration minus its direct children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let p = p as usize;
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// The span file: every span with its self time.
    pub fn to_json(&self) -> Value {
        let own = self.self_ns();
        Value::Arr(
            self.spans
                .iter()
                .zip(own)
                .map(|(s, self_ns)| {
                    obj([
                        ("name", text(s.name)),
                        ("start_ns", num(s.start_ns as f64)),
                        ("end_ns", num(s.end_ns as f64)),
                        ("self_ns", num(self_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| num(f64::from(p))),
                        ),
                        ("op", num(f64::from(s.op))),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>, op: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op,
        }
    }

    fn tracer_with(spans: Vec<Span>) -> Tracer {
        let mut t = Tracer::new(Instant::now(), 0);
        t.spans = spans;
        t
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let t = tracer_with(vec![
            span("op", 0, 100, None, 0),
            span("a", 10, 40, Some(0), 0),
            span("a.inner", 15, 25, Some(1), 0),
            span("b", 50, 90, Some(0), 0),
        ]);
        assert_eq!(t.self_ns(), vec![30, 20, 10, 40]);
    }

    #[test]
    fn nesting_follows_enter_and_exit() {
        let mut t = Tracer::new(Instant::now(), 4);
        t.set_op(7);
        let outer = t.enter("outer");
        t.span("inner", || std::hint::black_box(1 + 1));
        t.exit(outer);
        let after = t.enter("after");
        t.exit(after);
        let s = t.spans();
        assert_eq!(
            s.iter().map(|s| s.parent).collect::<Vec<_>>(),
            [None, Some(0), None]
        );
        assert!(s.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn absorb_keeps_parent_links() {
        let mut a = tracer_with(vec![span("x", 0, 5, None, 0)]);
        let b = tracer_with(vec![span("y", 0, 9, None, 1), span("z", 1, 2, Some(0), 1)]);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.durations_us("y"), vec![0.009]);
    }

    #[test]
    fn per_op_sums_repeated_stages() {
        let t = tracer_with(vec![
            span("conv", 0, 1000, None, 0),
            span("conv", 2000, 5000, None, 0),
            span("conv", 0, 7000, None, 1),
        ]);
        assert_eq!(t.per_op_us("conv"), vec![4.0, 7.0]);
    }
}
