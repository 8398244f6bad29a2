//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call into a
//! layer's public function; nothing is recorded inside the crates. Children
//! of an engine run or a served job are synthesised from what the call
//! returned (`RunReport::step_times` / `PhaseBreakdown`, the reply's
//! `queue_wait` / `run_time`). Spans stay in memory until the pass ends.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::json::Json;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer::function`, or a synthesised phase name.
    pub name: &'static str,
    /// The op this span belongs to; spans of one op share it.
    pub op_id: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// Handle to an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// The recorder. Switched off it records nothing, so the same code path
/// serves traced and untraced ops.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    op_id: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A recorder that starts switched off.
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            origin: Instant::now(),
            op_id: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A recorder on the same clock, for another thread; give it back
    /// with [`Tracer::absorb`].
    pub fn fork(&self) -> Tracer {
        Tracer {
            origin: self.origin,
            ..Tracer::new()
        }
    }

    /// Take over the spans another thread recorded.
    pub fn absorb(&mut self, other: Tracer) {
        let shift = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + shift);
            s
        }));
    }

    /// Record (or not) the spans of op `op_id`, which starts now.
    pub fn start_op(&mut self, op_id: u64, on: bool) {
        self.on = on;
        self.op_id = op_id;
        self.open.clear();
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            op_id: self.op_id,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        let idx = self.spans.len() - 1;
        self.open.push(idx);
        SpanId(Some(idx))
    }

    /// Close a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        if let Some(idx) = id.0 {
            self.spans[idx].end_ns = self.now_ns();
            self.open.retain(|&o| o != idx);
        }
    }

    /// Lay synthesised children end to end from the start of `parent`.
    /// Durations come from values the traced call returned; a child is
    /// clipped to its parent. A no-op when the parent was not recorded.
    pub fn synth_children(
        &mut self,
        parent: SpanId,
        children: &[(&'static str, Duration)],
    ) -> Vec<SpanId> {
        let Some(p) = parent.0 else {
            return vec![SpanId(None); children.len()];
        };
        let (op_id, p_end) = (self.spans[p].op_id, self.spans[p].end_ns);
        let mut at = self.spans[p].start_ns;
        let mut ids = Vec::with_capacity(children.len());
        for &(name, dur) in children {
            let end = (at + dur.as_nanos() as u64).min(p_end);
            self.spans.push(Span {
                name,
                op_id,
                parent: Some(p),
                start_ns: at,
                end_ns: end,
            });
            ids.push(SpanId(Some(self.spans.len() - 1)));
            at = end;
        }
        ids
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace file: every span, plus the self-time table.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj()
                    .set("name", s.name)
                    .set("op_id", s.op_id)
                    .set(
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    )
                    .set("start_ns", s.start_ns)
                    .set("end_ns", s.end_ns)
            })
            .collect();
        let table = self_times(&self.spans)
            .into_iter()
            .map(|(name, row)| {
                Json::obj()
                    .set("name", name)
                    .set("count", row.count)
                    .set("total_ms", row.total_ns as f64 / 1e6)
                    .set("self_ms", row.self_ns as f64 / 1e6)
            })
            .collect();
        Json::obj()
            .set("spans", Json::Arr(spans))
            .set("self_time", Json::Arr(table))
    }
}

/// One row of the self-time table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their durations minus the part their children cover.
    pub self_ns: u64,
}

/// Self time per span name: a span's duration minus the part of its
/// interval that its direct children cover (overlapping children are
/// counted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            ));
        }
    }
    let mut table: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        kids.sort_unstable();
        let (mut covered, mut reach) = (0u64, s.start_ns);
        for &(start, end) in kids.iter() {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        let total = s.end_ns.saturating_sub(s.start_ns);
        let row = table.entry(s.name).or_default();
        row.count += 1;
        row.total_ns += total;
        row.self_ns += total.saturating_sub(covered);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op_id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let spans = [
            span("op", None, 0, 100),
            // Two overlapping children cover [10, 60); a third sticks out
            // past the parent and is clipped to [90, 100).
            span("a", Some(0), 10, 50),
            span("b", Some(0), 30, 60),
            span("c", Some(0), 90, 130),
            // A grandchild takes from its parent, not from the root.
            span("leaf", Some(1), 10, 20),
        ];
        let t = self_times(&spans);
        assert_eq!(t["op"].total_ns, 100);
        assert_eq!(t["op"].self_ns, 100 - 50 - 10);
        assert_eq!(t["a"].self_ns, 30);
        assert_eq!(t["b"].self_ns, 30);
        assert_eq!(t["leaf"].self_ns, 10);
        assert_eq!(t["op"].count, 1);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_nesting_follows_begin_end() {
        let mut t = Tracer::new();
        t.start_op(1, false);
        let id = t.begin("x");
        t.end(id);
        assert!(t.spans().is_empty());

        t.start_op(2, true);
        let op = t.begin("op");
        let call = t.begin("Engine::run");
        t.end(call);
        let kids = t.synth_children(call, &[("supersteps", Duration::from_secs(3600))]);
        t.end(op);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert!(s.iter().all(|s| s.op_id == 2));
        // Clipped to the parent.
        assert_eq!(s[2].end_ns, s[1].end_ns);
        assert_eq!(kids.len(), 1);
        assert!(Json::parse(&t.to_json().encode()).is_ok());
    }
}
