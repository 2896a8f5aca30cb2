//! In-memory spans of the traced run. The suite records them in its own
//! files, around its calls into each layer's public functions; nothing
//! inside the engine is instrumented. Spans of one operation share its op
//! id; a span names the span that caused it as its parent.

use crate::json::Json;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The operation this span belongs to.
    pub op: u64,
    /// This span's id (its index in the log).
    pub id: u32,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// `<layer>.<what>`.
    pub name: &'static str,
    /// Start, in nanoseconds since the log was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the log was created.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span log of one traced run, kept in memory until the run ends.
#[derive(Debug)]
pub struct SpanLog {
    t0: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> SpanLog {
        SpanLog::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> SpanLog {
        SpanLog {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the log was created.
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span now; close it with [`SpanLog::close`].
    pub fn open(&mut self, op: u64, parent: Option<u32>, name: &'static str) -> u32 {
        let now = self.now_ns();
        self.record(op, parent, name, now, now)
    }

    /// Close a span opened with [`SpanLog::open`]; returns its duration.
    pub fn close(&mut self, id: u32) -> u64 {
        let now = self.now_ns();
        let s = &mut self.spans[id as usize];
        s.end_ns = now;
        s.duration_ns()
    }

    /// Record a span with explicit bounds (synthetic children built from a
    /// layer's own counters, such as store busy time inside an execution).
    pub fn record(
        &mut self,
        op: u64,
        parent: Option<u32>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            op,
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Every span recorded so far, in id order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The span with this id.
    pub fn get(&self, id: u32) -> &Span {
        &self.spans[id as usize]
    }

    /// The log as JSON: one `[op, id, parent, name, start_ns, end_ns]` row
    /// per span (`parent` is `null` for a root).
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::Arr(vec![
                        Json::Num(s.op as f64),
                        Json::Num(f64::from(s.id)),
                        s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                        Json::str(s.name),
                        Json::Num(s.start_ns as f64),
                        Json::Num(s.end_ns as f64),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span, index-aligned with `spans`: its duration minus
/// the part of its interval that its child spans cover. Overlapping
/// children are counted once; a child reaching outside its parent is
/// clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids.iter() {
                let start = (*start).max(reach);
                if *end > start {
                    covered += end - start;
                    reach = *end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(rows: &[(Option<u32>, u64, u64)]) -> Vec<Span> {
        let mut l = SpanLog::new();
        for (parent, start, end) in rows {
            l.record(1, *parent, "t.span", *start, *end);
        }
        l.spans().to_vec()
    }

    #[test]
    fn self_time_subtracts_adjacent_children() {
        // root 0..100 with children 10..30 and 30..60 (adjacent).
        let spans = log(&[(None, 0, 100), (Some(0), 10, 30), (Some(0), 30, 60)]);
        assert_eq!(self_times(&spans), vec![50, 20, 30]);
    }

    #[test]
    fn self_time_handles_nested_children() {
        // root 0..100 ⊃ child 20..80 ⊃ grandchild 30..50: the grandchild
        // counts against the child only.
        let spans = log(&[(None, 0, 100), (Some(0), 20, 80), (Some(1), 30, 50)]);
        assert_eq!(self_times(&spans), vec![40, 40, 20]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // children 10..50 and 40..70 overlap; 90..130 overhangs the root.
        let spans = log(&[
            (None, 0, 100),
            (Some(0), 10, 50),
            (Some(0), 40, 70),
            (Some(0), 90, 130),
        ]);
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
        // A child recorded before its siblings' order is sorted out.
        let spans = log(&[(None, 0, 10), (Some(0), 6, 8), (Some(0), 1, 3)]);
        assert_eq!(self_times(&spans)[0], 6);
    }

    #[test]
    fn open_close_and_json_rows() {
        let mut l = SpanLog::new();
        let root = l.open(7, None, "op.query");
        let kid = l.open(7, Some(root), "engine.execute");
        l.close(kid);
        l.close(root);
        let (r, k) = (l.get(root), l.get(kid));
        assert!(r.start_ns <= k.start_ns && k.end_ns <= r.end_ns);
        let rows = l.to_json();
        let row = &rows.as_arr().unwrap()[1];
        assert_eq!(row.as_arr().unwrap()[2], Json::Num(0.0));
        assert_eq!(row.as_arr().unwrap()[3], Json::str("engine.execute"));
        assert_eq!(rows.as_arr().unwrap()[0].as_arr().unwrap()[2], Json::Null);
    }
}
