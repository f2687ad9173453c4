//! The harness's own host-time spans, recorded around every call the
//! benchmark makes into the program. Spans stay in memory during the run
//! and are written out once at exit.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// Parent id of a span that has none.
pub const NO_PARENT: u32 = u32::MAX;

/// One finished (or still open) span on the host clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// The round this span belongs to: spans of one round share it.
    pub round: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span collector for the single-threaded harness.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    round: u32,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            round: 0,
        }
    }

    /// Round id stamped on spans entered from now on.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    #[inline]
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.stack.push(id);
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            round: self.round,
        });
        id
    }

    #[inline]
    pub fn exit(&mut self, id: u32) {
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans[id as usize].end_ns = now;
        let open = self.stack.pop();
        debug_assert_eq!(open, Some(id), "spans must close innermost first");
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (overlapping children are not counted twice,
/// and a child is clipped to its parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if span.parent != NO_PARENT {
            children[span.parent as usize].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl NameTotals {
    /// Mean self time per span, zero when there were none.
    pub fn self_ns_per_span(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }
}

/// Rolls spans up by name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(selfs) {
        let row = out.entry(span.name).or_default();
        row.count += 1;
        row.total_ns += span.duration_ns();
        row.self_ns += self_ns;
    }
    out
}

/// Writes spans as one JSON object per line.
///
/// # Errors
///
/// Returns the first I/O error.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, span) in spans.iter().enumerate() {
        let parent = if span.parent == NO_PARENT {
            "null".to_string()
        } else {
            span.parent.to_string()
        };
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"round\":{}}}",
            span.name, span.start_ns, span.end_ns, span.round
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            round: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = [
            span("round", 0, 100, NO_PARENT),
            span("get", 10, 30, 0),
            span("get", 40, 70, 0),
            span("inner", 45, 50, 2),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 25, 5]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_double_counted() {
        let spans = [
            span("parent", 0, 100, NO_PARENT),
            span("a", 10, 60, 0),
            span("b", 50, 80, 0),  // overlaps a by 10
            span("c", 90, 120, 0), // overhangs the parent by 20
        ];
        // Cover: [10,60) + [60,80) + [90,100) = 80.
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn totals_group_by_name() {
        let spans = [
            span("round", 0, 100, NO_PARENT),
            span("get", 10, 30, 0),
            span("get", 40, 70, 0),
        ];
        let totals = totals_by_name(&spans);
        assert_eq!(
            totals["get"],
            NameTotals {
                count: 2,
                total_ns: 50,
                self_ns: 50
            }
        );
        assert_eq!(totals["round"].self_ns, 50);
        assert_eq!(totals["get"].self_ns_per_span(), 25.0);
    }

    #[test]
    fn recorder_links_parents_and_rounds() {
        let mut rec = Recorder::new();
        rec.set_round(7);
        let outer = rec.enter("outer");
        let inner = rec.enter("inner");
        rec.exit(inner);
        rec.exit(outer);
        let spans = rec.spans();
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, outer);
        assert_eq!(spans[1].round, 7);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(spans[1].start_ns >= spans[0].start_ns);
    }
}
