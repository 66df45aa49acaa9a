//! Bench-side spans around the public calls into each layer.
//!
//! A span is a name, a start, an end, the span that caused it and the tick
//! it belongs to.  Each bench thread keeps its own log in memory; the logs
//! are written as JSON lines when the run ends.  Spans inside the program
//! are the program's business (its self-lifelines); these only bracket the
//! calls the bench makes.

use std::collections::BTreeMap;
use std::io::Write;

/// `parent` of a span nothing encloses.
pub const ROOT: u32 = 0;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// 1-based position in its log.
    pub id: u32,
    pub parent: u32,
    pub tick: u64,
}

/// One thread's spans.  `enter`/`exit` nest: a span entered while another is
/// open is its child.
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl SpanLog {
    pub fn enter(&mut self, name: &'static str, tick: u64, now_ns: u64) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            name,
            start_ns: now_ns,
            end_ns: now_ns,
            id,
            parent: self.open.last().copied().unwrap_or(ROOT),
            tick,
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: u32, now_ns: u64) {
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.retain(|&o| o != id);
        self.spans[id as usize - 1].end_ns = now_ns;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per span name: calls, total time, and self time (duration minus the part
/// child spans cover).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub max_ns: u64,
}

pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut child_ns = vec![0u64; spans.len() + 1];
    for s in spans {
        child_ns[s.parent as usize] += s.end_ns - s.start_ns;
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child_ns[s.id as usize]);
        t.max_ns = t.max_ns.max(dur);
    }
    out
}

/// Durations of every span with this name, ascending.
pub fn durations(spans: &[Span], name: &str) -> Vec<u32> {
    let mut d: Vec<u32> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns).min(u64::from(u32::MAX)) as u32)
        .collect();
    d.sort_unstable();
    d
}

/// Write the threads' logs as JSON lines.
pub fn write_jsonl(path: &std::path::Path, threads: &[(String, &[Span])]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (thread, spans) in threads {
        for s in *spans {
            writeln!(
                out,
                "{{\"thread\":\"{thread}\",\"name\":\"{}\",\"id\":{},\"parent\":{},\"tick\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.parent, s.tick, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let mut log = SpanLog::default();
        // tick [0,100] ⊃ publish [10,30], publish [30,60] ⊃ route [40,50]
        let tick = log.enter("manager.tick", 7, 0);
        let p1 = log.enter("gateway.publish", 7, 10);
        log.exit(p1, 30);
        let p2 = log.enter("gateway.publish", 7, 30);
        let r = log.enter("route", 7, 40);
        log.exit(r, 50);
        log.exit(p2, 60);
        log.exit(tick, 100);
        // A second, childless tick.
        let t2 = log.enter("manager.tick", 8, 100);
        log.exit(t2, 120);

        let spans = log.spans();
        assert_eq!(spans[1].parent, tick);
        assert_eq!(spans[3].parent, p2);
        assert_eq!(spans[4].parent, ROOT);
        let t = totals(spans);
        assert_eq!(
            t["manager.tick"],
            SpanTotals {
                count: 2,
                total_ns: 120,
                self_ns: 50 + 20,
                max_ns: 100
            }
        );
        assert_eq!(t["gateway.publish"].total_ns, 50);
        assert_eq!(t["gateway.publish"].self_ns, 40);
        assert_eq!(t["route"].self_ns, 10);
        assert_eq!(durations(spans, "gateway.publish"), vec![20, 30]);
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let mut log = SpanLog::default();
        let a = log.enter("query", 1, 5);
        log.exit(a, 9);
        let dir = crate::system::ScratchDir::new("spans-test").unwrap();
        let path = dir.path().join("t.spans.jsonl");
        write_jsonl(&path, &[("consumer".to_string(), log.spans())]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        let line = jamm::jamm_core::json::Json::parse(text.trim()).unwrap();
        assert_eq!(line["name"].as_str(), Some("query"));
        assert_eq!(line["end_ns"].as_u64(), Some(9));
    }
}
