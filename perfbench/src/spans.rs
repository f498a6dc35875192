//! The traced run's spans: recorded by the benchmark around each call it
//! makes into a layer, kept in memory, and written out when the run ends.
//!
//! Every span carries the id of the operation (query) it belongs to and
//! its parent span. A span's self time is its length minus the part of
//! it that its children cover.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub query: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn len_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span recorder. Ids are `base + n`, so recorders of
/// different threads can be merged without clashes.
pub struct Tracer {
    epoch: Instant,
    base: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, base: u64) -> Tracer {
        Tracer {
            epoch,
            base,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, query: u64, parent: Option<u64>, name: &'static str) -> u64 {
        let id = self.base + self.spans.len() as u64;
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            query,
            name,
            start_ns: now,
            end_ns: now,
        });
        id
    }

    pub fn end(&mut self, id: u64) {
        let now = self.now_ns();
        if let Some(s) = self.spans.get_mut((id - self.base) as usize) {
            s.end_ns = now;
        }
    }

    /// Record `f` as one span and return its result.
    pub fn time<R>(
        &mut self,
        query: u64,
        parent: Option<u64>,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(query, parent, name);
        let r = f();
        self.end(id);
        r
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its length minus the union of its children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.get(&s.id).cloned().unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.len_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per span name: count, mean length, mean self time, and share of all
/// root time that is this name's self time.
pub fn self_time_table(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let root_ns: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::len_ns)
        .sum();
    let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(&selfs) {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.len_ns();
        e.2 += own;
    }
    let mut out = format!(
        "{:<26}{:>8}{:>14}{:>14}{:>10}\n",
        "span", "count", "mean_us", "self_us", "self_%"
    );
    for (name, (n, total, own)) in by_name {
        let _ = writeln!(
            out,
            "{:<26}{:>8}{:>14.1}{:>14.1}{:>9.1}%",
            name,
            n,
            total as f64 / n as f64 / 1e3,
            own as f64 / n as f64 / 1e3,
            100.0 * own as f64 / root_ns.max(1) as f64
        );
    }
    out
}

/// Mean length in µs of the spans called `name` (0 when there are none).
pub fn mean_us(spans: &[Span], name: &str) -> f64 {
    let (n, total) = spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0u64, 0u64), |(n, t), s| (n + 1, t + s.len_ns()));
    if n == 0 {
        0.0
    } else {
        total as f64 / n as f64 / 1e3
    }
}

/// One JSON object per line.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"query\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.query, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            query: 1,
            name,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, "query", 0, 100),
            span(1, Some(0), "parse", 10, 30),
            span(2, Some(0), "exec", 25, 60),
            span(3, Some(2), "inner", 30, 40),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 25, 10]);
        let table = self_time_table(&spans);
        assert!(table.contains("query") && table.contains("50.0%"));
    }
}
