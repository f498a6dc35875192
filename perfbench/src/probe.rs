//! Helpers both drivers share: result canonicalisation, timed set-ups,
//! the wire-codec replay, and direct replays of the run's own requests.

use std::time::Instant;

use wsq_common::Tuple;
use wsq_protocol::Frame;
use wsq_pump::SearchRequest;

use crate::report::Layers;
use crate::spans::Tracer;
use crate::util::ms_since;

/// The sorted, printable form of a result: results are compared as
/// multisets.
pub fn canon<'a>(rows: impl IntoIterator<Item = &'a Tuple>) -> Vec<String> {
    let mut v: Vec<String> = rows
        .into_iter()
        .map(|t| format!("{:?}", t.values()))
        .collect();
    v.sort_unstable();
    v
}

/// Time `n` set-ups, keeping the last instance.
pub fn timed_setups<T>(
    n: usize,
    setup: impl Fn() -> Result<T, String>,
    times: &mut Vec<f64>,
) -> Result<T, String> {
    let mut last = None;
    for _ in 0..n {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    last.ok_or_else(|| "no set-up ran".to_string())
}

/// Totals of the wire-codec replay: the received rows run through
/// `Frame::encode` and `Frame::decode`, as the server sends them.
#[derive(Default)]
pub struct Wire {
    encode_us: f64,
    decode_us: f64,
    bytes: u64,
    rows: u64,
}

impl Wire {
    /// Replay `rows` with a span around each half; false when the round
    /// trip changed the rows.
    pub fn replay(
        &mut self,
        tr: &mut Tracer,
        query: u64,
        parent: Option<u64>,
        rows: &[Tuple],
    ) -> bool {
        let frame = Frame::Rows {
            rows: rows.to_vec(),
        };
        let t = Instant::now();
        let bytes = tr.time(query, parent, "protocol.encode", || frame.encode());
        self.encode_us += ms_since(t) * 1e3;
        let t = Instant::now();
        let back = tr.time(query, parent, "protocol.decode", || Frame::decode(&bytes));
        self.decode_us += ms_since(t) * 1e3;
        self.bytes += bytes.len() as u64;
        self.rows += rows.len() as u64;
        matches!(back, Ok((Frame::Rows { rows: ref r }, _)) if r.as_slice() == rows)
    }

    pub fn merge(&mut self, other: &Wire) {
        self.encode_us += other.encode_us;
        self.decode_us += other.decode_us;
        self.bytes += other.bytes;
        self.rows += other.rows;
    }

    /// The per-row protocol metrics.
    pub fn fill(&self, l: &mut Layers) {
        let rows = self.rows.max(1) as f64;
        l.encode_us_per_row = self.encode_us / rows;
        l.decode_us_per_row = self.decode_us / rows;
        l.bytes_per_row = self.bytes as f64 / rows;
    }
}

/// Mean µs of one direct call of `call` over the sampled requests.
pub fn mean_call_us(reqs: &[SearchRequest], call: impl Fn(&SearchRequest)) -> f64 {
    if reqs.is_empty() {
        return 0.0;
    }
    let t = Instant::now();
    for r in reqs {
        call(std::hint::black_box(r));
    }
    ms_since(t) * 1e3 / reqs.len() as f64
}

/// Parse a `Registered` event label (`SearchRequest`'s `Display` form:
/// `AV:count("expr")` or `AV:pages("expr", rank<=3)`) back into the
/// request.
pub fn parse_label(label: &str) -> Option<SearchRequest> {
    let (engine, rest) = label.split_once(':')?;
    let (kind, literal) = if let Some(body) = rest.strip_prefix("count(") {
        (wsq_pump::RequestKind::Count, body.strip_suffix(')')?)
    } else {
        let body = rest.strip_prefix("pages(")?.strip_suffix(')')?;
        let (lit, rank) = body.rsplit_once(", rank<=")?;
        (
            wsq_pump::RequestKind::Pages {
                max_rank: rank.parse().ok()?,
            },
            lit,
        )
    };
    Some(SearchRequest {
        engine: engine.to_string(),
        expr: unquote(literal)?,
        kind,
    })
}

/// Undo `{:?}` on a string that holds no escapes other than `\"`, `\\`
/// and `\'`.
fn unquote(lit: &str) -> Option<String> {
    let inner = lit.strip_prefix('"')?.strip_suffix('"')?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next()? {
                e @ ('"' | '\\' | '\'') => out.push(e),
                _ => return None,
            }
        } else {
            out.push(c);
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsq_pump::RequestKind;

    #[test]
    fn labels_parse_back_into_requests() {
        for req in [
            SearchRequest {
                engine: "AV".into(),
                expr: "Colorado near \"beaches\"".into(),
                kind: RequestKind::Count,
            },
            SearchRequest {
                engine: "Google".into(),
                expr: "a, rank<=b".into(),
                kind: RequestKind::Pages { max_rank: 3 },
            },
        ] {
            assert_eq!(parse_label(&req.to_string()), Some(req));
        }
        assert_eq!(parse_label("AV:count(\"tab\\there\")"), None);
    }
}
