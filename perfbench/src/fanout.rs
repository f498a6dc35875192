//! `fanout_scan`: an unindexed local table larger than the buffer pool,
//! joined with a constant-cost engine the benchmark registers itself.
//! Each query scans every page and issues about 1,000 external calls,
//! more than the ReqSync buffer cap, with the cache off. WSQ's own
//! per-call CPU and the storage scan carry the load, so CPU changes that
//! `table1` hides show up here.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use wsq_common::{Tuple, Value};
use wsq_core::{QueryOptions, Wsq, WsqConfig};
use wsq_pump::{SearchResult, SearchService, ServiceReply};
use wsq_websim::CorpusConfig;

use crate::inproc::{InProc, NOTES_DDL};
use crate::probe::canon;
use crate::util::{fnv1a, Rng};
use crate::Args;

/// 40,000 short rows ≈ 280 pages, above the pool's 256.
const ROWS: usize = 40_000;
const BUCKETS: usize = 40;
/// Below the ~1,000-call fan-out of one query.
const REQSYNC_CAP: usize = 128;

/// The benchmark's engine: the count is a hash of the expression, the
/// declared latency 1–2 ms.
struct Stub;

fn stub_count(expr: &str) -> i64 {
    (fnv1a(expr) % 1_000_000) as i64 + 1
}

fn stub_latency(expr: &str) -> Duration {
    Duration::from_micros(1_000 + (fnv1a(expr) >> 32) % 1_000)
}

impl SearchService for Stub {
    fn execute(&self, req: &wsq_pump::SearchRequest) -> ServiceReply {
        ServiceReply {
            result: Ok(SearchResult::Count(stub_count(&req.expr) as u64)),
            latency: stub_latency(&req.expr),
        }
    }
}

fn query(bucket: usize) -> String {
    format!("SELECT Term, Count FROM Terms, WebCount_Stub WHERE Term = T1 AND Bucket = {bucket}")
}

pub fn workload(args: &Args) -> Result<InProc, String> {
    let mut rng = Rng::new(args.seed);
    let terms: Vec<String> = (0..ROWS)
        .map(|_| format!("w{:012x}", rng.next_u64() >> 16))
        .collect();
    let rows: Vec<Tuple> = terms
        .iter()
        .enumerate()
        .map(|(i, t)| {
            Tuple::new(vec![
                Value::from(t.as_str()),
                Value::Int((i % BUCKETS) as i64),
            ])
        })
        .collect();
    let config = WsqConfig {
        corpus: CorpusConfig::small(),
        reqsync_buffer_cap: Some(REQSYNC_CAP),
        ..WsqConfig::default()
    };

    // Oracle: the stub's closed-form count for every term of a bucket.
    let mut oracle = HashMap::new();
    for k in 0..BUCKETS {
        let expected: Vec<Tuple> = terms
            .iter()
            .enumerate()
            .filter(|(i, _)| i % BUCKETS == k)
            .map(|(_, t)| Tuple::new(vec![Value::from(t.as_str()), Value::Int(stub_count(t))]))
            .collect();
        oracle.insert(query(k), canon(&expected));
    }

    let next_sql = move || query(rng.below(BUCKETS));
    Ok(InProc {
        setup: Box::new(move || {
            let mut wsq = Wsq::open_in_memory(config.clone())?;
            wsq.execute("CREATE TABLE Terms (Term VARCHAR(16), Bucket INT)")?;
            wsq.execute(NOTES_DDL)?;
            wsq.db_mut().insert("Terms", &rows)?;
            wsq.register_engine("Stub", Arc::new(Stub), false);
            Ok(wsq)
        }),
        oracle,
        next_sql: Box::new(next_sql),
        // A fixed pair, the same on every seed.
        sync_sqls: vec![query(0), query(1)],
        declared_ms: Box::new(|req| stub_latency(&req.expr).as_secs_f64() * 1e3),
        search: Box::new(|req| {
            std::hint::black_box(Stub.execute(req));
        }),
        opts: QueryOptions {
            reqsync_cap: Some(REQSYNC_CAP),
            ..QueryOptions::default()
        },
    })
}
