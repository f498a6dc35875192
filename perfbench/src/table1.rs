//! `table1`: the paper's three Table-1 templates on an in-process `Wsq`
//! with the default corpus, the AltaVista/Google engines, no cache and
//! asynchronous iteration, against jittered latency (10 ms + up to
//! 10 ms). Latency-bound: Templates 2 and 3 issue 100 and 74 calls
//! against the pump's 64-call cap, so pump queueing and ReqSync patching
//! sit on the critical path. Its tables fit in the buffer pool.

use std::collections::HashMap;
use std::time::Duration;

use wsq_bench::{constant_pool, Template};
use wsq_core::{ExecutionMode, QueryOptions, Wsq, WsqConfig};
use wsq_pump::SearchService;
use wsq_websim::{EngineKind, LatencyModel};

use crate::inproc::{InProc, NOTES_DDL};
use crate::probe::canon;
use crate::util::Rng;
use crate::Args;

const LATENCY: LatencyModel = LatencyModel::Jitter {
    base: Duration::from_millis(10),
    jitter: Duration::from_millis(10),
};

fn open(latency: LatencyModel) -> wsq_common::Result<Wsq> {
    let mut wsq = Wsq::open_in_memory(WsqConfig {
        latency,
        ..WsqConfig::default()
    })?;
    wsq.load_reference_data()?;
    Ok(wsq)
}

pub fn workload(args: &Args) -> Result<InProc, String> {
    let err = |e: wsq_common::WsqError| e.to_string();
    // Oracle: every instance the schedule can draw, run synchronously on
    // a zero-latency instance.
    let pool = constant_pool();
    let sync = QueryOptions {
        mode: ExecutionMode::Synchronous,
        ..QueryOptions::default()
    };
    let mut reference = open(LatencyModel::Zero).map_err(err)?;
    let mut oracle = HashMap::new();
    for t in Template::all() {
        for offset in 0..pool.len() {
            let sql = t.instantiate(&pool, offset);
            let rows = reference.query_with(&sql, sync).map_err(err)?.rows;
            oracle.insert(sql, canon(&rows));
        }
    }
    // The same corpus as the measured instance's engines.
    let av = reference.web().engine(EngineKind::AltaVista);
    let google = reference.web().engine(EngineKind::Google);
    drop(reference);

    // Templates in rotation; constants drawn from the seed.
    let mut rng = Rng::new(args.seed);
    let mut i = 0;
    let schedule_pool = pool.clone();
    let next_sql = move || {
        let t = Template::all()[i % 3];
        i += 1;
        t.instantiate(&schedule_pool, rng.below(schedule_pool.len()))
    };
    Ok(InProc {
        setup: Box::new(|| {
            let mut wsq = open(LATENCY)?;
            wsq.execute(NOTES_DDL)?;
            Ok(wsq)
        }),
        oracle,
        next_sql: Box::new(next_sql),
        // A fixed subset, the same on every seed.
        sync_sqls: Template::all().map(|t| t.instantiate(&pool, 0)).to_vec(),
        declared_ms: Box::new(|req| LATENCY.sample(&req.to_string()).as_secs_f64() * 1e3),
        search: Box::new(move |req| {
            let engine = if req.engine == "Google" { &google } else { &av };
            std::hint::black_box(engine.execute(req));
        }),
        opts: QueryOptions::default(),
    })
}
