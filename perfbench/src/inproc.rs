//! The closed-loop driver of the in-process workloads (`table1`,
//! `fanout_scan`): one client thread calls an in-process [`Wsq`] and waits
//! for every reply.
//!
//! Untraced reads go through the user-facing `Wsq::query_cursor`. In a
//! traced run every second read is traced instead: the benchmark makes
//! the calls `Wsq` would make itself, layer by layer, with a span around
//! each, alternating between the materialising path (`plan_query` +
//! `run_plan_batched`) and the streaming one (`open_query` + first row,
//! then the drain). Every eighth operation is a write.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use wsq_common::{Tuple, Value};
use wsq_core::{ExecutionMode, QueryOptions, StatementResult, Wsq};
use wsq_obs::{EventKind, TraceEvent};
use wsq_pump::SearchRequest;

use crate::account::{cache_total, drained_snapshot, reset_high_water, Snap};
use crate::probe::{canon, mean_call_us, parse_label, timed_setups, Wire};
use crate::report::{values, E2e, Layers, Report, Tally, Windows};
use crate::spans::{self, Tracer};
use crate::util::{mean, median, ms_since};
use crate::{procfs, Args, SETUPS_AFTER, SETUPS_BEFORE};

/// One in-process workload: how to set it up, and what to run against it.
pub struct InProc {
    /// Build a fully set-up instance: what `setup_s` times.
    pub setup: Box<dyn Fn() -> wsq_common::Result<Wsq>>,
    /// Expected result of every query the schedule can produce.
    pub oracle: HashMap<String, Vec<String>>,
    /// The seeded query schedule.
    pub next_sql: Box<dyn FnMut() -> String>,
    /// Queries that also run in synchronous mode.
    pub sync_sqls: Vec<String>,
    /// The latency a search service declares for a request, in ms.
    pub declared_ms: Box<dyn Fn(&SearchRequest) -> f64>,
    /// One direct call into the workload's search service.
    pub search: Box<dyn Fn(&SearchRequest)>,
    /// The instance's default query options.
    pub opts: QueryOptions,
}

/// Every `WRITE_EVERY`-th operation of the timed phase is an INSERT,
/// read back at once; spreading writes over the phase keeps their median
/// from resting on one moment's machine speed.
const WRITE_EVERY: u64 = 8;
/// Requests of the run replayed directly against the search service.
const SEARCH_SAMPLES: usize = 400;
pub const NOTES_DDL: &str = "CREATE TABLE Notes (Id INT, Tag VARCHAR(32))";

/// What a traced run collects beside the spans.
#[derive(Default)]
struct Probe {
    exec_cpu_ms: Vec<f64>,
    /// Launch → completion beyond the declared latency, per call.
    beyond_ms: Vec<f64>,
    requests: Vec<SearchRequest>,
    wire: Wire,
}

pub fn run(mut w: InProc, args: &Args) -> Result<Report, String> {
    let mut counts = Tally::default();
    let mut tracer = Tracer::new(Instant::now(), 0);
    let mut probe = Probe::default();
    let mut e2e = E2e::default();
    let setup = || (w.setup)().map_err(|e| e.to_string());
    let mut wsq = timed_setups(SETUPS_BEFORE, setup, &mut e2e.setup_s)?;

    // Warm up: first executions, lazy set-up and allocator growth.
    let warm_end = Instant::now() + Duration::from_millis(500);
    for _ in 0..20 {
        if Instant::now() >= warm_end {
            break;
        }
        let sql = (w.next_sql)();
        counts.attempted += 1;
        match plain_query(&mut wsq, &sql) {
            Ok((rows, _, _)) => check(&w.oracle, &sql, &rows, &mut counts),
            Err(e) => counts.fail(format!("{sql}: {e}")),
        }
    }

    let obs = wsq.obs().clone();
    reset_high_water(&obs);
    let a = snapshot(&wsq)?;
    let mut traced_ms = Vec::new();
    let mut insert_us = Vec::new();
    let mut accounting_error = None;
    let mut windows = Windows::start();
    let end = windows.started_at() + Duration::from_secs_f64(args.seconds);
    let mut op: u64 = 0;
    let mut reads: u64 = 0;
    while Instant::now() < end {
        counts.attempted += 1;
        let at = windows.at();
        if op % WRITE_EVERY == WRITE_EVERY - 1 {
            // A write starts on a drained pump, so the previous read's
            // tail work in the pump does not land in the write's time.
            if let Err(e) = snapshot(&wsq) {
                accounting_error.get_or_insert(e);
            }
            let write = write_op(&mut wsq, op as i64, args, &mut counts, &mut insert_us);
            e2e.write_ms.extend(write.map(|ms| (at, ms)));
        } else if args.trace && reads % 2 == 1 {
            let sql = (w.next_sql)();
            let pos = obs.trace_position();
            match traced_query(&w, &wsq, &sql, op, &mut tracer, &mut probe) {
                Ok((rows, total_ms)) => {
                    traced_ms.push(total_ms);
                    check(&w.oracle, &sql, &rows, &mut counts);
                }
                Err(e) => counts.fail(format!("{sql}: {e}")),
            }
            // Counters are snapshotted at the same boundaries as spans.
            if let Err(e) = snapshot(&wsq) {
                accounting_error.get_or_insert(e);
            }
            read_calls(&obs.trace_events_since(pos), &w, &mut probe);
            reads += 1;
        } else {
            let sql = (w.next_sql)();
            match plain_query(&mut wsq, &sql) {
                Ok((rows, first_ms, total_ms)) => {
                    e2e.query_ms.push((at, total_ms));
                    e2e.first_row_ms.push((at, first_ms));
                    check(&w.oracle, &sql, &rows, &mut counts);
                }
                Err(e) => counts.fail(format!("{sql}: {e}")),
            }
            reads += 1;
        }
        op += 1;
        windows.tick(op);
    }
    windows.finish(op);
    e2e.windows = windows.done;
    let b = snapshot(&wsq)?;
    e2e.ops = op;
    e2e.backend_calls = b.pump.launched - a.pump.launched;

    // Synchronous instances.
    let sync_opts = QueryOptions {
        mode: ExecutionMode::Synchronous,
        ..w.opts
    };
    for sql in &w.sync_sqls {
        counts.attempted += 1;
        let t = Instant::now();
        match wsq.query_with(sql, sync_opts) {
            Ok(r) => {
                e2e.sync_ms.push(ms_since(t));
                check(&w.oracle, sql, &r.rows, &mut counts);
            }
            Err(e) => counts.fail(format!("sync {sql}: {e}")),
        }
    }
    // The rest of the set-ups, a run's length after the first ones.
    drop(timed_setups(SETUPS_AFTER, setup, &mut e2e.setup_s)?);
    e2e.peak_rss_mib = procfs::peak_rss_mib();

    let mut text = Vec::new();
    let metrics = if args.trace {
        let spans = tracer.into_spans();
        let mut l = Layers::default();
        l.fill_from_counters(&a, &b, e2e.ops);
        l.parse_us = spans::mean_us(&spans, "sql.parse");
        l.plan_us = spans::mean_us(&spans, "engine.plan");
        l.exec_ms = spans::mean_us(&spans, "engine.exec") / 1e3;
        l.exec_cpu_ms = mean(&probe.exec_cpu_ms);
        l.first_row_ms = spans::mean_us(&spans, "engine.open_first_row") / 1e3;
        l.call_latency_ms = mean(&probe.beyond_ms);
        l.search_us = mean_call_us(&probe.requests, &w.search);
        l.insert_us = mean(&insert_us);
        probe.wire.fill(&mut l);
        let untraced = median(&values(&e2e.query_ms));
        l.trace_overhead_pct = 100.0 * (median(&traced_ms) - untraced) / untraced;
        text.push(format!("self time per span ({} spans):", spans.len()));
        text.push(spans::self_time_table(&spans));
        if let Some(path) = &args.spans_out {
            std::fs::write(path, spans::to_json_lines(&spans))
                .map_err(|e| format!("writing spans to {path}: {e}"))?;
        }
        l.metrics()
    } else {
        e2e.metrics()
    };
    if let Some(e) = &accounting_error {
        text.push(e.clone());
    }
    text.extend(counts.problems);
    Ok(Report {
        attempted: counts.attempted,
        failed: counts.failed,
        correct: counts.failed == 0 && accounting_error.is_none(),
        metrics,
        text,
    })
}

/// One INSERT, timed, then read back; returns the INSERT's ms when it
/// succeeded. A traced run also times a direct storage insert of a
/// shadow row.
fn write_op(
    wsq: &mut Wsq,
    id: i64,
    args: &Args,
    counts: &mut Tally,
    insert_us: &mut Vec<f64>,
) -> Option<f64> {
    let tag = format!("s{}-{id}", args.seed);
    let t = Instant::now();
    let took = match wsq.execute(&format!("INSERT INTO Notes VALUES ({id}, '{tag}')")) {
        Ok(r) if matches!(r.as_slice(), [StatementResult::Affected(1)]) => Some(ms_since(t)),
        Ok(_) => {
            counts.fail(format!("insert {id}: unexpected result"));
            None
        }
        Err(e) => {
            counts.fail(format!("insert {id}: {e}"));
            None
        }
    };
    let expected = vec![Tuple::new(vec![Value::Int(id), Value::from(tag.as_str())])];
    match wsq.query(&format!("SELECT Id, Tag FROM Notes WHERE Id = {id}")) {
        Ok(r) if r.rows == expected => {}
        Ok(r) => counts.fail(format!("read-back {id}: {:?}", r.rows)),
        Err(e) => counts.fail(format!("read-back {id}: {e}")),
    }
    if args.trace {
        let row = [Tuple::new(vec![Value::Int(-id - 1), Value::from(tag)])];
        let t = Instant::now();
        if wsq.db_mut().insert("Notes", &row).is_ok() {
            insert_us.push(ms_since(t) * 1e3);
        }
    }
    took
}

fn snapshot(wsq: &Wsq) -> Result<Snap, String> {
    drained_snapshot(
        wsq.pump(),
        wsq.obs(),
        || cache_total(&wsq.cache_stats()),
        || wsq.db().pool_stats(),
    )
}

fn check(oracle: &HashMap<String, Vec<String>>, sql: &str, rows: &[Tuple], counts: &mut Tally) {
    match oracle.get(sql) {
        Some(expected) if *expected == canon(rows) => {}
        Some(expected) => counts.fail(format!(
            "wrong result for {sql}: {} rows, expected {}",
            rows.len(),
            expected.len()
        )),
        None => counts.fail(format!("no expected result for {sql}")),
    }
}

/// The user-facing path: returns (rows, ms to first row, ms to last row).
fn plain_query(wsq: &mut Wsq, sql: &str) -> wsq_common::Result<(Vec<Tuple>, f64, f64)> {
    let t = Instant::now();
    let mut cursor = wsq.query_cursor(sql)?;
    let mut rows = Vec::new();
    let first = cursor.next_row()?;
    let first_ms = ms_since(t);
    if let Some(r) = first {
        rows.push(r);
        while let Some(r) = cursor.next_row()? {
            rows.push(r);
        }
    }
    Ok((rows, first_ms, ms_since(t)))
}

/// The traced path: the calls `Wsq` makes, one span each. Returns the rows
/// and the length of the `query` span in ms.
fn traced_query(
    w: &InProc,
    wsq: &Wsq,
    sql: &str,
    op: u64,
    tr: &mut Tracer,
    probe: &mut Probe,
) -> wsq_common::Result<(Vec<Tuple>, f64)> {
    let (db, engines, pump, opts) = (wsq.db(), wsq.engines(), wsq.pump(), w.opts);
    let root = tr.begin(op, None, "op");
    let q = tr.begin(op, Some(root), "query");
    let t = Instant::now();
    let sel = match tr.time(op, Some(q), "sql.parse", || wsq_sql::parse_one(sql))? {
        wsq_sql::Statement::Select(sel) => sel,
        _ => return Err(wsq_common::WsqError::Plan("not a SELECT".into())),
    };
    let rows = if op % 4 == 1 {
        let plan = tr.time(op, Some(q), "engine.plan", || {
            db.plan_query(&sel, engines, opts)
        })?;
        let cpu = procfs::thread_cpu_ms();
        let r = tr.time(op, Some(q), "engine.exec", || {
            db.run_plan_batched(&plan, engines, pump, opts.batch_size)
        })?;
        probe.exec_cpu_ms.push(procfs::thread_cpu_ms() - cpu);
        r.rows
    } else {
        let first = tr.begin(op, Some(q), "engine.open_first_row");
        let mut cursor = db.open_query(&sel, engines, pump, opts)?;
        let head = cursor.next_row()?;
        tr.end(first);
        let drain = tr.begin(op, Some(q), "engine.drain");
        let mut rows: Vec<Tuple> = head.into_iter().collect();
        if !rows.is_empty() {
            while let Some(r) = cursor.next_row()? {
                rows.push(r);
            }
        }
        tr.end(drain);
        rows
    };
    let total_ms = ms_since(t);
    tr.end(q);
    if !probe.wire.replay(tr, op, Some(root), &rows) {
        return Err(wsq_common::WsqError::Other(
            "wire round trip changed the rows".into(),
        ));
    }
    tr.end(root);
    Ok((rows, total_ms))
}

/// Per call seen in a traced operation: the launch → completion time
/// beyond the declared latency, and the request for the search replay.
fn read_calls(events: &[TraceEvent], w: &InProc, probe: &mut Probe) {
    // Per call id: the request, when it launched, when it completed.
    type Call = (Option<SearchRequest>, Option<Duration>, Option<Duration>);
    let mut calls: HashMap<u64, Call> = HashMap::new();
    for e in events {
        let c = calls.entry(e.call.0).or_default();
        match e.kind {
            EventKind::Registered => c.0 = e.label.as_deref().and_then(parse_label),
            EventKind::Launched => c.1 = Some(e.at),
            EventKind::Completed => c.2 = Some(e.at),
            _ => {}
        }
    }
    for (req, launched, completed) in calls.into_values() {
        if let (Some(req), Some(l), Some(c)) = (req, launched, completed) {
            let observed = c.saturating_sub(l).as_secs_f64() * 1e3;
            probe.beyond_ms.push(observed - (w.declared_ms)(&req));
            if probe.requests.len() < SEARCH_SAMPLES {
                probe.requests.push(req);
            }
        }
    }
}
