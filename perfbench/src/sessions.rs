//! `sessions_mixed`: an in-process `wsq-server` on loopback over a
//! `SharedWsq` with a bounded result cache, the small corpus and 5 ms
//! latency, driven by two `wsq-client` connections in a closed loop.
//!
//! The mix: ~70% single-term `WebCount`/`WebPages` lookups, Zipf-skewed
//! over 2,000 keys against a 64-entry cache; ~20% 50-state joins on two
//! topics both clients share; ~10% INSERTs, each sent with the join that
//! reads it back. The only workload that exercises the protocol, server
//! sessions, cross-session coalescing, the cache (hits, misses,
//! evictions) and writes beside reads under the shared database lock.
//!
//! The cache is small on purpose: most reads miss, so the median read
//! sits in the latency-bound mode (5 ms + WSQ's own work). With a cache
//! large enough that the median read is a hit, the median measured
//! loopback wake-ups on a mostly idle 2-vCPU virtual machine, and it
//! moved by 30% between runs of the same build.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use wsq_client::{Client, RemoteStatementResult};
use wsq_common::{Tuple, Value};
use wsq_core::{ExecutionMode, QueryOptions, SharedWsq, Wsq, WsqConfig};
use wsq_obs::EventKind;
use wsq_pump::{SearchRequest, SearchService};
use wsq_server::{Server, ServerConfig, ServerHandle};
use wsq_websim::{data, CacheConfig, CorpusConfig, EngineKind, LatencyModel, SimEngine};

use crate::account::{cache_total, drained_snapshot, reset_high_water, Snap};
use crate::probe::{canon, mean_call_us, parse_label, timed_setups, Wire};
use crate::report::{values, E2e, Layers, Report, Tally, Windows};
use crate::spans::{self, Span, Tracer};
use crate::util::{mean, median, ms_since, Rng, Zipf};
use crate::{procfs, Args, SETUPS_AFTER, SETUPS_BEFORE};

const CLIENTS: usize = 2;
const LATENCY: Duration = Duration::from_millis(5);
/// Ready entries the cache keeps per engine: below the 100 keys of the
/// shared joins, so joins miss and coalesce across sessions instead of
/// hitting sometimes.
const CACHE_CAPACITY: usize = 64;
const ZIPF_EXPONENT: f64 = 1.0;
/// Topics the joins of one run draw from, shared by both clients.
const SHARED_TOPICS: usize = 2;
/// Topics only the synchronous instances use, so those always miss.
const SYNC_TOPICS: &[&str] = &["fishing", "skiing", "universities"];
const WARMUP: Duration = Duration::from_secs(1);
const VISITS_DDL: &str = "CREATE TABLE Visits (Term VARCHAR(32), Note INT)";

fn config() -> WsqConfig {
    WsqConfig {
        corpus: CorpusConfig::small(),
        latency: LatencyModel::Fixed(LATENCY),
        cache: true,
        cache_tuning: CacheConfig {
            capacity: Some(CACHE_CAPACITY),
            ..CacheConfig::default()
        },
        ..WsqConfig::default()
    }
}

fn open(config: WsqConfig) -> wsq_common::Result<Wsq> {
    let mut wsq = Wsq::open_in_memory(config)?;
    wsq.load_reference_data()?;
    wsq.execute(VISITS_DDL)?;
    Ok(wsq)
}

fn join_sql(topic: &str) -> String {
    format!("SELECT Name, Count FROM States, WebCount WHERE Name = T1 AND T2 = '{topic}'")
}

fn count_sql(term: &str) -> String {
    format!("SELECT Count FROM WebCount WHERE T1 = '{term}'")
}

fn pages_sql(term: &str) -> String {
    format!("SELECT URL, Rank FROM WebPages WHERE T1 = '{term}' AND Rank <= 3")
}

/// The expression a default `SearchExp` hands the engine for one term: a
/// multi-word term travels as a quoted phrase.
fn engine_expr(term: &str) -> String {
    if term.contains(char::is_whitespace) {
        format!("\"{term}\"")
    } else {
        term.to_string()
    }
}

fn readback_sql(note: i64) -> String {
    format!("SELECT Term, Note, Count FROM Visits, WebCount WHERE Term = T1 AND Note = {note}")
}

/// Everything the clients share, read-only.
struct Plan {
    terms: Vec<String>,
    zipf: Zipf,
    topics: Vec<&'static str>,
    oracle: HashMap<String, Vec<String>>,
    av: Arc<SimEngine>,
}

enum Op {
    Read(String),
    /// An INSERT sent with its read-back join in one script. The term is
    /// new to the engine, so the join's call always misses the cache.
    Write {
        term: String,
        note: i64,
    },
}

impl Plan {
    fn next_op(&self, rng: &mut Rng, client: usize, counter: &mut i64) -> Op {
        let r = rng.unit();
        if r < 0.7 {
            let term = &self.terms[self.zipf.sample(rng)];
            Op::Read(if r < 0.35 {
                count_sql(term)
            } else {
                pages_sql(term)
            })
        } else if r < 0.9 {
            Op::Read(join_sql(self.topics[rng.below(self.topics.len())]))
        } else {
            *counter += 1;
            let note = client as i64 * 100_000_000 + *counter;
            Op::Write {
                term: format!("visit{note}"),
                note,
            }
        }
    }

    fn expected(&self, sql: &str) -> Option<&Vec<String>> {
        self.oracle.get(sql)
    }

    fn readback_expected(&self, term: &str, note: i64) -> Vec<String> {
        canon(&[Tuple::new(vec![
            Value::from(term),
            Value::Int(note),
            Value::Int(self.av.count(&engine_expr(term)) as i64),
        ])])
    }
}

/// One client's record of the timed phase.
#[derive(Default)]
struct ClientLog {
    /// `(seconds into the timed phase, ms)` per operation.
    query_ms: Vec<(f64, f64)>,
    first_row_ms: Vec<(f64, f64)>,
    write_ms: Vec<(f64, f64)>,
    traced_ms: Vec<f64>,
    ops: u64,
    tally: Tally,
    spans: Vec<Span>,
    ping_us: Vec<f64>,
    insert_us: Vec<f64>,
    wire: Wire,
    requests: Vec<SearchRequest>,
}

/// One set-up: open, corpus, tables, server bind.
fn setup() -> Result<(SharedWsq, ServerHandle, Arc<SimEngine>), String> {
    let wsq = open(config()).map_err(|e| e.to_string())?;
    let av = wsq.web().engine(EngineKind::AltaVista);
    let shared = wsq.into_shared();
    let server = Server::bind(shared.clone(), ServerConfig::default())
        .map_err(|e| format!("binding the server: {e}"))?;
    Ok((shared, server, av))
}

fn build_plan(args: &Args, av: Arc<SimEngine>) -> Result<Plan, String> {
    let err = |e: wsq_common::WsqError| e.to_string();
    let mut rng = Rng::new(args.seed);
    let mut terms: Vec<String> = data::STATES
        .iter()
        .flat_map(|s| data::TOPICS.iter().map(move |t| format!("{} {t}", s.name)))
        .collect();
    rng.shuffle(&mut terms);
    let mut pool: Vec<&'static str> = data::TOPICS
        .iter()
        .copied()
        .filter(|t| !SYNC_TOPICS.contains(t))
        .collect();
    rng.shuffle(&mut pool);
    let topics = pool[..SHARED_TOPICS].to_vec();

    // Lookups: the engine's own answer. Joins: a synchronous run on an
    // uncached zero-latency instance.
    let mut oracle = HashMap::new();
    for term in &terms {
        let expr = engine_expr(term);
        let count = Tuple::new(vec![Value::Int(av.count(&expr) as i64)]);
        oracle.insert(count_sql(term), canon(&[count]));
        let pages: Vec<Tuple> = av
            .search(&expr, 3)
            .into_iter()
            .map(|h| Tuple::new(vec![Value::from(h.url), Value::Int(i64::from(h.rank))]))
            .collect();
        oracle.insert(pages_sql(term), canon(&pages));
    }
    let mut reference = open(WsqConfig {
        corpus: CorpusConfig::small(),
        ..WsqConfig::default()
    })
    .map_err(err)?;
    let sync = QueryOptions {
        mode: ExecutionMode::Synchronous,
        ..QueryOptions::default()
    };
    for topic in topics.iter().chain(SYNC_TOPICS) {
        let sql = join_sql(topic);
        let rows = reference.query_with(&sql, sync).map_err(err)?.rows;
        oracle.insert(sql, canon(&rows));
    }
    Ok(Plan {
        zipf: Zipf::new(terms.len(), ZIPF_EXPONENT),
        terms,
        topics,
        oracle,
        av,
    })
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut setup_s = Vec::new();
    let (shared, server, av) = timed_setups(SETUPS_BEFORE, setup, &mut setup_s)?;
    let plan = build_plan(args, av)?;
    let addr = server.addr();
    let obs = shared.obs().clone();
    // Parse and plan are replayed on a replica: inside the server they
    // run on a connection thread the benchmark cannot wrap.
    let replica = if args.trace {
        Some(open(WsqConfig::fast()).map_err(|e| e.to_string())?)
    } else {
        None
    };
    let replica = std::sync::Mutex::new(replica);

    let snap = || {
        drained_snapshot(
            shared.pump(),
            &obs,
            || cache_total(&shared.cache_stats()),
            Default::default,
        )
    };
    let epoch = Instant::now();
    let warm_gate = Barrier::new(CLIENTS + 1);
    let start_gate = Barrier::new(CLIENTS + 1);
    let end_gate = Barrier::new(CLIENTS + 1);
    let timed_start = std::sync::OnceLock::new();
    let done_ops = AtomicU64::new(0);
    let mut windows_done = Vec::new();
    let mut a: Option<Snap> = None;
    let mut b: Option<Snap> = None;
    let mut gate_error = None;
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (plan, warm_gate, start_gate, end_gate) =
                    (&plan, &warm_gate, &start_gate, &end_gate);
                let obs = &obs;
                let (timed_start, replica, done_ops) = (&timed_start, &replica, &done_ops);
                scope.spawn(move || {
                    let mut log = ClientLog::default();
                    let mut client = match Client::connect_as(addr, &format!("perfbench-{c}")) {
                        Ok(cl) => Some(cl),
                        Err(e) => {
                            log.tally.fail(format!("connect: {e}"));
                            None
                        }
                    };
                    let mut rng = Rng::new(args.seed.wrapping_mul(31).wrapping_add(c as u64 + 1));
                    let mut counter = 0;
                    let mut tracer = Tracer::new(epoch, (c as u64 + 1) << 40);
                    if let Some(cl) = client.as_mut() {
                        let warm_end = Instant::now() + WARMUP;
                        while Instant::now() < warm_end {
                            let op = plan.next_op(&mut rng, c, &mut counter);
                            one_op(cl, plan, op, 0.0, None, &mut log);
                        }
                    }
                    let warm_log = std::mem::take(&mut log);
                    warm_gate.wait();
                    start_gate.wait();
                    let start: Instant =
                        *timed_start.get().expect("start time set before the gate");
                    let end = start + Duration::from_secs_f64(args.seconds);
                    if let Some(cl) = client.as_mut() {
                        let mut i: u64 = 0;
                        while Instant::now() < end {
                            let op = plan.next_op(&mut rng, c, &mut counter);
                            let at = start.elapsed().as_secs_f64();
                            if args.trace && i % 2 == 1 {
                                let query = ((c as u64) << 40) + i;
                                let ctx = TraceCtx {
                                    tracer: &mut tracer,
                                    query,
                                    obs,
                                    replica,
                                };
                                one_op(cl, plan, op, at, Some(ctx), &mut log);
                            } else {
                                one_op(cl, plan, op, at, None, &mut log);
                            }
                            done_ops.fetch_add(1, Ordering::Relaxed);
                            i += 1;
                        }
                        log.ops = i;
                    }
                    end_gate.wait();
                    log.tally.merge(warm_log.tally);
                    if let Some(cl) = client {
                        let _ = cl.goodbye();
                    }
                    log.spans = tracer.into_spans();
                    log
                })
            })
            .collect();
        warm_gate.wait();
        reset_high_water(&obs);
        match snap() {
            Ok(s) => a = Some(s),
            Err(e) => gate_error = Some(e),
        }
        let mut windows = Windows::start();
        let _ = timed_start.set(windows.started_at());
        let end = windows.started_at() + Duration::from_secs_f64(args.seconds);
        start_gate.wait();
        while Instant::now() < end {
            std::thread::sleep(Duration::from_millis(20));
            windows.tick(done_ops.load(Ordering::Relaxed));
        }
        end_gate.wait();
        windows.finish(done_ops.load(Ordering::Relaxed));
        windows_done = windows.done;
        match snap() {
            Ok(s) => b = Some(s),
            Err(e) => gate_error = gate_error.take().or(Some(e)),
        }
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    let mut log = ClientLog::default();
                    log.tally.fail("client thread panicked".into());
                    log
                })
            })
            .collect()
    });
    let (a, b) = match (a, b) {
        (Some(a), Some(b)) => (a, b),
        _ => return Err(gate_error.unwrap_or_else(|| "no counter snapshot".into())),
    };

    let mut e2e = E2e {
        setup_s,
        windows: windows_done,
        ..E2e::default()
    };
    let mut tally = Tally::default();
    let mut spans = Vec::new();
    let mut traced_ms = Vec::new();
    let (mut ping_us, mut insert_us, mut requests) = (Vec::new(), Vec::new(), Vec::new());
    let mut wire = Wire::default();
    for log in logs {
        e2e.query_ms.extend(log.query_ms);
        e2e.first_row_ms.extend(log.first_row_ms);
        e2e.write_ms.extend(log.write_ms);
        e2e.ops += log.ops;
        tally.merge(log.tally);
        spans.extend(log.spans);
        traced_ms.extend(log.traced_ms);
        ping_us.extend(log.ping_us);
        insert_us.extend(log.insert_us);
        requests.extend(log.requests);
        wire.merge(&log.wire);
    }
    e2e.backend_calls = b.cache.misses - a.cache.misses;

    // Synchronous instances, on topics nothing else asks for.
    let mut session = shared.session();
    session.options_mut().mode = ExecutionMode::Synchronous;
    for topic in SYNC_TOPICS {
        tally.attempted += 1;
        let sql = join_sql(topic);
        let t = Instant::now();
        match session.query(&sql) {
            Ok(r) if Some(&canon(&r.rows)) == plan.expected(&sql) => e2e.sync_ms.push(ms_since(t)),
            Ok(_) => tally.fail(format!("wrong synchronous result for {sql}")),
            Err(e) => tally.fail(format!("sync {sql}: {e}")),
        }
    }
    drop(session);
    server.shutdown();
    // The rest of the set-ups, a run's length after the first ones.
    drop(timed_setups(SETUPS_AFTER, setup, &mut e2e.setup_s)?);
    e2e.peak_rss_mib = procfs::peak_rss_mib();

    let mut text = Vec::new();
    let metrics = if args.trace {
        let mut l = Layers::default();
        l.fill_from_counters(&a, &b, e2e.ops);
        l.parse_us = spans::mean_us(&spans, "sql.parse");
        l.plan_us = spans::mean_us(&spans, "engine.plan");
        // Launch → completion beyond the declared latency: a cache hit
        // declares none, a miss declares `LATENCY`.
        let launched = (b.pump.launched - a.pump.launched) as f64;
        let misses = (b.cache.misses - a.cache.misses) as f64;
        let declared_ms = LATENCY.as_secs_f64() * 1e3 * misses / launched.max(1.0);
        l.call_latency_ms = crate::account::mean_ms(&a.call_latency, &b.call_latency) - declared_ms;
        l.search_us = mean_call_us(&requests, |r| {
            std::hint::black_box(plan.av.execute(r));
        });
        l.insert_us = mean(&insert_us);
        wire.fill(&mut l);
        l.ping_us = mean(&ping_us);
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
    if let Some(e) = &gate_error {
        text.push(e.clone());
    }
    text.extend(tally.problems);
    Ok(Report {
        attempted: tally.attempted,
        failed: tally.failed,
        correct: tally.failed == 0 && gate_error.is_none(),
        metrics,
        text,
    })
}

struct TraceCtx<'a> {
    tracer: &'a mut Tracer,
    query: u64,
    obs: &'a wsq_obs::Obs,
    replica: &'a std::sync::Mutex<Option<Wsq>>,
}

/// Run one operation of the mix and check its result. With a trace
/// context the operation is recorded as spans, and the layers the server
/// hides are replayed beside it.
fn one_op(
    client: &mut Client,
    plan: &Plan,
    op: Op,
    at: f64,
    ctx: Option<TraceCtx>,
    log: &mut ClientLog,
) {
    let mut ctx = ctx;
    let root = ctx.as_mut().map(|c| c.tracer.begin(c.query, None, "op"));
    let pos = ctx.as_ref().map(|c| c.obs.trace_position());
    let mut received: Vec<Tuple> = Vec::new();
    let replay_sql;
    match op {
        Op::Read(sql) => {
            log.tally.attempted += 1;
            let span = ctx
                .as_mut()
                .map(|c| c.tracer.begin(c.query, root, "client.query"));
            let t = Instant::now();
            let mut first = None;
            let result = client.query_streaming(&sql, |row| {
                first.get_or_insert_with(|| ms_since(t));
                received.push(row.clone());
            });
            let total = ms_since(t);
            if let (Some(c), Some(s)) = (ctx.as_mut(), span) {
                c.tracer.end(s);
            }
            match result {
                Ok(_) if Some(&canon(&received)) == plan.expected(&sql) => {
                    if ctx.is_some() {
                        log.traced_ms.push(total);
                    } else {
                        log.query_ms.push((at, total));
                        log.first_row_ms.push((at, first.unwrap_or(total)));
                    }
                }
                Ok(_) => log.tally.fail(format!("wrong result for {sql}")),
                Err(e) => log.tally.fail(format!("{sql}: {e}")),
            }
            replay_sql = Some(sql);
        }
        Op::Write { term, note } => {
            log.tally.attempted += 1;
            let insert = format!("INSERT INTO Visits VALUES ('{term}', {note})");
            let script = format!("{insert}; {}", readback_sql(note));
            let span = ctx
                .as_mut()
                .map(|c| c.tracer.begin(c.query, root, "client.execute"));
            let t = Instant::now();
            let result = client.execute(&script);
            let took = ms_since(t);
            if let (Some(c), Some(s)) = (ctx.as_mut(), span) {
                c.tracer.end(s);
            }
            match result {
                Ok(r) => match r.as_slice() {
                    [RemoteStatementResult::Affected(1), RemoteStatementResult::Rows(back)]
                        if canon(&back.rows) == plan.readback_expected(&term, note) =>
                    {
                        received = back.rows.clone();
                        if ctx.is_none() {
                            log.write_ms.push((at, took));
                        }
                    }
                    other => log.tally.fail(format!("{script}: {other:?}")),
                },
                Err(e) => log.tally.fail(format!("{script}: {e}")),
            }
            if let Some(c) = ctx.as_mut() {
                let row = [Tuple::new(vec![
                    Value::from(term.as_str()),
                    Value::Int(note),
                ])];
                let mut replica = c.replica.lock().expect("replica lock poisoned");
                if let Some(r) = replica.as_mut() {
                    let t = Instant::now();
                    if r.db_mut().insert("Visits", &row).is_ok() {
                        log.insert_us.push(ms_since(t) * 1e3);
                    }
                }
            }
            replay_sql = Some(insert);
        }
    }
    let Some(c) = ctx else {
        return;
    };
    if !log.wire.replay(c.tracer, c.query, root, &received) {
        log.tally.fail("wire round trip changed the rows".into());
    }
    // Parse and plan replay.
    if let Some(sql) = replay_sql {
        let parsed = c
            .tracer
            .time(c.query, root, "sql.parse", || wsq_sql::parse_one(&sql));
        if let Ok(wsq_sql::Statement::Select(sel)) = parsed {
            let replica = c.replica.lock().expect("replica lock poisoned");
            if let Some(r) = replica.as_ref() {
                let _ = c.tracer.time(c.query, root, "engine.plan", || {
                    r.db()
                        .plan_query(&sel, r.engines(), QueryOptions::default())
                });
            }
        }
    }
    let t = Instant::now();
    if c.tracer
        .time(c.query, root, "client.ping", || client.ping())
        .is_ok()
    {
        log.ping_us.push(ms_since(t) * 1e3);
    }
    if let Some(pos) = pos {
        for e in c.obs.trace_events_since(pos) {
            if log.requests.len() >= 200 {
                break;
            }
            if e.kind == EventKind::Registered {
                if let Some(req) = e.label.as_deref().and_then(parse_label) {
                    log.requests.push(req);
                }
            }
        }
    }
    if let Some(r) = root {
        c.tracer.end(r);
    }
}
