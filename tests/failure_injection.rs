//! Failure injection across the whole stack: flaky search engines must
//! fail queries *cleanly* (error surfaced, nothing leaked, instance still
//! usable) in every execution mode, and a retry decorator must restore
//! availability.

use std::sync::Arc;
use std::time::{Duration, Instant};
use wsq_protocol::{read_frame, write_frame, Frame, PROTOCOL_VERSION};
use wsqdsq::prelude::*;
use wsqdsq::websim::{DegradedConfig, DegradedService, FlakyService, RetryService};

const QUERY: &str = "SELECT Name, Count FROM States, WebCount_Shaky \
                     WHERE Name = T1 ORDER BY Count DESC, Name";

fn wsq_with_flaky(permille: u32, retries: Option<u32>) -> (Wsq, Arc<FlakyService>) {
    let mut wsq = Wsq::open_in_memory(WsqConfig::fast()).unwrap();
    wsq.load_reference_data().unwrap();
    let inner = wsq.web().engine(EngineKind::AltaVista);
    let flaky = FlakyService::new(inner, permille, 1234);
    let service: Arc<dyn wsq_pump::SearchService> = match retries {
        Some(n) => RetryService::new(flaky.clone(), n),
        None => flaky.clone(),
    };
    wsq.register_engine("Shaky", service, true);
    (wsq, flaky)
}

#[test]
fn flaky_engine_fails_queries_cleanly_in_all_modes() {
    // 100% failure: the query must error in every mode, leak nothing, and
    // leave the instance usable.
    let (mut wsq, flaky) = wsq_with_flaky(1000, None);
    for mode in [
        ExecutionMode::Synchronous,
        ExecutionMode::Asynchronous,
        ExecutionMode::ParallelJoins,
    ] {
        let err = wsq
            .query_with(
                QUERY,
                QueryOptions {
                    mode,
                    ..Default::default()
                },
            )
            .unwrap_err();
        assert!(err.to_string().contains("503"), "{mode:?}: {err}");
        // Released-in-flight registrations clear after delivery.
        let deadline = Instant::now() + Duration::from_secs(2);
        while wsq.pump().live_calls() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(wsq.pump().live_calls(), 0, "{mode:?} leaked calls");
        assert_eq!(wsq.pump().live_watchers(), 0, "{mode:?} leaked watches");
    }
    assert!(flaky.stats().failures >= 3);
    // The instance still answers healthy queries.
    let r = wsq.query("SELECT COUNT(*) FROM States").unwrap();
    assert_eq!(r.rows[0].get(0).as_int().unwrap(), 50);
    // And the healthy default engine still works.
    let r = wsq
        .query("SELECT Count FROM WebCount WHERE T1 = 'Utah'")
        .unwrap();
    assert!(r.rows[0].get(0).as_int().unwrap() > 0);
}

#[test]
fn partial_flakiness_fails_the_query_not_the_process() {
    // 30% failure: 50 calls virtually guarantee at least one failure; the
    // query errors deterministically (same seed → same flakes).
    let (mut wsq, _flaky) = wsq_with_flaky(300, None);
    let e1 = wsq.query(QUERY).unwrap_err().to_string();
    let e2 = wsq.query(QUERY).unwrap_err().to_string();
    // The injected flakes are deterministic, so the query fails every
    // time — but asynchronous completion order decides *which* failed
    // call surfaces first, so only the error class is stable.
    assert!(e1.contains("503"), "{e1}");
    assert!(e2.contains("503"), "{e2}");
}

#[test]
fn capped_query_failure_releases_every_buffer_slot() {
    // A retry decorator that still exhausts its retries (100% failure
    // under it) while a ReqSync cap is active: the error path must
    // release every admitted buffer slot and every pump registration —
    // a stuck stall here would hang this test, a missed release would
    // leave the gauges non-zero.
    let (mut wsq, flaky) = wsq_with_flaky(1000, Some(2));
    let err = wsq
        .query_with(
            QUERY,
            QueryOptions {
                reqsync_cap: Some(4),
                ..Default::default()
            },
        )
        .unwrap_err();
    assert!(err.to_string().contains("503"), "{err}");
    assert!(flaky.stats().failures >= 3, "retries never ran");

    let m = wsq.obs().metrics().unwrap();
    assert!(
        m.reqsync_buffered.high_water() <= 4,
        "cap=4 exceeded: high-water {}",
        m.reqsync_buffered.high_water()
    );
    assert_eq!(
        m.reqsync_buffered.get(),
        0,
        "failed query left buffer slots occupied"
    );
    // In-flight registrations drain once completions are delivered.
    let deadline = Instant::now() + Duration::from_secs(2);
    while (wsq.pump().live_calls() > 0 || m.in_flight.get() > 0) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(wsq.pump().live_calls(), 0, "leaked pump registrations");
    assert_eq!(m.in_flight.get(), 0, "in-flight gauge did not drain");
    assert_eq!(wsq.pump().live_watchers(), 0, "leaked inbox watches");
    // The instance is still usable afterwards.
    let r = wsq.query("SELECT COUNT(*) FROM States").unwrap();
    assert_eq!(r.rows[0].get(0).as_int().unwrap(), 50);
}

#[test]
fn flaky_backend_mid_window_releases_every_prefetched_slot() {
    // Ahead-of-need prefetch registers calls for outer tuples nobody has
    // demanded yet, and a submission window of 8 dispatches them in
    // batches. When the backend exhausts its retries mid-window the
    // query errors with most of the lookahead still unconsumed — every
    // prefetched registration must be released (counted as wasted) and
    // the gauges must drain to zero.
    let mut wsq = Wsq::open_in_memory(WsqConfig {
        pump: PumpConfig {
            submission_window: 8,
            ..PumpConfig::default()
        },
        ..WsqConfig::fast()
    })
    .unwrap();
    wsq.load_reference_data().unwrap();
    let inner = wsq.web().engine(EngineKind::AltaVista);
    let flaky = FlakyService::new(inner, 1000, 1234);
    let service: Arc<dyn wsq_pump::SearchService> = RetryService::new(flaky.clone(), 2);
    wsq.register_engine("Shaky", service, true);

    let err = wsq
        .query_with(
            QUERY,
            QueryOptions {
                reqsync_cap: Some(4),
                prefetch_depth: 8, // planner clamps the lookahead to the cap
                ..Default::default()
            },
        )
        .unwrap_err();
    assert!(err.to_string().contains("503"), "{err}");
    assert!(flaky.stats().failures >= 3, "retries never ran");

    let m = wsq.obs().metrics().unwrap();
    assert!(m.prefetch_issued.get() > 0, "prefetch never engaged");
    let deadline = Instant::now() + Duration::from_secs(2);
    while (wsq.pump().live_calls() > 0 || m.in_flight.get() > 0) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(wsq.pump().live_calls(), 0, "prefetched slots leaked");
    assert_eq!(m.in_flight.get(), 0, "in-flight gauge did not drain");
    assert_eq!(m.reqsync_buffered.get(), 0, "buffer slots leaked");
    assert_eq!(wsq.pump().live_watchers(), 0, "leaked inbox watches");
    assert!(
        m.prefetch_wasted.get() > 0,
        "error path never released its unconsumed prefetches"
    );
    // The instance is still usable afterwards.
    let r = wsq.query("SELECT COUNT(*) FROM States").unwrap();
    assert_eq!(r.rows[0].get(0).as_int().unwrap(), 50);
}

#[test]
fn flaky_backend_mid_batch_releases_every_registered_slot() {
    // Batch-at-a-time execution (DESIGN.md §14) registers a whole outer
    // batch of external calls under one pump acquisition before any row
    // is demanded downstream. When the backend exhausts its retries
    // mid-batch the query errors with most of the burst still
    // unconsumed — every registered slot must be released and every
    // gauge must drain to zero, leaving the instance usable.
    let (mut wsq, flaky) = wsq_with_flaky(1000, Some(2));
    let err = wsq
        .query_with(
            QUERY,
            QueryOptions {
                batch_size: 64, // uncapped: the full 50-state burst registers at once
                ..Default::default()
            },
        )
        .unwrap_err();
    assert!(err.to_string().contains("503"), "{err}");
    assert!(flaky.stats().failures >= 3, "retries never ran");

    let m = wsq.obs().metrics().unwrap();
    let deadline = Instant::now() + Duration::from_secs(2);
    while (wsq.pump().live_calls() > 0 || m.in_flight.get() > 0) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(wsq.pump().live_calls(), 0, "batched slots leaked");
    assert_eq!(m.in_flight.get(), 0, "in-flight gauge did not drain");
    assert_eq!(m.reqsync_buffered.get(), 0, "buffer slots leaked");
    assert_eq!(wsq.pump().live_watchers(), 0, "leaked inbox watches");
    // The instance is still usable afterwards.
    let r = wsq.query("SELECT COUNT(*) FROM States").unwrap();
    assert_eq!(r.rows[0].get(0).as_int().unwrap(), 50);
}

#[test]
fn retries_restore_availability() {
    let (mut wsq, flaky) = wsq_with_flaky(300, Some(6));
    let r = wsq.query(QUERY).unwrap();
    assert_eq!(r.rows.len(), 50);
    let stats = flaky.stats();
    assert!(stats.failures > 0, "flakes should have occurred");
    assert!(stats.successes >= 50);
    assert_eq!(wsq.pump().live_calls(), 0);
}

#[test]
fn dsq_over_flaky_engine_with_retries() {
    let (mut wsq, _) = wsq_with_flaky(200, Some(6));
    let dsq = DsqExplorer::new(&wsq, "Shaky").unwrap();
    let states = wsq.column_values("States", "Name").unwrap();
    let corr = dsq.correlate("scuba diving", &states).unwrap();
    assert_eq!(corr[0].term, "Florida");
}

// ---------------------------------------------------------------------
// PR-10 chaos matrix: degraded backends × racing × caps × batches.
//
// Every scenario composes degradation decorators over the same healthy
// engine, runs the 50-state fan-out, and must (a) return exactly the
// healthy baseline's rows and (b) drain every resource — pump slots,
// in-flight gauge, ReqSync buffer — to zero afterwards. The grammar of
// a scenario is the struct below (DESIGN.md §16).
// ---------------------------------------------------------------------

/// One cell of the degraded-backend matrix.
struct Chaos {
    name: String,
    /// `WebCount_ANY` over {Chaos, Stable} instead of `WebCount_Chaos`.
    racing: bool,
    /// Latency spikes + brownout windows on the Chaos engine.
    slow: bool,
    /// Point failures on the Chaos engine: raw 504 bursts when racing
    /// (the Stable member must cover them), retry-recoverable flakes
    /// otherwise (the query must still succeed on its own).
    flaky: bool,
    cap: Option<usize>,
    batch_size: usize,
}

const CHAOS_QUERY: &str = "SELECT Name, Count FROM States, WebCount_Chaos \
                           WHERE Name = T1 ORDER BY Count DESC, Name";
const RACE_QUERY: &str = "SELECT Name, Count FROM States, WebCount_ANY \
                          WHERE Name = T1 ORDER BY Count DESC, Name";

/// Build an instance whose `Chaos` engine composes the scenario's
/// degradation axes over the healthy AltaVista simulator; racing
/// scenarios add a healthy `Stable` member and declare the race group.
fn chaos_wsq(s: &Chaos) -> Wsq {
    let mut wsq = Wsq::open_in_memory(WsqConfig::fast()).unwrap();
    wsq.load_reference_data().unwrap();
    let mut svc: Arc<dyn wsq_pump::SearchService> = wsq.web().engine(EngineKind::AltaVista);
    if s.flaky {
        if s.racing {
            svc = DegradedService::new(
                svc,
                DegradedConfig {
                    error_burst_permille: 400,
                    seed: 7,
                    ..DegradedConfig::default()
                },
            );
        } else {
            svc = RetryService::new(FlakyService::new(svc, 300, 1234), 6);
        }
    }
    if s.slow {
        svc = DegradedService::new(
            svc,
            DegradedConfig {
                latency_spike_permille: 300,
                spike: Duration::from_millis(3),
                brownout_period: 10,
                brownout_len: 3,
                brownout_extra: Duration::from_millis(2),
                seed: 42,
                ..DegradedConfig::default()
            },
        );
    }
    wsq.register_engine("Chaos", svc, true);
    if s.racing {
        let stable = wsq.web().engine(EngineKind::AltaVista);
        wsq.register_engine("Stable", stable, true);
        wsq.set_race_group(&["Chaos", "Stable"]).unwrap();
    }
    wsq
}

/// The (Name, Count) rows as comparable values.
fn chaos_rows(r: &QueryResult) -> Vec<(String, i64)> {
    r.rows
        .iter()
        .map(|t| {
            (
                t.get(0).as_str().unwrap().to_string(),
                t.get(1).as_int().unwrap(),
            )
        })
        .collect()
}

/// Poll until every resource gauge reads zero, then assert so: a leaked
/// pump slot, in-flight registration, buffered ReqSync tuple or inbox
/// watch fails the scenario by name.
fn assert_fully_drained(pump: &ReqPump, scenario: &str) {
    let m = pump.obs().metrics().unwrap();
    let deadline = Instant::now() + Duration::from_secs(2);
    while (pump.live_calls() > 0
        || m.in_flight.get() > 0
        || m.reqsync_buffered.get() > 0
        || pump.live_watchers() > 0)
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(
        pump.live_calls(),
        0,
        "scenario '{scenario}' leaked pump slots"
    );
    assert_eq!(
        m.in_flight.get(),
        0,
        "scenario '{scenario}' left the in-flight gauge non-zero"
    );
    assert_eq!(
        m.reqsync_buffered.get(),
        0,
        "scenario '{scenario}' left buffered ReqSync tuples"
    );
    assert_eq!(
        pump.live_watchers(),
        0,
        "scenario '{scenario}' left inbox watches behind"
    );
}

#[test]
fn chaos_matrix_preserves_rows_and_drains_every_resource() {
    // Healthy baseline: the same query over an undecorated engine.
    let healthy = Chaos {
        name: "baseline".into(),
        racing: false,
        slow: false,
        flaky: false,
        cap: None,
        batch_size: 1,
    };
    let mut base = chaos_wsq(&healthy);
    let baseline = chaos_rows(&base.query(CHAOS_QUERY).unwrap());
    assert_eq!(baseline.len(), 50);

    let mut scenarios = Vec::new();
    for racing in [false, true] {
        for slow in [false, true] {
            for flaky in [false, true] {
                for (cap, batch_size) in [(None, 1), (Some(4), 16)] {
                    scenarios.push(Chaos {
                        name: format!(
                            "racing={racing} slow={slow} flaky={flaky} \
                             cap={cap:?} batch={batch_size}"
                        ),
                        racing,
                        slow,
                        flaky,
                        cap,
                        batch_size,
                    });
                }
            }
        }
    }

    let mut report = String::from("[\n");
    let total = scenarios.len();
    for (i, s) in scenarios.iter().enumerate() {
        let mut wsq = chaos_wsq(s);
        let query = if s.racing { RACE_QUERY } else { CHAOS_QUERY };
        let r = wsq
            .query_with(
                query,
                QueryOptions {
                    reqsync_cap: s.cap,
                    batch_size: s.batch_size,
                    ..Default::default()
                },
            )
            .unwrap_or_else(|e| panic!("scenario '{}' failed: {e}", s.name));
        assert_eq!(
            chaos_rows(&r),
            baseline,
            "scenario '{}' changed the result rows",
            s.name
        );
        assert_fully_drained(wsq.pump(), &s.name);
        let m = wsq.obs().metrics().unwrap();
        if s.racing {
            assert!(
                m.race_won.get() > 0,
                "scenario '{}' never decided a race",
                s.name
            );
            assert!(
                m.race_cancelled.get() > 0,
                "scenario '{}' never cancelled a losing member",
                s.name
            );
        }
        report.push_str(&format!(
            "  {{\"scenario\": \"{}\", \"rows\": {}, \"race_won\": {}, \
             \"race_cancelled\": {}, \"drained\": true}}{}\n",
            s.name,
            r.rows.len(),
            m.race_won.get(),
            m.race_cancelled.get(),
            if i + 1 < total { "," } else { "" },
        ));
    }
    report.push_str("]\n");
    // Scenario report for the CI artifact (best-effort: the assertions
    // above are the test; the file is observability).
    let _ = std::fs::write("target/degraded_scenarios.json", report);
}

// ---------------------------------------------------------------------
// Mid-stall exits. A capped ReqSync carries its stall across `next`
// calls, so a query can end while stalled: the consumer walks away, a
// call fails, or a wire client disconnects. Each exit must drain every
// resource and record the stall it cut short exactly once.
// ---------------------------------------------------------------------

/// No ORDER BY: rows stream out while the fan-out is still running.
const STALL_QUERY: &str = "SELECT Name, Count FROM States, WebCount_Stall WHERE Name = T1";

/// A cap of 4 below the 50-call fan-out, with calls slow enough that the
/// stall is still open when the scenario ends it.
fn stalling_config() -> WsqConfig {
    WsqConfig {
        latency: LatencyModel::Fixed(Duration::from_millis(5)),
        pump: PumpConfig {
            max_concurrent: 2,
            ..PumpConfig::default()
        },
        reqsync_buffer_cap: Some(4),
        ..WsqConfig::fast()
    }
}

/// An instance under [`stalling_config`] whose `Stall` engine is the
/// healthy simulator, or a flaky one (30% of calls fail, no retries).
fn stalling_wsq(flaky: bool) -> Wsq {
    let mut wsq = Wsq::open_in_memory(stalling_config()).unwrap();
    wsq.load_reference_data().unwrap();
    let mut engine: Arc<dyn wsq_pump::SearchService> = wsq.web().engine(EngineKind::AltaVista);
    if flaky {
        engine = FlakyService::new(engine, 300, 1234);
    }
    wsq.register_engine("Stall", engine, true);
    wsq
}

/// Stall episodes begun, and stall durations recorded.
fn stall_counts(pump: &ReqPump) -> (u64, u64) {
    let m = pump.obs().metrics().unwrap();
    (m.reqsync_stalls.get(), m.stall_duration.snapshot().count)
}

/// Every stall that began was recorded exactly once.
fn assert_stalls_recorded(pump: &ReqPump, scenario: &str) {
    let (stalls, recorded) = stall_counts(pump);
    assert!(stalls > 0, "scenario '{scenario}' never stalled");
    assert_eq!(
        recorded, stalls,
        "scenario '{scenario}' recorded {recorded} of {stalls} stall episodes"
    );
}

/// A stall is open: one more episode began than was recorded.
fn assert_stall_open(pump: &ReqPump, scenario: &str) {
    let (stalls, recorded) = stall_counts(pump);
    assert_eq!(
        recorded + 1,
        stalls,
        "scenario '{scenario}' was not stalled ({recorded} of {stalls} episodes recorded)"
    );
}

#[test]
fn chaos_matrix_mid_stall_exits_drain_every_resource() {
    // 1. The consumer drops its cursor between `next` calls, mid-stall.
    let scenario = "cursor dropped mid-stall";
    let mut wsq = stalling_wsq(false);
    let mut cursor = wsq.query_cursor(STALL_QUERY).unwrap();
    cursor.next_row().unwrap().expect("row");
    cursor.next_row().unwrap().expect("row");
    assert_stall_open(wsq.pump(), scenario);
    drop(cursor);
    assert_fully_drained(wsq.pump(), scenario);
    assert_stalls_recorded(wsq.pump(), scenario);

    // 2. A call fails while the ReqSync is stalled.
    let scenario = "call fails mid-stall";
    let mut wsq = stalling_wsq(true);
    let mut cursor = wsq.query_cursor(STALL_QUERY).unwrap();
    let err = loop {
        match cursor.next_row() {
            Ok(Some(_)) => {}
            Ok(None) => panic!("scenario '{scenario}': the flaky fan-out succeeded"),
            Err(e) => break e,
        }
    };
    assert!(err.to_string().contains("503"), "{scenario}: {err}");
    assert_stall_open(wsq.pump(), scenario);
    drop(cursor);
    assert_fully_drained(wsq.pump(), scenario);
    assert_stalls_recorded(wsq.pump(), scenario);

    // 3. A wire client disconnects while the server's cursor is stalled.
    let scenario = "wire client disconnects mid-stall";
    let shared = stalling_wsq(false).into_shared();
    let pump = shared.pump().clone();
    let handle = wsq_server::Server::bind(
        shared,
        wsq_server::ServerConfig {
            rows_per_frame: 1, // flush row-by-row so EPIPE surfaces fast
            ..wsq_server::ServerConfig::default()
        },
    )
    .unwrap();
    let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    write_frame(
        &mut stream,
        &Frame::Hello {
            version: PROTOCOL_VERSION,
            client: "deserter".to_string(),
        },
    )
    .unwrap();
    assert!(matches!(
        read_frame(&mut stream).unwrap(),
        Some(Frame::Welcome { .. })
    ));
    write_frame(
        &mut stream,
        &Frame::Query {
            sql: STALL_QUERY.to_string(),
        },
    )
    .unwrap();
    assert!(matches!(
        read_frame(&mut stream).unwrap(),
        Some(Frame::Schema { .. })
    ));
    assert!(matches!(
        read_frame(&mut stream).unwrap(),
        Some(Frame::Rows { .. })
    ));
    drop(stream);
    // The server notices the dead socket on a later write and drops the
    // cursor; poll until it has.
    let deadline = Instant::now() + Duration::from_secs(10);
    while pump.live_calls() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_fully_drained(&pump, scenario);
    assert_stalls_recorded(&pump, scenario);
    handle.shutdown();
}
