//! Time-to-first-row: ReqSync hands each tuple up as soon as its calls
//! complete (§4.1's producer/consumer protocol), so with a constrained
//! pump a cursor delivers early rows while later external calls are
//! still queued — and a capped ReqSync keeps emitting while it stalls.

use std::time::{Duration, Instant};
use wsqdsq::prelude::*;

fn slow_wsq(max_concurrent: usize, reqsync_cap: Option<usize>) -> Wsq {
    let config = WsqConfig {
        corpus: CorpusConfig::small(),
        latency: LatencyModel::Fixed(Duration::from_millis(20)),
        pump: PumpConfig {
            max_concurrent,
            ..PumpConfig::default()
        },
        query: QueryOptions {
            mode: ExecutionMode::Asynchronous,
            reqsync_cap,
            ..Default::default()
        },
        ..WsqConfig::default()
    };
    let mut wsq = Wsq::open_in_memory(config).unwrap();
    wsq.load_reference_data().unwrap();
    wsq
}

const QUERY: &str = "SELECT Name, Count FROM States, WebCount WHERE Name = T1";

/// Rows rendered as sortable strings (a multiset once sorted).
fn rendered(rows: &[Tuple]) -> Vec<String> {
    let mut out: Vec<String> = rows.iter().map(|t| format!("{t:?}")).collect();
    out.sort();
    out
}

/// Poll until the pump and the ReqSync gauges are all back to zero.
fn assert_drained(wsq: &Wsq) {
    let m = wsq.obs().metrics().unwrap();
    let deadline = Instant::now() + Duration::from_secs(2);
    while (wsq.pump().live_calls() > 0
        || m.in_flight.get() > 0
        || m.reqsync_buffered.get() > 0
        || wsq.pump().live_watchers() > 0)
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(wsq.pump().live_calls(), 0, "leaked pump registrations");
    assert_eq!(m.in_flight.get(), 0, "in-flight gauge did not drain");
    assert_eq!(m.reqsync_buffered.get(), 0, "buffered ReqSync tuples left");
    assert_eq!(wsq.pump().live_watchers(), 0, "leaked inbox watches");
}

#[test]
fn streaming_cursor_yields_first_row_early() {
    // Pump capacity 1 → 50 calls strictly sequential at 20 ms each:
    // the full result takes ≥ 1 s, but the first streamed row needs only
    // about one call.
    let mut wsq = slow_wsq(1, None);
    let t0 = Instant::now();
    let mut cursor = wsq.query_cursor(QUERY).unwrap();
    let first = cursor.next_row().unwrap().expect("at least one row");
    let first_at = t0.elapsed();
    assert!(!first.get(0).as_str().unwrap().is_empty());
    assert!(
        first_at < Duration::from_millis(300),
        "first row took {first_at:?}"
    );
    // Drain the rest; the total is dominated by the serialized calls.
    let mut rows = 1;
    while cursor.next_row().unwrap().is_some() {
        rows += 1;
    }
    let total = t0.elapsed();
    assert_eq!(rows, 50);
    assert!(total >= Duration::from_millis(900), "total only {total:?}");
    assert!(first_at < total / 3, "first row was not early");
    assert_eq!(wsq.pump().live_calls(), 0);
}

#[test]
fn capped_fan_out_emits_while_stalled() {
    // A cap of 4 below the 50-call fan-out: the ReqSync stalls after four
    // admissions and must hand up each row as its call completes rather
    // than finishing the whole capped fill first.
    let mut wsq = slow_wsq(1, Some(4));
    let t0 = Instant::now();
    let mut cursor = wsq.query_cursor(QUERY).unwrap();
    let mut rows = vec![cursor.next_row().unwrap().expect("row")];
    let first_at = t0.elapsed();
    while let Some(t) = cursor.next_row().unwrap() {
        rows.push(t);
    }
    let total = t0.elapsed();
    drop(cursor);
    assert_eq!(rows.len(), 50);
    assert!(total >= Duration::from_millis(900), "total only {total:?}");
    assert!(
        first_at < total / 3,
        "a stalled ReqSync should still emit incrementally: {first_at:?} of {total:?}"
    );

    let sync = wsq
        .query_with(
            QUERY,
            QueryOptions {
                mode: ExecutionMode::Synchronous,
                ..Default::default()
            },
        )
        .unwrap();
    assert_eq!(
        rendered(&rows),
        rendered(&sync.rows),
        "capped rows diverged"
    );
    assert_drained(&wsq);
    let m = wsq.obs().metrics().unwrap();
    assert!(m.reqsync_buffered.high_water() <= 4, "cap exceeded");
    assert!(
        m.reqsync_stalls.get() > 0,
        "the capped fan-out never stalled"
    );
}

#[test]
fn capped_limit_one_registers_only_what_it_needs() {
    // Uncapped, `open` registers the whole fan-out before the first row.
    // With a cap, admission stops at the cap, so a LIMIT 1 over the same
    // query ends after a handful of calls.
    let sql = format!("{QUERY} LIMIT 1");
    let registered = |cap: Option<usize>| {
        let mut wsq = slow_wsq(1, cap);
        let r = wsq.query(&sql).unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_drained(&wsq);
        wsq.pump().stats().registered
    };
    assert_eq!(registered(None), 50);
    let capped = registered(Some(4));
    assert!(capped < 50, "cap 4 still registered {capped} calls");
}

#[test]
fn abandoned_cursor_releases_pump_registrations() {
    let mut wsq = slow_wsq(4, None);
    let mut cursor = wsq.query_cursor(QUERY).unwrap();
    // Read a couple of rows, then abandon.
    cursor.next_row().unwrap().unwrap();
    cursor.next_row().unwrap().unwrap();
    cursor.finish().unwrap();
    // Released registrations may take one in-flight delivery to clear.
    let deadline = Instant::now() + Duration::from_secs(2);
    while wsq.pump().live_calls() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(wsq.pump().live_calls(), 0);
}

#[test]
fn cursor_schema_and_exhaustion() {
    let mut wsq = slow_wsq(64, None);
    let mut cursor = wsq
        .query_cursor("SELECT Name FROM States WHERE Population > 30000000")
        .unwrap();
    assert_eq!(cursor.schema().len(), 1);
    assert_eq!(
        cursor.next_row().unwrap().unwrap().get(0).as_str().unwrap(),
        "California"
    );
    assert!(cursor.next_row().unwrap().is_none());
    // Idempotent after exhaustion.
    assert!(cursor.next_row().unwrap().is_none());
}
