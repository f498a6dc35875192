//! Model-based property tests for ReqPump: under random interleavings of
//! register / wait / release across both dispatchers and random limits,
//! the pump must deliver exactly the right results, respect its caps, and
//! never leak calls.

use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use wsq_pump::{
    DispatchMode, PumpConfig, ReqPump, RequestKind, SearchRequest, SearchResult, SearchService,
    ServiceReply,
};

/// Deterministic test service: count = f(expr), latency = tiny hash jitter.
struct HashService;

fn expected_count(expr: &str) -> u64 {
    expr.bytes().map(u64::from).sum::<u64>() % 1000
}

impl SearchService for HashService {
    fn execute(&self, req: &SearchRequest) -> ServiceReply {
        let ms = expr_latency_ms(&req.expr);
        ServiceReply {
            result: Ok(SearchResult::Count(expected_count(&req.expr))),
            latency: Duration::from_millis(ms),
        }
    }
}

fn expr_latency_ms(expr: &str) -> u64 {
    expr.bytes().map(u64::from).sum::<u64>() % 4
}

#[derive(Debug, Clone)]
enum Op {
    /// Register request with expression index `i` from the pool.
    Register(usize),
    /// Wait on the n-th still-live registration and verify its result.
    Wait(usize),
    /// Release the n-th still-live registration.
    Release(usize),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0..12usize).prop_map(Op::Register),
        2 => (0..16usize).prop_map(Op::Wait),
        2 => (0..16usize).prop_map(Op::Release),
    ]
}

fn arb_config() -> impl Strategy<Value = PumpConfig> {
    (
        prop_oneof![Just(1usize), Just(2), Just(4), Just(64)],
        any::<bool>(),
        prop_oneof![
            Just(DispatchMode::EventLoop),
            Just(DispatchMode::ThreadPool(4))
        ],
    )
        .prop_map(|(max_concurrent, coalesce, dispatch)| PumpConfig {
            max_concurrent,
            coalesce,
            dispatch,
            ..PumpConfig::default()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pump_matches_model(
        ops in prop::collection::vec(arb_op(), 1..40),
        config in arb_config(),
    ) {
        let pump = ReqPump::new(config);
        pump.register_service("AV", Arc::new(HashService));

        // Live registrations: (call id, expr). One entry per register()
        // call — coalesced registrations appear multiple times and must be
        // released once each.
        let mut live: Vec<(wsq_pump::CallId, String)> = Vec::new();
        let mut registered_per_expr: HashMap<String, usize> = HashMap::new();

        for op in ops {
            match op {
                Op::Register(i) => {
                    let expr = format!("query number {i}");
                    let call = pump.register(SearchRequest {
                        engine: "AV".into(),
                        expr: expr.clone(),
                        kind: RequestKind::Count,
                    }).unwrap();
                    *registered_per_expr.entry(expr.clone()).or_default() += 1;
                    live.push((call, expr));
                }
                Op::Wait(n) => {
                    if live.is_empty() { continue; }
                    let (call, expr) = live[n % live.len()].clone();
                    let result = pump.wait(call).unwrap();
                    prop_assert_eq!(result.count(), Some(expected_count(&expr)));
                }
                Op::Release(n) => {
                    if live.is_empty() { continue; }
                    let idx = n % live.len();
                    let (call, _) = live.remove(idx);
                    pump.release(call);
                }
            }
        }
        // Drain: every remaining registration must still be waitable and
        // produce the correct result.
        for (call, expr) in live.drain(..) {
            let result = pump.wait(call).unwrap();
            prop_assert_eq!(result.count(), Some(expected_count(&expr)));
            pump.release(call);
        }
        // A call released while in flight is cleaned up when its reply
        // arrives (the pump needs the delivery event to free per-
        // destination capacity), so allow brief quiescence.
        let deadline = std::time::Instant::now() + Duration::from_millis(500);
        while pump.live_calls() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        prop_assert_eq!(pump.live_calls(), 0, "pump leaked calls");
        prop_assert_eq!(pump.live_watchers(), 0, "pump leaked watches");

        let stats = pump.stats();
        prop_assert!(stats.peak_in_flight <= 64);
        prop_assert!(stats.launched <= stats.registered);
    }
}

#[test]
fn stress_many_concurrent_waiters() {
    // 8 threads × 50 calls against a capacity-4 pump: everything completes
    // correctly under contention.
    let pump = ReqPump::new(PumpConfig {
        max_concurrent: 4,
        ..PumpConfig::default()
    });
    pump.register_service("AV", Arc::new(HashService));
    let mut handles = Vec::new();
    for t in 0..8 {
        let pump = pump.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..50 {
                let expr = format!("thread {t} call {i}");
                let call = pump
                    .register(SearchRequest {
                        engine: "AV".into(),
                        expr: expr.clone(),
                        kind: RequestKind::Count,
                    })
                    .unwrap();
                let r = pump.wait(call).unwrap();
                assert_eq!(r.count(), Some(expected_count(&expr)));
                pump.release(call);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(pump.live_calls(), 0);
    assert_eq!(pump.live_watchers(), 0);
    assert!(pump.stats().peak_in_flight <= 4);
    assert_eq!(pump.stats().completed, pump.stats().launched);
}
