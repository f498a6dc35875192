//! Criterion benchmarks for the external-call fast path: the sharded
//! single-flight [`CachedService`] against the coarse single-mutex
//! baseline under 1/4/16/64-thread hit-heavy, miss-heavy and
//! duplicate-miss workloads, plus pump register/wait/release churn.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use std::time::Duration;
use wsq_bench::fastpath::{
    keyed_request, run_cache_workload, warm_hot_keys, CoarseCachedService, SpinService, Workload,
};
use wsq_common::CallId;
use wsq_pump::{PumpConfig, ReqPump, SearchService};
use wsq_websim::CachedService;

/// Ops per thread per measured round. Small enough that a calibration
/// round finishes quickly, large enough to live in steady contention.
const OPS: usize = 400;

const THREAD_COUNTS: [usize; 4] = [1, 4, 16, 64];

fn bench_cache_workloads(c: &mut Criterion) {
    for (workload, wname) in Workload::all() {
        let mut g = c.benchmark_group(format!("cache/{wname}"));
        g.sample_size(10);
        for threads in THREAD_COUNTS {
            // `round` must advance across iterations so miss workloads
            // stay cold; criterion's closure lets us carry it.
            let mut round = 0usize;
            g.bench_with_input(
                BenchmarkId::new("sharded", threads),
                &threads,
                |b, &threads| {
                    let cache: Arc<dyn SearchService> = {
                        let c = CachedService::new(SpinService::new(2_000));
                        if workload == Workload::HitHeavy {
                            warm_hot_keys(&*c);
                        }
                        c
                    };
                    b.iter(|| {
                        round += 1;
                        run_cache_workload(cache.clone(), workload, threads, OPS, round)
                    })
                },
            );
            let mut round = 0usize;
            g.bench_with_input(
                BenchmarkId::new("coarse", threads),
                &threads,
                |b, &threads| {
                    let cache: Arc<dyn SearchService> = {
                        let c = CoarseCachedService::new(SpinService::new(2_000));
                        if workload == Workload::HitHeavy {
                            warm_hot_keys(&*c);
                        }
                        c
                    };
                    b.iter(|| {
                        round += 1;
                        run_cache_workload(cache.clone(), workload, threads, OPS, round)
                    })
                },
            );
        }
        g.finish();
    }
}

/// Pump churn: every thread registers, waits on, and releases its own
/// calls through the shared pump — exercising inbox delivery and the
/// atomic stats path under contention.
fn bench_pump_churn(c: &mut Criterion) {
    let mut g = c.benchmark_group("pump/churn");
    g.sample_size(10);
    for threads in THREAD_COUNTS {
        g.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                let pump = ReqPump::new(PumpConfig {
                    max_concurrent: 256,
                    default_per_destination: 256,
                    coalesce: false,
                    ..PumpConfig::default()
                });
                pump.register_service("AV", SpinService::new(200));
                b.iter(|| {
                    let handles: Vec<_> = (0..threads)
                        .map(|_| {
                            let pump = pump.clone();
                            std::thread::spawn(move || {
                                for k in 0..32 {
                                    let cid: CallId = pump.register(keyed_request(k)).unwrap();
                                    pump.wait(cid).unwrap();
                                    pump.release(cid);
                                }
                            })
                        })
                        .collect();
                    for h in handles {
                        h.join().unwrap();
                    }
                })
            },
        );
    }
    g.finish();
}

/// Inbox drain vs per-call peeks: collect the results of a completed
/// batch. The inbox path watches every call (each is already complete,
/// so the watch delivers it at once, under one lock) and drains them.
fn bench_inbox_drain(c: &mut Criterion) {
    let pump = ReqPump::new(PumpConfig {
        max_concurrent: 512,
        default_per_destination: 512,
        ..PumpConfig::default()
    });
    pump.register_service("AV", SpinService::new(0));
    let ids: Vec<CallId> = (0..256)
        .map(|k| pump.register(keyed_request(k)).unwrap())
        .collect();
    for &cid in &ids {
        pump.wait(cid).unwrap();
    }
    let mut g = c.benchmark_group("pump/drain256");
    g.bench_function("watch_then_drain", |b| {
        b.iter(|| {
            let inbox = pump.subscribe();
            inbox.watch(&ids).unwrap();
            inbox.try_drain()
        })
    });
    g.bench_function("per_call_peek", |b| {
        b.iter(|| {
            ids.iter()
                .filter_map(|&cid| pump.peek(cid).map(|r| (cid, r)))
                .collect::<Vec<_>>()
        })
    });
    g.finish();
    std::hint::black_box(Duration::ZERO);
}

criterion_group!(
    benches,
    bench_cache_workloads,
    bench_pump_churn,
    bench_inbox_drain
);
criterion_main!(benches);
