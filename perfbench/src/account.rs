//! Counter snapshots, each taken only after the drain-and-account check.
//!
//! A snapshot taken the instant a query returns can catch the pump
//! between two counter updates. So before every snapshot the benchmark
//! waits, with a bound, until no call is live and the `in_flight` and
//! `reqsync_buffered` gauges read 0, and then requires
//! `registered == launched + coalesced + cancelled` (cancelled: released
//! while still queued, so never launched). If that never holds the run
//! reports an error; the check is not loosened.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};
use wsq_obs::{HistogramSnapshot, Obs};
use wsq_pump::{PumpStats, ReqPump};
use wsq_storage::PoolStats;
use wsq_websim::CacheStats;

use crate::procfs;

/// How long the check may wait for the pump to drain.
const DRAIN_BOUND: Duration = Duration::from_secs(5);

#[derive(Clone)]
pub struct Snap {
    pub pump: PumpStats,
    pub calls_cancelled: u64,
    pub calls_failed: u64,
    pub tuples_patched: u64,
    pub tuples_cancelled: u64,
    pub queue_delay: HistogramSnapshot,
    pub call_latency: HistogramSnapshot,
    pub patch_delay: HistogramSnapshot,
    pub stall: HistogramSnapshot,
    pub in_flight_high: i64,
    pub queued_high: i64,
    pub buffered_high: i64,
    pub trace_pos: u64,
    pub cache: CacheStats,
    pub pool: PoolStats,
    pub threads_ns: BTreeMap<String, u64>,
}

/// Sum of every engine's cache counters.
pub fn cache_total(stats: &HashMap<String, CacheStats>) -> CacheStats {
    stats
        .values()
        .fold(CacheStats::default(), |a, s| CacheStats {
            hits: a.hits + s.hits,
            misses: a.misses + s.misses,
            coalesced: a.coalesced + s.coalesced,
            evictions: a.evictions + s.evictions,
            expirations: a.expirations + s.expirations,
            inflight: a.inflight + s.inflight,
        })
}

/// Wait until the pump and ReqSync are drained and the call ledger
/// balances, then snapshot every counter. `cache` and `pool` are read
/// after the wait.
pub fn drained_snapshot(
    pump: &ReqPump,
    obs: &Obs,
    cache: impl Fn() -> CacheStats,
    pool: impl Fn() -> PoolStats,
) -> Result<Snap, String> {
    let m = obs
        .metrics()
        .ok_or("observability must be enabled for the drain check")?;
    let deadline = Instant::now() + DRAIN_BOUND;
    loop {
        let stats = pump.stats();
        let cancelled = m.calls_cancelled.get();
        let live = pump.live_calls();
        let in_flight = m.in_flight.get();
        let buffered = m.reqsync_buffered.get();
        let balanced = stats.registered == stats.launched + stats.coalesced + cancelled;
        if live == 0 && in_flight == 0 && buffered == 0 && balanced {
            return Ok(Snap {
                pump: stats,
                calls_cancelled: cancelled,
                calls_failed: m.calls_failed.get(),
                tuples_patched: m.tuples_patched.get(),
                tuples_cancelled: m.tuples_cancelled.get(),
                queue_delay: m.queue_delay.snapshot(),
                call_latency: m.call_latency.snapshot(),
                patch_delay: m.patch_delay.snapshot(),
                stall: m.stall_duration.snapshot(),
                in_flight_high: m.in_flight.high_water(),
                queued_high: m.queue_depth.high_water(),
                buffered_high: m.reqsync_buffered.high_water(),
                trace_pos: obs.trace_position(),
                cache: cache(),
                pool: pool(),
                threads_ns: procfs::thread_cpu_ns_by_name(),
            });
        }
        if Instant::now() >= deadline {
            return Err(format!(
                "drain-and-account check failed after {DRAIN_BOUND:?}: live_calls={live} \
                 in_flight={in_flight} reqsync_buffered={buffered} registered={} \
                 launched={} coalesced={} cancelled={cancelled}",
                stats.registered, stats.launched, stats.coalesced
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Reset the high-water marks so the next snapshot reports the peaks of
/// the phase that starts now.
pub fn reset_high_water(obs: &Obs) {
    if let Some(m) = obs.metrics() {
        m.in_flight.reset_high_water();
        m.queue_depth.reset_high_water();
        m.reqsync_buffered.reset_high_water();
    }
}

/// CPU nanoseconds spent by threads called `name` between two snapshots.
pub fn thread_ns(a: &Snap, b: &Snap, name: &str) -> u64 {
    let get = |s: &Snap| s.threads_ns.get(name).copied().unwrap_or(0);
    get(b).saturating_sub(get(a))
}

/// Mean of the observations recorded between two histogram snapshots, in
/// ms (0 when there were none).
pub fn mean_ms(a: &HistogramSnapshot, b: &HistogramSnapshot) -> f64 {
    let d = b.delta(a);
    if d.count == 0 {
        0.0
    } else {
        d.sum_nanos as f64 / d.count as f64 / 1e6
    }
}

/// Sum of the observations recorded between two histogram snapshots, in
/// ms.
pub fn sum_ms(a: &HistogramSnapshot, b: &HistogramSnapshot) -> f64 {
    b.delta(a).sum_nanos as f64 / 1e6
}
