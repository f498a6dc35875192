//! The metric sets a run prints: every end-to-end metric of an untraced
//! run, every per-layer metric of a traced run, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::procfs;
use crate::util::{median, quantile, ratio};

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Length of the windows the timed phase is cut into. Machine speed
/// drifts over seconds, so medians and rates are taken per window and
/// the run reports their median across windows: one slow stretch does
/// not move the result.
pub const WINDOW_S: f64 = 2.0;

/// Operations completed and process CPU spent in one window.
pub struct Window {
    pub secs: f64,
    pub ops: u64,
    pub cpu_ms: f64,
}

/// Cuts the timed phase into windows of [`WINDOW_S`].
pub struct Windows {
    start: Instant,
    last_at: Instant,
    last_ops: u64,
    last_cpu: f64,
    pub done: Vec<Window>,
}

impl Windows {
    pub fn start() -> Windows {
        let now = Instant::now();
        Windows {
            start: now,
            last_at: now,
            last_ops: 0,
            last_cpu: procfs::process_cpu_ms(),
            done: Vec::new(),
        }
    }

    pub fn started_at(&self) -> Instant {
        self.start
    }

    /// Seconds since the timed phase began: a sample's timestamp.
    pub fn at(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    fn close(&mut self, ops: u64) {
        let now = Instant::now();
        let cpu = procfs::process_cpu_ms();
        self.done.push(Window {
            secs: (now - self.last_at).as_secs_f64(),
            ops: ops - self.last_ops,
            cpu_ms: cpu - self.last_cpu,
        });
        (self.last_at, self.last_ops, self.last_cpu) = (now, ops, cpu);
    }

    /// Close the current window once it has lasted [`WINDOW_S`];
    /// `ops` counts every operation completed since the start.
    pub fn tick(&mut self, ops: u64) {
        if self.last_at.elapsed().as_secs_f64() >= WINDOW_S {
            self.close(ops);
        }
    }

    /// Close the last window, kept when it is at least half a window.
    pub fn finish(&mut self, ops: u64) {
        if self.last_at.elapsed().as_secs_f64() >= WINDOW_S / 2.0 || self.done.is_empty() {
            self.close(ops);
        }
    }
}

/// The median, across windows, of each window's median. Samples are
/// `(seconds into the timed phase, value)`.
pub fn windowed_median(samples: &[(f64, f64)]) -> f64 {
    let mut by_window: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for &(at, v) in samples {
        by_window.entry((at / WINDOW_S) as u64).or_default().push(v);
    }
    let per_window: Vec<f64> = by_window.values().map(|v| median(v)).collect();
    median(&per_window)
}

pub fn values(samples: &[(f64, f64)]) -> Vec<f64> {
    samples.iter().map(|&(_, v)| v).collect()
}

/// What an untraced run measured.
#[derive(Default)]
pub struct E2e {
    /// One entry per set-up.
    pub setup_s: Vec<f64>,
    /// Read queries of the timed phase: submit → last row.
    pub query_ms: Vec<(f64, f64)>,
    /// Read queries of the timed phase: submit → first row.
    pub first_row_ms: Vec<(f64, f64)>,
    /// INSERT statements of the timed phase.
    pub write_ms: Vec<(f64, f64)>,
    /// Synchronous-mode instances.
    pub sync_ms: Vec<f64>,
    pub windows: Vec<Window>,
    /// Operations completed in the timed phase.
    pub ops: u64,
    /// Calls that reached a search service in the timed phase.
    pub backend_calls: u64,
    pub peak_rss_mib: f64,
}

impl E2e {
    pub fn metrics(&self) -> Vec<Metric> {
        let per_window = |f: &dyn Fn(&Window) -> f64| {
            median(
                &self
                    .windows
                    .iter()
                    .filter(|w| w.ops > 0)
                    .map(f)
                    .collect::<Vec<_>>(),
            )
        };
        vec![
            m("setup_s", median(&self.setup_s), "s"),
            m("query_p50_ms", windowed_median(&self.query_ms), "ms"),
            m(
                "query_p95_ms",
                quantile(&values(&self.query_ms), 0.95),
                "ms",
            ),
            m(
                "first_row_p50_ms",
                windowed_median(&self.first_row_ms),
                "ms",
            ),
            m(
                "queries_per_s",
                per_window(&|w| w.ops as f64 / w.secs),
                "1/s",
            ),
            m("sync_query_p50_ms", median(&self.sync_ms), "ms"),
            m("write_p50_ms", windowed_median(&self.write_ms), "ms"),
            m(
                "backend_calls_per_query",
                ratio(self.backend_calls as f64, self.ops as f64),
                "count",
            ),
            m(
                "cpu_ms_per_query",
                per_window(&|w| w.cpu_ms / w.ops as f64),
                "ms",
            ),
            m("peak_rss_mb", self.peak_rss_mib, "MiB"),
        ]
    }
}

/// What a traced run measured, one field per per-layer metric. A layer a
/// workload does not exercise reads 0.
#[derive(Default)]
pub struct Layers {
    pub parse_us: f64,
    pub plan_us: f64,
    pub exec_ms: f64,
    pub exec_cpu_ms: f64,
    pub first_row_ms: f64,
    pub patched_per_query: f64,
    pub reqsync_cancelled_per_query: f64,
    pub buffered_high_water: f64,
    pub stall_ms: f64,
    pub patch_delay_ms: f64,
    pub registered_per_query: f64,
    pub launched_per_query: f64,
    pub coalesced_per_query: f64,
    pub pump_cancelled_per_query: f64,
    pub failed_per_query: f64,
    pub peak_in_flight: f64,
    pub peak_queued: f64,
    pub queue_delay_ms: f64,
    pub call_latency_ms: f64,
    pub loop_cpu_ms: f64,
    pub search_us: f64,
    pub cache_hit_ratio: f64,
    pub cache_evictions_per_query: f64,
    pub cache_coalesced_per_query: f64,
    pub pool_hit_ratio: f64,
    pub pool_misses_per_query: f64,
    pub insert_us: f64,
    pub encode_us_per_row: f64,
    pub decode_us_per_row: f64,
    pub bytes_per_row: f64,
    pub ping_us: f64,
    pub conn_cpu_ms: f64,
    pub events_per_query: f64,
    pub trace_overhead_pct: f64,
}

impl Layers {
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            m("sql.parse_us", self.parse_us, "us"),
            m("engine.plan_us", self.plan_us, "us"),
            m("engine.exec_ms", self.exec_ms, "ms"),
            m("engine.exec_cpu_ms", self.exec_cpu_ms, "ms"),
            m("engine.first_row_ms", self.first_row_ms, "ms"),
            m("reqsync.patched_per_query", self.patched_per_query, "count"),
            m(
                "reqsync.cancelled_per_query",
                self.reqsync_cancelled_per_query,
                "count",
            ),
            m(
                "reqsync.buffered_high_water",
                self.buffered_high_water,
                "count",
            ),
            m("reqsync.stall_ms", self.stall_ms, "ms"),
            m("reqsync.patch_delay_ms", self.patch_delay_ms, "ms"),
            m(
                "pump.registered_per_query",
                self.registered_per_query,
                "count",
            ),
            m("pump.launched_per_query", self.launched_per_query, "count"),
            m(
                "pump.coalesced_per_query",
                self.coalesced_per_query,
                "count",
            ),
            m(
                "pump.cancelled_per_query",
                self.pump_cancelled_per_query,
                "count",
            ),
            m("pump.failed_per_query", self.failed_per_query, "count"),
            m("pump.peak_in_flight", self.peak_in_flight, "count"),
            m("pump.peak_queued", self.peak_queued, "count"),
            m("pump.queue_delay_ms", self.queue_delay_ms, "ms"),
            m("pump.call_latency_ms", self.call_latency_ms, "ms"),
            m("pump.loop_cpu_ms", self.loop_cpu_ms, "ms"),
            m("websim.search_us", self.search_us, "us"),
            m("websim.cache_hit_ratio", self.cache_hit_ratio, "ratio"),
            m(
                "websim.cache_evictions_per_query",
                self.cache_evictions_per_query,
                "count",
            ),
            m(
                "websim.cache_coalesced_per_query",
                self.cache_coalesced_per_query,
                "count",
            ),
            m("storage.pool_hit_ratio", self.pool_hit_ratio, "ratio"),
            m(
                "storage.pool_misses_per_query",
                self.pool_misses_per_query,
                "count",
            ),
            m("storage.insert_us", self.insert_us, "us"),
            m("protocol.encode_us_per_row", self.encode_us_per_row, "us"),
            m("protocol.decode_us_per_row", self.decode_us_per_row, "us"),
            m("protocol.bytes_per_row", self.bytes_per_row, "bytes"),
            m("client.ping_us", self.ping_us, "us"),
            m("server.conn_cpu_ms", self.conn_cpu_ms, "ms"),
            m("obs.events_per_query", self.events_per_query, "count"),
            m("bench.trace_overhead_pct", self.trace_overhead_pct, "%"),
        ]
    }

    /// Counter-derived fields shared by every workload: the deltas between
    /// two drained snapshots, per operation.
    pub fn fill_from_counters(
        &mut self,
        a: &crate::account::Snap,
        b: &crate::account::Snap,
        ops: u64,
    ) {
        use crate::account::{mean_ms, sum_ms, thread_ns};
        let per = |x: u64| ratio(x as f64, ops as f64);
        self.patched_per_query = per(b.tuples_patched - a.tuples_patched);
        self.reqsync_cancelled_per_query = per(b.tuples_cancelled - a.tuples_cancelled);
        self.buffered_high_water = b.buffered_high as f64;
        self.stall_ms = ratio(sum_ms(&a.stall, &b.stall), ops as f64);
        self.patch_delay_ms = mean_ms(&a.patch_delay, &b.patch_delay);
        self.registered_per_query = per(b.pump.registered - a.pump.registered);
        self.launched_per_query = per(b.pump.launched - a.pump.launched);
        self.coalesced_per_query = per(b.pump.coalesced - a.pump.coalesced);
        self.pump_cancelled_per_query = per(b.calls_cancelled - a.calls_cancelled);
        self.failed_per_query = per(b.calls_failed - a.calls_failed);
        self.peak_in_flight = b.in_flight_high as f64;
        self.peak_queued = b.queued_high as f64;
        self.queue_delay_ms = mean_ms(&a.queue_delay, &b.queue_delay);
        self.loop_cpu_ms = ratio(thread_ns(a, b, "reqpump-loop") as f64 / 1e6, ops as f64);
        let (hits, misses) = (b.cache.hits - a.cache.hits, b.cache.misses - a.cache.misses);
        self.cache_hit_ratio = ratio(hits as f64, (hits + misses) as f64);
        self.cache_evictions_per_query = per(b.cache.evictions - a.cache.evictions);
        self.cache_coalesced_per_query = per(b.cache.coalesced - a.cache.coalesced);
        let (ph, pm) = (b.pool.hits - a.pool.hits, b.pool.misses - a.pool.misses);
        self.pool_hit_ratio = ratio(ph as f64, (ph + pm) as f64);
        self.pool_misses_per_query = per(pm);
        self.conn_cpu_ms = ratio(thread_ns(a, b, "wsq-conn") as f64 / 1e6, ops as f64);
        self.events_per_query = per(b.trace_pos - a.trace_pos);
    }
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Operations attempted and failed, with the first few failures.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 5 {
            self.problems.push(what);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
    }
}

/// The outcome of one run.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// False when a result was wrong or a check failed.
    pub correct: bool,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub text: Vec<String>,
}

impl Report {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, mt) in self.metrics.iter().enumerate() {
            let v = if mt.value.is_finite() { mt.value } else { 0.0 };
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                mt.name,
                v,
                mt.unit
            );
        }
        out.push_str("}}");
        out
    }
}
