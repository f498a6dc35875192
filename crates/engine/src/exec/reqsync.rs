//! The `ReqSync` operator (paper §4.1, §4.3, §4.4): buffers incomplete
//! tuples and coordinates with ReqPump to patch them as calls complete.
//!
//! For each completed call `C`, every buffered tuple carrying a `C`
//! placeholder is processed per §4.3:
//!
//! 1. zero result rows → the tuple is **cancelled**;
//! 2. one row → its placeholder attributes are **filled in**;
//! 3. `n > 1` rows → `n − 1` **copies** are created and all are filled.
//!
//! Copies retain any placeholders for *other* pending calls (§4.4's
//! nuance) and are re-indexed under those calls. Exactly one tuple "owns"
//! each pump registration; ownership drives `ReqPump::release` so results
//! are freed exactly once even when copies proliferate references.
//!
//! # Completion delivery
//!
//! The operator subscribes one pump [`Inbox`] and watches each call once,
//! when the first tuple carrying it is admitted (watches are flushed in
//! one pump-lock acquisition just before the operator next blocks). The pump pushes each watched call into the inbox as it
//! completes, or at once if it already has. Draining takes only the
//! calls that completed: per wakeup the cost is O(completions), not
//! O(pending calls).
//!
//! # Admission and stalls (backpressure)
//!
//! There is one buffering discipline. `open` admits greedily: it pulls
//! the child until the child is exhausted or, with a buffer cap
//! configured (`QueryOptions::reqsync_cap` /
//! `WsqConfig::reqsync_buffer_cap`), until `buffered` holds `cap`
//! incomplete tuples. It never blocks, so an uncapped operator registers
//! every call of the query inside `open`.
//!
//! Reaching the cap begins a **stall**: the operator stops pulling from
//! its child (the un-pulled AEVScan side registers no new calls) until
//! completions drain occupancy to the low-water mark (`cap / 2`), then
//! admits greedily again. The stall is operator state that `next` and
//! `next_batch` carry across calls, and rows keep leaving while it
//! lasts: the operator hands up every ready tuple, and only with none in
//! hand does it block on [`Inbox::wait_drain`], which takes every
//! completion delivered so far. A completion that lands before the sleep
//! is already in the inbox, so nothing can be lost, and the blocked
//! thread holds no locks while it waits. Stalls surface as
//! `Stalled`/`Resumed` trace events, the `wsq_reqsync_stalls_total`
//! counter and the `wsq_reqsync_stall_seconds` histogram; a stall cut
//! short by `close` (a LIMIT above, an abandoned cursor) is recorded
//! once, like any other.

use super::Executor;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wsq_common::{CallId, PendingCol, Result, Schema, Tuple, TupleBatch, Value};
use wsq_obs::{EventKind, Obs};
use wsq_pump::{Inbox, ReqPump, SearchResult};

struct BufTuple {
    tuple: Tuple,
    /// Calls whose pump registration this tuple is responsible for
    /// releasing (copies own nothing unless explicitly transferred).
    owns: Vec<CallId>,
    /// When the tuple entered the buffer (patch-delay histogram anchor).
    admitted: Instant,
}

/// An admission stall in progress (see the module docs).
struct Stall {
    since: Instant,
    /// The call the `Stalled` event was traced under; `Resumed` falls
    /// back to it when no call is pending any more.
    anchor: Option<CallId>,
}

/// The request synchronizer executor.
pub struct ReqSyncExec {
    child: Box<dyn Executor>,
    pump: Arc<ReqPump>,
    obs: Obs,
    schema: Schema,
    /// Completed tuples awaiting emission.
    ready: VecDeque<Tuple>,
    /// Incomplete tuples, keyed by an internal id.
    buffered: HashMap<u64, BufTuple>,
    /// Pending call → buffered tuple ids. Compacted on every removal —
    /// an id listed here always resolves in `buffered` (asserted in
    /// debug builds), and the map is empty whenever the buffer is.
    index: HashMap<CallId, Vec<u64>>,
    /// Where the pump delivers the calls this operator watches.
    inbox: Inbox,
    /// Calls watched and not yet drained from the inbox (each call is
    /// watched once, however many tuples carry it).
    watched: HashSet<CallId>,
    /// Calls admitted but not yet passed to `Inbox::watch`.
    unwatched: Vec<CallId>,
    /// Admission-control cap on `buffered` (`None` = unbounded).
    cap: Option<usize>,
    /// The stall in progress, if the buffer reached the cap and has not
    /// yet drained to the low-water mark. Outside a stall the child is
    /// exhausted.
    stall: Option<Stall>,
    /// Executor batch size for child pulls (1 = pull the child
    /// tuple-at-a-time, bit-identical to the classic pipeline).
    batch_size: usize,
    next_id: u64,
    child_done: bool,
    opened: bool,
}

impl ReqSyncExec {
    /// Synchronize `child`'s placeholder tuples against `pump`, with an
    /// unbounded buffer (the paper's behaviour).
    pub fn new(child: Box<dyn Executor>, pump: Arc<ReqPump>) -> Self {
        Self::with_cap(child, pump, None)
    }

    /// [`ReqSyncExec::new`] with an admission-control cap on buffered
    /// incomplete tuples (`None` = unbounded; `Some(0)` is treated as 1).
    pub fn with_cap(child: Box<dyn Executor>, pump: Arc<ReqPump>, cap: Option<usize>) -> Self {
        let schema = child.schema().clone();
        let obs = pump.obs().clone();
        let inbox = pump.subscribe();
        ReqSyncExec {
            child,
            pump,
            obs,
            schema,
            ready: VecDeque::new(),
            buffered: HashMap::new(),
            index: HashMap::new(),
            inbox,
            watched: HashSet::new(),
            unwatched: Vec::new(),
            cap: cap.map(|c| c.max(1)),
            stall: None,
            batch_size: 1,
            next_id: 0,
            child_done: false,
            opened: false,
        }
    }

    /// Pull the child through `next_batch(n)` when `n > 1` (DESIGN.md
    /// §14). Batched pulls are sized to the remaining buffer room, so the
    /// high-water mark still never exceeds the cap.
    pub fn with_batch_size(mut self, n: usize) -> Self {
        self.batch_size = n.max(1);
        self
    }

    /// True iff the buffer has reached the admission-control cap.
    fn at_capacity(&self) -> bool {
        self.cap.is_some_and(|c| self.buffered.len() >= c)
    }

    /// Greedy admission: pull the child until it is exhausted or the
    /// buffer reaches the cap, which begins a stall. Never blocks on the
    /// pump.
    fn admit_greedily(&mut self) -> Result<()> {
        while !self.child_done {
            if self.at_capacity() {
                self.begin_stall();
                return Ok(());
            }
            let exhausted = if self.batch_size > 1 {
                match self.child.next_batch(self.batch_room())? {
                    Some(b) => {
                        for t in b.into_tuples() {
                            self.admit(t);
                        }
                        false
                    }
                    None => true,
                }
            } else {
                match self.child.next()? {
                    Some(t) => {
                        self.admit(t);
                        false
                    }
                    None => true,
                }
            };
            if exhausted {
                self.child.close()?;
                self.child_done = true;
            }
        }
        Ok(())
    }

    fn begin_stall(&mut self) {
        let anchor = self.trace_anchor();
        if let Some(c) = anchor {
            self.obs.event(c, EventKind::Stalled);
        }
        if let Some(m) = self.obs.metrics() {
            m.reqsync_stalls.inc();
        }
        self.stall = Some(Stall {
            since: Instant::now(),
            anchor,
        });
    }

    /// Close out the stall in progress, if any: its duration is observed
    /// exactly once, whether it resumed or was cut short.
    fn end_stall(&mut self) {
        let Some(stall) = self.stall.take() else {
            return;
        };
        if let Some(m) = self.obs.metrics() {
            m.stall_duration.observe(stall.since.elapsed());
        }
        if let Some(c) = self.trace_anchor().or(stall.anchor) {
            self.obs.event(c, EventKind::Resumed);
        }
    }

    /// Leave a stall once completions have drained the buffer to the
    /// low-water mark (`cap / 2`), and admit greedily again.
    ///
    /// A stall only persists while `buffered` is non-empty, and every
    /// buffered tuple keeps at least one pending call indexed and
    /// watched, so the inbox always has a delivery coming: a stall
    /// cannot deadlock, even at `cap == 1` (admit one → wait for its
    /// call → patch → resume). §4.3 case-3 copy multiplication may
    /// transiently overshoot the cap during a drain; the stall still ends
    /// because the query's call set is finite and copies register
    /// nothing new.
    fn resume_at_low_water(&mut self) -> Result<()> {
        if self.stall.is_some() && self.buffered.len() <= self.cap.unwrap_or(0) / 2 {
            self.end_stall();
            self.admit_greedily()?;
        }
        Ok(())
    }

    fn admit(&mut self, tuple: Tuple) {
        if !tuple.is_incomplete() {
            self.ready.push_back(tuple);
            return;
        }
        let calls = tuple.pending_calls();
        let id = self.next_id;
        self.next_id += 1;
        for &c in &calls {
            self.index.entry(c).or_default().push(id);
            if self.watched.insert(c) {
                self.unwatched.push(c);
            }
        }
        if let Some(m) = self.obs.metrics() {
            m.reqsync_buffered.add(1);
        }
        self.buffered.insert(
            id,
            BufTuple {
                tuple,
                owns: calls,
                admitted: Instant::now(),
            },
        );
    }

    /// Remove a tuple id from the index lists of `calls`, dropping lists
    /// that become empty (so `pending_calls` never names a call the pump
    /// may already have forgotten).
    fn unindex(&mut self, id: u64, calls: &[CallId]) {
        for c in calls {
            if let Some(list) = self.index.get_mut(c) {
                list.retain(|&x| x != id);
                if list.is_empty() {
                    self.index.remove(c);
                }
            }
        }
    }

    /// Apply a completed call's `outcome` to every tuple waiting on it.
    /// Stale calls (no tuple waits on them any more) are a no-op.
    fn patch_with(&mut self, call: CallId, outcome: &Result<SearchResult>) -> Result<()> {
        let Some(ids) = self.index.remove(&call) else {
            return Ok(());
        };
        self.obs.event(call, EventKind::Delivered);
        let mut ids = ids.into_iter();
        while let Some(id) = ids.next() {
            // The index is compacted on every removal (`unindex`, and the
            // error arm below), so an id listed under `call` must still be
            // buffered. A miss here means the two maps diverged — a leak
            // of buffered tuples and their pump registrations.
            let Some(entry) = self.buffered.remove(&id) else {
                debug_assert!(false, "index[{call:?}] held stale tuple id {id}");
                continue;
            };
            if let Some(m) = self.obs.metrics() {
                m.reqsync_buffered.add(-1);
                m.patch_delay.observe(entry.admitted.elapsed());
            }
            // Drop this tuple's entries under its *other* pending calls;
            // readmitted descendants are indexed afresh.
            let others: Vec<CallId> = entry
                .tuple
                .pending_calls()
                .into_iter()
                .filter(|c| *c != call)
                .collect();
            self.unindex(id, &others);
            let BufTuple {
                tuple, mut owns, ..
            } = entry;
            let owned_here = owns.iter().position(|c| *c == call).map(|i| {
                owns.remove(i);
            });
            match outcome {
                Err(e) => {
                    // A failed external call fails the query. Release what
                    // we own first so the pump does not leak.
                    if owned_here.is_some() {
                        self.pump.release(call);
                    }
                    for c in owns {
                        self.pump.release(c);
                    }
                    // Compact the *remaining* waiters on this call too.
                    // `index[call]` was already removed above; abandoning
                    // the rest of the list would leave their buffered
                    // entries unreachable — the buffered gauge stuck high
                    // and their owned registrations held until close.
                    for id in ids {
                        let Some(entry) = self.buffered.remove(&id) else {
                            debug_assert!(
                                false,
                                "index[{call:?}] held stale tuple id {id} (error path)"
                            );
                            continue;
                        };
                        if let Some(m) = self.obs.metrics() {
                            m.reqsync_buffered.add(-1);
                        }
                        let others: Vec<CallId> = entry
                            .tuple
                            .pending_calls()
                            .into_iter()
                            .filter(|c| *c != call)
                            .collect();
                        self.unindex(id, &others);
                        for c in entry.owns {
                            self.pump.release(c);
                        }
                    }
                    return Err(e.clone());
                }
                Ok(SearchResult::Count(n)) => {
                    let mut t = tuple;
                    fill(&mut t, call, |col| match col {
                        PendingCol::Count => Some(Value::Int(*n as i64)),
                        _ => None,
                    });
                    self.obs.event(call, EventKind::Patched);
                    if let Some(m) = self.obs.metrics() {
                        m.tuples_patched.inc();
                    }
                    self.readmit(t, owns);
                }
                Ok(SearchResult::Pages(hits)) => {
                    if hits.is_empty() {
                        self.obs.event(call, EventKind::TupleCancelled);
                        if let Some(m) = self.obs.metrics() {
                            m.tuples_cancelled.inc();
                        }
                        // §4.3 case 1: cancel the tuple; release any other
                        // calls it owned (their values are no longer
                        // needed by this tuple — other tuples referencing
                        // them hold their own registrations only if they
                        // made them, so transfer is unnecessary).
                        for c in owns {
                            self.pump.release(c);
                        }
                    } else {
                        // Cases 2 and 3: one patched tuple per hit. The
                        // first copy inherits ownership of the remaining
                        // calls; the rest own nothing (§4.4).
                        self.obs.event(call, EventKind::Patched);
                        if let Some(m) = self.obs.metrics() {
                            m.tuples_patched.add(hits.len() as u64);
                        }
                        for (i, hit) in hits.iter().enumerate() {
                            let mut t = tuple.clone();
                            fill(&mut t, call, |col| match col {
                                PendingCol::Url => Some(Value::Str(hit.url.clone())),
                                PendingCol::Rank => Some(Value::Int(hit.rank as i64)),
                                PendingCol::Date => Some(Value::Str(hit.date.clone())),
                                PendingCol::Count => None,
                            });
                            let owns_for_copy = if i == 0 { owns.clone() } else { Vec::new() };
                            self.readmit(t, owns_for_copy);
                        }
                    }
                }
            }
            if owned_here.is_some() {
                self.pump.release(call);
            }
        }
        Ok(())
    }

    /// Put a (possibly still incomplete) patched tuple back.
    fn readmit(&mut self, tuple: Tuple, owns: Vec<CallId>) {
        if !tuple.is_incomplete() {
            debug_assert!(owns.is_empty(), "complete tuple cannot own pending calls");
            self.ready.push_back(tuple);
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        for c in tuple.pending_calls() {
            // A copy only carries calls its original was admitted with,
            // all of them watched and not yet delivered.
            debug_assert!(self.watched.contains(&c), "readmitted {c:?} is unwatched");
            self.index.entry(c).or_default().push(id);
        }
        if let Some(m) = self.obs.metrics() {
            m.reqsync_buffered.add(1);
        }
        self.buffered.insert(
            id,
            BufTuple {
                tuple,
                owns,
                admitted: Instant::now(),
            },
        );
    }

    /// Block until at least one watched call completes, then patch with
    /// every completion delivered so far. Newly admitted calls are
    /// watched first, in one pump-lock acquisition. Callers only block
    /// with calls pending.
    fn await_completions(&mut self) -> Result<()> {
        if !self.unwatched.is_empty() {
            let calls = std::mem::take(&mut self.unwatched);
            self.inbox.watch(&calls)?;
        }
        for (cid, outcome) in self.inbox.wait_drain()? {
            self.watched.remove(&cid);
            self.patch_with(cid, &outcome)?;
        }
        Ok(())
    }

    /// The smallest pending call, when tracing is on: the call that
    /// operator-level trace events are recorded under.
    fn trace_anchor(&self) -> Option<CallId> {
        if self.obs.is_enabled() {
            self.index.keys().min().copied()
        } else {
            None
        }
    }

    /// Record a non-empty outgoing batch: `wsq_batch_rows` observes the
    /// row count, and a `BatchEmitted` trace event is anchored to the
    /// smallest still-pending call (none pending → no event, so `.trace`
    /// call counts stay untouched).
    fn emit_batch(&self, batch: TupleBatch) -> TupleBatch {
        if let Some(m) = self.obs.metrics() {
            m.batch_rows
                .observe(Duration::from_millis(batch.len() as u64));
        }
        if let Some(c) = self.trace_anchor() {
            self.obs.event(c, EventKind::BatchEmitted);
        }
        batch
    }

    /// How many tuples a batched child pull may admit right now without
    /// overshooting the admission cap (callers only pull below the cap,
    /// so the result is always at least 1).
    fn batch_room(&self) -> usize {
        match self.cap {
            Some(c) => self
                .batch_size
                .min(c.saturating_sub(self.buffered.len()).max(1)),
            None => self.batch_size,
        }
    }

    /// Drop every buffered tuple, releasing the registrations it owns,
    /// along with every watch, undelivered completion and ready row; a
    /// stall in progress is closed out.
    fn reset(&mut self) {
        self.end_stall();
        if let Some(m) = self.obs.metrics() {
            m.reqsync_buffered.add(-(self.buffered.len() as i64));
        }
        self.inbox.reset();
        self.watched.clear();
        self.unwatched.clear();
        for (_, entry) in self.buffered.drain() {
            for c in entry.owns {
                self.pump.release(c);
            }
        }
        self.index.clear();
        self.ready.clear();
    }

    /// Debug-build invariant: `index` and `buffered` agree exactly —
    /// every indexed id resolves, and every buffered tuple's pending
    /// calls are indexed. Guards the compaction contract `patch_with`
    /// relies on.
    #[cfg(debug_assertions)]
    fn assert_compact(&self) {
        for (call, list) in &self.index {
            for id in list {
                assert!(
                    self.buffered.contains_key(id),
                    "index[{call:?}] holds stale tuple id {id}"
                );
            }
        }
        for (id, entry) in &self.buffered {
            for c in entry.tuple.pending_calls() {
                assert!(
                    self.index.get(&c).is_some_and(|l| l.contains(id)),
                    "buffered tuple {id} waits on {c:?} but is not indexed under it"
                );
            }
        }
    }

    #[cfg(not(debug_assertions))]
    fn assert_compact(&self) {}

    /// Debug-build invariant at the end of the stream: nothing is left
    /// buffered, and the child was exhausted (outside a stall it always
    /// is).
    fn assert_finished(&self) {
        debug_assert!(
            self.buffered.is_empty(),
            "drained index but {} tuples still buffered",
            self.buffered.len()
        );
        debug_assert!(self.child_done, "stream ended before the child did");
    }
}

/// Replace every placeholder of `call` in `tuple` using `value_for`.
fn fill(tuple: &mut Tuple, call: CallId, value_for: impl Fn(PendingCol) -> Option<Value>) {
    for v in tuple.values_mut() {
        if let Value::Pending(p) = v {
            if p.call == call {
                if let Some(new) = value_for(p.col) {
                    *v = new;
                }
            }
        }
    }
}

impl Executor for ReqSyncExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        self.reset();
        self.child_done = false;
        self.opened = true;
        self.child.open()?;
        self.admit_greedily()
    }

    /// Hand up the next ready tuple. While stalled, ready tuples still
    /// leave; only with none in hand does the operator block, and each
    /// wakeup patches every completion delivered so far. At the
    /// low-water mark it resumes greedy admission before emitting.
    fn next(&mut self) -> Result<Option<Tuple>> {
        loop {
            self.resume_at_low_water()?;
            if let Some(t) = self.ready.pop_front() {
                return Ok(Some(t));
            }
            if self.index.is_empty() {
                self.assert_finished();
                return Ok(None);
            }
            self.assert_compact();
            self.await_completions()?;
        }
    }

    /// Batched synchronization (DESIGN.md §14): the same discipline as
    /// [`ReqSyncExec::next`], handing up to `max` ready rows out as one
    /// [`TupleBatch`]. Rows in hand beat blocking, so a partial batch
    /// leaves rather than waiting for more completions.
    fn next_batch(&mut self, max: usize) -> Result<Option<TupleBatch>> {
        loop {
            self.resume_at_low_water()?;
            if !self.ready.is_empty() {
                let n = max.max(1).min(self.ready.len());
                let mut out = TupleBatch::with_capacity(Arc::new(self.schema.clone()), n);
                for t in self.ready.drain(..n) {
                    out.push(t);
                }
                return Ok(Some(self.emit_batch(out)));
            }
            if self.index.is_empty() {
                self.assert_finished();
                return Ok(None);
            }
            self.assert_compact();
            self.await_completions()?;
        }
    }

    fn close(&mut self) -> Result<()> {
        // Release every registration still owned by buffered tuples (the
        // query may have been cut short by a LIMIT above us).
        self.reset();
        Ok(())
    }
}

impl Drop for ReqSyncExec {
    fn drop(&mut self) {
        if self.opened {
            let _ = self.close();
        }
    }
}
