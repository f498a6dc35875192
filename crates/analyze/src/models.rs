//! Deterministic-schedule models of the PR-1 concurrency hot paths.
//!
//! Each model re-states one protocol from `crates/pump` / `crates/websim`
//! in terms of [`schedcheck`] primitives and lets the checker explore
//! **every** thread interleaving reachable from its synchronization
//! points. The models mirror the real code shape (same lock boundaries,
//! same publish orders) rather than calling into it — the real modules
//! spawn OS worker threads and sleep on wall-clock deadlines, which a
//! deterministic scheduler cannot control.
//!
//! What each model proves (within exhaustive bounds — see
//! [`Stats::complete`](schedcheck::Stats)):
//!
//! - [`targeted_wakeup_model`]: ReqPump's completion inbox (watch under
//!   the state lock; the dispatcher delivers a batch of completions
//!   under one acquisition and wakes the inbox outside it, only on its
//!   empty → non-empty edge) never loses a wakeup, never delivers a call
//!   twice, and never delivers a call whose result is not published.
//! - [`batched_drain_model`]: the watch → `wait_drain` loop that
//!   `ReqSyncExec` runs processes every completion exactly once and
//!   terminates under every schedule.
//! - [`stall_resume_model`]: the admission discipline a *capped*
//!   ReqSync runs (DESIGN.md §11) — admit greedily until full, then
//!   carry the stall across `next` calls, handing up ready rows and
//!   blocking in `wait_drain` only empty-handed until the low-water
//!   mark, with a consumer that may stop mid-stall — never loses a
//!   wakeup (even when the pump completes the last pending call exactly
//!   as the scan stalls), never patches twice, never exceeds the cap,
//!   records every stall once, cannot deadlock at `cap == 1`, and exits
//!   with no watch left behind.
//! - [`batch_admission_model`]: the same discipline with batch-at-a-time
//!   child pulls (DESIGN.md §14) — room-sized chunks of one executor
//!   batch *larger than the cap* cross the buffer in waves, against
//!   completers racing the whole loop — never loses a wakeup, never
//!   patches twice, never lets occupancy exceed the cap, and always
//!   exits fully drained.
//! - [`late_watch_model`]: a watch that arrives after its call completed
//!   is delivered by the watch itself, and one coalesced call watched by
//!   two inboxes reaches each exactly once.
//! - [`window_flush_model`]: the submission-window flush path (pump.rs
//!   `window_batches` + event-loop dispatch) — a fill-to-window flusher
//!   racing a timer-wake flusher over one shared queue, with completions
//!   waking a waiter: no request launches twice, the waiter never misses
//!   its wakeup, and every schedule terminates (no deadlock, no
//!   stranded tail below the window size).
//! - [`single_flight_model`]: the cache's Ready/Pending promotion elects
//!   exactly one leader per key; followers coalesce onto the leader's
//!   flight and observe its published value.
//! - [`leader_failure_model`]: a failed leader removes the Pending entry
//!   (no poisoning): concurrent followers see the error, but the next
//!   request elects a fresh leader and succeeds.
//! - [`trace_ring_model`] / [`trace_ring_overwrite_model`]: the obs
//!   trace ring's reserve-then-write protocol (`crates/obs/trace.rs`)
//!   loses nothing below capacity, keeps exactly the newest events at
//!   capacity, reports the dropped count exactly, and never shows a
//!   concurrent snapshot reader a torn or unsorted view.
//! - [`adaptive_depth_model`]: the PR-6 `AdaptiveDepth` controller
//!   resizing the prefetch lookahead concurrently with the refill loop
//!   and the completer — the lookahead never exceeds `hint.depth`, the
//!   target stays in `[1, hint]`, and no wakeup is lost even when a
//!   shrink lands while the lookahead is full.
//! - [`race_cancel_model`]: the PR-10 race-group protocol (`pump.rs`
//!   `register_race` / group decide / loser cancellation) — N racing
//!   member completions vs the group waiter vs a caller coalesced onto
//!   one member: the group decides exactly once, loser cancellation
//!   releases only the race's slot ref (a coalesced joiner's ref keeps
//!   the slot alive and its wakeup is never lost), a reclaimed slot
//!   never receives a delivery, and no slot ref leaks.

use schedcheck::sync::{Condvar, Mutex};
use schedcheck::{check_with, thread, Config, Stats};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Exploration bounds for all models: small protocols, so the schedule
/// trees exhaust well inside these caps.
fn bounds() -> Config {
    Config {
        max_schedules: 50_000,
        max_steps: 5_000,
    }
}

// ---------------------------------------------------------------------
// Model 1: the ReqPump completion inbox (pump.rs `Inbox` / `InboxCore` /
// `complete_locked` / `deliver_interest`).
// ---------------------------------------------------------------------

/// An inbox's private state, exactly as in `pump.rs::InboxSlot`.
#[derive(Default)]
struct InboxSlot {
    ready: Vec<(u64, u64)>,
    watching: usize,
    /// Calls this inbox watched, so `reset` visits only their interest
    /// lists.
    watched: Vec<u64>,
    sleeping: bool,
}

impl InboxSlot {
    /// `InboxSlot::push`: queue a delivery; wake only on the empty →
    /// non-empty edge of a sleeping owner.
    fn push(&mut self, delivery: (u64, u64)) -> bool {
        let wake = self.sleeping && self.ready.is_empty();
        self.ready.push(delivery);
        if wake {
            self.sleeping = false;
        }
        wake
    }
}

/// One consumer's inbox: a private slot + condvar, as in `pump.rs`.
struct Inbox {
    slot: Mutex<InboxSlot>,
    cv: Condvar,
}

impl Inbox {
    fn new() -> Arc<Inbox> {
        Arc::new(Inbox {
            slot: Mutex::new(InboxSlot::default()),
            cv: Condvar::new(),
        })
    }

    /// `Inbox::try_drain`.
    fn try_drain(&self) -> Vec<(u64, u64)> {
        std::mem::take(&mut self.slot.lock().ready)
    }

    /// `Inbox::wait_drain`: sleep until something is delivered, then take
    /// all of it. A wait with nothing delivered and nothing watched would
    /// hang in a model; the real code errors instead.
    fn wait_drain(&self) -> Vec<(u64, u64)> {
        let mut slot = self.slot.lock();
        loop {
            if !slot.ready.is_empty() {
                slot.sleeping = false;
                return std::mem::take(&mut slot.ready);
            }
            assert!(slot.watching > 0, "inbox wait with no call watched");
            slot.sleeping = true;
            slot = self.cv.wait(slot);
        }
    }
}

/// Shared pump state: completed results and per-call interest lists,
/// both under one lock, as in `pump.rs::State`.
#[derive(Default)]
struct PumpState {
    results: BTreeMap<u64, u64>,
    interest: BTreeMap<u64, Vec<Arc<Inbox>>>,
    /// Watches that found their call already complete (coverage probe;
    /// the real code keeps no such counter).
    late_watches: usize,
}

struct MiniPump {
    state: Mutex<PumpState>,
}

impl MiniPump {
    fn new() -> MiniPump {
        MiniPump {
            state: Mutex::new(PumpState::default()),
        }
    }

    /// `Inbox::watch`: under the state lock, deliver calls that already
    /// completed and record interest in the rest; count the watches in
    /// the inbox before the state lock is dropped; notify outside it.
    fn watch(&self, inbox: &Arc<Inbox>, calls: &[u64]) {
        let mut st = self.state.lock();
        let mut done = Vec::new();
        let mut added = 0;
        for &c in calls {
            if let Some(&v) = st.results.get(&c) {
                st.late_watches += 1;
                done.push((c, v));
            } else {
                added += 1;
                st.interest.entry(c).or_default().push(inbox.clone());
            }
        }
        let wake = {
            let mut slot = inbox.slot.lock();
            slot.watching += added;
            slot.watched.extend_from_slice(calls);
            let mut wake = false;
            for d in done {
                wake |= slot.push(d);
            }
            wake
        };
        drop(st);
        if wake {
            inbox.cv.notify_one();
        }
    }

    /// The event loop's delivery round (`complete_locked` per due reply,
    /// one state-lock acquisition): publish each result and move it into
    /// every watching inbox; notify the inboxes that need it outside the
    /// lock.
    fn complete_batch(&self, batch: &[(u64, u64)]) {
        let wake = {
            let mut st = self.state.lock();
            let mut wake: Vec<Arc<Inbox>> = Vec::new();
            for &(cid, value) in batch {
                st.results.insert(cid, value);
                for inbox in st.interest.remove(&cid).unwrap_or_default() {
                    let mut slot = inbox.slot.lock();
                    slot.watching -= 1;
                    if slot.push((cid, value)) {
                        drop(slot);
                        wake.push(inbox);
                    }
                }
            }
            wake
        };
        for inbox in wake {
            inbox.cv.notify_one();
        }
    }

    fn complete(&self, cid: u64, value: u64) {
        self.complete_batch(&[(cid, value)]);
    }

    /// `Inbox::reset`: with watches outstanding, take the state lock and
    /// then the slot lock, and drop this inbox from the interest list of
    /// every call it watched; then discard undrained deliveries.
    fn reset(&self, inbox: &Arc<Inbox>) {
        if inbox.slot.lock().watching > 0 {
            let mut st = self.state.lock();
            let mut slot = inbox.slot.lock();
            for call in std::mem::take(&mut slot.watched) {
                if let Some(list) = st.interest.get_mut(&call) {
                    list.retain(|i| !Arc::ptr_eq(i, inbox));
                    if list.is_empty() {
                        st.interest.remove(&call);
                    }
                }
            }
            slot.watching = 0;
        }
        let mut slot = inbox.slot.lock();
        slot.watched.clear();
        slot.ready.clear();
    }
}

/// No lost wakeup, no double delivery, no phantom delivery: one inbox
/// watching `{1, 2}` races two completer threads, one of them delivering
/// both calls in a single batch.
pub fn targeted_wakeup_model() -> Stats {
    check_with(bounds(), || {
        let pump = Arc::new(MiniPump::new());
        let p = pump.clone();
        let single = thread::spawn(move || p.complete(1, 10));
        let p = pump.clone();
        let batch = thread::spawn(move || p.complete_batch(&[(2, 20), (3, 30)]));
        let inbox = Inbox::new();
        pump.watch(&inbox, &[1, 2]);
        let mut got: BTreeMap<u64, u64> = BTreeMap::new();
        while got.len() < 2 {
            let drained = inbox.wait_drain();
            assert!(!drained.is_empty(), "woken with nothing delivered");
            for (cid, v) in drained {
                assert!(cid == 1 || cid == 2, "delivered unwatched call {cid}");
                assert_eq!(v, cid * 10, "phantom delivery");
                assert!(got.insert(cid, v).is_none(), "double delivery of {cid}");
            }
        }
        single.join();
        batch.join();
        assert!(inbox.try_drain().is_empty(), "a call was delivered twice");
        let st = pump.state.lock();
        assert_eq!(st.results.len(), 3, "a completion vanished");
        assert!(st.interest.is_empty(), "leaked interest registration");
    })
}

/// The `ReqSyncExec` drain shape: watch once, then block on
/// `wait_drain` and patch everything it hands over, until all calls are
/// patched. Every completion is processed exactly once.
pub fn batched_drain_model() -> Stats {
    check_with(bounds(), || {
        let pump = Arc::new(MiniPump::new());
        let completers: Vec<_> = [1u64, 2u64]
            .into_iter()
            .map(|cid| {
                let p = pump.clone();
                thread::spawn(move || p.complete(cid, cid + 100))
            })
            .collect();
        let inbox = Inbox::new();
        pump.watch(&inbox, &[1, 2]);
        let mut pending: Vec<u64> = vec![1, 2];
        let mut processed: BTreeMap<u64, u64> = BTreeMap::new();
        while !pending.is_empty() {
            let drained = inbox.wait_drain();
            assert!(!drained.is_empty(), "woken with nothing delivered");
            for (cid, v) in drained {
                // Exactly-once: pending still contains the call, and we
                // have not patched it before.
                assert!(
                    processed.insert(cid, v).is_none(),
                    "double delivery of call {cid}"
                );
                pending.retain(|c| *c != cid);
            }
        }
        assert_eq!(processed.len(), 2);
        assert_eq!(processed[&1], 101);
        assert_eq!(processed[&2], 102);
        for c in completers {
            c.join();
        }
    })
}

/// A capped `ReqSyncExec` at its synchronization points, as the models
/// below drive it: the child's calls not yet pulled, admitted calls not
/// yet patched, calls admitted but not yet watched, patched rows not yet
/// emitted, and the stall carried across `next` calls.
struct MiniSync {
    cap: usize,
    /// Calls per child pull (`batch_room` caps each pull to the free
    /// space under the cap, floored at 1).
    chunk: usize,
    child: Vec<u64>,
    /// A pull found the child empty (as in the real code, exhaustion is
    /// only learned by pulling).
    child_done: bool,
    buffered: Vec<u64>,
    unwatched: Vec<u64>,
    ready: Vec<u64>,
    stalled: bool,
    /// Stall episodes begun, and episodes closed out (resumed or cut
    /// short by `close`).
    stalls: usize,
    recorded: usize,
    high_water: usize,
    processed: BTreeMap<u64, u64>,
}

impl MiniSync {
    /// `open`: admit greedily from a child yielding `calls`.
    fn open(cap: usize, chunk: usize, calls: u64) -> MiniSync {
        let mut sync = MiniSync {
            cap,
            chunk,
            child: (1..=calls).rev().collect(),
            child_done: false,
            buffered: Vec::new(),
            unwatched: Vec::new(),
            ready: Vec::new(),
            stalled: false,
            stalls: 0,
            recorded: 0,
            high_water: 0,
            processed: BTreeMap::new(),
        };
        sync.admit_greedily();
        sync
    }

    /// `admit_greedily`: pull room-sized chunks until the child is
    /// exhausted or the buffer reaches the cap, which begins a stall.
    /// Watches wait for the next flush; nothing here blocks.
    fn admit_greedily(&mut self) {
        while !self.child_done {
            if self.buffered.len() >= self.cap {
                self.stalled = true;
                self.stalls += 1;
                return;
            }
            if self.child.is_empty() {
                self.child_done = true;
                return;
            }
            let room = self
                .chunk
                .min(self.cap - self.buffered.len())
                .max(1)
                .min(self.child.len());
            for _ in 0..room {
                let cid = self.child.pop().expect("room <= child.len()");
                self.buffered.push(cid);
                self.unwatched.push(cid);
            }
            self.high_water = self.high_water.max(self.buffered.len());
        }
    }

    /// `resume_at_low_water`: at `cap / 2` the stall ends and greedy
    /// admission picks up again.
    fn resume_at_low_water(&mut self) {
        if self.stalled && self.buffered.len() <= self.cap / 2 {
            self.stalled = false;
            self.recorded += 1;
            self.admit_greedily();
        }
    }

    /// `await_completions`: one `watch` for everything admitted since
    /// the last flush, then block in `wait_drain` and patch everything
    /// it hands over into `ready`.
    fn await_some(&mut self, pump: &MiniPump, inbox: &Arc<Inbox>) {
        if !self.unwatched.is_empty() {
            let calls = std::mem::take(&mut self.unwatched);
            pump.watch(inbox, &calls);
        }
        for (cid, v) in inbox.wait_drain() {
            assert!(
                self.processed.insert(cid, v).is_none(),
                "double patch of {cid}"
            );
            self.buffered.retain(|c| *c != cid);
            self.ready.push(cid);
        }
    }

    /// `next`: resume at the low-water mark, hand up a ready row if
    /// there is one — stalled or not — and block only empty-handed.
    fn next(&mut self, pump: &MiniPump, inbox: &Arc<Inbox>) -> Option<u64> {
        loop {
            self.resume_at_low_water();
            if !self.ready.is_empty() {
                return Some(self.ready.remove(0));
            }
            if self.buffered.is_empty() {
                assert!(
                    self.child_done && !self.stalled,
                    "stream ended with the child unfinished"
                );
                return None;
            }
            self.await_some(pump, inbox);
        }
    }

    /// `close`: close out a stall in progress and drop every watch.
    fn close(&mut self, pump: &MiniPump, inbox: &Arc<Inbox>) {
        if self.stalled {
            self.stalled = false;
            self.recorded += 1;
        }
        pump.reset(inbox);
        self.buffered.clear();
        self.unwatched.clear();
        self.ready.clear();
    }
}

/// Spawn completer threads finishing `jobs` (call ids, in order per
/// thread) with value `cid + 100`.
fn spawn_completers(pump: &Arc<MiniPump>, jobs: Vec<Vec<u64>>) -> Vec<thread::JoinHandle<()>> {
    jobs.into_iter()
        .filter(|cids| !cids.is_empty())
        .map(|cids| {
            let p = pump.clone();
            thread::spawn(move || {
                for cid in cids {
                    p.complete(cid, cid + 100);
                }
            })
        })
        .collect()
}

/// The consumer side shared by the models below: pull rows through
/// `next` — at most `stop_after` of them, then `close` mid-stream —
/// join the completers, and check the exit. Every patched value is
/// right, occupancy never exceeded the cap, every stall episode was
/// closed out exactly once, and no watch or interest entry survives.
/// A consumer that reads to the end saw every call patched once.
fn consume(
    mut sync: MiniSync,
    pump: &Arc<MiniPump>,
    inbox: &Arc<Inbox>,
    completers: Vec<thread::JoinHandle<()>>,
    calls: u64,
    stop_after: Option<usize>,
) {
    let mut rows = Vec::new();
    while rows.len() < stop_after.unwrap_or(usize::MAX) {
        match sync.next(pump, inbox) {
            Some(cid) => rows.push(cid),
            None => break,
        }
    }
    sync.close(pump, inbox);
    for c in completers {
        c.join();
    }
    for (cid, v) in &sync.processed {
        assert_eq!(*v, cid + 100, "wrong patch for {cid}");
    }
    if stop_after.is_none() {
        assert_eq!(rows.len(), calls as usize, "a call was never patched");
    }
    assert!(
        sync.high_water <= sync.cap,
        "occupancy {} exceeded the cap {}",
        sync.high_water,
        sync.cap
    );
    assert_eq!(sync.recorded, sync.stalls, "a stall episode was lost");
    let slot = inbox.slot.lock();
    assert!(
        slot.watching == 0 && slot.ready.is_empty(),
        "exit left the inbox watching"
    );
    drop(slot);
    assert!(
        pump.state.lock().interest.is_empty(),
        "exit leaked interest registrations"
    );
}

/// The capped `ReqSyncExec` discipline (DESIGN.md §11) at the real
/// code's synchronization points: `open` admits greedily up to the cap
/// (watches deferred to the first flush) and stalls without blocking;
/// each `next` resumes greedy admission at the low-water mark
/// (`cap / 2`), hands up a ready row if it holds one — stalled or not —
/// and only empty-handed flushes its watches and blocks in `wait_drain`.
/// The consumer takes one row per `next` and, with `stop_after`, walks
/// away mid-stream (`close`: the open stall is closed out and every
/// watch dropped while completers are still running). Completer threads
/// race the whole loop (`split` uses two, so completion order itself is
/// explored adversarially).
///
/// The checker proves, over every interleaving: every call is patched
/// exactly once, occupancy never exceeds the cap, every stall is
/// recorded once, the exit leaves no watch behind, and the loop always
/// terminates — in particular a stall cannot miss the completion of its
/// last pending call (a watch that arrives after the completion
/// delivers it under the same lock the completer publishes under), and
/// `cap == 1`, the tightest setting, admits → waits → emits → resumes
/// without deadlock.
pub fn stall_resume_model(cap: usize, split: bool, stop_after: Option<usize>) -> Stats {
    check_with(bounds(), move || {
        let pump = Arc::new(MiniPump::new());
        // One completer finishing three calls in order, or — to explore
        // completion *order* adversarially without exploding the
        // schedule tree — two completers racing over one call each.
        let (jobs, n) = if split {
            (vec![vec![1], vec![2]], 2)
        } else {
            (vec![vec![1, 2, 3]], 3)
        };
        let completers = spawn_completers(&pump, jobs);
        let inbox = Inbox::new();
        let sync = MiniSync::open(cap, 1, n);
        consume(sync, &pump, &inbox, completers, n, stop_after);
    })
}

/// The same discipline with batch-at-a-time child pulls larger than the
/// cap (DESIGN.md §14): `batch_room` sizes each pull to the free space
/// under the cap, so one oversized batch crosses the buffer in
/// cap-bounded waves, each wave admitted before one flush. Completer
/// threads race the entire loop (`split` uses two, so completion order
/// itself is explored adversarially without exploding the schedule
/// tree).
///
/// The checker proves, over every interleaving: every call in the batch
/// is patched exactly once, occupancy never exceeds the cap (even
/// though the batch is bigger than it), no wakeup is lost — in
/// particular a completion landing exactly as admission stalls between
/// waves — and the loop always exits fully drained.
pub fn batch_admission_model(cap: usize, batch: usize, split: bool) -> Stats {
    check_with(bounds(), move || {
        let pump = Arc::new(MiniPump::new());
        // One completer finishing the batch in order, or the batch's
        // calls split across two completers so the scheduler explores
        // every completion order across the admission waves.
        let jobs: Vec<Vec<u64>> = if split {
            let mid = (batch / 2).max(1) as u64;
            vec![(1..=mid).collect(), (mid + 1..=batch as u64).collect()]
        } else {
            vec![(1..=batch as u64).collect()]
        };
        let completers = spawn_completers(&pump, jobs);
        let inbox = Inbox::new();
        let sync = MiniSync::open(cap, batch, batch as u64);
        consume(sync, &pump, &inbox, completers, batch as u64, None);
    })
}

/// The two delivery paths that bypass the plain watch → complete →
/// wake sequence, one per `shared` setting:
///
/// - `shared == false`, a **late watch**: a completer finishes call 1
///   while the consumer watches it, in every order — including after the
///   completion, when `watch` itself delivers it under the state lock.
/// - `shared == true`, a **coalesced call watched by two inboxes**: the
///   completer finishes call 7 while inbox A (this thread) and inbox B
///   (its own thread) both watch it; each gets its own copy from the
///   one delivery.
///
/// The checker proves, over every interleaving: each inbox receives the
/// call exactly once and nothing else, no waiter sleeps through its
/// delivery, and no interest entry is left behind. Returns the stats
/// and how many schedules took the watch-after-completion path, so a
/// caller can check that the path was covered.
pub fn late_watch_model(shared: bool) -> (Stats, usize) {
    let late = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let seen = late.clone();
    let stats = check_with(bounds(), move || {
        let call = if shared { 7 } else { 1 };
        let pump = Arc::new(MiniPump::new());
        let p = pump.clone();
        let completer = thread::spawn(move || p.complete(call, call + 100));
        let other = shared.then(|| {
            let p = pump.clone();
            thread::spawn(move || {
                let inbox = Inbox::new();
                p.watch(&inbox, &[call]);
                assert_eq!(inbox.wait_drain(), vec![(call, call + 100)], "inbox B");
                assert!(inbox.try_drain().is_empty(), "inbox B got {call} twice");
            })
        });
        let inbox = Inbox::new();
        pump.watch(&inbox, &[call]);
        assert_eq!(inbox.wait_drain(), vec![(call, call + 100)], "inbox A");
        completer.join();
        if let Some(b) = other {
            b.join();
        }
        assert!(inbox.try_drain().is_empty(), "inbox A got {call} twice");
        let st = pump.state.lock();
        assert!(st.interest.is_empty(), "leaked interest registration");
        if st.late_watches > 0 {
            seen.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    });
    (stats, late.load(std::sync::atomic::Ordering::Relaxed))
}

// ---------------------------------------------------------------------
// Model: submission-window flush (pump.rs event-loop windowed dispatch).
// ---------------------------------------------------------------------

/// The launch queue at the event loop's lock boundary: calls enter under
/// the state lock; flushers drain under the same lock and dispatch
/// outside it (`window_batches` → `execute_batch`).
struct WindowQueue {
    queue: Vec<u64>,
    producer_done: bool,
}

/// The windowed dispatch protocol, at the real code's synchronization
/// points: drains are exclusive (queue pops under the state lock — the
/// real `pop_launchable` marks a call InFlight under that lock, so no
/// two drains can claim the same call), dispatch happens unlocked, and
/// completions are published before the waiter condvar is notified.
struct MiniBatcher {
    state: Mutex<WindowQueue>,
    work_cv: Condvar,
    window: usize,
    /// Launch counts and published results (one lock: the model checks
    /// ordering of drains and wakeups, not counter contention).
    launched: Mutex<(BTreeMap<u64, u32>, BTreeMap<u64, u64>)>,
    done_cv: Condvar,
}

impl MiniBatcher {
    fn new(window: usize) -> MiniBatcher {
        MiniBatcher {
            state: Mutex::new(WindowQueue {
                queue: Vec::new(),
                producer_done: false,
            }),
            work_cv: Condvar::new(),
            window,
            launched: Mutex::new((BTreeMap::new(), BTreeMap::new())),
            done_cv: Condvar::new(),
        }
    }

    /// `ReqPump::register`: enqueue under the lock, then notify.
    fn enqueue(&self, cid: u64) {
        let mut st = self.state.lock();
        st.queue.push(cid);
        self.work_cv.notify_all();
    }

    fn finish_producing(&self) {
        let mut st = self.state.lock();
        st.producer_done = true;
        self.work_cv.notify_all();
    }

    /// Fill-to-window flusher: sleeps until a full window is available,
    /// but once production stops it flushes the remaining tail too — a
    /// partial window must never be stranded waiting for fills that will
    /// not come.
    fn fill_flush(&self) {
        loop {
            let batch: Vec<u64> = {
                let mut st = self.state.lock();
                while st.queue.len() < self.window && !st.producer_done {
                    st = self.work_cv.wait(st);
                }
                if st.queue.is_empty() {
                    return; // producer_done and nothing left
                }
                let take = st.queue.len().min(self.window);
                st.queue.drain(..take).collect()
            };
            self.dispatch(&batch);
        }
    }

    /// Timer-wake flusher: the event loop waking on a deadline drains
    /// whatever is queued, full window or not. A deadline wake does not
    /// block on the work condvar, so the model is a single drain the
    /// scheduler places at an arbitrary point in the race.
    fn timer_flush(&self) {
        let batch: Vec<u64> = {
            let mut st = self.state.lock();
            let take = st.queue.len().min(self.window);
            st.queue.drain(..take).collect()
        };
        if !batch.is_empty() {
            self.dispatch(&batch);
        }
    }

    /// One windowed dispatch plus its completions (collapsed: the model
    /// checks launch/flush ordering, not simulated latency). Results are
    /// published before the wake — the `complete` order.
    fn dispatch(&self, batch: &[u64]) {
        let mut l = self.launched.lock();
        for &cid in batch {
            let n = l.0.entry(cid).or_insert(0);
            *n += 1;
            assert_eq!(*n, 1, "request {cid} launched twice");
            l.1.insert(cid, cid + 100);
        }
        self.done_cv.notify_all();
    }

    /// The blocked caller (`Inbox::wait_drain` shape): the no-lost-wakeup
    /// property is this loop terminating under every schedule.
    fn wait_all(&self, n: usize) {
        let mut l = self.launched.lock();
        while l.1.len() < n {
            l = self.done_cv.wait(l);
        }
    }
}

/// Fill-to-window vs. timer flush racing over one queue while a waiter
/// blocks on completions: 2 requests through a 2-wide window. Schedules
/// where the timer flusher steals one request early leave a sub-window
/// tail of one behind, which the fill flusher must still launch once
/// production stops. Every interleaving launches each request exactly
/// once (drains are exclusive under the state lock), flushes the tail,
/// wakes the waiter, and terminates.
pub fn window_flush_model() -> Stats {
    check_with(bounds(), || {
        let b = Arc::new(MiniBatcher::new(2));
        let fill = {
            let b = b.clone();
            thread::spawn(move || b.fill_flush())
        };
        let timer = {
            let b = b.clone();
            thread::spawn(move || b.timer_flush())
        };
        // The main thread is the producer (registering calls) and then
        // the blocked waiter — the ReqSync side of the real protocol.
        for cid in 1..=2u64 {
            b.enqueue(cid);
        }
        b.finish_producing();
        b.wait_all(2);
        fill.join();
        timer.join();
        let l = b.launched.lock();
        assert_eq!(l.0.len(), 2, "a request was never launched");
        assert!(
            l.0.values().all(|&n| n == 1),
            "a request launched twice: {:?}",
            l.0
        );
        for cid in 1..=2u64 {
            assert_eq!(l.1.get(&cid), Some(&(cid + 100)));
        }
    })
}

// ---------------------------------------------------------------------
// Models 3–4: single-flight cache (websim cache.rs Ready/Pending
// promotion).
// ---------------------------------------------------------------------

/// `cache.rs::Flight`: the latch coalesced followers wait on.
struct Flight {
    outcome: Mutex<Option<Result<u64, ()>>>,
    done: Condvar,
}

impl Flight {
    fn new() -> Flight {
        Flight {
            outcome: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    fn publish(&self, r: Result<u64, ()>) {
        let mut o = self.outcome.lock();
        *o = Some(r);
        self.done.notify_all();
    }

    fn wait(&self) -> Result<u64, ()> {
        let mut o = self.outcome.lock();
        loop {
            if let Some(r) = *o {
                return r;
            }
            o = self.done.wait(o);
        }
    }
}

/// One cache shard: a single key's slot is all the model needs.
enum Slot {
    Ready(u64),
    Pending(Arc<Flight>),
}

struct MiniCache {
    shard: Mutex<Option<Slot>>,
    /// Inner-service call count (the single-flight property under test).
    inner_calls: Mutex<u32>,
    /// How many inner calls should fail before succeeding.
    failures_left: Mutex<u32>,
}

impl MiniCache {
    fn new(failures: u32) -> MiniCache {
        MiniCache {
            shard: Mutex::new(None),
            inner_calls: Mutex::new(0),
            failures_left: Mutex::new(failures),
        }
    }

    /// `cache.rs::CachedService::execute` / `lead`, with the same lock
    /// boundaries: decide hit/coalesce/lead under the shard lock; run
    /// the inner call with the lock released; re-take it to publish.
    fn execute(&self) -> Result<u64, ()> {
        let flight = {
            let mut map = self.shard.lock();
            match &*map {
                Some(Slot::Ready(v)) => return Ok(*v),
                Some(Slot::Pending(f)) => f.clone(),
                None => {
                    let f = Arc::new(Flight::new());
                    *map = Some(Slot::Pending(f.clone()));
                    drop(map);
                    return self.lead(f);
                }
            }
        };
        flight.wait()
    }

    fn lead(&self, flight: Arc<Flight>) -> Result<u64, ()> {
        // Inner call, lock-free (the lint in this same crate enforces
        // that shape on the real code).
        let result = {
            let mut calls = self.inner_calls.lock();
            *calls += 1;
            let mut fl = self.failures_left.lock();
            if *fl > 0 {
                *fl -= 1;
                Err(())
            } else {
                Ok(42)
            }
        };
        {
            let mut map = self.shard.lock();
            match result {
                Ok(v) => *map = Some(Slot::Ready(v)),
                // Failure: remove the Pending entry so the next request
                // retries (no poisoning).
                Err(()) => *map = None,
            }
        }
        flight.publish(result);
        result
    }
}

/// Exactly one leader per key: two concurrent executors plus the
/// calling thread all observe the same value, and the inner service
/// runs exactly once.
pub fn single_flight_model() -> Stats {
    check_with(bounds(), || {
        let cache = Arc::new(MiniCache::new(0));
        let t1 = {
            let c = cache.clone();
            thread::spawn(move || c.execute())
        };
        let t2 = {
            let c = cache.clone();
            thread::spawn(move || c.execute())
        };
        let r0 = cache.execute();
        let r1 = t1.join();
        let r2 = t2.join();
        assert_eq!(r0, Ok(42));
        assert_eq!(r1, Ok(42));
        assert_eq!(r2, Ok(42));
        assert_eq!(*cache.inner_calls.lock(), 1, "single-flight violated");
        assert!(
            matches!(*cache.shard.lock(), Some(Slot::Ready(42))),
            "slot not promoted to Ready"
        );
    })
}

/// Leader failure does not poison the key: a concurrent follower may
/// observe the error, but once the failed flight is gone a fresh
/// request elects a new leader and succeeds.
pub fn leader_failure_model() -> Stats {
    check_with(bounds(), || {
        let cache = Arc::new(MiniCache::new(1));
        let racer = {
            let c = cache.clone();
            thread::spawn(move || c.execute())
        };
        let first = cache.execute();
        let raced = racer.join();
        // Each concurrent request either failed with the doomed leader
        // or succeeded (as leader or follower of a retry) — never hangs.
        for r in [first, raced] {
            assert!(r == Err(()) || r == Ok(42), "unexpected result {r:?}");
        }
        // After the dust settles a fresh request must succeed: the
        // failed flight may not leave a poisoned Pending entry behind.
        let settled = cache.execute();
        assert_eq!(settled, Ok(42), "failed leader poisoned the key");
        assert!(matches!(*cache.shard.lock(), Some(Slot::Ready(42))));
        let calls = *cache.inner_calls.lock();
        assert!(
            (2..=3).contains(&calls),
            "expected one failed + one or two successful inner calls, saw {calls}"
        );
    })
}

// ---------------------------------------------------------------------
// Models 5–6: the obs trace ring (crates/obs trace.rs push/snapshot).
// ---------------------------------------------------------------------

/// The ring at `obs::TraceRing`'s exact lock boundaries: reserve a
/// sequence number first (one atomic `fetch_add` in the real code — a
/// mutexed counter here, schedcheck models no atomics), then write slot
/// `seq % capacity` under that slot's own lock, but only if the slot
/// holds nothing newer — a lapped slow writer must never clobber
/// fresher data.
struct MiniRing {
    head: Mutex<u64>,
    /// `(seq, value)` per slot; `None` = never written.
    slots: Vec<Mutex<Option<(u64, u64)>>>,
}

impl MiniRing {
    fn new(capacity: usize) -> MiniRing {
        MiniRing {
            head: Mutex::new(0),
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
        }
    }

    fn push(&self, value: u64) {
        let seq = {
            let mut h = self.head.lock();
            let s = *h;
            *h += 1;
            s
        };
        let mut slot = self.slots[seq as usize % self.slots.len()].lock();
        match *slot {
            // Someone with a newer sequence got here first: drop ours.
            Some((cur, _)) if cur > seq => {}
            _ => *slot = Some((seq, value)),
        }
    }

    /// Exact by construction: every reserved sequence is written exactly
    /// once, so the ring holds the `capacity` newest once it wraps.
    fn dropped(&self) -> u64 {
        self.head.lock().saturating_sub(self.slots.len() as u64)
    }

    fn snapshot_since(&self, pos: u64) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = Vec::new();
        for slot in &self.slots {
            if let Some((seq, v)) = *slot.lock() {
                if seq >= pos {
                    out.push((seq, v));
                }
            }
        }
        out.sort_unstable();
        out
    }
}

/// A snapshot's internal invariants, checked at any point in the race:
/// no duplicate sequence numbers, never more events than slots.
fn assert_snapshot_sane(snap: &[(u64, u64)], capacity: usize) {
    assert!(snap.len() <= capacity, "snapshot larger than the ring");
    for pair in snap.windows(2) {
        assert!(pair[0].0 < pair[1].0, "duplicate sequence in snapshot");
    }
}

/// Below capacity nothing is ever lost: two writers push one event
/// each into a 2-slot ring while the main thread snapshots mid-race;
/// every reserved sequence is present afterwards and the drop counter
/// is 0. (The ring is kept at two slots so the schedule tree exhausts;
/// the protocol is slot-local, so width adds no new interleavings.)
pub fn trace_ring_model() -> Stats {
    check_with(bounds(), || {
        let ring = Arc::new(MiniRing::new(2));
        let writers: Vec<_> = [10u64, 20u64]
            .into_iter()
            .map(|value| {
                let r = ring.clone();
                thread::spawn(move || r.push(value))
            })
            .collect();
        // Concurrent reader: whatever prefix of the race it observes
        // must be internally consistent.
        assert_snapshot_sane(&ring.snapshot_since(0), 2);
        for w in writers {
            w.join();
        }
        let snap = ring.snapshot_since(0);
        assert_snapshot_sane(&snap, 2);
        let seqs: Vec<u64> = snap.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![0, 1], "an event was lost below capacity");
        assert_eq!(ring.dropped(), 0);
        // Every written value survived, whatever sequence it drew.
        let mut values: Vec<u64> = snap.iter().map(|(_, v)| *v).collect();
        values.sort_unstable();
        assert_eq!(values, vec![10, 20]);
    })
}

/// At capacity the ring keeps exactly the newest `capacity` events and
/// counts drops exactly: 4 events through 2 slots leave sequences
/// {2, 3} and `dropped() == 2` under **every** interleaving — the
/// seq-guard means even a lapped writer scheduled last cannot resurrect
/// an old event.
pub fn trace_ring_overwrite_model() -> Stats {
    check_with(bounds(), || {
        let ring = Arc::new(MiniRing::new(2));
        let writers: Vec<_> = [10u64, 20u64]
            .into_iter()
            .map(|base| {
                let r = ring.clone();
                thread::spawn(move || {
                    r.push(base);
                    r.push(base + 1);
                })
            })
            .collect();
        assert_snapshot_sane(&ring.snapshot_since(0), 2);
        for w in writers {
            w.join();
        }
        let snap = ring.snapshot_since(0);
        let seqs: Vec<u64> = snap.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![2, 3], "ring must keep exactly the newest events");
        assert_eq!(ring.dropped(), 2, "drop counter must be exact");
        // A window query that starts after the drop horizon sees only
        // its own events.
        assert_eq!(ring.snapshot_since(3).len(), 1);
    })
}

// ---------------------------------------------------------------------
// Model 9: PR-6 adaptive-depth prefetch controller (join.rs
// `Prefetcher` + `AdaptiveDepth` resize racing refill and completion).
// ---------------------------------------------------------------------

/// The prefetch lookahead state the real `Prefetcher` keeps: the
/// current (adaptive) depth target and the outstanding prefetched
/// calls, under one lock with a single condvar for both "a completion
/// freed a slot" and "the controller resized".
struct MiniPrefetcher {
    /// `hint.depth`: the hard ceiling the planner stamped.
    hint: usize,
    state: Mutex<PrefetchState>,
    cv: Condvar,
}

struct PrefetchState {
    /// Adaptive depth target, resized within `[1, hint]`.
    depth: usize,
    /// Prefetched calls not yet completed (the lookahead).
    in_flight: usize,
    issued: usize,
    completed: usize,
    peak_in_flight: usize,
}

impl MiniPrefetcher {
    fn new(hint: usize) -> MiniPrefetcher {
        MiniPrefetcher {
            hint,
            state: Mutex::new(PrefetchState {
                depth: hint,
                in_flight: 0,
                issued: 0,
                completed: 0,
                peak_in_flight: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// The refill loop: top the lookahead up to the *current* depth
    /// target, sleeping whenever it is full, until `n` outer tuples
    /// have been issued.
    fn refill(&self, n: usize) {
        let mut st = self.state.lock();
        loop {
            if st.issued == n {
                return;
            }
            if st.in_flight < st.depth {
                st.issued += 1;
                st.in_flight += 1;
                st.peak_in_flight = st.peak_in_flight.max(st.in_flight);
                assert!(
                    st.in_flight <= self.hint,
                    "lookahead {} exceeded hint.depth {}",
                    st.in_flight,
                    self.hint
                );
                // Issuing registers the call; the completer may now run.
                self.cv.notify_all();
                continue;
            }
            st = self.cv.wait(st);
        }
    }

    /// The pump side: complete every issued call, in issue order.
    fn completer(&self, n: usize) {
        for _ in 0..n {
            let mut st = self.state.lock();
            while st.completed == st.issued {
                st = self.cv.wait(st);
            }
            st.completed += 1;
            st.in_flight -= 1;
            drop(st);
            self.cv.notify_all();
        }
    }

    /// The AdaptiveDepth controller: a shrink (queue delay dominated)
    /// followed by a grow (calls dominated), each clamped to
    /// `[1, hint]` exactly as the real controller clamps, each waking
    /// the refill loop so a grown target takes effect immediately.
    fn resizer(&self) {
        for grow in [false, true] {
            let mut st = self.state.lock();
            st.depth = if grow {
                (st.depth * 2).min(self.hint)
            } else {
                (st.depth / 2).max(1)
            };
            assert!(
                (1..=self.hint).contains(&st.depth),
                "depth target {} escaped [1, {}]",
                st.depth,
                self.hint
            );
            drop(st);
            self.cv.notify_all();
        }
    }
}

/// The adaptive-depth controller resizing concurrently with the refill
/// loop and the completer: the lookahead never exceeds `hint.depth`
/// (even mid-resize), the depth target stays in `[1, hint]`, no wakeup
/// is lost (a shrink that momentarily leaves `in_flight > depth` must
/// still drain and finish), and every schedule terminates with all
/// tuples issued and completed.
pub fn adaptive_depth_model() -> Stats {
    check_with(bounds(), || {
        const TUPLES: usize = 3;
        let p = Arc::new(MiniPrefetcher::new(2));
        let completer = {
            let p = p.clone();
            thread::spawn(move || p.completer(TUPLES))
        };
        let resizer = {
            let p = p.clone();
            thread::spawn(move || p.resizer())
        };
        p.refill(TUPLES);
        completer.join();
        resizer.join();
        let st = p.state.lock();
        assert_eq!((st.issued, st.completed), (TUPLES, TUPLES));
        assert_eq!(st.in_flight, 0, "lookahead must drain");
        assert!(
            st.peak_in_flight <= 2,
            "peak {} above hint",
            st.peak_in_flight
        );
    })
}

// ---------------------------------------------------------------------
// Model 10: PR-10 engine racing (pump.rs `register_race` / group decide
// / loser cancellation racing coalesced joiners).
// ---------------------------------------------------------------------

/// The race-group state at `pump.rs`'s lock boundaries: per-member slot
/// refcounts (the group holds one ref per member; a coalesced joiner
/// holds its own), the undecided member set, and the group's write-once
/// decision.
struct RaceGroupState {
    /// Published member results. A reclaimed slot can never receive one.
    results: BTreeMap<u64, u64>,
    /// Slot refcounts; dropping to zero reclaims the slot.
    refs: BTreeMap<u64, u32>,
    /// Members still racing (the group is undecided while the winner is
    /// unset).
    pending: Vec<u64>,
    winner: Option<u64>,
    /// Group deliveries (write-once: must end at exactly 1).
    published: u32,
    cancelled: u32,
}

fn release_ref(st: &mut RaceGroupState, cid: u64) {
    let r = st.refs.get_mut(&cid).expect("release of unknown slot");
    assert!(*r > 0, "double release of slot {cid}");
    *r -= 1;
}

struct MiniRacePump {
    state: Mutex<RaceGroupState>,
    cv: Condvar,
}

impl MiniRacePump {
    fn new(members: &[u64], coalesced_on: u64) -> MiniRacePump {
        let mut refs = BTreeMap::new();
        for &m in members {
            refs.insert(m, 1); // the race group's ref
        }
        *refs.get_mut(&coalesced_on).unwrap() += 1; // the joiner's ref
        MiniRacePump {
            state: Mutex::new(RaceGroupState {
                results: BTreeMap::new(),
                refs,
                pending: members.to_vec(),
                winner: None,
                published: 0,
                cancelled: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// `pump.rs::complete` for a race member: publish under the lock;
    /// the first completion decides the group and cancels the losers —
    /// releasing only the *race's* ref on each, so a coalesced joiner's
    /// ref keeps its slot alive — then wakes everyone after the lock
    /// drops (the real `complete` order).
    fn complete(&self, cid: u64) {
        {
            let mut st = self.state.lock();
            if st.refs.get(&cid).copied().unwrap_or(0) == 0 {
                // Slot reclaimed by cancellation before the worker
                // finished: the result is discarded, never delivered.
                assert!(
                    !st.results.contains_key(&cid),
                    "delivery into a reclaimed slot"
                );
                return;
            }
            assert!(
                st.results.insert(cid, cid + 100).is_none(),
                "double delivery for member {cid}"
            );
            if st.winner.is_none() {
                st.winner = Some(cid);
                st.published += 1;
                assert_eq!(st.published, 1, "group decided twice");
                st.pending.retain(|m| *m != cid);
                let losers: Vec<u64> = st.pending.drain(..).collect();
                for l in losers {
                    st.cancelled += 1;
                    release_ref(&mut st, l);
                }
            }
        }
        self.cv.notify_all();
    }

    /// The group waiter (`ReqPump::wait` on the group id): sleep until the
    /// race decides, then consume the winner (drop the group's ref on
    /// it).
    fn group_wait(&self) -> u64 {
        let mut st = self.state.lock();
        let winner = loop {
            if let Some(w) = st.winner {
                break w;
            }
            st = self.cv.wait(st);
        };
        assert!(
            st.results.contains_key(&winner),
            "group decided before its winner's result was published"
        );
        release_ref(&mut st, winner);
        winner
    }

    /// A caller coalesced onto one member *before* the race decided:
    /// its ref must keep the slot alive through a cancellation, and its
    /// wakeup must never be lost.
    fn coalesced_wait(&self, cid: u64) -> u64 {
        let mut st = self.state.lock();
        let v = loop {
            if let Some(v) = st.results.get(&cid) {
                break *v;
            }
            st = self.cv.wait(st);
        };
        release_ref(&mut st, cid);
        v
    }
}

/// `n` racing member completions vs the group waiter vs a caller
/// coalesced onto the last member. Over every interleaving: the group
/// decides exactly once with a member whose result is actually
/// published, exactly `n - 1` losers are cancelled, the coalesced
/// joiner always observes its member's real result (cancellation drops
/// only the race's ref, so the slot outlives the lost race), a
/// reclaimed slot never receives a delivery, and every slot ref is
/// released (no leak).
pub fn race_cancel_model(n: u64) -> Stats {
    // Three member completers + the joiner + the group waiter is the
    // widest thread set in this module; the tree still exhausts, just
    // above the shared 50k cap.
    let race_bounds = Config {
        max_schedules: 600_000,
        max_steps: 5_000,
    };
    check_with(race_bounds, move || {
        let members: Vec<u64> = (1..=n).collect();
        let coalesced = n;
        let pump = Arc::new(MiniRacePump::new(&members, coalesced));
        let completers: Vec<_> = members
            .iter()
            .map(|&cid| {
                let p = pump.clone();
                thread::spawn(move || p.complete(cid))
            })
            .collect();
        let joiner = {
            let p = pump.clone();
            thread::spawn(move || p.coalesced_wait(coalesced))
        };
        let winner = pump.group_wait();
        let joined = joiner.join();
        for c in completers {
            c.join();
        }
        let st = pump.state.lock();
        assert!(members.contains(&winner), "winner outside the group");
        assert_eq!(
            st.results.get(&winner),
            Some(&(winner + 100)),
            "phantom group decision"
        );
        assert_eq!(
            joined,
            coalesced + 100,
            "coalesced joiner observed a wrong result"
        );
        assert_eq!(st.published, 1, "the group must decide exactly once");
        assert_eq!(st.cancelled, n as u32 - 1, "loser count off");
        assert!(
            st.refs.values().all(|&r| r == 0),
            "leaked slot refs: {:?}",
            st.refs
        );
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn targeted_wakeup_has_no_lost_or_double_wakeups() {
        let stats = targeted_wakeup_model();
        assert!(stats.complete, "exploration hit the schedule cap");
        assert!(stats.schedules >= 2, "expected multiple interleavings");
    }

    #[test]
    fn batched_drain_delivers_exactly_once() {
        let stats = batched_drain_model();
        assert!(stats.complete, "exploration hit the schedule cap");
        assert!(stats.schedules >= 2, "expected multiple interleavings");
    }

    #[test]
    fn stall_resume_cannot_deadlock_at_cap_one() {
        let stats = stall_resume_model(1, false, None);
        assert!(stats.complete, "exploration hit the schedule cap");
        assert!(stats.schedules >= 2, "expected multiple interleavings");
    }

    #[test]
    fn stall_resume_loses_no_wakeup_under_adversarial_completion_order() {
        let stats = stall_resume_model(2, true, None);
        assert!(stats.complete, "exploration hit the schedule cap");
        assert!(stats.schedules >= 2, "expected multiple interleavings");
    }

    #[test]
    fn stall_resume_consumer_can_stop_mid_stall() {
        let stats = stall_resume_model(2, false, Some(1));
        assert!(stats.complete, "exploration hit the schedule cap");
        assert!(stats.schedules >= 2, "expected multiple interleavings");
    }

    #[test]
    fn batch_admission_crosses_a_cap_smaller_than_the_batch() {
        let stats = batch_admission_model(2, 3, false);
        assert!(stats.complete, "exploration hit the schedule cap");
        assert!(stats.schedules >= 2, "expected multiple interleavings");
    }

    #[test]
    fn batch_admission_survives_cap_one_under_adversarial_completion_order() {
        let stats = batch_admission_model(1, 2, true);
        assert!(stats.complete, "exploration hit the schedule cap");
        assert!(stats.schedules >= 2, "expected multiple interleavings");
    }

    #[test]
    fn late_watch_and_shared_call_deliver_exactly_once_per_inbox() {
        for shared in [false, true] {
            let (stats, late) = late_watch_model(shared);
            assert!(stats.complete, "exploration hit the schedule cap");
            assert!(stats.schedules >= 2, "expected multiple interleavings");
            assert!(late > 0, "no schedule watched a call after it completed");
            assert!(late < stats.schedules, "every schedule watched late");
        }
    }

    #[test]
    fn window_flush_launches_once_and_never_strands_the_tail() {
        let stats = window_flush_model();
        assert!(stats.complete, "exploration hit the schedule cap");
        assert!(stats.schedules >= 2, "expected multiple interleavings");
    }

    #[test]
    fn single_flight_elects_one_leader() {
        let stats = single_flight_model();
        assert!(stats.complete, "exploration hit the schedule cap");
        assert!(stats.schedules >= 2, "expected multiple interleavings");
    }

    #[test]
    fn leader_failure_does_not_poison() {
        let stats = leader_failure_model();
        assert!(stats.complete, "exploration hit the schedule cap");
        assert!(stats.schedules >= 2, "expected multiple interleavings");
    }

    #[test]
    fn trace_ring_loses_nothing_below_capacity() {
        let stats = trace_ring_model();
        assert!(stats.complete, "exploration hit the schedule cap");
        assert!(stats.schedules >= 2, "expected multiple interleavings");
    }

    #[test]
    fn adaptive_depth_resize_races_refill_without_lost_wakeup_or_overrun() {
        let stats = adaptive_depth_model();
        assert!(stats.complete, "exploration hit the schedule cap");
        assert!(stats.schedules >= 2, "expected multiple interleavings");
    }

    #[test]
    fn trace_ring_overwrite_keeps_newest_and_counts_drops_exactly() {
        let stats = trace_ring_overwrite_model();
        assert!(stats.complete, "exploration hit the schedule cap");
        assert!(stats.schedules >= 2, "expected multiple interleavings");
    }

    #[test]
    fn race_cancel_keeps_coalesced_joiners_alive() {
        let stats = race_cancel_model(2);
        assert!(stats.complete, "exploration hit the schedule cap");
        assert!(stats.schedules >= 2, "expected multiple interleavings");
    }

    #[test]
    fn race_cancel_three_members_loses_no_wakeup_and_leaks_no_slot() {
        let stats = race_cancel_model(3);
        assert!(stats.complete, "exploration hit the schedule cap");
        assert!(stats.schedules >= 2, "expected multiple interleavings");
    }
}
