//! The ReqPump implementation: registration, concurrency-limited dispatch,
//! result storage (`ReqPumpHash`), and completion signalling.
//!
//! # Completion delivery
//!
//! Completions reach consumers through an [`Inbox`]. A consumer
//! subscribes once ([`ReqPump::subscribe`]) and then [`Inbox::watch`]es
//! each call it needs, typically as the tuple carrying the call is
//! admitted. Watching records interest under the pump's state lock; if
//! the call has already completed, its result is pushed into the inbox
//! right there, under that same lock, so no completion can fall between
//! "not done yet" and "interest recorded".
//!
//! The dispatcher delivers every due reply under one state-lock
//! acquisition: it stores each result, moves a clone into every inbox
//! watching the call, and forgets the interest. An inbox is woken only
//! on its empty → non-empty edge, and only if its owner is asleep, so a
//! burst of completions costs the consumer one wakeup. The consumer
//! blocks in [`Inbox::wait_drain`] and takes *only* the calls that
//! completed, O(completions) per wakeup, never a rescan of everything
//! it is waiting on. [`ReqPump::wait`] is a one-call inbox.
//!
//! Every path that forgets a call (cancellation while queued, the last
//! release, an orphaned delivery, shutdown, a dropped inbox) drops its
//! interest too; [`ReqPump::live_watchers`] counts what is left, and
//! drain checks expect it to read 0. Statistics are plain atomics, read
//! without locking.

use crate::service::{SearchRequest, SearchResult, SearchService, ServiceReply};
use parking_lot::{Condvar, Mutex, RwLock};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wsq_common::{CallId, Result, WsqError};
use wsq_obs::{EventKind, Obs};

/// How launched calls are driven to completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchMode {
    /// One background thread drives all in-flight calls via a deadline heap
    /// (services must compute cheaply and declare simulated latency). This
    /// is the paper's preferred event-driven design (§4.2).
    EventLoop,
    /// A pool of `n` worker threads, for services that genuinely block.
    ThreadPool(usize),
}

/// ReqPump configuration.
#[derive(Debug, Clone)]
pub struct PumpConfig {
    /// Maximum calls in flight across all destinations. The paper notes an
    /// administrator configures this to avoid exhausting local resources.
    pub max_concurrent: usize,
    /// Per-destination in-flight caps ("an unwelcome number of simultaneous
    /// requests" guard). Destinations absent from the map use
    /// `default_per_destination`.
    pub per_destination: HashMap<String, usize>,
    /// Default per-destination cap.
    pub default_per_destination: usize,
    /// Merge identical in-flight requests into one network call.
    pub coalesce: bool,
    /// Submission-window size for the event-loop dispatcher: up to this
    /// many launchable requests for **one destination** are handed to the
    /// service as a single [`SearchService::execute_batch`] dispatch.
    /// `1` (the default) keeps the per-request dispatch path; per-call
    /// concurrency accounting, caps, and `Launched` events are identical
    /// either way. Ignored by [`DispatchMode::ThreadPool`] workers, which
    /// are inherently per-request.
    pub submission_window: usize,
    /// Dispatcher choice.
    pub dispatch: DispatchMode,
    /// Observability sink for call-lifecycle events and metrics
    /// ([`Obs::disabled`] by default — a pure no-op).
    pub obs: Obs,
}

impl Default for PumpConfig {
    fn default() -> Self {
        PumpConfig {
            max_concurrent: 64,
            per_destination: HashMap::new(),
            default_per_destination: 64,
            coalesce: true,
            submission_window: 1,
            dispatch: DispatchMode::EventLoop,
            obs: Obs::disabled(),
        }
    }
}

/// Cumulative pump statistics (a snapshot of the atomic counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PumpStats {
    /// Calls registered (including coalesced registrations).
    pub registered: u64,
    /// Distinct calls actually launched to a service.
    pub launched: u64,
    /// Calls completed.
    pub completed: u64,
    /// Registrations satisfied by attaching to an existing call.
    pub coalesced: u64,
    /// Highest number of simultaneously in-flight calls observed.
    pub peak_in_flight: u64,
    /// Highest queue length observed while waiting for capacity.
    pub peak_queued: u64,
    /// Windowed dispatches: `execute_batch` handoffs covering two or more
    /// requests (per-request dispatches are not counted).
    pub batches: u64,
}

/// Lock-free statistic counters; `stats()` never touches the state mutex.
#[derive(Default)]
struct Counters {
    registered: AtomicU64,
    launched: AtomicU64,
    completed: AtomicU64,
    coalesced: AtomicU64,
    peak_in_flight: AtomicU64,
    peak_queued: AtomicU64,
    batches: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> PumpStats {
        PumpStats {
            registered: self.registered.load(Ordering::Relaxed),
            launched: self.launched.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            peak_in_flight: self.peak_in_flight.load(Ordering::Relaxed),
            peak_queued: self.peak_queued.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
        }
    }
}

/// One completed call as an inbox hands it over: the call id and (a clone
/// of) its result. The result also stays in the pump's store until the
/// last registrant releases the call.
pub type Delivery = (CallId, Result<SearchResult>);

/// The part of an inbox the pump's interest lists point at.
#[derive(Default)]
struct InboxCore {
    slot: Mutex<InboxSlot>,
    cv: Condvar,
}

#[derive(Default)]
struct InboxSlot {
    /// Completed calls not yet drained by the owner.
    ready: Vec<Delivery>,
    /// Watches recorded in the pump's interest lists and not yet
    /// delivered or dropped.
    watching: usize,
    /// Calls watched since `watching` last read 0: a superset of the
    /// interest lists that still hold this inbox, so `reset` visits only
    /// these instead of every list in the pump.
    watched: Vec<CallId>,
    /// The owner is blocked in `wait_drain` (only then is a wakeup
    /// worth a syscall).
    sleeping: bool,
    /// The pump shut down; a blocked owner must stop waiting.
    shutdown: bool,
}

impl InboxSlot {
    /// Queue a completion. Returns whether the owner must be woken: true
    /// only on the empty → non-empty edge of a sleeping owner, so a batch
    /// of deliveries wakes it once.
    fn push(&mut self, delivery: Delivery) -> bool {
        let wake = self.sleeping && self.ready.is_empty();
        self.ready.push(delivery);
        if wake {
            self.sleeping = false;
        }
        wake
    }

    /// With no watch outstanding, no interest list holds this inbox, so
    /// the watched-call record can start afresh.
    fn forget_settled(&mut self) {
        if self.watching == 0 {
            self.watched.clear();
        }
    }
}

impl InboxCore {
    /// Deliver a watched call's completion (see [`InboxSlot::push`]).
    fn deliver(&self, delivery: Delivery) -> bool {
        let mut slot = self.slot.lock();
        slot.watching = slot.watching.saturating_sub(1);
        slot.push(delivery)
    }

    /// Forget one watch without delivering (the call was cancelled or
    /// orphaned). Wakes a sleeping owner whose last watch this was, so
    /// its wait ends instead of hanging.
    fn unwatch(&self) {
        let mut slot = self.slot.lock();
        slot.watching = slot.watching.saturating_sub(1);
        if slot.watching == 0 && slot.sleeping {
            slot.sleeping = false;
            self.cv.notify_one();
        }
    }

    /// The pump shut down: wake a sleeping owner for good.
    fn shut_down(&self) {
        let mut slot = self.slot.lock();
        slot.shutdown = true;
        slot.watching = 0;
        slot.watched.clear();
        slot.sleeping = false;
        self.cv.notify_one();
    }
}

/// Remove `call`'s interest list, delivering a clone of `result` into
/// each watching inbox. Inboxes that need a wakeup are appended to
/// `wake`, to be notified once the state lock is dropped.
fn deliver_interest(
    st: &mut State,
    call: CallId,
    result: &Result<SearchResult>,
    wake: &mut Vec<Arc<InboxCore>>,
) {
    for core in st.interest.remove(&call).unwrap_or_default() {
        if core.deliver((call, result.clone())) {
            wake.push(core);
        }
    }
}

/// Remove `call`'s interest list without delivering: the pump is
/// forgetting the call.
fn drop_interest(st: &mut State, call: CallId) {
    for core in st.interest.remove(&call).unwrap_or_default() {
        core.unwatch();
    }
}

/// Notify inboxes collected by [`deliver_interest`], outside the state
/// lock.
fn wake_all(wake: Vec<Arc<InboxCore>>) {
    for core in wake {
        core.cv.notify_one();
    }
}

/// A consumer's completion inbox (see the module docs).
///
/// Watch calls with [`Inbox::watch`]; completed ones arrive exactly once
/// per watch and are taken with [`Inbox::try_drain`] or
/// [`Inbox::wait_drain`]. Dropping the inbox, or [`Inbox::reset`], drops
/// every watch still outstanding.
pub struct Inbox {
    shared: Arc<Shared>,
    core: Arc<InboxCore>,
}

impl Inbox {
    /// Watch `calls`: each is delivered into this inbox once it
    /// completes, or at once if it already has. Watch a call once per
    /// inbox; a second watch delivers it a second time.
    ///
    /// Errors if the pump has shut down or a call is unknown to it
    /// (released by every registrant, or never registered); calls
    /// before the failing one stay watched.
    pub fn watch(&self, calls: &[CallId]) -> Result<()> {
        let mut st = self.shared.state.lock();
        let mut outcome = Ok(());
        let mut done = Vec::new();
        let mut added = 0;
        let mut seen = 0;
        for &call in calls {
            seen += 1;
            if let Some(result) = st.results.get(&call) {
                // Already complete: delivered under the same lock the
                // dispatcher stores results under, so nothing is lost.
                done.push((call, result.clone()));
            } else if st.shutdown {
                outcome = Err(WsqError::PumpShutdown);
                break;
            } else if !st.meta.contains_key(&call) {
                outcome = Err(WsqError::Exec(format!("watch on unknown call {call}")));
                break;
            } else {
                added += 1;
                st.interest.entry(call).or_default().push(self.core.clone());
            }
        }
        // Still under the state lock: the dispatcher cannot deliver (and
        // uncount) a watch recorded above before it is counted here.
        let wake = {
            let mut slot = self.core.slot.lock();
            slot.watching += added;
            slot.watched.extend_from_slice(&calls[..seen]);
            let mut wake = false;
            for d in done {
                wake |= slot.push(d);
            }
            wake
        };
        drop(st);
        if wake {
            self.core.cv.notify_one();
        }
        outcome
    }

    /// Take every completion delivered so far, without blocking.
    pub fn try_drain(&self) -> Vec<Delivery> {
        let mut slot = self.core.slot.lock();
        slot.forget_settled();
        std::mem::take(&mut slot.ready)
    }

    /// Block until at least one watched call has completed, then take
    /// every completion delivered so far.
    ///
    /// Errors with [`WsqError::PumpShutdown`] if the pump shuts down
    /// first, and with [`WsqError::Exec`] if nothing is delivered and no
    /// watch is outstanding (every watched call was cancelled), so the
    /// wait is never unbounded.
    pub fn wait_drain(&self) -> Result<Vec<Delivery>> {
        let mut slot = self.core.slot.lock();
        loop {
            if !slot.ready.is_empty() {
                slot.sleeping = false;
                slot.forget_settled();
                return Ok(std::mem::take(&mut slot.ready));
            }
            if slot.shutdown {
                return Err(WsqError::PumpShutdown);
            }
            if slot.watching == 0 {
                slot.sleeping = false;
                return Err(WsqError::Exec(
                    "inbox wait with no call watched".to_string(),
                ));
            }
            slot.sleeping = true;
            self.core.cv.wait(&mut slot);
        }
    }

    /// Drop every outstanding watch and every undrained delivery, leaving
    /// the inbox as freshly subscribed.
    pub fn reset(&self) {
        if self.core.slot.lock().watching > 0 {
            let mut st = self.shared.state.lock();
            let mut slot = self.core.slot.lock();
            for call in slot.watched.drain(..) {
                if let Some(list) = st.interest.get_mut(&call) {
                    list.retain(|c| !Arc::ptr_eq(c, &self.core));
                    if list.is_empty() {
                        st.interest.remove(&call);
                    }
                }
            }
            slot.watching = 0;
        }
        // No watch is left, so nothing can be delivered after this.
        let mut slot = self.core.slot.lock();
        slot.watched.clear();
        slot.ready.clear();
    }
}

impl Drop for Inbox {
    fn drop(&mut self) {
        self.reset();
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CallState {
    Queued,
    InFlight,
    Done,
}

struct CallMeta {
    req: SearchRequest,
    refs: usize,
    state: CallState,
    /// When the call was registered (queue-delay histogram anchor).
    registered_at: Instant,
    /// When the call was launched, once it has been.
    launched_at: Option<Instant>,
}

/// A first-result-wins racing group (`WebCount_ANY`): one virtual call
/// id fronting N member registrations. The first member to complete
/// successfully decides the group; the losers' group references are
/// released through the ordinary cancellation path.
struct RaceGroup {
    /// Member call ids, in registration order.
    members: Vec<CallId>,
    /// Members that have not yet resolved (successes decide immediately;
    /// the group only fails once every member has failed).
    pending: usize,
    /// Whether a winner (or a collective failure) has been recorded.
    decided: bool,
}

#[derive(Default)]
struct State {
    next_call: u64,
    queue: VecDeque<CallId>,
    meta: HashMap<CallId, CallMeta>,
    /// `ReqPumpHash`: completed results keyed by call id.
    results: HashMap<CallId, Result<SearchResult>>,
    /// Coalescing index over calls that are still known to the pump.
    index: HashMap<SearchRequest, CallId>,
    /// Inboxes watching each not-yet-completed call.
    interest: HashMap<CallId, Vec<Arc<InboxCore>>>,
    /// Racing groups keyed by their virtual group call id.
    races: HashMap<CallId, RaceGroup>,
    /// Member call id → the undecided groups it runs for (one member can
    /// serve several groups when registrations coalesce).
    race_member: HashMap<CallId, Vec<CallId>>,
    active_total: usize,
    active_per_dest: HashMap<String, usize>,
    shutdown: bool,
}

struct Shared {
    config: PumpConfig,
    services: RwLock<HashMap<String, Arc<dyn SearchService>>>,
    state: Mutex<State>,
    /// Wakes the dispatcher (new work / capacity freed / shutdown).
    work_cv: Condvar,
    stats: Counters,
}

/// The global asynchronous request manager. See the crate docs.
pub struct ReqPump {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl ReqPump {
    /// Create a pump with the given configuration and no services; register
    /// engines with [`ReqPump::register_service`] before issuing calls.
    pub fn new(config: PumpConfig) -> Arc<Self> {
        let shared = Arc::new(Shared {
            config: config.clone(),
            services: RwLock::new(HashMap::new()),
            state: Mutex::new(State::default()),
            work_cv: Condvar::new(),
            stats: Counters::default(),
        });
        let mut workers = Vec::new();
        match config.dispatch {
            DispatchMode::EventLoop => {
                let s = shared.clone();
                workers.push(
                    std::thread::Builder::new()
                        .name("reqpump-loop".into())
                        .spawn(move || event_loop(s))
                        .expect("spawn reqpump loop"),
                );
            }
            DispatchMode::ThreadPool(n) => {
                for i in 0..n.max(1) {
                    let s = shared.clone();
                    workers.push(
                        std::thread::Builder::new()
                            .name(format!("reqpump-worker-{i}"))
                            .spawn(move || worker_loop(s))
                            .expect("spawn reqpump worker"),
                    );
                }
            }
        }
        Arc::new(ReqPump {
            shared,
            workers: Mutex::new(workers),
        })
    }

    /// Convenience: a pump with default config and one service.
    pub fn with_service(name: &str, service: Arc<dyn SearchService>) -> Arc<Self> {
        let pump = Self::new(PumpConfig::default());
        pump.register_service(name, service);
        pump
    }

    /// Register (or replace) the service handling destination `name`.
    pub fn register_service(&self, name: &str, service: Arc<dyn SearchService>) {
        self.shared
            .services
            .write()
            .insert(name.to_string(), service);
    }

    /// Register an external call and return its id immediately. The call is
    /// queued (respecting concurrency limits) and executed asynchronously.
    ///
    /// With coalescing enabled, an identical request already known to the
    /// pump returns the existing id with its reference count bumped.
    ///
    /// # Example
    ///
    /// ```
    /// use std::sync::Arc;
    /// use wsq_pump::{
    ///     ReqPump, RequestKind, SearchRequest, SearchResult, SearchService, ServiceReply,
    /// };
    ///
    /// /// A toy engine: the "page count" is the expression's length.
    /// struct Len;
    /// impl SearchService for Len {
    ///     fn execute(&self, req: &SearchRequest) -> ServiceReply {
    ///         ServiceReply::instant(SearchResult::Count(req.expr.len() as u64))
    ///     }
    /// }
    ///
    /// let pump = ReqPump::with_service("AV", Arc::new(Len));
    /// let call = pump.register(SearchRequest {
    ///     engine: "AV".into(),
    ///     expr: "Colorado".into(),
    ///     kind: RequestKind::Count,
    /// })?;
    /// // `register` returned without waiting; the result arrives later.
    /// assert_eq!(pump.wait(call)?.count(), Some(8));
    /// pump.release(call); // every registrant releases its reference
    /// # Ok::<(), wsq_common::WsqError>(())
    /// ```
    pub fn register(&self, req: SearchRequest) -> Result<CallId> {
        let mut st = self.shared.state.lock();
        let cid = self.register_locked(&mut st, req)?;
        self.notify_dispatcher(st);
        Ok(cid)
    }

    /// Register a whole burst of requests under **one** state-lock
    /// acquisition, waking the dispatcher once at the end. Semantically
    /// identical to calling [`ReqPump::register`] once per request (same
    /// coalescing, same fail-fast on unknown engines, same ids), but a
    /// prefetching scan issuing `depth` calls — or a batch-at-a-time
    /// dependent join registering a whole outer batch of `batch_size`
    /// calls (DESIGN.md §14) — pays one lock round instead of one per
    /// call.
    ///
    /// Fails atomically only on shutdown: requests registered before the
    /// shutdown flag was observed keep their ids (the caller must release
    /// any ids it obtained if it aborts).
    pub fn register_batch(&self, reqs: Vec<SearchRequest>) -> Result<Vec<CallId>> {
        let mut st = self.shared.state.lock();
        let mut ids = Vec::with_capacity(reqs.len());
        for req in reqs {
            ids.push(self.register_locked(&mut st, req)?);
        }
        self.notify_dispatcher(st);
        Ok(ids)
    }

    /// Drop the state lock and wake the dispatcher for newly queued work,
    /// unless the global in-flight cap is full: then only a completion
    /// can free a slot, and the dispatcher that delivers it launches the
    /// queue itself, so the wakeup would be wasted.
    fn notify_dispatcher(&self, st: parking_lot::MutexGuard<'_, State>) {
        let full = st.active_total >= self.shared.config.max_concurrent;
        drop(st);
        if !full {
            self.shared.work_cv.notify_all();
        }
    }

    /// Register a first-result-wins **racing group**: every request in
    /// `reqs` is registered (coalescing as usual), and the returned id is
    /// a virtual *group* call that completes as soon as any member
    /// succeeds. Losing members are cancelled through the ordinary
    /// release path — still-queued losers never launch, in-flight losers
    /// are orphaned at delivery. The group only fails once **every**
    /// member has failed (with the last member's error).
    ///
    /// The group id behaves like any other call for [`ReqPump::wait`],
    /// [`Inbox::watch`], and [`ReqPump::release`]; releasing an
    /// undecided group cancels all members the group still holds
    /// references to. A single-request
    /// race degenerates to [`ReqPump::register`]; an empty one errors.
    pub fn register_race(&self, mut reqs: Vec<SearchRequest>) -> Result<CallId> {
        if reqs.is_empty() {
            return Err(WsqError::Exec(
                "register_race on empty request set".to_string(),
            ));
        }
        if reqs.len() == 1 {
            return self.register(reqs.swap_remove(0));
        }
        let mut wake = Vec::new();
        let gid = {
            let mut st = self.shared.state.lock();
            if st.shutdown {
                return Err(WsqError::PumpShutdown);
            }
            let mut members = Vec::with_capacity(reqs.len());
            for req in &reqs {
                members.push(self.register_locked(&mut st, req.clone())?);
            }
            let gid = CallId(st.next_call);
            st.next_call += 1;
            // The group gets a real meta entry (so `live_calls` counts it
            // and `watch`'s unknown-call guard accepts it) under a
            // synthesized request that can never enter the coalescing
            // index; it is never queued or launched.
            let synth = SearchRequest {
                engine: format!(
                    "race({})",
                    reqs.iter()
                        .map(|r| r.engine.as_str())
                        .collect::<Vec<_>>()
                        .join("|")
                ),
                expr: reqs[0].expr.clone(),
                kind: reqs[0].kind.clone(),
            };
            let obs = &self.shared.config.obs;
            obs.event_with(gid, EventKind::Registered, || synth.to_string().into());
            st.meta.insert(
                gid,
                CallMeta {
                    req: synth,
                    refs: 1,
                    state: CallState::InFlight,
                    registered_at: Instant::now(),
                    launched_at: None,
                },
            );
            st.races.insert(
                gid,
                RaceGroup {
                    members: members.clone(),
                    pending: members.len(),
                    decided: false,
                },
            );
            for &m in &members {
                st.race_member.entry(m).or_default().push(gid);
            }
            // Members that are already complete (coalesced onto finished
            // calls, or fail-fast unknown engines) decide the group now.
            for &m in &members {
                if st.races.get(&gid).is_none_or(|g| g.decided) {
                    break;
                }
                if let Some(r) = st.results.get(&m).cloned() {
                    race_resolve(&self.shared, &mut st, m, &r, &mut wake);
                }
            }
            gid
        };
        wake_all(wake);
        self.shared.work_cv.notify_all();
        Ok(gid)
    }

    /// Whether identical in-flight requests coalesce onto one call.
    /// Prefetching callers check this: with coalescing off, an eager
    /// registration plus the later demand-side registration would issue
    /// the same request twice.
    pub fn coalescing_enabled(&self) -> bool {
        self.shared.config.coalesce
    }

    /// The registration body, run under the already-held state lock.
    /// Does **not** notify the dispatcher — callers notify once after
    /// dropping the lock.
    fn register_locked(&self, st: &mut State, req: SearchRequest) -> Result<CallId> {
        if st.shutdown {
            return Err(WsqError::PumpShutdown);
        }
        let obs = &self.shared.config.obs;
        self.shared.stats.registered.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = obs.metrics() {
            m.calls_registered.inc();
        }
        if self.shared.config.coalesce {
            if let Some(&cid) = st.index.get(&req) {
                // The index and meta maps are kept in step under the state
                // lock; if the entry is somehow gone, fall through and
                // register a fresh call rather than panic.
                if let Some(meta) = st.meta.get_mut(&cid) {
                    self.shared.stats.coalesced.fetch_add(1, Ordering::Relaxed);
                    meta.refs += 1;
                    if let Some(m) = obs.metrics() {
                        m.calls_coalesced.inc();
                    }
                    obs.event(cid, EventKind::Coalesced);
                    return Ok(cid);
                }
            }
        }
        let cid = CallId(st.next_call);
        st.next_call += 1;
        obs.event_with(cid, EventKind::Registered, || req.to_string().into());

        // Fail fast on unknown destinations: complete with an error. The
        // call id is brand new, so no waiter can be interested yet.
        if !self.shared.services.read().contains_key(&req.engine) {
            st.meta.insert(
                cid,
                CallMeta {
                    req: req.clone(),
                    refs: 1,
                    state: CallState::Done,
                    registered_at: Instant::now(),
                    launched_at: None,
                },
            );
            st.results.insert(
                cid,
                Err(WsqError::Search(format!("unknown engine '{}'", req.engine))),
            );
            if let Some(m) = obs.metrics() {
                m.calls_failed.inc();
            }
            obs.event(cid, EventKind::Failed);
            return Ok(cid);
        }

        st.index.insert(req.clone(), cid);
        st.meta.insert(
            cid,
            CallMeta {
                req,
                refs: 1,
                state: CallState::Queued,
                registered_at: Instant::now(),
                launched_at: None,
            },
        );
        st.queue.push_back(cid);
        let queued = st.queue.len() as u64;
        self.shared
            .stats
            .peak_queued
            .fetch_max(queued, Ordering::Relaxed);
        if let Some(m) = obs.metrics() {
            m.queue_depth.add(1);
        }
        obs.event(cid, EventKind::Queued);
        Ok(cid)
    }

    /// Non-blocking: the result of `call` if it has completed.
    pub fn peek(&self, call: CallId) -> Option<Result<SearchResult>> {
        self.shared.state.lock().results.get(&call).cloned()
    }

    /// Subscribe a completion inbox (see the module docs). A consumer
    /// subscribes once and watches each call it needs.
    pub fn subscribe(&self) -> Inbox {
        Inbox {
            shared: self.shared.clone(),
            core: Arc::new(InboxCore::default()),
        }
    }

    /// Block until `call` completes and return (a clone of) its result.
    /// The result stays in the store until the call is released.
    pub fn wait(&self, call: CallId) -> Result<SearchResult> {
        let inbox = self.subscribe();
        inbox.watch(std::slice::from_ref(&call))?;
        match inbox.wait_drain()?.pop() {
            Some((_, result)) => result,
            None => Err(WsqError::Exec(format!("call {call} was never delivered"))),
        }
    }

    /// Release one reference to `call`. When the last reference is
    /// released, the stored result is dropped; a still-queued call with no
    /// references is cancelled outright. A call released while *in flight*
    /// is cleaned up when its reply arrives (the delivery event must still
    /// fire to free per-destination capacity), so [`ReqPump::live_calls`]
    /// may transiently count it.
    pub fn release(&self, call: CallId) {
        let mut st = self.shared.state.lock();
        release_locked(&self.shared, &mut st, call);
    }

    /// Number of calls the pump still knows about (for leak tests).
    pub fn live_calls(&self) -> usize {
        self.shared.state.lock().meta.len()
    }

    /// Number of outstanding watches — (call, inbox) pairs the pump will
    /// still deliver — for leak tests. Reads 0 once every consumer has
    /// drained or dropped its inbox.
    pub fn live_watchers(&self) -> usize {
        self.shared
            .state
            .lock()
            .interest
            .values()
            .map(Vec::len)
            .sum()
    }

    /// Snapshot of statistics. Reads atomics only — never blocks on the
    /// pump state lock.
    pub fn stats(&self) -> PumpStats {
        self.shared.stats.snapshot()
    }

    /// The observability handle this pump was configured with
    /// ([`Obs::disabled`] unless one was supplied via [`PumpConfig`]).
    /// Engine operators clone this to emit delivery/patch events into the
    /// same trace and metrics as the pump's own lifecycle events.
    pub fn obs(&self) -> &Obs {
        &self.shared.config.obs
    }

    /// Stop the dispatcher. Outstanding `wait` calls return
    /// [`WsqError::PumpShutdown`]; queued calls are dropped.
    pub fn shutdown(&self) {
        let watchers: Vec<Arc<InboxCore>> = {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
            st.interest.drain().flat_map(|(_, w)| w).collect()
        };
        for core in watchers {
            core.shut_down();
        }
        self.shared.work_cv.notify_all();
        // Take the handles out under the lock, then join with the guard
        // released: a worker blocked on re-acquiring `workers` (or a
        // second `shutdown()` racing this one) must not deadlock the
        // join loop.
        let handles: Vec<_> = {
            let mut workers = self.workers.lock();
            workers.drain(..).collect()
        };
        for w in handles {
            let _ = w.join();
        }
    }
}

impl Drop for ReqPump {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The release body, run under the already-held state lock. Shared by
/// [`ReqPump::release`] and the racing paths (deciding a group releases
/// its reference on every member; releasing an undecided group releases
/// all member references), which must release under the lock they
/// already hold.
fn release_locked(shared: &Shared, st: &mut State, call: CallId) {
    let (refs, cstate) = {
        let Some(meta) = st.meta.get_mut(&call) else {
            return;
        };
        meta.refs = meta.refs.saturating_sub(1);
        (meta.refs, meta.state)
    };
    if refs > 0 {
        return;
    }
    // Racing groups are virtual calls: never queued, never in the
    // coalescing index, never launched — handle them before the generic
    // per-state cleanup so it never sees one.
    if let Some(group) = st.races.remove(&call) {
        st.meta.remove(&call);
        st.results.remove(&call);
        drop_interest(st, call);
        if !group.decided {
            // Cursor dropped mid-race: cancel every member the group
            // still holds a reference to.
            for &m in &group.members {
                if let Some(gids) = st.race_member.get_mut(&m) {
                    gids.retain(|g| *g != call);
                    if gids.is_empty() {
                        st.race_member.remove(&m);
                    }
                }
                release_locked(shared, st, m);
            }
        }
        return;
    }
    match cstate {
        CallState::Queued => {
            // Cancel before launch.
            st.queue.retain(|&c| c != call);
            if let Some(meta) = st.meta.remove(&call) {
                st.index.remove(&meta.req);
            }
            drop_interest(st, call);
            let obs = &shared.config.obs;
            if let Some(m) = obs.metrics() {
                m.calls_cancelled.inc();
                m.queue_depth.add(-1);
            }
            obs.event(call, EventKind::Cancelled);
        }
        CallState::Done => {
            if let Some(meta) = st.meta.remove(&call) {
                st.index.remove(&meta.req);
            }
            st.results.remove(&call);
            drop_interest(st, call);
        }
        CallState::InFlight => {
            // Completion handling will notice refs == 0 and clean up.
        }
    }
}

/// Propagate a member call's result to every undecided racing group it
/// runs for, under the already-held state lock. A success decides the
/// group immediately (first result wins); a failure only decides it once
/// every member has failed. Deciding a group releases the group's
/// reference on every member — cancelling still-queued losers outright —
/// and delivers the group's result to the inboxes watching it (those to
/// wake are appended to `wake`).
fn race_resolve(
    shared: &Shared,
    st: &mut State,
    member: CallId,
    result: &Result<SearchResult>,
    wake: &mut Vec<Arc<InboxCore>>,
) {
    let Some(gids) = st.race_member.get(&member).cloned() else {
        return;
    };
    let obs = &shared.config.obs;
    for gid in gids {
        let members = {
            let Some(group) = st.races.get_mut(&gid) else {
                continue;
            };
            if group.decided {
                continue;
            }
            match result {
                Ok(_) => {
                    group.decided = true;
                    group.members.clone()
                }
                Err(_) => {
                    group.pending = group.pending.saturating_sub(1);
                    if group.pending == 0 {
                        group.decided = true;
                        group.members.clone()
                    } else {
                        continue;
                    }
                }
            }
        };
        if let Some(meta) = st.meta.get_mut(&gid) {
            meta.state = CallState::Done;
        }
        match result {
            Ok(_) => {
                st.results.insert(gid, result.clone());
                if let Some(m) = obs.metrics() {
                    m.race_won.inc();
                }
                obs.event(gid, EventKind::RaceWon);
            }
            Err(e) => {
                st.results.insert(gid, Err(e.clone()));
                obs.event_with(gid, EventKind::Failed, || e.to_string().into());
            }
        }
        for &m in &members {
            if let Some(list) = st.race_member.get_mut(&m) {
                list.retain(|g| *g != gid);
                if list.is_empty() {
                    st.race_member.remove(&m);
                }
            }
            // Losers are only "cancelled" on a win; a collective failure
            // has no winner to lose to.
            if m != member && result.is_ok() {
                if let Some(mt) = obs.metrics() {
                    mt.race_cancelled.inc();
                }
                obs.event(m, EventKind::RaceCancelled);
            }
            release_locked(shared, st, m);
        }
        let group_result = st.results.get(&gid).cloned();
        if let Some(r) = group_result {
            deliver_interest(st, gid, &r, wake);
        }
    }
}

/// Per-destination cap lookup.
fn dest_cap(config: &PumpConfig, dest: &str) -> usize {
    config
        .per_destination
        .get(dest)
        .copied()
        .unwrap_or(config.default_per_destination)
}

/// Find the first queued call that can launch under current limits.
/// Scanning past the head avoids head-of-line blocking when one destination
/// is saturated but another has capacity.
fn pop_launchable(st: &mut State, shared: &Shared) -> Option<CallId> {
    let config = &shared.config;
    if st.active_total >= config.max_concurrent {
        return None;
    }
    let pos = st.queue.iter().position(|cid| {
        let dest = &st.meta[cid].req.engine;
        let used = st.active_per_dest.get(dest).copied().unwrap_or(0);
        used < dest_cap(config, dest)
    })?;
    let cid = st.queue.remove(pos)?;
    let meta = st.meta.get_mut(&cid)?;
    meta.state = CallState::InFlight;
    let now = Instant::now();
    meta.launched_at = Some(now);
    let queue_delay = now.saturating_duration_since(meta.registered_at);
    let dest = meta.req.engine.clone();
    st.active_total += 1;
    *st.active_per_dest.entry(dest).or_insert(0) += 1;
    shared.stats.launched.fetch_add(1, Ordering::Relaxed);
    shared
        .stats
        .peak_in_flight
        .fetch_max(st.active_total as u64, Ordering::Relaxed);
    let obs = &shared.config.obs;
    if let Some(m) = obs.metrics() {
        m.calls_launched.inc();
        m.queue_depth.add(-1);
        m.in_flight.add(1);
        m.queue_delay.observe(queue_delay);
    }
    obs.event(cid, EventKind::Launched);
    Some(cid)
}

/// Mark a call complete under the already-held state lock: store its
/// result, free its capacity, and deliver it into every inbox watching
/// it (those to wake are appended to `wake`, for the caller to notify
/// once the lock is dropped).
fn complete_locked(
    shared: &Shared,
    st: &mut State,
    cid: CallId,
    result: Result<SearchResult>,
    wake: &mut Vec<Arc<InboxCore>>,
) {
    let obs = &shared.config.obs;
    st.active_total = st.active_total.saturating_sub(1);
    let mut launched_at = None;
    let orphaned = match st.meta.get_mut(&cid) {
        Some(meta) => {
            meta.state = CallState::Done;
            launched_at = meta.launched_at;
            let refs = meta.refs;
            if let Some(n) = st.active_per_dest.get_mut(&meta.req.engine) {
                *n = n.saturating_sub(1);
            }
            refs == 0
        }
        None => true,
    };
    shared.stats.completed.fetch_add(1, Ordering::Relaxed);
    if let Some(m) = obs.metrics() {
        m.in_flight.add(-1);
        if let Some(t) = launched_at {
            m.call_latency.observe(t.elapsed());
        }
        match &result {
            Ok(_) => m.calls_completed.inc(),
            Err(_) => m.calls_failed.inc(),
        }
    }
    match &result {
        Ok(_) => obs.event(cid, EventKind::Completed),
        Err(e) => obs.event_with(cid, EventKind::Failed, || e.to_string().into()),
    }
    if orphaned {
        // Every registrant released before completion: drop everything,
        // including any watch nobody will drain. An orphaned member has
        // no race entries — groups hold a reference, so a raced member
        // can't be orphaned while any of its groups is undecided.
        if let Some(meta) = st.meta.remove(&cid) {
            st.index.remove(&meta.req);
        }
        drop_interest(st, cid);
        return;
    }
    deliver_interest(st, cid, &result, wake);
    if !st.race_member.contains_key(&cid) {
        st.results.insert(cid, result);
        return;
    }
    // Racing: this member's result may decide groups it runs for. The
    // result is stored first, since deciding a group releases members.
    st.results.insert(cid, result.clone());
    race_resolve(shared, st, cid, &result, wake);
}

/// Deadline-heap entry for the event loop.
struct Pending {
    deadline: Instant,
    cid: CallId,
    result: Result<SearchResult>,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline && self.cid == other.cid
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.deadline
            .cmp(&other.deadline)
            .then(self.cid.cmp(&other.cid))
    }
}

/// Group one launch phase's calls into per-destination submission
/// windows of at most `window` requests, preserving launch order within
/// each destination. `window <= 1` degenerates to singleton batches
/// (the per-request dispatch path).
fn window_batches(
    launches: Vec<(CallId, SearchRequest)>,
    window: usize,
) -> Vec<Vec<(CallId, SearchRequest)>> {
    if window <= 1 {
        return launches.into_iter().map(|l| vec![l]).collect();
    }
    let mut order: Vec<String> = Vec::new();
    let mut per_dest: HashMap<String, Vec<(CallId, SearchRequest)>> = HashMap::new();
    for (cid, req) in launches {
        let dest = req.engine.clone();
        let entry = per_dest.entry(dest.clone()).or_default();
        if entry.is_empty() {
            order.push(dest);
        }
        entry.push((cid, req));
    }
    let mut batches = Vec::new();
    for dest in order {
        let mut calls = per_dest.remove(&dest).unwrap_or_default();
        while calls.len() > window {
            let rest = calls.split_off(window);
            batches.push(calls);
            calls = rest;
        }
        if !calls.is_empty() {
            batches.push(calls);
        }
    }
    batches
}

/// The event-driven dispatcher: launch within limits, hold replies in a
/// deadline heap, deliver when their simulated latency elapses.
///
/// Each round takes the state lock once: it completes every reply whose
/// deadline has passed (freeing capacity) and pops every call that now
/// fits under the caps. Services run and inboxes are woken with the lock
/// released. With nothing to deliver or launch, the loop sleeps until
/// the next deadline or until a registration brings work.
fn event_loop(shared: Arc<Shared>) {
    let mut heap: BinaryHeap<Reverse<Pending>> = BinaryHeap::new();
    loop {
        let mut wake = Vec::new();
        let mut launches: Vec<(CallId, SearchRequest)> = Vec::new();
        {
            let mut st = shared.state.lock();
            if st.shutdown {
                return;
            }
            let now = Instant::now();
            while heap.peek().is_some_and(|p| p.0.deadline <= now) {
                if let Some(Reverse(p)) = heap.pop() {
                    complete_locked(&shared, &mut st, p.cid, p.result, &mut wake);
                }
            }
            while let Some(cid) = pop_launchable(&mut st, &shared) {
                let req = st.meta[&cid].req.clone();
                launches.push((cid, req));
            }
            if launches.is_empty() && wake.is_empty() {
                match heap.peek() {
                    Some(Reverse(p)) => {
                        let deadline = p.deadline;
                        let _ = shared.work_cv.wait_until(&mut st, deadline);
                    }
                    None => shared.work_cv.wait(&mut st),
                }
                continue;
            }
        }
        wake_all(wake);
        dispatch(&shared, launches, &mut heap);
    }
}

/// Run launched calls' services (outside the state lock) and queue each
/// reply in the deadline heap at launch time + its declared latency.
fn dispatch(
    shared: &Shared,
    launches: Vec<(CallId, SearchRequest)>,
    heap: &mut BinaryHeap<Reverse<Pending>>,
) {
    let now = Instant::now();
    for batch in window_batches(launches, shared.config.submission_window) {
        if let [(cid, req)] = batch.as_slice() {
            heap.push(Reverse(execute_one(shared, *cid, req, now)));
            continue;
        }
        // Windowed dispatch: one `execute_batch` handoff for the whole
        // destination window, still outside the state lock. Each reply
        // keeps its own simulated latency, so delivery times are
        // identical to per-request dispatch. Per-call trace attribution
        // (`call_scope`) is unavailable inside a batch — decorator
        // events like `Retried` are only recorded on the per-request
        // path.
        let engine = batch[0].1.engine.clone();
        let service = shared.services.read().get(&engine).cloned();
        let reqs: Vec<SearchRequest> = batch.iter().map(|(_, r)| r.clone()).collect();
        let mut replies = match service {
            Some(svc) => svc.execute_batch(&reqs),
            None => Vec::new(),
        };
        // Defensive: a misbehaving service must not strand calls.
        while replies.len() < batch.len() {
            replies.push(ServiceReply {
                result: Err(WsqError::Search(format!(
                    "engine '{engine}' returned too few batch replies"
                ))),
                latency: Duration::ZERO,
            });
        }
        replies.truncate(batch.len());
        shared.stats.batches.fetch_add(1, Ordering::Relaxed);
        let obs = &shared.config.obs;
        if let Some(m) = obs.metrics() {
            // Convention: batch sizes are recorded as "milliseconds"
            // (a window of n requests observes n ms) so the fixed
            // latency bucket ladder doubles as a size ladder.
            m.batch_size
                .observe(Duration::from_millis(batch.len() as u64));
        }
        for ((cid, _), reply) in batch.into_iter().zip(replies) {
            obs.event(cid, EventKind::BatchLaunched);
            heap.push(Reverse(Pending {
                deadline: now + reply.latency,
                cid,
                result: reply.result,
            }));
        }
    }
}

/// Per-request dispatch of one launched call.
fn execute_one(shared: &Shared, cid: CallId, req: &SearchRequest, now: Instant) -> Pending {
    let service = shared.services.read().get(&req.engine).cloned();
    let reply = match service {
        // `call_scope` lets decorators (retry/flaky/cache) deep in the
        // execute stack attribute their trace events to `cid`.
        Some(svc) => wsq_obs::call_scope(cid, || svc.execute(req)),
        None => ServiceReply {
            result: Err(WsqError::Search(format!("unknown engine '{}'", req.engine))),
            latency: Duration::ZERO,
        },
    };
    Pending {
        deadline: now + reply.latency,
        cid,
        result: reply.result,
    }
}

/// Thread-pool worker: pop a launchable call, execute (possibly blocking),
/// sleep the declared latency, deliver.
fn worker_loop(shared: Arc<Shared>) {
    loop {
        let (cid, req) = {
            let mut st = shared.state.lock();
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(cid) = pop_launchable(&mut st, &shared) {
                    let req = st.meta[&cid].req.clone();
                    break (cid, req);
                }
                shared.work_cv.wait(&mut st);
            }
        };
        let reply = execute_one(&shared, cid, &req, Instant::now());
        let left = reply.deadline.saturating_duration_since(Instant::now());
        if !left.is_zero() {
            std::thread::sleep(left);
        }
        let mut wake = Vec::new();
        complete_locked(
            &shared,
            &mut shared.state.lock(),
            cid,
            reply.result,
            &mut wake,
        );
        wake_all(wake);
        shared.work_cv.notify_all(); // capacity freed: other workers may launch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::RequestKind;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Test service: count = expr length; observes concurrency.
    struct Probe {
        latency: Duration,
        current: AtomicUsize,
        peak: AtomicUsize,
    }

    impl Probe {
        fn new(latency: Duration) -> Arc<Self> {
            Arc::new(Probe {
                latency,
                current: AtomicUsize::new(0),
                peak: AtomicUsize::new(0),
            })
        }
    }

    impl SearchService for Probe {
        fn execute(&self, req: &SearchRequest) -> ServiceReply {
            // In event-loop mode this observes *compute* concurrency (always
            // 1); the pump's own stats observe in-flight concurrency.
            let cur = self.current.fetch_add(1, Ordering::SeqCst) + 1;
            self.peak.fetch_max(cur, Ordering::SeqCst);
            self.current.fetch_sub(1, Ordering::SeqCst);
            ServiceReply {
                result: Ok(SearchResult::Count(req.expr.len() as u64)),
                latency: self.latency,
            }
        }
    }

    fn req(engine: &str, expr: &str) -> SearchRequest {
        SearchRequest {
            engine: engine.into(),
            expr: expr.into(),
            kind: RequestKind::Count,
        }
    }

    #[test]
    fn single_call_roundtrip() {
        let pump = ReqPump::with_service("AV", Probe::new(Duration::from_millis(5)));
        let cid = pump.register(req("AV", "Colorado")).unwrap();
        assert_eq!(pump.wait(cid).unwrap().count(), Some(8));
        pump.release(cid);
        assert_eq!(pump.live_calls(), 0);
    }

    #[test]
    fn concurrent_calls_overlap_in_time() {
        // 20 calls of 30ms each: sequential would be 600ms; the event loop
        // should finish in roughly one latency.
        let pump = ReqPump::with_service("AV", Probe::new(Duration::from_millis(30)));
        let t0 = Instant::now();
        let ids: Vec<CallId> = (0..20)
            .map(|i| pump.register(req("AV", &format!("q{i:02}"))).unwrap())
            .collect();
        for &cid in &ids {
            pump.wait(cid).unwrap();
        }
        let elapsed = t0.elapsed();
        assert!(
            elapsed < Duration::from_millis(300),
            "calls did not overlap: {elapsed:?}"
        );
        assert_eq!(pump.stats().launched, 20);
        assert!(pump.stats().peak_in_flight >= 10);
    }

    #[test]
    fn capped_consumer_drain_loop_never_hangs_or_drops() {
        // The shape a capped ReqSync runs while stalled (DESIGN.md §11):
        // admit one call at a time (cap = 1), watch it, then drain and
        // wait until it completes before admitting the next. If the
        // watch could miss a completion that landed just before it, this
        // loop would hang; if delivery could repeat, the count would
        // overshoot.
        let pump = ReqPump::with_service("AV", Probe::new(Duration::from_millis(2)));
        let inbox = pump.subscribe();
        let mut delivered = 0usize;
        for i in 0..32 {
            let cid = pump.register(req("AV", &format!("q{i:02}"))).unwrap();
            inbox.watch(&[cid]).unwrap();
            let mut pending = vec![cid];
            while !pending.is_empty() {
                let mut done = inbox.try_drain();
                if done.is_empty() {
                    done = inbox.wait_drain().unwrap();
                }
                for (c, outcome) in done {
                    outcome.unwrap();
                    assert!(pending.contains(&c), "call {c} delivered twice");
                    pending.retain(|p| *p != c);
                    pump.release(c);
                    delivered += 1;
                }
            }
        }
        assert_eq!(delivered, 32);
        assert_eq!(pump.live_calls(), 0);
        assert_eq!(pump.live_watchers(), 0);
    }

    #[test]
    fn global_limit_respected() {
        let config = PumpConfig {
            max_concurrent: 3,
            ..PumpConfig::default()
        };
        let pump = ReqPump::new(config);
        pump.register_service("AV", Probe::new(Duration::from_millis(10)));
        let ids: Vec<CallId> = (0..12)
            .map(|i| pump.register(req("AV", &format!("g{i:02}"))).unwrap())
            .collect();
        for &cid in &ids {
            pump.wait(cid).unwrap();
        }
        assert!(pump.stats().peak_in_flight <= 3);
        assert!(pump.stats().peak_queued >= 9 - 3);
    }

    #[test]
    fn per_destination_limit_and_no_head_of_line_blocking() {
        let mut per = HashMap::new();
        per.insert("AV".to_string(), 1);
        let config = PumpConfig {
            max_concurrent: 64,
            per_destination: per,
            ..PumpConfig::default()
        };
        let pump = ReqPump::new(config);
        pump.register_service("AV", Probe::new(Duration::from_millis(40)));
        pump.register_service("Google", Probe::new(Duration::from_millis(5)));
        // Saturate AV, then register Google calls behind them.
        let av: Vec<CallId> = (0..4)
            .map(|i| pump.register(req("AV", &format!("a{i}"))).unwrap())
            .collect();
        let goog: Vec<CallId> = (0..4)
            .map(|i| pump.register(req("Google", &format!("g{i}"))).unwrap())
            .collect();
        // Google calls must not wait for the serialized AV queue.
        let t0 = Instant::now();
        for &cid in &goog {
            pump.wait(cid).unwrap();
        }
        assert!(
            t0.elapsed() < Duration::from_millis(80),
            "google calls were head-of-line blocked: {:?}",
            t0.elapsed()
        );
        for &cid in &av {
            pump.wait(cid).unwrap();
        }
        // AV serialized: 4 * 40ms means total ≥ 160ms by now.
    }

    #[test]
    fn coalescing_merges_identical_requests() {
        let pump = ReqPump::with_service("AV", Probe::new(Duration::from_millis(5)));
        let a = pump.register(req("AV", "same")).unwrap();
        let b = pump.register(req("AV", "same")).unwrap();
        let c = pump.register(req("AV", "different")).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(pump.wait(a).unwrap().count(), Some(4));
        let stats = pump.stats();
        assert_eq!(stats.registered, 3);
        assert_eq!(stats.coalesced, 1);
        assert_eq!(stats.launched, 2);
        // Result survives the first release (refcounted).
        pump.release(a);
        assert!(pump.peek(b).is_some());
        pump.release(b);
        assert!(pump.peek(b).is_none());
        // Wait before releasing: a call released while in flight is only
        // cleaned up at delivery (see `release` docs).
        pump.wait(c).unwrap();
        pump.release(c);
        assert_eq!(pump.live_calls(), 0);
    }

    #[test]
    fn coalescing_can_be_disabled() {
        let config = PumpConfig {
            coalesce: false,
            ..PumpConfig::default()
        };
        let pump = ReqPump::new(config);
        pump.register_service("AV", Probe::new(Duration::ZERO));
        let a = pump.register(req("AV", "same")).unwrap();
        let b = pump.register(req("AV", "same")).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn inbox_delivers_each_watched_call_once() {
        let pump = ReqPump::with_service("AV", Probe::new(Duration::from_millis(5)));
        let slow = pump.register(req("AV", "slow-call")).unwrap();
        let fast = pump.register(req("AV", "f")).unwrap();
        let inbox = pump.subscribe();
        inbox.watch(&[slow, fast]).unwrap();
        let mut seen = Vec::new();
        while seen.len() < 2 {
            for (cid, result) in inbox.wait_drain().unwrap() {
                assert!(result.is_ok());
                seen.push(cid);
            }
        }
        seen.sort();
        assert_eq!(seen, vec![slow, fast]);
        assert!(inbox.try_drain().is_empty(), "a call was delivered twice");
        assert_eq!(pump.live_watchers(), 0);
    }

    #[test]
    fn inbox_wakeup_carries_only_what_completed() {
        // One destination is serialized and slow, the other fast: the
        // first wakeup must hand over the fast call alone, even though
        // the slow call was watched first.
        let mut per = HashMap::new();
        per.insert("AV".to_string(), 1);
        let config = PumpConfig {
            per_destination: per,
            ..PumpConfig::default()
        };
        let pump = ReqPump::new(config);
        pump.register_service("AV", Probe::new(Duration::from_millis(120)));
        pump.register_service("Google", Probe::new(Duration::from_millis(5)));
        let slow = pump.register(req("AV", "slow")).unwrap();
        let fast = pump.register(req("Google", "fast")).unwrap();
        let inbox = pump.subscribe();
        inbox.watch(&[slow, fast]).unwrap();
        let first = inbox.wait_drain().unwrap();
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].0, fast);
        assert_eq!(inbox.wait_drain().unwrap()[0].0, slow);
    }

    #[test]
    fn watch_on_unknown_call_errors_and_an_empty_inbox_never_blocks() {
        let pump = ReqPump::with_service("AV", Probe::new(Duration::ZERO));
        let inbox = pump.subscribe();
        let err = inbox.watch(&[CallId(999)]).unwrap_err();
        assert!(matches!(err, WsqError::Exec(_)));
        // Nothing watched, nothing delivered: the wait errors at once.
        assert!(matches!(inbox.wait_drain(), Err(WsqError::Exec(_))));
        inbox.watch(&[]).unwrap();
        assert_eq!(pump.live_watchers(), 0);
    }

    #[test]
    fn watch_after_completion_is_delivered_at_once() {
        let pump = ReqPump::with_service("AV", Probe::new(Duration::from_millis(2)));
        let ids: Vec<CallId> = (0..6)
            .map(|i| pump.register(req("AV", &format!("tc{i}"))).unwrap())
            .collect();
        for &cid in &ids {
            pump.wait(cid).unwrap();
        }
        // Every call finished before the watch: all six are in the inbox
        // when `watch` returns, and nothing is left registered.
        let inbox = pump.subscribe();
        inbox.watch(&ids).unwrap();
        assert_eq!(pump.live_watchers(), 0);
        let done = inbox.try_drain();
        assert_eq!(done.len(), ids.len());
        for (cid, result) in &done {
            assert!(ids.contains(cid));
            assert!(result.is_ok());
        }
        // Results are not consumed: peek still sees them until release.
        assert!(pump.peek(ids[0]).is_some());
        for &cid in &ids {
            pump.release(cid);
        }
        assert_eq!(pump.live_calls(), 0);
    }

    #[test]
    fn coalesced_call_watched_by_two_inboxes_reaches_each_once() {
        let pump = ReqPump::with_service("AV", Probe::new(Duration::from_millis(10)));
        let a = pump.register(req("AV", "shared")).unwrap();
        let b = pump.register(req("AV", "shared")).unwrap();
        assert_eq!(a, b);
        let (x, y) = (pump.subscribe(), pump.subscribe());
        x.watch(&[a]).unwrap();
        y.watch(&[b]).unwrap();
        assert_eq!(pump.live_watchers(), 2);
        for inbox in [&x, &y] {
            let got = inbox.wait_drain().unwrap();
            assert_eq!(got.len(), 1);
            assert_eq!(got[0].0, a);
            assert_eq!(got[0].1.as_ref().unwrap().count(), Some(6));
            assert!(inbox.try_drain().is_empty());
        }
        pump.release(a);
        pump.release(b);
        assert_eq!(pump.live_calls(), 0);
        assert_eq!(pump.live_watchers(), 0);
    }

    #[test]
    fn forgetting_a_call_drops_its_watchers() {
        // Cap concurrency at 1 so the second call stays queued.
        let config = PumpConfig {
            max_concurrent: 1,
            ..PumpConfig::default()
        };
        let pump = ReqPump::new(config);
        pump.register_service("AV", Probe::new(Duration::from_millis(40)));
        let first = pump.register(req("AV", "first")).unwrap();
        let queued = pump.register(req("AV", "queued")).unwrap();
        let inbox = pump.subscribe();
        inbox.watch(&[first, queued]).unwrap();
        assert_eq!(pump.live_watchers(), 2);
        // Cancelling the queued call forgets it, watch included.
        pump.release(queued);
        assert_eq!(pump.live_watchers(), 1);
        // Releasing the in-flight call orphans it; its delivery drops
        // the last watch instead of handing over a released result, and
        // the wait ends rather than hanging.
        pump.release(first);
        assert!(matches!(inbox.wait_drain(), Err(WsqError::Exec(_))));
        assert_eq!(pump.live_watchers(), 0);
        assert_eq!(pump.live_calls(), 0);
    }

    #[test]
    fn dropping_an_inbox_drops_its_watches() {
        let pump = ReqPump::with_service("AV", Probe::new(Duration::from_millis(30)));
        let cid = pump.register(req("AV", "abandoned")).unwrap();
        {
            let inbox = pump.subscribe();
            inbox.watch(&[cid]).unwrap();
            assert_eq!(pump.live_watchers(), 1);
        }
        assert_eq!(pump.live_watchers(), 0);
        pump.wait(cid).unwrap();
        pump.release(cid);
        assert_eq!(pump.live_calls(), 0);
    }

    #[test]
    fn reset_drops_only_its_own_watches() {
        let pump = ReqPump::with_service("AV", Probe::new(Duration::from_millis(30)));
        let a = pump.register(req("AV", "a")).unwrap();
        let b = pump.register(req("AV", "b")).unwrap();
        let (mine, other) = (pump.subscribe(), pump.subscribe());
        mine.watch(&[a, b]).unwrap();
        other.watch(&[a]).unwrap();
        assert_eq!(pump.live_watchers(), 3);
        mine.reset();
        assert_eq!(pump.live_watchers(), 1);
        // The other inbox still gets its call; the reset one can watch
        // afresh.
        assert_eq!(other.wait_drain().unwrap()[0].0, a);
        mine.watch(&[b]).unwrap();
        assert_eq!(mine.wait_drain().unwrap()[0].0, b);
        assert_eq!(pump.live_watchers(), 0);
        pump.release(a);
        pump.release(b);
        assert_eq!(pump.live_calls(), 0);
    }

    #[test]
    fn delivery_is_never_early() {
        // No reply may be visible before its declared latency has
        // elapsed, however deliveries are batched.
        let pump = ReqPump::with_service("AV", Probe::new(Duration::from_millis(25)));
        let t0 = Instant::now();
        let ids = pump
            .register_batch((0..8).map(|i| req("AV", &format!("e{i}"))).collect())
            .unwrap();
        let inbox = pump.subscribe();
        inbox.watch(&ids).unwrap();
        let mut n = 0;
        while n < ids.len() {
            n += inbox.wait_drain().unwrap().len();
            assert!(t0.elapsed() >= Duration::from_millis(25), "early delivery");
        }
        for &cid in &ids {
            pump.release(cid);
        }
        assert_eq!(pump.live_calls(), 0);
    }

    #[test]
    fn unknown_engine_fails_fast() {
        let pump = ReqPump::new(PumpConfig::default());
        let cid = pump.register(req("Nope", "x")).unwrap();
        let err = pump.wait(cid).unwrap_err();
        assert!(matches!(err, WsqError::Search(_)));
        assert!(err.to_string().contains("Nope"));
    }

    #[test]
    fn release_cancels_queued_calls() {
        // Cap concurrency at 1 so later calls stay queued.
        let config = PumpConfig {
            max_concurrent: 1,
            ..PumpConfig::default()
        };
        let pump = ReqPump::new(config);
        pump.register_service("AV", Probe::new(Duration::from_millis(50)));
        let first = pump.register(req("AV", "first")).unwrap();
        let second = pump.register(req("AV", "second")).unwrap();
        pump.release(second); // cancel while queued
        pump.wait(first).unwrap();
        // Give the loop a moment; the cancelled call must never launch.
        std::thread::sleep(Duration::from_millis(80));
        assert_eq!(pump.stats().launched, 1);
        pump.release(first);
        assert_eq!(pump.live_calls(), 0);
    }

    #[test]
    fn shutdown_wakes_waiters() {
        let pump = ReqPump::with_service("AV", Probe::new(Duration::from_secs(10)));
        let cid = pump.register(req("AV", "very slow")).unwrap();
        let p2 = pump.clone();
        let waiter = std::thread::spawn(move || p2.wait(cid));
        std::thread::sleep(Duration::from_millis(20));
        pump.shutdown();
        let res = waiter.join().unwrap();
        assert!(matches!(res, Err(WsqError::PumpShutdown)));
        // Registration after shutdown fails.
        assert!(matches!(
            pump.register(req("AV", "late")),
            Err(WsqError::PumpShutdown)
        ));
    }

    #[test]
    fn thread_pool_mode_works_and_overlaps() {
        let config = PumpConfig {
            dispatch: DispatchMode::ThreadPool(8),
            ..PumpConfig::default()
        };
        let pump = ReqPump::new(config);
        pump.register_service("AV", Probe::new(Duration::from_millis(30)));
        let t0 = Instant::now();
        let ids: Vec<CallId> = (0..8)
            .map(|i| pump.register(req("AV", &format!("t{i}"))).unwrap())
            .collect();
        for &cid in &ids {
            assert!(pump.wait(cid).unwrap().count().is_some());
        }
        assert!(
            t0.elapsed() < Duration::from_millis(200),
            "thread pool did not overlap: {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn thread_pool_respects_global_limit() {
        let config = PumpConfig {
            dispatch: DispatchMode::ThreadPool(8),
            max_concurrent: 2,
            ..PumpConfig::default()
        };
        let pump = ReqPump::new(config);
        pump.register_service("AV", Probe::new(Duration::from_millis(10)));
        let ids: Vec<CallId> = (0..10)
            .map(|i| pump.register(req("AV", &format!("t{i}"))).unwrap())
            .collect();
        for &cid in &ids {
            pump.wait(cid).unwrap();
        }
        assert!(pump.stats().peak_in_flight <= 2);
    }

    #[test]
    fn zero_latency_calls_complete() {
        let pump = ReqPump::with_service("AV", Probe::new(Duration::ZERO));
        let ids: Vec<CallId> = (0..100)
            .map(|i| pump.register(req("AV", &format!("z{i:03}"))).unwrap())
            .collect();
        for &cid in &ids {
            pump.wait(cid).unwrap();
            pump.release(cid);
        }
        assert_eq!(pump.live_calls(), 0);
        assert_eq!(pump.stats().completed, 100);
    }

    #[test]
    fn register_batch_matches_per_request_registration() {
        let pump = ReqPump::with_service("AV", Probe::new(Duration::from_millis(2)));
        let ids = pump
            .register_batch(vec![req("AV", "aa"), req("AV", "bbb"), req("AV", "aa")])
            .unwrap();
        assert_eq!(ids.len(), 3);
        assert_eq!(ids[0], ids[2], "identical requests coalesce in a batch");
        assert_ne!(ids[0], ids[1]);
        assert_eq!(pump.wait(ids[0]).unwrap().count(), Some(2));
        assert_eq!(pump.wait(ids[1]).unwrap().count(), Some(3));
        let stats = pump.stats();
        assert_eq!(stats.registered, 3);
        assert_eq!(stats.coalesced, 1);
        assert_eq!(stats.launched, 2);
        for &c in &ids {
            pump.release(c);
        }
        assert_eq!(pump.live_calls(), 0);
    }

    #[test]
    fn register_batch_after_shutdown_fails() {
        let pump = ReqPump::with_service("AV", Probe::new(Duration::ZERO));
        pump.shutdown();
        assert!(matches!(
            pump.register_batch(vec![req("AV", "x")]),
            Err(WsqError::PumpShutdown)
        ));
    }

    #[test]
    fn submission_window_batches_same_destination_dispatches() {
        let config = PumpConfig {
            submission_window: 4,
            ..PumpConfig::default()
        };
        let pump = ReqPump::new(config);
        pump.register_service("AV", Probe::new(Duration::from_millis(5)));
        let ids = pump
            .register_batch((0..8).map(|i| req("AV", &format!("b{i:02}"))).collect())
            .unwrap();
        for &cid in &ids {
            assert!(pump.wait(cid).unwrap().count().is_some());
        }
        let stats = pump.stats();
        assert_eq!(stats.launched, 8);
        assert!(
            stats.batches >= 1,
            "8 same-destination calls under window=4 never batched"
        );
        for &cid in &ids {
            pump.release(cid);
        }
        assert_eq!(pump.live_calls(), 0);
    }

    #[test]
    fn window_batches_groups_by_destination_and_chunks() {
        let launches: Vec<(CallId, SearchRequest)> = vec![
            (CallId(0), req("AV", "a")),
            (CallId(1), req("Google", "b")),
            (CallId(2), req("AV", "c")),
            (CallId(3), req("AV", "d")),
            (CallId(4), req("AV", "e")),
        ];
        let batches = window_batches(launches.clone(), 3);
        assert_eq!(batches.len(), 3);
        assert_eq!(
            batches[0].iter().map(|(c, _)| c.0).collect::<Vec<_>>(),
            vec![0, 2, 3],
            "AV window fills in launch order"
        );
        assert_eq!(batches[1].len(), 1, "AV overflow starts a new window");
        assert_eq!(batches[1][0].0, CallId(4));
        assert_eq!(batches[2][0].0, CallId(1));
        // window=1 degenerates to singletons in order.
        let singles = window_batches(launches, 1);
        assert_eq!(singles.len(), 5);
        assert!(singles.iter().all(|b| b.len() == 1));
    }

    #[test]
    fn race_first_success_wins_and_losers_cancel() {
        let obs = Obs::enabled();
        let config = PumpConfig {
            obs: obs.clone(),
            ..PumpConfig::default()
        };
        let pump = ReqPump::new(config);
        pump.register_service("Fast", Probe::new(Duration::from_millis(2)));
        pump.register_service("Slow", Probe::new(Duration::from_millis(120)));
        let gid = pump
            .register_race(vec![req("Fast", "race-me"), req("Slow", "race-me")])
            .unwrap();
        assert_eq!(pump.wait(gid).unwrap().count(), Some(7));
        pump.release(gid);
        let m = obs.metrics().unwrap();
        assert_eq!(m.race_won.get(), 1);
        assert_eq!(m.race_cancelled.get(), 1);
        // The in-flight loser is only cleaned up at its delivery.
        let deadline = Instant::now() + Duration::from_secs(2);
        while pump.live_calls() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(pump.live_calls(), 0);
    }

    #[test]
    fn race_queued_loser_never_launches() {
        // Cap the slow destination at 0 effective slots by saturating it:
        // global cap 1 means the loser stays queued while the winner's
        // destination is... simpler: per-destination cap of 1 with a
        // pre-registered slow call keeps the slow member queued, so the
        // decision must cancel it before launch.
        let mut per = HashMap::new();
        per.insert("Slow".to_string(), 1);
        let config = PumpConfig {
            per_destination: per,
            ..PumpConfig::default()
        };
        let pump = ReqPump::new(config);
        pump.register_service("Fast", Probe::new(Duration::from_millis(2)));
        pump.register_service("Slow", Probe::new(Duration::from_millis(60)));
        let blocker = pump.register(req("Slow", "blocker")).unwrap();
        let gid = pump
            .register_race(vec![req("Fast", "rq"), req("Slow", "rq")])
            .unwrap();
        assert!(pump.wait(gid).unwrap().count().is_some());
        pump.release(gid);
        pump.wait(blocker).unwrap();
        pump.release(blocker);
        // Only the blocker and the fast winner ever launched.
        assert_eq!(pump.stats().launched, 2);
        assert_eq!(pump.live_calls(), 0);
    }

    #[test]
    fn race_fails_only_after_every_member_fails() {
        let pump = ReqPump::new(PumpConfig::default());
        // Both engines unknown: members fail fast at registration, so the
        // group resolves to an error immediately.
        let gid = pump
            .register_race(vec![req("NopeA", "x"), req("NopeB", "x")])
            .unwrap();
        let err = pump.wait(gid).unwrap_err();
        assert!(matches!(err, WsqError::Search(_)));
        pump.release(gid);
        assert_eq!(pump.live_calls(), 0);
    }

    #[test]
    fn race_with_one_failing_member_still_wins() {
        let pump = ReqPump::with_service("AV", Probe::new(Duration::from_millis(5)));
        let gid = pump
            .register_race(vec![req("Nope", "y"), req("AV", "y")])
            .unwrap();
        assert_eq!(pump.wait(gid).unwrap().count(), Some(1));
        pump.release(gid);
        assert_eq!(pump.live_calls(), 0);
    }

    #[test]
    fn race_release_before_decision_cancels_members() {
        let config = PumpConfig {
            max_concurrent: 1,
            ..PumpConfig::default()
        };
        let pump = ReqPump::new(config);
        pump.register_service("AV", Probe::new(Duration::from_millis(60)));
        let blocker = pump.register(req("AV", "hold")).unwrap();
        let gid = pump
            .register_race(vec![req("AV", "ra"), req("AV", "rb")])
            .unwrap();
        // Cursor drop mid-race: both members are still queued and must be
        // cancelled outright.
        pump.release(gid);
        pump.wait(blocker).unwrap();
        pump.release(blocker);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(pump.stats().launched, 1);
        assert_eq!(pump.live_calls(), 0);
    }

    #[test]
    fn race_member_shared_with_external_registrant_survives_decision() {
        let pump = ReqPump::with_service("AV", Probe::new(Duration::from_millis(5)));
        let solo = pump.register(req("AV", "shared")).unwrap();
        let gid = pump
            .register_race(vec![req("AV", "shared"), req("AV", "other")])
            .unwrap();
        // The group's first member coalesced onto the external call.
        assert_eq!(pump.wait(gid).unwrap().count(), Some(6));
        pump.release(gid);
        // The external registrant still owns its reference and result.
        assert_eq!(pump.wait(solo).unwrap().count(), Some(6));
        pump.release(solo);
        let deadline = Instant::now() + Duration::from_secs(2);
        while pump.live_calls() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(pump.live_calls(), 0);
    }

    #[test]
    fn race_over_already_completed_member_decides_immediately() {
        let pump = ReqPump::with_service("AV", Probe::new(Duration::from_millis(2)));
        let solo = pump.register(req("AV", "done")).unwrap();
        pump.wait(solo).unwrap();
        // Coalesces onto the finished call: the group is decided at
        // registration time, before any wait.
        let gid = pump
            .register_race(vec![req("AV", "done"), req("AV", "never-needed")])
            .unwrap();
        assert_eq!(pump.peek(gid).unwrap().unwrap().count(), Some(4));
        pump.release(gid);
        pump.release(solo);
        let deadline = Instant::now() + Duration::from_secs(2);
        while pump.live_calls() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(pump.live_calls(), 0);
    }

    #[test]
    fn race_degenerate_shapes() {
        let pump = ReqPump::with_service("AV", Probe::new(Duration::ZERO));
        assert!(pump.register_race(vec![]).is_err());
        let gid = pump.register_race(vec![req("AV", "one")]).unwrap();
        assert_eq!(pump.wait(gid).unwrap().count(), Some(3));
        pump.release(gid);
        assert_eq!(pump.live_calls(), 0);
    }

    #[test]
    fn many_waiters_each_get_their_own_completion() {
        // Each thread waits on its own call; targeted delivery must wake
        // every one of them exactly with its id.
        let pump = ReqPump::with_service("AV", Probe::new(Duration::from_millis(10)));
        let handles: Vec<_> = (0..16)
            .map(|i| {
                let pump = pump.clone();
                std::thread::spawn(move || {
                    let cid = pump.register(req("AV", &format!("w{i:02}"))).unwrap();
                    let inbox = pump.subscribe();
                    inbox.watch(&[cid]).unwrap();
                    let done = inbox.wait_drain().unwrap();
                    assert_eq!(done.len(), 1);
                    assert_eq!(done[0].0, cid);
                    pump.release(cid);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(pump.live_calls(), 0);
        assert_eq!(pump.live_watchers(), 0);
        assert_eq!(pump.stats().completed, 16);
    }
}
