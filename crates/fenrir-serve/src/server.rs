//! The TCP server: acceptor, worker pool, admission control, drain.
//!
//! One acceptor thread feeds one bounded connection queue that every
//! worker pulls from, so a new connection goes to whichever worker is
//! free next — never behind an idle connection another worker holds.
//! A worker owns the connection it took for its whole lifetime (no
//! cross-worker migration, no locks on the hot path — a worker's
//! snapshot `Arc` and its shard hint are all it needs). Overload is
//! explicit at two levels:
//!
//! * **accept-time** — if the queue is full, the acceptor writes a
//!   single `Overloaded` frame straight onto the new connection and
//!   drops it;
//! * **service-time** — a connection must hold one of `max_inflight`
//!   service slots for its queries to be computed. Without a slot the
//!   worker still reads frames but answers each with `Overloaded`
//!   immediately (bounded latency under saturation), re-trying the
//!   slot before every query so capacity freed by a departing
//!   connection is picked up promptly.
//!
//! Control-plane frames (`Stats`, `Metrics`, `Admin`) bypass the slot
//! gate: a saturated or draining server must stay observable and
//! steerable, or an operator could never diagnose the saturation.
//! `Health` deliberately does *not* bypass — it doubles as the
//! resilient client's cheap load probe, and a probe that cannot get a
//! slot should see `Overloaded`.
//!
//! Shutdown is graceful: the stop flag flips, the acceptor wakes and
//! exits (closing the queue), and each worker finishes the queries
//! already readable on its connections before hanging up — in-flight
//! work is drained, not dropped. An admin **drain** is gentler still:
//! slot-holding connections finish their current burst and close, new
//! slot acquisition stops (queries shed with `Overloaded`), but the
//! process keeps running and keeps answering control frames until an
//! `Undrain` or a real shutdown.

use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::sync::Mutex;
use fenrir_core::error::{Error, Result};
use fenrir_core::health::CampaignHealth;
use fenrir_obs::{
    Counter as ObsCounter, Histogram as ObsHistogram, Registry, ScrapeServer, TraceRing,
    DEFAULT_LATENCY_BOUNDS_US,
};

use crate::protocol::{
    read_frame, AdminCmd, FrameEvent, Reply, Request, StatsInfo, StreamEvent, SubscriberStats,
    ERR_BAD_REQUEST, ERR_UNAUTHORIZED, ERR_UNAVAILABLE, KIND_ADMIN, KIND_ASSIGN, KIND_HEALTH,
    KIND_LATENCY, KIND_METRICS, KIND_STATS, KIND_SUBSCRIBE, KIND_TRANSITION,
};
use crate::store::ModeStore;

/// How often an idle connection wakes to poll the stop flag.
const TICK: Duration = Duration::from_millis(100);

/// Idle connections are closed after this long without a frame.
const READ_DEADLINE: Duration = Duration::from_secs(30);

/// Base retry-after hint carried by `Overloaded` replies: slot-shed
/// queries advertise this, accept-shed connections twice it (a full
/// accept queue recovers slower than a busy service slot).
const RETRY_AFTER_MS: u64 = 50;

/// Slow-query trace ring capacity.
const TRACE_CAPACITY: usize = 256;

/// Per-subscriber pending-event queue depth. A subscriber that cannot
/// keep up has events shed beyond this bound — explicitly, via an
/// in-band [`StreamEvent::Lagged`] marker, never silently.
const EVENT_QUEUE: usize = 64;

/// How long a worker keeps answering a slot-holder's queries after
/// shutdown began. Pipelined queries already on the wire are drained
/// well within this; a peer that keeps *sending* cannot hold the
/// worker past it.
const STOP_DRAIN_GRACE: Duration = Duration::from_secs(1);

/// Exposition label value per request kind, indexed by
/// `kind - KIND_ASSIGN`.
const KIND_NAMES: [&str; 11] = [
    "assign",
    "similarity",
    "mode",
    "transition",
    "latency",
    "health",
    "stats",
    "metrics",
    "admin",
    "submit",
    "subscribe",
];

fn kind_index(kind: u8) -> Option<usize> {
    (KIND_ASSIGN..=KIND_SUBSCRIBE)
        .contains(&kind)
        .then(|| (kind - KIND_ASSIGN) as usize)
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads.
    pub workers: usize,
    /// Service slots: connections whose queries are computed
    /// concurrently. Beyond this, queries get `Overloaded` replies.
    pub max_inflight: usize,
    /// Pending connections per worker: the one queue all workers pull
    /// from holds `backlog × workers` before the acceptor sheds.
    pub backlog: usize,
    /// Poll the store's source for growth this often, publishing at
    /// most one new snapshot per poll (None disables follow).
    pub follow: Option<Duration>,
    /// Replica id reported in `Health` replies (0 for a standalone
    /// server; a [`crate::replica::ReplicaSet`] numbers its members).
    pub replica: u64,
    /// Bind address for the plain-HTTP metrics scrape endpoint
    /// (`/metrics`, `/traces`); None disables it. The protocol-level
    /// `Metrics` frame works either way.
    pub metrics_addr: Option<String>,
    /// Shared token gating `Admin` frames; None rejects every admin
    /// command with `ERR_UNAVAILABLE` (fail closed, not open).
    pub admin_token: Option<String>,
    /// Queries at least this slow leave a structured trace event in
    /// the ring; None disables slow-query tracing.
    pub slow_query: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            max_inflight: 64,
            backlog: 64,
            follow: None,
            replica: 0,
            metrics_addr: None,
            admin_token: None,
            slow_query: Some(Duration::from_millis(250)),
        }
    }
}

/// The write path behind `Submit` frames.
///
/// The server owns the sockets and the subscription fan-out; the
/// handler owns sequencing, durability, and analysis. The contract on
/// `submit` is the protocol's ack contract: return a
/// [`Reply::SubmitAck`] only after the durability decision is final —
/// `Accepted` means the observation is journaled (an fsync has
/// returned), `Duplicate`/`Gap` mean nothing was written. Events
/// returned alongside the reply are broadcast to every subscriber
/// *after* the decision, so a pushed transition always refers to
/// durable state.
///
/// The server calls `submit` and then broadcasts under its announce
/// lock, and reads `events_since` and `boundary_count` for a new
/// subscription under the same lock. A handler therefore sees no
/// submit between those reads, and must count in `boundary_count`, and
/// replay from `events_since`, exactly the events its submits return.
pub trait StreamHandler: Send + Sync {
    /// Apply one submitted observation; returns the ack to send and
    /// any events to broadcast.
    fn submit(
        &self,
        seq: u64,
        time: i64,
        codes: &[u16],
        health: CampaignHealth,
    ) -> (Reply, Vec<StreamEvent>);

    /// How many mode boundaries this handler has announced over its
    /// whole history (journaled prefix included). Reported in
    /// `Subscribed` replies so a client can resume from exactly where
    /// it left off. Handlers without announce history report zero.
    fn boundary_count(&self) -> u64 {
        0
    }

    /// Replay the transitions announced at boundary indices `>= from`.
    /// A `from` below the handler's retained history starts with an
    /// in-band [`StreamEvent::Lagged`] marker covering the untracked
    /// gap. Handlers without announce history replay nothing.
    fn events_since(&self, _from: u64) -> Vec<StreamEvent> {
        Vec::new()
    }
}

/// One registered subscriber, as the broadcaster sees it.
struct BroadcastHandle {
    id: u64,
    /// Each queued event travels with this subscriber's shed count at
    /// the moment it was queued, so the pusher can mark every shed
    /// event exactly where it fell in the stream.
    tx: SyncSender<(u64, StreamEvent)>,
    /// Events delivered to this subscriber's queue, for `Stats`.
    pushed: AtomicU64,
    /// Events shed on a full queue, for `Stats`; shared with the pusher,
    /// which marks the ones shed after its last event before `Closed`.
    dropped: Arc<AtomicU64>,
}

/// Fan-out state for pushed stream events.
///
/// Broadcasting never blocks on a slow subscriber: each subscriber has
/// a bounded queue drained by its own pusher thread, and a full queue
/// sheds the event while counting it on the subscriber's shed counter.
/// The pusher writes an explicit [`StreamEvent::Lagged`] marker where
/// the shed events fell — loss is visible in-band, never silent.
///
/// The hub does not order announces against subscribes: the server's
/// announce lock does. Every delivery, replayed or live, happens under
/// it, so each subscriber's queue holds its events in announce order.
#[derive(Default)]
struct SubscriberHub {
    subs: Mutex<Vec<BroadcastHandle>>,
    next_id: AtomicU64,
    subscribers: AtomicU64,
    events_pushed: AtomicU64,
    lagged_drops: AtomicU64,
}

impl SubscriberHub {
    /// Register a subscriber, first seeding its queue with `replay` (a
    /// resuming subscriber's missed transitions).
    fn add_with_replay(
        &self,
        tx: SyncSender<(u64, StreamEvent)>,
        dropped: Arc<AtomicU64>,
        replay: Vec<StreamEvent>,
    ) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let handle = BroadcastHandle {
            id,
            tx,
            pushed: AtomicU64::new(0),
            dropped,
        };
        for event in replay {
            self.deliver(&handle, event);
        }
        self.subs.lock().push(handle);
        self.subscribers.fetch_add(1, Ordering::Relaxed);
        id
    }

    /// Enqueue one event for one subscriber, shedding (with counters)
    /// instead of blocking when its queue is full.
    fn deliver(&self, sub: &BroadcastHandle, event: StreamEvent) {
        let shed = sub.dropped.load(Ordering::Acquire);
        match sub.tx.try_send((shed, event)) {
            Ok(()) => {
                sub.pushed.fetch_add(1, Ordering::Relaxed);
                self.events_pushed.fetch_add(1, Ordering::Relaxed);
            }
            Err(TrySendError::Full(_)) => {
                sub.dropped.fetch_add(1, Ordering::AcqRel);
                self.lagged_drops.fetch_add(1, Ordering::Relaxed);
            }
            // A disconnected pusher means the connection is on its way
            // out; the worker unregisters it shortly.
            Err(TrySendError::Disconnected(_)) => {}
        }
    }

    /// Drop subscriber `id`'s sender; its pusher wakes on the closed
    /// channel, writes a final `Closed` event, and exits.
    fn remove(&self, id: u64) {
        let mut subs = self.subs.lock();
        let before = subs.len();
        subs.retain(|s| s.id != id);
        if subs.len() < before {
            self.subscribers.fetch_sub(1, Ordering::Relaxed);
        }
    }

    fn len(&self) -> u64 {
        self.subscribers.load(Ordering::Relaxed)
    }

    fn broadcast(&self, events: &[StreamEvent]) {
        if events.is_empty() {
            return;
        }
        let subs = self.subs.lock();
        for event in events {
            for sub in subs.iter() {
                self.deliver(sub, event.clone());
            }
        }
    }

    /// One `Stats` row per live subscriber.
    fn subscriber_stats(&self) -> Vec<SubscriberStats> {
        self.subs
            .lock()
            .iter()
            .map(|s| SubscriberStats {
                id: s.id,
                events_pushed: s.pushed.load(Ordering::Relaxed),
                lagged_drops: s.dropped.load(Ordering::Relaxed),
            })
            .collect()
    }
}

/// A shared, mutex-guarded connection writer. Worker replies and
/// pushed events interleave on the same socket; whole frames are
/// written under the lock so framing survives the interleaving.
type SharedWriter = Arc<Mutex<BufWriter<TcpStream>>>;

/// This connection's subscription: its hub registration plus the
/// pusher thread draining its event queue. Dropping it (any exit path
/// of `serve_connection`, or an explicit unsubscribe) unregisters from
/// the hub, which closes the queue; the pusher then writes a final
/// [`StreamEvent::Closed`] frame and exits — joined here so the
/// goodbye is on the wire before the drop completes.
struct Subscription {
    id: u64,
    hub: Arc<SubscriberHub>,
    pusher: Option<JoinHandle<()>>,
}

impl Drop for Subscription {
    fn drop(&mut self) {
        self.hub.remove(self.id);
        if let Some(h) = self.pusher.take() {
            let _ = h.join();
        }
    }
}

/// Drain one subscriber's event queue onto its connection. An event
/// queued after sheds this pusher has not yet reported goes out behind
/// a `Lagged` marker counting them, which is where they fell in the
/// stream; sheds after the last queued event are marked before the
/// final `Closed`.
fn pusher_loop(rx: Receiver<(u64, StreamEvent)>, dropped: Arc<AtomicU64>, writer: SharedWriter) {
    let mut reported = 0;
    let mut push = |shed: u64, event: StreamEvent| -> std::io::Result<()> {
        let mut w = writer.lock();
        if shed > reported {
            let missed = shed - reported;
            w.write_all(&Reply::Event(StreamEvent::Lagged { missed }).encode())?;
            reported = shed;
        }
        w.write_all(&Reply::Event(event).encode())?;
        w.flush()
    };
    while let Ok((shed, event)) = rx.recv() {
        if push(shed, event).is_err() {
            // The peer is gone; the worker notices on its next read and
            // unregisters the subscription.
            return;
        }
    }
    // Queue closed: unsubscribe, drain, or shutdown. Every shed came
    // before the hub dropped the sender, so the count is final. Say
    // goodbye explicitly so the client can tell a clean close from a
    // cut wire.
    let _ = push(dropped.load(Ordering::Acquire), StreamEvent::Closed);
}

/// Monotonic counters reported by `Stats`.
#[derive(Debug, Default)]
pub struct Counters {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Queries answered (including error replies).
    pub queries: AtomicU64,
    /// Error replies sent.
    pub errors: AtomicU64,
    /// Overloaded replies sent.
    pub overloaded: AtomicU64,
}

/// Mutable serving state shared with metric-exporting closures (its
/// own `Arc` so the registry never holds the whole [`Shared`] — that
/// would be a reference cycle, since [`Shared`] holds the registry).
struct LiveState {
    /// Connections currently holding a service slot.
    inflight: AtomicUsize,
    /// Admin-driven drain: no new slots, slot-holders close after
    /// their current burst.
    draining: AtomicBool,
    /// Live-reconfigurable admission limit.
    max_inflight: AtomicUsize,
}

/// State shared by the acceptor, workers, and reloader.
struct Shared {
    store: Arc<ModeStore>,
    counters: Arc<Counters>,
    live: Arc<LiveState>,
    stop: AtomicBool,
    replica: u64,
    registry: Arc<Registry>,
    traces: Arc<TraceRing>,
    admin_token: Option<String>,
    slow_query: Option<Duration>,
    /// The write path; `None` on a query-only server, where `Submit`
    /// is refused with `ERR_UNAVAILABLE`.
    stream: Option<Arc<dyn StreamHandler>>,
    /// Event fan-out to subscribed connections.
    hub: Arc<SubscriberHub>,
    /// Orders every announce against every subscribe, so each announced
    /// transition reaches a subscriber once: in its replay or live,
    /// never both and never neither. A submit holds it across
    /// `handler.submit` and the broadcast; a subscribe across the
    /// replay read, the hub registration and the `boundary_count`
    /// read. Lock order: announce, then the handler's locks, then the
    /// hub's. Queries and `Stats` never take it.
    announce: Mutex<()>,
    /// `fenrir_serve_queries_total{kind}` handles, by kind index.
    queries_by_kind: Vec<ObsCounter>,
    /// `fenrir_serve_query_latency_us{kind}` handles, by kind index.
    latency_by_kind: Vec<ObsHistogram>,
    overloaded_accept: ObsCounter,
    overloaded_slot: ObsCounter,
}

impl Shared {
    fn stats(&self) -> StatsInfo {
        StatsInfo {
            connections: self.counters.connections.load(Ordering::Relaxed),
            queries: self.counters.queries.load(Ordering::Relaxed),
            errors: self.counters.errors.load(Ordering::Relaxed),
            overloaded: self.counters.overloaded.load(Ordering::Relaxed),
            cache_hits: self.store.cache.hits(),
            cache_misses: self.store.cache.misses(),
            reloads: self.store.reloads(),
            reload_failures: self.store.reload_failures(),
            inflight: self.live.inflight.load(Ordering::Relaxed) as u64,
            subscribers: self.hub.subscriber_stats(),
        }
    }

    fn draining(&self) -> bool {
        self.live.draining.load(Ordering::SeqCst)
    }

    /// An `Overloaded` reply with the retry-after hint scaled to where
    /// the shed happened.
    fn overloaded(&self, at_accept: bool) -> Reply {
        self.counters.overloaded.fetch_add(1, Ordering::Relaxed);
        if at_accept {
            self.overloaded_accept.inc();
        } else {
            self.overloaded_slot.inc();
        }
        Reply::Overloaded {
            inflight: self.live.inflight.load(Ordering::Relaxed) as u64,
            retry_after_ms: if at_accept {
                RETRY_AFTER_MS * 2
            } else {
                RETRY_AFTER_MS
            },
        }
    }
}

/// RAII service slot: released on drop.
struct Slot<'a>(&'a Shared);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.0.live.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

fn try_acquire(shared: &Shared) -> Option<Slot<'_>> {
    if shared.draining() {
        return None;
    }
    let max = shared.live.max_inflight.load(Ordering::Relaxed);
    let mut cur = shared.live.inflight.load(Ordering::Acquire);
    loop {
        if cur >= max {
            return None;
        }
        match shared.live.inflight.compare_exchange_weak(
            cur,
            cur + 1,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => return Some(Slot(shared)),
            Err(actual) => cur = actual,
        }
    }
}

/// A running fenrir-serve instance.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    reloader: Option<JoinHandle<()>>,
    scrape: Option<ScrapeServer>,
}

impl Server {
    /// Bind, spawn the worker pool, and start serving `store`.
    pub fn start(store: Arc<ModeStore>, cfg: ServeConfig) -> Result<Server> {
        Self::start_inner(store, None, cfg)
    }

    /// Like [`Server::start`], but with a write path: `Submit` frames
    /// are handed to `stream` and `Subscribe`d connections receive the
    /// events it emits.
    pub fn start_with_stream(
        store: Arc<ModeStore>,
        stream: Arc<dyn StreamHandler>,
        cfg: ServeConfig,
    ) -> Result<Server> {
        Self::start_inner(store, Some(stream), cfg)
    }

    fn start_inner(
        store: Arc<ModeStore>,
        stream: Option<Arc<dyn StreamHandler>>,
        cfg: ServeConfig,
    ) -> Result<Server> {
        let listener = TcpListener::bind(&cfg.addr).map_err(|e| Error::Internal {
            what: "serve bind",
            message: format!("{}: {e}", cfg.addr),
        })?;
        let addr = listener.local_addr().map_err(|e| Error::Internal {
            what: "serve bind",
            message: e.to_string(),
        })?;
        let registry = Arc::new(Registry::new());
        let traces = Arc::new(TraceRing::new(TRACE_CAPACITY));
        let counters = Arc::new(Counters::default());
        let live = Arc::new(LiveState {
            inflight: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            max_inflight: AtomicUsize::new(cfg.max_inflight.max(1)),
        });
        let hub = Arc::new(SubscriberHub::default());
        register_metrics(&registry, &store, &counters, &live, &traces);
        register_stream_metrics(&registry, &hub);
        let queries_by_kind = KIND_NAMES
            .iter()
            .map(|name| registry.counter("fenrir_serve_queries_total", &[("kind", name)]))
            .collect();
        let latency_by_kind = KIND_NAMES
            .iter()
            .map(|name| {
                registry.histogram(
                    "fenrir_serve_query_latency_us",
                    &[("kind", name)],
                    DEFAULT_LATENCY_BOUNDS_US,
                )
            })
            .collect();
        let overloaded_accept =
            registry.counter("fenrir_serve_overloaded_total", &[("at", "accept")]);
        let overloaded_slot = registry.counter("fenrir_serve_overloaded_total", &[("at", "slot")]);
        let shared = Arc::new(Shared {
            store: Arc::clone(&store),
            counters,
            live,
            stop: AtomicBool::new(false),
            replica: cfg.replica,
            registry: Arc::clone(&registry),
            traces: Arc::clone(&traces),
            admin_token: cfg.admin_token.clone(),
            slow_query: cfg.slow_query,
            stream,
            hub,
            announce: Mutex::new(()),
            queries_by_kind,
            latency_by_kind,
            overloaded_accept,
            overloaded_slot,
        });

        let scrape = match &cfg.metrics_addr {
            Some(maddr) => Some(
                ScrapeServer::start(maddr, Arc::clone(&registry), Some(Arc::clone(&traces)))
                    .map_err(|e| Error::Internal {
                        what: "metrics bind",
                        message: format!("{maddr}: {e}"),
                    })?,
            ),
            None => None,
        };

        let workers_n = cfg.workers.max(1);
        let (queue, pending) = sync_channel(cfg.backlog.max(1) * workers_n);
        let pending = Arc::new(Mutex::new(pending));
        let workers = (0..workers_n)
            .map(|id| {
                let pending = Arc::clone(&pending);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(id, &pending, shared))
            })
            .collect();

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(listener, queue, shared))
        };

        let reloader = cfg.follow.map(|period| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                while !shared.stop.load(Ordering::SeqCst) {
                    // A reload failure (e.g. the writer mid-rewrite)
                    // is transient: keep the current snapshot and try
                    // again next period.
                    let _ = shared.store.maybe_reload();
                    let mut slept = Duration::ZERO;
                    while slept < period && !shared.stop.load(Ordering::SeqCst) {
                        let step = TICK.min(period - slept);
                        std::thread::sleep(step);
                        slept += step;
                    }
                }
            })
        });

        Ok(Server {
            addr,
            shared,
            acceptor: Some(acceptor),
            workers,
            reloader,
            scrape,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The metric registry this server reports into — useful for
    /// registering extra collectors (e.g. a resilient client's breaker
    /// counters) onto the same scrape.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.shared.registry)
    }

    /// Where the HTTP scrape endpoint is bound, when enabled.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.scrape.as_ref().map(|s| s.addr())
    }

    /// Stop accepting, drain in-flight queries, and join every thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // `accept` has no timeout: poke the listener so the acceptor
        // observes the stop flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.reloader.take() {
            let _ = h.join();
        }
        if let Some(s) = self.scrape.take() {
            s.shutdown();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Wire every store/server gauge and counter into `registry`. These
/// are pull closures: the scrape reads live values, the hot path pays
/// nothing beyond the atomics it already maintained.
fn register_metrics(
    registry: &Registry,
    store: &Arc<ModeStore>,
    counters: &Arc<Counters>,
    live: &Arc<LiveState>,
    traces: &Arc<TraceRing>,
) {
    type CounterField = fn(&Counters) -> &AtomicU64;
    type StoreField = fn(&ModeStore) -> u64;
    let totals: [(&str, CounterField); 3] = [
        ("fenrir_serve_connections_total", |c| &c.connections),
        ("fenrir_serve_errors_total", |c| &c.errors),
        ("fenrir_serve_queries_answered_total", |c| &c.queries),
    ];
    for (name, field) in totals {
        let counters = Arc::clone(counters);
        registry.counter_fn(name, &[], move || {
            field(&counters).load(Ordering::Relaxed) as f64
        });
    }
    {
        let live = Arc::clone(live);
        registry.gauge_fn("fenrir_serve_inflight", &[], move || {
            live.inflight.load(Ordering::Relaxed) as f64
        });
    }
    {
        let live = Arc::clone(live);
        registry.gauge_fn("fenrir_serve_draining", &[], move || {
            live.draining.load(Ordering::Relaxed) as u64 as f64
        });
    }
    {
        let live = Arc::clone(live);
        registry.gauge_fn("fenrir_serve_max_inflight", &[], move || {
            live.max_inflight.load(Ordering::Relaxed) as f64
        });
    }
    let cache: [(&str, StoreField); 4] = [
        ("fenrir_cache_hits_total", |s| s.cache.hits()),
        ("fenrir_cache_misses_total", |s| s.cache.misses()),
        ("fenrir_cache_evictions_total", |s| s.cache.evictions()),
        ("fenrir_cache_purged_total", |s| s.cache.purged()),
    ];
    for (name, field) in cache {
        let store = Arc::clone(store);
        registry.counter_fn(name, &[], move || field(&store) as f64);
    }
    {
        let store = Arc::clone(store);
        registry.gauge_fn("fenrir_cache_entries", &[], move || {
            store.cache.len() as f64
        });
    }
    {
        let store = Arc::clone(store);
        registry.gauge_fn("fenrir_cache_capacity", &[], move || {
            store.cache.capacity() as f64
        });
    }
    let store_counters: [(&str, StoreField); 4] = [
        ("fenrir_store_reloads_total", |s| s.reloads()),
        ("fenrir_store_reload_failures_total", |s| {
            s.reload_failures()
        }),
        ("fenrir_storage_retries_total", |s| {
            s.retry_stats().retries()
        }),
        ("fenrir_storage_exhausted_total", |s| {
            s.retry_stats().exhausted()
        }),
    ];
    for (name, field) in store_counters {
        let store = Arc::clone(store);
        registry.counter_fn(name, &[], move || field(&store) as f64);
    }
    {
        let store = Arc::clone(store);
        registry.gauge_fn("fenrir_store_epoch", &[], move || store.epoch() as f64);
    }
    {
        let store = Arc::clone(store);
        registry.gauge_fn("fenrir_store_stale", &[], move || {
            store.stale() as u64 as f64
        });
    }
    {
        let store = Arc::clone(store);
        registry.gauge_fn("fenrir_store_reload_age_seconds", &[], move || {
            store.reload_age().as_secs_f64()
        });
    }
    {
        let store = Arc::clone(store);
        registry.gauge_fn("fenrir_store_reload_duration_us", &[], move || {
            store.last_reload_duration_us() as f64
        });
    }
    {
        let traces = Arc::clone(traces);
        registry.counter_fn("fenrir_traces_dropped_total", &[], move || {
            traces.dropped() as f64
        });
    }
}

/// Stream fan-out metrics. Registered on every server — a query-only
/// instance exports them at zero — so the scrape inventory is uniform
/// across the fleet.
fn register_stream_metrics(registry: &Registry, hub: &Arc<SubscriberHub>) {
    {
        let hub = Arc::clone(hub);
        registry.gauge_fn("fenrir_stream_subscribers", &[], move || hub.len() as f64);
    }
    {
        let hub = Arc::clone(hub);
        registry.counter_fn("fenrir_stream_events_pushed_total", &[], move || {
            hub.events_pushed.load(Ordering::Relaxed) as f64
        });
    }
    {
        let hub = Arc::clone(hub);
        registry.counter_fn("fenrir_stream_lagged_drops_total", &[], move || {
            hub.lagged_drops.load(Ordering::Relaxed) as f64
        });
    }
}

fn accept_loop(listener: TcpListener, queue: SyncSender<TcpStream>, shared: Arc<Shared>) {
    for conn in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(conn) = conn else { continue };
        shared.counters.connections.fetch_add(1, Ordering::Relaxed);
        if let Err(TrySendError::Full(mut conn) | TrySendError::Disconnected(mut conn)) =
            queue.try_send(conn)
        {
            // The queue is full: shed at accept time with an explicit
            // reply rather than letting the connection hang.
            let frame = shared.overloaded(true).encode();
            let _ = conn.write_all(&frame);
        }
    }
    // Dropping the sender closes the queue; workers exit after serving
    // what was already queued.
}

/// Serve connections from the shared queue until it closes. The lock
/// is held only while waiting for the next connection, so the idle
/// workers take turns at the queue and a busy one never blocks it.
fn worker_loop(id: usize, pending: &Mutex<Receiver<TcpStream>>, shared: Arc<Shared>) {
    loop {
        let next = pending.lock().recv();
        let Ok(conn) = next else { return };
        serve_connection(id, conn, &shared);
    }
}

/// Serve one connection to completion.
///
/// The writer is shared with this connection's pusher thread (if it
/// subscribes): worker replies and pushed events interleave on the
/// same socket, whole-frame under the writer mutex. Every exit path
/// drops the [`Subscription`], which closes the event queue and joins
/// the pusher after it writes its final `Closed` frame — a subscriber
/// never just vanishes.
fn serve_connection(worker: usize, conn: TcpStream, shared: &Shared) {
    let _ = conn.set_nodelay(true);
    if conn.set_read_timeout(Some(TICK)).is_err() {
        return;
    }
    let Ok(write_half) = conn.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(conn);
    let writer: SharedWriter = Arc::new(Mutex::new(BufWriter::new(write_half)));
    let mut slot = try_acquire(shared);
    let mut subscription: Option<Subscription> = None;
    let mut idle_since = Instant::now();
    let mut stopping_since: Option<Instant> = None;
    loop {
        match read_frame(&mut reader) {
            FrameEvent::Frame { kind, payload } => {
                idle_since = Instant::now();
                // Subscription management needs connection-local state
                // (the pusher thread and hub registration), so it is
                // handled here rather than in `compute`. Slot-exempt —
                // registering for events is not query work — but
                // refused while draining: a drain must converge on zero
                // subscribers, not accept new ones.
                if kind == KIND_SUBSCRIBE {
                    if handle_subscribe(&payload, shared, &writer, &mut subscription).is_err() {
                        return;
                    }
                }
                // Control frames bypass the slot gate: a saturated or
                // draining server must stay observable. `Health` is
                // deliberately slot-gated under load (it doubles as a
                // load probe) but bypasses the gate during a drain —
                // drain is an administrative state the fleet must be
                // able to watch, not a capacity signal.
                else {
                    let control = matches!(kind, KIND_STATS | KIND_METRICS | KIND_ADMIN)
                        || (kind == KIND_HEALTH && shared.draining());
                    let reply = if control {
                        answer(worker, kind, &payload, shared)
                    } else {
                        if slot.is_none() {
                            // Shed mode: re-try the slot before every query
                            // so freed capacity is used promptly.
                            slot = try_acquire(shared);
                        }
                        match slot {
                            Some(_) => answer(worker, kind, &payload, shared),
                            None => shared.overloaded(false),
                        }
                    };
                    if writer.lock().write_all(&reply.encode()).is_err() {
                        return;
                    }
                }
                // Flush once the pipelined burst is exhausted; batching
                // replies across a burst is what makes pipelining fast.
                if reader.buffer().is_empty() {
                    if writer.lock().flush().is_err() {
                        return;
                    }
                    // A peer that streams frames faster than the read
                    // tick never lets the Tick arm run, so the stop
                    // flag must also be honored here or shutdown hangs
                    // on a pinned worker. A shed-only connection has no
                    // admitted work to drain — cut it off at once; a
                    // slot-holder gets a bounded grace so a pipelined
                    // burst already on the wire is answered, not
                    // dropped.
                    if shared.stop.load(Ordering::SeqCst) {
                        if slot.is_none() {
                            return;
                        }
                        match stopping_since {
                            None => stopping_since = Some(Instant::now()),
                            Some(t) if t.elapsed() >= STOP_DRAIN_GRACE => return,
                            Some(_) => {}
                        }
                    }
                    // Draining: slot-holders close once their burst is
                    // answered, releasing inflight toward zero; a
                    // subscription-only connection closes too (its
                    // `Subscription` drop pushes the final `Closed`).
                    if shared.draining() && (slot.is_some() || subscription.is_some()) {
                        return;
                    }
                }
            }
            FrameEvent::Tick => {
                if writer.lock().flush().is_err() {
                    return;
                }
                if shared.stop.load(Ordering::SeqCst) {
                    return; // drained: no frame was readable
                }
                // An idle slot-holder under drain releases its slot
                // now; a connection holding only a subscription closes
                // just as promptly — it will never send a frame, so
                // waiting out the read deadline would stall the drain
                // for no benefit. Its `Subscription` drop delivers the
                // final `Closed` event.
                if shared.draining() && (slot.is_some() || subscription.is_some()) {
                    return;
                }
                if idle_since.elapsed() >= READ_DEADLINE {
                    return; // idle past the deadline
                }
            }
            FrameEvent::Corrupt(e) => {
                // Framing is lost; tell the peer why, then hang up.
                shared.counters.errors.fetch_add(1, Ordering::Relaxed);
                let reply = Reply::Error {
                    code: ERR_BAD_REQUEST,
                    message: e.to_string(),
                };
                let mut w = writer.lock();
                let _ = w.write_all(&reply.encode());
                let _ = w.flush();
                return;
            }
            // `read_frame` without a deadline never yields `TimedOut`,
            // but treat it like a transport failure if it ever does.
            FrameEvent::Eof | FrameEvent::Io(_) | FrameEvent::TimedOut => return,
        }
    }
}

/// Apply one `Subscribe` frame to this connection's subscription
/// state and write its reply, spawning or retiring the pusher thread.
///
/// A new subscription is read and registered under the announce lock:
/// its replay holds every transition announced before it, the live
/// stream every one announced after, and `Subscribed.boundary_count`
/// is exactly where that live stream starts. Its pusher starts only
/// once the reply is written, so `Subscribed` is the first frame the
/// subscriber reads.
fn handle_subscribe(
    payload: &[u8],
    shared: &Shared,
    writer: &SharedWriter,
    subscription: &mut Option<Subscription>,
) -> std::io::Result<()> {
    let started = Instant::now();
    shared.counters.queries.fetch_add(1, Ordering::Relaxed);
    let mut queue = None;
    let reply = match Request::decode(KIND_SUBSCRIBE, payload) {
        Ok(Request::Subscribe { enable: true, .. })
            if shared.draining() || shared.stop.load(Ordering::SeqCst) =>
        {
            Reply::Error {
                code: ERR_UNAVAILABLE,
                message: "draining: not accepting new subscriptions".into(),
            }
        }
        Ok(Request::Subscribe {
            enable: true,
            resume_from,
        }) => {
            let _announce = shared.announce.lock();
            if subscription.is_none() {
                // A resuming client gets the transitions it missed
                // queued ahead of the live stream; `events_since` starts
                // with a `Lagged` marker when the cursor predates
                // retained history.
                let replay = match (resume_from, &shared.stream) {
                    (Some(from), Some(handler)) => handler.events_since(from),
                    _ => Vec::new(),
                };
                let (tx, rx) = sync_channel(EVENT_QUEUE);
                let dropped = Arc::new(AtomicU64::new(0));
                let id = shared.hub.add_with_replay(tx, Arc::clone(&dropped), replay);
                *subscription = Some(Subscription {
                    id,
                    hub: Arc::clone(&shared.hub),
                    pusher: None,
                });
                queue = Some((rx, dropped));
            }
            Reply::Subscribed {
                active: true,
                subscribers: shared.hub.len(),
                boundary_count: stream_boundary_count(shared),
            }
        }
        Ok(Request::Subscribe { enable: false, .. }) => {
            // Dropping the subscription unregisters it and joins the
            // pusher after its final `Closed` frame hits the wire, so
            // the client sees `Closed` ahead of this reply.
            *subscription = None;
            Reply::Subscribed {
                active: false,
                subscribers: shared.hub.len(),
                boundary_count: stream_boundary_count(shared),
            }
        }
        Ok(_) | Err(_) => Reply::Error {
            code: ERR_BAD_REQUEST,
            message: "malformed subscribe frame".into(),
        },
    };
    if matches!(reply, Reply::Error { .. }) {
        shared.counters.errors.fetch_add(1, Ordering::Relaxed);
    }
    if let Some(i) = kind_index(KIND_SUBSCRIBE) {
        shared.queries_by_kind[i].inc();
        shared.latency_by_kind[i].observe(started.elapsed().as_micros() as u64);
    }
    writer.lock().write_all(&reply.encode())?;
    if let (Some((rx, dropped)), Some(sub)) = (queue, subscription.as_mut()) {
        let w = Arc::clone(writer);
        sub.pusher = Some(std::thread::spawn(move || pusher_loop(rx, dropped, w)));
    }
    Ok(())
}

/// The handler's lifetime boundary count, or zero on a query-only
/// server (which never pushes events, so there is nothing to resume).
fn stream_boundary_count(shared: &Shared) -> u64 {
    shared
        .stream
        .as_ref()
        .map(|h| h.boundary_count())
        .unwrap_or(0)
}

/// Compute the reply to one verified frame, recording per-kind query
/// counts and latency, and a trace event when the query was slow.
fn answer(worker: usize, kind: u8, payload: &[u8], shared: &Shared) -> Reply {
    let started = Instant::now();
    shared.counters.queries.fetch_add(1, Ordering::Relaxed);
    let reply = match Request::decode(kind, payload) {
        Ok(req) => compute(worker, req, shared),
        Err(e) => Reply::Error {
            code: ERR_BAD_REQUEST,
            message: e.to_string(),
        },
    };
    if matches!(reply, Reply::Error { .. }) {
        shared.counters.errors.fetch_add(1, Ordering::Relaxed);
    }
    if let Some(i) = kind_index(kind) {
        let micros = started.elapsed().as_micros() as u64;
        shared.queries_by_kind[i].inc();
        shared.latency_by_kind[i].observe(micros);
        if let Some(threshold) = shared.slow_query {
            if micros >= threshold.as_micros() as u64 {
                // Only a slow (rare) query pays for re-decoding and
                // formatting its own description.
                let detail = Request::decode(kind, payload)
                    .map(|r| format!("{r:?}"))
                    .unwrap_or_default();
                shared.traces.push(KIND_NAMES[i], micros, detail);
            }
        }
    }
    reply
}

fn compute(worker: usize, req: Request, shared: &Shared) -> Reply {
    let snap = shared.store.snapshot(worker);
    match req {
        Request::Assign { t, network } => snap.assign(t, network),
        Request::Similarity { t, u } => snap.similarity(t, u),
        Request::Mode { t } => snap.mode(t),
        Request::Transition { t, u } => {
            cached_pair(shared, &snap, KIND_TRANSITION, t, Some(u), |s| {
                s.transition(t, u)
            })
        }
        Request::Latency { t } => {
            cached_pair(shared, &snap, KIND_LATENCY, t, None, |s| s.latency(t))
        }
        Request::Health => snap.health(
            shared.replica,
            shared.store.stale(),
            shared.stop.load(Ordering::SeqCst) || shared.draining(),
        ),
        Request::Stats => Reply::Stats(shared.stats()),
        Request::Metrics => Reply::Metrics {
            text: shared.registry.render(),
        },
        Request::Admin { token, cmd } => handle_admin(shared, &token, cmd),
        Request::Submit {
            seq,
            time,
            codes,
            health,
        } => match &shared.stream {
            Some(handler) => {
                // Broadcast only after the handler's durability
                // decision, so a pushed transition always refers to
                // journaled state, and under the announce lock, so no
                // subscribe falls between the announce and its push.
                let _announce = shared.announce.lock();
                let (reply, events) = handler.submit(seq, time, &codes, health);
                shared.hub.broadcast(&events);
                reply
            }
            None => Reply::Error {
                code: ERR_UNAVAILABLE,
                message: "this server has no stream handler: submissions are not accepted".into(),
            },
        },
        // Handled connection-locally in `serve_connection`; reaching
        // here means a decode path changed underneath us.
        Request::Subscribe { .. } => Reply::Error {
            code: ERR_BAD_REQUEST,
            message: "subscribe is connection-local".into(),
        },
    }
}

/// Execute one admin command, or refuse it. No token configured means
/// *every* command is refused — the control plane fails closed.
fn handle_admin(shared: &Shared, token: &str, cmd: AdminCmd) -> Reply {
    let Some(expected) = &shared.admin_token else {
        return Reply::Error {
            code: ERR_UNAVAILABLE,
            message: "admin commands disabled: no admin token configured".into(),
        };
    };
    if token != expected {
        return Reply::Error {
            code: ERR_UNAUTHORIZED,
            message: "bad admin token".into(),
        };
    }
    match cmd {
        AdminCmd::Drain => {
            shared.live.draining.store(true, Ordering::SeqCst);
            Reply::Admin {
                info: "draining: slots refused, holders close after their burst".into(),
            }
        }
        AdminCmd::Undrain => {
            shared.live.draining.store(false, Ordering::SeqCst);
            Reply::Admin {
                info: "undrained: slots admitted again".into(),
            }
        }
        AdminCmd::ForceReload => match shared.store.force_reload() {
            Ok(()) => Reply::Admin {
                info: format!("reloaded: now serving epoch {}", shared.store.epoch()),
            },
            Err(e) => Reply::Error {
                code: ERR_UNAVAILABLE,
                message: format!("force reload failed: {e}"),
            },
        },
        AdminCmd::Rotate { path } => match shared.store.rotate(Path::new(&path)) {
            Ok(()) => Reply::Admin {
                info: format!(
                    "rotated to {path}: now serving epoch {}",
                    shared.store.epoch()
                ),
            },
            Err(e) => Reply::Error {
                code: ERR_BAD_REQUEST,
                message: format!("rotate failed, old journal still serving: {e}"),
            },
        },
        AdminCmd::SetCacheCapacity { entries } => {
            shared.store.cache.set_capacity(entries as usize);
            Reply::Admin {
                info: format!(
                    "cache capacity set to {} entries",
                    shared.store.cache.capacity()
                ),
            }
        }
        AdminCmd::SetMaxInflight { slots } => {
            shared
                .live
                .max_inflight
                .store(slots as usize, Ordering::SeqCst);
            Reply::Admin {
                info: format!("max inflight set to {slots} slots"),
            }
        }
    }
}

/// Serve a derived answer through the cache, keyed by resolved indices.
fn cached_pair(
    shared: &Shared,
    snap: &crate::store::Snapshot,
    kind: u8,
    t: i64,
    u: Option<i64>,
    compute: impl FnOnce(&crate::store::Snapshot) -> Reply,
) -> Reply {
    // Unresolvable times can't be cache keys; compute (and fail)
    // directly.
    let Ok(i) = snap.resolve(t) else {
        return compute(snap);
    };
    let j = match u {
        Some(u) => match snap.resolve(u) {
            Ok(j) => j,
            Err(_) => return compute(snap),
        },
        None => usize::MAX, // single-time queries share the key space
    };
    let key = (kind, i as u64, j as u64, snap.epoch);
    if let Some((k, payload)) = shared.store.cache.get(&key) {
        if let Ok(reply) = Reply::decode(k, &payload) {
            return reply;
        }
    }
    let reply = compute(snap);
    if !matches!(reply, Reply::Error { .. }) {
        let (k, payload) = reply.kind_and_payload();
        shared.store.cache.put(key, k, payload);
    }
    reply
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::protocol::SubmitOutcome;
    use fenrir_core::ids::SiteTable;
    use fenrir_core::time::Timestamp;
    use fenrir_data::journal::{PipelineConfig, RecoverablePipeline};

    fn tcp_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        (server, client)
    }

    fn transition(seq: u64) -> StreamEvent {
        StreamEvent::ModeTransition {
            seq,
            time: seq as i64 * 86_400,
            from_mode: 0,
            to_mode: 1,
            modes: 2,
            threshold: 0.5,
            step_phi: 0.4,
            trusted: true,
        }
    }

    fn next_event(r: &mut TcpStream) -> StreamEvent {
        match read_frame(r) {
            FrameEvent::Frame { kind, payload } => {
                match Reply::decode(kind, &payload).expect("decode event frame") {
                    Reply::Event(ev) => ev,
                    other => panic!("expected an event frame, got {other:?}"),
                }
            }
            other => panic!("expected a frame, got {other:?}"),
        }
    }

    #[test]
    fn full_queue_sheds_with_counters_never_blocks() {
        let hub = SubscriberHub::default();
        let (tx, _rx) = sync_channel(1);
        let dropped = Arc::new(AtomicU64::new(0));
        hub.add_with_replay(tx, Arc::clone(&dropped), Vec::new());
        assert_eq!(hub.len(), 1);

        // Nothing drains the queue: the first event fills it, the rest
        // shed onto the shed counters instead of blocking the broadcast.
        hub.broadcast(&[transition(0), transition(1), transition(2)]);
        assert_eq!(hub.events_pushed.load(Ordering::Relaxed), 1);
        assert_eq!(hub.lagged_drops.load(Ordering::Relaxed), 2);
        assert_eq!(dropped.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn replay_precedes_live_events_and_stats_count_per_subscriber() {
        let hub = SubscriberHub::default();
        let (tx, rx) = sync_channel(8);
        let id = hub.add_with_replay(
            tx,
            Arc::new(AtomicU64::new(0)),
            vec![transition(3), transition(4)],
        );

        // Replayed history lands ahead of anything broadcast later.
        hub.broadcast(&[transition(5)]);
        for want in [transition(3), transition(4), transition(5)] {
            assert_eq!(rx.try_recv().expect("queued"), (0, want));
        }

        // Replayed and live deliveries both count on this subscriber's
        // Stats row.
        assert_eq!(
            hub.subscriber_stats(),
            vec![SubscriberStats {
                id,
                events_pushed: 3,
                lagged_drops: 0,
            }]
        );
    }

    /// The frames a subscribed connection reads up to its unsubscribe's
    /// inactive `Subscribed` reply, which is not included.
    fn frames_until_unsubscribed(sub: &mut Client) -> Vec<Reply> {
        sub.send(&Request::Subscribe {
            enable: false,
            resume_from: None,
        })
        .unwrap();
        sub.flush().unwrap();
        let mut frames = Vec::new();
        loop {
            match sub.recv().expect("frame") {
                Reply::Subscribed { active: false, .. } => return frames,
                reply => frames.push(reply),
            }
        }
    }

    fn subscribed(boundary_count: u64) -> Reply {
        Reply::Subscribed {
            active: true,
            subscribers: 1,
            boundary_count,
        }
    }

    fn accepted(seq: u64) -> (Reply, Vec<StreamEvent>) {
        let outcome = SubmitOutcome::Accepted {
            observations: seq + 1,
            transitions: 1,
        };
        (Reply::SubmitAck { seq, outcome }, vec![transition(seq)])
    }

    fn submit_one(addr: SocketAddr) {
        let mut client = Client::connect(addr).expect("connect");
        let submit = Request::Submit {
            seq: 1,
            time: 86_400,
            codes: vec![0],
            health: CampaignHealth::new(Timestamp::from_secs(86_400), 1),
        };
        let _ = client.request(&submit);
    }

    fn stream_server(handler: Arc<dyn StreamHandler>) -> Server {
        let pipe =
            RecoverablePipeline::in_memory(SiteTable::from_names(["A"]), 1, PipelineConfig::new(1))
                .unwrap();
        let store = Arc::new(ModeStore::over(Arc::new(Mutex::new(pipe))).unwrap());
        Server::start_with_stream(store, handler, ServeConfig::default()).unwrap()
    }

    /// How long a racing handler waits for the other side of its race.
    /// The announce lock makes every such wait run out.
    const RACE_WAIT: Duration = Duration::from_millis(200);

    /// A handler whose `events_since`, between reading the announce
    /// history and returning it, has another connection submit one more
    /// transition and waits for its ack: the window in which a resuming
    /// subscriber could miss a transition.
    struct SubmitDuringReplay {
        announced: Mutex<Vec<StreamEvent>>,
        addr: std::sync::OnceLock<SocketAddr>,
    }

    impl StreamHandler for SubmitDuringReplay {
        fn submit(
            &self,
            seq: u64,
            _time: i64,
            _codes: &[u16],
            _health: CampaignHealth,
        ) -> (Reply, Vec<StreamEvent>) {
            self.announced.lock().push(transition(seq));
            accepted(seq)
        }

        fn boundary_count(&self) -> u64 {
            self.announced.lock().len() as u64
        }

        fn events_since(&self, from: u64) -> Vec<StreamEvent> {
            let replay = self.announced.lock()[from as usize..].to_vec();
            let addr = *self.addr.get().expect("server address");
            let (acked, ack) = sync_channel(1);
            std::thread::spawn(move || {
                submit_one(addr);
                let _ = acked.send(());
            });
            let _ = ack.recv_timeout(RACE_WAIT);
            replay
        }
    }

    #[test]
    fn transition_announced_while_a_subscriber_resumes_is_delivered() {
        let handler = Arc::new(SubmitDuringReplay {
            announced: Mutex::new(vec![transition(0)]),
            addr: std::sync::OnceLock::new(),
        });
        let server = stream_server(handler.clone());
        handler.addr.set(server.addr()).unwrap();

        let mut sub = Client::connect(server.addr()).unwrap();
        sub.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        sub.send(&Request::Subscribe {
            enable: true,
            resume_from: Some(0),
        })
        .unwrap();
        sub.flush().unwrap();
        // The submit waits for the subscribe: transition 0 is replayed,
        // and transition 1 arrives live instead of being lost.
        assert_eq!(sub.recv().unwrap(), subscribed(1));
        for want in [transition(0), transition(1)] {
            assert_eq!(sub.recv().unwrap(), Reply::Event(want));
        }
        assert_eq!(
            frames_until_unsubscribed(&mut sub),
            [Reply::Event(StreamEvent::Closed)]
        );
        server.shutdown();
    }

    /// A handler whose `submit`, after recording its transition and
    /// before returning it for broadcast, has a prepared connection
    /// resume from boundary 0 and waits for that subscribe's replay
    /// read: the window in which a subscriber could receive the
    /// transition both replayed and live.
    struct SubscribeDuringSubmit {
        announced: Mutex<Vec<StreamEvent>>,
        subscriber: Mutex<Option<Client>>,
        replay_read: Mutex<Option<SyncSender<()>>>,
    }

    impl StreamHandler for SubscribeDuringSubmit {
        fn submit(
            &self,
            seq: u64,
            _time: i64,
            _codes: &[u16],
            _health: CampaignHealth,
        ) -> (Reply, Vec<StreamEvent>) {
            self.announced.lock().push(transition(seq));
            let (read, wait) = sync_channel(1);
            *self.replay_read.lock() = Some(read);
            let mut guard = self.subscriber.lock();
            let sub = guard.as_mut().expect("prepared subscriber");
            sub.send(&Request::Subscribe {
                enable: true,
                resume_from: Some(0),
            })
            .unwrap();
            sub.flush().unwrap();
            drop(guard);
            let _ = wait.recv_timeout(RACE_WAIT);
            accepted(seq)
        }

        fn boundary_count(&self) -> u64 {
            self.announced.lock().len() as u64
        }

        fn events_since(&self, from: u64) -> Vec<StreamEvent> {
            if let Some(read) = self.replay_read.lock().take() {
                let _ = read.send(());
            }
            self.announced.lock()[from as usize..].to_vec()
        }
    }

    #[test]
    fn transition_announced_while_a_subscriber_resumes_arrives_once() {
        let handler = Arc::new(SubscribeDuringSubmit {
            announced: Mutex::new(vec![transition(0)]),
            subscriber: Mutex::new(None),
            replay_read: Mutex::new(None),
        });
        let server = stream_server(handler.clone());
        let mut sub = Client::connect(server.addr()).unwrap();
        sub.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        *handler.subscriber.lock() = Some(sub);

        submit_one(server.addr());
        let mut sub = handler.subscriber.lock().take().unwrap();
        // The subscribe waited for the submit's broadcast: both
        // transitions are replayed, and neither is pushed again live.
        assert_eq!(sub.recv().unwrap(), subscribed(2));
        for want in [transition(0), transition(1)] {
            assert_eq!(sub.recv().unwrap(), Reply::Event(want));
        }
        assert_eq!(
            frames_until_unsubscribed(&mut sub),
            [Reply::Event(StreamEvent::Closed)]
        );
        server.shutdown();
    }

    #[test]
    fn remove_unregisters_once_and_ignores_unknown_ids() {
        let hub = SubscriberHub::default();
        let (tx, _rx) = sync_channel(1);
        let id = hub.add_with_replay(tx, Arc::new(AtomicU64::new(0)), Vec::new());
        assert_eq!(hub.len(), 1);
        hub.remove(id + 1); // unknown id: no-op
        assert_eq!(hub.len(), 1);
        hub.remove(id);
        assert_eq!(hub.len(), 0);
        hub.remove(id); // double remove: no-op
        assert_eq!(hub.len(), 0);
    }

    /// A hub with one subscriber whose queue holds one event and whose
    /// pusher has not started: the first broadcast queues, the second
    /// sheds.
    fn one_shed() -> (
        SubscriberHub,
        u64,
        Receiver<(u64, StreamEvent)>,
        Arc<AtomicU64>,
    ) {
        let hub = SubscriberHub::default();
        let (tx, rx) = sync_channel(1);
        let dropped = Arc::new(AtomicU64::new(0));
        let id = hub.add_with_replay(tx, Arc::clone(&dropped), Vec::new());
        hub.broadcast(&[transition(0)]);
        hub.broadcast(&[transition(1)]);
        assert_eq!(dropped.load(Ordering::Relaxed), 1);
        (hub, id, rx, dropped)
    }

    fn assert_closed(client_end: &mut TcpStream) {
        assert_eq!(next_event(client_end), StreamEvent::Closed);
        match read_frame(client_end) {
            FrameEvent::Eof | FrameEvent::Io(_) => {}
            other => panic!("expected the wire to close, got {other:?}"),
        }
    }

    #[test]
    fn pusher_marks_a_shed_just_before_the_next_event_and_says_goodbye() {
        let (server_end, mut client_end) = tcp_pair();
        let writer: SharedWriter = Arc::new(Mutex::new(BufWriter::new(server_end)));
        let (hub, id, rx, dropped) = one_shed();
        let pusher = std::thread::spawn(move || pusher_loop(rx, dropped, writer));

        // Transition 0 was queued before the shed: it goes out unmarked.
        assert_eq!(next_event(&mut client_end), transition(0));
        // The shed is marked in-band where it fell, just before the next
        // delivered event — loss is visible, never silent.
        hub.broadcast(&[transition(2)]);
        assert_eq!(
            next_event(&mut client_end),
            StreamEvent::Lagged { missed: 1 }
        );
        assert_eq!(next_event(&mut client_end), transition(2));

        // Unregistering drops the only sender; the pusher writes a
        // final Closed frame and exits.
        hub.remove(id);
        pusher.join().expect("pusher exits after goodbye");
        assert_closed(&mut client_end);
    }

    #[test]
    fn pusher_marks_a_shed_after_its_last_event_before_goodbye() {
        let (server_end, mut client_end) = tcp_pair();
        let writer: SharedWriter = Arc::new(Mutex::new(BufWriter::new(server_end)));
        let (hub, id, rx, dropped) = one_shed();
        hub.remove(id);
        pusher_loop(rx, dropped, writer);

        assert_eq!(next_event(&mut client_end), transition(0));
        assert_eq!(
            next_event(&mut client_end),
            StreamEvent::Lagged { missed: 1 }
        );
        assert_closed(&mut client_end);
    }
}
