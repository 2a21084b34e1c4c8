//! A resilient, replica-aware query client.
//!
//! [`ResilientClient`] wraps the blocking [`Client`] with the
//! serving-side half of the graceful-degradation playbook:
//!
//! * **connect/read timeouts** — every attempt is bounded; a stuck
//!   socket costs one attempt, never the caller's whole deadline;
//! * **retry budget with jittered exponential backoff** — transient
//!   failures are retried on (preferably) another replica, with
//!   seed-deterministic jitter so tests replay exactly;
//! * **per-replica circuit breakers** — a replica that keeps failing is
//!   skipped outright until its cooldown, so a dead endpoint cannot eat
//!   the budget ([`CircuitBreaker`]);
//! * **health-aware selection** — replicas that last reported
//!   `stale: true` (degraded to an old epoch) or `draining: true` are
//!   deprioritised, but still usable when nothing better is up;
//! * **hedged reads** — optionally, if the primary has not answered
//!   within `hedge_after` (a p99-ish delay), the same query is fired at
//!   a second replica and the first valid frame wins;
//! * **overload pacing** — an `Overloaded` reply is not an error: the
//!   client sleeps exactly the server's `retry_after_ms` hint and tries
//!   again.
//!
//! Every failure mode surfaces as a typed [`Error`] within the
//! request deadline — never a hang: once the budget is spent the caller
//! gets [`Error::Exhausted`] carrying the last underlying failure.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::sync::Mutex;
use fenrir_core::error::{Error, Result};
use fenrir_data::storage::RetryPolicy;
use fenrir_netsim::rng::ChaCha8Rng;

use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
use crate::client::Client;
use crate::protocol::{Reply, Request};

/// Tuning knobs for [`ResilientClient`].
#[derive(Debug, Clone)]
pub struct ResilientConfig {
    /// TCP connect timeout per attempt.
    pub connect_timeout: Duration,
    /// Whole-reply deadline per attempt (see
    /// [`Client::set_read_timeout`]).
    pub read_timeout: Duration,
    /// Retry rounds per request. A hedged round may open a second
    /// connection, but still spends one round.
    pub max_attempts: u32,
    /// Overall per-request deadline; attempts and backoffs never sleep
    /// past it.
    pub deadline: Duration,
    /// First backoff; doubles per round up to [`Self::backoff_max`].
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Seed for backoff jitter (deterministic across runs).
    pub seed: u64,
    /// Fire a hedge at a second replica if the primary has not answered
    /// within this delay (None disables hedging). Set it near the
    /// fleet's p99 so only tail-latency stragglers pay for a second
    /// connection.
    pub hedge_after: Option<Duration>,
    /// Per-replica breaker thresholds.
    pub breaker: BreakerConfig,
}

impl Default for ResilientConfig {
    fn default() -> Self {
        ResilientConfig {
            connect_timeout: Duration::from_millis(500),
            read_timeout: Duration::from_secs(2),
            max_attempts: 6,
            deadline: Duration::from_secs(10),
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_millis(500),
            seed: 0,
            hedge_after: None,
            breaker: BreakerConfig::default(),
        }
    }
}

/// Monotonic counters describing what the client has done.
#[derive(Debug, Default)]
pub struct ResilientStats {
    /// Connections attempted (including hedges).
    pub attempts: AtomicU64,
    /// Rounds retried after a failed or overloaded attempt.
    pub retries: AtomicU64,
    /// `Overloaded` replies received (each paced by its hint).
    pub overloaded: AtomicU64,
    /// Hedge requests fired.
    pub hedges: AtomicU64,
    /// Requests answered by the hedge rather than the primary.
    pub hedge_wins: AtomicU64,
    /// Replica selections skipped because a breaker refused admission.
    pub breaker_skips: AtomicU64,
}

/// One replica as the client sees it: its address, its breaker, and the
/// serving-process flags it last reported.
struct Endpoint {
    addr: SocketAddr,
    breaker: Mutex<CircuitBreaker>,
    stale: AtomicBool,
    draining: AtomicBool,
}

impl Endpoint {
    fn note_reply(&self, reply: &Reply) {
        if let Reply::Health(h) = reply {
            self.stale.store(h.stale, Ordering::Relaxed);
            self.draining.store(h.draining, Ordering::Relaxed);
        }
    }
}

/// What one attempt round produced.
enum Outcome {
    /// A frame the caller should see (including server-side
    /// `Reply::Error`s — those are authoritative answers, not faults).
    Reply(Reply),
    /// The server shed the query; retry after its hint.
    Overloaded(u64),
    /// The attempt failed in transit; retry elsewhere.
    Failed(Error),
}

/// A replica-group client; see the module docs.
pub struct ResilientClient {
    endpoints: Vec<Arc<Endpoint>>,
    cfg: ResilientConfig,
    rng: Mutex<ChaCha8Rng>,
    cursor: AtomicUsize,
    stats: Arc<ResilientStats>,
}

impl ResilientClient {
    /// A client over one or more replica addresses.
    pub fn new(addrs: &[SocketAddr], cfg: ResilientConfig) -> Result<Self> {
        if addrs.is_empty() {
            return Err(Error::Config {
                name: "replicas",
                message: "a resilient client needs at least one replica address".into(),
            });
        }
        if cfg.max_attempts == 0 {
            return Err(Error::Config {
                name: "max_attempts",
                message: "the retry budget must admit at least one attempt".into(),
            });
        }
        Ok(ResilientClient {
            endpoints: addrs
                .iter()
                .map(|&addr| {
                    Arc::new(Endpoint {
                        addr,
                        breaker: Mutex::new(CircuitBreaker::new(cfg.breaker)),
                        stale: AtomicBool::new(false),
                        draining: AtomicBool::new(false),
                    })
                })
                .collect(),
            rng: Mutex::new(ChaCha8Rng::seed_from_u64(cfg.seed)),
            cursor: AtomicUsize::new(0),
            cfg,
            stats: Arc::new(ResilientStats::default()),
        })
    }

    /// Replica count.
    pub fn replicas(&self) -> usize {
        self.endpoints.len()
    }

    /// Counters so far.
    pub fn stats(&self) -> &ResilientStats {
        &self.stats
    }

    /// The breaker state of replica `i` as of now.
    pub fn breaker_state(&self, i: usize) -> BreakerState {
        self.endpoints[i].breaker.lock().state(Instant::now())
    }

    /// Ask every replica for its `Health`, refreshing the stale/draining
    /// flags used for selection. Failures count against the breaker of
    /// the replica that failed; the call itself never errors.
    pub fn probe_health(&self) {
        for ep in &self.endpoints {
            if !ep.breaker.lock().admit(Instant::now()) {
                continue;
            }
            self.stats.attempts.fetch_add(1, Ordering::Relaxed);
            // `attempt_owned` records the breaker and health flags.
            let _ = attempt_owned(ep, &Request::Health, &self.cfg);
        }
    }

    /// Send one request, riding out replica failures, overload, and
    /// tail latency. Returns the first valid reply, or a typed error
    /// once the budget or deadline is spent — never hangs.
    pub fn request(&self, req: &Request) -> Result<Reply> {
        let overall = Instant::now() + self.cfg.deadline;
        let mut last = String::from("no attempt made");
        let mut round = 0u32;
        while round < self.cfg.max_attempts && Instant::now() < overall {
            if round > 0 {
                self.stats.retries.fetch_add(1, Ordering::Relaxed);
            }
            round += 1;
            let now = Instant::now();
            let Some(primary) = self.pick(&[], now) else {
                self.stats.breaker_skips.fetch_add(1, Ordering::Relaxed);
                last = "every replica breaker is open".into();
                self.backoff(round, None, overall);
                continue;
            };
            match self.round(primary, req, overall) {
                Outcome::Reply(reply) => return Ok(reply),
                Outcome::Overloaded(hint_ms) => {
                    last = format!("replica shed the query (retry-after {hint_ms} ms)");
                    self.backoff(round, Some(hint_ms), overall);
                }
                Outcome::Failed(e) => {
                    last = e.to_string();
                    self.backoff(round, None, overall);
                }
            }
        }
        Err(Error::Exhausted {
            what: "serve request",
            attempts: round,
            message: last,
        })
    }

    /// One round: the primary attempt, plus a hedge if configured and
    /// the primary is slow. First valid frame wins.
    fn round(&self, primary: usize, req: &Request, overall: Instant) -> Outcome {
        let (tx, rx) = channel::<(bool, Outcome)>();
        let spawn = |idx: usize, is_hedge: bool, tx: std::sync::mpsc::Sender<(bool, Outcome)>| {
            self.stats.attempts.fetch_add(1, Ordering::Relaxed);
            let ep = Arc::clone(&self.endpoints[idx]);
            let cfg = self.cfg.clone();
            let req = req.clone();
            std::thread::spawn(move || {
                let outcome = attempt_owned(&ep, &req, &cfg);
                let _ = tx.send((is_hedge, outcome));
            });
        };
        spawn(primary, false, tx.clone());
        let mut pending = 1u32;
        let mut hedged = false;
        let mut first_failure: Option<Outcome> = None;
        // The round cannot outlive the per-attempt bound or the overall
        // deadline, whichever is sooner.
        let round_deadline =
            (Instant::now() + self.cfg.connect_timeout + self.cfg.read_timeout).min(overall);
        loop {
            let now = Instant::now();
            let wait = match (self.cfg.hedge_after, hedged) {
                (Some(h), false) => h.min(round_deadline.saturating_duration_since(now)),
                _ => round_deadline.saturating_duration_since(now),
            };
            if wait.is_zero() && now >= round_deadline {
                // Deadline spent while attempts are still in flight;
                // the detached threads will finish (bounded by their
                // own timeouts) and record their breakers themselves.
                return first_failure.unwrap_or(Outcome::Failed(Error::Internal {
                    what: "serve request",
                    message: "attempt deadline expired awaiting a reply".into(),
                }));
            }
            match rx.recv_timeout(wait) {
                Ok((is_hedge, Outcome::Reply(reply))) => {
                    if is_hedge {
                        self.stats.hedge_wins.fetch_add(1, Ordering::Relaxed);
                    }
                    return Outcome::Reply(reply);
                }
                Ok((_, other)) => {
                    if matches!(other, Outcome::Overloaded(_)) {
                        self.stats.overloaded.fetch_add(1, Ordering::Relaxed);
                    }
                    pending -= 1;
                    if pending == 0 {
                        return first_failure.unwrap_or(other);
                    }
                    // Keep waiting for the other attempt; remember the
                    // first non-answer in case both fail.
                    first_failure.get_or_insert(other);
                }
                Err(RecvTimeoutError::Timeout) => {
                    if !hedged && self.cfg.hedge_after.is_some() {
                        hedged = true;
                        if let Some(secondary) = self.pick(&[primary], Instant::now()) {
                            self.stats.hedges.fetch_add(1, Ordering::Relaxed);
                            spawn(secondary, true, tx.clone());
                            pending += 1;
                        }
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return first_failure.unwrap_or(Outcome::Failed(Error::Internal {
                        what: "serve request",
                        message: "attempt workers vanished".into(),
                    }));
                }
            }
        }
    }

    /// Choose the best admissible replica, excluding `exclude`.
    ///
    /// Scoring (lower is better): closed breaker beats half-open;
    /// within a tier, fresh beats stale beats draining. Ties rotate so
    /// load spreads across equally-healthy replicas. Admission is only
    /// asked of the chosen endpoint (a half-open breaker books its
    /// single probe slot at admit time); if it refuses, the next-best
    /// candidate is tried.
    fn pick(&self, exclude: &[usize], now: Instant) -> Option<usize> {
        let start = self.cursor.fetch_add(1, Ordering::Relaxed);
        let n = self.endpoints.len();
        let mut ranked: Vec<(u32, usize)> = Vec::with_capacity(n);
        for off in 0..n {
            let i = (start + off) % n;
            if exclude.contains(&i) {
                continue;
            }
            let ep = &self.endpoints[i];
            let state = ep.breaker.lock().state(now);
            let base = match state {
                BreakerState::Closed => 0,
                BreakerState::HalfOpen => 4,
                BreakerState::Open => continue,
            };
            let stale = ep.stale.load(Ordering::Relaxed) as u32;
            let draining = ep.draining.load(Ordering::Relaxed) as u32;
            ranked.push((base + stale + 2 * draining, i));
        }
        ranked.sort_by_key(|&(score, _)| score);
        for (_, i) in ranked {
            if self.endpoints[i].breaker.lock().admit(now) {
                return Some(i);
            }
            self.stats.breaker_skips.fetch_add(1, Ordering::Relaxed);
        }
        None
    }

    /// Sleep before the next round: the server's explicit retry-after
    /// hint when there is one, otherwise jittered exponential backoff.
    /// Never sleeps past the overall deadline.
    fn backoff(&self, round: u32, hint_ms: Option<u64>, overall: Instant) {
        let base = match hint_ms {
            Some(ms) => Duration::from_millis(ms),
            None => {
                // Jitter in [0.5, 1.5): desynchronises a fleet of
                // retrying clients without changing the expectation.
                let factor = 0.5 + self.rng.lock().gen::<f64>();
                RetryPolicy {
                    backoff_base: self.cfg.backoff_base,
                    backoff_max: self.cfg.backoff_max,
                    ..RetryPolicy::default()
                }
                .backoff_for(round, factor)
            }
        };
        let remaining = overall.saturating_duration_since(Instant::now());
        let sleep = base.min(remaining);
        if !sleep.is_zero() {
            std::thread::sleep(sleep);
        }
    }

    /// Export the client's counters and each replica's breaker into
    /// `registry`, so an outage leaves a full trail in a single scrape:
    /// attempts, retries, hedges, and per-replica breaker transitions
    /// and live state.
    pub fn register_metrics(&self, registry: &fenrir_obs::Registry) {
        type StatField = fn(&ResilientStats) -> &AtomicU64;
        let stats = Arc::clone(&self.stats);
        let counters: [(&str, StatField); 6] = [
            ("fenrir_client_attempts_total", |s| &s.attempts),
            ("fenrir_client_retries_total", |s| &s.retries),
            ("fenrir_client_overloaded_total", |s| &s.overloaded),
            ("fenrir_client_hedges_total", |s| &s.hedges),
            ("fenrir_client_hedge_wins_total", |s| &s.hedge_wins),
            ("fenrir_client_breaker_skips_total", |s| &s.breaker_skips),
        ];
        for (name, field) in counters {
            let stats = Arc::clone(&stats);
            registry.counter_fn(name, &[], move || {
                field(&stats).load(Ordering::Relaxed) as f64
            });
        }
        for (i, ep) in self.endpoints.iter().enumerate() {
            let replica = i.to_string();
            for (to, pick) in [("open", 0usize), ("half_open", 1), ("closed", 2)] {
                let ep = Arc::clone(ep);
                registry.counter_fn(
                    "fenrir_breaker_transitions_total",
                    &[("replica", &replica), ("to", to)],
                    move || {
                        let t = ep.breaker.lock().transitions();
                        [t.to_open, t.to_half_open, t.to_closed][pick] as f64
                    },
                );
            }
            let ep = Arc::clone(ep);
            registry.gauge_fn(
                "fenrir_breaker_state",
                &[("replica", &replica)],
                move || match ep.breaker.lock().state(Instant::now()) {
                    BreakerState::Closed => 0.0,
                    BreakerState::HalfOpen => 1.0,
                    BreakerState::Open => 2.0,
                },
            );
        }
    }
}

/// One bounded attempt against one endpoint, recording its breaker and
/// health flags. Used from detached worker threads, so it takes owned
/// handles.
fn attempt_owned(ep: &Endpoint, req: &Request, cfg: &ResilientConfig) -> Outcome {
    let result = (|| -> Result<Reply> {
        let mut client = Client::connect_timeout(ep.addr, cfg.connect_timeout)?;
        client.set_read_timeout(Some(cfg.read_timeout))?;
        client.request(req)
    })();
    let now = Instant::now();
    match result {
        Ok(reply) => {
            ep.note_reply(&reply);
            ep.breaker.lock().record_success();
            match reply {
                Reply::Overloaded { retry_after_ms, .. } => Outcome::Overloaded(retry_after_ms),
                other => Outcome::Reply(other),
            }
        }
        Err(e) => {
            ep.breaker.lock().record_failure(now);
            Outcome::Failed(e)
        }
    }
}
