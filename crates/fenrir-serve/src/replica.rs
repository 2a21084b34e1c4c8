//! Replica groups: N servers over one journal.
//!
//! A [`ReplicaSet`] starts `n` independent [`Server`]s, each with its
//! **own** [`ModeStore`] opened read-only over the same journal path
//! and its own ephemeral listener. Replicas share nothing at runtime —
//! no locks, no common snapshot — so one replica losing its journal
//! tail, degrading to a stale epoch, or being stopped outright never
//! touches the others. Health replies carry the replica id plus that
//! replica's epoch and stale flag, which is exactly what the
//! [`crate::resilient::ResilientClient`] uses to steer away from the
//! unhealthy member.
//!
//! Because each replica reloads independently, their epochs can skew
//! transiently while the journal grows; answers stay bit-identical for
//! any query both epochs can answer (snapshots store journaled floats
//! verbatim), which is what makes hedging across replicas safe.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fenrir_core::error::{Error, Result};
use fenrir_data::storage::{RetryPolicy, Storage};

use crate::client::Client;
use crate::protocol::{AdminCmd, Reply, Request};
use crate::server::{ServeConfig, Server};
use crate::store::ModeStore;

/// One member of a [`ReplicaSet`].
struct Replica {
    server: Option<Server>,
    store: Arc<ModeStore>,
    addr: SocketAddr,
}

/// A group of independent servers over the same journal.
pub struct ReplicaSet {
    path: PathBuf,
    replicas: Vec<Replica>,
    admin_token: Option<String>,
}

impl ReplicaSet {
    /// Open `journal` once per replica and start `n` servers. Each
    /// replica gets `cfg` with its own ephemeral bind address and its
    /// index as the replica id; `cfg.addr` is ignored (replicas cannot
    /// share a port).
    pub fn start(journal: &Path, n: usize, cfg: ServeConfig) -> Result<Self> {
        Self::start_with(journal.to_path_buf(), n, cfg, || ModeStore::open(journal))
    }

    /// Start `n` servers that hydrate from an object tier instead of a
    /// local journal file. Each replica gets its own
    /// [`ModeStore::open_tiered`] over the shared `store` handle and
    /// polls the tier manifest for newer sealed epochs; an unreachable
    /// tier degrades that replica to its last-good epoch (stale) rather
    /// than stopping it. [`ReplicaSet::journal`] reports the tier
    /// prefix for a tiered set.
    pub fn start_tiered(
        store: Arc<dyn Storage>,
        prefix: &str,
        retry: RetryPolicy,
        n: usize,
        cfg: ServeConfig,
    ) -> Result<Self> {
        Self::start_with(PathBuf::from(prefix), n, cfg, || {
            ModeStore::open_tiered(Arc::clone(&store), prefix, retry.clone())
        })
    }

    /// Start `n` servers, each over its own store from `open`.
    fn start_with(
        path: PathBuf,
        n: usize,
        cfg: ServeConfig,
        open: impl Fn() -> Result<ModeStore>,
    ) -> Result<Self> {
        if n == 0 {
            return Err(Error::Config {
                name: "replicas",
                message: "need at least one replica".into(),
            });
        }
        let mut replicas = Vec::with_capacity(n);
        for i in 0..n {
            let store = Arc::new(open()?);
            let server = Server::start(
                Arc::clone(&store),
                ServeConfig {
                    addr: "127.0.0.1:0".into(),
                    replica: i as u64,
                    ..cfg.clone()
                },
            )?;
            let addr = server.addr();
            replicas.push(Replica {
                server: Some(server),
                store,
                addr,
            });
        }
        Ok(ReplicaSet {
            path,
            replicas,
            admin_token: cfg.admin_token,
        })
    }

    /// The journal every replica serves.
    pub fn journal(&self) -> &Path {
        &self.path
    }

    /// How many replicas were started (stopped ones still count —
    /// indices are stable for the set's lifetime).
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Whether the set is empty (never true for a started set).
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// The bound addresses, in replica order. Stopped replicas keep
    /// their (now-dead) address so indices stay aligned.
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.replicas.iter().map(|r| r.addr).collect()
    }

    /// Replica `i`'s store (its epoch, stale flag, and counters remain
    /// readable after the replica is stopped).
    pub fn store(&self, i: usize) -> &Arc<ModeStore> {
        &self.replicas[i].store
    }

    /// Whether replica `i` is still serving.
    pub fn is_running(&self, i: usize) -> bool {
        self.replicas[i].server.is_some()
    }

    /// Replica `i`'s HTTP metrics endpoint, when the set was started
    /// with [`ServeConfig::metrics_addr`] (each replica binds its own
    /// ephemeral port) and the replica still runs.
    pub fn metrics_addr(&self, i: usize) -> Option<SocketAddr> {
        self.replicas[i].server.as_ref()?.metrics_addr()
    }

    /// Send one admin command to replica `i` using the token the set
    /// was started with. Errors if the set has no admin token or the
    /// replica was stopped; an `Error`/`Unauthorized` *reply* is
    /// returned as-is so callers can assert on it.
    pub fn admin(&self, i: usize, cmd: AdminCmd) -> Result<Reply> {
        let token = self.admin_token.clone().ok_or(Error::Config {
            name: "admin_token",
            message: "this replica set was started without an admin token".into(),
        })?;
        if !self.is_running(i) {
            return Err(Error::Internal {
                what: "replica admin",
                message: format!("replica {i} is stopped"),
            });
        }
        let mut client = Client::connect(self.replicas[i].addr)?;
        client.request(&Request::Admin { token, cmd })
    }

    /// Drain replica `i`: it stops admitting queries (sheds with
    /// `Overloaded`) and slot-holding connections close after their
    /// current burst, while control frames keep working.
    pub fn drain(&self, i: usize) -> Result<Reply> {
        self.admin(i, AdminCmd::Drain)
    }

    /// Undo a [`ReplicaSet::drain`]: replica `i` admits queries again.
    pub fn undrain(&self, i: usize) -> Result<Reply> {
        self.admin(i, AdminCmd::Undrain)
    }

    /// Drain replica `i`, wait (by polling slot-exempt `Stats`) until
    /// its in-flight count reaches zero, then stop it. This is the
    /// deliberate-failover path: no query is dropped mid-computation,
    /// unlike stopping a busy replica outright.
    pub fn drain_and_stop(&mut self, i: usize, timeout: Duration) -> Result<()> {
        match self.drain(i)? {
            Reply::Admin { .. } => {}
            other => {
                return Err(Error::Internal {
                    what: "replica drain",
                    message: format!("drain refused: {other:?}"),
                })
            }
        }
        let deadline = Instant::now() + timeout;
        // A fresh connection under drain never gets a slot, so this
        // poller observes inflight without inflating it. Its reads are
        // bounded by the caller's timeout: a stalled stats reply must
        // surface as a typed error, not hang the failover.
        let mut client = Client::connect(self.replicas[i].addr)?;
        client.set_read_timeout(Some(timeout))?;
        loop {
            match client.request(&Request::Stats)? {
                Reply::Stats(s) if s.inflight == 0 => break,
                Reply::Stats(_) => {}
                other => {
                    return Err(Error::Internal {
                        what: "replica drain",
                        message: format!("stats poll got {other:?}"),
                    })
                }
            }
            if Instant::now() >= deadline {
                return Err(Error::Internal {
                    what: "replica drain",
                    message: format!("replica {i} still has queries in flight after {timeout:?}"),
                });
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        self.stop(i);
        Ok(())
    }

    /// Stop replica `i` (drain and join its threads), leaving the rest
    /// of the set serving. Idempotent.
    pub fn stop(&mut self, i: usize) {
        if let Some(server) = self.replicas[i].server.take() {
            server.shutdown();
        }
    }

    /// Stop every replica still running.
    pub fn shutdown(mut self) {
        for i in 0..self.replicas.len() {
            self.stop(i);
        }
    }
}
