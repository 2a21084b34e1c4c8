//! Fenced leader failover for streaming ingest.
//!
//! A [`ReplicatedIngestor`] is one node of a replicated write path
//! whose shared truth lives entirely in the object tier: a [`Lease`]
//! object electing the leader, a [`FencedWal`] holding every acked
//! observation, and the sealed [`TieredJournal`] epochs. A node's
//! local disk holds only its hot tail — losing a node loses nothing
//! that was ever acked.
//!
//! ## The ack contract
//!
//! The leader accepts a `Submit` only after the observation is in the
//! WAL (its head CAS is the linearization point) *and* folded into the
//! journaled pipeline. A crash between the two leaves the observation
//! in the WAL, where the next leader's replay recovers it — so a
//! `SubmitAck { Accepted }` is never lost, and the client's retry of
//! an in-doubt submit earns a `Duplicate` ack from whoever leads next.
//!
//! ## Fencing
//!
//! Every epoch of leadership carries a fencing epoch from the lease,
//! monotonically increasing by one per holder change. The epoch is
//! stamped on the WAL head and the tier manifest at takeover; every
//! later WAL append, tiered seal, and manifest commit is conditional
//! on it. A deposed leader — paused, partitioned, or just slow to
//! notice — has its first conflicting write refused with
//! [`Error::Fenced`], at which point it steps down to standby and
//! redirects clients. Wall clocks never arbitrate: the lease TTL only
//! schedules *when* a takeover is attempted; the CAS epoch decides
//! *who won*.
//!
//! ## Takeover
//!
//! Promotion runs: acquire the lease (epoch `e`) → claim the WAL under
//! `e` → hydrate the analysis state from the sealed tier → stamp `e`
//! on the tier manifest → replay the WAL suffix beyond the hydrated
//! prefix through the normal fold path → serve. Replayed transitions
//! enter the announce history (resuming subscribers replay them) but
//! are never re-broadcast — history is never announced twice.

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use fenrir_core::error::{Error, Result};
use fenrir_core::health::CampaignHealth;
use fenrir_core::ids::SiteTable;
use fenrir_data::storage::{FencedWal, Lease, ObsRecord, RetryPolicy, Storage};
use fenrir_serve::sync::Mutex;
use fenrir_serve::{Reply, StreamEvent, StreamHandler};

use crate::ingest::{submit_reply, StreamConfig, StreamIngestor};
use crate::metrics::FailoverMetrics;

#[allow(unused_imports)] // doc links
use fenrir_data::storage::TieredJournal;

/// A millisecond clock. Injected so chaos suites replay
/// deterministically — production nodes pass [`wall_clock`].
pub type Clock = Arc<dyn Fn() -> u64 + Send + Sync>;

/// The system clock, for production deployments.
pub fn wall_clock() -> Clock {
    Arc::new(|| {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64)
    })
}

/// Everything one replicated node needs besides the store and clock.
#[derive(Debug, Clone)]
pub struct ReplicatedConfig {
    /// This node's local hot-tail path.
    pub hot_path: PathBuf,
    /// The shared tier prefix (journal epochs, manifest, lease, WAL).
    pub prefix: String,
    /// Retry policy for every tier operation.
    pub retry: RetryPolicy,
    /// Site table for the analysis pipeline.
    pub sites: SiteTable,
    /// Vantage points per observation.
    pub networks: usize,
    /// Analysis configuration (pipeline, adaptive threshold, trust).
    pub stream: StreamConfig,
    /// This node's advertised address. Doubles as its lease identity,
    /// so a standby's lease view *is* the redirect hint it serves.
    pub advertise: String,
    /// Lease term: a leader renews within it, a standby takes over
    /// after it lapses.
    pub lease_ttl_ms: u64,
}

/// What a node currently is. The leader's durable machinery lives in
/// its role — stepping down drops the WAL handle and the pipeline, so
/// a deposed leader cannot even try to write.
enum Role {
    Standby,
    Leader {
        epoch: u64,
        wal: FencedWal,
        ingestor: Arc<StreamIngestor>,
    },
}

impl std::fmt::Debug for Role {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Role::Standby => f.write_str("Standby"),
            Role::Leader { epoch, .. } => f.debug_struct("Leader").field("epoch", epoch).finish(),
        }
    }
}

struct Node {
    lease: Lease,
    role: Role,
}

/// One node of the replicated ingest path. Implements
/// [`StreamHandler`], so it plugs into
/// [`fenrir_serve::Server::start_with_stream`] exactly like a plain
/// [`StreamIngestor`] — a standby answers every `Submit` with
/// [`Reply::NotLeader`] and its best redirect hint.
pub struct ReplicatedIngestor {
    store: Arc<dyn Storage>,
    cfg: ReplicatedConfig,
    clock: Clock,
    node: Mutex<Node>,
    metrics: FailoverMetrics,
}

impl std::fmt::Debug for ReplicatedIngestor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicatedIngestor")
            .field("advertise", &self.cfg.advertise)
            .field("role", &self.node.lock().role)
            .finish()
    }
}

impl ReplicatedIngestor {
    /// A node in standby. Nothing is read or written until the first
    /// [`ReplicatedIngestor::tick`].
    pub fn new(
        store: Arc<dyn Storage>,
        cfg: ReplicatedConfig,
        clock: Clock,
    ) -> Result<ReplicatedIngestor> {
        let lease = Lease::new(
            Arc::clone(&store),
            &cfg.prefix,
            cfg.advertise.clone(),
            cfg.retry.clone(),
        )?;
        Ok(ReplicatedIngestor {
            store,
            cfg,
            clock,
            node: Mutex::new(Node {
                lease,
                role: Role::Standby,
            }),
            metrics: FailoverMetrics::new(),
        })
    }

    fn now(&self) -> u64 {
        (self.clock)()
    }

    /// Drive the lease once: a standby tries to take over, a leader
    /// renews (and steps down if it cannot). Call this on a timer —
    /// any period comfortably under `lease_ttl_ms` — or explicitly
    /// from a chaos harness. Returns whether this node leads after
    /// the tick.
    pub fn tick(&self) -> Result<bool> {
        let now = self.now();
        let mut node = self.node.lock();
        match &node.role {
            Role::Leader { .. } => {
                if node.lease.renew(now, self.cfg.lease_ttl_ms)? {
                    Ok(true)
                } else {
                    self.step_down(&mut node);
                    Ok(false)
                }
            }
            Role::Standby => match node.lease.acquire(now, self.cfg.lease_ttl_ms)? {
                Some(epoch) => match self.promote(&mut node, epoch) {
                    Ok(()) => Ok(true),
                    Err(e) => {
                        // A lost race (someone fenced past us mid-
                        // takeover) is a normal election outcome, not
                        // a fault; anything else propagates.
                        self.step_down(&mut node);
                        match e {
                            Error::Fenced { .. } => {
                                self.metrics.fenced_rejects.inc();
                                Ok(false)
                            }
                            other => Err(other),
                        }
                    }
                },
                None => Ok(false),
            },
        }
    }

    /// Whether this node currently leads.
    pub fn is_leader(&self) -> bool {
        matches!(self.node.lock().role, Role::Leader { .. })
    }

    /// The fencing epoch held while leading.
    pub fn fence_epoch(&self) -> Option<u64> {
        match &self.node.lock().role {
            Role::Leader { epoch, .. } => Some(*epoch),
            Role::Standby => None,
        }
    }

    /// The leader's pipeline, while leading. Chaos suites use this to
    /// fingerprint state; a standby has no analysis state to show.
    pub fn ingestor(&self) -> Option<Arc<StreamIngestor>> {
        match &self.node.lock().role {
            Role::Leader { ingestor, .. } => Some(Arc::clone(ingestor)),
            Role::Standby => None,
        }
    }

    /// Leadership/failover instruments; bind into a registry with
    /// [`FailoverMetrics::bind`].
    pub fn metrics(&self) -> &FailoverMetrics {
        &self.metrics
    }

    /// Release the lease (clean handover: the next claimant need not
    /// wait out the TTL) and step down.
    pub fn resign(&self) -> Result<()> {
        let now = self.now();
        let mut node = self.node.lock();
        if matches!(node.role, Role::Leader { .. }) {
            self.step_down(&mut node);
            node.lease.release(now)?;
        }
        Ok(())
    }

    /// Seal the leader's delta tail into the tier, then raise the WAL
    /// floor past everything sealed — the records below it are
    /// tier-durable twice over and only cost takeover replay time.
    pub fn compact(&self) -> Result<()> {
        let mut node = self.node.lock();
        let Role::Leader { wal, ingestor, .. } = &mut node.role else {
            return Err(Error::InvalidParameter {
                name: "compact",
                message: "only the leader can seal the shared tier".into(),
            });
        };
        ingestor.compact()?;
        let sealed = ingestor.observations();
        wal.truncate_to(sealed)
    }

    /// Promote to leader under `epoch`: claim the WAL, hydrate from
    /// the sealed tier, stamp the fence, replay the acked WAL suffix,
    /// and only then serve.
    fn promote(&self, node: &mut Node, epoch: u64) -> Result<()> {
        let wal = FencedWal::open(
            Arc::clone(&self.store),
            &self.cfg.prefix,
            self.cfg.retry.clone(),
            epoch,
        )?;
        let ingestor = StreamIngestor::open_tiered(
            &self.cfg.hot_path,
            Arc::clone(&self.store),
            &self.cfg.prefix,
            self.cfg.retry.clone(),
            self.cfg.sites.clone(),
            self.cfg.networks,
            self.cfg.stream.clone(),
        )?;
        ingestor.set_fence_epoch(epoch)?;
        // The hydrated prefix (sealed epochs + any surviving local hot
        // tail) ends below the WAL head whenever the old leader acked
        // past its last seal — or died between the WAL advance and its
        // own fold. Replay closes the gap through the identical fold
        // path, so the resulting state is bit-equal to the acked
        // history folded in order.
        let have = ingestor.observations();
        for rec in wal.replay(have)? {
            ingestor.replay_observation(rec.time, &rec.codes, rec.health)?;
        }
        node.role = Role::Leader {
            epoch,
            wal,
            ingestor: Arc::new(ingestor),
        };
        self.metrics.takeovers.inc();
        self.metrics.is_leader.store(1, Ordering::Relaxed);
        self.metrics.fence_epoch.store(epoch, Ordering::Relaxed);
        Ok(())
    }

    fn step_down(&self, node: &mut Node) {
        if matches!(node.role, Role::Leader { .. }) {
            self.metrics.step_downs.inc();
        }
        node.role = Role::Standby;
        self.metrics.is_leader.store(0, Ordering::Relaxed);
    }

    /// The best redirect hint this node can give: the lease record's
    /// holder, which is the leader's advertised address — unless the
    /// record is expired or names this node itself. A freshly deposed
    /// leader's last observation is its *own* dead claim, so a useless
    /// view is re-read once from the store before giving up.
    fn leader_hint(&self, node: &mut Node) -> Option<String> {
        let useless = |rec: Option<&fenrir_data::storage::LeaseRecord>, now: u64| match rec {
            Some(rec) => rec.holder == self.cfg.advertise || !rec.is_live_at(now),
            None => true,
        };
        let now = self.now();
        if useless(node.lease.observed_record(), now) {
            // Best effort only: a failed read just means no hint, and
            // the client falls back to rotating its candidate list.
            let _ = node.lease.observe();
        }
        let rec = node.lease.observed_record()?;
        if useless(Some(rec), now) {
            return None;
        }
        Some(rec.holder.clone())
    }

    fn not_leader(&self, node: &mut Node) -> Reply {
        self.metrics.not_leader.inc();
        Reply::NotLeader {
            hint: self.leader_hint(node),
        }
    }
}

impl StreamHandler for ReplicatedIngestor {
    fn submit(
        &self,
        seq: u64,
        time: i64,
        codes: &[u16],
        health: CampaignHealth,
    ) -> (Reply, Vec<StreamEvent>) {
        let mut node = self.node.lock();
        let Role::Leader { wal, ingestor, .. } = &mut node.role else {
            return (self.not_leader(&mut node), Vec::new());
        };
        // The WAL append sits between the ingestor's checks and its
        // fold: its head CAS is the ack linearization point, and it
        // doubles as the deposition check. A fence refusal there, or
        // mid-fold (a tiered seal lost to a successor), means another
        // leader exists, so step down and redirect. A row refused
        // mid-fold is already WAL-durable: the successor's replay owns
        // it, and the client's retry earns a Duplicate ack there.
        let result = ingestor.submit_durable(seq, time, codes, health, |health| {
            let rec = ObsRecord {
                time,
                codes: codes.to_vec(),
                health: health.clone(),
            };
            wal.append(&rec).map(|_| ())
        });
        if let Err(Error::Fenced { .. }) = result {
            self.metrics.fenced_rejects.inc();
            self.step_down(&mut node);
            return (self.not_leader(&mut node), Vec::new());
        }
        submit_reply(seq, result)
    }

    fn boundary_count(&self) -> u64 {
        match &self.node.lock().role {
            Role::Leader { ingestor, .. } => ingestor.boundary_count(),
            Role::Standby => 0,
        }
    }

    fn events_since(&self, from: u64) -> Vec<StreamEvent> {
        match &self.node.lock().role {
            Role::Leader { ingestor, .. } => StreamHandler::events_since(ingestor.as_ref(), from),
            Role::Standby => Vec::new(),
        }
    }
}
