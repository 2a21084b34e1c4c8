//! The stream ingestor: durable sequenced ingest plus live mode
//! discovery.
//!
//! [`StreamIngestor`] is the serve fleet's write path. Each accepted
//! `Submit` frame is appended to a [`RecoverablePipeline`] journal —
//! `fsync`ed *before* the ack leaves the server — and folded into the
//! live analysis state through the exact entry points the batch
//! pipeline uses ([`SimilarityMatrix::extend`], whose empty-matrix case
//! is [`SimilarityMatrix::compute`], then [`Dendrogram::build`] and
//! [`AdaptiveThreshold::choose`]), so after any prefix of submissions
//! the streamed matrix, merge tree, threshold and mode labels are
//! bit-identical to a batch recomputation over the same observations —
//! including across a kill/restart at any frame boundary, since a
//! restart decodes the Φ rows each observation's frame carries.
//!
//! ## Sequencing
//!
//! The next expected sequence number is always the journal's
//! observation count. `seq` below it is a [`SubmitOutcome::Duplicate`]
//! (the at-least-once retry path: ack again, apply nothing); above it
//! is a [`SubmitOutcome::Gap`] naming the expected number (nothing is
//! journaled, so a lost frame can never leave a hole).
//!
//! ## Transition detection
//!
//! After each accepted fold the adaptive sweep re-derives the mode
//! labels, and the new labeling's *boundary set* — the positions where
//! consecutive observations change mode — is diffed against the
//! previous step's. Each newly appeared boundary is announced as a
//! [`StreamEvent::ModeTransition`]. Comparing boundary positions
//! rather than raw labels makes detection immune to cluster-id
//! renumbering, and tolerates the chooser's minimum-cluster-size
//! guard: a regime change is credited the moment the nascent mode is
//! big enough to stand (typically one frame after it opens), with the
//! event's `seq` naming the observation that opened it.
//!
//! ## Trust weighting
//!
//! With a [`TrustConfig`] installed, every accepted row first passes
//! through a [`TrustModel`] fold. Trust never rewrites the stored codes
//! or the Φ weights — that would fork the stream from its batch twin —
//! it only (a) stamps the health record's `distrusted` count before the
//! row is journaled and (b) annotates emitted transitions: `trusted`
//! is whether the boundary's own step (from the observation before it
//! to the one that opened it) excluded no vantage point, and `step_phi`
//! is that step's similarity under its trust-adjusted weights. Each
//! step is priced when it is folded, so a transition discovered a fold
//! or more later still carries its own step's values. On restart the
//! model and the step prices are rebuilt by replaying the journaled
//! series, so they are as durable as the observations themselves.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use fenrir_core::cluster::AdaptiveThreshold;
use fenrir_core::error::{Error, Result};
use fenrir_core::health::CampaignHealth;
use fenrir_core::ids::SiteTable;
use fenrir_core::similarity::{self, UnknownPolicy};
use fenrir_core::time::Timestamp;
use fenrir_core::trust::{TrustConfig, TrustModel};
use fenrir_core::vector::{RoutingVector, CODE_ERR, CODE_UNKNOWN};
use fenrir_core::weight::Weights;
use fenrir_data::journal::{PipelineConfig, RecoverablePipeline};
use fenrir_data::storage::{RetryPolicy, Storage};
use fenrir_serve::protocol::{ERR_BAD_REQUEST, ERR_INTERNAL};
use fenrir_serve::sync::Mutex;
use fenrir_serve::{Reply, StreamEvent, StreamHandler, SubmitOutcome};

use crate::metrics::StreamMetrics;

#[allow(unused_imports)] // doc links
use fenrir_core::cluster::Dendrogram;
#[allow(unused_imports)] // doc links
use fenrir_core::similarity::SimilarityMatrix;

/// Whether a vantage point's code counts as a real answer for trust
/// scoring (unknown and error cells carry no routing claim to lie
/// about).
fn vp_known(c: u16) -> bool {
    c != CODE_UNKNOWN && c != CODE_ERR
}

/// Everything a [`StreamIngestor`] needs besides the journal location.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Analysis parameters the journal is bound to (weights, unknown
    /// policy, linkage, seal cadence).
    pub pipeline: PipelineConfig,
    /// Optional byzantine-resilience fold applied to each accepted row
    /// before journaling. `None` trusts every vantage point.
    pub trust: Option<TrustConfig>,
}

impl StreamConfig {
    /// Paper-default analysis over `networks` vantage points, no trust
    /// fold.
    pub fn new(networks: usize) -> Self {
        StreamConfig {
            pipeline: PipelineConfig::new(networks),
            trust: None,
        }
    }

    /// Install a trust fold.
    pub fn with_trust(mut self, trust: TrustConfig) -> Self {
        self.trust = Some(trust);
        self
    }
}

/// The live analysis state in `f64::to_bits` form: what the
/// equivalence bar compares. Two states are equal iff every Φ cell,
/// every merge, the chosen threshold and the flat mode labels match
/// bit-for-bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateBits {
    /// Observations folded so far.
    pub observations: usize,
    /// Condensed Φ matrix, cell by cell.
    pub matrix: Vec<u64>,
    /// Merge tree: `(a, b, distance bits, size)` per merge.
    pub merges: Vec<(usize, usize, u64, usize)>,
    /// Chosen adaptive threshold.
    pub threshold: u64,
    /// Flat mode labels at that threshold.
    pub labels: Vec<usize>,
    /// Cluster count at that threshold.
    pub clusters: usize,
}

/// Flatten a pipeline's derived state, with modes at the paper's
/// adaptive threshold rule, to comparable bits. An empty pipeline
/// yields the empty state (zero observations, no cells).
pub fn state_bits(pipe: &RecoverablePipeline) -> Result<StateBits> {
    let n = pipe.series().len();
    if n == 0 {
        return Ok(StateBits {
            observations: 0,
            matrix: Vec::new(),
            merges: Vec::new(),
            threshold: 0,
            labels: Vec::new(),
            clusters: 0,
        });
    }
    let matrix = pipe
        .matrix()
        .ok_or(Error::EmptyInput("similarity matrix"))?;
    let dendro = pipe.dendrogram().ok_or(Error::EmptyInput("dendrogram"))?;
    let choice = AdaptiveThreshold::default().choose(dendro)?;
    Ok(StateBits {
        observations: n,
        matrix: matrix.raw().iter().map(|v| v.to_bits()).collect(),
        merges: dendro
            .merges()
            .iter()
            .map(|m| (m.a, m.b, m.distance.to_bits(), m.size))
            .collect(),
        threshold: choice.threshold.to_bits(),
        labels: choice.labels,
        clusters: choice.clusters,
    })
}

/// Positions where consecutive observations change mode: `b` is a
/// boundary iff `labels[b] != labels[b - 1]`. Boundary *positions* are
/// stable under cluster-id permutation, which raw labels are not —
/// comparing label vectors across steps would misfire every time the
/// chooser renumbers clusters.
fn mode_boundaries(labels: &[usize]) -> Vec<usize> {
    (1..labels.len())
        .filter(|&i| labels[i] != labels[i - 1])
        .collect()
}

/// The trust fold: the model, and every folded step priced under its
/// own verdicts.
struct Trust {
    model: TrustModel,
    /// `(step_phi, trusted)` of each step: entry `i - 1` prices the step
    /// from observation `i - 1` to observation `i`.
    steps: Vec<(f64, bool)>,
}

impl Trust {
    /// Price the step the model just observed, from `a` to `b`. A step
    /// that excluded every vantage point falls back to the base weights:
    /// zero total weight cannot price a step.
    fn price(
        &mut self,
        a: &RoutingVector,
        b: &RoutingVector,
        base: &Weights,
        policy: UnknownPolicy,
    ) {
        let (p, _) = self.model.step_phi(a, b, base, policy);
        let p = p.unwrap_or_else(|| similarity::phi(a, b, base, policy));
        self.steps.push((p, self.model.step_excluded_count() == 0));
    }
}

/// The fold's bookkeeping beside the pipeline.
struct Inner {
    trust: Option<Trust>,
    /// The previous step's mode boundaries; the diff against the
    /// current step's is exactly the set of transitions to announce.
    boundaries: Vec<usize>,
    /// Boundaries that predate this ingestor's announce history: the
    /// journaled prefix at attach. A subscriber resuming from below
    /// this gets an in-band `Lagged` marker, never a re-announcement.
    announced_base: u64,
    /// Every transition announced since attach, in announce order —
    /// the replay source for resuming subscribers. Boundary index `i`
    /// (for `i >= announced_base`) is `announced[i - announced_base]`.
    announced: Vec<StreamEvent>,
}

impl Inner {
    /// Lifetime boundary count: journaled history plus everything
    /// announced since attach.
    fn boundary_count(&self) -> u64 {
        self.announced_base + self.announced.len() as u64
    }
}

/// Durable, sequenced, trust-aware streaming ingest over one pipeline
/// journal. Implements [`StreamHandler`], so an `Arc<StreamIngestor>`
/// plugs straight into [`fenrir_serve::Server::start_with_stream`].
///
/// The pipeline sits behind its own lock, outside the fold's
/// bookkeeping, so a query store can share it: a fold takes `inner`,
/// then the pipeline; a store reading the pipeline takes only the
/// pipeline's lock.
pub struct StreamIngestor {
    inner: Mutex<Inner>,
    pipe: Arc<Mutex<RecoverablePipeline>>,
    base: Weights,
    policy: UnknownPolicy,
    trust_cfg: Option<TrustConfig>,
    metrics: StreamMetrics,
}

impl std::fmt::Debug for StreamIngestor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamIngestor")
            .field("observations", &self.observations())
            .field("networks", &self.base.len())
            .field("trust", &self.trust_cfg.is_some())
            .finish()
    }
}

impl StreamIngestor {
    /// A fresh in-memory ingestor (tests, benches).
    pub fn in_memory(sites: SiteTable, networks: usize, cfg: StreamConfig) -> Result<Self> {
        let pipe = RecoverablePipeline::in_memory(sites, networks, cfg.pipeline.clone())?;
        Self::attach(pipe, cfg)
    }

    /// Open (or create) a file-backed ingestor. Recovery restores the
    /// analysis state from the journal's clean frame prefix and replays
    /// the series through a fresh trust model, so a restarted ingestor
    /// resumes exactly where the durable prefix ends.
    pub fn open(path: &Path, sites: SiteTable, networks: usize, cfg: StreamConfig) -> Result<Self> {
        let pipe = RecoverablePipeline::open(path, sites, networks, cfg.pipeline.clone())?;
        Self::attach(pipe, cfg)
    }

    /// Open (or create) a tiered ingestor: hot tail at `hot_path`,
    /// sealed epochs under `prefix` in the object tier.
    pub fn open_tiered(
        hot_path: &Path,
        store: Arc<dyn Storage>,
        prefix: &str,
        retry: RetryPolicy,
        sites: SiteTable,
        networks: usize,
        cfg: StreamConfig,
    ) -> Result<Self> {
        let pipe = RecoverablePipeline::open_tiered(
            hot_path,
            store,
            prefix,
            retry,
            sites,
            networks,
            cfg.pipeline.clone(),
        )?;
        Self::attach(pipe, cfg)
    }

    fn attach(pipe: RecoverablePipeline, cfg: StreamConfig) -> Result<Self> {
        let base = pipe.config().weights.clone();
        let policy = pipe.config().policy;
        let trust = Self::replay_trust(&pipe, cfg.trust, &base, policy)?;
        // Recompute the boundary set from the journaled prefix so a
        // restarted ingestor announces only boundaries discovered
        // *after* the restart, never the history again.
        let boundaries = match pipe.dendrogram() {
            Some(d) if pipe.series().len() >= 2 => {
                mode_boundaries(&AdaptiveThreshold::default().choose(d)?.labels)
            }
            _ => Vec::new(),
        };
        Ok(StreamIngestor {
            inner: Mutex::new(Inner {
                trust,
                announced_base: boundaries.len() as u64,
                announced: Vec::new(),
                boundaries,
            }),
            pipe: Arc::new(Mutex::new(pipe)),
            base,
            policy,
            trust_cfg: cfg.trust,
            metrics: StreamMetrics::new(),
        })
    }

    /// Build a trust fold whose window state and step prices are the
    /// fold of the journaled series — recovery and crash-repair share
    /// this.
    fn replay_trust(
        pipe: &RecoverablePipeline,
        cfg: Option<TrustConfig>,
        base: &Weights,
        policy: UnknownPolicy,
    ) -> Result<Option<Trust>> {
        let Some(tc) = cfg else { return Ok(None) };
        let series = pipe.series();
        let mut trust = Trust {
            model: TrustModel::new(tc, base, None)?,
            steps: Vec::with_capacity(series.len().saturating_sub(1)),
        };
        for i in 0..series.len() {
            trust.model.observe(series.get(i).codes(), vp_known)?;
            if i > 0 {
                trust.price(series.get(i - 1), series.get(i), base, policy);
            }
        }
        Ok(Some(trust))
    }

    /// Observations journaled so far — also the next expected sequence
    /// number.
    pub fn observations(&self) -> u64 {
        self.pipe.lock().series().len() as u64
    }

    /// The sequence number the next `Submit` must carry.
    pub fn expected_seq(&self) -> u64 {
        self.observations()
    }

    /// Vantage points currently quarantined by the trust fold (0
    /// without trust).
    pub fn quarantined(&self) -> usize {
        self.inner
            .lock()
            .trust
            .as_ref()
            .map_or(0, |t| t.model.quarantined_count())
    }

    /// This ingestor's always-on instrument set (see
    /// [`StreamMetrics`]); [`Self::bind_metrics`] exports it.
    pub fn metrics(&self) -> &StreamMetrics {
        &self.metrics
    }

    /// Export the ingestor's instruments into a registry — typically
    /// the serving fleet's, right after
    /// [`fenrir_serve::Server::start_with_stream`].
    pub fn bind_metrics(&self, registry: &fenrir_obs::Registry) {
        self.metrics.bind(registry);
    }

    /// Snapshot the live analysis state as comparable bits.
    pub fn state_bits(&self) -> Result<StateBits> {
        state_bits(&self.pipe.lock())
    }

    /// The pipeline the fold writes, for a query store to serve.
    pub(crate) fn pipeline(&self) -> &Arc<Mutex<RecoverablePipeline>> {
        &self.pipe
    }

    /// Seal a tiered journal's observations into the object tier. A
    /// flat journal holds each observation once and only grows, so
    /// there this does nothing.
    pub fn compact(&self) -> Result<()> {
        self.pipe.lock().compact()
    }

    /// Lifetime boundary count (see [`StreamHandler::boundary_count`]).
    pub fn boundary_count(&self) -> u64 {
        self.inner.lock().boundary_count()
    }

    /// Stamp a fencing epoch on the tiered backend: every later seal
    /// and manifest commit carries it, so a deposed leader's writes are
    /// refused by the tier. Errors on a non-tiered journal — fencing
    /// without a shared tier would protect nothing.
    pub fn set_fence_epoch(&self, epoch: u64) -> Result<()> {
        match self.pipe.lock().tier_mut() {
            Some(tier) => tier.set_fence_epoch(epoch),
            None => Err(Error::InvalidParameter {
                name: "fence epoch",
                message: "fencing requires a tiered journal".into(),
            }),
        }
    }

    /// Re-apply one write-ahead-logged observation through the normal
    /// fold path. Used by a new leader replaying its predecessor's
    /// acked suffix: the fold is identical to a live submit — journal,
    /// trust, boundary diff — and discovered transitions enter the
    /// announce history (resuming subscribers replay them), but nothing
    /// is broadcast, because nothing is being submitted *now*.
    pub fn replay_observation(
        &self,
        time: i64,
        codes: &[u16],
        health: CampaignHealth,
    ) -> Result<()> {
        let mut inner = self.inner.lock();
        if codes.len() != self.base.len() {
            return Err(Error::InvalidParameter {
                name: "replayed codes",
                message: format!(
                    "observation carries {} codes, stream expects {}",
                    codes.len(),
                    self.base.len()
                ),
            });
        }
        self.fold(&mut inner, time, codes, health).map(|_| ())
    }

    fn fold(
        &self,
        inner: &mut Inner,
        time: i64,
        codes: &[u16],
        mut health: CampaignHealth,
    ) -> Result<(SubmitOutcome, Vec<StreamEvent>)> {
        if let Some(t) = &mut inner.trust {
            t.model.observe(codes, vp_known)?;
            health.distrusted = t.model.step_excluded_count();
        }
        let v = RoutingVector::from_codes(Timestamp::from_secs(time), codes.to_vec());
        let mut pipe = self.pipe.lock();
        if let Err(e) = pipe.observe(v, health) {
            // The trust window already advanced for a row that never
            // became durable; re-fold it from the journal so the model
            // stays a pure function of the journaled series.
            inner.trust = Self::replay_trust(&pipe, self.trust_cfg, &self.base, self.policy)?;
            return Err(e);
        }
        let n = pipe.series().len();
        if let Some(t) = inner.trust.as_mut().filter(|_| n >= 2) {
            let (before, row) = (pipe.series().get(n - 2), pipe.series().get(n - 1));
            t.price(before, row, &self.base, self.policy);
        }
        let mut events = Vec::new();
        let mut transitions = 0u32;
        if n >= 2 {
            let dendro = pipe.dendrogram().ok_or(Error::EmptyInput("dendrogram"))?;
            let choice = AdaptiveThreshold::default().choose(dendro)?;
            let bounds = mode_boundaries(&choice.labels);
            for &b in &bounds {
                // Only *newly discovered* boundaries are transitions;
                // the rest were announced on an earlier step. A nascent
                // mode clears the chooser's minimum-cluster-size guard
                // one frame after it opens, so `b` trails `seq` by up
                // to that discovery lag.
                if inner.boundaries.contains(&b) {
                    continue;
                }
                let opened = pipe.series().get(b);
                // The boundary's own step, as it was priced when folded.
                let (step_phi, trusted) = match &inner.trust {
                    Some(t) => t.steps[b - 1],
                    None => {
                        let before = pipe.series().get(b - 1);
                        (
                            similarity::phi(before, opened, &self.base, self.policy),
                            true,
                        )
                    }
                };
                events.push(StreamEvent::ModeTransition {
                    seq: b as u64,
                    time: opened.time().as_secs(),
                    from_mode: choice.labels[b - 1] as u64,
                    to_mode: choice.labels[b] as u64,
                    modes: choice.clusters as u64,
                    threshold: choice.threshold,
                    step_phi,
                    trusted,
                });
                transitions += 1;
                self.metrics.transitions.inc();
            }
            inner.boundaries = bounds;
            // Announce history feeds resuming subscribers; it must see
            // every transition exactly once, in announce order.
            inner.announced.extend(events.iter().cloned());
        }
        Ok((
            SubmitOutcome::Accepted {
                observations: n as u64,
                transitions,
            },
            events,
        ))
    }
}

impl StreamIngestor {
    /// The sequencing and fold core behind [`StreamHandler::submit`],
    /// with typed errors. Duplicate and gap outcomes are data, not
    /// errors; a codes-length mismatch is [`Error::InvalidParameter`].
    pub fn submit_typed(
        &self,
        seq: u64,
        time: i64,
        codes: &[u16],
        health: CampaignHealth,
    ) -> Result<(SubmitOutcome, Vec<StreamEvent>)> {
        self.submit_durable(seq, time, codes, health, |_| Ok(()))
    }

    /// One submit: the sequencing and shape checks, then `durable`,
    /// then the fold. A replicated leader passes its WAL append as
    /// `durable`, so a duplicate, a gap or a malformed row never reaches
    /// the WAL, and a failed append folds nothing.
    pub(crate) fn submit_durable(
        &self,
        seq: u64,
        time: i64,
        codes: &[u16],
        health: CampaignHealth,
        durable: impl FnOnce(&CampaignHealth) -> Result<()>,
    ) -> Result<(SubmitOutcome, Vec<StreamEvent>)> {
        self.metrics.submits.inc();
        let start = Instant::now();
        let mut inner = self.inner.lock();
        let expected = self.observations();
        if seq < expected {
            self.metrics.duplicates.inc();
            self.metrics.acks.inc();
            return Ok((SubmitOutcome::Duplicate, Vec::new()));
        }
        if seq > expected {
            self.metrics.gaps.inc();
            self.metrics.acks.inc();
            return Ok((SubmitOutcome::Gap { expected }, Vec::new()));
        }
        if codes.len() != self.base.len() {
            return Err(Error::InvalidParameter {
                name: "submit codes",
                message: format!(
                    "observation carries {} codes, stream expects {}",
                    codes.len(),
                    self.base.len()
                ),
            });
        }
        durable(&health)?;
        let (outcome, events) = self.fold(&mut inner, time, codes, health)?;
        self.metrics.acks.inc();
        self.metrics
            .fold_latency
            .observe(start.elapsed().as_micros() as u64);
        Ok((outcome, events))
    }
}

/// The protocol reply to a typed submit: a refused row is a bad
/// request, any other failure an internal error.
pub(crate) fn submit_reply(
    seq: u64,
    result: Result<(SubmitOutcome, Vec<StreamEvent>)>,
) -> (Reply, Vec<StreamEvent>) {
    match result {
        Ok((outcome, events)) => (Reply::SubmitAck { seq, outcome }, events),
        Err(e) => {
            let code = match e {
                Error::InvalidParameter { .. } => ERR_BAD_REQUEST,
                _ => ERR_INTERNAL,
            };
            (
                Reply::Error {
                    code,
                    message: e.to_string(),
                },
                Vec::new(),
            )
        }
    }
}

impl StreamHandler for StreamIngestor {
    fn submit(
        &self,
        seq: u64,
        time: i64,
        codes: &[u16],
        health: CampaignHealth,
    ) -> (Reply, Vec<StreamEvent>) {
        submit_reply(seq, self.submit_typed(seq, time, codes, health))
    }

    fn boundary_count(&self) -> u64 {
        self.inner.lock().boundary_count()
    }

    fn events_since(&self, from: u64) -> Vec<StreamEvent> {
        let inner = self.inner.lock();
        let base = inner.announced_base;
        let mut events = Vec::new();
        let start = if from < base {
            // The gap below the announce history was journaled before
            // this ingestor attached; it is never re-announced, only
            // marked.
            events.push(StreamEvent::Lagged {
                missed: base - from,
            });
            0
        } else {
            (from - base) as usize
        };
        if start < inner.announced.len() {
            events.extend_from_slice(&inner.announced[start..]);
        }
        events
    }
}
