//! Crash-recoverable analysis pipeline: series → similarity → dendrogram,
//! journaled one observation at a time.
//!
//! The measurement side checkpoints raw sweeps ([`super::sink`]); this
//! module journals the *derived* state so a crash does not force the
//! O(T²) similarity matrix to be recomputed from scratch. Each observed
//! vector appends one delta frame carrying the observation, its condensed
//! similarity row (the only matrix cells a new observation adds — history
//! rows never change), and its health record; snapshots additionally
//! persist the dendrogram merges. Every observation builds the tree over
//! the grown matrix, and so does a restore, unless no delta follows the
//! snapshot: then the snapshot's merges are the tree.
//!
//! Restores are bit-exact: journaled Φ rows are the exact IEEE-754 bits
//! the pipeline computed, and the tree is a pure function of them — the
//! kill/resume equivalence tests assert `D(t)` comes out identical either
//! way.
//!
//! The Φ extend runs behind the runtime [`DivergenceGuard`], sampled at
//! the configured rate: a sampled incremental-vs-batch mismatch repairs
//! from the batch result, quarantines the incremental path, and surfaces
//! through the observation's [`CampaignHealth::divergences`] counter
//! instead of aborting the pipeline. Guard sampling counters reset on
//! restore (they are pacing state, not data), so a resumed run may
//! *check* at different sweeps than an uninterrupted one — but since
//! checks only repair already-wrong state, results are unaffected when
//! the incremental path is healthy.

use super::codec::{self, Dec};
use super::{Backend, Frame, Journal, RecoveryReport};
use crate::storage::tiered::hydrate_latest;
use crate::storage::{RetryPolicy, Storage, TieredJournal};
use fenrir_core::cluster::{Dendrogram, Linkage, Merge};
use fenrir_core::error::{Error, Result};
use fenrir_core::guard::{DivergenceGuard, SamplingRate};
use fenrir_core::health::CampaignHealth;
use fenrir_core::ids::SiteTable;
use fenrir_core::latency::LatencyPanel;
use fenrir_core::series::VectorSeries;
use fenrir_core::similarity::{SimilarityMatrix, UnknownPolicy};
use fenrir_core::time::Timestamp;
use fenrir_core::vector::RoutingVector;
use fenrir_core::weight::Weights;
use std::path::Path;
use std::sync::Arc;

/// Frame kind: pipeline metadata (always the first frame).
pub const KIND_PIPELINE_META: u16 = 0x20;
/// Frame kind: one observation delta (vector + Φ row + health).
pub const KIND_OBSERVATION: u16 = 0x21;
/// Frame kind: folded snapshot (series + matrix + merge tree + health).
pub const KIND_PIPELINE_SNAPSHOT: u16 = 0x22;
/// Frame kind: latency panel for one already-journaled observation.
pub const KIND_OBS_LATENCY: u16 = 0x23;

/// Analysis parameters a pipeline journal is bound to. Weights, unknown
/// policy and linkage all change Φ bit patterns or the merge tree, so a
/// journal written under one configuration is refused under another.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Per-network weights for Φ.
    pub weights: Weights,
    /// Unknown-handling policy for Φ.
    pub policy: UnknownPolicy,
    /// HAC linkage.
    pub linkage: Linkage,
    /// Divergence-guard sampling rate for the Φ extend.
    pub sampling: SamplingRate,
    /// Compact once this many observation deltas accumulate after the
    /// last snapshot (`None` = never compact automatically).
    pub compact_every: Option<usize>,
}

impl PipelineConfig {
    /// Uniform weights, paper-default policy and linkage, build-default
    /// guard sampling, compaction every 64 observations.
    pub fn new(networks: usize) -> Self {
        PipelineConfig {
            weights: Weights::uniform(networks),
            policy: UnknownPolicy::default(),
            linkage: Linkage::default(),
            sampling: SamplingRate::default_for_build(),
            compact_every: Some(64),
        }
    }
}

fn linkage_code(l: Linkage) -> u8 {
    match l {
        Linkage::Single => 0,
        Linkage::Complete => 1,
        Linkage::Average => 2,
    }
}

fn linkage_from(code: u8) -> Result<Linkage> {
    match code {
        0 => Ok(Linkage::Single),
        1 => Ok(Linkage::Complete),
        2 => Ok(Linkage::Average),
        c => Err(Error::Corrupted {
            what: "pipeline meta",
            offset: 0,
            message: format!("unknown linkage code {c}"),
        }),
    }
}

fn policy_code(p: UnknownPolicy) -> u8 {
    match p {
        UnknownPolicy::Pessimistic => 0,
        UnknownPolicy::KnownOnly => 1,
    }
}

fn policy_from(code: u8) -> Result<UnknownPolicy> {
    match code {
        0 => Ok(UnknownPolicy::Pessimistic),
        1 => Ok(UnknownPolicy::KnownOnly),
        c => Err(Error::Corrupted {
            what: "pipeline meta",
            offset: 0,
            message: format!("unknown policy code {c}"),
        }),
    }
}

/// Encode a [`KIND_OBS_LATENCY`] payload: observation index, panel time,
/// then one `present` flag (+ RTT bits when present) per network.
fn latency_payload(idx: usize, p: &LatencyPanel) -> Vec<u8> {
    let mut out = Vec::new();
    codec::put_usize(&mut out, idx);
    codec::put_i64(&mut out, p.time().as_secs());
    codec::put_seq(&mut out, p.samples(), |o, s| match s {
        Some(rtt) => {
            codec::put_bool(o, true);
            codec::put_f64(o, *rtt);
        }
        None => codec::put_bool(o, false),
    });
    out
}

/// Decoded pipeline-journal metadata: the analysis configuration and site
/// table the journal's Φ bits were computed under.
///
/// Public so read-only consumers (most importantly the `fenrir-serve`
/// query server) can adopt a journal's own configuration instead of
/// requiring the operator to re-supply weights, policy, and linkage that
/// are already durably recorded in the first frame.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineMeta {
    /// Number of client networks per observation.
    pub networks: usize,
    /// HAC linkage the merge tree was built with.
    pub linkage: Linkage,
    /// Unknown-handling policy the Φ bits were computed under.
    pub policy: UnknownPolicy,
    /// Per-network weights, in journal bit order.
    pub weights: Vec<f64>,
    /// Site names in `SiteId` order.
    pub sites: Vec<String>,
}

impl PipelineMeta {
    /// Decode a [`KIND_PIPELINE_META`] frame payload.
    pub fn decode(payload: &[u8]) -> Result<Self> {
        let mut d = Dec::new(payload, "pipeline meta");
        let networks = d.usize()?;
        let linkage = linkage_from(d.u8()?)?;
        let policy = policy_from(d.u8()?)?;
        let nw = d.seq_len(8)?;
        let weights = (0..nw).map(|_| d.f64()).collect::<Result<Vec<_>>>()?;
        let ns = d.seq_len(8)?;
        let sites = (0..ns).map(|_| d.str()).collect::<Result<Vec<_>>>()?;
        d.finish()?;
        Ok(PipelineMeta {
            networks,
            linkage,
            policy,
            weights,
            sites,
        })
    }
}

/// A journaled series → matrix → dendrogram pipeline.
#[derive(Debug)]
pub struct RecoverablePipeline {
    journal: Backend,
    cfg: PipelineConfig,
    series: VectorSeries,
    matrix: Option<SimilarityMatrix>,
    dendro: Option<Dendrogram>,
    health: Vec<CampaignHealth>,
    panels: Vec<Option<LatencyPanel>>,
    /// Cross-checks of the Φ extend.
    phi_guard: DivergenceGuard,
    deltas: usize,
    report: RecoveryReport,
}

impl RecoverablePipeline {
    /// A fresh in-memory pipeline.
    pub fn in_memory(sites: SiteTable, networks: usize, cfg: PipelineConfig) -> Result<Self> {
        Self::attach(
            Backend::Flat(Journal::in_memory()),
            Vec::new(),
            RecoveryReport::default(),
            sites,
            networks,
            cfg,
        )
    }

    /// Open (or create) a file-backed pipeline journal, restoring all
    /// derived state from the clean frame prefix.
    pub fn open(
        path: &Path,
        sites: SiteTable,
        networks: usize,
        cfg: PipelineConfig,
    ) -> Result<Self> {
        let (journal, frames, report) = Journal::open(path)?;
        Self::attach(Backend::Flat(journal), frames, report, sites, networks, cfg)
    }

    /// Open (or create) a tiered pipeline journal: the hot tail lives at
    /// `hot_path`, sealed epochs live under `prefix` in the object tier,
    /// and [`Self::compact`] seals into the tier instead of rewriting
    /// the local file. Recovery restores the current epoch's snapshot
    /// plus the hot deltas, finishing any seal that crashed after its
    /// commit point (see [`TieredJournal`]).
    pub fn open_tiered(
        hot_path: &Path,
        store: Arc<dyn Storage>,
        prefix: &str,
        retry: RetryPolicy,
        sites: SiteTable,
        networks: usize,
        cfg: PipelineConfig,
    ) -> Result<Self> {
        let (tiered, frames, report) = TieredJournal::open(hot_path, store, prefix, retry)?;
        Self::attach(
            Backend::Tiered(Box::new(tiered)),
            frames,
            report,
            sites,
            networks,
            cfg,
        )
    }

    /// Adopt raw journal bytes (corruption tests, in-memory round trips).
    pub fn from_bytes(
        bytes: Vec<u8>,
        sites: SiteTable,
        networks: usize,
        cfg: PipelineConfig,
    ) -> Result<Self> {
        let (journal, frames, report) = Journal::from_bytes(bytes)?;
        Self::attach(Backend::Flat(journal), frames, report, sites, networks, cfg)
    }

    /// Open a pipeline journal *without* taking ownership of the file:
    /// the analysis configuration and site table are adopted from the
    /// journal's own meta frame, nothing on disk is truncated or
    /// rewritten (a torn tail is dropped from the in-memory view only),
    /// and the returned pipeline holds no file handle. This is the load
    /// path for read-only consumers — most importantly the `fenrir-serve`
    /// query server, which follows a journal another process is
    /// appending to and must never race its writer.
    pub fn open_read_only(path: &Path) -> Result<Self> {
        let bytes = std::fs::read(path).map_err(|e| Error::Internal {
            what: "journal read",
            message: format!("{}: {e}", path.display()),
        })?;
        Self::from_bytes_read_only(bytes)
    }

    /// Hydrate a read-only pipeline from the object tier alone: fetch
    /// the newest sealed epoch under `prefix` and adopt its journaled
    /// configuration, exactly like [`Self::open_read_only`] does for a
    /// local file. No hot tail is read and no local state is required —
    /// this is how a serving replica bootstraps on a machine that never
    /// ran the writer. `Err(Error::EmptyInput)` means the tier answered
    /// but nothing has been sealed yet; storage failures surface typed
    /// (retried per `retry` first).
    pub fn hydrate_read_only(
        store: &dyn Storage,
        prefix: &str,
        retry: &RetryPolicy,
    ) -> Result<Self> {
        let Some((_gen, frames)) = hydrate_latest(store, prefix, retry)? else {
            return Err(Error::EmptyInput("sealed tier epoch"));
        };
        let pairs: Vec<(u16, Vec<u8>)> = frames.into_iter().map(|f| (f.kind, f.payload)).collect();
        Self::from_bytes_read_only(super::encode_frames(&pairs)?)
    }

    /// [`Self::open_read_only`] over bytes already in memory.
    pub fn from_bytes_read_only(bytes: Vec<u8>) -> Result<Self> {
        let (journal, frames, report) = Journal::from_bytes(bytes)?;
        let Some(first) = frames.first() else {
            return Err(Error::EmptyInput("pipeline journal"));
        };
        if first.kind != KIND_PIPELINE_META {
            return Err(Error::Corrupted {
                what: "pipeline journal",
                offset: 0,
                message: format!("first frame has kind {:#06x}, expected meta", first.kind),
            });
        }
        let meta = PipelineMeta::decode(&first.payload)?;
        let sites = SiteTable::from_names(meta.sites.iter().map(String::as_str));
        let cfg = PipelineConfig {
            weights: Weights::from_values(meta.weights.clone())?,
            policy: meta.policy,
            linkage: meta.linkage,
            sampling: SamplingRate::default_for_build(),
            compact_every: None,
        };
        Self::attach(
            Backend::Flat(journal),
            frames,
            report,
            sites,
            meta.networks,
            cfg,
        )
    }

    fn meta_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        codec::put_usize(&mut out, self.series.networks());
        out.push(linkage_code(self.cfg.linkage));
        out.push(policy_code(self.cfg.policy));
        codec::put_seq(&mut out, self.cfg.weights.values(), |o, &w| {
            codec::put_f64(o, w)
        });
        let names: Vec<String> = self
            .series
            .sites()
            .iter()
            .map(|(_, n)| n.to_owned())
            .collect();
        codec::put_seq(&mut out, &names, |o, n| codec::put_str(o, n));
        out
    }

    fn attach(
        mut journal: Backend,
        frames: Vec<Frame>,
        report: RecoveryReport,
        sites: SiteTable,
        networks: usize,
        cfg: PipelineConfig,
    ) -> Result<Self> {
        if cfg.weights.len() != networks {
            return Err(Error::ShapeMismatch {
                what: "pipeline weights",
                expected: networks,
                actual: cfg.weights.len(),
            });
        }
        let mut pipe = RecoverablePipeline {
            phi_guard: DivergenceGuard::new(cfg.sampling),
            journal: Backend::Flat(Journal::in_memory()),
            cfg,
            series: VectorSeries::new(sites, networks),
            matrix: None,
            dendro: None,
            health: Vec::new(),
            panels: Vec::new(),
            deltas: 0,
            report,
        };
        if frames.is_empty() {
            journal.append(KIND_PIPELINE_META, &pipe.meta_payload())?;
            pipe.journal = journal;
            return Ok(pipe);
        }
        let first = &frames[0];
        if first.kind != KIND_PIPELINE_META {
            return Err(Error::Corrupted {
                what: "pipeline journal",
                offset: 0,
                message: format!("first frame has kind {:#06x}, expected meta", first.kind),
            });
        }
        pipe.check_meta(&first.payload)?;
        // Collect the clean prefix, then rebuild the derived state once.
        let mut rows: Vec<Vec<f64>> = Vec::new();
        let mut vectors: Vec<RoutingVector> = Vec::new();
        let mut panels: Vec<Option<LatencyPanel>> = Vec::new();
        let mut merges: Option<(usize, Vec<Merge>)> = None;
        for frame in &frames[1..] {
            match frame.kind {
                KIND_OBSERVATION => {
                    let mut d = Dec::new(&frame.payload, "pipeline observation");
                    let t = d.i64()?;
                    let nc = d.seq_len(2)?;
                    let codes = (0..nc).map(|_| d.u16()).collect::<Result<Vec<_>>>()?;
                    let nr = d.seq_len(8)?;
                    let row = (0..nr).map(|_| d.f64()).collect::<Result<Vec<_>>>()?;
                    let health = codec::read_health(&mut d)?;
                    d.finish()?;
                    if codes.len() != networks {
                        return Err(Error::ShapeMismatch {
                            what: "journaled observation",
                            expected: networks,
                            actual: codes.len(),
                        });
                    }
                    if row.len() != vectors.len() + 1 {
                        return Err(Error::Corrupted {
                            what: "pipeline observation",
                            offset: 0,
                            message: format!(
                                "Φ row of {} cells for observation {}",
                                row.len(),
                                vectors.len()
                            ),
                        });
                    }
                    vectors.push(RoutingVector::from_codes(Timestamp::from_secs(t), codes));
                    rows.push(row);
                    panels.push(None);
                    pipe.health.push(health);
                }
                KIND_OBS_LATENCY => {
                    let mut d = Dec::new(&frame.payload, "pipeline latency");
                    let idx = d.usize()?;
                    let t = d.i64()?;
                    let ns = d.seq_len(1)?;
                    let samples = (0..ns)
                        .map(|_| Ok(if d.bool()? { Some(d.f64()?) } else { None }))
                        .collect::<Result<Vec<_>>>()?;
                    d.finish()?;
                    if samples.len() != networks || idx >= vectors.len() {
                        return Err(Error::Corrupted {
                            what: "pipeline latency",
                            offset: 0,
                            message: format!(
                                "panel of {} samples for observation {idx} of {}",
                                samples.len(),
                                vectors.len()
                            ),
                        });
                    }
                    panels[idx] = Some(LatencyPanel::new(Timestamp::from_secs(t), samples));
                }
                KIND_PIPELINE_SNAPSHOT => {
                    let mut d = Dec::new(&frame.payload, "pipeline snapshot");
                    let n = d.seq_len(8)?;
                    let mut snap_vectors = Vec::with_capacity(n);
                    let mut snap_rows = Vec::with_capacity(n);
                    for i in 0..n {
                        let t = d.i64()?;
                        let ncodes = d.seq_len(2)?;
                        let codes = (0..ncodes).map(|_| d.u16()).collect::<Result<Vec<_>>>()?;
                        let nr = d.seq_len(8)?;
                        let row = (0..nr).map(|_| d.f64()).collect::<Result<Vec<_>>>()?;
                        if codes.len() != networks || row.len() != i + 1 {
                            return Err(Error::Corrupted {
                                what: "pipeline snapshot",
                                offset: 0,
                                message: format!("malformed observation {i}"),
                            });
                        }
                        snap_vectors
                            .push(RoutingVector::from_codes(Timestamp::from_secs(t), codes));
                        snap_rows.push(row);
                    }
                    let nm = d.seq_len(8)?;
                    let snap_merges = (0..nm)
                        .map(|_| {
                            Ok(Merge {
                                a: d.usize()?,
                                b: d.usize()?,
                                distance: d.f64()?,
                                size: d.usize()?,
                            })
                        })
                        .collect::<Result<Vec<_>>>()?;
                    let nh = d.seq_len(8)?;
                    let snap_health = (0..nh)
                        .map(|_| codec::read_health(&mut d))
                        .collect::<Result<Vec<_>>>()?;
                    d.finish()?;
                    if snap_health.len() != n || (n > 0 && snap_merges.len() != n - 1) {
                        return Err(Error::Corrupted {
                            what: "pipeline snapshot",
                            offset: 0,
                            message: format!(
                                "{n} observations with {} merges / {} health records",
                                snap_merges.len(),
                                snap_health.len()
                            ),
                        });
                    }
                    vectors = snap_vectors;
                    rows = snap_rows;
                    panels = vec![None; n];
                    merges = Some((n, snap_merges));
                    pipe.health = snap_health;
                }
                kind => {
                    return Err(Error::Corrupted {
                        what: "pipeline journal",
                        offset: 0,
                        message: format!("unknown frame kind {kind:#06x}"),
                    });
                }
            }
        }
        pipe.deltas = vectors.len() - merges.as_ref().map_or(0, |(n, _)| *n);
        pipe.panels = panels;
        if !vectors.is_empty() {
            let n = vectors.len();
            pipe.series =
                VectorSeries::from_vectors(pipe.series.sites().clone(), networks, vectors)?;
            let condensed: Vec<f64> = rows.into_iter().flatten().collect();
            let matrix = SimilarityMatrix::from_condensed(n, condensed)?;
            // The snapshot's merges are the tree when no delta follows it;
            // otherwise build, as `observe` does.
            let dendro = match merges {
                Some((sn, m)) if sn == n => Dendrogram::from_parts(sn, pipe.cfg.linkage, m)?,
                _ => Dendrogram::build(&matrix, pipe.cfg.linkage)?,
            };
            pipe.matrix = Some(matrix);
            pipe.dendro = Some(dendro);
        }
        pipe.journal = journal;
        Ok(pipe)
    }

    fn check_meta(&self, payload: &[u8]) -> Result<()> {
        let meta = PipelineMeta::decode(payload)?;
        let my_sites: Vec<String> = self
            .series
            .sites()
            .iter()
            .map(|(_, n)| n.to_owned())
            .collect();
        let same_weights = meta.weights.len() == self.cfg.weights.len()
            && meta
                .weights
                .iter()
                .zip(self.cfg.weights.values())
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if meta.networks != self.series.networks()
            || meta.linkage != self.cfg.linkage
            || meta.policy != self.cfg.policy
            || !same_weights
            || meta.sites != my_sites
        {
            return Err(Error::Config {
                name: "pipeline journal",
                message: format!(
                    "journal was written under a different analysis configuration \
                     ({} networks, {:?}/{:?}) than the caller's \
                     ({} networks, {:?}/{:?}) — Φ bits would not line up",
                    meta.networks,
                    meta.linkage,
                    meta.policy,
                    self.series.networks(),
                    self.cfg.linkage,
                    self.cfg.policy
                ),
            });
        }
        Ok(())
    }

    /// Ingest one observation: push it into the series, extend the matrix
    /// behind the divergence guard, build the dendrogram over it, fold any
    /// divergence events into the health record, and journal the delta
    /// durably.
    pub fn observe(&mut self, v: RoutingVector, health: CampaignHealth) -> Result<()> {
        self.observe_with_latency(v, None, health)
    }

    /// [`Self::observe`] plus an optional aligned latency panel, journaled
    /// durably in its own frame so read-only consumers can serve
    /// per-catchment latency summaries for this observation.
    pub fn observe_with_latency(
        &mut self,
        v: RoutingVector,
        panel: Option<LatencyPanel>,
        health: CampaignHealth,
    ) -> Result<()> {
        if let Some(p) = &panel {
            if p.len() != self.series.networks() {
                return Err(Error::ShapeMismatch {
                    what: "latency panel",
                    expected: self.series.networks(),
                    actual: p.len(),
                });
            }
            if let Some(bad) = p.samples().iter().flatten().find(|s| !s.is_finite()) {
                return Err(Error::InvalidParameter {
                    name: "latency panel",
                    message: format!("non-finite RTT sample {bad}"),
                });
            }
        }
        self.series.push(v)?;
        let i = self.series.len() - 1;
        match &mut self.matrix {
            None => {
                self.matrix = Some(SimilarityMatrix::compute(
                    &self.series,
                    &self.cfg.weights,
                    self.cfg.policy,
                )?);
            }
            Some(m) => m.extend_guarded(
                &self.series,
                &self.cfg.weights,
                self.cfg.policy,
                &mut self.phi_guard,
            )?,
        }
        let matrix = self.matrix.as_ref().expect("matrix exists after extend");
        self.dendro = Some(Dendrogram::build(matrix, self.cfg.linkage)?);
        let mut health = health;
        health.divergences += self.phi_guard.drain_new();
        let mut payload = Vec::new();
        let vec = self.series.get(i);
        codec::put_i64(&mut payload, vec.time().as_secs());
        codec::put_seq(&mut payload, vec.codes(), |o, &c| codec::put_u16(o, c));
        codec::put_seq(&mut payload, matrix.condensed_row(i), |o, &p| {
            codec::put_f64(o, p)
        });
        codec::put_health(&mut payload, &health);
        self.journal.append(KIND_OBSERVATION, &payload)?;
        self.health.push(health);
        if let Some(p) = panel {
            self.journal
                .append(KIND_OBS_LATENCY, &latency_payload(i, &p))?;
            self.panels.push(Some(p));
        } else {
            self.panels.push(None);
        }
        self.deltas += 1;
        if self.cfg.compact_every.is_some_and(|n| self.deltas >= n) {
            self.compact()?;
        }
        Ok(())
    }

    /// Fold everything into one snapshot frame (meta ‖ snapshot) — the
    /// compaction that bounds journal growth and restore replay cost.
    /// On a tiered pipeline this *seals* the folded state as a new epoch
    /// in the object tier and resets the hot tail; on error (including
    /// retry exhaustion against a throttling tier) the previous epoch,
    /// the hot deltas, and the delta counter are all untouched, so the
    /// next compaction attempt simply retries the seal.
    pub fn compact(&mut self) -> Result<()> {
        let mut snap = Vec::new();
        codec::put_usize(&mut snap, self.series.len());
        for (i, v) in self.series.vectors().iter().enumerate() {
            codec::put_i64(&mut snap, v.time().as_secs());
            codec::put_seq(&mut snap, v.codes(), |o, &c| codec::put_u16(o, c));
            let row = self.matrix.as_ref().map_or(&[][..], |m| m.condensed_row(i));
            codec::put_seq(&mut snap, row, |o, &p| codec::put_f64(o, p));
        }
        let merges = self.dendro.as_ref().map_or(&[][..], |d| d.merges());
        codec::put_seq(&mut snap, merges, |o, m| {
            codec::put_usize(o, m.a);
            codec::put_usize(o, m.b);
            codec::put_f64(o, m.distance);
            codec::put_usize(o, m.size);
        });
        codec::put_seq(&mut snap, &self.health, codec::put_health);
        let mut frames = vec![
            (KIND_PIPELINE_META, self.meta_payload()),
            (KIND_PIPELINE_SNAPSHOT, snap),
        ];
        // Latency panels survive compaction as their own frames after the
        // snapshot (the snapshot layout itself is unchanged).
        for (i, panel) in self.panels.iter().enumerate() {
            if let Some(p) = panel {
                frames.push((KIND_OBS_LATENCY, latency_payload(i, p)));
            }
        }
        self.journal.replace_all(&frames)?;
        self.deltas = 0;
        Ok(())
    }

    /// The tiered backend, when this pipeline was opened with
    /// [`Self::open_tiered`].
    pub fn tier(&self) -> Option<&TieredJournal> {
        self.journal.tier()
    }

    /// Mutable access to the tiered backend — a replicated leader
    /// stamps its fencing epoch through this before serving writes.
    pub fn tier_mut(&mut self) -> Option<&mut TieredJournal> {
        self.journal.tier_mut()
    }

    /// The accumulated series.
    pub fn series(&self) -> &VectorSeries {
        &self.series
    }

    /// The similarity matrix (`None` before the first observation).
    pub fn matrix(&self) -> Option<&SimilarityMatrix> {
        self.matrix.as_ref()
    }

    /// The dendrogram (`None` before the first observation).
    pub fn dendrogram(&self) -> Option<&Dendrogram> {
        self.dendro.as_ref()
    }

    /// Per-observation health records (with pipeline divergences folded
    /// into [`CampaignHealth::divergences`]).
    pub fn health(&self) -> &[CampaignHealth] {
        &self.health
    }

    /// Journaled latency panels, aligned with the series (`None` for
    /// observations that carried no panel).
    pub fn panels(&self) -> &[Option<LatencyPanel>] {
        &self.panels
    }

    /// The analysis configuration this pipeline is bound to (adopted from
    /// the journal's meta frame on a read-only open).
    pub fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    /// What recovery found when this pipeline opened its journal.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.report
    }

    /// The locally durable journal bytes: everything for a flat
    /// pipeline, only the hot tail for a tiered one.
    pub fn bytes(&self) -> &[u8] {
        self.journal.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fenrir_core::ids::SiteId;
    use fenrir_core::vector::Catchment;

    fn vec_at(day: i64, sites: [u16; 4]) -> RoutingVector {
        RoutingVector::from_catchments(
            Timestamp::from_days(day),
            sites.iter().map(|&s| Catchment::Site(SiteId(s))).collect(),
        )
    }

    fn cfg() -> PipelineConfig {
        PipelineConfig {
            compact_every: None,
            ..PipelineConfig::new(4)
        }
    }

    fn feed(pipe: &mut RecoverablePipeline, days: std::ops::Range<i64>) {
        for day in days {
            let flip = if day % 3 == 0 { 1 } else { 0 };
            let v = vec_at(day, [0, flip, 1, 1]);
            let health = CampaignHealth::new(Timestamp::from_days(day), 4);
            pipe.observe(v, health).unwrap();
        }
    }

    fn assert_same(a: &RecoverablePipeline, b: &RecoverablePipeline) {
        assert_eq!(a.series().vectors(), b.series().vectors());
        let (ma, mb) = (a.matrix().unwrap(), b.matrix().unwrap());
        assert_eq!(ma.len(), mb.len());
        assert!(ma
            .raw()
            .iter()
            .zip(mb.raw())
            .all(|(x, y)| x.to_bits() == y.to_bits()));
        assert_eq!(
            a.dendrogram().unwrap().merges(),
            b.dendrogram().unwrap().merges()
        );
        assert_eq!(a.health(), b.health());
    }

    #[test]
    fn restore_from_deltas_is_bit_identical() {
        let mut live =
            RecoverablePipeline::in_memory(SiteTable::from_names(["A", "B"]), 4, cfg()).unwrap();
        feed(&mut live, 0..9);
        let restored = RecoverablePipeline::from_bytes(
            live.bytes().to_vec(),
            SiteTable::from_names(["A", "B"]),
            4,
            cfg(),
        )
        .unwrap();
        assert!(restored.recovery_report().is_clean());
        assert_same(&live, &restored);
    }

    #[test]
    fn restore_through_snapshot_and_further_deltas_is_bit_identical() {
        let mut live =
            RecoverablePipeline::in_memory(SiteTable::from_names(["A", "B"]), 4, cfg()).unwrap();
        feed(&mut live, 0..6);
        live.compact().unwrap();
        feed(&mut live, 6..11);
        let restored = RecoverablePipeline::from_bytes(
            live.bytes().to_vec(),
            SiteTable::from_names(["A", "B"]),
            4,
            cfg(),
        )
        .unwrap();
        assert_same(&live, &restored);
        // Continue observing on the restored pipeline: same downstream
        // state as continuing on the original.
        let mut live2 = live;
        let mut rest2 = restored;
        feed(&mut live2, 11..14);
        feed(&mut rest2, 11..14);
        assert_same(&live2, &rest2);
    }

    #[test]
    fn torn_tail_loses_only_the_last_observations() {
        let mut live =
            RecoverablePipeline::in_memory(SiteTable::from_names(["A", "B"]), 4, cfg()).unwrap();
        feed(&mut live, 0..5);
        let mut bytes = live.bytes().to_vec();
        bytes.truncate(bytes.len() - 9);
        let restored =
            RecoverablePipeline::from_bytes(bytes, SiteTable::from_names(["A", "B"]), 4, cfg())
                .unwrap();
        assert!(!restored.recovery_report().is_clean());
        assert_eq!(restored.series().len(), 4);
        assert_eq!(restored.dendrogram().unwrap().len(), 4);
    }

    fn panel_at(day: i64) -> LatencyPanel {
        LatencyPanel::new(
            Timestamp::from_days(day),
            (0..4)
                .map(|n| {
                    if (n + day) % 3 == 0 {
                        None
                    } else {
                        Some(10.0 + day as f64 + n as f64)
                    }
                })
                .collect(),
        )
    }

    #[test]
    fn latency_panels_survive_restore_and_compaction() {
        let mut live =
            RecoverablePipeline::in_memory(SiteTable::from_names(["A", "B"]), 4, cfg()).unwrap();
        for day in 0..6 {
            let v = vec_at(day, [0, 1, 1, 0]);
            let health = CampaignHealth::new(Timestamp::from_days(day), 4);
            let panel = (day % 2 == 0).then(|| panel_at(day));
            live.observe_with_latency(v, panel, health).unwrap();
        }
        let check = |pipe: &RecoverablePipeline| {
            assert_eq!(pipe.panels().len(), 6);
            for day in 0..6i64 {
                match &pipe.panels()[day as usize] {
                    Some(p) if day % 2 == 0 => assert_eq!(*p, panel_at(day)),
                    None if day % 2 != 0 => {}
                    other => panic!("day {day}: {other:?}"),
                }
            }
        };
        check(&live);
        let restored = RecoverablePipeline::from_bytes(
            live.bytes().to_vec(),
            SiteTable::from_names(["A", "B"]),
            4,
            cfg(),
        )
        .unwrap();
        check(&restored);
        assert_same(&live, &restored);
        // Panels ride through compaction too.
        let mut compacted = live;
        compacted.compact().unwrap();
        check(&compacted);
        let recompacted = RecoverablePipeline::from_bytes(
            compacted.bytes().to_vec(),
            SiteTable::from_names(["A", "B"]),
            4,
            cfg(),
        )
        .unwrap();
        check(&recompacted);
        assert_same(&compacted, &recompacted);
    }

    #[test]
    fn observe_rejects_malformed_panels() {
        let mut pipe =
            RecoverablePipeline::in_memory(SiteTable::from_names(["A", "B"]), 4, cfg()).unwrap();
        let health = CampaignHealth::new(Timestamp::from_days(0), 4);
        let short = LatencyPanel::new(Timestamp::from_days(0), vec![Some(1.0); 3]);
        assert!(matches!(
            pipe.observe_with_latency(vec_at(0, [0, 0, 1, 1]), Some(short), health.clone()),
            Err(Error::ShapeMismatch { .. })
        ));
        let nan = LatencyPanel::new(Timestamp::from_days(0), vec![Some(f64::NAN); 4]);
        assert!(matches!(
            pipe.observe_with_latency(vec_at(0, [0, 0, 1, 1]), Some(nan), health),
            Err(Error::InvalidParameter { .. })
        ));
        // Nothing was journaled by the rejected observations.
        assert_eq!(pipe.series().len(), 0);
    }

    #[test]
    fn read_only_open_adopts_the_journal_configuration() {
        let mut live =
            RecoverablePipeline::in_memory(SiteTable::from_names(["LAX", "MIA"]), 4, cfg())
                .unwrap();
        for day in 0..5 {
            let v = vec_at(day, [0, 1, 1, 0]);
            let health = CampaignHealth::new(Timestamp::from_days(day), 4);
            live.observe_with_latency(v, Some(panel_at(day)), health)
                .unwrap();
        }
        let ro = RecoverablePipeline::from_bytes_read_only(live.bytes().to_vec()).unwrap();
        assert_same(&live, &ro);
        assert_eq!(ro.panels(), live.panels());
        let names: Vec<&str> = ro.series().sites().iter().map(|(_, n)| n).collect();
        assert_eq!(names, ["LAX", "MIA"]);
        // An empty journal has no meta frame to adopt.
        assert!(matches!(
            RecoverablePipeline::from_bytes_read_only(Vec::new()),
            Err(Error::EmptyInput(_))
        ));
    }

    #[test]
    fn read_only_open_does_not_rewrite_the_file() {
        let path =
            std::env::temp_dir().join(format!("fenrir-ro-pipeline-{}.fnrj", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let mut live =
                RecoverablePipeline::open(&path, SiteTable::from_names(["A", "B"]), 4, cfg())
                    .unwrap();
            feed(&mut live, 0..4);
        }
        // Tear the tail on disk; a read-only open must report the tear
        // but leave the damaged bytes in place for the owning writer.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 5);
        std::fs::write(&path, &bytes).unwrap();
        let ro = RecoverablePipeline::open_read_only(&path).unwrap();
        assert!(!ro.recovery_report().is_clean());
        assert_eq!(ro.series().len(), 3);
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "file was modified");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn restored_non_canonical_tree_is_replaced_on_the_next_observe() {
        let complete = || PipelineConfig {
            linkage: Linkage::Complete,
            sampling: SamplingRate::always(),
            ..cfg()
        };
        let sites = || SiteTable::from_names(["A", "B"]);
        let health = |day: i64| CampaignHealth::new(Timestamp::from_days(day), 4);
        let mut live = RecoverablePipeline::in_memory(sites(), 4, complete()).unwrap();
        let pairs = [[0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]];
        for (day, v) in (0..).zip(pairs) {
            live.observe(vec_at(day, v), health(day)).unwrap();
        }
        // Observations {0, 1} and {2, 3} tie at distance 0. Snapshot them
        // merged (2, 3) before (0, 1): each merge is genuine, but no batch
        // build records that order.
        let m = live.matrix().unwrap();
        let (tie, far) = (m.distance(0, 1), m.distance(0, 2));
        let merge = |a, b, distance, size| Merge {
            a,
            b,
            distance,
            size,
        };
        let poisoned = vec![
            merge(2, 3, tie, 2),
            merge(0, 1, tie, 2),
            merge(4, 5, far, 4),
        ];
        live.dendro = Some(Dendrogram::from_parts(4, Linkage::Complete, poisoned.clone()).unwrap());
        live.compact().unwrap();
        // No delta follows the snapshot, so the restore adopts its merges.
        let mut restored =
            RecoverablePipeline::from_bytes(live.bytes().to_vec(), sites(), 4, complete()).unwrap();
        assert_eq!(restored.dendrogram().unwrap().merges(), &poisoned[..]);
        // The next observation builds the tree over the grown matrix: the
        // poisoned merges are gone, and no guard had anything to repair.
        restored
            .observe(vec_at(4, [0, 0, 1, 0]), health(4))
            .unwrap();
        assert_eq!(restored.health().last().unwrap().divergences, 0);
        let batch = Dendrogram::build(restored.matrix().unwrap(), Linkage::Complete).unwrap();
        assert_eq!(restored.dendrogram().unwrap().merges(), batch.merges());
        // With a delta after the snapshot, a restore builds as well.
        let again =
            RecoverablePipeline::from_bytes(restored.bytes().to_vec(), sites(), 4, complete())
                .unwrap();
        assert_eq!(again.dendrogram().unwrap().merges(), batch.merges());
    }

    #[test]
    fn mismatched_analysis_config_is_refused() {
        let mut live =
            RecoverablePipeline::in_memory(SiteTable::from_names(["A", "B"]), 4, cfg()).unwrap();
        feed(&mut live, 0..3);
        let other = PipelineConfig {
            linkage: Linkage::Complete,
            ..cfg()
        };
        assert!(matches!(
            RecoverablePipeline::from_bytes(
                live.bytes().to_vec(),
                SiteTable::from_names(["A", "B"]),
                4,
                other,
            ),
            Err(Error::Config { .. })
        ));
    }
}
