//! Crash-recoverable analysis pipeline: series → similarity → dendrogram,
//! journaled one observation at a time.
//!
//! The measurement side checkpoints raw sweeps ([`super::sink`]); this
//! module journals the *derived* state so a crash does not force the
//! O(T²) similarity matrix to be recomputed from scratch. Each observed
//! vector appends one [`KIND_OBSERVATION`] frame carrying the observation,
//! its condensed similarity row (the only matrix cells a new observation
//! adds — history rows never change) and its health record, followed by a
//! [`KIND_OBS_LATENCY`] frame when it carries a latency panel. A journal
//! holds each observation exactly once: a flat journal only ever grows,
//! and a tiered journal's seal writes the same frames, after the meta
//! frame, into the object tier. Every observation builds the tree over the
//! grown matrix, and so does a restore.
//!
//! Observing extends Φ by the new row ([`SimilarityMatrix::extend`]), the
//! one loop that also fills a fresh [`SimilarityMatrix::compute`], so Φ
//! has no second path to cross-check. Restores are bit-exact: journaled
//! Φ rows are the exact IEEE-754 bits the pipeline computed, and the tree
//! is a pure function of them — the kill/resume equivalence tests assert
//! `D(t)` comes out identical either way. Decoding the rows costs a
//! restore, and so every serve reload, far less than recomputing them in
//! `O(T²·N)` would.

use super::codec::{self, Dec};
use super::{Backend, Frame, Journal, RecoveryReport};
use crate::storage::tiered::hydrate_latest;
use crate::storage::{RetryPolicy, Storage, TieredJournal};
use fenrir_core::cluster::{Dendrogram, Linkage};
use fenrir_core::error::{Error, Result};
use fenrir_core::guard::SamplingRate;
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
// Kind 0x22 held a folded snapshot in older builds and stays reserved.
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
    /// Ignored: Φ has no divergence guard, since
    /// [`SimilarityMatrix::compute`] is the [`SimilarityMatrix::extend`]
    /// of an empty matrix. The field stays so that configurations written
    /// with it, such as the benchmark harness's, still build.
    pub sampling: SamplingRate,
    /// On a tiered journal, seal once this many observations accumulate
    /// in the hot tail (`None` = never seal automatically). A flat
    /// journal only grows, so it ignores the cadence.
    pub compact_every: Option<usize>,
}

impl PipelineConfig {
    /// Uniform weights, paper-default policy and linkage, a seal every 64
    /// observations.
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
    /// Φ over `series` (empty before the first observation).
    matrix: SimilarityMatrix,
    dendro: Option<Dendrogram>,
    health: Vec<CampaignHealth>,
    panels: Vec<Option<LatencyPanel>>,
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
    /// and [`Self::compact`] seals every observation into the tier.
    /// Recovery replays the current epoch's observations plus the hot
    /// tail's, finishing any seal that crashed after its commit point
    /// (see [`TieredJournal`]).
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
            journal: Backend::Flat(Journal::in_memory()),
            cfg,
            series: VectorSeries::new(sites, networks),
            matrix: SimilarityMatrix::default(),
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
        let mut condensed: Vec<f64> = Vec::new();
        let mut vectors: Vec<RoutingVector> = Vec::new();
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
                    condensed.extend(row);
                    pipe.panels.push(None);
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
                    pipe.panels[idx] = Some(LatencyPanel::new(Timestamp::from_secs(t), samples));
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
        // Observations past the sealed epoch count toward the next seal.
        let sealed = journal
            .tier()
            .and_then(|t| t.manifest().entry(t.base_gen()))
            .map_or(0, |e| e.frames as usize);
        pipe.deltas = frames
            .iter()
            .skip(sealed)
            .filter(|f| f.kind == KIND_OBSERVATION)
            .count();
        if !vectors.is_empty() {
            let n = vectors.len();
            pipe.series =
                VectorSeries::from_vectors(pipe.series.sites().clone(), networks, vectors)?;
            pipe.matrix = SimilarityMatrix::from_condensed(n, condensed)?;
            pipe.dendro = Some(Dendrogram::build(&pipe.matrix, pipe.cfg.linkage)?);
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

    /// Ingest one observation: push it into the series, extend Φ by its
    /// row, journal the observation with that row durably, and build the
    /// dendrogram over the grown matrix.
    ///
    /// Durable first: when the append fails, the series, matrix, tree,
    /// health and panels stay as they were before the call.
    pub fn observe(&mut self, v: RoutingVector, health: CampaignHealth) -> Result<()> {
        self.observe_with_latency(v, None, health)
    }

    /// [`Self::observe`] plus an optional aligned latency panel, journaled
    /// durably in its own frame so read-only consumers can serve
    /// per-catchment latency summaries for this observation. When only
    /// the panel's append fails, the observation stays, durable and
    /// without a panel, and the error is returned.
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
        self.matrix
            .extend(&self.series, &self.cfg.weights, self.cfg.policy)?;
        if let Err(e) = self
            .journal
            .append(KIND_OBSERVATION, &self.delta_payload(i, &health))
        {
            self.truncate(i)?;
            return Err(e);
        }
        self.health.push(health);
        self.dendro = Some(Dendrogram::build(&self.matrix, self.cfg.linkage)?);
        self.panels.push(None);
        self.deltas += 1;
        if let Some(p) = panel {
            self.journal
                .append(KIND_OBS_LATENCY, &latency_payload(i, &p))?;
            self.panels[i] = Some(p);
        }
        if self.cfg.compact_every.is_some_and(|n| self.deltas >= n) {
            self.compact()?;
        }
        Ok(())
    }

    /// The [`KIND_OBSERVATION`] payload of observation `i`: its time and
    /// codes, its condensed Φ row and `health`.
    fn delta_payload(&self, i: usize, health: &CampaignHealth) -> Vec<u8> {
        let v = self.series.get(i);
        let mut out = Vec::new();
        codec::put_i64(&mut out, v.time().as_secs());
        codec::put_seq(&mut out, v.codes(), |o, &c| codec::put_u16(o, c));
        codec::put_seq(&mut out, self.matrix.condensed_row(i), |o, &p| {
            codec::put_f64(o, p)
        });
        codec::put_health(&mut out, health);
        out
    }

    /// Cut the series and matrix back to their first `n` observations,
    /// rebuilt through their constructors: the undo of an observation
    /// whose append failed.
    fn truncate(&mut self, n: usize) -> Result<()> {
        let sites = self.series.sites().clone();
        let vectors = self.series.vectors()[..n].to_vec();
        self.series = VectorSeries::from_vectors(sites, self.series.networks(), vectors)?;
        let cells = self.matrix.raw()[..n * (n + 1) / 2].to_vec();
        self.matrix = SimilarityMatrix::from_condensed(n, cells)?;
        Ok(())
    }

    /// Seal the pipeline into the object tier when it is tiered: the next
    /// epoch holds the meta frame and then each observation's frames in
    /// order — the frames a flat journal of the same observations holds —
    /// and the hot tail resets. On error (including retry exhaustion
    /// against a throttling tier) the previous epoch, the hot tail and
    /// the seal counter are all untouched, so the next attempt simply
    /// retries the seal. A flat journal holds each observation once
    /// already and only grows, so this returns without I/O.
    pub fn compact(&mut self) -> Result<()> {
        if self.journal.tier().is_some() {
            let mut frames = vec![(KIND_PIPELINE_META, self.meta_payload())];
            for (i, panel) in self.panels.iter().enumerate() {
                frames.push((KIND_OBSERVATION, self.delta_payload(i, &self.health[i])));
                if let Some(p) = panel {
                    frames.push((KIND_OBS_LATENCY, latency_payload(i, p)));
                }
            }
            self.journal.replace_all(&frames)?;
        }
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
        (!self.matrix.is_empty()).then_some(&self.matrix)
    }

    /// The dendrogram (`None` before the first observation).
    pub fn dendrogram(&self) -> Option<&Dendrogram> {
        self.dendro.as_ref()
    }

    /// Per-observation health records, as observed and journaled.
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
    fn flat_compaction_writes_nothing_and_restores_bit_identical() {
        let mut live =
            RecoverablePipeline::in_memory(SiteTable::from_names(["A", "B"]), 4, cfg()).unwrap();
        feed(&mut live, 0..6);
        let before = live.bytes().to_vec();
        live.compact().unwrap();
        assert_eq!(live.bytes(), &before[..], "a flat journal only grows");
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

    fn set_file(pipe: &mut RecoverablePipeline, file: std::fs::File) {
        let Backend::Flat(journal) = &mut pipe.journal else {
            panic!("a file-backed pipeline is flat");
        };
        journal.file = Some(file);
    }

    #[test]
    fn failed_append_leaves_no_ghost_observation() {
        let path = std::env::temp_dir().join(format!("fenrir-ghost-{}.fnrj", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let sites = || SiteTable::from_names(["A", "B"]);
        let mut live = RecoverablePipeline::open(&path, sites(), 4, cfg()).unwrap();
        feed(&mut live, 0..3);
        let before = RecoverablePipeline::open_read_only(&path).unwrap();
        let (v, panel) = (vec_at(3, [1, 1, 0, 0]), Some(panel_at(3)));
        let health = CampaignHealth::new(Timestamp::from_days(3), 4);
        // A read-only handle fails the append as a full disk would.
        set_file(&mut live, std::fs::File::open(&path).unwrap());
        let failed = live.observe_with_latency(v.clone(), panel.clone(), health.clone());
        assert!(failed.is_err());
        // Series, Φ, tree, health and panels keep their 3 observations.
        assert_same(&live, &before);
        assert_eq!(live.panels(), before.panels());
        // The retry of the same row is accepted and restores bit for bit.
        let writable = std::fs::OpenOptions::new().write(true).open(&path);
        set_file(&mut live, writable.unwrap());
        live.observe_with_latency(v, panel, health).unwrap();
        let restored = RecoverablePipeline::open(&path, sites(), 4, cfg()).unwrap();
        assert!(restored.recovery_report().is_clean());
        assert_same(&live, &restored);
        assert_eq!(restored.panels(), live.panels());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_sealed_epoch_holds_the_frames_of_a_flat_journal() {
        let hot = std::env::temp_dir().join(format!("fenrir-sealed-{}.fnrj", std::process::id()));
        let _ = std::fs::remove_file(&hot);
        let store = crate::storage::ObjectSim::new(crate::storage::ObjectChaos::none(5));
        let store: Arc<dyn Storage> = Arc::new(store.unwrap());
        let open = || {
            let mut cfg = cfg();
            cfg.compact_every = Some(4);
            let (retry, sites) = (RetryPolicy::once(), SiteTable::from_names(["A", "B"]));
            RecoverablePipeline::open_tiered(&hot, store.clone(), "tier", retry, sites, 4, cfg)
                .unwrap()
        };
        let mut flat =
            RecoverablePipeline::in_memory(SiteTable::from_names(["A", "B"]), 4, cfg()).unwrap();
        let mut tiered = open();
        let observe = |pipe: &mut RecoverablePipeline, days: std::ops::Range<i64>| {
            for day in days {
                let v = vec_at(day, [0, (day % 3 == 0) as u16, 1, 1]);
                let health = CampaignHealth::new(Timestamp::from_days(day), 4);
                let panel = (day % 2 == 0).then(|| panel_at(day));
                pipe.observe_with_latency(v, panel, health).unwrap();
            }
        };
        let sealed = |pipe: &RecoverablePipeline| {
            let tier = pipe.tier().unwrap();
            let gen = tier.base_gen();
            (gen, tier.hydrate_epoch(gen).unwrap())
        };
        let frames = |pipe: &RecoverablePipeline| Journal::decode(pipe.bytes()).unwrap().0;
        observe(&mut flat, 0..6);
        observe(&mut tiered, 0..6);
        assert_eq!(sealed(&tiered).0, 1, "the fourth observation seals");
        tiered.compact().unwrap();
        assert_eq!(sealed(&tiered), (2, frames(&flat)));
        // After a restart the hot tail's two observations still count:
        // the second observation after it seals.
        observe(&mut flat, 6..10);
        observe(&mut tiered, 6..8);
        drop(tiered);
        let mut tiered = open();
        observe(&mut tiered, 8..9);
        assert_eq!(sealed(&tiered).0, 2);
        observe(&mut tiered, 9..10);
        assert_eq!(sealed(&tiered), (3, frames(&flat)));
        assert_same(&flat, &tiered);
        let _ = std::fs::remove_file(&hot);
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
