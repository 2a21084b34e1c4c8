//! The in-memory query store: immutable snapshots behind sharded locks.
//!
//! A [`Snapshot`] holds what queries read — the routing series, the
//! condensed similarity matrix, the mode analysis at the adaptive
//! threshold, and the journaled latency panels — derived from one of
//! three sources: a fenrir-data pipeline journal file, an object tier's
//! latest sealed epoch, or a pipeline in memory shared with its writer
//! (a stream server's ingestor). Snapshots are immutable and shared
//! through `Arc`s; queries clone an `Arc` (cheap) and never hold a lock
//! while computing.
//!
//! Every source loads one way: read its change mark (a journal file's
//! length, a tier manifest's latest generation, a shared pipeline's
//! observation count), then load it, then build and publish the
//! snapshot. The mark comes first, so a frame, epoch or observation
//! committed during the load is newer than the recorded mark and the
//! next poll reloads it. A shared pipeline is not re-read from bytes:
//! its snapshot is built from memory under the pipeline's lock.
//!
//! Hot reload is epoch-based: when the mark moves, one loader rebuilds
//! a fresh snapshot off to the side and swaps it into every shard.
//! Readers racing the swap keep the `Arc` they already cloned and
//! finish their query against the old epoch — they never block, and
//! they never observe a half-loaded state. The lock array is sharded
//! purely to spread reader cache-line traffic; every shard holds the
//! same `Arc` between reloads.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::sync::{Mutex, RwLock};
use fenrir_core::cluster::AdaptiveThreshold;
use fenrir_core::error::{Error, Result};
use fenrir_core::latency::{LatencyPanel, LatencySummary};
use fenrir_core::modes::ModeAnalysis;
use fenrir_core::series::VectorSeries;
use fenrir_core::similarity::SimilarityMatrix;
use fenrir_core::time::Timestamp;
use fenrir_core::transition::TransitionMatrix;
use fenrir_core::weight::Weights;
use fenrir_data::journal::RecoverablePipeline;
use fenrir_data::storage::tiered::{manifest_key, Manifest};
use fenrir_data::storage::{RetryPolicy, RetryStats, Storage};

use crate::cache::QueryCache;
use crate::protocol::{HealthInfo, Reply, SiteLatency, ERR_NOT_FOUND, ERR_UNAVAILABLE};

/// Reader lock shards.
const SHARDS: usize = 8;

/// Answer-cache capacity (entries) at open; the admin
/// `SetCacheCapacity` command resizes it live.
const CACHE_CAPACITY: usize = 4096;

/// One immutable, fully-derived view of the dataset: what queries read.
#[derive(Debug)]
pub struct Snapshot {
    /// Store epoch this snapshot belongs to (0 for the initial load).
    pub epoch: u64,
    /// The routing series.
    pub series: VectorSeries,
    /// Condensed pairwise similarity; `None` only for an empty
    /// snapshot (see [`ModeStore::over`]).
    pub matrix: Option<SimilarityMatrix>,
    /// Modes at the adaptive threshold; `None` only when empty.
    pub modes: Option<ModeAnalysis>,
    /// Journaled latency panels, aligned with the series.
    pub panels: Vec<Option<LatencyPanel>>,
    /// §2.5 network weights.
    pub weights: Weights,
    /// Whether the journal had a torn tail when the pipeline was opened
    /// (for a shared pipeline, what its writer's open cut off).
    pub torn: bool,
}

impl Snapshot {
    /// Derive a snapshot from a loaded pipeline. An empty pipeline is
    /// an error unless `allow_empty`, in which case the snapshot has no
    /// derived state and answers every query `NOT_FOUND`.
    pub fn build(
        pipe: &RecoverablePipeline,
        adaptive: &AdaptiveThreshold,
        epoch: u64,
        allow_empty: bool,
    ) -> Result<Self> {
        let series = pipe.series().clone();
        let (matrix, modes) = if series.is_empty() {
            if !allow_empty {
                return Err(Error::EmptyInput("serve snapshot"));
            }
            (None, None)
        } else {
            let matrix = pipe
                .matrix()
                .cloned()
                .ok_or(Error::EmptyInput("similarity matrix"))?;
            let dendro = pipe.dendrogram().ok_or(Error::EmptyInput("dendrogram"))?;
            let choice = adaptive.choose(dendro)?;
            let modes = ModeAnalysis::from_choice(&matrix, &series.times(), &choice);
            (Some(matrix), Some(modes))
        };
        Ok(Snapshot {
            epoch,
            series,
            matrix,
            modes,
            panels: pipe.panels().to_vec(),
            weights: pipe.config().weights.clone(),
            torn: pipe.recovery_report().torn.is_some(),
        })
    }

    /// Resolve a query time to the observation covering it (the latest
    /// observation at or before `t`).
    pub fn resolve(&self, t: i64) -> Result<usize> {
        self.series
            .index_at_or_before(Timestamp::from_secs(t))
            .ok_or(Error::NoSuchTime(t))
    }

    fn not_found(t: i64) -> Reply {
        Reply::Error {
            code: ERR_NOT_FOUND,
            message: format!("no observation at or before t={t}"),
        }
    }

    /// Answer an Assign query.
    pub fn assign(&self, t: i64, network: u32) -> Reply {
        let Ok(i) = self.resolve(t) else {
            return Self::not_found(t);
        };
        let v = self.series.get(i);
        let n = network as usize;
        if n >= v.len() {
            return Reply::Error {
                code: ERR_UNAVAILABLE,
                message: format!("network {n} out of range for {} slots", v.len()),
            };
        }
        let c = v.get(n);
        Reply::Assign {
            time: v.time().as_secs(),
            code: c.code(),
            label: c.display(self.series.sites()).to_string(),
        }
    }

    /// Answer a Similarity query.
    pub fn similarity(&self, t: i64, u: i64) -> Reply {
        let (Ok(i), Ok(j)) = (self.resolve(t), self.resolve(u)) else {
            return Self::not_found(if self.resolve(t).is_err() { t } else { u });
        };
        let Some(matrix) = &self.matrix else {
            // Unreachable once resolve() succeeded, but fail typed.
            return Self::not_found(t);
        };
        match matrix.get_checked(i, j) {
            Ok(phi) => Reply::Similarity {
                t: self.series.get(i).time().as_secs(),
                u: self.series.get(j).time().as_secs(),
                phi,
            },
            Err(e) => Reply::Error {
                code: ERR_UNAVAILABLE,
                message: e.to_string(),
            },
        }
    }

    /// Answer a Mode query.
    pub fn mode(&self, t: i64) -> Reply {
        let Ok(i) = self.resolve(t) else {
            return Self::not_found(t);
        };
        let Some(modes) = &self.modes else {
            return Self::not_found(t);
        };
        let label = modes.labels[i];
        let mode = &modes.modes[label];
        Reply::Mode {
            time: self.series.get(i).time().as_secs(),
            mode: mode.id as u64,
            threshold: modes.threshold,
            recurs: mode.recurs(),
            members: mode.members.len() as u64,
            intra_phi: mode.intra_phi,
        }
    }

    /// Answer a Transition query.
    pub fn transition(&self, t: i64, u: i64) -> Reply {
        let (Ok(i), Ok(j)) = (self.resolve(t), self.resolve(u)) else {
            return Self::not_found(if self.resolve(t).is_err() { t } else { u });
        };
        let num_sites = self.series.sites().len();
        match TransitionMatrix::compute_weighted(
            self.series.get(i),
            self.series.get(j),
            num_sites,
            &self.weights,
        ) {
            Ok(m) => Reply::Transition {
                from: self.series.get(i).time().as_secs(),
                to: self.series.get(j).time().as_secs(),
                num_sites: num_sites as u64,
                cells: m.cells().to_vec(),
            },
            Err(e) => Reply::Error {
                code: ERR_UNAVAILABLE,
                message: e.to_string(),
            },
        }
    }

    /// Answer a Latency query.
    pub fn latency(&self, t: i64) -> Reply {
        let Ok(i) = self.resolve(t) else {
            return Self::not_found(t);
        };
        let v = self.series.get(i);
        let Some(panel) = &self.panels[i] else {
            return Reply::Error {
                code: ERR_UNAVAILABLE,
                message: format!(
                    "no latency panel journaled for observation at t={}",
                    v.time().as_secs()
                ),
            };
        };
        let num_sites = self.series.sites().len();
        match LatencySummary::compute(v, panel, &self.weights, num_sites) {
            Ok(s) => {
                let per_site = s
                    .per_site
                    .iter()
                    .enumerate()
                    .filter_map(|(id, c)| {
                        Some(SiteLatency {
                            label: self
                                .series
                                .sites()
                                .name(fenrir_core::ids::SiteId(id as u16))
                                .to_string(),
                            mean_ms: c.mean_ms?,
                            p50_ms: c.p50_ms?,
                            p90_ms: c.p90_ms?,
                            samples: c.samples as u64,
                        })
                    })
                    .collect();
                Reply::Latency {
                    time: s.time.as_secs(),
                    overall_mean_ms: s.overall_mean_ms,
                    per_site,
                }
            }
            Err(e) => Reply::Error {
                code: ERR_UNAVAILABLE,
                message: e.to_string(),
            },
        }
    }

    /// Answer a Health query (`replica`, `stale`, and `draining` are
    /// filled in by the server — they are properties of the serving
    /// process, not of the snapshot).
    pub fn health(&self, replica: u64, stale: bool, draining: bool) -> Reply {
        Reply::Health(HealthInfo {
            replica,
            epoch: self.epoch,
            observations: self.series.len() as u64,
            networks: self.series.networks() as u64,
            sites: self.series.sites().len() as u64,
            modes: self.modes.as_ref().map_or(0, |m| m.modes.len() as u64),
            threshold: self.modes.as_ref().map_or(0.0, |m| m.threshold),
            torn: self.torn,
            stale,
            draining,
        })
    }
}

/// Where a [`ModeStore`] loads snapshots from.
enum Source {
    /// A local pipeline journal file, polled by length.
    File(PathBuf),
    /// An object tier holding sealed epochs, polled by the manifest's
    /// latest generation. The store never needs the writer's hot tail —
    /// it serves whatever epoch the tier has committed.
    Tier {
        store: Arc<dyn Storage>,
        prefix: String,
        retry: RetryPolicy,
    },
    /// A pipeline in memory shared with its writer, polled by its
    /// observation count.
    Pipeline(Arc<Mutex<RecoverablePipeline>>),
}

impl Source {
    /// The change mark: the journal file's byte length (one `stat`),
    /// the tier manifest's latest generation (one object `get`), or the
    /// shared pipeline's observation count. A tier without a manifest
    /// has no epoch to serve: `EmptyInput`.
    fn mark(&self) -> Result<u64> {
        match self {
            Source::File(path) => {
                std::fs::metadata(path)
                    .map(|m| m.len())
                    .map_err(|e| Error::Internal {
                        what: "journal metadata",
                        message: format!("{}: {e}", path.display()),
                    })
            }
            Source::Tier {
                store,
                prefix,
                retry,
            } => {
                let key = manifest_key(prefix);
                let bytes = retry
                    .run("serve manifest get", || store.get(&key))?
                    .ok_or(Error::EmptyInput("sealed tier epoch"))?;
                Ok(Manifest::decode(&bytes)?.latest_gen())
            }
            Source::Pipeline(pipe) => Ok(pipe.lock().series().len() as u64),
        }
    }

    /// Load the source and build its snapshot as `epoch`.
    ///
    /// A shared pipeline builds under its lock and may be empty. A file
    /// or tier is loaded read-only and must hold an observation
    /// (`EmptyInput` otherwise). When the store already serves `served`
    /// observations, a file or tier whose torn tail offers no more than
    /// those is refused: keep the richer last-good epoch rather than
    /// swap to a recovered prefix that may have *lost* observations. A
    /// torn tail beyond the current horizon still ships the clean
    /// prefix (progress beats purity).
    fn load(&self, epoch: u64, served: Option<usize>) -> Result<Snapshot> {
        let adaptive = AdaptiveThreshold::default();
        let pipe = match self {
            Source::File(path) => RecoverablePipeline::open_read_only(path)?,
            Source::Tier {
                store,
                prefix,
                retry,
            } => RecoverablePipeline::hydrate_read_only(store.as_ref(), prefix, retry)?,
            Source::Pipeline(pipe) => {
                return Snapshot::build(&pipe.lock(), &adaptive, epoch, true);
            }
        };
        if let Some(served) = served {
            if pipe.recovery_report().torn.is_some() && pipe.series().len() <= served {
                return Err(Error::Corrupted {
                    what: "journal reload",
                    offset: pipe.recovery_report().clean_bytes,
                    message: format!(
                        "torn tail with no new observations ({served} loaded, {} recovered)",
                        pipe.series().len()
                    ),
                });
            }
        }
        Snapshot::build(&pipe, &adaptive, epoch, false)
    }
}

/// Sharded, hot-reloadable snapshot store.
pub struct ModeStore {
    /// The snapshot source. Behind a mutex both to serialise loads
    /// (queries never touch it) and because [`ModeStore::rotate`] can
    /// repoint a file-backed store at a new journal live.
    source: Mutex<Source>,
    shards: [RwLock<Arc<Snapshot>>; SHARDS],
    epoch: AtomicU64,
    /// The source's change mark, read before the served snapshot was
    /// loaded.
    loaded_mark: AtomicU64,
    reloads: AtomicU64,
    reload_failures: AtomicU64,
    stale: AtomicBool,
    /// Derived-answer cache, epoch-keyed.
    pub cache: QueryCache,
    /// When the served snapshot was last (re)built — the initial load
    /// counts, so `reload_age` is meaningful before any hot reload.
    last_reload_at: Mutex<Instant>,
    /// How long the last successful (re)load took, in microseconds.
    last_reload_us: AtomicU64,
    /// Storage-tier retry pressure (always present; only a tier source
    /// feeds it).
    retry_stats: Arc<RetryStats>,
}

impl ModeStore {
    /// Open a journal file read-only and build the initial snapshot. A
    /// journal without observations is refused with `EmptyInput`; only
    /// a shared pipeline ([`ModeStore::over`]) serves an empty state.
    pub fn open(path: &Path) -> Result<Self> {
        Self::open_source(Source::File(path.to_path_buf()))
    }

    /// Hydrate the initial snapshot from an object tier's latest sealed
    /// epoch and keep polling the tier's manifest for newer ones.
    ///
    /// This is the tier-only bootstrap: the replica never touches the
    /// writer's hot journal file. Everything it serves comes from
    /// sealed segments under `prefix`, so a fresh host can join a
    /// replica set with nothing but object-store credentials. The
    /// manifest's latest generation is read before the epoch is
    /// hydrated, so an epoch sealed in between is served on the next
    /// poll. Once serving, an unreachable or stale tier degrades the
    /// store (see [`ModeStore::maybe_reload`]) rather than killing it.
    pub fn open_tiered(store: Arc<dyn Storage>, prefix: &str, retry: RetryPolicy) -> Result<Self> {
        let stats = Arc::new(RetryStats::default());
        let source = Source::Tier {
            store,
            prefix: prefix.to_string(),
            retry: retry.with_stats(Arc::clone(&stats)),
        };
        let mut ms = Self::open_source(source)?;
        ms.retry_stats = stats;
        Ok(ms)
    }

    /// Serve a pipeline in memory that its holder may keep writing —
    /// a stream server's ingestor. Each poll reads the observation
    /// count and, when it moved, builds the next snapshot from memory
    /// under the pipeline's lock; no journal bytes are re-read, and a
    /// pipeline that nobody writes never reloads. An empty pipeline (a
    /// freshly created stream) is served: every query answers
    /// `NOT_FOUND` until it grows.
    pub fn over(pipe: Arc<Mutex<RecoverablePipeline>>) -> Result<Self> {
        Self::open_source(Source::Pipeline(pipe))
    }

    /// Read `source`'s mark, then load it and build the initial snapshot.
    fn open_source(source: Source) -> Result<Self> {
        let mark = source.mark()?;
        let snap = Arc::new(source.load(0, None)?);
        Ok(ModeStore {
            source: Mutex::new(source),
            shards: std::array::from_fn(|_| RwLock::new(Arc::clone(&snap))),
            epoch: AtomicU64::new(0),
            loaded_mark: AtomicU64::new(mark),
            reloads: AtomicU64::new(0),
            reload_failures: AtomicU64::new(0),
            stale: AtomicBool::new(false),
            cache: QueryCache::new(CACHE_CAPACITY),
            last_reload_at: Mutex::new(Instant::now()),
            last_reload_us: AtomicU64::new(0),
            retry_stats: Arc::new(RetryStats::default()),
        })
    }

    /// The current snapshot; `hint` (e.g. a worker id) spreads readers
    /// across lock shards.
    pub fn snapshot(&self, hint: usize) -> Arc<Snapshot> {
        Arc::clone(&self.shards[hint % SHARDS].read())
    }

    /// Current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Hot reloads performed.
    pub fn reloads(&self) -> u64 {
        self.reloads.load(Ordering::SeqCst)
    }

    /// Reload attempts that failed and left the store serving its
    /// last-good epoch.
    pub fn reload_failures(&self) -> u64 {
        self.reload_failures.load(Ordering::SeqCst)
    }

    /// Whether the served snapshot is stale: the most recent reload
    /// attempt failed and the store degraded to its last-good epoch.
    pub fn stale(&self) -> bool {
        self.stale.load(Ordering::SeqCst)
    }

    /// Time since the served snapshot was last (re)built. Exported as
    /// `fenrir_store_reload_age_seconds` so a scrape can spot a replica
    /// that has silently stopped following its source.
    pub fn reload_age(&self) -> Duration {
        self.last_reload_at.lock().elapsed()
    }

    /// How long the last successful reload took, in microseconds (0
    /// until the first hot reload).
    pub fn last_reload_duration_us(&self) -> u64 {
        self.last_reload_us.load(Ordering::SeqCst)
    }

    /// Storage-tier retry pressure for this store's source (always
    /// zero unless the source is an object tier).
    pub fn retry_stats(&self) -> &Arc<RetryStats> {
        &self.retry_stats
    }

    /// If the source has changed since the last load (or the store is
    /// marked stale), rebuild and swap in a fresh snapshot. Returns
    /// whether a reload happened.
    ///
    /// The change mark is read before the load and recorded with the
    /// snapshot, so a frame, epoch or observation committed while the
    /// load runs moves the mark past the recorded one and the next poll
    /// reloads.
    ///
    /// This is the graceful-degradation seam: a reload that fails —
    /// the file vanished, the header is corrupt, the tail is torn
    /// without offering any *new* observations, or the object tier is
    /// unreachable — keeps the last-good snapshot in every shard,
    /// marks the store [`ModeStore::stale`], counts a
    /// [`ModeStore::reload_failures`], and returns the error. Queries
    /// keep being answered from the old epoch throughout; the next
    /// poll retries (and a marked-stale store retries even if the
    /// change mark matches, so a repaired source clears the flag).
    ///
    /// Cheap when nothing changed: one `stat` call for a file source,
    /// one manifest fetch for a tier source, one lock for a shared
    /// pipeline. Concurrent callers serialise on an internal lock;
    /// queries never wait on it.
    pub fn maybe_reload(&self) -> Result<bool> {
        self.reload(false)
    }

    /// Reload from the source now, even when the change mark says
    /// nothing is new — the admin `ForceReload` command. Degrades
    /// exactly like [`ModeStore::maybe_reload`] on failure.
    pub fn force_reload(&self) -> Result<()> {
        self.reload(true).map(|_| ())
    }

    fn reload(&self, force: bool) -> Result<bool> {
        let source = self.source.lock();
        let started = Instant::now();
        let mark = source.mark().map_err(|e| self.degrade(e))?;
        if !force && mark == self.loaded_mark.load(Ordering::SeqCst) && !self.stale() {
            return Ok(false);
        }
        let served = self.snapshot(0).series.len();
        let snap = source
            .load(self.epoch() + 1, Some(served))
            .map_err(|e| self.degrade(e))?;
        self.publish(snap, mark, started);
        Ok(true)
    }

    /// Repoint a file-backed store at a new journal and load it — the
    /// admin `Rotate` command. Validate-then-commit: a missing or
    /// corrupt journal is an error reply and the old journal keeps
    /// serving, **without** marking the store stale (an operator typo
    /// is not a source fault).
    pub fn rotate(&self, path: &Path) -> Result<()> {
        let mut source = self.source.lock();
        if !matches!(*source, Source::File(_)) {
            return Err(Error::Config {
                name: "rotate",
                message: "rotate requires a file-backed store".into(),
            });
        }
        let started = Instant::now();
        let next = Source::File(path.to_path_buf());
        let mark = next.mark()?;
        self.publish(next.load(self.epoch() + 1, None)?, mark, started);
        *source = next;
        Ok(())
    }

    /// Install the next epoch's snapshot in every shard under change
    /// mark `mark`, then sweep dead-epoch cache entries so the LRU
    /// capacity is fully available to the new epoch — stale entries
    /// can never be served (the cache key carries the epoch) but left
    /// in place they squat on capacity and depress the hit rate until
    /// eviction churn clears them.
    fn publish(&self, snap: Snapshot, mark: u64, started: Instant) {
        let epoch = snap.epoch;
        let snap = Arc::new(snap);
        for shard in &self.shards {
            *shard.write() = Arc::clone(&snap);
        }
        self.epoch.store(epoch, Ordering::SeqCst);
        self.loaded_mark.store(mark, Ordering::SeqCst);
        self.reloads.fetch_add(1, Ordering::SeqCst);
        self.stale.store(false, Ordering::SeqCst);
        self.cache.purge(epoch);
        self.last_reload_us
            .store(started.elapsed().as_micros() as u64, Ordering::SeqCst);
        *self.last_reload_at.lock() = Instant::now();
    }

    /// Record a failed reload: the last-good snapshot stays in place.
    fn degrade(&self, e: Error) -> Error {
        self.reload_failures.fetch_add(1, Ordering::SeqCst);
        self.stale.store(true, Ordering::SeqCst);
        e
    }
}
