//! The tiered journal: hot tail on local disk, sealed epochs in the
//! object tier, cold epochs hydrated on demand.
//!
//! A long-running campaign's journal grows without bound, and all of it
//! lives on one disk. The tiered journal pushes the full logical state
//! at each seal — an **epoch**: a campaign sink's folded snapshot, or a
//! pipeline's meta frame and every observation's frames — to an object
//! store as an immutable, checksummed FNRJ segment, recorded in a
//! checksummed [`Manifest`], and keeps only a tiny hot tail locally: one
//! [`KIND_TIER_BASE`] frame naming the epoch the tail extends, plus the
//! deltas appended since that seal.
//!
//! ## The seal protocol and its crash points
//!
//! [`TieredJournal::seal`] commits in three ordered steps:
//!
//! 1. `put` the new epoch's segment at `{prefix}/segments/seg-<gen>`;
//! 2. `put` the manifest now referencing it — **the commit point**;
//! 3. rewrite the local hot tail to a single base frame for `<gen>`.
//!
//! A crash (or retry exhaustion) between any two steps recovers to
//! exactly the old epoch or the new one, never a mix:
//!
//! * after 1, before 2 — the manifest never mentions the new segment;
//!   [`TieredJournal::open`] sees `manifest.latest == hot base` and
//!   resumes the old epoch with its deltas intact. The orphan segment
//!   is harmless: the next seal of that generation overwrites it, and
//!   [`TieredJournal::gc_orphans`] can reclaim it.
//! * after 2, before 3 — the manifest's latest generation is *ahead* of
//!   the hot tail's base. The deltas still sitting in the tail are by
//!   construction already in that newer epoch (a seal always seals the
//!   full logical state), so `open` finishes the interrupted step 3:
//!   it resets the tail and serves the new epoch.
//!
//! Eventual visibility adds one more wrinkle: right after a seal, a
//! reader may still be served the *previous* manifest. The hot tail's
//! base generation is local ground truth, so `open` treats a manifest
//! older than the tail's promise as a retryable condition and leans on
//! [`RetryPolicy`] until the committed manifest becomes visible.

use super::{
    open_record, seal_record, storage_err, validate_key, CasOutcome, RetryPolicy, Storage,
};
use crate::journal::{self, codec, Frame, Journal, RecoveryReport};
use fenrir_core::error::{Error, Result};
use fenrir_wire::checksum::internet_checksum;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Frame kind of the hot tail's base marker. Its payload is the u64 LE
/// generation of the sealed epoch the tail extends. Kept below every
/// consumer range (campaign frames 0x10+, pipeline frames 0x20+) so it
/// can never collide with a payload frame.
pub const KIND_TIER_BASE: u16 = 0x0F;

/// First four bytes of an encoded manifest.
pub const MANIFEST_MAGIC: [u8; 4] = *b"FNRM";
/// Current manifest format version. Version 2 added the fencing epoch
/// after the version word; version-1 manifests still decode (with
/// `fence = 0`, i.e. "never fenced") so pre-failover tiers open
/// unchanged, but every write re-encodes at the current version.
pub const MANIFEST_VERSION: u16 = 2;

/// The manifest object's key under a tier prefix.
pub fn manifest_key(prefix: &str) -> String {
    format!("{prefix}/manifest")
}

/// The segment object's key for epoch `gen` under a tier prefix.
pub fn segment_key(prefix: &str, gen: u64) -> String {
    format!("{prefix}/segments/seg-{gen:08}")
}

/// The segment key a **fenced** writer seals under: qualified by its
/// fencing epoch so a deposed leader's in-flight segment put lands on
/// its own key instead of clobbering the committed segment the new
/// leader's manifest references. Readers never compute this — they
/// fetch whatever key the manifest entry records.
pub fn fenced_segment_key(prefix: &str, gen: u64, fence: u64) -> String {
    format!("{prefix}/segments/seg-{gen:08}.{fence:08}")
}

/// One sealed epoch as the manifest records it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentEntry {
    /// Epoch generation (1-based; 0 means "nothing sealed yet").
    pub gen: u64,
    /// Object key of the segment.
    pub key: String,
    /// Exact segment length in bytes.
    pub len: u64,
    /// Internet checksum of the whole segment object.
    pub sum: u16,
    /// Frame count inside the segment.
    pub frames: u32,
}

/// The checksummed index of sealed epochs, stored as one object so its
/// replacement is atomic per the [`Storage`] contract.
///
/// ```text
/// manifest := magic "FNRM" | version u16 LE | fence u64 LE
///             | count u32 LE | entry* | sum u16 LE
/// entry    := gen u64 LE | len u64 LE | frames u32 LE | seg_sum u16 LE
///             | key_len u16 LE | key (key_len bytes, UTF-8)
/// ```
///
/// (Version 1 had no `fence` word; it decodes with `fence = 0`.)
///
/// `sum` is the internet checksum over every preceding byte, so a
/// torn or bit-flipped manifest is detected before any segment it
/// names is trusted.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Manifest {
    /// The fencing epoch stamped by the newest leader to claim this
    /// tier (0 = never fenced). A fenced writer commits the manifest
    /// only through [`Storage::put_if`] against the exact bytes it last
    /// observed, so any commit carrying a lower fence than the stored
    /// one is refused at the compare — a deposed leader's seal can
    /// never overwrite the new leader's history.
    pub fence: u64,
    /// Sealed epochs in ascending generation order.
    pub entries: Vec<SegmentEntry>,
}

impl Manifest {
    /// Generation of the newest sealed epoch (0 when none).
    pub fn latest_gen(&self) -> u64 {
        self.entries.last().map_or(0, |e| e.gen)
    }

    /// The entry for epoch `gen`, if sealed.
    pub fn entry(&self, gen: u64) -> Option<&SegmentEntry> {
        self.entries.iter().find(|e| e.gen == gen)
    }

    /// Serialize with the trailing checksum.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        codec::put_u16(&mut body, MANIFEST_VERSION);
        codec::put_u64(&mut body, self.fence);
        codec::put_u32(&mut body, self.entries.len() as u32);
        for e in &self.entries {
            codec::put_u64(&mut body, e.gen);
            codec::put_u64(&mut body, e.len);
            codec::put_u32(&mut body, e.frames);
            codec::put_u16(&mut body, e.sum);
            codec::put_short_str(&mut body, &e.key);
        }
        seal_record(MANIFEST_MAGIC, &body)
    }

    /// Decode and verify a manifest object; any structural or checksum
    /// failure is [`Error::Corrupted`] — a manifest is never partially
    /// trusted.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut d = open_record(bytes, MANIFEST_MAGIC, "tier manifest")?;
        let fence = match d.u16()? {
            1 => 0, // version 1 had no fence word
            MANIFEST_VERSION => d.u64()?,
            version => {
                return Err(d.corrupt(format!(
                    "unsupported version {version} (this build reads 1..={MANIFEST_VERSION})"
                )))
            }
        };
        let count = d.u32()?;
        let mut entries: Vec<SegmentEntry> = Vec::new();
        for _ in 0..count {
            let (gen, len, frames, sum) = (d.u64()?, d.u64()?, d.u32()?, d.u16()?);
            let key = d.short_str()?;
            if entries.last().is_some_and(|p| p.gen >= gen) {
                return Err(d.corrupt(format!("generation {gen} out of order in manifest")));
            }
            entries.push(SegmentEntry {
                gen,
                key,
                len,
                frames,
                sum,
            });
        }
        d.finish()?;
        Ok(Manifest { fence, entries })
    }
}

/// Hot local tail + sealed epochs in an object tier. See the module
/// docs for the seal protocol and crash-recovery argument.
pub struct TieredJournal {
    hot: Journal,
    hot_path: PathBuf,
    base_gen: u64,
    store: Arc<dyn Storage>,
    prefix: String,
    retry: RetryPolicy,
    manifest: Manifest,
    /// The manifest bytes as last observed in the tier (`None` = no
    /// manifest object yet). The compare side of every fenced commit:
    /// a conditional put against these exact bytes fails iff someone
    /// else wrote the manifest since we read it.
    manifest_bytes: Option<Vec<u8>>,
    /// The fencing epoch this writer holds, when operating as a fenced
    /// leader. `None` = legacy single-writer mode: seals use plain
    /// puts, byte-for-byte the pre-fencing behaviour.
    fence: Option<u64>,
}

impl std::fmt::Debug for TieredJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TieredJournal")
            .field("hot_path", &self.hot_path)
            .field("base_gen", &self.base_gen)
            .field("prefix", &self.prefix)
            .field("sealed_epochs", &self.manifest.entries.len())
            .finish_non_exhaustive()
    }
}

/// Split a recovered hot tail into its base generation and delta
/// frames. A base frame anywhere but first, or with a malformed
/// payload, is corruption — appends can never produce one.
fn split_base(frames: Vec<Frame>) -> Result<(u64, Vec<Frame>)> {
    let mut iter = frames.into_iter();
    let (base, mut deltas): (u64, Vec<Frame>) = match iter.next() {
        Some(f) if f.kind == KIND_TIER_BASE => {
            let bytes: [u8; 8] = f
                .payload
                .as_slice()
                .try_into()
                .map_err(|_| Error::Corrupted {
                    what: "tier base frame",
                    offset: 0,
                    message: format!("base payload is {} bytes, expected 8", f.payload.len()),
                })?;
            (u64::from_le_bytes(bytes), Vec::new())
        }
        Some(f) => (0, vec![f]),
        None => (0, Vec::new()),
    };
    for f in iter {
        if f.kind == KIND_TIER_BASE {
            return Err(Error::Corrupted {
                what: "tier base frame",
                offset: 0,
                message: "base frame found after the first position".into(),
            });
        }
        deltas.push(f);
    }
    Ok((base, deltas))
}

/// Fetch and verify one sealed segment, returning its frames.
fn fetch_segment(
    store: &dyn Storage,
    retry: &RetryPolicy,
    entry: &SegmentEntry,
) -> Result<Vec<Frame>> {
    let bytes = retry.run("segment fetch", || match store.get(&entry.key)? {
        Some(b) => Ok(b),
        // The manifest names it, so the put happened; invisibility is
        // the backend's bounded lag, not absence.
        None => Err(storage_err(
            "get",
            entry.key.clone(),
            true,
            "sealed segment not visible yet",
        )),
    })?;
    if bytes.len() as u64 != entry.len || internet_checksum(&bytes) != entry.sum {
        return Err(Error::Corrupted {
            what: "tier segment",
            offset: 0,
            message: format!(
                "segment {} fails verification: {} bytes (manifest says {}), checksum {:#06x} (manifest says {:#06x})",
                entry.key,
                bytes.len(),
                entry.len,
                internet_checksum(&bytes),
                entry.sum
            ),
        });
    }
    let (frames, report) = Journal::decode(&bytes)?;
    if !report.is_clean() || frames.len() as u32 != entry.frames {
        return Err(Error::Corrupted {
            what: "tier segment",
            offset: report.clean_bytes,
            message: format!(
                "segment {} decoded {} clean frames, manifest says {}",
                entry.key,
                frames.len(),
                entry.frames
            ),
        });
    }
    Ok(frames)
}

/// Hydrate the newest sealed epoch under `prefix` directly from the
/// object tier — no local hot tail required. This is how a serving
/// replica bootstraps from the tier alone: `Ok(None)` means the tier
/// answered and nothing has been sealed yet; errors are typed
/// (retryable storage failures already retried per `retry`).
pub fn hydrate_latest(
    store: &dyn Storage,
    prefix: &str,
    retry: &RetryPolicy,
) -> Result<Option<(u64, Vec<Frame>)>> {
    validate_key("hydrate", prefix)?;
    let key = manifest_key(prefix);
    let Some(bytes) = retry.run("manifest fetch", || store.get(&key))? else {
        return Ok(None);
    };
    let manifest = Manifest::decode(&bytes)?;
    let Some(entry) = manifest.entries.last() else {
        return Ok(None);
    };
    let frames = fetch_segment(store, retry, entry)?;
    Ok(Some((entry.gen, frames)))
}

impl TieredJournal {
    /// Open (or create) a tiered journal: recover the local hot tail,
    /// load the manifest (retrying past eventual-visibility staleness),
    /// finish any seal that crashed after its commit point, and return
    /// the full logical frame set — the current epoch's sealed frames
    /// followed by the hot deltas.
    pub fn open(
        hot_path: &Path,
        store: Arc<dyn Storage>,
        prefix: &str,
        retry: RetryPolicy,
    ) -> Result<(Self, Vec<Frame>, RecoveryReport)> {
        validate_key("open", prefix)?;
        retry.validate()?;
        let (mut hot, hot_frames, report) = Journal::open(hot_path)?;
        let (mut base_gen, mut deltas) = split_base(hot_frames)?;
        let key = manifest_key(prefix);
        let (manifest, manifest_bytes) =
            retry.run("manifest fetch", || match store.get(&key)? {
                None if base_gen == 0 => Ok((Manifest::default(), None)),
                None => Err(storage_err(
                    "get",
                    key.clone(),
                    true,
                    format!("manifest not visible yet (hot tail expects generation {base_gen})"),
                )),
                Some(bytes) => {
                    let m = Manifest::decode(&bytes)?;
                    if m.latest_gen() < base_gen {
                        // The tail was reset only after a manifest put
                        // succeeded, so a manifest older than the tail's
                        // promise is a stale read, not the truth.
                        Err(storage_err(
                            "get",
                            key.clone(),
                            true,
                            format!(
                                "stale manifest: latest generation {} behind hot tail's {base_gen}",
                                m.latest_gen()
                            ),
                        ))
                    } else {
                        Ok((m, Some(bytes)))
                    }
                }
            })?;
        if manifest.latest_gen() > base_gen {
            // A seal committed its manifest but crashed before resetting
            // the tail. The deltas here are already in that newer epoch,
            // so finishing the reset discards nothing.
            let gen = manifest.latest_gen();
            hot.rewrite(&[(KIND_TIER_BASE, gen.to_le_bytes().to_vec())])?;
            base_gen = gen;
            deltas.clear();
        }
        let mut frames = match manifest.entry(base_gen) {
            Some(entry) => fetch_segment(store.as_ref(), &retry, entry)?,
            None if base_gen == 0 => Vec::new(),
            None => {
                return Err(Error::Corrupted {
                    what: "tier manifest",
                    offset: 0,
                    message: format!("manifest has no entry for hot tail generation {base_gen}"),
                })
            }
        };
        frames.extend(deltas);
        Ok((
            TieredJournal {
                hot,
                hot_path: hot_path.to_path_buf(),
                base_gen,
                store,
                prefix: prefix.to_string(),
                retry,
                manifest,
                manifest_bytes,
                fence: None,
            },
            frames,
            report,
        ))
    }

    /// Claim this tier under fencing epoch `epoch`: stamp the manifest
    /// with the new fence via conditional put, after which every seal
    /// from this journal also commits conditionally and any writer
    /// still holding a lower epoch is refused at the compare.
    ///
    /// Conflict handling follows adopt-and-retry: a conditional-put
    /// loss against a manifest whose fence is **at most** `epoch` means
    /// we raced a writer we outrank (or our own earlier attempt), so we
    /// adopt the observed bytes and retry the stamp. A stored fence
    /// **above** `epoch` means this claimant was itself deposed, which
    /// surfaces as [`Error::Fenced`] — deliberately not retryable.
    pub fn set_fence_epoch(&mut self, epoch: u64) -> Result<()> {
        let mkey = manifest_key(&self.prefix);
        loop {
            let mut next = self.manifest.clone();
            next.fence = epoch;
            let mbytes = next.encode();
            let outcome = self.retry.run("fence stamp", || {
                self.store
                    .put_if(&mkey, self.manifest_bytes.as_deref(), &mbytes)
            })?;
            match outcome {
                CasOutcome::Committed => {
                    self.manifest = next;
                    self.manifest_bytes = Some(mbytes);
                    self.fence = Some(epoch);
                    return Ok(());
                }
                CasOutcome::Conflict { actual } => self.adopt_conflict(actual, epoch)?,
            }
        }
    }

    /// Digest a conditional-put conflict: adopt the winner's manifest
    /// if we still outrank its fence, or report deposition if we don't.
    fn adopt_conflict(&mut self, actual: Option<Vec<u8>>, held: u64) -> Result<()> {
        let (observed, bytes) = match actual {
            Some(bytes) => (Manifest::decode(&bytes)?, Some(bytes)),
            None => (Manifest::default(), None),
        };
        if observed.fence > held {
            return Err(Error::Fenced {
                what: "manifest commit",
                held,
                current: observed.fence,
            });
        }
        if observed.latest_gen() < self.base_gen {
            // Our hot tail promises an epoch the observed manifest
            // lacks — a stale read can't reach put_if (strongly
            // consistent), so this is a regression we must not adopt.
            return Err(Error::Corrupted {
                what: "tier manifest",
                offset: 0,
                message: format!(
                    "conflicting manifest regressed to generation {} behind hot tail's {}",
                    observed.latest_gen(),
                    self.base_gen
                ),
            });
        }
        self.manifest = observed;
        self.manifest_bytes = bytes;
        Ok(())
    }

    /// Append one delta frame to the hot tail (durable locally before
    /// returning, like [`Journal::append`]).
    pub fn append(&mut self, kind: u16, payload: &[u8]) -> Result<()> {
        if kind == KIND_TIER_BASE {
            return Err(Error::InvalidParameter {
                name: "kind",
                message: format!(
                    "frame kind {KIND_TIER_BASE:#06x} is reserved for the tier base marker"
                ),
            });
        }
        self.hot.append(kind, payload)
    }

    /// Seal `frames` — the **full logical state**, e.g. a campaign
    /// sink's folded snapshot or a pipeline's observations — as the next
    /// epoch, then reset the hot tail.
    /// On success the logical journal content is exactly `frames`.
    ///
    /// Every storage failure path leaves the journal consistent: retry
    /// exhaustion on either put surfaces [`Error::Exhausted`] with the
    /// old epoch (hot deltas included) fully intact, at worst leaking
    /// one orphan segment that the next seal overwrites.
    pub fn seal(&mut self, frames: &[(u16, Vec<u8>)]) -> Result<u64> {
        for (kind, _) in frames {
            if *kind == KIND_TIER_BASE {
                return Err(Error::InvalidParameter {
                    name: "frames",
                    message: format!(
                        "frame kind {KIND_TIER_BASE:#06x} is reserved for the tier base marker"
                    ),
                });
            }
        }
        let gen = self.manifest.latest_gen().max(self.base_gen) + 1;
        let bytes = journal::encode_frames(frames)?;
        let key = match self.fence {
            None => segment_key(&self.prefix, gen),
            Some(e) => fenced_segment_key(&self.prefix, gen, e),
        };
        self.retry
            .run("segment seal", || self.store.put(&key, &bytes))?;
        let entry = SegmentEntry {
            gen,
            key,
            len: bytes.len() as u64,
            sum: internet_checksum(&bytes),
            frames: frames.len() as u32,
        };
        let mkey = manifest_key(&self.prefix);
        let next = match self.fence {
            None => {
                // Legacy single-writer mode: unconditional publish,
                // byte-for-byte the pre-fencing behaviour (and the same
                // chaos op ordinals, so pinned-seed suites replay).
                let mut next = self.manifest.clone();
                next.entries.push(entry);
                let mbytes = next.encode();
                self.retry
                    .run("manifest publish", || self.store.put(&mkey, &mbytes))?;
                self.manifest_bytes = Some(mbytes);
                next
            }
            Some(held) => loop {
                let mut next = self.manifest.clone();
                next.fence = held;
                next.entries.push(entry.clone());
                let mbytes = next.encode();
                let outcome = self.retry.run("manifest publish", || {
                    self.store
                        .put_if(&mkey, self.manifest_bytes.as_deref(), &mbytes)
                })?;
                match outcome {
                    CasOutcome::Committed => {
                        self.manifest_bytes = Some(mbytes);
                        break next;
                    }
                    // A conflict from a fence we outrank is adopted and
                    // the commit retried; a higher fence means this
                    // writer was deposed mid-seal and the new epoch is
                    // abandoned (at worst one orphan segment, exactly
                    // like a crash between steps 1 and 2).
                    CasOutcome::Conflict { actual } => {
                        self.adopt_conflict(actual, held)?;
                        if self.manifest.latest_gen() >= gen {
                            // A fenced outranked writer cannot commit
                            // (its compare fails against our stamp), so
                            // an adopted manifest already holding our
                            // generation means an unfenced writer is
                            // sharing the prefix — refuse to guess.
                            return Err(Error::Corrupted {
                                what: "tier manifest",
                                offset: 0,
                                message: format!(
                                    "generation {gen} was sealed concurrently by an unfenced writer"
                                ),
                            });
                        }
                    }
                }
            },
        };
        // Commit point passed: the epoch exists even if we crash here —
        // open() finishes this reset from the manifest.
        self.hot
            .rewrite(&[(KIND_TIER_BASE, gen.to_le_bytes().to_vec())])?;
        self.manifest = next;
        self.base_gen = gen;
        Ok(gen)
    }

    /// Re-read a cold epoch's frames from the object tier, verifying
    /// length and checksum against the manifest.
    pub fn hydrate_epoch(&self, gen: u64) -> Result<Vec<Frame>> {
        let entry = self
            .manifest
            .entry(gen)
            .ok_or_else(|| Error::InvalidParameter {
                name: "gen",
                message: format!("no sealed epoch with generation {gen}"),
            })?;
        fetch_segment(self.store.as_ref(), &self.retry, entry)
    }

    /// Delete segment objects newer than the manifest's latest
    /// generation — the at-most-one orphan a crashed seal can leave.
    /// Only the (single) writer may call this, and only once its own
    /// manifest view is current; a fresh `open` that raced a
    /// crashed-but-committed seal under eventual visibility could
    /// otherwise reclaim a referenced segment.
    pub fn gc_orphans(&self) -> Result<Vec<String>> {
        let latest = self.manifest.latest_gen();
        let dir = format!("{}/segments/", self.prefix);
        let keys = self.retry.run("segment list", || self.store.list(&dir))?;
        let mut gone = Vec::new();
        for key in keys {
            // Fenced keys carry a `.{fence}` suffix after the
            // generation; strip it before parsing.
            let orphan = key
                .rsplit("seg-")
                .next()
                .and_then(|g| g.split('.').next())
                .and_then(|g| g.parse::<u64>().ok())
                .is_some_and(|g| g > latest);
            if orphan {
                self.retry
                    .run("segment delete", || self.store.delete(&key))?;
                gone.push(key);
            }
        }
        Ok(gone)
    }

    /// Generation of the epoch the hot tail extends (0 before any seal).
    pub fn base_gen(&self) -> u64 {
        self.base_gen
    }

    /// The fencing epoch this writer holds (`None` = unfenced legacy
    /// single-writer mode). See [`TieredJournal::set_fence_epoch`].
    pub fn fence(&self) -> Option<u64> {
        self.fence
    }

    /// The current manifest of sealed epochs.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// The tier's key prefix.
    pub fn prefix(&self) -> &str {
        &self.prefix
    }

    /// The hot tail's local path.
    pub fn hot_path(&self) -> &Path {
        &self.hot_path
    }

    /// The hot tail's current bytes (base marker + deltas).
    pub fn hot_bytes(&self) -> &[u8] {
        self.hot.bytes()
    }

    /// The object-tier backend (e.g. to share with a serving replica).
    pub fn store(&self) -> &Arc<dyn Storage> {
        &self.store
    }
}

#[cfg(test)]
mod tests {
    use super::super::object::{ObjectChaos, ObjectSim};
    use super::*;
    use std::time::Duration;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fenrir-tiered-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn quick_retry() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 8,
            backoff_base: Duration::from_micros(50),
            backoff_max: Duration::from_micros(200),
            deadline: Duration::from_secs(2),
            seed: 7,
            stats: None,
        }
    }

    #[test]
    fn manifest_roundtrip_and_checksum_guard() {
        let m = Manifest {
            fence: 42,
            entries: vec![
                SegmentEntry {
                    gen: 1,
                    key: "tier/segments/seg-00000001".into(),
                    len: 123,
                    sum: 0xBEEF,
                    frames: 4,
                },
                SegmentEntry {
                    gen: 2,
                    key: "tier/segments/seg-00000002".into(),
                    len: 456,
                    sum: 0xCAFE,
                    frames: 9,
                },
            ],
        };
        let bytes = m.encode();
        assert_eq!(Manifest::decode(&bytes).unwrap(), m);
        // Any single bit flip is caught.
        let mut bad = bytes.clone();
        bad[13] ^= 0x40;
        assert!(matches!(
            Manifest::decode(&bad),
            Err(Error::Corrupted {
                what: "tier manifest",
                ..
            })
        ));
        // Out-of-order generations are structural corruption.
        let mut swapped = m.clone();
        swapped.entries.swap(0, 1);
        assert!(Manifest::decode(&swapped.encode()).is_err());
        assert_eq!(Manifest::default().latest_gen(), 0);
    }

    #[test]
    fn version_one_manifests_decode_as_never_fenced() {
        // Hand-build a v1 manifest (no fence word, count at byte 6) and
        // confirm a current build still opens pre-failover tiers.
        let m = Manifest {
            fence: 0,
            entries: vec![SegmentEntry {
                gen: 1,
                key: "tier/segments/seg-00000001".into(),
                len: 123,
                sum: 0xBEEF,
                frames: 4,
            }],
        };
        let v2 = m.encode();
        let mut body = 1u16.to_le_bytes().to_vec();
        body.extend_from_slice(&v2[14..v2.len() - 2]); // count + entries
        let v1 = seal_record(MANIFEST_MAGIC, &body);
        let decoded = Manifest::decode(&v1).unwrap();
        assert_eq!(decoded, m);
        // Unknown future versions stay hard errors.
        let mut v9 = v1.clone();
        v9[4] = 9;
        assert!(matches!(
            Manifest::decode(&v9),
            Err(Error::Corrupted {
                what: "tier manifest",
                ..
            })
        ));
    }

    #[test]
    fn fenced_seal_refuses_a_deposed_writer() {
        let dir = scratch("fence");
        let store: Arc<dyn Storage> = Arc::new(ObjectSim::new(ObjectChaos::none(17)).unwrap());
        let (mut old_leader, _, _) =
            TieredJournal::open(&dir.join("old.fnrj"), store.clone(), "tier", quick_retry())
                .unwrap();
        old_leader.set_fence_epoch(1).unwrap();
        assert_eq!(old_leader.fence(), Some(1));
        old_leader.seal(&[(0x12, b"epoch-1".to_vec())]).unwrap();
        assert_eq!(old_leader.manifest().fence, 1);

        // A new leader takes over from its own hot tail under a higher
        // fencing epoch.
        let (mut new_leader, frames, _) =
            TieredJournal::open(&dir.join("new.fnrj"), store.clone(), "tier", quick_retry())
                .unwrap();
        assert_eq!(frames[0].payload, b"epoch-1");
        new_leader.set_fence_epoch(2).unwrap();
        new_leader.seal(&[(0x12, b"epoch-2".to_vec())]).unwrap();

        // The deposed leader's next seal must be refused, not
        // interleaved — and must not touch the committed manifest.
        let err = old_leader.seal(&[(0x12, b"stale".to_vec())]).unwrap_err();
        assert!(
            matches!(
                err,
                Error::Fenced {
                    what: "manifest commit",
                    held: 1,
                    current: 2,
                }
            ),
            "expected a fencing refusal, got {err}"
        );
        let (gen, frames) = hydrate_latest(store.as_ref(), "tier", &quick_retry())
            .unwrap()
            .unwrap();
        assert_eq!(gen, 2);
        assert_eq!(frames[0].payload, b"epoch-2");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fence_stamp_adopts_lower_epochs_and_yields_to_higher_ones() {
        let dir = scratch("fence-race");
        let store: Arc<dyn Storage> = Arc::new(ObjectSim::new(ObjectChaos::none(19)).unwrap());
        let (mut a, _, _) =
            TieredJournal::open(&dir.join("a.fnrj"), store.clone(), "tier", quick_retry()).unwrap();
        let (mut b, _, _) =
            TieredJournal::open(&dir.join("b.fnrj"), store.clone(), "tier", quick_retry()).unwrap();
        // Both opened against an empty tier; A stamps first, then B's
        // stamp conflicts (its expectation is "no manifest"), adopts
        // A's bytes, and wins with the higher epoch.
        a.set_fence_epoch(3).unwrap();
        b.set_fence_epoch(4).unwrap();
        assert_eq!(b.manifest().fence, 4);
        // A trying to re-stamp its own (now lower) epoch is deposed.
        assert!(matches!(
            a.set_fence_epoch(3).unwrap_err(),
            Error::Fenced {
                held: 3,
                current: 4,
                ..
            }
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seal_then_reopen_serves_sealed_plus_deltas() {
        let dir = scratch("seal");
        let hot = dir.join("hot.fnrj");
        let store: Arc<dyn Storage> = Arc::new(ObjectSim::new(ObjectChaos::none(3)).unwrap());
        {
            let (mut tj, frames, _) =
                TieredJournal::open(&hot, store.clone(), "tier", quick_retry()).unwrap();
            assert!(frames.is_empty());
            tj.append(0x21, b"delta-1").unwrap();
            tj.append(0x21, b"delta-2").unwrap();
            let gen = tj.seal(&[(0x12, b"snapshot-of-1-and-2".to_vec())]).unwrap();
            assert_eq!(gen, 1);
            tj.append(0x21, b"delta-3").unwrap();
        }
        let (tj, frames, report) =
            TieredJournal::open(&hot, store.clone(), "tier", quick_retry()).unwrap();
        assert!(report.is_clean());
        assert_eq!(tj.base_gen(), 1);
        let got: Vec<(u16, &[u8])> = frames
            .iter()
            .map(|f| (f.kind, f.payload.as_slice()))
            .collect();
        assert_eq!(
            got,
            vec![
                (0x12, b"snapshot-of-1-and-2".as_slice()),
                (0x21, b"delta-3".as_slice()),
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cold_epochs_stay_hydratable() {
        let dir = scratch("cold");
        let hot = dir.join("hot.fnrj");
        let store: Arc<dyn Storage> = Arc::new(ObjectSim::new(ObjectChaos::none(5)).unwrap());
        let (mut tj, _, _) =
            TieredJournal::open(&hot, store.clone(), "tier", quick_retry()).unwrap();
        tj.seal(&[(0x12, b"epoch-1".to_vec())]).unwrap();
        tj.seal(&[(0x12, b"epoch-2".to_vec())]).unwrap();
        tj.seal(&[(0x12, b"epoch-3".to_vec())]).unwrap();
        assert_eq!(tj.manifest().entries.len(), 3);
        let old = tj.hydrate_epoch(1).unwrap();
        assert_eq!(old[0].payload, b"epoch-1");
        assert!(tj.hydrate_epoch(9).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_segment_is_a_typed_error() {
        let dir = scratch("corrupt");
        let hot = dir.join("hot.fnrj");
        let store = Arc::new(ObjectSim::new(ObjectChaos::none(1)).unwrap());
        let dyn_store: Arc<dyn Storage> = store.clone();
        let (mut tj, _, _) =
            TieredJournal::open(&hot, dyn_store.clone(), "tier", quick_retry()).unwrap();
        tj.seal(&[(0x12, b"epoch-1".to_vec())]).unwrap();
        // Flip a byte inside the stored segment behind the tier's back.
        let key = segment_key("tier", 1);
        let mut bytes = store.get(&key).unwrap().unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        store.put(&key, &bytes).unwrap();
        assert!(matches!(
            tj.hydrate_epoch(1),
            Err(Error::Corrupted {
                what: "tier segment",
                ..
            })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hydrate_latest_from_tier_alone() {
        let dir = scratch("hydrate");
        let hot = dir.join("hot.fnrj");
        let store: Arc<dyn Storage> = Arc::new(ObjectSim::new(ObjectChaos::none(11)).unwrap());
        assert_eq!(
            hydrate_latest(store.as_ref(), "tier", &quick_retry()).unwrap(),
            None
        );
        let (mut tj, _, _) =
            TieredJournal::open(&hot, store.clone(), "tier", quick_retry()).unwrap();
        tj.seal(&[(0x12, b"epoch-1".to_vec())]).unwrap();
        tj.seal(&[(0x12, b"epoch-2".to_vec())]).unwrap();
        let (gen, frames) = hydrate_latest(store.as_ref(), "tier", &quick_retry())
            .unwrap()
            .unwrap();
        assert_eq!(gen, 2);
        assert_eq!(frames[0].payload, b"epoch-2");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_reclaims_only_orphans() {
        let dir = scratch("gc");
        let hot = dir.join("hot.fnrj");
        let store = Arc::new(ObjectSim::new(ObjectChaos::none(13)).unwrap());
        let dyn_store: Arc<dyn Storage> = store.clone();
        let (mut tj, _, _) = TieredJournal::open(&hot, dyn_store, "tier", quick_retry()).unwrap();
        tj.seal(&[(0x12, b"epoch-1".to_vec())]).unwrap();
        // Fake the orphan a crashed seal would leave.
        store.put(&segment_key("tier", 2), b"half-sealed").unwrap();
        let gone = tj.gc_orphans().unwrap();
        assert_eq!(gone, vec![segment_key("tier", 2)]);
        assert!(store.get(&segment_key("tier", 1)).unwrap().is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
