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
//! 1. `put` the new epoch's segment at
//!    `{prefix}/segments/seg-<gen>.<fence>.<len>.<hash>`;
//! 2. compare-and-swap the manifest now referencing it against the
//!    manifest bytes last observed ([`Storage::put_if`]) — **the commit
//!    point**;
//! 3. rewrite the local hot tail to a single base frame for `<gen>`.
//!
//! Every writer commits this one way. A writer that never claimed a
//! fencing epoch ([`TieredJournal::set_fence_epoch`]) holds fence 0, and
//! no writer commits below the fence the manifest carries. A conditional
//! put neither sees nor leaves an eventual-visibility window, so the
//! manifest a later `open` reads is the one the last commit wrote.
//!
//! A crash (or retry exhaustion) between any two steps recovers to
//! exactly the old epoch or the new one, never a mix:
//!
//! * after 1, before 2 — the manifest never mentions the new segment;
//!   [`TieredJournal::open`] sees `manifest.latest == hot base` and
//!   resumes the old epoch with its deltas intact. The orphan stays in
//!   the tier, unreferenced: a later seal of that generation puts its
//!   own bytes under its own key (the key names the segment's length and
//!   hash), so no reader can be served the orphan in its place.
//! * after 2, before 3 — the manifest's latest generation is *ahead* of
//!   the hot tail's base. The deltas still sitting in the tail are by
//!   construction already in that newer epoch (a seal always seals the
//!   full logical state), so `open` fetches and verifies that epoch,
//!   then finishes the interrupted step 3: it resets the tail and serves
//!   the new epoch.
//!
//! The hot tail is reset only after a commit, so a manifest *behind*
//! the tail's base generation is corruption, not a stale read.

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
/// The manifest format version this build reads and writes.
pub const MANIFEST_VERSION: u16 = 2;

/// The manifest object's key under a tier prefix.
pub fn manifest_key(prefix: &str) -> String {
    format!("{prefix}/manifest")
}

/// The key a writer holding `fence` seals epoch `gen` with contents
/// `bytes` under. The fence in the key makes a deposed leader's in-flight
/// segment put land on its own key instead of clobbering the committed
/// segment the new leader's manifest references; the length and the
/// 64-bit FNV-1a hash of the bytes make a reseal of a generation whose
/// earlier seal never committed land beside that orphan, so a store that
/// still serves an older version of a key never serves the orphan's
/// bytes for it. Readers never compute this — they fetch whatever key
/// the manifest entry records.
pub fn segment_key(prefix: &str, gen: u64, fence: u64, bytes: &[u8]) -> String {
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    let len = bytes.len();
    format!("{prefix}/segments/seg-{gen:08}.{fence:08}.{len}.{hash:016x}")
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
/// `sum` is the internet checksum over every preceding byte, so a
/// torn or bit-flipped manifest is detected before any segment it
/// names is trusted.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Manifest {
    /// The fencing epoch stamped by the newest leader to claim this
    /// tier (0 = never fenced). Every writer commits the manifest only
    /// through [`Storage::put_if`] against the exact bytes it last
    /// observed, and refuses to commit while this is above the fence it
    /// holds — a deposed leader's seal can never overwrite the new
    /// leader's history.
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
        let version = d.u16()?;
        if version != MANIFEST_VERSION {
            return Err(d.corrupt(format!(
                "unsupported version {version} (this build reads {MANIFEST_VERSION})"
            )));
        }
        let fence = d.u64()?;
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
    /// manifest object yet). The compare side of every commit: a
    /// conditional put against these exact bytes fails iff someone else
    /// wrote the manifest since we read it.
    manifest_bytes: Option<Vec<u8>>,
    /// The fencing epoch this writer holds: 0 until
    /// [`TieredJournal::set_fence_epoch`] claims one. Every seal commits
    /// under it.
    fence: u64,
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

/// A structurally impossible manifest, as [`Error::Corrupted`].
fn manifest_corrupt(message: String) -> Error {
    Error::Corrupted {
        what: "tier manifest",
        offset: 0,
        message,
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
    /// load the manifest, finish any seal that crashed after its commit
    /// point, and return the full logical frame set — the current
    /// epoch's sealed frames followed by the hot deltas.
    pub fn open(
        hot_path: &Path,
        store: Arc<dyn Storage>,
        prefix: &str,
        retry: RetryPolicy,
    ) -> Result<(Self, Vec<Frame>, RecoveryReport)> {
        validate_key("open", prefix)?;
        retry.validate()?;
        let (mut hot, hot_frames, report) = Journal::open(hot_path)?;
        let (mut base_gen, deltas) = split_base(hot_frames)?;
        let key = manifest_key(prefix);
        let manifest_bytes = retry.run("manifest fetch", || store.get(&key))?;
        let manifest = match &manifest_bytes {
            Some(bytes) => Manifest::decode(bytes)?,
            None => Manifest::default(),
        };
        if manifest.latest_gen() < base_gen {
            return Err(manifest_corrupt(format!(
                "latest generation {} behind hot tail's {base_gen}",
                manifest.latest_gen()
            )));
        }
        let mut frames = match manifest.entries.last() {
            Some(entry) => fetch_segment(store.as_ref(), &retry, entry)?,
            None => Vec::new(),
        };
        if manifest.latest_gen() > base_gen {
            // A seal committed its manifest but crashed before resetting
            // the tail. The deltas here are already in that newer epoch,
            // verified above, so finishing the reset discards nothing.
            base_gen = manifest.latest_gen();
            hot.rewrite(&[(KIND_TIER_BASE, base_gen.to_le_bytes().to_vec())])?;
        } else {
            frames.extend(deltas);
        }
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
                fence: 0,
            },
            frames,
            report,
        ))
    }

    /// Claim this tier under fencing epoch `epoch`: stamp the manifest
    /// with the new fence, after which every seal from this journal
    /// commits under it and any writer still holding a lower epoch is
    /// refused at the compare. A stored fence above `epoch` means this
    /// claimant was itself deposed: [`Error::Fenced`], deliberately not
    /// retryable.
    pub fn set_fence_epoch(&mut self, epoch: u64) -> Result<()> {
        self.commit(epoch, None)?;
        self.fence = epoch;
        Ok(())
    }

    /// Publish the last observed manifest, stamped with `fence` and with
    /// `entry` appended, by conditional put against the observed bytes.
    ///
    /// A conflict means another writer committed since we looked: we
    /// adopt what it wrote and retry, as long as its fence is **at
    /// most** `fence` (a writer we outrank, or our own earlier attempt).
    /// A fence above ours is [`Error::Fenced`]. A conflicting manifest
    /// that lacks our hot tail's epoch, or already holds `entry`'s
    /// generation (another writer at our fence shares the prefix), is
    /// [`Error::Corrupted`].
    fn commit(&mut self, fence: u64, entry: Option<&SegmentEntry>) -> Result<()> {
        let key = manifest_key(&self.prefix);
        loop {
            if self.manifest.fence > fence {
                return Err(Error::Fenced {
                    what: "manifest commit",
                    held: fence,
                    current: self.manifest.fence,
                });
            }
            let mut next = self.manifest.clone();
            next.fence = fence;
            if let Some(entry) = entry {
                if next.latest_gen() >= entry.gen {
                    return Err(manifest_corrupt(format!(
                        "generation {} was sealed concurrently by another writer at fence {fence}",
                        entry.gen
                    )));
                }
                next.entries.push(entry.clone());
            }
            let bytes = next.encode();
            let outcome = self.retry.run("manifest commit", || {
                self.store
                    .put_if(&key, self.manifest_bytes.as_deref(), &bytes)
            })?;
            let actual = match outcome {
                CasOutcome::Committed => {
                    self.manifest = next;
                    self.manifest_bytes = Some(bytes);
                    return Ok(());
                }
                CasOutcome::Conflict { actual } => actual,
            };
            let observed = match &actual {
                Some(bytes) => Manifest::decode(bytes)?,
                None => Manifest::default(),
            };
            if observed.latest_gen() < self.base_gen {
                // put_if reads the true current bytes, so a manifest
                // lacking the epoch our hot tail extends is a regression
                // we must not adopt.
                return Err(manifest_corrupt(format!(
                    "conflicting manifest regressed to generation {} behind hot tail's {}",
                    observed.latest_gen(),
                    self.base_gen
                )));
            }
            self.manifest = observed;
            self.manifest_bytes = actual;
        }
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
    /// exhaustion on either put surfaces [`Error::Exhausted`], and a
    /// refused commit [`Error::Fenced`], with the old epoch (hot deltas
    /// included) fully intact, at worst leaking one orphan segment.
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
        let gen = self.manifest.latest_gen() + 1;
        let bytes = journal::encode_frames(frames)?;
        let key = segment_key(&self.prefix, gen, self.fence, &bytes);
        self.retry
            .run("segment seal", || self.store.put(&key, &bytes))?;
        let entry = SegmentEntry {
            gen,
            key,
            len: bytes.len() as u64,
            sum: internet_checksum(&bytes),
            frames: frames.len() as u32,
        };
        self.commit(self.fence, Some(&entry))?;
        // Commit point passed: the epoch exists even if we crash here —
        // open() finishes this reset from the manifest.
        self.hot
            .rewrite(&[(KIND_TIER_BASE, gen.to_le_bytes().to_vec())])?;
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

    /// Generation of the epoch the hot tail extends (0 before any seal).
    pub fn base_gen(&self) -> u64 {
        self.base_gen
    }

    /// The fencing epoch this writer holds (0 until
    /// [`TieredJournal::set_fence_epoch`] claims one).
    pub fn fence(&self) -> u64 {
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
        // Only the current version decodes, even under a valid checksum.
        for version in [1u16, 3] {
            let mut body = bytes[4..bytes.len() - 2].to_vec();
            body[..2].copy_from_slice(&version.to_le_bytes());
            assert!(matches!(
                Manifest::decode(&seal_record(MANIFEST_MAGIC, &body)),
                Err(Error::Corrupted {
                    what: "tier manifest",
                    ..
                })
            ));
        }
    }

    #[test]
    fn fenced_seal_refuses_a_deposed_writer() {
        let dir = scratch("fence");
        let store: Arc<dyn Storage> = Arc::new(ObjectSim::new(ObjectChaos::none(17)).unwrap());
        let (mut old_leader, _, _) =
            TieredJournal::open(&dir.join("old.fnrj"), store.clone(), "tier", quick_retry())
                .unwrap();
        old_leader.set_fence_epoch(1).unwrap();
        assert_eq!(old_leader.fence(), 1);
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
        let key = tj.manifest().entries[0].key.clone();
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
    fn an_unclaimed_writer_cannot_seal_a_fenced_tier() {
        let dir = scratch("unclaimed");
        let store: Arc<dyn Storage> = Arc::new(ObjectSim::new(ObjectChaos::none(23)).unwrap());
        let (mut leader, _, _) = TieredJournal::open(
            &dir.join("leader.fnrj"),
            store.clone(),
            "tier",
            quick_retry(),
        )
        .unwrap();
        leader.set_fence_epoch(2).unwrap();
        leader.seal(&[(0x12, b"epoch-1".to_vec())]).unwrap();

        // A writer that never claimed an epoch holds fence 0, below the
        // tier's: it must not commit, let alone lower the fence.
        let (mut writer, _, _) = TieredJournal::open(
            &dir.join("writer.fnrj"),
            store.clone(),
            "tier",
            quick_retry(),
        )
        .unwrap();
        let sealed = writer.seal(&[(0x12, b"unfenced".to_vec())]);
        assert!(
            matches!(
                sealed,
                Err(Error::Fenced {
                    held: 0,
                    current: 2,
                    ..
                })
            ),
            "an unclaimed seal on a fenced tier must be refused, got {sealed:?}"
        );
        let (gen, frames) = hydrate_latest(store.as_ref(), "tier", &quick_retry())
            .unwrap()
            .unwrap();
        assert_eq!(
            (gen, frames[0].payload.as_slice()),
            (1, b"epoch-1".as_slice())
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_unreadable_newer_epoch_keeps_the_hot_tail() {
        let dir = scratch("unreadable");
        let hot = dir.join("hot.fnrj");
        let sim = Arc::new(ObjectSim::new(ObjectChaos::none(29)).unwrap());
        let store: Arc<dyn Storage> = sim.clone();
        let (mut tj, _, _) =
            TieredJournal::open(&hot, store.clone(), "tier", quick_retry()).unwrap();
        tj.seal(&[(0x12, b"epoch-1".to_vec())]).unwrap();
        tj.append(0x21, b"delta").unwrap();
        // A seal that committed but died before resetting the tail...
        let tail = std::fs::read(&hot).unwrap();
        let gen = tj.seal(&[(0x12, b"epoch-2".to_vec())]).unwrap();
        let key = tj.manifest().entry(gen).unwrap().key.clone();
        drop(tj);
        std::fs::write(&hot, &tail).unwrap();
        // ...whose committed segment no longer verifies.
        let mut bytes = sim.get(&key).unwrap().unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        sim.put(&key, &bytes).unwrap();

        let opened = TieredJournal::open(&hot, store, "tier", quick_retry());
        assert!(matches!(
            opened,
            Err(Error::Corrupted {
                what: "tier segment",
                ..
            })
        ));
        assert_eq!(
            std::fs::read(&hot).unwrap(),
            tail,
            "open must verify the newer epoch before resetting the tail"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
