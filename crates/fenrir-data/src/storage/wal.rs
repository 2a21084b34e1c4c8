//! The fenced write-ahead log: the replicated ingest ack path.
//!
//! A single-node ingestor fsyncs its local journal before acking, so a
//! restart replays everything it promised. Replication breaks that
//! argument: the node that acked may never come back, and its local
//! disk with it. The fenced WAL moves the promise into the object
//! tier — an observation is ackable **iff** its record and a head
//! advance covering it are committed there — so any standby can
//! hydrate the tier, replay the WAL suffix, and own every ack the dead
//! leader ever issued.
//!
//! ## Objects
//!
//! * `{prefix}/wal/rec-{seq:08}` — one [`ObsRecord`] per acked
//!   sequence number, checksummed and stamped with the writer's
//!   fencing epoch.
//! * `{prefix}/wal/head` — the tiny head object: fencing epoch, record
//!   count `len`, and the truncation `floor`. **The head's conditional
//!   advance is the linearization point of the ack**: a `SubmitAck`
//!   leaves the leader only after the head names the record, so "was
//!   it acked?" has exactly one answer, readable by any successor.
//!
//! Both objects move only through [`Storage::put_if`], and every
//! mutation compares fencing epochs first. A leader deposed between
//! writing `rec-N` and advancing the head simply never acked N; the
//! record is an unreferenced orphan the new leader overwrites or
//! ignores. A leader deposed *after* advancing the head had its write
//! fully committed, and the successor replays it. There is no third
//! state — which is the whole claim: **zero acked-observation loss**.
//!
//! ## Fencing
//!
//! [`FencedWal::open`] claims the WAL for an epoch by CAS-rewriting
//! the head with the new fence (length preserved). From then on a
//! stale writer's head advance loses its compare — its expectation
//! bytes carry the old fence — and surfaces as [`Error::Fenced`],
//! *before* any ack is issued. The conditional put's strongly
//! consistent compare is what makes the open's view of `len`
//! trustworthy despite the backend's eventually consistent plain
//! reads.

use super::{
    open_record, seal_record, storage_err, validate_key, CasOutcome, RetryPolicy, Storage,
};
use crate::journal::codec;
use fenrir_core::error::{Error, Result};
use fenrir_core::health::CampaignHealth;
use std::sync::Arc;

/// First four bytes of an encoded WAL head.
pub const WAL_HEAD_MAGIC: [u8; 4] = *b"FNRW";
/// First four bytes of an encoded WAL record.
pub const WAL_RECORD_MAGIC: [u8; 4] = *b"FNRR";

/// The WAL head's key under a tier prefix.
pub fn head_key(prefix: &str) -> String {
    format!("{prefix}/wal/head")
}

/// The WAL record key for sequence number `seq` under a tier prefix.
pub fn record_key(prefix: &str, seq: u64) -> String {
    format!("{prefix}/wal/rec-{seq:08}")
}

/// One observation as the WAL stores it — exactly the fields a
/// `Submit` carries past sequencing, so a replayed record folds
/// bit-identically to the original submission.
///
/// ```text
/// record := magic "FNRR" | fence u64 LE | time i64 LE
///           | codes seq<u16> | health | sum u16 LE
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ObsRecord {
    /// Observation timestamp (seconds, as submitted).
    pub time: i64,
    /// Per-vantage-point routing codes.
    pub codes: Vec<u16>,
    /// The sweep's health record.
    pub health: CampaignHealth,
}

impl ObsRecord {
    /// Serialize under fencing epoch `fence`, with the trailing
    /// checksum.
    pub fn encode(&self, fence: u64) -> Vec<u8> {
        let mut body = Vec::new();
        codec::put_u64(&mut body, fence);
        codec::put_i64(&mut body, self.time);
        codec::put_seq(&mut body, &self.codes, |out, c| codec::put_u16(out, *c));
        codec::put_health(&mut body, &self.health);
        seal_record(WAL_RECORD_MAGIC, &body)
    }

    /// Decode a record object, returning it with the fencing epoch it
    /// was written under.
    pub fn decode(bytes: &[u8]) -> Result<(Self, u64)> {
        let mut d = open_record(bytes, WAL_RECORD_MAGIC, "wal record")?;
        let fence = d.u64()?;
        let time = d.i64()?;
        let n = d.seq_len(2)?;
        let codes = (0..n).map(|_| d.u16()).collect::<Result<Vec<_>>>()?;
        let health = codec::read_health(&mut d)?;
        d.finish()?;
        Ok((
            ObsRecord {
                time,
                codes,
                health,
            },
            fence,
        ))
    }
}

/// The head object's decoded fields.
///
/// ```text
/// head := magic "FNRW" | fence u64 LE | len u64 LE | floor u64 LE
///         | sum u16 LE
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalHead {
    /// Fencing epoch of the newest writer to claim this WAL.
    pub fence: u64,
    /// Count of acked records: `rec-0 .. rec-{len-1}` are all durable.
    pub len: u64,
    /// Lowest sequence number still present; records below it were
    /// truncated away after a seal folded them into the tier.
    pub floor: u64,
}

impl WalHead {
    /// Serialize with the trailing checksum.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(24);
        codec::put_u64(&mut body, self.fence);
        codec::put_u64(&mut body, self.len);
        codec::put_u64(&mut body, self.floor);
        seal_record(WAL_HEAD_MAGIC, &body)
    }

    /// Decode and verify a head object.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut d = open_record(bytes, WAL_HEAD_MAGIC, "wal head")?;
        let head = WalHead {
            fence: d.u64()?,
            len: d.u64()?,
            floor: d.u64()?,
        };
        d.finish()?;
        if head.floor > head.len {
            return Err(d.corrupt(format!("floor {} above len {}", head.floor, head.len)));
        }
        Ok(head)
    }
}

/// The receipt a successful [`FencedWal::append`] returns: with the
/// head advanced past `seq` under `fence`, the observation is safe to
/// ack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalAppend {
    /// The sequence number the record is durable under.
    pub seq: u64,
    /// The fencing epoch it was committed under.
    pub fence: u64,
}

/// A writer's handle on the fenced WAL. See the module docs for the
/// object layout and the fencing argument.
pub struct FencedWal {
    store: Arc<dyn Storage>,
    prefix: String,
    retry: RetryPolicy,
    head: WalHead,
    /// The head's exact committed bytes — the next CAS expectation.
    head_bytes: Option<Vec<u8>>,
}

impl std::fmt::Debug for FencedWal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FencedWal")
            .field("prefix", &self.prefix)
            .field("head", &self.head)
            .finish_non_exhaustive()
    }
}

impl FencedWal {
    /// Claim the WAL under fencing epoch `epoch`: CAS-rewrite the head
    /// with the new fence, preserving `len`/`floor`. The committed
    /// result is authoritative — from here on `len()` is exactly the
    /// acked count, stale plain reads notwithstanding. A stored fence
    /// above `epoch` means this claimant lost a later election:
    /// [`Error::Fenced`].
    pub fn open(
        store: Arc<dyn Storage>,
        prefix: &str,
        retry: RetryPolicy,
        epoch: u64,
    ) -> Result<Self> {
        validate_key("wal open", prefix)?;
        retry.validate()?;
        let key = head_key(prefix);
        let mut observed = match retry.run("wal head fetch", || store.get(&key))? {
            Some(bytes) => Some((WalHead::decode(&bytes)?, bytes)),
            None => None,
        };
        loop {
            let prior = observed.as_ref().map_or(
                WalHead {
                    fence: 0,
                    len: 0,
                    floor: 0,
                },
                |(h, _)| *h,
            );
            if prior.fence > epoch {
                return Err(Error::Fenced {
                    what: "wal head",
                    held: epoch,
                    current: prior.fence,
                });
            }
            let head = WalHead {
                fence: epoch,
                ..prior
            };
            let bytes = head.encode();
            let expected = observed.as_ref().map(|(_, b)| b.as_slice());
            let outcome = retry.run("wal fence stamp", || store.put_if(&key, expected, &bytes))?;
            match outcome {
                CasOutcome::Committed => {
                    return Ok(FencedWal {
                        store,
                        prefix: prefix.to_string(),
                        retry,
                        head,
                        head_bytes: Some(bytes),
                    });
                }
                CasOutcome::Conflict { actual } => {
                    observed = match actual {
                        Some(b) => Some((WalHead::decode(&b)?, b)),
                        None => None,
                    };
                }
            }
        }
    }

    /// Append one observation and advance the head past it. The record
    /// put and the head advance are both conditional; only when *both*
    /// commit is the returned receipt an ack license. Any interleaved
    /// higher fence surfaces as [`Error::Fenced`] — the caller must
    /// not ack and must stop writing.
    pub fn append(&mut self, rec: &ObsRecord) -> Result<WalAppend> {
        let seq = self.head.len;
        let bytes = rec.encode(self.head.fence);
        let key = record_key(&self.prefix, seq);
        // Step 1: the record. Create-only first; a conflict is either a
        // deposed leader's unacked orphan (ours now — overwrite it) or
        // proof we were deposed ourselves.
        let mut expected: Option<Vec<u8>> = None;
        loop {
            let outcome = self.retry.run("wal record put", || {
                self.store.put_if(&key, expected.as_deref(), &bytes)
            })?;
            match outcome {
                CasOutcome::Committed => break,
                CasOutcome::Conflict { actual } => {
                    let Some(actual) = actual else {
                        // Expected an orphan, found nothing: it was
                        // reclaimed; retry as create-only.
                        expected = None;
                        continue;
                    };
                    if actual == bytes {
                        break; // Our own earlier attempt already landed.
                    }
                    let (_, their_fence) = ObsRecord::decode(&actual)?;
                    if their_fence > self.head.fence {
                        return Err(Error::Fenced {
                            what: "wal append",
                            held: self.head.fence,
                            current: their_fence,
                        });
                    }
                    expected = Some(actual);
                }
            }
        }
        // Step 2: the head advance — the ack's linearization point.
        let next = WalHead {
            fence: self.head.fence,
            len: seq + 1,
            floor: self.head.floor,
        };
        let next_bytes = next.encode();
        let outcome = self.retry.run("wal head advance", || {
            self.store.put_if(
                &head_key(&self.prefix),
                self.head_bytes.as_deref(),
                &next_bytes,
            )
        })?;
        match outcome {
            CasOutcome::Committed => {
                self.head = next;
                self.head_bytes = Some(next_bytes);
                Ok(WalAppend {
                    seq,
                    fence: next.fence,
                })
            }
            CasOutcome::Conflict { actual } => {
                // Only a new claimant can move the head out from under
                // us (our own expectation tracks every commit we make),
                // so a conflict here *is* deposition.
                let current = match actual {
                    Some(b) => WalHead::decode(&b)?.fence,
                    None => u64::MAX, // head deleted: tier dismantled
                };
                Err(Error::Fenced {
                    what: "wal append",
                    held: self.head.fence,
                    current,
                })
            }
        }
    }

    /// Read back records `[from, len)` — the acked suffix a takeover
    /// replays after hydrating the sealed tier. Records the head names
    /// are committed; an invisible one is the backend's bounded read
    /// lag, retried until visible.
    pub fn replay(&self, from: u64) -> Result<Vec<ObsRecord>> {
        if from < self.head.floor {
            return Err(Error::InvalidParameter {
                name: "from",
                message: format!(
                    "replay from {from} but records below {} were truncated",
                    self.head.floor
                ),
            });
        }
        let mut out = Vec::new();
        for seq in from..self.head.len {
            let key = record_key(&self.prefix, seq);
            let bytes = self
                .retry
                .run("wal replay", || match self.store.get(&key)? {
                    Some(b) => Ok(b),
                    None => Err(storage_err(
                        "get",
                        key.clone(),
                        true,
                        "head-referenced wal record not visible yet",
                    )),
                })?;
            let (rec, _) = ObsRecord::decode(&bytes)?;
            out.push(rec);
        }
        Ok(out)
    }

    /// Drop records below `upto` (exclusive) once a seal has folded
    /// them into the tier: raise the floor first (conditionally, so a
    /// deposed writer cannot truncate the successor's WAL), then delete
    /// the objects.
    pub fn truncate_to(&mut self, upto: u64) -> Result<()> {
        let upto = upto.min(self.head.len);
        if upto <= self.head.floor {
            return Ok(());
        }
        let old_floor = self.head.floor;
        let next = WalHead {
            floor: upto,
            ..self.head
        };
        let next_bytes = next.encode();
        let outcome = self.retry.run("wal truncate", || {
            self.store.put_if(
                &head_key(&self.prefix),
                self.head_bytes.as_deref(),
                &next_bytes,
            )
        })?;
        match outcome {
            CasOutcome::Committed => {
                self.head = next;
                self.head_bytes = Some(next_bytes);
            }
            CasOutcome::Conflict { actual } => {
                let current = match actual {
                    Some(b) => WalHead::decode(&b)?.fence,
                    None => u64::MAX,
                };
                return Err(Error::Fenced {
                    what: "wal truncate",
                    held: self.head.fence,
                    current,
                });
            }
        }
        for seq in old_floor..upto {
            let key = record_key(&self.prefix, seq);
            self.retry
                .run("wal record delete", || self.store.delete(&key))?;
        }
        Ok(())
    }

    /// Count of acked records (`rec-0 .. rec-{len-1}` all durable).
    pub fn len(&self) -> u64 {
        self.head.len
    }

    /// Whether no record has ever been acked.
    pub fn is_empty(&self) -> bool {
        self.head.len == 0
    }

    /// Lowest sequence number still present.
    pub fn floor(&self) -> u64 {
        self.head.floor
    }

    /// The fencing epoch this handle writes under.
    pub fn fence_epoch(&self) -> u64 {
        self.head.fence
    }

    /// The WAL's key prefix.
    pub fn prefix(&self) -> &str {
        &self.prefix
    }
}

#[cfg(test)]
mod tests {
    use super::super::object::{ObjectChaos, ObjectSim};
    use super::*;
    use fenrir_core::time::Timestamp;
    use std::time::Duration;

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

    fn rec(day: i64, codes: [u16; 3]) -> ObsRecord {
        ObsRecord {
            time: day * 86_400,
            codes: codes.to_vec(),
            health: CampaignHealth::new(Timestamp::from_days(day), 3),
        }
    }

    #[test]
    fn record_roundtrip_and_hostile_decode() {
        let r = rec(2, [7, 7, 9]);
        let bytes = r.encode(5);
        let (back, fence) = ObsRecord::decode(&bytes).unwrap();
        assert_eq!(back, r);
        assert_eq!(fence, 5);
        for n in 0..bytes.len() {
            assert!(ObsRecord::decode(&bytes[..n]).is_err(), "prefix {n}");
        }
        for i in 0..bytes.len() * 8 {
            let mut bad = bytes.clone();
            bad[i / 8] ^= 1 << (i % 8);
            assert!(ObsRecord::decode(&bad).is_err(), "bit {i}");
        }
        let head = WalHead {
            fence: 3,
            len: 10,
            floor: 4,
        };
        let hb = head.encode();
        assert_eq!(WalHead::decode(&hb).unwrap(), head);
        for i in 0..hb.len() * 8 {
            let mut bad = hb.clone();
            bad[i / 8] ^= 1 << (i % 8);
            assert!(WalHead::decode(&bad).is_err(), "head bit {i}");
        }
    }

    #[test]
    fn appends_survive_reopen_and_replay_in_order() {
        let store: Arc<dyn Storage> = Arc::new(ObjectSim::new(ObjectChaos::none(3)).unwrap());
        let mut wal = FencedWal::open(store.clone(), "tier", quick_retry(), 1).unwrap();
        for day in 0..4 {
            let got = wal.append(&rec(day, [day as u16, 0, 1])).unwrap();
            assert_eq!(got.seq, day as u64);
        }
        // A successor under a higher fence sees every acked record.
        let wal2 = FencedWal::open(store, "tier", quick_retry(), 2).unwrap();
        assert_eq!(wal2.len(), 4);
        let replayed = wal2.replay(1).unwrap();
        assert_eq!(replayed.len(), 3);
        assert_eq!(replayed[0], rec(1, [1, 0, 1]));
    }

    #[test]
    fn a_deposed_writer_cannot_ack_past_the_fence() {
        let store: Arc<dyn Storage> = Arc::new(ObjectSim::new(ObjectChaos::none(5)).unwrap());
        let mut old = FencedWal::open(store.clone(), "tier", quick_retry(), 1).unwrap();
        old.append(&rec(0, [1, 2, 3])).unwrap();
        let mut new = FencedWal::open(store.clone(), "tier", quick_retry(), 2).unwrap();
        // The deposed leader's next append must fail, and the record it
        // managed to write must not count as acked.
        let err = old.append(&rec(1, [9, 9, 9])).unwrap_err();
        assert!(
            matches!(
                err,
                Error::Fenced {
                    held: 1,
                    current: 2,
                    ..
                }
            ),
            "expected a fencing refusal, got {err}"
        );
        assert_eq!(new.len(), 1);
        // The successor's own append overwrites the orphan cleanly.
        let got = new.append(&rec(1, [4, 5, 6])).unwrap();
        assert_eq!(got, WalAppend { seq: 1, fence: 2 });
        assert_eq!(new.replay(1).unwrap(), vec![rec(1, [4, 5, 6])]);
        // And an old-epoch reopen is refused outright.
        assert!(matches!(
            FencedWal::open(store, "tier", quick_retry(), 1).unwrap_err(),
            Error::Fenced {
                what: "wal head",
                held: 1,
                current: 2,
            }
        ));
    }

    #[test]
    fn truncation_raises_the_floor_and_guards_replay() {
        let store: Arc<dyn Storage> = Arc::new(ObjectSim::new(ObjectChaos::none(9)).unwrap());
        let mut wal = FencedWal::open(store, "tier", quick_retry(), 1).unwrap();
        for day in 0..5 {
            wal.append(&rec(day, [0, 0, 1])).unwrap();
        }
        wal.truncate_to(3).unwrap();
        assert_eq!(wal.floor(), 3);
        assert_eq!(wal.replay(3).unwrap().len(), 2);
        assert!(wal.replay(2).is_err());
        // Idempotent and monotone.
        wal.truncate_to(1).unwrap();
        assert_eq!(wal.floor(), 3);
    }
}
