//! Lease-based leadership over a storage tier.
//!
//! Replicated ingest needs exactly one writer, and it needs writer
//! changes to be *provable* after the fact: a deposed leader that
//! keeps writing must be refused by the storage layer itself, not by
//! an assumption that it noticed its own deposition. The lease is the
//! coordination half of that contract — one small object at
//! `{prefix}/lease`, mutated only through [`Storage::put_if`], whose
//! **fencing epoch** increases by exactly one at every change of
//! holder and never otherwise.
//!
//! The epoch, not the holder name, is what the rest of the system
//! consumes: the winner stamps it on the WAL head ([`super::wal`]),
//! the tier manifest ([`super::tiered`]), and every record it writes,
//! so storage can compare epochs and refuse the stale writer even if
//! that writer's clock, and therefore its own lease bookkeeping, is
//! arbitrarily wrong.
//!
//! Time is injected (`now_ms` parameters) rather than read from the
//! system clock, for the same reason the object tier draws faults from
//! a seeded stream: a failover chaos test must be able to replay a
//! lease expiry at an exact, reproducible instant.

use super::{open_record, seal_record, CasOutcome, RetryPolicy, Storage};
use crate::journal::codec;
use fenrir_core::error::Result;
use std::sync::Arc;

/// First four bytes of an encoded lease record.
pub const LEASE_MAGIC: [u8; 4] = *b"FNRL";

/// The lease object's key under a tier prefix.
pub fn lease_key(prefix: &str) -> String {
    format!("{prefix}/lease")
}

/// The lease object's contents: who leads, under which fencing epoch,
/// until when.
///
/// ```text
/// lease := magic "FNRL" | epoch u64 LE | expires_at_ms u64 LE
///          | holder_len u16 LE | holder (UTF-8) | sum u16 LE
/// ```
///
/// `sum` is the internet checksum over every preceding byte, as in
/// every [tier record](super#record-envelope): truncation, bad magic,
/// a checksum mismatch, non-UTF-8 holder bytes and trailing garbage
/// all surface as typed
/// [`Error::Corrupted`](fenrir_core::error::Error::Corrupted), never a
/// panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseRecord {
    /// Fencing epoch: increases by exactly one per change of holder.
    pub epoch: u64,
    /// Wall-clock deadline (caller's injected clock, milliseconds)
    /// after which the lease may be claimed by a new holder.
    pub expires_at_ms: u64,
    /// The holder's self-chosen identity (diagnostics only — fencing
    /// decisions compare epochs, never names).
    pub holder: String,
}

impl LeaseRecord {
    /// Serialize with the trailing checksum.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        codec::put_u64(&mut body, self.epoch);
        codec::put_u64(&mut body, self.expires_at_ms);
        codec::put_short_str(&mut body, &self.holder);
        seal_record(LEASE_MAGIC, &body)
    }

    /// Decode and verify a lease object.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut d = open_record(bytes, LEASE_MAGIC, "lease record")?;
        let record = LeaseRecord {
            epoch: d.u64()?,
            expires_at_ms: d.u64()?,
            holder: d.short_str()?,
        };
        d.finish()?;
        Ok(record)
    }

    /// Whether this lease still excludes other claimants at `now_ms`.
    pub fn is_live_at(&self, now_ms: u64) -> bool {
        now_ms < self.expires_at_ms
    }
}

/// One node's view of, and claim on, the lease object.
///
/// All mutation goes through [`Storage::put_if`] against the exact
/// bytes this node last observed, so two nodes claiming concurrently
/// resolve to exactly one winner; the loser adopts the winner's record
/// from the conflict and reports `Ok(None)`. Plain `get` (used only
/// for the initial observation) may be stale under eventual
/// visibility — a stale view simply loses its first conditional put
/// and learns the truth from the conflict, because the compare side of
/// `put_if` is strongly consistent.
pub struct Lease {
    store: Arc<dyn Storage>,
    key: String,
    holder: String,
    retry: RetryPolicy,
    /// Last observed record and its exact bytes (the next CAS
    /// expectation). `None` = no lease object observed yet.
    observed: Option<(LeaseRecord, Vec<u8>)>,
    /// The epoch this node holds, if its last acquire/renew succeeded.
    held: Option<u64>,
}

impl std::fmt::Debug for Lease {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lease")
            .field("key", &self.key)
            .field("holder", &self.holder)
            .field("held", &self.held)
            .finish_non_exhaustive()
    }
}

impl Lease {
    /// A lease handle for `holder` over the tier at `prefix`. Nothing
    /// is read or written until the first [`Lease::acquire`].
    pub fn new(
        store: Arc<dyn Storage>,
        prefix: &str,
        holder: impl Into<String>,
        retry: RetryPolicy,
    ) -> Result<Self> {
        retry.validate()?;
        let key = lease_key(prefix);
        super::validate_key("lease", &key)?;
        Ok(Lease {
            store,
            key,
            holder: holder.into(),
            retry,
            observed: None,
            held: None,
        })
    }

    /// Refresh `observed` from a plain read (possibly stale — the CAS
    /// conflict path corrects it).
    fn refresh(&mut self) -> Result<()> {
        self.observed = match self
            .retry
            .run("lease fetch", || self.store.get(&self.key))?
        {
            Some(bytes) => Some((LeaseRecord::decode(&bytes)?, bytes)),
            None => None,
        };
        Ok(())
    }

    /// Try to acquire (or renew) the lease at `now_ms`, extending it to
    /// `now_ms + ttl_ms`. Returns the fencing epoch now held, or
    /// `Ok(None)` when another holder's live lease excludes us.
    ///
    /// A fresh claim — no lease object, an expired lease, or a lease
    /// this node lost and re-won — always bumps the epoch; a renewal by
    /// the current holder never does.
    pub fn acquire(&mut self, now_ms: u64, ttl_ms: u64) -> Result<Option<u64>> {
        self.refresh()?;
        loop {
            let claim = match &self.observed {
                None => LeaseRecord {
                    epoch: 1,
                    expires_at_ms: now_ms + ttl_ms,
                    holder: self.holder.clone(),
                },
                Some((cur, _)) if cur.holder == self.holder && self.held == Some(cur.epoch) => {
                    LeaseRecord {
                        epoch: cur.epoch,
                        expires_at_ms: now_ms + ttl_ms,
                        holder: self.holder.clone(),
                    }
                }
                Some((cur, _)) if !cur.is_live_at(now_ms) => LeaseRecord {
                    epoch: cur.epoch + 1,
                    expires_at_ms: now_ms + ttl_ms,
                    holder: self.holder.clone(),
                },
                Some(_) => {
                    self.held = None;
                    return Ok(None);
                }
            };
            let bytes = claim.encode();
            let expected = self.observed.as_ref().map(|(_, b)| b.as_slice());
            let outcome = self.retry.run("lease claim", || {
                self.store.put_if(&self.key, expected, &bytes)
            })?;
            match outcome {
                CasOutcome::Committed => {
                    self.held = Some(claim.epoch);
                    self.observed = Some((claim, bytes));
                    return Ok(self.held);
                }
                CasOutcome::Conflict { actual } => {
                    // Someone else moved the lease; adopt the truth and
                    // decide again from it.
                    self.observed = match actual {
                        Some(b) => Some((LeaseRecord::decode(&b)?, b)),
                        None => None,
                    };
                }
            }
        }
    }

    /// Renew the held lease at `now_ms` for another `ttl_ms`. Returns
    /// `false` (and drops the held epoch) if the lease moved on — the
    /// caller must stop writing immediately; storage-level fencing
    /// backstops it if it does not.
    pub fn renew(&mut self, now_ms: u64, ttl_ms: u64) -> Result<bool> {
        let Some(held) = self.held else {
            return Ok(false);
        };
        let got = self.acquire(now_ms, ttl_ms)?;
        if got == Some(held) {
            return Ok(true);
        }
        if got.is_some() {
            // acquire() won a *fresh* claim after our lease lapsed
            // unclaimed. A renewal must never change the epoch under
            // the writer using it for fencing, so surrender the new
            // claim instead of silently switching epochs.
            self.release(now_ms)?;
        }
        self.held = None;
        Ok(false)
    }

    /// Surrender a held lease: rewrite it as already expired (same
    /// epoch), so the next claimant wins immediately with `epoch + 1`.
    /// A conflict means the lease already moved on — equally released.
    pub fn release(&mut self, now_ms: u64) -> Result<()> {
        let (Some(_), Some((cur, bytes))) = (self.held.take(), self.observed.take()) else {
            return Ok(());
        };
        let tomb = LeaseRecord {
            epoch: cur.epoch,
            expires_at_ms: now_ms,
            holder: cur.holder,
        };
        let tomb_bytes = tomb.encode();
        let _ = self.retry.run("lease release", || {
            self.store.put_if(&self.key, Some(&bytes), &tomb_bytes)
        })?;
        Ok(())
    }

    /// Refresh the observed record from the store and return it. A
    /// deposed node answering a redirect uses this so its hint names
    /// the *current* holder, not the record from its own last claim.
    /// Possibly stale under eventual visibility — hints are best
    /// effort, the CAS paths never trust this view.
    pub fn observe(&mut self) -> Result<Option<&LeaseRecord>> {
        self.refresh()?;
        Ok(self.observed_record())
    }

    /// The epoch this node currently believes it holds.
    pub fn held_epoch(&self) -> Option<u64> {
        self.held
    }

    /// The record last observed (possibly another node's).
    pub fn observed_record(&self) -> Option<&LeaseRecord> {
        self.observed.as_ref().map(|(r, _)| r)
    }

    /// This node's holder identity.
    pub fn holder(&self) -> &str {
        &self.holder
    }
}

#[cfg(test)]
mod tests {
    use super::super::object::{ObjectChaos, ObjectSim};
    use super::*;
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

    fn pair(seed: u64) -> (Lease, Lease) {
        let store: Arc<dyn Storage> = Arc::new(ObjectSim::new(ObjectChaos::none(seed)).unwrap());
        let a = Lease::new(store.clone(), "tier", "node-a", quick_retry()).unwrap();
        let b = Lease::new(store, "tier", "node-b", quick_retry()).unwrap();
        (a, b)
    }

    #[test]
    fn record_roundtrip_and_hostile_decode() {
        let r = LeaseRecord {
            epoch: 7,
            expires_at_ms: 10_500,
            holder: "node-a".into(),
        };
        let bytes = r.encode();
        assert_eq!(LeaseRecord::decode(&bytes).unwrap(), r);
        // Truncation at every length is a typed error, never a panic.
        for n in 0..bytes.len() {
            assert!(LeaseRecord::decode(&bytes[..n]).is_err(), "prefix {n}");
        }
        // Any single bit flip is caught by magic, length or checksum.
        for i in 0..bytes.len() * 8 {
            let mut bad = bytes.clone();
            bad[i / 8] ^= 1 << (i % 8);
            assert!(LeaseRecord::decode(&bad).is_err(), "bit {i}");
        }
    }

    #[test]
    fn exactly_one_claimant_wins_and_epochs_step_by_one() {
        let (mut a, mut b) = pair(3);
        assert_eq!(a.acquire(1_000, 500).unwrap(), Some(1));
        // A live lease excludes the other node.
        assert_eq!(b.acquire(1_200, 500).unwrap(), None);
        // The holder renews without an epoch bump.
        assert!(a.renew(1_300, 500).unwrap());
        assert_eq!(a.held_epoch(), Some(1));
        // Expiry lets the other node in, at exactly epoch + 1.
        assert_eq!(b.acquire(2_000, 500).unwrap(), Some(2));
        // The deposed holder's renewal fails cleanly.
        assert!(!a.renew(2_100, 500).unwrap());
        assert_eq!(a.held_epoch(), None);
    }

    #[test]
    fn release_hands_over_without_waiting_for_expiry() {
        let (mut a, mut b) = pair(5);
        assert_eq!(a.acquire(1_000, 10_000).unwrap(), Some(1));
        a.release(1_100).unwrap();
        assert_eq!(b.acquire(1_100, 500).unwrap(), Some(2));
    }

    #[test]
    fn stale_view_loses_the_cas_and_learns_the_truth() {
        let (mut a, mut b) = pair(9);
        // Both see an empty tier; A claims first. B's first conditional
        // put (expected: no object) must lose and report exclusion, not
        // clobber A's lease.
        assert_eq!(a.acquire(1_000, 500).unwrap(), Some(1));
        assert_eq!(b.acquire(1_050, 500).unwrap(), None);
        assert_eq!(b.observed_record().unwrap().holder, "node-a");
    }
}
