//! Pluggable, fault-injectable storage tiers for journal bytes at rest.
//!
//! The journal layer ([`crate::journal`]) gives Fenrir durable local
//! files; this module makes *where the bytes live* a pluggable choice.
//! Routing archives outlive and outgrow single disks — the paper's
//! substrate is years of B-Root catchment sweeps — so the same chaos
//! discipline the measurement pipeline applies to probes and the serving
//! layer applies to TCP is applied here to storage operations
//! themselves.
//!
//! * [`Storage`] — the backend contract: `put`/`get`/`delete`/`put_if`
//!   over named segments, every failure a typed
//!   [`Error::Storage`] carrying the backend's retryable/permanent
//!   verdict.
//! * [`local::LocalDisk`] — segment files under a root directory, with
//!   the durable-replace idiom (tmp file, fsync, rename, **parent-dir
//!   fsync**) extracted from the journal's own file handling.
//! * [`object::ObjectSim`] — an in-process object store with S3-like
//!   semantics: injected latency, `SlowDown`-style throttling,
//!   transient failures, and bounded eventual visibility after put,
//!   all drawn from a seed-deterministic ChaCha8 stream so a failing
//!   chaos test replays exactly.
//! * [`retry::RetryPolicy`] — jittered-exponential-backoff retry with an
//!   attempt budget and an overall deadline; exhaustion surfaces as a
//!   typed [`Error::Exhausted`], never a hang.
//! * [`tiered::TieredJournal`] — the composite tier: hot journal tail on
//!   local disk, sealed epoch segments pushed to the object tier
//!   under a checksummed manifest, cold epochs hydrated on demand.
//! * [`lease::Lease`] — lease-based leadership over the tier: one
//!   conditional-put-guarded record whose monotonically increasing
//!   fencing epoch is stamped on every fenced write.
//! * [`wal::FencedWal`] — the replicated write path: per-observation
//!   records plus a CAS-guarded head whose successful advance *is* the
//!   ack, so a deposed leader can never acknowledge an observation the
//!   new leader will not replay.
//!
//! ## Key syntax
//!
//! Keys are UTF-8 paths with `/` separators: non-empty, no leading or
//! trailing `/`, no empty / `.` / `..` components (so a hostile key can
//! never escape a [`local::LocalDisk`] root). [`validate_key`] is the
//! single checkpoint every backend routes through.
//!
//! ## Record envelope
//!
//! The tier's own records — the lease, the WAL head, each WAL record
//! and the manifest — share one envelope:
//!
//! ```text
//! record := magic (4 bytes) | body | sum u16 LE
//! ```
//!
//! `sum` is the internet checksum over every preceding byte. Each body
//! is written with the journal codec and read back through one
//! bounds-checked [`Dec`], so a truncated, bit-flipped, misdirected or
//! over-long record is a typed [`Error::Corrupted`], never a panic.

pub mod lease;
pub mod local;
pub mod object;
pub mod retry;
pub mod tiered;
pub mod wal;

pub use lease::{Lease, LeaseRecord};
pub use local::LocalDisk;
pub use object::{ObjectChaos, ObjectSim};
pub use retry::{RetryPolicy, RetryStats};
pub use tiered::{Manifest, SegmentEntry, TieredJournal};
pub use wal::{FencedWal, ObsRecord, WalAppend};

use crate::journal::codec::{self, Dec};
use fenrir_core::error::{Error, Result};
use fenrir_wire::checksum::internet_checksum;

/// Outcome of a [`Storage::put_if`] conditional put.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CasOutcome {
    /// The expectation held and the new bytes are the object now.
    Committed,
    /// The object did not match the expectation; nothing was written.
    /// Carries the bytes that are actually there (`None` = no object),
    /// read under the same atomicity as the compare, so losers of a
    /// race learn the winner's state without a second, possibly stale,
    /// `get`.
    Conflict {
        /// The object's true current bytes at compare time.
        actual: Option<Vec<u8>>,
    },
}

/// A storage backend holding named immutable byte segments.
///
/// Semantics every backend must honour:
///
/// * **`put` is atomic per key**: a reader never observes a partially
///   written object — it sees the old bytes, the new bytes, or (within
///   a backend's bounded visibility window) nothing.
/// * **`get` distinguishes absence from failure**: `Ok(None)` means the
///   backend answered and the key has no (visible) object; `Err` means
///   the operation itself failed.
/// * **`delete` is idempotent**: deleting a missing key succeeds.
/// * **Errors are typed**: every failure is [`Error::Storage`] with an
///   honest `retryable` flag (see [`retry::RetryPolicy`]).
///
/// Backends may be eventually consistent: an object `put` may stay
/// invisible to `get` for a *bounded* window (the object tier
/// simulation models this explicitly). Callers that need
/// read-after-write certainty write with `put_if` — the tiered journal
/// commits its manifest that way.
pub trait Storage: Send + Sync {
    /// Store `bytes` under `key`, replacing any existing object.
    fn put(&self, key: &str, bytes: &[u8]) -> Result<()>;
    /// Fetch the object at `key`; `Ok(None)` when no object is visible.
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>>;
    /// Remove the object at `key` (succeeds when already absent).
    fn delete(&self, key: &str) -> Result<()>;
    /// Conditionally store `bytes` under `key`: commit only if the
    /// object's current bytes equal `expected` (`None` = the key must
    /// not exist — create-only). The compare and the write are one
    /// atomic step, and **both are strongly consistent**: unlike plain
    /// `put`/`get`, a conditional put neither sees nor leaves an
    /// eventual-visibility window, matching the conditional-write
    /// semantics real object stores provide. This is the primitive
    /// every fencing decision in the tier is built on ([`FencedWal`],
    /// [`Lease`], manifest commits).
    fn put_if(&self, key: &str, expected: Option<&[u8]>, bytes: &[u8]) -> Result<CasOutcome>;
}

/// Build a typed storage error.
pub fn storage_err(
    op: &'static str,
    key: impl Into<String>,
    retryable: bool,
    message: impl Into<String>,
) -> Error {
    Error::Storage {
        op,
        key: key.into(),
        retryable,
        message: message.into(),
    }
}

/// Whether an error is a retryable storage failure — the single
/// predicate retry loops branch on.
pub fn is_retryable(e: &Error) -> bool {
    matches!(
        e,
        Error::Storage {
            retryable: true,
            ..
        }
    )
}

/// Seal a tier record: `magic | body | sum u16 LE` (module docs).
pub(crate) fn seal_record(magic: [u8; 4], body: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(magic.len() + body.len() + 2);
    buf.extend_from_slice(&magic);
    buf.extend_from_slice(body);
    let sum = internet_checksum(&buf);
    codec::put_u16(&mut buf, sum);
    buf
}

/// Open a sealed tier record: check its length, magic and checksum,
/// then return a decoder over its body. Error offsets count from the
/// record's first byte; the caller reads every field and ends with
/// [`Dec::finish`], so trailing bytes are corruption too.
pub(crate) fn open_record<'a>(
    bytes: &'a [u8],
    magic: [u8; 4],
    what: &'static str,
) -> Result<Dec<'a>> {
    let corrupt = |offset: usize, message: String| Error::Corrupted {
        what,
        offset,
        message,
    };
    if bytes.len() < magic.len() + 2 {
        return Err(corrupt(
            bytes.len(),
            format!("truncated to {} bytes", bytes.len()),
        ));
    }
    if bytes[..4] != magic {
        return Err(corrupt(0, format!("bad magic {:02x?}", &bytes[..4])));
    }
    let (body, sum) = bytes.split_at(bytes.len() - 2);
    let stored = u16::from_le_bytes([sum[0], sum[1]]);
    let computed = internet_checksum(body);
    if stored != computed {
        return Err(corrupt(
            body.len(),
            format!("checksum mismatch (stored {stored:#06x}, computed {computed:#06x})"),
        ));
    }
    let mut d = Dec::new(body, what);
    d.u32()?; // the magic, checked above
    Ok(d)
}

/// Reject keys that are empty, absolute, or contain empty/`.`/`..`
/// components. Every backend validates through here so key discipline
/// is identical across tiers.
pub fn validate_key(op: &'static str, key: &str) -> Result<()> {
    let bad = |message: &str| Err(storage_err(op, key, false, message));
    if key.is_empty() {
        return bad("empty key");
    }
    if key.starts_with('/') || key.ends_with('/') {
        return bad("key must not start or end with '/'");
    }
    for comp in key.split('/') {
        if comp.is_empty() {
            return bad("empty path component");
        }
        if comp == "." || comp == ".." {
            return bad("relative path component");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_validation_rejects_escapes() {
        assert!(validate_key("put", "segments/seg-00000001").is_ok());
        assert!(validate_key("put", "manifest").is_ok());
        for bad in ["", "/abs", "trail/", "a//b", "../up", "a/./b", "a/../b"] {
            let e = validate_key("put", bad).unwrap_err();
            assert!(
                matches!(
                    e,
                    Error::Storage {
                        retryable: false,
                        ..
                    }
                ),
                "{bad:?} must be a permanent error, got {e}"
            );
        }
    }

    #[test]
    fn retryable_predicate_matches_only_retryable_storage_errors() {
        assert!(is_retryable(&storage_err("put", "k", true, "SlowDown")));
        assert!(!is_retryable(&storage_err("put", "k", false, "bad key")));
        assert!(!is_retryable(&Error::ZeroWeight));
    }
}
