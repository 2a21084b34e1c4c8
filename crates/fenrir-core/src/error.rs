//! Error type shared across fenrir-core.
//!
//! The crate keeps a single, small error enum rather than per-module errors:
//! Fenrir is a batch pipeline, and callers almost always want to print the
//! failure and abort the analysis run, not branch on variants. Variants still
//! carry enough structure to make programmatic handling possible where it
//! matters (e.g. distinguishing shape mismatches from empty inputs).

use std::fmt;

/// Result alias for fenrir-core operations.
pub type Result<T> = std::result::Result<T, Error>;

/// All the ways an analysis step can fail.
///
/// Marked `#[non_exhaustive]`: downstream matches must carry a wildcard arm
/// so the pipeline can grow new failure modes (as it did for campaign
/// health) without a breaking release.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// Two objects that must describe the same network population disagree
    /// on length (e.g. a vector of 100 networks against 99 weights).
    ShapeMismatch {
        /// What the caller passed (e.g. "weights").
        what: &'static str,
        /// Expected number of elements.
        expected: usize,
        /// Number of elements actually supplied.
        actual: usize,
    },
    /// An operation that needs at least one element got none
    /// (e.g. clustering an empty series).
    EmptyInput(&'static str),
    /// A timestamp lookup failed: the series has no vector at that time.
    NoSuchTime(i64),
    /// Two observations claim the same timestamp. Sorted-by-time storage
    /// relies on strict ordering for binary-search lookups, so duplicates
    /// are rejected at every entry point rather than silently kept.
    DuplicateTimestamp(i64),
    /// A parameter is outside its documented domain
    /// (e.g. a distance threshold not in `[0, 1]`).
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Human-readable description of the violation.
        message: String,
    },
    /// Weights summed to zero, so the weighted similarity is undefined.
    ZeroWeight,
    /// A measurement campaign gave up before producing a usable series
    /// (e.g. every sweep blew its probe budget or deadline).
    CampaignAborted {
        /// Which campaign aborted (e.g. "verfploeter").
        campaign: &'static str,
        /// Human-readable description of why.
        reason: String,
    },
    /// A campaign or runner configuration is inconsistent and was rejected
    /// eagerly at construction time, before any probe was sent. Distinct
    /// from [`Error::InvalidParameter`] (a single value outside its
    /// domain): `Config` marks a whole configuration object a caller
    /// assembled, so call sites can report "fix your config" instead of
    /// "fix this argument".
    Config {
        /// The offending configuration field (e.g. "retries").
        name: &'static str,
        /// Human-readable description of the inconsistency.
        message: String,
    },
    /// An incremental recomputation (the route tables) disagreed with
    /// the batch computation it is required to reproduce
    /// bit-for-bit. Recorded by the runtime `DivergenceGuard` when a
    /// sampled cross-check fails; the guard falls back to the batch result
    /// and quarantines the incremental state, so this error is surfaced as
    /// telemetry rather than aborting the campaign.
    IncrementalDivergence {
        /// Which incremental structure diverged (e.g. "routes").
        what: &'static str,
        /// Human-readable description of the first observed mismatch.
        detail: String,
    },
    /// Persistent state (e.g. a checkpoint journal) failed validation in a
    /// way that cannot be recovered by dropping a torn tail — a bad magic
    /// number, an unsupported version, or an in-sequence frame that
    /// contradicts the frames before it.
    Corrupted {
        /// What was being loaded (e.g. "journal header").
        what: &'static str,
        /// Byte offset of the corruption within the file.
        offset: usize,
        /// Human-readable description of the corruption.
        message: String,
    },
    /// A wire-format payload failed to encode or decode.
    Wire(fenrir_wire::WireError),
    /// An internal execution failure (e.g. a worker thread panicked).
    /// Surfaced as an error instead of aborting the process so campaign
    /// runners can quarantine the failing analysis and continue.
    Internal {
        /// Which subsystem failed (e.g. "similarity worker").
        what: &'static str,
        /// Human-readable description of the failure.
        message: String,
    },
    /// A storage-tier operation (put/get/delete/put_if over named
    /// segments) failed. `retryable` carries the backend's own verdict:
    /// `true` for transient conditions a caller should retry with
    /// backoff (an S3-style `SlowDown` throttle, a network blip, an
    /// object not yet visible after its put), `false` for permanent
    /// ones (a key that cannot exist, an invalid argument). Retry loops
    /// branch on the flag; everything else just prints it.
    Storage {
        /// The storage operation that failed ("put", "get", "delete",
        /// "put_if").
        op: &'static str,
        /// The object key (or key prefix) involved.
        key: String,
        /// Whether retrying the same operation can succeed.
        retryable: bool,
        /// Human-readable description of the failure.
        message: String,
    },
    /// A retrying caller (e.g. a resilient serving client) exhausted its
    /// attempt budget: every try against every candidate backend failed.
    /// Carries the last underlying failure so operators can see *why*
    /// the final attempt died, not just that retries ran out.
    Exhausted {
        /// Which operation ran out of attempts (e.g. "serve request").
        what: &'static str,
        /// Attempts made before giving up.
        attempts: u32,
        /// Human-readable description of the last failure.
        message: String,
    },
    /// A writer holding a stale fencing epoch tried to mutate shared
    /// state that a newer epoch now owns. This is the *refusal* arm of
    /// lease-based leadership: a deposed leader's seal, manifest commit
    /// or write-ahead ack is rejected outright — never interleaved with
    /// the new leader's writes — and the only recovery is to step down
    /// and re-acquire leadership. Deliberately not retryable.
    Fenced {
        /// What was refused (e.g. "manifest commit", "wal append").
        what: &'static str,
        /// The epoch the deposed writer presented.
        held: u64,
        /// The newer epoch that owns the state now.
        current: u64,
    },
}

impl From<fenrir_wire::WireError> for Error {
    fn from(e: fenrir_wire::WireError) -> Self {
        Error::Wire(e)
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::ShapeMismatch {
                what,
                expected,
                actual,
            } => write!(
                f,
                "shape mismatch for {what}: expected {expected} elements, got {actual}"
            ),
            Error::EmptyInput(what) => write!(f, "empty input: {what}"),
            Error::NoSuchTime(t) => write!(f, "no vector recorded at timestamp {t}"),
            Error::DuplicateTimestamp(t) => {
                write!(f, "duplicate observation at timestamp {t}")
            }
            Error::InvalidParameter { name, message } => {
                write!(f, "invalid parameter {name}: {message}")
            }
            Error::ZeroWeight => write!(f, "weights sum to zero; similarity undefined"),
            Error::CampaignAborted { campaign, reason } => {
                write!(f, "campaign {campaign} aborted: {reason}")
            }
            Error::Config { name, message } => {
                write!(f, "invalid configuration: {name}: {message}")
            }
            Error::IncrementalDivergence { what, detail } => {
                write!(f, "incremental {what} diverged from batch: {detail}")
            }
            Error::Corrupted {
                what,
                offset,
                message,
            } => write!(f, "corrupted {what} at byte {offset}: {message}"),
            Error::Wire(e) => write!(f, "wire format error: {e}"),
            Error::Internal { what, message } => {
                write!(f, "internal failure in {what}: {message}")
            }
            Error::Storage {
                op,
                key,
                retryable,
                message,
            } => write!(
                f,
                "storage {op} of {key:?} failed ({}): {message}",
                if *retryable { "retryable" } else { "permanent" }
            ),
            Error::Exhausted {
                what,
                attempts,
                message,
            } => write!(
                f,
                "{what} failed after {attempts} attempts; last error: {message}"
            ),
            Error::Fenced {
                what,
                held,
                current,
            } => write!(
                f,
                "{what} fenced: epoch {held} was deposed by epoch {current}"
            ),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Wire(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_shape_mismatch() {
        let e = Error::ShapeMismatch {
            what: "weights",
            expected: 4,
            actual: 3,
        };
        assert_eq!(
            e.to_string(),
            "shape mismatch for weights: expected 4 elements, got 3"
        );
    }

    #[test]
    fn display_empty_input() {
        assert_eq!(
            Error::EmptyInput("series").to_string(),
            "empty input: series"
        );
    }

    #[test]
    fn display_no_such_time() {
        assert_eq!(
            Error::NoSuchTime(42).to_string(),
            "no vector recorded at timestamp 42"
        );
    }

    #[test]
    fn display_invalid_parameter() {
        let e = Error::InvalidParameter {
            name: "threshold",
            message: "must lie in [0, 1]".into(),
        };
        assert_eq!(
            e.to_string(),
            "invalid parameter threshold: must lie in [0, 1]"
        );
    }

    #[test]
    fn display_zero_weight() {
        assert_eq!(
            Error::ZeroWeight.to_string(),
            "weights sum to zero; similarity undefined"
        );
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&Error::ZeroWeight);
    }

    #[test]
    fn display_campaign_aborted() {
        let e = Error::CampaignAborted {
            campaign: "verfploeter",
            reason: "probe budget exhausted on every sweep".into(),
        };
        assert_eq!(
            e.to_string(),
            "campaign verfploeter aborted: probe budget exhausted on every sweep"
        );
    }

    #[test]
    fn display_duplicate_timestamp() {
        assert_eq!(
            Error::DuplicateTimestamp(86_400).to_string(),
            "duplicate observation at timestamp 86400"
        );
    }

    #[test]
    fn display_internal() {
        let e = Error::Internal {
            what: "similarity worker",
            message: "worker thread panicked".into(),
        };
        assert_eq!(
            e.to_string(),
            "internal failure in similarity worker: worker thread panicked"
        );
    }

    #[test]
    fn display_config() {
        let e = Error::Config {
            name: "retries",
            message: "must leave room for at least one attempt".into(),
        };
        assert_eq!(
            e.to_string(),
            "invalid configuration: retries: must leave room for at least one attempt"
        );
    }

    #[test]
    fn display_incremental_divergence() {
        let e = Error::IncrementalDivergence {
            what: "routes",
            detail: "AS 17 routed to site 2, batch says site 0".into(),
        };
        assert_eq!(
            e.to_string(),
            "incremental routes diverged from batch: AS 17 routed to site 2, batch says site 0"
        );
    }

    #[test]
    fn display_corrupted() {
        let e = Error::Corrupted {
            what: "journal header",
            offset: 4,
            message: "bad magic".into(),
        };
        assert_eq!(
            e.to_string(),
            "corrupted journal header at byte 4: bad magic"
        );
    }

    #[test]
    fn display_storage() {
        let e = Error::Storage {
            op: "put",
            key: "segments/seg-00000007".into(),
            retryable: true,
            message: "SlowDown: request rate exceeded".into(),
        };
        assert_eq!(
            e.to_string(),
            "storage put of \"segments/seg-00000007\" failed (retryable): \
             SlowDown: request rate exceeded"
        );
        let p = Error::Storage {
            op: "rename",
            key: "manifest".into(),
            retryable: false,
            message: "source object does not exist".into(),
        };
        assert!(p.to_string().contains("(permanent)"));
    }

    #[test]
    fn display_fenced() {
        let e = Error::Fenced {
            what: "manifest commit",
            held: 3,
            current: 5,
        };
        assert_eq!(
            e.to_string(),
            "manifest commit fenced: epoch 3 was deposed by epoch 5"
        );
    }

    #[test]
    fn wire_errors_convert_and_chain() {
        let wire = fenrir_wire::WireError::Truncated {
            what: "icmp header",
            needed: 8,
        };
        let e: Error = wire.clone().into();
        assert_eq!(e, Error::Wire(wire));
        // The source chain exposes the underlying wire error.
        assert!(std::error::Error::source(&e).is_some());
    }
}
