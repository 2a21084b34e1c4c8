//! # fenrir-stream — streaming observation ingest and live mode
//! discovery
//!
//! The batch pipeline answers "what were the modes?" after a campaign
//! is sealed. This crate answers it *while the campaign runs*: each
//! observation arrives over the serve path as a protocol-v5 `Submit`
//! frame, is made durable before its ack, folds into the incremental
//! analysis state, and — whenever the re-derived clustering
//! reveals a mode boundary the previous step's did not — pushes a `ModeTransition` event to
//! every subscribed connection.
//!
//! The layering:
//!
//! * [`ingest`] — [`StreamIngestor`], the durable sequenced write path
//!   (implements [`fenrir_serve::StreamHandler`]); plus [`StateBits`],
//!   the bit-exact state fingerprint the equivalence suite compares;
//! * [`serve`] — [`StreamServer`], ingestor + TCP server over one
//!   journal, whose query store serves the ingestor's pipeline;
//! * [`client`] — [`SubmitClient`] / [`Subscriber`], the campaign-side
//!   helpers (ack tracking, event interleaving, explicit `Lagged`,
//!   leader failover across a candidate list);
//! * [`metrics`] — the ingestor's `fenrir_stream_*` metric families;
//! * [`scenario`] — the ROADMAP scenarios re-cut as submit feeds.
//!
//! ## The equivalence bar
//!
//! After any prefix of submissions — including across a kill/restart
//! at any frame boundary — the streamed similarity matrix, merge tree,
//! adaptive threshold and mode labels are bit-identical to a batch
//! recomputation over the same observations. The ingestor earns this
//! by construction: it appends through the same
//! [`RecoverablePipeline`](fenrir_data::journal::RecoverablePipeline)
//! the batch pipeline uses, and derives modes through the same
//! [`AdaptiveThreshold`](fenrir_core::cluster::AdaptiveThreshold)
//! sweep the serve fleet's snapshots use. There is no second analysis
//! implementation to drift.

#![warn(missing_docs)]

pub mod client;
pub mod ingest;
pub mod metrics;
pub mod replicated;
pub mod scenario;
pub mod serve;

pub use client::{SubmitClient, Subscriber};
pub use ingest::{state_bits, StateBits, StreamConfig, StreamIngestor};
pub use metrics::{FailoverMetrics, StreamMetrics};
pub use replicated::{wall_clock, Clock, ReplicatedConfig, ReplicatedIngestor};
pub use scenario::{ddos_catchment_flip, hypergiant_churn, StreamScenario};
pub use serve::StreamServer;
