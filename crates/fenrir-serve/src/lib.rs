//! # fenrir-serve — a sharded, cache-aware query server
//!
//! The analysis crates answer questions about recurring routing modes
//! *offline*: load a journal, compute, print. `fenrir-serve` makes the
//! same answers available *online* — a multi-threaded TCP server that
//! loads a [fenrir-data pipeline journal](fenrir_data::journal) into
//! an immutable in-memory snapshot and answers six query kinds over a
//! length-prefixed, checksummed binary protocol:
//!
//! | query | answer |
//! |---|---|
//! | `Assign` | which site served a network at a time |
//! | `Similarity` | Φ(t, t′) from the condensed matrix |
//! | `Mode` | mode membership at the adaptive threshold |
//! | `Transition` | the weighted transition-matrix slice |
//! | `Latency` | the per-catchment latency summary |
//! | `Health` / `Stats` | liveness, shape, counters |
//!
//! Answers are **bit-identical** to calling the fenrir-core entry
//! points directly: the server stores the journaled floats verbatim
//! and every derived statistic runs the same code paths.
//!
//! The layering:
//!
//! * [`protocol`] — frames, requests, replies (hostile-input safe);
//! * [`store`] — [`store::Snapshot`] + [`store::ModeStore`], the
//!   epoch-swapped, sharded snapshot holder that follows a journal
//!   file, an object tier or a pipeline in memory, with graceful
//!   degradation to the last-good epoch on reload failure;
//! * [`cache`] — the bounded, epoch-keyed derived-answer cache;
//! * [`server`] — acceptor, worker pool, admission control, drain;
//! * [`client`] — a small blocking client (also the test harness).
//!
//! High availability on top of that single-server core:
//!
//! * [`replica`] — [`replica::ReplicaSet`], N independent servers over
//!   one journal (shared-nothing: one replica degrading or dying never
//!   touches the others);
//! * [`breaker`] — per-replica closed/open/half-open circuit breakers;
//! * [`resilient`] — [`resilient::ResilientClient`], the retrying,
//!   breaker-guarded, health-aware, optionally *hedging* client that
//!   turns a replica group into one logical endpoint;
//! * [`chaos`] — [`chaos::FaultyListener`], a seed-deterministic
//!   fault-injecting TCP proxy (resets, stalls, bit flips, dribbles)
//!   used to prove the client's contract: a bit-identical answer or a
//!   typed error, never a hang.
//!
//! Observability and control (protocol v3):
//!
//! * every server carries a [`fenrir_obs::Registry`] — per-kind query
//!   counters and latency histograms, cache/store/breaker gauges —
//!   scrapeable two ways: a plain-HTTP `/metrics` endpoint
//!   ([`server::ServeConfig::metrics_addr`]) and a protocol-level
//!   [`protocol::Request::Metrics`] frame;
//! * queries slower than [`server::ServeConfig::slow_query`] leave
//!   structured events in a bounded trace ring, drained via `/traces`;
//! * [`protocol::Request::Admin`] (shared-token, fail-closed) drives
//!   the fleet deliberately: drain / undrain a replica, force a
//!   reload, rotate the journal, resize the cache or shed limit live.
//!
//! Streaming ingest (protocol v4):
//!
//! * [`protocol::Request::Submit`] carries one observation per frame
//!   with a client-assigned sequence number; the server hands it to a
//!   [`server::StreamHandler`] (the write path, implemented by
//!   `fenrir-stream`) and acks with explicit `Accepted` / `Duplicate` /
//!   `Gap` outcomes only after the observation is durable;
//! * [`protocol::Request::Subscribe`] registers the connection for
//!   pushed [`protocol::StreamEvent`]s — mode transitions as they are
//!   discovered — over a bounded per-subscriber queue that sheds with
//!   an explicit `Lagged` marker and says goodbye with `Closed`.
//!
//! Replicas can also serve **without any local journal**: a store
//! opened with [`store::ModeStore::open_tiered`] (or a set started
//! with [`replica::ReplicaSet::start_tiered`]) hydrates its snapshot
//! from the latest sealed epoch in a
//! [storage tier](fenrir_data::storage) and polls the tier's manifest
//! for newer epochs. An unreachable or stale tier degrades the replica
//! to its last-good snapshot — `stale: true` in health/stats — instead
//! of killing it; the next successful poll clears the flag.

#![warn(missing_docs)]

pub mod breaker;
pub mod cache;
pub mod chaos;
pub mod client;
pub mod protocol;
pub mod replica;
pub mod resilient;
pub mod server;
pub mod store;
pub mod sync;

pub use breaker::{BreakerConfig, BreakerState, BreakerTransitions, CircuitBreaker};
pub use chaos::{ChaosPlan, FaultyListener};
pub use client::Client;
pub use protocol::{AdminCmd, Reply, Request, StreamEvent, SubmitOutcome};
pub use replica::ReplicaSet;
pub use resilient::{ResilientClient, ResilientConfig};
pub use server::{ServeConfig, Server, StreamHandler};
pub use store::{ModeStore, Snapshot};
