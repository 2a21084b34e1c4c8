//! The fenrir-serve wire protocol.
//!
//! Queries and replies travel as length-prefixed, checksummed binary
//! frames over TCP, following the same conventions as the journal
//! format in `fenrir-data`: little-endian integers, `f64` as exact
//! IEEE-754 bit patterns, length-prefixed sequences, and an RFC 1071
//! internet checksum binding the header to the payload. Decoding is
//! hostile-input safe — every malformed frame surfaces as a typed
//! [`Error::Corrupted`], never a panic, and a hostile length can at
//! most allocate [`MAX_PAYLOAD`] bytes.
//!
//! ## Frame layout
//!
//! ```text
//! +---------+--------+---------+---------+=============+
//! | len u32 | ver u8 | kind u8 | sum u16 | payload ... |
//! +---------+--------+---------+---------+=============+
//! ```
//!
//! `len` counts payload bytes only. `sum` is the internet checksum of
//! `len_le ‖ ver ‖ kind ‖ payload` — a frame whose header or body was
//! corrupted in flight fails verification before any payload decoding
//! runs. Request kinds occupy `0x01..=0x0B`; each reply kind is its
//! request kind with the high bit set, plus three out-of-band replies:
//! [`KIND_ERROR`], [`KIND_OVERLOADED`], and the server-pushed
//! [`KIND_EVENT`] delivered to subscribed connections without a
//! matching request.

use std::io::{ErrorKind, Read};
use std::time::Instant;

use fenrir_core::error::{Error, Result};
use fenrir_core::health::CampaignHealth;
use fenrir_data::journal::codec::{self, Dec};
use fenrir_wire::checksum::internet_checksum;

/// Current protocol version; bumped on any incompatible layout change.
///
/// Version history:
/// * **1** — the original six query kinds.
/// * **2** — `Health` gained `replica`/`stale`, `Stats` gained
///   `reload_failures`, and `Overloaded` gained `retry_after_ms`. A v1
///   peer rejects v2 frames (and vice versa) at the version byte with a
///   typed `Corrupted` error before any payload decoding runs — mixed
///   deployments fail closed instead of misdecoding.
/// * **3** — the observability & control plane: `Metrics` (full
///   exposition-text scrape over the query socket) and `Admin`
///   (token-authenticated drain / undrain / force-reload / rotate /
///   live-reconfig commands), plus [`ERR_UNAUTHORIZED`]. Same
///   fail-closed rule: a v2 peer rejects v3 frames at the version byte.
/// * **4** — streaming ingest: `Submit` carries one observation per
///   frame with a client-assigned sequence number and is acked
///   at-least-once with explicit `Duplicate`/`Gap` outcomes only after
///   the observation is durable; `Subscribe`/`Event` push mode
///   transitions to registered connections, with `Lagged` markers
///   instead of silent loss and a final `Closed` on teardown. Same
///   fail-closed rule: a v3 peer rejects v4 frames at the version byte.
/// * **5** — replicated ingest and leader failover: `NotLeader`
///   redirects a submit or subscribe that reached a standby toward the
///   leader (with an optional address hint); `Subscribe` carries an
///   optional `resume_from` boundary count so a reconnecting
///   subscriber neither re-announces nor silently skips transitions;
///   `Subscribed` reports the server's current `boundary_count` (the
///   resume cursor for the *next* reconnect); `Stats` grew per-
///   subscriber `events_pushed`/`lagged_drops` rows. Same fail-closed
///   rule: a v4 peer rejects v5 frames at the version byte.
pub const PROTOCOL_VERSION: u8 = 5;
/// Bytes in the fixed frame header.
pub const FRAME_HEADER_LEN: usize = 8;
/// Upper bound on payload size — caps what a hostile length field can
/// make the server allocate.
pub const MAX_PAYLOAD: usize = 1 << 20;

// Request kinds.
/// Catchment of one network at one time.
pub const KIND_ASSIGN: u8 = 0x01;
/// Routing similarity Φ between two observation times.
pub const KIND_SIMILARITY: u8 = 0x02;
/// Mode membership of an observation time.
pub const KIND_MODE: u8 = 0x03;
/// Transition-matrix slice between two observation times.
pub const KIND_TRANSITION: u8 = 0x04;
/// Per-catchment latency summary at one time.
pub const KIND_LATENCY: u8 = 0x05;
/// Liveness and dataset shape.
pub const KIND_HEALTH: u8 = 0x06;
/// Server counters.
pub const KIND_STATS: u8 = 0x07;
/// Full metrics scrape (exposition text) over the query socket.
pub const KIND_METRICS: u8 = 0x08;
/// Token-authenticated control-plane command.
pub const KIND_ADMIN: u8 = 0x09;
/// One streamed observation with a client-assigned sequence number.
pub const KIND_SUBMIT: u8 = 0x0A;
/// Register (or deregister) this connection for pushed stream events.
pub const KIND_SUBSCRIBE: u8 = 0x0B;

// Reply kinds (request kind | 0x80).
/// Reply to [`KIND_ASSIGN`].
pub const KIND_ASSIGN_REPLY: u8 = 0x81;
/// Reply to [`KIND_SIMILARITY`].
pub const KIND_SIMILARITY_REPLY: u8 = 0x82;
/// Reply to [`KIND_MODE`].
pub const KIND_MODE_REPLY: u8 = 0x83;
/// Reply to [`KIND_TRANSITION`].
pub const KIND_TRANSITION_REPLY: u8 = 0x84;
/// Reply to [`KIND_LATENCY`].
pub const KIND_LATENCY_REPLY: u8 = 0x85;
/// Reply to [`KIND_HEALTH`].
pub const KIND_HEALTH_REPLY: u8 = 0x86;
/// Reply to [`KIND_STATS`].
pub const KIND_STATS_REPLY: u8 = 0x87;
/// Reply to [`KIND_METRICS`].
pub const KIND_METRICS_REPLY: u8 = 0x88;
/// Reply to [`KIND_ADMIN`].
pub const KIND_ADMIN_REPLY: u8 = 0x89;
/// Reply to [`KIND_SUBMIT`]: the durable ack.
pub const KIND_SUBMIT_REPLY: u8 = 0x8A;
/// Reply to [`KIND_SUBSCRIBE`].
pub const KIND_SUBSCRIBE_REPLY: u8 = 0x8B;
/// A query that could not be answered; carries a code and message.
pub const KIND_ERROR: u8 = 0xE0;
/// The server is saturated; retry later.
pub const KIND_OVERLOADED: u8 = 0xE1;
/// A server-pushed stream event (no matching request) delivered to a
/// subscribed connection.
pub const KIND_EVENT: u8 = 0xE2;
/// This replica is not the ingest leader; the request was not
/// processed. Carries an optional hint (the leader's address) so the
/// client can redirect without rediscovering the fleet.
pub const KIND_NOT_LEADER: u8 = 0xE3;

// Error codes carried by [`KIND_ERROR`] replies.
/// The request payload decoded but asked for something malformed.
pub const ERR_BAD_REQUEST: u8 = 1;
/// The requested time precedes every observation.
pub const ERR_NOT_FOUND: u8 = 2;
/// The data needed for this answer was never journaled.
pub const ERR_UNAVAILABLE: u8 = 3;
/// The server failed internally while answering.
pub const ERR_INTERNAL: u8 = 4;
/// An [`Request::Admin`] command carried a missing or wrong token, or
/// the server has no admin token configured at all.
pub const ERR_UNAUTHORIZED: u8 = 5;

/// Encode one frame: header, checksum, payload.
pub fn encode_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    assert!(payload.len() <= MAX_PAYLOAD, "oversized frame payload");
    let len = payload.len() as u32;
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&len.to_le_bytes());
    out.push(PROTOCOL_VERSION);
    out.push(kind);
    let sum = frame_checksum(len, PROTOCOL_VERSION, kind, payload);
    out.extend_from_slice(&sum.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// The checksum a well-formed frame must carry.
fn frame_checksum(len: u32, ver: u8, kind: u8, payload: &[u8]) -> u16 {
    let mut buf = Vec::with_capacity(6 + payload.len());
    buf.extend_from_slice(&len.to_le_bytes());
    buf.push(ver);
    buf.push(kind);
    buf.extend_from_slice(payload);
    internet_checksum(&buf)
}

/// What one blocking read attempt on a connection produced.
#[derive(Debug)]
pub enum FrameEvent {
    /// A verified frame.
    Frame {
        /// Frame kind byte.
        kind: u8,
        /// Payload bytes (checksum already verified).
        payload: Vec<u8>,
    },
    /// The peer closed the connection cleanly between frames.
    Eof,
    /// The read timed out with no bytes consumed — the connection is
    /// idle, not broken; callers use ticks to poll shutdown flags.
    Tick,
    /// A deadline expired *mid-frame*: the peer is alive but too slow.
    /// The connection must be closed (framing is lost), but unlike
    /// [`FrameEvent::Corrupt`] the bytes themselves were fine — callers
    /// should surface a timeout, not corruption.
    TimedOut,
    /// The bytes received cannot be a valid frame. The connection must
    /// be closed: framing is lost.
    Corrupt(Error),
    /// The transport failed.
    Io(std::io::Error),
}

/// Read one frame from `r`, which should have a read timeout set so
/// idle connections produce [`FrameEvent::Tick`] instead of blocking
/// forever.
///
/// A timeout that fires *mid-frame* is reported as corruption rather
/// than a tick: resuming a half-read frame is impossible once bytes
/// were consumed. Callers that want to ride out slow peers instead
/// (a dribbling proxy, a stalled NIC) should use
/// [`read_frame_deadline`], which keeps filling the frame across
/// socket-timeout ticks until an overall deadline.
pub fn read_frame(r: &mut impl Read) -> FrameEvent {
    read_frame_until(r, None)
}

/// Read one frame, retrying short reads and socket-timeout ticks until
/// `deadline`.
///
/// Each read on the transport should time out no later than `deadline`
/// (the client sets its socket timeout to the time left before each
/// read); this function retries timed-out and short reads, so a peer
/// that dribbles a frame byte-by-byte still completes as long as the
/// whole frame lands before `deadline`. Expiry with no bytes consumed is a
/// [`FrameEvent::Tick`] (the wire was idle); expiry mid-frame is a
/// [`FrameEvent::TimedOut`] — the connection is unusable (framing is
/// lost) but the peer is slow, not corrupt.
pub fn read_frame_deadline(r: &mut impl Read, deadline: Instant) -> FrameEvent {
    read_frame_until(r, Some(deadline))
}

fn read_frame_until(r: &mut impl Read, deadline: Option<Instant>) -> FrameEvent {
    let mut header = [0u8; FRAME_HEADER_LEN];
    // The first byte separates "idle wire" from "frame under way".
    loop {
        match r.read(&mut header[..1]) {
            Ok(0) => return FrameEvent::Eof,
            Ok(_) => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if would_block(&e) => match deadline {
                Some(d) if Instant::now() < d => continue,
                _ => return FrameEvent::Tick,
            },
            Err(e) => return FrameEvent::Io(e),
        }
    }
    if let Err(e) = fill_frame(r, &mut header[1..], deadline) {
        return e;
    }
    let len = u32::from_le_bytes(header[0..4].try_into().unwrap());
    let ver = header[4];
    let kind = header[5];
    let sum = u16::from_le_bytes(header[6..8].try_into().unwrap());
    if len as usize > MAX_PAYLOAD {
        return FrameEvent::Corrupt(corrupt(format!("frame length {len} exceeds {MAX_PAYLOAD}")));
    }
    if ver != PROTOCOL_VERSION {
        return FrameEvent::Corrupt(corrupt(format!("protocol version {ver}")));
    }
    let mut payload = vec![0u8; len as usize];
    if let Err(e) = fill_frame(r, &mut payload, deadline) {
        return e;
    }
    if frame_checksum(len, ver, kind, &payload) != sum {
        return FrameEvent::Corrupt(corrupt(format!("checksum mismatch on kind {kind:#04x}")));
    }
    FrameEvent::Frame { kind, payload }
}

/// Fill `buf` completely, looping over short reads. A short `read` is
/// normal TCP behaviour, not corruption — only EOF mid-frame (the peer
/// hung up with a frame half-sent) is corrupt. A socket timeout is
/// retried while the deadline allows, reported as [`FrameEvent::TimedOut`]
/// once it doesn't, and treated as truncation when no deadline was given
/// (single-shot mode: the caller's tick already expired).
fn fill_frame(
    r: &mut impl Read,
    buf: &mut [u8],
    deadline: Option<Instant>,
) -> std::result::Result<(), FrameEvent> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(FrameEvent::Corrupt(corrupt(format!(
                    "frame truncated mid-read: eof after {filled} of {} bytes",
                    buf.len()
                ))))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if would_block(&e) => match deadline {
                Some(d) if Instant::now() < d => continue,
                Some(_) => return Err(FrameEvent::TimedOut),
                None => {
                    return Err(FrameEvent::Corrupt(corrupt(format!(
                        "frame truncated mid-read: timed out after {filled} of {} bytes",
                        buf.len()
                    ))))
                }
            },
            Err(e) => return Err(FrameEvent::Io(e)),
        }
    }
    Ok(())
}

fn would_block(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

fn corrupt(message: String) -> Error {
    Error::Corrupted {
        what: "serve frame",
        offset: 0,
        message,
    }
}

// ---------------------------------------------------------------------
// Requests.

/// A control-plane command carried by [`Request::Admin`].
///
/// Admin commands share the query socket and frame format but are
/// token-gated: the server only honours them when configured with an
/// admin token and the command carries it verbatim. They exist so a
/// fleet controller (or a chaos test) can drive failover deliberately —
/// drain a replica before restarting it, force a reload after rotating
/// the journal, or resize the cache and shed limit without a restart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdminCmd {
    /// Stop taking new work: queued and in-flight queries finish, then
    /// their connections close; new connections are shed with
    /// `Overloaded`. Health advertises `draining` so resilient clients
    /// steer away.
    Drain,
    /// Resume normal service after a [`AdminCmd::Drain`].
    Undrain,
    /// Reload the snapshot from the journal source now, regardless of
    /// whether anything looks changed.
    ForceReload,
    /// Point a file-backed store at a new journal path and load it.
    /// Validate-then-commit: a bad path is an error reply and the old
    /// journal keeps serving.
    Rotate {
        /// New journal path (server-local).
        path: String,
    },
    /// Resize the query cache live; `0` disables caching.
    SetCacheCapacity {
        /// New total entry budget across shards.
        entries: u64,
    },
    /// Resize the admission limit live; `0` sheds everything.
    SetMaxInflight {
        /// New concurrent-slot budget.
        slots: u64,
    },
}

/// A query a client can send.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Which site served `network` at the observation covering `t`?
    Assign {
        /// Query time (seconds).
        t: i64,
        /// Network (probe block) index.
        network: u32,
    },
    /// Routing similarity Φ between the observations covering `t`, `u`.
    Similarity {
        /// First time.
        t: i64,
        /// Second time.
        u: i64,
    },
    /// Mode membership of the observation covering `t`.
    Mode {
        /// Query time.
        t: i64,
    },
    /// Transition-matrix slice between the observations covering `t`, `u`.
    Transition {
        /// From-time.
        t: i64,
        /// To-time.
        u: i64,
    },
    /// Per-catchment latency summary at the observation covering `t`.
    Latency {
        /// Query time.
        t: i64,
    },
    /// Liveness and dataset shape.
    Health,
    /// Server counters.
    Stats,
    /// Full metrics scrape: the same exposition text the HTTP scrape
    /// endpoint serves, for clients that already speak the frame
    /// protocol.
    Metrics,
    /// A token-authenticated control-plane command.
    Admin {
        /// Shared admin token; must match the server's configured one.
        token: String,
        /// The command itself.
        cmd: AdminCmd,
    },
    /// One streamed observation. The server acks with
    /// [`Reply::SubmitAck`] only after the observation is durable, so a
    /// client that crashes and resubmits the same `seq` gets an
    /// idempotent `Duplicate` instead of double-counting (at-least-once
    /// delivery, exactly-once effect).
    Submit {
        /// Client-assigned sequence number; the server expects them to
        /// arrive densely from 0 and reports `Gap`/`Duplicate`
        /// otherwise.
        seq: u64,
        /// Observation time (seconds); must exceed the previous one.
        time: i64,
        /// Per-network catchment codes for this timestep.
        codes: Vec<u16>,
        /// Campaign health for the sweep that produced the codes.
        health: CampaignHealth,
    },
    /// Register (`enable: true`) or deregister this connection for
    /// pushed [`Reply::Event`] frames.
    Subscribe {
        /// Whether the connection wants events after this frame.
        enable: bool,
        /// Boundary count this subscriber has already seen (from a
        /// previous [`Reply::Subscribed`] plus transitions received
        /// since). `None` subscribes live-only, exactly the v4
        /// behaviour. `Some(n)` asks the server to replay the
        /// transitions it announced past `n` before going live — a
        /// reconnecting subscriber neither re-announces history nor
        /// silently skips what it missed. A cursor before the server's
        /// own announce base (e.g. after a failover hydrated from the
        /// tier) is answered with an explicit [`StreamEvent::Lagged`],
        /// never silence.
        resume_from: Option<u64>,
    },
}

// Sub-kind tags for [`AdminCmd`] inside a [`KIND_ADMIN`] payload.
const ADMIN_DRAIN: u8 = 1;
const ADMIN_UNDRAIN: u8 = 2;
const ADMIN_FORCE_RELOAD: u8 = 3;
const ADMIN_ROTATE: u8 = 4;
const ADMIN_SET_CACHE_CAPACITY: u8 = 5;
const ADMIN_SET_MAX_INFLIGHT: u8 = 6;

impl Request {
    /// Frame kind plus encoded payload.
    pub fn kind_and_payload(&self) -> (u8, Vec<u8>) {
        let mut p = Vec::new();
        match self {
            Request::Assign { t, network } => {
                codec::put_i64(&mut p, *t);
                codec::put_u32(&mut p, *network);
                (KIND_ASSIGN, p)
            }
            Request::Similarity { t, u } => {
                codec::put_i64(&mut p, *t);
                codec::put_i64(&mut p, *u);
                (KIND_SIMILARITY, p)
            }
            Request::Mode { t } => {
                codec::put_i64(&mut p, *t);
                (KIND_MODE, p)
            }
            Request::Transition { t, u } => {
                codec::put_i64(&mut p, *t);
                codec::put_i64(&mut p, *u);
                (KIND_TRANSITION, p)
            }
            Request::Latency { t } => {
                codec::put_i64(&mut p, *t);
                (KIND_LATENCY, p)
            }
            Request::Health => (KIND_HEALTH, p),
            Request::Stats => (KIND_STATS, p),
            Request::Metrics => (KIND_METRICS, p),
            Request::Admin { token, cmd } => {
                codec::put_str(&mut p, token);
                match cmd {
                    AdminCmd::Drain => p.push(ADMIN_DRAIN),
                    AdminCmd::Undrain => p.push(ADMIN_UNDRAIN),
                    AdminCmd::ForceReload => p.push(ADMIN_FORCE_RELOAD),
                    AdminCmd::Rotate { path } => {
                        p.push(ADMIN_ROTATE);
                        codec::put_str(&mut p, path);
                    }
                    AdminCmd::SetCacheCapacity { entries } => {
                        p.push(ADMIN_SET_CACHE_CAPACITY);
                        codec::put_u64(&mut p, *entries);
                    }
                    AdminCmd::SetMaxInflight { slots } => {
                        p.push(ADMIN_SET_MAX_INFLIGHT);
                        codec::put_u64(&mut p, *slots);
                    }
                }
                (KIND_ADMIN, p)
            }
            Request::Submit {
                seq,
                time,
                codes,
                health,
            } => {
                codec::put_u64(&mut p, *seq);
                codec::put_i64(&mut p, *time);
                codec::put_seq(&mut p, codes, |o, &c| codec::put_u16(o, c));
                codec::put_health(&mut p, health);
                (KIND_SUBMIT, p)
            }
            Request::Subscribe {
                enable,
                resume_from,
            } => {
                codec::put_bool(&mut p, *enable);
                match resume_from {
                    Some(n) => {
                        codec::put_bool(&mut p, true);
                        codec::put_u64(&mut p, *n);
                    }
                    None => codec::put_bool(&mut p, false),
                }
                (KIND_SUBSCRIBE, p)
            }
        }
    }

    /// Encode as a complete frame.
    pub fn encode(&self) -> Vec<u8> {
        let (kind, payload) = self.kind_and_payload();
        encode_frame(kind, &payload)
    }

    /// Decode a request from a verified frame.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<Request> {
        let mut d = Dec::new(payload, "serve request");
        let req = match kind {
            KIND_ASSIGN => Request::Assign {
                t: d.i64()?,
                network: d.u32()?,
            },
            KIND_SIMILARITY => Request::Similarity {
                t: d.i64()?,
                u: d.i64()?,
            },
            KIND_MODE => Request::Mode { t: d.i64()? },
            KIND_TRANSITION => Request::Transition {
                t: d.i64()?,
                u: d.i64()?,
            },
            KIND_LATENCY => Request::Latency { t: d.i64()? },
            KIND_HEALTH => Request::Health,
            KIND_STATS => Request::Stats,
            KIND_METRICS => Request::Metrics,
            KIND_ADMIN => {
                let token = d.str()?;
                let cmd = match d.u8()? {
                    ADMIN_DRAIN => AdminCmd::Drain,
                    ADMIN_UNDRAIN => AdminCmd::Undrain,
                    ADMIN_FORCE_RELOAD => AdminCmd::ForceReload,
                    ADMIN_ROTATE => AdminCmd::Rotate { path: d.str()? },
                    ADMIN_SET_CACHE_CAPACITY => AdminCmd::SetCacheCapacity { entries: d.u64()? },
                    ADMIN_SET_MAX_INFLIGHT => AdminCmd::SetMaxInflight { slots: d.u64()? },
                    other => {
                        return Err(Error::Corrupted {
                            what: "serve request",
                            offset: 0,
                            message: format!("unknown admin command tag {other}"),
                        })
                    }
                };
                Request::Admin { token, cmd }
            }
            KIND_SUBMIT => {
                let seq = d.u64()?;
                let time = d.i64()?;
                let n = d.seq_len(2)?;
                let codes = (0..n).map(|_| d.u16()).collect::<Result<Vec<_>>>()?;
                let health = codec::read_health(&mut d)?;
                Request::Submit {
                    seq,
                    time,
                    codes,
                    health,
                }
            }
            KIND_SUBSCRIBE => Request::Subscribe {
                enable: d.bool()?,
                resume_from: if d.bool()? { Some(d.u64()?) } else { None },
            },
            other => {
                return Err(Error::Corrupted {
                    what: "serve request",
                    offset: 0,
                    message: format!("unknown request kind {other:#04x}"),
                })
            }
        };
        d.finish()?;
        Ok(req)
    }
}

// ---------------------------------------------------------------------
// Replies.

/// Per-catchment latency row in a [`Reply::Latency`].
#[derive(Debug, Clone, PartialEq)]
pub struct SiteLatency {
    /// Catchment label (site name, `err`, `other`, or `unknown`).
    pub label: String,
    /// Mean RTT in milliseconds.
    pub mean_ms: f64,
    /// Median RTT.
    pub p50_ms: f64,
    /// 90th-percentile RTT.
    pub p90_ms: f64,
    /// Number of RTT samples behind the row.
    pub samples: u64,
}

/// Liveness and dataset shape, from [`Reply::Health`].
#[derive(Debug, Clone, PartialEq)]
pub struct HealthInfo {
    /// Replica id within its [`crate::replica::ReplicaSet`] (0 for a
    /// standalone server).
    pub replica: u64,
    /// Store epoch; bumps on every hot reload.
    pub epoch: u64,
    /// Observations loaded.
    pub observations: u64,
    /// Network slots per observation.
    pub networks: u64,
    /// Known service sites.
    pub sites: u64,
    /// Discovered routing modes.
    pub modes: u64,
    /// Adaptive clustering threshold in effect.
    pub threshold: f64,
    /// Whether the journal had a torn tail at load.
    pub torn: bool,
    /// Whether the served snapshot is *stale*: a reload attempt failed
    /// (corrupt tail, missing file) and the store degraded to its
    /// last-good epoch instead of dying. Resilient clients prefer
    /// fresher replicas but may still read a stale one.
    pub stale: bool,
    /// Whether the server is draining for shutdown.
    pub draining: bool,
}

/// Per-subscriber delivery counters inside a [`StatsInfo`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubscriberStats {
    /// The subscription's server-assigned id (stable for the life of
    /// the connection).
    pub id: u64,
    /// Events actually written to this subscriber's connection.
    pub events_pushed: u64,
    /// Events shed from this subscriber's queue because it fell
    /// behind — each shed run is surfaced in-band as a
    /// [`StreamEvent::Lagged`] marker, and counted here.
    pub lagged_drops: u64,
}

/// Server counters, from [`Reply::Stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsInfo {
    /// Connections accepted.
    pub connections: u64,
    /// Queries answered (including errors).
    pub queries: u64,
    /// Error replies sent.
    pub errors: u64,
    /// Overloaded replies sent.
    pub overloaded: u64,
    /// Cache hits.
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// Hot reloads performed.
    pub reloads: u64,
    /// Reload attempts that failed (torn tail, missing or corrupt
    /// journal) and left the store serving its last-good epoch.
    pub reload_failures: u64,
    /// Connections currently holding a service slot.
    pub inflight: u64,
    /// One row per live event subscriber, in registration order.
    pub subscribers: Vec<SubscriberStats>,
}

/// The fate of one [`Request::Submit`], carried by [`Reply::SubmitAck`].
///
/// An ack — any ack — is only sent after the durability decision, so
/// `Accepted` means "journaled and folded", `Duplicate` means "already
/// journaled by an earlier submission of this seq" (the idempotent
/// retry path), and `Gap` means "not journaled: submit `expected`
/// first".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// The observation was durably journaled and folded into the live
    /// analysis state.
    Accepted {
        /// Observations in the stream after this one (also the next
        /// expected sequence number).
        observations: u64,
        /// Mode transitions this fold emitted (0 or 1 today; a count so
        /// richer derivations stay wire-compatible).
        transitions: u32,
    },
    /// `seq` was already journaled — the ack the client missed,
    /// re-sent. The observation was *not* applied again.
    Duplicate,
    /// `seq` skipped ahead; nothing was journaled.
    Gap {
        /// The sequence number the server needs next.
        expected: u64,
    },
}

/// A server-pushed event on a subscribed connection.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamEvent {
    /// A mode boundary appeared between two consecutive observations:
    /// under the freshly re-derived clustering they belong to different
    /// modes, and under the previous step's clustering they did not.
    /// Discovery can lag the boundary by a frame — a nascent mode is
    /// not credited until it clears the minimum-cluster-size guard —
    /// so `seq` names the observation that *opened* the new mode,
    /// which is at or before the submission that surfaced it.
    ModeTransition {
        /// Sequence number of the observation that opened the new mode.
        seq: u64,
        /// That observation's time.
        time: i64,
        /// Mode id of the observation before the boundary under the
        /// *current* clustering.
        from_mode: u64,
        /// Mode id of the observation that opened the new mode.
        to_mode: u64,
        /// Total modes after re-derivation.
        modes: u64,
        /// Adaptive threshold in effect.
        threshold: f64,
        /// Trust-weighted similarity between the two steps.
        step_phi: f64,
        /// Whether the triggering step passed trust weighting without
        /// any vantage point being excluded.
        trusted: bool,
    },
    /// The subscriber's queue overflowed and `missed` events were shed.
    /// Always delivered in-band *before* the next event so loss is
    /// explicit, never silent.
    Lagged {
        /// Events dropped since the last delivered one.
        missed: u64,
    },
    /// The server is closing this subscription (drain, shutdown, or
    /// unsubscribe); no further events will arrive.
    Closed,
}

/// A server reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Answer to [`Request::Assign`].
    Assign {
        /// Observation time actually answered (≤ query time).
        time: i64,
        /// Raw catchment code.
        code: u16,
        /// Human-readable catchment label.
        label: String,
    },
    /// Answer to [`Request::Similarity`].
    Similarity {
        /// First resolved observation time.
        t: i64,
        /// Second resolved observation time.
        u: i64,
        /// Weighted similarity Φ(t, u).
        phi: f64,
    },
    /// Answer to [`Request::Mode`].
    Mode {
        /// Resolved observation time.
        time: i64,
        /// Mode id.
        mode: u64,
        /// Clustering threshold in effect.
        threshold: f64,
        /// Whether the mode recurs (≥ 2 disjoint intervals).
        recurs: bool,
        /// Observations in the mode.
        members: u64,
        /// Min/mean intra-mode Φ, when the mode has ≥ 2 members.
        intra_phi: Option<(f64, f64)>,
    },
    /// Answer to [`Request::Transition`].
    Transition {
        /// Resolved from-time.
        from: i64,
        /// Resolved to-time.
        to: i64,
        /// Site count (states = sites + 3).
        num_sites: u64,
        /// Row-major `states × states` mass matrix.
        cells: Vec<f64>,
    },
    /// Answer to [`Request::Latency`].
    Latency {
        /// Resolved observation time.
        time: i64,
        /// Response-weighted mean over all catchments.
        overall_mean_ms: Option<f64>,
        /// Per-catchment rows (catchments with samples only).
        per_site: Vec<SiteLatency>,
    },
    /// Answer to [`Request::Health`].
    Health(HealthInfo),
    /// Answer to [`Request::Stats`].
    Stats(StatsInfo),
    /// Answer to [`Request::Metrics`]: the full exposition text.
    Metrics {
        /// Exposition-format metrics, one sample per line.
        text: String,
    },
    /// Answer to an accepted [`Request::Admin`] command.
    Admin {
        /// Human-readable confirmation of what the command did.
        info: String,
    },
    /// The query failed; `code` is one of the `ERR_*` constants.
    Error {
        /// Machine-readable error class.
        code: u8,
        /// Human-readable detail.
        message: String,
    },
    /// Answer to [`Request::Submit`]: the durable ack.
    SubmitAck {
        /// The sequence number being acked.
        seq: u64,
        /// What happened to it.
        outcome: SubmitOutcome,
    },
    /// Answer to [`Request::Subscribe`].
    Subscribed {
        /// Whether this connection now receives events.
        active: bool,
        /// Subscribers registered after this change.
        subscribers: u64,
        /// Mode boundaries this server has announced (or inherited as
        /// journaled history) so far: the boundary index at which a
        /// new subscription's live stream starts, since the server
        /// reads it with no submit in flight. The client records it as
        /// its resume cursor: after a reconnect, `Subscribe {
        /// resume_from: Some(cursor + transitions received + missed) }`
        /// picks up exactly where delivery stopped on the same node.
        boundary_count: u64,
    },
    /// A pushed stream event — arrives on subscribed connections
    /// without a matching request.
    Event(StreamEvent),
    /// This replica is not the ingest leader: the submit or subscribe
    /// was *not* processed (nothing journaled, nothing registered).
    /// The client should redirect — to `hint` when given, otherwise by
    /// probing the fleet.
    NotLeader {
        /// The leader's address, when this replica knows it.
        hint: Option<String>,
    },
    /// The server is saturated; the query was not processed.
    Overloaded {
        /// In-flight connections when the query was shed.
        inflight: u64,
        /// How long the client should wait before retrying, in
        /// milliseconds. The server sizes this to its own recovery
        /// horizon (service-tick granularity at slot-shed, longer at
        /// accept-shed) so resilient clients can back off precisely
        /// instead of guessing.
        retry_after_ms: u64,
    },
}

// Sub-kind tags for [`SubmitOutcome`] inside a [`KIND_SUBMIT_REPLY`]
// payload.
const SUBMIT_ACCEPTED: u8 = 1;
const SUBMIT_DUPLICATE: u8 = 2;
const SUBMIT_GAP: u8 = 3;

// Sub-kind tags for [`StreamEvent`] inside a [`KIND_EVENT`] payload.
const EVENT_MODE_TRANSITION: u8 = 1;
const EVENT_LAGGED: u8 = 2;
const EVENT_CLOSED: u8 = 3;

fn put_opt_f64(out: &mut Vec<u8>, v: Option<f64>) {
    match v {
        Some(x) => {
            codec::put_bool(out, true);
            codec::put_f64(out, x);
        }
        None => codec::put_bool(out, false),
    }
}

fn read_opt_f64(d: &mut Dec) -> Result<Option<f64>> {
    Ok(if d.bool()? { Some(d.f64()?) } else { None })
}

impl Reply {
    /// Frame kind plus encoded payload.
    pub fn kind_and_payload(&self) -> (u8, Vec<u8>) {
        let mut p = Vec::new();
        match self {
            Reply::Assign { time, code, label } => {
                codec::put_i64(&mut p, *time);
                codec::put_u16(&mut p, *code);
                codec::put_str(&mut p, label);
                (KIND_ASSIGN_REPLY, p)
            }
            Reply::Similarity { t, u, phi } => {
                codec::put_i64(&mut p, *t);
                codec::put_i64(&mut p, *u);
                codec::put_f64(&mut p, *phi);
                (KIND_SIMILARITY_REPLY, p)
            }
            Reply::Mode {
                time,
                mode,
                threshold,
                recurs,
                members,
                intra_phi,
            } => {
                codec::put_i64(&mut p, *time);
                codec::put_u64(&mut p, *mode);
                codec::put_f64(&mut p, *threshold);
                codec::put_bool(&mut p, *recurs);
                codec::put_u64(&mut p, *members);
                match intra_phi {
                    Some((min, mean)) => {
                        codec::put_bool(&mut p, true);
                        codec::put_f64(&mut p, *min);
                        codec::put_f64(&mut p, *mean);
                    }
                    None => codec::put_bool(&mut p, false),
                }
                (KIND_MODE_REPLY, p)
            }
            Reply::Transition {
                from,
                to,
                num_sites,
                cells,
            } => {
                codec::put_i64(&mut p, *from);
                codec::put_i64(&mut p, *to);
                codec::put_u64(&mut p, *num_sites);
                codec::put_seq(&mut p, cells, |o, &c| codec::put_f64(o, c));
                (KIND_TRANSITION_REPLY, p)
            }
            Reply::Latency {
                time,
                overall_mean_ms,
                per_site,
            } => {
                codec::put_i64(&mut p, *time);
                put_opt_f64(&mut p, *overall_mean_ms);
                codec::put_seq(&mut p, per_site, |o, s| {
                    codec::put_str(o, &s.label);
                    codec::put_f64(o, s.mean_ms);
                    codec::put_f64(o, s.p50_ms);
                    codec::put_f64(o, s.p90_ms);
                    codec::put_u64(o, s.samples);
                });
                (KIND_LATENCY_REPLY, p)
            }
            Reply::Health(h) => {
                codec::put_u64(&mut p, h.replica);
                codec::put_u64(&mut p, h.epoch);
                codec::put_u64(&mut p, h.observations);
                codec::put_u64(&mut p, h.networks);
                codec::put_u64(&mut p, h.sites);
                codec::put_u64(&mut p, h.modes);
                codec::put_f64(&mut p, h.threshold);
                codec::put_bool(&mut p, h.torn);
                codec::put_bool(&mut p, h.stale);
                codec::put_bool(&mut p, h.draining);
                (KIND_HEALTH_REPLY, p)
            }
            Reply::Stats(s) => {
                codec::put_u64(&mut p, s.connections);
                codec::put_u64(&mut p, s.queries);
                codec::put_u64(&mut p, s.errors);
                codec::put_u64(&mut p, s.overloaded);
                codec::put_u64(&mut p, s.cache_hits);
                codec::put_u64(&mut p, s.cache_misses);
                codec::put_u64(&mut p, s.reloads);
                codec::put_u64(&mut p, s.reload_failures);
                codec::put_u64(&mut p, s.inflight);
                codec::put_seq(&mut p, &s.subscribers, |o, sub| {
                    codec::put_u64(o, sub.id);
                    codec::put_u64(o, sub.events_pushed);
                    codec::put_u64(o, sub.lagged_drops);
                });
                (KIND_STATS_REPLY, p)
            }
            Reply::Metrics { text } => {
                codec::put_str(&mut p, text);
                (KIND_METRICS_REPLY, p)
            }
            Reply::Admin { info } => {
                codec::put_str(&mut p, info);
                (KIND_ADMIN_REPLY, p)
            }
            Reply::Error { code, message } => {
                p.push(*code);
                codec::put_str(&mut p, message);
                (KIND_ERROR, p)
            }
            Reply::SubmitAck { seq, outcome } => {
                codec::put_u64(&mut p, *seq);
                match outcome {
                    SubmitOutcome::Accepted {
                        observations,
                        transitions,
                    } => {
                        p.push(SUBMIT_ACCEPTED);
                        codec::put_u64(&mut p, *observations);
                        codec::put_u32(&mut p, *transitions);
                    }
                    SubmitOutcome::Duplicate => p.push(SUBMIT_DUPLICATE),
                    SubmitOutcome::Gap { expected } => {
                        p.push(SUBMIT_GAP);
                        codec::put_u64(&mut p, *expected);
                    }
                }
                (KIND_SUBMIT_REPLY, p)
            }
            Reply::Subscribed {
                active,
                subscribers,
                boundary_count,
            } => {
                codec::put_bool(&mut p, *active);
                codec::put_u64(&mut p, *subscribers);
                codec::put_u64(&mut p, *boundary_count);
                (KIND_SUBSCRIBE_REPLY, p)
            }
            Reply::Event(event) => {
                match event {
                    StreamEvent::ModeTransition {
                        seq,
                        time,
                        from_mode,
                        to_mode,
                        modes,
                        threshold,
                        step_phi,
                        trusted,
                    } => {
                        p.push(EVENT_MODE_TRANSITION);
                        codec::put_u64(&mut p, *seq);
                        codec::put_i64(&mut p, *time);
                        codec::put_u64(&mut p, *from_mode);
                        codec::put_u64(&mut p, *to_mode);
                        codec::put_u64(&mut p, *modes);
                        codec::put_f64(&mut p, *threshold);
                        codec::put_f64(&mut p, *step_phi);
                        codec::put_bool(&mut p, *trusted);
                    }
                    StreamEvent::Lagged { missed } => {
                        p.push(EVENT_LAGGED);
                        codec::put_u64(&mut p, *missed);
                    }
                    StreamEvent::Closed => p.push(EVENT_CLOSED),
                }
                (KIND_EVENT, p)
            }
            Reply::NotLeader { hint } => {
                match hint {
                    Some(h) => {
                        codec::put_bool(&mut p, true);
                        codec::put_str(&mut p, h);
                    }
                    None => codec::put_bool(&mut p, false),
                }
                (KIND_NOT_LEADER, p)
            }
            Reply::Overloaded {
                inflight,
                retry_after_ms,
            } => {
                codec::put_u64(&mut p, *inflight);
                codec::put_u64(&mut p, *retry_after_ms);
                (KIND_OVERLOADED, p)
            }
        }
    }

    /// Encode as a complete frame.
    pub fn encode(&self) -> Vec<u8> {
        let (kind, payload) = self.kind_and_payload();
        encode_frame(kind, &payload)
    }

    /// Decode a reply from a verified frame.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<Reply> {
        let mut d = Dec::new(payload, "serve reply");
        let reply = match kind {
            KIND_ASSIGN_REPLY => Reply::Assign {
                time: d.i64()?,
                code: d.u16()?,
                label: d.str()?,
            },
            KIND_SIMILARITY_REPLY => Reply::Similarity {
                t: d.i64()?,
                u: d.i64()?,
                phi: d.f64()?,
            },
            KIND_MODE_REPLY => {
                let time = d.i64()?;
                let mode = d.u64()?;
                let threshold = d.f64()?;
                let recurs = d.bool()?;
                let members = d.u64()?;
                let intra_phi = if d.bool()? {
                    Some((d.f64()?, d.f64()?))
                } else {
                    None
                };
                Reply::Mode {
                    time,
                    mode,
                    threshold,
                    recurs,
                    members,
                    intra_phi,
                }
            }
            KIND_TRANSITION_REPLY => {
                let from = d.i64()?;
                let to = d.i64()?;
                let num_sites = d.u64()?;
                let n = d.seq_len(8)?;
                let cells = (0..n).map(|_| d.f64()).collect::<Result<Vec<_>>>()?;
                Reply::Transition {
                    from,
                    to,
                    num_sites,
                    cells,
                }
            }
            KIND_LATENCY_REPLY => {
                let time = d.i64()?;
                let overall_mean_ms = read_opt_f64(&mut d)?;
                let n = d.seq_len(8)?;
                let per_site = (0..n)
                    .map(|_| {
                        Ok(SiteLatency {
                            label: d.str()?,
                            mean_ms: d.f64()?,
                            p50_ms: d.f64()?,
                            p90_ms: d.f64()?,
                            samples: d.u64()?,
                        })
                    })
                    .collect::<Result<Vec<_>>>()?;
                Reply::Latency {
                    time,
                    overall_mean_ms,
                    per_site,
                }
            }
            KIND_HEALTH_REPLY => Reply::Health(HealthInfo {
                replica: d.u64()?,
                epoch: d.u64()?,
                observations: d.u64()?,
                networks: d.u64()?,
                sites: d.u64()?,
                modes: d.u64()?,
                threshold: d.f64()?,
                torn: d.bool()?,
                stale: d.bool()?,
                draining: d.bool()?,
            }),
            KIND_STATS_REPLY => {
                let mut s = StatsInfo {
                    connections: d.u64()?,
                    queries: d.u64()?,
                    errors: d.u64()?,
                    overloaded: d.u64()?,
                    cache_hits: d.u64()?,
                    cache_misses: d.u64()?,
                    reloads: d.u64()?,
                    reload_failures: d.u64()?,
                    inflight: d.u64()?,
                    subscribers: Vec::new(),
                };
                let n = d.seq_len(24)?;
                s.subscribers = (0..n)
                    .map(|_| {
                        Ok(SubscriberStats {
                            id: d.u64()?,
                            events_pushed: d.u64()?,
                            lagged_drops: d.u64()?,
                        })
                    })
                    .collect::<Result<Vec<_>>>()?;
                Reply::Stats(s)
            }
            KIND_METRICS_REPLY => Reply::Metrics { text: d.str()? },
            KIND_ADMIN_REPLY => Reply::Admin { info: d.str()? },
            KIND_ERROR => Reply::Error {
                code: d.u8()?,
                message: d.str()?,
            },
            KIND_SUBMIT_REPLY => {
                let seq = d.u64()?;
                let outcome = match d.u8()? {
                    SUBMIT_ACCEPTED => SubmitOutcome::Accepted {
                        observations: d.u64()?,
                        transitions: d.u32()?,
                    },
                    SUBMIT_DUPLICATE => SubmitOutcome::Duplicate,
                    SUBMIT_GAP => SubmitOutcome::Gap { expected: d.u64()? },
                    other => {
                        return Err(Error::Corrupted {
                            what: "serve reply",
                            offset: 0,
                            message: format!("unknown submit outcome tag {other}"),
                        })
                    }
                };
                Reply::SubmitAck { seq, outcome }
            }
            KIND_SUBSCRIBE_REPLY => Reply::Subscribed {
                active: d.bool()?,
                subscribers: d.u64()?,
                boundary_count: d.u64()?,
            },
            KIND_EVENT => {
                let event = match d.u8()? {
                    EVENT_MODE_TRANSITION => StreamEvent::ModeTransition {
                        seq: d.u64()?,
                        time: d.i64()?,
                        from_mode: d.u64()?,
                        to_mode: d.u64()?,
                        modes: d.u64()?,
                        threshold: d.f64()?,
                        step_phi: d.f64()?,
                        trusted: d.bool()?,
                    },
                    EVENT_LAGGED => StreamEvent::Lagged { missed: d.u64()? },
                    EVENT_CLOSED => StreamEvent::Closed,
                    other => {
                        return Err(Error::Corrupted {
                            what: "serve reply",
                            offset: 0,
                            message: format!("unknown stream event tag {other}"),
                        })
                    }
                };
                Reply::Event(event)
            }
            KIND_NOT_LEADER => Reply::NotLeader {
                hint: if d.bool()? { Some(d.str()?) } else { None },
            },
            KIND_OVERLOADED => Reply::Overloaded {
                inflight: d.u64()?,
                retry_after_ms: d.u64()?,
            },
            other => {
                return Err(Error::Corrupted {
                    what: "serve reply",
                    offset: 0,
                    message: format!("unknown reply kind {other:#04x}"),
                })
            }
        };
        d.finish()?;
        Ok(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_through_a_reader() {
        let req = Request::Similarity { t: 100, u: 200 };
        let bytes = req.encode();
        let mut cursor = std::io::Cursor::new(bytes);
        match read_frame(&mut cursor) {
            FrameEvent::Frame { kind, payload } => {
                assert_eq!(Request::decode(kind, &payload).unwrap(), req);
            }
            other => panic!("expected frame, got {other:?}"),
        }
        match read_frame(&mut cursor) {
            FrameEvent::Eof => {}
            other => panic!("expected eof, got {other:?}"),
        }
    }

    /// Yields one byte per `read`, optionally interleaving a
    /// `WouldBlock` before every byte — a worst-case dribbling socket.
    struct Dribble {
        data: Vec<u8>,
        pos: usize,
        block_first: bool,
        blocked: bool,
    }

    impl Read for Dribble {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.block_first && !self.blocked {
                self.blocked = true;
                return Err(std::io::Error::new(ErrorKind::WouldBlock, "tick"));
            }
            self.blocked = false;
            if self.pos >= self.data.len() {
                return Ok(0);
            }
            buf[0] = self.data[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn one_byte_short_reads_still_assemble_a_frame() {
        let req = Request::Transition { t: 10, u: 20 };
        let mut r = Dribble {
            data: req.encode(),
            pos: 0,
            block_first: false,
            blocked: false,
        };
        match read_frame(&mut r) {
            FrameEvent::Frame { kind, payload } => {
                assert_eq!(Request::decode(kind, &payload).unwrap(), req);
            }
            other => panic!("dribbled frame: {other:?}"),
        }
    }

    #[test]
    fn deadline_reader_rides_out_ticks_between_dribbled_bytes() {
        let req = Request::Mode { t: 5 };
        let mut r = Dribble {
            data: req.encode(),
            pos: 0,
            block_first: true,
            blocked: false,
        };
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        match read_frame_deadline(&mut r, deadline) {
            FrameEvent::Frame { kind, payload } => {
                assert_eq!(Request::decode(kind, &payload).unwrap(), req);
            }
            other => panic!("dribbled frame with ticks: {other:?}"),
        }
    }

    #[test]
    fn deadline_expiry_mid_frame_is_timeout_not_corruption() {
        // Half a frame, then the wire goes silent (endless WouldBlock).
        struct HalfThenStall {
            data: Vec<u8>,
            pos: usize,
        }
        impl Read for HalfThenStall {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.pos >= self.data.len() {
                    return Err(std::io::Error::new(ErrorKind::WouldBlock, "stalled"));
                }
                buf[0] = self.data[self.pos];
                self.pos += 1;
                Ok(1)
            }
        }
        let frame = Request::Health.encode();
        let half = frame.len() / 2;
        let mut r = HalfThenStall {
            data: frame[..half].to_vec(),
            pos: 0,
        };
        let deadline = Instant::now() + std::time::Duration::from_millis(50);
        match read_frame_deadline(&mut r, deadline) {
            FrameEvent::TimedOut => {}
            other => panic!("mid-frame stall: expected TimedOut, got {other:?}"),
        }
    }

    #[test]
    fn bit_flips_anywhere_are_detected() {
        let frame = Request::Assign { t: 7, network: 3 }.encode();
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[byte] ^= 1 << bit;
                let mut cursor = std::io::Cursor::new(bad);
                match read_frame(&mut cursor) {
                    FrameEvent::Corrupt(_) => {}
                    // A flip in the length field can also leave the
                    // reader waiting for bytes that never arrive; a
                    // cursor reports that as truncation (corrupt) too,
                    // so any non-Frame outcome would be a pass — but a
                    // verified Frame with mutated bytes is the failure
                    // we are guarding against.
                    FrameEvent::Frame { .. } => {
                        panic!("bit flip at byte {byte} bit {bit} went undetected")
                    }
                    other => panic!("unexpected event {other:?}"),
                }
            }
        }
    }

    #[test]
    fn truncation_at_every_boundary_is_corrupt_or_eof() {
        let frame = Request::Transition { t: 1, u: 2 }.encode();
        for cut in 1..frame.len() {
            let mut cursor = std::io::Cursor::new(frame[..cut].to_vec());
            match read_frame(&mut cursor) {
                FrameEvent::Corrupt(_) => {}
                other => panic!("cut at {cut}: expected corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn hostile_length_fields_cannot_trigger_huge_allocations() {
        let mut bad = vec![0u8; FRAME_HEADER_LEN];
        bad[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        bad[4] = PROTOCOL_VERSION;
        bad[5] = KIND_HEALTH;
        let mut cursor = std::io::Cursor::new(bad);
        match read_frame(&mut cursor) {
            FrameEvent::Corrupt(e) => {
                assert!(e.to_string().contains("exceeds"), "{e}");
            }
            other => panic!("expected corrupt, got {other:?}"),
        }
    }

    #[test]
    fn every_reply_shape_round_trips_bit_exactly() {
        let replies = vec![
            Reply::Assign {
                time: -5,
                code: 3,
                label: "LAX".into(),
            },
            Reply::Similarity {
                t: 1,
                u: 2,
                phi: 0.1 + 0.2,
            },
            Reply::Mode {
                time: 9,
                mode: 2,
                threshold: 0.25,
                recurs: true,
                members: 4,
                intra_phi: Some((0.9, 0.95)),
            },
            Reply::Mode {
                time: 9,
                mode: 0,
                threshold: 0.25,
                recurs: false,
                members: 1,
                intra_phi: None,
            },
            Reply::Transition {
                from: 0,
                to: 86400,
                num_sites: 2,
                cells: vec![0.5, 0.25, 0.0, 0.25, 1.0],
            },
            Reply::Latency {
                time: 3,
                overall_mean_ms: Some(42.5),
                per_site: vec![SiteLatency {
                    label: "MIA".into(),
                    mean_ms: 40.0,
                    p50_ms: 39.0,
                    p90_ms: 55.0,
                    samples: 17,
                }],
            },
            Reply::Latency {
                time: 3,
                overall_mean_ms: None,
                per_site: vec![],
            },
            Reply::Health(HealthInfo {
                replica: 1,
                epoch: 2,
                observations: 10,
                networks: 64,
                sites: 8,
                modes: 3,
                threshold: 0.31,
                torn: true,
                stale: true,
                draining: false,
            }),
            Reply::Stats(StatsInfo {
                connections: 1,
                queries: 2,
                errors: 3,
                overloaded: 4,
                cache_hits: 5,
                cache_misses: 6,
                reloads: 7,
                reload_failures: 9,
                inflight: 8,
                subscribers: vec![
                    SubscriberStats {
                        id: 1,
                        events_pushed: 40,
                        lagged_drops: 0,
                    },
                    SubscriberStats {
                        id: 3,
                        events_pushed: 12,
                        lagged_drops: 28,
                    },
                ],
            }),
            Reply::Metrics {
                text: "# TYPE fenrir_serve_queries_total counter\n\
                       fenrir_serve_queries_total{kind=\"mode\"} 7\n"
                    .into(),
            },
            Reply::Admin {
                info: "draining".into(),
            },
            Reply::Error {
                code: ERR_NOT_FOUND,
                message: "before first observation".into(),
            },
            Reply::Overloaded {
                inflight: 64,
                retry_after_ms: 50,
            },
            Reply::SubmitAck {
                seq: 12,
                outcome: SubmitOutcome::Accepted {
                    observations: 13,
                    transitions: 1,
                },
            },
            Reply::SubmitAck {
                seq: 5,
                outcome: SubmitOutcome::Duplicate,
            },
            Reply::SubmitAck {
                seq: 99,
                outcome: SubmitOutcome::Gap { expected: 13 },
            },
            Reply::Subscribed {
                active: true,
                subscribers: 3,
                boundary_count: 17,
            },
            Reply::NotLeader {
                hint: Some("127.0.0.1:4477".into()),
            },
            Reply::NotLeader { hint: None },
            Reply::Event(StreamEvent::ModeTransition {
                seq: 7,
                time: 86400,
                from_mode: 0,
                to_mode: 2,
                modes: 3,
                threshold: 0.25,
                step_phi: 0.1 + 0.2,
                trusted: false,
            }),
            Reply::Event(StreamEvent::Lagged { missed: 41 }),
            Reply::Event(StreamEvent::Closed),
        ];
        for reply in replies {
            let (kind, payload) = reply.kind_and_payload();
            assert_eq!(Reply::decode(kind, &payload).unwrap(), reply);
        }
    }

    #[test]
    fn every_admin_command_round_trips_bit_exactly() {
        let cmds = vec![
            AdminCmd::Drain,
            AdminCmd::Undrain,
            AdminCmd::ForceReload,
            AdminCmd::Rotate {
                path: "/tmp/journal-new".into(),
            },
            AdminCmd::SetCacheCapacity { entries: 3 },
            AdminCmd::SetMaxInflight { slots: 0 },
        ];
        for cmd in cmds {
            let req = Request::Admin {
                token: "sekrit".into(),
                cmd,
            };
            let (kind, payload) = req.kind_and_payload();
            assert_eq!(Request::decode(kind, &payload).unwrap(), req);
        }
        let (kind, payload) = Request::Metrics.kind_and_payload();
        assert_eq!(Request::decode(kind, &payload).unwrap(), Request::Metrics);
    }

    #[test]
    fn stream_requests_round_trip_bit_exactly() {
        let mut health = CampaignHealth::new(fenrir_core::time::Timestamp::from_secs(9), 4);
        health.responses = 3;
        health.distrusted = 1;
        let requests = vec![
            Request::Submit {
                seq: 3,
                time: 9,
                codes: vec![0, 1, u16::MAX, 2],
                health,
            },
            Request::Subscribe {
                enable: true,
                resume_from: None,
            },
            Request::Subscribe {
                enable: true,
                resume_from: Some(12),
            },
            Request::Subscribe {
                enable: false,
                resume_from: None,
            },
        ];
        for req in requests {
            let (kind, payload) = req.kind_and_payload();
            assert_eq!(Request::decode(kind, &payload).unwrap(), req);
        }
    }
}
