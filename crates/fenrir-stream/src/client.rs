//! Client-side helpers for the streaming protocol: a sequenced
//! submitter and a push subscriber, both built on the blocking
//! [`fenrir_serve::Client`].
//!
//! Each client holds a list of candidate nodes — one when built with
//! `connect(addr)` — and rides through leader failover across it. The
//! submitter follows `NotLeader` redirects and rotates past nodes whose
//! connection fails; the subscriber resubscribes at its boundary cursor
//! when a node closes the stream or drops the connection. Either gives
//! up after a few laps of the list, so a fully-down fleet fails fast
//! instead of spinning.
//!
//! A subscription's first frame is its `Subscribed` reply: the server
//! starts pushing only after writing it, so anything else first is a
//! protocol error. After that, `Event` frames can land between any
//! reply and the next, so the receive loops here skip what they are
//! not waiting for. In particular an unsubscribe's final `Closed`
//! event arrives *before* the inactive `Subscribed` reply — the server
//! tears the subscription down first so the goodbye is always on the
//! wire.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use fenrir_core::error::{Error, Result};
use fenrir_core::health::CampaignHealth;
use fenrir_measure::submit::SubmitRow;
use fenrir_serve::protocol::Request;
use fenrir_serve::{Client, Reply, StreamEvent, SubmitOutcome};

/// Laps of the candidate list one call may make before it gives up:
/// every candidate gets a chance to have finished its takeover.
const LAPS: usize = 3;

/// The nodes a client may talk to and the one it talks to now.
#[derive(Debug)]
struct Candidates {
    addrs: Vec<SocketAddr>,
    current: usize,
}

impl Candidates {
    fn new(addrs: Vec<SocketAddr>) -> Result<Candidates> {
        if addrs.is_empty() {
            return Err(Error::InvalidParameter {
                name: "stream client addrs",
                message: "at least one candidate address is required".into(),
            });
        }
        Ok(Candidates { addrs, current: 0 })
    }

    /// How many nodes one call may try.
    fn attempts(&self) -> usize {
        self.addrs.len() * LAPS
    }

    /// Connect to the current candidate.
    fn dial(&self, read_timeout: Option<Duration>) -> Result<Client> {
        let mut client = Client::connect(self.addrs[self.current])?;
        client.set_read_timeout(read_timeout)?;
        Ok(client)
    }

    /// Move to the node `hint` names, or round-robin to the next
    /// candidate when there is no usable hint.
    fn follow(&mut self, hint: Option<&str>) {
        if let Some(addr) = hint.and_then(|h| h.parse::<SocketAddr>().ok()) {
            if let Some(i) = self.addrs.iter().position(|a| *a == addr) {
                self.current = i;
                return;
            }
            // A hint outside the configured set is still worth trying:
            // the fleet may have grown since this client was built.
            self.addrs.push(addr);
            self.current = self.addrs.len() - 1;
            return;
        }
        self.current = (self.current + 1) % self.addrs.len();
    }
}

fn server_error(what: &'static str, code: u8, message: String) -> Error {
    Error::Internal {
        what,
        message: format!("server error {code}: {message}"),
    }
}

/// A sequenced submitter that follows the leader.
///
/// Submits go to whichever node last accepted one. A `NotLeader`
/// redirect is followed to its hint when the hint names an address,
/// otherwise to the next candidate, and a failed connection (the leader
/// died mid-request, or the ack outlasted the read timeout) rotates the
/// same way. A server `Error` reply is an answer, not a failure: it is
/// returned at once, never retried elsewhere.
#[derive(Debug)]
pub struct SubmitClient {
    candidates: Candidates,
    client: Option<Client>,
    read_timeout: Option<Duration>,
}

impl SubmitClient {
    /// Connect to one streaming server.
    pub fn connect(addr: SocketAddr) -> Result<SubmitClient> {
        let mut this = SubmitClient::new(vec![addr])?;
        this.client = Some(this.candidates.dial(None)?);
        Ok(this)
    }

    /// Remember a candidate set; connections are made lazily.
    pub fn new(addrs: Vec<SocketAddr>) -> Result<SubmitClient> {
        Ok(SubmitClient {
            candidates: Candidates::new(addrs)?,
            client: None,
            read_timeout: None,
        })
    }

    /// Bound each ack wait (None, the default, blocks indefinitely).
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<()> {
        self.read_timeout = timeout;
        match &mut self.client {
            Some(client) => client.set_read_timeout(timeout),
            None => Ok(()),
        }
    }

    /// Submit one observation and wait for its ack, following
    /// leadership until a node gives one. At-least-once across
    /// failover: a retried submit the old leader already journaled
    /// earns a `Duplicate` ack from the new one, which callers treat as
    /// success.
    pub fn submit(
        &mut self,
        seq: u64,
        time: i64,
        codes: Vec<u16>,
        health: CampaignHealth,
    ) -> Result<SubmitOutcome> {
        let request = Request::Submit {
            seq,
            time,
            codes,
            health,
        };
        let attempts = self.candidates.attempts();
        let mut last_err = None;
        for _ in 0..attempts {
            let hint = match self.exchange(&request, seq) {
                Ok(Reply::SubmitAck { outcome, .. }) => return Ok(outcome),
                Ok(Reply::Error { code, message }) => {
                    return Err(server_error("stream submit", code, message))
                }
                Ok(Reply::NotLeader { hint }) => hint,
                Ok(other) => {
                    last_err = Some(Error::Internal {
                        what: "stream submit",
                        message: format!("expected a SubmitAck, got {other:?}"),
                    });
                    None
                }
                Err(e) => {
                    last_err = Some(e);
                    None
                }
            };
            self.client = None;
            self.candidates.follow(hint.as_deref());
        }
        Err(last_err.unwrap_or(Error::Internal {
            what: "stream submit",
            message: format!("no candidate accepted seq {seq} after {attempts} attempts"),
        }))
    }

    /// Send `request` to the current candidate and return the reply
    /// that answers it. Pushed events that land in between (a
    /// connection can submit *and* subscribe) and stale acks are
    /// skipped, not errors.
    fn exchange(&mut self, request: &Request, seq: u64) -> Result<Reply> {
        if self.client.is_none() {
            self.client = Some(self.candidates.dial(self.read_timeout)?);
        }
        let client = self.client.as_mut().expect("connected above");
        client.send(request)?;
        client.flush()?;
        loop {
            match client.recv()? {
                Reply::SubmitAck { seq: acked, .. } if acked != seq => continue,
                Reply::Event(_) => continue,
                reply => return Ok(reply),
            }
        }
    }

    /// Submit one prepared row.
    pub fn submit_row(&mut self, row: &SubmitRow) -> Result<SubmitOutcome> {
        self.submit(row.seq, row.time, row.codes.clone(), row.health.clone())
    }

    /// Drive a whole campaign: submit every row in order, absorbing
    /// `Duplicate` acks (at-least-once retries of rows the stream
    /// already holds) and erroring on `Gap` — the rows are ordered, so
    /// a gap means the stream and the campaign disagree. Returns the
    /// total transitions the server reported.
    pub fn submit_all(&mut self, rows: &[SubmitRow]) -> Result<u64> {
        let mut transitions = 0u64;
        for row in rows {
            match self.submit_row(row)? {
                SubmitOutcome::Accepted { transitions: t, .. } => transitions += u64::from(t),
                SubmitOutcome::Duplicate => {}
                SubmitOutcome::Gap { expected } => {
                    return Err(Error::Internal {
                        what: "stream submit",
                        message: format!("seq {} refused: server expects {expected}", row.seq),
                    })
                }
            }
        }
        Ok(transitions)
    }
}

/// A push subscriber that survives leader failover.
///
/// The subscriber tracks a **boundary cursor**: the number of mode
/// boundaries it has fully accounted for, seeded from the server's
/// `Subscribed.boundary_count` and advanced by every delivered
/// transition and every in-band `Lagged` marker. When a node closes the
/// stream (`Closed` on drain or shutdown) or the connection drops, the
/// next candidate that accepts is subscribed with `resume_from` at the
/// cursor, so the transitions announced during the outage are replayed
/// rather than skipped. One node pushes each transition exactly once,
/// replayed or live, so the cursor alone accounts for delivery. A
/// resume on a restarted or promoted node trusts that node's boundary
/// count, which need not match the old one's. `Closed` reaches the
/// caller only when no candidate accepts.
#[derive(Debug)]
pub struct Subscriber {
    candidates: Candidates,
    /// `None` after a failover found no candidate; the next
    /// [`Subscriber::next_event`] tries again.
    client: Option<Client>,
    read_timeout: Option<Duration>,
    cursor: u64,
}

impl Subscriber {
    /// Connect and subscribe at the live edge. Errors if the server
    /// refuses (draining servers do).
    pub fn connect(addr: SocketAddr) -> Result<Subscriber> {
        Subscriber::new(vec![addr])
    }

    /// Subscribe at the live edge on the first candidate that accepts.
    pub fn new(addrs: Vec<SocketAddr>) -> Result<Subscriber> {
        let mut this = Subscriber {
            candidates: Candidates::new(addrs)?,
            client: None,
            read_timeout: None,
            cursor: 0,
        };
        this.subscribe(None)?;
        Ok(this)
    }

    /// Subscribe on the current candidate, or failing that on the next
    /// ones, resuming from `resume_from` when given (a failover) or at
    /// the live edge (the first subscription).
    fn subscribe(&mut self, resume_from: Option<u64>) -> Result<()> {
        let mut last_err = None;
        for _ in 0..self.candidates.attempts() {
            match self.handshake(resume_from) {
                Ok(()) => return Ok(()),
                Err(e) => last_err = Some(e),
            }
            self.candidates.follow(None);
        }
        Err(last_err.expect("the candidate list is never empty"))
    }

    fn handshake(&mut self, resume_from: Option<u64>) -> Result<()> {
        let mut client = self.candidates.dial(self.read_timeout)?;
        client.send(&Request::Subscribe {
            enable: true,
            resume_from,
        })?;
        client.flush()?;
        match client.recv()? {
            Reply::Subscribed {
                active: true,
                boundary_count,
                ..
            } => {
                // Resuming: replayed events advance the cursor from the
                // resume point. Fresh: the live stream starts at the
                // server's boundary count.
                self.cursor = resume_from.unwrap_or(boundary_count);
                self.client = Some(client);
                Ok(())
            }
            Reply::Error { code, message } => Err(server_error("stream subscribe", code, message)),
            other => Err(Error::Internal {
                what: "stream subscribe",
                message: format!(
                    "protocol error: expected an active Subscribed first, got {other:?}"
                ),
            }),
        }
    }

    /// Bound each event wait (None, the default, blocks indefinitely).
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<()> {
        self.read_timeout = timeout;
        match &mut self.client {
            Some(client) => client.set_read_timeout(timeout),
            None => Ok(()),
        }
    }

    /// The boundary index this subscriber has consumed up to.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Wait for the next pushed event, advancing the boundary cursor.
    /// Non-event frames are skipped. A wait that outlasts the read
    /// timeout returns its error; a connection that fails sooner is
    /// failed over.
    pub fn next_event(&mut self) -> Result<StreamEvent> {
        let started = Instant::now();
        let mut failovers = 0;
        loop {
            if self.client.is_none() {
                self.subscribe(Some(self.cursor))?;
            }
            let reply = self.client.as_mut().expect("subscribed above").recv();
            let lost = match reply {
                Ok(Reply::Event(StreamEvent::Closed)) => None,
                Ok(Reply::Event(ev @ StreamEvent::ModeTransition { .. })) => {
                    self.cursor += 1;
                    return Ok(ev);
                }
                Ok(Reply::Event(ev @ StreamEvent::Lagged { missed })) => {
                    // The shed boundaries passed us by; account for
                    // them so a resume does not replay the world.
                    self.cursor += missed;
                    return Ok(ev);
                }
                Ok(_) => continue,
                Err(e) if self.read_timeout.is_some_and(|t| started.elapsed() >= t) => {
                    return Err(e)
                }
                Err(e) => Some(e),
            };
            // The node said goodbye or the wire dropped: resume at the
            // cursor on the next candidate that accepts.
            self.client = None;
            self.candidates.follow(None);
            failovers += 1;
            if failovers > self.candidates.attempts() || self.subscribe(Some(self.cursor)).is_err()
            {
                return match lost {
                    None => Ok(StreamEvent::Closed),
                    Some(e) => Err(e),
                };
            }
        }
    }

    /// Collect events until `Closed` arrives (drain/shutdown with no
    /// candidate left to resume on) or the read deadline trips; the
    /// `Closed` itself is not included.
    pub fn drain(&mut self) -> Result<Vec<StreamEvent>> {
        let mut events = Vec::new();
        loop {
            match self.next_event()? {
                StreamEvent::Closed => return Ok(events),
                ev => events.push(ev),
            }
        }
    }

    /// Deregister. The server sends the subscription's final `Closed`
    /// event and then confirms with an inactive `Subscribed` reply (in
    /// that order); both are consumed here.
    pub fn unsubscribe(mut self) -> Result<Vec<StreamEvent>> {
        let Some(client) = self.client.as_mut() else {
            return Ok(Vec::new()); // nothing is registered anywhere
        };
        let mut missed = Vec::new();
        client.send(&Request::Subscribe {
            enable: false,
            resume_from: None,
        })?;
        client.flush()?;
        loop {
            match client.recv()? {
                Reply::Event(StreamEvent::Closed) => continue,
                Reply::Event(ev) => missed.push(ev),
                Reply::Subscribed { active: false, .. } => return Ok(missed),
                other => {
                    return Err(Error::Internal {
                        what: "stream unsubscribe",
                        message: format!("unexpected reply {other:?}"),
                    })
                }
            }
        }
    }
}
