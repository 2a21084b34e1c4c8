//! A small blocking client for the fenrir-serve protocol.
//!
//! One TCP connection, buffered in both directions. Requests can be
//! pipelined: `send` queues frames, `flush` pushes them out, and
//! `recv` reads replies in order. `request` is the one-shot
//! convenience wrapper around all three.
//!
//! ## Timeouts and slow peers
//!
//! [`Client::set_read_timeout`] bounds the *whole reply*, not each
//! `read(2)`. `recv` loops [`read_frame_deadline`] until the deadline,
//! and before each socket read that its buffer cannot serve it sets
//! the socket timeout to the time left, so an idle wire times out at
//! the deadline rather than a poll tick after it. A peer (or a chaos
//! proxy) that dribbles a reply byte-by-byte still completes as long
//! as the full frame lands before the deadline — a short read
//! mid-frame is refilled, never misreported as a corrupt frame. Only
//! two things end a `recv` early: the deadline actually expiring (a
//! typed timeout error) or the peer hanging up / sending bytes that
//! cannot be a frame (a typed `Corrupted` error).

use std::io::{BufReader, BufWriter, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use fenrir_core::error::{Error, Result};

use crate::protocol::{read_frame, read_frame_deadline, FrameEvent, Reply, Request};

/// The client's reader with a reply deadline: a socket read that the
/// buffer cannot serve waits no longer than the time left.
struct Deadline<'a> {
    reader: &'a mut BufReader<TcpStream>,
    at: Instant,
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.reader.buffer().is_empty() {
            let left = self.at.saturating_duration_since(Instant::now());
            // The socket refuses a zero timeout; at zero time left the
            // deadline has passed.
            if left.is_zero() {
                return Err(ErrorKind::TimedOut.into());
            }
            self.reader.get_ref().set_read_timeout(Some(left))?;
        }
        self.reader.read(buf)
    }
}

/// A blocking fenrir-serve client.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    deadline: Option<Duration>,
}

fn io_err(what: &'static str, e: std::io::Error) -> Error {
    Error::Internal {
        what,
        message: e.to_string(),
    }
}

fn timed_out(what: &'static str) -> Error {
    Error::Internal {
        what,
        message: "reply timed out".into(),
    }
}

impl Client {
    /// Connect to a running server.
    pub fn connect(addr: SocketAddr) -> Result<Client> {
        let conn = TcpStream::connect(addr).map_err(|e| io_err("serve connect", e))?;
        Self::from_stream(conn)
    }

    /// Connect, giving up after `timeout`.
    pub fn connect_timeout(addr: SocketAddr, timeout: Duration) -> Result<Client> {
        let conn =
            TcpStream::connect_timeout(&addr, timeout).map_err(|e| io_err("serve connect", e))?;
        Self::from_stream(conn)
    }

    fn from_stream(conn: TcpStream) -> Result<Client> {
        conn.set_nodelay(true)
            .map_err(|e| io_err("serve connect", e))?;
        let write_half = conn.try_clone().map_err(|e| io_err("serve connect", e))?;
        Ok(Client {
            reader: BufReader::new(conn),
            writer: BufWriter::new(write_half),
            deadline: None,
        })
    }

    /// Optional whole-reply deadline for `recv` (None blocks
    /// indefinitely; a zero duration is refused).
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<()> {
        self.deadline = timeout;
        self.reader
            .get_ref()
            .set_read_timeout(timeout)
            .map_err(|e| io_err("serve timeout", e))
    }

    /// Queue one request (pipelining-friendly; call [`Self::flush`]).
    pub fn send(&mut self, req: &Request) -> Result<()> {
        self.writer
            .write_all(&req.encode())
            .map_err(|e| io_err("serve send", e))
    }

    /// Push queued requests to the server.
    pub fn flush(&mut self) -> Result<()> {
        self.writer.flush().map_err(|e| io_err("serve send", e))
    }

    /// Write raw bytes (for hostile-input tests).
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<()> {
        self.writer
            .write_all(bytes)
            .map_err(|e| io_err("serve send", e))?;
        self.flush()
    }

    /// Read the next reply. With a read timeout set, an idle wire or a
    /// reply that stalls mid-frame surfaces as a typed
    /// `Internal("reply timed out")` error — never as corruption.
    pub fn recv(&mut self) -> Result<Reply> {
        let event = match self.deadline {
            Some(d) => {
                let at = Instant::now() + d;
                let reader = &mut self.reader;
                read_frame_deadline(&mut Deadline { reader, at }, at)
            }
            None => read_frame(&mut self.reader),
        };
        match event {
            FrameEvent::Frame { kind, payload } => Reply::decode(kind, &payload),
            FrameEvent::Tick | FrameEvent::TimedOut => Err(timed_out("serve recv")),
            FrameEvent::Eof => Err(Error::Internal {
                what: "serve recv",
                message: "connection closed by server".into(),
            }),
            FrameEvent::Corrupt(e) => Err(e),
            FrameEvent::Io(e) => Err(io_err("serve recv", e)),
        }
    }

    /// Send one request and wait for its reply.
    pub fn request(&mut self, req: &Request) -> Result<Reply> {
        self.send(req)?;
        self.flush()?;
        self.recv()
    }

    /// Fetch the server's full metrics exposition text over the query
    /// socket (the frame-protocol twin of the HTTP `/metrics` scrape).
    pub fn metrics_text(&mut self) -> Result<String> {
        match self.request(&Request::Metrics)? {
            Reply::Metrics { text } => Ok(text),
            other => Err(Error::Internal {
                what: "serve metrics",
                message: format!("expected a Metrics reply, got {other:?}"),
            }),
        }
    }

    /// Send one admin command. The reply is returned as-is — including
    /// `Error` replies for a bad token — so callers can assert on it.
    pub fn admin(&mut self, token: &str, cmd: crate::protocol::AdminCmd) -> Result<Reply> {
        self.request(&Request::Admin {
            token: token.to_string(),
            cmd,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn recv_on_an_idle_wire_times_out_at_its_deadline() {
        // The kernel completes the handshake; nothing ever replies.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = Client::connect(listener.local_addr().unwrap()).unwrap();
        for ms in [60, 130] {
            let asked = Duration::from_millis(ms);
            client.set_read_timeout(Some(asked)).unwrap();
            let started = Instant::now();
            let err = client.recv().unwrap_err();
            let took = started.elapsed();
            assert!(
                matches!(&err, Error::Internal { what: "serve recv", message } if message == "reply timed out"),
                "{err}"
            );
            assert!(
                took >= asked && took <= asked + Duration::from_millis(25),
                "a {ms} ms timeout returned after {took:?}"
            );
        }
    }
}
