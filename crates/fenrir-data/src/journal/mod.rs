//! Append-only, checksummed checkpoint journal.
//!
//! Campaign progress is irreplaceable — the paper's longitudinal results
//! exist only because years of sweeps survived on disk — so Fenrir
//! persists every completed sweep through this journal before starting
//! the next one. The format is built for the failure modes long-running
//! collectors actually see:
//!
//! * **Torn writes.** A crash mid-append leaves a truncated or garbled
//!   trailing frame. Every frame carries a checksum (reusing
//!   `fenrir-wire`'s RFC 1071 internet checksum — the same integrity
//!   primitive the probe packets use), so loading detects the torn tail,
//!   drops it, reports it in a [`RecoveryReport`], and resumes from the
//!   clean prefix instead of poisoning the load.
//! * **Unbounded growth.** Append-only journals grow forever; snapshot
//!   frames let a campaign sink periodically rewrite its journal as one
//!   folded snapshot plus subsequent deltas ([`sink`]), and a tiered
//!   journal moves sealed history to an object tier
//!   ([`crate::storage::tiered`]). A pipeline journal holds each
//!   observation once and only grows ([`pipeline`]).
//! * **Version drift.** The header carries a format version; a journal
//!   from an incompatible future version is refused with a typed error
//!   rather than misread.
//!
//! ## Layout
//!
//! ```text
//! header  := magic "FNRJ" | version u16 LE | flags u16 LE
//! frame   := len u32 LE | kind u16 LE | sum u16 LE | payload (len bytes)
//! journal := header frame*
//! ```
//!
//! `sum` is the internet checksum over `len ‖ kind ‖ payload`. Frame
//! kinds are allocated per consumer ([`sink`] for campaign checkpoints,
//! [`pipeline`] for analysis state); the core journal treats payloads as
//! opaque bytes.

pub mod codec;
pub mod pipeline;
pub mod sink;

pub use pipeline::{PipelineConfig, PipelineMeta, RecoverablePipeline};
pub use sink::{CampaignMeta, JournalSink};

use fenrir_core::error::{Error, Result};
use fenrir_wire::checksum::internet_checksum;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// First four bytes of every journal file.
pub const MAGIC: [u8; 4] = *b"FNRJ";
/// Current format version; bumped on any frame-layout change.
/// Version 2 added the `spoofed`/`distrusted` health counters.
pub const VERSION: u16 = 2;
/// Journal header length in bytes.
const HEADER_LEN: usize = 8;
/// Per-frame header length in bytes (len + kind + sum).
const FRAME_HEADER_LEN: usize = 8;

/// One decoded frame: an opaque payload with its kind tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Consumer-allocated frame kind.
    pub kind: u16,
    /// Checksummed payload bytes.
    pub payload: Vec<u8>,
}

/// What loading a journal found and what it had to drop.
///
/// A non-clean report is not an error: the clean prefix loaded fine and
/// the campaign resumes from it. Callers log the report so a recurring
/// torn tail (disk trouble, repeated crashes mid-append) stays visible.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Frames recovered from the clean prefix.
    pub frames: usize,
    /// Bytes of the clean prefix, including the header.
    pub clean_bytes: usize,
    /// Bytes dropped from the torn tail (0 when clean).
    pub dropped_bytes: usize,
    /// Why the tail was dropped, with its byte offset; `None` when the
    /// journal was fully intact.
    pub torn: Option<TornTail>,
}

/// Description of a dropped journal tail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// Byte offset where the first unreadable frame starts.
    pub offset: usize,
    /// Human-readable reason the tail was unreadable.
    pub reason: String,
}

impl RecoveryReport {
    /// True when nothing was dropped.
    pub fn is_clean(&self) -> bool {
        self.torn.is_none()
    }
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.torn {
            None => write!(f, "journal clean: {} frames", self.frames),
            Some(t) => write!(
                f,
                "journal recovered: {} frames kept, {} bytes dropped at offset {} ({})",
                self.frames, self.dropped_bytes, t.offset, t.reason
            ),
        }
    }
}

fn frame_checksum(kind: u16, payload: &[u8]) -> u16 {
    let mut data = Vec::with_capacity(6 + payload.len());
    data.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    data.extend_from_slice(&kind.to_le_bytes());
    data.extend_from_slice(payload);
    internet_checksum(&data)
}

fn header_bytes() -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..4].copy_from_slice(&MAGIC);
    h[4..6].copy_from_slice(&VERSION.to_le_bytes());
    // flags (reserved, must be zero in version 1) occupy h[6..8].
    h
}

fn io_err(what: &'static str, e: std::io::Error) -> Error {
    Error::Internal {
        what,
        message: e.to_string(),
    }
}

/// Encode `frames` as complete journal bytes (header included) — the
/// shared serializer behind [`Journal::rewrite`] and the tiered
/// storage layer's sealed epoch segments.
pub(crate) fn encode_frames(frames: &[(u16, Vec<u8>)]) -> Result<Vec<u8>> {
    let mut buf = header_bytes().to_vec();
    for (kind, payload) in frames {
        if payload.len() > u32::MAX as usize {
            return Err(Error::InvalidParameter {
                name: "frame payload",
                message: format!("{} bytes exceeds the u32 frame length", payload.len()),
            });
        }
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&kind.to_le_bytes());
        buf.extend_from_slice(&frame_checksum(*kind, payload).to_le_bytes());
        buf.extend_from_slice(payload);
    }
    Ok(buf)
}

/// The compaction staging file for a journal at `path`.
fn compact_tmp(path: &Path) -> PathBuf {
    path.with_extension("compact.tmp")
}

/// The persistence backend a sink or pipeline writes through: a flat
/// [`Journal`] (one file holds everything) or a
/// [`crate::storage::TieredJournal`] (hot tail locally, sealed epochs
/// in an object tier). Consumers append deltas and periodically replace
/// the whole logical content; only the replacement differs per backend.
#[derive(Debug)]
pub(crate) enum Backend {
    Flat(Journal),
    /// Boxed: a tiered journal is ~5× a flat one's size, which every
    /// `Backend` would otherwise carry.
    Tiered(Box<crate::storage::TieredJournal>),
}

impl Backend {
    pub(crate) fn append(&mut self, kind: u16, payload: &[u8]) -> Result<()> {
        match self {
            Backend::Flat(j) => j.append(kind, payload),
            Backend::Tiered(t) => t.append(kind, payload),
        }
    }

    /// Replace the logical journal content with `frames`: a flat journal
    /// rewrites its file in place; a tiered journal seals `frames` as
    /// the next epoch in the object tier. Either way an error —
    /// including retry exhaustion against a throttling tier — leaves
    /// the previous content fully intact.
    pub(crate) fn replace_all(&mut self, frames: &[(u16, Vec<u8>)]) -> Result<()> {
        match self {
            Backend::Flat(j) => j.rewrite(frames),
            Backend::Tiered(t) => t.seal(frames).map(|_| ()),
        }
    }

    /// Locally durable bytes: the whole journal for a flat backend, only
    /// the hot tail (base marker + deltas) for a tiered one.
    pub(crate) fn bytes(&self) -> &[u8] {
        match self {
            Backend::Flat(j) => j.bytes(),
            Backend::Tiered(t) => t.hot_bytes(),
        }
    }

    /// The tiered backend, when this is one.
    pub(crate) fn tier(&self) -> Option<&crate::storage::TieredJournal> {
        match self {
            Backend::Flat(_) => None,
            Backend::Tiered(t) => Some(t),
        }
    }

    /// Mutable access to the tiered backend (fence stamping).
    pub(crate) fn tier_mut(&mut self) -> Option<&mut crate::storage::TieredJournal> {
        match self {
            Backend::Flat(_) => None,
            Backend::Tiered(t) => Some(t),
        }
    }
}

/// An append-only checksummed frame log, in memory or file-backed.
///
/// Appends go to the in-memory buffer and, when file-backed, are written
/// through and flushed before `append` returns — a frame handed to the
/// journal is durable by the time the caller learns it succeeded.
#[derive(Debug)]
pub struct Journal {
    buf: Vec<u8>,
    file: Option<File>,
    path: Option<PathBuf>,
}

impl Journal {
    /// A fresh in-memory journal (header only, no frames).
    pub fn in_memory() -> Self {
        Journal {
            buf: header_bytes().to_vec(),
            file: None,
            path: None,
        }
    }

    /// Decode journal bytes into the clean frame prefix plus a recovery
    /// report. Torn or corrupt trailing frames are dropped and reported;
    /// a bad header (wrong magic, unsupported version, nonzero flags) is
    /// unrecoverable and returns [`Error::Corrupted`]. Empty input is a
    /// journal that was never started: zero frames, clean.
    pub fn decode(bytes: &[u8]) -> Result<(Vec<Frame>, RecoveryReport)> {
        if bytes.is_empty() {
            return Ok((Vec::new(), RecoveryReport::default()));
        }
        if bytes.len() < HEADER_LEN {
            return Err(Error::Corrupted {
                what: "journal header",
                offset: bytes.len(),
                message: format!("header truncated to {} bytes", bytes.len()),
            });
        }
        if bytes[..4] != MAGIC {
            return Err(Error::Corrupted {
                what: "journal header",
                offset: 0,
                message: format!("bad magic {:02x?}", &bytes[..4]),
            });
        }
        let version = u16::from_le_bytes(bytes[4..6].try_into().unwrap());
        if version != VERSION {
            return Err(Error::Corrupted {
                what: "journal header",
                offset: 4,
                message: format!("unsupported version {version} (this build reads {VERSION})"),
            });
        }
        let flags = u16::from_le_bytes(bytes[6..8].try_into().unwrap());
        if flags != 0 {
            return Err(Error::Corrupted {
                what: "journal header",
                offset: 6,
                message: format!("unknown flags {flags:#06x}"),
            });
        }
        let mut frames = Vec::new();
        let mut pos = HEADER_LEN;
        let mut torn = None;
        while pos < bytes.len() {
            let rem = bytes.len() - pos;
            if rem < FRAME_HEADER_LEN {
                torn = Some(TornTail {
                    offset: pos,
                    reason: format!("frame header truncated to {rem} bytes"),
                });
                break;
            }
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            let kind = u16::from_le_bytes(bytes[pos + 4..pos + 6].try_into().unwrap());
            let sum = u16::from_le_bytes(bytes[pos + 6..pos + 8].try_into().unwrap());
            if len > rem - FRAME_HEADER_LEN {
                torn = Some(TornTail {
                    offset: pos,
                    reason: format!(
                        "frame payload truncated: {len} bytes declared, {} present",
                        rem - FRAME_HEADER_LEN
                    ),
                });
                break;
            }
            let payload = &bytes[pos + FRAME_HEADER_LEN..pos + FRAME_HEADER_LEN + len];
            if frame_checksum(kind, payload) != sum {
                torn = Some(TornTail {
                    offset: pos,
                    reason: format!("frame checksum mismatch (kind {kind})"),
                });
                break;
            }
            frames.push(Frame {
                kind,
                payload: payload.to_vec(),
            });
            pos += FRAME_HEADER_LEN + len;
        }
        let report = RecoveryReport {
            frames: frames.len(),
            clean_bytes: pos,
            dropped_bytes: bytes.len() - pos,
            torn,
        };
        Ok((frames, report))
    }

    /// Adopt existing journal bytes (e.g. read from elsewhere), keeping
    /// only the clean prefix in the buffer.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<(Self, Vec<Frame>, RecoveryReport)> {
        let (frames, report) = Self::decode(&bytes)?;
        let mut buf = bytes;
        buf.truncate(report.clean_bytes);
        if buf.is_empty() {
            buf = header_bytes().to_vec();
        }
        Ok((
            Journal {
                buf,
                file: None,
                path: None,
            },
            frames,
            report,
        ))
    }

    /// Open (or create) a file-backed journal, recovering the clean
    /// prefix. The file is never rewritten: a torn tail is cut off on
    /// open, so a second crash cannot re-discover the same garbage; an
    /// empty file gets its header; and appends go to the end of the
    /// clean prefix (see [`Journal::append`]). A leftover
    /// `.compact.tmp` from a crash mid-compaction is removed — whatever
    /// it holds, the named journal file is the authority, and keeping
    /// the staging file around would leak it indefinitely.
    pub fn open(path: &Path) -> Result<(Self, Vec<Frame>, RecoveryReport)> {
        match std::fs::remove_file(compact_tmp(path)) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(io_err("journal tmp cleanup", e)),
        }
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(path)
            .map_err(|e| io_err("journal open", e))?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)
            .map_err(|e| io_err("journal read", e))?;
        let (frames, report) = Self::decode(&buf)?;
        if buf.is_empty() {
            buf = header_bytes().to_vec();
            file.write_all(&buf)
                .map_err(|e| io_err("journal write", e))?;
            file.sync_data().map_err(|e| io_err("journal sync", e))?;
        } else if report.dropped_bytes > 0 {
            buf.truncate(report.clean_bytes);
            file.set_len(report.clean_bytes as u64)
                .map_err(|e| io_err("journal truncate", e))?;
            file.sync_data().map_err(|e| io_err("journal sync", e))?;
        }
        Ok((
            Journal {
                buf,
                file: Some(file),
                path: Some(path.to_path_buf()),
            },
            frames,
            report,
        ))
    }

    /// Append one frame. File-backed journals flush before returning:
    /// success means the frame is durable. The frame is written at the
    /// journal's logical end ([`Journal::bytes`]), not at the file's
    /// end, so whatever a failed append left there — a torn frame, or a
    /// whole frame whose sync failed — is overwritten, never followed.
    pub fn append(&mut self, kind: u16, payload: &[u8]) -> Result<()> {
        if payload.len() > u32::MAX as usize {
            return Err(Error::InvalidParameter {
                name: "frame payload",
                message: format!("{} bytes exceeds the u32 frame length", payload.len()),
            });
        }
        let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&kind.to_le_bytes());
        frame.extend_from_slice(&frame_checksum(kind, payload).to_le_bytes());
        frame.extend_from_slice(payload);
        if let Some(file) = &mut self.file {
            file.seek(SeekFrom::Start(self.buf.len() as u64))
                .and_then(|_| file.write_all(&frame))
                .map_err(|e| io_err("journal append", e))?;
            file.sync_data().map_err(|e| io_err("journal sync", e))?;
        }
        self.buf.extend_from_slice(&frame);
        Ok(())
    }

    /// Replace the journal's whole content with `frames` — the compaction
    /// primitive. File-backed journals write the replacement to a sibling
    /// temp file, fsync it, rename it into place, and **fsync the parent
    /// directory**, so a crash mid-compaction (power loss included)
    /// leaves either the old journal or the new one, never a mix — the
    /// rename is a directory-entry mutation and is not durable until the
    /// directory itself is synced.
    pub fn rewrite(&mut self, frames: &[(u16, Vec<u8>)]) -> Result<()> {
        let buf = encode_frames(frames)?;
        if let Some(path) = &self.path {
            crate::storage::local::durable_replace_via(path, &compact_tmp(path), &buf)
                .map_err(|e| io_err("journal compact", e))?;
            let file = OpenOptions::new()
                .write(true)
                .open(path)
                .map_err(|e| io_err("journal open", e))?;
            self.file = Some(file);
        }
        self.buf = buf;
        Ok(())
    }

    /// The journal's current bytes (header + clean frames).
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Journal {
        let mut j = Journal::in_memory();
        j.append(1, b"alpha").unwrap();
        j.append(2, b"").unwrap();
        j.append(3, &[0xAB; 40]).unwrap();
        j
    }

    #[test]
    fn round_trip_recovers_every_frame() {
        let j = sample();
        let (frames, report) = Journal::decode(j.bytes()).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.frames, 3);
        assert_eq!(
            frames[0],
            Frame {
                kind: 1,
                payload: b"alpha".to_vec()
            }
        );
        assert_eq!(frames[1].payload, b"");
        assert_eq!(frames[2].payload, vec![0xAB; 40]);
    }

    #[test]
    fn torn_tail_is_dropped_and_reported() {
        let j = sample();
        let full = j.bytes().to_vec();
        // Cut mid-way through the last frame's payload.
        let cut = full.len() - 17;
        let (frames, report) = Journal::decode(&full[..cut]).unwrap();
        assert_eq!(frames.len(), 2);
        assert!(!report.is_clean());
        assert_eq!(report.dropped_bytes, cut - report.clean_bytes);
        assert!(report.torn.as_ref().unwrap().reason.contains("truncated"));
    }

    #[test]
    fn corrupt_trailing_frame_is_dropped() {
        let j = sample();
        let mut bytes = j.bytes().to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let (frames, report) = Journal::decode(&bytes).unwrap();
        assert_eq!(frames.len(), 2);
        assert!(report.torn.as_ref().unwrap().reason.contains("checksum"));
    }

    #[test]
    fn bad_header_is_a_typed_error() {
        let mut bytes = sample().bytes().to_vec();
        bytes[0] = b'X';
        assert!(matches!(
            Journal::decode(&bytes),
            Err(Error::Corrupted {
                what: "journal header",
                ..
            })
        ));
        let mut versioned = sample().bytes().to_vec();
        versioned[4] = 0xFF;
        assert!(Journal::decode(&versioned).is_err());
    }

    #[test]
    fn file_backed_journal_truncates_torn_tail_on_open() {
        let path = std::env::temp_dir().join(format!("fenrir-journal-{}.fnrj", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let (mut j, frames, report) = Journal::open(&path).unwrap();
            assert!(frames.is_empty() && report.is_clean());
            j.append(1, b"first").unwrap();
            j.append(2, b"second").unwrap();
        }
        // Tear the tail on disk.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 3);
        std::fs::write(&path, &bytes).unwrap();
        {
            let (_, frames, report) = Journal::open(&path).unwrap();
            assert_eq!(frames.len(), 1);
            assert!(!report.is_clean());
        }
        // The truncation is persisted: reopening is clean.
        let (_, frames, report) = Journal::open(&path).unwrap();
        assert_eq!(frames.len(), 1);
        assert!(report.is_clean());
        let _ = std::fs::remove_file(&path);
    }

    /// Append a frame, leave `stray` bytes at the file's end behind the
    /// open journal — what a failed append leaves there — append a
    /// second frame, and reopen.
    fn append_after_stray_bytes(tag: &str, stray: &[u8]) -> (Vec<(u16, Vec<u8>)>, RecoveryReport) {
        let path = std::env::temp_dir().join(format!("fenrir-{tag}-{}.fnrj", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let (mut j, _, _) = Journal::open(&path).unwrap();
        j.append(1, b"first").unwrap();
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(stray).unwrap();
        j.append(2, b"second").unwrap();
        let (_, frames, report) = Journal::open(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let frames = frames.into_iter().map(|f| (f.kind, f.payload));
        (frames.collect(), report)
    }

    #[test]
    fn append_overwrites_a_torn_write() {
        let (frames, report) = append_after_stray_bytes("torn-write", &[0xAB; 3]);
        assert!(report.is_clean(), "{report}");
        assert_eq!(frames, [(1, b"first".to_vec()), (2, b"second".to_vec())]);
    }

    #[test]
    fn append_overwrites_a_frame_whose_sync_failed() {
        let mut unsynced = Journal::in_memory();
        unsynced.append(2, b"second").unwrap();
        let frame = &unsynced.bytes()[HEADER_LEN..];
        let (frames, report) = append_after_stray_bytes("failed-sync", frame);
        assert!(report.is_clean(), "{report}");
        let once = [(1, b"first".to_vec()), (2, b"second".to_vec())];
        assert_eq!(frames, once, "the retried frame appears exactly once");
    }

    /// Bytes this thread has written through system calls so far.
    #[cfg(target_os = "linux")]
    fn thread_wchar() -> u64 {
        let io = std::fs::read_to_string("/proc/thread-self/io").unwrap();
        let line = io.lines().find_map(|l| l.strip_prefix("wchar: "));
        line.unwrap().parse().unwrap()
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn opening_a_clean_journal_writes_nothing() {
        let path = std::env::temp_dir().join(format!("fenrir-open-{}.fnrj", std::process::id()));
        let mut j = Journal::in_memory();
        for kind in 0..16u16 {
            j.append(kind, &vec![kind as u8; 64 * 1024]).unwrap();
        }
        std::fs::write(&path, j.bytes()).unwrap();
        let before = thread_wchar();
        let (_, frames, report) = Journal::open(&path).unwrap();
        let written = thread_wchar() - before;
        assert!(report.is_clean());
        assert_eq!(frames.len(), 16);
        assert!(written < HEADER_LEN as u64, "wrote {written}");
        assert_eq!(std::fs::read(&path).unwrap(), j.bytes());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rewrite_replaces_content() {
        let mut j = sample();
        j.rewrite(&[(9, b"snapshot".to_vec())]).unwrap();
        let (frames, report) = Journal::decode(j.bytes()).unwrap();
        assert!(report.is_clean());
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].kind, 9);
    }
}
