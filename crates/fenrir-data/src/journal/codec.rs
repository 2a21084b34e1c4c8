//! Binary payload encoding for journal frames.
//!
//! Hand-rolled little-endian codec with a fixed, versioned field order —
//! the journal's durability contract is byte-exact, so every value is
//! written the same way on every platform: integers as little-endian,
//! `f64` as its IEEE-754 bit pattern (`to_bits`, preserving the exact
//! value the analysis computed), sequences and strings length-prefixed.
//!
//! Decoding is hostile-input safe: every read is bounds-checked against
//! the remaining payload *before* any allocation, lengths are validated
//! against the bytes actually present, and malformed data surfaces as a
//! typed [`Error::Corrupted`] carrying the byte offset — never a panic.

use fenrir_core::error::{Error, Result};
use fenrir_core::health::CampaignHealth;
use fenrir_core::time::Timestamp;
use fenrir_measure::{ResumeState, SweepCheckpoint};

// ---------------------------------------------------------------------
// Writers.

/// Append a `u16` in little-endian order.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u32` in little-endian order.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64` in little-endian order.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append an `i64` in little-endian order.
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` as its exact IEEE-754 bit pattern.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Append a `usize` as a `u64`.
pub fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

/// Append a `bool` as a single byte (0 or 1).
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_usize(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

/// Append a UTF-8 string behind a `u16` length, for short names such
/// as storage keys and lease holders. Callers keep such names under
/// `u16::MAX` bytes: a longer one's length prefix would wrap.
pub fn put_short_str(out: &mut Vec<u8>, s: &str) {
    put_u16(out, s.len() as u16);
    out.extend_from_slice(s.as_bytes());
}

/// Append a length-prefixed sequence, one element at a time.
pub fn put_seq<T>(out: &mut Vec<u8>, items: &[T], mut f: impl FnMut(&mut Vec<u8>, &T)) {
    put_usize(out, items.len());
    for item in items {
        f(out, item);
    }
}

// ---------------------------------------------------------------------
// Reader.

/// A bounds-checked cursor over one frame payload.
#[derive(Debug)]
pub struct Dec<'a> {
    data: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> Dec<'a> {
    /// Start decoding `data`; `what` names the payload in errors.
    pub fn new(data: &'a [u8], what: &'static str) -> Self {
        Dec { data, pos: 0, what }
    }

    /// A typed [`Error::Corrupted`] at the current offset.
    pub fn corrupt(&self, message: String) -> Error {
        Error::Corrupted {
            what: self.what,
            offset: self.pos,
            message,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(self.corrupt(format!("need {n} bytes, {} remain", self.remaining())));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a single byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `f64` bit pattern, rejecting non-finite values — NaN or
    /// infinity in a journal means the producer was already broken, and
    /// letting them load would poison downstream comparisons.
    pub fn f64(&mut self) -> Result<f64> {
        let v = f64::from_bits(self.u64()?);
        if !v.is_finite() {
            return Err(self.corrupt(format!("non-finite float {v}")));
        }
        Ok(v)
    }

    /// Read a `usize` stored as `u64`, bounds-checked for this platform.
    pub fn usize(&mut self) -> Result<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| self.corrupt(format!("count {v} exceeds usize")))
    }

    /// Read a sequence length, validated against the bytes that remain
    /// (each element occupies at least `min_elem` bytes) so a hostile
    /// length cannot trigger a huge allocation.
    pub fn seq_len(&mut self, min_elem: usize) -> Result<usize> {
        let n = self.usize()?;
        let floor = n.saturating_mul(min_elem.max(1));
        if floor > self.remaining() {
            return Err(self.corrupt(format!(
                "sequence of {n} elements cannot fit in {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Read a single-byte `bool`, rejecting values other than 0/1.
    pub fn bool(&mut self) -> Result<bool> {
        match self.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(self.corrupt(format!("bool byte {b:#x}"))),
        }
    }

    fn utf8(&mut self, n: usize) -> Result<String> {
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| self.corrupt(format!("invalid UTF-8: {e}")))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let n = self.seq_len(1)?;
        self.utf8(n)
    }

    /// Read a UTF-8 string behind a `u16` length ([`put_short_str`]).
    pub fn short_str(&mut self) -> Result<String> {
        let n = self.u16()?;
        self.utf8(n.into())
    }

    /// Error unless the payload was consumed exactly.
    pub fn finish(&self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(self.corrupt(format!("{} trailing bytes", self.remaining())));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Per-simulator row payloads.

/// A per-sweep observation row a journal can persist.
///
/// One implementation per simulator row shape; [`JournalRow::TAG`] is
/// folded into the campaign meta frame so a journal written by one
/// simulator family cannot be silently resumed by another.
pub trait JournalRow: Clone {
    /// Row-shape discriminator recorded in the campaign meta frame.
    const TAG: u16;
    /// Append the row to a frame payload.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decode one row from a frame payload.
    fn decode(d: &mut Dec) -> Result<Self>;
}

/// Catchment-code rows (verfploeter, atlas, EDNS-CS).
impl JournalRow for Vec<u16> {
    const TAG: u16 = 1;
    fn encode(&self, out: &mut Vec<u8>) {
        put_seq(out, self, |o, &c| put_u16(o, c));
    }
    fn decode(d: &mut Dec) -> Result<Self> {
        let n = d.seq_len(2)?;
        (0..n).map(|_| d.u16()).collect()
    }
}

/// Per-hop catchment-code rows (traceroute: hop-major).
impl JournalRow for Vec<Vec<u16>> {
    const TAG: u16 = 2;
    fn encode(&self, out: &mut Vec<u8>) {
        put_seq(out, self, |o, hop| hop.encode(o));
    }
    fn decode(d: &mut Dec) -> Result<Self> {
        let n = d.seq_len(8)?;
        (0..n).map(|_| Vec::<u16>::decode(d)).collect()
    }
}

/// Optional RTT sample rows (latency prober).
impl JournalRow for Vec<Option<f64>> {
    const TAG: u16 = 3;
    fn encode(&self, out: &mut Vec<u8>) {
        put_seq(out, self, |o, s| match s {
            None => put_bool(o, false),
            Some(v) => {
                put_bool(o, true);
                put_f64(o, *v);
            }
        });
    }
    fn decode(d: &mut Dec) -> Result<Self> {
        let n = d.seq_len(1)?;
        (0..n)
            .map(|_| Ok(if d.bool()? { Some(d.f64()?) } else { None }))
            .collect()
    }
}

// ---------------------------------------------------------------------
// Shared record shapes.

/// Append a [`CampaignHealth`] record (field order is part of the format).
pub fn put_health(out: &mut Vec<u8>, h: &CampaignHealth) {
    put_i64(out, h.time.as_secs());
    put_usize(out, h.targets);
    put_usize(out, h.responses);
    put_usize(out, h.attempts);
    put_usize(out, h.retries);
    put_usize(out, h.quarantined);
    put_usize(out, h.churned_out);
    put_usize(out, h.lost);
    put_usize(out, h.late);
    put_usize(out, h.duplicates);
    put_usize(out, h.decode_failures);
    put_usize(out, h.divergences);
    put_usize(out, h.spoofed);
    put_usize(out, h.distrusted);
    put_bool(out, h.budget_exhausted);
    put_bool(out, h.deadline_exceeded);
}

/// Decode a [`CampaignHealth`] record.
pub fn read_health(d: &mut Dec) -> Result<CampaignHealth> {
    let mut h = CampaignHealth::new(Timestamp::from_secs(d.i64()?), d.usize()?);
    h.responses = d.usize()?;
    h.attempts = d.usize()?;
    h.retries = d.usize()?;
    h.quarantined = d.usize()?;
    h.churned_out = d.usize()?;
    h.lost = d.usize()?;
    h.late = d.usize()?;
    h.duplicates = d.usize()?;
    h.decode_failures = d.usize()?;
    h.divergences = d.usize()?;
    h.spoofed = d.usize()?;
    h.distrusted = d.usize()?;
    h.budget_exhausted = d.bool()?;
    h.deadline_exceeded = d.bool()?;
    if h.responses > h.targets {
        return Err(Error::Corrupted {
            what: "campaign health",
            offset: 0,
            message: format!("{} responses for {} targets", h.responses, h.targets),
        });
    }
    Ok(h)
}

/// Append a full [`SweepCheckpoint`] — the payload of one sweep frame.
pub fn put_checkpoint<Row: JournalRow>(out: &mut Vec<u8>, ck: &SweepCheckpoint<Row>) {
    put_usize(out, ck.sweep);
    ck.row.encode(out);
    put_health(out, &ck.health);
    put_seq(out, &ck.consecutive_failures, |o, &v| put_usize(o, v));
    put_seq(out, &ck.quarantined_until, |o, &v| put_usize(o, v));
    put_u64(out, ck.campaign_rng_pos);
    put_u64(out, ck.fault_rng_pos);
}

/// Decode one [`SweepCheckpoint`].
pub fn read_checkpoint<Row: JournalRow>(d: &mut Dec) -> Result<SweepCheckpoint<Row>> {
    let sweep = d.usize()?;
    let row = Row::decode(d)?;
    let health = read_health(d)?;
    let nf = d.seq_len(8)?;
    let consecutive_failures = (0..nf).map(|_| d.usize()).collect::<Result<Vec<_>>>()?;
    let nq = d.seq_len(8)?;
    let quarantined_until = (0..nq).map(|_| d.usize()).collect::<Result<Vec<_>>>()?;
    let campaign_rng_pos = d.u64()?;
    let fault_rng_pos = d.u64()?;
    Ok(SweepCheckpoint {
        sweep,
        row,
        health,
        consecutive_failures,
        quarantined_until,
        campaign_rng_pos,
        fault_rng_pos,
    })
}

/// Append a folded [`ResumeState`] — the payload of a snapshot frame.
pub fn put_resume<Row: JournalRow>(out: &mut Vec<u8>, rs: &ResumeState<Row>) {
    put_usize(out, rs.next_sweep);
    put_seq(out, &rs.rows, |o, r| r.encode(o));
    put_seq(out, &rs.health, put_health);
    put_seq(out, &rs.consecutive_failures, |o, &v| put_usize(o, v));
    put_seq(out, &rs.quarantined_until, |o, &v| put_usize(o, v));
    put_u64(out, rs.campaign_rng_pos);
    put_u64(out, rs.fault_rng_pos);
}

/// Decode a snapshot back into a [`ResumeState`].
pub fn read_resume<Row: JournalRow>(d: &mut Dec) -> Result<ResumeState<Row>> {
    let next_sweep = d.usize()?;
    let nr = d.seq_len(8)?;
    let rows = (0..nr)
        .map(|_| Row::decode(d))
        .collect::<Result<Vec<_>>>()?;
    let nh = d.seq_len(8)?;
    let health = (0..nh)
        .map(|_| read_health(d))
        .collect::<Result<Vec<_>>>()?;
    let nf = d.seq_len(8)?;
    let consecutive_failures = (0..nf).map(|_| d.usize()).collect::<Result<Vec<_>>>()?;
    let nq = d.seq_len(8)?;
    let quarantined_until = (0..nq).map(|_| d.usize()).collect::<Result<Vec<_>>>()?;
    let campaign_rng_pos = d.u64()?;
    let fault_rng_pos = d.u64()?;
    let rs = ResumeState {
        next_sweep,
        rows,
        health,
        consecutive_failures,
        quarantined_until,
        campaign_rng_pos,
        fault_rng_pos,
    };
    if rs.rows.len() != rs.next_sweep || rs.health.len() != rs.next_sweep {
        return Err(Error::Corrupted {
            what: "resume snapshot",
            offset: 0,
            message: format!(
                "{} rows / {} health records for {} completed sweeps",
                rs.rows.len(),
                rs.health.len(),
                rs.next_sweep
            ),
        });
    }
    Ok(rs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trips_are_exact() {
        let mut out = Vec::new();
        put_u16(&mut out, 0xBEEF);
        put_i64(&mut out, -5);
        put_f64(&mut out, 0.1 + 0.2);
        put_str(&mut out, "Φ-journal");
        put_short_str(&mut out, "tier/manifest");
        put_bool(&mut out, true);
        let mut d = Dec::new(&out, "test");
        assert_eq!(d.u16().unwrap(), 0xBEEF);
        assert_eq!(d.i64().unwrap(), -5);
        assert_eq!(d.f64().unwrap().to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(d.str().unwrap(), "Φ-journal");
        assert_eq!(d.short_str().unwrap(), "tier/manifest");
        assert!(d.bool().unwrap());
        d.finish().unwrap();
    }

    #[test]
    fn decoder_rejects_hostile_lengths_without_allocating() {
        // A sequence length far beyond the payload must fail fast.
        let mut out = Vec::new();
        put_usize(&mut out, usize::MAX / 2);
        let mut d = Dec::new(&out, "test");
        assert!(matches!(d.seq_len(1), Err(Error::Corrupted { .. })));
    }

    #[test]
    fn decoder_rejects_non_finite_floats_and_bad_bools() {
        let mut out = Vec::new();
        put_u64(&mut out, f64::NAN.to_bits());
        out.push(7);
        let mut d = Dec::new(&out, "test");
        assert!(matches!(d.f64(), Err(Error::Corrupted { .. })));
        assert!(matches!(d.bool(), Err(Error::Corrupted { .. })));
    }

    #[test]
    fn checkpoint_rows_round_trip_for_all_simulator_shapes() {
        fn rt<Row: JournalRow + PartialEq + std::fmt::Debug>(row: Row) {
            let mut out = Vec::new();
            row.encode(&mut out);
            let mut d = Dec::new(&out, "row");
            assert_eq!(Row::decode(&mut d).unwrap(), row);
            d.finish().unwrap();
        }
        rt(vec![0u16, 7, u16::MAX]);
        rt(vec![vec![1u16, 2], vec![], vec![u16::MAX - 2]]);
        rt(vec![Some(1.25f64), None, Some(88.0625)]);
    }
}
