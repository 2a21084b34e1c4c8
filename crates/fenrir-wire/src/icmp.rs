//! ICMPv4 messages (RFC 792) for Verfploeter-style sweeps, Trinocular-style
//! latency probing, and traceroute.
//!
//! Verfploeter "pings targets in millions of networks and watch\[es\] which
//! catchment the reply goes to"; traceroute elicits *time exceeded* from
//! intermediate hops. The measurement simulators encode these packets,
//! carry them through the simulated topology, and decode the replies.
//!
//! [`IcmpView`] is the codec: [`IcmpView::encode_into`] appends a packet
//! to a caller's buffer and [`IcmpView::parse`] reads one in place,
//! borrowing its payload.

use crate::checksum::{checksum_of, internet_checksum, verify};
use crate::error::{Result, WireError};

/// ICMP type/code pairs Fenrir uses; everything else is rejected (the
/// simulators never emit other types, so seeing one indicates corruption).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IcmpKind {
    /// Echo reply (type 0).
    EchoReply,
    /// Destination unreachable (type 3) with code.
    DestUnreachable(u8),
    /// Echo request (type 8).
    EchoRequest,
    /// Time exceeded (type 11) with code (0 = TTL exceeded in transit).
    TimeExceeded(u8),
}

impl IcmpKind {
    /// `(type, code)` on the wire.
    pub fn type_code(self) -> (u8, u8) {
        match self {
            IcmpKind::EchoReply => (0, 0),
            IcmpKind::DestUnreachable(c) => (3, c),
            IcmpKind::EchoRequest => (8, 0),
            IcmpKind::TimeExceeded(c) => (11, c),
        }
    }

    /// Decode from `(type, code)`.
    pub fn from_type_code(t: u8, c: u8) -> Result<Self> {
        match t {
            0 => Ok(IcmpKind::EchoReply),
            3 => Ok(IcmpKind::DestUnreachable(c)),
            8 => Ok(IcmpKind::EchoRequest),
            11 => Ok(IcmpKind::TimeExceeded(c)),
            other => Err(WireError::UnknownValue {
                what: "icmp type",
                value: u32::from(other),
            }),
        }
    }
}

/// An ICMPv4 packet whose payload lies in someone else's buffer: what
/// [`IcmpView::parse`] reads off the wire, or what
/// [`IcmpView::encode_into`] writes.
///
/// For echo messages, `ident`/`seq` carry the identifier and sequence
/// number (Verfploeter puts the probed /24 block id there, so a reply
/// arriving at *any* anycast site can be attributed); for error messages
/// (unreachable, time exceeded) they are zero on the wire and `payload`
/// carries the quoted original datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IcmpView<'a> {
    /// Message kind.
    pub kind: IcmpKind,
    /// Echo identifier (0 for error messages).
    pub ident: u16,
    /// Echo sequence number (0 for error messages).
    pub seq: u16,
    /// Echo payload or quoted datagram.
    pub payload: &'a [u8],
}

impl<'a> IcmpView<'a> {
    /// Append the packet, with a valid checksum, to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        let (t, c) = self.kind.type_code();
        out.extend_from_slice(&[t, c, 0, 0]); // checksum placeholder
        out.extend_from_slice(&self.ident.to_be_bytes());
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(self.payload);
        let ck = internet_checksum(&out[start..]);
        out[start + 2..start + 4].copy_from_slice(&ck.to_be_bytes());
    }

    /// Read a packet in place, verifying its checksum.
    pub fn parse(buf: &'a [u8]) -> Result<Self> {
        if buf.len() < 8 {
            return Err(WireError::Truncated {
                what: "icmp packet",
                needed: 8 - buf.len(),
            });
        }
        if !verify(buf) {
            return Err(WireError::BadChecksum {
                found: u16::from_be_bytes([buf[2], buf[3]]),
                computed: checksum_of(&[&buf[..2], &buf[4..]]),
            });
        }
        Ok(IcmpView {
            kind: IcmpKind::from_type_code(buf[0], buf[1])?,
            ident: u16::from_be_bytes([buf[4], buf[5]]),
            seq: u16::from_be_bytes([buf[6], buf[7]]),
            payload: &buf[8..],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo(ident: u16, seq: u16, payload: &[u8]) -> IcmpView<'_> {
        IcmpView {
            kind: IcmpKind::EchoRequest,
            ident,
            seq,
            payload,
        }
    }

    fn encode(p: IcmpView<'_>) -> Vec<u8> {
        let mut out = Vec::new();
        p.encode_into(&mut out);
        out
    }

    #[test]
    fn echo_round_trip() {
        let req = echo(0x1234, 7, b"fenrir");
        let bytes = encode(req);
        assert_eq!(bytes.len(), 8 + 6);
        assert_eq!(IcmpView::parse(&bytes).unwrap(), req);
    }

    #[test]
    fn time_exceeded_quotes_its_payload() {
        let original = [0xAB; 28];
        let te = IcmpView {
            kind: IcmpKind::TimeExceeded(0),
            ident: 0,
            seq: 0,
            payload: &original,
        };
        let bytes = encode(te);
        assert_eq!(&bytes[..2], &[11, 0]);
        let back = IcmpView::parse(&bytes).unwrap();
        assert_eq!(back.kind, IcmpKind::TimeExceeded(0));
        assert_eq!(back.payload, original);
    }

    #[test]
    fn corrupted_packet_fails_checksum() {
        let mut bytes = encode(echo(1, 1, &[9; 16]));
        bytes[10] ^= 0x01;
        assert!(matches!(
            IcmpView::parse(&bytes),
            Err(WireError::BadChecksum { .. })
        ));
    }

    #[test]
    fn truncated_packet_rejected() {
        let bytes = encode(echo(1, 1, &[]));
        for cut in 0..8 {
            assert!(IcmpView::parse(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn unknown_type_rejected() {
        // Type 42 with a correct checksum still rejects on kind.
        let mut raw = vec![42u8, 0, 0, 0, 0, 0, 0, 0];
        let ck = internet_checksum(&raw);
        raw[2..4].copy_from_slice(&ck.to_be_bytes());
        assert!(matches!(
            IcmpView::parse(&raw),
            Err(WireError::UnknownValue { .. })
        ));
    }

    #[test]
    fn kind_codes_round_trip() {
        for k in [
            IcmpKind::EchoReply,
            IcmpKind::EchoRequest,
            IcmpKind::DestUnreachable(1),
            IcmpKind::TimeExceeded(0),
        ] {
            let (t, c) = k.type_code();
            assert_eq!(IcmpKind::from_type_code(t, c).unwrap(), k);
        }
        assert!(IcmpKind::from_type_code(99, 0).is_err());
    }

    #[test]
    fn dest_unreachable_round_trip() {
        let pkt = IcmpView {
            kind: IcmpKind::DestUnreachable(3),
            ident: 0,
            seq: 0,
            payload: &[1, 2, 3, 4],
        };
        let bytes = encode(pkt);
        assert_eq!(IcmpView::parse(&bytes).unwrap(), pkt);
    }

    #[test]
    fn encodes_in_place_after_earlier_bytes() {
        let pkt = echo(7, 9, b"fenrir-vp");
        let mut buf = vec![0xEE; 3];
        pkt.encode_into(&mut buf);
        assert_eq!(&buf[3..], encode(pkt).as_slice());
        assert_eq!(IcmpView::parse(&buf[3..]).unwrap(), pkt);
    }

    #[test]
    fn bad_checksum_reports_the_sum_without_its_field() {
        let mut bytes = encode(echo(1, 2, &[5; 5]));
        let good = u16::from_be_bytes([bytes[2], bytes[3]]);
        bytes[2] ^= 0x10;
        assert_eq!(
            IcmpView::parse(&bytes),
            Err(WireError::BadChecksum {
                found: good ^ 0x1000,
                computed: good,
            })
        );
    }

    #[test]
    fn odd_payload_length_checksums_correctly() {
        let bytes = encode(echo(5, 5, &[0xFF; 7]));
        assert!(IcmpView::parse(&bytes).is_ok());
    }
}
