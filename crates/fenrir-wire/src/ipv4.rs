//! IPv4 headers (RFC 791), options-free, with header checksum.
//!
//! The measurement simulators ship their probes inside real IPv4 packets:
//! traceroute decrements the TTL at every simulated hop exactly as routers
//! do, and the Verfploeter/Atlas paths carry source addresses the anycast
//! site uses to attribute replies.
//!
//! [`Ipv4Header`] is the codec: [`Ipv4Header::write`] appends a header,
//! lets the caller append the payload behind it, then fills in the length
//! and checksum; [`Ipv4Header::parse`] reads a packet in place and
//! borrows its payload. The owned [`Ipv4Packet`] wraps both.

use crate::checksum::{checksum_of, internet_checksum};
use crate::error::{Result, WireError};

/// Header length in bytes (no options).
pub const IPV4_HEADER_LEN: usize = 20;

/// IP protocol numbers Fenrir uses.
pub mod protocol {
    /// ICMP.
    pub const ICMP: u8 = 1;
    /// UDP.
    pub const UDP: u8 = 17;
}

/// The fields of an options-free IPv4 header that are not derived from
/// the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Time to live.
    pub ttl: u8,
    /// Payload protocol ([`protocol::ICMP`] or [`protocol::UDP`]).
    pub protocol: u8,
    /// Source address.
    pub src: [u8; 4],
    /// Destination address.
    pub dst: [u8; 4],
    /// Identification field (for diagnostics; fragmentation unsupported).
    pub ident: u16,
}

impl Ipv4Header {
    /// A header with a default TTL of 64 and identification 0.
    pub fn new(protocol: u8, src: [u8; 4], dst: [u8; 4]) -> Self {
        Ipv4Header {
            ttl: 64,
            protocol,
            src,
            dst,
            ident: 0,
        }
    }

    /// Append this header to `out`, then whatever `payload` appends, then
    /// fill in the total length and the header checksum.
    ///
    /// Errors if the packet would exceed the 65 535-byte total length.
    pub fn write(
        &self,
        out: &mut Vec<u8>,
        payload: impl FnOnce(&mut Vec<u8>) -> Result<()>,
    ) -> Result<()> {
        let start = out.len();
        out.extend_from_slice(&[0x45, 0, 0, 0]); // version 4, IHL 5; DSCP/ECN; length
        out.extend_from_slice(&self.ident.to_be_bytes());
        out.extend_from_slice(&[0x40, 0x00]); // DF, fragment offset 0
        out.extend_from_slice(&[self.ttl, self.protocol, 0, 0]); // checksum placeholder
        out.extend_from_slice(&self.src);
        out.extend_from_slice(&self.dst);
        payload(out)?;
        let total = out.len() - start;
        if total > usize::from(u16::MAX) {
            return Err(WireError::FieldOverflow {
                what: "ipv4 total length",
                value: total,
                max: usize::from(u16::MAX),
            });
        }
        out[start + 2..start + 4].copy_from_slice(&(total as u16).to_be_bytes());
        let ck = internet_checksum(&out[start..start + IPV4_HEADER_LEN]);
        out[start + 10..start + 12].copy_from_slice(&ck.to_be_bytes());
        Ok(())
    }

    /// Read a packet in place: verify the header checksum and return the
    /// header with the payload its total length covers. Options (IHL > 5)
    /// are rejected — the simulators never emit them.
    pub fn parse(buf: &[u8]) -> Result<(Ipv4Header, &[u8])> {
        if buf.len() < IPV4_HEADER_LEN {
            return Err(WireError::Truncated {
                what: "ipv4 header",
                needed: IPV4_HEADER_LEN - buf.len(),
            });
        }
        let version = buf[0] >> 4;
        if version != 4 {
            return Err(WireError::UnknownValue {
                what: "ip version",
                value: u32::from(version),
            });
        }
        let ihl = usize::from(buf[0] & 0x0F) * 4;
        if ihl != IPV4_HEADER_LEN {
            return Err(WireError::FieldOverflow {
                what: "ipv4 ihl",
                value: ihl,
                max: IPV4_HEADER_LEN,
            });
        }
        if internet_checksum(&buf[..IPV4_HEADER_LEN]) != 0 {
            return Err(WireError::BadChecksum {
                found: u16::from_be_bytes([buf[10], buf[11]]),
                computed: checksum_of(&[&buf[..10], &buf[12..IPV4_HEADER_LEN]]),
            });
        }
        let total = usize::from(u16::from_be_bytes([buf[2], buf[3]]));
        if total < IPV4_HEADER_LEN || total > buf.len() {
            return Err(WireError::Truncated {
                what: "ipv4 payload",
                needed: total.saturating_sub(buf.len()),
            });
        }
        let header = Ipv4Header {
            ttl: buf[8],
            protocol: buf[9],
            src: [buf[12], buf[13], buf[14], buf[15]],
            dst: [buf[16], buf[17], buf[18], buf[19]],
            ident: u16::from_be_bytes([buf[4], buf[5]]),
        };
        Ok((header, &buf[IPV4_HEADER_LEN..total]))
    }
}

/// An options-free IPv4 packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv4Packet {
    /// Time to live.
    pub ttl: u8,
    /// Payload protocol ([`protocol::ICMP`] or [`protocol::UDP`]).
    pub protocol: u8,
    /// Source address.
    pub src: [u8; 4],
    /// Destination address.
    pub dst: [u8; 4],
    /// Identification field (for diagnostics; fragmentation unsupported).
    pub ident: u16,
    /// Transport payload.
    pub payload: Vec<u8>,
}

impl Ipv4Packet {
    /// Build a packet with a default TTL of 64.
    pub fn new(protocol: u8, src: [u8; 4], dst: [u8; 4], payload: Vec<u8>) -> Self {
        Ipv4Packet::from_parts(Ipv4Header::new(protocol, src, dst), payload)
    }

    fn from_parts(h: Ipv4Header, payload: Vec<u8>) -> Self {
        Ipv4Packet {
            ttl: h.ttl,
            protocol: h.protocol,
            src: h.src,
            dst: h.dst,
            ident: h.ident,
            payload,
        }
    }

    /// Set the TTL (for traceroute probes).
    pub fn with_ttl(mut self, ttl: u8) -> Self {
        self.ttl = ttl;
        self
    }

    /// The header fields.
    pub fn header(&self) -> Ipv4Header {
        Ipv4Header {
            ttl: self.ttl,
            protocol: self.protocol,
            src: self.src,
            dst: self.dst,
            ident: self.ident,
        }
    }

    /// Encode with a valid header checksum.
    ///
    /// Errors if the packet would exceed the 65 535-byte total length.
    pub fn encode(&self) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(IPV4_HEADER_LEN + self.payload.len());
        self.header().write(&mut out, |out| {
            out.extend_from_slice(&self.payload);
            Ok(())
        })?;
        Ok(out)
    }

    /// Decode and verify the header checksum (see [`Ipv4Header::parse`]).
    pub fn decode(buf: &[u8]) -> Result<Self> {
        let (h, payload) = Ipv4Header::parse(buf)?;
        Ok(Ipv4Packet::from_parts(h, payload.to_vec()))
    }

    /// Forwarding step at a router: decrement TTL, recompute nothing (the
    /// caller re-encodes). Returns `false` when the TTL hits zero — time to
    /// emit an ICMP time-exceeded.
    pub fn forward(&mut self) -> bool {
        if self.ttl <= 1 {
            self.ttl = 0;
            return false;
        }
        self.ttl -= 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv4Packet {
        Ipv4Packet::new(protocol::UDP, [10, 0, 0, 1], [192, 0, 2, 9], vec![1, 2, 3])
    }

    #[test]
    fn round_trip() {
        let p = sample().with_ttl(9);
        let bytes = p.encode().unwrap();
        assert_eq!(bytes.len(), 23);
        let back = Ipv4Packet::decode(&bytes).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn header_checksum_detects_corruption() {
        let mut bytes = sample().encode().unwrap();
        bytes[16] ^= 0xFF; // corrupt dst
        assert!(matches!(
            Ipv4Packet::decode(&bytes),
            Err(WireError::BadChecksum { .. })
        ));
    }

    #[test]
    fn payload_corruption_is_not_header_checksummed() {
        // IPv4 header checksum covers only the header; transport must
        // protect the payload (UDP/ICMP checksums do).
        let mut bytes = sample().encode().unwrap();
        bytes[22] ^= 0xFF;
        assert!(Ipv4Packet::decode(&bytes).is_ok());
    }

    #[test]
    fn rejects_truncation_and_bad_version() {
        let bytes = sample().encode().unwrap();
        for cut in 0..IPV4_HEADER_LEN {
            assert!(Ipv4Packet::decode(&bytes[..cut]).is_err());
        }
        let mut v6 = bytes.clone();
        v6[0] = 0x65;
        assert!(matches!(
            Ipv4Packet::decode(&v6),
            Err(WireError::UnknownValue { .. })
        ));
    }

    #[test]
    fn rejects_options() {
        let mut bytes = sample().encode().unwrap();
        bytes[0] = 0x46; // IHL 6
                         // Fix checksum for the mutated header so IHL is the failing check.
        bytes[10] = 0;
        bytes[11] = 0;
        let ck = internet_checksum(&bytes[..IPV4_HEADER_LEN]);
        bytes[10..12].copy_from_slice(&ck.to_be_bytes());
        assert!(matches!(
            Ipv4Packet::decode(&bytes),
            Err(WireError::FieldOverflow { .. })
        ));
    }

    #[test]
    fn total_length_bounds_payload() {
        let p = sample();
        let mut bytes = p.encode().unwrap();
        // Claim 4 more bytes than present.
        let total = (bytes.len() + 4) as u16;
        bytes[2..4].copy_from_slice(&total.to_be_bytes());
        bytes[10] = 0;
        bytes[11] = 0;
        let ck = internet_checksum(&bytes[..IPV4_HEADER_LEN]);
        bytes[10..12].copy_from_slice(&ck.to_be_bytes());
        assert!(matches!(
            Ipv4Packet::decode(&bytes),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn trailing_bytes_beyond_total_length_are_ignored() {
        // Link padding after the IP datagram is legal.
        let p = sample();
        let mut bytes = p.encode().unwrap();
        bytes.extend_from_slice(&[0xAA; 6]);
        let back = Ipv4Packet::decode(&bytes).unwrap();
        assert_eq!(back.payload, vec![1, 2, 3]);
    }

    #[test]
    fn forward_decrements_to_zero() {
        let mut p = sample().with_ttl(2);
        assert!(p.forward());
        assert_eq!(p.ttl, 1);
        assert!(!p.forward());
        assert_eq!(p.ttl, 0);
        // Forwarding a dead packet stays dead.
        assert!(!p.forward());
    }

    #[test]
    fn header_writes_around_a_payload_written_in_place() {
        let p = sample().with_ttl(9);
        let mut buf = vec![0xEE; 5];
        p.header()
            .write(&mut buf, |out| {
                out.extend_from_slice(&[1, 2, 3]);
                Ok(())
            })
            .unwrap();
        assert_eq!(&buf[5..], p.encode().unwrap().as_slice());
        let (h, payload) = Ipv4Header::parse(&buf[5..]).unwrap();
        assert_eq!((h, payload), (p.header(), &[1u8, 2, 3][..]));
    }

    #[test]
    fn bad_checksum_reports_the_sum_without_its_field() {
        let mut bytes = sample().encode().unwrap();
        let good = u16::from_be_bytes([bytes[10], bytes[11]]);
        bytes[11] ^= 0x01;
        assert_eq!(
            Ipv4Packet::decode(&bytes),
            Err(WireError::BadChecksum {
                found: good ^ 0x0001,
                computed: good,
            })
        );
    }

    #[test]
    fn oversize_payload_rejected() {
        let p = Ipv4Packet::new(protocol::UDP, [0; 4], [0; 4], vec![0; 70_000]);
        assert!(p.encode().is_err());
    }
}
