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
//! borrows its payload.

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

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv4Header {
        Ipv4Header::new(protocol::UDP, [10, 0, 0, 1], [192, 0, 2, 9])
    }

    /// `h` around `payload`, written from offset 0.
    fn encode(h: Ipv4Header, payload: &[u8]) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        h.write(&mut out, |out| {
            out.extend_from_slice(payload);
            Ok(())
        })?;
        Ok(out)
    }

    /// Refill the header checksum after a deliberate header change.
    fn reseal(bytes: &mut [u8]) {
        bytes[10..12].fill(0);
        let ck = internet_checksum(&bytes[..IPV4_HEADER_LEN]);
        bytes[10..12].copy_from_slice(&ck.to_be_bytes());
    }

    #[test]
    fn round_trip() {
        let h = Ipv4Header {
            ttl: 9,
            ident: 0x0BAD,
            ..sample()
        };
        let bytes = encode(h, &[1, 2, 3]).unwrap();
        assert_eq!(bytes.len(), 23);
        assert_eq!(Ipv4Header::parse(&bytes).unwrap(), (h, &[1u8, 2, 3][..]));
    }

    #[test]
    fn header_checksum_detects_corruption() {
        let mut bytes = encode(sample(), &[1, 2, 3]).unwrap();
        bytes[16] ^= 0xFF; // corrupt dst
        assert!(matches!(
            Ipv4Header::parse(&bytes),
            Err(WireError::BadChecksum { .. })
        ));
    }

    #[test]
    fn payload_corruption_is_not_header_checksummed() {
        // IPv4 header checksum covers only the header; transport must
        // protect the payload (UDP/ICMP checksums do).
        let mut bytes = encode(sample(), &[1, 2, 3]).unwrap();
        bytes[22] ^= 0xFF;
        assert!(Ipv4Header::parse(&bytes).is_ok());
    }

    #[test]
    fn rejects_truncation_and_bad_version() {
        let bytes = encode(sample(), &[1, 2, 3]).unwrap();
        for cut in 0..IPV4_HEADER_LEN {
            assert!(Ipv4Header::parse(&bytes[..cut]).is_err());
        }
        let mut v6 = bytes.clone();
        v6[0] = 0x65;
        assert!(matches!(
            Ipv4Header::parse(&v6),
            Err(WireError::UnknownValue { .. })
        ));
    }

    #[test]
    fn rejects_options() {
        let mut bytes = encode(sample(), &[1, 2, 3]).unwrap();
        bytes[0] = 0x46; // IHL 6
        reseal(&mut bytes); // so that IHL is the failing check
        assert!(matches!(
            Ipv4Header::parse(&bytes),
            Err(WireError::FieldOverflow { .. })
        ));
    }

    #[test]
    fn total_length_bounds_payload() {
        let mut bytes = encode(sample(), &[1, 2, 3]).unwrap();
        // Claim 4 more bytes than present.
        let total = (bytes.len() + 4) as u16;
        bytes[2..4].copy_from_slice(&total.to_be_bytes());
        reseal(&mut bytes);
        assert_eq!(
            Ipv4Header::parse(&bytes),
            Err(WireError::Truncated {
                what: "ipv4 payload",
                needed: 4,
            })
        );
    }

    #[test]
    fn trailing_bytes_beyond_total_length_are_ignored() {
        // Link padding after the IP datagram is legal.
        let mut bytes = encode(sample(), &[1, 2, 3]).unwrap();
        bytes.extend_from_slice(&[0xAA; 6]);
        let (_, payload) = Ipv4Header::parse(&bytes).unwrap();
        assert_eq!(payload, [1, 2, 3]);
    }

    #[test]
    fn header_writes_around_a_payload_written_in_place() {
        let h = Ipv4Header { ttl: 9, ..sample() };
        let mut buf = vec![0xEE; 5];
        h.write(&mut buf, |out| {
            out.extend_from_slice(&[1, 2, 3]);
            Ok(())
        })
        .unwrap();
        assert_eq!(&buf[5..], encode(h, &[1, 2, 3]).unwrap().as_slice());
        let (back, payload) = Ipv4Header::parse(&buf[5..]).unwrap();
        assert_eq!((back, payload), (h, &[1u8, 2, 3][..]));
    }

    #[test]
    fn bad_checksum_reports_the_sum_without_its_field() {
        let mut bytes = encode(sample(), &[1, 2, 3]).unwrap();
        let good = u16::from_be_bytes([bytes[10], bytes[11]]);
        bytes[11] ^= 0x01;
        assert_eq!(
            Ipv4Header::parse(&bytes),
            Err(WireError::BadChecksum {
                found: good ^ 0x0001,
                computed: good,
            })
        );
    }

    #[test]
    fn oversize_payload_rejected() {
        assert!(matches!(
            encode(sample(), &[0; 70_000]),
            Err(WireError::FieldOverflow { .. })
        ));
    }
}
