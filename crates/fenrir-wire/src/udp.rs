//! UDP (RFC 768) with the IPv4 pseudo-header checksum.
//!
//! DNS probes (CHAOS identification, EDNS Client-Subnet lookups) ride UDP;
//! the simulators encode full IPv4+UDP+DNS datagrams and parse them on the
//! receiving side.
//!
//! [`UdpHeader`] is the codec: [`UdpHeader::write`] appends a header, lets
//! the caller append the payload, then fills in the length and the
//! checksum; [`UdpHeader::parse`] reads a datagram in place. Both sum the
//! pseudo-header and the datagram where they lie.

use crate::checksum::checksum_of;
use crate::error::{Result, WireError};
use crate::ipv4::{protocol, Ipv4Header};

/// UDP header length in bytes.
pub const UDP_HEADER_LEN: usize = 8;

/// The DNS port.
pub const DNS_PORT: u16 = 53;

/// The ports of a UDP header; its length and checksum derive from the
/// payload and the pseudo-header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
}

impl UdpHeader {
    /// Append this header to `out`, then whatever `payload` appends, then
    /// fill in the length and the checksum over the RFC 768 pseudo-header
    /// (`src`/`dst`/protocol/length) plus header and payload.
    pub fn write(
        &self,
        out: &mut Vec<u8>,
        src: [u8; 4],
        dst: [u8; 4],
        payload: impl FnOnce(&mut Vec<u8>) -> Result<()>,
    ) -> Result<()> {
        let start = out.len();
        out.extend_from_slice(&self.src_port.to_be_bytes());
        out.extend_from_slice(&self.dst_port.to_be_bytes());
        out.extend_from_slice(&[0, 0, 0, 0]); // length, checksum placeholder
        payload(out)?;
        let len = out.len() - start;
        if len > usize::from(u16::MAX) {
            return Err(WireError::FieldOverflow {
                what: "udp length",
                value: len,
                max: usize::from(u16::MAX),
            });
        }
        out[start + 4..start + 6].copy_from_slice(&(len as u16).to_be_bytes());
        let mut ck = checksum_of(&[&pseudo(src, dst, len), &out[start..]]);
        if ck == 0 {
            ck = 0xFFFF; // RFC 768: zero checksum means "none"; transmit 1s
        }
        out[start + 6..start + 8].copy_from_slice(&ck.to_be_bytes());
        Ok(())
    }

    /// Read a datagram in place, verifying length and checksum against
    /// the pseudo-header; the payload is what its length covers.
    pub fn parse(buf: &[u8], src: [u8; 4], dst: [u8; 4]) -> Result<(UdpHeader, &[u8])> {
        if buf.len() < UDP_HEADER_LEN {
            return Err(WireError::Truncated {
                what: "udp header",
                needed: UDP_HEADER_LEN - buf.len(),
            });
        }
        let len = usize::from(u16::from_be_bytes([buf[4], buf[5]]));
        if len < UDP_HEADER_LEN || len > buf.len() {
            return Err(WireError::Truncated {
                what: "udp payload",
                needed: len.saturating_sub(buf.len()),
            });
        }
        let claimed = u16::from_be_bytes([buf[6], buf[7]]);
        // A zero checksum means the sender computed none.
        if claimed != 0 {
            let pseudo = pseudo(src, dst, len);
            if checksum_of(&[&pseudo, &buf[..len]]) != 0 {
                return Err(WireError::BadChecksum {
                    found: claimed,
                    computed: checksum_of(&[&pseudo, &buf[..6], &buf[8..len]]),
                });
            }
        }
        let header = UdpHeader {
            src_port: u16::from_be_bytes([buf[0], buf[1]]),
            dst_port: u16::from_be_bytes([buf[2], buf[3]]),
        };
        Ok((header, &buf[UDP_HEADER_LEN..len]))
    }

    /// Read the datagram an IPv4 packet carries: its protocol must be UDP,
    /// and the checksum is verified against its addresses.
    pub fn parse_in<'a>(ip: &Ipv4Header, payload: &'a [u8]) -> Result<(UdpHeader, &'a [u8])> {
        if ip.protocol != protocol::UDP {
            return Err(WireError::UnknownValue {
                what: "ip protocol (expected udp)",
                value: u32::from(ip.protocol),
            });
        }
        UdpHeader::parse(payload, ip.src, ip.dst)
    }
}

/// The RFC 768 pseudo-header for a datagram of `len` bytes.
fn pseudo(src: [u8; 4], dst: [u8; 4], len: usize) -> [u8; 12] {
    let [s0, s1, s2, s3] = src;
    let [d0, d1, d2, d3] = dst;
    let [l0, l1] = (len as u16).to_be_bytes();
    [s0, s1, s2, s3, d0, d1, d2, d3, 0, protocol::UDP, l0, l1]
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: [u8; 4] = [10, 1, 2, 3];
    const DST: [u8; 4] = [192, 0, 2, 53];

    /// A datagram from `src_port` to `dst_port` carrying `payload`, with
    /// its checksum over `SRC` and `DST`.
    fn encode(src_port: u16, dst_port: u16, payload: &[u8]) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        UdpHeader { src_port, dst_port }.write(&mut out, SRC, DST, |out| {
            out.extend_from_slice(payload);
            Ok(())
        })?;
        Ok(out)
    }

    #[test]
    fn round_trip() {
        let bytes = encode(33_000, DNS_PORT, b"query").unwrap();
        assert_eq!(bytes.len(), 13);
        let (h, payload) = UdpHeader::parse(&bytes, SRC, DST).unwrap();
        assert_eq!((h.src_port, h.dst_port), (33_000, DNS_PORT));
        assert_eq!(payload, b"query");
    }

    #[test]
    fn checksum_binds_addresses() {
        // The pseudo-header makes the checksum address-dependent: reading
        // with the wrong addresses fails (anti-spoofing sanity).
        let bytes = encode(1, 2, &[9; 11]).unwrap();
        assert!(UdpHeader::parse(&bytes, SRC, [1, 1, 1, 1]).is_err());
    }

    #[test]
    fn corruption_detected() {
        let mut bytes = encode(1, 2, &[0xAB; 9]).unwrap();
        bytes[9] ^= 1;
        assert!(matches!(
            UdpHeader::parse(&bytes, SRC, DST),
            Err(WireError::BadChecksum { .. })
        ));
    }

    #[test]
    fn zero_checksum_means_unverified() {
        let mut bytes = encode(7, 8, &[1, 2]).unwrap();
        bytes[6] = 0;
        bytes[7] = 0;
        // Checksum disabled: accepted as-is.
        let (_, payload) = UdpHeader::parse(&bytes, SRC, DST).unwrap();
        assert_eq!(payload, [1, 2]);
    }

    #[test]
    fn truncation_rejected() {
        let bytes = encode(1, 2, &[1, 2, 3, 4]).unwrap();
        for cut in 0..bytes.len() {
            assert!(UdpHeader::parse(&bytes[..cut], SRC, DST).is_err());
        }
    }

    #[test]
    fn parse_in_rejects_wrong_protocol() {
        let ip = Ipv4Header::new(protocol::ICMP, SRC, DST);
        assert!(matches!(
            UdpHeader::parse_in(&ip, &[0; 8]),
            Err(WireError::UnknownValue { .. })
        ));
    }

    #[test]
    fn header_writes_inside_an_ipv4_packet_in_one_buffer() {
        let h = UdpHeader {
            src_port: 5_353,
            dst_port: DNS_PORT,
        };
        let mut buf = Vec::new();
        Ipv4Header::new(protocol::UDP, SRC, DST)
            .write(&mut buf, |out| {
                h.write(out, SRC, DST, |out| {
                    out.extend_from_slice(b"dns-bytes");
                    Ok(())
                })
            })
            .unwrap();
        let udp = encode(5_353, DNS_PORT, b"dns-bytes").unwrap();
        assert_eq!(&buf[crate::ipv4::IPV4_HEADER_LEN..], udp.as_slice());
        let (ip, inner) = Ipv4Header::parse(&buf).unwrap();
        let (back, payload) = UdpHeader::parse_in(&ip, inner).unwrap();
        assert_eq!((back, payload), (h, &b"dns-bytes"[..]));
    }

    #[test]
    fn bad_checksum_reports_the_sum_without_its_field() {
        let mut bytes = encode(1, 2, &[0xAB; 9]).unwrap();
        let good = u16::from_be_bytes([bytes[6], bytes[7]]);
        bytes[7] ^= 0x01;
        assert_eq!(
            UdpHeader::parse(&bytes, SRC, DST),
            Err(WireError::BadChecksum {
                found: good ^ 0x0001,
                computed: good,
            })
        );
    }

    #[test]
    fn oversize_payload_rejected() {
        assert!(matches!(
            encode(1, 2, &[0; 70_000]),
            Err(WireError::FieldOverflow { .. })
        ));
    }
}
