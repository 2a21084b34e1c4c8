//! UDP (RFC 768) with the IPv4 pseudo-header checksum.
//!
//! DNS probes (CHAOS identification, EDNS Client-Subnet lookups) ride UDP;
//! the simulators encode full IPv4+UDP+DNS datagrams and parse them on the
//! receiving side.
//!
//! [`UdpHeader`] is the codec: [`UdpHeader::write`] appends a header, lets
//! the caller append the payload, then fills in the length and the
//! checksum; [`UdpHeader::parse`] reads a datagram in place. Both sum the
//! pseudo-header and the datagram where they lie. The owned
//! [`UdpDatagram`] wraps both.

use crate::checksum::checksum_of;
use crate::error::{Result, WireError};
use crate::ipv4::{protocol, Ipv4Header, Ipv4Packet};

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

/// A UDP datagram (header + payload, addresses supplied externally for the
/// pseudo-header).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpDatagram {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

impl UdpDatagram {
    /// Build a datagram.
    pub fn new(src_port: u16, dst_port: u16, payload: Vec<u8>) -> Self {
        UdpDatagram {
            src_port,
            dst_port,
            payload,
        }
    }

    fn header(&self) -> UdpHeader {
        UdpHeader {
            src_port: self.src_port,
            dst_port: self.dst_port,
        }
    }

    fn from_parts(h: UdpHeader, payload: &[u8]) -> Self {
        UdpDatagram::new(h.src_port, h.dst_port, payload.to_vec())
    }

    /// Encode with a checksum over the RFC 768 pseudo-header
    /// (`src`/`dst`/protocol/length) plus header and payload.
    pub fn encode(&self, src: [u8; 4], dst: [u8; 4]) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(UDP_HEADER_LEN + self.payload.len());
        self.header().write(&mut out, src, dst, |out| {
            out.extend_from_slice(&self.payload);
            Ok(())
        })?;
        Ok(out)
    }

    /// Decode, verifying length and checksum against the pseudo-header.
    pub fn decode(buf: &[u8], src: [u8; 4], dst: [u8; 4]) -> Result<Self> {
        let (h, payload) = UdpHeader::parse(buf, src, dst)?;
        Ok(UdpDatagram::from_parts(h, payload))
    }

    /// Wrap into a full IPv4 packet.
    pub fn into_ipv4(self, src: [u8; 4], dst: [u8; 4]) -> Result<Ipv4Packet> {
        let bytes = self.encode(src, dst)?;
        Ok(Ipv4Packet::new(protocol::UDP, src, dst, bytes))
    }

    /// Extract from an IPv4 packet, checking the protocol field and
    /// verifying the checksum against the packet's addresses.
    pub fn from_ipv4(packet: &Ipv4Packet) -> Result<Self> {
        let (h, payload) = UdpHeader::parse_in(&packet.header(), &packet.payload)?;
        Ok(UdpDatagram::from_parts(h, payload))
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

    #[test]
    fn round_trip() {
        let d = UdpDatagram::new(33_000, DNS_PORT, b"query".to_vec());
        let bytes = d.encode(SRC, DST).unwrap();
        assert_eq!(bytes.len(), 13);
        let back = UdpDatagram::decode(&bytes, SRC, DST).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn checksum_binds_addresses() {
        // The pseudo-header makes the checksum address-dependent: decoding
        // with the wrong addresses fails (anti-spoofing sanity).
        let d = UdpDatagram::new(1, 2, vec![9; 11]);
        let bytes = d.encode(SRC, DST).unwrap();
        assert!(UdpDatagram::decode(&bytes, SRC, [1, 1, 1, 1]).is_err());
    }

    #[test]
    fn corruption_detected() {
        let d = UdpDatagram::new(1, 2, vec![0xAB; 9]);
        let mut bytes = d.encode(SRC, DST).unwrap();
        bytes[9] ^= 1;
        assert!(matches!(
            UdpDatagram::decode(&bytes, SRC, DST),
            Err(WireError::BadChecksum { .. })
        ));
    }

    #[test]
    fn zero_checksum_means_unverified() {
        let d = UdpDatagram::new(7, 8, vec![1, 2]);
        let mut bytes = d.encode(SRC, DST).unwrap();
        bytes[6] = 0;
        bytes[7] = 0;
        // Checksum disabled: accepted as-is.
        let back = UdpDatagram::decode(&bytes, SRC, DST).unwrap();
        assert_eq!(back.payload, vec![1, 2]);
    }

    #[test]
    fn truncation_rejected() {
        let d = UdpDatagram::new(1, 2, vec![1, 2, 3, 4]);
        let bytes = d.encode(SRC, DST).unwrap();
        for cut in 0..bytes.len() {
            assert!(UdpDatagram::decode(&bytes[..cut], SRC, DST).is_err());
        }
    }

    #[test]
    fn ipv4_wrapping_round_trip() {
        let d = UdpDatagram::new(5_353, DNS_PORT, b"dns-bytes".to_vec());
        let pkt = d.clone().into_ipv4(SRC, DST).unwrap();
        let wire = pkt.encode().unwrap();
        let back_pkt = Ipv4Packet::decode(&wire).unwrap();
        let back = UdpDatagram::from_ipv4(&back_pkt).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn from_ipv4_rejects_wrong_protocol() {
        let pkt = Ipv4Packet::new(protocol::ICMP, SRC, DST, vec![0; 8]);
        assert!(matches!(
            UdpDatagram::from_ipv4(&pkt),
            Err(WireError::UnknownValue { .. })
        ));
    }

    #[test]
    fn header_writes_inside_an_ipv4_packet_in_one_buffer() {
        let d = UdpDatagram::new(5_353, DNS_PORT, b"dns-bytes".to_vec());
        let mut buf = Vec::new();
        Ipv4Header::new(protocol::UDP, SRC, DST)
            .write(&mut buf, |out| {
                d.header().write(out, SRC, DST, |out| {
                    out.extend_from_slice(&d.payload);
                    Ok(())
                })
            })
            .unwrap();
        let owned = d.clone().into_ipv4(SRC, DST).unwrap().encode().unwrap();
        assert_eq!(buf, owned);
        let (ip, inner) = Ipv4Header::parse(&buf).unwrap();
        let (h, payload) = UdpHeader::parse_in(&ip, inner).unwrap();
        assert_eq!((h, payload), (d.header(), &b"dns-bytes"[..]));
    }

    #[test]
    fn bad_checksum_reports_the_sum_without_its_field() {
        let d = UdpDatagram::new(1, 2, vec![0xAB; 9]);
        let mut bytes = d.encode(SRC, DST).unwrap();
        let good = u16::from_be_bytes([bytes[6], bytes[7]]);
        bytes[7] ^= 0x01;
        assert_eq!(
            UdpDatagram::decode(&bytes, SRC, DST),
            Err(WireError::BadChecksum {
                found: good ^ 0x0001,
                computed: good,
            })
        );
    }

    #[test]
    fn oversize_payload_rejected() {
        let d = UdpDatagram::new(1, 2, vec![0; 70_000]);
        assert!(d.encode(SRC, DST).is_err());
    }
}
