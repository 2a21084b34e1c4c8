//! EDNS0 options (RFC 6891) and the Client Subnet option (RFC 7871).
//!
//! Client Subnet is the workhorse of the paper's website measurements: by
//! attaching a client prefix to a query sent from a single vantage point,
//! Fenrir learns which front-end a DNS-based load balancer would hand to
//! *that* network — mapping global catchments without global observers.
//!
//! [`ClientSubnet::write_ipv4`] appends an option to an OPT record's
//! RDATA; the message reader frames every option in place
//! ([`EdnsOptions`]) and checks each Client Subnet option, which
//! [`ClientSubnet::parse`] then reads borrowing its address.

use crate::error::{Result, WireError};

/// EDNS option code for Client Subnet (RFC 7871).
pub const OPT_CLIENT_SUBNET: u16 = 8;

/// Address family codes from the IANA Address Family Numbers registry.
pub const AF_INET: u16 = 1;
/// IPv6 address family number.
pub const AF_INET6: u16 = 2;

/// An EDNS Client Subnet option (RFC 7871 §6), read in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientSubnet<'a> {
    /// Address family (`AF_INET` or `AF_INET6`).
    pub family: u16,
    /// Leftmost bits of the address the client discloses.
    pub source_prefix_len: u8,
    /// In responses: how many bits the answer actually depends on
    /// (0 in queries).
    pub scope_prefix_len: u8,
    /// Address bytes, `ceil(source_prefix_len / 8)` of them.
    pub address: &'a [u8],
}

impl<'a> ClientSubnet<'a> {
    /// Append an IPv4 Client Subnet option for `addr`/`prefix_len` (code,
    /// length and payload) to `out`, zeroing host bits and truncating
    /// the address to the minimal byte count as the RFC requires.
    pub fn write_ipv4(out: &mut Vec<u8>, addr: [u8; 4], prefix_len: u8) {
        let prefix_len = prefix_len.min(32);
        let nbytes = prefix_len.div_ceil(8);
        out.extend_from_slice(&OPT_CLIENT_SUBNET.to_be_bytes());
        out.extend_from_slice(&u16::from(4 + nbytes).to_be_bytes());
        out.extend_from_slice(&AF_INET.to_be_bytes());
        out.extend_from_slice(&[prefix_len, 0]);
        out.extend_from_slice(&addr[..usize::from(nbytes)]);
        let partial = prefix_len % 8;
        if partial != 0 {
            *out.last_mut().expect("a partial byte was written") &= 0xFFu8 << (8 - partial);
        }
    }

    /// Read an option payload in place, checking the family, the source
    /// prefix length against it, and the address length against that.
    pub fn parse(buf: &'a [u8]) -> Result<Self> {
        if buf.len() < 4 {
            return Err(WireError::Truncated {
                what: "client subnet option",
                needed: 4 - buf.len(),
            });
        }
        let family = u16::from_be_bytes([buf[0], buf[1]]);
        let source_prefix_len = buf[2];
        let address = &buf[4..];
        let max_bits: usize = match family {
            AF_INET => 32,
            AF_INET6 => 128,
            other => {
                return Err(WireError::UnknownValue {
                    what: "client subnet family",
                    value: u32::from(other),
                })
            }
        };
        if usize::from(source_prefix_len) > max_bits {
            return Err(WireError::FieldOverflow {
                what: "source prefix length",
                value: usize::from(source_prefix_len),
                max: max_bits,
            });
        }
        let expected = usize::from(source_prefix_len.div_ceil(8));
        if address.len() != expected {
            return Err(WireError::FieldOverflow {
                what: "client subnet address length",
                value: address.len(),
                max: expected,
            });
        }
        Ok(ClientSubnet {
            family,
            source_prefix_len,
            scope_prefix_len: buf[3],
            address,
        })
    }

    /// The /24 block id (first three octets as a u32) for an IPv4 option
    /// with at least 24 disclosed bits; `None` otherwise. Fenrir's website
    /// catchments key on /24 blocks.
    pub fn slash24(&self) -> Option<u32> {
        match *self.address {
            [a, b, c, ..] if self.family == AF_INET && self.source_prefix_len >= 24 => {
                Some((u32::from(a) << 16) | (u32::from(b) << 8) | u32::from(c))
            }
            _ => None,
        }
    }
}

/// The options of an OPT record, read in place as `(code, payload)`;
/// the message reader frames them first.
#[derive(Debug, Clone)]
pub struct EdnsOptions<'a>(&'a [u8]);

impl<'a> EdnsOptions<'a> {
    /// Check every option's framing, and every Client Subnet option's
    /// payload, in an OPT record's RDATA.
    pub(crate) fn check(rdata: &'a [u8]) -> Result<Self> {
        let mut buf = rdata;
        while !buf.is_empty() {
            if buf.len() < 4 {
                return Err(WireError::Truncated {
                    what: "edns option header",
                    needed: 4 - buf.len(),
                });
            }
            let code = u16::from_be_bytes([buf[0], buf[1]]);
            let len = usize::from(u16::from_be_bytes([buf[2], buf[3]]));
            if buf.len() < 4 + len {
                return Err(WireError::Truncated {
                    what: "edns option payload",
                    needed: 4 + len - buf.len(),
                });
            }
            if code == OPT_CLIENT_SUBNET {
                ClientSubnet::parse(&buf[4..4 + len])?;
            }
            buf = &buf[4 + len..];
        }
        Ok(EdnsOptions(rdata))
    }
}

impl<'a> Iterator for EdnsOptions<'a> {
    type Item = (u16, &'a [u8]);

    fn next(&mut self) -> Option<(u16, &'a [u8])> {
        // Framed by `check`: every length fits the RDATA.
        let (head, rest) = self.0.split_first_chunk::<4>()?;
        let len = usize::from(u16::from_be_bytes([head[2], head[3]]));
        let (payload, rest) = rest.split_at(len);
        self.0 = rest;
        Some((u16::from_be_bytes([head[0], head[1]]), payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The option `write_ipv4` appends to an empty RDATA.
    fn written(addr: [u8; 4], prefix_len: u8) -> Vec<u8> {
        let mut out = Vec::new();
        ClientSubnet::write_ipv4(&mut out, addr, prefix_len);
        out
    }

    /// The first Client Subnet option of an OPT RDATA, read in place.
    fn read(rdata: &[u8]) -> ClientSubnet<'_> {
        let mut options = EdnsOptions::check(rdata).unwrap();
        let (_, payload) = options
            .find(|&(code, _)| code == OPT_CLIENT_SUBNET)
            .unwrap();
        ClientSubnet::parse(payload).unwrap()
    }

    #[test]
    fn ipv4_truncates_and_masks() {
        let bytes = written([192, 0, 2, 77], 24);
        assert_eq!(bytes, [0, 8, 0, 7, 0, 1, 24, 0, 192, 0, 2]);
        let cs = read(&bytes);
        assert_eq!(cs.address, [192, 0, 2]);
        assert_eq!(cs.source_prefix_len, 24);
        assert_eq!(cs.scope_prefix_len, 0);
        // 20 bits = 3 bytes with the low 4 bits of the third masked.
        assert_eq!(
            read(&written([10, 20, 0xFF, 1], 20)).address,
            [10, 20, 0xF0]
        );
        assert!(read(&written([1, 2, 3, 4], 0)).address.is_empty());
    }

    #[test]
    fn ipv4_clamps_prefix() {
        let bytes = written([1, 2, 3, 4], 40);
        let cs = read(&bytes);
        assert_eq!(cs.source_prefix_len, 32);
        assert_eq!(cs.address, [1, 2, 3, 4]);
    }

    #[test]
    fn slash24_extraction() {
        assert_eq!(
            read(&written([192, 0, 2, 0], 24)).slash24(),
            Some((192 << 16) | 2)
        );
        assert_eq!(read(&written([1, 2, 3, 0], 16)).slash24(), None);
        let v6 = [0x00, 0x02, 24, 0, 0x20, 0x01, 0x0d];
        assert_eq!(ClientSubnet::parse(&v6).unwrap().slash24(), None);
    }

    #[test]
    fn parse_rejects_bad_family() {
        let buf = [0x00, 0x07, 24, 0, 1, 2, 3];
        assert_eq!(
            ClientSubnet::parse(&buf),
            Err(WireError::UnknownValue {
                what: "client subnet family",
                value: 7,
            })
        );
    }

    #[test]
    fn parse_rejects_bad_prefix_len() {
        let buf = [0x00, 0x01, 40, 0, 1, 2, 3, 4, 5];
        assert!(matches!(
            ClientSubnet::parse(&buf),
            Err(WireError::FieldOverflow { max: 32, .. })
        ));
    }

    #[test]
    fn parse_rejects_wrong_address_len() {
        // /24 claims 3 bytes but carries 4.
        let buf = [0x00, 0x01, 24, 0, 1, 2, 3, 4];
        assert!(ClientSubnet::parse(&buf).is_err());
        // And too few.
        let buf2 = [0x00, 0x01, 24, 0, 1, 2];
        assert!(ClientSubnet::parse(&buf2).is_err());
    }

    #[test]
    fn parse_rejects_truncated_header() {
        assert!(ClientSubnet::parse(&[0x00]).is_err());
    }

    #[test]
    fn options_are_framed_in_place() {
        // An NSID option, a Client Subnet option, and an unknown one.
        let mut buf = vec![0, 3, 0, 6];
        buf.extend_from_slice(b"b4-lax");
        ClientSubnet::write_ipv4(&mut buf, [203, 0, 113, 0], 24);
        buf.extend_from_slice(&[0, 42, 0, 3, 1, 2, 3]);
        let got: Vec<(u16, &[u8])> = EdnsOptions::check(&buf).unwrap().collect();
        assert_eq!(got[0], (3, &b"b4-lax"[..]));
        assert_eq!(got[1], (8, &[0u8, 1, 24, 0, 203, 0, 113][..]));
        assert_eq!(got[2], (42, &[1u8, 2, 3][..]));
        assert_eq!(got.len(), 3);
        assert_eq!(read(&buf).address, [203, 0, 113]);
    }

    #[test]
    fn check_rejects_truncation_and_bad_client_subnets() {
        let mut buf = vec![0, 3, 0, 3];
        buf.extend_from_slice(b"abc");
        assert!(EdnsOptions::check(&buf[..buf.len() - 1]).is_err());
        assert!(EdnsOptions::check(&buf[..3]).is_err());
        assert_eq!(EdnsOptions::check(&[]).unwrap().count(), 0);
        let bad_family = [0, 8, 0, 4, 0, 7, 0, 0];
        assert!(matches!(
            EdnsOptions::check(&bad_family),
            Err(WireError::UnknownValue { .. })
        ));
    }
}
