//! EDNS0 options (RFC 6891): NSID (RFC 5001) and Client Subnet (RFC 7871).
//!
//! Client Subnet is the workhorse of the paper's website measurements: by
//! attaching a client prefix to a query sent from a single vantage point,
//! Fenrir learns which front-end a DNS-based load balancer would hand to
//! *that* network — mapping global catchments without global observers.

use crate::error::{Result, WireError};

/// EDNS option code for NSID (RFC 5001).
pub const OPT_NSID: u16 = 3;
/// EDNS option code for Client Subnet (RFC 7871).
pub const OPT_CLIENT_SUBNET: u16 = 8;

/// Address family codes from the IANA Address Family Numbers registry.
pub const AF_INET: u16 = 1;
/// IPv6 address family number.
pub const AF_INET6: u16 = 2;

/// An EDNS Client Subnet option (RFC 7871 §6).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ClientSubnet {
    /// Address family (`AF_INET` or `AF_INET6`).
    pub family: u16,
    /// Leftmost bits of the address the client discloses.
    pub source_prefix_len: u8,
    /// In responses: how many bits the answer actually depends on
    /// (0 in queries).
    pub scope_prefix_len: u8,
    /// Address bytes, truncated to `ceil(source_prefix_len / 8)` with
    /// unused trailing bits zero (RFC 7871 requires this).
    pub address: Vec<u8>,
}

impl ClientSubnet {
    /// Build an IPv4 client-subnet option for `addr`/`prefix_len`, zeroing
    /// host bits and truncating to the minimal byte count as the RFC
    /// requires.
    pub fn ipv4(addr: [u8; 4], prefix_len: u8) -> Self {
        let prefix_len = prefix_len.min(32);
        let nbytes = usize::from(prefix_len.div_ceil(8));
        let mut address = addr[..nbytes].to_vec();
        let partial = prefix_len % 8;
        if partial != 0 {
            if let Some(last) = address.last_mut() {
                *last &= 0xFFu8 << (8 - partial);
            }
        }
        ClientSubnet {
            family: AF_INET,
            source_prefix_len: prefix_len,
            scope_prefix_len: 0,
            address,
        }
    }

    /// The /24 block id (first three octets as a u32) for an IPv4 option
    /// with at least 24 disclosed bits; `None` otherwise. Fenrir's website
    /// catchments key on /24 blocks.
    pub fn slash24(&self) -> Option<u32> {
        if self.family != AF_INET || self.source_prefix_len < 24 || self.address.len() < 3 {
            return None;
        }
        Some(
            (u32::from(self.address[0]) << 16)
                | (u32::from(self.address[1]) << 8)
                | u32::from(self.address[2]),
        )
    }

    /// Encode the option *payload* (without the option code/length header).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.address.len());
        out.extend_from_slice(&self.family.to_be_bytes());
        out.push(self.source_prefix_len);
        out.push(self.scope_prefix_len);
        out.extend_from_slice(&self.address);
        out
    }

    /// Decode the option payload.
    pub fn decode_payload(buf: &[u8]) -> Result<Self> {
        let (family, source_prefix_len, scope_prefix_len, address) = Self::read_payload(buf)?;
        Ok(ClientSubnet {
            family,
            source_prefix_len,
            scope_prefix_len,
            address: address.to_vec(),
        })
    }

    /// Check the option payload in place: family, both prefix lengths,
    /// and the address bytes it borrows.
    fn read_payload(buf: &[u8]) -> Result<(u16, u8, u8, &[u8])> {
        if buf.len() < 4 {
            return Err(WireError::Truncated {
                what: "client subnet option",
                needed: 4 - buf.len(),
            });
        }
        let family = u16::from_be_bytes([buf[0], buf[1]]);
        let source_prefix_len = buf[2];
        let scope_prefix_len = buf[3];
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
        Ok((family, source_prefix_len, scope_prefix_len, address))
    }
}

/// A decoded EDNS option.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum EdnsOption {
    /// NSID: empty in queries (a request), the server identifier in
    /// responses.
    Nsid(Vec<u8>),
    /// Client Subnet.
    ClientSubnet(ClientSubnet),
    /// Any other option, preserved verbatim.
    Unknown {
        /// Option code.
        code: u16,
        /// Raw option payload.
        data: Vec<u8>,
    },
}

impl EdnsOption {
    /// The option's wire code.
    pub fn code(&self) -> u16 {
        match self {
            EdnsOption::Nsid(_) => OPT_NSID,
            EdnsOption::ClientSubnet(_) => OPT_CLIENT_SUBNET,
            EdnsOption::Unknown { code, .. } => *code,
        }
    }

    /// Append `code | length | payload` to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let payload = match self {
            EdnsOption::Nsid(d) => d.clone(),
            EdnsOption::ClientSubnet(cs) => cs.encode_payload(),
            EdnsOption::Unknown { data, .. } => data.clone(),
        };
        out.extend_from_slice(&self.code().to_be_bytes());
        out.extend_from_slice(&(payload.len() as u16).to_be_bytes());
        out.extend_from_slice(&payload);
    }

    /// Decode a sequence of options from an OPT RDATA buffer.
    pub fn decode_all(buf: &[u8]) -> Result<Vec<EdnsOption>> {
        let mut out = Vec::new();
        for_each_option(buf, |code, payload| {
            out.push(match code {
                OPT_NSID => EdnsOption::Nsid(payload.to_vec()),
                OPT_CLIENT_SUBNET => {
                    EdnsOption::ClientSubnet(ClientSubnet::decode_payload(payload)?)
                }
                other => EdnsOption::Unknown {
                    code: other,
                    data: payload.to_vec(),
                },
            });
            Ok(())
        })?;
        Ok(out)
    }

    /// Check a sequence of options in place, failing exactly where
    /// [`EdnsOption::decode_all`] fails, without building them.
    pub(crate) fn check_all(buf: &[u8]) -> Result<()> {
        for_each_option(buf, |code, payload| {
            if code == OPT_CLIENT_SUBNET {
                ClientSubnet::read_payload(payload)?;
            }
            Ok(())
        })
    }
}

/// Walk `code | length | payload` options in place, handing each to `f`.
fn for_each_option(mut buf: &[u8], mut f: impl FnMut(u16, &[u8]) -> Result<()>) -> Result<()> {
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
        f(code, &buf[4..4 + len])?;
        buf = &buf[4 + len..];
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipv4_truncates_and_masks() {
        let cs = ClientSubnet::ipv4([192, 0, 2, 77], 24);
        assert_eq!(cs.address, vec![192, 0, 2]);
        assert_eq!(cs.source_prefix_len, 24);
        let cs20 = ClientSubnet::ipv4([10, 20, 0xFF, 1], 20);
        // 20 bits = 3 bytes with low 4 bits of third byte masked.
        assert_eq!(cs20.address, vec![10, 20, 0xF0]);
        let cs0 = ClientSubnet::ipv4([1, 2, 3, 4], 0);
        assert!(cs0.address.is_empty());
    }

    #[test]
    fn ipv4_clamps_prefix() {
        let cs = ClientSubnet::ipv4([1, 2, 3, 4], 40);
        assert_eq!(cs.source_prefix_len, 32);
        assert_eq!(cs.address, vec![1, 2, 3, 4]);
    }

    #[test]
    fn slash24_extraction() {
        let cs = ClientSubnet::ipv4([192, 0, 2, 0], 24);
        assert_eq!(cs.slash24(), Some((192 << 16) | 2));
        assert_eq!(ClientSubnet::ipv4([1, 2, 3, 0], 16).slash24(), None);
    }

    #[test]
    fn payload_round_trip() {
        let cs = ClientSubnet::ipv4([198, 51, 100, 0], 24);
        let enc = cs.encode_payload();
        assert_eq!(enc.len(), 4 + 3);
        let back = ClientSubnet::decode_payload(&enc).unwrap();
        assert_eq!(back, cs);
    }

    #[test]
    fn decode_rejects_bad_family() {
        let buf = [0x00, 0x07, 24, 0, 1, 2, 3];
        assert!(matches!(
            ClientSubnet::decode_payload(&buf),
            Err(WireError::UnknownValue { .. })
        ));
    }

    #[test]
    fn decode_rejects_bad_prefix_len() {
        let buf = [0x00, 0x01, 40, 0, 1, 2, 3, 4, 5];
        assert!(ClientSubnet::decode_payload(&buf).is_err());
    }

    #[test]
    fn decode_rejects_wrong_address_len() {
        // /24 claims 3 bytes but carries 4.
        let buf = [0x00, 0x01, 24, 0, 1, 2, 3, 4];
        assert!(ClientSubnet::decode_payload(&buf).is_err());
        // And too few.
        let buf2 = [0x00, 0x01, 24, 0, 1, 2];
        assert!(ClientSubnet::decode_payload(&buf2).is_err());
    }

    #[test]
    fn decode_rejects_truncated_header() {
        assert!(ClientSubnet::decode_payload(&[0x00]).is_err());
    }

    #[test]
    fn options_encode_decode_round_trip() {
        let opts = vec![
            EdnsOption::Nsid(b"b4-lax".to_vec()),
            EdnsOption::ClientSubnet(ClientSubnet::ipv4([203, 0, 113, 0], 24)),
            EdnsOption::Unknown {
                code: 42,
                data: vec![1, 2, 3],
            },
        ];
        let mut buf = Vec::new();
        for o in &opts {
            o.encode(&mut buf);
        }
        let back = EdnsOption::decode_all(&buf).unwrap();
        assert_eq!(back, opts);
    }

    #[test]
    fn decode_all_rejects_truncation() {
        let mut buf = Vec::new();
        EdnsOption::Nsid(b"abc".to_vec()).encode(&mut buf);
        assert!(EdnsOption::decode_all(&buf[..buf.len() - 1]).is_err());
        assert!(EdnsOption::decode_all(&buf[..3]).is_err());
        assert!(EdnsOption::decode_all(&[]).unwrap().is_empty());
    }

    #[test]
    fn option_codes() {
        assert_eq!(EdnsOption::Nsid(vec![]).code(), 3);
        assert_eq!(
            EdnsOption::ClientSubnet(ClientSubnet::ipv4([0, 0, 0, 0], 0)).code(),
            8
        );
        assert_eq!(
            EdnsOption::Unknown {
                code: 99,
                data: vec![]
            }
            .code(),
            99
        );
    }
}
