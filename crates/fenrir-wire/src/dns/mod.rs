//! DNS message wire format (RFC 1035) with the extensions Fenrir's
//! measurements rely on:
//!
//! * `CHAOS`-class TXT queries (`hostname.bind`) — how RIPE Atlas
//!   identifies which anycast site answered (§2.3.1 of the paper),
//! * EDNS0 (RFC 6891): the reader frames every option of an OPT record
//!   in place,
//! * EDNS0 **Client Subnet** (RFC 7871) — how the paper maps Google and
//!   Wikipedia front-end catchments from a single vantage point (§2.3.3).

mod edns;
mod message;
mod name;

pub use edns::{ClientSubnet, EdnsOptions, AF_INET, AF_INET6, OPT_CLIENT_SUBNET};
pub use message::{
    Header, MessageReader, MessageWriter, Opcode, QuestionRef, RDataRef, Rcode, RecordRef,
    TxtStrings,
};
pub use name::{Labels, Name, WireName};

/// Query/record type. Only the types Fenrir's measurements use get named
/// variants; everything else round-trips through `Unknown`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QType {
    /// IPv4 address record.
    A,
    /// Authoritative name server.
    Ns,
    /// Canonical name (alias).
    Cname,
    /// Pointer (reverse lookup).
    Ptr,
    /// Text record — carries CHAOS server identifiers.
    Txt,
    /// IPv6 address record.
    Aaaa,
    /// EDNS0 pseudo-record (RFC 6891).
    Opt,
    /// Any other type, by code.
    Unknown(u16),
}

impl QType {
    /// Wire code.
    pub fn code(self) -> u16 {
        match self {
            QType::A => 1,
            QType::Ns => 2,
            QType::Cname => 5,
            QType::Ptr => 12,
            QType::Txt => 16,
            QType::Aaaa => 28,
            QType::Opt => 41,
            QType::Unknown(c) => c,
        }
    }

    /// Decode from a wire code (total: unknown codes are preserved).
    pub fn from_code(c: u16) -> Self {
        match c {
            1 => QType::A,
            2 => QType::Ns,
            5 => QType::Cname,
            12 => QType::Ptr,
            16 => QType::Txt,
            28 => QType::Aaaa,
            41 => QType::Opt,
            other => QType::Unknown(other),
        }
    }
}

/// Query/record class. `CHAOS` matters to Fenrir: `hostname.bind TXT CH`
/// identifies the answering anycast instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QClass {
    /// The Internet.
    In,
    /// CHAOSnet — repurposed for server identification.
    Chaos,
    /// Any class (queries only).
    Any,
    /// Any other class, by code.
    Unknown(u16),
}

impl QClass {
    /// Wire code.
    pub fn code(self) -> u16 {
        match self {
            QClass::In => 1,
            QClass::Chaos => 3,
            QClass::Any => 255,
            QClass::Unknown(c) => c,
        }
    }

    /// Decode from a wire code (total).
    pub fn from_code(c: u16) -> Self {
        match c {
            1 => QClass::In,
            3 => QClass::Chaos,
            255 => QClass::Any,
            other => QClass::Unknown(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qtype_codes_round_trip() {
        for t in [
            QType::A,
            QType::Ns,
            QType::Cname,
            QType::Ptr,
            QType::Txt,
            QType::Aaaa,
            QType::Opt,
            QType::Unknown(999),
        ] {
            assert_eq!(QType::from_code(t.code()), t);
        }
    }

    #[test]
    fn qclass_codes_round_trip() {
        for c in [QClass::In, QClass::Chaos, QClass::Any, QClass::Unknown(7)] {
            assert_eq!(QClass::from_code(c.code()), c);
        }
    }

    #[test]
    fn chaos_is_class_3() {
        assert_eq!(QClass::Chaos.code(), 3);
    }
}
