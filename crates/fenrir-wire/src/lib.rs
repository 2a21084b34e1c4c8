//! # fenrir-wire
//!
//! Wire formats for the active measurements Fenrir ingests:
//!
//! * **DNS** ([`dns`]) — message encoding/decoding with name compression,
//!   the `CHAOS`-class `hostname.bind` / `id.server` queries RIPE Atlas uses
//!   to identify anycast sites, the EDNS0 **NSID** option (RFC 5001), and
//!   the EDNS0 **Client Subnet** option (RFC 7871) behind the paper's
//!   Google/Wikipedia front-end mapping.
//! * **ICMPv4** ([`icmp`]) — echo request/reply for Verfploeter-style
//!   catchment sweeps and Trinocular-style latency probing, plus
//!   time-exceeded and destination-unreachable for traceroute.
//! * **IPv4** ([`ipv4`]) and **UDP** ([`udp`]) — the framing under both:
//!   options-free IPv4 headers with checksums and TTL forwarding, UDP with
//!   the pseudo-header checksum, so DNS probes travel as real datagrams.
//!
//! The crate is deliberately self-contained (no resolver, no sockets): the
//! measurement simulators in `fenrir-measure` encode real packets, shuttle
//! the bytes through the simulated network, and decode them on the other
//! side — exercising the same parsing paths a live deployment would.
//!
//! ## One writer and one reader per layer
//!
//! Each layer has one writer that appends to a caller's `Vec<u8>` and one
//! reader that borrows its input and verifies checksums where the bytes
//! lie: [`icmp::IcmpView`], [`ipv4::Ipv4Header`], [`udp::UdpHeader`] and
//! [`dns::MessageWriter`] / [`dns::MessageReader`]. The IPv4 and UDP
//! writers take the payload as a closure that appends it, so a whole
//! IPv4 + UDP + DNS datagram is written into one buffer with no copy; a
//! [`dns::MessageWriter`] keeps its name-compression table across
//! messages. A probe loop that reuses its buffers therefore does not
//! allocate. The owned types ([`icmp::IcmpPacket`], [`ipv4::Ipv4Packet`],
//! [`udp::UdpDatagram`], [`dns::Message`]) encode and decode through the
//! same writers and readers, so the bytes are the same either way.
//!
//! ## Example: an EDNS Client-Subnet query
//!
//! ```
//! use fenrir_wire::dns::{ClientSubnet, Message, QClass, QType};
//!
//! let mut q = Message::query(0x1234, "www.google.com", QType::A, QClass::In);
//! q.set_client_subnet(ClientSubnet::ipv4([192, 0, 2, 0], 24));
//! let bytes = q.encode().unwrap();
//! let parsed = Message::decode(&bytes).unwrap();
//! let ecs = parsed.client_subnet().unwrap();
//! assert_eq!(ecs.source_prefix_len, 24);
//! ```

pub mod checksum;
pub mod dns;
pub mod error;
pub mod icmp;
pub mod ipv4;
pub mod udp;

pub use error::{Result, WireError};
