//! # fenrir-wire
//!
//! Wire formats for the active measurements Fenrir ingests:
//!
//! * **DNS** ([`dns`]) — message writing and reading with name
//!   compression, the `CHAOS`-class `hostname.bind` TXT queries RIPE
//!   Atlas uses to identify anycast sites, EDNS0 options framed in place,
//!   and the EDNS0 **Client Subnet** option (RFC 7871) behind the paper's
//!   Google/Wikipedia front-end mapping.
//! * **ICMPv4** ([`icmp`]) — echo request/reply for Verfploeter-style
//!   catchment sweeps and Trinocular-style latency probing, plus
//!   time-exceeded and destination-unreachable for traceroute.
//! * **IPv4** ([`ipv4`]) and **UDP** ([`udp`]) — the framing under both:
//!   options-free IPv4 headers with checksums, UDP with the pseudo-header
//!   checksum, so DNS probes travel as real datagrams.
//!
//! The crate is deliberately self-contained (no resolver, no sockets): the
//! measurement simulators in `fenrir-measure` write real packets, shuttle
//! the bytes through the simulated network, and read them on the other
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
//! allocate.
//!
//! ## Example: an EDNS Client-Subnet query
//!
//! ```
//! use fenrir_wire::dns::{
//!     ClientSubnet, Header, MessageReader, MessageWriter, Name, QClass, QType,
//! };
//!
//! let name = Name::parse("www.google.com").unwrap();
//! let (mut writer, mut out) = (MessageWriter::default(), Vec::new());
//! let header = Header { id: 0x1234, rd: true, ..Header::default() };
//! writer.header(&mut out, header, [1, 0, 0, 1]);
//! writer.question(&mut out, name.labels(), QType::A, QClass::In);
//! writer
//!     .record(&mut out, std::iter::empty(), QType::Opt, 4096, 0, |_, out| {
//!         ClientSubnet::write_ipv4(out, [192, 0, 2, 0], 24);
//!         Ok(())
//!     })
//!     .unwrap();
//!
//! let query = MessageReader::new(&out).unwrap();
//! let ecs = query.client_subnet().unwrap();
//! assert_eq!(ecs.source_prefix_len, 24);
//! assert_eq!(ecs.slash24(), Some(0xC0_0002));
//! ```

pub mod checksum;
pub mod dns;
pub mod error;
pub mod icmp;
pub mod ipv4;
pub mod udp;

pub use error::{Result, WireError};
