//! The exact bytes each measurement puts on the wire, pinned as hex.
//!
//! Fault injection flips bits and truncates at offsets drawn against
//! these bytes, so a codec change that moves one byte or one length
//! changes which probes survive corruption. Each packet is written the
//! way its campaign writes it, through the layers' writers, and read
//! back the way the campaign reads it.

use fenrir::netsim::prefix::BlockId;
use fenrir::wire::dns::{
    ClientSubnet, Header, MessageReader, MessageWriter, Name, QClass, QType, RDataRef, Rcode,
};
use fenrir::wire::icmp::{IcmpKind, IcmpView};
use fenrir::wire::ipv4::{protocol, Ipv4Header};
use fenrir::wire::udp::{UdpHeader, DNS_PORT};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// A DNS message, which `dns` appends, inside UDP inside IPv4.
fn datagram(
    (src, src_port): ([u8; 4], u16),
    (dst, dst_port): ([u8; 4], u16),
    dns: impl FnOnce(&mut Vec<u8>) -> fenrir::wire::Result<()>,
) -> Vec<u8> {
    let mut out = Vec::new();
    Ipv4Header::new(protocol::UDP, src, dst)
        .write(&mut out, |out| {
            UdpHeader { src_port, dst_port }.write(out, src, dst, dns)
        })
        .unwrap();
    out
}

/// The UDP header and the DNS message of a datagram, read in place.
fn read_dns(packet: &[u8]) -> (UdpHeader, MessageReader<'_>) {
    let (ip, payload) = Ipv4Header::parse(packet).unwrap();
    let (udp, dns) = UdpHeader::parse_in(&ip, payload).unwrap();
    (udp, MessageReader::new(dns).unwrap())
}

/// A Verfploeter echo reply: the probed block's id split over ident and
/// seq, the campaign's payload mirrored.
#[test]
fn verfploeter_echo_reply_bytes_are_pinned() {
    let block = BlockId(0x0A_0B0C);
    let mut reply = Vec::new();
    IcmpView {
        kind: IcmpKind::EchoReply,
        ident: (block.0 >> 16) as u16,
        seq: block.0 as u16,
        payload: b"fenrir-vp",
    }
    .encode_into(&mut reply);
    assert_eq!(hex(&reply), "00001929000a0b0c66656e7269722d7670");
}

/// An Atlas `hostname.bind TXT CH` query from VP 7 inside UDP/IPv4, and
/// the site's TXT answer carrying its identifier.
#[test]
fn atlas_query_and_response_bytes_are_pinned() {
    let n = 7u16;
    let vp_addr = [100, 64, 0, 7];
    let service_addr = [192, 0, 2, 1];
    let mut dns = MessageWriter::default();
    let hostname_bind: [&[u8]; 2] = [b"hostname", b"bind"];
    let on_wire = datagram((vp_addr, 33_000 + n), (service_addr, DNS_PORT), |out| {
        let header = Header {
            id: n,
            rd: true,
            ..Header::default()
        };
        dns.header(out, header, [1, 0, 0, 0]);
        dns.question(out, hostname_bind.into_iter(), QType::Txt, QClass::Chaos);
        Ok(())
    });
    assert_eq!(hex(&on_wire), "4500003b000040004011146a64400007c000020180ef00350027c0a100070100000100000000000008686f73746e616d650462696e640000100003");

    let (udp, at_server) = read_dns(&on_wire);
    let asked = at_server.questions().next().unwrap();
    let back = datagram((service_addr, DNS_PORT), (vp_addr, udp.src_port), |out| {
        dns.response_to(out, &at_server, Rcode::NoError, 1);
        dns.txt(out, asked.name.labels(), QClass::Chaos, 0, [&b"b4-lax"[..]])
    });
    assert_eq!(hex(&back), "4500004e0000400040111457c000020164400007003580ef003a241b00078580000100010000000008686f73746e616d650462696e640000100003c00c001000030000000000070662342d6c6178");
    assert_eq!(read_dns(&back).1.first_txt(), Some(&b"b4-lax"[..]));
}

/// A traceroute hop's time-exceeded: the TTL-2 echo dies at hop 2 and
/// the router quotes its first 28 octets.
#[test]
fn traceroute_time_exceeded_bytes_are_pinned() {
    let (n, k) = (3u16, 2u16);
    let block = BlockId(0x0A_0B0C);
    let mut expired = Vec::new();
    Ipv4Header {
        ttl: 0,
        ..Ipv4Header::new(protocol::ICMP, [10, 0, 0, 1], block.addr(1))
    }
    .write(&mut expired, |out| {
        IcmpView {
            kind: IcmpKind::EchoRequest,
            ident: n,
            seq: k,
            payload: &[0u8; 32],
        }
        .encode_into(out);
        Ok(())
    })
    .unwrap();
    let mut te = Vec::new();
    IcmpView {
        kind: IcmpKind::TimeExceeded(0),
        ident: 0,
        seq: 0,
        payload: &expired[..28],
    }
    .encode_into(&mut te);
    assert_eq!(
        hex(&te),
        "0b00f4ff000000004500003c0000400000015ab50a0000010a0b0c010800f7fa00030002"
    );
    assert_eq!(
        IcmpView::parse(&te).unwrap().kind,
        IcmpKind::TimeExceeded(0)
    );
}

/// The EDNS Client-Subnet A query for a /24 inside UDP/IPv4, from the
/// vantage point to the authoritative server.
fn ednscs_query(dns: &mut MessageWriter, qid: u16, block: BlockId) -> Vec<u8> {
    let name = Name::parse("www.example.org").unwrap();
    datagram(
        ([198, 51, 100, 7], 40_000 ^ qid),
        ([192, 0, 2, 33], DNS_PORT),
        |out| {
            let header = Header {
                id: qid,
                rd: true,
                ..Header::default()
            };
            dns.header(out, header, [1, 0, 0, 1]);
            dns.question(out, name.labels(), QType::A, QClass::In);
            dns.record(out, std::iter::empty(), QType::Opt, 4096, 0, |_, out| {
                ClientSubnet::write_ipv4(out, block.addr(0), 24);
                Ok(())
            })
        },
    )
}

/// An EDNS Client-Subnet A query for a /24 inside UDP/IPv4.
#[test]
fn ednscs_query_bytes_are_pinned() {
    let out = ednscs_query(&mut MessageWriter::default(), 0x0123, BlockId(0x0A_0B0C));
    assert_eq!(hex(&out), "450000530000400040114e3ec6336407c00002219d630035003fe8a501230100000100000000000103777777076578616d706c65036f72670000010001000029100000000000000b00080007000118000a0b0c");
}

/// The authoritative server's answer to the pinned EDNS Client-Subnet
/// query: the query's header and question echoed, and one A record whose
/// address carries front-end 0x0102 and whose name points at the
/// question's.
#[test]
fn ednscs_answer_bytes_are_pinned() {
    let (qid, block) = (0x0123u16, BlockId(0x0A_0B0C));
    let mut dns = MessageWriter::default();
    let query = ednscs_query(&mut dns, qid, block);
    let (udp, at_server) = read_dns(&query);
    assert_eq!(at_server.client_subnet().unwrap().slash24(), Some(block.0));
    let asked = at_server.questions().next().unwrap();
    let back = datagram(
        ([192, 0, 2, 33], DNS_PORT),
        ([198, 51, 100, 7], udp.src_port),
        |out| {
            dns.response_to(out, &at_server, Rcode::NoError, 1);
            dns.record(
                out,
                asked.name.labels(),
                QType::A,
                QClass::In.code(),
                60,
                |_, out| {
                    out.extend_from_slice(&[198, 18, 0x01, 0x02]);
                    Ok(())
                },
            )
        },
    );
    assert_eq!(hex(&back), "4500004d0000400040114e44c0000221c633640700359d6300393ef901238580000100010000000003777777076578616d706c65036f72670000010001c00c000100010000003c0004c6120102");
    let (_, at_client) = read_dns(&back);
    let a = at_client.answers().next().unwrap();
    assert!(matches!(a.rdata, RDataRef::A([198, 18, 0x01, 0x02])));
}
