//! The exact bytes each measurement puts on the wire, pinned as hex.
//!
//! Fault injection flips bits and truncates at offsets drawn against
//! these bytes, so a codec change that moves one byte or one length
//! changes which probes survive corruption. Each packet is built the way
//! its campaign builds it, through the owned packet types.

use fenrir::netsim::prefix::BlockId;
use fenrir::wire::dns::{ClientSubnet, Message, QClass, QType, Rcode, Record};
use fenrir::wire::icmp::IcmpPacket;
use fenrir::wire::ipv4::{protocol, Ipv4Packet};
use fenrir::wire::udp::{UdpDatagram, DNS_PORT};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// A Verfploeter echo reply: the probed block's id split over ident and
/// seq, the campaign's payload mirrored.
#[test]
fn verfploeter_echo_reply_bytes_are_pinned() {
    let block = BlockId(0x0A_0B0C);
    let probe = IcmpPacket::echo_request(
        (block.0 >> 16) as u16,
        block.0 as u16,
        b"fenrir-vp".to_vec(),
    );
    let reply = IcmpPacket::echo_reply_to(&probe).encode();
    assert_eq!(hex(&reply), "00001929000a0b0c66656e7269722d7670");
}

/// An Atlas `hostname.bind TXT CH` query from VP 7 inside UDP/IPv4, and
/// the site's TXT answer carrying its identifier.
#[test]
fn atlas_query_and_response_bytes_are_pinned() {
    let n = 7u16;
    let vp_addr = [100, 64, 0, 7];
    let service_addr = [192, 0, 2, 1];
    let query = Message::chaos_hostname_bind(n);
    let on_wire = UdpDatagram::new(33_000 + n, DNS_PORT, query.encode().unwrap())
        .into_ipv4(vp_addr, service_addr)
        .unwrap()
        .encode()
        .unwrap();
    assert_eq!(hex(&on_wire), "4500003b000040004011146a64400007c000020180ef00350027c0a100070100000100000000000008686f73746e616d650462696e640000100003");

    let ip = Ipv4Packet::decode(&on_wire).unwrap();
    let udp = UdpDatagram::from_ipv4(&ip).unwrap();
    let at_server = Message::decode(&udp.payload).unwrap();
    let mut resp = at_server.response_to(Rcode::NoError);
    resp.answers.push(Record::txt(
        at_server.questions[0].name.clone(),
        QClass::Chaos,
        0,
        b"b4-lax",
    ));
    let back = UdpDatagram::new(DNS_PORT, udp.src_port, resp.encode().unwrap())
        .into_ipv4(service_addr, vp_addr)
        .unwrap()
        .encode()
        .unwrap();
    assert_eq!(hex(&back), "4500004e0000400040111457c000020164400007003580ef003a241b00078580000100010000000008686f73746e616d650462696e640000100003c00c001000030000000000070662342d6c6178");
}

/// A traceroute hop's time-exceeded: the TTL-2 echo dies at hop 2 and
/// the router quotes its first 28 octets.
#[test]
fn traceroute_time_exceeded_bytes_are_pinned() {
    let (n, k) = (3u16, 2u8);
    let block = BlockId(0x0A_0B0C);
    let echo = IcmpPacket::echo_request(n, u16::from(k), vec![0u8; 32]);
    let mut pkt =
        Ipv4Packet::new(protocol::ICMP, [10, 0, 0, 1], block.addr(1), echo.encode()).with_ttl(k);
    assert!(pkt.forward());
    assert!(!pkt.forward());
    let te = IcmpPacket::time_exceeded(&pkt.encode().unwrap()).encode();
    assert_eq!(
        hex(&te),
        "0b00f4ff000000004500003c0000400000015ab50a0000010a0b0c010800f7fa00030002"
    );
}

/// An EDNS Client-Subnet A query for a /24 inside UDP/IPv4.
#[test]
fn ednscs_query_bytes_are_pinned() {
    let qid = 0x0123u16;
    let block = BlockId(0x0A_0B0C);
    let mut q = Message::query(qid, "www.example.org", QType::A, QClass::In);
    q.set_client_subnet(ClientSubnet::ipv4(block.addr(0), 24));
    let out = UdpDatagram::new(40_000 ^ qid, DNS_PORT, q.encode().unwrap())
        .into_ipv4([198, 51, 100, 7], [192, 0, 2, 33])
        .unwrap()
        .encode()
        .unwrap();
    assert_eq!(hex(&out), "450000530000400040114e3ec6336407c00002219d630035003fe8a501230100000100000000000103777777076578616d706c65036f72670000010001000029100000000000000b00080007000118000a0b0c");
}
