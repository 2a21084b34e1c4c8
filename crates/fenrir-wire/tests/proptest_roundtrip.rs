//! Property tests for the wire formats: what a writer writes, its reader
//! reads back, for arbitrary well-formed messages, and the readers never
//! panic on arbitrary bytes (they are fed simulated-network data, but
//! they must be robust enough for the real Internet).

use fenrir_netsim::rng::ChaCha8Rng;
use fenrir_wire::checksum::internet_checksum;
use fenrir_wire::dns::{
    ClientSubnet, Header, MessageReader, MessageWriter, Opcode, QClass, QType, RDataRef, Rcode,
    RecordRef, WireName, AF_INET, OPT_CLIENT_SUBNET,
};
use fenrir_wire::icmp::{IcmpKind, IcmpView};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Cases per property.
const CASES: u64 = 256;

/// Runs `property` on `CASES` generators, each seeded with its case
/// index. A failing input is not shrunk, so the failure names its seed.
fn for_each_case(property: impl Fn(&mut ChaCha8Rng)) {
    for seed in 0..CASES {
        let run = catch_unwind(AssertUnwindSafe(|| {
            property(&mut ChaCha8Rng::seed_from_u64(seed))
        }));
        assert!(run.is_ok(), "property failed for case seed {seed}");
    }
}

/// Arbitrary bytes, as many as a draw from `len`.
fn bytes(rng: &mut ChaCha8Rng, len: Range<usize>) -> Vec<u8> {
    (0..rng.gen_range(len))
        .map(|_| rng.next_u32() as u8)
        .collect()
}

/// A legal DNS label matching `[a-z0-9][a-z0-9-]{0,19}` (1..=20 chars to
/// keep names within limits).
fn label(rng: &mut ChaCha8Rng) -> String {
    const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-";
    let first = *rng.choose(&CHARS[..36]).expect("nonempty");
    let rest: Vec<u8> = (0..rng.gen_range(0..=19))
        .map(|_| *rng.choose(CHARS).expect("nonempty"))
        .collect();
    std::iter::once(first).chain(rest).map(char::from).collect()
}

/// A name as its labels.
type Labels = Vec<String>;

/// A legal domain name of 1..=4 labels.
fn name(rng: &mut ChaCha8Rng) -> Labels {
    (0..rng.gen_range(1..=4)).map(|_| label(rng)).collect()
}

/// A name that often shares a suffix with `base`, so that it compresses:
/// `base` itself, a new label in front of a suffix of it, or a new name.
fn related(rng: &mut ChaCha8Rng, base: &Labels) -> Labels {
    match rng.gen_range(0..3) {
        0 => base.clone(),
        1 => {
            let mut n = vec![label(rng)];
            n.extend_from_slice(&base[rng.gen_range(0..base.len())..]);
            n
        }
        _ => name(rng),
    }
}

fn wire(labels: &Labels) -> impl Iterator<Item = &[u8]> + Clone {
    labels.iter().map(String::as_bytes)
}

fn read_labels(n: WireName<'_>) -> Labels {
    n.labels()
        .map(|l| String::from_utf8(l.to_vec()).expect("ascii"))
        .collect()
}

/// What a record carries, as drawn.
#[derive(Debug, Clone, PartialEq)]
enum Data {
    A([u8; 4]),
    Aaaa([u8; 16]),
    Txt(Vec<Vec<u8>>),
    Ns(Labels),
    Cname(Labels),
    /// An unknown type's raw RDATA.
    Raw(u16, Vec<u8>),
    /// An OPT record's Client Subnet options: address and prefix length.
    Opt(Vec<([u8; 4], u8)>),
}

#[derive(Debug)]
struct Rec {
    owner: Labels,
    ttl: u32,
    data: Data,
}

/// A record whose data is consistent with its type, named after or near
/// `qname`.
fn record(rng: &mut ChaCha8Rng, qname: &Labels) -> Rec {
    let (owner, ttl) = (related(rng, qname), rng.gen_range(0..86_400));
    let data = match rng.gen_range(0..6) {
        0 => Data::A(rng.next_u32().to_le_bytes()),
        1 => {
            let (hi, lo) = (rng.next_u64(), rng.next_u64());
            Data::Aaaa((u128::from(hi) << 64 | u128::from(lo)).to_le_bytes())
        }
        2 => Data::Txt(
            (0..rng.gen_range(1..3))
                .map(|_| bytes(rng, 0..50))
                .collect(),
        ),
        3 => Data::Ns(related(rng, qname)),
        4 => Data::Cname(related(rng, qname)),
        _ => Data::Raw(rng.gen_range(256..9999), bytes(rng, 0..40)),
    };
    Rec { owner, ttl, data }
}

/// A random message: a header, one question, answers, authorities, and
/// sometimes an OPT record of Client Subnet options.
struct Msg {
    header: Header,
    qname: Labels,
    qtype: QType,
    sections: [Vec<Rec>; 3],
}

fn message(rng: &mut ChaCha8Rng) -> Msg {
    let qr = rng.gen_bool(0.5);
    let header = Header {
        id: rng.next_u32() as u16,
        qr,
        opcode: Opcode::Query,
        aa: qr,
        tc: false,
        rd: true,
        ra: qr,
        rcode: Rcode::NoError,
    };
    let qname = name(rng);
    let qtype = *rng
        .choose(&[QType::A, QType::Ns, QType::Cname, QType::Txt, QType::Aaaa])
        .expect("nonempty");
    let answers = (0..rng.gen_range(0..4))
        .map(|_| record(rng, &qname))
        .collect();
    let authorities = (0..rng.gen_range(0..2))
        .map(|_| record(rng, &qname))
        .collect();
    let mut additionals = Vec::new();
    if rng.gen_bool(0.5) {
        let subnets = (0..rng.gen_range(0..3))
            .map(|_| (rng.next_u32().to_le_bytes(), rng.gen_range(0..=32)))
            .collect();
        additionals.push(Rec {
            owner: Vec::new(),
            ttl: 0,
            data: Data::Opt(subnets),
        });
    }
    Msg {
        header,
        qname,
        qtype,
        sections: [answers, authorities, additionals],
    }
}

/// `m` written by `w` at the end of `out`.
fn write(w: &mut MessageWriter, out: &mut Vec<u8>, m: &Msg) {
    let [an, ns, ar] = m.sections.each_ref().map(|s| s.len() as u16);
    w.header(out, m.header, [1, an, ns, ar]);
    w.question(out, wire(&m.qname), m.qtype, QClass::In);
    for r in m.sections.iter().flatten() {
        let owner = wire(&r.owner);
        let written = match &r.data {
            Data::Txt(strings) => w.txt(
                out,
                owner,
                QClass::In,
                r.ttl,
                strings.iter().map(Vec::as_slice),
            ),
            Data::Ns(n) => name_record(w, out, r, QType::Ns, n),
            Data::Cname(n) => name_record(w, out, r, QType::Cname, n),
            Data::Opt(subnets) => w.record(out, owner, QType::Opt, 4096, r.ttl, |_, out| {
                for &(addr, prefix) in subnets {
                    ClientSubnet::write_ipv4(out, addr, prefix);
                }
                Ok(())
            }),
            Data::A(a) => w.record(out, owner, QType::A, 1, r.ttl, |_, out| {
                out.extend_from_slice(a);
                Ok(())
            }),
            Data::Aaaa(a) => w.record(out, owner, QType::Aaaa, 1, r.ttl, |_, out| {
                out.extend_from_slice(a);
                Ok(())
            }),
            Data::Raw(code, d) => {
                w.record(out, owner, QType::Unknown(*code), 1, r.ttl, |_, out| {
                    out.extend_from_slice(d);
                    Ok(())
                })
            }
        };
        written.expect("a well-formed record is written");
    }
}

/// Writes `r` as a record of `rtype` whose RDATA is the name `n`.
fn name_record(
    w: &mut MessageWriter,
    out: &mut Vec<u8>,
    r: &Rec,
    rtype: QType,
    n: &Labels,
) -> fenrir_wire::Result<()> {
    w.record(out, wire(&r.owner), rtype, 1, r.ttl, |w, out| {
        w.name(out, wire(n));
        Ok(())
    })
}

/// `cs` discloses the first `prefix` bits of `addr` (at most 32), in as
/// few bytes as hold them, and zeroes the rest.
fn assert_discloses(cs: ClientSubnet<'_>, addr: [u8; 4], prefix: u8) {
    let bits = prefix.min(32);
    let head = (cs.family, cs.source_prefix_len, cs.scope_prefix_len);
    assert_eq!(head, (AF_INET, bits, 0));
    assert_eq!(cs.address.len(), usize::from(bits.div_ceil(8)));
    let mut got = [0u8; 4];
    got[..cs.address.len()].copy_from_slice(cs.address);
    let mask = u32::MAX.checked_shl(32 - u32::from(bits)).unwrap_or(0);
    assert_eq!(u32::from_be_bytes(got), u32::from_be_bytes(addr) & mask);
}

/// `r`, read in place, carries what `want` was written with.
fn assert_record(r: &RecordRef<'_>, want: &Rec) {
    assert_eq!(read_labels(r.name), want.owner);
    assert_eq!(r.ttl, want.ttl);
    let got = match r.rdata.clone() {
        RDataRef::A(a) => Data::A(a),
        RDataRef::Aaaa(a) => Data::Aaaa(a),
        RDataRef::Txt(s) => Data::Txt(s.map(<[u8]>::to_vec).collect()),
        RDataRef::Ns(n) => Data::Ns(read_labels(n)),
        RDataRef::Cname(n) => Data::Cname(read_labels(n)),
        RDataRef::Raw(d) => Data::Raw(r.rtype.code(), d.to_vec()),
        RDataRef::Opt(options) => {
            let Data::Opt(subnets) = &want.data else {
                panic!("an OPT record read where {want:?} was written");
            };
            assert_eq!(r.class, 4096);
            let options: Vec<(u16, &[u8])> = options.collect();
            assert_eq!(options.len(), subnets.len());
            for ((code, payload), &(addr, prefix)) in options.into_iter().zip(subnets) {
                assert_eq!(code, OPT_CLIENT_SUBNET);
                assert_discloses(ClientSubnet::parse(payload).expect("checked"), addr, prefix);
            }
            return;
        }
        RDataRef::Ptr(_) => panic!("no PTR record is written"),
    };
    assert_eq!(r.class, 1);
    assert_eq!(got, want.data);
}

/// Every accessor of a message the reader accepted, walked to the end.
fn walk(reader: &MessageReader<'_>) {
    for q in reader.questions() {
        q.name.labels().for_each(drop);
    }
    for (_, r) in reader.records() {
        r.name.labels().for_each(drop);
        match r.rdata {
            RDataRef::Txt(s) => s.for_each(drop),
            RDataRef::Opt(o) => o.for_each(drop),
            RDataRef::Ns(n) | RDataRef::Cname(n) | RDataRef::Ptr(n) => n.labels().for_each(drop),
            _ => {}
        }
    }
    let _ = (reader.first_txt(), reader.client_subnet());
}

#[test]
fn dns_message_round_trips() {
    for_each_case(|rng| {
        let m = message(rng);
        // One writer for two messages, the second behind the first.
        let (mut w, mut out) = (MessageWriter::default(), Vec::new());
        let other = message(rng);
        write(&mut w, &mut out, &other);
        let start = out.len();
        write(&mut w, &mut out, &m);
        let back = MessageReader::new(&out[start..]).expect("own writing reads");
        assert_eq!(back.header(), m.header);
        let q: Vec<_> = back.questions().collect();
        assert_eq!(q.len(), 1);
        assert_eq!(read_labels(q[0].name), m.qname);
        assert_eq!((q[0].qtype, q[0].qclass), (m.qtype, QClass::In));
        let got: Vec<(usize, RecordRef<'_>)> = back.records().collect();
        let want: Vec<(usize, &Rec)> = (0..3)
            .flat_map(|s| m.sections[s].iter().map(move |r| (s, r)))
            .collect();
        assert_eq!(got.len(), want.len());
        for ((section, r), (want_section, w)) in got.iter().zip(want) {
            assert_eq!(*section, want_section);
            assert_record(r, w);
        }
        walk(&back);
    });
}

#[test]
fn dns_decoder_never_panics() {
    for_each_case(|rng| {
        // Err is fine; panic is not.
        if let Ok(reader) = MessageReader::new(&bytes(rng, 0..256)) {
            walk(&reader);
        }
    });
}

#[test]
fn dns_decoder_never_panics_on_mutated_valid_messages() {
    for_each_case(|rng| {
        let mut bytes = Vec::new();
        write(&mut MessageWriter::default(), &mut bytes, &message(rng));
        for _ in 0..rng.gen_range(1..8) {
            let (pos, val) = (rng.gen_range(0..512usize), rng.next_u32() as u8);
            let p = pos % bytes.len();
            bytes[p] = val;
        }
        if let Ok(reader) = MessageReader::new(&bytes) {
            walk(&reader);
        }
    });
}

#[test]
fn name_round_trips_through_compression() {
    for_each_case(|rng| {
        let base = name(rng);
        let names: Vec<Labels> = (0..rng.gen_range(1..6))
            .map(|_| related(rng, &base))
            .collect();
        let (mut w, mut out) = (MessageWriter::default(), Vec::new());
        w.header(&mut out, Header::default(), [names.len() as u16, 0, 0, 0]);
        for n in &names {
            w.question(&mut out, wire(n), QType::A, QClass::In);
        }
        let back = MessageReader::new(&out).expect("reads");
        let got: Vec<Labels> = back.questions().map(|q| read_labels(q.name)).collect();
        assert_eq!(got, names);
        // A name that ends as an earlier one does takes a pointer, so the
        // message is shorter than its names written in full exactly when
        // some name does.
        let full: usize = names
            .iter()
            .map(|n| n.iter().map(|l| l.len() + 1).sum::<usize>() + 1)
            .sum();
        let shares =
            (1..names.len()).any(|i| names[..i].iter().any(|m| m.last() == names[i].last()));
        assert_eq!(out.len() < 12 + full + 4 * names.len(), shares);
    });
}

#[test]
fn client_subnet_round_trips() {
    for_each_case(|rng| {
        let (addr, prefix) = (rng.next_u32().to_le_bytes(), rng.gen_range(0..=40));
        let mut out = Vec::new();
        ClientSubnet::write_ipv4(&mut out, addr, prefix);
        assert_eq!(u16::from_be_bytes([out[0], out[1]]), OPT_CLIENT_SUBNET);
        assert_eq!(
            usize::from(u16::from_be_bytes([out[2], out[3]])),
            out.len() - 4
        );
        assert_discloses(ClientSubnet::parse(&out[4..]).expect("reads"), addr, prefix);
    });
}

fn echo(ident: u16, seq: u16, payload: &[u8]) -> IcmpView<'_> {
    IcmpView {
        kind: IcmpKind::EchoRequest,
        ident,
        seq,
        payload,
    }
}

#[test]
fn icmp_round_trips() {
    for_each_case(|rng| {
        let (ident, seq, payload) = (
            rng.next_u32() as u16,
            rng.next_u32() as u16,
            bytes(rng, 0..128),
        );
        let p = echo(ident, seq, &payload);
        let mut out = Vec::new();
        p.encode_into(&mut out);
        assert_eq!(IcmpView::parse(&out).expect("reads"), p);
    });
}

#[test]
fn icmp_decoder_never_panics() {
    for_each_case(|rng| {
        let _ = IcmpView::parse(&bytes(rng, 0..64));
    });
}

#[test]
fn icmp_detects_any_single_bit_flip() {
    for_each_case(|rng| {
        let (ident, payload) = (rng.next_u32() as u16, bytes(rng, 1..32));
        let (flip_byte, flip_bit) = (rng.gen_range(0..16usize), rng.gen_range(0..8u8));
        let mut bytes = Vec::new();
        echo(ident, 1, &payload).encode_into(&mut bytes);
        let pos = flip_byte % bytes.len();
        bytes[pos] ^= 1 << flip_bit;
        // A single bit flip must be caught by the checksum (or read as a
        // different-but-valid packet only if the flip hit ident/seq/payload
        // AND checksum simultaneously — impossible for one bit).
        assert!(IcmpView::parse(&bytes).is_err(), "undetected corruption");
    });
}

#[test]
fn checksum_verifies_its_own_output() {
    for_each_case(|rng| {
        let data = bytes(rng, 0..64);
        // Append the checksum and the whole thing verifies.
        let ck = internet_checksum(&data);
        let mut with = data.clone();
        with.extend_from_slice(&ck.to_be_bytes());
        // Checksum placed at the end of an even-length buffer verifies.
        if data.len().is_multiple_of(2) {
            assert!(fenrir_wire::checksum::verify(&with));
        }
    });
}
