//! DNS messages: the header, and the codec with name compression.
//!
//! [`MessageWriter`] writes every message into a caller's buffer,
//! compressing names against one table it keeps across messages;
//! [`MessageReader`] checks a whole message in place and then yields its
//! header, questions and records borrowed from the input.

use super::edns::{ClientSubnet, EdnsOptions, OPT_CLIENT_SUBNET};
use super::name::{write_compressed, NameTable, WireName};
use super::{QClass, QType};
use crate::error::{Result, WireError};

/// Message opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Opcode {
    /// Standard query.
    #[default]
    Query,
    /// Inverse query (obsolete).
    IQuery,
    /// Server status request.
    Status,
    /// Anything else, by code.
    Other(u8),
}

impl Opcode {
    fn code(self) -> u8 {
        match self {
            Opcode::Query => 0,
            Opcode::IQuery => 1,
            Opcode::Status => 2,
            Opcode::Other(c) => c & 0x0F,
        }
    }

    fn from_code(c: u8) -> Self {
        match c & 0x0F {
            0 => Opcode::Query,
            1 => Opcode::IQuery,
            2 => Opcode::Status,
            other => Opcode::Other(other),
        }
    }
}

/// Response code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Rcode {
    /// No error.
    #[default]
    NoError,
    /// Format error.
    FormErr,
    /// Server failure.
    ServFail,
    /// Name does not exist.
    NxDomain,
    /// Not implemented.
    NotImp,
    /// Refused by policy.
    Refused,
    /// Anything else, by code.
    Other(u8),
}

impl Rcode {
    fn code(self) -> u8 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::NotImp => 4,
            Rcode::Refused => 5,
            Rcode::Other(c) => c & 0x0F,
        }
    }

    fn from_code(c: u8) -> Self {
        match c & 0x0F {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            4 => Rcode::NotImp,
            5 => Rcode::Refused,
            other => Rcode::Other(other),
        }
    }
}

/// The 12-octet DNS header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Header {
    /// Query identifier, echoed in responses.
    pub id: u16,
    /// Query (false) or response (true).
    pub qr: bool,
    /// Operation.
    pub opcode: Opcode,
    /// Authoritative answer.
    pub aa: bool,
    /// Truncated.
    pub tc: bool,
    /// Recursion desired.
    pub rd: bool,
    /// Recursion available.
    pub ra: bool,
    /// Response code.
    pub rcode: Rcode,
}

impl Header {
    /// The header of a response to a query with this header: the id and
    /// recursion-desired echoed, authoritative, recursion available.
    pub fn response(self, rcode: Rcode) -> Header {
        Header {
            id: self.id,
            qr: true,
            aa: true,
            rd: self.rd,
            ra: true,
            rcode,
            ..Header::default()
        }
    }

    fn encode(self, counts: [u16; 4], out: &mut Vec<u8>) {
        out.extend_from_slice(&self.id.to_be_bytes());
        let mut b2: u8 = 0;
        if self.qr {
            b2 |= 0x80;
        }
        b2 |= self.opcode.code() << 3;
        if self.aa {
            b2 |= 0x04;
        }
        if self.tc {
            b2 |= 0x02;
        }
        if self.rd {
            b2 |= 0x01;
        }
        let mut b3: u8 = 0;
        if self.ra {
            b3 |= 0x80;
        }
        b3 |= self.rcode.code();
        out.push(b2);
        out.push(b3);
        for c in counts {
            out.extend_from_slice(&c.to_be_bytes());
        }
    }

    fn decode(buf: &[u8]) -> Result<(Header, [u16; 4])> {
        if buf.len() < 12 {
            return Err(WireError::Truncated {
                what: "dns header",
                needed: 12 - buf.len(),
            });
        }
        let id = u16::from_be_bytes([buf[0], buf[1]]);
        let (b2, b3) = (buf[2], buf[3]);
        let header = Header {
            id,
            qr: b2 & 0x80 != 0,
            opcode: Opcode::from_code((b2 >> 3) & 0x0F),
            aa: b2 & 0x04 != 0,
            tc: b2 & 0x02 != 0,
            rd: b2 & 0x01 != 0,
            ra: b3 & 0x80 != 0,
            rcode: Rcode::from_code(b3),
        };
        let mut counts = [0u16; 4];
        for (i, c) in counts.iter_mut().enumerate() {
            *c = u16::from_be_bytes([buf[4 + 2 * i], buf[5 + 2 * i]]);
        }
        Ok((header, counts))
    }
}

/// Append one TXT character-string: a length octet, then at most 255
/// octets.
fn write_character_string(out: &mut Vec<u8>, s: &[u8]) -> Result<()> {
    if s.len() > 255 {
        return Err(WireError::FieldOverflow {
            what: "txt string",
            value: s.len(),
            max: 255,
        });
    }
    out.push(s.len() as u8);
    out.extend_from_slice(s);
    Ok(())
}

/// A question read in place by [`MessageReader`].
#[derive(Debug, Clone, Copy)]
pub struct QuestionRef<'a> {
    /// Queried name.
    pub name: WireName<'a>,
    /// Queried type.
    pub qtype: QType,
    /// Queried class.
    pub qclass: QClass,
}

/// Record data read in place. Types Fenrir uses are read structurally;
/// everything else is raw bytes.
#[derive(Debug, Clone)]
pub enum RDataRef<'a> {
    /// IPv4 address.
    A([u8; 4]),
    /// IPv6 address.
    Aaaa([u8; 16]),
    /// Text strings (each at most 255 octets) — CHAOS identifiers live
    /// here.
    Txt(TxtStrings<'a>),
    /// Canonical name.
    Cname(WireName<'a>),
    /// Name server.
    Ns(WireName<'a>),
    /// Pointer.
    Ptr(WireName<'a>),
    /// EDNS0 options (the OPT pseudo-record's RDATA), checked.
    Opt(EdnsOptions<'a>),
    /// Uninterpreted RDATA for other types.
    Raw(&'a [u8]),
}

/// The character-strings of a TXT record, read in place.
#[derive(Debug, Clone)]
pub struct TxtStrings<'a>(&'a [u8]);

impl<'a> Iterator for TxtStrings<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        // Checked by the reader: every length fits the RDATA.
        let (&len, rest) = self.0.split_first()?;
        let (s, rest) = rest.split_at(usize::from(len));
        self.0 = rest;
        Some(s)
    }
}

/// A resource record read in place by [`MessageReader`]. For OPT
/// pseudo-records the `class` field carries the advertised UDP payload
/// size and `ttl` the extended flags, per RFC 6891.
#[derive(Debug, Clone)]
pub struct RecordRef<'a> {
    /// Record owner name.
    pub name: WireName<'a>,
    /// Record type.
    pub rtype: QType,
    /// Class (or UDP size for OPT).
    pub class: u16,
    /// Time to live (or extended rcode/flags for OPT).
    pub ttl: u32,
    /// Typed data.
    pub rdata: RDataRef<'a>,
}

fn read_question<'a>(buf: &'a [u8], pos: &mut usize) -> Result<QuestionRef<'a>> {
    let name = WireName::parse(buf, pos)?;
    if buf.len() < *pos + 4 {
        return Err(WireError::Truncated {
            what: "question fixed fields",
            needed: *pos + 4 - buf.len(),
        });
    }
    let p = *pos;
    *pos += 4;
    Ok(QuestionRef {
        name,
        qtype: QType::from_code(u16::from_be_bytes([buf[p], buf[p + 1]])),
        qclass: QClass::from_code(u16::from_be_bytes([buf[p + 2], buf[p + 3]])),
    })
}

fn read_record<'a>(buf: &'a [u8], pos: &mut usize) -> Result<RecordRef<'a>> {
    let name = WireName::parse(buf, pos)?;
    if buf.len() < *pos + 10 {
        return Err(WireError::Truncated {
            what: "record fixed fields",
            needed: *pos + 10 - buf.len(),
        });
    }
    let rtype = QType::from_code(u16::from_be_bytes([buf[*pos], buf[*pos + 1]]));
    let class = u16::from_be_bytes([buf[*pos + 2], buf[*pos + 3]]);
    let ttl = u32::from_be_bytes([buf[*pos + 4], buf[*pos + 5], buf[*pos + 6], buf[*pos + 7]]);
    let rdlen = usize::from(u16::from_be_bytes([buf[*pos + 8], buf[*pos + 9]]));
    *pos += 10;
    if buf.len() < *pos + rdlen {
        return Err(WireError::Truncated {
            what: "rdata",
            needed: *pos + rdlen - buf.len(),
        });
    }
    let rdata_buf = &buf[*pos..*pos + rdlen];
    let rdata = match rtype {
        QType::A => {
            if rdlen != 4 {
                return Err(WireError::FieldOverflow {
                    what: "A rdata",
                    value: rdlen,
                    max: 4,
                });
            }
            RDataRef::A([rdata_buf[0], rdata_buf[1], rdata_buf[2], rdata_buf[3]])
        }
        QType::Aaaa => {
            if rdlen != 16 {
                return Err(WireError::FieldOverflow {
                    what: "AAAA rdata",
                    value: rdlen,
                    max: 16,
                });
            }
            let mut a = [0u8; 16];
            a.copy_from_slice(rdata_buf);
            RDataRef::Aaaa(a)
        }
        QType::Txt => {
            let mut i = 0usize;
            while i < rdata_buf.len() {
                let l = usize::from(rdata_buf[i]);
                i += 1;
                if i + l > rdata_buf.len() {
                    return Err(WireError::Truncated {
                        what: "txt string",
                        needed: i + l - rdata_buf.len(),
                    });
                }
                i += l;
            }
            RDataRef::Txt(TxtStrings(rdata_buf))
        }
        QType::Cname | QType::Ns | QType::Ptr => {
            // Names in RDATA may be compressed against the whole
            // message, so decode with absolute positions.
            let mut p = *pos;
            let n = WireName::parse(buf, &mut p)?;
            if p != *pos + rdlen {
                return Err(WireError::TrailingBytes {
                    count: (*pos + rdlen).abs_diff(p),
                });
            }
            match rtype {
                QType::Cname => RDataRef::Cname(n),
                QType::Ns => RDataRef::Ns(n),
                _ => RDataRef::Ptr(n),
            }
        }
        QType::Opt => RDataRef::Opt(EdnsOptions::check(rdata_buf)?),
        _ => RDataRef::Raw(rdata_buf),
    };
    *pos += rdlen;
    Ok(RecordRef {
        name,
        rtype,
        class,
        ttl,
        rdata,
    })
}

/// Writes DNS messages at the end of a caller's buffer, compressing names
/// against one table that it keeps, storage and all, across messages.
#[derive(Debug, Clone, Default)]
pub struct MessageWriter {
    table: NameTable,
    /// Offset of the current message in the caller's buffer.
    start: usize,
}

impl MessageWriter {
    /// Begin a message at the end of `out` with its header and section
    /// counts; names written after it compress against this message only.
    pub fn header(&mut self, out: &mut Vec<u8>, header: Header, counts: [u16; 4]) {
        self.table.clear();
        self.start = out.len();
        header.encode(counts, out);
    }

    /// Append a name, compressed against the names this message already
    /// holds: a question's or a record's, or one inside a record's RDATA.
    pub fn name<'l>(&mut self, out: &mut Vec<u8>, labels: impl Iterator<Item = &'l [u8]> + Clone) {
        write_compressed(labels, out, self.start, &mut self.table);
    }

    /// Append a question.
    pub fn question<'l>(
        &mut self,
        out: &mut Vec<u8>,
        name: impl Iterator<Item = &'l [u8]> + Clone,
        qtype: QType,
        qclass: QClass,
    ) {
        self.name(out, name);
        out.extend_from_slice(&qtype.code().to_be_bytes());
        out.extend_from_slice(&qclass.code().to_be_bytes());
    }

    /// Append a resource record whose RDATA `rdata` appends, given this
    /// writer for the names in it. For an OPT pseudo-record, `class` is
    /// the advertised UDP payload size and `ttl` the extended flags.
    pub fn record<'l>(
        &mut self,
        out: &mut Vec<u8>,
        name: impl Iterator<Item = &'l [u8]> + Clone,
        rtype: QType,
        class: u16,
        ttl: u32,
        rdata: impl FnOnce(&mut Self, &mut Vec<u8>) -> Result<()>,
    ) -> Result<()> {
        self.name(out, name);
        out.extend_from_slice(&rtype.code().to_be_bytes());
        out.extend_from_slice(&class.to_be_bytes());
        out.extend_from_slice(&ttl.to_be_bytes());
        let len_pos = out.len();
        out.extend_from_slice(&[0, 0]);
        rdata(self, out)?;
        let rdlen = out.len() - len_pos - 2;
        if rdlen > usize::from(u16::MAX) {
            return Err(WireError::FieldOverflow {
                what: "rdata",
                value: rdlen,
                max: usize::from(u16::MAX),
            });
        }
        out[len_pos..len_pos + 2].copy_from_slice(&(rdlen as u16).to_be_bytes());
        Ok(())
    }

    /// Append a TXT record of `strings`, e.g. the CHAOS `hostname.bind`
    /// answer carrying a site identifier.
    pub fn txt<'l, 's>(
        &mut self,
        out: &mut Vec<u8>,
        name: impl Iterator<Item = &'l [u8]> + Clone,
        class: QClass,
        ttl: u32,
        strings: impl IntoIterator<Item = &'s [u8]>,
    ) -> Result<()> {
        self.record(out, name, QType::Txt, class.code(), ttl, |_, out| {
            strings
                .into_iter()
                .try_for_each(|s| write_character_string(out, s))
        })
    }

    /// Begin the response to `query`: its header, echoing the id and
    /// recursion-desired, then every question copied, ahead of `answers`
    /// answer records.
    pub fn response_to(
        &mut self,
        out: &mut Vec<u8>,
        query: &MessageReader<'_>,
        rcode: Rcode,
        answers: u16,
    ) {
        self.header(
            out,
            query.header().response(rcode),
            [query.counts[0], answers, 0, 0],
        );
        for q in query.questions() {
            self.question(out, q.name.labels(), q.qtype, q.qclass);
        }
    }
}

/// Reads a DNS message in place. [`MessageReader::new`] checks the whole
/// message; the accessors then borrow from the input.
#[derive(Debug, Clone)]
pub struct MessageReader<'a> {
    buf: &'a [u8],
    header: Header,
    counts: [u16; 4],
    /// Offset of the first record, past the questions.
    records_at: usize,
}

impl<'a> MessageReader<'a> {
    /// Check every section of `buf`, and that nothing trails them.
    pub fn new(buf: &'a [u8]) -> Result<Self> {
        let (header, counts) = Header::decode(buf)?;
        let mut pos = 12usize;
        for _ in 0..counts[0] {
            read_question(buf, &mut pos)?;
        }
        let records_at = pos;
        let records: u32 = counts[1..].iter().map(|&c| u32::from(c)).sum();
        for _ in 0..records {
            read_record(buf, &mut pos)?;
        }
        if pos != buf.len() {
            return Err(WireError::TrailingBytes {
                count: buf.len() - pos,
            });
        }
        Ok(MessageReader {
            buf,
            header,
            counts,
            records_at,
        })
    }

    /// The header.
    pub fn header(&self) -> Header {
        self.header
    }

    /// The questions, in order.
    pub fn questions(&self) -> impl Iterator<Item = QuestionRef<'a>> {
        let (buf, mut pos) = (self.buf, 12);
        (0..self.counts[0])
            .map(move |_| read_question(buf, &mut pos).expect("question checked by the reader"))
    }

    /// Every record with its section: 0 answer, 1 authority, 2 additional.
    pub fn records(&self) -> impl Iterator<Item = (usize, RecordRef<'a>)> {
        let (buf, mut pos) = (self.buf, self.records_at);
        let [_, an, ns, ar] = self.counts.map(usize::from);
        let sections = [(0, an), (1, ns), (2, ar)];
        sections
            .into_iter()
            .flat_map(|(section, n)| std::iter::repeat_n(section, n))
            .map(move |section| {
                let r = read_record(buf, &mut pos).expect("record checked by the reader");
                (section, r)
            })
    }

    /// The answer records, in order.
    pub fn answers(&self) -> impl Iterator<Item = RecordRef<'a>> {
        self.records()
            .take(usize::from(self.counts[1]))
            .map(|(_, r)| r)
    }

    /// The first string of the first TXT answer that has one — how a
    /// measurement client reads a CHAOS site identifier.
    pub fn first_txt(&self) -> Option<&'a [u8]> {
        self.answers().find_map(|r| match r.rdata {
            RDataRef::Txt(mut strings) => strings.next(),
            _ => None,
        })
    }

    /// The first Client Subnet option of the first OPT record in the
    /// additional section.
    pub fn client_subnet(&self) -> Option<ClientSubnet<'a>> {
        let mut options = self
            .records()
            .filter(|&(section, _)| section == 2)
            .find_map(|(_, r)| match r.rdata {
                RDataRef::Opt(options) => Some(options),
                _ => None,
            })?;
        let (_, payload) = options.find(|&(code, _)| code == OPT_CLIENT_SUBNET)?;
        Some(ClientSubnet::parse(payload).expect("checked by the reader"))
    }
}

#[cfg(test)]
mod tests {
    use super::super::name::Name;
    use super::*;

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    /// A query for `qname` with recursion desired, written from offset 0.
    fn query(id: u16, qname: &str, qtype: QType, qclass: QClass) -> Vec<u8> {
        query_with(id, &[qname], qtype, qclass, None)
    }

    /// A query with a question for each of `qnames`, and, unless
    /// `subnets` is `None`, an OPT record holding a Client Subnet option
    /// for each of them.
    fn query_with(
        id: u16,
        qnames: &[&str],
        qtype: QType,
        qclass: QClass,
        subnets: Option<&[[u8; 4]]>,
    ) -> Vec<u8> {
        let (mut w, mut out) = (MessageWriter::default(), Vec::new());
        let header = Header {
            id,
            rd: true,
            ..Header::default()
        };
        let counts = [qnames.len() as u16, 0, 0, u16::from(subnets.is_some())];
        w.header(&mut out, header, counts);
        for q in qnames {
            w.question(&mut out, name(q).labels(), qtype, qclass);
        }
        if let Some(subnets) = subnets {
            opt(&mut w, &mut out, subnets).unwrap();
        }
        out
    }

    /// The dotted form of a name read in place.
    fn dotted(n: WireName<'_>) -> String {
        let labels: Vec<String> = n
            .labels()
            .map(|l| String::from_utf8_lossy(l).into_owned())
            .collect();
        labels.join(".")
    }

    /// `add` appends the answers of a response to `qbytes`, written by
    /// one writer from offset 0.
    fn respond(
        qbytes: &[u8],
        rcode: Rcode,
        counts: [u16; 3],
        add: impl FnOnce(&mut MessageWriter, &mut Vec<u8>, WireName<'_>) -> Result<()>,
    ) -> Result<Vec<u8>> {
        let q = MessageReader::new(qbytes).unwrap();
        let (mut w, mut out) = (MessageWriter::default(), Vec::new());
        let header = q.header().response(rcode);
        w.header(
            &mut out,
            header,
            [q.counts[0], counts[0], counts[1], counts[2]],
        );
        for qq in q.questions() {
            w.question(&mut out, qq.name.labels(), qq.qtype, qq.qclass);
        }
        add(&mut w, &mut out, q.questions().next().unwrap().name)?;
        Ok(out)
    }

    #[test]
    fn query_round_trip() {
        let bytes = query(0xBEEF, "www.example.org", QType::A, QClass::In);
        let back = MessageReader::new(&bytes).unwrap();
        let h = back.header();
        assert_eq!((h.id, h.rd, h.qr), (0xBEEF, true, false));
        let q: Vec<QuestionRef<'_>> = back.questions().collect();
        assert_eq!(q.len(), 1);
        assert_eq!(dotted(q[0].name), "www.example.org");
        assert_eq!((q[0].qtype, q[0].qclass), (QType::A, QClass::In));
        assert_eq!(back.records().count(), 0);
    }

    #[test]
    fn chaos_response_with_txt_identifier() {
        let qbytes = query(42, "hostname.bind", QType::Txt, QClass::Chaos);
        let bytes = respond(&qbytes, Rcode::NoError, [1, 0, 0], |w, out, qname| {
            w.txt(out, qname.labels(), QClass::Chaos, 0, [&b"b4-iad2"[..]])
        })
        .unwrap();
        let back = MessageReader::new(&bytes).unwrap();
        assert!(back.header().qr);
        assert_eq!(back.header().id, 42);
        let q = back.questions().next().unwrap();
        assert_eq!((q.qtype, q.qclass), (QType::Txt, QClass::Chaos));
        assert_eq!(back.first_txt(), Some(&b"b4-iad2"[..]));
    }

    #[test]
    fn answer_name_is_compressed_against_question() {
        let qname = "a.very.long.domain.example.org";
        let qbytes = query(1, qname, QType::A, QClass::In);
        let bytes = respond(&qbytes, Rcode::NoError, [1, 0, 0], |w, out, qname| {
            w.record(out, qname.labels(), QType::A, 1, 300, |_, out| {
                out.extend_from_slice(&[192, 0, 2, 1]);
                Ok(())
            })
        })
        .unwrap();
        // Answer owner name should be a 2-byte pointer, so total length is
        // header(12) + question(name + 4) + answer(2 + 10 + 4).
        let name_len = qname.len() + 2;
        assert_eq!(bytes.len(), 12 + name_len + 4 + 2 + 10 + 4);
        let back = MessageReader::new(&bytes).unwrap();
        let a = back.answers().next().unwrap();
        assert_eq!(dotted(a.name), qname);
        assert!(matches!(a.rdata, RDataRef::A([192, 0, 2, 1])));
    }

    /// Appends an OPT record advertising 4096 octets that holds a Client
    /// Subnet option for each of `subnets`.
    fn opt(w: &mut MessageWriter, out: &mut Vec<u8>, subnets: &[[u8; 4]]) -> Result<()> {
        w.record(out, std::iter::empty(), QType::Opt, 4096, 0, |_, out| {
            for &s in subnets {
                ClientSubnet::write_ipv4(out, s, 24);
            }
            Ok(())
        })
    }

    #[test]
    fn edns_client_subnet_round_trip() {
        let subnets = Some(&[[100, 64, 12, 77]][..]);
        let bytes = query_with(9, &["www.google.com"], QType::A, QClass::In, subnets);
        let back = MessageReader::new(&bytes).unwrap();
        let cs = back.client_subnet().unwrap();
        assert_eq!(cs.source_prefix_len, 24);
        assert_eq!(cs.address, [100, 64, 12]);
        let (section, opt) = back.records().next().unwrap();
        assert_eq!((section, opt.rtype, opt.class), (2, QType::Opt, 4096));
    }

    #[test]
    fn client_subnet_is_the_first_of_the_first_additional_opt() {
        let qbytes = query(9, "x.y", QType::A, QClass::In);
        // An OPT answer, then two OPT additionals: the first holding two
        // subnets, the second one.
        let bytes = respond(&qbytes, Rcode::NoError, [1, 0, 2], |w, out, _| {
            opt(w, out, &[[10, 0, 0, 0]])?;
            opt(w, out, &[[10, 1, 0, 0], [10, 2, 0, 0]])?;
            opt(w, out, &[[10, 3, 0, 0]])
        })
        .unwrap();
        let back = MessageReader::new(&bytes).unwrap();
        assert_eq!(back.client_subnet().unwrap().address, [10, 1, 0]);
        // A first additional OPT without one hides a later one.
        let bytes = respond(&qbytes, Rcode::NoError, [0, 0, 2], |w, out, _| {
            opt(w, out, &[])?;
            opt(w, out, &[[10, 3, 0, 0]])
        })
        .unwrap();
        assert_eq!(MessageReader::new(&bytes).unwrap().client_subnet(), None);
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let mut bytes = query(1, "x.y", QType::A, QClass::In);
        bytes.push(0);
        assert!(matches!(
            MessageReader::new(&bytes),
            Err(WireError::TrailingBytes { count: 1 })
        ));
    }

    #[test]
    fn decode_rejects_truncated_everything() {
        let subnets = Some(&[[1, 2, 3, 4]][..]);
        let bytes = query_with(1, &["host.example.com"], QType::Txt, QClass::In, subnets);
        // Every proper prefix must fail cleanly, never panic.
        for cut in 0..bytes.len() {
            assert!(MessageReader::new(&bytes[..cut]).is_err(), "cut={cut}");
        }
        assert!(MessageReader::new(&bytes).is_ok());
    }

    #[test]
    fn decode_rejects_bad_a_rdlen() {
        let qbytes = query(1, "a.b", QType::A, QClass::In);
        let bytes = respond(&qbytes, Rcode::NoError, [1, 0, 0], |w, out, qname| {
            // A 3-byte A record.
            w.record(out, qname.labels(), QType::A, 1, 0, |_, out| {
                out.extend_from_slice(&[1, 2, 3]);
                Ok(())
            })
        })
        .unwrap();
        assert_eq!(
            MessageReader::new(&bytes).unwrap_err(),
            WireError::FieldOverflow {
                what: "A rdata",
                value: 3,
                max: 4,
            }
        );
    }

    #[test]
    fn txt_multiple_strings_round_trip() {
        let qbytes = query(1, "t.t", QType::Txt, QClass::In);
        let bytes = respond(&qbytes, Rcode::NoError, [1, 0, 0], |w, out, qname| {
            w.txt(out, qname.labels(), QClass::In, 60, [&b"one"[..], b"two"])
        })
        .unwrap();
        let back = MessageReader::new(&bytes).unwrap();
        let strings: Vec<&[u8]> = match back.answers().next().unwrap().rdata {
            RDataRef::Txt(s) => s.collect(),
            other => panic!("expected TXT, got {other:?}"),
        };
        assert_eq!(strings, [&b"one"[..], b"two"]);
    }

    #[test]
    fn txt_overlong_string_rejected_at_encode() {
        let qbytes = query(1, "t.t", QType::Txt, QClass::In);
        let got = respond(&qbytes, Rcode::NoError, [1, 0, 0], |w, out, qname| {
            w.txt(out, qname.labels(), QClass::In, 60, [&[0u8; 256][..]])
        });
        assert_eq!(
            got.unwrap_err(),
            WireError::FieldOverflow {
                what: "txt string",
                value: 256,
                max: 255,
            }
        );
    }

    #[test]
    fn cname_and_ns_round_trip() {
        let qbytes = query(1, "alias.example.org", QType::Cname, QClass::In);
        let bytes = respond(&qbytes, Rcode::NxDomain, [1, 1, 0], |w, out, qname| {
            let real = name("real.example.org");
            w.record(out, qname.labels(), QType::Cname, 1, 60, |w, out| {
                w.name(out, real.labels());
                Ok(())
            })?;
            let ns = name("ns1.example.org");
            w.record(
                out,
                name("example.org").labels(),
                QType::Ns,
                1,
                60,
                |w, out| {
                    w.name(out, ns.labels());
                    Ok(())
                },
            )
        })
        .unwrap();
        let back = MessageReader::new(&bytes).unwrap();
        assert_eq!(back.header().rcode, Rcode::NxDomain);
        let got: Vec<(usize, String)> = back
            .records()
            .map(|(section, r)| match r.rdata {
                RDataRef::Cname(n) | RDataRef::Ns(n) => (section, dotted(n)),
                other => panic!("expected a name, got {other:?}"),
            })
            .collect();
        assert_eq!(
            got,
            [
                (0, "real.example.org".into()),
                (1, "ns1.example.org".into())
            ]
        );
    }

    #[test]
    fn rdata_name_must_fill_its_rdata() {
        let qbytes = query(1, "example.org", QType::Ns, QClass::In);
        let bytes = respond(&qbytes, Rcode::NoError, [1, 0, 0], |w, out, qname| {
            w.record(out, qname.labels(), QType::Ns, 1, 60, |w, out| {
                w.name(out, name("ns1.example.org").labels());
                out.push(0);
                Ok(())
            })
        })
        .unwrap();
        assert_eq!(
            MessageReader::new(&bytes).unwrap_err(),
            WireError::TrailingBytes { count: 1 }
        );
    }

    #[test]
    fn unknown_rtype_round_trips_as_raw() {
        let qbytes = query(1, "x.x", QType::Unknown(999), QClass::In);
        let bytes = respond(&qbytes, Rcode::NoError, [1, 0, 0], |w, out, qname| {
            w.record(out, qname.labels(), QType::Unknown(999), 1, 1, |_, out| {
                out.extend_from_slice(&[0xDE, 0xAD]);
                Ok(())
            })
        })
        .unwrap();
        let back = MessageReader::new(&bytes).unwrap();
        let r = back.answers().next().unwrap();
        assert_eq!(r.rtype, QType::Unknown(999));
        assert!(matches!(r.rdata, RDataRef::Raw(&[0xDE, 0xAD])));
    }

    #[test]
    fn header_flag_bits_round_trip() {
        for qr in [false, true] {
            for aa in [false, true] {
                for tc in [false, true] {
                    for rd in [false, true] {
                        for ra in [false, true] {
                            let h = Header {
                                id: 0x0102,
                                qr,
                                opcode: Opcode::Status,
                                aa,
                                tc,
                                rd,
                                ra,
                                rcode: Rcode::Refused,
                            };
                            let mut buf = Vec::new();
                            h.encode([0, 0, 0, 0], &mut buf);
                            let (back, counts) = Header::decode(&buf).unwrap();
                            assert_eq!(back, h);
                            assert_eq!(counts, [0, 0, 0, 0]);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn writer_answers_a_read_query_in_place() {
        // Two questions; the answer is named after the first.
        let qnames = ["Hostname.BIND", "hostname.bind"];
        let qbytes = query_with(42, &qnames, QType::Txt, QClass::Chaos, None);
        let reader = MessageReader::new(&qbytes).unwrap();
        let qname = reader.questions().next().unwrap().name;
        // One writer, reused, with the response behind other bytes in the
        // caller's buffer: compression offsets count from the message.
        let (mut w, mut first) = (MessageWriter::default(), None);
        for prefix in [0usize, 28, 3] {
            let mut out = vec![0xEE; prefix];
            w.response_to(&mut out, &reader, Rcode::NoError, 1);
            w.txt(&mut out, qname.labels(), QClass::Chaos, 0, [&b"b4-lax"[..]])
                .unwrap();
            let msg = &out[prefix..];
            assert_eq!(msg, first.get_or_insert_with(|| msg.to_vec()).as_slice());
            let back = MessageReader::new(msg).unwrap();
            assert_eq!(back.header(), reader.header().response(Rcode::NoError));
            assert_eq!(back.questions().count(), 2);
            assert_eq!(back.first_txt(), Some(&b"b4-lax"[..]));
            // The second question and the answer point at the first's
            // name, at offset 12.
            assert_eq!(msg.windows(2).filter(|p| p == &[0xC0, 12]).count(), 2);
        }
    }

    #[test]
    fn first_txt_skips_empty_txt_answers_and_other_sections() {
        let qbytes = query(1, "t.t", QType::Txt, QClass::In);
        let bytes = respond(&qbytes, Rcode::NoError, [2, 1, 0], |w, out, qname| {
            w.txt(out, qname.labels(), QClass::In, 60, [])?;
            w.txt(out, qname.labels(), QClass::In, 60, [&b"two"[..], b"three"])?;
            w.txt(
                out,
                std::iter::empty(),
                QClass::In,
                0,
                [&b"not an answer"[..]],
            )
        })
        .unwrap();
        let reader = MessageReader::new(&bytes).unwrap();
        assert_eq!(reader.first_txt(), Some(&b"two"[..]));
        assert_eq!(reader.answers().count(), 2);
        assert_eq!(reader.records().count(), 3);
    }

    #[test]
    fn opcode_rcode_unknown_round_trip() {
        assert_eq!(Opcode::from_code(9), Opcode::Other(9));
        assert_eq!(Opcode::Other(9).code(), 9);
        assert_eq!(Rcode::from_code(9), Rcode::Other(9));
        assert_eq!(Rcode::Other(9).code(), 9);
    }
}
