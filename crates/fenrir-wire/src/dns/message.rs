//! DNS message structure: header, questions, resource records, and the
//! message codec with name compression.
//!
//! [`MessageWriter`] writes every message into a caller's buffer,
//! compressing names against one table it keeps across messages;
//! [`MessageReader`] checks a whole message in place and then yields its
//! header, questions and records borrowed from the input. The owned
//! [`Message::encode`] and [`Message::decode`] wrap the two.

use super::edns::{ClientSubnet, EdnsOption};
use super::name::{write_compressed, Name, NameTable, WireName};
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

/// A question entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Question {
    /// Queried name.
    pub name: Name,
    /// Queried type.
    pub qtype: QType,
    /// Queried class.
    pub qclass: QClass,
}

/// Typed record data. Types Fenrir uses decode structurally; everything else
/// round-trips as raw bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RData {
    /// IPv4 address.
    A([u8; 4]),
    /// IPv6 address.
    Aaaa([u8; 16]),
    /// Text strings (each at most 255 octets) — CHAOS identifiers live here.
    Txt(Vec<Vec<u8>>),
    /// Canonical name.
    Cname(Name),
    /// Name server.
    Ns(Name),
    /// Pointer.
    Ptr(Name),
    /// EDNS0 options (the OPT pseudo-record's RDATA).
    Opt(Vec<EdnsOption>),
    /// Uninterpreted RDATA for other types.
    Raw(Vec<u8>),
}

/// A resource record. For OPT pseudo-records the `class` field carries the
/// advertised UDP payload size and `ttl` the extended flags, per RFC 6891.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Record owner name.
    pub name: Name,
    /// Record type.
    pub rtype: QType,
    /// Class (or UDP size for OPT).
    pub class: u16,
    /// Time to live (or extended rcode/flags for OPT).
    pub ttl: u32,
    /// Typed data.
    pub rdata: RData,
}

impl Record {
    /// Build a TXT record, e.g. the CHAOS `hostname.bind` answer carrying a
    /// site identifier.
    pub fn txt(name: Name, class: QClass, ttl: u32, text: &[u8]) -> Record {
        Record {
            name,
            rtype: QType::Txt,
            class: class.code(),
            ttl,
            rdata: RData::Txt(vec![text.to_vec()]),
        }
    }

    /// Build an A record.
    pub fn a(name: Name, ttl: u32, addr: [u8; 4]) -> Record {
        Record {
            name,
            rtype: QType::A,
            class: QClass::In.code(),
            ttl,
            rdata: RData::A(addr),
        }
    }

    /// Build an OPT pseudo-record advertising `udp_size` with the given
    /// options.
    pub fn opt(udp_size: u16, options: Vec<EdnsOption>) -> Record {
        Record {
            name: Name::root(),
            rtype: QType::Opt,
            class: udp_size,
            ttl: 0,
            rdata: RData::Opt(options),
        }
    }
}

impl RData {
    /// Append the record data (names uncompressed).
    fn encode(&self, out: &mut Vec<u8>) -> Result<()> {
        match self {
            RData::A(a) => out.extend_from_slice(a),
            RData::Aaaa(a) => out.extend_from_slice(a),
            RData::Txt(strings) => {
                for s in strings {
                    write_character_string(out, s)?;
                }
            }
            // RFC 1035 forbids compressing names in newer RR types' RDATA;
            // NS/CNAME/PTR may be compressed but we emit them uncompressed
            // for simplicity and interoperability.
            RData::Cname(n) | RData::Ns(n) | RData::Ptr(n) => n.encode_uncompressed(out),
            RData::Opt(options) => {
                for o in options {
                    o.encode(out);
                }
            }
            RData::Raw(d) => out.extend_from_slice(d),
        }
        Ok(())
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

impl QuestionRef<'_> {
    /// An owned copy.
    pub(crate) fn to_question(self) -> Question {
        Question {
            name: self.name.to_name(),
            qtype: self.qtype,
            qclass: self.qclass,
        }
    }
}

/// Record data read in place: [`RData`] with its bytes and names borrowed.
#[derive(Debug, Clone)]
pub enum RDataRef<'a> {
    /// IPv4 address.
    A([u8; 4]),
    /// IPv6 address.
    Aaaa([u8; 16]),
    /// Text strings.
    Txt(TxtStrings<'a>),
    /// Canonical name.
    Cname(WireName<'a>),
    /// Name server.
    Ns(WireName<'a>),
    /// Pointer.
    Ptr(WireName<'a>),
    /// EDNS0 options, checked, as they lie in the RDATA.
    Opt(&'a [u8]),
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

/// A resource record read in place by [`MessageReader`].
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

impl RecordRef<'_> {
    /// An owned copy.
    pub(crate) fn to_record(&self) -> Record {
        let rdata = match &self.rdata {
            RDataRef::A(a) => RData::A(*a),
            RDataRef::Aaaa(a) => RData::Aaaa(*a),
            RDataRef::Txt(t) => RData::Txt(t.clone().map(<[u8]>::to_vec).collect()),
            RDataRef::Cname(n) => RData::Cname(n.to_name()),
            RDataRef::Ns(n) => RData::Ns(n.to_name()),
            RDataRef::Ptr(n) => RData::Ptr(n.to_name()),
            RDataRef::Opt(o) => {
                RData::Opt(EdnsOption::decode_all(o).expect("options checked by the reader"))
            }
            RDataRef::Raw(d) => RData::Raw(d.to_vec()),
        };
        Record {
            name: self.name.to_name(),
            rtype: self.rtype,
            class: self.class,
            ttl: self.ttl,
            rdata,
        }
    }
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
        QType::Opt => {
            EdnsOption::check_all(rdata_buf)?;
            RDataRef::Opt(rdata_buf)
        }
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

/// A complete DNS message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Header flags and id.
    pub header: Header,
    /// Question section.
    pub questions: Vec<Question>,
    /// Answer section.
    pub answers: Vec<Record>,
    /// Authority section.
    pub authorities: Vec<Record>,
    /// Additional section (the OPT pseudo-record lives here).
    pub additionals: Vec<Record>,
}

impl Message {
    /// Build a recursive query for `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a valid domain name; use [`Name::parse`] +
    /// manual construction for untrusted input.
    pub fn query(id: u16, name: &str, qtype: QType, qclass: QClass) -> Message {
        Message {
            header: Header {
                id,
                rd: true,
                ..Header::default()
            },
            questions: vec![Question {
                name: Name::parse(name).expect("valid query name"),
                qtype,
                qclass,
            }],
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }

    /// Build the CHAOS `TXT hostname.bind` query RIPE Atlas probes send to
    /// identify an anycast site.
    pub fn chaos_hostname_bind(id: u16) -> Message {
        Message::query(id, "hostname.bind", QType::Txt, QClass::Chaos)
    }

    /// Build a response skeleton echoing this query's id and question.
    pub fn response_to(&self, rcode: Rcode) -> Message {
        Message {
            header: self.header.response(rcode),
            questions: self.questions.clone(),
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }

    /// The message's OPT pseudo-record, if any.
    pub fn opt_record(&self) -> Option<&Record> {
        self.additionals.iter().find(|r| r.rtype == QType::Opt)
    }

    fn opt_record_mut(&mut self) -> &mut Record {
        if let Some(i) = self.additionals.iter().position(|r| r.rtype == QType::Opt) {
            &mut self.additionals[i]
        } else {
            self.additionals.push(Record::opt(4096, Vec::new()));
            self.additionals.last_mut().expect("just pushed")
        }
    }

    /// Attach (or replace) an EDNS Client Subnet option, creating the OPT
    /// record if needed.
    pub fn set_client_subnet(&mut self, cs: ClientSubnet) {
        let rec = self.opt_record_mut();
        if let RData::Opt(opts) = &mut rec.rdata {
            opts.retain(|o| !matches!(o, EdnsOption::ClientSubnet(_)));
            opts.push(EdnsOption::ClientSubnet(cs));
        }
    }

    /// The Client Subnet option, if present.
    pub fn client_subnet(&self) -> Option<&ClientSubnet> {
        self.opt_record().and_then(|r| match &r.rdata {
            RData::Opt(opts) => opts.iter().find_map(|o| match o {
                EdnsOption::ClientSubnet(cs) => Some(cs),
                _ => None,
            }),
            _ => None,
        })
    }

    /// Request NSID (empty option in a query) or set the NSID payload
    /// (in a response).
    pub fn set_nsid(&mut self, payload: Vec<u8>) {
        let rec = self.opt_record_mut();
        if let RData::Opt(opts) = &mut rec.rdata {
            opts.retain(|o| !matches!(o, EdnsOption::Nsid(_)));
            opts.push(EdnsOption::Nsid(payload));
        }
    }

    /// The NSID payload, if present.
    pub fn nsid(&self) -> Option<&[u8]> {
        self.opt_record().and_then(|r| match &r.rdata {
            RData::Opt(opts) => opts.iter().find_map(|o| match o {
                EdnsOption::Nsid(d) => Some(d.as_slice()),
                _ => None,
            }),
            _ => None,
        })
    }

    /// First TXT answer string, decoded lossily — how a measurement client
    /// reads a CHAOS site identifier.
    pub fn first_txt(&self) -> Option<String> {
        self.answers.iter().find_map(|r| match &r.rdata {
            RData::Txt(strings) => strings
                .first()
                .map(|s| String::from_utf8_lossy(s).into_owned()),
            _ => None,
        })
    }

    /// All A-record addresses in the answer section.
    pub fn a_addrs(&self) -> Vec<[u8; 4]> {
        self.answers
            .iter()
            .filter_map(|r| match r.rdata {
                RData::A(a) => Some(a),
                _ => None,
            })
            .collect()
    }

    /// Encode to wire bytes with name compression.
    pub fn encode(&self) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(64);
        MessageWriter::default().message(&mut out, self)?;
        Ok(out)
    }

    /// Decode from wire bytes. Rejects trailing garbage.
    pub fn decode(buf: &[u8]) -> Result<Message> {
        let reader = MessageReader::new(buf)?;
        let mut sections: [Vec<Record>; 3] = Default::default();
        for (section, record) in reader.records() {
            sections[section].push(record.to_record());
        }
        let [answers, authorities, additionals] = sections;
        Ok(Message {
            header: reader.header(),
            questions: reader.questions().map(|q| q.to_question()).collect(),
            answers,
            authorities,
            additionals,
        })
    }
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

    /// Append a question.
    pub fn question<'l>(
        &mut self,
        out: &mut Vec<u8>,
        name: impl Iterator<Item = &'l [u8]> + Clone,
        qtype: QType,
        qclass: QClass,
    ) {
        write_compressed(name, out, self.start, &mut self.table);
        out.extend_from_slice(&qtype.code().to_be_bytes());
        out.extend_from_slice(&qclass.code().to_be_bytes());
    }

    /// Append a resource record whose RDATA `rdata` appends.
    pub fn record<'l>(
        &mut self,
        out: &mut Vec<u8>,
        name: impl Iterator<Item = &'l [u8]> + Clone,
        rtype: QType,
        class: u16,
        ttl: u32,
        rdata: impl FnOnce(&mut Vec<u8>) -> Result<()>,
    ) -> Result<()> {
        write_compressed(name, out, self.start, &mut self.table);
        out.extend_from_slice(&rtype.code().to_be_bytes());
        out.extend_from_slice(&class.to_be_bytes());
        out.extend_from_slice(&ttl.to_be_bytes());
        let len_pos = out.len();
        out.extend_from_slice(&[0, 0]);
        rdata(out)?;
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

    /// Append a TXT record of one character-string, as [`Record::txt`]
    /// builds it.
    pub fn txt<'l>(
        &mut self,
        out: &mut Vec<u8>,
        name: impl Iterator<Item = &'l [u8]> + Clone,
        class: QClass,
        ttl: u32,
        text: &[u8],
    ) -> Result<()> {
        self.record(out, name, QType::Txt, class.code(), ttl, |out| {
            write_character_string(out, text)
        })
    }

    /// Append a whole message.
    pub fn message(&mut self, out: &mut Vec<u8>, m: &Message) -> Result<()> {
        let mut counts = [0u16; 4];
        for (c, len) in counts.iter_mut().zip([
            m.questions.len(),
            m.answers.len(),
            m.authorities.len(),
            m.additionals.len(),
        ]) {
            *c = u16::try_from(len).map_err(|_| WireError::FieldOverflow {
                what: "section count",
                value: len,
                max: usize::from(u16::MAX),
            })?;
        }
        self.header(out, m.header, counts);
        for q in &m.questions {
            self.question(
                out,
                q.name.labels().iter().map(Vec::as_slice),
                q.qtype,
                q.qclass,
            );
        }
        for r in m.answers.iter().chain(&m.authorities).chain(&m.additionals) {
            let name = r.name.labels().iter().map(Vec::as_slice);
            self.record(out, name, r.rtype, r.class, r.ttl, |out| {
                r.rdata.encode(out)
            })?;
        }
        Ok(())
    }

    /// Begin the response to `query` as [`Message::response_to`] builds
    /// it — its header, then every question copied — ahead of `answers`
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
/// message, failing exactly where [`Message::decode`] fails; the
/// accessors then borrow from the input.
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

    /// The first string of the first TXT answer that has one, as
    /// [`Message::first_txt`] finds it, but as bytes.
    pub fn first_txt(&self) -> Option<&'a [u8]> {
        self.records()
            .take(usize::from(self.counts[1]))
            .find_map(|(_, r)| match r.rdata {
                RDataRef::Txt(mut strings) => strings.next(),
                _ => None,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_round_trip() {
        let q = Message::query(0xBEEF, "www.example.org", QType::A, QClass::In);
        let bytes = q.encode().unwrap();
        let back = Message::decode(&bytes).unwrap();
        assert_eq!(back, q);
        assert_eq!(back.header.id, 0xBEEF);
        assert!(back.header.rd);
        assert!(!back.header.qr);
        assert_eq!(back.questions[0].qtype, QType::A);
    }

    #[test]
    fn chaos_query_shape() {
        let q = Message::chaos_hostname_bind(7);
        assert_eq!(q.questions[0].qclass, QClass::Chaos);
        assert_eq!(q.questions[0].qtype, QType::Txt);
        assert_eq!(q.questions[0].name.to_string(), "hostname.bind");
        let bytes = q.encode().unwrap();
        assert_eq!(Message::decode(&bytes).unwrap(), q);
    }

    #[test]
    fn chaos_response_with_txt_identifier() {
        let q = Message::chaos_hostname_bind(42);
        let mut r = q.response_to(Rcode::NoError);
        r.answers.push(Record::txt(
            q.questions[0].name.clone(),
            QClass::Chaos,
            0,
            b"b4-iad2",
        ));
        let bytes = r.encode().unwrap();
        let back = Message::decode(&bytes).unwrap();
        assert!(back.header.qr);
        assert_eq!(back.header.id, 42);
        assert_eq!(back.first_txt().unwrap(), "b4-iad2");
    }

    #[test]
    fn answer_name_is_compressed_against_question() {
        let q = Message::query(1, "a.very.long.domain.example.org", QType::A, QClass::In);
        let mut r = q.response_to(Rcode::NoError);
        r.answers
            .push(Record::a(q.questions[0].name.clone(), 300, [192, 0, 2, 1]));
        let bytes = r.encode().unwrap();
        // Answer owner name should be a 2-byte pointer, so total length is
        // header(12) + question(name + 4) + answer(2 + 10 + 4).
        let name_len = q.questions[0].name.encoded_len();
        assert_eq!(bytes.len(), 12 + name_len + 4 + 2 + 10 + 4);
        let back = Message::decode(&bytes).unwrap();
        assert_eq!(back.a_addrs(), vec![[192, 0, 2, 1]]);
    }

    #[test]
    fn edns_client_subnet_round_trip() {
        let mut q = Message::query(9, "www.google.com", QType::A, QClass::In);
        q.set_client_subnet(ClientSubnet::ipv4([100, 64, 12, 0], 24));
        let bytes = q.encode().unwrap();
        let back = Message::decode(&bytes).unwrap();
        let cs = back.client_subnet().unwrap();
        assert_eq!(cs.source_prefix_len, 24);
        assert_eq!(cs.address, vec![100, 64, 12]);
        assert_eq!(back.opt_record().unwrap().class, 4096);
    }

    #[test]
    fn set_client_subnet_replaces_existing() {
        let mut q = Message::query(9, "example.org", QType::A, QClass::In);
        q.set_client_subnet(ClientSubnet::ipv4([10, 0, 0, 0], 24));
        q.set_client_subnet(ClientSubnet::ipv4([10, 1, 0, 0], 24));
        let opts = match &q.opt_record().unwrap().rdata {
            RData::Opt(o) => o.clone(),
            _ => panic!("opt record"),
        };
        assert_eq!(opts.len(), 1);
        assert_eq!(q.client_subnet().unwrap().address, vec![10, 1, 0]);
    }

    #[test]
    fn nsid_request_and_response() {
        let mut q = Message::chaos_hostname_bind(5);
        q.set_nsid(Vec::new()); // request
        let bytes = q.encode().unwrap();
        let back = Message::decode(&bytes).unwrap();
        assert_eq!(back.nsid(), Some(&[][..]));
        let mut r = back.response_to(Rcode::NoError);
        r.set_nsid(b"lax.b.root".to_vec());
        let rb = Message::decode(&r.encode().unwrap()).unwrap();
        assert_eq!(rb.nsid(), Some(&b"lax.b.root"[..]));
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let q = Message::query(1, "x.y", QType::A, QClass::In);
        let mut bytes = q.encode().unwrap();
        bytes.push(0);
        assert!(matches!(
            Message::decode(&bytes),
            Err(WireError::TrailingBytes { count: 1 })
        ));
    }

    #[test]
    fn decode_rejects_truncated_everything() {
        let q = Message::query(1, "host.example.com", QType::Txt, QClass::In);
        let bytes = q.encode().unwrap();
        // Every proper prefix must fail cleanly, never panic.
        for cut in 0..bytes.len() {
            assert!(Message::decode(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn decode_rejects_bad_a_rdlen() {
        let q = Message::query(1, "a.b", QType::A, QClass::In);
        let mut r = q.response_to(Rcode::NoError);
        r.answers.push(Record {
            name: Name::parse("a.b").unwrap(),
            rtype: QType::A,
            class: 1,
            ttl: 0,
            rdata: RData::Raw(vec![1, 2, 3]), // 3-byte A record
        });
        // Encode writes Raw bytes with rtype A; decoding must reject.
        let bytes = r.encode().unwrap();
        assert!(Message::decode(&bytes).is_err());
    }

    #[test]
    fn txt_multiple_strings_round_trip() {
        let q = Message::query(1, "t.t", QType::Txt, QClass::In);
        let mut r = q.response_to(Rcode::NoError);
        r.answers.push(Record {
            name: Name::parse("t.t").unwrap(),
            rtype: QType::Txt,
            class: 1,
            ttl: 60,
            rdata: RData::Txt(vec![b"one".to_vec(), b"two".to_vec()]),
        });
        let back = Message::decode(&r.encode().unwrap()).unwrap();
        match &back.answers[0].rdata {
            RData::Txt(s) => assert_eq!(s.len(), 2),
            other => panic!("expected TXT, got {other:?}"),
        }
    }

    #[test]
    fn txt_overlong_string_rejected_at_encode() {
        let q = Message::query(1, "t.t", QType::Txt, QClass::In);
        let mut r = q.response_to(Rcode::NoError);
        r.answers.push(Record {
            name: Name::parse("t.t").unwrap(),
            rtype: QType::Txt,
            class: 1,
            ttl: 60,
            rdata: RData::Txt(vec![vec![0u8; 256]]),
        });
        assert!(r.encode().is_err());
    }

    #[test]
    fn cname_and_ns_round_trip() {
        let q = Message::query(1, "alias.example.org", QType::Cname, QClass::In);
        let mut r = q.response_to(Rcode::NxDomain);
        r.answers.push(Record {
            name: Name::parse("alias.example.org").unwrap(),
            rtype: QType::Cname,
            class: 1,
            ttl: 60,
            rdata: RData::Cname(Name::parse("real.example.org").unwrap()),
        });
        r.authorities.push(Record {
            name: Name::parse("example.org").unwrap(),
            rtype: QType::Ns,
            class: 1,
            ttl: 60,
            rdata: RData::Ns(Name::parse("ns1.example.org").unwrap()),
        });
        let back = Message::decode(&r.encode().unwrap()).unwrap();
        assert_eq!(back.header.rcode, Rcode::NxDomain);
        assert_eq!(back.answers.len(), 1);
        assert_eq!(back.authorities.len(), 1);
    }

    #[test]
    fn unknown_rtype_round_trips_as_raw() {
        let q = Message::query(1, "x.x", QType::Unknown(999), QClass::In);
        let mut r = q.response_to(Rcode::NoError);
        r.answers.push(Record {
            name: Name::parse("x.x").unwrap(),
            rtype: QType::Unknown(999),
            class: 1,
            ttl: 1,
            rdata: RData::Raw(vec![0xDE, 0xAD]),
        });
        let back = Message::decode(&r.encode().unwrap()).unwrap();
        assert_eq!(back.answers[0].rdata, RData::Raw(vec![0xDE, 0xAD]));
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
    fn writer_answers_a_read_query_as_the_owned_response_does() {
        let mut q = Message::query(42, "Hostname.BIND", QType::Txt, QClass::Chaos);
        q.questions.push(q.questions[0].clone());
        let qbytes = q.encode().unwrap();
        let mut owned = q.response_to(Rcode::NoError);
        owned.answers.push(Record::txt(
            q.questions[0].name.clone(),
            QClass::Chaos,
            0,
            b"b4-lax",
        ));
        let expected = owned.encode().unwrap();
        // One writer, reused, with the response behind other bytes in the
        // caller's buffer: compression offsets count from the message.
        let mut w = MessageWriter::default();
        for prefix in [0usize, 28, 3] {
            let reader = MessageReader::new(&qbytes).unwrap();
            let qname = reader.questions().next().unwrap().name;
            let mut out = vec![0xEE; prefix];
            w.response_to(&mut out, &reader, Rcode::NoError, 1);
            w.txt(&mut out, qname.labels(), QClass::Chaos, 0, b"b4-lax")
                .unwrap();
            assert_eq!(&out[prefix..], expected.as_slice());
            let back = MessageReader::new(&out[prefix..]).unwrap();
            assert_eq!(back.header(), owned.header);
            assert_eq!(back.first_txt(), Some(&b"b4-lax"[..]));
        }
    }

    #[test]
    fn reader_first_txt_matches_the_owned_lookup() {
        let q = Message::query(1, "t.t", QType::Txt, QClass::In);
        let mut r = q.response_to(Rcode::NoError);
        for strings in [vec![], vec![b"two".to_vec(), b"three".to_vec()]] {
            r.answers.push(Record {
                name: Name::parse("t.t").unwrap(),
                rtype: QType::Txt,
                class: 1,
                ttl: 60,
                rdata: RData::Txt(strings),
            });
        }
        r.authorities
            .push(Record::txt(Name::root(), QClass::In, 0, b"not an answer"));
        let bytes = r.encode().unwrap();
        let reader = MessageReader::new(&bytes).unwrap();
        assert_eq!(reader.first_txt(), Some(&b"two"[..]));
        assert_eq!(r.first_txt().as_deref(), Some("two"));
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
