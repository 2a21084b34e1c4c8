//! DNS domain names: dotted-string parsing, wire encoding with RFC 1035
//! message compression, and decompressing decoding hardened against
//! malicious pointers.
//!
//! One compressor writes every name, owned or borrowed, against any
//! [`SuffixTable`]; one parser, [`WireName::parse`], reads every name in
//! place, and [`Name::decode`] copies what it reads.

use crate::error::{Result, WireError};
use std::collections::HashMap;
use std::fmt;

/// Maximum octets of a single label.
pub const MAX_LABEL: usize = 63;
/// Maximum octets of an encoded name (RFC 1035 §2.3.4).
pub const MAX_NAME: usize = 255;

/// A domain name as a sequence of labels (without the root's empty label).
///
/// Comparison and hashing are case-insensitive per RFC 1035 §2.3.3 (ASCII
/// only), but the original spelling is preserved for display.
#[derive(Debug, Clone)]
pub struct Name {
    labels: Vec<Vec<u8>>,
}

impl Name {
    /// The root name (zero labels).
    pub fn root() -> Self {
        Name { labels: Vec::new() }
    }

    /// Parse a dotted name like `"hostname.bind"`. A trailing dot is
    /// accepted and ignored; the empty string or `"."` is the root.
    ///
    /// Errors on empty labels (`"a..b"`), labels over 63 octets, or names
    /// that would exceed 255 octets encoded.
    pub fn parse(s: &str) -> Result<Self> {
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() {
            return Ok(Name::root());
        }
        let mut labels = Vec::new();
        for part in s.split('.') {
            if part.is_empty() {
                return Err(WireError::InvalidInput("empty label"));
            }
            if part.len() > MAX_LABEL {
                return Err(WireError::FieldOverflow {
                    what: "label",
                    value: part.len(),
                    max: MAX_LABEL,
                });
            }
            labels.push(part.as_bytes().to_vec());
        }
        let name = Name { labels };
        if name.encoded_len() > MAX_NAME {
            return Err(WireError::FieldOverflow {
                what: "name",
                value: name.encoded_len(),
                max: MAX_NAME,
            });
        }
        Ok(name)
    }

    /// The labels of this name.
    pub fn labels(&self) -> &[Vec<u8>] {
        &self.labels
    }

    /// Number of labels.
    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    /// Length of the uncompressed wire encoding (labels + length octets +
    /// terminating zero).
    pub fn encoded_len(&self) -> usize {
        self.labels.iter().map(|l| l.len() + 1).sum::<usize>() + 1
    }

    /// Append the uncompressed encoding to `out`.
    pub fn encode_uncompressed(&self, out: &mut Vec<u8>) {
        for l in &self.labels {
            out.push(l.len() as u8);
            out.extend_from_slice(l);
        }
        out.push(0);
    }

    /// Append the encoding to `out`, compressing against `table` — a map
    /// from (lowercased) name suffixes to the offset where they were first
    /// written. New suffixes at pointer-representable offsets are added to
    /// the table.
    pub fn encode_compressed(&self, out: &mut Vec<u8>, table: &mut impl SuffixTable) {
        write_compressed(self.labels.iter().map(Vec::as_slice), out, 0, table);
    }

    /// Decode a (possibly compressed) name from `buf` starting at `*pos`;
    /// advances `*pos` past the name's storage (not past pointer targets).
    /// Hardened as [`WireName::parse`] is.
    pub fn decode(buf: &[u8], pos: &mut usize) -> Result<Self> {
        WireName::parse(buf, pos).map(|n| n.to_name())
    }
}

/// Where a name compressor looks up the suffixes a message already holds.
pub trait SuffixTable {
    /// The message offset `suffix` was first written at; when it is new,
    /// records it at `here` if a pointer can reach that offset.
    fn lookup_or_insert<'l>(
        &mut self,
        suffix: impl Iterator<Item = &'l [u8]>,
        here: usize,
    ) -> Option<u16>;
}

/// Appends the lowercased wire form of `labels` (the compression key).
fn push_key<'l>(key: &mut Vec<u8>, labels: impl Iterator<Item = &'l [u8]>) {
    for l in labels {
        key.push(l.len() as u8);
        key.extend(l.iter().map(u8::to_ascii_lowercase));
    }
}

impl SuffixTable for HashMap<Vec<u8>, u16> {
    fn lookup_or_insert<'l>(
        &mut self,
        suffix: impl Iterator<Item = &'l [u8]>,
        here: usize,
    ) -> Option<u16> {
        let mut key = Vec::new();
        push_key(&mut key, suffix);
        if let Some(&off) = self.get(&key) {
            return Some(off);
        }
        if here <= 0x3FFF {
            self.insert(key, here as u16);
        }
        None
    }
}

/// A compression table that keeps its storage across messages: keys live
/// in one arena and are found by a linear scan over the handful of
/// suffixes a message holds, so once warm it allocates nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct NameTable {
    keys: Vec<u8>,
    /// `(key start, key end, offset)` per recorded suffix.
    entries: Vec<(usize, usize, u16)>,
}

impl NameTable {
    /// Forget every suffix, keeping the storage.
    pub(crate) fn clear(&mut self) {
        self.keys.clear();
        self.entries.clear();
    }
}

impl SuffixTable for NameTable {
    fn lookup_or_insert<'l>(
        &mut self,
        suffix: impl Iterator<Item = &'l [u8]>,
        here: usize,
    ) -> Option<u16> {
        let start = self.keys.len();
        push_key(&mut self.keys, suffix);
        let (keys, key) = self.keys.split_at(start);
        if let Some(&(_, _, off)) = self.entries.iter().find(|e| &keys[e.0..e.1] == key) {
            self.keys.truncate(start);
            return Some(off);
        }
        if here <= 0x3FFF {
            self.entries.push((start, self.keys.len(), here as u16));
        } else {
            self.keys.truncate(start);
        }
        None
    }
}

/// Append the name made of `labels` to `out`, whose message starts at
/// `base`: each label is written until a suffix `table` already holds,
/// which becomes a pointer.
pub(crate) fn write_compressed<'l, I>(
    labels: I,
    out: &mut Vec<u8>,
    base: usize,
    table: &mut impl SuffixTable,
) where
    I: Iterator<Item = &'l [u8]> + Clone,
{
    let mut rest = labels;
    loop {
        let suffix = rest.clone();
        let Some(label) = rest.next() else { break };
        if let Some(off) = table.lookup_or_insert(suffix, out.len() - base) {
            out.extend_from_slice(&(0xC000u16 | off).to_be_bytes());
            return;
        }
        out.push(label.len() as u8);
        out.extend_from_slice(label);
    }
    out.push(0);
}

/// A name as it lies in a message, checked by [`WireName::parse`]: its
/// labels are read in place, following compression pointers.
#[derive(Clone, Copy)]
pub struct WireName<'a> {
    msg: &'a [u8],
    at: usize,
}

impl<'a> WireName<'a> {
    /// Read a (possibly compressed) name from `msg` starting at `*pos`;
    /// advances `*pos` past the name's storage (not past pointer targets).
    ///
    /// Hardened: pointers must point strictly backwards, at most
    /// `MAX_NAME` total octets of labels are accepted, and at most 126
    /// pointer hops are followed — so hostile inputs cannot loop.
    pub fn parse(msg: &'a [u8], pos: &mut usize) -> Result<Self> {
        let name = WireName { msg, at: *pos };
        let mut cursor = *pos;
        let mut jumped = false;
        let mut hops = 0usize;
        let mut total = 0usize;
        loop {
            let len = *msg.get(cursor).ok_or(WireError::Truncated {
                what: "name",
                needed: 1,
            })?;
            match len {
                0 => {
                    if !jumped {
                        *pos = cursor + 1;
                    }
                    return Ok(name);
                }
                l if l & 0xC0 == 0xC0 => {
                    let second = *msg.get(cursor + 1).ok_or(WireError::Truncated {
                        what: "name pointer",
                        needed: 1,
                    })?;
                    let target = (usize::from(l & 0x3F) << 8) | usize::from(second);
                    if target >= cursor {
                        return Err(WireError::BadPointer { at: cursor });
                    }
                    hops += 1;
                    if hops > 126 {
                        return Err(WireError::BadPointer { at: cursor });
                    }
                    if !jumped {
                        *pos = cursor + 2;
                        jumped = true;
                    }
                    cursor = target;
                }
                l if l & 0xC0 != 0 => {
                    // 0x40/0x80 prefixes are reserved (EDNS0 extended labels
                    // never shipped).
                    return Err(WireError::UnknownValue {
                        what: "label type",
                        value: u32::from(l),
                    });
                }
                l => {
                    let end = cursor + 1 + usize::from(l);
                    if end > msg.len() {
                        return Err(WireError::Truncated {
                            what: "label",
                            needed: end - msg.len(),
                        });
                    }
                    total += usize::from(l) + 1;
                    if total > MAX_NAME {
                        return Err(WireError::FieldOverflow {
                            what: "name",
                            value: total,
                            max: MAX_NAME,
                        });
                    }
                    cursor = end;
                }
            }
        }
    }

    /// The labels, in order, borrowed from the message.
    pub fn labels(&self) -> Labels<'a> {
        Labels {
            msg: self.msg,
            at: self.at,
        }
    }

    /// An owned copy.
    pub(crate) fn to_name(self) -> Name {
        Name {
            labels: self.labels().map(<[u8]>::to_vec).collect(),
        }
    }
}

impl fmt::Debug for WireName<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WireName({})", self.to_name())
    }
}

/// The labels of a [`WireName`], read in place.
#[derive(Debug, Clone)]
pub struct Labels<'a> {
    msg: &'a [u8],
    at: usize,
}

impl<'a> Iterator for Labels<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        // The name was checked by `WireName::parse`, so every length and
        // pointer here lies inside the message.
        loop {
            let len = self.msg[self.at];
            if len & 0xC0 == 0xC0 {
                self.at = (usize::from(len & 0x3F) << 8) | usize::from(self.msg[self.at + 1]);
                continue;
            }
            if len == 0 {
                return None;
            }
            let start = self.at + 1;
            self.at = start + usize::from(len);
            return Some(&self.msg[start..self.at]);
        }
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.labels.len() == other.labels.len()
            && self
                .labels
                .iter()
                .zip(&other.labels)
                .all(|(a, b)| a.eq_ignore_ascii_case(b))
    }
}

impl Eq for Name {}

impl std::hash::Hash for Name {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        for l in &self.labels {
            for b in l {
                state.write_u8(b.to_ascii_lowercase());
            }
            state.write_u8(0xFF); // label separator
        }
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.labels.is_empty() {
            return f.write_str(".");
        }
        for (i, l) in self.labels.iter().enumerate() {
            if i > 0 {
                f.write_str(".")?;
            }
            f.write_str(&String::from_utf8_lossy(l))?;
        }
        Ok(())
    }
}

impl std::str::FromStr for Name {
    type Err = WireError;
    fn from_str(s: &str) -> Result<Self> {
        Name::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display() {
        let n = Name::parse("hostname.bind").unwrap();
        assert_eq!(n.label_count(), 2);
        assert_eq!(n.to_string(), "hostname.bind");
        assert_eq!(
            Name::parse("example.org.").unwrap().to_string(),
            "example.org"
        );
        assert_eq!(Name::root().to_string(), ".");
        assert_eq!(Name::parse("").unwrap(), Name::root());
        assert_eq!(Name::parse(".").unwrap(), Name::root());
    }

    #[test]
    fn parse_rejects_bad_labels() {
        assert!(Name::parse("a..b").is_err());
        let long = "x".repeat(64);
        assert!(Name::parse(&long).is_err());
        assert!(Name::parse(&"x".repeat(63)).is_ok());
    }

    #[test]
    fn parse_rejects_overlong_names() {
        // 64 labels of 3 octets = 64*4+1 = 257 > 255.
        let name = vec!["abc"; 64].join(".");
        assert!(Name::parse(&name).is_err());
    }

    #[test]
    fn equality_is_case_insensitive() {
        let a = Name::parse("Example.ORG").unwrap();
        let b = Name::parse("example.org").unwrap();
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |n: &Name| {
            let mut s = DefaultHasher::new();
            n.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&a), h(&b));
    }

    #[test]
    fn uncompressed_round_trip() {
        let n = Name::parse("www.example.org").unwrap();
        let mut buf = Vec::new();
        n.encode_uncompressed(&mut buf);
        assert_eq!(buf.len(), n.encoded_len());
        let mut pos = 0;
        let back = Name::decode(&buf, &mut pos).unwrap();
        assert_eq!(back, n);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn compression_emits_pointer_for_shared_suffix() {
        let mut buf = Vec::new();
        let mut table = HashMap::new();
        Name::parse("www.example.org")
            .unwrap()
            .encode_compressed(&mut buf, &mut table);
        let first_len = buf.len();
        Name::parse("mail.example.org")
            .unwrap()
            .encode_compressed(&mut buf, &mut table);
        // Second name: "mail" label (5 bytes) + 2-byte pointer.
        assert_eq!(buf.len(), first_len + 5 + 2);
        // Decode both back.
        let mut pos = 0;
        assert_eq!(
            Name::decode(&buf, &mut pos).unwrap().to_string(),
            "www.example.org"
        );
        assert_eq!(
            Name::decode(&buf, &mut pos).unwrap().to_string(),
            "mail.example.org"
        );
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn compression_of_identical_name_is_single_pointer() {
        let mut buf = Vec::new();
        let mut table = HashMap::new();
        let n = Name::parse("b.root-servers.net").unwrap();
        n.encode_compressed(&mut buf, &mut table);
        let first_len = buf.len();
        n.encode_compressed(&mut buf, &mut table);
        assert_eq!(buf.len(), first_len + 2);
        let mut pos = first_len;
        assert_eq!(Name::decode(&buf, &mut pos).unwrap(), n);
    }

    #[test]
    fn compression_is_case_insensitive() {
        let mut buf = Vec::new();
        let mut table = HashMap::new();
        Name::parse("example.ORG")
            .unwrap()
            .encode_compressed(&mut buf, &mut table);
        let first_len = buf.len();
        Name::parse("EXAMPLE.org")
            .unwrap()
            .encode_compressed(&mut buf, &mut table);
        assert_eq!(buf.len(), first_len + 2);
    }

    #[test]
    fn decode_rejects_forward_pointer() {
        // Pointer at offset 0 pointing to offset 4 (>= 0's cursor is fine to
        // test with a self-pointer: target must be < cursor).
        let buf = [0xC0, 0x00];
        let mut pos = 0;
        assert!(matches!(
            Name::decode(&buf, &mut pos),
            Err(WireError::BadPointer { .. })
        ));
    }

    #[test]
    fn decode_rejects_pointer_loops() {
        // Name at 2 points to 0; name at 0 is a label then pointer to 2:
        // loop 0 -> 2 -> 0 ... Actually build mutual pointers.
        // offset 0: pointer to 2 is forward -> invalid already. Build:
        // offset 0: label "a", then pointer to 0 (backwards!) = loop.
        let buf = [0x01, b'a', 0xC0, 0x00];
        let mut pos = 0;
        let err = Name::decode(&buf, &mut pos).unwrap_err();
        // Either detected as overlong (labels accumulate) or too many hops.
        assert!(matches!(
            err,
            WireError::FieldOverflow { .. } | WireError::BadPointer { .. }
        ));
    }

    #[test]
    fn decode_rejects_truncation() {
        let buf = [0x05, b'a', b'b'];
        let mut pos = 0;
        assert!(matches!(
            Name::decode(&buf, &mut pos),
            Err(WireError::Truncated { .. })
        ));
        let empty: [u8; 0] = [];
        let mut pos = 0;
        assert!(Name::decode(&empty, &mut pos).is_err());
    }

    #[test]
    fn decode_rejects_reserved_label_types() {
        let buf = [0x40, 0x00];
        let mut pos = 0;
        assert!(matches!(
            Name::decode(&buf, &mut pos),
            Err(WireError::UnknownValue { .. })
        ));
    }

    #[test]
    fn wire_name_reads_labels_through_pointers() {
        let mut buf = Vec::new();
        let mut table = HashMap::new();
        Name::parse("www.Example.org")
            .unwrap()
            .encode_compressed(&mut buf, &mut table);
        let second = buf.len();
        Name::parse("mail.example.ORG")
            .unwrap()
            .encode_compressed(&mut buf, &mut table);
        let mut pos = second;
        let n = WireName::parse(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        let labels: Vec<&[u8]> = n.labels().collect();
        assert_eq!(labels, [&b"mail"[..], b"Example", b"org"]);
        assert_eq!(n.to_name().to_string(), "mail.Example.org");
    }

    #[test]
    fn name_table_compresses_as_a_hash_map_does() {
        let names = [
            "b.root-servers.net",
            "a.ROOT-servers.net",
            "net",
            "x.y",
            "b.root-servers.net",
        ];
        let mut reused = NameTable::default();
        for _ in 0..2 {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            let mut map = HashMap::new();
            reused.clear();
            for n in names {
                let n = Name::parse(n).unwrap();
                n.encode_compressed(&mut a, &mut map);
                n.encode_compressed(&mut b, &mut reused);
            }
            assert_eq!(a, b);
        }
    }

    #[test]
    fn from_str_works() {
        let n: Name = "a.b.c".parse().unwrap();
        assert_eq!(n.label_count(), 3);
    }
}
