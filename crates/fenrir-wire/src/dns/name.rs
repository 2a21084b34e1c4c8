//! DNS domain names: checked dotted-string parsing, wire writing with
//! RFC 1035 message compression, and in-place reading hardened against
//! malicious pointers.
//!
//! One compressor, [`write_compressed`], writes every name against a
//! [`NameTable`]; one parser, [`WireName::parse`], reads every name in
//! place.

use crate::error::{Result, WireError};
use std::fmt;

/// Maximum octets of a single label.
pub const MAX_LABEL: usize = 63;
/// Maximum octets of an encoded name (RFC 1035 §2.3.4).
pub const MAX_NAME: usize = 255;

/// A domain name checked once, from a configured dotted string, so that
/// writing it cannot fail: its labels (without the root's empty label).
#[derive(Debug)]
pub struct Name {
    labels: Vec<Vec<u8>>,
}

impl Name {
    /// Parse a dotted name like `"hostname.bind"`. A trailing dot is
    /// accepted and ignored; the empty string or `"."` is the root.
    ///
    /// Errors on empty labels (`"a..b"`), labels over 63 octets, or names
    /// that would exceed 255 octets encoded.
    pub fn parse(s: &str) -> Result<Self> {
        let s = s.strip_suffix('.').unwrap_or(s);
        let mut labels = Vec::new();
        if s.is_empty() {
            return Ok(Name { labels });
        }
        let mut encoded = 1;
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
            encoded += part.len() + 1;
            labels.push(part.as_bytes().to_vec());
        }
        if encoded > MAX_NAME {
            return Err(WireError::FieldOverflow {
                what: "name",
                value: encoded,
                max: MAX_NAME,
            });
        }
        Ok(Name { labels })
    }

    /// The labels, in order, as a writer takes them.
    pub fn labels(&self) -> impl Iterator<Item = &[u8]> + Clone {
        self.labels.iter().map(Vec::as_slice)
    }
}

/// Appends the lowercased wire form of `labels` (the compression key).
fn push_key<'l>(key: &mut Vec<u8>, labels: impl Iterator<Item = &'l [u8]>) {
    for l in labels {
        key.push(l.len() as u8);
        key.extend(l.iter().map(u8::to_ascii_lowercase));
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

    /// The message offset `suffix` was first written at; when it is new,
    /// records it at `here` if a pointer can reach that offset.
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
    table: &mut NameTable,
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
}

impl fmt::Debug for WireName<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("WireName(")?;
        for (i, l) in self.labels().enumerate() {
            if i > 0 {
                f.write_str(".")?;
            }
            f.write_str(&String::from_utf8_lossy(l))?;
        }
        f.write_str(")")
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

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(n: &Name) -> Vec<&[u8]> {
        n.labels().collect()
    }

    /// `names` written one after another against one table.
    fn write_all(names: &[&str]) -> Vec<u8> {
        let (mut out, mut table) = (Vec::new(), NameTable::default());
        for n in names {
            write_compressed(Name::parse(n).unwrap().labels(), &mut out, 0, &mut table);
        }
        out
    }

    /// The dotted form of the name at `*pos`, read in place.
    fn read(buf: &[u8], pos: &mut usize) -> String {
        let labels: Vec<String> = WireName::parse(buf, pos)
            .unwrap()
            .labels()
            .map(|l| String::from_utf8_lossy(l).into_owned())
            .collect();
        labels.join(".")
    }

    #[test]
    fn parse_splits_labels() {
        let n = Name::parse("hostname.bind").unwrap();
        assert_eq!(labels(&n), [&b"hostname"[..], b"bind"]);
        let dotted = Name::parse("example.org.").unwrap();
        assert_eq!(labels(&dotted), [&b"example"[..], b"org"]);
        assert!(labels(&Name::parse("").unwrap()).is_empty());
        assert!(labels(&Name::parse(".").unwrap()).is_empty());
    }

    #[test]
    fn parse_rejects_bad_labels() {
        assert_eq!(
            Name::parse("a..b").unwrap_err(),
            WireError::InvalidInput("empty label")
        );
        assert!(Name::parse(".a").is_err());
        assert_eq!(
            Name::parse(&"x".repeat(64)).unwrap_err(),
            WireError::FieldOverflow {
                what: "label",
                value: 64,
                max: MAX_LABEL,
            }
        );
        assert!(Name::parse(&"x".repeat(63)).is_ok());
    }

    #[test]
    fn parse_rejects_overlong_names() {
        // 64 labels of 3 octets = 64*4+1 = 257 > 255.
        let name = vec!["abc"; 64].join(".");
        assert!(matches!(
            Name::parse(&name),
            Err(WireError::FieldOverflow { value: 257, .. })
        ));
    }

    #[test]
    fn uncompressed_name_is_read_back() {
        let buf = write_all(&["www.example.org"]);
        assert_eq!(buf.len(), 17);
        let mut pos = 0;
        assert_eq!(read(&buf, &mut pos), "www.example.org");
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn compression_emits_pointer_for_shared_suffix() {
        let first_len = write_all(&["www.example.org"]).len();
        let buf = write_all(&["www.example.org", "mail.example.org"]);
        // Second name: "mail" label (5 bytes) + 2-byte pointer.
        assert_eq!(buf.len(), first_len + 5 + 2);
        let mut pos = 0;
        assert_eq!(read(&buf, &mut pos), "www.example.org");
        assert_eq!(read(&buf, &mut pos), "mail.example.org");
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn compression_of_identical_name_is_single_pointer() {
        let first_len = write_all(&["b.root-servers.net"]).len();
        let buf = write_all(&["b.root-servers.net", "b.root-servers.net"]);
        assert_eq!(buf.len(), first_len + 2);
        let mut pos = first_len;
        assert_eq!(read(&buf, &mut pos), "b.root-servers.net");
    }

    #[test]
    fn compression_is_case_insensitive() {
        let first_len = write_all(&["example.ORG"]).len();
        let buf = write_all(&["example.ORG", "EXAMPLE.org"]);
        assert_eq!(buf.len(), first_len + 2);
    }

    #[test]
    fn a_cleared_table_compresses_as_a_fresh_one() {
        let names = [
            "b.root-servers.net",
            "a.ROOT-servers.net",
            "net",
            "x.y",
            "b.root-servers.net",
        ];
        let fresh = write_all(&names);
        let mut reused = NameTable::default();
        for _ in 0..2 {
            reused.clear();
            let mut out = Vec::new();
            for n in names {
                write_compressed(Name::parse(n).unwrap().labels(), &mut out, 0, &mut reused);
            }
            assert_eq!(out, fresh);
        }
    }

    #[test]
    fn decode_rejects_forward_pointer() {
        // A pointer must point strictly backwards: a self-pointer fails.
        let buf = [0xC0, 0x00];
        let mut pos = 0;
        assert_eq!(
            WireName::parse(&buf, &mut pos).unwrap_err(),
            WireError::BadPointer { at: 0 }
        );
    }

    #[test]
    fn decode_rejects_pointer_loops() {
        // Offset 0: label "a", then a pointer back to 0: a loop, cut at
        // its 127th hop (254 octets of labels, within `MAX_NAME`).
        let buf = [0x01, b'a', 0xC0, 0x00];
        let mut pos = 0;
        assert_eq!(
            WireName::parse(&buf, &mut pos).unwrap_err(),
            WireError::BadPointer { at: 2 }
        );
    }

    #[test]
    fn decode_rejects_names_over_max_name() {
        // Four 63-octet labels take 256 octets, one more than allowed.
        let mut buf = Vec::new();
        for _ in 0..4 {
            buf.push(63);
            buf.extend_from_slice(&[b'x'; 63]);
        }
        buf.push(0);
        let mut pos = 0;
        assert_eq!(
            WireName::parse(&buf, &mut pos).unwrap_err(),
            WireError::FieldOverflow {
                what: "name",
                value: 256,
                max: MAX_NAME,
            }
        );
        let mut pos = 64;
        assert!(WireName::parse(&buf, &mut pos).is_ok());
    }

    #[test]
    fn decode_rejects_more_than_126_hops() {
        // A chain of pointers, each to the one before it, ending at the
        // root: 126 hops read, 127 refused.
        for (hops, ok) in [(126usize, true), (127, false)] {
            let mut buf = vec![0u8];
            for i in 0..hops {
                buf.extend_from_slice(
                    &(0xC000u16 | (2 * i as u16).saturating_sub(1)).to_be_bytes(),
                );
            }
            let mut pos = buf.len() - 2;
            let got = WireName::parse(&buf, &mut pos);
            assert_eq!(got.is_ok(), ok, "{hops} hops: {got:?}");
        }
    }

    #[test]
    fn decode_rejects_truncation() {
        let buf = [0x05, b'a', b'b'];
        let mut pos = 0;
        assert!(matches!(
            WireName::parse(&buf, &mut pos),
            Err(WireError::Truncated { .. })
        ));
        let mut pos = 0;
        assert!(WireName::parse(&[], &mut pos).is_err());
        let mut pos = 0;
        assert!(WireName::parse(&[0xC0], &mut pos).is_err());
    }

    #[test]
    fn decode_rejects_reserved_label_types() {
        let buf = [0x40, 0x00];
        let mut pos = 0;
        assert!(matches!(
            WireName::parse(&buf, &mut pos),
            Err(WireError::UnknownValue { .. })
        ));
    }

    #[test]
    fn wire_name_reads_labels_through_pointers() {
        let buf = write_all(&["www.Example.org", "mail.example.ORG"]);
        let mut pos = 17;
        let n = WireName::parse(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        let labels: Vec<&[u8]> = n.labels().collect();
        assert_eq!(labels, [&b"mail"[..], b"Example", b"org"]);
        assert_eq!(format!("{n:?}"), "WireName(mail.Example.org)");
    }
}
