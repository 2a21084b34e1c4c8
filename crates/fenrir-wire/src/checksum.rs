//! The Internet checksum (RFC 1071) used by ICMPv4, IPv4 and UDP.
//!
//! One's-complement sum of 16-bit words, with odd trailing bytes padded by a
//! zero octet, then complemented.

/// Compute the RFC 1071 Internet checksum over `data`.
///
/// The checksum field itself must be zeroed (or excluded) by the caller
/// before computing; verification of a received packet computes the sum over
/// the packet as-is and checks for zero (see [`verify`]).
pub fn internet_checksum(data: &[u8]) -> u16 {
    checksum_of(&[data])
}

/// The checksum of the concatenation of `parts`, summed where they lie:
/// a pseudo-header beside its datagram, or the bytes on either side of a
/// checksum field (which then counts as zero). Every part but the last
/// must have an even length, so each starts on a word boundary.
pub fn checksum_of(parts: &[&[u8]]) -> u16 {
    let mut sum: u64 = 0;
    for (i, part) in parts.iter().enumerate() {
        debug_assert!(
            part.len() % 2 == 0 || i + 1 == parts.len(),
            "only the last part may have an odd length"
        );
        let mut chunks = part.chunks_exact(2);
        for c in &mut chunks {
            sum += u64::from(u16::from_be_bytes([c[0], c[1]]));
        }
        if let [last] = chunks.remainder() {
            sum += u64::from(u16::from_be_bytes([*last, 0]));
        }
    }
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

/// Verify a packet whose checksum field is in place: the one's-complement
/// sum over the whole packet must be zero (i.e. `internet_checksum` yields
/// 0).
pub fn verify(data: &[u8]) -> bool {
    internet_checksum(data) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_example() {
        // The classic worked example from RFC 1071 §3:
        // words 0x0001 0xf203 0xf4f5 0xf6f7 -> sum 0x2ddf0 -> fold 0xddf2
        // -> checksum !0xddf2 = 0x220d.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&data), 0x220d);
    }

    #[test]
    fn empty_checksum_is_all_ones() {
        assert_eq!(internet_checksum(&[]), 0xFFFF);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        assert_eq!(internet_checksum(&[0xFF]), internet_checksum(&[0xFF, 0x00]));
    }

    #[test]
    fn verify_round_trip() {
        let mut pkt = vec![0x08, 0x00, 0x00, 0x00, 0x12, 0x34, 0x00, 0x01, 0xAA];
        let ck = internet_checksum(&pkt);
        pkt[2..4].copy_from_slice(&ck.to_be_bytes());
        assert!(verify(&pkt));
        pkt[8] ^= 0xFF;
        assert!(!verify(&pkt));
    }

    #[test]
    fn parts_sum_as_their_concatenation() {
        let data = [0x45u8, 0x00, 0x12, 0x34, 0xAB, 0xCD, 0x01];
        assert_eq!(
            checksum_of(&[&data[..2], &data[2..6], &data[6..]]),
            internet_checksum(&data)
        );
        // Leaving out a field sums as if it were zeroed.
        let mut zeroed = data;
        zeroed[2..4].fill(0);
        assert_eq!(
            checksum_of(&[&data[..2], &data[4..]]),
            internet_checksum(&zeroed)
        );
    }

    #[test]
    fn all_zero_packet_verifies_with_ffff() {
        // A packet of zeros with checksum 0xFFFF sums to 0xFFFF -> !0xFFFF == 0.
        let pkt = [0x00, 0x00, 0xFF, 0xFF];
        assert!(verify(&pkt));
    }
}
