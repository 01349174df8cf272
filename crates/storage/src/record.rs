//! WAL record encoding: length-prefixed, CRC32-checked payloads.
//!
//! A record on disk is `paxi_codec::encode_frame(crc32(payload) ++ payload)`:
//! a 4-byte little-endian length prefix (the framing the socket transports
//! already use), followed by a 4-byte little-endian CRC32 of the payload,
//! followed by the payload bytes. The checksum is what lets recovery tell a
//! torn tail write (the machine died mid-append) from a record that was
//! fully written and then corrupted in place.
//!
//! A zero length prefix ends the log. No writer produces one (a body is at
//! least the 4-byte CRC), and it is what the never-written tail of a
//! preallocated segment reads as: the scan stops there, clean if every byte
//! after it is zero too.

use paxi_codec::MAX_FRAME;

/// CRC32 (IEEE 802.3 polynomial, reflected), table-driven.
///
/// Hand-rolled because no checksum crate is in the offline dependency set;
/// the constants match the ubiquitous zlib/PNG/Ethernet CRC so the values
/// are externally checkable.
pub fn crc32(data: &[u8]) -> u32 {
    const TABLE: [u32; 256] = crc32_table();
    let mut crc: u32 = 0xFFFF_FFFF;
    for &b in data {
        let idx = ((crc ^ b as u32) & 0xFF) as usize;
        crc = (crc >> 8) ^ TABLE[idx];
    }
    !crc
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// Appends one WAL record to `buf`: length prefix, CRC32 and payload,
/// written straight into it with no intermediate buffer.
pub fn put_record(buf: &mut Vec<u8>, payload: &[u8]) {
    buf.reserve(8 + payload.len());
    buf.extend_from_slice(&((4 + payload.len()) as u32).to_le_bytes());
    buf.extend_from_slice(&crc32(payload).to_le_bytes());
    buf.extend_from_slice(payload);
}

/// Encodes one WAL record: length prefix + CRC32 + payload.
pub fn encode_record(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_record(&mut buf, payload);
    buf
}

fn zeros(bytes: &[u8]) -> bool {
    bytes.iter().all(|&b| b == 0)
}

/// What a recovery scan found at the tail of a log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Damage {
    /// Every record intact; the log ends exactly at a record boundary, or
    /// at a zero length prefix followed by nothing but zeros.
    #[default]
    Clean,
    /// The final record is incomplete — a write was interrupted mid-append:
    /// the log ends inside it, or it fails its CRC and is followed only by
    /// zeros from its last byte on, or non-zero bytes follow a zero length
    /// prefix. The partial suffix is discarded.
    TornTail,
    /// A record failed its CRC check and a byte from its last one on is
    /// non-zero (or it carried an impossible length). The record and
    /// everything after it are discarded: once one record is bad the
    /// writer's ordering guarantee says nothing about what follows.
    Corrupt,
}

/// Result of scanning a raw log buffer.
#[derive(Debug, Default)]
pub struct ScanOutcome {
    /// Payloads of every intact record, in append order.
    pub records: Vec<Vec<u8>>,
    /// Whether (and how) the tail was damaged.
    pub damage: Damage,
    /// Byte length of the valid prefix — truncate the log here to repair it.
    pub valid_len: usize,
}

/// Scans `buf` for consecutive records, stopping at the first torn or
/// corrupt one, or at a zero length prefix (the never-written tail). Never
/// panics, whatever the input bytes.
pub fn scan_records(buf: &[u8]) -> ScanOutcome {
    let mut out = ScanOutcome::default();
    let mut pos = 0usize;
    while pos < buf.len() {
        let rest = &buf[pos..];
        if rest.len() < 4 || rest[..4] == [0; 4] {
            // The never-written tail of a preallocated segment is all zeros;
            // anything else here is the start of a record that did not land.
            if !zeros(rest) {
                out.damage = Damage::TornTail;
            }
            break;
        }
        let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
        if !(4..=MAX_FRAME).contains(&len) {
            // A record body always starts with a 4-byte CRC; anything
            // shorter (or absurdly long) is not a length a writer produced.
            out.damage = Damage::Corrupt;
            break;
        }
        if rest.len() < 4 + len {
            out.damage = Damage::TornTail;
            break;
        }
        let body = &rest[4..4 + len];
        let want = u32::from_le_bytes(body[..4].try_into().unwrap());
        let payload = &body[4..];
        if crc32(payload) != want {
            // A write that stopped short inside a preallocated segment
            // leaves the record's end, and all after it, unwritten.
            out.damage = if zeros(&rest[3 + len..]) {
                Damage::TornTail
            } else {
                Damage::Corrupt
            };
            break;
        }
        out.records.push(payload.to_vec());
        pos += 4 + len;
        out.valid_len = pos;
    }
    out
}

/// Byte spans `(start, end)` of every intact record in `buf`, in order.
/// Used by fault injection to aim a torn write or bit flip at a record.
pub fn record_spans(buf: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut pos = 0usize;
    while pos + 4 <= buf.len() {
        let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
        if !(4..=MAX_FRAME).contains(&len) || pos + 4 + len > buf.len() {
            break;
        }
        spans.push((pos, pos + 4 + len));
        pos += 4 + len;
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for the IEEE CRC32.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn put_record_writes_the_framed_crc_and_payload() {
        // The check value's record, byte by byte.
        let mut buf = b"prior".to_vec();
        put_record(&mut buf, b"123456789");
        let mut want = b"prior".to_vec();
        want.extend_from_slice(&[13, 0, 0, 0, 0x26, 0x39, 0xF4, 0xCB]);
        want.extend_from_slice(b"123456789");
        assert_eq!(buf, want);
        for payload in [&b""[..], b"alpha", &[0u8; 300], &[0xA5; 70_000]] {
            let mut body = crc32(payload).to_le_bytes().to_vec();
            body.extend_from_slice(payload);
            let mut buf = Vec::new();
            put_record(&mut buf, payload);
            assert_eq!(buf, paxi_codec::encode_frame(&body));
            assert_eq!(encode_record(payload), buf);
        }
    }

    #[test]
    fn roundtrip_multiple_records() {
        let mut log = Vec::new();
        log.extend_from_slice(&encode_record(b"alpha"));
        log.extend_from_slice(&encode_record(b""));
        log.extend_from_slice(&encode_record(&[0xFFu8; 300]));
        let out = scan_records(&log);
        assert_eq!(out.damage, Damage::Clean);
        assert_eq!(out.valid_len, log.len());
        assert_eq!(out.records.len(), 3);
        assert_eq!(out.records[0], b"alpha");
        assert_eq!(out.records[1], b"");
        assert_eq!(out.records[2], vec![0xFFu8; 300]);
    }

    #[test]
    fn torn_tail_is_detected_and_prefix_survives() {
        let mut log = encode_record(b"keep me");
        let keep = log.len();
        let torn = encode_record(b"half written record");
        log.extend_from_slice(&torn[..torn.len() / 2]);
        let out = scan_records(&log);
        assert_eq!(out.damage, Damage::TornTail);
        assert_eq!(out.valid_len, keep);
        assert_eq!(out.records, vec![b"keep me".to_vec()]);
    }

    #[test]
    fn corrupt_record_is_detected_and_stops_the_scan() {
        let mut log = encode_record(b"good");
        let keep = log.len();
        log.extend_from_slice(&encode_record(b"about to rot"));
        log.extend_from_slice(&encode_record(b"unreachable"));
        // Flip a payload byte of the middle record.
        log[keep + 9] ^= 0x40;
        let out = scan_records(&log);
        assert_eq!(out.damage, Damage::Corrupt);
        assert_eq!(out.valid_len, keep);
        assert_eq!(out.records, vec![b"good".to_vec()]);
    }

    #[test]
    fn scan_never_panics_on_garbage() {
        for seed in 0u8..=50 {
            let junk: Vec<u8> = (0..97)
                .map(|i| seed.wrapping_mul(31).wrapping_add(i))
                .collect();
            let _ = scan_records(&junk);
            let _ = record_spans(&junk);
        }
        let _ = scan_records(&[0xFF; 3]);
        let _ = scan_records(&u32::MAX.to_le_bytes());
    }
}
