//! Low-level byte codecs shared by the WAL and segment formats: LEB128
//! varints, zigzag signed mapping, length-prefixed strings and an FNV-1a
//! checksum.
//!
//! Everything here round-trips on arbitrary input (the deltas the segment
//! encoder produces use wrapping arithmetic, so even pathological
//! timestamps survive a round trip).

use crate::{Result, TsdbError};

/// Append a LEB128 unsigned varint.
pub fn put_uvarint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Read a LEB128 unsigned varint, advancing the cursor.
#[inline]
pub fn get_uvarint(buf: &[u8], pos: &mut usize) -> Result<u64> {
    // Dictionary indices, tags, field counts and the deltas of a regular
    // stream are one byte: decide that case without entering the loop.
    match buf.get(*pos) {
        Some(&byte) if byte < 0x80 => {
            *pos += 1;
            Ok(u64::from(byte))
        }
        _ => get_uvarint_multibyte(buf, pos),
    }
}

fn get_uvarint_multibyte(buf: &[u8], pos: &mut usize) -> Result<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let &byte = buf
            .get(*pos)
            .ok_or(TsdbError::Corrupt("truncated varint"))?;
        *pos += 1;
        if shift >= 64 {
            return Err(TsdbError::Corrupt("varint overflow"));
        }
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Map a signed value onto an unsigned one with small absolute values
/// staying small (zigzag encoding).
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Append a zigzag varint.
pub fn put_ivarint(buf: &mut Vec<u8>, v: i64) {
    put_uvarint(buf, zigzag(v));
}

/// Read a zigzag varint, advancing the cursor.
pub fn get_ivarint(buf: &[u8], pos: &mut usize) -> Result<i64> {
    Ok(unzigzag(get_uvarint(buf, pos)?))
}

/// Append a varint-length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_uvarint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// Read a varint-length-prefixed UTF-8 string, advancing the cursor.
pub fn get_str(buf: &[u8], pos: &mut usize) -> Result<String> {
    let len = get_uvarint(buf, pos)? as usize;
    let end = pos
        .checked_add(len)
        .filter(|&e| e <= buf.len())
        .ok_or(TsdbError::Corrupt("truncated string"))?;
    let s = std::str::from_utf8(&buf[*pos..end])
        .map_err(|_| TsdbError::Corrupt("invalid utf-8 string"))?
        .to_string();
    *pos = end;
    Ok(s)
}

/// Read `N` raw bytes, advancing the cursor.
pub fn get_bytes<const N: usize>(buf: &[u8], pos: &mut usize) -> Result<[u8; N]> {
    let out = buf
        .get(*pos..)
        .and_then(|rest| rest.first_chunk::<N>())
        .ok_or(TsdbError::Corrupt("truncated bytes"))?;
    *pos += N;
    Ok(*out)
}

/// 64-bit FNV-1a hash, used as the integrity checksum of WAL records and
/// segment files (error detection, not authentication).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uvarint_round_trips_boundaries() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX - 1, u64::MAX];
        for &v in &values {
            put_uvarint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(get_uvarint(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn ivarint_round_trips_signed_extremes() {
        let mut buf = Vec::new();
        let values = [0i64, -1, 1, i64::MIN, i64::MAX, -12_345];
        for &v in &values {
            put_ivarint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(get_ivarint(&buf, &mut pos).unwrap(), v);
        }
    }

    #[test]
    fn zigzag_keeps_small_values_small() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(unzigzag(zigzag(-1_000_000)), -1_000_000);
    }

    #[test]
    fn strings_round_trip_and_reject_truncation() {
        let mut buf = Vec::new();
        put_str(&mut buf, "dpss1.lbl.gov");
        put_str(&mut buf, "");
        let mut pos = 0;
        assert_eq!(get_str(&buf, &mut pos).unwrap(), "dpss1.lbl.gov");
        assert_eq!(get_str(&buf, &mut pos).unwrap(), "");
        let mut pos = 0;
        assert!(get_str(&buf[..3], &mut pos).is_err());
    }

    #[test]
    fn truncated_varint_errors() {
        let buf = [0x80u8, 0x80];
        let mut pos = 0;
        assert!(get_uvarint(&buf, &mut pos).is_err());
    }

    #[test]
    fn fnv_is_stable_and_sensitive() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv64(b"abc"), fnv64(b"abd"));
    }
}
