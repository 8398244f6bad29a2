//! CRC32-framed append-only line logs — the shared record framing used
//! by the serving layer's job journal and the live-graph delta log.
//!
//! One record per line: 8 lowercase hex digits of CRC32 over the body
//! text, one space, the body, `\n`. Appends are sequential and fsync'd,
//! so a crash can tear at most the final record; [`open_scan`] recovers
//! by scanning forward and physically truncating the file at the first
//! line that is incomplete, fails its CRC, or fails the caller's parse —
//! everything before the tear survives, everything after it is gone, and
//! the file is ready to append again.

use std::fs::{File, OpenOptions};
use std::io::{self, Read};
use std::path::Path;

/// CRC32 (IEEE, reflected) over bytes — the same polynomial the engine's
/// value file uses for its commit headers.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// The same CRC32 fed incrementally: `update` over any split of the input
/// ends in the value [`crc32`] gives for the whole, so a caller hashing a
/// large or non-contiguous body needs no staging buffer.
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Crc32 {
    /// The state before any byte.
    pub fn new() -> Self {
        Crc32(!0)
    }

    /// Fold `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.0;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
        }
        self.0 = crc;
    }

    /// The checksum of everything fed so far.
    pub fn finish(self) -> u32 {
        !self.0
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// One table entry per byte value: eight bitwise steps of the reflected
/// polynomial, done once at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Frame one record body as a log line: `crc32-hex SP body NL`. The body
/// must not contain a newline (the framing is line-oriented).
pub fn encode_line(body: &str) -> String {
    debug_assert!(!body.contains('\n'), "framed bodies are single lines");
    format!("{:08x} {body}\n", crc32(body.as_bytes()))
}

/// Unframe one `\n`-terminated line (without the newline), returning the
/// body on a CRC match. `None` means the line is torn or corrupt.
pub fn decode_line(line: &str) -> Option<&str> {
    let (crc_hex, body) = line.split_at_checked(8)?;
    let body = body.strip_prefix(' ')?;
    let want = u32::from_str_radix(crc_hex, 16).ok()?;
    (crc32(body.as_bytes()) == want).then_some(body)
}

/// Open (or create) the framed log at `path` for appending, replaying
/// every intact record through `parse`. The scan stops at the first line
/// that is incomplete, non-UTF-8, fails its CRC, or that `parse` rejects;
/// the file is truncated there (with a warning to stderr) so the garbage
/// is gone on disk, not just skipped. Returns the append handle and the
/// parsed records in file order.
pub fn open_scan<T>(
    path: &Path,
    mut parse: impl FnMut(&str) -> Option<T>,
) -> io::Result<(File, Vec<T>)> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut file = OpenOptions::new()
        .read(true)
        .create(true)
        .append(true)
        .open(path)?;
    let mut raw = Vec::new();
    file.read_to_end(&mut raw)?;
    let mut records = Vec::new();
    let mut valid_len = 0usize;
    let mut offset = 0usize;
    while offset < raw.len() {
        let Some(nl) = raw[offset..].iter().position(|&b| b == b'\n') else {
            break; // no newline: torn tail
        };
        let Some(rec) = std::str::from_utf8(&raw[offset..offset + nl])
            .ok()
            .and_then(decode_line)
            .and_then(&mut parse)
        else {
            break;
        };
        records.push(rec);
        offset += nl + 1;
        valid_len = offset;
    }
    if valid_len < raw.len() {
        eprintln!(
            "framed log {}: truncating {} torn/corrupt byte(s) after {} intact record(s)",
            path.display(),
            raw.len() - valid_len,
            records.len()
        );
        file.set_len(valid_len as u64)?;
        file.sync_all()?;
    }
    Ok((file, records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::path::PathBuf;

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("gpsa-framed-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn lines_roundtrip() {
        let line = encode_line("hello world");
        assert!(line.ends_with('\n'));
        assert_eq!(
            decode_line(line.trim_end_matches('\n')),
            Some("hello world")
        );
        // A flipped body byte fails the CRC.
        let bad = line.replace("world", "worlb");
        assert_eq!(decode_line(bad.trim_end_matches('\n')), None);
        // Truncated frames never decode.
        assert_eq!(decode_line("3f1d"), None);
        assert_eq!(decode_line("zzzzzzzz x"), None);
    }

    #[test]
    fn crc32_known_vector() {
        // The standard IEEE check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn streaming_crc_equals_one_shot_on_every_split() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).map(|b| b ^ 0x5a).collect();
        let whole = crc32(&data);
        for cut in [0, 1, 3, 4, 255, 256, 999, 1000] {
            let mut crc = Crc32::new();
            crc.update(&data[..cut]);
            crc.update(&data[cut..]);
            assert_eq!(crc.finish(), whole, "split at {cut}");
        }
        let mut bytewise = Crc32::new();
        for b in &data {
            bytewise.update(std::slice::from_ref(b));
        }
        assert_eq!(bytewise.finish(), whole);
        assert_eq!(Crc32::new().finish(), crc32(b""));
    }

    #[test]
    fn scan_truncates_torn_tail_physically() {
        let path = tmp("torn").join("log");
        {
            let (mut f, recs) = open_scan(&path, |s| Some(s.to_string())).unwrap();
            assert!(recs.is_empty());
            f.write_all(encode_line("one").as_bytes()).unwrap();
            f.write_all(encode_line("two").as_bytes()).unwrap();
            let torn = encode_line("three");
            f.write_all(&torn.as_bytes()[..torn.len() / 2]).unwrap();
        }
        let (_, recs) = open_scan(&path, |s| Some(s.to_string())).unwrap();
        assert_eq!(recs, vec!["one".to_string(), "two".to_string()]);
        let expect = encode_line("one").len() + encode_line("two").len();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), expect as u64);
    }

    #[test]
    fn scan_stops_at_parse_rejection() {
        let path = tmp("parse").join("log");
        {
            let (mut f, _) = open_scan(&path, |s| Some(s.to_string())).unwrap();
            f.write_all(encode_line("good").as_bytes()).unwrap();
            f.write_all(encode_line("BAD").as_bytes()).unwrap();
            f.write_all(encode_line("after").as_bytes()).unwrap();
        }
        // A record the caller cannot parse ends the valid prefix even
        // though its CRC is fine — later records are discarded too.
        let (_, recs) = open_scan(&path, |s| (s != "BAD").then(|| s.to_string())).unwrap();
        assert_eq!(recs, vec!["good".to_string()]);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            encode_line("good").len() as u64
        );
    }
}
