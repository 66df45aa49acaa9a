//! The append-only write-ahead log.
//!
//! Every event is appended here before it enters the memtable, so a crash
//! loses nothing that was acknowledged: on reopen the log is replayed into
//! a fresh memtable.  When the memtable seals into a segment (which is
//! fsynced first) the log is reset, keeping it proportional to the
//! memtable, not the store.
//!
//! Record layout — one record per event, back to back:
//!
//! ```text
//! u64  sequence number (little-endian)
//! ...  ULM binary frame (jamm_ulm::binary, self-delimiting)
//! u64  FNV-1a of the sequence word + frame (little-endian)
//! ```
//!
//! Replay is tolerant of a torn tail: the first truncated or
//! checksum-mismatched record ends the replay, and the log is truncated
//! back to the last good record so the torn bytes can never corrupt later
//! appends.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use jamm_ulm::{binary, Event};

use crate::codec::fnv64;
use crate::{Result, TsdbError};

/// Name of the write-ahead log file inside a store directory.
pub const WAL_FILE: &str = "wal.log";

/// An open write-ahead log.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    /// Bytes currently in the log (tracked to avoid a metadata syscall per
    /// append).
    len: u64,
    sync: bool,
    /// Encode scratch, kept between appends so the steady state encodes a
    /// batch without allocating.
    buf: Vec<u8>,
}

impl Wal {
    /// Open (creating if absent) the log inside `dir`.  Existing contents
    /// are preserved; call [`Wal::replay`] first to recover them.
    pub fn open(dir: &Path, sync: bool) -> Result<Wal> {
        let path = dir.join(WAL_FILE);
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(TsdbError::from)?;
        let len = file.metadata().map_err(TsdbError::from)?.len();
        Ok(Wal {
            file,
            path,
            len,
            sync,
            buf: Vec::new(),
        })
    }

    /// Append a batch of event records (a single event is a batch of one)
    /// with a single write.  Generic over `Borrow<Event>` so both owned
    /// batches and the archiver's shared (`Arc<Event>`) batches encode
    /// without copying an event first.
    pub fn append_batch<B: std::borrow::Borrow<Event>>(
        &mut self,
        first_seq: u64,
        events: &[B],
    ) -> Result<()> {
        self.buf.clear();
        for (i, event) in events.iter().enumerate() {
            encode_record(&mut self.buf, first_seq + i as u64, event.borrow());
        }
        self.write_buf()
    }

    /// Write the fully-formed records in `buf`.  Any failure — a partial write
    /// (e.g. ENOSPC midway) or a failed fsync — rolls the file back to the
    /// last record boundary, so an erroring append leaves no trace: torn
    /// bytes can never sit between acknowledged records, and a caller
    /// retrying the same batch (which a failed append leaves with it)
    /// cannot duplicate records.
    fn write_buf(&mut self) -> Result<()> {
        let rollback = |file: &mut File, len: u64, e: std::io::Error| {
            let _ = file.set_len(len);
            let _ = file.seek(SeekFrom::End(0));
            TsdbError::from(e)
        };
        if let Err(e) = self.file.write_all(&self.buf) {
            return Err(rollback(&mut self.file, self.len, e));
        }
        if self.sync {
            if let Err(e) = self.file.sync_data() {
                return Err(rollback(&mut self.file, self.len, e));
            }
        }
        self.len += self.buf.len() as u64;
        Ok(())
    }

    /// Atomically replace the log's contents with the given records: the
    /// new log is written to a temporary file, synced, and renamed over
    /// the old one, so a crash leaves either the old or the new log —
    /// never a mix.  Used by retention cuts.
    pub fn rewrite<B: std::borrow::Borrow<Event>>(&mut self, records: &[(u64, B)]) -> Result<()> {
        let tmp = self.path.with_extension("log.tmp");
        let mut buf = Vec::new();
        for (seq, event) in records {
            encode_record(&mut buf, *seq, event.borrow());
        }
        {
            let mut f = std::fs::File::create(&tmp).map_err(TsdbError::from)?;
            f.write_all(&buf).map_err(TsdbError::from)?;
            f.sync_all().map_err(TsdbError::from)?;
        }
        std::fs::rename(&tmp, &self.path).map_err(TsdbError::from)?;
        // Reopen the append handle on the new inode.
        self.file = OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(TsdbError::from)?;
        self.len = buf.len() as u64;
        Ok(())
    }

    /// Drop every record (the memtable just sealed into a durable segment).
    pub fn reset(&mut self) -> Result<()> {
        self.file.set_len(0).map_err(TsdbError::from)?;
        self.file
            .seek(SeekFrom::Start(0))
            .map_err(TsdbError::from)?;
        self.len = 0;
        Ok(())
    }

    /// Bytes currently in the log.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Read every intact record from the log in `dir`.  Returns the
    /// recovered `(sequence, event)` pairs and the number of bytes that
    /// were discarded as a torn/corrupt tail (0 for a clean log); the file
    /// is truncated back to its intact prefix.  A missing log file is an
    /// empty recovery, not an error.
    pub fn replay(dir: &Path) -> Result<(Vec<(u64, Event)>, u64)> {
        let path = dir.join(WAL_FILE);
        let mut buf = Vec::new();
        match File::open(&path) {
            Ok(mut f) => {
                f.read_to_end(&mut buf).map_err(TsdbError::from)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
            Err(e) => return Err(TsdbError::from(e)),
        }
        let mut out = Vec::new();
        let mut good = 0usize;
        while good < buf.len() {
            match parse_record(&buf[good..]) {
                Some((seq, event, consumed)) => {
                    out.push((seq, event));
                    good += consumed;
                }
                None => break,
            }
        }
        let torn = (buf.len() - good) as u64;
        if torn > 0 {
            // Drop the torn tail so future appends start on a record
            // boundary.
            let f = OpenOptions::new()
                .write(true)
                .open(&path)
                .map_err(TsdbError::from)?;
            f.set_len(good as u64).map_err(TsdbError::from)?;
        }
        Ok((out, torn))
    }
}

/// Encode one record (the layout in the module docs) onto the end of `buf`.
fn encode_record(buf: &mut Vec<u8>, seq: u64, event: &Event) {
    let start = buf.len();
    buf.extend_from_slice(&seq.to_le_bytes());
    binary::encode_into(buf, event);
    let sum = fnv64(&buf[start..]);
    buf.extend_from_slice(&sum.to_le_bytes());
}

/// Parse one record from the front of `buf`; `None` if it is truncated or
/// fails its checksum.
fn parse_record(buf: &[u8]) -> Option<(u64, Event, usize)> {
    let (seq, frame) = buf.split_first_chunk::<8>()?;
    let (event, frame_len) = binary::decode(frame).ok()?;
    let body_end = 8 + frame_len;
    let stored = buf.get(body_end..)?.first_chunk::<8>()?;
    if fnv64(&buf[..body_end]) != u64::from_le_bytes(*stored) {
        return None;
    }
    Some((u64::from_le_bytes(*seq), event, body_end + 8))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::TempDir;
    use jamm_ulm::{Level, Timestamp};

    fn ev(t: u64) -> Event {
        Event::builder("p", "h")
            .level(Level::Usage)
            .event_type("X")
            .timestamp(Timestamp::from_secs(t))
            .value(t as f64)
            .build()
    }

    #[test]
    fn append_replay_round_trip() {
        let dir = TempDir::new("wal-round-trip");
        let mut wal = Wal::open(dir.path(), false).unwrap();
        for i in 0..25u64 {
            wal.append_batch(i, &[ev(i)]).unwrap();
        }
        drop(wal); // no graceful close needed
        let (recovered, torn) = Wal::replay(dir.path()).unwrap();
        assert_eq!(torn, 0);
        assert_eq!(recovered.len(), 25);
        assert_eq!(recovered[7].0, 7);
        assert_eq!(recovered[7].1, ev(7));
    }

    #[test]
    fn batch_append_matches_singles() {
        let dir = TempDir::new("wal-batch");
        let events: Vec<Event> = (0..10).map(ev).collect();
        let mut wal = Wal::open(dir.path(), false).unwrap();
        wal.append_batch(100, &events).unwrap();
        let (recovered, _) = Wal::replay(dir.path()).unwrap();
        assert_eq!(recovered.len(), 10);
        assert_eq!(recovered[0].0, 100);
        assert_eq!(recovered[9].0, 109);
    }

    #[test]
    fn torn_tail_is_discarded_and_truncated() {
        let dir = TempDir::new("wal-torn");
        let mut wal = Wal::open(dir.path(), false).unwrap();
        for i in 0..5u64 {
            wal.append_batch(i, &[ev(i)]).unwrap();
        }
        let path = wal.path().to_path_buf();
        drop(wal);
        // Simulate a crash mid-write: append half a record of garbage.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[1, 2, 3, 4, 5, 6, 7]).unwrap();
        drop(f);
        let (recovered, torn) = Wal::replay(dir.path()).unwrap();
        assert_eq!(recovered.len(), 5);
        assert_eq!(torn, 7);
        // The tail is gone: appending and replaying again is clean.
        let mut wal = Wal::open(dir.path(), false).unwrap();
        wal.append_batch(5, &[ev(5)]).unwrap();
        drop(wal);
        let (recovered, torn) = Wal::replay(dir.path()).unwrap();
        assert_eq!((recovered.len(), torn), (6, 0));
    }

    #[test]
    fn corrupted_record_stops_replay() {
        let dir = TempDir::new("wal-corrupt");
        let mut wal = Wal::open(dir.path(), false).unwrap();
        for i in 0..3u64 {
            wal.append_batch(i, &[ev(i)]).unwrap();
        }
        let path = wal.path().to_path_buf();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        let record = bytes.len() / 3;
        bytes[record + 12] ^= 0xFF; // flip a byte inside record 2
        std::fs::write(&path, &bytes).unwrap();
        let (recovered, torn) = Wal::replay(dir.path()).unwrap();
        assert_eq!(recovered.len(), 1, "replay stops at the corrupt record");
        assert!(torn > 0);
    }

    #[test]
    fn reset_empties_the_log() {
        let dir = TempDir::new("wal-reset");
        let mut wal = Wal::open(dir.path(), false).unwrap();
        wal.append_batch(1, &[ev(1)]).unwrap();
        assert!(!wal.is_empty());
        wal.reset().unwrap();
        assert!(wal.is_empty());
        wal.append_batch(2, &[ev(2)]).unwrap();
        drop(wal);
        let (recovered, _) = Wal::replay(dir.path()).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].0, 2);
    }

    #[test]
    fn rewrite_replaces_contents_atomically() {
        let dir = TempDir::new("wal-rewrite");
        let mut wal = Wal::open(dir.path(), false).unwrap();
        for i in 0..10u64 {
            wal.append_batch(i, &[ev(i)]).unwrap();
        }
        let survivors: Vec<(u64, Event)> = (5..10u64).map(|i| (i, ev(i))).collect();
        wal.rewrite(&survivors).unwrap();
        // The handle keeps working on the new inode.
        wal.append_batch(10, &[ev(10)]).unwrap();
        drop(wal);
        let (recovered, torn) = Wal::replay(dir.path()).unwrap();
        assert_eq!(torn, 0);
        assert_eq!(
            recovered.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![5, 6, 7, 8, 9, 10]
        );
        assert!(!dir.path().join("wal.log.tmp").exists());
    }

    #[test]
    fn missing_log_replays_empty() {
        let dir = TempDir::new("wal-missing");
        let (recovered, torn) = Wal::replay(dir.path()).unwrap();
        assert!(recovered.is_empty());
        assert_eq!(torn, 0);
    }
}
