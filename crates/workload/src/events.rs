//! Versioned `.events` binary trace format with a streaming reader.
//!
//! The workspace's one trace format. A magic, a version and a declared record
//! count head the file, so a truncated or foreign blob is an error rather
//! than a short trace:
//!
//! ```text
//! magic "PFEV" (4 B) | version u16 LE | reserved u16 LE (0) | count u64 LE
//! record * count, 28 B each: time f64 | client u32 | item u64 | size f64
//! ```
//!
//! Two ways to consume it:
//!
//! * [`TraceStream`] — chunked lazy iterator. Reads `chunk_records` records
//!   into an internal buffer at a time, so peak resident memory is
//!   O(chunk), never O(trace). Every record is validated (finite
//!   non-negative time and size, non-decreasing time) as it is yielded.
//! * [`read_events`] — convenience that materializes a whole (small) trace
//!   through the same validating stream.
//!
//! [`EventsWriter`] is the encoding half: it pins the declared record count
//! against what was actually written and refuses non-finite or
//! time-regressing records, so a file it produces always round-trips.

use crate::catalog::ItemId;
use crate::trace::TraceRecord;
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File magic: "PFEV" (prefetch events).
pub const MAGIC: [u8; 4] = *b"PFEV";
/// Current format version.
pub const VERSION: u16 = 1;
/// Header size in bytes: magic + version + reserved + record count.
pub const HEADER_BYTES: usize = 16;
/// Record size in bytes.
pub const RECORD_BYTES: usize = 28;
/// Default chunk size for [`TraceStream`], in records (112 KiB resident).
pub const DEFAULT_CHUNK_RECORDS: usize = 4096;

/// Everything that can go wrong reading or writing an `.events` trace.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The first four bytes were not the `PFEV` magic.
    BadMagic([u8; 4]),
    /// Unsupported format version.
    BadVersion(u16),
    /// Reserved header field was non-zero.
    BadReserved(u16),
    /// Input ended before the declared record count was read.
    Truncated {
        /// Bytes the header still promised.
        expected: u64,
        /// Bytes actually available.
        got: u64,
    },
    /// Bytes remain after the declared record count.
    TrailingBytes,
    /// A record failed validation.
    BadRecord {
        /// Zero-based record index.
        index: u64,
        /// Human-readable reason.
        reason: String,
    },
    /// Writer finished with fewer records than the header declared, or was
    /// handed more.
    CountMismatch {
        /// Count declared in the header.
        declared: u64,
        /// Records actually written.
        written: u64,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::BadMagic(m) => write!(f, "bad trace magic {m:?} (want {MAGIC:?})"),
            TraceError::BadVersion(v) => {
                write!(f, "unsupported trace version {v} (want {VERSION})")
            }
            TraceError::BadReserved(r) => write!(f, "reserved header field is {r}, must be 0"),
            TraceError::Truncated { expected, got } => {
                write!(f, "truncated trace: expected {expected} more byte(s), got {got}")
            }
            TraceError::TrailingBytes => write!(f, "trailing bytes after declared record count"),
            TraceError::BadRecord { index, reason } => {
                write!(f, "invalid record {index}: {reason}")
            }
            TraceError::CountMismatch { declared, written } => {
                write!(f, "record count mismatch: header declares {declared}, wrote {written}")
            }
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Validates one record: finite non-negative time and size, and time not
/// before `prev_time`. Shared by the streaming reader and the writer.
fn validate_record(rec: &TraceRecord, prev_time: Option<f64>) -> Result<(), String> {
    if !rec.time.is_finite() {
        return Err(format!("non-finite time {:?}", rec.time));
    }
    if rec.time < 0.0 {
        return Err(format!("negative time {:?}", rec.time));
    }
    if !rec.size.is_finite() {
        return Err(format!("non-finite size {:?}", rec.size));
    }
    if rec.size < 0.0 {
        return Err(format!("negative size {:?}", rec.size));
    }
    if let Some(prev) = prev_time {
        if rec.time < prev {
            return Err(format!("time {:?} decreases below {prev:?}", rec.time));
        }
    }
    Ok(())
}

fn decode_record(bytes: &[u8]) -> TraceRecord {
    let f64_at = |b: &[u8]| f64::from_le_bytes(b.try_into().expect("8-byte slice"));
    TraceRecord {
        time: f64_at(&bytes[0..8]),
        client: u32::from_le_bytes(bytes[8..12].try_into().expect("4-byte slice")),
        item: ItemId(u64::from_le_bytes(bytes[12..20].try_into().expect("8-byte slice"))),
        size: f64_at(&bytes[20..28]),
    }
}

fn encode_record(rec: &TraceRecord, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&rec.time.to_le_bytes());
    buf.extend_from_slice(&rec.client.to_le_bytes());
    buf.extend_from_slice(&rec.item.0.to_le_bytes());
    buf.extend_from_slice(&rec.size.to_le_bytes());
}

/// Chunked, validating reader over an `.events` input.
///
/// Iterates `Result<TraceRecord, TraceError>` lazily: at most
/// `chunk_records * 28` trace bytes are resident at any time
/// ([`Self::peak_resident_bytes`] reports the observed high-water mark).
/// After the first error the stream fuses and yields `None`.
pub struct TraceStream<R: Read> {
    input: R,
    count: u64,
    yielded: u64,
    buf: Vec<u8>,
    pos: usize,
    last_time: Option<f64>,
    chunk_records: usize,
    peak_resident: usize,
    done: bool,
}

impl<R: Read> TraceStream<R> {
    /// Opens a stream with the default chunk size, parsing and checking the
    /// header immediately.
    pub fn open(input: R) -> Result<Self, TraceError> {
        Self::with_chunk(input, DEFAULT_CHUNK_RECORDS)
    }

    /// Opens a stream reading `chunk_records` records per refill.
    pub fn with_chunk(mut input: R, chunk_records: usize) -> Result<Self, TraceError> {
        assert!(chunk_records > 0, "chunk_records must be positive");
        let mut header = [0u8; HEADER_BYTES];
        let mut got = 0usize;
        while got < HEADER_BYTES {
            match input.read(&mut header[got..])? {
                0 => {
                    return Err(TraceError::Truncated {
                        expected: (HEADER_BYTES - got) as u64,
                        got: 0,
                    })
                }
                n => got += n,
            }
        }
        if header[0..4] != MAGIC {
            return Err(TraceError::BadMagic(header[0..4].try_into().expect("4-byte slice")));
        }
        let version = u16::from_le_bytes(header[4..6].try_into().expect("2-byte slice"));
        if version != VERSION {
            return Err(TraceError::BadVersion(version));
        }
        let reserved = u16::from_le_bytes(header[6..8].try_into().expect("2-byte slice"));
        if reserved != 0 {
            return Err(TraceError::BadReserved(reserved));
        }
        let count = u64::from_le_bytes(header[8..16].try_into().expect("8-byte slice"));
        Ok(TraceStream {
            input,
            count,
            yielded: 0,
            buf: Vec::new(),
            pos: 0,
            last_time: None,
            chunk_records,
            peak_resident: 0,
            done: false,
        })
    }

    /// Record count declared in the header.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest trace buffer held at any point so far (bytes). Pinned at
    /// `chunk_records * RECORD_BYTES` regardless of trace length.
    pub fn peak_resident_bytes(&self) -> usize {
        self.peak_resident
    }

    fn refill(&mut self) -> Result<(), TraceError> {
        self.buf.clear();
        self.pos = 0;
        let remaining = (self.count - self.yielded).min(self.chunk_records as u64);
        let want = remaining as usize * RECORD_BYTES;
        let got = (&mut self.input).take(want as u64).read_to_end(&mut self.buf)?;
        if got < want {
            return Err(TraceError::Truncated { expected: (want - got) as u64, got: got as u64 });
        }
        self.peak_resident = self.peak_resident.max(self.buf.len());
        Ok(())
    }

    fn next_inner(&mut self) -> Option<Result<TraceRecord, TraceError>> {
        if self.done {
            return None;
        }
        if self.yielded == self.count {
            self.done = true;
            // Declared count exhausted: anything left in the input is junk.
            let mut probe = [0u8; 1];
            return match self.input.read(&mut probe) {
                Ok(0) => None,
                Ok(_) => Some(Err(TraceError::TrailingBytes)),
                Err(e) => Some(Err(TraceError::Io(e))),
            };
        }
        if self.pos == self.buf.len() {
            if let Err(e) = self.refill() {
                self.done = true;
                return Some(Err(e));
            }
        }
        let rec = decode_record(&self.buf[self.pos..self.pos + RECORD_BYTES]);
        if let Err(reason) = validate_record(&rec, self.last_time) {
            self.done = true;
            return Some(Err(TraceError::BadRecord { index: self.yielded, reason }));
        }
        self.pos += RECORD_BYTES;
        self.yielded += 1;
        self.last_time = Some(rec.time);
        Some(Ok(rec))
    }
}

impl<R: Read> Iterator for TraceStream<R> {
    type Item = Result<TraceRecord, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_inner()
    }
}

/// Writes an `.events` stream, validating as it goes.
///
/// The header (including the declared record count) is written up front, so
/// the sink needs no `Seek`; [`Self::finish`] errors if the written count
/// does not match the declaration.
pub struct EventsWriter<W: Write> {
    out: W,
    declared: u64,
    written: u64,
    last_time: Option<f64>,
}

impl<W: Write> EventsWriter<W> {
    /// Starts a stream that will carry exactly `count` records.
    pub fn new(mut out: W, count: u64) -> Result<Self, TraceError> {
        out.write_all(&MAGIC)?;
        out.write_all(&VERSION.to_le_bytes())?;
        out.write_all(&0u16.to_le_bytes())?;
        out.write_all(&count.to_le_bytes())?;
        Ok(EventsWriter { out, declared: count, written: 0, last_time: None })
    }

    /// Appends one record; rejects over-count, non-finite, and
    /// time-regressing records.
    pub fn write(&mut self, rec: &TraceRecord) -> Result<(), TraceError> {
        if self.written == self.declared {
            return Err(TraceError::CountMismatch {
                declared: self.declared,
                written: self.written + 1,
            });
        }
        if let Err(reason) = validate_record(rec, self.last_time) {
            return Err(TraceError::BadRecord { index: self.written, reason });
        }
        let mut buf = Vec::with_capacity(RECORD_BYTES);
        encode_record(rec, &mut buf);
        self.out.write_all(&buf)?;
        self.last_time = Some(rec.time);
        self.written += 1;
        Ok(())
    }

    /// Flushes and returns the sink; errors unless exactly the declared
    /// number of records was written.
    pub fn finish(mut self) -> Result<W, TraceError> {
        if self.written != self.declared {
            return Err(TraceError::CountMismatch {
                declared: self.declared,
                written: self.written,
            });
        }
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Encodes a full record slice into `.events` bytes (header + records).
pub fn encode_events(records: &[TraceRecord]) -> Result<Vec<u8>, TraceError> {
    let mut w = EventsWriter::new(Vec::new(), records.len() as u64)?;
    for r in records {
        w.write(r)?;
    }
    w.finish()
}

/// Decodes `.events` bytes fully, through the validating stream.
pub fn read_events(bytes: &[u8]) -> Result<Vec<TraceRecord>, TraceError> {
    TraceStream::open(bytes)?.collect()
}

/// Writes a record slice to `path` as an `.events` file.
pub fn write_events_file(path: &Path, records: &[TraceRecord]) -> Result<(), TraceError> {
    let mut w = EventsWriter::new(BufWriter::new(File::create(path)?), records.len() as u64)?;
    for r in records {
        w.write(r)?;
    }
    w.finish()?.flush()?;
    Ok(())
}

/// `Arc<Vec<u8>>` adapter so in-memory traces can back an `io::Cursor`
/// without cloning the bytes per reader.
#[derive(Clone, Debug)]
struct ArcBytes(Arc<Vec<u8>>);

impl AsRef<[u8]> for ArcBytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// Cheap, cloneable handle to an `.events` trace — either a file on disk or
/// shared in-memory bytes. Each [`Self::open`] call yields an independent
/// chunked [`TraceStream`], so many shards can replay the same trace
/// concurrently at O(chunk) memory each.
#[derive(Clone, Debug)]
pub enum TraceSource {
    /// Trace stored on disk.
    Path(PathBuf),
    /// Trace held in memory, shared between readers.
    Bytes(Arc<Vec<u8>>),
}

impl TraceSource {
    /// Builds an in-memory source by encoding `records`.
    pub fn from_records(records: &[TraceRecord]) -> Result<Self, TraceError> {
        Ok(TraceSource::Bytes(Arc::new(encode_events(records)?)))
    }

    /// Opens an independent validating stream over this source.
    pub fn open(
        &self,
        chunk_records: usize,
    ) -> Result<TraceStream<Box<dyn Read + Send>>, TraceError> {
        let reader: Box<dyn Read + Send> = match self {
            TraceSource::Path(p) => Box::new(File::open(p)?),
            TraceSource::Bytes(b) => Box::new(io::Cursor::new(ArcBytes(Arc::clone(b)))),
        };
        TraceStream::with_chunk(reader, chunk_records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<TraceRecord> {
        vec![
            TraceRecord::new(0.0, 0, ItemId(1), 1.0),
            TraceRecord::new(0.5, 1, ItemId(2), 2.0),
            TraceRecord::new(0.5, 2, ItemId(3), 0.25),
            TraceRecord::new(3.0, 0, ItemId(1), 1.0),
        ]
    }

    #[test]
    fn events_roundtrip() {
        let recs = sample();
        let bytes = encode_events(&recs).unwrap();
        assert_eq!(bytes.len(), HEADER_BYTES + recs.len() * RECORD_BYTES);
        assert_eq!(read_events(&bytes).unwrap(), recs);
    }

    #[test]
    fn empty_trace_roundtrips() {
        let bytes = encode_events(&[]).unwrap();
        assert_eq!(bytes.len(), HEADER_BYTES);
        assert_eq!(read_events(&bytes).unwrap(), Vec::new());
    }

    #[test]
    fn stream_chunks_and_pins_memory() {
        let recs: Vec<TraceRecord> =
            (0..1000).map(|i| TraceRecord::new(i as f64, 0, ItemId(i), 1.0)).collect();
        let bytes = encode_events(&recs).unwrap();
        let mut stream = TraceStream::with_chunk(&bytes[..], 8).unwrap();
        let mut n = 0u64;
        for r in &mut stream {
            r.unwrap();
            n += 1;
        }
        assert_eq!(n, 1000);
        assert_eq!(stream.peak_resident_bytes(), 8 * RECORD_BYTES);
    }

    #[test]
    fn bad_magic_errors() {
        let mut bytes = encode_events(&sample()).unwrap();
        bytes[0] = b'X';
        assert!(matches!(TraceStream::open(&bytes[..]), Err(TraceError::BadMagic(_))));
    }

    #[test]
    fn bad_version_errors() {
        let mut bytes = encode_events(&sample()).unwrap();
        bytes[4] = 99;
        assert!(matches!(TraceStream::open(&bytes[..]), Err(TraceError::BadVersion(99))));
    }

    #[test]
    fn bad_reserved_errors() {
        let mut bytes = encode_events(&sample()).unwrap();
        bytes[6] = 1;
        assert!(matches!(TraceStream::open(&bytes[..]), Err(TraceError::BadReserved(1))));
    }

    #[test]
    fn truncated_body_errors() {
        let bytes = encode_events(&sample()).unwrap();
        let cut = &bytes[..bytes.len() - 5];
        let last = TraceStream::open(cut).unwrap().last().unwrap();
        assert!(matches!(last, Err(TraceError::Truncated { .. })));
    }

    #[test]
    fn truncated_header_errors() {
        let bytes = encode_events(&sample()).unwrap();
        assert!(matches!(TraceStream::open(&bytes[..7]), Err(TraceError::Truncated { .. })));
    }

    #[test]
    fn trailing_bytes_error() {
        let mut bytes = encode_events(&sample()).unwrap();
        bytes.push(0);
        let last = TraceStream::open(&bytes[..]).unwrap().last().unwrap();
        assert!(matches!(last, Err(TraceError::TrailingBytes)));
    }

    /// Encodes `recs` by hand, bypassing the writer's validation, so the
    /// reader's own checks can be exercised.
    fn hand_encoded(recs: &[TraceRecord]) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&0u16.to_le_bytes());
        bytes.extend_from_slice(&(recs.len() as u64).to_le_bytes());
        for r in recs {
            encode_record(r, &mut bytes);
        }
        bytes
    }

    #[test]
    fn decreasing_time_rejected_by_reader() {
        let bytes = hand_encoded(&[
            TraceRecord::new(2.0, 0, ItemId(1), 1.0),
            TraceRecord::new(1.0, 0, ItemId(2), 1.0),
        ]);
        let results: Vec<_> = TraceStream::open(&bytes[..]).unwrap().collect();
        assert!(results[0].is_ok());
        assert!(matches!(&results[1], Err(TraceError::BadRecord { index: 1, .. })));
        assert_eq!(results.len(), 2, "stream must fuse after the first error");
    }

    #[test]
    fn reader_rejects_invalid_records() {
        let negative_time = hand_encoded(&[TraceRecord::new(-1.0, 0, ItemId(1), 1.0)]);
        let err = read_events(&negative_time).unwrap_err();
        assert!(err.to_string().contains("negative time"), "{err}");

        let nan_size = hand_encoded(&[TraceRecord::new(1.0, 0, ItemId(1), f64::NAN)]);
        let err = read_events(&nan_size).unwrap_err();
        assert!(err.to_string().contains("non-finite size"), "{err}");
    }

    #[test]
    fn writer_rejects_non_finite_and_overcount() {
        let mut w = EventsWriter::new(Vec::new(), 1).unwrap();
        let bad = TraceRecord::new(f64::NAN, 0, ItemId(1), 1.0);
        assert!(matches!(w.write(&bad), Err(TraceError::BadRecord { .. })));
        w.write(&TraceRecord::new(1.0, 0, ItemId(1), 1.0)).unwrap();
        let extra = TraceRecord::new(2.0, 0, ItemId(2), 1.0);
        assert!(matches!(w.write(&extra), Err(TraceError::CountMismatch { .. })));
        w.finish().unwrap();
    }

    #[test]
    fn writer_undercount_errors_on_finish() {
        let w = EventsWriter::new(Vec::new(), 2).unwrap();
        assert!(matches!(w.finish(), Err(TraceError::CountMismatch { declared: 2, written: 0 })));
    }

    #[test]
    fn source_opens_independent_streams() {
        let recs = sample();
        let src = TraceSource::from_records(&recs).unwrap();
        assert_eq!(TraceStream::count(&src.open(1).unwrap()), recs.len() as u64);
        let a: Vec<_> = src.open(2).unwrap().map(Result::unwrap).collect();
        let b: Vec<_> = src.open(64).unwrap().map(Result::unwrap).collect();
        assert_eq!(a, recs);
        assert_eq!(b, recs);
    }
}
