//! Sidecar indexes: a frame-offset directory plus per-frame posting
//! lists, for random-access replay *and* replay-free queries.
//!
//! A trace file is a sequence of self-contained frames (delta streams and
//! predictor tables reset at every frame boundary), so any frame is a
//! valid decode entry point — but finding the frame that holds record *k*
//! normally means decoding every frame before it. A [`TraceIndex`] is the
//! missing directory: one `(byte offset, records)` entry per frame. Next
//! to it, every frame carries one
//! [`FramePostings`](crate::postings::FramePostings) section: compressed
//! bitmap posting lists keyed by pc bucket, opcode class, address page and
//! violation site (see [`crate::postings`]), which is what lets the trace
//! lake answer "which records touched page X" without decoding any frame
//! payload.
//!
//! The index is built as the stream is written
//! ([`TraceWriter::with_index`](crate::TraceWriter::with_index)) or
//! rebuilt afterwards by [`TraceIndex::scan_records`], which decodes every
//! frame's columns; both construction paths serialize byte-identically to
//! one sidecar format (`IGMX`, version [`INDEX_VERSION_V2`]).
//!
//! With an index, [`replay_window`](crate::capture::replay_window) seeks a
//! [`TraceReader`](crate::TraceReader) straight to the first frame of a
//! record-range window and decodes only the frames the window touches —
//! the prefix is never decoded.

use crate::codec::{checksum, TraceError};
use crate::postings::FramePostings;
use igm_lba::TraceBatch;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// The four magic bytes opening every index sidecar.
pub const INDEX_MAGIC: [u8; 4] = *b"IGMX";

/// The sidecar format version: directory plus per-frame posting lists.
pub const INDEX_VERSION_V2: u32 = 2;

/// One frame's directory entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexEntry {
    /// Byte offset of the frame header in the trace stream (the 8-byte
    /// file header included, so the offset seeks directly).
    pub offset: u64,
    /// Records decoded by every frame before this one.
    pub first_record: u64,
    /// Records in this frame.
    pub records: u32,
}

/// A frame-offset directory and per-frame posting index over one trace
/// stream.
///
/// # Example
///
/// ```
/// use igm_trace::{encode_to_vec, TraceIndex};
/// use igm_workload::Benchmark;
///
/// let bytes = encode_to_vec(Benchmark::Gzip.trace(5_000), 2048);
/// let index = TraceIndex::scan_records(&bytes[..]).unwrap();
/// assert_eq!(index.total_records(), 5_000);
/// // The frame holding record 3_000, located from the directory alone.
/// let entry = index.frame_for_record(3_000).unwrap();
/// assert!(entry.first_record <= 3_000);
/// assert!(3_000 < entry.first_record + entry.records as u64);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceIndex {
    entries: Vec<IndexEntry>,
    /// Exactly one section per entry.
    postings: Vec<FramePostings>,
    total_records: u64,
}

impl TraceIndex {
    /// An empty index.
    pub fn new() -> TraceIndex {
        TraceIndex::default()
    }

    /// Appends one frame's directory entry and its posting section.
    fn push(&mut self, offset: u64, records: u32, postings: FramePostings) {
        self.entries.push(IndexEntry { offset, first_record: self.total_records, records });
        self.postings.push(postings);
        self.total_records += records as u64;
    }

    /// Appends one frame's directory entry *and* its posting lists,
    /// extracted from the batch the frame encodes (the indexing writer
    /// and the decoding scan both land here, which is what makes their
    /// sidecars byte-identical).
    pub(crate) fn push_frame_batch(&mut self, offset: u64, batch: &TraceBatch) {
        self.push(offset, batch.len() as u32, FramePostings::from_batch(batch));
    }

    /// The per-frame directory, in stream order.
    pub fn entries(&self) -> &[IndexEntry] {
        &self.entries
    }

    /// The per-frame posting sections, aligned with [`TraceIndex::entries`].
    pub fn frame_postings(&self) -> &[FramePostings] {
        &self.postings
    }

    /// Frames indexed.
    pub fn frames(&self) -> usize {
        self.entries.len()
    }

    /// Records across all indexed frames.
    pub fn total_records(&self) -> u64 {
        self.total_records
    }

    /// Total encoded posting bytes (directory excluded) — the numerator
    /// of the index-overhead bytes-per-record metric.
    pub fn posting_bytes(&self) -> u64 {
        self.postings.iter().map(|p| p.encoded_len() as u64).sum()
    }

    /// The entry of the frame containing record number `record` (0-based
    /// over the whole trace), or `None` past the end.
    pub fn frame_for_record(&self, record: u64) -> Option<&IndexEntry> {
        if record >= self.total_records {
            return None;
        }
        let i = self.entries.partition_point(|e| e.first_record + e.records as u64 <= record);
        self.entries.get(i)
    }

    /// The position of the frame containing record number `record`, for
    /// pairing an entry with its posting section.
    pub fn frame_pos_for_record(&self, record: u64) -> Option<usize> {
        if record >= self.total_records {
            return None;
        }
        Some(self.entries.partition_point(|e| e.first_record + e.records as u64 <= record))
    }

    /// Builds the index from a finished trace stream by decoding every
    /// frame's columns — the offline twin of
    /// [`TraceWriter::with_index`](crate::TraceWriter::with_index):
    /// both run the same per-batch extraction, so the two indexes
    /// serialize byte-identically. Payload checksums are verified as a
    /// side effect of decoding.
    pub fn scan_records<R: Read>(r: R) -> Result<TraceIndex, TraceError> {
        let mut reader = crate::codec::TraceReader::new(r)?;
        let mut index = TraceIndex::new();
        let mut batch = TraceBatch::new();
        loop {
            let offset = reader.offset();
            if !reader.read_chunk_into_batch(&mut batch)? {
                return Ok(index);
            }
            index.push_frame_batch(offset, &batch);
        }
    }

    /// Scans (decoding payloads) the trace file at `path`.
    pub fn scan_records_file(path: impl AsRef<Path>) -> Result<TraceIndex, TraceError> {
        TraceIndex::scan_records(BufReader::new(File::open(path).map_err(TraceError::Io)?))
    }

    /// Serializes the index: `IGMX`, version, frame count, one
    /// `(offset u64, records u32)` LE pair per frame, a `u64`
    /// posting-section length and each frame's encoded [`FramePostings`],
    /// then an FNV-1a-32 checksum over the entry and posting bytes.
    pub fn save<W: Write>(&self, mut w: W) -> io::Result<()> {
        w.write_all(&INDEX_MAGIC)?;
        w.write_all(&INDEX_VERSION_V2.to_le_bytes())?;
        w.write_all(&(self.entries.len() as u64).to_le_bytes())?;
        let mut body = Vec::with_capacity(self.entries.len() * 12);
        for e in &self.entries {
            body.extend_from_slice(&e.offset.to_le_bytes());
            body.extend_from_slice(&e.records.to_le_bytes());
        }
        let mut sections = Vec::new();
        for p in &self.postings {
            p.encode(&mut sections);
        }
        body.extend_from_slice(&(sections.len() as u64).to_le_bytes());
        body.extend_from_slice(&sections);
        w.write_all(&body)?;
        w.write_all(&checksum(&body).to_le_bytes())?;
        w.flush()
    }

    /// Writes the sidecar file at `path`.
    pub fn save_file(&self, path: impl AsRef<Path>) -> io::Result<()> {
        self.save(BufWriter::new(File::create(path)?))
    }

    /// Deserializes an index written by [`TraceIndex::save`]. A sidecar
    /// cut anywhere is [`TraceError::Corrupt`]; any version word but
    /// [`INDEX_VERSION_V2`] is [`TraceError::UnsupportedVersion`].
    pub fn load<R: Read>(mut r: R) -> Result<TraceIndex, TraceError> {
        let corrupt = |reason| TraceError::Corrupt { offset: 0, reason };
        let mut magic = [0u8; 4];
        read_or_truncated(&mut r, &mut magic)?;
        if magic != INDEX_MAGIC {
            return Err(corrupt("not an igm trace index (bad magic)"));
        }
        let mut word = [0u8; 4];
        read_or_truncated(&mut r, &mut word)?;
        let version = u32::from_le_bytes(word);
        if version != INDEX_VERSION_V2 {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let mut count = [0u8; 8];
        read_or_truncated(&mut r, &mut count)?;
        let count = u64::from_le_bytes(count);
        // 12 bytes per entry: a corrupt count cannot drive an allocation
        // larger than what the stream actually holds.
        let entry_bytes = count.saturating_mul(12);
        let mut body = Vec::new();
        r.by_ref().take(entry_bytes).read_to_end(&mut body).map_err(TraceError::Io)?;
        if body.len() as u64 != entry_bytes {
            return Err(corrupt("index sidecar truncated"));
        }
        let mut len = [0u8; 8];
        read_or_truncated(&mut r, &mut len)?;
        let plen = u64::from_le_bytes(len);
        let mut sections = Vec::new();
        r.by_ref().take(plen).read_to_end(&mut sections).map_err(TraceError::Io)?;
        if sections.len() as u64 != plen {
            return Err(corrupt("index sidecar truncated"));
        }
        body.extend_from_slice(&len);
        body.extend_from_slice(&sections);
        read_or_truncated(&mut r, &mut word)?;
        if checksum(&body) != u32::from_le_bytes(word) {
            return Err(corrupt("index sidecar checksum mismatch"));
        }
        let mut index = TraceIndex::new();
        let mut pos = 0usize;
        for chunk in body[..entry_bytes as usize].chunks_exact(12) {
            let offset = u64::from_le_bytes(chunk[0..8].try_into().unwrap());
            let records = u32::from_le_bytes(chunk[8..12].try_into().unwrap());
            if records == 0 {
                return Err(corrupt("index entry with zero records"));
            }
            let fp = FramePostings::decode(&sections, &mut pos, records)
                .map_err(|reason| TraceError::Corrupt { offset: pos as u64, reason })?;
            index.push(offset, records, fp);
        }
        if pos != sections.len() {
            return Err(corrupt("trailing bytes after last posting section"));
        }
        Ok(index)
    }

    /// Reads the sidecar file at `path`.
    pub fn load_file(path: impl AsRef<Path>) -> Result<TraceIndex, TraceError> {
        TraceIndex::load(BufReader::new(File::open(path).map_err(TraceError::Io)?))
    }
}

/// `read_exact`, with a short read reported as a truncated sidecar.
fn read_or_truncated<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), TraceError> {
    r.read_exact(buf).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => {
            TraceError::Corrupt { offset: 0, reason: "index sidecar truncated" }
        }
        _ => TraceError::Io(e),
    })
}
