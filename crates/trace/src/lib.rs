//! # igm-trace — the monitored-event stream as a first-class artifact
//!
//! The paper's log-based architecture rests on a *compressed instruction
//! log* captured by hardware and shipped to the lifeguard core. Until this
//! crate, the repo's logs were transient: every workload lived as an
//! in-memory `Vec<TraceEntry>` pushed through a blocking channel and gone
//! when the run ended. `igm-trace` makes the stream durable, multiplexable
//! and replayable — the way IPU-style introspection units and
//! FireGuard-style fabrics treat the monitored-event stream as a
//! serialized artifact in its own right. Three layers:
//!
//! * [`codec`] — a compact binary encoding of the trace record stream:
//!   per-frame value predictors (next-pc, last-value and stride tables)
//!   emit one hit *bit* per predicted field, with LEB128 delta-coded
//!   escapes for the misses, one framed + checksummed chunk per
//!   transport batch (the paper's log-compression stack). The wire
//!   streams correspond one-to-one with the columnar
//!   [`igm_lba::TraceBatch`] layout: [`TraceWriter::write_chunk_batch`]
//!   encodes straight from the columns and
//!   [`TraceReader::read_chunk_into_batch`] decodes straight into them —
//!   no intermediate `Vec<TraceEntry>` on either side (the entry-slice
//!   APIs remain as thin conversion wrappers). Typical generated
//!   workloads encode to ~1–1.5 bytes/record, ~20× under the in-memory
//!   `size_of::<TraceEntry>()`.
//! * [`capture`] — [`CaptureSession`] tees a live pool session's batches
//!   into a trace file; [`replay_file`]/[`replay_reader`] feed a recorded
//!   file back through a fresh [`igm_runtime::MonitorPool`] session and
//!   reproduce the live run's violations and dispatch stats exactly.
//! * [`index`] — [`TraceIndex`]: a sidecar frame-offset directory with
//!   per-frame posting lists (built by the writer on request, or by a
//!   decoding scan) that lets [`replay_window`] seek straight to a
//!   record-range window without decoding the prefix, and the trace lake
//!   answer queries without decoding at all.
//! * [`ingest`] — [`Ingestor`]: **one** OS thread multiplexing many
//!   tenant [`TraceSource`]s (in-memory generators, trace files,
//!   readiness-polled pipes, `igm-net` sockets) into pool sessions via
//!   non-blocking sends, with per-source backpressure staging and
//!   fairness accounting — replacing the one-blocking-thread-per-tenant
//!   ingestion pattern. Any lane can be teed to a trace sink
//!   ([`Ingestor::add_source_teed`]), so piped and remote tenants leave
//!   on-disk artifacts too.
//!
//! Any scenario becomes reproducible from an artifact: record it once
//! (capture, or [`codec::encode_to_vec`] from a generator), then replay
//! it into any lifeguard, pool size, or accelerator configuration.

pub mod capture;
pub mod codec;
pub mod index;
pub mod ingest;
pub mod postings;

pub use capture::{
    capture_to_file, capture_to_lake, lake_stem, replay_file, replay_reader, replay_window,
    CaptureError, CaptureSession,
};
pub use codec::{
    checksum, decode_frame, decode_frame_with, decode_from_slice, encode_frame, encode_frame_with,
    encode_to_vec, CodecMetrics, Predictors, TraceError, TraceReader, TraceWriter, CODEC_ID,
    FORMAT_VERSION, FRAME_HEADER_BYTES_V2, MAGIC, MAX_PAYLOAD_BYTES,
};
pub use index::{IndexEntry, TraceIndex, INDEX_MAGIC, INDEX_VERSION_V2};
pub use ingest::{
    batch_pipe, FileSource, IngestConfig, IngestReport, Ingestor, IterSource, LanePoll, LaneStats,
    PassOutcome, PipeSender, PipeSource, SourceStatus, TraceSource,
};
pub use postings::{
    op_class, site, Dim, FramePostings, FrameSet, Posting, PAGE_SHIFT, PC_BUCKET_SHIFT,
};
