//! The client side: [`TraceForwarder`] ships a live record stream or a
//! recorded trace file to a remote [`IngestServer`](crate::IngestServer)
//! over protocol version [`NET_VERSION`], honoring the server's byte
//! credits. Every chunk carries the span prefix and one codec frame.

use crate::wire::{
    self, Fill, FinStats, MsgBuf, NetError, MSG_HEADER_BYTES, NET_VERSION, SPAN_PREFIX_BYTES,
};
use igm_isa::TraceEntry;
use igm_lba::{chunks, TraceBatch};
use igm_obs::{Histogram, MetricsRegistry};
use igm_runtime::SessionConfig;
use igm_span::{alloc_flow, FlightRecorder, FrameTag, Sampler, Stage, Track};
use igm_trace::{encode_frame_with, CodecMetrics, Predictors, TraceReader, CODEC_ID};
use std::fs::File;
use std::io::{self, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client-side transport parameters.
#[derive(Debug, Clone)]
pub struct ForwarderConfig {
    /// Records are chunked at this many compressed-model bytes per frame
    /// (one wire chunk per frame). Matches the pool's default transport
    /// chunk so a forwarded stream reproduces a local session's batch
    /// boundaries — which is what makes the loopback-equivalence guarantee
    /// exact.
    pub chunk_bytes: u32,
    /// How long to wait for the server's handshake reply (and for the
    /// final `FIN_ACK`).
    pub handshake_timeout: Duration,
}

impl Default for ForwarderConfig {
    fn default() -> ForwarderConfig {
        ForwarderConfig {
            // Inherit the pool's transport default so the two can never
            // silently diverge (the batch-boundary equivalence guarantee
            // depends on them matching).
            chunk_bytes: igm_runtime::PoolConfig::default().chunk_bytes,
            handshake_timeout: Duration::from_secs(10),
        }
    }
}

/// Counters a forwarder accumulates (the client-side analogue of the
/// ingest lane's [`LaneStats`](igm_trace::LaneStats)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForwarderStats {
    /// Chunk messages sent.
    pub chunks: u64,
    /// Records encoded into them.
    pub records: u64,
    /// Credit-accounted frame bytes sent.
    pub frame_bytes: u64,
    /// Sends that found the credit allowance exhausted and had to wait for
    /// a grant — the remote analogue of the SPSC channel's producer
    /// stalls: each one means the server-side log channel (and behind it,
    /// a lifeguard) was the bottleneck.
    pub credit_stalls: u64,
    /// Wall-clock nanoseconds spent waiting for credit.
    pub credit_stall_nanos: u64,
}

/// What a finished forwarding session produced.
#[derive(Debug, Clone, Copy)]
pub struct ForwarderReport {
    /// Client-side counters.
    pub stats: ForwarderStats,
    /// Records the server acknowledged ingesting (`FIN_ACK`). Equal to
    /// `stats.records` on a healthy lane.
    pub server_records: u64,
}

/// A connection streaming one tenant's records to a remote ingest server.
///
/// The forwarder encodes every batch as a standard `igm-trace` codec
/// frame (the same bytes a [`CaptureSession`](igm_trace::CaptureSession)
/// would write) and ships it inside a chunk message, spending the byte
/// credits the server grants; when the allowance runs out the send
/// *stalls* — counted in [`ForwarderStats::credit_stalls`] — until the
/// pool drains and a grant arrives. Sources can be live record iterators
/// ([`TraceForwarder::stream`]), pre-batched chunks
/// ([`TraceForwarder::send_batch`]) or recorded trace files
/// ([`TraceForwarder::forward_file`]).
pub struct TraceForwarder {
    stream: TcpStream,
    inbuf: MsgBuf,
    /// Remaining credit in frame bytes. Signed: the protocol lets one
    /// in-flight frame overdraw the allowance so frames larger than the
    /// window still make progress.
    credit: i64,
    chunk_bytes: u32,
    handshake_timeout: Duration,
    frame: Vec<u8>,
    stats: ForwarderStats,
    /// Set once the server's `FIN_ACK` arrives.
    fin_ack: Option<u64>,
    /// `igm_net_credit_stall_nanos` when a registry is attached
    /// ([`TraceForwarder::attach_metrics`]); disabled otherwise — the
    /// stall duration is already measured for [`ForwarderStats`], so the
    /// histogram adds no clock reads of its own.
    stall_hist: Histogram,
    /// Encoder predictor tables, persistent across frames (each frame
    /// still resets them — holding the allocation is what matters).
    predictors: Box<Predictors>,
    /// Codec byte counters / encode-latency histogram, bound by
    /// [`TraceForwarder::attach_metrics`].
    codec_metrics: CodecMetrics,
    /// Span origin state, bound by [`TraceForwarder::attach_spans`].
    spans: Option<ClientSpans>,
}

/// The forwarder's span-origin state: this lane's flow, its claimed
/// recorder ring, and the sampler that decides — once per chunk, at the
/// origin — whether a frame's journey is recorded.
struct ClientSpans {
    rec: Arc<FlightRecorder>,
    ring: usize,
    flow: u32,
    sampler: Sampler,
    /// Frame sequence number within the flow: one per chunk, sampled or
    /// not, so a waterfall's seq gaps reveal the sampling rate.
    next_seq: u64,
}

impl ClientSpans {
    fn tag_chunk(&mut self) -> Option<FrameTag> {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.sampler.sample().then_some(FrameTag { flow: self.flow, seq })
    }
}

impl TraceForwarder {
    /// Connects and performs the handshake under default transport
    /// parameters: `session` describes the tenant exactly as a local
    /// [`MonitorPool::open_session`](igm_runtime::MonitorPool::open_session)
    /// call would.
    pub fn connect(
        addr: impl ToSocketAddrs,
        session: &SessionConfig,
    ) -> Result<TraceForwarder, NetError> {
        TraceForwarder::connect_with(addr, session, ForwarderConfig::default())
    }

    /// Connects with explicit transport parameters, speaking
    /// [`NET_VERSION`]. A server that refuses the handshake surfaces as
    /// [`NetError::Rejected`]; there is no retry.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        session: &SessionConfig,
        cfg: ForwarderConfig,
    ) -> Result<TraceForwarder, NetError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let mut fwd = TraceForwarder {
            stream,
            inbuf: MsgBuf::new(),
            credit: 0,
            chunk_bytes: cfg.chunk_bytes,
            handshake_timeout: cfg.handshake_timeout,
            frame: Vec::new(),
            stats: ForwarderStats::default(),
            fin_ack: None,
            stall_hist: Histogram::disabled(),
            predictors: Box::new(Predictors::new()),
            codec_metrics: CodecMetrics::detached(),
            spans: None,
        };
        let hello = wire::hello_message(NET_VERSION, CODEC_ID, session);
        fwd.push_bytes(&hello)?;
        // The WELCOME carries the initial allowance; harvest() records it
        // as a plain credit grant.
        let deadline = Instant::now() + fwd.handshake_timeout;
        while fwd.credit == 0 {
            if !fwd.harvest()? && Instant::now() >= deadline {
                return Err(NetError::Io(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "timed out waiting for the server handshake",
                )));
            }
            if fwd.credit == 0 {
                std::thread::sleep(Duration::from_micros(100));
            }
        }
        Ok(fwd)
    }

    /// Publishes this forwarder's credit-stall durations to `registry` as
    /// the `igm_net_credit_stall_nanos` histogram (e.g. the co-located
    /// pool's registry in a loopback deployment, or a client-side registry
    /// served by its own [`StatsServer`](igm_obs::StatsServer)), together
    /// with the `igm_codec_*` byte counters and encode-latency histogram.
    pub fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        self.stall_hist = registry.histogram(
            "igm_net_credit_stall_nanos",
            "Wall-clock wait for a server credit grant, per stall",
        );
        self.codec_metrics = CodecMetrics::register(registry);
    }

    /// Makes this forwarder a span origin on `recorder` (e.g. the pool's
    /// own recorder in a loopback deployment, or a client-side recorder
    /// served by the client's [`StatsServer`](igm_obs::StatsServer)):
    /// every chunk gets a frame sequence number under a freshly allocated
    /// flow, the recorder's sampler decides once per chunk whether the
    /// frame's journey is recorded, and sampled chunks stamp
    /// `client_send` / `credit_stall` stages on [`Track::Client`] while
    /// carrying their tag across the wire for the server-side stages to
    /// chain under.
    pub fn attach_spans(&mut self, recorder: &Arc<FlightRecorder>) {
        self.spans = Some(ClientSpans {
            rec: Arc::clone(recorder),
            ring: recorder.ring_handle(),
            flow: alloc_flow(),
            sampler: recorder.sampler(),
            next_seq: 0,
        });
    }

    /// Client-side counters so far.
    pub fn stats(&self) -> ForwarderStats {
        self.stats
    }

    /// The chunking granularity ([`ForwarderConfig::chunk_bytes`]).
    pub fn chunk_bytes(&self) -> u32 {
        self.chunk_bytes
    }

    /// Sends one pre-batched chunk as one frame, waiting for credit if the
    /// allowance is spent. An empty batch sends nothing.
    pub fn send_batch(&mut self, batch: &TraceBatch) -> Result<(), NetError> {
        if batch.is_empty() {
            return Ok(());
        }
        let tag = self.spans.as_mut().and_then(ClientSpans::tag_chunk);
        // `client_send` opens before the encode and closes when the last
        // byte hits the socket, so a credit stall nests inside it — the
        // waterfall shows where the send window went.
        let send_start = match (&self.spans, tag) {
            (Some(s), Some(_)) => Some(s.rec.now()),
            _ => None,
        };
        self.frame.clear();
        let started = self.codec_metrics.start_encode();
        encode_frame_with(&mut self.predictors, &mut self.frame, batch);
        self.codec_metrics.stop_encode(started);
        self.codec_metrics.count_frame(batch.len() as u64, self.frame.len() as u64);
        self.wait_for_credit(tag)?;
        // Credit accounts the whole chunk payload — span prefix included
        // — matching the server's received-bytes ledger.
        let payload_len = self.frame.len() + SPAN_PREFIX_BYTES;
        let mut header = Vec::with_capacity(MSG_HEADER_BYTES + SPAN_PREFIX_BYTES);
        wire::push_header(&mut header, wire::msg::CHUNK, payload_len);
        wire::push_span_prefix(&mut header, tag);
        self.push_bytes(&header)?;
        let frame = std::mem::take(&mut self.frame);
        let r = self.push_bytes(&frame);
        self.frame = frame;
        r?;
        if let (Some(s), Some(tag), Some(t0)) = (&self.spans, tag, send_start) {
            s.rec.record(s.ring, Stage::ClientSend, Track::Client(s.flow), tag, t0, s.rec.now());
        }
        self.credit -= payload_len as i64;
        self.stats.chunks += 1;
        self.stats.records += batch.len() as u64;
        self.stats.frame_bytes += payload_len as u64;
        Ok(())
    }

    /// Streams a whole record iterator, chunked at
    /// [`TraceForwarder::chunk_bytes`] — the remote twin of
    /// [`SessionHandle::stream`](igm_runtime::SessionHandle::stream).
    pub fn stream(&mut self, trace: impl IntoIterator<Item = TraceEntry>) -> Result<(), NetError> {
        let mut chunker = chunks(trace, self.chunk_bytes);
        let mut batch = TraceBatch::new();
        while chunker.next_into_batch(&mut batch) {
            self.send_batch(&batch)?;
        }
        Ok(())
    }

    /// Forwards a recorded trace stream chunk-for-chunk (each recorded
    /// frame becomes one wire chunk, so the server reproduces the capture's
    /// batch structure). Returns the records forwarded.
    pub fn forward_reader<R: Read>(
        &mut self,
        reader: &mut TraceReader<R>,
    ) -> Result<u64, NetError> {
        let mut batch = TraceBatch::new();
        let mut records = 0u64;
        while reader.read_chunk_into_batch(&mut batch)? {
            records += batch.len() as u64;
            self.send_batch(&batch)?;
        }
        Ok(records)
    }

    /// Forwards the recorded trace file at `path`.
    pub fn forward_file(&mut self, path: impl AsRef<Path>) -> Result<u64, NetError> {
        let file = File::open(path)?;
        let mut reader = TraceReader::new(BufReader::new(file))?;
        self.forward_reader(&mut reader)
    }

    /// Clean shutdown: sends `FIN` with the final lane stats, waits for
    /// the server's `FIN_ACK`, and reports both sides' counts.
    pub fn finish(mut self) -> Result<ForwarderReport, NetError> {
        let fin = wire::fin_message(&FinStats {
            chunks: self.stats.chunks,
            records: self.stats.records,
            frame_bytes: self.stats.frame_bytes,
            credit_stalls: self.stats.credit_stalls,
        });
        self.push_bytes(&fin)?;
        let deadline = Instant::now() + self.handshake_timeout;
        loop {
            if let Some(records) = self.fin_ack {
                return Ok(ForwarderReport { stats: self.stats, server_records: records });
            }
            match self.harvest() {
                Ok(true) => {}
                Ok(false) => {
                    if Instant::now() >= deadline {
                        return Err(NetError::Io(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "timed out waiting for FIN_ACK",
                        )));
                    }
                    std::thread::sleep(Duration::from_micros(100));
                }
                // The server may close the socket right after flushing the
                // FIN_ACK; if the ack landed in the same harvest that saw
                // the EOF, the shutdown was clean — only fail when the
                // connection died *without* acknowledging.
                Err(e) => {
                    if let Some(records) = self.fin_ack {
                        return Ok(ForwarderReport { stats: self.stats, server_records: records });
                    }
                    return Err(e);
                }
            }
        }
    }

    /// Blocks (polling) until the credit allowance is positive. A stall
    /// on a sampled frame leaves a `credit_stall` stage under `tag`.
    fn wait_for_credit(&mut self, tag: Option<FrameTag>) -> Result<(), NetError> {
        self.harvest()?;
        if self.credit > 0 {
            return Ok(());
        }
        self.stats.credit_stalls += 1;
        let start = Instant::now();
        while self.credit <= 0 {
            if !self.harvest()? {
                std::thread::sleep(Duration::from_micros(50));
            }
        }
        let stalled = start.elapsed().as_nanos() as u64;
        self.stats.credit_stall_nanos += stalled;
        self.stall_hist.record(stalled);
        if let (Some(s), Some(tag)) = (&self.spans, tag) {
            let track = Track::Client(s.flow);
            s.rec.record(s.ring, Stage::CreditStall, track, tag, s.rec.stamp(start), s.rec.now());
        }
        Ok(())
    }

    /// Drains whatever server messages are available without blocking.
    /// Returns whether anything was processed.
    fn harvest(&mut self) -> Result<bool, NetError> {
        let mut processed = false;
        loop {
            while let Some((ty, range)) = self.inbuf.peek_message()? {
                let payload_end = range.end;
                match ty {
                    wire::msg::WELCOME => {
                        let grant = wire::decode_welcome(self.inbuf.bytes(range))?;
                        self.credit += grant as i64;
                    }
                    wire::msg::CREDIT => {
                        let grant = wire::decode_credit(self.inbuf.bytes(range))?;
                        self.credit += grant as i64;
                    }
                    wire::msg::FIN_ACK => {
                        self.fin_ack = Some(wire::decode_fin_ack(self.inbuf.bytes(range))?);
                    }
                    wire::msg::ERROR => {
                        let reason = wire::decode_error(self.inbuf.bytes(range))?;
                        return Err(NetError::Rejected(reason));
                    }
                    _ => return Err(NetError::Malformed("unexpected message type from server")),
                }
                self.inbuf.consume(payload_end);
                processed = true;
            }
            match self.inbuf.fill_from(&mut self.stream, 16 * 1024)? {
                Fill::Bytes(_) => continue,
                Fill::WouldBlock => return Ok(processed),
                Fill::Eof => {
                    return Err(NetError::Disconnected(if self.inbuf.has_buffered() {
                        "server closed mid-message"
                    } else {
                        "server closed the connection"
                    }))
                }
            }
        }
    }

    /// Writes all of `bytes` on the nonblocking socket, harvesting server
    /// messages while the send buffer is full (so a credit grant can never
    /// deadlock against a large in-flight chunk).
    fn push_bytes(&mut self, bytes: &[u8]) -> Result<(), NetError> {
        let mut sent = 0usize;
        while sent < bytes.len() {
            match self.stream.write(&bytes[sent..]) {
                Ok(0) => return Err(NetError::Disconnected("socket closed while sending")),
                Ok(n) => sent += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.harvest()?;
                    std::thread::sleep(Duration::from_micros(50));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(NetError::Io(e)),
            }
        }
        Ok(())
    }
}
