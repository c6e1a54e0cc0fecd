//! # igm-span — end-to-end frame provenance
//!
//! The metrics registry (`igm-obs`) aggregates *where time goes on
//! average*; this crate answers *where one frame went*: a sampled span
//! layer that follows a single trace frame through the whole pipeline —
//! client send → credit stall → server ingest → channel wait → dispatch →
//! violation — as a chain of fixed-size stage records
//! written into a lock-free [`FlightRecorder`].
//!
//! ## Model
//!
//! - A **flow** (`u32`) identifies one producer lane or session; a
//!   **frame seq** (`u64`) counts frames within it. The pair — a
//!   [`FrameTag`] — is the chain key: every stage record stamped with the
//!   same tag belongs to the same frame's waterfall.
//! - Sampling is decided **once per frame** at its origin (the
//!   `TraceForwarder` for remote tenants, the session handle for local
//!   ones) by a cheap counter ([`Sampler`]); unsampled frames carry
//!   `None` and cost one branch at every stage site.
//! - A stage record is one [`Stage`] id, a [`Track`] (which worker, lane
//!   or client observed it), the tag, and `t_start`/`t_end` nanos
//!   relative to the recorder's epoch.
//!
//! ## The flight recorder
//!
//! [`FlightRecorder`] is a set of fixed-size rings of seqlock-versioned
//! slots: writers claim a slot with one relaxed `fetch_add`, bump the
//! slot's version odd, store the fields, bump it even — no locks, no
//! allocation, overwrite-oldest, never blocks the hot path. Each writer
//! site (worker, ingest lane, forwarder) records into its own ring
//! ([`FlightRecorder::ring_handle`]), so rings are single-writer by
//! construction; readers ([`FlightRecorder::since`],
//! [`FlightRecorder::chain`]) detect and discard slots torn by a
//! concurrent overwrite via the version word.
//!
//! Records carry a globally increasing sequence number, so
//! `/spans.json?since=N` cursor paging works exactly like the event
//! ring's, including a `dropped` count for records that were overwritten
//! before they were read.
//!
//! ## Export
//!
//! [`SpanSnapshot::to_json`] backs the `/spans.json` endpoint;
//! [`chrome_trace`] renders any record set as Chrome trace-event JSON
//! (open it in `chrome://tracing` or Perfetto: one track per worker, one
//! per lane, one per client).

#![deny(missing_docs)]

mod export;
mod record;

pub use export::chrome_trace;
pub use record::{name_hash, tenant_id, trace_id, RecordId};

use std::sync::atomic::{fence, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Default sampling cadence: one frame in 64 is followed end to end.
pub const DEFAULT_SAMPLE_EVERY: u32 = 64;

/// Process-global flow allocator (starts at 1; flow 0 is never issued, so
/// it can serve as a "no flow" placeholder in packed encodings).
static NEXT_FLOW: AtomicU32 = AtomicU32::new(1);

/// Allocates a fresh flow id, unique within this process. Flows are
/// assigned per producer (one per forwarder connection, one per local
/// session), so in a loopback run client-side and server-side stages of
/// the same frame share a flow while independent producers never collide.
/// Across hosts each process draws from its own counter; joining those
/// waterfalls is the reader's job (the chain key is still unique per
/// host-side recorder).
pub fn alloc_flow() -> u32 {
    NEXT_FLOW.fetch_add(1, Ordering::Relaxed)
}

/// One pipeline stage a frame passes through, in causal order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Stage {
    /// Client side: one frame encoded and pushed onto the socket.
    ClientSend = 0,
    /// Client side: the forwarder stalled waiting for wire credit.
    CreditStall = 1,
    /// Server side: the frame decoded off the wire into a batch arena.
    ServerIngest = 2,
    /// The batch sat in its tenant's log channel (publish → worker pickup).
    ChannelWait = 3,
    /// The batch ran through `dispatch_batch` + lifeguard handlers.
    Dispatch = 4,
    /// A lifeguard raised a violation while handling the frame.
    ///
    /// Code 5 belonged to a retired stage and stays unused: stage codes
    /// are never renumbered.
    Violation = 6,
}

impl Stage {
    /// Every stage, in causal order.
    pub const ALL: [Stage; 6] = [
        Stage::ClientSend,
        Stage::CreditStall,
        Stage::ServerIngest,
        Stage::ChannelWait,
        Stage::Dispatch,
        Stage::Violation,
    ];

    /// Stable lowercase label (metric `stage` label values, JSON export).
    pub fn name(self) -> &'static str {
        match self {
            Stage::ClientSend => "client_send",
            Stage::CreditStall => "credit_stall",
            Stage::ServerIngest => "server_ingest",
            Stage::ChannelWait => "channel_wait",
            Stage::Dispatch => "dispatch",
            Stage::Violation => "violation",
        }
    }

    fn from_u8(v: u8) -> Option<Stage> {
        Stage::ALL.into_iter().find(|s| *s as u8 == v)
    }
}

/// Who observed a stage: the timeline ("thread") the record renders on in
/// the Chrome trace export.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Track {
    /// A pool worker, by worker index.
    Worker(u32),
    /// An ingest lane (local or socket), by lane id.
    Lane(u32),
    /// A forwarder client, by its flow id.
    Client(u32),
}

const TRACK_ID_MASK: u32 = (1 << 30) - 1;

impl Track {
    /// Packs the track into one u32 (2-bit kind, 30-bit id).
    pub fn code(self) -> u32 {
        match self {
            Track::Worker(id) => id & TRACK_ID_MASK,
            Track::Lane(id) => (1 << 30) | (id & TRACK_ID_MASK),
            Track::Client(id) => (2 << 30) | (id & TRACK_ID_MASK),
        }
    }

    /// Inverse of [`Track::code`].
    pub fn from_code(code: u32) -> Track {
        let id = code & TRACK_ID_MASK;
        match code >> 30 {
            1 => Track::Lane(id),
            2 => Track::Client(id),
            _ => Track::Worker(id),
        }
    }

    /// Human-readable track name ("worker 3", "lane 7", "client 12").
    pub fn label(self) -> String {
        match self {
            Track::Worker(id) => format!("worker {id}"),
            Track::Lane(id) => format!("lane {id}"),
            Track::Client(id) => format!("client {id}"),
        }
    }
}

/// The span context that rides with one sampled frame: the chain key
/// every stage record of that frame is stamped with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FrameTag {
    /// The producer's flow id ([`alloc_flow`]).
    pub flow: u32,
    /// The frame's ordinal within the flow.
    pub seq: u64,
}

/// The once-per-frame sampling decision: a cheap modular counter, safe to
/// drive through `&self` (the counter is atomic, one relaxed `fetch_add`
/// per frame). `every == 0` disables sampling entirely.
#[derive(Debug)]
pub struct Sampler {
    every: u32,
    n: AtomicU32,
}

impl Sampler {
    /// Samples one frame in `every` (0 = never).
    pub fn new(every: u32) -> Sampler {
        Sampler { every, n: AtomicU32::new(0) }
    }

    /// Decides the current frame; the first frame of a flow is always
    /// sampled (so short smoke runs still produce at least one chain).
    pub fn sample(&self) -> bool {
        if self.every == 0 {
            return false;
        }
        self.n.fetch_add(1, Ordering::Relaxed).is_multiple_of(self.every)
    }

    /// The configured cadence.
    pub fn every(&self) -> u32 {
        self.every
    }
}

/// Flight-recorder geometry.
#[derive(Debug, Clone)]
pub struct SpanConfig {
    /// Independent slot rings; each writer site records into one ring
    /// (assigned round-robin by [`FlightRecorder::ring_handle`]).
    pub rings: usize,
    /// Slots per ring (rounded up to a power of two).
    pub slots_per_ring: usize,
    /// Sampling cadence handed to [`FlightRecorder::sampler`].
    pub sample_every: u32,
}

impl Default for SpanConfig {
    fn default() -> SpanConfig {
        SpanConfig { rings: 8, slots_per_ring: 1024, sample_every: DEFAULT_SAMPLE_EVERY }
    }
}

/// An empty slot's `seq` sentinel (never issued: sequence numbers count
/// up from zero and the recorder would wrap the rings long before 2⁶⁴).
const SEQ_EMPTY: u64 = u64::MAX;

/// One seqlock-versioned slot. Writers bump `version` odd, store the
/// fields relaxed, bump it even; readers reject a slot whose version was
/// odd or changed across the field reads. All fields are atomics, so a
/// torn read is garbage-by-rejection, never undefined behaviour.
struct Slot {
    version: AtomicU64,
    seq: AtomicU64,
    /// `flow << 32 | track code`.
    flow_track: AtomicU64,
    stage: AtomicU64,
    frame_seq: AtomicU64,
    t_start: AtomicU64,
    t_end: AtomicU64,
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            version: AtomicU64::new(0),
            seq: AtomicU64::new(SEQ_EMPTY),
            flow_track: AtomicU64::new(0),
            stage: AtomicU64::new(0),
            frame_seq: AtomicU64::new(0),
            t_start: AtomicU64::new(0),
            t_end: AtomicU64::new(0),
        }
    }
}

struct Ring {
    head: AtomicUsize,
    slots: Box<[Slot]>,
}

/// One completed stage observation, as read back from the recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Global record sequence number (the `/spans.json` cursor).
    pub seq: u64,
    /// Which pipeline stage.
    pub stage: Stage,
    /// Which worker/lane/client observed it.
    pub track: Track,
    /// The frame chain key.
    pub tag: FrameTag,
    /// Stage start, nanos since the recorder's epoch.
    pub t_start: u64,
    /// Stage end, nanos since the recorder's epoch.
    pub t_end: u64,
}

impl SpanRecord {
    /// Stage duration in nanos.
    pub fn nanos(&self) -> u64 {
        self.t_end.saturating_sub(self.t_start)
    }
}

/// A cursor-paged read of the recorder (`/spans.json?since=N`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Records with `seq >= since`, in sequence order.
    pub spans: Vec<SpanRecord>,
    /// The next sequence number the recorder will issue; pass it back as
    /// the next request's `since` to read only newer records.
    pub next_seq: u64,
    /// Records in `[since, next_seq)` that were overwritten before this
    /// read (ring wrapped past them).
    pub dropped: u64,
}

/// The lock-free, overwrite-oldest span sink — see the crate docs for the
/// full model. Cheap enough to leave on in production: recording one
/// stage is a handful of relaxed atomic stores into a preallocated slot,
/// and unsampled frames never reach it.
pub struct FlightRecorder {
    rings: Box<[Ring]>,
    next_seq: AtomicU64,
    next_ring: AtomicUsize,
    sample_every: u32,
    epoch: Instant,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("rings", &self.rings.len())
            .field("slots_per_ring", &self.rings.first().map_or(0, |r| r.slots.len()))
            .field("next_seq", &self.next_seq.load(Ordering::Relaxed))
            .field("sample_every", &self.sample_every)
            .finish()
    }
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::new(SpanConfig::default())
    }
}

impl FlightRecorder {
    /// A recorder with the given geometry (slot counts rounded up to a
    /// power of two; at least one ring of at least two slots).
    pub fn new(cfg: SpanConfig) -> FlightRecorder {
        let rings = cfg.rings.max(1);
        let slots = cfg.slots_per_ring.next_power_of_two().max(2);
        let rings = (0..rings)
            .map(|_| Ring {
                head: AtomicUsize::new(0),
                slots: (0..slots).map(|_| Slot::empty()).collect(),
            })
            .collect();
        FlightRecorder {
            rings,
            next_seq: AtomicU64::new(0),
            next_ring: AtomicUsize::new(0),
            sample_every: cfg.sample_every,
            epoch: Instant::now(),
        }
    }

    /// The configured sampling cadence.
    pub fn sample_every(&self) -> u32 {
        self.sample_every
    }

    /// A fresh [`Sampler`] at the recorder's cadence.
    pub fn sampler(&self) -> Sampler {
        Sampler::new(self.sample_every)
    }

    /// Claims a ring index for a new writer site (round-robin). Each
    /// single-threaded writer (a worker, a forwarder, the ingest thread's
    /// lane) should record through its own handle so rings stay
    /// single-writer.
    pub fn ring_handle(&self) -> usize {
        self.next_ring.fetch_add(1, Ordering::Relaxed) % self.rings.len()
    }

    /// Nanos since the recorder's epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Converts an externally captured [`Instant`] (e.g. the SPSC
    /// channel's publish timestamp) to epoch-relative nanos. Instants
    /// predating the recorder clamp to zero.
    pub fn stamp(&self, at: Instant) -> u64 {
        at.checked_duration_since(self.epoch).map_or(0, |d| d.as_nanos() as u64)
    }

    /// Records one completed stage for a sampled frame. `ring` is the
    /// writer's [`FlightRecorder::ring_handle`] (out-of-range values
    /// wrap). Lock-free and allocation-free; overwrites the ring's oldest
    /// record when full.
    pub fn record(
        &self,
        ring: usize,
        stage: Stage,
        track: Track,
        tag: FrameTag,
        t_start: u64,
        t_end: u64,
    ) {
        let ring = &self.rings[ring % self.rings.len()];
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let idx = ring.head.fetch_add(1, Ordering::Relaxed) & (ring.slots.len() - 1);
        let slot = &ring.slots[idx];
        // Seqlock write: odd while in flight. The AcqRel RMWs keep the
        // field stores inside the odd window.
        slot.version.fetch_add(1, Ordering::AcqRel);
        slot.seq.store(seq, Ordering::Relaxed);
        slot.flow_track.store(((tag.flow as u64) << 32) | track.code() as u64, Ordering::Relaxed);
        slot.stage.store(stage as u8 as u64, Ordering::Relaxed);
        slot.frame_seq.store(tag.seq, Ordering::Relaxed);
        slot.t_start.store(t_start, Ordering::Relaxed);
        slot.t_end.store(t_end, Ordering::Relaxed);
        slot.version.fetch_add(1, Ordering::AcqRel);
    }

    /// Convenience: record a stage whose start was captured as an
    /// [`Instant`] and which ends now.
    pub fn record_since(
        &self,
        ring: usize,
        stage: Stage,
        track: Track,
        tag: FrameTag,
        started: Instant,
    ) -> u64 {
        let t_start = self.stamp(started);
        let t_end = self.now();
        self.record(ring, stage, track, tag, t_start, t_end);
        t_end.saturating_sub(t_start)
    }

    fn read_slot(slot: &Slot) -> Option<SpanRecord> {
        let v1 = slot.version.load(Ordering::Acquire);
        if v1 & 1 == 1 {
            return None; // mid-write
        }
        let seq = slot.seq.load(Ordering::Relaxed);
        let flow_track = slot.flow_track.load(Ordering::Relaxed);
        let stage = slot.stage.load(Ordering::Relaxed);
        let frame_seq = slot.frame_seq.load(Ordering::Relaxed);
        let t_start = slot.t_start.load(Ordering::Relaxed);
        let t_end = slot.t_end.load(Ordering::Relaxed);
        fence(Ordering::Acquire);
        if slot.version.load(Ordering::Relaxed) != v1 || seq == SEQ_EMPTY {
            return None; // torn by a concurrent overwrite, or never written
        }
        Some(SpanRecord {
            seq,
            stage: Stage::from_u8(stage as u8)?,
            track: Track::from_code(flow_track as u32),
            tag: FrameTag { flow: (flow_track >> 32) as u32, seq: frame_seq },
            t_start,
            t_end,
        })
    }

    /// Every currently readable record, in sequence order.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        self.since(0).spans
    }

    /// Cursor-paged read: records with `seq >= since`, plus the next
    /// cursor and how many records in the window were already overwritten.
    pub fn since(&self, since: u64) -> SpanSnapshot {
        let mut spans: Vec<SpanRecord> = self
            .rings
            .iter()
            .flat_map(|r| r.slots.iter())
            .filter_map(Self::read_slot)
            .filter(|rec| rec.seq >= since)
            .collect();
        spans.sort_unstable_by_key(|r| r.seq);
        let next_seq = self.next_seq.load(Ordering::Relaxed);
        let window = next_seq.saturating_sub(since.min(next_seq));
        let dropped = window.saturating_sub(spans.len() as u64);
        SpanSnapshot { spans, next_seq, dropped }
    }

    /// The completed span chain of one frame — every readable stage
    /// record carrying `tag`, in causal (start-time, then sequence)
    /// order. Allocates; meant for cold paths (violation snapshots, the
    /// stats endpoint), never the per-record hot path.
    pub fn chain(&self, tag: FrameTag) -> Vec<SpanRecord> {
        let mut chain: Vec<SpanRecord> = self
            .rings
            .iter()
            .flat_map(|r| r.slots.iter())
            .filter_map(Self::read_slot)
            .filter(|rec| rec.tag == tag)
            .collect();
        chain.sort_unstable_by_key(|r| (r.t_start, r.seq));
        chain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn sampler_cadence_and_off_switch() {
        let s = Sampler::new(4);
        let picks: Vec<bool> = (0..8).map(|_| s.sample()).collect();
        assert_eq!(picks, [true, false, false, false, true, false, false, false]);
        let off = Sampler::new(0);
        assert!((0..16).all(|_| !off.sample()));
        let every = Sampler::new(1);
        assert!((0..4).all(|_| every.sample()));
    }

    #[test]
    fn track_codes_round_trip() {
        for t in [Track::Worker(0), Track::Worker(7), Track::Lane(3), Track::Client(123)] {
            assert_eq!(Track::from_code(t.code()), t);
        }
    }

    #[test]
    fn records_read_back_in_sequence_order() {
        let rec = FlightRecorder::new(SpanConfig { rings: 2, slots_per_ring: 8, sample_every: 1 });
        let tag = FrameTag { flow: alloc_flow(), seq: 0 };
        rec.record(0, Stage::ChannelWait, Track::Worker(1), tag, 10, 20);
        rec.record(1, Stage::Dispatch, Track::Worker(1), tag, 20, 45);
        let snap = rec.since(0);
        assert_eq!(snap.dropped, 0);
        assert_eq!(snap.next_seq, 2);
        assert_eq!(snap.spans.len(), 2);
        assert_eq!(snap.spans[0].stage, Stage::ChannelWait);
        assert_eq!(snap.spans[0].nanos(), 10);
        assert_eq!(snap.spans[1].stage, Stage::Dispatch);
        assert_eq!(snap.spans[1].tag, tag);
    }

    #[test]
    fn overwrite_reports_dropped_and_cursor_pages() {
        let rec = FlightRecorder::new(SpanConfig { rings: 1, slots_per_ring: 4, sample_every: 1 });
        let tag = FrameTag { flow: 9, seq: 0 };
        for i in 0..10u64 {
            rec.record(0, Stage::Dispatch, Track::Worker(0), tag, i, i + 1);
        }
        // Ring holds 4 slots; records 0..6 were overwritten.
        let snap = rec.since(0);
        assert_eq!(snap.next_seq, 10);
        assert_eq!(snap.spans.len(), 4);
        assert_eq!(snap.spans.iter().map(|r| r.seq).collect::<Vec<_>>(), [6, 7, 8, 9]);
        assert_eq!(snap.dropped, 6);
        // Cursor past the head: empty, nothing dropped.
        let tail = rec.since(10);
        assert!(tail.spans.is_empty());
        assert_eq!(tail.dropped, 0);
        // Cursor inside the overwritten region.
        let mid = rec.since(4);
        assert_eq!(mid.spans.len(), 4);
        assert_eq!(mid.dropped, 2);
    }

    #[test]
    fn chain_joins_stages_across_rings_in_causal_order() {
        let rec = FlightRecorder::new(SpanConfig { rings: 4, slots_per_ring: 16, sample_every: 1 });
        let tag = FrameTag { flow: 5, seq: 3 };
        let other = FrameTag { flow: 5, seq: 4 };
        rec.record(2, Stage::Dispatch, Track::Worker(2), tag, 300, 400);
        rec.record(0, Stage::ClientSend, Track::Client(5), tag, 0, 100);
        rec.record(1, Stage::ChannelWait, Track::Worker(2), tag, 150, 300);
        rec.record(3, Stage::Dispatch, Track::Worker(0), other, 1, 2);
        let chain = rec.chain(tag);
        assert_eq!(
            chain.iter().map(|r| r.stage).collect::<Vec<_>>(),
            [Stage::ClientSend, Stage::ChannelWait, Stage::Dispatch]
        );
        assert!(chain.iter().all(|r| r.tag == tag));
    }

    #[test]
    fn concurrent_hammering_never_yields_garbage() {
        let rec = Arc::new(FlightRecorder::new(SpanConfig {
            rings: 4,
            slots_per_ring: 8,
            sample_every: 1,
        }));
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let rec = Arc::clone(&rec);
                std::thread::spawn(move || {
                    let ring = rec.ring_handle();
                    for i in 0..20_000u64 {
                        let tag = FrameTag { flow: w, seq: i };
                        rec.record(ring, Stage::Dispatch, Track::Worker(w), tag, i, i + 7);
                    }
                })
            })
            .collect();
        for _ in 0..200 {
            for r in rec.snapshot() {
                // Field coherence: a torn slot must have been rejected.
                assert_eq!(r.stage, Stage::Dispatch);
                assert_eq!(r.t_end - r.t_start, 7);
                assert_eq!(r.t_start, r.tag.seq);
            }
        }
        for w in writers {
            w.join().unwrap();
        }
        let snap = rec.since(0);
        assert_eq!(snap.next_seq, 80_000);
        assert_eq!(snap.spans.len(), 4 * 8);
    }
}
