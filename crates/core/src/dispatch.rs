//! The event-dispatch pipeline: record extraction → Inheritance Tracking →
//! ETCT gating → Idempotent Filter → handler delivery.
//!
//! This is the consumer-side hardware of the paper's Figure 3: the
//! `fetch & decompress` and `log record dispatch` components, extended with
//! the IT and IF units proposed by the paper (dashed boxes).
//!
//! Stage order per record:
//!
//! 1. **Extraction** — the record expands into its events
//!    ([`igm_lba::extract_events`]).
//! 2. **Early gating** — check and annotation events whose type the
//!    lifeguard never registered are dropped for free (`nlba` skips them).
//!    Propagation events always enter IT (its table must observe every
//!    data-flow instruction to stay coherent).
//! 3. **Inheritance Tracking** — absorbs/transforms propagation events and
//!    register-source checks; annotation records flush the table first
//!    (their handlers may rewrite arbitrary metadata, invalidating lazy
//!    inheritance).
//! 4. **ETCT gating** — IT output events of unregistered types are dropped.
//! 5. **Idempotent Filter** — invalidations and redundant-check filtering
//!    per the lifeguard's ETCT configuration.
//! 6. **Delivery** — everything surviving reaches the lifeguard's handler.

use crate::config::AccelConfig;
use crate::filter::{IdempotentFilter, IfOutcome, IfStats};
use crate::it::{InheritanceTracker, ItStats};
use igm_isa::TraceEntry;
use igm_lba::{
    extract_batch, extract_batch_entries, sweep_batch, DeliveredEvent, Etct, EtctEntry, Event,
    EventBuf, EventSink, EventType, TraceBatch, NUM_EVENT_TYPES,
};

/// Aggregate pipeline counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatchStats {
    /// Log records dispatched.
    pub records: u64,
    /// Events produced by extraction.
    pub events_extracted: u64,
    /// Events dropped because their type is unregistered.
    pub unregistered_dropped: u64,
    /// Events discarded by the Idempotent Filter.
    pub if_filtered: u64,
    /// Events delivered to lifeguard handlers.
    pub delivered: u64,
    /// Delivered events broken down by [`igm_lba::EventType`] index.
    pub delivered_by_type: [u64; NUM_EVENT_TYPES],
}

impl Default for DispatchStats {
    fn default() -> DispatchStats {
        DispatchStats {
            records: 0,
            events_extracted: 0,
            unregistered_dropped: 0,
            if_filtered: 0,
            delivered: 0,
            delivered_by_type: [0; NUM_EVENT_TYPES],
        }
    }
}

/// The dispatch pipeline with its optional accelerator units.
///
/// # Example
///
/// ```
/// use igm_core::{AccelConfig, DispatchPipeline, ItConfig};
/// use igm_lba::{Etct, EventType, IfEventConfig};
/// use igm_isa::{OpClass, MemRef, Reg, TraceEntry};
///
/// let mut etct = Etct::new();
/// etct.register_plain(EventType::MemToReg);
/// etct.register_plain(EventType::MemToMem);
/// etct.register_plain(EventType::RegToMem);
/// etct.register_plain(EventType::ImmToMem);
///
/// let mut p = DispatchPipeline::new(etct, &AccelConfig::lma_it(ItConfig::taint_style()));
/// // A load is absorbed by IT: nothing reaches the handler.
/// let load = TraceEntry::op(0x1000, OpClass::MemToReg {
///     src: MemRef::word(0x9000), rd: Reg::Eax });
/// let mut seen = Vec::new();
/// p.dispatch(&load, |d| seen.push(d));
/// assert!(seen.is_empty());
/// assert_eq!(p.stats().records, 1);
/// ```
///
/// The pipeline is `Clone + Send`: the streaming runtime (`igm-runtime`)
/// instantiates one pipeline per lifeguard shard and moves it onto a worker
/// thread; a clone snapshots the accelerator state.
#[derive(Debug, Clone)]
pub struct DispatchPipeline {
    etct: Etct,
    it: Option<InheritanceTracker>,
    filter: Option<IdempotentFilter>,
    stats: DispatchStats,
    raw: EventBuf,
    post_it: Vec<DeliveredEvent>,
    single: EventBuf,
}

impl DispatchPipeline {
    /// Builds a pipeline for a lifeguard's ETCT under `cfg`.
    pub fn new(etct: Etct, cfg: &AccelConfig) -> DispatchPipeline {
        DispatchPipeline {
            etct,
            it: cfg.it.map(InheritanceTracker::new),
            filter: cfg.if_geometry.map(IdempotentFilter::new),
            stats: DispatchStats::default(),
            raw: EventBuf::with_capacity(8, 1),
            post_it: Vec::with_capacity(8),
            single: EventBuf::with_capacity(8, 1),
        }
    }

    /// The pipeline's ETCT.
    pub fn etct(&self) -> &Etct {
        &self.etct
    }

    /// Aggregate counters.
    pub fn stats(&self) -> &DispatchStats {
        &self.stats
    }

    /// Inheritance Tracking counters, when the unit is present.
    pub fn it_stats(&self) -> Option<&ItStats> {
        self.it.as_ref().map(|t| t.stats())
    }

    /// Idempotent Filter counters, when the unit is present.
    pub fn if_stats(&self) -> Option<&IfStats> {
        self.filter.as_ref().map(|f| f.stats())
    }

    /// Dispatches a whole columnar [`TraceBatch`] through
    /// extraction → IT → ETCT gating → IF in one call, appending every
    /// surviving event to `out` (cleared first; one closed [`EventBuf`]
    /// record per trace entry).
    ///
    /// This is the hot path: extraction sweeps the batch's columns
    /// ([`igm_lba::extract_batch`]) and all staging buffers — the
    /// extraction arena, the post-IT buffer and `out` itself — are reused
    /// across batches, so steady-state dispatch performs no per-record heap
    /// allocation.
    pub fn dispatch_batch(&mut self, batch: &TraceBatch, out: &mut EventBuf) {
        out.clear();
        self.stats.records += batch.len() as u64;
        if self.it.is_some() {
            // Inheritance Tracking consumes the full raw event stream
            // record-at-a-time (it may absorb, transform or flush), so the
            // IT configurations extract into the staging arena first.
            let mut raw = std::mem::take(&mut self.raw);
            extract_batch(batch, &mut raw);
            self.stats.events_extracted += raw.len() as u64;
            self.gate_into(&raw, out);
            self.raw = raw;
        } else {
            // Fused columnar path: ETCT gating (and the IF) run *inside*
            // the column sweep. Every emission site knows its event type
            // statically, so the gate is one precomputed-row test per
            // site — no per-event type re-derivation, no staging arena,
            // and events of unregistered types are dropped before their
            // payloads are even constructed.
            let mut sink = GateSink {
                etct: &self.etct,
                filter: self.filter.as_mut(),
                stats: &mut self.stats,
                out,
            };
            sweep_batch(batch, &mut sink);
        }
    }

    /// Dispatches a chunk still held as an array of structs — the
    /// compatibility twin of [`DispatchPipeline::dispatch_batch`] for
    /// callers without a [`TraceBatch`] at hand (and the AoS baseline the
    /// throughput bench measures the columnar path against). Extraction
    /// runs the per-record [`igm_lba::extract_batch_entries`] path; gating
    /// and delivery are shared with the columnar path, so the two are
    /// event-for-event and counter-for-counter identical.
    pub fn dispatch_batch_entries(&mut self, entries: &[TraceEntry], out: &mut EventBuf) {
        out.clear();
        self.stats.records += entries.len() as u64;
        let mut raw = std::mem::take(&mut self.raw);
        extract_batch_entries(entries, &mut raw);
        self.stats.events_extracted += raw.len() as u64;
        self.gate_into(&raw, out);
        self.raw = raw;
    }

    /// The shared post-extraction stages: IT (when present), then ETCT
    /// gating and the Idempotent Filter, record boundaries preserved.
    fn gate_into(&mut self, raw: &EventBuf, out: &mut EventBuf) {
        if self.it.is_some() {
            let mut post_it = std::mem::take(&mut self.post_it);
            for rec in raw.record_slices() {
                post_it.clear();
                for dev in rec.iter().copied() {
                    match (&mut self.it, &dev.event) {
                        (Some(it), Event::Annot(_)) => {
                            if self.etct.is_registered(dev.event.event_type()) {
                                // The annotation handler may rewrite metadata
                                // arbitrarily: materialize all lazy inheritance
                                // before it runs.
                                it.flush_all(dev.pc, &mut post_it);
                            }
                            post_it.push(dev);
                        }
                        (Some(it), Event::Prop(_)) => it.process(dev.pc, dev.event, &mut post_it),
                        (Some(it), Event::Check { .. }) => {
                            // Register-source checks resolve through the IT
                            // table, but only if the lifeguard cares about
                            // this check kind.
                            if self.etct.is_registered(dev.event.event_type()) {
                                it.process(dev.pc, dev.event, &mut post_it);
                            } else {
                                self.stats.unregistered_dropped += 1;
                            }
                        }
                        _ => post_it.push(dev),
                    }
                }
                self.deliver(&post_it, out);
                out.end_record();
            }
            self.post_it = post_it;
        } else {
            // Without IT the post-IT stage is the identity: gate straight
            // off the extraction arena, no per-event copy through the
            // staging buffer.
            for rec in raw.record_slices() {
                self.deliver(rec, out);
                out.end_record();
            }
        }
    }

    /// ETCT gating + IF + delivery accounting for one record's events.
    /// Extraction emits events of one type in runs (all of a record's
    /// address checks, then its accesses, then its propagation event), so
    /// the ETCT row is looked up once per run rather than once per event.
    fn deliver(&mut self, evs: &[DeliveredEvent], out: &mut EventBuf) {
        let mut run: Option<(EventType, EtctEntry)> = None;
        for dev in evs.iter().copied() {
            let et = dev.event.event_type();
            let row = match run {
                Some((run_et, row)) if run_et == et => row,
                _ => {
                    let row = *self.etct.entry(et);
                    run = Some((et, row));
                    row
                }
            };
            if !row.registered {
                self.stats.unregistered_dropped += 1;
                continue;
            }
            if let Some(f) = &mut self.filter {
                if f.process(dev.pc, &dev.event, &row.if_cfg) == IfOutcome::Filtered {
                    self.stats.if_filtered += 1;
                    continue;
                }
            }
            self.stats.delivered += 1;
            self.stats.delivered_by_type[et.index()] += 1;
            out.push(dev);
        }
    }

    /// Dispatches one log record, invoking `deliver` for every event that
    /// survives the accelerators. Thin wrapper over the
    /// [`DispatchPipeline::dispatch_batch_entries`] for record-at-a-time
    /// callers (the co-simulator, tests); streaming consumers should
    /// dispatch whole chunks instead.
    pub fn dispatch(&mut self, entry: &TraceEntry, mut deliver: impl FnMut(DeliveredEvent)) {
        let mut single = std::mem::take(&mut self.single);
        self.dispatch_batch_entries(std::slice::from_ref(entry), &mut single);
        for dev in single.events().iter().copied() {
            deliver(dev);
        }
        self.single = single;
    }
}

/// The fused ETCT/IF gate as a column-sweep sink (the no-IT hot path of
/// [`DispatchPipeline::dispatch_batch`]): gating and delivery accounting
/// happen at the emission sites of [`igm_lba::sweep_batch`], where the
/// event type is a compile-time constant — the ETCT row lookup is a single
/// indexed load per site and unregistered events are never constructed.
struct GateSink<'a> {
    etct: &'a Etct,
    filter: Option<&'a mut IdempotentFilter>,
    stats: &'a mut DispatchStats,
    out: &'a mut EventBuf,
}

impl EventSink for GateSink<'_> {
    #[inline(always)]
    fn event(&mut self, pc: u32, et: EventType, make: impl FnOnce() -> Event) {
        self.stats.events_extracted += 1;
        let row = self.etct.entry(et);
        if !row.registered {
            self.stats.unregistered_dropped += 1;
            return;
        }
        let ev = make();
        if let Some(f) = self.filter.as_deref_mut() {
            if f.process(pc, &ev, &row.if_cfg) == IfOutcome::Filtered {
                self.stats.if_filtered += 1;
                return;
            }
        }
        self.stats.delivered += 1;
        self.stats.delivered_by_type[et.index()] += 1;
        self.out.push(DeliveredEvent::new(pc, ev));
    }

    #[inline(always)]
    fn end_record(&mut self) {
        self.out.end_record();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::it::ItConfig;
    use igm_isa::{Annotation, MemRef, OpClass, Reg};
    use igm_lba::{EventType, IfEventConfig};

    /// Test-local stand-in for the removed per-record `dispatch_collect`:
    /// one record through the batch path, delivered events collected.
    fn collect(p: &mut DispatchPipeline, e: &TraceEntry) -> Vec<DeliveredEvent> {
        let mut out = Vec::new();
        p.dispatch(e, |d| out.push(d));
        out
    }

    /// The streaming runtime moves pipelines and accelerator units across
    /// worker threads and clones them per shard; keep that statically true.
    #[test]
    fn pipeline_and_accelerators_are_send_and_clone() {
        fn assert_send_clone<T: Send + Clone>() {}
        assert_send_clone::<DispatchPipeline>();
        assert_send_clone::<InheritanceTracker>();
        assert_send_clone::<IdempotentFilter>();
        assert_send_clone::<crate::MetadataTlb>();
    }

    #[test]
    fn cloned_pipeline_diverges_independently() {
        let mut p = DispatchPipeline::new(addrcheck_etct(), &AccelConfig::lma_if());
        let load =
            TraceEntry::op(0x10, OpClass::MemToReg { src: MemRef::word(0x9000), rd: Reg::Eax });
        collect(&mut p, &load);
        let mut q = p.clone();
        assert_eq!(q.stats().records, 1);
        // The clone's IF inherits the warm entry (the load is filtered)...
        assert_eq!(collect(&mut q, &load).len(), 0);
        // ...but the original's counters are unaffected by the clone's run.
        assert_eq!(p.stats().records, 1);
        assert_eq!(q.stats().records, 2);
    }

    fn taint_etct() -> Etct {
        let mut etct = Etct::new();
        etct.register_all([
            EventType::ImmToReg,
            EventType::ImmToMem,
            EventType::RegToReg,
            EventType::RegToMem,
            EventType::MemToReg,
            EventType::MemToMem,
            EventType::DestRegOpReg,
            EventType::DestRegOpMem,
            EventType::DestMemOpReg,
            EventType::Other,
            EventType::CheckJumpTarget,
            EventType::Malloc,
            EventType::ReadInput,
        ]);
        etct
    }

    fn addrcheck_etct() -> Etct {
        let mut etct = Etct::new();
        etct.register(EventType::MemRead, IfEventConfig::cacheable_addr(0));
        etct.register(EventType::MemWrite, IfEventConfig::cacheable_addr(0));
        etct.register(EventType::Malloc, IfEventConfig::invalidates_all());
        etct.register(EventType::Free, IfEventConfig::invalidates_all());
        etct
    }

    #[test]
    fn baseline_delivers_registered_events_untouched() {
        let mut p = DispatchPipeline::new(taint_etct(), &AccelConfig::baseline());
        let load =
            TraceEntry::op(0x10, OpClass::MemToReg { src: MemRef::word(0x9000), rd: Reg::Eax });
        let out = collect(&mut p, &load);
        // MemRead is unregistered for TaintCheck; the propagation event is
        // delivered.
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].event,
            Event::Prop(OpClass::MemToReg { src: MemRef::word(0x9000), rd: Reg::Eax })
        );
        assert_eq!(p.stats().unregistered_dropped, 1);
    }

    #[test]
    fn it_absorbs_register_traffic_end_to_end() {
        let mut p =
            DispatchPipeline::new(taint_etct(), &AccelConfig::lma_it(ItConfig::taint_style()));
        let a = MemRef::word(0xa0);
        let d = MemRef::word(0xd0);
        let seq = [
            TraceEntry::op(1, OpClass::MemToReg { src: a, rd: Reg::Eax }),
            TraceEntry::op(2, OpClass::RegToReg { rs: Reg::Eax, rd: Reg::Ecx }),
            TraceEntry::op(3, OpClass::RegToMem { rs: Reg::Ecx, dst: d }),
        ];
        let mut out = Vec::new();
        for e in &seq {
            out.extend(collect(&mut p, e));
        }
        // Only the final store reaches software, transformed to mem_to_mem.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].event, Event::Prop(OpClass::MemToMem { src: a, dst: d }));
    }

    #[test]
    fn annotations_flush_it_before_delivery() {
        let mut p =
            DispatchPipeline::new(taint_etct(), &AccelConfig::lma_it(ItConfig::taint_style()));
        let a = MemRef::word(0xa0);
        collect(&mut p, &TraceEntry::op(1, OpClass::MemToReg { src: a, rd: Reg::Eax }));
        let out =
            collect(&mut p, &TraceEntry::annot(2, Annotation::Malloc { base: 0x9000, size: 64 }));
        // Flush events (one per register) precede the annotation.
        assert_eq!(out.len(), 9);
        assert!(matches!(out[8].event, Event::Annot(Annotation::Malloc { .. })));
        assert!(matches!(out[0].event, Event::Prop(_)));
    }

    #[test]
    fn unregistered_annotation_does_not_flush() {
        let mut p =
            DispatchPipeline::new(taint_etct(), &AccelConfig::lma_it(ItConfig::taint_style()));
        let a = MemRef::word(0xa0);
        collect(&mut p, &TraceEntry::op(1, OpClass::MemToReg { src: a, rd: Reg::Eax }));
        // ThreadSwitch is unregistered for TaintCheck.
        let out = collect(&mut p, &TraceEntry::annot(2, Annotation::ThreadSwitch { tid: 1 }));
        assert!(out.is_empty());
    }

    #[test]
    fn if_filters_redundant_accesses_and_invalidates_on_malloc() {
        let mut p = DispatchPipeline::new(addrcheck_etct(), &AccelConfig::lma_if());
        let load =
            TraceEntry::op(0x10, OpClass::MemToReg { src: MemRef::word(0x9000), rd: Reg::Eax });
        assert_eq!(collect(&mut p, &load).len(), 1);
        assert_eq!(collect(&mut p, &load).len(), 0); // filtered
        assert_eq!(p.stats().if_filtered, 1);
        // malloc invalidates; the next access re-checks.
        let m = TraceEntry::annot(0x20, Annotation::Malloc { base: 0x9000, size: 16 });
        assert_eq!(collect(&mut p, &m).len(), 1);
        assert_eq!(collect(&mut p, &load).len(), 1);
    }

    #[test]
    fn check_kind_gating_happens_before_it() {
        // TaintCheck registers jump-target checks but not addr-compute
        // checks; the latter never enter IT.
        let mut p =
            DispatchPipeline::new(taint_etct(), &AccelConfig::lma_it(ItConfig::taint_style()));
        let load = TraceEntry::op(1, OpClass::MemToReg { src: MemRef::word(0x9000), rd: Reg::Eax })
            .with_addr_regs(igm_isa::RegSet::from_regs([Reg::Ebx]));
        let out = collect(&mut p, &load);
        assert!(out.is_empty());
        assert_eq!(p.it_stats().unwrap().check_in, 0);
    }

    #[test]
    fn dispatch_batch_equals_per_record_dispatch() {
        let a = MemRef::word(0xa0);
        let d = MemRef::word(0xd0);
        let seq = [
            TraceEntry::op(1, OpClass::MemToReg { src: a, rd: Reg::Eax }),
            TraceEntry::op(2, OpClass::RegToReg { rs: Reg::Eax, rd: Reg::Ecx }),
            TraceEntry::annot(3, Annotation::Malloc { base: 0x9000, size: 64 }),
            TraceEntry::op(4, OpClass::RegToMem { rs: Reg::Ecx, dst: d }),
            TraceEntry::op(5, OpClass::MemToReg { src: d, rd: Reg::Edx }),
        ];
        for accel in [
            AccelConfig::baseline(),
            AccelConfig::lma_if(),
            AccelConfig::full(ItConfig::taint_style()),
        ] {
            let mut per_record = DispatchPipeline::new(taint_etct(), &accel);
            let mut reference = Vec::new();
            for e in &seq {
                reference.extend(collect(&mut per_record, e));
            }

            let mut batched = DispatchPipeline::new(taint_etct(), &accel);
            let mut out = EventBuf::new();
            batched.dispatch_batch(&TraceBatch::from_entries(&seq), &mut out);
            assert_eq!(out.events(), &reference[..], "{}", accel.label());
            assert_eq!(out.records(), seq.len());
            assert_eq!(batched.stats(), per_record.stats(), "{}", accel.label());

            // The AoS compatibility twin is the same pipeline in disguise.
            let mut aos = DispatchPipeline::new(taint_etct(), &accel);
            let mut aos_out = EventBuf::new();
            aos.dispatch_batch_entries(&seq, &mut aos_out);
            assert_eq!(aos_out.events(), out.events(), "{}", accel.label());
            assert_eq!(aos.stats(), batched.stats(), "{}", accel.label());
        }
    }

    #[test]
    fn delivered_by_type_accounting() {
        let mut p = DispatchPipeline::new(addrcheck_etct(), &AccelConfig::baseline());
        let load =
            TraceEntry::op(0x10, OpClass::MemToReg { src: MemRef::word(0x9000), rd: Reg::Eax });
        let store =
            TraceEntry::op(0x14, OpClass::RegToMem { rs: Reg::Eax, dst: MemRef::word(0x9004) });
        collect(&mut p, &load);
        collect(&mut p, &store);
        let s = p.stats();
        assert_eq!(s.delivered_by_type[EventType::MemRead.index()], 1);
        assert_eq!(s.delivered_by_type[EventType::MemWrite.index()], 1);
        assert_eq!(s.delivered, 2);
        assert_eq!(s.records, 2);
    }
}
