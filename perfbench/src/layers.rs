//! The traced run's sequential replay. Worker-side layers cannot be seen
//! from outside the pool, so the workload's batches are replayed on one
//! thread through each layer's public functions, one span per call:
//! `igm_lba::extract_batch`, `DispatchPipeline::dispatch_batch`,
//! `Lifeguard::handle_batch`, `TraceWriter::write_chunk_batch` (plain and
//! `with_index`), `TraceReader::read_chunk_into_batch`,
//! `CoSim::step_record` and `Simulator::run_trace`.

use crate::inputs::Tenant;
use crate::spans::Tracer;
use igm_core::DispatchPipeline;
use igm_lba::{chunks, extract_batch, EventBuf, TraceBatch};
use igm_lifeguards::{CostSink, Lifeguard};
use igm_sim::{SimConfig, Simulator};
use igm_timing::{CoSim, SystemConfig};
use igm_trace::{TraceReader, TraceWriter};

/// Records per `CoSim::step_record` span (a span per call would cost more
/// than the call).
const STEP_SPAN_RECORDS: usize = 4096;

/// Counts the replay makes at the layer boundaries.
#[derive(Default)]
pub struct Replay {
    pub records: u64,
    pub events_extracted: u64,
    pub delivered: u64,
    pub unregistered_dropped: u64,
    pub if_lookups: u64,
    pub if_hits: u64,
    pub it_prop_in: u64,
    pub it_prop_filtered: u64,
    pub encoded_bytes: u64,
    pub index_bytes: u64,
    pub handler_instrs: u64,
    pub stall_cycles: u64,
    pub monitored_cycles: u64,
    pub failures: Vec<String>,
}

/// Replays every tenant through the layers, then through
/// `Simulator::run_trace` under the tenant's own configuration.
pub fn replay(tenants: &[Tenant], chunk_bytes: u32, tr: &mut Tracer) -> Replay {
    let mut r = Replay::default();
    let mut events = EventBuf::new();
    for t in tenants {
        r.records += t.records.len() as u64;
        let mut batches: Vec<TraceBatch> = Vec::new();
        let mut chunker = chunks(t.records.iter().copied(), chunk_bytes);
        loop {
            let mut b = TraceBatch::new();
            let g = tr.begin("lba.chunks");
            let more = chunker.next_into_batch(&mut b);
            tr.end(g);
            if !more {
                break;
            }
            batches.push(b);
        }

        for b in &batches {
            let g = tr.begin("lba.extract_batch");
            extract_batch(b, &mut events);
            tr.end(g);
            r.events_extracted += events.len() as u64;
        }

        let build = || {
            let mut lg = t.kind.build_any(&t.accel);
            lg.set_synthetic_workload_mode(true);
            for (base, len) in &t.premark {
                lg.premark_region(*base, *len);
            }
            lg
        };
        let mut lg = build();
        let mut pipeline = DispatchPipeline::new(lg.etct(), &t.kind.mask_config(&t.accel));
        let mut cost = CostSink::new();
        for b in &batches {
            let g = tr.begin("core.DispatchPipeline::dispatch_batch");
            pipeline.dispatch_batch(b, &mut events);
            tr.end(g);
            cost.clear();
            let g = tr.begin("lifeguards.Lifeguard::handle_batch");
            lg.handle_batch(events.events(), &mut cost);
            tr.end(g);
        }
        let ds = pipeline.stats();
        r.delivered += ds.delivered;
        r.unregistered_dropped += ds.unregistered_dropped;
        if let Some(f) = pipeline.if_stats() {
            r.if_lookups += f.lookups;
            r.if_hits += f.hits;
        }
        if let Some(it) = pipeline.it_stats() {
            r.it_prop_in += it.prop_in;
            r.it_prop_filtered += it.prop_filtered;
        }

        let mut plain = TraceWriter::new(Vec::new()).expect("in-memory writer");
        for b in &batches {
            let g = tr.begin("trace.TraceWriter::write_chunk_batch");
            plain.write_chunk_batch(b).expect("in-memory encode");
            tr.end(g);
        }
        let encoded = plain.finish().expect("in-memory encode");
        r.encoded_bytes += encoded.len() as u64;
        let mut indexed = TraceWriter::with_index(Vec::new()).expect("in-memory writer");
        for b in &batches {
            let g = tr.begin("trace.TraceWriter::write_chunk_batch+index");
            indexed.write_chunk_batch(b).expect("in-memory encode");
            tr.end(g);
        }
        r.index_bytes += indexed.take_index().map_or(0, |i| i.posting_bytes());
        let mut reader = TraceReader::new(&encoded[..]).expect("encoded header");
        let mut decoded = TraceBatch::new();
        let mut back = 0u64;
        loop {
            let g = tr.begin("trace.TraceReader::read_chunk_into_batch");
            let more = reader.read_chunk_into_batch(&mut decoded).expect("decode what was encoded");
            tr.end(g);
            if !more {
                break;
            }
            back += decoded.len() as u64;
        }
        if back != t.records.len() as u64 {
            r.failures.push(format!("{}: decoded {back} of {} records", t.name, t.records.len()));
        }

        // The cycle model's inputs per record, gathered untimed so the
        // timed loop is `CoSim::step_record` alone.
        let mut lg = build();
        let mut pipeline = DispatchPipeline::new(lg.etct(), &t.kind.mask_config(&t.accel));
        let mut delivered: Vec<u32> = Vec::with_capacity(t.records.len());
        let mut instrs: Vec<u64> = Vec::with_capacity(t.records.len());
        let mut mem_end: Vec<u32> = Vec::with_capacity(t.records.len());
        let mut mem: Vec<u32> = Vec::new();
        for e in &t.records {
            let (mut d, mut i) = (0u32, 0u64);
            pipeline.dispatch(e, |dev| {
                cost.clear();
                lg.handle(&dev, &mut cost);
                d += 1;
                i += cost.instrs();
                mem.extend_from_slice(cost.mem_vas());
            });
            delivered.push(d);
            instrs.push(i);
            mem_end.push(mem.len() as u32);
        }
        let mut cosim = CoSim::new(SystemConfig::isca08());
        let mut at = 0usize;
        while at < t.records.len() {
            let end = (at + STEP_SPAN_RECORDS).min(t.records.len());
            let g = tr.begin("timing.CoSim::step_record");
            for k in at..end {
                let lo = if k == 0 { 0 } else { mem_end[k - 1] as usize };
                let m = &mem[lo..mem_end[k] as usize];
                cosim.step_record(&t.records[k], delivered[k], instrs[k], m);
            }
            tr.end(g);
            at = end;
        }
        let timing = cosim.finish();
        r.handler_instrs += timing.handler_instrs;
        r.stall_cycles += timing.producer_stall_cycles;
        r.monitored_cycles += timing.monitored_cycles;

        let sim = Simulator::new(SimConfig::with_accel(t.kind, t.accel));
        let g = tr.begin("sim.Simulator::run_trace");
        let report = sim.run_trace(&t.premark, None, t.records.iter().copied());
        tr.end(g);
        std::hint::black_box(&report);
    }
    r
}
