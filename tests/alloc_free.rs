//! Steady-state monitoring of a batch performs **no heap allocation** on
//! the dispatch path. This binary installs a counting global allocator;
//! after one warm-up pass over a batch (which sizes the staging buffers,
//! faults in shadow chunks and warms accelerator state), re-dispatching and
//! re-handling the same batch must leave the allocation counter untouched —
//! extraction arena, post-IT buffer, delivered-event buffer and handler
//! cost sink are all reused. Both dispatch front doors are covered: the
//! columnar `dispatch_batch` over a `TraceBatch` and the array-of-structs
//! `dispatch_batch_entries` compatibility path.

use igm::accel::{AccelConfig, DispatchPipeline, ItConfig};
use igm::isa::{MemRef, OpClass, Reg, TraceEntry};
use igm::lba::{EventBuf, TraceBatch};
use igm::lifeguards::{CostSink, Lifeguard, LifeguardKind};
use igm::runtime::{MonitorPool, PoolConfig, SessionConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The pool test reads the process-wide allocation counter, so no other
/// test may run while it measures (it would observe their allocations).
static SERIAL: Mutex<()> = Mutex::new(());

/// Counts every allocation-path entry (alloc, alloc_zeroed, realloc).
struct CountingAllocator;

/// Allocations on every thread: what the threaded pool test bounds.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Allocations on the current thread: what the single-threaded
    /// zero-allocation tests assert on. The test harness allocates on its
    /// own threads (collecting a finished test's output, spawning the
    /// next), so a process-wide count would charge those to whichever
    /// test happens to be measuring.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    // `try_with`: the slot is gone while the thread tears down.
    let _ = THREAD_ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn thread_allocations() -> u64 {
    THREAD_ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const HEAP: u32 = 0x9000_0000;

/// A steady-state batch: stores then loads over a premarked region plus
/// register traffic — every event class of the hot path, no rare-path
/// records (malloc/free record-list updates are allowed to allocate).
fn steady_batch(n: u32) -> Vec<TraceEntry> {
    let mut batch = Vec::with_capacity(n as usize);
    for i in 0..n {
        let pc = 0x1000 + 4 * i;
        let addr = HEAP + 4 * (i % 0x200);
        batch.push(match i % 6 {
            0 => TraceEntry::op(pc, OpClass::ImmToMem { dst: MemRef::word(addr) }),
            1 => TraceEntry::op(pc, OpClass::MemToReg { src: MemRef::word(addr), rd: Reg::Eax }),
            2 => TraceEntry::op(pc, OpClass::RegToReg { rs: Reg::Eax, rd: Reg::Ecx }),
            3 => TraceEntry::op(pc, OpClass::RegToMem { rs: Reg::Ecx, dst: MemRef::word(addr) }),
            4 => {
                TraceEntry::op(pc, OpClass::DestRegOpMem { src: MemRef::word(addr), rd: Reg::Edx })
            }
            _ => TraceEntry::op(pc, OpClass::ImmToReg { rd: Reg::Ebx }),
        });
    }
    batch
}

#[test]
fn steady_state_columnar_dispatch_allocates_nothing() {
    let _serial = SERIAL.lock().unwrap();
    let batch = TraceBatch::from_entries(&steady_batch(2_048));
    for kind in LifeguardKind::ALL {
        for accel in [AccelConfig::baseline(), AccelConfig::full(ItConfig::taint_style())] {
            let masked = kind.mask_config(&accel);
            let mut lifeguard = kind.build_any(&accel);
            lifeguard.premark_region(HEAP, 0x1000);
            let mut pipeline = DispatchPipeline::new(lifeguard.etct(), &masked);
            let mut cost = CostSink::new();
            let mut events = EventBuf::new();

            // Warm-up: size the arenas, fault in shadow chunks, warm the
            // M-TLB/IF state. Two passes so capacity growth settles.
            for _ in 0..2 {
                pipeline.dispatch_batch(&batch, &mut events);
                cost.clear();
                lifeguard.handle_batch(events.events(), &mut cost);
            }
            let violations = lifeguard.take_violations();
            assert!(
                violations.is_empty(),
                "{kind}: steady-state batch must be clean, got {:?}",
                violations.first()
            );

            // Measured steady-state pass: the whole batch through the
            // column sweeps → IT → ETCT → IF → handlers, zero allocations.
            let before = thread_allocations();
            pipeline.dispatch_batch(&batch, &mut events);
            cost.clear();
            lifeguard.handle_batch(events.events(), &mut cost);
            let after = thread_allocations();
            assert_eq!(
                after - before,
                0,
                "{kind} / {}: {} allocation(s) on the steady-state columnar dispatch path",
                accel.label(),
                after - before
            );
            assert!(!events.is_empty(), "{kind}: events must actually flow");
        }
    }
}

/// The batch can also be *built* allocation-free at steady state: clearing
/// a warm arena and re-scattering the same records must not touch the
/// allocator (column capacity is retained), and the AoS compatibility
/// dispatch stays zero-alloc too.
#[test]
fn steady_state_batch_build_and_aos_dispatch_allocate_nothing() {
    let _serial = SERIAL.lock().unwrap();
    let entries = steady_batch(2_048);
    let kind = LifeguardKind::AddrCheck;
    let accel = AccelConfig::baseline();
    let mut lifeguard = kind.build_any(&accel);
    lifeguard.premark_region(HEAP, 0x1000);
    let mut pipeline = DispatchPipeline::new(lifeguard.etct(), &kind.mask_config(&accel));
    let mut cost = CostSink::new();
    let mut events = EventBuf::new();
    let mut batch = TraceBatch::new();

    for _ in 0..2 {
        batch.clear();
        batch.extend_entries(entries.iter().copied());
        pipeline.dispatch_batch(&batch, &mut events);
        cost.clear();
        lifeguard.handle_batch(events.events(), &mut cost);
        pipeline.dispatch_batch_entries(&entries, &mut events);
        cost.clear();
        lifeguard.handle_batch(events.events(), &mut cost);
    }

    let before = thread_allocations();
    batch.clear();
    batch.extend_entries(entries.iter().copied());
    pipeline.dispatch_batch(&batch, &mut events);
    cost.clear();
    lifeguard.handle_batch(events.events(), &mut cost);
    pipeline.dispatch_batch_entries(&entries, &mut events);
    cost.clear();
    lifeguard.handle_batch(events.events(), &mut cost);
    let after = thread_allocations();
    assert_eq!(after - before, 0, "batch refill + AoS dispatch must be allocation-free");
}

/// The pool keeps the arena discipline end to end: every `TraceBatch` a
/// worker drains rides back through the session channel's spare pool, so
/// a producer that fills [`SessionHandle::spare_batch`] arenas refills
/// recycled column capacity instead of building fresh batches. A threaded
/// pool run is not held to zero allocations (its scheduling bookkeeping,
/// such as the lifecycle event ring, is not audited here), but it must
/// amortize: after a warm-up stretch, streaming another `N` records
/// through two workers has to cost well under one allocation per record —
/// without recycling, rebuilding each batch's column arenas alone would
/// blow through that bound.
///
/// [`SessionHandle::spare_batch`]: igm::runtime::SessionHandle::spare_batch
#[test]
fn pool_recycles_batch_arenas() {
    let _serial = SERIAL.lock().unwrap();
    let entries = steady_batch(256);
    // A channel four batches deep, as the default 64 KiB channel is at
    // the default 16 KiB chunk size. The spare pool parks at most eight
    // drained arenas, so a producer allowed to run dozens of batches ahead
    // would outgrow it and build fresh ones whatever the recycling.
    let batch_bytes = TraceBatch::from_entries(&entries).compressed_bytes();
    let pool = MonitorPool::new(PoolConfig {
        channel_capacity_bytes: 4 * batch_bytes,
        ..PoolConfig::with_workers(2)
    });
    let session = pool.open_session(
        SessionConfig::new("hot", LifeguardKind::AddrCheck).premark(&[(HEAP, 0x1000)]),
    );
    let send = || {
        let mut batch = session.spare_batch();
        batch.extend_entries(entries.iter().copied());
        session.send_batch(batch).unwrap();
    };

    // Warm-up: circulate enough arenas to fill the channel and settle
    // column capacities.
    for _ in 0..64 {
        send();
    }
    let chunks = 256u64;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..chunks {
        send();
    }
    let report = session.finish();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(report.violations.is_empty(), "steady batch must be clean");
    let allocs = after - before;
    let records = chunks * entries.len() as u64;
    assert!(
        allocs < records / 8,
        "pool steady state allocated {allocs} times for {records} records — \
         drained arenas are not being recycled"
    );
    pool.shutdown();
}

/// The observability layer keeps the same discipline: a dispatch pass
/// wrapped in registry instrumentation — histogram start/stop timing,
/// counter adds, gauge occupancy updates, an explicit `record`, and span
/// flight-recorder stage writes (the seqlock ring is fixed slots, so
/// recording a sampled frame's stages is pure stores) — stays
/// zero-allocation. (Registration and recorder construction are
/// setup-path; they happen before the measured window, exactly as
/// `MonitorPool::new` registers before any record flows.)
#[test]
fn instrumented_dispatch_stays_allocation_free() {
    let _serial = SERIAL.lock().unwrap();
    let registry = igm::obs::MetricsRegistry::new();
    let records = registry.counter("igm_records_total", "records dispatched");
    let occupancy = registry.gauge("igm_occupancy_bytes", "live queue bytes");
    let dispatch = registry.histogram("igm_dispatch_batch_nanos", "one batch through dispatch");
    let queue = registry.histogram("igm_queue_latency_nanos", "send to drain");
    let recorder = igm::span::FlightRecorder::new(igm::span::SpanConfig::default());
    let ring = recorder.ring_handle();
    let flow = igm::span::alloc_flow();
    let sampler = recorder.sampler();

    let entries = steady_batch(2_048);
    let batch = TraceBatch::from_entries(&entries);
    let kind = LifeguardKind::TaintCheck;
    let accel = AccelConfig::full(ItConfig::taint_style());
    let mut lifeguard = kind.build_any(&accel);
    lifeguard.premark_region(HEAP, 0x1000);
    let mut pipeline = DispatchPipeline::new(lifeguard.etct(), &kind.mask_config(&accel));
    let mut cost = CostSink::new();
    let mut events = EventBuf::new();

    for _ in 0..2 {
        pipeline.dispatch_batch(&batch, &mut events);
        cost.clear();
        lifeguard.handle_batch(events.events(), &mut cost);
    }

    let before = thread_allocations();
    occupancy.add(batch.len() as i64);
    let queued = queue.start();
    // The span hot path: one sampling branch, then stage records into the
    // fixed-slot seqlock ring around the dispatch.
    let tag = sampler
        .sample()
        .then_some(igm::span::FrameTag { flow, seq: 0 })
        .expect("the first frame of a flow is always sampled");
    let picked_up = recorder.now();
    let t0 = dispatch.start();
    pipeline.dispatch_batch(&batch, &mut events);
    cost.clear();
    lifeguard.handle_batch(events.events(), &mut cost);
    dispatch.stop(t0);
    recorder.record(
        ring,
        igm::span::Stage::Dispatch,
        igm::span::Track::Worker(0),
        tag,
        picked_up,
        recorder.now(),
    );
    queue.stop(queued);
    records.add(batch.len() as u64);
    occupancy.sub(batch.len() as i64);
    queue.record(37);
    let after = thread_allocations();
    assert_eq!(
        after - before,
        0,
        "{} allocation(s) on the instrumented steady-state dispatch path",
        after - before
    );
    assert_eq!(records.value(), batch.len() as u64);
    assert_eq!(occupancy.value(), 0);
    let snap = registry.snapshot();
    let h = snap.histogram_sample("igm_dispatch_batch_nanos", None).expect("registered");
    assert_eq!(h.hist.count(), 1, "the measured pass was timed");
    let chain = recorder.chain(tag);
    assert_eq!(chain.len(), 1, "the dispatch stage landed in the ring");
    assert_eq!(chain[0].stage, igm::span::Stage::Dispatch);
}
