//! Scheduling properties of the work-stealing pool: session migration
//! between workers must be invisible in the results. For every
//! lifeguard, the pool's per-session violation sequences must equal a sequential monitor's over the same traces, across
//! randomized worker counts, chunk sizes and tenant/chunk interleavings —
//! and an idle worker must actually steal from a loaded one.

use igm_core::{AccelConfig, DispatchPipeline};
use igm_isa::{Annotation, CtrlOp, JumpTarget, MemRef, OpClass, Reg, TraceEntry};
use igm_lba::EventBuf;
use igm_lifeguards::{CostSink, Lifeguard, LifeguardKind, Violation};
use igm_runtime::{MonitorPool, PoolConfig, SessionConfig};
use proptest::prelude::*;

/// A trace for `kind` with violations planted every `stride` records at
/// predictable offsets, amid benign filler.
fn planted_trace(kind: LifeguardKind, n: usize, stride: usize, seed: u32) -> Vec<TraceEntry> {
    let heap = 0x9000_0000u32;
    let mut trace = Vec::with_capacity(n + 8);
    trace.push(TraceEntry::annot(0x10, Annotation::Malloc { base: heap, size: 0x1000 }));
    for i in 0..n as u32 {
        let pc = 0x1000 + 4 * i;
        let addr = heap + 4 * ((i.wrapping_mul(seed | 1)) % 0x400);
        let benign = match i % 4 {
            0 => TraceEntry::op(pc, OpClass::ImmToMem { dst: MemRef::word(addr) }),
            1 => TraceEntry::op(pc, OpClass::MemToReg { src: MemRef::word(addr), rd: Reg::Eax }),
            2 => TraceEntry::op(pc, OpClass::RegToReg { rs: Reg::Eax, rd: Reg::Ecx }),
            _ => TraceEntry::op(pc, OpClass::DestRegOpReg { rs: Reg::Ecx, rd: Reg::Eax }),
        };
        trace.push(benign);
        if (i as usize + 1).is_multiple_of(stride) {
            match kind {
                LifeguardKind::AddrCheck | LifeguardKind::MemCheck => {
                    // Touch unallocated memory.
                    trace.push(TraceEntry::op(
                        pc + 1,
                        OpClass::MemToReg { src: MemRef::word(0xdead_0000 + 8 * i), rd: Reg::Edx },
                    ));
                }
                LifeguardKind::LockSet => {
                    // Two threads write the same fresh word, no lock held.
                    let w = 0xb000_0000 + 4 * i;
                    trace.push(TraceEntry::op(pc + 1, OpClass::ImmToMem { dst: MemRef::word(w) }));
                    trace.push(TraceEntry::annot(pc + 2, Annotation::ThreadSwitch { tid: 1 }));
                    trace.push(TraceEntry::op(pc + 3, OpClass::ImmToMem { dst: MemRef::word(w) }));
                    trace.push(TraceEntry::annot(pc + 4, Annotation::ThreadSwitch { tid: 0 }));
                }
                _ => {
                    // Jump through untrusted input.
                    let buf = 0xa000_0000 + 0x40 * i;
                    trace.push(TraceEntry::annot(
                        pc + 1,
                        Annotation::ReadInput { base: buf, len: 4 },
                    ));
                    trace.push(TraceEntry::op(
                        pc + 2,
                        OpClass::MemToReg { src: MemRef::word(buf), rd: Reg::Ebx },
                    ));
                    trace.push(TraceEntry::ctrl(
                        pc + 3,
                        CtrlOp::Indirect { target: JumpTarget::Reg(Reg::Ebx) },
                    ));
                }
            }
        }
    }
    trace
}

/// The sequential reference: one lifeguard, one pipeline, one pass.
fn sequential_violations(kind: LifeguardKind, trace: &[TraceEntry]) -> Vec<Violation> {
    let accel = AccelConfig::baseline();
    let mut lifeguard = kind.build_any(&accel);
    let mut pipeline = DispatchPipeline::new(lifeguard.etct(), &kind.mask_config(&accel));
    let mut events = EventBuf::new();
    let mut cost = CostSink::new();
    pipeline.dispatch_batch(&igm_lba::TraceBatch::from_entries(trace), &mut events);
    lifeguard.handle_batch(events.events(), &mut cost);
    lifeguard.take_violations()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Pool violations == sequential violations for every lifeguard,
    /// under randomized worker counts, per-send chunk sizes and
    /// cross-tenant chunk interleavings.
    #[test]
    fn pool_matches_sequential_monitor(
        workers in 1usize..=4,
        tenants in 1usize..=3,
        n in 200usize..700,
        stride in 13usize..60,
        chunk_records in 1usize..48,
        seed in 1u32..1000,
    ) {
        for kind in LifeguardKind::ALL {
            let traces: Vec<Vec<TraceEntry>> = (0..tenants)
                .map(|t| planted_trace(kind, n + 31 * t, stride, seed + t as u32))
                .collect();
            let expected: Vec<Vec<Violation>> =
                traces.iter().map(|t| sequential_violations(kind, t)).collect();
            prop_assert!(
                expected.iter().all(|v| !v.is_empty()),
                "{kind}: planted patterns must fire"
            );

            let pool = MonitorPool::new(PoolConfig {
                workers,
                channel_capacity_bytes: 4096,
                chunk_bytes: 512,
                ..PoolConfig::default()
            });
            let sessions: Vec<_> = (0..tenants)
                .map(|t| {
                    pool.open_session(SessionConfig::new(format!("t{t}"), kind))
                })
                .collect();
            // Interleave: round-robin one chunk per tenant, rotating the
            // starting tenant each round so arrival orders vary.
            let mut offsets = vec![0usize; tenants];
            let mut round = 0usize;
            loop {
                let mut sent_any = false;
                for i in 0..tenants {
                    let t = (i + round) % tenants;
                    let off = offsets[t];
                    if off < traces[t].len() {
                        let end = (off + chunk_records).min(traces[t].len());
                        sessions[t].send_batch(traces[t][off..end].to_vec()).unwrap();
                        offsets[t] = end;
                        sent_any = true;
                    }
                }
                round += 1;
                if !sent_any {
                    break;
                }
            }
            for (t, session) in sessions.into_iter().enumerate() {
                let report = session.finish();
                prop_assert_eq!(report.records, traces[t].len() as u64);
                prop_assert_eq!(
                    &report.violations, &expected[t],
                    "{} tenant {} (workers={}, chunk={})", kind, t, workers, chunk_records
                );
            }
            pool.shutdown();
        }
    }
}

/// An idle worker must steal a runnable session from a loaded one. Session
/// placement is round-robin, so opening hot/idle/hot/idle puts *both* hot
/// tenants on shard 0 and only immediately-dropped tenants on shard 1:
/// while worker 0 pumps one hot session, the other sits runnable in its
/// deque, and idle worker 1 — whose own deque is empty — must take it.
#[test]
fn idle_worker_steals_the_hot_session() {
    let pool = MonitorPool::new(PoolConfig {
        workers: 2,
        channel_capacity_bytes: 16 * 1024,
        chunk_bytes: 512,
        ..PoolConfig::default()
    });
    let hot_a = pool.open_session(SessionConfig::new("hot-a", LifeguardKind::TaintCheck));
    let idle = pool.open_session(SessionConfig::new("idle", LifeguardKind::TaintCheck));
    let hot_b = pool.open_session(SessionConfig::new("hot-b", LifeguardKind::TaintCheck));
    drop(idle); // shard 1 finalizes it at once and goes idle

    let trace = planted_trace(LifeguardKind::TaintCheck, 60_000, 997, 7);
    let expected = sequential_violations(LifeguardKind::TaintCheck, &trace);
    let (ra, rb) = std::thread::scope(|scope| {
        let ta = scope.spawn(|| {
            hot_a.stream(trace.iter().copied()).expect("pool alive");
            hot_a.finish()
        });
        let tb = scope.spawn(|| {
            hot_b.stream(trace.iter().copied()).expect("pool alive");
            hot_b.finish()
        });
        (ta.join().unwrap(), tb.join().unwrap())
    });

    for report in [&ra, &rb] {
        assert_eq!(report.records, trace.len() as u64);
        assert_eq!(report.violations, expected, "migration must not perturb results");
    }
    let stats = pool.stats();
    assert!(
        stats.steals > 0,
        "an idle worker next to a loaded shard must steal (steals = {})",
        stats.steals
    );
    pool.shutdown();
}

/// Stealing transfers the shadow shard with the session: metadata
/// established in batches processed on the victim worker must be visible to
/// checks processed after migration (otherwise the malloc'd region would
/// re-flag as unallocated).
#[test]
fn shadow_state_survives_migration() {
    let pool = MonitorPool::new(PoolConfig {
        workers: 2,
        channel_capacity_bytes: 64 * 1024,
        chunk_bytes: 256,
        ..PoolConfig::default()
    });
    let hot = pool.open_session(SessionConfig::new("hot", LifeguardKind::AddrCheck));
    let idle = pool.open_session(SessionConfig::new("idle", LifeguardKind::AddrCheck));
    drop(idle);

    // One malloc up front; every later access depends on that first
    // record's metadata having travelled with the session.
    let trace = planted_trace(LifeguardKind::AddrCheck, 120_000, 1009, 3);
    let expected = sequential_violations(LifeguardKind::AddrCheck, &trace);
    hot.stream(trace.iter().copied()).expect("pool alive");
    let report = hot.finish();
    assert_eq!(report.violations, expected);
    pool.shutdown();
}
