//! The pool runs every session on one path, so scheduling must be
//! invisible in the results: whatever the worker count, channel size,
//! chunking or cross-tenant interleaving, each session's violation
//! sequence (in order) and `DispatchStats` have to equal the sequential
//! reference — the ordinary single-threaded `igm_sim::Monitor` over the
//! same trace. Covered: all five lifeguards on planted traces, TaintCheck
//! (± detailed) on a benchmark trace with tainted jumps at a prime stride,
//! baseline and fully accelerated, 1/2/4 workers, tiny channels and odd
//! chunk sizes.

use igm::accel::{AccelConfig, DispatchStats, ItConfig};
use igm::isa::{Annotation, CtrlOp, JumpTarget, MemRef, OpClass, Reg, TraceEntry};
use igm::lifeguards::{Lifeguard, LifeguardKind, Violation};
use igm::runtime::{MonitorPool, PoolConfig, SessionConfig};
use igm::sim::Monitor;
use igm::workload::Benchmark;
use proptest::prelude::*;

/// A trace for `kind` with violations planted every `stride` records.
fn planted_trace(kind: LifeguardKind, n: usize, stride: usize, seed: u32) -> Vec<TraceEntry> {
    let heap = 0x9000_0000u32;
    let mut trace = Vec::with_capacity(n + 8);
    trace.push(TraceEntry::annot(0x10, Annotation::Malloc { base: heap, size: 0x1000 }));
    for i in 0..n as u32 {
        let pc = 0x1000 + 8 * i;
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
                LifeguardKind::TaintCheck | LifeguardKind::TaintCheckDetailed => {
                    let end = trace.len();
                    plant_tainted_jump(&mut trace, end, 0xa000_0000 + 0x40 * i, pc + 1);
                }
            }
        }
    }
    trace
}

/// Inserts the three-record tainted-jump pattern at `at`: read untrusted
/// input into `buf`, load it, jump through it.
fn plant_tainted_jump(trace: &mut Vec<TraceEntry>, at: usize, buf: u32, pc: u32) {
    let pattern = [
        TraceEntry::annot(pc, Annotation::ReadInput { base: buf, len: 4 }),
        TraceEntry::op(pc + 1, OpClass::MemToReg { src: MemRef::word(buf), rd: Reg::Eax }),
        TraceEntry::ctrl(pc + 2, CtrlOp::Indirect { target: JumpTarget::Reg(Reg::Eax) }),
    ];
    trace.splice(at..at, pattern);
}

/// A benchmark trace with the tainted-jump pattern planted at a prime
/// stride, so the patterns fall at irregular offsets relative to any
/// power-of-two chunking.
fn tainted_trace(n: u64) -> Vec<TraceEntry> {
    let mut trace: Vec<TraceEntry> = Benchmark::Gcc.trace(n).collect();
    let mut at = 977usize;
    let mut k = 0u32;
    while at + 3 < trace.len() {
        plant_tainted_jump(&mut trace, at, 0xa000_0000 + k * 0x40, 0x7000_0000 + 0x10 * k);
        at += 977;
        k += 1;
    }
    trace
}

/// The sequential reference: the ordinary single-threaded `Monitor`.
fn sequential_reference(
    kind: LifeguardKind,
    accel: &AccelConfig,
    trace: &[TraceEntry],
) -> (Vec<Violation>, DispatchStats) {
    let mut seq = Monitor::new(kind.build_any(accel), accel);
    seq.observe_all(trace.iter().copied());
    let stats = seq.dispatch_stats().clone();
    let violations = seq.lifeguard_mut().take_violations();
    (violations, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Seven concurrent sessions in one pool — the five lifeguards on
    /// planted traces plus both TaintChecks on the prime-stride benchmark
    /// trace — fed round-robin in odd-sized chunks through tiny channels:
    /// every session's violations and dispatch counters equal the
    /// sequential reference exactly.
    #[test]
    fn pool_matches_sequential_reference(
        workers in prop_oneof![Just(1usize), Just(2usize), Just(4usize)],
        channel_capacity_bytes in 64u32..4096,
        chunk_records in 1usize..97,
        accelerated in any::<bool>(),
        n in 300usize..900,
        stride in 11usize..50,
        tainted_records in 2_000u64..8_000,
        seed in 1u32..1000,
    ) {
        let accel = if accelerated {
            AccelConfig::full(ItConfig::taint_style())
        } else {
            AccelConfig::baseline()
        };
        let mut inputs: Vec<(LifeguardKind, Vec<TraceEntry>)> = LifeguardKind::ALL
            .into_iter()
            .map(|kind| (kind, planted_trace(kind, n, stride, seed)))
            .collect();
        let tainted = tainted_trace(tainted_records);
        for kind in [LifeguardKind::TaintCheck, LifeguardKind::TaintCheckDetailed] {
            inputs.push((kind, tainted.clone()));
        }
        let expected: Vec<(Vec<Violation>, DispatchStats)> = inputs
            .iter()
            .map(|(kind, trace)| sequential_reference(*kind, &accel, trace))
            .collect();
        for ((kind, _), (violations, _)) in inputs.iter().zip(&expected) {
            prop_assert!(!violations.is_empty(), "{kind}: planted patterns must fire");
        }

        let pool = MonitorPool::new(PoolConfig {
            workers,
            channel_capacity_bytes,
            ..PoolConfig::default()
        });
        let sessions: Vec<_> = inputs
            .iter()
            .enumerate()
            .map(|(i, (kind, _))| {
                pool.open_session(SessionConfig::new(format!("t{i}"), *kind).accel(accel))
            })
            .collect();
        let mut chunked: Vec<_> =
            inputs.iter().map(|(_, trace)| trace.chunks(chunk_records)).collect();
        loop {
            let mut sent = false;
            for (session, chunks) in sessions.iter().zip(chunked.iter_mut()) {
                if let Some(chunk) = chunks.next() {
                    session.send_batch(chunk.to_vec()).unwrap();
                    sent = true;
                }
            }
            if !sent {
                break;
            }
        }
        for ((session, (kind, trace)), (violations, dispatch)) in
            sessions.into_iter().zip(&inputs).zip(&expected)
        {
            let report = session.finish();
            prop_assert_eq!(report.records, trace.len() as u64);
            prop_assert_eq!(
                &report.violations, violations,
                "{} violations (workers={}, chunk={})", kind, workers, chunk_records
            );
            prop_assert_eq!(
                &report.dispatch, dispatch,
                "{} dispatch stats (workers={}, chunk={})", kind, workers, chunk_records
            );
        }
        pool.shutdown();
    }
}
