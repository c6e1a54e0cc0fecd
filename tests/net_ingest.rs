//! Cross-host ingest equivalence, end to end over loopback.
//!
//! The acceptance bar for `igm-net`: a workload streamed through
//! `TraceForwarder` → `IngestServer` → `MonitorPool` must yield
//! violations and `DispatchStats` identical to the same workload run
//! locally, for all five lifeguards — the network transport is
//! semantically invisible, exactly like the paper's hardware log
//! transport between the application and lifeguard cores.

use igm::isa::{Annotation, CtrlOp, JumpTarget, MemRef, OpClass, Reg, TraceEntry};
use igm::lifeguards::LifeguardKind;
use igm::net::{ForwarderConfig, IngestServer, NetServerConfig, TraceForwarder};
use igm::runtime::{MonitorPool, PoolConfig, SessionConfig};
use igm::workload::{Benchmark, MtBenchmark};

/// A short buggy epilogue appended to a clean generated trace so the
/// equivalence is asserted over *non-empty* violation sets.
fn buggy_epilogue() -> Vec<TraceEntry> {
    vec![
        TraceEntry::annot(0x9100_0000, Annotation::Malloc { base: 0x0a00_0000, size: 64 }),
        TraceEntry::annot(0x9100_0004, Annotation::ReadInput { base: 0x0a00_0000, len: 4 }),
        TraceEntry::op(
            0x9100_0008,
            OpClass::MemToReg { src: MemRef::word(0x0a00_0040), rd: Reg::Edx },
        ),
        TraceEntry::op(
            0x9100_000c,
            OpClass::MemToReg { src: MemRef::word(0x0a00_0000), rd: Reg::Eax },
        ),
        TraceEntry::ctrl(0x9100_0010, CtrlOp::Indirect { target: JumpTarget::Reg(Reg::Eax) }),
        TraceEntry::annot(0x9100_0014, Annotation::Free { base: 0x0a00_0000 }),
    ]
}

fn session_cfg(kind: LifeguardKind, name: &str) -> SessionConfig {
    let premark = match kind {
        LifeguardKind::LockSet => MtBenchmark::Zchaff.trace(1).premark_regions(),
        _ => Benchmark::Gzip.profile().premark_regions(),
    };
    SessionConfig::new(name, kind).synthetic().premark(&premark)
}

fn workload_for(kind: LifeguardKind, n: u64) -> Vec<TraceEntry> {
    match kind {
        LifeguardKind::LockSet => MtBenchmark::Zchaff.trace(n).collect(),
        _ => {
            let mut trace: Vec<TraceEntry> = Benchmark::Gzip.trace(n).collect();
            trace.extend(buggy_epilogue());
            trace
        }
    }
}

#[test]
fn loopback_ingest_equals_the_local_run_for_all_five_lifeguards() {
    const N: u64 = 15_000;
    // The same chunking on both paths, so batch boundaries (semantically
    // inert, but visible in per-batch pipeline staging) line up exactly.
    const CHUNK: u32 = 16 * 1024;
    let pool = MonitorPool::new(PoolConfig { chunk_bytes: CHUNK, ..PoolConfig::with_workers(4) });

    for kind in [
        LifeguardKind::AddrCheck,
        LifeguardKind::MemCheck,
        LifeguardKind::TaintCheck,
        LifeguardKind::TaintCheckDetailed,
        LifeguardKind::LockSet,
    ] {
        let trace = workload_for(kind, N);

        // Local reference run.
        let local = {
            let session = pool.open_session(session_cfg(kind, kind.name()));
            session.stream(trace.iter().copied()).expect("pool alive");
            session.finish()
        };
        if !matches!(kind, LifeguardKind::LockSet) {
            assert!(
                !local.violations.is_empty(),
                "{kind:?}: the buggy epilogue must trip the lifeguard locally"
            );
        }

        // The same workload over the network: forwarder → server → pool.
        let server = IngestServer::bind("127.0.0.1:0", &pool, NetServerConfig::default()).unwrap();
        let addr = server.local_addr().unwrap();
        let cfg = session_cfg(kind, kind.name());
        let client = std::thread::spawn(move || {
            let fcfg = ForwarderConfig { chunk_bytes: CHUNK, ..ForwarderConfig::default() };
            let mut fwd = TraceForwarder::connect_with(addr, &cfg, fcfg).unwrap();
            fwd.stream(trace).unwrap();
            fwd.finish().unwrap()
        });
        let report = server.serve_connections(1);
        let fwd_report = client.join().unwrap();

        assert!(report.ingest.errors.is_empty(), "{kind:?}: {:?}", report.ingest.errors);
        assert_eq!(report.accepted, 1);
        let remote = &report.ingest.sessions[0];
        assert_eq!(fwd_report.server_records, fwd_report.stats.records, "{kind:?}: lost records");
        assert_eq!(remote.records, local.records, "{kind:?}: record counts diverge");
        assert_eq!(remote.violations, local.violations, "{kind:?}: violations diverge");
        assert_eq!(remote.dispatch, local.dispatch, "{kind:?}: dispatch stats diverge");
    }
    pool.shutdown();
}

#[test]
fn loopback_spans_join_client_and_server_stages_into_one_chain() {
    use igm::span::Stage;

    let pool = MonitorPool::new(PoolConfig::with_workers(2));
    let recorder = pool.recorder().expect("spans on by default").clone();
    let server = IngestServer::bind("127.0.0.1:0", &pool, NetServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();

    let rec = recorder.clone();
    let client = std::thread::spawn(move || {
        let cfg = session_cfg(LifeguardKind::AddrCheck, "spanful");
        let mut fwd = TraceForwarder::connect(addr, &cfg).unwrap();
        fwd.attach_spans(&rec);
        fwd.stream(Benchmark::Gzip.trace(20_000)).unwrap();
        fwd.finish().unwrap()
    });
    let report = server.serve_connections(1);
    let fwd_report = client.join().unwrap();
    assert!(report.ingest.errors.is_empty(), "{:?}", report.ingest.errors);
    assert_eq!(fwd_report.server_records, 20_000);

    // The forwarder's first chunk is always sampled; its chain must hold
    // both halves of the journey, causally ordered: the client-side send
    // and the server-side decode → channel wait → dispatch.
    let spans = recorder.snapshot();
    let sent = spans
        .iter()
        .find(|r| r.stage == Stage::ClientSend)
        .expect("a sampled frame left a client_send stage");
    let chain = recorder.chain(sent.tag);
    let stages: Vec<Stage> = chain.iter().map(|r| r.stage).collect();
    for want in [Stage::ClientSend, Stage::ServerIngest, Stage::ChannelWait, Stage::Dispatch] {
        assert!(stages.contains(&want), "chain {stages:?} is missing {want:?}");
    }
    let at = |s: Stage| stages.iter().position(|&x| x == s).unwrap();
    assert!(at(Stage::ClientSend) < at(Stage::ServerIngest), "client half precedes server half");
    assert!(at(Stage::ServerIngest) < at(Stage::ChannelWait));
    assert!(at(Stage::ChannelWait) < at(Stage::Dispatch));
    pool.shutdown();
}

#[test]
fn many_loopback_clients_multiplex_through_one_server_thread() {
    const N: u64 = 5_000;
    const TENANTS: [Benchmark; 6] = [
        Benchmark::Bzip2,
        Benchmark::Crafty,
        Benchmark::Gap,
        Benchmark::Gcc,
        Benchmark::Gzip,
        Benchmark::Mcf,
    ];
    let pool = MonitorPool::new(PoolConfig::with_workers(4));
    let server = IngestServer::bind("127.0.0.1:0", &pool, NetServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();

    let clients: Vec<_> = TENANTS
        .iter()
        .enumerate()
        .map(|(i, bench)| {
            let bench = *bench;
            std::thread::spawn(move || {
                let kind =
                    if i % 2 == 0 { LifeguardKind::AddrCheck } else { LifeguardKind::TaintCheck };
                let cfg = SessionConfig::new(bench.name(), kind)
                    .synthetic()
                    .premark(&bench.profile().premark_regions());
                let mut fwd = TraceForwarder::connect(addr, &cfg).unwrap();
                fwd.stream(bench.trace(N)).unwrap();
                fwd.finish().unwrap()
            })
        })
        .collect();
    let report = server.serve_connections(TENANTS.len());
    let fwd_reports: Vec<_> = clients.into_iter().map(|c| c.join().unwrap()).collect();

    assert_eq!(report.accepted, TENANTS.len());
    assert!(report.ingest.errors.is_empty(), "{:?}", report.ingest.errors);
    assert_eq!(report.ingest.records(), TENANTS.len() as u64 * N);
    for session in &report.ingest.sessions {
        assert_eq!(session.records, N, "tenant {} lost records", session.name);
        assert!(session.violations.is_empty(), "clean workloads only");
    }
    for (name, lane) in &report.ingest.lanes {
        assert!(lane.turns > 0, "lane {name} was never scheduled");
        assert_eq!(lane.records, N, "lane {name} accounting diverges");
    }
    for r in &fwd_reports {
        assert_eq!(r.server_records, N);
    }
    pool.shutdown();
}
