//! The wire protocol's unhappy paths, exercised over real loopback
//! sockets: version mismatch, mid-frame disconnect, a corrupt frame
//! contained to its own lane, credit starvation/resume, and the
//! tee-at-ingest artifact for remote lanes.

use igm_lifeguards::LifeguardKind;
use igm_net::wire::{self, msg};
use igm_net::{IngestServer, NetError, NetServerConfig, TraceForwarder};
use igm_runtime::{MonitorPool, PoolConfig, SessionConfig};
use igm_trace::{encode_frame, TraceError, CODEC_ID};
use igm_workload::Benchmark;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn session_cfg(name: &str, kind: LifeguardKind) -> SessionConfig {
    SessionConfig::new(name, kind).synthetic().premark(&Benchmark::Gzip.profile().premark_regions())
}

/// A raw client that speaks just enough protocol to misbehave.
struct RawClient {
    stream: TcpStream,
}

impl RawClient {
    fn connect(addr: SocketAddr) -> RawClient {
        RawClient { stream: TcpStream::connect(addr).unwrap() }
    }

    fn send(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).unwrap();
    }

    fn send_message(&mut self, ty: u8, payload: &[u8]) {
        let mut out = Vec::new();
        out.push(ty);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(payload);
        self.send(&out);
    }
}

fn read_message(stream: &mut TcpStream) -> (u8, Vec<u8>) {
    use std::io::Read;
    let mut header = [0u8; 5];
    stream.read_exact(&mut header).unwrap();
    let len = u32::from_le_bytes(header[1..5].try_into().unwrap()) as usize;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).unwrap();
    (header[0], payload)
}

#[test]
fn version_mismatch_is_rejected_with_a_typed_error() {
    let pool = MonitorPool::new(PoolConfig::with_workers(1));
    let server = IngestServer::bind("127.0.0.1:0", &pool, NetServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();

    // The retired version 2 and a version from the future: each peer
    // gets an ERROR naming its version, and no lane opens.
    let clients: Vec<_> = [2u32, 99]
        .into_iter()
        .map(|version| {
            std::thread::spawn(move || {
                let mut raw = RawClient::connect(addr);
                raw.stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                let cfg = session_cfg("old", LifeguardKind::AddrCheck);
                raw.send(&wire::hello_message(version, CODEC_ID, &cfg));
                let (ty, payload) = read_message(&mut raw.stream);
                assert_eq!(ty, msg::ERROR);
                let reason = String::from_utf8_lossy(&payload[2..]).into_owned();
                assert!(reason.contains(&format!("protocol version {version}")), "{reason}");
            })
        })
        .collect();
    let report = server.serve_connections(2);
    for c in clients {
        c.join().unwrap();
    }

    assert_eq!(report.accepted, 0);
    let mut refused: Vec<u32> = report
        .rejected
        .iter()
        .map(|(_, e)| match e {
            NetError::VersionMismatch { theirs } => *theirs,
            other => panic!("expected a version mismatch, got {other:?}"),
        })
        .collect();
    refused.sort_unstable();
    assert_eq!(refused, [2, 99]);
    assert!(report.ingest.sessions.is_empty(), "no session may open for a rejected client");
    pool.shutdown();
}

#[test]
fn unknown_trace_codec_is_rejected_with_a_typed_error() {
    let pool = MonitorPool::new(PoolConfig::with_workers(1));
    let server = IngestServer::bind("127.0.0.1:0", &pool, NetServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();

    let client = std::thread::spawn(move || {
        // Right protocol version, but a trace codec this side has never
        // heard of: the HELLO must be refused before any lane exists.
        let mut raw = RawClient::connect(addr);
        let hello = wire::hello_message(
            wire::NET_VERSION,
            7,
            &session_cfg("exotic", LifeguardKind::AddrCheck),
        );
        raw.send(&hello);
        std::thread::sleep(Duration::from_millis(100));
    });
    let report = server.serve_connections(1);
    client.join().unwrap();

    assert_eq!(report.accepted, 0);
    assert_eq!(report.rejected.len(), 1);
    assert!(
        matches!(report.rejected[0].1, NetError::UnsupportedCodec { theirs: 7 }),
        "expected an unsupported-codec refusal, got {:?}",
        report.rejected[0].1
    );
    assert!(report.ingest.sessions.is_empty(), "no session may open for a rejected client");
    pool.shutdown();
}

#[test]
fn non_hello_first_message_is_rejected_without_blocking_others() {
    let pool = MonitorPool::new(PoolConfig::with_workers(1));
    let server = IngestServer::bind("127.0.0.1:0", &pool, NetServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();

    let client = std::thread::spawn(move || {
        // A connection whose first message is not a HELLO is refused…
        let mut raw = RawClient::connect(addr);
        raw.send_message(msg::CHUNK, b"not a handshake");
        // …while a healthy client on a second socket is unaffected.
        let cfg = session_cfg("ok", LifeguardKind::AddrCheck);
        let mut fwd = TraceForwarder::connect(addr, &cfg).expect("healthy client must connect");
        fwd.stream(Benchmark::Gzip.trace(1_000)).unwrap();
        fwd.finish().unwrap().server_records
    });
    let report = server.serve_connections(2);
    let forwarded = client.join().unwrap();

    assert_eq!(report.accepted, 1);
    assert_eq!(report.rejected.len(), 1);
    assert!(matches!(report.rejected[0].1, NetError::Malformed(_)));
    assert_eq!(forwarded, 1_000);
    pool.shutdown();
}

#[test]
fn connect_surfaces_a_server_side_rejection() {
    // A minimal raw "server" that refuses the handshake with an ERROR
    // message — connect() must surface it as NetError::Rejected, and
    // never reconnect to try again (not even when the reason names the
    // protocol version).
    for reason in ["tenant quota exceeded", "peer speaks protocol version 3 (this side speaks 2)"] {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let fake = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let (ty, payload) = read_message(&mut stream);
            assert_eq!(ty, msg::HELLO);
            assert_eq!(u32::from_le_bytes(payload[4..8].try_into().unwrap()), wire::NET_VERSION);
            assert_eq!(u32::from_le_bytes(payload[8..12].try_into().unwrap()), CODEC_ID);
            let mut out = vec![msg::ERROR];
            out.extend_from_slice(&((2 + reason.len()) as u32).to_le_bytes());
            out.extend_from_slice(&(reason.len() as u16).to_le_bytes());
            out.extend_from_slice(reason.as_bytes());
            stream.write_all(&out).unwrap();
            // Watch for a second connection for a while after the refusal.
            listener.set_nonblocking(true).unwrap();
            let deadline = std::time::Instant::now() + Duration::from_millis(300);
            while std::time::Instant::now() < deadline {
                if listener.accept().is_ok() {
                    return true;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            false
        });
        let cfg = session_cfg("refused", LifeguardKind::AddrCheck);
        match TraceForwarder::connect(addr, &cfg) {
            Err(NetError::Rejected(got)) => assert_eq!(got, reason),
            other => panic!("expected Rejected, got {:?}", other.map(|_| "a connection")),
        }
        assert!(!fake.join().unwrap(), "the forwarder must not retry after a refusal ({reason})");
    }
}

#[test]
fn mid_frame_disconnect_fails_only_that_lane() {
    let pool = MonitorPool::new(PoolConfig::with_workers(2));
    let server = IngestServer::bind("127.0.0.1:0", &pool, NetServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();

    let bad = std::thread::spawn(move || {
        let mut raw = RawClient::connect(addr);
        raw.send(&wire::hello_message(
            wire::NET_VERSION,
            CODEC_ID,
            &session_cfg("truncated", LifeguardKind::AddrCheck),
        ));
        // A chunk message header promising 1000 payload bytes, then only
        // 10 of them, then a hard disconnect mid-frame.
        let mut partial = Vec::new();
        partial.push(msg::CHUNK);
        partial.extend_from_slice(&1000u32.to_le_bytes());
        partial.extend_from_slice(&[0u8; 10]);
        raw.send(&partial);
        // Drop closes the socket with the message incomplete.
    });
    let good = std::thread::spawn(move || {
        let cfg = session_cfg("healthy", LifeguardKind::TaintCheck);
        let mut fwd = TraceForwarder::connect(addr, &cfg).unwrap();
        fwd.stream(Benchmark::Mcf.trace(5_000)).unwrap();
        fwd.finish().unwrap()
    });
    let report = server.serve_connections(2);
    bad.join().unwrap();
    let good_report = good.join().unwrap();

    assert_eq!(report.accepted, 2);
    assert_eq!(report.ingest.errors.len(), 1, "exactly the truncated lane fails");
    assert_eq!(report.ingest.errors[0].0, "truncated");
    assert!(
        matches!(
            report.ingest.errors[0].1,
            TraceError::Corrupt { reason: "connection closed inside a message", .. }
        ),
        "got {:?}",
        report.ingest.errors[0].1
    );
    let healthy =
        report.ingest.sessions.iter().find(|s| s.name == "healthy").expect("healthy session");
    assert_eq!(healthy.records, 5_000);
    assert_eq!(good_report.server_records, 5_000);
    pool.shutdown();
}

#[test]
fn corrupt_frame_fails_only_its_lane() {
    let pool = MonitorPool::new(PoolConfig::with_workers(2));
    let server = IngestServer::bind("127.0.0.1:0", &pool, NetServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();

    let bad = std::thread::spawn(move || {
        let mut raw = RawClient::connect(addr);
        raw.send(&wire::hello_message(
            wire::NET_VERSION,
            CODEC_ID,
            &session_cfg("corrupt", LifeguardKind::AddrCheck),
        ));
        // A structurally complete v3 chunk (unsampled span prefix) whose
        // frame payload is damaged: encode a real frame, then flip a
        // payload byte so the checksum fails.
        let mut payload = vec![0u8; wire::SPAN_PREFIX_BYTES];
        let batch: igm_lba::TraceBatch = Benchmark::Gzip.trace(100).collect();
        let mut frame = Vec::new();
        encode_frame(&mut frame, &batch);
        let last = frame.len() - 1;
        frame[last] ^= 0xff;
        payload.extend_from_slice(&frame);
        raw.send_message(msg::CHUNK, &payload);
        std::thread::sleep(Duration::from_millis(100));
    });
    let good = std::thread::spawn(move || {
        let cfg = session_cfg("healthy", LifeguardKind::AddrCheck);
        let mut fwd = TraceForwarder::connect(addr, &cfg).unwrap();
        fwd.stream(Benchmark::Gzip.trace(4_000)).unwrap();
        fwd.finish().unwrap()
    });
    let report = server.serve_connections(2);
    bad.join().unwrap();
    good.join().unwrap();

    assert_eq!(report.ingest.errors.len(), 1);
    assert_eq!(report.ingest.errors[0].0, "corrupt");
    assert!(
        matches!(
            report.ingest.errors[0].1,
            TraceError::Corrupt { reason: "frame checksum mismatch", .. }
        ),
        "got {:?}",
        report.ingest.errors[0].1
    );
    let healthy =
        report.ingest.sessions.iter().find(|s| s.name == "healthy").expect("healthy session");
    assert_eq!(healthy.records, 4_000);
    pool.shutdown();
}

#[test]
fn credit_starvation_throttles_and_resumes() {
    // A tiny channel (512 model bytes) and a tiny credit window (4 KB)
    // against 30k records: the forwarder must stall on credit many times
    // and still deliver everything once the pool drains.
    let pool =
        MonitorPool::new(PoolConfig { channel_capacity_bytes: 512, ..PoolConfig::with_workers(1) });
    let cfg = NetServerConfig { credit_window: 4 * 1024, ..NetServerConfig::default() };
    let server = IngestServer::bind("127.0.0.1:0", &pool, cfg).unwrap();
    let addr = server.local_addr().unwrap();

    const N: u64 = 30_000;
    let client = std::thread::spawn(move || {
        let cfg = session_cfg("starved", LifeguardKind::AddrCheck);
        let mut fwd = TraceForwarder::connect(addr, &cfg).unwrap();
        fwd.stream(Benchmark::Gzip.trace(N)).unwrap();
        fwd.finish().unwrap()
    });
    let report = server.serve_connections(1);
    let fwd_report = client.join().unwrap();

    assert_eq!(fwd_report.server_records, N, "every record must arrive despite starvation");
    assert!(
        fwd_report.stats.credit_stalls > 0,
        "a 4 KB window against a 512-byte channel must stall the producer"
    );
    assert!(fwd_report.stats.credit_stall_nanos > 0);
    let session = &report.ingest.sessions[0];
    assert_eq!(session.records, N);
    assert!(report.ingest.errors.is_empty());
    pool.shutdown();
}

#[test]
fn teed_remote_lane_leaves_a_replayable_artifact() {
    let dir = std::env::temp_dir().join(format!("igm_net_tee_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let pool = MonitorPool::new(PoolConfig::with_workers(2));
    let cfg = NetServerConfig { tee_dir: Some(dir.clone()), ..NetServerConfig::default() };
    let server = IngestServer::bind("127.0.0.1:0", &pool, cfg).unwrap();
    let addr = server.local_addr().unwrap();

    // Two tenants with the SAME name: their artifacts must not collide
    // (one would silently corrupt the other's frames).
    const N: u64 = 6_000;
    let clients: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(move || {
                let cfg = session_cfg("teed", LifeguardKind::AddrCheck);
                let mut fwd = TraceForwarder::connect(addr, &cfg).unwrap();
                fwd.stream(Benchmark::Gzip.trace(N)).unwrap();
                fwd.finish().unwrap()
            })
        })
        .collect();
    let report = server.serve_connections(2);
    for c in clients {
        c.join().unwrap();
    }
    assert!(report.ingest.errors.is_empty(), "{:?}", report.ingest.errors);
    let live = report.ingest.sessions.iter().find(|s| s.name == "teed").unwrap();
    assert_eq!(live.records, N);

    // Each artifact (disambiguated names) replays to the identical
    // result — both tenants streamed the same workload, so both files
    // must hold the same complete record stream.
    for filename in ["teed.igmt", "teed-2.igmt"] {
        let path = dir.join(filename);
        let replayed = igm_trace::replay_file(
            &pool,
            session_cfg("teed-replay", LifeguardKind::AddrCheck),
            &path,
        )
        .unwrap();
        assert_eq!(replayed.records, live.records, "{filename}");
        assert_eq!(replayed.violations, live.violations, "{filename}");
        assert_eq!(replayed.dispatch, live.dispatch, "{filename}");
    }
    pool.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
