//! The loopback front-end (`net_capture`): each tenant streams from its
//! own `TraceForwarder` thread over one connection into one
//! `IngestServer`, which tees indexed captures into a scratch directory.
//! After the pass, seeded forensic queries run through `TraceLake::open`
//! over that directory and are checked against a replay filter.

use crate::inputs::{Rng, Tenant};
use crate::pool::{check_tenant, pool_config, PassStats, Reference};
use crate::spans::Tracer;
use crate::sys::{process_cpu, thread_cpu};
use igm_isa::TraceEntry;
use igm_lake::query::matches_entry;
use igm_lake::{LakeQuery, TraceLake};
use igm_lba::{chunks, TraceBatch};
use igm_lifeguards::Violation;
use igm_net::{ForwarderConfig, ForwarderReport, IngestServer, NetServerConfig, TraceForwarder};
use igm_runtime::MonitorPool;
use igm_span::RecordId;
use igm_trace::{op_class, Dim};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Net-side counters of one pass.
#[derive(Default)]
pub struct NetStats {
    pub handshake_ms: Vec<f64>,
    pub credit_stalls: u64,
    pub credit_stall_ns: u64,
    pub frame_bytes: u64,
    pub deferred_sends: u64,
    /// Trace plus sidecar bytes the tee left on disk.
    pub capture_bytes: u64,
    /// Record ids of the violations the pool attributed.
    pub violation_ids: Vec<RecordId>,
}

/// A violation as the collector received it: tenant, violation, record
/// id, arrival instant.
type Arrival = (String, Violation, Option<RecordId>, Instant);

/// What one forwarder thread hands back.
struct Sent {
    handshake: Duration,
    first_send: Instant,
    planted_sent: Vec<Option<Instant>>,
    report: Option<ForwarderReport>,
    cpu: Duration,
    tracer: Tracer,
    error: Option<String>,
}

fn forward(addr: std::net::SocketAddr, tenant: &Tenant, chunk_bytes: u32, mut tr: Tracer) -> Sent {
    let cpu0 = thread_cpu();
    let hs = Instant::now();
    let cfg = ForwarderConfig { chunk_bytes, ..ForwarderConfig::default() };
    let g = tr.begin("net.TraceForwarder::connect_with");
    let fwd = TraceForwarder::connect_with(addr, &tenant.session_config(), cfg);
    tr.end(g);
    let handshake = hs.elapsed();
    let mut sent = Sent {
        handshake,
        first_send: Instant::now(),
        planted_sent: vec![None; tenant.planted.len()],
        report: None,
        cpu: Duration::ZERO,
        tracer: Tracer::new(false, "", hs),
        error: None,
    };
    let mut fwd = match fwd {
        Ok(f) => f,
        Err(e) => {
            sent.error = Some(format!("{}: connect failed: {e}", tenant.name));
            sent.tracer = tr;
            return sent;
        }
    };
    let mut chunker = chunks(tenant.records.iter().copied(), chunk_bytes);
    let mut batch = TraceBatch::new();
    let mut next_record = 0usize;
    let mut next_planted = 0usize;
    let mut first = true;
    loop {
        let g = tr.begin("lba.chunks");
        let more = chunker.next_into_batch(&mut batch);
        tr.end(g);
        if !more {
            break;
        }
        let at = Instant::now();
        if first {
            sent.first_send = at;
            first = false;
        }
        let g = tr.begin("net.TraceForwarder::send_batch");
        let r = fwd.send_batch(&batch);
        tr.end(g);
        if let Err(e) = r {
            sent.error = Some(format!("{}: send failed: {e}", tenant.name));
            break;
        }
        let end = next_record + batch.len();
        while next_planted < tenant.planted.len() && tenant.planted[next_planted].index < end {
            sent.planted_sent[next_planted] = Some(at);
            next_planted += 1;
        }
        next_record = end;
    }
    if sent.error.is_none() {
        let g = tr.begin("net.TraceForwarder::finish");
        match fwd.finish() {
            Ok(r) => sent.report = Some(r),
            Err(e) => sent.error = Some(format!("{}: finish failed: {e}", tenant.name)),
        }
        tr.end(g);
    }
    sent.cpu = thread_cpu() - cpu0;
    sent.tracer = tr;
    sent
}

/// One pass: every tenant forwarded over loopback into a fresh pool
/// behind a fresh server, teeing captures into `tee_dir`.
pub fn pass(
    tenants: &[Tenant],
    refs: &[Reference],
    tee_dir: &Path,
    tr: &mut Tracer,
    forwarder_tracers: &mut Vec<Tracer>,
) -> (PassStats, NetStats) {
    let mut st = PassStats::default();
    let mut ns = NetStats::default();
    let s0 = Instant::now();
    let g = tr.begin("runtime.MonitorPool::new");
    let pool = MonitorPool::new(pool_config());
    tr.end(g);
    let stream = pool.violation_stream().expect("a fresh pool's stream is untaken");
    let cfg =
        NetServerConfig { tee_dir: Some(tee_dir.to_path_buf()), ..NetServerConfig::default() };
    let g = tr.begin("net.IngestServer::bind");
    let server = IngestServer::bind("127.0.0.1:0", &pool, cfg).expect("bind a loopback port");
    tr.end(g);
    let addr = server.local_addr().expect("bound address");
    let bind_setup = s0.elapsed();
    let chunk_bytes = pool_config().chunk_bytes;
    let traced = tr.enabled();
    let epoch = tr.epoch();

    let stop = AtomicBool::new(false);
    let arrivals: Mutex<Vec<Arrival>> = Mutex::new(Vec::new());
    let cpu0 = process_cpu();
    let (report, sent, collector_cpu, t_end) = std::thread::scope(|scope| {
        let (stop, arrivals) = (&stop, &arrivals);
        let collector = scope.spawn(move || {
            let cpu0 = thread_cpu();
            loop {
                let stopping = stop.load(Ordering::Acquire);
                match stream.recv_timeout(Duration::from_millis(2)) {
                    Some(v) => arrivals.lock().expect("collector lock").push((
                        v.tenant,
                        v.violation,
                        v.record,
                        Instant::now(),
                    )),
                    None if stopping => break,
                    None => {}
                }
            }
            thread_cpu() - cpu0
        });
        let forwarders: Vec<_> = tenants
            .iter()
            .map(|t| {
                let ftr = Tracer::new(traced, "forwarder", epoch);
                scope.spawn(move || forward(addr, t, chunk_bytes, ftr))
            })
            .collect();
        let g = tr.begin("net.IngestServer::serve_connections");
        let report = server.serve_connections(tenants.len());
        tr.end(g);
        let t_end = Instant::now();
        let sent: Vec<Sent> =
            forwarders.into_iter().map(|h| h.join().expect("forwarder thread")).collect();
        stop.store(true, Ordering::Release);
        let collector_cpu = collector.join().expect("collector thread");
        (report, sent, collector_cpu, t_end)
    });
    let total_cpu = process_cpu() - cpu0;
    let generator_cpu: Duration = sent.iter().map(|s| s.cpu).sum::<Duration>() + collector_cpu;
    st.cpu = total_cpu.saturating_sub(generator_cpu);
    let t0 = sent.iter().map(|s| s.first_send).min().expect("at least one tenant");
    st.wall = t_end.saturating_duration_since(t0);
    let handshake = sent.iter().map(|s| s.handshake).max().unwrap_or_default();
    st.setup = bind_setup + handshake;
    let stats = pool.stats();
    st.steals = stats.steals;
    st.epoch_jobs = stats.epoch_jobs;
    pool.shutdown();

    let arrivals = arrivals.into_inner().expect("collector lock");
    for (name, e) in &report.ingest.errors {
        st.failures.push(format!("{name}: lane failed: {e}"));
    }
    for (_, lane) in &report.ingest.lanes {
        ns.deferred_sends += lane.deferred_sends;
    }
    for (i, t) in tenants.iter().enumerate() {
        st.attempted += 1;
        let s = &sent[i];
        ns.handshake_ms.push(s.handshake.as_secs_f64() * 1e3);
        let mut fail = s.error.clone();
        if let Some(r) = &s.report {
            ns.credit_stalls += r.stats.credit_stalls;
            ns.credit_stall_ns += r.stats.credit_stall_nanos;
            ns.frame_bytes += r.stats.frame_bytes;
            if r.server_records != r.stats.records {
                fail.get_or_insert(format!("{}: records lost in flight", t.name));
            }
        }
        let mine: Vec<&Arrival> = arrivals.iter().filter(|a| a.0 == t.name).collect();
        ns.violation_ids.extend(mine.iter().filter_map(|a| a.2));
        for (k, p) in t.planted.iter().enumerate() {
            let arrived = mine.iter().find(|a| p.matches(&a.1)).map(|a| a.3);
            if let (Some(at), Some(arrived)) = (s.planted_sent[k], arrived) {
                st.lags_ms.push(arrived.duration_since(at).as_secs_f64() * 1e3);
            }
        }
        match report.ingest.sessions.iter().find(|r| r.name == t.name) {
            Some(r) => {
                st.records += r.records;
                st.peak_channel_bytes = st.peak_channel_bytes.max(r.channel.peak_bytes);
                st.metadata_bytes += r.metadata_bytes;
                let violations: Vec<Violation> = mine.iter().map(|a| a.1).collect();
                if let Err(e) = check_tenant(t, &refs[i], r, &violations) {
                    fail.get_or_insert(e);
                }
            }
            None => {
                fail.get_or_insert(format!("{}: no session report", t.name));
            }
        }
        if let Some(e) = fail {
            st.failed += 1;
            st.failures.push(e);
        }
    }
    for s in sent {
        forwarder_tracers.push(s.tracer);
    }
    ns.capture_bytes = std::fs::read_dir(tee_dir)
        .expect("tee directory")
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    (st, ns)
}

/// Latencies and checks of one forensic query phase.
#[derive(Default)]
pub struct LakeStats {
    /// Filter and neighborhood latencies together.
    pub all_us: Vec<f64>,
    pub filter_us: Vec<f64>,
    pub neighborhood_us: Vec<f64>,
    pub frames_visited: u64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

/// Neighborhood radius, in records.
const NEIGHBORHOOD_K: u64 = 8;
/// Seeded filter queries per tenant and dimension.
const QUERIES_PER_KIND: usize = 2;

/// Opens the lake over `dir` and runs the seeded forensic queries: page,
/// pc and op filters, seq windows, and neighborhoods around each reported
/// violation and around seeded records. Every answer is checked against
/// a replay filter over the tenant's records.
pub fn lake_queries(
    dir: &Path,
    tenants: &[Tenant],
    violation_ids: &[RecordId],
    seed: u64,
    tr: &mut Tracer,
) -> LakeStats {
    let mut ls = LakeStats::default();
    let lake = match tr.time("lake.TraceLake::open", || TraceLake::open(dir)) {
        Ok(l) => l,
        Err(e) => {
            ls.attempted += 1;
            ls.failed += 1;
            ls.failures.push(format!("lake open failed: {e}"));
            return ls;
        }
    };
    let mut rng = Rng::new(seed ^ 0x1a4e);
    let mut ids: Vec<(usize, RecordId)> = Vec::new();
    for (ti, t) in tenants.iter().enumerate() {
        let stem = t.name.as_str();
        let Some(lt) = lake.by_stem(stem) else {
            ls.attempted += 1;
            ls.failed += 1;
            ls.failures.push(format!("{stem}: no capture in the lake"));
            continue;
        };
        let n = t.records.len() as u64;
        let mut queries: Vec<LakeQuery> = Vec::new();
        for _ in 0..QUERIES_PER_KIND {
            let addr = (0..64)
                .map(|_| &t.records[rng.range(0, n) as usize])
                .find_map(|e| e.mem_read().or(e.mem_write()))
                .map_or(0, |m| m.addr);
            queries.push(LakeQuery::new().page(addr));
            queries.push(LakeQuery::new().pc(t.records[rng.range(0, n) as usize].pc));
            let class = rng.range(0, op_class::COUNT as u64) as u32;
            queries.push(LakeQuery::new().include(Dim::OpClass, class));
            let lo = rng.range(0, n);
            let hi = (lo + rng.range(1, 20_000)).min(n);
            queries.push(LakeQuery::new().include(Dim::OpClass, op_class::STORE).seq_range(lo..hi));
        }
        for q in &queries {
            ls.attempted += 1;
            let t0 = Instant::now();
            let g = tr.begin("lake.TraceLake::query");
            let hits = lake.query(Some(stem), q, 64);
            tr.end(g);
            let us = t0.elapsed().as_secs_f64() * 1e6;
            ls.filter_us.push(us);
            ls.all_us.push(us);
            let want = t
                .records
                .iter()
                .enumerate()
                .filter(|(s, e)| matches_entry(q, *s as u64, e))
                .count() as u64;
            match hits {
                Ok(h) if h.matched == want => ls.frames_visited += h.frames_visited as u64,
                Ok(h) => {
                    ls.failed += 1;
                    ls.failures.push(format!(
                        "{stem}: lake matched {} records, replay filter {want}",
                        h.matched
                    ));
                }
                Err(e) => {
                    ls.failed += 1;
                    ls.failures.push(format!("{stem}: query failed: {e}"));
                }
            }
        }
        for _ in 0..4 {
            ids.push((ti, RecordId::new(lt.tenant, lt.trace, rng.range(0, n))));
        }
        for id in violation_ids.iter().filter(|id| id.tenant == lt.tenant && id.trace == lt.trace) {
            ids.push((ti, *id));
        }
    }
    for (ti, id) in ids {
        ls.attempted += 1;
        let t0 = Instant::now();
        let g = tr.begin("lake.TraceLake::neighborhood");
        let got = lake.neighborhood(id, NEIGHBORHOOD_K);
        tr.end(g);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        ls.neighborhood_us.push(us);
        ls.all_us.push(us);
        let records: &[TraceEntry] = &tenants[ti].records;
        let lo = id.seq.saturating_sub(NEIGHBORHOOD_K);
        let hi = (id.seq + NEIGHBORHOOD_K + 1).min(records.len() as u64);
        let ok = match &got {
            Ok(window) => {
                window.len() as u64 == hi - lo
                    && window.iter().all(|(s, e)| *s < hi && records[*s as usize] == *e)
            }
            Err(_) => false,
        };
        if !ok {
            ls.failed += 1;
            ls.failures.push(format!("neighborhood of {id:?} differs from the records"));
        }
    }
    ls
}
