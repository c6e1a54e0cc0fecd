//! The in-process pool front-end (`local_light`, `local_accel`) and the
//! sequential reference every pool output is checked against.
//!
//! One generator thread chunks each tenant's records with
//! [`igm_lba::chunks`] at the pool's chunk size and round-robins
//! [`SessionHandle::try_send_batch`] over the sessions, draining the
//! violation stream between rounds. A full log channel refuses the send
//! and the batch is retried next round: the loop is closed, and the
//! channel's backpressure is the paper's.

use crate::inputs::Tenant;
use crate::spans::Tracer;
use crate::sys::{process_cpu, thread_cpu};
use igm_core::DispatchStats;
use igm_isa::TraceEntry;
use igm_lba::{chunks, Chunks, TraceBatch};
use igm_lifeguards::{Lifeguard, Violation};
use igm_runtime::{MonitorPool, PoolConfig, SessionHandle, SessionReport};
use igm_sim::Monitor;
use std::time::{Duration, Instant};

/// Pool worker threads on every workload (the host has two cores).
pub const WORKERS: usize = 2;

/// How long the generator sleeps after a round in which every log channel
/// refused its batch (a few batches' worth of worker time stays queued).
const BACKOFF: Duration = Duration::from_micros(100);

pub fn pool_config() -> PoolConfig {
    PoolConfig::with_workers(WORKERS)
}

/// What the sequential reference reports for one tenant.
#[derive(Clone)]
pub struct Reference {
    pub violations: Vec<Violation>,
    pub dispatch: DispatchStats,
}

/// Replays `tenant` sequentially through `igm_sim::Monitor` over the same
/// batch boundaries the pool sees.
pub fn reference(tenant: &Tenant, chunk_bytes: u32) -> Reference {
    let mut lg = tenant.kind.build_any(&tenant.accel);
    lg.set_synthetic_workload_mode(true);
    for (base, len) in &tenant.premark {
        lg.premark_region(*base, *len);
    }
    let mut monitor = Monitor::new(lg, &tenant.accel);
    let mut chunker = chunks(tenant.records.iter().copied(), chunk_bytes);
    let mut batch = TraceBatch::new();
    while chunker.next_into_batch(&mut batch) {
        monitor.observe_trace_batch(&batch);
    }
    Reference {
        violations: monitor.violations().to_vec(),
        dispatch: monitor.dispatch_stats().clone(),
    }
}

/// Checks one tenant's session report and its violation-stream arrivals
/// against the reference. Returns a description of the first mismatch.
pub fn check_tenant(
    tenant: &Tenant,
    reference: &Reference,
    report: &SessionReport,
    arrivals: &[Violation],
) -> Result<(), String> {
    if report.records != tenant.records.len() as u64 {
        return Err(format!(
            "{}: {} of {} records monitored",
            tenant.name,
            report.records,
            tenant.records.len()
        ));
    }
    if report.violations != reference.violations {
        return Err(format!(
            "{}: {} violations, reference has {} (first pool {:?}, first reference {:?})",
            tenant.name,
            report.violations.len(),
            reference.violations.len(),
            report.violations.first(),
            reference.violations.first()
        ));
    }
    if report.dispatch != reference.dispatch {
        return Err(format!("{}: dispatch stats differ from the reference", tenant.name));
    }
    for p in &tenant.planted {
        let n = arrivals.iter().filter(|v| p.matches(v)).count();
        if n != 1 {
            return Err(format!(
                "{}: planted violation at pc {:#x} arrived {n} times",
                tenant.name, p.pc
            ));
        }
    }
    Ok(())
}

/// Counters one pass produces.
#[derive(Default)]
pub struct PassStats {
    pub records: u64,
    pub setup: Duration,
    /// First send to last session report.
    pub wall: Duration,
    /// Process CPU in the window minus the generator threads' own.
    pub cpu: Duration,
    pub lags_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub try_sends: u64,
    pub refused: u64,
    pub peak_channel_bytes: u32,
    pub steals: u64,
    pub epoch_jobs: u64,
    pub metadata_bytes: u64,
}

struct Lane<'a> {
    chunker: Chunks<std::iter::Copied<std::slice::Iter<'a, TraceEntry>>>,
    pending: Option<TraceBatch>,
    /// Index of the first record of the next batch.
    next_record: usize,
    /// Next planted violation not yet sent.
    next_planted: usize,
    /// Send instant of each planted violation.
    sent: Vec<Option<Instant>>,
    done: bool,
}

/// One closed-loop pass of every tenant through a fresh pool.
pub fn pass(tenants: &[Tenant], refs: &[Reference], tr: &mut Tracer) -> PassStats {
    let mut st = PassStats::default();
    let s0 = Instant::now();
    let g = tr.begin("runtime.MonitorPool::new");
    let pool = MonitorPool::new(pool_config());
    tr.end(g);
    let stream = pool.violation_stream().expect("a fresh pool's stream is untaken");
    let mut handles: Vec<SessionHandle> = tenants
        .iter()
        .map(|t| tr.time("runtime.open_session", || pool.open_session(t.session_config())))
        .collect();
    st.setup = s0.elapsed();
    let chunk_bytes = handles[0].chunk_bytes();

    let mut lanes: Vec<Lane> = tenants
        .iter()
        .map(|t| Lane {
            chunker: chunks(t.records.iter().copied(), chunk_bytes),
            pending: None,
            next_record: 0,
            next_planted: 0,
            sent: vec![None; t.planted.len()],
            done: false,
        })
        .collect();
    let mut arrivals: Vec<Vec<(Violation, Instant)>> = vec![Vec::new(); tenants.len()];
    let ids: Vec<u64> = handles.iter().map(SessionHandle::id).collect();
    let drain = |arrivals: &mut Vec<Vec<(Violation, Instant)>>| {
        let batch = stream.drain();
        let now = Instant::now();
        for v in batch {
            let i = ids.iter().position(|id| *id == v.session).expect("violation from a session");
            arrivals[i].push((v.violation, now));
        }
    };

    let cpu0 = process_cpu();
    let gen0 = thread_cpu();
    let t0 = Instant::now();
    let mut open = tenants.len();
    while open > 0 {
        let mut progress = false;
        for (i, lane) in lanes.iter_mut().enumerate() {
            if lane.done {
                continue;
            }
            let batch = match lane.pending.take() {
                Some(b) => b,
                None => {
                    let mut b = handles[i].spare_batch();
                    let g = tr.begin("lba.chunks");
                    let more = lane.chunker.next_into_batch(&mut b);
                    tr.end(g);
                    if !more {
                        lane.done = true;
                        handles[i].close();
                        open -= 1;
                        continue;
                    }
                    b
                }
            };
            let len = batch.len();
            let at = Instant::now();
            let g = tr.begin("runtime.try_send_batch");
            let r = handles[i].try_send_batch(batch);
            tr.end(g);
            st.try_sends += 1;
            match r {
                Ok(None) => {
                    progress = true;
                    let end = lane.next_record + len;
                    let planted = &tenants[i].planted;
                    while lane.next_planted < planted.len()
                        && planted[lane.next_planted].index < end
                    {
                        lane.sent[lane.next_planted] = Some(at);
                        lane.next_planted += 1;
                    }
                    lane.next_record = end;
                }
                Ok(Some(back)) => {
                    st.refused += 1;
                    lane.pending = Some(back);
                }
                Err(_) => {
                    st.failures.push(format!("{}: the pool refused the session", tenants[i].name));
                    lane.done = true;
                    handles[i].close();
                    open -= 1;
                }
            }
        }
        drain(&mut arrivals);
        if !progress {
            // Every channel is full: leave both cores to the workers.
            std::thread::sleep(BACKOFF);
        }
    }
    // Every batch is sent: wait for the planted violations still in
    // flight while the workers finish, so their arrival times stay exact.
    let total: u64 = tenants.iter().map(|t| t.records.len() as u64).sum();
    let wanted: usize = tenants.iter().map(|t| t.planted.len()).sum();
    let planted_seen = |arrivals: &Vec<Vec<(Violation, Instant)>>| {
        tenants
            .iter()
            .zip(arrivals)
            .map(|(t, a)| t.planted.iter().filter(|p| a.iter().any(|(v, _)| p.matches(v))).count())
            .sum::<usize>()
    };
    let give_up = Instant::now() + Duration::from_secs(30);
    while planted_seen(&arrivals) < wanted
        && pool.stats().records < total
        && Instant::now() < give_up
    {
        std::thread::sleep(BACKOFF);
        drain(&mut arrivals);
    }
    let reports: Vec<SessionReport> = handles
        .drain(..)
        .map(|h| tr.time("runtime.SessionHandle::finish", || h.finish()))
        .collect();
    let t_end = Instant::now();
    st.cpu = (process_cpu() - cpu0).saturating_sub(thread_cpu() - gen0);
    st.wall = t_end - t0;
    drain(&mut arrivals);
    let stats = pool.stats();
    st.steals = stats.steals;
    st.epoch_jobs = stats.epoch_jobs;
    pool.shutdown();

    for (i, t) in tenants.iter().enumerate() {
        let report = &reports[i];
        st.records += report.records;
        st.peak_channel_bytes = st.peak_channel_bytes.max(report.channel.peak_bytes);
        st.metadata_bytes += report.metadata_bytes;
        let violations: Vec<Violation> = arrivals[i].iter().map(|(v, _)| *v).collect();
        for (k, p) in t.planted.iter().enumerate() {
            let arrival = arrivals[i].iter().find(|(v, _)| p.matches(v)).map(|(_, at)| *at);
            if let (Some(sent), Some(arrived)) = (lanes[i].sent[k], arrival) {
                st.lags_ms.push(arrived.duration_since(sent).as_secs_f64() * 1e3);
            }
        }
        st.attempted += 1;
        if let Err(e) = check_tenant(t, &refs[i], report, &violations) {
            st.failed += 1;
            st.failures.push(e);
        }
    }
    st
}
