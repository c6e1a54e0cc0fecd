//! The repository benchmark: four named workloads against the public APIs
//! of `igm-runtime`, `igm-trace`, `igm-net`, `igm-lake` and `igm-sim`.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload local_light --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is the separate traced run that reports the per-layer
//! ledger. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. A fuller result (every
//! end-to-end metric of the workload, the host block, the Figure 11 bars)
//! and the recorded spans are written under `perfbench/out/`. See
//! `perfbench/NOTES.md` for the metric and workload definitions.

mod inputs;
mod layers;
mod model;
mod net;
mod pool;
mod spans;
mod sys;

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

use inputs::Tenant;
use spans::{SpanLog, Tracer};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use sys::{json_str, mean, median, quantile, take_heap_peak};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    LocalLight,
    LocalAccel,
    NetCapture,
    PaperModel,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "local_light" => Workload::LocalLight,
            "local_accel" => Workload::LocalAccel,
            "net_capture" => Workload::NetCapture,
            "paper_model" => Workload::PaperModel,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::LocalLight => "local_light",
            Workload::LocalAccel => "local_accel",
            Workload::NetCapture => "net_capture",
            Workload::PaperModel => "paper_model",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Named metric values in print order, each with its unit.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, if value.is_finite() { value } else { 0.0 }, unit));
    }

    fn json(&self, names: &[&str]) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in
            self.0.iter().filter(|m| names.is_empty() || names.contains(&m.0)).enumerate()
        {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        }
        s.push('}');
        s
    }
}

/// The end-to-end metrics every workload reports (gated in
/// `BENCHMARK.json`).
const GATED: [&str; 4] = ["setup_s", "records_per_s", "cpu_ms_per_mrec", "peak_heap_mb"];

/// Correctness tally over every operation the run attempted.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn add(&mut self, attempted: u64, failed: u64, failures: Vec<String>) {
        self.attempted += attempted;
        self.failed += failed;
        self.failures.extend(failures);
    }
}

/// Accumulated timed passes of a pool or net workload.
#[derive(Default)]
struct Window {
    passes: usize,
    setups: Vec<f64>,
    rates: Vec<f64>,
    /// Summed first-send-to-last-report windows of the passes.
    wall: Duration,
    cpu: Duration,
    records: u64,
    lags_ms: Vec<f64>,
    try_sends: u64,
    refused: u64,
    peak_channel_bytes: u32,
    steals: u64,
    epoch_jobs: u64,
    metadata_bytes: u64,
    net: net::NetStats,
    net_records: u64,
    lake: net::LakeStats,
    /// Peak live heap bytes of each pass.
    peaks: Vec<f64>,
}

impl Window {
    fn absorb(&mut self, st: pool::PassStats, tally: &mut Tally) {
        self.passes += 1;
        self.setups.push(st.setup.as_secs_f64());
        self.rates.push(st.records as f64 / st.wall.as_secs_f64().max(1e-9));
        self.wall += st.wall;
        self.cpu += st.cpu;
        self.records += st.records;
        self.lags_ms.extend(st.lags_ms);
        self.try_sends += st.try_sends;
        self.refused += st.refused;
        self.peak_channel_bytes = self.peak_channel_bytes.max(st.peak_channel_bytes);
        self.steals += st.steals;
        self.epoch_jobs += st.epoch_jobs;
        self.metadata_bytes += st.metadata_bytes;
        tally.add(st.attempted, st.failed, st.failures);
    }

    fn absorb_net(&mut self, ns: net::NetStats, records: u64) {
        self.net.handshake_ms.extend(ns.handshake_ms);
        self.net.credit_stalls += ns.credit_stalls;
        self.net.credit_stall_ns += ns.credit_stall_ns;
        self.net.frame_bytes += ns.frame_bytes;
        self.net.deferred_sends += ns.deferred_sends;
        self.net.capture_bytes += ns.capture_bytes;
        self.net_records += records;
    }

    fn absorb_lake(&mut self, ls: net::LakeStats, tally: &mut Tally) {
        self.lake.all_us.extend(ls.all_us);
        self.lake.filter_us.extend(ls.filter_us);
        self.lake.neighborhood_us.extend(ls.neighborhood_us);
        self.lake.frames_visited += ls.frames_visited;
        tally.add(ls.attempted, ls.failed, ls.failures);
    }

    /// Records over the summed pass windows. Pass rates on two cores are
    /// bimodal (the scheduler either keeps both workers busy or not), and
    /// the aggregate moves smoothly with the mix where a median jumps.
    fn records_per_s(&self) -> f64 {
        self.records as f64 / self.wall.as_secs_f64()
    }

    fn cpu_ms_per_mrec(&self) -> f64 {
        self.cpu.as_secs_f64() * 1e3 / (self.records as f64 / 1e6)
    }
}

/// Everything a workload run needs, generated from the seed before any
/// timing starts.
struct Inputs {
    tenants: Vec<Tenant>,
    refs: Vec<pool::Reference>,
    model: Option<inputs::ModelTraces>,
}

/// Builds the workload's inputs. The model's traces become pool tenants
/// only for the traced run, which probes the runtime layers with them.
fn build_inputs(w: Workload, seed: u64, traced: bool) -> Inputs {
    let chunk = pool::pool_config().chunk_bytes;
    let (tenants, model) = match w {
        Workload::LocalLight => (inputs::local_light(seed), None),
        Workload::LocalAccel => (inputs::local_accel(seed), None),
        Workload::NetCapture => (inputs::net_capture(seed), None),
        Workload::PaperModel => {
            let m = inputs::model_traces(seed);
            let tenants = if traced { m.as_tenants(&model::bars()) } else { Vec::new() };
            (tenants, Some(m))
        }
    };
    let refs = tenants.iter().map(|t| pool::reference(t, chunk)).collect();
    Inputs { tenants, refs, model }
}

/// One pass of the workload's own front-end (pool or net).
#[allow(clippy::too_many_arguments)]
fn front_end_pass(
    w: Workload,
    inp: &Inputs,
    scratch: &Path,
    pass_no: usize,
    seed: u64,
    win: &mut Window,
    tally: &mut Tally,
    tr: &mut Tracer,
    extra: &mut Vec<Tracer>,
) {
    match w {
        Workload::NetCapture => {
            let dir = scratch.join(format!("pass-{pass_no}"));
            std::fs::create_dir_all(&dir).expect("create tee directory");
            let (st, ns) = net::pass(&inp.tenants, &inp.refs, &dir, tr, extra);
            let records = st.records;
            let ids = ns.violation_ids.clone();
            win.absorb(st, tally);
            win.absorb_net(ns, records);
            let ls = net::lake_queries(&dir, &inp.tenants, &ids, seed ^ pass_no as u64, tr);
            win.absorb_lake(ls, tally);
            let _ = std::fs::remove_dir_all(&dir);
        }
        _ => {
            let st = pool::pass(&inp.tenants, &inp.refs, tr);
            win.absorb(st, tally);
        }
    }
}

/// Runs timed passes until `seconds` have elapsed (at least `min_passes`),
/// taking each pass's peak live heap.
#[allow(clippy::too_many_arguments)]
fn timed_passes(
    w: Workload,
    inp: &Inputs,
    scratch: &Path,
    seed: u64,
    seconds: f64,
    min_passes: usize,
    tally: &mut Tally,
    tr: &mut Tracer,
    extra: &mut Vec<Tracer>,
) -> Window {
    let mut win = Window::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    take_heap_peak();
    while win.passes < min_passes || Instant::now() < deadline {
        let n = win.passes + 1;
        front_end_pass(w, inp, scratch, n, seed, &mut win, tally, tr, extra);
        win.peaks.push(take_heap_peak() as f64);
    }
    win
}

/// The model workload's timed passes, checked for same-seed determinism
/// against the warm-up pass.
#[derive(Default)]
struct ModelWindow {
    rates: Vec<f64>,
    peaks: Vec<f64>,
    cpu: Duration,
    records: u64,
}

#[allow(clippy::too_many_arguments)]
fn model_passes(
    bars: &[model::Bar],
    traces: &inputs::ModelTraces,
    warm: &model::ModelPass,
    seconds: f64,
    min_passes: usize,
    tally: &mut Tally,
    tr: &mut Tracer,
) -> ModelWindow {
    let mut mw = ModelWindow::default();
    take_heap_peak();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while mw.rates.len() < min_passes || Instant::now() < deadline {
        let cpu0 = sys::process_cpu();
        let p = model::pass(bars, traces, tr);
        mw.cpu += sys::process_cpu() - cpu0;
        mw.records += p.records;
        mw.rates.push(p.records as f64 / p.wall.as_secs_f64());
        mw.peaks.push(take_heap_peak() as f64);
        for (i, (a, b)) in p.fingerprint.iter().zip(&warm.fingerprint).enumerate() {
            tally.attempted += 1;
            if a != b {
                tally.failed += 1;
                tally
                    .failures
                    .push(format!("simulation run {i}: statistics differ between passes"));
            }
        }
    }
    mw
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).to_path_buf()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <local_light|local_accel|net_capture|paper_model> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let (generators, connections) = match w {
        Workload::LocalLight | Workload::LocalAccel => (1, 0),
        Workload::NetCapture => (2, 2),
        Workload::PaperModel => (0, 0),
    };
    let host = sys::host_json(generators, connections);
    println!("host: {host}");
    println!(
        "workload {} seed {} seconds {} trace {}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let g0 = Instant::now();
    let inp = build_inputs(w, args.seed, args.trace);
    let records_in: usize = match &inp.model {
        Some(m) => {
            m.spec.iter().map(|t| t.1.len()).sum::<usize>()
                + m.mt.iter().map(|t| t.2.len()).sum::<usize>()
        }
        None => inp.tenants.iter().map(|t| t.records.len()).sum(),
    };
    println!(
        "inputs: {} tenants, {records_in} records, generated and reference-replayed in {:.2} s",
        inp.tenants.len(),
        g0.elapsed().as_secs_f64()
    );
    for (t, r) in inp.tenants.iter().zip(&inp.refs) {
        let natural = r.violations.len() - t.planted.len().min(r.violations.len());
        if natural > 0 {
            println!(
                "reference: {} ({}) reports {natural} violation(s) beyond the planted ones, first {:?}",
                t.name,
                t.kind.name(),
                r.violations.iter().find(|v| !t.planted.iter().any(|p| p.matches(v)))
            );
        }
    }
    let bench_dir = out_dir();
    let scratch = sys::ScratchDir::create(&bench_dir, w.name());
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    let mut report = String::new();
    let epoch = Instant::now();
    let mut log = SpanLog::default();

    if args.trace {
        traced_run(
            &args,
            &inp,
            scratch.path(),
            &mut tally,
            &mut metrics,
            &mut report,
            &mut log,
            epoch,
        );
    } else {
        untraced_run(&args, &inp, scratch.path(), &mut tally, &mut metrics, &mut report, epoch);
    }
    drop(scratch);

    for f in tally.failures.iter().take(10) {
        eprintln!("FAILED: {f}");
    }
    let error_rate = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!("{report}");
    println!(
        "error_rate = {error_rate} fraction ({} of {} operations failed)",
        tally.failed, tally.attempted
    );

    let out = bench_dir.join("out");
    let stem = format!("{}-seed{}-trace{}", w.name(), args.seed, u8::from(args.trace));
    if std::fs::create_dir_all(&out).is_ok() {
        let full = format!(
            "{{\"workload\": {}, \"seed\": {}, \"host\": {host}, \"error_rate\": {error_rate:?}, \"metrics\": {}}}\n",
            json_str(w.name()),
            args.seed,
            metrics.json(&[])
        );
        let _ = std::fs::write(out.join(format!("{stem}.json")), full);
        if args.trace {
            let _ = log.write(&out.join(format!("{stem}-spans.json")));
        }
    }

    let names: Vec<&str> = if args.trace {
        metrics.0.iter().map(|m| m.0).filter(|n| !GATED.contains(n)).collect()
    } else {
        GATED.to_vec()
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        metrics.json(&names)
    );
}

/// Lag percentiles (p50, p99) with their sample count.
fn lag_line(lags: &[f64]) -> (f64, f64) {
    (quantile(lags, 0.5), quantile(lags, 0.99))
}

#[allow(clippy::too_many_arguments)]
fn untraced_run(
    args: &Args,
    inp: &Inputs,
    scratch: &Path,
    tally: &mut Tally,
    m: &mut Metrics,
    report: &mut String,
    epoch: Instant,
) {
    let w = args.workload;
    let mut tr = Tracer::new(false, "main", epoch);
    let mut extra = Vec::new();
    let baseline = sys::heap_live() as f64;
    if let Some(traces) = &inp.model {
        let bars = model::bars();
        let setups = model::setup_samples(&bars, 201);
        let warm = model::pass(&bars, traces, &mut tr);
        let mw = model_passes(&bars, traces, &warm, args.seconds, 1, tally, &mut tr);
        let err = model::model_err_pct(&bars, &warm.slowdowns);
        let _ = writeln!(
            report,
            "{:<22} {:<12} {:>8} {:>8} {:>8}",
            "lifeguard", "config", "model", "paper", "err %"
        );
        for (b, s) in bars.iter().zip(&warm.slowdowns) {
            let _ = writeln!(
                report,
                "{:<22} {:<12} {:>8.3} {:>8.2} {:>8.1}",
                b.kind.name(),
                b.label,
                s,
                b.paper,
                (s - b.paper) / b.paper * 100.0
            );
        }
        m.set("setup_s", median(&setups), "s");
        m.set("records_per_s", median(&mw.rates), "rec/s");
        m.set("cpu_ms_per_mrec", mw.cpu.as_secs_f64() * 1e3 / (mw.records as f64 / 1e6), "ms/Mrec");
        m.set("peak_heap_mb", (mean(&mw.peaks) - baseline) / 1e6, "MB");
        m.set("model_err_pct", err, "%");
        let _ = writeln!(
            report,
            "{} timed passes (rate p10/p50/p90 {:.0}/{:.0}/{:.0} rec/s)",
            mw.rates.len(),
            quantile(&mw.rates, 0.1),
            quantile(&mw.rates, 0.5),
            quantile(&mw.rates, 0.9)
        );
    } else {
        // Untimed warm-up pass (its outputs are still checked).
        let mut warm = Window::default();
        front_end_pass(w, inp, scratch, 0, args.seed, &mut warm, tally, &mut tr, &mut extra);
        let win =
            timed_passes(w, inp, scratch, args.seed, args.seconds, 3, tally, &mut tr, &mut extra);
        m.set("setup_s", median(&win.setups), "s");
        m.set("records_per_s", win.records_per_s(), "rec/s");
        m.set("cpu_ms_per_mrec", win.cpu_ms_per_mrec(), "ms/Mrec");
        m.set("peak_heap_mb", (mean(&win.peaks) - baseline) / 1e6, "MB");
        let (p50, p99) = lag_line(&win.lags_ms);
        m.set("detect_lag_p50_ms", p50, "ms");
        m.set("detect_lag_p99_ms", p99, "ms");
        let _ = writeln!(
            report,
            "{} timed passes (rate p10/p50/p90 {:.0}/{:.0}/{:.0} rec/s, peak heap p10/p50/p90 {:.1}/{:.1}/{:.1} MB, {:.3} of sends refused, {:.1} steals/pass), {} lag samples",
            win.passes,
            quantile(&win.rates, 0.1),
            quantile(&win.rates, 0.5),
            quantile(&win.rates, 0.9),
            (quantile(&win.peaks, 0.1) - baseline) / 1e6,
            (quantile(&win.peaks, 0.5) - baseline) / 1e6,
            (quantile(&win.peaks, 0.9) - baseline) / 1e6,
            win.refused as f64 / win.try_sends.max(1) as f64,
            win.steals as f64 / win.passes as f64,
            win.lags_ms.len()
        );
        if w == Workload::NetCapture {
            m.set(
                "capture_bytes_per_record",
                win.net.capture_bytes as f64 / win.net_records.max(1) as f64,
                "B/rec",
            );
            m.set("query_p50_us", quantile(&win.lake.all_us, 0.5), "us");
            m.set("query_p99_us", quantile(&win.lake.all_us, 0.99), "us");
            let _ = writeln!(report, "{} lake queries", win.lake.all_us.len());
        }
    }
    m.set("peak_rss_mb", sys::peak_rss_bytes() as f64 / 1e6, "MB");
    m.set("error_rate", tally.failed as f64 / tally.attempted.max(1) as f64, "fraction");
    for (name, value, unit) in &m.0 {
        let _ = writeln!(report, "{name} = {value} {unit}");
    }
}

#[allow(clippy::too_many_arguments)]
fn traced_run(
    args: &Args,
    inp: &Inputs,
    scratch: &Path,
    tally: &mut Tally,
    m: &mut Metrics,
    report: &mut String,
    log: &mut SpanLog,
    epoch: Instant,
) {
    let w = args.workload;
    let chunk = pool::pool_config().chunk_bytes;
    let phase = args.seconds * 0.3;
    let mut off = Tracer::new(false, "main", epoch);
    let mut extra = Vec::new();

    // Untraced and traced passes of the workload itself: the traced minus
    // the untraced rate is the tracing overhead.
    let mut own = Tracer::new(true, "main", epoch);
    let (untraced_rate, traced_rate, cpu_ns_per_rec, own_win) = if let Some(traces) = &inp.model {
        let bars = model::bars();
        let warm = model::pass(&bars, traces, &mut off);
        let u = model_passes(&bars, traces, &warm, phase, 1, tally, &mut off);
        let t = model_passes(&bars, traces, &warm, phase, 1, tally, &mut own);
        let cpu = u.cpu.as_secs_f64() * 1e9 / u.records as f64;
        let sim = own.agg("sim.Simulator::run_trace");
        m.set("sim.ns_per_rec", sim.total_ns as f64 / t.records as f64, "ns/rec");
        (median(&u.rates), median(&t.rates), cpu, None)
    } else {
        let mut warm = Window::default();
        front_end_pass(w, inp, scratch, 0, args.seed, &mut warm, tally, &mut off, &mut extra);
        let u = timed_passes(w, inp, scratch, args.seed, phase, 2, tally, &mut off, &mut extra);
        let mut fwd = Vec::new();
        let t = timed_passes(w, inp, scratch, args.seed ^ 0x7, phase, 2, tally, &mut own, &mut fwd);
        for f in fwd {
            log.absorb(f);
        }
        let cpu = u.cpu.as_secs_f64() * 1e9 / u.records as f64;
        (u.records_per_s(), t.records_per_s(), cpu, Some(t))
    };

    // The runtime layer: the workload's own traced pool passes, or one
    // probe pass of its tenants through an in-process pool.
    let probe = match w {
        Workload::LocalLight | Workload::LocalAccel => None,
        _ => {
            let mut t = Tracer::new(true, "probe-pool", epoch);
            let mut win = Window::default();
            let st = pool::pass(&inp.tenants, &inp.refs, &mut t);
            win.absorb(st, tally);
            Some((win, t))
        }
    };
    let (rt, rt_agg) = match &probe {
        Some((win, t)) => (win, t),
        None => (own_win.as_ref().expect("pool workloads have their own window"), &own),
    };
    let try_send = rt_agg.agg("runtime.try_send_batch");
    let finish = rt_agg.agg("runtime.SessionHandle::finish");
    m.set("runtime.try_send_ns", try_send.total_ns as f64 / try_send.count.max(1) as f64, "ns");
    m.set("runtime.refused_frac", rt.refused as f64 / rt.try_sends.max(1) as f64, "fraction");
    m.set("runtime.peak_channel_kb", rt.peak_channel_bytes as f64 / 1024.0, "KiB");
    m.set("runtime.steals", rt.steals as f64 / rt.passes as f64, "count/pass");
    m.set("runtime.epoch_jobs", rt.epoch_jobs as f64 / rt.passes as f64, "count/pass");
    m.set("runtime.finish_ms", finish.total_ns as f64 / finish.count.max(1) as f64 / 1e6, "ms");
    m.set("lifeguards.metadata_mb", rt.metadata_bytes as f64 / rt.passes as f64 / 1e6, "MB");

    // The net and lake layers: the workload's own traced passes, or one
    // probe pass of its first two tenants over loopback.
    let probe_net;
    let net_win = if w == Workload::NetCapture {
        own_win.as_ref().expect("net workload window")
    } else {
        let two = Inputs {
            tenants: inp.tenants[..2].to_vec(),
            refs: inp.refs[..2].to_vec(),
            model: None,
        };
        let mut t = Tracer::new(true, "probe-net", epoch);
        let mut fwd = Vec::new();
        let mut win = Window::default();
        front_end_pass(
            Workload::NetCapture,
            &two,
            scratch,
            1,
            args.seed,
            &mut win,
            tally,
            &mut t,
            &mut fwd,
        );
        log.absorb(t);
        for f in fwd {
            log.absorb(f);
        }
        probe_net = win;
        &probe_net
    };
    m.set(
        "trace.deferred_sends",
        net_win.net.deferred_sends as f64 / net_win.passes as f64,
        "count/pass",
    );
    m.set("net.handshake_ms", median(&net_win.net.handshake_ms), "ms");
    m.set(
        "net.credit_stalls",
        net_win.net.credit_stalls as f64 / net_win.passes as f64,
        "count/pass",
    );
    m.set(
        "net.credit_stall_ms",
        net_win.net.credit_stall_ns as f64 / 1e6 / net_win.passes as f64,
        "ms/pass",
    );
    m.set(
        "net.frame_bytes_per_rec",
        net_win.net.frame_bytes as f64 / net_win.net_records.max(1) as f64,
        "B/rec",
    );
    m.set("lake.query_us", median(&net_win.lake.filter_us), "us");
    m.set("lake.neighborhood_us", median(&net_win.lake.neighborhood_us), "us");
    m.set(
        "lake.frames_visited_per_query",
        net_win.lake.frames_visited as f64 / net_win.lake.filter_us.len().max(1) as f64,
        "frames",
    );
    let sends = log.agg("net.TraceForwarder::send_batch");
    m.set("net.send_ns_per_batch", sends.total_ns as f64 / sends.count.max(1) as f64, "ns");

    // The sequential replay through the worker-side layers.
    let mut rp_tr = Tracer::new(true, "replay", epoch);
    let rp = layers::replay(&inp.tenants, chunk, &mut rp_tr);
    tally.add(1, u64::from(!rp.failures.is_empty()), rp.failures.clone());
    let recs = rp.records as f64;
    let per_rec = |name: &str| rp_tr.agg(name).total_ns as f64 / recs;
    let chunk_ns = per_rec("lba.chunks");
    let extract_ns = per_rec("lba.extract_batch");
    let dispatch_ns = per_rec("core.DispatchPipeline::dispatch_batch");
    let handle_ns = per_rec("lifeguards.Lifeguard::handle_batch");
    let encode_ns = per_rec("trace.TraceWriter::write_chunk_batch");
    let index_ns = per_rec("trace.TraceWriter::write_chunk_batch+index") - encode_ns;
    let decode_ns = per_rec("trace.TraceReader::read_chunk_into_batch");
    let step_ns = per_rec("timing.CoSim::step_record");
    m.set("lba.chunk_ns_per_rec", chunk_ns, "ns/rec");
    m.set("lba.extract_ns_per_rec", extract_ns, "ns/rec");
    m.set("lba.events_per_rec", rp.events_extracted as f64 / recs, "events/rec");
    m.set("core.dispatch_ns_per_rec", dispatch_ns, "ns/rec");
    m.set("core.if_hit_frac", ratio(rp.if_hits, rp.if_lookups), "fraction");
    m.set("core.it_absorbed_frac", ratio(rp.it_prop_filtered, rp.it_prop_in), "fraction");
    m.set("core.delivered_per_rec", rp.delivered as f64 / recs, "events/rec");
    m.set(
        "core.etct_dropped_frac",
        ratio(rp.unregistered_dropped, rp.events_extracted),
        "fraction",
    );
    m.set(
        "lifeguards.handle_ns_per_event",
        rp_tr.agg("lifeguards.Lifeguard::handle_batch").total_ns as f64
            / rp.delivered.max(1) as f64,
        "ns/event",
    );
    m.set("trace.encode_ns_per_rec", encode_ns, "ns/rec");
    m.set("trace.index_ns_per_rec", index_ns, "ns/rec");
    m.set("trace.decode_ns_per_rec", decode_ns, "ns/rec");
    m.set("trace.bytes_per_rec", rp.encoded_bytes as f64 / recs, "B/rec");
    m.set("trace.index_bytes_per_rec", rp.index_bytes as f64 / recs, "B/rec");
    m.set("timing.step_ns_per_rec", step_ns, "ns/rec");
    m.set("timing.handler_instrs_per_rec", rp.handler_instrs as f64 / recs, "instrs/rec");
    m.set("timing.stall_cycles_frac", ratio(rp.stall_cycles, rp.monitored_cycles), "fraction");
    let replay_sim_ns = per_rec("sim.Simulator::run_trace");
    if inp.model.is_none() {
        m.set("sim.ns_per_rec", replay_sim_ns, "ns/rec");
    }
    // The model's layers are replayed one tenant per bar, so its ledger
    // compares them with `Simulator::run_trace` over those same tenants.
    let cpu_ns_per_rec = if inp.model.is_some() { replay_sim_ns } else { cpu_ns_per_rec };

    // The ledger: the self times of the layers on the workload's measured
    // CPU path, against its CPU per record; the rest is unattributed.
    let path: Vec<(&str, f64)> = match w {
        Workload::LocalLight | Workload::LocalAccel => {
            vec![("core dispatch (extract + gate)", dispatch_ns), ("lifeguard handlers", handle_ns)]
        }
        Workload::NetCapture => vec![
            ("trace decode", decode_ns),
            ("trace index", index_ns),
            ("core dispatch (extract + gate)", dispatch_ns),
            ("lifeguard handlers", handle_ns),
        ],
        Workload::PaperModel => vec![
            ("core dispatch (extract + gate)", dispatch_ns),
            ("lifeguard handlers", handle_ns),
            ("timing step_record", step_ns),
        ],
    };
    let attributed: f64 = path.iter().map(|p| p.1).sum();
    let unattributed = 1.0 - attributed / cpu_ns_per_rec;
    let overhead = (untraced_rate - traced_rate) / untraced_rate;
    m.set("ledger.unattributed_frac", unattributed, "fraction");
    m.set("ledger.trace_overhead_frac", overhead, "fraction");
    m.set("ledger.cpu_ns_per_rec", cpu_ns_per_rec, "ns/rec");

    let basis = if inp.model.is_some() {
        "Simulator::run_trace over the replayed tenants"
    } else {
        "CPU of the untraced passes"
    };
    let _ = writeln!(report, "ledger ({}): {cpu_ns_per_rec:.1} ns/rec, {basis}", w.name());
    for (layer, ns) in &path {
        let _ = writeln!(
            report,
            "  {layer:<32} {ns:>9.1} ns/rec {:>6.1} %",
            ns / cpu_ns_per_rec * 100.0
        );
    }
    let _ = writeln!(
        report,
        "  {:<32} {:>9.1} ns/rec {:>6.1} %",
        "unattributed",
        cpu_ns_per_rec - attributed,
        unattributed * 100.0
    );
    let _ = writeln!(
        report,
        "tracing overhead: untraced {untraced_rate:.0} rec/s, traced {traced_rate:.0} rec/s ({:.1} %)",
        overhead * 100.0
    );
    let _ = writeln!(report, "self time per span (all tracers):");
    log.absorb(own);
    if let Some((_, t)) = probe {
        log.absorb(t);
    }
    log.absorb(rp_tr);
    for (name, a) in log.names() {
        let _ = writeln!(
            report,
            "  {name:<48} {:>9} calls {:>12.3} ms self",
            a.count,
            a.self_ns as f64 / 1e6
        );
    }
    for (name, value, unit) in &m.0 {
        let _ = writeln!(report, "{name} = {value} {unit}");
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}
