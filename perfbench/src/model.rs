//! `paper_model`: the cycle model (`igm-timing` under `igm-sim`) over the
//! 16 Figure 11 configurations, each bar the mean simulated slowdown over
//! its suite, beside the paper's value.

use crate::inputs::ModelTraces;
use crate::spans::Tracer;
use igm_core::{AccelConfig, ItConfig};
use igm_lifeguards::LifeguardKind;
use igm_sim::{SimConfig, Simulator};
use std::time::{Duration, Instant};

/// The paper's Figure 11 bars (average slowdowns), in the order
/// [`bars`] yields the configurations.
pub const PAPER_FIG11: [(LifeguardKind, &[f64]); 5] = [
    (LifeguardKind::AddrCheck, &[3.23, 1.90, 1.02]),
    (LifeguardKind::MemCheck, &[7.80, 6.05, 3.81, 3.27]),
    (LifeguardKind::TaintCheck, &[3.36, 2.29, 1.36]),
    (LifeguardKind::TaintCheckDetailed, &[4.21, 2.71, 1.51]),
    (LifeguardKind::LockSet, &[4.25, 3.20, 1.40]),
];

/// One modelled bar.
pub struct Bar {
    pub kind: LifeguardKind,
    pub label: String,
    pub paper: f64,
    pub cfg: SimConfig,
}

/// The 16 Figure 11 configurations: BASE, LMA, LMA+IT, LMA+IT+IF per
/// lifeguard, masked by its Figure 2 row with duplicates dropped.
pub fn bars() -> Vec<Bar> {
    let mut out = Vec::new();
    for (kind, paper) in PAPER_FIG11 {
        let steps = [
            AccelConfig::baseline(),
            AccelConfig::lma(),
            AccelConfig::lma_it(ItConfig::taint_style()),
            AccelConfig::full(ItConfig::taint_style()),
        ];
        let mut labels: Vec<String> = Vec::new();
        for accel in steps {
            let cfg = SimConfig::with_accel(kind, accel);
            let label = cfg.accel.label();
            if labels.last() == Some(&label) {
                continue;
            }
            labels.push(label.clone());
            out.push(Bar { kind, label, paper: 0.0, cfg });
        }
        assert_eq!(labels.len(), paper.len(), "{kind}: Figure 11 bar count");
        let first = out.len() - paper.len();
        for (bar, p) in out[first..].iter_mut().zip(paper) {
            bar.paper = *p;
        }
    }
    assert_eq!(out.len(), 16, "Figure 11 has 16 bars");
    out
}

/// Set-ups timed together in one sample: a single set-up of the 16
/// simulators takes about a tenth of a microsecond, near the clock's
/// own resolution.
const SETUPS_PER_SAMPLE: u32 = 64;

/// Times `reps` samples of set-ups of the 16 simulators (one
/// `Simulator::new` per bar), in seconds per set-up.
pub fn setup_samples(bars: &[Bar], reps: usize) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..SETUPS_PER_SAMPLE {
                let sims: Vec<Simulator> =
                    bars.iter().map(|b| Simulator::new(b.cfg.clone())).collect();
                std::hint::black_box(&sims);
            }
            t0.elapsed().as_secs_f64() / f64::from(SETUPS_PER_SAMPLE)
        })
        .collect()
}

/// One pass over every bar.
pub struct ModelPass {
    pub records: u64,
    pub wall: Duration,
    /// Mean simulated slowdown per bar.
    pub slowdowns: Vec<f64>,
    /// Every simulated statistic, for the same-seed determinism check.
    pub fingerprint: Vec<String>,
}

pub fn pass(bars: &[Bar], traces: &ModelTraces, tr: &mut Tracer) -> ModelPass {
    let mut records = 0u64;
    let mut slowdowns = Vec::with_capacity(bars.len());
    let mut fingerprint = Vec::new();
    let t0 = Instant::now();
    for bar in bars {
        let sim = tr.time("sim.Simulator::new", || Simulator::new(bar.cfg.clone()));
        let mut sum = 0.0;
        let mut runs = 0usize;
        let mut run = |premark: &[(u32, u32)], heap, trace: &[igm_isa::TraceEntry]| {
            let g = tr.begin("sim.Simulator::run_trace");
            let r = sim.run_trace(premark, heap, trace.iter().copied());
            tr.end(g);
            records += r.timing.records;
            sum += r.slowdown();
            runs += 1;
            fingerprint.push(format!("{:?} {:?} {}", r.timing, r.dispatch, r.violations.len()));
        };
        if bar.kind == LifeguardKind::LockSet {
            for (_, premark, trace) in &traces.mt {
                run(premark, None, trace);
            }
        } else {
            for (b, trace) in &traces.spec {
                let profile = b.profile();
                run(&profile.premark_regions(), Some(profile.heap_region()), trace);
            }
        }
        slowdowns.push(sum / runs as f64);
    }
    ModelPass { records, wall: t0.elapsed(), slowdowns, fingerprint }
}

/// Mean absolute relative error of the modelled bars against the paper's,
/// in percent.
pub fn model_err_pct(bars: &[Bar], slowdowns: &[f64]) -> f64 {
    let sum: f64 = bars.iter().zip(slowdowns).map(|(b, s)| ((s - b.paper) / b.paper).abs()).sum();
    sum / bars.len() as f64 * 100.0
}
