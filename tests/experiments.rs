//! Shape-level checks of the paper's experimental claims, at reduced scale
//! (the full-scale numbers are produced by the `igm-bench` figure
//! binaries; see the README's Benches section).

use igm::accel::{AccelConfig, IfGeometry, ItConfig};
use igm::lifeguards::LifeguardKind;
use igm::profiling::{
    if_reduction, it_reduction, mtlb_flexible, mtlb_miss_rate, trace_footprint, CcMode,
};
use igm::sim::{SimConfig, Simulator};
use igm::workload::{Benchmark, MtBenchmark};

const N: u64 = 60_000;

/// Figure 11's monotone staircase: each added technique helps (or at least
/// does not hurt) every lifeguard it applies to.
#[test]
fn techniques_compose_monotonically() {
    for kind in [LifeguardKind::MemCheck, LifeguardKind::TaintCheck] {
        let b = Benchmark::Gzip;
        let steps = [
            AccelConfig::baseline(),
            AccelConfig::lma(),
            AccelConfig::lma_it(ItConfig::taint_style()),
            AccelConfig::full(ItConfig::taint_style()),
        ];
        let slowdowns: Vec<f64> = steps
            .iter()
            .map(|a| Simulator::new(SimConfig::with_accel(kind, *a)).run_benchmark(b, N).slowdown())
            .collect();
        for w in slowdowns.windows(2) {
            assert!(
                w[1] <= w[0] * 1.02,
                "{kind}: adding a technique must not slow things down: {slowdowns:?}"
            );
        }
    }
}

/// §7.2: MemCheck is the heaviest lifeguard (its events are a superset of
/// AddrCheck's and TaintCheck's).
#[test]
fn memcheck_is_the_most_expensive_lifeguard() {
    let b = Benchmark::Vortex;
    let slow = |kind| Simulator::new(SimConfig::baseline(kind)).run_benchmark(b, N).slowdown();
    let mc = slow(LifeguardKind::MemCheck);
    assert!(mc > slow(LifeguardKind::AddrCheck));
    assert!(mc > slow(LifeguardKind::TaintCheck));
}

/// §7.1: detailed tracking costs more than plain TaintCheck, yet IT still
/// rescues it — the flexibility argument against value-based hardware.
#[test]
fn detailed_tracking_costlier_but_accelerated() {
    let b = Benchmark::Gcc;
    let plain = Simulator::new(SimConfig::baseline(LifeguardKind::TaintCheck)).run_benchmark(b, N);
    let detailed =
        Simulator::new(SimConfig::baseline(LifeguardKind::TaintCheckDetailed)).run_benchmark(b, N);
    assert!(detailed.slowdown() > plain.slowdown());
    let detailed_opt =
        Simulator::new(SimConfig::optimized(LifeguardKind::TaintCheckDetailed)).run_benchmark(b, N);
    assert!(detailed_opt.slowdown() < detailed.slowdown() / 1.5);
}

/// §8: the memory-bound benchmark has the smallest monitoring overhead.
/// (Needs a steady-state run length: mcf's huge footprint makes short runs
/// cold-start dominated.)
#[test]
fn mcf_overhead_is_smallest() {
    let n = 250_000;
    let cfg = SimConfig::optimized(LifeguardKind::AddrCheck);
    let mcf = Simulator::new(cfg.clone()).run_benchmark(Benchmark::Mcf, n).slowdown();
    for b in [Benchmark::Crafty, Benchmark::Vortex, Benchmark::Gzip] {
        let other = Simulator::new(cfg.clone()).run_benchmark(b, n).slowdown();
        assert!(
            mcf <= other + 0.15,
            "mcf ({mcf:.2}) should be among the cheapest, {b} was {other:.2}"
        );
    }
}

/// Figure 13(a): IT removes a large fraction of propagation events for
/// every benchmark.
#[test]
fn it_reduction_band_holds_across_suite() {
    for b in Benchmark::ALL {
        let r = it_reduction(b.trace(N), ItConfig::taint_style());
        assert!((0.30..=0.95).contains(&r), "{b}: {r:.2}");
    }
}

/// Figure 13(b): the filter curve rises with capacity and saturates.
#[test]
fn if_curve_rises_and_saturates() {
    let b = Benchmark::Parser;
    let mut prev = 0.0;
    for e in [8usize, 32, 128] {
        let r = if_reduction(b.trace(N), IfGeometry::fully_associative(e), CcMode::Combined);
        assert!(r >= prev - 0.02, "{e} entries: {r:.2} after {prev:.2}");
        prev = r;
    }
    assert!(prev > 0.35, "128-entry filter should remove a third of checks: {prev:.2}");
}

/// Figure 14: fixed-width misses are worst for mcf; the flexible design is
/// near-negligible for every benchmark.
#[test]
fn mtlb_flexible_design_wins() {
    let mcf20 = mtlb_miss_rate(Benchmark::Mcf.trace(N), 20, 16);
    for b in [Benchmark::Crafty, Benchmark::Gzip] {
        let other = mtlb_miss_rate(b.trace(N), 20, 16);
        assert!(mcf20 >= other, "mcf must have the worst fixed-width miss rate");
    }
    for b in Benchmark::ALL {
        let fp = trace_footprint(b.trace(N));
        let (bits, rate) = mtlb_flexible(&fp, b.trace(N), 64);
        assert!((8..=20).contains(&bits));
        // mcf's footprint is so sparse that even the flexible width keeps a
        // small miss rate (as in the paper's Figure 14(b) mcf row); for
        // everything else the flexible design is near-negligible.
        let bound = if b == Benchmark::Mcf { 0.12 } else { 0.02 };
        assert!(rate < bound, "{b}: flexible miss rate {rate:.4}");
    }
}

/// LockSet on the Table 3 suite: overhead is reduced by the applicable
/// techniques, and no benchmark reports a (false) race.
#[test]
fn lockset_suite_behaviour() {
    for b in MtBenchmark::ALL {
        let base =
            Simulator::new(SimConfig::baseline(LifeguardKind::LockSet)).run_mt_benchmark(b, N);
        let opt =
            Simulator::new(SimConfig::optimized(LifeguardKind::LockSet)).run_mt_benchmark(b, N);
        assert!(opt.slowdown() <= base.slowdown(), "{b}");
        assert!(base.violations.is_empty() && opt.violations.is_empty(), "{b}");
    }
}

/// Determinism: the same configuration yields bit-identical reports.
#[test]
fn simulation_is_deterministic() {
    let run = || {
        let r = Simulator::new(SimConfig::optimized(LifeguardKind::MemCheck))
            .run_benchmark(Benchmark::Twolf, N);
        (r.timing.monitored_cycles, r.dispatch.delivered, r.metadata_bytes)
    };
    assert_eq!(run(), run());
}
