//! Acceptance test for the streaming runtime: the multi-tenant pool
//! serves concurrent benchmark sessions end to end. (The pool's agreement
//! with the sequential `Monitor` is pinned in `pipeline_determinism.rs`.)

use igm::lifeguards::LifeguardKind;
use igm::sim::{SimConfig, Simulator};
use igm::workload::Benchmark;

#[test]
fn run_concurrent_serves_four_tenants() {
    let sim = Simulator::new(SimConfig::baseline(LifeguardKind::AddrCheck));
    let tenants = [
        (Benchmark::Gzip, 8_000),
        (Benchmark::Mcf, 8_000),
        (Benchmark::Vpr, 8_000),
        (Benchmark::Gap, 8_000),
    ];
    let reports = sim.run_concurrent(&tenants, 4);
    assert_eq!(reports.len(), 4);
    for (r, (b, n)) in reports.iter().zip(&tenants) {
        assert_eq!(r.name, b.name());
        assert_eq!(r.records, *n);
        assert!(
            r.violations.is_empty(),
            "{}: clean workload flagged {:?}",
            r.name,
            r.violations.first()
        );
        assert!(r.records_per_sec() > 0.0);
    }
}
