//! Seeded inputs: the tenants of each workload, their SPEC-like traces
//! (built through `TraceGen::new(profile, n, seed)`), and the violations
//! planted into them at seeded positions.

use igm_core::{AccelConfig, ItConfig};
use igm_isa::{Annotation, CtrlOp, JumpTarget, MemRef, OpClass, Reg, TraceEntry};
use igm_lifeguards::violation::TaintSink;
use igm_lifeguards::{LifeguardKind, Violation};
use igm_runtime::SessionConfig;
use igm_workload::{Benchmark, MtBenchmark, TraceGen};

/// Records per tenant on the two local pool workloads (the length at which
/// the fixed-seed bzip2 and gap TaintCheck traces raise a natural
/// `TaintedUse`; a natural violation the reference also reports is an
/// expected output, not a failure).
pub const LOCAL_RECORDS: u64 = 200_000;
/// Records per tenant on `net_capture`.
pub const NET_RECORDS: u64 = 400_000;
/// Records per trace on `paper_model`.
/// Records per trace on `paper_model` (the figure binaries' default
/// length: shorter traces are dominated by cold modelled caches).
pub const MODEL_RECORDS: u64 = 200_000;
/// Planted violations per tenant.
pub const PLANTED_PER_TENANT: usize = 8;

/// The eight SPEC-like tenants of the local workloads.
pub const LOCAL_BENCHES: [Benchmark; 8] = [
    Benchmark::Bzip2,
    Benchmark::Crafty,
    Benchmark::Gap,
    Benchmark::Gcc,
    Benchmark::Gzip,
    Benchmark::Mcf,
    Benchmark::Twolf,
    Benchmark::Vpr,
];

/// `local_accel`'s lifeguards, one per tenant of [`LOCAL_BENCHES`]:
/// MemCheck x3, TaintCheck x3, TaintCheck-detailed x2.
const ACCEL_KINDS: [LifeguardKind; 8] = [
    LifeguardKind::TaintCheck,
    LifeguardKind::MemCheck,
    LifeguardKind::TaintCheck,
    LifeguardKind::MemCheck,
    LifeguardKind::TaintCheckDetailed,
    LifeguardKind::MemCheck,
    LifeguardKind::TaintCheck,
    LifeguardKind::TaintCheckDetailed,
];

/// `net_capture`'s two AddrCheck tenants.
pub const NET_BENCHES: [Benchmark; 2] = [Benchmark::Gcc, Benchmark::Twolf];

/// SplitMix64: the benchmark's own seed mixer.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A small deterministic generator for positions and query keys.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(mix(seed))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = mix(self.0);
        self.0
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

/// The violation a planted record must raise, exactly once.
#[derive(Debug, Clone, Copy)]
pub struct Planted {
    /// Index of the violating record in [`Tenant::records`].
    pub index: usize,
    /// Its pc (unique across tenants of a workload).
    pub pc: u32,
    /// Whether it is the TaintCheck recipe (else an out-of-bounds access).
    pub taint: bool,
}

impl Planted {
    /// Whether `v` is this planted violation.
    pub fn matches(&self, v: &Violation) -> bool {
        match v {
            Violation::TaintedUse { pc, sink: TaintSink::JumpTarget, .. } => {
                self.taint && *pc == self.pc
            }
            Violation::UnallocatedAccess { pc, .. } => !self.taint && *pc == self.pc,
            _ => false,
        }
    }
}

/// One monitored application: its configuration and its whole trace.
#[derive(Clone)]
pub struct Tenant {
    pub name: String,
    pub kind: LifeguardKind,
    pub accel: AccelConfig,
    pub premark: Vec<(u32, u32)>,
    pub records: Vec<TraceEntry>,
    /// Planted violations in record order.
    pub planted: Vec<Planted>,
}

impl Tenant {
    /// The pool session configuration (synthetic mode, loader regions
    /// premarked), as every runtime front-end receives it.
    pub fn session_config(&self) -> SessionConfig {
        SessionConfig::new(&self.name, self.kind)
            .accel(self.accel)
            .synthetic()
            .premark(&self.premark)
    }
}

/// The full Figure 2 accelerator set for `kind`, masked by its row.
pub fn full_accel(kind: LifeguardKind) -> AccelConfig {
    kind.mask_config(&AccelConfig::full(kind.it_config().unwrap_or_else(ItConfig::taint_style)))
}

/// A SPEC-like trace of `n` records for `bench`, seeded from `seed`.
pub fn spec_trace(bench: Benchmark, n: u64, seed: u64) -> Vec<TraceEntry> {
    TraceGen::new(bench.profile(), n, mix(seed ^ ((bench as u64 + 1) << 32))).collect()
}

/// Builds a tenant for `bench` and plants [`PLANTED_PER_TENANT`]
/// violations at positions drawn from `seed`. AddrCheck/MemCheck get an
/// access outside every premarked region and live block; the TaintCheck
/// variants get `ReadInput`, a load from that buffer and an indirect
/// jump through the loaded register. Each recipe ends by overwriting the
/// register with an immediate, so no state leaks into the rest of the
/// trace.
pub fn tenant(
    slot: usize,
    bench: Benchmark,
    kind: LifeguardKind,
    accel: AccelConfig,
    n: u64,
    seed: u64,
) -> Tenant {
    let base = spec_trace(bench, n, seed);
    let taint = matches!(kind, LifeguardKind::TaintCheck | LifeguardKind::TaintCheckDetailed);
    let mut positions: Vec<usize> = Vec::new();
    let mut rng = Rng::new(seed ^ 0x5eed_0000 ^ slot as u64);
    while positions.len() < PLANTED_PER_TENANT {
        let p = rng.range(n / 20, n) as usize;
        if !positions.contains(&p) {
            positions.push(p);
        }
    }
    positions.sort_unstable();
    let mut records = Vec::with_capacity(base.len() + 4 * positions.len());
    let mut planted = Vec::with_capacity(positions.len());
    let mut next = positions.iter().copied().enumerate().peekable();
    for (i, e) in base.into_iter().enumerate() {
        while let Some((k, _)) = next.next_if(|(_, p)| *p == i) {
            let pc = 0x0e00_0000 + ((slot as u32) << 12) + ((k as u32) << 4);
            let addr = 0x2000_0000 + ((slot as u32) << 12) + ((k as u32) << 6);
            if taint {
                records
                    .push(TraceEntry::annot(pc - 8, Annotation::ReadInput { base: addr, len: 4 }));
                records.push(TraceEntry::op(
                    pc - 4,
                    OpClass::MemToReg { src: MemRef::word(addr), rd: Reg::Edx },
                ));
                planted.push(Planted { index: records.len(), pc, taint });
                records.push(TraceEntry::ctrl(
                    pc,
                    CtrlOp::Indirect { target: JumpTarget::Reg(Reg::Edx) },
                ));
            } else {
                planted.push(Planted { index: records.len(), pc, taint });
                records.push(TraceEntry::op(
                    pc,
                    OpClass::MemToReg { src: MemRef::word(addr), rd: Reg::Edx },
                ));
            }
            records.push(TraceEntry::op(pc + 4, OpClass::ImmToReg { rd: Reg::Edx }));
        }
        records.push(e);
    }
    Tenant {
        name: format!("{}-{slot}", bench.name()),
        kind,
        accel,
        premark: bench.profile().premark_regions(),
        records,
        planted,
    }
}

/// `local_light`: eight AddrCheck tenants, baseline accelerators.
pub fn local_light(seed: u64) -> Vec<Tenant> {
    LOCAL_BENCHES
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let kind = LifeguardKind::AddrCheck;
            tenant(i, *b, kind, AccelConfig::baseline(), LOCAL_RECORDS, seed)
        })
        .collect()
}

/// `local_accel`: the same tenants under the heavy lifeguards with their
/// full accelerator sets.
pub fn local_accel(seed: u64) -> Vec<Tenant> {
    LOCAL_BENCHES
        .iter()
        .zip(ACCEL_KINDS)
        .enumerate()
        .map(|(i, (b, kind))| tenant(i, *b, kind, full_accel(kind), LOCAL_RECORDS, seed))
        .collect()
}

/// `net_capture`: two AddrCheck tenants streamed over loopback.
pub fn net_capture(seed: u64) -> Vec<Tenant> {
    NET_BENCHES
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let kind = LifeguardKind::AddrCheck;
            tenant(i, *b, kind, AccelConfig::baseline(), NET_RECORDS, seed)
        })
        .collect()
}

/// The `paper_model` traces: the 11 SPEC-like ones (seeded) and the 5
/// multithreaded LockSet ones. `MtTraceGen` has no public seeded
/// constructor, so the multithreaded traces keep their fixed seed.
pub struct ModelTraces {
    pub spec: Vec<(Benchmark, Vec<TraceEntry>)>,
    pub mt: Vec<MtTrace>,
}

/// A multithreaded benchmark, its premarked regions and its records.
pub type MtTrace = (MtBenchmark, Vec<(u32, u32)>, Vec<TraceEntry>);

pub fn model_traces(seed: u64) -> ModelTraces {
    let spec = Benchmark::ALL.iter().map(|b| (*b, spec_trace(*b, MODEL_RECORDS, seed))).collect();
    let mt = MtBenchmark::ALL
        .iter()
        .map(|b| {
            let gen = b.trace(MODEL_RECORDS);
            let premark = gen.premark_regions();
            (*b, premark, gen.collect())
        })
        .collect();
    ModelTraces { spec, mt }
}

impl ModelTraces {
    /// The model's inputs as tenants, one per Figure 11 bar (its
    /// lifeguard and masked accelerators, with SPEC traces cycling over
    /// the single-threaded bars and multithreaded ones over LockSet's).
    /// The traced run replays them through the layers, and through the
    /// pool and loopback front-ends the cycle model does not use.
    pub fn as_tenants(&self, bars: &[crate::model::Bar]) -> Vec<Tenant> {
        let (mut spec, mut mt) = (0usize, 0usize);
        bars.iter()
            .enumerate()
            .map(|(i, bar)| {
                let (name, premark, records) = if bar.kind == LifeguardKind::LockSet {
                    let (b, premark, recs) = &self.mt[mt % self.mt.len()];
                    mt += 1;
                    (b.name(), premark.clone(), recs.clone())
                } else {
                    let (b, recs) = &self.spec[spec % self.spec.len()];
                    spec += 1;
                    (b.name(), b.profile().premark_regions(), recs.clone())
                };
                Tenant {
                    name: format!("{name}-{i}"),
                    kind: bar.kind,
                    accel: bar.cfg.accel,
                    premark,
                    records,
                    planted: Vec::new(),
                }
            })
            .collect()
    }
}
