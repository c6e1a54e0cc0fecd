//! # igm — instruction-grain monitoring, hardware-accelerated
//!
//! A full reproduction of *"Flexible Hardware Acceleration for
//! Instruction-Grain Program Monitoring"* (Chen et al., ISCA 2008): the
//! Log-Based Architecture (LBA) lifeguard platform, the three proposed
//! hardware accelerators — **Inheritance Tracking**, **Idempotent Filters**
//! and the **Metadata-TLB** — five instruction-grain lifeguards, a timing
//! model, synthetic SPEC-like workloads, and the paper's full design-space
//! profiling study.
//!
//! This facade crate re-exports the workspace's sub-crates under stable
//! module names; see each module's documentation for details:
//!
//! * [`isa`] — ISA model, assembler and functional machine.
//! * [`lba`] — log records, log buffer, events and the event-type
//!   configuration table (ETCT).
//! * [`shadow`] — one- and two-level shadow memory (lifeguard metadata).
//! * [`accel`] — the paper's contribution: IT, IF, M-TLB and the dispatch
//!   pipeline.
//! * [`lifeguards`] — AddrCheck, MemCheck, TaintCheck (± detailed tracking)
//!   and LockSet.
//! * [`workload`] — deterministic synthetic benchmark trace generators.
//! * [`timing`] — cache hierarchy and dual-core co-simulation.
//! * [`sim`] — the top-level simulator API.
//! * [`runtime`] — the streaming, multi-tenant monitoring runtime: a
//!   software analogue of the LBA log-transport fabric at service scale.
//!   Bounded SPSC log channels (chunked record batches, backpressure,
//!   producer-stall accounting), a [`runtime::MonitorPool`] of sharded
//!   lifeguard workers serving N concurrent tenant applications, one
//!   session per worker at a time with whole-session work stealing.
//! * [`trace`] — the monitored-event stream as a durable artifact: a
//!   compact binary codec (varint + delta-coded PCs/addresses, framed and
//!   checksummed chunks), capture/replay of live pool sessions
//!   (replaying a recorded file reproduces the live run's violations and
//!   dispatch stats exactly), sidecar frame-offset indexes for seeking
//!   replay windows, and the [`trace::Ingestor`] — one OS thread
//!   multiplexing many tenant sources (generators, trace files,
//!   readiness-polled pipes) into pool sessions with per-source
//!   backpressure, optionally teeing any lane to a trace file.
//! * [`net`] — cross-host trace ingest: a length-delimited wire protocol
//!   carrying the codec's frames verbatim, the multi-tenant
//!   [`net::IngestServer`] (one thread accepts N connections and plugs
//!   each into the shared `Ingestor` as a readiness-polled socket lane)
//!   and the [`net::TraceForwarder`] client, with credit-based
//!   backpressure sized from the pool's log-channel occupancy — a remote
//!   run reproduces the local run's violations and dispatch stats
//!   exactly.
//! * [`obs`] — the unified observability layer: a lock-free
//!   [`obs::MetricsRegistry`] of sharded counters, gauges and log₂-bucketed
//!   latency histograms instrumented through every layer above (dispatch
//!   batches, SPSC queueing, ingest turns, credit stalls), a bounded ring
//!   of typed lifecycle events, and the one-thread [`obs::StatsServer`]
//!   serving live Prometheus + JSON snapshots over HTTP
//!   ([`runtime::MonitorPool::serve_stats`]).
//! * [`span`] — end-to-end frame provenance: a sampled span layer that
//!   follows one trace frame through client send → credit stall → server
//!   ingest → channel wait → dispatch → violation as stage
//!   records in a lock-free [`span::FlightRecorder`] (fixed-size seqlock
//!   rings, overwrite-oldest, zero-alloc on the hot path), surfaced as
//!   `/spans.json`, a Chrome trace-event `/trace` export, per-stage
//!   `igm_span_stage_nanos` histograms, and violation span-chain
//!   snapshots in the event ring.
//! * [`lake`] — the queryable trace lake: global
//!   `(tenant, trace, seq)` record ids assigned at capture, `IGMX` v2
//!   sidecars carrying per-frame compressed-bitmap posting lists (pc
//!   bucket, opcode class, address page, violation site), a
//!   [`lake::TraceLake`] catalog whose bitmap query planner answers
//!   forensic filters from sidecars alone, ±k record-neighborhood
//!   decode and windowed replay, and `/lake/*` stats-server routes.
//! * [`profiling`] — design-space sweeps (the paper's PIN study).
//!
//! ## Quickstart
//!
//! ```
//! use igm::sim::{SimConfig, Simulator};
//! use igm::lifeguards::LifeguardKind;
//! use igm::workload::Benchmark;
//!
//! // Simulate TaintCheck monitoring a gzip-like workload with all three
//! // accelerators enabled, and report the slowdown.
//! let cfg = SimConfig::optimized(LifeguardKind::TaintCheck);
//! let report = Simulator::new(cfg).run_benchmark(Benchmark::Gzip, 100_000);
//! assert!(report.slowdown() >= 1.0);
//! ```
//!
//! ## Concurrent monitoring
//!
//! Several independent applications stream through one worker pool; each
//! session owns a lifeguard + shadow-memory shard on its worker:
//!
//! ```
//! use igm::lifeguards::LifeguardKind;
//! use igm::runtime::{MonitorPool, PoolConfig, SessionConfig};
//! use igm::workload::Benchmark;
//!
//! let pool = MonitorPool::new(PoolConfig::with_workers(2));
//! let sessions: Vec<_> = [Benchmark::Gzip, Benchmark::Mcf]
//!     .into_iter()
//!     .map(|b| {
//!         let s = pool.open_session(
//!             SessionConfig::new(b.name(), LifeguardKind::AddrCheck).synthetic(),
//!         );
//!         s.stream(b.trace(5_000)).unwrap();
//!         s
//!     })
//!     .collect();
//! for s in sessions {
//!     assert_eq!(s.finish().records, 5_000);
//! }
//! pool.shutdown();
//! ```

pub use igm_core as accel;
pub use igm_isa as isa;
pub use igm_lake as lake;
pub use igm_lba as lba;
pub use igm_lifeguards as lifeguards;
pub use igm_net as net;
pub use igm_obs as obs;
pub use igm_profiling as profiling;
pub use igm_runtime as runtime;
pub use igm_shadow as shadow;
pub use igm_sim as sim;
pub use igm_span as span;
pub use igm_timing as timing;
pub use igm_trace as trace;
pub use igm_workload as workload;
