//! # igm-net — cross-host trace ingest
//!
//! The paper's Log-Based Architecture ships the compressed instruction
//! log from the application core to the lifeguard core over a dedicated
//! hardware transport; everything else in this workspace keeps both ends
//! in one process. This crate is that transport stretched across hosts —
//! the software analogue of FireGuard-style decoupled analysis engines
//! and of the ARM-SoC work that exports instrumentation streams over
//! debug transports: monitored applications anywhere on the network
//! stream their logs into a central
//! [`MonitorPool`](igm_runtime::MonitorPool). Std-only (`std::net`), no
//! new dependencies. Three pieces:
//!
//! * [`wire`] — the length-delimited message protocol, one version
//!   ([`NET_VERSION`]). A handshake (`HELLO`: magic, protocol version,
//!   trace codec id, tenant name, requested
//!   [`LifeguardKind`](igm_lifeguards::LifeguardKind) and accelerator
//!   configuration, premarked regions), chunk messages carrying the
//!   existing `igm-trace` codec **frames verbatim**, a clean-shutdown
//!   `FIN` with final lane stats, and typed [`NetError`]s for version
//!   mismatch, corruption and truncation.
//! * [`server`] — [`IngestServer`]: one thread accepts N tenant
//!   connections and plugs each into the shared multiplexed
//!   [`Ingestor`](igm_trace::Ingestor) as a readiness-polled socket lane
//!   ([`NetSource`]), so a single OS thread still drives every remote
//!   tenant with the same fairness and per-lane backpressure machinery as
//!   local pipe lanes.
//! * [`client`] — [`TraceForwarder`]: ships a live record stream or a
//!   recorded trace file, one codec frame per chunk message.
//!
//! **Credit-based backpressure.** The server grants byte credits sized
//! from each tenant's log-channel occupancy (the same byte accounting the
//! SPSC transport already keeps): as the pool drains a channel, grants
//! flow; when a slow lifeguard lets the channel fill, the grants stop and
//! the remote producer *stalls* — mirroring the paper's bounded in-cache
//! log buffer, where a full buffer stalls the application core rather
//! than growing without bound. Client-side stalls are counted
//! ([`ForwarderStats::credit_stalls`]), server-side refusals appear as the
//! lane's `deferred_sends`.
//!
//! Because a forwarded stream reaches the pool as the same frames with
//! the same batch boundaries and the same session configuration as a
//! local run, the results are *identical*: violations and dispatch stats
//! of a workload streamed through `TraceForwarder` → `IngestServer` →
//! `MonitorPool` equal the local run's, for all five lifeguards
//! (asserted end to end in `tests/net_ingest.rs`).

pub mod client;
pub mod server;
pub mod source;
pub mod wire;

pub use client::{ForwarderConfig, ForwarderReport, ForwarderStats, TraceForwarder};
pub use server::{IngestServer, NetServerConfig, NetServerReport};
pub use source::NetSource;
pub use wire::{FinStats, NetError, MAX_MESSAGE_BYTES, NET_MAGIC, NET_VERSION, SPAN_PREFIX_BYTES};
