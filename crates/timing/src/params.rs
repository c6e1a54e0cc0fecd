//! Timing-model constants.
//!
//! Times are kept in **ticks**, a fixed-point unit of 1/4 cycle, so that
//! sub-cycle hardware dispatch rates stay in integer arithmetic.
//!
//! The values below are the calibration points of the reproduction (the
//! paper gives Table 2's cache/memory latencies; the dispatch-engine and
//! wrapper costs are modelling choices documented here).

/// Ticks per clock cycle.
pub const TICKS_PER_CYCLE: u64 = 4;

/// Producer: one in-order instruction per cycle.
pub const PRODUCER_INSTR_TICKS: u64 = TICKS_PER_CYCLE;

/// Consumer hardware dispatch: records with no delivered events are
/// consumed by the fetch/decompress/dispatch engine at 4 records per cycle
/// (they are ~1-byte records streamed from an L2-resident buffer).
pub const DISPATCH_TICKS_PER_RECORD: u64 = 1;

/// `nlba` event dispatch per *delivered* event. The ETCT lookup and
/// control transfer overlap the handler's first instructions (the event
/// values are pre-loaded into registers by hardware, paper §3), leaving
/// about half a cycle of exposed latency.
pub const NLBA_TICKS: u64 = TICKS_PER_CYCLE / 2;

/// Consumer handler instruction: one cycle each (in-order core).
pub const HANDLER_INSTR_TICKS: u64 = TICKS_PER_CYCLE;

/// Producer-side wrapper-library overhead per annotation record (argument
/// marshalling, record insertion).
pub const ANNOTATION_TICKS: u64 = 20 * TICKS_PER_CYCLE;

/// Extra producer cost of a `malloc`/`free` call (allocator work).
pub const MALLOC_TICKS: u64 = 100 * TICKS_PER_CYCLE;

/// Extra producer cost of entering the kernel (system call, input read).
pub const SYSCALL_TICKS: u64 = 300 * TICKS_PER_CYCLE;

/// Producer cost of a thread context switch.
pub const THREAD_SWITCH_TICKS: u64 = 500 * TICKS_PER_CYCLE;

/// Records per 64-byte log-buffer line: the producer writes, and the
/// consumer reads, one L2 line per this many records (Table 2 models the
/// 1-byte compressed record).
pub const LOG_LINE_RECORDS: u64 = 64;
