//! Spans recorded from outside the program: one around each public call
//! the benchmark makes into a layer (name, start, end, parent). Spans stay
//! in memory — aggregated per name into count, total and self time, and
//! kept raw up to a cap — and are written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Raw spans kept per tracer for the output file; aggregates are exact
/// beyond it.
const KEEP_SPANS: usize = 100_000;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
}

/// Per-name totals: calls, inclusive time, and self time (inclusive
/// minus the time covered by direct child spans).
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    name: &'static str,
    start: Instant,
    child_ns: u64,
    kept: Option<u32>,
}

/// One thread's span recorder. A disabled tracer records nothing and
/// costs one branch per call.
pub struct Tracer {
    enabled: bool,
    thread: &'static str,
    epoch: Instant,
    open: Vec<Open>,
    kept: Vec<Span>,
    aggs: BTreeMap<&'static str, Agg>,
}

/// Opaque handle returned by [`Tracer::begin`].
#[must_use]
pub struct SpanGuard(bool);

impl Tracer {
    pub fn new(enabled: bool, thread: &'static str, epoch: Instant) -> Tracer {
        Tracer { enabled, thread, epoch, open: Vec::new(), kept: Vec::new(), aggs: BTreeMap::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The instant span timestamps count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn begin(&mut self, name: &'static str) -> SpanGuard {
        if !self.enabled {
            return SpanGuard(false);
        }
        let start = Instant::now();
        let kept = (self.kept.len() < KEEP_SPANS).then(|| {
            let parent = self.open.last().and_then(|o| o.kept);
            let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
            self.kept.push(Span { name, start_ns, end_ns: start_ns, parent });
            (self.kept.len() - 1) as u32
        });
        self.open.push(Open { name, start, child_ns: 0, kept });
        SpanGuard(true)
    }

    pub fn end(&mut self, guard: SpanGuard) {
        if !guard.0 {
            return;
        }
        let end = Instant::now();
        let open = self.open.pop().expect("span ended without begin");
        let dur = end.duration_since(open.start).as_nanos() as u64;
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(i) = open.kept {
            self.kept[i as usize].end_ns = end.duration_since(self.epoch).as_nanos() as u64;
        }
        let a = self.aggs.entry(open.name).or_default();
        a.count += 1;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(open.child_ns);
    }

    /// Times `f` as one span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let g = self.begin(name);
        let r = f();
        self.end(g);
        r
    }

    pub fn agg(&self, name: &str) -> Agg {
        self.aggs.get(name).copied().unwrap_or_default()
    }
}

/// Every tracer of a run, merged.
#[derive(Default)]
pub struct SpanLog {
    tracers: Vec<Tracer>,
}

impl SpanLog {
    pub fn absorb(&mut self, t: Tracer) {
        if t.enabled {
            self.tracers.push(t);
        }
    }

    /// Aggregate of `name` across every absorbed tracer.
    pub fn agg(&self, name: &str) -> Agg {
        self.tracers.iter().map(|t| t.agg(name)).fold(Agg::default(), |a, b| Agg {
            count: a.count + b.count,
            total_ns: a.total_ns + b.total_ns,
            self_ns: a.self_ns + b.self_ns,
        })
    }

    /// All span names with their merged aggregates, sorted by name.
    pub fn names(&self) -> BTreeMap<&'static str, Agg> {
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for t in &self.tracers {
            for (name, a) in &t.aggs {
                let e = out.entry(name).or_default();
                e.count += a.count;
                e.total_ns += a.total_ns;
                e.self_ns += a.self_ns;
            }
        }
        out
    }

    /// Writes the kept spans and the per-name aggregates as JSON. A span's
    /// `parent` indexes the spans of the same `tracer`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"aggregates\": {{")?;
        let names = self.names();
        for (i, (name, a)) in names.iter().enumerate() {
            let sep = if i + 1 < names.len() { "," } else { "" };
            writeln!(
                w,
                "  \"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}{sep}",
                a.count, a.total_ns, a.self_ns
            )?;
        }
        writeln!(w, "}}, \"spans\": [")?;
        let mut first = true;
        for (i, t) in self.tracers.iter().enumerate() {
            for s in &t.kept {
                let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
                write!(
                    w,
                    "{}{{\"tracer\": {i}, \"thread\": \"{}\", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                    if first { "" } else { ",\n" },
                    t.thread,
                    s.name,
                    s.start_ns,
                    s.end_ns
                )?;
                first = false;
            }
        }
        writeln!(w, "\n]}}")?;
        w.flush()
    }
}
