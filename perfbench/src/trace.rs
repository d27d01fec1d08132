//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end (nanoseconds from the tracer's
//! origin), the request it belongs to, and the name of its parent span in
//! that request (each request has at most one span of a given name, so
//! the name identifies the parent). Threads fill their own buffers and
//! hand them over when they finish; nothing is written until the end of
//! the run.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Appends a span to a thread's local buffer.
    pub fn record(
        &self,
        buf: &mut Vec<Span>,
        name: &'static str,
        parent: Option<&'static str>,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        let at = |t: Instant| crate::measure::ns(t.saturating_duration_since(self.origin));
        buf.push(Span {
            name,
            parent,
            req,
            start_ns: at(start),
            end_ns: at(end),
        });
    }

    /// Takes over a thread's buffer.
    pub fn absorb(&self, buf: Vec<Span>) {
        self.spans
            .lock()
            .expect("a tracing thread panicked")
            .extend(buf);
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("a tracing thread panicked"))
    }
}

/// Per-name totals: count, total and self time, and exact duration
/// quantiles.
pub struct Summary {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub p50_ns: f64,
    pub p99_ns: f64,
}

/// Self time of every span: its duration minus the part of it its
/// children cover (children are clipped to the parent's interval; the
/// benchmark's children never overlap one another).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered: HashMap<(u64, &'static str), u64> = HashMap::new();
    let by_key: HashMap<(u64, &'static str), (u64, u64)> = spans
        .iter()
        .map(|s| ((s.req, s.name), (s.start_ns, s.end_ns)))
        .collect();
    for s in spans {
        if let Some(parent) = s.parent {
            if let Some(&(ps, pe)) = by_key.get(&(s.req, parent)) {
                let overlap = s.end_ns.min(pe).saturating_sub(s.start_ns.max(ps));
                *covered.entry((s.req, parent)).or_default() += overlap;
            }
        }
    }
    spans
        .iter()
        .map(|s| {
            s.dur_ns()
                .saturating_sub(covered.get(&(s.req, s.name)).copied().unwrap_or(0))
        })
        .collect()
}

pub fn summarize(spans: &[Span]) -> Vec<Summary> {
    let selfs = self_times(spans);
    let mut groups: Vec<(&'static str, Vec<u64>, u64)> = Vec::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let idx = match groups.iter().position(|g| g.0 == s.name) {
            Some(i) => i,
            None => {
                groups.push((s.name, Vec::new(), 0));
                groups.len() - 1
            }
        };
        groups[idx].1.push(s.dur_ns());
        groups[idx].2 += self_ns;
    }
    groups
        .into_iter()
        .map(|(name, mut durs, self_ns)| Summary {
            name,
            count: durs.len() as u64,
            total_ns: durs.iter().sum(),
            self_ns,
            p50_ns: crate::measure::quantile(&mut durs, 0.5),
            p99_ns: crate::measure::quantile(&mut durs, 0.99),
        })
        .collect()
}

/// Spans written per trace file; the summary always covers every span.
pub const MAX_WRITTEN_SPANS: usize = 200_000;

/// Writes the per-name summary, the tracing overhead, and the first
/// [`MAX_WRITTEN_SPANS`] spans (with self time) as CSV.
pub fn write(path: &Path, spans: &[Span], overhead_frac: f64) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "# trace_overhead_frac,{overhead_frac}")?;
    writeln!(out, "# summary: name,count,total_ms,self_ms,p50_us,p99_us")?;
    for s in summarize(spans) {
        writeln!(
            out,
            "# {},{},{},{},{},{}",
            s.name,
            s.count,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6,
            s.p50_ns / 1e3,
            s.p99_ns / 1e3
        )?;
    }
    writeln!(out, "name,parent,request,start_ns,end_ns,self_ns")?;
    let shown = &spans[..spans.len().min(MAX_WRITTEN_SPANS)];
    for (s, self_ns) in shown.iter().zip(self_times(shown)) {
        writeln!(
            out,
            "{},{},{},{},{},{}",
            s.name,
            s.parent.unwrap_or(""),
            s.req,
            s.start_ns,
            s.end_ns,
            self_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<&'static str>, req: u64, s: u64, e: u64) -> Span {
        Span {
            name,
            parent,
            req,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("bench.request", None, 7, 0, 100),
            span("service.submit", Some("bench.request"), 7, 0, 30),
            span("service.wait", Some("bench.request"), 7, 40, 90),
            span("bench.request", None, 8, 100, 110),
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 50, 10]);
        let sums = summarize(&spans);
        assert_eq!(sums[0].name, "bench.request");
        assert_eq!(
            (sums[0].count, sums[0].total_ns, sums[0].self_ns),
            (2, 110, 30)
        );
    }
}
