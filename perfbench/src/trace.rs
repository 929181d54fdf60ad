//! In-memory spans. A span is a name, a start and end time, the span that
//! caused it and the request id its tree shares. Spans are recorded only
//! by the benchmark's own code around its calls into each layer, kept in
//! memory and written out when the run ends.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Parent of a root span.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub req: u64,
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: u32, req: u64) -> u32 {
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            req,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn end(&mut self, span: u32) {
        let now = self.ns(Instant::now());
        self.spans[span as usize].end_ns = now;
    }

    /// Records a span whose bounds were taken elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
        });
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.begin(name, parent, req);
        let out = f();
        self.end(span);
        out
    }

    /// Appends another tracer's spans (same epoch), re-basing parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }

    /// Self time of every span: its duration minus the part of it that
    /// its children's intervals cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                children[s.parent as usize].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Self times grouped by span name.
    pub fn self_times_by_name(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            by_name.entry(s.name).or_default().push(t);
        }
        by_name
    }

    /// Writes up to `limit` spans as tab-separated
    /// `name start_ns end_ns parent req` lines (parent `-` for roots).
    pub fn write(&self, path: &Path, limit: usize) -> io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        writeln!(out, "name\tstart_ns\tend_ns\tparent\treq")?;
        for s in self.spans.iter().take(limit) {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, parent, s.req
            )?;
        }
        out.flush()
    }
}
