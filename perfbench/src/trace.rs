//! In-memory span recording for the traced run. Spans are taken from
//! the benchmark's side of each call into a layer: name, start, end, the
//! span that caused it and the report it belongs to. They stay in memory
//! and are written out only when the run ends, and only to a path given
//! on the command line.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub report: u64,
}

pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(origin: Instant) -> Self {
        SpanLog {
            origin,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// Nanoseconds since the log's origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start a span now; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, report: u64, parent: u32) -> u32 {
        let start_ns = self.now_ns();
        self.push(name, start_ns, start_ns, parent, report)
    }

    pub fn close(&mut self, ix: u32) {
        let end = self.now_ns();
        self.spans[ix as usize].end_ns = end;
    }

    /// Record a finished span.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        report: u64,
    ) -> u32 {
        let ix = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            report,
        });
        ix
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64)
            .collect()
    }

    /// Durations (ns) of the spans called `name` among indices `lo..hi`.
    pub fn durations_in(&self, name: &str, lo: usize, hi: usize) -> Vec<f64> {
        self.spans[lo.min(hi)..hi.min(self.spans.len())]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64)
            .collect()
    }

    /// Self time per span name: each span's duration minus the part its
    /// child spans cover, summed over all spans of that name. Returns
    /// `name -> (total self ns, span count)`.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += s.end_ns.saturating_sub(s.start_ns).saturating_sub(child);
            e.1 += 1;
        }
        out
    }

    /// Append every span as a CSV line `pass,name,start_ns,end_ns,parent,report`.
    pub fn write_csv(&self, pass: &str, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = if s.parent == ROOT {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{pass},{},{},{},{parent},{}",
                s.name, s.start_ns, s.end_ns, s.report
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut log = SpanLog::new(Instant::now());
        let p = log.push("parent", 0, 100, ROOT, 1);
        log.push("child", 10, 40, p, 1);
        log.push("child", 50, 60, p, 1);
        let st = log.self_times();
        assert_eq!(st["parent"], (60, 1));
        assert_eq!(st["child"], (40, 2));
    }
}
