//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only by the benchmark's own code, around its calls
//! into a layer's public functions; the program itself is not
//! instrumented. Spans of one request share its id, a child names its
//! parent, and a layer's self time is its span minus the part its
//! children cover. Spans stay in memory and are written once, at exit.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Request id the span belongs to.
    pub req: u64,
    /// Index of the parent span in the recorder, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Disabled tracers record nothing and cost one branch per call site.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` for request `req`.
    pub fn span<R>(
        &self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        f: impl FnOnce(Option<usize>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                req,
                parent,
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            spans.len() - 1
        };
        let out = f(Some(idx));
        let end = self.now_ns();
        self.spans.borrow_mut()[idx].end_ns = end;
        out
    }

    /// Per-call durations of every span named `name`, µs.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Self time per span name, µs: each span's duration minus the
    /// union of its children's intervals (children of one parent run
    /// sequentially here, so the union is their sum).
    pub fn self_time_us(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in spans.iter().zip(&child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(*c);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e3;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"req\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        t.span("outer", 1, None, |p| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.span("inner", 1, p, |_| {
                std::thread::sleep(std::time::Duration::from_millis(4))
            });
        });
        let self_us = t.self_time_us();
        let outer = t.durations_us("outer");
        assert_eq!(outer.len(), 1);
        assert!(self_us["inner"] >= 4_000.0);
        assert!(self_us["outer"] >= 2_000.0);
        assert!((self_us["outer"] + self_us["inner"] - outer[0]).abs() < 1e-3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert!(t.span("x", 0, None, |p| p.is_none()));
        assert!(t.durations_us("x").is_empty());
    }
}
