//! In-memory span recording for the traced run.
//!
//! A [`Tracer`] records one span per call the benchmark makes into a
//! layer: its name, host start and end (ns since the tracer was made),
//! its parent span and the repetition ("run") it belongs to. Spans stay
//! in memory and are written out once, at exit. A disabled tracer runs
//! the closure and records nothing, so untraced runs pay one branch.
//!
//! Besides spans the tracer keeps named accumulators (`add`), used where
//! one span per operation would cost more than the work it measures:
//! the per-window shard busy times of the sharded core.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.dial`.
    pub name: &'static str,
    /// Host ns since the tracer's origin.
    pub start_ns: u64,
    /// Host ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The repetition this span belongs to.
    pub run: u32,
}

/// Records spans and accumulators when enabled; a pass-through otherwise.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    sums: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A tracer; `enabled == false` records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
            sums: BTreeMap::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off (between repetitions).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Tags subsequent spans with repetition `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    /// The host instant span times are measured from; worker threads use
    /// it to timestamp intervals they hand back through [`Tracer::record`].
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Host ns since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside span `name`, nested under the innermost open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Records an interval measured elsewhere as a child of the innermost
    /// open span, returning its index for [`Tracer::record_under`].
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) -> Option<usize> {
        let parent = self.open.last().copied();
        self.push(name, start_ns, end_ns, parent)
    }

    /// Records an interval measured elsewhere (e.g. on a worker thread) as
    /// a child of span `parent`.
    pub fn record_under(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.push(name, start_ns, end_ns, parent);
    }

    fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span { name, start_ns, end_ns, parent, run: self.run });
        Some(self.spans.len() - 1)
    }

    /// Adds `value` to accumulator `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            *self.sums.entry(name).or_insert(0.0) += value;
        }
    }

    /// Accumulator `name` (0 if never added to).
    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// Total host seconds of every span named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |total, s| total + (s.end_ns - s.start_ns) as f64 / 1e9)
    }

    /// Self time per span name in host seconds: each span's duration
    /// minus the part of it covered by the union of its children.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"run\": {}}}",
                s.name, s.start_ns, s.end_ns, s.run
            )?;
        }
        out.flush()
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true);
        t.spans.push(Span { name: "p", start_ns: 0, end_ns: 100, parent: None, run: 0 });
        // Two overlapping children (parallel shards) and one disjoint.
        t.spans.push(Span { name: "c", start_ns: 10, end_ns: 40, parent: Some(0), run: 0 });
        t.spans.push(Span { name: "c", start_ns: 20, end_ns: 50, parent: Some(0), run: 0 });
        t.spans.push(Span { name: "c", start_ns: 60, end_ns: 70, parent: Some(0), run: 0 });
        let st = t.self_times();
        assert!((st["p"] - 50e-9).abs() < 1e-15, "{st:?}");
        assert!((st["c"] - 70e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("x", |t| {
            t.add("n", 1.0);
            7
        });
        assert_eq!(v, 7);
        assert!(t.is_empty());
        assert_eq!(t.sum("n"), 0.0);
    }
}
