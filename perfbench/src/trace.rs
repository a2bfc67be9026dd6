//! In-memory spans recorded around calls into each layer.
//!
//! A span has a name, a start, an end and a parent. Layer replays run
//! right after the serve call they attribute and name that call as their
//! parent, so a span's self time is its duration minus the durations of
//! its children (for children nested inside their parent, such as the
//! store operations under `store.replay`, this is the same as subtracting
//! the time they cover).

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Collects spans in memory; written out once the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent`, returning its id.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Closes span `id` now under a name known only once the call
    /// returned (a store append that turned out to sync).
    pub fn close_as(&mut self, id: usize, name: &'static str) {
        self.close(id);
        self.spans[id].name = name;
    }

    /// Times `f` as a span named `name` under `parent`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent);
        let value = f();
        self.close(id);
        value
    }

    /// Total duration of spans named `name`, ns.
    pub fn total(&self, name: &str) -> u64 {
        self.named(name).map(Span::duration).sum()
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.named(name).count()
    }

    /// Mean duration of spans named `name`, ns (0 when there are none).
    pub fn mean(&self, name: &str) -> f64 {
        match self.count(name) {
            0 => 0.0,
            n => self.total(name) as f64 / n as f64,
        }
    }

    /// Summed self time of spans named `name`, ns: each span's duration
    /// minus its children's. Negative when the children's replays cost
    /// more than the parent call they stand for.
    pub fn self_total(&self, name: &str) -> f64 {
        let mut children = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p] += span.duration();
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .filter(|(s, _)| s.name == name)
            .map(|(s, &c)| s.duration() as f64 - c as f64)
            .sum()
    }

    /// Detaches every span named `name` from its parent: an attribution
    /// that could not be verified folds back into the parent's self time.
    pub fn orphan(&mut self, name: &str) {
        for span in self.spans.iter_mut().filter(|s| s.name == name) {
            span.parent = None;
        }
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(self.spans.len() * 80);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.name, s.start, s.end
            );
        }
        std::fs::write(path, out)
    }
}
