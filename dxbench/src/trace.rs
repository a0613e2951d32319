//! In-memory spans recorded around calls into the program's public API,
//! written out as JSON lines when the traced pass ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call: which layer, when, and what caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Run or request the span belongs to.
    pub id: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans; a span opened inside another's closure becomes
/// its child.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    id: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            id: 0,
        }
    }

    /// Tags every span opened from now on with the run or request `id`.
    pub fn set_id(&mut self, id: u64) {
        self.id = id;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Times `f` as a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id: self.id,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Durations of every span called `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Self time of every span called `name`, in milliseconds: its
    /// duration minus the time its direct children cover.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let mut child_ns: BTreeMap<usize, u64> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                let children = child_ns.get(&i).copied().unwrap_or(0);
                s.duration_ns().saturating_sub(children) as f64 / 1e6
            })
            .collect()
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new();
        t.set_id(7);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let outer = t.durations_ms("outer")[0];
        let inner = t.durations_ms("inner")[0];
        let own = t.self_ms("outer")[0];
        assert!(inner >= 5.0 && outer >= inner);
        assert!((own - (outer - inner)).abs() < 1e-6);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.spans.iter().all(|s| s.id == 7));
    }
}
