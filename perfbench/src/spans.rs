//! In-memory spans for the traced run.
//!
//! The benchmark records one span around each call it makes into a
//! layer's public functions: name, start, end, parent span and op id.
//! Spans stay in memory until the run ends and are then written out as
//! JSON lines. A span's self time is its duration minus the durations
//! of its direct children.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run.
    pub id: u32,
    /// The enclosing span, `None` for an op.
    pub parent: Option<u32>,
    /// The op this call belongs to.
    pub op: u64,
    /// Layer-qualified name, e.g. `cfront.lex`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The name every op span carries.
pub const OP: &str = "op";

/// A thread-safe span store.
pub struct Recorder {
    origin: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// A fresh span id.
    pub fn id(&self) -> u32 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Stores a finished span.
    pub fn push(&self, span: Span) {
        self.spans.lock().expect("span store lock").push(span);
    }

    /// Runs `f` inside a child span of `parent`.
    pub fn time<T>(&self, name: &'static str, op: u64, parent: u32, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.push(Span {
            id: self.id(),
            parent: Some(parent),
            op,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store lock").clone()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span store lock").iter() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default)]
pub struct Profile {
    /// Self nanoseconds summed per span name.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Calls per span name.
    pub calls: BTreeMap<&'static str, u64>,
    /// Op spans seen.
    pub ops: u64,
    /// Op nanoseconds summed.
    pub op_ns: u64,
    /// Op nanoseconds that no child span covers.
    pub unaccounted_ns: u64,
}

impl Profile {
    /// Aggregates `spans`.
    pub fn of(spans: &[Span]) -> Profile {
        let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
        for s in spans {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.dur_ns();
            }
        }
        let mut prof = Profile::default();
        for s in spans {
            let own = s
                .dur_ns()
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            if s.name == OP {
                prof.ops += 1;
                prof.op_ns += s.dur_ns();
                prof.unaccounted_ns += own;
            } else {
                *prof.self_ns.entry(s.name).or_default() += own;
                *prof.calls.entry(s.name).or_default() += 1;
            }
        }
        prof
    }

    /// Mean self milliseconds of `name` per op.
    pub fn per_op_ms(&self, name: &str) -> f64 {
        if self.ops == 0 {
            return 0.0;
        }
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / self.ops as f64 / 1e6
    }

    /// Mean self microseconds of `name` per call.
    pub fn per_call_us(&self, name: &str) -> f64 {
        match self.calls.get(name) {
            Some(&n) if n > 0 => {
                self.self_ns.get(name).copied().unwrap_or(0) as f64 / n as f64 / 1e3
            }
            _ => 0.0,
        }
    }

    /// Share of op time no child span accounts for.
    pub fn unaccounted_frac(&self) -> f64 {
        if self.op_ns == 0 {
            0.0
        } else {
            self.unaccounted_ns as f64 / self.op_ns as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            Span {
                id: 1,
                parent: None,
                op: 0,
                name: OP,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                id: 2,
                parent: Some(1),
                op: 0,
                name: "a",
                start_ns: 0,
                end_ns: 60,
            },
            Span {
                id: 3,
                parent: Some(2),
                op: 0,
                name: "b",
                start_ns: 10,
                end_ns: 30,
            },
            Span {
                id: 4,
                parent: Some(1),
                op: 0,
                name: "c",
                start_ns: 60,
                end_ns: 90,
            },
        ];
        let p = Profile::of(&spans);
        assert_eq!(p.self_ns["a"], 40);
        assert_eq!(p.self_ns["b"], 20);
        assert_eq!(p.self_ns["c"], 30);
        assert_eq!(p.unaccounted_ns, 10);
        assert!((p.unaccounted_frac() - 0.1).abs() < 1e-12);
    }
}
