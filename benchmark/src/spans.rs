//! Spans around the calls into each layer, taken from outside.
//!
//! The harness wraps every call into a layer's public function in
//! [`Recorder::span`]. With tracing off that only times the call; with
//! tracing on it also keeps (name, start, end, parent, workload, point)
//! in memory, and [`Recorder::write_jsonl`] writes them out when the run
//! ends. A span's self time is its duration minus its child spans'.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    point: String,
    start_ns: u64,
    end_ns: u64,
    child_ns: u64,
}

pub struct Recorder {
    enabled: bool,
    origin: Instant,
    workload: &'static str,
    /// Point id stamped on spans opened from now on.
    pub point: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool, workload: &'static str) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            workload,
            point: String::new(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span; returns its result and its duration in
    /// seconds. `f` receives the recorder so that it can open children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> (R, f64) {
        if !self.enabled {
            let t = Instant::now();
            let r = f(self);
            return (r, t.elapsed().as_secs_f64());
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            point: self.point.clone(),
            start_ns: 0,
            end_ns: 0,
            child_ns: 0,
        });
        self.open.push(id);
        let start = Instant::now();
        let r = f(self);
        let dur = start.elapsed();
        self.open.pop();
        let start_ns = start.duration_since(self.origin).as_nanos() as u64;
        let dur_ns = dur.as_nanos() as u64;
        self.spans[id].start_ns = start_ns;
        self.spans[id].end_ns = start_ns + dur_ns;
        if let Some(p) = self.spans[id].parent {
            self.spans[p].child_ns += dur_ns;
        }
        (r, dur.as_secs_f64())
    }

    /// Open-span depth; [`Recorder::unwind_to`] restores it after a
    /// panic was caught inside a span.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    pub fn unwind_to(&mut self, depth: usize) {
        self.open.truncate(depth);
    }

    /// Writes one JSON object per span. Nothing is written with tracing
    /// off.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if !self.enabled {
            return Ok(());
        }
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let dur = s.end_ns - s.start_ns;
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"workload\":\"{}\",\"point\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name,
                self.workload,
                s.point,
                s.start_ns,
                s.end_ns,
                dur.saturating_sub(s.child_ns),
            );
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_name_their_parent_and_reduce_its_self_time() {
        let mut rec = Recorder::new(true, "w");
        rec.point = "p".into();
        rec.span("outer", |rec| {
            rec.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        assert_eq!(rec.spans.len(), 2);
        assert_eq!(rec.spans[1].parent, Some(0));
        let outer = &rec.spans[0];
        let inner = &rec.spans[1];
        assert_eq!(outer.child_ns, inner.end_ns - inner.start_ns);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(rec.depth(), 0);
    }

    #[test]
    fn a_disabled_recorder_only_times() {
        let mut rec = Recorder::new(false, "w");
        let (v, secs) = rec.span("x", |_| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(rec.spans.is_empty());
    }
}
