//! Spans recorded by the benchmark around its calls into each layer. They
//! stay in memory during a trial and are written out as JSON lines when it
//! ends; nothing is recorded inside the program under test.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed interval. `parent` is the `id` of the span that caused this
/// one (0 for a root); spans of one request share `req`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An append-only span buffer. Ids are dense and start at 1; times are
/// nanoseconds since the tracer's epoch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose time base is `epoch`. Tracers that will be merged
    /// (`absorb`) share one.
    pub fn since(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id, for its children to name.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    /// Reserves an id for a span whose children finish before it does.
    pub fn open(&mut self, name: &'static str, parent: u32, req: u64, start: Instant) -> u32 {
        self.record(name, parent, req, start, start)
    }

    pub fn close(&mut self, id: u32, end: Instant) {
        self.spans[id as usize - 1].end_ns = self.ns(end);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in ns of the spans `pick` accepts, children included.
    pub fn durations(&self, pick: impl Fn(&Span) -> bool) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| pick(s))
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Appends another thread's spans, renumbering ids so they stay unique.
    pub fn absorb(&mut self, other: Tracer) {
        let shift = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += shift;
            if s.parent != 0 {
                s.parent += shift;
            }
            s
        }));
    }

    /// Self time of every span — its duration minus the durations of its
    /// direct children — grouped by span name, in nanoseconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
        let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for s in &self.spans {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id as usize]);
            out.entry(s.name).or_default().push(own);
        }
        out
    }

    /// Writes one JSON object per span. Span names are static identifiers
    /// from this crate and need no escaping.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A tracer and a clock that reads `ns` nanoseconds after its epoch.
    fn tracer() -> (Tracer, impl Fn(u64) -> Instant) {
        let epoch = Instant::now();
        (Tracer::since(epoch), move |ns| {
            epoch + Duration::from_nanos(ns)
        })
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let (mut t, at) = tracer();
        let root = t.open("root", 0, 1, at(0));
        let serve = t.open("serve", root, 1, at(10));
        t.record("run", serve, 1, at(20), at(70));
        t.close(serve, at(80));
        t.record("write", root, 1, at(80), at(90));
        t.close(root, at(100));
        let selfs = t.self_times();
        assert_eq!(selfs["run"], vec![50]);
        assert_eq!(selfs["serve"], vec![20]);
        assert_eq!(selfs["write"], vec![10]);
        // 100 - (70 + 10): the grandchild is not subtracted twice.
        assert_eq!(selfs["root"], vec![20]);
        assert_eq!(t.durations(|s| s.parent == 0), vec![100]);
        assert_eq!(t.durations(|s| s.name == "serve"), vec![70]);
    }

    #[test]
    fn absorb_keeps_ids_unique_and_parents_attached() {
        let (mut a, at) = tracer();
        a.record("x", 0, 1, at(0), at(1));
        let (mut b, at) = tracer();
        let p = b.open("p", 0, 2, at(0));
        b.record("c", p, 2, at(1), at(2));
        b.close(p, at(3));
        a.absorb(b);
        let ids: Vec<u32> = a.spans().iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        assert_eq!(a.spans()[2].parent, 2);
        assert_eq!(a.spans()[1].parent, 0);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let (mut t, at) = tracer();
        t.record("a.b", 0, 9, at(5), at(8));
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-trace-{}.jsonl", std::process::id()));
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(
            text,
            "{\"id\":1,\"parent\":0,\"req\":9,\"name\":\"a.b\",\"start_ns\":5,\"end_ns\":8}\n"
        );
    }
}
