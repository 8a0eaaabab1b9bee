//! Spans the benchmark records around its own calls into each layer.
//!
//! Spans live in memory while a traced run measures and are written out as
//! JSON lines when it ends. Every span carries the id of the op it belongs
//! to and the index of the span that enclosed it, so the fold can compute
//! self time (a span's duration minus its direct children) and the part of
//! each op wall that no layer span covers.

use mass::obs::json::Json;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    pub op: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Records spans when enabled; a disabled tracer only runs the closures.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    op: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            origin,
            op: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Tags the spans that follow with op id `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            op: self.op,
            name,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Appends another tracer's spans (same origin), keeping their nesting.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    /// Durations in ms of every span called `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Per span, the summed duration of its direct children.
    fn child_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        child_ns
    }

    /// Per op span (`root`): its wall minus the direct children it encloses.
    pub fn unattributed_ms(&self, root: &str) -> Vec<f64> {
        let child_ns = self.child_ns();
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == root)
            .map(|(i, s)| (s.end_ns - s.start_ns - child_ns[i]) as f64 / 1e6)
            .collect()
    }

    /// The per-layer table: calls, total ms, self ms and share of the op
    /// wall (the summed duration of the `root` spans) for every span name.
    pub fn table(&self, root: &str) -> Vec<LayerRow> {
        let child_ns = self.child_ns();
        let wall_ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == root)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let row = rows.entry(s.name).or_insert_with(|| LayerRow {
                name: s.name,
                calls: 0,
                total_ms: 0.0,
                self_ms: 0.0,
                wall_pct: 0.0,
                outside_op: true,
            });
            row.outside_op &= s.parent.is_none();
            row.calls += 1;
            row.total_ms += dur as f64 / 1e6;
            row.self_ms += (dur - child_ns[i]) as f64 / 1e6;
        }
        let mut rows: Vec<LayerRow> = rows.into_values().collect();
        for r in &mut rows {
            r.wall_pct = if wall_ns > 0 {
                100.0 * r.total_ms * 1e6 / wall_ns as f64
            } else {
                0.0
            };
        }
        rows.sort_by(|a, b| b.total_ms.total_cmp(&a.total_ms));
        rows
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let line = Json::Obj(vec![
                ("id".into(), Json::from(i as u64)),
                ("op".into(), Json::from(s.op)),
                ("name".into(), Json::from(s.name)),
                (
                    "parent".into(),
                    s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                ),
                ("start_us".into(), Json::Num(s.start_ns as f64 / 1e3)),
                (
                    "dur_us".into(),
                    Json::Num((s.end_ns - s.start_ns) as f64 / 1e3),
                ),
            ]);
            writeln!(w, "{}", line.render())?;
        }
        w.flush()
    }
}

/// One row of the folded per-layer table.
pub struct LayerRow {
    pub name: &'static str,
    pub calls: usize,
    pub total_ms: f64,
    pub self_ms: f64,
    pub wall_pct: f64,
    /// No span of this name ran inside another span.
    pub outside_op: bool,
}
