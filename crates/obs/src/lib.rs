//! # mass-obs — tracing, metrics, and profiling for the MASS workspace
//!
//! The build environment is offline, so this crate hand-rolls the small
//! subset of `tracing` + `metrics` the workspace needs (DESIGN.md §7):
//!
//! * **Spans and events** — scoped timers with per-thread parent/child
//!   nesting, key-value fields, and monotonic microsecond timestamps,
//!   fanned out to pluggable [`sink::Sink`]s (null, stderr pretty-printer,
//!   JSON-lines file).
//! * **Metrics** — a thread-safe registry of atomic counters, gauges, and
//!   fixed-bucket histograms with p50/p95/p99 extraction
//!   ([`metrics::Registry`]), snapshot-mergeable across shards.
//! * **Export** — snapshots serialise to JSON via the tiny writer/parser in
//!   [`json`] (the `--metrics-out` / `--trace-out` artifacts).
//! * **Request correlation** — seeded [`TraceId`]s scoped per thread
//!   ([`trace_scope`]) stamp every span/event record, and a per-thread
//!   span capture ([`begin_capture`]/[`end_capture`]) feeds the lock-free
//!   [`flight::FlightRecorder`] ring of tail-sampled span trees.
//! * **Live surfaces** — sliding-window histograms/counters ([`window`])
//!   for "last 60 s" quantiles, and Prometheus text exposition v0.0.4
//!   rendering + validation ([`prometheus`]) for scrape endpoints.
//!
//! ## Cost model
//!
//! Library code records through the process-global handle
//! ([`install`] / [`handle`]). When nothing is installed — the default —
//! every entry point is one relaxed atomic load and a branch, so
//! instrumented hot paths run at full speed (benchmarked in X10). Hot
//! loops should hoist metric handles ([`counter`], [`histogram`]) once and
//! reuse them: handles are lock-free; name lookup takes a mutex.
//!
//! ## Fallback warnings
//!
//! Events at [`Level::Warn`] or [`Level::Error`] emitted while **no**
//! telemetry is installed are pretty-printed to stderr, so library
//! diagnostics are never silently lost; installing a telemetry (any
//! sink set, even empty) takes full control of verbosity.
//!
//! ```
//! let telemetry = mass_obs::Telemetry::builder().stderr(mass_obs::Level::Warn).build();
//! mass_obs::install(telemetry.clone());
//! {
//!     let _span = mass_obs::span("demo.stage");
//!     mass_obs::counter("demo.items").add(3);
//!     mass_obs::histogram("demo.latency_us").record(42.0);
//! }
//! let snapshot = telemetry.metrics().snapshot();
//! assert_eq!(snapshot.counters["demo.items"], 3);
//! mass_obs::uninstall();
//! ```

pub mod flight;
pub mod json;
pub mod metrics;
pub mod process;
pub mod prometheus;
pub mod sink;
pub mod window;

pub use flight::{CompletedTrace, FlightRecorder, SpanTiming};
pub use metrics::{Counter, Gauge, Histogram, MetricsSnapshot, Registry};
pub use sink::{JsonlSink, NullSink, Record, RecordKind, Sink, StderrSink};
pub use window::{WindowCounter, WindowHistogram};

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// Record severity, most severe first (`Error < Trace` in the `Ord` sense,
/// so "at or below a verbosity" is `record.level <= max`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The operation failed.
    Error,
    /// Suspicious but survivable (degenerate inputs, quarantined pages).
    Warn,
    /// Milestones (checkpoints, breaker state changes).
    #[default]
    Info,
    /// Span opens/closes and per-stage detail.
    Debug,
    /// Per-sweep / per-item firehose.
    Trace,
}

impl Level {
    /// Lower-case name (the JSON encoding).
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(match self {
            Level::Error => "ERROR",
            Level::Warn => "WARN",
            Level::Info => "INFO",
            Level::Debug => "DEBUG",
            Level::Trace => "TRACE",
        })
    }
}

/// Parses a `--log-level` value: `off` or a [`Level`] name. `None` = off.
pub fn parse_level(s: &str) -> Result<Option<Level>, String> {
    match s.to_ascii_lowercase().as_str() {
        "off" | "none" => Ok(None),
        "error" => Ok(Some(Level::Error)),
        "warn" | "warning" => Ok(Some(Level::Warn)),
        "info" => Ok(Some(Level::Info)),
        "debug" => Ok(Some(Level::Debug)),
        "trace" => Ok(Some(Level::Trace)),
        other => Err(format!(
            "unknown log level {other:?} (off|error|warn|info|debug|trace)"
        )),
    }
}

/// A field value. `From` impls cover the common primitives so call sites
/// write `field("depth", 3usize)`.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Text.
    Str(String),
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::U64(n) => write!(f, "{n}"),
            Value::I64(n) => write!(f, "{n}"),
            Value::F64(n) => write!(f, "{n}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

macro_rules! value_from {
    ($($ty:ty => $variant:ident as $cast:ty),*) => {$(
        impl From<$ty> for Value {
            fn from(v: $ty) -> Value { Value::$variant(v as $cast) }
        }
    )*};
}
value_from!(u64 => U64 as u64, usize => U64 as u64, u32 => U64 as u64,
            i64 => I64 as i64, i32 => I64 as i64, f64 => F64 as f64, f32 => F64 as f64);

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

/// One key-value pair attached to a span or event.
#[derive(Clone, Debug, PartialEq)]
pub struct Field {
    /// Key (static so hot paths allocate nothing for it).
    pub key: &'static str,
    /// Value.
    pub value: Value,
}

/// Builds a [`Field`].
pub fn field(key: &'static str, value: impl Into<Value>) -> Field {
    Field {
        key,
        value: value.into(),
    }
}

/// One telemetry pipeline: a sink set, a metrics registry, and the span
/// id/timestamp state. Cheap to share via `Arc`; usually installed as the
/// process-global via [`install`].
pub struct Telemetry {
    enabled: bool,
    /// Most verbose level any sink accepts; `None` = no sinks, record
    /// construction skipped entirely (metrics still collected).
    record_level: Option<Level>,
    sinks: Vec<Box<dyn Sink>>,
    registry: Registry,
    epoch: Instant,
    next_span: AtomicU64,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.enabled)
            .field("record_level", &self.record_level)
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl Telemetry {
    /// A telemetry that records nothing and costs (almost) nothing: handles
    /// from it are inert. Installing it is equivalent to [`uninstall`]
    /// except that the warn/error stderr fallback is suppressed too.
    pub fn disabled() -> Arc<Telemetry> {
        Arc::new(Telemetry {
            enabled: false,
            record_level: None,
            sinks: Vec::new(),
            registry: Registry::disabled(),
            epoch: Instant::now(),
            next_span: AtomicU64::new(1),
        })
    }

    /// Starts building an enabled telemetry.
    pub fn builder() -> TelemetryBuilder {
        TelemetryBuilder { sinks: Vec::new() }
    }

    /// Whether this telemetry records anything at all.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &Registry {
        &self.registry
    }

    /// Microseconds since this telemetry was built (monotonic).
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Flushes every sink (call before reading the artifacts).
    pub fn flush(&self) {
        for sink in &self.sinks {
            sink.flush();
        }
    }

    fn emit(&self, record: &Record<'_>) {
        for sink in &self.sinks {
            sink.emit(record);
        }
    }

    fn accepts(&self, level: Level) -> bool {
        self.record_level.is_some_and(|max| level <= max)
    }
}

/// Configures a [`Telemetry`].
pub struct TelemetryBuilder {
    sinks: Vec<Box<dyn Sink>>,
}

impl TelemetryBuilder {
    /// Adds a stderr pretty-printing sink at the given verbosity.
    pub fn stderr(mut self, level: Level) -> Self {
        self.sinks.push(Box::new(StderrSink::new(level)));
        self
    }

    /// Adds a JSON-lines file sink (all levels) at `path`.
    pub fn jsonl(mut self, path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        self.sinks
            .push(Box::new(JsonlSink::create(path, Level::Trace)?));
        Ok(self)
    }

    /// Adds an arbitrary sink.
    pub fn sink(mut self, sink: Box<dyn Sink>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Finishes the build. Metrics are always collected; records flow only
    /// if at least one sink was added.
    pub fn build(self) -> Arc<Telemetry> {
        Arc::new(Telemetry {
            enabled: true,
            record_level: self.sinks.iter().map(|s| s.max_level()).max(),
            sinks: self.sinks,
            registry: Registry::new(),
            epoch: Instant::now(),
            next_span: AtomicU64::new(1),
        })
    }
}

static GLOBAL: RwLock<Option<Arc<Telemetry>>> = RwLock::new(None);
static ACTIVE: AtomicBool = AtomicBool::new(false);

thread_local! {
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static CURRENT_TRACE: Cell<u64> = const { Cell::new(0) };
    static CAPTURE_ON: Cell<bool> = const { Cell::new(false) };
    static CAPTURE: RefCell<Option<CaptureState>> = const { RefCell::new(None) };
}

/// A request-correlation id propagated through the span stack via
/// [`trace_scope`]. `0` means "no trace"; every record emitted while a
/// scope is active carries the id, so a `serve.request` span tree and the
/// writer-thread `incremental.refresh` it triggered share one id.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The "no trace" sentinel.
    pub const NONE: TraceId = TraceId(0);

    /// Whether this is a real id (nonzero).
    pub fn is_set(self) -> bool {
        self.0 != 0
    }

    /// Fixed-width lower-hex rendering (the wire/JSON form).
    pub fn as_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parses the [`as_hex`](TraceId::as_hex) form back.
    pub fn from_hex(s: &str) -> Option<TraceId> {
        u64::from_str_radix(s, 16).ok().map(TraceId)
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Deterministic trace-id generator: splitmix64 over `seed + counter`, so
/// a seeded server produces a reproducible id sequence under test while
/// ids still look uniformly random. Never yields 0.
#[derive(Debug)]
pub struct TraceIdGen {
    seed: u64,
    next: AtomicU64,
}

impl TraceIdGen {
    /// A generator for the given seed.
    pub fn new(seed: u64) -> TraceIdGen {
        TraceIdGen {
            seed,
            next: AtomicU64::new(1),
        }
    }

    /// The next id (thread-safe, lock-free).
    pub fn next_id(&self) -> TraceId {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        let mut z = self
            .seed
            .wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        TraceId(if z == 0 { 1 } else { z })
    }
}

/// The trace id active on this thread (0 when none).
pub fn current_trace() -> TraceId {
    TraceId(CURRENT_TRACE.with(Cell::get))
}

/// RAII guard restoring the previous thread-local trace id on drop.
#[must_use = "dropping the scope immediately reverts the trace id"]
#[derive(Debug)]
pub struct TraceScope {
    prev: u64,
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        CURRENT_TRACE.with(|c| c.set(self.prev));
    }
}

/// Makes `id` the current trace on this thread until the guard drops.
/// Spans and events opened inside the scope are stamped with it.
pub fn trace_scope(id: TraceId) -> TraceScope {
    TraceScope {
        prev: CURRENT_TRACE.with(|c| c.replace(id.0)),
    }
}

/// Per-thread span-capture buffer backing the flight recorder. Capture is
/// independent of the global telemetry: spans append their timing here
/// even when no sink (or no telemetry at all) is installed.
#[derive(Debug)]
struct CaptureState {
    epoch: Instant,
    open: usize,
    spans: Vec<SpanTiming>,
}

/// Spans per capture beyond which further timings are dropped (a runaway
/// recursion must not turn the recorder into an allocator stress test).
const CAPTURE_SPAN_CAP: usize = 1024;

/// Starts capturing completed span timings on this thread. A capture in
/// progress is discarded and restarted. Pair with [`end_capture`].
pub fn begin_capture() {
    CAPTURE.with(|c| {
        *c.borrow_mut() = Some(CaptureState {
            epoch: Instant::now(),
            open: 0,
            spans: Vec::new(),
        });
    });
    CAPTURE_ON.with(|c| c.set(true));
}

/// Stops capturing and returns every span that completed since
/// [`begin_capture`], in completion order (children before parents).
/// Returns an empty vec when no capture was active.
pub fn end_capture() -> Vec<SpanTiming> {
    CAPTURE_ON.with(|c| c.set(false));
    CAPTURE.with(|c| c.borrow_mut().take().map(|s| s.spans).unwrap_or_default())
}

/// Whether a span capture is active on this thread.
pub fn capture_active() -> bool {
    CAPTURE_ON.with(Cell::get)
}

/// Records a span open into the active capture: bumps the nesting depth
/// and returns `(start_us, depth)` relative to the capture epoch.
fn capture_open() -> Option<(u64, usize)> {
    CAPTURE.with(|c| {
        let mut state = c.borrow_mut();
        let state = state.as_mut()?;
        let depth = state.open;
        state.open += 1;
        Some((state.epoch.elapsed().as_micros() as u64, depth))
    })
}

/// Appends one completed span to the active capture (if still active).
fn capture_close(timing: SpanTiming) {
    CAPTURE.with(|c| {
        if let Some(state) = c.borrow_mut().as_mut() {
            state.open = state.open.saturating_sub(1);
            if state.spans.len() < CAPTURE_SPAN_CAP {
                state.spans.push(timing);
            }
        }
    });
}

/// Makes `telemetry` the process-global pipeline used by the free
/// functions ([`span`], [`event`], [`counter`], …). Replaces any previous
/// one.
pub fn install(telemetry: Arc<Telemetry>) {
    let enabled = telemetry.is_enabled();
    *GLOBAL.write().expect("obs global poisoned") = Some(telemetry);
    ACTIVE.store(enabled, Ordering::Release);
}

/// Removes the global telemetry; the free functions become no-ops (plus
/// the stderr fallback for warn/error events).
pub fn uninstall() {
    ACTIVE.store(false, Ordering::Release);
    *GLOBAL.write().expect("obs global poisoned") = None;
}

/// The installed telemetry, if one is active. One atomic load when none is.
pub fn handle() -> Option<Arc<Telemetry>> {
    if !ACTIVE.load(Ordering::Acquire) {
        return None;
    }
    GLOBAL.read().expect("obs global poisoned").clone()
}

/// Whether a telemetry is installed and enabled.
pub fn active() -> bool {
    ACTIVE.load(Ordering::Acquire)
}

/// An RAII scope timer. Emits `span_open` on creation and `span_close`
/// (with elapsed wall time) on drop; nesting is tracked per thread.
/// A guard from a disabled telemetry is inert — unless a span capture
/// ([`begin_capture`]) is active, in which case the guard still records
/// its timing into the capture buffer on drop.
#[must_use = "a span measures the scope it lives in; bind it to a variable"]
#[derive(Debug)]
pub struct SpanGuard {
    telemetry: Option<Arc<Telemetry>>,
    id: u64,
    name: &'static str,
    trace: u64,
    /// `(start_us since capture epoch, capture-relative depth)` when a
    /// capture was active at open.
    capture: Option<(u64, usize)>,
    start: Instant,
    /// Fields for the close record, see [`SpanGuard::record`].
    close_fields: Vec<Field>,
}

impl SpanGuard {
    fn noop() -> SpanGuard {
        SpanGuard {
            telemetry: None,
            id: 0,
            name: "",
            trace: 0,
            capture: None,
            start: Instant::now(),
            close_fields: Vec::new(),
        }
    }

    /// Attaches a field to the span's close record, for values known only
    /// at the end of the scope. A no-op on an inert guard.
    pub fn record(&mut self, field: Field) {
        if self.telemetry.is_some() {
            self.close_fields.push(field);
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let elapsed_us = self.start.elapsed().as_micros() as u64;
        if let Some((start_us, depth)) = self.capture.take() {
            capture_close(SpanTiming {
                name: self.name,
                trace: self.trace,
                depth,
                start_us,
                elapsed_us,
            });
        }
        let Some(t) = self.telemetry.take() else {
            return;
        };
        let (parent, depth) = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Normally our id is on top; remove it wherever it is so a
            // stray out-of-order drop cannot corrupt deeper nesting.
            if let Some(pos) = stack.iter().rposition(|&id| id == self.id) {
                stack.remove(pos);
            }
            (stack.last().copied().unwrap_or(0), stack.len())
        });
        t.emit(&Record {
            kind: RecordKind::SpanClose,
            t_us: t.now_us(),
            level: Level::Debug,
            span: self.id,
            trace: self.trace,
            parent,
            depth,
            name: self.name,
            fields: &self.close_fields,
            elapsed_us: Some(elapsed_us),
        });
    }
}

/// Opens a span with no fields. See [`span_with`].
pub fn span(name: &'static str) -> SpanGuard {
    span_with(name, Vec::new())
}

/// Opens a named, timed scope with fields. The returned guard emits the
/// close record when dropped. No-op (one atomic load and a thread-local
/// flag check) when telemetry is off or no sink wants [`Level::Debug`] —
/// unless a span capture is active, which records timings regardless.
pub fn span_with(name: &'static str, fields: Vec<Field>) -> SpanGuard {
    let capturing = CAPTURE_ON.with(Cell::get);
    let t = handle().filter(|t| t.accepts(Level::Debug));
    if t.is_none() && !capturing {
        return SpanGuard::noop();
    }
    let trace = CURRENT_TRACE.with(Cell::get);
    let capture = if capturing { capture_open() } else { None };
    let Some(t) = t else {
        // Capture-only span: no sink wants it, so no id is allocated and
        // nothing is emitted, but the timing still lands in the capture.
        return SpanGuard {
            telemetry: None,
            id: 0,
            name,
            trace,
            capture,
            start: Instant::now(),
            close_fields: Vec::new(),
        };
    };
    let id = t.next_span.fetch_add(1, Ordering::Relaxed);
    let (parent, depth) = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let parent = stack.last().copied().unwrap_or(0);
        let depth = stack.len();
        stack.push(id);
        (parent, depth)
    });
    t.emit(&Record {
        kind: RecordKind::SpanOpen,
        t_us: t.now_us(),
        level: Level::Debug,
        span: id,
        trace,
        parent,
        depth,
        name,
        fields: &fields,
        elapsed_us: None,
    });
    SpanGuard {
        telemetry: Some(t),
        id,
        name,
        trace,
        capture,
        start: Instant::now(),
        close_fields: Vec::new(),
    }
}

/// Emits a point event at `level`. When no telemetry is installed,
/// warn/error events fall back to stderr (see the module docs).
pub fn event(level: Level, name: &str, fields: &[Field]) {
    match handle() {
        Some(t) => {
            if !t.accepts(level) {
                return;
            }
            let (span, depth) = SPAN_STACK.with(|stack| {
                let stack = stack.borrow();
                (stack.last().copied().unwrap_or(0), stack.len())
            });
            t.emit(&Record {
                kind: RecordKind::Event,
                t_us: t.now_us(),
                level,
                span,
                trace: CURRENT_TRACE.with(Cell::get),
                parent: 0,
                depth,
                name,
                fields,
                elapsed_us: None,
            });
        }
        None => {
            if level <= Level::Warn {
                eprintln!(
                    "{}",
                    sink::pretty_line(&Record {
                        kind: RecordKind::Event,
                        t_us: 0,
                        level,
                        span: 0,
                        trace: 0,
                        parent: 0,
                        depth: 0,
                        name,
                        fields,
                        elapsed_us: None,
                    })
                );
            }
        }
    }
}

/// [`event`] at [`Level::Error`].
pub fn error(name: &str, fields: &[Field]) {
    event(Level::Error, name, fields);
}

/// [`event`] at [`Level::Warn`].
pub fn warn(name: &str, fields: &[Field]) {
    event(Level::Warn, name, fields);
}

/// [`event`] at [`Level::Info`].
pub fn info(name: &str, fields: &[Field]) {
    event(Level::Info, name, fields);
}

/// [`event`] at [`Level::Debug`].
pub fn debug(name: &str, fields: &[Field]) {
    event(Level::Debug, name, fields);
}

/// [`event`] at [`Level::Trace`].
pub fn trace(name: &str, fields: &[Field]) {
    event(Level::Trace, name, fields);
}

/// Global counter handle (inert when telemetry is off).
pub fn counter(name: &str) -> Counter {
    handle()
        .map(|t| t.metrics().counter(name))
        .unwrap_or_default()
}

/// Global gauge handle (inert when telemetry is off).
pub fn gauge(name: &str) -> Gauge {
    handle()
        .map(|t| t.metrics().gauge(name))
        .unwrap_or_default()
}

/// Global histogram handle with default bounds (inert when telemetry is
/// off).
pub fn histogram(name: &str) -> Histogram {
    handle()
        .map(|t| t.metrics().histogram(name))
        .unwrap_or_default()
}

/// Global histogram handle with explicit bucket bounds (inert when
/// telemetry is off). Bounds apply on first registration of `name` only.
pub fn histogram_with(name: &str, bounds: &[f64]) -> Histogram {
    handle()
        .map(|t| t.metrics().histogram_with(name, bounds))
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Global-handle tests share the process-wide slot; serialise them.
    static GLOBAL_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// A sink that remembers every record it saw (as JSON lines).
    #[derive(Debug, Default)]
    struct MemorySink {
        lines: std::sync::Mutex<Vec<String>>,
    }

    impl Sink for MemorySink {
        fn emit(&self, record: &Record<'_>) {
            self.lines
                .lock()
                .unwrap()
                .push(sink::record_to_json(record).render());
        }

        fn max_level(&self) -> Level {
            Level::Trace
        }
    }

    fn mem_telemetry() -> (Arc<Telemetry>, Arc<MemorySink>) {
        let sink = Arc::new(MemorySink::default());
        struct Fwd(Arc<MemorySink>);
        impl Sink for Fwd {
            fn emit(&self, record: &Record<'_>) {
                self.0.emit(record);
            }
            fn max_level(&self) -> Level {
                Level::Trace
            }
        }
        let t = Telemetry::builder()
            .sink(Box::new(Fwd(Arc::clone(&sink))))
            .build();
        (t, sink)
    }

    #[test]
    fn spans_nest_and_time() {
        let _guard = GLOBAL_LOCK.lock().unwrap();
        let (t, sink) = mem_telemetry();
        install(t);
        {
            let _outer = span_with("outer", vec![field("k", 1u64)]);
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span("inner");
            }
            trace("tick", &[field("n", 7u64)]);
        }
        uninstall();
        let lines = sink.lines.lock().unwrap();
        let docs: Vec<_> = lines.iter().map(|l| json::parse(l).unwrap()).collect();
        assert_eq!(docs.len(), 5, "{lines:?}");
        let outer_id = docs[0].get("span").and_then(json::Json::as_u64).unwrap();
        // inner's open record points at outer as parent.
        assert_eq!(
            docs[1].get("parent").and_then(json::Json::as_u64),
            Some(outer_id)
        );
        // the event is attributed to the enclosing (outer) span.
        assert_eq!(
            docs[3].get("span").and_then(json::Json::as_u64),
            Some(outer_id)
        );
        // outer's close carries >= 2ms elapsed.
        let elapsed = docs[4]
            .get("elapsed_us")
            .and_then(json::Json::as_u64)
            .unwrap();
        assert!(elapsed >= 2_000, "elapsed {elapsed}us");
        // Timestamps are monotone.
        let stamps: Vec<u64> = docs
            .iter()
            .map(|d| d.get("t_us").and_then(json::Json::as_u64).unwrap())
            .collect();
        assert!(stamps.windows(2).all(|w| w[0] <= w[1]), "{stamps:?}");
    }

    #[test]
    fn recorded_fields_ride_on_the_close_record() {
        let _guard = GLOBAL_LOCK.lock().unwrap();
        let mut inert = span("before_install");
        inert.record(field("dropped", 1u64));
        drop(inert);
        let (t, sink) = mem_telemetry();
        install(t);
        {
            let mut s = span_with("load", vec![field("bytes", 10u64)]);
            s.record(field("posts", 3u64));
        }
        uninstall();
        let lines = sink.lines.lock().unwrap();
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[0].contains("\"bytes\"") && !lines[0].contains("\"posts\""));
        assert!(lines[1].contains("\"posts\":3"), "{}", lines[1]);
    }

    #[test]
    fn uninstalled_is_inert_and_installed_metrics_accumulate() {
        let _guard = GLOBAL_LOCK.lock().unwrap();
        uninstall();
        assert!(!active());
        counter("x").add(5); // no-op, no panic
        let _s = span("nothing");
        let t = Telemetry::builder().build(); // metrics only, no sinks
        install(Arc::clone(&t));
        counter("x").add(5);
        histogram("h").record(1.0);
        {
            // With no sink, spans are skipped entirely.
            let _s = span("skipped");
        }
        uninstall();
        let snap = t.metrics().snapshot();
        assert_eq!(snap.counters["x"], 5);
        assert_eq!(snap.histograms["h"].count, 1);
    }

    #[test]
    fn disabled_telemetry_suppresses_everything() {
        let _guard = GLOBAL_LOCK.lock().unwrap();
        let t = Telemetry::disabled();
        install(Arc::clone(&t));
        assert!(!active(), "disabled telemetry must not set the fast flag");
        counter("x").inc();
        uninstall();
        assert!(t.metrics().snapshot().is_empty());
    }

    #[test]
    fn trace_id_generation_is_seeded_and_nonzero() {
        let a = TraceIdGen::new(42);
        let b = TraceIdGen::new(42);
        let ids: Vec<TraceId> = (0..100).map(|_| a.next_id()).collect();
        assert!(ids.iter().all(|id| id.is_set()));
        assert_eq!(ids, (0..100).map(|_| b.next_id()).collect::<Vec<_>>());
        let other = TraceIdGen::new(43).next_id();
        assert_ne!(ids[0], other, "different seeds diverge");
        let hex = ids[0].as_hex();
        assert_eq!(hex.len(), 16);
        assert_eq!(TraceId::from_hex(&hex), Some(ids[0]));
    }

    #[test]
    fn trace_scope_nests_and_restores() {
        assert!(!current_trace().is_set());
        {
            let _outer = trace_scope(TraceId(7));
            assert_eq!(current_trace(), TraceId(7));
            {
                let _inner = trace_scope(TraceId(9));
                assert_eq!(current_trace(), TraceId(9));
            }
            assert_eq!(current_trace(), TraceId(7));
        }
        assert!(!current_trace().is_set());
    }

    #[test]
    fn records_carry_the_active_trace_id() {
        let _guard = GLOBAL_LOCK.lock().unwrap();
        let (t, sink) = mem_telemetry();
        install(t);
        {
            let _scope = trace_scope(TraceId(0xABCD));
            let _span = span("traced");
            info("inside", &[]);
        }
        {
            let _span = span("untraced");
        }
        uninstall();
        let lines = sink.lines.lock().unwrap();
        let docs: Vec<_> = lines.iter().map(|l| json::parse(l).unwrap()).collect();
        let hex = TraceId(0xABCD).as_hex();
        for doc in &docs[..3] {
            assert_eq!(
                doc.get("trace").and_then(json::Json::as_str),
                Some(hex.as_str()),
                "{doc:?}"
            );
        }
        assert_eq!(docs[3].get("trace"), None, "untraced span has no trace key");
    }

    #[test]
    fn capture_works_without_any_telemetry() {
        let _guard = GLOBAL_LOCK.lock().unwrap();
        uninstall();
        let _scope = trace_scope(TraceId(5));
        begin_capture();
        {
            let _outer = span("outer");
            std::thread::sleep(std::time::Duration::from_millis(1));
            {
                let _inner = span("inner");
            }
        }
        let spans = end_capture();
        assert_eq!(spans.len(), 2, "{spans:?}");
        // Completion order: inner closes first.
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].depth, 1);
        assert_eq!(spans[1].name, "outer");
        assert_eq!(spans[1].depth, 0);
        assert!(spans[1].elapsed_us >= 1_000);
        assert!(spans[1].start_us <= spans[0].start_us);
        assert!(spans.iter().all(|s| s.trace == 5));
        // After end_capture, spans stop recording.
        {
            let _late = span("late");
        }
        assert!(end_capture().is_empty());
    }

    #[test]
    fn level_parsing() {
        assert_eq!(parse_level("off").unwrap(), None);
        assert_eq!(parse_level("WARN").unwrap(), Some(Level::Warn));
        assert_eq!(parse_level("trace").unwrap(), Some(Level::Trace));
        assert!(parse_level("loud").is_err());
        assert!(Level::Error < Level::Trace);
    }

    #[test]
    fn worker_thread_spans_are_roots() {
        let _guard = GLOBAL_LOCK.lock().unwrap();
        let (t, sink) = mem_telemetry();
        install(t);
        let _outer = span("outer");
        std::thread::scope(|s| {
            s.spawn(|| {
                let _w = span("worker");
            });
        });
        drop(_outer);
        uninstall();
        let lines = sink.lines.lock().unwrap();
        let worker_open = lines
            .iter()
            .map(|l| json::parse(l).unwrap())
            .find(|d| {
                d.get("name").and_then(json::Json::as_str) == Some("worker")
                    && d.get("kind").and_then(json::Json::as_str) == Some("span_open")
            })
            .expect("worker span recorded");
        // Nesting is per thread: the worker span has no parent.
        assert_eq!(worker_open.get("parent"), None);
    }
}
