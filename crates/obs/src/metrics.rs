//! Thread-safe metrics: counters, gauges, and fixed-bucket histograms.
//!
//! Recording is lock-free after the first touch of a name (atomic adds /
//! CAS loops on `Arc`-shared cells); only name registration takes a mutex.
//! Handles returned for a disabled registry are inert, so call sites pay a
//! single branch when telemetry is off. Snapshots are plain data: mergeable
//! (all additive, so merging is associative and commutative), serialisable
//! to JSON, and renderable as a human table.

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Bucket upper bounds used when a histogram is registered without explicit
/// bounds: log-ish spacing from 1 µs to 10 s, suitable for the latency and
/// duration series the pipeline records (values are microseconds).
pub const DEFAULT_BOUNDS: [f64; 22] = [
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1e3, 2.5e3, 5e3, 1e4, 2.5e4, 5e4, 1e5,
    2.5e5, 5e5, 1e6, 2.5e6, 5e6, 1e7,
];

/// Bucket upper bounds for request-serving latencies (microseconds).
/// X14 measured p50 ≈ 210 µs / p99 ≈ 1.4 ms, where [`DEFAULT_BOUNDS`]
/// jumps 100 → 250 → 500 → 1000 µs — too coarse to resolve serving
/// quantiles. These buckets are dense across 25 µs – 5 ms and then taper
/// off, so a 0.1–2 ms distribution lands p50/p99 within one bucket of
/// truth (regression-tested below).
pub const SERVE_LATENCY_BOUNDS: [f64; 24] = [
    25.0, 50.0, 75.0, 100.0, 150.0, 200.0, 250.0, 300.0, 400.0, 500.0, 650.0, 800.0, 1e3, 1.25e3,
    1.5e3, 2e3, 2.5e3, 3.5e3, 5e3, 1e4, 2.5e4, 1e5, 1e6, 1e7,
];

/// Bucket upper bounds for edit freshness — the time from accepting an
/// edit batch to publishing the snapshot that absorbed it (microseconds).
/// A refresh of a paper-scale corpus takes a few milliseconds, so the
/// buckets are dense across 1–50 ms and then taper off.
pub const EDIT_PUBLISH_BOUNDS: [f64; 24] = [
    250.0, 500.0, 1e3, 1.5e3, 2e3, 3e3, 4e3, 5e3, 6e3, 8e3, 1e4, 1.25e4, 1.5e4, 2e4, 2.5e4, 3e4,
    4e4, 5e4, 7.5e4, 1e5, 2.5e5, 5e5, 1e6, 1e7,
];

/// A monotonically increasing counter. Inert when obtained from a disabled
/// registry.
#[derive(Clone, Debug, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (0 for an inert handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A signed gauge (set/add semantics). Inert when disabled.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Option<Arc<AtomicI64>>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        if let Some(cell) = &self.0 {
            cell.store(v, Ordering::Relaxed);
        }
    }

    /// Adjusts the gauge by `delta`.
    pub fn add(&self, delta: i64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current value (0 for an inert handle).
    pub fn get(&self) -> i64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
pub(crate) struct HistogramCells {
    bounds: Vec<f64>,
    /// `bounds.len() + 1` buckets; the last one is the overflow bucket.
    buckets: Vec<AtomicU64>,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl HistogramCells {
    fn new(bounds: &[f64]) -> Self {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        HistogramCells {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    fn record(&self, v: f64) {
        if !v.is_finite() {
            return;
        }
        let idx = self.bounds.partition_point(|&b| v > b);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        atomic_f64_update(&self.sum_bits, |s| s + v);
        atomic_f64_update(&self.min_bits, |m| m.min(v));
        atomic_f64_update(&self.max_bits, |m| m.max(v));
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = counts.iter().sum();
        let min = f64::from_bits(self.min_bits.load(Ordering::Relaxed));
        let max = f64::from_bits(self.max_bits.load(Ordering::Relaxed));
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts,
            count,
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            min: (count > 0).then_some(min),
            max: (count > 0).then_some(max),
        }
    }
}

/// CAS loop applying `f` to an f64 stored as bits.
fn atomic_f64_update(cell: &AtomicU64, f: impl Fn(f64) -> f64) {
    let mut current = cell.load(Ordering::Relaxed);
    loop {
        let next = f(f64::from_bits(current)).to_bits();
        match cell.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => current = seen,
        }
    }
}

/// A fixed-bucket histogram handle. Inert when disabled.
#[derive(Clone, Debug, Default)]
pub struct Histogram(pub(crate) Option<Arc<HistogramCells>>);

impl Histogram {
    /// Records one observation. Non-finite values are dropped.
    pub fn record(&self, v: f64) {
        if let Some(cells) = &self.0 {
            cells.record(v);
        }
    }

    /// Records a duration in microseconds.
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_secs_f64() * 1e6);
    }

    /// A point-in-time copy (empty snapshot for an inert handle).
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.0
            .as_ref()
            .map(|c| c.snapshot())
            .unwrap_or_else(|| HistogramSnapshot::empty(&DEFAULT_BOUNDS))
    }
}

/// Point-in-time state of one histogram.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds (strictly increasing).
    pub bounds: Vec<f64>,
    /// Per-bucket counts; `counts.len() == bounds.len() + 1` (overflow last).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation, if any.
    pub min: Option<f64>,
    /// Largest observation, if any.
    pub max: Option<f64>,
}

impl HistogramSnapshot {
    /// An empty snapshot over the given bounds.
    pub fn empty(bounds: &[f64]) -> Self {
        HistogramSnapshot {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            min: None,
            max: None,
        }
    }

    /// Mean observation, if any were recorded.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Estimated quantile `q` in [0, 1] by linear interpolation within the
    /// containing bucket. Monotone in `q`. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let lo_cum = cum;
            cum += c;
            if rank <= cum {
                // Bucket edges, tightened by the observed min/max so the
                // estimate never leaves the recorded range.
                let lo = if i == 0 {
                    self.min.unwrap_or(0.0)
                } else {
                    self.bounds[i - 1].max(self.min.unwrap_or(f64::NEG_INFINITY))
                };
                let hi = if i < self.bounds.len() {
                    self.bounds[i].min(self.max.unwrap_or(f64::INFINITY))
                } else {
                    self.max.unwrap_or(self.bounds[self.bounds.len() - 1])
                };
                let hi = hi.max(lo);
                let into = (rank - lo_cum) as f64 / c as f64;
                return Some(lo + (hi - lo) * into);
            }
        }
        self.max
    }

    /// Fallible merge: adds another snapshot's observations into this one.
    /// Mismatched bucket layouts are rejected with a descriptive error
    /// instead of zipping unequal bucket vectors (which would silently
    /// truncate counts to the shorter layout).
    pub fn try_merge(&self, other: &HistogramSnapshot) -> Result<HistogramSnapshot, String> {
        if self.bounds != other.bounds {
            return Err(format!(
                "histogram bucket layouts differ: {} bounds (first {:?}) vs {} bounds (first {:?})",
                self.bounds.len(),
                self.bounds.first(),
                other.bounds.len(),
                other.bounds.first(),
            ));
        }
        debug_assert_eq!(self.counts.len(), other.counts.len());
        Ok(HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self
                .counts
                .iter()
                .zip(&other.counts)
                .map(|(a, b)| a + b)
                .collect(),
            count: self.count + other.count,
            sum: self.sum + other.sum,
            min: opt_fold(self.min, other.min, f64::min),
            max: opt_fold(self.max, other.max, f64::max),
        })
    }

    /// Adds another snapshot's observations into this one. Requires equal
    /// bounds (all pipeline histograms of one name share theirs); use
    /// [`try_merge`](HistogramSnapshot::try_merge) to handle mismatches.
    ///
    /// # Panics
    /// Panics if the bucket layouts differ.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        self.try_merge(other)
            .unwrap_or_else(|e| panic!("cannot merge histograms: {e}"))
    }

    fn to_json(&self) -> Json {
        let buckets: Vec<Json> = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let bound = if i < self.bounds.len() {
                    Json::Num(self.bounds[i])
                } else {
                    Json::Str("+inf".into())
                };
                Json::Arr(vec![bound, Json::from(c)])
            })
            .collect();
        let mut pairs = vec![
            ("count".to_string(), Json::from(self.count)),
            ("sum".to_string(), Json::Num(self.sum)),
        ];
        if let Some(min) = self.min {
            pairs.push(("min".into(), Json::Num(min)));
        }
        if let Some(max) = self.max {
            pairs.push(("max".into(), Json::Num(max)));
        }
        for (label, q) in [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)] {
            if let Some(v) = self.quantile(q) {
                pairs.push((label.into(), Json::Num(v)));
            }
        }
        pairs.push(("buckets".into(), Json::Arr(buckets)));
        Json::Obj(pairs)
    }
}

fn opt_fold(a: Option<f64>, b: Option<f64>, f: impl Fn(f64, f64) -> f64) -> Option<f64> {
    match (a, b) {
        (Some(a), Some(b)) => Some(f(a, b)),
        (x, None) | (None, x) => x,
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, Arc<AtomicU64>>,
    gauges: BTreeMap<String, Arc<AtomicI64>>,
    histograms: BTreeMap<String, Arc<HistogramCells>>,
}

/// The per-telemetry metric store. Lookups by name lock a mutex; the
/// returned handles are lock-free, so hot paths should hoist them.
#[derive(Debug)]
pub struct Registry {
    enabled: bool,
    inner: Mutex<RegistryInner>,
}

impl Registry {
    /// A live registry.
    pub fn new() -> Self {
        Registry {
            enabled: true,
            inner: Mutex::new(RegistryInner::default()),
        }
    }

    /// A registry whose handles are all inert.
    pub fn disabled() -> Self {
        Registry {
            enabled: false,
            inner: Mutex::new(RegistryInner::default()),
        }
    }

    /// Counter registered under `name` (created on first use).
    pub fn counter(&self, name: &str) -> Counter {
        if !self.enabled {
            return Counter(None);
        }
        let mut inner = self.inner.lock().expect("metrics poisoned");
        Counter(Some(Arc::clone(
            inner.counters.entry(name.to_string()).or_default(),
        )))
    }

    /// Gauge registered under `name` (created on first use).
    pub fn gauge(&self, name: &str) -> Gauge {
        if !self.enabled {
            return Gauge(None);
        }
        let mut inner = self.inner.lock().expect("metrics poisoned");
        Gauge(Some(Arc::clone(
            inner.gauges.entry(name.to_string()).or_default(),
        )))
    }

    /// Histogram registered under `name` with [`DEFAULT_BOUNDS`].
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, &DEFAULT_BOUNDS)
    }

    /// Histogram registered under `name`; `bounds` apply only on first
    /// registration (later callers share the existing layout).
    pub fn histogram_with(&self, name: &str, bounds: &[f64]) -> Histogram {
        if !self.enabled {
            return Histogram(None);
        }
        let mut inner = self.inner.lock().expect("metrics poisoned");
        Histogram(Some(Arc::clone(
            inner
                .histograms
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(HistogramCells::new(bounds))),
        )))
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("metrics poisoned");
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

/// Plain-data copy of a [`Registry`]: mergeable, serialisable, printable.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Combines two snapshots additively (counters and histogram buckets
    /// add; gauges add as deltas). Associative and commutative, so shards
    /// can be folded in any order.
    pub fn merge(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = self.clone();
        for (k, v) in &other.counters {
            *out.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            *out.gauges.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.histograms {
            match out.histograms.entry(k.clone()) {
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    let merged = e.get().try_merge(v).unwrap_or_else(|err| {
                        panic!("cannot merge histogram {k:?}: {err}");
                    });
                    *e.get_mut() = merged;
                }
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(v.clone());
                }
            }
        }
        out
    }

    /// Serialises to a single JSON object (the `--metrics-out` artifact).
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "counters".to_string(),
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(*v)))
                        .collect(),
                ),
            ),
            (
                "gauges".to_string(),
                Json::Obj(
                    self.gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                        .collect(),
                ),
            ),
            (
                "histograms".to_string(),
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Renders the human-readable summary printed after CLI runs.
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if !self.counters.is_empty() || !self.gauges.is_empty() {
            let _ = writeln!(out, "  {:<32} {:>12}", "counter/gauge", "value");
            for (k, v) in &self.counters {
                let _ = writeln!(out, "  {k:<32} {v:>12}");
            }
            for (k, v) in &self.gauges {
                let _ = writeln!(out, "  {k:<32} {v:>12}");
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(
                out,
                "  {:<32} {:>8} {:>10} {:>10} {:>10} {:>10}",
                "histogram", "count", "mean", "p50", "p95", "p99"
            );
            for (k, h) in &self.histograms {
                let fmt = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.1}"));
                let _ = writeln!(
                    out,
                    "  {k:<32} {:>8} {:>10} {:>10} {:>10} {:>10}",
                    h.count,
                    fmt(h.mean()),
                    fmt(h.quantile(0.5)),
                    fmt(h.quantile(0.95)),
                    fmt(h.quantile(0.99)),
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let r = Registry::new();
        r.counter("a").add(3);
        r.counter("a").inc();
        r.gauge("g").set(5);
        r.gauge("g").add(-2);
        let s = r.snapshot();
        assert_eq!(s.counters["a"], 4);
        assert_eq!(s.gauges["g"], 3);
    }

    #[test]
    fn disabled_registry_is_inert() {
        let r = Registry::disabled();
        r.counter("a").add(3);
        r.histogram("h").record(1.0);
        r.gauge("g").set(9);
        assert!(r.snapshot().is_empty());
    }

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        let r = Registry::new();
        let h = r.histogram("lat");
        for v in 1..=1000 {
            h.record(v as f64);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.min, Some(1.0));
        assert_eq!(s.max, Some(1000.0));
        let p50 = s.quantile(0.5).unwrap();
        let p95 = s.quantile(0.95).unwrap();
        let p99 = s.quantile(0.99).unwrap();
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        assert!((250.0..=1000.0).contains(&p50), "p50 {p50}");
        assert!(s.mean().unwrap() > 400.0);
    }

    #[test]
    fn histogram_ignores_non_finite() {
        let r = Registry::new();
        let h = r.histogram("x");
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(2.0);
        assert_eq!(h.snapshot().count, 1);
    }

    #[test]
    fn same_name_shares_state() {
        let r = Registry::new();
        r.histogram("h").record(1.0);
        r.histogram("h").record(2.0);
        assert_eq!(r.histogram("h").snapshot().count, 2);
    }

    #[test]
    fn snapshot_merge_adds() {
        let a = Registry::new();
        a.counter("c").add(2);
        a.histogram("h").record(10.0);
        let b = Registry::new();
        b.counter("c").add(5);
        b.counter("only_b").inc();
        b.histogram("h").record(20.0);
        let merged = a.snapshot().merge(&b.snapshot());
        assert_eq!(merged.counters["c"], 7);
        assert_eq!(merged.counters["only_b"], 1);
        assert_eq!(merged.histograms["h"].count, 2);
        assert_eq!(merged.histograms["h"].sum, 30.0);
        assert_eq!(merged.histograms["h"].min, Some(10.0));
        assert_eq!(merged.histograms["h"].max, Some(20.0));
    }

    #[test]
    fn try_merge_rejects_mismatched_bounds() {
        let a = HistogramSnapshot::empty(&[1.0, 2.0, 3.0]);
        let b = HistogramSnapshot::empty(&[1.0, 2.0, 4.0]);
        let err = a.try_merge(&b).unwrap_err();
        assert!(err.contains("layouts differ"), "{err}");
        // Differing lengths would previously zip-truncate silently.
        let c = HistogramSnapshot::empty(&DEFAULT_BOUNDS);
        let d = HistogramSnapshot::empty(&SERVE_LATENCY_BOUNDS);
        assert!(c.try_merge(&d).is_err());
        // Matching bounds still merge additively.
        let merged = a
            .try_merge(&HistogramSnapshot::empty(&[1.0, 2.0, 3.0]))
            .unwrap();
        assert_eq!(merged.bounds, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "cannot merge histogram")]
    fn merge_panics_on_mismatched_bounds() {
        let a = HistogramSnapshot::empty(&[1.0, 2.0]);
        let b = HistogramSnapshot::empty(&[1.0, 5.0]);
        let _ = a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "cannot merge histogram \"h\"")]
    fn snapshot_merge_names_the_conflicting_histogram() {
        let mut a = MetricsSnapshot::default();
        a.histograms
            .insert("h".into(), HistogramSnapshot::empty(&[1.0, 2.0]));
        let mut b = MetricsSnapshot::default();
        b.histograms
            .insert("h".into(), HistogramSnapshot::empty(&[3.0]));
        let _ = a.merge(&b);
    }

    /// The serve-latency bounds must resolve sub-millisecond quantiles:
    /// for a synthetic 0.1–2 ms distribution, the estimated p50/p99 lands
    /// within one bucket of the true order statistic.
    #[test]
    fn serve_bounds_resolve_submillisecond_quantiles() {
        let r = Registry::new();
        let h = r.histogram_with("lat", &SERVE_LATENCY_BOUNDS);
        // Deterministic values spread over 100–2000 µs, skewed low like
        // real serving latency (most requests fast, a slow tail).
        let mut values: Vec<f64> = (0..2000u64)
            .map(|i| {
                let u = ((i.wrapping_mul(2654435761) >> 8) % 1000) as f64 / 1000.0;
                100.0 + 1900.0 * u * u
            })
            .collect();
        for &v in &values {
            h.record(v);
        }
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let snap = h.snapshot();
        for (q, label) in [(0.50, "p50"), (0.99, "p99")] {
            let truth =
                values[((q * values.len() as f64).ceil() as usize - 1).min(values.len() - 1)];
            let est = snap.quantile(q).unwrap();
            // "Within one bucket": the estimate must fall inside the truth's
            // bucket widened by one bucket on each side.
            let idx = SERVE_LATENCY_BOUNDS.partition_point(|&b| truth > b);
            let lo = if idx == 0 {
                0.0
            } else {
                SERVE_LATENCY_BOUNDS[idx - 1]
            };
            let hi = SERVE_LATENCY_BOUNDS[(idx + 1).min(SERVE_LATENCY_BOUNDS.len() - 1)];
            assert!(
                (lo..=hi).contains(&est),
                "{label}: estimate {est} outside [{lo}, {hi}] around truth {truth}"
            );
        }
    }

    #[test]
    fn snapshot_serialises_and_parses() {
        let r = Registry::new();
        r.counter("crawl.retries").add(3);
        r.histogram("lat").record(123.0);
        let text = r.snapshot().to_json().render();
        let doc = crate::json::parse(&text).unwrap();
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("crawl.retries"))
                .and_then(crate::json::Json::as_u64),
            Some(3)
        );
        assert_eq!(
            doc.get("histograms")
                .and_then(|h| h.get("lat"))
                .and_then(|l| l.get("count"))
                .and_then(crate::json::Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn render_table_lists_every_metric() {
        let r = Registry::new();
        r.counter("crawl.retries").add(3);
        r.histogram("crawl.fetch_latency_us").record(40.0);
        let table = r.snapshot().render_table();
        assert!(table.contains("crawl.retries"));
        assert!(table.contains("crawl.fetch_latency_us"));
    }
}
