//! The live telemetry plane for one server (DESIGN.md §7, §12).
//!
//! `--trace-out` / `--metrics-out` artifacts only exist after shutdown;
//! this plane is the *live* surface: an always-on metrics registry for
//! `GET /metrics` (Prometheus text exposition), sliding-window
//! histograms/counters so p99 and QPS mean "the last 60 s", a seeded
//! [`TraceIdGen`] correlating every request with the refresh it triggers,
//! and the [`FlightRecorder`] behind `GET /debug/requests`.
//!
//! Everything here is read off atomics or short-lived snapshots — a
//! scrape never touches the query path's locks. The plane is independent
//! of the process-global `mass_obs` telemetry: the global one feeds the
//! artifact files when the operator opts in, the plane feeds the live
//! endpoints always (unless `live_metrics` is off, which makes every
//! handle inert — the "telemetry off" arm of the X15 overhead bench).

use mass_obs::metrics::{EDIT_PUBLISH_BOUNDS, SERVE_LATENCY_BOUNDS};
use mass_obs::prometheus::PromWriter;
use mass_obs::{
    Counter, FlightRecorder, Gauge, Histogram, Registry, TraceId, TraceIdGen, WindowCounter,
    WindowHistogram,
};

/// Availability objective backing the error-budget burn rate reported by
/// `/debug/slo`: 99.9%, i.e. an error budget of 0.1% of requests. A burn
/// of 1.0 means errors consume the budget exactly as fast as allowed.
pub const SLO_ERROR_BUDGET: f64 = 0.001;

/// Telemetry-plane knobs (the `--flight-recorder-cap`, `--sample-slow-ms`,
/// `--window-secs` CLI flags land here).
#[derive(Clone, Debug)]
pub struct PlaneConfig {
    /// Master switch for the live registry and window metrics. Off makes
    /// every handle inert (used by the X15 "telemetry off" baseline).
    pub live_metrics: bool,
    /// Flight-recorder ring capacity; 0 disables trace capture entirely.
    pub flight_recorder_cap: usize,
    /// Requests at or above this latency are always sampled. 0 keeps
    /// every request (debug mode).
    pub sample_slow_ms: u64,
    /// Fast, successful requests are kept one-in-N; 0 disables the
    /// probabilistic path (only errors/5xx/slow are kept).
    pub sample_keep_one_in: u64,
    /// Sliding-window length for the `/debug/slo` and `{window=..}`
    /// metric variants.
    pub window_secs: u64,
    /// Trace-id generator seed (deterministic ids under test).
    pub trace_seed: u64,
}

impl Default for PlaneConfig {
    fn default() -> PlaneConfig {
        PlaneConfig {
            live_metrics: true,
            flight_recorder_cap: 256,
            sample_slow_ms: 50,
            sample_keep_one_in: 16,
            window_secs: 60,
            trace_seed: 0,
        }
    }
}

/// Rolled-up view of the sliding window, for `/debug/slo`.
#[derive(Clone, Copy, Debug, Default)]
pub struct WindowStats {
    /// Requests inside the window.
    pub requests: u64,
    /// 5xx responses inside the window.
    pub errors: u64,
    /// Window p50 latency in µs, if any traffic.
    pub p50_us: Option<f64>,
    /// Window p99 latency in µs, if any traffic.
    pub p99_us: Option<f64>,
    /// Window p50 edit freshness (accept → publish) in µs, if any batch
    /// was published.
    pub edit_publish_p50_us: Option<f64>,
    /// Window p99 edit freshness in µs.
    pub edit_publish_p99_us: Option<f64>,
}

/// One server's live telemetry: hoisted lock-free handles, windows, the
/// flight recorder, and the trace-id source.
pub struct TelemetryPlane {
    live: bool,
    registry: Registry,
    /// The span-tree ring behind `/debug/requests`.
    pub recorder: FlightRecorder,
    trace_gen: TraceIdGen,
    window_secs: u64,
    win_request_us: WindowHistogram,
    win_edit_publish_us: WindowHistogram,
    win_requests: WindowCounter,
    win_errors: WindowCounter,
    /// `serve.requests` — fully routed requests.
    pub requests: Counter,
    /// `serve.http_4xx`.
    pub http_4xx: Counter,
    /// `serve.http_5xx`.
    pub http_5xx: Counter,
    /// `serve.shed` — connections/batches refused by admission control.
    pub shed: Counter,
    /// `serve.deadline_exceeded`.
    pub deadline_exceeded: Counter,
    /// `serve.edit_batches` accepted.
    pub edit_batches: Counter,
    /// `serve.refreshes` that published.
    pub refreshes: Counter,
    /// `serve.refresh_failures` quarantined.
    pub refresh_failures: Counter,
    /// `serve.ad_cache_hits` (fed to [`crate::cache::AdVectorCache`]).
    pub cache_hits: Counter,
    /// `serve.ad_cache_misses`.
    pub cache_misses: Counter,
    /// `serve.request_us` cumulative latency histogram.
    pub request_us: Histogram,
    /// `serve.refresh_us` cumulative refresh-duration histogram.
    pub refresh_us: Histogram,
    /// `serve.edit_publish_us`: per accepted edit batch, the time from
    /// accepting it to publishing the snapshot that absorbed it.
    pub edit_publish_us: Histogram,
    /// `serve.epoch` gauge (set on publish).
    pub epoch: Gauge,
    /// `serve.stale_ms` gauge (set at scrape time).
    pub stale_ms: Gauge,
    /// `serve.queue_depth` gauge (fed to the accept queue).
    pub queue_depth: Gauge,
    /// `serve.pending_batches` gauge (set at scrape time).
    pub pending_batches: Gauge,
    /// `serve.degraded` 0/1 gauge (set at scrape time).
    pub degraded: Gauge,
}

impl TelemetryPlane {
    /// Builds the plane. With `live_metrics` off the registry is disabled
    /// and every handle inert; the recorder obeys its own capacity knob.
    pub fn new(cfg: &PlaneConfig) -> TelemetryPlane {
        let registry = if cfg.live_metrics {
            Registry::new()
        } else {
            Registry::disabled()
        };
        let window_secs = cfg.window_secs.max(1);
        // 12 slots → 5 s resolution on the default 60 s window.
        let slots = 12;
        TelemetryPlane {
            live: cfg.live_metrics,
            recorder: FlightRecorder::new(
                cfg.flight_recorder_cap,
                cfg.sample_slow_ms.saturating_mul(1_000),
                cfg.sample_keep_one_in,
            ),
            trace_gen: TraceIdGen::new(cfg.trace_seed),
            window_secs,
            win_request_us: WindowHistogram::new(&SERVE_LATENCY_BOUNDS, window_secs, slots),
            win_edit_publish_us: WindowHistogram::new(&EDIT_PUBLISH_BOUNDS, window_secs, slots),
            win_requests: WindowCounter::new(window_secs, slots),
            win_errors: WindowCounter::new(window_secs, slots),
            requests: registry.counter("serve.requests"),
            http_4xx: registry.counter("serve.http_4xx"),
            http_5xx: registry.counter("serve.http_5xx"),
            shed: registry.counter("serve.shed"),
            deadline_exceeded: registry.counter("serve.deadline_exceeded"),
            edit_batches: registry.counter("serve.edit_batches"),
            refreshes: registry.counter("serve.refreshes"),
            refresh_failures: registry.counter("serve.refresh_failures"),
            cache_hits: registry.counter("serve.ad_cache_hits"),
            cache_misses: registry.counter("serve.ad_cache_misses"),
            request_us: registry.histogram_with("serve.request_us", &SERVE_LATENCY_BOUNDS),
            refresh_us: registry.histogram("serve.refresh_us"),
            edit_publish_us: registry.histogram_with("serve.edit_publish_us", &EDIT_PUBLISH_BOUNDS),
            epoch: registry.gauge("serve.epoch"),
            stale_ms: registry.gauge("serve.stale_ms"),
            queue_depth: registry.gauge("serve.queue_depth"),
            pending_batches: registry.gauge("serve.pending_batches"),
            degraded: registry.gauge("serve.degraded"),
            registry,
        }
    }

    /// A fresh request-correlation id.
    pub fn next_trace(&self) -> TraceId {
        self.trace_gen.next_id()
    }

    /// The sliding-window length in seconds.
    pub fn window_secs(&self) -> u64 {
        self.window_secs
    }

    /// Records one completed request into the cumulative and window
    /// metrics. All atomics — safe on the hot path.
    pub fn observe_request(&self, status: u16, elapsed_us: u64) {
        self.requests.inc();
        self.request_us.record(elapsed_us as f64);
        match status {
            400..=499 => self.http_4xx.inc(),
            500.. => self.http_5xx.inc(),
            _ => {}
        }
        if self.live {
            self.win_requests.inc();
            self.win_request_us.record(elapsed_us as f64);
            if status >= 500 {
                self.win_errors.inc();
            }
        }
    }

    /// Records one refresh outcome.
    pub fn observe_refresh(&self, ok: bool, elapsed_us: u64) {
        if ok {
            self.refreshes.inc();
        } else {
            self.refresh_failures.inc();
        }
        self.refresh_us.record(elapsed_us as f64);
    }

    /// Records one published edit batch's freshness (accept → publish).
    pub fn observe_edit_publish(&self, elapsed_us: u64) {
        self.edit_publish_us.record(elapsed_us as f64);
        if self.live {
            self.win_edit_publish_us.record(elapsed_us as f64);
        }
    }

    /// Rolled-up window view for `/debug/slo`.
    pub fn window_stats(&self) -> WindowStats {
        let snap = self.win_request_us.snapshot();
        let fresh = self.win_edit_publish_us.snapshot();
        WindowStats {
            requests: self.win_requests.sum(),
            errors: self.win_errors.sum(),
            p50_us: snap.quantile(0.50),
            p99_us: snap.quantile(0.99),
            edit_publish_p50_us: fresh.quantile(0.50),
            edit_publish_p99_us: fresh.quantile(0.99),
        }
    }

    /// Error-budget burn rate over the window: the observed error ratio
    /// divided by [`SLO_ERROR_BUDGET`] (1.0 = burning exactly at budget).
    pub fn error_budget_burn(&self, stats: &WindowStats) -> f64 {
        if stats.requests == 0 {
            return 0.0;
        }
        (stats.errors as f64 / stats.requests as f64) / SLO_ERROR_BUDGET
    }

    /// Renders the `/metrics` exposition document: every cumulative
    /// metric, the `{window="Ns"}` variants, and flight-recorder counters.
    /// Call the gauge setters first so point-in-time values are fresh.
    pub fn render_prometheus(&self) -> String {
        let mut w = PromWriter::new();
        w.snapshot(&self.registry.snapshot());
        if self.live {
            let label = format!("{}s", self.window_secs);
            let labels: [(&str, &str); 1] = [("window", label.as_str())];
            w.histogram("serve.request_us", &labels, &self.win_request_us.snapshot());
            w.histogram(
                "serve.edit_publish_us",
                &labels,
                &self.win_edit_publish_us.snapshot(),
            );
            w.gauge(
                "serve.window_requests",
                &labels,
                self.win_requests.sum() as f64,
            );
            w.gauge("serve.window_errors", &labels, self.win_errors.sum() as f64);
        }
        let stats = self.recorder.stats();
        w.counter("serve.flight_offered", &[], stats.offered);
        w.counter("serve.flight_sampled", &[], stats.kept);
        w.counter("serve.flight_contended", &[], stats.contended);
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plane_counts_and_windows_requests() {
        let plane = TelemetryPlane::new(&PlaneConfig::default());
        plane.observe_request(200, 300);
        plane.observe_request(404, 200);
        plane.observe_request(503, 90_000);
        assert_eq!(plane.requests.get(), 3);
        assert_eq!(plane.http_4xx.get(), 1);
        assert_eq!(plane.http_5xx.get(), 1);
        let stats = plane.window_stats();
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.errors, 1);
        assert!(stats.p50_us.is_some());
        let burn = plane.error_budget_burn(&stats);
        assert!(burn > 300.0, "1/3 errors burns far beyond budget: {burn}");
    }

    #[test]
    fn disabled_plane_is_inert_but_recorder_obeys_its_own_knob() {
        let plane = TelemetryPlane::new(&PlaneConfig {
            live_metrics: false,
            flight_recorder_cap: 8,
            ..PlaneConfig::default()
        });
        plane.observe_request(200, 300);
        assert_eq!(plane.requests.get(), 0);
        assert_eq!(plane.window_stats().requests, 0);
        assert!(plane.recorder.is_enabled());
    }

    #[test]
    fn trace_ids_are_deterministic_per_seed() {
        let a = TelemetryPlane::new(&PlaneConfig {
            trace_seed: 7,
            ..PlaneConfig::default()
        });
        let b = TelemetryPlane::new(&PlaneConfig {
            trace_seed: 7,
            ..PlaneConfig::default()
        });
        assert_eq!(a.next_trace(), b.next_trace());
        assert_ne!(a.next_trace(), a.next_trace());
    }

    #[test]
    fn exposition_is_valid_and_has_window_variants() {
        let plane = TelemetryPlane::new(&PlaneConfig::default());
        plane.observe_request(200, 250);
        plane.observe_request(500, 2_500);
        plane.observe_refresh(true, 15_000);
        plane.observe_edit_publish(18_000);
        plane.epoch.set(3);
        let text = plane.render_prometheus();
        let report = mass_obs::prometheus::validate(&text).expect(&text);
        for family in [
            "serve_requests",
            "serve_request_us",
            "serve_refreshes",
            "serve_edit_publish_us",
            "serve_epoch",
            "serve_window_requests",
            "serve_flight_sampled",
        ] {
            assert!(report.families.contains_key(family), "missing {family}");
        }
        assert!(
            text.contains("serve_request_us_bucket{window=\"60s\""),
            "{text}"
        );
        assert!(
            text.contains("serve_edit_publish_us_bucket{window=\"60s\""),
            "{text}"
        );
        let fresh = plane.window_stats();
        assert!(fresh.edit_publish_p50_us.is_some() && fresh.edit_publish_p99_us.is_some());
    }
}
