//! `serve-mixed`: the read path of a live server under an open loop.
//!
//! An in-process `mass_serve` server answers a seeded mix of `/topk`,
//! `/topk?domain=` and `POST /match` (ad texts drawn so some repeat and
//! hit the ad cache, some are unique and miss), while `POST /edits` storms
//! go out on a fixed slot schedule. Sender threads (no more than this
//! host's two cores) send each slot when it is due, whether or not earlier
//! replies came back, and time it from when it was due, so a stall is
//! charged to every request it delays. The generator's own lateness is
//! reported; a run where it exceeds a quarter of one sender's inter-send
//! interval at p90 fails its check, because it would then measure the
//! generator instead of the server.

use crate::trace::Tracer;
use crate::{median, metric, Ctx, Outcome, Rng};
use mass::core::{IncrementalMass, MassParams};
use mass::obs::json::{self, Json};
use mass::obs::process::peak_rss_kb;
use mass::serve::client::{self, HttpReply};
use mass::serve::{start, ServeConfig, ServerHandle};
use mass::synth::{advertisement_text, generate, SynthConfig};
use mass::types::DomainId;
use std::io;
use std::time::{Duration, Instant};

const BLOGGERS: usize = 3000;
/// Offered load over all senders, requests per second. Stepping this rate
/// (10 s per step, two seeds, 2-vCPU Xeon host) kept the median request
/// latency falling up to 2000/s; it climbed from 2400/s (0.21 ms, then
/// 0.38–0.54 ms at 3200/s), and the tail climbed from 1600/s. 500/s is
/// ~20% of that saturation point and under a third of where the tail
/// climbs, so the ~1.7× swings in vCPU speed seen on that host do not push
/// it into the climb (at 1000/s they did, in 2 of 10 runs).
const RATE: f64 = 500.0;
const SENDERS: usize = 2;
/// Every `EDIT_EVERY`-th slot is a `POST /edits` storm (0.1 s apart).
const EDIT_EVERY: u64 = 50;
const STORM_EDITS: u64 = 16;
/// Distinct repeating ad texts. Half of the `/match` texts come from this
/// pool and hit the ad cache once warm; the rest are unique and miss. This
/// share, like the 40/30/30 `/topk` / `/topk?domain=` / `/match` mix, is an
/// arbitrary choice: the paper gives no traffic figures.
const AD_POOL: u64 = 16;
const TIMEOUT: Duration = Duration::from_secs(5);
/// Largest generator p90 lateness, as a share of one sender's interval.
const LATE_SHARE: f64 = 0.25;
/// How long before a slot is due its sender stops sleeping and spins.
const SPIN: Duration = Duration::from_micros(200);
/// Edits accepted this close to the end may go unobserved by a read.
const VISIBLE_GRACE: Duration = Duration::from_secs(1);

enum Req {
    Topk,
    TopkDomain(String),
    Match(String),
    Edit(u64),
}

impl Req {
    fn route(&self) -> &'static str {
        match self {
            Req::Topk => "serve.topk",
            Req::TopkDomain(_) => "serve.topk_domain",
            Req::Match(_) => "serve.match",
            Req::Edit(_) => "serve.edits",
        }
    }

    fn send(&self, addr: &str) -> io::Result<HttpReply> {
        match self {
            Req::Topk => client::get(addr, "/topk?k=10", TIMEOUT),
            Req::TopkDomain(d) => client::get(addr, &format!("/topk?domain={d}&k=10"), TIMEOUT),
            Req::Match(text) => client::post(addr, "/match?k=5", text.as_bytes(), TIMEOUT),
            Req::Edit(seed) => {
                let body = format!("{{\"storm\":{STORM_EDITS},\"seed\":{seed}}}");
                client::post(addr, "/edits", body.as_bytes(), TIMEOUT)
            }
        }
    }

    /// Checks a reply; returns the epoch it was served from.
    fn check(&self, reply: &io::Result<HttpReply>) -> Result<u64, String> {
        let r = reply.as_ref().map_err(|e| format!("request failed: {e}"))?;
        let want = if matches!(self, Req::Edit(_)) {
            202
        } else {
            200
        };
        if r.status != want {
            return Err(format!("status {} (want {want}): {}", r.status, r.body));
        }
        let body = json::parse(&r.body).map_err(|e| format!("reply does not parse: {e}"))?;
        match self {
            Req::Edit(_) => {
                if body.get("accepted") != Some(&Json::Bool(true)) {
                    return Err("edit batch not accepted".into());
                }
            }
            _ => {
                let rows = body
                    .get("ranking")
                    .and_then(Json::as_arr)
                    .filter(|rows| !rows.is_empty())
                    .ok_or("reply has no ranking")?;
                let scores: Option<Vec<f64>> = rows
                    .iter()
                    .map(|row| row.get("score").and_then(Json::as_f64))
                    .collect();
                let scores = scores.ok_or("ranking row without a score")?;
                if matches!(self, Req::Topk | Req::TopkDomain(_))
                    && scores.windows(2).any(|w| w[0] < w[1])
                {
                    return Err("/topk rows are not descending".into());
                }
            }
        }
        r.header("x-mass-epoch")
            .and_then(|e| e.parse().ok())
            .ok_or_else(|| "reply has no X-Mass-Epoch".into())
    }
}

/// The seeded request plan, one entry per slot.
fn plan(seed: u64, slots: u64, domains: &[String]) -> Vec<Req> {
    let mut rng = Rng(seed ^ 0x5e7e_5eed);
    (0..slots)
        .map(|i| {
            if i % EDIT_EVERY == EDIT_EVERY / 2 {
                return Req::Edit(rng.next_u64());
            }
            match rng.below(10) {
                0..=3 => Req::Topk,
                4..=6 => Req::TopkDomain(domains[rng.below(domains.len())].clone()),
                _ => {
                    let text = if rng.below(2) == 0 {
                        let s = rng.below(AD_POOL as usize);
                        advertisement_text(DomainId::new(s % domains.len()), s as u64)
                    } else {
                        let d = DomainId::new(rng.below(domains.len()));
                        format!("{} ref{i}", advertisement_text(d, rng.next_u64()))
                    };
                    Req::Match(text)
                }
            }
        })
        .collect()
}

/// Sleeps until shortly before `due`, then spins, so the sender's own
/// wake-up delay stays out of the latency it measures.
fn wait_until(due: Instant) {
    if let Some(d) = due.checked_duration_since(Instant::now() + SPIN) {
        std::thread::sleep(d);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// One sent slot.
struct Sent {
    slot: u64,
    route: &'static str,
    traced: bool,
    due: Instant,
    /// From when the slot was due to when its reply was read.
    latency_ms: f64,
    /// How late the sender sent, beyond waiting for its previous reply.
    gen_late_ms: f64,
    /// Reply read, since the loop started.
    done: Duration,
    epoch: Result<u64, String>,
}

fn boot(seed: u64) -> (ServerHandle, Vec<String>) {
    let ds = generate(&SynthConfig {
        bloggers: BLOGGERS,
        seed,
        ..Default::default()
    })
    .dataset;
    let domains = ds.domains.names().to_vec();
    let engine = IncrementalMass::new(
        ds,
        MassParams {
            threads: 0,
            ..MassParams::paper()
        },
    );
    let handle = start(engine, ServeConfig::default()).expect("bind a local port");
    let addr = handle.addr().to_string();
    let ready = (0..500).any(|_| {
        let ok = client::get(&addr, "/readyz", TIMEOUT).is_ok_and(|r| r.status == 200);
        if !ok {
            std::thread::sleep(Duration::from_millis(10));
        }
        ok
    });
    assert!(ready, "server at {addr} never became ready");
    (handle, domains)
}

/// A counter's value in a Prometheus text scrape.
fn prom_counter(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
}

fn route_p50(sent: &[Sent], route: &str) -> f64 {
    let xs: Vec<f64> = sent
        .iter()
        .filter(|s| s.route == route)
        .map(|s| s.latency_ms)
        .collect();
    median(&xs)
}

pub fn run(ctx: &Ctx, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    // Request latency here is mostly loopback round trips and thread
    // wake-ups, which follow the host reference far less than one for one:
    // scaled, five seeds spread 0.26 (IQR/median) against 0.13 as measured.
    // So requests are reported as measured; set-up is still scaled.
    out.raw_ops = true;
    let mut server: Option<(ServerHandle, Vec<String>)> = None;
    for _ in 0..ctx.setup_reps {
        if let Some((old, _)) = server.take() {
            old.shutdown();
        }
        out.host.sample();
        let t = Instant::now();
        server = Some(boot(ctx.seed));
        out.setup(t, t.elapsed().as_secs_f64());
    }
    out.host.sample();
    let (handle, domains) = server.expect("at least one set-up");
    let addr = handle.addr().to_string();

    let slots = (RATE * ctx.budget.as_secs_f64()) as u64;
    let plan = plan(ctx.seed, slots, &domains);
    let interval_ms = 1e3 * SENDERS as f64 / RATE;
    let t0 = Instant::now();
    let per_sender: Vec<(Vec<Sent>, Tracer)> = std::thread::scope(|sc| {
        let senders: Vec<_> = (0..SENDERS)
            .map(|j| {
                let (plan, addr, origin) = (&plan, &addr, tr.origin());
                sc.spawn(move || {
                    let mut tr = Tracer::new(false, origin);
                    let mut sent = Vec::new();
                    let mut free_at = t0;
                    for slot in (j as u64..slots).step_by(SENDERS) {
                        let due = t0 + Duration::from_secs_f64(slot as f64 / RATE);
                        wait_until(due);
                        let send_at = Instant::now();
                        let req = &plan[slot as usize];
                        let traced = ctx.traced(slot / SENDERS as u64);
                        tr.set_enabled(traced);
                        tr.set_op(slot);
                        let reply = tr.span("op.serve-mixed", |tr| {
                            tr.span(req.route(), |_| req.send(addr))
                        });
                        let end = Instant::now();
                        sent.push(Sent {
                            slot,
                            route: req.route(),
                            traced,
                            due,
                            latency_ms: (end - due).as_secs_f64() * 1e3,
                            gen_late_ms: send_at
                                .saturating_duration_since(due.max(free_at))
                                .as_secs_f64()
                                * 1e3,
                            done: end - t0,
                            epoch: req.check(&reply),
                        });
                        free_at = end;
                    }
                    (sent, tr)
                })
            })
            .collect();
        senders
            .into_iter()
            .map(|h| h.join().expect("sender thread"))
            .collect()
    });
    let elapsed = t0.elapsed();
    out.peak_rss_kb = peak_rss_kb();
    let mut sent = Vec::new();
    for (s, t) in per_sender {
        sent.extend(s);
        tr.absorb(t);
    }
    sent.sort_by_key(|s| s.slot);

    let scrape = client::get(&addr, "/metrics", TIMEOUT)
        .map(|r| r.body)
        .unwrap_or_default();
    let hits = prom_counter(&scrape, "serve_ad_cache_hits").unwrap_or(0.0);
    let misses = prom_counter(&scrape, "serve_ad_cache_misses").unwrap_or(0.0);
    let report = handle.shutdown();

    for s in &sent {
        let problem = s.epoch.as_ref().err().map(|e| format!("{}: {e}", s.route));
        out.op(s.due, s.latency_ms, s.traced, problem);
    }

    // Edit visibility: from a 202 to the first read reply at a newer epoch.
    let mut reads: Vec<(Duration, u64)> = sent
        .iter()
        .filter(|s| s.route != "serve.edits")
        .filter_map(|s| Some((s.done, *s.epoch.as_ref().ok()?)))
        .collect();
    reads.sort();
    let mut visible_ms = Vec::new();
    let mut batches_sent = 0u64;
    for s in sent.iter().filter(|s| s.route == "serve.edits") {
        batches_sent += 1;
        let Ok(epoch) = s.epoch else { continue };
        match reads.iter().find(|(done, e)| *done >= s.done && *e > epoch) {
            Some((done, _)) => visible_ms.push((*done - s.done).as_secs_f64() * 1e3),
            None if s.done + VISIBLE_GRACE < elapsed => out.check(
                false,
                "an accepted edit batch never became visible to reads",
            ),
            None => {}
        }
    }

    let mut late: Vec<f64> = sent.iter().map(|s| s.gen_late_ms).collect();
    late.sort_by(f64::total_cmp);
    let late_p90 = late.get(late.len() * 9 / 10).copied().unwrap_or(0.0);
    out.check(
        late_p90 <= LATE_SHARE * interval_ms,
        &format!("generator p90 lateness {late_p90:.3} ms within {LATE_SHARE} of the {interval_ms} ms interval"),
    );
    out.check(report.refresh_failures == 0, "no refresh failed");

    out.fact("offered_rate_per_s", RATE);
    out.fact("senders", SENDERS as u64);
    out.fact("sender_interval_ms", interval_ms);
    out.fact("gen_late_p50_ms", median(&late));
    out.fact("gen_late_p90_ms", late_p90);
    out.fact("edit_visible_samples", visible_ms.len() as u64);
    out.fact("ad_cache_lookups", hits + misses);
    out.fact("server_requests", report.requests);
    if ctx.trace {
        out.layers.extend([
            metric("serve.topk_p50_ms", route_p50(&sent, "serve.topk"), "ms"),
            metric(
                "serve.topk_domain_p50_ms",
                route_p50(&sent, "serve.topk_domain"),
                "ms",
            ),
            metric("serve.match_p50_ms", route_p50(&sent, "serve.match"), "ms"),
            metric("serve.edits_p50_ms", route_p50(&sent, "serve.edits"), "ms"),
            metric("serve.edit_visible_ms", median(&visible_ms), "ms"),
            metric(
                "serve.ad_cache_hit_ratio",
                hits / (hits + misses).max(1.0),
                "fraction",
            ),
            metric("serve.ad_cache_lookups", hits + misses, "count"),
            metric("serve.shed", report.shed as f64, "count"),
            metric("serve.requests", report.requests as f64, "count"),
            metric("serve.epochs", report.epoch as f64, "count"),
            metric("serve.batches_sent", batches_sent as f64, "count"),
            metric("serve.gen_late_ms", late_p90, "ms"),
        ]);
    }
    out
}
