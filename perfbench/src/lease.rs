//! `lease-http`: the lease API over real HTTP on loopback.
//!
//! One `ServeHost` hosts two tenants (5-node rings, 5 ms tick, 100 ms lease
//! TTL) behind one `ssr-ctl` listener. One client thread per tenant runs a
//! closed loop: `POST /tenants/{t}/acquire`, then `POST .../release` on the
//! returned id. The tenant-1 thread also sends `GET /metrics` once a
//! second. `op_ms` is the median acquire latency (request sent to grant
//! read) and `ops_per_s` the acquire+release pairs per second per tenant,
//! each a median over equal time windows.
//!
//! A traced run alternates untraced and traced ops on each client thread.
//! After its release, every traced op also calls, in process and on the
//! same tenant, `ServePlane::handle` on the same two requests, then
//! `LeaseManager`'s `acquire`/`release`, each after a fresh
//! `HostedRing::primary_holder` read under the ring lock, as the service
//! does; the gap between the HTTP request and the in-process handling is
//! the accept, TCP and parse cost. Frame codec batches run on the main
//! thread for the whole traced run, so untraced and traced ops share that
//! load too.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ssr_core::SsrState;
use ssr_ctl::http::Request;
use ssr_ctl::{ControlPlane, CtlListener, CtlServer, Json};
use ssr_net::metrics::NodeMetrics;
use ssr_serve::{
    first_overlap, Acquire, LeaseCounters, ServeHost, ServePlane, TenantEntry, TenantSpec,
};

use crate::report::Report;
use crate::stats::{percentile, Ratio, Timing};
use crate::trace::{durations_ns, Recorder, Span, ROOT};
use crate::{derive_seed, fill_trace_metrics, median_or_zero, peak_rss_mb, Plan};

/// Tenants hosted, one client thread each.
pub const TENANTS: usize = 2;
/// Ring size of every tenant.
pub const NODES: usize = 5;
/// Retransmit tick of every tenant ring.
pub const TICK: Duration = Duration::from_millis(5);
/// Lease TTL of every tenant.
pub const TTL: Duration = Duration::from_millis(100);
/// Host bring-ups timed for `setup_s`; the last one serves the load.
const SETUP_REPS: usize = 5;
/// Equal time windows the untraced phase is split into for medians.
const WINDOWS: usize = 5;
/// Cadence of the `/metrics` scrape.
const SCRAPE_EVERY: Duration = Duration::from_secs(1);
/// How long a bring-up may wait for a tenant's first grant.
const FIRST_GRANT_WITHIN: Duration = Duration::from_secs(10);
/// How long an op may retry refusals before it counts as failed.
const GRANT_WITHIN: Duration = Duration::from_secs(1);
/// The host audits a privilege trace only once it is this old (its
/// `AUDIT_SETTLE`, plus margin); the checks wait it out after the load.
const AUDIT_LAG: Duration = Duration::from_millis(600);
/// Frame codec calls per traced batch.
const CODEC_BATCH: usize = 1000;

/// The tenant specs for a seed.
pub fn specs(seed: u64) -> Vec<TenantSpec> {
    (1..=TENANTS)
        .map(|t| TenantSpec {
            nodes: NODES,
            seed: derive_seed(seed, 10 + t as u64),
            tick: TICK,
            lease_ttl: TTL,
            ..TenantSpec::named(format!("t{t}"))
        })
        .collect()
}

/// A serving host and its HTTP listener.
struct Served {
    host: Arc<ServeHost>,
    server: CtlServer,
    url: String,
}

impl Served {
    fn stop(mut self) {
        self.server.shutdown();
        self.host.shutdown();
    }
}

/// Spawn the host, create the tenants, start the listener and wait for
/// every tenant's first granted lease (then release it). Returns the time
/// that took and how many of those releases the host accepted.
fn bring_up(seed: u64) -> Result<(Served, Duration, u64), String> {
    let start = Instant::now();
    let host = ServeHost::spawn();
    for spec in specs(seed) {
        host.create(spec)?;
    }
    let listener = CtlListener::bind("127.0.0.1:0".parse().expect("loopback address"))
        .map_err(|e| format!("bind: {e}"))?;
    let url = listener.local_addr().to_string();
    let server = listener.serve(Arc::new(ServePlane::new(Arc::clone(&host))));
    let mut off = Recorder::new(false, start, 0);
    let mut released = 0;
    for tenant in 1..=TENANTS {
        let first =
            acquire_op(&url, &format!("/tenants/{tenant}/acquire"), FIRST_GRANT_WITHIN, &mut off);
        let id = first.id.ok_or_else(|| {
            format!(
                "tenant {tenant}: no lease granted within {FIRST_GRANT_WITHIN:?} ({} requests, last: {})",
                first.requests,
                first.last.as_deref().unwrap_or("none")
            )
        })?;
        let reply = ssr_ctl::post(&url, &format!("/tenants/{tenant}/release"), &id.to_string())
            .map_err(|e| format!("first release on tenant {tenant}: {e}"))?;
        released += u64::from(reply.status == 200);
    }
    Ok((Served { host, server, url }, start.elapsed(), released))
}

/// One acquire op: `POST` the acquire path, retrying on the refusals the
/// API defines as transient (409 held or no holder mid-handover, 503
/// parked) until granted or `within` has passed.
struct Acquired {
    /// The granted lease, `None` if the op failed.
    id: Option<u64>,
    /// Acquire requests sent.
    requests: u64,
    /// Requests answered with a transient refusal.
    refused: u64,
    /// Why the last request was not a grant: its status and body, or the
    /// transport error.
    last: Option<String>,
}

fn acquire_op(url: &str, path: &str, within: Duration, rec: &mut Recorder) -> Acquired {
    let began = Instant::now();
    let mut out = Acquired { id: None, requests: 0, refused: 0, last: None };
    loop {
        out.requests += 1;
        match rec.span("ctl.request", |_| ssr_ctl::post(url, path, "perfbench")) {
            Ok(reply) => match lease_id(reply.status, &reply.body) {
                Some(id) => {
                    out.id = Some(id);
                    return out;
                }
                None => {
                    out.last = Some(format!("HTTP {} {}", reply.status, reply.body.trim()));
                    if !matches!(reply.status, 409 | 503) {
                        return out;
                    }
                    out.refused += 1;
                }
            },
            Err(e) => {
                out.last = Some(format!("transport error: {e}"));
                return out;
            }
        }
        if began.elapsed() > within {
            return out;
        }
    }
}

fn lease_id(status: u16, body: &str) -> Option<u64> {
    (status == 200).then(|| Json::parse(body).ok()?.get("lease")?.as_u64()).flatten()
}

/// One client op as the client saw it.
struct OpSample {
    /// Op start, since the load started.
    at: Duration,
    /// First request sent to grant read, in µs; infinite when the op failed.
    acquire_us: f64,
    /// Acquire requests the op sent, and how many were refused.
    requests: u64,
    refused: u64,
    traced: bool,
}

/// What one client thread observed.
#[derive(Default)]
struct ClientLog {
    ops: Vec<OpSample>,
    /// Grants and releases the tenant's lease manager must have counted:
    /// over HTTP, through `ServePlane::handle`, and direct.
    grants: u64,
    releases: u64,
    release_refused: u64,
    release_errors: u64,
    scrapes: u64,
    scrape_failures: u64,
    /// Whether a failed acquire, release or scrape has been reported.
    failure_reported: bool,
    spans: Vec<Span>,
}

impl ClientLog {
    /// Name the thread's first failure on stderr; the checks count them all.
    fn failure(&mut self, tenant: usize, what: String) {
        if !std::mem::replace(&mut self.failure_reported, true) {
            eprintln!("perfbench: lease-http: tenant {tenant}: first client failure: {what}");
        }
    }
}

/// Everything a client thread needs.
struct Client {
    url: String,
    tenant: usize,
    entry: Arc<TenantEntry>,
    plane: ServePlane,
    scraper: bool,
    /// Whether this is the traced run: every second op is traced.
    trace: bool,
    start: Instant,
    end: Instant,
}

impl Client {
    fn run(&self, thread: u64, epoch: Instant) -> ClientLog {
        let acquire_path = format!("/tenants/{}/acquire", self.tenant);
        let release_path = format!("/tenants/{}/release", self.tenant);
        let mut log = ClientLog::default();
        let mut rec = Recorder::new(false, epoch, thread);
        let mut next_scrape = self.start;
        loop {
            let now = Instant::now();
            if now >= self.end {
                break;
            }
            if self.scraper && now >= next_scrape {
                rec.set_on(self.trace);
                next_scrape += SCRAPE_EVERY;
                let reply = rec.span(ROOT, |rec| {
                    rec.span("ctl.scrape", |_| ssr_ctl::get(&self.url, "/metrics"))
                });
                log.scrapes += 1;
                let failure = match reply {
                    Ok(r) if r.status == 200 && r.body.contains("ssr_cs_violations_total") => None,
                    Ok(r) => Some(format!("scrape: HTTP {} without lease metrics", r.status)),
                    Err(e) => Some(format!("scrape: transport error: {e}")),
                };
                if let Some(failure) = failure {
                    log.scrape_failures += 1;
                    log.failure(self.tenant, failure);
                }
            }
            rec.set_on(self.trace && log.ops.len() % 2 == 1);
            rec.span(ROOT, |rec| {
                let traced = rec.tracing();
                let sent = Instant::now();
                let acquired = acquire_op(&self.url, &acquire_path, GRANT_WITHIN, rec);
                let latency = sent.elapsed();
                let acquire_us =
                    if acquired.id.is_some() { latency.as_secs_f64() * 1e6 } else { f64::INFINITY };
                let (requests, refused) = (acquired.requests, acquired.refused);
                if acquired.id.is_none() {
                    let why = acquired.last.unwrap_or_default();
                    log.failure(self.tenant, format!("acquire not granted: {why}"));
                }
                log.ops.push(OpSample {
                    at: now - self.start,
                    acquire_us,
                    requests,
                    refused,
                    traced,
                });
                if let Some(id) = acquired.id {
                    log.grants += 1;
                    match rec.span("ctl.request", |_| {
                        ssr_ctl::post(&self.url, &release_path, &id.to_string())
                    }) {
                        Ok(r) if r.status == 200 => log.releases += 1,
                        Ok(_) => log.release_refused += 1,
                        Err(e) => {
                            log.release_errors += 1;
                            log.failure(self.tenant, format!("release: transport error: {e}"));
                        }
                    }
                }
                if traced {
                    self.in_process(rec, &mut log, &acquire_path, &release_path);
                }
            });
        }
        log.spans = rec.into_spans();
        log
    }

    /// A traced op's in-process calls on the same tenant.
    fn in_process(&self, rec: &mut Recorder, log: &mut ClientLog, acquire: &str, release: &str) {
        let request = |path: &str, body: String| Request {
            method: "POST".into(),
            path: path.into(),
            body: body.into_bytes(),
        };
        let handled =
            rec.span("serve.handle", |_| self.plane.handle(&request(acquire, "perfbench".into())));
        if let Some(id) = handled.and_then(|(status, _, body)| lease_id(status, &body)) {
            log.grants += 1;
            match rec.span("serve.handle", |_| self.plane.handle(&request(release, id.to_string())))
            {
                Some((200, _, _)) => log.releases += 1,
                _ => log.release_refused += 1,
            }
        }
        let holder = |rec: &mut Recorder| {
            rec.span("serve.ring_lock", |_| self.entry.ring.lock().primary_holder())
        };
        let at = holder(rec);
        if let Acquire::Granted(lease) =
            rec.span("serve.lease_acquire", |_| self.entry.lease.acquire("perfbench", at))
        {
            log.grants += 1;
            let at = holder(rec);
            match rec.span("serve.lease_release", |_| self.entry.lease.release(lease.id, at)) {
                Ok(()) => log.releases += 1,
                Err(_) => log.release_refused += 1,
            }
        }
    }
}

/// Frames sent and rule firings over every node of every tenant.
fn ring_totals(host: &ServeHost) -> (u64, u64) {
    let mut totals = (0, 0);
    for entry in host.list() {
        let ring = entry.ring.lock();
        for i in 0..ring.slot_count() {
            let m = ring.metrics().node(i);
            totals.0 += NodeMetrics::get(&m.sends);
            totals.1 += NodeMetrics::get(&m.rule_firings);
        }
    }
    totals
}

fn lease_totals(host: &ServeHost) -> LeaseCounters {
    let mut sum = LeaseCounters::default();
    for entry in host.list() {
        let c = entry.lease.counters();
        sum.grants += c.grants;
        sum.releases += c.releases;
        sum.revocations += c.revocations;
        sum.conflicts += c.conflicts;
        sum.unavailable += c.unavailable;
        sum.parked += c.parked;
    }
    sum
}

/// Time batches of frame encodes and decodes until `end` (traced run
/// only), on the main thread while the clients run.
fn codec_batches(end: Instant, epoch: Instant) -> Vec<Span> {
    let mut rec = Recorder::new(true, epoch, TENANTS as u64 + 1);
    let state = SsrState::new(3, 1, 0);
    while Instant::now() < end {
        rec.span(ROOT, |rec| {
            let frame = rec.span("net.encode", |_| {
                let mut last = Vec::new();
                for g in 0..CODEC_BATCH as u32 {
                    last = std::hint::black_box(ssr_net::encode_tenant(1, 2, g, &state));
                }
                last
            });
            rec.span("net.decode", |_| {
                for _ in 0..CODEC_BATCH {
                    std::hint::black_box(
                        ssr_net::decode::<SsrState>(std::hint::black_box(&frame)).ok(),
                    );
                }
            });
        });
        std::thread::sleep(Duration::from_millis(100));
    }
    rec.into_spans()
}

/// Median over equal windows of the per-window p50 (µs) of the untraced
/// acquires and of the per-tenant op rate.
fn windowed(ops: &[&OpSample], length: Duration) -> (f64, f64) {
    let width = length.as_secs_f64() / WINDOWS as f64;
    let mut p50 = Vec::new();
    let mut rate = Vec::new();
    for w in 0..WINDOWS {
        let (lo, hi) = (w as f64 * width, (w + 1) as f64 * width);
        let inside: Vec<&&OpSample> =
            ops.iter().filter(|o| (lo..hi).contains(&o.at.as_secs_f64())).collect();
        let mut lat: Vec<f64> = inside.iter().filter(|o| !o.traced).map(|o| o.acquire_us).collect();
        lat.sort_by(f64::total_cmp);
        if let Some(v) = percentile(&lat, 50.0) {
            p50.push(v);
        }
        rate.push(inside.len() as f64 / width / TENANTS as f64);
    }
    (median_or_zero(&p50), median_or_zero(&rate))
}

/// Run `lease-http`.
pub fn run(plan: &Plan) -> Result<Report, String> {
    let mut report = Report {
        params: vec![
            ("tenants", TENANTS.to_string()),
            ("nodes", NODES.to_string()),
            ("tick_ms", TICK.as_millis().to_string()),
            ("ttl_ms", TTL.as_millis().to_string()),
            ("clients", format!("{TENANTS} closed-loop threads, one per tenant")),
            ("scrape", "GET /metrics once per second from the tenant-1 thread".to_string()),
            (
                "tenant_seeds",
                specs(plan.seed).iter().map(|s| s.seed.to_string()).collect::<Vec<_>>().join(","),
            ),
        ],
        ..Report::default()
    };

    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut served = None;
    for rep in 0..SETUP_REPS {
        let (up, took, released) = bring_up(plan.seed)?;
        setup.push(took.as_secs_f64());
        if rep + 1 == SETUP_REPS {
            served = Some((up, released));
        } else {
            up.stop();
        }
    }
    let (served, first_releases) = served.expect("at least one bring-up");

    let epoch = Instant::now();
    let start = epoch;
    let end = start + Duration::from_secs(plan.seconds);
    let clients: Vec<Client> = (1..=TENANTS)
        .map(|tenant| {
            Ok(Client {
                url: served.url.clone(),
                tenant,
                entry: served.host.lookup(&tenant.to_string())?,
                plane: ServePlane::new(Arc::clone(&served.host)),
                scraper: tenant == 1,
                trace: plan.trace,
                start,
                end,
            })
        })
        .collect::<Result<_, String>>()?;
    let (mut logs, codec_spans, traced_window) = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter()
            .enumerate()
            .map(|(i, client)| scope.spawn(move || client.run(i as u64, epoch)))
            .collect();
        let mut traced_window = None;
        let mut codec = Vec::new();
        if plan.trace {
            let before = (ring_totals(&served.host), lease_totals(&served.host), Instant::now());
            codec = codec_batches(end, epoch);
            std::thread::sleep(end.saturating_duration_since(Instant::now()));
            let after = (ring_totals(&served.host), lease_totals(&served.host), Instant::now());
            traced_window = Some((before, after));
        }
        let logs: Vec<ClientLog> =
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
        (logs, codec, traced_window)
    });
    // The load as it ran: clients finish their last op past the deadline.
    let measured = start.elapsed();
    let client_spans: Vec<Span> =
        logs.iter_mut().flat_map(|l| std::mem::take(&mut l.spans)).collect();

    // Let the host audit the whole load before reading its verdicts.
    std::thread::sleep(AUDIT_LAG);
    served.host.audit_tick();
    for entry in served.host.list() {
        let name = &entry.spec.name;
        let audit = entry.audit();
        report.check(
            format!("tenant {name}: TraceCsAudit violations == 0 (got {})", audit.violations),
            audit.violations == 0,
            1,
        );
        let overlap = first_overlap(&entry.lease.history());
        report.check(
            format!("tenant {name}: first_overlap(lease history) is None (got {overlap:?})"),
            overlap.is_none(),
            1,
        );
    }
    let counted = lease_totals(&served.host);
    // Every bring-up's first grant on the serving host is counted too.
    let granted: u64 = logs.iter().map(|l| l.grants).sum::<u64>() + TENANTS as u64;
    let released: u64 = logs.iter().map(|l| l.releases).sum::<u64>() + first_releases;
    report.check(
        format!("lease counters: grants {} == grants seen {granted}", counted.grants),
        counted.grants == granted,
        1,
    );
    report.check(
        format!("lease counters: releases {} == releases seen {released}", counted.releases),
        counted.releases == released,
        1,
    );
    let (scrapes, scrape_failures) =
        logs.iter().fold((0, 0), |(s, f), l| (s + l.scrapes, f + l.scrape_failures));
    report.check(
        format!("{scrapes} /metrics scrapes answered 200 with lease metrics"),
        scrape_failures == 0,
        scrape_failures,
    );
    let release_errors: u64 = logs.iter().map(|l| l.release_errors).sum();
    report.check("no release hit a transport error", release_errors == 0, release_errors);

    let ops: Vec<&OpSample> = logs.iter().flat_map(|l| &l.ops).collect();
    let acquire_failures = ops.iter().filter(|o| o.acquire_us.is_infinite()).count() as u64;
    report.attempted = ops.len() as u64;
    report.failed += acquire_failures;
    report.check(
        format!("every acquire op granted within {GRANT_WITHIN:?} ({acquire_failures} not)"),
        acquire_failures == 0,
        0,
    );
    let fail =
        Ratio { num: acquire_failures, den: ops.len() as u64, base: "acquire ops attempted" };
    report.name("lease_fail_ratio", fail.value(), "ratio", fail.describe());
    let refusals = Ratio {
        num: ops.iter().map(|o| o.refused).sum(),
        den: ops.iter().map(|o| o.requests).sum(),
        base: "acquire requests sent",
    };
    report.name("lease_refused_request_ratio", refusals.value(), "ratio", refusals.describe());

    let untraced: Vec<&OpSample> = ops.iter().copied().filter(|o| !o.traced).collect();
    let (p50_us, ops_per_s) = windowed(&ops, measured);
    let latencies: Vec<f64> = untraced.iter().map(|o| o.acquire_us).collect();
    let timing = Timing::of(&latencies).ok_or("no lease op completed")?;
    let setup_s = median_or_zero(&setup);
    report.e2e.insert("setup_s", setup_s);
    report.e2e.insert("peak_rss_mb", peak_rss_mb());
    report.e2e.insert("op_ms", p50_us / 1e3);
    report.e2e.insert("ops_per_s", ops_per_s);
    report.name(
        "lease_ops_per_s",
        ops_per_s,
        "1/s",
        format!("per tenant; median of {WINDOWS} windows"),
    );
    report.name(
        "lease_acquire_p50_us",
        p50_us,
        "us",
        format!("median of {WINDOWS} window p50s; {} samples", timing.samples),
    );
    let p99 = Timing::at(&latencies, 99.0).unwrap_or(f64::NAN);
    report.name(
        "lease_acquire_p99_us",
        p99,
        "us",
        format!("{} samples (NaN when fewer than 1000)", timing.samples),
    );
    if let Some((p, v)) = timing.tail {
        report.name(
            "lease_acquire_tail_us",
            v,
            "us",
            format!("p{p}, the highest percentile with >= 10 of {} samples beyond", timing.samples),
        );
    }
    let refused: u64 = logs.iter().map(|l| l.release_refused).sum();
    report.name(
        "lease_release_refused",
        refused as f64,
        "count",
        "releases answered 409 (lease revoked or expired first)",
    );
    report.name(
        "setup_s",
        setup_s,
        "s",
        format!("median of {SETUP_REPS} bring-ups: host, 2 tenants, listener, first grant each"),
    );
    report.name("measured_s", measured.as_secs_f64(), "s", "load phase length");

    if let Some((((frames0, rules0), lease0, t0), ((frames1, rules1), lease1, t1))) = traced_window
    {
        report.spans = client_spans.into_iter().chain(codec_spans).collect();
        let spans = &report.spans;
        let us = |name: &str| -> Vec<f64> {
            durations_ns(spans, name).iter().map(|ns| ns / 1e3).collect()
        };
        let pct = |v: &[f64], p: f64| -> f64 {
            let mut v = v.to_vec();
            v.sort_by(f64::total_cmp);
            percentile(&v, p).unwrap_or(0.0)
        };
        let (request, handle, ring_lock) =
            (us("ctl.request"), us("serve.handle"), us("serve.ring_lock"));
        let scrape = us("ctl.scrape");
        let secs = (t1 - t0).as_secs_f64();
        let grants = lease1.grants - lease0.grants;
        let attempts = grants
            + (lease1.conflicts - lease0.conflicts)
            + (lease1.unavailable - lease0.unavailable)
            + (lease1.parked - lease0.parked);
        let grant =
            Ratio { num: grants, den: attempts, base: "acquires reaching the lease managers" };
        let revoked =
            Ratio { num: lease1.revocations - lease0.revocations, den: grants, base: "grants" };
        let per_call = |name: &str| median_or_zero(&durations_ns(spans, name)) / CODEC_BATCH as f64;
        let entries = [
            ("ctl.request_us.p50", pct(&request, 50.0)),
            ("ctl.request_us.p99", pct(&request, 99.0)),
            ("ctl.requests", (request.len() + scrape.len()) as f64),
            ("ctl.scrape_us.p50", pct(&scrape, 50.0)),
            ("serve.handle_us.p50", pct(&handle, 50.0)),
            ("serve.handle_us.p99", pct(&handle, 99.0)),
            ("serve.ring_lock_us.p50", pct(&ring_lock, 50.0)),
            ("serve.ring_lock_us.p99", pct(&ring_lock, 99.0)),
            ("serve.lease_acquire_ns", median_or_zero(&durations_ns(spans, "serve.lease_acquire"))),
            ("serve.lease_release_ns", median_or_zero(&durations_ns(spans, "serve.lease_release"))),
            ("serve.grant_ratio", grant.value()),
            ("serve.revoked_ratio", revoked.value()),
            ("net.frames_per_s", (frames1 - frames0) as f64 / secs),
            ("net.rules_per_s", (rules1 - rules0) as f64 / secs),
            ("net.encode_ns", per_call("net.encode")),
            ("net.decode_ns", per_call("net.decode")),
        ];
        report.layer.extend(entries);
        report.name("serve.grant_ratio", grant.value(), "ratio", grant.describe());
        report.name("serve.revoked_ratio", revoked.value(), "ratio", revoked.describe());
        let traced_lat: Vec<f64> = ops.iter().filter(|o| o.traced).map(|o| o.acquire_us).collect();
        let traced_p50 = pct(&traced_lat, 50.0);
        fill_trace_metrics(&mut report, timing.p50 / 1e3, traced_p50 / 1e3);
    }
    served.stop();
    Ok(report)
}
