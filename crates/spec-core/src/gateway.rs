//! A federation gateway: one endpoint fronting a fleet of `specan serve`
//! backends.
//!
//! A single [`crate::service`] process is bounded by one machine's cores
//! and memory.  The gateway closes that gap for interactive traffic the
//! way `specan merge` closed it for batch scans: `specan gateway` listens
//! on one NDJSON-over-TCP endpoint speaking exactly the [`Request`] /
//! [`Response`] protocol of `specan serve`, and forwards every work
//! request to one of N backends.  Clients — `specan submit` included —
//! cannot tell the difference: responses stay byte-identical (post
//! timing-strip) to a direct single-server run, the house determinism
//! invariant.
//!
//! # Fingerprint-affinity routing
//!
//! Warmth lives in the backends: a backend that has prepared a program
//! holds its warm `PreparedProgram` (and, with `--artifact-dir`, its disk
//! artifact).  Scattering resubmissions across the fleet would re-prepare
//! the same program everywhere, so the gateway routes by **structural
//! fingerprint** ([`spec_ir::fingerprint`]): each request's program (for
//! `scan`, the combined fingerprint of the bundle) is ranked against every
//! backend with rendezvous hashing — score = hash(fingerprint ‖ backend
//! address), backends ordered by score.  The same program therefore lands
//! on the same backend for as long as that backend is healthy, whitespace
//! and rename edits included (the fingerprint is structural, not textual),
//! while distinct programs spread uniformly.  A request whose program does
//! not parse has no fingerprint and is spread round-robin — whichever
//! backend it lands on renders the same parse error.
//!
//! # Health checks, ejection, failover
//!
//! A prober thread sends `status` to every backend each
//! [`GatewayConfig::probe_interval`]; [`GatewayConfig::eject_after`]
//! consecutive failures eject a backend from routing.  Ejected backends
//! keep receiving probes (the half-open state) and are readmitted on the
//! first success.  A work request that fails in transport — connect
//! refused, connection died mid-response, read deadline exceeded — is
//! replayed transparently on the next backend in its rendezvous order,
//! with bounded attempts and linear backoff; only transport failures
//! replay (an error *response* is a deterministic answer and is returned
//! as-is).  Because every backend computes the same deterministic bytes,
//! a replayed response is indistinguishable from a first-try one.
//!
//! # Fleet status
//!
//! `status` at the gateway aggregates the fleet: gateway-level counters
//! (`routed`, `retried`, `rerouted`, `ejected`, `readmitted`) plus one
//! entry per backend with its health state and — for live backends — its
//! own `status` document (session/cache/store counters) embedded verbatim.

use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use spec_ir::fingerprint::{combined_fingerprint, program_fingerprint, Fingerprint};
use spec_ir::text::parse_program;
use spec_telemetry::{escape_label, Counter, Gauge, Histogram, Registry, TraceLog, TraceSender};

use crate::batch::panic_message;
use crate::json::ParseLimits;
use crate::service::{
    log_line, read_line_capped, request_kind, write_response, ClientOptions, Request,
    RequestTelemetry, Response, ServiceClient, PROTOCOL_VERSION,
};

/// Default `host:port` of `specan gateway` (one above the serve default,
/// so a gateway and a backend co-exist on one machine out of the box).
pub const DEFAULT_GATEWAY_ADDR: &str = "127.0.0.1:4871";

/// Gateway tuning — see [`GatewayConfig::builder`].
#[derive(Clone, Debug)]
pub struct GatewayConfig {
    /// The backend fleet, as `host:port` addresses of running `specan
    /// serve` processes.  Order is irrelevant to routing (rendezvous
    /// hashing ranks per fingerprint) but fixed in `status` output.
    pub backends: Vec<String>,
    /// Concurrent forwarding workers (the request-level parallelism of
    /// the gateway itself; each backend still applies its own `--jobs`).
    pub jobs: NonZeroUsize,
    /// Per-request line cap, as in [`crate::service::ServiceConfig`].
    pub max_request_bytes: usize,
    /// Delay between health-probe sweeps over the fleet.
    pub probe_interval: Duration,
    /// Consecutive failures (probes or forwarded requests) after which a
    /// backend is ejected from routing until a probe succeeds again.
    pub eject_after: u32,
    /// Deadline on connecting to a backend (probes and forwards alike).
    pub connect_timeout: Duration,
    /// Read deadline on probe responses — a hung backend must fail its
    /// probe, not wedge the prober.
    pub probe_read_timeout: Duration,
    /// Read deadline on forwarded work requests.  `None` waits forever;
    /// the default is generous (analyses can be slow) but finite, so a
    /// SIGSTOPped backend eventually frees the worker and the request
    /// retries elsewhere.
    pub request_read_timeout: Option<Duration>,
    /// Base of the linear backoff between retry attempts (attempt `n`
    /// sleeps `n * retry_backoff`).
    pub retry_backoff: Duration,
    /// Cap on forwarding attempts per request; `None` tries every backend
    /// once (in rendezvous order) before giving up.
    pub max_attempts: Option<NonZeroUsize>,
    /// Trace-log path (`--trace-log`): one NDJSON event per routed request
    /// (id, kind, backend, attempts, outcome, duration), written by a
    /// dedicated thread exactly as in
    /// [`crate::service::ServiceConfig::trace_log`].
    pub trace_log: Option<PathBuf>,
}

impl GatewayConfig {
    /// A config fronting `backends` with `jobs` workers and the default
    /// knobs (8 MiB requests, 500 ms probes, ejection after 3 failures,
    /// 1 s connect / 2 s probe-read / 120 s request-read deadlines, 25 ms
    /// backoff, attempts bounded by the fleet size).
    pub fn new(backends: Vec<String>, jobs: NonZeroUsize) -> Self {
        Self {
            backends,
            jobs,
            max_request_bytes: 8 << 20,
            probe_interval: Duration::from_millis(500),
            eject_after: 3,
            connect_timeout: Duration::from_secs(1),
            probe_read_timeout: Duration::from_secs(2),
            request_read_timeout: Some(Duration::from_secs(120)),
            retry_backoff: Duration::from_millis(25),
            max_attempts: None,
            trace_log: None,
        }
    }

    /// A validating builder seeded with [`GatewayConfig::new`]'s defaults.
    pub fn builder(backends: Vec<String>, jobs: NonZeroUsize) -> GatewayConfigBuilder {
        GatewayConfigBuilder {
            config: Self::new(backends, jobs),
        }
    }

    /// The per-request attempt bound: `max_attempts` clamped to the fleet
    /// size (retrying the same dead backend twice buys nothing).
    fn effective_attempts(&self) -> usize {
        let fleet = self.backends.len();
        self.max_attempts
            .map_or(fleet, |cap| cap.get().min(fleet))
            .max(1)
    }
}

/// Why a [`GatewayConfigBuilder`] refused to build.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GatewayConfigError {
    /// No backends: there is nothing to route to.
    EmptyFleet,
    /// A zero ejection threshold would eject every backend immediately.
    ZeroEjectAfter,
    /// The request line cap is zero, which would reject every request.
    ZeroRequestCap,
}

impl std::fmt::Display for GatewayConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::EmptyFleet => write!(f, "a gateway needs at least one --backend"),
            Self::ZeroEjectAfter => write!(f, "--eject-after must be at least 1"),
            Self::ZeroRequestCap => write!(f, "max request bytes must be non-zero"),
        }
    }
}

impl std::error::Error for GatewayConfigError {}

/// Builder for [`GatewayConfig`] — see [`GatewayConfig::builder`].
#[derive(Clone, Debug)]
pub struct GatewayConfigBuilder {
    config: GatewayConfig,
}

impl GatewayConfigBuilder {
    /// Per-request line cap in bytes (default 8 MiB).
    pub fn max_request_bytes(mut self, bytes: usize) -> Self {
        self.config.max_request_bytes = bytes;
        self
    }

    /// Delay between health-probe sweeps (default 500 ms).
    pub fn probe_interval(mut self, interval: Duration) -> Self {
        self.config.probe_interval = interval;
        self
    }

    /// Consecutive-failure ejection threshold (default 3).
    pub fn eject_after(mut self, failures: u32) -> Self {
        self.config.eject_after = failures;
        self
    }

    /// Backend connect deadline (default 1 s).
    pub fn connect_timeout(mut self, timeout: Duration) -> Self {
        self.config.connect_timeout = timeout;
        self
    }

    /// Read deadline on forwarded work requests (default 120 s).
    pub fn request_read_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.config.request_read_timeout = timeout;
        self
    }

    /// Base of the linear retry backoff (default 25 ms).
    pub fn retry_backoff(mut self, backoff: Duration) -> Self {
        self.config.retry_backoff = backoff;
        self
    }

    /// Cap on forwarding attempts per request (default: fleet size).
    pub fn max_attempts(mut self, attempts: NonZeroUsize) -> Self {
        self.config.max_attempts = Some(attempts);
        self
    }

    /// NDJSON trace-log path (`--trace-log`).
    pub fn trace_log(mut self, path: impl Into<PathBuf>) -> Self {
        self.config.trace_log = Some(path.into());
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// [`GatewayConfigError`] for an empty fleet, a zero ejection
    /// threshold, or a zero request cap.
    pub fn build(self) -> Result<GatewayConfig, GatewayConfigError> {
        if self.config.backends.is_empty() {
            return Err(GatewayConfigError::EmptyFleet);
        }
        if self.config.eject_after == 0 {
            return Err(GatewayConfigError::ZeroEjectAfter);
        }
        if self.config.max_request_bytes == 0 {
            return Err(GatewayConfigError::ZeroRequestCap);
        }
        Ok(self.config)
    }
}

/// Lifetime counters of one [`gateway`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GatewayReport {
    /// Requests parsed (including `status`/`shutdown`).
    pub requests: u64,
    /// Requests that failed (parse errors, or every attempt exhausted).
    pub errors: u64,
}

/// One backend's routing state.  Health is advisory — routing prefers
/// healthy backends but falls back to ejected ones when nothing else is
/// left, so a fleet that is momentarily all-ejected still serves.
struct Backend {
    addr: String,
    healthy: AtomicBool,
    /// Consecutive failures (probe or forward); reset on any success.
    failures: AtomicU32,
    /// `spec_gateway_backend_healthy{backend}`: 1 routable, 0 ejected.
    health: Gauge,
    /// `spec_gateway_probe_rtt_seconds{backend}`: last successful probe's
    /// round trip; keeps its final value while the backend is down.
    probe_rtt: Gauge,
    /// `spec_gateway_forward_seconds{backend}`: successful forwards only,
    /// so the buckets measure the backend and not the retry machinery.
    forward: Histogram,
}

impl Backend {
    /// Registers the per-backend series up front, so every backend's
    /// labels appear in the exposition before any traffic reaches it.
    fn new(addr: String, registry: &Registry) -> Self {
        let labels = [("backend", addr.as_str())];
        let health = registry.gauge(
            "spec_gateway_backend_healthy",
            "1 while the backend is routable, 0 while ejected.",
            &labels,
        );
        health.set(1.0);
        let probe_rtt = registry.gauge(
            "spec_gateway_probe_rtt_seconds",
            "Round trip of the most recent successful health probe.",
            &labels,
        );
        let forward = registry.histogram(
            "spec_gateway_forward_seconds",
            "Latency of successful request forwards, per backend.",
            &labels,
        );
        Self {
            addr,
            healthy: AtomicBool::new(true),
            failures: AtomicU32::new(0),
            health,
            probe_rtt,
            forward,
        }
    }

    /// Records a successful probe or forward: resets the failure streak
    /// and readmits an ejected backend.
    fn record_success(&self, counters: &Counters) {
        self.failures.store(0, Ordering::SeqCst);
        self.health.set(1.0);
        if !self.healthy.swap(true, Ordering::SeqCst) {
            counters.readmitted.inc();
            log_line(&format!("gateway: readmitted {}", self.addr));
        }
    }

    /// Records a failed probe or forward; ejects at the threshold.
    fn record_failure(&self, eject_after: u32, counters: &Counters) {
        let streak = self
            .failures
            .fetch_add(1, Ordering::SeqCst)
            .saturating_add(1);
        if streak >= eject_after {
            self.health.set(0.0);
            if self.healthy.swap(false, Ordering::SeqCst) {
                counters.ejected.inc();
                log_line(&format!(
                    "gateway: ejected {} after {streak} consecutive failure(s)",
                    self.addr
                ));
            }
        }
    }
}

/// The routing counters, registered so they render in the exposition and
/// still read individually for the `status` document.
struct Counters {
    routed: Counter,
    retried: Counter,
    rerouted: Counter,
    ejected: Counter,
    readmitted: Counter,
}

impl Counters {
    fn registered(registry: &Registry) -> Self {
        Self {
            routed: registry.counter(
                "spec_gateway_routed_total",
                "Work requests entering the routing loop.",
                &[],
            ),
            retried: registry.counter(
                "spec_gateway_retried_total",
                "Forwarding retries after a transport failure.",
                &[],
            ),
            rerouted: registry.counter(
                "spec_gateway_rerouted_total",
                "Responses served away from the affinity primary.",
                &[],
            ),
            ejected: registry.counter(
                "spec_gateway_ejected_total",
                "Backends ejected after consecutive failures.",
                &[],
            ),
            readmitted: registry.counter(
                "spec_gateway_readmitted_total",
                "Ejected backends readmitted by a successful probe or forward.",
                &[],
            ),
        }
    }
}

struct GatewayState {
    config: GatewayConfig,
    backends: Vec<Backend>,
    counters: Counters,
    shutdown: AtomicBool,
    /// Every gateway series lives here: the request ledger, the routing
    /// counters, and the per-backend gauges and histograms.  `metrics`
    /// renders it and then folds in the backends' own expositions.
    registry: Registry,
    requests: RequestTelemetry,
    trace: Option<TraceSender>,
    /// Spreads fingerprint-free requests uniformly.
    round_robin: AtomicUsize,
    limits: ParseLimits,
    addr: SocketAddr,
}

struct GatewayJob {
    id: Option<u64>,
    request: Request,
    out: Arc<Mutex<TcpStream>>,
    enqueued: Instant,
}

/// Per-request trace-log fields filled by [`GatewayState::route`].
#[derive(Default)]
struct RouteTrace {
    backend: Option<String>,
    attempts: usize,
    rerouted: bool,
}

impl RouteTrace {
    fn render(&self, id: Option<u64>, kind: &str, ok: bool, total: Duration) -> String {
        let id = id.map_or_else(|| "null".to_string(), |value| value.to_string());
        let backend = self.backend.as_deref().map_or_else(
            || "null".to_string(),
            |addr| format!("\"{}\"", spec_telemetry::json_escape(addr)),
        );
        format!(
            "{{\"id\": {id}, \"kind\": \"{kind}\", \"ok\": {ok}, \"backend\": {backend}, \
             \"attempts\": {}, \"rerouted\": {}, \"total_secs\": {}}}",
            self.attempts,
            self.rerouted,
            total.as_secs_f64(),
        )
    }
}

/// The structural fingerprint a request routes on: the program's for
/// `analyze`/`compare`, the order-sensitive combination of the bundle's
/// for `scan` (so one bundle warms one backend), `None` when a source does
/// not parse (the parse error is the same everywhere — spread uniformly).
fn routing_fingerprint(request: &Request) -> Option<Fingerprint> {
    match request {
        Request::Analyze { source, .. } | Request::Compare { source, .. } => {
            parse_program(source).ok().map(|p| program_fingerprint(&p))
        }
        Request::Scan { sources, .. } => sources
            .iter()
            .map(|source| parse_program(source).ok().map(|p| program_fingerprint(&p)))
            .collect::<Option<Vec<_>>>()
            .map(|fps| combined_fingerprint("gateway-scan", fps)),
        Request::Status | Request::Metrics | Request::Shutdown => None,
    }
}

/// The rendezvous score of `fingerprint` on the backend at `addr` — the
/// stable FNV core over the fingerprint followed by the address, so every
/// gateway (and every restart) ranks identically.
fn affinity_score(fingerprint: Fingerprint, addr: &str) -> u64 {
    let mut bytes = fingerprint.0.to_le_bytes().to_vec();
    bytes.extend_from_slice(addr.as_bytes());
    Fingerprint::of_bytes(&bytes).0
}

impl GatewayState {
    fn new(config: GatewayConfig, addr: SocketAddr) -> Self {
        let registry = Registry::new();
        let requests = RequestTelemetry::new(
            &registry,
            "spec_gateway_requests_total",
            "spec_gateway_request_seconds",
        );
        let counters = Counters::registered(&registry);
        let backends = config
            .backends
            .iter()
            .map(|addr| Backend::new(addr.clone(), &registry))
            .collect();
        let limits = ParseLimits {
            max_bytes: config.max_request_bytes,
            ..ParseLimits::default()
        };
        Self {
            backends,
            counters,
            shutdown: AtomicBool::new(false),
            registry,
            requests,
            trace: None,
            round_robin: AtomicUsize::new(0),
            limits,
            addr,
            config,
        }
    }

    /// Backend indices in routing order for one request: rendezvous rank
    /// for fingerprinted requests, round-robin rotation otherwise.  The
    /// first element is the request's *affinity primary* — where it lands
    /// while that backend is healthy.
    fn ranked(&self, fingerprint: Option<Fingerprint>) -> Vec<usize> {
        let n = self.backends.len();
        match fingerprint {
            Some(fp) => {
                let mut order: Vec<usize> = (0..n).collect();
                // Ties (duplicate addresses) break on index, keeping the
                // sort total and deterministic.
                order.sort_by_key(|&i| {
                    (
                        std::cmp::Reverse(affinity_score(fp, &self.backends[i].addr)),
                        i,
                    )
                });
                order
            }
            None => {
                let start = self.round_robin.fetch_add(1, Ordering::Relaxed) % n;
                (0..n).map(|i| (start + i) % n).collect()
            }
        }
    }

    /// The attempt order: ranked healthy backends first, then — as a last
    /// resort — ranked ejected ones, so an all-ejected fleet degrades to
    /// "try everything" instead of refusing service.
    fn attempt_order(&self, ranked: &[usize]) -> Vec<usize> {
        let mut order: Vec<usize> = ranked
            .iter()
            .copied()
            .filter(|&i| self.backends[i].healthy.load(Ordering::SeqCst))
            .collect();
        order.extend(
            ranked
                .iter()
                .copied()
                .filter(|&i| !self.backends[i].healthy.load(Ordering::SeqCst)),
        );
        order
    }

    /// One forwarding attempt: fresh connection, one call, timeouts from
    /// the config.  Any `Err` is a transport failure (retriable); an error
    /// *response* comes back as `Ok` and is final.
    fn forward_once(&self, backend: &Backend, request: &Request) -> io::Result<Response> {
        let mut client = ServiceClient::connect_with(
            &backend.addr,
            ClientOptions {
                connect_timeout: Some(self.config.connect_timeout),
                read_timeout: self.config.request_read_timeout,
            },
        )?;
        client.call(request)
    }

    /// Routes one work request: affinity-ranked candidates, bounded
    /// retries with linear backoff, transparent re-route on transport
    /// failure.  Returns the backend's response (its `id` still unmapped)
    /// or the last transport error once every attempt is spent.
    fn route(&self, request: &Request, trace: &mut RouteTrace) -> Result<Response, String> {
        let cmd = request_kind(request);
        let ranked = self.ranked(routing_fingerprint(request));
        let primary = ranked[0];
        let order = self.attempt_order(&ranked);
        let attempts = self.config.effective_attempts().min(order.len()).max(1);
        self.counters.routed.inc();
        let mut last_err = String::new();
        for (attempt, &index) in order.iter().take(attempts).enumerate() {
            if attempt > 0 {
                self.counters.retried.inc();
                std::thread::sleep(self.config.retry_backoff * attempt as u32);
            }
            trace.attempts = attempt + 1;
            let backend = &self.backends[index];
            let forwarded = Instant::now();
            match self.forward_once(backend, request) {
                Ok(response) => {
                    backend.forward.record(forwarded.elapsed());
                    backend.record_success(&self.counters);
                    // Served away from the affinity primary — whether the
                    // primary failed just now or was already ejected.
                    let rerouted = index != primary;
                    if rerouted {
                        self.counters.rerouted.inc();
                    }
                    trace.backend = Some(backend.addr.clone());
                    trace.rerouted = rerouted;
                    log_line(&format!(
                        "gateway: {cmd} -> {}{}",
                        backend.addr,
                        if rerouted { " (rerouted)" } else { "" }
                    ));
                    return Ok(response);
                }
                Err(err) => {
                    backend.record_failure(self.config.eject_after, &self.counters);
                    log_line(&format!(
                        "gateway: {cmd} -> {} failed (attempt {}): {err}",
                        backend.addr,
                        attempt + 1
                    ));
                    last_err = err.to_string();
                }
            }
        }
        Err(format!(
            "no backend answered `{cmd}` after {attempts} attempt(s): {last_err}"
        ))
    }

    /// The aggregated fleet `status` document.
    fn fleet_status(&self) -> String {
        let mut fleet = String::from("[");
        let mut healthy = 0usize;
        for (i, backend) in self.backends.iter().enumerate() {
            if i > 0 {
                fleet.push_str(", ");
            }
            let live = backend.healthy.load(Ordering::SeqCst);
            healthy += usize::from(live);
            // A passive probe: the backend's own status document embeds
            // verbatim (it is one JSON object) — `null` when unreachable.
            // Deliberately no record_success/failure here: `status` must
            // observe routing state, not steer it.
            let status = ServiceClient::connect_with(
                &backend.addr,
                ClientOptions {
                    connect_timeout: Some(self.config.connect_timeout),
                    read_timeout: Some(self.config.probe_read_timeout),
                },
            )
            .and_then(|mut client| client.call(&Request::Status))
            .ok()
            .filter(|response| response.ok)
            .map(|response| response.output);
            fleet.push_str(&format!(
                "{{\"addr\": {}, \"healthy\": {live}, \"consecutive_failures\": {}, \
                 \"status\": {}}}",
                crate::json::string(&backend.addr),
                backend.failures.load(Ordering::SeqCst),
                status.as_deref().unwrap_or("null")
            ));
        }
        fleet.push(']');
        // One registry snapshot, so `requests`/`errors` and the routing
        // counters cohere the same way a `metrics` scrape does.
        let snapshot = self.registry.snapshot();
        format!(
            "{{\"protocol\": {PROTOCOL_VERSION}, \"role\": \"gateway\", \"jobs\": {}, \
             \"backends\": {}, \"healthy\": {healthy}, \"requests\": {}, \"errors\": {}, \
             \"gateway\": {{\"routed\": {}, \"retried\": {}, \"rerouted\": {}, \
             \"ejected\": {}, \"readmitted\": {}}}, \"fleet\": {fleet}}}",
            self.config.jobs,
            self.backends.len(),
            snapshot.counter_sum("spec_gateway_requests_total"),
            snapshot.counter_sum_where("spec_gateway_requests_total", |labels| {
                labels.iter().any(|(k, v)| k == "outcome" && v == "error")
            }),
            self.counters.routed.get(),
            self.counters.retried.get(),
            self.counters.rerouted.get(),
            self.counters.ejected.get(),
            self.counters.readmitted.get(),
        )
    }

    /// The gateway `metrics` exposition: the gateway's own registry, then
    /// every reachable backend's exposition with a `backend="addr"` label
    /// spliced into each series so one scrape covers the whole fleet.
    /// `# HELP`/`# TYPE` lines dedupe per family across backends.
    fn metrics_output(&self) -> String {
        let mut out = self.registry.render();
        let mut seen_families = std::collections::BTreeSet::new();
        for backend in &self.backends {
            let scraped = ServiceClient::connect_with(
                &backend.addr,
                ClientOptions {
                    connect_timeout: Some(self.config.connect_timeout),
                    read_timeout: Some(self.config.probe_read_timeout),
                },
            )
            .and_then(|mut client| client.call(&Request::Metrics))
            .ok()
            .filter(|response| response.ok)
            .map(|response| response.output);
            let Some(scraped) = scraped else {
                continue; // unreachable backends contribute nothing
            };
            let label = format!("backend=\"{}\"", escape_label(&backend.addr));
            for line in scraped.lines() {
                if line.is_empty() {
                    continue;
                }
                if let Some(comment) = line.strip_prefix("# ") {
                    // "# HELP <name> ..." / "# TYPE <name> <kind>".
                    let family = comment.split_whitespace().nth(1).unwrap_or("");
                    if seen_families.insert((line.starts_with("# HELP"), family.to_string())) {
                        out.push_str(line);
                        out.push('\n');
                    }
                    continue;
                }
                // A series line: `name{labels} value` or `name value`.
                let spliced = match line.find('{') {
                    Some(brace) => {
                        format!("{}{{{label},{}", &line[..brace], &line[brace + 1..])
                    }
                    None => match line.find(' ') {
                        Some(space) => format!("{}{{{label}}}{}", &line[..space], &line[space..]),
                        None => line.to_string(),
                    },
                };
                out.push_str(&spliced);
                out.push('\n');
            }
        }
        out
    }

    /// One probe sweep: `status` to every backend, feeding the ejection /
    /// readmission state machine.  Ejected backends stay probed — this is
    /// the half-open path that readmits them.
    fn probe_sweep(&self) {
        for backend in &self.backends {
            let started = Instant::now();
            let alive = ServiceClient::connect_with(
                &backend.addr,
                ClientOptions {
                    connect_timeout: Some(self.config.connect_timeout),
                    read_timeout: Some(self.config.probe_read_timeout),
                },
            )
            .and_then(|mut client| client.call(&Request::Status))
            .map(|response| response.ok)
            .unwrap_or(false);
            if alive {
                // Only successful probes move the RTT gauge: a dead
                // backend keeps its last observed round trip.
                backend.probe_rtt.set(started.elapsed().as_secs_f64());
                backend.record_success(&self.counters);
            } else {
                backend.record_failure(self.config.eject_after, &self.counters);
            }
        }
    }
}

/// Runs the federation gateway on `listener` until a `shutdown` request
/// arrives, then drains the workers and returns the lifetime counters.
/// `shutdown` stops the *gateway* only — the backends are separate
/// processes with their own lifecycles.
///
/// # Errors
///
/// Propagates listener-level I/O errors; per-connection and per-backend
/// failures are handled by the retry and ejection machinery.
pub fn gateway(listener: TcpListener, config: &GatewayConfig) -> io::Result<GatewayReport> {
    let addr = listener.local_addr()?;
    // Declared before `state` so it drops after `state`'s sender clone,
    // letting the writer thread observe disconnect and drain the queue.
    let trace_log = config
        .trace_log
        .as_deref()
        .map(TraceLog::create)
        .transpose()?;
    let mut state = GatewayState::new(config.clone(), addr);
    state.trace = trace_log.as_ref().map(TraceLog::sender);
    let (tx, rx) = mpsc::channel::<GatewayJob>();
    let rx = Mutex::new(rx);
    std::thread::scope(|scope| {
        let rx = &rx;
        let state = &state;
        scope.spawn(move || probe_loop(state));
        for _ in 0..state.config.jobs.get() {
            scope.spawn(move || worker_loop(rx, state));
        }
        loop {
            if state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(err) => {
                    // Same transient-error stance as `serve`: outlive
                    // ECONNABORTED/EMFILE storms, re-check shutdown.
                    if err.kind() != io::ErrorKind::Interrupted {
                        log_line(&format!("gateway: accept error (retrying): {err}"));
                        std::thread::sleep(Duration::from_millis(100));
                    }
                    continue;
                }
            };
            if state.shutdown.load(Ordering::SeqCst) {
                break; // the wake-up connection of the shutdown path
            }
            let tx = tx.clone();
            scope.spawn(move || connection_loop(stream, tx, state));
        }
        drop(tx);
    });
    let snapshot = state.registry.snapshot();
    Ok(GatewayReport {
        requests: snapshot.counter_sum("spec_gateway_requests_total"),
        errors: snapshot.counter_sum_where("spec_gateway_requests_total", |labels| {
            labels.iter().any(|(k, v)| k == "outcome" && v == "error")
        }),
    })
}

fn probe_loop(state: &GatewayState) {
    loop {
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        state.probe_sweep();
        // Sleep in slices so a shutdown releases the prober within a beat
        // even under a long probe interval.
        let mut remaining = state.config.probe_interval;
        while !remaining.is_zero() {
            if state.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let slice = remaining.min(Duration::from_millis(50));
            std::thread::sleep(slice);
            remaining -= slice;
        }
    }
}

fn worker_loop(rx: &Mutex<mpsc::Receiver<GatewayJob>>, state: &GatewayState) {
    loop {
        let job = {
            let rx = crate::cache_session::relock(rx);
            match rx.recv() {
                Ok(job) => job,
                Err(_) => return, // every sender is gone: drained
            }
        };
        let kind = request_kind(&job.request);
        let mut trace = RouteTrace::default();
        // The same containment stance as `serve`'s workers: a panic in the
        // routing path costs one error response, never the gateway.
        let routed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            state.route(&job.request, &mut trace)
        }))
        .unwrap_or_else(|payload| {
            Err(format!(
                "internal: request panicked: {}",
                panic_message(payload.as_ref())
            ))
        });
        let response = match routed {
            Ok(mut response) => {
                // The backend answered under its own (per-connection)
                // request id; the client gets its own id back.
                response.id = job.id;
                response
            }
            Err(message) => Response::failure(job.id, message),
        };
        // Counted before the bytes leave, so a scrape racing the response
        // still sees the request.
        let elapsed = job.enqueued.elapsed();
        state.requests.complete(kind, response.ok, Some(elapsed));
        write_response(&job.out, &response);
        if let Some(sender) = &state.trace {
            sender.emit(trace.render(job.id, kind, response.ok, elapsed));
        }
    }
}

fn connection_loop(stream: TcpStream, tx: mpsc::Sender<GatewayJob>, state: &GatewayState) {
    // The timeout is a shutdown poll, exactly as in `serve`.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let out = Arc::new(Mutex::new(stream));
    let mut reader = BufReader::new(read_half);
    loop {
        let line = match read_line_capped(&mut reader, state.limits.max_bytes, &state.shutdown) {
            Ok(Some(line)) => line,
            Ok(None) => return, // EOF or shutdown
            Err(err) => {
                state.requests.complete("invalid", false, None);
                write_response(&out, &Response::failure(None, err.to_string()));
                return;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        match Request::from_json(&line, &state.limits) {
            Ok((id, Request::Status)) => {
                // Counted before rendering, so the document includes the
                // request that asked for it.
                state.requests.complete("status", true, None);
                write_response(&out, &Response::success(id, 0, state.fleet_status()));
            }
            Ok((id, Request::Metrics)) => {
                state.requests.complete("metrics", true, None);
                write_response(&out, &Response::success(id, 0, state.metrics_output()));
            }
            Ok((id, Request::Shutdown)) => {
                state.requests.complete("shutdown", true, None);
                log_line("gateway: shutdown requested");
                write_response(&out, &Response::success(id, 0, "shutting down".to_string()));
                state.shutdown.store(true, Ordering::SeqCst);
                let _ = TcpStream::connect(state.addr);
                return;
            }
            Ok((id, request)) => {
                let job = GatewayJob {
                    id,
                    request,
                    out: Arc::clone(&out),
                    enqueued: Instant::now(),
                };
                if tx.send(job).is_err() {
                    return; // the pool is gone: shutting down
                }
            }
            Err(message) => {
                state.requests.complete("invalid", false, None);
                write_response(&out, &Response::failure(None, message));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{PanelKind, PanelSpec};
    use crate::service::{serve, ServiceConfig};

    const TINY: &str = "program tiny\nregion t 128\nsecret_region k 128\nblock main entry:\n  load t[0]\n  load k[secret*64]\n  ret\n";
    const OTHER: &str = "program other\nregion t 128\nblock main entry:\n  load t[0]\n  ret\n";

    fn test_state(backends: Vec<String>) -> GatewayState {
        let config = GatewayConfig::builder(backends, NonZeroUsize::MIN)
            .eject_after(1)
            .retry_backoff(Duration::from_millis(1))
            .build()
            .unwrap();
        GatewayState::new(config, "127.0.0.1:0".parse().unwrap())
    }

    #[test]
    fn config_builder_validates() {
        let jobs = NonZeroUsize::new(2).unwrap();
        let config = GatewayConfig::builder(vec!["a:1".into(), "b:2".into()], jobs)
            .probe_interval(Duration::from_millis(100))
            .eject_after(2)
            .max_attempts(NonZeroUsize::new(5).unwrap())
            .build()
            .unwrap();
        assert_eq!(config.eject_after, 2);
        // Attempts clamp to the fleet size.
        assert_eq!(config.effective_attempts(), 2);

        assert_eq!(
            GatewayConfig::builder(vec![], jobs).build().unwrap_err(),
            GatewayConfigError::EmptyFleet
        );
        assert_eq!(
            GatewayConfig::builder(vec!["a:1".into()], jobs)
                .eject_after(0)
                .build()
                .unwrap_err(),
            GatewayConfigError::ZeroEjectAfter
        );
        assert_eq!(
            GatewayConfig::builder(vec!["a:1".into()], jobs)
                .max_request_bytes(0)
                .build()
                .unwrap_err(),
            GatewayConfigError::ZeroRequestCap
        );
    }

    #[test]
    fn rendezvous_ranking_is_stable_affine_and_spread() {
        let state = test_state(vec!["h:1".into(), "h:2".into(), "h:3".into()]);
        let request = Request::Analyze {
            source: TINY.to_string(),
            config: Default::default(),
        };
        let fp = routing_fingerprint(&request).expect("TINY parses");
        // Stable: the same fingerprint ranks identically every time.
        assert_eq!(state.ranked(Some(fp)), state.ranked(Some(fp)));
        // Structural: a rename-free reformat routes identically, and the
        // scan combination differs from the single-program fingerprint.
        let spaced = Request::Analyze {
            source: TINY.replace("  load", "  \t load"),
            config: Default::default(),
        };
        assert_eq!(routing_fingerprint(&spaced), Some(fp));
        let scan = Request::Scan {
            sources: vec![TINY.to_string()],
            panel: PanelSpec {
                kind: PanelKind::LeakCheck,
                cache_lines: 8,
            },
            json: true,
        };
        assert_ne!(routing_fingerprint(&scan), Some(fp));
        // Spread: over many distinct fingerprints every backend is some
        // program's primary (rendezvous, not a constant choice).
        let mut primaries = std::collections::BTreeSet::new();
        for seed in 0..64u64 {
            primaries.insert(state.ranked(Some(Fingerprint(seed.wrapping_mul(0x9e37))))[0]);
        }
        assert_eq!(primaries.len(), 3, "all backends serve as a primary");
        // Fingerprint-free requests rotate.
        let first = state.ranked(None)[0];
        let second = state.ranked(None)[0];
        assert_ne!(first, second, "round-robin rotates");
        // Unparseable sources have no fingerprint.
        let bad = Request::Analyze {
            source: "not a program".to_string(),
            config: Default::default(),
        };
        assert_eq!(routing_fingerprint(&bad), None);
    }

    #[test]
    fn ejection_prefers_healthy_and_readmits() {
        let state = test_state(vec!["h:1".into(), "h:2".into()]);
        let fp = Fingerprint(42);
        let ranked = state.ranked(Some(fp));
        let primary = ranked[0];
        // Eject the primary: the attempt order now leads with the other
        // backend, the primary trailing as the last resort.
        state.backends[primary].record_failure(1, &state.counters);
        assert!(!state.backends[primary].healthy.load(Ordering::SeqCst));
        assert_eq!(state.counters.ejected.get(), 1);
        assert_eq!(state.backends[primary].health.get(), 0.0);
        let order = state.attempt_order(&ranked);
        assert_eq!(order.last(), Some(&primary));
        assert_eq!(order.len(), 2);
        // A successful probe readmits (the half-open path).
        state.backends[primary].record_success(&state.counters);
        assert!(state.backends[primary].healthy.load(Ordering::SeqCst));
        assert_eq!(state.counters.readmitted.get(), 1);
        assert_eq!(state.backends[primary].health.get(), 1.0);
        assert_eq!(state.attempt_order(&ranked), ranked);
    }

    /// Starts an in-thread backend `serve` on an ephemeral port.
    fn spawn_backend() -> (
        String,
        std::thread::JoinHandle<io::Result<crate::service::ServiceReport>>,
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let config = ServiceConfig::new(NonZeroUsize::MIN);
        (addr, std::thread::spawn(move || serve(listener, &config)))
    }

    #[test]
    fn gateway_loopback_routes_fails_over_and_aggregates() {
        let (addr_a, backend_a) = spawn_backend();
        let (addr_b, backend_b) = spawn_backend();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let gw_addr = listener.local_addr().unwrap().to_string();
        let config = GatewayConfig::builder(
            vec![addr_a.clone(), addr_b.clone()],
            NonZeroUsize::new(2).unwrap(),
        )
        // A long interval keeps the prober from racing the assertions
        // below; ejection still happens inline on the failed forward.
        .probe_interval(Duration::from_secs(60))
        .eject_after(1)
        .retry_backoff(Duration::from_millis(1))
        .build()
        .unwrap();
        let gw = std::thread::spawn(move || gateway(listener, &config));

        // Scan output is timing-free: byte-identity needs no strip.
        let scan = |source: &str| Request::Scan {
            sources: vec![source.to_string()],
            panel: PanelSpec {
                kind: PanelKind::LeakCheck,
                cache_lines: 8,
            },
            json: true,
        };
        let mut client = ServiceClient::connect(&gw_addr).unwrap();
        let first = client.call(&scan(TINY)).unwrap();
        assert!(first.ok, "{:?}", first.error);
        assert_eq!(first.exit, 1, "tiny leaks at 8 lines");
        // Affinity: the repeat lands on the same backend — exactly one
        // backend of the fleet holds the warm program.
        let repeat = client.call(&scan(TINY)).unwrap();
        assert_eq!(repeat.output, first.output);
        let programs_on = |addr: &str| {
            let mut direct = ServiceClient::connect(addr).unwrap();
            let status = direct.call(&Request::Status).unwrap();
            assert!(status.ok);
            status.output.contains("\"programs\": 1")
        };
        let on_a = programs_on(&addr_a);
        let on_b = programs_on(&addr_b);
        assert!(
            on_a != on_b,
            "affinity must pin the program to exactly one backend (a: {on_a}, b: {on_b})"
        );
        let (warm_addr, cold_addr) = if on_a {
            (addr_a.clone(), addr_b.clone())
        } else {
            (addr_b.clone(), addr_a.clone())
        };

        // A second program keeps both backends busy enough to prove the
        // fleet aggregation sees them both.
        let other = client.call(&scan(OTHER)).unwrap();
        assert!(other.ok, "{:?}", other.error);

        // Kill the backend holding `tiny`; the resubmission must be
        // transparently rerouted and stay byte-identical.
        let mut warm = ServiceClient::connect(&warm_addr).unwrap();
        assert!(warm.call(&Request::Shutdown).unwrap().ok);
        let (dead_join, live_join) = if on_a {
            (backend_a, backend_b)
        } else {
            (backend_b, backend_a)
        };
        dead_join.join().unwrap().unwrap();
        let failover = client.call(&scan(TINY)).unwrap();
        assert!(failover.ok, "{:?}", failover.error);
        assert_eq!(
            failover.output, first.output,
            "a rerouted response must be byte-identical"
        );

        // The fleet status shows the reroute, the ejection, and the
        // surviving backend's own counters.
        let status = client.call(&Request::Status).unwrap();
        assert!(status.ok);
        let doc = status.output;
        assert!(doc.contains("\"role\": \"gateway\""), "{doc}");
        assert!(doc.contains("\"backends\": 2"), "{doc}");
        assert!(doc.contains("\"healthy\": 1"), "{doc}");
        assert!(doc.contains("\"rerouted\": 1"), "{doc}");
        assert!(doc.contains("\"ejected\": 1"), "{doc}");
        assert!(
            doc.contains("\"status\": null"),
            "the dead backend reads null: {doc}"
        );
        assert!(
            doc.contains("\"inserted\""),
            "the live backend's session counters embed: {doc}"
        );
        assert!(doc.contains(&cold_addr), "{doc}");

        // The gateway `metrics` exposition carries its own series plus the
        // live backend's, relabeled; the dead backend reads as gauge 0.
        let metrics = client.call(&Request::Metrics).unwrap();
        assert!(metrics.ok);
        let exposition = metrics.output;
        assert!(
            exposition.contains("# TYPE spec_gateway_requests_total counter"),
            "{exposition}"
        );
        assert!(
            exposition.contains(&format!(
                "spec_gateway_backend_healthy{{backend=\"{cold_addr}\"}} 1.0"
            )),
            "{exposition}"
        );
        assert!(
            exposition.contains(&format!(
                "spec_gateway_backend_healthy{{backend=\"{warm_addr}\"}} 0.0"
            )),
            "{exposition}"
        );
        assert!(
            exposition.contains(&format!(
                "spec_requests_total{{backend=\"{cold_addr}\",kind=\"scan\",outcome=\"ok\"}}"
            )),
            "the live backend's own series fold in under its label: {exposition}"
        );

        // Requests with no fingerprint still answer (round-robin spread,
        // and the backend renders the parse error deterministically).
        let bad = client
            .call(&Request::Analyze {
                source: "not a program".to_string(),
                config: Default::default(),
            })
            .unwrap();
        assert!(!bad.ok);
        assert_eq!(bad.exit, 2);

        let bye = client.call(&Request::Shutdown).unwrap();
        assert!(bye.ok);
        let report = gw.join().unwrap().unwrap();
        assert!(report.requests >= 6);

        let mut live = ServiceClient::connect(&cold_addr).unwrap();
        assert!(live.call(&Request::Shutdown).unwrap().ok);
        live_join.join().unwrap().unwrap();
    }
}
