//! The router's HTTP front: a bounded worker pool (same shape as
//! `galign_serve::server`) whose workers each own one retrying client
//! per replica, scattering every top-k query across the shard fleet.
//!
//! ## Endpoints
//!
//! | method | path                 | purpose                                 |
//! |--------|----------------------|-----------------------------------------|
//! | POST   | `/v1/align/topk`     | routed top-k (body forwarded to shards) |
//! | POST   | `/v2/align/topk`     | routed batch top-k, merged slot by slot |
//! | GET    | `/healthz`           | router + per-shard replica health       |
//! | GET    | `/metrics`           | telemetry snapshot (JSON / Prometheus)  |
//! | GET    | `/v1/debug/requests` | flight recorder (requests + hops)       |
//! | POST   | `/v1/admin/shutdown` | graceful shutdown                       |
//!
//! One trace id spans the routed request and all of its shard hops: the
//! router honors/assigns `x-galign-trace-id` exactly like a shard node,
//! propagates it to every hop through the clients, and records each hop
//! as a [`RecordKind::Hop`] entry in the flight recorder next to the
//! routed request itself.
//!
//! Health: `/healthz` reports `degraded` while any shard has zero
//! healthy replicas — the state in which answers carry
//! `"partial": true` — and lists every replica's circuit-breaker state.
//! Keep-alive follows the shard servers' contract (opt-in,
//! fairness-gated idle linger).
//!
//! Tail tolerance: every routed hop runs under the [`RouterConfig`]'s
//! hedge policy (slow hops race the next replica), replica eligibility
//! is breaker-gated, a background loop re-probes tripped replicas every
//! [`RouterConfig::reprobe_interval`], and each hop carries the routed
//! request's remaining deadline budget so shards shed doomed work.

use crate::breaker::BreakerConfig;
use crate::scatter::{
    parse_routed_batch, parse_routed_query, scatter_gather, scatter_gather_batch, HedgePolicy,
    RoutedReply,
};
use crate::topology::Topology;
use galign_serve::api::error_body;
use galign_serve::client::{Client, ClientConfig};
use galign_serve::http::{self, ReadOutcome, Request};
use galign_telemetry::context::{self, TraceContext, TraceId};
use galign_telemetry::flight::{self, FlightRecorder, RecordKind, TraceRecord};
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Trace-id header, shared with the shard tier.
pub use galign_serve::server::TRACE_HEADER;

/// Router tunables.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Worker threads handling routed requests (each owns its own client
    /// set, so workers never contend on sockets).
    pub workers: usize,
    /// Per-request socket read/write timeout on the router's own front.
    pub request_timeout: Duration,
    /// Bound on connections waiting for a free worker; excess is shed
    /// with `503` + `Retry-After`.
    pub queue_depth: usize,
    /// `Retry-After` seconds attached to shed 503s.
    pub retry_after_secs: u64,
    /// `k` used when a query omits it — must match the shard fleet's.
    pub default_k: usize,
    /// Largest accepted `k` — must match the shard fleet's.
    pub max_k: usize,
    /// Idle linger for keep-alive connections (fairness-gated, as on the
    /// shard servers).
    pub keep_alive_idle: Duration,
    /// Retry/backoff policy of the per-replica clients. Failover across
    /// replicas multiplies with this client's own retries; keep
    /// `max_retries` small for fast failover.
    pub client: ClientConfig,
    /// Static hedge delay: how long a shard hop may be in flight before
    /// it is raced against the next replica. `None` disables hedging.
    pub hedge_after: Option<Duration>,
    /// Derive the hedge delay from the observed `router.hop.ms` p99 once
    /// the histogram has warmed up, using `hedge_after` as the cold
    /// fallback.
    pub hedge_adaptive: bool,
    /// Fraction of hop traffic that may be hedges (token-bucket earn
    /// rate; `<= 0` removes the meter).
    pub hedge_budget_ratio: f64,
    /// Hedge token-bucket burst ceiling (and initial balance).
    pub hedge_budget_cap: f64,
    /// Per-replica circuit-breaker tunables.
    pub breaker: BreakerConfig,
    /// How often the background loop re-probes tripped replicas; `None`
    /// leaves healing to live traffic alone.
    pub reprobe_interval: Option<Duration>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            workers: 4,
            request_timeout: Duration::from_secs(10),
            queue_depth: 64,
            retry_after_secs: 1,
            default_k: 10,
            max_k: 1000,
            keep_alive_idle: Duration::from_millis(250),
            client: ClientConfig {
                max_retries: 1,
                ..ClientConfig::default()
            },
            hedge_after: Some(Duration::from_millis(50)),
            hedge_adaptive: true,
            hedge_budget_ratio: 0.1,
            hedge_budget_cap: 10.0,
            breaker: BreakerConfig::default(),
            reprobe_interval: Some(Duration::from_millis(500)),
        }
    }
}

struct Inner {
    topology: Topology,
    cfg: RouterConfig,
    policy: HedgePolicy,
    addr: SocketAddr,
    shutting_down: AtomicBool,
    pending: AtomicU64,
    in_flight: AtomicU64,
    shed_total: AtomicU64,
    flight: &'static FlightRecorder,
}

struct CounterGuard<'a>(&'a AtomicU64);

impl Drop for CounterGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A bound (not yet running) router.
pub struct Router {
    inner: Arc<Inner>,
    listener: TcpListener,
}

/// Handle to a router running on a background thread.
pub struct RouterHandle {
    inner: Arc<Inner>,
    addr: SocketAddr,
    join: JoinHandle<io::Result<()>>,
}

impl Router {
    /// Binds `addr` in front of a validated topology. Resolves every
    /// replica address once up front so worker threads cannot fail later.
    ///
    /// # Errors
    /// Bind failures or unresolvable replica addresses.
    pub fn bind(addr: &str, topology: Topology, cfg: RouterConfig) -> io::Result<Router> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        galign_telemetry::set_metrics_enabled(true);
        for shard in &topology.shards {
            for replica in &shard.replicas {
                Client::with_config(&replica.addr, cfg.client.clone())?;
            }
        }
        galign_telemetry::info!(
            "router",
            "routing on {local}: {} shards over {} targets ({} replicas total, {} workers)",
            topology.shards.len(),
            topology.parent_targets,
            topology
                .shards
                .iter()
                .map(|s| s.replicas.len())
                .sum::<usize>(),
            cfg.workers.max(1),
        );
        // The topology's breakers were created at discovery with default
        // tunables; impose this router's configuration on them.
        topology.configure_breakers(cfg.breaker);
        let policy = HedgePolicy::new(
            cfg.hedge_after,
            cfg.hedge_adaptive,
            cfg.hedge_budget_ratio,
            cfg.hedge_budget_cap,
            cfg.client.clone(),
        );
        Ok(Router {
            inner: Arc::new(Inner {
                topology,
                cfg,
                policy,
                addr: local,
                shutting_down: AtomicBool::new(false),
                pending: AtomicU64::new(0),
                in_flight: AtomicU64::new(0),
                shed_total: AtomicU64::new(0),
                flight: flight::global(),
            }),
            listener,
        })
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Runs the accept loop until graceful shutdown; workers joined on
    /// return.
    ///
    /// # Errors
    /// Fatal listener failures.
    pub fn run(self) -> io::Result<()> {
        let workers = self.inner.cfg.workers.max(1);
        let queue_depth = self.inner.cfg.queue_depth.max(1);
        let (tx, rx) = mpsc::sync_channel::<TcpStream>(queue_depth);
        let rx = Arc::new(Mutex::new(rx));
        let mut pool = Vec::with_capacity(workers + 1);
        for seed in 0..workers {
            let rx = Arc::clone(&rx);
            let inner = Arc::clone(&self.inner);
            pool.push(std::thread::spawn(move || {
                // Per-worker clients, [shard][replica]. `Client` is
                // deliberately single-threaded (pooled socket + jitter
                // cells); the mutex hands each attempt exclusive use while
                // letting detached hedge threads share ownership. Jitter
                // seeds vary per worker so backoffs do not march in step.
                let clients: Vec<Vec<Arc<Mutex<Client>>>> = inner
                    .topology
                    .shards
                    .iter()
                    .map(|s| {
                        s.replicas
                            .iter()
                            .map(|r| {
                                let cfg = ClientConfig {
                                    jitter_seed: inner.cfg.client.jitter_seed + seed as u64,
                                    ..inner.cfg.client.clone()
                                };
                                Arc::new(Mutex::new(
                                    Client::with_config(&r.addr, cfg)
                                        .expect("replica address resolved at bind"),
                                ))
                            })
                            .collect()
                    })
                    .collect();
                loop {
                    let stream = rx.lock().expect("worker queue lock").recv();
                    match stream {
                        Ok(stream) => {
                            inner.pending.fetch_sub(1, Ordering::Relaxed);
                            handle_connection(&inner, &clients, stream);
                        }
                        Err(_) => break,
                    }
                }
            }));
        }
        if let Some(interval) = self.inner.cfg.reprobe_interval {
            let inner = Arc::clone(&self.inner);
            pool.push(std::thread::spawn(move || {
                // Background re-probe loop: heals tripped replicas even
                // when no live traffic would retry them. Probes are
                // single-shot (no client retries) — the breaker's own
                // cadence is the retry policy.
                let probe_cfg = ClientConfig {
                    max_retries: 0,
                    ..inner.cfg.client.clone()
                };
                let tick = Duration::from_millis(50).min(interval.max(Duration::from_millis(1)));
                let mut since_probe = Duration::ZERO;
                while !inner.shutting_down.load(Ordering::SeqCst) {
                    std::thread::sleep(tick);
                    since_probe += tick;
                    if since_probe >= interval {
                        since_probe = Duration::ZERO;
                        inner.topology.reprobe(&probe_cfg);
                    }
                }
            }));
        }
        for stream in self.listener.incoming() {
            if self.inner.shutting_down.load(Ordering::SeqCst) {
                break;
            }
            match stream {
                Ok(stream) => {
                    self.inner.pending.fetch_add(1, Ordering::Relaxed);
                    match tx.try_send(stream) {
                        Ok(()) => {}
                        Err(mpsc::TrySendError::Full(stream)) => {
                            self.inner.pending.fetch_sub(1, Ordering::Relaxed);
                            shed(&self.inner, &stream);
                        }
                        Err(mpsc::TrySendError::Disconnected(_)) => {
                            self.inner.pending.fetch_sub(1, Ordering::Relaxed);
                            break;
                        }
                    }
                }
                Err(e) => {
                    galign_telemetry::debug!("router", "accept error: {e}");
                }
            }
        }
        drop(tx);
        for worker in pool {
            let _ = worker.join();
        }
        galign_telemetry::info!("router", "shut down cleanly");
        Ok(())
    }

    /// Runs the router on a background thread.
    #[must_use]
    pub fn spawn(self) -> RouterHandle {
        let inner = Arc::clone(&self.inner);
        let addr = self.local_addr();
        let join = std::thread::spawn(move || self.run());
        RouterHandle { inner, addr, join }
    }
}

impl RouterHandle {
    /// The router's bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests graceful shutdown and waits for every worker.
    ///
    /// # Errors
    /// The run loop's error, if it failed.
    ///
    /// # Panics
    /// If the router thread panicked.
    pub fn shutdown(self) -> io::Result<()> {
        begin_shutdown(&self.inner);
        self.join.join().expect("router thread panicked")
    }
}

fn begin_shutdown(inner: &Inner) {
    if !inner.shutting_down.swap(true, Ordering::SeqCst) {
        let _ = TcpStream::connect_timeout(&inner.addr, Duration::from_secs(1));
    }
}

fn shed(inner: &Inner, stream: &TcpStream) {
    inner.shed_total.fetch_add(1, Ordering::Relaxed);
    galign_telemetry::counter_add("router.http.shed", 1);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let mut writer = stream;
    let _ = http::write_json_with_headers(
        &mut writer,
        503,
        &[("retry-after", inner.cfg.retry_after_secs.to_string())],
        &error_body("router overloaded, retry later"),
    );
}

struct Reply {
    status: u16,
    content_type: &'static str,
    body: String,
    engine: String,
}

impl Reply {
    fn json(status: u16, body: String) -> Reply {
        Reply {
            status,
            content_type: "application/json",
            body,
            engine: String::new(),
        }
    }
}

enum ConnectionFate {
    KeepAlive,
    Close,
}

fn handle_connection(inner: &Inner, clients: &[Vec<Arc<Mutex<Client>>>], stream: TcpStream) {
    // Same Nagle opt-out as the shard servers: header and body land in
    // separate writes, and a routed response otherwise eats a delayed-ACK
    // stall per hop.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(inner.cfg.request_timeout));
    let mut reader = BufReader::new(&stream);
    let mut served = 0u64;
    loop {
        let _ = stream.set_read_timeout(Some(inner.cfg.request_timeout));
        match serve_one(inner, clients, &stream, &mut reader, served) {
            ConnectionFate::KeepAlive => served += 1,
            ConnectionFate::Close => return,
        }
        if inner.pending.load(Ordering::Relaxed) > 0 {
            return; // fairness: free the worker while others wait
        }
        if reader.buffer().is_empty() {
            let idle = inner.cfg.keep_alive_idle.max(Duration::from_millis(1));
            let _ = stream.set_read_timeout(Some(idle));
            let mut probe = [0u8; 1];
            match stream.peek(&mut probe) {
                Ok(n) if n > 0 => {}
                _ => return,
            }
        }
    }
}

fn serve_one(
    inner: &Inner,
    clients: &[Vec<Arc<Mutex<Client>>>],
    stream: &TcpStream,
    reader: &mut BufReader<&TcpStream>,
    served: u64,
) -> ConnectionFate {
    let started = Instant::now();
    inner.in_flight.fetch_add(1, Ordering::Relaxed);
    let _guard = CounterGuard(&inner.in_flight);
    let outcome = http::read_request(reader);
    let mut writer = stream;
    let (reply, trace, request, keep) = match outcome {
        Ok(ReadOutcome::Ok(request)) => {
            let trace_id = request
                .header(TRACE_HEADER)
                .and_then(TraceId::parse_hex)
                .unwrap_or_else(TraceId::generate);
            let ctx = TraceContext::root(trace_id);
            let reply = {
                let _span_scope = ctx.enter();
                route(inner, clients, &request, started)
            };
            let keep = request.wants_keep_alive() && !inner.shutting_down.load(Ordering::SeqCst);
            (reply, ctx, Some(request), keep)
        }
        Ok(ReadOutcome::Bad(bad)) => (
            Reply::json(400, error_body(&bad.0)),
            TraceContext::root(TraceId::generate()),
            None,
            false,
        ),
        Ok(ReadOutcome::Closed) => return ConnectionFate::Close,
        Err(e) if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            if served > 0 {
                return ConnectionFate::Close;
            }
            (
                Reply::json(408, error_body("request timed out")),
                TraceContext::root(TraceId::generate()),
                None,
                false,
            )
        }
        Err(e) => {
            galign_telemetry::debug!("router", "connection error: {e}");
            return ConnectionFate::Close;
        }
    };
    let trace_id = trace.trace_id();
    let mut extra_headers = vec![(TRACE_HEADER, trace_id.to_hex())];
    if reply.status == 503 {
        extra_headers.push(("retry-after", inner.cfg.retry_after_secs.to_string()));
    }
    let _ = http::write_response_with_options(
        &mut writer,
        reply.status,
        reply.content_type,
        &extra_headers,
        reply.body.as_bytes(),
        keep,
    );
    if galign_telemetry::metrics_enabled() {
        galign_telemetry::counter_add("router.http.requests", 1);
        galign_telemetry::counter_add(
            match reply.status {
                200 => "router.http.status.2xx",
                500..=599 => "router.http.status.5xx",
                _ => "router.http.status.4xx",
            },
            1,
        );
        galign_telemetry::histogram_record(
            "router.request.ms",
            started.elapsed().as_secs_f64() * 1e3,
        );
    }
    let (events, notes) = trace.take_events();
    let (method, path) = match &request {
        Some(r) => (r.method.as_str(), r.path.as_str()),
        None => ("-", "-"),
    };
    inner.flight.record(TraceRecord {
        trace_id,
        kind: RecordKind::Request,
        name: format!("{method} {path}"),
        status: reply.status,
        engine: reply.engine.clone(),
        end_ms: galign_telemetry::clock_ms(),
        total_us: started.elapsed().as_micros() as u64,
        events,
        notes,
        fields: Vec::new(),
    });
    if keep {
        ConnectionFate::KeepAlive
    } else {
        ConnectionFate::Close
    }
}

fn route(
    inner: &Inner,
    clients: &[Vec<Arc<Mutex<Client>>>],
    request: &Request,
    started: Instant,
) -> Reply {
    // The routed request's deadline: hops propagate whatever budget is
    // left of it, so shards can shed work the router will time out on.
    let deadline = started + inner.cfg.request_timeout;
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/align/topk") => {
            galign_telemetry::counter_add("router.route.topk", 1);
            topk_route(inner, clients, &request.body, deadline)
        }
        ("POST", "/v2/align/topk") => {
            galign_telemetry::counter_add("router.route.topk_v2", 1);
            topk_v2_route(inner, clients, &request.body, deadline)
        }
        ("GET", "/healthz") => {
            galign_telemetry::counter_add("router.route.healthz", 1);
            Reply::json(200, healthz(inner))
        }
        ("GET", "/metrics") => {
            galign_telemetry::counter_add("router.route.metrics", 1);
            if request.query_param("format") == Some("prometheus") {
                Reply {
                    status: 200,
                    content_type: galign_telemetry::prom::CONTENT_TYPE,
                    body: galign_telemetry::prom::render(&galign_telemetry::snapshot()),
                    engine: String::new(),
                }
            } else {
                Reply::json(200, galign_telemetry::snapshot_json())
            }
        }
        ("GET", "/v1/debug/requests") => {
            galign_telemetry::counter_add("router.route.debug_requests", 1);
            Reply::json(200, inner.flight.to_json())
        }
        ("POST", "/v1/admin/shutdown") => {
            galign_telemetry::info!("router", "shutdown requested via admin endpoint");
            begin_shutdown(inner);
            Reply::json(200, "{\"status\":\"shutting-down\"}".to_string())
        }
        ("GET" | "HEAD", "/v1/align/topk" | "/v2/align/topk")
        | ("POST", "/healthz" | "/metrics" | "/v1/debug/requests")
        | ("GET", "/v1/admin/shutdown") => {
            Reply::json(405, error_body("wrong method for this path"))
        }
        _ => Reply::json(404, error_body("no such endpoint")),
    }
}

fn topk_route(
    inner: &Inner,
    clients: &[Vec<Arc<Mutex<Client>>>],
    body: &[u8],
    deadline: Instant,
) -> Reply {
    let st = context::stage("parse");
    let query = match parse_routed_query(body, inner.cfg.default_k, inner.cfg.max_k) {
        Ok(q) => q,
        Err(msg) => return Reply::json(400, error_body(&msg)),
    };
    st.finish_with(vec![("nodes", query.nodes.len().to_string())]);
    // The body is forwarded verbatim: θ and friends never round-trip
    // through the router's serializer.
    let body = String::from_utf8_lossy(body).into_owned();
    let RoutedReply {
        status,
        body,
        partial,
        engine,
    } = scatter_gather(
        &inner.topology,
        clients,
        &body,
        &query,
        &inner.policy,
        Some(deadline),
        inner.flight,
    );
    if partial {
        galign_telemetry::counter_add("router.topk.partial", 1);
    }
    Reply {
        status,
        content_type: "application/json",
        body,
        engine,
    }
}

fn topk_v2_route(
    inner: &Inner,
    clients: &[Vec<Arc<Mutex<Client>>>],
    body: &[u8],
    deadline: Instant,
) -> Reply {
    let st = context::stage("parse");
    let batch = match parse_routed_batch(body, inner.cfg.default_k, inner.cfg.max_k) {
        Ok(b) => b,
        Err(msg) => return Reply::json(400, error_body(&msg)),
    };
    st.finish_with(vec![("queries", batch.queries.len().to_string())]);
    // As on /v1, the envelope is forwarded verbatim.
    let body = String::from_utf8_lossy(body).into_owned();
    let RoutedReply {
        status,
        body,
        partial,
        engine,
    } = scatter_gather_batch(
        &inner.topology,
        clients,
        &body,
        &batch,
        &inner.policy,
        Some(deadline),
        inner.flight,
    );
    if partial {
        galign_telemetry::counter_add("router.topk.partial", 1);
    }
    Reply {
        status,
        content_type: "application/json",
        body,
        engine,
    }
}

fn healthz(inner: &Inner) -> String {
    // Degraded = at least one shard has no healthy replica: exactly the
    // state in which routed answers carry `"partial": true`.
    let degraded = !inner.topology.fully_healthy();
    let status = if degraded { "degraded" } else { "ok" };
    galign_telemetry::gauge_set("router.degraded", f64::from(u8::from(degraded)));
    let mut shards = String::new();
    for (i, shard) in inner.topology.shards.iter().enumerate() {
        if i > 0 {
            shards.push(',');
        }
        let breakers = shard
            .replicas
            .iter()
            .map(|r| format!("\"{}\"", r.breaker().state().as_str()))
            .collect::<Vec<_>>()
            .join(",");
        shards.push_str(&format!(
            "{{\"shard_id\":{},\"start\":{},\"end\":{},\"replicas\":{},\"healthy\":{},\"breakers\":[{breakers}]}}",
            shard.identity.shard_id,
            shard.identity.start,
            shard.identity.end,
            shard.replicas.len(),
            shard.healthy_replicas(),
        ));
    }
    format!(
        "{{\"status\":\"{status}\",\"role\":\"router\",\"num_shards\":{},\"source_nodes\":{},\"target_nodes\":{},\"layers\":{},\"workers\":{},\"pending\":{},\"in_flight\":{},\"shed_total\":{},\"queue_depth\":{},\"shards\":[{shards}]}}",
        inner.topology.shards.len(),
        inner.topology.source_nodes,
        inner.topology.parent_targets,
        inner.topology.layers,
        inner.cfg.workers.max(1),
        inner.pending.load(Ordering::Relaxed),
        inner.in_flight.load(Ordering::Relaxed),
        inner.shed_total.load(Ordering::Relaxed),
        inner.cfg.queue_depth,
    )
}
