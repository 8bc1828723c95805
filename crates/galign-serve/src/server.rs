//! The alignment query server: a single-threaded epoll/kqueue-style
//! readiness event loop feeding a coalescing batch scheduler, routing
//! top-k queries through the sharded cache and the gathered panel
//! kernels, instrumented with `galign-telemetry` counters and latency
//! histograms.
//!
//! ## Endpoints
//!
//! | method | path                 | purpose                                |
//! |--------|----------------------|----------------------------------------|
//! | POST   | `/v1/align/topk`     | single top-k alignment query (JSON)    |
//! | POST   | `/v2/align/topk`     | batched queries (`{"queries":[...]}`)  |
//! | GET    | `/healthz`           | liveness + artifact shape              |
//! | GET    | `/metrics`           | telemetry snapshot as JSON; add        |
//! |        |                      | `?format=prometheus` for exposition    |
//! | GET    | `/v1/debug/requests` | flight recorder (recent + slowest)     |
//! | POST   | `/v1/admin/shutdown` | graceful shutdown (SIGTERM-equivalent) |
//! | POST   | `/v1/admin/swap`     | hot-swap the serving artifact          |
//!
//! ## Event loop + coalescing
//!
//! One thread owns every socket: a non-blocking listener and all
//! connections are registered with a readiness [`Poller`]
//! (epoll on Linux) and driven through per-connection read/parse/write
//! state machines — a slow client costs one idle `Conn` entry, never a
//! thread. Top-k requests do not execute inline: they are enqueued as
//! jobs on the batch module's coalescer, where concurrent queries wait up to
//! [`ServerConfig::batch_window`] (or until [`ServerConfig::batch_cap`]
//! jobs are queued) and then execute as ONE flush on a worker thread:
//! all cache misses across the flush are grouped by (generation, engine,
//! theta) and computed as a single query-block × node-panel GEMM via the
//! gathered kernels, then demultiplexed back to their connections.
//! Batched execution is bit-identical to sequential scoring — grouping
//! changes *which* GEMM computes a row, never the reduction order within
//! it. Arrivals beyond [`ServerConfig::queue_depth`] are shed with `503`
//! + `Retry-After`.
//!
//! ## Hot artifact swap
//!
//! The serving index lives behind a generation slot: each request clones
//! one `Arc<Generation>` up front and uses it end to end, so a swap
//! arriving mid-request never mixes old and new data — in-flight requests
//! finish on the generation they started with and report it in the
//! `x-galign-generation` response header. Swaps arrive two ways: `POST
//! /v1/admin/swap` with `{"artifact": "/path"}`, or a *generation pointer
//! file* ([`ServerConfig::generation_pointer`]) whose content names the
//! current artifact path; a watcher thread polls it and swaps when the
//! content changes (writers should update it atomically via
//! write-temp-then-rename). Either way the artifact is read and
//! deserialized *off* the event loop (the watcher thread, or a
//! short-lived thread per admin swap): loading a large artifact must not
//! stall serving. Every swap clears the top-k cache — cached
//! hits must never outlive the artifact that produced them. A shard node
//! (artifact with a shard manifest) refuses a swap that would change its
//! id-range identity: replacing the *data* of shard 2/4 is routine,
//! silently becoming a different shard is corruption.
//!
//! ## Connection reuse
//!
//! A client sending `connection: keep-alive` may issue sequential (or
//! pipelined) requests on one socket. Under the event loop an idle
//! keep-alive connection costs no thread, so there is no fairness gate:
//! the connection stays open up to [`ServerConfig::keep_alive_idle`]
//! between requests and is closed silently on idle timeout (writing an
//! unsolicited `408` onto a pooled connection could be mistaken for the
//! response to the *next* request). A connection whose *first* request
//! never completes within [`ServerConfig::request_timeout`] gets a `408`.
//! Each request's window is anchored once — at accept for the first, at
//! its first byte for keep-alive follow-ups — and subsequent reads never
//! extend it, so a slow-loris trickle cannot hold a connection open past
//! the timeout; buffered-but-unparsed bytes are additionally capped at
//! one maximal request's worth per connection.
//!
//! ## Tracing
//!
//! Every request is handled under a [`TraceContext`]: the server honors an
//! inbound `x-galign-trace-id` header (32 hex digits; unusable values get
//! a fresh id) and echoes the resolved id back on **every** response, so a
//! client can correlate its attempt with the server's access log, span
//! JSONL and flight recorder. Handler stages (`parse`, `cache_lookup`,
//! `engine_select`, `ann_search`, `exact_rerank`, `serialize`) record
//! timed span events against the id — the context is captured as a
//! [`PropagationHandle`] at dispatch, so stages recorded on a worker
//! thread land in the request's trace across the thread hop. Completed
//! traces land in the global flight recorder and, when
//! [`ServerConfig::access_log`] is set, as one JSONL access-log line per
//! request.
//!
//! Query body (v1):
//! `{"nodes": [0, 3], "k": 5, "theta": [0.2, 0.3, 0.5], "mode": "auto"}` —
//! `k`, `theta`, `mode` and `quant` optional. `mode` picks the scoring
//! engine (`exact | ann | auto`, default from
//! [`ServerConfig::default_mode`]); the response reports the routing
//! decision in its top-level `"engine"` field. `quant` picks the
//! first-pass scan precision (`off | int8 | f16`, default from
//! [`ServerConfig::quant`]); responses are bit-identical across settings
//! and the body shape does not change. v2 wraps any number of such objects:
//! `{"queries": [{...}, {...}]}` → `{"results": [<v1 body>, ...]}`, with
//! per-query errors isolated as `{"error": "..."}` entries. See
//! [`crate::api`] for the typed request/response structs.
//!
//! ## Shutdown
//!
//! `POST /v1/admin/shutdown` (or [`ServerHandle::shutdown`]) flips an
//! atomic flag and nudges the event loop awake with a loopback
//! connection; the loop stops accepting, closes idle connections, drains
//! the coalescer (queued jobs complete and their responses are written),
//! and every worker joins before [`Server::run`] returns.

use crate::batch::{self, Coalescer, Completion, Job};
use crate::cache::ShardedCache;
use crate::evloop::{self, Event, Poller};
use crate::http::{self, Parsed, Request};
use crate::json;
use crate::topk::{EngineMode, QuantMode, TopkIndex};
use galign_telemetry::context::{PropagationHandle, TraceContext, TraceId};
use galign_telemetry::flight::{self, FlightRecorder, RecordKind, TraceRecord};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Trace-id header honored on requests and echoed on responses.
pub const TRACE_HEADER: &str = "x-galign-trace-id";

/// Remaining-deadline header stamped by upstream callers: the number of
/// milliseconds of client budget left when the request was sent. The
/// server clamps its own per-request deadline to this remaining budget,
/// so a coalesced job whose caller has already given up is shed with a
/// `503` instead of burning kernel time on a doomed reply.
pub const DEADLINE_HEADER: &str = "x-galign-deadline-ms";

/// Response header reporting the artifact generation a request was served
/// from. Starts at 1 for the artifact the server booted with and bumps on
/// every hot swap; a request spanning a swap reports the generation it
/// actually used.
pub const GENERATION_HEADER: &str = "x-galign-generation";

/// Server tunables. Construct via [`ServerConfig::builder`] (preferred)
/// or a struct literal over [`Default`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing coalesced top-k flushes.
    pub workers: usize,
    /// Deadline for one request to arrive / one response to drain on a
    /// connection (the event loop's per-connection progress timeout).
    pub request_timeout: Duration,
    /// Total top-k cache entries across shards (0 disables caching).
    pub cache_capacity: usize,
    /// Cache shard count (rounded up to a power of two).
    pub cache_shards: usize,
    /// `k` used when a query omits it.
    pub default_k: usize,
    /// Largest accepted `k` (bounds per-request work and cache entry size).
    pub max_k: usize,
    /// Bound on jobs waiting in the coalescer; anything beyond is shed
    /// with `503` + `Retry-After` instead of queueing unboundedly.
    pub queue_depth: usize,
    /// Wall-clock deadline for handling one request, enforced
    /// cooperatively on the worker (socket timeouts cannot bound compute
    /// or queue time); exceeding it returns `503`.
    pub deadline: Duration,
    /// `Retry-After` value (seconds) attached to every shed/deadline 503.
    pub retry_after_secs: u64,
    /// Engine used when a query omits `mode` (`auto` routes to ANN only
    /// when an index is attached and the target network is at least
    /// `ann_threshold` nodes).
    pub default_mode: EngineMode,
    /// First-pass scan precision used when a query omits `quant` (the
    /// `--quant` flag). Results are bit-identical across settings;
    /// degrades to f64 when the artifact carries no matching panels.
    pub quant: QuantMode,
    /// Overrides the index's `auto` switchover point when set.
    pub ann_threshold: Option<usize>,
    /// Flight-recorder ring capacity (completed traces retained for
    /// `GET /v1/debug/requests`). Applied to the process-global recorder
    /// on bind; first configurator wins.
    pub flight_recorder_size: usize,
    /// Slowest-K reservoir size of the flight recorder.
    pub flight_slowest_k: usize,
    /// When set, every request appends one JSONL access-log line here
    /// (trace id, route, engine, cache counts, deadline remaining,
    /// status, µs latency).
    pub access_log: Option<PathBuf>,
    /// When set, the flight recorder is dumped here as JSONL on graceful
    /// shutdown.
    pub flight_dump: Option<PathBuf>,
    /// Generation pointer file: when set, a watcher thread polls it and
    /// hot-swaps the serving artifact to the path the file names whenever
    /// its content changes. The content present at startup is treated as
    /// already applied.
    pub generation_pointer: Option<PathBuf>,
    /// How often the generation pointer is polled.
    pub generation_poll: Duration,
    /// How long an idle keep-alive connection is held open waiting for
    /// its next request.
    pub keep_alive_idle: Duration,
    /// How long a queued top-k job may wait for flush-mates before the
    /// coalescer flushes anyway (latency cost of batching, paid only
    /// under concurrency — a lone job on an idle server waits the full
    /// window, which is why the default is microseconds).
    pub batch_window: Duration,
    /// Most jobs executed in one coalesced flush.
    pub batch_cap: usize,
    /// Most concurrently open connections; accepts beyond this are shed
    /// with `503`.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            request_timeout: Duration::from_secs(10),
            cache_capacity: 4096,
            cache_shards: 16,
            default_k: 10,
            max_k: 1000,
            queue_depth: 64,
            deadline: Duration::from_secs(5),
            retry_after_secs: 1,
            default_mode: EngineMode::Auto,
            quant: QuantMode::Off,
            ann_threshold: None,
            flight_recorder_size: flight::DEFAULT_CAPACITY,
            flight_slowest_k: flight::DEFAULT_SLOWEST_K,
            access_log: None,
            flight_dump: None,
            generation_pointer: None,
            generation_poll: Duration::from_millis(200),
            keep_alive_idle: Duration::from_millis(250),
            batch_window: Duration::from_micros(200),
            batch_cap: 64,
            max_connections: 1024,
        }
    }
}

impl ServerConfig {
    /// A fluent builder over the defaults.
    #[must_use]
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder {
            cfg: ServerConfig::default(),
        }
    }
}

/// Builder for [`ServerConfig`]: each setter overrides one default.
#[derive(Debug, Clone)]
pub struct ServerConfigBuilder {
    cfg: ServerConfig,
}

macro_rules! builder_field {
    ($(#[$doc:meta])* $name:ident: $ty:ty) => {
        $(#[$doc])*
        #[must_use]
        pub fn $name(mut self, value: $ty) -> Self {
            self.cfg.$name = value;
            self
        }
    };
}

macro_rules! builder_path {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[must_use]
        pub fn $name(mut self, path: impl Into<PathBuf>) -> Self {
            self.cfg.$name = Some(path.into());
            self
        }
    };
}

impl ServerConfigBuilder {
    builder_field!(
        /// Worker threads executing coalesced flushes.
        workers: usize
    );
    builder_field!(
        /// Per-connection progress timeout.
        request_timeout: Duration
    );
    builder_field!(
        /// Total top-k cache entries across shards.
        cache_capacity: usize
    );
    builder_field!(
        /// Cache shard count.
        cache_shards: usize
    );
    builder_field!(
        /// `k` used when a query omits it.
        default_k: usize
    );
    builder_field!(
        /// Largest accepted `k`.
        max_k: usize
    );
    builder_field!(
        /// Coalescer queue bound before shedding.
        queue_depth: usize
    );
    builder_field!(
        /// Cooperative per-request deadline.
        deadline: Duration
    );
    builder_field!(
        /// `Retry-After` seconds on 503s.
        retry_after_secs: u64
    );
    builder_field!(
        /// Engine when a query omits `mode`.
        default_mode: EngineMode
    );
    builder_field!(
        /// Scan precision when a query omits `quant`.
        quant: QuantMode
    );
    builder_field!(
        /// Flight-recorder ring capacity.
        flight_recorder_size: usize
    );
    builder_field!(
        /// Flight-recorder slowest-K reservoir size.
        flight_slowest_k: usize
    );
    builder_field!(
        /// Generation-pointer poll interval.
        generation_poll: Duration
    );
    builder_field!(
        /// Idle keep-alive connection lifetime.
        keep_alive_idle: Duration
    );
    builder_field!(
        /// Coalescing window for queued top-k jobs.
        batch_window: Duration
    );
    builder_field!(
        /// Most jobs per coalesced flush.
        batch_cap: usize
    );
    builder_field!(
        /// Most concurrently open connections.
        max_connections: usize
    );
    builder_path!(
        /// JSONL access log destination.
        access_log
    );
    builder_path!(
        /// Flight-recorder shutdown dump destination.
        flight_dump
    );
    builder_path!(
        /// Generation pointer file to watch for hot swaps.
        generation_pointer
    );

    /// Overrides the index's `auto` ANN switchover point.
    #[must_use]
    pub fn ann_threshold(mut self, nodes: usize) -> Self {
        self.cfg.ann_threshold = Some(nodes);
        self
    }

    /// The finished configuration.
    #[must_use]
    pub fn build(self) -> ServerConfig {
        self.cfg
    }

    /// Builds the configuration and binds a server with it — the common
    /// terminal step (`addr` as in [`Server::bind`], port 0 for
    /// ephemeral).
    ///
    /// # Errors
    /// Bind failures.
    pub fn bind(self, addr: &str, index: TopkIndex) -> io::Result<Server> {
        Server::bind(addr, index, self.build())
    }
}

/// One immutable serving generation: the index plus its sequence number.
/// Requests clone the `Arc` once and never observe a mix of generations.
pub struct Generation {
    /// The query index of this generation.
    pub index: TopkIndex,
    /// 1 for the boot artifact, +1 per hot swap.
    pub number: u64,
}

/// Wraps a boot index as generation 1 in its swap slot.
fn generation_slot(index: TopkIndex) -> RwLock<Arc<Generation>> {
    RwLock::new(Arc::new(Generation { index, number: 1 }))
}

pub(crate) struct Inner {
    pub(crate) index: RwLock<Arc<Generation>>,
    pub(crate) cache: ShardedCache,
    pub(crate) cfg: ServerConfig,
    pub(crate) addr: SocketAddr,
    pub(crate) shutting_down: AtomicBool,
    /// Top-k jobs queued in the coalescer, waiting for a flush.
    pub(crate) pending: AtomicU64,
    /// Requests currently being handled (dispatched or routing inline).
    pub(crate) in_flight: AtomicU64,
    /// Total requests/connections shed with 503 since startup.
    pub(crate) shed_total: AtomicU64,
    /// Completed-trace ring serving `/v1/debug/requests`.
    pub(crate) flight: &'static FlightRecorder,
    /// Whether the last `/healthz` evaluation reported degraded — the
    /// ok→degraded transition freezes the flight recorder so the traces
    /// *leading up to* the incident survive the incident's retry storm.
    pub(crate) health_degraded: AtomicBool,
    /// JSONL access-log writer, when configured.
    pub(crate) access_log: Option<Mutex<std::io::BufWriter<std::fs::File>>>,
}

impl Inner {
    /// The current serving generation. One cheap clone per request pins
    /// that request to a consistent index while swaps proceed.
    pub(crate) fn generation(&self) -> Arc<Generation> {
        Arc::clone(&self.index.read().expect("generation lock"))
    }
}

/// Publishes the resident artifact footprint: f64 rows and quantized
/// panels separately, plus their sum (`serve.artifact.bytes`). Set at
/// bind and on every hot swap, refreshed on `/metrics` reads.
fn set_artifact_gauges(index: &TopkIndex) {
    let f64_bytes = index.f64_resident_bytes();
    let quant_bytes = index.quant_resident_bytes();
    galign_telemetry::gauge_set("serve.artifact.f64_bytes", f64_bytes as f64);
    galign_telemetry::gauge_set("serve.artifact.quant_bytes", quant_bytes as f64);
    galign_telemetry::gauge_set("serve.artifact.bytes", (f64_bytes + quant_bytes) as f64);
}

/// Installs `index` as the next generation: applies the configured `auto`
/// threshold, swaps the slot, clears the top-k cache (cached hits must
/// never outlive their artifact) and returns the new generation number.
fn install_index(inner: &Inner, mut index: TopkIndex) -> u64 {
    if let Some(threshold) = inner.cfg.ann_threshold {
        index.set_auto_threshold(threshold);
    }
    set_artifact_gauges(&index);
    let number = {
        let mut slot = inner.index.write().expect("generation lock");
        let number = slot.number + 1;
        *slot = Arc::new(Generation { index, number });
        number
    };
    inner.cache.clear();
    galign_telemetry::counter_add("serve.swap.total", 1);
    galign_telemetry::gauge_set("serve.generation", number as f64);
    flight::record_incident(
        "serve.generation.swapped",
        vec![("generation".to_string(), number.to_string())],
    );
    number
}

/// Validates that `next` keeps the shard identity of `current`: a shard
/// node may receive new *data* for its slice, never a different slice.
fn shard_identity_ok(current: &TopkIndex, next: &TopkIndex) -> Result<(), String> {
    match (current.shard_manifest(), next.shard_manifest()) {
        (None, None) => Ok(()),
        (Some(a), Some(b))
            if (a.shard_id, a.num_shards, a.start, a.end)
                == (b.shard_id, b.num_shards, b.start, b.end) =>
        {
            Ok(())
        }
        _ => Err("artifact would change this node's shard identity (id range)".to_string()),
    }
}

/// A bound (but not yet running) server.
pub struct Server {
    inner: Arc<Inner>,
    listener: TcpListener,
}

/// Handle to a server running on a background thread.
pub struct ServerHandle {
    inner: Arc<Inner>,
    addr: SocketAddr,
    join: JoinHandle<io::Result<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:8080"`, port 0 for ephemeral) and
    /// prepares the query index. Also enables telemetry metrics — a
    /// server wants its `/metrics` endpoint live.
    ///
    /// # Errors
    /// Bind failures.
    pub fn bind(addr: &str, mut index: TopkIndex, cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        galign_telemetry::set_metrics_enabled(true);
        if let Some(threshold) = cfg.ann_threshold {
            index.set_auto_threshold(threshold);
        }
        flight::configure(cfg.flight_recorder_size, cfg.flight_slowest_k);
        set_artifact_gauges(&index);
        let access_log = match &cfg.access_log {
            Some(path) => Some(Mutex::new(std::io::BufWriter::new(std::fs::File::create(
                path,
            )?))),
            None => None,
        };
        galign_telemetry::info!(
            "serve",
            "listening on {local} ({} source x {} target nodes, {} layers, {} workers, engine {} / ann index: {})",
            index.source_nodes(),
            index.target_nodes(),
            index.num_layers(),
            cfg.workers.max(1),
            cfg.default_mode,
            index
                .ann_backend()
                .map_or("none", galign_index::Backend::name),
        );
        Ok(Server {
            inner: Arc::new(Inner {
                cache: ShardedCache::new(cfg.cache_capacity, cfg.cache_shards),
                index: generation_slot(index),
                cfg,
                addr: local,
                shutting_down: AtomicBool::new(false),
                pending: AtomicU64::new(0),
                in_flight: AtomicU64::new(0),
                shed_total: AtomicU64::new(0),
                flight: flight::global(),
                health_degraded: AtomicBool::new(false),
                access_log,
            }),
            listener,
        })
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Runs the event loop on the calling thread until graceful
    /// shutdown; all workers have joined when this returns.
    ///
    /// # Errors
    /// Fatal listener/poller failures (per-connection errors are
    /// absorbed).
    pub fn run(self) -> io::Result<()> {
        let inner = Arc::clone(&self.inner);
        let watcher = inner.cfg.generation_pointer.clone().map(|pointer| {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || watch_generation_pointer(&inner, &pointer))
        });
        let co = Arc::new(Coalescer::new(
            inner.cfg.batch_window,
            inner.cfg.batch_cap,
            inner.cfg.queue_depth,
        ));
        let (wake_tx, wake_rx) = evloop::wake_pair()?;
        let (done_tx, done_rx) = mpsc::channel::<Completion>();
        let workers = inner.cfg.workers.max(1);
        let mut pool = Vec::with_capacity(workers);
        for _ in 0..workers {
            let co = Arc::clone(&co);
            let inner = Arc::clone(&inner);
            let done_tx = done_tx.clone();
            let wake_tx = wake_tx.try_clone()?;
            pool.push(std::thread::spawn(move || {
                // One iteration = one coalesced flush: every queued job in
                // the batch is planned, executed as grouped panel GEMMs
                // and completed before the next take. The flush runs under
                // `catch_unwind`: a panic must not kill the worker with
                // its jobs' connections parked in `Dispatched` (exempt
                // from loop timeouts, so they would hang forever and pin
                // graceful shutdown) — every job still gets exactly one
                // completion, a 500.
                while let Some(jobs) = co.take_batch() {
                    inner
                        .pending
                        .fetch_sub(jobs.len() as u64, Ordering::Relaxed);
                    let tokens: Vec<u64> = jobs.iter().map(|j| j.token).collect();
                    let completions =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            batch::process_jobs(&inner, jobs)
                        }))
                        .unwrap_or_else(|panic| {
                            let msg = panic
                                .downcast_ref::<&str>()
                                .map(|s| (*s).to_string())
                                .or_else(|| panic.downcast_ref::<String>().cloned())
                                .unwrap_or_else(|| "non-string panic payload".to_string());
                            galign_telemetry::counter_add("serve.batch.panics", 1);
                            galign_telemetry::info!(
                                "serve",
                                "batch flush panicked ({} jobs 500ed): {msg}",
                                tokens.len()
                            );
                            tokens
                                .iter()
                                .map(|&token| Completion {
                                    token,
                                    reply: Reply::json(500, error_body("internal server error")),
                                })
                                .collect()
                        });
                    let mut sent = false;
                    for done in completions {
                        sent |= done_tx.send(done).is_ok();
                    }
                    if sent {
                        evloop::wake(&wake_tx);
                    }
                }
            }));
        }
        self.listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        poller.register(evloop::fd_of(&self.listener), LISTENER, true, false)?;
        poller.register(evloop::fd_of(&wake_rx), WAKER, true, false)?;
        let mut el = EventLoop {
            inner: Arc::clone(&inner),
            poller,
            listener: self.listener,
            wake_rx,
            co: Arc::clone(&co),
            done_rx,
            // The loop keeps a sender + waker of its own: slow off-loop
            // work it spawns itself (admin artifact swaps) completes
            // through the same channel as worker flushes.
            done_tx,
            wake_tx,
            conns: HashMap::new(),
            reqs: HashMap::new(),
            next_token: FIRST_CONN,
            draining: false,
        };
        let result = el.run_loop();
        // Drop the loop (listener and every socket close) before joining
        // workers: the bound port is released the moment `run` can return.
        drop(el);
        co.close();
        for worker in pool {
            let _ = worker.join();
        }
        if let Some(watcher) = watcher {
            let _ = watcher.join();
        }
        if let Some(path) = &inner.cfg.flight_dump {
            match std::fs::File::create(path) {
                Ok(file) => {
                    let mut w = std::io::BufWriter::new(file);
                    if let Err(e) = inner.flight.dump_jsonl(&mut w) {
                        galign_telemetry::info!("serve", "flight-recorder dump failed: {e}");
                    } else {
                        galign_telemetry::info!(
                            "serve",
                            "flight recorder dumped to {}",
                            path.display()
                        );
                    }
                }
                Err(e) => {
                    galign_telemetry::info!(
                        "serve",
                        "cannot create flight dump {}: {e}",
                        path.display()
                    );
                }
            }
        }
        if let Some(log) = &inner.access_log {
            let _ = log.lock().expect("access log lock").flush();
        }
        galign_telemetry::info!("serve", "shut down cleanly");
        result
    }

    /// Runs the server on a background thread, returning a handle for
    /// tests and embedders.
    #[must_use]
    pub fn spawn(self) -> ServerHandle {
        let inner = Arc::clone(&self.inner);
        let addr = self.local_addr();
        let join = std::thread::spawn(move || self.run());
        ServerHandle { inner, addr, join }
    }
}

impl ServerHandle {
    /// The server's bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests graceful shutdown and waits for the event loop and all
    /// workers to finish.
    ///
    /// # Errors
    /// The run loop's error, if it failed.
    ///
    /// # Panics
    /// If the server thread panicked.
    pub fn shutdown(self) -> io::Result<()> {
        begin_shutdown(&self.inner);
        self.join.join().expect("server thread panicked")
    }
}

/// Loads the artifact at `path` and installs it as the next generation,
/// refusing artifacts that would change a shard node's identity.
fn swap_from_path(inner: &Inner, path: &str) -> Result<u64, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let artifact =
        crate::artifact::Artifact::from_bytes(&bytes).map_err(|e| format!("{path}: {e}"))?;
    let next = TopkIndex::from_artifact(artifact);
    shard_identity_ok(&inner.generation().index, &next)?;
    Ok(install_index(inner, next))
}

/// Polls the generation pointer file until shutdown, hot-swapping to the
/// artifact it names whenever its content changes. A failed swap is
/// logged and counted, and that content is remembered so a broken pointer
/// does not retry in a hot loop — the next *change* triggers again.
fn watch_generation_pointer(inner: &Inner, pointer: &std::path::Path) {
    let read_pointer = || {
        std::fs::read_to_string(pointer)
            .ok()
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
    };
    // Startup content is the artifact the server already booted with.
    let mut seen = read_pointer();
    let mut waited = Duration::ZERO;
    let slice = Duration::from_millis(25);
    while !inner.shutting_down.load(Ordering::SeqCst) {
        std::thread::sleep(slice);
        waited += slice;
        if waited < inner.cfg.generation_poll {
            continue;
        }
        waited = Duration::ZERO;
        let Some(content) = read_pointer() else {
            continue;
        };
        if seen.as_ref() == Some(&content) {
            continue;
        }
        match swap_from_path(inner, &content) {
            Ok(number) => {
                galign_telemetry::info!(
                    "serve",
                    "generation pointer swap: {content} is now generation {number}"
                );
            }
            Err(msg) => {
                galign_telemetry::counter_add("serve.swap.errors", 1);
                galign_telemetry::info!("serve", "generation pointer swap failed: {msg}");
            }
        }
        seen = Some(content);
    }
}

/// Flips the shutdown flag and wakes the event loop.
fn begin_shutdown(inner: &Inner) {
    if !inner.shutting_down.swap(true, Ordering::SeqCst) {
        // A throwaway loopback connection makes the listener readable,
        // which wakes the poller even when no client traffic arrives.
        let _ = TcpStream::connect_timeout(&inner.addr, Duration::from_secs(1));
    }
}

/// Refuses a connection outright (connection cap): a best-effort 503
/// with `Retry-After` — rendered to one buffer, pushed with a single
/// non-blocking write. A peer whose socket cannot take the bytes right
/// now just sees the close; a blocking (even timed) write here would run
/// on the event-loop thread, where a burst of slow over-cap clients
/// could stall the whole loop serially.
fn shed(inner: &Inner, stream: &TcpStream) {
    inner.shed_total.fetch_add(1, Ordering::Relaxed);
    galign_telemetry::counter_add("serve.http.shed", 1);
    let _ = stream.set_nonblocking(true);
    let mut out = Vec::with_capacity(256);
    let _ = http::write_json_with_headers(
        &mut out,
        503,
        &[("retry-after", inner.cfg.retry_after_secs.to_string())],
        &error_body("server overloaded, retry later"),
    );
    let _ = (&mut &*stream).write(&out);
}

/// One routed response: status, content type, body, and which scoring
/// engine produced it (empty for non-query routes).
pub(crate) struct Reply {
    pub(crate) status: u16,
    pub(crate) content_type: &'static str,
    pub(crate) body: String,
    pub(crate) engine: &'static str,
    /// Generation the reply was computed against (0 = not yet stamped;
    /// `route` stamps every reply, error paths fall back to the current
    /// generation at write time).
    pub(crate) generation: u64,
}

impl Reply {
    pub(crate) fn json(status: u16, body: String) -> Reply {
        Reply {
            status,
            content_type: "application/json",
            body,
            engine: "",
            generation: 0,
        }
    }
}

/// Cap on bytes buffered per connection awaiting parse. One maximal
/// request (head + body at their limits) always fits, so `try_parse`
/// over a full buffer yields `Complete` or `Bad`, never `Partial`;
/// reading simply pauses at the cap until a parsed request drains the
/// buffer. Bounds event-loop memory to `max_connections ×` this.
const MAX_BUFFERED_BYTES: usize = http::MAX_HEAD_BYTES + http::MAX_BODY_BYTES;

/// Poller token of the listening socket.
const LISTENER: u64 = 0;
/// Poller token of the worker-wakeup socket.
const WAKER: u64 = 1;
/// First token handed to an accepted connection.
const FIRST_CONN: u64 = 2;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ConnState {
    /// Accumulating request bytes (or idle between keep-alive requests).
    Reading,
    /// A top-k job is queued/executing; the socket is deregistered until
    /// its completion arrives (level-triggered pollers would otherwise
    /// spin on a half-closed peer).
    Dispatched,
    /// Draining a rendered response to the socket.
    Writing,
}

/// Per-connection state machine entry.
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet consumed by a parsed request.
    buf: Vec<u8>,
    /// Rendered response bytes being written.
    out: Vec<u8>,
    out_pos: usize,
    state: ConnState,
    /// Whether to return to `Reading` (vs close) once `out` drains.
    keep_after_write: bool,
    /// Requests already answered on this connection.
    served: u64,
    /// Progress deadline; meaning depends on state (first-request /
    /// keep-alive idle / write drain). Dispatched connections have none —
    /// the worker-side request deadline is authoritative there.
    deadline: Instant,
    /// Peer sent EOF (half-open: it may still read our response).
    read_closed: bool,
    /// Whether the fd is currently registered with the poller.
    registered: bool,
    /// Last (readable, writable) interest registered.
    interest: (bool, bool),
}

/// Per-dispatched-request state the loop keeps while a job is away on a
/// worker, keyed by connection token. Kept separate from [`Conn`] so a
/// completion for a since-closed connection still runs its counters and
/// trace tail.
struct ReqState {
    ctx: TraceContext,
    started: Instant,
    method: String,
    path: String,
    keep: bool,
}

/// Applies an interest change, tracking registration so level-triggered
/// pollers only see fds the loop actually wants events for.
fn set_interest(poller: &Poller, conn: &mut Conn, token: u64, readable: bool, writable: bool) {
    let fd = evloop::fd_of(&conn.stream);
    if !readable && !writable {
        if conn.registered {
            let _ = poller.deregister(fd, token);
            conn.registered = false;
        }
    } else if conn.registered {
        if conn.interest != (readable, writable) {
            let _ = poller.reregister(fd, token, readable, writable);
        }
    } else {
        let _ = poller.register(fd, token, readable, writable);
        conn.registered = true;
    }
    conn.interest = (readable, writable);
}

/// What `try_advance` decided while holding the connection borrow.
enum Step {
    /// Nothing actionable buffered; keep waiting.
    Idle,
    /// Connection is finished (EOF with nothing pending).
    Close,
    /// The buffered bytes can never parse; 400 and close.
    Bad(String),
    /// One complete request was consumed from the buffer.
    Req(Box<Request>),
}

/// The single-threaded readiness loop owning every socket.
struct EventLoop {
    inner: Arc<Inner>,
    poller: Poller,
    listener: TcpListener,
    wake_rx: TcpStream,
    co: Arc<Coalescer>,
    done_rx: mpsc::Receiver<Completion>,
    done_tx: mpsc::Sender<Completion>,
    wake_tx: TcpStream,
    conns: HashMap<u64, Conn>,
    reqs: HashMap<u64, ReqState>,
    next_token: u64,
    draining: bool,
}

impl EventLoop {
    fn run_loop(&mut self) -> io::Result<()> {
        let mut events: Vec<Event> = Vec::new();
        loop {
            if !self.draining && self.inner.shutting_down.load(Ordering::SeqCst) {
                // Enter draining exactly once: refuse new work, close
                // idle/reading connections, let queued jobs and pending
                // writes finish.
                self.draining = true;
                self.co.close();
                let reading: Vec<u64> = self
                    .conns
                    .iter()
                    .filter(|(_, c)| c.state == ConnState::Reading)
                    .map(|(&t, _)| t)
                    .collect();
                for token in reading {
                    self.close_conn(token);
                }
            }
            if self.draining && self.conns.is_empty() && self.reqs.is_empty() {
                return Ok(());
            }
            let now = Instant::now();
            let mut timeout = Duration::from_millis(500);
            for c in self.conns.values() {
                if c.state != ConnState::Dispatched {
                    timeout = timeout.min(c.deadline.saturating_duration_since(now));
                }
            }
            self.poller.poll(&mut events, Some(timeout))?;
            for ev in events.drain(..) {
                match ev.token {
                    LISTENER => self.accept_ready(),
                    WAKER => evloop::drain_wakes(&self.wake_rx),
                    token => self.conn_event(token, &ev),
                }
            }
            while let Ok(done) = self.done_rx.try_recv() {
                let rs = self.reqs.remove(&done.token);
                self.inner.in_flight.fetch_sub(1, Ordering::Relaxed);
                if let Some(rs) = rs {
                    self.respond(done.token, done.reply, &rs);
                }
            }
            self.check_timeouts();
        }
    }

    /// Accepts everything the backlog holds (edge-agnostic: the listener
    /// is polled level-triggered, but draining it now saves wakeups).
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.draining || self.inner.shutting_down.load(Ordering::SeqCst) {
                        // Shutdown nudge, or a client racing the drain.
                        drop(stream);
                        continue;
                    }
                    if self.conns.len() >= self.inner.cfg.max_connections {
                        shed(&self.inner, &stream);
                        continue;
                    }
                    let _ = stream.set_nonblocking(true);
                    // Responses render as one buffer, but without
                    // TCP_NODELAY a short tail write can still sit behind
                    // Nagle waiting on the peer's delayed ACK.
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    let mut conn = Conn {
                        stream,
                        buf: Vec::new(),
                        out: Vec::new(),
                        out_pos: 0,
                        state: ConnState::Reading,
                        keep_after_write: false,
                        served: 0,
                        deadline: Instant::now() + self.inner.cfg.request_timeout,
                        read_closed: false,
                        registered: false,
                        interest: (false, false),
                    };
                    set_interest(&self.poller, &mut conn, token, true, false);
                    self.conns.insert(token, conn);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    galign_telemetry::debug!("serve", "accept error: {e}");
                    break;
                }
            }
        }
    }

    fn conn_event(&mut self, token: u64, ev: &Event) {
        let state = match self.conns.get(&token) {
            Some(c) => c.state,
            None => return,
        };
        match state {
            ConnState::Reading if ev.readable => self.on_readable(token),
            // Error/hangup conditions surface as readable+writable; the
            // write attempt observes the failure and closes.
            ConnState::Writing if ev.writable || ev.readable => self.advance_write(token),
            _ => {}
        }
    }

    /// Drains the socket into the connection buffer, then tries to parse.
    fn on_readable(&mut self, token: u64) {
        let mut dead = false;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let was_idle = conn.buf.is_empty();
            let mut progressed = false;
            let mut chunk = [0u8; 16 * 1024];
            loop {
                // Hard cap on buffered bytes. One maximal request always
                // fits (head + body ≤ the cap, so `try_parse` at the cap
                // is Complete or Bad, never Partial); a pipelining client
                // past the cap just waits — the poller is level-triggered,
                // so reading resumes once a parsed request drains the
                // buffer.
                if conn.buf.len() >= MAX_BUFFERED_BYTES {
                    break;
                }
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        conn.read_closed = true;
                        break;
                    }
                    Ok(n) => {
                        conn.buf.extend_from_slice(&chunk[..n]);
                        progressed = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            // A request's progress window anchors at its FIRST byte: the
            // byte that wakes an idle keep-alive connection converts the
            // idle deadline into a request deadline, and later reads never
            // extend it — a slow-loris trickle cannot hold the connection
            // past `request_timeout`. The first request's window is
            // anchored at accept (set in `accept_ready`).
            if was_idle && progressed && conn.served > 0 {
                conn.deadline = Instant::now() + self.inner.cfg.request_timeout;
            }
        }
        if dead {
            self.close_conn(token);
            return;
        }
        self.try_advance(token);
    }

    /// Attempts to parse and dispatch one request from buffered bytes.
    fn try_advance(&mut self, token: u64) {
        let step = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.state != ConnState::Reading {
                return;
            }
            if conn.buf.is_empty() {
                if conn.read_closed {
                    Step::Close
                } else {
                    Step::Idle
                }
            } else {
                match http::try_parse(&conn.buf) {
                    Parsed::Partial => {
                        if conn.read_closed {
                            // The request can never complete; there is
                            // nothing sensible to answer on a half line.
                            Step::Close
                        } else {
                            Step::Idle
                        }
                    }
                    Parsed::Bad(bad) => Step::Bad(bad.0),
                    Parsed::Complete { request, consumed } => {
                        conn.buf.drain(..consumed);
                        Step::Req(Box::new(request))
                    }
                }
            }
        };
        match step {
            Step::Idle => {}
            Step::Close => self.close_conn(token),
            Step::Bad(msg) => {
                // Unparseable requests still get a trace id so their
                // access-log lines are greppable.
                let rs = ReqState {
                    ctx: TraceContext::root(TraceId::generate()),
                    started: Instant::now(),
                    method: "-".to_string(),
                    path: "-".to_string(),
                    keep: false,
                };
                self.respond(token, Reply::json(400, error_body(&msg)), &rs);
            }
            Step::Req(request) => self.handle_request(token, *request),
        }
    }

    /// Dispatches one parsed request: top-k queries join the coalescer,
    /// everything else routes inline (those handlers are cheap).
    fn handle_request(&mut self, token: u64, request: Request) {
        let started = Instant::now();
        let trace_id = request
            .header(TRACE_HEADER)
            .and_then(TraceId::parse_hex)
            .unwrap_or_else(TraceId::generate);
        let ctx = TraceContext::root(trace_id);
        // Keep-alive is honored only while not shutting down — a
        // draining server must not invite follow-up requests.
        let keep = request.wants_keep_alive()
            && !self.draining
            && !self.inner.shutting_down.load(Ordering::SeqCst);
        let rs = ReqState {
            ctx,
            started,
            method: request.method.clone(),
            path: request.path.clone(),
            keep,
        };
        let v2 = request.path == "/v2/align/topk";
        let is_topk = request.method == "POST" && (v2 || request.path == "/v1/align/topk");
        if request.method == "POST" && request.path == "/v1/admin/swap" {
            self.dispatch_swap(token, &request, rs);
            return;
        }
        if !is_topk {
            self.inner.in_flight.fetch_add(1, Ordering::Relaxed);
            let reply = {
                let _scope = rs.ctx.enter();
                route(&self.inner, &request, started)
            };
            self.inner.in_flight.fetch_sub(1, Ordering::Relaxed);
            self.respond(token, reply, &rs);
            return;
        }
        galign_telemetry::counter_add(
            if v2 {
                "serve.route.topk_v2"
            } else {
                "serve.route.topk"
            },
            1,
        );
        self.inner.in_flight.fetch_add(1, Ordering::Relaxed);
        // Capture the trace context *under* this request's context so
        // worker-side stages land in this trace across the thread hop.
        let handle = {
            let _scope = rs.ctx.enter();
            PropagationHandle::capture()
        };
        // Clamp this request's deadline to the remaining budget the
        // caller advertised, if any: a hop that arrives with 40ms of
        // client patience left must not sit in the coalescer for the
        // server's full default deadline.
        let deadline = match request
            .header(DEADLINE_HEADER)
            .and_then(|v| v.trim().parse::<u64>().ok())
        {
            Some(budget_ms) => {
                let budget = Duration::from_millis(budget_ms);
                if budget < self.inner.cfg.deadline {
                    galign_telemetry::counter_add("serve.topk.deadline_clamped", 1);
                }
                budget.min(self.inner.cfg.deadline)
            }
            None => self.inner.cfg.deadline,
        };
        let job = Job::new(
            token,
            request.body,
            v2,
            handle,
            self.inner.generation(),
            started,
            deadline,
        );
        // Increment before enqueue: a worker may flush (and decrement)
        // the instant the job lands, and incrementing afterwards would
        // let the counter underflow, which /healthz would read as a
        // saturated queue.
        self.inner.pending.fetch_add(1, Ordering::Relaxed);
        match self.co.enqueue(job) {
            Ok(()) => {
                self.reqs.insert(token, rs);
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.state = ConnState::Dispatched;
                    set_interest(&self.poller, conn, token, false, false);
                }
            }
            Err(_refused) => {
                self.inner.pending.fetch_sub(1, Ordering::Relaxed);
                self.inner.in_flight.fetch_sub(1, Ordering::Relaxed);
                self.inner.shed_total.fetch_add(1, Ordering::Relaxed);
                galign_telemetry::counter_add("serve.http.shed", 1);
                let rs = ReqState { keep: false, ..rs };
                self.respond(
                    token,
                    Reply::json(503, error_body("server overloaded, retry later")),
                    &rs,
                );
            }
        }
    }

    /// `POST /v1/admin/swap` runs off the loop: loading an artifact means
    /// reading and deserializing a potentially large file, which inline
    /// would stall every connection (reads, writes, accepts, timeouts)
    /// for the full load. The connection parks as `Dispatched` — exactly
    /// like a coalesced top-k job — and a short-lived thread performs the
    /// load and sends the reply back through the completion channel.
    /// Swaps are rare admin operations, so a thread per swap is fine.
    fn dispatch_swap(&mut self, token: u64, request: &Request, rs: ReqState) {
        galign_telemetry::counter_add("serve.route.swap", 1);
        self.inner.in_flight.fetch_add(1, Ordering::Relaxed);
        self.reqs.insert(token, rs);
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.state = ConnState::Dispatched;
            set_interest(&self.poller, conn, token, false, false);
        }
        let inner = Arc::clone(&self.inner);
        let done_tx = self.done_tx.clone();
        let wake_tx = self.wake_tx.try_clone().ok();
        let body = request.body.clone();
        std::thread::spawn(move || {
            let reply = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                swap_route(&inner, &body)
            }))
            .unwrap_or_else(|_| Reply::json(500, error_body("internal server error")));
            if done_tx.send(Completion { token, reply }).is_ok() {
                if let Some(wake_tx) = &wake_tx {
                    evloop::wake(wake_tx);
                }
            }
        });
    }

    /// Renders a reply onto the connection, runs the request's metrics
    /// and trace tail, and starts draining the bytes. Works (minus the
    /// write) even when the connection has since closed.
    fn respond(&mut self, token: u64, mut reply: Reply, rs: &ReqState) {
        if reply.generation == 0 {
            reply.generation = self.inner.generation().number;
        }
        let mut extra_headers = vec![
            (TRACE_HEADER, rs.ctx.trace_id().to_hex()),
            (GENERATION_HEADER, reply.generation.to_string()),
        ];
        // Every 503 this server emits means "overloaded, come back
        // later", so they all carry Retry-After.
        if reply.status == 503 {
            extra_headers.push(("retry-after", self.inner.cfg.retry_after_secs.to_string()));
        }
        if let Some(conn) = self.conns.get_mut(&token) {
            if conn.served > 0 {
                galign_telemetry::counter_add("serve.http.keepalive.reused", 1);
            }
            let mut out = Vec::with_capacity(reply.body.len() + 256);
            let _ = http::write_response_with_options(
                &mut out,
                reply.status,
                reply.content_type,
                &extra_headers,
                reply.body.as_bytes(),
                rs.keep,
            );
            conn.out = out;
            conn.out_pos = 0;
            conn.state = ConnState::Writing;
            conn.keep_after_write = rs.keep;
            conn.deadline = Instant::now() + self.inner.cfg.request_timeout;
        }
        if galign_telemetry::metrics_enabled() {
            galign_telemetry::counter_add("serve.http.requests", 1);
            galign_telemetry::counter_add(
                match reply.status {
                    200 => "serve.http.status.2xx",
                    500..=599 => "serve.http.status.5xx",
                    _ => "serve.http.status.4xx",
                },
                1,
            );
            galign_telemetry::gauge_set(
                "serve.in_flight",
                self.inner.in_flight.load(Ordering::Relaxed) as f64,
            );
            galign_telemetry::gauge_set(
                "serve.pending",
                self.inner.pending.load(Ordering::Relaxed) as f64,
            );
            galign_telemetry::histogram_record(
                "serve.request.ms",
                rs.started.elapsed().as_secs_f64() * 1e3,
            );
        }
        finish_trace(
            &self.inner,
            &rs.ctx,
            &rs.method,
            &rs.path,
            &reply,
            rs.started,
        );
        self.advance_write(token);
    }

    /// Pushes pending response bytes; on completion either re-arms the
    /// connection for its next request or closes it.
    fn advance_write(&mut self, token: u64) {
        enum After {
            None,
            Close,
            Pipeline,
        }
        let after = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.state != ConnState::Writing {
                return;
            }
            let mut after = After::None;
            loop {
                if conn.out_pos >= conn.out.len() {
                    conn.out.clear();
                    conn.out_pos = 0;
                    if !conn.keep_after_write || conn.read_closed || self.draining {
                        after = After::Close;
                    } else {
                        conn.state = ConnState::Reading;
                        conn.served += 1;
                        set_interest(&self.poller, conn, token, true, false);
                        if conn.buf.is_empty() {
                            conn.deadline = Instant::now()
                                + self.inner.cfg.keep_alive_idle.max(Duration::from_millis(1));
                        } else {
                            // Pipelined bytes already buffered: treat them
                            // as an in-progress request, not idle time.
                            conn.deadline = Instant::now() + self.inner.cfg.request_timeout;
                            after = After::Pipeline;
                        }
                    }
                    break;
                }
                match conn.stream.write(&conn.out[conn.out_pos..]) {
                    Ok(0) => {
                        after = After::Close;
                        break;
                    }
                    Ok(n) => conn.out_pos += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        set_interest(&self.poller, conn, token, false, true);
                        break;
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        after = After::Close;
                        break;
                    }
                }
            }
            after
        };
        match after {
            After::None => {}
            After::Close => self.close_conn(token),
            After::Pipeline => self.try_advance(token),
        }
    }

    /// Enforces per-connection progress deadlines. Dispatched
    /// connections are exempt — the worker-side request deadline decides
    /// their fate.
    fn check_timeouts(&mut self) {
        let now = Instant::now();
        let expired: Vec<(u64, bool)> = self
            .conns
            .iter()
            .filter(|(_, c)| c.state != ConnState::Dispatched && now >= c.deadline)
            .map(|(&t, c)| {
                // A fresh connection whose first request never arrived
                // gets a 408; an idle keep-alive connection (or a stalled
                // response drain) closes silently — an unsolicited 408
                // could be read as the response to the next pooled
                // request.
                let first_request_stalled =
                    c.state == ConnState::Reading && c.served == 0 && !c.read_closed;
                (t, first_request_stalled)
            })
            .collect();
        for (token, timed_out) in expired {
            if timed_out {
                let rs = ReqState {
                    ctx: TraceContext::root(TraceId::generate()),
                    started: now,
                    method: "-".to_string(),
                    path: "-".to_string(),
                    keep: false,
                };
                self.respond(
                    token,
                    Reply::json(408, error_body("request timed out")),
                    &rs,
                );
            } else {
                self.close_conn(token);
            }
        }
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            if conn.registered {
                let _ = self.poller.deregister(evloop::fd_of(&conn.stream), token);
            }
        }
    }
}

/// Completes a request's observability tail: one flight-recorder entry
/// and (when configured) one access-log JSONL line, both carrying the
/// trace id echoed in the response header. `method`/`path` are `"-"` for
/// requests that never parsed.
fn finish_trace(
    inner: &Inner,
    trace: &TraceContext,
    method: &str,
    path: &str,
    reply: &Reply,
    started: Instant,
) {
    let (events, notes) = trace.take_events();
    let total_us = started.elapsed().as_micros() as u64;
    let deadline_remaining_us = inner
        .cfg
        .deadline
        .saturating_sub(started.elapsed())
        .as_micros() as u64;
    if let Some(log) = &inner.access_log {
        let mut line = format!(
            "{{\"ms\":{},\"trace\":\"{}\",\"method\":\"{}\",\"path\":\"{}\",\"status\":{},\"engine\":\"{}\",\"us\":{total_us},\"deadline_remaining_us\":{deadline_remaining_us}",
            json::fmt_f64(galign_telemetry::clock_ms()),
            trace.trace_id(),
            json::escape(method),
            json::escape(path),
            reply.status,
            reply.engine,
        );
        for (key, value) in &notes {
            line.push_str(&format!(",\"{}\":{value}", json::escape(key)));
        }
        line.push('}');
        let mut w = log.lock().expect("access log lock");
        let _ = writeln!(w, "{line}");
    }
    inner.flight.record(TraceRecord {
        trace_id: trace.trace_id(),
        kind: RecordKind::Request,
        name: format!("{method} {path}"),
        status: reply.status,
        engine: reply.engine.to_string(),
        end_ms: galign_telemetry::clock_ms(),
        total_us,
        events,
        notes,
        fields: Vec::new(),
    });
}

pub(crate) fn error_body(msg: &str) -> String {
    format!("{{\"error\":\"{}\"}}", json::escape(msg))
}

fn route(inner: &Inner, request: &Request, started: Instant) -> Reply {
    // One generation per request: everything below reads `generation`,
    // never the swap slot, so a concurrent hot swap cannot hand a request
    // a mix of old and new data.
    let generation = inner.generation();
    let mut reply = match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            galign_telemetry::counter_add("serve.route.healthz", 1);
            Reply::json(200, healthz(inner, &generation))
        }
        ("POST", "/v1/align/topk") => {
            galign_telemetry::counter_add("serve.route.topk", 1);
            topk_route(inner, &generation, &request.body, started)
        }
        ("POST", "/v2/align/topk") => {
            galign_telemetry::counter_add("serve.route.topk_v2", 1);
            batch::run_single(inner, &generation, &request.body, started, true)
        }
        ("GET", "/metrics") => {
            galign_telemetry::counter_add("serve.route.metrics", 1);
            // Refresh the load gauges so the snapshot reflects *now*, not
            // the last completed request.
            galign_telemetry::gauge_set(
                "serve.in_flight",
                inner.in_flight.load(Ordering::Relaxed) as f64,
            );
            galign_telemetry::gauge_set(
                "serve.pending",
                inner.pending.load(Ordering::Relaxed) as f64,
            );
            // Index engine state: whether an ANN index is attached and the
            // `auto` switchover point. Candidate-set sizes arrive as the
            // `index.search.candidates` histogram from galign-index.
            galign_telemetry::gauge_set(
                "serve.index.ann_attached",
                if generation.index.has_ann() { 1.0 } else { 0.0 },
            );
            galign_telemetry::gauge_set(
                "serve.index.auto_threshold",
                generation.index.auto_threshold() as f64,
            );
            set_artifact_gauges(&generation.index);
            if request.query_param("format") == Some("prometheus") {
                Reply {
                    status: 200,
                    content_type: galign_telemetry::prom::CONTENT_TYPE,
                    body: galign_telemetry::prom::render(&galign_telemetry::snapshot()),
                    engine: "",
                    generation: 0,
                }
            } else {
                Reply::json(200, galign_telemetry::snapshot_json())
            }
        }
        ("GET", "/v1/debug/requests") => {
            galign_telemetry::counter_add("serve.route.debug_requests", 1);
            Reply::json(200, inner.flight.to_json())
        }
        ("POST", "/v1/admin/shutdown") => {
            galign_telemetry::info!("serve", "shutdown requested via admin endpoint");
            begin_shutdown(inner);
            Reply::json(200, "{\"status\":\"shutting-down\"}".to_string())
        }
        // The event loop never routes swaps here — `dispatch_swap`
        // intercepts them so the artifact load runs off the loop. This
        // arm serves direct `route()` callers (tests).
        ("POST", "/v1/admin/swap") => {
            galign_telemetry::counter_add("serve.route.swap", 1);
            swap_route(inner, &request.body)
        }
        ("GET" | "HEAD", "/v1/align/topk" | "/v2/align/topk")
        | ("POST", "/healthz" | "/metrics" | "/v1/debug/requests")
        | ("GET", "/v1/admin/swap" | "/v1/admin/shutdown") => {
            Reply::json(405, error_body("wrong method for this path"))
        }
        _ => Reply::json(404, error_body("no such endpoint")),
    };
    if reply.generation == 0 {
        reply.generation = generation.number;
    }
    reply
}

/// `POST /v1/align/topk`: the single-query path, served through the same
/// planning/execution code as a coalesced batch of one.
fn topk_route(inner: &Inner, generation: &Arc<Generation>, body: &[u8], started: Instant) -> Reply {
    batch::run_single(inner, generation, body, started, false)
}

/// `POST /v1/admin/swap` with `{"artifact": "/path"}`: loads the artifact
/// and installs it as the next generation.
fn swap_route(inner: &Inner, body: &[u8]) -> Reply {
    let parse = || -> Result<String, String> {
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        doc.get("artifact")
            .and_then(|v| v.as_str())
            .map(str::to_string)
            .ok_or_else(|| "body needs \"artifact\" (path string)".to_string())
    };
    let path = match parse() {
        Ok(p) => p,
        Err(msg) => return Reply::json(400, error_body(&msg)),
    };
    match swap_from_path(inner, &path) {
        Ok(number) => {
            galign_telemetry::info!("serve", "admin swap: {path} is now generation {number}");
            let mut reply = Reply::json(
                200,
                format!("{{\"status\":\"swapped\",\"generation\":{number}}}"),
            );
            // Stamp the *new* generation: the caller's next query sees it.
            reply.generation = number;
            reply
        }
        Err(msg) => {
            galign_telemetry::counter_add("serve.swap.errors", 1);
            Reply::json(400, error_body(&msg))
        }
    }
}

fn healthz(inner: &Inner, generation: &Generation) -> String {
    let pending = inner.pending.load(Ordering::Relaxed);
    let in_flight = inner.in_flight.load(Ordering::Relaxed);
    let shed_total = inner.shed_total.load(Ordering::Relaxed);
    // Degraded = the pending queue is at least half full: requests are
    // still served but the next burst will start shedding. An absent ANN
    // index is NOT degraded — exact-only serving is a fully correct mode,
    // just linear-time; the `index` field says which it is.
    let degraded = pending.saturating_mul(2) >= inner.cfg.queue_depth.max(1) as u64;
    let status = if degraded { "degraded" } else { "ok" };
    // Health transitions drive the flight recorder: flipping to degraded
    // freezes it (preserving the window of traces that *led into* the
    // incident), recovering thaws it. Both transitions are logged as
    // incidents so the timeline shows when and why the window froze.
    if degraded != inner.health_degraded.swap(degraded, Ordering::AcqRel) {
        if degraded {
            // The incident marker goes in *before* the freeze so it is the
            // newest record inside the preserved window.
            flight::record_incident(
                "serve.health.degraded",
                vec![("pending".to_string(), pending.to_string())],
            );
            if inner.flight.freeze() {
                galign_telemetry::info!(
                    "serve",
                    "health degraded (pending {pending}): flight recorder frozen"
                );
            }
        } else {
            inner.flight.unfreeze();
            flight::record_incident("serve.health.recovered", Vec::new());
            galign_telemetry::info!("serve", "health recovered: flight recorder thawed");
        }
    }
    // Shard nodes advertise their slice so a router can discover the
    // topology by probing /healthz. The parent checksum is hex — u64
    // values can exceed what a float-backed JSON reader keeps exact.
    let shard = match generation.index.shard_manifest() {
        Some(m) => format!(
            ",\"shard\":{{\"shard_id\":{},\"num_shards\":{},\"start\":{},\"end\":{},\"parent_targets\":{},\"parent_checksum\":\"{:016x}\"}}",
            m.shard_id, m.num_shards, m.start, m.end, m.parent_targets, m.parent_checksum,
        ),
        None => String::new(),
    };
    format!(
        "{{\"status\":\"{status}\",\"source_nodes\":{},\"target_nodes\":{},\"layers\":{},\"workers\":{},\"cache_entries\":{},\"pending\":{pending},\"in_flight\":{in_flight},\"shed_total\":{shed_total},\"queue_depth\":{},\"index\":\"{}\",\"mode\":\"{}\",\"quant\":\"{}\",\"quant_available\":\"{}\",\"artifact_f64_bytes\":{},\"artifact_quant_bytes\":{},\"generation\":{}{shard}}}",
        generation.index.source_nodes(),
        generation.index.target_nodes(),
        generation.index.num_layers(),
        inner.cfg.workers.max(1),
        inner.cache.len(),
        inner.cfg.queue_depth,
        generation
            .index
            .ann_backend()
            .map_or("none", galign_index::Backend::name),
        inner.cfg.default_mode,
        inner.cfg.quant,
        generation
            .index
            .quant_available()
            .map_or("none", QuantMode::name),
        generation.index.f64_resident_bytes(),
        generation.index.quant_resident_bytes(),
        generation.number,
    )
}

/// The 3×2 single-layer index most server/batch unit tests run against.
#[cfg(test)]
pub(crate) fn test_index() -> TopkIndex {
    use crate::artifact::{Artifact, Mat};
    let m = Mat::new(3, 2, vec![1.0, 0.0, 0.0, 1.0, 0.7, 0.7]).unwrap();
    TopkIndex::from_artifact(Artifact::new(vec![1.0], vec![m.clone()], vec![m], false).unwrap())
}

/// An [`Inner`] over [`test_index`] without any sockets, for unit tests
/// here and in [`crate::batch`].
#[cfg(test)]
pub(crate) fn test_inner_with(cfg: ServerConfig) -> Inner {
    Inner {
        index: generation_slot(test_index()),
        cache: ShardedCache::new(64, 2),
        cfg,
        addr: "127.0.0.1:0".parse().unwrap(),
        shutting_down: AtomicBool::new(false),
        pending: AtomicU64::new(0),
        in_flight: AtomicU64::new(0),
        shed_total: AtomicU64::new(0),
        // A private recorder per test Inner: freeze/thaw tests must
        // not interfere with the process-global one.
        flight: Box::leak(Box::new(FlightRecorder::new(32, 4))),
        health_degraded: AtomicBool::new(false),
        access_log: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{Artifact, Mat};

    fn test_inner() -> Inner {
        test_inner_with(ServerConfig::default())
    }

    /// `(status, body)` view of a route reply, for assertion brevity.
    fn topk_route2(inner: &Inner, body: &[u8], started: Instant) -> (u16, String) {
        let generation = inner.generation();
        let r = topk_route(inner, &generation, body, started);
        (r.status, r.body)
    }

    /// Current-generation healthz body, for assertion brevity.
    fn healthz2(inner: &Inner) -> String {
        healthz(inner, &inner.generation())
    }

    #[test]
    fn topk_route_happy_path_and_cache() {
        let inner = test_inner();
        let (status, body) = topk_route2(&inner, br#"{"nodes":[0,1],"k":2}"#, Instant::now());
        assert_eq!(status, 200, "{body}");
        let doc = json::parse(&body).unwrap();
        let results = doc.get("results").unwrap().as_arr().unwrap();
        assert_eq!(results.len(), 2);
        let first = results[0].get("matches").unwrap().as_arr().unwrap();
        assert_eq!(first[0].get("target").unwrap().as_usize(), Some(0));
        // Second identical request is served from the cache.
        let (status2, body2) = topk_route2(&inner, br#"{"nodes":[0,1],"k":2}"#, Instant::now());
        assert_eq!(status2, 200);
        assert_eq!(body, body2);
        let (hits, misses) = inner.cache.stats();
        assert_eq!((hits, misses), (2, 2));
    }

    #[test]
    fn topk_route_rejects_bad_bodies() {
        let inner = test_inner();
        for (body, needle) in [
            (&b"not json"[..], "invalid JSON"),
            (br#"{}"#, "nodes"),
            (br#"{"nodes":[]}"#, "empty"),
            (br#"{"nodes":[0],"k":0}"#, "k"),
            (br#"{"nodes":[0],"k":100000}"#, "limit"),
            (br#"{"nodes":[99]}"#, "out of range"),
            (br#"{"nodes":[0],"theta":[1.0,2.0]}"#, "theta"),
            (br#"{"nodes":[-1]}"#, "non-negative"),
        ] {
            let (status, msg) = topk_route2(&inner, body, Instant::now());
            assert_eq!(status, 400, "body {body:?} gave {msg}");
            assert!(
                msg.to_lowercase().contains(&needle.to_lowercase()),
                "error {msg:?} should mention {needle:?}"
            );
        }
    }

    #[test]
    fn exceeded_deadline_returns_503() {
        let inner = test_inner_with(ServerConfig {
            deadline: Duration::ZERO,
            ..ServerConfig::default()
        });
        let (status, body) = topk_route2(&inner, br#"{"nodes":[0]}"#, Instant::now());
        assert_eq!(status, 503, "{body}");
        assert!(body.contains("deadline"), "{body}");
    }

    #[test]
    fn healthz_reports_load_and_degrades_when_queue_fills() {
        let inner = test_inner_with(ServerConfig {
            queue_depth: 4,
            ..ServerConfig::default()
        });
        inner.in_flight.store(3, Ordering::Relaxed);
        inner.shed_total.store(7, Ordering::Relaxed);
        let doc = json::parse(&healthz2(&inner)).unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(doc.get("in_flight").unwrap().as_usize(), Some(3));
        assert_eq!(doc.get("shed_total").unwrap().as_usize(), Some(7));
        assert_eq!(doc.get("queue_depth").unwrap().as_usize(), Some(4));
        // Half-full pending queue flips the status to degraded.
        inner.pending.store(2, Ordering::Relaxed);
        let doc = json::parse(&healthz2(&inner)).unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("degraded"));
        assert_eq!(doc.get("pending").unwrap().as_usize(), Some(2));
    }

    #[test]
    fn single_node_form_and_theta_override() {
        let inner = test_inner();
        let (status, body) =
            topk_route2(&inner, br#"{"node":2,"k":1,"theta":[1.0]}"#, Instant::now());
        assert_eq!(status, 200, "{body}");
        let doc = json::parse(&body).unwrap();
        let matches = doc.get("results").unwrap().as_arr().unwrap()[0]
            .get("matches")
            .unwrap()
            .as_arr()
            .unwrap();
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].get("target").unwrap().as_usize(), Some(2));
    }

    #[test]
    fn mode_field_routes_and_reports_engine() {
        let inner = test_inner();
        // No ANN index attached: every mode serves exact, 200, engine
        // "exact" — absence of the index is degraded-capability, not error.
        for mode in ["exact", "ann", "auto"] {
            let body = format!("{{\"nodes\":[0],\"k\":1,\"mode\":\"{mode}\"}}");
            let (status, out) = topk_route2(&inner, body.as_bytes(), Instant::now());
            assert_eq!(status, 200, "{out}");
            let doc = json::parse(&out).unwrap();
            assert_eq!(doc.get("engine").unwrap().as_str(), Some("exact"));
        }
        let (status, out) = topk_route2(&inner, br#"{"nodes":[0],"mode":"warp"}"#, Instant::now());
        assert_eq!(status, 400);
        assert!(out.contains("mode"), "{out}");
    }

    #[test]
    fn ann_engine_reported_and_cached_separately() {
        let mut index = test_index();
        index.build_ann(crate::topk::Backend::Ivf).unwrap();
        index.set_auto_threshold(1);
        let inner = test_inner();
        install_index(&inner, index);
        let (status, out) = topk_route2(
            &inner,
            br#"{"nodes":[0],"k":2,"mode":"ann"}"#,
            Instant::now(),
        );
        assert_eq!(status, 200, "{out}");
        let doc = json::parse(&out).unwrap();
        assert_eq!(doc.get("engine").unwrap().as_str(), Some("ann"));
        // An exact request for the same node must miss the ANN entry.
        let (_, out2) = topk_route2(
            &inner,
            br#"{"nodes":[0],"k":2,"mode":"exact"}"#,
            Instant::now(),
        );
        let doc2 = json::parse(&out2).unwrap();
        assert_eq!(doc2.get("engine").unwrap().as_str(), Some("exact"));
        let (hits, misses) = inner.cache.stats();
        assert_eq!((hits, misses), (0, 2), "engines must not share entries");
        // Tiny n: ANN+re-rank and exact agree bit-for-bit.
        assert_eq!(
            doc.get("results").unwrap().as_arr().unwrap().len(),
            doc2.get("results").unwrap().as_arr().unwrap().len()
        );
    }

    #[test]
    fn healthz_reports_index_state_and_stays_ok_without_ann() {
        let inner = test_inner();
        let doc = json::parse(&healthz2(&inner)).unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(doc.get("index").unwrap().as_str(), Some("none"));
        let with_ann = test_inner();
        let mut index = test_index();
        index.build_ann(crate::topk::Backend::Hnsw).unwrap();
        install_index(&with_ann, index);
        let doc = json::parse(&healthz2(&with_ann)).unwrap();
        assert_eq!(doc.get("index").unwrap().as_str(), Some("hnsw"));
        assert_eq!(doc.get("mode").unwrap().as_str(), Some("auto"));
    }

    #[test]
    fn healthz_reports_quant_state_and_artifact_bytes() {
        let inner = test_inner();
        let doc = json::parse(&healthz2(&inner)).unwrap();
        // The plain test artifact has no panels and the default config
        // serves f64 scans.
        assert_eq!(doc.get("quant").unwrap().as_str(), Some("off"));
        assert_eq!(doc.get("quant_available").unwrap().as_str(), Some("none"));
        let f64_bytes = doc.get("artifact_f64_bytes").unwrap().as_usize().unwrap();
        // 3×2 f64 rows on each side of one layer.
        assert_eq!(f64_bytes, 2 * 3 * 2 * 8);
        assert_eq!(doc.get("artifact_quant_bytes").unwrap().as_usize(), Some(0));
        // A quantized artifact advertises its resident encoding and a
        // non-zero quantized footprint.
        let with_quant = test_inner_with(ServerConfig {
            quant: crate::topk::QuantMode::Int8,
            ..ServerConfig::default()
        });
        let artifact = crate::artifact::tests::quantizable_artifact(7)
            .with_quant(galign_quant::QuantMode::Int8, true)
            .unwrap();
        install_index(&with_quant, TopkIndex::from_artifact(artifact));
        let doc = json::parse(&healthz2(&with_quant)).unwrap();
        assert_eq!(doc.get("quant").unwrap().as_str(), Some("int8"));
        assert_eq!(doc.get("quant_available").unwrap().as_str(), Some("int8"));
        assert!(doc.get("artifact_quant_bytes").unwrap().as_usize().unwrap() > 0);
    }

    #[test]
    fn routing_table() {
        let inner = test_inner();
        let req = |method: &str, path: &str| Request {
            method: method.into(),
            path: path.into(),
            query: String::new(),
            headers: vec![],
            body: br#"{"nodes":[0]}"#.to_vec(),
        };
        let now = Instant::now;
        assert_eq!(route(&inner, &req("GET", "/healthz"), now()).status, 200);
        assert_eq!(route(&inner, &req("GET", "/metrics"), now()).status, 200);
        assert_eq!(
            route(&inner, &req("POST", "/v1/align/topk"), now()).status,
            200
        );
        assert_eq!(
            route(&inner, &req("GET", "/v1/align/topk"), now()).status,
            405
        );
        assert_eq!(
            route(&inner, &req("GET", "/v2/align/topk"), now()).status,
            405
        );
        assert_eq!(route(&inner, &req("POST", "/metrics"), now()).status, 405);
        assert_eq!(
            route(&inner, &req("POST", "/v1/debug/requests"), now()).status,
            405
        );
        assert_eq!(
            route(&inner, &req("GET", "/v1/debug/requests"), now()).status,
            200
        );
        assert_eq!(
            route(&inner, &req("GET", "/v1/admin/swap"), now()).status,
            405
        );
        assert_eq!(route(&inner, &req("GET", "/nope"), now()).status, 404);
        // v2 takes the batch envelope, not a bare query object.
        let mut v2 = req("POST", "/v2/align/topk");
        assert_eq!(route(&inner, &v2, now()).status, 400);
        v2.body = br#"{"queries":[{"nodes":[0]}]}"#.to_vec();
        let reply = route(&inner, &v2, now());
        assert_eq!(reply.status, 200, "{}", reply.body);
        assert!(reply.body.starts_with("{\"results\":["), "{}", reply.body);
        let health = route(&inner, &req("GET", "/healthz"), now()).body;
        let doc = json::parse(&health).unwrap();
        assert_eq!(doc.get("source_nodes").unwrap().as_usize(), Some(3));
        assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"));
    }

    #[test]
    fn swap_installs_next_generation_and_clears_cache() {
        let inner = test_inner();
        let (status, body) = topk_route2(&inner, br#"{"nodes":[0],"k":2}"#, Instant::now());
        assert_eq!(status, 200, "{body}");
        assert_eq!(inner.cache.len(), 1);
        assert_eq!(inner.generation().number, 1);
        // Write a fresh (different-data) artifact and swap to it.
        let m = Mat::new(3, 2, vec![0.0, 1.0, 1.0, 0.0, 0.5, 0.5]).unwrap();
        let artifact = Artifact::new(vec![1.0], vec![m.clone()], vec![m], false).unwrap();
        let dir = std::env::temp_dir().join("galign-serve-swap-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("next.galign");
        std::fs::write(&path, artifact.to_bytes()).unwrap();
        let body = format!("{{\"artifact\":\"{}\"}}", path.display());
        let reply = swap_route(&inner, body.as_bytes());
        assert_eq!(reply.status, 200, "{}", reply.body);
        assert!(reply.body.contains("\"generation\":2"), "{}", reply.body);
        assert_eq!(inner.generation().number, 2);
        assert_eq!(inner.cache.len(), 0, "swap must clear cached hits");
        let doc = json::parse(&healthz2(&inner)).unwrap();
        assert_eq!(doc.get("generation").unwrap().as_usize(), Some(2));
        // Bad bodies and unreadable paths are 400s, not crashes.
        assert_eq!(swap_route(&inner, b"{}").status, 400);
        assert_eq!(
            swap_route(&inner, br#"{"artifact":"/no/such/file"}"#).status,
            400
        );
        assert_eq!(inner.generation().number, 2, "failed swaps install nothing");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn request_pinned_to_old_generation_cannot_poison_the_cache() {
        let inner = test_inner();
        // Pin a generation, then let a swap land "mid-request".
        let pinned = inner.generation();
        install_index(&inner, test_index());
        assert_eq!(inner.generation().number, 2);
        // The pinned request finishes and inserts under its own (old)
        // generation key...
        let reply = topk_route(&inner, &pinned, br#"{"nodes":[0],"k":2}"#, Instant::now());
        assert_eq!(reply.status, 200);
        assert_eq!(reply.generation, 1, "reply reports the generation it used");
        // ...so a post-swap request misses it and recomputes.
        let (hits_before, _) = inner.cache.stats();
        let reply2 = topk_route2(&inner, br#"{"nodes":[0],"k":2}"#, Instant::now());
        assert_eq!(reply2.0, 200);
        let (hits_after, misses) = inner.cache.stats();
        assert_eq!(hits_after, hits_before, "stale entry must not be served");
        assert_eq!(misses, 2);
    }

    #[test]
    fn shard_identity_guard_blocks_range_changes() {
        let m = Mat::new(3, 2, vec![1.0, 0.0, 0.0, 1.0, 0.7, 0.7]).unwrap();
        let parent = Artifact::new(vec![1.0], vec![m.clone()], vec![m], false).unwrap();
        let shards = parent.split(2, None).unwrap();
        let idx = |a: &Artifact| TopkIndex::from_artifact(a.clone());
        // Same slice, fresh data: allowed. Different slice or shard/plain
        // mixing: refused.
        assert!(shard_identity_ok(&idx(&shards[0]), &idx(&shards[0])).is_ok());
        assert!(shard_identity_ok(&idx(&shards[0]), &idx(&shards[1])).is_err());
        assert!(shard_identity_ok(&idx(&shards[0]), &idx(&parent)).is_err());
        assert!(shard_identity_ok(&idx(&parent), &idx(&shards[0])).is_err());
        assert!(shard_identity_ok(&idx(&parent), &idx(&parent)).is_ok());
    }

    #[test]
    fn healthz_advertises_shard_manifest() {
        let m = Mat::new(3, 2, vec![1.0, 0.0, 0.0, 1.0, 0.7, 0.7]).unwrap();
        let parent = Artifact::new(vec![1.0], vec![m.clone()], vec![m], false).unwrap();
        let checksum = parent.target_checksum();
        let shard = parent.split(3, None).unwrap().remove(1);
        let inner = test_inner();
        install_index(&inner, TopkIndex::from_artifact(shard));
        let doc = json::parse(&healthz2(&inner)).unwrap();
        let shard = doc.get("shard").expect("shard block");
        assert_eq!(shard.get("shard_id").unwrap().as_usize(), Some(1));
        assert_eq!(shard.get("num_shards").unwrap().as_usize(), Some(3));
        assert_eq!(shard.get("start").unwrap().as_usize(), Some(1));
        assert_eq!(shard.get("end").unwrap().as_usize(), Some(2));
        assert_eq!(
            shard.get("parent_checksum").unwrap().as_str(),
            Some(format!("{checksum:016x}").as_str())
        );
    }

    #[test]
    fn prometheus_format_renders_and_validates() {
        let inner = test_inner();
        galign_telemetry::counter_add("serve.route.metrics", 1);
        let req = Request {
            method: "GET".into(),
            path: "/metrics".into(),
            query: "format=prometheus".into(),
            headers: vec![],
            body: vec![],
        };
        let reply = route(&inner, &req, Instant::now());
        assert_eq!(reply.status, 200);
        assert_eq!(reply.content_type, galign_telemetry::prom::CONTENT_TYPE);
        galign_telemetry::prom::validate_exposition(&reply.body).expect("valid exposition");
    }

    #[test]
    fn flight_recorder_captures_routed_requests() {
        let inner = test_inner();
        let trace = galign_telemetry::TraceContext::root(galign_telemetry::TraceId::generate());
        let trace_id = trace.trace_id();
        let request = Request {
            method: "POST".into(),
            path: "/v1/align/topk".into(),
            query: String::new(),
            headers: vec![],
            body: br#"{"nodes":[0],"k":1}"#.to_vec(),
        };
        let started = Instant::now();
        let reply = {
            let _guard = trace.enter();
            route(&inner, &request, started)
        };
        assert_eq!(reply.status, 200);
        finish_trace(&inner, &trace, "POST", "/v1/align/topk", &reply, started);
        let rec = inner
            .flight
            .find(trace_id)
            .expect("flight recorder holds the trace");
        assert_eq!(rec.status, 200);
        assert_eq!(rec.name, "POST /v1/align/topk");
        assert!(
            rec.events.iter().any(|e| e.name == "parse"),
            "expected a parse stage span, got {:?}",
            rec.events.iter().map(|e| e.name).collect::<Vec<_>>()
        );
        // The debug endpoint serves the same record.
        let dump = inner.flight.to_json();
        assert!(dump.contains(&trace_id.to_hex()));
    }

    #[test]
    fn builder_overrides_defaults() {
        let cfg = ServerConfig::builder()
            .workers(2)
            .max_k(50)
            .deadline(Duration::from_secs(1))
            .batch_window(Duration::from_millis(1))
            .batch_cap(8)
            .max_connections(99)
            .ann_threshold(12)
            .generation_pointer("/tmp/galign-pointer")
            .build();
        assert_eq!(cfg.workers, 2);
        assert_eq!(cfg.max_k, 50);
        assert_eq!(cfg.batch_cap, 8);
        assert_eq!(cfg.max_connections, 99);
        assert_eq!(cfg.ann_threshold, Some(12));
        assert_eq!(
            cfg.generation_pointer.as_deref(),
            Some(std::path::Path::new("/tmp/galign-pointer"))
        );
        // Unset fields keep their defaults.
        assert_eq!(cfg.default_k, ServerConfig::default().default_k);
    }

    #[test]
    fn v2_route_isolates_per_query_errors_and_matches_v1_bodies() {
        let inner = test_inner();
        let generation = inner.generation();
        let reply = batch::run_single(
            &inner,
            &generation,
            br#"{"queries":[{"nodes":[0,1],"k":2},{"nodes":[99],"k":1}]}"#,
            Instant::now(),
            true,
        );
        assert_eq!(reply.status, 200, "{}", reply.body);
        let doc = json::parse(&reply.body).unwrap();
        let results = doc.get("results").unwrap().as_arr().unwrap();
        assert_eq!(results.len(), 2);
        assert!(results[0].get("error").is_none());
        assert!(
            results[1]
                .get("error")
                .and_then(|v| v.as_str())
                .unwrap()
                .contains("out of range"),
            "{}",
            reply.body
        );
        // The good slot is byte-identical to the v1 answer for the same
        // query (rendered through the same TopkResponse path).
        let (status, v1) = topk_route2(&inner, br#"{"nodes":[0,1],"k":2}"#, Instant::now());
        assert_eq!(status, 200);
        let needle = format!("{{\"results\":[{v1},");
        assert!(
            reply.body.starts_with(&needle),
            "v2 slot should embed the v1 body:\n{}\nvs\n{v1}",
            reply.body
        );
    }
}
