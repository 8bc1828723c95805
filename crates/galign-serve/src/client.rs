//! A minimal std-only HTTP/1.1 client with retry, exponential backoff
//! and jitter, built for talking to [`crate::server`].
//!
//! The server sheds load with `503` + `Retry-After` instead of queueing
//! unboundedly; a client that hammers straight back defeats that
//! protection. This client cooperates:
//!
//! * transient failures (connect refused/reset, IO errors, `503`) are
//!   retried up to [`ClientConfig::max_retries`] times;
//! * the wait between attempts doubles each time (capped at
//!   [`ClientConfig::max_backoff`]) with deterministic jitter, so a
//!   thundering herd of shed clients spreads out instead of
//!   re-synchronising;
//! * a `Retry-After: N` header (seconds, as the server sends) overrides
//!   the computed backoff — the server knows its own recovery horizon
//!   better than the client's schedule does. Fractional values (`1.5`)
//!   are honored, oversized values are clamped, and malformed, negative
//!   or non-finite values are ignored in favor of the computed backoff —
//!   a proxy-mangled header must not stall or crash the client.
//!
//! Responses with other statuses (including 4xx/5xx) are returned to the
//! caller, not retried: a `400` will not become a `200` by asking again.
//!
//! ## Connection reuse
//!
//! By default ([`ClientConfig::keep_alive`]) the client sends
//! `connection: keep-alive` and pools the socket after each completed
//! response, so sequential requests to the same target reuse one TCP
//! connection instead of paying a fresh handshake each time — the
//! router's scatter fan-out sends one request per shard per query and
//! rides this pool. A pooled socket the server has since closed (idle
//! timeout, restart) fails fast on reuse and is transparently replaced
//! with one fresh connection *without* consuming a retry attempt.
//! [`Client::pool_stats`] reports connects vs reuses.
//!
//! Every logical request carries one trace id in the
//! [`crate::server::TRACE_HEADER`] header — reused from the calling
//! thread's installed [`galign_telemetry::TraceContext`] when there is
//! one, freshly generated otherwise — and that **same** id is re-sent on
//! every retry attempt, so a request that was shed twice and then served
//! shows up as one trace on the server, not three.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use galign_telemetry::TraceId;

use crate::server::{DEADLINE_HEADER, TRACE_HEADER};

/// Retry/backoff tunables.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Retries after the first attempt (total attempts = `max_retries+1`).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// TCP connect timeout per attempt.
    pub connect_timeout: Duration,
    /// Read/write timeout per attempt.
    pub io_timeout: Duration,
    /// Seed of the deterministic jitter stream (vary per client thread so
    /// concurrent clients do not back off in lockstep).
    pub jitter_seed: u64,
    /// Whether to send the `x-galign-trace-id` header (on by default).
    /// Disabling it makes the server assign its own ids — useful for A/B
    /// measurements of the propagation machinery (see the loadtest's
    /// `--untraced` flag).
    pub trace_header: bool,
    /// Whether to request `connection: keep-alive` and pool the socket
    /// between sequential requests (on by default). Off restores the
    /// historical one-connection-per-request behavior.
    pub keep_alive: bool,
    /// Retry-budget earn rate: tokens earned per logical request, i.e.
    /// the fraction of traffic that may be *extra* attempts (IO-error
    /// retries). `0.1` caps retry amplification near 10% — a brownout
    /// cannot snowball into a retry storm. `<= 0` disables the budget
    /// (unlimited retries, the historical behavior). Server-paced `503`
    /// retries are exempt: they already honor `Retry-After`.
    pub retry_budget_ratio: f64,
    /// Retry-budget token ceiling (burst headroom). Also the initial
    /// balance, so short bursts right after startup can still retry.
    pub retry_budget_cap: f64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            max_retries: 5,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            connect_timeout: Duration::from_secs(2),
            io_timeout: Duration::from_secs(10),
            jitter_seed: 1,
            trace_header: true,
            keep_alive: true,
            retry_budget_ratio: 0.1,
            retry_budget_cap: 10.0,
        }
    }
}

/// Idle sockets kept per client. One is enough for a strictly sequential
/// caller; a small headroom absorbs recycle/pop races cheaply.
const POOL_LIMIT: usize = 4;

/// Connection-pool counters of one client (see [`Client::pool_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Fresh TCP connections established.
    pub connects: u64,
    /// Requests served over a pooled (reused) socket.
    pub reuses: u64,
}

/// Ceiling honored for a server `Retry-After` hint, in seconds. A shed
/// server asking a client to come back in more than a minute is
/// indistinguishable from a corrupted header, so larger hints clamp here
/// rather than parking the client for hours.
pub const MAX_RETRY_AFTER_SECS: f64 = 60.0;

/// A parsed HTTP response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// First value of a header (name matched case-insensitively).
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy).
    #[must_use]
    pub fn body_str(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// The server's `Retry-After` hint in seconds, if present and sane.
    ///
    /// Parsed as `f64` so fractional hints (`"1.5"`) survive; malformed,
    /// negative, or non-finite values yield `None` (callers fall back to
    /// their computed backoff) and oversized hints clamp to
    /// [`MAX_RETRY_AFTER_SECS`] so a mangled header cannot stall a client
    /// for hours.
    #[must_use]
    pub fn retry_after_secs(&self) -> Option<f64> {
        let secs: f64 = self.header("retry-after")?.trim().parse().ok()?;
        if !secs.is_finite() || secs < 0.0 {
            return None;
        }
        Some(secs.min(MAX_RETRY_AFTER_SECS))
    }
}

/// Statistics of one logical request (across its retries).
#[derive(Debug, Clone, Copy, Default)]
pub struct Attempts {
    /// Attempts made (≥ 1 on success).
    pub tries: u32,
    /// How many attempts were answered with a shed `503`.
    pub shed: u32,
}

/// The retrying HTTP client.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    cfg: ClientConfig,
    jitter: std::cell::Cell<u64>,
    /// `Retry-After` seconds from the most recent shed response, consumed
    /// by the next backoff computation. Always finite, non-negative and
    /// clamped — [`Response::retry_after_secs`] filters hostile values.
    retry_after: std::cell::Cell<Option<f64>>,
    /// Idle keep-alive sockets ready for reuse (capped at [`POOL_LIMIT`]).
    /// `RefCell`, not a mutex: `Client` is deliberately `!Sync` (the
    /// jitter cells already are), so one thread owns the pool.
    pool: std::cell::RefCell<Vec<TcpStream>>,
    pool_connects: std::cell::Cell<u64>,
    pool_reuses: std::cell::Cell<u64>,
    /// Retry-budget token balance (see [`ClientConfig::retry_budget_ratio`]).
    budget: std::cell::Cell<f64>,
}

impl Client {
    /// Creates a client for `addr` (e.g. `"127.0.0.1:8080"`) with default
    /// retry policy.
    ///
    /// # Errors
    /// Address resolution failures.
    pub fn new(addr: &str) -> io::Result<Self> {
        Client::with_config(addr, ClientConfig::default())
    }

    /// Creates a client with an explicit retry policy.
    ///
    /// # Errors
    /// Address resolution failures.
    pub fn with_config(addr: &str, cfg: ClientConfig) -> io::Result<Self> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "address resolved empty"))?;
        let jitter = std::cell::Cell::new(cfg.jitter_seed.max(1));
        let budget = std::cell::Cell::new(cfg.retry_budget_cap.max(0.0));
        Ok(Client {
            addr,
            cfg,
            jitter,
            retry_after: std::cell::Cell::new(None),
            pool: std::cell::RefCell::new(Vec::new()),
            pool_connects: std::cell::Cell::new(0),
            pool_reuses: std::cell::Cell::new(0),
            budget,
        })
    }

    /// Remaining retry-budget tokens (diagnostics/tests).
    #[must_use]
    pub fn retry_budget(&self) -> f64 {
        self.budget.get()
    }

    /// Spends one retry-budget token if available. Refusals bump
    /// `client.retry_budget.exhausted`. Always grants when the budget is
    /// disabled (`retry_budget_ratio <= 0`).
    fn try_charge_retry(&self) -> bool {
        if self.cfg.retry_budget_ratio <= 0.0 {
            return true;
        }
        let balance = self.budget.get();
        if balance >= 1.0 {
            self.budget.set(balance - 1.0);
            true
        } else {
            galign_telemetry::counter_add("client.retry_budget.exhausted", 1);
            false
        }
    }

    /// Earns the per-request fraction of a token, capped at the burst
    /// ceiling.
    fn earn_retry_budget(&self) {
        if self.cfg.retry_budget_ratio > 0.0 {
            self.budget.set(
                (self.budget.get() + self.cfg.retry_budget_ratio).min(self.cfg.retry_budget_cap),
            );
        }
    }

    /// Connection-pool counters: fresh connects vs requests served over a
    /// reused socket.
    #[must_use]
    pub fn pool_stats(&self) -> PoolStats {
        PoolStats {
            connects: self.pool_connects.get(),
            reuses: self.pool_reuses.get(),
        }
    }

    /// `GET path`, with retries. A `503` that survives every retry is
    /// returned as a response, not an error.
    ///
    /// # Errors
    /// When the last attempt failed at the IO level.
    pub fn get(&self, path: &str) -> io::Result<Response> {
        self.request("GET", path, None, None).map(|(r, _, _)| r)
    }

    /// `POST path` with a JSON body, with retries. A `503` that survives
    /// every retry is returned as a response, not an error.
    ///
    /// # Errors
    /// When the last attempt failed at the IO level.
    pub fn post_json(&self, path: &str, body: &str) -> io::Result<Response> {
        self.request("POST", path, Some(body), None)
            .map(|(r, _, _)| r)
    }

    /// Like [`Client::post_json`] but also reports how many attempts (and
    /// shed responses) the request took — the loadtest uses this to prove
    /// that backoff, not luck, recovered the traffic.
    ///
    /// # Errors
    /// When the last attempt failed at the IO level.
    pub fn post_json_with_stats(&self, path: &str, body: &str) -> io::Result<(Response, Attempts)> {
        self.request("POST", path, Some(body), None)
            .map(|(r, a, _)| (r, a))
    }

    /// Like [`Client::post_json_with_stats`] but also reports the trace
    /// id the request carried, so callers can correlate the response with
    /// the server's access log and flight recorder.
    ///
    /// # Errors
    /// When the last attempt failed at the IO level.
    pub fn post_json_traced(
        &self,
        path: &str,
        body: &str,
    ) -> io::Result<(Response, Attempts, TraceId)> {
        self.request("POST", path, Some(body), None)
    }

    /// Like [`Client::post_json`], but propagates `deadline` downstream:
    /// every attempt stamps the *remaining* budget (milliseconds) into
    /// the [`DEADLINE_HEADER`] so the server can shed work it cannot
    /// finish in time, per-attempt socket timeouts shrink to the
    /// remaining budget, and the retry loop stops once the deadline has
    /// passed instead of sleeping through it.
    ///
    /// # Errors
    /// `TimedOut` when the deadline expires before any attempt produced
    /// a response; otherwise as [`Client::post_json`].
    pub fn post_json_with_deadline(
        &self,
        path: &str,
        body: &str,
        deadline: Option<Instant>,
    ) -> io::Result<Response> {
        self.request("POST", path, Some(body), deadline)
            .map(|(r, _, _)| r)
    }

    fn request(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
        deadline: Option<Instant>,
    ) -> io::Result<(Response, Attempts, TraceId)> {
        // One id per *logical* request: resolved before the retry loop so
        // every attempt — including the ones a shedding server rejects —
        // lands in the same server-side trace.
        let trace_id =
            galign_telemetry::context::current_trace_id().unwrap_or_else(TraceId::generate);
        self.earn_retry_budget();
        let mut stats = Attempts::default();
        // The last outcome: either a 503 response (returned to the caller
        // if retries run out — it is a real answer, not an IO failure) or
        // the most recent transport error.
        let mut last: Option<io::Result<Response>> = None;
        for attempt in 0..=self.cfg.max_retries {
            if attempt > 0 {
                // Retrying an IO error is *speculative* extra load — it
                // spends a retry-budget token so a brownout cannot amplify
                // into a retry storm. Retrying a shed 503 is exempt: the
                // server itself paced that retry via Retry-After.
                if matches!(last, Some(Err(_))) && !self.try_charge_retry() {
                    break;
                }
                std::thread::sleep(self.backoff(attempt));
            }
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    break;
                }
            }
            stats.tries += 1;
            match self.request_once(method, path, body, trace_id, deadline) {
                Ok(resp) if resp.status == 503 => {
                    stats.shed += 1;
                    galign_telemetry::counter_add("client.http.shed_responses", 1);
                    // Stash the hint where backoff() can see it.
                    self.retry_after.set(resp.retry_after_secs());
                    last = Some(Ok(resp));
                }
                Ok(resp) => return Ok((resp, stats, trace_id)),
                Err(e) => {
                    galign_telemetry::counter_add("client.http.io_errors", 1);
                    self.retry_after.set(None);
                    last = Some(Err(e));
                }
            }
        }
        match last {
            Some(Ok(resp)) => Ok((resp, stats, trace_id)),
            Some(Err(e)) => Err(e),
            None => Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "deadline expired before any attempt",
            )),
        }
    }

    /// Read/write timeout for one attempt: the configured `io_timeout`,
    /// shrunk to the remaining deadline budget so an attempt never blocks
    /// past the point where its answer became useless.
    fn attempt_timeout(&self, deadline: Option<Instant>) -> io::Result<Duration> {
        match deadline {
            None => Ok(self.cfg.io_timeout),
            Some(d) => {
                let remaining = d.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    return Err(io::Error::new(io::ErrorKind::TimedOut, "deadline expired"));
                }
                Ok(self.cfg.io_timeout.min(remaining))
            }
        }
    }

    fn request_once(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
        trace_id: TraceId,
        deadline: Option<Instant>,
    ) -> io::Result<Response> {
        let timeout = self.attempt_timeout(deadline)?;
        // Try a pooled socket first. The server may have closed it since
        // (idle timeout, restart, shutdown), which only surfaces on use —
        // that failure is a property of the *stale socket*, not of the
        // request, so it is repaired with one fresh connection here and
        // never charged against the caller's retry budget.
        if self.cfg.keep_alive {
            let pooled = self.pool.borrow_mut().pop();
            if let Some(stream) = pooled {
                stream.set_read_timeout(Some(timeout))?;
                stream.set_write_timeout(Some(timeout))?;
                if let Ok(resp) = self.send_on(&stream, method, path, body, trace_id, deadline) {
                    self.pool_reuses.set(self.pool_reuses.get() + 1);
                    galign_telemetry::counter_add("client.http.pool.reuses", 1);
                    self.recycle(stream, &resp);
                    return Ok(resp);
                }
                galign_telemetry::counter_add("client.http.pool.stale_drops", 1);
            }
        }
        let stream = TcpStream::connect_timeout(&self.addr, self.cfg.connect_timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true).ok();
        self.pool_connects.set(self.pool_connects.get() + 1);
        galign_telemetry::counter_add("client.http.pool.connects", 1);
        let resp = self.send_on(&stream, method, path, body, trace_id, deadline)?;
        self.recycle(stream, &resp);
        Ok(resp)
    }

    /// Writes one request on `stream` and reads the response. The socket
    /// is left positioned after the response body (content-length framed),
    /// so a keep-alive connection is immediately reusable.
    fn send_on(
        &self,
        stream: &TcpStream,
        method: &str,
        path: &str,
        body: Option<&str>,
        trace_id: TraceId,
        deadline: Option<Instant>,
    ) -> io::Result<Response> {
        let mut writer = stream;
        let body = body.unwrap_or("");
        let trace_line = if self.cfg.trace_header {
            format!("{TRACE_HEADER}: {}\r\n", trace_id.to_hex())
        } else {
            String::new()
        };
        // The remaining budget is computed per *attempt*, so a retry
        // advertises less than the attempt before it did.
        let deadline_line = match deadline {
            Some(d) => {
                let remaining = d.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    return Err(io::Error::new(io::ErrorKind::TimedOut, "deadline expired"));
                }
                format!("{DEADLINE_HEADER}: {}\r\n", remaining.as_millis())
            }
            None => String::new(),
        };
        let connection = if self.cfg.keep_alive {
            "keep-alive"
        } else {
            "close"
        };
        write!(
            writer,
            "{method} {path} HTTP/1.1\r\nhost: galign-client\r\n{trace_line}{deadline_line}content-length: {}\r\nconnection: {connection}\r\n\r\n{body}",
            body.len()
        )?;
        writer.flush()?;
        read_response(&mut BufReader::new(stream))
    }

    /// Returns `stream` to the pool when both sides agreed to keep it
    /// alive and the response was content-length framed (a read-to-EOF
    /// body consumed the connection by definition).
    fn recycle(&self, stream: TcpStream, resp: &Response) {
        let server_keeps = resp
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("keep-alive"));
        if self.cfg.keep_alive && server_keeps && resp.header("content-length").is_some() {
            let mut pool = self.pool.borrow_mut();
            if pool.len() < POOL_LIMIT {
                pool.push(stream);
            }
        }
    }

    /// Next backoff: `Retry-After` if the server sent one (and it is
    /// positive), else exponential-with-jitter from the attempt number.
    fn backoff(&self, attempt: u32) -> Duration {
        if let Some(secs) = self.retry_after.take() {
            if secs > 0.0 {
                // Safe: retry_after_secs() guarantees finite, >= 0 and
                // clamped, so from_secs_f64 cannot panic.
                return Duration::from_secs_f64(secs);
            }
        }
        let exp = self
            .cfg
            .base_backoff
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(16))
            .min(self.cfg.max_backoff);
        // Half jitter: uniform in [exp/2, exp), so synchronized clients
        // spread out while still respecting the exponential envelope.
        let half = exp / 2;
        half + Duration::from_nanos(self.next_jitter() % (half.as_nanos().max(1) as u64))
    }

    fn next_jitter(&self) -> u64 {
        // xorshift64 — deterministic, no external RNG dependency.
        let mut x = self.jitter.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.jitter.set(x);
        x
    }
}

/// Reads and parses one HTTP/1.1 response (status line, headers,
/// `Content-Length` body or read-to-EOF for `Connection: close`).
///
/// # Errors
/// IO failures or an unparseable response head.
pub fn read_response(reader: &mut impl BufRead) -> io::Result<Response> {
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad status line {status_line:?}"),
            )
        })?;
    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let line = line.trim_end_matches(['\r', '\n']);
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    let response = Response {
        status,
        headers,
        body: Vec::new(),
    };
    let mut body = Vec::new();
    if let Some(len) = response.header("content-length") {
        let len: usize = len.parse().map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidData, "bad content-length in response")
        })?;
        body.resize(len, 0);
        reader.read_exact(&mut body)?;
    } else {
        reader.read_to_end(&mut body)?;
    }
    Ok(Response { body, ..response })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{Artifact, Mat};
    use crate::server::{Server, ServerConfig};
    use crate::topk::TopkIndex;

    fn test_server(cfg: ServerConfig) -> crate::server::ServerHandle {
        let m = Mat::new(3, 2, vec![1.0, 0.0, 0.0, 1.0, 0.7, 0.7]).unwrap();
        let index = TopkIndex::from_artifact(
            Artifact::new(vec![1.0], vec![m.clone()], vec![m], false).unwrap(),
        );
        Server::bind("127.0.0.1:0", index, cfg).unwrap().spawn()
    }

    #[test]
    fn get_and_post_roundtrip() {
        let handle = test_server(ServerConfig::default());
        let client = Client::new(&handle.addr().to_string()).unwrap();
        let health = client.get("/healthz").unwrap();
        assert_eq!(health.status, 200);
        assert!(health.body_str().contains("\"status\":\"ok\""));
        let resp = client
            .post_json("/v1/align/topk", r#"{"nodes":[0],"k":1}"#)
            .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body_str());
        assert!(resp.body_str().contains("\"matches\""));
        handle.shutdown().unwrap();
    }

    #[test]
    fn trace_id_is_sent_and_echoed() {
        let handle = test_server(ServerConfig::default());
        let client = Client::new(&handle.addr().to_string()).unwrap();
        // Client-generated id comes back in the response header.
        let (resp, _, trace_id) = client
            .post_json_traced("/v1/align/topk", r#"{"nodes":[0],"k":1}"#)
            .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body_str());
        assert_eq!(resp.header(TRACE_HEADER), Some(trace_id.to_hex().as_str()));
        // An ambient TraceContext on the calling thread wins over a fresh
        // generation, so in-process callers correlate their own spans.
        let ctx = galign_telemetry::TraceContext::root(TraceId::generate());
        let _guard = ctx.enter();
        let (resp, _, trace_id) = client
            .post_json_traced("/v1/align/topk", r#"{"nodes":[0],"k":1}"#)
            .unwrap();
        assert_eq!(trace_id, ctx.trace_id());
        assert_eq!(resp.header(TRACE_HEADER), Some(trace_id.to_hex().as_str()));
        handle.shutdown().unwrap();
    }

    #[test]
    fn non_retryable_statuses_are_returned_not_retried() {
        let handle = test_server(ServerConfig::default());
        let client = Client::new(&handle.addr().to_string()).unwrap();
        let (resp, stats) = client
            .post_json_with_stats("/v1/align/topk", "not json")
            .unwrap();
        assert_eq!(resp.status, 400);
        assert_eq!(stats.tries, 1, "a 400 must not be retried");
        handle.shutdown().unwrap();
    }

    #[test]
    fn connect_failure_is_retried_then_surfaced() {
        // Bind-then-drop gives a port nothing listens on.
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let client = Client::with_config(
            &format!("127.0.0.1:{port}"),
            ClientConfig {
                max_retries: 2,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(4),
                connect_timeout: Duration::from_millis(200),
                ..ClientConfig::default()
            },
        )
        .unwrap();
        let err = client.get("/healthz").unwrap_err();
        // Three attempts happened (observable only as elapsed backoff);
        // the final error is the underlying IO failure.
        assert_ne!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn backoff_is_bounded_and_jittered() {
        let client = Client::with_config(
            "127.0.0.1:1",
            ClientConfig {
                base_backoff: Duration::from_millis(10),
                max_backoff: Duration::from_millis(80),
                ..ClientConfig::default()
            },
        )
        .unwrap();
        for attempt in 1..10 {
            let b = client.backoff(attempt);
            assert!(b <= Duration::from_millis(80), "attempt {attempt}: {b:?}");
            assert!(b >= Duration::from_millis(5), "attempt {attempt}: {b:?}");
        }
        // A Retry-After hint overrides the schedule exactly once; a hint
        // of 0 seconds falls back to the computed schedule.
        client.retry_after.set(Some(2.0));
        assert_eq!(client.backoff(1), Duration::from_secs(2));
        assert!(client.backoff(1) < Duration::from_secs(1));
        client.retry_after.set(Some(0.0));
        assert!(client.backoff(1) < Duration::from_secs(1));
    }

    #[test]
    fn retry_after_tolerates_fractional_and_malformed_values() {
        let parse = |v: &str| {
            Response {
                status: 503,
                headers: vec![("retry-after".to_string(), v.to_string())],
                body: Vec::new(),
            }
            .retry_after_secs()
        };
        assert_eq!(parse("2"), Some(2.0));
        assert_eq!(parse(" 1.5 "), Some(1.5));
        assert_eq!(parse("0"), Some(0.0));
        // Malformed or hostile values are ignored: the client falls back
        // to its computed exponential backoff instead of erroring out.
        assert_eq!(parse("soon"), None);
        assert_eq!(parse("-3"), None);
        assert_eq!(parse("NaN"), None);
        assert_eq!(parse("inf"), None);
        assert_eq!(parse(""), None);
        // Oversized hints clamp rather than stalling the client.
        assert_eq!(parse("86400"), Some(MAX_RETRY_AFTER_SECS));
        // A fractional hint drives the actual sleep duration.
        let client = Client::with_config("127.0.0.1:1", ClientConfig::default()).unwrap();
        client.retry_after.set(Some(1.5));
        assert_eq!(client.backoff(1), Duration::from_secs_f64(1.5));
        // Malformed headers leave no stale hint behind: the next backoff
        // is the computed one (bounded by max_backoff, far below 1.5s
        // after the hint was consumed by the previous call).
        assert!(client.backoff(1) <= client.cfg.max_backoff);
    }

    #[test]
    fn sequential_requests_share_one_socket() {
        let handle = test_server(ServerConfig::default());
        let client = Client::new(&handle.addr().to_string()).unwrap();
        assert_eq!(client.pool_stats(), PoolStats::default());
        for _ in 0..3 {
            let resp = client
                .post_json("/v1/align/topk", r#"{"nodes":[0],"k":1}"#)
                .unwrap();
            assert_eq!(resp.status, 200, "{}", resp.body_str());
        }
        // One TCP connect, then every subsequent request reused it.
        let stats = client.pool_stats();
        assert_eq!(stats.connects, 1, "{stats:?}");
        assert_eq!(stats.reuses, 2, "{stats:?}");
        handle.shutdown().unwrap();
    }

    #[test]
    fn keep_alive_off_connects_per_request() {
        let handle = test_server(ServerConfig::default());
        let client = Client::with_config(
            &handle.addr().to_string(),
            ClientConfig {
                keep_alive: false,
                ..ClientConfig::default()
            },
        )
        .unwrap();
        for _ in 0..2 {
            assert_eq!(client.get("/healthz").unwrap().status, 200);
        }
        let stats = client.pool_stats();
        assert_eq!(stats.connects, 2, "{stats:?}");
        assert_eq!(stats.reuses, 0, "{stats:?}");
        handle.shutdown().unwrap();
    }

    #[test]
    fn stale_pooled_socket_is_replaced_without_burning_a_retry() {
        // Plant a socket whose peer is already gone in the pool — the
        // moral equivalent of a server that idle-timed-out or restarted
        // under us. With max_retries: 0 there is no retry budget to hide
        // behind: the client must detect the stale socket on reuse and
        // repair with one fresh connect, invisibly to the caller.
        let handle = test_server(ServerConfig::default());
        let client = Client::with_config(
            &handle.addr().to_string(),
            ClientConfig {
                max_retries: 0,
                ..ClientConfig::default()
            },
        )
        .unwrap();
        let dead = {
            let graveyard = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let stream = TcpStream::connect(graveyard.local_addr().unwrap()).unwrap();
            drop(graveyard.accept().unwrap());
            stream
        };
        client.pool.borrow_mut().push(dead);
        let (resp, attempts) = client
            .post_json_with_stats("/v1/align/topk", r#"{"nodes":[0],"k":1}"#)
            .unwrap_or_else(|e| panic!("stale socket should be repaired transparently: {e}"));
        assert_eq!(resp.status, 200, "{}", resp.body_str());
        assert_eq!(attempts.tries, 1, "repair must not consume a retry");
        let stats = client.pool_stats();
        assert_eq!(stats.connects, 1, "{stats:?}");
        assert_eq!(stats.reuses, 0, "{stats:?}");
        handle.shutdown().unwrap();
    }

    #[test]
    fn response_parser_handles_headers_and_body() {
        let raw = b"HTTP/1.1 503 Service Unavailable\r\ncontent-type: application/json\r\nretry-after: 2\r\ncontent-length: 2\r\n\r\n{}";
        let resp = read_response(&mut BufReader::new(&raw[..])).unwrap();
        assert_eq!(resp.status, 503);
        assert_eq!(resp.retry_after_secs(), Some(2.0));
        assert_eq!(resp.body, b"{}");
        assert!(read_response(&mut BufReader::new(&b"garbage"[..])).is_err());
    }
}
