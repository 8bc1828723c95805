//! # galign-serve
//!
//! The online half of the GAlign suite's train-once / align-many story.
//! The batch pipeline (`galign`) trains multi-order embeddings and
//! matches once; this crate persists that trained state as a compact
//! binary artifact and answers top-k alignment queries over HTTP from it:
//!
//! * [`artifact`] — a versioned, FNV-1a-checksummed binary format for
//!   θ-weighted multi-order embedding pairs (~8x smaller than the JSON in
//!   `galign::persist`, validated byte-for-byte at load time). Version 4
//!   adds an optional quantized section ([`artifact::QuantSection`],
//!   int8 or f16 panels from `galign-quant`): as a *sidecar* it rides
//!   along for scan acceleration, as the *primary* encoding it replaces
//!   the f64 blocks entirely (≥3.5× smaller files) and the f64 rows are
//!   reconstructed deterministically at load;
//! * [`topk`] — one scoring call, [`topk::TopkIndex::topk`], over a
//!   batch of [`topk::RowQuery`] (a lone query is a batch of one), on the
//!   *shared* blocked scoring engine (`galign_matrix::simblock`):
//!   row-normalized dot-product scoring over the θ-weighted layers with
//!   heap-based partial selection. [`topk::TopkIndex::plan`] decides once
//!   per batch how it is answered — the exact scan, or ANN candidates from
//!   an optional `galign-index` HNSW/IVF index over the concatenated
//!   target rows (requests pick `exact | ann | auto`), crossed with the
//!   first-pass scan precision (`quant`: `off | int8 | f16`, effective
//!   when the artifact carries matching panels). The exact engine scores
//!   the batch in one gathered panel sweep; a quantized scan shortlists
//!   per query with a certified error margin; ANN searches per query and
//!   re-ranks the union of candidates exactly, falling back to the full
//!   scan for a low-confidence candidate set. Every path ends in the same
//!   f64 kernel and `select_topk`, so responses are byte-identical across
//!   engines and precisions for every hit both return;
//! * [`cache`] — a sharded in-memory LRU keyed on `(node, k, θ)`;
//! * [`api`] — the typed wire schema shared by server, client, router
//!   and loadtest: [`api::TopkRequest`], [`api::BatchRequest`] (the
//!   `POST /v2/align/topk` envelope), [`api::TopkResponse`] and the
//!   error body, with byte-exact render/parse round-trips;
//! * [`server`] — a std-only HTTP/1.1 server built on a single-threaded
//!   readiness event loop ([`evloop`]: raw epoll on Linux, a portable
//!   fallback elsewhere) with non-blocking accept/read/write
//!   state machines, so slow clients cost an entry in a map rather than
//!   a thread. Top-k queries coalesce: concurrent requests wait up to a
//!   bounded batch window and execute as one grouped query-block ×
//!   node-panel GEMM on a worker pool, bit-identical to sequential
//!   scoring. Overload protection (a bounded job queue that sheds excess
//!   load with `503` + `Retry-After`, plus a cooperative per-request
//!   compute deadline), keep-alive connection reuse (with pipelining),
//!   graceful shutdown, and hot artifact swap (admin endpoint or
//!   generation-pointer file; in-flight requests are pinned to the
//!   generation they started on), instrumented through
//!   `galign-telemetry`. Artifacts carrying a shard manifest (see
//!   [`artifact::ShardManifest`]) serve a contiguous slice of the target
//!   network and advertise it on `/healthz` for `galign-router`'s
//!   scatter-gather tier;
//! * [`client`] — a std-only HTTP client with retry, exponential backoff
//!   and jitter that honors `Retry-After`, plus per-target keep-alive
//!   connection pooling, used by the loadtest example and the router;
//! * [`http`] / [`json`] — the dependency-free protocol plumbing
//!   ([`json`] is `galign_telemetry::json`, the workspace's one codec).
//!
//! The whole crate is std-only; scoring depends on `galign-matrix`,
//! whose scoped-thread helper (`galign_matrix::par`) fans large query
//! batches out across cores.
//!
//! ```
//! use galign_serve::artifact::{Artifact, Mat};
//! use galign_serve::server::{Server, ServerConfig};
//! use galign_serve::topk::{Plan, RowQuery, TopkIndex};
//!
//! // A toy artifact: one layer, identical 3-node networks.
//! let m = Mat::new(3, 2, vec![1.0, 0.0, 0.0, 1.0, 0.6, 0.8]).unwrap();
//! let artifact = Artifact::new(vec![1.0], vec![m.clone()], vec![m], false).unwrap();
//!
//! // Bit-exact binary round-trip.
//! let reloaded = Artifact::from_bytes(&artifact.to_bytes()).unwrap();
//! assert_eq!(artifact, reloaded);
//!
//! // Query it directly ...
//! let index = TopkIndex::from_artifact(reloaded);
//! let answers = index.topk(&[RowQuery { node: 0, k: 2 }], None, Plan::EXACT).unwrap();
//! assert_eq!(answers[0].0[0].target, 0);
//!
//! // ... or over HTTP.
//! let server = Server::bind("127.0.0.1:0", index, ServerConfig::default()).unwrap();
//! let handle = server.spawn();
//! handle.shutdown().unwrap();
//! ```

pub mod api;
pub mod artifact;
mod batch;
pub mod cache;
pub mod client;
pub mod evloop;
pub mod http;
pub use galign_telemetry::json;
pub mod server;
pub mod testutil;
pub mod topk;

pub use api::{BatchRequest, TopkRequest, TopkResponse};
pub use artifact::{Artifact, Mat, QuantSection, ShardManifest};
pub use cache::{LruCache, QueryKey, ShardedCache};
pub use client::{Client, ClientConfig, PoolStats};
pub use server::{Server, ServerConfig, ServerConfigBuilder, ServerHandle, GENERATION_HEADER};
pub use topk::{EngineMode, EngineUsed, Hit, Plan, QuantMode, QueryError, RowQuery, TopkIndex};
