//! The coalescing batch scheduler: concurrent top-k requests queue for a
//! bounded window (or until a batch-size cap), then execute as one
//! gathered panel sweep through `galign_matrix::simblock`, and the
//! results are demultiplexed back to their connections.
//!
//! ## Why coalesce
//!
//! One top-k query streams the full target panel through memory to score
//! a single source row. Ten queries arriving within a few hundred
//! microseconds can share that panel traversal: a gathered query block ×
//! node panel GEMM scores all of them in one pass, amortizing the memory
//! traffic that dominates serving cost. The scheduler trades a bounded
//! latency penalty ([`crate::server::ServerConfig::batch_window`], ~200µs
//! by default) for that throughput multiple; a full batch
//! ([`crate::server::ServerConfig::batch_cap`]) flushes immediately.
//!
//! ## Bit-identity
//!
//! Batched execution is *observably identical* to sequential execution.
//! Each request is planned once ([`crate::topk::TopkIndex::plan`]); the
//! plan keys the cache and the compute group, and every group is answered
//! by the one scoring call, [`crate::topk::TopkIndex::topk`], for which a
//! lone request is just a batch of one. That call accumulates each
//! gathered row in the exact floating-point order of a single-row scan,
//! keeps ANN candidate searches per query, and shares `select_topk`'s tie
//! contract — so a `/v2` batch renders byte-for-byte what N sequential
//! `/v1` requests would. The property tests in `tests/batch_api.rs` hold
//! this line.
//!
//! ## Failure isolation
//!
//! Jobs fail independently: one request past its deadline 503s without
//! poisoning its flush-mates, a malformed `/v2` query errors in its own
//! result slot, and a full queue sheds *new* arrivals with `503 +
//! Retry-After` while queued jobs proceed.

use crate::api::{self, BatchRequest, NodeResult, RequestDefaults, TopkRequest, TopkResponse};
use crate::cache::QueryKey;
use crate::server::{error_body, Generation, Inner, Reply};
use crate::topk::{EngineUsed, Plan, RowQuery};
use galign_matrix::simblock::Hit;
use galign_telemetry::context::{self, PropagationHandle};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One queued top-k request: everything a worker needs to answer it away
/// from its connection. The event loop keeps the connection-side state
/// (trace context, HTTP bookkeeping) keyed by `token`.
pub(crate) struct Job {
    /// Connection token the completion is demultiplexed back to.
    pub token: u64,
    /// Raw request body (parsed on the worker, off the event loop).
    pub body: Vec<u8>,
    /// `true` for `/v2/align/topk` (batch envelope), `false` for `/v1`.
    pub v2: bool,
    /// The request's trace context, captured at dispatch; worker-side
    /// stages record against it across the thread hop.
    pub handle: PropagationHandle,
    /// Generation pinned when the request was read — a hot swap landing
    /// mid-queue must not change what this request computes against.
    pub generation: Arc<Generation>,
    /// When the request was read (deadline anchor).
    pub started: Instant,
    /// This request's deadline budget from `started`: the server config
    /// deadline, clamped down to the remaining budget the caller
    /// advertised via the `x-galign-deadline-ms` header.
    pub deadline: Duration,
    /// When the job entered the queue (batch-window anchor; stamped by
    /// [`Coalescer::enqueue`]).
    enqueued: Instant,
}

impl Job {
    pub(crate) fn new(
        token: u64,
        body: Vec<u8>,
        v2: bool,
        handle: PropagationHandle,
        generation: Arc<Generation>,
        started: Instant,
        deadline: Duration,
    ) -> Job {
        Job {
            token,
            body,
            v2,
            handle,
            generation,
            started,
            deadline,
            enqueued: started,
        }
    }
}

/// A finished job: the reply, addressed back to its connection.
pub(crate) struct Completion {
    pub token: u64,
    pub reply: Reply,
}

struct CoState {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// The bounded batching queue between the event loop and the worker
/// pool. Jobs wait at most `window` from the moment the *oldest* queued
/// job arrived; a flush drains up to `cap` jobs; arrivals beyond `depth`
/// are refused so the caller can shed them.
pub(crate) struct Coalescer {
    state: Mutex<CoState>,
    cond: Condvar,
    window: Duration,
    cap: usize,
    depth: usize,
}

impl Coalescer {
    pub(crate) fn new(window: Duration, cap: usize, depth: usize) -> Coalescer {
        Coalescer {
            state: Mutex::new(CoState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            cond: Condvar::new(),
            window,
            cap: cap.max(1),
            depth: depth.max(1),
        }
    }

    /// Queues a job, or hands it back (boxed — the refusal path is cold)
    /// when the queue is full and the caller must shed it with
    /// `503 + Retry-After`, or the scheduler is closed.
    pub(crate) fn enqueue(&self, mut job: Job) -> Result<(), Box<Job>> {
        let mut state = self.state.lock().expect("coalescer lock");
        if state.closed || state.jobs.len() >= self.depth {
            return Err(Box::new(job));
        }
        job.enqueued = Instant::now();
        state.jobs.push_back(job);
        self.cond.notify_one();
        Ok(())
    }

    /// Blocks until a batch is ready — the oldest queued job has waited
    /// the full window, the queue holds a cap's worth, or the scheduler
    /// is closing — and drains up to `cap` jobs. `None` means closed and
    /// drained: the worker exits.
    pub(crate) fn take_batch(&self) -> Option<Vec<Job>> {
        let mut state = self.state.lock().expect("coalescer lock");
        loop {
            if state.jobs.is_empty() {
                if state.closed {
                    return None;
                }
                state = self.cond.wait(state).expect("coalescer lock");
                continue;
            }
            let age = state
                .jobs
                .front()
                .expect("non-empty queue")
                .enqueued
                .elapsed();
            if state.closed || state.jobs.len() >= self.cap || age >= self.window {
                let take = state.jobs.len().min(self.cap);
                return Some(state.jobs.drain(..take).collect());
            }
            let (next, _) = self
                .cond
                .wait_timeout(state, self.window - age)
                .expect("coalescer lock");
            state = next;
        }
    }

    /// Queued job count (test observability).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.state.lock().expect("coalescer lock").jobs.len()
    }

    /// Begins shutdown: queued jobs still flush, workers exit once the
    /// queue is drained.
    pub(crate) fn close(&self) {
        let mut state = self.state.lock().expect("coalescer lock");
        state.closed = true;
        self.cond.notify_all();
    }
}

/// One parsed-and-planned query: cache hits already resolved, misses
/// awaiting the gathered compute.
struct Planned {
    request: TopkRequest,
    /// What the index will actually run — the request's `mode` and
    /// `quant` resolved against it — so caching and grouping key on what
    /// gets computed, not what was asked for.
    plan: Plan,
    /// Per queried node: `Some` = cache hit, `None` = computed this flush.
    slots: Vec<Option<Arc<Vec<Hit>>>>,
    /// Positions into `request.nodes` that missed the cache.
    misses: Vec<usize>,
}

/// One job after the planning pass.
struct JobPlan {
    job: Job,
    /// Whole-request failure (parse error, envelope error, deadline).
    fail: Option<Reply>,
    /// Per-query outcome, in request order (one entry for `/v1`).
    queries: Vec<Result<Planned, String>>,
}

/// Grouping key for gathered execution: queries are computable together
/// only when they agree on artifact generation, plan and θ.
type GroupKey = (u64, Plan, Option<Vec<u64>>);

struct Group {
    generation: Arc<Generation>,
    theta: Option<Vec<f64>>,
    plan: Plan,
    /// Deduplicated (node, k) work items.
    queries: Vec<RowQuery>,
    /// (node, k) → index into `queries` / `results`.
    index_of: HashMap<(usize, usize), usize>,
    /// Filled by the compute pass, aligned with `queries`.
    results: Vec<Arc<Vec<Hit>>>,
}

fn theta_key(theta: Option<&[f64]>) -> Option<Vec<u64>> {
    theta.map(|t| t.iter().map(|w| w.to_bits()).collect())
}

/// Executes one flush: parse + cache-lookup per job, one gathered compute
/// per (generation, plan, θ) group, then per-job serialization. Every
/// job gets exactly one [`Completion`].
pub(crate) fn process_jobs(inner: &Inner, jobs: Vec<Job>) -> Vec<Completion> {
    // Failpoint `serve.topk.stall`: a `delay(ms)` action sleeps here,
    // stalling the whole flush — the per-job deadline checks below must
    // then catch it, exactly as the per-request server stalled.
    galign_telemetry::failpoint::eval("serve.topk.stall");
    if galign_telemetry::metrics_enabled() {
        galign_telemetry::counter_add("serve.batch.flushes", 1);
        galign_telemetry::histogram_record("serve.batch.jobs", jobs.len() as f64);
    }
    let single = jobs.len() == 1;
    let plans: Vec<JobPlan> = jobs.into_iter().map(|job| plan_job(inner, job)).collect();

    // Group cache misses across every job in the flush. Deduplication is
    // per (node, k): two requests for the same node compute once and both
    // read the shared result.
    let mut groups: BTreeMap<GroupKey, Group> = BTreeMap::new();
    for plan in &plans {
        for planned in plan.queries.iter().flatten() {
            if planned.misses.is_empty() {
                continue;
            }
            let theta = planned.request.theta.as_deref();
            let key = (plan.job.generation.number, planned.plan, theta_key(theta));
            let group = groups.entry(key).or_insert_with(|| Group {
                generation: Arc::clone(&plan.job.generation),
                theta: planned.request.theta.clone(),
                plan: planned.plan,
                queries: Vec::new(),
                index_of: HashMap::new(),
                results: Vec::new(),
            });
            for &pos in &planned.misses {
                let item = (planned.request.nodes[pos], planned.request.k);
                if !group.index_of.contains_key(&item) {
                    group.index_of.insert(item, group.queries.len());
                    group.queries.push(RowQuery {
                        node: item.0,
                        k: item.1,
                    });
                }
            }
        }
    }

    // The gathered compute. A single-job flush runs under that job's
    // trace context so kernel stages (`exact_scan`, `ann_search`,
    // `exact_rerank`) land in its trace, exactly like the sequential
    // server; a multi-job flush computes shared work that belongs to no
    // one request, so those spans are per-flush, not per-trace.
    let run_groups = |groups: &mut BTreeMap<GroupKey, Group>| {
        for group in groups.values_mut() {
            let computed = group
                .generation
                .index
                .topk(&group.queries, group.theta.as_deref(), group.plan)
                .expect("queries validated before grouping");
            group.results = computed
                .into_iter()
                .map(|(hits, _engine): (Vec<Hit>, EngineUsed)| Arc::new(hits))
                .collect();
        }
    };
    if single {
        let handle = plans[0].job.handle.clone();
        handle.scope(|| run_groups(&mut groups));
    } else {
        run_groups(&mut groups);
    }

    // Demultiplex: fill each query's miss slots from its group, insert
    // into the cache, serialize, count.
    plans
        .into_iter()
        .map(|plan| finish_job(inner, plan, &groups))
        .collect()
}

/// Deadline check + parse + planning + cache lookup for one job,
/// under its trace context.
fn plan_job(inner: &Inner, job: Job) -> JobPlan {
    let deadline_reply = |job: Job| {
        galign_telemetry::counter_add("serve.topk.deadline_exceeded", 1);
        JobPlan {
            job,
            fail: Some(Reply::json(
                503,
                error_body("deadline exceeded, retry later"),
            )),
            queries: Vec::new(),
        }
    };
    if job.started.elapsed() >= job.deadline {
        return deadline_reply(job);
    }
    let handle = job.handle.clone();
    handle.scope(|| {
        let defaults = RequestDefaults {
            default_k: inner.cfg.default_k,
            max_k: inner.cfg.max_k,
            default_mode: inner.cfg.default_mode,
            default_quant: inner.cfg.quant,
        };
        let st = context::stage("parse");
        let parsed: Vec<Result<TopkRequest, String>> = if job.v2 {
            match BatchRequest::from_body(&job.body, &defaults) {
                Ok(batch) => batch.queries,
                Err(msg) => {
                    return JobPlan {
                        job,
                        fail: Some(Reply::json(400, error_body(&msg))),
                        queries: Vec::new(),
                    }
                }
            }
        } else {
            match TopkRequest::from_body(&job.body, &defaults) {
                Ok(q) => vec![Ok(q)],
                Err(msg) => {
                    return JobPlan {
                        job,
                        fail: Some(Reply::json(400, error_body(&msg))),
                        queries: Vec::new(),
                    }
                }
            }
        };
        let total_nodes: usize = parsed.iter().flatten().map(|q| q.nodes.len()).sum();
        let mut fields = vec![("nodes", total_nodes.to_string())];
        if job.v2 {
            fields.push(("queries", parsed.len().to_string()));
        }
        st.finish_with(fields);

        let index = &job.generation.index;
        let mut any_miss = false;
        let queries: Vec<Result<Planned, String>> = parsed
            .into_iter()
            .map(|parse_outcome| {
                let request = parse_outcome?;
                // Validate up front (same errors, same wording as the
                // scoring call) so grouped compute can never fail.
                let rows: Vec<RowQuery> = request
                    .nodes
                    .iter()
                    .map(|&node| RowQuery { node, k: request.k })
                    .collect();
                index
                    .validate(&rows, request.theta.as_deref())
                    .map_err(|e| e.to_string())?;
                // The plan is deterministic per query (mode + quant + what
                // the index holds) and keys the cache: ANN and exact
                // results must never alias each other.
                let st = context::stage("engine_select");
                let plan = index.plan(request.mode, request.quant);
                st.finish_with(vec![
                    ("engine", plan.engine().name().to_string()),
                    ("quant", plan.quant.name().to_string()),
                ]);
                let st = context::stage("cache_lookup");
                let mut slots = vec![None; request.nodes.len()];
                let mut misses = Vec::new();
                for (i, &node) in request.nodes.iter().enumerate() {
                    let key = QueryKey::new(
                        node,
                        request.k,
                        request.theta.as_deref(),
                        plan,
                        job.generation.number,
                    );
                    match inner.cache.get(&key) {
                        Some(hits) => slots[i] = Some(hits),
                        None => misses.push(i),
                    }
                }
                let miss_count = misses.len() as u64;
                let hit_count = request.nodes.len() as u64 - miss_count;
                st.finish_with(vec![
                    ("hits", hit_count.to_string()),
                    ("misses", miss_count.to_string()),
                ]);
                context::annotate("cache_hits", hit_count);
                context::annotate("cache_misses", miss_count);
                any_miss |= !misses.is_empty();
                Ok(Planned {
                    request,
                    plan,
                    slots,
                    misses,
                })
            })
            .collect();
        // The gathered compute is the expensive part — re-check the
        // deadline on the way in rather than burning kernel time on a
        // request whose client was already promised an answer it can't
        // get in time.
        if any_miss && job.started.elapsed() >= job.deadline {
            return deadline_reply(job);
        }
        JobPlan {
            job,
            fail: None,
            queries,
        }
    })
}

/// Fills one job's miss slots from the computed groups, populates the
/// cache, serializes the reply and bumps the per-query counters.
fn finish_job(inner: &Inner, plan: JobPlan, groups: &BTreeMap<GroupKey, Group>) -> Completion {
    let JobPlan { job, fail, queries } = plan;
    if let Some(mut reply) = fail {
        if reply.generation == 0 {
            reply.generation = job.generation.number;
        }
        return Completion {
            token: job.token,
            reply,
        };
    }
    let handle = job.handle.clone();
    let reply = handle.scope(|| {
        let metrics = galign_telemetry::metrics_enabled();
        let mut outcomes: Vec<api::QueryOutcome> = Vec::with_capacity(queries.len());
        let mut engines_seen: (bool, bool) = (false, false); // (ann, exact)
        for outcome in queries {
            let planned = match outcome {
                Ok(p) => p,
                Err(msg) => {
                    outcomes.push(Err(msg));
                    continue;
                }
            };
            let Planned {
                request,
                plan,
                mut slots,
                misses,
            } = planned;
            let theta = request.theta.as_deref();
            if !misses.is_empty() {
                let key = (job.generation.number, plan, theta_key(theta));
                let group = groups.get(&key).expect("miss-bearing query has a group");
                for pos in misses.iter().copied() {
                    let node = request.nodes[pos];
                    let slot = group.index_of[&(node, request.k)];
                    let hits = Arc::clone(&group.results[slot]);
                    inner.cache.insert(
                        QueryKey::new(node, request.k, theta, plan, job.generation.number),
                        Arc::clone(&hits),
                    );
                    slots[pos] = Some(hits);
                }
            }
            let engine = plan.engine();
            match engine {
                EngineUsed::Ann => engines_seen.0 = true,
                EngineUsed::Exact => engines_seen.1 = true,
            }
            if metrics {
                galign_telemetry::counter_add("serve.topk.requests", 1);
                galign_telemetry::counter_add("serve.topk.nodes", request.nodes.len() as u64);
                galign_telemetry::counter_add("serve.topk.cache_misses", misses.len() as u64);
                galign_telemetry::counter_add(
                    "serve.topk.cache_hits",
                    (request.nodes.len() - misses.len()) as u64,
                );
                galign_telemetry::counter_add(
                    match engine {
                        EngineUsed::Ann => "serve.topk.engine.ann",
                        EngineUsed::Exact => "serve.topk.engine.exact",
                    },
                    1,
                );
            }
            let results: Vec<NodeResult> = request
                .nodes
                .iter()
                .zip(slots)
                .map(|(&node, hits)| NodeResult {
                    node,
                    matches: hits.expect("every slot filled"),
                })
                .collect();
            outcomes.push(Ok(TopkResponse {
                k: request.k,
                engine: engine.name().to_string(),
                partial: false,
                results,
            }));
        }
        let engine: &'static str = match engines_seen {
            (true, false) => "ann",
            (false, true) => "exact",
            (true, true) => "mixed",
            (false, false) => "",
        };
        let reply = if job.v2 {
            let st = context::stage("serialize");
            let body = api::render_batch(&outcomes);
            st.finish_with(vec![("bytes", body.len().to_string())]);
            Reply {
                status: 200,
                content_type: "application/json",
                body,
                engine,
                generation: job.generation.number,
            }
        } else {
            match outcomes.into_iter().next().expect("v1 job has one query") {
                Ok(response) => {
                    let st = context::stage("serialize");
                    let body = response.render();
                    st.finish_with(vec![("bytes", body.len().to_string())]);
                    Reply {
                        status: 200,
                        content_type: "application/json",
                        body,
                        engine,
                        generation: job.generation.number,
                    }
                }
                Err(msg) => {
                    let mut reply = Reply::json(400, error_body(&msg));
                    reply.generation = job.generation.number;
                    reply
                }
            }
        };
        if metrics && reply.status == 200 {
            galign_telemetry::gauge_set("serve.cache.entries", inner.cache.len() as f64);
            galign_telemetry::histogram_record(
                "serve.topk.ms",
                job.started.elapsed().as_secs_f64() * 1e3,
            );
        }
        reply
    });
    Completion {
        token: job.token,
        reply,
    }
}

/// The synchronous single-request path: `/v1` and `/v2` bodies routed by
/// the server share one code path with the coalesced worker flush, so a
/// request behaves identically whether it was batched or not. Captures
/// the caller's trace context, so stages record as usual.
pub(crate) fn run_single(
    inner: &Inner,
    generation: &Arc<Generation>,
    body: &[u8],
    started: Instant,
    v2: bool,
) -> Reply {
    let job = Job::new(
        0,
        body.to_vec(),
        v2,
        PropagationHandle::capture(),
        Arc::clone(generation),
        started,
        inner.cfg.deadline,
    );
    process_jobs(inner, vec![job])
        .pop()
        .expect("one job in, one completion out")
        .reply
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::server::{test_inner_with, ServerConfig};

    fn job(inner: &Inner, body: &[u8], v2: bool) -> Job {
        Job::new(
            0,
            body.to_vec(),
            v2,
            PropagationHandle::capture(),
            inner.generation(),
            Instant::now(),
            inner.cfg.deadline,
        )
    }

    #[test]
    fn coalescer_sheds_beyond_depth_and_drains_on_close() {
        let inner = test_inner_with(ServerConfig::default());
        let co = Coalescer::new(Duration::from_secs(10), 8, 2);
        assert!(co.enqueue(job(&inner, b"{}", false)).is_ok());
        assert!(co.enqueue(job(&inner, b"{}", false)).is_ok());
        // Depth reached: the third arrival is handed back for shedding.
        assert!(co.enqueue(job(&inner, b"{}", false)).is_err());
        assert_eq!(co.len(), 2);
        // Close flushes immediately (no window wait) and drains the queue.
        co.close();
        let batch = co.take_batch().expect("queued jobs flush on close");
        assert_eq!(batch.len(), 2);
        assert!(
            co.take_batch().is_none(),
            "closed and drained: worker exits"
        );
        assert!(co.enqueue(job(&inner, b"{}", false)).is_err());
    }

    #[test]
    fn coalescer_cap_flushes_without_waiting_for_the_window() {
        let inner = test_inner_with(ServerConfig::default());
        let co = Coalescer::new(Duration::from_secs(3600), 2, 64);
        let start = Instant::now();
        assert!(co.enqueue(job(&inner, b"{}", false)).is_ok());
        assert!(co.enqueue(job(&inner, b"{}", false)).is_ok());
        let batch = co.take_batch().expect("cap-full queue flushes");
        assert_eq!(batch.len(), 2);
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "a full batch must not wait out the window"
        );
    }

    #[test]
    fn coalescer_window_flushes_a_lone_job() {
        let inner = test_inner_with(ServerConfig::default());
        let co = Coalescer::new(Duration::from_millis(5), 64, 64);
        assert!(co.enqueue(job(&inner, b"{}", false)).is_ok());
        let batch = co.take_batch().expect("window expiry flushes");
        assert_eq!(batch.len(), 1);
    }

    #[test]
    fn multi_job_flush_matches_individual_replies() {
        let inner = test_inner_with(ServerConfig::default());
        let bodies: [&[u8]; 3] = [
            br#"{"nodes":[0,1],"k":2}"#,
            br#"{"nodes":[2],"k":1}"#,
            br#"{"nodes":[0,1],"k":2}"#, // duplicate of the first: shared compute
        ];
        let jobs: Vec<Job> = bodies
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let mut j = job(&inner, b, false);
                j.token = i as u64;
                j
            })
            .collect();
        let completions = process_jobs(&inner, jobs);
        assert_eq!(completions.len(), 3);
        // Reference replies from a fresh server (cold cache) one by one.
        let fresh = test_inner_with(ServerConfig::default());
        for (i, body) in bodies.iter().enumerate() {
            let reference = run_single(&fresh, &fresh.generation(), body, Instant::now(), false);
            let got = completions.iter().find(|c| c.token == i as u64).unwrap();
            assert_eq!(got.reply.status, 200);
            assert_eq!(
                got.reply.body, reference.body,
                "batched reply {i} must be byte-identical to sequential"
            );
        }
        // The duplicate (node, k) pairs computed once but both landed.
        let (_, misses) = inner.cache.stats();
        assert_eq!(misses, 5, "every node lookup missed the cold cache");
        assert_eq!(inner.cache.len(), 3, "three distinct (node, k) entries");
    }

    #[test]
    fn v2_isolates_per_query_errors() {
        let inner = test_inner_with(ServerConfig::default());
        let body = br#"{"queries":[{"nodes":[0],"k":1},{"nodes":[99],"k":1},{"node":2,"k":0}]}"#;
        let reply = run_single(&inner, &inner.generation(), body, Instant::now(), true);
        assert_eq!(reply.status, 200, "{}", reply.body);
        let doc = json::parse(&reply.body).unwrap();
        let results = doc.get("results").unwrap().as_arr().unwrap();
        assert_eq!(results.len(), 3);
        assert!(results[0].get("error").is_none());
        assert!(
            results[1]
                .get("error")
                .and_then(|e| e.as_str())
                .is_some_and(|e| e.contains("out of range")),
            "{}",
            reply.body
        );
        assert!(
            results[2]
                .get("error")
                .and_then(|e| e.as_str())
                .is_some_and(|e| e.contains("k")),
            "{}",
            reply.body
        );
    }

    #[test]
    fn non_finite_theta_is_rejected_on_v1_and_v2() {
        let inner = test_inner_with(ServerConfig::default());
        for theta in ["[1e400,0.5]", "[1e308,1e308]"] {
            let v1 = format!(r#"{{"nodes":[0],"theta":{theta}}}"#);
            let reply = run_single(
                &inner,
                &inner.generation(),
                v1.as_bytes(),
                Instant::now(),
                false,
            );
            assert_eq!(reply.status, 400, "{}", reply.body);
            assert!(reply.body.contains("finite"), "{}", reply.body);
            // On /v2 the bad query errors in its own slot; its sibling
            // is still answered.
            let v2 = format!(r#"{{"queries":[{v1},{{"nodes":[0]}}]}}"#);
            let reply = run_single(
                &inner,
                &inner.generation(),
                v2.as_bytes(),
                Instant::now(),
                true,
            );
            assert_eq!(reply.status, 200, "{}", reply.body);
            let doc = json::parse(&reply.body).unwrap();
            let results = doc.get("results").unwrap().as_arr().unwrap();
            assert!(
                results[0]
                    .get("error")
                    .and_then(|e| e.as_str())
                    .is_some_and(|e| e.contains("finite")),
                "{}",
                reply.body
            );
            assert!(results[1].get("error").is_none(), "{}", reply.body);
            assert!(!reply.body.contains("null"), "{}", reply.body);
        }
    }

    #[test]
    fn v2_envelope_errors_fail_the_whole_request() {
        let inner = test_inner_with(ServerConfig::default());
        for (body, needle) in [
            (&b"not json"[..], "invalid JSON"),
            (br#"{"nodes":[0]}"#, "queries"),
            (br#"{"queries":[]}"#, "empty"),
        ] {
            let reply = run_single(&inner, &inner.generation(), body, Instant::now(), true);
            assert_eq!(reply.status, 400, "{}", reply.body);
            assert!(
                reply.body.to_lowercase().contains(&needle.to_lowercase()),
                "error {:?} should mention {needle:?}",
                reply.body
            );
        }
    }

    #[test]
    fn expired_job_returns_503_without_poisoning_flushmates() {
        let inner = test_inner_with(ServerConfig {
            deadline: Duration::from_millis(200),
            ..ServerConfig::default()
        });
        let mut expired = job(&inner, br#"{"nodes":[0]}"#, false);
        expired.token = 1;
        expired.started = Instant::now()
            .checked_sub(Duration::from_secs(1))
            .expect("process uptime exceeds one second");
        let mut fine = job(&inner, br#"{"nodes":[0]}"#, false);
        fine.token = 2;
        let completions = process_jobs(&inner, vec![expired, fine]);
        let by_token = |t: u64| completions.iter().find(|c| c.token == t).unwrap();
        assert_eq!(by_token(1).reply.status, 503);
        assert!(by_token(1).reply.body.contains("deadline"));
        assert_eq!(by_token(2).reply.status, 200);
    }
}
