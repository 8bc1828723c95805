//! Batched-serving equivalence: the `/v2/align/topk` envelope and the
//! coalescing batch scheduler must be invisible in the bytes. Three
//! layers of evidence:
//!
//! 1. **Kernel**: `TopkIndex::topk` over a multi-query batch is
//!    bit-identical (targets, score bits, engine choice) to the same
//!    queries as batches of one, on random embeddings with deliberate
//!    score ties and across exact/ANN/auto engines, including batches
//!    whose ANN candidate sets overlap — property-tested with the
//!    crate's deterministic xorshift.
//! 2. **Wire**: a live server's `/v2` response is byte-for-byte
//!    `{"results":[...]}` over the exact bodies `/v1` returns for the
//!    same queries — including per-query θ overrides, per-query engine
//!    modes, and per-query validation errors.
//! 3. **Coalescing**: a concurrent burst against a widened batch window
//!    answers every request with the same bytes the quiet sequential
//!    server produced.
//!
//! Plus the window/deadline composition: a coalescing window configured
//! beyond the compute deadline turns requests into deadline 503s rather
//! than silently stretching the latency contract.

use galign_serve::artifact::{Artifact, Mat};
use galign_serve::client::{Client, ClientConfig};
use galign_serve::server::{Server, ServerConfig, ServerHandle};
use galign_serve::testutil::Xorshift;
use galign_serve::topk::{Backend, EngineMode, EngineUsed, QuantMode, RowQuery, TopkIndex};
use std::time::Duration;

/// Random target embeddings with duplicated rows, so tied scores (the
/// hard case for top-k ordering) appear in every instance.
fn random_tied_index(rng: &mut Xorshift, with_ann: bool) -> TopkIndex {
    let layers = 1 + rng.below(2);
    let n_s = 3 + rng.below(12);
    let n_t = 6 + rng.below(24);
    let theta: Vec<f64> = (0..layers).map(|_| 0.1 + rng.f64()).collect();
    let mut source = Vec::new();
    let mut target = Vec::new();
    for _ in 0..layers {
        let d = 2 + rng.below(5);
        source.push(Mat::new(
            n_s,
            d,
            (0..n_s * d).map(|_| rng.f64_signed()).collect(),
        ));
        let mut rows: Vec<Vec<f64>> = (0..n_t)
            .map(|_| (0..d).map(|_| rng.f64_signed()).collect())
            .collect();
        // Duplicate ~1/3 of the rows onto earlier ones: identical rows
        // score identically for every query, forcing tie-breaks.
        for _ in 0..n_t / 3 {
            let src = rng.below(n_t);
            let dst = (src + 1 + rng.below(n_t - 1)) % n_t;
            rows[dst] = rows[src].clone();
        }
        target.push(Mat::new(n_t, d, rows.into_iter().flatten().collect()));
    }
    let artifact = Artifact::new(
        theta,
        source.into_iter().collect::<Result<_, _>>().unwrap(),
        target.into_iter().collect::<Result<_, _>>().unwrap(),
        false,
    )
    .unwrap();
    let mut index = TopkIndex::from_artifact(artifact);
    if with_ann {
        index.build_ann(Backend::Hnsw).expect("ann build");
    }
    index
}

#[test]
fn gathered_batches_match_single_queries_bitwise() {
    let mut rng = Xorshift::new(0xBA7C);
    for case in 0..30 {
        let with_ann = case % 2 == 1;
        let index = random_tied_index(&mut rng, with_ann);
        let theta: Option<Vec<f64>> = if rng.below(2) == 0 {
            None
        } else {
            Some((0..index.num_layers()).map(|_| rng.f64()).collect())
        };
        let modes: &[EngineMode] = if with_ann {
            &[EngineMode::Exact, EngineMode::Ann, EngineMode::Auto]
        } else {
            &[EngineMode::Exact, EngineMode::Auto]
        };
        for &mode in modes {
            let queries: Vec<RowQuery> = (0..1 + rng.below(7))
                .map(|_| RowQuery {
                    node: rng.below(index.source_nodes()),
                    k: 1 + rng.below(index.target_nodes() + 2),
                })
                .collect();
            // The same queries, each repeated with k spanning every
            // target: candidate sets overlap, so the ANN re-rank gathers
            // rows shared across queries.
            let shared: Vec<RowQuery> = queries
                .iter()
                .flat_map(|q| {
                    [
                        *q,
                        RowQuery {
                            node: q.node,
                            k: index.target_nodes(),
                        },
                    ]
                })
                .collect();
            let plan = index.plan(mode, QuantMode::Off);
            for (round, queries) in [queries, shared].into_iter().enumerate() {
                let batched = index.topk(&queries, theta.as_deref(), plan).unwrap();
                assert_eq!(batched.len(), queries.len());
                if round == 1 && mode == EngineMode::Ann {
                    let reranked = batched.iter().filter(|(_, used)| *used == EngineUsed::Ann);
                    assert!(
                        reranked.count() >= 2,
                        "case {case}: the shared batch must reach the union re-rank"
                    );
                }
                for (q, (hits, used)) in queries.iter().zip(&batched) {
                    let (single, used_single) =
                        index.topk(&[*q], theta.as_deref(), plan).unwrap().remove(0);
                    assert_eq!(
                        *used, used_single,
                        "case {case}: engine drifted for node {} k {}",
                        q.node, q.k
                    );
                    assert_eq!(hits.len(), single.len(), "case {case}");
                    for (b, s) in hits.iter().zip(&single) {
                        assert_eq!(b.target, s.target, "case {case} node {}", q.node);
                        assert_eq!(
                            b.score.to_bits(),
                            s.score.to_bits(),
                            "case {case}: score bits drifted at target {}",
                            b.target
                        );
                    }
                }
            }
        }
    }
}

/// A small fixture with ties and an ANN index, served over real TCP.
fn demo_index() -> TopkIndex {
    // Rows 2 and 3 are identical: every query ties them, so the wire
    // bytes also pin the tie contract (ascending target id).
    let l0 = Mat::new(
        6,
        3,
        vec![
            1.0, 0.0, 0.0, //
            0.0, 1.0, 0.0, //
            0.6, 0.8, 0.0, //
            0.6, 0.8, 0.0, //
            0.0, 0.0, 1.0, //
            0.5, 0.5, 0.5,
        ],
    )
    .unwrap();
    let src = Mat::new(
        4,
        3,
        vec![
            1.0, 0.1, 0.0, //
            0.0, 0.9, 0.2, //
            0.3, 0.3, 0.9, //
            0.7, 0.0, 0.7,
        ],
    )
    .unwrap();
    let artifact = Artifact::new(vec![1.0], vec![src], vec![l0], false).unwrap();
    let mut index = TopkIndex::from_artifact(artifact);
    index.build_ann(Backend::Hnsw).expect("ann build");
    index
}

fn start(cfg: ServerConfig) -> ServerHandle {
    Server::bind("127.0.0.1:0", demo_index(), cfg)
        .expect("bind ephemeral port")
        .spawn()
}

fn plain_client(addr: &str) -> Client {
    Client::with_config(
        addr,
        ClientConfig {
            max_retries: 0,
            ..ClientConfig::default()
        },
    )
    .unwrap()
}

#[test]
fn v2_over_http_is_byte_concatenation_of_v1_bodies() {
    let handle = start(ServerConfig::default());
    let addr = handle.addr().to_string();
    let client = plain_client(&addr);

    // A deliberately mixed batch: defaults, multi-node, per-query θ,
    // per-query engine mode, and two invalid queries (bad k, bad node).
    let queries = [
        r#"{"nodes":[0],"k":3}"#,
        r#"{"nodes":[1,2],"k":2,"mode":"exact"}"#,
        r#"{"nodes":[3],"k":4,"theta":[0.5],"mode":"ann"}"#,
        r#"{"node":2,"mode":"auto"}"#,
        r#"{"nodes":[0],"k":0}"#,
        r#"{"nodes":[99],"k":1}"#,
    ];
    let mut v1_bodies = Vec::new();
    for q in &queries {
        let resp = client.post_json("/v1/align/topk", q).unwrap();
        v1_bodies.push(resp.body_str());
    }
    let envelope = format!("{{\"queries\":[{}]}}", queries.join(","));
    let resp = client.post_json("/v2/align/topk", &envelope).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    assert_eq!(
        resp.body_str(),
        format!("{{\"results\":[{}]}}", v1_bodies.join(",")),
        "a /v2 response must embed the exact /v1 bodies"
    );

    // Envelope-level failures stay whole-request 400s.
    let resp = client
        .post_json("/v2/align/topk", r#"{"nodes":[0]}"#)
        .unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.body_str().contains("queries"), "{}", resp.body_str());
    handle.shutdown().unwrap();
}

#[test]
fn coalesced_bursts_answer_with_sequential_bytes() {
    // A wide window plus a concurrent burst makes multi-job flushes all
    // but certain; the assertion is that they are invisible.
    let handle = start(ServerConfig {
        workers: 2,
        batch_window: Duration::from_millis(5),
        batch_cap: 64,
        queue_depth: 256,
        ..ServerConfig::default()
    });
    let addr = handle.addr().to_string();

    let bodies: Vec<String> = (0..6)
        .map(|i| format!("{{\"nodes\":[{}],\"k\":{}}}", i % 4, 1 + i % 5))
        .collect();
    // Sequential reference, one quiet request at a time.
    let client = plain_client(&addr);
    let reference: Vec<String> = bodies
        .iter()
        .map(|b| {
            let resp = client.post_json("/v1/align/topk", b).unwrap();
            assert_eq!(resp.status, 200, "{}", resp.body_str());
            resp.body_str()
        })
        .collect();

    let threads: Vec<_> = (0..8)
        .map(|t| {
            let addr = addr.clone();
            let bodies = bodies.clone();
            let reference = reference.clone();
            std::thread::spawn(move || {
                let client = Client::with_config(
                    &addr,
                    ClientConfig {
                        max_retries: 5,
                        jitter_seed: 0xB00 + t as u64,
                        ..ClientConfig::default()
                    },
                )
                .unwrap();
                let mut rng = Xorshift::new(0xC0A1 + t as u64);
                for _ in 0..20 {
                    let i = rng.below(bodies.len());
                    let resp = client.post_json("/v1/align/topk", &bodies[i]).unwrap();
                    assert_eq!(resp.status, 200, "{}", resp.body_str());
                    assert_eq!(
                        resp.body_str(),
                        reference[i],
                        "coalesced response drifted from the sequential bytes"
                    );
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("burst thread");
    }
    handle.shutdown().unwrap();
}

#[test]
fn window_beyond_deadline_becomes_a_deadline_503() {
    // A lone request sits in the coalescer for the full window; with the
    // window configured past the compute deadline, flush-time deadline
    // enforcement must turn it into a labelled 503, not a late answer.
    let handle = start(ServerConfig {
        workers: 1,
        batch_window: Duration::from_millis(150),
        deadline: Duration::from_millis(30),
        retry_after_secs: 2,
        ..ServerConfig::default()
    });
    let addr = handle.addr().to_string();
    let client = plain_client(&addr);
    let resp = client
        .post_json("/v1/align/topk", r#"{"nodes":[0],"k":1}"#)
        .unwrap();
    assert_eq!(resp.status, 503, "{}", resp.body_str());
    assert!(
        resp.body_str().contains("deadline"),
        "expected a deadline shed, got: {}",
        resp.body_str()
    );
    assert_eq!(
        resp.retry_after_secs(),
        Some(2.0),
        "deadline 503s carry Retry-After"
    );
    handle.shutdown().unwrap();
}
