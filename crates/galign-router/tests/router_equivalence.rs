//! Routed == single-node, byte for byte.
//!
//! The tentpole guarantee of the router: a top-k query answered by a
//! sharded fleet is **bit-identical** to the same query answered by one
//! node holding the full embedding matrix — for any shard split (uneven,
//! single-shard, many shards), ties straddling merge boundaries, and
//! `k` larger than any single shard's row count. A separate test pins
//! the ANN contract per shard: the ANN engine may miss targets, never
//! mis-score one, so every routed ANN hit carries the exact kernel's
//! score bits.

use galign_matrix::check::cases;
use galign_router::server::{Router, RouterConfig, RouterHandle};
use galign_router::topology::Topology;
use galign_serve::artifact::{Artifact, Mat};
use galign_serve::client::ClientConfig;
use galign_serve::json;
use galign_serve::server::{Server, ServerConfig, ServerHandle};
use galign_serve::topk::{Backend, Plan, RowQuery, TopkIndex};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// xorshift64* — deterministic fixtures without external RNG deps.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in [-1, 1).
    fn signed_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

fn random_layers(rng: &mut Rng, n: usize, dims: &[usize]) -> Vec<Mat> {
    dims.iter()
        .map(|&d| {
            let data: Vec<f64> = (0..n * d).map(|_| rng.signed_unit()).collect();
            Mat::new(n, d, data).expect("shape by construction")
        })
        .collect()
}

fn random_artifact(seed: u64, source: usize, target: usize, dims: &[usize]) -> Artifact {
    let mut rng = Rng::new(seed);
    Artifact::new(
        vec![1.0 / dims.len() as f64; dims.len()],
        random_layers(&mut rng, source, dims),
        random_layers(&mut rng, target, dims),
        false,
    )
    .expect("fixture artifact")
}

/// Target rows cycle through 3 prototypes, so every score is exactly
/// tied with every ⌈rows/3⌉-th row — including across any shard
/// boundary. The tie contract (ascending global id) must survive the
/// merge for these to come back byte-identical.
fn tie_heavy_artifact(rows: usize) -> Artifact {
    let mut rng = Rng::new(99);
    let protos: Vec<Vec<f64>> = (0..3)
        .map(|_| (0..4).map(|_| rng.signed_unit()).collect())
        .collect();
    let data: Vec<f64> = (0..rows).flat_map(|r| protos[r % 3].clone()).collect();
    let target = Mat::new(rows, 4, data).unwrap();
    let source = random_layers(&mut rng, 5, &[4]).remove(0);
    Artifact::new(vec![1.0], vec![source], vec![target], false).unwrap()
}

fn serve_cfg() -> ServerConfig {
    ServerConfig {
        workers: 2,
        request_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    }
}

fn start_single(artifact: &Artifact) -> ServerHandle {
    Server::bind(
        "127.0.0.1:0",
        TopkIndex::from_artifact(artifact.clone()),
        serve_cfg(),
    )
    .expect("bind single node")
    .spawn()
}

/// Splits and serves: `replicas` serve nodes per shard, returning the
/// handles plus the replica address groups for topology discovery.
fn start_fleet(
    artifact: &Artifact,
    num_shards: usize,
    replicas: usize,
    ann: bool,
) -> (Vec<ServerHandle>, Vec<Vec<String>>) {
    let shards = artifact.split(num_shards, None).expect("split");
    let mut handles = Vec::new();
    let mut groups = Vec::new();
    for shard in &shards {
        let mut group = Vec::new();
        for _ in 0..replicas {
            let mut index = TopkIndex::from_artifact(shard.clone());
            let mut cfg = serve_cfg();
            if ann {
                index.build_ann(Backend::Hnsw).expect("per-shard ANN");
                cfg.ann_threshold = Some(1);
            }
            let handle = Server::bind("127.0.0.1:0", index, cfg)
                .expect("bind shard node")
                .spawn();
            group.push(handle.addr().to_string());
            handles.push(handle);
        }
        groups.push(group);
    }
    (handles, groups)
}

fn start_router(groups: &[Vec<String>]) -> RouterHandle {
    start_router_with(groups, RouterConfig::default())
}

fn start_router_with(groups: &[Vec<String>], cfg: RouterConfig) -> RouterHandle {
    let client = ClientConfig {
        max_retries: 1,
        ..ClientConfig::default()
    };
    let topology = Topology::discover(groups, &client).expect("discover topology");
    Router::bind("127.0.0.1:0", topology, cfg)
        .expect("bind router")
        .spawn()
}

/// The most aggressive hedge policy expressible: every shard hop races
/// two replicas from the first instant, unmetered. Byte-identity must be
/// indifferent to which racer wins.
fn hedge_everything() -> RouterConfig {
    RouterConfig {
        hedge_after: Some(Duration::ZERO),
        hedge_adaptive: false,
        hedge_budget_ratio: 0.0, // <= 0 removes the meter
        ..RouterConfig::default()
    }
}

fn send(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let body = body.unwrap_or("");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {response:?}"));
    let payload = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, payload)
}

fn shutdown_all(handles: Vec<ServerHandle>) {
    for h in handles {
        h.shutdown().expect("shard shutdown");
    }
}

#[test]
fn routed_topk_is_byte_identical_across_shard_splits() {
    let rows = 11;
    let artifact = tie_heavy_artifact(rows);
    let single = start_single(&artifact);
    // Uneven splits (11 rows over 2, 3, 5 shards), the degenerate
    // single-shard split, and k exceeding every shard's row count.
    for num_shards in [1usize, 2, 3, 5] {
        let (fleet, groups) = start_fleet(&artifact, num_shards, 1, false);
        let router = start_router(&groups);
        let queries = [
            r#"{"nodes": [0, 1, 2, 3, 4], "k": 1}"#.to_string(),
            r#"{"nodes": [0, 2, 4], "k": 3}"#.to_string(),
            r#"{"node": 1, "k": 4}"#.to_string(),
            r#"{"nodes": [0, 1, 2, 3, 4]}"#.to_string(), // default k
            format!("{{\"nodes\": [4, 0, 3], \"k\": {rows}}}"), // k == all rows
            format!("{{\"nodes\": [1], \"k\": {}}}", rows + 7), // k > shard rows
            r#"{"nodes": [2, 3], "k": 5, "theta": [1.0]}"#.to_string(),
        ];
        for body in &queries {
            let (s1, b1) = send(single.addr(), "POST", "/v1/align/topk", Some(body));
            let (s2, b2) = send(router.addr(), "POST", "/v1/align/topk", Some(body));
            assert_eq!(s1, 200, "single: {b1}");
            assert_eq!(s2, 200, "routed ({num_shards} shards): {b2}");
            assert_eq!(b1, b2, "{num_shards} shards, body {body}");
        }
        // Error parity: the router rejects what the fleet would reject.
        for bad in ["{", r#"{"nodes": []}"#, r#"{"node": 0, "k": 0}"#] {
            let (s1, _) = send(single.addr(), "POST", "/v1/align/topk", Some(bad));
            let (s2, _) = send(router.addr(), "POST", "/v1/align/topk", Some(bad));
            assert_eq!(s1, s2, "status parity for {bad}");
        }
        // Out-of-range node: shards reject it, the router forwards the
        // shard's 400 verbatim.
        let oob = format!("{{\"node\": {}}}", 5);
        let (s1, b1) = send(single.addr(), "POST", "/v1/align/topk", Some(&oob));
        let (s2, b2) = send(router.addr(), "POST", "/v1/align/topk", Some(&oob));
        assert_eq!((s1, b1), (s2, b2), "forwarded 400 must match bytes");
        router.shutdown().expect("router shutdown");
        shutdown_all(fleet);
    }
    single.shutdown().expect("single shutdown");
}

#[test]
fn routed_v2_batches_are_byte_identical_to_single_node() {
    let rows = 11;
    let artifact = tie_heavy_artifact(rows);
    let single = start_single(&artifact);
    for num_shards in [1usize, 3] {
        let (fleet, groups) = start_fleet(&artifact, num_shards, 1, false);
        let router = start_router(&groups);
        // Mixed batch: defaults, ties across shard boundaries, per-query
        // θ, k beyond every shard's rows, and two per-slot rejections
        // (bad k, out-of-range node) that must come back as slot errors,
        // not whole-request failures.
        let envelope = format!(
            "{{\"queries\": [\
             {{\"nodes\": [0, 1, 2], \"k\": 4}}, \
             {{\"node\": 3}}, \
             {{\"nodes\": [4, 0], \"k\": {}, \"theta\": [1.0]}}, \
             {{\"nodes\": [1], \"k\": 0}}, \
             {{\"node\": 9, \"k\": 2}}]}}",
            rows + 5
        );
        let (s1, b1) = send(single.addr(), "POST", "/v2/align/topk", Some(&envelope));
        let (s2, b2) = send(router.addr(), "POST", "/v2/align/topk", Some(&envelope));
        assert_eq!(s1, 200, "single: {b1}");
        assert_eq!(s2, 200, "routed ({num_shards} shards): {b2}");
        assert_eq!(b1, b2, "{num_shards} shards: routed v2 bytes drifted");
        // Envelope-level failures keep status parity too.
        for bad in ["{", r#"{"nodes": [0]}"#, r#"{"queries": []}"#] {
            let (s1, _) = send(single.addr(), "POST", "/v2/align/topk", Some(bad));
            let (s2, _) = send(router.addr(), "POST", "/v2/align/topk", Some(bad));
            assert_eq!(s1, s2, "status parity for {bad}");
        }
        router.shutdown().expect("router shutdown");
        shutdown_all(fleet);
    }
    single.shutdown().expect("single shutdown");
}

#[test]
fn routed_ann_hits_carry_exact_score_bits() {
    let artifact = random_artifact(41, 7, 60, &[5, 3]);
    // Ground truth: the exact kernel's score for every (node, target).
    let exact = TopkIndex::from_artifact(artifact.clone());
    let (fleet, groups) = start_fleet(&artifact, 3, 1, true);
    let router = start_router(&groups);
    let (status, body) = send(
        router.addr(),
        "POST",
        "/v1/align/topk",
        Some(r#"{"nodes": [0, 1, 2, 3, 4, 5, 6], "k": 8}"#),
    );
    assert_eq!(status, 200, "{body}");
    let doc = json::parse(&body).expect("routed JSON");
    assert_eq!(
        doc.get("engine").unwrap().as_str(),
        Some("ann"),
        "per-shard ANN must be reported: {body}"
    );
    let results = doc.get("results").unwrap().as_arr().unwrap();
    assert_eq!(results.len(), 7);
    for (node, entry) in results.iter().enumerate() {
        let truth: std::collections::HashMap<usize, f64> = exact
            .topk(&[RowQuery { node, k: 60 }], None, Plan::EXACT)
            .unwrap()
            .remove(0)
            .0
            .into_iter()
            .map(|h| (h.target, h.score))
            .collect();
        let matches = entry.get("matches").unwrap().as_arr().unwrap();
        assert!(!matches.is_empty());
        let mut prev = f64::INFINITY;
        for m in matches {
            let target = m.get("target").unwrap().as_usize().unwrap();
            let score = m.get("score").unwrap().as_f64().unwrap();
            let want = truth[&target];
            assert_eq!(
                score.to_bits(),
                want.to_bits(),
                "node {node} target {target}: ANN score drifted"
            );
            assert!(score <= prev, "merged ANN hits out of order");
            prev = score;
        }
    }
    router.shutdown().expect("router shutdown");
    shutdown_all(fleet);
}

/// Hedging is a *race*: with the hedge delay at zero every shard query
/// fires at both replicas and whichever finishes first is the answer.
/// Since replicas of a shard serve the same artifact and the response
/// path is deterministic, the winner must not be observable — routed
/// bytes stay identical to the single node's no matter who wins, across
/// repeated rounds so both orderings actually occur.
#[test]
fn hedged_races_are_byte_identical_whichever_replica_wins() {
    let rows = 11;
    let artifact = tie_heavy_artifact(rows);
    let single = start_single(&artifact);
    let (fleet, groups) = start_fleet(&artifact, 2, 2, false);
    let router = start_router_with(&groups, hedge_everything());
    let queries = [
        r#"{"nodes": [0, 1, 2, 3, 4], "k": 3}"#.to_string(),
        format!("{{\"nodes\": [4, 0, 3], \"k\": {rows}}}"),
        r#"{"nodes": [2, 3], "k": 5, "theta": [1.0]}"#.to_string(),
    ];
    for round in 0..10 {
        for body in &queries {
            let (s1, b1) = send(single.addr(), "POST", "/v1/align/topk", Some(body));
            let (s2, b2) = send(router.addr(), "POST", "/v1/align/topk", Some(body));
            assert_eq!((s1, s2), (200, 200), "round {round}: {b1} / {b2}");
            assert_eq!(b1, b2, "round {round}: hedged race changed the bytes");
        }
    }
    router.shutdown().expect("router shutdown");
    shutdown_all(fleet);
    single.shutdown().expect("single shutdown");
}

#[test]
fn router_healthz_reports_topology() {
    let artifact = tie_heavy_artifact(9);
    let (fleet, groups) = start_fleet(&artifact, 3, 1, false);
    let router = start_router(&groups);
    let (status, body) = send(router.addr(), "GET", "/healthz", None);
    assert_eq!(status, 200, "{body}");
    let doc = json::parse(&body).expect("healthz JSON");
    assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(doc.get("role").unwrap().as_str(), Some("router"));
    assert_eq!(doc.get("num_shards").unwrap().as_usize(), Some(3));
    assert_eq!(doc.get("target_nodes").unwrap().as_usize(), Some(9));
    let shards = doc.get("shards").unwrap().as_arr().unwrap();
    assert_eq!(shards.len(), 3);
    for (i, s) in shards.iter().enumerate() {
        assert_eq!(s.get("shard_id").unwrap().as_usize(), Some(i));
        assert_eq!(s.get("healthy").unwrap().as_usize(), Some(1));
    }
    router.shutdown().expect("router shutdown");
    shutdown_all(fleet);
}

/// Any random artifact, any shard count, any k: routed bytes equal
/// single-node bytes.
#[test]
fn routed_matches_single_node_for_random_splits() {
    cases(12, |rng| {
        let seed = rng.range(1..1000) as u64;
        let target = rng.range(6..14);
        let num_shards = rng.range(1..4);
        let k = rng.range(1..9);
        let num_shards = num_shards.min(target);
        let artifact = random_artifact(seed, 4, target, &[3, 2]);
        let single = start_single(&artifact);
        let (fleet, groups) = start_fleet(&artifact, num_shards, 1, false);
        let router = start_router(&groups);
        let body = format!("{{\"nodes\": [0, 1, 2, 3], \"k\": {k}}}");
        let (s1, b1) = send(single.addr(), "POST", "/v1/align/topk", Some(&body));
        let (s2, b2) = send(router.addr(), "POST", "/v1/align/topk", Some(&body));
        assert_eq!(s1, 200, "single: {}", b1);
        assert_eq!(s2, 200, "routed: {}", b2);
        assert_eq!(
            b1, b2,
            "seed {} target {} shards {}",
            seed, target, num_shards
        );
        router.shutdown().expect("router shutdown");
        shutdown_all(fleet);
        single.shutdown().expect("single shutdown");
    });
}

/// The hedged variant of the property: two replicas per shard, the
/// hedge fired on every hop. Whichever replica wins each race, the
/// routed bytes must equal the single node's.
#[test]
fn hedged_routed_matches_single_node_for_random_splits() {
    cases(12, |rng| {
        let seed = rng.range(1..1000) as u64;
        let target = rng.range(6..12);
        let num_shards = rng.range(1..3);
        let k = rng.range(1..9);
        let num_shards = num_shards.min(target);
        let artifact = random_artifact(seed, 4, target, &[3, 2]);
        let single = start_single(&artifact);
        let (fleet, groups) = start_fleet(&artifact, num_shards, 2, false);
        let router = start_router_with(&groups, hedge_everything());
        let body = format!("{{\"nodes\": [0, 1, 2, 3], \"k\": {k}}}");
        let (s1, b1) = send(single.addr(), "POST", "/v1/align/topk", Some(&body));
        let (s2, b2) = send(router.addr(), "POST", "/v1/align/topk", Some(&body));
        assert_eq!(s1, 200, "single: {}", b1);
        assert_eq!(s2, 200, "hedged routed: {}", b2);
        assert_eq!(
            b1, b2,
            "seed {} target {} shards {}",
            seed, target, num_shards
        );
        router.shutdown().expect("router shutdown");
        shutdown_all(fleet);
        single.shutdown().expect("single shutdown");
    });
}
