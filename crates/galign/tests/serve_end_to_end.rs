//! Full pipeline → artifact → server integration: align a small synthetic
//! pair, export the binary serving artifact, reload it from disk, serve it
//! over a real TCP socket, and check the served top-1 pairs against
//! `GAlignResult::top1_anchors()`. Also proves a corrupted artifact cannot
//! be loaded.

use galign::artifact::{artifact_from_result, export_artifact};
use galign::{GAlign, GAlignConfig};
use galign_graph::{generators, AttributedGraph};
use galign_matrix::rng::SeededRng;
use galign_serve::artifact::Artifact;
use galign_serve::json;
use galign_serve::server::{Server, ServerConfig};
use galign_serve::topk::TopkIndex;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn permuted_pair(seed: u64, n: usize) -> (AttributedGraph, AttributedGraph) {
    let mut rng = SeededRng::new(seed);
    let edges = generators::barabasi_albert(&mut rng, n, 3);
    let attrs = generators::binary_attributes(&mut rng, n, 12, 3);
    let g = AttributedGraph::from_edges(n, &edges, attrs);
    let perm = rng.permutation(n);
    let target = g.permute(&perm);
    (g, target)
}

fn post_json(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(
        stream,
        "POST {path} HTTP/1.1\r\nhost: e2e\r\ncontent-length: {}\r\n\r\n{body}",
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

#[test]
fn pipeline_to_served_queries_end_to_end() {
    // 1. Run the full unsupervised pipeline on a small synthetic pair.
    let (source, target) = permuted_pair(3, 30);
    let result = GAlign::new(GAlignConfig::fast())
        .align(&source, &target, 11)
        .unwrap();
    let expected = result.top1_anchors();
    assert_eq!(expected.len(), 30);

    // 2. Export the serving artifact and reload it from disk — the
    //    round-trip must be bit-exact.
    let dir = std::env::temp_dir().join("galign-serve-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("artifact.bin");
    export_artifact(&result, &path).unwrap();
    let reloaded = Artifact::read(&path).unwrap();
    assert_eq!(artifact_from_result(&result).unwrap(), reloaded);
    assert!(reloaded.rows_normalized);

    // 3. Serve the reloaded artifact over a real TCP socket and compare
    //    every top-1 answer with the pipeline's own anchors.
    let cfg = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let handle = Server::bind("127.0.0.1:0", TopkIndex::from_artifact(reloaded), cfg)
        .expect("bind ephemeral port")
        .spawn();
    let nodes: Vec<String> = (0..30).map(|v| v.to_string()).collect();
    let body = format!("{{\"nodes\":[{}],\"k\":1}}", nodes.join(","));
    let (status, payload) = post_json(handle.addr(), "/v1/align/topk", &body);
    assert_eq!(status, 200, "{payload}");
    let doc = json::parse(&payload).expect("topk JSON");
    let results = doc.get("results").unwrap().as_arr().unwrap();
    assert_eq!(results.len(), expected.len());
    for ((v, u), entry) in expected.iter().zip(results) {
        assert_eq!(entry.get("node").unwrap().as_usize(), Some(*v));
        let matches = entry.get("matches").unwrap().as_arr().unwrap();
        assert_eq!(
            matches[0].get("target").unwrap().as_usize(),
            Some(*u),
            "served top-1 for node {v} disagrees with top1_anchors()"
        );
    }
    handle.shutdown().expect("clean shutdown");

    // 4. A corrupted artifact must be rejected at load time.
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    let err = Artifact::from_bytes(&bytes).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}
