//! End-to-end server tests over real TCP sockets: bind an ephemeral
//! port, speak actual HTTP/1.1 from a raw `TcpStream` client, and verify
//! routing, query results, metrics exposure and graceful shutdown.

use galign_serve::artifact::{Artifact, Mat};
use galign_serve::json::{self, Json};
use galign_serve::server::{Server, ServerConfig, ServerHandle};
use galign_serve::topk::{Plan, RowQuery, TopkIndex};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn demo_index() -> TopkIndex {
    // Two layers over two slightly different embeddings; node i's best
    // alignment is target i by construction.
    let l0 = Mat::new(
        4,
        3,
        vec![
            1.0, 0.0, 0.0, //
            0.0, 1.0, 0.0, //
            0.0, 0.0, 1.0, //
            0.5, 0.5, 0.0,
        ],
    )
    .unwrap();
    let l1 = Mat::new(
        4,
        2,
        vec![
            0.9, 0.1, //
            0.1, 0.9, //
            -0.8, 0.3, //
            0.4, -0.4,
        ],
    )
    .unwrap();
    let artifact = Artifact::new(
        vec![0.6, 0.4],
        vec![l0.clone(), l1.clone()],
        vec![l0, l1],
        false,
    )
    .unwrap();
    TopkIndex::from_artifact(artifact)
}

fn start_server() -> ServerHandle {
    let cfg = ServerConfig {
        workers: 3,
        request_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    };
    Server::bind("127.0.0.1:0", demo_index(), cfg)
        .expect("bind ephemeral port")
        .spawn()
}

/// Minimal HTTP client: one request, reads to EOF (the server closes).
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

#[test]
fn full_server_lifecycle_over_tcp() {
    let handle = start_server();
    let addr = handle.addr();

    // healthz reports the artifact shape.
    let (status, body) = send(addr, "GET", "/healthz", None);
    assert_eq!(status, 200, "{body}");
    let health = json::parse(&body).expect("healthz JSON");
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(health.get("source_nodes").unwrap().as_usize(), Some(4));
    assert_eq!(health.get("layers").unwrap().as_usize(), Some(2));

    // A top-k query over the wire matches the in-process kernel.
    let index = demo_index();
    let (status, body) = send(
        addr,
        "POST",
        "/v1/align/topk",
        Some(r#"{"nodes": [0, 1, 2, 3], "k": 2}"#),
    );
    assert_eq!(status, 200, "{body}");
    let doc = json::parse(&body).expect("topk JSON");
    assert_eq!(doc.get("k").unwrap().as_usize(), Some(2));
    let results = doc.get("results").unwrap().as_arr().unwrap();
    assert_eq!(results.len(), 4);
    for (node, entry) in results.iter().enumerate() {
        assert_eq!(entry.get("node").unwrap().as_usize(), Some(node));
        let matches = entry.get("matches").unwrap().as_arr().unwrap();
        let (expected, _) = index
            .topk(&[RowQuery { node, k: 2 }], None, Plan::EXACT)
            .unwrap()
            .remove(0);
        assert_eq!(matches.len(), expected.len());
        for (m, e) in matches.iter().zip(&expected) {
            assert_eq!(m.get("target").unwrap().as_usize(), Some(e.target));
            let score = m.get("score").unwrap().as_f64().unwrap();
            assert!(
                (score - e.score).abs() < 1e-9,
                "wire score {score} vs kernel {}",
                e.score
            );
        }
    }

    // Same query again: served from the LRU (visible in /metrics).
    let (status, _) = send(
        addr,
        "POST",
        "/v1/align/topk",
        Some(r#"{"nodes": [0, 1, 2, 3], "k": 2}"#),
    );
    assert_eq!(status, 200);
    let (status, body) = send(addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    let metrics = json::parse(&body).expect("metrics JSON");
    let counters = metrics.get("counters").expect("counters object");
    let counter = |name: &str| counters.get(name).and_then(Json::as_f64).unwrap_or(0.0);
    assert!(counter("serve.topk.requests") >= 2.0);
    assert!(counter("serve.topk.cache_hits") >= 4.0, "{body}");
    assert!(counter("serve.http.requests") >= 3.0);

    // Error surface.
    assert_eq!(send(addr, "GET", "/nope", None).0, 404);
    assert_eq!(send(addr, "GET", "/v1/align/topk", None).0, 405);
    let (status, body) = send(addr, "POST", "/v1/align/topk", Some("{"));
    assert_eq!(status, 400);
    assert!(body.contains("error"));
    let (status, body) = send(addr, "POST", "/v1/align/topk", Some(r#"{"nodes":[77]}"#));
    assert_eq!(status, 400);
    assert!(body.contains("out of range"), "{body}");

    // Graceful shutdown joins the accept loop and every worker.
    handle.shutdown().expect("clean shutdown");
    // The port is released: a fresh connection must fail (possibly after
    // the OS recycles the backlog, so allow a few attempts).
    let mut refused = false;
    for _ in 0..50 {
        match TcpStream::connect_timeout(&addr, Duration::from_millis(100)) {
            Err(_) => {
                refused = true;
                break;
            }
            Ok(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    assert!(refused, "listener still accepting after shutdown");
}

#[test]
fn shutdown_endpoint_stops_the_server() {
    let handle = start_server();
    let addr = handle.addr();
    let (status, body) = send(addr, "POST", "/v1/admin/shutdown", None);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("shutting-down"));
    // run() must return on its own — join via the handle (shutdown() is
    // idempotent: the flag is already set).
    handle.shutdown().expect("clean exit after admin shutdown");
}

#[test]
fn concurrent_clients_all_get_answers() {
    let handle = start_server();
    let addr = handle.addr();
    let mut joins = Vec::new();
    for t in 0..8 {
        joins.push(std::thread::spawn(move || {
            for i in 0..10 {
                let node = (t + i) % 4;
                let (status, body) = send(
                    addr,
                    "POST",
                    "/v1/align/topk",
                    Some(&format!("{{\"node\": {node}, \"k\": 1}}")),
                );
                assert_eq!(status, 200, "{body}");
                let doc = json::parse(&body).unwrap();
                let matches = doc.get("results").unwrap().as_arr().unwrap()[0]
                    .get("matches")
                    .unwrap()
                    .as_arr()
                    .unwrap();
                assert_eq!(matches[0].get("target").unwrap().as_usize(), Some(node));
            }
        }));
    }
    for j in joins {
        j.join().expect("client thread");
    }
    handle.shutdown().expect("clean shutdown");
}
