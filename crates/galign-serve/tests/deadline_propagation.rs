//! Deadline propagation between a caller and the serve tier, without
//! failpoints: a request advertising its remaining budget via
//! `x-galign-deadline-ms` gets a per-request deadline clamped to that
//! budget, so a job whose caller has already given up is shed with a
//! labelled `503 + Retry-After` at flush time instead of computing an
//! answer nobody is waiting for. The client side is covered too: a
//! deadline-carrying request stamps the header with its *remaining*
//! milliseconds, and an already-expired deadline fails fast without
//! touching the network.

use galign_serve::artifact::{Artifact, Mat};
use galign_serve::client::{Client, ClientConfig};
use galign_serve::server::{Server, ServerConfig, ServerHandle, DEADLINE_HEADER};
use galign_serve::topk::TopkIndex;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

fn test_server(cfg: ServerConfig) -> ServerHandle {
    let m = Mat::new(4, 2, vec![1.0, 0.0, 0.0, 1.0, 0.7, 0.7, 0.5, 0.5]).unwrap();
    let index = TopkIndex::from_artifact(
        Artifact::new(vec![1.0], vec![m.clone()], vec![m], false).unwrap(),
    );
    Server::bind("127.0.0.1:0", index, cfg).unwrap().spawn()
}

/// One raw request with an optional extra header line; returns
/// (status, full response text). Raw sockets keep the test independent
/// of the client's own header stamping.
fn raw_request(addr: SocketAddr, extra_header: Option<&str>) -> (u16, String) {
    let body = r#"{"nodes":[0],"k":1}"#;
    let extra = extra_header.map_or(String::new(), |h| format!("{h}\r\n"));
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(
        stream,
        "POST /v1/align/topk HTTP/1.1\r\nhost: test\r\n{extra}content-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).unwrap();
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    (status, text)
}

#[test]
fn zero_advertised_budget_is_shed_at_flush_time() {
    let handle = test_server(ServerConfig {
        retry_after_secs: 2,
        ..ServerConfig::default()
    });
    let (status, text) = raw_request(handle.addr(), Some("x-galign-deadline-ms: 0"));
    assert_eq!(status, 503, "{text}");
    assert!(text.contains("deadline"), "{text}");
    assert!(
        text.to_ascii_lowercase().contains("retry-after: 2"),
        "deadline 503s carry Retry-After: {text}"
    );
    handle.shutdown().unwrap();
}

#[test]
fn generous_or_absent_budget_serves_normally() {
    let handle = test_server(ServerConfig::default());
    let (status, text) = raw_request(handle.addr(), Some("x-galign-deadline-ms: 60000"));
    assert_eq!(status, 200, "{text}");
    let (status, text) = raw_request(handle.addr(), None);
    assert_eq!(status, 200, "{text}");
    // Malformed budgets are ignored, not treated as zero.
    let (status, text) = raw_request(handle.addr(), Some("x-galign-deadline-ms: soon"));
    assert_eq!(status, 200, "{text}");
    handle.shutdown().unwrap();
}

#[test]
fn client_stamps_remaining_budget_on_the_wire() {
    // A hand-rolled single-shot server captures the raw request bytes.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let capture = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut buf = [0u8; 4096];
        let mut req = Vec::new();
        // Read until the (empty) body has arrived: headers end + body.
        while !String::from_utf8_lossy(&req).contains("\r\n\r\n") {
            let n = stream.read(&mut buf).unwrap();
            assert!(n > 0, "client hung up before sending a full request");
            req.extend_from_slice(&buf[..n]);
        }
        stream
            .write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\nconnection: close\r\n\r\n{}")
            .unwrap();
        String::from_utf8_lossy(&req).into_owned()
    });

    let client = Client::with_config(
        &addr.to_string(),
        ClientConfig {
            max_retries: 0,
            ..ClientConfig::default()
        },
    )
    .unwrap();
    let deadline = Instant::now() + Duration::from_secs(1);
    let resp = client
        .post_json_with_deadline("/v1/align/topk", "{}", Some(deadline))
        .expect("request should reach the capture server");
    assert_eq!(resp.status, 200);

    let req = capture.join().unwrap();
    let line = req
        .lines()
        .find(|l| l.to_ascii_lowercase().starts_with(DEADLINE_HEADER))
        .unwrap_or_else(|| panic!("request must carry {DEADLINE_HEADER}: {req}"));
    let ms: u64 = line
        .split(':')
        .nth(1)
        .and_then(|v| v.trim().parse().ok())
        .expect("budget must be an integer");
    assert!(
        ms > 0 && ms <= 1000,
        "stamped budget must be the remaining time, got {ms}ms"
    );
}

#[test]
fn expired_deadline_fails_fast_without_an_attempt() {
    // Bound but never accepted: if the client attempted the request it
    // would connect and block, so an instant TimedOut proves the loop
    // checked the deadline first.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let client = Client::with_config(&addr.to_string(), ClientConfig::default()).unwrap();
    let started = Instant::now();
    let err = client
        .post_json_with_deadline("/v1/align/topk", "{}", Some(Instant::now()))
        .expect_err("expired deadline must not produce a response");
    assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
    assert!(
        started.elapsed() < Duration::from_millis(500),
        "deadline check must not sleep through retries"
    );
}
