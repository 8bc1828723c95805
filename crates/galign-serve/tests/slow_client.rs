//! Event-loop robustness against badly behaved clients. The old
//! thread-per-connection server paid a thread for every dawdling socket;
//! the epoll loop must pay a map entry — and keep its promises while
//! doing so:
//!
//! * a request dribbled in byte by byte is parsed and answered normally;
//! * a client that half-closes (`shutdown(SHUT_WR)`) right after its
//!   request still receives the full response;
//! * a connection stalled mid-request does not delay other clients, even
//!   with a single compute worker;
//! * a stalled *first* request is eventually answered with `408` rather
//!   than silently dropped;
//! * two pipelined requests on one connection produce two in-order
//!   responses.

use galign_serve::artifact::{Artifact, Mat};
use galign_serve::server::{Server, ServerConfig, ServerHandle};
use galign_serve::topk::TopkIndex;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

fn start(cfg: ServerConfig) -> ServerHandle {
    let m = Mat::new(4, 2, vec![1.0, 0.0, 0.0, 1.0, 0.7, 0.7, 0.5, 0.5]).unwrap();
    let index = TopkIndex::from_artifact(
        Artifact::new(vec![1.0], vec![m.clone()], vec![m], false).unwrap(),
    );
    Server::bind("127.0.0.1:0", index, cfg).unwrap().spawn()
}

const QUERY: &str = r#"{"nodes":[0],"k":2}"#;

fn request_bytes(body: &str) -> Vec<u8> {
    format!(
        "POST /v1/align/topk HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Same request, but opting in to connection reuse (keep-alive is opt-in
/// on this server).
fn keep_alive_request_bytes(body: &str) -> Vec<u8> {
    format!(
        "POST /v1/align/topk HTTP/1.1\r\nhost: test\r\nconnection: keep-alive\r\n\
         content-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Reads exactly one HTTP/1.1 response (status line, headers,
/// content-length-delimited body) without waiting for EOF, so it works on
/// keep-alive connections.
fn read_response(reader: &mut BufReader<TcpStream>) -> (u16, String) {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable status line: {status_line:?}"));
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(str::trim)
        {
            content_length = v.parse().expect("content-length value");
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    (status, String::from_utf8(body).expect("UTF-8 body"))
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
}

/// The reference response body, obtained over a normal fast connection.
fn reference_body(addr: SocketAddr) -> String {
    let mut stream = connect(addr);
    stream.write_all(&request_bytes(QUERY)).unwrap();
    let mut reader = BufReader::new(stream);
    let (status, body) = read_response(&mut reader);
    assert_eq!(status, 200, "{body}");
    body
}

#[test]
fn dribbled_request_is_answered_like_a_fast_one() {
    let handle = start(ServerConfig::default());
    let addr = handle.addr();
    let expected = reference_body(addr);

    let mut stream = connect(addr);
    for chunk in request_bytes(QUERY).chunks(3) {
        stream.write_all(chunk).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut reader = BufReader::new(stream);
    let (status, body) = read_response(&mut reader);
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, expected, "dribbled request drifted from reference");
    handle.shutdown().unwrap();
}

#[test]
fn half_open_client_still_gets_its_response() {
    let handle = start(ServerConfig::default());
    let addr = handle.addr();
    let expected = reference_body(addr);

    let mut stream = connect(addr);
    stream.write_all(&request_bytes(QUERY)).unwrap();
    // Close our write half: the server sees EOF after the request, but
    // the read half stays open and must carry the answer.
    stream.shutdown(Shutdown::Write).unwrap();
    let mut reader = BufReader::new(stream);
    let (status, body) = read_response(&mut reader);
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, expected);
    handle.shutdown().unwrap();
}

#[test]
fn stalled_connection_does_not_block_fast_clients() {
    // One compute worker: under the old thread-per-connection design a
    // stalled socket could pin the pool; the event loop must not care.
    let handle = start(ServerConfig {
        workers: 1,
        request_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    // Stall three connections mid-request and keep them open.
    let stalled: Vec<TcpStream> = (0..3)
        .map(|_| {
            let mut s = connect(addr);
            s.write_all(b"POST /v1/align/topk HTTP/1.1\r\ncontent-le")
                .unwrap();
            s
        })
        .collect();

    let t0 = Instant::now();
    let body = reference_body(addr);
    assert!(!body.is_empty());
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "fast client waited {:?} behind stalled connections",
        t0.elapsed()
    );
    drop(stalled);
    handle.shutdown().unwrap();
}

#[test]
fn stalled_first_request_times_out_with_408() {
    let handle = start(ServerConfig {
        request_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    let mut stream = connect(addr);
    stream
        .write_all(b"POST /v1/align/topk HTTP/1.1\r\n")
        .unwrap();
    let mut reader = BufReader::new(stream);
    let (status, body) = read_response(&mut reader);
    assert_eq!(status, 408, "{body}");
    assert!(body.contains("timed out"), "{body}");
    handle.shutdown().unwrap();
}

#[test]
fn slow_loris_trickle_cannot_extend_the_request_deadline() {
    let handle = start(ServerConfig {
        request_timeout: Duration::from_millis(250),
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    let stream = connect(addr);
    let mut writer = stream.try_clone().unwrap();
    let t0 = Instant::now();
    // A header that never finishes, one byte every 15ms: steady progress
    // that would defeat a per-read deadline reset. The window is anchored
    // at accept, so the 408 must arrive around request_timeout no matter
    // how long the trickle could keep going.
    let trickler = std::thread::spawn(move || {
        let head = b"POST /v1/align/topk HTTP/1.1\r\nx-pad: ";
        for &b in head.iter().chain(std::iter::repeat(&b'a')).take(400) {
            if writer.write_all(&[b]).is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(15));
        }
    });
    let mut reader = BufReader::new(stream);
    let (status, body) = read_response(&mut reader);
    assert_eq!(status, 408, "{body}");
    assert!(
        t0.elapsed() < Duration::from_secs(3),
        "408 took {:?}: reads are extending the deadline again",
        t0.elapsed()
    );
    trickler.join().unwrap();
    handle.shutdown().unwrap();
}

#[test]
fn blank_line_flood_is_rejected_not_buffered_forever() {
    let handle = start(ServerConfig::default());
    let addr = handle.addr();

    let mut stream = connect(addr);
    // Pure CRLFs never form a request head; past the head limit the
    // server must answer 400 instead of holding a growing Partial buffer.
    let flood = b"\r\n".repeat(20 * 1024);
    let _ = stream.write_all(&flood); // server may close mid-flood
    let mut reader = BufReader::new(stream);
    let (status, body) = read_response(&mut reader);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("head too large"), "{body}");
    handle.shutdown().unwrap();
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let handle = start(ServerConfig::default());
    let addr = handle.addr();
    let expected = reference_body(addr);

    let mut stream = connect(addr);
    let mut two = keep_alive_request_bytes(QUERY);
    two.extend_from_slice(&keep_alive_request_bytes(QUERY));
    stream.write_all(&two).unwrap();
    let mut reader = BufReader::new(stream);
    for _ in 0..2 {
        let (status, body) = read_response(&mut reader);
        assert_eq!(status, 200, "{body}");
        assert_eq!(body, expected);
    }
    handle.shutdown().unwrap();
}
