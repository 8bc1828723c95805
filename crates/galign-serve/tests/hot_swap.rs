//! Hot artifact swap under sustained load: a serve node watching a
//! generation pointer file must swap its `TopkIndex` atomically —
//! zero dropped or errored requests, and every response consistent
//! with exactly one generation (the `x-galign-generation` header says
//! which, and the body must be that generation's answer, never a blend).

use galign_serve::artifact::{Artifact, Mat};
use galign_serve::server::{Server, ServerConfig, ServerHandle, GENERATION_HEADER};
use galign_serve::topk::TopkIndex;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn signed_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

fn artifact(seed: u64) -> Artifact {
    let mut rng = Rng(seed | 1);
    let mk = |n: usize, d: usize, rng: &mut Rng| {
        Mat::new(n, d, (0..n * d).map(|_| rng.signed_unit()).collect()).unwrap()
    };
    let source = mk(5, 4, &mut rng);
    let target = mk(9, 4, &mut rng);
    Artifact::new(vec![1.0], vec![source], vec![target], false).unwrap()
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("galign-hot-swap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

const QUERY: &str = r#"{"nodes": [0, 1, 2, 3, 4], "k": 6}"#;

/// One request; returns (status, generation header value, body).
fn query(addr: SocketAddr) -> (u16, u64, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(
        stream,
        "POST /v1/align/topk HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n{QUERY}",
        QUERY.len()
    )
    .expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {response:?}"));
    let (head, body) = response
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("headerless response: {response:?}"));
    let generation = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case(GENERATION_HEADER)
                .then(|| value.trim().parse::<u64>().ok())?
        })
        .unwrap_or_else(|| panic!("no generation header: {head:?}"));
    (status, generation, body.to_string())
}

/// The expected body for an artifact: ask a throwaway server holding it.
fn expected_body(a: &Artifact) -> String {
    let single = Server::bind(
        "127.0.0.1:0",
        TopkIndex::from_artifact(a.clone()),
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind reference node")
    .spawn();
    let (status, _, body) = query(single.addr());
    assert_eq!(status, 200, "{body}");
    single.shutdown().expect("reference shutdown");
    body
}

fn start_watching_server(a: &Artifact, pointer: &Path) -> ServerHandle {
    Server::bind(
        "127.0.0.1:0",
        TopkIndex::from_artifact(a.clone()),
        ServerConfig {
            workers: 3,
            generation_pointer: Some(pointer.to_path_buf()),
            generation_poll: Duration::from_millis(20),
            ..ServerConfig::default()
        },
    )
    .expect("bind watching server")
    .spawn()
}

#[test]
fn pointer_swap_under_load_drops_nothing_and_is_atomic_per_request() {
    let a = artifact(21);
    let b = artifact(22);
    let expected_a = Arc::new(expected_body(&a));
    let expected_b = Arc::new(expected_body(&b));
    assert_ne!(
        *expected_a, *expected_b,
        "fixture artifacts must answer differently"
    );
    let b_path = tmp("gen-b.galign");
    b.write(&b_path).unwrap();
    let pointer = tmp("generation-pointer");

    let handle = start_watching_server(&a, &pointer);
    let addr = handle.addr();

    // Sustained load across the swap: every response must be a 200 whose
    // body matches its own generation header — old or new, never a
    // blend, never an error.
    let loaders: Vec<_> = (0..4)
        .map(|t| {
            let expected_a = Arc::clone(&expected_a);
            let expected_b = Arc::clone(&expected_b);
            std::thread::spawn(move || {
                let mut seen_new = 0u64;
                for i in 0..80 {
                    let (status, generation, body) = query(addr);
                    assert_eq!(status, 200, "dropped request (thread {t}, {i}): {body}");
                    match generation {
                        1 => assert_eq!(body, *expected_a, "thread {t} req {i}"),
                        2 => {
                            seen_new += 1;
                            assert_eq!(body, *expected_b, "thread {t} req {i}");
                        }
                        g => panic!("unexpected generation {g}"),
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                seen_new
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(50));
    std::fs::write(&pointer, format!("{}\n", b_path.display())).unwrap();

    let mut swapped_responses = 0u64;
    for j in loaders {
        swapped_responses += j.join().expect("load thread panicked");
    }
    // The pointer poll is 20ms and the load runs ~160ms past the write:
    // the new generation must have been served while load was ongoing.
    assert!(
        swapped_responses > 0,
        "no request ever saw the swapped generation"
    );

    // Steady state after the swap: generation 2, new answers.
    let (status, generation, body) = query(addr);
    assert_eq!(status, 200);
    assert_eq!(generation, 2);
    assert_eq!(body, *expected_b);

    handle.shutdown().expect("clean shutdown");
}

/// One `POST /v1/admin/swap`; returns (status, body).
fn admin_swap(addr: SocketAddr, artifact_path: &Path) -> (u16, String) {
    let body = format!("{{\"artifact\":\"{}\"}}", artifact_path.display());
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(
        stream,
        "POST /v1/admin/swap HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("write swap request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {response:?}"));
    let (_, resp_body) = response
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("headerless response: {response:?}"));
    (status, resp_body.to_string())
}

#[test]
fn admin_swap_over_http_installs_the_next_generation() {
    // The admin swap loads the artifact on its own thread (the event
    // loop parks the connection as dispatched, exactly like a top-k
    // job): this exercises that full round trip over live HTTP.
    let a = artifact(41);
    let b = artifact(42);
    let expected_b = expected_body(&b);
    let b_path = tmp("admin-swap-b.galign");
    b.write(&b_path).unwrap();
    let handle = Server::bind(
        "127.0.0.1:0",
        TopkIndex::from_artifact(a.clone()),
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind")
    .spawn();
    let addr = handle.addr();

    let (status, body) = admin_swap(addr, &b_path);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"generation\":2"), "{body}");
    let (status, generation, body) = query(addr);
    assert_eq!(status, 200, "{body}");
    assert_eq!(generation, 2, "queries after the swap serve the new data");
    assert_eq!(body, expected_b);

    // A failed swap reports 400 through the same dispatched path and
    // leaves the installed generation alone.
    let (status, body) = admin_swap(addr, Path::new("/no/such/artifact"));
    assert_eq!(status, 400, "{body}");
    let (_, generation, _) = query(addr);
    assert_eq!(generation, 2, "failed swaps install nothing");
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn pointer_garbage_is_surfaced_but_never_fatal() {
    let a = artifact(31);
    let expected_a = Arc::new(expected_body(&a));
    let pointer = tmp("bad-pointer");
    let handle = start_watching_server(&a, &pointer);

    // Point at a file that is not an artifact: the server must keep
    // serving generation 1.
    let junk = tmp("junk.galign");
    std::fs::write(&junk, b"not an artifact").unwrap();
    std::fs::write(&pointer, format!("{}\n", junk.display())).unwrap();
    std::thread::sleep(Duration::from_millis(120));

    let (status, generation, body) = query(handle.addr());
    assert_eq!(status, 200);
    assert_eq!(generation, 1, "bad pointer must not install");
    assert_eq!(body, *expected_a);
    handle.shutdown().expect("clean shutdown");
}
