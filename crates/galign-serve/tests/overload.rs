//! Overload-protection integration tests, driven by the `serve.topk.stall`
//! failpoint: a stalled worker pool forces the bounded pending queue to
//! shed, and the tests assert the contract a client sees — `503` with a
//! `Retry-After` header, never a hung connection — and that the retrying
//! client rides out the shedding without losing requests.
//!
//! Run with `cargo test -p galign-serve --features failpoints`.
#![cfg(feature = "failpoints")]

use galign_serve::artifact::{Artifact, Mat};
use galign_serve::client::{Client, ClientConfig};
use galign_serve::server::{Server, ServerConfig, ServerHandle};
use galign_serve::topk::TopkIndex;
use galign_telemetry::failpoint;
use std::time::Duration;

fn test_server(cfg: ServerConfig) -> ServerHandle {
    let m = Mat::new(4, 2, vec![1.0, 0.0, 0.0, 1.0, 0.7, 0.7, 0.5, 0.5]).unwrap();
    let index = TopkIndex::from_artifact(
        Artifact::new(vec![1.0], vec![m.clone()], vec![m], false).unwrap(),
    );
    Server::bind("127.0.0.1:0", index, cfg).unwrap().spawn()
}

/// A client that makes exactly one attempt, so shed 503s are observed
/// rather than absorbed.
fn one_shot_client(addr: &str) -> Client {
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
fn saturated_queue_sheds_503_with_retry_after() {
    // Global cfg, not cfg_local: the stalled code runs on server worker
    // threads, which never see this thread's local registry.
    let _scenario = failpoint::Scenario::setup();
    failpoint::cfg("serve.topk.stall", "delay(300)").unwrap();

    let handle = test_server(ServerConfig {
        workers: 1,
        queue_depth: 1,
        retry_after_secs: 7,
        ..ServerConfig::default()
    });
    let addr = handle.addr().to_string();

    // A burst wider than worker + queue: with one worker stalled 300ms and
    // one queue slot, the rest of the burst must be shed.
    let threads: Vec<_> = (0..6)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let client = one_shot_client(&addr);
                client.post_json("/v1/align/topk", r#"{"nodes":[0],"k":1}"#)
            })
        })
        .collect();

    let mut ok = 0;
    let mut shed = 0;
    for t in threads {
        let resp = t
            .join()
            .unwrap()
            .expect("even shed requests get a response");
        match resp.status {
            200 => ok += 1,
            503 => {
                shed += 1;
                assert_eq!(
                    resp.retry_after_secs(),
                    Some(7.0),
                    "shed 503 must carry the configured Retry-After: {}",
                    resp.body_str()
                );
            }
            other => panic!("unexpected status {other}: {}", resp.body_str()),
        }
    }
    assert!(ok >= 1, "the worker should still serve some of the burst");
    assert!(
        shed >= 1,
        "a 6-wide burst against worker=1/queue=1 must shed"
    );

    // The load shows up on /healthz too.
    failpoint::remove("serve.topk.stall");
    let health = one_shot_client(&addr).get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    let body = health.body_str();
    assert!(
        !body.contains("\"shed_total\":0,"),
        "healthz should report the shed connections: {body}"
    );
    handle.shutdown().unwrap();
}

#[test]
fn retrying_client_recovers_every_request_through_shedding() {
    let _scenario = failpoint::Scenario::setup();
    failpoint::cfg("serve.topk.stall", "delay(50)").unwrap();

    let handle = test_server(ServerConfig {
        workers: 1,
        queue_depth: 1,
        // 0 makes the client fall back to its own (fast) backoff, keeping
        // the test quick while still exercising the retry loop.
        retry_after_secs: 0,
        ..ServerConfig::default()
    });
    let addr = handle.addr().to_string();

    let threads: Vec<_> = (0..4)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let client = Client::with_config(
                    &addr,
                    ClientConfig {
                        max_retries: 20,
                        base_backoff: Duration::from_millis(10),
                        max_backoff: Duration::from_millis(100),
                        jitter_seed: 0x5eed + i as u64,
                        ..ClientConfig::default()
                    },
                )
                .unwrap();
                let mut shed = 0;
                for _ in 0..2 {
                    let (resp, stats) = client
                        .post_json_with_stats("/v1/align/topk", r#"{"nodes":[1],"k":1}"#)
                        .expect("request should succeed within the retry budget");
                    assert_eq!(resp.status, 200, "{}", resp.body_str());
                    shed += stats.shed;
                }
                shed
            })
        })
        .collect();

    let total_shed: u32 = threads.into_iter().map(|t| t.join().unwrap()).sum();
    // Not asserting total_shed > 0: with luck the burst interleaves
    // cleanly. The guarantee under test is zero lost requests *whatever*
    // the shedding did, and the first test already proves shedding occurs.
    let _ = total_shed;
    handle.shutdown().unwrap();
}

#[test]
fn stalled_handler_hits_the_deadline_and_returns_503() {
    let _scenario = failpoint::Scenario::setup();
    failpoint::cfg("serve.topk.stall", "delay(250)").unwrap();

    let handle = test_server(ServerConfig {
        deadline: Duration::from_millis(50),
        retry_after_secs: 3,
        ..ServerConfig::default()
    });
    let client = one_shot_client(&handle.addr().to_string());
    let resp = client
        .post_json("/v1/align/topk", r#"{"nodes":[0],"k":1}"#)
        .unwrap();
    assert_eq!(resp.status, 503, "{}", resp.body_str());
    assert!(resp.body_str().contains("deadline"), "{}", resp.body_str());
    assert_eq!(
        resp.retry_after_secs(),
        Some(3.0),
        "deadline 503s carry Retry-After like shed ones"
    );
    handle.shutdown().unwrap();
}

#[test]
fn worker_panic_returns_500_per_job_and_does_not_kill_the_worker() {
    let _scenario = failpoint::Scenario::setup();
    failpoint::cfg("serve.topk.stall", "1*panic(simulated flush crash)").unwrap();

    let handle = test_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let addr = handle.addr().to_string();

    // The panicking flush must still complete its jobs — a labelled 500,
    // not a connection parked in Dispatched forever (those are exempt
    // from event-loop timeouts, so a lost completion would hang the
    // client AND graceful shutdown).
    let resp = one_shot_client(&addr)
        .post_json("/v1/align/topk", r#"{"nodes":[0],"k":1}"#)
        .unwrap();
    assert_eq!(resp.status, 500, "{}", resp.body_str());

    // The lone worker survived the panic: the same query now computes.
    let resp = one_shot_client(&addr)
        .post_json("/v1/align/topk", r#"{"nodes":[0],"k":1}"#)
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());

    // Shutdown drains cleanly — nothing leaked in reqs/in_flight.
    handle.shutdown().unwrap();
}

#[test]
fn requests_coalesced_behind_a_stalled_flush_keep_their_deadline() {
    let _scenario = failpoint::Scenario::setup();
    failpoint::cfg("serve.topk.stall", "delay(200)").unwrap();

    let handle = test_server(ServerConfig {
        workers: 1,
        deadline: Duration::from_millis(60),
        retry_after_secs: 4,
        batch_window: Duration::from_micros(200),
        batch_cap: 64,
        queue_depth: 64,
        ..ServerConfig::default()
    });
    let addr = handle.addr().to_string();

    // A concurrent burst against one worker: the first flush stalls
    // 200ms, so jobs coalescing behind it cross the 60ms deadline while
    // *queued*, not computing. Flush-time deadline enforcement must turn
    // every one into a labelled 503 — never a hung connection or a
    // silently late answer — because the coalescing window composes with
    // the deadline instead of resetting it.
    let threads: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                one_shot_client(&addr)
                    .post_json("/v1/align/topk", r#"{"nodes":[1],"k":1}"#)
                    .unwrap()
            })
        })
        .collect();
    for t in threads {
        let resp = t.join().unwrap();
        assert_eq!(resp.status, 503, "{}", resp.body_str());
        assert!(resp.body_str().contains("deadline"), "{}", resp.body_str());
        assert_eq!(resp.retry_after_secs(), Some(4.0));
    }

    // Once the stall clears, the very same query answers normally.
    failpoint::remove("serve.topk.stall");
    let resp = one_shot_client(&addr)
        .post_json("/v1/align/topk", r#"{"nodes":[1],"k":1}"#)
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    handle.shutdown().unwrap();
}
