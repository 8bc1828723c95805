//! Replica failure under load: killing one replica of a shard mid-burst
//! must be invisible to clients — zero errors, responses byte-identical
//! to a single node holding the full matrix — because the router fails
//! over to the surviving replica. Losing *every* replica of a shard
//! must degrade loudly, never silently: `"partial": true` in the body
//! and `degraded` on the router's `/healthz`.
//!
//! A failpoints-gated variant drives the same guarantee through the
//! `router.scatter` failpoint (deterministic hop blackouts) instead of
//! real process death.

use galign_router::server::{Router, RouterConfig, RouterHandle};
use galign_router::topology::Topology;
use galign_serve::artifact::{Artifact, Mat};
use galign_serve::client::ClientConfig;
use galign_serve::json;
use galign_serve::server::{Server, ServerConfig, ServerHandle};
use galign_serve::topk::TopkIndex;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
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

fn fixture() -> Artifact {
    let mut rng = Rng(7 | 1);
    let mk = |n: usize, d: usize, rng: &mut Rng| {
        Mat::new(n, d, (0..n * d).map(|_| rng.signed_unit()).collect()).unwrap()
    };
    let source = mk(6, 4, &mut rng);
    let target = mk(12, 4, &mut rng);
    Artifact::new(vec![1.0], vec![source], vec![target], false).unwrap()
}

fn serve_cfg() -> ServerConfig {
    ServerConfig {
        workers: 2,
        request_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    }
}

/// 2 shards x 2 replicas; returns handles as `fleet[shard][replica]`.
fn start_fleet(artifact: &Artifact) -> (Vec<Vec<ServerHandle>>, Vec<Vec<String>>) {
    let shards = artifact.split(2, None).expect("split");
    let mut fleet = Vec::new();
    let mut groups = Vec::new();
    for shard in &shards {
        let mut row = Vec::new();
        let mut group = Vec::new();
        for _ in 0..2 {
            let handle = Server::bind(
                "127.0.0.1:0",
                TopkIndex::from_artifact(shard.clone()),
                serve_cfg(),
            )
            .expect("bind shard node")
            .spawn();
            group.push(handle.addr().to_string());
            row.push(handle);
        }
        fleet.push(row);
        groups.push(group);
    }
    (fleet, groups)
}

fn start_router(groups: &[Vec<String>]) -> RouterHandle {
    let client = ClientConfig {
        max_retries: 1,
        io_timeout: Duration::from_secs(2),
        ..ClientConfig::default()
    };
    let topology = Topology::discover(groups, &client).expect("discover topology");
    Router::bind(
        "127.0.0.1:0",
        topology,
        RouterConfig {
            workers: 4,
            ..RouterConfig::default()
        },
    )
    .expect("bind router")
    .spawn()
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

const QUERIES: [&str; 3] = [
    r#"{"nodes": [0, 1, 2], "k": 4}"#,
    r#"{"nodes": [3, 4, 5], "k": 12}"#,
    r#"{"node": 2, "k": 1}"#,
];

/// Single-node ground truth for every burst query.
fn expected_bodies(artifact: &Artifact) -> Vec<String> {
    let single = Server::bind(
        "127.0.0.1:0",
        TopkIndex::from_artifact(artifact.clone()),
        serve_cfg(),
    )
    .expect("bind single")
    .spawn();
    let bodies = QUERIES
        .iter()
        .map(|q| {
            let (status, body) = send(single.addr(), "POST", "/v1/align/topk", Some(q));
            assert_eq!(status, 200, "{body}");
            body
        })
        .collect();
    single.shutdown().expect("single shutdown");
    bodies
}

/// Fires `rounds` rounds of all queries from `threads` client threads;
/// every response must be a 200 with the exact expected bytes.
fn burst(addr: SocketAddr, expected: &Arc<Vec<String>>, threads: usize, rounds: usize) {
    let joins: Vec<_> = (0..threads)
        .map(|t| {
            let expected = Arc::clone(expected);
            std::thread::spawn(move || {
                for r in 0..rounds {
                    let i = (t + r) % QUERIES.len();
                    let (status, body) = send(addr, "POST", "/v1/align/topk", Some(QUERIES[i]));
                    assert_eq!(status, 200, "client-visible error: {body}");
                    assert_eq!(body, expected[i], "round {r} thread {t}");
                    std::thread::sleep(Duration::from_millis(2));
                }
            })
        })
        .collect();
    for j in joins {
        j.join().expect("burst client panicked");
    }
}

#[test]
fn killing_one_replica_mid_burst_is_invisible() {
    // The failpoints build runs a global `router.scatter` scenario in this
    // binary; hold its lock so those hop blackouts cannot hit this test.
    #[cfg(feature = "failpoints")]
    let _scenario = galign_telemetry::failpoint::Scenario::setup();
    let artifact = fixture();
    let expected = Arc::new(expected_bodies(&artifact));
    let (mut fleet, groups) = start_fleet(&artifact);
    let router = start_router(&groups);
    let addr = router.addr();

    // Run the burst on client threads; kill shard 0's first replica
    // partway through.
    let killer_expected = Arc::clone(&expected);
    let burst_join = std::thread::spawn(move || {
        burst(addr, &killer_expected, 4, 30);
    });
    std::thread::sleep(Duration::from_millis(40));
    let victim = fleet[0].remove(0);
    victim.shutdown().expect("victim shutdown");
    burst_join.join().expect("burst failed");

    // Still fully answerable (replica 1 of shard 0 covers), so health
    // recovers to ok once the router has routed around the corpse.
    let (status, body) = send(addr, "POST", "/v1/align/topk", Some(QUERIES[0]));
    assert_eq!(status, 200);
    assert_eq!(body, expected[0]);
    let (status, health) = send(addr, "GET", "/healthz", None);
    assert_eq!(status, 200);
    let doc = json::parse(&health).unwrap();
    assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"), "{health}");

    router.shutdown().expect("router shutdown");
    for row in fleet {
        for h in row {
            h.shutdown().expect("shard shutdown");
        }
    }
}

#[test]
fn losing_every_replica_of_a_shard_degrades_loudly() {
    // The failpoints build runs a global `router.scatter` scenario in this
    // binary; hold its lock so those hop blackouts cannot hit this test.
    #[cfg(feature = "failpoints")]
    let _scenario = galign_telemetry::failpoint::Scenario::setup();
    let artifact = fixture();
    let (mut fleet, groups) = start_fleet(&artifact);
    let router = start_router(&groups);
    let addr = router.addr();

    // Kill both replicas of shard 1 (global targets [6, 12)).
    for h in fleet.remove(1) {
        h.shutdown().expect("shard 1 shutdown");
    }

    let (status, body) = send(addr, "POST", "/v1/align/topk", Some(QUERIES[1]));
    assert_eq!(status, 200, "partial answers are 200s: {body}");
    assert!(
        body.contains("\"partial\":true"),
        "missing partial marker: {body}"
    );
    let doc = json::parse(&body).unwrap();
    for entry in doc.get("results").unwrap().as_arr().unwrap() {
        for m in entry.get("matches").unwrap().as_arr().unwrap() {
            let target = m.get("target").unwrap().as_usize().unwrap();
            assert!(target < 6, "target {target} from the dead shard: {body}");
        }
    }

    // The failed scatter marked shard 1's replicas unhealthy: degraded.
    let (status, health) = send(addr, "GET", "/healthz", None);
    assert_eq!(status, 200);
    let doc = json::parse(&health).unwrap();
    assert_eq!(
        doc.get("status").unwrap().as_str(),
        Some("degraded"),
        "{health}"
    );

    router.shutdown().expect("router shutdown");
    for row in fleet {
        for h in row {
            h.shutdown().expect("shard shutdown");
        }
    }
}

/// A θ override that parses to a non-finite number is the client's error:
/// the router answers `400` itself and charges no replica, so such a
/// request — sent more times than the breaker threshold — can neither
/// open a breaker nor mark a replica unhealthy.
#[test]
fn non_finite_theta_is_a_400_without_charging_a_hop() {
    // The failpoints build runs a global `router.scatter` scenario in this
    // binary; hold its lock so those hop blackouts cannot hit this test.
    #[cfg(feature = "failpoints")]
    let _scenario = galign_telemetry::failpoint::Scenario::setup();
    let artifact = fixture();
    let (fleet, groups) = start_fleet(&artifact);
    let router = start_router(&groups);
    let addr = router.addr();

    for _ in 0..5 {
        let (status, body) = send(
            addr,
            "POST",
            "/v1/align/topk",
            Some(r#"{"nodes":[0],"theta":[1e400]}"#),
        );
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("finite"), "{body}");
    }
    let (status, health) = send(addr, "GET", "/healthz", None);
    assert_eq!(status, 200);
    let doc = json::parse(&health).unwrap();
    assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"), "{health}");
    for shard in doc.get("shards").unwrap().as_arr().unwrap() {
        for state in shard.get("breakers").unwrap().as_arr().unwrap() {
            assert_eq!(state.as_str(), Some("closed"), "{health}");
        }
    }

    router.shutdown().expect("router shutdown");
    for row in fleet {
        for h in row {
            h.shutdown().expect("shard shutdown");
        }
    }
}

/// Deterministic hop blackouts through the `router.scatter` failpoint:
/// each triggered hop is treated as a dead replica, and with two
/// replicas per shard every answer still comes back byte-identical.
#[cfg(feature = "failpoints")]
#[test]
fn scatter_failpoint_blackouts_fail_over_bit_identically() {
    use galign_telemetry::failpoint::{self, Scenario};
    let _scenario = Scenario::setup();
    let artifact = fixture();
    let expected = Arc::new(expected_bodies(&artifact));
    let (fleet, groups) = start_fleet(&artifact);
    let router = start_router(&groups);
    failpoint::cfg("router.scatter", "8*trigger(blackout)").expect("configure failpoint");

    burst(router.addr(), &expected, 3, 12);

    let metrics = {
        let (status, body) = send(router.addr(), "GET", "/metrics", None);
        assert_eq!(status, 200);
        body
    };
    let doc = json::parse(&metrics).unwrap();
    let faults = doc
        .get("counters")
        .unwrap()
        .get("router.hop.failpoint_faults")
        .and_then(|v| v.as_f64())
        .unwrap_or(0.0);
    assert!(faults >= 1.0, "failpoint never fired: {metrics}");

    failpoint::remove("router.scatter");
    router.shutdown().expect("router shutdown");
    for row in fleet {
        for h in row {
            h.shutdown().expect("shard shutdown");
        }
    }
}
