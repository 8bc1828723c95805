//! Deterministic chaos suite: failpoint schedules drive the tail-latency
//! failure modes one at a time — a slow replica, a hedge budget running
//! dry, a replica dead from discovery, a full shard blackout with
//! restart, a shard stalled past the propagated deadline — and every
//! scenario asserts the same contract: routed bytes identical to a
//! single node's or *loudly* `"partial":true`, client-visible errors
//! bounded (here: zero), and the tail-tolerance machinery observable
//! through `router.breaker.*` / `router.hedge.*` / `router.reprobe.*`
//! counters on `/metrics` and `Hop` records in the flight recorder.
//!
//! Run with `cargo test -p galign-router --features failpoints`.
#![cfg(feature = "failpoints")]

use galign_router::breaker::BreakerConfig;
use galign_router::server::{Router, RouterConfig, RouterHandle};
use galign_router::topology::Topology;
use galign_serve::artifact::{Artifact, Mat};
use galign_serve::client::ClientConfig;
use galign_serve::json;
use galign_serve::server::{Server, ServerConfig, ServerHandle};
use galign_serve::topk::TopkIndex;
use galign_telemetry::failpoint::{self, Scenario};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

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
    let mut rng = Rng(23 | 1);
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

fn bind_shard(artifact: &Artifact, addr: &str) -> ServerHandle {
    Server::bind(
        addr,
        TopkIndex::from_artifact(artifact.clone()),
        serve_cfg(),
    )
    .expect("bind shard node")
    .spawn()
}

/// 2 shards x 2 replicas; returns the split artifacts too so scenarios
/// can restart replicas on their original addresses.
fn start_fleet(artifact: &Artifact) -> (Vec<Vec<ServerHandle>>, Vec<Vec<String>>, Vec<Artifact>) {
    let shards = artifact.split(2, None).expect("split");
    let mut fleet = Vec::new();
    let mut groups = Vec::new();
    for shard in &shards {
        let mut row = Vec::new();
        let mut group = Vec::new();
        for _ in 0..2 {
            let handle = bind_shard(shard, "127.0.0.1:0");
            group.push(handle.addr().to_string());
            row.push(handle);
        }
        fleet.push(row);
        groups.push(group);
    }
    (fleet, groups, shards)
}

fn start_router(groups: &[Vec<String>], cfg: RouterConfig) -> RouterHandle {
    let client = ClientConfig {
        max_retries: 1,
        io_timeout: Duration::from_secs(2),
        ..ClientConfig::default()
    };
    let topology = Topology::discover(groups, &client).expect("discover topology");
    Router::bind("127.0.0.1:0", topology, cfg)
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

/// Reads one counter from the router's JSON `/metrics` snapshot. The
/// telemetry registry is process-global (shared by every test in this
/// binary), so assertions must always be on deltas from a baseline read
/// inside the same [`Scenario`].
fn counter(addr: SocketAddr, name: &str) -> f64 {
    let (status, body) = send(addr, "GET", "/metrics", None);
    assert_eq!(status, 200, "{body}");
    json::parse(&body)
        .expect("metrics JSON")
        .get("counters")
        .and_then(|c| c.get(name).and_then(|v| v.as_f64()))
        .unwrap_or(0.0)
}

/// The breaker states `/healthz` reports for one shard.
fn breaker_states(addr: SocketAddr, shard: usize) -> Vec<String> {
    let (status, health) = send(addr, "GET", "/healthz", None);
    assert_eq!(status, 200, "{health}");
    let doc = json::parse(&health).expect("healthz JSON");
    doc.get("shards").unwrap().as_arr().unwrap()[shard]
        .get("breakers")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|s| s.as_str().unwrap().to_string())
        .collect()
}

const QUERY: &str = r#"{"nodes": [0, 1, 2, 3, 4, 5], "k": 12}"#;

/// Single-node ground truth for [`QUERY`]. Computed before any failpoint
/// is armed.
fn expected_body(artifact: &Artifact) -> String {
    let single = bind_shard(artifact, "127.0.0.1:0");
    let (status, body) = send(single.addr(), "POST", "/v1/align/topk", Some(QUERY));
    assert_eq!(status, 200, "{body}");
    single.shutdown().expect("single shutdown");
    body
}

fn shutdown_fleet(fleet: Vec<Vec<ServerHandle>>) {
    for row in fleet {
        for h in row {
            h.shutdown().expect("shard shutdown");
        }
    }
}

/// A replica stalled well past the hedge threshold must be raced, not
/// waited out: with the primary hop held 400ms by the `router.hop.slow`
/// failpoint and a 40ms static hedge delay, every answer comes from the
/// hedge in a fraction of the stall — byte-identical, with the wins
/// visible on `/metrics` (JSON and Prometheus) and hops in the flight
/// recorder.
#[test]
fn slow_replica_is_hedged_not_waited_out() {
    let _scenario = Scenario::setup();
    let artifact = fixture();
    let expected = expected_body(&artifact);
    let (fleet, groups, _) = start_fleet(&artifact);
    let router = start_router(
        &groups,
        RouterConfig {
            hedge_after: Some(Duration::from_millis(40)),
            hedge_adaptive: false, // a fixed threshold keeps the test deterministic
            hedge_budget_ratio: 0.0, // unmetered
            reprobe_interval: None,
            ..RouterConfig::default()
        },
    );
    let fired_base = counter(router.addr(), "router.hedge.fired");
    let wins_base = counter(router.addr(), "router.hedge.wins");
    failpoint::cfg("router.hop.slow", "delay(400)").expect("configure failpoint");

    let mut worst = Duration::ZERO;
    for round in 0..8 {
        let t0 = Instant::now();
        let (status, body) = send(router.addr(), "POST", "/v1/align/topk", Some(QUERY));
        worst = worst.max(t0.elapsed());
        assert_eq!(status, 200, "round {round}: {body}");
        assert_eq!(body, expected, "round {round}: hedged answer drifted");
    }
    // Every request beat the 400ms stall: the hedge won the race. (The
    // bound is the stall itself, an order of magnitude above the
    // hedge-path latency, so scheduler noise cannot flake this.)
    assert!(
        worst < Duration::from_millis(400),
        "hedge never won: worst round took {worst:?}"
    );
    let fired = counter(router.addr(), "router.hedge.fired") - fired_base;
    let wins = counter(router.addr(), "router.hedge.wins") - wins_base;
    assert!(
        fired >= 8.0,
        "hedge fired {fired} times, expected every round"
    );
    assert!(wins >= 8.0, "hedge won {wins} times, expected every round");

    // The same counters are visible in Prometheus exposition...
    let (status, prom) = send(router.addr(), "GET", "/metrics?format=prometheus", None);
    assert_eq!(status, 200);
    assert!(
        prom.contains("router_hedge_fired") && prom.contains("router_hedge_wins"),
        "hedge counters missing from Prometheus exposition: {prom}"
    );
    // ...and every attempt (stalled primaries included) left a Hop
    // record in the flight recorder.
    let (status, flights) = send(router.addr(), "GET", "/v1/debug/requests", None);
    assert_eq!(status, 200);
    assert!(
        flights.contains("\"hop\"") || flights.contains("\"Hop\""),
        "no hop records in the flight recorder: {flights}"
    );

    failpoint::remove("router.hop.slow");
    router.shutdown().expect("router shutdown");
    shutdown_fleet(fleet);
}

/// When the hedge token bucket runs dry, hedging stops — the router
/// waits out the slow primary instead of doubling load — and the request
/// still completes byte-identically, just slower. The refusals are
/// observable via `router.hedge.budget_exhausted`.
#[test]
fn exhausted_hedge_budget_degrades_to_waiting_not_erroring() {
    let _scenario = Scenario::setup();
    let artifact = fixture();
    let expected = expected_body(&artifact);
    let (fleet, groups, _) = start_fleet(&artifact);
    let router = start_router(
        &groups,
        RouterConfig {
            hedge_after: Some(Duration::from_millis(10)),
            hedge_adaptive: false,
            // One token, earned back at 1/1000 of a token per hop: the
            // first hedge drains the bucket for the rest of the test.
            hedge_budget_ratio: 0.001,
            hedge_budget_cap: 1.0,
            reprobe_interval: None,
            ..RouterConfig::default()
        },
    );
    let exhausted_base = counter(router.addr(), "router.hedge.budget_exhausted");
    let fired_base = counter(router.addr(), "router.hedge.fired");
    failpoint::cfg("router.hop.slow", "delay(120)").expect("configure failpoint");

    for round in 0..6 {
        let (status, body) = send(router.addr(), "POST", "/v1/align/topk", Some(QUERY));
        assert_eq!(status, 200, "round {round}: {body}");
        assert_eq!(
            body, expected,
            "round {round}: bytes drifted under budget pressure"
        );
    }
    let exhausted = counter(router.addr(), "router.hedge.budget_exhausted") - exhausted_base;
    let fired = counter(router.addr(), "router.hedge.fired") - fired_base;
    assert!(
        exhausted >= 1.0,
        "budget never refused a hedge (fired {fired}, exhausted {exhausted})"
    );
    assert!(fired <= 2.0, "a 1-token bucket cannot fund {fired} hedges");

    failpoint::remove("router.hop.slow");
    router.shutdown().expect("router shutdown");
    shutdown_fleet(fleet);
}

/// A replica that is unreachable at discovery starts with its breaker
/// open and *stays* skipped: no ping-pong of connect attempts against
/// the corpse (zero hop failures over the whole run), zero
/// client-visible errors, full — not partial — answers off the healthy
/// sibling.
#[test]
fn replica_dead_at_discovery_is_skipped_without_ping_pong() {
    let _scenario = Scenario::setup();
    let artifact = fixture();
    let expected = expected_body(&artifact);
    let shards = artifact.split(2, None).expect("split");

    // Shard 0: one live replica + one address that refuses connections
    // (bound, then dropped). Shard 1: two live replicas.
    let dead_addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let live0 = bind_shard(&shards[0], "127.0.0.1:0");
    let live1a = bind_shard(&shards[1], "127.0.0.1:0");
    let live1b = bind_shard(&shards[1], "127.0.0.1:0");
    let groups = vec![
        vec![dead_addr, live0.addr().to_string()],
        vec![live1a.addr().to_string(), live1b.addr().to_string()],
    ];
    let router = start_router(
        &groups,
        RouterConfig {
            hedge_after: None, // isolate the breaker from the hedger
            breaker: BreakerConfig {
                failure_threshold: 3,
                cooldown: Duration::from_secs(60), // no half-open during the test
            },
            reprobe_interval: None,
            ..RouterConfig::default()
        },
    );

    assert_eq!(
        breaker_states(router.addr(), 0),
        vec!["open", "closed"],
        "discovery must trip the unreachable replica's breaker"
    );
    let failures_base = counter(router.addr(), "router.hop.failures");
    for round in 0..12 {
        let (status, body) = send(router.addr(), "POST", "/v1/align/topk", Some(QUERY));
        assert_eq!(status, 200, "round {round}: {body}");
        assert_eq!(body, expected, "round {round}: sibling answer drifted");
    }
    // No ping-pong: with the breaker open and 60s of cooldown, the dead
    // address was never dialed — a single post-discovery hop failure
    // would show up here.
    assert_eq!(
        counter(router.addr(), "router.hop.failures") - failures_base,
        0.0,
        "the tripped replica was redialed"
    );
    assert_eq!(breaker_states(router.addr(), 0), vec!["open", "closed"]);

    router.shutdown().expect("router shutdown");
    for h in [live0, live1a, live1b] {
        h.shutdown().expect("shard shutdown");
    }
}

/// A flapping replica — alternating fail/succeed, driven by the
/// `router.scatter` trigger, which faults each query's *first-choice*
/// candidate while advisory demotion flips which replica that is — is
/// contained by its breaker instead of ping-ponging selection: with a
/// 1-failure threshold each fault trips the faulted replica immediately,
/// open replicas are *skipped* during the 60s cooldown
/// (`router.breaker.skipped`), and every response during and after the
/// flap schedule is a byte-identical 200 off whichever sibling is
/// healthy — zero client-visible errors.
#[test]
fn flapping_replica_is_contained_by_breakers_without_client_errors() {
    let _scenario = Scenario::setup();
    let artifact = fixture();
    let expected = expected_body(&artifact);
    let (fleet, groups, _) = start_fleet(&artifact);
    let router = start_router(
        &groups,
        RouterConfig {
            hedge_after: None,
            breaker: BreakerConfig {
                failure_threshold: 1, // every flap failure trips immediately
                cooldown: Duration::from_secs(60),
            },
            reprobe_interval: None,
            ..RouterConfig::default()
        },
    );
    let opened_base = counter(router.addr(), "router.breaker.opened");
    let skipped_base = counter(router.addr(), "router.breaker.skipped");
    let faults_base = counter(router.addr(), "router.hop.failpoint_faults");
    // Three flap strikes; each lands on the current first-choice replica
    // (alternating as advisory health flips), then the schedule ends.
    failpoint::cfg("router.scatter", "3*trigger").expect("configure failpoint");

    for round in 0..10 {
        let (status, body) = send(router.addr(), "POST", "/v1/align/topk", Some(QUERY));
        assert_eq!(
            status, 200,
            "round {round}: flap leaked to the client: {body}"
        );
        assert_eq!(body, expected, "round {round}: flap changed the bytes");
    }
    assert_eq!(
        counter(router.addr(), "router.hop.failpoint_faults") - faults_base,
        3.0,
        "every flap strike should have landed"
    );
    assert!(
        counter(router.addr(), "router.breaker.opened") - opened_base >= 3.0,
        "each strike must trip the struck replica's breaker"
    );
    // No ping-pong: once open and inside the 60s cooldown, a flapped
    // replica is skipped during selection, not retried into.
    assert!(
        counter(router.addr(), "router.breaker.skipped") - skipped_base >= 1.0,
        "open breakers must be skipped during candidate selection"
    );

    failpoint::remove("router.scatter");
    router.shutdown().expect("router shutdown");
    shutdown_fleet(fleet);
}

/// Full shard blackout, then recovery: killing both replicas of a shard
/// degrades loudly (`"partial":true`, breakers open on /healthz, the
/// `router.breaker.opened` counter moving) with zero 5xx, and once the
/// replicas restart on their old addresses the *background re-probe
/// loop* — no live traffic needed — closes the breakers and the very
/// next answers are full and byte-identical again.
#[test]
fn shard_blackout_trips_breakers_and_reprobe_heals_the_restart() {
    let _scenario = Scenario::setup();
    let artifact = fixture();
    let expected = expected_body(&artifact);
    let (mut fleet, groups, shards) = start_fleet(&artifact);
    let router = start_router(
        &groups,
        RouterConfig {
            hedge_after: None,
            breaker: BreakerConfig {
                failure_threshold: 3,
                cooldown: Duration::from_millis(100),
            },
            reprobe_interval: Some(Duration::from_millis(50)),
            ..RouterConfig::default()
        },
    );

    let opened_base = counter(router.addr(), "router.breaker.opened");
    let healed_base = counter(router.addr(), "router.reprobe.healed");

    // Blackout: kill both replicas of shard 1.
    let victim_addrs = groups[1].clone();
    for h in fleet.remove(1) {
        h.shutdown().expect("shard 1 shutdown");
    }
    // Enough sequential requests to run every replica's failure streak
    // past the threshold. Every response must be a *loud* 200.
    for round in 0..5 {
        let (status, body) = send(router.addr(), "POST", "/v1/align/topk", Some(QUERY));
        assert_eq!(
            status, 200,
            "round {round}: blackout must shed, not error: {body}"
        );
        assert!(
            body.contains("\"partial\":true"),
            "round {round}: silent under-answer: {body}"
        );
    }
    assert!(
        counter(router.addr(), "router.breaker.opened") - opened_base >= 2.0,
        "both shard-1 breakers should have tripped"
    );
    let states = breaker_states(router.addr(), 1);
    assert!(
        states.iter().any(|s| s == "open"),
        "no open breaker on the blacked-out shard: {states:?}"
    );

    // Recovery: restart both replicas on their original addresses and
    // *wait* — only the re-probe loop may heal them (no client traffic
    // between restart and the healthz flip).
    let restarted: Vec<ServerHandle> = victim_addrs
        .iter()
        .map(|addr| bind_shard(&shards[1], addr))
        .collect();
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let states = breaker_states(router.addr(), 1);
        if states.iter().all(|s| s == "closed") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "re-probe loop never healed the restarted replicas: {states:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(
        counter(router.addr(), "router.reprobe.healed") - healed_base >= 2.0,
        "healing must be attributed to the re-probe loop"
    );
    let (status, body) = send(router.addr(), "POST", "/v1/align/topk", Some(QUERY));
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        body, expected,
        "post-recovery answer must be full and exact"
    );

    router.shutdown().expect("router shutdown");
    shutdown_fleet(fleet);
    for h in restarted {
        h.shutdown().expect("restarted shard shutdown");
    }
}

/// Deadline propagation end to end: a shard stalled past the routed
/// request's budget is abandoned by the router *and* sheds its own
/// doomed work — the flush-time deadline check fires on the shard
/// (`serve.topk.deadline_exceeded`), proving the budget the router
/// stamped into `x-galign-deadline-ms` clamped the shard-side deadline
/// (`serve.topk.deadline_clamped`). The routed answer is a loud partial
/// in bounded time, never a hang.
#[test]
fn stalled_shard_is_shed_by_its_propagated_deadline() {
    let _scenario = Scenario::setup();
    let artifact = fixture();
    let (fleet, groups, _) = start_fleet(&artifact);
    let router = start_router(
        &groups,
        RouterConfig {
            request_timeout: Duration::from_millis(250),
            hedge_after: None,
            reprobe_interval: None,
            ..RouterConfig::default()
        },
    );
    let exceeded_base = counter(router.addr(), "serve.topk.deadline_exceeded");
    let clamped_base = counter(router.addr(), "serve.topk.deadline_clamped");
    // Stall every shard flush far past the router's 250ms budget. (The
    // serve nodes run in-process, so the global failpoint reaches their
    // worker threads.)
    failpoint::cfg("serve.topk.stall", "delay(600)").expect("configure failpoint");

    let t0 = Instant::now();
    let (status, body) = send(router.addr(), "POST", "/v1/align/topk", Some(QUERY));
    let elapsed = t0.elapsed();
    assert_eq!(status, 200, "{body}");
    assert!(
        body.contains("\"partial\":true"),
        "stalled shards must degrade loudly: {body}"
    );
    assert!(
        elapsed < Duration::from_secs(2),
        "deadline did not bound the request: {elapsed:?}"
    );

    // The shards shed their stalled flushes instead of computing doomed
    // answers; the counters land once the 600ms stalls drain.
    let deadline = Instant::now() + Duration::from_secs(3);
    loop {
        let exceeded = counter(router.addr(), "serve.topk.deadline_exceeded") - exceeded_base;
        let clamped = counter(router.addr(), "serve.topk.deadline_clamped") - clamped_base;
        if exceeded >= 1.0 && clamped >= 1.0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "shards never shed: exceeded={exceeded} clamped={clamped}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    failpoint::remove("serve.topk.stall");
    router.shutdown().expect("router shutdown");
    shutdown_fleet(fleet);
}
