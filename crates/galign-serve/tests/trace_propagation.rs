//! End-to-end trace-id propagation over live HTTP.
//!
//! One request's trace id must be recoverable from all four
//! observability surfaces: the `x-galign-trace-id` response header, the
//! access log, the flight recorder (`GET /v1/debug/requests`) and the
//! span JSONL stream. The failpoint-gated test additionally proves the
//! retrying client re-sends the *same* id after a shed `503`, so both
//! attempts land in one server-side trace.
//!
//! The retry test runs with `cargo test -p galign-serve --features
//! failpoints`.

use galign_serve::artifact::{Artifact, Mat};
use galign_serve::client::{Client, ClientConfig};
use galign_serve::server::{Server, ServerConfig, ServerHandle, TRACE_HEADER};
use galign_serve::topk::TopkIndex;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

/// Serializes the tests in this binary: they share the process-global
/// flight recorder, JSONL sink and failpoint table.
static SCENARIO: Mutex<()> = Mutex::new(());

fn demo_index() -> TopkIndex {
    let m = Mat::new(
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
    TopkIndex::from_artifact(Artifact::new(vec![1.0], vec![m.clone()], vec![m], false).unwrap())
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("galign-trace-{}-{name}", std::process::id()))
}

fn start_server(cfg: ServerConfig) -> ServerHandle {
    Server::bind("127.0.0.1:0", demo_index(), cfg)
        .expect("bind ephemeral port")
        .spawn()
}

/// Polls the debug endpoint until `pred` holds (the server writes its
/// flight-recorder entry *after* the response bytes, so an immediate
/// read can race the insert) and returns the body.
fn debug_dump_when(client: &Client, pred: impl Fn(&str) -> bool) -> String {
    let mut body = String::new();
    for _ in 0..100 {
        body = client.get("/v1/debug/requests").unwrap().body_str();
        if pred(&body) {
            return body;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    body
}

#[test]
fn trace_id_recoverable_from_all_four_surfaces() {
    let _lock = SCENARIO.lock().unwrap_or_else(|p| p.into_inner());
    let access_log = temp_path("access.jsonl");
    let span_log = temp_path("spans.jsonl");
    let flight_dump = temp_path("flight.jsonl");
    galign_telemetry::attach_jsonl_path(&span_log).expect("attach span sink");
    let handle = start_server(ServerConfig {
        access_log: Some(access_log.clone()),
        flight_dump: Some(flight_dump.clone()),
        ..ServerConfig::default()
    });
    let client = Client::new(&handle.addr().to_string()).unwrap();

    let (resp, _, trace_id) = client
        .post_json_traced("/v1/align/topk", r#"{"nodes":[0,2],"k":2}"#)
        .unwrap();
    let hex = trace_id.to_hex();
    // Surface 1: the response header echoes the client's id.
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    assert_eq!(resp.header(TRACE_HEADER), Some(hex.as_str()));

    // Surface 2: the flight recorder, served over the debug endpoint.
    let debug = debug_dump_when(&client, |b| b.contains(&hex));
    assert!(
        debug.contains(&hex),
        "flight recorder dump lacks trace {hex}: {debug}"
    );

    handle.shutdown().unwrap();
    galign_telemetry::flush();
    let _ = galign_telemetry::detach_jsonl();

    // Surface 3: the access log holds one line with the id, the status
    // and the engine that answered.
    let log = std::fs::read_to_string(&access_log).expect("access log written");
    let line = log
        .lines()
        .find(|l| l.contains(&hex))
        .unwrap_or_else(|| panic!("no access-log line for trace {hex} in: {log}"));
    assert!(line.contains("\"status\":200"), "{line}");
    assert!(line.contains("\"path\":\"/v1/align/topk\""), "{line}");
    assert!(line.contains("\"engine\":"), "{line}");

    // Surface 4: the span JSONL stream carries `tspan` records for the
    // request's stages, all tagged with the same trace id.
    let spans = std::fs::read_to_string(&span_log).expect("span jsonl written");
    let tspans: Vec<&str> = spans
        .lines()
        .filter(|l| l.contains("\"type\":\"tspan\"") && l.contains(&hex))
        .collect();
    assert!(
        !tspans.is_empty(),
        "no tspan records for trace {hex} in: {spans}"
    );
    for stage in ["parse", "engine_select", "cache_lookup", "serialize"] {
        assert!(
            tspans
                .iter()
                .any(|l| l.contains(&format!("\"name\":\"{stage}\""))),
            "missing {stage} stage for trace {hex}: {tspans:?}"
        );
    }

    // Bonus surface: the shutdown flight dump holds the same record.
    let dump = std::fs::read_to_string(&flight_dump).expect("flight dump written");
    assert!(dump.contains(&hex), "flight dump lacks trace {hex}: {dump}");

    for p in [&access_log, &span_log, &flight_dump] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn server_assigns_id_when_client_sends_none() {
    let _lock = SCENARIO.lock().unwrap_or_else(|p| p.into_inner());
    let handle = start_server(ServerConfig::default());
    let client = Client::with_config(
        &handle.addr().to_string(),
        ClientConfig {
            trace_header: false,
            ..ClientConfig::default()
        },
    )
    .unwrap();
    let resp = client
        .post_json("/v1/align/topk", r#"{"nodes":[1],"k":1}"#)
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let echoed = resp.header(TRACE_HEADER).expect("server-assigned id");
    assert_eq!(echoed.len(), 32);
    assert!(galign_telemetry::TraceId::parse_hex(echoed).is_some());
    handle.shutdown().unwrap();
}

/// A request shed with `503` and then retried keeps its trace id: the
/// server sees both attempts under one trace, and the final `200` still
/// echoes the id of the original request.
#[cfg(feature = "failpoints")]
#[test]
fn retry_after_shed_preserves_trace_id() {
    let _lock = SCENARIO.lock().unwrap_or_else(|p| p.into_inner());
    let _fp = galign_telemetry::failpoint::Scenario::setup();
    let handle = start_server(ServerConfig {
        deadline: Duration::from_millis(60),
        ..ServerConfig::default()
    });
    // First evaluation stalls past the deadline (-> 503 + Retry-After);
    // the retry finds the failpoint consumed and succeeds.
    galign_telemetry::failpoint::cfg("serve.topk.stall", "1*delay(150)").unwrap();
    let client = Client::with_config(
        &handle.addr().to_string(),
        ClientConfig {
            max_retries: 3,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(20),
            ..ClientConfig::default()
        },
    )
    .unwrap();
    let (resp, stats, trace_id) = client
        .post_json_traced("/v1/align/topk", r#"{"nodes":[0],"k":1}"#)
        .unwrap();
    galign_telemetry::failpoint::clear();
    let hex = trace_id.to_hex();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    assert_eq!(stats.shed, 1, "exactly the stalled attempt was shed");
    assert!(stats.tries >= 2, "a retry must have happened");
    assert_eq!(resp.header(TRACE_HEADER), Some(hex.as_str()));

    // Both attempts (the 503 and the 200) were recorded under one id.
    let body = debug_dump_when(&client, |b| b.matches(&hex).count() >= 2);
    let occurrences = body.matches(&hex).count();
    assert!(
        occurrences >= 2,
        "expected both attempts under trace {hex}, found {occurrences} in: {body}"
    );
    assert!(body.contains("\"status\":503"), "{body}");
    assert!(body.contains("\"status\":200"), "{body}");
    handle.shutdown().unwrap();
}
