//! The typed wire surface of the alignment query API, shared by the
//! server, the HTTP client helpers, the router and the loadtest.
//!
//! Requests and responses used to be assembled ad hoc (`format!` strings
//! in the server, the router's gather and the loadtest) and parsed ad hoc
//! on the other side. This module is the single source of truth for both
//! directions:
//!
//! * [`TopkRequest`] — one top-k query, parsed with the server's exact
//!   validation rules (and error strings) or built programmatically and
//!   rendered with [`TopkRequest::to_json`].
//! * [`BatchRequest`] — the `/v2/align/topk` envelope: a `queries` array
//!   of [`TopkRequest`] objects, each validated independently so errors
//!   are reported *per query*, not per request.
//! * [`TopkResponse`] — the response document (`k`, `engine`, optional
//!   `partial`, per-node `results`), rendered byte-identically to the
//!   historical server serializer and parseable back for the router's
//!   scatter-gather merge.
//! * [`error_body`] — the `{"error": "..."}` envelope every non-200
//!   carries.
//!
//! The `/v1` single-query format is the degenerate case throughout: a v1
//! response body is exactly one [`TopkResponse::render`], and a v2
//! response is `{"results":[...]}` where each entry is either a v1-shaped
//! body or an error envelope. That containment is what makes the v1 shim
//! over the batched execution path byte-identical by construction.

use crate::json::{self, Json};
use crate::topk::{EngineMode, QuantMode};
use std::sync::Arc;

pub use galign_matrix::simblock::Hit;

/// Server-side defaults and limits applied while parsing a query.
#[derive(Debug, Clone, Copy)]
pub struct RequestDefaults {
    /// `k` used when the body omits it.
    pub default_k: usize,
    /// Largest accepted `k`.
    pub max_k: usize,
    /// Engine used when the body omits `mode`.
    pub default_mode: EngineMode,
    /// First-pass scan precision when the body omits `quant` (the
    /// server's `--quant` flag).
    pub default_quant: QuantMode,
}

/// One fully resolved top-k query: defaults applied, limits checked.
#[derive(Debug, Clone, PartialEq)]
pub struct TopkRequest {
    /// Source nodes to query (never empty).
    pub nodes: Vec<usize>,
    /// Hits per node.
    pub k: usize,
    /// Per-query θ override (`None` uses the artifact default).
    pub theta: Option<Vec<f64>>,
    /// Engine selection.
    pub mode: EngineMode,
    /// First-pass scan precision (results are bit-identical across
    /// settings; see [`QuantMode`]).
    pub quant: QuantMode,
}

impl TopkRequest {
    /// A plain query with default θ, `auto` engine selection and f64
    /// scans.
    #[must_use]
    pub fn new(nodes: Vec<usize>, k: usize) -> TopkRequest {
        TopkRequest {
            nodes,
            k,
            theta: None,
            mode: EngineMode::Auto,
            quant: QuantMode::Off,
        }
    }

    /// Parses and validates one query object (the `/v1` body shape, also
    /// each element of a `/v2` `queries` array).
    ///
    /// # Errors
    /// The exact human-readable validation messages the server has always
    /// returned (clients grep for substrings like `"k"` and `limit`).
    pub fn from_json(doc: &Json, defaults: &RequestDefaults) -> Result<TopkRequest, String> {
        let nodes: Vec<usize> = match (doc.get("nodes"), doc.get("node")) {
            (Some(arr), _) => arr
                .as_arr()
                .ok_or("\"nodes\" must be an array of node ids")?
                .iter()
                .map(|v| {
                    v.as_usize()
                        .ok_or("\"nodes\" entries must be non-negative integers")
                })
                .collect::<Result<_, _>>()?,
            (None, Some(one)) => vec![one
                .as_usize()
                .ok_or("\"node\" must be a non-negative integer")?],
            (None, None) => return Err("body needs \"nodes\" (array) or \"node\" (integer)".into()),
        };
        if nodes.is_empty() {
            return Err("\"nodes\" must not be empty".into());
        }
        let k = match doc.get("k") {
            None => defaults.default_k,
            Some(v) => v
                .as_usize()
                .filter(|&k| k >= 1)
                .ok_or("\"k\" must be an integer >= 1")?,
        };
        if k > defaults.max_k {
            return Err(format!(
                "\"k\" exceeds the server limit of {}",
                defaults.max_k
            ));
        }
        let theta = match doc.get("theta") {
            None => None,
            Some(v) => Some(
                v.as_arr()
                    .ok_or("\"theta\" must be an array of numbers")?
                    .iter()
                    .map(|w| w.as_f64().ok_or("\"theta\" entries must be numbers"))
                    .collect::<Result<Vec<_>, _>>()?,
            ),
        };
        // The JSON number grammar admits `1e400`, which parses to +∞; an
        // infinite weight (or magnitudes summing past f64::MAX) would
        // score ±∞/NaN and render `"score":null`.
        if let Some(t) = &theta {
            if !t.iter().map(|w| w.abs()).sum::<f64>().is_finite() {
                return Err(
                    "\"theta\" entries must be finite, and so must the sum of their magnitudes"
                        .into(),
                );
            }
        }
        let mode = match doc.get("mode") {
            None => defaults.default_mode,
            Some(v) => v
                .as_str()
                .and_then(EngineMode::from_name)
                .ok_or("\"mode\" must be \"exact\", \"ann\" or \"auto\"")?,
        };
        let quant = match doc.get("quant") {
            None => defaults.default_quant,
            Some(v) => v
                .as_str()
                .and_then(QuantMode::from_name)
                .ok_or("\"quant\" must be \"off\", \"int8\" or \"f16\"")?,
        };
        Ok(TopkRequest {
            nodes,
            k,
            theta,
            mode,
            quant,
        })
    }

    /// [`TopkRequest::from_json`] over raw body bytes.
    ///
    /// # Errors
    /// Same as [`TopkRequest::from_json`], plus UTF-8 and JSON syntax
    /// failures.
    pub fn from_body(body: &[u8], defaults: &RequestDefaults) -> Result<TopkRequest, String> {
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        TopkRequest::from_json(&doc, defaults)
    }

    /// Renders the query as a request body (client-side assembly). `k` is
    /// always explicit; θ is included when set; `mode` is included unless
    /// it is `auto` (the universal server default); `quant` is included
    /// unless it is `off`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"nodes\":[");
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&n.to_string());
        }
        out.push_str(&format!("],\"k\":{}", self.k));
        if let Some(theta) = &self.theta {
            out.push_str(",\"theta\":[");
            for (i, w) in theta.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&json::fmt_f64(*w));
            }
            out.push(']');
        }
        if self.mode != EngineMode::Auto {
            out.push_str(&format!(",\"mode\":\"{}\"", self.mode.name()));
        }
        if self.quant != QuantMode::Off {
            out.push_str(&format!(",\"quant\":\"{}\"", self.quant.name()));
        }
        out.push('}');
        out
    }
}

/// The parsed `/v2/align/topk` envelope: each query validated on its own,
/// so one malformed query cannot fail its batch siblings.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRequest {
    /// Per-query parse outcome, in request order.
    pub queries: Vec<Result<TopkRequest, String>>,
}

impl BatchRequest {
    /// Parses a `{"queries": [...]}` envelope. Envelope-level problems
    /// (bad JSON, missing/empty array) fail the whole request; per-query
    /// validation failures land in the corresponding [`BatchRequest::queries`]
    /// slot instead.
    ///
    /// # Errors
    /// Envelope-level problems only.
    pub fn from_body(body: &[u8], defaults: &RequestDefaults) -> Result<BatchRequest, String> {
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let queries = doc
            .get("queries")
            .and_then(Json::as_arr)
            .ok_or("body needs \"queries\" (array of query objects)")?;
        if queries.is_empty() {
            return Err("\"queries\" must not be empty".into());
        }
        Ok(BatchRequest {
            queries: queries
                .iter()
                .map(|q| TopkRequest::from_json(q, defaults))
                .collect(),
        })
    }

    /// Renders a `/v2` request body from built queries (client-side
    /// assembly).
    #[must_use]
    pub fn to_json(queries: &[TopkRequest]) -> String {
        let mut out = String::from("{\"queries\":[");
        for (i, q) in queries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&q.to_json());
        }
        out.push_str("]}");
        out
    }
}

/// One queried node's matches in a response.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeResult {
    /// The queried source node.
    pub node: usize,
    /// Its hits, best first (shared so cached results render without a
    /// copy).
    pub matches: Arc<Vec<Hit>>,
}

/// A top-k response document — the `/v1` body, each entry of a `/v2`
/// `results` array, and the router's merged reply all share this shape.
#[derive(Debug, Clone, PartialEq)]
pub struct TopkResponse {
    /// Effective `k` after defaulting.
    pub k: usize,
    /// Engine label (`exact`, `ann`, or the router's `mixed`).
    pub engine: String,
    /// Router degradation marker; rendered as `"partial":true` right
    /// after `engine` only when set.
    pub partial: bool,
    /// Per queried node, in request order.
    pub results: Vec<NodeResult>,
}

impl TopkResponse {
    /// Renders the document byte-identically to the historical server
    /// (and router) serializers.
    #[must_use]
    pub fn render(&self) -> String {
        let partial_field = if self.partial {
            "\"partial\":true,"
        } else {
            ""
        };
        let mut out = format!(
            "{{\"k\":{},\"engine\":\"{}\",{partial_field}\"results\":[",
            self.k, self.engine
        );
        for (i, r) in self.results.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"node\":{},\"matches\":[", r.node));
            for (j, hit) in r.matches.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"target\":{},\"score\":{}}}",
                    hit.target,
                    json::fmt_f64(hit.score)
                ));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// Parses a response document (the router's gather, clients, tests).
    ///
    /// # Errors
    /// A human-readable message naming the first missing or mistyped
    /// field.
    pub fn from_json(doc: &Json) -> Result<TopkResponse, String> {
        let k = doc
            .get("k")
            .and_then(Json::as_usize)
            .ok_or("response lacks \"k\"")?;
        let engine = doc
            .get("engine")
            .and_then(Json::as_str)
            .ok_or("response lacks \"engine\"")?
            .to_string();
        let partial = matches!(doc.get("partial"), Some(Json::Bool(true)));
        let entries = doc
            .get("results")
            .and_then(Json::as_arr)
            .ok_or("response lacks \"results\"")?;
        let mut results = Vec::with_capacity(entries.len());
        for entry in entries {
            let node = entry
                .get("node")
                .and_then(Json::as_usize)
                .ok_or("result entry lacks \"node\"")?;
            let matches = entry
                .get("matches")
                .and_then(Json::as_arr)
                .ok_or("result entry lacks \"matches\"")?;
            let mut hits = Vec::with_capacity(matches.len());
            for m in matches {
                let target = m
                    .get("target")
                    .and_then(Json::as_usize)
                    .ok_or("match lacks \"target\"")?;
                let score = m
                    .get("score")
                    .and_then(Json::as_f64)
                    .ok_or("match lacks \"score\"")?;
                hits.push(Hit { target, score });
            }
            results.push(NodeResult {
                node,
                matches: Arc::new(hits),
            });
        }
        Ok(TopkResponse {
            k,
            engine,
            partial,
            results,
        })
    }

    /// [`TopkResponse::from_json`] over raw body bytes.
    ///
    /// # Errors
    /// Same as [`TopkResponse::from_json`], plus UTF-8/JSON failures.
    pub fn from_body(body: &[u8]) -> Result<TopkResponse, String> {
        let text = std::str::from_utf8(body).map_err(|_| "response is not UTF-8".to_string())?;
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        TopkResponse::from_json(&doc)
    }
}

/// Outcome of one query inside a `/v2` batch: a full response document or
/// that query's own error message.
pub type QueryOutcome = Result<TopkResponse, String>;

/// Renders the `/v2/align/topk` response envelope: `{"results":[...]}`,
/// one v1-shaped body or error envelope per query, in request order.
#[must_use]
pub fn render_batch(outcomes: &[QueryOutcome]) -> String {
    let mut out = String::from("{\"results\":[");
    for (i, outcome) in outcomes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match outcome {
            Ok(resp) => out.push_str(&resp.render()),
            Err(msg) => out.push_str(&error_body(msg)),
        }
    }
    out.push_str("]}");
    out
}

/// Parses a `/v2` response envelope back into per-query outcomes.
///
/// # Errors
/// Envelope-level problems; per-query errors land in their slot.
pub fn parse_batch_response(doc: &Json) -> Result<Vec<QueryOutcome>, String> {
    let entries = doc
        .get("results")
        .and_then(Json::as_arr)
        .ok_or("batch response lacks \"results\"")?;
    Ok(entries
        .iter()
        .map(|entry| match entry.get("error").and_then(Json::as_str) {
            Some(msg) => Err(msg.to_string()),
            None => TopkResponse::from_json(entry),
        })
        .collect())
}

/// The `{"error": "..."}` envelope carried by every non-200 response.
#[must_use]
pub fn error_body(msg: &str) -> String {
    format!("{{\"error\":\"{}\"}}", json::escape(msg))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn defaults() -> RequestDefaults {
        RequestDefaults {
            default_k: 10,
            max_k: 1000,
            default_mode: EngineMode::Auto,
            default_quant: QuantMode::Off,
        }
    }

    #[test]
    fn request_roundtrips_through_its_own_renderer() {
        let req = TopkRequest {
            nodes: vec![3, 0, 7],
            k: 5,
            theta: Some(vec![0.25, 0.75]),
            mode: EngineMode::Ann,
            quant: QuantMode::Int8,
        };
        let body = req.to_json();
        assert_eq!(
            body,
            r#"{"nodes":[3,0,7],"k":5,"theta":[0.25,0.75],"mode":"ann","quant":"int8"}"#
        );
        let back = TopkRequest::from_body(body.as_bytes(), &defaults()).unwrap();
        assert_eq!(back, req);
        // Auto mode and f64 scans are the wire defaults and stay implicit.
        let plain = TopkRequest::new(vec![1], 2).to_json();
        assert_eq!(plain, r#"{"nodes":[1],"k":2}"#);
    }

    #[test]
    fn request_parse_applies_quant_default() {
        let d = RequestDefaults {
            default_quant: QuantMode::F16,
            ..defaults()
        };
        let req = TopkRequest::from_body(br#"{"node":4}"#, &d).unwrap();
        assert_eq!(req.quant, QuantMode::F16);
        // An explicit "off" overrides a server-side quantized default.
        let req = TopkRequest::from_body(br#"{"node":4,"quant":"off"}"#, &d).unwrap();
        assert_eq!(req.quant, QuantMode::Off);
    }

    #[test]
    fn request_parse_applies_defaults_and_limits() {
        let d = defaults();
        let req = TopkRequest::from_body(br#"{"node":4}"#, &d).unwrap();
        assert_eq!(req.nodes, vec![4]);
        assert_eq!(req.k, 10);
        assert_eq!(req.mode, EngineMode::Auto);
        for (body, needle) in [
            (&b"nope"[..], "invalid JSON"),
            (br#"{}"#, "nodes"),
            (br#"{"nodes":[]}"#, "empty"),
            (br#"{"nodes":[0],"k":0}"#, "k"),
            (br#"{"nodes":[0],"k":5000}"#, "limit"),
            (br#"{"nodes":[0],"theta":3}"#, "theta"),
            (br#"{"nodes":[0],"theta":[1e400,0.5]}"#, "finite"),
            (br#"{"nodes":[0],"theta":[-1e400,0.5]}"#, "finite"),
            (br#"{"nodes":[0],"theta":[1e308,1e308]}"#, "finite"),
            (br#"{"nodes":[-1]}"#, "non-negative"),
            (br#"{"nodes":[0],"mode":"warp"}"#, "mode"),
            (br#"{"nodes":[0],"quant":"int4"}"#, "quant"),
        ] {
            let msg = TopkRequest::from_body(body, &d).unwrap_err();
            assert!(
                msg.to_lowercase().contains(&needle.to_lowercase()),
                "error {msg:?} should mention {needle:?}"
            );
        }
    }

    #[test]
    fn batch_envelope_isolates_per_query_errors() {
        let d = defaults();
        let body = br#"{"queries":[{"node":1},{"nodes":[]},{"nodes":[2],"k":3}]}"#;
        let batch = BatchRequest::from_body(body, &d).unwrap();
        assert_eq!(batch.queries.len(), 3);
        assert!(batch.queries[0].is_ok());
        assert!(batch.queries[1].as_ref().unwrap_err().contains("empty"));
        assert_eq!(batch.queries[2].as_ref().unwrap().k, 3);
        // Envelope-level failures reject the whole request.
        assert!(BatchRequest::from_body(br#"{"queries":[]}"#, &d)
            .unwrap_err()
            .contains("empty"));
        assert!(BatchRequest::from_body(br#"{"nodes":[0]}"#, &d)
            .unwrap_err()
            .contains("queries"));
        // Client-side assembly round-trips.
        let built = BatchRequest::to_json(&[TopkRequest::new(vec![0], 1)]);
        assert_eq!(built, r#"{"queries":[{"nodes":[0],"k":1}]}"#);
        assert!(BatchRequest::from_body(built.as_bytes(), &d).is_ok());
    }

    #[test]
    fn response_renders_byte_identically_and_roundtrips() {
        let resp = TopkResponse {
            k: 1,
            engine: "exact".to_string(),
            partial: false,
            results: vec![NodeResult {
                node: 0,
                matches: Arc::new(vec![Hit {
                    target: 7,
                    score: 0.25,
                }]),
            }],
        };
        // The exact bytes the historical serializer produced.
        assert_eq!(
            resp.render(),
            r#"{"k":1,"engine":"exact","results":[{"node":0,"matches":[{"target":7,"score":0.25}]}]}"#
        );
        let partial = TopkResponse {
            partial: true,
            ..resp.clone()
        };
        assert_eq!(
            partial.render(),
            r#"{"k":1,"engine":"exact","partial":true,"results":[{"node":0,"matches":[{"target":7,"score":0.25}]}]}"#
        );
        let back = TopkResponse::from_body(partial.render().as_bytes()).unwrap();
        assert_eq!(back, partial);
    }

    #[test]
    fn batch_response_envelope_roundtrips() {
        let ok = TopkResponse {
            k: 2,
            engine: "ann".to_string(),
            partial: false,
            results: vec![NodeResult {
                node: 3,
                matches: Arc::new(vec![]),
            }],
        };
        let rendered = render_batch(&[Ok(ok.clone()), Err("k must be >= 1".to_string())]);
        assert_eq!(
            rendered,
            r#"{"results":[{"k":2,"engine":"ann","results":[{"node":3,"matches":[]}]},{"error":"k must be >= 1"}]}"#
        );
        let doc = json::parse(&rendered).unwrap();
        let outcomes = parse_batch_response(&doc).unwrap();
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].as_ref().unwrap(), &ok);
        assert_eq!(outcomes[1].as_ref().unwrap_err(), "k must be >= 1");
    }

    #[test]
    fn error_body_escapes() {
        assert_eq!(
            error_body("no \"such\" path"),
            r#"{"error":"no \"such\" path"}"#
        );
    }
}
