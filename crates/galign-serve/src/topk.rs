//! The top-k alignment query kernel: one planned entry point,
//! [`TopkIndex::topk`], over a batch of [`RowQuery`].
//!
//! Scores are θ-weighted sums of per-layer dot products over
//! row-L2-normalized embeddings — exactly the aggregated alignment matrix
//! `S = Σ_l θ⁽ˡ⁾ H_s⁽ˡ⁾ H_t⁽ˡ⁾ᵀ` (paper Eq. 11–12) — selected per query
//! with a bounded heap (`O(n log k)`). [`TopkIndex::plan`] decides once
//! per batch how it is answered: the exact engine (the shared blocked
//! [`GatheredPanel`] sweep of [`galign_matrix::simblock`], which also
//! backs the batch pipeline's matching stage) or ANN candidate generation
//! with an exact re-rank, crossed with the first-pass scan precision. A
//! batch of one is just the smallest batch, so `/v1`, `/v2` and the
//! coalescing scheduler all score through the same code.

use crate::artifact::{Artifact, Mat, ShardManifest};
pub use galign_index::Backend;
use galign_index::{AnnIndex, SearchStats, VectorSet};
use galign_matrix::dense::dot;
use galign_matrix::simblock::{self, GatheredPanel, SimPanel};
use galign_matrix::Dense;
use galign_telemetry::context;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::io;

pub use galign_matrix::simblock::{select_topk, select_topk_bruteforce, Hit};

/// Engine selection requested by a query (the HTTP `mode` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// Always scan every target node (the PR-3 blocked panel path).
    Exact,
    /// Use the ANN index when one is attached (falls back to exact when
    /// it is not, or when a candidate set looks low-confidence).
    Ann,
    /// Use ANN only when an index is attached **and** the target network
    /// is at least [`TopkIndex::auto_threshold`] nodes — below that the
    /// exact scan is already fast and bit-exactness is free.
    #[default]
    Auto,
}

impl EngineMode {
    /// Parses the HTTP spelling (`"exact"` / `"ann"` / `"auto"`).
    #[must_use]
    pub fn from_name(name: &str) -> Option<EngineMode> {
        match name {
            "exact" => Some(EngineMode::Exact),
            "ann" => Some(EngineMode::Ann),
            "auto" => Some(EngineMode::Auto),
            _ => None,
        }
    }

    /// The HTTP spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EngineMode::Exact => "exact",
            EngineMode::Ann => "ann",
            EngineMode::Auto => "auto",
        }
    }
}

impl fmt::Display for EngineMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which engine actually answered a query (reported in responses and
/// telemetry; `Ann` still means ANN candidates exactly re-ranked through
/// `select_topk`, so scores are bit-identical to the exact engine's for
/// every hit both return).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineUsed {
    /// Full exact scan.
    Exact,
    /// ANN candidate generation + exact re-rank.
    Ann,
}

impl EngineUsed {
    /// The HTTP spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EngineUsed::Exact => "exact",
            EngineUsed::Ann => "ann",
        }
    }
}

impl fmt::Display for EngineUsed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// First-pass scan precision requested by a query (the HTTP `quant`
/// field / the `--quant` serve flag). Hits and scores are bit-identical
/// across all settings: a quantized scan only *shortlists* candidates
/// (with a certified error margin that provably covers the exact top-k),
/// and every shortlisted candidate is re-ranked through the exact f64
/// kernel. A quantized mode silently degrades to the f64 path when the
/// loaded artifact carries no matching panels — the results do not
/// change, only the memory traffic does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QuantMode {
    /// Full f64 scans (the default).
    #[default]
    Off,
    /// int8 first-pass scan over the artifact's int8 panels.
    Int8,
    /// f16 first-pass scan over the artifact's f16 panels.
    F16,
}

impl QuantMode {
    /// Parses the HTTP spelling (`"off"` / `"int8"` / `"f16"`).
    #[must_use]
    pub fn from_name(name: &str) -> Option<QuantMode> {
        match name {
            "off" => Some(QuantMode::Off),
            "int8" => Some(QuantMode::Int8),
            "f16" => Some(QuantMode::F16),
            _ => None,
        }
    }

    /// The HTTP spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            QuantMode::Off => "off",
            QuantMode::Int8 => "int8",
            QuantMode::F16 => "f16",
        }
    }

    /// Stable discriminant for cache and batch-grouping keys.
    #[must_use]
    pub fn tag(self) -> u8 {
        match self {
            QuantMode::Off => 0,
            QuantMode::Int8 => 1,
            QuantMode::F16 => 2,
        }
    }

    /// The panel encoding this request mode asks for (`None` for `Off`).
    #[must_use]
    pub fn panel_mode(self) -> Option<galign_quant::QuantMode> {
        match self {
            QuantMode::Off => None,
            QuantMode::Int8 => Some(galign_quant::QuantMode::Int8),
            QuantMode::F16 => Some(galign_quant::QuantMode::F16),
        }
    }
}

impl fmt::Display for QuantMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A rejected query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// A queried node id is not in the source network.
    NodeOutOfRange {
        /// The offending node id.
        node: usize,
        /// Source-network node count.
        nodes: usize,
    },
    /// `k` must be at least 1.
    ZeroK,
    /// A per-query θ override has the wrong number of weights.
    BadThetaLength {
        /// Weights supplied.
        got: usize,
        /// Layers in the index.
        want: usize,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::NodeOutOfRange { node, nodes } => {
                write!(
                    f,
                    "node {node} out of range (source network has {nodes} nodes)"
                )
            }
            QueryError::ZeroK => write!(f, "k must be >= 1"),
            QueryError::BadThetaLength { got, want } => {
                write!(f, "theta has {got} weights but the index has {want} layers")
            }
        }
    }
}

impl std::error::Error for QueryError {}

fn mat_to_dense(m: Mat) -> Dense {
    let (rows, cols) = (m.rows(), m.cols());
    Dense::from_vec(rows, cols, m.into_vec()).expect("artifact matrices are shape-consistent")
}

/// Target-node count at which `mode: auto` switches from the exact scan
/// to the ANN engine (overridable per index).
pub const DEFAULT_AUTO_THRESHOLD: usize = 4096;

/// One query of a batch: a source node with its own `k`. All queries of a
/// batch share one θ and one [`Plan`] — the batch scheduler groups by
/// those before calling [`TopkIndex::topk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowQuery {
    /// Source-network node id.
    pub node: usize,
    /// Hits requested for this query.
    pub k: usize,
}

/// How a batch is answered, decided once by [`TopkIndex::plan`]: the
/// exact scan or ANN candidate generation over the attached backend
/// (HNSW or IVF), crossed with the first-pass scan precision the index
/// can actually serve (off, int8 or f16). Deterministic per request, so
/// it keys batch grouping and the result cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// ANN backend that generates candidates; `None` scans every target.
    pub ann: Option<Backend>,
    /// First-pass scan precision: `Off` unless matching panels are
    /// resident.
    pub quant: QuantMode,
}

impl Plan {
    /// The full f64 exact scan, valid on every index.
    pub const EXACT: Plan = Plan {
        ann: None,
        quant: QuantMode::Off,
    };

    /// The engine this plan routes to (before any low-confidence ANN
    /// fallback) — the `engine` a response reports.
    #[must_use]
    pub fn engine(self) -> EngineUsed {
        if self.ann.is_some() {
            EngineUsed::Ann
        } else {
            EngineUsed::Exact
        }
    }

    fn key(self) -> (u32, u8) {
        (self.ann.map_or(0, Backend::tag), self.quant.tag())
    }
}

impl Hash for Plan {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}

impl Ord for Plan {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

impl PartialOrd for Plan {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Quantized target panel kept resident for first-pass scans, shared with
/// the ANN index (which walks the same rows during traversal).
struct QuantHandle {
    mode: galign_quant::QuantMode,
    target: std::sync::Arc<galign_quant::QuantizedPanel>,
}

/// An in-memory query index over a loaded [`Artifact`]: normalized
/// multi-order embeddings of both networks, the default θ, an optional
/// ANN index over the concatenated target rows, and the artifact's
/// quantized target panel when it carried one.
pub struct TopkIndex {
    source: Vec<Dense>,
    target: Vec<Dense>,
    theta: Vec<f64>,
    ann: Option<Box<dyn AnnIndex>>,
    auto_threshold: usize,
    shard: Option<ShardManifest>,
    quant: Option<QuantHandle>,
}

impl fmt::Debug for TopkIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TopkIndex")
            .field("source_nodes", &self.source_nodes())
            .field("target_nodes", &self.target_nodes())
            .field("layers", &self.theta.len())
            .field("ann", &self.ann.as_ref().map(|a| a.backend()))
            .field("auto_threshold", &self.auto_threshold)
            .field("quant", &self.quant.as_ref().map(|q| q.mode.name()))
            .finish()
    }
}

impl TopkIndex {
    /// Builds the index, row-normalizing the embeddings unless the
    /// artifact says they already are (so that every layer contributes
    /// cosine similarities). An ANN index embedded in the artifact is
    /// re-attached; if its blob fails validation the server degrades to
    /// exact-only mode (with a warning) rather than refusing to start.
    #[must_use]
    pub fn from_artifact(artifact: Artifact) -> Self {
        let Artifact {
            theta,
            source,
            target,
            rows_normalized,
            index,
            manifest,
            quant,
        } = artifact;
        let convert = |mats: Vec<Mat>| -> Vec<Dense> {
            mats.into_iter()
                .map(|m| {
                    let d = mat_to_dense(m);
                    if rows_normalized {
                        d
                    } else {
                        d.normalize_rows()
                    }
                })
                .collect()
        };
        // The panels were encoded over the rows exactly as stored; if the
        // rows get renormalized here the panels no longer describe them,
        // so quantized scans must be disabled rather than serve margins
        // that certify the wrong vectors.
        let quant = match quant {
            Some(q) if rows_normalized => Some(QuantHandle {
                mode: q.mode,
                target: std::sync::Arc::new(q.target),
            }),
            Some(_) => {
                galign_telemetry::info!(
                    "topk",
                    "artifact rows are not pre-normalized; ignoring its quantized panels"
                );
                None
            }
            None => None,
        };
        let mut idx = TopkIndex {
            source: convert(source),
            target: convert(target),
            theta,
            ann: None,
            auto_threshold: DEFAULT_AUTO_THRESHOLD,
            shard: manifest,
            quant,
        };
        if let Some(bytes) = index {
            if let Err(e) = idx.attach_index_bytes(&bytes) {
                galign_telemetry::info!(
                    "topk",
                    "embedded ANN index rejected ({e}); serving exact-only"
                );
            }
        }
        idx
    }

    /// Source-network node count.
    #[must_use]
    pub fn source_nodes(&self) -> usize {
        self.source[0].rows()
    }

    /// Target-network node count.
    #[must_use]
    pub fn target_nodes(&self) -> usize {
        self.target[0].rows()
    }

    /// Number of embedding layers per side.
    #[must_use]
    pub fn num_layers(&self) -> usize {
        self.theta.len()
    }

    /// The artifact's default layer weights.
    #[must_use]
    pub fn default_theta(&self) -> &[f64] {
        &self.theta
    }

    /// Shard placement metadata, when this index was loaded from a shard
    /// artifact (target rows are the global id range
    /// `[manifest.start, manifest.end)` of the split parent). The data
    /// path ignores it — shard-local target ids are what queries see; the
    /// router translates them back to global ids.
    #[must_use]
    pub fn shard_manifest(&self) -> Option<&ShardManifest> {
        self.shard.as_ref()
    }

    /// Whether an ANN index is attached.
    #[must_use]
    pub fn has_ann(&self) -> bool {
        self.ann.is_some()
    }

    /// Backend of the attached ANN index, if any.
    #[must_use]
    pub fn ann_backend(&self) -> Option<Backend> {
        self.ann.as_ref().map(|a| a.backend())
    }

    /// The quantized scan mode this index can actually serve — the
    /// encoding of the artifact's resident panels — or `None` when the
    /// artifact carried no (usable) quantized section.
    #[must_use]
    pub fn quant_available(&self) -> Option<QuantMode> {
        self.quant.as_ref().map(|q| match q.mode {
            galign_quant::QuantMode::Int8 => QuantMode::Int8,
            galign_quant::QuantMode::F16 => QuantMode::F16,
        })
    }

    /// Resident bytes of the f64 embedding rows (both sides, all layers).
    #[must_use]
    pub fn f64_resident_bytes(&self) -> usize {
        self.source
            .iter()
            .chain(&self.target)
            .map(|d| d.rows() * d.cols() * std::mem::size_of::<f64>())
            .sum()
    }

    /// Resident bytes of the quantized target panel (0 without one).
    #[must_use]
    pub fn quant_resident_bytes(&self) -> usize {
        self.quant.as_ref().map_or(0, |q| q.target.resident_bytes())
    }

    /// Hands the resident panel to the ANN index so traversal can walk
    /// quantized rows. Backends that cannot (or a shape mismatch) only
    /// cost a log line — searches keep working on f64 vectors.
    fn attach_quant_to_ann(&mut self) {
        if let (Some(ann), Some(q)) = (self.ann.as_mut(), self.quant.as_ref()) {
            if let Err(e) = ann.attach_quant(std::sync::Arc::clone(&q.target)) {
                galign_telemetry::info!("topk", "quantized ANN traversal unavailable: {e}");
            }
        }
    }

    /// The `mode: auto` switchover point (target nodes).
    #[must_use]
    pub fn auto_threshold(&self) -> usize {
        self.auto_threshold
    }

    /// Overrides the `mode: auto` switchover point.
    pub fn set_auto_threshold(&mut self, nodes: usize) {
        self.auto_threshold = nodes;
    }

    /// The concatenated target rows the ANN index is built over: one
    /// `Σ_l dim_l` vector per target node, layers in index order,
    /// **unscaled** — θ multiplies the query side only (see
    /// [`TopkIndex::query_vector`]), so per-query θ overrides need no
    /// index rebuild. Rows are L2-normalised per layer, so every
    /// concatenated vector has the same norm (√L up to zero rows) and
    /// inner-product order equals cosine order.
    #[must_use]
    pub fn target_vector_set(&self) -> VectorSet {
        let n = self.target_nodes();
        let dim: usize = self.target.iter().map(Dense::cols).sum();
        let mut data = Vec::with_capacity(n * dim);
        for u in 0..n {
            for layer in &self.target {
                data.extend_from_slice(layer.row(u));
            }
        }
        VectorSet::new(n, dim, data).expect("layer shapes validated at load")
    }

    /// The ANN query vector of a source node under `theta`: the θ-scaled
    /// concatenation of its per-layer rows, so that
    /// `⟨query, target⟩ = Σ_l θ_l ⟨s_l, t_l⟩` — the exact serving score.
    #[must_use]
    pub fn query_vector(&self, node: usize, theta: &[f64]) -> Vec<f64> {
        let dim: usize = self.source.iter().map(Dense::cols).sum();
        let mut q = Vec::with_capacity(dim);
        for (layer, &w) in self.source.iter().zip(theta) {
            q.extend(layer.row(node).iter().map(|&v| w * v));
        }
        q
    }

    /// Builds an ANN index over the target vectors with the backend's
    /// default parameters and attaches it.
    ///
    /// # Errors
    /// `InvalidData` when the backend rejects the build inputs.
    pub fn build_ann(&mut self, backend: Backend) -> io::Result<()> {
        let vectors = self.target_vector_set();
        let n = vectors.len();
        let built: Box<dyn AnnIndex> = match backend {
            Backend::Hnsw => Box::new(
                galign_index::HnswIndex::build(vectors, galign_index::HnswParams::default())
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?,
            ),
            Backend::Ivf => Box::new(
                galign_index::IvfIndex::build(vectors, galign_index::IvfParams::default_for(n))
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?,
            ),
        };
        self.ann = Some(built);
        self.attach_quant_to_ann();
        Ok(())
    }

    /// Deserializes a `galign-index` blob (e.g. the artifact's embedded
    /// index section) and attaches it, verifying that it was built over
    /// exactly this index's target vectors.
    ///
    /// # Errors
    /// `InvalidData` when the blob is corrupt or was built over different
    /// vectors.
    pub fn attach_index_bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        let ann = galign_index::load(bytes, self.target_vector_set())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.ann = Some(ann);
        self.attach_quant_to_ann();
        Ok(())
    }

    /// Serializes the attached ANN index (for embedding into an artifact).
    #[must_use]
    pub fn index_bytes(&self) -> Option<Vec<u8>> {
        self.ann.as_ref().map(|a| a.to_bytes())
    }

    /// Plans a batch: the one place a request's `mode` and `quant` meet
    /// this index. ANN candidate generation is planned when an index is
    /// attached and `mode` asks for it (`auto` only from
    /// [`TopkIndex::auto_threshold`] target nodes up); a quantized
    /// first-pass scan is planned when resident panels match the
    /// requested encoding (asking for `int8` against an `f16` artifact
    /// degrades to f64 — results are bit-identical either way). The plan
    /// is deterministic per request, so the batch scheduler groups, caches
    /// and traces on it.
    #[must_use]
    pub fn plan(&self, mode: EngineMode, quant: QuantMode) -> Plan {
        let ann = self
            .ann
            .as_ref()
            .map(|a| a.backend())
            .filter(|_| match mode {
                EngineMode::Exact => false,
                EngineMode::Ann => true,
                EngineMode::Auto => self.target_nodes() >= self.auto_threshold,
            });
        let quant = match (quant.panel_mode(), &self.quant) {
            (Some(want), Some(q)) if q.mode == want => quant,
            _ => QuantMode::Off,
        };
        Plan { ann, quant }
    }

    /// Validates a batch without running it — the checks (and the error
    /// wording) [`TopkIndex::topk`] applies before scoring. The batch
    /// scheduler validates up front so a grouped compute can never fail
    /// mid-flush.
    ///
    /// # Errors
    /// [`QueryError`] on any `k == 0`, a θ override of the wrong length,
    /// or an out-of-range node, checked in that order.
    pub fn validate(&self, queries: &[RowQuery], theta: Option<&[f64]>) -> Result<(), QueryError> {
        if queries.iter().any(|q| q.k == 0) {
            return Err(QueryError::ZeroK);
        }
        if let Some(t) = theta {
            if t.len() != self.theta.len() {
                return Err(QueryError::BadThetaLength {
                    got: t.len(),
                    want: self.theta.len(),
                });
            }
        }
        let nodes = self.source_nodes();
        match queries.iter().find(|q| q.node >= nodes) {
            Some(q) => Err(QueryError::NodeOutOfRange {
                node: q.node,
                nodes,
            }),
            None => Ok(()),
        }
    }

    /// Top-k alignment candidates of every query in the batch, answered
    /// as `plan` says, with the engine that answered each query. Hits are
    /// best first, ties break toward the smaller target id, `k` is clamped
    /// to the target node count, and `theta` of `None` uses the artifact
    /// default. A batch of one is just the smallest batch:
    ///
    /// * the exact engine scores the whole batch in one gathered
    ///   query-block × target-panel sweep
    ///   ([`galign_matrix::simblock::GatheredPanel`]); under a quantized
    ///   plan each query instead shortlists on the resident panel with a
    ///   certified margin and re-ranks the shortlist exactly;
    /// * the ANN engine searches once per query (over quantized rows under
    ///   a quantized plan), then re-ranks every query against its own
    ///   candidates inside one gathered block of the union of their rows;
    ///   a query whose candidate set is low-confidence (fewer candidates
    ///   than requested hits) falls back to the exact engine.
    ///
    /// Scores are bit-identical across engines and plans for every hit
    /// both return. A plan naming an ANN index or panels this index lacks
    /// runs on what the index has.
    ///
    /// # Errors
    /// As [`TopkIndex::validate`] — the whole batch is rejected before any
    /// scoring happens.
    pub fn topk(
        &self,
        queries: &[RowQuery],
        theta: Option<&[f64]>,
        plan: Plan,
    ) -> Result<Vec<(Vec<Hit>, EngineUsed)>, QueryError> {
        self.validate(queries, theta)?;
        let th = theta.unwrap_or(&self.theta);
        let quant = self
            .quant
            .as_ref()
            .filter(|q| plan.quant.panel_mode() == Some(q.mode));
        let Some(ann) = plan.ann.and(self.ann.as_deref()) else {
            return Ok(self
                .exact_scan(queries, th, quant)
                .into_iter()
                .map(|hits| (hits, EngineUsed::Exact))
                .collect());
        };
        let mut out = vec![None; queries.len()];
        let fallback = self.ann_rerank(ann, queries, th, quant.is_some(), &mut out);
        if !fallback.is_empty() {
            let fb: Vec<RowQuery> = fallback.iter().map(|&i| queries[i]).collect();
            for (&i, hits) in fallback.iter().zip(self.exact_scan(&fb, th, quant)) {
                out[i] = Some((hits, EngineUsed::Exact));
            }
        }
        Ok(out
            .into_iter()
            .map(|slot| slot.expect("every query answered"))
            .collect())
    }

    /// The exact engine over a (validated) batch: one gathered GEMM
    /// sweep, or per query a certified shortlist on the resident panel
    /// plus an exact re-rank. A shortlist is query-specific, so there is
    /// no GEMM to share — the quantized win is the panel's memory traffic.
    fn exact_scan(
        &self,
        queries: &[RowQuery],
        th: &[f64],
        quant: Option<&QuantHandle>,
    ) -> Vec<Vec<Hit>> {
        let st = context::stage("exact_scan");
        let rows = match quant {
            Some(q) => {
                if galign_telemetry::metrics_enabled() {
                    galign_telemetry::counter_add("serve.quant.scans", queries.len() as u64);
                }
                let panel = SimPanel::new(&self.source, &self.target, th)
                    .expect("artifact layers validated at load time");
                queries
                    .iter()
                    .map(|rq| {
                        panel
                            .topk_row_quantized(&q.target, rq.node, rq.k)
                            .expect("resident panel validated against the target rows at load")
                    })
                    .collect()
            }
            None => {
                let nodes: Vec<usize> = queries.iter().map(|q| q.node).collect();
                let ks: Vec<usize> = queries.iter().map(|q| q.k).collect();
                let panel = GatheredPanel::new(&self.source, &self.target, th, &nodes)
                    .expect("queries validated before gathering");
                simblock::topk_rows_per_k(&panel, &ks)
            }
        };
        st.finish_with(vec![("rows", queries.len().to_string())]);
        context::annotate(
            "distance_evals",
            (queries.len() * self.target_nodes()) as u64,
        );
        rows
    }

    /// The ANN engine over a (validated) batch: one search per query, then
    /// one exact re-rank over the gathered union of the confident queries'
    /// candidates. Each query is scored only against its own candidates,
    /// in ascending target-id order, with the FP operations of
    /// `SimPanel::score_block` (zero init, then `+= θ_l·dot` per layer in
    /// index order, skipping zero-weight layers) — so `select_topk`'s tie
    /// contract maps straight back to target ids and scores are
    /// bit-identical to the exact engine's. Fills `out` for the confident
    /// queries and returns the positions of the low-confidence ones.
    fn ann_rerank(
        &self,
        ann: &dyn AnnIndex,
        queries: &[RowQuery],
        th: &[f64],
        quantized: bool,
        out: &mut [Option<(Vec<Hit>, EngineUsed)>],
    ) -> Vec<usize> {
        let st = context::stage("ann_search");
        // (query position, its sorted, deduplicated candidate ids)
        let mut confident: Vec<(usize, Vec<usize>)> = Vec::new();
        let mut fallback: Vec<usize> = Vec::new();
        let mut total_cands = 0u64;
        let mut total_evals = 0u64;
        for (i, q) in queries.iter().enumerate() {
            let qv = self.query_vector(q.node, th);
            let mut stats = SearchStats::default();
            let cands = if quantized {
                ann.search_quant(&qv, q.k, &mut stats)
            } else {
                ann.search(&qv, q.k, &mut stats)
            };
            total_cands += cands.len() as u64;
            total_evals += stats.distance_evals;
            if cands.len() < q.k.min(self.target_nodes()) {
                if galign_telemetry::metrics_enabled() {
                    galign_telemetry::counter_add("serve.index.fallbacks", 1);
                }
                fallback.push(i);
            } else {
                let mut ids: Vec<usize> = cands.iter().map(|c| c.id).collect();
                ids.sort_unstable();
                ids.dedup();
                confident.push((i, ids));
            }
        }
        st.finish_with(vec![
            ("queries", queries.len().to_string()),
            ("candidates", total_cands.to_string()),
            ("distance_evals", total_evals.to_string()),
        ]);
        context::annotate("ann_candidates", total_cands);
        context::annotate("distance_evals", total_evals);
        if confident.is_empty() {
            return fallback;
        }

        // Gather the union's target rows once (cache locality for every
        // query in the batch); selection stays restricted per query.
        let mut union: Vec<usize> = confident
            .iter()
            .flat_map(|(_, ids)| ids.iter().copied())
            .collect();
        union.sort_unstable();
        union.dedup();
        let gathered: Vec<Dense> = self
            .target
            .iter()
            .map(|layer| {
                let mut data = Vec::with_capacity(union.len() * layer.cols());
                for &u in &union {
                    data.extend_from_slice(layer.row(u));
                }
                Dense::from_vec(union.len(), layer.cols(), data)
                    .expect("gathered candidate rows keep the layer dimension")
            })
            .collect();
        let st = context::stage("exact_rerank");
        let mut evals = 0u64;
        for (i, ids) in confident {
            let node = queries[i].node;
            let scores: Vec<f64> = ids
                .iter()
                .map(|&u| {
                    let pos = union.binary_search(&u).expect("candidate in union");
                    let mut acc = 0.0;
                    for (l, &w) in th.iter().enumerate() {
                        if w == 0.0 {
                            continue;
                        }
                        acc += w * dot(self.source[l].row(node), gathered[l].row(pos));
                    }
                    acc
                })
                .collect();
            evals += ids.len() as u64;
            let hits = select_topk(&scores, queries[i].k)
                .into_iter()
                .map(|h| Hit {
                    target: ids[h.target],
                    score: h.score,
                })
                .collect();
            out[i] = Some((hits, EngineUsed::Ann));
        }
        st.finish_with(vec![("evals", evals.to_string())]);
        context::annotate("distance_evals", evals);
        fallback
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::Artifact;

    fn tiny_index() -> TopkIndex {
        // Two layers; identical source/target embeddings, so node i's best
        // match is target i with cosine 1.
        TopkIndex::from_artifact(tiny_artifact())
    }

    fn tiny_artifact() -> Artifact {
        let data = vec![1.0, 0.0, 0.0, 1.0, 0.6, 0.8, -1.0, 0.5];
        let m = Mat::new(4, 2, data).unwrap();
        Artifact::new(
            vec![0.5, 0.5],
            vec![m.clone(), m.clone()],
            vec![m.clone(), m],
            false,
        )
        .unwrap()
    }

    /// A batch of one under `plan`.
    fn one(
        idx: &TopkIndex,
        node: usize,
        k: usize,
        theta: Option<&[f64]>,
        plan: Plan,
    ) -> Result<(Vec<Hit>, EngineUsed), QueryError> {
        Ok(idx.topk(&[RowQuery { node, k }], theta, plan)?.remove(0))
    }

    /// A batch of one on the f64 exact scan.
    fn exact(idx: &TopkIndex, node: usize, k: usize, theta: Option<&[f64]>) -> Vec<Hit> {
        one(idx, node, k, theta, Plan::EXACT).unwrap().0
    }

    fn assert_hits_bitwise(got: &[Hit], want: &[Hit]) {
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g.target, w.target);
            assert_eq!(g.score.to_bits(), w.score.to_bits());
        }
    }

    #[test]
    fn identical_embeddings_rank_self_first() {
        let idx = tiny_index();
        for v in 0..4 {
            let hits = exact(&idx, v, 1, None);
            assert_eq!(hits.len(), 1);
            assert_eq!(hits[0].target, v);
            assert!((hits[0].score - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn k_clamped_and_sorted_descending() {
        let idx = tiny_index();
        let hits = exact(&idx, 0, 100, None);
        assert_eq!(hits.len(), 4);
        for w in hits.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn theta_override_changes_scores() {
        let idx = tiny_index();
        // Zero out both layers: every score becomes 0 and ties break by id.
        let hits = exact(&idx, 2, 2, Some(&[0.0, 0.0]));
        assert_eq!(hits[0].target, 0);
        assert_eq!(hits[1].target, 1);
        assert_eq!(hits[0].score, 0.0);
    }

    #[test]
    fn errors_are_specific() {
        let idx = tiny_index();
        assert_eq!(
            one(&idx, 9, 1, None, Plan::EXACT).unwrap_err(),
            QueryError::NodeOutOfRange { node: 9, nodes: 4 }
        );
        assert_eq!(
            one(&idx, 0, 0, None, Plan::EXACT).unwrap_err(),
            QueryError::ZeroK
        );
        assert_eq!(
            one(&idx, 0, 1, Some(&[1.0]), Plan::EXACT).unwrap_err(),
            QueryError::BadThetaLength { got: 1, want: 2 }
        );
        // A batch is rejected before scoring anything.
        let batch = [0, 1, 99].map(|node| RowQuery { node, k: 1 });
        assert!(idx.topk(&batch, None, Plan::EXACT).is_err());
        assert_eq!(
            idx.validate(&batch, None).unwrap_err(),
            QueryError::NodeOutOfRange { node: 99, nodes: 4 }
        );
    }

    #[test]
    fn engine_mode_parsing() {
        assert_eq!(EngineMode::from_name("exact"), Some(EngineMode::Exact));
        assert_eq!(EngineMode::from_name("ann"), Some(EngineMode::Ann));
        assert_eq!(EngineMode::from_name("auto"), Some(EngineMode::Auto));
        assert_eq!(EngineMode::from_name("fast"), None);
        assert_eq!(EngineMode::default(), EngineMode::Auto);
        assert_eq!(EngineUsed::Ann.name(), "ann");
    }

    #[test]
    fn ann_mode_without_index_serves_exact() {
        let idx = tiny_index();
        assert!(!idx.has_ann());
        let plan = idx.plan(EngineMode::Ann, QuantMode::Off);
        assert_eq!(plan, Plan::EXACT);
        let (hits, engine) = one(&idx, 0, 2, None, plan).unwrap();
        assert_eq!(engine, EngineUsed::Exact);
        assert_eq!(hits, exact(&idx, 0, 2, None));
    }

    #[test]
    fn ann_rerank_is_bit_identical_to_exact() {
        let mut idx = tiny_index();
        idx.build_ann(Backend::Ivf).unwrap();
        assert_eq!(idx.ann_backend(), Some(Backend::Ivf));
        let plan = idx.plan(EngineMode::Ann, QuantMode::Off);
        for node in 0..4 {
            let exact = exact(&idx, node, 4, None);
            let (ann, engine) = one(&idx, node, 4, None, plan).unwrap();
            assert_eq!(engine, EngineUsed::Ann);
            // Tiny n: the candidate set covers everything, so hits AND
            // bit-level scores must agree exactly.
            assert_hits_bitwise(&ann, &exact);
        }
    }

    #[test]
    fn auto_mode_respects_threshold() {
        let mut idx = tiny_index();
        idx.build_ann(Backend::Hnsw).unwrap();
        // Default threshold (4096) far exceeds 4 target nodes: exact.
        let plan = idx.plan(EngineMode::Auto, QuantMode::Off);
        assert_eq!(plan.engine(), EngineUsed::Exact);
        let (_, engine) = one(&idx, 0, 2, None, plan).unwrap();
        assert_eq!(engine, EngineUsed::Exact);
        idx.set_auto_threshold(1);
        let plan = idx.plan(EngineMode::Auto, QuantMode::Off);
        assert_eq!(plan.ann, Some(Backend::Hnsw));
        let (_, engine) = one(&idx, 0, 2, None, plan).unwrap();
        assert_eq!(engine, EngineUsed::Ann);
        // Exact mode never routes to ANN.
        assert_eq!(idx.plan(EngineMode::Exact, QuantMode::Off), Plan::EXACT);
    }

    #[test]
    fn theta_override_works_through_ann() {
        let mut idx = tiny_index();
        idx.build_ann(Backend::Ivf).unwrap();
        idx.set_auto_threshold(1);
        // θ scales the query vector only, so overrides need no rebuild.
        let th = [1.0, 0.0];
        let exact = exact(&idx, 1, 3, Some(&th));
        let plan = idx.plan(EngineMode::Ann, QuantMode::Off);
        let (ann, _) = one(&idx, 1, 3, Some(&th), plan).unwrap();
        for (a, e) in ann.iter().zip(&exact) {
            assert_eq!(a.target, e.target);
            assert_eq!(a.score.to_bits(), e.score.to_bits());
        }
    }

    #[test]
    fn index_bytes_roundtrip_through_artifact() {
        let mut idx = tiny_index();
        idx.build_ann(Backend::Hnsw).unwrap();
        let blob = idx.index_bytes().unwrap();
        let mut fresh = tiny_index();
        fresh.attach_index_bytes(&blob).unwrap();
        assert_eq!(fresh.ann_backend(), Some(Backend::Hnsw));
        // A blob from different vectors is rejected and leaves the index
        // without an ANN attachment.
        let mut other = {
            let data = vec![0.0, 1.0, 1.0, 0.0, 0.8, 0.6, 0.5, -1.0];
            let m = Mat::new(4, 2, data).unwrap();
            let artifact = Artifact::new(
                vec![0.5, 0.5],
                vec![m.clone(), m.clone()],
                vec![m.clone(), m],
                false,
            )
            .unwrap();
            TopkIndex::from_artifact(artifact)
        };
        assert!(other.attach_index_bytes(&blob).is_err());
        assert!(!other.has_ann());
    }

    #[test]
    fn gathered_exact_is_bit_identical_to_sequential() {
        let idx = tiny_index();
        // Repeats, ties (nodes 0/1 are orthogonal basis rows), mixed k.
        let queries = [
            RowQuery { node: 3, k: 1 },
            RowQuery { node: 0, k: 4 },
            RowQuery { node: 2, k: 2 },
            RowQuery { node: 0, k: 2 },
            RowQuery { node: 1, k: 100 },
        ];
        let batch = idx.topk(&queries, None, Plan::EXACT).unwrap();
        assert_eq!(batch.len(), queries.len());
        for ((got, engine), q) in batch.iter().zip(&queries) {
            assert_eq!(*engine, EngineUsed::Exact);
            assert_hits_bitwise(got, &exact(&idx, q.node, q.k, None));
        }
        // θ overrides flow through unchanged.
        let th = [1.0, 0.0];
        let batch = idx.topk(&queries, Some(&th), Plan::EXACT).unwrap();
        for ((got, _), q) in batch.iter().zip(&queries) {
            assert_hits_bitwise(got, &exact(&idx, q.node, q.k, Some(&th)));
        }
        // Whole batch rejected on any bad query.
        assert_eq!(
            idx.topk(&[RowQuery { node: 0, k: 0 }], None, Plan::EXACT)
                .unwrap_err(),
            QueryError::ZeroK
        );
        assert_eq!(
            idx.topk(&[RowQuery { node: 9, k: 1 }], None, Plan::EXACT)
                .unwrap_err(),
            QueryError::NodeOutOfRange { node: 9, nodes: 4 }
        );
    }

    #[test]
    fn gathered_with_mode_matches_sequential_per_engine() {
        let mut idx = tiny_index();
        idx.build_ann(Backend::Ivf).unwrap();
        idx.set_auto_threshold(1);
        let queries = [
            RowQuery { node: 3, k: 2 },
            // k > target count: the per-query search comes back clamped,
            // which is still >= k.min(target_nodes) so it stays on ANN —
            // same decision a batch of one makes.
            RowQuery { node: 0, k: 9 },
            RowQuery { node: 2, k: 4 },
            RowQuery { node: 3, k: 1 },
        ];
        for mode in [EngineMode::Exact, EngineMode::Ann, EngineMode::Auto] {
            let plan = idx.plan(mode, QuantMode::Off);
            let batch = idx.topk(&queries, None, plan).unwrap();
            for (i, q) in queries.iter().enumerate() {
                let (hits, engine) = one(&idx, q.node, q.k, None, plan).unwrap();
                assert_eq!(batch[i].1, engine, "engine for query {i} under {mode}");
                assert_hits_bitwise(&batch[i].0, &hits);
            }
        }
        // θ override through the gathered ANN re-rank.
        let th = [0.0, 1.0];
        let plan = idx.plan(EngineMode::Ann, QuantMode::Off);
        let batch = idx.topk(&queries, Some(&th), plan).unwrap();
        for (i, q) in queries.iter().enumerate() {
            let (hits, _) = one(&idx, q.node, q.k, Some(&th), plan).unwrap();
            assert_hits_bitwise(&batch[i].0, &hits);
        }
    }

    #[test]
    fn quant_modes_parse_and_tag() {
        assert_eq!(QuantMode::from_name("off"), Some(QuantMode::Off));
        assert_eq!(QuantMode::from_name("int8"), Some(QuantMode::Int8));
        assert_eq!(QuantMode::from_name("f16"), Some(QuantMode::F16));
        assert_eq!(QuantMode::from_name("int4"), None);
        assert_eq!(QuantMode::default(), QuantMode::Off);
        assert_eq!(QuantMode::Int8.tag(), 1);
        assert_eq!(QuantMode::F16.name(), "f16");
    }

    #[test]
    fn quantized_scans_are_bit_identical_across_engines() {
        for (gmode, smode) in [
            (galign_quant::QuantMode::Int8, QuantMode::Int8),
            (galign_quant::QuantMode::F16, QuantMode::F16),
        ] {
            let artifact = tiny_artifact().with_quant(gmode, true).unwrap();
            let mut idx = TopkIndex::from_artifact(artifact);
            assert_eq!(idx.quant_available(), Some(smode));
            assert!(idx.quant_resident_bytes() > 0);
            assert!(idx.f64_resident_bytes() > 0);
            idx.build_ann(Backend::Ivf).unwrap();
            // The other panel encoding degrades to f64.
            let other = match smode {
                QuantMode::Int8 => QuantMode::F16,
                _ => QuantMode::Int8,
            };
            assert_eq!(idx.plan(EngineMode::Exact, smode).quant, smode);
            assert_eq!(idx.plan(EngineMode::Exact, other), Plan::EXACT);
            for node in 0..4 {
                for k in [1, 2, 4, 9] {
                    let exact = exact(&idx, node, k, None);
                    for mode in [EngineMode::Exact, EngineMode::Ann, EngineMode::Auto] {
                        let (hits, _) = one(&idx, node, k, None, idx.plan(mode, smode)).unwrap();
                        assert_hits_bitwise(&hits, &exact);
                        // Results must still match bit for bit.
                        let (hits, _) = one(&idx, node, k, None, idx.plan(mode, other)).unwrap();
                        assert_hits_bitwise(&hits, &exact);
                    }
                }
            }
            // Batched quantized scans match per-query results.
            let queries = [
                RowQuery { node: 3, k: 1 },
                RowQuery { node: 0, k: 4 },
                RowQuery { node: 1, k: 100 },
            ];
            for mode in [EngineMode::Exact, EngineMode::Ann, EngineMode::Auto] {
                let plan = idx.plan(mode, smode);
                let gathered = idx.topk(&queries, None, plan).unwrap();
                for (i, q) in queries.iter().enumerate() {
                    let (want, engine) = one(&idx, q.node, q.k, None, plan).unwrap();
                    assert_eq!(gathered[i].1, engine);
                    assert_hits_bitwise(&gathered[i].0, &want);
                }
            }
        }
    }

    #[test]
    fn quant_primary_artifact_serves_bit_identically_through_bytes() {
        let primary = tiny_artifact()
            .with_quant(galign_quant::QuantMode::Int8, false)
            .unwrap();
        let reloaded = Artifact::from_bytes(&primary.to_bytes()).unwrap();
        let idx = TopkIndex::from_artifact(reloaded);
        assert_eq!(idx.quant_available(), Some(QuantMode::Int8));
        let plan = idx.plan(EngineMode::Exact, QuantMode::Int8);
        assert_eq!(plan.quant, QuantMode::Int8);
        for node in 0..4 {
            let (hits, _) = one(&idx, node, 4, None, plan).unwrap();
            assert_hits_bitwise(&hits, &exact(&idx, node, 4, None));
        }
    }

    #[test]
    fn unnormalized_artifact_disables_quant_panels() {
        let mut artifact = tiny_artifact()
            .with_quant(galign_quant::QuantMode::Int8, true)
            .unwrap();
        // Forge the flag off: the index renormalizes rows at load, so the
        // panels no longer describe them and must be dropped.
        artifact.rows_normalized = false;
        let idx = TopkIndex::from_artifact(artifact);
        assert_eq!(idx.quant_available(), None);
        assert_eq!(idx.quant_resident_bytes(), 0);
        // Quantized requests silently serve the f64 path.
        assert_eq!(idx.plan(EngineMode::Exact, QuantMode::Int8), Plan::EXACT);
        let plan = Plan {
            ann: None,
            quant: QuantMode::Int8,
        };
        let (hits, _) = one(&idx, 0, 2, None, plan).unwrap();
        assert_hits_bitwise(&hits, &exact(&idx, 0, 2, None));
    }

    #[test]
    fn select_topk_ties_break_by_smaller_index() {
        let scores = [1.0, 3.0, 3.0, 0.5];
        let hits = select_topk(&scores, 2);
        assert_eq!(hits[0].target, 1);
        assert_eq!(hits[1].target, 2);
        assert_eq!(hits, select_topk_bruteforce(&scores, 2));
    }

    #[test]
    fn select_topk_empty_and_k_zero() {
        assert!(select_topk(&[], 3).is_empty());
        assert!(select_topk(&[1.0], 0).is_empty());
    }
}
