//! # galign-index
//!
//! Approximate nearest-neighbor (ANN) retrieval for alignment serving.
//!
//! The exact serving path scores a query row against **all** `n` target
//! nodes (`O(n·d·L)` per query through the blocked panel GEMM). The
//! GAlign similarity `S = Σ_l θ⁽ˡ⁾ H_s⁽ˡ⁾ H_t⁽ˡ⁾ᵀ` (paper Eq. 11–12) is a
//! pure inner-product top-k problem, so an ANN index makes it sublinear:
//! concatenate the θ-scaled source row into one query vector and the raw
//! target rows into one vector per node, and
//! `⟨concat(θ_l·s_l), concat(t_l)⟩ = Σ_l θ_l⟨s_l, t_l⟩` exactly. Because
//! every layer is row-L2-normalised, every concatenated target vector has
//! the same norm (√L up to zero rows), so maximum-inner-product ordering
//! coincides with cosine/angular ordering and proximity-graph search is
//! well behaved.
//!
//! Two backends implement the one [`AnnIndex`] trait:
//!
//! * [`hnsw::HnswIndex`] — a layered proximity graph (HNSW-style):
//!   greedy descent through sparse upper layers, then a beam (`ef`)
//!   search on the base layer. Logarithmic-ish distance evaluations per
//!   query, the default backend.
//! * [`ivf::IvfIndex`] — inverted-file cluster probe: k-means-lite
//!   centroids, queries scan the `nprobe` closest cells. Simpler, cheap
//!   to build, a useful cross-check of the graph index.
//!
//! Both return **candidates with approximate scores**; callers re-rank
//! the candidate set exactly (galign-serve does this through
//! `simblock::select_topk`) so returned scores are bit-identical to the
//! exact engine for every hit both return. Searches count their distance
//! evaluations in [`SearchStats`] — the sublinearity proof — and feed the
//! `index.search.*` / `index.build.*` telemetry.
//!
//! Serialization ([`AnnIndex::to_bytes`] / [`load`]) stores the *structure
//! only* (graph links / cluster lists) plus an FNV-1a checksum of the
//! vectors it was built over; the loader re-attaches vectors rebuilt from
//! the serving artifact and verifies the checksum, so the embedded index
//! never duplicates the embeddings it indexes.
//!
//! This crate is std-only (its dependencies, `galign-telemetry` and
//! `galign-quant`, are std-only too): vectors are plain `&[f64]` rows and
//! determinism comes from an internal seeded xorshift. No rayon or BLAS is
//! involved. Search is single-threaded and per-query cheap by design; the
//! only threads are the IVF build's k-means assignment workers
//! (`std::thread::scope`, one per available core), which write disjoint
//! row ranges so the built index is the same for any worker count. Every
//! inner product goes through one fixed-order lane-blocked kernel, so a
//! given input yields the same bits on every host.

pub mod hnsw;
pub mod ivf;
pub mod serial;

use std::fmt;

pub use hnsw::{HnswIndex, HnswParams};
pub use ivf::{IvfIndex, IvfParams};

/// One ANN candidate: a target node id plus the backend's approximate
/// score (the raw concatenated inner product — exact up to FP accumulation
/// order, which is why callers re-rank before returning scores).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Target-network node id.
    pub id: usize,
    /// Approximate inner-product score used for traversal ordering.
    pub approx: f64,
}

/// Per-query search accounting. `distance_evals` is the sublinearity
/// contract: an exact scan costs exactly `n` evaluations, so a mean well
/// below `n` *is* the speedup.
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchStats {
    /// Query↔vector (and centroid) inner products evaluated.
    pub distance_evals: u64,
}

/// Which ANN backend an index uses (stable tags — serialized).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Layered proximity graph ([`hnsw::HnswIndex`]).
    Hnsw,
    /// Inverted-file cluster probe ([`ivf::IvfIndex`]).
    Ivf,
}

impl Backend {
    /// The stable serialized tag.
    #[must_use]
    pub fn tag(self) -> u32 {
        match self {
            Backend::Hnsw => 1,
            Backend::Ivf => 2,
        }
    }

    /// Parses a serialized tag.
    #[must_use]
    pub fn from_tag(tag: u32) -> Option<Backend> {
        match tag {
            1 => Some(Backend::Hnsw),
            2 => Some(Backend::Ivf),
            _ => None,
        }
    }

    /// Parses a CLI spelling (`"hnsw"` / `"ivf"`).
    #[must_use]
    pub fn from_name(name: &str) -> Option<Backend> {
        match name {
            "hnsw" => Some(Backend::Hnsw),
            "ivf" => Some(Backend::Ivf),
            _ => None,
        }
    }

    /// The CLI spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Backend::Hnsw => "hnsw",
            Backend::Ivf => "ivf",
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Index construction / deserialization failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexError {
    /// Inconsistent inputs (shape mismatches, empty vector sets).
    Invalid(String),
    /// A serialized index failed validation (truncation, checksum,
    /// unknown backend, or vectors that do not match the ones the index
    /// was built over).
    Corrupt(String),
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::Invalid(msg) => write!(f, "invalid index input: {msg}"),
            IndexError::Corrupt(msg) => write!(f, "corrupt index: {msg}"),
        }
    }
}

impl std::error::Error for IndexError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, IndexError>;

/// The indexed vectors: `n` rows of `dim` floats, row-major. Built by the
/// caller from the concatenated (row-normalised) target embedding layers.
#[derive(Debug, Clone, PartialEq)]
pub struct VectorSet {
    n: usize,
    dim: usize,
    data: Vec<f64>,
}

impl VectorSet {
    /// Wraps a row-major buffer of `n` rows by `dim` columns.
    ///
    /// # Errors
    /// [`IndexError::Invalid`] when the buffer length disagrees with the
    /// shape or `dim` is zero while `n` is not.
    pub fn new(n: usize, dim: usize, data: Vec<f64>) -> Result<Self> {
        if n > 0 && dim == 0 {
            return Err(IndexError::Invalid("vectors must have dim >= 1".into()));
        }
        if data.len() != n * dim {
            return Err(IndexError::Invalid(format!(
                "buffer of {} floats cannot back {n} x {dim} vectors",
                data.len()
            )));
        }
        Ok(VectorSet { n, dim, data })
    }

    /// Number of vectors.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Vector dimensionality.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Row `i` as a slice.
    ///
    /// # Panics
    /// When `i >= len()`.
    #[must_use]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// FNV-1a checksum of the raw vector bytes — stored in serialized
    /// indexes so a structure is never re-attached to different vectors.
    #[must_use]
    pub fn checksum(&self) -> u64 {
        serial::fnv1a_f64(&self.data)
    }
}

/// Inner product between a query and a stored row, counting the
/// evaluation (the unit of search cost).
#[inline]
pub(crate) fn score(vectors: &VectorSet, q: &[f64], i: usize, stats: &mut SearchStats) -> f64 {
    stats.distance_evals += 1;
    dot(q, vectors.row(i))
}

/// How a traversal scores the query against stored rows: against the f64
/// vectors (exact inner products) or against an attached quantized panel
/// (~8× cheaper in bytes for int8). Traversal ordering is heuristic either
/// way — callers re-rank candidates exactly — so swapping the scorer
/// changes which candidates surface, never the correctness contract.
pub(crate) enum QueryScorer<'a> {
    /// Full-precision scoring against the [`VectorSet`] rows.
    Exact(&'a [f64]),
    /// First-pass scoring against a quantized panel; `raw` stays available
    /// for the parts of traversal that keep f64 math (IVF centroid
    /// ranking).
    Quant {
        raw: &'a [f64],
        panel: &'a galign_quant::QuantizedPanel,
        query: galign_quant::QuantizedQuery,
    },
}

impl QueryScorer<'_> {
    /// The raw f64 query.
    pub(crate) fn raw(&self) -> &[f64] {
        match self {
            QueryScorer::Exact(q) => q,
            QueryScorer::Quant { raw, .. } => raw,
        }
    }

    /// Scores the query against row `i`, counting one distance evaluation.
    pub(crate) fn score(&self, vectors: &VectorSet, i: usize, stats: &mut SearchStats) -> f64 {
        match self {
            QueryScorer::Exact(q) => score(vectors, q, i, stats),
            QueryScorer::Quant { panel, query, .. } => {
                stats.distance_evals += 1;
                panel.approx_dot(query, i)
            }
        }
    }
}

/// Accumulator lanes of [`dot`].
const DOT_LANES: usize = 8;

/// Inner product over the common prefix of `a` and `b`, shared by both
/// backends' build and search.
///
/// Eight independent accumulators take the products of each 8-wide block
/// (lane `l` sums elements `l, l + 8, …`), so the adds are not one serial
/// dependency chain. The lanes then reduce in the fixed tree
/// `((l0+l4) + (l1+l5)) + ((l2+l6) + (l3+l7))`, and the remaining
/// `len % 8` products are summed sequentially and added last. The order
/// does not depend on the host's vector width (no runtime feature
/// detection, no FMA contraction), so every host produces the same bits.
/// The result differs from a sequential sum only in rounding.
#[inline]
#[must_use]
pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
    let len = a.len().min(b.len());
    let (a, b) = (&a[..len], &b[..len]);
    let mut lanes = [0.0f64; DOT_LANES];
    let (mut xs, mut ys) = (a.chunks_exact(DOT_LANES), b.chunks_exact(DOT_LANES));
    for (x, y) in (&mut xs).zip(&mut ys) {
        for l in 0..DOT_LANES {
            lanes[l] += x[l] * y[l];
        }
    }
    let mut tail = 0.0;
    for (x, y) in xs.remainder().iter().zip(ys.remainder()) {
        tail += x * y;
    }
    (((lanes[0] + lanes[4]) + (lanes[1] + lanes[5]))
        + ((lanes[2] + lanes[6]) + (lanes[3] + lanes[7])))
        + tail
}

/// A graph-or-cluster ANN index over one [`VectorSet`].
///
/// Implementations must be `Send + Sync` (serving fans queries across
/// worker threads) and deterministic: the same build inputs produce the
/// same structure, and the same query produces the same candidates.
pub trait AnnIndex: Send + Sync {
    /// Which backend this is.
    fn backend(&self) -> Backend;

    /// Number of indexed vectors.
    fn len(&self) -> usize;

    /// True when nothing is indexed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Indexed vector dimensionality.
    fn dim(&self) -> usize;

    /// Returns candidate ids (with approximate scores, best first) for a
    /// top-`k` query. The candidate set is intentionally larger than `k`
    /// (the backend's beam/probe width) so exact re-ranking has slack;
    /// callers must re-rank and truncate. `stats` accumulates the
    /// distance evaluations spent.
    fn search(&self, query: &[f64], k: usize, stats: &mut SearchStats) -> Vec<Candidate>;

    /// Attaches a quantized panel over the same rows so traversal can walk
    /// quantized memory instead of the f64 vectors (see
    /// [`AnnIndex::search_quant`]). The panel must cover exactly this
    /// index's vectors (`len() × dim()`); panels are *not* serialized with
    /// the structure — callers re-attach after [`load`], the same way
    /// vectors are re-attached.
    ///
    /// # Errors
    /// [`IndexError::Invalid`] when the panel shape disagrees with the
    /// indexed vectors, or when the backend does not support quantized
    /// traversal (the default).
    fn attach_quant(&mut self, panel: std::sync::Arc<galign_quant::QuantizedPanel>) -> Result<()> {
        let _ = panel;
        Err(IndexError::Invalid(
            "backend does not support quantized traversal".into(),
        ))
    }

    /// True when a quantized panel is attached.
    fn quant_attached(&self) -> bool {
        false
    }

    /// Like [`AnnIndex::search`], but traversal scores candidates against
    /// the attached quantized panel when one is present (falling back to
    /// the exact search when none is attached or the query cannot be
    /// quantized). Candidate *selection* may differ from the exact-scored
    /// traversal; the exact re-rank contract downstream is unchanged.
    fn search_quant(&self, query: &[f64], k: usize, stats: &mut SearchStats) -> Vec<Candidate> {
        self.search(query, k, stats)
    }

    /// Serializes the index *structure* (not the vectors) with the
    /// checksum of the vectors it was built over. See [`load`].
    fn to_bytes(&self) -> Vec<u8>;
}

/// Deserializes an index and re-attaches `vectors` (rebuilt by the caller
/// from the serving artifact). The stored n/dim/checksum must match the
/// supplied vectors exactly.
///
/// # Errors
/// [`IndexError::Corrupt`] on truncation, bad magic/version/backend,
/// checksum mismatch, or a vector set that differs from build time.
pub fn load(bytes: &[u8], vectors: VectorSet) -> Result<Box<dyn AnnIndex>> {
    serial::load(bytes, vectors)
}

/// Records one search in the global telemetry (`index.search.queries`,
/// `index.search.distance_evals`, `index.search.candidates`), gated on
/// `galign_telemetry::metrics_enabled()`.
pub(crate) fn record_search(stats: SearchStats, candidates: usize) {
    if galign_telemetry::metrics_enabled() {
        galign_telemetry::counter_add("index.search.queries", 1);
        galign_telemetry::counter_add("index.search.distance_evals", stats.distance_evals);
        galign_telemetry::histogram_record("index.search.candidates", candidates as f64);
    }
}

/// Records one build in the global telemetry (`index.build.nodes`,
/// `index.build.distance_evals`, `index.build.ms`).
pub(crate) fn record_build(backend: Backend, nodes: usize, stats: SearchStats, ms: f64) {
    if galign_telemetry::metrics_enabled() {
        galign_telemetry::counter_add("index.build.nodes", nodes as u64);
        galign_telemetry::counter_add("index.build.distance_evals", stats.distance_evals);
        galign_telemetry::histogram_record("index.build.ms", ms);
    }
    galign_telemetry::debug!(
        "index",
        "built {backend} index over {nodes} vectors in {ms:.1} ms ({} distance evals)",
        stats.distance_evals
    );
}

/// Deterministic xorshift64* stream — the crate's only randomness source
/// (HNSW level assignment, IVF seeding). Never zero-seeded.
#[derive(Debug, Clone)]
pub(crate) struct Rng(u64);

impl Rng {
    pub(crate) fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in (0, 1] — never exactly zero, so `ln` is safe.
    pub(crate) fn f64_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, n)`.
    pub(crate) fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// Ordering key for (score, id) pairs: by score via `total_cmp`, ties by
/// *smaller id first* — the same contract as `simblock::select_topk`, so
/// candidate ordering is deterministic even on equal scores.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Scored {
    pub score: f64,
    pub id: u32,
}

impl Eq for Scored {}

impl Ord for Scored {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.score
            .total_cmp(&other.score)
            .then_with(|| other.id.cmp(&self.id))
    }
}

impl PartialOrd for Scored {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Sorts candidates best-first (descending score, ties toward smaller id)
/// — the presentation order both backends return.
pub(crate) fn sort_candidates(cands: &mut [Scored]) {
    cands.sort_by(|a, b| b.cmp(a));
}

/// Keeps the `keep` best candidates, best-first: the same prefix as
/// [`sort_candidates`] followed by `truncate(keep)`, at the cost of one
/// linear selection plus a sort of the kept prefix only. `Scored` is a
/// strict total order (two entries compare equal only when their score
/// bits and ids match), so the kept set and its order are identical to the
/// full sort's.
pub(crate) fn select_best(cands: &mut Vec<Scored>, keep: usize) {
    if keep == 0 {
        cands.clear();
        return;
    }
    if keep < cands.len() {
        cands.select_nth_unstable_by(keep - 1, |a, b| b.cmp(a));
        cands.truncate(keep);
    }
    sort_candidates(cands);
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::{Rng, VectorSet};

    /// Seeded set of `n` random L2-normalised rows — the standard fixture
    /// for backend and serialization tests.
    pub(crate) fn random_unit_vectors(n: usize, dim: usize, seed: u64) -> VectorSet {
        let mut rng = Rng::new(seed);
        let mut data = Vec::with_capacity(n * dim);
        for _ in 0..n {
            let row: Vec<f64> = (0..dim).map(|_| rng.f64_unit() * 2.0 - 1.0).collect();
            let norm = row.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-12);
            data.extend(row.into_iter().map(|v| v / norm));
        }
        VectorSet::new(n, dim, data).unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_set_validation_and_access() {
        let v = VectorSet::new(2, 3, vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0]).unwrap();
        assert_eq!(v.len(), 2);
        assert_eq!(v.dim(), 3);
        assert_eq!(v.row(1), &[0.0, 1.0, 0.0]);
        assert!(!v.is_empty());
        assert!(VectorSet::new(2, 3, vec![0.0; 5]).is_err());
        assert!(VectorSet::new(2, 0, vec![]).is_err());
        assert!(VectorSet::new(0, 0, vec![]).unwrap().is_empty());
    }

    #[test]
    fn checksum_is_content_sensitive() {
        let a = VectorSet::new(1, 2, vec![1.0, 2.0]).unwrap();
        let b = VectorSet::new(1, 2, vec![1.0, 2.0]).unwrap();
        let c = VectorSet::new(1, 2, vec![1.0, 2.5]).unwrap();
        assert_eq!(a.checksum(), b.checksum());
        assert_ne!(a.checksum(), c.checksum());
    }

    #[test]
    fn backend_tags_roundtrip() {
        for b in [Backend::Hnsw, Backend::Ivf] {
            assert_eq!(Backend::from_tag(b.tag()), Some(b));
            assert_eq!(Backend::from_name(b.name()), Some(b));
        }
        assert_eq!(Backend::from_tag(99), None);
        assert_eq!(Backend::from_name("flat"), None);
    }

    #[test]
    fn scored_orders_like_select_topk() {
        let mut v = [
            Scored { score: 1.0, id: 5 },
            Scored { score: 2.0, id: 9 },
            Scored { score: 2.0, id: 3 },
            Scored { score: 0.5, id: 0 },
        ];
        sort_candidates(&mut v);
        let ids: Vec<u32> = v.iter().map(|s| s.id).collect();
        // Descending score; the 2.0 tie breaks toward the smaller id.
        assert_eq!(ids, vec![3, 9, 5, 0]);
    }

    #[test]
    fn select_best_matches_sort_and_truncate_on_ties() {
        // Scores drawn from a handful of values (including both zeros), so
        // most comparisons fall through to the id tie-break.
        const VALUES: [f64; 5] = [-1.0, -0.0, 0.0, 0.25, 1.0];
        let mut rng = Rng::new(7);
        for len in [0usize, 1, 2, 5, 33, 200] {
            let cands: Vec<Scored> = (0..len)
                .map(|_| Scored {
                    score: VALUES[rng.below(VALUES.len())],
                    id: rng.below(len.max(1) * 2) as u32,
                })
                .collect();
            for keep in [0, 1, len.saturating_sub(1), len, len + 3] {
                let mut want = cands.clone();
                sort_candidates(&mut want);
                want.truncate(keep);
                let mut got = cands.clone();
                select_best(&mut got, keep);
                let bits = |v: &[Scored]| -> Vec<(u64, u32)> {
                    v.iter().map(|s| (s.score.to_bits(), s.id)).collect()
                };
                assert_eq!(bits(&got), bits(&want), "len {len}, keep {keep}");
            }
        }
    }

    #[test]
    fn dot_matches_sequential_sum_for_every_tail_length() {
        let mut rng = Rng::new(11);
        for dim in 0..=70usize {
            let a: Vec<f64> = (0..dim).map(|_| rng.f64_unit() * 2.0 - 1.0).collect();
            let b: Vec<f64> = (0..dim).map(|_| rng.f64_unit() * 2.0 - 1.0).collect();
            let sequential: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            let magnitude: f64 = a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum();
            let got = dot(&a, &b);
            let bound = dim as f64 * f64::EPSILON * magnitude;
            assert!(
                (got - sequential).abs() <= bound,
                "dim {dim}: lane-blocked {got} vs sequential {sequential} (bound {bound})"
            );
            for _ in 0..3 {
                assert_eq!(dot(&a, &b).to_bits(), got.to_bits(), "dim {dim}");
            }
            // Mismatched lengths use the common prefix, as `zip` did.
            let short = &b[..dim / 2];
            assert_eq!(
                dot(&a, short).to_bits(),
                dot(&a[..dim / 2], short).to_bits()
            );
        }
        // Exactly representable products sum exactly in any order.
        let ones = vec![1.0; 70];
        assert_eq!(dot(&ones, &ones), 70.0);
    }

    #[test]
    fn rng_is_deterministic_and_unit_open() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        for _ in 0..1000 {
            let u = a.f64_unit();
            assert!(u > 0.0 && u <= 1.0);
            assert!(a.below(7) < 7);
        }
    }
}
