//! Blocked streaming similarity engine — the single scoring substrate for
//! the whole suite.
//!
//! The aggregated alignment matrix `S = Σ_l θ⁽ˡ⁾ H_s⁽ˡ⁾ H_t⁽ˡ⁾ᵀ`
//! (paper Eq. 11–12) is quadratic in the node counts; materialising it caps
//! every consumer at the memory wall long before the CPU becomes the
//! bottleneck. This module instead streams `S` as a sequence of row
//! *blocks* (panel GEMM over the θ-weighted, row-normalised layer
//! embeddings): each block is a `block_rows × n₂` buffer that is scored,
//! reduced (top-k / argmax / row-max) and dropped before the next block is
//! touched, so peak memory is `O(block · n₂)` instead of `O(n₁ · n₂)`.
//! Blocks are independent and fan out across scoped worker threads
//! ([`crate::par`]); results never depend on the worker count.
//!
//! The [`ScoreProvider`] trait defined here is the one scoring API of the
//! workspace: matching policies, Success@q/MAP/AUC evaluation, the
//! refinement loop's stability statistics and `galign-serve`'s query kernel
//! all run off [`ScoreProvider::score_block`] through the fused drivers
//! below ([`top1`], [`topk`], [`greedy_objective`], [`column_argmax`],
//! [`layer_stats`]).
//!
//! Telemetry (all gated on `galign_telemetry::metrics_enabled()`):
//! * `simblock.blocks` — counter, blocks scored;
//! * `simblock.flops` — counter, floating-point ops spent in panels;
//! * `simblock.alloc.elems` — counter, cumulative block-buffer elements;
//! * `simblock.block_elems` — gauge, the per-block buffer size actually in
//!   flight (the peak working set of a streamed reduction).

use crate::dense::{dot, Dense};
use crate::error::{MatrixError, Result};
use crate::par;
use galign_quant::{certified_shortlist, QuantizedPanel};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

/// Default number of source rows scored per block. 128 rows × n₂ targets
/// keeps the panel comfortably inside L2 for the embedding sizes the paper
/// uses while leaving enough blocks for the worker threads to balance.
pub const DEFAULT_BLOCK_ROWS: usize = 128;

/// Anything that can produce alignment scores block-at-a-time.
///
/// This is the redesigned scoring API (formerly a row-only trait in
/// `galign-metrics`): implementors provide [`ScoreProvider::score_block`],
/// and row access ([`ScoreProvider::score_row`], [`ScoreProvider::argmax`])
/// falls out as a one-row block. Implementations must be `Sync` so the
/// blocked drivers can fan out across worker threads.
pub trait ScoreProvider: Sync {
    /// Number of source nodes (rows of `S`).
    fn num_sources(&self) -> usize;
    /// Number of target nodes (columns of `S`).
    fn num_targets(&self) -> usize;

    /// Writes the score rows of `rows` into `out` (row-major,
    /// `rows.len() * num_targets()` elements). `rows` is guaranteed by the
    /// drivers to lie within `0..num_sources()` and `out` to have exactly
    /// that many elements; implementations may `debug_assert!` both.
    fn score_block(&self, rows: Range<usize>, out: &mut [f64]);

    /// Preferred rows per block for this provider (drivers clamp to ≥ 1).
    fn block_rows(&self) -> usize {
        DEFAULT_BLOCK_ROWS
    }

    /// Alignment scores of source node `v` against every target node —
    /// a one-row block.
    fn score_row(&self, v: usize) -> Vec<f64> {
        let mut out = vec![0.0; self.num_targets()];
        self.score_block(v..v + 1, &mut out);
        out
    }

    /// Index of the best-scoring target for source `v` (`None` when there
    /// are no targets). First strictly-greater entry wins, so ties break
    /// toward the smaller target id.
    fn argmax(&self, v: usize) -> Option<usize> {
        let row = self.score_row(v);
        let mut best: Option<(usize, f64)> = None;
        for (j, s) in row.into_iter().enumerate() {
            if best.is_none_or(|(_, bs)| s > bs) {
                best = Some((j, s));
            }
        }
        best.map(|(j, _)| j)
    }
}

/// The θ-weighted multi-order similarity panel: borrowed layer stacks of
/// both sides plus the layer weights. This is the workspace's one
/// implementation of Eq. 11–12 scoring — `AlignmentMatrix` and
/// `galign-serve`'s `TopkIndex` both delegate here.
///
/// Scoring accumulates layer-by-layer in index order and skips zero-weight
/// layers, which keeps blocked results bit-identical to the historical
/// row-streamed path (same FP operations in the same order).
#[derive(Debug, Clone, Copy)]
pub struct SimPanel<'a> {
    source: &'a [Dense],
    target: &'a [Dense],
    theta: &'a [f64],
    block_rows: usize,
}

impl<'a> SimPanel<'a> {
    /// Builds a panel over row-normalised layer embeddings.
    ///
    /// # Errors
    /// [`MatrixError::InvalidInput`] when there are no layers or the layer /
    /// θ counts disagree; [`MatrixError::ShapeMismatch`] when a layer pair
    /// disagrees on embedding dimension or a side's layers disagree on node
    /// count.
    pub fn new(source: &'a [Dense], target: &'a [Dense], theta: &'a [f64]) -> Result<Self> {
        if source.is_empty() {
            return Err(MatrixError::InvalidInput(
                "similarity panel needs at least one layer".into(),
            ));
        }
        if source.len() != target.len() || theta.len() != source.len() {
            return Err(MatrixError::InvalidInput(format!(
                "layer/θ counts disagree: source {}, target {}, theta {}",
                source.len(),
                target.len(),
                theta.len()
            )));
        }
        for side in [source, target] {
            for l in side {
                if l.rows() != side[0].rows() {
                    return Err(MatrixError::ShapeMismatch {
                        op: "simblock panel (node counts)",
                        lhs: side[0].shape(),
                        rhs: l.shape(),
                    });
                }
            }
        }
        for (s, t) in source.iter().zip(target) {
            if s.cols() != t.cols() {
                return Err(MatrixError::ShapeMismatch {
                    op: "simblock panel (layer dims)",
                    lhs: s.shape(),
                    rhs: t.shape(),
                });
            }
        }
        Ok(SimPanel {
            source,
            target,
            theta,
            block_rows: DEFAULT_BLOCK_ROWS,
        })
    }

    /// Overrides the rows-per-block (clamped to ≥ 1).
    #[must_use]
    pub fn with_block_rows(mut self, rows: usize) -> Self {
        self.block_rows = rows.max(1);
        self
    }

    /// The θ-weighted concatenated query row for source `v`: layer `l`'s
    /// embedding scaled by `theta[l]`, layers concatenated in index order.
    /// Its f64 dot with a concatenated (unscaled) target row equals the
    /// panel score in real arithmetic, which is what the quantized first
    /// pass approximates.
    #[must_use]
    pub fn weighted_query(&self, v: usize) -> Vec<f64> {
        let dim: usize = self.source.iter().map(Dense::cols).sum();
        let mut out = Vec::with_capacity(dim);
        for (l, &w) in self.theta.iter().enumerate() {
            out.extend(self.source[l].row(v).iter().map(|&x| w * x));
        }
        out
    }

    fn validate_quant(&self, quant: &QuantizedPanel) -> Result<()> {
        let dim: usize = self.target.iter().map(Dense::cols).sum();
        if quant.len() != self.num_targets() || quant.dim() != dim {
            return Err(MatrixError::InvalidInput(format!(
                "quantized panel is {}×{}, target panel is {}×{dim}",
                quant.len(),
                quant.dim(),
                self.num_targets()
            )));
        }
        Ok(())
    }

    /// Exact scores of source `v` against an id-ordered candidate subset,
    /// with the same per-element operation order as
    /// [`ScoreProvider::score_block`] (zero-init, layer-by-layer in index
    /// order, zero-weight layers skipped) so re-ranked scores carry the
    /// exact scan's bits.
    fn exact_scores_for(&self, v: usize, candidates: &[usize]) -> Vec<f64> {
        let mut out = vec![0.0; candidates.len()];
        for (l, &w) in self.theta.iter().enumerate() {
            if w == 0.0 {
                continue;
            }
            let sv = self.source[l].row(v);
            let t = &self.target[l];
            for (o, &u) in out.iter_mut().zip(candidates) {
                *o += w * dot(sv, t.row(u));
            }
        }
        out
    }

    fn topk_row_quantized_validated(&self, quant: &QuantizedPanel, v: usize, k: usize) -> Vec<Hit> {
        let n_t = self.num_targets();
        let query = self.weighted_query(v);
        let Ok(q) = quant.quantize_query(&query) else {
            // Unquantizable query (non-finite components): serve the plain
            // exact scan, which is trivially bit-identical to itself.
            return select_topk(&self.score_row(v), k);
        };
        let mut approx = vec![0.0; n_t];
        let mut margins = vec![0.0; n_t];
        for u in 0..n_t {
            approx[u] = quant.approx_dot(&q, u);
            margins[u] = quant.margin(&q, u);
        }
        // Certified superset of the exact top-k, ascending by id; exact
        // re-rank + select_topk then reproduces the full scan bit for bit
        // (compact indices preserve id order, so the ascending-id
        // tie-break carries through the remap).
        let shortlist = certified_shortlist(&approx, &margins, k.min(n_t));
        galign_quant::record_scan(n_t as u64, shortlist.len() as u64);
        let scores = self.exact_scores_for(v, &shortlist);
        select_topk(&scores, k)
            .into_iter()
            .map(|h| Hit {
                target: shortlist[h.target],
                score: h.score,
            })
            .collect()
    }

    /// Top-k for source `v` via a quantized first pass: scores every
    /// target through `quant`'s approximate kernel, shortlists the
    /// certified candidates, and re-ranks them through the exact f64
    /// kernel. Returns **bit-identical** hits to
    /// `select_topk(&self.score_row(v), k)` — the quantized pass only
    /// decides which rows the exact kernel touches.
    ///
    /// `quant` must cover the concatenated target rows of this panel
    /// (`num_targets()` rows of Σ layer-dims components).
    ///
    /// # Errors
    /// [`MatrixError::InvalidInput`] when the quantized panel's shape does
    /// not match the target panel.
    pub fn topk_row_quantized(
        &self,
        quant: &QuantizedPanel,
        v: usize,
        k: usize,
    ) -> Result<Vec<Hit>> {
        self.validate_quant(quant)?;
        Ok(self.topk_row_quantized_validated(quant, v, k))
    }
}

impl ScoreProvider for SimPanel<'_> {
    fn num_sources(&self) -> usize {
        self.source[0].rows()
    }

    fn num_targets(&self) -> usize {
        self.target[0].rows()
    }

    fn block_rows(&self) -> usize {
        self.block_rows
    }

    fn score_block(&self, rows: Range<usize>, out: &mut [f64]) {
        let n_t = self.num_targets();
        debug_assert!(rows.end <= self.num_sources());
        debug_assert_eq!(out.len(), rows.len() * n_t);
        out.fill(0.0);
        if galign_telemetry::metrics_enabled() {
            let d: usize = self
                .theta
                .iter()
                .zip(self.source)
                .filter(|(&w, _)| w != 0.0)
                .map(|(_, l)| l.cols())
                .sum();
            galign_telemetry::counter_add("simblock.flops", (2 * rows.len() * n_t * d) as u64);
        }
        for (l, &w) in self.theta.iter().enumerate() {
            if w == 0.0 {
                continue;
            }
            let s = &self.source[l];
            let t = &self.target[l];
            for (i, v) in rows.clone().enumerate() {
                let sv = s.row(v);
                let out_row = &mut out[i * n_t..(i + 1) * n_t];
                for (u, o) in out_row.iter_mut().enumerate() {
                    *o += w * dot(sv, t.row(u));
                }
            }
        }
    }
}

/// A *gathered* query-block panel: an arbitrary (possibly repeated,
/// unordered) set of source rows copied into one contiguous per-layer
/// stack and scored against the full target panel — the coalesced
/// serving-batch shape, where concurrent queries from many connections
/// execute as a single query-block × node-panel GEMM sweep instead of
/// one memory-bound row scan each.
///
/// Row `i` of the gathered panel is source node `rows[i]`; since
/// [`ScoreProvider::score_block`] accumulates each row independently
/// (layer-by-layer in index order, zero-weight layers skipped), a
/// gathered block scores **bit-identically** to scoring each row through
/// [`SimPanel`] on its own — the property the serving tier's batched
/// v2 path is tested against.
#[derive(Debug, Clone)]
pub struct GatheredPanel<'a> {
    gathered: Vec<Dense>,
    target: &'a [Dense],
    theta: &'a [f64],
    block_rows: usize,
}

impl<'a> GatheredPanel<'a> {
    /// Gathers `rows` of the source stack into a contiguous query block.
    ///
    /// # Errors
    /// Everything [`SimPanel::new`] rejects, plus
    /// [`MatrixError::InvalidInput`] for an out-of-range row.
    pub fn new(
        source: &[Dense],
        target: &'a [Dense],
        theta: &'a [f64],
        rows: &[usize],
    ) -> Result<Self> {
        // Same shape validation as the contiguous panel.
        SimPanel::new(source, target, theta)?;
        let n = source[0].rows();
        if let Some(&bad) = rows.iter().find(|&&v| v >= n) {
            return Err(MatrixError::InvalidInput(format!(
                "gathered row {bad} out of range (source has {n} rows)"
            )));
        }
        let gathered = source
            .iter()
            .map(|layer| {
                let mut data = Vec::with_capacity(rows.len() * layer.cols());
                for &v in rows {
                    data.extend_from_slice(layer.row(v));
                }
                Dense::from_vec(rows.len(), layer.cols(), data)
                    .expect("gathered rows keep the layer dimension")
            })
            .collect();
        Ok(GatheredPanel {
            gathered,
            target,
            theta,
            block_rows: DEFAULT_BLOCK_ROWS,
        })
    }

    /// Overrides the rows-per-block (clamped to ≥ 1).
    #[must_use]
    pub fn with_block_rows(mut self, rows: usize) -> Self {
        self.block_rows = rows.max(1);
        self
    }
}

impl ScoreProvider for GatheredPanel<'_> {
    fn num_sources(&self) -> usize {
        self.gathered[0].rows()
    }

    fn num_targets(&self) -> usize {
        self.target[0].rows()
    }

    fn block_rows(&self) -> usize {
        self.block_rows
    }

    fn score_block(&self, rows: Range<usize>, out: &mut [f64]) {
        // Identical accumulation order to `SimPanel::score_block`; the
        // gathered rows hold the same bytes as the original source rows,
        // so per-row results are bit-identical.
        let n_t = self.num_targets();
        debug_assert!(rows.end <= self.num_sources());
        debug_assert_eq!(out.len(), rows.len() * n_t);
        out.fill(0.0);
        if galign_telemetry::metrics_enabled() {
            let d: usize = self
                .theta
                .iter()
                .zip(&self.gathered)
                .filter(|(&w, _)| w != 0.0)
                .map(|(_, l)| l.cols())
                .sum();
            galign_telemetry::counter_add("simblock.flops", (2 * rows.len() * n_t * d) as u64);
        }
        for (l, &w) in self.theta.iter().enumerate() {
            if w == 0.0 {
                continue;
            }
            let s = &self.gathered[l];
            let t = &self.target[l];
            for (i, v) in rows.clone().enumerate() {
                let sv = s.row(v);
                let out_row = &mut out[i * n_t..(i + 1) * n_t];
                for (u, o) in out_row.iter_mut().enumerate() {
                    *o += w * dot(sv, t.row(u));
                }
            }
        }
    }
}

/// One scored alignment candidate (moved here from `galign-serve` so every
/// consumer shares the selection kernels).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// Target-network node id.
    pub target: usize,
    /// Aggregated alignment score.
    pub score: f64,
}

/// Heap-ordering wrapper: greater = better (higher score, then smaller
/// target id). `total_cmp` gives a total order even for NaN scores.
#[derive(Debug, PartialEq)]
struct Entry {
    score: f64,
    target: usize,
}

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.score
            .total_cmp(&other.score)
            .then_with(|| other.target.cmp(&self.target))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Partial selection: the `k` best scores (clamped to `scores.len()`),
/// best first, via a size-bounded min-heap (`O(n log k)`).
///
/// # Ordering contract
///
/// Results are sorted by **descending score**; equal scores order by
/// **ascending target id**. This tie-break is part of the public
/// contract, not an implementation accident: every consumer that must
/// agree with the exact engine result-for-result — gathered serving
/// batches, the serving cache, and the ANN engine's exact re-rank (which
/// feeds a candidate subset back through this function) — relies on
/// equal-score results coming back in one canonical order. `total_cmp`
/// extends the order to NaN scores, so selection is total on any input.
#[must_use]
pub fn select_topk(scores: &[f64], k: usize) -> Vec<Hit> {
    let k = k.min(scores.len());
    if k == 0 {
        return Vec::new();
    }
    let mut heap: BinaryHeap<Reverse<Entry>> = BinaryHeap::with_capacity(k + 1);
    for (target, &score) in scores.iter().enumerate() {
        heap.push(Reverse(Entry { score, target }));
        if heap.len() > k {
            heap.pop();
        }
    }
    heap.into_sorted_vec()
        .into_iter()
        .map(|Reverse(e)| Hit {
            target: e.target,
            score: e.score,
        })
        .collect()
}

/// Reference implementation: full sort, same ordering contract as
/// [`select_topk`]. Public so property tests and benches can share it.
#[must_use]
pub fn select_topk_bruteforce(scores: &[f64], k: usize) -> Vec<Hit> {
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then_with(|| a.cmp(&b)));
    idx.truncate(k);
    idx.into_iter()
        .map(|target| Hit {
            target,
            score: scores[target],
        })
        .collect()
}

fn block_ranges(n: usize, block: usize) -> Vec<Range<usize>> {
    let block = block.max(1);
    (0..n.div_ceil(block))
        .map(|b| b * block..((b + 1) * block).min(n))
        .collect()
}

/// Streams the provider block by block (parallel across blocks),
/// applying `reduce` to each scored block and returning the per-block
/// results in block order. The block buffer is the only allocation per
/// block — this is the memory contract every fused driver inherits.
pub fn map_blocks<T, F>(provider: &dyn ScoreProvider, reduce: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>, &[f64]) -> T + Sync,
{
    let n_t = provider.num_targets();
    let block = provider.block_rows().max(1);
    if galign_telemetry::metrics_enabled() {
        let peak = block.min(provider.num_sources().max(1)) * n_t;
        galign_telemetry::gauge_set("simblock.block_elems", peak as f64);
    }
    let blocks = block_ranges(provider.num_sources(), block);
    let workers = par::workers(provider.num_sources() * n_t);
    par::map(blocks.len(), workers, |b| {
        let rows = blocks[b].clone();
        if galign_telemetry::metrics_enabled() {
            galign_telemetry::counter_add("simblock.blocks", 1);
            galign_telemetry::counter_add("simblock.alloc.elems", (rows.len() * n_t) as u64);
        }
        let mut buf = vec![0.0; rows.len() * n_t];
        provider.score_block(rows.clone(), &mut buf);
        reduce(rows, &buf)
    })
}

/// Row argmax with the [`ScoreProvider::argmax`] contract: first
/// strictly-greater entry wins. Callers guarantee a non-empty row.
fn row_argmax(row: &[f64]) -> usize {
    let mut best: Option<(usize, f64)> = None;
    for (u, &s) in row.iter().enumerate() {
        if best.is_none_or(|(_, bs)| s > bs) {
            best = Some((u, s));
        }
    }
    best.expect("row_argmax on empty row").0
}

/// Fused top-1: `(v, argmax S(v, ·))` for every source node, computed
/// block-at-a-time. Empty when there are no targets.
pub fn top1(provider: &dyn ScoreProvider) -> Vec<(usize, usize)> {
    let n_t = provider.num_targets();
    if n_t == 0 {
        return Vec::new();
    }
    map_blocks(provider, |rows, buf| {
        rows.clone()
            .enumerate()
            .map(|(i, v)| (v, row_argmax(&buf[i * n_t..(i + 1) * n_t])))
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Fused top-k for every source node, best first per row.
pub fn topk(provider: &dyn ScoreProvider, k: usize) -> Vec<Vec<Hit>> {
    let n_t = provider.num_targets();
    map_blocks(provider, |rows, buf| {
        (0..rows.len())
            .map(|i| select_topk(&buf[i * n_t..(i + 1) * n_t], k))
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Fused top-k over **every** provider row with a per-row `k` — the
/// coalesced serving-batch reduction: one query-block × target-panel GEMM
/// sweep ([`map_blocks`], parallel across blocks) followed by
/// per-row bounded-heap selection with that row's own `k`. Pairs with
/// [`GatheredPanel`], whose row `i` is query `i` of the batch.
///
/// The caller's trace context (if any) is carried into the worker threads
/// so per-row `rows_scored` annotations land on the batch's trace.
///
/// # Panics
/// When `ks.len() != provider.num_sources()` — one `k` per provider row.
pub fn topk_rows_per_k(provider: &dyn ScoreProvider, ks: &[usize]) -> Vec<Vec<Hit>> {
    assert_eq!(
        ks.len(),
        provider.num_sources(),
        "one k per provider row required"
    );
    let n_t = provider.num_targets();
    let trace = galign_telemetry::PropagationHandle::capture();
    map_blocks(provider, |rows, buf| {
        trace.scope(|| {
            rows.clone()
                .enumerate()
                .map(|(i, v)| {
                    galign_telemetry::context::annotate("rows_scored", 1);
                    select_topk(&buf[i * n_t..(i + 1) * n_t], ks[v])
                })
                .collect::<Vec<_>>()
        })
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Fused greedy objective `g(S) = Σ_v max_u S(v, u)` (Algorithm 2's
/// tracking quantity). Non-finite row maxima are skipped.
pub fn greedy_objective(provider: &dyn ScoreProvider) -> f64 {
    let n_t = provider.num_targets();
    map_blocks(provider, |rows, buf| {
        (0..rows.len())
            .map(|i| {
                buf[i * n_t..(i + 1) * n_t]
                    .iter()
                    .copied()
                    .fold(f64::NEG_INFINITY, f64::max)
            })
            .filter(|m| m.is_finite())
            .sum::<f64>()
    })
    .into_iter()
    .sum()
}

/// Fused column argmax: for every target `u`, the `(source, score)` with
/// the highest `S(·, u)`. Ties break toward the smaller source id (blocks
/// are merged in row order). Scores start at `NEG_INFINITY`, so a column
/// of NaNs keeps source 0 — matching the historical sequential pass.
pub fn column_argmax(provider: &dyn ScoreProvider) -> Vec<(usize, f64)> {
    let n_t = provider.num_targets();
    let per_block = map_blocks(provider, |rows, buf| {
        let mut best = vec![(0usize, f64::NEG_INFINITY); n_t];
        for (i, v) in rows.clone().enumerate() {
            for (u, &s) in buf[i * n_t..(i + 1) * n_t].iter().enumerate() {
                if s > best[u].1 {
                    best[u] = (v, s);
                }
            }
        }
        best
    });
    let mut best = vec![(0usize, f64::NEG_INFINITY); n_t];
    for block in per_block {
        for (u, &(v, s)) in block.iter().enumerate() {
            if s > best[u].1 {
                best[u] = (v, s);
            }
        }
    }
    best
}

/// Materialises the full matrix through the blocked engine — `O(n₁ n₂)`
/// memory by definition; for tests, tooling and the few consumers that
/// genuinely need the dense matrix.
pub fn materialize(provider: &dyn ScoreProvider) -> Dense {
    let (n1, n2) = (provider.num_sources(), provider.num_targets());
    if n1 == 0 || n2 == 0 {
        return Dense::zeros(n1, n2);
    }
    if galign_telemetry::metrics_enabled() {
        galign_telemetry::counter_add("matrix.alloc.elems", (n1 * n2) as u64);
    }
    let block = provider.block_rows().max(1);
    let mut out = Dense::zeros(n1, n2);
    par::for_each(
        out.as_mut_slice().chunks_mut(block * n2).enumerate(),
        par::workers(n1 * n2),
        |(b, chunk)| {
            let start = b * block;
            let end = start + chunk.len() / n2;
            provider.score_block(start..end, chunk);
        },
    );
    out
}

/// Per-row, per-layer `(argmax, score)` pairs plus per-row aggregate
/// scores for one block of source rows.
type BlockLayerStats = (Vec<Vec<(usize, f64)>>, Vec<f64>);

/// Blocked per-row layer statistics for the refinement loop (Eq. 13):
/// `stats[v][l] = (argmax, max)` of the *layer-wise* matrix `S⁽ˡ⁾(v, ·)`,
/// plus the greedy aggregated score `g(S)` under `theta`.
///
/// Unlike the aggregated scorers above, zero-weight layers still contribute
/// their per-layer argmax (stability inspects every layer) and their
/// (zero) term to the aggregate — the historical semantics of the
/// refinement kernel, preserved bit for bit. Peak memory is two
/// `block_rows × n_dst` buffers instead of per-row temporaries.
///
/// # Panics
/// `debug_assert!`s that the two sides and `theta` agree on layer count.
pub fn layer_stats(
    source: &[Dense],
    target: &[Dense],
    theta: &[f64],
    block_rows: usize,
) -> (Vec<Vec<(usize, f64)>>, f64) {
    debug_assert_eq!(source.len(), target.len());
    debug_assert_eq!(source.len(), theta.len());
    let n_src = source.first().map_or(0, Dense::rows);
    let n_dst = target.first().map_or(0, Dense::rows);
    let layers = source.len();
    if n_src == 0 || n_dst == 0 {
        return (vec![Vec::new(); n_src], 0.0);
    }
    let block = block_rows.max(1);
    if galign_telemetry::metrics_enabled() {
        let peak = 2 * block.min(n_src) * n_dst;
        galign_telemetry::gauge_set("simblock.block_elems", peak as f64);
    }
    let blocks = block_ranges(n_src, block);
    let d: usize = source.iter().map(Dense::cols).sum();
    let workers = par::workers(n_src * n_dst * d.max(1));
    let per_block: Vec<BlockLayerStats> = par::map(blocks.len(), workers, |b| {
        let rows = blocks[b].clone();
        let len = rows.len();
        if galign_telemetry::metrics_enabled() {
            galign_telemetry::counter_add("simblock.blocks", 1);
            galign_telemetry::counter_add("simblock.alloc.elems", (2 * len * n_dst) as u64);
            galign_telemetry::counter_add("simblock.flops", (2 * len * n_dst * d) as u64);
        }
        let mut scratch = vec![0.0f64; len * n_dst];
        let mut agg = vec![0.0f64; len * n_dst];
        let mut stats = vec![Vec::with_capacity(layers); len];
        for l in 0..layers {
            let (s, t, w) = (&source[l], &target[l], theta[l]);
            for (i, v) in rows.clone().enumerate() {
                let sv = s.row(v);
                let srow = &mut scratch[i * n_dst..(i + 1) * n_dst];
                let mut best = (0usize, f64::NEG_INFINITY);
                for (u, sc) in srow.iter_mut().enumerate() {
                    *sc = dot(sv, t.row(u));
                    if *sc > best.1 {
                        best = (u, *sc);
                    }
                }
                stats[i].push(best);
                for (a, &sc) in agg[i * n_dst..(i + 1) * n_dst].iter_mut().zip(srow.iter()) {
                    *a += w * sc;
                }
            }
        }
        let row_g: Vec<f64> = (0..len)
            .map(|i| {
                agg[i * n_dst..(i + 1) * n_dst]
                    .iter()
                    .copied()
                    .fold(f64::NEG_INFINITY, f64::max)
            })
            .collect();
        (stats, row_g)
    });
    // Sum the per-row maxima sequentially in row order so g matches the
    // historical row-streamed accumulation exactly.
    let g_total = per_block
        .iter()
        .flat_map(|(_, gs)| gs.iter())
        .copied()
        .sum();
    let stats = per_block.into_iter().flat_map(|(s, _)| s).collect();
    (stats, g_total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeededRng;

    fn random_stack(rng: &mut SeededRng, rows: usize, dims: &[usize]) -> Vec<Dense> {
        dims.iter()
            .map(|&d| rng.uniform_matrix(rows, d, -1.0, 1.0).normalize_rows())
            .collect()
    }

    fn panel_case(seed: u64) -> (Vec<Dense>, Vec<Dense>, Vec<f64>) {
        let mut rng = SeededRng::new(seed);
        let dims = [4usize, 3];
        let source = random_stack(&mut rng, 23, &dims);
        let target = random_stack(&mut rng, 17, &dims);
        (source, target, vec![0.6, 0.4])
    }

    fn quant_panel(target: &[Dense], mode: galign_quant::QuantMode) -> QuantizedPanel {
        let n = target[0].rows();
        let dim: usize = target.iter().map(Dense::cols).sum();
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|u| {
                let mut r = Vec::with_capacity(dim);
                for t in target {
                    r.extend_from_slice(t.row(u));
                }
                r
            })
            .collect();
        QuantizedPanel::encode(mode, dim, &rows).unwrap()
    }

    fn assert_hits_bitwise(exact: &[Hit], fast: &[Hit], ctx: &str) {
        assert_eq!(exact.len(), fast.len(), "{ctx}: lengths");
        for (e, f) in exact.iter().zip(fast) {
            assert_eq!(e.target, f.target, "{ctx}: targets");
            assert_eq!(e.score.to_bits(), f.score.to_bits(), "{ctx}: score bits");
        }
    }

    #[test]
    fn quantized_topk_is_bit_identical_to_exact_scan() {
        let (source, target, theta) = panel_case(11);
        let panel = SimPanel::new(&source, &target, &theta).unwrap();
        for mode in [galign_quant::QuantMode::Int8, galign_quant::QuantMode::F16] {
            let quant = quant_panel(&target, mode);
            for k in [1usize, 3, 17, 40] {
                for v in 0..23 {
                    let exact = select_topk(&panel.score_row(v), k);
                    let fast = panel.topk_row_quantized(&quant, v, k).unwrap();
                    assert_hits_bitwise(&exact, &fast, &format!("{} k={k} v={v}", mode.name()));
                }
            }
        }
    }

    #[test]
    fn quantized_topk_handles_exact_ties_and_zero_weights() {
        let mut rng = SeededRng::new(29);
        let dims = [4usize, 3];
        let source = random_stack(&mut rng, 6, &dims);
        // 12 targets built from only 4 distinct row patterns → many scores
        // tie exactly; the tie-break (ascending target id) must survive the
        // quantized shortlist + re-rank remap.
        let distinct = random_stack(&mut rng, 4, &dims);
        let target: Vec<Dense> = distinct
            .iter()
            .map(|layer| {
                let rows: Vec<Vec<f64>> = (0..12).map(|u| layer.row(u % 4).to_vec()).collect();
                Dense::from_rows(&rows).unwrap()
            })
            .collect();
        for theta in [vec![0.5, 0.5], vec![1.0, 0.0], vec![0.0, -0.3]] {
            let panel = SimPanel::new(&source, &target, &theta).unwrap();
            for mode in [galign_quant::QuantMode::Int8, galign_quant::QuantMode::F16] {
                let quant = quant_panel(&target, mode);
                for k in [1usize, 2, 5, 12, 30] {
                    for v in 0..6 {
                        let exact = select_topk(&panel.score_row(v), k);
                        let fast = panel.topk_row_quantized(&quant, v, k).unwrap();
                        assert_hits_bitwise(
                            &exact,
                            &fast,
                            &format!("{} θ={theta:?} k={k} v={v}", mode.name()),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn quantized_topk_rejects_mismatched_panels() {
        let (source, target, theta) = panel_case(13);
        let panel = SimPanel::new(&source, &target, &theta).unwrap();
        // A panel over only the first layer has the wrong dim.
        let short = quant_panel(&target[..1], galign_quant::QuantMode::Int8);
        assert!(panel.topk_row_quantized(&short, 0, 3).is_err());
    }

    #[test]
    fn panel_validation() {
        let (source, target, theta) = panel_case(1);
        assert!(SimPanel::new(&source, &target, &theta).is_ok());
        assert!(SimPanel::new(&[], &[], &[]).is_err());
        assert!(SimPanel::new(&source, &target[..1], &theta).is_err());
        assert!(SimPanel::new(&source, &target, &theta[..1]).is_err());
        let bad_dim = vec![target[0].clone(), Dense::zeros(17, 9)];
        assert!(SimPanel::new(&source, &bad_dim, &theta).is_err());
        let bad_rows = vec![source[0].clone(), Dense::zeros(5, 3)];
        assert!(SimPanel::new(&bad_rows, &target, &theta).is_err());
    }

    #[test]
    fn blocked_matches_materialized_row_by_row() {
        let (source, target, theta) = panel_case(2);
        let panel = SimPanel::new(&source, &target, &theta)
            .unwrap()
            .with_block_rows(5);
        let full = materialize(&panel);
        for v in 0..23 {
            let row = panel.score_row(v);
            for u in 0..17 {
                assert_eq!(row[u].to_bits(), full.get(v, u).to_bits());
            }
        }
    }

    #[test]
    fn fused_reductions_match_materialized() {
        let (source, target, theta) = panel_case(3);
        for block in [1usize, 4, 7, 64] {
            let panel = SimPanel::new(&source, &target, &theta)
                .unwrap()
                .with_block_rows(block);
            let full = materialize(&panel);
            // top-1 against a dense row argmax.
            let anchors = top1(&panel);
            assert_eq!(anchors.len(), 23);
            for &(v, u) in &anchors {
                assert_eq!(u, full.row_argmax(v).unwrap().0, "block={block} v={v}");
            }
            // top-k (including k > n) against the brute-force sort.
            for k in [1usize, 3, 17, 40] {
                let hits = topk(&panel, k);
                for (v, row_hits) in hits.iter().enumerate() {
                    assert_eq!(row_hits, &select_topk_bruteforce(full.row(v), k));
                }
            }
            // Greedy objective against the dense row maxima.
            let dense_g: f64 = (0..23).map(|v| full.row_argmax(v).unwrap().1).sum();
            assert!((greedy_objective(&panel) - dense_g).abs() < 1e-12);
        }
    }

    #[test]
    fn column_argmax_prefers_smaller_source_on_ties() {
        // All rows identical: every column's best must be source 0.
        let layer = Dense::from_rows(&[vec![1.0, 0.0], vec![1.0, 0.0], vec![1.0, 0.0]]).unwrap();
        let t = Dense::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        let source = [layer];
        let target = [t];
        let panel = SimPanel::new(&source, &target, &[1.0])
            .unwrap()
            .with_block_rows(1);
        let best = column_argmax(&panel);
        assert_eq!(best.len(), 2);
        assert_eq!(best[0].0, 0);
        assert_eq!(best[1].0, 0);
        assert!((best[0].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gathered_panel_is_bit_identical_to_per_row_scoring() {
        let (source, target, theta) = panel_case(7);
        let panel = SimPanel::new(&source, &target, &theta).unwrap();
        // Repeated, unordered rows — the coalesced-batch shape.
        let rows = [5usize, 0, 22, 5, 13, 13, 1];
        for block in [1usize, 3, 64] {
            let gathered = GatheredPanel::new(&source, &target, &theta, &rows)
                .unwrap()
                .with_block_rows(block);
            assert_eq!(gathered.num_sources(), rows.len());
            for (i, &v) in rows.iter().enumerate() {
                let got = gathered.score_row(i);
                let want = panel.score_row(v);
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.to_bits(), w.to_bits(), "block={block} row={v}");
                }
            }
        }
        assert!(GatheredPanel::new(&source, &target, &theta, &[99]).is_err());
    }

    #[test]
    fn topk_rows_per_k_matches_single_row_selection() {
        let (source, target, theta) = panel_case(8);
        let panel = SimPanel::new(&source, &target, &theta).unwrap();
        let rows = [3usize, 3, 0, 22, 11];
        let ks = [1usize, 4, 2, 17, 40];
        let gathered = GatheredPanel::new(&source, &target, &theta, &rows)
            .unwrap()
            .with_block_rows(2);
        let batch = topk_rows_per_k(&gathered, &ks);
        assert_eq!(batch.len(), rows.len());
        for (i, (&v, &k)) in rows.iter().zip(&ks).enumerate() {
            let want = select_topk(&panel.score_row(v), k);
            assert_eq!(batch[i].len(), want.len());
            for (a, b) in batch[i].iter().zip(&want) {
                assert_eq!(a.target, b.target);
                assert_eq!(a.score.to_bits(), b.score.to_bits());
            }
        }
    }

    #[test]
    fn select_topk_ties_break_by_smaller_index() {
        let scores = [1.0, 3.0, 3.0, 0.5];
        let hits = select_topk(&scores, 2);
        assert_eq!(hits[0].target, 1);
        assert_eq!(hits[1].target, 2);
        assert_eq!(hits, select_topk_bruteforce(&scores, 2));
        assert!(select_topk(&[], 3).is_empty());
        assert!(select_topk(&[1.0], 0).is_empty());
    }

    #[test]
    fn select_topk_all_ties_return_ascending_ids() {
        // Regression for the ordering contract: with every score equal,
        // the heap's eviction order is the only thing deciding which ids
        // survive and how they sort — they must be 0..k ascending, for
        // every k, and identical to the brute-force reference. The ANN
        // re-rank path and the serving cache both assume this canonical
        // order for equal scores.
        let scores = vec![0.25f64; 9];
        for k in 0..=scores.len() + 2 {
            let hits = select_topk(&scores, k);
            let want: Vec<usize> = (0..k.min(scores.len())).collect();
            let got: Vec<usize> = hits.iter().map(|h| h.target).collect();
            assert_eq!(got, want, "k = {k}");
            assert!(hits.iter().all(|h| h.score == 0.25));
            assert_eq!(hits, select_topk_bruteforce(&scores, k), "k = {k}");
        }
        // Ties below a distinct maximum: the tied block still orders by
        // ascending id after the strictly-better hit.
        let scores = [0.5, 0.9, 0.5, 0.5];
        let got: Vec<usize> = select_topk(&scores, 3).iter().map(|h| h.target).collect();
        assert_eq!(got, vec![1, 0, 2]);
    }

    #[test]
    fn zero_theta_layers_are_skipped() {
        let (source, target, _) = panel_case(5);
        let panel = SimPanel::new(&source, &target, &[0.0, 0.0]).unwrap();
        assert!(panel.score_row(0).iter().all(|&s| s == 0.0));
    }

    #[test]
    fn layer_stats_matches_naive_reference() {
        let (source, target, theta) = panel_case(6);
        let (stats, g) = layer_stats(&source, &target, &theta, 4);
        assert_eq!(stats.len(), 23);
        // Naive reference: per-row, per-layer scan plus aggregated max.
        let mut g_ref = 0.0;
        for v in 0..23 {
            let mut agg = [0.0f64; 17];
            for (l, &w) in theta.iter().enumerate() {
                let sv = source[l].row(v);
                let mut best = (0usize, f64::NEG_INFINITY);
                for u in 0..17 {
                    let s = dot(sv, target[l].row(u));
                    if s > best.1 {
                        best = (u, s);
                    }
                    agg[u] += w * s;
                }
                assert_eq!(stats[v][l].0, best.0);
                assert_eq!(stats[v][l].1.to_bits(), best.1.to_bits());
            }
            g_ref += agg.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        }
        assert!((g - g_ref).abs() < 1e-12);
    }

    #[test]
    fn layer_stats_empty_sides() {
        let (stats, g) = layer_stats(&[Dense::zeros(0, 2)], &[Dense::zeros(0, 2)], &[1.0], 8);
        assert!(stats.is_empty());
        assert_eq!(g, 0.0);
    }

    #[test]
    fn rectangular_and_empty_targets() {
        let source = [Dense::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap()];
        let empty_t = [Dense::zeros(0, 2)];
        let panel = SimPanel::new(&source, &empty_t, &[1.0]).unwrap();
        assert!(top1(&panel).is_empty());
        assert!(topk(&panel, 3).iter().all(Vec::is_empty));
        assert_eq!(materialize(&panel).shape(), (2, 0));
    }
}
