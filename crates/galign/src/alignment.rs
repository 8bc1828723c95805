//! Alignment instantiation (§VI-A): layer-wise alignment matrices (Eq. 11)
//! fused by layer-importance weights into the aggregated matrix (Eq. 12).
//!
//! The aggregated matrix is exposed as a blocked
//! [`ScoreProvider`] over the shared streaming engine in
//! [`galign_matrix::simblock`]; consumers reduce it block-at-a-time in
//! `O(block · n)` memory, matching the §VI-C space analysis. The full
//! `n₁×n₂` matrix is only materialised on request, through
//! [`galign_matrix::simblock::materialize`].

use crate::error::{GAlignError, Result};
use galign_gcn::MultiOrderEmbedding;
use galign_matrix::dense::dot;
use galign_matrix::simblock::{self, ScoreProvider, SimPanel};
use std::ops::Range;

/// Which layers participate in the alignment matrix and with what weight.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSelection {
    /// θ⁽ˡ⁾ for `l = 0..=k`; need not be normalised.
    pub theta: Vec<f64>,
}

impl LayerSelection {
    /// Equal weights `θ⁽ˡ⁾ = 1/(k+1)` over all `k+1` layers — the paper's
    /// default (§VII-A).
    pub fn uniform(num_layers_incl_attrs: usize) -> Self {
        let w = 1.0 / num_layers_incl_attrs.max(1) as f64;
        LayerSelection {
            theta: vec![w; num_layers_incl_attrs],
        }
    }

    /// Only layer `l` participates (the single-order baselines of Fig. 6 /
    /// Table V and the GAlign-3 ablation).
    pub fn single(l: usize, num_layers_incl_attrs: usize) -> Self {
        let mut theta = vec![0.0; num_layers_incl_attrs];
        theta[l] = 1.0;
        LayerSelection { theta }
    }

    /// Explicit weights (Table V's sweep).
    pub fn weighted(theta: Vec<f64>) -> Self {
        LayerSelection { theta }
    }

    /// Number of weighted layers (including the attribute layer 0).
    pub fn len(&self) -> usize {
        self.theta.len()
    }

    /// True when no layers are selected.
    pub fn is_empty(&self) -> bool {
        self.theta.is_empty()
    }
}

/// The aggregated alignment matrix `S = Σ_l θ⁽ˡ⁾ H_s⁽ˡ⁾ H_t⁽ˡ⁾ᵀ`
/// (Eq. 11–12) over row-normalised embeddings.
#[derive(Debug, Clone)]
pub struct AlignmentMatrix {
    source: MultiOrderEmbedding,
    target: MultiOrderEmbedding,
    selection: LayerSelection,
}

impl AlignmentMatrix {
    /// Builds the alignment view. Embeddings are row-L2-normalised here so
    /// every layer contributes cosine similarities (DESIGN.md §4.2).
    ///
    /// # Errors
    /// [`GAlignError::LayerMismatch`] when the two sides disagree on layer
    /// count, [`GAlignError::ThetaLength`] when the selection length does
    /// not match the layer count.
    pub fn new(
        source: &MultiOrderEmbedding,
        target: &MultiOrderEmbedding,
        selection: LayerSelection,
    ) -> Result<Self> {
        if source.layers().len() != target.layers().len() {
            return Err(GAlignError::LayerMismatch {
                source: source.layers().len(),
                target: target.layers().len(),
            });
        }
        if selection.len() != source.layers().len() {
            return Err(GAlignError::ThetaLength {
                got: selection.len(),
                want: source.layers().len(),
            });
        }
        Ok(AlignmentMatrix {
            source: source.normalized(),
            target: target.normalized(),
            selection,
        })
    }

    /// Layer weights in use.
    pub fn selection(&self) -> &LayerSelection {
        &self.selection
    }

    /// The shared blocked scoring panel over this alignment's layers.
    /// Shapes were validated in [`AlignmentMatrix::new`], so construction
    /// cannot fail here.
    fn panel(&self) -> SimPanel<'_> {
        SimPanel::new(
            self.source.layers(),
            self.target.layers(),
            &self.selection.theta,
        )
        .expect("alignment shapes validated at construction")
    }

    /// Alignment scores of source `v` at a single layer `l` (Eq. 11,
    /// one row).
    pub fn layer_score_row(&self, l: usize, v: usize) -> Vec<f64> {
        let sv = self.source.layer(l).row(v);
        let t = self.target.layer(l);
        (0..t.rows()).map(|u| dot(sv, t.row(u))).collect()
    }

    /// Greedy top-1 anchors: for each source node the best-scoring target
    /// (the paper's one-to-one instantiation rule, §VI-A), computed by the
    /// blocked engine without materialising `S`.
    pub fn top1_anchors(&self) -> Vec<(usize, usize)> {
        simblock::top1(self)
    }

    /// The greedy objective `g(S) = Σ_v max_u S(v, u)` that Algorithm 2
    /// tracks during refinement.
    pub fn greedy_score(&self) -> f64 {
        simblock::greedy_objective(self)
    }

    /// Access to the (normalised) source embeddings.
    pub fn source(&self) -> &MultiOrderEmbedding {
        &self.source
    }

    /// Access to the (normalised) target embeddings.
    pub fn target(&self) -> &MultiOrderEmbedding {
        &self.target
    }
}

impl ScoreProvider for AlignmentMatrix {
    fn num_sources(&self) -> usize {
        self.source.node_count()
    }

    fn num_targets(&self) -> usize {
        self.target.node_count()
    }

    fn score_block(&self, rows: Range<usize>, out: &mut [f64]) {
        self.panel().score_block(rows, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galign_matrix::Dense;

    fn emb(rows: &[&[f64]]) -> MultiOrderEmbedding {
        let m = Dense::from_rows(&rows.iter().map(|r| r.to_vec()).collect::<Vec<_>>()).unwrap();
        MultiOrderEmbedding::from_layers(vec![m.clone(), m])
    }

    #[test]
    fn selection_constructors() {
        let u = LayerSelection::uniform(3);
        assert_eq!(u.theta, vec![1.0 / 3.0; 3]);
        let s = LayerSelection::single(1, 3);
        assert_eq!(s.theta, vec![0.0, 1.0, 0.0]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
    }

    #[test]
    fn identical_embeddings_score_diagonal_highest() {
        let e = emb(&[&[1.0, 0.0], &[0.0, 1.0], &[0.7, 0.7]]);
        let a = AlignmentMatrix::new(&e, &e, LayerSelection::uniform(2)).unwrap();
        let anchors = a.top1_anchors();
        assert_eq!(anchors, vec![(0, 0), (1, 1), (2, 2)]);
        // Diagonal of the materialised matrix is 1 (cosine of identical rows).
        let m = simblock::materialize(&a);
        for i in 0..3 {
            assert!((m.get(i, i) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn score_row_matches_materialize() {
        let s = emb(&[&[1.0, 2.0], &[3.0, -1.0]]);
        let t = emb(&[&[0.5, 0.5], &[-1.0, 2.0], &[2.0, 0.1]]);
        let a = AlignmentMatrix::new(&s, &t, LayerSelection::weighted(vec![0.3, 0.7])).unwrap();
        let m = simblock::materialize(&a);
        for v in 0..2 {
            let row = a.score_row(v);
            for u in 0..3 {
                assert!((row[u] - m.get(v, u)).abs() < 1e-12);
            }
        }
        assert_eq!(a.num_sources(), 2);
        assert_eq!(a.num_targets(), 3);
    }

    #[test]
    fn single_layer_selection_uses_only_that_layer() {
        let l0 = Dense::from_rows(&[vec![1.0, 0.0]]).unwrap();
        let l1 = Dense::from_rows(&[vec![0.0, 1.0]]).unwrap();
        let s = MultiOrderEmbedding::from_layers(vec![l0.clone(), l1.clone()]);
        let t = MultiOrderEmbedding::from_layers(vec![l0, l1]);
        let a0 = AlignmentMatrix::new(&s, &t, LayerSelection::single(0, 2)).unwrap();
        let a1 = AlignmentMatrix::new(&s, &t, LayerSelection::single(1, 2)).unwrap();
        assert!((a0.score_row(0)[0] - 1.0).abs() < 1e-12);
        assert!((a1.score_row(0)[0] - 1.0).abs() < 1e-12);
        // Cross-check layer_score_row.
        assert!((a0.layer_score_row(0, 0)[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn greedy_score_sums_row_maxima() {
        let e = emb(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let a = AlignmentMatrix::new(&e, &e, LayerSelection::uniform(2)).unwrap();
        assert!((a.greedy_score() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn selection_length_is_an_error_not_a_panic() {
        let e = emb(&[&[1.0, 0.0]]);
        let err = AlignmentMatrix::new(&e, &e, LayerSelection::uniform(5)).unwrap_err();
        assert!(matches!(err, GAlignError::ThetaLength { got: 5, want: 2 }));
        assert!(err.to_string().contains("theta has 5"));
    }
}
