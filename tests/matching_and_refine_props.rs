//! Property tests of the alignment-instantiation policies and the
//! refinement stage's invariants, run through the public API.

use galign_suite::galign::alignment::{AlignmentMatrix, LayerSelection};
use galign_suite::galign::matching;
use galign_suite::galign::refine::{refine, RefineConfig};
use galign_suite::gcn::{train_multi_order, GcnModel, TrainConfig};
use galign_suite::graph::{generators, AttributedGraph};
use galign_suite::matrix::check::cases;
use galign_suite::matrix::rng::SeededRng;
use galign_suite::matrix::simblock;
use galign_suite::matrix::Dense;
use galign_suite::metrics::DenseScores;

fn random_scores(seed: u64, n1: usize, n2: usize) -> DenseScores {
    let mut rng = SeededRng::new(seed);
    DenseScores::new(rng.uniform_matrix(n1, n2, -1.0, 1.0))
}

/// Greedy injective matching never reuses a node on either side and
/// matches exactly min(n1, n2) pairs.
#[test]
fn greedy_matching_is_injective() {
    cases(25, |rng| {
        let seed = rng.range(0..500) as u64;
        let n1 = rng.range(1..15);
        let n2 = rng.range(1..15);
        let s = random_scores(seed, n1, n2);
        let m = matching::greedy_injective(&s);
        assert_eq!(m.len(), n1.min(n2));
        let mut src: Vec<usize> = m.iter().map(|&(v, _)| v).collect();
        let mut tgt: Vec<usize> = m.iter().map(|&(_, u)| u).collect();
        src.sort_unstable();
        src.dedup();
        tgt.sort_unstable();
        tgt.dedup();
        assert_eq!(src.len(), m.len());
        assert_eq!(tgt.len(), m.len());
    });
}

/// Mutual-best pairs are a subset of top-1 pairs, and pairwise
/// injective by construction.
#[test]
fn mutual_best_subset_of_top1() {
    cases(25, |rng| {
        let seed = rng.range(0..500) as u64;
        let n = rng.range(2..12);
        let s = random_scores(seed, n, n);
        let top1: std::collections::HashSet<(usize, usize)> =
            matching::top1(&s).into_iter().collect();
        let mutual = matching::mutual_best(&s);
        for p in &mutual {
            assert!(top1.contains(p));
        }
        let mut tgts: Vec<usize> = mutual.iter().map(|&(_, u)| u).collect();
        tgts.sort_unstable();
        tgts.dedup();
        assert_eq!(tgts.len(), mutual.len());
    });
}

/// One-to-many with zero margin returns exactly the argmax set (all
/// ties included), and a larger margin never shrinks any match set.
#[test]
fn one_to_many_monotone_in_margin() {
    cases(25, |rng| {
        let seed = rng.range(0..300) as u64;
        let n = rng.range(2..10);
        let s = random_scores(seed, n, n);
        let tight = matching::one_to_many(&s, 0.0, f64::NEG_INFINITY);
        let loose = matching::one_to_many(&s, 0.5, f64::NEG_INFINITY);
        for ((v1, m1), (v2, m2)) in tight.iter().zip(&loose) {
            assert_eq!(v1, v2);
            assert!(m1.len() <= m2.len());
            for u in m1 {
                assert!(m2.contains(u));
            }
        }
    });
}

/// Normalised alignment scores are cosine similarities: |S(v,u)| ≤ Σθ.
#[test]
fn alignment_scores_are_bounded() {
    cases(25, |rng| {
        let seed = rng.range(0..200) as u64;
        let mut rng = SeededRng::new(seed);
        let layers_s = vec![
            rng.uniform_matrix(6, 3, -2.0, 2.0),
            rng.uniform_matrix(6, 4, -2.0, 2.0),
        ];
        let layers_t = vec![
            rng.uniform_matrix(5, 3, -2.0, 2.0),
            rng.uniform_matrix(5, 4, -2.0, 2.0),
        ];
        let s = galign_suite::gcn::MultiOrderEmbedding::from_layers(layers_s);
        let t = galign_suite::gcn::MultiOrderEmbedding::from_layers(layers_t);
        let am = AlignmentMatrix::new(&s, &t, LayerSelection::uniform(2)).unwrap();
        for v in 0..6 {
            for sc in galign_suite::metrics::ScoreProvider::score_row(&am, v) {
                assert!(sc.abs() <= 1.0 + 1e-9);
            }
        }
    });
}

/// With λ above the cosine ceiling no node is ever stable, so α stays 1,
/// the operator stays `C`, and every refinement iterate equals the initial
/// embeddings.
#[test]
fn refinement_with_impossible_lambda_is_identity() {
    let mut rng = SeededRng::new(1);
    let edges = generators::barabasi_albert(&mut rng, 25, 3);
    let attrs = generators::binary_attributes(&mut rng, 25, 6, 2);
    let g = AttributedGraph::from_edges(25, &edges, attrs);
    let cfg = TrainConfig {
        layer_dims: vec![5, 5],
        epochs: 5,
        num_augments: 0,
        gamma: 1.0,
        ..TrainConfig::default()
    };
    let trained = train_multi_order(&g, &g, &cfg, &mut rng);
    let refine_cfg = RefineConfig {
        iterations: 3,
        lambda: 2.0, // cosine scores can never exceed 1
        ..RefineConfig::default()
    };
    let outcome = refine(
        &trained.model,
        &g,
        &g,
        &trained.source,
        &trained.target,
        &LayerSelection::uniform(3),
        &refine_cfg,
    );
    for (s_count, t_count) in &outcome.stable_history {
        assert_eq!((*s_count, *t_count), (0, 0));
    }
    for l in 0..=2 {
        assert!(outcome
            .source
            .layer(l)
            .approx_eq(trained.source.layer(l), 1e-12));
    }
}

/// Aligning a graph with itself using an untrained (random-weight) model
/// still scores the identity pair maximally at every layer — a direct
/// consequence of Prop. 2 exercised through the alignment stage.
#[test]
fn self_alignment_diagonal_dominates_with_random_weights() {
    let mut rng = SeededRng::new(2);
    let edges = generators::erdos_renyi_gnm(&mut rng, 20, 50);
    let attrs = generators::binary_attributes(&mut rng, 20, 8, 2);
    let g = AttributedGraph::from_edges(20, &edges, attrs);
    let model = GcnModel::new(&mut rng, 8, &[6, 6]);
    let emb = model.forward(&g);
    let am = AlignmentMatrix::new(&emb, &emb, LayerSelection::uniform(3)).unwrap();
    let m: Dense = simblock::materialize(&am);
    for v in 0..20 {
        let (arg, _) = m.row_argmax(v).unwrap();
        assert_eq!(arg, v, "node {v} should match itself");
    }
}
