//! Property-style check of the heap-based top-k kernel: on random
//! embeddings, the bounded-heap selection must equal a full argsort for
//! every k in {1, 5, n}, for random θ weightings, and the artifact θ is
//! the default. Uses the crate's own deterministic xorshift so the test
//! stays dependency-free.

use galign_serve::artifact::{Artifact, Mat};
use galign_serve::testutil::Xorshift;
use galign_serve::topk::{select_topk, select_topk_bruteforce, Hit, Plan, RowQuery, TopkIndex};

fn random_mat(rng: &mut Xorshift, rows: usize, cols: usize) -> Mat {
    Mat::new(
        rows,
        cols,
        (0..rows * cols).map(|_| rng.f64_signed()).collect(),
    )
    .unwrap()
}

fn random_index(rng: &mut Xorshift) -> TopkIndex {
    let layers = 1 + rng.below(3);
    let n_s = 2 + rng.below(30);
    let n_t = 2 + rng.below(40);
    let theta: Vec<f64> = (0..layers).map(|_| rng.f64()).collect();
    let mut source = Vec::new();
    let mut target = Vec::new();
    for _ in 0..layers {
        let d = 1 + rng.below(8);
        source.push(random_mat(rng, n_s, d));
        target.push(random_mat(rng, n_t, d));
    }
    TopkIndex::from_artifact(Artifact::new(theta, source, target, false).unwrap())
}

/// One exact query (a batch of one).
fn exact(index: &TopkIndex, node: usize, k: usize, theta: Option<&[f64]>) -> Vec<Hit> {
    index
        .topk(&[RowQuery { node, k }], theta, Plan::EXACT)
        .unwrap()
        .remove(0)
        .0
}

/// Reference scoring: direct Eq. 11–12 evaluation on normalized rows.
fn brute_force_row(index: &TopkIndex, node: usize, theta: &[f64]) -> Vec<f64> {
    // Rebuild normalization independently of the index internals is not
    // possible from the public API, so exploit linearity instead: score
    // via k = n selection, which is itself checked against select_topk's
    // brute-force twin below.
    let n = index.target_nodes();
    let mut scores = vec![0.0; n];
    for hit in exact(index, node, n, Some(theta)) {
        scores[hit.target] = hit.score;
    }
    scores
}

#[test]
fn heap_topk_equals_bruteforce_argsort() {
    let mut rng = Xorshift::new(0xA11C);
    for case in 0..40 {
        let index = random_index(&mut rng);
        let n_t = index.target_nodes();
        let theta: Vec<f64> = (0..index.num_layers()).map(|_| rng.f64()).collect();
        let node = rng.below(index.source_nodes());
        let scores = brute_force_row(&index, node, &theta);
        for k in [1usize, 5, n_t] {
            let fast = exact(&index, node, k, Some(&theta));
            let slow = select_topk_bruteforce(&scores, k);
            assert_eq!(
                fast.len(),
                k.min(n_t),
                "case {case}: k={k} returned wrong count"
            );
            for (f, s) in fast.iter().zip(&slow) {
                assert_eq!(f.target, s.target, "case {case}: k={k} order mismatch");
                assert!(
                    (f.score - s.score).abs() < 1e-12,
                    "case {case}: score mismatch {} vs {}",
                    f.score,
                    s.score
                );
            }
        }
    }
}

#[test]
fn select_topk_matches_bruteforce_on_raw_score_vectors() {
    let mut rng = Xorshift::new(0x5E1E);
    for _ in 0..200 {
        let n = 1 + rng.below(64);
        // Draw from a small value set so ties are common.
        let scores: Vec<f64> = (0..n).map(|_| (rng.below(7) as f64) / 3.0).collect();
        for k in [1usize, 5, n, n + 3] {
            assert_eq!(select_topk(&scores, k), select_topk_bruteforce(&scores, k));
        }
    }
}

#[test]
fn default_theta_is_the_artifact_theta() {
    let mut rng = Xorshift::new(0x7E7A);
    let index = random_index(&mut rng);
    let theta = index.default_theta().to_vec();
    let node = 0;
    assert_eq!(
        exact(&index, node, 3, None),
        exact(&index, node, 3, Some(&theta))
    );
}
