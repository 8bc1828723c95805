//! ANN engine equivalence guarantees.
//!
//! The ANN engine is allowed to *miss* targets (that is what recall
//! measures) but never to *mis-score* one: every hit it returns is
//! re-ranked through the exact `select_topk` kernel, so its score must be
//! bit-identical to what the exact engine computes for the same
//! `(node, target)` pair. Two tests pin that contract:
//!
//! * a property test over random multi-order artifacts, both backends and
//!   random θ overrides, asserting bit-identical scores for every hit the
//!   engines share (and, stronger, against the full exact ranking);
//! * a recall floor — recall@10 ≥ 0.95 on a seeded clustered fixture of
//!   n = 2000 nodes with 64 concatenated dimensions (2 layers × 32),
//!   mirroring the shape of trained GAlign multi-order embeddings.

use std::collections::HashMap;

use galign_matrix::check::{cases, DEFAULT_CASES};
use galign_serve::artifact::{Artifact, Mat};
use galign_serve::topk::{Backend, EngineMode, Plan, QuantMode, RowQuery, TopkIndex};

/// xorshift64* — deterministic fixtures without external RNG deps.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in [-1, 1).
    fn signed_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

/// Random (unnormalized) layer matrices; `TopkIndex::from_artifact`
/// row-normalizes them, exactly as serving does for trained embeddings.
fn random_layers(rng: &mut Rng, n: usize, dims: &[usize]) -> Vec<Mat> {
    dims.iter()
        .map(|&d| {
            let data: Vec<f64> = (0..n * d).map(|_| rng.signed_unit()).collect();
            Mat::new(n, d, data).expect("shape by construction")
        })
        .collect()
}

/// Clustered layer matrices: `clusters` random centers, every node a
/// center plus bounded noise, cluster assignment shared across layers
/// (node identity, not the layer, decides the neighborhood — the shape
/// trained multi-order GCN embeddings take). Uniform random points in
/// d = 64 concentrate distances and carry no recoverable neighborhood
/// structure, which is the known worst case for any ANN method, so the
/// recall floor is pinned on data shaped like the actual workload.
fn clustered_layers(
    rng: &mut Rng,
    n: usize,
    dims: &[usize],
    clusters: usize,
    noise: f64,
) -> Vec<Mat> {
    let centers: Vec<Vec<Vec<f64>>> = dims
        .iter()
        .map(|&d| {
            (0..clusters)
                .map(|_| (0..d).map(|_| rng.signed_unit()).collect())
                .collect()
        })
        .collect();
    dims.iter()
        .enumerate()
        .map(|(l, &d)| {
            let mut data = Vec::with_capacity(n * d);
            for node in 0..n {
                let c = &centers[l][node % clusters];
                data.extend(c.iter().map(|&v| v + noise * rng.signed_unit()));
            }
            Mat::new(n, d, data).expect("shape by construction")
        })
        .collect()
}

fn backend_of(tag: u32) -> Backend {
    if tag == 0 {
        Backend::Hnsw
    } else {
        Backend::Ivf
    }
}

#[test]
fn prop_ann_hits_score_bit_identical_to_exact() {
    cases(DEFAULT_CASES, |rng| {
        let seed = rng.range(0..24) as u64;
        let n = rng.range(8..72);
        let k = rng.range(1..8);
        let backend_tag = rng.range(0..2) as u32;
        let mut rng = Rng::new(seed.wrapping_mul(0x9e37_79b9) + 1);
        let dims = [5usize, 3];
        let target = random_layers(&mut rng, n, &dims);
        let source = random_layers(&mut rng, n, &dims);
        let theta: Vec<f64> = (0..dims.len())
            .map(|_| 0.1 + 0.9 * (rng.signed_unit().abs()))
            .collect();
        let artifact =
            Artifact::new(vec![1.0, 1.0], source, target, false).expect("valid artifact");
        let mut index = TopkIndex::from_artifact(artifact);
        index
            .build_ann(backend_of(backend_tag))
            .expect("build succeeds");

        for node in [0, n / 2, n - 1] {
            // The full exact ranking: one canonical score per target.
            let exact_all = index
                .topk(&[RowQuery { node, k: n }], Some(&theta), Plan::EXACT)
                .expect("exact query")
                .remove(0)
                .0;
            let canonical: HashMap<usize, u64> = exact_all
                .iter()
                .map(|h| (h.target, h.score.to_bits()))
                .collect();
            let (ann, _used) = index
                .topk(
                    &[RowQuery { node, k }],
                    Some(&theta),
                    index.plan(EngineMode::Ann, QuantMode::Off),
                )
                .expect("ann query")
                .remove(0);
            assert!(ann.len() <= k);
            for h in &ann {
                // Bit-identical, not approximately equal: the ANN path
                // re-scores through the very same FP operation sequence.
                assert_eq!(h.score.to_bits(), canonical[&h.target]);
            }
            // Result order obeys the select_topk contract: descending
            // score, ties broken by ascending target id.
            for w in ann.windows(2) {
                assert!(
                    w[0].score > w[1].score
                        || (w[0].score == w[1].score && w[0].target < w[1].target),
                    "order violated: {:?} before {:?}",
                    w[0],
                    w[1]
                );
            }
        }
    });
}

#[test]
fn recall_at_10_meets_floor_on_seeded_multiorder_embeddings() {
    const N: usize = 2000;
    const K: usize = 10;
    const QUERIES: usize = 100;
    const CLUSTERS: usize = 40;
    const NOISE: f64 = 0.25;
    const DIMS: [usize; 2] = [32, 32]; // 64 concatenated dims

    let mut rng = Rng::new(0xa11e_2000);
    let target = clustered_layers(&mut rng, N, &DIMS, CLUSTERS, NOISE);
    // Sources sit near the targets (aligned networks produce nearby
    // multi-order embeddings), so the exact top-10 is a meaningful
    // neighborhood rather than an arbitrary cut of a flat ranking.
    let source: Vec<Mat> = target
        .iter()
        .map(|m| {
            let (rows, cols) = (m.rows(), m.cols());
            let data: Vec<f64> = (0..rows)
                .flat_map(|r| {
                    m.row(r)
                        .iter()
                        .map(|&v| v + 0.05 * rng.signed_unit())
                        .collect::<Vec<_>>()
                })
                .collect();
            Mat::new(rows, cols, data).expect("shape preserved")
        })
        .collect();

    for backend in [Backend::Hnsw, Backend::Ivf] {
        let artifact = Artifact::new(vec![1.0, 1.0], source.clone(), target.clone(), false)
            .expect("valid artifact");
        let mut index = TopkIndex::from_artifact(artifact);
        index.build_ann(backend).expect("build succeeds");

        let mut found = 0usize;
        let mut total = 0usize;
        for q in 0..QUERIES {
            let node = q * (N / QUERIES);
            let exact = index
                .topk(&[RowQuery { node, k: K }], None, Plan::EXACT)
                .expect("exact query")
                .remove(0)
                .0;
            let (ann, _) = index
                .topk(
                    &[RowQuery { node, k: K }],
                    None,
                    index.plan(EngineMode::Ann, QuantMode::Off),
                )
                .expect("ann query")
                .remove(0);
            let truth: Vec<usize> = exact.iter().map(|h| h.target).collect();
            found += ann.iter().filter(|h| truth.contains(&h.target)).count();
            total += exact.len();
        }
        let recall = found as f64 / total as f64;
        assert!(
            recall >= 0.95,
            "{backend}: recall@{K} = {recall:.4} below the 0.95 floor"
        );
    }
}
