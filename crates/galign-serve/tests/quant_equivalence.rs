//! Quantized serving equivalence guarantees.
//!
//! Quantization changes *where the first pass reads*, never *what the
//! response says*: a quantized exact scan shortlists candidates on the
//! int8/f16 panel with a certified error margin and re-ranks the
//! shortlist through the very same `select_topk` kernel (candidates fed
//! in ascending target-id order, so tie-breaks are preserved), and ANN
//! traversal over quantized rows re-ranks its hits exactly. Three
//! properties pin the contract, mirroring `ann_equivalence.rs`:
//!
//! * encode/decode round trip: every dequantized component sits within
//!   `scale/2` of its source (the int8 nearest-rounding bound; f16 is far
//!   tighter), over random rows *including heavily tied ones*;
//! * exact-engine bit identity: against one served artifact, a quantized
//!   query returns byte-for-byte the hits of a `quant: off` query, across
//!   sidecar and quant-primary artifacts, both encodings, random tied
//!   embeddings, and `k > n`; ANN/auto hits score bit-identically to the
//!   canonical exact ranking even when traversal visits other candidates;
//! * a recall floor — recall@10 ≥ 0.95 under quantized ANN traversal on
//!   the same seeded clustered fixture `ann_equivalence.rs` pins
//!   (n = 2000, 2 layers × 32 dims), for both backends and encodings.

use galign_matrix::check::{cases, DEFAULT_CASES};
use galign_quant::QuantizedPanel;
use galign_serve::artifact::{Artifact, Mat};
use galign_serve::topk::{Backend, EngineMode, Plan, QuantMode, RowQuery, TopkIndex};
use std::collections::HashMap;

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

    /// A value from a coarse 5-point grid. Rows built from these collide
    /// constantly, producing the score ties that stress the ascending-id
    /// tie-break through the quantized shortlist.
    fn tied_unit(&mut self) -> f64 {
        [-1.0, -0.5, 0.0, 0.5, 1.0][(self.next_u64() % 5) as usize]
    }
}

/// Random layer matrices; `tied` draws every component from a 5-point
/// grid so many targets score exactly equal.
fn random_layers(rng: &mut Rng, n: usize, dims: &[usize], tied: bool) -> Vec<Mat> {
    dims.iter()
        .map(|&d| {
            let data: Vec<f64> = (0..n * d)
                .map(|_| {
                    if tied {
                        rng.tied_unit()
                    } else {
                        rng.signed_unit()
                    }
                })
                .collect();
            Mat::new(n, d, data).expect("shape by construction")
        })
        .collect()
}

/// Clustered layer matrices, same construction as `ann_equivalence.rs`:
/// shared cluster assignment across layers, bounded noise per node.
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

fn quant_of(tag: u32) -> QuantMode {
    if tag == 0 {
        QuantMode::Int8
    } else {
        QuantMode::F16
    }
}

fn mode_of(tag: u32) -> EngineMode {
    match tag {
        0 => EngineMode::Exact,
        1 => EngineMode::Ann,
        _ => EngineMode::Auto,
    }
}

/// Encode → decode keeps every component within `scale/2` of its
/// source. `scale/2` is exact for int8 nearest rounding in real
/// arithmetic; a few ulps of fp slop are allowed. Tied rows (many
/// repeated components, rows of all zeros possible) ride along.
#[test]
fn prop_round_trip_error_bounded_by_half_scale() {
    cases(DEFAULT_CASES, |rng| {
        let seed = rng.range(0..48) as u64;
        let n = rng.range(1..40);
        let dim = rng.range(1..24);
        let quant_tag = rng.range(0..2) as u32;
        let tied_tag = rng.range(0..2) as u32;
        let tied = tied_tag == 1;
        let mut rng = Rng::new(seed.wrapping_mul(0x9e37_79b9) + 1);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                (0..dim)
                    .map(|_| {
                        if tied {
                            rng.tied_unit()
                        } else {
                            rng.signed_unit()
                        }
                    })
                    .collect()
            })
            .collect();
        let mode = quant_of(quant_tag)
            .panel_mode()
            .expect("int8/f16 map to a panel encoding");
        let panel = QuantizedPanel::encode(mode, dim, &rows).expect("finite rows encode");
        let mut buf = vec![0.0; dim];
        for (i, row) in rows.iter().enumerate() {
            panel.dequantize_row(i, &mut buf);
            let bound = panel.scale(i) * 0.5 * (1.0 + 1e-9) + 1e-300;
            for (x, y) in row.iter().zip(&buf) {
                assert!(
                    (x - y).abs() <= bound,
                    "{} row {i}: |{x} - {y}| > scale/2 = {bound}",
                    mode.name()
                );
            }
        }
    });
}

/// One served artifact, two requests differing only in `quant`: the
/// responses must be byte-identical. Exact engine: full hit-list
/// equality (targets and score bits), including `k > n` clamping and
/// grid-tied embeddings. ANN/auto: quantized traversal may shortlist
/// *different* candidates, so the assertion is the re-rank contract —
/// every returned score is bit-identical to the canonical exact score
/// of its `(node, target)` pair, and ordering obeys `select_topk`
/// (descending score, ties by ascending target id).
#[test]
fn prop_quantized_results_bit_identical_to_f64() {
    cases(DEFAULT_CASES, |rng| {
        let seed = rng.range(0..24) as u64;
        let n = rng.range(8..56);
        let k = rng.range(1..96); // frequently exceeds n: k is clamped to the target count
        let quant_tag = rng.range(0..2) as u32;
        let mode_tag = rng.range(0..3) as u32;
        let keep_tag = rng.range(0..2) as u32;
        let tied_tag = rng.range(0..2) as u32;
        let (keep_f64, tied) = (keep_tag == 1, tied_tag == 1);
        let mut rng = Rng::new(seed.wrapping_mul(0x9e37_79b9) + 1);
        let dims = [5usize, 3];
        let target = random_layers(&mut rng, n, &dims, tied);
        let source = random_layers(&mut rng, n, &dims, tied);
        let theta: Vec<f64> = (0..dims.len())
            .map(|_| 0.1 + 0.9 * (rng.signed_unit().abs()))
            .collect();
        let quant = quant_of(quant_tag);
        let engine = mode_of(mode_tag);
        let artifact = Artifact::new(vec![1.0, 1.0], source, target, false)
            .expect("valid artifact")
            .with_quant(quant.panel_mode().expect("panel encoding"), keep_f64)
            .expect("quantization succeeds on finite layers");
        let mut index = TopkIndex::from_artifact(artifact);
        index.build_ann(Backend::Hnsw).expect("build succeeds");
        // Drop the auto threshold so `auto` really routes through ANN.
        index.set_auto_threshold(0);
        assert_eq!(index.quant_available(), Some(quant));

        for node in [0, n / 2, n - 1] {
            let exact_all = index
                .topk(&[RowQuery { node, k: n }], Some(&theta), Plan::EXACT)
                .expect("exact query")
                .remove(0)
                .0;
            let canonical: HashMap<usize, u64> = exact_all
                .iter()
                .map(|h| (h.target, h.score.to_bits()))
                .collect();
            let (plain, _) = index
                .topk(
                    &[RowQuery { node, k }],
                    Some(&theta),
                    index.plan(engine, QuantMode::Off),
                )
                .expect("f64 query")
                .remove(0);
            let (quantized, _) = index
                .topk(
                    &[RowQuery { node, k }],
                    Some(&theta),
                    index.plan(engine, quant),
                )
                .expect("quantized query")
                .remove(0);
            assert!(quantized.len() <= k.min(n));
            if engine == EngineMode::Exact {
                // The certified shortlist makes the quantized exact scan
                // *byte-identical*, not merely score-identical.
                assert_eq!(plain.len(), quantized.len());
                for (p, q) in plain.iter().zip(&quantized) {
                    assert_eq!(p.target, q.target);
                    assert_eq!(p.score.to_bits(), q.score.to_bits());
                }
            }
            for h in &quantized {
                assert_eq!(h.score.to_bits(), canonical[&h.target]);
            }
            for w in quantized.windows(2) {
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
fn recall_at_10_meets_floor_under_quantized_traversal() {
    const N: usize = 2000;
    const K: usize = 10;
    const QUERIES: usize = 100;
    const CLUSTERS: usize = 40;
    const NOISE: f64 = 0.25;
    const DIMS: [usize; 2] = [32, 32]; // 64 concatenated dims

    let mut rng = Rng::new(0xa11e_2000);
    let target = clustered_layers(&mut rng, N, &DIMS, CLUSTERS, NOISE);
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
        for quant in [QuantMode::Int8, QuantMode::F16] {
            // Sidecar mode: keep the f64 rows so "exact" truth is scored
            // on the same values the ANN engine re-ranks against.
            let artifact = Artifact::new(vec![1.0, 1.0], source.clone(), target.clone(), false)
                .expect("valid artifact")
                .with_quant(quant.panel_mode().expect("panel encoding"), true)
                .expect("quantization succeeds");
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
                        index.plan(EngineMode::Ann, quant),
                    )
                    .expect("quantized ann query")
                    .remove(0);
                let truth: Vec<usize> = exact.iter().map(|h| h.target).collect();
                found += ann.iter().filter(|h| truth.contains(&h.target)).count();
                total += exact.len();
            }
            let recall = found as f64 / total as f64;
            assert!(
                recall >= 0.95,
                "{backend}/{quant}: recall@{K} = {recall:.4} below the 0.95 floor"
            );
        }
    }
}
