//! Quantized artifact evaluation: size, scan cost and fidelity of the
//! `galign-quant` int8/f16 panels against the f64 blocked scan, on the
//! same clustered multi-order fixture as `exp_index` (2 layers × 32 dims
//! = 64 concatenated dims) at n in {1k, 10k, 50k}.
//!
//! Per cell the harness reports the written artifact size of the
//! quant-primary v4 file against the f64-only baseline (the ≥3.5×
//! contract for int8), the exact-scan latency at both precisions, the
//! certified-shortlist survival fraction (how much of n the margin test
//! forwards to the exact re-rank), and recall@10 of ANN traversal over
//! quantized rows. Responses are asserted bit-identical between
//! `quant: off` and quantized requests — the harness aborts on any
//! mismatch, so a passing run *is* the fidelity evidence.
//!
//! Regenerate with `cargo run --release -p galign-bench --bin exp_quant`.
//! `--smoke` shrinks the sweep to a seconds-long CI check.

use galign_bench::harness::{fmt4, render_table, CommonArgs, ExperimentOutput};
use galign_serve::artifact::{Artifact, Mat};
use galign_serve::topk::{Backend, EngineMode, Hit, Plan, QuantMode, RowQuery, TopkIndex};
use galign_telemetry::json::Json;
use std::time::Instant;

const DIMS: [usize; 2] = [32, 32];
const K: usize = 10;

/// xorshift64* — deterministic fixtures without pulling `rand` into the
/// hot path.
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

/// Clustered multi-order embedding fixture, identical in shape to the
/// `exp_index` one: per-layer cluster centers plus bounded noise, cluster
/// assignment shared across layers.
fn clustered_artifact(n: usize, seed: u64) -> Artifact {
    let clusters = (n / 50).max(4);
    let noise = 0.25;
    let mut rng = Rng::new(seed);
    let centers: Vec<Vec<Vec<f64>>> = DIMS
        .iter()
        .map(|&d| {
            (0..clusters)
                .map(|_| (0..d).map(|_| rng.signed_unit()).collect())
                .collect()
        })
        .collect();
    let layer = |l: usize, jitter: f64, rng: &mut Rng| {
        let d = DIMS[l];
        let mut data = Vec::with_capacity(n * d);
        for node in 0..n {
            let c = &centers[l][node % clusters];
            data.extend(c.iter().map(|&v| v + (noise + jitter) * rng.signed_unit()));
        }
        Mat::new(n, d, data).expect("shape by construction")
    };
    let target: Vec<Mat> = (0..DIMS.len()).map(|l| layer(l, 0.0, &mut rng)).collect();
    let source: Vec<Mat> = (0..DIMS.len()).map(|l| layer(l, 0.05, &mut rng)).collect();
    Artifact::new(vec![1.0; DIMS.len()], source, target, false).expect("valid artifact")
}

fn written_bytes(artifact: &Artifact, name: &str) -> u64 {
    let dir = std::env::temp_dir().join("galign-exp-quant");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    artifact.write(&path).expect("write artifact");
    std::fs::metadata(&path).expect("written file").len()
}

struct Cell {
    bytes: u64,
    ratio: f64,
    f64_us: f64,
    quant_us: f64,
    shortlist_frac: f64,
    recall10: f64,
}

/// Hits of one query under `plan` (a batch of one).
fn query(index: &TopkIndex, node: usize, plan: Plan) -> Vec<Hit> {
    index
        .topk(&[RowQuery { node, k: K }], None, plan)
        .expect("valid query")
        .remove(0)
        .0
}

/// Measures one (fixture, encoding) cell on a quant-primary artifact:
/// written size, both exact-scan latencies (asserting bit-identity per
/// query), shortlist survival, and quantized-traversal ANN recall.
fn run_cell(artifact: &Artifact, quant: QuantMode, f64_bytes: u64, queries: usize) -> Cell {
    let encoding = quant.panel_mode().expect("int8/f16 cell");
    let quantized = artifact
        .clone()
        .with_quant(encoding, false)
        .expect("fixture quantizes");
    let bytes = written_bytes(
        &quantized,
        &format!("{}-{}.bin", quant, quantized.target_nodes()),
    );

    let mut index = TopkIndex::from_artifact(quantized);
    index
        .build_ann(Backend::Hnsw)
        .expect("fixture is well-formed");
    let n = index.target_nodes();
    let nodes: Vec<usize> = (0..queries).map(|q| q * (n / queries).max(1) % n).collect();

    let quant_plan = index.plan(EngineMode::Exact, quant);
    let ann_plan = index.plan(EngineMode::Ann, quant);
    let t0 = Instant::now();
    let plain: Vec<Vec<(usize, u64)>> = nodes
        .iter()
        .map(|&v| {
            query(&index, v, Plan::EXACT)
                .iter()
                .map(|h| (h.target, h.score.to_bits()))
                .collect()
        })
        .collect();
    let f64_us = t0.elapsed().as_secs_f64() * 1e6 / queries as f64;

    let evals_before = galign_telemetry::counter_value("quant.scan.first_pass_evals");
    let short_before = galign_telemetry::counter_value("quant.scan.shortlisted");
    let t0 = Instant::now();
    let shortlisted: Vec<Vec<(usize, u64)>> = nodes
        .iter()
        .map(|&v| {
            query(&index, v, quant_plan)
                .iter()
                .map(|h| (h.target, h.score.to_bits()))
                .collect()
        })
        .collect();
    let quant_us = t0.elapsed().as_secs_f64() * 1e6 / queries as f64;
    let evals = galign_telemetry::counter_value("quant.scan.first_pass_evals") - evals_before;
    let short = galign_telemetry::counter_value("quant.scan.shortlisted") - short_before;
    // The fidelity contract is asserted, not reported: any drift aborts.
    assert_eq!(
        plain, shortlisted,
        "{quant}: quantized exact scan diverged from f64 (n = {n})"
    );

    let mut r10 = Vec::new();
    for &v in &nodes {
        let truth: Vec<usize> = query(&index, v, Plan::EXACT)
            .iter()
            .map(|h| h.target)
            .collect();
        let got = query(&index, v, ann_plan);
        let hit = truth
            .iter()
            .filter(|t| got.iter().any(|h| h.target == **t))
            .count();
        r10.push(hit as f64 / truth.len().max(1) as f64);
    }

    Cell {
        bytes,
        ratio: f64_bytes as f64 / bytes as f64,
        f64_us,
        quant_us,
        shortlist_frac: if evals == 0 {
            0.0
        } else {
            short as f64 / evals as f64
        },
        recall10: r10.iter().sum::<f64>() / r10.len().max(1) as f64,
    }
}

fn main() {
    // --smoke (a CI-only flag) is stripped before the shared parser,
    // which aborts on flags it does not know.
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let smoke = raw.iter().any(|a| a == "--smoke");
    raw.retain(|a| a != "--smoke");
    let args = CommonArgs::parse_from(raw.into_iter());
    args.configure_telemetry();

    let (ns, queries): (&[usize], usize) = if smoke {
        (&[2_000], 50)
    } else {
        (&[1_000, 10_000, 50_000], 200)
    };

    let mut output = ExperimentOutput::new("quant", &args);
    println!("\n=== Quantized artifacts vs f64 scan (d = 64, k = {K}) ===");

    let mut rows = Vec::new();
    for &n in ns {
        let artifact = clustered_artifact(n, args.seed);
        let f64_bytes = written_bytes(&artifact, &format!("f64-{n}.bin"));
        for quant in [QuantMode::Int8, QuantMode::F16] {
            let cell = run_cell(&artifact, quant, f64_bytes, queries);
            if quant == QuantMode::Int8 {
                // The headline acceptance contract: int8-primary files are
                // at least 3.5x smaller than the f64-only baseline.
                assert!(
                    cell.ratio >= 3.5,
                    "int8 artifact only {:.2}x smaller than f64 at n = {n}",
                    cell.ratio
                );
            }
            rows.push(vec![
                format!("{n}"),
                quant.to_string(),
                format!("{f64_bytes}"),
                format!("{}", cell.bytes),
                format!("{:.2}x", cell.ratio),
                format!("{:.0}", cell.f64_us),
                format!("{:.0}", cell.quant_us),
                format!("{:.3}n", cell.shortlist_frac),
                fmt4(cell.recall10),
            ]);
            output.push(Json::obj([
                ("n", Json::from(n)),
                ("quant", Json::from(quant.to_string())),
                ("f64_artifact_bytes", Json::from(f64_bytes)),
                ("quant_artifact_bytes", Json::from(cell.bytes)),
                ("size_ratio", Json::from(cell.ratio)),
                ("f64_scan_us_per_query", Json::from(cell.f64_us)),
                ("quant_scan_us_per_query", Json::from(cell.quant_us)),
                ("shortlist_fraction_of_n", Json::from(cell.shortlist_frac)),
                ("quant_ann_recall_at_10", Json::from(cell.recall10)),
                ("bit_identical", Json::from(true)),
            ]));
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "n",
                "Quant",
                "f64 B",
                "Quant B",
                "Smaller",
                "f64 us",
                "Quant us",
                "Shortlist",
                "R@10 (q-ANN)",
            ],
            &rows
        )
    );
    println!("every quantized exact scan was bit-identical to its f64 counterpart");
    let path = output.write(&args.out_dir).expect("write results");
    println!("results written to {}", path.display());
}
