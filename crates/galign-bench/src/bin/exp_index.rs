//! ANN index evaluation: recall and cost of the `galign-index` engines
//! (HNSW, IVF) against the exact blocked scan, on clustered multi-order
//! embeddings (2 layers x 32 dims = 64 concatenated dims) at n in
//! {1k, 10k, 50k}. Reports recall@1 / recall@10, build time, per-query
//! latency of both engines and the mean distance-evaluation count — the
//! sublinearity evidence: at n = 10k the contract is < 0.2·n evals per
//! query, recorded in EXPERIMENTS.md.
//!
//! ANN hits are re-ranked through the exact kernel, so a returned score
//! is always the exact score; recall (how much of the exact top-k the
//! candidate set covers) is the only quality axis.
//!
//! Regenerate with `cargo run --release -p galign-bench --bin exp_index`.
//! `--smoke` shrinks the sweep to a seconds-long CI check.

use galign_bench::harness::{fmt4, mean, render_table, CommonArgs, ExperimentOutput};
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

/// Clustered multi-order embedding fixture: per-layer cluster centers
/// plus bounded noise, cluster assignment shared across layers — the
/// neighborhood structure trained GCN embeddings exhibit. (Uniform
/// random d = 64 points concentrate distances and defeat every ANN
/// method; measuring on them would say nothing about the workload.)
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

struct Cell {
    build_ms: f64,
    recall1: f64,
    recall10: f64,
    exact_us: f64,
    ann_us: f64,
    evals_mean: f64,
}

/// Hits of one query under `plan` (a batch of one).
fn query(index: &TopkIndex, node: usize, plan: Plan) -> Vec<Hit> {
    index
        .topk(&[RowQuery { node, k: K }], None, plan)
        .expect("valid query")
        .remove(0)
        .0
}

/// Builds `backend` over the fixture and measures one sweep cell.
fn run_cell(artifact: &Artifact, backend: Backend, queries: usize) -> Cell {
    let mut index = TopkIndex::from_artifact(artifact.clone());
    let t0 = Instant::now();
    index.build_ann(backend).expect("fixture is well-formed");
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;

    let n = index.target_nodes();
    let nodes: Vec<usize> = (0..queries).map(|q| q * (n / queries).max(1) % n).collect();

    let t0 = Instant::now();
    let exact: Vec<Vec<usize>> = nodes
        .iter()
        .map(|&v| {
            query(&index, v, Plan::EXACT)
                .iter()
                .map(|h| h.target)
                .collect()
        })
        .collect();
    let exact_us = t0.elapsed().as_secs_f64() * 1e6 / queries as f64;

    let evals_before = galign_telemetry::counter_value("index.search.distance_evals");
    let plan = index.plan(EngineMode::Ann, QuantMode::Off);
    let t0 = Instant::now();
    let ann: Vec<Vec<usize>> = nodes
        .iter()
        .map(|&v| query(&index, v, plan).iter().map(|h| h.target).collect())
        .collect();
    let ann_us = t0.elapsed().as_secs_f64() * 1e6 / queries as f64;
    let evals = galign_telemetry::counter_value("index.search.distance_evals") - evals_before;

    let mut r1 = Vec::new();
    let mut r10 = Vec::new();
    for (truth, got) in exact.iter().zip(&ann) {
        if let Some(top) = truth.first() {
            r1.push(f64::from(u8::from(got.contains(top))));
        }
        let hit = truth.iter().filter(|t| got.contains(t)).count();
        r10.push(hit as f64 / truth.len().max(1) as f64);
    }
    Cell {
        build_ms,
        recall1: mean(&r1),
        recall10: mean(&r10),
        exact_us,
        ann_us,
        evals_mean: evals as f64 / queries as f64,
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

    let mut output = ExperimentOutput::new("index", &args);
    println!("\n=== ANN index recall/cost vs exact scan (d = 64, k = {K}) ===");

    let mut rows = Vec::new();
    for &n in ns {
        let artifact = clustered_artifact(n, args.seed);
        for backend in [Backend::Hnsw, Backend::Ivf] {
            let cell = run_cell(&artifact, backend, queries);
            let frac = cell.evals_mean / n as f64;
            rows.push(vec![
                format!("{n}"),
                backend.to_string(),
                format!("{:.0}", cell.build_ms),
                fmt4(cell.recall1),
                fmt4(cell.recall10),
                format!("{:.0}", cell.exact_us),
                format!("{:.0}", cell.ann_us),
                format!("{:.0} ({:.3}n)", cell.evals_mean, frac),
            ]);
            output.push(Json::obj([
                ("n", Json::from(n)),
                ("backend", Json::from(backend.to_string())),
                ("build_ms", Json::from(cell.build_ms)),
                ("recall_at_1", Json::from(cell.recall1)),
                ("recall_at_10", Json::from(cell.recall10)),
                ("exact_us_per_query", Json::from(cell.exact_us)),
                ("ann_us_per_query", Json::from(cell.ann_us)),
                ("distance_evals_per_query", Json::from(cell.evals_mean)),
                ("distance_evals_fraction_of_n", Json::from(frac)),
            ]));
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "n",
                "Backend",
                "Build ms",
                "R@1",
                "R@10",
                "Exact us",
                "ANN us",
                "Dist evals",
            ],
            &rows
        )
    );
    let path = output.write(&args.out_dir).expect("write results");
    println!("results written to {}", path.display());
}
