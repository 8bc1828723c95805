//! Equivalence properties of the blocked streaming similarity engine: the
//! fused top-1/top-k reductions must be bit-identical to materialising the
//! full similarity matrix and scanning it — including under heavy ties and
//! k > n — and a server answering `/v1/align/topk` from the shared kernel
//! must agree with an independent Eq. 11–12 reference evaluation.

use galign_suite::matrix::check::cases;
use galign_suite::matrix::rng::SeededRng;
use galign_suite::matrix::simblock::{self, select_topk_bruteforce, SimPanel};
use galign_suite::matrix::Dense;

/// Tie-heavy random layer: entries drawn from a 5-value grid so equal
/// scores are common, then row-normalised like the pipeline does.
fn quantized_layers(seed: u64, n: usize, dims: &[usize]) -> Vec<Dense> {
    let mut rng = SeededRng::new(seed);
    dims.iter()
        .map(|&d| {
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|_| {
                    (0..d)
                        .map(|_| ((rng.uniform(0.0, 5.0)).floor() - 2.0) / 2.0)
                        .collect()
                })
                .collect();
            Dense::from_rows(&rows).unwrap().normalize_rows()
        })
        .collect()
}

/// Blocked top-k equals materialise-then-argsort, bit for bit, for
/// every row, every block size, and k beyond the target count.
#[test]
fn blocked_topk_is_bit_identical_to_materialized() {
    cases(24, |rng| {
        let seed = rng.range(0..1000) as u64;
        let n1 = rng.range(1..14);
        let n2 = rng.range(1..18);
        let block = rng.range(1..20);
        let k = rng.range(1..24);
        let dims = [3usize, 2];
        let source = quantized_layers(seed, n1, &dims);
        let target = quantized_layers(seed ^ 0xBEEF, n2, &dims);
        let theta = vec![0.4, 0.6];
        let panel = SimPanel::new(&source, &target, &theta)
            .unwrap()
            .with_block_rows(block);

        let dense = simblock::materialize(&panel);
        let blocked = simblock::topk(&panel, k);
        assert_eq!(blocked.len(), n1);
        for v in 0..n1 {
            let row = &dense.as_slice()[v * n2..(v + 1) * n2];
            let reference = select_topk_bruteforce(row, k);
            assert_eq!(blocked[v].len(), reference.len());
            for (b, r) in blocked[v].iter().zip(&reference) {
                assert_eq!(b.target, r.target, "row {}", v);
                assert_eq!(b.score.to_bits(), r.score.to_bits(), "row {}", v);
            }
        }

        let top1 = simblock::top1(&panel);
        assert_eq!(top1.len(), n1);
        for &(v, u) in &top1 {
            assert_eq!(
                u,
                select_topk_bruteforce(&dense.as_slice()[v * n2..(v + 1) * n2], 1)[0].target
            );
        }
    });
}

/// End-to-end kernel-swap proof: a served `/v1/align/topk` response must
/// match a from-scratch Eq. 11–12 evaluation (normalise rows, θ-weighted
/// layer dot products, argsort) computed without any serve or simblock
/// scoring code in the loop.
#[test]
fn served_topk_matches_independent_reference() {
    use galign_suite::serve::artifact::{Artifact, Mat};
    use galign_suite::serve::json;
    use galign_suite::serve::server::{Server, ServerConfig};
    use galign_suite::serve::topk::TopkIndex;
    use std::io::{Read, Write};

    let (n_s, n_t, dims) = (12usize, 15usize, [4usize, 3]);
    let theta = vec![0.3, 0.7];
    let mut rng = SeededRng::new(99);
    let mut raw = |n: usize| -> Vec<Dense> {
        dims.iter()
            .map(|&d| rng.uniform_matrix(n, d, -1.0, 1.0))
            .collect::<Vec<_>>()
    };
    let (source, target) = (raw(n_s), raw(n_t));

    // Reference: hand-rolled scoring on independently normalised copies.
    let norm = |ls: &[Dense]| ls.iter().map(Dense::normalize_rows).collect::<Vec<_>>();
    let (ns, nt) = (norm(&source), norm(&target));
    let score = |v: usize, u: usize| -> f64 {
        let mut s = 0.0;
        for (l, &w) in theta.iter().enumerate() {
            let (a, b) = (ns[l].row(v), nt[l].row(u));
            s += w * a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>();
        }
        s
    };

    // Serve the raw (unnormalised) layers: the server normalises at load.
    let to_mats = |ls: &[Dense]| {
        ls.iter()
            .map(|d| Mat::new(d.rows(), d.cols(), d.as_slice().to_vec()).unwrap())
            .collect::<Vec<_>>()
    };
    let artifact = Artifact::new(theta.clone(), to_mats(&source), to_mats(&target), false).unwrap();
    let handle = Server::bind(
        "127.0.0.1:0",
        TopkIndex::from_artifact(artifact),
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port")
    .spawn();

    let k = 4;
    let nodes: Vec<String> = (0..n_s).map(|v| v.to_string()).collect();
    let body = format!("{{\"nodes\":[{}],\"k\":{k}}}", nodes.join(","));
    let mut stream = std::net::TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    write!(
        stream,
        "POST /v1/align/topk HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let payload = response.split_once("\r\n\r\n").expect("http body").1;
    let doc = json::parse(payload).expect("topk JSON");
    let results = doc.get("results").unwrap().as_arr().unwrap();
    assert_eq!(results.len(), n_s);

    for (v, entry) in results.iter().enumerate() {
        let row: Vec<f64> = (0..n_t).map(|u| score(v, u)).collect();
        let expected = select_topk_bruteforce(&row, k);
        let matches = entry.get("matches").unwrap().as_arr().unwrap();
        assert_eq!(matches.len(), expected.len());
        for (got, want) in matches.iter().zip(&expected) {
            assert_eq!(got.get("target").unwrap().as_usize(), Some(want.target));
            let s = got.get("score").unwrap().as_f64().unwrap();
            assert!(
                (s - want.score).abs() < 1e-9,
                "node {v}: served {s} vs reference {}",
                want.score
            );
        }
    }
    handle.shutdown().expect("clean shutdown");
}
