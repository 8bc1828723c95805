//! Serving-artifact export: bridges the training pipeline to `galign-serve`.
//!
//! A [`GAlignResult`] carries everything the query-serving subsystem needs —
//! the θ layer weighting plus both multi-order embeddings — so this module
//! packs them into the versioned, checksummed binary format of
//! [`galign_serve::artifact`]. Binary artifacts are roughly 2.4x smaller than
//! the JSON dumps in [`crate::persist`] (8 bytes per element vs ~20 bytes
//! of shortest-roundtrip decimal text plus separators) and validate
//! integrity on load.
//!
//! The embeddings inside an [`AlignmentMatrix`] are already row-L2-normalised
//! (done once in `AlignmentMatrix::new`), so exports set `rows_normalized`
//! and a server loading the artifact reproduces Eq. 11–12 scores — and
//! therefore [`AlignmentMatrix::top1_anchors`] — bit for bit: since the
//! `simblock` redesign both sides literally run the same blocked kernel.
//!
//! All fallible surfaces return [`crate::error::GAlignError`].

use crate::alignment::{AlignmentMatrix, LayerSelection};
use crate::error::{GAlignError, Result};
use crate::persist;
use crate::pipeline::GAlignResult;
use galign_gcn::MultiOrderEmbedding;
use galign_matrix::Dense;
use galign_serve::artifact::{Artifact, Mat};
use std::path::{Path, PathBuf};

fn dense_to_mat(d: &Dense) -> Result<Mat> {
    Ok(Mat::new(d.rows(), d.cols(), d.as_slice().to_vec())?)
}

fn layers_to_mats(emb: &MultiOrderEmbedding) -> Result<Vec<Mat>> {
    emb.layers().iter().map(dense_to_mat).collect()
}

/// Builds a serving artifact from a computed alignment.
///
/// # Errors
/// Shape inconsistencies between the two embeddings (cannot happen for an
/// `AlignmentMatrix` built by the pipeline, but the artifact re-validates).
pub fn artifact_from_alignment(alignment: &AlignmentMatrix) -> Result<Artifact> {
    Ok(Artifact::new(
        alignment.selection().theta.clone(),
        layers_to_mats(alignment.source())?,
        layers_to_mats(alignment.target())?,
        true,
    )?)
}

/// Builds a serving artifact from a full pipeline result.
///
/// # Errors
/// See [`artifact_from_alignment`].
pub fn artifact_from_result(result: &GAlignResult) -> Result<Artifact> {
    artifact_from_alignment(&result.alignment)
}

/// Runs [`artifact_from_result`] and writes the binary artifact to `path`.
///
/// # Errors
/// Conversion or IO failures.
pub fn export_artifact(result: &GAlignResult, path: &Path) -> Result<()> {
    artifact_from_result(result)?.write(path)?;
    Ok(())
}

/// [`artifact_from_alignment`] plus a quantized panel section
/// ([`galign_serve::QuantMode`]; `Off` returns the plain artifact).
///
/// With `keep_f64 = false` (quant-primary) the panels *replace* the f64
/// layer blocks in the written file — readers reconstruct the rows
/// deterministically, so the artifact serves identical responses at a
/// fraction of the size. With `keep_f64 = true` (sidecar) both
/// representations are kept and the panels only accelerate first-pass
/// scans. Quantization re-normalises rows, so attach any ANN index
/// *after* this call.
///
/// # Errors
/// Conversion failures, or non-finite embedding components rejected by
/// the encoder.
pub fn quantized_artifact_from_alignment(
    alignment: &AlignmentMatrix,
    mode: galign_serve::QuantMode,
    keep_f64: bool,
) -> Result<Artifact> {
    let artifact = artifact_from_alignment(alignment)?;
    match mode.panel_mode() {
        None => Ok(artifact),
        Some(encoding) => Ok(artifact.with_quant(encoding, keep_f64)?),
    }
}

/// Runs [`quantized_artifact_from_alignment`] on a full pipeline result
/// and writes the binary artifact to `path`.
///
/// # Errors
/// See [`quantized_artifact_from_alignment`]; plus IO failures.
pub fn export_quantized_artifact(
    result: &GAlignResult,
    mode: galign_serve::QuantMode,
    keep_f64: bool,
    path: &Path,
) -> Result<()> {
    quantized_artifact_from_alignment(&result.alignment, mode, keep_f64)?.write(path)?;
    Ok(())
}

/// Splits `artifact` into `num_shards` shard artifacts (contiguous
/// target-id ranges, each carrying a shard manifest) and writes them to
/// `out_dir` as `shard-0000.galign`, `shard-0001.galign`, ….
///
/// `replica_sets`, when given, records one advisory replica list per
/// shard in the manifests (one entry per shard required).
///
/// # Errors
/// Invalid split parameters or IO failures.
pub fn export_shards(
    artifact: &Artifact,
    num_shards: usize,
    replica_sets: Option<&[Vec<String>]>,
    out_dir: &Path,
) -> Result<Vec<PathBuf>> {
    std::fs::create_dir_all(out_dir)?;
    let shards = artifact.split(num_shards, replica_sets)?;
    let mut paths = Vec::with_capacity(shards.len());
    for (i, shard) in shards.iter().enumerate() {
        let path = out_dir.join(format!("shard-{i:04}.galign"));
        shard.write(&path)?;
        paths.push(path);
    }
    Ok(paths)
}

/// Loads one shard artifact, mapping any decode failure to
/// [`GAlignError::Corrupt`] naming the file.
///
/// # Errors
/// [`GAlignError::Io`] when the file cannot be read at all;
/// [`GAlignError::Corrupt`] when it reads but does not decode as a valid
/// artifact.
pub fn load_shard(path: &Path) -> Result<Artifact> {
    let bytes = std::fs::read(path)?;
    Artifact::from_bytes(&bytes).map_err(|e| GAlignError::Corrupt {
        path: path.to_path_buf(),
        reason: e.to_string(),
    })
}

/// Loads a full shard set and reassembles the parent artifact,
/// verifying the stitched target layers hash back to the recorded
/// `parent_checksum`.
///
/// A set that fails verification — mixed parents, missing or
/// overlapping ranges, or a checksum mismatch — is rejected with
/// [`GAlignError::Corrupt`], never returned silently wrong.
///
/// # Errors
/// [`GAlignError::Io`] on unreadable files; [`GAlignError::Corrupt`] on
/// any decode or consistency failure.
pub fn assemble_shard_files(paths: &[PathBuf]) -> Result<Artifact> {
    let shards: Vec<Artifact> = paths.iter().map(|p| load_shard(p)).collect::<Result<_>>()?;
    Artifact::assemble_shards(&shards).map_err(|e| GAlignError::Corrupt {
        path: paths.first().cloned().unwrap_or_default(),
        reason: e.to_string(),
    })
}

/// Migrates a pair of JSON embedding dumps ([`persist::save_embeddings`])
/// into one binary serving artifact.
///
/// JSON dumps hold raw (unnormalised) embeddings, so the artifact is
/// written with `rows_normalized = false` and the serving kernel normalises
/// once at load time. When `theta` is `None` the layers are weighted
/// uniformly, matching [`LayerSelection::uniform`].
///
/// # Errors
/// IO/parse failures, mismatched layer counts between the two dumps, or a
/// `theta` whose length disagrees with the layer count.
pub fn migrate_embeddings_json(
    source_json: &Path,
    target_json: &Path,
    theta: Option<Vec<f64>>,
    out: &Path,
) -> Result<Artifact> {
    let source = persist::load_embeddings(source_json)?;
    let target = persist::load_embeddings(target_json)?;
    if source.layers().len() != target.layers().len() {
        return Err(GAlignError::LayerMismatch {
            source: source.layers().len(),
            target: target.layers().len(),
        });
    }
    let theta = theta.unwrap_or_else(|| LayerSelection::uniform(source.layers().len()).theta);
    let artifact = Artifact::new(
        theta,
        layers_to_mats(&source)?,
        layers_to_mats(&target)?,
        false,
    )?;
    artifact.write(out)?;
    Ok(artifact)
}

#[cfg(test)]
mod tests {
    use super::*;
    use galign_matrix::rng::SeededRng;
    use galign_serve::topk::{EngineMode, Plan, QuantMode as ServeQuant, RowQuery, TopkIndex};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("galign-artifact-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn random_embedding(rng: &mut SeededRng, nodes: usize, dims: &[usize]) -> MultiOrderEmbedding {
        MultiOrderEmbedding::from_layers(
            dims.iter()
                .map(|&d| rng.uniform_matrix(nodes, d, -1.0, 1.0))
                .collect(),
        )
    }

    #[test]
    fn alignment_exports_bit_exact_normalized_layers() {
        let mut rng = SeededRng::new(5);
        let source = random_embedding(&mut rng, 6, &[4, 3]);
        let target = random_embedding(&mut rng, 8, &[4, 3]);
        let alignment = AlignmentMatrix::new(&source, &target, LayerSelection::uniform(2)).unwrap();
        let artifact = artifact_from_alignment(&alignment).unwrap();
        let bytes = artifact.to_bytes();
        let back = Artifact::from_bytes(&bytes).unwrap();
        assert_eq!(artifact, back);
        // The artifact holds the alignment's normalised rows, bit for bit.
        for (l, mat) in back.source.iter().enumerate() {
            for (a, b) in mat
                .as_slice()
                .iter()
                .zip(alignment.source().layer(l).as_slice())
            {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn served_top1_matches_alignment_top1() {
        let mut rng = SeededRng::new(6);
        let source = random_embedding(&mut rng, 9, &[5, 3]);
        let target = random_embedding(&mut rng, 9, &[5, 3]);
        let alignment =
            AlignmentMatrix::new(&source, &target, LayerSelection::weighted(vec![0.7, 0.3]))
                .unwrap();
        let index = TopkIndex::from_artifact(artifact_from_alignment(&alignment).unwrap());
        for (v, expected) in alignment.top1_anchors() {
            let (hits, _) = index
                .topk(&[RowQuery { node: v, k: 1 }], None, Plan::EXACT)
                .unwrap()
                .remove(0);
            assert_eq!(hits[0].target, expected, "node {v}");
        }
    }

    #[test]
    fn quantized_export_shrinks_and_serves_identically() {
        let mut rng = SeededRng::new(21);
        let source = random_embedding(&mut rng, 40, &[16, 16]);
        let target = random_embedding(&mut rng, 48, &[16, 16]);
        let alignment = AlignmentMatrix::new(&source, &target, LayerSelection::uniform(2)).unwrap();

        // `Off` is a no-op passthrough.
        let plain =
            quantized_artifact_from_alignment(&alignment, galign_serve::QuantMode::Off, false)
                .unwrap();
        assert!(plain.quant.is_none());

        // Quant-primary: panels replace the f64 blocks on disk.
        let quantized =
            quantized_artifact_from_alignment(&alignment, galign_serve::QuantMode::Int8, false)
                .unwrap();
        assert!(quantized.quant.is_some());
        let (p, q) = (tmp("quant-plain.bin"), tmp("quant-int8.bin"));
        plain.write(&p).unwrap();
        quantized.write(&q).unwrap();
        let (plain_bytes, quant_bytes) = (
            std::fs::metadata(&p).unwrap().len(),
            std::fs::metadata(&q).unwrap().len(),
        );
        assert!(
            quant_bytes * 3 < plain_bytes,
            "int8 artifact {quant_bytes}B not >3x smaller than f64 {plain_bytes}B"
        );

        // Served responses ignore the request's quant knob bit-for-bit.
        let index = TopkIndex::from_artifact(Artifact::read(&q).unwrap());
        let int8_plan = index.plan(EngineMode::Exact, ServeQuant::Int8);
        assert_eq!(int8_plan.quant, ServeQuant::Int8);
        for node in [0, 17, 39] {
            let query = [RowQuery { node, k: 5 }];
            let (off, _) = index.topk(&query, None, Plan::EXACT).unwrap().remove(0);
            let (int8, _) = index.topk(&query, None, int8_plan).unwrap().remove(0);
            assert_eq!(off.len(), int8.len());
            for (a, b) in off.iter().zip(&int8) {
                assert_eq!(a.target, b.target, "node {node}");
                assert_eq!(a.score.to_bits(), b.score.to_bits(), "node {node}");
            }
        }
    }

    #[test]
    fn migration_produces_smaller_equivalent_artifact() {
        let mut rng = SeededRng::new(7);
        let source = random_embedding(&mut rng, 10, &[6, 4]);
        let target = random_embedding(&mut rng, 12, &[6, 4]);
        let (s_json, t_json) = (tmp("mig-s.json"), tmp("mig-t.json"));
        persist::save_embeddings(&source, &s_json).unwrap();
        persist::save_embeddings(&target, &t_json).unwrap();
        let out = tmp("mig.bin");
        let artifact = migrate_embeddings_json(&s_json, &t_json, None, &out).unwrap();
        assert!(!artifact.rows_normalized);
        assert_eq!(artifact.theta, vec![0.5, 0.5]);
        let reloaded = Artifact::read(&out).unwrap();
        assert_eq!(artifact, reloaded);
        // Binary f64 payload (8 B/value) vs compact shortest-roundtrip JSON
        // (~20 B/value for uniform [-1, 1] doubles): measured ~2.4x; assert
        // a conservative 2x.
        let json_bytes =
            std::fs::metadata(&s_json).unwrap().len() + std::fs::metadata(&t_json).unwrap().len();
        let bin_bytes = std::fs::metadata(&out).unwrap().len();
        assert!(
            bin_bytes * 2 < json_bytes,
            "binary {bin_bytes}B vs JSON {json_bytes}B"
        );
    }

    #[test]
    fn shard_export_round_trips_through_assembly() {
        let mut rng = SeededRng::new(11);
        let source = random_embedding(&mut rng, 5, &[4, 3]);
        let target = random_embedding(&mut rng, 11, &[4, 3]);
        let alignment = AlignmentMatrix::new(&source, &target, LayerSelection::uniform(2)).unwrap();
        let artifact = artifact_from_alignment(&alignment).unwrap();
        let dir = tmp("shard-roundtrip");
        let replicas = vec![
            vec!["127.0.0.1:7001".to_string(), "127.0.0.1:7002".to_string()],
            vec!["127.0.0.1:7003".to_string()],
            vec![],
        ];
        let paths = export_shards(&artifact, 3, Some(&replicas), &dir).unwrap();
        assert_eq!(paths.len(), 3);
        // Uneven split of 11 rows: 4 + 4 + 3.
        let rows: Vec<usize> = paths
            .iter()
            .map(|p| load_shard(p).unwrap().target_nodes())
            .collect();
        assert_eq!(rows, vec![4, 4, 3]);
        let manifest0 = load_shard(&paths[0]).unwrap().manifest.unwrap();
        assert_eq!(manifest0.replicas, replicas[0]);
        assert_eq!(manifest0.parent_checksum, artifact.target_checksum());
        let back = assemble_shard_files(&paths).unwrap();
        assert_eq!(back.to_bytes(), artifact.to_bytes());
    }

    #[test]
    fn mixed_parents_are_rejected_as_corrupt() {
        let mut rng = SeededRng::new(12);
        let source = random_embedding(&mut rng, 4, &[3]);
        let target_a = random_embedding(&mut rng, 8, &[3]);
        let target_b = random_embedding(&mut rng, 8, &[3]);
        let mk = |target: &MultiOrderEmbedding, dir: &str| {
            let alignment =
                AlignmentMatrix::new(&source, target, LayerSelection::uniform(1)).unwrap();
            let artifact = artifact_from_alignment(&alignment).unwrap();
            export_shards(&artifact, 2, None, &tmp(dir)).unwrap()
        };
        let a = mk(&target_a, "mixed-a");
        let b = mk(&target_b, "mixed-b");
        // Shard 0 of parent A + shard 1 of parent B: different
        // parent_checksum values must be rejected, not stitched.
        let err = assemble_shard_files(&[a[0].clone(), b[1].clone()]).unwrap_err();
        assert!(matches!(err, GAlignError::Corrupt { .. }), "{err:?}");
        assert!(err.to_string().contains("corrupt"), "{err}");
    }

    #[test]
    fn truncated_shard_file_is_corrupt_not_io() {
        let mut rng = SeededRng::new(13);
        let source = random_embedding(&mut rng, 3, &[2]);
        let target = random_embedding(&mut rng, 6, &[2]);
        let alignment = AlignmentMatrix::new(&source, &target, LayerSelection::uniform(1)).unwrap();
        let artifact = artifact_from_alignment(&alignment).unwrap();
        let paths = export_shards(&artifact, 2, None, &tmp("truncated")).unwrap();
        let bytes = std::fs::read(&paths[0]).unwrap();
        std::fs::write(&paths[0], &bytes[..bytes.len() / 2]).unwrap();
        let err = load_shard(&paths[0]).unwrap_err();
        assert!(matches!(err, GAlignError::Corrupt { .. }), "{err:?}");
        let missing = load_shard(&tmp("truncated").join("nope.galign")).unwrap_err();
        assert!(matches!(missing, GAlignError::Io(_)), "{missing:?}");
    }

    #[test]
    fn migration_rejects_mismatched_layer_counts() {
        let mut rng = SeededRng::new(8);
        let source = random_embedding(&mut rng, 4, &[3, 2]);
        let target = random_embedding(&mut rng, 4, &[3]);
        let (s_json, t_json) = (tmp("bad-s.json"), tmp("bad-t.json"));
        persist::save_embeddings(&source, &s_json).unwrap();
        persist::save_embeddings(&target, &t_json).unwrap();
        let err = migrate_embeddings_json(&s_json, &t_json, None, &tmp("bad.bin")).unwrap_err();
        assert!(matches!(err, GAlignError::LayerMismatch { .. }), "{err:?}");
        assert!(err.to_string().contains("layer count"), "{err}");
    }
}
