//! Versioned on-disk snapshots: trained weights, the top-k aggregation
//! operator, and the graph inputs needed to serve it.
//!
//! A [`ServeSnapshot`] bundles a [`ModelSnapshot`] (the trained SIGMA
//! parameters and operator) with the node features and adjacency matrix the
//! model embeds, making the file self-contained: `load` → build an
//! [`crate::InferenceEngine`] → answer queries, with no access to the
//! training pipeline. Files carry a magic tag and a format version; the one
//! reader, [`MappedSnapshot`], rejects every other version and every
//! malformed section with a typed [`crate::SnapshotError`].

use crate::format::{self, MetaInfo};
use crate::MappedSnapshot;
use crate::{Result, ServeError};
use sigma::snapshot::ModelSnapshot;
use sigma_matrix::{CsrMatrix, DenseMatrix};
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::Path;

/// Magic bytes identifying a SIGMA snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"SIGMASNP";

/// The snapshot format version, written and read: the zero-copy sectioned
/// layout of [`crate::MappedSnapshot`], with `u64` row pointers.
pub const SNAPSHOT_VERSION: u32 = 3;

/// A self-contained serving artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSnapshot {
    /// Free-form tag recorded at save time (model name, dataset, run id…).
    pub tag: String,
    /// The trained model: weights, hyper-parameters, aggregation operator.
    pub model: ModelSnapshot,
    /// Node features `X` (`n × f`), input to `MLP_X`.
    pub features: DenseMatrix,
    /// Binary adjacency `A` (`n × n`), input to `MLP_A` and the source of
    /// neighbourhood information for cache invalidation.
    pub adjacency: CsrMatrix,
    /// Precomputed full-graph embeddings `H` (`n × classes`), populated by
    /// [`ServeSnapshot::precompute_embeddings`]. When present, the file
    /// carries them as a mappable section and an engine built from the
    /// mapping skips the encoder entirely at cold start.
    pub embeddings: Option<DenseMatrix>,
}

impl ServeSnapshot {
    /// Bundles a model snapshot with its serving inputs, validating that all
    /// shapes agree.
    pub fn new(
        tag: impl Into<String>,
        model: ModelSnapshot,
        features: DenseMatrix,
        adjacency: CsrMatrix,
    ) -> Result<Self> {
        model.validate()?;
        let n = model.num_nodes();
        if features.rows() != n || features.cols() != model.feature_dim() {
            return Err(ServeError::Corrupt {
                reason: format!(
                    "feature matrix {:?} does not match the model's {} × {} inputs",
                    features.shape(),
                    n,
                    model.feature_dim()
                ),
            });
        }
        if adjacency.shape() != (n, n) {
            return Err(ServeError::OperatorMismatch {
                got: adjacency.shape(),
                expected: n,
            });
        }
        Ok(Self {
            tag: tag.into(),
            model,
            features,
            adjacency,
            embeddings: None,
        })
    }

    /// Number of nodes this snapshot serves.
    pub fn num_nodes(&self) -> usize {
        self.model.num_nodes()
    }

    /// Runs the encoder once and stores the full-graph embeddings `H` in
    /// the snapshot, so a subsequent [`ServeSnapshot::save`] emits them as
    /// a mappable `EMB` section and mapped engines cold-start in O(1).
    pub fn precompute_embeddings(&mut self) -> Result<()> {
        self.embeddings = Some(crate::forward::compute_embeddings(
            &self.model,
            &self.features,
            &self.adjacency,
        )?);
        Ok(())
    }

    /// Writes the snapshot to `path` (creating or truncating the file).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        let file = File::create(path)?;
        let mut w = BufWriter::new(file);
        self.write_to(&mut w)?;
        w.flush()?;
        Ok(())
    }

    /// Reads a snapshot from `path`: memory-maps it, verifies it (header
    /// table, checksums, CSR invariants) and decodes it into owned
    /// matrices. For zero-copy serving keep the mapping itself:
    /// [`MappedSnapshot::open`] + [`crate::InferenceEngine::from_mapped`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        MappedSnapshot::open(path)?.to_snapshot()
    }

    /// Serialises to any writer: a header table of CRC-stamped,
    /// 64-byte-aligned sections holding the CSR/dense arrays as raw
    /// little-endian data. The `save` body; exposed for tests and
    /// in-memory transport.
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<()> {
        let n = self.num_nodes();
        let num_classes = self.model.num_classes();
        if let Some(emb) = &self.embeddings {
            if emb.shape() != (n, num_classes) {
                return Err(ServeError::Corrupt {
                    reason: format!(
                        "embedding matrix {:?} does not match the model's {} × {} output",
                        emb.shape(),
                        n,
                        num_classes
                    ),
                });
            }
        }
        let meta = MetaInfo {
            tag: self.tag.clone(),
            effective_alpha: self.model.effective_alpha(),
            num_nodes: n as u64,
            feature_dim: self.model.feature_dim() as u64,
            num_classes: num_classes as u64,
            adj_nnz: self.adjacency.nnz() as u64,
            has_operator: self.model.operator.is_some(),
            op_nnz: self.model.operator.as_ref().map_or(0, CsrMatrix::nnz) as u64,
            has_embeddings: self.embeddings.is_some(),
        };
        let mut sw = format::SectionWriter::new();
        sw.push(format::TAG_META, format::encode_meta(&meta)?);
        sw.push(
            format::TAG_ADJ_PTR,
            format::encode_indptr(self.adjacency.indptr()),
        );
        sw.push(
            format::TAG_ADJ_IDX,
            format::encode_u32s(self.adjacency.indices()),
        );
        sw.push(
            format::TAG_ADJ_VAL,
            format::encode_f32s(self.adjacency.values()),
        );
        if let Some(op) = &self.model.operator {
            sw.push(format::TAG_OP_PTR, format::encode_indptr(op.indptr()));
            sw.push(format::TAG_OP_IDX, format::encode_u32s(op.indices()));
            sw.push(format::TAG_OP_VAL, format::encode_f32s(op.values()));
        }
        sw.push(
            format::TAG_FEAT,
            format::encode_f32s(self.features.as_slice()),
        );
        if let Some(emb) = &self.embeddings {
            sw.push(format::TAG_EMB, format::encode_f32s(emb.as_slice()));
        }
        sw.push(format::TAG_MODEL, format::encode_model_blob(&self.model)?);
        sw.write_to(w)
    }

    /// Deserialises from any reader: adopts the bytes via
    /// [`MappedSnapshot::from_bytes`] (aligned copy), verifies and decodes,
    /// exactly as [`ServeSnapshot::load`] does for a file.
    pub fn read_from<R: Read>(r: &mut R) -> Result<Self> {
        let mut buf = Vec::new();
        r.read_to_end(&mut buf)?;
        MappedSnapshot::from_bytes(&buf)?.to_snapshot()
    }
}
