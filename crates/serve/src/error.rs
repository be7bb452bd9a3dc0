use std::fmt;

/// Typed failures of the snapshot reader.
///
/// Every variant names the exact structural rule a mapped file violated, so
/// corrupt-snapshot tests can assert the failure mode and operators can see
/// *what* is wrong from the error alone. Produced by
/// [`crate::MappedSnapshot`] at open (`O(#sections)` header checks) and
/// verify (`O(bytes)` checksums and CSR invariants) time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file ends before a named structure is complete.
    Truncated {
        /// The structure that was cut short (prelude, table, section…).
        what: String,
    },
    /// The first eight bytes are not the `SIGMASNP` magic.
    BadMagic,
    /// The version field names a format this reader does not serve (the
    /// retired streamed v1 layout, the retired v2 layout with its
    /// variable-width row pointers, or a version from the future).
    UnsupportedVersion {
        /// Version found at byte offset 8.
        found: u32,
    },
    /// The host cannot serve this file zero-copy (a big-endian CPU reading
    /// the little-endian section arrays, or a host whose `usize` is not the
    /// 64-bit row-pointer word).
    UnsupportedPlatform {
        /// Why the platform cannot map the file.
        reason: &'static str,
    },
    /// A section's file offset breaks the 64-byte alignment rule.
    Misaligned {
        /// Tag of the offending section.
        tag: String,
        /// The unaligned offset recorded in the header table.
        offset: u64,
    },
    /// Two sections' byte ranges overlap (or a section overlaps the header).
    Overlap {
        /// Tag of the earlier section.
        a: String,
        /// Tag of the overlapping section.
        b: String,
    },
    /// The same tag appears twice in the header table.
    DuplicateSection {
        /// The repeated tag.
        tag: String,
    },
    /// A section required by the META description is absent.
    MissingSection {
        /// The missing tag.
        tag: &'static str,
    },
    /// A section's byte length disagrees with the dimensions in META.
    SectionSize {
        /// Tag of the offending section.
        tag: String,
        /// Length implied by META.
        expected: u64,
        /// Length recorded in the header table.
        actual: u64,
    },
    /// A section's bytes do not match its header-table CRC32.
    ChecksumMismatch {
        /// Tag of the corrupted section.
        tag: String,
    },
    /// A mapped CSR section violates a structural invariant (non-monotone
    /// `indptr`, out-of-range or unsorted column indices).
    InvalidCsr {
        /// Which matrix is malformed (`adjacency` or `operator`).
        section: &'static str,
        /// The invariant that failed.
        detail: String,
    },
    /// The META section itself cannot be decoded or is self-inconsistent.
    Meta {
        /// What is wrong with META.
        reason: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { what } => {
                write!(f, "file ends before the {what} is complete")
            }
            SnapshotError::BadMagic => write!(f, "missing SIGMASNP magic; not a snapshot file"),
            SnapshotError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "format version {found} is not supported (v{} only)",
                    crate::SNAPSHOT_VERSION
                )
            }
            SnapshotError::UnsupportedPlatform { reason } => {
                write!(f, "platform cannot map this snapshot: {reason}")
            }
            SnapshotError::Misaligned { tag, offset } => {
                write!(
                    f,
                    "section {tag} at offset {offset} breaks 64-byte alignment"
                )
            }
            SnapshotError::Overlap { a, b } => write!(f, "sections {a} and {b} overlap"),
            SnapshotError::DuplicateSection { tag } => {
                write!(f, "section tag {tag} appears twice in the header table")
            }
            SnapshotError::MissingSection { tag } => {
                write!(f, "required section {tag} is missing")
            }
            SnapshotError::SectionSize {
                tag,
                expected,
                actual,
            } => write!(
                f,
                "section {tag} is {actual} bytes but META implies {expected}"
            ),
            SnapshotError::ChecksumMismatch { tag } => {
                write!(f, "section {tag} fails its CRC32 checksum")
            }
            SnapshotError::InvalidCsr { section, detail } => {
                write!(f, "{section} CSR section is structurally invalid: {detail}")
            }
            SnapshotError::Meta { reason } => write!(f, "invalid META section: {reason}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Errors produced by snapshot persistence and the inference engine.
#[derive(Debug)]
pub enum ServeError {
    /// An I/O operation on a snapshot file failed.
    Io(std::io::Error),
    /// A snapshot's parts disagree with each other (matrix shapes against
    /// the model's dimensions, an undecodable `MODEL` blob). Container
    /// damage is [`ServeError::Snapshot`].
    Corrupt {
        /// Human-readable description of the corruption.
        reason: String,
    },
    /// A query referenced a node outside the snapshot's graph.
    InvalidQuery {
        /// The offending node id.
        node: usize,
        /// Number of nodes the model serves.
        num_nodes: usize,
    },
    /// A similarity query reached an engine serving the operator-less
    /// `Ẑ = H` variant — there are no operator rows to rank.
    NoOperator,
    /// A replacement operator does not match the served graph.
    OperatorMismatch {
        /// Shape of the offered operator.
        got: (usize, usize),
        /// Expected square dimension (the node count).
        expected: usize,
    },
    /// The engine configuration requests concurrency the shared
    /// [`sigma_parallel::ThreadPool`] cannot provide (a zero-capacity
    /// misconfiguration), e.g. more `workers` than pool threads or a zero
    /// `max_chunk`.
    WorkerConfig {
        /// The configured worker bound (`0` = auto).
        workers: usize,
        /// The shared pool's thread count at validation time.
        pool_threads: usize,
        /// What exactly is wrong and how to fix it.
        reason: &'static str,
    },
    /// A shard-router configuration is unusable (zero shards, or shard
    /// snapshots that disagree on graph dimensions).
    ShardConfig {
        /// The configured shard count.
        shards: usize,
        /// What exactly is wrong and how to fix it.
        reason: String,
    },
    /// One shard of a [`crate::ShardRouter`] failed to construct or repair;
    /// names the offending shard so a bad snapshot in a fleet is
    /// attributable from the error alone.
    Shard {
        /// Index of the failing shard (its position in the router's plan).
        shard: usize,
        /// The underlying failure.
        source: Box<ServeError>,
    },
    /// A snapshot file failed a structural check.
    Snapshot(SnapshotError),
    /// An underlying model-layer error.
    Model(sigma::SigmaError),
    /// An underlying matrix error.
    Matrix(sigma_matrix::MatrixError),
    /// An underlying neural-network error.
    Nn(sigma_nn::NnError),
    /// An underlying similarity-maintenance error.
    SimRank(sigma_simrank::SimRankError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            ServeError::Corrupt { reason } => write!(f, "corrupt snapshot: {reason}"),
            ServeError::InvalidQuery { node, num_nodes } => {
                write!(f, "query for node {node} outside the served graph of {num_nodes} nodes")
            }
            ServeError::NoOperator => write!(
                f,
                "similarity queries need an aggregation operator; this engine serves the \
                 operator-less Ẑ = H variant"
            ),
            ServeError::OperatorMismatch { got, expected } => write!(
                f,
                "replacement operator shape {got:?} does not match the served graph of {expected} nodes"
            ),
            ServeError::WorkerConfig {
                workers,
                pool_threads,
                reason,
            } => write!(
                f,
                "invalid worker configuration ({workers} workers against a shared pool of \
                 {pool_threads} threads): {reason}"
            ),
            ServeError::ShardConfig { shards, reason } => {
                write!(f, "invalid shard configuration ({shards} shards): {reason}")
            }
            ServeError::Shard { shard, source } => write!(f, "shard {shard}: {source}"),
            ServeError::Snapshot(e) => write!(f, "snapshot format error: {e}"),
            ServeError::Model(e) => write!(f, "model error: {e}"),
            ServeError::Matrix(e) => write!(f, "matrix error: {e}"),
            ServeError::Nn(e) => write!(f, "nn error: {e}"),
            ServeError::SimRank(e) => write!(f, "similarity error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Shard { source, .. } => Some(source.as_ref()),
            ServeError::Snapshot(e) => Some(e),
            ServeError::Model(e) => Some(e),
            ServeError::Matrix(e) => Some(e),
            ServeError::Nn(e) => Some(e),
            ServeError::SimRank(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<SnapshotError> for ServeError {
    fn from(e: SnapshotError) -> Self {
        ServeError::Snapshot(e)
    }
}

impl From<sigma::SigmaError> for ServeError {
    fn from(e: sigma::SigmaError) -> Self {
        ServeError::Model(e)
    }
}

impl From<sigma_matrix::MatrixError> for ServeError {
    fn from(e: sigma_matrix::MatrixError) -> Self {
        ServeError::Matrix(e)
    }
}

impl From<sigma_nn::NnError> for ServeError {
    fn from(e: sigma_nn::NnError) -> Self {
        ServeError::Nn(e)
    }
}

impl From<sigma_simrank::SimRankError> for ServeError {
    fn from(e: sigma_simrank::SimRankError) -> Self {
        ServeError::SimRank(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_context() {
        let e = ServeError::Corrupt {
            reason: "truncated header".into(),
        };
        assert!(e.to_string().contains("truncated header"));
        let e: ServeError = SnapshotError::UnsupportedVersion { found: 9 }.into();
        assert!(e.to_string().contains('9'));
        let e = ServeError::InvalidQuery {
            node: 42,
            num_nodes: 10,
        };
        assert!(e.to_string().contains("42"));
        let e = ServeError::OperatorMismatch {
            got: (3, 4),
            expected: 7,
        };
        assert!(e.to_string().contains('7'));
        let e = ServeError::WorkerConfig {
            workers: 9,
            pool_threads: 4,
            reason: "workers exceed the shared pool size",
        };
        assert!(e.to_string().contains('9'));
        assert!(e.to_string().contains("exceed"));
        let e: ServeError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
