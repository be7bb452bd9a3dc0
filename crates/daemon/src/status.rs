//! The single table mapping every typed serve-layer failure to an HTTP
//! status code.
//!
//! Both functions match **exhaustively, with no wildcard arm**: adding a
//! variant to [`ServeError`] or [`SnapshotError`] without deciding its
//! status is a compile error in this crate, and the unit test below pins
//! each mapping so an accidental re-route fails loudly. Everything the
//! daemon returns for an engine failure flows through here — handlers never
//! pick status codes ad hoc.

use sigma_serve::{ServeError, SnapshotError};

/// A machine-readable kind token for response bodies (`{"error": <kind>}`),
/// stable across releases where the human-readable `Display` text is not.
pub fn kind_for(error: &ServeError) -> &'static str {
    match error {
        ServeError::Io(_) => "io",
        ServeError::Corrupt { .. } => "corrupt_snapshot",
        ServeError::InvalidQuery { .. } => "invalid_query",
        ServeError::NoOperator => "no_operator",
        ServeError::OperatorMismatch { .. } => "operator_mismatch",
        ServeError::WorkerConfig { .. } => "worker_config",
        ServeError::ShardConfig { .. } => "shard_config",
        ServeError::Shard { source, .. } => kind_for(source),
        ServeError::Snapshot(_) => "snapshot_format",
        ServeError::Model(_) => "model",
        ServeError::Matrix(_) => "matrix",
        ServeError::Nn(_) => "nn",
        ServeError::SimRank(_) => "simrank",
    }
}

/// HTTP status for a [`ServeError`].
///
/// The split is three-way: the *client's request* named something the
/// served graph does not have (`404`), the *client's payload* is unusable
/// against the current state (`409`/`422`), or the *server side* failed
/// (`5xx`). A sharded failure takes the status of its underlying cause —
/// which shard failed is detail for the body, not for the code.
pub fn status_for(error: &ServeError) -> u16 {
    match error {
        // The request addressed a node outside the served graph.
        ServeError::InvalidQuery { .. } => 404,
        // The request is well-formed but conflicts with the serving state:
        // an operator-less engine has no similarity rows to rank (mirrors
        // the daemon's own `no_maintainer` 409 for /v1/repair).
        ServeError::NoOperator => 409,
        // The offered artifact (snapshot, operator, payload) cannot apply
        // to the serving state it was offered to.
        ServeError::OperatorMismatch { .. } => 409,
        // The offered artifact is self-inconsistent or unreadable.
        ServeError::Corrupt { .. } => 422,
        ServeError::Snapshot(e) => status_for_snapshot(e),
        // Server-side failures: configuration and engine internals.
        ServeError::Io(_) => 500,
        ServeError::WorkerConfig { .. } => 500,
        ServeError::ShardConfig { .. } => 500,
        ServeError::Model(_) => 500,
        ServeError::Matrix(_) => 500,
        ServeError::Nn(_) => 500,
        ServeError::SimRank(_) => 500,
        // A shard failure is whatever its cause is.
        ServeError::Shard { source, .. } => status_for(source),
    }
}

/// HTTP status for a [`SnapshotError`] (all reached through
/// `POST /v1/reload` pointing at a bad file).
///
/// Structural defects of the *offered file* are `422` — the request was
/// well-formed but the entity it names cannot be processed. The one
/// server-side case is [`SnapshotError::UnsupportedPlatform`]: the file may
/// be fine, this host just cannot map it.
pub fn status_for_snapshot(error: &SnapshotError) -> u16 {
    match error {
        SnapshotError::Truncated { .. } => 422,
        SnapshotError::BadMagic => 422,
        SnapshotError::UnsupportedVersion { .. } => 422,
        SnapshotError::Misaligned { .. } => 422,
        SnapshotError::Overlap { .. } => 422,
        SnapshotError::DuplicateSection { .. } => 422,
        SnapshotError::MissingSection { .. } => 422,
        SnapshotError::SectionSize { .. } => 422,
        SnapshotError::ChecksumMismatch { .. } => 422,
        SnapshotError::InvalidCsr { .. } => 422,
        SnapshotError::Meta { .. } => 422,
        SnapshotError::UnsupportedPlatform { .. } => 500,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn io() -> std::io::Error {
        std::io::Error::other("x")
    }

    /// One instance of every `ServeError` variant with its pinned status.
    /// A new variant fails `status_for`'s exhaustive match at compile time;
    /// this test additionally fails if an existing mapping is re-routed.
    #[test]
    fn serve_error_table_is_pinned() {
        let table: Vec<(ServeError, u16, &str)> = vec![
            (ServeError::Io(io()), 500, "io"),
            (
                ServeError::Corrupt { reason: "r".into() },
                422,
                "corrupt_snapshot",
            ),
            (
                ServeError::InvalidQuery {
                    node: 7,
                    num_nodes: 3,
                },
                404,
                "invalid_query",
            ),
            (ServeError::NoOperator, 409, "no_operator"),
            (
                ServeError::OperatorMismatch {
                    got: (1, 2),
                    expected: 3,
                },
                409,
                "operator_mismatch",
            ),
            (
                ServeError::WorkerConfig {
                    workers: 9,
                    pool_threads: 1,
                    reason: "r",
                },
                500,
                "worker_config",
            ),
            (
                ServeError::ShardConfig {
                    shards: 0,
                    reason: "r".into(),
                },
                500,
                "shard_config",
            ),
            (
                ServeError::Shard {
                    shard: 2,
                    source: Box::new(ServeError::InvalidQuery {
                        node: 9,
                        num_nodes: 4,
                    }),
                },
                404,
                "invalid_query",
            ),
            (
                ServeError::Snapshot(SnapshotError::BadMagic),
                422,
                "snapshot_format",
            ),
        ];
        for (error, status, kind) in &table {
            assert_eq!(status_for(error), *status, "status of {error}");
            assert_eq!(kind_for(error), *kind, "kind of {error}");
        }
    }

    /// Every `SnapshotError` variant with its pinned status.
    #[test]
    fn snapshot_error_table_is_pinned() {
        let table: Vec<(SnapshotError, u16)> = vec![
            (SnapshotError::Truncated { what: "w".into() }, 422),
            (SnapshotError::BadMagic, 422),
            (SnapshotError::UnsupportedVersion { found: 1 }, 422),
            (SnapshotError::UnsupportedPlatform { reason: "r" }, 500),
            (
                SnapshotError::Misaligned {
                    tag: "T".into(),
                    offset: 1,
                },
                422,
            ),
            (
                SnapshotError::Overlap {
                    a: "A".into(),
                    b: "B".into(),
                },
                422,
            ),
            (SnapshotError::DuplicateSection { tag: "T".into() }, 422),
            (SnapshotError::MissingSection { tag: "T" }, 422),
            (
                SnapshotError::SectionSize {
                    tag: "T".into(),
                    expected: 1,
                    actual: 2,
                },
                422,
            ),
            (SnapshotError::ChecksumMismatch { tag: "T".into() }, 422),
            (
                SnapshotError::InvalidCsr {
                    section: "adjacency",
                    detail: "d".into(),
                },
                422,
            ),
            (SnapshotError::Meta { reason: "r".into() }, 422),
        ];
        for (error, status) in &table {
            assert_eq!(status_for_snapshot(error), *status, "status of {error}");
        }
        // Nested through ServeError, the snapshot status wins.
        assert_eq!(
            status_for(&ServeError::Snapshot(SnapshotError::UnsupportedPlatform {
                reason: "big-endian host"
            })),
            500
        );
    }
}
