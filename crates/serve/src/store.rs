//! Owned-or-mapped storage behind the inference engine.
//!
//! The engine's serving state holds matrices either as owned
//! [`CsrMatrix`]/[`DenseMatrix`] (built from an in-memory
//! [`crate::ServeSnapshot`], or promoted by a repair) or as named sections
//! of a shared [`MappedSnapshot`] (the zero-copy path). Every kernel
//! call goes through [`CsrStore::view`]/[`DenseStore::view`], so both
//! representations run the same view-first kernels and stay bitwise
//! identical. Mutation (incremental repair) promotes a mapped store to
//! owned copy-on-write via `make_owned` — the mapping itself is never
//! written.

use crate::{MappedSnapshot, Result};
use sigma::snapshot::ModelSnapshot;
use sigma_matrix::{CsrMatrix, CsrView, DenseMatrix, DenseView};
use std::sync::Arc;

/// Which CSR section of a mapped snapshot a [`CsrStore`] points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CsrSection {
    Adjacency,
    Operator,
}

/// A CSR matrix owned in memory or borrowed from a mapped snapshot.
#[derive(Debug, Clone)]
pub(crate) enum CsrStore {
    Owned(CsrMatrix),
    Mapped {
        snap: Arc<MappedSnapshot>,
        section: CsrSection,
    },
}

impl CsrStore {
    pub(crate) fn view(&self) -> CsrView<'_> {
        match self {
            CsrStore::Owned(m) => m.view(),
            CsrStore::Mapped { snap, section } => match section {
                CsrSection::Adjacency => snap.adjacency_view(),
                CsrSection::Operator => snap
                    .operator_view()
                    .expect("operator store built only when the section exists"),
            },
        }
    }

    /// Copy-on-write promotion: a mapped store becomes owned (decoded and
    /// revalidated) so the caller can mutate it; an owned store is returned
    /// as-is.
    pub(crate) fn make_owned(&mut self) -> Result<&mut CsrMatrix> {
        if matches!(self, CsrStore::Mapped { .. }) {
            let owned = self.view().to_owned_matrix()?;
            *self = CsrStore::Owned(owned);
        }
        match self {
            CsrStore::Owned(m) => Ok(m),
            CsrStore::Mapped { .. } => unreachable!("promoted above"),
        }
    }

    /// An owned copy of the matrix (cloning or decoding as needed).
    pub(crate) fn to_matrix(&self) -> CsrMatrix {
        match self {
            CsrStore::Owned(m) => m.clone(),
            CsrStore::Mapped { .. } => self
                .view()
                .to_owned_matrix()
                .expect("mapped sections are verified before an engine is built"),
        }
    }
}

/// Which dense section of a mapped snapshot a [`DenseStore`] points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DenseSection {
    Features,
    Embeddings,
}

/// A dense matrix owned in memory or borrowed from a mapped snapshot.
#[derive(Debug, Clone)]
pub(crate) enum DenseStore {
    Owned(DenseMatrix),
    Mapped {
        snap: Arc<MappedSnapshot>,
        section: DenseSection,
    },
}

impl DenseStore {
    pub(crate) fn view(&self) -> DenseView<'_> {
        match self {
            DenseStore::Owned(m) => m.view(),
            DenseStore::Mapped { snap, section } => match section {
                DenseSection::Features => snap.features_view(),
                DenseSection::Embeddings => snap
                    .embeddings_view()
                    .expect("embedding store built only when the section exists"),
            },
        }
    }

    /// Copy-on-write promotion, mirroring [`CsrStore::make_owned`].
    pub(crate) fn make_owned(&mut self) -> &mut DenseMatrix {
        if matches!(self, DenseStore::Mapped { .. }) {
            let owned = self.view().to_owned_matrix();
            *self = DenseStore::Owned(owned);
        }
        match self {
            DenseStore::Owned(m) => m,
            DenseStore::Mapped { .. } => unreachable!("promoted above"),
        }
    }

    pub(crate) fn rows(&self) -> usize {
        self.view().rows()
    }
}

/// The model weights: decoded up front (owned path) or decoded lazily out
/// of the mapped `MODEL` section the first time the repair path needs them.
#[derive(Debug, Clone)]
pub(crate) enum ModelRef {
    Owned(Arc<ModelSnapshot>),
    Mapped(Arc<MappedSnapshot>),
}

impl ModelRef {
    /// The decoded model. Owned: a cheap `Arc` clone. Mapped: the first
    /// call decodes the `MODEL` blob (cached inside the mapping).
    pub(crate) fn get(&self) -> Result<Arc<ModelSnapshot>> {
        match self {
            ModelRef::Owned(m) => Ok(m.clone()),
            ModelRef::Mapped(snap) => snap.model(),
        }
    }
}
