//! Zero-copy access to snapshot files — the only reader of the format.
//!
//! [`MappedSnapshot`] maps a file (or adopts an in-memory byte buffer)
//! and exposes its array sections as borrowed [`CsrView`]/[`DenseView`]
//! slices — no decode, no allocation proportional to the graph. A
//! row-pointer section is read as the `&[usize]` an owned CSR matrix holds,
//! so mapped and owned matrices share one view type. Validation
//! is split by cost so cold-start stays O(1) in the file size:
//!
//! * **open** — O(#sections): magic, version, endianness, header-table
//!   bounds, 64-byte alignment, overlap/duplicate checks, META decode,
//!   and a cross-check of every array section's byte length against the
//!   dimensions META declares (plus the O(1) `indptr` endpoint checks).
//! * **[`MappedSnapshot::verify`]** — O(bytes): per-section CRC32 and the
//!   O(nnz) CSR structural invariants, 0.3–0.4 ms per MB. Runs once;
//!   success is cached, so repeated engine builds off one mapping pay it
//!   once.
//!
//! ## A file must not change under its mapping
//!
//! A mapping reads the file's pages, not a copy of them: bytes rewritten
//! in place show through it, and a page past a shrunken end of file raises
//! SIGBUS in whichever thread touches it. So **snapshots are immutable
//! once published** — write a new one beside the old and `rename` it into
//! place (the old inode, and every mapping of it, lives until its last
//! mapping is dropped), never truncate or rewrite a served file.
//! [`MappedSnapshot::open`] keeps the file it mapped open, and `verify`
//! re-reads that descriptor's length before it touches a payload page: a
//! file that changed length since `open` is refused with
//! [`SnapshotError::Truncated`] instead of faulting, and one rewritten at
//! the same length fails its checksums. What remains is the window after
//! `verify` has passed — a file truncated *then* still faults the serving
//! thread that next reads a dropped page — which only the publishing rule
//! closes.
//!
//! The array sections are little-endian and the row pointers 64-bit; a
//! big-endian or non-64-bit host gets a typed
//! [`SnapshotError::UnsupportedPlatform`] instead of silently reinterpreted
//! garbage. Mapping uses `mmap(2)` directly (no external crate) on Unix and
//! falls back to a 64-byte-aligned heap copy elsewhere or when mapping
//! fails, so the borrowed views are always correctly aligned either way.

use crate::format::{self, MetaInfo};
use crate::snapshot::{SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
use crate::{Result, ServeError, ServeSnapshot, SnapshotError};
use sigma::snapshot::ModelSnapshot;
use sigma::AggregatorKind;
use sigma_matrix::{CsrView, CsrViewAny, DenseView};
use sigma_obs::{StaticCounter, StaticHistogram, Stopwatch};
use std::fs::File;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

static VERIFY_NS: StaticHistogram = StaticHistogram::new(
    "sigma_serve_snapshot_verify_ns",
    "one full MappedSnapshot::verify pass (CRC32 + CSR structure) that succeeded",
);
static VERIFIED_BYTES: StaticCounter = StaticCounter::new(
    "sigma_serve_snapshot_verified_bytes_total",
    "snapshot bytes that passed MappedSnapshot::verify",
);

/// A 64-byte-aligned heap buffer: the non-mmap backing. `Vec<u8>` only
/// guarantees byte alignment, which would break the `&[usize]` section views,
/// so bytes adopted from memory are copied into an explicitly aligned
/// allocation.
struct AlignedBytes {
    ptr: std::ptr::NonNull<u8>,
    len: usize,
}

impl AlignedBytes {
    fn from_slice(data: &[u8]) -> Self {
        let layout = std::alloc::Layout::from_size_align(data.len().max(1), 64)
            .expect("valid alignment layout");
        // SAFETY: layout has non-zero size; the copy stays within the fresh
        // allocation's bounds.
        unsafe {
            let raw = std::alloc::alloc(layout);
            let ptr = match std::ptr::NonNull::new(raw) {
                Some(p) => p,
                None => std::alloc::handle_alloc_error(layout),
            };
            std::ptr::copy_nonoverlapping(data.as_ptr(), ptr.as_ptr(), data.len());
            Self {
                ptr,
                len: data.len(),
            }
        }
    }

    fn bytes(&self) -> &[u8] {
        // SAFETY: ptr/len describe a live allocation owned by self.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl Drop for AlignedBytes {
    fn drop(&mut self) {
        let layout = std::alloc::Layout::from_size_align(self.len.max(1), 64)
            .expect("valid alignment layout");
        // SAFETY: same layout the buffer was allocated with.
        unsafe { std::alloc::dealloc(self.ptr.as_ptr(), layout) };
    }
}

// SAFETY: the buffer is immutable after construction and owned uniquely.
unsafe impl Send for AlignedBytes {}
unsafe impl Sync for AlignedBytes {}

#[cfg(unix)]
mod sys {
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

/// Where the snapshot bytes live: a private read-only file mapping, or an
/// aligned heap copy.
enum Backing {
    #[cfg(unix)]
    Mmap {
        ptr: *mut u8,
        len: usize,
        /// The mapped file, held so its length can be re-read: pages past
        /// a shrunken end of file fault with SIGBUS.
        file: File,
    },
    Heap(AlignedBytes),
}

impl Backing {
    fn bytes(&self) -> &[u8] {
        match self {
            #[cfg(unix)]
            // SAFETY: the mapping is live for as long as self.
            Backing::Mmap { ptr, len, .. } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            Backing::Heap(buf) => buf.bytes(),
        }
    }

    /// Refuses a mapping whose file no longer has the length that was
    /// mapped (a heap copy has no file to change).
    fn check_file_len(&self) -> Result<()> {
        #[cfg(unix)]
        if let Backing::Mmap { len, file, .. } = self {
            let now = file.metadata()?.len();
            if now != *len as u64 {
                return Err(SnapshotError::Truncated {
                    what: format!("{len}-byte mapping (the file is {now} bytes now)"),
                }
                .into());
            }
        }
        Ok(())
    }
}

impl Drop for Backing {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Backing::Mmap { ptr, len, .. } = self {
            // SAFETY: exactly the region mmap returned.
            unsafe { sys::munmap(*ptr as *mut std::ffi::c_void, *len) };
        }
    }
}

// SAFETY: the mapping is PROT_READ/MAP_PRIVATE and never written.
unsafe impl Send for Backing {}
unsafe impl Sync for Backing {}

/// One parsed header-table entry.
#[derive(Debug, Clone, Copy)]
struct Section {
    tag: [u8; 8],
    offset: usize,
    len: usize,
    crc: u32,
}

/// A snapshot served in place from its file bytes.
///
/// Obtained from [`MappedSnapshot::open`] (mmap) or
/// [`MappedSnapshot::from_bytes`] (aligned heap copy). Header structure is
/// validated up front; call [`MappedSnapshot::verify`] before trusting
/// array contents — the engine constructors do this for you. Cheaply
/// shareable behind an [`Arc`]; borrowed views pin the mapping through it.
pub struct MappedSnapshot {
    backing: Backing,
    sections: Vec<Section>,
    meta: MetaInfo,
    /// The MODEL blob's aggregator tag, read at open.
    aggregator_tag: u32,
    verified: AtomicBool,
    model: OnceLock<Arc<ModelSnapshot>>,
}

impl std::fmt::Debug for MappedSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedSnapshot")
            .field("tag", &self.meta.tag)
            .field("num_nodes", &self.meta.num_nodes)
            .field("bytes", &self.backing.bytes().len())
            .field("verified", &self.verified.load(Ordering::Acquire))
            .finish()
    }
}

fn meta_err(reason: impl Into<String>) -> SnapshotError {
    SnapshotError::Meta {
        reason: reason.into(),
    }
}

impl MappedSnapshot {
    /// Maps `path` read-only and validates the header table. O(1) in the
    /// file size: only the prelude, table, META/`indptr` endpoints are
    /// touched. Falls back to an aligned heap read if mapping fails.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let file = File::open(path)?;
        let len = file.metadata()?.len() as usize;
        if len < format::PRELUDE_LEN {
            return Err(SnapshotError::Truncated {
                what: "header prelude".into(),
            }
            .into());
        }
        #[cfg(unix)]
        {
            use std::os::unix::io::AsRawFd;
            // SAFETY: read-only private mapping of a file we hold open, of
            // the length its metadata just reported.
            let ptr = unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    len,
                    sys::PROT_READ,
                    sys::MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr != usize::MAX as *mut std::ffi::c_void && !ptr.is_null() {
                return Self::from_backing(Backing::Mmap {
                    ptr: ptr as *mut u8,
                    len,
                    file,
                });
            }
        }
        // Mapping unavailable: fall back to an aligned in-memory copy.
        let mut buf = Vec::with_capacity(len);
        use std::io::Read as _;
        let mut file = file;
        file.read_to_end(&mut buf)?;
        Self::from_backing(Backing::Heap(AlignedBytes::from_slice(&buf)))
    }

    /// Adopts an in-memory image (copied into 64-byte-aligned storage)
    /// and validates the header table, exactly as [`MappedSnapshot::open`]
    /// does for a file.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        Self::from_backing(Backing::Heap(AlignedBytes::from_slice(bytes)))
    }

    fn from_backing(backing: Backing) -> Result<Self> {
        let (sections, meta, aggregator_tag) = Self::parse(backing.bytes())?;
        let snap = Self {
            backing,
            sections,
            meta,
            aggregator_tag,
            verified: AtomicBool::new(false),
            model: OnceLock::new(),
        };
        // O(1) endpoint checks on the CSR views (indptr starts at 0, ends
        // at nnz) so the infallible view accessors cannot panic later.
        snap.try_csr_view(
            format::TAG_ADJ_PTR,
            format::TAG_ADJ_IDX,
            format::TAG_ADJ_VAL,
            "adjacency",
        )?;
        if snap.meta.has_operator {
            snap.try_csr_view(
                format::TAG_OP_PTR,
                format::TAG_OP_IDX,
                format::TAG_OP_VAL,
                "operator",
            )?;
        }
        Ok(snap)
    }

    /// Header-table parse and O(#sections) structural validation; returns
    /// the sections, META and the MODEL blob's aggregator tag.
    fn parse(bytes: &[u8]) -> Result<(Vec<Section>, MetaInfo, u32)> {
        if !cfg!(target_endian = "little") {
            return Err(SnapshotError::UnsupportedPlatform {
                reason: "sections are little-endian arrays; this host is big-endian",
            }
            .into());
        }
        if usize::BITS != 64 {
            return Err(SnapshotError::UnsupportedPlatform {
                reason: "row pointers are 64-bit words; this host's usize is not",
            }
            .into());
        }
        if bytes.len() < format::PRELUDE_LEN {
            return Err(SnapshotError::Truncated {
                what: "header prelude".into(),
            }
            .into());
        }
        if bytes[..8] != SNAPSHOT_MAGIC[..] {
            return Err(SnapshotError::BadMagic.into());
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion { found: version }.into());
        }
        let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        if count > format::MAX_SECTIONS {
            return Err(meta_err(format!("implausible section count {count}")).into());
        }
        let table_end = format::PRELUDE_LEN + format::ENTRY_LEN * count;
        if bytes.len() < table_end {
            return Err(SnapshotError::Truncated {
                what: "section table".into(),
            }
            .into());
        }
        let mut sections = Vec::with_capacity(count);
        for i in 0..count {
            let e = &bytes[format::PRELUDE_LEN + i * format::ENTRY_LEN..];
            let tag: [u8; 8] = e[..8].try_into().unwrap();
            let offset = u64::from_le_bytes(e[8..16].try_into().unwrap());
            let len = u64::from_le_bytes(e[16..24].try_into().unwrap());
            let crc = u32::from_le_bytes(e[24..28].try_into().unwrap());
            if offset % format::SECTION_ALIGN as u64 != 0 {
                return Err(SnapshotError::Misaligned {
                    tag: format::tag_str(&tag),
                    offset,
                }
                .into());
            }
            if offset < table_end as u64 {
                return Err(SnapshotError::Overlap {
                    a: "header table".into(),
                    b: format::tag_str(&tag),
                }
                .into());
            }
            let end = offset
                .checked_add(len)
                .ok_or_else(|| SnapshotError::Truncated {
                    what: format!("section {}", format::tag_str(&tag)),
                })?;
            if end > bytes.len() as u64 {
                return Err(SnapshotError::Truncated {
                    what: format!("section {}", format::tag_str(&tag)),
                }
                .into());
            }
            if sections.iter().any(|s: &Section| s.tag == tag) {
                return Err(SnapshotError::DuplicateSection {
                    tag: format::tag_str(&tag),
                }
                .into());
            }
            sections.push(Section {
                tag,
                offset: offset as usize,
                len: len as usize,
                crc,
            });
        }
        // Overlap check over the payload ranges.
        let mut by_offset: Vec<&Section> = sections.iter().collect();
        by_offset.sort_by_key(|s| s.offset);
        for pair in by_offset.windows(2) {
            if pair[0].offset + pair[0].len > pair[1].offset {
                return Err(SnapshotError::Overlap {
                    a: format::tag_str(&pair[0].tag),
                    b: format::tag_str(&pair[1].tag),
                }
                .into());
            }
        }
        let find = |tag: [u8; 8]| sections.iter().find(|s| s.tag == tag);
        let require = |tag: [u8; 8], name: &'static str| {
            find(tag).ok_or(SnapshotError::MissingSection { tag: name })
        };
        let meta_sec = require(format::TAG_META, "META")?;
        let meta = format::decode_meta(&bytes[meta_sec.offset..meta_sec.offset + meta_sec.len])
            .map_err(|e| meta_err(e.to_string()))?;
        // Cross-check every array section's byte length against META.
        let expect = |tag: [u8; 8], name: &'static str, elems: Option<u64>, width: u64| {
            let sec = require(tag, name)?;
            let elems = elems.ok_or_else(|| meta_err("section size overflows"))?;
            let expected = elems
                .checked_mul(width)
                .ok_or_else(|| meta_err("section size overflows"))?;
            if sec.len as u64 != expected {
                return Err(SnapshotError::SectionSize {
                    tag: name.into(),
                    expected,
                    actual: sec.len as u64,
                });
            }
            Ok(())
        };
        let n = meta.num_nodes;
        expect(format::TAG_ADJ_PTR, "ADJ_PTR", n.checked_add(1), 8)?;
        expect(format::TAG_ADJ_IDX, "ADJ_IDX", Some(meta.adj_nnz), 4)?;
        expect(format::TAG_ADJ_VAL, "ADJ_VAL", Some(meta.adj_nnz), 4)?;
        expect(format::TAG_FEAT, "FEAT", n.checked_mul(meta.feature_dim), 4)?;
        if meta.has_operator {
            expect(format::TAG_OP_PTR, "OP_PTR", n.checked_add(1), 8)?;
            expect(format::TAG_OP_IDX, "OP_IDX", Some(meta.op_nnz), 4)?;
            expect(format::TAG_OP_VAL, "OP_VAL", Some(meta.op_nnz), 4)?;
        }
        if meta.has_embeddings {
            expect(format::TAG_EMB, "EMB", n.checked_mul(meta.num_classes), 4)?;
        }
        // The MODEL blob's scalars, not its weights: a tag the decoders know
        // must agree with META on whether the model aggregates.
        let model = require(format::TAG_MODEL, "MODEL")?;
        let mut head = &bytes[model.offset..model.offset + model.len];
        let tag = format::decode_model_header(&mut head)?.aggregator_tag;
        if let Ok(kind) = format::decode_aggregator(tag) {
            if (kind == AggregatorKind::SimRank) != meta.has_operator {
                return Err(ServeError::Corrupt {
                    reason: format!(
                        "MODEL aggregator {kind:?} disagrees with META (has_operator = {})",
                        meta.has_operator
                    ),
                });
            }
        }
        Ok((sections, meta, tag))
    }

    fn section(&self, tag: [u8; 8]) -> &Section {
        self.sections
            .iter()
            .find(|s| s.tag == tag)
            .expect("section presence was validated at open")
    }

    fn section_bytes(&self, tag: [u8; 8]) -> &[u8] {
        let s = self.section(tag);
        &self.backing.bytes()[s.offset..s.offset + s.len]
    }

    /// Reinterprets an aligned little-endian section as a typed slice.
    fn typed<T: Copy>(&self, tag: [u8; 8]) -> &[T] {
        let bytes = self.section_bytes(tag);
        let size = std::mem::size_of::<T>();
        debug_assert_eq!(bytes.len() % size, 0);
        debug_assert_eq!(bytes.as_ptr() as usize % std::mem::align_of::<T>(), 0);
        // SAFETY: section offsets are 64-byte aligned within a 64-byte
        // aligned backing (mmap is page-aligned; the heap path allocates at
        // align 64, and every T here has alignment at most 8 <= 64),
        // lengths were cross-checked against META, the host is
        // little-endian with a 64-bit usize (checked at open), and
        // u32/usize/f32 accept any bit pattern.
        unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const T, bytes.len() / size) }
    }

    fn try_csr_view(
        &self,
        ptr_tag: [u8; 8],
        idx_tag: [u8; 8],
        val_tag: [u8; 8],
        section: &'static str,
    ) -> Result<CsrView<'_>> {
        let n = self.meta.num_nodes as usize;
        CsrView::new(
            n,
            n,
            self.typed::<usize>(ptr_tag),
            self.typed::<u32>(idx_tag),
            self.typed::<f32>(val_tag),
        )
        .map_err(|e| {
            SnapshotError::InvalidCsr {
                section,
                detail: e.to_string(),
            }
            .into()
        })
    }

    /// Verifies section contents: every header-table CRC32, then the
    /// O(nnz) CSR structural invariants of the adjacency and operator, each
    /// in one pass over its sections. A file mapping is first refused if
    /// its file changed length since [`MappedSnapshot::open`]. Runs once —
    /// success is cached, later calls return immediately.
    pub fn verify(&self) -> Result<()> {
        if self.verified.load(Ordering::Acquire) {
            return Ok(());
        }
        let clock = Stopwatch::start();
        self.backing.check_file_len()?;
        let bytes = self.backing.bytes();
        let payloads: Vec<&[u8]> = self
            .sections
            .iter()
            .map(|s| &bytes[s.offset..s.offset + s.len])
            .collect();
        for (s, crc) in self.sections.iter().zip(format::crc32(&payloads)) {
            if crc != s.crc {
                return Err(SnapshotError::ChecksumMismatch {
                    tag: format::tag_str(&s.tag),
                }
                .into());
            }
        }
        let check = |view: CsrView<'_>, section: &'static str| {
            view.validate_structure()
                .map_err(|e| SnapshotError::InvalidCsr {
                    section,
                    detail: e.to_string(),
                })
        };
        check(self.adjacency_view(), "adjacency")?;
        if let Some(op) = self.operator_view() {
            check(op, "operator")?;
        }
        self.verified.store(true, Ordering::Release);
        VERIFY_NS.record(clock.elapsed_ns());
        VERIFIED_BYTES.add(bytes.len() as u64);
        Ok(())
    }

    /// Whether `other` holds the same artifact: the same mapping, or equal
    /// section tables — tags, lengths and stored CRCs — which on verified
    /// mappings means equal contents. O(#sections).
    pub(crate) fn same_artifact(&self, other: &Self) -> bool {
        std::ptr::eq(self, other)
            || self.sections.len() == other.sections.len()
                && self
                    .sections
                    .iter()
                    .zip(&other.sections)
                    .all(|(a, b)| (a.tag, a.len, a.crc) == (b.tag, b.len, b.crc))
    }

    /// The free-form tag recorded at save time.
    pub fn tag(&self) -> &str {
        &self.meta.tag
    }

    /// Number of nodes this snapshot serves.
    pub fn num_nodes(&self) -> usize {
        self.meta.num_nodes as usize
    }

    /// Width of the feature matrix `X`.
    pub fn feature_dim(&self) -> usize {
        self.meta.feature_dim as usize
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.meta.num_classes as usize
    }

    /// The Eq. 6 blend weight recorded at save time (already resolved from
    /// `alpha_raw` if the model learned it).
    pub fn effective_alpha(&self) -> f64 {
        self.meta.effective_alpha
    }

    /// Whether the snapshot carries an aggregation operator.
    pub fn has_operator(&self) -> bool {
        self.meta.has_operator
    }

    /// The aggregator the MODEL blob names, read at open without its
    /// weights. A tag no decoder knows is `Corrupt`; a known one agrees with
    /// [`MappedSnapshot::has_operator`].
    pub(crate) fn aggregator(&self) -> Result<AggregatorKind> {
        format::decode_aggregator(self.aggregator_tag)
    }

    /// Whether the snapshot carries precomputed embeddings `H`.
    pub fn has_embeddings(&self) -> bool {
        self.meta.has_embeddings
    }

    /// Total mapped bytes.
    pub fn len_bytes(&self) -> usize {
        self.backing.bytes().len()
    }

    /// Borrowed view of the adjacency matrix.
    pub fn adjacency_view(&self) -> CsrView<'_> {
        self.try_csr_view(
            format::TAG_ADJ_PTR,
            format::TAG_ADJ_IDX,
            format::TAG_ADJ_VAL,
            "adjacency",
        )
        .expect("endpoint checks ran at open")
    }

    /// Borrowed view of the aggregation operator, if present.
    pub fn operator_view(&self) -> Option<CsrViewAny<'_>> {
        if !self.meta.has_operator {
            return None;
        }
        Some(
            self.try_csr_view(
                format::TAG_OP_PTR,
                format::TAG_OP_IDX,
                format::TAG_OP_VAL,
                "operator",
            )
            .expect("endpoint checks ran at open"),
        )
    }

    /// Borrowed view of the node features `X`.
    pub fn features_view(&self) -> DenseView<'_> {
        DenseView::new(
            self.num_nodes(),
            self.feature_dim(),
            self.typed::<f32>(format::TAG_FEAT),
        )
        .expect("section size was cross-checked at open")
    }

    /// Borrowed view of the precomputed embeddings `H`, if present.
    pub fn embeddings_view(&self) -> Option<DenseView<'_>> {
        if !self.meta.has_embeddings {
            return None;
        }
        Some(
            DenseView::new(
                self.num_nodes(),
                self.num_classes(),
                self.typed::<f32>(format::TAG_EMB),
            )
            .expect("section size was cross-checked at open"),
        )
    }

    /// Decodes the model weights (and re-attaches the operator from its
    /// array sections). Lazy and cached: the first call pays the decode,
    /// later calls clone the [`Arc`]. Engines only need this on the repair
    /// path, so a mapped engine's cold-start never decodes the MLP stacks.
    pub fn model(&self) -> Result<Arc<ModelSnapshot>> {
        if let Some(m) = self.model.get() {
            return Ok(m.clone());
        }
        let mut decoded = format::decode_model_blob(self.section_bytes(format::TAG_MODEL))?;
        decoded.operator = match self.operator_view() {
            Some(view) => Some(view.to_owned_matrix()?),
            None => None,
        };
        decoded.validate()?;
        if decoded.num_nodes() != self.num_nodes()
            || decoded.feature_dim() != self.feature_dim()
            || decoded.num_classes() != self.num_classes()
        {
            return Err(meta_err("MODEL dimensions disagree with META").into());
        }
        let arc = Arc::new(decoded);
        Ok(self.model.get_or_init(|| arc).clone())
    }

    /// Fully decodes the mapping into an owned [`ServeSnapshot`]
    /// (verifying first): the O(bytes) path behind [`ServeSnapshot::load`].
    pub fn to_snapshot(&self) -> Result<ServeSnapshot> {
        self.verify()?;
        let model = self.model()?.as_ref().clone();
        let features = self.features_view().to_owned_matrix();
        let adjacency = self.adjacency_view().to_owned_matrix()?;
        let mut snap = ServeSnapshot::new(self.meta.tag.clone(), model, features, adjacency)?;
        if let Some(emb) = self.embeddings_view() {
            snap.embeddings = Some(emb.to_owned_matrix());
        }
        Ok(snap)
    }
}
