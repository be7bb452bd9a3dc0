//! Corrupt-snapshot suite: every class of container damage is rejected
//! with a typed [`SnapshotError`] — never a panic, never garbage data —
//! from every entry point ([`MappedSnapshot`] and [`ServeSnapshot`] alike).
//!
//! Each test takes a valid image produced by [`ServeSnapshot::write_to`],
//! damages one structural property at a known byte offset (the layout is
//! fixed: 16-byte prelude, then 32-byte table entries of
//! `tag[8] offset[8] len[8] crc[4] pad[4]`), and asserts the precise error
//! variant. Damage the header catches fails at [`MappedSnapshot::from_bytes`]
//! (the O(#sections) pass); payload damage fails at
//! [`MappedSnapshot::verify`] (the O(bytes) pass).

use sigma_serve::{
    EngineConfig, InferenceEngine, MappedSnapshot, ServeError, ServeSnapshot, SnapshotError,
    SNAPSHOT_VERSION,
};
// The re-stamping tests checksum their own corruption with the table-free
// definition, not with the code under test.
use sigma_testutil::reference::crc32_bitwise as crc32;
use sigma_testutil::{random_graph, serving_fixture};
use std::sync::Arc;

const PRELUDE_LEN: usize = 16;
const ENTRY_LEN: usize = 32;

/// A small valid image (with an operator; no embeddings).
fn image() -> Vec<u8> {
    let fixture = serving_fixture(&random_graph(30, 14, 71), 6, 71);
    let mut buf = Vec::new();
    fixture.snapshot.write_to(&mut buf).unwrap();
    buf
}

/// Locates the table entry for `tag`, returning its byte position.
fn entry_pos(image: &[u8], tag: &[u8; 8]) -> usize {
    let count = u32::from_le_bytes(image[12..16].try_into().unwrap()) as usize;
    (0..count)
        .map(|i| PRELUDE_LEN + i * ENTRY_LEN)
        .find(|&p| &image[p..p + 8] == tag)
        .unwrap_or_else(|| panic!("no section {:?}", String::from_utf8_lossy(tag)))
}

fn entry_offset(image: &[u8], tag: &[u8; 8]) -> usize {
    let p = entry_pos(image, tag);
    u64::from_le_bytes(image[p + 8..p + 16].try_into().unwrap()) as usize
}

fn entry_len(image: &[u8], tag: &[u8; 8]) -> usize {
    let p = entry_pos(image, tag);
    u64::from_le_bytes(image[p + 16..p + 24].try_into().unwrap()) as usize
}

fn open_err(image: &[u8]) -> SnapshotError {
    match MappedSnapshot::from_bytes(image) {
        Err(ServeError::Snapshot(e)) => e,
        Ok(_) => panic!("corrupt image was accepted"),
        Err(other) => panic!("expected a typed SnapshotError, got {other:?}"),
    }
}

fn verify_err(image: &[u8]) -> SnapshotError {
    let snap = MappedSnapshot::from_bytes(image).expect("header damage should not be needed here");
    match snap.verify() {
        Err(ServeError::Snapshot(e)) => e,
        Ok(()) => panic!("corrupt payload passed verification"),
        Err(other) => panic!("expected a typed SnapshotError, got {other:?}"),
    }
}

/// The writer's bytes are part of the format: the image of a fixed-seed
/// fixture is pinned — length, whole-image checksum (by the table-free
/// definition) and the header table's CRC column. A deliberate change to
/// the fixture, the model initialiser or the layout re-captures these; a
/// change to the checksum routine must not move them. The operator
/// sections (`OP_IDX`, `OP_VAL`) were re-captured when the fixture's
/// maintainer began serving the coupled LocalPush operator training uses.
/// Format v3 re-captured exactly what moves when row pointers become `u64`
/// words and META drops its two width fields: the version field, the
/// `META`, `ADJ_PTR` and `OP_PTR` CRCs, and the image lengths and
/// whole-image CRCs (9 236 → 9 492 and 9 684 → 9 940 bytes). Every other
/// section is as the byte-at-a-time CRC wrote it.
#[test]
fn written_image_is_byte_identical_to_the_pinned_parent_image() {
    let image = image();
    assert_eq!(u32::from_le_bytes(image[8..12].try_into().unwrap()), 3);
    assert_eq!(image.len(), 9492);
    assert_eq!(crc32(&image), 0x978C_9A19);
    let pinned: [(&[u8; 8], u32); 9] = [
        (b"META    ", 0x167F_A076),
        (b"ADJ_PTR ", 0xA4E8_5BC3),
        (b"ADJ_IDX ", 0xAD55_576B),
        (b"ADJ_VAL ", 0x2351_D6E2),
        (b"OP_PTR  ", 0x80A0_68B7),
        (b"OP_IDX  ", 0x815D_2097),
        (b"OP_VAL  ", 0xD5AF_A390),
        (b"FEAT    ", 0x140D_E98F),
        (b"MODEL   ", 0x43A2_3932),
    ];
    assert_eq!(image[12] as usize, pinned.len());
    for (tag, crc) in pinned {
        let p = entry_pos(&image, tag);
        let stamped = u32::from_le_bytes(image[p + 24..p + 28].try_into().unwrap());
        assert_eq!(stamped, crc, "section {}", String::from_utf8_lossy(tag));
    }
    // With the optional embedding section present.
    let mut fixture = serving_fixture(&random_graph(30, 14, 71), 6, 71);
    fixture.snapshot.precompute_embeddings().unwrap();
    let mut image = Vec::new();
    fixture.snapshot.write_to(&mut image).unwrap();
    assert_eq!((image.len(), crc32(&image)), (9940, 0xB20C_622C));
}

#[test]
fn bad_magic_is_rejected() {
    let mut image = image();
    image[0] ^= 0xFF;
    assert_eq!(open_err(&image), SnapshotError::BadMagic);
}

#[test]
fn future_version_is_rejected_with_the_found_version() {
    // 2 is the retired layout whose row pointers were `u32` below 2³² nnz;
    // 99 is a version from the future.
    for found in [2u32, 99] {
        let mut image = image();
        image[8..12].copy_from_slice(&found.to_le_bytes());
        assert_eq!(
            open_err(&image),
            SnapshotError::UnsupportedVersion { found }
        );
        // The decoding reader reports the same typed error.
        assert!(matches!(
            ServeSnapshot::read_from(&mut image.as_slice()),
            Err(ServeError::Snapshot(SnapshotError::UnsupportedVersion { found: f })) if f == found
        ));
    }
}

#[test]
fn retired_v1_prelude_is_refused_by_every_entry_point() {
    // The streamed v1 layout: magic, version 1, then a length-prefixed tag
    // string. Nothing writes it any more and nothing reads it.
    let mut image = b"SIGMASNP".to_vec();
    image.extend_from_slice(&1u32.to_le_bytes());
    image.extend_from_slice(&4u64.to_le_bytes());
    image.extend_from_slice(b"demo");
    let path = std::env::temp_dir().join(format!("sigma-v1-{}.snapshot", std::process::id()));
    std::fs::write(&path, &image).unwrap();
    let by_entry_point = [
        MappedSnapshot::from_bytes(&image).map(drop),
        MappedSnapshot::open(&path).map(drop),
        ServeSnapshot::load(&path).map(drop),
        ServeSnapshot::read_from(&mut image.as_slice()).map(drop),
    ];
    let _ = std::fs::remove_file(&path);
    for result in by_entry_point {
        assert!(
            matches!(
                result,
                Err(ServeError::Snapshot(SnapshotError::UnsupportedVersion {
                    found: 1
                }))
            ),
            "got {result:?}"
        );
    }
}

#[test]
fn truncations_at_every_boundary_are_typed() {
    let image = image();
    // Mid-prelude.
    assert!(matches!(
        open_err(&image[..PRELUDE_LEN - 4]),
        SnapshotError::Truncated { .. }
    ));
    // Mid-table.
    assert!(matches!(
        open_err(&image[..PRELUDE_LEN + ENTRY_LEN + 7]),
        SnapshotError::Truncated { .. }
    ));
    // Mid-payload: cut inside the last section.
    assert!(matches!(
        open_err(&image[..image.len() - 5]),
        SnapshotError::Truncated { .. }
    ));
    // Every possible cut is rejected without a panic (the header passes may
    // return different variants depending on where the cut lands, but none
    // may succeed: the final MODEL section always loses bytes).
    for cut in (0..image.len()).step_by(61) {
        assert!(
            MappedSnapshot::from_bytes(&image[..cut]).is_err(),
            "truncation to {cut} bytes was accepted"
        );
    }
}

#[test]
fn misaligned_section_offset_is_rejected() {
    let mut image = image();
    let p = entry_pos(&image, b"ADJ_IDX ");
    let offset = entry_offset(&image, b"ADJ_IDX ") as u64 + 4;
    image[p + 8..p + 16].copy_from_slice(&offset.to_le_bytes());
    assert!(matches!(
        open_err(&image),
        SnapshotError::Misaligned { tag, offset: o } if tag == "ADJ_IDX" && o == offset
    ));
}

#[test]
fn section_offset_inside_the_header_table_is_rejected() {
    let mut image = image();
    let p = entry_pos(&image, b"ADJ_VAL ");
    image[p + 8..p + 16].copy_from_slice(&0u64.to_le_bytes());
    assert!(matches!(
        open_err(&image),
        SnapshotError::Overlap { a, .. } if a == "header table"
    ));
}

#[test]
fn overlapping_sections_are_rejected() {
    let mut image = image();
    // Point ADJ_VAL at ADJ_IDX's payload (aligned, in bounds, non-empty
    // intersection) — a reader that trusted it would alias two arrays.
    let p = entry_pos(&image, b"ADJ_VAL ");
    let idx_offset = entry_offset(&image, b"ADJ_IDX ") as u64;
    image[p + 8..p + 16].copy_from_slice(&idx_offset.to_le_bytes());
    assert!(matches!(open_err(&image), SnapshotError::Overlap { .. }));
}

#[test]
fn duplicate_tags_are_rejected() {
    let mut image = image();
    let p = entry_pos(&image, b"ADJ_VAL ");
    image[p..p + 8].copy_from_slice(b"ADJ_IDX ");
    assert!(matches!(
        open_err(&image),
        SnapshotError::DuplicateSection { tag } if tag == "ADJ_IDX"
    ));
}

#[test]
fn missing_required_section_is_rejected() {
    let mut image = image();
    // Rename MODEL to an unknown tag: unknown sections are tolerated
    // (forward compatibility), but the required one is now absent.
    let p = entry_pos(&image, b"MODEL   ");
    image[p..p + 8].copy_from_slice(b"XXXXXXXX");
    assert_eq!(
        open_err(&image),
        SnapshotError::MissingSection { tag: "MODEL" }
    );
}

#[test]
fn section_size_disagreeing_with_meta_is_rejected() {
    // One index short, and a pointer section of 4-byte words (the retired
    // v2 width) where every row pointer is 8 bytes.
    let full = image();
    for (tag, name, len) in [
        (b"ADJ_IDX ", "ADJ_IDX", entry_len(&full, b"ADJ_IDX ") - 4),
        (b"ADJ_PTR ", "ADJ_PTR", entry_len(&full, b"ADJ_PTR ") / 2),
    ] {
        let mut image = full.clone();
        let p = entry_pos(&image, tag);
        image[p + 16..p + 24].copy_from_slice(&(len as u64).to_le_bytes());
        assert!(matches!(
            open_err(&image),
            SnapshotError::SectionSize { tag, .. } if tag == name
        ));
    }
}

#[test]
fn implausible_section_count_is_rejected() {
    let mut image = image();
    image[12..16].copy_from_slice(&65u32.to_le_bytes());
    assert!(matches!(open_err(&image), SnapshotError::Meta { .. }));
}

#[test]
fn flipped_payload_byte_fails_checksum_verification() {
    let mut image = image();
    let offset = entry_offset(&image, b"FEAT    ");
    image[offset + 3] ^= 0x40;
    // The header pass does not read payloads, so open still succeeds …
    let snap = MappedSnapshot::from_bytes(&image).unwrap();
    // … and the content pass pins the damage to the section.
    assert!(matches!(
        snap.verify(),
        Err(ServeError::Snapshot(SnapshotError::ChecksumMismatch { tag })) if tag == "FEAT"
    ));
}

#[test]
fn indptr_overflowing_nnz_is_rejected_at_open() {
    let mut image = image();
    // The adjacency indptr endpoint must equal nnz; this is one of the O(1)
    // checks open performs so the view accessors can never slice out of
    // bounds. The final pointer is the section's last 8-byte word.
    let offset = entry_offset(&image, b"ADJ_PTR ");
    let len = entry_len(&image, b"ADJ_PTR ");
    let nnz = entry_len(&image, b"ADJ_IDX ") / 4;
    let last = offset + len - 8;
    image[last..last + 8].copy_from_slice(&(nnz as u64 + 1).to_le_bytes());
    assert!(matches!(
        open_err(&image),
        SnapshotError::InvalidCsr {
            section: "adjacency",
            ..
        }
    ));
}

#[test]
fn non_monotonic_indptr_is_rejected_at_verify() {
    let mut image = image();
    // Break monotonicity in the middle of the adjacency indptr, then
    // re-stamp the CRC with an independent implementation so the damage
    // reaches the structural check rather than tripping the checksum.
    let offset = entry_offset(&image, b"ADJ_PTR ");
    let len = entry_len(&image, b"ADJ_PTR ");
    let mid = offset + (len / 16) * 8;
    image[mid..mid + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    let crc = crc32(&image[offset..offset + len]);
    let p = entry_pos(&image, b"ADJ_PTR ");
    image[p + 24..p + 28].copy_from_slice(&crc.to_le_bytes());
    assert!(matches!(
        verify_err(&image),
        SnapshotError::InvalidCsr {
            section: "adjacency",
            ..
        }
    ));
}

#[test]
fn out_of_range_column_index_is_rejected_at_verify() {
    let mut image = image();
    let offset = entry_offset(&image, b"ADJ_IDX ");
    let len = entry_len(&image, b"ADJ_IDX ");
    image[offset..offset + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let crc = crc32(&image[offset..offset + len]);
    let p = entry_pos(&image, b"ADJ_IDX ");
    image[p + 24..p + 28].copy_from_slice(&crc.to_le_bytes());
    assert!(matches!(
        verify_err(&image),
        SnapshotError::InvalidCsr {
            section: "adjacency",
            ..
        }
    ));
    // The detail names the row the bad column sits in: the first entry is
    // row 0's (every fixture node has a ring edge) …
    let at = format!("index (0, {})", u32::MAX);
    assert!(matches!(
        verify_err(&image),
        SnapshotError::InvalidCsr { detail, .. } if detail.contains(&at)
    ));
    // … and the last entry is the last row's.
    let mut image = crate::image();
    let last = offset + len - 4;
    image[last..last + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let crc = crc32(&image[offset..offset + len]);
    image[p + 24..p + 28].copy_from_slice(&crc.to_le_bytes());
    let at = format!("index (29, {})", u32::MAX);
    assert!(matches!(
        verify_err(&image),
        SnapshotError::InvalidCsr { section: "adjacency", detail } if detail.contains(&at)
    ));
}

#[test]
fn file_truncated_under_a_live_mapping_is_refused_not_faulted() {
    // Pages past a shrunken end of file raise SIGBUS when touched, so the
    // content pass must notice the new length before it reads anything.
    let image = image();
    let path = std::env::temp_dir().join(format!(
        "sigma-truncated-under-map-{}.snapshot",
        std::process::id()
    ));
    std::fs::write(&path, &image).unwrap();
    let mapped = Arc::new(MappedSnapshot::open(&path).unwrap());
    // Keep the header and drop every payload page behind it.
    std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .unwrap()
        .set_len(4096)
        .unwrap();
    let refused = [
        mapped.verify(),
        InferenceEngine::from_mapped(mapped.clone(), EngineConfig::default()).map(drop),
    ];
    // A fresh open of the short file fails in the header pass instead.
    let reopened = MappedSnapshot::open(&path).map(drop);
    let _ = std::fs::remove_file(&path);
    for result in refused.into_iter().chain([reopened]) {
        assert!(
            matches!(
                result,
                Err(ServeError::Snapshot(SnapshotError::Truncated { .. }))
            ),
            "got {result:?}"
        );
    }
}

#[test]
fn decoding_reader_reports_damage_as_typed_snapshot_errors() {
    // ServeSnapshot::read_from is MappedSnapshot::from_bytes + to_snapshot:
    // damage keeps its typed variant.
    let mut image = image();
    let p = entry_pos(&image, b"MODEL   ");
    image[p..p + 8].copy_from_slice(b"XXXXXXXX");
    assert!(matches!(
        ServeSnapshot::read_from(&mut image.as_slice()),
        Err(ServeError::Snapshot(SnapshotError::MissingSection {
            tag: "MODEL"
        }))
    ));
}

#[test]
fn snapshot_error_displays_are_informative() {
    // The Display strings are part of the operator-facing contract: each
    // names the damaged structure so `sigma snapshot` failures are
    // actionable from the message alone.
    let e = SnapshotError::SectionSize {
        tag: "ADJ_IDX".into(),
        expected: 120,
        actual: 116,
    };
    let msg = e.to_string();
    assert!(msg.contains("ADJ_IDX") && msg.contains("120") && msg.contains("116"));
    let e = SnapshotError::Misaligned {
        tag: "FEAT".into(),
        offset: 100,
    };
    assert!(e.to_string().contains("FEAT"));
    // A refused version names what was found and what this reader serves.
    let msg = SnapshotError::UnsupportedVersion { found: 2 }.to_string();
    assert!(msg.contains("version 2"), "{msg}");
    assert!(msg.contains(&format!("v{SNAPSHOT_VERSION} only")), "{msg}");
}
