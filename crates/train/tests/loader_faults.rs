//! Dataset format fault suite: every way a `*.mbsds` file can be damaged
//! — wrong magic, another version, truncation, mid-chunk tears, flipped
//! bytes in the head or the chunks, a hostile head under a truthful
//! header — must surface as a structured [`Error`], never a panic, never
//! an allocation sized by a length field, and never a garbage tensor
//! (this binary's allocator records the largest request per thread).
//! Plus the format-pinning half: a property-based save → open round trip
//! over arbitrary shapes/labels/bit patterns, and golden files committed
//! to the repo so accidental format drift breaks CI instead of silently
//! orphaning generated datasets.

use std::fs;
use std::path::{Path, PathBuf};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use mbs_tensor::Tensor;
use mbs_train::container::{self, Error};
use mbs_train::data::{generate, Dataset};
use mbs_train::loader::{
    save_dataset_chunked, DiskDataset, StreamLoader, MBSDS_MAGIC, MBSDS_VERSION,
};

mod common;

#[global_allocator]
static ALLOC: common::Probe = common::Probe;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mbsfault-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small valid file to damage: 10 samples of [3, 4, 4] in chunks of 4.
fn valid_file(dir: &Path) -> PathBuf {
    let path = dir.join("victim.mbsds");
    save_dataset_chunked(&generate(10, 4, 0.2, 99), &path, 4).unwrap();
    path
}

fn open_err(path: &Path) -> Error {
    DiskDataset::open(path).expect_err("damaged file must not open")
}

#[test]
fn wrong_magic_is_a_format_error() {
    let dir = scratch("magic");
    let path = valid_file(&dir);
    let mut bytes = fs::read(&path).unwrap();
    bytes[0] = b'X'; // "MBSDS" -> "XBSDS"
    fs::write(&path, &bytes).unwrap();
    match open_err(&path) {
        Error::Format(msg) => assert!(msg.contains("magic"), "{msg}"),
        other => panic!("want Format, got {other}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn future_version_is_a_structured_version_error() {
    let dir = scratch("version");
    let path = valid_file(&dir);
    let mut bytes = fs::read(&path).unwrap();
    assert_eq!(&bytes[..7], b"MBSDS 2");
    bytes[6] = b'7'; // version 2 -> 7, same header length
    fs::write(&path, &bytes).unwrap();
    match open_err(&path) {
        Error::Version(v) => {
            assert_eq!(v, 7);
            assert!(
                v > MBSDS_VERSION,
                "test premise: 7 must be a FUTURE version"
            );
        }
        other => panic!("want Version, got {other}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn truncated_file_fails_the_length_check() {
    let dir = scratch("truncate");
    let path = valid_file(&dir);
    let bytes = fs::read(&path).unwrap();
    // Cut a whole trailing chunk plus a bit: the header + head still
    // parse, so only the body-length check can catch it.
    fs::write(&path, &bytes[..bytes.len() - 40]).unwrap();
    match open_err(&path) {
        Error::Format(msg) => assert!(msg.contains("truncated"), "{msg}"),
        other => panic!("want Format, got {other}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn mid_chunk_torn_write_fails_the_length_check() {
    let dir = scratch("torn");
    let path = valid_file(&dir);
    let bytes = fs::read(&path).unwrap();
    // Tear inside a record (7 bytes is mid-f32): the classic half-written
    // chunk a crash without the atomic rename would leave behind.
    fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
    match open_err(&path) {
        Error::Format(msg) => assert!(msg.contains("torn"), "{msg}"),
        other => panic!("want Format, got {other}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn file_ending_inside_the_index_is_a_format_error() {
    let dir = scratch("shortindex");
    let path = valid_file(&dir);
    let bytes = fs::read(&path).unwrap();
    let nl = bytes.iter().position(|&b| b == b'\n').unwrap();
    // Header + 5 bytes of the head, which holds the chunk checksums.
    fs::write(&path, &bytes[..nl + 5]).unwrap();
    match open_err(&path) {
        Error::Format(msg) => assert!(msg.contains("truncated"), "{msg}"),
        other => panic!("want Format, got {other}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn flipped_index_byte_fails_the_index_checksum() {
    let dir = scratch("indexflip");
    let path = valid_file(&dir);
    let mut bytes = fs::read(&path).unwrap();
    let nl = bytes.iter().position(|&b| b == b'\n').unwrap();
    bytes[nl + 3] ^= 0x20; // inside the head
    fs::write(&path, &bytes).unwrap();
    match open_err(&path) {
        Error::Format(msg) => assert!(msg.contains("checksum"), "{msg}"),
        other => panic!("want Format, got {other}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn empty_and_garbage_files_are_format_errors() {
    let dir = scratch("garbage");
    let empty = dir.join("empty.mbsds");
    fs::write(&empty, b"").unwrap();
    assert!(matches!(open_err(&empty), Error::Format(_)));

    let garbage = dir.join("garbage.mbsds");
    fs::write(&garbage, vec![0xAAu8; 512]).unwrap();
    assert!(matches!(open_err(&garbage), Error::Format(_)));
    let _ = fs::remove_dir_all(&dir);
}

/// Writes `bytes` as a dataset file and opens it, under the shared
/// harness's promises (structured error, no allocation beyond the file
/// plus a fixed header/message allowance); returns the error.
fn open_hostile(dir: &Path, bytes: &[u8], what: &str) -> Error {
    let path = dir.join("hostile.mbsds");
    let mut open = |bytes: &[u8]| {
        fs::write(&path, bytes).unwrap();
        DiskDataset::open(&path)
    };
    common::mutate::hostile(bytes, false, what, &mut open).expect("hostile bytes must not open")
}

/// A v2 file from raw parts: `words` as the head under a truthful
/// header, then `body`.
fn framed(words: &[u64], body: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::new();
    let start = container::begin(&mut bytes, MBSDS_MAGIC, MBSDS_VERSION);
    for w in words {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    container::seal(&mut bytes, start);
    bytes.extend_from_slice(body);
    bytes
}

fn assert_format(err: Error, want: &str) {
    match err {
        Error::Format(msg) => assert!(msg.contains(want), "{msg}"),
        other => panic!("want Format({want}), got {other}"),
    }
}

/// A header that declares a head far past the end of the file is refused
/// before anything is allocated for it.
#[test]
fn a_head_length_past_the_end_of_the_file_is_a_format_error() {
    let dir = scratch("headlen");
    let mut bytes = framed(&[1, 1, 1, 1, 1, 0], &[0; 8]);
    let field = MBSDS_MAGIC.len() + 3;
    bytes[field..field + 20].copy_from_slice(b"00100000000000000000"); // 10^17
    assert_format(
        open_hostile(&dir, &bytes, "head of 10^17 bytes"),
        "truncated",
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Geometry whose `c·h·w`, record size (`4 + 4·c·h·w`) or body size
/// (`n · record`) overflows `usize` is refused, not wrapped into a small
/// file that opens.
#[test]
fn overflowing_geometry_is_a_format_error() {
    let dir = scratch("overflow");
    let cases: [(&str, [u64; 4]); 3] = [
        ("c·h·w", [1, 1 << 22, 1 << 22, 1 << 22]),
        ("record", [1, 1 << 20, 1 << 21, 1 << 21]),
        ("n·record", [1 << 40, 1 << 8, 1 << 8, 1 << 8]),
    ];
    for (what, [n, c, h, w]) in cases {
        // One chunk of all `n` samples, so the checksum table is one word.
        let bytes = framed(&[n, c, h, w, n, 0], &[0; 4]);
        assert_format(open_hostile(&dir, &bytes, what), "overflows");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// The head must hold exactly one checksum per chunk,
/// `ceil(n / chunk_samples)` of them.
#[test]
fn a_checksum_count_unlike_the_chunk_count_is_a_format_error() {
    let dir = scratch("count");
    let body = [0u8; 10 * (4 + 4 * 2)];
    // 10 samples of [1, 1, 2] in chunks of 4: three chunks.
    for checksums in [0, 2, 4, 40] {
        let mut words = vec![10, 1, 1, 2, 4];
        words.resize(5 + checksums, 0);
        let what = format!("{checksums} checksums");
        assert_format(
            open_hostile(&dir, &framed(&words, &body), &what),
            "checksum",
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

/// The body must be exactly `n · record` bytes: a byte short or a byte
/// over is refused at open.
#[test]
fn a_body_length_unlike_the_records_is_a_format_error() {
    let dir = scratch("body");
    let words = [2, 1, 1, 1, 2, 0];
    for len in [0, 15, 17, 32] {
        let what = format!("body of {len} bytes for 16");
        assert_format(
            open_hostile(&dir, &framed(&words, &vec![0; len]), &what),
            "body",
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A flipped byte in the data region passes `open` (chunks validate
/// lazily) but must fail the chunk checksum at read time — from both the
/// eager `load` path and the background prefetch thread — naming the
/// damaged chunk, never returning the mangled values.
#[test]
fn flipped_chunk_byte_is_chunk_corruption_on_every_read_path() {
    let dir = scratch("chunkflip");
    let path = valid_file(&dir);
    let mut bytes = fs::read(&path).unwrap();
    let last = bytes.len() - 5;
    bytes[last] ^= 0x01; // inside the final chunk (chunk 2: samples 8..10)
    fs::write(&path, &bytes).unwrap();

    let disk = DiskDataset::open(&path).expect("open validates header+index only");
    match disk.load().expect_err("load must validate chunks") {
        Error::Corrupt { chunk, .. } => assert_eq!(chunk, 2),
        other => panic!("want ChunkCorrupt, got {other}"),
    }

    // The streamed path: the loader thread hits the bad chunk, reports
    // it once, and the loader must still shut down cleanly after.
    let mut loader = StreamLoader::new(&disk, 2).unwrap();
    loader.begin_epoch(&(0..10).rev().collect::<Vec<_>>(), 4, 0);
    let err = loop {
        match loader.next_batch() {
            Ok(b) => loader.recycle(b),
            Err(e) => break e,
        }
    };
    assert!(matches!(err, Error::Corrupt { chunk: 2, .. }), "{err}");
    drop(loader); // must join, not hang, after an error mid-epoch
    let _ = fs::remove_dir_all(&dir);
}

/// Arbitrary-shape dataset with arbitrary f32 *bit patterns* (NaNs,
/// infinities, subnormals, -0.0 included) and out-of-range labels: the
/// record codec is raw little-endian bits, so everything must survive.
fn arbitrary_dataset(seed: u64, n: usize, c: usize, h: usize, w: usize) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<f32> = (0..n * c * h * w)
        .map(|_| f32::from_bits(rng.next_u32()))
        .collect();
    let labels: Vec<usize> = (0..n).map(|_| rng.next_u32() as usize).collect();
    Dataset {
        images: Tensor::from_vec(&[n, c, h, w], data),
        labels,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// save → open → load is the identity on every bit pattern, for
    /// arbitrary geometry and chunking (including chunks larger than the
    /// set and chunks of one sample).
    #[test]
    fn round_trip_is_bitwise(
        seed in 0u64..10_000,
        n in 1usize..7,
        c in 1usize..4,
        h in 1usize..5,
        w in 1usize..5,
        chunk in 1usize..9,
    ) {
        let dir = scratch(&format!("prop-{seed}-{n}-{c}-{h}-{w}-{chunk}"));
        let path = dir.join("prop.mbsds");
        let set = arbitrary_dataset(seed, n, c, h, w);
        save_dataset_chunked(&set, &path, chunk).expect("save");
        let disk = DiskDataset::open(&path).expect("open");
        prop_assert_eq!(disk.shape(), [n, c, h, w]);
        prop_assert_eq!(disk.num_chunks(), n.div_ceil(chunk));
        let loaded = disk.load().expect("load");
        prop_assert_eq!(&loaded.labels, &set.labels);
        for (a, b) in loaded.images.data().iter().zip(set.images.data()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// The writer is byte-deterministic: same dataset, same chunking,
    /// same file — the property rotation, golden pinning, and the
    /// generate-vs-save equivalence all stand on.
    #[test]
    fn writer_is_deterministic(seed in 0u64..10_000) {
        let dir = scratch(&format!("det-{seed}"));
        let set = arbitrary_dataset(seed, 5, 2, 3, 3);
        let a = dir.join("a.mbsds");
        let b = dir.join("b.mbsds");
        save_dataset_chunked(&set, &a, 2).expect("save a");
        save_dataset_chunked(&set, &b, 2).expect("save b");
        prop_assert_eq!(fs::read(&a).unwrap(), fs::read(&b).unwrap());
        let _ = fs::remove_dir_all(&dir);
    }
}

/// The fixed dataset pinned in `tests/data/golden-v2.mbsds` (and, in the
/// refused version-1 encoding, `tests/data/golden-v1.mbsds`): chosen bit
/// patterns (negative zero, a subnormal, a NaN payload, extremes) and an
/// out-of-range label, in two chunks of two plus a tail of one.
fn golden_dataset() -> Dataset {
    let data: Vec<f32> = vec![
        // sample 0
        1.0,
        -0.5,
        0.25,
        f32::MIN_POSITIVE,
        // sample 1
        -0.0,
        3.0e10,
        f32::from_bits(0x7fc0_1234),
        -1.5e-38,
        // sample 2
        0.0,
        f32::MAX,
        f32::MIN,
        42.0,
        // sample 3
        -2.0,
        0.125,
        6.0,
        -7.0,
        // sample 4
        9.0,
        -9.0,
        0.5,
        2.5,
    ];
    Dataset {
        images: Tensor::from_vec(&[5, 1, 2, 2], data),
        labels: vec![2, 0, 1, 3, 4_000_000],
    }
}

fn golden_path(version: u64) -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("data")
        .join(format!("golden-v{version}.mbsds"))
}

/// Format-drift tripwire, both directions: the committed golden file
/// must still open and load to the known dataset bitwise, and re-saving
/// that dataset must reproduce the committed bytes exactly. Either
/// direction failing means the on-disk format changed — bump
/// `MBSDS_VERSION` and commit a new golden file instead of editing this
/// one in place.
#[test]
fn golden_file_pins_the_format() {
    let bytes = fs::read(golden_path(MBSDS_VERSION)).expect(
        "golden dataset missing; run \
         `cargo test -p mbs-train --test loader_faults -- --ignored regenerate_golden`",
    );
    let disk = DiskDataset::open(golden_path(MBSDS_VERSION)).expect("golden file must open");
    assert_eq!(disk.shape(), [5, 1, 2, 2]);
    assert_eq!(disk.chunk_samples(), 2);
    assert_eq!(disk.num_chunks(), 3);
    let loaded = disk.load().expect("golden file must load");
    let want = golden_dataset();
    assert_eq!(loaded.labels, want.labels);
    for (a, b) in loaded.images.data().iter().zip(want.images.data()) {
        assert_eq!(a.to_bits(), b.to_bits(), "golden value drifted");
    }

    let dir = scratch("golden-rewrite");
    let rewrite = dir.join("golden.mbsds");
    save_dataset_chunked(&want, &rewrite, 2).unwrap();
    assert_eq!(
        fs::read(&rewrite).unwrap(),
        bytes,
        "writer output drifted from the committed v2 golden file"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Version 1 (a text header over a JSON chunk index) is no longer read:
/// its committed golden file is refused by version.
#[test]
fn golden_v1_file_is_refused_by_version() {
    assert!(matches!(
        DiskDataset::open(golden_path(1)),
        Err(Error::Version(1))
    ));
}

/// Every truncation and bit flip of the v2 golden file, raw and under a
/// truthful header, through `open` + `load`: a structured error (or,
/// for a head bit, possibly a different valid dataset), never a panic
/// or an allocation beyond the file's size.
#[test]
fn mutated_golden_bytes_never_panic_or_over_allocate() {
    let dir = scratch("mutate");
    let path = dir.join("mutant.mbsds");
    let golden = fs::read(golden_path(MBSDS_VERSION)).unwrap();
    common::mutate::every_cut_and_flip(&golden, |bytes| {
        fs::write(&path, bytes).unwrap();
        DiskDataset::open(&path)?.load()
    });
    let _ = fs::remove_dir_all(&dir);
}

/// Writes the v2 golden file. Run explicitly (and review the diff!) only
/// when the format version is intentionally bumped:
/// `cargo test -p mbs-train --test loader_faults -- --ignored regenerate_golden`
#[test]
#[ignore]
fn regenerate_golden() {
    let path = golden_path(MBSDS_VERSION);
    fs::create_dir_all(path.parent().unwrap()).unwrap();
    save_dataset_chunked(&golden_dataset(), &path, 2).unwrap();
}
