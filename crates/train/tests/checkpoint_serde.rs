//! Checkpoint format pinning: property-based round-trips (every f32 bit
//! pattern must survive encode → decode bitwise), golden files committed
//! to the repo so accidental format drift breaks CI instead of silently
//! orphaning users' saved checkpoints, and a mutation suite over the v2
//! golden: whatever bytes `decode` is handed, it answers with a
//! structured error — no panic, and no allocation larger than the input
//! (this binary's allocator records the largest request per thread).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use mbs_core::fnv1a64;
use mbs_train::checkpoint::{decode, encode, CKPT_VERSION};
use mbs_train::{CheckpointError, EpochStats, StateEntry, TrainCheckpoint};

mod common;

#[global_allocator]
static ALLOC: common::Probe = common::Probe;

/// A checkpoint whose every float is drawn uniformly from the *bit*
/// space — NaNs with arbitrary payloads, infinities, subnormals and
/// negative zero included: the payload stores bit patterns, so all of
/// them must survive.
fn arbitrary_checkpoint(seed: u64, entries: usize, elems: usize) -> TrainCheckpoint {
    let mut rng = StdRng::seed_from_u64(seed);
    let tensor = |rng: &mut StdRng| StateEntry {
        shape: vec![elems.max(1)],
        data: (0..elems.max(1))
            .map(|_| f32::from_bits(rng.next_u32()))
            .collect(),
    };
    TrainCheckpoint {
        fingerprint: rng.next_u64(),
        net: format!("Net{seed}"),
        epoch: rng.gen_range(0usize..100),
        step_in_epoch: rng.gen_range(0usize..50),
        loss_sum: f32::from_bits(rng.next_u32()),
        steps: rng.gen_range(0usize..50),
        rng: (0..4).map(|_| rng.next_u64()).collect(),
        model: (0..entries).map(|_| tensor(&mut rng)).collect(),
        velocities: (0..entries).map(|_| tensor(&mut rng)).collect(),
        curve: (0..rng.gen_range(0usize..4))
            .map(|epoch| EpochStats {
                epoch,
                train_loss: f32::from_bits(rng.next_u32()),
                val_error_pct: f64::from_bits(rng.next_u64()),
                preact_first: f32::from_bits(rng.next_u32()),
                preact_last: f32::from_bits(rng.next_u32()),
            })
            .collect(),
    }
}

fn assert_bitwise_eq(a: &TrainCheckpoint, b: &TrainCheckpoint) {
    // PartialEq is not enough: -0.0 == 0.0 and NaN != NaN under float
    // comparison. Compare every float through its bit pattern.
    assert_eq!(a.fingerprint, b.fingerprint);
    assert_eq!(a.net, b.net);
    assert_eq!(a.epoch, b.epoch);
    assert_eq!(a.step_in_epoch, b.step_in_epoch);
    assert_eq!(a.loss_sum.to_bits(), b.loss_sum.to_bits());
    assert_eq!(a.steps, b.steps);
    assert_eq!(a.rng, b.rng);
    for (x, y) in [(&a.model, &b.model), (&a.velocities, &b.velocities)] {
        assert_eq!(x.len(), y.len());
        for (ea, eb) in x.iter().zip(y) {
            assert_eq!(ea.shape, eb.shape);
            assert_eq!(ea.data.len(), eb.data.len());
            for (va, vb) in ea.data.iter().zip(&eb.data) {
                assert_eq!(va.to_bits(), vb.to_bits(), "tensor value drifted");
            }
        }
    }
    assert_eq!(a.curve.len(), b.curve.len());
    for (ca, cb) in a.curve.iter().zip(&b.curve) {
        assert_eq!(ca.epoch, cb.epoch);
        assert_eq!(ca.train_loss.to_bits(), cb.train_loss.to_bits());
        assert_eq!(ca.val_error_pct.to_bits(), cb.val_error_pct.to_bits());
        assert_eq!(ca.preact_first.to_bits(), cb.preact_first.to_bits());
        assert_eq!(ca.preact_last.to_bits(), cb.preact_last.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// encode → decode is the identity on every bit pattern.
    #[test]
    fn round_trip_is_bitwise(
        seed in 0u64..10_000,
        entries in 1usize..5,
        elems in 1usize..40,
    ) {
        let ckpt = arbitrary_checkpoint(seed, entries, elems);
        let decoded = decode(&encode(&ckpt)).expect("self-encoded bytes must decode");
        assert_bitwise_eq(&ckpt, &decoded);
    }

    /// Encoding is deterministic: the same checkpoint always produces the
    /// same bytes (rotation, checksums, and the golden test rely on it).
    #[test]
    fn encoding_is_deterministic(seed in 0u64..10_000) {
        let ckpt = arbitrary_checkpoint(seed, 2, 8);
        assert_eq!(encode(&ckpt), encode(&ckpt));
    }
}

/// The fixed checkpoint pinned in `tests/data/golden-v2.mbsckpt` (and,
/// in the refused version-1 encoding, `tests/data/golden-v1.mbsckpt`).
fn golden_checkpoint() -> TrainCheckpoint {
    TrainCheckpoint {
        fingerprint: 0x0123_4567_89ab_cdef,
        net: "GoldenNet".into(),
        epoch: 2,
        step_in_epoch: 3,
        loss_sum: 1.5,
        steps: 3,
        rng: vec![
            0x1111_1111_1111_1111,
            0x2222_2222_2222_2222,
            0x3333_3333_3333_3333,
            0x4444_4444_4444_4444,
        ],
        model: vec![
            StateEntry {
                shape: vec![2, 3],
                data: vec![1.0, -0.5, 0.25, f32::MIN_POSITIVE, -0.0, 3.0e10],
            },
            StateEntry {
                shape: vec![2],
                data: vec![0.1, -0.1],
            },
        ],
        velocities: vec![StateEntry {
            shape: vec![6],
            data: vec![0.0; 6],
        }],
        curve: vec![
            EpochStats {
                epoch: 0,
                train_loss: 2.0,
                val_error_pct: 75.0,
                preact_first: 0.5,
                preact_last: -0.25,
            },
            EpochStats {
                epoch: 1,
                train_loss: 1.75,
                val_error_pct: 60.0,
                preact_first: 0.5,
                preact_last: -0.25,
            },
        ],
    }
}

fn golden_path(version: u64) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("data")
        .join(format!("golden-v{version}.mbsckpt"))
}

fn golden_bytes(version: u64) -> Vec<u8> {
    std::fs::read(golden_path(version)).expect(
        "golden checkpoint missing; run \
         `cargo test -p mbs-train --test checkpoint_serde -- --ignored regenerate_golden`",
    )
}

/// Format-drift tripwire: the committed golden file must still decode to
/// the known checkpoint, and re-encoding that checkpoint must reproduce
/// the committed bytes exactly. Either direction failing means the
/// on-disk format changed — bump `CKPT_VERSION` and commit a new golden
/// file instead of editing this one in place.
#[test]
fn golden_file_pins_the_format() {
    let bytes = golden_bytes(CKPT_VERSION);
    let decoded = decode(&bytes).expect("golden file must decode");
    assert_bitwise_eq(&decoded, &golden_checkpoint());
    assert_eq!(
        encode(&golden_checkpoint()),
        bytes,
        "encoder output drifted from the committed v2 golden file"
    );
}

/// Version 1 (JSON payload, written before the binary format) is no
/// longer read: its committed golden file is refused by version.
#[test]
fn golden_v1_file_is_refused_by_version() {
    assert!(matches!(
        decode(&golden_bytes(1)),
        Err(CheckpointError::Version(1))
    ));
}

/// The corners random sampling rarely hits, each checked by bit pattern:
/// every f32 class in tensors, the loss sum and the curve, a non-ASCII
/// net name, extreme cursor and RNG words, an empty tensor, a rank-0
/// shape, and a checkpoint with nothing in it at all.
#[test]
fn every_value_class_round_trips_bitwise() {
    let classes: Vec<f32> = [
        0x7fc0_0000u32, // quiet NaN
        0x7fa0_1234,    // signalling NaN with a payload
        0xffc0_0001,    // negative NaN
        0x8000_0000,    // -0.0
        0x0000_0001,    // smallest subnormal
        0x807f_ffff,    // largest negative subnormal
        0x7f80_0000,    // +inf
        0xff80_0000,    // -inf
        0x7f7f_ffff,    // f32::MAX
        0x0080_0000,    // f32::MIN_POSITIVE
    ]
    .into_iter()
    .map(f32::from_bits)
    .collect();
    let ckpt = TrainCheckpoint {
        fingerprint: u64::MAX,
        net: "réseau-网络".into(),
        epoch: usize::MAX,
        step_in_epoch: 0,
        loss_sum: f32::from_bits(0x7fa0_1234),
        steps: usize::MAX - 1,
        rng: vec![0, u64::MAX, 1 << 63, 0x0123_4567_89ab_cdef],
        model: vec![
            StateEntry {
                shape: vec![2, 5],
                data: classes.clone(),
            },
            StateEntry {
                shape: vec![0],
                data: Vec::new(),
            },
            StateEntry {
                shape: Vec::new(),
                data: vec![1.0],
            },
        ],
        velocities: vec![StateEntry {
            shape: vec![classes.len()],
            data: classes.iter().rev().copied().collect(),
        }],
        curve: vec![EpochStats {
            epoch: 7,
            train_loss: f32::from_bits(0xffc0_0001),
            val_error_pct: f64::from_bits(0x7ff0_0000_0000_0001),
            preact_first: -0.0,
            preact_last: f32::INFINITY,
        }],
    };
    assert_bitwise_eq(&decode(&encode(&ckpt)).expect("round trip"), &ckpt);
    let empty = TrainCheckpoint::default();
    assert_bitwise_eq(&decode(&encode(&empty)).expect("empty round trip"), &empty);
}

/// `payload` under a header that describes it truthfully, so mutations
/// get past the length and checksum checks and reach the payload reader.
fn reseal(payload: &[u8]) -> Vec<u8> {
    let mut bytes = format!(
        "MBSCKPT {CKPT_VERSION} {} {:016x}\n",
        payload.len(),
        fnv1a64(payload)
    )
    .into_bytes();
    bytes.extend_from_slice(payload);
    bytes
}

/// Decodes hostile bytes and checks the two promises: a structured
/// `Format`/`Version` error (`Ok` only where `may_decode`), and no
/// allocation request larger than the input (or than an error message).
fn decode_hostile(bytes: &[u8], may_decode: bool, what: &str) {
    common::reset_largest();
    let result = decode(bytes);
    let largest = common::largest();
    // An error message is the one thing decode may allocate that the
    // input does not back; none comes near this.
    const MESSAGE_BYTES: usize = 256;
    assert!(
        largest <= bytes.len().max(MESSAGE_BYTES),
        "{what}: decode asked for {largest} bytes at once, the input has {}",
        bytes.len()
    );
    match result {
        Err(CheckpointError::Format(_) | CheckpointError::Version(_)) => {}
        Ok(_) if may_decode => {}
        other => panic!("{what}: want a Format/Version error, got {other:?}"),
    }
}

/// Byte offsets of every count, rank and length field in the golden
/// payload, found by walking the documented layout.
fn golden_length_fields(payload: &[u8]) -> Vec<usize> {
    let u64_at = |at: usize| u64::from_le_bytes(payload[at..at + 8].try_into().unwrap()) as usize;
    let mut fields = Vec::new();
    let mut at = 4 * 8 + 4;
    fields.push(at); // net byte count
    at += 8 + u64_at(at);
    fields.push(at); // rng count
    at += 8 + 8 * u64_at(at);
    fields.push(at); // curve count
    at += 8 + 28 * u64_at(at);
    for _ in 0..2 {
        fields.push(at); // entry count
        let entries = u64_at(at);
        at += 8;
        for _ in 0..entries {
            fields.push(at); // rank
            at += 8 + 8 * u64_at(at);
            fields.push(at); // element count
            at += 8 + 4 * u64_at(at);
        }
    }
    assert_eq!(at, payload.len(), "the walk must cover the whole payload");
    fields
}

/// Exhaustive mutations of the v2 golden file: every truncation length,
/// a single-bit flip at every offset (header, length fields and data
/// alike), and every length field overwritten with values chosen to
/// overflow a multiplication or an allocation.
#[test]
fn mutated_golden_bytes_never_panic_or_over_allocate() {
    let golden = golden_bytes(CKPT_VERSION);
    let body = golden.iter().position(|&b| b == b'\n').unwrap() + 1;
    let payload = &golden[body..];
    decode_hostile(&golden, true, "the golden file itself");

    // Raw damage never gets past the header's length and checksum.
    for cut in 0..golden.len() {
        decode_hostile(&golden[..cut], false, &format!("file cut to {cut}"));
    }
    for bit in 0..golden.len() * 8 {
        let mut bytes = golden.clone();
        bytes[bit / 8] ^= 1 << (bit % 8);
        decode_hostile(&bytes, false, &format!("file bit {bit} flipped"));
    }

    // Damage under a truthful header reaches the payload reader. A cut
    // payload is always short of something; a flipped bit may land in a
    // float and decode to a different, valid checkpoint.
    for cut in 0..payload.len() {
        decode_hostile(
            &reseal(&payload[..cut]),
            false,
            &format!("payload cut to {cut}"),
        );
    }
    for bit in 0..payload.len() * 8 {
        let mut bytes = payload.to_vec();
        bytes[bit / 8] ^= 1 << (bit % 8);
        decode_hostile(&reseal(&bytes), true, &format!("payload bit {bit} flipped"));
    }
    let fields = golden_length_fields(payload);
    assert_eq!(fields.len(), 3 + 2 + 2 * 3, "golden has 3 entries");
    let hostile = [
        u64::MAX,
        u64::MAX / 2,
        usize::MAX as u64 - 1,
        usize::MAX as u64 / 4 + 1,
        usize::MAX as u64 / 8 + 1,
        usize::MAX as u64 / 16 + 1,
        1 << 32,
        payload.len() as u64,
    ];
    for &at in &fields {
        for value in hostile {
            let mut bytes = payload.to_vec();
            bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
            let what = format!("length field at {at} = {value:#x}");
            decode_hostile(&reseal(&bytes), false, &what);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random multi-byte damage to random checkpoints, under a truthful
    /// header: the reader must stay structured and frugal whatever it is
    /// handed, not only on the golden file's layout.
    #[test]
    fn random_payload_damage_is_a_structured_error(
        seed in 0u64..10_000,
        entries in 1usize..4,
        elems in 1usize..24,
        hits in 1usize..6,
    ) {
        let good = encode(&arbitrary_checkpoint(seed, entries, elems));
        let body = good.iter().position(|&b| b == b'\n').unwrap() + 1;
        let mut payload = good[body..].to_vec();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        for _ in 0..hits {
            let at = rng.gen_range(0..payload.len());
            payload[at] = rng.next_u32() as u8;
        }
        payload.truncate(rng.gen_range(payload.len() / 2..payload.len() + 1));
        decode_hostile(&reseal(&payload), true, "random damage");
    }
}

/// Writes the v2 golden file. Run explicitly (and review the diff!) only
/// when the format version is intentionally bumped:
/// `cargo test -p mbs-train --test checkpoint_serde -- --ignored regenerate_golden`
#[test]
#[ignore]
fn regenerate_golden() {
    let path = golden_path(CKPT_VERSION);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, encode(&golden_checkpoint())).unwrap();
}
