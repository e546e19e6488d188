//! Runtime numeric precision for packed GEMM operands and cached
//! activations (`MBS_PREC`).
//!
//! The MBS schedule models 16-bit words (`WORD_BYTES = 2` in the CNN IR),
//! matching the paper's evaluation. Historically the CPU runtime computed
//! *and stored* everything in f32, so modeled DRAM traffic and real traffic
//! differed by 2×. This module closes that loop: with `MBS_PREC=bf16` the
//! GEMM packing layer encodes A/B panels as bfloat16, the micro-kernels do
//! widening loads and **accumulate in f32**, and the training executor
//! stores stashed caches and group-boundary activations as [`Bf16Tensor`]s
//! — so the bytes that actually move halve, while every reduction still
//! happens at full precision.
//!
//! bfloat16 is the top 16 bits of an IEEE-754 f32 (1 sign, 8 exponent,
//! 7 mantissa bits): the dynamic range of f32 with ~2–3 significant decimal
//! digits. Encoding is round-to-nearest-even ([`f32_to_bf16`]); decoding is
//! exact (a 16-bit left shift, [`bf16_to_f32`]). Both are pure bit
//! arithmetic — no lookup tables, no ISA dependence — so packed bytes are a
//! deterministic function of the source values on every CPU, which keeps
//! the blocked GEMM's bitwise thread-count invariance intact per precision.
//!
//! The process-wide mode is the `MBS_PREC` environment knob, resolved with
//! the other execution settings into [`crate::ops::Exec::process`] (default
//! [`Precision::F32`]). Kernels take their precision from the `Exec` they
//! are passed, and the training executor has a setter, so tests sweep both
//! modes inside one process.
//!
//! # Examples
//!
//! ```
//! use mbs_tensor::prec::{bf16_to_f32, f32_to_bf16};
//!
//! // 1.0 is exactly representable; round-trip is the identity.
//! assert_eq!(bf16_to_f32(f32_to_bf16(1.0)), 1.0);
//! // 1 + 2^-9 is not: it rounds to nearest-even (here: down to 1.0).
//! assert_eq!(bf16_to_f32(f32_to_bf16(1.0 + 1.0 / 512.0)), 1.0);
//! ```

use crate::arena;
use crate::Tensor;

/// Element precision for packed GEMM operands and cached activations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// Full f32 storage everywhere (the default; bitwise identical to the
    /// pre-`MBS_PREC` behavior).
    #[default]
    F32,
    /// bfloat16 storage for packed panels, stashed caches, and group
    /// boundaries; all accumulation stays f32.
    Bf16,
}

impl Precision {
    /// Bytes per stored element: 4 for f32, 2 for bf16. This is the number
    /// the footprint model multiplies — at bf16 it equals the CNN IR's
    /// `WORD_BYTES`, so modeled and real traffic agree.
    pub fn word_bytes(self) -> usize {
        match self {
            Precision::F32 => 4,
            Precision::Bf16 => 2,
        }
    }

    /// Stable lowercase name (the `MBS_PREC` spelling).
    pub fn name(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::Bf16 => "bf16",
        }
    }
}

/// Parses an `MBS_PREC` value: `f32` or `bf16`, case-insensitive,
/// surrounding whitespace ignored. Anything else is malformed.
pub fn parse_precision(s: &str) -> Option<Precision> {
    let t = s.trim();
    if t.eq_ignore_ascii_case("f32") {
        Some(Precision::F32)
    } else if t.eq_ignore_ascii_case("bf16") {
        Some(Precision::Bf16)
    } else {
        None
    }
}

/// Encodes an f32 as bfloat16 with round-to-nearest-even.
///
/// NaN is quieted (the quiet bit is forced on) so a payload that lives
/// entirely in the discarded low 16 bits cannot silently round to
/// infinity; sign and the surviving payload bits are preserved. ±0,
/// ±infinity, and every value whose mantissa fits in 7 bits encode
/// exactly. Finite values that round past the largest finite bf16 overflow
/// to infinity, exactly like f32 arithmetic would.
#[inline]
pub fn f32_to_bf16(v: f32) -> u16 {
    let bits = v.to_bits();
    if v.is_nan() {
        return ((bits >> 16) as u16) | 0x0040;
    }
    // Round-to-nearest-even in pure integer arithmetic: add 0x7FFF plus
    // the bit that decides the tie, then truncate.
    let round = 0x7FFF + ((bits >> 16) & 1);
    (bits.wrapping_add(round) >> 16) as u16
}

/// Decodes a bfloat16 to f32 — exact, a 16-bit left shift.
#[inline]
pub fn bf16_to_f32(b: u16) -> f32 {
    f32::from_bits((b as u32) << 16)
}

/// `dst[i] = f32_to_bf16(src[i])` — the converting copy at the heart of
/// bf16 packing.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn encode_slice(dst: &mut [u16], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "encode_slice length mismatch");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = f32_to_bf16(s);
    }
}

/// `dst[i] = bf16_to_f32(src[i])`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn decode_slice(dst: &mut [f32], src: &[u16]) {
    assert_eq!(dst.len(), src.len(), "decode_slice length mismatch");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = bf16_to_f32(s);
    }
}

/// A bf16-encoded tensor: the shape of a [`Tensor`] at half the resident
/// bytes. This is the storage type behind bf16-mode cache stashes and
/// group-boundary buffers in the training executor.
///
/// The backing store is an arena [`arena::Scratch`] (an f32 buffer
/// reinterpreted as u16 words — alignment and bit-validity are trivially
/// satisfied), so compressing and decompressing in the steady-state
/// training loop recycles pooled buffers exactly like f32 tensors do and
/// the zero-allocation pins keep holding.
///
/// # Examples
///
/// ```
/// use mbs_tensor::prec::Bf16Tensor;
/// use mbs_tensor::Tensor;
///
/// let t = Tensor::from_vec(&[2, 2], vec![1.0, 2.5, -3.0, 0.0]);
/// let packed = Bf16Tensor::compress(&t);
/// assert_eq!(packed.bytes(), t.len() * 2);
/// // These values are exactly representable, so the round-trip is exact.
/// assert_eq!(packed.decompress().data(), t.data());
/// ```
#[derive(Debug)]
pub struct Bf16Tensor {
    shape: Vec<usize>,
    elems: usize,
    /// `elems.div_ceil(2)` f32 words holding `elems` u16 codes.
    data: arena::Scratch,
}

impl Bf16Tensor {
    fn words(elems: usize) -> usize {
        elems.div_ceil(2)
    }

    /// An encoded tensor of `shape` with unspecified contents (filled by
    /// [`Bf16Tensor::write_rows`]).
    pub fn uninit(shape: &[usize]) -> Self {
        let elems = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            elems,
            data: arena::take(Self::words(elems)),
        }
    }

    /// Encodes `t` (round-to-nearest-even per element).
    pub fn compress(t: &Tensor) -> Self {
        let mut out = Self::uninit(t.shape());
        encode_slice(out.as_u16_mut(), t.data());
        out
    }

    /// Decodes back to an f32 [`Tensor`] (exact — no second rounding).
    pub fn decompress(&self) -> Tensor {
        let mut out = Tensor::uninit(&self.shape);
        decode_slice(out.data_mut(), self.as_u16());
        out
    }

    /// The logical shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.elems
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.elems == 0
    }

    /// Resident payload bytes: `len() · 2` — half what the same shape
    /// costs as f32.
    pub fn bytes(&self) -> usize {
        self.elems * 2
    }

    /// Encodes every row of `src` into rows `[row0, row0 + src rows)` of
    /// `self` (axis 0 is the row axis; trailing axes must match).
    ///
    /// # Panics
    ///
    /// Panics if either shape is rank 0, the trailing axes differ, or the
    /// rows do not fit.
    pub fn write_rows(&mut self, src: &Tensor, row0: usize) {
        assert!(
            !self.shape.is_empty() && !src.shape().is_empty(),
            "write_rows needs a row axis"
        );
        assert_eq!(
            &self.shape[1..],
            &src.shape()[1..],
            "write_rows trailing-axis mismatch"
        );
        let row_len: usize = self.shape[1..].iter().product();
        let rows = src.shape()[0];
        assert!(row0 + rows <= self.shape[0], "write_rows out of range");
        encode_slice(
            &mut self.as_u16_mut()[row0 * row_len..(row0 + rows) * row_len],
            src.data(),
        );
    }

    /// Decodes rows `[row0, row0 + rows)` into a fresh f32 tensor of shape
    /// `[rows, trailing…]`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is rank 0 or the range is out of bounds.
    pub fn read_rows(&self, row0: usize, rows: usize) -> Tensor {
        assert!(!self.shape.is_empty(), "read_rows needs a row axis");
        assert!(row0 + rows <= self.shape[0], "read_rows out of range");
        let row_len: usize = self.shape[1..].iter().product();
        let mut shape = self.shape.clone();
        shape[0] = rows;
        let mut out = Tensor::uninit(&shape);
        decode_slice(
            out.data_mut(),
            &self.as_u16()[row0 * row_len..(row0 + rows) * row_len],
        );
        out
    }

    fn as_u16(&self) -> &[u16] {
        // SAFETY: the scratch holds ≥ elems.div_ceil(2) f32 words (4-byte
        // aligned ≥ u16's 2), every bit pattern is a valid u16, and the
        // reborrow cannot outlive &self.
        unsafe { std::slice::from_raw_parts(self.data.as_ptr().cast::<u16>(), self.elems) }
    }

    fn as_u16_mut(&mut self) -> &mut [u16] {
        // SAFETY: as for `as_u16`, with &mut self guaranteeing uniqueness.
        unsafe { std::slice::from_raw_parts_mut(self.data.as_mut_ptr().cast::<u16>(), self.elems) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mbs_prec_knob_grammar() {
        assert_eq!(parse_precision("f32"), Some(Precision::F32));
        assert_eq!(parse_precision(" F32 "), Some(Precision::F32));
        assert_eq!(parse_precision("bf16"), Some(Precision::Bf16));
        assert_eq!(parse_precision("BF16"), Some(Precision::Bf16));
        for bad in ["", "fp32", "f16", "bfloat16", "half", "32"] {
            assert_eq!(parse_precision(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn word_bytes_match_the_mode() {
        assert_eq!(Precision::F32.word_bytes(), 4);
        assert_eq!(Precision::Bf16.word_bytes(), 2);
        assert_eq!(Precision::Bf16.name(), "bf16");
    }

    #[test]
    fn exact_values_round_trip() {
        // Anything with ≤ 7 mantissa bits survives the trip bit-for-bit,
        // including signed zeros and infinities.
        for v in [
            0.0f32,
            -0.0,
            1.0,
            -1.0,
            0.5,
            2.5,
            -3.75,
            256.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE, // smallest normal: exponent-only, exact
        ] {
            let back = bf16_to_f32(f32_to_bf16(v));
            assert_eq!(back.to_bits(), v.to_bits(), "{v}");
        }
    }

    #[test]
    fn rounding_is_nearest_even() {
        // 1.0 + 2^-8 sits exactly between 1.0 and the next bf16
        // (1.0 + 2^-7): the tie goes to the even code, 1.0.
        let tie = 1.0f32 + 1.0 / 256.0;
        assert_eq!(bf16_to_f32(f32_to_bf16(tie)), 1.0);
        // One ulp above the tie rounds up.
        let above = f32::from_bits(tie.to_bits() + 1);
        assert_eq!(bf16_to_f32(f32_to_bf16(above)), 1.0 + 1.0 / 128.0);
        // Just below the tie rounds down.
        let below = f32::from_bits(tie.to_bits() - 1);
        assert_eq!(bf16_to_f32(f32_to_bf16(below)), 1.0);
        // A tie whose lower neighbor is odd rounds *up* to the even code.
        let odd_tie = 1.0f32 + 1.0 / 128.0 + 1.0 / 256.0;
        assert_eq!(bf16_to_f32(f32_to_bf16(odd_tie)), 1.0 + 2.0 / 128.0);
    }

    #[test]
    fn nan_stays_nan_and_overflow_goes_to_infinity() {
        assert!(bf16_to_f32(f32_to_bf16(f32::NAN)).is_nan());
        // A NaN payload living entirely in the discarded bits must not
        // become infinity.
        let sneaky = f32::from_bits(0x7F80_0001);
        assert!(sneaky.is_nan());
        assert!(bf16_to_f32(f32_to_bf16(sneaky)).is_nan());
        let neg = f32::from_bits(0xFF80_0001);
        let back = bf16_to_f32(f32_to_bf16(neg));
        assert!(back.is_nan() && back.is_sign_negative());
        // The largest finite f32 is above the largest finite bf16 and
        // rounds to +inf.
        assert_eq!(bf16_to_f32(f32_to_bf16(f32::MAX)), f32::INFINITY);
        assert_eq!(bf16_to_f32(f32_to_bf16(f32::MIN)), f32::NEG_INFINITY);
    }

    #[test]
    fn subnormals_round_like_everything_else() {
        // f32 subnormals are far below bf16's smallest subnormal only in
        // the mantissa sense — bf16 shares f32's exponent range, so f32
        // subnormals map onto bf16 subnormals by the same RNE rule.
        let tiny = f32::from_bits(1); // smallest positive subnormal
        assert_eq!(bf16_to_f32(f32_to_bf16(tiny)), 0.0);
        let neg_tiny = f32::from_bits(0x8000_0001);
        let back = bf16_to_f32(f32_to_bf16(neg_tiny));
        assert_eq!(back, 0.0);
        assert!(back.is_sign_negative(), "-0 keeps its sign");
        // A subnormal with its top mantissa bits set survives.
        let big_sub = f32::from_bits(0x007F_0000);
        assert_eq!(bf16_to_f32(f32_to_bf16(big_sub)).to_bits(), 0x007F_0000);
    }

    #[test]
    fn round_trip_error_is_bounded_by_half_ulp() {
        // Deterministic pseudo-random sweep (no external proptest dep):
        // |round_trip(v) - v| ≤ 2^-8 · |v| for every normal v.
        let mut state = 0x9E37_79B9u32;
        for _ in 0..20_000 {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            let v = f32::from_bits(state);
            if !v.is_finite() || v.subnormal_or_zero() {
                continue;
            }
            let back = bf16_to_f32(f32_to_bf16(v));
            if !back.is_finite() {
                // Overflow to inf only happens at the very top of range.
                assert!(v.abs() > 3.38e38, "{v} overflowed unexpectedly");
                continue;
            }
            let err = (back - v).abs();
            assert!(
                err <= v.abs() / 256.0,
                "v={v} ({:#x}) back={back} err={err}",
                v.to_bits()
            );
        }
    }

    // Small test-local helper: `is_subnormal() || v == 0.0`.
    trait SubOrZero {
        fn subnormal_or_zero(self) -> bool;
    }
    impl SubOrZero for f32 {
        fn subnormal_or_zero(self) -> bool {
            self == 0.0 || self.is_subnormal()
        }
    }

    #[test]
    fn bf16_tensor_rows_round_trip() {
        let t = Tensor::from_vec(&[4, 3], (0..12).map(|v| v as f32 * 0.25 - 1.0).collect());
        let mut packed = Bf16Tensor::uninit(&[4, 3]);
        // Write in two halves at different offsets.
        let top = Tensor::from_vec(&[2, 3], t.data()[..6].to_vec());
        let bot = Tensor::from_vec(&[2, 3], t.data()[6..].to_vec());
        packed.write_rows(&top, 0);
        packed.write_rows(&bot, 2);
        assert_eq!(packed.bytes(), 24);
        assert_eq!(packed.read_rows(0, 4).data(), t.data());
        assert_eq!(packed.read_rows(1, 2).data(), &t.data()[3..9]);
        assert_eq!(packed.read_rows(1, 2).shape(), &[2, 3]);
    }

    #[test]
    #[should_panic(expected = "trailing-axis mismatch")]
    fn bf16_tensor_rejects_mismatched_rows() {
        let mut packed = Bf16Tensor::uninit(&[4, 3]);
        packed.write_rows(&Tensor::zeros(&[2, 4]), 0);
    }
}
