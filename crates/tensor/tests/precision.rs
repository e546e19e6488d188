//! Property tests of the bf16 precision layer: conversion round-trips
//! (round-to-nearest-even, NaN/±0/subnormal edges) and the bf16 GEMM's
//! equivalence guarantees.

use proptest::prelude::*;

use mbs_tensor::ops::{gemm, kernel, Exec, MatSrc};
use mbs_tensor::prec::{bf16_to_f32, f32_to_bf16, Bf16Tensor, Precision};
use mbs_tensor::Tensor;

/// The next bf16-representable value at or above/below `v` by scanning the
/// two candidate codes around truncation — the reference RNE oracle.
fn rne_reference(v: f32) -> u16 {
    if v.is_nan() {
        return f32_to_bf16(v); // NaN handling checked separately
    }
    let bits = v.to_bits();
    let down = (bits >> 16) as u16; // truncation: toward zero in magnitude
    let up = down.wrapping_add(1);
    let dv = bf16_to_f32(down);
    // `up` may roll into infinity or flip exponent — decode handles it.
    let uv = bf16_to_f32(up);
    if uv.is_infinite() {
        // Overflow region: IEEE rounds to infinity at and past the
        // midpoint between the largest finite code and its virtual
        // successor (one more ulp, same exponent), not by a distance
        // comparison against infinity.
        let ulp = (dv - bf16_to_f32(down.wrapping_sub(1))).abs();
        let mid = dv.abs() + ulp / 2.0;
        // Tie rounds to even: the infinity code has mantissa zero.
        return if v.abs() >= mid { up } else { down };
    }
    let (dd, du) = ((v - dv).abs(), (uv - v).abs());
    if dd < du {
        down
    } else if du < dd {
        up
    } else if down & 1 == 0 {
        // Tie: even mantissa code wins.
        down
    } else {
        up
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Encoding is round-to-nearest-even for every finite value, including
    /// subnormals: compare against a brute-force two-candidate oracle.
    #[test]
    fn encode_is_round_to_nearest_even(bits in 0u32..u32::MAX) {
        let v = f32::from_bits(bits);
        prop_assume!(v.is_finite());
        prop_assert_eq!(f32_to_bf16(v), rne_reference(v), "v={} bits={:#x}", v, bits);
    }

    /// Decode-then-encode is the identity on every bf16 code that is not a
    /// NaN (NaN codes stay NaN but may gain the quiet bit).
    #[test]
    fn bf16_codes_round_trip_exactly(code in (0u32..0x1_0000).prop_map(|c| c as u16)) {
        let v = bf16_to_f32(code);
        if v.is_nan() {
            prop_assert!(bf16_to_f32(f32_to_bf16(v)).is_nan());
        } else {
            prop_assert_eq!(f32_to_bf16(v), code);
        }
    }

    /// Round-trip relative error is bounded by half a bf16 ulp (2^-8) for
    /// normal values, and NaN/zero signs survive.
    #[test]
    fn round_trip_error_is_half_ulp(bits in 0u32..u32::MAX) {
        let v = f32::from_bits(bits);
        let back = bf16_to_f32(f32_to_bf16(v));
        if v.is_nan() {
            prop_assert!(back.is_nan());
            prop_assert_eq!(back.is_sign_negative(), v.is_sign_negative());
        } else if v == 0.0 {
            prop_assert_eq!(back, 0.0);
            prop_assert_eq!(back.is_sign_negative(), v.is_sign_negative());
        } else if back.is_finite() && !v.is_subnormal() {
            prop_assert!((back - v).abs() <= v.abs() / 256.0, "v={} back={}", v, back);
        }
    }

    /// Tensor compress/decompress round-trips within the same half-ulp
    /// bound, element-wise, and halves the resident bytes.
    #[test]
    fn tensor_compression_is_elementwise_rne(
        data in proptest::collection::vec(-100.0f32..100.0, 24),
    ) {
        let t = Tensor::from_vec(&[4, 6], data);
        let packed = Bf16Tensor::compress(&t);
        prop_assert_eq!(packed.bytes() * 2, t.len() * 4);
        let back = packed.decompress();
        for (&b, &v) in back.data().iter().zip(t.data()) {
            prop_assert_eq!(b.to_bits(), bf16_to_f32(f32_to_bf16(v)).to_bits());
        }
    }
}

#[test]
fn bf16_gemm_agrees_across_kernels_on_representable_data() {
    // Packed bf16 bytes use one conversion rule on every ISA, so on
    // losslessly-representable data every kernel must produce the same
    // (f32-exact) result the f32 path does.
    let (m, n, k) = (40, 24, 64);
    let a: Vec<f32> = (0..m * k).map(|v| ((v * 13) % 17) as f32 - 8.0).collect();
    let b: Vec<f32> = (0..k * n).map(|v| ((v * 11) % 13) as f32 - 6.0).collect();
    let asrc = MatSrc::RowMajor {
        data: &a,
        stride: k,
    };
    let bsrc = MatSrc::RowMajor {
        data: &b,
        stride: n,
    };
    for kernel in kernel::available() {
        let mut c32 = vec![0.0f32; m * n];
        let mut c16 = vec![0.0f32; m * n];
        let f32e = Exec {
            kernel,
            threads: 1,
            precision: Precision::F32,
        };
        let bf16 = Exec {
            kernel,
            threads: 2,
            precision: Precision::Bf16,
        };
        gemm(&asrc, &bsrc, &mut c32, m, n, k, None, f32e);
        gemm(&asrc, &bsrc, &mut c16, m, n, k, None, bf16);
        assert_eq!(c32, c16, "{}", kernel.name);
    }
}
