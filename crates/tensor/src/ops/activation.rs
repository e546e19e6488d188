//! Activation functions.
//!
//! ReLU's backward pass needs only the *sign* of the forward activation —
//! the observation MBS exploits by storing 1-bit masks instead of 16-bit
//! values (paper §3 "Back Propagation"). The mask type here mirrors that:
//! one bit per element.
//!
//! Two producers fill masks: the plain [`relu`] / [`relu_inplace`]
//! operators, and the fused GEMM epilogue
//! ([`crate::ops::pack::Epilogue::BiasRelu`]), whose SIMD write-back emits
//! sign bits straight from the compare instruction into a thread-safe
//! [`MaskSink`].

use std::sync::atomic::{AtomicU64, Ordering};

use crate::tensor::Tensor;

/// A packed 1-bit-per-element sign mask (true where the activation was
/// positive), as stored by MBS for ReLU back propagation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMask {
    len: usize,
    words: Vec<u64>,
}

impl BitMask {
    /// An all-false mask for `len` elements.
    pub fn new(len: usize) -> Self {
        Self {
            len,
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Number of elements covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mask covers no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit accessor.
    pub fn get(&self, i: usize) -> bool {
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Bit setter.
    pub fn set(&mut self, i: usize, v: bool) {
        if v {
            self.words[i / 64] |= 1 << (i % 64);
        } else {
            self.words[i / 64] &= !(1 << (i % 64));
        }
    }

    /// Bytes needed to store the mask (the 1/16th traffic MBS pays instead
    /// of re-reading 16-bit activations).
    pub fn storage_bytes(&self) -> usize {
        self.len.div_ceil(8)
    }
}

/// A write-only, thread-safe sign-mask accumulator for the fused GEMM
/// epilogue.
///
/// GEMM workers own disjoint *element* ranges of C, but at 1 bit per
/// element two workers' ranges can share a boundary `u64` word — so bits
/// are published with `fetch_or`. OR is commutative and every bit is set by
/// exactly one worker, so the finished mask is deterministic regardless of
/// thread interleaving. A sink starts all-false and only ever sets bits;
/// call [`MaskSink::into_mask`] after the GEMM to freeze it into a
/// [`BitMask`].
#[derive(Debug)]
pub struct MaskSink {
    len: usize,
    words: Vec<AtomicU64>,
}

impl MaskSink {
    /// An all-false sink covering `len` elements.
    pub fn new(len: usize) -> Self {
        Self {
            len,
            words: (0..len.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Number of elements covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the sink covers no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// ORs `count` bits (the low bits of `bits`, LSB first) into positions
    /// `[start, start + count)`. `count ≤ 32`, so the run touches at most
    /// two words — at most two atomic RMWs per micro-kernel tile row.
    ///
    /// # Panics
    ///
    /// Panics if the run exceeds the sink or `count > 32`.
    pub fn or_bits(&self, start: usize, bits: u32, count: usize) {
        assert!(count <= 32, "bit runs are limited to one u32");
        assert!(start + count <= self.len, "bit run out of range");
        let bits = u64::from(bits) & ((1u64 << count) - 1);
        if bits == 0 {
            return;
        }
        let word = start / 64;
        let off = start % 64;
        self.words[word].fetch_or(bits << off, Ordering::Relaxed);
        if off + count > 64 {
            self.words[word + 1].fetch_or(bits >> (64 - off), Ordering::Relaxed);
        }
    }

    /// Freezes the sink into an immutable [`BitMask`].
    pub fn into_mask(self) -> BitMask {
        BitMask {
            len: self.len,
            words: self.words.into_iter().map(AtomicU64::into_inner).collect(),
        }
    }
}

/// ReLU forward; returns the activations and the packed sign mask.
pub fn relu(x: &Tensor) -> (Tensor, BitMask) {
    let mut y = x.clone();
    let mask = relu_inplace(&mut y);
    (y, mask)
}

/// ReLU applied **in place** on an owned tensor; returns the packed sign
/// mask. This is the path for activations the fused GEMM epilogue cannot
/// cover (e.g. post-GroupNorm ReLUs): no output tensor is allocated and
/// the clamp is a single pass over the data.
pub fn relu_inplace(x: &mut Tensor) -> BitMask {
    let mut mask = BitMask::new(x.len());
    for (chunk, word) in x.data_mut().chunks_mut(64).zip(&mut mask.words) {
        let mut bits = 0u64;
        for (i, v) in chunk.iter_mut().enumerate() {
            // Branchless clamp: keep = 1 selects v's bits, keep = 0 yields
            // +0.0 — identical to `if v > 0.0 { v } else { 0.0 }` (NaN
            // compares false and clamps to 0).
            let keep = u32::from(*v > 0.0);
            *v = f32::from_bits(v.to_bits() & keep.wrapping_neg());
            bits |= u64::from(keep) << i;
        }
        *word = bits;
    }
    mask
}

/// ReLU applied in place **without** recording a mask — the inference
/// path, where no backward pass will ever consume the sign bits and
/// building them (allocation + bit traffic) would be pure waste.
pub fn relu_clamp(x: &mut Tensor) {
    for v in x.data_mut() {
        let keep = u32::from(*v > 0.0);
        *v = f32::from_bits(v.to_bits() & keep.wrapping_neg());
    }
}

/// ReLU backward from the packed mask.
///
/// # Panics
///
/// Panics if the mask length does not match `dy`.
pub fn relu_backward(dy: &Tensor, mask: &BitMask) -> Tensor {
    assert_eq!(dy.len(), mask.len(), "mask length mismatch");
    let mut dx = Tensor::uninit(dy.shape());
    for ((out, src), &word) in dx
        .data_mut()
        .chunks_mut(64)
        .zip(dy.data().chunks(64))
        .zip(&mask.words)
    {
        for (i, (o, &g)) in out.iter_mut().zip(src).enumerate() {
            // Branchless select from the mask bit (0 ⇒ +0.0).
            let keep = ((word >> i) & 1) as u32;
            *o = f32::from_bits(g.to_bits() & keep.wrapping_neg());
        }
    }
    dx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_and_masks() {
        let x = Tensor::from_vec(&[4], vec![-1.0, 0.0, 2.0, -3.0]);
        let (y, m) = relu(&x);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0, 0.0]);
        assert!(!m.get(0) && !m.get(1) && m.get(2) && !m.get(3));
    }

    #[test]
    fn backward_uses_mask_only() {
        let x = Tensor::from_vec(&[4], vec![-1.0, 0.5, 2.0, -3.0]);
        let (_, m) = relu(&x);
        let dy = Tensor::full(&[4], 1.0);
        let dx = relu_backward(&dy, &m);
        assert_eq!(dx.data(), &[0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn mask_storage_is_one_sixteenth_of_fp16() {
        let m = BitMask::new(1024);
        assert_eq!(m.storage_bytes(), 128); // vs 2048 bytes at 16-bit
    }

    #[test]
    fn relu_inplace_matches_relu() {
        let vals: Vec<f32> = (0..200).map(|v| (v as f32 - 100.5) / 7.0).collect();
        let x = Tensor::from_vec(&[200], vals);
        let (y, m) = relu(&x);
        let mut z = x.clone();
        let m2 = relu_inplace(&mut z);
        assert_eq!(y, z);
        assert_eq!(m, m2);
    }

    #[test]
    fn mask_sink_sets_runs_across_word_boundaries() {
        let sink = MaskSink::new(130);
        sink.or_bits(0, 0b101, 3);
        sink.or_bits(60, 0b11111, 5); // straddles words 0 and 1
        sink.or_bits(128, 0b10, 2);
        let mask = sink.into_mask();
        for i in 0..130 {
            let want = matches!(i, 0 | 2 | 60..=64 | 129);
            assert_eq!(mask.get(i), want, "bit {i}");
        }
    }

    #[test]
    fn mask_sink_ignores_high_garbage_bits() {
        let sink = MaskSink::new(8);
        sink.or_bits(0, 0xFFFF_FFF0, 4); // only the low 4 bits count
        let mask = sink.into_mask();
        assert!((0..8).all(|i| !mask.get(i)));
    }

    #[test]
    fn mask_set_clear_round_trip() {
        let mut m = BitMask::new(130);
        m.set(129, true);
        assert!(m.get(129));
        m.set(129, false);
        assert!(!m.get(129));
    }
}
