//! Activation functions.
//!
//! ReLU's backward pass needs only the *sign* of the forward activation —
//! the observation MBS exploits by storing 1-bit masks instead of 16-bit
//! values (paper §3 "Back Propagation"). The mask type here mirrors that:
//! one bit per element.
//!
//! [`relu_inplace`] is the one producer of masks: a training ReLU clamps
//! its owned input in place and keeps the mask for [`relu_backward`]. An
//! inference ReLU clamps with [`relu_clamp`] and builds no mask.

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

/// ReLU applied **in place** on an owned tensor; returns the packed sign
/// mask. No output tensor is allocated and the clamp is a single pass over
/// the data.
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
        let mut y = Tensor::from_vec(&[4], vec![-1.0, 0.0, 2.0, -3.0]);
        let m = relu_inplace(&mut y);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0, 0.0]);
        assert!(!m.get(0) && !m.get(1) && m.get(2) && !m.get(3));
    }

    #[test]
    fn backward_uses_mask_only() {
        let mut x = Tensor::from_vec(&[4], vec![-1.0, 0.5, 2.0, -3.0]);
        let m = relu_inplace(&mut x);
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
    fn relu_contract_holds_on_special_values() {
        // Each output is bitwise `if v > 0 { v } else { +0.0 }`: NaN of
        // either sign compares false, so it clamps to +0.0 with a clear
        // bit, and -0.0 becomes +0.0.
        let special = [
            f32::NAN,
            -f32::NAN,
            -0.0,
            0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::MIN_POSITIVE / 4.0,
            -f32::MIN_POSITIVE / 4.0,
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            1.5,
            -2.25,
        ];
        // Past one 64-bit mask word, so the second word is written too.
        let x: Vec<f32> = special.iter().cycle().take(70).copied().collect();
        let mut y = Tensor::from_vec(&[x.len()], x.clone());
        let mask = relu_inplace(&mut y);
        let mut z = Tensor::from_vec(&[x.len()], x.clone());
        relu_clamp(&mut z);
        for (i, &v) in x.iter().enumerate() {
            let want = if v > 0.0 { v } else { 0.0 };
            assert_eq!(y.data()[i].to_bits(), want.to_bits(), "relu_inplace({v:?})");
            assert_eq!(mask.get(i), v > 0.0, "mask bit of {v:?}");
            assert_eq!(z.data()[i].to_bits(), want.to_bits(), "relu_clamp({v:?})");
        }
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
