//! Dense matrix multiplication.
//!
//! All three variants route through the packed, blocked, multi-threaded
//! GEMM core in [`crate::ops::pack`]; the transposed variants feed the
//! packing stage a transposed *view* instead of materializing `Aᵀ`/`Bᵀ`.
//! [`matmul_a_bt_fused`] is the Linear-layer forward: the bias folds into
//! the GEMM's C write-back, so the layer output is produced in zero extra
//! passes. [`matmul_naive`] keeps the
//! original triple loop (minus its broken `a == 0.0` skip, which
//! suppressed NaN/Inf propagation) as the reference the property tests
//! compare against.

use crate::ops::kernel::Exec;
use crate::ops::pack::{gemm, MatSrc};
use crate::tensor::Tensor;

/// `C = A · B` for 2-D tensors `A: [m, k]`, `B: [k, n]`.
///
/// # Panics
///
/// Panics if either input is not 2-D or the inner dimensions disagree.
///
/// # Examples
///
/// ```
/// use mbs_tensor::{ops::matmul, Tensor};
///
/// let a = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
/// let b = Tensor::from_vec(&[2, 2], vec![5.0, 6.0, 7.0, 8.0]);
/// let c = matmul(&a, &b);
/// assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k, n) = check_2d(a.shape(), b.shape(), false, false);
    let mut out = out_buffer(m, n, k);
    gemm(
        &MatSrc::RowMajor {
            data: a.data(),
            stride: k,
        },
        &MatSrc::RowMajor {
            data: b.data(),
            stride: n,
        },
        out.data_mut(),
        m,
        n,
        k,
        None,
        Exec::process(),
    );
    out
}

/// `C = Aᵀ · B` for `A: [k, m]`, `B: [k, n]` (the weight-gradient GEMM of
/// the paper's Tab. 1).
///
/// # Panics
///
/// Panics on rank or dimension mismatch.
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k, n) = check_2d(a.shape(), b.shape(), true, false);
    let mut out = out_buffer(m, n, k);
    gemm(
        &MatSrc::ColMajor {
            data: a.data(),
            stride: m,
        },
        &MatSrc::RowMajor {
            data: b.data(),
            stride: n,
        },
        out.data_mut(),
        m,
        n,
        k,
        None,
        Exec::process(),
    );
    out
}

/// `C = A · Bᵀ` for `A: [m, k]`, `B: [n, k]`.
///
/// # Panics
///
/// Panics on rank or dimension mismatch.
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k, n) = check_2d(a.shape(), b.shape(), false, true);
    let mut out = out_buffer(m, n, k);
    gemm(
        &MatSrc::RowMajor {
            data: a.data(),
            stride: k,
        },
        &MatSrc::ColMajor {
            data: b.data(),
            stride: k,
        },
        out.data_mut(),
        m,
        n,
        k,
        None,
        Exec::process(),
    );
    out
}

/// `C = A·Bᵀ + bias` row-broadcast — the Linear layer's forward (`A:
/// [n, in]`, `B: [out, in]`, `bias: [out]`). The bias rides the GEMM's C
/// write-back, bitwise equal to [`matmul_a_bt`] followed by a bias pass.
///
/// # Panics
///
/// Panics on rank/dimension mismatch or if `bias.len()` differs from B's
/// row count.
pub fn matmul_a_bt_fused(a: &Tensor, b: &Tensor, bias: &[f32]) -> Tensor {
    let (m, k, n) = check_2d(a.shape(), b.shape(), false, true);
    assert_eq!(bias.len(), n, "one bias per output column");
    let mut out = out_buffer(m, n, k);
    if k == 0 {
        // An empty reduction never reaches the store: zeros, then the bias.
        for row in out.data_mut().chunks_exact_mut(n.max(1)) {
            for (v, &bv) in row.iter_mut().zip(bias) {
                *v += bv;
            }
        }
        return out;
    }
    gemm(
        &MatSrc::RowMajor {
            data: a.data(),
            stride: k,
        },
        &MatSrc::ColMajor {
            data: b.data(),
            stride: k,
        },
        out.data_mut(),
        m,
        n,
        k,
        Some(bias),
        Exec::process(),
    );
    out
}

/// GEMM output buffer: uninitialized pooled storage when the reduction
/// will overwrite every element, zeroed when `k == 0` leaves C untouched.
fn out_buffer(m: usize, n: usize, k: usize) -> Tensor {
    if k == 0 {
        Tensor::zeros(&[m, n])
    } else {
        Tensor::uninit(&[m, n])
    }
}

/// Reference triple-loop `C = A · B` (no blocking, no threading). Kept as
/// the oracle the blocked core's equivalence tests compare against.
///
/// # Panics
///
/// Panics if either input is not 2-D or the inner dimensions disagree.
pub fn matmul_naive(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k, n) = check_2d(a.shape(), b.shape(), false, false);
    let mut out = Tensor::zeros(&[m, n]);
    let ad = a.data();
    let bd = b.data();
    let od = out.data_mut();
    for i in 0..m {
        for kk in 0..k {
            let av = ad[i * k + kk];
            let brow = &bd[kk * n..(kk + 1) * n];
            let orow = &mut od[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
    out
}

/// Validates 2-D shapes and returns `(m, k, n)` given which operands are
/// stored transposed.
fn check_2d(a: &[usize], b: &[usize], a_t: bool, b_t: bool) -> (usize, usize, usize) {
    assert_eq!(a.len(), 2, "matmul expects 2-D lhs");
    assert_eq!(b.len(), 2, "matmul expects 2-D rhs");
    let (m, k) = if a_t { (a[1], a[0]) } else { (a[0], a[1]) };
    let (k2, n) = if b_t { (b[1], b[0]) } else { (b[0], b[1]) };
    assert_eq!(k, k2, "inner dimensions must agree");
    (m, k, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(shape: &[usize]) -> Tensor {
        let len: usize = shape.iter().product();
        Tensor::from_vec(shape, (0..len).map(|x| (x % 7) as f32 - 3.0).collect())
    }

    #[test]
    fn transposed_variants_agree_with_plain() {
        let a = seq(&[4, 5]);
        let b = seq(&[5, 3]);
        let c = matmul(&a, &b);

        // Aᵀ·B with A stored transposed.
        let mut at = Tensor::zeros(&[5, 4]);
        for i in 0..4 {
            for j in 0..5 {
                at.set(&[j, i], a.get(&[i, j]));
            }
        }
        assert!(matmul_at_b(&at, &b).max_abs_diff(&c) < 1e-5);

        // A·Bᵀ with B stored transposed.
        let mut bt = Tensor::zeros(&[3, 5]);
        for i in 0..5 {
            for j in 0..3 {
                bt.set(&[j, i], b.get(&[i, j]));
            }
        }
        assert!(matmul_a_bt(&a, &bt).max_abs_diff(&c) < 1e-5);
    }

    #[test]
    fn identity_is_neutral() {
        let a = seq(&[3, 3]);
        let mut eye = Tensor::zeros(&[3, 3]);
        for i in 0..3 {
            eye.set(&[i, i], 1.0);
        }
        assert!(matmul(&a, &eye).max_abs_diff(&a) < 1e-6);
    }

    #[test]
    fn blocked_matches_naive_beyond_tile_boundaries() {
        let a = seq(&[70, 131]);
        let b = seq(&[131, 67]);
        let fast = matmul(&a, &b);
        let slow = matmul_naive(&a, &b);
        assert!(
            fast.max_abs_diff(&slow) < 1e-2,
            "diff {}",
            fast.max_abs_diff(&slow)
        );
    }

    #[test]
    fn nan_propagates_through_zero_lhs() {
        // The seed kernel's `av == 0.0` early-continue silently dropped
        // NaN/Inf contributions from B; the blocked core must not.
        let a = Tensor::from_vec(&[1, 2], vec![0.0, 0.0]);
        let b = Tensor::from_vec(&[2, 1], vec![f32::NAN, 1.0]);
        assert!(matmul(&a, &b).data()[0].is_nan());
        let at = Tensor::from_vec(&[2, 1], vec![0.0, 0.0]);
        assert!(matmul_at_b(&at, &b).data()[0].is_nan());
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn mismatch_panics() {
        let _ = matmul(&Tensor::zeros(&[2, 3]), &Tensor::zeros(&[4, 2]));
    }
}
