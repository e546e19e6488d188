//! Property tests of the direct convolution kernels (`ops::direct`): all
//! three ops against the naive / im2col oracles over a geometry grid that
//! straddles every tile boundary, for every ISA tier this CPU has, plus
//! the adjoint identities and the bitwise pins the executor and the server
//! rely on (batched ≡ single-sample, thread invariance, fused ≡ unfused,
//! bf16 ≡ f32 on bf16-rounded operands, `_into` ≡ alloc-then-add), and
//! bitwise equality with scalar loops that do the stated multiply-adds in
//! the stated order.

use proptest::prelude::*;

use mbs_tensor::ops::{
    col2im, conv2d_naive, direct, im2col, kernel, matmul_naive, Conv2dCfg, Exec, MicroKernel,
};
use mbs_tensor::prec::{bf16_to_f32, f32_to_bf16, Precision};
use mbs_tensor::Tensor;

/// Kernel extents, incl. the 1×7 / 7×1 pair of Inception.
const KERNELS: [(usize, usize); 7] = [(1, 1), (2, 2), (3, 3), (5, 5), (7, 7), (1, 7), (7, 1)];
/// Input widths around the 8- and 16-lane vector multiples, so pixel
/// tiles straddle rows and the garbage-lane logic runs.
const WIDTHS: [usize; 5] = [1, 15, 16, 17, 33];
/// Channel counts around the 4- and 8-channel register blocks.
const CHANNELS: [usize; 5] = [1, 3, 8, 9, 17];

/// One point of the geometry grid.
#[derive(Debug, Clone, Copy)]
struct Case {
    cfg: Conv2dCfg,
    n: usize,
    ci: usize,
    co: usize,
    h: usize,
    w: usize,
}

/// Strategy over the grid: kernels × stride {1,2,3} × pad 0..k-1 (with
/// `pad_h != pad_w` whenever the kernel allows) × widths × channels ×
/// batch {1,3}; the height is the smallest of 1..9 the kernel fits.
fn cases() -> impl Strategy<Value = Case> {
    (
        (0usize..7, 1usize..4, 0usize..7, 0usize..7),
        (0usize..5, 1usize..10),
        (0usize..5, 0usize..5, 0usize..2),
    )
        .prop_map(|((ki, stride, pa, pb), (wi, h), (cii, coi, big))| {
            let (kernel_h, kernel_w) = KERNELS[ki];
            let pad_h = pa % kernel_h;
            let mut pad_w = pb % kernel_w;
            if pad_w == pad_h && kernel_w > 1 {
                pad_w = (pad_w + 1) % kernel_w;
            }
            let fit = |ext: usize, k: usize, p: usize| ext.max(k.saturating_sub(2 * p));
            Case {
                cfg: Conv2dCfg {
                    kernel_h,
                    kernel_w,
                    stride,
                    pad_h,
                    pad_w,
                },
                n: 1 + 2 * big,
                ci: CHANNELS[cii],
                co: CHANNELS[coi],
                h: fit(h, kernel_h, pad_h),
                w: fit(WIDTHS[wi], kernel_w, pad_w),
            }
        })
}

fn seeded(shape: &[usize], salt: usize) -> Tensor {
    let len: usize = shape.iter().product();
    Tensor::from_vec(
        shape,
        (0..len)
            .map(|v| ((v * 31 + salt * 17) % 29) as f32 / 7.0 - 2.0)
            .collect(),
    )
}

impl Case {
    fn x(&self) -> Tensor {
        seeded(&[self.n, self.ci, self.h, self.w], 1)
    }

    fn weights(&self) -> Tensor {
        seeded(&[self.co, self.ci, self.cfg.kernel_h, self.cfg.kernel_w], 2)
    }

    fn dy(&self) -> Tensor {
        let (ho, wo) = self.cfg.out_extent(self.h, self.w);
        seeded(&[self.n, self.co, ho, wo], 3)
    }

    fn taps(&self) -> usize {
        self.ci * self.cfg.kernel_h * self.cfg.kernel_w
    }
}

fn exec(kernel: &'static MicroKernel, threads: usize) -> Exec {
    Exec {
        kernel,
        threads,
        precision: Precision::F32,
    }
}

/// `|a - b|` within a tolerance scaled by the reduction depth `k`.
fn assert_close(a: &Tensor, b: &Tensor, k: usize, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape");
    let tol = 4e-5 * (k as f32).max(1.0);
    let diff = a.max_abs_diff(b);
    assert!(diff < tol, "{what}: diff {diff} tol {tol}");
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn dot(a: &Tensor, b: &Tensor) -> f64 {
    a.data()
        .iter()
        .zip(b.data())
        .map(|(x, y)| f64::from(*x) * f64::from(*y))
        .sum()
}

/// `dy` as the `[n·ho·wo, co]` matrix of im2col row order.
fn dy_rows(dy: &Tensor) -> Tensor {
    let [n, co, ho, wo]: [usize; 4] = dy.shape().try_into().unwrap();
    let hw = ho * wo;
    let mut rows = Tensor::zeros(&[n * hw, co]);
    for ni in 0..n {
        for o in 0..co {
            for p in 0..hw {
                rows.set(&[ni * hw + p, o], dy.data()[(ni * co + o) * hw + p]);
            }
        }
    }
    rows
}

fn transpose(m: &Tensor) -> Tensor {
    let (r, c) = (m.shape()[0], m.shape()[1]);
    let mut t = Tensor::zeros(&[c, r]);
    for i in 0..r {
        for j in 0..c {
            t.set(&[j, i], m.get(&[i, j]));
        }
    }
    t
}

/// Sample `i` of a batch, as a batch of one.
fn sample(t: &Tensor, i: usize) -> Tensor {
    let per = t.len() / t.shape()[0];
    let mut shape = t.shape().to_vec();
    shape[0] = 1;
    Tensor::from_vec(&shape, t.data()[i * per..(i + 1) * per].to_vec())
}

fn rounded(t: &Tensor) -> Tensor {
    let data = t
        .data()
        .iter()
        .map(|&v| bf16_to_f32(f32_to_bf16(v)))
        .collect();
    Tensor::from_vec(t.shape(), data)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Forward, data gradient and weight gradient equal their oracles
    /// (`conv2d_naive`, `col2im(dy·W)`, `dyᵀ·im2col(x)`) on every tier.
    #[test]
    fn direct_ops_match_the_oracles(c in cases()) {
        let (x, w, dy) = (c.x(), c.weights(), c.dy());
        let rows = dy_rows(&dy);
        let want_y = conv2d_naive(&x, &w, c.cfg);
        let want_dx = col2im(
            &matmul_naive(&rows, &w.reshape(&[c.co, c.taps()])),
            c.n, c.ci, c.h, c.w, c.cfg,
        );
        let want_dw = matmul_naive(&transpose(&rows), &im2col(&x, c.cfg)).reshape(w.shape());
        for kern in kernel::available() {
            let e = exec(kern, 1);
            let what = format!("{} {c:?}", kern.name);
            let y = direct::forward(&x, &w, None, c.cfg, e);
            assert_close(&y, &want_y, c.taps(), &format!("forward {what}"));
            let dx = direct::backward_data(&dy, &w, x.shape(), c.cfg, e);
            let depth = c.co * c.cfg.kernel_h * c.cfg.kernel_w;
            assert_close(&dx, &want_dx, depth, &format!("backward_data {what}"));
            let mut dw = Tensor::zeros(w.shape());
            direct::backward_weights_into(&x, &dy, c.cfg, &mut dw, e);
            assert_close(&dw, &want_dw, dy.len() / c.co, &format!("backward_weights {what}"));
        }
    }

    /// `<conv(x,w), dy> == <x, bwd_data(dy,w)> == <w, bwd_weights(x,dy)>`:
    /// the three ops are one bilinear form — the gradient oracle for
    /// geometries the fixed-shape finite-difference tests do not reach.
    #[test]
    fn gradients_are_adjoints_of_the_forward(c in cases()) {
        let (x, w, dy) = (c.x(), c.weights(), c.dy());
        for kern in kernel::available() {
            let e = exec(kern, 1);
            let lhs = dot(&direct::forward(&x, &w, None, c.cfg, e), &dy);
            let via_x = dot(&x, &direct::backward_data(&dy, &w, x.shape(), c.cfg, e));
            let mut dw = Tensor::zeros(w.shape());
            direct::backward_weights_into(&x, &dy, c.cfg, &mut dw, e);
            let via_w = dot(&w, &dw);
            let scale = lhs.abs().max(via_x.abs()).max(1.0);
            prop_assert!((lhs - via_x).abs() <= 1e-3 * scale, "{} {c:?}: {lhs} vs <x,dx> {via_x}", kern.name);
            prop_assert!((lhs - via_w).abs() <= 1e-3 * scale, "{} {c:?}: {lhs} vs <w,dw> {via_w}", kern.name);
        }
    }

    /// Sample `i` of a batched forward / data gradient is bit-for-bit the
    /// op run on sample `i` alone (what batched serving relies on).
    #[test]
    fn batched_equals_single_sample(c in cases()) {
        let (x, w, dy) = (c.x(), c.weights(), c.dy());
        for kern in kernel::available() {
            let e = exec(kern, 1);
            let y = direct::forward(&x, &w, None, c.cfg, e);
            let dx = direct::backward_data(&dy, &w, x.shape(), c.cfg, e);
            for i in 0..c.n {
                let (xi, dyi) = (sample(&x, i), sample(&dy, i));
                let yi = direct::forward(&xi, &w, None, c.cfg, e);
                prop_assert_eq!(bits(&sample(&y, i)), bits(&yi), "{} fwd {:?}", kern.name, c);
                let dxi = direct::backward_data(&dyi, &w, xi.shape(), c.cfg, e);
                prop_assert_eq!(bits(&sample(&dx, i)), bits(&dxi), "{} bwd {:?}", kern.name, c);
            }
        }
    }

    /// 1, 2 and 3 worker threads give identical bits for all three ops
    /// (incl. the bias store): threads split `sample × channel-block`
    /// items, never a reduction.
    #[test]
    fn thread_counts_are_bitwise_identical(c in cases()) {
        let (x, w, dy) = (c.x(), c.weights(), c.dy());
        let bias: Vec<f32> = (0..c.co).map(|o| o as f32 / 4.0 - 1.0).collect();
        for kern in kernel::available() {
            let run = |threads: usize| {
                let e = exec(kern, threads);
                let y = direct::forward(&x, &w, Some(&bias), c.cfg, e);
                let dx = direct::backward_data(&dy, &w, x.shape(), c.cfg, e);
                let mut dw = seeded(w.shape(), 4);
                direct::backward_weights_into(&x, &dy, c.cfg, &mut dw, e);
                (bits(&y), bits(&dx), bits(&dw))
            };
            let one = run(1);
            for threads in [2usize, 3] {
                prop_assert!(one == run(threads), "{} threads {threads} {c:?}", kern.name);
            }
        }
    }

    /// The bias added in the tile store equals conv, then a bias pass.
    #[test]
    fn fused_epilogue_equals_separate_passes(c in cases(), with_bias in 0usize..2) {
        let (x, w) = (c.x(), c.weights());
        let bias: Vec<f32> = (0..c.co).map(|o| (o % 5) as f32 / 2.0 - 1.0).collect();
        let bias = (with_bias == 1).then_some(&bias[..]);
        for kern in kernel::available() {
            let e = exec(kern, 1);
            let fused = direct::forward(&x, &w, bias, c.cfg, e);
            let mut plain = direct::forward(&x, &w, None, c.cfg, e);
            if let Some(b) = bias {
                let hw = plain.shape()[2] * plain.shape()[3];
                for (chunk, bv) in plain.data_mut().chunks_exact_mut(hw).zip(b.iter().cycle()) {
                    chunk.iter_mut().for_each(|v| *v += bv);
                }
            }
            prop_assert_eq!(bits(&fused), bits(&plain), "{} {:?}", kern.name, c);
        }
    }

    /// bf16 mode is exactly f32 mode on operands rounded through bf16:
    /// the precision lives in the staging copy, never in the arithmetic.
    #[test]
    fn bf16_equals_f32_on_rounded_operands(c in cases()) {
        let (x, w, dy) = (c.x(), c.weights(), c.dy());
        let (xr, wr, dyr) = (rounded(&x), rounded(&w), rounded(&dy));
        for kern in kernel::available() {
            let f32e = exec(kern, 1);
            let bf16 = Exec { precision: Precision::Bf16, ..f32e };
            prop_assert_eq!(
                bits(&direct::forward(&x, &w, None, c.cfg, bf16)),
                bits(&direct::forward(&xr, &wr, None, c.cfg, f32e)),
                "{} fwd {:?}", kern.name, c
            );
            prop_assert_eq!(
                bits(&direct::backward_data(&dy, &w, x.shape(), c.cfg, bf16)),
                bits(&direct::backward_data(&dyr, &wr, x.shape(), c.cfg, f32e)),
                "{} bwd data {:?}", kern.name, c
            );
            let (mut got, mut want) = (Tensor::zeros(w.shape()), Tensor::zeros(w.shape()));
            direct::backward_weights_into(&x, &dy, c.cfg, &mut got, bf16);
            direct::backward_weights_into(&xr, &dyr, c.cfg, &mut want, f32e);
            prop_assert_eq!(bits(&got), bits(&want), "{} bwd weights {:?}", kern.name, c);
        }
    }

    /// `backward_weights_into(grad)` is bit-for-bit "compute dW into
    /// zeros, then `grad += dW`": one add per weight, after its sum.
    #[test]
    fn weights_into_equals_alloc_then_add(c in cases()) {
        let (x, dy) = (c.x(), c.dy());
        for kern in kernel::available() {
            let e = exec(kern, 1);
            let mut into = seeded(c.weights().shape(), 5);
            let mut want = into.clone();
            direct::backward_weights_into(&x, &dy, c.cfg, &mut into, e);
            let mut dw = Tensor::zeros(want.shape());
            direct::backward_weights_into(&x, &dy, c.cfg, &mut dw, e);
            want.add_assign(&dw);
            prop_assert_eq!(bits(&into), bits(&want), "{} {:?}", kern.name, c);
        }
    }
}

/// `acc + a·b` as the tier's tile computes it: one rounding on the FMA
/// tiers, two on the portable one.
fn mac(fused: bool, a: f32, b: f32, acc: f32) -> f32 {
    if fused {
        a.mul_add(b, acc)
    } else {
        acc + a * b
    }
}

/// All three ops as scalar loops doing the multiply-adds the module docs
/// state, in their order, padding taps included (they read zero):
/// forward `(ci, ky, kx)` per output, then the bias; data gradient `(co,
/// qy, qx)` over the flipped sub-kernel of each output phase, `ky = s·(T -
/// 1 - qy) + ρ`; weight gradient every output pixel of every sample in
/// order, then one `+=` onto `grad`.
struct ScalarLoops<'a> {
    c: &'a Case,
    fused: bool,
}

impl ScalarLoops<'_> {
    /// `[n, c, h, w]` element index of `(sample, channel, row, column)`.
    fn at(&self, chans: usize, (h, w): (usize, usize), [s, c, y, x]: [usize; 4]) -> usize {
        ((s * chans + c) * h + y) * w + x
    }

    /// Input `(smp, c)` under tap `(ky, kx)` of output `(oy, ox)`: zero
    /// in the padding.
    fn tap(
        &self,
        x: &Tensor,
        (smp, c): (usize, usize),
        (oy, ox): (usize, usize),
        (ky, kx): (usize, usize),
    ) -> f32 {
        let (cfg, h, w) = (self.c.cfg, self.c.h, self.c.w);
        let iy = (oy * cfg.stride + ky).wrapping_sub(cfg.pad_h);
        let ix = (ox * cfg.stride + kx).wrapping_sub(cfg.pad_w);
        if iy < h && ix < w {
            x.data()[self.at(self.c.ci, (h, w), [smp, c, iy, ix])]
        } else {
            0.0
        }
    }

    fn weight(&self, w: &Tensor, o: usize, c: usize, (ky, kx): (usize, usize)) -> f32 {
        let k = (self.c.cfg.kernel_h, self.c.cfg.kernel_w);
        w.data()[self.at(self.c.ci, k, [o, c, ky, kx])]
    }

    fn forward(&self, x: &Tensor, w: &Tensor, bias: &[f32]) -> Tensor {
        let Case { cfg, n, ci, co, .. } = *self.c;
        let (ho, wo) = cfg.out_extent(self.c.h, self.c.w);
        let (kh, kw) = (cfg.kernel_h, cfg.kernel_w);
        let mut y = Tensor::zeros(&[n, co, ho, wo]);
        for (i, out) in y.data_mut().iter_mut().enumerate() {
            let (smp, o, oy, ox) = (i / (co * ho * wo), i / (ho * wo) % co, i / wo % ho, i % wo);
            let mut acc = 0.0f32;
            for (c, t) in (0..ci).flat_map(|c| (0..kh * kw).map(move |t| (c, t))) {
                let k = (t / kw, t % kw);
                let v = self.tap(x, (smp, c), (oy, ox), k);
                acc = mac(self.fused, self.weight(w, o, c, k), v, acc);
            }
            *out = acc + bias[o];
        }
        y
    }

    fn backward_data(&self, dy: &Tensor, w: &Tensor) -> Tensor {
        let Case {
            cfg,
            n,
            ci,
            co,
            h,
            w: wd,
        } = *self.c;
        let (ho, wo) = cfg.out_extent(h, wd);
        let s = cfg.stride;
        // Taps of input position `i` along an axis, in the flipped
        // sub-kernel's order: (kernel tap, output index or None past the
        // edge).
        let taps = |i: usize, k: usize, p: usize, out: usize| {
            let (rho, m) = ((i + p) % s, (i + p) / s);
            let count = (k + s - 1 - rho) / s;
            (0..count).map(move |q| {
                let back = count - 1 - q;
                (s * back + rho, m.checked_sub(back).filter(|&o| o < out))
            })
        };
        let mut dx = Tensor::zeros(&[n, ci, h, wd]);
        for (i, out) in dx.data_mut().iter_mut().enumerate() {
            let (smp, c, iy, ix) = (i / (ci * h * wd), i / (h * wd) % ci, i / wd % h, i % wd);
            let mut acc = 0.0f32;
            for o in 0..co {
                for (ky, oy) in taps(iy, cfg.kernel_h, cfg.pad_h, ho) {
                    for (kx, ox) in taps(ix, cfg.kernel_w, cfg.pad_w, wo) {
                        let g = match (oy, ox) {
                            (Some(oy), Some(ox)) => {
                                dy.data()[self.at(co, (ho, wo), [smp, o, oy, ox])]
                            }
                            _ => 0.0,
                        };
                        acc = mac(self.fused, self.weight(w, o, c, (ky, kx)), g, acc);
                    }
                }
            }
            *out = acc;
        }
        dx
    }

    fn backward_weights(&self, x: &Tensor, dy: &Tensor, grad: &mut Tensor) {
        let Case { cfg, n, ci, co, .. } = *self.c;
        let (ho, wo) = cfg.out_extent(self.c.h, self.c.w);
        let (kh, kw) = (cfg.kernel_h, cfg.kernel_w);
        for (i, g) in grad.data_mut().iter_mut().enumerate() {
            let (o, c, k) = (
                i / (ci * kh * kw),
                i / (kh * kw) % ci,
                (i / kw % kh, i % kw),
            );
            let mut acc = 0.0f32;
            for (smp, oy, ox) in (0..n).flat_map(|n| (0..ho * wo).map(move |p| (n, p / wo, p % wo)))
            {
                let v = self.tap(x, (smp, c), (oy, ox), k);
                acc = mac(
                    self.fused,
                    v,
                    dy.data()[self.at(co, (ho, wo), [smp, o, oy, ox])],
                    acc,
                );
            }
            *g += acc;
        }
    }
}

/// Every tier's forward (with a bias), data gradient and weight gradient
/// (onto a non-zero `grad`) equal the scalar loops bit for bit.
fn assert_bitwise_scalar_loops(c: &Case) {
    let (x, w, dy) = (c.x(), c.weights(), c.dy());
    let bias: Vec<f32> = (0..c.co).map(|o| o as f32 / 8.0 - 0.5).collect();
    for kern in kernel::available() {
        let e = exec(kern, 1);
        let oracle = ScalarLoops {
            c,
            fused: !std::ptr::eq(kern, &kernel::SCALAR_8X8),
        };
        let what = format!("{} {c:?}", kern.name);
        let y = direct::forward(&x, &w, Some(&bias), c.cfg, e);
        assert_eq!(
            bits(&y),
            bits(&oracle.forward(&x, &w, &bias)),
            "forward {what}"
        );
        let dx = direct::backward_data(&dy, &w, x.shape(), c.cfg, e);
        assert_eq!(
            bits(&dx),
            bits(&oracle.backward_data(&dy, &w)),
            "backward_data {what}"
        );
        let (mut dw, mut want) = (seeded(w.shape(), 4), seeded(w.shape(), 4));
        direct::backward_weights_into(&x, &dy, c.cfg, &mut dw, e);
        oracle.backward_weights(&x, &dy, &mut want);
        assert_eq!(bits(&dw), bits(&want), "backward_weights {what}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The grid, bit for bit against the scalar loops.
    #[test]
    fn direct_ops_are_bitwise_the_scalar_loops(c in cases()) {
        assert_bitwise_scalar_loops(&c);
    }
}

/// The scalar-loop pin on the narrow output channels and stride-2 pad-0
/// shapes of the Inception toy the benchmark trains (`toy::tiny_inception`
/// at 16²: its 1×1 8→4 convs, its 3×3 4→8 and 3→8 ones, `red.b1`'s 3×3/2
/// 16→8), at one sample and at three, beside co ∈ {4, 8} over the grid's
/// kernels at odd extents.
#[test]
fn narrow_and_strided_shapes_are_bitwise_the_scalar_loops() {
    let mut shapes = vec![
        (Conv2dCfg::square(1, 1, 0), 8, 4, (16, 16)),
        (Conv2dCfg::square(3, 1, 1), 4, 8, (16, 16)),
        (Conv2dCfg::square(3, 1, 1), 3, 8, (16, 16)),
        (Conv2dCfg::square(3, 2, 0), 16, 8, (16, 16)),
        (Conv2dCfg::square(1, 2, 0), 8, 4, (16, 16)),
    ];
    for co in [4, 8] {
        for (kh, kw) in KERNELS {
            for (stride, pad) in [(1, 0), (2, 0), (2, 1)] {
                let cfg = Conv2dCfg {
                    kernel_h: kh,
                    kernel_w: kw,
                    stride,
                    pad_h: pad.min(kh - 1),
                    pad_w: pad.min(kw - 1),
                };
                shapes.push((cfg, 3, co, (9, 11)));
            }
        }
    }
    for (cfg, ci, co, (h, w)) in shapes {
        for n in [1, 3] {
            assert_bitwise_scalar_loops(&Case {
                cfg,
                n,
                ci,
                co,
                h,
                w,
            });
        }
    }
}

/// The 1×1 panel path, forward and data gradient, bit for bit against the
/// scalar loops: output grids of 1, 15, 16, 17, 47, 48, 49 (7×7), 97 and
/// 196 (14×14) pixels — around the 16- and 48-lane chunks, so chunks end
/// inside a sample and cross into the next — at one, two and three
/// samples, strides 1 and 2 (odd and even inputs, so a strided data
/// gradient's last row or column is a zero one) without padding and with,
/// and every channel count of {1, 3, 4, 8, 9, 17, 64} on both sides; on
/// every tier, at 1, 2 and 3 threads, in f32 and in bf16 (against the
/// loops on bf16-rounded operands).
#[test]
fn pointwise_panels_are_bitwise_the_scalar_loops() {
    const GRIDS: [(usize, usize); 9] = [
        (1, 1),
        (3, 5),
        (4, 4),
        (1, 17),
        (1, 47),
        (6, 8),
        (7, 7),
        (1, 97),
        (14, 14),
    ];
    const CHANS: [usize; 7] = [1, 3, 4, 8, 9, 17, 64];
    let mut cases = 0;
    for (g, &(ho, wo)) in GRIDS.iter().enumerate() {
        for n in 1..=3 {
            for (stride, pad) in [(1, 0), (2, 0), (1, 1), (2, 1)] {
                // Inputs whose output grid is (ho, wo): odd or even.
                let ext = |o: usize, odd: usize| {
                    (stride * (o - 1) + 1 + odd * (stride - 1)).max(2 * pad + 1) - 2 * pad
                };
                let (h, w) = (ext(ho, (g + n) % 2), ext(wo, g % 2));
                let cfg = Conv2dCfg::square(1, stride, pad);
                for i in 0..CHANS.len() {
                    let (ci, co) = (CHANS[i], CHANS[(i + g + n) % CHANS.len()]);
                    let c = Case {
                        cfg,
                        n,
                        ci,
                        co,
                        h,
                        w,
                    };
                    assert_pointwise_bitwise(&c);
                    cases += 1;
                }
            }
        }
    }
    assert_eq!(cases, 9 * 3 * 4 * 7);
}

/// [`pointwise_panels_are_bitwise_the_scalar_loops`] for one case.
fn assert_pointwise_bitwise(c: &Case) {
    let (x, w, dy) = (c.x(), c.weights(), c.dy());
    let bias: Vec<f32> = (0..c.co).map(|o| o as f32 / 8.0 - 0.5).collect();
    for precision in [Precision::F32, Precision::Bf16] {
        let (xr, wr, dyr) = match precision {
            Precision::F32 => (x.clone(), w.clone(), dy.clone()),
            Precision::Bf16 => (rounded(&x), rounded(&w), rounded(&dy)),
        };
        for fused in [false, true] {
            let oracle = ScalarLoops { c, fused };
            let want_y = bits(&oracle.forward(&xr, &wr, &bias));
            let want_dx = bits(&oracle.backward_data(&dyr, &wr));
            let tiers = kernel::available()
                .into_iter()
                .filter(|k| std::ptr::eq(*k, &kernel::SCALAR_8X8) != fused);
            for kern in tiers {
                for threads in 1..=3 {
                    let e = Exec {
                        kernel: kern,
                        threads,
                        precision,
                    };
                    let what = format!("{} {threads} threads {precision:?} {c:?}", kern.name);
                    let y = direct::forward(&x, &w, Some(&bias), c.cfg, e);
                    assert_eq!(bits(&y), want_y, "forward {what}");
                    let dx = direct::backward_data(&dy, &w, x.shape(), c.cfg, e);
                    assert_eq!(bits(&dx), want_dx, "backward_data {what}");
                }
            }
        }
    }
}

/// Values in [-1, 1) from a 64-bit LCG: unstructured signs, so a long sum
/// cancels the way real gradients do.
fn noise(shape: &[usize], seed: u64) -> Tensor {
    let len: usize = shape.iter().product();
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let data = (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 40) as f32 / (1u64 << 23) as f32 - 1.0
        })
        .collect();
    Tensor::from_vec(shape, data)
}

/// Adds samples `samples` of the weight gradient, in f64, into `out`: per
/// weight, `(Σ x·dy, Σ |x·dy|)` over those samples' output pixels.
fn add_weight_gradient_f64(
    x: &Tensor,
    dy: &Tensor,
    cfg: Conv2dCfg,
    samples: std::ops::Range<usize>,
    out: &mut [(f64, f64)],
) {
    let [_, ci, h, w]: [usize; 4] = x.shape().try_into().unwrap();
    let [_, co, ho, wo]: [usize; 4] = dy.shape().try_into().unwrap();
    let (kh, kw, s) = (cfg.kernel_h, cfg.kernel_w, cfg.stride);
    let taps = ci * kh * kw;
    for smp in samples {
        for (oy, ox) in (0..ho).flat_map(|oy| (0..wo).map(move |ox| (oy, ox))) {
            let grads: Vec<f64> = (0..co)
                .map(|o| f64::from(dy.data()[((smp * co + o) * ho + oy) * wo + ox]))
                .collect();
            for tap in 0..taps {
                let (c, ky, kx) = (tap / (kh * kw), tap / kw % kh, tap % kw);
                let (iy, ix) = (
                    (oy * s + ky).wrapping_sub(cfg.pad_h),
                    (ox * s + kx).wrapping_sub(cfg.pad_w),
                );
                if iy >= h || ix >= w {
                    continue;
                }
                let a = f64::from(x.data()[((smp * ci + c) * h + iy) * w + ix]);
                for (o, b) in grads.iter().enumerate() {
                    let slot = &mut out[o * taps + tap];
                    slot.0 += a * b;
                    slot.1 += (a * b).abs();
                }
            }
        }
    }
}

/// The weight gradient's error against an f64 reference stays inside the
/// classical bound of a length-`L` dot product, `γ_L·Σ|x·dy|` with `γ_L =
/// L·u / (1 - L·u)`, `u = 2⁻²⁴`, for reduction lengths `L = n·ho·wo` up to
/// ~10⁴ — the long reductions pixel blocking splits, here the 3→16 7×7/2
/// stem at 64². Under bf16 each operand is first rounded to 8 significant
/// bits (relative error ≤ 2⁻⁸), which adds `(1 + 2⁻⁸)² - 1` to the factor.
/// Runs on the process's tier only (the `MBS_KERNEL` CI legs reach the
/// others): the portable tile alone would take seconds in a debug build.
#[test]
fn weight_gradient_error_is_bounded_by_reduction_length() {
    let cfg = Conv2dCfg::square(7, 2, 3);
    let (ci, co, h) = (3, 16, 64);
    let u = 2f64.powi(-24);
    let operand = (1.0 + 2f64.powi(-8)).powi(2);
    let (ho, wo) = cfg.out_extent(h, h);
    let (all_x, all_dy) = (noise(&[10, ci, h, h], 1), noise(&[10, co, ho, wo], 2));
    let mut want = vec![(0.0, 0.0); co * ci * 49];
    let mut done = 0;
    for n in [1, 3, 10] {
        // The first n samples; the reference grows by the new ones.
        let x = Tensor::from_vec(&[n, ci, h, h], all_x.data()[..n * ci * h * h].to_vec());
        let dy = Tensor::from_vec(&[n, co, ho, wo], all_dy.data()[..n * co * ho * wo].to_vec());
        add_weight_gradient_f64(&x, &dy, cfg, done..n, &mut want);
        done = n;
        let len = (n * ho * wo) as f64;
        let gamma = len * u / (1.0 - len * u);
        for (precision, factor) in [
            (Precision::F32, gamma),
            (Precision::Bf16, operand * (1.0 + gamma) - 1.0),
        ] {
            let e = Exec {
                precision,
                ..exec(kernel::selected(), 1)
            };
            let mut dw = Tensor::zeros(&[co, ci, 7, 7]);
            direct::backward_weights_into(&x, &dy, cfg, &mut dw, e);
            for (i, (&got, &(exact, mag))) in dw.data().iter().zip(&want).enumerate() {
                let err = (f64::from(got) - exact).abs();
                assert!(
                    err <= factor * mag,
                    "{} {precision:?} L={len}: weight {i} off by {err:e} > {:e}",
                    e.kernel.name,
                    factor * mag
                );
            }
        }
    }
}

/// Shapes the grid cannot reach: empty batches and channel counts, and a
/// stride past the kernel (whole input rows/columns no tap touches).
#[test]
fn degenerate_shapes_are_handled() {
    let cfg = Conv2dCfg::square(1, 3, 0);
    for kern in kernel::available() {
        let e = exec(kern, 2);
        let x = seeded(&[2, 3, 7, 8], 1);
        let w = seeded(&[5, 3, 1, 1], 2);
        let y = direct::forward(&x, &w, None, cfg, e);
        assert_close(&y, &conv2d_naive(&x, &w, cfg), 3, "stride past kernel");
        let dy = seeded(y.shape(), 3);
        let dx = direct::backward_data(&dy, &w, x.shape(), cfg, e);
        let rows = dy_rows(&dy);
        let want = col2im(&matmul_naive(&rows, &w.reshape(&[5, 3])), 2, 3, 7, 8, cfg);
        assert_close(&dx, &want, 5, "untouched positions are zero");

        let cfg = Conv2dCfg::square(3, 1, 1);
        let empty = Tensor::zeros(&[0, 3, 5, 5]);
        let w = seeded(&[4, 3, 3, 3], 2);
        assert_eq!(
            direct::forward(&empty, &w, None, cfg, e).shape(),
            &[0, 4, 5, 5]
        );
        let no_chan = Tensor::zeros(&[2, 0, 5, 5]);
        let w0 = Tensor::zeros(&[4, 0, 3, 3]);
        let bias = [1.0f32, -1.0, 0.5, 0.0];
        let y = direct::forward(&no_chan, &w0, Some(&bias), cfg, e);
        assert_eq!(&y.data()[..25], &[1.0; 25]);
        assert_eq!(&y.data()[25..50], &[-1.0; 25]);
        assert_eq!(&y.data()[50..75], &[0.5; 25]);
    }
}
