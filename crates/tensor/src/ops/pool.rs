//! Pooling operators with their backward passes.
//!
//! Max and average pooling run on the direct convolution's staging
//! (`ops::direct`, `docs/ARCHITECTURE.md` "Pooling"): each `(sample,
//! channel)` plane is staged once into its stride-phase planes, padded
//! with the op's identity — `-0.0` for the average (`x + -0.0 == x` for
//! every `x`, ±0 included), `-inf` for the max (it never wins a strict
//! `>`). Every window is then full, and each of the `k²` taps is a constant
//! offset into one contiguous stream over the flattened output domain of a
//! whole chunk of planes, so a pass is one vectorisable loop per tap. Each
//! output goes through the same adds and compares, in the same order, as
//! a scalar loop over its window clipped to the input, so the results are
//! bitwise those of the clipped-window definitions the docs below state
//! (`crates/tensor/tests/pooling.rs` holds that scalar oracle).

use crate::arena;
use crate::ops::direct::{dy_planes, Staging};
use crate::ops::im2col::Conv2dCfg;
use crate::tensor::Tensor;

/// Bytes of staged planes and running lanes one chunk of planes may
/// occupy (at least one plane's). Small on purpose: the scratch goes back
/// to the arena after every call, and on `train_overhead_incep` the
/// arena's pooled bytes grew with the chunk (by ~0.4 MB at 256 KiB) to
/// save about a microsecond a call on its planes.
const CHUNK_BYTES: usize = 8 << 10;

/// A pooling call's geometry: a square `kernel` window at `stride` over
/// `[n, c, h, w]` with `pad` cells on each edge, pooled to `ho × wo`.
struct Window {
    kernel: usize,
    stride: usize,
    pad: usize,
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    ho: usize,
    wo: usize,
}

impl Window {
    fn new(shape: &[usize], kernel: usize, stride: usize, pad: usize) -> Self {
        let [n, c, h, w]: [usize; 4] = shape.try_into().expect("pooling expects a 4-D input");
        assert!(pad < kernel, "pad >= kernel leaves all-padding windows");
        assert!(
            stride > 0 && h + 2 * pad >= kernel && w + 2 * pad >= kernel,
            "window larger than padded input"
        );
        let (ho, wo) = Conv2dCfg::square(kernel, stride, pad).out_extent(h, w);
        Self {
            kernel,
            stride,
            pad,
            n,
            c,
            h,
            w,
            ho,
            wo,
        }
    }

    fn out_shape(&self) -> [usize; 4] {
        [self.n, self.c, self.ho, self.wo]
    }

    /// Planes per chunk when each takes `floats` scratch lanes (callers
    /// return early on an empty tensor, so there is at least one plane).
    fn chunk(&self, floats: usize) -> usize {
        (CHUNK_BYTES / (floats * size_of::<f32>())).clamp(1, self.n * self.c)
    }
}

/// A chunk of input planes staged phase-major, as the convolution stages
/// a sample's channels but with the phase outermost: phase `(py, px)` of
/// the chunk's plane `p` is the `hp × wp` plane `(py·phases + px)·chunk +
/// p` of the buffer and holds the padded input at `(s·r + py, s·c + px)`.
/// Over the chunk's flattened output domain `j = p·area + oy·wp + ox`, tap
/// `(ky, kx)` of every output of every plane is element `j + ((ky mod
/// s)·phases + kx mod s)·block + (ky/s)·wp + kx/s`.
struct Staged {
    kernel: usize,
    stride: usize,
    phases: usize,
    hp: usize,
    wp: usize,
    area: usize,
    chunk: usize,
}

impl Staged {
    /// The staging of `win`, with chunks sized for `temps` more
    /// plane-sized running buffers besides the staged phases.
    fn new(win: &Window, temps: usize) -> Self {
        let (k, s) = (win.kernel, win.stride);
        let (hp, wp) = (win.ho + (k - 1) / s, win.wo + (k - 1) / s);
        let phases = s.min(k);
        Self {
            kernel: k,
            stride: s,
            phases,
            hp,
            wp,
            area: hp * wp,
            chunk: win.chunk((phases * phases + temps) * hp * wp),
        }
    }

    /// Lanes of one phase of a whole chunk; also the length of each
    /// running buffer.
    fn block(&self) -> usize {
        self.chunk * self.area
    }

    /// Length of the staged buffer.
    fn len(&self) -> usize {
        self.phases * self.phases * self.block()
    }

    /// `(k mod s, k / s)` for window rows (or columns) `k` in order,
    /// counted rather than divided: an integer division takes as long as a
    /// tap's whole pass over a small plane.
    fn steps(&self) -> impl Iterator<Item = (usize, usize)> + Clone {
        let s = self.stride;
        (0..)
            .flat_map(move |q| (0..s).map(move |p| (p, q)))
            .take(self.kernel)
    }

    /// Offsets of window row `(py, qy)`'s taps, left to right.
    fn row_taps(&self, (py, qy): (usize, usize)) -> impl Iterator<Item = usize> + '_ {
        let row = py * self.phases * self.block() + qy * self.wp;
        self.steps()
            .map(move |(px, qx)| row + px * self.block() + qx)
    }

    /// Offsets of every tap, in the window's row-major order.
    fn taps(&self) -> impl Iterator<Item = usize> + '_ {
        self.steps().flat_map(|row| self.row_taps(row))
    }

    /// Output-domain lanes of `planes` planes whose last needs `rows` rows
    /// of `wo` valid lanes.
    fn domain(&self, planes: usize, rows: usize, wo: usize) -> usize {
        (planes - 1) * self.area + (rows - 1) * self.wp + wo
    }

    /// Stages the whole `h × w` planes of `src` (at most `chunk`), padded
    /// with `fill`: per row phase, every plane's column phases in one call.
    fn stage(&self, win: &Window, src: &[f32], buf: &mut [f32], fill: f32) {
        let staging = Staging {
            hp: self.hp,
            wp: self.wp,
            len: self.area,
            sh: win.h,
            sw: win.w,
            s: self.stride,
            fill,
            round: false,
        };
        let pad = win.pad as isize;
        for py in 0..self.phases {
            let dst = &mut buf[py * self.phases * self.block()..];
            let origin = (py as isize - pad, -pad);
            staging.stage(src, dst, (self.area, self.block()), self.phases, origin);
        }
    }

    /// Copies the `wo` valid lanes of every output row in the chunk's
    /// stream `src` into the dense `ho × wo` planes of `dst`, through `f`.
    fn store<T>(&self, dst: &mut [T], src: &[f32], (ho, wo): (usize, usize), f: impl Fn(f32) -> T) {
        for (plane, lanes) in dst.chunks_exact_mut(ho * wo).zip(src.chunks(self.area)) {
            for (row, lanes) in plane.chunks_exact_mut(wo).zip(lanes.chunks(self.wp)) {
                for (d, &v) in row.iter_mut().zip(lanes) {
                    *d = f(v);
                }
            }
        }
    }
}

/// Max-pool forward with symmetric padding (`pad` rows/columns on each
/// edge). Padding cells hold `-inf`: output `(oy, ox)` is the first
/// strictly greatest cell of its window clipped to the input, scanned in
/// row-major order (`-inf` when no cell exceeds `-inf`, e.g. an all-NaN
/// window).
///
/// With `taps`, also writes each output's argmax as a **window-tap index**
/// `ky·kernel + kx` (consumed by [`maxpool2d_backward`]): one byte per
/// output, always naming an input cell. A window with no cell above
/// `-inf` names its first input cell. Without `taps` no argmax is
/// computed (the eval-mode forward).
///
/// # Examples
///
/// ```
/// use mbs_tensor::ops::maxpool2d_padded;
/// use mbs_tensor::Tensor;
///
/// // 2x2 input, 3x3 window, stride 2, pad 1: one window, whose input
/// // cells are taps 4, 5, 7 and 8 (rows/columns 1 and 2 of the window).
/// let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
/// let mut taps = Vec::new();
/// let y = maxpool2d_padded(&x, 3, 2, 1, Some(&mut taps));
/// assert_eq!(y.shape(), &[1, 1, 1, 1]);
/// assert_eq!(y.data(), &[4.0]);
/// assert_eq!(taps, vec![8]);
/// ```
///
/// # Panics
///
/// Panics if `x` is not 4-D, the window does not fit the padded input,
/// `pad >= kernel` (some windows would lie entirely in padding), or
/// `kernel² > 255` (a tap index would not fit a byte).
pub fn maxpool2d_padded(
    x: &Tensor,
    kernel: usize,
    stride: usize,
    pad: usize,
    mut taps: Option<&mut Vec<u8>>,
) -> Tensor {
    let win = Window::new(x.shape(), kernel, stride, pad);
    let k2 = kernel * kernel;
    assert!(
        k2 <= u8::MAX as usize,
        "a {kernel}x{kernel} window has more taps than a byte indexes"
    );
    let mut out = Tensor::uninit(&win.out_shape());
    if let Some(t) = taps.as_deref_mut() {
        t.clear();
        t.resize(out.len(), 0);
    }
    if out.is_empty() {
        return out;
    }
    let st = Staged::new(&win, 2);
    let block = st.block();
    let mut scratch = arena::take(st.len() + 2 * block + st.area);
    let (staged, rest) = scratch.split_at_mut(st.len());
    let (best, rest) = rest.split_at_mut(block);
    let (arg, first) = rest.split_at_mut(block);
    if taps.is_some() {
        // Each lane's first input cell: the argmax of a window none of
        // whose cells exceeds -inf.
        for (r, row) in first.chunks_exact_mut(st.wp).enumerate() {
            let ky = pad.saturating_sub(r * stride);
            for (c, f) in row.iter_mut().enumerate() {
                *f = (ky * kernel + pad.saturating_sub(c * stride)) as f32;
            }
        }
    }
    let (plane, out_plane) = (win.h * win.w, win.ho * win.wo);
    let chunks = x.data().chunks(st.chunk * plane);
    let out_chunks = out.data_mut().chunks_mut(st.chunk * out_plane);
    for (i, (x, y)) in chunks.zip(out_chunks).enumerate() {
        st.stage(&win, x, staged, f32::NEG_INFINITY);
        let domain = st.domain(x.len() / plane, win.ho, win.wo);
        let best = &mut best[..domain];
        best.fill(f32::NEG_INFINITY);
        let streams = st.taps().map(|o| &staged[o..][..domain]);
        match taps.as_deref_mut() {
            None => {
                for src in streams {
                    for (b, &v) in best.iter_mut().zip(src) {
                        *b = if v > *b { v } else { *b };
                    }
                }
            }
            Some(taps) => {
                let arg = &mut arg[..domain];
                for plane in arg.chunks_mut(st.area) {
                    plane.copy_from_slice(&first[..plane.len()]);
                }
                for (t, src) in streams.enumerate() {
                    let t = t as f32;
                    for ((b, a), &v) in best.iter_mut().zip(arg.iter_mut()).zip(src) {
                        let wins = v > *b;
                        *b = if wins { v } else { *b };
                        *a = if wins { t } else { *a };
                    }
                }
                let taps = &mut taps[i * st.chunk * out_plane..][..y.len()];
                st.store(taps, arg, (win.ho, win.wo), |a| a as u8);
            }
        }
        st.store(y, best, (win.ho, win.wo), |v| v);
    }
    out
}

/// Max-pool backward: routes each output gradient to the input cell its
/// window-tap index names, in output order. `taps` comes from the
/// [`maxpool2d_padded`] call on an `x_shape` input with the same window.
///
/// # Panics
///
/// Panics if `x_shape` is not 4-D, `dy` does not match the pooled shape,
/// or `taps` does not hold one index per output.
pub fn maxpool2d_backward(
    dy: &Tensor,
    taps: &[u8],
    x_shape: &[usize],
    kernel: usize,
    stride: usize,
    pad: usize,
) -> Tensor {
    let win = Window::new(x_shape, kernel, stride, pad);
    assert_eq!(dy.shape(), &win.out_shape(), "dy shape mismatch");
    assert_eq!(taps.len(), dy.len(), "one tap index per output");
    let (w, wo) = (win.w, win.wo);
    // Offset of tap `t` from output `(oy, ox)`'s stride point `(s·oy,
    // s·ox)`: its window starts `pad` rows and columns before it, so the
    // offset may be negative, and is kept in wrapping arithmetic (the sum
    // always names an input cell). 256 entries: any byte indexes it.
    let mut offset = [0usize; 256];
    let cells = (0..kernel).flat_map(|ky| (0..kernel).map(move |kx| ky * w + kx));
    for (o, cell) in offset.iter_mut().zip(cells) {
        *o = cell.wrapping_sub(pad * w + pad);
    }
    let mut dx = Tensor::zeros(x_shape);
    if dx.is_empty() {
        return dx;
    }
    let planes = dx.data_mut().chunks_exact_mut(win.h * w).zip(
        dy.data()
            .chunks_exact(win.ho * wo)
            .zip(taps.chunks_exact(win.ho * wo)),
    );
    for (dx, (dy, taps)) in planes {
        let rows = dy.chunks_exact(wo).zip(taps.chunks_exact(wo));
        for (oy, (dy, taps)) in rows.enumerate() {
            let mut at = oy * stride * w;
            for (&g, &t) in dy.iter().zip(taps) {
                dx[at.wrapping_add(offset[t as usize])] += g;
                at += stride;
            }
        }
    }
    dx
}

/// Average-pool forward with symmetric zero padding. The divisor is the
/// full window area (`kernel * kernel`), padding included — zero-padding
/// cells contribute zeros to the sum, matching the convention of the
/// Inception-style `Pool { kind: Avg, pad: 1 }` layers this op lowers.
/// Output `(oy, ox)` is `0.0 + r₀ + r₁ + …` over the row sums `rᵢ` of its
/// window clipped to the input, each summed left to right, times
/// `1 / kernel²`.
///
/// # Examples
///
/// ```
/// use mbs_tensor::ops::avgpool2d;
/// use mbs_tensor::Tensor;
///
/// let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
/// let y = avgpool2d(&x, 2, 2, 0);
/// assert_eq!(y.shape(), &[1, 1, 1, 1]);
/// assert_eq!(y.data(), &[2.5]);
/// ```
///
/// # Panics
///
/// Panics if `x` is not 4-D, the window does not fit the padded input, or
/// `pad >= kernel`.
pub fn avgpool2d(x: &Tensor, kernel: usize, stride: usize, pad: usize) -> Tensor {
    let win = Window::new(x.shape(), kernel, stride, pad);
    let mut out = Tensor::uninit(&win.out_shape());
    if out.is_empty() {
        return out;
    }
    let inv_area = 1.0 / (kernel * kernel) as f32;
    // Running buffers: the row sums of each row phase.
    let rows = stride.min(kernel);
    let st = Staged::new(&win, rows);
    let block = st.block();
    let mut scratch = arena::take(st.len() + rows * block);
    let (staged, row_sums) = scratch.split_at_mut(st.len());
    let (plane, out_plane) = (win.h * win.w, win.ho * win.wo);
    let chunks = x.data().chunks(st.chunk * plane);
    for (x, y) in chunks.zip(out.data_mut().chunks_mut(st.chunk * out_plane)) {
        st.stage(&win, x, staged, -0.0);
        let planes = x.len() / plane;
        // Row phase `py` (window rows `ky ≡ py mod s`): Σ_kx, left to
        // right, over every staged row.
        let len = st.domain(planes, st.hp, win.wo);
        for (py, sums) in row_sums.chunks_exact_mut(block).enumerate() {
            let sums = &mut sums[..len];
            let mut taps = st.row_taps((py, 0)).map(|o| &staged[o..][..len]);
            sums.copy_from_slice(taps.next().expect("a window has a column"));
            for tap in taps {
                for (r, &v) in sums.iter_mut().zip(tap) {
                    *r += v;
                }
            }
        }
        // Window row `ky` of output row `oy` is row `oy + ky/s` of phase
        // `ky mod s`. The staged planes are spent: their first block takes
        // the sums.
        let acc = &mut staged[..st.domain(planes, win.ho, win.wo)];
        acc.fill(0.0);
        for (py, qy) in st.steps() {
            for (a, &r) in acc.iter_mut().zip(&row_sums[py * block + qy * st.wp..]) {
                *a += r;
            }
        }
        st.store(y, acc, (win.ho, win.wo), |v| v * inv_area);
    }
    out
}

/// Average-pool backward: spreads each output gradient uniformly over its
/// window's valid cells (scaled by the same full-window divisor the
/// forward used, so the pair is an exact adjoint). Input cell `(iy, ix)`
/// is `0.0 + g₀ + g₁ + …` over `gₒ = dy[o] / kernel²` of the outputs whose
/// windows cover it, in output order — gathered from `dy` staged with
/// `-0.0` padding, one pass per input stride phase as in the
/// convolution's data gradient.
///
/// # Panics
///
/// Panics if `x_shape` is not 4-D, the window does not fit the padded
/// input, `pad >= kernel`, or `dy` does not match the pooled shape.
pub fn avgpool2d_backward(
    dy: &Tensor,
    x_shape: &[usize],
    kernel: usize,
    stride: usize,
    pad: usize,
) -> Tensor {
    let win = Window::new(x_shape, kernel, stride, pad);
    assert_eq!(dy.shape(), &win.out_shape(), "dy shape mismatch");
    let s = stride;
    // A phase without taps (stride past the kernel) is never covered: zero.
    let mut dx = if s > kernel {
        Tensor::zeros(x_shape)
    } else {
        Tensor::uninit(x_shape)
    };
    if dx.is_empty() {
        return dx;
    }
    let inv_area = 1.0 / (kernel * kernel) as f32;
    let (py, px, hp, wp) = dy_planes(win.h, win.w, Conv2dCfg::square(kernel, s, pad));
    let (area, t) = (hp * wp, (kernel - 1) / s);
    // Staged `dy` and the running sums of one phase.
    let chunk = win.chunk(2 * area);
    let mut scratch = arena::take(2 * chunk * area);
    let (staged, acc) = scratch.split_at_mut(chunk * area);
    let staging = Staging {
        hp,
        wp,
        len: area,
        sh: win.ho,
        sw: win.wo,
        s: 1,
        fill: -0.0,
        round: false,
    };
    let (plane, out_plane) = (win.h * win.w, win.ho * win.wo);
    let chunks = dx.data_mut().chunks_mut(chunk * plane);
    for (dx, dy) in chunks.zip(dy.data().chunks(chunk * out_plane)) {
        let planes = dy.len() / out_plane;
        let staged = &mut staged[..planes * area];
        let origin = (-(t as isize), -(t as isize));
        staging.stage(dy, staged, (area, area), 1, origin);
        for g in staged.iter_mut() {
            *g *= inv_area;
        }
        for y in py.iter().filter(|y| y.taps > 0) {
            for x in px.iter().filter(|x| x.taps > 0) {
                // Cell (qy, qx) reads dy row m - taps + 1 + qy and column
                // n - taps + 1 + qx: row-major over cells is output order.
                let (by, bx) = (y.m_lo + t + 1 - y.taps, x.m_lo + t + 1 - x.taps);
                let acc = &mut acc[..(planes - 1) * area + (y.count - 1) * wp + x.count];
                acc.fill(0.0);
                for qy in 0..y.taps {
                    for qx in 0..x.taps {
                        for (a, &g) in acc.iter_mut().zip(&staged[(by + qy) * wp + bx + qx..]) {
                            *a += g;
                        }
                    }
                }
                for (dx, acc) in dx.chunks_exact_mut(plane).zip(acc.chunks(area)) {
                    for (u, lanes) in acc.chunks(wp).take(y.count).enumerate() {
                        let (row, lanes) = (
                            &mut dx[(y.first + s * u) * win.w + x.first..],
                            &lanes[..x.count],
                        );
                        if s == 1 {
                            row[..x.count].copy_from_slice(lanes);
                            continue;
                        }
                        for (d, &a) in row.chunks_mut(s).zip(lanes) {
                            d[0] = a;
                        }
                    }
                }
            }
        }
    }
    dx
}

/// Global average pooling: `[n, c, h, w] → [n, c]`.
pub fn global_avg_pool(x: &Tensor) -> Tensor {
    let [n, c, h, w]: [usize; 4] = x.shape().try_into().expect("gap expects 4-D");
    let mut out = Tensor::zeros(&[n, c]);
    let xd = x.data();
    let od = out.data_mut();
    let hw = (h * w) as f32;
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            od[ni * c + ci] = xd[base..base + h * w].iter().sum::<f32>() / hw;
        }
    }
    out
}

/// Global average pooling backward: spreads each channel gradient evenly.
pub fn global_avg_pool_backward(dy: &Tensor, x_shape: &[usize]) -> Tensor {
    let [n, c, h, w]: [usize; 4] = x_shape.try_into().expect("gap expects 4-D shape");
    assert_eq!(dy.shape(), &[n, c], "dy shape mismatch");
    let mut dx = Tensor::zeros(x_shape);
    let hw = (h * w) as f32;
    let dyd = dy.data();
    let dxd = dx.data_mut();
    for ni in 0..n {
        for ci in 0..c {
            let g = dyd[ni * c + ci] / hw;
            let base = (ni * c + ci) * h * w;
            for v in &mut dxd[base..base + h * w] {
                *v = g;
            }
        }
    }
    dx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_selects_maximum() {
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 5.0, 3.0, 2.0]);
        let mut taps = Vec::new();
        let y = maxpool2d_padded(&x, 2, 2, 0, Some(&mut taps));
        assert_eq!(y.data(), &[5.0]);
        assert_eq!(taps, vec![1]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 5.0, 3.0, 2.0]);
        let mut taps = Vec::new();
        let _ = maxpool2d_padded(&x, 2, 2, 0, Some(&mut taps));
        let dy = Tensor::from_vec(&[1, 1, 1, 1], vec![2.5]);
        let dx = maxpool2d_backward(&dy, &taps, x.shape(), 2, 2, 0);
        assert_eq!(dx.data(), &[0.0, 2.5, 0.0, 0.0]);
    }

    #[test]
    fn padded_maxpool_ignores_padding_cells() {
        // All-negative input: -inf padding must never win a window.
        let x = Tensor::from_vec(&[1, 1, 3, 3], (0..9).map(|v| -(v as f32) - 1.0).collect());
        let mut taps = Vec::new();
        let y = maxpool2d_padded(&x, 3, 2, 1, Some(&mut taps));
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        // Top-left window sees rows/cols {0,1}: max is x[0,0] = -1.
        assert_eq!(y.get(&[0, 0, 0, 0]), -1.0);
        // Every window's maximum is its first input cell, never padding:
        // tap (1,1) of the top-left window, (1,0), (0,1) and (0,0) of the
        // others.
        assert_eq!(taps, vec![4, 3, 1, 0]);
    }

    #[test]
    fn padded_maxpool_matches_resnet_stem_shape() {
        // 7x7 input, 3x3/2 pad 1 -> 4x4 (the ResNet pool1 rule).
        let x = Tensor::from_vec(&[1, 1, 7, 7], (0..49).map(|v| v as f32).collect());
        let y = maxpool2d_padded(&x, 3, 2, 1, None);
        assert_eq!(y.shape(), &[1, 1, 4, 4]);
        assert_eq!(y.get(&[0, 0, 3, 3]), 48.0);
    }

    #[test]
    #[should_panic(expected = "pad >= kernel")]
    fn all_padding_windows_are_rejected() {
        let x = Tensor::from_vec(&[1, 1, 4, 4], vec![0.0; 16]);
        let _ = maxpool2d_padded(&x, 2, 2, 2, None);
    }

    #[test]
    fn avgpool_means_windows() {
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let y = avgpool2d(&x, 2, 2, 0);
        assert_eq!(y.data(), &[2.5]);
    }

    #[test]
    fn padded_avgpool_counts_padding_in_divisor() {
        // 2x2 ones, 3x3/1 pad 1: center window sums all four ones, corner
        // windows sum four ones too... no: corner (0,0) window covers rows
        // {0,1} cols {0,1} = all four cells -> 4/9.
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0; 4]);
        let y = avgpool2d(&x, 3, 1, 1);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        for &v in y.data() {
            assert!((v - 4.0 / 9.0).abs() < 1e-6, "got {v}");
        }
    }

    #[test]
    fn avgpool_backward_is_adjoint() {
        // <pool(x), dy> == <x, pool_backward(dy)> for an exact adjoint.
        let x = Tensor::from_vec(
            &[2, 2, 5, 5],
            (0..100).map(|v| (v as f32) / 7.0 - 6.0).collect(),
        );
        for (k, s, p) in [(3usize, 1usize, 1usize), (3, 2, 0), (2, 2, 0), (3, 2, 1)] {
            let y = avgpool2d(&x, k, s, p);
            let dy = Tensor::from_vec(y.shape(), (0..y.len()).map(|v| v as f32 - 3.0).collect());
            let dx = avgpool2d_backward(&dy, x.shape(), k, s, p);
            let lhs: f32 = y.data().iter().zip(dy.data()).map(|(a, b)| a * b).sum();
            let rhs: f32 = x.data().iter().zip(dx.data()).map(|(a, b)| a * b).sum();
            assert!((lhs - rhs).abs() < 1e-3, "k{k} s{s} p{p}: {lhs} vs {rhs}");
        }
    }

    #[test]
    fn gap_means_channels() {
        let x = Tensor::from_vec(&[1, 2, 1, 2], vec![1.0, 3.0, 5.0, 7.0]);
        let y = global_avg_pool(&x);
        assert_eq!(y.data(), &[2.0, 6.0]);
        let dy = Tensor::from_vec(&[1, 2], vec![2.0, 4.0]);
        let dx = global_avg_pool_backward(&dy, x.shape());
        assert_eq!(dx.data(), &[1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    fn gap_backward_is_adjoint() {
        let x = Tensor::from_vec(&[2, 3, 2, 2], (0..24).map(|v| v as f32).collect());
        let y = global_avg_pool(&x);
        let dy = Tensor::from_vec(&[2, 3], (0..6).map(|v| v as f32 - 2.0).collect());
        let dx = global_avg_pool_backward(&dy, x.shape());
        let lhs: f32 = y.data().iter().zip(dy.data()).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.data().iter().zip(dx.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-4);
    }
}
