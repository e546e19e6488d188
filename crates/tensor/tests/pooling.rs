//! Bitwise pins of the staged pooling kernels (`ops::pool`) against the
//! scalar loops they replaced, kept here as the oracle: every window
//! clipped to the input, scanned cell by cell. Max forward values and
//! argmaxes, max backward, average forward and average backward must
//! match bit for bit on a geometry × extent grid (stride past the kernel
//! included) with ties, ±0.0, ±inf and NaN in the inputs, on every
//! pooling geometry of the network zoo, and batched ≡ per-sample.

use mbs_cnn::networks::{evaluation_suite, toy};
use mbs_cnn::{LayerKind, Network, NormKind, PoolKind};
use mbs_tensor::ops::{avgpool2d, avgpool2d_backward, maxpool2d_backward, maxpool2d_padded};
use mbs_tensor::Tensor;

/// `(kernel, stride, pad)` of the sweep, incl. stride past the kernel.
const WINDOWS: [(usize, usize, usize); 9] = [
    (3, 1, 1),
    (3, 2, 0),
    (3, 2, 1),
    (2, 2, 0),
    (2, 1, 0),
    (1, 1, 0),
    (3, 3, 1),
    (5, 1, 2),
    (2, 3, 0),
];
/// `(h, w)` extents of the sweep.
const EXTENTS: [(usize, usize); 6] = [(1, 1), (2, 2), (5, 5), (7, 9), (16, 16), (3, 17)];

// ---- The scalar oracle ----------------------------------------------------

/// Clipped input rows (or columns) of output row `o`'s window.
fn clipped(o: usize, ext: usize, k: usize, s: usize, p: usize) -> std::ops::Range<usize> {
    (o * s).saturating_sub(p)..(o * s + k - p).min(ext)
}

fn out_extent(ext: usize, k: usize, s: usize, p: usize) -> usize {
    (ext + 2 * p - k) / s + 1
}

/// Max-pool forward: values and the flat input index of each argmax. A
/// window with no cell above `-inf` takes its first input cell.
fn max_oracle(x: &Tensor, k: usize, s: usize, p: usize) -> (Vec<f32>, Vec<usize>) {
    let [n, c, h, w]: [usize; 4] = x.shape().try_into().unwrap();
    let (ho, wo) = (out_extent(h, k, s, p), out_extent(w, k, s, p));
    let (mut out, mut arg) = (Vec::new(), Vec::new());
    let xd = x.data();
    for plane in 0..n * c {
        let base = plane * h * w;
        for oy in 0..ho {
            let rows = clipped(oy, h, k, s, p);
            for ox in 0..wo {
                let cols = clipped(ox, w, k, s, p);
                let mut best = f32::NEG_INFINITY;
                let mut best_idx = base + rows.start * w + cols.start;
                for iy in rows.clone() {
                    for ix in cols.clone() {
                        let idx = base + iy * w + ix;
                        if xd[idx] > best {
                            best = xd[idx];
                            best_idx = idx;
                        }
                    }
                }
                out.push(best);
                arg.push(best_idx);
            }
        }
    }
    (out, arg)
}

fn max_backward_oracle(dy: &Tensor, argmax: &[usize], x_shape: &[usize]) -> Vec<f32> {
    let mut dx = vec![0.0f32; x_shape.iter().product()];
    for (g, &idx) in dy.data().iter().zip(argmax) {
        dx[idx] += g;
    }
    dx
}

fn avg_oracle(x: &Tensor, k: usize, s: usize, p: usize) -> Vec<f32> {
    let [n, c, h, w]: [usize; 4] = x.shape().try_into().unwrap();
    let (ho, wo) = (out_extent(h, k, s, p), out_extent(w, k, s, p));
    let inv_area = 1.0 / (k * k) as f32;
    let xd = x.data();
    let mut out = Vec::new();
    for plane in 0..n * c {
        let base = plane * h * w;
        for oy in 0..ho {
            for ox in 0..wo {
                let cols = clipped(ox, w, k, s, p);
                let mut sum = 0.0f32;
                for iy in clipped(oy, h, k, s, p) {
                    let row = base + iy * w;
                    sum += xd[row + cols.start..row + cols.end].iter().sum::<f32>();
                }
                out.push(sum * inv_area);
            }
        }
    }
    out
}

fn avg_backward_oracle(dy: &Tensor, x_shape: &[usize], k: usize, s: usize, p: usize) -> Vec<f32> {
    let [n, c, h, w]: [usize; 4] = x_shape.try_into().unwrap();
    let (ho, wo) = (out_extent(h, k, s, p), out_extent(w, k, s, p));
    let inv_area = 1.0 / (k * k) as f32;
    let mut dx = vec![0.0f32; n * c * h * w];
    let dyd = dy.data();
    for plane in 0..n * c {
        let base = plane * h * w;
        for oy in 0..ho {
            for ox in 0..wo {
                let g = dyd[(plane * ho + oy) * wo + ox] * inv_area;
                for iy in clipped(oy, h, k, s, p) {
                    for ix in clipped(ox, w, k, s, p) {
                        dx[base + iy * w + ix] += g;
                    }
                }
            }
        }
    }
    dx
}

// ---- Inputs and comparisons -----------------------------------------------

/// A deterministic value stream with ties (a small integer palette), ±0.0,
/// magnitudes far enough apart that a reordered sum rounds differently,
/// ±inf and, when `nan`, NaN.
fn values(len: usize, salt: u64, nan: bool) -> Vec<f32> {
    let mut state = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let r = (state >> 11) as u32;
            match r % 16 {
                0 => 0.0,
                1 => -0.0,
                2 if r.is_multiple_of(3) => f32::INFINITY,
                3 if r.is_multiple_of(3) => f32::NEG_INFINITY,
                4 if nan && r.is_multiple_of(7) => f32::NAN,
                5 => 1.0e8,
                6 => -3.0e-3,
                7..=9 => (r % 5) as f32 - 2.0,
                _ => (r % 20_011) as f32 / 1_337.0 - 7.0,
            }
        })
        .collect()
}

fn tensor(shape: &[usize], salt: u64, nan: bool) -> Tensor {
    Tensor::from_vec(shape, values(shape.iter().product(), salt, nan))
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Flat input index of each window-tap index.
fn tap_positions(taps: &[u8], x_shape: &[usize], k: usize, s: usize, p: usize) -> Vec<usize> {
    let [_, _, h, w]: [usize; 4] = x_shape.try_into().unwrap();
    let (ho, wo) = (out_extent(h, k, s, p), out_extent(w, k, s, p));
    taps.iter()
        .enumerate()
        .map(|(o, &t)| {
            let (plane, oy, ox) = (o / (ho * wo), o / wo % ho, o % wo);
            let (iy, ix) = (oy * s + t as usize / k - p, ox * s + t as usize % k - p);
            assert!(
                iy < h && ix < w,
                "tap {t} of output {o} names a padding cell"
            );
            (plane * h + iy) * w + ix
        })
        .collect()
}

/// All four ops at one geometry against the oracle, bit for bit.
fn check(x: &Tensor, k: usize, s: usize, p: usize, what: &str) {
    let mut taps = Vec::new();
    let y = maxpool2d_padded(x, k, s, p, Some(&mut taps));
    let (want, argmax) = max_oracle(x, k, s, p);
    assert_eq!(bits(y.data()), bits(&want), "{what}: max forward");
    let eval = maxpool2d_padded(x, k, s, p, None);
    assert_eq!(bits(eval.data()), bits(&want), "{what}: eval max forward");
    assert_eq!(
        tap_positions(&taps, x.shape(), k, s, p),
        argmax,
        "{what}: max argmax"
    );
    let dy = tensor(y.shape(), 7 + x.len() as u64, false);
    let dx = maxpool2d_backward(&dy, &taps, x.shape(), k, s, p);
    let want = max_backward_oracle(&dy, &argmax, x.shape());
    assert_eq!(bits(dx.data()), bits(&want), "{what}: max backward");

    let finite = Tensor::from_vec(
        x.shape(),
        x.data()
            .iter()
            .map(|v| if v.is_nan() { 0.5 } else { *v })
            .collect(),
    );
    let y = avgpool2d(&finite, k, s, p);
    assert_eq!(
        bits(y.data()),
        bits(&avg_oracle(&finite, k, s, p)),
        "{what}: avg forward"
    );
    let dx = avgpool2d_backward(&dy, x.shape(), k, s, p);
    let want = avg_backward_oracle(&dy, x.shape(), k, s, p);
    assert_eq!(bits(dx.data()), bits(&want), "{what}: avg backward");
}

fn fits(ext: usize, k: usize, p: usize) -> bool {
    ext + 2 * p >= k
}

#[test]
fn staged_pooling_matches_the_scalar_oracle_bitwise() {
    let mut cases = 0;
    for (k, s, p) in WINDOWS {
        for (h, w) in EXTENTS {
            if !fits(h, k, p) || !fits(w, k, p) {
                continue;
            }
            for salt in 0..4 {
                let x = tensor(&[2, 3, h, w], salt * 1_000 + (h * w) as u64, true);
                check(&x, k, s, p, &format!("{k}/{s}/{p} at {h}x{w}, salt {salt}"));
                cases += 1;
            }
        }
    }
    assert!(cases >= 150, "the sweep shrank to {cases} cases");
}

#[test]
fn batched_pooling_equals_per_sample() {
    for (k, s, p) in WINDOWS {
        let x = tensor(&[2, 3, 7, 9], 42, true);
        let mut taps = Vec::new();
        let y = maxpool2d_padded(&x, k, s, p, Some(&mut taps));
        let dy = tensor(y.shape(), 43, false);
        let dx_max = maxpool2d_backward(&dy, &taps, x.shape(), k, s, p);
        let y_avg = avgpool2d(&x, k, s, p);
        let dx_avg = avgpool2d_backward(&dy, x.shape(), k, s, p);
        let (xl, yl) = (x.len() / 2, y.len() / 2);
        for i in 0..2 {
            let xi = Tensor::from_vec(&[1, 3, 7, 9], x.data()[i * xl..][..xl].to_vec());
            let mut shape = y.shape().to_vec();
            shape[0] = 1;
            let dyi = Tensor::from_vec(&shape, dy.data()[i * yl..][..yl].to_vec());
            let mut ti = Vec::new();
            let yi = maxpool2d_padded(&xi, k, s, p, Some(&mut ti));
            let what = format!("{k}/{s}/{p} sample {i}");
            assert_eq!(bits(yi.data()), bits(&y.data()[i * yl..][..yl]), "{what}");
            assert_eq!(ti, taps[i * yl..][..yl], "{what}: taps");
            let dxi = maxpool2d_backward(&dyi, &ti, xi.shape(), k, s, p);
            assert_eq!(
                bits(dxi.data()),
                bits(&dx_max.data()[i * xl..][..xl]),
                "{what}"
            );
            let ai = avgpool2d(&xi, k, s, p);
            assert_eq!(
                bits(ai.data()),
                bits(&y_avg.data()[i * yl..][..yl]),
                "{what}"
            );
            let gi = avgpool2d_backward(&dyi, xi.shape(), k, s, p);
            assert_eq!(
                bits(gi.data()),
                bits(&dx_avg.data()[i * xl..][..xl]),
                "{what}"
            );
        }
    }
}

/// A window with nothing above `-inf` routes its gradient to its own first
/// input cell — not to element 0 of the whole tensor.
#[test]
fn all_neg_inf_plane_keeps_its_gradient_in_place() {
    let (n, c, h, w) = (2, 3, 5, 5);
    let plane = c + 1; // sample 1, channel 1
    let mut xd = values(n * c * h * w, 5, false);
    for v in xd.iter_mut().filter(|v| v.is_infinite()) {
        *v = 1.0;
    }
    xd[plane * h * w..][..h * w].fill(f32::NEG_INFINITY);
    let x = Tensor::from_vec(&[n, c, h, w], xd);
    for (k, s, p) in [(3, 2, 1), (3, 1, 1), (2, 2, 0)] {
        let mut taps = Vec::new();
        let y = maxpool2d_padded(&x, k, s, p, Some(&mut taps));
        let per_plane = y.len() / (n * c);
        let mut dyd = vec![0.0; y.len()];
        dyd[plane * per_plane..][..per_plane].fill(1.0);
        let dy = Tensor::from_vec(y.shape(), dyd);
        assert!(y.data()[plane * per_plane..][..per_plane]
            .iter()
            .all(|&v| v == f32::NEG_INFINITY));
        let (_, argmax) = max_oracle(&x, k, s, p);
        for dx in [
            maxpool2d_backward(&dy, &taps, x.shape(), k, s, p)
                .data()
                .to_vec(),
            max_backward_oracle(&dy, &argmax, x.shape()),
        ] {
            for (i, g) in dx.chunks(h * w).enumerate() {
                if i == plane {
                    assert_eq!(g.iter().sum::<f32>(), per_plane as f32, "{k}/{s}/{p}");
                } else {
                    assert!(g.iter().all(|&v| v == 0.0), "{k}/{s}/{p}: plane {i}");
                }
            }
        }
    }
}

/// Every `Pool` layer's `(kind, kernel, stride, pad, h, w)` in `nets`.
fn pool_geometries(nets: &[Network]) -> Vec<(PoolKind, usize, usize, usize, usize, usize)> {
    let mut found = Vec::new();
    for layer in nets.iter().flat_map(|net| net.layers()) {
        if let LayerKind::Pool {
            kind,
            kernel,
            stride,
            pad,
        } = layer.kind
        {
            let g = (
                kind,
                kernel,
                stride,
                pad,
                layer.input.height,
                layer.input.width,
            );
            if !found.contains(&g) {
                found.push(g);
            }
        }
    }
    found
}

/// Every pooling geometry of the network zoo, checked at 2 channels.
#[test]
fn zoo_pooling_geometries_match_the_oracle() {
    let mut nets = evaluation_suite();
    nets.extend([
        toy::fig1_toy(),
        toy::tiny_resnet(1, 4),
        toy::fig6_resnet(32, 10, 1, Some(NormKind::Group { groups: 2 }), 4),
        toy::runtime_mix(8, 4),
        toy::tiny_inception(16, 4),
        toy::tiny_alexnet(16, 4),
        toy::conv_chain(&[4, 8], mbs_cnn::FeatureShape::new(3, 16, 16), 4),
    ]);
    let geometries = pool_geometries(&nets);
    assert!(
        geometries.iter().any(|g| g.0 == PoolKind::Max)
            && geometries.iter().any(|g| g.0 == PoolKind::Avg),
        "the zoo has both pooling kinds: {geometries:?}"
    );
    for (kind, k, s, p, h, w) in geometries {
        let x = tensor(&[1, 2, h, w], (k * 31 + h) as u64, true);
        check(&x, k, s, p, &format!("{kind:?} {k}/{s}/{p} at {h}x{w}"));
    }
}
