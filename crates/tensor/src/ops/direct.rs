//! Direct NCHW convolution: the forward pass, the data gradient and the
//! weight gradient as register-tiled 1-D correlations over staged input
//! planes. No lowering exists: the largest temporary is a zero-padded copy
//! of one operand (one sample's, for the forward pass and the data
//! gradient). `docs/ARCHITECTURE.md` ("Direct convolution") has the
//! diagrams and the measurements behind the choices.
//!
//! A sample's input is **staged** once: every channel becomes one
//! zero-padded plane per *stride phase* `(ky mod s, kx mod s)`, all of row
//! pitch `wp = wo + (kw-1)/s`; plane `(py, px)` holds the padded input
//! subsampled at `(s·r + py, s·c + px)`. Tap `(ky, kx)` of output pixel
//! `(oy, ox)` is then element `(oy + ky/s)·wp + ox + kx/s` of plane
//! `(ky mod s, kx mod s)`: over the flattened output domain `j = oy·wp +
//! ox` every tap of any kernel/stride/padding is a **constant offset into
//! a contiguous stream**. The `wp - wo` lanes at the end of each row are
//! computed and never stored.
//!
//! One register tile per ISA tier serves all three ops:
//!
//! - **forward**: lanes are output pixels; the `cb` weights of a step are
//!   broadcast straight from the weight tensor, whose rows already are the
//!   streams the reduction walks. `Correlation::store` writes the valid
//!   lanes of each output row into NCHW and applies bias, ReLU and the
//!   sign mask in that write, in the unfused order (accumulate, `+= bias`,
//!   clamp), so fused ≡ unfused bitwise.
//! - **data gradient**: the channel roles swap. `dy` is staged (stride 1)
//!   and each *output* phase `ρ = (iy + pad) mod s` is produced by the
//!   flipped sub-kernel `w[s·q + ρ]` — `s²` passes, no wasted taps, every
//!   `dx` element written once. Its weights are the one operand packed per
//!   call (`pack_swapped`).
//! - **weight gradient**: the roles turn. Lanes are output channels (`dy`
//!   transposed to pixel-major rows), the broadcast streams are the staged
//!   input streams of `cb` weights, and the reduction walks the valid
//!   output pixels of every sample in order.
//!
//! Every output element is reduced in a fixed order by one accumulator
//! lane, independent of what shares its tile, and threads split `sample ×
//! channel-block` items (never a reduction): batched ≡ single-sample and
//! results are bitwise identical for any thread count. Under
//! [`Precision::Bf16`] the staging copies (and the copy of the weights)
//! round operands through bfloat16 — the direct path's "packing" point —
//! and all arithmetic stays f32.

use std::borrow::Cow;
use std::ops::Range;

use crate::arena::{self, Scratch};
use crate::ops::activation::{BitMask, MaskSink};
use crate::ops::im2col::Conv2dCfg;
use crate::ops::kernel::{self, Exec, MicroKernel};
use crate::ops::pack::scoped_chunks;
use crate::prec::{bf16_to_f32, f32_to_bf16, Precision};
use crate::tensor::Tensor;

/// The register tile. For `i < cb` and `lane < nv·lanes`:
/// `acc[i·nv·lanes + lane] = Σ_{c < chans} Σ_{(xo, wo) ∈ taps} w[w_rows[i] +
/// c·w_chan + wo] · x[c·x_chan + xo + lane]`, reduced in `(c, tap)` order.
/// The `cb` scalars of a step are broadcast from wherever `w_rows` says
/// they live, so neither operand needs a tile-specific layout.
type Tile = unsafe fn(
    chans: usize,
    x: *const f32,
    x_chan: usize,
    w: *const f32,
    w_chan: usize,
    w_rows: *const usize,
    taps: &[(usize, usize)],
    acc: *mut f32,
);

/// One ISA tier's register tiles.
struct Tiles {
    /// Broadcast rows (output channels) per tile.
    cb: usize,
    /// f32 lanes per vector.
    lanes: usize,
    /// Tiles for 1, 2, … vectors of lanes.
    by_vectors: &'static [Tile],
}

impl Tiles {
    /// Lanes of the widest tile: the read slack of every staged plane.
    fn max_px(&self) -> usize {
        self.by_vectors.len() * self.lanes
    }
}

/// Largest `cb` and `cb · nv · lanes` of any tier (AVX-512's 8 × 48).
const MAX_CB: usize = 8;
const MAX_ACC: usize = MAX_CB * 48;

/// Defines `$name<NV>`: the tile of `$cb` rows × `NV` vectors of `$lanes`
/// lanes over the given vector primitives.
macro_rules! tile {
    ($(#[$feat:meta])? $name:ident, $cb:literal, $lanes:literal,
     $zero:expr, $load:expr, $splat:expr, $fma:expr, $store:expr) => {
        /// # Safety
        ///
        /// Needs the tier's ISA; `w_rows` holds `cb` offsets, every `w`
        /// and `x` element named by [`Tile`] (`lane < NV·lanes`) is
        /// readable, and `acc` holds `cb·NV·lanes` floats.
        $(#[$feat])?
        #[allow(clippy::too_many_arguments, clippy::redundant_closure_call)]
        unsafe fn $name<const NV: usize>(
            chans: usize,
            x: *const f32,
            x_chan: usize,
            w: *const f32,
            w_chan: usize,
            w_rows: *const usize,
            taps: &[(usize, usize)],
            acc: *mut f32,
        ) {
            let rows = w_rows.cast::<[usize; $cb]>().read();
            let mut c = [[($zero)(); NV]; $cb];
            for ch in 0..chans {
                let (xc, wc) = (x.add(ch * x_chan), w.add(ch * w_chan));
                for &(xo, wo) in taps {
                    let mut v = [($zero)(); NV];
                    for (k, vk) in v.iter_mut().enumerate() {
                        *vk = ($load)(xc.add(xo + k * $lanes));
                    }
                    for (row, &r) in c.iter_mut().zip(&rows) {
                        let b = ($splat)(*wc.add(wo + r));
                        for (ck, vk) in row.iter_mut().zip(&v) {
                            *ck = ($fma)(b, *vk, *ck);
                        }
                    }
                }
            }
            for (i, row) in c.iter().enumerate() {
                for (k, ck) in row.iter().enumerate() {
                    ($store)(acc.add((i * NV + k) * $lanes), *ck);
                }
            }
        }
    };
}

/// The portable tier's "vector": eight floats for the autovectorizer (4
/// rows × 2 of them is its 64-float scalar-replacement limit).
type V8 = [f32; 8];

tile!(
    portable_tile,
    4,
    8,
    || [0.0f32; 8],
    |p: *const f32| p.cast::<V8>().read_unaligned(),
    |v: f32| [v; 8],
    |a: V8, b: V8, c: V8| -> V8 { std::array::from_fn(|i| c[i] + a[i] * b[i]) },
    |p: *mut f32, v: V8| p.cast::<V8>().write_unaligned(v)
);

static PORTABLE: Tiles = Tiles {
    cb: 4,
    lanes: 8,
    by_vectors: &[portable_tile::<1> as Tile, portable_tile::<2>],
};

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Tile, Tiles};
    use core::arch::x86_64::*;

    tile!(
        #[target_feature(enable = "avx2,fma")]
        avx2_tile,
        4,
        8,
        _mm256_setzero_ps,
        _mm256_loadu_ps,
        _mm256_set1_ps,
        _mm256_fmadd_ps,
        _mm256_storeu_ps
    );

    tile!(
        #[target_feature(enable = "avx512f")]
        avx512_tile,
        8,
        16,
        _mm512_setzero_ps,
        _mm512_loadu_ps,
        _mm512_set1_ps,
        _mm512_fmadd_ps,
        _mm512_storeu_ps
    );

    /// 4 rows × 3 ymm: 12 accumulators, 3 lane registers and one broadcast
    /// fill the 16 ymm registers.
    pub(super) static AVX2: Tiles = Tiles {
        cb: 4,
        lanes: 8,
        by_vectors: &[avx2_tile::<1> as Tile, avx2_tile::<2>, avx2_tile::<3>],
    };

    /// 8 rows × 3 zmm = 24 accumulators; scalars are embedded broadcasts.
    pub(super) static AVX512: Tiles = Tiles {
        cb: 8,
        lanes: 16,
        by_vectors: &[avx512_tile::<1> as Tile, avx512_tile::<2>, avx512_tile::<3>],
    };
}

/// The register tiles of `kern`'s ISA tier. A [`MicroKernel`] is only
/// obtainable for an ISA the CPU has ([`kernel::available`]), which is
/// what makes calling the returned tiles sound.
fn tiles(kern: &MicroKernel) -> &'static Tiles {
    #[cfg(target_arch = "x86_64")]
    {
        if std::ptr::eq(kern, &kernel::AVX512_16X16) {
            return &x86::AVX512;
        }
        if std::ptr::eq(kern, &kernel::AVX2_8X8) {
            return &x86::AVX2;
        }
    }
    let _ = kern;
    &PORTABLE
}

fn dims4(shape: &[usize], what: &str) -> [usize; 4] {
    shape
        .try_into()
        .unwrap_or_else(|_| panic!("conv expects a 4-D {what}, got {shape:?}"))
}

/// `(co, ho, wo)` of `dy`, which must be `[n, co, ho, wo]` for an
/// `[n, _, h, w]` input under `cfg`.
fn dy_dims(dy: &Tensor, n: usize, h: usize, w: usize, cfg: Conv2dCfg) -> (usize, usize, usize) {
    let [n2, co, ho, wo] = dims4(dy.shape(), "output gradient");
    assert_eq!(
        (n2, (ho, wo)),
        (n, cfg.out_extent(h, w)),
        "dy shape mismatch: {:?} for a batch of {n} {h}×{w} inputs",
        dy.shape()
    );
    (co, ho, wo)
}

fn round_bf16(v: f32) -> f32 {
    bf16_to_f32(f32_to_bf16(v))
}

/// `plane[r·wp + c] = src[(s·r + oy)·sw + s·c + ox]` where that lies in
/// the `sh × sw` source, else zero, for `r < hp`, `c < wp`; everything
/// past `hp·wp` (the tile read slack) is zeroed too.
fn stage_plane(
    plane: &mut [f32],
    (hp, wp): (usize, usize),
    src: &[f32],
    (sh, sw): (usize, usize),
    s: usize,
    (oy, ox): (isize, isize),
    round: bool,
) {
    // Plane indices whose source coordinate s·i + o falls in [0, ext).
    let valid = |o: isize, ext: usize, cap: usize| {
        let lo = ((-o).max(0) as usize).div_ceil(s);
        let top = ext as isize - 1 - o;
        let hi = if top < 0 { 0 } else { top as usize / s + 1 };
        lo..hi.min(cap)
    };
    let (rows, cols) = (valid(oy, sh, hp), valid(ox, sw, wp));
    if rows.is_empty() || cols.is_empty() {
        plane.fill(0.0);
        return;
    }
    plane[..rows.start * wp].fill(0.0);
    plane[rows.end * wp..].fill(0.0);
    let x0 = ((s * cols.start) as isize + ox) as usize;
    for r in rows {
        let src_row = &src[((s * r) as isize + oy) as usize * sw..][..sw];
        let row = &mut plane[r * wp..(r + 1) * wp];
        row[..cols.start].fill(0.0);
        row[cols.end..].fill(0.0);
        let dst = &mut row[cols.clone()];
        if s == 1 && !round {
            dst.copy_from_slice(&src_row[x0..x0 + dst.len()]);
            continue;
        }
        for (d, &v) in dst.iter_mut().zip(src_row[x0..].iter().step_by(s)) {
            *d = if round { round_bf16(v) } else { v };
        }
    }
}

/// The staged form of one sample's convolution input: per channel,
/// `npy·npx` phase planes of `hp × wp` (plus read slack).
struct InputPlanes {
    cfg: Conv2dCfg,
    ci: usize,
    h: usize,
    w: usize,
    npy: usize,
    npx: usize,
    hp: usize,
    wp: usize,
    plane_len: usize,
}

impl InputPlanes {
    fn new(ci: usize, h: usize, w: usize, cfg: Conv2dCfg, t: &Tiles) -> Self {
        let (ho, wo) = cfg.out_extent(h, w);
        let s = cfg.stride;
        let (hp, wp) = (ho + (cfg.kernel_h - 1) / s, wo + (cfg.kernel_w - 1) / s);
        Self {
            cfg,
            ci,
            h,
            w,
            npy: s.min(cfg.kernel_h),
            npx: s.min(cfg.kernel_w),
            hp,
            wp,
            plane_len: hp * wp + t.max_px(),
        }
    }

    fn chan_stride(&self) -> usize {
        self.npy * self.npx * self.plane_len
    }

    /// Offset of kernel tap `tap = ky·kw + kx`'s stream within a channel.
    fn tap_offset(&self, tap: usize) -> usize {
        let (s, ky, kx) = (
            self.cfg.stride,
            tap / self.cfg.kernel_w,
            tap % self.cfg.kernel_w,
        );
        ((ky % s) * self.npx + kx % s) * self.plane_len + (ky / s) * self.wp + kx / s
    }

    /// Stages sample `s` of `x` (`[n, ci, h, w]`) into `buf`
    /// (`ci · chan_stride()`).
    fn stage(&self, x: &[f32], s: usize, buf: &mut [f32], round: bool) {
        let hw = self.h * self.w;
        let sample = &x[s * self.ci * hw..(s + 1) * self.ci * hw];
        for (i, plane) in buf.chunks_exact_mut(self.plane_len).enumerate() {
            let (c, py, px) = (
                i / (self.npy * self.npx),
                i / self.npx % self.npy,
                i % self.npx,
            );
            let origin = (
                py as isize - self.cfg.pad_h as isize,
                px as isize - self.cfg.pad_w as isize,
            );
            let (dims, src) = ((self.h, self.w), &sample[c * hw..(c + 1) * hw]);
            let s = self.cfg.stride;
            stage_plane(plane, (self.hp, self.wp), src, dims, s, origin, round);
        }
    }
}

/// The data gradient's weights for one phase, packed so the column panel
/// a channel block reads is one stream: `out[((b·co + c)·T + t)·cb + i] =
/// w[(c·ci + b·cb + i)·taps + cells[t].1]`, zero past `ci`. (Read in
/// place, a panel is a few floats every `ci·taps` — on wide layers a
/// power-of-two stride that aliases the whole reduction into one cache
/// set. The forward pass's rows are contiguous in `w` and need no copy.)
/// `w` is read once, eight rows at a time, so each visit to a block's
/// panel writes eight contiguous cells.
fn pack_swapped(
    w: &[f32],
    (co, ci, taps): (usize, usize, usize),
    cells: &[(usize, usize)],
    cb: usize,
    round: bool,
) -> Scratch {
    let cell = cells.len() * cb;
    let mut out = arena::take(ci.div_ceil(cb) * co * cell);
    for (g, rows) in w.chunks(8 * ci * taps).enumerate() {
        for (b, panel) in out.chunks_exact_mut(co * cell).enumerate() {
            let lo = b * cb * taps;
            let dsts = panel[g * 8 * cell..].chunks_exact_mut(cell);
            for (row, dst) in rows.chunks_exact(ci * taps).zip(dsts) {
                let src = &row[lo..(lo + cb * taps).min(row.len())];
                for (lanes, &(_, wt)) in dst.chunks_exact_mut(cb).zip(cells) {
                    for (i, slot) in lanes.iter_mut().enumerate() {
                        let v = src.get(i * taps + wt).copied().unwrap_or(0.0);
                        *slot = if round { round_bf16(v) } else { v };
                    }
                }
            }
        }
    }
    out
}

/// One correlation over the staged planes: a tap list with its weights,
/// the output domain (`rows × cols` at the planes' pitch), and where
/// domain pixel `(r, c)` lands in an output channel.
struct Pass<'a> {
    /// Per tap: its stream offset within a staged channel and its offset
    /// within a weight channel.
    taps: Vec<(usize, usize)>,
    /// The weight of output channel `i` of block `b` for reduction channel
    /// `c` at tap offset `wo` is `w[b·w_block + i·w_row + c·w_chan + wo]`.
    w: &'a [f32],
    w_block: usize,
    w_row: usize,
    w_chan: usize,
    rows: usize,
    cols: usize,
    base: usize,
    row_stride: usize,
    col_stride: usize,
}

/// A batch of [`Pass`]es from staged samples into `[n, out_chans,
/// out_chan_len]` output — the shared body of the forward pass and the
/// data gradient.
struct Correlation<'a> {
    tiles: &'static Tiles,
    threads: usize,
    /// Reduction channels of a staged sample, their stride, the row pitch.
    chans: usize,
    chan_stride: usize,
    wp: usize,
    passes: &'a [Pass<'a>],
    out_chans: usize,
    out_chan_len: usize,
    /// Post-ops of the store (forward only).
    bias: Option<&'a [f32]>,
    mask: Option<&'a MaskSink>,
}

impl Correlation<'_> {
    /// Runs every pass for `n` samples; `stage(s, buf)` fills `buf`
    /// (`chans·chan_stride`) with sample `s`. Work items are `(sample,
    /// channel block)` pairs; a worker stages a sample when it first meets
    /// it, so staged data never crosses threads.
    fn run(&self, n: usize, stage: impl Fn(usize, &mut [f32]) + Sync, out: &mut [f32]) {
        let cb = self.tiles.cb;
        let blocks = self.out_chans.div_ceil(cb);
        let bound = |item: usize| {
            let chan = (item / blocks) * self.out_chans + (item % blocks * cb).min(self.out_chans);
            chan * self.out_chan_len
        };
        let planes = |_| arena::take(self.chans * self.chan_stride);
        let work = |_, items: Range<usize>, chunk: &mut [f32], mut buf: Scratch| {
            let first = bound(items.start);
            let mut staged = usize::MAX;
            for item in items {
                let (s, b) = (item / blocks, item % blocks);
                if s != staged {
                    stage(s, &mut buf);
                    staged = s;
                }
                let dst = &mut chunk[bound(item) - first..bound(item + 1) - first];
                for pass in self.passes {
                    self.run_pass(pass, &buf, b, bound(item), dst);
                }
            }
        };
        scoped_chunks(out, n * blocks, self.threads, planes, bound, work);
    }

    /// One pass for one `(sample, channel block)`: `dst` is the block's
    /// output channels, `elem0` their element index in the whole output.
    fn run_pass(
        &self,
        pass: &Pass<'_>,
        planes: &[f32],
        block: usize,
        elem0: usize,
        dst: &mut [f32],
    ) {
        if pass.rows == 0 || pass.cols == 0 {
            return;
        }
        let t = self.tiles;
        // A partial block repeats its last channel: computed, not stored.
        let last_row = dst.len() / self.out_chan_len - 1;
        let w_rows: [usize; MAX_CB] =
            std::array::from_fn(|i| block * pass.w_block + i.min(last_row) * pass.w_row);
        let domain = (pass.rows - 1) * self.wp + pass.cols;
        let (max_x, max_w) = pass
            .taps
            .iter()
            .fold((0, 0), |(x, w), tap| (x.max(tap.0), w.max(tap.1)));
        let last = self.chans.saturating_sub(1);
        let reach = last * self.chan_stride + max_x + domain.next_multiple_of(t.lanes);
        assert!(
            self.chans == 0
                || (reach <= planes.len()
                    && w_rows[last_row] + last * pass.w_chan + max_w < pass.w.len()),
            "operands too short for the tile reads"
        );
        let mut acc = [0.0f32; MAX_ACC];
        let mut j0 = 0;
        while j0 < domain {
            let nv = (domain - j0).div_ceil(t.lanes).min(t.by_vectors.len());
            let px = nv * t.lanes;
            // SAFETY: the tier's ISA is present (see `tiles`); `w_rows`
            // holds MAX_CB ≥ cb offsets; by the assert above every
            // channel's reads at [tap + j0, tap + j0 + px) stay inside
            // `planes` and every weight read inside `w` (with no channels
            // nothing is read, hence the wrapping add); `acc` holds
            // MAX_ACC ≥ cb·px.
            unsafe {
                (t.by_vectors[nv - 1])(
                    self.chans,
                    planes.as_ptr().wrapping_add(j0),
                    self.chan_stride,
                    pass.w.as_ptr(),
                    pass.w_chan,
                    w_rows.as_ptr(),
                    &pass.taps,
                    acc.as_mut_ptr(),
                );
            }
            let span = j0..domain.min(j0 + px);
            self.store(pass, &acc, px, span, block * t.cb, elem0, dst);
            j0 += px;
        }
    }

    /// Writes the valid lanes of one accumulator tile (`acc[i·px + lane]`,
    /// domain pixels `span`) into the block's channels, one output-row
    /// segment at a time, applying the post-ops in that write.
    #[allow(clippy::too_many_arguments)]
    fn store(
        &self,
        pass: &Pass<'_>,
        acc: &[f32],
        px: usize,
        span: Range<usize>,
        chan0: usize,
        elem0: usize,
        dst: &mut [f32],
    ) {
        let (wp, len) = (self.wp, self.out_chan_len);
        let mut j = span.start;
        while j < span.end {
            let (row, col) = (j / wp, j % wp);
            if col >= pass.cols {
                j += wp - col;
                continue;
            }
            let run = (pass.cols - col).min(span.end - j);
            let lane = j - span.start;
            let off = pass.base + row * pass.row_stride + col * pass.col_stride;
            for (i, chan) in dst.chunks_exact_mut(len).enumerate() {
                let src = &acc[i * px + lane..][..run];
                if pass.col_stride == 1 {
                    let pos = elem0 + i * len + off;
                    self.write(&mut chan[off..off + run], src, chan0 + i, pos);
                } else {
                    for (q, &v) in src.iter().enumerate() {
                        chan[off + q * pass.col_stride] = v;
                    }
                }
            }
            j += run;
        }
    }

    /// `dst = relu(src + bias[chan])`, each step only if configured, in
    /// the unfused order; sign bits go to the mask at element `pos`.
    #[inline]
    fn write(&self, dst: &mut [f32], src: &[f32], chan: usize, pos: usize) {
        let bias = self.bias.map(|b| b[chan]);
        let Some(mask) = self.mask else {
            match bias {
                Some(b) => dst.iter_mut().zip(src).for_each(|(d, &a)| *d = a + b),
                None => dst.copy_from_slice(src),
            }
            return;
        };
        for (g, (dst, src)) in dst.chunks_mut(32).zip(src.chunks(32)).enumerate() {
            let mut bits = 0u32;
            for (q, (d, &a)) in dst.iter_mut().zip(src).enumerate() {
                let v = bias.map_or(a, |b| a + b);
                // Branchless `if v > 0 { v } else { 0 }` (NaN clamps to 0).
                let keep = u32::from(v > 0.0);
                *d = f32::from_bits(v.to_bits() & keep.wrapping_neg());
                bits |= keep << q;
            }
            mask.or_bits(pos + g * 32, bits, dst.len());
        }
    }
}

/// Direct convolution forward with optional fused bias and ReLU; the mask
/// (when `relu`) is in NCHW element order.
///
/// # Panics
///
/// Panics on shape mismatches between `x`, `w`, `bias` and `cfg`.
pub fn forward(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&[f32]>,
    relu: bool,
    cfg: Conv2dCfg,
    exec: Exec,
) -> (Tensor, Option<BitMask>) {
    let [n, ci, h, wd] = dims4(x.shape(), "input");
    let (kh, kw, taps) = (cfg.kernel_h, cfg.kernel_w, cfg.kernel_h * cfg.kernel_w);
    let co = w.shape().first().copied().unwrap_or(0);
    assert_eq!(
        w.shape(),
        &[co, ci, kh, kw],
        "conv weights must be [co, {ci}, {kh}, {kw}] for input {:?}",
        x.shape()
    );
    assert!(
        bias.is_none_or(|b| b.len() == co),
        "one bias per output channel"
    );
    let (ho, wo) = cfg.out_extent(h, wd);
    let t = tiles(exec.kernel);
    let round = exec.precision == Precision::Bf16;
    let planes = InputPlanes::new(ci, h, wd, cfg, t);
    let weights: Cow<'_, [f32]> = if round {
        w.data().iter().map(|&v| round_bf16(v)).collect()
    } else {
        w.data().into()
    };
    let pass = Pass {
        taps: (0..taps).map(|tap| (planes.tap_offset(tap), tap)).collect(),
        w: &weights,
        w_block: t.cb * ci * taps,
        w_row: ci * taps,
        w_chan: taps,
        rows: ho,
        cols: wo,
        base: 0,
        row_stride: wo,
        col_stride: 1,
    };
    let mut y = Tensor::uninit(&[n, co, ho, wo]);
    let sink = relu.then(|| MaskSink::new(y.len()));
    let job = Correlation {
        tiles: t,
        threads: exec.threads,
        chans: ci,
        chan_stride: planes.chan_stride(),
        wp: planes.wp,
        passes: &[pass],
        out_chans: co,
        out_chan_len: ho * wo,
        bias,
        mask: sink.as_ref(),
    };
    job.run(
        n,
        |s, buf| planes.stage(x.data(), s, buf, round),
        y.data_mut(),
    );
    (y, sink.map(MaskSink::into_mask))
}

/// One axis of one output phase of the data gradient: input positions
/// `i = first + s·u` (`u < count`) receive `Σ_{q < taps} dy[m_lo + u - q] ·
/// w[s·q + ρ]`.
struct Phase {
    rho: usize,
    taps: usize,
    m_lo: usize,
    count: usize,
    first: usize,
}

/// The non-empty phases of an axis of extent `ext` (kernel `k`, stride
/// `s`, padding `p`).
fn phases(ext: usize, k: usize, s: usize, p: usize) -> Vec<Phase> {
    let phase = |rho: usize| {
        let m_lo = (p + s - 1 - rho) / s;
        let first = s * m_lo + rho - p;
        Phase {
            rho,
            taps: (k + s - 1 - rho) / s,
            m_lo,
            count: (ext + s - 1).saturating_sub(first) / s,
            first,
        }
    };
    (0..s).map(phase).filter(|f| f.count > 0).collect()
}

/// Gradient of the loss with respect to the convolution input, by direct
/// correlation of the staged `dy` with the flipped, channel-swapped
/// kernel — one pass per output stride phase.
///
/// # Panics
///
/// Panics if `w` is not `[co, ci, kernel_h, kernel_w]` for `dy`'s `co` and
/// `x_shape`'s `ci`, or `dy` does not match the output extent.
pub fn backward_data(
    dy: &Tensor,
    w: &Tensor,
    x_shape: &[usize],
    cfg: Conv2dCfg,
    exec: Exec,
) -> Tensor {
    let [n, ci, h, wd] = dims4(x_shape, "input shape");
    let (co, ho, wo) = dy_dims(dy, n, h, wd, cfg);
    let (kh, kw, s) = (cfg.kernel_h, cfg.kernel_w, cfg.stride);
    assert_eq!(
        w.shape(),
        &[co, ci, kh, kw],
        "conv weights must be [{co}, {ci}, {kh}, {kw}] for dy {:?} and input {x_shape:?}",
        dy.shape()
    );
    if co == 0 || n * ci * h * wd == 0 {
        return Tensor::zeros(x_shape);
    }
    let t = tiles(exec.kernel);
    let round = exec.precision == Precision::Bf16;
    let (py, px) = (phases(h, kh, s, cfg.pad_h), phases(wd, kw, s, cfg.pad_w));
    // Zero rows/columns ahead of `dy` so no tap reads before the plane,
    // and the extent the furthest phase reads to.
    let (ty, tx) = ((kh - 1) / s, (kw - 1) / s);
    let extent = |ph: &[Phase], lead| ph.iter().map(|f| f.m_lo + lead + f.count).max();
    let (hp, wp) = (extent(&py, ty).unwrap_or(1), extent(&px, tx).unwrap_or(1));
    let plane_len = hp * wp + t.max_px();
    // Per phase with taps: its cells (plane offset, kernel tap of the
    // flipped sub-kernel) and their packed weights.
    let mut packed = Vec::with_capacity(s * s);
    for y in py.iter().filter(|f| f.taps > 0) {
        for x in px.iter().filter(|f| f.taps > 0) {
            let (by, bx) = (y.m_lo + ty + 1 - y.taps, x.m_lo + tx + 1 - x.taps);
            let cell = |q: usize| {
                let (qy, qx) = (q / x.taps, q % x.taps);
                let (ky, kx) = (s * (y.taps - 1 - qy) + y.rho, s * (x.taps - 1 - qx) + x.rho);
                ((by + qy) * wp + bx + qx, ky * kw + kx)
            };
            let cells: Vec<_> = (0..y.taps * x.taps).map(cell).collect();
            let panel = pack_swapped(w.data(), (co, ci, kh * kw), &cells, t.cb, round);
            packed.push((y, x, cells, panel));
        }
    }
    let passes: Vec<Pass<'_>> = packed
        .iter()
        .map(|(y, x, cells, panel)| Pass {
            taps: (0..cells.len()).map(|q| (cells[q].0, q * t.cb)).collect(),
            w: panel,
            w_block: co * cells.len() * t.cb,
            w_row: 1,
            w_chan: cells.len() * t.cb,
            rows: y.count,
            cols: x.count,
            base: y.first * wd + x.first,
            row_stride: s * wd,
            col_stride: s,
        })
        .collect();
    // A phase without taps (stride past the kernel) leaves its positions
    // unwritten: they are zero.
    let mut dx = if s > kh || s > kw {
        Tensor::zeros(x_shape)
    } else {
        Tensor::uninit(x_shape)
    };
    let job = Correlation {
        tiles: t,
        threads: exec.threads,
        chans: co,
        chan_stride: plane_len,
        wp,
        passes: &passes,
        out_chans: ci,
        out_chan_len: h * wd,
        bias: None,
        mask: None,
    };
    let stage = |i: usize, buf: &mut [f32]| {
        let src = &dy.data()[i * co * ho * wo..(i + 1) * co * ho * wo];
        let origin = (-(ty as isize), -(tx as isize));
        for (plane, chan) in buf
            .chunks_exact_mut(plane_len)
            .zip(src.chunks_exact(ho * wo))
        {
            stage_plane(plane, (hp, wp), chan, (ho, wo), 1, origin, round);
        }
    };
    job.run(n, stage, dx.data_mut());
    dx
}

/// `grad += dW`: the weight gradient accumulated into an existing
/// `[co, ci, kernel_h, kernel_w]` tensor with exactly one `+=` per element,
/// after that element's sum over every sample and pixel has completed in
/// an accumulator lane (so it is bitwise equal to computing `dW` and
/// adding it).
///
/// # Panics
///
/// Panics if `dy` is not `[n, co, ho, wo]` for `x`'s batch and output
/// extent, or `grad` is not `[co, ci, kernel_h, kernel_w]`.
pub fn backward_weights_into(
    x: &Tensor,
    dy: &Tensor,
    cfg: Conv2dCfg,
    grad: &mut Tensor,
    exec: Exec,
) {
    let [n, ci, h, wd] = dims4(x.shape(), "input");
    let (co, ho, wo) = dy_dims(dy, n, h, wd, cfg);
    let taps = cfg.kernel_h * cfg.kernel_w;
    assert_eq!(
        grad.shape(),
        &[co, ci, cfg.kernel_h, cfg.kernel_w],
        "weight gradient shape mismatch for dy {:?} and input {:?}",
        dy.shape(),
        x.shape()
    );
    let k = ci * taps;
    if n == 0 || co == 0 || k == 0 {
        return;
    }
    let t = tiles(exec.kernel);
    let round = exec.precision == Precision::Bf16;
    // Every sample's input, staged as for the forward pass.
    let planes = InputPlanes::new(ci, h, wd, cfg, t);
    let x_sample = ci * planes.chan_stride();
    let mut xs = arena::take(n * x_sample);
    let stage = |_, samples: Range<usize>, chunk: &mut [f32], ()| {
        for (s, buf) in samples.zip(chunk.chunks_exact_mut(x_sample)) {
            planes.stage(x.data(), s, buf, round);
        }
    };
    scoped_chunks(&mut xs, n, exec.threads, |_| (), |s| s * x_sample, stage);
    // dy pixel-major: [n][ho·wo][cop], channels zero-padded to whole
    // vectors. Rows are written in order, 64 channels (source streams) at
    // a time: more alias in L1 when the plane size is near a power of two.
    let (hw, cop) = (ho * wo, co.next_multiple_of(t.lanes));
    let mut dyt = arena::take(n * hw * cop);
    for c0 in (0..co).step_by(64) {
        for (i, row) in dyt.chunks_exact_mut(cop).enumerate() {
            let src = &dy.data()[(i / hw * co + c0) * hw + i % hw..];
            for (c, slot) in row[c0..co.min(c0 + 64)].iter_mut().enumerate() {
                let v = src[c * hw];
                *slot = if round { round_bf16(v) } else { v };
            }
            row[co..].fill(0.0);
        }
    }
    // The reduction: every valid output pixel as (offset in a dyt sample,
    // offset in a staged stream); weight `i`'s stream starts at `stream(i)`.
    let pixels: Vec<(usize, usize)> = (0..hw)
        .map(|p| (p * cop, p / wo * planes.wp + p % wo))
        .collect();
    let stream = |i: usize| i / taps * planes.chan_stride() + planes.tap_offset(i % taps);
    let max_tap = (0..taps).map(&stream).max().unwrap_or(0);
    assert!(
        stream(k - taps) + max_tap + (ho - 1) * planes.wp + wo <= x_sample,
        "staged planes too short for the stream reads"
    );
    // Work items: tiles of output channels (whole rows of `grad`).
    let max_px = t.max_px();
    let work = |_, tiles: Range<usize>, chunk: &mut [f32], ()| {
        let mut acc = [0.0f32; MAX_ACC];
        for (tile, rows) in tiles.zip(chunk.chunks_mut(max_px * k)) {
            let co0 = tile * max_px;
            let nv = (co - co0).div_ceil(t.lanes).min(t.by_vectors.len());
            let px = nv * t.lanes;
            for k0 in (0..k).step_by(t.cb) {
                let streams: [usize; MAX_CB] = std::array::from_fn(|i| stream((k0 + i).min(k - 1)));
                // SAFETY: the tier's ISA is present (see `tiles`);
                // `streams` holds MAX_CB ≥ cb offsets; lanes [co0, co0 +
                // px) of every dyt row exist (co0 + px ≤ cop); each stream
                // reads at most offset (ho-1)·wp + wo - 1 of every sample
                // of `xs`, in bounds by the assert above; `acc` holds
                // MAX_ACC ≥ cb·px floats.
                unsafe {
                    (t.by_vectors[nv - 1])(
                        n,
                        dyt.as_ptr().add(co0),
                        hw * cop,
                        xs.as_ptr(),
                        x_sample,
                        streams.as_ptr(),
                        &pixels,
                        acc.as_mut_ptr(),
                    );
                }
                for (lane, row) in rows.chunks_exact_mut(k).enumerate() {
                    for (i, g) in row[k0..].iter_mut().take(t.cb).enumerate() {
                        *g += acc[i * px + lane];
                    }
                }
            }
        }
    };
    let bound = |tile: usize| (tile * max_px).min(co) * k;
    scoped_chunks(
        grad.data_mut(),
        co.div_ceil(max_px),
        exec.threads,
        |_| (),
        bound,
        work,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_tier_fits_the_stack_buffers() {
        // `run_pass` and the weight gradient size `acc` and the row-offset
        // array for the widest tier.
        let mut all = vec![&PORTABLE];
        #[cfg(target_arch = "x86_64")]
        all.extend([&x86::AVX2, &x86::AVX512]);
        for t in all {
            assert!(t.cb <= MAX_CB && t.cb * t.max_px() <= MAX_ACC);
        }
    }

    #[test]
    fn phases_partition_the_axis() {
        // Every input position belongs to exactly one phase, and a phase's
        // taps are the kernel taps congruent to it.
        for (ext, k, s, p) in [
            (7, 3, 1, 1),
            (8, 3, 2, 1),
            (9, 7, 3, 2),
            (5, 1, 2, 0),
            (1, 2, 3, 1),
        ] {
            let ph = phases(ext, k, s, p);
            let mut seen = vec![0; ext];
            for f in &ph {
                (0..f.count).for_each(|u| seen[f.first + s * u] += 1);
                assert_eq!((f.first + p) % s, f.rho);
                assert_eq!(f.taps, (f.rho..k).step_by(s).count());
                assert!(f.count > 0);
            }
            assert!(seen.iter().all(|&c| c == 1), "{ext} {k} {s} {p}: {seen:?}");
        }
    }

    #[test]
    fn stage_plane_pads_subsamples_and_clears_the_slack() {
        let src: Vec<f32> = (1..=12).map(|v| v as f32).collect(); // 3 × 4
        let mut plane = vec![f32::NAN; 3 * 3 + 4];
        // Rows 2r - 1, columns 2c - 1 of the source.
        stage_plane(&mut plane, (3, 3), &src, (3, 4), 2, (-1, -1), false);
        let want = [0.0, 0.0, 0.0, 0.0, 6.0, 8.0, 0.0, 0.0, 0.0];
        assert_eq!(&plane[..9], &want);
        assert!(plane[9..].iter().all(|&v| v == 0.0));
    }
}
