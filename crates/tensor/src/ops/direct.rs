//! Direct NCHW convolution: the forward pass, the data gradient and the
//! weight gradient as register-tiled 1-D correlations over staged input
//! planes. No lowering exists: the largest temporary is a zero-padded copy
//! of one operand (one sample's, for the forward pass and the data
//! gradient; the whole call's `x` and `dy`, for the weight gradient, whose
//! running sums when its reduction is split in blocks are smaller still).
//! `docs/ARCHITECTURE.md` ("Direct convolution") has the diagrams and the
//! measurements behind the choices.
//!
//! A sample's input is **staged** once: every channel becomes one
//! zero-padded plane per *stride phase* `(ky mod s, kx mod s)`, all of row
//! pitch `wp = wo + (kw-1)/s`; plane `(py, px)` holds the padded input
//! subsampled at `(s·r + py, s·c + px)`. Tap `(ky, kx)` of output pixel
//! `(oy, ox)` is then element `(oy + ky/s)·wp + ox + kx/s` of plane
//! `(ky mod s, kx mod s)`: over the flattened output domain `j = oy·wp +
//! ox` every tap of any kernel/stride/padding is a **constant offset into
//! a contiguous stream**. The `wp - wo` lanes at the end of each row are
//! computed and never stored. Pooling (`ops::pool`) stages its planes with
//! the same routine, padded with its op's identity instead of zero.
//!
//! One register tile per ISA tier serves all three ops:
//!
//! - **forward**: lanes are output pixels; the `cb` weights of a step are
//!   broadcast straight from the weight tensor, whose rows already are the
//!   streams the reduction walks. `Correlation::store` writes the valid
//!   lanes of each output row into NCHW and adds the bias in that write,
//!   after the accumulation, so fused ≡ unfused bitwise.
//! - **data gradient**: the channel roles swap. `dy` is staged (stride 1)
//!   and each *output* phase `ρ = (iy + pad) mod s` is produced by the
//!   flipped sub-kernel `w[s·q + ρ]` — `s²` passes, no wasted taps, every
//!   `dx` element written once. Its weights are the one operand packed per
//!   call (`pack_swapped`).
//! - **weight gradient**: the roles turn. Lanes are output channels, the
//!   broadcast streams are the staged input streams of `cb` weights, and
//!   the reduction walks the valid output pixels of every sample in order.
//!   `dy` is transposed **panel-major**, `[n][co/pw][ho·wo][pw]` with `pw`
//!   the widest tile, so one tile's lanes over the whole reduction are a
//!   single contiguous panel. A panel larger than `CACHE.panel` is
//!   reduced over blocks of samples or pixels that fit it, each block
//!   running every step of `cb` weights before the next, with the
//!   accumulators carried exactly between blocks (the tile's accumulating
//!   variant starts from the stored running sums).
//!
//! The forward pass and the data gradient walk a staged sample larger
//! than `CACHE.staged` chunk by chunk of its output domain, running every
//! channel block on a chunk before the next (when the weights, re-read per
//! chunk, fit `CACHE.weights`). Neither blocking changes a sum.
//!
//! A **1×1** convolution's forward pass and data gradient stage nothing:
//! their lane domain is every output pixel of a run of samples, flattened
//! across them, and each chunk of the widest tile's lanes is copied into a
//! panel `[channel][lanes]`, so a tile's reduction reads one sequential
//! stream (`Pointwise`). Groups of panels within `CACHE.staged` run every
//! channel block before the next group, as the chunks above do.
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
use crate::ops::im2col::Conv2dCfg;
use crate::ops::kernel::{self, Exec, MicroKernel};
use crate::ops::pack::scoped_chunks;
use crate::prec::{bf16_to_f32, f32_to_bf16, Precision};
use crate::tensor::Tensor;

/// The register tile. For `i < cb` and `lane < nv·lanes`:
/// `acc[i·nv·lanes + lane] = Σ_{c < chans} Σ_{(xo, wo) ∈ taps} w[w_rows[i] +
/// c·w_chan + wo] · x[c·x_chan + xo + lane]`, reduced in `(c, tap)` order,
/// starting from zero — or, in the accumulating variant, from the value
/// `acc` already holds, so a reduction split into consecutive calls rounds
/// exactly as one call over the whole of it. The `cb` scalars of a step
/// are broadcast from wherever `w_rows` says they live, so neither operand
/// needs a tile-specific layout.
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
    /// Tiles for 1, 2, … vectors of lanes: `[starting from zero,
    /// accumulating onto acc]`.
    by_vectors: &'static [[Tile; 2]],
}

impl Tiles {
    /// Lanes of the widest tile: a lane chunk of the 1×1 panels, and the
    /// read slack after a buffer of staged planes.
    fn max_px(&self) -> usize {
        self.by_vectors.len() * self.lanes
    }
}

/// Largest `cb` and `cb · nv · lanes` of any tier (AVX-512's 8 × 48).
const MAX_CB: usize = 8;
const MAX_ACC: usize = MAX_CB * 48;

/// Cache budgets of the loop orders, in bytes. Blocking reorders which
/// tile runs when, never the reduction of an accumulator lane, so any
/// budget gives the same bits; these only decide what stays in cache.
#[derive(Clone, Copy, Debug)]
struct Budget {
    /// Most bytes of one weight-gradient `dy` panel reduced in one pass:
    /// a larger panel is reduced over blocks of whole samples, or of
    /// pixels within a sample, of at most this size.
    panel: usize,
    /// Most bytes of a staged sample the forward pass and the data
    /// gradient may re-stream per channel block: past it, they walk the
    /// output domain in chunks of this many staged bytes …
    staged: usize,
    /// … provided every channel block's weights, which each chunk re-reads,
    /// fit this.
    weights: usize,
}

/// The budgets every public entry point uses, for a 2 MiB L2: a quarter
/// of it for the operand every step re-reads (the `dy` panel block, the
/// staged chunk), half for the weights a chunk re-reads, the rest for the
/// streamed operand and the output. Blocking pays only past them, where
/// the re-read operand would otherwise come from L3 (see
/// `docs/ARCHITECTURE.md`, "Direct convolution", for the measurements).
const CACHE: Budget = Budget {
    panel: 512 << 10,
    staged: 512 << 10,
    weights: 1 << 20,
};

impl Budget {
    /// Domain lanes per chunk of a correlation whose staged sample is
    /// `staged` bytes, `lane` bytes per domain lane, and whose chunks each
    /// re-read `weights` bytes; `usize::MAX` (one chunk) when the sample
    /// fits or the weights do not.
    fn chunk(&self, staged: usize, lane: usize, weights: usize) -> usize {
        if staged > self.staged && weights <= self.weights && lane > 0 {
            (self.staged / lane).max(1)
        } else {
            usize::MAX
        }
    }

    /// Lanes per group of a 1×1 correlation's panels ([`Pointwise`]),
    /// `lane` bytes a lane, whose groups each re-read `weights` bytes: the
    /// whole `domain` when it fits the staged budget, else the budget's
    /// chunk — or one sample of `hw` lanes when the weights do not fit,
    /// the most the staged path holds — cut to whole chunks of `chunk`
    /// lanes.
    fn panels(&self, domain: usize, hw: usize, lane: usize, weights: usize, chunk: usize) -> usize {
        let lanes = match self.chunk(domain * lane, lane, weights) {
            usize::MAX if domain * lane > self.staged => hw,
            lanes => lanes.min(domain),
        };
        (lanes / chunk).max(1) * chunk
    }

    /// The weight gradient's reduction over `n` samples of `hw` pixels, in
    /// order, as `(samples, pixels)` blocks whose `dy` panel (`row` bytes
    /// a pixel) fits the panel budget: all samples at once when they fit,
    /// else whole samples at a time, else pixel blocks of one sample.
    fn reduction_blocks(&self, n: usize, hw: usize, row: usize) -> Blocks {
        let sample = hw * row;
        if sample <= self.panel {
            let per = self.panel / sample.max(1);
            return Blocks {
                n,
                hw,
                per,
                by_pixels: false,
            };
        }
        Blocks {
            n,
            hw,
            per: (self.panel / row).max(1),
            by_pixels: true,
        }
    }
}

/// [`Budget::reduction_blocks`]' blocks, worked out on demand (listing
/// them allocates nothing): `per` whole samples a block, or `per` pixels
/// of one sample when `by_pixels`.
#[derive(Clone, Copy, Debug)]
struct Blocks {
    n: usize,
    hw: usize,
    per: usize,
    by_pixels: bool,
}

impl Blocks {
    fn len(&self) -> usize {
        if self.by_pixels {
            self.n * self.hw.div_ceil(self.per)
        } else {
            self.n.div_ceil(self.per)
        }
    }

    /// Block `i`: its samples and, within each, its pixels.
    fn get(&self, i: usize) -> (Range<usize>, Range<usize>) {
        if self.by_pixels {
            let blocks = self.hw.div_ceil(self.per);
            let (s, p) = (i / blocks, i % blocks * self.per);
            (s..s + 1, p..self.hw.min(p + self.per))
        } else {
            let s = i * self.per;
            (s..self.n.min(s.saturating_add(self.per)), 0..self.hw)
        }
    }

    fn iter(&self) -> <&Self as IntoIterator>::IntoIter {
        self.into_iter()
    }
}

type Block = (Range<usize>, Range<usize>);

impl<'a> IntoIterator for &'a Blocks {
    type Item = Block;
    type IntoIter = std::iter::Map<
        std::iter::Zip<Range<usize>, std::iter::Repeat<&'a Blocks>>,
        fn((usize, &Blocks)) -> Block,
    >;

    fn into_iter(self) -> Self::IntoIter {
        (0..self.len())
            .zip(std::iter::repeat(self))
            .map(|(i, b)| b.get(i))
    }
}

/// Offset pairs in arena scratch — the weight gradient's reduction list —
/// so a warm call allocates nothing.
struct Pairs {
    buf: Scratch,
    /// Where the 8-aligned pairs start in `buf`, in floats.
    at: usize,
    len: usize,
}

impl Pairs {
    /// Room for `len` pairs, of unspecified values.
    fn take(len: usize) -> Self {
        const PER: usize = size_of::<(usize, usize)>() / size_of::<f32>();
        let buf = arena::take(len * PER + PER);
        let addr = buf.as_ptr().addr();
        let at = (addr.next_multiple_of(align_of::<(usize, usize)>()) - addr) / size_of::<f32>();
        assert!(at < PER, "f32 buffers are 4-aligned");
        Self { buf, at, len }
    }

    fn as_mut_slice(&mut self) -> &mut [(usize, usize)] {
        // SAFETY: `buf[at..]` starts at an address aligned for `(usize,
        // usize)` (worked out in `take`) and holds `len·PER` floats, the
        // bytes of `len` pairs; every bit pattern is a valid `usize`, so
        // the floats are valid pairs; the slice borrows `self` mutably, so
        // nothing else reads or writes `buf` while it lives.
        unsafe {
            std::slice::from_raw_parts_mut(self.buf.as_mut_ptr().add(self.at).cast(), self.len)
        }
    }
}

/// Defines `$name<NV, ACC>`: the tile of `$cb` rows × `NV` vectors of
/// `$lanes` lanes over the given vector primitives, starting from `acc`
/// when `ACC`.
macro_rules! tile {
    ($(#[$feat:meta])? $name:ident, $cb:literal, $lanes:literal,
     $zero:expr, $load:expr, $splat:expr, $fma:expr, $store:expr) => {
        /// # Safety
        ///
        /// Needs the tier's ISA; `w_rows` holds `cb` offsets, every `w`
        /// and `x` element named by [`Tile`] (`lane < NV·lanes`) is
        /// readable, and `acc` holds `cb·NV·lanes` floats (initialised
        /// when `ACC`).
        $(#[$feat])?
        #[allow(clippy::too_many_arguments, clippy::redundant_closure_call)]
        unsafe fn $name<const NV: usize, const ACC: bool>(
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
            if ACC {
                for (i, row) in c.iter_mut().enumerate() {
                    for (k, ck) in row.iter_mut().enumerate() {
                        *ck = ($load)(acc.add((i * NV + k) * $lanes).cast_const());
                    }
                }
            }
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
    by_vectors: &[
        [portable_tile::<1, false> as Tile, portable_tile::<1, true>],
        [portable_tile::<2, false>, portable_tile::<2, true>],
    ],
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
        by_vectors: &[
            [avx2_tile::<1, false> as Tile, avx2_tile::<1, true>],
            [avx2_tile::<2, false>, avx2_tile::<2, true>],
            [avx2_tile::<3, false>, avx2_tile::<3, true>],
        ],
    };

    /// 8 rows × 3 zmm = 24 accumulators; scalars are embedded broadcasts.
    pub(super) static AVX512: Tiles = Tiles {
        cb: 8,
        lanes: 16,
        by_vectors: &[
            [avx512_tile::<1, false> as Tile, avx512_tile::<1, true>],
            [avx512_tile::<2, false>, avx512_tile::<2, true>],
            [avx512_tile::<3, false>, avx512_tile::<3, true>],
        ],
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

/// One staging geometry: `sh × sw` source planes subsampled at stride `s`
/// into `hp × wp` planes of `len` floats each, padded with `fill` and,
/// when `round`, rounded through bfloat16. The convolutions pad with
/// zeros, pooling with its op's identity (`ops::pool`).
pub(super) struct Staging {
    pub(super) hp: usize,
    pub(super) wp: usize,
    /// Floats of one staged plane: `hp·wp` and the tile read slack after.
    pub(super) len: usize,
    pub(super) sh: usize,
    pub(super) sw: usize,
    pub(super) s: usize,
    pub(super) fill: f32,
    pub(super) round: bool,
}

impl Staging {
    /// Stages column phases `px < phases` of every `sh·sw` plane `i` of
    /// `src`: the plane at `dst[i·plane + px·phase..][..len]` gets
    /// `[r·wp + c] = src_i[(s·r + oy)·sw + s·c + px + ox]` where that lies
    /// in the source, else `fill`, for `r < hp`, `c < wp`; everything past
    /// `hp·wp` (the tile read slack) is `fill` too. The valid region is
    /// worked out once per call. A plane that is its source unpadded is
    /// one copy; at stride 2 each source row is read once into both
    /// column phases.
    pub(super) fn stage(
        &self,
        src: &[f32],
        dst: &mut [f32],
        (plane, phase): (usize, usize),
        phases: usize,
        origin: (isize, isize),
    ) {
        if self.round {
            self.stage_with(src, dst, (plane, phase), phases, origin, round_bf16);
        } else {
            self.stage_with(src, dst, (plane, phase), phases, origin, |v| v);
        }
    }

    /// [`Staging::stage`] with the value map `f`, so the rounding branch
    /// sits outside every loop.
    fn stage_with(
        &self,
        src: &[f32],
        dst: &mut [f32],
        (plane, phase): (usize, usize),
        phases: usize,
        (oy, ox): (isize, isize),
        f: impl Fn(f32) -> f32 + Copy,
    ) {
        let (s, area) = (self.s, self.sh * self.sw);
        // Plane indices whose source coordinate s·i + o falls in [0, ext).
        let valid = |o: isize, ext: usize, cap: usize| {
            let lo = ((-o).max(0) as usize).div_ceil(s);
            let top = ext as isize - 1 - o;
            let hi = if top < 0 { 0 } else { top as usize / s + 1 };
            lo..hi.min(cap)
        };
        let rows = valid(oy, self.sh, self.hp);
        let cols = |px: usize| valid(ox + px as isize, self.sw, self.wp);
        let planes = src.chunks_exact(area).enumerate();
        if s == 2 && phases == 2 {
            let (c0, c1) = (cols(0), cols(1));
            for (i, src) in planes {
                let (d0, d1) = dst[i * plane..].split_at_mut(phase);
                let d = [&mut d0[..self.len], &mut d1[..self.len]];
                self.stage_pair(d, src, rows.clone(), [c0.clone(), c1.clone()], (oy, ox), f);
            }
            return;
        }
        for px in 0..phases {
            let cols = cols(px);
            for (i, src) in planes.clone() {
                let d = &mut dst[i * plane + px * phase..][..self.len];
                self.stage_one(
                    d,
                    src,
                    rows.clone(),
                    cols.clone(),
                    (oy, ox + px as isize),
                    f,
                );
            }
        }
    }

    /// The source offset of plane cell `(r, c)` under origin `(oy, ox)`,
    /// for a cell inside the valid region.
    fn at(&self, r: usize, c: usize, (oy, ox): (isize, isize)) -> usize {
        ((self.s * r) as isize + oy) as usize * self.sw + ((self.s * c) as isize + ox) as usize
    }

    /// Fills the rows of `d` outside `rows`; false (all of `d` filled)
    /// when the valid region is empty.
    fn pad_rows(&self, d: &mut [f32], rows: &Range<usize>, cols: &Range<usize>) -> bool {
        if rows.is_empty() || cols.is_empty() {
            d.fill(self.fill);
            return false;
        }
        d[..rows.start * self.wp].fill(self.fill);
        d[rows.end * self.wp..].fill(self.fill);
        true
    }

    /// Fills the cells of a plane row outside `cols`.
    #[inline]
    fn pad_cols(&self, row: &mut [f32], cols: &Range<usize>) {
        row[..cols.start].fill(self.fill);
        row[cols.end..].fill(self.fill);
    }

    /// One column phase of one plane.
    #[inline]
    fn stage_one(
        &self,
        d: &mut [f32],
        src: &[f32],
        rows: Range<usize>,
        cols: Range<usize>,
        origin: (isize, isize),
        f: impl Fn(f32) -> f32 + Copy,
    ) {
        if !self.pad_rows(d, &rows, &cols) {
            return;
        }
        let (s, wp, sw) = (self.s, self.wp, self.sw);
        let first = self.at(rows.start, cols.start, origin);
        if s == 1 && wp == sw && cols.len() == wp {
            // The valid rows are whole source rows at the source's pitch:
            // one run.
            let n = rows.len() * wp;
            map(&mut d[rows.start * wp..][..n], &src[first..][..n], f);
            return;
        }
        // One loop per stride: a loop holding the stride-2 split's
        // constants would reload them after every stride-1 row copy (a
        // `memcpy` call).
        let n = cols.len();
        let rows = (rows, &cols, first);
        match s {
            1 => self.each_row(d, src, rows, |dst, src| map(dst, &src[..n], f)),
            2 => self.each_row(d, src, rows, |dst, src| {
                every_other(dst, &src[..2 * n - 1], f);
            }),
            _ => self.each_row(d, src, rows, |dst, src| {
                // Whole `s`-chunks, then the last cell: at a run-time
                // stride about half of `step_by(s)`'s cost per element.
                let src = &src[..(n - 1) * s + 1];
                for (d, v) in dst.iter_mut().zip(src.chunks_exact(s)) {
                    *d = f(v[0]);
                }
                dst[n - 1] = f(src[(n - 1) * s]);
            }),
        }
    }

    /// Runs `copy(cells, source)` on every valid row of `d`, the source
    /// starting at the row's first valid cell (`first` for the first).
    /// A plane with column padding first has its valid rows filled whole:
    /// one fill, not two per row.
    fn each_row(
        &self,
        d: &mut [f32],
        src: &[f32],
        (rows, cols, first): (Range<usize>, &Range<usize>, usize),
        copy: impl Fn(&mut [f32], &[f32]),
    ) {
        let wp = self.wp;
        if cols.len() < wp {
            d[rows.start * wp..rows.end * wp].fill(self.fill);
        }
        for (k, r) in rows.enumerate() {
            let row = &mut d[r * wp..][..wp];
            copy(&mut row[cols.clone()], &src[first + k * self.s * self.sw..]);
        }
    }

    /// Both column phases of one plane at stride 2, each source row read
    /// once: the columns both phases hold, `c0.start..c1.end`, are
    /// consecutive source pairs, split in one pass; phase 1 may hold one
    /// more cell on the left and phase 0 one more on the right.
    fn stage_pair(
        &self,
        [d0, d1]: [&mut [f32]; 2],
        src: &[f32],
        rows: Range<usize>,
        [c0, c1]: [Range<usize>; 2],
        (oy, ox): (isize, isize),
        f: impl Fn(f32) -> f32 + Copy,
    ) {
        if rows.is_empty() || c0.is_empty() || c1.is_empty() {
            // A phase without a valid cell (say, of a one-column source):
            // each phase on its own.
            self.stage_one(d0, src, rows.clone(), c0, (oy, ox), f);
            self.stage_one(d1, src, rows, c1, (oy, ox + 1), f);
            return;
        }
        self.pad_rows(d0, &rows, &c0);
        self.pad_rows(d1, &rows, &c1);
        let (lo, hi) = (c0.start, c1.end);
        debug_assert!(c1.start <= lo && lo <= c1.start + 1 && hi <= c0.end && c0.end <= hi + 1);
        let wp = self.wp;
        let padded = c0.len() < wp || c1.len() < wp;
        // Where phase 0's cell `lo` comes from in the first valid row.
        let first = self.at(rows.start, lo, (oy, ox));
        let step = 2 * self.sw;
        for (k, r) in rows.enumerate() {
            let (a, b) = (&mut d0[r * wp..][..wp], &mut d1[r * wp..][..wp]);
            if padded {
                self.pad_cols(a, &c0);
                self.pad_cols(b, &c1);
            }
            let at = first + k * step;
            split_pairs(
                &mut a[lo..hi],
                &mut b[lo..hi],
                &src[at..][..2 * (hi - lo)],
                f,
            );
            if c1.start < lo {
                b[c1.start] = f(src[at - 1]);
            }
            if hi < c0.end {
                a[hi] = f(src[at + 2 * (hi - lo)]);
            }
        }
    }
}

/// Writes `f` of the `[live][hw]` channels of `src` into lanes `0..live`
/// of the `[hw][width]` panel, and zeros into the rest. Over blocks of 64
/// pixels, whose rows stay in L1 while they are zeroed (when some lanes
/// are dead) and every group of 8, 4 and 1 channels writes them: a group
/// reads its channels in order and writes each pixel's lanes of the group
/// in one store.
fn transpose_panel(
    panel: &mut [f32],
    src: &[f32],
    width: usize,
    live: usize,
    f: impl Fn(f32) -> f32 + Copy,
) {
    const PIXELS: usize = 64;
    let hw = panel.len() / width;
    for p0 in (0..hw).step_by(PIXELS) {
        let rows = &mut panel[p0 * width..hw.min(p0 + PIXELS) * width];
        if live < width {
            rows.fill(0.0);
        }
        let block = (src, hw, p0);
        let mut c = 0;
        while c + 8 <= live {
            transpose_group::<8>(rows, block, width, c, f);
            c += 8;
        }
        if c + 4 <= live {
            transpose_group::<4>(rows, block, width, c, f);
            c += 4;
        }
        for c in c..live {
            transpose_group::<1>(rows, block, width, c, f);
        }
    }
}

/// Lanes `c0..c0 + G` of the pixel rows `rows` (pixels `p0..` of
/// channels of `hw` pixels in `src`), from channels `c0..c0 + G`.
fn transpose_group<const G: usize>(
    rows: &mut [f32],
    (src, hw, p0): (&[f32], usize, usize),
    width: usize,
    c0: usize,
    f: impl Fn(f32) -> f32 + Copy,
) {
    let n = rows.len() / width;
    let chans: [&[f32]; G] = std::array::from_fn(|g| &src[(c0 + g) * hw + p0..][..n]);
    for (p, row) in rows.chunks_exact_mut(width).enumerate() {
        row[c0..c0 + G].copy_from_slice(&std::array::from_fn::<f32, G, _>(|g| f(chans[g][p])));
    }
}

/// `dst[i] = f(src[i])`: a copy when `f` is the identity.
#[inline]
fn map(dst: &mut [f32], src: &[f32], f: impl Fn(f32) -> f32) {
    for (d, &v) in dst.iter_mut().zip(src) {
        *d = f(v);
    }
}

/// `a[i] = f(src[2i])` and `b[i] = f(src[2i + 1])` for every `i`, eight
/// lanes at a time: `src` holds `2·a.len()` floats, `b` as many as `a`.
#[inline]
fn split_pairs(a: &mut [f32], b: &mut [f32], src: &[f32], f: impl Fn(f32) -> f32 + Copy) {
    let (s16, rest) = src.as_chunks::<16>();
    let ((a8, a1), (b8, b1)) = (a.as_chunks_mut::<8>(), b.as_chunks_mut::<8>());
    for ((a, b), s) in a8.iter_mut().zip(b8).zip(s16) {
        *a = std::array::from_fn(|j| f(s[2 * j]));
        *b = std::array::from_fn(|j| f(s[2 * j + 1]));
    }
    for ((a, b), s) in a1.iter_mut().zip(b1).zip(rest.as_chunks::<2>().0) {
        *a = f(s[0]);
        *b = f(s[1]);
    }
}

/// `dst[i] = f(src[2i])` for every `i`, eight lanes at a time: `src`
/// holds `2·dst.len() - 1` floats.
#[inline]
fn every_other(dst: &mut [f32], src: &[f32], f: impl Fn(f32) -> f32 + Copy) {
    let (s16, _) = src.as_chunks::<16>();
    let (d8, _) = dst.as_chunks_mut::<8>();
    let whole = d8.len().min(s16.len());
    for (d, v) in d8[..whole].iter_mut().zip(s16) {
        *d = std::array::from_fn(|j| f(v[2 * j]));
    }
    for (i, d) in dst.iter_mut().enumerate().skip(8 * whole) {
        *d = f(src[2 * i]);
    }
}

/// The staged form of one sample's convolution input: per channel,
/// `npy·npx` phase planes of `hp × wp`, back to back. A tile's reads past
/// a plane's data land in the next plane (lanes that are never stored);
/// only the buffer's last plane needs read slack, which
/// [`Correlation::run`] appends.
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
    fn new(ci: usize, h: usize, w: usize, cfg: Conv2dCfg) -> Self {
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
            plane_len: hp * wp,
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
    /// (`ci · chan_stride()`): per row phase, every channel's column
    /// phases in one call.
    fn stage(&self, x: &[f32], s: usize, buf: &mut [f32], round: bool) {
        let hw = self.h * self.w;
        let sample = &x[s * self.ci * hw..(s + 1) * self.ci * hw];
        let staging = Staging {
            hp: self.hp,
            wp: self.wp,
            len: self.plane_len,
            sh: self.h,
            sw: self.w,
            s: self.cfg.stride,
            fill: 0.0,
            round,
        };
        let strides = (self.chan_stride(), self.plane_len);
        for py in 0..self.npy {
            let origin = (
                py as isize - self.cfg.pad_h as isize,
                -(self.cfg.pad_w as isize),
            );
            let dst = &mut buf[py * self.npx * self.plane_len..];
            staging.stage(sample, dst, strides, self.npx, origin);
        }
    }
}

/// The data gradient's weights for one phase, packed so the column panel
/// a channel block reads is one stream: `out[((b·co + c)·T + t)·cb + i] =
/// w[(c·ci + b·cb + i)·taps + cells[t].1]`, zero past `ci`. (Read in
/// place, a panel is a few floats every `ci·taps` — on wide layers a
/// power-of-two stride that aliases the whole reduction into one cache
/// set. The forward pass's rows are contiguous in `w` and need no copy.)
fn pack_swapped(
    w: &[f32],
    dims: (usize, usize, usize),
    cells: &[(usize, usize)],
    cb: usize,
    round: bool,
) -> Scratch {
    let (co, ci, _) = dims;
    let mut out = arena::take(ci.div_ceil(cb) * co * cells.len() * cb);
    match (cb, round) {
        (4, false) => pack_blocks::<4>(&mut out, w, dims, cells, |v| v),
        (4, true) => pack_blocks::<4>(&mut out, w, dims, cells, round_bf16),
        (8, false) => pack_blocks::<8>(&mut out, w, dims, cells, |v| v),
        (8, true) => pack_blocks::<8>(&mut out, w, dims, cells, round_bf16),
        _ => unreachable!("every tier's tile has 4 or 8 rows"),
    }
    out
}

/// [`pack_swapped`]'s body for tiles of `CB` rows, with the value map
/// `f`. A channel block of an output channel's weights is a contiguous
/// run of `w`, read in order; eight output channels are packed per visit
/// to a block, so each visit writes eight contiguous cells, and a cell's
/// `CB` lanes are one store.
fn pack_blocks<const CB: usize>(
    out: &mut [f32],
    w: &[f32],
    (co, ci, taps): (usize, usize, usize),
    cells: &[(usize, usize)],
    f: impl Fn(f32) -> f32 + Copy,
) {
    let (cell, row) = (cells.len() * CB, ci * taps);
    for c0 in (0..co).step_by(8) {
        let rows = &w[c0 * row..co.min(c0 + 8) * row];
        for b in 0..ci.div_ceil(CB) {
            let live = CB.min(ci - b * CB);
            let dsts = out[(b * co + c0) * cell..].chunks_exact_mut(cell);
            for (r, dst) in rows.chunks_exact(row).zip(dsts) {
                let block = &r[b * CB * taps..][..live * taps];
                let (dst, _) = dst.as_chunks_mut::<CB>();
                for (lanes, &(_, wt)) in dst.iter_mut().zip(cells) {
                    *lanes = if live == CB {
                        std::array::from_fn(|i| f(block[i * taps + wt]))
                    } else {
                        std::array::from_fn(|i| {
                            if i < live {
                                f(block[i * taps + wt])
                            } else {
                                0.0
                            }
                        })
                    };
                }
            }
        }
    }
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
    /// Domain lanes per chunk (see [`Budget::chunk`]).
    chunk: usize,
    /// The store's per-channel bias (forward only).
    bias: Option<&'a [f32]>,
}

impl Pass<'_> {
    /// Lanes of the flattened output domain at row pitch `wp`.
    fn domain(&self, wp: usize) -> usize {
        if self.rows == 0 || self.cols == 0 {
            return 0;
        }
        (self.rows - 1) * wp + self.cols
    }
}

impl Correlation<'_> {
    /// Runs every pass for `n` samples; `stage(s, buf)` fills `buf`
    /// (`chans·chan_stride`) with sample `s`. Work items are `(sample,
    /// channel block)` pairs; a worker stages a sample when it first meets
    /// it, so staged data never crosses threads. Over one staged sample it
    /// walks the output domain chunk by chunk and runs all of its channel
    /// blocks of that sample on a chunk before the next, so a chunk's
    /// slice of the sample is read from cache by every block after the
    /// first. Which tile computes a lane changes nothing in its sum.
    fn run(&self, n: usize, stage: impl Fn(usize, &mut [f32]) + Sync, out: &mut [f32]) {
        let cb = self.tiles.cb;
        let blocks = self.out_chans.div_ceil(cb);
        let bound = |item: usize| {
            let chan = (item / blocks) * self.out_chans + (item % blocks * cb).min(self.out_chans);
            chan * self.out_chan_len
        };
        let domain = self
            .passes
            .iter()
            .map(|p| p.domain(self.wp))
            .max()
            .unwrap_or(0);
        let chunk = self.chunk.clamp(1, domain.max(1));
        // The staged planes, then one read slack of zeros (never stale
        // floats: a denormal in an unstored lane still costs FMA assists).
        let staged = self.chans * self.chan_stride;
        let planes = |_| {
            let mut buf = arena::take(staged + self.tiles.max_px());
            buf[staged..].fill(0.0);
            buf
        };
        let work = |_, items: Range<usize>, out: &mut [f32], buf: &mut Scratch| {
            let first = bound(items.start);
            let mut start = items.start;
            while start < items.end {
                let s = start / blocks;
                let end = items.end.min((s + 1) * blocks);
                stage(s, &mut buf[..staged]);
                for j0 in (0..domain).step_by(chunk) {
                    let lanes = j0..domain.min(j0 + chunk);
                    for item in start..end {
                        let (b, elem0) = (item % blocks, bound(item));
                        let dst = &mut out[elem0 - first..bound(item + 1) - first];
                        for pass in self.passes {
                            self.run_pass(pass, buf, b, dst, lanes.clone());
                        }
                    }
                }
                start = end;
            }
        };
        scoped_chunks(out, n * blocks, self.threads, planes, bound, work);
    }

    /// One pass for one `(sample, channel block)` over the domain lanes
    /// `lanes` (clipped to the pass's domain): `dst` is the block's output
    /// channels.
    fn run_pass(
        &self,
        pass: &Pass<'_>,
        planes: &[f32],
        block: usize,
        dst: &mut [f32],
        lanes: Range<usize>,
    ) {
        let domain = pass.domain(self.wp).min(lanes.end);
        if lanes.start >= domain {
            return;
        }
        let t = self.tiles;
        // A partial block repeats its last channel: computed, not stored.
        let last_row = dst.len() / self.out_chan_len - 1;
        let w_rows: [usize; MAX_CB] =
            std::array::from_fn(|i| block * pass.w_block + i.min(last_row) * pass.w_row);
        let (max_x, max_w) = pass
            .taps
            .iter()
            .fold((0, 0), |(x, w), tap| (x.max(tap.0), w.max(tap.1)));
        let last = self.chans.saturating_sub(1);
        // A tile starting at j0 < domain ends before j0 + whole vectors
        // covering domain - j0, so no tile reads past lane domain + lanes - 1.
        let reach = last * self.chan_stride + max_x + pass.domain(self.wp) + t.lanes - 1;
        let w_reach = w_rows[last_row] + last * pass.w_chan + max_w;
        assert!(
            self.chans == 0 || (reach <= planes.len() && w_reach < pass.w.len()),
            "operands too short for the tile reads"
        );
        let mut acc = [0.0f32; MAX_ACC];
        let mut j0 = lanes.start;
        while j0 < domain {
            let nv = (domain - j0).div_ceil(t.lanes).min(t.by_vectors.len());
            let px = nv * t.lanes;
            debug_assert!(
                self.chans == 0 || last * self.chan_stride + max_x + j0 + px <= planes.len(),
                "tile reads past the staged planes"
            );
            debug_assert!(t.cb * px <= acc.len(), "tile writes past acc");
            // SAFETY: the tier's ISA is present (see `tiles`); `w_rows`
            // holds MAX_CB ≥ cb offsets; the farthest plane read, lane
            // `px - 1` of the last channel's last tap at j0, is
            // `last·chan_stride + max_x + j0 + px - 1 < reach ≤
            // planes.len()` because j0 + px < pass domain + lanes (chunks
            // end inside the pass domain); the farthest weight read is
            // `w_reach < w.len()` (with no channels nothing is read, hence
            // the wrapping add); the farthest `acc` write is `cb·px - 1 <
            // MAX_ACC`. Both checked above.
            unsafe {
                (t.by_vectors[nv - 1][0])(
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
            self.store(pass, &acc, px, span, block * t.cb, dst);
            j0 += px;
        }
    }

    /// Writes the valid lanes of one accumulator tile (`acc[i·px + lane]`,
    /// domain pixels `span`) into the block's channels, one output-row
    /// segment at a time, adding the bias in that write.
    fn store(
        &self,
        pass: &Pass<'_>,
        acc: &[f32],
        px: usize,
        span: Range<usize>,
        chan0: usize,
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
                    write(&mut chan[off..off + run], src, self.bias, chan0 + i);
                } else {
                    for (q, &v) in src.iter().enumerate() {
                        chan[off + q * pass.col_stride] = v;
                    }
                }
            }
            j += run;
        }
    }
}

/// `dst = src + bias[chan]`, or `dst = src` without a bias.
#[inline]
fn write(dst: &mut [f32], src: &[f32], bias: Option<&[f32]>, chan: usize) {
    match bias.map(|b| b[chan]) {
        Some(b) => dst.iter_mut().zip(src).for_each(|(d, &a)| *d = a + b),
        None => dst.copy_from_slice(src),
    }
}

/// How a 1×1 correlation's lane grid lies on an `h × w` image: lane `(oy,
/// ox)` is image cell `(s·oy - pad_h, s·ox - pad_w)`, when that is inside.
#[derive(Clone, Copy)]
struct Grid {
    h: usize,
    w: usize,
    s: usize,
    pad_h: usize,
    pad_w: usize,
}

impl Grid {
    /// The image is the lane grid itself.
    fn dense(h: usize, w: usize) -> Self {
        Self {
            h,
            w,
            s: 1,
            pad_h: 0,
            pad_w: 0,
        }
    }

    fn is_dense(&self) -> bool {
        self.s == 1 && self.pad_h == 0 && self.pad_w == 0
    }

    /// The image index of lane index `o` along an axis, if inside.
    fn at(&self, o: usize, pad: usize, ext: usize) -> Option<usize> {
        (self.s * o).checked_sub(pad).filter(|&i| i < ext)
    }

    /// The image indices lane `o` owns along an axis: from its cell up to
    /// the next lane's, clipped to `[0, ext)`. Over a whole lane grid (its
    /// extent the conv's output extent of this image) they partition the
    /// axis, so a data gradient that writes every owned cell writes every
    /// `dx` element once.
    fn owned(&self, o: usize, pad: usize, ext: usize) -> Range<usize> {
        let clip = |i: usize| i.saturating_sub(pad).min(ext);
        clip(self.s * o)..clip(self.s * (o + 1))
    }
}

/// A 1×1 correlation — the forward pass or the data gradient of a 1×1
/// convolution at any stride — over **lane-chunk panels**. The lane domain
/// is every output pixel of a run of samples, flattened across them; a
/// chunk of it, the widest tile's lanes, is copied into a panel
/// `[channel][lanes]`, so a tile's whole reduction reads one sequential
/// stream and every channel block reuses the panel from cache. Lane `(oy,
/// ox)` reads source cell `read` of it and its sum lands on `write`'s cell
/// (a strided data gradient writes the cells between lanes as zeros in the
/// same pass). The sums are the staged path's: one accumulator lane, the
/// channels in order, from zero.
struct Pointwise<'a> {
    tiles: &'static Tiles,
    threads: usize,
    /// The source `[n, chans, read.h, read.w]`.
    src: &'a [f32],
    chans: usize,
    read: Grid,
    /// The lane grid of one sample.
    rows: usize,
    cols: usize,
    /// As [`Pass`]: output channel `i` of block `b`, reduction channel `c`
    /// is `w[b·w_block + i·w_row + c·w_chan]`.
    w: &'a [f32],
    w_block: usize,
    w_row: usize,
    w_chan: usize,
    /// The output `[n, out_chans, write.h, write.w]`.
    out_chans: usize,
    write: Grid,
    /// Lanes per group of panels, a whole number of chunks (see
    /// [`Budget::panels`]).
    group: usize,
    bias: Option<&'a [f32]>,
    round: bool,
}

impl Pointwise<'_> {
    /// Runs the correlation for `n` samples into `out`. Threads split
    /// `(sample, channel block)` items as [`Correlation::run`] does; a
    /// worker runs its whole samples as one lane domain, and a sample the
    /// split cuts on its own over that sample's blocks.
    fn run(&self, n: usize, out: &mut [f32]) {
        let cb = self.tiles.cb;
        let blocks = self.out_chans.div_ceil(cb);
        let len = self.write.h * self.write.w;
        let bound = |item: usize| {
            let chan = (item / blocks) * self.out_chans + (item % blocks * cb).min(self.out_chans);
            chan * len
        };
        let panels = |_| arena::take(self.chans * self.group);
        let work = |_, items: Range<usize>, out: &mut [f32], panels: &mut Scratch| {
            let first = bound(items.start);
            let mut start = items.start;
            while start < items.end {
                let (s, b) = (start / blocks, start % blocks);
                let (samples, chans, end) = if b == 0 && items.end >= (s + 1) * blocks {
                    let e = items.end / blocks;
                    (s..e, 0..blocks, e * blocks)
                } else {
                    let end = items.end.min((s + 1) * blocks);
                    (s..s + 1, b..end - s * blocks, end)
                };
                let dst = &mut out[bound(start) - first..bound(end) - first];
                self.run_samples(samples, chans, dst, panels);
                start = end;
            }
        };
        scoped_chunks(out, n * blocks, self.threads, panels, bound, work);
    }

    /// Channel blocks `blocks` of samples `samples` into `dst` (those
    /// samples' channels from the first block's on). Over each group of
    /// panels it runs every block on every panel of the group before the
    /// next group, so a block writes its channels' lanes in order and the
    /// group's panels are read from cache by every block after the first.
    fn run_samples(
        &self,
        samples: Range<usize>,
        blocks: Range<usize>,
        dst: &mut [f32],
        panels: &mut [f32],
    ) {
        let t = self.tiles;
        let hw = self.rows * self.cols;
        let lanes = samples.start * hw..samples.end * hw;
        let base = samples.start * self.out_chans + blocks.start * t.cb;
        let stride = self.chans * t.max_px();
        let mut acc = [0.0f32; MAX_ACC];
        for g0 in lanes.clone().step_by(self.group) {
            let group = g0..lanes.end.min(g0 + self.group);
            // The group's lane chunks, each with its panel `[chans][pitch]`
            // (`pitch` = whole vectors; only the last chunk is narrower).
            let chunks = group.clone().step_by(t.max_px()).map(|j0| {
                let chunk = j0..group.end.min(j0 + t.max_px());
                let nv = chunk.len().div_ceil(t.lanes);
                (chunk, nv, (j0 - g0) / t.max_px() * stride)
            });
            self.pack(panels, group.clone());
            for b in blocks.clone() {
                let live = t.cb.min(self.out_chans - b * t.cb);
                // A partial block repeats its last channel: computed, not
                // stored.
                let w_rows: [usize; MAX_CB] =
                    std::array::from_fn(|i| b * self.w_block + i.min(live - 1) * self.w_row);
                assert!(
                    self.chans == 0
                        || w_rows[live - 1] + (self.chans - 1) * self.w_chan < self.w.len(),
                    "weights too short for the tile reads"
                );
                for (chunk, nv, at) in chunks.clone() {
                    let pitch = nv * t.lanes;
                    let panel = &panels[at..][..self.chans * pitch];
                    debug_assert!(t.cb * pitch <= acc.len(), "tile writes past acc");
                    // SAFETY: the tier's ISA is present (see `tiles`);
                    // `w_rows` holds MAX_CB ≥ cb offsets; the tile reads
                    // lanes `< nv·lanes = pitch` of channel `c < chans` at
                    // `c·pitch` of `panel`, which holds `chans·pitch`
                    // floats; the farthest weight read is `w_rows[live -
                    // 1] + (chans - 1)·w_chan < w.len()` (checked above;
                    // with no channels nothing is read); the farthest `acc`
                    // write is `cb·pitch - 1 < MAX_ACC`.
                    unsafe {
                        (t.by_vectors[nv - 1][0])(
                            self.chans,
                            panel.as_ptr(),
                            pitch,
                            self.w.as_ptr(),
                            self.w_chan,
                            w_rows.as_ptr(),
                            &[(0, 0)],
                            acc.as_mut_ptr(),
                        );
                    }
                    self.store(&acc[..live * pitch], pitch, chunk, b * t.cb, base, dst);
                }
            }
        }
    }

    /// Calls `f(lane, sample, pixels)` on every run of `lanes` (`rows·cols`
    /// a sample, flattened) that lies in one sample, in one lane row when
    /// `by_row`, and in one chunk of `split` lanes counted from
    /// `lanes.start` — `lane` being its offset from there.
    fn each_run(
        &self,
        lanes: Range<usize>,
        by_row: bool,
        split: usize,
        mut f: impl FnMut(usize, usize, Range<usize>),
    ) {
        let hw = self.rows * self.cols;
        let mut j = lanes.start;
        while j < lanes.end {
            let (s, p) = (j / hw, j % hw);
            let stop = if by_row {
                p - p % self.cols + self.cols
            } else {
                hw
            };
            let lane = j - lanes.start;
            let run = (stop - p).min(lanes.end - j).min(split - lane % split);
            f(lane, s, p..p + run);
            j += run;
        }
    }

    /// Copies the lanes `group` of every source channel into the group's
    /// panels — chunk `k` (`max_px` lanes) at `panels[k·chans·max_px..]`,
    /// `[chans][pitch]` — rounded through bfloat16 when `round`, and zeros
    /// into the last panel's lanes past the group.
    fn pack(&self, panels: &mut [f32], group: Range<usize>) {
        if self.round {
            self.pack_with(panels, group, round_bf16);
        } else {
            self.pack_with(panels, group, |v| v);
        }
    }

    /// [`Pointwise::pack`] with the value map `f`, channel by channel, so
    /// each source plane is read in order.
    fn pack_with(&self, panels: &mut [f32], group: Range<usize>, f: impl Fn(f32) -> f32 + Copy) {
        let (t, g) = (self.tiles, self.read);
        let (px, plane) = (t.max_px(), g.h * g.w);
        let stride = self.chans * px;
        let last = (group.len() - 1) / px;
        let width = group.len() - last * px;
        let pitch = |k: usize| {
            if k < last {
                px
            } else {
                width.div_ceil(t.lanes) * t.lanes
            }
        };
        if width < pitch(last) {
            panels[last * stride..][..self.chans * pitch(last)]
                .chunks_exact_mut(pitch(last))
                .for_each(|row| row[width..].fill(0.0));
        }
        // The columns of the lane grid that lie in the image.
        let cols = g.pad_w.div_ceil(g.s)..(g.w + g.pad_w).div_ceil(g.s);
        for c in 0..self.chans {
            self.each_run(group.clone(), !g.is_dense(), px, |lane, s, run| {
                let (k, n) = (lane / px, run.len());
                let d = &mut panels[k * stride + c * pitch(k) + lane % px..][..n];
                let src = &self.src[(s * self.chans + c) * plane..][..plane];
                if g.is_dense() {
                    // A run of one sample is a run of its source plane.
                    map(d, &src[run], f);
                    return;
                }
                let (oy, ox) = (run.start / self.cols, run.start % self.cols);
                // The run's lanes whose column lies in the image: `lo..hi`.
                let (lo, hi) = (
                    cols.start.clamp(ox, ox + n) - ox,
                    cols.end.clamp(ox, ox + n) - ox,
                );
                let Some(iy) = g.at(oy, g.pad_h, g.h).filter(|_| lo < hi) else {
                    d.fill(0.0);
                    return;
                };
                d[..lo].fill(0.0);
                d[hi..].fill(0.0);
                let at = iy * g.w + g.s * (ox + lo) - g.pad_w;
                let (d, m) = (&mut d[lo..hi], hi - lo);
                match g.s {
                    1 => map(d, &src[at..][..m], f),
                    2 => every_other(d, &src[at..][..2 * m - 1], f),
                    s => d
                        .iter_mut()
                        .zip(src[at..].iter().step_by(s))
                        .for_each(|(d, &v)| *d = f(v)),
                }
            });
        }
    }

    /// Writes one tile's sums (`acc[i·pitch + lane]`, lanes `chunk`) for
    /// output channels `chan0..` into `dst`, whose first channel is channel
    /// `base` of the flattened `[n·out_chans]` planes: each lane's cell
    /// (plus the bias), and the zeros of the cells it owns besides.
    fn store(
        &self,
        acc: &[f32],
        pitch: usize,
        chunk: Range<usize>,
        chan0: usize,
        base: usize,
        dst: &mut [f32],
    ) {
        let (g, len) = (self.write, self.write.h * self.write.w);
        let plane = |s: usize, i: usize| (s * self.out_chans + chan0 + i - base) * len;
        let sums = acc.chunks_exact(pitch);
        if g.is_dense() {
            self.each_run(chunk, false, usize::MAX, |lane, s, px| {
                for (i, sums) in sums.clone().enumerate() {
                    let o = plane(s, i);
                    write(
                        &mut dst[o..][px.clone()],
                        &sums[lane..][..px.len()],
                        self.bias,
                        chan0 + i,
                    );
                }
            });
            return;
        }
        self.each_run(chunk, true, usize::MAX, |lane, s, px| {
            let (oy, ox) = (px.start / self.cols, px.start % self.cols);
            let ox_end = ox + px.len();
            let rows = g.owned(oy, g.pad_h, g.h);
            let cells = g.owned(ox, g.pad_w, g.w).start..g.owned(ox_end - 1, g.pad_w, g.w).end;
            let sums_row = g.at(oy, g.pad_h, g.h);
            // The run's first lane with a cell of its own (the lanes before
            // own only padding), and that cell.
            let lo = g.pad_w.div_ceil(g.s).clamp(ox, ox_end);
            let lead = g.owned(lo, g.pad_w, g.w).start;
            for (i, sums) in sums.clone().enumerate() {
                let o = plane(s, i);
                let sums = &sums[lane + lo - ox..][..ox_end - lo];
                for y in rows.clone() {
                    let row = &mut dst[o + y * g.w..][cells.clone()];
                    if Some(y) == sums_row {
                        let (pad, rest) = row.split_at_mut(lead - cells.start);
                        pad.fill(0.0);
                        scatter(rest, sums, g.s);
                    } else {
                        row.fill(0.0);
                    }
                }
            }
        });
    }
}

/// `row[s·k] = v[k]` and zeros between: `row` holds `s·k + 1..=s·(k + 1)`
/// cells for the `k + 1` values it takes (`v` may hold more).
#[inline]
fn scatter(row: &mut [f32], v: &[f32], s: usize) {
    if s == 2 {
        let (pairs, last) = row.as_chunks_mut::<2>();
        for (p, &v) in pairs.iter_mut().zip(v) {
            *p = [v, 0.0];
        }
        if let [last] = last {
            *last = v[pairs.len()];
        }
        return;
    }
    for (cells, &v) in row.chunks_mut(s).zip(v) {
        cells[0] = v;
        cells[1..].fill(0.0);
    }
}

/// Direct convolution forward, with an optional per-channel bias added in
/// the store.
///
/// # Panics
///
/// Panics on shape mismatches between `x`, `w`, `bias` and `cfg`.
pub fn forward(x: &Tensor, w: &Tensor, bias: Option<&[f32]>, cfg: Conv2dCfg, exec: Exec) -> Tensor {
    forward_within(x, w, bias, cfg, exec, CACHE)
}

/// [`forward`] under the cache budget `budget`.
fn forward_within(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&[f32]>,
    cfg: Conv2dCfg,
    exec: Exec,
    budget: Budget,
) -> Tensor {
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
    let f = size_of::<f32>();
    let weights: Cow<'_, [f32]> = if round {
        w.data().iter().map(|&v| round_bf16(v)).collect()
    } else {
        w.data().into()
    };
    let mut y = Tensor::uninit(&[n, co, ho, wo]);
    if taps == 1 {
        let job = Pointwise {
            tiles: t,
            threads: exec.threads,
            src: x.data(),
            chans: ci,
            read: Grid {
                h,
                w: wd,
                s: cfg.stride,
                pad_h: cfg.pad_h,
                pad_w: cfg.pad_w,
            },
            rows: ho,
            cols: wo,
            w: &weights,
            w_block: t.cb * ci,
            w_row: ci,
            w_chan: 1,
            out_chans: co,
            write: Grid::dense(ho, wo),
            group: budget.panels(n * ho * wo, ho * wo, ci * f, weights.len() * f, t.max_px()),
            bias,
            round,
        };
        job.run(n, y.data_mut());
        return y;
    }
    let planes = InputPlanes::new(ci, h, wd, cfg);
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
    // A domain lane reads one element of every phase plane of a channel.
    let staged = ci * planes.chan_stride() * f;
    let lane = ci * planes.npy * planes.npx * f;
    let job = Correlation {
        tiles: t,
        threads: exec.threads,
        chans: ci,
        chan_stride: planes.chan_stride(),
        wp: planes.wp,
        passes: &[pass],
        out_chans: co,
        out_chan_len: ho * wo,
        chunk: budget.chunk(staged, lane, weights.len() * f),
        bias,
    };
    job.run(
        n,
        |s, buf| planes.stage(x.data(), s, buf, round),
        y.data_mut(),
    );
    y
}

/// One axis of one output phase of the data gradient: input positions
/// `i = first + s·u` (`u < count`) receive `Σ_{q < taps} dy[m_lo + u - q] ·
/// w[s·q + ρ]`.
pub(super) struct Phase {
    rho: usize,
    pub(super) taps: usize,
    pub(super) m_lo: usize,
    pub(super) count: usize,
    pub(super) first: usize,
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

/// The data gradient's output phases per axis and the `hp × wp` extent of
/// its staged `dy` planes for an `h × w` input: zero rows/columns ahead of
/// `dy` so no tap reads before the plane, out to where the furthest phase
/// reads.
pub(super) fn dy_planes(
    h: usize,
    w: usize,
    cfg: Conv2dCfg,
) -> (Vec<Phase>, Vec<Phase>, usize, usize) {
    let s = cfg.stride;
    let (py, px) = (
        phases(h, cfg.kernel_h, s, cfg.pad_h),
        phases(w, cfg.kernel_w, s, cfg.pad_w),
    );
    let extent = |ph: &[Phase], k: usize| ph.iter().map(|f| f.m_lo + (k - 1) / s + f.count).max();
    let (hp, wp) = (extent(&py, cfg.kernel_h), extent(&px, cfg.kernel_w));
    (py, px, hp.unwrap_or(1), wp.unwrap_or(1))
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
    backward_data_within(dy, w, x_shape, cfg, exec, CACHE)
}

/// [`backward_data`] under the cache budget `budget`.
fn backward_data_within(
    dy: &Tensor,
    w: &Tensor,
    x_shape: &[usize],
    cfg: Conv2dCfg,
    exec: Exec,
    budget: Budget,
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
    let f = size_of::<f32>();
    if kh * kw == 1 {
        let mut dx = Tensor::uninit(x_shape);
        let weights = pack_swapped(w.data(), (co, ci, 1), &[(0, 0)], t.cb, round);
        let job = Pointwise {
            tiles: t,
            threads: exec.threads,
            src: dy.data(),
            chans: co,
            read: Grid::dense(ho, wo),
            rows: ho,
            cols: wo,
            w: &weights,
            w_block: co * t.cb,
            w_row: 1,
            w_chan: t.cb,
            out_chans: ci,
            write: Grid {
                h,
                w: wd,
                s,
                pad_h: cfg.pad_h,
                pad_w: cfg.pad_w,
            },
            group: budget.panels(n * ho * wo, ho * wo, co * f, weights.len() * f, t.max_px()),
            bias: None,
            round,
        };
        job.run(n, dx.data_mut());
        return dx;
    }
    let (py, px, hp, wp) = dy_planes(h, wd, cfg);
    let (ty, tx) = ((kh - 1) / s, (kw - 1) / s);
    let plane_len = hp * wp;
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
    let weights: usize = passes.iter().map(|p| p.w.len()).sum();
    let job = Correlation {
        tiles: t,
        threads: exec.threads,
        chans: co,
        chan_stride: plane_len,
        wp,
        passes: &passes,
        out_chans: ci,
        out_chan_len: h * wd,
        chunk: budget.chunk(co * plane_len * f, co * f, weights * f),
        bias: None,
    };
    let staging = Staging {
        hp,
        wp,
        len: plane_len,
        sh: ho,
        sw: wo,
        s: 1,
        fill: 0.0,
        round,
    };
    let stage = |i: usize, buf: &mut [f32]| {
        let src = &dy.data()[i * co * ho * wo..(i + 1) * co * ho * wo];
        let origin = (-(ty as isize), -(tx as isize));
        staging.stage(src, buf, (plane_len, plane_len), 1, origin);
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
    backward_weights_within(x, dy, cfg, grad, exec, CACHE);
}

/// [`backward_weights_into`] under the cache budget `budget`.
fn backward_weights_within(
    x: &Tensor,
    dy: &Tensor,
    cfg: Conv2dCfg,
    grad: &mut Tensor,
    exec: Exec,
    budget: Budget,
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
    // Every sample's input, staged as for the forward pass — or `x`
    // itself, which is its staged form when unpadded at stride 1 and not
    // rounded (the stream reads stay inside the planes: no read slack).
    let planes = InputPlanes::new(ci, h, wd, cfg);
    let x_sample = ci * planes.chan_stride();
    let staged;
    let xs: &[f32] = if cfg.stride == 1 && cfg.pad_h == 0 && cfg.pad_w == 0 && !round {
        x.data()
    } else {
        let mut buf = arena::take(n * x_sample);
        let stage = |_, samples: Range<usize>, chunk: &mut [f32], _: &mut ()| {
            for (s, buf) in samples.zip(chunk.chunks_exact_mut(x_sample)) {
                planes.stage(x.data(), s, buf, round);
            }
        };
        scoped_chunks(&mut buf, n, exec.threads, |_| (), |s| s * x_sample, stage);
        staged = buf;
        &staged
    };
    // dy panel-major: [n][cop/pw][ho·wo][width], channels zero-padded to
    // whole vectors and cut into panels of the widest tile, so a tile's
    // lanes for consecutive pixels are one contiguous stream. Panel `b`
    // holds channels [b·pw, b·pw + width) and starts at b·pw·hw in its
    // sample; only the last panel may be narrower than `pw`, and only its
    // lanes past `co` are dead (zero).
    let (hw, cop) = (ho * wo, co.next_multiple_of(t.lanes));
    let pw = t.max_px().min(cop);
    let mut dyt = arena::take(n * hw * cop);
    for (s, sample) in dyt.chunks_exact_mut(hw * cop).enumerate() {
        for (b, panel) in sample.chunks_mut(pw * hw).enumerate() {
            let (c0, width) = (b * pw, panel.len() / hw);
            let live = co.min(c0 + width) - c0;
            let src = &dy.data()[(s * co + c0) * hw..][..live * hw];
            if round {
                transpose_panel(panel, src, width, live, round_bf16);
            } else {
                transpose_panel(panel, src, width, live, |v| v);
            }
        }
    }
    // Weight `i`'s stream starts at `stream(i)` of a staged sample.
    let stream = |i: usize| i / taps * planes.chan_stride() + planes.tap_offset(i % taps);
    let max_tap = (0..taps).map(&stream).max().unwrap_or(0);
    let last_px = (ho - 1) * planes.wp + wo - 1;
    assert!(
        stream(k - taps) + max_tap + last_px < x_sample,
        "staged planes too short for the stream reads"
    );
    // The reduction in order, for a panel of `width` lanes: every valid
    // output pixel of every sample as (offset in the panel, offset in a
    // staged stream), counted row by row, and its blocks whose panel
    // slice fits the budget. Built once for the full width and once for a
    // narrower last panel.
    let reduction = |width: usize| {
        let mut pixels = Pairs::take(hw);
        let list = pixels.as_mut_slice();
        for (oy, row) in list.chunks_exact_mut(wo).enumerate() {
            let (lane, x) = (oy * wo * width, oy * planes.wp);
            for (ox, p) in row.iter_mut().enumerate() {
                *p = (lane + ox * width, x + ox);
            }
        }
        let blocks = budget.reduction_blocks(n, hw, width * size_of::<f32>());
        (pixels, blocks)
    };
    let mut full = reduction(pw);
    let last_width = cop - (cop - 1) / pw * pw;
    let mut narrow = (last_width < pw).then(|| reduction(last_width));
    let full = (&*full.0.as_mut_slice(), full.1);
    let narrow = narrow.as_mut().map(|(p, b)| (&*p.as_mut_slice(), *b));
    // Per worker, the running sums of one tile: one cb·pw slot per step of
    // cb weights when the reduction is split into blocks, else one slot.
    let slots = if full.1.len() > 1 {
        k.div_ceil(t.cb)
    } else {
        1
    };
    // Work items: tiles of output channels (whole rows of `grad`), one per
    // dy panel.
    let work = |_, tiles: Range<usize>, chunk: &mut [f32], sums: &mut Scratch| {
        for (tile, rows) in tiles.zip(chunk.chunks_mut(pw * k)) {
            let co0 = tile * pw;
            let width = pw.min(cop - co0);
            let nv = width / t.lanes;
            let (pixels, blocks) = match narrow {
                Some(narrow) if width < pw => narrow,
                _ => full,
            };
            let stride = if blocks.len() > 1 { t.cb * width } else { 0 };
            for (bi, (samples, span)) in blocks.iter().enumerate() {
                let x0 = samples.start * hw * cop + co0 * hw;
                let w0 = samples.start * x_sample;
                let last_sample = samples.len() - 1;
                for k0 in (0..k).step_by(t.cb) {
                    let streams: [usize; MAX_CB] =
                        std::array::from_fn(|i| stream((k0 + i).min(k - 1)));
                    let acc = &mut sums[k0 / t.cb * stride..][..t.cb * width];
                    debug_assert!(
                        x0 + last_sample * hw * cop + span.end * width <= dyt.len(),
                        "tile reads past the dy panels"
                    );
                    debug_assert!(
                        w0 + last_sample * x_sample
                            + streams.iter().max().unwrap_or(&0)
                            + pixels[span.end - 1].1
                            < xs.len(),
                        "tile reads past the staged input"
                    );
                    // SAFETY: the tier's ISA is present (see `tiles`);
                    // `streams` holds MAX_CB ≥ cb offsets. The farthest dy
                    // read, lane width - 1 of pixel span.end - 1 of the
                    // block's last sample, is x0 + last·hw·cop +
                    // span.end·width - 1 < dyt.len(); the farthest input
                    // read, the largest stream at the last pixel of the
                    // last sample, is below w0 + (last + 1)·x_sample ≤
                    // xs.len() by the assert above; `acc` is a cb·width
                    // slice, initialised by the previous block when
                    // accumulating (bi > 0). All three checked above.
                    unsafe {
                        (t.by_vectors[nv - 1][usize::from(bi > 0)])(
                            samples.len(),
                            dyt.as_ptr().add(x0),
                            hw * cop,
                            xs.as_ptr().add(w0),
                            x_sample,
                            streams.as_ptr(),
                            &pixels[span.clone()],
                            acc.as_mut_ptr(),
                        );
                    }
                    if bi + 1 < blocks.len() {
                        continue;
                    }
                    for (lane, row) in rows.chunks_exact_mut(k).enumerate() {
                        for (i, g) in row[k0..].iter_mut().take(t.cb).enumerate() {
                            *g += acc[i * width + lane];
                        }
                    }
                }
            }
        }
    };
    let bound = |tile: usize| (tile * pw).min(co) * k;
    scoped_chunks(
        grad.data_mut(),
        co.div_ceil(pw),
        exec.threads,
        |_| arena::take(slots * t.cb * pw),
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
            // `pack_swapped` has a body for each.
            assert!(t.cb == 4 || t.cb == 8);
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

    /// `Staging::stage` against its definition, cell by cell and bit for
    /// bit, over strides 1–3 with every column phase count, origins on
    /// both sides of the source, plane extents that clip the source on
    /// each side or pass it, rows long enough for whole vector runs, an
    /// unpadded plane (the one-copy path), fills of `0`, `-0.0` and
    /// `-inf`, bf16 rounding on and off, and both buffer layouts (a
    /// channel's phases adjacent, as the convolutions stage; planes
    /// adjacent within a phase, as pooling does). The read slack must be
    /// all `fill`, and no cell outside the staged planes may be written.
    #[test]
    fn stage_plane_pads_subsamples_and_clears_the_slack() {
        const SLACK: usize = 3;
        const UNTOUCHED: f32 = 1.5e30;
        // Extents of the source and of the planes: the widest rows reach
        // the stride-2 split's whole 16-float runs.
        let (heights, widths) = ([1, 4, 7], [[1, 4, 7, 35], [1, 4, 7, 18]]);
        let origins = [-2isize, -1, 0, 1, 2];
        let mut cases = 0;
        for s in 1..=3 {
            for e in 0..144 {
                let (sh, hp) = (heights[e / 48], heights[e / 16 % 3]);
                let (sw, wp) = (widths[0][e / 4 % 4], widths[1][e % 4]);
                // Two source planes whose values bf16 rounds.
                let src: Vec<f32> = (0..2 * sh * sw)
                    .map(|v| 1.0 + v as f32 / 4.0 + 2f32.powi(-12))
                    .collect();
                for o in 0..25 {
                    let (oy, ox) = (origins[o / 5], origins[o % 5]);
                    for phases in 1..=s {
                        for (fill, round) in
                            [(0.0, false), (-0.0, true), (f32::NEG_INFINITY, false)]
                        {
                            let len = hp * wp + SLACK;
                            let staging = Staging {
                                hp,
                                wp,
                                len,
                                sh,
                                sw,
                                s,
                                fill,
                                round,
                            };
                            // (plane, phase) strides with a gap between planes.
                            for (plane, phase) in [(phases * len + 2, len), (len, 2 * len + 1)] {
                                let mut dst = vec![UNTOUCHED; plane + phases * phase + len];
                                staging.stage(&src, &mut dst, (plane, phase), phases, (oy, ox));
                                let mut want = vec![UNTOUCHED; dst.len()];
                                for i in 0..2 {
                                    for px in 0..phases {
                                        let out = &mut want[i * plane + px * phase..][..len];
                                        out.fill(fill);
                                        for (r, c) in
                                            (0..hp).flat_map(|r| (0..wp).map(move |c| (r, c)))
                                        {
                                            let y = (s * r) as isize + oy;
                                            let x = (s * c + px) as isize + ox;
                                            if (0..sh as isize).contains(&y)
                                                && (0..sw as isize).contains(&x)
                                            {
                                                let v =
                                                    src[i * sh * sw + y as usize * sw + x as usize];
                                                out[r * wp + c] =
                                                    if round { round_bf16(v) } else { v };
                                            }
                                        }
                                    }
                                }
                                let bits =
                                    |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                                assert_eq!(
                                    bits(&dst),
                                    bits(&want),
                                    "s{s} src {sh}x{sw} plane {hp}x{wp} origin ({oy},{ox}) {phases} phases \
                                     fill {fill} round {round} strides ({plane},{phase})"
                                );
                                cases += 1;
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 6 * 144 * 25 * 3 * 2);
    }

    /// No blocking anywhere: one chunk, one reduction block.
    const UNBOUNDED: Budget = Budget {
        panel: usize::MAX,
        staged: usize::MAX,
        weights: usize::MAX,
    };

    #[test]
    fn reduction_blocks_cover_the_reduction_in_order() {
        // Blocks concatenate to every (sample, pixel) once, in order; each
        // fits the budget unless it is one pixel, and spans whole samples
        // or lies inside one.
        for (n, hw, row, panel) in [
            (3, 10, 4, 1000),
            (3, 10, 4, 120),
            (3, 10, 4, 80),
            (3, 10, 4, 39),
            (3, 10, 4, 12),
            (1, 7, 8, 1),
            (2, 5, 4, usize::MAX),
        ] {
            let budget = Budget { panel, ..UNBOUNDED };
            let blocks = budget.reduction_blocks(n, hw, row);
            let walk: Vec<(usize, usize)> = blocks
                .iter()
                .flat_map(|(s, p)| s.clone().flat_map(move |s| p.clone().map(move |p| (s, p))))
                .collect();
            let want: Vec<_> = (0..n).flat_map(|s| (0..hw).map(move |p| (s, p))).collect();
            assert_eq!(walk, want, "{n} {hw} {row} {panel}");
            for (s, p) in &blocks {
                assert!(s.len() * p.len() * row <= panel || s.len() * p.len() == 1);
                assert!(s.len() == 1 || p.len() == hw);
            }
            assert_eq!(blocks.len() == 1, n * hw * row <= panel);
        }
    }

    fn seeded(shape: &[usize], salt: usize) -> Tensor {
        let len: usize = shape.iter().product();
        let data = (0..len).map(|v| ((v * 31 + salt * 17) % 29) as f32 / 7.0 - 2.0);
        Tensor::from_vec(shape, data.collect())
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// The 1×1 panels' groups only reorder which tile runs when: under
    /// budgets that cut the lane domain into groups of one chunk, of a
    /// chunk and a lane, of two chunks, one lane short of the domain, one
    /// sample (weights past their budget) and one past the domain, the
    /// forward pass and the data gradient give the bits of one group — on
    /// every tier, at 1, 2 and 3 threads, in f32 and bf16.
    #[test]
    fn panel_groups_are_bitwise_invisible() {
        let f = size_of::<f32>();
        for (n, ci, co, s, (h, w)) in [
            (2, 9, 17, 1, (7, 7)),
            (3, 4, 9, 2, (13, 14)),
            (1, 17, 8, 1, (1, 97)),
            (3, 64, 3, 1, (4, 4)),
        ] {
            let cfg = Conv2dCfg::square(1, s, 0);
            let (ho, wo) = cfg.out_extent(h, w);
            let domain = n * ho * wo;
            let (x, wt, dy) = (
                seeded(&[n, ci, h, w], 1),
                seeded(&[co, ci, 1, 1], 2),
                seeded(&[n, co, ho, wo], 3),
            );
            let bias: Vec<f32> = (0..co).map(|o| o as f32 / 8.0 - 1.0).collect();
            for kern in kernel::available() {
                let px = tiles(kern).max_px();
                for precision in [Precision::F32, Precision::Bf16] {
                    let run = |threads: usize, lanes: Option<usize>| {
                        let e = Exec {
                            kernel: kern,
                            threads,
                            precision,
                        };
                        let budget = |chans: usize| match lanes {
                            None => UNBOUNDED,
                            Some(0) => Budget {
                                staged: chans * f,
                                weights: 0,
                                ..UNBOUNDED
                            },
                            Some(l) => Budget {
                                staged: l * chans * f,
                                ..UNBOUNDED
                            },
                        };
                        let y = forward_within(&x, &wt, Some(&bias), cfg, e, budget(ci));
                        let dx = backward_data_within(&dy, &wt, x.shape(), cfg, e, budget(co));
                        (bits(&y), bits(&dx))
                    };
                    let want = run(1, None);
                    for lanes in [1, px + 1, 2 * px, domain - 1, 0, domain + 1] {
                        for threads in 1..=3 {
                            assert!(
                                run(threads, Some(lanes)) == want,
                                "{} {precision:?} n{n} ci{ci} co{co} /{s} {h}x{w}: {lanes} lanes, {threads} threads",
                                kern.name
                            );
                        }
                    }
                }
            }
        }
    }

    /// Blocking only reorders which tile runs when, never a lane's sum:
    /// all three ops give the same bits as unblocked under budgets whose
    /// blocks straddle the shape's edges — per op, chunks of 7 lanes and
    /// of `domain - 1`, `domain + 1` and `domain` lanes; weight-gradient
    /// blocks of 5 pixels, `ho·wo ∓ 1` pixels and `n - 1` samples — on
    /// every tier, the tiny blocks at 1, 2 and 3 threads.
    #[test]
    fn blocking_is_bitwise_invisible() {
        let mut shapes = Vec::new();
        for co in [16, 47, 48, 49, 256] {
            for n in [1, 3] {
                shapes.push((n, 2, co, (1, 1), (4, 5)));
            }
        }
        for geometry in [(1, 1), (1, 2), (3, 1), (3, 2)] {
            for co in [16, 49] {
                shapes.push((3, 3, co, geometry, (7, 9)));
            }
        }
        let f = size_of::<f32>();
        for (n, ci, co, (k, s), (h, w)) in shapes {
            let cfg = Conv2dCfg::square(k, s, k / 2);
            let (ho, wo) = cfg.out_extent(h, w);
            let hw = ho * wo;
            let (x, wt, dy) = (
                seeded(&[n, ci, h, w], 1),
                seeded(&[co, ci, k, k], 2),
                seeded(&[n, co, ho, wo], 3),
            );
            let bias: Vec<f32> = (0..co).map(|o| o as f32 / 8.0 - 1.0).collect();
            for kern in kernel::available() {
                let t = tiles(kern);
                // Each op's domain and staged bytes per domain lane.
                let planes = InputPlanes::new(ci, h, w, cfg);
                let fwd = ((ho - 1) * planes.wp + wo, ci * planes.npy * planes.npx * f);
                let (py, px, _, wp) = dy_planes(h, w, cfg);
                let counts = |ph: &[Phase]| -> Vec<usize> {
                    ph.iter().filter(|p| p.taps > 0).map(|p| p.count).collect()
                };
                let (ys, xs) = (counts(&py), counts(&px));
                let bwd_domain = ys
                    .iter()
                    .flat_map(|y| xs.iter().map(move |x| (y - 1) * wp + x))
                    .max()
                    .unwrap_or(1);
                let bwd = (bwd_domain, co * f);
                let row = t.max_px().min(co.next_multiple_of(t.lanes)) * f;
                let run = |threads: usize, edge: Option<usize>| {
                    let e = Exec {
                        kernel: kern,
                        threads,
                        precision: Precision::F32,
                    };
                    let chunked = |(domain, lane): (usize, usize)| match edge {
                        None => UNBOUNDED,
                        Some(i) => Budget {
                            staged: [7, domain - 1, domain + 1, domain][i] * lane,
                            ..UNBOUNDED
                        },
                    };
                    let blocked = match edge {
                        None => UNBOUNDED,
                        Some(i) => Budget {
                            panel: [5, hw - 1, hw + 1, n * hw][i] * row - usize::from(i == 3),
                            ..UNBOUNDED
                        },
                    };
                    let y = forward_within(&x, &wt, Some(&bias), cfg, e, chunked(fwd));
                    let dx = backward_data_within(&dy, &wt, x.shape(), cfg, e, chunked(bwd));
                    let mut dw = seeded(wt.shape(), 4);
                    backward_weights_within(&x, &dy, cfg, &mut dw, e, blocked);
                    (bits(&y), bits(&dx), bits(&dw))
                };
                let want = run(1, None);
                for edge in 0..4 {
                    let threads: &[usize] = if edge == 0 { &[1, 2, 3] } else { &[1] };
                    for &th in threads {
                        assert!(
                            run(th, Some(edge)) == want,
                            "{} n{n} ci{ci} co{co} {k}x{k}/{s} {h}x{w}: edge {edge}, {th} threads",
                            kern.name
                        );
                    }
                }
            }
        }
    }
}
