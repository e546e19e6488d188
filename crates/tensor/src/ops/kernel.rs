//! Register micro-kernels for the blocked GEMM core and their runtime
//! dispatch.
//!
//! The innermost unit of the packed GEMM (see [`crate::ops::pack`]) is an
//! `mr × nr` register tile accumulated over a `kc`-deep panel. The seed
//! shipped a single autovectorized 8×8 tile whose size was pinned by LLVM's
//! 64-float scalar-replacement limit; this module adds hand-written
//! `core::arch` FMA kernels that sidestep that limit:
//!
//! | kernel | tile | ISA | accumulators |
//! |---|---|---|---|
//! | `avx512-fma-16x16` | 16×16 | AVX-512F | 16 zmm (one per row) |
//! | `avx2-fma-8x8` | 8×8 | AVX2+FMA | 8 ymm (one per row) |
//! | `scalar-8x8` | 8×8 | portable | 64-float stack tile (autovectorized) |
//!
//! Each kernel carries two tile bodies over the same registers: the f32
//! body (`run`) and a bf16 body (`run_bf16`) that widens bf16-packed
//! operands on load — `vpmovzxwd` + a 16-bit shift, which *is* the exact
//! bf16→f32 conversion — and accumulates in f32. The widening is plain bit
//! arithmetic on every ISA (no `vcvtne2ps2bf16` probing: a uniform
//! conversion rule keeps packed bytes identical across kernels, so the
//! per-kernel parity tests can compare encodings bitwise).
//!
//! A kernel call learns how to run from an [`Exec`] value: micro-kernel,
//! worker threads and operand precision. [`Exec::process`] is the
//! process-wide one, resolved **once** from the environment: the widest
//! supported kernel, found with `is_x86_feature_detected!` so a binary
//! built for a generic target still uses AVX-512 on capable hosts, unless
//! `MBS_KERNEL` (`auto` | `avx512` | `avx2` | `scalar`) asks for another
//! (requesting an ISA the CPU lacks falls back to the best available
//! kernel with a warning rather than faulting); `MBS_THREADS` workers
//! (default: available parallelism); `MBS_PREC` precision (default f32).
//! Tests pass other `Exec` values to sweep kernels, threads and precisions
//! inside one process.
//!
//! # Contract
//!
//! A kernel reads `kc × mr` packed A (strip-major: `a[p·mr + i]`) and
//! `kc × nr` packed B (`b[p·nr + j]`), and **overwrites** `acc[i·nr + j]`
//! with `Σ_p a[p·mr+i] · b[p·nr+j]`. Accumulation over `p` is strictly
//! in-order within one kernel, so for a fixed kernel the blocked GEMM stays
//! bitwise thread-count-invariant; *different* kernels may round
//! differently (FMA fuses the multiply-add), which is why every production
//! call runs on the one process-wide [`Exec::process`] kernel. A kernel
//! only fills the accumulator tile: writing it into C, with the optional
//! per-column bias, is a plain loop in the caller ([`crate::ops::pack`]).
//!
//! # Examples
//!
//! ```
//! use mbs_tensor::ops::kernel;
//!
//! let k = kernel::selected();
//! // One depth step: A strip = [1, 2, ...], B strip = all ones.
//! let a: Vec<f32> = (0..k.mr).map(|i| i as f32 + 1.0).collect();
//! let b = vec![1.0f32; k.nr];
//! let mut acc = vec![0.0f32; k.mr * k.nr];
//! k.run(1, &a, &b, &mut acc);
//! assert_eq!(acc[0], 1.0); // row 0 · col 0
//! assert_eq!(acc[k.nr], 2.0); // row 1 · col 0
//! ```

use crate::prec::{parse_precision, Precision};

/// Largest `mr` any registered kernel uses (sizes the caller's packing
/// strips and accumulator scratch).
pub const MAX_MR: usize = 16;
/// Largest `nr` any registered kernel uses.
pub const MAX_NR: usize = 16;

/// One register micro-kernel: an `mr × nr` tile accumulated over `kc`
/// packed depth steps. See the [module docs](self) for the data contract.
#[derive(Debug)]
pub struct MicroKernel {
    /// Stable identifier (recorded in the repository benchmark's result
    /// line as `kernel`).
    pub name: &'static str,
    /// Tile rows — the A packing strip width.
    pub mr: usize,
    /// Tile columns — the B packing strip width.
    pub nr: usize,
    /// The tile body. Safety: callable only when the ISA this kernel was
    /// registered for is present; [`available`] guarantees that.
    run: unsafe fn(kc: usize, a: *const f32, b: *const f32, acc: *mut f32),
    /// The tile body for bf16-packed operands (same ISA as `run`): widening
    /// loads (`bf16 → f32` is a 16-bit shift), f32 FMA accumulate. See
    /// [`MicroKernel::run_bf16`].
    run_bf16: unsafe fn(kc: usize, a: *const u16, b: *const u16, acc: *mut f32),
}

impl MicroKernel {
    /// Runs the tile: `acc[i·nr + j] = Σ_p a[p·mr+i] · b[p·nr+j]`,
    /// overwriting `acc`.
    ///
    /// # Panics
    ///
    /// Panics if `a`, `b`, or `acc` is shorter than `kc·mr`, `kc·nr`, or
    /// `mr·nr` respectively.
    #[inline]
    pub fn run(&self, kc: usize, a: &[f32], b: &[f32], acc: &mut [f32]) {
        assert!(a.len() >= kc * self.mr, "packed A strip too short");
        assert!(b.len() >= kc * self.nr, "packed B strip too short");
        assert!(acc.len() >= self.mr * self.nr, "accumulator too short");
        // SAFETY: bounds asserted above; the ISA requirement is upheld by
        // construction — kernels only enter `available()` after their
        // target feature is detected on this CPU.
        unsafe { (self.run)(kc, a.as_ptr(), b.as_ptr(), acc.as_mut_ptr()) }
    }

    /// [`MicroKernel::run`] for bf16-packed operand strips: each element is
    /// widened to f32 (exact — bf16 is the top half of an f32) and the tile
    /// accumulates in f32, in the same strictly-in-order reduction as the
    /// f32 body. The result therefore equals running the f32 kernel on the
    /// widened operands bit-for-bit, which is what the parity tests pin —
    /// reduced precision lives entirely in the *encoding* done at packing
    /// time, never in the arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if `a`, `b`, or `acc` is shorter than `kc·mr`, `kc·nr`, or
    /// `mr·nr` respectively.
    #[inline]
    pub fn run_bf16(&self, kc: usize, a: &[u16], b: &[u16], acc: &mut [f32]) {
        assert!(a.len() >= kc * self.mr, "packed A strip too short");
        assert!(b.len() >= kc * self.nr, "packed B strip too short");
        assert!(acc.len() >= self.mr * self.nr, "accumulator too short");
        // SAFETY: as in `run`.
        unsafe { (self.run_bf16)(kc, a.as_ptr(), b.as_ptr(), acc.as_mut_ptr()) }
    }
}

/// The portable autovectorized 8×8 tile (the seed's micro-kernel). LLVM
/// promotes the 64-float stack tile to vector registers on AVX2/AVX-512
/// targets; on anything else it is still a correct dense loop nest.
pub static SCALAR_8X8: MicroKernel = MicroKernel {
    name: "scalar-8x8",
    mr: 8,
    nr: 8,
    run: scalar_8x8,
    run_bf16: scalar_8x8_bf16,
};

/// Hand-written AVX2+FMA 8×8 tile: 8 ymm accumulators, one `vbroadcastss`
/// + `vfmadd` per row per depth step.
#[cfg(target_arch = "x86_64")]
pub static AVX2_8X8: MicroKernel = MicroKernel {
    name: "avx2-fma-8x8",
    mr: 8,
    nr: 8,
    run: avx2_8x8,
    run_bf16: avx2_8x8_bf16,
};

/// Hand-written AVX-512F 16×16 tile: 16 zmm accumulators (4× the FLOPs of
/// the 8×8 tile per B-row load), beyond what scalar replacement allows the
/// autovectorizer.
#[cfg(target_arch = "x86_64")]
pub static AVX512_16X16: MicroKernel = MicroKernel {
    name: "avx512-fma-16x16",
    mr: 16,
    nr: 16,
    run: avx512_16x16,
    run_bf16: avx512_16x16_bf16,
};

/// Every kernel usable on this CPU, widest first. The scalar kernel is
/// always present and always last.
pub fn available() -> Vec<&'static MicroKernel> {
    let mut kernels: Vec<&'static MicroKernel> = Vec::with_capacity(3);
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            kernels.push(&AVX512_16X16);
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            kernels.push(&AVX2_8X8);
        }
    }
    kernels.push(&SCALAR_8X8);
    kernels
}

/// How a GEMM or a direct convolution runs: micro-kernel (and the
/// matching direct-conv tile tier), worker threads and operand precision.
/// Production entry points (`matmul*`, `conv2d*`) pass
/// [`Exec::process`]; the parity and thread-invariance tests pass other
/// values.
#[derive(Debug, Clone, Copy)]
pub struct Exec {
    /// The register micro-kernel (and the direct-conv tile tier).
    pub kernel: &'static MicroKernel,
    /// Worker threads; any value ≥ 1 gives bitwise-identical results for
    /// a fixed kernel and precision.
    pub threads: usize,
    /// Operand precision applied while packing or staging; accumulation is
    /// always f32.
    pub precision: Precision,
}

impl Exec {
    /// The process-wide settings, resolved together on first use:
    /// `MBS_KERNEL` (else the widest detected kernel), `MBS_THREADS` (else
    /// the available parallelism) and `MBS_PREC` (else f32). Malformed
    /// values warn and fall back. Fixed per process because different
    /// kernels and precisions round differently, so a run stays
    /// reproducible; later calls are a static load.
    pub fn process() -> Self {
        static PROCESS: std::sync::OnceLock<Exec> = std::sync::OnceLock::new();
        *PROCESS.get_or_init(|| Exec {
            kernel: select(std::env::var("MBS_KERNEL").ok().as_deref()),
            threads: crate::env::positive_usize_knob("MBS_THREADS")
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get())),
            precision: crate::env::knob("MBS_PREC", "a precision (f32 or bf16)", parse_precision)
                .unwrap_or(Precision::F32),
        })
    }
}

/// The process-wide micro-kernel, [`Exec::process`]`.kernel`.
pub fn selected() -> &'static MicroKernel {
    Exec::process().kernel
}

/// The process-wide worker count, [`Exec::process`]`.threads`.
pub fn configured_threads() -> usize {
    Exec::process().threads
}

/// Resolves an `MBS_KERNEL` value against the detected kernel set
/// (separated from [`Exec::process`] so tests can exercise the parsing
/// without touching process-global state).
pub(crate) fn select(request: Option<&str>) -> &'static MicroKernel {
    let kernels = available();
    let fallback = kernels[0];
    let Some(req) = request else {
        return fallback;
    };
    let req = req.trim();
    if req.is_empty() || req.eq_ignore_ascii_case("auto") {
        return fallback;
    }
    let wanted = kernels.iter().find(|k| {
        k.name.eq_ignore_ascii_case(req)
            || k.name
                .split('-')
                .next()
                .is_some_and(|isa| isa.eq_ignore_ascii_case(req))
    });
    match wanted {
        Some(k) => k,
        None => {
            eprintln!(
                "warning: MBS_KERNEL={req} is not available on this CPU \
                 (have: {}); using {}",
                kernels
                    .iter()
                    .map(|k| k.name)
                    .collect::<Vec<_>>()
                    .join(", "),
                fallback.name
            );
            fallback
        }
    }
}

/// The seed's 8×8 tile, verbatim: a `[[f32; 8]; 8]` accumulator small
/// enough for LLVM scalar replacement, written back at the end.
///
/// # Safety
///
/// `a` must hold `kc·8` floats, `b` `kc·8`, `acc` 64 (asserted by
/// [`MicroKernel::run`]); no ISA requirement.
unsafe fn scalar_8x8(kc: usize, a: *const f32, b: *const f32, acc: *mut f32) {
    let a = std::slice::from_raw_parts(a, kc * 8);
    let b = std::slice::from_raw_parts(b, kc * 8);
    let mut tile = [[0.0f32; 8]; 8];
    for (av, bv) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        for (ai, row) in av.iter().zip(tile.iter_mut()) {
            for (slot, bj) in row.iter_mut().zip(bv) {
                *slot += ai * bj;
            }
        }
    }
    let out = std::slice::from_raw_parts_mut(acc, 64);
    for (dst, src) in out.chunks_exact_mut(8).zip(tile.iter()) {
        dst.copy_from_slice(src);
    }
}

/// [`scalar_8x8`] over bf16-packed strips: every element is widened to f32
/// up front (a 16-bit shift — exact) and the accumulation is the identical
/// f32 loop nest, so results match the f32 kernel on widened operands
/// bit-for-bit.
///
/// # Safety
///
/// `a` must hold `kc·8` bf16 codes, `b` `kc·8`, `acc` 64 floats (asserted
/// by [`MicroKernel::run_bf16`]); no ISA requirement.
unsafe fn scalar_8x8_bf16(kc: usize, a: *const u16, b: *const u16, acc: *mut f32) {
    let a = std::slice::from_raw_parts(a, kc * 8);
    let b = std::slice::from_raw_parts(b, kc * 8);
    let mut tile = [[0.0f32; 8]; 8];
    for (av, bv) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let mut bw = [0.0f32; 8];
        for (slot, &code) in bw.iter_mut().zip(bv) {
            *slot = crate::prec::bf16_to_f32(code);
        }
        for (&ai, row) in av.iter().zip(tile.iter_mut()) {
            let aw = crate::prec::bf16_to_f32(ai);
            for (slot, bj) in row.iter_mut().zip(&bw) {
                *slot += aw * bj;
            }
        }
    }
    let out = std::slice::from_raw_parts_mut(acc, 64);
    for (dst, src) in out.chunks_exact_mut(8).zip(tile.iter()) {
        dst.copy_from_slice(src);
    }
}

/// 8×8 AVX2 FMA tile: one ymm accumulator per row; each depth step is one
/// B-row load plus eight broadcast-FMAs.
///
/// # Safety
///
/// Requires AVX2 and FMA; operand extents as in [`scalar_8x8`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn avx2_8x8(kc: usize, a: *const f32, b: *const f32, acc: *mut f32) {
    use core::arch::x86_64::*;
    let mut c0 = _mm256_setzero_ps();
    let mut c1 = _mm256_setzero_ps();
    let mut c2 = _mm256_setzero_ps();
    let mut c3 = _mm256_setzero_ps();
    let mut c4 = _mm256_setzero_ps();
    let mut c5 = _mm256_setzero_ps();
    let mut c6 = _mm256_setzero_ps();
    let mut c7 = _mm256_setzero_ps();
    for p in 0..kc {
        let bv = _mm256_loadu_ps(b.add(p * 8));
        let ap = a.add(p * 8);
        c0 = _mm256_fmadd_ps(_mm256_broadcast_ss(&*ap), bv, c0);
        c1 = _mm256_fmadd_ps(_mm256_broadcast_ss(&*ap.add(1)), bv, c1);
        c2 = _mm256_fmadd_ps(_mm256_broadcast_ss(&*ap.add(2)), bv, c2);
        c3 = _mm256_fmadd_ps(_mm256_broadcast_ss(&*ap.add(3)), bv, c3);
        c4 = _mm256_fmadd_ps(_mm256_broadcast_ss(&*ap.add(4)), bv, c4);
        c5 = _mm256_fmadd_ps(_mm256_broadcast_ss(&*ap.add(5)), bv, c5);
        c6 = _mm256_fmadd_ps(_mm256_broadcast_ss(&*ap.add(6)), bv, c6);
        c7 = _mm256_fmadd_ps(_mm256_broadcast_ss(&*ap.add(7)), bv, c7);
    }
    _mm256_storeu_ps(acc, c0);
    _mm256_storeu_ps(acc.add(8), c1);
    _mm256_storeu_ps(acc.add(16), c2);
    _mm256_storeu_ps(acc.add(24), c3);
    _mm256_storeu_ps(acc.add(32), c4);
    _mm256_storeu_ps(acc.add(40), c5);
    _mm256_storeu_ps(acc.add(48), c6);
    _mm256_storeu_ps(acc.add(56), c7);
}

/// [`avx2_8x8`] over bf16-packed strips. The B row widens with one
/// `vpmovzxwd` + 16-bit shift (bf16 is literally the top half of an f32,
/// so the shift *is* the conversion — exact); A elements widen scalar-wise
/// into the broadcast. The FMA sequence is identical to the f32 body, so
/// results match the f32 kernel on widened operands bit-for-bit.
///
/// # Safety
///
/// Requires AVX2 and FMA; operand extents as in [`scalar_8x8_bf16`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn avx2_8x8_bf16(kc: usize, a: *const u16, b: *const u16, acc: *mut f32) {
    use core::arch::x86_64::*;
    /// Widens eight bf16 codes into the eight f32 lanes of a ymm register.
    ///
    /// # Safety
    ///
    /// Requires AVX2; `p` must be readable for eight `u16` (16 bytes, any
    /// alignment).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn widen8(p: *const u16) -> __m256 {
        let raw = _mm_loadu_si128(p.cast::<__m128i>());
        _mm256_castsi256_ps(_mm256_slli_epi32::<16>(_mm256_cvtepu16_epi32(raw)))
    }
    let mut c0 = _mm256_setzero_ps();
    let mut c1 = _mm256_setzero_ps();
    let mut c2 = _mm256_setzero_ps();
    let mut c3 = _mm256_setzero_ps();
    let mut c4 = _mm256_setzero_ps();
    let mut c5 = _mm256_setzero_ps();
    let mut c6 = _mm256_setzero_ps();
    let mut c7 = _mm256_setzero_ps();
    for p in 0..kc {
        let bv = widen8(b.add(p * 8));
        let ap = a.add(p * 8);
        macro_rules! fma_row {
            ($c:ident, $i:literal) => {
                $c = _mm256_fmadd_ps(
                    _mm256_set1_ps(crate::prec::bf16_to_f32(*ap.add($i))),
                    bv,
                    $c,
                );
            };
        }
        fma_row!(c0, 0);
        fma_row!(c1, 1);
        fma_row!(c2, 2);
        fma_row!(c3, 3);
        fma_row!(c4, 4);
        fma_row!(c5, 5);
        fma_row!(c6, 6);
        fma_row!(c7, 7);
    }
    _mm256_storeu_ps(acc, c0);
    _mm256_storeu_ps(acc.add(8), c1);
    _mm256_storeu_ps(acc.add(16), c2);
    _mm256_storeu_ps(acc.add(24), c3);
    _mm256_storeu_ps(acc.add(32), c4);
    _mm256_storeu_ps(acc.add(40), c5);
    _mm256_storeu_ps(acc.add(48), c6);
    _mm256_storeu_ps(acc.add(56), c7);
}

/// 16×16 AVX-512 FMA tile: 16 zmm accumulators; each depth step is one
/// 16-float B-row load plus sixteen broadcast-FMAs (the broadcasts fold
/// into the FMAs' embedded-broadcast memory operands).
///
/// # Safety
///
/// Requires AVX-512F; `a` must hold `kc·16` floats, `b` `kc·16`, `acc`
/// 256.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn avx512_16x16(kc: usize, a: *const f32, b: *const f32, acc: *mut f32) {
    use core::arch::x86_64::*;
    macro_rules! rows {
        ($mac:ident) => {
            $mac!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15)
        };
    }
    let mut cc = [_mm512_setzero_ps(); 16];
    for p in 0..kc {
        let bv = _mm512_loadu_ps(b.add(p * 16));
        let ap = a.add(p * 16);
        macro_rules! fma_rows {
            ($($i:literal)+) => {
                $(cc[$i] = _mm512_fmadd_ps(_mm512_set1_ps(*ap.add($i)), bv, cc[$i]);)+
            };
        }
        rows!(fma_rows);
    }
    macro_rules! store_rows {
        ($($i:literal)+) => {
            $(_mm512_storeu_ps(acc.add($i * 16), cc[$i]);)+
        };
    }
    rows!(store_rows);
}

/// [`avx512_16x16`] over bf16-packed strips: the 16-code B row widens with
/// one `vpmovzxwd` (zmm) + 16-bit shift, A elements widen scalar-wise into
/// the broadcast. FMA sequence identical to the f32 body — results match
/// the f32 kernel on widened operands bit-for-bit.
///
/// # Safety
///
/// Requires AVX-512F (the `vpmovzxwd ymm→zmm` widening is AVX-512F); `a`
/// must hold `kc·16` bf16 codes, `b` `kc·16`, `acc` 256 floats.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn avx512_16x16_bf16(kc: usize, a: *const u16, b: *const u16, acc: *mut f32) {
    use core::arch::x86_64::*;
    macro_rules! rows {
        ($mac:ident) => {
            $mac!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15)
        };
    }
    let mut cc = [_mm512_setzero_ps(); 16];
    for p in 0..kc {
        let raw = _mm256_loadu_si256(b.add(p * 16).cast::<__m256i>());
        let bv = _mm512_castsi512_ps(_mm512_slli_epi32::<16>(_mm512_cvtepu16_epi32(raw)));
        let ap = a.add(p * 16);
        macro_rules! fma_rows {
            ($($i:literal)+) => {
                $(cc[$i] = _mm512_fmadd_ps(
                    _mm512_set1_ps(crate::prec::bf16_to_f32(*ap.add($i))),
                    bv,
                    cc[$i],
                );)+
            };
        }
        rows!(fma_rows);
    }
    macro_rules! store_rows {
        ($($i:literal)+) => {
            $(_mm512_storeu_ps(acc.add($i * 16), cc[$i]);)+
        };
    }
    rows!(store_rows);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference dot-product tile for arbitrary (mr, nr).
    fn reference(kc: usize, mr: usize, nr: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut acc = vec![0.0f32; mr * nr];
        for p in 0..kc {
            for i in 0..mr {
                for j in 0..nr {
                    acc[i * nr + j] += a[p * mr + i] * b[p * nr + j];
                }
            }
        }
        acc
    }

    #[test]
    fn every_available_kernel_matches_reference_tile() {
        for kern in available() {
            for kc in [0usize, 1, 3, 37] {
                let a: Vec<f32> = (0..kc * kern.mr)
                    .map(|v| ((v * 7) % 23) as f32 / 4.0 - 2.5)
                    .collect();
                let b: Vec<f32> = (0..kc * kern.nr)
                    .map(|v| ((v * 11) % 19) as f32 / 4.0 - 2.0)
                    .collect();
                let mut acc = vec![f32::NAN; kern.mr * kern.nr]; // must overwrite
                kern.run(kc, &a, &b, &mut acc);
                let want = reference(kc, kern.mr, kern.nr, &a, &b);
                for (idx, (x, y)) in acc.iter().zip(&want).enumerate() {
                    assert!(
                        (x - y).abs() <= 1e-4 * y.abs().max(1.0),
                        "{} kc={kc} idx={idx}: {x} vs {y}",
                        kern.name
                    );
                }
            }
        }
    }

    #[test]
    fn bf16_tile_equals_f32_tile_on_widened_operands() {
        // The bf16 body must be the f32 reduction on exactly-widened
        // operands — bitwise, per kernel. Reduced precision lives in the
        // encoding (done at pack time), never in the kernel arithmetic.
        use crate::prec::{bf16_to_f32, f32_to_bf16};
        for kern in available() {
            for kc in [0usize, 1, 5, 33] {
                let a16: Vec<u16> = (0..kc * kern.mr)
                    .map(|v| f32_to_bf16(((v * 7) % 23) as f32 * 0.37 - 2.5))
                    .collect();
                let b16: Vec<u16> = (0..kc * kern.nr)
                    .map(|v| f32_to_bf16(((v * 11) % 19) as f32 * 0.29 - 2.0))
                    .collect();
                let a32: Vec<f32> = a16.iter().map(|&c| bf16_to_f32(c)).collect();
                let b32: Vec<f32> = b16.iter().map(|&c| bf16_to_f32(c)).collect();
                let mut got = vec![f32::NAN; kern.mr * kern.nr];
                let mut want = vec![f32::NAN; kern.mr * kern.nr];
                kern.run_bf16(kc, &a16, &b16, &mut got);
                kern.run(kc, &a32, &b32, &mut want);
                let gb: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                let wb: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
                assert_eq!(gb, wb, "{} kc={kc}", kern.name);
            }
        }
    }

    #[test]
    fn scalar_is_always_available_and_last() {
        let kernels = available();
        assert_eq!(kernels.last().unwrap().name, "scalar-8x8");
    }

    #[test]
    fn select_honors_requests_and_falls_back() {
        assert_eq!(select(None).name, available()[0].name);
        assert_eq!(select(Some("auto")).name, available()[0].name);
        assert_eq!(select(Some("scalar")).name, "scalar-8x8");
        assert_eq!(select(Some("SCALAR-8X8")).name, "scalar-8x8");
        // Unknown names warn and fall back to the widest kernel.
        assert_eq!(select(Some("neon")).name, available()[0].name);
    }

    #[test]
    fn tiles_fit_the_declared_maximums() {
        for kern in available() {
            assert!(kern.mr <= MAX_MR, "{}", kern.name);
            assert!(kern.nr <= MAX_NR, "{}", kern.name);
        }
    }
}
