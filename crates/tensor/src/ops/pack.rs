//! Cache-blocked GEMM core with operand packing, SIMD micro-kernel
//! dispatch, and deterministic multi-threading — the compute engine behind
//! `Linear` and the `matmul*` family.
//!
//! # Architecture
//!
//! The classic three-level blocking (BLIS-style): the k dimension is split
//! into `KC`-deep panels, columns into `NC`-wide panels, and rows into
//! `MC`-tall blocks. For each panel the operands are *packed* into
//! contiguous tiles — A into `mr`-row strips, B into `nr`-column strips —
//! so the `mr×nr` register micro-kernel streams both operands sequentially
//! and keeps all `mr·nr` accumulators live across the whole `KC` depth.
//! The tile shape comes from the micro-kernel chosen at startup
//! ([`crate::ops::kernel`]): hand-written AVX-512 (16×16) or AVX2 (8×8)
//! FMA kernels where the CPU supports them, the portable autovectorized
//! 8×8 tile otherwise.
//!
//! Operands are described by [`MatSrc`]: a row-major matrix in memory or
//! a column-major (transposed) view of one, so `Aᵀ·B` and `A·Bᵀ` need no
//! materialized transpose. Convolutions are not lowered onto this core:
//! they run as direct correlations ([`crate::ops::direct`]).
//!
//! # Threading, the shared B panel, and determinism
//!
//! Row blocks are distributed contiguously over scoped threads
//! (`std::thread::scope`); each thread owns a disjoint slice of C rows and
//! packs its own A strips. The packed **B panel is shared**: for every
//! `(KC, NC)` panel the workers pack disjoint strip ranges of one
//! arena-backed buffer, meet at a [`Barrier`], and then all read the same
//! panel — so B is packed exactly once per panel instead of once per
//! worker (the seed paid T× redundant B traffic at T threads).
//!
//! Thread boundaries are aligned to the `MC` grid and `MC` is a multiple
//! of every kernel's `mr`, so every output element sees the *same*
//! accumulation order regardless of thread count: results are bitwise
//! identical for 1 thread and N threads. The thread count comes from the
//! `MBS_THREADS` environment variable (default: available parallelism),
//! read once per process; the micro-kernel likewise is fixed per process
//! (`MBS_KERNEL`), because different tile shapes round differently.
//!
//! Unlike the original naive kernels there is no `a == 0.0` skip: zeros
//! are multiplied like any other value, so NaN/Inf propagate correctly and
//! the inner loop carries no data-dependent branch.
//!
//! # Reduced precision
//!
//! The packing pass is the single place operand elements are touched
//! before the micro-kernel, so it is also where reduced precision lives:
//! under [`Precision::Bf16`] (the `MBS_PREC` knob, see [`crate::prec`])
//! every packing loop encodes elements as bfloat16 while writing the
//! strips — including the cooperative shared-B-panel path, whose packed
//! bytes stay a pure function of `(B, jc, pc)` because the encoding is
//! deterministic bit arithmetic — and the micro-kernels widen on load,
//! accumulating in f32. The whole blocked core is written once, generic
//! over the packed element type, and monomorphized per precision; the f32
//! instantiation is operation-for-operation the pre-`MBS_PREC` code, so
//! f32 results are bitwise unchanged.

use std::marker::PhantomData;
use std::ops::Range;
use std::sync::{Barrier, OnceLock};

use crate::arena;
use crate::ops::activation::MaskSink;
use crate::ops::kernel::{self, MicroKernel, MAX_MR, MAX_NR};
use crate::prec::{self, Precision};

/// Rows per packed A block. A multiple of every registered kernel's `mr`
/// (8 and 16), which keeps packed-strip boundaries on a global grid no
/// matter how rows are split across threads; sized for L1.
pub const MC: usize = 64;
/// Depth of one packed panel (shared by A and B; sized for L1/L2).
pub const KC: usize = 128;
/// Columns per packed B panel. A multiple of every registered kernel's
/// `nr`; sized for L2.
pub const NC: usize = 256;

/// Element-wise post-op folded into the GEMM's C write-back.
///
/// Applied by the micro-kernel's fused store ([`MicroKernel::store_tile`])
/// on the **last depth panel only** — earlier panels hold partial sums.
/// The arithmetic order matches the unfused sequence exactly (accumulate
/// the final panel, then `+= bias[j]`, then the `v > 0` clamp), so fused
/// results are bitwise identical to GEMM-then-bias-then-ReLU; the property
/// tests in `tests/fused_epilogue.rs` pin that per kernel.
#[derive(Debug, Clone, Copy)]
pub enum Epilogue<'a> {
    /// Plain GEMM; write-back is an unmodified store/accumulate.
    None,
    /// `C[i][j] += bias[j]` — one bias value per output column, folded
    /// into the C store (the Linear/conv bias without its own pass).
    Bias(&'a [f32]),
    /// Bias, then ReLU. The clamp happens in the C store and the 1-bit
    /// sign mask (paper §3 "Back Propagation") is emitted by the same
    /// vector compare, in C's row-major element order.
    BiasRelu(&'a [f32], &'a MaskSink),
}

/// Number of GEMM worker threads: `MBS_THREADS` if set and positive, else
/// the machine's available parallelism (malformed values warn and fall
/// back). Read once per process.
pub fn configured_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        crate::env::positive_usize_knob("MBS_THREADS").unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    })
}

/// A packed-operand element type: `f32` (identity packing) or bf16-coded
/// `u16`. Everything a packing loop or a kernel dispatch needs is a method
/// here, so the blocked GEMM is written once and monomorphized per
/// precision — the f32 instantiation compiles to exactly the pre-precision
/// code (identity conversion, `memcpy` strip copies, the f32 tile body).
trait PackElem: Copy + Send + Sync + 'static {
    /// The strip padding value (`0.0` in both encodings).
    const ZERO: Self;
    /// Encodes one element (identity for f32, RNE bf16 otherwise).
    fn from_f32(v: f32) -> Self;
    /// `dst = encode(src)` — the converting strip copy (a `memcpy` for
    /// f32).
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    fn pack_from(dst: &mut [Self], src: &[f32]);
    /// Runs the micro-kernel tile body for this element type.
    fn run_tile(kern: &MicroKernel, kc: usize, a: &[Self], b: &[Self], acc: &mut [f32]);
}

impl PackElem for f32 {
    const ZERO: Self = 0.0;

    #[inline(always)]
    fn from_f32(v: f32) -> Self {
        v
    }

    #[inline(always)]
    fn pack_from(dst: &mut [Self], src: &[f32]) {
        dst.copy_from_slice(src);
    }

    #[inline(always)]
    fn run_tile(kern: &MicroKernel, kc: usize, a: &[Self], b: &[Self], acc: &mut [f32]) {
        kern.run(kc, a, b, acc);
    }
}

impl PackElem for u16 {
    const ZERO: Self = 0;

    #[inline(always)]
    fn from_f32(v: f32) -> Self {
        prec::f32_to_bf16(v)
    }

    #[inline(always)]
    fn pack_from(dst: &mut [Self], src: &[f32]) {
        prec::encode_slice(dst, src);
    }

    #[inline(always)]
    fn run_tile(kern: &MicroKernel, kc: usize, a: &[Self], b: &[Self], acc: &mut [f32]) {
        kern.run_bf16(kc, a, b, acc);
    }
}

/// An arena-backed packing buffer of `len` elements of `E`. The arena
/// pools f32 buffers; a bf16 buffer reinterprets one as u16 words
/// (alignment 4 ≥ 2, every bit pattern valid), so both precisions recycle
/// through the same pool and the zero-steady-state-miss pins keep holding.
struct ElemBuf<E> {
    raw: arena::Scratch,
    len: usize,
    _marker: PhantomData<E>,
}

impl<E: PackElem> ElemBuf<E> {
    fn take(len: usize) -> Self {
        let words = (len * std::mem::size_of::<E>()).div_ceil(std::mem::size_of::<f32>());
        Self {
            raw: arena::take(words),
            len,
            _marker: PhantomData,
        }
    }

    fn as_mut_ptr(&mut self) -> *mut E {
        self.raw.as_mut_ptr().cast::<E>()
    }

    fn as_mut_slice(&mut self) -> &mut [E] {
        // SAFETY: the scratch holds ≥ len·size_of::<E> bytes (see `take`),
        // f32 alignment covers both element types, and u16/f32 accept any
        // bit pattern; &mut self guarantees uniqueness.
        unsafe { std::slice::from_raw_parts_mut(self.as_mut_ptr(), self.len) }
    }
}

/// Where a GEMM operand's elements come from.
///
/// Logical coordinates are always `(r, c)` in the orientation the GEMM
/// needs: A sources are indexed `(i ∈ m, p ∈ k)`, B sources `(p ∈ k,
/// j ∈ n)`.
///
/// # Examples
///
/// A transposed view multiplies without materializing the transpose:
///
/// ```
/// use mbs_tensor::ops::{gemm, MatSrc};
///
/// // A = [[1, 2], [3, 4]] stored column-major (i.e. as [[1, 3], [2, 4]]).
/// let a_t = [1.0f32, 3.0, 2.0, 4.0];
/// let b = [1.0f32, 0.0, 0.0, 1.0]; // identity
/// let mut c = [0.0f32; 4];
/// gemm(
///     &MatSrc::ColMajor { data: &a_t, stride: 2 },
///     &MatSrc::RowMajor { data: &b, stride: 2 },
///     &mut c,
///     2,
///     2,
///     2,
/// );
/// assert_eq!(c, [1.0, 2.0, 3.0, 4.0]);
/// ```
#[derive(Debug, Clone, Copy)]
pub enum MatSrc<'a> {
    /// `(r, c) → data[r·stride + c]`.
    RowMajor {
        /// Backing storage.
        data: &'a [f32],
        /// Row stride.
        stride: usize,
    },
    /// `(r, c) → data[c·stride + r]` — a transposed view, used for `Aᵀ·B`
    /// and `A·Bᵀ` without materializing the transpose.
    ColMajor {
        /// Backing storage.
        data: &'a [f32],
        /// Column stride (the stored row length).
        stride: usize,
    },
}

/// `C[m×n] = A[m×k] · B[k×n]` with the process-default thread count and
/// micro-kernel.
///
/// `c` must hold exactly `m·n` elements and is overwritten (it need not be
/// zeroed first); when `k == 0` the output is left untouched.
///
/// # Panics
///
/// Panics if `c.len() != m·n` or an operand is smaller than its logical
/// extent.
pub fn gemm(a: &MatSrc<'_>, b: &MatSrc<'_>, c: &mut [f32], m: usize, n: usize, k: usize) {
    gemm_with_threads(a, b, c, m, n, k, configured_threads());
}

/// [`gemm`] with an explicit thread count (used by the determinism tests;
/// results are bitwise identical for any `threads ≥ 1`).
///
/// # Panics
///
/// Panics if `c.len() != m·n`.
pub fn gemm_with_threads(
    a: &MatSrc<'_>,
    b: &MatSrc<'_>,
    c: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    threads: usize,
) {
    gemm_with_kernel(a, b, c, m, n, k, threads, kernel::selected());
}

/// [`gemm_with_threads`] with an explicit micro-kernel (used by the
/// per-kernel parity tests; the production entry points always use the
/// process-wide [`kernel::selected`] so results stay run-to-run
/// identical).
///
/// # Panics
///
/// Panics if `c.len() != m·n`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_with_kernel(
    a: &MatSrc<'_>,
    b: &MatSrc<'_>,
    c: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    threads: usize,
    kern: &MicroKernel,
) {
    gemm_fused_with(a, b, c, m, n, k, threads, kern, &Epilogue::None);
}

/// [`gemm`] with a fused [`Epilogue`] applied at the C write-back, using
/// the process-default thread count and micro-kernel.
///
/// # Panics
///
/// Panics if `c.len() != m·n`, an operand is undersized, the epilogue's
/// bias is shorter than `n`, its mask sink does not cover `m·n` elements,
/// or `k == 0` with a non-`None` epilogue (an empty reduction never
/// reaches the write-back, so the post-op could not be applied).
pub fn gemm_fused(
    a: &MatSrc<'_>,
    b: &MatSrc<'_>,
    c: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    epi: &Epilogue<'_>,
) {
    gemm_fused_with(
        a,
        b,
        c,
        m,
        n,
        k,
        configured_threads(),
        kernel::selected(),
        epi,
    );
}

/// [`gemm_fused`] with explicit thread count and micro-kernel (the parity
/// tests sweep both).
///
/// # Panics
///
/// As for [`gemm_fused`].
#[allow(clippy::too_many_arguments)]
pub fn gemm_fused_with(
    a: &MatSrc<'_>,
    b: &MatSrc<'_>,
    c: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    threads: usize,
    kern: &MicroKernel,
    epi: &Epilogue<'_>,
) {
    gemm_fused_prec(a, b, c, m, n, k, threads, kern, epi, prec::precision());
}

/// [`gemm_fused_with`] with an explicit operand [`Precision`] (the
/// precision tests sweep both modes inside one process; the production
/// entry points always use the process-wide [`prec::precision`], so
/// results stay run-to-run identical).
///
/// Under [`Precision::Bf16`] the A/B panels are packed as bfloat16
/// (round-to-nearest-even) and the micro-kernel widens on load,
/// accumulating in f32; `c` and the epilogue stay f32. Results remain
/// bitwise invariant to `threads` per precision.
///
/// # Panics
///
/// As for [`gemm_fused`].
#[allow(clippy::too_many_arguments)]
pub fn gemm_fused_prec(
    a: &MatSrc<'_>,
    b: &MatSrc<'_>,
    c: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    threads: usize,
    kern: &MicroKernel,
    epi: &Epilogue<'_>,
    precision: Precision,
) {
    assert_eq!(c.len(), m * n, "output buffer must be m·n");
    match *epi {
        Epilogue::None => {}
        Epilogue::Bias(bias) => {
            assert!(bias.len() >= n, "epilogue bias shorter than n");
            assert!(k > 0, "a fused epilogue needs a non-empty reduction");
        }
        Epilogue::BiasRelu(bias, mask) => {
            assert!(bias.len() >= n, "epilogue bias shorter than n");
            assert_eq!(mask.len(), m * n, "epilogue mask must cover C");
            assert!(k > 0, "a fused epilogue needs a non-empty reduction");
        }
    }
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    // Validate operand extents up-front, on the calling thread: a panic
    // inside a spawned worker would leave its siblings waiting forever on
    // the shared-panel barrier instead of propagating.
    check_extent(a, m, k, "A");
    check_extent(b, k, n, "B");
    // Hard asserts (not debug): a non-dividing tile would mis-slice the
    // packing buffers inside a worker thread, and a worker panic strands
    // its siblings at the shared-panel barrier. One comparison per call.
    assert_eq!(MC % kern.mr, 0, "MC must be a multiple of the tile mr");
    assert_eq!(NC % kern.nr, 0, "NC must be a multiple of the tile nr");
    match precision {
        Precision::F32 => run_shared::<f32>(a, b, c, m, n, k, threads, kern, epi),
        Precision::Bf16 => run_shared::<u16>(a, b, c, m, n, k, threads, kern, epi),
    }
}

/// Panics unless `src` can serve every access of a logical `rows × cols`
/// operand (the packing loops then never index out of bounds, so worker
/// threads cannot panic mid-panel and strand their siblings at a barrier).
fn check_extent(src: &MatSrc<'_>, rows: usize, cols: usize, which: &str) {
    let (len, need) = match *src {
        MatSrc::RowMajor { data, stride } => (data.len(), (rows - 1) * stride + cols),
        MatSrc::ColMajor { data, stride } => (data.len(), (cols - 1) * stride + rows),
    };
    assert!(
        len >= need,
        "{which} operand too small: {len} elements, logical {rows}×{cols} extent needs {need}"
    );
}

/// Raw view of the shared packed-B panel handed to every worker. Workers
/// write disjoint strip ranges before the pack barrier and only read after
/// it; the `Barrier` orders those accesses, so no two live references ever
/// alias.
struct SharedPanel<E> {
    ptr: *mut E,
    len: usize,
}

// SAFETY: access is coordinated by the barrier protocol described above;
// the raw pointer itself is just an address.
unsafe impl<E: PackElem> Sync for SharedPanel<E> {}

impl<E: PackElem> SharedPanel<E> {
    /// Mutable view of elements `[start, start + len)`.
    ///
    /// # Safety
    ///
    /// The caller must be the only worker touching that range until the
    /// next barrier (the strip partition in [`shared_worker`] is disjoint).
    // The &self → &mut route is the point of this type: exclusivity is
    // guaranteed by the barrier protocol, not the borrow checker.
    #[allow(clippy::mut_from_ref)]
    unsafe fn strips_mut(&self, start: usize, len: usize) -> &mut [E] {
        debug_assert!(start + len <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(start), len)
    }

    /// Shared view of the first `len` elements.
    ///
    /// # Safety
    ///
    /// Callable only between the pack barrier and the end-of-panel barrier,
    /// while no `strips_mut` view is live.
    unsafe fn panel(&self, len: usize) -> &[E] {
        debug_assert!(len <= self.len);
        std::slice::from_raw_parts(self.ptr, len)
    }
}

/// The schedule behind every GEMM: C rows are split contiguously
/// (MC-aligned) across scoped workers that cooperatively pack one shared
/// B panel per `(jc, pc)` block. At one worker the body runs inline on
/// the calling thread and the one-participant barrier waits are no-ops.
#[allow(clippy::too_many_arguments)]
fn run_shared<E: PackElem>(
    a: &MatSrc<'_>,
    b: &MatSrc<'_>,
    c: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    threads: usize,
    kern: &MicroKernel,
    epi: &Epilogue<'_>,
) {
    let blocks = m.div_ceil(MC);
    // The barrier size must equal the spawned worker count: both come
    // from the same `chunk_workers` clamp (`scoped_chunks` applies it
    // idempotently to the value we pass).
    let workers = chunk_workers(blocks, threads);
    let mut b_buf = ElemBuf::<E>::take(KC * NC);
    let shared = SharedPanel {
        ptr: b_buf.as_mut_ptr(),
        len: KC * NC,
    };
    let barrier = Barrier::new(workers);
    let bound = |block: usize| (block * MC).min(m) * n;
    let a_panel = |_| ElemBuf::<E>::take(MC * KC);
    let work = |t, run: Range<usize>, chunk: &mut [f32], a_buf| {
        shared_worker(
            a,
            b,
            chunk,
            run.start * MC,
            n,
            k,
            t,
            workers,
            kern,
            epi,
            &shared,
            &barrier,
            a_buf,
        );
    };
    scoped_chunks(c, blocks, workers, a_panel, bound, work);
    // `b_buf` outlives every worker's panel view (the scope inside
    // `scoped_chunks` joins them) before the buffer returns to the arena.
    drop(b_buf);
}

/// One worker of the shared-panel schedule: packs its strip share of B,
/// waits for the panel to be complete, then computes its own C rows
/// (packing its own A strips into `a_buf`). Every worker executes the same
/// `(jc, pc)` loop so the two barriers per panel always pair up across
/// threads.
#[allow(clippy::too_many_arguments)]
fn shared_worker<E: PackElem>(
    a: &MatSrc<'_>,
    b: &MatSrc<'_>,
    c_rows: &mut [f32],
    r0: usize,
    n: usize,
    k: usize,
    t: usize,
    threads: usize,
    kern: &MicroKernel,
    epi: &Epilogue<'_>,
    shared: &SharedPanel<E>,
    barrier: &Barrier,
    mut a_buf: ElemBuf<E>,
) {
    let nr = kern.nr;
    let rows = c_rows.len() / n;
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        let strips = nc.div_ceil(nr);
        // This worker's contiguous strip share of the panel. The packed
        // bytes are a pure function of (B, jc, pc), not of which worker
        // writes them, so the shared panel preserves bitwise determinism.
        let s_per = strips / threads;
        let s_extra = strips % threads;
        let s_lo = t * s_per + t.min(s_extra);
        let s_hi = s_lo + s_per + usize::from(t < s_extra);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            if s_hi > s_lo {
                // SAFETY: strip ranges are disjoint across workers, and no
                // worker reads the panel before the barrier below.
                let my = unsafe { shared.strips_mut(s_lo * kc * nr, (s_hi - s_lo) * kc * nr) };
                let nc_local = (nc - s_lo * nr).min((s_hi - s_lo) * nr);
                pack_b(b, my, pc, kc, jc + s_lo * nr, nc_local, nr);
            }
            barrier.wait();
            // SAFETY: every write to the panel happened before the barrier
            // (which orders them), and nobody writes again until the
            // end-of-panel barrier.
            let b_panel = unsafe { shared.panel(strips * kc * nr) };
            let last_kpanel = pc + kc == k;
            compute_block(
                a,
                b_panel,
                c_rows,
                r0,
                rows,
                n,
                jc,
                nc,
                pc,
                kc,
                last_kpanel,
                kern,
                epi,
                a_buf.as_mut_slice(),
            );
            // The panel buffer is reused for the next (jc, pc) block; no
            // worker may repack while another still reads. The last panel
            // has no successor, so its drain barrier is skipped (the
            // thread-scope join provides the final synchronization).
            let last_panel = jc + NC >= n && pc + KC >= k;
            if !last_panel {
                barrier.wait();
            }
        }
    }
}

/// Computes C rows `[r0, r0 + rows)` of one `(jc, pc)` panel given its
/// packed B, packing A strips on the fly. `c_rows` is the `rows × n` slice
/// owned by the calling worker. On the last depth panel (`last_kpanel`)
/// the epilogue — bias add, ReLU clamp, sign-mask emission — is folded
/// into the same store that writes the final sums, so no later pass ever
/// re-reads C.
#[allow(clippy::too_many_arguments)]
fn compute_block<E: PackElem>(
    a: &MatSrc<'_>,
    b_panel: &[E],
    c_rows: &mut [f32],
    r0: usize,
    rows: usize,
    n: usize,
    jc: usize,
    nc: usize,
    pc: usize,
    kc: usize,
    last_kpanel: bool,
    kern: &MicroKernel,
    epi: &Epilogue<'_>,
    a_buf: &mut [E],
) {
    let (mr, nr) = (kern.mr, kern.nr);
    // The first depth panel *stores* its tile into C, later panels
    // accumulate — so callers never pre-zero C and the store pass skips
    // C's read traffic.
    let first_panel = pc == 0;
    let fused = last_kpanel && !matches!(epi, Epilogue::None);
    let nr_strips = nc.div_ceil(nr);
    let mut acc = [0.0f32; MAX_MR * MAX_NR];
    for ic in (0..rows).step_by(MC) {
        let mc = MC.min(rows - ic);
        pack_a(a, a_buf, r0 + ic, mc, pc, kc, mr);
        let mr_strips = mc.div_ceil(mr);
        for js in 0..nr_strips {
            let b_strip = &b_panel[js * kc * nr..(js + 1) * kc * nr];
            let j_hi = nr.min(nc - js * nr);
            let j0 = jc + js * nr;
            for is in 0..mr_strips {
                let a_strip = &a_buf[is * kc * mr..(is + 1) * kc * mr];
                let i_hi = mr.min(mc - is * mr);
                E::run_tile(kern, kc, a_strip, b_strip, &mut acc);
                let row0 = ic + is * mr;
                if fused {
                    match *epi {
                        Epilogue::None => unreachable!("fused implies a post-op"),
                        Epilogue::Bias(bias) => {
                            // Bias-only fuses as an inline write-back loop:
                            // an indirect SIMD store call costs more than
                            // the one extra add this epilogue needs.
                            let bias_row = &bias[j0..j0 + j_hi];
                            for i in 0..i_hi {
                                let acc_row = &acc[i * nr..i * nr + j_hi];
                                let off = (row0 + i) * n + j0;
                                let c_row = &mut c_rows[off..off + j_hi];
                                if first_panel {
                                    for ((cv, av), bv) in
                                        c_row.iter_mut().zip(acc_row).zip(bias_row)
                                    {
                                        *cv = av + bv;
                                    }
                                } else {
                                    for ((cv, av), bv) in
                                        c_row.iter_mut().zip(acc_row).zip(bias_row)
                                    {
                                        *cv = *cv + av + bv;
                                    }
                                }
                            }
                        }
                        Epilogue::BiasRelu(bias, mask) => {
                            // One fused SIMD store covers the whole tile:
                            // bias vector and edge mask stay in registers
                            // across its rows, and the sign bits fall out
                            // of the vector compare.
                            let dst = &mut c_rows[row0 * n + j0..];
                            let mut bits = [0u32; MAX_MR];
                            kern.store_tile(
                                &acc,
                                dst,
                                n,
                                i_hi,
                                j_hi,
                                Some(&bias[j0..j0 + j_hi]),
                                !first_panel,
                                true,
                                &mut bits,
                            );
                            for (i, &row_bits) in bits.iter().enumerate().take(i_hi) {
                                mask.or_bits((r0 + row0 + i) * n + j0, row_bits, j_hi);
                            }
                        }
                    }
                    continue;
                }
                for i in 0..i_hi {
                    let acc_row = &acc[i * nr..i * nr + j_hi];
                    let off = (row0 + i) * n + j0;
                    let c_row = &mut c_rows[off..off + j_hi];
                    if first_panel {
                        c_row.copy_from_slice(acc_row);
                    } else {
                        for (cv, av) in c_row.iter_mut().zip(acc_row) {
                            *cv += av;
                        }
                    }
                }
            }
        }
    }
}

/// Workers [`scoped_chunks`] will actually run for `items` work items
/// under a requested `threads` — the single source of the clamp, so
/// callers that need the count up front (the shared-panel barrier) cannot
/// drift from the split itself.
pub(crate) fn chunk_workers(items: usize, threads: usize) -> usize {
    threads.max(1).min(items)
}

/// Splits `buf` at `bound(item)` offsets into one contiguous run of items
/// per worker (`bound` is monotone, `bound(0) = 0`, `bound(items) =
/// buf.len()`) and runs `f(worker, items, chunk, state(worker))` for each
/// run on a scoped thread. The partition is a pure function of `(items,
/// threads)`, so any work whose per-item order is fixed stays
/// bitwise-deterministic for every thread count. Shared by the GEMM row
/// split ([`run_shared`]) and the direct convolutions' `(sample, channel
/// block)` split.
///
/// A worker's `state` is its arena scratch, and every state is built on
/// the calling thread, in worker order, before any worker starts. A worker
/// that checked its scratch out itself could finish (and recycle it)
/// before the next one starts, so how many buffers the pool needs at once
/// would depend on thread timing, and a steady-state step could miss where
/// the warm-up happened to run the workers one after the other.
pub(crate) fn scoped_chunks<S, I, B, F>(
    buf: &mut [f32],
    items: usize,
    threads: usize,
    state: I,
    bound: B,
    f: F,
) where
    S: Send,
    I: FnMut(usize) -> S,
    B: Fn(usize) -> usize,
    F: Fn(usize, Range<usize>, &mut [f32], S) + Sync,
{
    if buf.is_empty() || items == 0 {
        return;
    }
    let threads = chunk_workers(items, threads);
    let mut states = (0..threads).map(state);
    if threads == 1 {
        let only = states.next().expect("one worker state");
        f(0, 0..items, buf, only);
        return;
    }
    let states: Vec<S> = states.collect();
    let per = items / threads;
    let extra = items % threads;
    std::thread::scope(|scope| {
        let mut rest = buf;
        let mut item = 0usize;
        for (t, st) in states.into_iter().enumerate() {
            let count = per + usize::from(t < extra);
            let (chunk, tail) = rest.split_at_mut(bound(item + count) - bound(item));
            rest = tail;
            let run = item..item + count;
            item += count;
            let f = &f;
            scope.spawn(move || f(t, run, chunk, st));
        }
    });
}

/// Packs A rows `[i0, i0+mc) × depth [p0, p0+kc)` into `mr`-row strips:
/// `buf[strip·kc·mr + p·mr + i]`, zero-padded to full strips. Every source
/// variant gets a specialized loop (contiguous copies or one divmod per
/// run) — the packing pass is the fused paths' only touch of the operand,
/// so its per-element cost directly bounds kernel throughput.
#[allow(clippy::too_many_arguments)]
fn pack_a<E: PackElem>(
    src: &MatSrc<'_>,
    buf: &mut [E],
    i0: usize,
    mc: usize,
    p0: usize,
    kc: usize,
    mr: usize,
) {
    let strips = mc.div_ceil(mr);
    match *src {
        MatSrc::RowMajor { data, stride } => {
            for s in 0..strips {
                let strip = &mut buf[s * kc * mr..(s + 1) * kc * mr];
                let lanes = mr.min(mc - s * mr);
                for ii in 0..mr {
                    if ii >= lanes {
                        zero_lane(strip, kc, mr, ii);
                        continue;
                    }
                    let row = &data[(i0 + s * mr + ii) * stride + p0..][..kc];
                    for (p, &v) in row.iter().enumerate() {
                        strip[p * mr + ii] = E::from_f32(v);
                    }
                }
            }
        }
        MatSrc::ColMajor { data, stride } => {
            for s in 0..strips {
                let strip = &mut buf[s * kc * mr..(s + 1) * kc * mr];
                let lanes = mr.min(mc - s * mr);
                for p in 0..kc {
                    let col = &data[(p0 + p) * stride + i0 + s * mr..][..lanes];
                    let cell = &mut strip[p * mr..(p + 1) * mr];
                    E::pack_from(&mut cell[..lanes], col);
                    for slot in &mut cell[lanes..] {
                        *slot = E::ZERO;
                    }
                }
            }
        }
    }
}

/// Packs B depth `[p0, p0+kc) × cols [j0, j0+nc)` into `nr`-column strips:
/// `buf[strip·kc·nr + p·nr + j]`, zero-padded to full strips. Callable on
/// any strip-aligned column sub-range, which is how the shared-panel
/// workers each pack a disjoint slice of the same panel.
#[allow(clippy::too_many_arguments)]
fn pack_b<E: PackElem>(
    src: &MatSrc<'_>,
    buf: &mut [E],
    p0: usize,
    kc: usize,
    j0: usize,
    nc: usize,
    nr: usize,
) {
    let strips = nc.div_ceil(nr);
    match *src {
        MatSrc::RowMajor { data, stride } => {
            for s in 0..strips {
                let strip = &mut buf[s * kc * nr..(s + 1) * kc * nr];
                let lanes = nr.min(nc - s * nr);
                for p in 0..kc {
                    let row = &data[(p0 + p) * stride + j0 + s * nr..][..lanes];
                    let cell = &mut strip[p * nr..(p + 1) * nr];
                    E::pack_from(&mut cell[..lanes], row);
                    for slot in &mut cell[lanes..] {
                        *slot = E::ZERO;
                    }
                }
            }
        }
        MatSrc::ColMajor { data, stride } => {
            for s in 0..strips {
                let strip = &mut buf[s * kc * nr..(s + 1) * kc * nr];
                let lanes = nr.min(nc - s * nr);
                for jj in 0..nr {
                    if jj >= lanes {
                        zero_lane(strip, kc, nr, jj);
                        continue;
                    }
                    let col = &data[(j0 + s * nr + jj) * stride + p0..][..kc];
                    for (p, &v) in col.iter().enumerate() {
                        strip[p * nr + jj] = E::from_f32(v);
                    }
                }
            }
        }
    }
}

/// Zeroes one padding lane of a packed strip (`width` = mr or nr).
#[inline(always)]
fn zero_lane<E: PackElem>(strip: &mut [E], kc: usize, width: usize, lane: usize) {
    for p in 0..kc {
        strip[p * width + lane] = E::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(len: usize, salt: usize) -> Vec<f32> {
        (0..len)
            .map(|v| ((v * 13 + salt * 7) % 19) as f32 - 9.0)
            .collect()
    }

    fn naive(a: &[f32], b: &[f32], m: usize, n: usize, k: usize) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                for j in 0..n {
                    c[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        c
    }

    #[test]
    fn matches_naive_on_non_tile_shapes() {
        for &(m, n, k) in &[
            (1, 1, 1),
            (7, 9, 5),
            (65, 17, 130),
            (64, 256, 128),
            (100, 3, 300),
        ] {
            let a = seq(m * k, 1);
            let b = seq(k * n, 2);
            let mut c = vec![0.0f32; m * n];
            gemm(
                &MatSrc::RowMajor {
                    data: &a,
                    stride: k,
                },
                &MatSrc::RowMajor {
                    data: &b,
                    stride: n,
                },
                &mut c,
                m,
                n,
                k,
            );
            let expect = naive(&a, &b, m, n, k);
            for (x, y) in c.iter().zip(&expect) {
                assert!(
                    (x - y).abs() <= 1e-3 * y.abs().max(1.0),
                    "({m},{n},{k}): {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn thread_counts_are_bitwise_identical() {
        let (m, n, k) = (133, 37, 97);
        let a = seq(m * k, 3);
        let b = seq(k * n, 4);
        let mut c1 = vec![0.0f32; m * n];
        let mut c4 = vec![0.0f32; m * n];
        let asrc = MatSrc::RowMajor {
            data: &a,
            stride: k,
        };
        let bsrc = MatSrc::RowMajor {
            data: &b,
            stride: n,
        };
        gemm_with_threads(&asrc, &bsrc, &mut c1, m, n, k, 1);
        gemm_with_threads(&asrc, &bsrc, &mut c4, m, n, k, 4);
        assert_eq!(c1, c4, "thread count must not change results bitwise");
    }

    #[test]
    fn transposed_sources_match_explicit_transpose() {
        let (m, n, k) = (13, 11, 21);
        let a = seq(m * k, 5);
        let b = seq(k * n, 6);
        // A stored column-major ([k, m] layout).
        let mut at = vec![0.0f32; m * k];
        for i in 0..m {
            for p in 0..k {
                at[p * m + i] = a[i * k + p];
            }
        }
        let mut c = vec![0.0f32; m * n];
        gemm(
            &MatSrc::ColMajor {
                data: &at,
                stride: m,
            },
            &MatSrc::RowMajor {
                data: &b,
                stride: n,
            },
            &mut c,
            m,
            n,
            k,
        );
        let expect = naive(&a, &b, m, n, k);
        for (x, y) in c.iter().zip(&expect) {
            assert!((x - y).abs() <= 1e-3 * y.abs().max(1.0));
        }
    }

    #[test]
    fn zero_operands_propagate_nan() {
        // The old kernels skipped a==0.0, silently dropping NaN/Inf in B.
        let a = vec![0.0f32, 0.0];
        let b = vec![f32::NAN, 1.0];
        let mut c = vec![0.0f32; 1];
        gemm(
            &MatSrc::RowMajor {
                data: &a,
                stride: 2,
            },
            &MatSrc::RowMajor {
                data: &b,
                stride: 1,
            },
            &mut c,
            1,
            1,
            2,
        );
        assert!(c[0].is_nan(), "0·NaN must propagate, got {}", c[0]);
    }

    #[test]
    fn overwrites_existing_output() {
        let a = vec![1.0f32];
        let b = vec![2.0f32];
        let mut c = vec![5.0f32];
        gemm(
            &MatSrc::RowMajor {
                data: &a,
                stride: 1,
            },
            &MatSrc::RowMajor {
                data: &b,
                stride: 1,
            },
            &mut c,
            1,
            1,
            1,
        );
        assert_eq!(c[0], 2.0, "gemm overwrites stale output contents");
    }

    #[test]
    #[should_panic(expected = "A operand too small")]
    fn undersized_operand_panics_on_the_calling_thread() {
        // Validated before any worker spawns: a panic inside a worker
        // would strand its siblings at the shared-panel barrier (hang,
        // not panic).
        let a = vec![0.0f32; 10]; // needs 200·150
        let b = vec![0.0f32; 150 * 8];
        let mut c = vec![0.0f32; 200 * 8];
        gemm_with_threads(
            &MatSrc::RowMajor {
                data: &a,
                stride: 150,
            },
            &MatSrc::RowMajor {
                data: &b,
                stride: 8,
            },
            &mut c,
            200,
            8,
            150,
            4,
        );
    }

    #[test]
    fn every_registered_kernel_divides_the_blocking_grid() {
        // The determinism argument needs packed-strip boundaries on one
        // global grid: MC and NC must be multiples of every kernel's tile.
        // A future kernel that breaks this would otherwise only trip a
        // debug_assert (absent in release builds).
        for kern in kernel::available() {
            assert_eq!(MC % kern.mr, 0, "{}: MC % mr != 0", kern.name);
            assert_eq!(NC % kern.nr, 0, "{}: NC % nr != 0", kern.name);
        }
    }

    #[test]
    fn bf16_gemm_is_exact_on_bf16_representable_data() {
        // seq() yields integers in [-9, 9] — exactly representable in
        // bf16, so encoding is lossless and the bf16 GEMM must reproduce
        // the f32 GEMM bit-for-bit (the kernels accumulate in f32 either
        // way). Pins that reduced precision costs nothing when the data
        // already fits the format.
        let (m, n, k) = (70, 40, 150);
        let a = seq(m * k, 21);
        let b = seq(k * n, 22);
        let asrc = MatSrc::RowMajor {
            data: &a,
            stride: k,
        };
        let bsrc = MatSrc::RowMajor {
            data: &b,
            stride: n,
        };
        for kern in kernel::available() {
            let mut c32 = vec![0.0f32; m * n];
            let mut c16 = vec![0.0f32; m * n];
            gemm_fused_prec(
                &asrc,
                &bsrc,
                &mut c32,
                m,
                n,
                k,
                1,
                kern,
                &Epilogue::None,
                Precision::F32,
            );
            gemm_fused_prec(
                &asrc,
                &bsrc,
                &mut c16,
                m,
                n,
                k,
                1,
                kern,
                &Epilogue::None,
                Precision::Bf16,
            );
            assert_eq!(c32, c16, "{}", kern.name);
        }
    }

    #[test]
    fn bf16_gemm_matches_f32_within_encoding_tolerance() {
        // Non-representable data: the only error source is one RNE
        // encoding per operand element (relative 2^-8), so the result must
        // sit within a small multiple of that around the f32 answer.
        let (m, n, k) = (65, 33, 130);
        let a: Vec<f32> = (0..m * k)
            .map(|v| ((v * 13) % 19) as f32 * 0.37 - 3.3)
            .collect();
        let b: Vec<f32> = (0..k * n)
            .map(|v| ((v * 7) % 23) as f32 * 0.29 - 3.1)
            .collect();
        let asrc = MatSrc::RowMajor {
            data: &a,
            stride: k,
        };
        let bsrc = MatSrc::RowMajor {
            data: &b,
            stride: n,
        };
        let mut c32 = vec![0.0f32; m * n];
        let mut c16 = vec![0.0f32; m * n];
        let kern = kernel::selected();
        gemm_fused_prec(
            &asrc,
            &bsrc,
            &mut c32,
            m,
            n,
            k,
            1,
            kern,
            &Epilogue::None,
            Precision::F32,
        );
        gemm_fused_prec(
            &asrc,
            &bsrc,
            &mut c16,
            m,
            n,
            k,
            1,
            kern,
            &Epilogue::None,
            Precision::Bf16,
        );
        // Row i of C is a k-term dot product of values ≤ ~4: |error| ≲
        // 2·2^-8 · Σ|aᵢ||bⱼ| ≤ 2^-7 · k · 16. Use half that as the bound —
        // errors are signed and cancel — with slack for edge cases.
        let budget = (k as f32) * 16.0 / 256.0;
        for (i, (x, y)) in c16.iter().zip(&c32).enumerate() {
            assert!(
                (x - y).abs() <= budget,
                "idx {i}: bf16 {x} vs f32 {y} (budget {budget})"
            );
        }
    }

    #[test]
    fn bf16_thread_counts_are_bitwise_identical() {
        // The shared-B-panel protocol must preserve per-precision bitwise
        // thread invariance: packed bf16 bytes are a pure function of
        // (B, jc, pc), regardless of which worker encodes them.
        let (m, n, k) = (200, 300, 150);
        let a = seq(m * k, 31);
        let b = seq(k * n, 32);
        let asrc = MatSrc::RowMajor {
            data: &a,
            stride: k,
        };
        let bsrc = MatSrc::RowMajor {
            data: &b,
            stride: n,
        };
        let kern = kernel::selected();
        let mut c1 = vec![0.0f32; m * n];
        gemm_fused_prec(
            &asrc,
            &bsrc,
            &mut c1,
            m,
            n,
            k,
            1,
            kern,
            &Epilogue::None,
            Precision::Bf16,
        );
        for threads in [2usize, 3, 5, 8] {
            let mut cn = vec![0.0f32; m * n];
            gemm_fused_prec(
                &asrc,
                &bsrc,
                &mut cn,
                m,
                n,
                k,
                threads,
                kern,
                &Epilogue::None,
                Precision::Bf16,
            );
            assert_eq!(c1, cn, "bf16 with {threads} threads");
        }
    }

    #[test]
    fn every_kernel_and_thread_count_agrees_bitwise_per_kernel() {
        // For each registered kernel: N threads must reproduce 1 thread
        // bit-for-bit (the shared B panel must not change results).
        let (m, n, k) = (200, 300, 150);
        let a = seq(m * k, 11);
        let b = seq(k * n, 12);
        let asrc = MatSrc::RowMajor {
            data: &a,
            stride: k,
        };
        let bsrc = MatSrc::RowMajor {
            data: &b,
            stride: n,
        };
        for kern in kernel::available() {
            let mut c1 = vec![0.0f32; m * n];
            gemm_with_kernel(&asrc, &bsrc, &mut c1, m, n, k, 1, kern);
            for threads in [2usize, 3, 5, 8] {
                let mut cn = vec![0.0f32; m * n];
                gemm_with_kernel(&asrc, &bsrc, &mut cn, m, n, k, threads, kern);
                assert_eq!(c1, cn, "{} with {threads} threads", kern.name);
            }
        }
    }
}
